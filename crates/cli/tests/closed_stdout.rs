//! A reader that closes `wrsn`'s stdout early, as `wrsn ... | head -c 10`
//! does, ends the run quietly: exit status 0 and no panic on stderr.

use std::io::Read;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_wrsn");

#[test]
fn a_closed_stdout_ends_the_run_with_status_0() {
    // About 400 KB of JSON: far more than a pipe buffers, so the write
    // is still going when the read end closes.
    let mut child = Command::new(BIN)
        .args([
            "sweep",
            "--posts",
            "5",
            "--nodes",
            "10",
            "--field",
            "150",
            "--algo",
            "idb",
            "--seeds",
            "3000",
            "--no-timings",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("running wrsn sweep");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 10];
    stdout
        .read_exact(&mut head)
        .expect("the report's first bytes");
    drop(stdout);
    let out = child.wait_with_output().expect("waiting for wrsn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
