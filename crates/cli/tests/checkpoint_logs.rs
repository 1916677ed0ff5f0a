//! Checkpoint and shard logs that do not describe their sweep fail
//! closed: `wrsn merge` and `wrsn sweep --resume` exit 1 naming the
//! fault, never report a seed range that wrapped or a stray seed.

use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_wrsn");

fn wrsn(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("running wrsn")
}

/// Writes a 3-seed checkpoint at `path` and returns its text.
fn checkpoint(path: &Path) -> String {
    let path = path.to_str().unwrap();
    let out = wrsn(&[
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
        "3",
        "--no-timings",
        "--checkpoint",
        path,
    ]);
    assert!(out.status.success(), "{out:?}");
    std::fs::read_to_string(path).unwrap()
}

/// Expects status 1, nothing on stdout, and `want` on stderr.
fn fails_naming(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "printed a report: {out:?}");
    assert!(stderr.contains(want), "{stderr}");
}

#[test]
fn merge_of_an_inverted_seed_range_exits_1() {
    let dir = std::env::temp_dir().join(format!("wrsn-checkpoint-logs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("inverted.jsonl");
    let text = checkpoint(&log);
    let header = "\"seed_start\":0,\"seed_end\":3";
    assert!(text.contains(header), "{text}");
    std::fs::write(
        &log,
        text.replace(header, "\"seed_start\":10,\"seed_end\":5"),
    )
    .unwrap();
    // An inverted header must not wrap into 18446744073709551611 seeds.
    let out = wrsn(&["merge", "--logs", log.to_str().unwrap()]);
    fails_naming(&out, "seed range 10..5 is empty");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_over_a_record_outside_the_range_exits_1() {
    let dir = std::env::temp_dir().join(format!("wrsn-checkpoint-stray-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("stray.jsonl");
    let text = checkpoint(&log);
    let seed_0 = text.lines().find(|l| l.contains("\"seed\":0,")).unwrap();
    let stray = seed_0.replacen("\"seed\":0,", "\"seed\":999,", 1);
    std::fs::write(&log, format!("{text}{stray}\n")).unwrap();
    // A stray record must not become a fourth row of the report.
    let out = wrsn(&[
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
        "3",
        "--no-timings",
        "--checkpoint",
        log.to_str().unwrap(),
        "--resume",
    ]);
    fails_naming(&out, "line 5: seed 999 is outside the header's seeds 0..3");
    std::fs::remove_dir_all(&dir).unwrap();
}
