//! A sweep whose every seed failed still reports sane totals.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_wrsn");

/// Runs a `--keep-going` exhaustive sweep that fails on every seed (its
/// search space is far past the limit) and returns stdout.
fn failed_sweep(extra: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(["sweep", "--posts", "20", "--nodes", "60", "--field", "150"])
        .args(["--seeds", "3", "--no-timings", "--algo", "exhaustive"])
        .arg("--keep-going")
        .args(extra)
        .output()
        .expect("running wrsn sweep");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn an_all_failed_sweep_totals_zero_not_negative_zero() {
    let text = failed_sweep(&[]);
    assert!(text.contains("failed seeds (3 of 3)"), "{text}");
    assert!(text.contains("setup 0.0 ms, solve 0.0 ms"), "{text}");
    let json = failed_sweep(&["--json"]);
    assert!(json.contains("\"setup_ms_total\": 0.0,"), "{json}");
    assert!(json.contains("\"solve_ms_total\": 0.0"), "{json}");
    assert!(!json.contains("-0.0"), "{json}");
}
