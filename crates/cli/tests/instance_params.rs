//! Out-of-range instance parameters fail closed at the command line:
//! exit status 1 with a message naming the parameter, never a panic
//! (status 101) or an aborted allocation (status 134).

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_wrsn");

/// Runs `wrsn solve` with `args`, expects status 1 and returns stderr.
fn solve_fails(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .arg("solve")
        .args(args)
        .output()
        .expect("running wrsn solve");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    stderr
}

#[test]
fn non_finite_field_exits_1_naming_the_field() {
    for field in ["inf", "NaN", "1e999"] {
        let stderr = solve_fails(&["--field", field, "--posts", "5", "--nodes", "10"]);
        assert!(stderr.contains("field must be a finite"), "{stderr}");
    }
}

#[test]
fn huge_level_and_post_counts_exit_1_naming_the_count() {
    let stderr = solve_fails(&["--levels", "1000000000000"]);
    assert!(stderr.contains("levels must be at most 1000"), "{stderr}");
    for posts in ["4000000000", "1001"] {
        let stderr = solve_fails(&["--posts", posts, "--nodes", "4000000000"]);
        assert!(stderr.contains("posts must be at most 1000"), "{stderr}");
    }
}

#[test]
fn the_caps_still_solve() {
    // 1000 levels reach past the field's diagonal, so every one of the
    // 1000 posts links to every other: the most links the caps allow.
    let out = Command::new(BIN)
        .args([
            "solve", "--posts", "1000", "--nodes", "1000", "--levels", "1000", "--seed", "3",
            "--algo", "rfh", "--json",
        ])
        .output()
        .expect("running wrsn solve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
