//! Out-of-range instance parameters and pinned specs fail closed at the
//! command line: exit status 1 with a message naming the parameter, never
//! a panic (status 101) or an aborted allocation (status 134).

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
fn huge_node_counts_exit_1_naming_nodes() {
    // Unchecked, the first would size exhaustive search's composition
    // count by four billion spare nodes and abort on allocation.
    for nodes in ["4000000000", "2001"] {
        let stderr = solve_fails(&["--algo", "exhaustive", "--posts", "5", "--nodes", nodes]);
        assert!(stderr.contains("nodes must be at most 2000"), "{stderr}");
    }
}

#[test]
fn out_of_domain_pinned_specs_exit_1_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("wrsn-instance-params-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let valid = dir.join("valid.json");
    let saved = Command::new(BIN)
        .args([
            "solve", "--posts", "4", "--nodes", "8", "--field", "150", "--save",
        ])
        .arg(&valid)
        .output()
        .expect("running wrsn solve");
    assert!(saved.status.success());
    let text = std::fs::read_to_string(&valid).unwrap();
    for (field, corrupt, message) in [
        ("\"eta\": 1.0", "\"eta\": 2", "eta must be in (0, 1]"),
        (
            "\"beta_pj\": 0.0013",
            "\"beta_pj\": 1e308",
            "must be finite and non-negative",
        ),
        (
            "\"num_nodes\": 8",
            "\"num_nodes\": 2001",
            "nodes must be at most 2000",
        ),
        (
            "\"eta\": 1.0",
            "\"eta\": 1.0, \"etta\": 0.5",
            "unknown field `etta` in InstanceSpec",
        ),
    ] {
        assert!(text.contains(field), "{text}");
        let bad = dir.join("bad.json");
        std::fs::write(&bad, text.replace(field, corrupt)).unwrap();
        let stderr = solve_fails(&["--load", bad.to_str().unwrap(), "--algo", "idb"]);
        assert!(stderr.contains(message), "{corrupt}: {stderr}");
    }
    // Both radio constants at zero make every link free. The shortest-path
    // parents then tied into a cycle and seven solvers exited 101.
    let free = dir.join("free.json");
    let zeroed = text
        .replace("\"alpha_nj\": 50.0", "\"alpha_nj\": 0.0")
        .replace("\"beta_pj\": 0.0013", "\"beta_pj\": 0.0");
    assert_ne!(zeroed, text);
    std::fs::write(&free, zeroed).unwrap();
    for algo in [
        "rfh",
        "irfh",
        "idb",
        "bnb",
        "sched-tour",
        "sched-place",
        "sched-bilevel",
    ] {
        let stderr = solve_fails(&["--load", free.to_str().unwrap(), "--algo", algo]);
        assert!(
            stderr.contains("positive routing weight"),
            "{algo}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
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
