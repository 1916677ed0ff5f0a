//! Out-of-range `wrsn simulate` settings fail closed: exit status 1 with
//! a message naming the flag, never a panic (status 101), an aborted
//! allocation (status 134) or a run that does not finish.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_wrsn");

/// Runs `wrsn simulate` on a small instance with `args`, expects status 1
/// within 20 s, and returns stderr.
fn simulate_fails(args: &[&str]) -> String {
    let mut child = Command::new(BIN)
        .args([
            "simulate", "--posts", "6", "--nodes", "14", "--field", "150", "--rounds", "100",
        ])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("running wrsn simulate");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("polling wrsn simulate").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?}: still running after 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collecting wrsn simulate");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    stderr
}

#[test]
fn degenerate_patrol_speeds_exit_1_naming_speed() {
    // 0, -1 and NaN used to panic; inf and 1e12 patrolled without end.
    for speed in ["0", "-1", "nan", "inf", "1e12"] {
        let stderr = simulate_fails(&["--policy", "tour", "--speed", speed]);
        assert!(stderr.contains("--speed must lie in (0, 1000]"), "{stderr}");
    }
}

#[test]
fn non_finite_batteries_exit_1_naming_battery() {
    for battery in ["nan", "inf", "1e300"] {
        let stderr = simulate_fails(&["--battery", battery]);
        assert!(stderr.contains("--battery must be positive"), "{stderr}");
    }
}

#[test]
fn a_fleet_over_the_post_cap_exits_1_naming_chargers() {
    // The tour planner sizes an allocation by the fleet, so 10⁸ chargers
    // asked it for gigabytes.
    let stderr = simulate_fails(&[
        "--policy",
        "tour",
        "--sched-tour",
        "--chargers",
        "100000000",
    ]);
    assert!(
        stderr.contains("--chargers must lie in 1..=1000"),
        "{stderr}"
    );
}

#[test]
fn an_unknown_scenario_key_exits_1_naming_it() {
    let stderr = simulate_fails(&["--scenario", r#"{"charger":2}"#]);
    assert!(stderr.contains("unknown field `charger`"), "{stderr}");
}

#[test]
fn a_zero_timeline_exits_1_naming_timeline() {
    // It used to exit 0 with an empty `soc_timeline`.
    let stderr = simulate_fails(&["--timeline", "0", "--json"]);
    assert!(
        stderr.contains("--timeline must be at least 1 round"),
        "{stderr}"
    );
}
