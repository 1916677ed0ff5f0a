//! Crash-recovery harness: SIGKILL a real `wrsn serve` process mid-
//! sweep and prove the durable store and job journal lose nothing.
//!
//! The scenario mirrors an operator's worst day: a server running with
//! `--cache --durability fsync` takes an async job, gets `kill -9`'d
//! while seeds are still solving, and is restarted over the same store
//! directory. The restarted server must (a) still know the job, (b)
//! resume it to completion, and (c) produce a final report
//! byte-identical to a never-interrupted run — and `wrsn cache verify`
//! must find no corruption beyond a repairable torn tail.

use std::io::{BufRead as _, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use wrsn_serve::client;

const BIN: &str = env!("CARGO_BIN_EXE_wrsn");

/// A sweep heavy enough to stay in flight for a beat: the kill lands
/// between the first committed seed and the last.
const JOB_SPEC: &str =
    "{\"instance\": {\"posts\": 10, \"nodes\": 50, \"field\": 300.0}, \"seeds\": 40}";

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawns `wrsn serve` on an ephemeral port over `store_dir` and
    /// waits for the readiness announcement on stderr.
    fn start(store_dir: &std::path::Path) -> ServerProc {
        let mut child = Command::new(BIN)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache",
                &store_dir.display().to_string(),
                "--durability",
                "fsync",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning wrsn serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            assert!(Instant::now() < deadline, "server never announced");
            let Some(Ok(line)) = lines.next() else {
                panic!("server exited before announcing readiness");
            };
            if let Some(rest) = line.strip_prefix("wrsn-serve listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr.trim_end_matches('(').trim().to_string();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _line in lines {});
        ServerProc { child, addr }
    }

    fn kill9(mut self) {
        // Child::kill is SIGKILL on unix — no drain, no flush.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        // No graceful-signal plumbing in std; SIGKILL is fine here
        // because these teardowns happen after the assertions.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn get_json(addr: &str, path: &str) -> serde_json::Value {
    let resp = client::request(addr, "GET", path, None).expect("GET");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    serde_json::from_str(&resp.body).expect("valid JSON")
}

fn submit_job(addr: &str) -> u64 {
    let resp = client::request(addr, "POST", "/v1/jobs", Some(JOB_SPEC)).expect("POST /v1/jobs");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let v: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    v.get("id").and_then(serde_json::Value::as_u64).unwrap()
}

fn poll_until_done(addr: &str, id: u64) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        assert!(Instant::now() < deadline, "job {id} never finished");
        let v = get_json(addr, &format!("/v1/jobs/{id}"));
        match v.get("state").and_then(serde_json::Value::as_str) {
            Some("done") => return v,
            Some("running") => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("job {id} in unexpected state {other:?}: {v:?}"),
        }
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wrsn-crash-harness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sigkill_mid_sweep_loses_no_committed_results() {
    let crashed_dir = temp_dir("crashed");
    let clean_dir = temp_dir("clean");

    // --- Act 1: submit, wait for the first committed seed, kill -9.
    let server = ServerProc::start(&crashed_dir);
    let id = submit_job(&server.addr);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "no seed ever committed");
        let v = get_json(&server.addr, &format!("/v1/jobs/{id}/events?since=0"));
        let events = v
            .get("events")
            .and_then(serde_json::Value::as_array)
            .map_or(0, Vec::len);
        if events >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill9();

    // --- Act 2: restart over the same store; the journal respawns the
    // job and the checkpoint + cache replay the committed seeds.
    let server = ServerProc::start(&crashed_dir);
    let resumed = poll_until_done(&server.addr, id);
    let resumed_report = resumed.get("report").expect("resumed job has a report");
    let status = get_json(&server.addr, "/statusz");
    let io = status.get("io").expect("statusz io section with a store");
    assert!(
        io.get("jobs_resumed")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
            >= 1,
        "restart must report the resumed job: {io:?}"
    );
    // Every seed reached the store: those the killed server committed
    // (stored before they were checkpointed) and those the resumed
    // job solved.
    let entries = status
        .get("cache")
        .and_then(|cache| cache.get("entries"))
        .and_then(serde_json::Value::as_u64);
    assert_eq!(
        entries,
        Some(40),
        "store entries after the resume: {status:?}"
    );
    // The resumed job's feed counts the seeds it restored, too.
    let events = get_json(&server.addr, &format!("/v1/jobs/{id}/events?since=0"));
    let next = events.get("next").and_then(serde_json::Value::as_u64);
    assert_eq!(next, Some(40), "resumed job's events: {events:?}");
    server.shutdown();

    // --- Act 3: the same job on a never-crashed server, for the
    // byte-identical reference report.
    let server = ServerProc::start(&clean_dir);
    let clean_id = submit_job(&server.addr);
    let clean = poll_until_done(&server.addr, clean_id);
    let clean_report = clean.get("report").expect("clean job has a report");
    server.shutdown();

    assert_eq!(
        serde_json::to_string(resumed_report).unwrap(),
        serde_json::to_string(clean_report).unwrap(),
        "a killed-and-resumed job must replay to the uninterrupted report"
    );

    // --- Act 4: the crashed store itself is healthy — every committed
    // segment parses (a torn tail is repairable, not a loss).
    let verify = Command::new(BIN)
        .args([
            "cache",
            "verify",
            "--cache",
            &crashed_dir.display().to_string(),
        ])
        .output()
        .expect("running cache verify");
    assert!(
        verify.status.success(),
        "cache verify flagged the crashed store:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&verify.stdout),
        String::from_utf8_lossy(&verify.stderr)
    );

    let _ = std::fs::remove_dir_all(crashed_dir);
    let _ = std::fs::remove_dir_all(clean_dir);
}

#[test]
fn cache_verify_exits_nonzero_on_planted_corruption() {
    use serde::Serialize as _;
    use wrsn_engine::{FingerprintBuilder, ResultStore};
    let dir = temp_dir("verify-cli");
    {
        let store = ResultStore::open(&dir).unwrap();
        for i in 0..4u64 {
            let mut b = FingerprintBuilder::new("crash-harness");
            b.push_u64(i);
            store.put(&b.finish(), i.to_value()).unwrap();
        }
        store.sync().unwrap();
    }
    // A clean store verifies with exit 0.
    let ok = Command::new(BIN)
        .args(["cache", "verify", "--cache", &dir.display().to_string()])
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "clean store must verify: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Plant interior corruption: mangle a record line that is NOT the
    // tail, so it cannot be mistaken for a repairable torn write.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("a segment file");
    let text = std::fs::read_to_string(&segment).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "header plus several records");
    let mut mangled: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
    mangled[1] = "{this is not json".to_string();
    std::fs::write(&segment, format!("{}\n", mangled.join("\n"))).unwrap();

    let bad = Command::new(BIN)
        .args(["cache", "verify", "--cache", &dir.display().to_string()])
        .output()
        .unwrap();
    assert!(
        !bad.status.success(),
        "verify must exit nonzero on interior corruption:\nstdout: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("CORRUPT"),
        "the verdict names the corruption: {}",
        String::from_utf8_lossy(&bad.stderr)
    );
    let _ = std::fs::remove_dir_all(dir);
}
