//! End-to-end tests for the HTTP serving layer over real loopback
//! sockets: endpoint round-trips, concurrent cache sharing with
//! byte-identical bodies, admission-control overflow, and the chaos
//! harness (an injected-fault server that a retrying client fleet must
//! ride out with zero terminal failures).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wrsn::core::{InstanceSampler, InstanceSpec};
use wrsn::engine::ResultStore;
use wrsn::geom::Field;
use wrsn::serve::api::ApiContext;
use wrsn::serve::client::{
    loadgen, request, request_auth, request_with_retry, request_with_retry_auth, run_job,
    ClientResponse, Connection, Drive, RequestSpec, RetryPolicy, Workload,
};
use wrsn::serve::{ChaosPolicy, Server, ServerConfig, ServerHandle, TenantSpec, MAX_REACTORS};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("wrsn-serving-test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(api: ApiContext, workers: usize, queue_depth: usize) -> ServerHandle {
    start_with(
        api,
        ServerConfig {
            workers,
            queue_depth,
            ..ServerConfig::default()
        },
    )
}

fn start_with(api: ApiContext, mut config: ServerConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".to_string();
    Server::start(&config, api).unwrap()
}

fn post(addr: &str, path: &str, body: &str) -> ClientResponse {
    request(addr, "POST", path, Some(body)).unwrap()
}

/// POSTs `body` on a fresh connection and returns the raw reply, failing
/// if none arrives within 5 s: a worker that died never answers.
fn post_within_5s(addr: &str, path: &str, body: &str) -> String {
    raw_within(addr, "POST", path, Some(body), Duration::from_secs(5))
}

/// Sends one request on a fresh connection and returns the raw reply,
/// failing if it does not arrive within `limit`.
fn raw_within(addr: &str, method: &str, path: &str, body: Option<&str>, limit: Duration) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream.set_read_timeout(Some(limit)).unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .unwrap_or_else(|e| panic!("{method} {path}: no reply within {limit:?}: {e}"));
    String::from_utf8_lossy(&raw).into_owned()
}

const SMALL: &str = "\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0}";

#[test]
fn endpoints_round_trip_over_loopback() {
    let server = start(ApiContext::new(), 2, 16);
    let addr = server.addr().to_string();

    let health = request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));

    let solvers = request(&addr, "GET", "/v1/solvers", None).unwrap();
    assert_eq!(solvers.status, 200);
    assert!(solvers.body.contains("irfh"));
    assert!(solvers.body.contains("idb"));

    let solve = post(
        &addr,
        "/v1/solve",
        &format!("{{{SMALL},\"solver\":\"idb\"}}"),
    );
    assert_eq!(solve.status, 200, "{}", solve.body);
    let v: serde_json::Value = serde_json::from_str(&solve.body).unwrap();
    assert!(
        v.get("cost_uj")
            .and_then(serde_json::Value::as_f64)
            .unwrap()
            > 0.0
    );

    let simulate = post(
        &addr,
        "/v1/simulate",
        &format!("{{{SMALL},\"solver\":\"idb\",\"rounds\":40,\"link_loss\":1.0}}"),
    );
    assert_eq!(simulate.status, 200, "{}", simulate.body);
    let v: serde_json::Value = serde_json::from_str(&simulate.body).unwrap();
    assert_eq!(
        v.get("rounds").and_then(serde_json::Value::as_u64),
        Some(40)
    );
    assert_eq!(
        v.get("delivery_ratio").and_then(serde_json::Value::as_f64),
        Some(0.0),
        "total link loss delivers nothing"
    );

    let sweep = post(
        &addr,
        "/v1/sweep",
        &format!("{{{SMALL},\"solver\":\"idb\",\"seeds\":3}}"),
    );
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    let v: serde_json::Value = serde_json::from_str(&sweep.body).unwrap();
    assert_eq!(
        v.get("runs")
            .and_then(serde_json::Value::as_array)
            .map(Vec::len),
        Some(3)
    );

    // The run is visible in /statusz.
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    assert_eq!(statusz.status, 200);
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let endpoints = v.get("endpoints").unwrap();
    for path in [
        "/v1/solve",
        "/v1/simulate",
        "/v1/sweep",
        "/v1/solvers",
        "/healthz",
    ] {
        let stats = endpoints
            .get(path)
            .unwrap_or_else(|| panic!("{path} missing"));
        assert!(
            stats
                .get("requests")
                .and_then(serde_json::Value::as_u64)
                .unwrap()
                >= 1,
            "{path}"
        );
    }
    server.shutdown().unwrap();
}

/// A registry whose `"counted"` solver counts constructions, shared
/// with the test so it can assert how often the solver actually ran.
fn counted_api(store: Arc<ResultStore>) -> (ApiContext, Arc<AtomicUsize>) {
    let mut api = ApiContext::new();
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = calls.clone();
    api.registry
        .register("counted", move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Box::new(wrsn::core::Idb::new(1))
        })
        .unwrap();
    api.store = Some(store);
    (api, calls)
}

#[test]
fn concurrent_identical_sweeps_share_one_solve_and_one_body() {
    let store = Arc::new(ResultStore::open(scratch("concurrent-sweep")).unwrap());
    let (api, calls) = counted_api(store);
    let server = start(api, 4, 32);
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"counted\",\"seeds\":1}}");

    // Prime the cache: exactly one solver invocation.
    let first = post(&addr, "/v1/sweep", &body);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert_eq!(first.header("x-cache-misses"), Some("1"));

    // Eight identical requests in parallel: all served from the shared
    // store, byte-identical to the first, zero further invocations.
    let responses: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = &addr;
                let body = &body;
                scope.spawn(move || post(addr, "/v1/sweep", body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, first.body, "bodies must be byte-identical");
        assert_eq!(resp.header("x-cache-hits"), Some("1"));
        assert_eq!(resp.header("x-cache-misses"), Some("0"));
    }
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "repeat sweeps must not invoke the solver"
    );

    // The cumulative stats surface in /statusz.
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let cache = v.get("cache").unwrap();
    assert_eq!(
        cache.get("hits").and_then(serde_json::Value::as_u64),
        Some(8)
    );
    assert_eq!(
        cache.get("misses").and_then(serde_json::Value::as_u64),
        Some(1)
    );
    server.shutdown().unwrap();
}

#[test]
fn scheduling_solvers_serve_and_scenarios_key_the_cache() {
    let store = Arc::new(ResultStore::open(scratch("sched-serve")).unwrap());
    let mut api = ApiContext::new();
    api.store = Some(store);
    let server = start(api, 2, 16);
    let addr = server.addr().to_string();

    // All three scheduling solvers answer /v1/solve with a positive cost.
    for solver in ["sched-tour", "sched-place", "sched-bilevel"] {
        let resp = post(
            &addr,
            "/v1/solve",
            &format!("{{{SMALL},\"solver\":\"{solver}\"}}"),
        );
        assert_eq!(resp.status, 200, "{solver}: {}", resp.body);
        let v: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert!(
            v.get("cost_uj")
                .and_then(serde_json::Value::as_f64)
                .unwrap()
                > 0.0,
            "{solver}"
        );
    }

    // A scenario inside the instance params parameterizes the solver and
    // keys the cache: identical requests hit, a different scenario misses.
    let with = |chargers: u32| {
        format!(
            "{{\"instance\":{{\"posts\":5,\"nodes\":12,\"field\":150.0,\
             \"scenario\":{{\"chargers\":{chargers}}}}},\"solver\":\"sched-tour\"}}"
        )
    };
    let first = post(&addr, "/v1/solve", &with(1));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache-misses"), Some("1"));
    let repeat = post(&addr, "/v1/solve", &with(1));
    assert_eq!(repeat.status, 200);
    assert_eq!(repeat.header("x-cache-hits"), Some("1"));
    assert_eq!(
        repeat.body, first.body,
        "cached replay must be byte-identical"
    );
    let other = post(&addr, "/v1/solve", &with(2));
    assert_eq!(other.status, 200, "{}", other.body);
    assert_eq!(other.header("x-cache-misses"), Some("1"));

    // /v1/simulate honours the scenario as well: a single RF charger
    // moves sched-place's spare nodes, and with them the charger energy.
    let charger_energy = |scenario: &str| {
        let body = format!(
            "{{\"instance\":{{\"posts\":12,\"nodes\":36,\"field\":250.0{scenario}}},\
             \"solver\":\"sched-place\",\"seed\":3,\"rounds\":300}}"
        );
        let resp = post(&addr, "/v1/simulate", &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        v.get("charger_energy_j")
            .and_then(serde_json::Value::as_f64)
            .unwrap()
    };
    let default_budget = charger_energy("");
    let one_charger = charger_energy(",\"scenario\":{\"charger_budget\":1}");
    assert_ne!(
        one_charger.to_bits(),
        default_budget.to_bits(),
        "/v1/simulate ignored the scenario"
    );

    // An invalid scenario is rejected up front with a 400 naming the field.
    let bad = post(
        &addr,
        "/v1/solve",
        "{\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0,\
         \"scenario\":{\"duty_target\":0.0}},\"solver\":\"sched-tour\"}",
    );
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("duty_target"), "{}", bad.body);
    server.shutdown().unwrap();
}

/// Closed until the test opens it; see [`gated_api`].
type Gate = Arc<(Mutex<bool>, Condvar)>;

/// A registry whose `"gated"` solver blocks inside the factory until
/// the test opens the gate — how the overflow test pins the worker.
fn gated_api() -> (ApiContext, Gate, Arc<AtomicUsize>) {
    let mut api = ApiContext::new();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let entered = Arc::new(AtomicUsize::new(0));
    let factory_gate = gate.clone();
    let factory_entered = entered.clone();
    api.registry
        .register("gated", move || {
            factory_entered.fetch_add(1, Ordering::SeqCst);
            let (lock, cvar) = &*factory_gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
            Box::new(wrsn::core::Idb::new(1))
        })
        .unwrap();
    (api, gate, entered)
}

/// Opens the gate of a [`gated_api`] server.
fn open_gate(gate: &(Mutex<bool>, Condvar)) {
    let (lock, cvar) = gate;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
}

/// Sends a gated solve on its own thread and returns once its solver
/// factory runs: the worker that took it stays busy until the gate
/// opens. Its result is stored, so a second pin on a server with a
/// store would be a cache hit: pin once per server.
fn pin_a_worker(addr: &str, entered: &AtomicUsize) -> std::thread::JoinHandle<ClientResponse> {
    let before = entered.load(Ordering::SeqCst);
    let blocker = {
        let addr = addr.to_string();
        let body = format!("{{{SMALL},\"solver\":\"gated\"}}");
        std::thread::spawn(move || post(&addr, "/v1/solve", &body))
    };
    while entered.load(Ordering::SeqCst) == before {
        std::thread::yield_now();
    }
    blocker
}

/// A gated server with a store and one worker.
fn gated_server(name: &str, config: ServerConfig) -> (ServerHandle, Gate, Arc<AtomicUsize>) {
    let (mut api, gate, entered) = gated_api();
    api.store = Some(Arc::new(ResultStore::open(scratch(name)).unwrap()));
    let server = start_with(
        api,
        ServerConfig {
            workers: 1,
            queue_depth: 8,
            ..config
        },
    );
    (server, gate, entered)
}

/// The `/statusz` figures a `/v1/solve` moves: its endpoint counters,
/// the cache counters and the anonymous tenant's counters.
fn solve_counts(addr: &str) -> Vec<u64> {
    let statusz = request(addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let solve = &v["endpoints"]["/v1/solve"];
    let tenant = &v["tenants"]["anonymous"];
    [
        &solve["requests"],
        &solve["errors"],
        &solve["latency"]["count"],
        &v["cache"]["hits"],
        &v["cache"]["misses"],
        &v["cache"]["appended"],
        &v["cache"]["entries"],
        &tenant["requests"],
        &tenant["cache_hits"],
        &tenant["cache_misses"],
        &tenant["latency_us"]["count"],
    ]
    .iter()
    .map(|x| x.as_u64().unwrap_or(0))
    .collect()
}

fn body_of(raw: &str) -> &str {
    raw.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

#[test]
fn probes_and_cached_solves_answer_while_the_only_worker_is_pinned() {
    let (server, gate, entered) = gated_server("inline-pinned", ServerConfig::default());
    let addr = server.addr().to_string();
    let cached = format!("{{{SMALL},\"solver\":\"idb\",\"seed\":3}}");
    assert_eq!(
        post(&addr, "/v1/solve", &cached).header("x-cache-misses"),
        Some("1")
    );

    let blocker = pin_a_worker(&addr, &entered);
    for (method, path, body) in [
        ("GET", "/healthz", None),
        ("GET", "/statusz", None),
        ("POST", "/v1/solve", Some(cached.as_str())),
    ] {
        let reply = raw_within(&addr, method, path, body, Duration::from_secs(1));
        assert!(reply.starts_with("HTTP/1.1 200"), "{path}: {reply}");
        if path == "/v1/solve" {
            assert!(reply.contains("x-cache-hits: 1\r\n"), "{reply}");
        }
        if path == "/statusz" {
            let v: serde_json::Value = serde_json::from_str(body_of(&reply)).unwrap();
            assert_eq!(
                v["workers"]["busy"], 1,
                "only the gated solve is in service"
            );
        }
    }
    open_gate(&gate);
    assert_eq!(blocker.join().unwrap().status, 200);
    server.shutdown().unwrap();
}

#[test]
fn inline_hits_match_worker_hits_byte_for_byte() {
    let (server, gate, entered) = gated_server("inline-bytes", ServerConfig::default());
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"idb\",\"seed\":5}}");
    // Past 4 KiB the reactor leaves the body to a worker; the padding
    // leaves the request itself unchanged.
    let padded = format!("{body}{}", " ".repeat(5000));
    let within = |body: &str| {
        raw_within(
            &addr,
            "POST",
            "/v1/solve",
            Some(body),
            Duration::from_secs(5),
        )
    };

    // A cold server answers the miss on the worker.
    let miss = within(&body);
    assert!(miss.contains("x-cache-misses: 1\r\n"), "{miss}");

    // The hit answers with the only worker pinned, so on the reactor.
    let blocker = pin_a_worker(&addr, &entered);
    let before_inline = solve_counts(&addr);
    let inline = raw_within(
        &addr,
        "POST",
        "/v1/solve",
        Some(&body),
        Duration::from_secs(1),
    );
    let after_inline = solve_counts(&addr);
    open_gate(&gate);
    assert_eq!(blocker.join().unwrap().status, 200);

    let before_worker = solve_counts(&addr);
    let worker = within(&padded);
    let after_worker = solve_counts(&addr);

    assert_eq!(inline, worker, "inline and worker hits differ on the wire");
    assert_eq!(body_of(&inline), body_of(&miss));
    assert!(
        inline.contains("x-cache-hits: 1\r\nx-cache-misses: 0\r\n"),
        "{inline}"
    );
    let delta =
        |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(a, b)| b - a).collect() };
    assert_eq!(
        delta(&before_inline, &after_inline),
        delta(&before_worker, &after_worker),
        "an inline hit must move the same /statusz counters as a worker hit"
    );
    assert_eq!(
        delta(&before_inline, &after_inline),
        [1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1]
    );
    server.shutdown().unwrap();
}

#[test]
fn chaos_servers_send_cached_solves_to_the_workers() {
    let store = Arc::new(ResultStore::open(scratch("inline-chaos")).unwrap());
    let body = format!("{{{SMALL},\"solver\":\"idb\",\"seed\":2}}");
    let mut warm = ApiContext::new();
    warm.store = Some(Arc::clone(&store));
    warm.solve(&serde_json::from_str(&body).unwrap()).unwrap();

    let mut api = ApiContext::new();
    api.store = Some(store);
    let server = start_with(
        api,
        ServerConfig {
            workers: 1,
            chaos: Some(ChaosPolicy::seeded(3).faults(1.0)),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    // Every request that reaches a worker draws the certain fault, so
    // the stored result is never served from the reactor.
    let resp = post(&addr, "/v1/solve", &body);
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("chaos"), "{}", resp.body);
    assert_eq!(request(&addr, "GET", "/healthz", None).unwrap().status, 200);
    server.shutdown().unwrap();
}

#[test]
fn a_draining_server_answers_503_and_never_inline() {
    let (server, gate, entered) = gated_server(
        "inline-draining",
        ServerConfig {
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let cached = format!("{{{SMALL},\"solver\":\"idb\"}}");
    assert_eq!(post(&addr, "/v1/solve", &cached).status, 200);
    // Two keep-alive connections the reactor already serves.
    let mut conns: Vec<Connection> = (0..2)
        .map(|_| {
            let mut conn = Connection::connect(&addr).unwrap();
            assert_eq!(conn.roundtrip("GET", "/healthz", None).unwrap().status, 200);
            conn
        })
        .collect();

    // A request in flight keeps the reactor draining once shutdown
    // starts; it closes the listener first.
    let blocker = pin_a_worker(&addr, &entered);
    let stopper = std::thread::spawn(move || server.shutdown());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(&addr).is_ok() {
        assert!(
            std::time::Instant::now() < deadline,
            "the listener never closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let solve = conns[0]
        .roundtrip("POST", "/v1/solve", Some(&cached))
        .unwrap();
    assert_eq!(solve.status, 503, "{}", solve.body);
    let health = conns[1].roundtrip("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 503, "{}", health.body);

    open_gate(&gate);
    assert_eq!(blocker.join().unwrap().status, 200);
    stopper.join().unwrap().unwrap();
}

#[test]
fn solution_spec_and_many_level_solves_queue_for_a_worker() {
    let (server, gate, entered) = gated_server("inline-solution", ServerConfig::default());
    let addr = server.addr().to_string();
    let plain = format!("{{{SMALL},\"solver\":\"idb\",\"seed\":7}}");
    let with_solution =
        format!("{{{SMALL},\"solver\":\"idb\",\"seed\":7,\"include_solution\":true}}");
    // Stored, but their keys cost too much to compute on the reactor: a
    // pinned spec is built to be checked, and the key spells out every
    // level.
    let spec =
        InstanceSpec::from_instance(&InstanceSampler::new(Field::square(150.0), 5, 10).sample(7))
            .unwrap();
    let pinned = format!(
        r#"{{"instance":{{"spec":{}}},"solver":"idb"}}"#,
        spec.to_json()
    );
    let many_levels =
        r#"{"instance":{"posts":5,"nodes":12,"field":150.0,"levels":17},"solver":"idb"}"#;
    for body in [&plain, &pinned, many_levels] {
        assert_eq!(post(&addr, "/v1/solve", body).status, 200);
    }

    let blocker = pin_a_worker(&addr, &entered);
    let queued: Vec<_> = [with_solution, pinned, many_levels.to_string()]
        .into_iter()
        .map(|body| {
            let addr = addr.clone();
            std::thread::spawn(move || post(&addr, "/v1/solve", &body))
        })
        .collect();
    // The stored results are not answered inline: the requests wait in
    // the queue behind the pinned worker.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let statusz = request(&addr, "GET", "/statusz", None).unwrap();
        let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
        if v["queue"]["depth"] == 3 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{}", statusz.body);
        std::thread::sleep(Duration::from_millis(5));
    }
    open_gate(&gate);
    assert_eq!(blocker.join().unwrap().status, 200);
    let replies: Vec<ClientResponse> = queued.into_iter().map(|q| q.join().unwrap()).collect();
    for resp in &replies {
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    assert!(
        replies[0].body.contains("\"solution\""),
        "{}",
        replies[0].body
    );
    for resp in &replies[1..] {
        assert_eq!(resp.header("x-cache-hits"), Some("1"), "{}", resp.body);
    }
    server.shutdown().unwrap();
}

#[test]
fn pipelined_misses_hold_back_later_inline_hits() {
    let (server, gate, _entered) = gated_server(
        "inline-pipelined",
        ServerConfig {
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let hit = format!("{{{SMALL},\"solver\":\"idb\",\"seed\":9}}");
    assert_eq!(post(&addr, "/v1/solve", &hit).status, 200);

    // A gated miss, then a stored hit, in one write.
    let miss = format!("{{{SMALL},\"solver\":\"gated\",\"seed\":9}}");
    let mut stream = TcpStream::connect(&addr).unwrap();
    write!(
        stream,
        "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{miss}\
         POST /v1/solve HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{hit}",
        miss.len(),
        hit.len()
    )
    .unwrap();
    // The hit is ready at once, but must wait for the miss's slot.
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut byte = [0u8; 1];
    assert!(stream.read(&mut byte).is_err(), "a reply overtook the miss");
    open_gate(&gate);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let replies: Vec<&str> = text.split("HTTP/1.1 ").skip(1).collect();
    assert_eq!(replies.len(), 2, "{text}");
    assert!(
        replies[0].starts_with("200") && replies[0].contains("\"solver\":\"gated\""),
        "{text}"
    );
    assert!(replies[0].contains("x-cache-misses: 1"), "{text}");
    assert!(
        replies[1].starts_with("200") && replies[1].contains("\"solver\":\"idb\""),
        "{text}"
    );
    assert!(replies[1].contains("x-cache-hits: 1"), "{text}");
    server.shutdown().unwrap();
}

#[test]
fn a_megabyte_string_body_answers_promptly_and_frees_the_worker() {
    // The JSON parser used to rescan the rest of the body for every
    // character of a string: half a minute for this body on one worker.
    let server = start(ApiContext::new(), 1, 4);
    let addr = server.addr().to_string();
    let body = format!("{{\"solver\":\"{}\"}}", "a".repeat(1023 * 1024));
    let reply = post_within_5s(&addr, "/v1/solve", &body);
    assert!(
        reply.starts_with("HTTP/1.1 400"),
        "{}",
        &reply[..200.min(reply.len())]
    );
    assert!(
        reply.contains("unknown solver"),
        "{}",
        &reply[..200.min(reply.len())]
    );
    let health = raw_within(&addr, "GET", "/healthz", None, Duration::from_secs(5));
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    server.shutdown().unwrap();
}

#[test]
fn deeply_nested_bodies_answer_400_and_the_server_keeps_serving() {
    // A megabyte of `[` must not overflow a worker's stack and abort
    // the whole server: the parser stops at 128 levels. The short body
    // is small enough for the event loop to try as a stored solve
    // before a worker answers it.
    let mut api = ApiContext::new();
    api.store = Some(Arc::new(ResultStore::open(scratch("deep-bodies")).unwrap()));
    let server = start_with(
        api,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    for body in ["[".repeat(1 << 20), "[".repeat(4000)] {
        let reply = post_within_5s(&addr, "/v1/solve", &body);
        let head = &reply[..200.min(reply.len())];
        assert!(reply.starts_with("HTTP/1.1 400"), "{head}");
        assert!(reply.contains("recursion limit exceeded"), "{head}");
        let health = raw_within(&addr, "GET", "/healthz", None, Duration::from_secs(5));
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    }
    server.shutdown().unwrap();
}

#[test]
fn a_zero_timeline_answers_400_naming_timeline() {
    let server = start(ApiContext::new(), 1, 4);
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"idb\",\"rounds\":10,\"timeline\":0}}");
    let resp = post(&addr, "/v1/simulate", &body);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("timeline must be at least 1 round"),
        "{}",
        resp.body
    );
    server.shutdown().unwrap();
}

#[test]
fn queue_overflow_is_rejected_with_503_and_retry_after() {
    let (api, gate, entered) = gated_api();
    let server = start(api, 1, 1);
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"gated\"}}");

    // Occupy the single worker: send a gated solve on its own thread
    // and wait until the solver factory is actually running.
    let blocker = {
        let addr = addr.clone();
        let body = body.clone();
        std::thread::spawn(move || post(&addr, "/v1/solve", &body))
    };
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    // Fill the queue's single slot with a raw connection.
    let mut queued = TcpStream::connect(&addr).unwrap();
    let text = format!(
        "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    queued.write_all(text.as_bytes()).unwrap();

    // Wait until it holds the slot: the next connection may land on
    // another event loop and be read first. `/statusz` never queues.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let statusz = request(&addr, "GET", "/statusz", None).unwrap();
        let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
        if v["queue"]["depth"] == 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{}", statusz.body);
        std::thread::yield_now();
    }
    // A request that queues now overflows; the loop answers
    // `/healthz` itself, so it would not.
    let rejected = request(&addr, "GET", "/v1/solvers", None).unwrap();
    assert_eq!(rejected.status, 503, "{}", rejected.body);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body.contains("busy"));

    // Open the gate: both solves finish and the backlog drains.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    let first = blocker.join().unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let mut raw = Vec::new();
    queued.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");

    // The rejection was counted.
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    assert!(
        v.get("rejected")
            .and_then(serde_json::Value::as_u64)
            .unwrap()
            >= 1
    );
    server.shutdown().unwrap();
}

#[test]
fn loadgen_sustains_cached_solves() {
    let store = Arc::new(ResultStore::open(scratch("loadgen")).unwrap());
    let mut api = ApiContext::new();
    api.store = Some(store);
    let server = start(api, 4, 64);
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"idb\"}}");

    let report = loadgen(&Workload {
        request: RequestSpec {
            addr: &addr,
            method: "POST",
            path: "/v1/solve",
            body: Some(&body),
            key: None,
        },
        requests: 60,
        drive: Drive::PerRequest {
            threads: 4,
            retry: None,
        },
    })
    .unwrap();
    assert_eq!(report.ok, 60, "no drops under the queue depth");
    assert_eq!(report.errors, 0);
    assert!(report.throughput_rps() > 0.0);
    assert!(report.quantile(0.5) <= report.quantile(0.99));

    // The whole run is reflected in /statusz (61 = probe + 60).
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let solve = v.get("endpoints").and_then(|e| e.get("/v1/solve")).unwrap();
    assert_eq!(
        solve.get("requests").and_then(serde_json::Value::as_u64),
        Some(61)
    );
    let cache = v.get("cache").unwrap();
    assert_eq!(
        cache.get("misses").and_then(serde_json::Value::as_u64),
        Some(1),
        "only the very first request computes"
    );
    assert_eq!(
        cache.get("hits").and_then(serde_json::Value::as_u64),
        Some(60)
    );
    server.shutdown().unwrap();
}

/// A retry policy tuned for tests. A chaos 500 names no pause, so its
/// retry waits the client's own jittered backoff from `base` (2–6 ms
/// for a first retry); a `Retry-After: 1` on a 429, 503 or 504 is
/// clamped to `cap`, so a small cap keeps those runs fast too.
fn fast_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 10,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(40),
        seed,
        ..RetryPolicy::default()
    }
}

#[test]
fn truncated_responses_are_retried_not_parse_errors() {
    // Truncation cuts the serialized response in half mid-body; the
    // client must classify that as retryable transport damage.
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            chaos: Some(ChaosPolicy::seeded(3).truncation(0.6)),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"idb\"}}");
    let policy = fast_retry(1);
    let mut resets = 0;
    for _ in 0..8 {
        let outcome =
            request_with_retry(&addr, "POST", "/v1/solve", Some(&body), &policy, None).unwrap();
        assert_eq!(outcome.response.status, 200, "{}", outcome.response.body);
        resets += outcome.transport_resets;
    }
    assert!(
        resets > 0,
        "a 60% truncation rate must surface as transport resets"
    );
    server.shutdown().unwrap();
}

#[test]
fn retrying_fleet_rides_out_chaos_with_byte_identical_sweeps() {
    // The headline robustness scenario: a server injecting 10% faults
    // plus truncation and latency, driven by a retrying client fleet.
    // Every request must eventually succeed, and the sweep bodies must
    // be byte-identical to a clean server's answer.
    let clean = start(ApiContext::new(), 2, 16);
    let sweep_body = format!("{{{SMALL},\"solver\":\"idb\",\"seeds\":2}}");
    let want = post(&clean.addr().to_string(), "/v1/sweep", &sweep_body);
    assert_eq!(want.status, 200, "{}", want.body);
    clean.shutdown().unwrap();

    let chaotic = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            keep_alive: true,
            request_timeout: Some(Duration::from_secs(30)),
            chaos: Some(
                ChaosPolicy::seeded(42)
                    .faults(0.1)
                    .truncation(0.1)
                    .latency(0.2, Duration::from_millis(5)),
            ),
            ..ServerConfig::default()
        },
    );
    let addr = chaotic.addr().to_string();

    let report = loadgen(&Workload {
        request: RequestSpec {
            addr: &addr,
            method: "POST",
            path: "/v1/sweep",
            body: Some(&sweep_body),
            key: None,
        },
        requests: 40,
        drive: Drive::PerRequest {
            threads: 4,
            retry: Some(fast_retry(7)),
        },
    })
    .unwrap();
    assert_eq!(report.ok, 40, "every request eventually succeeds");
    assert_eq!(report.non_ok, 0);
    assert_eq!(report.errors, 0);
    assert!(
        report.retries > 0,
        "20%+ injected damage must force at least one retry"
    );

    // And the answers coming through the chaos are the right answers.
    let policy = fast_retry(9);
    for _ in 0..5 {
        let outcome =
            request_with_retry(&addr, "POST", "/v1/sweep", Some(&sweep_body), &policy, None)
                .unwrap();
        assert_eq!(outcome.response.status, 200);
        assert_eq!(
            outcome.response.body, want.body,
            "chaos must never corrupt a delivered body"
        );
    }

    // The server counted its own misbehavior.
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    assert!(
        v.get("chaos_faults")
            .and_then(serde_json::Value::as_u64)
            .unwrap()
            > 0
    );
    chaotic.shutdown().unwrap();
}

#[test]
fn shutdown_flushes_the_store_for_a_fresh_process() {
    let dir = scratch("flush");
    let (api, calls) = counted_api(Arc::new(ResultStore::open(&dir).unwrap()));
    let server = start(api, 2, 8);
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"counted\",\"seeds\":2}}");
    assert_eq!(post(&addr, "/v1/sweep", &body).status, 200);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    server.shutdown().unwrap();

    // A second server over the same directory serves pure cache hits.
    let (api, calls) = counted_api(Arc::new(ResultStore::open(&dir).unwrap()));
    let server = start(api, 2, 8);
    let addr = server.addr().to_string();
    let resp = post(&addr, "/v1/sweep", &body);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-cache-hits"), Some("2"));
    assert_eq!(calls.load(Ordering::SeqCst), 0, "everything came from disk");
    server.shutdown().unwrap();
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();

    // Three requests written back-to-back before reading anything; the
    // reactor must answer all of them, in order, on the same socket.
    conn.send("GET", "/healthz", None).unwrap();
    conn.send("GET", "/nope", None).unwrap();
    conn.send("GET", "/v1/solvers", None).unwrap();
    let health = conn.recv().unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));
    assert_eq!(conn.recv().unwrap().status, 404);
    let solvers = conn.recv().unwrap();
    assert_eq!(solvers.status, 200);
    assert!(solvers.body.contains("irfh"));

    // Work still flows through the socket afterwards — a real solve,
    // pipelined behind a health check.
    let body = format!("{{{SMALL},\"solver\":\"idb\"}}");
    conn.send("GET", "/healthz", None).unwrap();
    conn.send("POST", "/v1/solve", Some(&body)).unwrap();
    assert_eq!(conn.recv().unwrap().status, 200);
    let solve = conn.recv().unwrap();
    assert_eq!(solve.status, 200, "{}", solve.body);
    assert!(solve.body.contains("cost_uj"));
    server.shutdown().unwrap();
}

#[test]
fn pipelined_parse_error_still_answers_the_valid_prefix() {
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    // A valid request pipelined ahead of garbage: the valid prefix must
    // be answered (it already holds sequence 0) before the 400 closes
    // the connection. Dropping the prefix would leave a permanent gap
    // in the write window and wedge the socket forever.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGARBAGE LINE\r\n\r\n")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("both responses must flush; a stalled read means the 400 never advanced");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("HTTP/1.1 400"), "{text}");
    server.shutdown().unwrap();
}

#[test]
fn eof_after_connection_close_yields_one_clean_response() {
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    // `Connection: close` followed by trailing pipelined bytes and an
    // immediate FIN: the trailing bytes are deliberately ignored, so
    // the server must answer exactly once, honoring the close — not
    // tack on a spurious 400 or flip the response to keep-alive.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\nGET /ignored HTTP/1.1\r\n")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "the client's close must be honored: {text}"
    );
    assert_eq!(
        text.matches("HTTP/1.1 ").count(),
        1,
        "exactly one response, no spurious 400: {text}"
    );
    server.shutdown().unwrap();
}

#[test]
fn slow_client_partial_writes_do_not_stall_the_reactor() {
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    // A slowloris-style client: the request dribbles in a few bytes at
    // a time with pauses, holding its connection open the whole while.
    let text = "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    let mut slow = TcpStream::connect(&addr).unwrap();
    let mut written = 0;
    for chunk in text.as_bytes().chunks(7) {
        slow.write_all(chunk).unwrap();
        written += chunk.len();

        // While the slow request is incomplete, everyone else is fully
        // served: a blocking one-shot request round-trips in-between
        // every dribbled chunk.
        if written < text.len() {
            let resp = request(&addr, "GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200, "reactor stalled behind a slow writer");
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Once its last bytes arrive the slow client is answered normally.
    let mut raw = Vec::new();
    slow.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    server.shutdown().unwrap();
}

#[test]
fn async_job_report_is_byte_identical_to_the_synchronous_sweep() {
    let server = start(ApiContext::new(), 2, 16);
    let addr = server.addr().to_string();
    let spec = format!("{{{SMALL},\"solver\":\"idb\",\"seeds\":3}}");

    // The synchronous answer is the reference body.
    let sweep = post(&addr, "/v1/sweep", &spec);
    assert_eq!(sweep.status, 200, "{}", sweep.body);

    // Submit the same spec as an async job and follow it to completion:
    // 202 + id, cursored per-seed events, terminal state "done".
    let outcome = run_job(
        &addr,
        None,
        Some(&spec),
        Duration::from_millis(20),
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(outcome.state, "done");
    assert_eq!(outcome.events.len(), 3, "one progress event per seed");

    // The job's final report is the same bytes the synchronous endpoint
    // served: re-serializing the `report` field of the job body (the
    // serializer is order-preserving) must reproduce the sweep body.
    let v: serde_json::Value = serde_json::from_str(&outcome.final_body).unwrap();
    let report = v.get("report").expect("finished job carries its report");
    assert_eq!(
        serde_json::to_string(report).unwrap(),
        sweep.body,
        "async and synchronous sweeps must serve identical bytes"
    );
    server.shutdown().unwrap();
}

/// A keyed tenant spec with everything else defaulted — the builder
/// the multi-tenant tests share.
fn tenant_spec(name: &str, key: Option<&str>, weight: u32) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        key: key.map(str::to_string),
        weight,
        rps: None,
        burst: None,
        queue_depth: None,
        isolated: false,
        max_jobs: None,
    }
}

#[test]
fn api_keys_gate_the_api_with_401_and_403() {
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            tenants: Some(vec![tenant_spec("alpha", Some("alpha-key"), 2)]),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"idb\"}}");

    // Probes never need credentials — readiness checks keep working.
    let health = request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);

    // No credentials on the API: 401 (the config has no keyless entry).
    let missing = request(&addr, "POST", "/v1/solve", Some(&body)).unwrap();
    assert_eq!(missing.status, 401, "{}", missing.body);

    // A key the config does not know: 403.
    let unknown = request_auth(&addr, "POST", "/v1/solve", Some(&body), Some("nope")).unwrap();
    assert_eq!(unknown.status, 403, "{}", unknown.body);

    // The right key: served normally.
    let ok = request_auth(&addr, "POST", "/v1/solve", Some(&body), Some("alpha-key")).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);

    // The tenant breakdown surfaces in /statusz (a probe, so keyless).
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let alpha = v.get("tenants").and_then(|t| t.get("alpha")).unwrap();
    assert_eq!(
        alpha.get("requests").and_then(serde_json::Value::as_u64),
        Some(1)
    );
    assert_eq!(
        alpha.get("weight").and_then(serde_json::Value::as_u64),
        Some(2)
    );
    server.shutdown().unwrap();
}

#[test]
fn isolated_tenants_get_private_cache_namespaces() {
    let store = Arc::new(ResultStore::open(scratch("tenant-namespaces")).unwrap());
    let (api, calls) = counted_api(store);
    let mut isolated_a = tenant_spec("iso-a", Some("a-key"), 1);
    isolated_a.isolated = true;
    let mut isolated_b = tenant_spec("iso-b", Some("b-key"), 1);
    isolated_b.isolated = true;
    let shared = tenant_spec("shared", Some("c-key"), 1);
    let server = start_with(
        api,
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            tenants: Some(vec![isolated_a, isolated_b, shared]),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"counted\",\"seeds\":2}}");
    let sweep =
        |key: &str| request_auth(&addr, "POST", "/v1/sweep", Some(&body), Some(key)).unwrap();

    // Tenant a computes its two seeds, then hits its own namespace.
    let first = sweep("a-key");
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    let again = sweep("a-key");
    assert_eq!(again.header("x-cache-hits"), Some("2"));
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "a's repeat must hit its cache"
    );

    // Tenant b is isolated too: the identical request recomputes under
    // b's namespace instead of reading a's entries.
    let other = sweep("b-key");
    assert_eq!(other.header("x-cache-misses"), Some("2"));
    assert_eq!(calls.load(Ordering::SeqCst), 4, "b must not see a's cache");

    // All three bodies are byte-identical — namespaces isolate cache
    // entries, never change results.
    assert_eq!(first.body, again.body);
    assert_eq!(first.body, other.body);

    // The shared tenant lives in the default namespace, disjoint from
    // both isolated ones, and its stats surface per tenant.
    let shared_resp = sweep("c-key");
    assert_eq!(shared_resp.header("x-cache-misses"), Some("2"));
    assert_eq!(calls.load(Ordering::SeqCst), 6);
    assert_eq!(first.body, shared_resp.body);
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let tenants = v.get("tenants").unwrap();
    assert_eq!(
        tenants
            .get("iso-a")
            .and_then(|t| t.get("cache_hits"))
            .and_then(serde_json::Value::as_u64),
        Some(2)
    );
    assert_eq!(
        tenants
            .get("iso-b")
            .and_then(|t| t.get("cache_misses"))
            .and_then(serde_json::Value::as_u64),
        Some(2)
    );
    server.shutdown().unwrap();
}

#[test]
fn isolated_tenants_hit_only_their_own_stored_solves() {
    let store = Arc::new(ResultStore::open(scratch("tenant-inline")).unwrap());
    let (api, calls) = counted_api(store);
    let mut isolated = tenant_spec("iso", Some("i-key"), 1);
    isolated.isolated = true;
    let server = start_with(
        api,
        ServerConfig {
            workers: 1,
            queue_depth: 16,
            tenants: Some(vec![isolated, tenant_spec("shared", Some("s-key"), 1)]),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"counted\",\"seed\":6}}");
    let solve =
        |key: &str| request_auth(&addr, "POST", "/v1/solve", Some(&body), Some(key)).unwrap();
    let cache = |resp: &ClientResponse| {
        (
            resp.header("x-cache-hits").map(str::to_string),
            resp.header("x-cache-misses").map(str::to_string),
        )
    };
    let (hit, miss) = (
        (Some("1".to_string()), Some("0".to_string())),
        (Some("0".to_string()), Some("1".to_string())),
    );

    // The shared tenant stores the cell in the default namespace and
    // hits it there.
    assert_eq!(cache(&solve("s-key")), miss);
    assert_eq!(cache(&solve("s-key")), hit);
    // The isolated tenant never reads the default namespace's entry:
    // it computes under its own, then hits that.
    let first = solve("i-key");
    assert_eq!(cache(&first), miss);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    let again = solve("i-key");
    assert_eq!(cache(&again), hit);
    assert_eq!(first.body, again.body);
    assert_eq!(calls.load(Ordering::SeqCst), 2);

    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    for name in ["iso", "shared"] {
        let t = &v["tenants"][name];
        assert_eq!(t["requests"], 2, "{name}: {}", statusz.body);
        assert_eq!(t["cache_hits"], 1, "{name}: {}", statusz.body);
        assert_eq!(t["cache_misses"], 1, "{name}: {}", statusz.body);
    }
    server.shutdown().unwrap();
}

/// Writes `n` pipelined `GET /v1/solvers` calls under `key` in one write
/// on one keep-alive connection and returns how many were answered 429.
/// The server closes the connection after its first 429.
fn pipelined_burst(addr: &str, key: &str, n: usize) -> u64 {
    let mut stream = TcpStream::connect(addr).unwrap();
    let one = format!("GET /v1/solvers HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer {key}\r\n\r\n");
    stream.write_all(one.repeat(n).as_bytes()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw).to_ascii_lowercase();
    let limited = text.matches("http/1.1 429").count();
    assert!(
        limited == 0 || text.contains("retry-after"),
        "429 must carry Retry-After"
    );
    limited as u64
}

#[test]
fn weighted_fair_admission_keeps_an_interactive_tenant_responsive_under_flood() {
    // The headline multi-tenant scenario: an aggressor floods sweeps at
    // full tilt while an interactive tenant (weight 3 vs 1) issues
    // solves, all under a 10%-fault chaos policy. The interactive
    // tenant's p99 must stay within 3x its unloaded p99, every 429 must
    // land on the aggressor, and both tenants' sweep bodies must be
    // byte-identical to a clean single-tenant server's answer.
    let sweep_body =
        r#"{"instance":{"posts":6,"nodes":30,"field":200.0},"solver":"idb","seeds":6}"#.to_string();
    let solve_body = format!("{{{SMALL},\"solver\":\"idb\"}}");

    // 1. Clean single-tenant baseline: reference bytes + unloaded p99.
    let clean = start(ApiContext::new(), 2, 32);
    let clean_addr = clean.addr().to_string();
    let want = post(&clean_addr, "/v1/sweep", &sweep_body);
    assert_eq!(want.status, 200, "{}", want.body);
    let mut unloaded = Vec::new();
    for _ in 0..30 {
        let t0 = std::time::Instant::now();
        let resp = post(&clean_addr, "/v1/solve", &solve_body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        unloaded.push(t0.elapsed());
    }
    unloaded.sort_unstable();
    let unloaded_p99 = unloaded[unloaded.len() - 1];
    clean.shutdown().unwrap();

    // 2. The contested server: aggressor rate-limited and weight 1,
    //    interactive unlimited and weight 3, 10% injected faults.
    let mut aggressor = tenant_spec("aggressor", Some("agg-key"), 1);
    aggressor.rps = Some(120.0);
    aggressor.burst = Some(8);
    let interactive = tenant_spec("interactive", Some("int-key"), 3);
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            workers: 2,
            queue_depth: 32,
            keep_alive: true,
            chaos: Some(ChaosPolicy::seeded(42).faults(0.1)),
            tenants: Some(vec![aggressor, interactive]),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    let stop = Arc::new(AtomicUsize::new(0));
    let flood = {
        let addr = addr.clone();
        let sweep_body = sweep_body.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            // The sweeps alone are throttled only when one returns before
            // the bucket refills a token (~8 ms). A pipelined burst of
            // twice the bucket arrives in one write, within microseconds,
            // so its tail is throttled whatever the sweeps' latency. The
            // burst is cheap listing calls: it adds no solver work that
            // the interactive tenant would wait behind.
            let (mut sent, mut limited) = (0u64, pipelined_burst(&addr, "agg-key", 16));
            while stop.load(Ordering::SeqCst) == 0 {
                if let Ok(resp) = request_auth(
                    &addr,
                    "POST",
                    "/v1/sweep",
                    Some(&sweep_body),
                    Some("agg-key"),
                ) {
                    sent += 1;
                    if resp.status == 429 {
                        limited += 1;
                        assert!(
                            resp.header("retry-after").is_some(),
                            "429 must carry Retry-After"
                        );
                    }
                }
            }
            (sent, limited)
        })
    };

    // 3. The interactive tenant's session: every solve must terminate
    //    in a 200 (chaos 500s are retried) and never see a 429.
    let mut latencies = Vec::new();
    for i in 0..40 {
        let t0 = std::time::Instant::now();
        let outcome = request_with_retry_auth(
            &addr,
            "POST",
            "/v1/solve",
            Some(&solve_body),
            Some("int-key"),
            &fast_retry(100 + i),
            None,
        )
        .unwrap();
        assert_eq!(
            outcome.response.status, 200,
            "interactive request failed terminally: {}",
            outcome.response.body
        );
        assert_eq!(
            outcome.rate_limited, 0,
            "the interactive tenant must never be throttled"
        );
        latencies.push(t0.elapsed());
    }
    stop.store(1, Ordering::SeqCst);
    let (flood_sent, flood_limited) = flood.join().unwrap();
    assert!(flood_sent > 0, "the aggressor never got a request through");
    assert!(
        flood_limited > 0,
        "the aggressor should have been rate limited ({flood_sent} sent)"
    );

    // 4. p99 bound: within 3x the unloaded p99, floored at 25 ms so the
    //    bound absorbs one worst-case chaos retry (backoff plus the
    //    non-preemptible sweep already in service) without ever letting
    //    a starved tenant — whose waits are hundreds of ms — slip by.
    latencies.sort_unstable();
    let p99 = latencies[latencies.len() - 1];
    let bound = unloaded_p99.max(Duration::from_millis(25)) * 3;
    assert!(
        p99 <= bound,
        "interactive p99 {p99:?} exceeds bound {bound:?} (unloaded {unloaded_p99:?})"
    );

    // 5. Both tenants' sweeps still serve the clean server's bytes.
    for key in ["agg-key", "int-key"] {
        let outcome = request_with_retry_auth(
            &addr,
            "POST",
            "/v1/sweep",
            Some(&sweep_body),
            Some(key),
            &fast_retry(7),
            None,
        )
        .unwrap();
        assert_eq!(outcome.response.status, 200, "{key}");
        assert_eq!(
            outcome.response.body, want.body,
            "{key}: sweep bytes must match the clean single-tenant run"
        );
    }

    // 6. /statusz confirms the 429s are confined to the aggressor.
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let tenants = v.get("tenants").unwrap();
    let limited = |name: &str| {
        tenants
            .get(name)
            .and_then(|t| t.get("rate_limited"))
            .and_then(serde_json::Value::as_u64)
            .unwrap()
    };
    assert!(limited("aggressor") > 0);
    assert_eq!(limited("interactive"), 0);
    server.shutdown().unwrap();
}

#[test]
fn a_server_without_tenants_still_serves_anonymously() {
    // Back-compat: no tenant config means the exact single-user
    // behavior — no auth required, no rate limit, FIFO admission.
    let server = start(ApiContext::new(), 2, 16);
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"idb\"}}");
    for _ in 0..5 {
        let resp = post(&addr, "/v1/solve", &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    // A stray Bearer key is ignored rather than rejected.
    let keyed = request_auth(&addr, "POST", "/v1/solve", Some(&body), Some("whatever")).unwrap();
    assert_eq!(keyed.status, 200, "{}", keyed.body);
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let anon = v.get("tenants").and_then(|t| t.get("anonymous")).unwrap();
    assert!(
        anon.get("requests")
            .and_then(serde_json::Value::as_u64)
            .unwrap()
            >= 6,
        "anonymous tenant carries all single-user traffic"
    );
    server.shutdown().unwrap();
}

#[test]
fn out_of_range_instances_answer_400_and_keep_the_only_worker() {
    // One worker: had a bad body panicked it, no worker would be left
    // for the valid solve that follows.
    let server = start(ApiContext::new(), 1, 16);
    let addr = server.addr().to_string();
    // Pinned specs whose radio or charging parameters are out of domain:
    // building them used to panic the worker.
    let valid =
        InstanceSpec::from_instance(&InstanceSampler::new(Field::square(150.0), 5, 10).sample(7))
            .unwrap();
    let spec_body = |spec: InstanceSpec| {
        format!(
            r#"{{"instance":{{"spec":{}}},"solver":"idb"}}"#,
            spec.to_json()
        )
    };
    let eta_2 = spec_body(InstanceSpec {
        eta: 2.0,
        ..valid.clone()
    });
    let huge_beta = spec_body(InstanceSpec {
        beta_pj: 1e308,
        ..valid
    });
    for (bad, name) in [
        (r#"{"instance":{"field":1e999},"solver":"idb"}"#, "field"),
        (
            r#"{"instance":{"levels":1000000000000},"solver":"idb"}"#,
            "levels",
        ),
        (
            r#"{"instance":{"posts":4000000000,"nodes":4000000000},"solver":"idb"}"#,
            "posts",
        ),
        (
            r#"{"instance":{"posts":5,"nodes":4000000000},"solver":"exhaustive"}"#,
            "nodes",
        ),
        (&eta_2, "eta"),
        (&huge_beta, "energy of uplink"),
    ] {
        let resp = post(&addr, "/v1/solve", bad);
        assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
        assert!(resp.body.contains(name), "{bad}: {}", resp.body);
    }
    // Free links: with both radio constants zero the shortest-path
    // parents tied into a cycle, and the panic took the worker and the
    // reply with it, hence the read timeout. An infinite battery panicked
    // the simulator the same way.
    let free = InstanceSpec {
        alpha_nj: 0.0,
        beta_pj: 0.0,
        ..InstanceSpec::from_instance(&InstanceSampler::new(Field::square(150.0), 6, 14).sample(2))
            .unwrap()
    };
    let free_body = format!(
        r#"{{"instance":{{"spec":{}}},"solver":"idb","rounds":10}}"#,
        free.to_json()
    );
    let inf_battery = format!("{{{SMALL},\"solver\":\"idb\",\"rounds\":10,\"battery_j\":1e999}}");
    for (body, message) in [
        (&free_body, "positive routing weight"),
        (&inf_battery, "battery_j must be positive"),
    ] {
        let text = post_within_5s(&addr, "/v1/simulate", body);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains(message), "{text}");
    }
    let ok = post(
        &addr,
        "/v1/solve",
        &format!("{{{SMALL},\"solver\":\"idb\"}}"),
    );
    assert_eq!(ok.status, 200, "{}", ok.body);
    server.shutdown().unwrap();
}

/// A solver that panics on every instance.
struct Panics;

impl wrsn::core::Solver for Panics {
    fn name(&self) -> &'static str {
        "panics"
    }

    fn solve(
        &self,
        _: &wrsn::core::Instance,
    ) -> Result<wrsn::core::Solution, wrsn::core::SolveError> {
        panic!("injected solver panic")
    }
}

#[test]
fn a_panicking_handler_answers_500_and_keeps_the_only_worker() {
    let body = format!("{{{SMALL},\"solver\":\"panics\",\"rounds\":10}}");
    let solve = format!("{{{SMALL},\"solver\":\"idb\"}}");
    // Inline, the panic used to end the only worker thread. Under a
    // deadline, the handler thread's panic used to read as a timeout.
    for request_timeout in [None, Some(Duration::from_secs(10))] {
        let mut api = ApiContext::new();
        api.registry
            .register("panics", || Box::new(Panics))
            .unwrap();
        let server = start_with(
            api,
            ServerConfig {
                workers: 1,
                queue_depth: 16,
                request_timeout,
                ..ServerConfig::default()
            },
        );
        let addr = server.addr().to_string();
        let reply = post_within_5s(&addr, "/v1/simulate", &body);
        assert!(
            reply.starts_with("HTTP/1.1 500"),
            "{request_timeout:?}: {reply}"
        );
        assert!(reply.contains("panicked"), "{reply}");
        assert_eq!(request(&addr, "GET", "/healthz", None).unwrap().status, 200);
        let ok = post(&addr, "/v1/solve", &solve);
        assert_eq!(ok.status, 200, "{}", ok.body);
        // Nothing is in service: the reactor answers /statusz itself,
        // so it occupies no worker either.
        let statusz = request(&addr, "GET", "/statusz", None).unwrap();
        let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
        assert_eq!(v["workers"]["busy"], 0, "{}", statusz.body);
        server.shutdown().unwrap();
    }
}

#[test]
fn unknown_and_repeated_keys_answer_400_naming_the_key() {
    let server = start(ApiContext::new(), 2, 16);
    let addr = server.addr().to_string();
    for (path, body, key) in [
        (
            "/v1/solve",
            format!("{{{SMALL},\"solver\":\"idb\",\"sed\":3}}"),
            "sed",
        ),
        (
            "/v1/solve",
            r#"{"instance":{"post":6,"nodes":12,"field":150.0}}"#.to_string(),
            "post",
        ),
        (
            "/v1/solve",
            r#"{"instance":{"posts":5,"posts":100,"nodes":12,"field":150.0}}"#.to_string(),
            "posts",
        ),
        (
            "/v1/simulate",
            format!("{{{SMALL},\"rounds\":20,\"link_los\":1.0}}"),
            "link_los",
        ),
        (
            "/v1/sweep",
            format!("{{{SMALL},\"seeds\":2,\"seed\":4}}"),
            "seed",
        ),
        (
            "/v1/jobs",
            format!("{{{SMALL},\"seeds\":2,\"threads\":4}}"),
            "threads",
        ),
    ] {
        let resp = post(&addr, path, &body);
        assert_eq!(resp.status, 400, "{path} {body}: {}", resp.body);
        assert!(
            resp.body.contains(&format!("field `{key}`")),
            "{path} {body}: {}",
            resp.body
        );
    }
    server.shutdown().unwrap();
}

#[test]
fn the_largest_seed_answers_400_naming_seed() {
    let server = start(ApiContext::new(), 1, 4);
    let addr = server.addr().to_string();
    let resp = post(
        &addr,
        "/v1/solve",
        &format!("{{{SMALL},\"solver\":\"idb\",\"seed\":18446744073709551615}}"),
    );
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("seed must be below"), "{}", resp.body);
    let resp = post(
        &addr,
        "/v1/solve",
        &format!("{{{SMALL},\"solver\":\"idb\",\"seed\":18446744073709551614}}"),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.shutdown().unwrap();
}

/// `/statusz` `conns.per_reactor` and `conns.open`, asked on `conn`.
fn conns_per_reactor(conn: &mut Connection) -> (Vec<u64>, u64) {
    let resp = conn.roundtrip("GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    let per: Vec<u64> = v["conns"]["per_reactor"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(serde_json::Value::as_u64)
        .collect();
    (per, v["conns"]["open"].as_u64().unwrap())
}

/// Opens `n` keep-alive connections, each answered once, so every one
/// is registered with its event loop.
fn held_connections(addr: &str, n: usize) -> Vec<Connection> {
    (0..n)
        .map(|_| {
            let mut conn = Connection::connect(addr).unwrap();
            assert_eq!(conn.roundtrip("GET", "/healthz", None).unwrap().status, 200);
            conn
        })
        .collect()
}

#[test]
fn keep_alive_connections_spread_evenly_over_one_loop_per_cpu() {
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let loops = cpus.min(MAX_REACTORS);
    let mut probe = Connection::connect(&addr).unwrap();
    for k in [1, 2, 3, 2 * loops + 1] {
        let conns = held_connections(&addr, k);
        let (per, open) = conns_per_reactor(&mut probe);
        assert_eq!(
            per.len(),
            loops,
            "one event loop per CPU, at most MAX_REACTORS"
        );
        assert_eq!(per.iter().sum::<u64>(), open);
        assert_eq!(open, k as u64 + 1, "{per:?}");
        let spread = per.iter().max().unwrap() - per.iter().min().unwrap();
        assert!(
            spread <= 1,
            "{k} connections and the probe spread as {per:?}"
        );
        drop(conns);
        // Wait for the loops to see the closes before the next round.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while conns_per_reactor(&mut probe).1 > 1 {
            assert!(std::time::Instant::now() < deadline, "closes never seen");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    server.shutdown().unwrap();
}

/// Reads `n` `Content-Length`-framed replies off `stream`, raw.
fn read_replies(stream: &mut TcpStream, n: usize) -> Vec<String> {
    let mut buf = Vec::new();
    let mut replies = Vec::new();
    while replies.len() < n {
        let framed = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .and_then(|end| {
                let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))?
                    .trim()
                    .parse()
                    .ok()?;
                let total = end + 4 + length;
                (buf.len() >= total).then_some(total)
            });
        match framed {
            Some(total) => {
                replies.push(String::from_utf8_lossy(&buf[..total]).into_owned());
                buf.drain(..total);
            }
            None => {
                let mut chunk = [0u8; 8192];
                let got = stream.read(&mut chunk).unwrap();
                assert!(got > 0, "closed after {} replies", replies.len());
                buf.extend_from_slice(&chunk[..got]);
            }
        }
    }
    assert!(buf.is_empty(), "stray bytes after {n} replies");
    replies
}

#[test]
fn eight_pipelined_connections_answer_like_one_connection() {
    // A gated miss, a stored hit and a plain miss per connection, with
    // seeds of its own: the hit is ready first but waits its turn, and
    // the workers' answers must find the loop that owns the socket.
    let triple = |i: u64| {
        [
            format!("{{{SMALL},\"solver\":\"gated\",\"seed\":{}}}", 100 + i),
            format!("{{{SMALL},\"solver\":\"idb\",\"seed\":{}}}", 200 + i),
            format!("{{{SMALL},\"solver\":\"idb\",\"seed\":{}}}", 300 + i),
        ]
    };
    let wire = |bodies: &[String]| -> Vec<u8> {
        bodies
            .iter()
            .flat_map(|body| {
                format!(
                    "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect()
    };
    let server = |name: &str| {
        let (mut api, gate, _entered) = gated_api();
        api.store = Some(Arc::new(ResultStore::open(scratch(name)).unwrap()));
        let server = start_with(
            api,
            ServerConfig {
                workers: 2,
                queue_depth: 64,
                keep_alive: true,
                ..ServerConfig::default()
            },
        );
        let addr = server.addr().to_string();
        for i in 0..8 {
            assert_eq!(post(&addr, "/v1/solve", &triple(i)[1]).status, 200);
        }
        (server, addr, gate)
    };

    let (many, addr, gate) = server("pipelined-many");
    let mut streams: Vec<TcpStream> = (0..8)
        .map(|i| {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream.write_all(&wire(&triple(i))).unwrap();
            stream
        })
        .collect();
    open_gate(&gate);
    let apart: Vec<Vec<String>> = streams.iter_mut().map(|s| read_replies(s, 3)).collect();
    let (per, open) = conns_per_reactor(&mut Connection::connect(&addr).unwrap());
    assert_eq!(open, 9, "{per:?}");
    drop(streams);
    many.shutdown().unwrap();

    let (one, addr, gate) = server("pipelined-one");
    open_gate(&gate);
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let bodies: Vec<String> = (0..8).flat_map(triple).collect();
    stream.write_all(&wire(&bodies)).unwrap();
    let together = read_replies(&mut stream, 24);
    one.shutdown().unwrap();

    for (i, replies) in apart.iter().enumerate() {
        assert!(
            replies[0].contains("x-cache-misses: 1\r\n"),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("x-cache-hits: 1\r\n"), "{}", replies[1]);
        assert!(
            replies[2].contains("x-cache-misses: 1\r\n"),
            "{}",
            replies[2]
        );
        for (j, reply) in replies.iter().enumerate() {
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            assert_eq!(*reply, together[3 * i + j], "connection {i}, reply {j}");
        }
    }
}

/// Names this binary's event loop threads carry in `/proc`: the kernel
/// keeps the first 15 bytes of `wrsn-serve-reactor-{i}`.
fn event_loop_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "wrsn-serve-reac")
        .count()
}

/// Set in the child process the thread lifecycle test re-runs itself in.
const THREAD_PROBE: &str = "WRSN_SERVING_THREAD_PROBE";

#[test]
fn event_loop_threads_match_per_reactor_and_exit_on_shutdown() {
    const NAME: &str = "event_loop_threads_match_per_reactor_and_exit_on_shutdown";
    // The other tests in this binary run servers at the same time, with
    // the same thread names: count in a child process running only this.
    if std::env::var_os(THREAD_PROBE).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", NAME, "--nocapture"])
            .env(THREAD_PROBE, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stdout}{stderr}");
        assert!(stdout.contains("1 passed"), "{stdout}{stderr}");
        return;
    }
    assert_eq!(event_loop_threads(), 0);
    let server = start_with(
        ApiContext::new(),
        ServerConfig {
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let mut probe = Connection::connect(&addr).unwrap();
    let loops = conns_per_reactor(&mut probe).0.len();
    // A new thread names itself once it first runs, and the first
    // connection only shows that loop 0 has.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while event_loop_threads() != loops {
        assert!(
            std::time::Instant::now() < deadline,
            "{} event loop threads named for {loops} loops",
            event_loop_threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Every loop holds an idle keep-alive connection into the shutdown.
    let mut held = held_connections(&addr, 2 * loops);
    held.push(probe);
    let (per, _) = conns_per_reactor(&mut held[0]);
    assert!(per.iter().all(|&n| n >= 1), "{per:?}");
    server.shutdown().unwrap();
    // A joined thread can linger in /proc until the kernel reaps it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while event_loop_threads() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} event loop threads outlived shutdown",
            event_loop_threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for conn in &mut held {
        assert!(conn.roundtrip("GET", "/healthz", None).is_err());
    }
}

/// A client that sends `Expect: 100-continue` holds its body back until
/// the server answers `100 Continue` (curl waits 1 s for it). Both a
/// worker's miss and an inline hit on one keep-alive connection get
/// the interim answer within 1 s, and only once, and a body over the
/// cap still gets its 413 at once, with no `100` before it.
#[test]
fn expect_continue_is_answered_before_the_body_is_sent() {
    let dir = scratch("expect-continue");
    let api = ApiContext {
        store: Some(Arc::new(ResultStore::open(&dir).unwrap())),
        ..ApiContext::new()
    };
    let server = start_with(
        api,
        ServerConfig {
            workers: 1,
            keep_alive: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let body = format!("{{{SMALL},\"solver\":\"idb\",\"seed\":3}}");
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    for round in ["a miss", "a hit"] {
        write!(
            stream,
            "POST /v1/solve HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        let mut interim = [0u8; 25];
        stream
            .read_exact(&mut interim)
            .unwrap_or_else(|e| panic!("{round}: no 100 Continue within 1 s: {e}"));
        assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n", "{round}");
        // In two parts: the half-sent body must not earn a second 100.
        let (first, rest) = body.split_at(body.len() / 2);
        stream.write_all(first.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(rest.as_bytes()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reply = read_replies(&mut stream, 1).remove(0);
        assert!(reply.starts_with("HTTP/1.1 200"), "{round}: {reply}");
        assert!(reply.contains("\"cost_uj\""), "{round}: {reply}");
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
    }

    let mut big = TcpStream::connect(&addr).unwrap();
    write!(
        big,
        "POST /v1/solve HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n\
         Content-Length: {}\r\n\r\n",
        wrsn::serve::http::MAX_BODY_BYTES + 1
    )
    .unwrap();
    big.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let mut raw = Vec::new();
    big.read_to_end(&mut raw)
        .expect("the 413 and a close within 1 s");
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    server.shutdown().unwrap();
}
