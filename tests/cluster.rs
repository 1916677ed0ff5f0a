//! End-to-end tests for the distributed cache fabric: a loopback fleet
//! of `wrsn serve` nodes sharing one consistent-hash ring. Covers
//! forward-on-miss with byte-identical relay, anti-entropy convergence
//! (a sweep cached on one node becomes ≥95% cache hits on another
//! within the gossip window), dead-owner degradation to local compute,
//! and the single-node server staying byte-for-byte unchanged.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wrsn::cluster::{ClusterConfig, Peer};
use wrsn::engine::ResultStore;
use wrsn::serve::api::ApiContext;
use wrsn::serve::client::{request, request_with_headers, ClientResponse};
use wrsn::serve::{Server, ServerConfig, ServerHandle, FORWARDED_HEADER, SERVED_BY_HEADER};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("wrsn-cluster-test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SMALL: &str = "\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0}";

/// Reserves `n` distinct loopback ports by binding then dropping
/// listeners — the fleet's peer list must be known before any server
/// starts, because every node hashes the full list into its ring.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Starts an `n`-node fleet gossiping every `gossip_ms`. Each node gets
/// its own result store under `name/node-i`.
fn start_fleet(name: &str, n: usize, gossip_ms: u64) -> Vec<ServerHandle> {
    let root = scratch(name);
    let addrs = reserve_addrs(n);
    let peers: Vec<Peer> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| Peer {
            id: format!("n{i}"),
            addr: addr.clone(),
        })
        .collect();
    (0..n)
        .map(|i| {
            let mut api = ApiContext::new();
            api.store = Some(Arc::new(
                ResultStore::open(root.join(format!("node-{i}"))).unwrap(),
            ));
            let config = ServerConfig {
                addr: addrs[i].clone(),
                workers: 2,
                queue_depth: 32,
                cluster: Some(ClusterConfig {
                    node_id: format!("n{i}"),
                    peers: peers.clone(),
                    seed: 7,
                    vnodes: 64,
                    gossip_interval: Duration::from_millis(gossip_ms),
                }),
                ..ServerConfig::default()
            };
            Server::start(&config, api).unwrap()
        })
        .collect()
}

fn post(addr: &str, path: &str, body: &str) -> ClientResponse {
    request(addr, "POST", path, Some(body)).unwrap()
}

fn digest(addr: &str) -> String {
    let resp = request(addr, "GET", "/v1/cluster/segments", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    v.get("keys_digest")
        .and_then(serde_json::Value::as_str)
        .expect("manifest carries keys_digest")
        .to_string()
}

/// Polls until every listed node reports the same non-empty keys
/// digest, panicking after `deadline`.
fn await_convergence(addrs: &[String], deadline: Duration) -> String {
    let start = Instant::now();
    loop {
        let digests: Vec<String> = addrs.iter().map(|a| digest(a)).collect();
        if digests.iter().all(|d| *d == digests[0]) && !digests[0].starts_with("0:") {
            return digests[0].clone();
        }
        assert!(
            start.elapsed() < deadline,
            "fleet failed to converge within {deadline:?}: {digests:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The reference body: what a plain single-node cached server answers
/// for `(path, body)` — cluster responses must match it byte for byte.
fn single_node_reference(name: &str, path: &str, body: &str) -> String {
    let mut api = ApiContext::new();
    api.store = Some(Arc::new(ResultStore::open(scratch(name)).unwrap()));
    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            ..ServerConfig::default()
        },
        api,
    )
    .unwrap();
    let resp = post(&server.addr().to_string(), path, body);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let out = resp.body;
    server.shutdown().unwrap();
    out
}

#[test]
fn forward_on_miss_relays_the_owners_bytes() {
    let fleet = start_fleet("forward", 2, 3_600_000); // gossip effectively off
    let body = format!("{{{SMALL},\"solver\":\"idb\",\"seed\":11}}");
    let reference = single_node_reference("forward-ref", "/v1/solve", &body);

    let responses: Vec<ClientResponse> = fleet
        .iter()
        .map(|s| post(&s.addr().to_string(), "/v1/solve", &body))
        .collect();
    for resp in &responses {
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.body, reference, "every node must serve the same bytes");
    }
    // Exactly one of the two nodes owns the key; the other forwarded
    // and stamped the relay with the owner's id.
    let relayed: Vec<&str> = responses
        .iter()
        .filter_map(|r| r.header(SERVED_BY_HEADER))
        .collect();
    assert_eq!(relayed.len(), 1, "one owner, one forwarder: {relayed:?}");

    for server in fleet {
        server.shutdown().unwrap();
    }
}

#[test]
fn fleet_converges_and_a_cold_node_serves_cache_hits() {
    let fleet = start_fleet("converge", 3, 50);
    let addrs: Vec<String> = fleet.iter().map(|s| s.addr().to_string()).collect();
    let body = format!("{{{SMALL},\"solver\":\"idb\",\"seed_start\":1,\"seeds\":4}}");
    let reference = single_node_reference("converge-ref", "/v1/sweep", &body);

    // Warm node 0: the sweep computes (possibly with forwards) and its
    // results land in segments.
    let warm = post(&addrs[0], "/v1/sweep", &body);
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(warm.body, reference);

    // Anti-entropy spreads the segments; two 50ms gossip ticks per
    // node is the budget, with generous slack for CI schedulers.
    await_convergence(&addrs, Duration::from_secs(10));

    // A node that never saw the sweep now answers it from local cache:
    // all seeds hit, zero misses, bytes identical.
    let cold = post(&addrs[2], "/v1/sweep", &body);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(
        cold.body, reference,
        "converged cache must reproduce the bytes"
    );
    let hits: u64 = cold.header("x-cache-hits").unwrap().parse().unwrap();
    let misses: u64 = cold.header("x-cache-misses").unwrap().parse().unwrap();
    assert!(
        hits >= 4 && misses == 0,
        "expected a fully warm sweep, got {hits} hits / {misses} misses"
    );
    assert!(
        cold.header(SERVED_BY_HEADER).is_none(),
        "a warm node answers locally, not by forwarding"
    );

    // /statusz shows the fabric at work somewhere in the fleet.
    let statusz = request(&addrs[0], "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    let cluster = v.get("cluster").expect("cluster section present");
    assert_eq!(
        cluster.get("node_id").and_then(serde_json::Value::as_str),
        Some("n0")
    );
    let ticks = cluster
        .get("gossip")
        .and_then(|g| g.get("ticks"))
        .and_then(serde_json::Value::as_u64)
        .unwrap();
    assert!(ticks >= 1, "gossip thread must have ticked");

    for server in fleet {
        server.shutdown().unwrap();
    }
}

#[test]
fn dead_owner_degrades_to_local_compute_and_survivors_converge() {
    let fleet = start_fleet("chaos", 3, 50);
    let addrs: Vec<String> = fleet.iter().map(|s| s.addr().to_string()).collect();
    let body = format!("{{{SMALL},\"solver\":\"idb\",\"seed_start\":21,\"seeds\":6}}");
    let reference = single_node_reference("chaos-ref", "/v1/sweep", &body);

    // Kill node 2 while node 0 is mid-sweep: forwards to the dead
    // owner fail over to local compute, so the sweep still answers
    // 200 with the exact single-node bytes.
    let mut fleet = fleet.into_iter();
    let node0 = fleet.next().unwrap();
    let node1 = fleet.next().unwrap();
    let node2 = fleet.next().unwrap();
    let sweep = {
        let addr = addrs[0].clone();
        let body = body.clone();
        std::thread::spawn(move || post(&addr, "/v1/sweep", &body))
    };
    node2.shutdown().unwrap();
    let resp = sweep.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.body, reference,
        "a dead owner must cost latency, never correctness"
    );

    // The two survivors still gossip with each other and converge.
    let survivors = [addrs[0].clone(), addrs[1].clone()];
    await_convergence(&survivors, Duration::from_secs(10));

    // And the surviving non-origin node serves the sweep warm.
    let warm = post(&addrs[1], "/v1/sweep", &body);
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(warm.body, reference);
    let misses: u64 = warm.header("x-cache-misses").unwrap().parse().unwrap();
    assert_eq!(misses, 0, "survivor must hold the full sweep after gossip");

    node0.shutdown().unwrap();
    node1.shutdown().unwrap();
}

#[test]
fn a_node_holding_a_scenario_result_answers_it_without_a_forward() {
    let fleet = start_fleet("scenario-local", 2, 3_600_000); // gossip effectively off
    let addrs: Vec<String> = fleet.iter().map(|s| s.addr().to_string()).collect();
    let body = "{\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0,\
                \"scenario\":{\"chargers\":2}},\"solver\":\"sched-tour\",\"seed\":4}";

    // Whichever node forwards the request does not own its key.
    let first = post(&addrs[0], "/v1/solve", body);
    assert_eq!(first.status, 200, "{}", first.body);
    let node = &addrs[usize::from(first.header(SERVED_BY_HEADER).is_none())];
    // That node computes and stores the cell itself, as it does for a
    // forwarded request.
    let stored = request_with_headers(
        node,
        "POST",
        "/v1/solve",
        Some(body),
        &[(FORWARDED_HEADER, "1")],
    )
    .unwrap();
    assert_eq!(
        stored.header("x-cache-misses"),
        Some("1"),
        "{}",
        stored.body
    );
    assert_eq!(stored.body, first.body);

    // Now its cache answers, keyed with the scenario: on the reactor,
    // and on a worker for a body past the reactor's decode cap.
    let padded = format!("{body}{}", " ".repeat(5000));
    for body in [body, padded.as_str()] {
        let resp = post(node, "/v1/solve", body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.header(SERVED_BY_HEADER).is_none(),
            "a node that holds the result forwarded it"
        );
        assert_eq!(resp.header("x-cache-hits"), Some("1"));
        assert_eq!(resp.body, first.body);
    }
    for server in fleet {
        server.shutdown().unwrap();
    }
}

#[test]
fn single_node_server_is_byte_for_byte_unchanged() {
    let mut api = ApiContext::new();
    api.store = Some(Arc::new(ResultStore::open(scratch("single-node")).unwrap()));
    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        },
        api,
    )
    .unwrap();
    let addr = server.addr().to_string();

    // No cluster section in /statusz, no cluster endpoints.
    let statusz = request(&addr, "GET", "/statusz", None).unwrap();
    let v: serde_json::Value = serde_json::from_str(&statusz.body).unwrap();
    assert!(
        v.get("cluster").is_none(),
        "single-node /statusz must not grow a cluster section"
    );
    let manifest = request(&addr, "GET", "/v1/cluster/segments", None).unwrap();
    assert_eq!(
        manifest.status, 404,
        "cluster endpoints must not exist outside cluster mode"
    );

    // Responses carry no fabric headers.
    let solve = post(
        &addr,
        "/v1/solve",
        &format!("{{{SMALL},\"solver\":\"idb\",\"seed\":3}}"),
    );
    assert_eq!(solve.status, 200, "{}", solve.body);
    assert!(solve.header(SERVED_BY_HEADER).is_none());

    server.shutdown().unwrap();
}

#[test]
fn cluster_mode_requires_a_store() {
    let addrs = reserve_addrs(1);
    let config = ServerConfig {
        addr: addrs[0].clone(),
        workers: 1,
        queue_depth: 4,
        cluster: Some(ClusterConfig {
            node_id: "n0".to_string(),
            peers: vec![Peer {
                id: "n0".to_string(),
                addr: addrs[0].clone(),
            }],
            seed: 0,
            vnodes: 8,
            gossip_interval: Duration::from_secs(1),
        }),
        ..ServerConfig::default()
    };
    let err = match Server::start(&config, ApiContext::new()) {
        Ok(_) => panic!("a storeless cluster server must be refused"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("--cache"),
        "must explain the store requirement, got: {err}"
    );
}
