//! The serving side of the cluster fabric: forward-on-miss routing
//! and the anti-entropy gossip tick.
//!
//! A clustered node answers a `/v1/solve|simulate|sweep` request
//! locally when it owns the request's routing key on the ring or
//! already holds every requested result in its cache; otherwise it
//! forwards the request to the owning peer (tagged with a loop-guard
//! header so a confused fleet can never bounce a request around) and
//! relays the answer. A dead or failing owner degrades to local
//! computation — slower, never wrong. In the background a gossip
//! thread picks a random peer each tick, exchanges segment manifests,
//! pulls segments it has not seen, and pushes small segments the peer
//! lacks, so one node's sweep warms every node's cache.

use crate::api::{SimulateRequest, SolveRequest, SweepRequest};
use crate::client::{self, request_with_retry_headers, BreakerState, CircuitBreaker, RetryPolicy};
use crate::http::{Request, Response, MAX_BODY_BYTES};
use crate::server::Shared;
use serde::{Serialize as _, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wrsn_cluster::{plan_pull, plan_push, ClusterConfig, HashRing, Manifest, Peer};
use wrsn_engine::ResultStore;

/// Loop-guard header stamped on every forwarded request. A node that
/// receives it always answers locally, so a request crosses the fleet
/// at most once even if two nodes disagree about the ring.
pub const FORWARDED_HEADER: &str = "x-wrsn-forwarded";

/// Response header naming the node that computed the answer — handy
/// for tests and for spotting misrouted traffic in the field.
pub const SERVED_BY_HEADER: &str = "x-wrsn-served-by";

/// Keep pushed segment bodies comfortably under the server's request
/// body cap (the JSON wrapper adds escaping overhead). Oversized
/// segments still converge: the owner advertises them and the peer
/// pulls them over an uncapped GET response.
const PUSH_BODY_BUDGET: usize = MAX_BODY_BYTES / 2;

/// Per-peer forwarding state: the breaker that stops hammering a dead
/// node, plus counters for the `/statusz` health listing.
pub(crate) struct PeerState {
    pub(crate) peer: Peer,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) forwards: AtomicU64,
    pub(crate) failures: AtomicU64,
}

/// Everything a clustered server shares between its workers and the
/// gossip thread.
pub(crate) struct ClusterState {
    pub(crate) config: ClusterConfig,
    pub(crate) ring: HashRing,
    pub(crate) self_index: usize,
    /// Aligned with `ring.peers()`.
    pub(crate) peers: Vec<PeerState>,
    /// Forwarded requests answered by the owning peer.
    pub(crate) forwarded_hits: AtomicU64,
    /// Forward attempts that fell back to local computation.
    pub(crate) forwarded_misses: AtomicU64,
    pub(crate) gossip_ticks: AtomicU64,
    pub(crate) segments_pulled: AtomicU64,
    pub(crate) segments_pushed: AtomicU64,
    pub(crate) entries_imported: AtomicU64,
    /// When the last successful manifest exchange finished.
    pub(crate) last_exchange: Mutex<Option<Instant>>,
    /// Foreign segment names already imported (own files are implied).
    pub(crate) seen: Mutex<BTreeSet<String>>,
}

impl ClusterState {
    /// Builds the ring and per-peer state from a validated config.
    pub(crate) fn new(config: ClusterConfig) -> Result<Self, String> {
        let (ring, self_index) = config.ring()?;
        let policy = forward_policy();
        let peers = ring
            .peers()
            .iter()
            .map(|peer| PeerState {
                peer: peer.clone(),
                breaker: CircuitBreaker::from_policy(&policy),
                forwards: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            })
            .collect();
        Ok(ClusterState {
            config,
            ring,
            self_index,
            peers,
            forwarded_hits: AtomicU64::new(0),
            forwarded_misses: AtomicU64::new(0),
            gossip_ticks: AtomicU64::new(0),
            segments_pulled: AtomicU64::new(0),
            segments_pushed: AtomicU64::new(0),
            entries_imported: AtomicU64::new(0),
            last_exchange: Mutex::new(None),
            seen: Mutex::new(BTreeSet::new()),
        })
    }

    fn seen_snapshot(&self, store: &ResultStore) -> BTreeSet<String> {
        let mut seen = self
            .seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if let Ok(segments) = store.segments() {
            seen.extend(segments.into_iter().map(|s| s.name));
        }
        seen
    }

    fn mark_seen(&self, name: &str) {
        self.seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(name.to_string());
    }

    /// The node's current anti-entropy manifest.
    pub(crate) fn manifest(&self, store: &ResultStore) -> Result<Manifest, String> {
        let segments = store.segments().map_err(|e| e.to_string())?;
        let seen = self.seen_snapshot(store);
        Ok(Manifest {
            node_id: self.config.node_id.clone(),
            entries: store.len() as u64,
            keys_digest: store.keys_digest(),
            segments,
            seen: seen.into_iter().collect(),
        })
    }

    /// The `/statusz` `cluster` section.
    pub(crate) fn to_value(&self) -> Value {
        let shares = self.ring.shares();
        let peers: Vec<(String, Value)> = self
            .peers
            .iter()
            .enumerate()
            .map(|(i, state)| {
                let breaker = match state.breaker.state() {
                    BreakerState::Closed => "closed",
                    BreakerState::Open => "open",
                    BreakerState::HalfOpen => "half-open",
                };
                (
                    state.peer.id.clone(),
                    Value::Object(vec![
                        ("addr".to_string(), Value::String(state.peer.addr.clone())),
                        ("share".to_string(), shares[i].to_value()),
                        ("breaker".to_string(), Value::String(breaker.to_string())),
                        (
                            "breaker_opens".to_string(),
                            state.breaker.opens().to_value(),
                        ),
                        (
                            "forwards".to_string(),
                            state.forwards.load(Ordering::Relaxed).to_value(),
                        ),
                        (
                            "failures".to_string(),
                            state.failures.load(Ordering::Relaxed).to_value(),
                        ),
                    ]),
                )
            })
            .collect();
        let lag_ms = self
            .last_exchange
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map_or(Value::Null, |at| {
                u64::try_from(at.elapsed().as_millis())
                    .unwrap_or(u64::MAX)
                    .to_value()
            });
        Value::Object(vec![
            (
                "node_id".to_string(),
                Value::String(self.config.node_id.clone()),
            ),
            (
                "owned_share".to_string(),
                shares[self.self_index].to_value(),
            ),
            ("vnodes".to_string(), self.ring.vnodes().to_value()),
            (
                "forwarded".to_string(),
                Value::Object(vec![
                    (
                        "hits".to_string(),
                        self.forwarded_hits.load(Ordering::Relaxed).to_value(),
                    ),
                    (
                        "misses".to_string(),
                        self.forwarded_misses.load(Ordering::Relaxed).to_value(),
                    ),
                ]),
            ),
            (
                "gossip".to_string(),
                Value::Object(vec![
                    (
                        "ticks".to_string(),
                        self.gossip_ticks.load(Ordering::Relaxed).to_value(),
                    ),
                    (
                        "segments_pulled".to_string(),
                        self.segments_pulled.load(Ordering::Relaxed).to_value(),
                    ),
                    (
                        "segments_pushed".to_string(),
                        self.segments_pushed.load(Ordering::Relaxed).to_value(),
                    ),
                    (
                        "entries_imported".to_string(),
                        self.entries_imported.load(Ordering::Relaxed).to_value(),
                    ),
                    (
                        "interval_ms".to_string(),
                        u64::try_from(self.config.gossip_interval.as_millis())
                            .unwrap_or(u64::MAX)
                            .to_value(),
                    ),
                    ("last_exchange_ms".to_string(), lag_ms),
                ]),
            ),
            ("peers".to_string(), Value::Object(peers)),
        ])
    }
}

/// The forwarding retry policy: fail fast (one retry, tight caps) so a
/// dead owner costs milliseconds before the local fallback kicks in,
/// with the breaker skipping the attempt entirely once a peer has
/// proven dead.
fn forward_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 1,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        seed: 0,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(500),
    }
}

/// The routing fingerprints of one API request: the key that picks the
/// owner, plus every cache fingerprint the request will read (empty
/// for uncached endpoints).
struct RoutingKeys {
    owner_key: String,
    cache_keys: Vec<wrsn_engine::Fingerprint>,
}

/// Extracts routing keys from a request body. The cache keys are the
/// ones the local handler reads, scenario and tenant namespace
/// included. `None` means the body does not parse or validate — let the
/// local handler produce the proper 400 instead of forwarding garbage.
fn routing_keys(path: &str, body: &str, namespace: Option<&str>) -> Option<RoutingKeys> {
    match path {
        "/v1/solve" => {
            let req: SolveRequest = parse_body(body)?;
            let fp = req.cache_key(namespace).ok()?;
            Some(RoutingKeys {
                owner_key: fp.to_hex(),
                cache_keys: vec![fp],
            })
        }
        "/v1/sweep" => {
            let req: SweepRequest = parse_body(body)?;
            let cache_keys = req.cache_keys(namespace).ok()?;
            Some(RoutingKeys {
                owner_key: cache_keys.first()?.to_hex(),
                cache_keys,
            })
        }
        // Simulate is uncached; route by body content so identical
        // requests land on one node (its OS page cache and branch
        // predictors warm up) while the fleet shares the load.
        "/v1/simulate" => {
            let _: SimulateRequest = parse_body(body)?;
            Some(RoutingKeys {
                owner_key: format!("simulate:{}", body.trim()),
                cache_keys: Vec::new(),
            })
        }
        _ => None,
    }
}

/// Parses a request body exactly like the dispatch layer: an empty
/// body means all defaults, anything else must be valid JSON.
fn parse_body<R: serde::Deserialize + Default>(body: &str) -> Option<R> {
    if body.trim().is_empty() {
        Some(R::default())
    } else {
        serde_json::from_str(body).ok()
    }
}

/// Decides whether to forward a `/v1/solve|simulate|sweep` request to
/// the owning peer, and does so. `None` means: handle locally (this
/// node owns the key, already holds the results, the body is invalid,
/// the request is itself a forward, or the owner is unreachable).
pub(crate) fn maybe_forward(request: &Request, tenant: usize, shared: &Shared) -> Option<Response> {
    let cluster = shared.cluster.as_ref()?;
    if request.header(FORWARDED_HEADER).is_some() {
        return None;
    }
    let namespace = shared.tenants.tenant(tenant).namespace();
    let body = request.body_text();
    let keys = routing_keys(&request.path, &body, namespace)?;
    let owner = cluster.ring.owner_index(&keys.owner_key);
    if owner == cluster.self_index {
        return None;
    }
    // Local-hit short-circuit: gossip may already have delivered the
    // owner's results, and answering from the local cache beats a
    // network hop.
    if !keys.cache_keys.is_empty() {
        if let Some(store) = &shared.api.store {
            if keys.cache_keys.iter().all(|fp| store.get(fp).is_some()) {
                return None;
            }
        }
    }
    let peer = &cluster.peers[owner];
    peer.forwards.fetch_add(1, Ordering::Relaxed);
    let mut extra = vec![(FORWARDED_HEADER, "1")];
    let auth = request.header("authorization").map(str::to_string);
    if let Some(auth) = &auth {
        extra.push(("Authorization", auth.as_str()));
    }
    let body_opt = if body.trim().is_empty() {
        None
    } else {
        Some(body.as_str())
    };
    let outcome = request_with_retry_headers(
        &peer.peer.addr,
        &request.method,
        &request.path,
        body_opt,
        &extra,
        &forward_policy(),
        Some(&peer.breaker),
    );
    match outcome {
        // Relay definitive answers (including the owner's 4xx — the
        // body was its to judge). Overload and server faults fall back
        // to local computation instead: slow beats wrong or refused.
        Ok(out) if out.response.status < 500 && out.response.status != 429 => {
            cluster.forwarded_hits.fetch_add(1, Ordering::Relaxed);
            let mut response = Response::json(out.response.status, out.response.body.clone());
            for header in ["x-cache-hits", "x-cache-misses"] {
                if let Some(value) = out.response.header(header) {
                    response = response.header(header, value);
                }
            }
            Some(response.header(SERVED_BY_HEADER, &peer.peer.id))
        }
        _ => {
            peer.failures.fetch_add(1, Ordering::Relaxed);
            cluster.forwarded_misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// `GET /v1/cluster/segments` — this node's anti-entropy manifest.
pub(crate) fn manifest_response(shared: &Shared) -> Response {
    let Some(cluster) = &shared.cluster else {
        return Response::error(404, "not running in cluster mode");
    };
    let Some(store) = &shared.api.store else {
        return Response::error(500, "cluster mode requires a cache store");
    };
    match cluster.manifest(store) {
        Ok(manifest) => match serde_json::to_string(&manifest) {
            Ok(body) => Response::json(200, body),
            Err(e) => Response::error(500, &format!("manifest serialization: {e}")),
        },
        Err(e) => Response::error(500, &format!("manifest: {e}")),
    }
}

/// `GET /v1/cluster/segments/{name}` — one segment's text, wrapped in
/// JSON. The response is not subject to the request body cap, so big
/// segments always travel in this direction.
pub(crate) fn segment_get(path: &str, shared: &Shared) -> Response {
    let Some(_) = &shared.cluster else {
        return Response::error(404, "not running in cluster mode");
    };
    let Some(store) = &shared.api.store else {
        return Response::error(500, "cluster mode requires a cache store");
    };
    let name = path.strip_prefix("/v1/cluster/segments/").unwrap_or("");
    match store.read_segment(name) {
        Ok(text) => {
            let body = Value::Object(vec![
                ("name".to_string(), Value::String(name.to_string())),
                ("text".to_string(), Value::String(text)),
            ]);
            Response::json(
                200,
                serde_json::to_string(&body).expect("a Value always serializes"),
            )
        }
        Err(e) => Response::error(404, &format!("segment {name:?}: {e}")),
    }
}

/// `POST /v1/cluster/segments/{name}` — put-if-absent import of a
/// pushed segment. Records already present are skipped, so replays and
/// races are harmless.
pub(crate) fn segment_put(path: &str, request: &Request, shared: &Shared) -> Response {
    let Some(cluster) = &shared.cluster else {
        return Response::error(404, "not running in cluster mode");
    };
    let Some(store) = &shared.api.store else {
        return Response::error(500, "cluster mode requires a cache store");
    };
    let name = path.strip_prefix("/v1/cluster/segments/").unwrap_or("");
    if !ResultStore::is_segment_name(name) {
        return Response::error(400, &format!("bad segment name {name:?}"));
    }
    let body = request.body_text();
    let parsed: Result<Value, _> = serde_json::from_str(&body);
    let text = match &parsed {
        Ok(v) => match v.get("text").and_then(Value::as_str) {
            Some(text) => text,
            None => return Response::error(400, "body must be {\"text\": \"…\"}"),
        },
        Err(e) => return Response::error(400, &format!("invalid body: {e}")),
    };
    match store.import_segment_text(text) {
        Ok(report) => {
            cluster.mark_seen(name);
            cluster
                .entries_imported
                .fetch_add(report.imported, Ordering::Relaxed);
            let body = Value::Object(vec![
                ("imported".to_string(), report.imported.to_value()),
                ("skipped".to_string(), report.skipped.to_value()),
            ]);
            Response::json(
                200,
                serde_json::to_string(&body).expect("a Value always serializes"),
            )
        }
        Err(e) => Response::error(400, &format!("import: {e}")),
    }
}

/// One anti-entropy exchange with the peer at `peer_index`: fetch its
/// manifest, pull every segment this node has not seen, push every
/// small segment the peer lacks. Returns `false` when the peer was
/// unreachable.
pub(crate) fn gossip_exchange(shared: &Shared, peer_index: usize) -> bool {
    let Some(cluster) = &shared.cluster else {
        return false;
    };
    let Some(store) = &shared.api.store else {
        return false;
    };
    let peer = &cluster.peers[peer_index].peer;
    let Ok(resp) = client::request(&peer.addr, "GET", "/v1/cluster/segments", None) else {
        return false;
    };
    if resp.status != 200 {
        return false;
    }
    let Ok(remote) = serde_json::from_str::<Manifest>(&resp.body) else {
        return false;
    };
    let local_seen = cluster.seen_snapshot(store);
    for name in plan_pull(&local_seen, &remote) {
        let path = format!("/v1/cluster/segments/{name}");
        let Ok(resp) = client::request(&peer.addr, "GET", &path, None) else {
            continue;
        };
        if resp.status != 200 {
            continue;
        }
        let Ok(wrapped) = serde_json::from_str::<Value>(&resp.body) else {
            continue;
        };
        let Some(text) = wrapped.get("text").and_then(Value::as_str) else {
            continue;
        };
        if let Ok(report) = store.import_segment_text(text) {
            cluster.mark_seen(&name);
            cluster.segments_pulled.fetch_add(1, Ordering::Relaxed);
            cluster
                .entries_imported
                .fetch_add(report.imported, Ordering::Relaxed);
        }
    }
    if let Ok(local) = cluster.manifest(store) {
        for name in plan_push(&local, &remote) {
            let Ok(text) = store.read_segment(&name) else {
                continue;
            };
            if text.len() > PUSH_BODY_BUDGET {
                // Too big to push through the request body cap; the
                // peer will pull it on its own next tick.
                continue;
            }
            let body = Value::Object(vec![("text".to_string(), Value::String(text))]);
            let body = serde_json::to_string(&body).expect("a Value always serializes");
            let path = format!("/v1/cluster/segments/{name}");
            if let Ok(resp) = client::request(&peer.addr, "POST", &path, Some(&body)) {
                if resp.status == 200 {
                    cluster.segments_pushed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    *cluster
        .last_exchange
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Instant::now());
    true
}

/// The gossip thread body: every interval, exchange manifests with one
/// random peer. Sleeps in short slices so shutdown stays prompt.
pub(crate) fn gossip_loop(shared: &std::sync::Arc<Shared>) {
    use rand::{Rng as _, SeedableRng as _};
    let Some(cluster) = &shared.cluster else {
        return;
    };
    let interval = cluster.config.gossip_interval;
    // Seed from the node id so two nodes starting together do not pick
    // the same partner sequence in lockstep.
    let seed = cluster.config.node_id.bytes().fold(0u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u64::from(b))
    }) ^ cluster.self_index as u64;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let slice = Duration::from_millis(20);
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let step = slice.min(interval - waited);
            std::thread::sleep(step);
            waited += step;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let others: Vec<usize> = (0..cluster.peers.len())
            .filter(|&i| i != cluster.self_index)
            .collect();
        if others.is_empty() {
            continue;
        }
        let target = others[rng.random_range(0..others.len())];
        gossip_exchange(shared, target);
        cluster.gossip_ticks.fetch_add(1, Ordering::Relaxed);
    }
}
