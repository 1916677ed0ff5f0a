//! Request execution: the event loops' inline answers, routing on the
//! CPU worker pool, per-request deadlines, chaos injection, and the
//! completion hand-off back to the event loop that owns the
//! connection.
//!
//! An event loop parses requests and answers the bounded ones itself
//! ([`answer_inline`]: the probes, and a `/v1/solve` whose result the
//! store already holds). Everything else it pushes onto the shared
//! bounded admission queue as a [`DispatchJob`]; workers pop them,
//! compute the [`Response`] (solver execution happens here, never on
//! an event loop), and post a [`Completion`] to the mailbox of the
//! job's loop, which stitches it back into the owning connection's
//! write queue by `(token, seq)`.

use crate::api::{ApiContext, ApiError, ApiOutcome, SimulateRequest, SolveRequest, SweepRequest};
use crate::chaos::ChaosDecision;
use crate::cluster;
use crate::http::{Request, Response};
use crate::jobs;
use crate::metrics::StatusGauges;
use crate::server::Shared;
use serde::Deserialize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Instant;

/// The largest `/v1/solve` body an event loop decodes itself: 4 KiB
/// decodes in a few microseconds.
const INLINE_BODY_BYTES: usize = 4 * 1024;

/// The most transmit levels a sampled `/v1/solve` instance may have and
/// still be answered on an event loop. The key spells out every level: on
/// a 2-vCPU VM it took about 4 µs at 16 levels and 120 µs at 1 000.
const INLINE_MAX_LEVELS: usize = 16;

/// One parsed request traveling from an event loop to a worker.
#[derive(Debug)]
pub(crate) struct DispatchJob {
    /// The event loop that owns the connection: the worker posts the
    /// completion to its mailbox.
    pub reactor: usize,
    /// The owning connection's token within that loop.
    pub token: u64,
    /// Position in that connection's request pipeline.
    pub seq: usize,
    /// Index of the tenant the reactor admitted this request under.
    pub tenant: usize,
    /// The parsed request.
    pub request: Request,
    /// When the request finished parsing (latency baseline).
    pub started: Instant,
}

/// A computed response traveling from a worker (or an event loop's
/// inline path) back to the connection.
#[derive(Debug)]
pub(crate) struct Completion {
    /// The owning connection's token within its event loop; a stale
    /// token (the connection died, its slot was reused) is dropped.
    pub token: u64,
    /// Position in that connection's request pipeline.
    pub seq: usize,
    /// The response to serialize into the pipeline slot.
    pub response: Response,
    /// Chaos: cut the serialized bytes in half and hang up.
    pub truncate: bool,
}

/// Answers `GET /healthz`, `GET /statusz`, and a `POST /v1/solve` whose
/// result the store already holds, on the event loop that parsed it:
/// their work is a few microseconds and never waits on disk, so they
/// skip both thread hand-offs. A solve is only answered here on a
/// server without chaos (an injected delay would stall the loop), for a
/// body of at most [`INLINE_BODY_BYTES`] and for a sampled instance of
/// at most [`INLINE_MAX_LEVELS`] levels; everything else goes to a
/// worker. A panic answers `500`, as on a worker, and never reaches the
/// loop. `None` sends the request to the worker pool.
pub(crate) fn answer_inline(request: &Request, tenant: usize, shared: &Shared) -> Option<Response> {
    panic::catch_unwind(AssertUnwindSafe(|| try_inline(request, tenant, shared)))
        .unwrap_or_else(|_| Some(handler_panicked()))
}

fn try_inline(request: &Request, tenant: usize, shared: &Shared) -> Option<Response> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Some(healthz()),
        ("GET", "/statusz") => Some(statusz(shared)),
        ("POST", "/v1/solve")
            if shared.chaos.is_none() && request.body.len() <= INLINE_BODY_BYTES =>
        {
            // A body that does not decode goes to a worker, which
            // answers the 400. So does a pinned spec, which is built to
            // be checked (about 0.2 ms near 4 KiB), and a sampler whose
            // many levels make the key slow.
            let req = decode::<SolveRequest>(request).ok()?;
            if req.instance.spec.is_some() || req.instance.levels > INLINE_MAX_LEVELS {
                return None;
            }
            let namespace = shared.tenants.tenant(tenant).namespace();
            let outcome = shared.api.cached_solve_in(namespace, &req)?;
            Some(api_response(outcome, tenant, shared))
        }
        _ => None,
    }
}

/// Folds one answered request into the endpoint histogram and, for the
/// API, its tenant's latency.
pub(crate) fn record(
    request: &Request,
    tenant: usize,
    status: u16,
    started: Instant,
    shared: &Shared,
) {
    let micros = elapsed_us(started);
    shared.metrics.record(&request.path, status, micros);
    if request.path.starts_with("/v1/") {
        shared.tenants.tenant(tenant).stats.latency.record(micros);
    }
}

/// The worker thread body: pop, respond, hand the completion back to
/// the event loop that owns the connection.
pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.busy.fetch_add(1, Ordering::SeqCst);
        let (response, truncate) = respond(&job, shared);
        shared.busy.fetch_sub(1, Ordering::SeqCst);
        shared.reactors[job.reactor].complete(Completion {
            token: job.token,
            seq: job.seq,
            response,
            truncate,
        });
    }
}

/// Computes the response for one job: chaos decision, deadline-raced
/// routing, and the metrics record.
pub(crate) fn respond(job: &DispatchJob, shared: &Arc<Shared>) -> (Response, bool) {
    let request = &job.request;
    // Chaos touches only the API; probe endpoints stay honest so
    // readiness checks keep working during a chaos run.
    let decision = match &shared.chaos {
        Some(chaos) if request.path.starts_with("/v1/") => chaos.decide(),
        _ => ChaosDecision::NONE,
    };
    if let Some(delay) = decision.delay {
        std::thread::sleep(delay);
    }
    let response = if decision.inject_fault {
        shared.metrics.chaos_faults.fetch_add(1, Ordering::Relaxed);
        // No `Retry-After`: HTTP defines it for 503, 429 and redirects,
        // not for a 500, and a client honouring it would wait a whole
        // second per injected fault instead of its own short backoff.
        Response::error(500, "chaos: injected fault")
    } else {
        route_with_deadline(request, job.tenant, shared)
    };
    record(request, job.tenant, response.status, job.started, shared);
    if decision.truncate {
        shared.metrics.chaos_faults.fetch_add(1, Ordering::Relaxed);
    }
    (response, decision.truncate)
}

/// Routes the request, racing the handler against the configured
/// deadline. On timeout the worker answers `504` immediately; the
/// handler finishes on its detached thread and its result is dropped.
fn route_with_deadline(request: &Request, tenant: usize, shared: &Arc<Shared>) -> Response {
    let Some(timeout) = shared.request_timeout else {
        return route_guarded(request, tenant, shared);
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let req = request.clone();
    let worker_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("wrsn-serve-handler".to_string())
        .spawn(move || {
            let _ = tx.send(route_guarded(&req, tenant, &worker_shared));
        });
    if spawned.is_err() {
        // Thread exhaustion: degrade to inline handling rather than
        // failing the request.
        return route_guarded(request, tenant, shared);
    }
    match rx.recv_timeout(timeout) {
        Ok(response) => response,
        Err(RecvTimeoutError::Timeout) => {
            shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            Response::error(504, "request deadline exceeded").header("Retry-After", "1")
        }
        Err(RecvTimeoutError::Disconnected) => handler_panicked(),
    }
}

/// Routes the request, answering `500` if the handler panics: a panic
/// costs its own request, never the worker thread that runs it.
fn route_guarded(request: &Request, tenant: usize, shared: &Arc<Shared>) -> Response {
    panic::catch_unwind(AssertUnwindSafe(|| route(request, tenant, shared)))
        .unwrap_or_else(|_| handler_panicked())
}

fn handler_panicked() -> Response {
    Response::error(500, "internal error: the request handler panicked")
}

pub(crate) fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn route(request: &Request, tenant: usize, shared: &Arc<Shared>) -> Response {
    // Cluster routing runs before local handling: a request whose key
    // another node owns (and that the local cache cannot answer) is
    // forwarded there; anything else falls through to the local path.
    if request.method == "POST"
        && matches!(
            request.path.as_str(),
            "/v1/solve" | "/v1/simulate" | "/v1/sweep"
        )
    {
        if let Some(response) = cluster::maybe_forward(request, tenant, shared) {
            return response;
        }
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(),
        ("GET", "/statusz") => statusz(shared),
        ("GET", "/v1/solvers") => json_response(200, &shared.api.solvers().body),
        ("POST", "/v1/solve") => {
            handle_api(request, tenant, shared, |api, ns, req: &SolveRequest| {
                api.solve_in(ns, req)
            })
        }
        ("POST", "/v1/simulate") => handle_api(
            request,
            tenant,
            shared,
            |api, _ns, req: &SimulateRequest| api.simulate(req),
        ),
        ("POST", "/v1/sweep") => {
            handle_api(request, tenant, shared, |api, ns, req: &SweepRequest| {
                api.sweep_in(ns, req)
            })
        }
        ("POST", "/v1/jobs") => jobs::submit(request, tenant, shared),
        ("GET", "/v1/cluster/segments") => cluster::manifest_response(shared),
        ("GET", path) if path.starts_with("/v1/cluster/segments/") => {
            cluster::segment_get(path, shared)
        }
        ("POST", path) if path.starts_with("/v1/cluster/segments/") => {
            cluster::segment_put(path, request, shared)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => route_job_get(path, shared),
        ("GET", "/v1/jobs") => Response::error(405, "POST a sweep spec to submit a job"),
        ("GET", "/v1/solve" | "/v1/simulate" | "/v1/sweep") => {
            Response::error(405, "use POST with a JSON body")
        }
        ("POST", "/healthz" | "/statusz" | "/v1/solvers") => Response::error(405, "use GET"),
        ("POST", path) if path.starts_with("/v1/jobs/") => {
            Response::error(405, "use GET to poll a job")
        }
        _ => Response::error(404, "no such endpoint"),
    }
}

/// `GET /v1/jobs/{id}` and `GET /v1/jobs/{id}/events?since=N`.
fn route_job_get(path: &str, shared: &Shared) -> Response {
    let rest = path.strip_prefix("/v1/jobs/").unwrap_or_default();
    let (rest, query) = rest.split_once('?').unwrap_or((rest, ""));
    let (id_part, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_part.parse::<u64>() else {
        return Response::error(400, &format!("bad job id {id_part:?}"));
    };
    match tail {
        None => jobs::poll(id, shared),
        Some("events") => {
            let since = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("since="))
                .map_or(Ok(0), str::parse::<usize>);
            match since {
                Ok(since) => jobs::events(id, since, shared),
                Err(_) => Response::error(400, "bad since cursor"),
            }
        }
        Some(_) => Response::error(404, "no such endpoint"),
    }
}

pub(crate) fn json_response(status: u16, body: &serde::Value) -> Response {
    Response::json(
        status,
        serde_json::to_string(body).expect("a Value always serializes"),
    )
}

fn healthz() -> Response {
    Response::json(200, "{\"status\":\"ok\"}")
}

/// `GET /statusz`: the counters, the gauges, the tenant breakdown and,
/// when clustered, the fabric's health. Every read is an atomic or a
/// short in-memory lock, so an event loop can answer it.
fn statusz(shared: &Shared) -> Response {
    let gauges = StatusGauges {
        workers_total: shared.workers,
        workers_busy: shared.busy.load(Ordering::SeqCst),
        queue_len: shared.queue.len(),
        queue_capacity: shared.queue.capacity(),
        conns_per_reactor: shared
            .reactors
            .iter()
            .map(|r| r.conns.load(Ordering::SeqCst))
            .collect(),
        conns_max: shared.max_conns,
        jobs_active: shared.jobs.active(),
        jobs_submitted: shared.jobs.submitted(),
        jobs_max: shared.jobs.capacity(),
        store_entries: shared.api.store.as_ref().map(|s| s.len()),
        io: shared.api.store.as_ref().map(|s| s.io_stats()),
        durability: shared.api.store.as_ref().map(|s| s.durability().as_str()),
        jobs_resumed: shared.jobs.resumed(),
    };
    let mut status = shared.metrics.to_statusz(&gauges);
    if let serde::Value::Object(pairs) = &mut status {
        pairs.push((
            "tenants".to_string(),
            shared.tenants.to_value(&shared.queue),
        ));
        if let Some(cluster) = &shared.cluster {
            pairs.push(("cluster".to_string(), cluster.to_value()));
        }
    }
    json_response(200, &status)
}

/// Decodes a request body the way every API endpoint does: an empty
/// body means all defaults.
fn decode<R: Deserialize + Default>(request: &Request) -> Result<R, serde_json::Error> {
    let body = String::from_utf8_lossy(&request.body);
    if body.trim().is_empty() {
        Ok(R::default())
    } else {
        serde_json::from_str(&body)
    }
}

fn handle_api<R, F>(request: &Request, tenant: usize, shared: &Shared, handler: F) -> Response
where
    R: Deserialize + Default,
    F: FnOnce(&ApiContext, Option<&str>, &R) -> Result<ApiOutcome, ApiError>,
{
    let req = match decode::<R>(request) {
        Ok(req) => req,
        Err(e) => return Response::error(400, &format!("invalid request body: {e}")),
    };
    // Isolated tenants read and write their own cache namespace; every
    // other tenant shares the default namespace.
    let namespace = shared.tenants.tenant(tenant).namespace();
    match handler(&shared.api, namespace, &req) {
        Ok(outcome) => api_response(outcome, tenant, shared),
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// A handler's `200`: the body plus the `x-cache-*` headers, with its
/// cache traffic folded into `/statusz`.
fn api_response(outcome: ApiOutcome, tenant: usize, shared: &Shared) -> Response {
    shared.metrics.add_cache(&outcome.cache);
    shared.tenants.add_cache(tenant, &outcome.cache);
    json_response(200, &outcome.body)
        .header("x-cache-hits", outcome.cache.hits.to_string())
        .header("x-cache-misses", outcome.cache.misses.to_string())
}
