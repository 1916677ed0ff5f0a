//! # wrsn-serve — a std-only HTTP serving layer
//!
//! Turns the one-shot experiment pipeline into a long-lived daemon: an
//! HTTP/1.1 JSON service built on readiness event loops — one reactor
//! thread per available CPU, at most [`MAX_REACTORS`], each
//! multiplexing its own connections
//! through `epoll` (the crate's private `sys` and `reactor` modules) with
//! per-connection state machines and full HTTP/1.1 pipelining; the
//! first loop accepts and hands each connection to the least-loaded
//! loop — plus a fixed-size CPU worker pool behind one bounded
//! admission queue (overflow is rejected with `503` + `Retry-After`),
//! and graceful shutdown (drain in-flight requests, then flush the
//! shared [`wrsn_engine::ResultStore`]).
//!
//! Endpoints:
//!
//! - `POST /v1/solve` — instance parameters + solver name → cost
//!   summary (routed through [`wrsn_engine::Experiment`], so repeats
//!   are answered from the shared result store);
//! - `POST /v1/simulate` — the [`api::SimulateRequest`] spec that
//!   `wrsn simulate` parses its flags into (charger policy, fleet,
//!   planned tour, [`wrsn_sim::FaultPlan`] settings) → the report of
//!   [`api::SimRun::summary`], the document `wrsn simulate --json`
//!   prints;
//! - `POST /v1/sweep` — a small seed grid through the cached pipeline;
//!   repeated identical requests return byte-identical bodies;
//! - `POST /v1/jobs` — the same sweep spec, run asynchronously:
//!   answers `202` with a job id immediately; `GET /v1/jobs/{id}`
//!   polls state and the final report (byte-identical to `/v1/sweep`),
//!   and `GET /v1/jobs/{id}/events?since=N` streams cursor-based
//!   per-seed progress from the engine's progress feed;
//! - `GET /v1/solvers` — the registry listing;
//! - `GET /healthz`, `GET /statusz` — liveness and introspection
//!   (uptime, worker/queue/job occupancy, open connections in all and
//!   per event loop, per-endpoint request counts and latency
//!   histograms, cumulative cache stats).
//!
//! The event loop that reads them answers the probes, and a
//! `/v1/solve` whose result the store already holds, without a worker,
//! so they answer while every worker is busy.
//!
//! Request bodies name only keys their type knows: an unknown or
//! repeated key answers `400` naming it. A handler that panics answers
//! `500` and leaves its worker serving.
//!
//! The serving stack is multi-tenant ([`tenant`]): per-tenant API
//! keys (`Authorization: Bearer`, constant-time compare), a
//! deterministic token-bucket rate limiter per tenant (`429` with the
//! exact refill delay in `Retry-After`), a deficit-round-robin
//! weighted-fair admission queue with per-tenant depth caps, and
//! per-tenant cache namespaces plus `/statusz` breakdowns. A server
//! started without a tenant config keeps the exact single-user
//! behavior: one anonymous tenant, no auth, no limits.
//!
//! No dependencies beyond `std`, the workspace's own crates, and a
//! vendored shim over the `epoll`/`eventfd` syscalls — the server
//! builds offline. The [`client`] module holds the matching minimal
//! HTTP client (one-shot and persistent keep-alive connections) and
//! the `loadgen` throughput/latency harness.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod chaos;
pub mod client;
mod cluster;
mod conn;
mod dispatch;
mod error;
pub mod http;
mod jobs;
mod metrics;
mod reactor;
mod server;
pub mod signal;
mod sys;
pub mod tenant;

pub use chaos::{ChaosDecision, ChaosPolicy, ChaosState};
pub use cluster::{FORWARDED_HEADER, SERVED_BY_HEADER};
pub use error::ServeError;
pub use metrics::{Histogram, Metrics, StatusGauges};
pub use server::{Server, ServerConfig, ServerHandle, MAX_REACTORS};
pub use tenant::{FairQueue, TenantSpec, TokenBucket};
