//! The server: configuration, startup, shared state, and graceful
//! shutdown around the readiness event loops.
//!
//! Threading model: one event loop per available CPU, at most
//! [`MAX_REACTORS`] (`wrsn-serve-reactor-{i}`, see [`crate::reactor`]),
//! each with its own epoll set and eventfd. Loop 0 also owns the
//! nonblocking listener: it hands each accepted socket to the loop with
//! the fewest open connections (ties round-robin) through that loop's
//! [`Mailbox`], and registers the ones it picks for itself directly.
//! A connection stays on its loop for life, as a per-socket state
//! machine (read → parse → dispatch → buffered write, [`crate::conn`])
//! with full HTTP/1.1 pipelining. A fixed pool of CPU worker threads
//! pops parsed requests off one shared [`FairQueue`] — the admission
//! bound; overflow is answered `503` + `Retry-After` by the loop inline
//! — routes each through [`ApiContext`] ([`crate::dispatch`]), and
//! hands the completion back to the mailbox of the loop that owns the
//! connection. The probes and a `/v1/solve` whose result the store
//! already holds never reach the pool: the loop answers them itself.
//! Long sweeps go through the bounded async job API ([`crate::jobs`])
//! on their own threads instead of occupying a worker for the whole
//! run.
//!
//! Why one loop per CPU: on a single loop, concurrent keep-alive
//! callers take turns even when each request is a few microseconds of
//! work. With two closed-loop callers of cached `/v1/solve` on a 2-vCPU
//! VM, two loops cut the `serve-hot` benchmark's median round trip from
//! 0.0447 ms (one loop) to 0.0317 ms. With one connection per request
//! (no keep-alive) the same host showed no difference that repeated
//! runs could resolve.
//!
//! A per-request deadline ([`ServerConfig::request_timeout`]) turns
//! slow handlers into `504`s instead of wedged workers, and an
//! optional [`ChaosPolicy`] makes the server misbehave
//! deterministically for resilience tests. Shutdown closes the queue
//! and the listener; workers drain the backlog, every loop flushes its
//! in-flight responses, every thread (including job threads) joins,
//! and the shared result store is flushed to disk.

use crate::api::ApiContext;
use crate::chaos::{ChaosPolicy, ChaosState};
use crate::cluster::{gossip_loop, ClusterState};
use crate::dispatch::{worker_loop, Completion, DispatchJob};
use crate::jobs::{self, Jobs, Journal};
use crate::metrics::Metrics;
use crate::reactor::Reactor;
use crate::signal;
use crate::sys;
use crate::tenant::{FairQueue, TenantDefaults, TenantSpec, TenantTable};
use crate::ServeError;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7421` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission queue capacity; overflow is rejected with 503.
    pub queue_depth: usize,
    /// Per-request handler deadline: a handler still running past it is
    /// answered `504` + `Retry-After` while it finishes on a detached
    /// thread (`None` = no deadline).
    pub request_timeout: Option<Duration>,
    /// Serve multiple requests per connection (HTTP/1.1 keep-alive).
    pub keep_alive: bool,
    /// Most requests served over one keep-alive connection before the
    /// server closes it.
    pub keep_alive_max_requests: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_idle: Duration,
    /// Most connections the server keeps open at once, over all its
    /// event loops; accepts beyond it are answered `503` +
    /// `Retry-After` and closed.
    pub max_conns: usize,
    /// Most async sweep jobs (`POST /v1/jobs`) running concurrently;
    /// submissions past it are rejected with `503` + `Retry-After`.
    pub max_jobs: usize,
    /// Deterministic misbehavior for resilience tests (`None` in
    /// production).
    pub chaos: Option<ChaosPolicy>,
    /// The tenant roster (`--tenants FILE`). `None` keeps the exact
    /// single-user behavior: one anonymous tenant, no auth, no rate
    /// limit, a plain FIFO admission queue.
    pub tenants: Option<Vec<TenantSpec>>,
    /// Default sustained requests/second for tenants that omit `rps`
    /// (0 = unlimited).
    pub default_rps: f64,
    /// Default token-bucket burst for tenants that omit `burst`.
    pub default_burst: u64,
    /// Cluster fabric membership (`--cluster-peers`). `None` keeps the
    /// exact single-node behavior: no forwarding, no gossip thread, no
    /// `cluster` section in `/statusz`.
    pub cluster: Option<wrsn_cluster::ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7421".to_string(),
            workers: 4,
            queue_depth: 64,
            request_timeout: None,
            keep_alive: false,
            keep_alive_max_requests: 32,
            keep_alive_idle: Duration::from_secs(5),
            max_conns: 4096,
            max_jobs: 8,
            chaos: None,
            tenants: None,
            default_rps: 0.0,
            default_burst: 16,
            cluster: None,
        }
    }
}

/// Most event loops one server runs, however many CPUs the host has.
/// Each loop holds an epoll set and an eventfd, so a server opens
/// `2n + 1` descriptors with its listener before its first connection,
/// and a test binary that starts a server per test opens that many per
/// test thread. With n loops forced and the serving integration tests
/// run all at once (32 test threads) under a 1024-descriptor soft
/// limit, the binary peaked at 511–552 descriptors for n = 8, and at
/// 983–1024 for n = 16, where one run in three failed with "Too many
/// open files".
pub const MAX_REACTORS: usize = 8;

/// What other threads hand one event loop, and its counters. Aligned
/// to its own cache lines: a loop's writes to its counters must not
/// stall the workers and loops that lock a neighbouring mailbox.
#[repr(align(128))]
pub(crate) struct Mailbox {
    /// Sockets loop 0 accepted for this loop.
    accepted: Mutex<Vec<TcpStream>>,
    /// Responses the workers finished for this loop's connections.
    completions: Mutex<Vec<Completion>>,
    waker: sys::Waker,
    /// Connections this loop owns, counted from hand-off to removal.
    pub(crate) conns: AtomicUsize,
    /// Requests this loop sent to a worker or answered inline whose
    /// completions it has not applied yet.
    pub(crate) inflight: AtomicUsize,
}

impl Mailbox {
    fn new() -> std::io::Result<Self> {
        Ok(Mailbox {
            accepted: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: sys::Waker::new()?,
            conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
        })
    }

    /// The eventfd the loop registers with its epoll set.
    pub(crate) fn waker(&self) -> &sys::Waker {
        &self.waker
    }

    /// Hands a freshly accepted socket to the loop and wakes it.
    pub(crate) fn hand_over(&self, stream: TcpStream) {
        self.accepted.lock().push(stream);
        self.waker.wake();
    }

    /// Hands a finished response to the loop and wakes it.
    pub(crate) fn complete(&self, completion: Completion) {
        self.completions.lock().push(completion);
        self.waker.wake();
    }

    /// Takes every socket handed over since the last call.
    pub(crate) fn take_accepted(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.accepted.lock())
    }

    /// Moves every pending completion onto the end of `into`.
    pub(crate) fn take_completions(&self, into: &mut Vec<Completion>) {
        into.append(&mut self.completions.lock());
    }
}

/// State shared between the event loops, the worker pool, and job
/// threads.
pub(crate) struct Shared {
    pub(crate) api: ApiContext,
    pub(crate) metrics: Metrics,
    pub(crate) tenants: TenantTable,
    pub(crate) queue: FairQueue<DispatchJob>,
    /// One mailbox per event loop, indexed by the loop's number.
    pub(crate) reactors: Vec<Mailbox>,
    pub(crate) busy: AtomicUsize,
    pub(crate) workers: usize,
    pub(crate) stop: AtomicBool,
    pub(crate) max_conns: usize,
    pub(crate) request_timeout: Option<Duration>,
    pub(crate) keep_alive: bool,
    pub(crate) keep_alive_max_requests: usize,
    pub(crate) keep_alive_idle: Duration,
    pub(crate) chaos: Option<ChaosState>,
    pub(crate) jobs: Jobs,
    pub(crate) cluster: Option<ClusterState>,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts the threads without draining.
pub struct Server;

/// Controls a running server: its bound address, shutdown, and the
/// shared state tests introspect.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns one event loop per available CPU (at most
    /// [`MAX_REACTORS`]) and the worker pool, and returns the handle.
    /// The listener is ready (connections are accepted) before this
    /// returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound or the
    /// epoll/eventfd setup fails; [`ServeError::Config`] when the
    /// chaos policy is out of range.
    pub fn start(config: &ServerConfig, api: ApiContext) -> Result<ServerHandle, ServeError> {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::start_with_reactors(config, api, cpus.min(MAX_REACTORS))
    }

    /// [`Server::start`] with `reactors` event loops (at least 1).
    pub(crate) fn start_with_reactors(
        config: &ServerConfig,
        api: ApiContext,
        reactors: usize,
    ) -> Result<ServerHandle, ServeError> {
        if let Some(chaos) = &config.chaos {
            chaos.validate().map_err(ServeError::Config)?;
        }
        let cluster = match &config.cluster {
            Some(spec) => {
                if api.store.is_none() {
                    return Err(ServeError::Config(
                        "cluster mode requires a cache store (--cache)".to_string(),
                    ));
                }
                Some(ClusterState::new(spec.clone()).map_err(ServeError::Config)?)
            }
            None => None,
        };
        let tenants = match &config.tenants {
            Some(specs) => TenantTable::from_specs(
                specs,
                &TenantDefaults {
                    rps: config.default_rps,
                    burst: config.default_burst.max(1),
                    queue_depth: config.queue_depth.max(1),
                    max_jobs: config.max_jobs.max(1),
                },
            )
            .map_err(ServeError::Config)?,
            None => TenantTable::single_user(config.queue_depth.max(1), config.max_jobs.max(1)),
        };
        let queue = FairQueue::for_tenants(&tenants);
        let bind_err = |message: String| ServeError::Bind {
            addr: config.addr.clone(),
            message,
        };
        let listener = TcpListener::bind(&config.addr).map_err(|e| bind_err(e.to_string()))?;
        let addr = listener.local_addr().map_err(|e| bind_err(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| bind_err(format!("set_nonblocking: {e}")))?;
        let reactors = reactors.max(1);
        let mut epolls = Vec::with_capacity(reactors);
        let mut mailboxes = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            epolls.push(sys::Epoll::new().map_err(|e| bind_err(format!("epoll_create1: {e}")))?);
            mailboxes.push(Mailbox::new().map_err(|e| bind_err(format!("eventfd: {e}")))?);
        }
        let workers = config.workers.max(1);
        // With a store attached, jobs journal their specs and reports
        // under it so they survive a crash or restart (see crate::jobs).
        let journal = api.store.as_ref().and_then(|store| {
            let dir = store.dir().join("jobs");
            match std::fs::create_dir_all(&dir) {
                Ok(()) => Some(Journal {
                    dir,
                    vfs: store.vfs(),
                    durable: store.durability().is_fsync(),
                }),
                Err(e) => {
                    eprintln!(
                        "wrsn-serve: cannot create job journal dir {}: {e}; jobs are not durable",
                        dir.display()
                    );
                    None
                }
            }
        });
        let shared = Arc::new(Shared {
            api,
            metrics: Metrics::new(),
            tenants,
            queue,
            reactors: mailboxes,
            busy: AtomicUsize::new(0),
            workers,
            stop: AtomicBool::new(false),
            max_conns: config.max_conns.max(1),
            request_timeout: config.request_timeout,
            keep_alive: config.keep_alive,
            keep_alive_max_requests: config.keep_alive_max_requests.max(1),
            keep_alive_idle: config.keep_alive_idle,
            chaos: config
                .chaos
                .clone()
                .filter(|p| !p.is_empty())
                .map(ChaosState::new),
            jobs: Jobs::new(config.max_jobs, journal),
            cluster,
        });
        // Reload finished jobs and respawn interrupted ones before the
        // listener opens, so the first poll after a restart already
        // sees them.
        jobs::restore(&shared);

        let mut listener = Some(listener);
        let reactors: Vec<JoinHandle<()>> = epolls
            .into_iter()
            .enumerate()
            .map(|(i, epoll)| {
                let reactor = Reactor::new(i, listener.take(), epoll, shared.clone());
                std::thread::Builder::new()
                    .name(format!("wrsn-serve-reactor-{i}"))
                    .spawn(move || reactor.run())
                    .expect("spawning an event loop thread")
            })
            .collect();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("wrsn-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning a worker thread");
            handles.push(handle);
        }
        let gossip = shared.cluster.as_ref().map(|_| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("wrsn-serve-gossip".to_string())
                .spawn(move || gossip_loop(&shared))
                .expect("spawning the gossip thread")
        });
        Ok(ServerHandle {
            addr,
            shared,
            reactors,
            workers: handles,
            gossip,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cumulative metrics (shared with the worker threads).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Stops accepting, drains queued and in-flight requests, joins
    /// every thread (event loops, workers, job threads), and flushes
    /// the shared result store.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the final store flush fails (the
    /// threads are already joined by then).
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        for mailbox in &self.shared.reactors {
            mailbox.waker.wake();
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
        // The loops close the queue on their way out; repeat here in
        // case they died early, so the workers still unblock.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
        self.shared.jobs.join_all();
        if let Some(store) = &self.shared.api.store {
            store.sync()?;
        }
        Ok(())
    }

    /// Serves until SIGINT/SIGTERM (or [`signal::request_shutdown`]),
    /// then shuts down gracefully. Consumes the handle.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerHandle::shutdown`]'s store-flush failure.
    pub fn run_until_signal(self) -> Result<(), ServeError> {
        signal::install_handlers();
        while !signal::shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{request, ClientResponse};

    fn start(workers: usize, queue_depth: usize) -> ServerHandle {
        start_with(ServerConfig {
            workers,
            queue_depth,
            ..ServerConfig::default()
        })
    }

    fn start_with(mut config: ServerConfig) -> ServerHandle {
        config.addr = "127.0.0.1:0".to_string();
        Server::start(&config, ApiContext::new()).unwrap()
    }

    fn get(addr: SocketAddr, path: &str) -> ClientResponse {
        request(&addr.to_string(), "GET", path, None).unwrap()
    }

    #[test]
    fn healthz_round_trips() {
        let server = start(2, 8);
        let resp = get(server.addr(), "/healthz");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("ok"));
        server.shutdown().unwrap();
    }

    #[test]
    fn unknown_paths_and_methods_get_404_405() {
        let server = start(2, 8);
        let addr = server.addr();
        assert_eq!(get(addr, "/nope").status, 404);
        assert_eq!(get(addr, "/v1/solve").status, 405);
        let resp = request(&addr.to_string(), "POST", "/healthz", Some("{}")).unwrap();
        assert_eq!(resp.status, 405);
        server.shutdown().unwrap();
    }

    #[test]
    fn malformed_json_is_a_400() {
        let server = start(2, 8);
        let resp = request(
            &server.addr().to_string(),
            "POST",
            "/v1/solve",
            Some("{not json"),
        )
        .unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("error"));
        server.shutdown().unwrap();
    }

    #[test]
    fn statusz_counts_requests() {
        let server = start(2, 8);
        let addr = server.addr();
        let _ = get(addr, "/healthz");
        let resp = get(addr, "/statusz");
        assert_eq!(resp.status, 200);
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        let healthz = v
            .get("endpoints")
            .and_then(|e| e.get("/healthz"))
            .expect("healthz counted");
        assert_eq!(
            healthz.get("requests").and_then(serde::Value::as_u64),
            Some(1)
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_drains_and_joins() {
        let server = start(1, 4);
        let addr = server.addr();
        let _ = get(addr, "/healthz");
        server.shutdown().unwrap();
        // The socket no longer accepts once shut down.
        assert!(request(&addr.to_string(), "GET", "/healthz", None).is_err());
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        use std::io::{Read as _, Write as _};
        let server = start_with(ServerConfig {
            workers: 1,
            keep_alive: true,
            keep_alive_max_requests: 8,
            ..ServerConfig::default()
        });
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut read_one = |expect_keep: bool| {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            // Responses are Content-Length framed; read the head then
            // the exact body.
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                assert_eq!(stream.read(&mut byte).unwrap(), 1, "server closed early");
                head.push(byte[0]);
            }
            let head = String::from_utf8(head).unwrap();
            let wanted = if expect_keep { "keep-alive" } else { "close" };
            assert!(
                head.to_ascii_lowercase()
                    .contains(&format!("connection: {wanted}")),
                "{head}"
            );
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let mut body = vec![0u8; length];
            stream.read_exact(&mut body).unwrap();
        };
        for _ in 0..7 {
            read_one(true);
        }
        // The 8th request exhausts the per-connection cap.
        read_one(false);
        assert!(
            server
                .metrics()
                .keepalive_reuses
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 7
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn client_connection_close_is_honored_under_keep_alive() {
        let server = start_with(ServerConfig {
            workers: 1,
            keep_alive: true,
            ..ServerConfig::default()
        });
        // The plain client sends `Connection: close` and reads to EOF;
        // if the server held the socket open this would hang until the
        // read timeout instead of completing instantly.
        let resp = get(server.addr(), "/healthz");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("close"));
        server.shutdown().unwrap();
    }

    #[test]
    fn slow_handlers_answer_504_within_the_deadline() {
        let server = start_with(ServerConfig {
            workers: 1,
            // Any real solve takes longer than a nanosecond.
            request_timeout: Some(Duration::from_nanos(1)),
            ..ServerConfig::default()
        });
        let resp = request(&server.addr().to_string(), "POST", "/v1/solve", Some("{}")).unwrap();
        assert_eq!(resp.status, 504);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.body.contains("deadline"));
        assert!(
            server
                .metrics()
                .timeouts
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn certain_chaos_faults_api_paths_but_not_probes() {
        let server = start_with(ServerConfig {
            workers: 2,
            chaos: Some(ChaosPolicy::seeded(1).faults(1.0)),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        assert_eq!(get(addr, "/healthz").status, 200, "probes are exempt");
        assert_eq!(get(addr, "/statusz").status, 200);
        let resp = request(&addr.to_string(), "GET", "/v1/solvers", None).unwrap();
        assert_eq!(resp.status, 500);
        assert_eq!(resp.header("retry-after"), None, "a 500 names no pause");
        assert!(
            server
                .metrics()
                .chaos_faults
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn out_of_range_chaos_policy_is_a_config_error() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            chaos: Some(ChaosPolicy::seeded(0).faults(1.5)),
            ..ServerConfig::default()
        };
        match Server::start(&config, ApiContext::new()) {
            Err(err) => assert!(matches!(err, ServeError::Config(_)), "{err}"),
            Ok(_) => panic!("out-of-range chaos probability was accepted"),
        }
    }

    #[test]
    fn pipelined_requests_answer_in_order_on_one_connection() {
        use std::io::{Read as _, Write as _};
        let server = start_with(ServerConfig {
            workers: 4,
            keep_alive: true,
            keep_alive_max_requests: 16,
            ..ServerConfig::default()
        });
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Write three requests back-to-back before reading anything;
        // the last one closes the connection.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\n\
                  GET /nope HTTP/1.1\r\n\r\n\
                  GET /statusz HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut wire = Vec::new();
        stream.read_to_end(&mut wire).unwrap();
        let text = String::from_utf8_lossy(&wire);
        let statuses: Vec<&str> = text
            .split("HTTP/1.1 ")
            .skip(1)
            .map(|chunk| &chunk[..3])
            .collect();
        assert_eq!(statuses, ["200", "404", "200"], "{text}");
        assert!(
            text.rfind("Connection: close").unwrap() > text.rfind("HTTP/1.1 200").unwrap(),
            "final response closes: {text}"
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn max_conns_overflow_is_rejected_with_503() {
        let server = start_with(ServerConfig {
            workers: 1,
            keep_alive: true,
            max_conns: 1,
            ..ServerConfig::default()
        });
        use std::io::Read as _;
        // Occupy the single slot with an idle keep-alive connection.
        let _held = std::net::TcpStream::connect(server.addr()).unwrap();
        // Give the reactor a beat to register it.
        std::thread::sleep(Duration::from_millis(50));
        let mut second = std::net::TcpStream::connect(server.addr()).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut wire = Vec::new();
        second.read_to_end(&mut wire).unwrap();
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("Retry-After: 1"), "{text}");
        assert!(
            server
                .metrics()
                .rejected
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        server.shutdown().unwrap();
    }

    fn start_loops(reactors: usize, config: ServerConfig) -> ServerHandle {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..config
        };
        Server::start_with_reactors(&config, ApiContext::new(), reactors).unwrap()
    }

    /// `/statusz` `conns.per_reactor`, asked on `conn`.
    fn per_reactor(conn: &mut crate::client::Connection) -> Vec<u64> {
        let resp = conn.roundtrip("GET", "/statusz", None).unwrap();
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        let conns = v.get("conns").unwrap();
        let per: Vec<u64> = conns
            .get("per_reactor")
            .and_then(serde::Value::as_array)
            .unwrap()
            .iter()
            .filter_map(serde::Value::as_u64)
            .collect();
        let open = conns.get("open").and_then(serde::Value::as_u64);
        assert_eq!(Some(per.iter().sum::<u64>()), open, "{}", resp.body);
        per
    }

    #[test]
    fn completions_return_to_the_loop_that_owns_the_connection() {
        use crate::client::Connection;
        for reactors in 2..=4 {
            let server = start_loops(
                reactors,
                ServerConfig {
                    workers: 2,
                    keep_alive: true,
                    ..ServerConfig::default()
                },
            );
            let addr = server.addr().to_string();
            let mut conns: Vec<Connection> = (0..2 * reactors + 1)
                .map(|_| Connection::connect(&addr).unwrap())
                .collect();
            // Each connection pipelines a worker request, an inline
            // probe and a solve naming its own seed; a completion posted
            // to the wrong loop would land on another socket or nowhere.
            for (i, conn) in conns.iter_mut().enumerate() {
                let body =
                    format!(r#"{{"instance":{{"posts":5,"nodes":12,"field":150.0}},"seed":{i}}}"#);
                conn.send("GET", "/v1/solvers", None).unwrap();
                conn.send("GET", "/healthz", None).unwrap();
                conn.send("POST", "/v1/solve", Some(&body)).unwrap();
            }
            for (i, conn) in conns.iter_mut().enumerate() {
                let solvers = conn.recv().unwrap();
                assert_eq!(solvers.status, 200);
                assert!(solvers.body.contains("irfh"), "{}", solvers.body);
                assert_eq!(conn.recv().unwrap().body, "{\"status\":\"ok\"}");
                let solve = conn.recv().unwrap();
                assert_eq!(solve.status, 200, "{}", solve.body);
                assert!(
                    solve.body.contains(&format!("\"seed\":{i},")),
                    "connection {i}: {}",
                    solve.body
                );
            }
            let per = per_reactor(&mut conns[0]);
            assert_eq!(per.len(), reactors);
            let (min, max) = (per.iter().min().unwrap(), per.iter().max().unwrap());
            assert!(max - min <= 1, "{per:?}");
            drop(conns);
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn max_conns_counts_the_connections_of_every_loop() {
        use std::io::Read as _;
        let server = start_loops(
            3,
            ServerConfig {
                workers: 1,
                keep_alive: true,
                max_conns: 4,
                ..ServerConfig::default()
            },
        );
        let addr = server.addr().to_string();
        let mut held: Vec<_> = (0..4)
            .map(|_| {
                let mut conn = crate::client::Connection::connect(&addr).unwrap();
                assert_eq!(conn.roundtrip("GET", "/healthz", None).unwrap().status, 200);
                conn
            })
            .collect();
        // Handed out in turn: loops 0, 1, 2, then 0 again.
        assert_eq!(per_reactor(&mut held[0]), [2, 1, 1]);
        let mut fifth = std::net::TcpStream::connect(server.addr()).unwrap();
        fifth
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut wire = Vec::new();
        fifth.read_to_end(&mut wire).unwrap();
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        // A closed connection frees its loop's share for the next one.
        drop(held.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while per_reactor(&mut held[0]).iter().sum::<u64>() > 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "the close was never seen"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut next = crate::client::Connection::connect(&addr).unwrap();
        assert_eq!(next.roundtrip("GET", "/healthz", None).unwrap().status, 200);
        server.shutdown().unwrap();
    }

    #[test]
    fn every_loop_closes_its_own_idle_keep_alive_connections() {
        use std::io::{Read as _, Write as _};
        let server = start_loops(
            3,
            ServerConfig {
                workers: 1,
                keep_alive: true,
                keep_alive_idle: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        );
        // One connection per loop, answered once and then left idle.
        // Nothing else reaches the server, so only each loop's own
        // clock can close them.
        let held: Vec<std::net::TcpStream> = (0..3)
            .map(|_| {
                let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
                let mut wire = Vec::new();
                let mut chunk = [0u8; 1024];
                while !wire.ends_with(b"{\"status\":\"ok\"}") {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "closed before the answer");
                    wire.extend_from_slice(&chunk[..n]);
                }
                stream
            })
            .collect();
        for (i, mut stream) in held.into_iter().enumerate() {
            let mut chunk = [0u8; 64];
            let read = stream.read(&mut chunk);
            assert!(matches!(read, Ok(0)), "connection {i} still open: {read:?}");
        }
        server.shutdown().unwrap();
    }

    fn cached_context(dir: &std::path::Path) -> ApiContext {
        let mut api = ApiContext::new();
        api.store = Some(std::sync::Arc::new(
            wrsn_engine::ResultStore::open(dir).unwrap(),
        ));
        api
    }

    fn poll_job_until_done(addr: &str, id: u64) -> serde::Value {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            assert!(std::time::Instant::now() < deadline, "job never finished");
            let resp = request(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
            match v.get("state").and_then(serde::Value::as_str) {
                Some("done") => break v,
                Some("running") => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("unexpected job state {other:?}: {}", resp.body),
            }
        }
    }

    #[test]
    fn finished_jobs_survive_a_server_restart() {
        let dir = std::env::temp_dir().join("wrsn-serve-job-restart");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        };
        let spec = "{\"instance\": {\"posts\": 5, \"nodes\": 12, \"field\": 150.0}, \"seeds\": 3}";
        let server = Server::start(&config, cached_context(&dir)).unwrap();
        let addr = server.addr().to_string();
        let resp = request(&addr, "POST", "/v1/jobs", Some(spec)).unwrap();
        assert_eq!(resp.status, 202, "{}", resp.body);
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        let id = v.get("id").and_then(serde::Value::as_u64).unwrap();
        let before = poll_job_until_done(&addr, id);
        server.shutdown().unwrap();
        // A fresh server over the same store remembers the finished job
        // from its journal, byte-identical report included.
        let server = Server::start(&config, cached_context(&dir)).unwrap();
        let addr = server.addr().to_string();
        let after = poll_job_until_done(&addr, id);
        assert_eq!(
            serde_json::to_string(before.get("report").unwrap()).unwrap(),
            serde_json::to_string(after.get("report").unwrap()).unwrap(),
            "restored report must be byte-identical"
        );
        assert_eq!(
            after.get("done").and_then(serde::Value::as_u64),
            Some(3),
            "restored terminal jobs report full progress"
        );
        // New submissions continue past the restored id.
        let resp = request(&addr, "POST", "/v1/jobs", Some(spec)).unwrap();
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        assert!(v.get("id").and_then(serde::Value::as_u64).unwrap() > id);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn interrupted_jobs_resume_on_restart() {
        let dir = std::env::temp_dir().join("wrsn-serve-job-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = dir.join("jobs");
        std::fs::create_dir_all(&jobs).unwrap();
        // A journal a crashed server would leave behind: submitted (and
        // acknowledged with a 202) but still running, no report yet.
        std::fs::write(
            jobs.join("job-00000007.json"),
            "{\"id\":7,\"state\":\"running\",\"total\":3,\"request\":             {\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0},\"seeds\":3}}\n",
        )
        .unwrap();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::start(&config, cached_context(&dir)).unwrap();
        let addr = server.addr().to_string();
        let v = poll_job_until_done(&addr, 7);
        assert!(v.get("report").is_some(), "resumed job produced a report");
        // The resumption is visible in the statusz io section.
        let resp = request(&addr, "GET", "/statusz", None).unwrap();
        let status: serde::Value = serde_json::from_str(&resp.body).unwrap();
        let io = status.get("io").expect("io section with a store");
        assert_eq!(
            io.get("jobs_resumed").and_then(serde::Value::as_u64),
            Some(1)
        );
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn job_round_trip_submits_polls_and_streams_events() {
        let server = start(2, 8);
        let addr = server.addr().to_string();
        let spec = "{\"instance\": {\"posts\": 5, \"nodes\": 12, \"field\": 150.0}, \"seeds\": 3}";
        let resp = request(&addr, "POST", "/v1/jobs", Some(spec)).unwrap();
        assert_eq!(resp.status, 202, "{}", resp.body);
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        let id = v.get("id").and_then(serde::Value::as_u64).unwrap();
        assert_eq!(v.get("total").and_then(serde::Value::as_u64), Some(3));
        // Poll until done.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let report = loop {
            assert!(std::time::Instant::now() < deadline, "job never finished");
            let resp = request(&addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
            assert_eq!(resp.status, 200);
            let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
            match v.get("state").and_then(serde::Value::as_str) {
                Some("done") => break resp.body,
                Some("running") => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("unexpected job state {other:?}: {}", resp.body),
            }
        };
        assert!(report.contains("\"report\""));
        // The event stream saw every seed, cursored from zero.
        let resp = request(&addr, "GET", &format!("/v1/jobs/{id}/events?since=0"), None).unwrap();
        assert_eq!(resp.status, 200);
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        let events = v.get("events").and_then(serde::Value::as_array).unwrap();
        assert_eq!(events.len(), 3, "{}", resp.body);
        assert_eq!(v.get("next").and_then(serde::Value::as_u64), Some(3));
        // Cursoring past the end returns an empty page.
        let resp = request(&addr, "GET", &format!("/v1/jobs/{id}/events?since=3"), None).unwrap();
        let v: serde::Value = serde_json::from_str(&resp.body).unwrap();
        let events = v.get("events").and_then(serde::Value::as_array).unwrap();
        assert!(events.is_empty());
        // Unknown ids and malformed ids are client errors.
        assert_eq!(
            request(&addr, "GET", "/v1/jobs/9999", None).unwrap().status,
            404
        );
        assert_eq!(
            request(&addr, "GET", "/v1/jobs/abc", None).unwrap().status,
            400
        );
        server.shutdown().unwrap();
    }
}
