//! The server: configuration, startup, shared state, and graceful
//! shutdown around the readiness reactor.
//!
//! Threading model: one reactor thread (`wrsn-serve-reactor`) owns the
//! nonblocking listener and every connection, multiplexed through an
//! epoll set (see [`crate::reactor`]); connections are per-socket
//! state machines (read → parse → dispatch → buffered write,
//! [`crate::conn`]) with full HTTP/1.1 pipelining. A fixed pool of CPU
//! worker threads pops parsed requests off a [`BoundedQueue`] — the
//! admission bound; overflow is answered `503` + `Retry-After` by the
//! reactor inline — routes each through [`ApiContext`]
//! ([`crate::dispatch`]), and hands the completion back through an
//! eventfd wakeup. The probes and a `/v1/solve` whose result the store
//! already holds never reach the pool: the reactor answers them itself. Long sweeps go through the bounded async job API
//! ([`crate::jobs`]) on their own threads instead of occupying a
//! worker for the whole run.
//!
//! A per-request deadline ([`ServerConfig::request_timeout`]) turns
//! slow handlers into `504`s instead of wedged workers, and an
//! optional [`ChaosPolicy`] makes the server misbehave
//! deterministically for resilience tests. Shutdown closes the
//! listener and the queue; workers drain the backlog, the reactor
//! flushes in-flight responses, every thread (including job threads)
//! joins, and the shared result store is flushed to disk.

use crate::api::ApiContext;
use crate::chaos::{ChaosPolicy, ChaosState};
use crate::cluster::{gossip_loop, ClusterState};
use crate::dispatch::{worker_loop, Completion, DispatchJob};
use crate::jobs::{self, Jobs};
use crate::metrics::Metrics;
use crate::reactor::Reactor;
use crate::signal;
use crate::sys;
use crate::tenant::{FairQueue, TenantDefaults, TenantSpec, TenantTable};
use crate::ServeError;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener};
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
    /// Most connections the reactor keeps open at once; accepts beyond
    /// it are answered `503` + `Retry-After` and closed.
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

/// State shared between the reactor, the worker pool, and job threads.
pub(crate) struct Shared {
    pub(crate) api: ApiContext,
    pub(crate) metrics: Metrics,
    pub(crate) tenants: TenantTable,
    pub(crate) queue: FairQueue<DispatchJob>,
    pub(crate) completions: Mutex<Vec<Completion>>,
    pub(crate) waker: sys::Waker,
    pub(crate) busy: AtomicUsize,
    pub(crate) workers: usize,
    pub(crate) stop: AtomicBool,
    pub(crate) conns_open: AtomicUsize,
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
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the reactor and worker pool, and returns the
    /// handle. The listener is ready (connections are accepted) before
    /// this returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound or the
    /// epoll/eventfd setup fails; [`ServeError::Config`] when the
    /// chaos policy is out of range.
    pub fn start(config: &ServerConfig, api: ApiContext) -> Result<ServerHandle, ServeError> {
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
        let epoll = sys::Epoll::new().map_err(|e| bind_err(format!("epoll_create1: {e}")))?;
        let waker = sys::Waker::new().map_err(|e| bind_err(format!("eventfd: {e}")))?;
        let workers = config.workers.max(1);
        // With a store attached, jobs journal their specs and reports
        // under it so they survive a crash or restart (see crate::jobs).
        let jobs_dir = api.store.as_ref().and_then(|store| {
            let dir = store.dir().join("jobs");
            match std::fs::create_dir_all(&dir) {
                Ok(()) => Some(dir),
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
            completions: Mutex::new(Vec::new()),
            waker,
            busy: AtomicUsize::new(0),
            workers,
            stop: AtomicBool::new(false),
            conns_open: AtomicUsize::new(0),
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
            jobs: Jobs::new(config.max_jobs, jobs_dir),
            cluster,
        });
        // Reload finished jobs and respawn interrupted ones before the
        // listener opens, so the first poll after a restart already
        // sees them.
        jobs::restore(&shared);

        let reactor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("wrsn-serve-reactor".to_string())
                .spawn(move || Reactor::new(listener, epoll, shared).run())
                .expect("spawning the reactor thread")
        };
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
            reactor: Some(reactor),
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
    /// every thread (reactor, workers, job threads), and flushes the
    /// shared result store.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the final store flush fails (the
    /// threads are already joined by then).
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor closes the queue on its way out; repeat here in
        // case it died early, so the workers still unblock.
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
        assert_eq!(resp.header("retry-after"), Some("1"));
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
