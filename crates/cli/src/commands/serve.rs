//! `wrsn serve`: the HTTP serving layer over the solver registry.

use super::{open_cache, CliError};
use crate::args::Args;
use std::time::Duration;
use wrsn_engine::DurabilityPolicy;
use wrsn_serve::api::ApiContext;
use wrsn_serve::tenant::check_rate;
use wrsn_serve::{ChaosPolicy, Server, ServerConfig};

pub(super) const HELP: &str = "\
wrsn serve — a std-only HTTP/1.1 JSON service over the solver registry

Endpoints: POST /v1/solve, /v1/simulate, /v1/sweep, /v1/jobs; GET
/v1/solvers, /healthz, /statusz. POST bodies are JSON objects:
    /v1/solve     {\"instance\": {\"posts\", \"nodes\", \"field\", \"levels\",
                  \"eta\", \"cap\", \"spec\", \"scenario\"}, \"solver\", \"seed\",
                  \"include_solution\"}
    /v1/sweep, /v1/jobs  {\"instance\", \"solver\", \"seed_start\", \"seeds\"}
    /v1/simulate  \"instance\", \"solver\", \"seed\" and the settings of
                  `wrsn simulate --help`, under their JSON keys
An unknown or repeated key is answered 400 naming it.

Runs until SIGINT/SIGTERM, then drains in-flight requests and flushes
the result store. A second SIGINT/SIGTERM while the drain is in flight
forces an immediate exit (status 128+signal); segments, checkpoints,
and job journals are crash-consistent, so the next start recovers
every committed result and resumes interrupted jobs.

OPTIONS:
    --addr A:P      bind address                    [default: 127.0.0.1:7421]
    --workers N     request worker threads          [default: 4]
    --queue-depth Q admission queue capacity; overflow is answered
                    with 503 + Retry-After          [default: 64]
    --cache [DIR]   share the result store at DIR across requests
                    [default dir: bench_results/cache]
    --durability D  fsync discipline for the store and job checkpoints
                    (requires --cache): 'flush' leaves durability to the
                    OS page cache; 'fsync' syncs on segment seal, store
                    flush, and checkpoint batch, so a crash never loses
                    an acknowledged result       [default: flush]
    --request-timeout-ms MS  per-request deadline; slow handlers are
                    answered with 504 + Retry-After  [default: off]
    --keep-alive    serve multiple requests per connection (HTTP/1.1
                    keep-alive with an idle timeout)
    --keep-alive-max-requests N  requests served per connection before
                    the server closes it             [default: 32]
    --max-conns N   most concurrent connections; accepts beyond it are
                    answered 503 + Retry-After       [default: 4096]
    --max-jobs N    most concurrent async jobs (POST /v1/jobs); excess
                    submissions get 503 + Retry-After [default: 8]

Multi-tenant mode (off by default; without --tenants the server runs
single-user, no auth, no limits):
    --tenants FILE  JSONL tenant config, one object per line:
                    {\"name\": .., \"key\": .., \"weight\": .., \"rps\": ..,
                     \"burst\": .., \"queue_depth\": .., \"isolated\": ..,
                     \"max_jobs\": ..}; a keyless entry configures the
                    anonymous tenant. Requests authenticate with
                    Authorization: Bearer KEY; over-rate requests get
                    429 + Retry-After, and admission is weighted-fair
                    (deficit round robin by weight)
    --default-rps F    rate limit for tenants without one [default: 0=off]
    --default-burst N  token-bucket burst for tenants without one
                       [default: 16]

Chaos injection (testing the client's resilience; /v1 paths only):
    --chaos P            probability of an injected 500    [default: 0]
    --chaos-truncate P   probability the response body is cut short
    --chaos-latency P    probability of an added delay
    --chaos-latency-ms MS  delay per latency hit           [default: 25]
    --chaos-seed K       seed for the chaos RNG            [default: 0]

Cluster mode (requires --cache; without --cluster-peers the server is
byte-for-byte the single-node service):
    --cluster-peers LIST  comma-separated id=addr entries naming every
                    node of the fleet (a bare addr doubles as its id);
                    all nodes must agree on the list
    --node-id ID    this node's entry in the peer list        [required
                    with --cluster-peers]
    --gossip-interval-ms MS  delay between anti-entropy ticks
                                                      [default: 1000]
    --cluster-seed K    shared seed for the consistent-hash ring; all
                    nodes must agree                      [default: 0]
    --cluster-vnodes V  virtual nodes per peer on the ring
                                                      [default: 128]";

/// Checks a probability/fraction flag at parse time so the error names
/// the flag rather than deferring to `FaultPlan::validate`.
fn unit_interval(flag: &'static str, value: f64) -> Result<f64, CliError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(CliError(format!("{flag} {value} out of range [0, 1]")))
    }
}

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let defaults = ServerConfig::default();
    let addr: String = args.get_or("addr", "an address:port", defaults.addr.clone())?;
    let workers: usize = args.get_or("workers", "a worker count", defaults.workers)?;
    let queue_depth: usize =
        args.get_or("queue-depth", "a queue capacity", defaults.queue_depth)?;
    let cache_arg = args.flag_or_value("cache");
    let durability_arg: Option<String> = args.opt("durability", "flush or fsync")?;
    let timeout_ms: Option<u64> = args.opt("request-timeout-ms", "milliseconds")?;
    let keep_alive = args.flag("keep-alive");
    let keep_alive_max_requests: usize = args.get_or(
        "keep-alive-max-requests",
        "a request cap",
        defaults.keep_alive_max_requests,
    )?;
    let max_conns: usize = args.get_or("max-conns", "a connection cap", defaults.max_conns)?;
    let max_jobs: usize = args.get_or("max-jobs", "a job cap", defaults.max_jobs)?;
    let tenants_file: Option<String> = args.opt("tenants", "a tenants file")?;
    let default_rps: f64 =
        args.get_or("default-rps", "requests per second", defaults.default_rps)?;
    let default_burst: u64 =
        args.get_or("default-burst", "a burst size", defaults.default_burst)?;
    let chaos_fault: Option<f64> = args.opt("chaos", "a probability")?;
    let chaos_truncate: Option<f64> = args.opt("chaos-truncate", "a probability")?;
    let chaos_latency: Option<f64> = args.opt("chaos-latency", "a probability")?;
    let chaos_latency_ms: u64 = args.get_or("chaos-latency-ms", "milliseconds", 25)?;
    let chaos_seed: u64 = args.get_or("chaos-seed", "an integer seed", 0)?;
    let cluster_peers: Option<String> = args.opt("cluster-peers", "a peer list")?;
    let node_id: Option<String> = args.opt("node-id", "a node id")?;
    let gossip_interval_ms: u64 = args.get_or("gossip-interval-ms", "milliseconds", 1000)?;
    let cluster_seed: u64 = args.get_or("cluster-seed", "an integer seed", 0)?;
    let cluster_vnodes: usize = args.get_or(
        "cluster-vnodes",
        "a virtual-node count",
        wrsn_cluster::DEFAULT_VNODES,
    )?;
    args.finish()?;
    let zero = [
        ("--workers", workers == 0),
        ("--queue-depth", queue_depth == 0),
        (
            "--max-conns and --max-jobs",
            max_conns == 0 || max_jobs == 0,
        ),
        ("--keep-alive-max-requests", keep_alive_max_requests == 0),
        ("--request-timeout-ms", timeout_ms == Some(0)),
    ];
    if let Some((flag, _)) = zero.iter().find(|(_, zero)| *zero) {
        return Err(CliError(format!("{flag} must be at least 1")));
    }
    let [chaos_fault, chaos_truncate, chaos_latency] = [
        ("--chaos", chaos_fault),
        ("--chaos-truncate", chaos_truncate),
        ("--chaos-latency", chaos_latency),
    ]
    .map(|(flag, p)| p.map(|p| unit_interval(flag, p)).transpose());
    let (chaos_fault, chaos_truncate, chaos_latency) =
        (chaos_fault?, chaos_truncate?, chaos_latency?);
    let chaos = (chaos_fault.is_some() || chaos_truncate.is_some() || chaos_latency.is_some())
        .then(|| {
            let mut policy = ChaosPolicy::seeded(chaos_seed);
            if let Some(p) = chaos_fault {
                policy = policy.faults(p);
            }
            if let Some(p) = chaos_truncate {
                policy = policy.truncation(p);
            }
            if let Some(p) = chaos_latency {
                policy = policy.latency(p, Duration::from_millis(chaos_latency_ms));
            }
            policy
        });
    check_rate(default_rps).map_err(|why| CliError(format!("--default-rps {why}")))?;
    if default_burst == 0 {
        return Err(CliError("--default-burst must be at least 1".into()));
    }
    let tenants = match &tenants_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("reading {path}: {e}")))?;
            let specs = wrsn_serve::tenant::parse_tenants(&text)
                .map_err(|why| CliError(format!("{path}: {why}")))?;
            Some(specs)
        }
        None => None,
    };
    let tenants_note = tenants
        .as_ref()
        .map_or_else(String::new, |specs| format!(", {} tenant(s)", specs.len()));
    let cluster = match &cluster_peers {
        Some(spec) => {
            if cache_arg.is_none() {
                return Err(CliError(
                    "--cluster-peers requires --cache (the fabric shares the result store)".into(),
                ));
            }
            let peers = wrsn_cluster::parse_peers(spec)
                .map_err(|why| CliError(format!("--cluster-peers: {why}")))?;
            let node_id =
                node_id.ok_or_else(|| CliError("--cluster-peers requires --node-id".into()))?;
            if gossip_interval_ms == 0 {
                return Err(CliError("--gossip-interval-ms must be at least 1".into()));
            }
            if cluster_vnodes == 0 {
                return Err(CliError("--cluster-vnodes must be at least 1".into()));
            }
            let config = wrsn_cluster::ClusterConfig {
                node_id,
                peers,
                seed: cluster_seed,
                vnodes: cluster_vnodes,
                gossip_interval: Duration::from_millis(gossip_interval_ms),
            };
            // Validate membership now so a typoed --node-id fails at
            // startup, not on the first forwarded request.
            config
                .ring()
                .map_err(|why| CliError(format!("cluster config: {why}")))?;
            Some(config)
        }
        None => {
            if node_id.is_some() {
                return Err(CliError("--node-id requires --cluster-peers".into()));
            }
            None
        }
    };
    let cluster_note = cluster.as_ref().map_or_else(String::new, |c| {
        let (id, peers, vnodes) = (&c.node_id, c.peers.len(), c.vnodes);
        format!(", cluster node {id} of {peers} ({vnodes} vnodes, gossip {gossip_interval_ms}ms)")
    });
    let durability = match &durability_arg {
        Some(text) => {
            if cache_arg.is_none() {
                return Err(CliError(
                    "--durability requires --cache (there is no disk without a store)".into(),
                ));
            }
            DurabilityPolicy::parse(text).ok_or_else(|| {
                CliError(format!("--durability expects flush or fsync, got {text:?}"))
            })?
        }
        None => DurabilityPolicy::default(),
    };
    let store = cache_arg
        .map(|dir| open_cache(dir, durability))
        .transpose()?;
    let cache_note = store.as_ref().map_or_else(String::new, |store| {
        let (dir, entries) = (store.dir().display(), store.len());
        format!(
            ", cache {dir} ({entries} entries, {})",
            store.durability().as_str()
        )
    });
    let chaos_note = chaos.as_ref().map_or_else(String::new, |p| {
        let (fault, truncate, latency) = (p.fault_prob, p.truncate_prob, p.latency_prob);
        format!(
            ", CHAOS fault {fault:.2}/truncate {truncate:.2}/latency {latency:.2} seed {}",
            p.seed
        )
    });
    let mut api = ApiContext::new();
    api.store = store;
    let config = ServerConfig {
        addr,
        workers,
        queue_depth,
        request_timeout: timeout_ms.map(Duration::from_millis),
        keep_alive,
        keep_alive_max_requests,
        max_conns,
        max_jobs,
        chaos,
        tenants,
        default_rps,
        default_burst,
        cluster,
        ..defaults
    };
    let handle = Server::start(&config, api).map_err(|e| CliError(e.to_string()))?;
    let bound = handle.addr();
    // Announce readiness on stderr immediately — stdout is the final
    // report, printed only after shutdown.
    eprintln!(
        "wrsn-serve listening on {bound} ({workers} worker(s), queue {queue_depth}, \
         conns {max_conns}, jobs {max_jobs}{tenants_note}{cache_note}{chaos_note}{cluster_note})"
    );
    handle
        .run_until_signal()
        .map_err(|e| CliError(e.to_string()))?;
    Ok(format!("wrsn-serve on {bound}: shut down cleanly"))
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::run_str;

    #[test]
    fn serve_validates_chaos_and_timeout_flags() {
        assert!(run_str("serve --chaos 1.5")
            .unwrap_err()
            .to_string()
            .contains("--chaos 1.5 out of range [0, 1]"));
        assert!(run_str("serve --chaos-truncate -1")
            .unwrap_err()
            .to_string()
            .contains("--chaos-truncate"));
        assert!(run_str("serve --request-timeout-ms 0")
            .unwrap_err()
            .to_string()
            .contains("--request-timeout-ms"));
    }

    #[test]
    fn serve_documents_and_validates_durability() {
        let help = run_str("serve --help").unwrap();
        assert!(help.contains("--durability"));
        assert!(
            help.contains("second SIGINT/SIGTERM"),
            "signal escalation is documented"
        );
        assert!(run_str("serve --durability fsync")
            .unwrap_err()
            .to_string()
            .contains("requires --cache"));
        assert!(run_str("serve --cache /tmp/x --durability nonsense")
            .unwrap_err()
            .to_string()
            .contains("flush or fsync"));
    }
}
