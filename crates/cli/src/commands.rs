//! The CLI subcommands, each returning its report as a string so the
//! whole surface is unit-testable without spawning processes.

use crate::args::{Args, ArgsError};
use crate::render;
use serde::{Deserialize as _, Serialize};
use std::error::Error;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use wrsn_charging::FieldExperiment;
use wrsn_core::reduction::reduce;
use wrsn_core::{BranchAndBound, Instance, InstanceSpec, ScenarioSpec, Solver};
use wrsn_engine::{
    cache_tag, merge_checkpoints, DurabilityPolicy, EngineError, Experiment, InstanceParams,
    InstanceSource, ResultStore, RetryPolicy, RunReport, SeedEvent, SolverRegistry, StoreOptions,
    SweepCheckpoint, SweepRunner, Table,
};
use wrsn_sat::{CnfFormula, DpllSolver};
use wrsn_serve::api::{ApiContext, SimulateRequest};
use wrsn_serve::{client, ChaosPolicy, Server, ServerConfig};
use wrsn_sim::{ChargerPolicy, PatrolTour};

/// Top-level usage text.
pub const USAGE: &str = "\
wrsn — wireless-rechargeable sensor network deployment & routing (ICDCS 2010)

USAGE:
    wrsn <command> [options]

COMMANDS:
    solve      co-design deployment and routing for a random instance
    sweep      run a solver over many seeds in parallel and report statistics
    merge      fold sharded sweep logs back into one report
    simulate   solve, then run the network in the discrete-event simulator
    fieldexp   replay the Section II RF charging field experiment
    reduce     reduce a 3-CNF DIMACS formula to a deployment instance (Section IV)
    serve      run the HTTP serving layer over the solver registry
    loadgen    drive a running server and report throughput/latency
    cache      maintain the content-addressed result store (gc)
    cluster    inspect a serve-cluster fleet (status)
    help       show this message (or `wrsn <command> --help`)

Run `wrsn <command> --help` for per-command options.";

const SOLVE_HELP: &str = "\
wrsn solve — co-design deployment and routing

OPTIONS:
    --posts N       number of posts                      [default: 100]
    --nodes M       number of sensor nodes               [default: 400]
    --field S       square field side in meters          [default: 500]
    --seed K        RNG seed                             [default: 1]
    --levels k      number of 25 m power levels          [default: 3]
    --eta E         single-node charging efficiency      [default: 1.0]
    --cap C         max nodes per post                   [optional]
    --algo A        rfh | irfh | idb | bnb | exhaustive | uniform | lifetime
                    | sched-tour | sched-place | sched-bilevel
                                                         [default: irfh]
    --scenario J    charging-scenario JSON (ScenarioSpec) parameterizing
                    the sched-* solvers                  [optional]
    --draw          render the field map and routing tree as ASCII
    --save PATH     write the generated instance spec as JSON
    --load PATH     solve a saved instance spec instead of sampling
    --svg PATH      write the deployment + routing as an SVG figure
    --json          machine-readable output";

const SWEEP_HELP: &str = "\
wrsn sweep — run a solver over many random instances in parallel

Takes the instance options of `wrsn solve` (--posts, --nodes, --field,
--levels, --eta, --cap, --load, --scenario), plus:
    --algo A        solver name from the registry        [default: irfh]
    --seeds S       number of seeds to sweep             [default: 10]
    --seed-start K  first seed                           [default: 0]
    --threads T     worker threads (1 = sequential)      [default: all CPUs]
    --history       record per-iteration cost traces
    --json          machine-readable RunReport output

Fault tolerance:
    --checkpoint P  stream an incremental checkpoint to file P after
                    every completed seed (implies --progress)
    --resume        skip seeds P already records (needs --checkpoint)
    --max-retries N retry a failing seed up to N extra times [default: 0]
    --keep-going    record failed seeds in the report instead of aborting
    --halt-after K  stop after K newly processed seeds (deterministic
                    interruption for testing --resume)
    --no-timings    zero the wall-clock fields so repeated runs are
                    byte-identical (used by the resume equivalence check)
    --progress      print a per-seed progress line to stderr

Result store (content-addressed cache):
    --cache [DIR]   route the sweep through the result store at DIR
                    [default dir: bench_results/cache]; seeds already
                    stored skip the solve, fresh results are appended,
                    and the report gains a cache {hits,misses,appended}
                    block
    --shard K/N     run only shard K of N (1-based, round-robin over the
                    seed range); write its log with --checkpoint and fold
                    the shard logs back together with `wrsn merge`
    --compare A,B   sweep several solvers over the identical instance and
                    seed grid and print a paired comparison table
                    (incompatible with --checkpoint/--resume/--shard/
                    --halt-after)";

const MERGE_HELP: &str = "\
wrsn merge — fold sharded sweep logs back into one report

Shard logs are the checkpoint files written by `wrsn sweep --shard K/N
--checkpoint FILE`; merging the full shard set reproduces the report an
unsharded sweep would print (byte-identical under --no-timings).

OPTIONS:
    --logs A,B,...  comma-separated shard log paths            [required]
    --out PATH      also write the merged log as a checkpoint
    --json          machine-readable RunReport output";

const SIMULATE_HELP: &str = "\
wrsn simulate — solve, then run the network over time

All `wrsn solve` options, plus:
    --rounds R      reporting rounds to simulate         [default: 1000]
    --bits B        bits per report                      [default: 4000]
    --battery J     per-node battery capacity in joules  [default: 0.1]
    --policy P      threshold | tour | none              [default: threshold]
    --speed V       charger speed (m/s, tour policy), at most 1000
                                                         [default: 5.0]
    --chargers K    charger fleet size (tour policy), at most 1000
                                                         [default: 1]
    --power W       charger radiated power in watts (finite => refills take time)
    --timeline R    sample state of charge every R rounds and plot it
    --sched-tour    drive the tour policy along the sched-tour solver's
                    planned visit order (uses --scenario when given)
    --json          machine-readable output

The tour policy audits patrol feasibility at setup: posts whose battery
window is shorter than their charger's cycle are reported (and listed in
the JSON output as tour_infeasible_posts).

Failure injection (any of these enables the fault plan):
    --fault-seed K     seed for the probabilistic faults    [default: 0]
    --kill R:P,...     a node at post P dies at round R
    --outage P:A:B,... post P is offline for rounds A..B
    --charger-skip Q   probability a due refill is skipped
    --charger-delay Q  probability a patrol leg is delayed
    --delay-s S        extra seconds per delayed leg        [default: 5]
    --link-loss Q      per-hop probability a transmission is lost
                       (lost reports count against delivery ratio)
    --battery-fade F   per-charge-cycle capacity fade fraction
    --fade-floor F     fade floor as a fraction of nameplate [default: 0.2]
    --charger-down FROM:UNTIL[,...]
                       total charger breakdown over rounds FROM..UNTIL

The same spec is the body of POST /v1/simulate (see `wrsn serve
--help`), and --json prints the report it answers. Each flag is a key
with `-` written `_`, except --algo (solver), --battery (battery_j),
--bits (bits_per_report), --speed (speed_mps) and --power (power_w);
the instance flags go in an \"instance\" object (the --scenario JSON
as its \"scenario\", the --load file's spec as its \"spec\"); lists
are arrays, e.g. --kill 10:0,20:1 is \"kill\": [[10, 0], [20, 1]]; and
over HTTP \"seed\" defaults to 0.";

const SERVE_HELP: &str = "\
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

const LOADGEN_HELP: &str = "\
wrsn loadgen — drive a running `wrsn serve` and measure it

MODES (the first of these flags given picks the mode; a flag the mode
does not read is refused by name):
    --job           one async job; reads --addr, --body, --tenant, --json
    --addrs         one lane per node; reads --concurrency, --retries,
                    --tenant
    --tenants-file  one lane per keyed tenant; reads --addr,
                    --concurrency, --retries
    --connections   a keep-alive fleet; reads --addr, --pipeline, --tenant
    (none of them)  a closed loop, one connection per request; reads
                    --addr, --concurrency, --retries, --tenant
    Every mode but --job also reads --requests, --path, --method,
    --body, --bench-json and --json.

OPTIONS:
    --addr A:P      server address                  [default: 127.0.0.1:7421]
    --concurrency C client threads                  [default: 4]
    --requests N    total requests to send          [default: 200]
    --path P        endpoint to hit                 [default: /v1/solve]
    --method M      HTTP method                     [default: POST]
    --body JSON     request body                    [default: {}]
    --retries N     retry budget per request, with exponential backoff
                    and a circuit breaker (0 disables)  [default: 0]
    --connections C open C persistent keep-alive connections up front
                    and drive them concurrently (requires
                    `serve --keep-alive`)
    --pipeline P    requests written per batch on each keep-alive
                    connection                      [default: 1]
    --job           submit one async job (POST /v1/jobs) with --body as
                    the sweep spec, stream its events, and report the
                    round trip instead of load-testing
    --addrs A,B,... round-robin the workload across several cluster
                    nodes (each gets requests/N) and report one row per
                    node next to the aggregate
    --tenant KEY    authenticate every request with
                    Authorization: Bearer KEY
    --tenants-file FILE  adversarial mode: drive every keyed tenant in
                    the JSONL config concurrently (each gets the full
                    --concurrency/--requests workload under its own
                    key) and report one row per tenant
    --bench-json F  also write the machine-readable report to file F
    --json          machine-readable output";

const CACHE_HELP: &str = "\
wrsn cache — maintain the content-addressed result store

SUBCOMMANDS:
    gc              drop entries unreachable from the current engine
                    version/fingerprint scheme, optionally enforce a
                    size budget (oldest entries evicted first), and
                    compact the store into a single segment
    verify          read-only health check: parse every live segment,
                    flag interior corruption and torn tails, count
                    quarantined files. Exits nonzero when any live
                    segment is corrupt (torn tails are repairable and
                    stay clean)

OPTIONS (gc):
    --cache [DIR]   store directory   [default dir: bench_results/cache]
    --max-bytes N   on-disk size budget after the unreachable pass
    --json          machine-readable GcReport output

OPTIONS (verify):
    --cache [DIR]   store directory   [default dir: bench_results/cache]
    --json          machine-readable VerifyReport output";

const CLUSTER_HELP: &str = "\
wrsn cluster — inspect a serve-cluster fleet

SUBCOMMANDS:
    status          fetch /statusz from every node and show the fleet:
                    per-node key share, forwarded hits/misses, gossip
                    progress, cache entries, and the keys digest (equal
                    digests mean converged caches)

OPTIONS (status):
    --addrs A,B,... comma-separated node addresses           [required]
    --json          machine-readable output";

const FIELDEXP_HELP: &str = "\
wrsn fieldexp — replay the Section II field experiment

OPTIONS:
    --seed K        RNG seed for measurement noise       [default: 42]
    --trials T      trials per grid cell                 [default: 40]
    --json          machine-readable output";

const REDUCE_HELP: &str = "\
wrsn reduce — 3-CNF SAT to deployment/routing (the NP-completeness gadget)

OPTIONS:
    --dimacs PATH   DIMACS CNF file (`-` for stdin)      [required]
    --solve         solve the gadget exactly and decode the assignment
    --json          machine-readable output";

/// A fatal CLI error with a user-facing message.
#[derive(Debug)]
pub enum CliError {
    /// A free-form user-facing message.
    Msg(String),
    /// An operation that needs coordinates was handed an
    /// explicit-adjacency instance.
    NonGeometric {
        /// What the user asked for (e.g. `"--save"`, `"--svg"`).
        what: &'static str,
    },
    /// A numeric flag fell outside its valid range — caught at parse
    /// time so the flag name appears in the message.
    OutOfRange {
        /// The offending flag (e.g. `"--link-loss"`).
        flag: &'static str,
        /// What the user passed.
        value: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Msg(msg) => f.write_str(msg),
            CliError::NonGeometric { what } => write!(
                f,
                "{what} needs a geometric instance, but this one has explicit adjacency only"
            ),
            CliError::OutOfRange {
                flag,
                value,
                lo,
                hi,
            } => write!(f, "{flag} {value} out of range [{lo}, {hi}]"),
        }
    }
}

/// Checks a probability/fraction flag at parse time so the error names
/// the flag rather than deferring to `FaultPlan::validate`.
fn unit_interval(flag: &'static str, value: f64) -> Result<f64, CliError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(CliError::OutOfRange {
            flag,
            value,
            lo: 0.0,
            hi: 1.0,
        })
    }
}

impl Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Msg(e.to_string())
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        match e {
            // Keep the flag name in the message so the fix is obvious.
            EngineError::UnknownSolver { name, known } => CliError::Msg(format!(
                "unknown --algo {name:?} (expected {})",
                known.join("|")
            )),
            EngineError::InvalidSetting { setting, problem } => {
                CliError::Msg(format!("{} {problem}", flag_of(setting)))
            }
            other => CliError::Msg(other.to_string()),
        }
    }
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] carrying the message to print to stderr.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(USAGE.to_string());
    };
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "solve" if wants_help => Ok(SOLVE_HELP.to_string()),
        "sweep" if wants_help => Ok(SWEEP_HELP.to_string()),
        "merge" if wants_help => Ok(MERGE_HELP.to_string()),
        "simulate" if wants_help => Ok(SIMULATE_HELP.to_string()),
        "fieldexp" if wants_help => Ok(FIELDEXP_HELP.to_string()),
        "reduce" if wants_help => Ok(REDUCE_HELP.to_string()),
        "serve" if wants_help => Ok(SERVE_HELP.to_string()),
        "loadgen" if wants_help => Ok(LOADGEN_HELP.to_string()),
        "cache" if wants_help => Ok(CACHE_HELP.to_string()),
        "cluster" if wants_help => Ok(CLUSTER_HELP.to_string()),
        "solve" => solve(Args::parse(rest.to_vec())?),
        "sweep" => sweep(Args::parse(rest.to_vec())?),
        "merge" => merge(Args::parse(rest.to_vec())?),
        "simulate" => simulate(Args::parse(rest.to_vec())?),
        "fieldexp" => fieldexp(Args::parse(rest.to_vec())?),
        "reduce" => reduce_cmd(Args::parse(rest.to_vec())?),
        "serve" => serve_cmd(Args::parse(rest.to_vec())?),
        "loadgen" => loadgen_cmd(Args::parse(rest.to_vec())?),
        "cache" => cache_cmd(rest),
        "cluster" => cluster_cmd(rest),
        other => Err(CliError::Msg(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

/// The instance-shaping options shared by `solve`, `simulate`, and
/// `sweep`, read into the engine's [`InstanceParams`] so the HTTP API
/// and the CLI check parameters alike and resolve them to identical
/// instances (and identical cache fingerprints).
struct InstanceOptions {
    params: InstanceParams,
    /// The `--load` path, named in messages about its spec.
    load: Option<String>,
}

impl InstanceOptions {
    /// Reads the flags and the `--load` spec; [`source`](Self::source)
    /// checks their values.
    fn parse(args: &mut Args) -> Result<Self, CliError> {
        let defaults = InstanceParams::default();
        let mut params = InstanceParams {
            posts: args.get_or("posts", "a post count", defaults.posts)?,
            nodes: args.get_or("nodes", "a node count", defaults.nodes)?,
            field: args.get_or("field", "meters", defaults.field)?,
            levels: args.get_or("levels", "a level count", defaults.levels)?,
            eta: args.get_or("eta", "an efficiency in (0,1]", defaults.eta)?,
            cap: args.opt("cap", "a per-post cap")?,
            spec: None,
            scenario: parse_scenario(args)?,
        };
        let load: Option<String> = args.opt("load", "a file path")?;
        if let Some(path) = &load {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Msg(format!("reading {path}: {e}")))?;
            params.spec =
                Some(InstanceSpec::from_json(&text).map_err(|e| CliError::Msg(e.to_string()))?);
        }
        Ok(InstanceOptions { params, load })
    }

    /// Resolves the options into an engine instance source: a pinned
    /// spec when `--load` was given, a sampler otherwise. Every value,
    /// the scenario's too, is checked here, by the same
    /// [`InstanceParams::source`] that checks HTTP requests.
    fn source(&self) -> Result<InstanceSource, CliError> {
        self.params.source().map_err(|e| match &self.load {
            // Keep the file name in the message.
            Some(path) => CliError::Msg(format!("spec in {path}: {e}")),
            None => CliError::from(e),
        })
    }
}

/// Parses the `--scenario` flag (a [`ScenarioSpec`] JSON object) shared
/// by `solve`, `sweep`, and `simulate`.
fn parse_scenario(args: &mut Args) -> Result<Option<ScenarioSpec>, CliError> {
    let Some(text) = args.opt::<String>("scenario", "a scenario JSON object")? else {
        return Ok(None);
    };
    let value: serde::Value = serde_json::from_str(&text)
        .map_err(|e| CliError::Msg(format!("--scenario is not valid JSON: {e}")))?;
    ScenarioSpec::from_value(&value)
        .map(Some)
        .map_err(|e| CliError::Msg(format!("--scenario: {e}")))
}

/// Writes `--save PATH`: the instance's spec as JSON.
fn save_instance(path: &str, instance: &Instance) -> Result<(), CliError> {
    let spec =
        InstanceSpec::from_instance(instance).ok_or(CliError::NonGeometric { what: "--save" })?;
    std::fs::write(path, spec.to_json()).map_err(|e| CliError::Msg(format!("writing {path}: {e}")))
}

#[derive(Serialize)]
struct SolveReport {
    algorithm: String,
    posts: usize,
    nodes: u32,
    seed: u64,
    total_cost_uj: f64,
    deployment: Vec<u32>,
    parents: Vec<usize>,
}

fn solve(mut args: Args) -> Result<String, CliError> {
    let draw = args.flag("draw");
    let svg: Option<String> = args.opt("svg", "a file path")?;
    let opts = InstanceOptions::parse(&mut args)?;
    let seed: u64 = args.get_or("seed", "an integer seed", 1)?;
    let algo: String = args.get_or("algo", "an algorithm name", "irfh".to_string())?;
    let save: Option<String> = args.opt("save", "a file path")?;
    let json = args.flag("json");
    let instance = opts.source()?.instance(seed)?;
    if let Some(path) = save {
        save_instance(&path, &instance)?;
    }
    let solution = SolverRegistry::with_defaults()
        .resolve(&algo, opts.params.scenario.as_ref())?
        .solve(&instance)
        .map_err(|e| CliError::Msg(format!("{algo} failed: {e}")))?;
    args.finish()?;
    if let Some(path) = &svg {
        let geo = instance
            .geometry()
            .ok_or(CliError::NonGeometric { what: "--svg" })?;
        let doc = render::render_svg(geo, &solution, 720);
        std::fs::write(path, doc).map_err(|e| CliError::Msg(format!("writing {path}: {e}")))?;
    }
    let report = SolveReport {
        algorithm: solution.algorithm().to_string(),
        posts: instance.num_posts(),
        nodes: instance.num_nodes(),
        seed,
        total_cost_uj: solution.total_cost().as_ujoules(),
        deployment: solution.deployment().counts().to_vec(),
        parents: solution.tree().parents().to_vec(),
    };
    if json {
        return Ok(serde_json::to_string_pretty(&report).expect("serializable"));
    }
    let mut out = String::new();
    let _ = writeln!(out, "instance: {}", instance);
    let _ = writeln!(
        out,
        "{}: total recharging cost {}",
        report.algorithm,
        solution.total_cost()
    );
    let _ = writeln!(out, "deployment: {}", solution.deployment());
    let _ = writeln!(out, "routing:    {}", solution.tree());
    if draw {
        if let Some(geo) = instance.geometry() {
            let _ = writeln!(
                out,
                "
{}",
                render::render_field(geo, &solution, 64, 24)
            );
            let _ = writeln!(out, "{}", render::render_tree(&solution));
        }
    }
    Ok(out)
}

/// The default result-store directory for a bare `--cache` flag.
const DEFAULT_CACHE_DIR: &str = "bench_results/cache";

/// Parses `--shard K/N` into a 1-based (index, count) pair. Range
/// validation happens in the engine ([`EngineError::BadShard`]).
fn parse_shard(text: &str) -> Result<(u32, u32), CliError> {
    let bad = || CliError::Msg(format!("--shard expects K/N (e.g. 2/4), got {text:?}"));
    let (index, count) = text.split_once('/').ok_or_else(bad)?;
    match (index.trim().parse(), count.trim().parse()) {
        (Ok(i), Ok(c)) => Ok((i, c)),
        _ => Err(bad()),
    }
}

/// Opens the result store behind `--cache [DIR]`.
fn open_cache(dir: Option<String>) -> Result<Arc<ResultStore>, CliError> {
    open_cache_with(dir, DurabilityPolicy::default())
}

/// [`open_cache`] under an explicit fsync discipline (`serve
/// --durability`).
fn open_cache_with(
    dir: Option<String>,
    durability: DurabilityPolicy,
) -> Result<Arc<ResultStore>, CliError> {
    let dir = dir.unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    ResultStore::open_with(
        Path::new(&dir),
        StoreOptions {
            durability,
            ..StoreOptions::default()
        },
    )
    .map(Arc::new)
    .map_err(|e| CliError::Msg(e.to_string()))
}

fn sweep(mut args: Args) -> Result<String, CliError> {
    let opts = InstanceOptions::parse(&mut args)?;
    let algo_opt: Option<String> = args.opt("algo", "an algorithm name")?;
    let seeds: u64 = args.get_or("seeds", "a seed count", 10)?;
    let seed_start: u64 = args.get_or("seed-start", "an integer seed", 0)?;
    let threads: Option<usize> = args.opt("threads", "a worker count")?;
    let history = args.flag("history");
    let json = args.flag("json");
    let checkpoint: Option<String> = args.opt("checkpoint", "a file path")?;
    let resume = args.flag("resume");
    let max_retries: u32 = args.get_or("max-retries", "a retry count", 0)?;
    let keep_going = args.flag("keep-going");
    let halt_after: Option<usize> = args.opt("halt-after", "a seed count")?;
    let no_timings = args.flag("no-timings");
    let progress = args.flag("progress");
    let cache_arg = args.flag_or_value("cache");
    let shard: Option<String> = args.opt("shard", "K/N")?;
    let compare: Option<String> = args.opt("compare", "a comma-separated solver list")?;
    args.finish()?;
    let source = opts.source()?;
    let seed_range = wrsn_serve::api::seed_range(seed_start, seeds, ["--seed-start", "--seeds"])
        .map_err(CliError::Msg)?;
    if resume && checkpoint.is_none() {
        return Err(CliError::Msg(
            "--resume needs --checkpoint to know where the previous run left off".into(),
        ));
    }
    let runner = match threads {
        Some(0) => return Err(CliError::Msg("--threads must be at least 1".into())),
        Some(n) => SweepRunner::new().threads(n),
        None => SweepRunner::new(),
    };
    // A seed's attempts are its retries plus the first one.
    let attempts = max_retries.checked_add(1).ok_or_else(|| {
        CliError::Msg(format!(
            "--max-retries must be below {}, got {max_retries}",
            u32::MAX
        ))
    })?;
    let shard = shard.as_deref().map(parse_shard).transpose()?;
    let store = cache_arg.map(open_cache).transpose()?;
    let mut experiment = Experiment::new(source)
        .seeds(seed_range)
        .runner(runner)
        .capture_history(history)
        .retry(RetryPolicy::attempts(attempts))
        .keep_going(keep_going)
        .resume(resume)
        .record_timings(!no_timings);
    if let Some(spec) = &opts.params.scenario {
        experiment = experiment.scenario(spec.clone());
    }
    if let Some(path) = &checkpoint {
        experiment = experiment.checkpoint(path);
    }
    if let Some(k) = halt_after {
        experiment = experiment.halt_after(k);
    }
    if let Some((index, count)) = shard {
        experiment = experiment.shard(index, count);
    }
    if let Some(store) = store {
        experiment = experiment.cache(store);
    }
    if progress || checkpoint.is_some() {
        experiment = experiment.on_seed(|event| match event {
            SeedEvent::Completed { run, done, total } => {
                eprintln!(
                    "[{done}/{total}] seed {} ok: {:.3} uJ",
                    run.seed, run.cost_uj
                );
            }
            SeedEvent::Failed {
                failure,
                done,
                total,
            } => {
                eprintln!(
                    "[{done}/{total}] seed {} FAILED after {} attempt(s): {}",
                    failure.seed, failure.attempts, failure.error
                );
            }
        });
    }
    let registry = SolverRegistry::with_defaults();
    if let Some(list) = compare {
        if algo_opt.is_some() {
            return Err(CliError::Msg(
                "--compare names its own solvers; drop --algo".into(),
            ));
        }
        if checkpoint.is_some() || resume || shard.is_some() || halt_after.is_some() {
            return Err(CliError::Msg(
                "--compare runs multiple solvers and cannot be combined with \
                 --checkpoint/--resume/--shard/--halt-after"
                    .into(),
            ));
        }
        let title = format!("compare ({seeds} seeds, seed {seed_start}..)");
        return sweep_compare(&experiment, &registry, &list, &title, json);
    }
    let algo = algo_opt.unwrap_or_else(|| "irfh".to_string());
    let report = experiment.solver(&algo).run(&registry)?;
    if json {
        return Ok(report.to_json());
    }
    let mut notes = format!(
        "wall-clock: setup {:.1} ms, solve {:.1} ms ({:.2} ms/seed)\n",
        report.setup_ms_total,
        report.solve_ms_total,
        report.mean_solve_ms()
    );
    if let Some(cache) = &report.cache {
        let _ = writeln!(
            notes,
            "cache: {} hit(s), {} miss(es), {} appended",
            cache.hits, cache.misses, cache.appended
        );
    }
    let mut out = render_runs(
        &format!("sweep {algo} ({seeds} seeds)"),
        &report,
        &notes,
        seeds,
    );
    if history {
        let trace: Vec<String> = report
            .mean_history_uj()
            .iter()
            .map(|c| format!("{c:.3}"))
            .collect();
        let _ = writeln!(out, "mean cost by iteration: {}", trace.join(" -> "));
    }
    Ok(out)
}

/// Renders a report as `sweep` and `merge` print it: the per-seed table
/// under `title`, the cost line, the caller's `notes`, then any failed
/// seeds out of `covered`.
fn render_runs(title: &str, report: &RunReport, notes: &str, covered: u64) -> String {
    let mut table = Table::new(title, &["seed", "cost (uJ)", "solve (ms)"]);
    for run in &report.runs {
        table.row(&[
            run.seed.to_string(),
            format!("{:.3}", run.cost_uj),
            format!("{:.2}", run.solve_ms),
        ]);
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "cost: mean {:.3} uJ, std {:.3}, min {:.3}, max {:.3}",
        report.cost_uj.mean, report.cost_uj.std_dev, report.cost_uj.min, report.cost_uj.max
    );
    out.push_str(notes);
    if !report.is_complete() {
        let _ = writeln!(
            out,
            "failed seeds ({} of {covered}):",
            report.failures.len()
        );
        for f in &report.failures {
            let _ = writeln!(
                out,
                "  seed {} after {} attempt(s): {}",
                f.seed, f.attempts, f.error
            );
        }
    }
    out
}

/// Runs `experiment` once per solver of `list` over the identical
/// instance/seed grid and renders a paired comparison table under
/// `title` (the shape of the paper's Fig. 7 and Fig. 8 cross-algorithm
/// comparisons). Every cell reuses the result store when `--cache` is
/// active, so regenerating a comparison after adding one solver only
/// computes the new column.
fn sweep_compare(
    experiment: &Experiment,
    registry: &SolverRegistry,
    list: &str,
    title: &str,
    json: bool,
) -> Result<String, CliError> {
    let algos: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if algos.len() < 2 {
        return Err(CliError::Msg(
            "--compare needs at least two solver names (e.g. --compare rfh,irfh,idb)".into(),
        ));
    }
    let reports = algos
        .iter()
        .map(|algo| experiment.clone().solver(*algo).run(registry))
        .collect::<Result<Vec<_>, _>>()?;
    if json {
        return Ok(serde_json::to_string_pretty(&reports).expect("reports are serializable"));
    }
    let baseline = reports[0].cost_uj.mean;
    let mut table = Table::new(
        title,
        &[
            "algo",
            "mean (uJ)",
            "std",
            "min",
            "max",
            &format!("vs {}", algos[0]),
        ],
    );
    for report in &reports {
        let delta = if baseline > 0.0 {
            format!("{:+.2}%", (report.cost_uj.mean / baseline - 1.0) * 100.0)
        } else {
            "-".to_string()
        };
        table.row(&[
            report.solver.clone(),
            format!("{:.3}", report.cost_uj.mean),
            format!("{:.3}", report.cost_uj.std_dev),
            format!("{:.3}", report.cost_uj.min),
            format!("{:.3}", report.cost_uj.max),
            delta,
        ]);
    }
    let mut out = table.render();
    for report in &reports {
        if let Some(cache) = &report.cache {
            let _ = writeln!(
                out,
                "cache {}: {} hit(s), {} miss(es), {} appended",
                report.solver, cache.hits, cache.misses, cache.appended
            );
        }
        if !report.is_complete() {
            let _ = writeln!(
                out,
                "WARNING: {} failed on {} seed(s); its statistics cover the rest",
                report.solver,
                report.failures.len()
            );
        }
    }
    Ok(out)
}

/// `wrsn merge`: folds shard logs back into one report.
fn merge(mut args: Args) -> Result<String, CliError> {
    let logs: String = args.require("logs", "a comma-separated list of shard log paths")?;
    let json = args.flag("json");
    let out_path: Option<String> = args.opt("out", "a file path")?;
    args.finish()?;
    let mut parts: Vec<(PathBuf, SweepCheckpoint)> = Vec::new();
    for path in logs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let path = PathBuf::from(path);
        let ckpt = SweepCheckpoint::load(&path)?;
        parts.push((path, ckpt));
    }
    let merged = merge_checkpoints(&parts)?;
    if let Some(path) = &out_path {
        merged.save(Path::new(path))?;
    }
    let seed_start = merged.seed_start;
    let total = merged.seed_end - merged.seed_start;
    let covered = (merged.runs.len() + merged.failures.len()) as u64;
    let report = RunReport::from_outcomes(
        merged.label.clone(),
        merged.solver.clone(),
        merged.runs,
        merged.failures,
    );
    if json {
        // The same serialization path as `sweep --json`, so merging a
        // full shard set is byte-identical to an unsharded sweep.
        return Ok(report.to_json());
    }
    let mut notes = String::new();
    if covered < total {
        let _ = writeln!(
            notes,
            "WARNING: {} seed(s) of {seed_start}..{} missing — merge every shard log \
             to reproduce the full sweep",
            total - covered,
            seed_start + total
        );
    }
    let title = format!(
        "merge {} ({} of {} seeds from {} log(s))",
        report.solver,
        covered,
        total,
        parts.len()
    );
    Ok(render_runs(&title, &report, &notes, covered))
}

/// The `wrsn simulate` flag that sets a simulate-spec setting.
fn flag_of(setting: &str) -> String {
    match setting {
        "battery_j" => "--battery".to_string(),
        "bits_per_report" => "--bits".to_string(),
        "speed_mps" => "--speed".to_string(),
        "power_w" => "--power".to_string(),
        other => format!("--{}", other.replace('_', "-")),
    }
}

/// Reads a `--kill`, `--outage` or `--charger-down` list: comma-separated
/// entries of `N` colon-separated numbers, laid out as `shape`.
fn entry_list<const N: usize>(
    args: &mut Args,
    flag: &str,
    shape: &'static str,
) -> Result<Option<Vec<[u64; N]>>, CliError> {
    let Some(text) = args.opt::<String>(flag, shape)? else {
        return Ok(None);
    };
    text.split(',')
        .map(|entry| {
            let bad =
                |what| CliError::Msg(format!("--{flag} expects {shape} {what}, got {entry:?}"));
            let parts: Vec<&str> = entry.split(':').collect();
            if parts.len() != N {
                return Err(bad("entries"));
            }
            let mut numbers = [0; N];
            for (slot, part) in numbers.iter_mut().zip(parts) {
                *slot = part.trim().parse().map_err(|_| bad("numbers"))?;
            }
            Ok(numbers)
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// A post index read from a list entry. It saturates, so a post too
/// large for this platform still fails the fault plan's range check.
fn post_index(post: u64) -> usize {
    usize::try_from(post).unwrap_or(usize::MAX)
}

fn simulate(mut args: Args) -> Result<String, CliError> {
    let defaults = SimulateRequest::default();
    let opts = InstanceOptions::parse(&mut args)?;
    let kill = entry_list::<2>(&mut args, "kill", "ROUND:POST")?;
    let outage = entry_list::<3>(&mut args, "outage", "POST:FROM:UNTIL")?;
    let charger_down = entry_list::<2>(&mut args, "charger-down", "FROM:UNTIL")?;
    let spec = SimulateRequest {
        instance: opts.params,
        solver: args.get_or("algo", "an algorithm name", defaults.solver)?,
        seed: args.get_or("seed", "an integer seed", 1)?,
        rounds: args.get_or("rounds", "a round count", defaults.rounds)?,
        bits_per_report: args.get_or("bits", "bits per report", defaults.bits_per_report)?,
        battery_j: args.get_or("battery", "joules", defaults.battery_j)?,
        policy: args.get_or("policy", "threshold|tour|none", defaults.policy)?,
        speed_mps: args.get_or("speed", "meters per second", defaults.speed_mps)?,
        chargers: args.get_or("chargers", "a charger count", defaults.chargers)?,
        power_w: args.opt("power", "charger watts")?,
        timeline: args.opt("timeline", "a sample interval in rounds")?,
        sched_tour: args.flag("sched-tour"),
        fault_seed: args.opt("fault-seed", "an integer seed")?,
        kill: kill.map(|v| {
            v.iter()
                .map(|&[round, post]| (round, post_index(post)))
                .collect()
        }),
        outage: outage.map(|v| {
            v.iter()
                .map(|&[post, from, until]| (post_index(post), from, until))
                .collect()
        }),
        charger_skip: args.opt("charger-skip", "a probability")?,
        charger_delay: args.opt("charger-delay", "a probability")?,
        delay_s: args.get_or("delay-s", "seconds", defaults.delay_s)?,
        link_loss: args.opt("link-loss", "a probability")?,
        battery_fade: args.opt("battery-fade", "a fraction")?,
        fade_floor: args.opt("fade-floor", "a fraction")?,
        charger_down: charger_down.map(|v| v.iter().map(|&[from, until]| (from, until)).collect()),
    };
    let save: Option<String> = args.opt("save", "a file path")?;
    let json = args.flag("json");
    args.finish()?;
    let run = spec.run(&SolverRegistry::with_defaults())?;
    if let Some(path) = save {
        save_instance(&path, &run.instance)?;
    }
    if json {
        return Ok(serde_json::to_string_pretty(&run.summary()).expect("serializable"));
    }
    let report = &run.report;
    let mut out = String::new();
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "charger energy per round: {} (analytic prediction: {})",
        report.charger_energy_per_round(),
        run.analytic_per_round()
    );
    if let Some((t, p)) = report.first_death {
        let _ = writeln!(
            out,
            "first death: post {p} at t={t:.1}s — charger policy too weak"
        );
    } else {
        let _ = writeln!(out, "network alive for the whole run");
    }
    if run.config.faults.is_some() {
        let _ = writeln!(
            out,
            "faults: delivery ratio {:.3}, first fault at round {}, {} round(s) survived after, \
             charger skips {} / delays {}, link losses {}, max energy deficit {:.3}",
            report.delivery_ratio(),
            report
                .first_fault_round
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            report.rounds_after_first_fault,
            report.charger_skips,
            report.charger_delays,
            report.link_losses,
            report.max_energy_deficit,
        );
        if report.capacity_floor_hits > 0
            || report.charger_downtime_rounds > 0
            || report.breakdown_deaths > 0
        {
            let _ = writeln!(
                out,
                "degradation: {} cell(s) faded to the capacity floor, charger down \
                 {} round(s), {} death(s) attributable to the breakdown",
                report.capacity_floor_hits, report.charger_downtime_rounds, report.breakdown_deaths,
            );
        }
    }
    if let (ChargerPolicy::PatrolTour { .. }, Some(geo)) =
        (run.config.charger, run.instance.geometry())
    {
        let (speed, chargers) = (spec.speed_mps, spec.chargers);
        let tour = PatrolTour::plan(geo.base_station, geo.posts.clone());
        let _ = writeln!(
            out,
            "patrol tour: {:.0} m, cycle {:.1}s at {speed} m/s across {chargers} charger(s)",
            tour.length(),
            tour.cycle_s(speed)
        );
    }
    if let Some(schedule) = &run.schedule {
        let _ = writeln!(
            out,
            "sched-tour: {} route(s), {} post(s) scheduled, feasible: {}",
            schedule.routes.len(),
            schedule.visit_order.len(),
            schedule.is_feasible()
        );
    }
    if !report.tour_infeasible_posts.is_empty() {
        let posts: Vec<String> = report
            .tour_infeasible_posts
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = writeln!(
            out,
            "WARNING: patrol tour cannot sustain {} post(s): {} — their battery \
             windows are shorter than the charger cycle",
            posts.len(),
            posts.join(", ")
        );
    }
    if !report.soc_timeline.is_empty() {
        let mins: Vec<f64> = report.soc_timeline.iter().map(|&(_, min, _)| min).collect();
        let means: Vec<f64> = report.soc_timeline.iter().map(|&(_, _, m)| m).collect();
        let _ = writeln!(out, "state of charge over time (0..100%):");
        let _ = writeln!(out, "  mean {}", render::sparkline(&means));
        let _ = writeln!(out, "  min  {}", render::sparkline(&mins));
    }
    Ok(out)
}

#[derive(Serialize)]
struct FieldExpRow {
    spacing_cm: f64,
    distance_cm: f64,
    sensors: u32,
    per_node_power_mw: f64,
    network_efficiency: f64,
}

fn fieldexp(mut args: Args) -> Result<String, CliError> {
    let seed: u64 = args.get_or("seed", "an integer seed", 42)?;
    let trials: u32 = args.get_or("trials", "a trial count", 40)?;
    let json = args.flag("json");
    args.finish()?;
    if trials == 0 {
        return Err(CliError::Msg("--trials must be at least 1".into()));
    }
    let exp = FieldExperiment::default();
    let (sensors, distances, spacings) = FieldExperiment::table_ii_grid();
    let mut rows = Vec::new();
    for &sp in &spacings {
        for &d in &distances {
            for &m in &sensors {
                let o = exp.observe(m, d, sp, trials, seed);
                rows.push(FieldExpRow {
                    spacing_cm: sp,
                    distance_cm: d,
                    sensors: m,
                    per_node_power_mw: o.per_node_power_mw,
                    network_efficiency: o.network_efficiency,
                });
            }
        }
    }
    if json {
        return Ok(serde_json::to_string_pretty(&rows).expect("serializable"));
    }
    let mut out = String::new();
    for &sp in &spacings {
        let _ = writeln!(out, "spacing {sp} cm — per-node received power (mW):");
        let _ = write!(out, "{:>10}", "distance");
        for &m in &sensors {
            let _ = write!(out, "{:>9}", format!("m={m}"));
        }
        let _ = writeln!(out);
        for &d in &distances {
            let _ = write!(out, "{:>10}", format!("{d:.0} cm"));
            for &m in &sensors {
                let row = rows
                    .iter()
                    .find(|r| r.spacing_cm == sp && r.distance_cm == d && r.sensors == m)
                    .expect("full grid");
                let _ = write!(out, "{:>9.4}", row.per_node_power_mw);
            }
            let _ = writeln!(out);
        }
    }
    Ok(out)
}

#[derive(Serialize)]
struct ReduceReport {
    vars: usize,
    clauses: usize,
    posts: usize,
    nodes: u32,
    bound_w_nj: f64,
    dpll_satisfiable: bool,
    optimal_nj: Option<f64>,
    optimizer_satisfiable: Option<bool>,
    assignment: Option<Vec<bool>>,
}

fn reduce_cmd(mut args: Args) -> Result<String, CliError> {
    let path: String = args.require("dimacs", "a file path or -")?;
    let do_solve = args.flag("solve");
    let json = args.flag("json");
    args.finish()?;
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Msg(format!("reading stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(&path).map_err(|e| CliError::Msg(format!("reading {path}: {e}")))?
    };
    let formula =
        CnfFormula::parse_dimacs(&text).map_err(|e| CliError::Msg(format!("DIMACS: {e}")))?;
    let red = reduce(&formula).map_err(|e| CliError::Msg(format!("reduction: {e}")))?;
    let dpll = DpllSolver::new().is_satisfiable(&formula);
    let mut report = ReduceReport {
        vars: formula.num_vars(),
        clauses: formula.num_clauses(),
        posts: red.instance().num_posts(),
        nodes: red.instance().num_nodes(),
        bound_w_nj: red.cost_bound().as_njoules(),
        dpll_satisfiable: dpll,
        optimal_nj: None,
        optimizer_satisfiable: None,
        assignment: None,
    };
    if do_solve {
        let sol = BranchAndBound::new()
            .solve(red.instance())
            .map_err(|e| CliError::Msg(format!("solving gadget: {e}")))?;
        let meets = sol.total_cost().as_njoules() <= report.bound_w_nj * (1.0 + 1e-9);
        report.optimal_nj = Some(sol.total_cost().as_njoules());
        report.optimizer_satisfiable = Some(meets);
        if meets {
            report.assignment = Some(red.decode(&sol));
        }
    }
    if json {
        return Ok(serde_json::to_string_pretty(&report).expect("serializable"));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "formula: {} vars, {} clauses -> gadget with {} posts, {} nodes, W = {:.1} nJ",
        report.vars, report.clauses, report.posts, report.nodes, report.bound_w_nj
    );
    let _ = writeln!(
        out,
        "DPLL says: {}",
        if dpll { "SATISFIABLE" } else { "UNSATISFIABLE" }
    );
    if let (Some(opt), Some(meets)) = (report.optimal_nj, report.optimizer_satisfiable) {
        let _ = writeln!(
            out,
            "optimizer: optimal cost {:.1} nJ {} W -> {}",
            opt,
            if meets { "<=" } else { ">" },
            if meets {
                "SATISFIABLE"
            } else {
                "UNSATISFIABLE"
            }
        );
        if let Some(a) = &report.assignment {
            let pretty: Vec<String> = a
                .iter()
                .enumerate()
                .map(|(i, &v)| format!("x{}={}", i + 1, v))
                .collect();
            let _ = writeln!(out, "assignment: {}", pretty.join(", "));
        }
        if meets != dpll {
            let _ = writeln!(
                out,
                "WARNING: optimizer and DPLL disagree — please report a bug"
            );
        }
    }
    Ok(out)
}

fn serve_cmd(mut args: Args) -> Result<String, CliError> {
    let addr: String = args.get_or("addr", "an address:port", "127.0.0.1:7421".to_string())?;
    let workers: usize = args.get_or("workers", "a worker count", 4)?;
    let queue_depth: usize = args.get_or("queue-depth", "a queue capacity", 64)?;
    let cache_arg = args.flag_or_value("cache");
    let durability_arg: Option<String> = args.opt("durability", "flush or fsync")?;
    let timeout_ms: Option<u64> = args.opt("request-timeout-ms", "milliseconds")?;
    let keep_alive = args.flag("keep-alive");
    let keep_alive_max_requests: usize =
        args.get_or("keep-alive-max-requests", "a request cap", 32)?;
    let max_conns: usize = args.get_or("max-conns", "a connection cap", 4096)?;
    let max_jobs: usize = args.get_or("max-jobs", "a job cap", 8)?;
    let tenants_file: Option<String> = args.opt("tenants", "a tenants file")?;
    let default_rps: f64 = args.get_or("default-rps", "requests per second", 0.0)?;
    let default_burst: u64 = args.get_or("default-burst", "a burst size", 16)?;
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
    if workers == 0 {
        return Err(CliError::Msg("--workers must be at least 1".into()));
    }
    if queue_depth == 0 {
        return Err(CliError::Msg("--queue-depth must be at least 1".into()));
    }
    if max_conns == 0 || max_jobs == 0 {
        return Err(CliError::Msg(
            "--max-conns and --max-jobs must be at least 1".into(),
        ));
    }
    if keep_alive_max_requests == 0 {
        return Err(CliError::Msg(
            "--keep-alive-max-requests must be at least 1".into(),
        ));
    }
    if timeout_ms == Some(0) {
        return Err(CliError::Msg(
            "--request-timeout-ms must be at least 1".into(),
        ));
    }
    let chaos_fault = chaos_fault
        .map(|p| unit_interval("--chaos", p))
        .transpose()?;
    let chaos_truncate = chaos_truncate
        .map(|p| unit_interval("--chaos-truncate", p))
        .transpose()?;
    let chaos_latency = chaos_latency
        .map(|p| unit_interval("--chaos-latency", p))
        .transpose()?;
    let chaos = if chaos_fault.is_some() || chaos_truncate.is_some() || chaos_latency.is_some() {
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
        Some(policy)
    } else {
        None
    };
    if default_rps < 0.0 {
        return Err(CliError::Msg("--default-rps must be non-negative".into()));
    }
    if default_burst == 0 {
        return Err(CliError::Msg("--default-burst must be at least 1".into()));
    }
    let tenants = match &tenants_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Msg(format!("reading {path}: {e}")))?;
            let specs = wrsn_serve::tenant::parse_tenants(&text)
                .map_err(|why| CliError::Msg(format!("{path}: {why}")))?;
            Some(specs)
        }
        None => None,
    };
    let tenants_note = match &tenants {
        Some(specs) => format!(", {} tenant(s)", specs.len()),
        None => String::new(),
    };
    let cluster = match &cluster_peers {
        Some(spec) => {
            if cache_arg.is_none() {
                return Err(CliError::Msg(
                    "--cluster-peers requires --cache (the fabric shares the result store)".into(),
                ));
            }
            let peers = wrsn_cluster::parse_peers(spec)
                .map_err(|why| CliError::Msg(format!("--cluster-peers: {why}")))?;
            let node_id = node_id
                .ok_or_else(|| CliError::Msg("--cluster-peers requires --node-id".into()))?;
            if gossip_interval_ms == 0 {
                return Err(CliError::Msg(
                    "--gossip-interval-ms must be at least 1".into(),
                ));
            }
            if cluster_vnodes == 0 {
                return Err(CliError::Msg("--cluster-vnodes must be at least 1".into()));
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
                .map_err(|why| CliError::Msg(format!("cluster config: {why}")))?;
            Some(config)
        }
        None => {
            if node_id.is_some() {
                return Err(CliError::Msg("--node-id requires --cluster-peers".into()));
            }
            None
        }
    };
    let cluster_note = match &cluster {
        Some(c) => format!(
            ", cluster node {} of {} ({} vnodes, gossip {}ms)",
            c.node_id,
            c.peers.len(),
            c.vnodes,
            gossip_interval_ms
        ),
        None => String::new(),
    };
    let durability = match &durability_arg {
        Some(text) => {
            if cache_arg.is_none() {
                return Err(CliError::Msg(
                    "--durability requires --cache (there is no disk without a store)".into(),
                ));
            }
            DurabilityPolicy::parse(text).ok_or_else(|| {
                CliError::Msg(format!("--durability expects flush or fsync, got {text:?}"))
            })?
        }
        None => DurabilityPolicy::default(),
    };
    let store = cache_arg
        .map(|dir| open_cache_with(dir, durability))
        .transpose()?;
    let cache_note = match &store {
        Some(store) => format!(
            ", cache {} ({} entries, {})",
            store.dir().display(),
            store.len(),
            store.durability().as_str()
        ),
        None => String::new(),
    };
    let chaos_note = match &chaos {
        Some(p) => format!(
            ", CHAOS fault {:.2}/truncate {:.2}/latency {:.2} seed {}",
            p.fault_prob, p.truncate_prob, p.latency_prob, p.seed
        ),
        None => String::new(),
    };
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
        ..ServerConfig::default()
    };
    let handle = Server::start(&config, api).map_err(|e| CliError::Msg(e.to_string()))?;
    let bound = handle.addr();
    // Announce readiness on stderr immediately — stdout is the final
    // report, printed only after shutdown.
    eprintln!(
        "wrsn-serve listening on {bound} ({workers} worker(s), queue {queue_depth}, \
         conns {max_conns}, jobs {max_jobs}{tenants_note}{cache_note}{chaos_note}{cluster_note})"
    );
    handle
        .run_until_signal()
        .map_err(|e| CliError::Msg(e.to_string()))?;
    Ok(format!("wrsn-serve on {bound}: shut down cleanly"))
}

#[derive(Serialize)]
struct LoadgenRow {
    requests: u64,
    connections: usize,
    ok: u64,
    non_ok: u64,
    errors: u64,
    retries: u64,
    retryable_status: u64,
    rate_limited: u64,
    retries_by_status: serde::Value,
    transport_resets: u64,
    breaker_opens: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// One report row: `requests` sent and what `report` measured.
fn loadgen_row(requests: u64, report: &client::LoadgenReport) -> serde::Value {
    use serde::Serialize as _;
    let ms = |q: f64| report.quantile(q).as_secs_f64() * 1e3;
    LoadgenRow {
        requests,
        connections: report.connections,
        ok: report.ok,
        non_ok: report.non_ok,
        errors: report.errors,
        retries: report.retries,
        retryable_status: report.retryable_status,
        rate_limited: report.rate_limited,
        // The per-status retry totals as a `{"429": 31, "503": 4}` object.
        retries_by_status: serde::Value::Object(
            report
                .retries_by_status
                .iter()
                .map(|&(status, count)| (status.to_string(), count.to_value()))
                .collect(),
        ),
        transport_resets: report.transport_resets,
        breaker_opens: report.breaker_opens,
        elapsed_s: report.elapsed.as_secs_f64(),
        throughput_rps: report.throughput_rps(),
        p50_ms: ms(0.50),
        p95_ms: ms(0.95),
        p99_ms: ms(0.99),
    }
    .to_value()
}

/// `wrsn loadgen`: one lane for `--addr`, one per `--addrs` node (its
/// round-robin share of the requests) or one per keyed tenant of
/// `--tenants-file` (the whole workload each), all run at once; or,
/// with `--job`, one async sweep job.
fn loadgen_cmd(mut args: Args) -> Result<String, CliError> {
    let given = args.given();
    let addr: String = args.get_or("addr", "an address:port", "127.0.0.1:7421".to_string())?;
    let concurrency: usize = args.get_or("concurrency", "a thread count", 4)?;
    let requests: u64 = args.get_or("requests", "a request count", 200)?;
    let path: String = args.get_or("path", "an endpoint path", "/v1/solve".to_string())?;
    let method: String = args.get_or("method", "an HTTP method", "POST".to_string())?;
    let body: String = args.get_or("body", "a JSON body", "{}".to_string())?;
    let retries: u32 = args.get_or("retries", "a retry budget", 0)?;
    let connections: Option<usize> = args.opt("connections", "a connection count")?;
    let pipeline: usize = args.get_or("pipeline", "a batch depth", 1)?;
    let job = args.flag("job");
    let tenant_key: Option<String> = args.opt("tenant", "an API key")?;
    let tenants_file: Option<String> = args.opt("tenants-file", "a tenants file")?;
    let addrs: Option<String> = args.opt("addrs", "a comma-separated address list")?;
    let bench_json: Option<String> = args.opt("bench-json", "an output path")?;
    let json = args.flag("json");
    args.finish()?;
    // The first of these flags given picks the mode. Every load mode
    // reads `LOAD`; a flag the mode does not read is refused by name.
    const LOAD: [&str; 6] = ["requests", "path", "method", "body", "bench-json", "json"];
    let (mode, reads): (&str, &[&str]) = if job {
        ("loadgen --job", &["job", "addr", "body", "tenant", "json"])
    } else if addrs.is_some() {
        (
            "loadgen --addrs",
            &["addrs", "concurrency", "retries", "tenant"],
        )
    } else if tenants_file.is_some() {
        (
            "loadgen --tenants-file",
            &["tenants-file", "addr", "concurrency", "retries"],
        )
    } else if connections.is_some() {
        (
            "loadgen --connections",
            &["connections", "pipeline", "addr", "tenant"],
        )
    } else {
        (
            "closed-loop loadgen (without --connections)",
            &["addr", "concurrency", "retries", "tenant"],
        )
    };
    let unread: Vec<String> = given
        .iter()
        .filter(|f| !reads.contains(&f.as_str()) && (job || !LOAD.contains(&f.as_str())))
        .map(|f| format!("--{f}"))
        .collect();
    if !unread.is_empty() {
        return Err(CliError::Msg(format!(
            "{mode} does not read {}",
            unread.join(", ")
        )));
    }
    let (doc, text) = if job {
        loadgen_job(&addr, &body, tenant_key.as_deref())?
    } else {
        if concurrency == 0 || requests == 0 {
            return Err(CliError::Msg(
                "--concurrency and --requests must be at least 1".into(),
            ));
        }
        if connections == Some(0) || pipeline == 0 {
            return Err(CliError::Msg(
                "--connections and --pipeline must be at least 1".into(),
            ));
        }
        let base = client::RequestSpec {
            addr: &addr,
            method: &method,
            path: &path,
            body: (method != "GET").then_some(body.as_str()),
            key: tenant_key.as_deref(),
        };
        let retry = (retries > 0).then(|| client::RetryPolicy {
            max_retries: retries,
            ..client::RetryPolicy::default()
        });
        let per_request = |threads| client::Drive::PerRequest {
            threads,
            retry: retry.clone(),
        };
        let tenants = tenants_file.as_deref().map(keyed_tenants).transpose()?;
        // One lane per --addrs node (its round-robin share), per keyed
        // tenant (the whole workload each), or for --addr; `kind` names
        // the lanes in errors and picks the report's shape.
        let (kind, lanes) = if let Some(list) = &addrs {
            let nodes: Vec<&str> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            let n = nodes.len() as u64;
            if n == 0 {
                return Err(CliError::Msg("--addrs needs at least one address".into()));
            }
            if requests < n {
                return Err(CliError::Msg(format!(
                    "--requests {requests} is fewer than the {n} node(s) in --addrs"
                )));
            }
            let lanes = nodes.iter().enumerate().map(|(i, node)| {
                // Round-robin split: the first (requests % n) nodes
                // carry one extra request.
                let share = requests / n + u64::from((i as u64) < requests % n);
                let threads = concurrency.min(usize::try_from(share).unwrap_or(usize::MAX));
                let work = client::Workload {
                    request: client::RequestSpec { addr: node, ..base },
                    requests: share,
                    drive: per_request(threads),
                };
                ((*node).to_string(), work)
            });
            ("node", lanes.collect())
        } else if let Some(tenants) = &tenants {
            let lanes = tenants.iter().map(|tenant| {
                let work = client::Workload {
                    request: client::RequestSpec {
                        key: tenant.key.as_deref(),
                        ..base
                    },
                    requests,
                    drive: per_request(concurrency),
                };
                (tenant.name.clone(), work)
            });
            ("tenant", lanes.collect())
        } else {
            let drive = match connections {
                Some(connections) => client::Drive::KeepAlive {
                    connections,
                    pipeline,
                },
                None => per_request(concurrency),
            };
            let work = client::Workload {
                request: base,
                requests,
                drive,
            };
            ("", vec![(addr.clone(), work)])
        };
        let (mut rows, total) = run_lanes(kind, &lanes)?;
        let how = match (kind, connections) {
            ("node", _) => format!("round-robin over {} node(s)", lanes.len()),
            ("tenant", _) => format!("x {} tenant(s), {concurrency} thread(s) each", lanes.len()),
            (_, Some(c)) => format!("{c} keep-alive connection(s), pipeline {pipeline}"),
            (_, None) => format!("{concurrency} thread(s)"),
        };
        let title = format!("loadgen {method} {path} ({requests} requests, {how})");
        let doc = match kind {
            "node" => {
                let aggregate = loadgen_row(requests, &total);
                let doc = serde::Value::Object(vec![
                    ("nodes".to_string(), serde::Value::Object(rows.clone())),
                    ("aggregate".to_string(), aggregate.clone()),
                ]);
                rows.push(("(aggregate)".to_string(), aggregate));
                doc
            }
            "tenant" => serde::Value::Object(rows.clone()),
            _ => {
                // When the server exposes an io section (a store is
                // attached), the durability counters ride along in the
                // bench artifact so a perf row records the fsync cost it
                // was measured under.
                let mut doc = rows[0].1.clone();
                let server_io = client::request(&addr, "GET", "/statusz", None)
                    .ok()
                    .filter(|resp| resp.status == 200)
                    .and_then(|resp| serde_json::from_str::<serde::Value>(&resp.body).ok())
                    .and_then(|status| status.get("io").cloned());
                if let (serde::Value::Object(pairs), Some(io)) = (&mut doc, server_io) {
                    pairs.push(("server_io".to_string(), io));
                }
                doc
            }
        };
        (doc, loadgen_table(&title, &rows))
    };
    if let Some(path) = &bench_json {
        let text = serde_json::to_string_pretty(&doc).expect("serializable");
        std::fs::write(path, text.as_bytes())
            .map_err(|e| CliError::Msg(format!("writing {path}: {e}")))?;
    }
    if json {
        return Ok(serde_json::to_string_pretty(&doc).expect("serializable"));
    }
    Ok(text)
}

/// Runs every lane at once, one `client::loadgen` each, and returns a
/// labelled report row per lane and the lanes merged. A lane that
/// fails fails the run, named by `kind` and its label.
fn run_lanes(
    kind: &str,
    lanes: &[(String, client::Workload<'_>)],
) -> Result<(Vec<(String, serde::Value)>, client::LoadgenReport), CliError> {
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|(_, work)| scope.spawn(move || client::loadgen(work)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen lane panicked"))
            .collect()
    });
    let mut rows = Vec::with_capacity(lanes.len());
    let mut total = client::LoadgenReport::default();
    for ((label, work), report) in lanes.iter().zip(reports) {
        let report = report.map_err(|e| match kind {
            "" => CliError::Msg(e.to_string()),
            kind => CliError::Msg(format!("{kind} {label}: {e}")),
        })?;
        rows.push((label.clone(), loadgen_row(work.requests, &report)));
        total.merge(report);
    }
    Ok((rows, total))
}

/// The keyed tenants of a tenants file, the lanes of `loadgen
/// --tenants-file`.
fn keyed_tenants(file: &str) -> Result<Vec<wrsn_serve::TenantSpec>, CliError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| CliError::Msg(format!("reading {file}: {e}")))?;
    let tenants = wrsn_serve::tenant::parse_tenants(&text)
        .map_err(|why| CliError::Msg(format!("{file}: {why}")))?;
    let keyed: Vec<_> = tenants.into_iter().filter(|t| t.key.is_some()).collect();
    if keyed.is_empty() {
        return Err(CliError::Msg(format!("{file}: no keyed tenants to drive")));
    }
    Ok(keyed)
}

/// A loadgen text table: one column per lane, one line per field of
/// its JSON row.
fn loadgen_table(title: &str, rows: &[(String, serde::Value)]) -> String {
    let mut headers = vec!["metric"];
    headers.extend(rows.iter().map(|(label, _)| label.as_str()));
    let mut table = Table::new(title, &headers);
    if let Some((_, serde::Value::Object(fields))) = rows.first() {
        for (field, _) in fields {
            let mut cells = vec![field.clone()];
            cells.extend(rows.iter().map(|(_, row)| match row.get(field) {
                Some(serde::Value::Number(serde::Number::Float(x))) => format!("{x:.3}"),
                Some(value) => serde_json::to_string(value).expect("serializable"),
                None => String::new(),
            }));
            table.row(&cells);
        }
    }
    table.render()
}

/// `loadgen --job`: submit one async sweep job, stream its events, and
/// report the round trip.
fn loadgen_job(
    addr: &str,
    body: &str,
    key: Option<&str>,
) -> Result<(serde::Value, String), CliError> {
    let spec = (!body.trim().is_empty() && body != "{}").then_some(body);
    let outcome = client::run_job(
        addr,
        key,
        spec,
        Duration::from_millis(50),
        Duration::from_secs(120),
    )
    .map_err(|e| CliError::Msg(e.to_string()))?;
    let text = format!(
        "job {} finished in state {:?} after {} event(s)\n{}\n",
        outcome.id,
        outcome.state,
        outcome.events.len(),
        outcome.final_body
    );
    let doc = serde::Value::Object(vec![
        (
            "id".to_string(),
            serde::Value::Number(serde::Number::PosInt(outcome.id)),
        ),
        ("state".to_string(), serde::Value::String(outcome.state)),
        (
            "events".to_string(),
            serde::Value::Number(serde::Number::PosInt(outcome.events.len() as u64)),
        ),
        (
            "final".to_string(),
            serde_json::from_str::<serde::Value>(&outcome.final_body)
                .unwrap_or(serde::Value::String(outcome.final_body)),
        ),
    ]);
    Ok((doc, text))
}

fn cache_cmd(rest: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = rest.split_first() else {
        return Ok(CACHE_HELP.to_string());
    };
    match sub.as_str() {
        "gc" => cache_gc(Args::parse(rest.to_vec())?),
        "verify" => cache_verify(Args::parse(rest.to_vec())?),
        other => Err(CliError::Msg(format!(
            "unknown cache subcommand {other:?}\n\n{CACHE_HELP}"
        ))),
    }
}

fn cache_verify(mut args: Args) -> Result<String, CliError> {
    let cache_arg = args.flag_or_value("cache");
    let json = args.flag("json");
    args.finish()?;
    let dir = cache_arg
        .flatten()
        .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    let report =
        ResultStore::verify_dir(Path::new(&dir)).map_err(|e| CliError::Msg(e.to_string()))?;
    let rendered = if json {
        serde_json::to_string_pretty(&report).expect("serializable")
    } else {
        let mut out = String::new();
        let _ = writeln!(out, "cache verify in {dir}:");
        for segment in &report.segments {
            let verdict = match &segment.error {
                Some(why) => format!("CORRUPT: {why}"),
                None if segment.torn_tail => "clean (torn tail, repairable)".to_string(),
                None => "clean".to_string(),
            };
            let _ = writeln!(
                out,
                "  {} — {} record(s), {} byte(s): {verdict}",
                segment.name, segment.records, segment.bytes
            );
        }
        let _ = writeln!(
            out,
            "  {} record(s), {} distinct key(s), {} quarantined file(s)",
            report.records, report.keys, report.quarantined
        );
        let _ = write!(
            out,
            "verdict: {}",
            if report.is_clean() {
                "clean"
            } else {
                "CORRUPT"
            }
        );
        out
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        // Nonzero exit so CI and scripts can gate on store health; the
        // report still lands on stderr via the error path.
        Err(CliError::Msg(rendered))
    }
}

fn cache_gc(mut args: Args) -> Result<String, CliError> {
    let cache_arg = args.flag_or_value("cache");
    let max_bytes: Option<u64> = args.opt("max-bytes", "a byte budget")?;
    let json = args.flag("json");
    args.finish()?;
    let store = open_cache(cache_arg.flatten())?;
    let tag = cache_tag();
    let report = store
        .gc(|t| t == Some(tag.as_str()), max_bytes)
        .map_err(|e| CliError::Msg(e.to_string()))?;
    if json {
        return Ok(serde_json::to_string_pretty(&report).expect("serializable"));
    }
    let mut out = String::new();
    let _ = writeln!(out, "cache gc in {}:", store.dir().display());
    let _ = writeln!(
        out,
        "  kept {} entr{}, dropped {} unreachable + {} over budget",
        report.kept,
        if report.kept == 1 { "y" } else { "ies" },
        report.dropped_unreachable,
        report.dropped_for_budget,
    );
    let _ = writeln!(
        out,
        "  disk: {} -> {} bytes ({} reclaimed)",
        report.bytes_before,
        report.bytes_after,
        report.bytes_reclaimed()
    );
    Ok(out)
}

fn cluster_cmd(rest: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = rest.split_first() else {
        return Ok(CLUSTER_HELP.to_string());
    };
    match sub.as_str() {
        "status" => cluster_status(Args::parse(rest.to_vec())?),
        other => Err(CliError::Msg(format!(
            "unknown cluster subcommand {other:?}\n\n{CLUSTER_HELP}"
        ))),
    }
}

/// One node's row in `wrsn cluster status`, or why it could not be
/// fetched.
enum NodeStatus {
    Up {
        cluster: serde::Value,
        entries: Option<u64>,
        keys_digest: Option<String>,
    },
    Down(String),
}

/// Fetches one node's `/statusz` cluster section plus its anti-entropy
/// manifest digest.
fn fetch_node_status(addr: &str) -> NodeStatus {
    let status = match client::request(addr, "GET", "/statusz", None) {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => return NodeStatus::Down(format!("/statusz answered {}", resp.status)),
        Err(e) => return NodeStatus::Down(e.to_string()),
    };
    let Ok(doc) = serde_json::from_str::<serde::Value>(&status.body) else {
        return NodeStatus::Down("unparseable /statusz".to_string());
    };
    let Some(cluster) = doc.get("cluster").cloned() else {
        return NodeStatus::Down("not in cluster mode (no cluster section)".to_string());
    };
    let entries = doc
        .get("cache")
        .and_then(|c| c.get("entries"))
        .and_then(serde::Value::as_u64);
    let keys_digest = client::request(addr, "GET", "/v1/cluster/segments", None)
        .ok()
        .filter(|resp| resp.status == 200)
        .and_then(|resp| serde_json::from_str::<serde::Value>(&resp.body).ok())
        .and_then(|m| {
            m.get("keys_digest")
                .and_then(serde::Value::as_str)
                .map(str::to_string)
        });
    NodeStatus::Up {
        cluster,
        entries,
        keys_digest,
    }
}

fn cluster_status(mut args: Args) -> Result<String, CliError> {
    use serde::Serialize as _;
    let addrs: String = args.require("addrs", "a comma-separated address list")?;
    let json = args.flag("json");
    args.finish()?;
    let nodes: Vec<&str> = addrs
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if nodes.is_empty() {
        return Err(CliError::Msg("--addrs needs at least one address".into()));
    }
    let statuses: Vec<(String, NodeStatus)> = nodes
        .iter()
        .map(|addr| ((*addr).to_string(), fetch_node_status(addr)))
        .collect();
    let digests: Vec<&str> = statuses
        .iter()
        .filter_map(|(_, s)| match s {
            NodeStatus::Up { keys_digest, .. } => keys_digest.as_deref(),
            NodeStatus::Down(_) => None,
        })
        .collect();
    let converged = !digests.is_empty() && digests.iter().all(|d| *d == digests[0]);
    if json {
        let doc = serde::Value::Object(vec![
            (
                "nodes".to_string(),
                serde::Value::Object(
                    statuses
                        .iter()
                        .map(|(addr, status)| {
                            let value = match status {
                                NodeStatus::Up {
                                    cluster,
                                    entries,
                                    keys_digest,
                                } => {
                                    let mut fields = vec![
                                        (
                                            "status".to_string(),
                                            serde::Value::String("up".to_string()),
                                        ),
                                        ("cluster".to_string(), cluster.clone()),
                                    ];
                                    if let Some(entries) = entries {
                                        fields.push(("entries".to_string(), entries.to_value()));
                                    }
                                    if let Some(digest) = keys_digest {
                                        fields.push((
                                            "keys_digest".to_string(),
                                            serde::Value::String(digest.clone()),
                                        ));
                                    }
                                    serde::Value::Object(fields)
                                }
                                NodeStatus::Down(why) => serde::Value::Object(vec![
                                    (
                                        "status".to_string(),
                                        serde::Value::String("down".to_string()),
                                    ),
                                    ("error".to_string(), serde::Value::String(why.clone())),
                                ]),
                            };
                            (addr.clone(), value)
                        })
                        .collect(),
                ),
            ),
            ("converged".to_string(), serde::Value::Bool(converged)),
        ]);
        return Ok(serde_json::to_string_pretty(&doc).expect("serializable"));
    }
    let mut table = Table::new(
        &format!("cluster status ({} node(s))", statuses.len()),
        &[
            "node", "id", "share", "fwd hit", "fwd miss", "ticks", "pulled", "pushed", "entries",
            "digest",
        ],
    );
    for (addr, status) in &statuses {
        match status {
            NodeStatus::Up {
                cluster,
                entries,
                keys_digest,
            } => {
                let str_of = |v: Option<&serde::Value>| {
                    v.map_or_else(
                        || "?".to_string(),
                        |v| match v {
                            serde::Value::String(s) => s.clone(),
                            other => serde_json::to_string(other).unwrap_or_default(),
                        },
                    )
                };
                let forwarded = cluster.get("forwarded");
                let gossip = cluster.get("gossip");
                let share = cluster
                    .get("owned_share")
                    .and_then(serde::Value::as_f64)
                    .map_or_else(|| "?".to_string(), |s| format!("{s:.3}"));
                // The digest prefix is plenty to eyeball equality; the
                // full value is in --json.
                let digest = keys_digest
                    .as_deref()
                    .map_or("?", |d| &d[..d.len().min(16)]);
                table.row(&[
                    addr.clone(),
                    str_of(cluster.get("node_id")),
                    share,
                    str_of(forwarded.and_then(|f| f.get("hits"))),
                    str_of(forwarded.and_then(|f| f.get("misses"))),
                    str_of(gossip.and_then(|g| g.get("ticks"))),
                    str_of(gossip.and_then(|g| g.get("segments_pulled"))),
                    str_of(gossip.and_then(|g| g.get("segments_pushed"))),
                    entries.map_or_else(|| "?".to_string(), |e| e.to_string()),
                    digest.to_string(),
                ]);
            }
            NodeStatus::Down(why) => {
                table.row(&[
                    addr.clone(),
                    "DOWN".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    why.clone(),
                ]);
            }
        }
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\ncaches {}",
        if converged {
            "converged (all reachable digests equal)"
        } else {
            "NOT converged (digests differ or no node reachable)"
        }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> Result<String, CliError> {
        run(&cmd.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run_str("help").unwrap().contains("COMMANDS"));
    }

    #[test]
    fn per_command_help() {
        for cmd in ["solve", "simulate", "fieldexp", "reduce"] {
            let out = run_str(&format!("{cmd} --help")).unwrap();
            assert!(out.contains("OPTIONS") || out.contains("options"), "{cmd}");
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn solve_small_instance() {
        let out = run_str("solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb").unwrap();
        assert!(out.contains("total recharging cost"));
        assert!(out.contains("deployment["));
    }

    #[test]
    fn solve_draw_renders_map_and_tree() {
        let out =
            run_str("solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --draw").unwrap();
        assert!(out.contains("base station"));
        assert!(out.contains("BS\n") || out.contains("BS"));
        assert!(out.contains("post 0"));
    }

    #[test]
    fn solve_json_output_parses() {
        let out =
            run_str("solve --posts 5 --nodes 10 --field 150 --seed 2 --algo rfh --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["posts"], 5);
        assert_eq!(v["deployment"].as_array().unwrap().len(), 5);
    }

    #[test]
    fn solve_rejects_bad_algo_and_eta() {
        assert!(
            run_str("solve --algo magic --posts 5 --nodes 10 --field 150")
                .unwrap_err()
                .to_string()
                .contains("--algo")
        );
        assert!(run_str("solve --eta 2.0 --posts 5 --nodes 10 --field 150")
            .unwrap_err()
            .to_string()
            .contains("eta"));
    }

    #[test]
    fn solve_rejects_unknown_option() {
        let err = run_str("solve --posts 5 --nodes 10 --field 150 --bogus 1").unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn solve_writes_svg() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.svg");
        let _ = run_str(&format!(
            "solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --svg {}",
            path.display()
        ))
        .unwrap();
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert_eq!(svg.matches("<circle").count(), 6);
    }

    #[test]
    fn solve_save_and_load_reproduce_the_same_solution() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json");
        let a = run_str(&format!(
            "solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --json --save {}",
            path.display()
        ))
        .unwrap();
        let b = run_str(&format!(
            "solve --algo idb --json --load {}",
            path.display()
        ))
        .unwrap();
        let va: serde_json::Value = serde_json::from_str(&a).unwrap();
        let vb: serde_json::Value = serde_json::from_str(&b).unwrap();
        assert_eq!(va["total_cost_uj"], vb["total_cost_uj"]);
        assert_eq!(va["deployment"], vb["deployment"]);
    }

    #[test]
    fn load_rejects_bad_spec() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-spec.json");
        std::fs::write(&path, "{\"posts\": []}").unwrap();
        let err = run_str(&format!("solve --load {}", path.display())).unwrap_err();
        assert!(err.to_string().contains("spec") || err.to_string().contains("parsing"));
    }

    #[test]
    fn simulate_round_trip() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 200 --bits 1000 --battery 0.01 --policy threshold --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["rounds"], 200);
        assert_eq!(v["reports_lost"], 0);
    }

    #[test]
    fn simulate_with_tour_policy() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 200 --policy tour --speed 20 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["charger_energy_j"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn simulate_with_finite_charger_power() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 300 --policy tour --speed 20 --power 3 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["rounds"], 300);
        assert!(
            run_str("simulate --power 0 --posts 5 --nodes 15 --field 150")
                .unwrap_err()
                .to_string()
                .contains("power")
        );
    }

    #[test]
    fn fieldexp_produces_grid() {
        let out = run_str("fieldexp --trials 5 --seed 1").unwrap();
        assert!(out.contains("spacing 5 cm"));
        assert!(out.contains("spacing 10 cm"));
        let json = run_str("fieldexp --trials 5 --json").unwrap();
        let rows: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(rows.as_array().unwrap().len(), 40);
    }

    #[test]
    fn reduce_from_file_and_solve() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.cnf");
        std::fs::write(&path, "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n").unwrap();
        let out = run_str(&format!("reduce --dimacs {} --solve", path.display())).unwrap();
        assert!(out.contains("SATISFIABLE"));
        assert!(out.contains("assignment:"));
        assert!(!out.contains("WARNING"));
        let json = run_str(&format!(
            "reduce --dimacs {} --solve --json",
            path.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["dpll_satisfiable"], v["optimizer_satisfiable"]);
    }

    #[test]
    fn reduce_rejects_missing_file_and_bad_dimacs() {
        assert!(run_str("reduce --dimacs /definitely/not/here.cnf")
            .unwrap_err()
            .to_string()
            .contains("reading"));
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.cnf");
        std::fs::write(&path, "not dimacs at all").unwrap();
        assert!(run_str(&format!("reduce --dimacs {}", path.display()))
            .unwrap_err()
            .to_string()
            .contains("DIMACS"));
    }

    #[test]
    fn solve_accepts_every_registry_algorithm() {
        for algo in wrsn_engine::SolverRegistry::with_defaults().names() {
            let out = run_str(&format!(
                "solve --posts 5 --nodes 10 --field 150 --seed 3 --algo {algo} --json"
            ))
            .unwrap();
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert!(v["total_cost_uj"].as_f64().unwrap() > 0.0, "{algo}");
        }
    }

    #[test]
    fn solve_rejects_infeasible_budget_without_panicking() {
        // 3 nodes cannot cover 5 posts; this used to panic in the sampler.
        let err = run_str("solve --posts 5 --nodes 3 --field 150").unwrap_err();
        assert!(err.to_string().contains("cannot cover"), "{err}");
    }

    #[test]
    fn simulate_human_output_reports_charger_energy() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 100 --bits 1000",
        )
        .unwrap();
        assert!(out.contains("charger energy per round"));
        assert!(out.contains("analytic prediction"));
        assert!(out.contains("network alive") || out.contains("first death"));
    }

    #[test]
    fn simulate_tour_human_output_describes_the_patrol() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 100 --policy tour --speed 20",
        )
        .unwrap();
        assert!(out.contains("patrol tour:"));
    }

    #[test]
    fn simulate_timeline_draws_a_sparkline() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 200 --timeline 20",
        )
        .unwrap();
        assert!(out.contains("state of charge over time"));
        assert!(out.contains("mean "));
        assert!(out.contains("min  "));
    }

    #[test]
    fn simulate_policy_none_and_bad_policy() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 50 --policy none --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["charger_energy_j"], 0.0);
        let err =
            run_str("simulate --posts 5 --nodes 15 --field 150 --policy teleport").unwrap_err();
        assert!(err.to_string().contains("--policy"));
    }

    #[test]
    fn simulate_rejects_bad_battery_and_chargers() {
        assert!(
            run_str("simulate --posts 5 --nodes 15 --field 150 --battery 0")
                .unwrap_err()
                .to_string()
                .contains("battery")
        );
        assert!(
            run_str("simulate --posts 5 --nodes 15 --field 150 --policy tour --chargers 0")
                .unwrap_err()
                .to_string()
                .contains("chargers")
        );
    }

    #[test]
    fn sweep_json_is_a_run_report() {
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4 --seed-start 2 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["solver"], "idb");
        let runs = v["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0]["seed"], 2);
        assert!(v["cost_uj"]["mean"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn sweep_parallel_matches_sequential() {
        let base = "sweep --posts 6 --nodes 12 --field 150 --algo irfh --seeds 6 --json";
        let par: serde_json::Value =
            serde_json::from_str(&run_str(&format!("{base} --threads 4")).unwrap()).unwrap();
        let seq: serde_json::Value =
            serde_json::from_str(&run_str(&format!("{base} --threads 1")).unwrap()).unwrap();
        assert_eq!(par["runs"].as_array().unwrap().len(), 6);
        for (a, b) in par["runs"]
            .as_array()
            .unwrap()
            .iter()
            .zip(seq["runs"].as_array().unwrap())
        {
            assert_eq!(a["seed"], b["seed"]);
            assert_eq!(a["cost_uj"], b["cost_uj"]);
        }
        assert_eq!(par["cost_uj"]["mean"], seq["cost_uj"]["mean"]);
    }

    #[test]
    fn sweep_human_output_has_table_and_summary() {
        let out = run_str("sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3").unwrap();
        assert!(out.contains("== sweep idb"));
        assert!(out.contains("cost: mean"));
        assert!(out.contains("wall-clock"));
    }

    #[test]
    fn sweep_history_prints_the_iteration_trace() {
        let out = run_str("sweep --posts 6 --nodes 12 --field 150 --algo irfh --seeds 2 --history")
            .unwrap();
        assert!(out.contains("mean cost by iteration:"));
        assert!(out.contains("->"));
    }

    #[test]
    fn sweep_rejects_bad_algo_seeds_and_threads() {
        assert!(
            run_str("sweep --posts 5 --nodes 10 --field 150 --algo magic")
                .unwrap_err()
                .to_string()
                .contains("--algo")
        );
        assert!(run_str("sweep --posts 5 --nodes 10 --field 150 --seeds 0")
            .unwrap_err()
            .to_string()
            .contains("--seeds"));
        assert!(
            run_str("sweep --posts 5 --nodes 10 --field 150 --threads 0")
                .unwrap_err()
                .to_string()
                .contains("--threads")
        );
        // `--seed` belongs to `solve`; sweep uses --seed-start.
        assert!(run_str("sweep --posts 5 --nodes 10 --field 150 --seed 7")
            .unwrap_err()
            .to_string()
            .contains("seed"));
    }

    #[test]
    fn sweep_loads_a_pinned_spec_with_zero_variance() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-inst.json");
        let _ = run_str(&format!(
            "solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --save {}",
            path.display()
        ))
        .unwrap();
        let out = run_str(&format!(
            "sweep --algo idb --seeds 3 --json --load {}",
            path.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["cost_uj"]["std_dev"], 0.0);
    }

    #[test]
    fn sweep_resume_requires_a_checkpoint() {
        let err = run_str("sweep --posts 5 --nodes 10 --field 150 --resume").unwrap_err();
        assert!(err.to_string().contains("--checkpoint"), "{err}");
    }

    #[test]
    fn sweep_checkpoint_interrupt_and_resume_match_a_clean_run() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("sweep-resume.checkpoint.json");
        let _ = std::fs::remove_file(&ck);
        let base = "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 5 \
                    --threads 1 --no-timings --json";
        let partial = run_str(&format!(
            "{base} --checkpoint {} --halt-after 2",
            ck.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&partial).unwrap();
        assert_eq!(v["runs"].as_array().unwrap().len(), 2, "halted after 2");
        let resumed = run_str(&format!("{base} --checkpoint {} --resume", ck.display())).unwrap();
        let clean = run_str(base).unwrap();
        assert_eq!(resumed, clean, "resume must reproduce the clean sweep");
    }

    #[test]
    fn sweep_keep_going_records_failures() {
        // 3 nodes cannot cover 5 posts — every seed fails to build.
        let base = "sweep --posts 5 --nodes 3 --field 150 --algo idb --seeds 3";
        let out = run_str(&format!("{base} --keep-going --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["runs"].as_array().unwrap().len(), 0);
        assert_eq!(v["failures"].as_array().unwrap().len(), 3);
        let human = run_str(&format!("{base} --keep-going")).unwrap();
        assert!(human.contains("failed seeds"), "{human}");
        // Without --keep-going, the same sweep aborts with the error.
        assert!(run_str(base).is_err());
    }

    #[test]
    fn simulate_fault_injection_is_deterministic() {
        let cmd = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
                   --rounds 200 --bits 1000 --battery 0.01 --fault-seed 7 \
                   --kill 50:0 --outage 1:10:20 --charger-skip 0.2 --json";
        let a = run_str(cmd).unwrap();
        let b = run_str(cmd).unwrap();
        assert_eq!(a, b, "same fault seed must replay identically");
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert!(v["first_fault_round"].as_u64().unwrap() <= 10);
        assert!(v["reports_lost"].as_u64().unwrap() > 0);
        assert!(v["delivery_ratio"].as_f64().unwrap() < 1.0);
        assert!(v["rounds_after_first_fault"].as_u64().unwrap() > 0);
    }

    #[test]
    fn simulate_fault_human_output_has_degradation_line() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 100 --charger-skip 0.5",
        )
        .unwrap();
        assert!(out.contains("delivery ratio"), "{out}");
    }

    /// A fresh per-test scratch directory (cache stores compact on
    /// open, so leftovers from a previous run would skew hit counts).
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wrsn-cli-test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sweep_cached_rerun_is_all_hits_and_identical() {
        let dir = scratch("sweep-cache");
        let base = format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4 \
             --no-timings --json --cache {}",
            dir.display()
        );
        let first: serde_json::Value = serde_json::from_str(&run_str(&base).unwrap()).unwrap();
        assert_eq!(first["cache"]["hits"], 0);
        assert_eq!(first["cache"]["misses"], 4);
        assert_eq!(first["cache"]["appended"], 4);
        let second: serde_json::Value = serde_json::from_str(&run_str(&base).unwrap()).unwrap();
        assert_eq!(
            second["cache"]["hits"], 4,
            "rerun must be served entirely from the store"
        );
        assert_eq!(second["cache"]["misses"], 0);
        assert_eq!(second["cache"]["appended"], 0);
        assert_eq!(first["runs"], second["runs"]);
        assert_eq!(first["cost_uj"], second["cost_uj"]);
    }

    #[test]
    fn sweep_cache_human_output_reports_hits() {
        let dir = scratch("sweep-cache-human");
        let base = format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 2 --cache {}",
            dir.display()
        );
        let _ = run_str(&base).unwrap();
        let out = run_str(&base).unwrap();
        assert!(
            out.contains("cache: 2 hit(s), 0 miss(es), 0 appended"),
            "{out}"
        );
    }

    #[test]
    fn sweep_shard_rejects_malformed_and_out_of_range() {
        let base = "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4";
        assert!(run_str(&format!("{base} --shard 2"))
            .unwrap_err()
            .to_string()
            .contains("K/N"));
        assert!(run_str(&format!("{base} --shard a/b"))
            .unwrap_err()
            .to_string()
            .contains("K/N"));
        assert!(run_str(&format!("{base} --shard 0/2"))
            .unwrap_err()
            .to_string()
            .contains("1-based"));
        assert!(run_str(&format!("{base} --shard 3/2"))
            .unwrap_err()
            .to_string()
            .contains("1-based"));
    }

    #[test]
    fn merge_of_shard_logs_matches_an_unsharded_sweep_byte_for_byte() {
        let dir = scratch("sweep-shards");
        let base = "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 5 \
                    --no-timings --json";
        let mut logs = Vec::new();
        for shard in ["1/3", "2/3", "3/3"] {
            let ck = dir.join(format!("shard-{}.jsonl", shard.replace('/', "-")));
            let _ = run_str(&format!(
                "{base} --shard {shard} --checkpoint {}",
                ck.display()
            ))
            .unwrap();
            logs.push(ck.display().to_string());
        }
        let merged = run_str(&format!("merge --logs {} --json", logs.join(","))).unwrap();
        let clean = run_str(base).unwrap();
        assert_eq!(
            merged, clean,
            "merged shards must reproduce the unsharded sweep"
        );
    }

    #[test]
    fn merge_human_output_warns_about_missing_shards() {
        let dir = scratch("sweep-partial-merge");
        let ck = dir.join("shard-1-2.jsonl");
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4 \
             --shard 1/2 --checkpoint {}",
            ck.display()
        ))
        .unwrap();
        let out = run_str(&format!("merge --logs {}", ck.display())).unwrap();
        assert!(out.contains("== merge idb"), "{out}");
        assert!(out.contains("WARNING: 2 seed(s)"), "{out}");
    }

    #[test]
    fn merge_rejects_overlapping_logs_and_requires_logs() {
        let dir = scratch("sweep-overlap-merge");
        let ck = dir.join("full.jsonl");
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 2 --checkpoint {}",
            ck.display()
        ))
        .unwrap();
        let err = run_str(&format!("merge --logs {p},{p}", p = ck.display())).unwrap_err();
        assert!(err.to_string().contains("already covered"), "{err}");
        assert!(run_str("merge").unwrap_err().to_string().contains("--logs"));
        assert!(run_str("merge --help").unwrap().contains("--logs"));
    }

    #[test]
    fn sweep_compare_pairs_solvers_on_the_same_grid() {
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --seeds 3 --compare rfh,irfh,idb --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let reports = v.as_array().unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0]["solver"], "rfh");
        assert_eq!(reports[2]["solver"], "idb");
        for r in reports {
            let runs = r["runs"].as_array().unwrap();
            assert_eq!(runs.len(), 3);
            // Identical grid: every solver sees the same seeds.
            assert_eq!(runs[0]["seed"], reports[0]["runs"][0]["seed"]);
        }
        let human =
            run_str("sweep --posts 5 --nodes 10 --field 150 --seeds 3 --compare rfh,idb").unwrap();
        assert!(human.contains("== compare"), "{human}");
        assert!(human.contains("vs rfh"), "{human}");
        assert!(human.contains("%"), "{human}");
    }

    #[test]
    fn sweep_compare_reuses_the_result_store() {
        let dir = scratch("sweep-compare-cache");
        // Pre-warm the store with one of the two solvers.
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3 \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        let out = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --seeds 3 --compare rfh,idb \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let reports = v.as_array().unwrap();
        assert_eq!(reports[0]["cache"]["hits"], 0, "rfh was never cached");
        assert_eq!(reports[0]["cache"]["misses"], 3);
        assert_eq!(
            reports[1]["cache"]["hits"], 3,
            "idb column comes from the store"
        );
    }

    #[test]
    fn sweep_compare_rejects_conflicting_options() {
        let base = "sweep --posts 5 --nodes 10 --field 150 --seeds 2";
        assert!(run_str(&format!("{base} --compare rfh,idb --algo idb"))
            .unwrap_err()
            .to_string()
            .contains("--algo"));
        assert!(run_str(&format!("{base} --compare rfh"))
            .unwrap_err()
            .to_string()
            .contains("at least two"));
        assert!(run_str(&format!("{base} --compare rfh,idb --shard 1/2"))
            .unwrap_err()
            .to_string()
            .contains("--compare"));
    }

    #[test]
    fn simulate_rejects_malformed_fault_flags() {
        let base = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb --rounds 50";
        assert!(run_str(&format!("{base} --kill abc"))
            .unwrap_err()
            .to_string()
            .contains("--kill"));
        assert!(run_str(&format!("{base} --kill 1:999"))
            .unwrap_err()
            .to_string()
            .contains("fault plan"));
        assert!(run_str(&format!("{base} --outage 0:9:9"))
            .unwrap_err()
            .to_string()
            .contains("fault plan"));
        assert!(run_str(&format!("{base} --charger-skip 1.5"))
            .unwrap_err()
            .to_string()
            .contains("--charger-skip 1.5 out of range [0, 1]"));
        assert!(run_str(&format!("{base} --link-loss 2.0"))
            .unwrap_err()
            .to_string()
            .contains("--link-loss 2 out of range [0, 1]"));
        assert!(run_str(&format!("{base} --battery-fade -0.1"))
            .unwrap_err()
            .to_string()
            .contains("--battery-fade"));
        assert!(run_str(&format!("{base} --fade-floor 1.5"))
            .unwrap_err()
            .to_string()
            .contains("--fade-floor"));
        assert!(run_str(&format!("{base} --charger-down 10"))
            .unwrap_err()
            .to_string()
            .contains("--charger-down"));
        assert!(run_str(&format!("{base} --charger-down 9:9"))
            .unwrap_err()
            .to_string()
            .contains("fault plan"));
    }

    #[test]
    fn simulate_degradation_flags_replay_byte_identically() {
        let cmd = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
                   --rounds 300 --battery 0.001 --fault-seed 9 --battery-fade 0.1 \
                   --charger-down 20:80 --json";
        let a = run_str(cmd).unwrap();
        let b = run_str(cmd).unwrap();
        assert_eq!(a, b, "degradation runs must replay byte-identically");
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert_eq!(v["charger_downtime_rounds"], 60);
        assert!(v["capacity_floor_hits"].as_u64().is_some());
        assert!(v["breakdown_deaths"].as_u64().is_some());
    }

    #[test]
    fn simulate_link_loss_degrades_delivery() {
        let base = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb --rounds 50";
        let out = run_str(&format!("{base} --link-loss 1.0 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["delivery_ratio"], 0.0);
        assert_eq!(v["reports_delivered"], 0);
        assert!(v["link_losses"].as_u64().unwrap() > 0);
        // Without faults the field is present and zero.
        let out = run_str(&format!("{base} --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["link_losses"], 0);
        assert_eq!(v["delivery_ratio"], 1.0);
    }

    #[test]
    fn new_commands_have_help() {
        assert!(run_str("serve --help").unwrap().contains("--queue-depth"));
        assert!(run_str("loadgen --help").unwrap().contains("--concurrency"));
        assert!(run_str("cache --help").unwrap().contains("gc"));
        assert!(
            run_str("cache").unwrap().contains("gc"),
            "bare `cache` prints help"
        );
        assert!(run_str("cache frobnicate")
            .unwrap_err()
            .to_string()
            .contains("unknown cache subcommand"));
    }

    #[test]
    fn serve_and_loadgen_validate_their_options() {
        assert!(run_str("serve --workers 0")
            .unwrap_err()
            .to_string()
            .contains("--workers"));
        assert!(run_str("serve --queue-depth 0")
            .unwrap_err()
            .to_string()
            .contains("--queue-depth"));
        assert!(run_str("serve --addr not-an-address")
            .unwrap_err()
            .to_string()
            .contains("not-an-address"));
        assert!(run_str("loadgen --requests 0")
            .unwrap_err()
            .to_string()
            .contains("--requests"));
        // A dead server fails fast instead of producing an all-error report.
        assert!(run_str("loadgen --addr 127.0.0.1:9 --requests 1")
            .unwrap_err()
            .to_string()
            .contains("127.0.0.1:9"));
    }

    #[test]
    fn cache_gc_reclaims_stale_entries() {
        let dir = std::env::temp_dir().join("wrsn-cli-cache-gc");
        let _ = std::fs::remove_dir_all(&dir);
        // Populate via a cached sweep, then add one entry under a stale tag.
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3 \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        {
            let store = ResultStore::open(&dir).unwrap();
            let mut fp = wrsn_engine::FingerprintBuilder::new("wrsn-seedrun-v0");
            fp.push_str("stale");
            store
                .put_tagged(&fp.finish(), serde_json::from_str("{}").unwrap(), "old-tag")
                .unwrap();
        }
        let out = run_str(&format!("cache gc --cache {} --json", dir.display())).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["kept"], 3);
        assert_eq!(v["dropped_unreachable"], 1);
        assert_eq!(v["dropped_for_budget"], 0);
        // The kept entries still serve cache hits.
        let out = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3 \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["cache"]["hits"], 3);
        // A zero budget clears everything and reports reclaimed bytes.
        let out = run_str(&format!(
            "cache gc --cache {} --max-bytes 0 --json",
            dir.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["kept"], 0);
        assert_eq!(v["dropped_for_budget"], 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_loadgen_round_trip_with_cache() {
        let dir = std::env::temp_dir().join("wrsn-cli-serve-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut api = ApiContext::new();
        api.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, api).unwrap();
        let addr = handle.addr().to_string();
        let body = "{\"instance\":{\"posts\":5,\"nodes\":10,\"field\":150.0},\"solver\":\"idb\"}";
        let out = run_str(&format!(
            "loadgen --addr {addr} --concurrency 2 --requests 10 --body {} --json",
            body.replace(' ', "")
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"], 10);
        assert_eq!(v["errors"], 0);
        assert!(v["throughput_rps"].as_f64().unwrap() > 0.0);
        handle.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn loadgen_retries_through_a_chaotic_server() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            chaos: Some(wrsn_serve::ChaosPolicy::seeded(11).faults(0.3)),
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let body = "{\"instance\":{\"posts\":5,\"nodes\":10,\"field\":150.0},\"solver\":\"idb\"}";
        let out = run_str(&format!(
            "loadgen --addr {addr} --concurrency 2 --requests 12 --retries 8 --body {} --json",
            body.replace(' ', "")
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"], 12, "retries absorb every injected fault: {out}");
        assert_eq!(v["non_ok"], 0);
        assert_eq!(v["errors"], 0);
        assert!(v["retries"].as_u64().unwrap() > 0, "{out}");
        handle.shutdown().unwrap();
    }

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

    #[test]
    fn cache_verify_reports_a_clean_and_a_corrupt_store() {
        let dir = std::env::temp_dir().join("wrsn-cli-cache-verify");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let store = ResultStore::open(&dir).unwrap();
            for i in 0..3u64 {
                let mut b = wrsn_engine::FingerprintBuilder::new("cli-verify");
                b.push_u64(i);
                store.put(&b.finish(), i.to_value()).unwrap();
            }
            store.sync().unwrap();
        }
        let out = run_str(&format!("cache verify --cache {}", dir.display())).unwrap();
        assert!(out.contains("verdict: clean"), "{out}");
        let json = run_str(&format!("cache verify --cache {} --json", dir.display())).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v.get("records").and_then(serde_json::Value::as_u64),
            Some(3)
        );
        // Mangle an interior record line; verify must now fail.
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .unwrap();
        let text = std::fs::read_to_string(&segment).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = "{broken".to_string();
        std::fs::write(&segment, format!("{}\n", lines.join("\n"))).unwrap();
        let err = run_str(&format!("cache verify --cache {}", dir.display())).unwrap_err();
        assert!(err.to_string().contains("CORRUPT"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_and_loadgen_document_and_validate_the_new_flags() {
        assert!(run_str("serve --help").unwrap().contains("--max-conns"));
        let help = run_str("loadgen --help").unwrap();
        for flag in ["--connections", "--pipeline", "--job", "--bench-json"] {
            assert!(help.contains(flag), "missing {flag}");
        }
        assert!(run_str("serve --max-conns 0")
            .unwrap_err()
            .to_string()
            .contains("--max-conns"));
        assert!(run_str("serve --max-jobs 0")
            .unwrap_err()
            .to_string()
            .contains("--max-jobs"));
        assert!(run_str("serve --keep-alive-max-requests 0")
            .unwrap_err()
            .to_string()
            .contains("--keep-alive-max-requests"));
        assert!(run_str("loadgen --connections 0")
            .unwrap_err()
            .to_string()
            .contains("--connections"));
        assert!(run_str("loadgen --pipeline 0")
            .unwrap_err()
            .to_string()
            .contains("--pipeline"));
    }

    #[test]
    fn loadgen_keep_alive_mode_reports_the_fleet_and_writes_bench_json() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let bench = std::env::temp_dir().join("wrsn-cli-bench-serve.json");
        let _ = std::fs::remove_file(&bench);
        let out = run_str(&format!(
            "loadgen --addr {addr} --connections 3 --pipeline 2 --requests 12 \
             --method GET --path /healthz --bench-json {} --json",
            bench.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"], 12, "{out}");
        assert_eq!(v["errors"], 0);
        assert_eq!(v["connections"], 3);
        // --bench-json mirrors the same report to a file.
        let filed = std::fs::read_to_string(&bench).unwrap();
        assert_eq!(filed, out);
        handle.shutdown().unwrap();
        let _ = std::fs::remove_file(bench);
    }

    #[test]
    fn loadgen_job_mode_round_trips_an_async_sweep() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let spec = "{\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0},\"seeds\":2}";
        let out = run_str(&format!("loadgen --addr {addr} --job --body {spec} --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["state"], "done", "{out}");
        assert_eq!(v["events"], 2);
        assert!(v["final"]["report"].as_object().is_some(), "{out}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn loadgen_job_sends_the_tenant_key_to_a_keyed_server() {
        let tenants =
            wrsn_serve::tenant::parse_tenants(r#"{"name": "solo", "key": "solo-key"}"#).unwrap();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            tenants: Some(tenants),
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let spec = "{\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0},\"seeds\":2}";
        let out = run_str(&format!(
            "loadgen --addr {addr} --job --tenant solo-key --body {spec} --json"
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["state"], "done", "{out}");
        assert_eq!(v["events"], 2);
        // Without the key the submit is refused.
        let err = run_str(&format!("loadgen --addr {addr} --job --body {spec}")).unwrap_err();
        assert!(err.to_string().contains("401"), "{err}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn loadgen_refuses_a_flag_its_mode_does_not_read() {
        for (cmd, flag) in [
            (
                "loadgen --tenants-file t.jsonl --connections 3 --pipeline 4",
                "--connections",
            ),
            (
                "loadgen --connections 2 --retries 3 --concurrency 9",
                "--concurrency, --retries",
            ),
            (
                "loadgen --addrs 127.0.0.1:9,127.0.0.1:10 --pipeline 8",
                "--pipeline",
            ),
            ("loadgen --addrs 127.0.0.1:9 --job", "--addrs"),
            ("loadgen --job --requests 5", "--requests"),
            ("loadgen --pipeline 2", "--pipeline"),
            ("loadgen --addrs 127.0.0.1:9 --addr 127.0.0.1:9", "--addr"),
            ("loadgen --tenants-file t.jsonl --tenant k", "--tenant"),
        ] {
            let err = run_str(cmd).unwrap_err().to_string();
            assert!(
                err.contains(&format!("does not read {flag}")),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn sweep_refuses_a_retry_count_with_no_room_for_the_first_attempt() {
        for extra in ["--algo idb", "--compare rfh,idb"] {
            let err = run_str(&format!(
                "sweep --posts 5 --nodes 10 --field 150 --seeds 2 {extra} \
                 --max-retries 4294967295"
            ))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--max-retries must be below 4294967295"),
                "{extra}: {err}"
            );
        }
        // One below is the largest budget a seed can have.
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --seeds 2 --algo idb \
             --max-retries 4294967294 --no-timings --json",
        )
        .unwrap();
        assert!(out.contains("\"attempts\": 1"), "{out}");
    }

    #[test]
    fn sweep_refuses_a_seed_range_past_the_last_seed() {
        for extra in ["--algo idb", "--compare rfh,idb"] {
            let err = run_str(&format!(
                "sweep --posts 5 --nodes 10 --field 150 {extra} \
                 --seed-start 18446744073709551615 --seeds 2"
            ))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--seed-start + --seeds overflows"),
                "{extra}: {err}"
            );
        }
        // The last seed alone is a range of one.
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb \
             --seed-start 18446744073709551614 --seeds 1 --no-timings --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["runs"].as_array().map(Vec::len), Some(1), "{out}");
    }

    /// One random simulate spec on a small instance, drawn from `picks`
    /// and rendered both as `wrsn simulate --json` argv and as a
    /// `/v1/simulate` body. In one case of four, one setting is out of
    /// range.
    fn random_simulate_spec(picks: &[u64]) -> (Vec<String>, serde::Value) {
        let mut picks = picks.iter().copied();
        let mut pick = |n: u64| picks.next().expect("enough picks") % n;
        let posts = 4 + pick(5);
        let rounds = 20 + pick(281);
        let broken = pick(4 * 14);
        let mut argv: Vec<String> = format!(
            "simulate --posts {posts} --nodes {} --field 200 --rounds {rounds} --json",
            posts * 3
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let instance = InstanceParams {
            posts: posts as usize,
            nodes: posts as u32 * 3,
            field: 200.0,
            ..InstanceParams::default()
        };
        let mut body = vec![
            ("instance".to_string(), instance.to_value()),
            ("rounds".to_string(), rounds.to_value()),
        ];
        let mut set = |flag: &str, key: &str, arg: String, json: serde::Value| {
            argv.extend([format!("--{flag}"), arg]);
            body.push((key.to_string(), json));
        };
        let solver = ["idb", "rfh", "irfh", "sched-tour", "sched-place"][pick(5) as usize];
        set("algo", "solver", solver.into(), solver.to_value());
        let seed = pick(4);
        set("seed", "seed", seed.to_string(), seed.to_value());
        let policy = match (broken, pick(4)) {
            (0, _) => "teleport",
            (_, 0) => "threshold",
            (_, 1) => "none",
            _ => "tour",
        };
        set("policy", "policy", policy.into(), policy.to_value());
        // An optional setting is present half the time, and always when
        // it is the broken one.
        let mut f64_setting = |index, flag: &str, key: &str, valid: &[f64], bad: f64| {
            let v = match (broken == index, pick(2)) {
                (true, _) => bad,
                (false, 0) => valid[pick(valid.len() as u64) as usize],
                _ => return,
            };
            set(flag, key, v.to_string(), v.to_value());
        };
        f64_setting(1, "battery", "battery_j", &[0.001, 0.002, 0.01, 0.1], 0.0);
        f64_setting(2, "speed", "speed_mps", &[3.0, 8.0, 25.0, 60.0], 5000.0);
        f64_setting(3, "power", "power_w", &[0.5, 2.0, 10.0], -1.0);
        f64_setting(4, "charger-skip", "charger_skip", &[0.0, 0.2, 0.6], 1.5);
        f64_setting(5, "charger-delay", "charger_delay", &[0.0, 0.5, 1.0], 2.0);
        f64_setting(6, "delay-s", "delay_s", &[1.0, 12.0, 40.0], -3.0);
        f64_setting(7, "link-loss", "link_loss", &[0.0, 0.05, 0.3], 1.2);
        f64_setting(8, "battery-fade", "battery_fade", &[0.0, 0.05, 0.3], -0.1);
        f64_setting(9, "fade-floor", "fade_floor", &[0.1, 0.6, 0.95], 1.1);
        let mut u64_setting = |index, flag: &str, key: &str, valid: &[u64], bad: u64| {
            let v = match (broken == index, pick(2)) {
                (true, _) => bad,
                (false, 0) => valid[pick(valid.len() as u64) as usize],
                _ => return,
            };
            set(flag, key, v.to_string(), v.to_value());
        };
        u64_setting(10, "chargers", "chargers", &[1, 2, 3], 0);
        u64_setting(15, "bits", "bits_per_report", &[500, 1000, 8000], 0);
        u64_setting(15, "timeline", "timeline", &[10, 25, 60], 0);
        u64_setting(15, "fault-seed", "fault_seed", &[0, 3, 11], 0);
        // ROUND:POST, POST:FROM:UNTIL and FROM:UNTIL lists. A broken one
        // names the post one past the last, or an empty window.
        for (index, flag, key) in [
            (11, "kill", "kill"),
            (12, "outage", "outage"),
            (13, "charger-down", "charger_down"),
        ] {
            if broken != index && pick(2) == 0 {
                continue;
            }
            let entries: Vec<Vec<u64>> = (0..1 + pick(2))
                .map(|_| {
                    let post = if broken == index { posts } else { pick(posts) };
                    let from = pick(rounds);
                    let until = if broken == index {
                        from
                    } else {
                        from + 1 + pick(40)
                    };
                    match flag {
                        "kill" => vec![from, post],
                        "outage" => vec![post, from, until],
                        _ => vec![from, until],
                    }
                })
                .collect();
            let arg: Vec<String> = entries
                .iter()
                .map(|e| e.iter().map(u64::to_string).collect::<Vec<_>>().join(":"))
                .collect();
            set(flag, key, arg.join(","), entries.to_value());
        }
        if pick(4) == 0 {
            argv.push("--sched-tour".to_string());
            body.push(("sched_tour".to_string(), true.to_value()));
        }
        (argv, serde::Value::Object(body))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// `wrsn simulate --json` and `/v1/simulate` give equal documents
        /// for one spec, or both reject it naming the same setting.
        #[test]
        fn cli_and_http_simulate_agree(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 64)
        ) {
            let (argv, body) = random_simulate_spec(&picks);
            let req = SimulateRequest::from_value(&body).unwrap();
            let reparse = |text: &str| serde_json::from_str::<serde_json::Value>(text).unwrap();
            match (run(&argv), ApiContext::new().simulate(&req)) {
                (Ok(cli), Ok(http)) => {
                    let http = serde_json::to_string(&http.body).unwrap();
                    proptest::prop_assert_eq!(reparse(&cli), reparse(&http), "{:?}", argv);
                }
                (Err(cli), Err(http)) => {
                    // The HTTP message names the key, the CLI's the flag.
                    let key = http.message.split(' ').next().unwrap_or_default();
                    let named = body.get(key).map(|_| {
                        http.message.replacen(key, &flag_of(key), 1)
                    });
                    proptest::prop_assert_eq!(
                        cli.to_string(),
                        named.unwrap_or(http.message),
                        "{:?}",
                        argv
                    );
                }
                (cli, http) => panic!("{argv:?}: CLI {cli:?} but HTTP {http:?}"),
            }
        }
    }
}
