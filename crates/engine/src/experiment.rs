//! The `Experiment` builder: one (instance source × solver × seed
//! range) cell of the paper's evaluation grid, run as a parallel sweep
//! with optional fault tolerance, streaming checkpoints, and resume.

use crate::runner::{Failure, SeedOutcome};
use crate::{
    CheckpointLog, EngineError, RetryPolicy, RunReport, SeedFailure, SeedRun, SolverRegistry,
    SweepCheckpoint, SweepRunner,
};
use parking_lot::Mutex;
use serde::{Deserialize as _, Serialize as _};
use std::fmt::{self, Write as _};
use std::ops::{ControlFlow, Range};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use wrsn_core::{Instance, InstanceSampler, InstanceSpec, ScenarioSpec};
use wrsn_store::{
    CacheStats, DurabilityPolicy, Fingerprint, FingerprintBuilder, RealFs, ResultStore, Vfs,
};

/// The engine crate version baked into every cache fingerprint, so a
/// rebuilt engine (potentially different solver behavior) never reuses
/// stale cached results.
pub const ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The reachability tag stamped on every cache entry this engine
/// writes: fingerprint-scheme domain plus engine version. `wrsn cache
/// gc` keeps exactly the entries carrying the current tag — anything
/// else (older engine versions, older schemes, untagged legacy
/// segments) is by construction unreachable from today's
/// [`seed_fingerprint_scenario`] keys and safe to drop.
#[must_use]
pub fn cache_tag() -> String {
    format!("wrsn-seedrun-v1/{ENGINE_VERSION}")
}

/// Where an experiment's instances come from.
#[derive(Debug, Clone)]
pub enum InstanceSource {
    /// Draw a fresh random instance per seed (the paper's "20 post
    /// distributions" style of evaluation).
    Sampled(InstanceSampler),
    /// Rebuild the same pinned instance for every seed — for saved specs
    /// where the sweep varies only the solver's environment, or for
    /// single-instance runs.
    Spec(InstanceSpec),
}

impl InstanceSource {
    /// Materializes the instance for `seed` (ignored for pinned specs).
    ///
    /// # Errors
    ///
    /// [`EngineError::Build`] when the sampler configuration is
    /// infeasible or the spec describes an invalid instance.
    pub fn instance(&self, seed: u64) -> Result<Instance, EngineError> {
        match self {
            InstanceSource::Sampled(sampler) => {
                sampler.try_sample(seed).map_err(EngineError::Build)
            }
            InstanceSource::Spec(spec) => spec.build().map_err(EngineError::Build),
        }
    }
}

/// The cache fingerprint of one sweep cell: everything that determines
/// its [`SeedRun`] — the instance source's full configuration, the
/// solver's registry name, the engine crate version, whether history
/// capture was on, and the seed itself. Changing any component (a
/// renamed solver, a version bump, a different sampler) yields a
/// different key, so stale cached results are never reused.
///
/// A `Some` namespace (the serve layer's isolated tenants) keys a
/// disjoint slice of the store. A `Some` scenario folds its canonical
/// JSON into the key, so any scenario-parameter change invalidates
/// cached scheduling runs. With both `None` the key is the one written
/// before namespaces and scenarios existed, so older stores stay valid.
///
/// This is [`KeyPrefix::new`] followed by [`KeyPrefix::key`]: callers
/// that key many seeds of one cell build the prefix once.
#[must_use]
pub fn seed_fingerprint_scenario(
    namespace: Option<&str>,
    scenario: Option<&ScenarioSpec>,
    source: &InstanceSource,
    solver: &str,
    engine_version: &str,
    capture_history: bool,
    seed: u64,
) -> Fingerprint {
    KeyPrefix::new(
        namespace,
        scenario,
        source,
        solver,
        engine_version,
        capture_history,
    )
    .key(seed)
}

/// Everything a sweep cell's store key absorbs before its seed. The
/// sampler's rendering dominates the key's cost and no seed changes
/// it, so a sweep builds the prefix once and finishes each seed's key
/// from a copy, with the same bytes as [`seed_fingerprint_scenario`].
///
/// # Examples
///
/// ```
/// use wrsn_core::InstanceSampler;
/// use wrsn_engine::{seed_fingerprint_scenario, InstanceSource, KeyPrefix, ENGINE_VERSION};
/// use wrsn_geom::Field;
///
/// let source = InstanceSource::Sampled(InstanceSampler::new(Field::square(200.0), 10, 30));
/// let prefix = KeyPrefix::new(None, None, &source, "idb", ENGINE_VERSION, false);
/// let key = seed_fingerprint_scenario(None, None, &source, "idb", ENGINE_VERSION, false, 7);
/// assert_eq!(prefix.key(7), key);
/// ```
#[derive(Debug, Clone)]
pub struct KeyPrefix(FingerprintBuilder);

impl KeyPrefix {
    /// Absorbs the cell's namespace, scenario, engine version, solver,
    /// instance source and history flag, in the key's order.
    #[must_use]
    pub fn new(
        namespace: Option<&str>,
        scenario: Option<&ScenarioSpec>,
        source: &InstanceSource,
        solver: &str,
        engine_version: &str,
        capture_history: bool,
    ) -> Self {
        let mut fp = FingerprintBuilder::new("wrsn-seedrun-v1");
        if let Some(ns) = namespace {
            fp.push_str("tenant");
            fp.push_str(ns);
        }
        if let Some(spec) = scenario {
            fp.push_str("scenario");
            fp.push_str(&spec.canonical_json());
        }
        fp.push_str(engine_version);
        fp.push_str(solver);
        match source {
            InstanceSource::Sampled(sampler) => {
                fp.push_str("sampled");
                // The sampler's Debug form spells out every parameter
                // (field, counts, levels, radio, charge model), so any
                // configuration change invalidates the key. It runs to
                // about 300 bytes at three levels: sizing the buffer
                // once spares the six regrowths `format!` would make.
                let mut text = String::with_capacity(512);
                write!(text, "{sampler:?}").expect("formatting into a String cannot fail");
                fp.push_str(&text);
            }
            InstanceSource::Spec(spec) => {
                fp.push_str("spec");
                fp.push_str(&spec.to_json());
            }
        }
        fp.push_bool(capture_history);
        KeyPrefix(fp)
    }

    /// The store key of `seed` under this prefix.
    #[must_use]
    pub fn key(&self, seed: u64) -> Fingerprint {
        let mut fp = self.0.clone();
        fp.push_u64(seed);
        fp.finish()
    }
}

/// A per-seed progress notification from a running sweep — how the CLI
/// prints live progress lines and how the job API feeds its
/// [`ProgressFeed`](crate::ProgressFeed).
///
/// Every terminal seed is announced once. Seeds known before any worker
/// starts — restored from a resumed checkpoint or replayed from the
/// result store — come first, in seed order. Each seed the sweep runs
/// follows from its worker thread, possibly out of seed order, once it
/// is committed: put into the store, then appended to the checkpoint,
/// all under the sweep's bookkeeping lock. So the events mirror the
/// checkpoint log line for line. After the first write error nothing
/// more is written or announced. `done`/`total` count seeds including
/// the restored and replayed ones; `done` is counted under that lock,
/// so it rises by one from each event to the next.
#[derive(Debug, Clone, Copy)]
pub enum SeedEvent<'a> {
    /// A seed completed successfully.
    Completed {
        /// The finished run (attempts already filled in).
        run: &'a SeedRun,
        /// Seeds committed so far, counting restored and replayed ones.
        done: usize,
        /// Total seeds in the sweep.
        total: usize,
    },
    /// A seed exhausted its retry budget.
    Failed {
        /// The recorded failure.
        failure: &'a SeedFailure,
        /// Seeds committed so far, counting restored and replayed ones.
        done: usize,
        /// Total seeds in the sweep.
        total: usize,
    },
}

type SeedObserver = dyn Fn(SeedEvent<'_>) + Send + Sync;

/// A reproducible experiment: instance source, solver (by registry
/// name), and seed range, swept in parallel with deterministic per-seed
/// results.
///
/// Fault tolerance is opt-in per axis: [`Experiment::retry`] bounds
/// per-seed retries, [`Experiment::keep_going`] records failed seeds in
/// the report instead of aborting, [`Experiment::checkpoint`] streams an
/// incremental JSON checkpoint after every completed seed, and
/// [`Experiment::resume`] skips seeds a previous (interrupted) run
/// already completed.
///
/// # Examples
///
/// ```
/// use wrsn_core::InstanceSampler;
/// use wrsn_engine::{Experiment, SolverRegistry};
/// use wrsn_geom::Field;
///
/// let registry = SolverRegistry::with_defaults();
/// let report = Experiment::sampled(InstanceSampler::new(Field::square(150.0), 5, 10))
///     .solver("idb")
///     .seeds(0..4)
///     .run(&registry)?;
/// assert_eq!(report.runs.len(), 4);
/// assert!(report.cost_uj.mean > 0.0);
/// # Ok::<(), wrsn_engine::EngineError>(())
/// ```
#[derive(Clone)]
pub struct Experiment {
    label: String,
    source: InstanceSource,
    solver: String,
    seeds: Range<u64>,
    runner: SweepRunner,
    capture_history: bool,
    retry: RetryPolicy,
    keep_going: bool,
    checkpoint: Option<PathBuf>,
    resume: bool,
    halt_after: Option<usize>,
    record_timings: bool,
    shard: Option<(u32, u32)>,
    cache: Option<Arc<ResultStore>>,
    cache_namespace: Option<String>,
    scenario: Option<ScenarioSpec>,
    on_seed: Option<Arc<SeedObserver>>,
    vfs: Option<Arc<dyn Vfs>>,
    durability: DurabilityPolicy,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("label", &self.label)
            .field("source", &self.source)
            .field("solver", &self.solver)
            .field("seeds", &self.seeds)
            .field("runner", &self.runner)
            .field("capture_history", &self.capture_history)
            .field("retry", &self.retry)
            .field("keep_going", &self.keep_going)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("halt_after", &self.halt_after)
            .field("record_timings", &self.record_timings)
            .field("shard", &self.shard)
            .field("cache", &self.cache.as_ref().map(|s| s.dir().to_path_buf()))
            .field("cache_namespace", &self.cache_namespace)
            .field("scenario", &self.scenario)
            .field("on_seed", &self.on_seed.as_ref().map(|_| "<callback>"))
            .field("vfs", &self.vfs)
            .field("durability", &self.durability)
            .finish()
    }
}

impl Experiment {
    /// An experiment over the given instance source, with defaults:
    /// solver `"irfh"`, seed range `0..1`, a parallel runner, no history
    /// capture, no retries, and no checkpointing.
    #[must_use]
    pub fn new(source: InstanceSource) -> Self {
        Experiment {
            label: String::new(),
            source,
            solver: "irfh".to_string(),
            seeds: 0..1,
            runner: SweepRunner::new(),
            capture_history: false,
            retry: RetryPolicy::none(),
            keep_going: false,
            checkpoint: None,
            resume: false,
            halt_after: None,
            record_timings: true,
            shard: None,
            cache: None,
            cache_namespace: None,
            scenario: None,
            on_seed: None,
            vfs: None,
            durability: DurabilityPolicy::default(),
        }
    }

    /// An experiment drawing a fresh random instance per seed.
    #[must_use]
    pub fn sampled(sampler: InstanceSampler) -> Self {
        Experiment::new(InstanceSource::Sampled(sampler))
    }

    /// An experiment over one pinned instance spec.
    #[must_use]
    pub fn from_spec(spec: InstanceSpec) -> Self {
        Experiment::new(InstanceSource::Spec(spec))
    }

    /// Sets the free-form label carried into the report (defaults to the
    /// solver name).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the solver by registry name.
    #[must_use]
    pub fn solver(mut self, name: impl Into<String>) -> Self {
        self.solver = name.into();
        self
    }

    /// The configured solver's registry name.
    #[must_use]
    pub fn solver_name(&self) -> &str {
        &self.solver
    }

    /// Sets the seed range.
    #[must_use]
    pub fn seeds(mut self, seeds: Range<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the sweep runner (thread count).
    #[must_use]
    pub fn runner(mut self, runner: SweepRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Whether to record each solver's per-improvement cost trace in the
    /// report (one entry per RFH iteration; single-entry for one-shot
    /// solvers).
    #[must_use]
    pub fn capture_history(mut self, capture: bool) -> Self {
        self.capture_history = capture;
        self
    }

    /// Sets the per-seed retry policy (default: a single attempt).
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// When `true`, a seed that fails every attempt is recorded in the
    /// report's failure list and the remaining seeds still run to
    /// completion; when `false` (the default), the sweep finishes and
    /// then returns the first failure as an error.
    #[must_use]
    pub fn keep_going(mut self, keep_going: bool) -> Self {
        self.keep_going = keep_going;
        self
    }

    /// Streams an incremental [`SweepCheckpoint`] to `path` after every
    /// completed seed, so a crash loses at most the seed in flight.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// When `true`, loads the checkpoint file (if it exists) before
    /// running and skips the seeds it already completed; previously
    /// failed seeds are retried. Requires [`Experiment::checkpoint`].
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Stops the sweep after this many newly processed seeds, leaving
    /// the rest for a later `resume` — deterministic sweep interruption
    /// for tests and sharded runs. Exact under a sequential runner.
    #[must_use]
    pub fn halt_after(mut self, seeds: usize) -> Self {
        self.halt_after = Some(seeds);
        self
    }

    /// When `false`, per-seed wall-clock fields are recorded as zero so
    /// two runs of the same sweep serialize byte-identically (the
    /// checkpoint/resume equivalence tests rely on this). Default `true`.
    #[must_use]
    pub fn record_timings(mut self, record: bool) -> Self {
        self.record_timings = record;
        self
    }

    /// Restricts the sweep to shard `index` of `count` (1-based): only
    /// seeds with `(seed - start) % count == index - 1` are processed.
    /// Combine with [`Experiment::checkpoint`] to write a shard log that
    /// [`crate::merge_checkpoints`] can fold back into the full sweep.
    #[must_use]
    pub fn shard(mut self, index: u32, count: u32) -> Self {
        self.shard = Some((index, count));
        self
    }

    /// Routes the sweep through a content-addressed [`ResultStore`]:
    /// seeds whose [`seed_fingerprint_scenario`] is already present skip
    /// the solve entirely (replaying the stored run, with zeroed
    /// timings), and each freshly solved seed is put into the store as
    /// it finishes, before its checkpoint line is written. The report's
    /// `cache` block records the hit/miss/append counts.
    #[must_use]
    pub fn cache(mut self, store: Arc<ResultStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// Keys every cache fingerprint under `namespace` (see
    /// [`seed_fingerprint_scenario`]): runs in different namespaces
    /// never share cached results. The default — no namespace —
    /// fingerprints exactly as before, so existing stores stay valid.
    #[must_use]
    pub fn cache_namespace(mut self, namespace: impl Into<String>) -> Self {
        self.cache_namespace = Some(namespace.into());
        self
    }

    /// Declares the charging scenario this sweep runs under: [`run`]
    /// binds the registry's scheduling solvers to it (see
    /// [`SolverRegistry::scenario_overlay`]) and folds it into every
    /// cache fingerprint, so runs under different scenarios never share
    /// a key. Scenario-free sweeps (the default) use the registry as
    /// given and fingerprint exactly as before.
    ///
    /// [`run`]: Experiment::run
    #[must_use]
    pub fn scenario(mut self, spec: ScenarioSpec) -> Self {
        self.scenario = Some(spec);
        self
    }

    /// Routes the checkpoint log through `vfs` instead of the real
    /// filesystem. Production callers never need this; fault-injection
    /// tests pass a [`wrsn_store::FaultFs`] here to exercise crash and
    /// ENOSPC recovery deterministically.
    #[must_use]
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Sets the fsync discipline for the checkpoint log. Under
    /// [`DurabilityPolicy::Fsync`] every appended batch is fsynced
    /// before the seed is considered committed, so a crash never loses
    /// an acknowledged run. The default [`DurabilityPolicy::Flush`]
    /// only flushes to the OS page cache.
    #[must_use]
    pub fn durability(mut self, durability: DurabilityPolicy) -> Self {
        self.durability = durability;
        self
    }

    /// Installs the sweep's observer: `callback` hears of every terminal
    /// seed, restored and replayed ones included, once that seed is
    /// committed (see [`SeedEvent`] for the order). The CLI prints
    /// progress lines from it; the job API publishes into a
    /// [`ProgressFeed`](crate::ProgressFeed).
    #[must_use]
    pub fn on_seed<F>(mut self, callback: F) -> Self
    where
        F: Fn(SeedEvent<'_>) + Send + Sync + 'static,
    {
        self.on_seed = Some(Arc::new(callback));
        self
    }

    fn report_label(&self) -> String {
        if self.label.is_empty() {
            self.solver.clone()
        } else {
            self.label.clone()
        }
    }

    /// Runs the sweep: one instance + solver run per seed, fanned out
    /// across the runner's workers. Per-seed results are deterministic
    /// and independent of the worker count — every seed's work happens
    /// entirely on one thread, and results are collected in seed order.
    /// The solver comes from `registry`, with the scheduling solvers
    /// bound to [`Experiment::scenario`] when one is set.
    ///
    /// Panicking or erroring seeds are caught and retried under the
    /// retry policy; the remaining seeds still run to completion. What
    /// happens to a seed that exhausts its attempts depends on
    /// [`Experiment::keep_going`]. A store or checkpoint write error is
    /// different: no seed starts after it, and the error is returned.
    ///
    /// # Errors
    ///
    /// - [`EngineError::NoSeeds`] for an empty seed range;
    /// - [`EngineError::UnknownSolver`] if the registry lacks the name;
    /// - [`EngineError::Checkpoint`] if a checkpoint cannot be loaded,
    ///   matched, or written;
    /// - without `keep_going`: [`EngineError::Build`] if an instance
    ///   cannot be materialized, [`EngineError::Solve`] (tagged with the
    ///   failing seed) if the solver rejects an instance, or
    ///   [`EngineError::SeedPanicked`] if it panicked.
    pub fn run(&self, registry: &SolverRegistry) -> Result<RunReport, EngineError> {
        if self.seeds.is_empty() {
            return Err(EngineError::NoSeeds);
        }
        if let Some((index, count)) = self.shard {
            if count == 0 || index == 0 || index > count {
                return Err(EngineError::BadShard { index, count });
            }
        }
        let factory = registry.factory_in(&self.solver, self.scenario.as_ref())?;
        let label = self.report_label();

        // Restore prior progress when resuming.
        let mut state = SweepCheckpoint::new(&label, &self.solver, self.seeds.clone());
        if let Some((index, count)) = self.shard {
            state.shard_index = Some(index);
            state.shard_count = Some(count);
        }
        if self.resume {
            let path = self
                .checkpoint
                .as_ref()
                .ok_or_else(|| EngineError::Checkpoint {
                    path: PathBuf::from("<unset>"),
                    message: "resume requested without a checkpoint path".to_string(),
                })?;
            if path.exists() {
                let loaded = SweepCheckpoint::load(path)?;
                loaded.check_compatible(&self.solver, &self.seeds, self.shard, path)?;
                // Completed seeds are kept; failed seeds get a fresh try.
                state.runs = loaded.runs;
            }
        }
        let in_shard = |seed: u64| match self.shard {
            None => true,
            Some((index, count)) => {
                (seed - self.seeds.start) % u64::from(count) == u64::from(index - 1)
            }
        };
        let done = state.completed_seeds();
        let total = self.seeds.clone().filter(|&s| in_shard(s)).count();
        let mut pending: Vec<u64> = self
            .seeds
            .clone()
            .filter(|&s| in_shard(s) && !done.contains(&s))
            .collect();

        // Cache pre-pass: seeds whose fingerprint is already stored are
        // restored from the cache (like resumed seeds) and never reach
        // the solver; the rest stay pending.
        let mut cache_stats = CacheStats::default();
        // One key prefix serves every seed's read and write; a sweep
        // without a store builds none.
        let cache = self.cache.as_ref().map(|store| {
            let prefix = KeyPrefix::new(
                self.cache_namespace.as_deref(),
                self.scenario.as_ref(),
                &self.source,
                &self.solver,
                ENGINE_VERSION,
                self.capture_history,
            );
            (store, prefix)
        });
        if let Some((store, prefix)) = &cache {
            let mut misses = Vec::with_capacity(pending.len());
            for seed in pending {
                // An unreadable payload (future format change) counts as
                // a miss and is recomputed.
                let hit = store
                    .get(&prefix.key(seed))
                    .and_then(|payload| SeedRun::from_value(&payload).ok());
                match hit {
                    Some(run) => {
                        cache_stats.hits += 1;
                        state.record_run(run);
                    }
                    None => {
                        cache_stats.misses += 1;
                        misses.push(seed);
                    }
                }
            }
            pending = misses;
        }
        let prior = total - pending.len();

        let work = |seed: u64| -> Result<SeedRun, EngineError> {
            let setup_start = Instant::now();
            let instance = self.source.instance(seed)?;
            let setup_ms = if self.record_timings {
                setup_start.elapsed().as_secs_f64() * 1e3
            } else {
                0.0
            };
            let solver = factory();
            let solve_start = Instant::now();
            let (solution, history) =
                solver
                    .solve_traced(&instance)
                    .map_err(|error| EngineError::Solve {
                        solver: self.solver.clone(),
                        seed,
                        error,
                    })?;
            let solve_ms = if self.record_timings {
                solve_start.elapsed().as_secs_f64() * 1e3
            } else {
                0.0
            };
            Ok(SeedRun {
                seed,
                cost_uj: solution.total_cost().as_ujoules(),
                setup_ms,
                solve_ms,
                attempts: 1,
                cost_history_uj: if self.capture_history {
                    history.iter().map(|c| c.as_ujoules()).collect()
                } else {
                    Vec::new()
                },
            })
        };

        // The checkpoint log is opened (compacting restored and cached
        // progress in) before any worker runs, so even a sweep killed on
        // its first seed leaves a loadable log behind.
        let log = match &self.checkpoint {
            Some(path) => {
                let vfs: Arc<dyn Vfs> = match &self.vfs {
                    Some(vfs) => Arc::clone(vfs),
                    None => Arc::new(RealFs::new()),
                };
                Some(CheckpointLog::open_on(
                    &*vfs,
                    path,
                    &state,
                    self.durability.is_fsync(),
                )?)
            }
            None => None,
        };
        let announce = |event: SeedEvent<'_>| {
            if let Some(callback) = &self.on_seed {
                callback(event);
            }
        };
        // Restored and replayed seeds are already compacted into the
        // log, in seed order: announce them first, in that order.
        for (run, done) in state.runs.iter().zip(1..) {
            announce(SeedEvent::Completed { run, done, total });
        }

        // Each finished seed is committed once, under one lock: put into
        // the store (timings zeroed, so a later hit truthfully reports
        // zero wall-clock and payloads stay deterministic), appended to
        // the checkpoint, then announced. A killed sweep's checkpoint
        // thus never holds a seed the store lacks. The first write error
        // stops further writes, and further solves: every seed not yet
        // started is skipped, and the error is returned.
        let store_run = |run: &SeedRun, stats: &mut CacheStats| -> Result<(), EngineError> {
            if let Some((store, prefix)) = &cache {
                let payload = SeedRun {
                    setup_ms: 0.0,
                    solve_ms: 0.0,
                    ..run.clone()
                };
                if store.put_tagged(&prefix.key(run.seed), payload.to_value(), &cache_tag())? {
                    stats.appended += 1;
                }
            }
            Ok(())
        };
        // `done` counts the seeds committed so far, under the lock that
        // orders the commits, so that announcements count up in the
        // order of the checkpoint's lines.
        let shared = Mutex::new((state, log, cache_stats, None::<EngineError>, prior));
        let observe = |seed: u64, outcome: &SeedOutcome<SeedRun, EngineError>, _processed| {
            let mut guard = shared.lock();
            let (state, log, stats, write_error, done) = &mut *guard;
            *done += 1;
            let done = *done;
            match outcome {
                SeedOutcome::Ok { value, attempts } => {
                    let run = SeedRun {
                        attempts: *attempts,
                        ..value.clone()
                    };
                    if write_error.is_none() {
                        let written = store_run(&run, stats)
                            .and_then(|()| log.as_mut().map_or(Ok(()), |log| log.append_run(&run)));
                        match written {
                            Ok(()) => announce(SeedEvent::Completed {
                                run: &run,
                                done,
                                total,
                            }),
                            Err(e) => *write_error = Some(e),
                        }
                    }
                    state.record_run(run);
                }
                SeedOutcome::Failed { failure, attempts } => {
                    let failure = SeedFailure {
                        seed,
                        attempts: *attempts,
                        error: failure.to_string(),
                    };
                    if write_error.is_none() {
                        match log
                            .as_mut()
                            .map_or(Ok(()), |log| log.append_failure(&failure))
                        {
                            Ok(()) => announce(SeedEvent::Failed {
                                failure: &failure,
                                done,
                                total,
                            }),
                            Err(e) => *write_error = Some(e),
                        }
                    }
                    state.record_failure(failure);
                }
                SeedOutcome::Skipped => {}
            }
            if write_error.is_some() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };

        let outcomes =
            self.runner
                .run_fault_tolerant(&pending, self.retry, self.halt_after, work, observe);

        let (state, _log, cache_stats, write_error, _done) = shared.into_inner();
        if let Some(e) = write_error {
            return Err(e);
        }
        if !self.keep_going {
            // Preserve the typed first-failure error (in seed order).
            for (seed, outcome) in pending.iter().zip(outcomes) {
                if let SeedOutcome::Failed { failure, attempts } = outcome {
                    return Err(match failure {
                        Failure::Error(e) => e,
                        Failure::Panic(message) => EngineError::SeedPanicked {
                            solver: self.solver.clone(),
                            seed: *seed,
                            attempts,
                            message,
                        },
                    });
                }
            }
        }
        let mut report =
            RunReport::from_outcomes(label, self.solver.clone(), state.runs, state.failures);
        if self.cache.is_some() {
            report.cache = Some(cache_stats);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgressFeed;
    use wrsn_geom::Field;
    use wrsn_store::FaultFs;

    fn sampler(posts: usize, nodes: u32) -> InstanceSampler {
        InstanceSampler::new(Field::square(150.0), posts, nodes)
    }

    #[test]
    fn sweep_produces_one_run_per_seed_in_order() {
        let registry = SolverRegistry::with_defaults();
        let report = Experiment::sampled(sampler(5, 10))
            .solver("idb")
            .seeds(3..8)
            .run(&registry)
            .unwrap();
        assert_eq!(report.runs.len(), 5);
        assert_eq!(
            report.runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
            vec![3, 4, 5, 6, 7]
        );
        assert!(report.runs.iter().all(|r| r.cost_uj > 0.0));
        assert!(report.runs.iter().all(|r| r.attempts == 1));
        assert!(report.is_complete());
        assert_eq!(report.solver, "idb");
        assert_eq!(report.label, "idb");
    }

    /// An observer that publishes every event into `feed`, as the job
    /// API's does.
    fn publish_to(feed: &Arc<ProgressFeed>) -> impl Fn(SeedEvent<'_>) + Send + Sync + 'static {
        let feed = Arc::clone(feed);
        move |event| match event {
            SeedEvent::Completed { run, .. } => feed.publish_run(run),
            SeedEvent::Failed { failure, .. } => feed.publish_failure(failure),
        }
    }

    #[test]
    fn progress_feed_sees_every_terminal_seed() {
        let registry = SolverRegistry::with_defaults();
        let feed = Arc::new(ProgressFeed::new(4));
        Experiment::sampled(sampler(5, 10))
            .solver("idb")
            .seeds(0..4)
            .on_seed(publish_to(&feed))
            .run(&registry)
            .unwrap();
        let snap = feed.progress();
        assert_eq!((snap.done, snap.total), (4, 4));
        assert!(!snap.finished, "finish() is the caller's responsibility");
        let (next, events) = feed.events_since(0);
        assert_eq!(next, 4);
        assert_eq!(events.len(), 4);
        feed.finish(None);
        assert!(feed.progress().finished);
    }

    #[test]
    fn progress_feed_includes_cache_hits() {
        let registry = SolverRegistry::with_defaults();
        let dir = std::env::temp_dir().join("wrsn-progress-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let base = Experiment::sampled(sampler(5, 10))
            .solver("idb")
            .seeds(0..3)
            .record_timings(false)
            .cache(Arc::clone(&store));
        base.clone().run(&registry).unwrap();
        // Second run restores every seed from the cache; the feed must
        // still see all three as terminal.
        let feed = Arc::new(ProgressFeed::new(3));
        let report = base.on_seed(publish_to(&feed)).run(&registry).unwrap();
        assert_eq!(report.cache.as_ref().unwrap().hits, 3);
        assert_eq!(feed.progress().done, 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let registry = SolverRegistry::with_defaults();
        let base = Experiment::sampled(sampler(8, 20))
            .solver("irfh")
            .seeds(0..12);
        let par = base
            .clone()
            .runner(SweepRunner::new().threads(8))
            .run(&registry)
            .unwrap();
        let seq = base
            .runner(SweepRunner::sequential())
            .run(&registry)
            .unwrap();
        assert_eq!(par.runs.len(), seq.runs.len());
        for (a, b) in par.runs.iter().zip(&seq.runs) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.cost_uj.to_bits(), b.cost_uj.to_bits(), "seed {}", a.seed);
        }
        assert_eq!(par.cost_uj.mean.to_bits(), seq.cost_uj.mean.to_bits());
    }

    #[test]
    fn pinned_spec_gives_identical_runs_across_seeds() {
        let instance = sampler(6, 12).sample(9);
        let spec = InstanceSpec::from_instance(&instance).expect("geometric");
        let registry = SolverRegistry::with_defaults();
        let report = Experiment::from_spec(spec)
            .solver("idb")
            .seeds(0..4)
            .run(&registry)
            .unwrap();
        let first = report.runs[0].cost_uj;
        assert!(report
            .runs
            .iter()
            .all(|r| r.cost_uj.to_bits() == first.to_bits()));
        assert_eq!(report.cost_uj.std_dev, 0.0);
    }

    #[test]
    fn history_capture_records_rfh_iterations() {
        let registry = SolverRegistry::with_defaults();
        let report = Experiment::sampled(sampler(8, 20))
            .solver("irfh")
            .seeds(0..2)
            .capture_history(true)
            .run(&registry)
            .unwrap();
        for run in &report.runs {
            assert_eq!(run.cost_history_uj.len(), 7, "irfh runs 7 iterations");
        }
        assert_eq!(report.mean_history_uj().len(), 7);
        // Without capture the trace stays empty.
        let quiet = Experiment::sampled(sampler(8, 20))
            .solver("irfh")
            .seeds(0..2)
            .run(&registry)
            .unwrap();
        assert!(quiet.runs.iter().all(|r| r.cost_history_uj.is_empty()));
    }

    #[test]
    fn unknown_solver_and_empty_seed_range_error() {
        let registry = SolverRegistry::with_defaults();
        let exp = Experiment::sampled(sampler(5, 10))
            .solver("magic")
            .seeds(0..2);
        assert!(matches!(
            exp.run(&registry),
            Err(EngineError::UnknownSolver { .. })
        ));
        let empty = Experiment::sampled(sampler(5, 10))
            .solver("idb")
            .seeds(4..4);
        assert!(matches!(empty.run(&registry), Err(EngineError::NoSeeds)));
    }

    #[test]
    fn solver_failure_is_tagged_with_its_seed() {
        // 20 posts / 60 nodes explodes the exhaustive search space
        // (C(59, 19) compositions, far past the 20M limit) on a field
        // small enough that the sampled instance still builds.
        let registry = SolverRegistry::with_defaults();
        let err = Experiment::sampled(InstanceSampler::new(Field::square(150.0), 20, 60))
            .solver("exhaustive")
            .seeds(0..1)
            .runner(SweepRunner::sequential())
            .run(&registry)
            .unwrap_err();
        let EngineError::Solve { solver, seed, .. } = err else {
            panic!("expected a solve error, got {err}");
        };
        assert_eq!(solver, "exhaustive");
        assert_eq!(seed, 0);
    }

    #[test]
    fn infeasible_sampler_reports_build_error() {
        // 5 posts but only 3 nodes: every post needs at least one node.
        let registry = SolverRegistry::with_defaults();
        let err = Experiment::sampled(sampler(5, 3))
            .solver("idb")
            .seeds(0..1)
            .run(&registry)
            .unwrap_err();
        assert!(matches!(err, EngineError::Build(_)), "got {err}");
    }

    #[test]
    fn keep_going_records_failures_and_finishes_the_sweep() {
        // The sampler is infeasible for every seed; with keep_going the
        // sweep still completes and reports every failure.
        let registry = SolverRegistry::with_defaults();
        let report = Experiment::sampled(sampler(5, 3))
            .solver("idb")
            .seeds(0..4)
            .keep_going(true)
            .run(&registry)
            .unwrap();
        assert!(report.runs.is_empty());
        assert_eq!(report.failures.len(), 4);
        assert_eq!(
            report.failures.iter().map(|f| f.seed).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(!report.is_complete());
    }

    #[test]
    fn panicking_solver_is_caught_and_reported() {
        let mut registry = SolverRegistry::with_defaults();
        // A factory whose every fifth construction (the third of each
        // 5-seed sequential sweep) yields a panicking solver: that is
        // exactly seed 2 in both runs below, which share the counter.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        registry
            .register("flaky", move || {
                if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) % 5 == 2 {
                    panic!("injected panic in solver construction");
                }
                Box::new(wrsn_core::Idb::new(1))
            })
            .unwrap();
        let base = Experiment::sampled(sampler(5, 10))
            .solver("flaky")
            .seeds(0..5)
            .runner(SweepRunner::sequential());
        // keep_going: the remaining seeds complete; the panic is recorded.
        let report = base.clone().keep_going(true).run(&registry).unwrap();
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].seed, 2);
        assert!(report.failures[0].error.contains("injected panic"));
        // Without keep_going the panic surfaces as a typed error — after
        // the rest of the sweep has still completed safely.
        let err = base.run(&registry).unwrap_err();
        let EngineError::SeedPanicked { seed, message, .. } = err else {
            panic!("expected SeedPanicked, got {err}");
        };
        assert_eq!(seed, 2);
        assert!(message.contains("injected panic"));
    }

    #[test]
    fn retry_policy_rides_out_transient_failures() {
        let mut registry = SolverRegistry::with_defaults();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        // Fails on its first two constructions, then behaves.
        registry
            .register("transient", move || {
                if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2 {
                    panic!("transient fault");
                }
                Box::new(wrsn_core::Idb::new(1))
            })
            .unwrap();
        let report = Experiment::sampled(sampler(5, 10))
            .solver("transient")
            .seeds(0..3)
            .runner(SweepRunner::sequential())
            .retry(RetryPolicy::attempts(3))
            .run(&registry)
            .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.runs[0].attempts, 3);
        assert_eq!(report.runs[1].attempts, 1);
        assert_eq!(report.total_attempts(), 5);
    }

    #[test]
    fn on_seed_callback_streams_progress() {
        let registry = SolverRegistry::with_defaults();
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        let report = Experiment::sampled(sampler(5, 10))
            .solver("idb")
            .seeds(0..4)
            .on_seed(move |event| {
                if let SeedEvent::Completed { run, done, total } = event {
                    sink.lock().push((run.seed, done, total));
                }
            })
            .run(&registry)
            .unwrap();
        assert_eq!(report.runs.len(), 4);
        let mut events = events.lock().clone();
        assert_eq!(events.len(), 4);
        events.sort_by_key(|&(_, done, _)| done);
        for (i, &(_, done, total)) in events.iter().enumerate() {
            assert_eq!(done, i + 1);
            assert_eq!(total, 4);
        }
    }

    #[test]
    fn progress_counts_up_in_commit_order() {
        // A slow observer holds the commit lock while the other worker
        // finishes seeds; each announcement must still count one past
        // the one before it.
        let registry = SolverRegistry::with_defaults();
        for attempt in 0..10 {
            let announced = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&announced);
            let report = Experiment::sampled(sampler(4, 12))
                .solver("uniform")
                .seeds(0..64)
                .runner(SweepRunner::new().threads(2))
                .record_timings(false)
                .on_seed(move |event| {
                    if let SeedEvent::Completed { done, .. } = event {
                        sink.lock().push(done);
                        if done % 8 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                    }
                })
                .run(&registry)
                .unwrap();
            assert_eq!(report.runs.len(), 64);
            assert_eq!(
                *announced.lock(),
                (1..=64).collect::<Vec<_>>(),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn custom_label_flows_into_the_report() {
        let registry = SolverRegistry::with_defaults();
        let report = Experiment::sampled(sampler(5, 10))
            .label("fig-x")
            .solver("rfh")
            .seeds(0..1)
            .run(&registry)
            .unwrap();
        assert_eq!(report.label, "fig-x");
        assert_eq!(report.solver, "rfh");
    }

    #[test]
    fn solver_name_accessor() {
        let exp = Experiment::sampled(sampler(5, 10)).solver("bnb");
        assert_eq!(exp.solver_name(), "bnb");
    }

    #[test]
    fn resume_without_checkpoint_path_is_an_error() {
        let registry = SolverRegistry::with_defaults();
        let err = Experiment::sampled(sampler(5, 10))
            .solver("idb")
            .seeds(0..2)
            .resume(true)
            .run(&registry)
            .unwrap_err();
        assert!(matches!(err, EngineError::Checkpoint { .. }), "got {err}");
    }

    #[test]
    fn checkpoint_interrupt_and_resume_match_a_clean_run() {
        let dir = std::env::temp_dir().join("wrsn-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume-roundtrip.checkpoint.json");
        let _ = std::fs::remove_file(&path);
        let registry = SolverRegistry::with_defaults();
        let base = Experiment::sampled(sampler(6, 12))
            .solver("idb")
            .seeds(0..8)
            .runner(SweepRunner::sequential())
            .record_timings(false);
        // "Crash" after 3 seeds…
        let partial = base
            .clone()
            .checkpoint(&path)
            .halt_after(3)
            .run(&registry)
            .unwrap();
        assert_eq!(partial.runs.len(), 3);
        // …resume, finishing the rest…
        let announced = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&announced);
        let resumed = base
            .clone()
            .checkpoint(&path)
            .resume(true)
            .on_seed(move |event| {
                if let SeedEvent::Completed { run, done, .. } = event {
                    sink.lock().push((run.seed, done));
                }
            })
            .run(&registry)
            .unwrap();
        // …and compare byte-for-byte against an uninterrupted sweep.
        let clean = base.run(&registry).unwrap();
        assert_eq!(resumed.to_json(), clean.to_json());
        // The observer heard the three restored seeds first, then the
        // rest: the checkpoint log's records, line for line.
        let text = std::fs::read_to_string(&path).unwrap();
        let logged: Vec<u64> = text
            .lines()
            .skip(1)
            .map(|line| {
                serde_json::from_str::<serde::Value>(line).unwrap()["run"]["seed"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        let announced = announced.lock().clone();
        assert_eq!(
            announced.iter().map(|&(seed, _)| seed).collect::<Vec<_>>(),
            logged
        );
        assert_eq!(
            announced.iter().map(|&(_, done)| done).collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_crashed_checkpoint_never_holds_a_seed_the_store_lacks() {
        let dir = temp_dir("crash-commit");
        let path = dir.join("sweep.jsonl");
        let registry = SolverRegistry::with_defaults();
        let base = Experiment::sampled(sampler(6, 14))
            .solver("idb")
            .seeds(0..8)
            .runner(SweepRunner::sequential())
            .record_timings(false)
            .checkpoint(&path);
        // A fault-free run learns the bytes of the header and three seeds.
        let probe = Arc::new(FaultFs::seeded(1));
        base.clone()
            .vfs(probe.clone())
            .halt_after(3)
            .run(&registry)
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        // The checkpoint's filesystem dies on the fourth seed's line.
        let store = Arc::new(ResultStore::open(dir.join("store")).unwrap());
        let crash = Arc::new(FaultFs::seeded(1).crash_after_bytes(probe.bytes_written()));
        let crashed = base
            .clone()
            .cache(Arc::clone(&store))
            .vfs(crash.clone())
            .run(&registry);
        assert!(crash.crashed());
        assert!(
            matches!(crashed, Err(EngineError::Checkpoint { .. })),
            "{crashed:?}"
        );
        drop(store);
        // What a killed process leaves: every checkpointed seed is on
        // disk in the store too.
        let store = Arc::new(ResultStore::open(dir.join("store")).unwrap());
        let source = InstanceSource::Sampled(sampler(6, 14));
        let key = |seed| {
            seed_fingerprint_scenario(None, None, &source, "idb", ENGINE_VERSION, false, seed)
        };
        let logged = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(logged.runs.len(), 3);
        assert!(logged
            .runs
            .iter()
            .all(|run| store.get(&key(run.seed)).is_some()));
        // The resumed sweep restores those, replays what the store alone
        // holds, solves the rest and stores every seed; its observer
        // hears of all eight.
        let feed = Arc::new(ProgressFeed::new(8));
        let resumed = base
            .clone()
            .cache(Arc::clone(&store))
            .resume(true)
            .on_seed(publish_to(&feed))
            .run(&registry)
            .unwrap();
        assert!((0..8).all(|seed| store.get(&key(seed)).is_some()));
        assert_eq!(feed.progress().done, 8);
        let clean = Experiment::sampled(sampler(6, 14))
            .solver("idb")
            .seeds(0..8)
            .record_timings(false)
            .run(&registry)
            .unwrap();
        assert_eq!(resumed.runs, clean.runs);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_checkpoint_write_error_stops_the_sweep() {
        use std::sync::atomic::Ordering::SeqCst;
        let dir = temp_dir("write-error-stop");
        let path = dir.join("sweep.jsonl");
        let (registry, calls) = counting_registry();
        let base = Experiment::sampled(sampler(6, 14))
            .solver("counted")
            .seeds(0..8)
            .runner(SweepRunner::sequential())
            .record_timings(false)
            .checkpoint(&path);
        // A fault-free run learns the bytes of the header and seed 0.
        let probe = Arc::new(FaultFs::seeded(1));
        base.clone()
            .vfs(probe.clone())
            .halt_after(1)
            .run(&registry)
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        calls.store(0, SeqCst);
        // The checkpoint's filesystem dies inside seed 1's line.
        let crash = Arc::new(FaultFs::seeded(1).crash_after_bytes(probe.bytes_written() + 8));
        let err = base.vfs(crash.clone()).run(&registry).unwrap_err();
        assert!(crash.crashed());
        assert!(matches!(err, EngineError::Checkpoint { .. }), "{err}");
        // Seeds 0 and 1 were solved; the six after the error never were.
        assert_eq!(calls.load(SeqCst), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wrsn-experiment-test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A registry whose `"counted"` solver counts its constructions, so
    /// tests can assert how many times the solver actually ran.
    fn counting_registry() -> (SolverRegistry, Arc<std::sync::atomic::AtomicUsize>) {
        let mut registry = SolverRegistry::with_defaults();
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = calls.clone();
        registry
            .register("counted", move || {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Box::new(wrsn_core::Idb::new(1))
            })
            .unwrap();
        (registry, calls)
    }

    #[test]
    fn cached_rerun_performs_zero_solver_invocations() {
        let dir = temp_dir("cache-rerun");
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let (registry, calls) = counting_registry();
        let base = Experiment::sampled(sampler(6, 12))
            .solver("counted")
            .seeds(0..5)
            .record_timings(false);
        let first = base.clone().cache(store.clone()).run(&registry).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 5);
        assert_eq!(
            first.cache,
            Some(CacheStats {
                hits: 0,
                misses: 5,
                appended: 5
            })
        );
        // The second run restores every seed from the store: no solver
        // construction at all, and the per-seed results are identical.
        let second = base.clone().cache(store).run(&registry).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 5);
        assert_eq!(
            second.cache,
            Some(CacheStats {
                hits: 5,
                misses: 0,
                appended: 0
            })
        );
        assert_eq!(first.runs, second.runs);
        // A run without the cache matches too (timings are zeroed).
        let uncached = base.run(&registry).unwrap();
        assert_eq!(uncached.runs, second.runs);
        assert_eq!(uncached.cache, None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprint_invalidates_on_version_name_and_source_changes() {
        let key = |source: &InstanceSource, solver: &str, version: &str, history: bool, seed| {
            seed_fingerprint_scenario(None, None, source, solver, version, history, seed)
        };
        let sampled = InstanceSource::Sampled(sampler(6, 12));
        let base = key(&sampled, "idb", "0.1.0", false, 3);
        assert_eq!(base, key(&sampled, "idb", "0.1.0", false, 3));
        assert_ne!(base, key(&sampled, "rfh", "0.1.0", false, 3));
        assert_ne!(base, key(&sampled, "idb", "0.2.0", false, 3));
        assert_ne!(base, key(&sampled, "idb", "0.1.0", true, 3));
        assert_ne!(base, key(&sampled, "idb", "0.1.0", false, 4));
        let other = InstanceSource::Sampled(sampler(6, 13));
        assert_ne!(base, key(&other, "idb", "0.1.0", false, 3));
        let spec = InstanceSpec::from_instance(&sampler(6, 12).sample(9)).unwrap();
        let pinned = InstanceSource::Spec(spec);
        assert_ne!(base, key(&pinned, "idb", "0.1.0", false, 3));
    }

    #[test]
    fn stale_cache_entries_are_not_reused_after_a_version_bump() {
        let dir = temp_dir("cache-version-bump");
        let store = ResultStore::open(&dir).unwrap();
        let source = InstanceSource::Sampled(sampler(6, 12));
        // Simulate an older engine having populated the store.
        let old_key =
            seed_fingerprint_scenario(None, None, &source, "counted", "0.0.9-old", false, 0);
        let payload = SeedRun {
            seed: 0,
            cost_uj: 42.0,
            setup_ms: 0.0,
            solve_ms: 0.0,
            attempts: 1,
            cost_history_uj: Vec::new(),
        }
        .to_value();
        store.put(&old_key, payload).unwrap();
        drop(store);
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let (registry, calls) = counting_registry();
        let report = Experiment::sampled(sampler(6, 12))
            .solver("counted")
            .seeds(0..1)
            .record_timings(false)
            .cache(store)
            .run(&registry)
            .unwrap();
        // The old entry keyed under another version is invisible: the
        // seed recomputes and lands under the current key.
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(
            report.cache,
            Some(CacheStats {
                hits: 0,
                misses: 1,
                appended: 1
            })
        );
        assert_ne!(report.runs[0].cost_uj, 42.0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shard_selects_a_round_robin_seed_slice() {
        let registry = SolverRegistry::with_defaults();
        let base = Experiment::sampled(sampler(6, 12))
            .solver("idb")
            .seeds(3..9);
        let a = base.clone().shard(1, 2).run(&registry).unwrap();
        assert_eq!(a.runs.iter().map(|r| r.seed).collect::<Vec<_>>(), [3, 5, 7]);
        let b = base.clone().shard(2, 2).run(&registry).unwrap();
        assert_eq!(b.runs.iter().map(|r| r.seed).collect::<Vec<_>>(), [4, 6, 8]);
        for (index, count) in [(0, 2), (3, 2), (1, 0)] {
            let err = base.clone().shard(index, count).run(&registry).unwrap_err();
            assert!(matches!(err, EngineError::BadShard { .. }), "got {err}");
        }
    }

    #[test]
    fn merged_shard_logs_match_an_unsharded_run_byte_for_byte() {
        let dir = temp_dir("shard-merge");
        let registry = SolverRegistry::with_defaults();
        let base = Experiment::sampled(sampler(6, 12))
            .solver("idb")
            .seeds(0..7)
            .runner(SweepRunner::sequential())
            .record_timings(false);
        let mut paths = Vec::new();
        for index in 1..=3u32 {
            let path = dir.join(format!("shard-{index}.jsonl"));
            base.clone()
                .shard(index, 3)
                .checkpoint(&path)
                .run(&registry)
                .unwrap();
            paths.push(path);
        }
        let parts: Vec<(PathBuf, SweepCheckpoint)> = paths
            .iter()
            .map(|p| (p.clone(), SweepCheckpoint::load(p).unwrap()))
            .collect();
        let merged = crate::merge_checkpoints(&parts).unwrap();
        let report = RunReport::from_outcomes(
            merged.label.clone(),
            merged.solver.clone(),
            merged.runs,
            merged.failures,
        );
        let clean = base.run(&registry).unwrap();
        assert_eq!(report.to_json(), clean.to_json());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn mismatched_checkpoint_is_rejected_on_resume() {
        let dir = std::env::temp_dir().join("wrsn-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.checkpoint.json");
        let registry = SolverRegistry::with_defaults();
        let _ = Experiment::sampled(sampler(5, 10))
            .solver("idb")
            .seeds(0..2)
            .checkpoint(&path)
            .run(&registry)
            .unwrap();
        let err = Experiment::sampled(sampler(5, 10))
            .solver("rfh")
            .seeds(0..2)
            .checkpoint(&path)
            .resume(true)
            .run(&registry)
            .unwrap_err();
        assert!(matches!(err, EngineError::Checkpoint { .. }), "got {err}");
        let _ = std::fs::remove_file(path);
    }
}
