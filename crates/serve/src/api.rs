//! Request/response types and handlers for the `/v1` endpoints.
//!
//! Handlers are plain functions over an [`ApiContext`] — no HTTP in
//! sight — so the whole API surface unit-tests without sockets. The
//! server module wires them to parsed [`crate::http::Request`]s.

use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::sync::Arc;
use wrsn_core::{Instance, Solution};
use wrsn_energy::Energy;
use wrsn_engine::{
    plan_tour_schedule, CacheStats, EngineError, Experiment, Fingerprint, InstanceParams,
    InstanceSource, KeyPrefix, ProgressFeed, ResultStore, SeedEvent, SeedRun, SolverRegistry,
    TourSchedule, ENGINE_VERSION, MAX_POSTS,
};
use wrsn_sim::{ChargerPolicy, FaultPlan, SimConfig, SimReport, Simulator};

/// The maximum seed count a single `/v1/sweep` request may ask for —
/// big sweeps belong in the CLI, not behind a request timeout.
pub const MAX_SWEEP_SEEDS: u64 = 1024;

/// The fastest patrol a simulate spec may ask for, in meters per
/// second; mobile chargers travel at a few (5 by default). Patrol
/// events grow with the speed: at 6 posts and 100 rounds on a 2-vCPU
/// VM, 10³ m/s took 6 ms, 10⁶ m/s 154 ms, and 10¹² m/s ran past 10 s.
pub const MAX_SPEED_MPS: f64 = 1_000.0;

fn default_solver() -> String {
    "irfh".to_string()
}

fn default_rounds() -> u64 {
    1000
}

fn default_bits() -> u64 {
    4000
}

fn default_battery() -> f64 {
    0.1
}

fn default_policy() -> String {
    "threshold".to_string()
}

fn default_speed() -> f64 {
    5.0
}

fn default_chargers() -> u32 {
    1
}

fn default_delay_s() -> f64 {
    5.0
}

fn default_sweep_seeds() -> u64 {
    8
}

/// What an empty JSON object decodes to, so that each request type
/// writes its defaults once, in its serde attributes.
fn serde_defaults<T: Deserialize>() -> T {
    T::from_value(&Value::Object(Vec::new())).expect("every request field has a serde default")
}

/// `POST /v1/solve` body, and what `wrsn solve` parses its flags into
/// (`include_solution` aside: the CLI always prints the solution).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SolveRequest {
    /// Instance parameters (defaults mirror `wrsn solve`).
    #[serde(default)]
    pub instance: InstanceParams,
    /// Solver registry name.
    #[serde(default = "default_solver")]
    pub solver: String,
    /// Sampling seed.
    #[serde(default)]
    pub seed: u64,
    /// When `true`, the response includes the full deployment counts
    /// and routing parents, not just the cost summary.
    #[serde(default)]
    pub include_solution: bool,
}

impl Default for SolveRequest {
    fn default() -> Self {
        serde_defaults()
    }
}

/// The key prefix of one (instance, solver) cell under `namespace`: the
/// prefix the cached pipeline keys each seed under, with the instance's
/// scenario folded in.
fn cell_prefix(
    namespace: Option<&str>,
    instance: &InstanceParams,
    source: &InstanceSource,
    solver: &str,
) -> KeyPrefix {
    KeyPrefix::new(
        namespace,
        instance.scenario.as_ref(),
        source,
        solver,
        ENGINE_VERSION,
        false,
    )
}

/// The inputs of the last sampled solve keyed on this thread, and the
/// prefix they built. Inputs are stored only once they have passed
/// [`InstanceParams::source`], so a request that matches them exactly
/// would pass again and can skip it.
struct SolvePrefix {
    namespace: Option<String>,
    solver: String,
    instance: InstanceParams,
    prefix: KeyPrefix,
}

impl SolvePrefix {
    /// Whether sampled `req` under `namespace` builds this prefix: equal
    /// inputs, floats compared by bit pattern. The scenario's floats are
    /// all positive once validated, where `==` is exact.
    fn matches(&self, namespace: Option<&str>, req: &SolveRequest) -> bool {
        // Destructured so that a new parameter cannot be left out.
        let InstanceParams {
            posts,
            nodes,
            field,
            levels,
            eta,
            cap,
            spec: _,
            scenario,
        } = &self.instance;
        let other = &req.instance;
        self.namespace.as_deref() == namespace
            && self.solver == req.solver
            && *posts == other.posts
            && *nodes == other.nodes
            && field.to_bits() == other.field.to_bits()
            && *levels == other.levels
            && eta.to_bits() == other.eta.to_bits()
            && *cap == other.cap
            && *scenario == other.scenario
    }
}

thread_local! {
    /// One entry per thread: a thread answering a run of solves of one
    /// cell keys each of them from it, and a thread that alternates
    /// cells pays a comparison per miss. No lock is shared.
    static SOLVE_PREFIX: RefCell<Option<SolvePrefix>> = const { RefCell::new(None) };
}

impl SolveRequest {
    /// The store key [`ApiContext::solve_in`] reads and writes for this
    /// request under `namespace`. A sampled request reuses the key
    /// prefix of the last one on this thread when their inputs match.
    ///
    /// # Errors
    ///
    /// The instance parameter errors of [`InstanceParams::source`].
    pub fn cache_key(&self, namespace: Option<&str>) -> Result<Fingerprint, EngineError> {
        // A pinned spec builds its prefix afresh: its JSON spells a post
        // at `-0.0` apart from one at `0.0`, which `==` equates.
        if self.instance.spec.is_some() {
            let source = self.instance.source()?;
            return Ok(
                cell_prefix(namespace, &self.instance, &source, &self.solver).key(self.seed),
            );
        }
        SOLVE_PREFIX.with_borrow_mut(|memo| {
            let memo = match memo {
                Some(last) if last.matches(namespace, self) => last,
                _ => {
                    let source = self.instance.source()?;
                    memo.insert(SolvePrefix {
                        namespace: namespace.map(str::to_string),
                        solver: self.solver.clone(),
                        instance: self.instance.clone(),
                        prefix: cell_prefix(namespace, &self.instance, &source, &self.solver),
                    })
                }
            };
            Ok(memo.prefix.key(self.seed))
        })
    }
}

/// `POST /v1/simulate` body, and what `wrsn simulate` parses its flags
/// into: one spec, checked and run by [`SimulateRequest::run`], so both
/// front ends simulate and report alike.
///
/// The fault plan is built when any of `fault_seed`, `kill`, `outage`,
/// `charger_skip`, `charger_delay`, `link_loss`, `battery_fade` or
/// `charger_down` is present, even at zero: a named fault turns on the
/// plan's audit (`max_energy_deficit`).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimulateRequest {
    /// Instance parameters.
    #[serde(default)]
    pub instance: InstanceParams,
    /// Solver registry name.
    #[serde(default = "default_solver")]
    pub solver: String,
    /// Sampling seed.
    #[serde(default)]
    pub seed: u64,
    /// Rounds to simulate.
    #[serde(default = "default_rounds")]
    pub rounds: u64,
    /// Bits per report.
    #[serde(default = "default_bits")]
    pub bits_per_report: u64,
    /// Per-node battery capacity in joules: positive, and finite in
    /// nanojoules.
    #[serde(default = "default_battery")]
    pub battery_j: f64,
    /// The charger policy: `threshold` (every 10 s, refill posts below
    /// half charge), `tour` (mobile chargers patrol the posts) or `none`.
    #[serde(default = "default_policy")]
    pub policy: String,
    /// Patrol speed in m/s under the tour policy, at most
    /// [`MAX_SPEED_MPS`].
    #[serde(default = "default_speed")]
    pub speed_mps: f64,
    /// Patrol chargers under the tour policy, 1 to [`MAX_POSTS`].
    #[serde(default = "default_chargers")]
    pub chargers: u32,
    /// Charger radiated power in watts (positive); absent means instant
    /// refills.
    #[serde(default)]
    pub power_w: Option<f64>,
    /// Sample the state of charge every this many rounds (at least 1).
    #[serde(default)]
    pub timeline: Option<u64>,
    /// Under the tour policy, patrol along the `sched-tour` solver's
    /// planned visit order (planned with `instance.scenario`, if any).
    #[serde(default)]
    pub sched_tour: bool,
    /// Seed for the fault plan's RNG streams (0 when absent).
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Node deaths, `[round, post]` each.
    #[serde(default)]
    pub kill: Option<Vec<(u64, usize)>>,
    /// Post outages, `[post, from, until]` each: the post is offline
    /// for rounds `from..until`.
    #[serde(default)]
    pub outage: Option<Vec<(usize, u64, u64)>>,
    /// Probability the charger skips a due refill.
    #[serde(default)]
    pub charger_skip: Option<f64>,
    /// Probability a patrol leg is delayed.
    #[serde(default)]
    pub charger_delay: Option<f64>,
    /// Seconds added to a delayed patrol leg.
    #[serde(default = "default_delay_s")]
    pub delay_s: f64,
    /// Per-hop link-loss probability.
    #[serde(default)]
    pub link_loss: Option<f64>,
    /// Per-charge-cycle capacity fade fraction.
    #[serde(default)]
    pub battery_fade: Option<f64>,
    /// Capacity floor for fade as a fraction of nameplate (the fault
    /// plan's [`wrsn_sim::DEFAULT_FADE_FLOOR`] when absent).
    #[serde(default)]
    pub fade_floor: Option<f64>,
    /// Total charger breakdowns, `[from, until]` each: no refills
    /// anywhere in rounds `from..until`.
    #[serde(default)]
    pub charger_down: Option<Vec<(u64, u64)>>,
}

impl Default for SimulateRequest {
    fn default() -> Self {
        serde_defaults()
    }
}

fn invalid(setting: &'static str, problem: String) -> EngineError {
    EngineError::InvalidSetting { setting, problem }
}

/// Seed `seed`'s instance of `instance` and `solver`'s solution of it,
/// the solver resolved under the instance's scenario: the one solve of
/// `wrsn solve`, of `/v1/solve`'s `include_solution` and of
/// [`SimulateRequest::run`].
///
/// # Errors
///
/// The errors of [`InstanceParams::source`] and of building the
/// instance, [`EngineError::UnknownSolver`], and [`EngineError::Solve`]
/// when the solver fails.
pub fn solve_seed(
    registry: &SolverRegistry,
    instance: &InstanceParams,
    solver: &str,
    seed: u64,
) -> Result<(Instance, Solution), EngineError> {
    let built = instance.source()?.instance(seed)?;
    let solution = registry
        .resolve(solver, instance.scenario.as_ref())?
        .solve(&built)
        .map_err(|error| EngineError::Solve {
            solver: solver.to_string(),
            seed,
            error,
        })?;
    Ok((built, solution))
}

impl SimulateRequest {
    /// Checks every setting, solves the instance, builds the fault plan,
    /// the charger policy and (with `sched_tour`) the planned visit
    /// order, and runs the simulator.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSetting`] naming the first setting out of
    /// range; otherwise the instance and solver errors of the pipeline,
    /// or [`EngineError::InvalidRequest`] for a fault plan that does not
    /// fit the instance (a post out of range, an empty window).
    pub fn run(&self, registry: &SolverRegistry) -> Result<SimRun, EngineError> {
        let charger = self.charger_policy()?;
        let (instance, solution) = solve_seed(registry, &self.instance, &self.solver, self.seed)?;
        let faults = self.fault_plan();
        if let Some(plan) = &faults {
            plan.validate(instance.num_posts())
                .map_err(|why| EngineError::InvalidRequest(format!("fault plan: {why}")))?;
        }
        let schedule = self
            .sched_tour
            .then(|| {
                let mut spec = self.instance.scenario.clone().unwrap_or_default();
                spec.charger_speed_mps = self.speed_mps;
                spec.chargers = self.chargers;
                spec.battery_j = self.battery_j;
                spec.bits_per_report = self.bits_per_report;
                plan_tour_schedule(&instance, &solution, &spec)
                    .ok_or_else(|| invalid("sched_tour", "needs a geometric instance".into()))
            })
            .transpose()?;
        // The simulator wants a full permutation; posts the scheduler
        // deemed unsavable still get (hopeless) visits, at the end.
        let tour_order = schedule
            .as_ref()
            .map(|s| s.visit_order.iter().chain(&s.infeasible).copied().collect());
        let config = SimConfig {
            round_interval_s: 1.0,
            bits_per_report: self.bits_per_report,
            battery_capacity: Energy::from_joules(self.battery_j),
            charger,
            record_soc_every: self.timeline,
            charger_power_w: self.power_w.unwrap_or(f64::INFINITY),
            faults,
            tour_order,
        };
        let report = Simulator::new(&instance, &solution, config.clone()).run(self.rounds);
        Ok(SimRun {
            solver: self.solver.clone(),
            seed: self.seed,
            instance,
            solution,
            config,
            schedule,
            report,
        })
    }

    /// Checks the scalar settings and returns the charger policy they
    /// describe.
    fn charger_policy(&self) -> Result<ChargerPolicy, EngineError> {
        for (setting, value) in [
            ("charger_skip", self.charger_skip),
            ("charger_delay", self.charger_delay),
            ("link_loss", self.link_loss),
            ("battery_fade", self.battery_fade),
            ("fade_floor", self.fade_floor),
        ] {
            if let Some(v) = value.filter(|v| !(0.0..=1.0).contains(v)) {
                return Err(invalid(setting, format!("{v} out of range [0, 1]")));
            }
        }
        let battery = self.battery_j;
        if !(battery > 0.0 && Energy::from_joules(battery).as_njoules().is_finite()) {
            return Err(invalid(
                "battery_j",
                format!("must be positive and finite in nanojoules, got {battery}"),
            ));
        }
        if let Some(w) = self.power_w.filter(|w| w.is_nan() || *w <= 0.0) {
            return Err(invalid("power_w", format!("must be positive, got {w}")));
        }
        if self.timeline == Some(0) {
            return Err(invalid(
                "timeline",
                "must be at least 1 round, got 0".into(),
            ));
        }
        if self.chargers == 0 || self.chargers as usize > MAX_POSTS {
            return Err(invalid(
                "chargers",
                format!("must lie in 1..={MAX_POSTS}, got {}", self.chargers),
            ));
        }
        let speed = self.speed_mps;
        let charger = match self.policy.as_str() {
            "threshold" => ChargerPolicy::Threshold {
                interval_s: 10.0,
                trigger_soc: 0.5,
            },
            "tour" if !(speed > 0.0 && speed <= MAX_SPEED_MPS) => {
                let problem = format!("must lie in (0, {MAX_SPEED_MPS}] m/s, got {speed}");
                return Err(invalid("speed_mps", problem));
            }
            "tour" => ChargerPolicy::PatrolTour {
                speed_mps: speed,
                trigger_soc: 0.5,
                chargers: self.chargers,
            },
            "none" => ChargerPolicy::None,
            other => {
                let problem = format!("must be threshold, tour or none, got {other:?}");
                return Err(invalid("policy", problem));
            }
        };
        if self.sched_tour && !matches!(charger, ChargerPolicy::PatrolTour { .. }) {
            return Err(invalid(
                "sched_tour",
                "needs the tour policy (it drives the patrol chargers)".into(),
            ));
        }
        Ok(charger)
    }

    /// The fault plan, when any fault setting is present.
    fn fault_plan(&self) -> Option<FaultPlan> {
        let named = self.fault_seed.is_some()
            || self.kill.is_some()
            || self.outage.is_some()
            || self.charger_skip.is_some()
            || self.charger_delay.is_some()
            || self.link_loss.is_some()
            || self.battery_fade.is_some()
            || self.charger_down.is_some();
        if !named {
            return None;
        }
        let mut plan = FaultPlan::seeded(self.fault_seed.unwrap_or(0));
        for &(round, post) in self.kill.iter().flatten() {
            plan = plan.kill_node(round, post);
        }
        for &(post, from, until) in self.outage.iter().flatten() {
            plan = plan.outage(post, from, until);
        }
        if let Some(p) = self.charger_skip {
            plan = plan.charger_skips(p);
        }
        if let Some(p) = self.charger_delay {
            plan = plan.charger_delays(p, self.delay_s);
        }
        if let Some(p) = self.link_loss {
            plan = plan.link_loss(p);
        }
        if let Some(f) = self.battery_fade {
            plan = plan.battery_fade(f);
        }
        if let Some(f) = self.fade_floor {
            plan = plan.battery_fade_floor(f);
        }
        for &(from, until) in self.charger_down.iter().flatten() {
            plan = plan.charger_breakdown(from, until);
        }
        Some(plan)
    }
}

/// One finished simulation: the solved instance, the configuration its
/// spec resolved to, the `sched_tour` schedule and the simulator's
/// report.
#[derive(Debug)]
pub struct SimRun {
    /// The solver's registry name.
    pub solver: String,
    /// The sampling seed.
    pub seed: u64,
    /// The instance simulated.
    pub instance: Instance,
    /// The solver's deployment and routing.
    pub solution: Solution,
    /// The simulator configuration.
    pub config: SimConfig,
    /// The planned tour, with `sched_tour`.
    pub schedule: Option<TourSchedule>,
    /// What happened.
    pub report: SimReport,
}

impl SimRun {
    /// The recharging energy per round the analytic cost model predicts
    /// for the solution.
    #[must_use]
    pub fn analytic_per_round(&self) -> Energy {
        self.solution.total_cost() * self.config.bits_per_report as f64
    }

    /// The simulate report: the `/v1/simulate` body and `wrsn simulate
    /// --json`'s document.
    #[must_use]
    pub fn summary(&self) -> Value {
        let r = &self.report;
        let fields = [
            ("algorithm", self.solution.algorithm().to_value()),
            ("rounds", r.rounds_completed.to_value()),
            ("reports_delivered", r.reports_delivered.to_value()),
            ("reports_lost", r.reports_lost.to_value()),
            ("delivery_ratio", r.delivery_ratio().to_value()),
            ("charger_energy_j", r.charger_energy.as_joules().to_value()),
            (
                "consumed_energy_j",
                r.consumed_energy.as_joules().to_value(),
            ),
            ("first_death", r.first_death.to_value()),
            (
                "analytic_cost_per_round_uj",
                self.analytic_per_round().as_ujoules().to_value(),
            ),
            (
                "simulated_cost_per_round_uj",
                r.charger_energy_per_round().as_ujoules().to_value(),
            ),
            ("soc_timeline", r.soc_timeline.to_value()),
            ("first_fault_round", r.first_fault_round.to_value()),
            (
                "rounds_after_first_fault",
                r.rounds_after_first_fault.to_value(),
            ),
            ("charger_skips", r.charger_skips.to_value()),
            ("charger_delays", r.charger_delays.to_value()),
            ("link_losses", r.link_losses.to_value()),
            ("max_energy_deficit", r.max_energy_deficit.to_value()),
            ("capacity_floor_hits", r.capacity_floor_hits.to_value()),
            (
                "charger_downtime_rounds",
                r.charger_downtime_rounds.to_value(),
            ),
            ("breakdown_deaths", r.breakdown_deaths.to_value()),
            ("tour_infeasible_posts", r.tour_infeasible_posts.to_value()),
            ("solver", self.solver.to_value()),
            ("seed", self.seed.to_value()),
            ("first_death_s", r.first_death.map(|(t, _)| t).to_value()),
        ];
        Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}

/// `POST /v1/sweep` and `POST /v1/jobs` body, and what `wrsn sweep`
/// parses its shared flags into: one spec, turned into the sweep's
/// [`Experiment`] by [`SweepRequest::experiment`], so both front ends
/// sweep and report alike.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepRequest {
    /// Instance parameters.
    #[serde(default)]
    pub instance: InstanceParams,
    /// Solver registry name.
    #[serde(default = "default_solver")]
    pub solver: String,
    /// First seed of the range.
    #[serde(default)]
    pub seed_start: u64,
    /// Number of seeds (capped at [`MAX_SWEEP_SEEDS`]).
    #[serde(default = "default_sweep_seeds")]
    pub seeds: u64,
}

impl Default for SweepRequest {
    fn default() -> Self {
        serde_defaults()
    }
}

impl SweepRequest {
    /// The sweep's experiment: the instance source, the solver, the seed
    /// range and the instance's scenario, which rebinds the scheduling
    /// solvers and keys the cache, so differently parameterized sweeps
    /// never collide in the store. Each front end adds its own settings
    /// (store, checkpoint, observer, runner, timings).
    ///
    /// # Errors
    ///
    /// The errors of [`InstanceParams::source`], then
    /// [`EngineError::InvalidSetting`] naming `seeds` when it is zero or
    /// `seed_start + seeds` when the range runs past the last seed.
    pub fn experiment(&self) -> Result<Experiment, EngineError> {
        let source = self.instance.source()?;
        let mut experiment = Experiment::new(source)
            .solver(&self.solver)
            .seeds(self.seed_range()?);
        if let Some(spec) = &self.instance.scenario {
            experiment = experiment.scenario(spec.clone());
        }
        Ok(experiment)
    }

    /// The seeds `seed_start..seed_start + seeds`, or the setting that
    /// leaves none.
    fn seed_range(&self) -> Result<std::ops::Range<u64>, EngineError> {
        if self.seeds == 0 {
            return Err(invalid("seeds", "must be at least 1".into()));
        }
        let end = self.seed_start.checked_add(self.seeds);
        let end = end.ok_or_else(|| invalid("seed_start + seeds", "overflows".into()))?;
        Ok(self.seed_start..end)
    }

    /// The store key of every seed of the sweep under `namespace`, in
    /// seed order: [`SolveRequest::cache_key`] per seed, from one key
    /// prefix.
    ///
    /// # Errors
    ///
    /// The seed-range errors of [`ApiContext::validate_sweep`] and the
    /// instance parameter errors of [`InstanceParams::source`].
    pub fn cache_keys(&self, namespace: Option<&str>) -> Result<Vec<Fingerprint>, ApiError> {
        let end = ApiContext::validate_sweep(self)?;
        let source = self.instance.source()?;
        let prefix = cell_prefix(namespace, &self.instance, &source, &self.solver);
        Ok((self.seed_start..end)
            .map(|seed| prefix.key(seed))
            .collect())
    }
}

/// A handler failure, carrying the HTTP status it maps to.
#[derive(Debug)]
pub struct ApiError {
    /// The HTTP status (400 for caller mistakes, 500 otherwise).
    pub status: u16,
    /// The human-readable message for the `{"error": …}` body.
    pub message: String,
}

impl ApiError {
    /// A 400 caller error.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

impl From<EngineError> for ApiError {
    fn from(e: EngineError) -> Self {
        let status = match &e {
            EngineError::InvalidRequest(_)
            | EngineError::InvalidSetting { .. }
            | EngineError::UnknownSolver { .. }
            | EngineError::NoSeeds
            | EngineError::Build(_)
            | EngineError::Spec(_)
            | EngineError::Solve { .. } => 400,
            _ => 500,
        };
        ApiError {
            status,
            message: e.to_string(),
        }
    }
}

/// What the handlers need: the solver registry and (optionally) the
/// shared result store every request routes through.
pub struct ApiContext {
    /// Solver name → factory.
    pub registry: SolverRegistry,
    /// The shared cache; `None` serves uncached.
    pub store: Option<Arc<ResultStore>>,
}

/// What a handler returns: the response document plus the cache stats
/// of the experiment behind it (all zeros when the store is disabled
/// or the endpoint doesn't cache).
#[derive(Debug)]
pub struct ApiOutcome {
    /// The JSON body (serialized by the server).
    pub body: Value,
    /// Cache traffic this request generated.
    pub cache: CacheStats,
}

impl ApiOutcome {
    fn uncached(body: Value) -> Self {
        ApiOutcome {
            body,
            cache: CacheStats::default(),
        }
    }
}

impl ApiContext {
    /// A context over the default registry with no store.
    #[must_use]
    pub fn new() -> Self {
        ApiContext {
            registry: SolverRegistry::with_defaults(),
            store: None,
        }
    }

    /// Runs `req` through the cached experiment pipeline and returns the
    /// run report. A `Some` namespace keys the cache per tenant; `None`
    /// uses the shared default namespace (byte-identical fingerprints to
    /// a single-tenant server).
    fn run_cell(
        &self,
        namespace: Option<&str>,
        req: &SweepRequest,
        progress: Option<Arc<ProgressFeed>>,
        checkpoint: Option<&std::path::Path>,
    ) -> Result<(wrsn_engine::RunReport, CacheStats), ApiError> {
        let mut experiment = req.experiment()?.record_timings(false);
        if let Some(ns) = namespace {
            experiment = experiment.cache_namespace(ns);
        }
        if let Some(store) = &self.store {
            experiment = experiment.cache(store.clone());
            // The checkpoint rides the store's fsync discipline so a
            // durable server never acknowledges a seed it could lose.
            experiment = experiment.durability(store.durability());
        }
        if let Some(path) = checkpoint {
            // Resume is safe unconditionally: a missing checkpoint file
            // just starts the sweep from scratch, and completed seeds
            // in an existing one are skipped (failed seeds retry).
            experiment = experiment.checkpoint(path).resume(true);
        }
        if let Some(feed) = progress {
            experiment = experiment.on_seed(move |event| match event {
                SeedEvent::Completed { run, .. } => feed.publish_run(run),
                SeedEvent::Failed { failure, .. } => feed.publish_failure(failure),
            });
        }
        let mut report = experiment.run(&self.registry)?;
        // The cache block is stripped from the body so identical
        // requests serialize byte-identically whether they hit or miss;
        // the stats flow to /statusz and the x-cache-* headers instead.
        let cache = report.cache.take().unwrap_or_default();
        Ok((report, cache))
    }

    /// `POST /v1/solve`: one seed through the cached pipeline, plus an
    /// optional full solution dump.
    ///
    /// # Errors
    ///
    /// [`ApiError`] with status 400 for invalid parameters or an
    /// unknown solver, 500 for store failures.
    pub fn solve(&self, req: &SolveRequest) -> Result<ApiOutcome, ApiError> {
        self.solve_in(None, req)
    }

    /// [`solve`](ApiContext::solve) under an optional per-tenant cache
    /// namespace. `None` is byte-identical to [`solve`](ApiContext::solve).
    ///
    /// # Errors
    ///
    /// Same as [`solve`](ApiContext::solve).
    pub fn solve_in(
        &self,
        namespace: Option<&str>,
        req: &SolveRequest,
    ) -> Result<ApiOutcome, ApiError> {
        if let Some(hit) = self.cached_solve_in(namespace, req) {
            return Ok(hit);
        }
        // The engine runs seed ranges, and `seed..seed + 1` has no end
        // for the largest seed.
        if req.seed == u64::MAX {
            let message = format!("seed must be below {}, got {}", u64::MAX, req.seed);
            return Err(ApiError::bad_request(message));
        }
        let cell = SweepRequest {
            instance: req.instance.clone(),
            solver: req.solver.clone(),
            seed_start: req.seed,
            seeds: 1,
        };
        let (report, cache) = self.run_cell(namespace, &cell, None, None)?;
        let mut fields = solve_fields(req, report.runs[0].cost_uj);
        if req.include_solution {
            // The report only carries costs; re-solve for the structural
            // dump. This path bypasses the cache by design — it is a
            // debugging aid, not the hot path.
            let (_, solution) = solve_seed(&self.registry, &req.instance, &req.solver, req.seed)?;
            let counts: Vec<Value> = solution
                .deployment()
                .counts()
                .iter()
                .map(|&c| c.to_value())
                .collect();
            let parents: Vec<Value> = solution
                .tree()
                .parents()
                .iter()
                .map(|&p| p.to_value())
                .collect();
            fields.push((
                "solution".to_string(),
                Value::Object(vec![
                    (
                        "algorithm".to_string(),
                        Value::String(solution.algorithm().to_string()),
                    ),
                    ("deployment".to_string(), Value::Array(counts)),
                    ("routing_parents".to_string(), Value::Array(parents)),
                    (
                        "total_nodes".to_string(),
                        solution.deployment().total().to_value(),
                    ),
                ]),
            ));
        }
        Ok(ApiOutcome {
            body: Value::Object(fields),
            cache,
        })
    }

    /// [`solve_in`](ApiContext::solve_in) when the store already holds
    /// the answer: one key, one lookup and one body, never a solve, so
    /// the server's event loops can answer it inline. `None` sends the
    /// request down the full path: no store, a miss, an unreadable
    /// payload (as in [`Experiment::run`]), `include_solution` (which
    /// re-solves), an unregistered solver or invalid instance
    /// parameters (both of which the full path answers 400).
    #[must_use]
    pub fn cached_solve_in(
        &self,
        namespace: Option<&str>,
        req: &SolveRequest,
    ) -> Option<ApiOutcome> {
        if req.include_solution || !self.registry.contains(&req.solver) {
            return None;
        }
        let store = self.store.as_ref()?;
        let key = req.cache_key(namespace).ok()?;
        let run = SeedRun::from_value(&*store.get(&key)?).ok()?;
        Some(ApiOutcome {
            body: Value::Object(solve_fields(req, run.cost_uj)),
            cache: CacheStats {
                hits: 1,
                ..CacheStats::default()
            },
        })
    }

    /// `POST /v1/simulate`: [`SimulateRequest::run`] over this
    /// context's registry, answered with [`SimRun::summary`].
    ///
    /// # Errors
    ///
    /// [`ApiError`] with status 400 for a setting out of range, invalid
    /// instance parameters, a fault plan that does not fit the instance,
    /// or an unknown solver.
    pub fn simulate(&self, req: &SimulateRequest) -> Result<ApiOutcome, ApiError> {
        Ok(ApiOutcome::uncached(req.run(&self.registry)?.summary()))
    }

    /// `POST /v1/sweep`: a small seed grid through the cached pipeline,
    /// under an optional per-tenant cache namespace. Repeated identical
    /// requests return byte-identical bodies.
    ///
    /// # Errors
    ///
    /// [`ApiError`] with status 400 for invalid parameters, a zero or
    /// over-cap seed count, or an unknown solver.
    pub fn sweep_in(
        &self,
        namespace: Option<&str>,
        req: &SweepRequest,
    ) -> Result<ApiOutcome, ApiError> {
        self.sweep_job_in(namespace, req, None, None)
    }

    /// The async job API's sweep: [`sweep_in`](ApiContext::sweep_in)
    /// plus an optional progress feed and an optional checkpoint path.
    /// The sweep's observer publishes every terminal seed into the feed
    /// (restored and cached ones first), and the job API streams it to
    /// `/v1/jobs/{id}/events`; the body is byte-identical with or
    /// without a feed. With a checkpoint the sweep journals every
    /// completed seed there (under the store's
    /// [`wrsn_engine::DurabilityPolicy`]) and resumes past already
    /// completed seeds on restart, so an interrupted job replays to a
    /// byte-identical report instead of starting over.
    ///
    /// # Errors
    ///
    /// Same as [`sweep_in`](ApiContext::sweep_in).
    pub fn sweep_job_in(
        &self,
        namespace: Option<&str>,
        req: &SweepRequest,
        progress: Option<Arc<ProgressFeed>>,
        checkpoint: Option<&std::path::Path>,
    ) -> Result<ApiOutcome, ApiError> {
        Self::validate_sweep(req)?;
        let (report, cache) = self.run_cell(namespace, req, progress, checkpoint)?;
        Ok(ApiOutcome {
            body: report.to_value(),
            cache,
        })
    }

    /// Checks a sweep's seed range (non-zero, under the cap, no
    /// overflow) and returns the exclusive end seed. Exposed so the job
    /// API can reject bad specs at submit time, before spawning a
    /// worker thread.
    ///
    /// # Errors
    ///
    /// [`ApiError`] with status 400 for a zero or over-cap seed count
    /// or a range that overflows `u64`.
    pub fn validate_sweep(req: &SweepRequest) -> Result<u64, ApiError> {
        if req.seeds > MAX_SWEEP_SEEDS {
            return Err(ApiError::bad_request(format!(
                "seeds capped at {MAX_SWEEP_SEEDS} per request, got {}",
                req.seeds
            )));
        }
        Ok(req.seed_range()?.end)
    }

    /// `GET /v1/solvers`: the registry listing.
    #[must_use]
    pub fn solvers(&self) -> ApiOutcome {
        let mut names: Vec<&str> = self.registry.names();
        names.sort_unstable();
        let names = names
            .into_iter()
            .map(|n| Value::String(n.to_string()))
            .collect();
        ApiOutcome::uncached(Value::Object(vec![(
            "solvers".to_string(),
            Value::Array(names),
        )]))
    }
}

impl Default for ApiContext {
    fn default() -> Self {
        ApiContext::new()
    }
}

/// The `/v1/solve` body's cost summary, hit or miss.
fn solve_fields(req: &SolveRequest, cost_uj: f64) -> Vec<(String, Value)> {
    vec![
        ("solver".to_string(), Value::String(req.solver.clone())),
        ("seed".to_string(), req.seed.to_value()),
        ("cost_uj".to_string(), cost_uj.to_value()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> InstanceParams {
        InstanceParams {
            posts: 6,
            nodes: 15,
            field: 150.0,
            ..InstanceParams::default()
        }
    }

    #[test]
    fn solve_returns_a_cost() {
        let ctx = ApiContext::new();
        let req = SolveRequest {
            instance: small(),
            solver: "idb".to_string(),
            ..SolveRequest::default()
        };
        let out = ctx.solve(&req).unwrap();
        let cost = out.body.get("cost_uj").and_then(Value::as_f64).unwrap();
        assert!(cost > 0.0);
        assert!(out.body.get("solution").is_none());
    }

    #[test]
    fn solve_can_include_the_solution() {
        let ctx = ApiContext::new();
        let req = SolveRequest {
            instance: small(),
            solver: "idb".to_string(),
            include_solution: true,
            ..SolveRequest::default()
        };
        let out = ctx.solve(&req).unwrap();
        let solution = out.body.get("solution").unwrap();
        let counts = solution
            .get("deployment")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(counts.len(), 6);
        let parents = solution
            .get("routing_parents")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(parents.len(), 6);
    }

    #[test]
    fn unknown_solver_is_a_400() {
        let ctx = ApiContext::new();
        let req = SolveRequest {
            instance: small(),
            solver: "nonsense".to_string(),
            ..SolveRequest::default()
        };
        let err = ctx.solve(&req).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("nonsense"));
    }

    #[test]
    fn the_largest_seed_is_a_400_naming_seed() {
        let ctx = ApiContext::new();
        let req = SolveRequest {
            instance: small(),
            solver: "idb".to_string(),
            seed: u64::MAX,
            ..SolveRequest::default()
        };
        let err = ctx.solve(&req).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(
            err.message.starts_with("seed must be below"),
            "{}",
            err.message
        );
        // The seed just below it still solves.
        let req = SolveRequest {
            seed: u64::MAX - 1,
            ..req
        };
        assert!(ctx.solve(&req).is_ok());
    }

    #[test]
    fn invalid_instance_is_a_400() {
        let ctx = ApiContext::new();
        let req = SolveRequest {
            instance: InstanceParams {
                posts: 0,
                ..InstanceParams::default()
            },
            ..SolveRequest::default()
        };
        assert_eq!(ctx.solve(&req).unwrap_err().status, 400);
    }

    #[test]
    fn simulate_reports_delivery() {
        let ctx = ApiContext::new();
        let req = SimulateRequest {
            instance: small(),
            solver: "idb".to_string(),
            rounds: 50,
            ..SimulateRequest::default()
        };
        let out = ctx.simulate(&req).unwrap();
        assert_eq!(out.body.get("rounds").and_then(Value::as_u64), Some(50));
        let ratio = out
            .body
            .get("delivery_ratio")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((ratio - 1.0).abs() < 1e-9, "fault-free run delivers all");
        assert_eq!(out.body.get("link_losses").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn simulate_with_link_loss_drops_reports() {
        let ctx = ApiContext::new();
        let req = SimulateRequest {
            instance: small(),
            solver: "idb".to_string(),
            rounds: 50,
            link_loss: Some(1.0),
            ..SimulateRequest::default()
        };
        let out = ctx.simulate(&req).unwrap();
        let ratio = out
            .body
            .get("delivery_ratio")
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(ratio, 0.0, "total link loss delivers nothing");
        assert!(out.body.get("link_losses").and_then(Value::as_u64).unwrap() > 0);
    }

    #[test]
    fn simulate_rejects_bad_probabilities_and_batteries() {
        let ctx = ApiContext::new();
        let req = SimulateRequest {
            instance: small(),
            link_loss: Some(1.5),
            ..SimulateRequest::default()
        };
        assert_eq!(ctx.simulate(&req).unwrap_err().status, 400);
        let req = SimulateRequest {
            instance: small(),
            battery_j: 0.0,
            ..SimulateRequest::default()
        };
        assert_eq!(ctx.simulate(&req).unwrap_err().status, 400);
    }

    #[test]
    fn simulate_accepts_degradation_knobs() {
        let ctx = ApiContext::new();
        let req = SimulateRequest {
            instance: small(),
            solver: "idb".to_string(),
            rounds: 80,
            battery_j: 0.001,
            battery_fade: Some(0.2),
            charger_down: Some(vec![(10, 40)]),
            ..SimulateRequest::default()
        };
        let out = ctx.simulate(&req).unwrap();
        assert_eq!(
            out.body
                .get("charger_downtime_rounds")
                .and_then(Value::as_u64),
            Some(30)
        );
        assert!(out.body.get("capacity_floor_hits").is_some());
        assert!(out.body.get("breakdown_deaths").is_some());
    }

    #[test]
    fn simulate_rejects_half_a_breakdown_window() {
        // The window is one `[from, until]` pair; the parts are unknown keys.
        let err = serde_json::from_str::<SimulateRequest>(r#"{"charger_down_from": 10}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("charger_down_from"), "{err}");
    }

    #[test]
    fn sweep_validates_the_seed_count() {
        let ctx = ApiContext::new();
        let req = SweepRequest {
            instance: small(),
            seeds: 0,
            ..SweepRequest::default()
        };
        assert_eq!(ctx.sweep_in(None, &req).unwrap_err().status, 400);
        let req = SweepRequest {
            instance: small(),
            seeds: MAX_SWEEP_SEEDS + 1,
            ..SweepRequest::default()
        };
        assert_eq!(ctx.sweep_in(None, &req).unwrap_err().status, 400);
        let req = SweepRequest {
            instance: small(),
            seed_start: u64::MAX,
            seeds: 2,
            ..SweepRequest::default()
        };
        assert_eq!(ctx.sweep_in(None, &req).unwrap_err().status, 400);
    }

    #[test]
    fn sweep_through_a_store_hits_on_repeat_and_stays_byte_identical() {
        let dir = std::env::temp_dir().join("wrsn-serve-api-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut ctx = ApiContext::new();
        ctx.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let req = SweepRequest {
            instance: small(),
            solver: "idb".to_string(),
            seeds: 3,
            ..SweepRequest::default()
        };
        let first = ctx.sweep_in(None, &req).unwrap();
        assert_eq!(first.cache.hits, 0);
        assert_eq!(first.cache.misses, 3);
        let second = ctx.sweep_in(None, &req).unwrap();
        assert_eq!(second.cache.hits, 3);
        assert_eq!(second.cache.misses, 0);
        assert_eq!(
            serde_json::to_string(&first.body).unwrap(),
            serde_json::to_string(&second.body).unwrap(),
            "cache hits must not change the response body"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    fn scratch_store(name: &str) -> Arc<ResultStore> {
        let dir = std::env::temp_dir().join("wrsn-serve-api").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(ResultStore::open(&dir).unwrap())
    }

    #[test]
    fn cache_keys_are_the_keys_the_handlers_write() {
        let scenario = wrsn_core::ScenarioSpec {
            chargers: 2,
            ..wrsn_core::ScenarioSpec::default()
        };
        for (i, (namespace, scenario)) in [
            (None, None),
            (Some("tenant-a"), None),
            (None, Some(scenario.clone())),
            (Some("tenant-a"), Some(scenario)),
        ]
        .into_iter()
        .enumerate()
        {
            let store = scratch_store(&format!("keys-{i}"));
            let mut ctx = ApiContext::new();
            ctx.store = Some(Arc::clone(&store));
            let instance = InstanceParams {
                scenario,
                ..small()
            };
            let solve = SolveRequest {
                instance: instance.clone(),
                solver: "sched-tour".to_string(),
                seed: 4,
                ..SolveRequest::default()
            };
            assert_eq!(ctx.solve_in(namespace, &solve).unwrap().cache.misses, 1);
            assert_eq!(store.len(), 1);
            let key = solve.cache_key(namespace).unwrap();
            assert!(store.get(&key).is_some(), "case {i}: solve key");

            let sweep = SweepRequest {
                instance,
                solver: "sched-tour".to_string(),
                seed_start: 4,
                seeds: 3,
            };
            let keys = sweep.cache_keys(namespace).unwrap();
            assert_eq!(keys[0], key, "case {i}: a sweep's first seed is the solve");
            assert_eq!(ctx.sweep_in(namespace, &sweep).unwrap().cache.misses, 2);
            assert_eq!(store.len(), 3);
            assert!(keys.iter().all(|k| store.get(k).is_some()), "case {i}");
        }
    }

    #[test]
    fn cached_solves_answer_only_stored_plain_requests() {
        let mut ctx = ApiContext::new();
        let req = SolveRequest {
            instance: small(),
            solver: "idb".to_string(),
            seed: 2,
            ..SolveRequest::default()
        };
        assert!(ctx.cached_solve_in(None, &req).is_none(), "no store");
        ctx.store = Some(scratch_store("cached-solve"));
        assert!(ctx.cached_solve_in(None, &req).is_none(), "a miss");
        let miss = ctx.solve_in(None, &req).unwrap();
        let hit = ctx.cached_solve_in(None, &req).expect("stored by the miss");
        assert_eq!(
            serde_json::to_string(&hit.body).unwrap(),
            serde_json::to_string(&miss.body).unwrap()
        );
        assert_eq!((hit.cache.hits, hit.cache.misses), (1, 0));
        assert!(ctx.cached_solve_in(Some("other"), &req).is_none());
        let with_solution = SolveRequest {
            include_solution: true,
            ..req.clone()
        };
        assert!(ctx.cached_solve_in(None, &with_solution).is_none());
        // A name the registry lost since the result was stored answers
        // 400 on the full path, never a stored cost.
        ctx.registry = SolverRegistry::new();
        assert!(ctx.cached_solve_in(None, &req).is_none());
        assert_eq!(ctx.solve_in(None, &req).unwrap_err().status, 400);
    }

    #[test]
    fn solvers_lists_the_registry_sorted() {
        let ctx = ApiContext::new();
        let out = ctx.solvers();
        let names = out.body.get("solvers").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = names.iter().filter_map(Value::as_str).collect();
        assert!(names.contains(&"irfh"));
        assert!(names.contains(&"idb"));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn request_bodies_reject_unknown_and_repeated_keys() {
        for (body, key, ty) in [
            (r#"{"link_los": 1.0}"#, "link_los", "SimulateRequest"),
            (r#"{"instance": {"post": 6}}"#, "post", "InstanceParams"),
            (r#"{"rounds": 5, "rounds": 7}"#, "rounds", "SimulateRequest"),
            (
                r#"{"instance": {"scenario": {"charger": 2}}}"#,
                "charger",
                "ScenarioSpec",
            ),
        ] {
            let err = serde_json::from_str::<SimulateRequest>(body)
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("`{key}` in {ty}")), "{body}: {err}");
        }
        assert!(serde_json::from_str::<SolveRequest>(r#"{"seeds": 2}"#).is_err());
        assert!(serde_json::from_str::<SweepRequest>(r#"{"seed": 2}"#).is_err());
    }

    #[test]
    fn request_types_deserialize_with_defaults() {
        let req: SolveRequest = serde_json::from_str("{}").unwrap();
        assert_eq!(req.solver, "irfh");
        assert_eq!(req.seed, 0);
        let req: SimulateRequest = serde_json::from_str("{\"rounds\": 7}").unwrap();
        assert_eq!(req.rounds, 7);
        assert_eq!(req.bits_per_report, 4000);
        let req: SweepRequest = serde_json::from_str("{\"seeds\": 2}").unwrap();
        assert_eq!(req.seeds, 2);
        assert_eq!(req.seed_start, 0);
    }
}
