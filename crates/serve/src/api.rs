//! Request/response types and handlers for the `/v1` endpoints.
//!
//! Handlers are plain functions over an [`ApiContext`] — no HTTP in
//! sight — so the whole API surface unit-tests without sockets. The
//! server module wires them to parsed [`crate::http::Request`]s.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use wrsn_energy::Energy;
use wrsn_engine::{
    CacheStats, EngineError, Experiment, InstanceParams, ProgressFeed, ResultStore, SolverRegistry,
};
use wrsn_sim::{ChargerPolicy, FaultPlan, SimConfig, Simulator, DEFAULT_FADE_FLOOR};

/// The maximum seed count a single `/v1/sweep` request may ask for —
/// big sweeps belong in the CLI, not behind a request timeout.
pub const MAX_SWEEP_SEEDS: u64 = 1024;

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

fn default_sweep_seeds() -> u64 {
    8
}

fn default_fade_floor() -> f64 {
    DEFAULT_FADE_FLOOR
}

/// `POST /v1/solve` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
        SolveRequest {
            instance: InstanceParams::default(),
            solver: default_solver(),
            seed: 0,
            include_solution: false,
        }
    }
}

/// `POST /v1/simulate` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Per-node battery capacity in joules.
    #[serde(default = "default_battery")]
    pub battery_j: f64,
    /// Seed for the fault plan's RNG streams.
    #[serde(default)]
    pub fault_seed: u64,
    /// Per-hop link-loss probability (0 disables).
    #[serde(default)]
    pub link_loss: f64,
    /// Probability the charger skips a scheduled visit (0 disables).
    #[serde(default)]
    pub charger_skip: f64,
    /// Probability a charger visit is delayed (0 disables).
    #[serde(default)]
    pub charger_delay: f64,
    /// Per-charge-cycle capacity fade fraction (0 disables).
    #[serde(default)]
    pub battery_fade: f64,
    /// Capacity floor for fade, as a fraction of nameplate.
    #[serde(default = "default_fade_floor")]
    pub fade_floor: f64,
    /// First round of a total charger breakdown (requires
    /// `charger_down_until`).
    #[serde(default)]
    pub charger_down_from: Option<u64>,
    /// First round after the breakdown ends.
    #[serde(default)]
    pub charger_down_until: Option<u64>,
}

impl Default for SimulateRequest {
    fn default() -> Self {
        SimulateRequest {
            instance: InstanceParams::default(),
            solver: default_solver(),
            seed: 0,
            rounds: default_rounds(),
            bits_per_report: default_bits(),
            battery_j: default_battery(),
            fault_seed: 0,
            link_loss: 0.0,
            charger_skip: 0.0,
            charger_delay: 0.0,
            battery_fade: 0.0,
            fade_floor: default_fade_floor(),
            charger_down_from: None,
            charger_down_until: None,
        }
    }
}

/// `POST /v1/sweep` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
        SweepRequest {
            instance: InstanceParams::default(),
            solver: default_solver(),
            seed_start: 0,
            seeds: default_sweep_seeds(),
        }
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

    /// Runs one (instance, solver, seed) cell through the cached
    /// experiment pipeline and returns the run report. A `Some`
    /// namespace keys the cache per tenant; `None` uses the shared
    /// default namespace (byte-identical fingerprints to a
    /// single-tenant server).
    fn run_cell(
        &self,
        namespace: Option<&str>,
        instance: &InstanceParams,
        solver: &str,
        seeds: std::ops::Range<u64>,
        progress: Option<Arc<ProgressFeed>>,
        checkpoint: Option<&std::path::Path>,
    ) -> Result<(wrsn_engine::RunReport, CacheStats), ApiError> {
        let source = instance.source()?;
        let mut experiment = Experiment::new(source)
            .solver(solver)
            .seeds(seeds)
            .record_timings(false);
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
            experiment = experiment.progress(feed);
        }
        // A request scenario rebinds the scheduling solvers and keys the
        // cache fingerprints (via Experiment::scenario), so differently
        // parameterized requests never collide in the store.
        if let Some(spec) = &instance.scenario {
            experiment = experiment.scenario(spec.clone());
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
        let (report, cache) = self.run_cell(
            namespace,
            &req.instance,
            &req.solver,
            req.seed..req.seed + 1,
            None,
            None,
        )?;
        let run = &report.runs[0];
        let mut fields = vec![
            ("solver".to_string(), Value::String(req.solver.clone())),
            ("seed".to_string(), req.seed.to_value()),
            ("cost_uj".to_string(), run.cost_uj.to_value()),
        ];
        if req.include_solution {
            // The report only carries costs; rebuild the instance and
            // re-solve for the structural dump. This path bypasses the
            // cache by design — it is a debugging aid, not the hot path.
            let source = req.instance.source()?;
            let instance = source.instance(req.seed)?;
            let solver = self
                .registry
                .resolve(&req.solver, req.instance.scenario.as_ref())?;
            let solution = solver
                .solve(&instance)
                .map_err(|e| ApiError::bad_request(format!("solve failed: {e}")))?;
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

    /// `POST /v1/simulate`: solve, then run the discrete-event
    /// simulator with the requested fault knobs.
    ///
    /// # Errors
    ///
    /// [`ApiError`] with status 400 for invalid parameters, fault
    /// probabilities outside `[0, 1]`, or an unknown solver.
    pub fn simulate(&self, req: &SimulateRequest) -> Result<ApiOutcome, ApiError> {
        if req.battery_j <= 0.0 {
            return Err(ApiError::bad_request(format!(
                "battery_j must be positive, got {}",
                req.battery_j
            )));
        }
        let source = req.instance.source()?;
        let instance = source.instance(req.seed)?;
        let solver = self
            .registry
            .resolve(&req.solver, req.instance.scenario.as_ref())?;
        let solution = solver
            .solve(&instance)
            .map_err(|e| ApiError::bad_request(format!("solve failed: {e}")))?;
        let breakdown = match (req.charger_down_from, req.charger_down_until) {
            (Some(from), Some(until)) => Some((from, until)),
            (None, None) => None,
            _ => {
                return Err(ApiError::bad_request(
                    "charger_down_from and charger_down_until must be given together",
                ));
            }
        };
        let faults = if req.link_loss > 0.0
            || req.charger_skip > 0.0
            || req.charger_delay > 0.0
            || req.battery_fade > 0.0
            || breakdown.is_some()
        {
            let mut plan = FaultPlan::seeded(req.fault_seed);
            if req.link_loss > 0.0 {
                plan = plan.link_loss(req.link_loss);
            }
            if req.charger_skip > 0.0 {
                plan = plan.charger_skips(req.charger_skip);
            }
            if req.charger_delay > 0.0 {
                plan = plan.charger_delays(req.charger_delay, 5.0);
            }
            if req.battery_fade > 0.0 {
                plan = plan
                    .battery_fade(req.battery_fade)
                    .battery_fade_floor(req.fade_floor);
            }
            if let Some((from, until)) = breakdown {
                plan = plan.charger_breakdown(from, until);
            }
            plan.validate(instance.num_posts())
                .map_err(|why| ApiError::bad_request(format!("fault plan: {why}")))?;
            Some(plan)
        } else {
            None
        };
        let config = SimConfig {
            round_interval_s: 1.0,
            bits_per_report: req.bits_per_report,
            battery_capacity: Energy::from_joules(req.battery_j),
            charger: ChargerPolicy::Threshold {
                interval_s: 10.0,
                trigger_soc: 0.5,
            },
            record_soc_every: None,
            charger_power_w: f64::INFINITY,
            faults,
            tour_order: None,
        };
        let report = Simulator::new(&instance, &solution, config).run(req.rounds);
        let body = Value::Object(vec![
            ("solver".to_string(), Value::String(req.solver.clone())),
            ("seed".to_string(), req.seed.to_value()),
            ("rounds".to_string(), report.rounds_completed.to_value()),
            (
                "reports_delivered".to_string(),
                report.reports_delivered.to_value(),
            ),
            ("reports_lost".to_string(), report.reports_lost.to_value()),
            (
                "delivery_ratio".to_string(),
                report.delivery_ratio().to_value(),
            ),
            (
                "charger_energy_j".to_string(),
                report.charger_energy.as_joules().to_value(),
            ),
            (
                "consumed_energy_j".to_string(),
                report.consumed_energy.as_joules().to_value(),
            ),
            ("link_losses".to_string(), report.link_losses.to_value()),
            ("charger_skips".to_string(), report.charger_skips.to_value()),
            (
                "charger_delays".to_string(),
                report.charger_delays.to_value(),
            ),
            (
                "capacity_floor_hits".to_string(),
                report.capacity_floor_hits.to_value(),
            ),
            (
                "charger_downtime_rounds".to_string(),
                report.charger_downtime_rounds.to_value(),
            ),
            (
                "breakdown_deaths".to_string(),
                report.breakdown_deaths.to_value(),
            ),
            (
                "first_fault_round".to_string(),
                match report.first_fault_round {
                    Some(r) => r.to_value(),
                    None => Value::Null,
                },
            ),
            (
                "first_death_s".to_string(),
                match report.first_death {
                    Some((t, _)) => t.to_value(),
                    None => Value::Null,
                },
            ),
        ]);
        Ok(ApiOutcome::uncached(body))
    }

    /// `POST /v1/sweep`: a small seed grid through the cached pipeline.
    /// Repeated identical requests return byte-identical bodies.
    ///
    /// # Errors
    ///
    /// [`ApiError`] with status 400 for invalid parameters, a zero or
    /// over-cap seed count, or an unknown solver.
    pub fn sweep(&self, req: &SweepRequest) -> Result<ApiOutcome, ApiError> {
        self.sweep_with_progress(req, None)
    }

    /// [`sweep`](ApiContext::sweep) under an optional per-tenant cache
    /// namespace. `None` is byte-identical to [`sweep`](ApiContext::sweep).
    ///
    /// # Errors
    ///
    /// Same as [`sweep`](ApiContext::sweep).
    pub fn sweep_in(
        &self,
        namespace: Option<&str>,
        req: &SweepRequest,
    ) -> Result<ApiOutcome, ApiError> {
        self.sweep_with_progress_in(namespace, req, None)
    }

    /// [`sweep`](ApiContext::sweep) with an optional progress feed that
    /// observes every terminal seed (including cache hits) as the sweep
    /// runs — the async job API streams it to `/v1/jobs/{id}/events`.
    /// The response body is byte-identical with or without a feed.
    ///
    /// # Errors
    ///
    /// Same as [`sweep`](ApiContext::sweep).
    pub fn sweep_with_progress(
        &self,
        req: &SweepRequest,
        progress: Option<Arc<ProgressFeed>>,
    ) -> Result<ApiOutcome, ApiError> {
        self.sweep_with_progress_in(None, req, progress)
    }

    /// [`sweep_with_progress`](ApiContext::sweep_with_progress) under an
    /// optional per-tenant cache namespace.
    ///
    /// # Errors
    ///
    /// Same as [`sweep`](ApiContext::sweep).
    pub fn sweep_with_progress_in(
        &self,
        namespace: Option<&str>,
        req: &SweepRequest,
        progress: Option<Arc<ProgressFeed>>,
    ) -> Result<ApiOutcome, ApiError> {
        self.sweep_job_in(namespace, req, progress, None)
    }

    /// The async job API's sweep: like
    /// [`sweep_with_progress_in`](ApiContext::sweep_with_progress_in),
    /// plus an optional checkpoint path. With a checkpoint the sweep
    /// journals every completed seed there (under the store's
    /// [`wrsn_engine::DurabilityPolicy`]) and resumes past already
    /// completed seeds on restart, so an interrupted job replays to a
    /// byte-identical report instead of starting over.
    ///
    /// # Errors
    ///
    /// Same as [`sweep`](ApiContext::sweep).
    pub fn sweep_job_in(
        &self,
        namespace: Option<&str>,
        req: &SweepRequest,
        progress: Option<Arc<ProgressFeed>>,
        checkpoint: Option<&std::path::Path>,
    ) -> Result<ApiOutcome, ApiError> {
        let end = Self::validate_sweep(req)?;
        let (report, cache) = self.run_cell(
            namespace,
            &req.instance,
            &req.solver,
            req.seed_start..end,
            progress,
            checkpoint,
        )?;
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
        if req.seeds == 0 {
            return Err(ApiError::bad_request("seeds must be at least 1"));
        }
        if req.seeds > MAX_SWEEP_SEEDS {
            return Err(ApiError::bad_request(format!(
                "seeds capped at {MAX_SWEEP_SEEDS} per request, got {}",
                req.seeds
            )));
        }
        req.seed_start
            .checked_add(req.seeds)
            .ok_or_else(|| ApiError::bad_request("seed_start + seeds overflows"))
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
            link_loss: 1.0,
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
            link_loss: 1.5,
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
            battery_fade: 0.2,
            charger_down_from: Some(10),
            charger_down_until: Some(40),
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
        let ctx = ApiContext::new();
        let req = SimulateRequest {
            instance: small(),
            charger_down_from: Some(10),
            ..SimulateRequest::default()
        };
        let err = ctx.simulate(&req).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("together"));
    }

    #[test]
    fn sweep_validates_the_seed_count() {
        let ctx = ApiContext::new();
        let req = SweepRequest {
            instance: small(),
            seeds: 0,
            ..SweepRequest::default()
        };
        assert_eq!(ctx.sweep(&req).unwrap_err().status, 400);
        let req = SweepRequest {
            instance: small(),
            seeds: MAX_SWEEP_SEEDS + 1,
            ..SweepRequest::default()
        };
        assert_eq!(ctx.sweep(&req).unwrap_err().status, 400);
        let req = SweepRequest {
            instance: small(),
            seed_start: u64::MAX,
            seeds: 2,
            ..SweepRequest::default()
        };
        assert_eq!(ctx.sweep(&req).unwrap_err().status, 400);
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
        let first = ctx.sweep(&req).unwrap();
        assert_eq!(first.cache.hits, 0);
        assert_eq!(first.cache.misses, 3);
        let second = ctx.sweep(&req).unwrap();
        assert_eq!(second.cache.hits, 3);
        assert_eq!(second.cache.misses, 0);
        assert_eq!(
            serde_json::to_string(&first.body).unwrap(),
            serde_json::to_string(&second.body).unwrap(),
            "cache hits must not change the response body"
        );
        let _ = std::fs::remove_dir_all(dir);
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
