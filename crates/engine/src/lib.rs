//! # wrsn-engine — the shared experiment pipeline
//!
//! One place where solvers are constructed, seed sweeps are fanned out,
//! and results are aggregated, shared by the CLI, the benches, and the
//! integration tests:
//!
//! - [`SolverRegistry`] maps names (`"rfh"`, `"irfh"`, `"idb"`, …) to
//!   solver factories, replacing per-consumer hard-coded constructors;
//! - [`Experiment`] describes one evaluation cell: an instance source
//!   (a random [`wrsn_core::InstanceSampler`] or a pinned
//!   [`wrsn_core::InstanceSpec`]), a solver name, and a seed range;
//! - [`SweepRunner`] fans the seeds across threads while keeping
//!   per-seed results byte-identical to a sequential run;
//! - [`RunReport`] carries per-seed costs, per-phase wall-clock timings,
//!   optional cost-history traces, and summary statistics, and
//!   serializes to JSON.
//!
//! ```
//! use wrsn_core::InstanceSampler;
//! use wrsn_engine::{Experiment, SolverRegistry};
//! use wrsn_geom::Field;
//!
//! let registry = SolverRegistry::with_defaults();
//! let report = Experiment::sampled(InstanceSampler::new(Field::square(200.0), 6, 15))
//!     .label("demo")
//!     .solver("irfh")
//!     .seeds(0..3)
//!     .run(&registry)?;
//! assert_eq!(report.runs.len(), 3);
//! println!("{}", report.to_json());
//! # Ok::<(), wrsn_engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod error;
mod experiment;
mod params;
mod registry;
mod report;
mod runner;
mod table;

pub use checkpoint::{
    merge_checkpoints, CheckpointLog, ProgressFeed, ProgressSnapshot, SweepCheckpoint,
    CHECKPOINT_VERSION,
};
pub use error::EngineError;
pub use experiment::{
    cache_tag, seed_fingerprint_scenario, Experiment, InstanceSource, KeyPrefix, SeedEvent,
    ENGINE_VERSION,
};
pub use params::{InstanceParams, MAX_LEVELS, MAX_NODES, MAX_POSTS};
pub use registry::{SolverFactory, SolverRegistry};
pub use report::{mean, save_json, std_dev, RunReport, SeedFailure, SeedRun, SummaryStats};
pub use runner::{run_seeds, Failure, RetryPolicy, SeedOutcome, SweepRunner};
pub use table::Table;

// The tour planner surfaces through the engine so front ends that
// simulate a planned tour don't need a direct wrsn-sched dependency.
pub use wrsn_sched::{plan_tour_schedule, TourSchedule};

// Result-store types surface through the engine so consumers (CLI,
// benches) don't need a direct wrsn-store dependency for common use.
pub use wrsn_store::{
    CacheStats, DurabilityPolicy, FaultFs, Fingerprint, FingerprintBuilder, GcReport, IoSnapshot,
    IoStats, RealFs, ResultStore, StoreError, StoreOptions, VerifyReport, Vfs,
};
// The store's atomic whole-file write, for files kept beside a store
// (the server's job journals) under its fsync discipline.
pub use wrsn_store::jsonl::write_log_on;
