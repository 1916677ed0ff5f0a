//! Errors raised by the experiment pipeline.

use std::error::Error;
use std::fmt;
use wrsn_core::{BuildError, SolveError, SpecError};

/// A failure anywhere in the experiment pipeline: resolving a solver
/// name, materializing an instance, or solving one of a sweep's seeds.
#[derive(Debug)]
pub enum EngineError {
    /// A solver name was not present in the registry.
    UnknownSolver {
        /// The requested name.
        name: String,
        /// Every name the registry does know, sorted.
        known: Vec<String>,
    },
    /// A solver name was registered twice; shadowing a registration
    /// silently would let a sweep labeled with one algorithm run
    /// another. Use `SolverRegistry::replace` to overwrite on purpose.
    DuplicateSolver {
        /// The already-registered name.
        name: String,
    },
    /// The instance source could not produce a valid instance.
    Build(BuildError),
    /// A saved instance spec failed to parse or validate.
    Spec(SpecError),
    /// A solver failed on one of the sweep's seeds.
    Solve {
        /// The registry name of the solver that failed.
        solver: String,
        /// The seed whose instance it failed on.
        seed: u64,
        /// The underlying solver error.
        error: SolveError,
    },
    /// A seed's worker panicked; the fault-tolerant sweep caught it.
    SeedPanicked {
        /// The registry name of the solver that panicked.
        solver: String,
        /// The seed whose instance it panicked on.
        seed: u64,
        /// Attempts made before giving up.
        attempts: u32,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// A sweep checkpoint could not be read, written, or matched to the
    /// experiment being run.
    Checkpoint {
        /// The checkpoint file.
        path: std::path::PathBuf,
        /// What went wrong.
        message: String,
    },
    /// The result store failed to read or append a cached run.
    Store(wrsn_store::StoreError),
    /// A shard specification was out of range: the index is 1-based and
    /// must not exceed the shard count.
    BadShard {
        /// The requested 1-based shard index.
        index: u32,
        /// The total shard count.
        count: u32,
    },
    /// The experiment was configured with an empty seed range.
    NoSeeds,
    /// A request's parameters were out of range or inconsistent (used
    /// by front ends resolving declarative parameters into sources).
    InvalidRequest(String),
    /// One named setting of a request spec was out of range. `setting`
    /// is the spec's JSON key; a front end with other names for its
    /// settings (the CLI's flags) renders it in its own terms.
    InvalidSetting {
        /// The setting's JSON key, e.g. `"battery_j"`.
        setting: &'static str,
        /// What is wrong with its value, e.g. `"must be positive, got 0"`.
        problem: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownSolver { name, known } => {
                write!(f, "unknown solver {name:?} (known: {})", known.join(", "))
            }
            EngineError::DuplicateSolver { name } => write!(
                f,
                "solver {name:?} is already registered; use replace() to overwrite it"
            ),
            EngineError::Build(e) => write!(f, "building instance: {e}"),
            EngineError::Spec(e) => write!(f, "instance spec: {e}"),
            EngineError::Solve {
                solver,
                seed,
                error,
            } => {
                write!(f, "solver {solver:?} failed on seed {seed}: {error}")
            }
            EngineError::SeedPanicked {
                solver,
                seed,
                attempts,
                message,
            } => write!(
                f,
                "solver {solver:?} panicked on seed {seed} ({attempts} attempt(s)): {message}"
            ),
            EngineError::Checkpoint { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
            EngineError::Store(e) => write!(f, "result store: {e}"),
            EngineError::BadShard { index, count } => write!(
                f,
                "invalid shard {index}/{count}: the index is 1-based and must lie in 1..={count}"
            ),
            EngineError::NoSeeds => write!(f, "experiment has an empty seed range"),
            EngineError::InvalidRequest(message) => write!(f, "invalid request: {message}"),
            EngineError::InvalidSetting { setting, problem } => write!(f, "{setting} {problem}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Build(e) => Some(e),
            EngineError::Spec(e) => Some(e),
            EngineError::Solve { error, .. } => Some(error),
            EngineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for EngineError {
    fn from(e: BuildError) -> Self {
        EngineError::Build(e)
    }
}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl From<wrsn_store::StoreError> for EngineError {
    fn from(e: wrsn_store::StoreError) -> Self {
        EngineError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty_and_informative() {
        let errors = [
            EngineError::UnknownSolver {
                name: "magic".into(),
                known: vec!["idb".into(), "rfh".into()],
            },
            EngineError::Build(BuildError::NoPosts),
            EngineError::Solve {
                solver: "exhaustive".into(),
                seed: 3,
                error: SolveError::SearchSpaceTooLarge {
                    combinations: 1 << 40,
                    limit: 1 << 20,
                },
            },
            EngineError::SeedPanicked {
                solver: "idb".into(),
                seed: 4,
                attempts: 2,
                message: "index out of bounds".into(),
            },
            EngineError::Checkpoint {
                path: "ck.json".into(),
                message: "truncated".into(),
            },
            EngineError::Store(wrsn_store::StoreError::Io {
                path: "cache/seg-0.jsonl".into(),
                message: "disk full".into(),
            }),
            EngineError::BadShard { index: 5, count: 4 },
            EngineError::NoSeeds,
            EngineError::DuplicateSolver { name: "idb".into() },
            EngineError::InvalidSetting {
                setting: "battery_j",
                problem: "must be positive, got 0".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn panic_and_checkpoint_errors_carry_context() {
        let e = EngineError::SeedPanicked {
            solver: "idb".into(),
            seed: 4,
            attempts: 2,
            message: "boom".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("idb") && msg.contains("seed 4") && msg.contains("boom"));
        let e = EngineError::Checkpoint {
            path: "bench_results/x.checkpoint.json".into(),
            message: "version 9".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("x.checkpoint.json") && msg.contains("version 9"));
    }

    #[test]
    fn unknown_solver_lists_known_names() {
        let e = EngineError::UnknownSolver {
            name: "magic".into(),
            known: vec!["idb".into(), "rfh".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("magic"));
        assert!(msg.contains("idb"));
        assert!(msg.contains("rfh"));
    }

    #[test]
    fn is_a_std_error_with_sources() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<EngineError>();
        let e = EngineError::Build(BuildError::NoPosts);
        assert!(e.source().is_some());
        assert!(EngineError::NoSeeds.source().is_none());
    }
}
