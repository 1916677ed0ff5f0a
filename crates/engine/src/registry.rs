//! Name → solver-factory registry.

use crate::EngineError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use wrsn_core::{
    BranchAndBound, ExhaustiveSearch, Idb, LifetimeBalanced, Rfh, ScenarioSpec, Solver,
    UniformDeployment,
};
use wrsn_sched::{SchedBilevel, SchedPlace, SchedTour};

/// A shared, thread-safe constructor for a boxed [`Solver`].
///
/// Factories (rather than prebuilt boxed solvers) let a parallel sweep
/// build one solver per worker without requiring `Solver: Sync`.
pub type SolverFactory = Arc<dyn Fn() -> Box<dyn Solver> + Send + Sync>;

/// Maps solver names to factories, so every consumer — CLI, benches,
/// tests — constructs solvers the same way.
///
/// # Examples
///
/// ```
/// use wrsn_engine::SolverRegistry;
///
/// let mut registry = SolverRegistry::with_defaults();
/// registry.register("irfh10", || Box::new(wrsn_core::Rfh::iterative(10)))?;
/// let solver = registry.create("irfh10")?;
/// assert_eq!(solver.name(), "iRFH");
/// assert!(registry.create("magic").is_err());
/// // Registering an existing name is an error; `replace` is explicit.
/// assert!(registry.register("irfh10", || Box::new(wrsn_core::Idb::new(1))).is_err());
/// registry.replace("irfh10", || Box::new(wrsn_core::Idb::new(1)));
/// assert_eq!(registry.create("irfh10")?.name(), "IDB");
/// # Ok::<(), wrsn_engine::EngineError>(())
/// ```
#[derive(Clone, Default)]
pub struct SolverRegistry {
    factories: BTreeMap<String, SolverFactory>,
}

impl SolverRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        SolverRegistry::default()
    }

    /// A registry pre-loaded with every built-in solver under its
    /// canonical CLI name:
    ///
    /// | name | solver |
    /// |---|---|
    /// | `rfh` | [`Rfh::basic`] |
    /// | `irfh` | [`Rfh::iterative`]`(7)` (the paper's configuration) |
    /// | `idb` | [`Idb::new`]`(1)` |
    /// | `bnb` | [`BranchAndBound`] |
    /// | `exhaustive` | [`ExhaustiveSearch`] |
    /// | `uniform` | [`UniformDeployment`] (charging-unaware baseline) |
    /// | `lifetime` | [`LifetimeBalanced`] (charging-unaware baseline) |
    /// | `sched-tour` | [`SchedTour`] (deadline-balancing, default scenario) |
    /// | `sched-place` | [`SchedPlace`] (RF placement, default scenario) |
    /// | `sched-bilevel` | [`SchedBilevel`] (deploy-then-schedule SA, default scenario) |
    ///
    /// The scheduling solvers run under [`ScenarioSpec::default`];
    /// [`SolverRegistry::resolve`] and
    /// [`Experiment::scenario`](crate::Experiment::scenario) rebind them
    /// to a custom scenario. Calling `with_defaults` repeatedly is always
    /// fine — each call builds a fresh registry.
    #[must_use]
    pub fn with_defaults() -> Self {
        let mut registry = SolverRegistry::new();
        let mut add = |name: &str, factory: SolverFactory| {
            registry.factories.insert(name.to_string(), factory);
        };
        add("rfh", Arc::new(|| Box::new(Rfh::basic())));
        add("irfh", Arc::new(|| Box::new(Rfh::iterative(7))));
        add("idb", Arc::new(|| Box::new(Idb::new(1))));
        add("bnb", Arc::new(|| Box::new(BranchAndBound::new())));
        add(
            "exhaustive",
            Arc::new(|| Box::new(ExhaustiveSearch::default())),
        );
        add("uniform", Arc::new(|| Box::new(UniformDeployment::new())));
        add("lifetime", Arc::new(|| Box::new(LifetimeBalanced::new())));
        add("sched-tour", Arc::new(|| Box::new(SchedTour::default())));
        add("sched-place", Arc::new(|| Box::new(SchedPlace::default())));
        add(
            "sched-bilevel",
            Arc::new(|| Box::new(SchedBilevel::default())),
        );
        registry
    }

    /// Registers a factory under a *new* name.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateSolver`] if `name` is already registered —
    /// silently shadowing a solver once meant sweeps labeled `idb` could
    /// run something else entirely. Use [`SolverRegistry::replace`] when
    /// overwriting is the point.
    pub fn register<F>(&mut self, name: &str, factory: F) -> Result<(), EngineError>
    where
        F: Fn() -> Box<dyn Solver> + Send + Sync + 'static,
    {
        if self.factories.contains_key(name) {
            return Err(EngineError::DuplicateSolver {
                name: name.to_string(),
            });
        }
        self.factories.insert(name.to_string(), Arc::new(factory));
        Ok(())
    }

    /// Registers a factory under `name`, replacing any existing one.
    pub fn replace<F>(&mut self, name: &str, factory: F)
    where
        F: Fn() -> Box<dyn Solver> + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Arc::new(factory));
    }

    /// A copy of this registry with the three scheduling solvers rebound
    /// to `scenario`, so `sched-tour`, `sched-place`, and `sched-bilevel`
    /// resolve to solvers parameterized by the request's scenario while
    /// every other registration is untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use wrsn_core::ScenarioSpec;
    /// use wrsn_engine::SolverRegistry;
    ///
    /// let spec = ScenarioSpec { chargers: 3, ..ScenarioSpec::default() };
    /// let registry = SolverRegistry::with_defaults().scenario_overlay(&spec);
    /// assert_eq!(registry.create("sched-tour").unwrap().name(), "SchedTour");
    /// ```
    #[must_use]
    pub fn scenario_overlay(&self, scenario: &ScenarioSpec) -> SolverRegistry {
        let mut overlay = self.clone();
        let tour = scenario.clone();
        overlay.replace("sched-tour", move || Box::new(SchedTour::new(tour.clone())));
        let place = scenario.clone();
        overlay.replace("sched-place", move || {
            Box::new(SchedPlace::new(place.clone()))
        });
        let bilevel = scenario.clone();
        overlay.replace("sched-bilevel", move || {
            Box::new(SchedBilevel::new(bilevel.clone()))
        });
        overlay
    }

    /// The factory for `name` with the scheduling solvers bound to
    /// `scenario` when one is given. The registry is used as is when
    /// there is none, so a scenario-free lookup clones no map.
    pub(crate) fn factory_in(
        &self,
        name: &str,
        scenario: Option<&ScenarioSpec>,
    ) -> Result<SolverFactory, EngineError> {
        match scenario {
            Some(spec) => self.scenario_overlay(spec).factory(name),
            None => self.factory(name),
        }
    }

    /// Constructs the solver `name` for one solve under an optional
    /// request scenario: the single path from `(name, scenario)` to a
    /// solver. Sweeps bind theirs through
    /// [`Experiment::scenario`](crate::Experiment::scenario).
    ///
    /// # Examples
    ///
    /// ```
    /// use wrsn_core::ScenarioSpec;
    /// use wrsn_engine::SolverRegistry;
    ///
    /// let spec = ScenarioSpec { charger_budget: 1, ..ScenarioSpec::default() };
    /// let registry = SolverRegistry::with_defaults();
    /// assert_eq!(registry.resolve("sched-place", Some(&spec))?.name(), "SchedPlace");
    /// assert_eq!(registry.resolve("idb", None)?.name(), "IDB");
    /// # Ok::<(), wrsn_engine::EngineError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSolver`] listing every known name.
    pub fn resolve(
        &self,
        name: &str,
        scenario: Option<&ScenarioSpec>,
    ) -> Result<Box<dyn Solver>, EngineError> {
        Ok(self.factory_in(name, scenario)?())
    }

    /// The factory registered under `name`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSolver`] listing every known name.
    pub fn factory(&self, name: &str) -> Result<SolverFactory, EngineError> {
        self.factories
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownSolver {
                name: name.to_string(),
                known: self.factories.keys().cloned().collect(),
            })
    }

    /// Constructs the solver registered under `name`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSolver`] listing every known name.
    pub fn create(&self, name: &str) -> Result<Box<dyn Solver>, EngineError> {
        Ok(self.factory(name)?())
    }

    /// Whether `name` is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Every registered name, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Number of registered solvers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

// Factories are opaque closures, so `Debug` prints the names only.
impl fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_cli_algorithms() {
        let registry = SolverRegistry::with_defaults();
        for name in [
            "rfh",
            "irfh",
            "idb",
            "bnb",
            "exhaustive",
            "uniform",
            "lifetime",
            "sched-tour",
            "sched-place",
            "sched-bilevel",
        ] {
            assert!(registry.contains(name), "{name} missing");
            assert!(registry.create(name).is_ok(), "{name} does not construct");
        }
        assert_eq!(registry.len(), 10);
        assert!(!registry.is_empty());
    }

    #[test]
    fn created_solvers_carry_their_algorithm_names() {
        let registry = SolverRegistry::with_defaults();
        assert_eq!(registry.create("rfh").unwrap().name(), "RFH");
        assert_eq!(registry.create("irfh").unwrap().name(), "iRFH");
        assert_eq!(registry.create("idb").unwrap().name(), "IDB");
        assert_eq!(registry.create("sched-tour").unwrap().name(), "SchedTour");
        assert_eq!(registry.create("sched-place").unwrap().name(), "SchedPlace");
        assert_eq!(
            registry.create("sched-bilevel").unwrap().name(),
            "SchedBilevel"
        );
    }

    #[test]
    fn with_defaults_is_repeatable_and_overlay_rebinds_only_sched() {
        let a = SolverRegistry::with_defaults();
        let b = SolverRegistry::with_defaults();
        assert_eq!(a.names(), b.names());
        let spec = ScenarioSpec {
            chargers: 2,
            ..ScenarioSpec::default()
        };
        let overlay = a.scenario_overlay(&spec);
        assert_eq!(overlay.names(), a.names());
        assert_eq!(overlay.create("sched-tour").unwrap().name(), "SchedTour");
        assert_eq!(overlay.create("idb").unwrap().name(), "IDB");
    }

    #[test]
    fn unknown_name_reports_every_known_name() {
        let registry = SolverRegistry::with_defaults();
        let err = registry.create("magic").err().expect("unknown name fails");
        let EngineError::UnknownSolver { name, known } = err else {
            panic!("wrong error variant");
        };
        assert_eq!(name, "magic");
        assert_eq!(known.len(), registry.len());
        assert!(known.iter().any(|k| k == "irfh"));
    }

    #[test]
    fn duplicate_registration_errors_and_replace_is_explicit() {
        let mut registry = SolverRegistry::new();
        assert!(registry.is_empty());
        registry.register("mine", || Box::new(Idb::new(2))).unwrap();
        assert_eq!(registry.names(), vec!["mine"]);
        // A second registration under the same name is rejected and the
        // original factory survives.
        let err = registry
            .register("mine", || Box::new(Rfh::basic()))
            .expect_err("duplicate registration must fail");
        let EngineError::DuplicateSolver { name } = err else {
            panic!("wrong error variant: {err:?}");
        };
        assert_eq!(name, "mine");
        assert_eq!(registry.create("mine").unwrap().name(), "IDB");
        // Overwriting is still available, but spelled out.
        registry.replace("mine", || Box::new(Rfh::basic()));
        assert_eq!(registry.create("mine").unwrap().name(), "RFH");
        // `replace` also inserts fresh names.
        registry.replace("other", || Box::new(Idb::new(1)));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn factories_are_shareable_across_threads() {
        let registry = SolverRegistry::with_defaults();
        let factory = registry.factory("idb").unwrap();
        let handle = std::thread::spawn(move || factory().name());
        assert_eq!(handle.join().unwrap(), "IDB");
    }

    #[test]
    fn debug_lists_names() {
        let registry = SolverRegistry::with_defaults();
        assert!(format!("{registry:?}").contains("irfh"));
    }
}
