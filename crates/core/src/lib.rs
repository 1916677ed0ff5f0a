//! # wrsn-core — joint deployment and routing for rechargeable WSNs
//!
//! The primary contribution of *"How Wireless Power Charging Technology
//! Affects Sensor Network Deployment and Routing"* (ICDCS 2010): given `N`
//! posts, `M ≥ N` sensor nodes, a base station, and discrete radio power
//! levels, decide **simultaneously**
//!
//! 1. how many nodes to deploy at each post (charging a post with `m`
//!    co-located nodes is `m`-times as efficient), and
//! 2. the routing arrangement (power level + parent per post),
//!
//! so that the *total recharging cost* — charger energy needed to replace
//! what the network consumes reporting one bit from every post — is
//! minimized. The decision problem is NP-complete ([`reduction`] implements
//! the paper's 3-CNF SAT reduction as executable code).
//!
//! ## Solvers
//!
//! | type | paper section | strategy |
//! |---|---|---|
//! | [`Rfh`] | V-A | routing-first heuristic: minimum-energy fat tree → workload-concentrated trimming → sibling merging → workload-proportional allocation; optionally iterated |
//! | [`Idb`] | V-B | incremental deployment: add `δ` nodes per round wherever the optimally-routed cost drops most |
//! | [`ExhaustiveSearch`] | VI-C | enumerate every deployment (small instances) |
//! | [`BranchAndBound`] | — | exact, same answers as exhaustive, prunes with a monotonicity bound and the posts' shared energy floors |
//!
//! All implement the [`Solver`] trait and return a [`Solution`] (deployment
//! + routing tree + cost).
//!
//! # Examples
//!
//! ```
//! use wrsn_core::{Idb, InstanceSampler, Rfh, Solver};
//! use wrsn_geom::Field;
//!
//! let inst = InstanceSampler::new(Field::square(200.0), 10, 20).sample(42);
//! let rfh = Rfh::iterative(7).solve(&inst)?;
//! let idb = Idb::new(1).solve(&inst)?;
//! // IDB(1) is greedy on the exact objective and usually wins.
//! assert!(idb.total_cost() <= rfh.total_cost() * 1.10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocate;
mod baseline;
mod cost;
mod deployment;
mod error;
mod eval;
mod exact;
mod idb;
mod instance;
mod rfh;
mod routing;
mod sampler;
mod scenario;
mod solution;
mod spec;
#[cfg(test)]
mod testing;

pub mod reduction;

pub use allocate::{greedy_allocate, greedy_allocate_by_efficiency, lagrange_allocate};
pub use baseline::{min_lifetime_rounds, LifetimeBalanced, UniformDeployment};
pub use cost::{cost_digraph, optimal_cost, tree_cost};
pub use deployment::Deployment;
pub use error::{BuildError, SolveError};
pub use eval::CostEvaluator;
pub use exact::{BranchAndBound, ExhaustiveSearch};
pub use idb::Idb;
pub use instance::{
    ChargeSpec, GainKind, GeometricInstanceBuilder, Geometry, Instance, InstanceBuilder, PostId,
};
pub use rfh::{AllocatorKind, MergePolicy, Rfh, RfhReport, WorkloadMetric};
pub use routing::{per_post_energy_into, RoutingTree, TreeError};
pub use sampler::InstanceSampler;
pub use scenario::ScenarioSpec;
pub use solution::Solution;
pub use spec::{GainSpec, InstanceSpec, SpecError};

/// A deployment/routing algorithm that solves an [`Instance`].
///
/// # Examples
///
/// Solvers are object safe, so heterogeneous comparisons are one loop:
///
/// ```
/// use wrsn_core::{Idb, InstanceSampler, Rfh, Solver, UniformDeployment};
/// use wrsn_geom::Field;
///
/// let inst = InstanceSampler::new(Field::square(150.0), 5, 15).sample(2);
/// let solvers: Vec<Box<dyn Solver>> =
///     vec![Box::new(Rfh::basic()), Box::new(Idb::new(1)), Box::new(UniformDeployment::new())];
/// for s in &solvers {
///     let sol = s.solve(&inst)?;
///     println!("{}: {}", s.name(), sol.total_cost());
/// }
/// # Ok::<(), wrsn_core::SolveError>(())
/// ```
pub trait Solver {
    /// A short human-readable algorithm name for reports and benches.
    fn name(&self) -> &'static str;

    /// Computes a deployment and routing arrangement for `instance`.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] if the algorithm cannot handle the
    /// instance (e.g. an exhaustive search over too many deployments).
    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError>;

    /// Like [`solve`](Solver::solve), but also returns the solver's cost
    /// trace: the total cost after each improvement step, ending at the
    /// returned solution's cost.
    ///
    /// One-shot solvers use this default, a single-entry trace. Iterative
    /// solvers (notably [`Rfh`]) override it to expose their real
    /// per-iteration history, which is what the paper's convergence plot
    /// (Fig. 6) is drawn from.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](Solver::solve).
    fn solve_traced(
        &self,
        instance: &Instance,
    ) -> Result<(Solution, Vec<wrsn_energy::Energy>), SolveError> {
        let solution = self.solve(instance)?;
        let cost = solution.total_cost();
        Ok((solution, vec![cost]))
    }
}
