//! The Routing-First Heuristic (paper Section V-A), basic and iterative.
//!
//! One RFH pass runs four phases:
//!
//! 1. **Minimum-energy paths** — reverse Dijkstra from the base station on
//!    the per-bit cost graph, keeping *all* tight edges (the "fat tree").
//! 2. **Workload-concentrated trimming** — repeatedly take the unprocessed
//!    post with the most descendants and cut its descendants' escape edges
//!    (edges to parents outside its subtree), concentrating traffic into
//!    few hubs; the result is provably a tree.
//! 3. **Opportunistic sibling merging** — siblings that can reach a
//!    co-sibling more cheaply than their common parent re-parent onto it.
//! 4. **Workload-proportional deployment** — allocate the `M` nodes to
//!    posts minimizing `Σ α_i/m_i` (Lagrange-and-round, or the optimal
//!    greedy as an ablation).
//!
//! The *iterative* variant repeats the pass with edge costs rescaled by
//! the previous deployment's charging efficiencies; the paper observes
//! convergence within about seven iterations (Fig. 6).

use crate::{
    greedy_allocate, greedy_allocate_by_efficiency, lagrange_allocate, CostEvaluator, Deployment,
    GainKind, Instance, RoutingTree, Solution, SolveError, Solver,
};
use wrsn_energy::Energy;
use wrsn_graph::{AncestorSets, Dag};

/// Phase III behavior: whether sibling posts merge under a group head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Merge whenever a sibling is cheaper to reach than the parent (the
    /// paper's behavior).
    #[default]
    Always,
    /// Skip Phase III (ablation).
    Never,
}

/// What "workload" means for the Phase IV allocation weights `α_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadMetric {
    /// Per-round consumed energy `(1 + w_i)·e_tx + w_i·e_rx` — the
    /// quantity the recharging cost actually depends on (default).
    #[default]
    EnergyRate,
    /// The paper's literal Phase II notion: the raw descendant count.
    DescendantCount,
}

/// Which allocator solves the Phase IV minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorKind {
    /// The paper's Lagrange-multipliers continuous solution with
    /// round-smallest-and-recurse ([`lagrange_allocate`]).
    #[default]
    LagrangeRounding,
    /// Provably optimal marginal-gain greedy ([`greedy_allocate`]).
    GreedyMarginal,
}

/// The Routing-First Heuristic solver.
///
/// # Examples
///
/// ```
/// use wrsn_core::{InstanceSampler, Rfh, Solver};
/// use wrsn_geom::Field;
///
/// let inst = InstanceSampler::new(Field::square(200.0), 10, 30).sample(3);
/// let report = Rfh::iterative(7).solve_with_report(&inst)?;
/// // Iterating never ends worse than the basic single pass.
/// assert!(report.best().total_cost() <= report.cost_history()[0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rfh {
    iterations: usize,
    merge: MergePolicy,
    workload: WorkloadMetric,
    allocator: AllocatorKind,
}

impl Rfh {
    /// The basic (single-pass) RFH.
    #[must_use]
    pub fn basic() -> Self {
        Rfh::iterative(1)
    }

    /// Iterative RFH with the given number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    #[must_use]
    pub fn iterative(iterations: usize) -> Self {
        assert!(iterations >= 1, "RFH needs at least one iteration");
        Rfh {
            iterations,
            merge: MergePolicy::default(),
            workload: WorkloadMetric::default(),
            allocator: AllocatorKind::default(),
        }
    }

    /// Sets the Phase III merge policy.
    #[must_use]
    pub fn merge_policy(mut self, merge: MergePolicy) -> Self {
        self.merge = merge;
        self
    }

    /// Sets the Phase IV workload metric.
    #[must_use]
    pub fn workload_metric(mut self, workload: WorkloadMetric) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the Phase IV allocator.
    #[must_use]
    pub fn allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Number of configured iterations.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Runs RFH and returns the full iteration trace alongside the best
    /// solution found.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unroutable`] if some post cannot reach the
    /// base station (impossible for validated instances).
    pub fn solve_with_report(&self, instance: &Instance) -> Result<RfhReport, SolveError> {
        let n = instance.num_posts();
        let mut dep = Deployment::ones(n);
        let mut history = Vec::with_capacity(self.iterations);
        let mut best: Option<Solution> = None;
        // One adjacency build and one set of Dijkstra buffers amortized
        // over every pass.
        let mut eval = CostEvaluator::new(instance);
        // Each pass's input deployment. A pass reads nothing else, so
        // once an input repeats, every later pass repeats the cycle that
        // began there; `best` changes only on a strict improvement, which
        // a repeated cost cannot be.
        let mut inputs: Vec<Deployment> = Vec::with_capacity(self.iterations);
        while history.len() < self.iterations {
            if let Some(start) = inputs.iter().position(|seen| *seen == dep) {
                let period = history.len() - start;
                while history.len() < self.iterations {
                    history.push(history[history.len() - period]);
                }
                break;
            }
            inputs.push(dep.clone());
            let tree = self.build_tree(instance, &dep, &mut eval)?;
            let weights = self.workload_weights(instance, &tree);
            // The paper's Lagrange method and the m-proportional greedy
            // both assume the linear gain k(m) = m; under any other gain
            // curve Phase IV must allocate against the actual eta(m).
            let counts = match (self.allocator, instance.charge().gain()) {
                (AllocatorKind::LagrangeRounding, GainKind::Linear) => lagrange_allocate(
                    &weights,
                    instance.num_nodes(),
                    instance.max_nodes_per_post(),
                ),
                (AllocatorKind::GreedyMarginal, GainKind::Linear) => greedy_allocate(
                    &weights,
                    instance.num_nodes(),
                    instance.max_nodes_per_post(),
                ),
                _ => greedy_allocate_by_efficiency(
                    &weights,
                    instance.num_nodes(),
                    instance.max_nodes_per_post(),
                    |m| instance.charge_efficiency(m),
                ),
            };
            dep = Deployment::new(counts);
            let sol = Solution::evaluated(self.name(), instance, dep.clone(), tree);
            history.push(sol.total_cost());
            if best
                .as_ref()
                .is_none_or(|b| sol.total_cost() < b.total_cost())
            {
                best = Some(sol);
            }
        }
        Ok(RfhReport {
            cost_history: history,
            best: best.expect("at least one iteration ran"),
        })
    }

    /// Runs Phases I–III only: builds the minimum-energy,
    /// workload-concentrated routing tree for the given deployment's edge
    /// costs, without allocating nodes. Useful for inspecting what the
    /// heuristic's routing stage does (e.g. how strongly Phase II
    /// concentrates traffic) independently of Phase IV.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unroutable`] if some post cannot reach the
    /// base station.
    ///
    /// # Panics
    ///
    /// Panics if `deployment` does not hold one count per post.
    ///
    /// # Examples
    ///
    /// ```
    /// use wrsn_core::{Deployment, InstanceSampler, Rfh};
    /// use wrsn_geom::Field;
    ///
    /// let inst = InstanceSampler::new(Field::square(200.0), 10, 20).sample(1);
    /// let tree = Rfh::basic().plan_tree(&inst, &Deployment::ones(10))?;
    /// assert_eq!(tree.num_posts(), 10);
    /// # Ok::<(), wrsn_core::SolveError>(())
    /// ```
    pub fn plan_tree(
        &self,
        instance: &Instance,
        deployment: &Deployment,
    ) -> Result<RoutingTree, SolveError> {
        self.build_tree(instance, deployment, &mut CostEvaluator::new(instance))
    }

    /// Phases I–III: build the workload-concentrated routing tree under
    /// the edge costs induced by `dep`.
    fn build_tree(
        &self,
        instance: &Instance,
        dep: &Deployment,
        eval: &mut CostEvaluator<'_>,
    ) -> Result<RoutingTree, SolveError> {
        let n = instance.num_posts();
        // Phase I: fat tree of all minimum-cost routes, via the amortized
        // reverse Dijkstra.
        eval.route(dep.counts())?;
        let mut dag = Dag::from_parents(eval.tight_parents());

        // Phase II: trim to a workload-concentrated tree. Every post keeps
        // a parent: its Dijkstra next hop is tight with slack exactly 0,
        // and trimming never cuts a post's last parent.
        trim_to_tree(&mut dag, n);
        let mut parent: Vec<usize> = (0..n)
            .map(|p| {
                let ps = dag.parents(p);
                debug_assert_eq!(ps.len(), 1, "trimming must leave exactly one parent");
                ps[0]
            })
            .collect();

        // Phase III: opportunistic sibling merging.
        if self.merge == MergePolicy::Always {
            merge_siblings(instance, &mut parent);
        }
        Ok(RoutingTree::new(parent, instance)
            .expect("phases I-III produce links that exist and stay acyclic"))
    }

    fn workload_weights(&self, instance: &Instance, tree: &RoutingTree) -> Vec<f64> {
        match self.workload {
            WorkloadMetric::EnergyRate => tree
                .per_post_energy(instance)
                .iter()
                .enumerate()
                .map(|(p, e)| (*e + instance.sensing_energy(p)).as_njoules())
                .collect(),
            WorkloadMetric::DescendantCount => {
                tree.descendant_counts().iter().map(|&w| w as f64).collect()
            }
        }
    }
}

impl Default for Rfh {
    /// Iterative RFH with seven passes — the representative configuration
    /// the paper uses throughout its evaluation.
    fn default() -> Self {
        Rfh::iterative(7)
    }
}

impl Solver for Rfh {
    fn name(&self) -> &'static str {
        if self.iterations == 1 {
            "RFH"
        } else {
            "iRFH"
        }
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        Ok(self.solve_with_report(instance)?.best)
    }

    fn solve_traced(&self, instance: &Instance) -> Result<(Solution, Vec<Energy>), SolveError> {
        let report = self.solve_with_report(instance)?;
        let history = report.cost_history().to_vec();
        Ok((report.into_best(), history))
    }
}

/// Phase II: trims the fat tree over posts `0..n` (node `n` is the base
/// station) into a workload-concentrated tree, in place.
///
/// Each step takes the unprocessed post with the most descendants (ties
/// to the lowest id) and cuts its descendants' escape edges. A post with
/// one parent has no escape edge: every route from it to the step's post
/// leaves through that parent. So once every post has one parent no later
/// step changes the DAG, and trimming stops there, often long before its
/// `n` steps.
fn trim_to_tree(dag: &mut Dag, n: usize) {
    // Removing edges keeps a topological order valid.
    let order = dag.topo_order().expect("the fat tree is acyclic");
    let mut anc = AncestorSets::default();
    let mut counts = vec![0usize; n];
    let mut processed = vec![false; n];
    let mut escape = Vec::new();
    for _ in 0..n {
        if dag.is_tree() {
            break;
        }
        dag.ancestors_into(&order, &mut anc);
        counts.fill(0);
        for u in 0..n {
            for a in anc.ones(u).filter(|&a| a < n) {
                counts[a] += 1;
            }
        }
        let p = (0..n)
            .filter(|&p| !processed[p])
            .max_by(|&a, &b| counts[a].cmp(&counts[b]).then_with(|| b.cmp(&a)))
            .expect("n unprocessed posts remain");
        for u in 0..n {
            if !anc.contains(u, p) {
                continue; // u is not a descendant of p
            }
            // Cut u's edges to parents outside p's subtree.
            escape.clear();
            escape.extend(
                dag.parents(u)
                    .iter()
                    .copied()
                    .filter(|&q| q != p && !(q < n && anc.contains(q, p))),
            );
            for &q in &escape {
                dag.remove_edge(u, q);
            }
        }
        processed[p] = true;
    }
}

/// Phase III: group children of each node under cheaper-to-reach heads.
///
/// Children are visited in decreasing current-workload order; a child
/// joins the first already-designated head it can reach more cheaply than
/// its parent, preferring the cheapest such head.
fn merge_siblings(instance: &Instance, parent: &mut [usize]) {
    let n = instance.num_posts();
    let bs = instance.bs();
    // Current workloads for head preference.
    let mut counts = vec![0usize; n];
    for p in 0..n {
        let mut cur = parent[p];
        while cur != bs {
            counts[cur] += 1;
            cur = parent[cur];
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (p, &v) in parent.iter().enumerate() {
        children[v].push(p);
    }
    for v in 0..=n {
        let mut kids = std::mem::take(&mut children[v]);
        if kids.len() < 2 {
            continue;
        }
        kids.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then_with(|| a.cmp(&b)));
        let mut heads: Vec<usize> = Vec::new();
        for c in kids {
            let to_parent = instance
                .tx_energy(c, v)
                .expect("tree edges exist in the instance");
            let best_head = heads
                .iter()
                .copied()
                .filter_map(|h| {
                    instance
                        .tx_energy(c, h)
                        .filter(|&e| e < to_parent)
                        .map(|e| (e, h))
                })
                .min_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            match best_head {
                Some((_, h)) => {
                    parent[c] = h;
                    // c is now h's child; if h's turn is still to come,
                    // c takes part in it.
                    children[h].push(c);
                }
                None => heads.push(c),
            }
        }
    }
}

/// The iteration trace of an RFH run.
#[derive(Debug, Clone, PartialEq)]
pub struct RfhReport {
    cost_history: Vec<Energy>,
    best: Solution,
}

impl RfhReport {
    /// Total recharging cost after each iteration — the series the
    /// paper's Fig. 6 plots.
    #[must_use]
    pub fn cost_history(&self) -> &[Energy] {
        &self.cost_history
    }

    /// The best solution across all iterations.
    #[must_use]
    pub fn best(&self) -> &Solution {
        &self.best
    }

    /// Consumes the report, returning the best solution.
    #[must_use]
    pub fn into_best(self) -> Solution {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimal_cost, GeometricInstanceBuilder, InstanceBuilder, InstanceSampler};
    use wrsn_energy::Energy;
    use wrsn_geom::{Field, Point};

    fn e(nj: f64) -> Energy {
        Energy::from_njoules(nj)
    }

    /// The Fig. 4 scenario: three relays A, B, C between leaves and the
    /// BS; B can carry everything. Leaves 3,4,5 each reach relays; with
    /// merging/concentration all traffic should funnel through one relay.
    fn fig4_instance() -> Instance {
        // Posts: 0=A, 1=B, 2=C (relays), 3,4,5 leaves; BS = 6.
        InstanceBuilder::new(6, 7)
            .uplink(0, 6, e(10.0))
            .uplink(1, 6, e(10.0))
            .uplink(2, 6, e(10.0))
            // Leaf 3 reaches A and B; leaf 4 reaches A, B, C; leaf 5 B, C.
            .uplink(3, 0, e(10.0))
            .uplink(3, 1, e(10.0))
            .uplink(4, 0, e(10.0))
            .uplink(4, 1, e(10.0))
            .uplink(4, 2, e(10.0))
            .uplink(5, 1, e(10.0))
            .uplink(5, 2, e(10.0))
            .build()
            .unwrap()
    }

    #[test]
    fn trimming_concentrates_workload() {
        let inst = fig4_instance();
        let report = Rfh::basic().solve_with_report(&inst).unwrap();
        let tree = report.best().tree();
        // All three leaves must share a single relay.
        let relays: std::collections::HashSet<usize> =
            [3, 4, 5].iter().map(|&l| tree.parent(l)).collect();
        assert_eq!(relays.len(), 1, "workload not concentrated: {tree}");
        // The spare node lands on that relay.
        let relay = *relays.iter().next().unwrap();
        assert_eq!(report.best().deployment().count(relay), 2);
    }

    #[test]
    fn basic_rfh_beats_even_spread_on_fig4() {
        let inst = fig4_instance();
        let sol = Rfh::basic().solve(&inst).unwrap();
        // Even spread (Fig. 4b): leaves split over A, B, C; extra node
        // can only halve one relay: cost 3*10 + 2*20 + 20/2 = 8e.
        // Concentrated (Fig. 4c): 5e + 4e/2 = 7e.
        assert!(sol.total_cost() <= e(70.0) + e(1e-9));
    }

    #[test]
    fn merging_reroutes_cheap_siblings() {
        // Parent far (cost 16), sibling near (cost 4): child 1 should
        // re-parent under child 0 when merging is on.
        let inst = InstanceBuilder::new(3, 4)
            .uplink(0, 3, e(16.0))
            .uplink(1, 3, e(16.0))
            .bidi_link(0, 1, e(4.0))
            .uplink(2, 0, e(4.0))
            .build()
            .unwrap();
        let with = Rfh::basic().solve(&inst).unwrap();
        let without = Rfh::basic()
            .merge_policy(MergePolicy::Never)
            .solve(&inst)
            .unwrap();
        let t = with.tree();
        let merged = t.parent(0) == 1 || t.parent(1) == 0;
        assert!(merged, "expected one sibling to merge: {t}");
        let tn = without.tree();
        assert_eq!(tn.parent(0), 3);
        assert_eq!(tn.parent(1), 3);
        // Merging should pay off here (concentration beats the extra hop).
        assert!(with.total_cost() <= without.total_cost() + e(1e-9));
    }

    #[test]
    fn iterative_never_worse_than_basic() {
        for seed in 0..5 {
            let inst = InstanceSampler::new(Field::square(300.0), 20, 60).sample(seed);
            let basic = Rfh::basic().solve(&inst).unwrap();
            let iter = Rfh::iterative(7).solve(&inst).unwrap();
            assert!(
                iter.total_cost() <= basic.total_cost() + e(1e-6),
                "seed {seed}: {} vs {}",
                iter.total_cost(),
                basic.total_cost()
            );
        }
    }

    #[test]
    fn report_history_has_one_entry_per_iteration() {
        let inst = InstanceSampler::new(Field::square(200.0), 8, 24).sample(2);
        let report = Rfh::iterative(5).solve_with_report(&inst).unwrap();
        assert_eq!(report.cost_history().len(), 5);
        let best = report.best().total_cost();
        assert!(report.cost_history().iter().all(|&c| c >= best));
    }

    #[test]
    fn solve_traced_exposes_the_full_iteration_history() {
        let inst = InstanceSampler::new(Field::square(200.0), 8, 24).sample(2);
        let solver = Rfh::iterative(5);
        let (solution, history) = solver.solve_traced(&inst).unwrap();
        assert_eq!(history.len(), 5);
        assert_eq!(
            solution.total_cost(),
            solver.solve(&inst).unwrap().total_cost()
        );
        assert!(history.iter().all(|&c| c >= solution.total_cost()));
    }

    #[test]
    fn solution_cost_at_least_deployment_optimal() {
        // RFH's tree can never beat the optimal routing for its own
        // deployment.
        let inst = InstanceSampler::new(Field::square(250.0), 15, 45).sample(9);
        let sol = Rfh::default().solve(&inst).unwrap();
        let (opt, _) = optimal_cost(&inst, sol.deployment()).unwrap();
        assert!(sol.total_cost() >= opt - e(1e-9));
    }

    #[test]
    fn respects_per_post_cap() {
        let inst = InstanceSampler::new(Field::square(150.0), 6, 18)
            .max_nodes_per_post(4)
            .sample(4);
        let sol = Rfh::default().solve(&inst).unwrap();
        assert!(sol.deployment().counts().iter().all(|&m| m <= 4));
        assert_eq!(sol.deployment().total(), 18);
    }

    #[test]
    fn allocator_ablation_greedy_not_worse() {
        let inst = InstanceSampler::new(Field::square(300.0), 25, 100).sample(5);
        let lagrange = Rfh::basic().solve(&inst).unwrap();
        let greedy = Rfh::basic()
            .allocator(AllocatorKind::GreedyMarginal)
            .solve(&inst)
            .unwrap();
        // Same tree, better allocation: greedy can only improve.
        assert!(greedy.total_cost() <= lagrange.total_cost() + e(1e-6));
    }

    #[test]
    fn descendant_count_metric_still_valid() {
        let inst = InstanceSampler::new(Field::square(200.0), 10, 30).sample(8);
        let sol = Rfh::default()
            .workload_metric(WorkloadMetric::DescendantCount)
            .solve(&inst)
            .unwrap();
        assert!(sol.deployment().is_valid_for(&inst));
        assert!(sol.total_cost() > Energy::ZERO);
    }

    #[test]
    fn single_post_instance() {
        let inst = GeometricInstanceBuilder::new(vec![Point::new(30.0, 0.0)], 5)
            .build()
            .unwrap();
        let sol = Rfh::default().solve(&inst).unwrap();
        assert_eq!(sol.deployment().counts(), &[5]);
        assert_eq!(sol.tree().parent(0), inst.bs());
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = Rfh::iterative(0);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Rfh::basic().name(), "RFH");
        assert_eq!(Rfh::iterative(7).name(), "iRFH");
    }

    #[test]
    fn phase_two_concentrates_workload_vs_naive_trim() {
        // Phase II should funnel at least as much traffic through its
        // busiest relay as a naive "keep the lowest-id tight parent"
        // trim, on average (that is its entire purpose).
        use wrsn_graph::{dijkstra_to, tight_edges};
        let mut concentrated = 0i64;
        for seed in 0..8 {
            let inst = InstanceSampler::new(Field::square(400.0), 40, 80).sample(seed);
            let dep = crate::Deployment::ones(40);
            let tree = Rfh::basic()
                .merge_policy(MergePolicy::Never)
                .plan_tree(&inst, &dep)
                .unwrap();
            let rfh_max = *tree.descendant_counts().iter().max().unwrap() as i64;
            // Naive trim on the same fat tree.
            let g = crate::cost_digraph(&inst, &dep);
            let sp = dijkstra_to(&g, inst.bs());
            let parents = tight_edges(&g, &sp);
            let naive: Vec<usize> = (0..40).map(|p| parents[p][0]).collect();
            let naive_tree = RoutingTree::new(naive, &inst).unwrap();
            let naive_max = *naive_tree.descendant_counts().iter().max().unwrap() as i64;
            concentrated += rfh_max - naive_max;
            // Both trees must cost the same raw energy per bit (they use
            // only minimum-energy paths).
            let rfh_cost = crate::tree_cost(&inst, &dep, &tree);
            let naive_cost = crate::tree_cost(&inst, &dep, &naive_tree);
            assert!(
                (rfh_cost.as_njoules() - naive_cost.as_njoules()).abs()
                    < 1e-6 * rfh_cost.as_njoules(),
                "seed {seed}: phase II must stay on minimum-energy paths"
            );
        }
        assert!(
            concentrated >= 0,
            "phase II concentrated less than a naive trim overall ({concentrated})"
        );
    }

    #[test]
    fn amortized_phase_one_is_identical_on_the_fig6_grid() {
        // The paper's Fig. 6 configuration (100 posts, 500x500 m). Walk
        // the exact deployment sequence the iterative solver visits and
        // check the amortized Phase I against the one-shot primitives
        // (cost_digraph + dijkstra_to + tight_edges) at every step —
        // fat tree and the resulting deployments must both be identical.
        use wrsn_graph::{dijkstra_to, tight_edges};
        let inst = InstanceSampler::new(Field::square(500.0), 100, 400).sample(0);
        let n = inst.num_posts();
        let solver = Rfh::iterative(7);
        let mut eval = CostEvaluator::new(&inst);
        let mut dep = Deployment::ones(n);
        let mut history = Vec::new();
        for iter in 0..7 {
            eval.route(dep.counts()).unwrap();
            let g = crate::cost_digraph(&inst, &dep);
            let sp = dijkstra_to(&g, inst.bs());
            let want = tight_edges(&g, &sp);
            assert_eq!(eval.tight_parents(), want, "fat tree diverged at {iter}");
            // Advance the deployment exactly as solve_with_report does.
            let tree = solver.build_tree(&inst, &dep, &mut eval).unwrap();
            let weights = solver.workload_weights(&inst, &tree);
            let counts =
                crate::lagrange_allocate(&weights, inst.num_nodes(), inst.max_nodes_per_post());
            dep = Deployment::new(counts);
            let sol = Solution::evaluated(solver.name(), &inst, dep.clone(), tree);
            history.push(sol.total_cost());
        }
        // The lockstep walk reproduces the solver's own trace, so the
        // deployments it visited are the deployments the solver visits.
        let report = solver.solve_with_report(&inst).unwrap();
        assert_eq!(history, report.cost_history());
    }

    /// Phase II as it ran before stopping at the tree: all `n` steps,
    /// each on freshly computed ancestor sets.
    fn trim_reference(dag: &mut Dag, n: usize) {
        let mut processed = vec![false; n];
        for _ in 0..n {
            let anc = dag.ancestor_sets();
            let mut counts = vec![0usize; n];
            for set in anc.iter().take(n) {
                for a in set.ones().filter(|&a| a < n) {
                    counts[a] += 1;
                }
            }
            let p = (0..n)
                .filter(|&p| !processed[p])
                .max_by(|&a, &b| counts[a].cmp(&counts[b]).then_with(|| b.cmp(&a)))
                .expect("n unprocessed posts remain");
            for u in 0..n {
                if !anc[u].contains(p) {
                    continue;
                }
                let escape: Vec<usize> = dag
                    .parents(u)
                    .iter()
                    .copied()
                    .filter(|&q| q != p && !(q < n && anc[q].contains(p)))
                    .collect();
                for q in escape {
                    dag.remove_edge(u, q);
                }
            }
            processed[p] = true;
        }
    }

    /// Phase III as it ran before bucketing: every node's children found
    /// by scanning all posts.
    fn merge_siblings_reference(instance: &Instance, parent: &mut [usize]) {
        let n = instance.num_posts();
        let bs = instance.bs();
        let mut counts = vec![0usize; n];
        for p in 0..n {
            let mut cur = parent[p];
            while cur != bs {
                counts[cur] += 1;
                cur = parent[cur];
            }
        }
        for v in 0..=n {
            let mut children: Vec<usize> = (0..n).filter(|&p| parent[p] == v).collect();
            if children.len() < 2 {
                continue;
            }
            children.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then_with(|| a.cmp(&b)));
            let mut heads: Vec<usize> = Vec::new();
            for c in children {
                let to_parent = instance.tx_energy(c, v).unwrap();
                let best_head = heads
                    .iter()
                    .copied()
                    .filter_map(|h| {
                        instance
                            .tx_energy(c, h)
                            .filter(|&e| e < to_parent)
                            .map(|e| (e, h))
                    })
                    .min_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                match best_head {
                    Some((_, h)) => parent[c] = h,
                    None => heads.push(c),
                }
            }
        }
    }

    /// The single parent of every post of a trimmed DAG.
    fn tree_parents(dag: &Dag, n: usize) -> Vec<usize> {
        (0..n)
            .map(|p| {
                assert_eq!(dag.parents(p).len(), 1, "post {p} is not trimmed");
                dag.parents(p)[0]
            })
            .collect()
    }

    /// A random instance whose posts `0..n` form a DAG toward the base
    /// station `n`, plus extra links among them, with the DAG edges as
    /// the fat tree. Post `u` may only link to posts ranked below it.
    fn arb_dag_instance() -> impl proptest::Strategy<Value = (Instance, Dag)> {
        use proptest::prelude::*;
        (2usize..40).prop_flat_map(|n| {
            let link = (0..n, 0..=n, 1.0f64..100.0);
            (
                Just(n),
                proptest::collection::vec(0u64..1_000_000, n),
                proptest::collection::vec(link.clone(), n..4 * n),
                proptest::collection::vec(link, n..8 * n),
            )
                .prop_map(|(n, rank, tree_links, extra)| {
                    // Post u sits below post w when its rank is larger
                    // (ties to the larger id); the base station is below
                    // no one.
                    let below = |u: usize, w: usize| w == n || (rank[u], u) > (rank[w], w);
                    let mut parents = vec![Vec::new(); n + 1];
                    let mut builder = InstanceBuilder::new(n, n as u32);
                    for (u, w, tx) in tree_links {
                        if u != w && below(u, w) && !parents[u].contains(&w) {
                            parents[u].push(w);
                            builder = builder.uplink(u, w, e(tx));
                        }
                    }
                    for (u, ps) in parents.iter_mut().enumerate().take(n) {
                        if ps.is_empty() {
                            ps.push(n);
                            builder = builder.uplink(u, n, e(50.0));
                        }
                        ps.sort_unstable();
                    }
                    for (u, w, tx) in extra {
                        if u != w {
                            builder = builder.uplink(u, w, e(tx));
                        }
                    }
                    (builder.build().unwrap(), Dag::from_parents(parents))
                })
        })
    }

    proptest::proptest! {
        /// Phases II and III give today's parent vectors bit for bit on
        /// random DAGs with multi-parent posts.
        #[test]
        fn phases_two_and_three_match_the_references((inst, dag) in arb_dag_instance()) {
            let n = inst.num_posts();
            let mut fast = dag.clone();
            trim_to_tree(&mut fast, n);
            let mut slow = dag;
            trim_reference(&mut slow, n);
            proptest::prop_assert_eq!(&fast, &slow);
            let mut merged = tree_parents(&fast, n);
            merge_siblings(&inst, &mut merged);
            let mut merged_ref = tree_parents(&slow, n);
            merge_siblings_reference(&inst, &mut merged_ref);
            proptest::prop_assert_eq!(merged, merged_ref);
        }
    }

    #[test]
    fn phases_two_and_three_match_the_references_on_the_fig6_grid() {
        // The Fig. 6 configuration (100 posts, 400 nodes, 500x500 m):
        // every pass of iRFH(7) trims and merges the fat tree it visits
        // exactly as the full trim loop and the all-posts merge did.
        let solver = Rfh::iterative(7);
        for seed in 0..3 {
            let inst = InstanceSampler::new(Field::square(500.0), 100, 400).sample(seed);
            let n = inst.num_posts();
            let mut eval = CostEvaluator::new(&inst);
            let mut dep = Deployment::ones(n);
            for pass in 0..7 {
                eval.route(dep.counts()).unwrap();
                let dag = Dag::from_parents(eval.tight_parents());
                let mut fast = dag.clone();
                trim_to_tree(&mut fast, n);
                let mut slow = dag;
                trim_reference(&mut slow, n);
                assert_eq!(fast, slow, "seed {seed}, pass {pass}: trimmed DAGs differ");
                let mut merged = tree_parents(&fast, n);
                merge_siblings(&inst, &mut merged);
                let mut merged_ref = tree_parents(&slow, n);
                merge_siblings_reference(&inst, &mut merged_ref);
                assert_eq!(
                    merged, merged_ref,
                    "seed {seed}, pass {pass}: merges differ"
                );
                // Advance the deployment exactly as solve_with_report does.
                let tree = solver.build_tree(&inst, &dep, &mut eval).unwrap();
                assert_eq!(tree.parents(), &merged[..]);
                let weights = solver.workload_weights(&inst, &tree);
                dep = Deployment::new(crate::lagrange_allocate(
                    &weights,
                    inst.num_nodes(),
                    inst.max_nodes_per_post(),
                ));
            }
        }
    }

    /// iRFH as it ran before the repeated-input stop: every pass run.
    fn solve_every_pass(solver: &Rfh, instance: &Instance) -> RfhReport {
        let mut dep = Deployment::ones(instance.num_posts());
        let mut eval = CostEvaluator::new(instance);
        let mut history = Vec::new();
        let mut best: Option<Solution> = None;
        for _ in 0..solver.iterations {
            let tree = solver.build_tree(instance, &dep, &mut eval).unwrap();
            let weights = solver.workload_weights(instance, &tree);
            let (total, cap) = (instance.num_nodes(), instance.max_nodes_per_post());
            let counts = match (solver.allocator, instance.charge().gain()) {
                (AllocatorKind::LagrangeRounding, GainKind::Linear) => {
                    lagrange_allocate(&weights, total, cap)
                }
                (AllocatorKind::GreedyMarginal, GainKind::Linear) => {
                    greedy_allocate(&weights, total, cap)
                }
                _ => greedy_allocate_by_efficiency(&weights, total, cap, |m| {
                    instance.charge_efficiency(m)
                }),
            };
            dep = Deployment::new(counts);
            let sol = Solution::evaluated(solver.name(), instance, dep.clone(), tree);
            history.push(sol.total_cost());
            if best
                .as_ref()
                .is_none_or(|b| sol.total_cost() < b.total_cost())
            {
                best = Some(sol);
            }
        }
        RfhReport {
            cost_history: history,
            best: best.unwrap(),
        }
    }

    fn history_bits(report: &RfhReport) -> Vec<u64> {
        report
            .cost_history()
            .iter()
            .map(|c| c.as_njoules().to_bits())
            .collect()
    }

    /// Asserts the stopped run reports exactly what running every pass
    /// reports, and returns its history.
    fn assert_every_pass_agrees(solver: &Rfh, inst: &Instance) -> Vec<u64> {
        let got = solver.solve_with_report(inst).unwrap();
        let want = solve_every_pass(solver, inst);
        assert_eq!(history_bits(&got), history_bits(&want));
        assert_eq!(got.best(), want.best());
        history_bits(&got)
    }

    #[test]
    fn repeated_input_stop_matches_every_pass_on_the_fig6_grid() {
        // The Fig. 6 configuration, at the default 7 passes and at 15,
        // where most runs replay a cycle for many passes.
        let mut replayed = 0;
        for seed in 0..6 {
            let inst = InstanceSampler::new(Field::square(500.0), 100, 400).sample(seed);
            for passes in [7, 15] {
                let history = assert_every_pass_agrees(&Rfh::iterative(passes), &inst);
                replayed += usize::from(history[passes - 1] == history[passes - 3]);
            }
        }
        assert!(replayed > 0, "no run settled into a cycle");
    }

    #[test]
    fn a_two_cycle_from_the_first_pass_replays_exactly() {
        // Seed 2 at 20 posts / 60 nodes / 300 m: the second pass maps
        // the first pass's output to a deployment that maps straight
        // back to it, so the cost alternates from the first pass, the
        // fourth pass's input repeats the second's, and passes 4 to 7
        // are replayed.
        let inst = InstanceSampler::new(Field::square(300.0), 20, 60).sample(2);
        let history = assert_every_pass_agrees(&Rfh::iterative(7), &inst);
        assert_ne!(history[0], history[1]);
        for k in 2..7 {
            assert_eq!(history[k], history[k % 2], "pass {k}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Same history bits and best solution as running every pass,
        /// over random sampled instances, pass counts and allocators.
        #[test]
        fn repeated_input_stop_matches_every_pass(
            posts in 4usize..40,
            spare in 0u32..80,
            side in 0usize..4,
            seed in 0u64..1_000_000,
            passes in 1usize..12,
            greedy in proptest::prelude::any::<bool>(),
        ) {
            let field = [150.0, 200.0, 250.0, 300.0][side];
            let sampler = InstanceSampler::new(Field::square(field), posts, posts as u32 + spare);
            if let Ok(inst) = sampler.try_sample(seed) {
                let allocator = if greedy {
                    AllocatorKind::GreedyMarginal
                } else {
                    AllocatorKind::LagrangeRounding
                };
                assert_every_pass_agrees(&Rfh::iterative(passes).allocator(allocator), &inst);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let inst = InstanceSampler::new(Field::square(400.0), 30, 90).sample(77);
        let a = Rfh::default().solve(&inst).unwrap();
        let b = Rfh::default().solve(&inst).unwrap();
        assert_eq!(a, b);
    }
}
