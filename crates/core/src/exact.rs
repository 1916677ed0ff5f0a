//! Exact solvers: exhaustive enumeration and branch-and-bound.
//!
//! Both minimize `f(m) = Σ_p dist_m(p → BS)` over integer deployments
//! `m_i ≥ 1`, `Σ m_i = M` (optionally `m_i ≤ cap`), which is the true
//! optimum of the joint problem because routing is chosen optimally per
//! deployment (a single reverse Dijkstra). Exhaustive search is the
//! paper's "naive method" for small instances; branch-and-bound returns
//! identical answers and scales to the paper's Fig. 7 settings
//! (`N ≤ 12`, `M = 36`) by exploiting that `f` is monotone non-increasing
//! in every coordinate.

use crate::{optimal_cost, CostEvaluator, Deployment, Idb, Instance, Solution, SolveError, Solver};

/// Number of compositions of `nodes` into `posts` parts each in
/// `[1, cap]` — the exact exhaustive search-space size. Computed by
/// dynamic programming over the extra-node budget; saturates at
/// `u128::MAX`.
fn composition_count(nodes: u32, posts: usize, cap: u32) -> u128 {
    let extra = (nodes as usize).saturating_sub(posts);
    let per_post = (cap.saturating_sub(1) as usize).min(extra);
    // ways[e] = compositions of e extra nodes over the posts seen so far.
    let mut ways = vec![0u128; extra + 1];
    ways[0] = 1;
    for _ in 0..posts {
        let mut next = vec![0u128; extra + 1];
        for e in 0..=extra {
            if ways[e] == 0 {
                continue;
            }
            for add in 0..=per_post.min(extra - e) {
                let cell = &mut next[e + add];
                *cell = cell.saturating_add(ways[e]);
            }
        }
        ways = next;
    }
    ways[extra]
}

/// Exhaustive search over every feasible deployment.
///
/// Visits `C(M−1, N−1)` compositions (fewer with a per-post cap) and
/// scores each with one reverse Dijkstra. Refuses instances whose search
/// space exceeds the configured limit rather than silently running for
/// hours.
///
/// # Examples
///
/// ```
/// use wrsn_core::{ExhaustiveSearch, Idb, InstanceSampler, Solver};
/// use wrsn_geom::Field;
///
/// let inst = InstanceSampler::new(Field::square(150.0), 5, 9).sample(1);
/// let opt = ExhaustiveSearch::default().solve(&inst)?;
/// let idb = Idb::new(1).solve(&inst)?;
/// assert!(opt.total_cost() <= idb.total_cost());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveSearch {
    limit: u128,
}

impl ExhaustiveSearch {
    /// Creates a search that refuses spaces larger than `limit`
    /// deployments.
    #[must_use]
    pub fn with_limit(limit: u128) -> Self {
        ExhaustiveSearch { limit }
    }

    /// The configured search-space ceiling.
    #[must_use]
    pub fn limit(&self) -> u128 {
        self.limit
    }
}

impl Default for ExhaustiveSearch {
    /// A limit of 20 million deployments (seconds of wall-clock on small
    /// graphs).
    fn default() -> Self {
        ExhaustiveSearch::with_limit(20_000_000)
    }
}

impl Solver for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        let n = instance.num_posts();
        let m = instance.num_nodes();
        let cap = instance.max_nodes_per_post().unwrap_or(m);
        let combinations = composition_count(m, n, cap);
        if combinations > self.limit {
            return Err(SolveError::SearchSpaceTooLarge {
                combinations,
                limit: self.limit,
            });
        }
        let mut eval = CostEvaluator::new(instance);
        let mut best: Option<(f64, Vec<u32>)> = None;
        let mut counts = vec![1u32; n];
        visit_compositions(&mut counts, 0, m - n as u32, cap, &mut |counts| {
            if let Some(cost) = eval.set_deployment(counts) {
                if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, counts.to_vec()));
                }
            }
        });
        let (_, counts) = best.ok_or(SolveError::Unroutable { post: 0 })?;
        let dep = Deployment::new(counts);
        let (_, tree) = optimal_cost(instance, &dep)?;
        Ok(Solution::evaluated(self.name(), instance, dep, tree))
    }
}

/// Distributes `extra` additional nodes over `counts[start..]` (which all
/// hold their mandatory 1), never exceeding `cap` per post.
fn visit_compositions(
    counts: &mut Vec<u32>,
    start: usize,
    extra: u32,
    cap: u32,
    visit: &mut impl FnMut(&[u32]),
) {
    if start == counts.len() - 1 {
        if counts[start] + extra <= cap {
            counts[start] += extra;
            visit(counts);
            counts[start] -= extra;
        }
        return;
    }
    let max_here = extra.min(cap - counts[start]);
    for c in 0..=max_here {
        counts[start] += c;
        visit_compositions(counts, start + 1, extra - c, cap, visit);
        counts[start] -= c;
    }
}

/// Exact branch-and-bound minimization of `f(m)`.
///
/// Produces the same optimum as [`ExhaustiveSearch`] (asserted against it
/// in the test suite) while pruning with three ingredients:
///
/// - **Incumbent**: seeded with `IDB(δ=1)`, which is empirically at or
///   near the optimum.
/// - **Monotone bound**: for a partial assignment, setting every
///   undecided post to the largest count `r` it could still receive
///   lower-bounds `f`, because `f` is monotone non-increasing in every
///   coordinate (extra nodes only raise charging efficiency).
/// - **Shared energy floors**: in any routing tree a post spends at least
///   `c = rate·(cheapest tx) + sensing` per round, and the undecided
///   posts must *share* the spare nodes instead of each holding `r`.
///   Trading their `c/η(r)` in the monotone bound for the least
///   `Σ c/η(1 + a)` over the ways to split the spare nodes (a min-plus
///   table built once per solve) prunes more nodes, and screens each
///   child before its Dijkstra. At 8 posts / 30 nodes this scores about
///   a fifth of the deployments the monotone bound alone does.
///
/// Posts are branched in decreasing single-node-workload order (hubs
/// first, large counts first), which makes the incumbent match quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchAndBound {
    _private: (),
}

impl BranchAndBound {
    /// Creates a branch-and-bound solver.
    #[must_use]
    pub fn new() -> Self {
        BranchAndBound::default()
    }
}

impl Solver for BranchAndBound {
    fn name(&self) -> &'static str {
        "B&B"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        let search = Search::run(instance)?;
        let (_, tree) = optimal_cost(instance, &search.best_dep)?;
        Ok(Solution::evaluated(
            self.name(),
            instance,
            search.best_dep,
            tree,
        ))
    }
}

/// The IDB(1) incumbent and the branch order a search starts from: hubs
/// (largest optimally-routed workload under the all-ones deployment)
/// first.
fn start(instance: &Instance) -> Result<(Solution, Vec<usize>), SolveError> {
    let seed = Idb::new(1).solve(instance)?;
    let n = instance.num_posts();
    let (_, base_tree) = optimal_cost(instance, &Deployment::ones(n))?;
    let workloads = base_tree.descendant_counts();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| workloads[b].cmp(&workloads[a]).then_with(|| a.cmp(&b)));
    Ok((seed, order))
}

/// Relative slack of the floor tests. `f` and the floor sums each round
/// to within about `N·2⁻⁵³` of their value (≈10⁻¹³ at 1 000 posts), so a
/// completion the floors rule out never scores below the incumbent, and
/// the floors change no answer, not even how ties resolve.
const FLOOR_SLACK: f64 = 1e-9;

/// The shared energy floors of one solve, tabulated along the branch
/// order.
///
/// Post `u` spends `L_u(T) = W_u·tx(u, parent) + (W_u − rate_u)·rx +
/// sensing_u` per round in routing tree `T`, where `W_u` is the report
/// rate its subtree sends through it, so `f(m) = min_T Σ_u
/// L_u(T)/η(m_u)`. With non-negative tx and rx energies, `L_u(T) ≥ c_u =
/// rate_u·min_v tx(u, v) + sensing_u` in every tree. Take a node whose
/// undecided posts `order[d..]` share `e` spare nodes, so none holds more
/// than `r = 1 + min(e, cap − 1)`, and whose monotone bound is `B`. For a
/// completion `m` and any tree `T`, write each undecided post's term as
/// `(L_u(T) − c_u)/η(m_u) + c_u/η(m_u)`, and use `η(m_u) ≤ η(r)` on the
/// first part only (`η` is non-decreasing for every gain curve
/// [`ChargeSpec`](crate::ChargeSpec) accepts). What remains with every
/// undecided post at `η(r)` is at least `B`, so
///
/// `f(m) ≥ B − Σ_{j ≥ d} c_{order[j]}/η(r) + Σ_{j ≥ d}
/// c_{order[j]}/η(m_{order[j]})`,
///
/// and the last sum is at least the table's `shared[d][e]`.
#[derive(Debug)]
struct Floors {
    /// `η(1 + a)` for every count `a` of spare nodes a post can take.
    eta: Vec<f64>,
    /// `c` of `order[d]`.
    floor: Vec<f64>,
    /// `Σ_{j ≥ d} c_{order[j]}`, ending in 0.
    suffix: Vec<f64>,
    /// Row `d`, column `e`: the least `Σ_{j ≥ d} c_{order[j]}/η(1 +
    /// a_j)` over `Σ a_j = e` with every `a_j ≤ cap − 1`; +∞ where no
    /// split fits. `N + 1` rows of `M − N + 1` cells.
    shared: Vec<f64>,
    /// Cells per row of `shared`.
    width: usize,
}

impl Floors {
    /// Tabulates the floors for posts `order` sharing `extra` spare
    /// nodes under a per-post cap of `cap` nodes, by a min-plus dynamic
    /// program from the last post back. Each row takes one pass over the
    /// next row per count a post can hold: `≈N·(M − N)²/2` steps without
    /// a cap, 2 208 at 8 posts / 30 nodes and 3 900 at 12 / 36.
    fn new(instance: &Instance, order: &[usize], extra: u32, cap: u32) -> Self {
        let n = order.len();
        let most = extra.min(cap - 1) as usize;
        let eta: Vec<f64> = (1..=most as u32 + 1)
            .map(|m| instance.charge_efficiency(m))
            .collect();
        let floor: Vec<f64> = order
            .iter()
            .map(|&u| {
                let cheapest = instance
                    .uplinks(u)
                    .iter()
                    .map(|(_, tx)| tx.as_njoules())
                    .fold(f64::INFINITY, f64::min);
                instance.report_rate(u) * cheapest + instance.sensing_energy(u).as_njoules()
            })
            .collect();
        let mut suffix = vec![0.0; n + 1];
        for d in (0..n).rev() {
            suffix[d] = suffix[d + 1] + floor[d];
        }
        let width = extra as usize + 1;
        let mut shared = vec![f64::INFINITY; (n + 1) * width];
        shared[n * width] = 0.0;
        for d in (0..n).rev() {
            let (row, next) = shared[d * width..].split_at_mut(width);
            // a spare nodes for order[d], e − a for the posts after it.
            for (a, eta) in eta.iter().enumerate() {
                let own = floor[d] / eta;
                for (cell, rest) in row[a..].iter_mut().zip(&next[..width - a]) {
                    *cell = cell.min(own + rest);
                }
            }
        }
        Floors {
            eta,
            floor,
            suffix,
            shared,
            width,
        }
    }

    /// The monotone bound `bound` of a node at depth `d`, which gives
    /// each undecided post `1 + roomiest` nodes, less those posts' floors
    /// at that count.
    fn rest(&self, bound: f64, d: usize, roomiest: u32) -> f64 {
        bound - self.suffix[d] / self.eta[roomiest as usize]
    }

    /// A lower bound on `f` over every completion of a node at depth `d`
    /// with `e` spare nodes, from the node's [`rest`](Floors::rest).
    fn node(&self, rest: f64, d: usize, e: u32) -> f64 {
        rest + self.shared[d * self.width + e as usize]
    }

    /// A lower bound on `f` over every completion of a node at depth `d`
    /// with `e` spare nodes that gives `c` of them to `order[d]`.
    fn child(&self, rest: f64, d: usize, e: u32, c: u32) -> f64 {
        rest + self.floor[d] / self.eta[c as usize]
            + self.shared[(d + 1) * self.width + (e - c) as usize]
    }
}

/// One branch-and-bound solve: a depth-first search over the posts in
/// branch order, trying the largest count first.
#[derive(Debug)]
struct Search<'a> {
    eval: CostEvaluator<'a>,
    floors: Floors,
    /// `order[d]` is the post decided at depth `d`.
    order: Vec<usize>,
    cap: u32,
    /// The current assignment; undecided posts hold 1.
    counts: Vec<u32>,
    /// Scratch deployment for the monotone bound.
    relaxed: Vec<u32>,
    best_cost: f64,
    best_dep: Deployment,
    /// Deployments scored: monotone bounds and leaves.
    evaluations: u64,
}

impl<'a> Search<'a> {
    /// Searches `instance` from the IDB(1) incumbent to the optimum.
    fn run(instance: &'a Instance) -> Result<Self, SolveError> {
        let (seed, order) = start(instance)?;
        let n = instance.num_posts();
        let m = instance.num_nodes();
        let cap = instance.max_nodes_per_post().unwrap_or(m);
        let extra = m - n as u32;
        let mut search = Search {
            eval: CostEvaluator::new(instance),
            floors: Floors::new(instance, &order, extra, cap),
            order,
            cap,
            counts: vec![1; n],
            relaxed: vec![1; n],
            best_cost: seed.total_cost().as_njoules(),
            best_dep: seed.deployment().clone(),
            evaluations: 0,
        };
        search.visit(0, extra);
        Ok(search)
    }

    /// Visits every completion of the current assignment, `extra` spare
    /// nodes still to place on `order[depth..]`, that a bound does not
    /// rule out.
    fn visit(&mut self, depth: usize, extra: u32) {
        let n = self.order.len();
        if depth == n - 1 || extra == 0 {
            // Complete the assignment: the last undecided post takes the
            // remainder (none is left when extra == 0).
            let p = self.order[depth];
            if self.counts[p] + extra > self.cap {
                return;
            }
            self.counts[p] += extra;
            self.evaluations += 1;
            if let Some(cost) = self.eval.set_deployment(&self.counts) {
                if cost < self.best_cost {
                    self.best_cost = cost;
                    self.best_dep = Deployment::new(self.counts.clone());
                }
            }
            self.counts[p] -= extra;
            return;
        }

        // Monotone bound: every undecided post at the largest count it
        // could still get.
        let roomiest = extra.min(self.cap - 1);
        self.relaxed.copy_from_slice(&self.counts);
        for &p in &self.order[depth..] {
            self.relaxed[p] = 1 + roomiest;
        }
        self.evaluations += 1;
        let rest = match self.eval.set_deployment(&self.relaxed) {
            Some(bound) if bound >= self.best_cost => return, // even the rosiest completion cannot win
            Some(bound) => Some(self.floors.rest(bound, depth, roomiest)),
            None => None,
        };
        if rest.is_some_and(|rest| self.ruled_out(self.floors.node(rest, depth, extra))) {
            return;
        }

        let p = self.order[depth];
        for c in (0..=roomiest).rev() {
            if rest.is_some_and(|rest| self.ruled_out(self.floors.child(rest, depth, extra, c))) {
                continue; // no completion of this child can win
            }
            self.counts[p] += c;
            self.visit(depth + 1, extra - c);
            self.counts[p] -= c;
        }
    }

    /// Whether `floor`, a lower bound on every completion in a subtree,
    /// rules the subtree out against the incumbent.
    fn ruled_out(&self, floor: f64) -> bool {
        floor >= self.best_cost * (1.0 + FLOOR_SLACK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::random_instance;
    use crate::{InstanceBuilder, InstanceSampler, Rfh};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use wrsn_energy::Energy;
    use wrsn_geom::Field;

    fn e(nj: f64) -> Energy {
        Energy::from_njoules(nj)
    }

    /// The search with the monotone bound alone, without the shared
    /// energy floors: the reference the floors must reproduce bit for
    /// bit. It also counts the deployments it scores.
    #[allow(clippy::too_many_arguments)]
    fn reference_search(
        eval: &mut CostEvaluator<'_>,
        order: &[usize],
        counts: &mut Vec<u32>,
        depth: usize,
        extra: u32,
        cap: u32,
        best_cost: &mut f64,
        best_dep: &mut Deployment,
        evaluations: &mut u64,
    ) {
        let n = order.len();
        if depth == n - 1 || extra == 0 {
            // Complete the assignment: dump the remainder on the last
            // undecided post (or nowhere if the budget is spent).
            let p = order[depth.min(n - 1)];
            if depth == n - 1 {
                if counts[p] + extra > cap {
                    return;
                }
                counts[p] += extra;
            } else if extra > 0 {
                unreachable!("extra == 0 handled above");
            }
            let candidate = if depth == n - 1 { extra } else { 0 };
            *evaluations += 1;
            if let Some(cost) = eval.set_deployment(counts) {
                if cost < *best_cost {
                    *best_cost = cost;
                    *best_dep = Deployment::new(counts.clone());
                }
            }
            counts[p] -= candidate;
            return;
        }

        // Lower bound: every undecided post at the largest count it could
        // still get.
        let undecided = &order[depth..];
        let roomiest = extra.min(cap - 1);
        let mut relaxed = counts.clone();
        for &p in undecided {
            relaxed[p] = (1 + roomiest).min(cap);
        }
        *evaluations += 1;
        if let Some(bound) = eval.set_deployment(&relaxed) {
            if bound >= *best_cost {
                return; // even the rosiest completion cannot win
            }
        }

        let p = order[depth];
        let max_here = extra.min(cap - 1);
        for c in (0..=max_here).rev() {
            counts[p] += c;
            reference_search(
                eval,
                order,
                counts,
                depth + 1,
                extra - c,
                cap,
                best_cost,
                best_dep,
                evaluations,
            );
            counts[p] -= c;
        }
    }

    /// The reference search from the same incumbent and branch order:
    /// its best cost, best deployment and deployments scored.
    fn reference_run(instance: &Instance) -> (f64, Deployment, u64) {
        let (seed, order) = start(instance).unwrap();
        let n = instance.num_posts();
        let m = instance.num_nodes();
        let cap = instance.max_nodes_per_post().unwrap_or(m);
        let mut best_cost = seed.total_cost().as_njoules();
        let mut best_dep = seed.deployment().clone();
        let mut evaluations = 0;
        reference_search(
            &mut CostEvaluator::new(instance),
            &order,
            &mut vec![1; n],
            0,
            m - n as u32,
            cap,
            &mut best_cost,
            &mut best_dep,
            &mut evaluations,
        );
        (best_cost, best_dep, evaluations)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The floors return the reference search's deployment and cost
        /// bits, and score no deployment it does not.
        #[test]
        fn floors_reproduce_the_reference_search(seed in proptest::prelude::any::<u64>()) {
            let inst = random_instance(seed, 7);
            let search = Search::run(&inst).unwrap();
            let (cost, dep, evaluations) = reference_run(&inst);
            proptest::prop_assert_eq!(&search.best_dep, &dep, "seed {}", seed);
            proptest::prop_assert_eq!(search.best_cost.to_bits(), cost.to_bits(), "seed {}", seed);
            proptest::prop_assert!(search.evaluations <= evaluations, "seed {}", seed);
        }
    }

    #[test]
    fn floors_reproduce_the_reference_at_the_benchmark_shape() {
        // 8 posts / 30 nodes / 200 m, the benchmark's bnb sub-grid.
        let (mut fast, mut slow) = (0, 0);
        for seed in 0..3 {
            let inst = InstanceSampler::new(Field::square(200.0), 8, 30).sample(seed);
            let search = Search::run(&inst).unwrap();
            let (cost, dep, evaluations) = reference_run(&inst);
            assert_eq!(search.best_dep, dep, "seed {seed}");
            assert_eq!(search.best_cost.to_bits(), cost.to_bits(), "seed {seed}");
            fast += search.evaluations;
            slow += evaluations;
        }
        assert!(
            3 * fast < slow,
            "floors scored {fast} deployments, the reference {slow}"
        );
    }

    #[test]
    fn floors_lower_bound_every_completion() {
        // Random internal nodes of random searches on up to 6 posts: every
        // completion costs at least the node's floor and its child's
        // screen. The allowance covers rounding only, a thousandth of the
        // search's slack.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut tight = 0;
        for case in 0..80 {
            let inst = random_instance(case, 6);
            let n = inst.num_posts();
            let m = inst.num_nodes();
            let cap = inst.max_nodes_per_post().unwrap_or(m);
            let extra = m - n as u32;
            let (_, order) = start(&inst).unwrap();
            let floors = Floors::new(&inst, &order, extra, cap);
            let mut eval = CostEvaluator::new(&inst);
            for _ in 0..6 {
                let depth = rng.random_range(0..n - 1);
                let mut counts = vec![1u32; n];
                let mut spare = extra;
                for &p in &order[..depth] {
                    let a = rng.random_range(0..=spare.min(cap - 1));
                    counts[p] += a;
                    spare -= a;
                }
                if spare == 0 {
                    continue; // a leaf
                }
                let roomiest = spare.min(cap - 1);
                let mut relaxed = counts.clone();
                for &p in &order[depth..] {
                    relaxed[p] = 1 + roomiest;
                }
                let bound = eval.set_deployment(&relaxed).unwrap();
                let rest = floors.rest(bound, depth, roomiest);
                let node = floors.node(rest, depth, spare);
                let mut tail = vec![1u32; n - depth];
                visit_compositions(&mut tail, 0, spare, cap, &mut |tail| {
                    for (&p, &t) in order[depth..].iter().zip(tail) {
                        counts[p] = t;
                    }
                    let f = eval.set_deployment(&counts).unwrap();
                    let within = |floor: f64| f * (1.0 + 1e-12) >= floor;
                    let child = floors.child(rest, depth, spare, tail[0] - 1);
                    assert!(
                        within(bound),
                        "case {case}: {counts:?} costs {f} < bound {bound}"
                    );
                    assert!(
                        within(node),
                        "case {case}: {counts:?} costs {f} < node floor {node}"
                    );
                    assert!(
                        within(child),
                        "case {case}: {counts:?} costs {f} < child floor {child}"
                    );
                    if f <= node * (1.0 + 1e-9) {
                        tight += 1;
                    }
                });
            }
        }
        // The floors must meet some completions, or this proves little.
        assert!(tight > 20, "only {tight} completions met their node floor");
    }

    #[test]
    fn composition_counts() {
        assert_eq!(composition_count(5, 3, 5), 6); // C(4,2)
        assert_eq!(composition_count(36, 10, 36), 70_607_460); // C(35,9)
        assert_eq!(composition_count(3, 3, 3), 1);
        // Capped at 2: choose which posts get the second node.
        assert_eq!(composition_count(33, 22, 2), 705_432); // C(22,11)
        assert_eq!(composition_count(6, 3, 2), 1); // all posts at cap
    }

    #[test]
    fn exhaustive_finds_known_optimum_on_chain() {
        // 1 -> 0 -> BS: post 0 forwards everything; brute numbers below.
        let inst = InstanceBuilder::new(2, 4)
            .rx_energy(e(2.0))
            .uplink(0, 2, e(4.0))
            .uplink(1, 0, e(4.0))
            .build()
            .unwrap();
        let sol = ExhaustiveSearch::default().solve(&inst).unwrap();
        // Candidates: m=(3,1): 4/3 + 4 + 2/3 + 4/3 = 22/3 ≈ 7.33
        //             m=(2,2): 4/2 + 4/2 + 2/2 + 4/2 = 7
        //             m=(1,3): 4 + 4/3 + 2 + 4 = 11.33
        assert_eq!(sol.deployment().counts(), &[2, 2]);
        assert!((sol.total_cost().as_njoules() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_refuses_oversized_spaces() {
        let inst = InstanceSampler::new(Field::square(300.0), 10, 60).sample(1);
        let err = ExhaustiveSearch::with_limit(1000).solve(&inst).unwrap_err();
        assert!(matches!(err, SolveError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn branch_and_bound_matches_exhaustive() {
        for seed in 0..6 {
            let inst = InstanceSampler::new(Field::square(200.0), 6, 6 + 2 * (seed as u32 % 4) + 2)
                .sample(seed);
            let ex = ExhaustiveSearch::default().solve(&inst).unwrap();
            let bb = BranchAndBound::new().solve(&inst).unwrap();
            assert!(
                (ex.total_cost().as_njoules() - bb.total_cost().as_njoules()).abs()
                    < 1e-6 * ex.total_cost().as_njoules().max(1.0),
                "seed {seed}: exhaustive {} vs b&b {}",
                ex.total_cost(),
                bb.total_cost()
            );
        }
    }

    #[test]
    fn exact_lower_bounds_heuristics() {
        for seed in [3, 17] {
            let inst = InstanceSampler::new(Field::square(200.0), 7, 15).sample(seed);
            let opt = BranchAndBound::new().solve(&inst).unwrap();
            let rfh = Rfh::default().solve(&inst).unwrap();
            let idb = Idb::new(1).solve(&inst).unwrap();
            let tol = 1.0 + 1e-9;
            assert!(rfh.total_cost().as_njoules() >= opt.total_cost().as_njoules() / tol);
            assert!(idb.total_cost().as_njoules() >= opt.total_cost().as_njoules() / tol);
        }
    }

    #[test]
    fn respects_cap_constraint() {
        let inst = InstanceBuilder::new(2, 4)
            .rx_energy(e(2.0))
            .uplink(0, 2, e(4.0))
            .uplink(1, 0, e(4.0))
            .max_nodes_per_post(3)
            .build()
            .unwrap();
        for solver in [
            &ExhaustiveSearch::default() as &dyn Solver,
            &BranchAndBound::new(),
        ] {
            let sol = solver.solve(&inst).unwrap();
            assert!(sol.deployment().counts().iter().all(|&c| c <= 3));
            assert_eq!(sol.deployment().total(), 4);
        }
    }

    #[test]
    fn tight_cap_forces_unique_deployment() {
        // cap 2, M = 2N: every post must hold exactly 2.
        let inst = InstanceSampler::new(Field::square(100.0), 3, 6)
            .max_nodes_per_post(2)
            .sample(4);
        let sol = ExhaustiveSearch::default().solve(&inst).unwrap();
        assert_eq!(sol.deployment().counts(), &[2, 2, 2]);
    }

    #[test]
    fn minimal_budget_single_composition() {
        let inst = InstanceSampler::new(Field::square(100.0), 4, 4).sample(9);
        let ex = ExhaustiveSearch::default().solve(&inst).unwrap();
        let bb = BranchAndBound::new().solve(&inst).unwrap();
        assert_eq!(ex.deployment().counts(), &[1, 1, 1, 1]);
        assert_eq!(bb.deployment().counts(), &[1, 1, 1, 1]);
    }

    #[test]
    fn names() {
        assert_eq!(ExhaustiveSearch::default().name(), "Exhaustive");
        assert_eq!(BranchAndBound::new().name(), "B&B");
    }
}
