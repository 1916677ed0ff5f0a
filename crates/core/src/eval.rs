//! A fast, reusable evaluator for the objective `f(m) = Σ_p dist_m(p)`.
//!
//! [`optimal_cost`](crate::optimal_cost) rebuilds a digraph and its
//! reversal on every call, which dominates the runtime of solvers that
//! score thousands of candidate deployments (IDB, the exact searches).
//! [`CostEvaluator`] amortizes all of that:
//!
//! - the reversed adjacency is built **once** per instance;
//! - scratch buffers (distances, heap) are reused across evaluations;
//! - for IDB's `δ = 1` inner loop, [`CostEvaluator::probe_add`] exploits
//!   that adding a node at post `p` only *decreases* the weights of edges
//!   incident to `p`, so the shortest-path solution can be repaired with
//!   a local decrease-only Dijkstra instead of recomputed from scratch.
//!
//! It also holds the cost-greedy kernel, IDB(1), behind `Idb`,
//! branch-and-bound's incumbent and the three scheduling solvers:
//! [`CostEvaluator::from_ones`], [`CostEvaluator::cheapest_add`],
//! [`CostEvaluator::greedy_fill`] and [`CostEvaluator::solution`].

use crate::{optimal_cost, Deployment, Instance, RoutingTree, Solution, SolveError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry ordered by *smallest* distance first, ties by smallest
/// node id — the exact pop order of `wrsn_graph::dijkstra_to`, which the
/// amortized evaluators here and in `rfh.rs` must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: usize,
}

impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable evaluator of the minimum total recharging cost under a
/// deployment; see the module-level discussion above for the design.
///
/// # Examples
///
/// ```
/// use wrsn_core::{CostEvaluator, Deployment, InstanceSampler};
/// use wrsn_geom::Field;
///
/// let inst = InstanceSampler::new(Field::square(200.0), 8, 16).sample(1);
/// let mut eval = CostEvaluator::new(&inst);
/// let base = eval.set_deployment(Deployment::ones(8).counts()).unwrap();
/// // Probing an extra node anywhere can only reduce the cost.
/// for p in 0..8 {
///     assert!(eval.probe_add(p) <= base);
/// }
/// ```
#[derive(Debug)]
pub struct CostEvaluator<'a> {
    instance: &'a Instance,
    /// Uplinks per post as `(target, tx energy in nJ)`.
    up: Vec<Vec<(usize, f64)>>,
    /// Incoming uplinks per node as `(source post, tx energy in nJ)`.
    rev: Vec<Vec<(usize, f64)>>,
    rx_nj: f64,
    /// Per-post report rates (bits per round).
    rates: Vec<f64>,
    /// Per-post deployment-independent consumption in nJ per round.
    sensing_nj: Vec<f64>,
    /// Current per-post charging efficiencies.
    eff: Vec<f64>,
    /// Current node counts.
    counts: Vec<u32>,
    /// Current distances to the base station (index `bs` holds 0).
    dist: Vec<f64>,
    /// Σ dist over posts for the current deployment.
    sum: f64,
    /// Scratch distance buffer for probes.
    scratch: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
}

impl<'a> CostEvaluator<'a> {
    /// Builds the evaluator's adjacency for `instance`.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // indexes two parallel arrays
    pub fn new(instance: &'a Instance) -> Self {
        let n = instance.num_posts();
        let mut up = vec![Vec::new(); n];
        let mut rev = vec![Vec::new(); n + 1];
        for p in 0..n {
            for &(to, tx) in instance.uplinks(p) {
                up[p].push((to, tx.as_njoules()));
                rev[to].push((p, tx.as_njoules()));
            }
        }
        CostEvaluator {
            instance,
            up,
            rev,
            rx_nj: instance.rx_energy().as_njoules(),
            rates: (0..n).map(|p| instance.report_rate(p)).collect(),
            sensing_nj: (0..n)
                .map(|p| instance.sensing_energy(p).as_njoules())
                .collect(),
            eff: vec![1.0; n],
            counts: vec![1; n],
            dist: vec![f64::INFINITY; n + 1],
            sum: f64::INFINITY,
            scratch: vec![f64::INFINITY; n + 1],
            heap: BinaryHeap::new(),
        }
    }

    /// An evaluator set to one node per post, where every cost-greedy
    /// solver starts.
    ///
    /// # Errors
    ///
    /// [`SolveError::Unroutable`] when a post cannot reach the base
    /// station under that deployment, naming the stranded post.
    pub fn from_ones(instance: &'a Instance) -> Result<Self, SolveError> {
        let ones = Deployment::ones(instance.num_posts());
        let mut eval = CostEvaluator::new(instance);
        if eval.set_deployment(ones.counts()).is_some() {
            return Ok(eval);
        }
        // Surface which post is stranded.
        Err(match optimal_cost(instance, &ones) {
            Err(e) => e,
            Ok(_) => SolveError::Unroutable { post: 0 },
        })
    }

    /// Weight of the uplink `u -> v` under the current efficiencies.
    #[inline]
    fn weight(&self, u: usize, v: usize, tx: f64) -> f64 {
        let bs = self.up.len();
        let mut w = tx / self.eff[u];
        if v != bs {
            w += self.rx_nj / self.eff[v];
        }
        w
    }

    /// Sets the base deployment and computes `f(m)` with a full Dijkstra.
    /// Returns `None` if some post cannot reach the base station.
    ///
    /// # Panics
    ///
    /// Panics if `counts` has the wrong length or contains a zero.
    pub fn set_deployment(&mut self, counts: &[u32]) -> Option<f64> {
        let n = self.up.len();
        assert_eq!(counts.len(), n, "deployment size mismatch");
        assert!(counts.iter().all(|&c| c >= 1), "every post needs a node");
        self.counts.copy_from_slice(counts);
        for (e, &c) in self.eff.iter_mut().zip(counts) {
            *e = self.instance.charge_efficiency(c);
        }
        let bs = n;
        self.dist.fill(f64::INFINITY);
        self.dist[bs] = 0.0;
        self.heap.clear();
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: bs,
        });
        while let Some(HeapEntry { dist: d, node: v }) = self.heap.pop() {
            if d > self.dist[v] {
                continue;
            }
            for i in 0..self.rev[v].len() {
                let (u, tx) = self.rev[v][i];
                let nd = d + self.weight(u, v, tx);
                if nd < self.dist[u] {
                    self.dist[u] = nd;
                    self.heap.push(HeapEntry { dist: nd, node: u });
                }
            }
        }
        self.sum = self.weighted_total(None);
        self.sum.is_finite().then_some(self.sum)
    }

    /// `Σ_p r_p·dist[p] + Σ_p sensing_p/eff[p]` over the given distance
    /// buffer (`None` = the base buffer). Efficiencies are read from
    /// `self.eff`, so callers temporarily installing a probe efficiency
    /// get the matching sensing term for free.
    #[allow(clippy::needless_range_loop)] // indexes three parallel arrays
    fn weighted_total(&self, scratch: Option<&[f64]>) -> f64 {
        let n = self.up.len();
        let dist = scratch.unwrap_or(&self.dist);
        let mut total = 0.0;
        for p in 0..n {
            total += self.rates[p] * dist[p] + self.sensing_nj[p] / self.eff[p];
        }
        total
    }

    /// The current `f(m)`.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set.
    #[must_use]
    pub fn current_cost(&self) -> f64 {
        assert!(self.sum.is_finite(), "set_deployment must be called first");
        self.sum
    }

    /// `f(m + e_post)`: the cost if one extra node were added at `post`,
    /// computed by a local decrease-only repair without disturbing the
    /// base state.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set or `post` is out of range.
    #[must_use]
    pub fn probe_add(&mut self, post: usize) -> f64 {
        self.repair_add(post)
    }

    /// Commits one extra node at `post`, updating the base state, and
    /// returns the new `f(m)`.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set or `post` is out of range.
    pub fn commit_add(&mut self, post: usize) -> f64 {
        let new_sum = self.repair_add(post);
        self.counts[post] += 1;
        self.eff[post] = self.instance.charge_efficiency(self.counts[post]);
        std::mem::swap(&mut self.dist, &mut self.scratch);
        self.sum = new_sum;
        new_sum
    }

    /// The post where one more node lowers `f(m)` the most: every post
    /// below the instance's per-post cap is probed in index order, and
    /// the first strict minimum wins. `None` when every post is full.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set.
    #[must_use]
    pub fn cheapest_add(&mut self) -> Option<usize> {
        let cap = self
            .instance
            .max_nodes_per_post()
            .unwrap_or(self.instance.num_nodes());
        let mut best: Option<(f64, usize)> = None;
        for p in 0..self.counts.len() {
            if self.counts[p] >= cap {
                continue;
            }
            let cost = self.probe_add(p);
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, p));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Spends the instance's remaining nodes one at a time, each at
    /// [`cheapest_add`](Self::cheapest_add): from
    /// [`from_ones`](Self::from_ones) this is IDB(1), greedy coordinate
    /// ascent on `f(m)` (paper Section V-B).
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set.
    pub fn greedy_fill(&mut self) {
        let placed: u32 = self.counts.iter().sum();
        for _ in placed..self.instance.num_nodes() {
            let p = self
                .cheapest_add()
                .expect("cap feasibility was validated at build time");
            self.commit_add(p);
        }
    }

    /// Decrease-only Dijkstra repair after raising `post`'s efficiency.
    fn repair_add(&mut self, post: usize) -> f64 {
        let n = self.up.len();
        assert!(self.sum.is_finite(), "set_deployment must be called first");
        assert!(post < n, "post {post} out of range");
        let old_eff = self.eff[post];
        let new_eff = self.instance.charge_efficiency(self.counts[post] + 1);
        self.scratch.copy_from_slice(&self.dist);
        self.heap.clear();

        // Temporarily install the new efficiency to compute new weights.
        self.eff[post] = new_eff;

        // Seed 1: post itself — its outgoing weights dropped.
        let mut best = f64::INFINITY;
        for i in 0..self.up[post].len() {
            let (v, tx) = self.up[post][i];
            let cand = self.weight(post, v, tx) + self.scratch[v];
            best = best.min(cand);
        }
        if best < self.scratch[post] {
            self.scratch[post] = best;
            self.heap.push(HeapEntry {
                dist: best,
                node: post,
            });
        }
        // Seed 2: posts transmitting into `post` — their rx term dropped.
        for i in 0..self.rev[post].len() {
            let (u, tx) = self.rev[post][i];
            let cand = self.weight(u, post, tx) + self.scratch[post];
            if cand < self.scratch[u] {
                self.scratch[u] = cand;
                self.heap.push(HeapEntry {
                    dist: cand,
                    node: u,
                });
            }
        }
        // Propagate decreases.
        while let Some(HeapEntry { dist: d, node: v }) = self.heap.pop() {
            if d > self.scratch[v] {
                continue;
            }
            for i in 0..self.rev[v].len() {
                let (u, tx) = self.rev[v][i];
                let nd = d + self.weight(u, v, tx);
                if nd < self.scratch[u] {
                    self.scratch[u] = nd;
                    self.heap.push(HeapEntry { dist: nd, node: u });
                }
            }
        }
        // Total under the probe efficiency (still installed), then
        // restore the base state.
        let total = {
            let scratch = std::mem::take(&mut self.scratch);
            let t = self.weighted_total(Some(&scratch));
            self.scratch = scratch;
            t
        };
        self.eff[post] = old_eff;
        total
    }

    /// The shortest-path routing tree (parent per post) for the current
    /// base deployment.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set.
    #[must_use]
    pub fn parents(&self) -> Vec<usize> {
        let mut parents = Vec::new();
        self.parents_into(&mut parents);
        parents
    }

    /// [`parents`](Self::parents) into a caller's buffer, which is
    /// cleared first, so a caller scoring many deployments reuses one
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set.
    pub fn parents_into(&self, parents: &mut Vec<usize>) {
        assert!(self.sum.is_finite(), "set_deployment must be called first");
        parents.clear();
        parents.extend((0..self.up.len()).map(|p| {
            self.up[p]
                .iter()
                .min_by(|&&(v1, tx1), &&(v2, tx2)| {
                    let a = self.weight(p, v1, tx1) + self.dist[v1];
                    let b = self.weight(p, v2, tx2) + self.dist[v2];
                    a.total_cmp(&b).then_with(|| v1.cmp(&v2))
                })
                .map(|&(v, _)| v)
                .expect("validated instances have at least one uplink per post")
        }));
    }

    /// The current node count per post.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The current deployment as a [`Deployment`].
    #[must_use]
    pub fn deployment(&self) -> Deployment {
        Deployment::new(self.counts.clone())
    }

    /// The current deployment on its shortest-path tree, as the
    /// [`Solution`] of the solver named `algorithm`.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set.
    #[must_use]
    pub fn solution(&self, algorithm: &'static str) -> Solution {
        let tree = RoutingTree::new(self.parents(), self.instance)
            .expect("shortest-path parents use existing links");
        Solution::evaluated(algorithm, self.instance, self.deployment(), tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimal_cost, InstanceSampler};
    use wrsn_geom::Field;

    fn check_against_reference(n: usize, m: u32, seed: u64) {
        let inst = InstanceSampler::new(Field::square(250.0), n, m).sample(seed);
        let mut eval = CostEvaluator::new(&inst);
        let mut counts = vec![1u32; n];
        let got = eval.set_deployment(&counts).unwrap();
        let (want, _) = optimal_cost(&inst, &Deployment::new(counts.clone())).unwrap();
        assert!((got - want.as_njoules()).abs() < 1e-6 * want.as_njoules().max(1.0));

        // Greedy adds with probe/commit must track the reference exactly.
        for step in 0..(m as usize - n) {
            let probes: Vec<f64> = (0..n).map(|p| eval.probe_add(p)).collect();
            for (p, &probe) in probes.iter().enumerate() {
                let mut c2 = counts.clone();
                c2[p] += 1;
                let (reference, _) = optimal_cost(&inst, &Deployment::new(c2)).unwrap();
                assert!(
                    (probe - reference.as_njoules()).abs() < 1e-6 * reference.as_njoules().max(1.0),
                    "step {step} probe at {p}: {probe} vs {reference}"
                );
            }
            let best = (0..n)
                .min_by(|&a, &b| probes[a].total_cmp(&probes[b]))
                .unwrap();
            let committed = eval.commit_add(best);
            counts[best] += 1;
            let (reference, _) = optimal_cost(&inst, &Deployment::new(counts.clone())).unwrap();
            assert!(
                (committed - reference.as_njoules()).abs() < 1e-6 * reference.as_njoules().max(1.0),
                "commit at step {step}"
            );
        }
    }

    #[test]
    fn probe_and_commit_match_full_reference_small() {
        check_against_reference(6, 14, 3);
    }

    #[test]
    fn probe_and_commit_match_full_reference_medium() {
        check_against_reference(15, 25, 8);
    }

    #[test]
    fn parents_match_reference_tree_cost() {
        let inst = InstanceSampler::new(Field::square(250.0), 12, 30).sample(5);
        let mut eval = CostEvaluator::new(&inst);
        let counts = vec![2u32, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3];
        let f = eval.set_deployment(&counts).unwrap();
        let parents = eval.parents();
        let dep = Deployment::new(counts);
        let tree = crate::RoutingTree::new(parents, &inst).unwrap();
        let cost = crate::tree_cost(&inst, &dep, &tree);
        assert!((cost.as_njoules() - f).abs() < 1e-6 * f);
    }

    #[test]
    fn probe_never_increases_cost() {
        let inst = InstanceSampler::new(Field::square(300.0), 20, 40).sample(2);
        let mut eval = CostEvaluator::new(&inst);
        let base = eval.set_deployment(&[1; 20]).unwrap();
        for p in 0..20 {
            assert!(eval.probe_add(p) <= base + 1e-9);
        }
        // Base state untouched by probes.
        assert!((eval.current_cost() - base).abs() < 1e-12);
    }

    #[test]
    fn set_deployment_reusable_across_counts() {
        let inst = InstanceSampler::new(Field::square(200.0), 8, 24).sample(7);
        let mut eval = CostEvaluator::new(&inst);
        let a = eval.set_deployment(&[3u32; 8]).unwrap();
        let b = eval.set_deployment(&[1u32; 8]).unwrap();
        let a2 = eval.set_deployment(&[3u32; 8]).unwrap();
        assert!(a < b);
        assert_eq!(a, a2);
        assert_eq!(eval.deployment().counts(), &[3u32; 8]);
    }

    #[test]
    #[should_panic(expected = "set_deployment")]
    fn probe_before_set_panics() {
        let inst = InstanceSampler::new(Field::square(200.0), 4, 8).sample(1);
        let mut eval = CostEvaluator::new(&inst);
        let _ = eval.probe_add(0);
    }
}
