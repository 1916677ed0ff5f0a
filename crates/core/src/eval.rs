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
//! Every RFH pass runs its Phase I here too: `route`, then the fat tree
//! from `tight_parents`.
//!
//! [`CostEvaluator::cheapest_add`] repairs only the posts it must. A node
//! added at `q` lowers `q` by the drop `δ_q` of its best uplink and every
//! strict descendant of `q` in the shortest-path tree by one common shift
//! `σ_q = δ_q + rx·(1/η(m_q) − 1/η(m_q+1))`. While `σ_q` is below the
//! least reduced cost `w(u,v) + dist[v] − dist[u]` of any uplink entering
//! `q`'s subtree from outside, no other post can switch into it, so the
//! saving is a closed form in `δ_q`, `σ_q`, the subtree's report rate and
//! `q`'s sensing draw, read in O(out-degree). Every post that fails that
//! test, and every post whose estimate lies within `1e-9·f` of the best,
//! is repaired exactly, and the first strict minimum of the exact totals
//! wins: the pick is the one probing every post gives (DESIGN §3.5).

use crate::{Deployment, Instance, RoutingTree, Solution, SolveError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry ordered by *smallest* distance first, ties by smallest
/// node id — the exact pop order of `wrsn_graph::dijkstra_to`, which the
/// evaluator must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
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

/// A post's estimated one-node-more cost in a `cheapest_add` round.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// At the cap: not a candidate.
    Full,
    /// `f` minus the certified closed-form saving.
    Certified(f64),
    /// The exact `repair_add` total.
    Repaired(f64),
}

impl Probe {
    fn cost(self) -> Option<f64> {
        match self {
            Probe::Full => None,
            Probe::Certified(c) | Probe::Repaired(c) => Some(c),
        }
    }
}

/// Relative margin, against `f`, within which a certified estimate is
/// confirmed by an exact repair before it may win. The rounding of `f`
/// and of the estimates is about `N·2⁻⁵³·f` (≈10⁻¹³·f at 1 000 posts).
const CERTIFICATE_MARGIN: f64 = 1e-9;

/// Marks "no child" / "no sibling" in [`Certificate`]'s child lists.
const NO_NODE: usize = usize::MAX;

/// One `cheapest_add` round's view of the shortest-path tree, kept
/// across rounds so that a round allocates nothing. Indexed by node:
/// posts, then the base station.
#[derive(Debug, Default)]
struct Certificate {
    /// The tree, as [`CostEvaluator::parents_into`] routes it, and each
    /// node's children as a list linked through `next_sibling`.
    parent: Vec<usize>,
    first_child: Vec<usize>,
    next_sibling: Vec<usize>,
    /// Preorder of the tree from the base station, and its DFS stack.
    order: Vec<usize>,
    stack: Vec<usize>,
    /// Euler-tour interval: `a` is `x` or an ancestor of it iff
    /// `tin[a] <= tin[x] < tout[a]`.
    tin: Vec<usize>,
    tout: Vec<usize>,
    /// `W(q)`: the report rate summed over `q`'s subtree.
    subtree_rate: Vec<f64>,
    /// `minslack(q)`: the least reduced cost of an uplink from outside
    /// `q`'s subtree into it (∞ when there is none).
    min_slack: Vec<f64>,
    /// This round's estimate per post.
    probes: Vec<Probe>,
}

impl Certificate {
    #[inline]
    fn is_ancestor(&self, a: usize, x: usize) -> bool {
        self.tin[a] <= self.tin[x] && self.tin[x] < self.tout[a]
    }

    /// Builds the round's tree aggregates from `eval`'s base state.
    /// `false` when the parents do not form one tree rooted at the base
    /// station (possible only through rounding), and nothing may be
    /// certified.
    fn build(&mut self, eval: &CostEvaluator<'_>) -> bool {
        let n = eval.up.len();
        let bs = n;
        eval.parents_into(&mut self.parent);
        self.first_child.clear();
        self.first_child.resize(n + 1, NO_NODE);
        self.next_sibling.clear();
        self.next_sibling.resize(n + 1, NO_NODE);
        for p in (0..n).rev() {
            self.next_sibling[p] = self.first_child[self.parent[p]];
            self.first_child[self.parent[p]] = p;
        }
        self.tin.clear();
        self.tin.resize(n + 1, 0);
        self.order.clear();
        self.stack.clear();
        self.stack.push(bs);
        while let Some(v) = self.stack.pop() {
            self.tin[v] = self.order.len();
            self.order.push(v);
            let mut c = self.first_child[v];
            while c != NO_NODE {
                self.stack.push(c);
                c = self.next_sibling[c];
            }
        }
        if self.order.len() != n + 1 {
            return false;
        }
        // Subtree sizes and rates, children before parents; an exit time
        // is the entry time plus the subtree's size.
        self.tout.clear();
        self.tout.resize(n + 1, 1);
        self.subtree_rate.clear();
        self.subtree_rate.extend_from_slice(&eval.rates);
        self.subtree_rate.push(0.0);
        for &v in self.order[1..].iter().rev() {
            let p = self.parent[v];
            self.tout[p] += self.tout[v];
            self.subtree_rate[p] += self.subtree_rate[v];
        }
        for (tout, &tin) in self.tout.iter_mut().zip(&self.tin) {
            *tout += tin;
        }
        // An uplink u -> v enters the subtree of every node from v up to,
        // not including, the first ancestor of u.
        self.min_slack.clear();
        self.min_slack.resize(n + 1, f64::INFINITY);
        for u in 0..n {
            for &(v, tx) in &eval.up[u] {
                if self.is_ancestor(v, u) {
                    continue;
                }
                let slack = (eval.weight(u, v, tx) + eval.dist[v]) - eval.dist[u];
                let mut a = v;
                while !self.is_ancestor(a, u) {
                    self.min_slack[a] = self.min_slack[a].min(slack);
                    a = self.parent[a];
                }
            }
        }
        true
    }

    /// `f(m + e_q)` in closed form when one more node at `q` moves no
    /// post into `q`'s subtree, else `None`.
    fn certified_cost(&self, eval: &CostEvaluator<'_>, q: usize) -> Option<f64> {
        let bs = eval.up.len();
        let new_eff = eval.instance.charge_efficiency(eval.counts[q] + 1);
        let inv_drop = 1.0 / eval.eff[q] - 1.0 / new_eff;
        let mut best = eval.dist[q];
        for &(v, tx) in &eval.up[q] {
            let mut w = tx / new_eff;
            if v != bs {
                w += eval.rx_nj / eval.eff[v];
            }
            best = best.min(w + eval.dist[v]);
        }
        let drop = eval.dist[q] - best;
        let shift = drop + eval.rx_nj * inv_drop;
        (shift < self.min_slack[q]).then(|| {
            let rate = eval.rates[q];
            let saving =
                rate * drop + shift * (self.subtree_rate[q] - rate) + eval.sensing_nj[q] * inv_drop;
            eval.sum - saving
        })
    }
}

/// Reusable evaluator of the minimum total recharging cost under a
/// deployment; see the module-level discussion above for the design.
///
/// [`probe_add`](Self::probe_add) and [`commit_add`](Self::commit_add)
/// always repair. [`cheapest_add`](Self::cheapest_add), and so
/// [`greedy_fill`](Self::greedy_fill), repairs only the posts whose
/// saving the subtree-shift certificate cannot bound and those whose
/// bound comes within `1e-9·f` of the best: about a fifth of the probes
/// at 100 posts / 400 nodes, for the same pick.
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
    /// `cheapest_add`'s per-round buffers.
    round: Certificate,
    /// Decrease-only repairs run so far.
    #[cfg(test)]
    repairs: usize,
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
            round: Certificate::default(),
            #[cfg(test)]
            repairs: 0,
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
        let mut eval = CostEvaluator::new(instance);
        eval.route(Deployment::ones(instance.num_posts()).counts())?;
        Ok(eval)
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

    /// [`set_deployment`](Self::set_deployment), naming the first post
    /// that cannot reach the base station when the cost is not finite:
    /// the post `optimal_cost` names for that deployment.
    pub(crate) fn route(&mut self, counts: &[u32]) -> Result<f64, SolveError> {
        self.set_deployment(counts).ok_or_else(|| {
            let stranded = self.dist.iter().position(|d| !d.is_finite());
            SolveError::Unroutable {
                post: stranded.unwrap_or(0),
            }
        })
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

    /// The post where one more node lowers `f(m)` the most: among the
    /// posts below the instance's per-post cap, the first strict minimum
    /// of [`probe_add`](Self::probe_add) in index order. `None` when every
    /// post is full.
    ///
    /// Not every post is repaired. A post whose probe the subtree-shift
    /// certificate bounds (module docs) gets a closed-form estimate; the
    /// rest are repaired. Every post whose estimate lies within `1e-9·f`
    /// of the lowest then gets its exact repaired total, and the first
    /// strict minimum of those wins. Estimates and totals differ only by
    /// rounding, far below that margin, so the post probing every one
    /// would pick is always among them, and wins. When some estimate is
    /// not finite, every open post is repaired.
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
        let f = self.current_cost();
        let mut round = std::mem::take(&mut self.round);
        let certify = round.build(self);
        round.probes.clear();
        for q in 0..self.counts.len() {
            let probe = if self.counts[q] >= cap {
                Probe::Full
            } else if let Some(cost) = certify.then(|| round.certified_cost(self, q)).flatten() {
                Probe::Certified(cost)
            } else {
                Probe::Repaired(self.repair_add(q))
            };
            round.probes.push(probe);
        }
        let costs = round.probes.iter().filter_map(|p| p.cost());
        let finite = costs.clone().all(f64::is_finite);
        let bar = costs.fold(f64::INFINITY, f64::min) + CERTIFICATE_MARGIN * f;
        let mut near = (0..round.probes.len())
            .filter(|&q| round.probes[q].cost().is_some_and(|c| !finite || c <= bar));
        let pick = if near.clone().count() == 1 {
            near.next()
        } else {
            let mut best: Option<(f64, usize)> = None;
            for q in near {
                let cost = match round.probes[q] {
                    Probe::Repaired(c) => c,
                    _ => self.repair_add(q),
                };
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, q));
                }
            }
            best.map(|(_, q)| q)
        };
        self.round = round;
        pick
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
        #[cfg(test)]
        {
            self.repairs += 1;
        }
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

    /// Every tight uplink under the current base deployment, the paper's
    /// "fat tree": per node, the sorted targets `v` of its uplinks with
    /// `dist[u] = w(u, v) + dist[v]` within `wrsn_graph::tight_edges`'
    /// tolerance, `1e-9·max(|dist[u]|, 1)`. The base station's list is
    /// empty, ready for `Dag::from_parents`.
    ///
    /// # Panics
    ///
    /// Panics if no deployment has been set.
    #[allow(clippy::needless_range_loop)] // walks dist/up/parents in parallel
    pub(crate) fn tight_parents(&self) -> Vec<Vec<usize>> {
        assert!(self.sum.is_finite(), "set_deployment must be called first");
        let n = self.up.len();
        let mut parents = vec![Vec::new(); n + 1];
        for u in 0..n {
            let du = self.dist[u];
            for &(v, tx) in &self.up[u] {
                let dv = self.dist[v];
                if !dv.is_finite() {
                    continue;
                }
                let slack = du - (self.weight(u, v, tx) + dv);
                let tol = 1e-9 * du.abs().max(1.0);
                if slack.abs() <= tol {
                    parents[u].push(v);
                }
            }
            parents[u].sort_unstable();
            parents[u].dedup();
        }
        parents
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
    use wrsn_energy::Energy;
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
    fn certificate_refuses_a_post_whose_boost_pulls_in_a_non_descendant() {
        // Post 1 routes straight to the base station (5.5 nJ) with 1.5 nJ
        // of slack over its uplink into post 0 (1 + rx 4 + 2). A second
        // node at post 0 halves its costs: post 0 drops by 1 and the rx
        // of its in-links by 2, a shift of 3, so post 1 switches into
        // post 0's subtree and saves 1.5 more than the closed form sees.
        let e = Energy::from_njoules;
        let inst = crate::InstanceBuilder::new(2, 4)
            .rx_energy(e(4.0))
            .uplink(0, 2, e(2.0))
            .uplink(1, 2, e(5.5))
            .uplink(1, 0, e(1.0))
            .build()
            .unwrap();
        let mut eval = CostEvaluator::new(&inst);
        let f = eval.set_deployment(&[1, 1]).unwrap();
        assert_eq!(eval.parents(), vec![2, 2]);
        let mut round = Certificate::default();
        assert!(round.build(&eval));
        assert_eq!(round.min_slack[0], 1.5);
        assert_eq!(round.certified_cost(&eval, 0), None);
        assert_eq!(eval.probe_add(0), f - 2.5);
        // Nothing enters post 1's subtree: its closed form is exact.
        assert_eq!(round.certified_cost(&eval, 1), Some(f - 2.75));
        assert_eq!(eval.probe_add(1), f - 2.75);
        assert_eq!(eval.cheapest_add(), Some(1));
    }

    #[test]
    fn greedy_fill_repairs_under_a_third_of_the_probes() {
        // Probing every open post repairs (M − N)·N = 30 000 times per
        // solve at 100 posts / 400 nodes; the certificate spares most.
        for seed in [1, 2, 3] {
            let inst = InstanceSampler::new(Field::square(500.0), 100, 400).sample(seed);
            let mut eval = CostEvaluator::from_ones(&inst).unwrap();
            eval.greedy_fill();
            assert!(
                eval.repairs <= 9_000,
                "seed {seed}: {} repairs, over 30 % of 30 000",
                eval.repairs
            );
        }
    }

    proptest::proptest! {
        /// The fat tree read off the evaluator is `tight_edges` over
        /// `cost_digraph` and `dijkstra_to`, on random instances (gain
        /// curves with plateaus, caps, rates, sensing, explicit and
        /// geometric) under random deployments.
        #[test]
        fn tight_parents_match_the_reference(
            seed in proptest::prelude::any::<u64>(),
            extra in proptest::collection::vec(0u32..5, 12),
        ) {
            use wrsn_graph::{dijkstra_to, tight_edges};
            let inst = crate::testing::random_instance(seed, 12);
            let n = inst.num_posts();
            let dep = Deployment::new(extra[..n].iter().map(|&x| 1 + x).collect());
            let mut eval = CostEvaluator::new(&inst);
            eval.route(dep.counts()).unwrap();
            let g = crate::cost_digraph(&inst, &dep);
            let want = tight_edges(&g, &dijkstra_to(&g, inst.bs()));
            proptest::prop_assert_eq!(eval.tight_parents(), want, "seed {}", seed);
        }
    }

    #[test]
    #[should_panic(expected = "set_deployment")]
    fn probe_before_set_panics() {
        let inst = InstanceSampler::new(Field::square(200.0), 4, 8).sample(1);
        let mut eval = CostEvaluator::new(&inst);
        let _ = eval.probe_add(0);
    }
}
