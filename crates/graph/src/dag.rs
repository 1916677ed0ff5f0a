//! The shortest-path DAG ("fat tree") and the trimming operations the RFH
//! heuristic performs on it.

use crate::bitset::ones_in;
use crate::{FixedBitSet, NodeId};
use std::fmt;

/// A directed acyclic graph stored as per-node **parent** lists — the shape
/// of the paper's "fat tree" of all minimum-energy routes, where a parent
/// is a candidate next hop toward the base station.
///
/// Terminology matches the paper: node `u` is a *descendant* of `p` when
/// some retained route from `u` toward a root passes through `p`
/// (equivalently, `p` is reachable from `u` along parent edges). A node's
/// *workload* is its number of distinct descendants.
///
/// # Examples
///
/// ```
/// use wrsn_graph::Dag;
///
/// // 0 and 1 both route via 2; 2 routes to root 3.
/// let dag = Dag::from_parents(vec![vec![2], vec![2], vec![3], vec![]]);
/// assert_eq!(dag.descendant_counts(), vec![0, 0, 2, 3]);
/// assert!(dag.is_tree());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dag {
    parents: Vec<Vec<NodeId>>,
}

impl Dag {
    /// Builds a DAG from per-node parent lists.
    ///
    /// # Panics
    ///
    /// Panics if a parent index is out of bounds, if a node lists itself as
    /// a parent, or if the parent relation contains a directed cycle.
    #[must_use]
    pub fn from_parents(parents: Vec<Vec<NodeId>>) -> Self {
        let n = parents.len();
        for (u, ps) in parents.iter().enumerate() {
            for &p in ps {
                assert!(p < n, "parent {p} of node {u} out of bounds");
                assert!(p != u, "node {u} lists itself as a parent");
            }
        }
        let dag = Dag { parents };
        assert!(
            dag.topo_order().is_some(),
            "parent relation contains a cycle"
        );
        dag
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.parents.len()
    }

    /// The candidate parents (next hops) of `u`.
    #[must_use]
    pub fn parents(&self, u: NodeId) -> &[NodeId] {
        &self.parents[u]
    }

    /// All `(child, parent)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.parents
            .iter()
            .enumerate()
            .flat_map(|(u, ps)| ps.iter().map(move |&p| (u, p)))
    }

    /// Total number of parent edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    /// Removes the edge `child -> parent`, returning `true` if it existed.
    pub fn remove_edge(&mut self, child: NodeId, parent: NodeId) -> bool {
        let ps = &mut self.parents[child];
        if let Some(pos) = ps.iter().position(|&p| p == parent) {
            ps.remove(pos);
            true
        } else {
            false
        }
    }

    /// Retains only `parent` in `child`'s parent list (the final step of
    /// turning the fat tree into a tree).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not currently a parent of `child`.
    pub fn keep_only_parent(&mut self, child: NodeId, parent: NodeId) {
        assert!(
            self.parents[child].contains(&parent),
            "{parent} is not a parent of {child}"
        );
        self.parents[child] = vec![parent];
    }

    /// A topological order in which every node appears **after** all of its
    /// parents (roots first), or `None` if the relation is cyclic.
    #[must_use]
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        // In-degree of the child->parent relation per node = number of
        // children; we emit a node once all its parents are emitted, so we
        // track remaining-parent counts instead.
        let mut remaining: Vec<usize> = self.parents.iter().map(Vec::len).collect();
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (u, p) in self.edges() {
            children[p].push(u);
        }
        let mut order: Vec<NodeId> = (0..n).filter(|&u| remaining[u] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let p = order[head];
            head += 1;
            for &c in &children[p] {
                remaining[c] -= 1;
                if remaining[c] == 0 {
                    order.push(c);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// For every node `u`, the set of nodes reachable from `u` along parent
    /// edges — `u`'s *ancestors* (potential next hops at any depth),
    /// excluding `u` itself. `u` is a descendant of `p` iff
    /// `ancestors[u].contains(p)`.
    ///
    /// # Panics
    ///
    /// Panics if the relation is cyclic (cannot happen for a [`Dag`] built
    /// through the validating constructors and mutated only by edge
    /// removal).
    #[must_use]
    pub fn ancestor_sets(&self) -> Vec<FixedBitSet> {
        let sets = self.ancestors();
        (0..self.node_count()).map(|u| sets.to_bitset(u)).collect()
    }

    /// Fills `out` with every node's ancestor set (see
    /// [`ancestor_sets`](Dag::ancestor_sets)), reusing its storage.
    ///
    /// `order` must be a topological order of this DAG, roots first, as
    /// [`topo_order`](Dag::topo_order) returns. Removing edges keeps an
    /// order topological, so a caller that only trims can compute it once
    /// and pass it to every call.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not as long as the node count.
    pub fn ancestors_into(&self, order: &[NodeId], out: &mut AncestorSets) {
        let n = self.node_count();
        assert_eq!(order.len(), n, "order must list every node");
        out.reset(n);
        let stride = out.stride;
        // Roots first: when we reach u, every parent's row is complete.
        for &u in order {
            for &p in &self.parents[u] {
                for k in 0..stride {
                    out.words[u * stride + k] |= out.words[p * stride + k];
                }
                out.words[u * stride + p / 64] |= 1 << (p % 64);
            }
        }
    }

    /// [`ancestors_into`](Dag::ancestors_into) on a fresh buffer.
    fn ancestors(&self) -> AncestorSets {
        let order = self.topo_order().expect("Dag is acyclic by construction");
        let mut sets = AncestorSets::default();
        self.ancestors_into(&order, &mut sets);
        sets
    }

    /// The *workload* of every node: its number of distinct descendants
    /// (paper Section V, Phase II).
    #[must_use]
    pub fn descendant_counts(&self) -> Vec<usize> {
        let sets = self.ancestors();
        let n = self.node_count();
        let mut counts = vec![0usize; n];
        for u in 0..n {
            for p in sets.ones(u) {
                counts[p] += 1;
            }
        }
        counts
    }

    /// Returns `true` if every node has at most one parent — i.e. the fat
    /// tree has been fully trimmed into a forest.
    #[must_use]
    pub fn is_tree(&self) -> bool {
        self.parents.iter().all(|p| p.len() <= 1)
    }

    /// The roots (nodes with no parent).
    #[must_use]
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&u| self.parents[u].is_empty())
            .collect()
    }
}

/// The ancestor sets of every node of a [`Dag`], one row of bits per
/// node in a single word buffer that
/// [`Dag::ancestors_into`] refills in place.
///
/// # Examples
///
/// ```
/// use wrsn_graph::{AncestorSets, Dag};
///
/// // 0 -> {1, 2} -> 3 (root)
/// let dag = Dag::from_parents(vec![vec![1, 2], vec![3], vec![3], vec![]]);
/// let order = dag.topo_order().unwrap();
/// let mut sets = AncestorSets::default();
/// dag.ancestors_into(&order, &mut sets);
/// assert!(sets.contains(0, 3) && !sets.contains(3, 0));
/// assert_eq!(sets.ones(0).collect::<Vec<_>>(), vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AncestorSets {
    nodes: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

impl AncestorSets {
    /// Clears the buffer to `nodes` empty rows.
    fn reset(&mut self, nodes: usize) {
        self.nodes = nodes;
        self.stride = nodes.div_ceil(64);
        self.words.clear();
        self.words.resize(nodes * self.stride, 0);
    }

    /// Returns `true` if `a` is an ancestor of `u` (so `u` is a descendant
    /// of `a`).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `a` is not a node.
    #[must_use]
    pub fn contains(&self, u: NodeId, a: NodeId) -> bool {
        assert!(
            u < self.nodes && a < self.nodes,
            "node out of bounds for {} nodes",
            self.nodes
        );
        self.words[u * self.stride + a / 64] & (1 << (a % 64)) != 0
    }

    /// The ancestors of `u` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node.
    pub fn ones(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        ones_in(self.row(u))
    }

    /// Row `u` as a standalone [`FixedBitSet`].
    fn to_bitset(&self, u: NodeId) -> FixedBitSet {
        FixedBitSet::from_words(self.nodes, self.row(u).to_vec())
    }

    fn row(&self, u: NodeId) -> &[u64] {
        assert!(
            u < self.nodes,
            "node {u} out of bounds for {} nodes",
            self.nodes
        );
        &self.words[u * self.stride..(u + 1) * self.stride]
    }
}

impl fmt::Display for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dag({} nodes, {} edges{})",
            self.node_count(),
            self.edge_count(),
            if self.is_tree() { ", tree" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fat tree of Fig. 5(a)-like shape: two diamonds sharing a root.
    fn diamond() -> Dag {
        // 0 -> {1, 2} -> 3 (root)
        Dag::from_parents(vec![vec![1, 2], vec![3], vec![3], vec![]])
    }

    #[test]
    fn topo_order_roots_first() {
        let d = diamond();
        let order = d.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |x: usize| order.iter().position(|&u| u == x).unwrap();
        assert!(pos(3) < pos(1) && pos(3) < pos(2));
        assert!(pos(1) < pos(0) && pos(2) < pos(0));
    }

    #[test]
    fn ancestors_of_diamond() {
        let d = diamond();
        let anc = d.ancestor_sets();
        assert_eq!(anc[0].ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(anc[1].ones().collect::<Vec<_>>(), vec![3]);
        assert_eq!(anc[3].ones().count(), 0);
    }

    #[test]
    fn descendant_counts_of_diamond() {
        let d = diamond();
        // 1 and 2 each have descendant {0}; 3 has {0,1,2}.
        assert_eq!(d.descendant_counts(), vec![0, 1, 1, 3]);
    }

    #[test]
    fn remove_edge_updates_counts() {
        let mut d = diamond();
        assert!(d.remove_edge(0, 2));
        assert!(!d.remove_edge(0, 2));
        assert_eq!(d.descendant_counts(), vec![0, 1, 0, 3]);
        assert!(d.is_tree());
    }

    #[test]
    fn keep_only_parent() {
        let mut d = diamond();
        d.keep_only_parent(0, 1);
        assert_eq!(d.parents(0), &[1]);
        assert!(d.is_tree());
    }

    #[test]
    #[should_panic(expected = "not a parent")]
    fn keep_only_nonexistent_parent_panics() {
        diamond().keep_only_parent(1, 2);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_rejected() {
        let _ = Dag::from_parents(vec![vec![1], vec![0]]);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_parent_rejected() {
        let _ = Dag::from_parents(vec![vec![0]]);
    }

    #[test]
    fn roots_and_tree_detection() {
        let d = diamond();
        assert_eq!(d.roots(), vec![3]);
        assert!(!d.is_tree());
        let forest = Dag::from_parents(vec![vec![], vec![0], vec![]]);
        assert_eq!(forest.roots(), vec![0, 2]);
        assert!(forest.is_tree());
    }

    #[test]
    fn deep_chain_ancestors() {
        let n = 200;
        let parents: Vec<Vec<usize>> = (0..n)
            .map(|u| if u + 1 < n { vec![u + 1] } else { vec![] })
            .collect();
        let d = Dag::from_parents(parents);
        let counts = d.descendant_counts();
        for (u, &c) in counts.iter().enumerate() {
            assert_eq!(c, u);
        }
    }

    #[test]
    fn edges_enumeration() {
        let d = diamond();
        let mut edges: Vec<_> = d.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn display_flags_tree() {
        let mut d = diamond();
        assert_eq!(format!("{d}"), "dag(4 nodes, 4 edges)");
        d.remove_edge(0, 2);
        assert!(format!("{d}").contains("tree"));
    }
}
