//! Routing trees: one parent (next hop) per post.

use crate::{Instance, PostId};
use std::error::Error;
use std::fmt;
use wrsn_energy::Energy;

/// Error constructing a [`RoutingTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The parent vector length differs from the instance's post count.
    WrongLength {
        /// Parents supplied.
        got: usize,
        /// Posts in the instance.
        expected: usize,
    },
    /// A post's chosen parent is not reachable by any of its uplinks.
    MissingLink {
        /// The transmitting post.
        from: PostId,
        /// The chosen parent.
        to: usize,
    },
    /// Following parent pointers from `post` never reaches the base
    /// station (a routing loop).
    Cycle {
        /// A post on the loop.
        post: PostId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::WrongLength { got, expected } => {
                write!(
                    f,
                    "parent vector has {got} entries, instance has {expected} posts"
                )
            }
            TreeError::MissingLink { from, to } => {
                write!(f, "post {from} cannot transmit to chosen parent {to}")
            }
            TreeError::Cycle { post } => write!(f, "routing loop through post {post}"),
        }
    }
}

impl Error for TreeError {}

/// A routing arrangement: every post forwards to exactly one parent (a
/// post id, or the base-station index [`Instance::bs`]), forming a tree
/// rooted at the base station.
///
/// # Examples
///
/// ```
/// use wrsn_core::{InstanceBuilder, RoutingTree};
/// use wrsn_energy::Energy;
///
/// let e = Energy::from_njoules(4.0);
/// let inst = InstanceBuilder::new(2, 2)
///     .uplink(0, 2, e)
///     .uplink(1, 0, e)
///     .build()?;
/// let tree = RoutingTree::new(vec![2, 0], &inst)?;
/// assert_eq!(tree.descendant_counts(), vec![1, 0]);
/// assert_eq!(tree.depth(1), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTree {
    parent: Vec<usize>,
    bs: usize,
}

impl RoutingTree {
    /// Creates a routing tree from per-post parent choices, validating
    /// link existence and acyclicity against `instance`.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] when the parent vector has the wrong
    /// length, uses a non-existent link, or contains a loop.
    pub fn new(parent: Vec<usize>, instance: &Instance) -> Result<Self, TreeError> {
        let n = instance.num_posts();
        if parent.len() != n {
            return Err(TreeError::WrongLength {
                got: parent.len(),
                expected: n,
            });
        }
        for (p, &q) in parent.iter().enumerate() {
            if instance.tx_energy(p, q).is_none() {
                return Err(TreeError::MissingLink { from: p, to: q });
            }
        }
        let tree = RoutingTree {
            parent,
            bs: instance.bs(),
        };
        // Cycle check: walk up from every post; a walk longer than N hops
        // must have looped.
        for p in 0..n {
            let mut cur = p;
            let mut hops = 0;
            while cur != tree.bs {
                cur = tree.parent[cur];
                hops += 1;
                if hops > n {
                    return Err(TreeError::Cycle { post: p });
                }
            }
        }
        Ok(tree)
    }

    /// The parent (next hop) of post `p`.
    #[must_use]
    pub fn parent(&self, p: PostId) -> usize {
        self.parent[p]
    }

    /// All parent choices, indexed by post.
    #[must_use]
    pub fn parents(&self) -> &[usize] {
        &self.parent
    }

    /// Number of posts.
    #[must_use]
    pub fn num_posts(&self) -> usize {
        self.parent.len()
    }

    /// The base-station index.
    #[must_use]
    pub fn bs(&self) -> usize {
        self.bs
    }

    /// The children (posts whose parent is `node`); `node` may be a post
    /// or the base station.
    #[must_use]
    pub fn children(&self, node: usize) -> Vec<PostId> {
        (0..self.parent.len())
            .filter(|&p| self.parent[p] == node)
            .collect()
    }

    /// Per-post descendant counts: how many other posts route through
    /// each post — the paper's *routing workload*.
    #[must_use]
    pub fn descendant_counts(&self) -> Vec<usize> {
        let n = self.parent.len();
        let mut counts = vec![0usize; n];
        for p in 0..n {
            let mut cur = self.parent[p];
            while cur != self.bs {
                counts[cur] += 1;
                cur = self.parent[cur];
            }
        }
        counts
    }

    /// Hop count from `p` to the base station.
    #[must_use]
    pub fn depth(&self, p: PostId) -> usize {
        let mut cur = p;
        let mut hops = 0;
        while cur != self.bs {
            cur = self.parent[cur];
            hops += 1;
        }
        hops
    }

    /// The node sequence from `p` to the base station (inclusive).
    #[must_use]
    pub fn path_to_bs(&self, p: PostId) -> Vec<usize> {
        let mut path = vec![p];
        let mut cur = p;
        while cur != self.bs {
            cur = self.parent[cur];
            path.push(cur);
        }
        path
    }

    /// Per-bit transmission energy from `p` to its parent.
    ///
    /// # Panics
    ///
    /// Panics if the tree was not built for `instance` (the link is
    /// guaranteed to exist for the validating constructor).
    #[must_use]
    pub fn tx_energy(&self, instance: &Instance, p: PostId) -> Energy {
        instance
            .tx_energy(p, self.parent[p])
            .expect("validated routing tree uses existing links")
    }

    /// The total report rate flowing *into* each post from its
    /// descendants, in bits per round. With the paper's uniform one bit
    /// per post this equals [`RoutingTree::descendant_counts`].
    #[must_use]
    pub fn descendant_rate_sums(&self, instance: &Instance) -> Vec<f64> {
        let mut inflow = Vec::new();
        rate_sums_into(instance, &self.parent, &mut inflow)
            .expect("validated routing trees have no loops");
        inflow
    }

    /// The traffic energy each post consumes per round: its own
    /// transmission plus forwarding and receiving for every descendant,
    /// weighted by report rates (`r_p` bits per round, default 1):
    ///
    /// ```text
    /// E_p = (r_p + inflow_p) · e_tx(p → parent)  +  inflow_p · e_rx
    /// ```
    ///
    /// Deployment-independent consumption (sensing/computation) is *not*
    /// included — see [`Instance::sensing_energy`]; cost evaluation adds
    /// it separately.
    #[must_use]
    pub fn per_post_energy(&self, instance: &Instance) -> Vec<Energy> {
        let (mut inflow, mut energy) = (Vec::new(), Vec::new());
        per_post_energy_into(instance, &self.parent, &mut inflow, &mut energy)
            .expect("validated routing trees have no loops");
        energy
    }
}

/// [`RoutingTree::per_post_energy`] of the routing `parent` (one next
/// hop per post, as in [`RoutingTree::parents`]) into caller buffers,
/// without building or validating a tree: `inflow` receives
/// [`RoutingTree::descendant_rate_sums`] and `energy` the per-post
/// energies, both cleared first. A caller scoring many routings reuses
/// the buffers.
///
/// # Errors
///
/// [`TreeError::Cycle`] naming the lowest post whose parent pointers
/// never reach the base station, as [`RoutingTree::new`] reports it.
///
/// # Panics
///
/// Panics if `parent` has the wrong length or names a link that does not
/// exist in `instance`.
pub fn per_post_energy_into(
    instance: &Instance,
    parent: &[usize],
    inflow: &mut Vec<f64>,
    energy: &mut Vec<Energy>,
) -> Result<(), TreeError> {
    rate_sums_into(instance, parent, inflow)?;
    energy.clear();
    energy.extend(
        parent
            .iter()
            .zip(inflow.iter())
            .enumerate()
            .map(|(p, (&q, &w))| {
                let tx = instance
                    .tx_energy(p, q)
                    .expect("validated routing tree uses existing links");
                tx * (instance.report_rate(p) + w) + instance.rx_energy() * w
            }),
    );
    Ok(())
}

/// Fills `inflow` with the report rate each post forwards for its
/// descendants under `parent`, or names the lowest post whose walk
/// toward the base station loops.
fn rate_sums_into(
    instance: &Instance,
    parent: &[usize],
    inflow: &mut Vec<f64>,
) -> Result<(), TreeError> {
    let n = parent.len();
    assert_eq!(n, instance.num_posts(), "one parent per post");
    let bs = instance.bs();
    inflow.clear();
    inflow.resize(n, 0.0);
    for p in 0..n {
        let rate = instance.report_rate(p);
        let mut cur = parent[p];
        let mut hops = 0;
        while cur != bs {
            hops += 1;
            if hops > n {
                return Err(TreeError::Cycle { post: p });
            }
            inflow[cur] += rate;
            cur = parent[cur];
        }
    }
    Ok(())
}

impl fmt::Display for RoutingTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tree[")?;
        for (p, &q) in self.parent.iter().enumerate() {
            if p > 0 {
                write!(f, " ")?;
            }
            if q == self.bs {
                write!(f, "{p}->bs")?;
            } else {
                write!(f, "{p}->{q}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceBuilder;

    fn e(nj: f64) -> Energy {
        Energy::from_njoules(nj)
    }

    /// A 4-post chain-and-branch instance:
    /// 3 -> 1, 2 -> 1, 1 -> 0, 0 -> BS(4), plus shortcuts 2 -> 0.
    fn fixture() -> Instance {
        InstanceBuilder::new(4, 6)
            .rx_energy(e(2.0))
            .uplink(0, 4, e(4.0))
            .uplink(1, 0, e(4.0))
            .uplink(2, 1, e(4.0))
            .uplink(2, 0, e(16.0))
            .uplink(3, 1, e(4.0))
            .build()
            .unwrap()
    }

    #[test]
    fn valid_tree_accepted() {
        let inst = fixture();
        let t = RoutingTree::new(vec![4, 0, 1, 1], &inst).unwrap();
        assert_eq!(t.parent(2), 1);
        assert_eq!(t.bs(), 4);
        assert_eq!(t.num_posts(), 4);
    }

    #[test]
    fn wrong_length_rejected() {
        let inst = fixture();
        assert_eq!(
            RoutingTree::new(vec![4, 0], &inst),
            Err(TreeError::WrongLength {
                got: 2,
                expected: 4
            })
        );
    }

    #[test]
    fn missing_link_rejected() {
        let inst = fixture();
        assert_eq!(
            RoutingTree::new(vec![4, 0, 3, 1], &inst),
            Err(TreeError::MissingLink { from: 2, to: 3 })
        );
    }

    #[test]
    fn cycle_rejected() {
        // 1 <-> 2 cycle requires links both ways; extend the fixture idea.
        let inst = InstanceBuilder::new(3, 3)
            .uplink(0, 3, e(1.0))
            .bidi_link(1, 2, e(1.0))
            .uplink(1, 0, e(1.0))
            .build()
            .unwrap();
        assert_eq!(
            RoutingTree::new(vec![3, 2, 1], &inst),
            Err(TreeError::Cycle { post: 1 })
        );
    }

    #[test]
    fn descendant_counts_and_children() {
        let inst = fixture();
        let t = RoutingTree::new(vec![4, 0, 1, 1], &inst).unwrap();
        assert_eq!(t.descendant_counts(), vec![3, 2, 0, 0]);
        assert_eq!(t.children(1), vec![2, 3]);
        assert_eq!(t.children(4), vec![0]);
        assert!(t.children(2).is_empty());
    }

    #[test]
    fn depth_and_path() {
        let inst = fixture();
        let t = RoutingTree::new(vec![4, 0, 1, 1], &inst).unwrap();
        assert_eq!(t.depth(0), 1);
        assert_eq!(t.depth(2), 3);
        assert_eq!(t.path_to_bs(3), vec![3, 1, 0, 4]);
    }

    #[test]
    fn per_post_energy_accounts_for_forwarding() {
        let inst = fixture();
        let t = RoutingTree::new(vec![4, 0, 1, 1], &inst).unwrap();
        let energies = t.per_post_energy(&inst);
        // Post 2 (leaf): one tx of 4.
        assert_eq!(energies[2], e(4.0));
        // Post 1 (2 descendants): 3 tx of 4 + 2 rx of 2 = 16.
        assert_eq!(energies[1], e(16.0));
        // Post 0 (3 descendants): 4 tx of 4 + 3 rx of 2 = 22.
        assert_eq!(energies[0], e(22.0));
    }

    #[test]
    fn alternative_parent_changes_energy() {
        let inst = fixture();
        // Post 2 goes directly to 0 at the expensive level.
        let t = RoutingTree::new(vec![4, 0, 0, 1], &inst).unwrap();
        assert_eq!(t.per_post_energy(&inst)[2], e(16.0));
        assert_eq!(t.descendant_counts(), vec![3, 1, 0, 0]);
    }

    #[test]
    fn in_place_energy_matches_the_tree_and_reports_its_loops() {
        let inst = fixture();
        let (mut inflow, mut energy) = (vec![9.0], vec![e(9.0)]);
        for parents in [vec![4, 0, 1, 1], vec![4, 0, 0, 1]] {
            let t = RoutingTree::new(parents.clone(), &inst).unwrap();
            per_post_energy_into(&inst, &parents, &mut inflow, &mut energy).unwrap();
            assert_eq!(energy, t.per_post_energy(&inst));
            assert_eq!(inflow, t.descendant_rate_sums(&inst));
        }
        // 1 -> 2 -> 1 loops; post 3 only feeds it. Both name post 1.
        let inst = InstanceBuilder::new(4, 4)
            .uplink(0, 4, e(1.0))
            .bidi_link(1, 2, e(1.0))
            .uplink(1, 0, e(1.0))
            .uplink(3, 1, e(1.0))
            .build()
            .unwrap();
        let looping = vec![4, 2, 1, 1];
        let got = per_post_energy_into(&inst, &looping, &mut inflow, &mut energy);
        assert_eq!(got, Err(TreeError::Cycle { post: 1 }));
        assert_eq!(
            got.unwrap_err(),
            RoutingTree::new(looping, &inst).unwrap_err()
        );
    }

    #[test]
    fn display_lists_parents() {
        let inst = fixture();
        let t = RoutingTree::new(vec![4, 0, 1, 1], &inst).unwrap();
        assert_eq!(format!("{t}"), "tree[0->bs 1->0 2->1 3->1]");
    }

    #[test]
    fn tree_error_messages() {
        for err in [
            TreeError::WrongLength {
                got: 1,
                expected: 2,
            },
            TreeError::MissingLink { from: 0, to: 1 },
            TreeError::Cycle { post: 0 },
        ] {
            assert!(!format!("{err}").is_empty());
        }
    }
}
