//! Random-instance sampling for experiments.

use crate::instance::{check_budget, LinkScan};
use crate::{ChargeSpec, GeometricInstanceBuilder, Instance};
use std::fmt;
use wrsn_energy::{RadioParams, TxLevels};
use wrsn_geom::{Field, Point};

/// Draws random connected instances in the paper's evaluation style:
/// posts uniform in a square field, base station at the lower-left
/// corner.
///
/// Uniform placement can strand a post beyond `d_max` of every potential
/// relay, which makes the instance unroutable; the paper's setup silently
/// assumes connectivity. `sample` makes that explicit by redrawing from
/// seed-derived sub-seeds until the connectivity validation passes, so a
/// given `(sampler, seed)` pair is still fully deterministic.
///
/// Each draw's connectivity is decided on the post coordinates alone: a
/// search from the base station joins two nodes by the link rule's own
/// squared-distance test, over the posts sorted by x in buffers reused
/// from draw to draw. A rejected draw builds no link list, takes no
/// square root, looks up no level and allocates nothing beyond its
/// coordinates; only the accepted draw builds links, over the same
/// sorted scan, and so is the instance
/// [`GeometricInstanceBuilder::build`] gives for the same posts.
///
/// The check costs one sort plus, per reached node, a scan of the
/// nodes within `d_max` of it in x. On a 2-vCPU VM a draw takes ≈0.4,
/// ≈1.1, ≈14 and ≈370 µs at 8, 20, 100 and 1 000 posts (fields of 200,
/// 300, 500 and 1 000 m), against ≈3.9, ≈9.6, ≈70 and ≈1 500 µs for a
/// grid-indexed link list and its search. A search over all pairs is
/// ≈0.2 and ≈0.4 µs cheaper at 8 and 20 posts but ≈1.2× dearer at 100
/// and ≈4× at 1 000, so the sorted scan serves every size from one
/// code path.
///
/// # Examples
///
/// ```
/// use wrsn_core::InstanceSampler;
/// use wrsn_geom::Field;
///
/// let sampler = InstanceSampler::new(Field::square(500.0), 100, 400);
/// let a = sampler.sample(7);
/// let b = sampler.sample(7);
/// assert_eq!(a, b);
/// assert_eq!(a.num_posts(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct InstanceSampler {
    field: Field,
    num_posts: usize,
    num_nodes: u32,
    levels: TxLevels,
    radio: RadioParams,
    charge: ChargeSpec,
    max_nodes_per_post: Option<u32>,
}

impl InstanceSampler {
    /// Creates a sampler with the paper's default radio, levels, and
    /// normalized charging model.
    #[must_use]
    pub fn new(field: Field, num_posts: usize, num_nodes: u32) -> Self {
        InstanceSampler {
            field,
            num_posts,
            num_nodes,
            levels: TxLevels::icdcs2010(),
            radio: RadioParams::icdcs2010(),
            charge: ChargeSpec::normalized(),
            max_nodes_per_post: None,
        }
    }

    /// Sets the transmission level set.
    #[must_use]
    pub fn levels(mut self, levels: TxLevels) -> Self {
        self.levels = levels;
        self
    }

    /// Sets the radio model.
    #[must_use]
    pub fn radio(mut self, radio: RadioParams) -> Self {
        self.radio = radio;
        self
    }

    /// Sets the charging model.
    #[must_use]
    pub fn charge(mut self, charge: ChargeSpec) -> Self {
        self.charge = charge;
        self
    }

    /// Caps the nodes deployable per post.
    #[must_use]
    pub fn max_nodes_per_post(mut self, cap: u32) -> Self {
        self.max_nodes_per_post = Some(cap);
        self
    }

    /// Draws the instance for `seed`, redrawing post sets (from sub-seeds
    /// derived deterministically from `seed`) until one is connected.
    ///
    /// # Panics
    ///
    /// Panics if the node budget or cap is infeasible for the post count,
    /// or if no connected layout is found within 10 000 redraws — at the
    /// paper's densities a redraw is rarely needed even once. Use
    /// [`try_sample`](InstanceSampler::try_sample) when the configuration
    /// comes from user input rather than experiment code.
    #[must_use]
    pub fn sample(&self, seed: u64) -> Instance {
        match self.try_sample(seed) {
            Ok(inst) => inst,
            Err(e @ crate::BuildError::Disconnected { .. }) => panic!(
                "no connected layout for {} posts in {} within 10000 redraws: {e}",
                self.num_posts, self.field
            ),
            Err(e) => panic!("sampler configuration is infeasible: {e}"),
        }
    }

    /// Fallible variant of [`sample`](InstanceSampler::sample) for
    /// configurations coming from user input (e.g. CLI flags).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`BuildError`](crate::BuildError) when the
    /// node budget or cap is infeasible for the post count, or the last
    /// `Disconnected` error when no connected layout is found within
    /// 10 000 redraws.
    pub fn try_sample(&self, seed: u64) -> Result<Instance, crate::BuildError> {
        // A configuration error fails the first draw, before connectivity.
        check_budget(self.num_posts, self.num_nodes, self.max_nodes_per_post)?;
        let mut scan = LinkScan::default();
        for attempt in 0..10_000u64 {
            let sub_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(attempt);
            let posts = self.field.random_posts(self.num_posts, sub_seed);
            scan.load(&posts, Point::ORIGIN, self.levels.max_range());
            if scan.stranded() == 0 {
                let mut builder = GeometricInstanceBuilder::new(posts, self.num_nodes)
                    .levels(self.levels.clone())
                    .radio(self.radio)
                    .charge(self.charge.clone());
                if let Some(cap) = self.max_nodes_per_post {
                    builder = builder.max_nodes_per_post(cap);
                }
                return builder.build_from_scan(&scan);
            }
        }
        Err(crate::BuildError::Disconnected {
            unreachable: scan.unreachable(),
        })
    }
}

impl fmt::Display for InstanceSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sampler({}, N={}, M={})",
            self.field, self.num_posts, self.num_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::reference;
    use crate::BuildError;

    #[test]
    fn samples_are_deterministic_and_connected() {
        let s = InstanceSampler::new(Field::square(500.0), 100, 400);
        let a = s.sample(11);
        assert_eq!(a, s.sample(11));
        assert!(a.energy_digraph().all_reach(a.bs()));
    }

    #[test]
    fn different_seeds_differ() {
        let s = InstanceSampler::new(Field::square(300.0), 20, 40);
        assert_ne!(s.sample(1), s.sample(2));
    }

    #[test]
    fn sparse_layouts_eventually_connect() {
        // 10 posts in 300x300 with d_max = 75 is frequently disconnected;
        // the sampler must still deliver.
        let s = InstanceSampler::new(Field::square(300.0), 10, 20);
        for seed in 0..5 {
            let inst = s.sample(seed);
            assert!(inst.energy_digraph().all_reach(inst.bs()));
        }
    }

    #[test]
    fn options_propagate() {
        let s = InstanceSampler::new(Field::square(200.0), 8, 16)
            .levels(TxLevels::evenly_spaced(6, 25.0))
            .max_nodes_per_post(3)
            .charge(ChargeSpec::linear(0.01));
        let inst = s.sample(3);
        assert_eq!(inst.max_nodes_per_post(), Some(3));
        assert!((inst.charge().eta() - 0.01).abs() < 1e-12);
        assert_eq!(
            inst.geometry().unwrap().levels.ranges(),
            &[25.0, 50.0, 75.0, 100.0, 125.0, 150.0]
        );
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_budget_panics() {
        let s = InstanceSampler::new(Field::square(200.0), 5, 3);
        let _ = s.sample(0);
    }

    #[test]
    fn try_sample_reports_infeasible_budget_instead_of_panicking() {
        let s = InstanceSampler::new(Field::square(200.0), 5, 3);
        assert!(s.try_sample(0).is_err());
    }

    /// The draw loop as it ran before connectivity moved onto the
    /// coordinates: each draw's link list from a grid index, a search
    /// over that list, and the accepted draw priced and validated.
    fn reference_sample(s: &InstanceSampler, seed: u64) -> Result<Instance, BuildError> {
        check_budget(s.num_posts, s.num_nodes, s.max_nodes_per_post)?;
        let mut unreachable = Vec::new();
        for attempt in 0..10_000u64 {
            let sub_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(attempt);
            let posts = s.field.random_posts(s.num_posts, sub_seed);
            let mut builder = GeometricInstanceBuilder::new(posts, s.num_nodes)
                .levels(s.levels.clone())
                .radio(s.radio)
                .charge(s.charge.clone());
            if let Some(cap) = s.max_nodes_per_post {
                builder = builder.max_nodes_per_post(cap);
            }
            let links = reference::links(&builder);
            unreachable = reference::unreachable_posts(s.num_posts, &links);
            if unreachable.is_empty() {
                return reference::build(builder);
            }
        }
        Err(BuildError::Disconnected { unreachable })
    }

    #[test]
    fn try_sample_equals_the_link_list_loop() {
        // The benchmark's sweep sizes, a mid-size one and Fig. 10's.
        for (posts, nodes, field) in [
            (8, 30, 200.0),
            (20, 60, 300.0),
            (50, 200, 350.0),
            (100, 400, 500.0),
            (200, 600, 500.0),
        ] {
            let s = InstanceSampler::new(Field::square(field), posts, nodes);
            for seed in 0..200 {
                assert_eq!(
                    s.try_sample(seed),
                    reference_sample(&s, seed),
                    "{posts} posts, {nodes} nodes, {field} m, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn never_connected_config_reports_the_last_draws_unreachable_posts() {
        // A 10 m range in a 100 m field: some draws link a few posts, no
        // draw links them all.
        let s = InstanceSampler::new(Field::square(100.0), 6, 12)
            .levels(TxLevels::evenly_spaced(1, 10.0));
        for seed in 0..2 {
            let got = s.try_sample(seed);
            assert!(
                matches!(got, Err(BuildError::Disconnected { .. })),
                "{got:?}"
            );
            assert_eq!(got, reference_sample(&s, seed));
        }
    }

    #[test]
    fn configuration_errors_win_over_disconnection() {
        // A field far too sparse to ever connect: the budget error must
        // come from the first draw, as it always did.
        let sparse = Field::square(2000.0);
        assert!(matches!(
            InstanceSampler::new(sparse, 10, 20).try_sample(0),
            Err(BuildError::Disconnected { .. })
        ));
        let too_few = InstanceSampler::new(sparse, 10, 5);
        assert_eq!(
            too_few.try_sample(0),
            Err(BuildError::TooFewNodes {
                nodes: 5,
                posts: 10
            })
        );
        assert_eq!(too_few.try_sample(0), reference_sample(&too_few, 0));
        let capped = InstanceSampler::new(sparse, 10, 100).max_nodes_per_post(5);
        assert_eq!(
            capped.try_sample(0),
            Err(BuildError::CapacityTooSmall {
                nodes: 100,
                capacity: 50
            })
        );
        assert_eq!(capped.try_sample(0), reference_sample(&capped, 0));
    }

    #[test]
    fn try_sample_matches_sample_on_feasible_configs() {
        let s = InstanceSampler::new(Field::square(300.0), 20, 40);
        assert_eq!(s.try_sample(4).unwrap(), s.sample(4));
    }
}
