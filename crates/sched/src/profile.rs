//! Shared per-post energy bookkeeping for the scheduling solvers.
//!
//! Every charging-scenario solver asks the same two questions about a
//! routed deployment: *how fast does each post drain* (the battery
//! deadline a charger must beat) and *how much charger output does each
//! post need* (the dwell/duty a charger must supply). [`EnergyProfile`]
//! answers both once so the tour scheduler, the placement solver, and
//! the bi-level annealer cannot drift apart on units.

use wrsn_core::{Instance, RoutingTree, ScenarioSpec};
use wrsn_energy::Energy;

/// Per-post drain rates and charger-side demands for one routed
/// deployment under one scenario.
#[derive(Debug, Clone, Default)]
pub(crate) struct EnergyProfile {
    /// Charger output power each post needs in watts: consumed power
    /// divided by the post's charging efficiency at its node count.
    pub demand_w: Vec<f64>,
    /// Battery deadline per post in seconds: how long the pooled
    /// battery lasts from full with no recharging. Infinite for posts
    /// that consume nothing.
    pub window_s: Vec<f64>,
    /// Consumed (node-side) power per post in watts.
    pub consumed_w: Vec<f64>,
}

impl EnergyProfile {
    /// Profiles `tree` routed over `counts` nodes per post.
    pub(crate) fn new(
        instance: &Instance,
        counts: &[u32],
        tree: &RoutingTree,
        spec: &ScenarioSpec,
    ) -> Self {
        let mut profile = EnergyProfile::default();
        profile.fill(instance, counts, &tree.per_post_energy(instance), spec);
        profile
    }

    /// Refills the profile in place from per-post traffic energies
    /// (`RoutingTree::per_post_energy` of the routing) over `counts`
    /// nodes per post, reusing its buffers.
    pub(crate) fn fill(
        &mut self,
        instance: &Instance,
        counts: &[u32],
        per_bit: &[Energy],
        spec: &ScenarioSpec,
    ) {
        let n = instance.num_posts();
        for buf in [&mut self.demand_w, &mut self.window_s, &mut self.consumed_w] {
            buf.clear();
            buf.reserve(n);
        }
        for p in 0..n {
            let per_round_j =
                (per_bit[p] * spec.bits_per_report as f64 + instance.sensing_energy(p)).as_joules();
            let watts = per_round_j / spec.round_interval_s;
            self.consumed_w.push(watts);
            self.demand_w
                .push(watts / instance.charge_efficiency(counts[p]));
            let pool_j = spec.battery_j * f64::from(counts[p]);
            self.window_s.push(if watts > 0.0 {
                pool_j / watts
            } else {
                f64::INFINITY
            });
        }
    }

    /// The tightest battery deadline across `posts`, in seconds.
    #[cfg(test)]
    pub(crate) fn min_window(&self, posts: &[usize]) -> f64 {
        posts
            .iter()
            .map(|&p| self.window_s[p])
            .fold(f64::INFINITY, f64::min)
    }
}
