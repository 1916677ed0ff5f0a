//! Static RF-charger placement with duty-cycle guarantees.
//!
//! A fixed budget of RF chargers is installed on a candidate lattice
//! over the field; each post then harvests power from every installed
//! charger under an inverse-square path-loss model scaled by the post's
//! `m`-node charging efficiency (the paper's central gain curve). The
//! solver picks sites by greedy max-coverage of a per-post duty-cycle
//! target, polishes the pick with swap local search, and spends spare
//! sensor nodes on the posts whose duty cycle is worst.

use crate::profile::EnergyProfile;
use wrsn_core::{
    CostEvaluator, Geometry, Instance, RoutingTree, ScenarioSpec, Solution, SolveError, Solver,
};
use wrsn_geom::Point;

/// The `site_grid × site_grid` candidate-site lattice: cell centers of
/// a uniform grid over the bounding box of the posts and the base
/// station.
///
/// # Examples
///
/// ```
/// use wrsn_core::InstanceSampler;
/// use wrsn_geom::Field;
/// use wrsn_sched::candidate_sites;
///
/// let inst = InstanceSampler::new(Field::square(100.0), 6, 6).sample(1);
/// let sites = candidate_sites(inst.geometry().unwrap(), 4);
/// assert_eq!(sites.len(), 16);
/// ```
#[must_use]
pub fn candidate_sites(geometry: &Geometry, grid: usize) -> Vec<Point> {
    let mut min_x = geometry.base_station.x;
    let mut max_x = geometry.base_station.x;
    let mut min_y = geometry.base_station.y;
    let mut max_y = geometry.base_station.y;
    for p in &geometry.posts {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let (w, h) = (max_x - min_x, max_y - min_y);
    let mut sites = Vec::with_capacity(grid * grid);
    for gy in 0..grid {
        for gx in 0..grid {
            sites.push(Point::new(
                min_x + (gx as f64 + 0.5) * w / grid as f64,
                min_y + (gy as f64 + 0.5) * h / grid as f64,
            ));
        }
    }
    sites
}

/// Raw radiated power (watts) a post at distance `d_m` receives from one
/// RF charger, before the post's charging efficiency is applied:
/// `rf_power_w / (1 + (d / rf_range_m)²)` — full power up close, half
/// power at `rf_range_m`, inverse-square beyond.
fn site_power_w(site: Point, post: Point, spec: &ScenarioSpec) -> f64 {
    let ratio = site.distance(post) / spec.rf_range_m;
    spec.rf_power_w / (1.0 + ratio * ratio)
}

/// Greedy max-coverage site selection plus swap local search.
///
/// `raw[c][p]` holds the pre-efficiency power post `p` receives from
/// candidate `c`; the objective credits each post up to
/// `min(duty_target, eff_p · Σ raw / required_w_p)` so power beyond the
/// target is spent elsewhere.
fn choose_sites(
    raw: &[Vec<f64>],
    eff: &[f64],
    required_w: &[f64],
    spec: &ScenarioSpec,
) -> Vec<usize> {
    let n = required_w.len();
    let budget = (spec.charger_budget as usize).min(raw.len());
    let duty_credit = |p: usize, raw_sum: f64| -> f64 {
        if required_w[p] <= 0.0 {
            spec.duty_target
        } else {
            (eff[p] * raw_sum / required_w[p]).min(spec.duty_target)
        }
    };
    let objective = |raw_sum: &[f64]| -> f64 { (0..n).map(|p| duty_credit(p, raw_sum[p])).sum() };
    let mut chosen: Vec<usize> = Vec::with_capacity(budget);
    let mut raw_sum = vec![0.0; n];
    for _ in 0..budget {
        let mut best: Option<(f64, usize)> = None;
        for (c, row) in raw.iter().enumerate() {
            if chosen.contains(&c) {
                continue;
            }
            let gain: f64 = (0..n)
                .map(|p| duty_credit(p, raw_sum[p] + row[p]) - duty_credit(p, raw_sum[p]))
                .sum();
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, c));
            }
        }
        let (_, c) = best.expect("budget never exceeds the candidate count");
        chosen.push(c);
        for p in 0..n {
            raw_sum[p] += raw[c][p];
        }
    }
    // First-improvement swap search: trade an installed site for a free
    // one whenever coverage strictly improves.
    let mut score = objective(&raw_sum);
    let mut improved = true;
    while improved {
        improved = false;
        'swap: for i in 0..chosen.len() {
            for (c, row) in raw.iter().enumerate() {
                if chosen.contains(&c) {
                    continue;
                }
                let out = chosen[i];
                for p in 0..n {
                    raw_sum[p] += row[p] - raw[out][p];
                }
                let cand = objective(&raw_sum);
                if cand > score + 1e-12 {
                    chosen[i] = c;
                    score = cand;
                    improved = true;
                    continue 'swap;
                }
                for p in 0..n {
                    raw_sum[p] -= row[p] - raw[out][p];
                }
            }
        }
    }
    chosen
}

/// RF-charger placement solver.
///
/// Installs `charger_budget` static RF chargers from the candidate
/// lattice, then spends spare sensor nodes on the posts with the worst
/// resulting duty cycle (each node improves both storage and the
/// `m`-node charging gain). On instances without geometry it degrades
/// to a pure cost-greedy allocation, so the solver is total over every
/// instance the registry can be handed. The installed sites themselves
/// come from [`plan_placement`].
///
/// # Examples
///
/// ```
/// use wrsn_core::{InstanceSampler, ScenarioSpec, Solver};
/// use wrsn_geom::Field;
/// use wrsn_sched::{plan_placement, SchedPlace};
///
/// let inst = InstanceSampler::new(Field::square(200.0), 8, 20).sample(2);
/// let spec = ScenarioSpec::default();
/// let sol = SchedPlace::new(spec.clone()).solve(&inst)?;
/// let plan = plan_placement(&inst, &sol, &spec).expect("geometric");
/// assert!(plan.sites.len() <= spec.charger_budget as usize);
/// # Ok::<(), wrsn_core::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedPlace {
    spec: ScenarioSpec,
}

impl SchedPlace {
    /// Creates the solver for one charging scenario.
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Self {
        SchedPlace { spec }
    }

    /// The scenario this solver places chargers for.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
}

impl Default for SchedPlace {
    fn default() -> Self {
        SchedPlace::new(ScenarioSpec::default())
    }
}

impl Solver for SchedPlace {
    fn name(&self) -> &'static str {
        "SchedPlace"
    }

    #[allow(clippy::needless_range_loop)] // scans every post index
    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        let mut eval = CostEvaluator::from_ones(instance)?;
        let Some(geo) = instance.geometry() else {
            // No sites to place: a pure cost-greedy allocation.
            eval.greedy_fill();
            return Ok(eval.solution(self.name()));
        };
        let n = instance.num_posts();
        let cap = instance
            .max_nodes_per_post()
            .unwrap_or(instance.num_nodes());
        // Required power per post under the one-node routing; the site
        // pick keys off this fixed baseline so placement and allocation
        // cannot chase each other.
        let tree = RoutingTree::new(eval.parents(), instance)
            .expect("shortest-path parents use existing links");
        let profile = EnergyProfile::new(instance, eval.counts(), &tree, &self.spec);
        let candidates = candidate_sites(geo, self.spec.site_grid);
        let raw: Vec<Vec<f64>> = candidates
            .iter()
            .map(|&s| {
                geo.posts
                    .iter()
                    .map(|&p| site_power_w(s, p, &self.spec))
                    .collect()
            })
            .collect();
        let eff1: Vec<f64> = (0..n).map(|_| instance.charge_efficiency(1)).collect();
        let chosen = choose_sites(&raw, &eff1, &profile.consumed_w, &self.spec);
        let mut raw_sum = vec![0.0; n];
        for &c in &chosen {
            for p in 0..n {
                raw_sum[p] += raw[c][p];
            }
        }
        // Spend spare nodes on the worst duty cycle; every node at `p`
        // lifts its harvest through the m-node charging gain.
        let duty = |p: usize, m: u32| -> f64 {
            if profile.consumed_w[p] <= 0.0 {
                f64::INFINITY
            } else {
                instance.charge_efficiency(m) * raw_sum[p] / profile.consumed_w[p]
            }
        };
        for _ in 0..(instance.num_nodes() - n as u32) {
            let mut best: Option<(f64, usize)> = None;
            for (p, &m) in eval.counts().iter().enumerate() {
                if m >= cap {
                    continue;
                }
                let d = duty(p, m);
                if best.is_none_or(|(b, _)| d < b) {
                    best = Some((d, p));
                }
            }
            let (d, mut pick) = best.expect("cap feasibility was validated at build time");
            if d.is_infinite() {
                // No post consumes anything: fall back to cost-greedy so
                // the spares still buy objective value.
                pick = eval.cheapest_add().expect("a post below the cap exists");
            }
            eval.commit_add(pick);
        }
        Ok(eval.solution(self.name()))
    }
}

/// The installed RF-charger sites and the duty cycle they buy each post.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Installed charger locations (at most `charger_budget`).
    pub sites: Vec<Point>,
    /// Achieved duty cycle per post: received power over required
    /// power, capped at 1. Posts that consume nothing report 1.
    pub duty: Vec<f64>,
    /// Posts whose duty cycle meets the scenario's target.
    pub covered: usize,
    /// The scenario's duty-cycle target, echoed for reports.
    pub target: f64,
}

/// Places RF chargers for a routed solution under one scenario.
/// Returns `None` for instances without geometry.
///
/// Unlike the pick embedded in [`SchedPlace::solve`] (which works from
/// the one-node baseline it is about to improve), this plans against
/// the *final* deployment and routing, so the reported duty cycles are
/// the ones the installed network actually gets.
#[must_use]
pub fn plan_placement(
    instance: &Instance,
    solution: &Solution,
    spec: &ScenarioSpec,
) -> Option<PlacementPlan> {
    let geo = instance.geometry()?;
    let n = instance.num_posts();
    let counts = solution.deployment().counts();
    let profile = EnergyProfile::new(instance, counts, solution.tree(), spec);
    let candidates = candidate_sites(geo, spec.site_grid);
    let raw: Vec<Vec<f64>> = candidates
        .iter()
        .map(|&s| {
            geo.posts
                .iter()
                .map(|&p| site_power_w(s, p, spec))
                .collect()
        })
        .collect();
    let eff: Vec<f64> = counts
        .iter()
        .map(|&m| instance.charge_efficiency(m))
        .collect();
    let chosen = choose_sites(&raw, &eff, &profile.consumed_w, spec);
    let mut duty = vec![0.0; n];
    for p in 0..n {
        if profile.consumed_w[p] <= 0.0 {
            duty[p] = 1.0;
            continue;
        }
        let raw_sum: f64 = chosen.iter().map(|&c| raw[c][p]).sum();
        duty[p] = (eff[p] * raw_sum / profile.consumed_w[p]).min(1.0);
    }
    let covered = duty
        .iter()
        .filter(|&&d| d + 1e-12 >= spec.duty_target)
        .count();
    Some(PlacementPlan {
        sites: chosen.into_iter().map(|c| candidates[c]).collect(),
        duty,
        covered,
        target: spec.duty_target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_core::{InstanceBuilder, InstanceSampler};
    use wrsn_energy::Energy;
    use wrsn_geom::Field;

    #[test]
    fn solves_with_exact_budget_and_valid_deployment() {
        let inst = InstanceSampler::new(Field::square(200.0), 8, 20).sample(4);
        let sol = SchedPlace::default().solve(&inst).unwrap();
        assert!(sol.deployment().is_valid_for(&inst));
        assert_eq!(sol.deployment().total(), 20);
        assert_eq!(sol.algorithm(), "SchedPlace");
    }

    #[test]
    fn respects_cap() {
        let inst = InstanceSampler::new(Field::square(150.0), 4, 8)
            .max_nodes_per_post(2)
            .sample(2);
        let sol = SchedPlace::default().solve(&inst).unwrap();
        assert_eq!(sol.deployment().counts(), &[2, 2, 2, 2]);
    }

    #[test]
    fn explicit_instances_fall_back_to_cost_greedy() {
        let e = Energy::from_njoules(4.0);
        let inst = InstanceBuilder::new(2, 5)
            .rx_energy(Energy::from_njoules(2.0))
            .uplink(0, 2, e)
            .uplink(1, 0, e)
            .build()
            .unwrap();
        let sol = SchedPlace::default().solve(&inst).unwrap();
        assert_eq!(sol.deployment().total(), 5);
        // The relay carries double traffic, so the cost-greedy fallback
        // reinforces it — same behavior IDB(1) exhibits.
        assert!(sol.deployment().count(0) > sol.deployment().count(1));
        assert!(plan_placement(&inst, &sol, &ScenarioSpec::default()).is_none());
    }

    #[test]
    fn lattice_covers_the_bounding_box() {
        let inst = InstanceSampler::new(Field::square(300.0), 10, 10).sample(8);
        let geo = inst.geometry().unwrap();
        let sites = candidate_sites(geo, 5);
        assert_eq!(sites.len(), 25);
        let min_x = geo
            .posts
            .iter()
            .map(|p| p.x)
            .fold(geo.base_station.x, f64::min);
        let max_x = geo
            .posts
            .iter()
            .map(|p| p.x)
            .fold(geo.base_station.x, f64::max);
        for s in &sites {
            assert!(s.x > min_x && s.x < max_x);
            assert!(s.is_finite());
        }
    }

    #[test]
    fn plan_respects_budget_and_duty_bounds() {
        let inst = InstanceSampler::new(Field::square(250.0), 12, 24).sample(3);
        let spec = ScenarioSpec::default();
        let sol = SchedPlace::new(spec.clone()).solve(&inst).unwrap();
        let plan = plan_placement(&inst, &sol, &spec).unwrap();
        assert!(plan.sites.len() <= spec.charger_budget as usize);
        assert!(!plan.sites.is_empty());
        assert_eq!(plan.duty.len(), 12);
        assert!(plan.duty.iter().all(|&d| (0.0..=1.0).contains(&d)));
        assert_eq!(
            plan.covered,
            plan.duty
                .iter()
                .filter(|&&d| d + 1e-12 >= plan.target)
                .count()
        );
        assert_eq!(plan.target, spec.duty_target);
    }

    #[test]
    fn overwhelming_rf_power_covers_every_post() {
        let inst = InstanceSampler::new(Field::square(200.0), 8, 16).sample(5);
        let spec = ScenarioSpec {
            rf_power_w: 1e9,
            ..ScenarioSpec::default()
        };
        let sol = SchedPlace::new(spec.clone()).solve(&inst).unwrap();
        let plan = plan_placement(&inst, &sol, &spec).unwrap();
        assert_eq!(plan.covered, 8);
    }

    #[test]
    fn bigger_budgets_never_reduce_coverage_credit() {
        let inst = InstanceSampler::new(Field::square(300.0), 10, 20).sample(6);
        let credit = |budget: u32| {
            let spec = ScenarioSpec {
                charger_budget: budget,
                rf_power_w: 20.0,
                ..ScenarioSpec::default()
            };
            let sol = SchedPlace::new(spec.clone()).solve(&inst).unwrap();
            let plan = plan_placement(&inst, &sol, &spec).unwrap();
            plan.duty
                .iter()
                .map(|&d| d.min(spec.duty_target))
                .sum::<f64>()
        };
        let one = credit(1);
        let four = credit(4);
        let nine = credit(9);
        assert!(four + 1e-9 >= one, "{four} vs {one}");
        assert!(nine + 1e-9 >= four, "{nine} vs {four}");
    }

    #[test]
    fn placement_is_deterministic() {
        let inst = InstanceSampler::new(Field::square(250.0), 9, 18).sample(7);
        let spec = ScenarioSpec::default();
        let a = SchedPlace::new(spec.clone()).solve(&inst).unwrap();
        let b = SchedPlace::new(spec.clone()).solve(&inst).unwrap();
        assert_eq!(a.deployment().counts(), b.deployment().counts());
        assert_eq!(
            plan_placement(&inst, &a, &spec),
            plan_placement(&inst, &b, &spec)
        );
    }
}
