//! Mobile-charger tour scheduling against battery deadlines.
//!
//! [`SchedTour`] deploys nodes to *balance battery deadlines* — every
//! extra node goes to the post whose pooled battery would run dry first,
//! which simultaneously stretches that post's deadline (more storage)
//! and cheapens its recharging (better `m`-node charging efficiency).
//! [`plan_tour_schedule`] then turns the routed solution into a concrete
//! charger timetable: the patrol tour is split among the fleet,
//! each route is ordered nearest-deadline-first and refined by a
//! deadline-aware 2-opt over (lateness, travel), and dwell times are
//! sized so steady-state delivery matches steady-state drain. Posts no
//! schedule can save are reported as a *minimal witness set* — drop
//! them and the rest of the timetable is feasible; re-add any one and
//! it is not.

use crate::profile::EnergyProfile;
use wrsn_core::{CostEvaluator, Instance, RoutingTree, ScenarioSpec, Solution, SolveError, Solver};
use wrsn_geom::Point;
use wrsn_sim::PatrolTour;

/// Slack applied when comparing arrival times against battery
/// deadlines, absorbing accumulated floating-point error.
const DEADLINE_EPS: f64 = 1e-9;

/// Deadline-balancing deployment solver for mobile-charger scenarios.
///
/// Where [`Idb`](wrsn_core::Idb) spends spare nodes minimizing the
/// recharging *cost*, `SchedTour` spends them maximizing the tightest
/// battery *deadline* the charger fleet must beat. The returned
/// [`Solution`] flows through the ordinary engine/cache/serve plumbing;
/// the charger timetable itself comes from [`plan_tour_schedule`].
///
/// # Examples
///
/// ```
/// use wrsn_core::{InstanceSampler, ScenarioSpec, Solver};
/// use wrsn_geom::Field;
/// use wrsn_sched::SchedTour;
///
/// let inst = InstanceSampler::new(Field::square(200.0), 8, 20).sample(3);
/// let sol = SchedTour::new(ScenarioSpec::default()).solve(&inst)?;
/// assert_eq!(sol.deployment().total(), 20);
/// # Ok::<(), wrsn_core::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedTour {
    spec: ScenarioSpec,
}

impl SchedTour {
    /// Creates the solver for one charging scenario.
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Self {
        SchedTour { spec }
    }

    /// The scenario this solver schedules against.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
}

impl Default for SchedTour {
    fn default() -> Self {
        SchedTour::new(ScenarioSpec::default())
    }
}

impl Solver for SchedTour {
    fn name(&self) -> &'static str {
        "SchedTour"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        let cap = instance
            .max_nodes_per_post()
            .unwrap_or(instance.num_nodes());
        let mut eval = CostEvaluator::from_ones(instance)?;
        for _ in 0..(instance.num_nodes() - instance.num_posts() as u32) {
            let tree = RoutingTree::new(eval.parents(), instance)
                .expect("shortest-path parents use existing links");
            let profile = EnergyProfile::new(instance, eval.counts(), &tree, &self.spec);
            // The post whose pooled battery dies first gets the node.
            let mut best: Option<(f64, usize)> = None;
            for (p, &m) in eval.counts().iter().enumerate() {
                if m >= cap {
                    continue;
                }
                let w = profile.window_s[p];
                if best.is_none_or(|(bw, _)| w < bw) {
                    best = Some((w, p));
                }
            }
            let (window, mut pick) = best.expect("cap feasibility was validated at build time");
            if window.is_infinite() {
                // Nothing drains (degenerate scenario): fall back to the
                // cost-greedy choice so spares still help the objective.
                pick = eval.cheapest_add().expect("a post below the cap exists");
            }
            eval.commit_add(pick);
        }
        Ok(eval.solution(self.name()))
    }
}

/// One mobile charger's steady-state timetable.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargerRoute {
    /// Posts in visit order.
    pub posts: Vec<usize>,
    /// First-cycle arrival time at each post in seconds (travel plus
    /// dwell at every earlier stop).
    pub arrival_s: Vec<f64>,
    /// Steady-state dwell at each post in seconds, sized so one cycle's
    /// delivery replaces one cycle's drain.
    pub dwell_s: Vec<f64>,
    /// Steady-state cycle period in seconds (travel plus all dwells).
    pub cycle_s: f64,
    /// Route travel distance in meters (depot → posts → depot).
    pub length_m: f64,
}

/// A fleet timetable over every post, plus the posts that cannot be
/// saved by any timetable.
///
/// Produced by [`plan_tour_schedule`]; consumed by the CLI (`wrsn
/// simulate --sched-tour`) and the simulator's planned-tour mode.
#[derive(Debug, Clone, PartialEq)]
pub struct TourSchedule {
    /// One timetable per mobile charger (empty routes are dropped).
    pub routes: Vec<ChargerRoute>,
    /// Battery deadline per post in seconds (infinite when the post
    /// consumes nothing).
    pub deadline_s: Vec<f64>,
    /// Minimal witness set of unsavable posts, ascending: removing them
    /// makes every route feasible, and re-adding any single one breaks
    /// its route again.
    pub infeasible: Vec<usize>,
    /// All scheduled posts, route by route in visit order — the order
    /// handed to the simulator's planned-tour mode.
    pub visit_order: Vec<usize>,
}

impl TourSchedule {
    /// Whether every post can be kept alive by this timetable.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.infeasible.is_empty()
    }
}

/// One candidate ordering of a route, scored for the 2-opt search.
struct RouteScore {
    /// Total deadline lateness across first-cycle arrivals and
    /// steady-state periods (0 when feasible).
    lateness: f64,
    /// Travel distance in meters.
    length_m: f64,
}

impl RouteScore {
    fn better_than(&self, other: &RouteScore) -> bool {
        if (self.lateness - other.lateness).abs() > DEADLINE_EPS {
            return self.lateness < other.lateness;
        }
        self.length_m + DEADLINE_EPS < other.length_m
    }
}

/// Computes the timetable for one route order without reordering it.
fn timetable(
    depot: Point,
    posts: &[Point],
    order: &[usize],
    profile: &EnergyProfile,
    spec: &ScenarioSpec,
) -> ChargerRoute {
    let mut length_m = 0.0;
    let mut prev = depot;
    let mut leg_s = Vec::with_capacity(order.len());
    for &p in order {
        let d = prev.distance(posts[p]);
        length_m += d;
        leg_s.push(d / spec.charger_speed_mps);
        prev = posts[p];
    }
    if let Some(&last) = order.last() {
        length_m += posts[last].distance(depot);
    }
    let travel_s = length_m / spec.charger_speed_mps;
    // Steady state: the charger radiates `charger_power_w` while
    // dwelling; over one cycle it must deliver cycle_s × demand_w to
    // each post. load = fraction of the cycle spent dwelling.
    let load: f64 = order
        .iter()
        .map(|&p| profile.demand_w[p] / spec.charger_power_w)
        .sum();
    let cycle_s = if load < 1.0 {
        travel_s / (1.0 - load)
    } else {
        f64::INFINITY
    };
    let dwell_s: Vec<f64> = order
        .iter()
        .map(|&p| {
            if cycle_s.is_finite() {
                profile.demand_w[p] * cycle_s / spec.charger_power_w
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut arrival_s = Vec::with_capacity(order.len());
    let mut t = 0.0;
    for (k, &leg) in leg_s.iter().enumerate() {
        t += leg;
        arrival_s.push(t);
        t += if dwell_s[k].is_finite() {
            dwell_s[k]
        } else {
            0.0
        };
    }
    ChargerRoute {
        posts: order.to_vec(),
        arrival_s,
        dwell_s,
        cycle_s,
        length_m,
    }
}

/// Total lateness of a timetable against the battery deadlines.
fn lateness(route: &ChargerRoute, profile: &EnergyProfile) -> f64 {
    let mut late = 0.0;
    for (k, &p) in route.posts.iter().enumerate() {
        let window = profile.window_s[p];
        if window.is_infinite() {
            continue;
        }
        if route.cycle_s.is_finite() {
            late += (route.arrival_s[k] - window).max(0.0);
            late += (route.cycle_s - window).max(0.0);
        } else {
            // Overloaded charger: charge the full deadline as lateness
            // so the search still prefers saving the slack posts.
            late += window;
        }
    }
    late
}

/// Posts on `route` that miss their deadline (first arrival or
/// steady-state period exceeds the battery window).
fn violations(route: &ChargerRoute, profile: &EnergyProfile) -> Vec<usize> {
    route
        .posts
        .iter()
        .enumerate()
        .filter_map(|(k, &p)| {
            let window = profile.window_s[p];
            if window.is_infinite() {
                return None;
            }
            let late = !route.cycle_s.is_finite()
                || route.arrival_s[k] > window + DEADLINE_EPS
                || route.cycle_s > window + DEADLINE_EPS;
            late.then_some(p)
        })
        .collect()
}

/// Orders `members` nearest-deadline-first, then runs a deadline-aware
/// 2-opt accepting exchanges that lexicographically reduce
/// (lateness, travel).
fn schedule_route(
    depot: Point,
    posts: &[Point],
    members: &[usize],
    profile: &EnergyProfile,
    spec: &ScenarioSpec,
) -> ChargerRoute {
    // Earliest-deadline-first start: the charger reaches fragile posts
    // before their first-cycle arrival slips past the window.
    let mut order = members.to_vec();
    order.sort_by(|&a, &b| {
        profile.window_s[a]
            .total_cmp(&profile.window_s[b])
            .then_with(|| a.cmp(&b))
    });
    let n = order.len();
    if n >= 3 {
        let score = |ord: &[usize]| {
            let route = timetable(depot, posts, ord, profile, spec);
            RouteScore {
                lateness: lateness(&route, profile),
                length_m: route.length_m,
            }
        };
        let mut best = score(&order);
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..n - 1 {
                for j in i + 1..n {
                    order[i..=j].reverse();
                    let cand = score(&order);
                    if cand.better_than(&best) {
                        best = cand;
                        improved = true;
                    } else {
                        order[i..=j].reverse();
                    }
                }
            }
        }
    }
    timetable(depot, posts, &order, profile, spec)
}

/// Plans the charger-fleet timetable for a routed solution under one
/// scenario. Returns `None` for instances without geometry (explicit
/// instances cannot be patrolled spatially).
///
/// The full patrol tour is planned and split among `spec.chargers`
/// exactly as the simulator does, so the timetable and the simulated
/// patrol agree on which charger owns which posts. Each route is then
/// scheduled independently; posts no ordering can save are removed one
/// at a time (tightest deadline first) into a witness set, which a
/// final pass shrinks to inclusion-minimality.
///
/// # Examples
///
/// ```
/// use wrsn_core::{InstanceSampler, ScenarioSpec, Solver};
/// use wrsn_geom::Field;
/// use wrsn_sched::{plan_tour_schedule, SchedTour};
///
/// let inst = InstanceSampler::new(Field::square(150.0), 6, 18).sample(1);
/// let spec = ScenarioSpec { chargers: 2, ..ScenarioSpec::default() };
/// let sol = SchedTour::new(spec.clone()).solve(&inst)?;
/// let schedule = plan_tour_schedule(&inst, &sol, &spec).expect("geometric");
/// assert!(schedule.routes.len() <= 2);
/// # Ok::<(), wrsn_core::SolveError>(())
/// ```
#[must_use]
pub fn plan_tour_schedule(
    instance: &Instance,
    solution: &Solution,
    spec: &ScenarioSpec,
) -> Option<TourSchedule> {
    let geo = instance.geometry()?;
    let profile = EnergyProfile::new(
        instance,
        solution.deployment().counts(),
        solution.tree(),
        spec,
    );
    let index_of = |pt: Point, used: &mut [bool]| -> usize {
        let p = geo
            .posts
            .iter()
            .enumerate()
            .position(|(i, p)| {
                !used[i] && p.x.to_bits() == pt.x.to_bits() && p.y.to_bits() == pt.y.to_bits()
            })
            .expect("tour stops are instance posts");
        used[p] = true;
        p
    };
    let full = PatrolTour::plan(geo.base_station, geo.posts.clone());
    let mut used = vec![false; geo.posts.len()];
    let mut routes = Vec::new();
    let mut infeasible = Vec::new();
    for sub in full.split(spec.chargers as usize) {
        let members: Vec<usize> = sub
            .stops_in_order()
            .into_iter()
            .map(|pt| index_of(pt, &mut used))
            .collect();
        // Peel off unsavable posts, tightest deadline first, until the
        // remaining route schedules cleanly.
        let mut active = members;
        let mut dropped: Vec<usize> = Vec::new();
        let mut route = schedule_route(geo.base_station, &geo.posts, &active, &profile, spec);
        loop {
            let bad = violations(&route, &profile);
            if bad.is_empty() {
                break;
            }
            let worst = bad
                .into_iter()
                .min_by(|&a, &b| {
                    profile.window_s[a]
                        .total_cmp(&profile.window_s[b])
                        .then_with(|| a.cmp(&b))
                })
                .expect("non-empty violation set");
            active.retain(|&p| p != worst);
            dropped.push(worst);
            route = schedule_route(geo.base_station, &geo.posts, &active, &profile, spec);
        }
        // Minimality: re-admit any dropped post the final route can in
        // fact absorb (peeling order is greedy, not clairvoyant).
        dropped.sort_unstable();
        for &p in &dropped {
            let mut trial = active.clone();
            trial.push(p);
            let cand = schedule_route(geo.base_station, &geo.posts, &trial, &profile, spec);
            if violations(&cand, &profile).is_empty() {
                active = trial;
                route = cand;
            } else {
                infeasible.push(p);
            }
        }
        if !route.posts.is_empty() {
            routes.push(route);
        }
    }
    infeasible.sort_unstable();
    let visit_order = routes.iter().flat_map(|r| r.posts.clone()).collect();
    Some(TourSchedule {
        routes,
        deadline_s: profile.window_s,
        infeasible,
        visit_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_core::{Idb, InstanceBuilder, InstanceSampler};
    use wrsn_energy::Energy;
    use wrsn_geom::Field;

    fn relaxed_spec() -> ScenarioSpec {
        // Generous batteries and a fast charger: everything feasible.
        ScenarioSpec {
            battery_j: 100.0,
            charger_speed_mps: 20.0,
            charger_power_w: 50.0,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn solves_with_exact_budget_and_valid_deployment() {
        let inst = InstanceSampler::new(Field::square(200.0), 8, 20).sample(3);
        let sol = SchedTour::default().solve(&inst).unwrap();
        assert!(sol.deployment().is_valid_for(&inst));
        assert_eq!(sol.deployment().total(), 20);
        assert_eq!(sol.algorithm(), "SchedTour");
    }

    #[test]
    fn deadline_balancing_widens_the_worst_window() {
        let inst = InstanceSampler::new(Field::square(250.0), 10, 30).sample(7);
        let spec = ScenarioSpec::default();
        let sched = SchedTour::new(spec.clone()).solve(&inst).unwrap();
        let idb = Idb::new(1).solve(&inst).unwrap();
        let min_window = |sol: &Solution| {
            let profile = EnergyProfile::new(&inst, sol.deployment().counts(), sol.tree(), &spec);
            profile.min_window(&(0..10).collect::<Vec<_>>())
        };
        // Spending spares on deadlines must not lose to the cost-greedy
        // allocation on its own objective.
        assert!(min_window(&sched) >= min_window(&idb) * 0.999);
    }

    #[test]
    fn respects_cap() {
        let inst = InstanceSampler::new(Field::square(150.0), 4, 8)
            .max_nodes_per_post(2)
            .sample(2);
        let sol = SchedTour::default().solve(&inst).unwrap();
        assert_eq!(sol.deployment().counts(), &[2, 2, 2, 2]);
    }

    #[test]
    fn schedule_is_none_without_geometry() {
        let e = Energy::from_njoules(4.0);
        let inst = InstanceBuilder::new(2, 4)
            .uplink(0, 2, e)
            .uplink(1, 0, e)
            .build()
            .unwrap();
        let sol = SchedTour::default().solve(&inst).unwrap();
        assert!(plan_tour_schedule(&inst, &sol, &ScenarioSpec::default()).is_none());
    }

    #[test]
    fn relaxed_scenario_schedules_every_post_feasibly() {
        let inst = InstanceSampler::new(Field::square(200.0), 10, 25).sample(5);
        let spec = relaxed_spec();
        let sol = SchedTour::new(spec.clone()).solve(&inst).unwrap();
        let schedule = plan_tour_schedule(&inst, &sol, &spec).unwrap();
        assert!(schedule.is_feasible(), "{:?}", schedule.infeasible);
        let mut seen: Vec<usize> = schedule.visit_order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for route in &schedule.routes {
            assert!(route.cycle_s.is_finite());
            assert_eq!(route.posts.len(), route.arrival_s.len());
            assert_eq!(route.posts.len(), route.dwell_s.len());
            // Arrivals are ordered and fit inside one cycle.
            let mut last = 0.0;
            for (&a, &d) in route.arrival_s.iter().zip(&route.dwell_s) {
                assert!(a >= last);
                last = a + d;
            }
            assert!(route.cycle_s + 1e-9 >= last);
        }
    }

    #[test]
    fn dwell_times_replace_one_cycle_of_drain() {
        let inst = InstanceSampler::new(Field::square(150.0), 6, 15).sample(9);
        let spec = relaxed_spec();
        let sol = SchedTour::new(spec.clone()).solve(&inst).unwrap();
        let schedule = plan_tour_schedule(&inst, &sol, &spec).unwrap();
        let profile = EnergyProfile::new(&inst, sol.deployment().counts(), sol.tree(), &spec);
        for route in &schedule.routes {
            for (k, &p) in route.posts.iter().enumerate() {
                let delivered = route.dwell_s[k] * spec.charger_power_w;
                let drained = profile.demand_w[p] * route.cycle_s;
                assert!(
                    (delivered - drained).abs() <= 1e-6 * drained.max(1e-12),
                    "post {p}: delivered {delivered} vs drained {drained}"
                );
            }
        }
    }

    #[test]
    fn starved_scenario_reports_a_minimal_witness_set() {
        // Tiny batteries and a crawling charger: some posts must fail.
        let inst = InstanceSampler::new(Field::square(300.0), 12, 24).sample(11);
        let spec = ScenarioSpec {
            battery_j: 0.002,
            charger_speed_mps: 0.3,
            charger_power_w: 1.0,
            ..ScenarioSpec::default()
        };
        let sol = SchedTour::new(spec.clone()).solve(&inst).unwrap();
        let schedule = plan_tour_schedule(&inst, &sol, &spec).unwrap();
        assert!(!schedule.is_feasible(), "expected an infeasible scenario");
        // Witnesses are sorted, unique, and absent from every route.
        let w = &schedule.infeasible;
        assert!(w.windows(2).all(|ab| ab[0] < ab[1]));
        for route in &schedule.routes {
            for p in &route.posts {
                assert!(!w.contains(p));
            }
        }
        // Scheduled + witnesses cover every post exactly once.
        let mut all: Vec<usize> = schedule.visit_order.clone();
        all.extend(w.iter().copied());
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        // Remaining routes are feasible (windows hold).
        let profile = EnergyProfile::new(&inst, sol.deployment().counts(), sol.tree(), &spec);
        for route in &schedule.routes {
            assert!(violations(route, &profile).is_empty());
        }
    }

    #[test]
    fn more_chargers_never_hurt_feasibility() {
        let inst = InstanceSampler::new(Field::square(300.0), 10, 20).sample(4);
        let base = ScenarioSpec {
            battery_j: 0.02,
            charger_speed_mps: 2.0,
            ..ScenarioSpec::default()
        };
        let sol = SchedTour::new(base.clone()).solve(&inst).unwrap();
        let mut last = usize::MAX;
        for chargers in [1u32, 2, 4] {
            let spec = ScenarioSpec {
                chargers,
                ..base.clone()
            };
            let schedule = plan_tour_schedule(&inst, &sol, &spec).unwrap();
            assert!(
                schedule.infeasible.len() <= last,
                "{chargers} chargers left {} witnesses, previous fleet left {last}",
                schedule.infeasible.len()
            );
            last = schedule.infeasible.len();
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let inst = InstanceSampler::new(Field::square(250.0), 9, 18).sample(6);
        let spec = ScenarioSpec {
            chargers: 2,
            ..ScenarioSpec::default()
        };
        let sol = SchedTour::new(spec.clone()).solve(&inst).unwrap();
        let a = plan_tour_schedule(&inst, &sol, &spec).unwrap();
        let b = plan_tour_schedule(&inst, &sol, &spec).unwrap();
        assert_eq!(a, b);
    }
}
