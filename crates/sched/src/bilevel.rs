//! Bi-level deploy-then-schedule metaheuristic.
//!
//! The outer level searches deployments with simulated annealing; the
//! inner level evaluates each candidate by optimally routing it (the
//! paper's objective) *and* by the steady-state feasibility of the
//! charging schedule a mobile-charger fleet could run over it. The
//! combined objective `cost × (1 + infeasible_fraction)` pulls the
//! anneal toward deployments that are cheap to recharge *and*
//! physically serviceable before batteries run dry.

use crate::profile::EnergyProfile;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use wrsn_core::{
    per_post_energy_into, CostEvaluator, Instance, ScenarioSpec, Solution, SolveError, Solver,
};
use wrsn_energy::Energy;
use wrsn_sim::PatrolTour;

/// A stable FNV-1a digest of an instance, mixed into the bi-level
/// solver's RNG seed so each instance anneals its own deterministic
/// trajectory even inside a fixed-seed sweep.
///
/// # Examples
///
/// ```
/// use wrsn_core::InstanceSampler;
/// use wrsn_geom::Field;
/// use wrsn_sched::instance_digest;
///
/// let a = InstanceSampler::new(Field::square(100.0), 4, 8).sample(1);
/// let b = InstanceSampler::new(Field::square(100.0), 4, 8).sample(2);
/// assert_eq!(instance_digest(&a), instance_digest(&a));
/// assert_ne!(instance_digest(&a), instance_digest(&b));
/// ```
#[must_use]
pub fn instance_digest(instance: &Instance) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{instance:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fraction of posts whose battery deadline is shorter than the
/// steady-state patrol period of the charger route that owns them.
///
/// The fleet's tour geometry is planned once over the instance (it does
/// not depend on the deployment), so per-candidate evaluation only
/// recomputes dwell loads and battery windows — O(posts) on top of the
/// routing itself. Instances without geometry score 0 (no spatial
/// schedule to violate), which reduces the anneal to pure cost search.
pub(crate) fn infeasible_fraction(
    profile: &EnergyProfile,
    spec: &ScenarioSpec,
    routes: &[(Vec<usize>, f64)],
) -> f64 {
    if routes.is_empty() {
        return 0.0;
    }
    let mut bad = 0usize;
    for (members, travel_s) in routes {
        let load: f64 = members
            .iter()
            .map(|&p| profile.demand_w[p] / spec.charger_power_w)
            .sum();
        let cycle_s = if load < 1.0 {
            travel_s / (1.0 - load)
        } else {
            f64::INFINITY
        };
        bad += members
            .iter()
            .filter(|&&p| profile.window_s[p] < cycle_s)
            .count();
    }
    bad as f64 / profile.window_s.len() as f64
}

/// Scores anneal candidates by `routing cost × (1 + infeasible_fraction)`
/// in buffers reused from move to move. The shortest-path parents,
/// per-post energies and profile are the same expressions, in the same
/// order, as building a [`RoutingTree`] and an [`EnergyProfile::new`]
/// for each candidate, without validating a tree or allocating per move.
struct MoveScorer<'a> {
    instance: &'a Instance,
    spec: &'a ScenarioSpec,
    routes: &'a [(Vec<usize>, f64)],
    parents: Vec<usize>,
    inflow: Vec<f64>,
    per_bit: Vec<Energy>,
    profile: EnergyProfile,
}

impl<'a> MoveScorer<'a> {
    fn new(
        instance: &'a Instance,
        spec: &'a ScenarioSpec,
        routes: &'a [(Vec<usize>, f64)],
    ) -> Self {
        MoveScorer {
            instance,
            spec,
            routes,
            parents: Vec::new(),
            inflow: Vec::new(),
            per_bit: Vec::new(),
            profile: EnergyProfile::default(),
        }
    }

    /// The score of `counts`, or `None` when it leaves a post unroutable.
    fn score(&mut self, eval: &mut CostEvaluator<'_>, counts: &[u32]) -> Option<f64> {
        let cost = eval.set_deployment(counts)?;
        eval.parents_into(&mut self.parents);
        per_post_energy_into(
            self.instance,
            &self.parents,
            &mut self.inflow,
            &mut self.per_bit,
        )
        .expect("shortest-path parents use existing links");
        self.profile
            .fill(self.instance, counts, &self.per_bit, self.spec);
        let frac = infeasible_fraction(&self.profile, self.spec, self.routes);
        Some(cost * (1.0 + frac))
    }
}

/// Plans the fleet's route memberships and travel times once per
/// instance: the full patrol tour split across the fleet, exactly the
/// partition [`plan_tour_schedule`](crate::plan_tour_schedule) and the
/// simulator use.
fn plan_routes(instance: &Instance, spec: &ScenarioSpec) -> Vec<(Vec<usize>, f64)> {
    let Some(geo) = instance.geometry() else {
        return Vec::new();
    };
    let full = PatrolTour::plan(geo.base_station, geo.posts.clone());
    let mut used = vec![false; geo.posts.len()];
    full.split(spec.chargers as usize)
        .into_iter()
        .map(|sub| {
            let members: Vec<usize> = sub
                .stops_in_order()
                .into_iter()
                .map(|pt| {
                    let p = geo
                        .posts
                        .iter()
                        .enumerate()
                        .position(|(i, q)| {
                            !used[i]
                                && q.x.to_bits() == pt.x.to_bits()
                                && q.y.to_bits() == pt.y.to_bits()
                        })
                        .expect("tour stops are instance posts");
                    used[p] = true;
                    p
                })
                .collect();
            (members, sub.length() / spec.charger_speed_mps)
        })
        .collect()
}

/// Bi-level deploy-then-schedule solver.
///
/// Starts from the cost-greedy deployment (IDB(1)'s coordinate ascent)
/// and anneals single-node moves between posts, scoring every candidate
/// by `routing cost × (1 + infeasible_fraction)`. The anneal is seeded
/// by `spec.seed` mixed with [`instance_digest`], so identical inputs
/// replay identical trajectories — the property the engine's result
/// cache and the shard-merge tests rely on.
///
/// # Examples
///
/// ```
/// use wrsn_core::{InstanceSampler, ScenarioSpec, Solver};
/// use wrsn_geom::Field;
/// use wrsn_sched::SchedBilevel;
///
/// let inst = InstanceSampler::new(Field::square(200.0), 6, 15).sample(4);
/// let a = SchedBilevel::new(ScenarioSpec::default()).solve(&inst)?;
/// let b = SchedBilevel::new(ScenarioSpec::default()).solve(&inst)?;
/// assert_eq!(a.deployment().counts(), b.deployment().counts());
/// # Ok::<(), wrsn_core::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedBilevel {
    spec: ScenarioSpec,
}

impl SchedBilevel {
    /// Creates the solver for one charging scenario.
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Self {
        SchedBilevel { spec }
    }

    /// The scenario whose schedule feasibility shapes the anneal.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
}

impl Default for SchedBilevel {
    fn default() -> Self {
        SchedBilevel::new(ScenarioSpec::default())
    }
}

impl SchedBilevel {
    /// The warm start and the anneal, scoring every candidate with
    /// `objective` (`None` = unroutable).
    fn anneal(
        &self,
        instance: &Instance,
        mut objective: impl FnMut(&mut CostEvaluator<'_>, &[u32]) -> Option<f64>,
    ) -> Result<Solution, SolveError> {
        let n = instance.num_posts();
        let cap = instance
            .max_nodes_per_post()
            .unwrap_or(instance.num_nodes());
        // Lower level, warm start: cost-greedy coordinate ascent.
        let mut eval = CostEvaluator::from_ones(instance)?;
        eval.greedy_fill();
        let mut counts = eval.counts().to_vec();
        let mut current = objective(&mut eval, &counts).expect("warm start is routable");
        let mut best_counts = counts.clone();
        let mut best = current;
        // Upper level: anneal single-node moves. With no spare nodes
        // every move is blocked, so skip the loop entirely.
        if instance.num_nodes() > n as u32 && n >= 2 {
            let mut rng = SmallRng::seed_from_u64(self.spec.seed ^ instance_digest(instance));
            let t0 = self.spec.sa_temp * current.max(f64::MIN_POSITIVE);
            let decay = (1e-3f64).powf(1.0 / f64::from(self.spec.sa_iters));
            let mut temp = t0;
            for _ in 0..self.spec.sa_iters {
                // Donor: a post with a spare node; recipient: a post
                // below the cap. Scan cyclically from random starts so
                // the move is always well-defined when one exists.
                let pick = |rng: &mut SmallRng| (rng.random::<f64>() * n as f64) as usize % n;
                let start_a = pick(&mut rng);
                let start_b = pick(&mut rng);
                let a = (0..n).map(|k| (start_a + k) % n).find(|&p| counts[p] > 1);
                let Some(a) = a else { break };
                let Some(b) = (0..n)
                    .map(|k| (start_b + k) % n)
                    .find(|&p| p != a && counts[p] < cap)
                else {
                    break;
                };
                counts[a] -= 1;
                counts[b] += 1;
                let cand = objective(&mut eval, &counts);
                let accept = match cand {
                    None => false,
                    Some(j) => j < current || rng.random::<f64>() < (-(j - current) / temp).exp(),
                };
                if accept {
                    current = cand.expect("accepted moves are routable");
                    if current < best {
                        best = current;
                        best_counts.copy_from_slice(&counts);
                    }
                } else {
                    counts[a] += 1;
                    counts[b] -= 1;
                }
                temp *= decay;
            }
        }
        eval.set_deployment(&best_counts)
            .expect("best candidate was routable when accepted");
        Ok(eval.solution(self.name()))
    }
}

impl Solver for SchedBilevel {
    fn name(&self) -> &'static str {
        "SchedBilevel"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        let routes = plan_routes(instance, &self.spec);
        let mut scorer = MoveScorer::new(instance, &self.spec, &routes);
        self.anneal(instance, |eval, counts| scorer.score(eval, counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedPlace, SchedTour};
    use wrsn_core::{
        optimal_cost, ChargeSpec, Deployment, GainKind, GeometricInstanceBuilder, Idb,
        InstanceBuilder, InstanceSampler, RoutingTree,
    };
    use wrsn_geom::{Field, Layout};

    /// IDB(1) as the cost-greedy solvers each wrote it out before they
    /// shared [`CostEvaluator::greedy_fill`]: the one-node prologue that
    /// names a stranded post, the first-strict-minimum argmin below the
    /// cap, and the commit loop. Returns the routed solution and the
    /// evaluator's final `f` bits.
    #[allow(clippy::needless_range_loop)] // probes every post index
    fn reference_greedy(instance: &Instance) -> Result<(Solution, u64), SolveError> {
        let n = instance.num_posts();
        let cap = instance
            .max_nodes_per_post()
            .unwrap_or(instance.num_nodes());
        let mut eval = CostEvaluator::new(instance);
        if eval.set_deployment(&vec![1u32; n]).is_none() {
            let dep = Deployment::ones(n);
            return Err(match optimal_cost(instance, &dep) {
                Err(e) => e,
                Ok(_) => SolveError::Unroutable { post: 0 },
            });
        }
        let mut counts = vec![1u32; n];
        for _ in 0..(instance.num_nodes() - n as u32) {
            let mut best: Option<(f64, usize)> = None;
            for p in 0..n {
                if counts[p] >= cap {
                    continue;
                }
                let cost = eval.probe_add(p);
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, p));
                }
            }
            let (_, p) = best.expect("cap feasibility was validated at build time");
            eval.commit_add(p);
            counts[p] += 1;
        }
        let dep = eval.deployment();
        let tree = RoutingTree::new(eval.parents(), instance)
            .expect("shortest-path parents use existing links");
        let f = eval.current_cost().to_bits();
        Ok((Solution::evaluated("reference", instance, dep, tree), f))
    }

    /// The bi-level warm start: the counts, parents and `f` bits the
    /// anneal's first objective call sees, or the error it returns.
    fn warm_start(inst: &Instance) -> Result<(Vec<u32>, Vec<usize>, u64), SolveError> {
        let spec = ScenarioSpec {
            sa_iters: 1,
            ..ScenarioSpec::default()
        };
        let mut warm = None;
        SchedBilevel::new(spec).anneal(inst, |eval, counts| {
            if warm.is_none() {
                let f = eval.current_cost().to_bits();
                warm = Some((counts.to_vec(), eval.parents(), f));
            }
            eval.set_deployment(counts)
        })?;
        Ok(warm.expect("the anneal scores its warm start"))
    }

    /// What both instance generators draw besides the layout, for `n`
    /// posts and `m` nodes: a linear, sublinear or measured gain, one of
    /// them with plateaus where probes tie; an optional per-post cap of
    /// at most `max_cap`; uniform or random report rates; zero or random
    /// sensing.
    fn draw_loads(
        rng: &mut SmallRng,
        n: usize,
        m: u32,
        max_cap: u32,
    ) -> (ChargeSpec, Option<u32>, Vec<f64>, Vec<Energy>) {
        let gain = match rng.random_range(0..4) {
            0 => GainKind::Linear,
            1 => GainKind::Sublinear(rng.random_range(0.3..=1.0)),
            2 => GainKind::Measured(vec![1.0, 1.8, 1.8, 1.8, 2.6]),
            _ => GainKind::Measured(vec![1.0, 1.5, 1.9]),
        };
        let charge = ChargeSpec::new(rng.random_range(0.05..=1.0), gain);
        let cap = rng
            .random::<bool>()
            .then(|| rng.random_range(m.div_ceil(n as u32)..=max_cap));
        let rates: Vec<f64> = if rng.random::<bool>() {
            (0..n).map(|_| rng.random_range(0.5..3.0)).collect()
        } else {
            vec![1.0; n]
        };
        let sensing: Vec<Energy> = if rng.random::<bool>() {
            (0..n)
                .map(|_| Energy::from_njoules(rng.random_range(0.0..200.0)))
                .collect()
        } else {
            vec![Energy::ZERO; n]
        };
        (charge, cap, rates, sensing)
    }

    /// A random instance drawn from `seed`: 2..=8 posts with up to two
    /// spare nodes each on average and [`draw_loads`]'s gain, cap, rates
    /// and sensing. Half are geometric, half explicit with a direct
    /// uplink per post.
    fn random_instance(seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let e = Energy::from_njoules;
        let n = rng.random_range(2..=8usize);
        let m = n as u32 + rng.random_range(0..=2 * n as u32);
        let (charge, cap, rates, sensing) = draw_loads(&mut rng, n, m, m);
        if rng.random::<bool>() {
            let layout = InstanceSampler::new(Field::square(rng.random_range(100.0..250.0)), n, m)
                .sample(seed);
            let posts = layout.geometry().expect("sampled").posts.clone();
            let mut builder = GeometricInstanceBuilder::new(posts, m)
                .charge(charge)
                .report_rates(rates)
                .sensing_energies(sensing);
            if let Some(cap) = cap {
                builder = builder.max_nodes_per_post(cap);
            }
            builder.build().unwrap()
        } else {
            let mut builder = InstanceBuilder::new(n, m)
                .rx_energy(e(rng.random_range(0.0..60.0)))
                .charge(charge)
                .report_rates(rates)
                .sensing_energies(sensing);
            for u in 0..n {
                builder = builder.uplink(u, n, e(rng.random_range(1.0..100.0)));
                for v in (0..n).filter(|&v| v != u) {
                    if rng.random_range(0.0..1.0) < 0.4 {
                        builder = builder.uplink(u, v, e(rng.random_range(1.0..150.0)));
                    }
                }
            }
            if let Some(cap) = cap {
                builder = builder.max_nodes_per_post(cap);
            }
            builder.build().unwrap()
        }
    }

    /// A random instance drawn from `seed` with 9..=60 posts, where
    /// `cheapest_add`'s certificate bounds deep subtrees and breaks ties:
    /// - a random geometric layout, most posts several hops deep;
    /// - a 3×3 to 7×7 grid layout from `wrsn-geom`, whose mirror-image
    ///   posts tie;
    /// - explicit uplinks that all cost one energy, so alternative routes
    ///   tie and their slacks are zero.
    ///
    /// Up to one spare node per post, and [`draw_loads`]'s gain, rates,
    /// sensing and a cap at most two above the least feasible one.
    fn deep_instance(seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let e = Energy::from_njoules;
        let layout = rng.random_range(0..3);
        let n = match layout {
            1 => {
                let side = rng.random_range(3..=7usize);
                side * side
            }
            _ => rng.random_range(10..=60usize),
        };
        let m = n as u32 + rng.random_range(0..=n as u32);
        let (charge, cap, rates, sensing) = draw_loads(&mut rng, n, m, m.div_ceil(n as u32) + 2);
        if layout == 2 {
            // Post u reaches the base station directly (u < 3) or through
            // a lower-numbered post, plus up to two more uplinks.
            let tx = e(rng.random_range(1.0..50.0));
            let rx = e(rng.random_range(0.0..20.0));
            let mut builder = InstanceBuilder::new(n, m)
                .rx_energy(rx)
                .charge(charge)
                .report_rates(rates)
                .sensing_energies(sensing);
            for u in 0..n {
                let first = if u < 3 { n } else { rng.random_range(0..u) };
                builder = builder.uplink(u, first, tx);
                for _ in 0..rng.random_range(0..=2) {
                    let v = rng.random_range(0..n);
                    if v != u && v != first {
                        builder = builder.uplink(u, v, tx);
                    }
                }
            }
            if let Some(cap) = cap {
                builder = builder.max_nodes_per_post(cap);
            }
            return builder.build().unwrap();
        }
        // About one post per 35-55 m square, so most posts are several
        // 75 m hops from the base station (a grid's rows 30-70 m apart).
        let side = (n as f64).sqrt();
        let posts = if layout == 1 {
            let field = Field::square(side * rng.random_range(30.0..70.0));
            field.layout_posts(Layout::Grid {
                cols: side as usize,
                rows: side as usize,
            })
        } else {
            let field = Field::square(side * rng.random_range(35.0..55.0));
            let layout = InstanceSampler::new(field, n, m).sample(seed);
            layout.geometry().expect("sampled").posts.clone()
        };
        let mut builder = GeometricInstanceBuilder::new(posts, m)
            .charge(charge)
            .report_rates(rates)
            .sensing_energies(sensing);
        if let Some(cap) = cap {
            builder = builder.max_nodes_per_post(cap);
        }
        builder.build().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `Idb::new(1)`, `SchedPlace` on explicit instances and the
        /// bi-level warm start give the reference's deployment, parents
        /// and cost bits, on a small instance and a deep one per seed.
        #[test]
        fn greedy_kernel_reproduces_the_reference(seed in proptest::prelude::any::<u64>()) {
            for inst in [random_instance(seed), deep_instance(seed)] {
                let (want, f) = reference_greedy(&inst).unwrap();
                let mut solutions = vec![Idb::new(1).solve(&inst).unwrap()];
                if inst.geometry().is_none() {
                    solutions.push(SchedPlace::default().solve(&inst).unwrap());
                }
                for sol in &solutions {
                    proptest::prop_assert_eq!(sol.deployment(), want.deployment(), "seed {}", seed);
                    proptest::prop_assert_eq!(sol.tree(), want.tree(), "seed {}", seed);
                    proptest::prop_assert_eq!(
                        sol.total_cost().as_njoules().to_bits(),
                        want.total_cost().as_njoules().to_bits(),
                        "seed {}", seed
                    );
                }
                let (counts, parents, warm_f) = warm_start(&inst).unwrap();
                proptest::prop_assert_eq!(counts.as_slice(), want.deployment().counts(), "seed {}", seed);
                proptest::prop_assert_eq!(parents.as_slice(), want.tree().parents(), "seed {}", seed);
                proptest::prop_assert_eq!(warm_f, f, "seed {}", seed);
            }
        }
    }

    #[test]
    fn stranded_posts_fail_as_the_reference_does() {
        // Post 1 reaches the base station only through post 0, and the
        // two hops sum past f64::MAX: the prologue names post 1. With a
        // huge report rate every post routes but f overflows, which the
        // prologue reports as post 0.
        let far = Energy::from_njoules(1e308);
        let two_hops = InstanceBuilder::new(2, 5)
            .uplink(0, 2, far)
            .uplink(1, 0, far)
            .build()
            .unwrap();
        let overflow = InstanceBuilder::new(2, 5)
            .report_rates(vec![1e300, 1.0])
            .uplink(0, 2, Energy::from_njoules(1e10))
            .uplink(1, 2, Energy::from_njoules(1.0))
            .build()
            .unwrap();
        for (inst, post) in [(two_hops, 1), (overflow, 0)] {
            let want = reference_greedy(&inst).unwrap_err();
            assert_eq!(want, SolveError::Unroutable { post });
            let solvers: [Box<dyn Solver>; 5] = [
                Box::new(Idb::new(1)),
                Box::new(Idb::new(2)),
                Box::new(SchedPlace::default()),
                Box::new(SchedTour::default()),
                Box::new(SchedBilevel::default()),
            ];
            for solver in solvers {
                assert_eq!(solver.solve(&inst).unwrap_err(), want, "{}", solver.name());
            }
            assert_eq!(warm_start(&inst).unwrap_err(), want);
        }
    }

    /// The infeasible fraction of a solved deployment and its tree.
    fn fraction_of(
        inst: &Instance,
        sol: &Solution,
        spec: &ScenarioSpec,
        routes: &[(Vec<usize>, f64)],
    ) -> f64 {
        let profile = EnergyProfile::new(inst, sol.deployment().counts(), sol.tree(), spec);
        infeasible_fraction(&profile, spec, routes)
    }

    /// The anneal's objective as it scored each move before in-place
    /// scoring: a validated tree from fresh parents, its per-post
    /// energies, a fresh profile and the fraction over it.
    fn reference_objective(
        inst: &Instance,
        spec: &ScenarioSpec,
        routes: &[(Vec<usize>, f64)],
        eval: &mut CostEvaluator<'_>,
        counts: &[u32],
    ) -> Option<f64> {
        let cost = eval.set_deployment(counts)?;
        let tree = RoutingTree::new(eval.parents(), inst)
            .expect("shortest-path parents use existing links");
        if routes.is_empty() {
            return Some(cost * (1.0 + 0.0));
        }
        let n = inst.num_posts();
        let mut inflow = vec![0.0; n];
        for p in 0..n {
            let rate = inst.report_rate(p);
            let mut cur = tree.parent(p);
            while cur != tree.bs() {
                inflow[cur] += rate;
                cur = tree.parent(cur);
            }
        }
        let per_bit: Vec<Energy> = (0..n)
            .map(|p| {
                let w = inflow[p];
                tree.tx_energy(inst, p) * (inst.report_rate(p) + w) + inst.rx_energy() * w
            })
            .collect();
        let (mut demand_w, mut window_s) = (Vec::new(), Vec::new());
        for p in 0..n {
            let per_round_j =
                (per_bit[p] * spec.bits_per_report as f64 + inst.sensing_energy(p)).as_joules();
            let watts = per_round_j / spec.round_interval_s;
            demand_w.push(watts / inst.charge_efficiency(counts[p]));
            let pool_j = spec.battery_j * f64::from(counts[p]);
            window_s.push(if watts > 0.0 {
                pool_j / watts
            } else {
                f64::INFINITY
            });
        }
        let mut bad = 0usize;
        for (members, travel_s) in routes {
            let load: f64 = members
                .iter()
                .map(|&p| demand_w[p] / spec.charger_power_w)
                .sum();
            let cycle_s = if load < 1.0 {
                travel_s / (1.0 - load)
            } else {
                f64::INFINITY
            };
            bad += members.iter().filter(|&&p| window_s[p] < cycle_s).count();
        }
        Some(cost * (1.0 + bad as f64 / n as f64))
    }

    #[test]
    fn in_place_scores_match_the_reference_on_every_move() {
        // The benchmark's bi-level size plus smaller fields, under the
        // default scenario and a tight one where some posts are
        // infeasible, and an explicit instance with no routes.
        let tight = ScenarioSpec {
            battery_j: 0.005,
            charger_speed_mps: 1.0,
            charger_power_w: 2.0,
            ..ScenarioSpec::default()
        };
        let mut cases: Vec<(Instance, ScenarioSpec)> = Vec::new();
        for (posts, nodes, field, seeds) in [(20, 60, 300.0, 0..4), (12, 36, 250.0, 4..6)] {
            for seed in seeds {
                let inst = InstanceSampler::new(Field::square(field), posts, nodes).sample(seed);
                cases.push((inst.clone(), ScenarioSpec::default()));
                cases.push((inst, tight.clone()));
            }
        }
        let e = Energy::from_njoules(4.0);
        let explicit = InstanceBuilder::new(3, 9)
            .rx_energy(Energy::from_njoules(2.0))
            .uplink(0, 3, e)
            .uplink(1, 0, e)
            .uplink(1, 3, Energy::from_njoules(9.0))
            .uplink(2, 1, e)
            .build()
            .unwrap();
        cases.push((explicit, ScenarioSpec::default()));
        let mut infeasible_moves = 0;
        for (inst, spec) in &cases {
            let solver = SchedBilevel::new(spec.clone());
            let routes = plan_routes(inst, spec);
            let mut scorer = MoveScorer::new(inst, spec, &routes);
            let mut moves = 0;
            let sol = solver
                .anneal(inst, |eval, counts| {
                    let fast = scorer.score(eval, counts);
                    let slow = reference_objective(inst, spec, &routes, eval, counts);
                    assert_eq!(fast.map(f64::to_bits), slow.map(f64::to_bits));
                    let cost = eval.current_cost();
                    if fast.is_some_and(|j| j > cost) {
                        infeasible_moves += 1;
                    }
                    moves += 1;
                    fast
                })
                .unwrap();
            assert_eq!(moves, spec.sa_iters as usize + 1, "{inst}");
            assert_eq!(sol, solver.solve(inst).unwrap());
        }
        assert!(infeasible_moves > 0, "no move was penalized");
    }

    #[test]
    fn solves_with_exact_budget_and_valid_deployment() {
        let inst = InstanceSampler::new(Field::square(200.0), 8, 20).sample(1);
        let sol = SchedBilevel::default().solve(&inst).unwrap();
        assert!(sol.deployment().is_valid_for(&inst));
        assert_eq!(sol.deployment().total(), 20);
        assert_eq!(sol.algorithm(), "SchedBilevel");
    }

    #[test]
    fn replays_identically_for_one_seed() {
        let inst = InstanceSampler::new(Field::square(300.0), 12, 36).sample(9);
        let spec = ScenarioSpec {
            battery_j: 0.005,
            charger_speed_mps: 1.0,
            sa_iters: 150,
            ..ScenarioSpec::default()
        };
        let a = SchedBilevel::new(spec.clone()).solve(&inst).unwrap();
        let b = SchedBilevel::new(spec.clone()).solve(&inst).unwrap();
        assert_eq!(a.deployment().counts(), b.deployment().counts());
        assert_eq!(a.total_cost(), b.total_cost());
        // Other scenario seeds stay valid (their trajectories may or may
        // not converge to the same deployment).
        for s in 1..=3 {
            let spec = ScenarioSpec {
                seed: s,
                ..spec.clone()
            };
            let c = SchedBilevel::new(spec).solve(&inst).unwrap();
            assert!(c.deployment().is_valid_for(&inst));
        }
    }

    #[test]
    fn relaxed_scenario_never_loses_to_the_cost_greedy_start() {
        // With huge batteries the penalty term is zero, the objective
        // collapses to pure routing cost, and SA keeps the best-so-far,
        // which starts at the IDB(1) deployment.
        let spec = ScenarioSpec {
            battery_j: 1e6,
            ..ScenarioSpec::default()
        };
        for seed in [2u64, 5, 11] {
            let inst = InstanceSampler::new(Field::square(250.0), 10, 25).sample(seed);
            let sched = SchedBilevel::new(spec.clone()).solve(&inst).unwrap();
            let idb = Idb::new(1).solve(&inst).unwrap();
            assert!(
                sched.total_cost().as_njoules() <= idb.total_cost().as_njoules() * (1.0 + 1e-9),
                "seed {seed}: {} vs {}",
                sched.total_cost(),
                idb.total_cost()
            );
        }
    }

    #[test]
    fn penalized_objective_never_exceeds_the_warm_start() {
        // Under a tight scenario the anneal may trade routing cost for
        // feasibility, but its combined objective can only improve on
        // the warm start (= the IDB(1) deployment).
        let inst = InstanceSampler::new(Field::square(300.0), 12, 30).sample(3);
        let idb = Idb::new(1).solve(&inst).unwrap();
        // Pick a battery size where the warm start is *partially*
        // infeasible, so feasibility-improving moves actually pay.
        let spec_for = |battery_j: f64| ScenarioSpec {
            battery_j,
            charger_speed_mps: 1.0,
            charger_power_w: 2.0,
            ..ScenarioSpec::default()
        };
        let spec = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
            .into_iter()
            .map(spec_for)
            .find(|spec| {
                let routes = plan_routes(&inst, spec);
                let frac = fraction_of(&inst, &idb, spec, &routes);
                frac > 0.0 && frac < 1.0
            })
            .unwrap_or_else(|| spec_for(0.004));
        let routes = plan_routes(&inst, &spec);
        let score = |sol: &Solution| {
            let frac = fraction_of(&inst, sol, &spec, &routes);
            sol.total_cost().as_njoules() * (1.0 + frac)
        };
        let sched = SchedBilevel::new(spec.clone()).solve(&inst).unwrap();
        assert!(score(&sched) <= score(&idb) * (1.0 + 1e-9));
    }

    #[test]
    fn explicit_instances_anneal_on_pure_cost() {
        let e = Energy::from_njoules(4.0);
        let inst = InstanceBuilder::new(2, 5)
            .rx_energy(Energy::from_njoules(2.0))
            .uplink(0, 2, e)
            .uplink(1, 0, e)
            .build()
            .unwrap();
        assert!(plan_routes(&inst, &ScenarioSpec::default()).is_empty());
        let sol = SchedBilevel::default().solve(&inst).unwrap();
        let idb = Idb::new(1).solve(&inst).unwrap();
        assert_eq!(sol.deployment().total(), 5);
        assert!(sol.total_cost() <= idb.total_cost());
    }

    #[test]
    fn no_spare_nodes_short_circuits_the_anneal() {
        let inst = InstanceSampler::new(Field::square(150.0), 5, 5).sample(2);
        let sol = SchedBilevel::default().solve(&inst).unwrap();
        assert_eq!(sol.deployment().counts(), &[1, 1, 1, 1, 1]);
    }

    #[test]
    fn digest_is_stable_and_instance_sensitive() {
        let a = InstanceSampler::new(Field::square(100.0), 4, 8).sample(1);
        let b = InstanceSampler::new(Field::square(100.0), 4, 8).sample(2);
        assert_eq!(instance_digest(&a), instance_digest(&a));
        assert_ne!(instance_digest(&a), instance_digest(&b));
    }
}
