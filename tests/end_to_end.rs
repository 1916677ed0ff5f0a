//! Cross-crate integration: instances → solvers → simulator, with every
//! layer's invariants checked against the others.

use wrsn::core::{
    optimal_cost, tree_cost, BranchAndBound, CostEvaluator, ExhaustiveSearch, Idb, InstanceSampler,
    Rfh, SolveError, Solver,
};
use wrsn::energy::Energy;
use wrsn::engine::SolverRegistry;
use wrsn::geom::Field;
use wrsn::sim::{ChargerPolicy, SimConfig, Simulator};

/// The heterogeneous solver set, constructed through the same registry
/// the CLI and benches use (plus an `idb2` registration to cover δ=2).
fn solvers() -> Vec<Box<dyn Solver>> {
    let mut registry = SolverRegistry::with_defaults();
    registry.register("idb2", || Box::new(Idb::new(2))).unwrap();
    ["rfh", "irfh", "idb", "idb2", "bnb"]
        .iter()
        .map(|name| registry.create(name).expect("registered"))
        .collect()
}

#[test]
fn every_solver_produces_a_consistent_solution() {
    let sampler = InstanceSampler::new(Field::square(200.0), 8, 18);
    for seed in 0..3 {
        let inst = sampler.sample(seed);
        for solver in solvers() {
            let sol = solver.solve(&inst).expect("solvable");
            // Deployment honors the budget and minimums.
            assert!(sol.deployment().is_valid_for(&inst), "{}", solver.name());
            // Reported cost is exactly the tree cost of its parts.
            let recomputed = tree_cost(&inst, sol.deployment(), sol.tree());
            assert!(
                (sol.total_cost().as_njoules() - recomputed.as_njoules()).abs() < 1e-9,
                "{} reported a stale cost",
                solver.name()
            );
            // No solution beats the optimal routing of its own deployment.
            let (lower, _) = optimal_cost(&inst, sol.deployment()).unwrap();
            assert!(
                sol.total_cost().as_njoules() >= lower.as_njoules() - 1e-9,
                "{} beat its own deployment's optimum",
                solver.name()
            );
        }
    }
}

/// The paper-level differential oracle: on N ≤ 10 shapes, no registered
/// heuristic (and IDB with δ = 2) beats the branch-and-bound optimum, and
/// branch-and-bound matches exhaustive search wherever that fits within
/// 300 000 deployments.
#[test]
fn exact_solvers_agree_and_lower_bound_heuristics() {
    let mut registry = SolverRegistry::with_defaults();
    registry.register("idb2", || Box::new(Idb::new(2))).unwrap();
    let heuristics: Vec<&str> = registry
        .names()
        .into_iter()
        .filter(|name| !["bnb", "exhaustive"].contains(name))
        .collect();
    for name in [
        "irfh",
        "sched-tour",
        "sched-place",
        "sched-bilevel",
        "uniform",
        "lifetime",
    ] {
        assert!(heuristics.contains(&name), "{name} is not registered");
    }
    let exhaustive = ExhaustiveSearch::with_limit(300_000);
    let mut agreed = 0;
    for (posts, nodes, side, seeds) in [
        (4, 12, 150.0, 0..4),
        (7, 14, 200.0, 0..4),
        (8, 24, 200.0, 0..3),
        (10, 20, 200.0, 0..3),
        (10, 30, 250.0, 0..2),
    ] {
        let sampler = InstanceSampler::new(Field::square(side), posts, nodes);
        for seed in seeds {
            let inst = sampler.sample(seed);
            let shape = format!("{posts}/{nodes}/{side} seed {seed}");
            let opt = BranchAndBound::new().solve(&inst).unwrap().total_cost();
            match exhaustive.solve(&inst) {
                Ok(ex) => {
                    let rel = (ex.total_cost().as_njoules() - opt.as_njoules()).abs()
                        / ex.total_cost().as_njoules();
                    assert!(rel < 1e-9, "{shape}: exhaustive != b&b");
                    agreed += 1;
                }
                Err(SolveError::SearchSpaceTooLarge { .. }) => {}
                Err(e) => panic!("{shape}: exhaustive failed: {e}"),
            }
            for name in &heuristics {
                let sol = registry.create(name).unwrap().solve(&inst).unwrap();
                assert!(
                    sol.total_cost().as_njoules() >= opt.as_njoules() * (1.0 - 1e-9),
                    "{shape}: {name} beat the optimum"
                );
            }
        }
    }
    assert_eq!(
        agreed, 14,
        "exhaustive covers every 4-, 7- and 8-post seed and 10/20"
    );
}

#[test]
fn evaluator_agrees_with_reference_on_solver_outputs() {
    let sampler = InstanceSampler::new(Field::square(250.0), 12, 30);
    let inst = sampler.sample(4);
    let mut eval = CostEvaluator::new(&inst);
    for solver in solvers() {
        let sol = solver.solve(&inst).unwrap();
        let f = eval.set_deployment(sol.deployment().counts()).unwrap();
        let (reference, _) = optimal_cost(&inst, sol.deployment()).unwrap();
        assert!((f - reference.as_njoules()).abs() < 1e-6 * f.max(1.0));
    }
}

#[test]
fn simulator_validates_the_analytic_metric_for_each_solver() {
    let sampler = InstanceSampler::new(Field::square(200.0), 6, 18);
    let inst = sampler.sample(2);
    let config = SimConfig {
        round_interval_s: 1.0,
        bits_per_report: 1000,
        battery_capacity: Energy::from_joules(0.004),
        charger: ChargerPolicy::Threshold {
            interval_s: 2.0,
            trigger_soc: 0.6,
        },
        record_soc_every: None,
        charger_power_w: f64::INFINITY,
        faults: None,
        tour_order: None,
    };
    for solver in solvers() {
        let sol = solver.solve(&inst).unwrap();
        let report = Simulator::new(&inst, &sol, config.clone()).run(2000);
        assert_eq!(report.reports_lost, 0, "{}", solver.name());
        assert!(report.first_death.is_none(), "{}", solver.name());
        let analytic = sol.total_cost().as_njoules() * 1000.0;
        let simulated = report.charger_energy_per_round().as_njoules();
        let rel = (simulated - analytic).abs() / analytic;
        assert!(
            rel < 0.05,
            "{}: simulated {simulated} vs analytic {analytic} ({rel:.3})",
            solver.name()
        );
    }
}

#[test]
fn better_solutions_cost_the_charger_less_in_simulation() {
    // The analytic ordering (IDB <= RFH) must survive contact with the
    // discrete-event simulator.
    let sampler = InstanceSampler::new(Field::square(300.0), 15, 60);
    let inst = sampler.sample(11);
    let rfh = Rfh::basic().solve(&inst).unwrap();
    let idb = Idb::new(1).solve(&inst).unwrap();
    if (rfh.total_cost().as_njoules() - idb.total_cost().as_njoules()).abs() < 1.0 {
        return; // tie — nothing to compare
    }
    let config = SimConfig {
        battery_capacity: Energy::from_joules(0.01),
        charger: ChargerPolicy::Threshold {
            interval_s: 2.0,
            trigger_soc: 0.6,
        },
        ..SimConfig::default()
    };
    let sim_rfh = Simulator::new(&inst, &rfh, config.clone()).run(1500);
    let sim_idb = Simulator::new(&inst, &idb, config).run(1500);
    assert!(
        (sim_idb.charger_energy < sim_rfh.charger_energy) == (idb.total_cost() < rfh.total_cost()),
        "simulation reversed the analytic ordering"
    );
}

#[test]
fn charging_efficiency_scales_costs_inversely() {
    // Halving eta exactly doubles every recharging cost (linear model).
    let sampler = InstanceSampler::new(Field::square(200.0), 10, 20);
    let inst_full = sampler.sample(5);
    let sampler_half = InstanceSampler::new(Field::square(200.0), 10, 20)
        .charge(wrsn::core::ChargeSpec::linear(0.5));
    let inst_half = sampler_half.sample(5);
    let a = Idb::new(1).solve(&inst_full).unwrap();
    let b = Idb::new(1).solve(&inst_half).unwrap();
    assert_eq!(a.deployment(), b.deployment(), "decisions must not change");
    let ratio = b.total_cost().as_njoules() / a.total_cost().as_njoules();
    assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
}
