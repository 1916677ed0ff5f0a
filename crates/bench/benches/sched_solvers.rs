//! Charging-scenario scheduling solvers: solve-time Criterion
//! measurements plus a committed perf/quality snapshot.
//!
//! Two halves:
//!
//! 1. Criterion per-solve latency for the three scheduling solvers
//!    (`sched-tour`, `sched-place`, `sched-bilevel`) against the
//!    deployment baselines (`rfh`, `idb`) on one mid-sized geometric
//!    instance, so scheduling overhead is visible next to the
//!    heuristics it wraps.
//! 2. A machine-readable snapshot: every solver sweeps the same
//!    instance/seed grid through the engine and the mean cost + mean
//!    solve time land in `bench_results/BENCH_sched.json` (the R7
//!    recipe in EXPERIMENTS.md), so successive PRs leave a recorded
//!    cost/latency trajectory for the scheduling subsystem.

use criterion::{criterion_group, Criterion};
use serde::Serialize;
use wrsn_core::{InstanceSampler, ScenarioSpec};
use wrsn_engine::{Experiment, SolverRegistry, SweepRunner};
use wrsn_geom::Field;

const POSTS: usize = 20;
const NODES: u32 = 60;
const FIELD_M: f64 = 300.0;
const SEEDS: u64 = 10;

fn sampler() -> InstanceSampler {
    InstanceSampler::new(Field::square(FIELD_M), POSTS, NODES)
}

fn scenario() -> ScenarioSpec {
    ScenarioSpec {
        chargers: 2,
        ..ScenarioSpec::default()
    }
}

fn bench_solves(c: &mut Criterion) {
    let spec = scenario();
    let registry = SolverRegistry::with_defaults();
    let instance = sampler().sample(7);
    let mut group = c.benchmark_group("sched solve");
    group.sample_size(20);
    for name in ["rfh", "idb", "sched-tour", "sched-place", "sched-bilevel"] {
        let solver = registry.resolve(name, Some(&spec)).expect("registered");
        group.bench_function(name, |b| {
            b.iter(|| solver.solve(&instance).expect("solvable"))
        });
    }
    group.finish();
}

/// One solver's sweep statistics in the snapshot file.
#[derive(Serialize)]
struct SolverRow {
    solver: String,
    seeds: u64,
    mean_cost_uj: f64,
    std_cost_uj: f64,
    mean_solve_ms: f64,
    vs_first_pct: f64,
}

#[derive(Serialize)]
struct Snapshot {
    bench: String,
    instance: String,
    scenario: String,
    rows: Vec<SolverRow>,
}

/// Sweep every solver over the identical grid and record the snapshot.
/// Runs after the Criterion group so its latency numbers print first.
fn emit_snapshot() {
    let spec = scenario();
    let registry = SolverRegistry::with_defaults();
    let solvers = ["rfh", "idb", "sched-tour", "sched-place", "sched-bilevel"];
    let mut rows: Vec<SolverRow> = Vec::new();
    for name in solvers {
        let report = Experiment::sampled(sampler())
            .solver(name)
            .scenario(spec.clone())
            .seeds(0..SEEDS)
            .runner(SweepRunner::sequential())
            .run(&registry)
            .expect("sweep");
        let baseline = rows.first().map_or(report.cost_uj.mean, |r| r.mean_cost_uj);
        rows.push(SolverRow {
            solver: name.to_string(),
            seeds: SEEDS,
            mean_cost_uj: report.cost_uj.mean,
            std_cost_uj: report.cost_uj.std_dev,
            mean_solve_ms: report.mean_solve_ms(),
            vs_first_pct: (report.cost_uj.mean / baseline - 1.0) * 100.0,
        });
    }
    let snapshot = Snapshot {
        bench: "sched_solvers".to_string(),
        instance: format!("{POSTS} posts, {NODES} nodes, {FIELD_M:.0} m field"),
        scenario: spec.canonical_json(),
        rows,
    };
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_results/BENCH_sched.json"
    );
    let text = serde_json::to_string_pretty(&snapshot).expect("serializable");
    std::fs::write(path, text).expect("write BENCH_sched.json");
    for r in &snapshot.rows {
        println!(
            "snapshot {:14} mean {:9.3} uJ (std {:7.3})  {:8.2} ms/solve  {:+.2}% vs rfh",
            r.solver, r.mean_cost_uj, r.std_cost_uj, r.mean_solve_ms, r.vs_first_pct
        );
    }
    println!("snapshot written to {path}");
}

criterion_group!(benches, bench_solves);

fn main() {
    benches();
    emit_snapshot();
}
