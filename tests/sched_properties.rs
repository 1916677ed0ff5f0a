//! Determinism and cache-key properties of the charging-scenario
//! scheduling subsystem: scheduling sweeps must be byte-identical
//! across thread counts and across shard/merge splits, and scenario
//! parameters must key distinct cache fingerprints.

use proptest::prelude::*;
use std::path::PathBuf;
use wrsn::core::{InstanceSampler, ScenarioSpec};
use wrsn::engine::{
    merge_checkpoints, seed_fingerprint_scenario, Experiment, InstanceSource, RunReport,
    SolverRegistry, SweepCheckpoint, SweepRunner, ENGINE_VERSION,
};
use wrsn::geom::Field;

const SCHED_SOLVERS: [&str; 3] = ["sched-tour", "sched-place", "sched-bilevel"];

fn sampler(posts: usize, nodes: u32) -> InstanceSampler {
    InstanceSampler::new(Field::square(300.0), posts, nodes)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wrsn-sched-props").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small scenario that keeps the SA inner loop cheap enough for
/// property-test case counts.
fn quick_scenario() -> ScenarioSpec {
    ScenarioSpec {
        sa_iters: 40,
        ..ScenarioSpec::default()
    }
}

fn solver_index() -> impl Strategy<Value = usize> {
    0..SCHED_SOLVERS.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A parallel scheduling sweep must serialize byte-identically to a
    /// sequential run of the same experiment: the solvers are
    /// deterministic per seed and the runner preserves seed order.
    #[test]
    fn reports_are_byte_identical_across_thread_counts(
        which in solver_index(),
        posts in 5usize..9,
        per_post in 2u32..4,
        seed_start in 0u64..50,
        threads in 2usize..5,
    ) {
        let solver = SCHED_SOLVERS[which];
        let spec = quick_scenario();
        let registry = SolverRegistry::with_defaults().scenario_overlay(&spec);
        let cell = |runner: SweepRunner| {
            Experiment::sampled(sampler(posts, posts as u32 * per_post))
                .solver(solver)
                .scenario(spec.clone())
                .seeds(seed_start..seed_start + 4)
                .runner(runner)
                .record_timings(false)
                .run(&registry)
                .unwrap()
        };
        let sequential = cell(SweepRunner::sequential());
        let parallel = cell(SweepRunner::new().threads(threads));
        prop_assert_eq!(sequential.to_json(), parallel.to_json());
    }

    /// Sharding a scheduling sweep and folding the shard logs back with
    /// the merge path reproduces the unsharded report byte for byte.
    #[test]
    fn shard_merge_matches_the_unsharded_sweep(
        which in solver_index(),
        posts in 5usize..8,
        shards in 2u32..4,
        seed_start in 0u64..20,
    ) {
        let solver = SCHED_SOLVERS[which];
        let spec = quick_scenario();
        let registry = SolverRegistry::with_defaults().scenario_overlay(&spec);
        let dir = scratch(&format!("{solver}-{posts}-{shards}-{seed_start}"));
        let cell = || {
            Experiment::sampled(sampler(posts, posts as u32 * 3))
                .solver(solver)
                .scenario(spec.clone())
                .seeds(seed_start..seed_start + 5)
                .record_timings(false)
        };
        let mut parts = Vec::new();
        for index in 1..=shards {
            let path = dir.join(format!("shard-{index}.jsonl"));
            cell()
                .shard(index, shards)
                .checkpoint(&path)
                .run(&registry)
                .unwrap();
            parts.push((path.clone(), SweepCheckpoint::load(&path).unwrap()));
        }
        let merged = merge_checkpoints(&parts).unwrap();
        let report = RunReport::from_outcomes(
            merged.label.clone(),
            merged.solver.clone(),
            merged.runs,
            merged.failures,
        );
        let clean = cell().run(&registry).unwrap();
        prop_assert_eq!(report.to_json(), clean.to_json());
    }

    /// Every scenario parameter that changes must change the cache
    /// fingerprint — otherwise two differently parameterized scheduling
    /// sweeps would collide in the result store.
    #[test]
    fn fingerprints_distinguish_scenario_parameters(
        chargers in 1u32..5,
        site_grid in 2usize..9,
        sa_iters in 1u32..500,
        seed in 0u64..1000,
    ) {
        let source = InstanceSource::Sampled(sampler(6, 18));
        let fp = |scenario: Option<&ScenarioSpec>| {
            seed_fingerprint_scenario(
                None,
                scenario,
                &source,
                "sched-bilevel",
                ENGINE_VERSION,
                false,
                seed,
            )
        };
        let base = ScenarioSpec::default();
        let baseline = fp(Some(&base));
        // Same spec, same key — replays hit the cache.
        prop_assert_eq!(baseline.clone(), fp(Some(&base)));
        // Each perturbed parameter produces a distinct key.
        for varied in [
            ScenarioSpec { chargers: base.chargers + chargers, ..base.clone() },
            ScenarioSpec { site_grid: base.site_grid + site_grid, ..base.clone() },
            ScenarioSpec { sa_iters: base.sa_iters + sa_iters, ..base.clone() },
            ScenarioSpec { seed: base.seed + 1 + seed, ..base.clone() },
        ] {
            prop_assert!(baseline != fp(Some(&varied)));
        }
        prop_assert!(fp(Some(&base)) != fp(None));
    }
}

/// One deterministic (non-property) anchor: the three scheduling
/// solvers repeat byte-identically across processes and runs given the
/// same seed — the contract the result store depends on.
#[test]
fn scheduling_sweeps_repeat_byte_identically() {
    let spec = quick_scenario();
    let registry = SolverRegistry::with_defaults().scenario_overlay(&spec);
    for solver in SCHED_SOLVERS {
        let run = || {
            Experiment::sampled(sampler(8, 24))
                .solver(solver)
                .scenario(spec.clone())
                .seeds(0..3)
                .record_timings(false)
                .run(&registry)
                .unwrap()
                .to_json()
        };
        assert_eq!(run(), run(), "{solver} must repeat identically");
    }
}
