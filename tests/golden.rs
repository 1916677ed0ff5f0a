//! Pinned bytes. `tests/golden/store_keys.tsv` holds the result-store
//! key of every case below as the store has always written it: a line
//! that changes means every result stored under that case stops
//! hitting. The property tests then hold the faster key paths — a
//! solve's per-thread prefix memo, a sweep's per-request prefix and an
//! experiment's per-run prefix — to the one reference function,
//! [`seed_fingerprint_scenario`].

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use wrsn::core::{GainSpec, InstanceSpec, ScenarioSpec};
use wrsn::engine::{
    seed_fingerprint_scenario, Experiment, Fingerprint, InstanceParams, ResultStore, SeedRun,
    SolverRegistry, SweepRunner, ENGINE_VERSION,
};
use wrsn::serve::api::{SolveRequest, SweepRequest};

const NAMESPACES: [Option<&str>; 3] = [None, Some("tenant-a"), Some("tenant-b")];
const SOLVERS: [&str; 2] = ["idb", "irfh"];

/// The paper's small instances, at the scale `serve-hot` caches.
fn sampled() -> InstanceParams {
    InstanceParams {
        posts: 10,
        nodes: 30,
        field: 200.0,
        ..InstanceParams::default()
    }
}

fn scenario() -> ScenarioSpec {
    ScenarioSpec {
        chargers: 2,
        ..ScenarioSpec::default()
    }
}

/// A valid three-post spec whose first post sits at `(x, 0)`. Its JSON
/// spells `x = -0.0` apart from `x = 0.0`, so the two key differently
/// although they compare equal as floats.
fn spec_at(x: f64) -> InstanceSpec {
    InstanceSpec {
        posts: vec![(x, 0.0), (40.0, 0.0), (80.0, 30.0)],
        base_station: (120.0, 0.0),
        num_nodes: 6,
        ranges_m: vec![50.0, 100.0],
        alpha_nj: 50.0,
        beta_pj: 100.0,
        gamma: 2.0,
        eta: 1.0,
        gain: GainSpec::Linear,
        max_nodes_per_post: None,
        report_rates: None,
        sensing_nj: None,
    }
}

fn pinned(x: f64) -> InstanceParams {
    InstanceParams {
        spec: Some(spec_at(x)),
        ..InstanceParams::default()
    }
}

/// The reference key of one cell.
fn reference(
    namespace: Option<&str>,
    instance: &InstanceParams,
    solver: &str,
    history: bool,
    seed: u64,
) -> Fingerprint {
    let source = instance.source().expect("valid parameters");
    seed_fingerprint_scenario(
        namespace,
        instance.scenario.as_ref(),
        &source,
        solver,
        ENGINE_VERSION,
        history,
        seed,
    )
}

/// Every golden case as a TSV line: namespace, scenario, source,
/// solver, history, seed and key (`-` for an absent component).
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for namespace in [None, Some("tenant-a")] {
        for with_scenario in [false, true] {
            for (source_name, base) in [("sampled", sampled()), ("spec-neg0", pinned(-0.0))] {
                let instance = InstanceParams {
                    scenario: with_scenario.then(scenario),
                    ..base
                };
                for solver in SOLVERS {
                    for history in [false, true] {
                        for seed in [0, 1, u64::MAX - 1] {
                            let key = reference(namespace, &instance, solver, history, seed);
                            lines.push(format!(
                                "{}\t{}\t{source_name}\t{solver}\t{}\t{seed}\t{key}",
                                namespace.unwrap_or("-"),
                                if with_scenario { "chargers-2" } else { "-" },
                                u8::from(history),
                            ));
                        }
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn store_keys_match_the_golden_table() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store_keys.tsv");
    let text = std::fs::read_to_string(&path).expect("the golden table is committed");
    let golden: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let computed = golden_lines();
    assert_eq!(golden.len(), computed.len(), "one line per case");
    let changed: Vec<String> = golden
        .iter()
        .zip(&computed)
        .filter(|(want, got)| *want != got)
        .map(|(want, got)| format!("  golden   {want}\n  computed {got}"))
        .collect();
    assert!(
        changed.is_empty(),
        "{} of {} store keys changed:\n{}",
        changed.len(),
        computed.len(),
        changed.join("\n")
    );
}

/// The parameter sets the property tests draw from. The specs differ
/// only in the sign of one zero; the last set fails validation.
fn param_pool() -> Vec<InstanceParams> {
    vec![
        sampled(),
        InstanceParams {
            scenario: Some(scenario()),
            ..sampled()
        },
        InstanceParams {
            scenario: Some(ScenarioSpec {
                sa_temp: 0.2,
                ..scenario()
            }),
            ..sampled()
        },
        InstanceParams {
            eta: 0.5,
            ..sampled()
        },
        InstanceParams {
            cap: Some(4),
            ..sampled()
        },
        InstanceParams {
            posts: 6,
            nodes: 12,
            field: 150.0,
            levels: 4,
            ..InstanceParams::default()
        },
        pinned(-0.0),
        pinned(0.0),
        InstanceParams {
            field: -0.0,
            ..sampled()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random solves through `SolveRequest::cache_key`, on one thread,
    /// so its memo carries over from step to step and case to case.
    /// Half the steps repeat the previous step's inputs under a new
    /// seed (a memo hit); the rest switch namespace, solver, parameters
    /// or spec (mostly a miss). An invalid set must fail as
    /// `source()` does and leave the memo answering correctly.
    #[test]
    fn solve_keys_match_the_reference_as_the_memo_hits_and_misses(
        steps in proptest::collection::vec(
            (0..NAMESPACES.len(), 0..SOLVERS.len(), 0usize..9, any::<u64>(), any::<bool>()),
            1..40,
        ),
    ) {
        let pool = param_pool();
        let mut last = None;
        for (ns, solver, params, seed, repeat) in steps {
            let (ns, solver, params) = match last {
                Some(previous) if repeat => previous,
                _ => (ns, solver, params),
            };
            last = Some((ns, solver, params));
            let req = SolveRequest {
                instance: pool[params].clone(),
                solver: SOLVERS[solver].to_string(),
                seed,
                include_solution: false,
            };
            let got = req.cache_key(NAMESPACES[ns]);
            match req.instance.source() {
                Ok(_) => prop_assert_eq!(
                    got.expect("valid parameters key"),
                    reference(NAMESPACES[ns], &req.instance, SOLVERS[solver], false, seed)
                ),
                Err(_) => prop_assert!(got.is_err(), "invalid parameters must not key"),
            }
        }
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wrsn-golden-keys").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SweepRequest::cache_keys`, and the keys `Experiment::run`
    /// reads and writes, are the reference keys. Every other seed is
    /// stored beforehand with a cost no solver produces, so the run must
    /// read it under its reference key; the rest miss, and must be
    /// written under theirs and nowhere else.
    #[test]
    fn sweep_and_experiment_keys_match_the_reference(
        ns in 0..NAMESPACES.len(),
        params in 0usize..8,
        solver in 0..SOLVERS.len(),
        history in any::<bool>(),
        start in any::<u64>(),
        count in 1u64..5,
    ) {
        let instance = param_pool()[params].clone();
        let (namespace, solver) = (NAMESPACES[ns], SOLVERS[solver]);
        let start = start % (u64::MAX - count);
        let seeds = start..start + count;
        let want: Vec<Fingerprint> = seeds
            .clone()
            .map(|seed| reference(namespace, &instance, solver, history, seed))
            .collect();
        if !history {
            let sweep = SweepRequest {
                instance: instance.clone(),
                solver: solver.to_string(),
                seed_start: start,
                seeds: count,
            };
            prop_assert_eq!(sweep.cache_keys(namespace).expect("valid sweep"), want.clone());
        }

        let dir = scratch(&format!("{ns}-{params}-{solver}-{history}-{start}-{count}"));
        let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
        let planted: Vec<u64> = seeds.clone().step_by(2).collect();
        for (seed, key) in seeds.clone().zip(&want).step_by(2) {
            let run = SeedRun {
                seed,
                cost_uj: -1.0,
                setup_ms: 0.0,
                solve_ms: 0.0,
                attempts: 1,
                cost_history_uj: Vec::new(),
            };
            let text = serde_json::to_string(&run).expect("a run serializes");
            let value: serde_json::Value = serde_json::from_str(&text).expect("and parses");
            store.put(key, value).expect("put");
        }
        let mut experiment = Experiment::new(instance.source().expect("valid parameters"))
            .solver(solver)
            .seeds(seeds.clone())
            .runner(SweepRunner::new().threads(1))
            .capture_history(history)
            .record_timings(false)
            .cache(Arc::clone(&store));
        if let Some(ns) = namespace {
            experiment = experiment.cache_namespace(ns);
        }
        if let Some(spec) = &instance.scenario {
            experiment = experiment.scenario(spec.clone());
        }
        let report = experiment.run(&SolverRegistry::with_defaults()).expect("sweep runs");
        let cache = report.cache.expect("a cached run reports its cache");
        prop_assert_eq!(cache.hits, planted.len() as u64);
        prop_assert_eq!(cache.appended, count - planted.len() as u64);
        for run in &report.runs {
            prop_assert_eq!(run.cost_uj == -1.0, planted.contains(&run.seed));
        }
        prop_assert_eq!(store.len(), want.len());
        prop_assert!(want.iter().all(|key| store.get(key).is_some()));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
