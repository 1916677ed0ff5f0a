//! `wrsn sweep`: one solver over a seed range, or several with
//! `--compare`.

use super::{in_load, instance_params, open_cache, render_runs, CliError};
use crate::args::Args;
use std::fmt::Write as _;
use wrsn_engine::{
    DurabilityPolicy, Experiment, RetryPolicy, SeedEvent, SolverRegistry, SweepRunner, Table,
};
use wrsn_serve::api::SweepRequest;

pub(super) const HELP: &str = "\
wrsn sweep — run a solver over many random instances in parallel

Takes the instance options of `wrsn solve` (--posts, --nodes, --field,
--levels, --eta, --cap, --load, --scenario), plus:
    --algo A        solver name from the registry        [default: irfh]
    --seeds S       number of seeds to sweep             [default: 10]
    --seed-start K  first seed                           [default: 0]
    --threads T     worker threads (1 = sequential)      [default: all CPUs]
    --history       record per-iteration cost traces
    --json          machine-readable RunReport output

Fault tolerance:
    --checkpoint P  stream an incremental checkpoint to file P after
                    every completed seed (implies --progress)
    --resume        skip seeds P already records (needs --checkpoint)
    --max-retries N retry a failing seed up to N extra times [default: 0]
    --keep-going    record failed seeds in the report instead of aborting
    --halt-after K  stop after K newly processed seeds (deterministic
                    interruption for testing --resume)
    --no-timings    zero the wall-clock fields so repeated runs are
                    byte-identical (used by the resume equivalence check)
    --progress      print a per-seed progress line to stderr

Result store (content-addressed cache):
    --cache [DIR]   route the sweep through the result store at DIR
                    [default dir: bench_results/cache]; seeds already
                    stored skip the solve, fresh results are appended,
                    and the report gains a cache {hits,misses,appended}
                    block
    --shard K/N     run only shard K of N (1-based, round-robin over the
                    seed range); write its log with --checkpoint and fold
                    the shard logs back together with `wrsn merge`
    --compare A,B   sweep several solvers over the identical instance and
                    seed grid and print a paired comparison table
                    (incompatible with --checkpoint/--resume/--shard/
                    --halt-after)";

/// Parses `--shard K/N` into a 1-based (index, count) pair. Range
/// validation happens in the engine ([`EngineError::BadShard`]).
fn parse_shard(text: &str) -> Result<(u32, u32), CliError> {
    let bad = || CliError(format!("--shard expects K/N (e.g. 2/4), got {text:?}"));
    let (index, count) = text.split_once('/').ok_or_else(bad)?;
    match (index.trim().parse(), count.trim().parse()) {
        (Ok(i), Ok(c)) => Ok((i, c)),
        _ => Err(bad()),
    }
}

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let (instance, load) = instance_params(&mut args)?;
    let algo: Option<String> = args.opt("algo", "an algorithm name")?;
    let defaults = SweepRequest::default();
    let req = SweepRequest {
        instance,
        solver: algo.clone().unwrap_or(defaults.solver),
        // `wrsn sweep` runs 10 seeds by default, a request body 8.
        seeds: args.get_or("seeds", "a seed count", 10)?,
        seed_start: args.get_or("seed-start", "an integer seed", defaults.seed_start)?,
    };
    let threads: Option<usize> = args.opt("threads", "a worker count")?;
    let history = args.flag("history");
    let json = args.flag("json");
    let checkpoint: Option<String> = args.opt("checkpoint", "a file path")?;
    let resume = args.flag("resume");
    let max_retries: u32 = args.get_or("max-retries", "a retry count", 0)?;
    let keep_going = args.flag("keep-going");
    let halt_after: Option<usize> = args.opt("halt-after", "a seed count")?;
    let no_timings = args.flag("no-timings");
    let progress = args.flag("progress");
    let cache_arg = args.flag_or_value("cache");
    let shard: Option<String> = args.opt("shard", "K/N")?;
    let compare: Option<String> = args.opt("compare", "a comma-separated solver list")?;
    args.finish()?;
    let experiment = req.experiment().map_err(|e| in_load(load.as_deref(), e))?;
    if resume && checkpoint.is_none() {
        return Err(CliError(
            "--resume needs --checkpoint to know where the previous run left off".into(),
        ));
    }
    let runner = match threads {
        Some(0) => return Err(CliError("--threads must be at least 1".into())),
        Some(n) => SweepRunner::new().threads(n),
        None => SweepRunner::new(),
    };
    // A seed's attempts are its retries plus the first one.
    let attempts = max_retries.checked_add(1).ok_or_else(|| {
        CliError(format!(
            "--max-retries must be below {}, got {max_retries}",
            u32::MAX
        ))
    })?;
    let shard = shard.as_deref().map(parse_shard).transpose()?;
    let store = cache_arg
        .map(|dir| open_cache(dir, DurabilityPolicy::default()))
        .transpose()?;
    let mut experiment = experiment
        .runner(runner)
        .capture_history(history)
        .retry(RetryPolicy::attempts(attempts))
        .keep_going(keep_going)
        .resume(resume)
        .record_timings(!no_timings);
    if let Some(path) = &checkpoint {
        experiment = experiment.checkpoint(path);
    }
    if let Some(k) = halt_after {
        experiment = experiment.halt_after(k);
    }
    if let Some((index, count)) = shard {
        experiment = experiment.shard(index, count);
    }
    if let Some(store) = store {
        experiment = experiment.cache(store);
    }
    if progress || checkpoint.is_some() {
        experiment = experiment.on_seed(|event| match event {
            SeedEvent::Completed { run, done, total } => {
                eprintln!(
                    "[{done}/{total}] seed {} ok: {:.3} uJ",
                    run.seed, run.cost_uj
                );
            }
            SeedEvent::Failed {
                failure,
                done,
                total,
            } => {
                eprintln!(
                    "[{done}/{total}] seed {} FAILED after {} attempt(s): {}",
                    failure.seed, failure.attempts, failure.error
                );
            }
        });
    }
    let registry = SolverRegistry::with_defaults();
    if let Some(list) = compare {
        if algo.is_some() {
            return Err(CliError(
                "--compare names its own solvers; drop --algo".into(),
            ));
        }
        if checkpoint.is_some() || resume || shard.is_some() || halt_after.is_some() {
            return Err(CliError(
                "--compare runs multiple solvers and cannot be combined with \
                 --checkpoint/--resume/--shard/--halt-after"
                    .into(),
            ));
        }
        let title = format!("compare ({} seeds, seed {}..)", req.seeds, req.seed_start);
        return sweep_compare(&experiment, &registry, &list, &title, json);
    }
    let report = experiment.run(&registry)?;
    if json {
        return Ok(report.to_json());
    }
    let mut notes = format!(
        "wall-clock: setup {:.1} ms, solve {:.1} ms ({:.2} ms/seed)\n",
        report.setup_ms_total,
        report.solve_ms_total,
        report.mean_solve_ms()
    );
    if let Some(cache) = &report.cache {
        let _ = writeln!(
            notes,
            "cache: {} hit(s), {} miss(es), {} appended",
            cache.hits, cache.misses, cache.appended
        );
    }
    let title = format!("sweep {} ({} seeds)", req.solver, req.seeds);
    let mut out = render_runs(&title, &report, &notes, req.seeds);
    if history {
        let trace: Vec<String> = report
            .mean_history_uj()
            .iter()
            .map(|c| format!("{c:.3}"))
            .collect();
        let _ = writeln!(out, "mean cost by iteration: {}", trace.join(" -> "));
    }
    Ok(out)
}

/// Runs `experiment` once per solver of `list` over the identical
/// instance/seed grid and renders a paired comparison table under
/// `title` (the shape of the paper's Fig. 7 and Fig. 8 cross-algorithm
/// comparisons). Every cell reuses the result store when `--cache` is
/// active, so regenerating a comparison after adding one solver only
/// computes the new column.
fn sweep_compare(
    experiment: &Experiment,
    registry: &SolverRegistry,
    list: &str,
    title: &str,
    json: bool,
) -> Result<String, CliError> {
    let algos: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if algos.len() < 2 {
        return Err(CliError(
            "--compare needs at least two solver names (e.g. --compare rfh,irfh,idb)".into(),
        ));
    }
    let reports = algos
        .iter()
        .map(|algo| experiment.clone().solver(*algo).run(registry))
        .collect::<Result<Vec<_>, _>>()?;
    if json {
        return Ok(serde_json::to_string_pretty(&reports).expect("reports are serializable"));
    }
    let baseline = reports[0].cost_uj.mean;
    let mut table = Table::new(
        title,
        &[
            "algo",
            "mean (uJ)",
            "std",
            "min",
            "max",
            &format!("vs {}", algos[0]),
        ],
    );
    for report in &reports {
        let delta = if baseline > 0.0 {
            format!("{:+.2}%", (report.cost_uj.mean / baseline - 1.0) * 100.0)
        } else {
            "-".to_string()
        };
        table.row(&[
            report.solver.clone(),
            format!("{:.3}", report.cost_uj.mean),
            format!("{:.3}", report.cost_uj.std_dev),
            format!("{:.3}", report.cost_uj.min),
            format!("{:.3}", report.cost_uj.max),
            delta,
        ]);
    }
    let mut out = table.render();
    for report in &reports {
        if let Some(cache) = &report.cache {
            let _ = writeln!(
                out,
                "cache {}: {} hit(s), {} miss(es), {} appended",
                report.solver, cache.hits, cache.misses, cache.appended
            );
        }
        if !report.is_complete() {
            let _ = writeln!(
                out,
                "WARNING: {} failed on {} seed(s); its statistics cover the rest",
                report.solver,
                report.failures.len()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{run_str, scratch};
    use crate::commands::{flag_of, run};
    use serde::{Deserialize as _, Serialize as _};
    use wrsn_core::ScenarioSpec;
    use wrsn_engine::InstanceParams;
    use wrsn_serve::api::{ApiContext, SweepRequest};

    #[test]
    fn sweep_json_is_a_run_report() {
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4 --seed-start 2 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["solver"], "idb");
        let runs = v["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0]["seed"], 2);
        assert!(v["cost_uj"]["mean"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn sweep_parallel_matches_sequential() {
        let base = "sweep --posts 6 --nodes 12 --field 150 --algo irfh --seeds 6 --json";
        let par: serde_json::Value =
            serde_json::from_str(&run_str(&format!("{base} --threads 4")).unwrap()).unwrap();
        let seq: serde_json::Value =
            serde_json::from_str(&run_str(&format!("{base} --threads 1")).unwrap()).unwrap();
        assert_eq!(par["runs"].as_array().unwrap().len(), 6);
        for (a, b) in par["runs"]
            .as_array()
            .unwrap()
            .iter()
            .zip(seq["runs"].as_array().unwrap())
        {
            assert_eq!(a["seed"], b["seed"]);
            assert_eq!(a["cost_uj"], b["cost_uj"]);
        }
        assert_eq!(par["cost_uj"]["mean"], seq["cost_uj"]["mean"]);
    }

    #[test]
    fn sweep_human_output_has_table_and_summary() {
        let out = run_str("sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3").unwrap();
        assert!(out.contains("== sweep idb"));
        assert!(out.contains("cost: mean"));
        assert!(out.contains("wall-clock"));
    }

    #[test]
    fn sweep_history_prints_the_iteration_trace() {
        let out = run_str("sweep --posts 6 --nodes 12 --field 150 --algo irfh --seeds 2 --history")
            .unwrap();
        assert!(out.contains("mean cost by iteration:"));
        assert!(out.contains("->"));
    }

    #[test]
    fn sweep_rejects_bad_algo_seeds_and_threads() {
        assert!(
            run_str("sweep --posts 5 --nodes 10 --field 150 --algo magic")
                .unwrap_err()
                .to_string()
                .contains("--algo")
        );
        assert!(run_str("sweep --posts 5 --nodes 10 --field 150 --seeds 0")
            .unwrap_err()
            .to_string()
            .contains("--seeds"));
        assert!(
            run_str("sweep --posts 5 --nodes 10 --field 150 --threads 0")
                .unwrap_err()
                .to_string()
                .contains("--threads")
        );
        // `--seed` belongs to `solve`; sweep uses --seed-start.
        assert!(run_str("sweep --posts 5 --nodes 10 --field 150 --seed 7")
            .unwrap_err()
            .to_string()
            .contains("seed"));
    }

    #[test]
    fn sweep_loads_a_pinned_spec_with_zero_variance() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-inst.json");
        let _ = run_str(&format!(
            "solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --save {}",
            path.display()
        ))
        .unwrap();
        let out = run_str(&format!(
            "sweep --algo idb --seeds 3 --json --load {}",
            path.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["cost_uj"]["std_dev"], 0.0);
    }

    #[test]
    fn sweep_resume_requires_a_checkpoint() {
        let err = run_str("sweep --posts 5 --nodes 10 --field 150 --resume").unwrap_err();
        assert!(err.to_string().contains("--checkpoint"), "{err}");
    }

    #[test]
    fn sweep_checkpoint_interrupt_and_resume_match_a_clean_run() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("sweep-resume.checkpoint.json");
        let _ = std::fs::remove_file(&ck);
        let base = "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 5 \
                    --threads 1 --no-timings --json";
        let partial = run_str(&format!(
            "{base} --checkpoint {} --halt-after 2",
            ck.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&partial).unwrap();
        assert_eq!(v["runs"].as_array().unwrap().len(), 2, "halted after 2");
        let resumed = run_str(&format!("{base} --checkpoint {} --resume", ck.display())).unwrap();
        let clean = run_str(base).unwrap();
        assert_eq!(resumed, clean, "resume must reproduce the clean sweep");
    }

    #[test]
    fn sweep_keep_going_records_failures() {
        // 3 nodes cannot cover 5 posts — every seed fails to build.
        let base = "sweep --posts 5 --nodes 3 --field 150 --algo idb --seeds 3";
        let out = run_str(&format!("{base} --keep-going --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["runs"].as_array().unwrap().len(), 0);
        assert_eq!(v["failures"].as_array().unwrap().len(), 3);
        let human = run_str(&format!("{base} --keep-going")).unwrap();
        assert!(human.contains("failed seeds"), "{human}");
        // Without --keep-going, the same sweep aborts with the error.
        assert!(run_str(base).is_err());
    }

    #[test]
    fn sweep_cached_rerun_is_all_hits_and_identical() {
        let dir = scratch("sweep-cache");
        let base = format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4 \
             --no-timings --json --cache {}",
            dir.display()
        );
        let first: serde_json::Value = serde_json::from_str(&run_str(&base).unwrap()).unwrap();
        assert_eq!(first["cache"]["hits"], 0);
        assert_eq!(first["cache"]["misses"], 4);
        assert_eq!(first["cache"]["appended"], 4);
        let second: serde_json::Value = serde_json::from_str(&run_str(&base).unwrap()).unwrap();
        assert_eq!(
            second["cache"]["hits"], 4,
            "rerun must be served entirely from the store"
        );
        assert_eq!(second["cache"]["misses"], 0);
        assert_eq!(second["cache"]["appended"], 0);
        assert_eq!(first["runs"], second["runs"]);
        assert_eq!(first["cost_uj"], second["cost_uj"]);
    }

    #[test]
    fn sweep_cache_human_output_reports_hits() {
        let dir = scratch("sweep-cache-human");
        let base = format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 2 --cache {}",
            dir.display()
        );
        let _ = run_str(&base).unwrap();
        let out = run_str(&base).unwrap();
        assert!(
            out.contains("cache: 2 hit(s), 0 miss(es), 0 appended"),
            "{out}"
        );
    }

    #[test]
    fn sweep_shard_rejects_malformed_and_out_of_range() {
        let base = "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4";
        assert!(run_str(&format!("{base} --shard 2"))
            .unwrap_err()
            .to_string()
            .contains("K/N"));
        assert!(run_str(&format!("{base} --shard a/b"))
            .unwrap_err()
            .to_string()
            .contains("K/N"));
        assert!(run_str(&format!("{base} --shard 0/2"))
            .unwrap_err()
            .to_string()
            .contains("1-based"));
        assert!(run_str(&format!("{base} --shard 3/2"))
            .unwrap_err()
            .to_string()
            .contains("1-based"));
    }

    #[test]
    fn sweep_compare_pairs_solvers_on_the_same_grid() {
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --seeds 3 --compare rfh,irfh,idb --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let reports = v.as_array().unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0]["solver"], "rfh");
        assert_eq!(reports[2]["solver"], "idb");
        for r in reports {
            let runs = r["runs"].as_array().unwrap();
            assert_eq!(runs.len(), 3);
            // Identical grid: every solver sees the same seeds.
            assert_eq!(runs[0]["seed"], reports[0]["runs"][0]["seed"]);
        }
        let human =
            run_str("sweep --posts 5 --nodes 10 --field 150 --seeds 3 --compare rfh,idb").unwrap();
        assert!(human.contains("== compare"), "{human}");
        assert!(human.contains("vs rfh"), "{human}");
        assert!(human.contains("%"), "{human}");
    }

    #[test]
    fn sweep_compare_reuses_the_result_store() {
        let dir = scratch("sweep-compare-cache");
        // Pre-warm the store with one of the two solvers.
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3 \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        let out = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --seeds 3 --compare rfh,idb \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let reports = v.as_array().unwrap();
        assert_eq!(reports[0]["cache"]["hits"], 0, "rfh was never cached");
        assert_eq!(reports[0]["cache"]["misses"], 3);
        assert_eq!(
            reports[1]["cache"]["hits"], 3,
            "idb column comes from the store"
        );
    }

    #[test]
    fn sweep_compare_rejects_conflicting_options() {
        let base = "sweep --posts 5 --nodes 10 --field 150 --seeds 2";
        assert!(run_str(&format!("{base} --compare rfh,idb --algo idb"))
            .unwrap_err()
            .to_string()
            .contains("--algo"));
        assert!(run_str(&format!("{base} --compare rfh"))
            .unwrap_err()
            .to_string()
            .contains("at least two"));
        assert!(run_str(&format!("{base} --compare rfh,idb --shard 1/2"))
            .unwrap_err()
            .to_string()
            .contains("--compare"));
    }

    #[test]
    fn sweep_refuses_a_retry_count_with_no_room_for_the_first_attempt() {
        for extra in ["--algo idb", "--compare rfh,idb"] {
            let err = run_str(&format!(
                "sweep --posts 5 --nodes 10 --field 150 --seeds 2 {extra} \
                 --max-retries 4294967295"
            ))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--max-retries must be below 4294967295"),
                "{extra}: {err}"
            );
        }
        // One below is the largest budget a seed can have.
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --seeds 2 --algo idb \
             --max-retries 4294967294 --no-timings --json",
        )
        .unwrap();
        assert!(out.contains("\"attempts\": 1"), "{out}");
    }

    #[test]
    fn sweep_refuses_a_seed_range_past_the_last_seed() {
        for extra in ["--algo idb", "--compare rfh,idb"] {
            let err = run_str(&format!(
                "sweep --posts 5 --nodes 10 --field 150 {extra} \
                 --seed-start 18446744073709551615 --seeds 2"
            ))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--seed-start + --seeds overflows"),
                "{extra}: {err}"
            );
        }
        // The last seed alone is a range of one.
        let out = run_str(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb \
             --seed-start 18446744073709551614 --seeds 1 --no-timings --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["runs"].as_array().map(Vec::len), Some(1), "{out}");
    }

    /// One random sweep spec on a small instance, drawn from `picks`
    /// and rendered both as `wrsn sweep --json` argv and as a
    /// `/v1/sweep` body. Most `sched-*` specs carry a scenario. In one
    /// case of four, one setting is out of range.
    fn random_sweep_spec(picks: &[u64]) -> (Vec<String>, serde::Value) {
        let mut picks = picks.iter().copied();
        let mut pick = |n: u64| picks.next().expect("enough picks") % n;
        let broken = pick(4 * 6);
        let posts = 4 + pick(5);
        let solver = [
            "idb",
            "rfh",
            "irfh",
            "uniform",
            "sched-tour",
            "sched-place",
            "sched-bilevel",
        ][pick(7) as usize];
        let scenario =
            (pick(4) < if solver.starts_with("sched-") { 3 } else { 1 }).then(|| ScenarioSpec {
                battery_j: [0.002, 0.01, 0.1][pick(3) as usize],
                chargers: 1 + pick(3) as u32,
                charger_budget: 1 + pick(3) as u32,
                sa_iters: [20, 60][pick(2) as usize],
                seed: pick(3),
                ..ScenarioSpec::default()
            });
        let instance = InstanceParams {
            posts: if broken == 1 { 0 } else { posts as usize },
            nodes: if broken == 2 {
                2001
            } else {
                (posts * (2 + pick(3))) as u32
            },
            field: [150.0, 200.0, 300.0][pick(3) as usize],
            levels: 3 + pick(3) as usize,
            eta: if broken == 3 {
                1.5
            } else {
                [0.5, 0.8, 1.0][pick(3) as usize]
            },
            cap: (pick(3) == 0).then(|| 2 + pick(3) as u32),
            spec: None,
            scenario: match (broken, scenario) {
                (4, _) => Some(ScenarioSpec {
                    chargers: 0,
                    ..ScenarioSpec::default()
                }),
                (_, scenario) => scenario,
            },
        };
        let (seed_start, seeds) = match broken {
            5 => (pick(20), 0),
            6 => (u64::MAX - pick(2), 2 + pick(2)),
            _ => (pick(20), 1 + pick(3)),
        };
        let mut argv: Vec<String> = format!(
            "sweep --posts {} --nodes {} --field {} --levels {} --eta {} --algo {solver} \
             --seed-start {seed_start} --seeds {seeds} --no-timings --json",
            instance.posts, instance.nodes, instance.field, instance.levels, instance.eta
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        if let Some(cap) = instance.cap {
            argv.extend(["--cap".to_string(), cap.to_string()]);
        }
        if let Some(spec) = &instance.scenario {
            let json = serde_json::to_string(&spec.to_value()).unwrap();
            argv.extend(["--scenario".to_string(), json]);
        }
        let body = serde::Value::Object(vec![
            ("instance".to_string(), instance.to_value()),
            ("solver".to_string(), solver.to_value()),
            ("seed_start".to_string(), seed_start.to_value()),
            ("seeds".to_string(), seeds.to_value()),
        ]);
        (argv, body)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(80))]

        /// `wrsn sweep --json` and `/v1/sweep` give equal reports for one
        /// spec, or both reject it naming the same setting.
        #[test]
        fn cli_and_http_sweep_agree(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 24)
        ) {
            let (argv, body) = random_sweep_spec(&picks);
            let req = SweepRequest::from_value(&body).unwrap();
            let reparse = |text: &str| serde_json::from_str::<serde_json::Value>(text).unwrap();
            match (run(&argv), ApiContext::new().sweep_in(None, &req)) {
                (Ok(cli), Ok(http)) => {
                    let http = serde_json::to_string(&http.body).unwrap();
                    proptest::prop_assert_eq!(reparse(&cli), reparse(&http), "{:?}", argv);
                }
                (Err(cli), Err(http)) => {
                    // The HTTP message names the seed settings by key,
                    // the CLI's by flag.
                    let named: Vec<String> = http
                        .message
                        .split(' ')
                        .map(|word| match word {
                            "seed_start" | "seeds" => flag_of(word),
                            other => other.to_string(),
                        })
                        .collect();
                    proptest::prop_assert_eq!(cli.to_string(), named.join(" "), "{:?}", argv);
                }
                (cli, http) => panic!("{argv:?}: CLI {cli:?} but HTTP {http:?}"),
            }
        }
    }
}
