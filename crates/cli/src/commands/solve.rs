//! `wrsn solve`: co-design deployment and routing for one instance.

use super::{in_load, instance_params, non_geometric, save_instance, CliError};
use crate::args::Args;
use crate::render;
use serde::Serialize;
use std::fmt::Write as _;
use wrsn_engine::SolverRegistry;
use wrsn_serve::api::{solve_seed, SolveRequest};

pub(super) const HELP: &str = "\
wrsn solve — co-design deployment and routing

OPTIONS:
    --posts N       number of posts                      [default: 100]
    --nodes M       number of sensor nodes               [default: 400]
    --field S       square field side in meters          [default: 500]
    --seed K        RNG seed                             [default: 1]
    --levels k      number of 25 m power levels          [default: 3]
    --eta E         single-node charging efficiency      [default: 1.0]
    --cap C         max nodes per post                   [optional]
    --algo A        rfh | irfh | idb | bnb | exhaustive | uniform | lifetime
                    | sched-tour | sched-place | sched-bilevel
                                                         [default: irfh]
    --scenario J    charging-scenario JSON (ScenarioSpec) parameterizing
                    the sched-* solvers                  [optional]
    --draw          render the field map and routing tree as ASCII
    --save PATH     write the generated instance spec as JSON
    --load PATH     solve a saved instance spec instead of sampling
    --svg PATH      write the deployment + routing as an SVG figure
    --json          machine-readable output";

#[derive(Serialize)]
struct SolveReport {
    algorithm: String,
    posts: usize,
    nodes: u32,
    seed: u64,
    total_cost_uj: f64,
    deployment: Vec<u32>,
    parents: Vec<usize>,
}

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let draw = args.flag("draw");
    let svg: Option<String> = args.opt("svg", "a file path")?;
    let (instance, load) = instance_params(&mut args)?;
    let defaults = SolveRequest::default();
    let req = SolveRequest {
        instance,
        // `wrsn solve` starts at seed 1, a request body at seed 0.
        seed: args.get_or("seed", "an integer seed", 1)?,
        solver: args.get_or("algo", "an algorithm name", defaults.solver)?,
        ..defaults
    };
    let save: Option<String> = args.opt("save", "a file path")?;
    let json = args.flag("json");
    let registry = SolverRegistry::with_defaults();
    let (instance, solution) = solve_seed(&registry, &req.instance, &req.solver, req.seed)
        .map_err(|e| in_load(load.as_deref(), e))?;
    if let Some(path) = save {
        save_instance(&path, &instance)?;
    }
    args.finish()?;
    if let Some(path) = &svg {
        let geo = instance.geometry().ok_or_else(|| non_geometric("--svg"))?;
        let doc = render::render_svg(geo, &solution, 720);
        std::fs::write(path, doc).map_err(|e| CliError(format!("writing {path}: {e}")))?;
    }
    let report = SolveReport {
        algorithm: solution.algorithm().to_string(),
        posts: instance.num_posts(),
        nodes: instance.num_nodes(),
        seed: req.seed,
        total_cost_uj: solution.total_cost().as_ujoules(),
        deployment: solution.deployment().counts().to_vec(),
        parents: solution.tree().parents().to_vec(),
    };
    if json {
        return Ok(serde_json::to_string_pretty(&report).expect("serializable"));
    }
    let mut out = String::new();
    let _ = writeln!(out, "instance: {}", instance);
    let _ = writeln!(
        out,
        "{}: total recharging cost {}",
        report.algorithm,
        solution.total_cost()
    );
    let _ = writeln!(out, "deployment: {}", solution.deployment());
    let _ = writeln!(out, "routing:    {}", solution.tree());
    if draw {
        if let Some(geo) = instance.geometry() {
            let _ = writeln!(
                out,
                "
{}",
                render::render_field(geo, &solution, 64, 24)
            );
            let _ = writeln!(out, "{}", render::render_tree(&solution));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::run_str;

    #[test]
    fn solve_small_instance() {
        let out = run_str("solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb").unwrap();
        assert!(out.contains("total recharging cost"));
        assert!(out.contains("deployment["));
    }

    #[test]
    fn solve_draw_renders_map_and_tree() {
        let out =
            run_str("solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --draw").unwrap();
        assert!(out.contains("base station"));
        assert!(out.contains("BS\n") || out.contains("BS"));
        assert!(out.contains("post 0"));
    }

    #[test]
    fn solve_json_output_parses() {
        let out =
            run_str("solve --posts 5 --nodes 10 --field 150 --seed 2 --algo rfh --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["posts"], 5);
        assert_eq!(v["deployment"].as_array().unwrap().len(), 5);
    }

    #[test]
    fn solve_rejects_bad_algo_and_eta() {
        assert!(
            run_str("solve --algo magic --posts 5 --nodes 10 --field 150")
                .unwrap_err()
                .to_string()
                .contains("--algo")
        );
        assert!(run_str("solve --eta 2.0 --posts 5 --nodes 10 --field 150")
            .unwrap_err()
            .to_string()
            .contains("eta"));
    }

    #[test]
    fn solve_rejects_unknown_option() {
        let err = run_str("solve --posts 5 --nodes 10 --field 150 --bogus 1").unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn solve_writes_svg() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.svg");
        let _ = run_str(&format!(
            "solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --svg {}",
            path.display()
        ))
        .unwrap();
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert_eq!(svg.matches("<circle").count(), 6);
    }

    #[test]
    fn solve_save_and_load_reproduce_the_same_solution() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json");
        let a = run_str(&format!(
            "solve --posts 6 --nodes 12 --field 150 --seed 3 --algo idb --json --save {}",
            path.display()
        ))
        .unwrap();
        let b = run_str(&format!(
            "solve --algo idb --json --load {}",
            path.display()
        ))
        .unwrap();
        let va: serde_json::Value = serde_json::from_str(&a).unwrap();
        let vb: serde_json::Value = serde_json::from_str(&b).unwrap();
        assert_eq!(va["total_cost_uj"], vb["total_cost_uj"]);
        assert_eq!(va["deployment"], vb["deployment"]);
    }

    #[test]
    fn load_rejects_bad_spec() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-spec.json");
        std::fs::write(&path, "{\"posts\": []}").unwrap();
        let err = run_str(&format!("solve --load {}", path.display())).unwrap_err();
        assert!(err.to_string().contains("spec") || err.to_string().contains("parsing"));
    }

    #[test]
    fn solve_accepts_every_registry_algorithm() {
        for algo in wrsn_engine::SolverRegistry::with_defaults().names() {
            let out = run_str(&format!(
                "solve --posts 5 --nodes 10 --field 150 --seed 3 --algo {algo} --json"
            ))
            .unwrap();
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert!(v["total_cost_uj"].as_f64().unwrap() > 0.0, "{algo}");
        }
    }

    #[test]
    fn solve_rejects_infeasible_budget_without_panicking() {
        // 3 nodes cannot cover 5 posts; this used to panic in the sampler.
        let err = run_str("solve --posts 5 --nodes 3 --field 150").unwrap_err();
        assert!(err.to_string().contains("cannot cover"), "{err}");
    }
}
