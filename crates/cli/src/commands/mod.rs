//! The CLI subcommands, one module each. Every handler returns its
//! report as a string, so the whole surface is unit-testable without
//! spawning processes.

mod cache;
mod cluster;
mod fieldexp;
mod loadgen;
mod merge;
mod reduce;
mod serve;
mod simulate;
mod solve;
mod sweep;

use crate::args::{Args, ArgsError};
use serde::Deserialize as _;
use std::error::Error;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use wrsn_core::{Instance, InstanceSpec, ScenarioSpec};
use wrsn_engine::{
    DurabilityPolicy, EngineError, InstanceParams, ResultStore, RunReport, StoreOptions, Table,
};

/// Top-level usage text.
pub const USAGE: &str = "\
wrsn — wireless-rechargeable sensor network deployment & routing (ICDCS 2010)

USAGE:
    wrsn <command> [options]

COMMANDS:
    solve      co-design deployment and routing for a random instance
    sweep      run a solver over many seeds in parallel and report statistics
    merge      fold sharded sweep logs back into one report
    simulate   solve, then run the network in the discrete-event simulator
    fieldexp   replay the Section II RF charging field experiment
    reduce     reduce a 3-CNF DIMACS formula to a deployment instance (Section IV)
    serve      run the HTTP serving layer over the solver registry
    loadgen    drive a running server and report throughput/latency
    cache      maintain the content-addressed result store (gc)
    cluster    inspect a serve-cluster fleet (status)
    help       show this message (or `wrsn <command> --help`)

Run `wrsn <command> --help` for per-command options.";

/// A fatal CLI error: the message to print to stderr.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError(e.to_string())
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        match e {
            // Keep the flag name in the message so the fix is obvious.
            EngineError::UnknownSolver { name, known } => CliError(format!(
                "unknown --algo {name:?} (expected {})",
                known.join("|")
            )),
            EngineError::InvalidSetting { setting, problem } => {
                CliError(format!("{} {problem}", flag_of(setting)))
            }
            other => CliError(other.to_string()),
        }
    }
}

/// A subcommand's handler: its arguments in, its report out.
type Handler = fn(&[String]) -> Result<String, CliError>;

/// Every subcommand: its name, its `--help` text and its handler.
const COMMANDS: [(&str, &str, Handler); 10] = [
    ("solve", solve::HELP, solve::run),
    ("sweep", sweep::HELP, sweep::run),
    ("merge", merge::HELP, merge::run),
    ("simulate", simulate::HELP, simulate::run),
    ("fieldexp", fieldexp::HELP, fieldexp::run),
    ("reduce", reduce::HELP, reduce::run),
    ("serve", serve::HELP, serve::run),
    ("loadgen", loadgen::HELP, loadgen::run),
    ("cache", cache::HELP, cache::run),
    ("cluster", cluster::HELP, cluster::run),
];

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] carrying the message to print to stderr.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(USAGE.to_string());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    let Some((_, help, handler)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        return Err(CliError(format!("unknown command {command:?}\n\n{USAGE}")));
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(help.to_string());
    }
    handler(rest)
}

/// Reads the instance flags shared by `solve`, `sweep` and `simulate`,
/// and the `--load` spec, into the engine's [`InstanceParams`], so the
/// CLI and HTTP check them alike and resolve them to identical
/// instances (and cache keys). Also returns the `--load` path, which
/// [`in_load`] names in messages about its spec.
fn instance_params(args: &mut Args) -> Result<(InstanceParams, Option<String>), CliError> {
    let defaults = InstanceParams::default();
    let mut params = InstanceParams {
        posts: args.get_or("posts", "a post count", defaults.posts)?,
        nodes: args.get_or("nodes", "a node count", defaults.nodes)?,
        field: args.get_or("field", "meters", defaults.field)?,
        levels: args.get_or("levels", "a level count", defaults.levels)?,
        eta: args.get_or("eta", "an efficiency in (0,1]", defaults.eta)?,
        cap: args.opt("cap", "a per-post cap")?,
        spec: None,
        scenario: parse_scenario(args)?,
    };
    let load: Option<String> = args.opt("load", "a file path")?;
    if let Some(path) = &load {
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
        params.spec = Some(InstanceSpec::from_json(&text).map_err(|e| CliError(e.to_string()))?);
    }
    Ok((params, load))
}

/// `e` as the CLI reports it. An error of [`InstanceParams::source`]
/// (the only source of these three kinds before a sweep starts) names
/// the `--load` file when the instance came from one.
fn in_load(load: Option<&str>, e: EngineError) -> CliError {
    match (load, &e) {
        (
            Some(path),
            EngineError::InvalidRequest(_) | EngineError::Build(_) | EngineError::Spec(_),
        ) => CliError(format!("spec in {path}: {e}")),
        _ => CliError::from(e),
    }
}

/// Parses the `--scenario` flag (a [`ScenarioSpec`] JSON object) shared
/// by `solve`, `sweep`, and `simulate`.
fn parse_scenario(args: &mut Args) -> Result<Option<ScenarioSpec>, CliError> {
    let Some(text) = args.opt::<String>("scenario", "a scenario JSON object")? else {
        return Ok(None);
    };
    let value: serde::Value = serde_json::from_str(&text)
        .map_err(|e| CliError(format!("--scenario is not valid JSON: {e}")))?;
    ScenarioSpec::from_value(&value)
        .map(Some)
        .map_err(|e| CliError(format!("--scenario: {e}")))
}

/// `what` (`--save`, `--svg`) asked coordinates of an instance that has
/// explicit adjacency only.
fn non_geometric(what: &str) -> CliError {
    CliError(format!(
        "{what} needs a geometric instance, but this one has explicit adjacency only"
    ))
}

/// Writes `--save PATH`: the instance's spec as JSON.
fn save_instance(path: &str, instance: &Instance) -> Result<(), CliError> {
    let spec = InstanceSpec::from_instance(instance).ok_or_else(|| non_geometric("--save"))?;
    std::fs::write(path, spec.to_json()).map_err(|e| CliError(format!("writing {path}: {e}")))
}

/// The default result-store directory for a bare `--cache` flag.
const DEFAULT_CACHE_DIR: &str = "bench_results/cache";

/// Opens the result store behind `--cache [DIR]` under `durability`
/// (`serve --durability`; the default elsewhere).
fn open_cache(
    dir: Option<String>,
    durability: DurabilityPolicy,
) -> Result<Arc<ResultStore>, CliError> {
    let dir = dir.unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    let options = StoreOptions {
        durability,
        ..StoreOptions::default()
    };
    ResultStore::open_with(Path::new(&dir), options)
        .map(Arc::new)
        .map_err(|e| CliError(e.to_string()))
}

/// Renders a report as `sweep` and `merge` print it: the per-seed table
/// under `title`, the cost line, the caller's `notes`, then any failed
/// seeds out of `covered`.
fn render_runs(title: &str, report: &RunReport, notes: &str, covered: u64) -> String {
    let mut table = Table::new(title, &["seed", "cost (uJ)", "solve (ms)"]);
    for run in &report.runs {
        table.row(&[
            run.seed.to_string(),
            format!("{:.3}", run.cost_uj),
            format!("{:.2}", run.solve_ms),
        ]);
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "cost: mean {:.3} uJ, std {:.3}, min {:.3}, max {:.3}",
        report.cost_uj.mean, report.cost_uj.std_dev, report.cost_uj.min, report.cost_uj.max
    );
    out.push_str(notes);
    if !report.is_complete() {
        let _ = writeln!(
            out,
            "failed seeds ({} of {covered}):",
            report.failures.len()
        );
        for f in &report.failures {
            let _ = writeln!(
                out,
                "  seed {} after {} attempt(s): {}",
                f.seed, f.attempts, f.error
            );
        }
    }
    out
}

/// The flag that sets a spec setting: the key with `-` for `_`, except
/// where `wrsn simulate` names it otherwise. A sum of settings
/// (`seed_start + seeds`) names each.
fn flag_of(setting: &str) -> String {
    let flag = |key| match key {
        "battery_j" => "--battery".to_string(),
        "bits_per_report" => "--bits".to_string(),
        "speed_mps" => "--speed".to_string(),
        "power_w" => "--power".to_string(),
        other => format!("--{}", other.replace('_', "-")),
    };
    setting
        .split(" + ")
        .map(flag)
        .collect::<Vec<_>>()
        .join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn run_str(cmd: &str) -> Result<String, CliError> {
        run(&cmd.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run_str("help").unwrap().contains("COMMANDS"));
    }

    #[test]
    fn per_command_help() {
        for cmd in ["solve", "simulate", "fieldexp", "reduce"] {
            let out = run_str(&format!("{cmd} --help")).unwrap();
            assert!(out.contains("OPTIONS") || out.contains("options"), "{cmd}");
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    /// A fresh per-test scratch directory (cache stores compact on
    /// open, so leftovers from a previous run would skew hit counts).
    pub(super) fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wrsn-cli-test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn new_commands_have_help() {
        assert!(run_str("serve --help").unwrap().contains("--queue-depth"));
        assert!(run_str("loadgen --help").unwrap().contains("--concurrency"));
        assert!(run_str("cache --help").unwrap().contains("gc"));
        assert!(
            run_str("cache").unwrap().contains("gc"),
            "bare `cache` prints help"
        );
        assert!(run_str("cache frobnicate")
            .unwrap_err()
            .to_string()
            .contains("unknown cache subcommand"));
    }

    #[test]
    fn serve_and_loadgen_validate_their_options() {
        assert!(run_str("serve --workers 0")
            .unwrap_err()
            .to_string()
            .contains("--workers"));
        assert!(run_str("serve --queue-depth 0")
            .unwrap_err()
            .to_string()
            .contains("--queue-depth"));
        assert!(run_str("serve --addr not-an-address")
            .unwrap_err()
            .to_string()
            .contains("not-an-address"));
        // A rate that is not a finite number at least 0 would turn rate
        // limiting off.
        for rps in ["nan", "inf", "-1"] {
            let err = run_str(&format!("serve --default-rps {rps} --default-burst 1"));
            let err = err.unwrap_err().to_string();
            assert!(
                err.starts_with("--default-rps must be finite and non-negative"),
                "{rps}: {err}"
            );
        }
        assert!(run_str("loadgen --requests 0")
            .unwrap_err()
            .to_string()
            .contains("--requests"));
        // A dead server fails fast instead of producing an all-error report.
        assert!(run_str("loadgen --addr 127.0.0.1:9 --requests 1")
            .unwrap_err()
            .to_string()
            .contains("127.0.0.1:9"));
    }

    #[test]
    fn serve_and_loadgen_document_and_validate_the_new_flags() {
        assert!(run_str("serve --help").unwrap().contains("--max-conns"));
        let help = run_str("loadgen --help").unwrap();
        for flag in ["--connections", "--pipeline", "--job", "--bench-json"] {
            assert!(help.contains(flag), "missing {flag}");
        }
        assert!(run_str("serve --max-conns 0")
            .unwrap_err()
            .to_string()
            .contains("--max-conns"));
        assert!(run_str("serve --max-jobs 0")
            .unwrap_err()
            .to_string()
            .contains("--max-jobs"));
        assert!(run_str("serve --keep-alive-max-requests 0")
            .unwrap_err()
            .to_string()
            .contains("--keep-alive-max-requests"));
        assert!(run_str("loadgen --connections 0")
            .unwrap_err()
            .to_string()
            .contains("--connections"));
        assert!(run_str("loadgen --pipeline 0")
            .unwrap_err()
            .to_string()
            .contains("--pipeline"));
    }
}
