//! `wrsn reduce`: 3-CNF SAT to deployment and routing (the Section IV
//! gadget).

use super::CliError;
use crate::args::Args;
use serde::Serialize;
use std::fmt::Write as _;
use wrsn_core::reduction::reduce;
use wrsn_core::{BranchAndBound, Solver};
use wrsn_sat::{CnfFormula, DpllSolver};

pub(super) const HELP: &str = "\
wrsn reduce — 3-CNF SAT to deployment/routing (the NP-completeness gadget)

OPTIONS:
    --dimacs PATH   DIMACS CNF file (`-` for stdin)      [required]
    --solve         solve the gadget exactly and decode the assignment
    --json          machine-readable output";

#[derive(Serialize)]
struct ReduceReport {
    vars: usize,
    clauses: usize,
    posts: usize,
    nodes: u32,
    bound_w_nj: f64,
    dpll_satisfiable: bool,
    optimal_nj: Option<f64>,
    optimizer_satisfiable: Option<bool>,
    assignment: Option<Vec<bool>>,
}

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let path: String = args.require("dimacs", "a file path or -")?;
    let do_solve = args.flag("solve");
    let json = args.flag("json");
    args.finish()?;
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError(format!("reading stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(&path).map_err(|e| CliError(format!("reading {path}: {e}")))?
    };
    let formula = CnfFormula::parse_dimacs(&text).map_err(|e| CliError(format!("DIMACS: {e}")))?;
    let red = reduce(&formula).map_err(|e| CliError(format!("reduction: {e}")))?;
    let dpll = DpllSolver::new().is_satisfiable(&formula);
    let mut report = ReduceReport {
        vars: formula.num_vars(),
        clauses: formula.num_clauses(),
        posts: red.instance().num_posts(),
        nodes: red.instance().num_nodes(),
        bound_w_nj: red.cost_bound().as_njoules(),
        dpll_satisfiable: dpll,
        optimal_nj: None,
        optimizer_satisfiable: None,
        assignment: None,
    };
    if do_solve {
        let sol = BranchAndBound::new()
            .solve(red.instance())
            .map_err(|e| CliError(format!("solving gadget: {e}")))?;
        let meets = sol.total_cost().as_njoules() <= report.bound_w_nj * (1.0 + 1e-9);
        report.optimal_nj = Some(sol.total_cost().as_njoules());
        report.optimizer_satisfiable = Some(meets);
        if meets {
            report.assignment = Some(red.decode(&sol));
        }
    }
    if json {
        return Ok(serde_json::to_string_pretty(&report).expect("serializable"));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "formula: {} vars, {} clauses -> gadget with {} posts, {} nodes, W = {:.1} nJ",
        report.vars, report.clauses, report.posts, report.nodes, report.bound_w_nj
    );
    let verdict = |sat: bool| if sat { "SATISFIABLE" } else { "UNSATISFIABLE" };
    let _ = writeln!(out, "DPLL says: {}", verdict(dpll));
    if let (Some(opt), Some(meets)) = (report.optimal_nj, report.optimizer_satisfiable) {
        let bound = if meets { "<=" } else { ">" };
        let _ = writeln!(
            out,
            "optimizer: optimal cost {opt:.1} nJ {bound} W -> {}",
            verdict(meets)
        );
        if let Some(a) = &report.assignment {
            let pretty: Vec<String> = a
                .iter()
                .enumerate()
                .map(|(i, &v)| format!("x{}={}", i + 1, v))
                .collect();
            let _ = writeln!(out, "assignment: {}", pretty.join(", "));
        }
        if meets != dpll {
            let _ = writeln!(
                out,
                "WARNING: optimizer and DPLL disagree — please report a bug"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::run_str;

    #[test]
    fn reduce_from_file_and_solve() {
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.cnf");
        std::fs::write(&path, "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n").unwrap();
        let out = run_str(&format!("reduce --dimacs {} --solve", path.display())).unwrap();
        assert!(out.contains("SATISFIABLE"));
        assert!(out.contains("assignment:"));
        assert!(!out.contains("WARNING"));
        let json = run_str(&format!(
            "reduce --dimacs {} --solve --json",
            path.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["dpll_satisfiable"], v["optimizer_satisfiable"]);
    }

    #[test]
    fn reduce_rejects_missing_file_and_bad_dimacs() {
        assert!(run_str("reduce --dimacs /definitely/not/here.cnf")
            .unwrap_err()
            .to_string()
            .contains("reading"));
        let dir = std::env::temp_dir().join("wrsn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.cnf");
        std::fs::write(&path, "not dimacs at all").unwrap();
        assert!(run_str(&format!("reduce --dimacs {}", path.display()))
            .unwrap_err()
            .to_string()
            .contains("DIMACS"));
    }
}
