//! `wrsn fieldexp`: replay the Section II RF charging field experiment.

use super::CliError;
use crate::args::Args;
use serde::Serialize;
use std::fmt::Write as _;
use wrsn_charging::FieldExperiment;

pub(super) const HELP: &str = "\
wrsn fieldexp — replay the Section II field experiment

OPTIONS:
    --seed K        RNG seed for measurement noise       [default: 42]
    --trials T      trials per grid cell                 [default: 40]
    --json          machine-readable output";

#[derive(Serialize)]
struct FieldExpRow {
    spacing_cm: f64,
    distance_cm: f64,
    sensors: u32,
    per_node_power_mw: f64,
    network_efficiency: f64,
}

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let seed: u64 = args.get_or("seed", "an integer seed", 42)?;
    let trials: u32 = args.get_or("trials", "a trial count", 40)?;
    let json = args.flag("json");
    args.finish()?;
    if trials == 0 {
        return Err(CliError("--trials must be at least 1".into()));
    }
    let exp = FieldExperiment::default();
    let (sensors, distances, spacings) = FieldExperiment::table_ii_grid();
    let mut rows = Vec::new();
    for &sp in &spacings {
        for &d in &distances {
            for &m in &sensors {
                let o = exp.observe(m, d, sp, trials, seed);
                rows.push(FieldExpRow {
                    spacing_cm: sp,
                    distance_cm: d,
                    sensors: m,
                    per_node_power_mw: o.per_node_power_mw,
                    network_efficiency: o.network_efficiency,
                });
            }
        }
    }
    if json {
        return Ok(serde_json::to_string_pretty(&rows).expect("serializable"));
    }
    let mut out = String::new();
    for &sp in &spacings {
        let _ = writeln!(out, "spacing {sp} cm — per-node received power (mW):");
        let _ = write!(out, "{:>10}", "distance");
        for &m in &sensors {
            let _ = write!(out, "{:>9}", format!("m={m}"));
        }
        let _ = writeln!(out);
        for &d in &distances {
            let _ = write!(out, "{:>10}", format!("{d:.0} cm"));
            for &m in &sensors {
                let row = rows
                    .iter()
                    .find(|r| r.spacing_cm == sp && r.distance_cm == d && r.sensors == m)
                    .expect("full grid");
                let _ = write!(out, "{:>9.4}", row.per_node_power_mw);
            }
            let _ = writeln!(out);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::run_str;

    #[test]
    fn fieldexp_produces_grid() {
        let out = run_str("fieldexp --trials 5 --seed 1").unwrap();
        assert!(out.contains("spacing 5 cm"));
        assert!(out.contains("spacing 10 cm"));
        let json = run_str("fieldexp --trials 5 --json").unwrap();
        let rows: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(rows.as_array().unwrap().len(), 40);
    }
}
