//! `wrsn merge`: fold sharded sweep logs back into one report.

use super::{render_runs, CliError};
use crate::args::Args;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wrsn_engine::{merge_checkpoints, RunReport, SweepCheckpoint};

pub(super) const HELP: &str = "\
wrsn merge — fold sharded sweep logs back into one report

Shard logs are the checkpoint files written by `wrsn sweep --shard K/N
--checkpoint FILE`; merging the full shard set reproduces the report an
unsharded sweep would print (byte-identical under --no-timings).

OPTIONS:
    --logs A,B,...  comma-separated shard log paths            [required]
    --out PATH      also write the merged log as a checkpoint
    --json          machine-readable RunReport output";

/// `wrsn merge`: folds shard logs back into one report.
pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let logs: String = args.require("logs", "a comma-separated list of shard log paths")?;
    let json = args.flag("json");
    let out_path: Option<String> = args.opt("out", "a file path")?;
    args.finish()?;
    let mut parts: Vec<(PathBuf, SweepCheckpoint)> = Vec::new();
    for path in logs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let path = PathBuf::from(path);
        let ckpt = SweepCheckpoint::load(&path)?;
        parts.push((path, ckpt));
    }
    let merged = merge_checkpoints(&parts)?;
    if let Some(path) = &out_path {
        merged.save(Path::new(path))?;
    }
    let seed_start = merged.seed_start;
    let total = merged.seed_end - merged.seed_start;
    let covered = (merged.runs.len() + merged.failures.len()) as u64;
    let report = RunReport::from_outcomes(
        merged.label.clone(),
        merged.solver.clone(),
        merged.runs,
        merged.failures,
    );
    if json {
        // The same serialization path as `sweep --json`, so merging a
        // full shard set is byte-identical to an unsharded sweep.
        return Ok(report.to_json());
    }
    let mut notes = String::new();
    if covered < total {
        let _ = writeln!(
            notes,
            "WARNING: {} seed(s) of {seed_start}..{} missing — merge every shard log \
             to reproduce the full sweep",
            total - covered,
            seed_start + total
        );
    }
    let title = format!(
        "merge {} ({} of {} seeds from {} log(s))",
        report.solver,
        covered,
        total,
        parts.len()
    );
    Ok(render_runs(&title, &report, &notes, covered))
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{run_str, scratch};

    #[test]
    fn merge_of_shard_logs_matches_an_unsharded_sweep_byte_for_byte() {
        let dir = scratch("sweep-shards");
        let base = "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 5 \
                    --no-timings --json";
        let mut logs = Vec::new();
        for shard in ["1/3", "2/3", "3/3"] {
            let ck = dir.join(format!("shard-{}.jsonl", shard.replace('/', "-")));
            let _ = run_str(&format!(
                "{base} --shard {shard} --checkpoint {}",
                ck.display()
            ))
            .unwrap();
            logs.push(ck.display().to_string());
        }
        let merged = run_str(&format!("merge --logs {} --json", logs.join(","))).unwrap();
        let clean = run_str(base).unwrap();
        assert_eq!(
            merged, clean,
            "merged shards must reproduce the unsharded sweep"
        );
    }

    #[test]
    fn merge_human_output_warns_about_missing_shards() {
        let dir = scratch("sweep-partial-merge");
        let ck = dir.join("shard-1-2.jsonl");
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 4 \
             --shard 1/2 --checkpoint {}",
            ck.display()
        ))
        .unwrap();
        let out = run_str(&format!("merge --logs {}", ck.display())).unwrap();
        assert!(out.contains("== merge idb"), "{out}");
        assert!(out.contains("WARNING: 2 seed(s)"), "{out}");
    }

    #[test]
    fn merge_rejects_overlapping_logs_and_requires_logs() {
        let dir = scratch("sweep-overlap-merge");
        let ck = dir.join("full.jsonl");
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 2 --checkpoint {}",
            ck.display()
        ))
        .unwrap();
        let err = run_str(&format!("merge --logs {p},{p}", p = ck.display())).unwrap_err();
        assert!(err.to_string().contains("already covered"), "{err}");
        assert!(run_str("merge").unwrap_err().to_string().contains("--logs"));
        assert!(run_str("merge --help").unwrap().contains("--logs"));
    }
}
