//! `wrsn cache`: maintain the content-addressed result store.

use super::{open_cache, CliError, DEFAULT_CACHE_DIR};
use crate::args::Args;
use std::fmt::Write as _;
use std::path::Path;
use wrsn_engine::{cache_tag, DurabilityPolicy, ResultStore};

pub(super) const HELP: &str = "\
wrsn cache — maintain the content-addressed result store

SUBCOMMANDS:
    gc              drop entries unreachable from the current engine
                    version/fingerprint scheme, optionally enforce a
                    size budget (oldest entries evicted first), and
                    compact the store into a single segment
    verify          read-only health check: parse every live segment,
                    flag interior corruption and torn tails, count
                    quarantined files. Exits nonzero when any live
                    segment is corrupt (torn tails are repairable and
                    stay clean)

OPTIONS (gc):
    --cache [DIR]   store directory   [default dir: bench_results/cache]
    --max-bytes N   on-disk size budget after the unreachable pass
    --json          machine-readable GcReport output

OPTIONS (verify):
    --cache [DIR]   store directory   [default dir: bench_results/cache]
    --json          machine-readable VerifyReport output";

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = rest.split_first() else {
        return Ok(HELP.to_string());
    };
    match sub.as_str() {
        "gc" => cache_gc(Args::parse(rest.to_vec())?),
        "verify" => cache_verify(Args::parse(rest.to_vec())?),
        other => Err(CliError(format!(
            "unknown cache subcommand {other:?}\n\n{HELP}"
        ))),
    }
}

fn cache_verify(mut args: Args) -> Result<String, CliError> {
    let cache_arg = args.flag_or_value("cache");
    let json = args.flag("json");
    args.finish()?;
    let dir = cache_arg
        .flatten()
        .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    let report = ResultStore::verify_dir(Path::new(&dir)).map_err(|e| CliError(e.to_string()))?;
    let rendered = if json {
        serde_json::to_string_pretty(&report).expect("serializable")
    } else {
        let mut out = String::new();
        let _ = writeln!(out, "cache verify in {dir}:");
        for segment in &report.segments {
            let verdict = match &segment.error {
                Some(why) => format!("CORRUPT: {why}"),
                None if segment.torn_tail => "clean (torn tail, repairable)".to_string(),
                None => "clean".to_string(),
            };
            let _ = writeln!(
                out,
                "  {} — {} record(s), {} byte(s): {verdict}",
                segment.name, segment.records, segment.bytes
            );
        }
        let _ = writeln!(
            out,
            "  {} record(s), {} distinct key(s), {} quarantined file(s)",
            report.records, report.keys, report.quarantined
        );
        let _ = write!(
            out,
            "verdict: {}",
            if report.is_clean() {
                "clean"
            } else {
                "CORRUPT"
            }
        );
        out
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        // Nonzero exit so CI and scripts can gate on store health; the
        // report still lands on stderr via the error path.
        Err(CliError(rendered))
    }
}

fn cache_gc(mut args: Args) -> Result<String, CliError> {
    let cache_arg = args.flag_or_value("cache");
    let max_bytes: Option<u64> = args.opt("max-bytes", "a byte budget")?;
    let json = args.flag("json");
    args.finish()?;
    let store = open_cache(cache_arg.flatten(), DurabilityPolicy::default())?;
    let tag = cache_tag();
    let report = store
        .gc(|t| t == Some(tag.as_str()), max_bytes)
        .map_err(|e| CliError(e.to_string()))?;
    if json {
        return Ok(serde_json::to_string_pretty(&report).expect("serializable"));
    }
    let mut out = String::new();
    let _ = writeln!(out, "cache gc in {}:", store.dir().display());
    let _ = writeln!(
        out,
        "  kept {} entr{}, dropped {} unreachable + {} over budget",
        report.kept,
        if report.kept == 1 { "y" } else { "ies" },
        report.dropped_unreachable,
        report.dropped_for_budget,
    );
    let _ = writeln!(
        out,
        "  disk: {} -> {} bytes ({} reclaimed)",
        report.bytes_before,
        report.bytes_after,
        report.bytes_reclaimed()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::run_str;
    use serde::Serialize as _;

    #[test]
    fn cache_gc_reclaims_stale_entries() {
        let dir = std::env::temp_dir().join("wrsn-cli-cache-gc");
        let _ = std::fs::remove_dir_all(&dir);
        // Populate via a cached sweep, then add one entry under a stale tag.
        let _ = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3 \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        {
            let store = ResultStore::open(&dir).unwrap();
            let mut fp = wrsn_engine::FingerprintBuilder::new("wrsn-seedrun-v0");
            fp.push_str("stale");
            store
                .put_tagged(&fp.finish(), serde_json::from_str("{}").unwrap(), "old-tag")
                .unwrap();
        }
        let out = run_str(&format!("cache gc --cache {} --json", dir.display())).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["kept"], 3);
        assert_eq!(v["dropped_unreachable"], 1);
        assert_eq!(v["dropped_for_budget"], 0);
        // The kept entries still serve cache hits.
        let out = run_str(&format!(
            "sweep --posts 5 --nodes 10 --field 150 --algo idb --seeds 3 \
             --no-timings --json --cache {}",
            dir.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["cache"]["hits"], 3);
        // A zero budget clears everything and reports reclaimed bytes.
        let out = run_str(&format!(
            "cache gc --cache {} --max-bytes 0 --json",
            dir.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["kept"], 0);
        assert_eq!(v["dropped_for_budget"], 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_verify_reports_a_clean_and_a_corrupt_store() {
        let dir = std::env::temp_dir().join("wrsn-cli-cache-verify");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let store = ResultStore::open(&dir).unwrap();
            for i in 0..3u64 {
                let mut b = wrsn_engine::FingerprintBuilder::new("cli-verify");
                b.push_u64(i);
                store.put(&b.finish(), i.to_value()).unwrap();
            }
            store.sync().unwrap();
        }
        let out = run_str(&format!("cache verify --cache {}", dir.display())).unwrap();
        assert!(out.contains("verdict: clean"), "{out}");
        let json = run_str(&format!("cache verify --cache {} --json", dir.display())).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v.get("records").and_then(serde_json::Value::as_u64),
            Some(3)
        );
        // Mangle an interior record line; verify must now fail.
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .unwrap();
        let text = std::fs::read_to_string(&segment).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = "{broken".to_string();
        std::fs::write(&segment, format!("{}\n", lines.join("\n"))).unwrap();
        let err = run_str(&format!("cache verify --cache {}", dir.display())).unwrap_err();
        assert!(err.to_string().contains("CORRUPT"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
