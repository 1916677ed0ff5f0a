//! Structured run reports: per-seed measurements, summary statistics,
//! and JSON dumps for `bench_results/`.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use wrsn_store::CacheStats;

/// Mean of a sample (0 for an empty one).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two points).
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    // An all-equal sample has exactly zero deviation; computing it
    // through the mean would round (5 identical costs summed and
    // divided by 5 can land one ulp off, giving std_dev ~1e-16).
    if xs.iter().all(|&x| x == xs[0]) {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Mean / sample standard deviation / extremes of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SummaryStats {
    /// Sample mean (0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two points).
    pub std_dev: f64,
    /// Smallest value (0 for an empty sample).
    pub min: f64,
    /// Largest value (0 for an empty sample).
    pub max: f64,
}

impl SummaryStats {
    /// Summarizes a sample.
    #[must_use]
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return SummaryStats {
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        SummaryStats {
            mean: mean(xs),
            std_dev: std_dev(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// One seed's measurements inside a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedRun {
    /// The seed.
    pub seed: u64,
    /// Total recharging cost of the returned solution, in microjoules.
    pub cost_uj: f64,
    /// Wall-clock spent materializing the instance, in milliseconds.
    pub setup_ms: f64,
    /// Wall-clock spent inside the solver, in milliseconds.
    pub solve_ms: f64,
    /// Attempts this seed took under the sweep's retry policy (1 when it
    /// succeeded first try).
    #[serde(default = "one_attempt")]
    pub attempts: u32,
    /// Per-improvement cost trace in microjoules (empty unless the
    /// experiment captured history; one entry per RFH iteration).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub cost_history_uj: Vec<f64>,
}

fn one_attempt() -> u32 {
    1
}

/// A seed that exhausted its retry budget inside a fault-tolerant sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedFailure {
    /// The failing seed.
    pub seed: u64,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// The final error (or panic message), rendered as text.
    pub error: String,
}

/// The structured result of one experiment: per-seed runs plus summary
/// statistics and per-phase wall-clock totals, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunReport {
    /// Free-form experiment label.
    pub label: String,
    /// The registry name of the solver that ran.
    pub solver: String,
    /// Per-seed measurements, in seed order.
    pub runs: Vec<SeedRun>,
    /// Seeds that failed every attempt, in seed order — partial results
    /// are reported honestly instead of being dropped.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub failures: Vec<SeedFailure>,
    /// Summary of `runs[..].cost_uj`.
    pub cost_uj: SummaryStats,
    /// Total wall-clock spent materializing instances, in milliseconds.
    pub setup_ms_total: f64,
    /// Total wall-clock spent inside solvers, in milliseconds.
    pub solve_ms_total: f64,
    /// Result-store hit/miss/append counts when the sweep ran against a
    /// cache; absent otherwise, so uncached reports stay byte-stable.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cache: Option<CacheStats>,
}

impl RunReport {
    /// Assembles a report from per-seed runs, computing the summaries.
    #[must_use]
    pub fn from_runs(label: String, solver: String, runs: Vec<SeedRun>) -> Self {
        RunReport::from_outcomes(label, solver, runs, Vec::new())
    }

    /// Assembles a report from per-seed runs plus the seeds that failed,
    /// computing the summaries over the successful runs only.
    #[must_use]
    pub fn from_outcomes(
        label: String,
        solver: String,
        runs: Vec<SeedRun>,
        failures: Vec<SeedFailure>,
    ) -> Self {
        let costs: Vec<f64> = runs.iter().map(|r| r.cost_uj).collect();
        // Folded from +0.0: `Iterator::sum` starts from -0.0, which an
        // empty sweep would print.
        let setup_ms_total = runs.iter().fold(0.0, |t, r| t + r.setup_ms);
        let solve_ms_total = runs.iter().fold(0.0, |t, r| t + r.solve_ms);
        RunReport {
            label,
            solver,
            cost_uj: SummaryStats::of(&costs),
            setup_ms_total,
            solve_ms_total,
            runs,
            failures,
            cache: None,
        }
    }

    /// Whether every seed of the sweep completed successfully.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total attempts across all seeds (successful and failed) — equal
    /// to the seed count when nothing was retried.
    #[must_use]
    pub fn total_attempts(&self) -> u64 {
        self.runs.iter().map(|r| u64::from(r.attempts)).sum::<u64>()
            + self
                .failures
                .iter()
                .map(|f| u64::from(f.attempts))
                .sum::<u64>()
    }

    /// Per-seed costs in seed order, in microjoules.
    #[must_use]
    pub fn costs_uj(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.cost_uj).collect()
    }

    /// Mean solver wall-clock per seed, in milliseconds.
    #[must_use]
    pub fn mean_solve_ms(&self) -> f64 {
        mean(&self.runs.iter().map(|r| r.solve_ms).collect::<Vec<_>>())
    }

    /// Mean cost history across seeds, per iteration index — the series
    /// the paper's Fig. 6 plots. Averages over the seeds whose history
    /// reaches each index, so ragged histories are handled.
    #[must_use]
    pub fn mean_history_uj(&self) -> Vec<f64> {
        let longest = self
            .runs
            .iter()
            .map(|r| r.cost_history_uj.len())
            .max()
            .unwrap_or(0);
        (0..longest)
            .map(|i| {
                let at_i: Vec<f64> = self
                    .runs
                    .iter()
                    .filter_map(|r| r.cost_history_uj.get(i).copied())
                    .collect();
                mean(&at_i)
            })
            .collect()
    }

    /// Pretty JSON for `--json` output and `bench_results/` dumps.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is always serializable")
    }

    /// Writes the report to `bench_results/<name>.json` (see
    /// [`save_json`]).
    pub fn save(&self, name: &str) {
        save_json(name, self);
    }
}

/// Writes `rows` as pretty JSON to `bench_results/<name>.json` under the
/// workspace root, creating the directory if needed. Failures are
/// reported to stderr but do not abort the caller (the printed table is
/// the primary artifact of a bench run).
pub fn save_json<T: Serialize>(name: &str, rows: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(rows) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/engine; results live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("bench_results")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, cost: f64, history: Vec<f64>) -> SeedRun {
        SeedRun {
            seed,
            cost_uj: cost,
            setup_ms: 1.0,
            solve_ms: 2.0,
            attempts: 1,
            cost_history_uj: history,
        }
    }

    #[test]
    fn statistics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_stats_cover_extremes_and_empty() {
        let s = SummaryStats::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let empty = SummaryStats::of(&[]);
        assert_eq!(empty.min, 0.0);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn report_aggregates_runs() {
        let report = RunReport::from_runs(
            "demo".into(),
            "idb".into(),
            vec![run(0, 2.0, vec![]), run(1, 4.0, vec![])],
        );
        assert_eq!(report.cost_uj.mean, 3.0);
        assert_eq!(report.costs_uj(), vec![2.0, 4.0]);
        assert_eq!(report.setup_ms_total, 2.0);
        assert_eq!(report.solve_ms_total, 4.0);
        assert_eq!(report.mean_solve_ms(), 2.0);
    }

    #[test]
    fn mean_history_averages_per_index_and_handles_ragged() {
        let report = RunReport::from_runs(
            "demo".into(),
            "irfh".into(),
            vec![
                run(0, 1.0, vec![4.0, 2.0, 1.0]),
                run(1, 3.0, vec![6.0, 4.0]),
            ],
        );
        assert_eq!(report.mean_history_uj(), vec![5.0, 3.0, 1.0]);
        let no_history = RunReport::from_runs("x".into(), "idb".into(), vec![run(0, 1.0, vec![])]);
        assert!(no_history.mean_history_uj().is_empty());
    }

    #[test]
    fn json_roundtrips_and_skips_empty_history() {
        let report = RunReport::from_runs(
            "demo".into(),
            "idb".into(),
            vec![run(0, 2.0, vec![]), run(1, 4.0, vec![4.5, 4.0])],
        );
        let json = report.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["solver"], "idb");
        assert_eq!(v["runs"].as_array().unwrap().len(), 2);
        assert!(v["runs"][0].get("cost_history_uj").is_none());
        assert_eq!(v["runs"][1]["cost_history_uj"].as_array().unwrap().len(), 2);
        assert_eq!(v["cost_uj"]["mean"], 3.0);
    }

    #[test]
    fn failures_are_reported_and_counted() {
        let report = RunReport::from_outcomes(
            "demo".into(),
            "idb".into(),
            vec![run(0, 2.0, vec![])],
            vec![SeedFailure {
                seed: 1,
                attempts: 3,
                error: "solver exploded".into(),
            }],
        );
        assert!(!report.is_complete());
        assert_eq!(report.total_attempts(), 4);
        // Failed seeds do not pollute the cost summary.
        assert_eq!(report.cost_uj.mean, 2.0);
        let v: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(v["failures"][0]["seed"], 1);
        assert_eq!(v["failures"][0]["attempts"], 3);
        // A clean report omits the failures key entirely.
        let clean = RunReport::from_runs("demo".into(), "idb".into(), vec![run(0, 2.0, vec![])]);
        assert!(clean.is_complete());
        let v: serde_json::Value = serde_json::from_str(&clean.to_json()).unwrap();
        assert!(v.get("failures").is_none());
    }

    #[test]
    fn a_report_with_no_runs_totals_positive_zero() {
        let failure = SeedFailure {
            seed: 0,
            attempts: 1,
            error: "search space too large".into(),
        };
        let report = RunReport::from_outcomes("x".into(), "x".into(), Vec::new(), vec![failure]);
        for total in [report.setup_ms_total, report.solve_ms_total] {
            assert_eq!(total.to_bits(), 0.0f64.to_bits());
        }
        assert!(!report.to_json().contains("-0.0"));
    }

    #[test]
    fn seed_run_round_trips_through_json() {
        let original = run(4, 3.5, vec![5.0, 4.0]);
        let json = serde_json::to_string(&original).unwrap();
        let back: SeedRun = serde_json::from_str(&json).unwrap();
        assert_eq!(back, original);
        // Older checkpoints without an attempts field default to 1.
        let legacy: SeedRun = serde_json::from_str(
            "{\"seed\": 2, \"cost_uj\": 1.0, \"setup_ms\": 0.0, \"solve_ms\": 0.0}",
        )
        .unwrap();
        assert_eq!(legacy.attempts, 1);
        assert!(legacy.cost_history_uj.is_empty());
    }

    #[test]
    fn save_json_writes_file() {
        save_json("engine-selftest", &vec![1, 2, 3]);
        let path = results_dir().join("engine-selftest.json");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('2'));
        let _ = std::fs::remove_file(path);
    }
}
