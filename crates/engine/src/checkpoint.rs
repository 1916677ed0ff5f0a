//! Incremental sweep checkpoints as append-only JSONL shard logs.
//!
//! A checkpoint is a [`wrsn_store::jsonl`] log: line 1 is a header
//! carrying the experiment identity (label, solver, seed range, and the
//! shard slice when the sweep is sharded), every further line records
//! one completed [`SeedRun`] or [`SeedFailure`]. A running sweep holds a
//! [`CheckpointLog`] and appends one line per seed — O(1) per flush
//! instead of rewriting the whole file — while [`SweepCheckpoint::save`]
//! still offers the atomic whole-file rewrite used for compaction.
//!
//! On resume, completed seeds are skipped and failed seeds are retried,
//! so a resumed sweep converges to exactly the report an uninterrupted
//! run would have produced. Sharded sweeps write one log each;
//! [`merge_checkpoints`] folds the logs of a full shard set back into a
//! single checkpoint whose report is byte-identical to an unsharded run
//! (under `record_timings(false)`).
//!
//! Version-1 checkpoints (a single pretty-printed JSON document) are
//! still read transparently; saving always writes the JSONL format.

use crate::{EngineError, SeedFailure, SeedRun};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::Path;
use wrsn_store::jsonl::{self, LogWriter};
use wrsn_store::Vfs;

/// The checkpoint format version this build writes (it also reads v1).
pub const CHECKPOINT_VERSION: u32 = 2;

/// The in-memory state of a partially completed sweep, loadable from
/// and savable to a JSONL checkpoint/shard log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The experiment label the sweep was started with.
    pub label: String,
    /// The registry name of the solver being swept.
    pub solver: String,
    /// First seed of the sweep (inclusive).
    pub seed_start: u64,
    /// One past the last seed of the sweep.
    pub seed_end: u64,
    /// 1-based shard index when this log covers one shard of a sweep.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard_index: Option<u32>,
    /// Total shard count when this log covers one shard of a sweep.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard_count: Option<u32>,
    /// Completed per-seed runs, kept sorted by seed.
    pub runs: Vec<SeedRun>,
    /// Seeds that exhausted their retry budget, kept sorted by seed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub failures: Vec<SeedFailure>,
}

/// The JSONL header line: the checkpoint identity without its records.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointHeader {
    version: u32,
    label: String,
    solver: String,
    seed_start: u64,
    seed_end: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    shard_index: Option<u32>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    shard_count: Option<u32>,
}

fn checkpoint_err(path: &Path, e: impl std::fmt::Display) -> EngineError {
    EngineError::Checkpoint {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Wraps a run as a `{"run": …}` record line.
fn run_record(run: &SeedRun) -> Value {
    Value::Object(vec![("run".to_string(), run.to_value())])
}

/// Wraps a failure as a `{"failure": …}` record line.
fn failure_record(failure: &SeedFailure) -> Value {
    Value::Object(vec![("failure".to_string(), failure.to_value())])
}

/// Renders a shard slice for error messages.
fn shard_text(shard: Option<(u32, u32)>) -> String {
    match shard {
        Some((index, count)) => format!("shard {index}/{count}"),
        None => "an unsharded sweep".to_string(),
    }
}

impl SweepCheckpoint {
    /// An empty checkpoint for a sweep over `seeds`.
    #[must_use]
    pub fn new(label: impl Into<String>, solver: impl Into<String>, seeds: Range<u64>) -> Self {
        SweepCheckpoint {
            version: CHECKPOINT_VERSION,
            label: label.into(),
            solver: solver.into(),
            seed_start: seeds.start,
            seed_end: seeds.end,
            shard_index: None,
            shard_count: None,
            runs: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// The shard slice this checkpoint covers, if any.
    #[must_use]
    pub fn shard(&self) -> Option<(u32, u32)> {
        match (self.shard_index, self.shard_count) {
            (Some(index), Some(count)) => Some((index, count)),
            _ => None,
        }
    }

    fn header_value(&self) -> Value {
        CheckpointHeader {
            version: self.version,
            label: self.label.clone(),
            solver: self.solver.clone(),
            seed_start: self.seed_start,
            seed_end: self.seed_end,
            shard_index: self.shard_index,
            shard_count: self.shard_count,
        }
        .to_value()
    }

    fn record_values(&self) -> Vec<Value> {
        let mut records = Vec::with_capacity(self.runs.len() + self.failures.len());
        records.extend(self.runs.iter().map(run_record));
        records.extend(self.failures.iter().map(failure_record));
        records
    }

    /// Why the header cannot describe a sweep: an empty or inverted
    /// seed range, or a shard index outside `1..=count`.
    fn header_fault(&self) -> Option<String> {
        if self.seed_start >= self.seed_end {
            return Some(format!(
                "seed range {}..{} is empty",
                self.seed_start, self.seed_end
            ));
        }
        match (self.shard_index, self.shard_count) {
            (None, None) => None,
            (Some(index), Some(count)) if (1..=count).contains(&index) => None,
            (index, count) => Some(format!(
                "shard {}/{} is not a 1-based index within its count",
                index.map_or("-".to_string(), |i| i.to_string()),
                count.map_or("-".to_string(), |c| c.to_string()),
            )),
        }
    }

    /// Why `seed` cannot be a record of this sweep: outside its seed
    /// range, or outside its shard's round-robin slice.
    fn stray_seed(&self, seed: u64) -> Option<String> {
        if !(self.seed_start..self.seed_end).contains(&seed) {
            return Some(format!(
                "seed {seed} is outside the header's seeds {}..{}",
                self.seed_start, self.seed_end
            ));
        }
        let (index, count) = self.shard()?;
        ((seed - self.seed_start) % u64::from(count) != u64::from(index - 1))
            .then(|| format!("seed {seed} is not in shard {index}/{count}"))
    }

    /// Loads and validates a checkpoint file: the JSONL format this
    /// build writes, or transparently the version-1 whole-file JSON
    /// format. Duplicate records for a seed resolve to the last one.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] when the file cannot be read, is not
    /// a valid checkpoint, has an unknown format version, an empty or
    /// inverted seed range, a shard index outside `1..=count`, or a
    /// record outside the seed range or the shard's slice (naming its
    /// line, or its seed in the version-1 format).
    pub fn load(path: &Path) -> Result<Self, EngineError> {
        let bytes =
            std::fs::read(path).map_err(|e| checkpoint_err(path, format!("reading: {e}")))?;
        // A v1 checkpoint is one whole-file JSON document; a JSONL log
        // never parses as one (its header line lacks the records). Bytes
        // that are not UTF-8 are no v1 checkpoint: the log reader judges
        // them, line by line.
        let legacy = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| serde_json::from_str::<SweepCheckpoint>(text).ok());
        if let Some(mut legacy) = legacy {
            if legacy.version != 1 {
                return Err(checkpoint_err(
                    path,
                    format!(
                        "whole-file format version {} (this build reads 1)",
                        legacy.version
                    ),
                ));
            }
            if let Some(why) = legacy.header_fault() {
                return Err(checkpoint_err(path, why));
            }
            let seeds = legacy.runs.iter().map(|r| r.seed);
            let mut seeds = seeds.chain(legacy.failures.iter().map(|f| f.seed));
            if let Some(why) = seeds.find_map(|seed| legacy.stray_seed(seed)) {
                return Err(checkpoint_err(path, why));
            }
            legacy.version = CHECKPOINT_VERSION;
            return Ok(legacy);
        }
        let (header, records) =
            jsonl::read_log(path).map_err(|e| checkpoint_err(path, format!("parsing: {e}")))?;
        let header = CheckpointHeader::from_value(&header)
            .map_err(|e| checkpoint_err(path, format!("bad header: {e}")))?;
        if header.version != CHECKPOINT_VERSION {
            return Err(checkpoint_err(
                path,
                format!(
                    "format version {} (this build reads {CHECKPOINT_VERSION})",
                    header.version
                ),
            ));
        }
        let mut ckpt = SweepCheckpoint {
            version: header.version,
            label: header.label,
            solver: header.solver,
            seed_start: header.seed_start,
            seed_end: header.seed_end,
            shard_index: header.shard_index,
            shard_count: header.shard_count,
            runs: Vec::new(),
            failures: Vec::new(),
        };
        if let Some(why) = ckpt.header_fault() {
            return Err(checkpoint_err(path, format!("bad header: {why}")));
        }
        for (i, record) in records.iter().enumerate() {
            let line = i + 2; // 1-based; the header is line 1.
            let at_line = |why: String| checkpoint_err(path, format!("line {line}: {why}"));
            let Value::Object(pairs) = record else {
                return Err(at_line("not an object".into()));
            };
            let [(kind, payload)] = pairs.as_slice() else {
                return Err(at_line(
                    "expected exactly one of \"run\"/\"failure\"".into(),
                ));
            };
            let seed = match kind.as_str() {
                "run" => {
                    let run = SeedRun::from_value(payload).map_err(|e| at_line(e.to_string()))?;
                    let seed = run.seed;
                    ckpt.record_run(run);
                    seed
                }
                "failure" => {
                    let failure =
                        SeedFailure::from_value(payload).map_err(|e| at_line(e.to_string()))?;
                    let seed = failure.seed;
                    ckpt.record_failure(failure);
                    seed
                }
                other => return Err(at_line(format!("unknown record kind {other:?}"))),
            };
            if let Some(why) = ckpt.stray_seed(seed) {
                return Err(at_line(why));
            }
        }
        Ok(ckpt)
    }

    /// Atomically rewrites the checkpoint as a compacted JSONL log (temp
    /// file + rename), so a crash mid-write never leaves a truncated
    /// checkpoint behind. For O(1) per-seed flushes, open a
    /// [`CheckpointLog`] instead.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), EngineError> {
        jsonl::write_log(path, &self.header_value(), &self.record_values())
            .map_err(|e| checkpoint_err(path, e))
    }

    /// Rejects a checkpoint that belongs to a different experiment or a
    /// different shard slice of it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] naming the mismatching field.
    pub fn check_compatible(
        &self,
        solver: &str,
        seeds: &Range<u64>,
        shard: Option<(u32, u32)>,
        path: &Path,
    ) -> Result<(), EngineError> {
        let mismatch = if self.solver != solver {
            Some(format!(
                "was written for solver {:?}, not {solver:?}",
                self.solver
            ))
        } else if self.seed_start != seeds.start || self.seed_end != seeds.end {
            Some(format!(
                "covers seeds {}..{}, not {}..{}",
                self.seed_start, self.seed_end, seeds.start, seeds.end
            ))
        } else if self.shard() != shard {
            Some(format!(
                "was written by {}, not {}",
                shard_text(self.shard()),
                shard_text(shard)
            ))
        } else {
            None
        };
        match mismatch {
            Some(message) => Err(EngineError::Checkpoint {
                path: path.to_path_buf(),
                message,
            }),
            None => Ok(()),
        }
    }

    /// The seeds already completed successfully.
    #[must_use]
    pub fn completed_seeds(&self) -> BTreeSet<u64> {
        self.runs.iter().map(|r| r.seed).collect()
    }

    /// Records a completed run, keeping `runs` sorted by seed. A rerun
    /// of an already-recorded seed replaces the old entry.
    pub fn record_run(&mut self, run: SeedRun) {
        match self.runs.binary_search_by_key(&run.seed, |r| r.seed) {
            Ok(i) => self.runs[i] = run,
            Err(i) => self.runs.insert(i, run),
        }
    }

    /// Records a failed seed, keeping `failures` sorted by seed.
    pub fn record_failure(&mut self, failure: SeedFailure) {
        match self
            .failures
            .binary_search_by_key(&failure.seed, |f| f.seed)
        {
            Ok(i) => self.failures[i] = failure,
            Err(i) => self.failures.insert(i, failure),
        }
    }
}

/// An open checkpoint/shard log flushing one record line per completed
/// seed — O(1) per seed, where [`SweepCheckpoint::save`] rewrites the
/// whole file.
///
/// Opening compacts the current state into a fresh log (atomic whole-
/// file write), then appends from there; a crash mid-append loses at
/// most the seed in flight (the torn line is dropped on reload). In a
/// sweep the append is the second step of a seed's commit: after the
/// result store's put, before the sweep's observer hears of it (see
/// [`crate::SeedEvent`]).
#[derive(Debug)]
pub struct CheckpointLog {
    writer: LogWriter,
    /// Whether each append is fsynced (the `DurabilityPolicy::Fsync`
    /// per-batch discipline); the flush-only default matches the
    /// historical behavior.
    durable: bool,
}

impl CheckpointLog {
    /// Writes `state` as a compacted log at `path` (atomically) and
    /// opens it for appending.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] on any filesystem failure.
    pub fn open(path: &Path, state: &SweepCheckpoint) -> Result<Self, EngineError> {
        let writer = LogWriter::create(path, &state.header_value(), &state.record_values())
            .map_err(|e| checkpoint_err(path, e))?;
        Ok(CheckpointLog {
            writer,
            durable: false,
        })
    }

    /// [`CheckpointLog::open`] through an explicit [`Vfs`] (the seam
    /// disk-fault injection uses). With `durable`, the initial compact
    /// write and every subsequent append batch are fsynced, so a
    /// checkpointed seed survives power loss, not just process death.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] on any filesystem failure.
    pub fn open_on(
        vfs: &dyn Vfs,
        path: &Path,
        state: &SweepCheckpoint,
        durable: bool,
    ) -> Result<Self, EngineError> {
        let writer = LogWriter::create_on(
            vfs,
            path,
            &state.header_value(),
            &state.record_values(),
            durable,
        )
        .map_err(|e| checkpoint_err(path, e))?;
        Ok(CheckpointLog { writer, durable })
    }

    /// Appends one completed run and flushes it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] when the write fails.
    pub fn append_run(&mut self, run: &SeedRun) -> Result<(), EngineError> {
        let path = self.writer.path().to_path_buf();
        self.writer
            .append(&run_record(run))
            .map_err(|e| checkpoint_err(&path, e))?;
        if self.durable {
            self.writer.sync().map_err(|e| checkpoint_err(&path, e))?;
        }
        Ok(())
    }

    /// Appends one recorded failure and flushes it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] when the write fails.
    pub fn append_failure(&mut self, failure: &SeedFailure) -> Result<(), EngineError> {
        let path = self.writer.path().to_path_buf();
        self.writer
            .append(&failure_record(failure))
            .map_err(|e| checkpoint_err(&path, e))?;
        if self.durable {
            self.writer.sync().map_err(|e| checkpoint_err(&path, e))?;
        }
        Ok(())
    }
}

/// A point-in-time view of how far a sweep has progressed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Seeds that have reached a terminal state (completed or failed).
    pub done: u64,
    /// Total seeds the sweep covers.
    pub total: u64,
    /// Whether the producer has declared the sweep over.
    pub finished: bool,
    /// The sweep-level error, when it finished unsuccessfully.
    pub error: Option<String>,
}

/// An in-memory, thread-safe subscription to a running sweep's
/// per-seed progress — the live counterpart of a [`CheckpointLog`].
///
/// The producer publishes one event per terminal seed (completed or
/// failed), typically from the sweep's observer
/// ([`Experiment::on_seed`](crate::Experiment::on_seed)), so the feed
/// follows the checkpoint log line for line. Consumers poll with
/// [`events_since`] using a cursor, so a slow reader never blocks the
/// sweep and can catch up at its own pace. The producer calls
/// [`finish`] exactly once when the sweep is over.
///
/// [`events_since`]: ProgressFeed::events_since
/// [`finish`]: ProgressFeed::finish
#[derive(Debug)]
pub struct ProgressFeed {
    total: u64,
    state: Mutex<FeedState>,
}

#[derive(Debug, Default)]
struct FeedState {
    events: Vec<Value>,
    done: u64,
    finished: bool,
    error: Option<String>,
}

impl ProgressFeed {
    /// A fresh feed for a sweep over `total` seeds.
    #[must_use]
    pub fn new(total: u64) -> Self {
        ProgressFeed {
            total,
            state: Mutex::new(FeedState::default()),
        }
    }

    fn push(&self, seed: u64, status: &str, extra: Vec<(String, Value)>) {
        let mut state = self.state.lock();
        state.done += 1;
        let mut fields = vec![
            ("seed".to_string(), seed.to_value()),
            ("status".to_string(), Value::String(status.to_string())),
        ];
        fields.extend(extra);
        fields.push(("done".to_string(), state.done.to_value()));
        fields.push(("total".to_string(), self.total.to_value()));
        state.events.push(Value::Object(fields));
    }

    /// Publishes one completed seed.
    pub fn publish_run(&self, run: &SeedRun) {
        self.push(
            run.seed,
            "ok",
            vec![("cost_uj".to_string(), run.cost_uj.to_value())],
        );
    }

    /// Publishes one terminally failed seed.
    pub fn publish_failure(&self, failure: &SeedFailure) {
        self.push(
            failure.seed,
            "failed",
            vec![("error".to_string(), Value::String(failure.error.clone()))],
        );
    }

    /// Declares the sweep over; `error` carries the sweep-level failure
    /// when it did not complete cleanly. Idempotent (first call wins).
    pub fn finish(&self, error: Option<String>) {
        let mut state = self.state.lock();
        if !state.finished {
            state.finished = true;
            state.error = error;
        }
    }

    /// Events published at or after `cursor`, plus the cursor to resume
    /// from next time. A cursor past the end yields no events.
    #[must_use]
    pub fn events_since(&self, cursor: usize) -> (usize, Vec<Value>) {
        let state = self.state.lock();
        let start = cursor.min(state.events.len());
        (state.events.len(), state.events[start..].to_vec())
    }

    /// A snapshot of done/total and the terminal state.
    #[must_use]
    pub fn progress(&self) -> ProgressSnapshot {
        let state = self.state.lock();
        ProgressSnapshot {
            done: state.done,
            total: self.total,
            finished: state.finished,
            error: state.error.clone(),
        }
    }
}

/// Folds the shard logs of one sweep back into a single unsharded
/// checkpoint, equivalent to what an unsharded run would have written.
/// Each `(path, checkpoint)` pair is a loaded shard log; paths are only
/// used in error messages.
///
/// # Errors
///
/// [`EngineError::Checkpoint`] when the set is empty, the logs disagree
/// on label/solver/seed range, or two logs cover the same seed
/// (overlapping shards).
pub fn merge_checkpoints(
    parts: &[(std::path::PathBuf, SweepCheckpoint)],
) -> Result<SweepCheckpoint, EngineError> {
    let [(first_path, first), rest @ ..] = parts else {
        return Err(checkpoint_err(
            Path::new("<none>"),
            "no shard logs to merge",
        ));
    };
    let mut merged = SweepCheckpoint::new(
        first.label.clone(),
        first.solver.clone(),
        first.seed_start..first.seed_end,
    );
    for (path, part) in rest {
        if part.solver != first.solver {
            return Err(checkpoint_err(
                path,
                format!(
                    "solver {:?} does not match {:?} from {}",
                    part.solver,
                    first.solver,
                    first_path.display()
                ),
            ));
        }
        if part.label != first.label {
            return Err(checkpoint_err(
                path,
                format!(
                    "label {:?} does not match {:?} from {}",
                    part.label,
                    first.label,
                    first_path.display()
                ),
            ));
        }
        if (part.seed_start, part.seed_end) != (first.seed_start, first.seed_end) {
            return Err(checkpoint_err(
                path,
                format!(
                    "seed range {}..{} does not match {}..{} from {}",
                    part.seed_start,
                    part.seed_end,
                    first.seed_start,
                    first.seed_end,
                    first_path.display()
                ),
            ));
        }
    }
    let mut seen: std::collections::BTreeMap<u64, &std::path::PathBuf> =
        std::collections::BTreeMap::new();
    for (path, part) in parts {
        let seeds = part
            .runs
            .iter()
            .map(|r| r.seed)
            .chain(part.failures.iter().map(|f| f.seed));
        for seed in seeds {
            if let Some(earlier) = seen.insert(seed, path) {
                return Err(checkpoint_err(
                    path,
                    format!(
                        "seed {seed} already covered by {} (overlapping shards?)",
                        earlier.display()
                    ),
                ));
            }
        }
        for run in &part.runs {
            merged.record_run(run.clone());
        }
        for failure in &part.failures {
            merged.record_failure(failure.clone());
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> SeedRun {
        SeedRun {
            seed,
            cost_uj: seed as f64,
            setup_ms: 0.0,
            solve_ms: 0.0,
            attempts: 1,
            cost_history_uj: Vec::new(),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wrsn-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_through_disk() {
        let mut ckpt = SweepCheckpoint::new("demo", "idb", 3..9);
        ckpt.record_run(run(4));
        ckpt.record_run(run(3));
        ckpt.record_failure(SeedFailure {
            seed: 5,
            attempts: 2,
            error: "boom".into(),
        });
        let path = temp_path("roundtrip.json");
        ckpt.save(&path).unwrap();
        let back = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(
            back.completed_seeds().into_iter().collect::<Vec<_>>(),
            vec![3, 4]
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn saved_format_is_a_jsonl_log() {
        let mut ckpt = SweepCheckpoint::new("demo", "idb", 0..3);
        ckpt.record_run(run(1));
        let path = temp_path("format.jsonl");
        ckpt.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "header + one record:\n{text}");
        assert!(lines[0].contains("\"version\":2"));
        assert!(lines[1].starts_with("{\"run\":"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn incremental_log_appends_match_a_full_save() {
        let mut ckpt = SweepCheckpoint::new("demo", "idb", 0..4);
        ckpt.record_run(run(0));
        let path = temp_path("incremental.jsonl");
        let mut log = CheckpointLog::open(&path, &ckpt).unwrap();
        log.append_run(&run(1)).unwrap();
        log.append_failure(&SeedFailure {
            seed: 2,
            attempts: 1,
            error: "boom".into(),
        })
        .unwrap();
        drop(log);
        let back = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(back.runs.iter().map(|r| r.seed).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(back.failures.len(), 1);
        assert_eq!(back.failures[0].seed, 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn durable_log_fsyncs_every_append_batch() {
        let ckpt = SweepCheckpoint::new("demo", "idb", 0..4);
        let path = temp_path("durable.jsonl");
        let fs = wrsn_store::RealFs::new();
        let mut log = CheckpointLog::open_on(&fs, &path, &ckpt, true).unwrap();
        let after_open = fs.stats().snapshot().fsyncs;
        assert!(after_open >= 2, "compact write fsyncs file + directory");
        log.append_run(&run(0)).unwrap();
        log.append_run(&run(1)).unwrap();
        assert_eq!(
            fs.stats().snapshot().fsyncs,
            after_open + 2,
            "one fsync per append batch"
        );
        drop(log);
        // An injected fsync failure surfaces as a checkpoint error.
        let faulty = wrsn_store::FaultFs::seeded(5).fsync_errors(1.0);
        assert!(CheckpointLog::open_on(&faulty, &path, &ckpt, true).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn torn_final_append_loses_only_the_seed_in_flight() {
        let mut ckpt = SweepCheckpoint::new("demo", "idb", 0..4);
        ckpt.record_run(run(0));
        let path = temp_path("torn.jsonl");
        ckpt.save(&path).unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"run\": {\"se").unwrap();
        drop(file);
        let back = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(back.runs.iter().map(|r| r.seed).collect::<Vec<_>>(), [0]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bytes_that_are_not_utf8_are_a_torn_tail_or_a_named_line() {
        let mut ckpt = SweepCheckpoint::new("démo", "idb", 0..4);
        ckpt.record_run(run(0));
        ckpt.record_run(run(1));
        let path = temp_path("utf8.jsonl");
        ckpt.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        // A crash mid-append that cut a character in two loses only the
        // seed in flight, as any torn append does.
        let mut torn = saved.clone();
        let record = "{\"run\": {\"label\": \"é".as_bytes();
        torn.extend_from_slice(&record[..record.len() - 1]);
        std::fs::write(&path, &torn).unwrap();
        let back = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            saved,
            "the torn bytes are cut"
        );
        // Elsewhere it is damage, named by line, not a failed read.
        let mut damaged = saved.clone();
        let line_2 = saved.iter().position(|&b| b == b'\n').unwrap() + 1;
        damaged[line_2 + 3] |= 0x80;
        std::fs::write(&path, &damaged).unwrap();
        let err = SweepCheckpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains(":2: invalid UTF-8 at byte 3"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn legacy_v1_whole_file_checkpoints_still_load() {
        let v1 = concat!(
            "{\n  \"version\": 1,\n  \"label\": \"demo\",\n  \"solver\": \"idb\",\n",
            "  \"seed_start\": 0,\n  \"seed_end\": 2,\n  \"runs\": [\n    {\n",
            "      \"seed\": 0,\n      \"cost_uj\": 5.0,\n      \"setup_ms\": 0.0,\n",
            "      \"solve_ms\": 0.0,\n      \"attempts\": 1\n    }\n  ]\n}\n"
        );
        let path = temp_path("legacy-v1.json");
        std::fs::write(&path, v1).unwrap();
        let back = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(back.version, CHECKPOINT_VERSION);
        assert_eq!(back.solver, "idb");
        assert_eq!(back.runs.len(), 1);
        assert_eq!(back.runs[0].cost_uj, 5.0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn runs_stay_sorted_and_reruns_replace() {
        let mut ckpt = SweepCheckpoint::new("demo", "idb", 0..4);
        ckpt.record_run(run(2));
        ckpt.record_run(run(0));
        ckpt.record_run(run(1));
        let mut rerun = run(1);
        rerun.attempts = 5;
        ckpt.record_run(rerun);
        let seeds: Vec<u64> = ckpt.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![0, 1, 2]);
        assert_eq!(ckpt.runs[1].attempts, 5);
    }

    #[test]
    fn mismatched_experiment_is_rejected() {
        let ckpt = SweepCheckpoint::new("demo", "idb", 0..4);
        let path = Path::new("ck.json");
        assert!(ckpt.check_compatible("idb", &(0..4), None, path).is_ok());
        let err = ckpt
            .check_compatible("rfh", &(0..4), None, path)
            .unwrap_err();
        assert!(err.to_string().contains("solver"));
        let err = ckpt
            .check_compatible("idb", &(0..5), None, path)
            .unwrap_err();
        assert!(err.to_string().contains("seeds"));
        let err = ckpt
            .check_compatible("idb", &(0..4), Some((1, 2)), path)
            .unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
        let mut sharded = ckpt.clone();
        sharded.shard_index = Some(1);
        sharded.shard_count = Some(2);
        assert!(sharded
            .check_compatible("idb", &(0..4), Some((1, 2)), path)
            .is_ok());
        let err = sharded
            .check_compatible("idb", &(0..4), Some((2, 2)), path)
            .unwrap_err();
        assert!(err.to_string().contains("shard 1/2"), "{err}");
    }

    #[test]
    fn unreadable_and_wrong_version_files_error() {
        let missing = temp_path("never-written.json");
        let _ = std::fs::remove_file(&missing);
        assert!(SweepCheckpoint::load(&missing).is_err());
        let garbled = temp_path("garbled.json");
        std::fs::write(&garbled, "not json").unwrap();
        assert!(SweepCheckpoint::load(&garbled).is_err());
        let future = temp_path("future.json");
        std::fs::write(
            &future,
            "{\"version\": 99, \"label\": \"x\", \"solver\": \"idb\", \"seed_start\": 0, \"seed_end\": 1}\n",
        )
        .unwrap();
        let err = SweepCheckpoint::load(&future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Headers that describe no sweep, and records outside the
        // header's seeds or its shard's slice, name what is wrong.
        let header = |range: &str, shard: &str| {
            format!("{{\"version\": 2, \"label\": \"x\", \"solver\": \"idb\", {range}{shard}}}\n")
        };
        let range = "\"seed_start\": 0, \"seed_end\": 6";
        let record = |seed: u64| {
            format!(
                "{}\n",
                serde_json::to_string(&run_record(&run(seed))).unwrap()
            )
        };
        let stray = temp_path("stray.jsonl");
        for (text, want) in [
            (
                header("\"seed_start\": 10, \"seed_end\": 5", ""),
                "seed range 10..5 is empty",
            ),
            (
                header("\"seed_start\": 3, \"seed_end\": 3", ""),
                "seed range 3..3 is empty",
            ),
            (
                header(range, ", \"shard_index\": 0, \"shard_count\": 2"),
                "shard 0/2",
            ),
            (
                header(range, ", \"shard_index\": 3, \"shard_count\": 2"),
                "shard 3/2",
            ),
            (header(range, ", \"shard_index\": 1"), "shard 1/-"),
            (
                header(range, "") + &record(1) + &record(6),
                "line 3: seed 6 is outside",
            ),
            (
                header(range, ", \"shard_index\": 2, \"shard_count\": 3") + &record(4) + &record(2),
                "line 3: seed 2 is not in shard 2/3",
            ),
            (
                "{\"version\": 1, \"label\": \"x\", \"solver\": \"idb\", \"seed_start\": 10, \
                 \"seed_end\": 5, \"runs\": []}"
                    .to_string(),
                "seed range 10..5 is empty",
            ),
        ] {
            std::fs::write(&stray, &text).unwrap();
            let err = SweepCheckpoint::load(&stray).unwrap_err().to_string();
            assert!(err.contains(want), "{text}: {err}");
        }
        let _ = std::fs::remove_file(garbled);
        let _ = std::fs::remove_file(future);
        let _ = std::fs::remove_file(stray);
    }

    #[test]
    fn progress_feed_counts_events_and_cursors() {
        let feed = ProgressFeed::new(3);
        assert_eq!(feed.progress().done, 0);
        feed.publish_run(&run(0));
        feed.publish_failure(&SeedFailure {
            seed: 1,
            attempts: 2,
            error: "boom".into(),
        });
        let (next, events) = feed.events_since(0);
        assert_eq!(next, 2);
        assert_eq!(events.len(), 2);
        let first = serde_json::to_string(&events[0]).unwrap();
        assert!(first.contains("\"status\":\"ok\""), "{first}");
        assert!(first.contains("\"done\":1"), "{first}");
        assert!(first.contains("\"total\":3"), "{first}");
        let second = serde_json::to_string(&events[1]).unwrap();
        assert!(second.contains("\"status\":\"failed\""), "{second}");
        assert!(second.contains("\"error\":\"boom\""), "{second}");
        let (again, rest) = feed.events_since(next);
        assert_eq!(again, 2);
        assert!(rest.is_empty());
        // A cursor past the end is clamped, not a panic.
        assert!(feed.events_since(99).1.is_empty());
        let snap = feed.progress();
        assert_eq!((snap.done, snap.total, snap.finished), (2, 3, false));
        feed.finish(Some("halted".into()));
        feed.finish(None); // idempotent: first call wins
        let snap = feed.progress();
        assert!(snap.finished);
        assert_eq!(snap.error.as_deref(), Some("halted"));
    }

    #[test]
    fn merge_folds_disjoint_shards() {
        let mut a = SweepCheckpoint::new("demo", "idb", 0..4);
        a.shard_index = Some(1);
        a.shard_count = Some(2);
        a.record_run(run(0));
        a.record_run(run(2));
        let mut b = SweepCheckpoint::new("demo", "idb", 0..4);
        b.shard_index = Some(2);
        b.shard_count = Some(2);
        b.record_run(run(3));
        b.record_failure(SeedFailure {
            seed: 1,
            attempts: 1,
            error: "boom".into(),
        });
        let merged = merge_checkpoints(&[("a.jsonl".into(), a), ("b.jsonl".into(), b)]).unwrap();
        assert_eq!(
            merged.runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert_eq!(merged.failures.len(), 1);
        assert_eq!(merged.shard(), None);
    }

    #[test]
    fn merge_rejects_mismatch_and_overlap() {
        assert!(merge_checkpoints(&[]).is_err());
        let a = SweepCheckpoint::new("demo", "idb", 0..4);
        let b = SweepCheckpoint::new("demo", "rfh", 0..4);
        let err =
            merge_checkpoints(&[("a.jsonl".into(), a.clone()), ("b.jsonl".into(), b)]).unwrap_err();
        assert!(err.to_string().contains("solver"), "{err}");
        let mut c = SweepCheckpoint::new("demo", "idb", 0..4);
        c.record_run(run(1));
        let mut d = SweepCheckpoint::new("demo", "idb", 0..4);
        d.record_run(run(1));
        let err = merge_checkpoints(&[("c.jsonl".into(), c), ("d.jsonl".into(), d)]).unwrap_err();
        assert!(err.to_string().contains("seed 1"), "{err}");
        let e = SweepCheckpoint::new("demo", "idb", 0..5);
        let err = merge_checkpoints(&[("a.jsonl".into(), a), ("e.jsonl".into(), e)]).unwrap_err();
        assert!(err.to_string().contains("seed range"), "{err}");
    }
}
