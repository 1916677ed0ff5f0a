//! The async job API: bounded background sweeps with incremental
//! progress and restart-surviving durability.
//!
//! `POST /v1/jobs` accepts the same body as `/v1/sweep` but returns a
//! job id immediately (`202`); the sweep runs on its own named thread
//! via [`ApiContext::sweep_job_in`], publishing every terminal
//! seed to a [`ProgressFeed`]. Clients poll `GET /v1/jobs/{id}` for
//! state and the final report, or `GET /v1/jobs/{id}/events?since=N`
//! for the incremental event stream (cursor-based, so polling is
//! idempotent and lossless). The final report is byte-identical to
//! what a synchronous `/v1/sweep` with the same spec returns.
//!
//! When the server has a result store (`--cache`), every job is also
//! durable: the spec is journaled to `{store}/jobs/job-NNNNNNNN.json`
//! before the `202` is sent, the sweep streams a checkpoint next to it,
//! and the journal is atomically rewritten with the final report when
//! the job finishes. On startup [`restore`] replays that directory —
//! finished journals are reloaded so late polls still answer, and
//! `running` journals (a crash mid-sweep) are respawned with resume, so
//! `GET /v1/jobs/{id}` survives a `kill -9` with a report byte-identical
//! to an uninterrupted run.
//!
//! Concurrency is bounded by [`crate::server::ServerConfig::max_jobs`];
//! submissions past the cap are rejected with `503` + `Retry-After`,
//! the same admission contract the request queue uses.

use crate::api::{ApiContext, SweepRequest};
use crate::dispatch::json_response;
use crate::http::{Request, Response};
use crate::server::Shared;
use crate::signal;
use parking_lot::Mutex;
use serde::{Deserialize as _, Serialize as _, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use wrsn_engine::{write_log_on, ProgressFeed, StoreError, Vfs};

/// Finished jobs kept for late polls; the oldest finished entry is
/// evicted past this.
const FINISHED_RETENTION: usize = 64;

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Running,
    Done,
    Failed,
}

impl JobPhase {
    fn as_str(self) -> &'static str {
        match self {
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
        }
    }
}

#[derive(Debug)]
struct JobState {
    phase: JobPhase,
    report: Option<Value>,
    error: Option<String>,
}

/// One submitted job: its spec, progress feed, and terminal state.
#[derive(Debug)]
struct JobEntry {
    id: u64,
    total: u64,
    /// The tenant cache namespace the job runs under, captured at
    /// submit so a restart (where tenant indices may differ) resumes
    /// with identical cache fingerprints.
    namespace: Option<String>,
    request: SweepRequest,
    feed: Arc<ProgressFeed>,
    state: Mutex<JobState>,
}

/// Where and how jobs are journaled: beside the result store, through
/// its filesystem and under its fsync discipline.
#[derive(Debug)]
pub(crate) struct Journal {
    /// The journal directory, `{store}/jobs`.
    pub dir: PathBuf,
    /// The store's filesystem.
    pub vfs: Arc<dyn Vfs>,
    /// Whether a journal write fsyncs the file and then the directory,
    /// as the store does under `--durability fsync`.
    pub durable: bool,
}

impl Journal {
    /// Writes job `id`'s journal document atomically, as a log of one
    /// line: a temp file renamed over the journal, so a crash leaves
    /// the old journal or the new one, never a torn half of each.
    fn write(&self, id: u64, value: &Value) -> Result<(), StoreError> {
        let path = journal_path(&self.dir, id);
        write_log_on(&*self.vfs, &path, value, &[], self.durable)
    }
}

/// The job table: id allocation, the concurrency cap, the journal, and
/// the handles shutdown joins.
#[derive(Debug)]
pub(crate) struct Jobs {
    capacity: usize,
    /// `None` runs jobs in-memory only, exactly the pre-durability
    /// behavior.
    journal: Option<Journal>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    resumed: AtomicU64,
    active: AtomicUsize,
    table: Mutex<Vec<Arc<JobEntry>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Jobs {
    /// An empty table admitting at most `capacity` concurrent jobs,
    /// journaling to `journal` when given.
    pub fn new(capacity: usize, journal: Option<Journal>) -> Self {
        Jobs {
            capacity: capacity.max(1),
            journal,
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            table: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The concurrent-job cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently running.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Jobs accepted since startup.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Jobs resumed from their journals at startup.
    pub fn resumed(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }

    fn get(&self, id: u64) -> Option<Arc<JobEntry>> {
        self.table
            .lock()
            .iter()
            .find(|e| e.id == id)
            .map(Arc::clone)
    }

    fn insert(&self, entry: Arc<JobEntry>) {
        let mut table = self.table.lock();
        table.push(entry);
        let finished = table
            .iter()
            .filter(|e| e.state.lock().phase != JobPhase::Running)
            .count();
        if finished > FINISHED_RETENTION {
            if let Some(idx) = table
                .iter()
                .position(|e| e.state.lock().phase != JobPhase::Running)
            {
                let evicted = table.remove(idx);
                // An evicted job can no longer be polled, so its
                // journal has nothing left to restore.
                if let Some(journal) = &self.journal {
                    let _ = std::fs::remove_file(journal_path(&journal.dir, evicted.id));
                    let _ = std::fs::remove_file(checkpoint_path(&journal.dir, evicted.id));
                }
            }
        }
    }

    /// Joins every job thread spawned so far (shutdown path).
    pub fn join_all(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn journal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:08}.json"))
}

fn checkpoint_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:08}.checkpoint.jsonl"))
}

/// The journal document for `entry` in its current state. `running`
/// journals carry the spec (enough to respawn); terminal journals add
/// the report or error so late polls survive a restart.
fn journal_value(entry: &JobEntry, state: &JobState) -> Value {
    let mut fields = vec![
        ("id".to_string(), entry.id.to_value()),
        (
            "state".to_string(),
            Value::String(state.phase.as_str().to_string()),
        ),
        ("total".to_string(), entry.total.to_value()),
        ("request".to_string(), entry.request.to_value()),
    ];
    if let Some(ns) = &entry.namespace {
        fields.push(("namespace".to_string(), Value::String(ns.clone())));
    }
    if let Some(error) = &state.error {
        fields.push(("error".to_string(), Value::String(error.clone())));
    }
    if let Some(report) = &state.report {
        fields.push(("report".to_string(), report.clone()));
    }
    Value::Object(fields)
}

/// `POST /v1/jobs`: validate the sweep spec, reserve a global slot and
/// a per-tenant slot, journal the spec, spawn the job thread, answer
/// `202` with the id.
pub(crate) fn submit(request: &Request, tenant: usize, shared: &Arc<Shared>) -> Response {
    let body = request.body_text();
    let parsed: Result<SweepRequest, _> = if body.trim().is_empty() {
        Ok(SweepRequest::default())
    } else {
        serde_json::from_str(&body)
    };
    let req = match parsed {
        Ok(req) => req,
        Err(e) => return Response::error(400, &format!("invalid request body: {e}")),
    };
    if let Err(e) = ApiContext::validate_sweep(&req) {
        return Response::error(e.status, &e.message);
    }
    if shared.stop.load(Ordering::SeqCst) || signal::shutdown_requested() {
        return Response::error(503, "server shutting down").header("Retry-After", "1");
    }
    let jobs = &shared.jobs;
    // Reserve the slot atomically so racing submits cannot overshoot.
    if jobs
        .active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| {
            (a < jobs.capacity).then_some(a + 1)
        })
        .is_err()
    {
        return Response::error(
            503,
            &format!("job capacity {} reached, try again", jobs.capacity),
        )
        .header("Retry-After", "1");
    }
    // The tenant's own slice of the job slots; release the global slot
    // if this tenant is already at its cap.
    let owner = shared.tenants.tenant(tenant);
    if !owner.try_reserve_job() {
        jobs.active.fetch_sub(1, Ordering::SeqCst);
        return Response::error(
            503,
            &format!("tenant job capacity {} reached, try again", owner.max_jobs),
        )
        .header("Retry-After", "1");
    }
    let id = jobs.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    jobs.submitted.fetch_add(1, Ordering::Relaxed);
    let feed = Arc::new(ProgressFeed::new(req.seeds));
    let entry = Arc::new(JobEntry {
        id,
        total: req.seeds,
        namespace: owner.namespace().map(str::to_string),
        request: req,
        feed: Arc::clone(&feed),
        state: Mutex::new(JobState {
            phase: JobPhase::Running,
            report: None,
            error: None,
        }),
    });
    // Journal before answering 202: once the client holds the id, a
    // crash must not forget the job. A journal failure downgrades the
    // job to in-memory-only rather than rejecting it.
    if let Some(journal) = &jobs.journal {
        let value = journal_value(&entry, &entry.state.lock());
        if let Err(e) = journal.write(id, &value) {
            eprintln!("wrsn-serve: job {id} journal write failed, job is not durable: {e}");
        }
    }
    jobs.insert(Arc::clone(&entry));
    let total = entry.total;
    let worker_shared = Arc::clone(shared);
    let worker_entry = Arc::clone(&entry);
    let spawned = std::thread::Builder::new()
        .name(format!("wrsn-serve-job-{id}"))
        .spawn(move || run_job(&worker_entry, Some(tenant), &worker_shared));
    match spawned {
        Ok(handle) => {
            let mut handles = jobs.handles.lock();
            // Reap finished threads opportunistically so a long-lived
            // server does not accumulate one JoinHandle per job ever
            // submitted; shutdown still joins whatever remains.
            handles.retain(|h| !h.is_finished());
            handles.push(handle);
        }
        // Thread exhaustion: run inline; the submit answer is late but
        // the job still completes and the contract holds.
        Err(_) => run_job(&entry, Some(tenant), shared),
    }
    let body = Value::Object(vec![
        ("id".to_string(), id.to_value()),
        (
            "state".to_string(),
            Value::String(JobPhase::Running.as_str().to_string()),
        ),
        ("total".to_string(), total.to_value()),
    ]);
    json_response(202, &body)
}

/// Runs one job to its terminal state and finalizes its journal.
/// `tenant` is `Some` for freshly submitted jobs (which hold a tenant
/// slot to release) and `None` for jobs respawned by [`restore`].
fn run_job(entry: &Arc<JobEntry>, tenant: Option<usize>, shared: &Arc<Shared>) {
    let checkpoint = shared
        .jobs
        .journal
        .as_ref()
        .map(|journal| checkpoint_path(&journal.dir, entry.id));
    let result = shared.api.sweep_job_in(
        entry.namespace.as_deref(),
        &entry.request,
        Some(Arc::clone(&entry.feed)),
        checkpoint.as_deref(),
    );
    {
        let mut state = entry.state.lock();
        match result {
            Ok(outcome) => {
                shared.metrics.add_cache(&outcome.cache);
                if let Some(tenant) = tenant {
                    shared.tenants.add_cache(tenant, &outcome.cache);
                }
                state.phase = JobPhase::Done;
                state.report = Some(outcome.body);
                entry.feed.finish(None);
            }
            Err(e) => {
                state.phase = JobPhase::Failed;
                state.error = Some(e.message.clone());
                entry.feed.finish(Some(e.message));
            }
        }
        // Rewrite the journal with the terminal state so a restart
        // serves the same poll answer, then drop the checkpoint — the
        // report is now the durable artifact.
        if let Some(journal) = &shared.jobs.journal {
            if let Err(e) = journal.write(entry.id, &journal_value(entry, &state)) {
                eprintln!("wrsn-serve: job {} journal finalize failed: {e}", entry.id);
            } else if let Some(checkpoint) = &checkpoint {
                let _ = std::fs::remove_file(checkpoint);
            }
        }
    }
    if let Some(tenant) = tenant {
        shared.tenants.tenant(tenant).release_job();
    }
    shared.jobs.active.fetch_sub(1, Ordering::SeqCst);
}

/// Replays the journal directory on startup: terminal journals are
/// reloaded so `GET /v1/jobs/{id}` keeps answering across restarts, and
/// `running` journals — jobs a crash or kill interrupted — are
/// respawned with their checkpoint so completed seeds replay instead of
/// recomputing. Unreadable journals are skipped with a warning; they
/// never block startup.
pub(crate) fn restore(shared: &Arc<Shared>) {
    let Some(dir) = shared.jobs.journal.as_ref().map(|j| j.dir.clone()) else {
        return;
    };
    let Ok(listing) = std::fs::read_dir(&dir) else {
        return;
    };
    let mut journals: Vec<PathBuf> = listing
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().is_some_and(|n| {
                let name = n.to_string_lossy();
                name.starts_with("job-") && name.ends_with(".json")
            })
        })
        .collect();
    journals.sort();
    let mut max_id = 0u64;
    for path in journals {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<Value>(&text).map_err(|e| e.to_string()));
        let value = match parsed {
            Ok(value) => value,
            Err(why) => {
                eprintln!(
                    "wrsn-serve: skipping unreadable job journal {}: {why}",
                    path.display()
                );
                continue;
            }
        };
        let Some(id) = value.get("id").and_then(Value::as_u64) else {
            continue;
        };
        let Some(request) = value
            .get("request")
            .and_then(|r| SweepRequest::from_value(r).ok())
        else {
            eprintln!(
                "wrsn-serve: skipping job journal {} without a sweep spec",
                path.display()
            );
            continue;
        };
        max_id = max_id.max(id);
        let total = value.get("total").and_then(Value::as_u64).unwrap_or(0);
        let namespace = value
            .get("namespace")
            .and_then(Value::as_str)
            .map(str::to_string);
        let phase = value.get("state").and_then(Value::as_str).unwrap_or("");
        let feed = Arc::new(ProgressFeed::new(total));
        match phase {
            "done" | "failed" => {
                let error = value
                    .get("error")
                    .and_then(Value::as_str)
                    .map(str::to_string);
                feed.finish(error.clone());
                let entry = Arc::new(JobEntry {
                    id,
                    total,
                    namespace,
                    request,
                    feed,
                    state: Mutex::new(JobState {
                        phase: if phase == "done" {
                            JobPhase::Done
                        } else {
                            JobPhase::Failed
                        },
                        report: value.get("report").cloned(),
                        error,
                    }),
                });
                shared.jobs.table.lock().push(entry);
            }
            "running" => {
                let entry = Arc::new(JobEntry {
                    id,
                    total,
                    namespace,
                    request,
                    feed,
                    state: Mutex::new(JobState {
                        phase: JobPhase::Running,
                        report: None,
                        error: None,
                    }),
                });
                shared.jobs.table.lock().push(Arc::clone(&entry));
                shared.jobs.active.fetch_add(1, Ordering::SeqCst);
                shared.jobs.resumed.fetch_add(1, Ordering::Relaxed);
                let worker_shared = Arc::clone(shared);
                let worker_entry = Arc::clone(&entry);
                let spawned = std::thread::Builder::new()
                    .name(format!("wrsn-serve-job-{id}"))
                    .spawn(move || run_job(&worker_entry, None, &worker_shared));
                match spawned {
                    Ok(handle) => shared.jobs.handles.lock().push(handle),
                    Err(_) => run_job(&entry, None, shared),
                }
            }
            other => {
                eprintln!(
                    "wrsn-serve: skipping job journal {} with unknown state {other:?}",
                    path.display()
                );
            }
        }
    }
    // Fresh ids continue past everything journaled so a restart never
    // reuses an id a client may still be polling.
    let _ = shared
        .jobs
        .next_id
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
            (cur < max_id).then_some(max_id)
        });
}

/// `GET /v1/jobs/{id}`: state, progress counters, and — once done —
/// the full sweep report (byte-identical to `/v1/sweep`).
pub(crate) fn poll(id: u64, shared: &Shared) -> Response {
    let Some(entry) = shared.jobs.get(id) else {
        return Response::error(404, "no such job");
    };
    let snapshot = entry.feed.progress();
    let state = entry.state.lock();
    // A journal-restored done entry has an empty feed; its work is
    // nonetheless complete, so report full progress.
    let done = if state.phase == JobPhase::Done {
        entry.total
    } else {
        snapshot.done
    };
    let mut fields = vec![
        ("id".to_string(), entry.id.to_value()),
        (
            "state".to_string(),
            Value::String(state.phase.as_str().to_string()),
        ),
        ("done".to_string(), done.to_value()),
        ("total".to_string(), entry.total.to_value()),
    ];
    if let Some(error) = &state.error {
        fields.push(("error".to_string(), Value::String(error.clone())));
    }
    if let Some(report) = &state.report {
        fields.push(("report".to_string(), report.clone()));
    }
    json_response(200, &Value::Object(fields))
}

/// `GET /v1/jobs/{id}/events?since=N`: the per-seed event stream from
/// cursor `N`, plus the next cursor to poll with.
pub(crate) fn events(id: u64, since: usize, shared: &Shared) -> Response {
    let Some(entry) = shared.jobs.get(id) else {
        return Response::error(404, "no such job");
    };
    let (next, events) = entry.feed.events_since(since);
    let phase = entry.state.lock().phase;
    let body = Value::Object(vec![
        ("id".to_string(), entry.id.to_value()),
        (
            "state".to_string(),
            Value::String(phase.as_str().to_string()),
        ),
        ("next".to_string(), next.to_value()),
        ("events".to_string(), Value::Array(events)),
    ]);
    json_response(200, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_engine::FaultFs;

    #[test]
    fn journal_writes_fsync_file_and_directory_only_under_fsync() {
        let dir = std::env::temp_dir().join(format!("wrsn-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let value = Value::Object(vec![("id".to_string(), 7u64.to_value())]);
        for (durable, fsyncs) in [(true, 2), (false, 0)] {
            let vfs = Arc::new(FaultFs::seeded(1));
            let journal = Journal {
                dir: dir.clone(),
                vfs: Arc::clone(&vfs) as Arc<dyn Vfs>,
                durable,
            };
            journal.write(7, &value).unwrap();
            assert_eq!(vfs.stats().snapshot().fsyncs, fsyncs, "durable: {durable}");
            let text = std::fs::read_to_string(journal_path(&dir, 7)).unwrap();
            assert_eq!(text, "{\"id\":7}\n");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
