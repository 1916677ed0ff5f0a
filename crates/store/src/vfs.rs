//! Injectable filesystem layer: every byte the store persists flows
//! through a [`Vfs`], so crash-recovery code can be executed — not just
//! reviewed — under deterministic storage faults.
//!
//! Two implementations:
//!
//! - [`RealFs`] — thin `std::fs` passthrough that counts fsyncs and
//!   real I/O errors into shared [`IoStats`];
//! - [`FaultFs`] — a seed-driven fault injector layered over the real
//!   filesystem: deterministic ENOSPC on appends, short (torn) writes,
//!   fsync failures, read errors, and a byte-budget crash point after
//!   which the "disk" goes away entirely. Replay-identical per seed,
//!   mirroring the simulator's `FaultPlan` and the server's
//!   `ChaosPolicy`.
//!
//! [`DurabilityPolicy`] names the fsync discipline a store runs under:
//! `flush` (the historical behavior — OS-buffered writes, fsync only on
//! explicit `sync()`) or `fsync` (fsync on segment seal, compaction
//! rewrite, and checkpoint append, plus directory fsyncs after
//! renames).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How aggressively persisted data is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// Writes are flushed to the OS but fsynced only on explicit
    /// `sync()` (segment data survives process death, not power loss).
    #[default]
    Flush,
    /// fsync on segment seal, compaction rewrite, store flush, and
    /// checkpoint append; directory fsyncs after renames.
    Fsync,
}

impl DurabilityPolicy {
    /// Parses `"flush"` / `"fsync"` (as accepted by `serve
    /// --durability`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "flush" => Some(DurabilityPolicy::Flush),
            "fsync" => Some(DurabilityPolicy::Fsync),
            _ => None,
        }
    }

    /// The canonical flag spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DurabilityPolicy::Flush => "flush",
            DurabilityPolicy::Fsync => "fsync",
        }
    }

    /// Whether the policy fsyncs at commit points.
    #[must_use]
    pub fn is_fsync(self) -> bool {
        self == DurabilityPolicy::Fsync
    }
}

/// Cumulative I/O counters a [`Vfs`] maintains — surfaced on
/// `/statusz` as the `io` section.
#[derive(Debug, Default)]
pub struct IoStats {
    fsyncs: AtomicU64,
    real_errors: AtomicU64,
    injected_errors: AtomicU64,
    quarantined: AtomicU64,
}

impl IoStats {
    /// Records one successful fsync (file or directory).
    pub fn note_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one genuine filesystem failure.
    pub fn note_real_error(&self) {
        self.real_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injected failure (fault-injection runs only).
    pub fn note_injected_error(&self) {
        self.injected_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one segment moved aside as corrupt.
    pub fn note_quarantine(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            real_errors: self.real_errors.load(Ordering::Relaxed),
            injected_errors: self.injected_errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Vfs`]'s [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IoSnapshot {
    /// Successful fsyncs (files and directories).
    pub fsyncs: u64,
    /// Genuine filesystem failures observed.
    pub real_errors: u64,
    /// Failures injected by a [`FaultFs`].
    pub injected_errors: u64,
    /// Segments quarantined as corrupt since open.
    pub quarantined: u64,
}

/// An open file accepting appends, abstracted so a [`FaultFs`] can
/// tear or reject individual writes.
pub trait VfsFile: Send + Debug {
    /// Appends `buf` in full (or fails).
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected; an injected crash may leave a
    /// prefix of `buf` on disk (a torn write).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes userspace buffers to the OS.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn flush(&mut self) -> io::Result<()>;

    /// Forces the file's data and metadata to stable storage.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the persistence stack needs — the seam
/// where [`FaultFs`] injects disk faults.
pub trait Vfs: Send + Sync + Debug {
    /// Reads a whole file's bytes. Whether they are text is the
    /// reader's question, not a filesystem failure.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes a whole file (create or truncate).
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Renames `from` onto `to` (atomic on POSIX filesystems).
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and any missing parents.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries of a directory.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// The file's current size in bytes.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn metadata_len(&self, path: &Path) -> io::Result<u64>;

    /// Truncates the file to `len` bytes (torn-tail repair).
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;

    /// The file's final byte, or `None` when empty.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn last_byte(&self, path: &Path) -> io::Result<Option<u8>>;

    /// Opens the file for appending.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// fsyncs an existing file by path.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn fsync_path(&self, path: &Path) -> io::Result<()>;

    /// fsyncs a directory, making renames within it durable.
    ///
    /// # Errors
    ///
    /// Any I/O failure, real or injected.
    fn fsync_dir(&self, path: &Path) -> io::Result<()>;

    /// The cumulative I/O counters.
    fn stats(&self) -> &IoStats;
}

// ---------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------

/// The production [`Vfs`]: `std::fs` plus error/fsync accounting.
#[derive(Debug, Default)]
pub struct RealFs {
    stats: Arc<IoStats>,
}

impl RealFs {
    /// A fresh instance with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        RealFs::default()
    }

    fn track<T>(&self, result: io::Result<T>) -> io::Result<T> {
        if result.is_err() {
            self.stats.note_real_error();
        }
        result
    }
}

fn read_last_byte(path: &Path) -> io::Result<Option<u8>> {
    let mut f = std::fs::File::open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(None);
    }
    f.seek(SeekFrom::Start(len - 1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(Some(last[0]))
}

fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(len)
}

fn sync_path(path: &Path) -> io::Result<()> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .sync_all()
}

fn sync_dir(path: &Path) -> io::Result<()> {
    // Directories open read-only; sync_all on the handle fsyncs the
    // directory entries (rename durability).
    std::fs::File::open(path)?.sync_all()
}

fn list_dir(path: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(path)? {
        out.push(entry?.path());
    }
    Ok(out)
}

/// A [`RealFs`] append handle.
#[derive(Debug)]
struct RealFile {
    file: std::fs::File,
    stats: Arc<IoStats>,
}

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let r = self.file.write_all(buf);
        if r.is_err() {
            self.stats.note_real_error();
        }
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        let r = self.file.flush();
        if r.is_err() {
            self.stats.note_real_error();
        }
        r
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.file.sync_all() {
            Ok(()) => {
                self.stats.note_fsync();
                Ok(())
            }
            Err(e) => {
                self.stats.note_real_error();
                Err(e)
            }
        }
    }
}

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.track(std::fs::read(path))
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.track(std::fs::write(path, contents))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.track(std::fs::rename(from, to))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.track(std::fs::create_dir_all(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.track(list_dir(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.track(std::fs::remove_file(path))
    }

    fn metadata_len(&self, path: &Path) -> io::Result<u64> {
        self.track(std::fs::metadata(path).map(|m| m.len()))
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.track(truncate_file(path, len))
    }

    fn last_byte(&self, path: &Path) -> io::Result<Option<u8>> {
        self.track(read_last_byte(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self.track(std::fs::OpenOptions::new().append(true).open(path))?;
        Ok(Box::new(RealFile {
            file,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn fsync_path(&self, path: &Path) -> io::Result<()> {
        match sync_path(path) {
            Ok(()) => {
                self.stats.note_fsync();
                Ok(())
            }
            Err(e) => {
                self.stats.note_real_error();
                Err(e)
            }
        }
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        match sync_dir(path) {
            Ok(()) => {
                self.stats.note_fsync();
                Ok(())
            }
            Err(e) => {
                self.stats.note_real_error();
                Err(e)
            }
        }
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------

/// The fault probabilities and seed — `Copy` so append handles can
/// carry their own copy.
#[derive(Debug, Clone, Copy, Default)]
struct FaultPlanCfg {
    seed: u64,
    /// Probability an append/whole-file write fails with injected
    /// ENOSPC (nothing lands).
    write_error: f64,
    /// Probability a write lands only half its bytes then errors (a
    /// torn write).
    short_write: f64,
    /// Probability an fsync (file or directory) fails.
    fsync_error: f64,
    /// Probability a read fails.
    read_error: f64,
}

/// Shared mutable fault state: the op counter the deterministic stream
/// derives from, the crash byte budget, and the I/O counters.
#[derive(Debug, Default)]
struct FaultState {
    ops: AtomicU64,
    crashed: AtomicBool,
    /// Remaining write bytes before the simulated crash (`None` = no
    /// crash point armed).
    crash_budget: Mutex<Option<u64>>,
    /// Total bytes the fs accepted (used to size crash-point sweeps).
    bytes_written: AtomicU64,
    stats: Arc<IoStats>,
}

/// How much of a write the crash budget admits.
enum Charge {
    /// The whole buffer may land.
    Full,
    /// Only this prefix lands; the filesystem then dies.
    Torn(usize),
}

impl FaultState {
    fn charge(&self, len: usize) -> Charge {
        let mut budget = self.crash_budget.lock();
        match budget.as_mut() {
            None => {
                self.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
                Charge::Full
            }
            Some(remaining) => {
                if (len as u64) <= *remaining {
                    *remaining -= len as u64;
                    self.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
                    Charge::Full
                } else {
                    let prefix = *remaining as usize;
                    *remaining = 0;
                    self.crashed.store(true, Ordering::SeqCst);
                    self.bytes_written
                        .fetch_add(prefix as u64, Ordering::Relaxed);
                    Charge::Torn(prefix)
                }
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected fault: {kind}"))
}

/// A seed-driven fault-injecting [`Vfs`] over the real filesystem.
///
/// Every knob draws from one deterministic per-operation stream, so a
/// given `(seed, knobs, operation sequence)` replays identically —
/// the same discipline as the simulator's `FaultPlan`.
///
/// # Examples
///
/// ```
/// use wrsn_store::{FaultFs, Vfs as _};
/// let fs = FaultFs::seeded(7).write_errors(1.0);
/// let dir = std::env::temp_dir().join("wrsn-faultfs-doc");
/// fs.create_dir_all(&dir).unwrap();
/// assert!(fs.write(&dir.join("f"), b"x").is_err(), "every write fails");
/// assert_eq!(fs.stats().snapshot().injected_errors, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Default)]
pub struct FaultFs {
    plan: FaultPlanCfg,
    state: Arc<FaultState>,
}

impl FaultFs {
    /// A fault-free injector (behaves like [`RealFs`]) seeded for later
    /// knobs.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultFs {
            plan: FaultPlanCfg {
                seed,
                ..FaultPlanCfg::default()
            },
            state: Arc::new(FaultState::default()),
        }
    }

    /// Probability each write op fails with injected ENOSPC (nothing
    /// lands on disk).
    #[must_use]
    pub fn write_errors(mut self, p: f64) -> Self {
        self.plan.write_error = p;
        self
    }

    /// Probability each write lands only half its bytes, then errors (a
    /// short/torn write).
    #[must_use]
    pub fn short_writes(mut self, p: f64) -> Self {
        self.plan.short_write = p;
        self
    }

    /// Probability each fsync (file or directory) fails.
    #[must_use]
    pub fn fsync_errors(mut self, p: f64) -> Self {
        self.plan.fsync_error = p;
        self
    }

    /// Probability each read fails.
    #[must_use]
    pub fn read_errors(mut self, p: f64) -> Self {
        self.plan.read_error = p;
        self
    }

    /// Arms the crash point: after `budget` written bytes the write in
    /// flight is torn at the budget boundary and every subsequent
    /// operation fails, simulating power loss at an exact byte offset.
    #[must_use]
    pub fn crash_after_bytes(self, budget: u64) -> Self {
        *self.state.crash_budget.lock() = Some(budget);
        self
    }

    /// Total bytes accepted so far — run a workload once fault-free to
    /// learn the offsets a crash-point sweep should cover.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.state.bytes_written.load(Ordering::Relaxed)
    }

    /// Whether the armed crash point has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.state.crashed.load(Ordering::SeqCst) {
            self.state.stats.note_injected_error();
            return Err(injected("filesystem offline after crash point"));
        }
        Ok(())
    }

    fn draw(plan: &FaultPlanCfg, state: &FaultState) -> f64 {
        let n = state.ops.fetch_add(1, Ordering::SeqCst);
        let h = splitmix64(plan.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ n);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The shared write path for append handles and whole-file writes:
    /// injected ENOSPC, short writes, then the crash byte budget.
    fn faulted_write<W: io::Write>(
        plan: &FaultPlanCfg,
        state: &FaultState,
        dest: &mut W,
        buf: &[u8],
    ) -> io::Result<()> {
        if state.crashed.load(Ordering::SeqCst) {
            state.stats.note_injected_error();
            return Err(injected("filesystem offline after crash point"));
        }
        if plan.write_error > 0.0 && FaultFs::draw(plan, state) < plan.write_error {
            state.stats.note_injected_error();
            return Err(injected("ENOSPC on write"));
        }
        if plan.short_write > 0.0 && FaultFs::draw(plan, state) < plan.short_write {
            let half = buf.len() / 2;
            state
                .bytes_written
                .fetch_add(half as u64, Ordering::Relaxed);
            dest.write_all(&buf[..half])?;
            let _ = dest.flush();
            state.stats.note_injected_error();
            return Err(injected("short write (torn)"));
        }
        match state.charge(buf.len()) {
            Charge::Full => {
                let r = dest.write_all(buf);
                if r.is_err() {
                    state.stats.note_real_error();
                }
                r
            }
            Charge::Torn(prefix) => {
                let _ = dest.write_all(&buf[..prefix]);
                let _ = dest.flush();
                state.stats.note_injected_error();
                Err(injected("crash point reached mid-write"))
            }
        }
    }

    fn faulted_read<T>(&self, result: io::Result<T>) -> io::Result<T> {
        self.check_alive()?;
        if self.plan.read_error > 0.0
            && FaultFs::draw(&self.plan, &self.state) < self.plan.read_error
        {
            self.state.stats.note_injected_error();
            return Err(injected("read error"));
        }
        if result.is_err() {
            self.state.stats.note_real_error();
        }
        result
    }

    fn faulted_fsync(
        plan: &FaultPlanCfg,
        state: &FaultState,
        real: io::Result<()>,
    ) -> io::Result<()> {
        if state.crashed.load(Ordering::SeqCst) {
            state.stats.note_injected_error();
            return Err(injected("filesystem offline after crash point"));
        }
        if plan.fsync_error > 0.0 && FaultFs::draw(plan, state) < plan.fsync_error {
            state.stats.note_injected_error();
            return Err(injected("fsync failed"));
        }
        match real {
            Ok(()) => {
                state.stats.note_fsync();
                Ok(())
            }
            Err(e) => {
                state.stats.note_real_error();
                Err(e)
            }
        }
    }
}

/// A [`FaultFs`] append handle sharing the injector's fault stream.
#[derive(Debug)]
struct FaultFile {
    file: std::fs::File,
    plan: FaultPlanCfg,
    state: Arc<FaultState>,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        FaultFs::faulted_write(&self.plan, &self.state, &mut self.file, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.crashed.load(Ordering::SeqCst) {
            self.state.stats.note_injected_error();
            return Err(injected("filesystem offline after crash point"));
        }
        let r = self.file.flush();
        if r.is_err() {
            self.state.stats.note_real_error();
        }
        r
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let real = self.file.sync_all();
        FaultFs::faulted_fsync(&self.plan, &self.state, real)
    }
}

impl Vfs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.faulted_read(std::fs::read(path))
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        let mut file = std::fs::File::create(path).inspect_err(|_| {
            self.state.stats.note_real_error();
        })?;
        FaultFs::faulted_write(&self.plan, &self.state, &mut file, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_alive()?;
        let r = std::fs::rename(from, to);
        if r.is_err() {
            self.state.stats.note_real_error();
        }
        r
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        let r = std::fs::create_dir_all(path);
        if r.is_err() {
            self.state.stats.note_real_error();
        }
        r
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.faulted_read(list_dir(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        let r = std::fs::remove_file(path);
        if r.is_err() {
            self.state.stats.note_real_error();
        }
        r
    }

    fn metadata_len(&self, path: &Path) -> io::Result<u64> {
        self.check_alive()?;
        let r = std::fs::metadata(path).map(|m| m.len());
        if r.is_err() {
            self.state.stats.note_real_error();
        }
        r
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.check_alive()?;
        let r = truncate_file(path, len);
        if r.is_err() {
            self.state.stats.note_real_error();
        }
        r
    }

    fn last_byte(&self, path: &Path) -> io::Result<Option<u8>> {
        self.faulted_read(read_last_byte(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_alive()?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .inspect_err(|_| self.state.stats.note_real_error())?;
        Ok(Box::new(FaultFile {
            file,
            plan: self.plan,
            state: Arc::clone(&self.state),
        }))
    }

    fn fsync_path(&self, path: &Path) -> io::Result<()> {
        if self.state.crashed.load(Ordering::SeqCst) {
            self.state.stats.note_injected_error();
            return Err(injected("filesystem offline after crash point"));
        }
        FaultFs::faulted_fsync(&self.plan, &self.state, sync_path(path))
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        if self.state.crashed.load(Ordering::SeqCst) {
            self.state.stats.note_injected_error();
            return Err(injected("filesystem offline after crash point"));
        }
        FaultFs::faulted_fsync(&self.plan, &self.state, sync_dir(path))
    }

    fn stats(&self) -> &IoStats {
        &self.state.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wrsn-store-vfs-test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durability_policy_parses_and_prints() {
        assert_eq!(
            DurabilityPolicy::parse("flush"),
            Some(DurabilityPolicy::Flush)
        );
        assert_eq!(
            DurabilityPolicy::parse("fsync"),
            Some(DurabilityPolicy::Fsync)
        );
        assert_eq!(DurabilityPolicy::parse("nope"), None);
        assert_eq!(DurabilityPolicy::Fsync.as_str(), "fsync");
        assert!(DurabilityPolicy::Fsync.is_fsync());
        assert!(!DurabilityPolicy::default().is_fsync());
    }

    #[test]
    fn real_fs_round_trips_and_counts_fsyncs() {
        let dir = temp_dir("realfs");
        let fs = RealFs::new();
        let path = dir.join("f.txt");
        fs.write(&path, b"hello\n").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"hello\n");
        assert_eq!(fs.metadata_len(&path).unwrap(), 6);
        assert_eq!(fs.last_byte(&path).unwrap(), Some(b'\n'));
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap();
        fs.fsync_path(&path).unwrap();
        fs.fsync_dir(&dir).unwrap();
        let snap = fs.stats().snapshot();
        assert_eq!(snap.fsyncs, 3);
        assert_eq!(snap.real_errors, 0);
        assert_eq!(snap.injected_errors, 0);
        // A genuine failure is counted as real.
        assert!(fs.read(&dir.join("missing")).is_err());
        assert_eq!(fs.stats().snapshot().real_errors, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fault_fs_is_replay_identical_per_seed() {
        // The same seed and op sequence must make identical decisions.
        let outcomes = |seed: u64| -> Vec<bool> {
            let dir = temp_dir(&format!("replay-{seed}"));
            let fs = FaultFs::seeded(seed).write_errors(0.5);
            let out = (0..32)
                .map(|i| fs.write(&dir.join(format!("f{i}")), b"payload").is_ok())
                .collect();
            let _ = std::fs::remove_dir_all(dir);
            out
        };
        assert_eq!(outcomes(7), outcomes(7));
        assert_ne!(outcomes(7), outcomes(8), "different seeds diverge");
    }

    #[test]
    fn crash_budget_tears_the_write_and_kills_the_fs() {
        let dir = temp_dir("crash");
        let fs = FaultFs::seeded(0).crash_after_bytes(4);
        let path = dir.join("f");
        fs.write(&path, b"ab").unwrap();
        assert!(!fs.crashed());
        // 2 bytes of budget remain; this 5-byte write tears at 2.
        let err = fs.write(&dir.join("g"), b"cdefg").unwrap_err();
        assert!(err.to_string().contains("crash point"), "{err}");
        assert!(fs.crashed());
        assert_eq!(std::fs::read(dir.join("g")).unwrap(), b"cd");
        // Everything after the crash fails, reads included.
        assert!(fs.read(&path).is_err());
        assert!(fs.write(&dir.join("h"), b"x").is_err());
        assert!(fs.stats().snapshot().injected_errors >= 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsync_errors_are_injected_deterministically() {
        let dir = temp_dir("fsync-fault");
        let fs = FaultFs::seeded(3).fsync_errors(1.0);
        let path = dir.join("f");
        fs.write(&path, b"data").unwrap();
        assert!(fs.fsync_path(&path).is_err());
        assert!(fs.fsync_dir(&dir).is_err());
        assert_eq!(fs.stats().snapshot().fsyncs, 0);
        assert_eq!(fs.stats().snapshot().injected_errors, 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn short_writes_leave_a_torn_prefix() {
        let dir = temp_dir("short");
        let fs = FaultFs::seeded(1).short_writes(1.0);
        let err = fs.write(&dir.join("f"), b"0123456789").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"01234");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn read_errors_fault_the_byte_read() {
        let dir = temp_dir("read-fault");
        let path = dir.join("f");
        std::fs::write(&path, [0xFF, b'\n']).unwrap();
        assert_eq!(FaultFs::seeded(2).read(&path).unwrap(), [0xFF, b'\n']);
        let fs = FaultFs::seeded(2).read_errors(1.0);
        let err = fs.read(&path).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(fs.stats().snapshot().injected_errors, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bytes_written_tracks_accepted_bytes() {
        let dir = temp_dir("bytes");
        let fs = FaultFs::seeded(0);
        fs.write(&dir.join("a"), b"12345").unwrap();
        let mut f = fs.open_append(&dir.join("a")).unwrap();
        f.write_all(b"678").unwrap();
        assert_eq!(fs.bytes_written(), 8);
        let _ = std::fs::remove_dir_all(dir);
    }
}
