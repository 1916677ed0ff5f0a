//! Append-only JSON-lines logs with a header line.
//!
//! Layout: line 1 is a JSON object describing the log (version, kind,
//! experiment identity, …); every further line is one JSON record. The
//! format supports two write modes:
//!
//! - [`write_log`] rewrites the whole file atomically (temp file +
//!   rename) — used for compaction, where a crash mid-write must never
//!   leave a truncated log behind;
//! - [`LogWriter`] appends one record per call and flushes it — an O(1)
//!   incremental update. An append interrupted by a crash can leave one
//!   torn final line; [`read_log`] detects that case (last line, no
//!   trailing newline, not UTF-8 or not JSON), truncates the torn
//!   bytes off the file with a logged warning, and returns the intact
//!   prefix, so the log loses at most the record in flight and stays
//!   safe to append to. Interior corruption is never repaired — it is
//!   a hard error here (the [`ResultStore`](crate::ResultStore) layer
//!   above downgrades it to segment quarantine).
//!
//! One line reader splits a log and applies the torn-tail rule. It is
//! generic over the record decoder, so the result store checks its
//! segments with a scan that builds no trees, while [`read_log`] parses
//! every record. It reads bytes, not text: a line that is not UTF-8 is
//! read as one that is not JSON, so on the unterminated final line it
//! is a torn append and anywhere else corruption at that line.
//!
//! Every function has a `_on` variant taking a [`Vfs`], the seam where
//! [`FaultFs`](crate::FaultFs) injects disk faults; the plain names
//! run on a private [`RealFs`].

use crate::vfs::{RealFs, Vfs, VfsFile};
use crate::StoreError;
use serde::Value;
use std::fmt;
use std::path::{Path, PathBuf};

/// The default filesystem backing the non-`_on` entry points.
fn real_fs() -> RealFs {
    RealFs::new()
}

/// Renders one log line (compact JSON, no interior newlines).
fn line(value: &Value) -> String {
    serde_json::to_string(value).expect("a Value always serializes")
}

/// Atomically writes a whole log: `header` then `records`, one JSON
/// document per line, landing in a temp file renamed over `path`.
///
/// # Errors
///
/// [`StoreError::Io`] when the temp file cannot be written or renamed.
pub fn write_log(path: &Path, header: &Value, records: &[Value]) -> Result<(), StoreError> {
    write_log_on(&real_fs(), path, header, records, false)
}

/// [`write_log`] through an explicit [`Vfs`]. With `durable`, the temp
/// file is fsynced before the rename and the directory after it, so the
/// rewrite survives power loss, not just process death.
///
/// # Errors
///
/// [`StoreError::Io`] when any write, fsync, or the rename fails.
pub fn write_log_on(
    vfs: &dyn Vfs,
    path: &Path,
    header: &Value,
    records: &[Value],
    durable: bool,
) -> Result<(), StoreError> {
    write_lines_on(vfs, path, header, records.iter().map(line), durable)
}

/// [`write_log_on`] with each record already rendered as one line of
/// compact JSON.
pub(crate) fn write_lines_on(
    vfs: &dyn Vfs,
    path: &Path,
    header: &Value,
    records: impl IntoIterator<Item = impl AsRef<str>>,
    durable: bool,
) -> Result<(), StoreError> {
    let mut text = String::new();
    text.push_str(&line(header));
    text.push('\n');
    for record in records {
        text.push_str(record.as_ref());
        text.push('\n');
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    vfs.write(&tmp, text.as_bytes())
        .map_err(|e| StoreError::io(&tmp, e))?;
    if durable {
        vfs.fsync_path(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
    }
    vfs.rename(&tmp, path)
        .map_err(|e| StoreError::io(path, e))?;
    if durable {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        vfs.fsync_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    }
    Ok(())
}

/// Reads a log back as `(header, records)`.
///
/// A torn final line (crash mid-append: last line, not
/// newline-terminated, not UTF-8 or not valid JSON) is truncated off
/// the file with a logged warning — at most one record, the one in
/// flight when the process died, is lost, and the file is left safe to
/// append to. Any other malformed line is an error.
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be read; [`StoreError::Parse`]
/// for an empty log, a bad header, or a malformed interior line.
pub fn read_log(path: &Path) -> Result<(Value, Vec<Value>), StoreError> {
    read_log_on(&real_fs(), path)
}

/// [`read_log`] through an explicit [`Vfs`].
///
/// # Errors
///
/// As [`read_log`].
pub fn read_log_on(vfs: &dyn Vfs, path: &Path) -> Result<(Value, Vec<Value>), StoreError> {
    let bytes = vfs.read(path).map_err(|e| StoreError::io(path, e))?;
    let log = read_lines(&bytes, |raw| {
        serde_json::from_str(raw).map_err(LineError::Syntax)
    })
    .ok_or_else(|| StoreError::parse(path, 1, "empty log (missing header)"))?;
    let header = log
        .header_value()
        .map_err(|why| StoreError::parse(path, 1, why))?;
    if let Some((line, e)) = log.corrupt {
        return Err(StoreError::parse(path, line, e));
    }
    if let Some(keep) = log.torn_at {
        truncate_torn_tail(vfs, path, keep, bytes.len() - keep);
    }
    Ok((header, log.records))
}

/// Why a record decoder refused one line.
#[derive(Debug)]
pub(crate) enum LineError {
    /// The line is not valid JSON. On the unterminated final line this
    /// is a torn append; anywhere else it is corruption.
    Syntax(serde_json::Error),
    /// The line is not UTF-8, so not JSON either: its first bad byte is
    /// at this offset into the line. Read as [`LineError::Syntax`] is.
    Utf8(usize),
    /// The line is valid JSON but not a record of this log: corruption
    /// wherever it sits, never a torn append.
    Shape,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::Syntax(e) => e.fmt(f),
            LineError::Utf8(at) => write!(f, "invalid UTF-8 at byte {at}"),
            LineError::Shape => f.write_str("not a record of this log"),
        }
    }
}

/// A log's bytes, read line by line by [`read_lines`].
pub(crate) struct LogLines<'a, R> {
    /// The first line, undecoded, or why it is not UTF-8.
    pub(crate) header: Result<&'a str, LineError>,
    /// The records before the first bad line, in order.
    pub(crate) records: Vec<R>,
    /// The first record line that failed to decode and is not a torn
    /// tail: its 1-based line number and why. Reading stops there.
    pub(crate) corrupt: Option<(usize, LineError)>,
    /// Where a torn final line starts, when the log ends in one: the
    /// bytes to keep when repairing the file.
    pub(crate) torn_at: Option<usize>,
}

impl<R> LogLines<'_, R> {
    /// The header line as a JSON tree, or why it is none.
    pub(crate) fn header_value(&self) -> Result<Value, String> {
        let header = self
            .header
            .as_ref()
            .map_err(|e| format!("bad header: {e}"))?;
        serde_json::from_str(header).map_err(|e| format!("bad header: {e}"))
    }
}

/// Splits a log's bytes into its header line and its records, decoding
/// each record line with `decode` and skipping blank lines. Only the
/// unterminated final line, the one a crash mid-append leaves, may be
/// torn, and only when it is not UTF-8 or `decode` finds it is not valid
/// JSON: a complete line of the wrong shape is corruption there as
/// anywhere else. Returns `None` when the log has no header line.
/// Touches no file: the caller decides whether to repair a torn tail.
///
/// The bytes are checked as UTF-8 once, whole. When that fails, the
/// whole lines before the first bad byte are read as text and the line
/// holding it is judged on its own.
pub(crate) fn read_lines<'a, R>(
    bytes: &'a [u8],
    mut decode: impl FnMut(&'a str) -> Result<R, LineError>,
) -> Option<LogLines<'a, R>> {
    // `bad`: where the first line that is not UTF-8 starts, and the
    // offset of its first bad byte.
    let (text, bad) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, None),
        Err(e) => {
            let at = e.valid_up_to();
            let start = bytes[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |newline| newline + 1);
            let text = std::str::from_utf8(&bytes[..start]).expect("UTF-8 up to the bad byte");
            (text, Some((start, at - start)))
        }
    };
    // Past a bad line, no line of `text` is the log's last.
    let terminated = bad.is_some() || text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let header = match (lines.first(), bad) {
        (Some(first), _) if first.trim().is_empty() => return None,
        (Some(first), _) => Ok(*first),
        (None, Some((_, at))) => Err(LineError::Utf8(at)),
        (None, None) => return None,
    };
    let mut log = LogLines {
        header,
        records: Vec::with_capacity(lines.len().saturating_sub(1)),
        corrupt: None,
        torn_at: None,
    };
    for (i, raw) in lines.iter().enumerate().skip(1) {
        if raw.trim().is_empty() {
            continue;
        }
        match decode(raw) {
            Ok(record) => log.records.push(record),
            Err(LineError::Syntax(_)) if i + 1 == lines.len() && !terminated => {
                log.torn_at = Some(text.len() - raw.len());
            }
            Err(e) => {
                log.corrupt = Some((i + 1, e));
                break;
            }
        }
    }
    if let (Some((start, at)), Ok(_), None) = (bad, &log.header, &log.corrupt) {
        // `text` ends in a newline, so it holds one line per newline.
        if bytes[start..].contains(&b'\n') {
            log.corrupt = Some((lines.len() + 1, LineError::Utf8(at)));
        } else {
            log.torn_at = Some(start);
        }
    }
    Some(log)
}

/// Cuts a torn trailing line off the log, so that the next append
/// does not fuse the fragment into interior garbage no later open could
/// read past. Best-effort: a read-only file (or a racing writer) only
/// costs us the repair, not the open — the caller already dropped the
/// fragment from the parsed records.
pub(crate) fn truncate_torn_tail(vfs: &dyn Vfs, path: &Path, keep_bytes: usize, torn_bytes: usize) {
    match vfs.set_len(path, keep_bytes as u64) {
        Ok(()) => eprintln!(
            "wrsn-store: {}: dropped a torn trailing line ({torn_bytes} bytes) \
             left by an interrupted append",
            path.display()
        ),
        Err(e) => eprintln!(
            "wrsn-store: {}: found a torn trailing line ({torn_bytes} bytes) \
             but could not truncate it: {e}",
            path.display()
        ),
    }
}

/// An open log accepting O(1) record appends.
#[derive(Debug)]
pub struct LogWriter {
    path: PathBuf,
    file: Box<dyn VfsFile>,
    bytes: u64,
}

impl LogWriter {
    /// Creates (or truncates) the log with `header` and `records`
    /// already compacted in — an atomic full write — then reopens it
    /// for appending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn create(path: &Path, header: &Value, records: &[Value]) -> Result<Self, StoreError> {
        LogWriter::create_on(&real_fs(), path, header, records, false)
    }

    /// [`LogWriter::create`] through an explicit [`Vfs`]; with
    /// `durable` the initial full write is fsynced (file + directory).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn create_on(
        vfs: &dyn Vfs,
        path: &Path,
        header: &Value,
        records: &[Value],
        durable: bool,
    ) -> Result<Self, StoreError> {
        write_log_on(vfs, path, header, records, durable)?;
        LogWriter::append_to_on(vfs, path)
    }

    /// Opens an existing log for appending without rewriting it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened.
    pub fn append_to(path: &Path) -> Result<Self, StoreError> {
        LogWriter::append_to_on(&real_fs(), path)
    }

    /// [`LogWriter::append_to`] through an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened.
    pub fn append_to_on(vfs: &dyn Vfs, path: &Path) -> Result<Self, StoreError> {
        let mut bytes = vfs
            .metadata_len(path)
            .map_err(|e| StoreError::io(path, e))?;
        let mut file = vfs.open_append(path).map_err(|e| StoreError::io(path, e))?;
        // A crash exactly between a record and its newline leaves a
        // complete final line with no terminator; appending after it
        // would fuse two records onto one line. Complete it instead.
        if bytes > 0 && vfs.last_byte(path).map_err(|e| StoreError::io(path, e))? != Some(b'\n') {
            file.write_all(b"\n")
                .and_then(|()| file.flush())
                .map_err(|e| StoreError::io(path, e))?;
            bytes += 1;
        }
        Ok(LogWriter {
            path: path.to_path_buf(),
            file,
            bytes,
        })
    }

    /// Appends one record line and flushes it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write fails.
    pub fn append(&mut self, record: &Value) -> Result<(), StoreError> {
        self.append_line(&line(record))
    }

    /// Appends one record already rendered as a line of compact JSON
    /// (no newline inside) and flushes it.
    pub(crate) fn append_line(&mut self, record: &str) -> Result<(), StoreError> {
        let mut text = String::with_capacity(record.len() + 1);
        text.push_str(record);
        text.push('\n');
        self.file
            .write_all(text.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.bytes += text.len() as u64;
        Ok(())
    }

    /// Bytes written to the log so far (including pre-existing content).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Forces appended records down to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file
            .sync_all()
            .map_err(|e| StoreError::io(&self.path, e))
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultFs;
    use serde::Serialize as _;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wrsn-store-jsonl-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn obj(pairs: &[(&str, u64)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.to_value()))
                .collect(),
        )
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = temp("roundtrip.jsonl");
        let header = obj(&[("version", 2)]);
        let records = vec![obj(&[("seed", 0)]), obj(&[("seed", 1)])];
        write_log(&path, &header, &records).unwrap();
        let (h, r) = read_log(&path).unwrap();
        assert_eq!(h, header);
        assert_eq!(r, records);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn appends_are_incremental_and_readable() {
        let path = temp("append.jsonl");
        let mut w = LogWriter::create(&path, &obj(&[("version", 2)]), &[]).unwrap();
        let before = w.bytes();
        w.append(&obj(&[("seed", 5)])).unwrap();
        w.append(&obj(&[("seed", 6)])).unwrap();
        assert!(w.bytes() > before);
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1], obj(&[("seed", 6)]));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_truncated_on_disk() {
        let path = temp("torn.jsonl");
        std::fs::write(&path, "{\"version\": 2}\n{\"seed\": 0}\n{\"se").unwrap();
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r, vec![obj(&[("seed", 0)])]);
        // The torn bytes are gone from disk, not just skipped in
        // memory: the file ends at the last intact newline.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"version\": 2}\n{\"seed\": 0}\n"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn torn_tail_truncation_is_idempotent_across_reopens() {
        // First read repairs the file; every later read must find it
        // already clean and leave the bytes untouched.
        let path = temp("torn-idempotent.jsonl");
        std::fs::write(&path, "{\"version\": 2}\n{\"seed\": 0}\n{\"se").unwrap();
        let _ = read_log(&path).unwrap();
        let repaired = std::fs::read(&path).unwrap();
        for _ in 0..3 {
            let (_, r) = read_log(&path).unwrap();
            assert_eq!(r, vec![obj(&[("seed", 0)])]);
            assert_eq!(std::fs::read(&path).unwrap(), repaired);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn appends_after_a_torn_tail_stay_readable() {
        let path = temp("torn-then-append.jsonl");
        std::fs::write(&path, "{\"version\": 2}\n{\"seed\": 0}\n{\"se").unwrap();
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r.len(), 1);
        let mut w = LogWriter::append_to(&path).unwrap();
        w.append(&obj(&[("seed", 1)])).unwrap();
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r, vec![obj(&[("seed", 0)]), obj(&[("seed", 1)])]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unterminated_final_record_is_completed_before_appending() {
        // The other crash window: the record landed but its newline
        // did not. The record must survive and the next append must
        // not fuse onto its line.
        let path = temp("no-newline.jsonl");
        std::fs::write(&path, "{\"version\": 2}\n{\"seed\": 0}").unwrap();
        let mut w = LogWriter::append_to(&path).unwrap();
        w.append(&obj(&[("seed", 1)])).unwrap();
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r, vec![obj(&[("seed", 0)]), obj(&[("seed", 1)])]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = temp("corrupt.jsonl");
        std::fs::write(&path, "{\"version\": 2}\nnot json\n{\"seed\": 0}\n").unwrap();
        let err = read_log(&path).unwrap_err();
        assert!(err.to_string().contains(":2"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bytes_that_are_not_utf8_are_a_torn_tail_at_the_end_and_corrupt_elsewhere() {
        // A final line torn inside a two-byte character is cut off.
        let path = temp("torn-utf8.jsonl");
        let mut torn = b"{\"version\": 2}\n{\"seed\": 0}\n{\"name\": \"".to_vec();
        torn.push(0xC3);
        std::fs::write(&path, &torn).unwrap();
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r, vec![obj(&[("seed", 0)])]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"{\"version\": 2}\n{\"seed\": 0}\n"
        );
        // Anywhere else it is an error that names the line and the byte.
        let path = temp("interior-utf8.jsonl");
        std::fs::write(
            &path,
            b"{\"version\": 2}\n{\"seed\": \xFF0}\n{\"seed\": 1}\n",
        )
        .unwrap();
        let err = read_log(&path).unwrap_err().to_string();
        assert!(err.ends_with(":2: invalid UTF-8 at byte 9"), "{err}");
        std::fs::write(&path, b"{\"version\": 2}\n{\"seed\": 0}\n\xC3").unwrap();
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r, vec![obj(&[("seed", 0)])], "a lone bad byte is torn too");
        std::fs::write(&path, b"{\"version\": \xFF}").unwrap();
        let err = read_log(&path).unwrap_err().to_string();
        assert!(
            err.ends_with(":1: bad header: invalid UTF-8 at byte 12"),
            "{err}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_and_missing_files_error() {
        let path = temp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(read_log(&path).is_err());
        let missing = temp("never-written.jsonl");
        let _ = std::fs::remove_file(&missing);
        assert!(read_log(&missing).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn durable_write_log_fsyncs_file_and_directory() {
        let path = temp("durable.jsonl");
        let fs = RealFs::new();
        write_log_on(&fs, &path, &obj(&[("version", 2)]), &[], true).unwrap();
        assert_eq!(fs.stats().snapshot().fsyncs, 2, "tmp file + directory");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn injected_fsync_failure_surfaces_from_durable_write() {
        let path = temp("durable-fault.jsonl");
        let fs = FaultFs::seeded(11).fsync_errors(1.0);
        let err = write_log_on(&fs, &path, &obj(&[("version", 2)]), &[], true).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn writer_on_fault_fs_reports_torn_append() {
        let path = temp("fault-append.jsonl");
        let fs = FaultFs::seeded(0);
        let mut w = LogWriter::create_on(&fs, &path, &obj(&[("version", 2)]), &[], false).unwrap();
        w.append(&obj(&[("seed", 0)])).unwrap();
        drop(w);
        // Arm a crash point mid-record and append through a fresh
        // writer: the torn tail must be dropped by the next read.
        let crash = FaultFs::seeded(0).crash_after_bytes(4);
        let mut w = LogWriter::append_to_on(&crash, &path).unwrap();
        assert!(w.append(&obj(&[("seed", 1)])).is_err());
        let (_, r) = read_log(&path).unwrap();
        assert_eq!(r, vec![obj(&[("seed", 0)])]);
        let _ = std::fs::remove_file(path);
    }
}
