//! The content-addressed result store: a directory of JSONL segments.

use crate::jsonl::{
    read_lines, truncate_torn_tail, write_lines_on, LineError, LogLines, LogWriter,
};
use crate::vfs::{DurabilityPolicy, IoSnapshot, RealFs, Vfs};
use crate::{Fingerprint, FingerprintBuilder, StoreError};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::{Bound, Range};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Rotate the active segment once it grows past this many bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

const STORE_KIND: &str = "wrsn-result-store";
const STORE_VERSION: u64 = 1;

/// Suffix a corrupt segment is renamed under when quarantined.
pub const QUARANTINE_SUFFIX: &str = ".quarantine";

/// How many keys a pass over the key set copies out per hold of the
/// index lock.
const KEY_CHUNK: usize = 1024;

/// Cache bookkeeping for one consumer: how many lookups hit, how many
/// missed, and how many freshly computed results were appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the store (no recompute).
    pub hits: u64,
    /// Lookups that found nothing and triggered a recompute.
    pub misses: u64,
    /// Fresh results appended to the store.
    pub appended: u64,
}

impl CacheStats {
    /// Total lookups performed.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// What [`ResultStore::gc`] did: entry counts by fate plus the on-disk
/// footprint before and after the rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GcReport {
    /// Entries surviving the collection.
    pub kept: u64,
    /// Entries dropped because their tag failed the reachability test.
    pub dropped_unreachable: u64,
    /// Entries dropped (oldest first) to meet the size budget.
    pub dropped_for_budget: u64,
    /// Total segment bytes on disk before the collection.
    pub bytes_before: u64,
    /// Total segment bytes on disk after the collection.
    pub bytes_after: u64,
}

impl GcReport {
    /// Bytes freed by the collection.
    #[must_use]
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

/// One on-disk segment file as listed in a store manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SegmentInfo {
    /// File name within the store directory (`seg-….jsonl`).
    pub name: String,
    /// Current size of the file in bytes.
    pub bytes: u64,
}

/// What [`ResultStore::import_segment_text`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImportReport {
    /// Records freshly appended (their key was absent).
    pub imported: u64,
    /// Records skipped because their key was already present.
    pub skipped: u64,
}

/// Knobs for [`ResultStore::open_with`].
#[derive(Debug)]
pub struct StoreOptions {
    /// Rotate the active segment past this many bytes.
    pub segment_bytes: u64,
    /// The fsync discipline writes run under.
    pub durability: DurabilityPolicy,
    /// The filesystem to run on; `None` means a fresh [`RealFs`].
    pub vfs: Option<Arc<dyn Vfs>>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            durability: DurabilityPolicy::default(),
            vfs: None,
        }
    }
}

/// One segment's verdict from [`ResultStore::verify_dir`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SegmentVerify {
    /// File name within the store directory.
    pub name: String,
    /// Current size of the file in bytes.
    pub bytes: u64,
    /// Intact records the segment holds.
    pub records: u64,
    /// Whether the segment ends in a torn (crash-interrupted) line —
    /// repairable, so not an error.
    pub torn_tail: bool,
    /// Why the segment is corrupt, when it is.
    pub error: Option<String>,
}

/// What [`ResultStore::verify_dir`] found — a read-only health check
/// that never repairs, truncates, or quarantines anything.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Every live segment, in name order.
    pub segments: Vec<SegmentVerify>,
    /// `*.jsonl.quarantine` files already set aside by earlier opens.
    pub quarantined: u64,
    /// Intact records across all live segments.
    pub records: u64,
    /// Distinct keys across all live segments.
    pub keys: u64,
}

impl VerifyReport {
    /// Whether every live segment parsed clean (torn tails are
    /// repairable and do not count against cleanliness).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.segments.iter().all(|s| s.error.is_none())
    }
}

/// One stored result: its JSON text, as a range of the buffer it was
/// read or rendered into, and the tree parsed from that text on the
/// first read. Every payload open reads from one segment shares that
/// segment's buffer, which lives as long as any of them. Open keeps
/// only the text; `put` and import, which hold the tree already, fill
/// both at once.
struct Payload {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
    tree: OnceLock<Arc<Value>>,
}

impl std::fmt::Debug for Payload {
    /// The payload's text, not the whole buffer it is a range of.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("text", &self.text())
            .field("tree", &self.tree)
            .finish()
    }
}

impl Payload {
    /// A payload read from a segment line that [`decode_record`]
    /// accepted: `text` is a slice of `buf`, the segment's bytes.
    fn in_segment(buf: &Arc<Vec<u8>>, text: &str) -> Arc<Self> {
        let start = text.as_ptr().addr() - buf.as_ptr().addr();
        let range = start..start + text.len();
        debug_assert_eq!(buf.get(range.clone()), Some(text.as_bytes()));
        Arc::new(Payload {
            buf: Arc::clone(buf),
            range,
            tree: OnceLock::new(),
        })
    }

    /// A payload held as a tree, with the compact text that `put`
    /// appends.
    fn parsed(value: Value) -> Arc<Self> {
        let text = serde_json::to_string(&value).expect("a Value always serializes");
        Arc::new(Payload {
            range: 0..text.len(),
            buf: Arc::new(text.into_bytes()),
            tree: OnceLock::from(Arc::new(value)),
        })
    }

    /// The payload's JSON text.
    fn text(&self) -> &str {
        // Open slices only lines it read as UTF-8, and `put` renders
        // text; checking one payload again costs far less than its
        // parse.
        std::str::from_utf8(&self.buf[self.range.clone()]).expect("a payload is UTF-8")
    }

    /// The tree, parsed on the first call. Concurrent first calls parse
    /// once; the others wait for it and share the result.
    fn tree(&self) -> Arc<Value> {
        let tree = self.tree.get_or_init(|| {
            // Only open leaves the tree empty, and open keeps only text
            // that `scan_fields` checked exactly as `from_str` would,
            // nested at least one level shallower than the limit.
            let value = serde_json::from_str(self.text()).expect("a stored payload always parses");
            Arc::new(value)
        });
        Arc::clone(tree)
    }
}

#[derive(Debug)]
struct StoredEntry {
    payload: Arc<Payload>,
    /// Reachability tag (cache-scheme identifier) recorded at put time.
    /// Legacy segments predate tags and load as `None`. Open shares one
    /// allocation among consecutive records with equal tags.
    tag: Option<Arc<str>>,
    /// Monotone insertion rank; compaction preserves it so "oldest
    /// first" stays meaningful across reopens.
    order: u64,
}

/// The read side: every entry, and the key digest once one was asked
/// for.
struct Index {
    entries: BTreeMap<String, StoredEntry>,
    /// XOR of [`key_hash`] over every key. `None` until the first
    /// [`ResultStore::keys_digest`] folds it; each insert keeps it
    /// current after that, and gc drops it.
    digest: Option<u128>,
}

impl Index {
    /// Inserts an entry whose key is absent (`insert_raw` checks that
    /// under the writer lock).
    fn insert(&mut self, key: String, entry: StoredEntry) {
        if let Some(digest) = &mut self.digest {
            *digest ^= key_hash(&key);
        }
        self.entries.insert(key, entry);
    }
}

/// One key's share of [`ResultStore::keys_digest`]: its FNV-128 hash.
fn key_hash(key: &str) -> u128 {
    let mut b = FingerprintBuilder::new("wrsn-store-digest-v1");
    b.push_str(key);
    u128::from_str_radix(&b.finish().to_hex(), 16).unwrap_or(0)
}

/// The append side: the active segment and the counters that name new
/// segments and rank new entries.
struct Writer {
    active: Option<LogWriter>,
    next_seq: u64,
    next_order: u64,
}

/// A content-addressed map from [`Fingerprint`]s to JSON payloads,
/// persisted as append-only JSONL segment files in one directory.
///
/// Writers only ever append to a segment file they created themselves
/// (named with their process id), so concurrent shard processes can
/// share a store directory without interleaving writes. Reads serve
/// from an in-memory index loaded at [`ResultStore::open`] time; on
/// open, duplicated entries and segment sprawl are compacted away into
/// a single segment via an atomic rewrite. Open checks every line but
/// builds no trees: a payload stays JSON text until its first
/// [`ResultStore::get`], which parses it once for every later reader.
///
/// Two locks keep reads off the disk. The index lock is held only for
/// lookups, for the insert after a committed append, and to copy out
/// one chunk of keys at a time for the key digest; never across a pass
/// over every entry while the store serves (only open's compaction and
/// the offline gc hold it that long). The writer lock is held across
/// appends, seals, fsyncs, imports, gc, segment reads and the digest's
/// first pass, and is always taken before the index lock. So a
/// [`ResultStore::get`] never waits on a slow append, an fsync or a
/// digest, and a key becomes visible only once its append has returned.
///
/// Corrupt segments do not brick the store: open quarantines them
/// (renamed to `….jsonl.quarantine`, records dropped, a warning
/// logged) and carries on — cache misses simply recompute. Only an
/// unreadable directory is fatal.
///
/// # Examples
///
/// ```
/// use wrsn_store::{FingerprintBuilder, ResultStore};
/// use serde::Serialize as _;
///
/// let dir = std::env::temp_dir().join("wrsn-store-doc");
/// let _ = std::fs::remove_dir_all(&dir);
/// let store = ResultStore::open(&dir)?;
/// let key = FingerprintBuilder::new("doc").finish();
/// assert!(store.get(&key).is_none());
/// store.put(&key, 42u64.to_value())?;
/// assert_eq!(store.get(&key).as_deref(), Some(&42u64.to_value()));
/// // A reopened store sees the persisted entry.
/// assert_eq!(ResultStore::open(&dir)?.len(), 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), wrsn_store::StoreError>(())
/// ```
pub struct ResultStore {
    dir: PathBuf,
    segment_bytes: u64,
    durability: DurabilityPolicy,
    vfs: Arc<dyn Vfs>,
    /// Per-store random discriminator baked into new segment names so
    /// segments created by different stores — other hosts, other
    /// processes, or two stores in one process — never collide when
    /// exchanged or merged into one directory.
    disc: String,
    /// Key → entry; every read serves from here.
    index: Mutex<Index>,
    writer: Mutex<Writer>,
}

/// A short random hex discriminator from std entropy (the store crate
/// carries no RNG dependency): `RandomState`'s per-instance seed mixed
/// with the pid and wall clock.
fn fresh_discriminator() -> String {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher as _};
    let mut h = RandomState::new().build_hasher();
    h.write_u64(u64::from(std::process::id()));
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    h.write_u128(nanos);
    format!("{:08x}", h.finish() as u32)
}

fn header() -> Value {
    Value::Object(vec![
        ("kind".to_string(), Value::String(STORE_KIND.to_string())),
        ("version".to_string(), STORE_VERSION.to_value()),
    ])
}

/// One segment line: `{"key":…,"value":…,"tag":…}` in compact JSON,
/// with the payload already rendered as `value`. The same bytes as
/// rendering the record as one tree, without copying the payload into
/// it.
fn record_line(key: &str, value: &str, tag: Option<&str>) -> String {
    let json = |s: &str| serde_json::to_string(s).expect("a string always serializes");
    let mut line = format!("{{\"key\":{},\"value\":{value}", json(key));
    if let Some(tag) = tag {
        line.push_str(",\"tag\":");
        line.push_str(&json(tag));
    }
    line.push('}');
    line
}

impl StoredEntry {
    /// This entry's segment line under `key`, as compaction and gc write
    /// it: rendered from the payload's tree, as it always was, so a
    /// segment spelled differently by hand or by an older build
    /// rewrites to the same bytes as before.
    fn line(&self, key: &str) -> String {
        let value =
            serde_json::to_string(&*self.payload.tree()).expect("a Value always serializes");
        record_line(key, &value, self.tag.as_deref())
    }
}

/// Segment sequence number parsed from `seg-NNNNNNNN-*.jsonl`.
fn segment_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".jsonl")?;
    let digits = rest.split('-').next()?;
    digits.parse().ok()
}

/// One record line of a segment: its key, its payload's JSON text and
/// its tag.
struct Record<'a> {
    key: Cow<'a, str>,
    value: &'a str,
    tag: Option<Cow<'a, str>>,
}

/// The string a member value that `scan_fields` checked denotes, when
/// it is a string: a slice of the literal unless the literal holds an
/// escape, which only then is parsed.
fn string_field(raw: &str) -> Option<Cow<'_, str>> {
    let body = raw.strip_prefix('"')?;
    if body.contains('\\') {
        serde_json::str_literal(raw)
    } else {
        body.strip_suffix('"').map(Cow::Borrowed)
    }
}

/// The one definition of a valid segment record line, shared by open,
/// import and [`ResultStore::verify_dir`]: JSON, checked as strictly as
/// parsing it would, that is an object whose `key` is a string and that
/// has a `value`. A `tag` that is not a string reads as no tag. As
/// `Value::get` reads a record, the first member of each name counts.
/// Builds no tree: the payload stays text.
fn decode_record(line: &str) -> Result<Record<'_>, LineError> {
    let (mut key, mut value, mut tag) = (None, None, None);
    serde_json::scan_fields(line, |name, raw| {
        let slot = match &*name {
            "key" => &mut key,
            "value" => &mut value,
            "tag" => &mut tag,
            _ => return,
        };
        slot.get_or_insert(raw);
    })
    .map_err(LineError::Syntax)?;
    match (key.and_then(string_field), value) {
        (Some(key), Some(value)) => Ok(Record {
            key,
            value,
            tag: tag.and_then(string_field),
        }),
        _ => Err(LineError::Shape),
    }
}

/// Checks a segment's header line: JSON naming this store's kind.
fn check_header<R>(log: &LogLines<'_, R>) -> Result<(), String> {
    let head = log.header_value()?;
    if head.get("kind").and_then(Value::as_str) == Some(STORE_KIND) {
        Ok(())
    } else {
        Err("not a wrsn result-store segment".to_string())
    }
}

/// A corrupt record line as open and import report it.
fn record_fault(path: &Path, line: usize, e: LineError) -> StoreError {
    match e {
        LineError::Shape => StoreError::parse(path, line, "segment record missing key/value"),
        e => StoreError::parse(path, line, e),
    }
}

/// Why a segment could not be loaded: corruption (quarantinable) or a
/// filesystem failure (fatal — the directory itself may be sick).
enum SegmentFault {
    Corrupt(String),
    Io(StoreError),
}

/// Reads one segment and appends its records to `out`, in order, each
/// ranked by its place there, once the whole segment has checked clean.
/// Any shape problem — no header, a foreign kind, a malformed line or
/// bytes that are not UTF-8 before the torn tail, a record missing its
/// key or value — is a [`SegmentFault::Corrupt`], and the file is left
/// as found for quarantine. A torn tail is cut off the file.
fn load_segment(
    vfs: &dyn Vfs,
    path: &Path,
    out: &mut Vec<(String, StoredEntry)>,
) -> Result<(), SegmentFault> {
    let buf = Arc::new(
        vfs.read(path)
            .map_err(|e| SegmentFault::Io(StoreError::io(path, e)))?,
    );
    let corrupt = |e: StoreError| SegmentFault::Corrupt(e.to_string());
    let log = read_lines(&buf, decode_record)
        .ok_or_else(|| corrupt(StoreError::parse(path, 1, "empty log (missing header)")))?;
    check_header(&log).map_err(|why| corrupt(StoreError::parse(path, 1, why)))?;
    if let Some((line, e)) = log.corrupt {
        return Err(corrupt(record_fault(path, line, e)));
    }
    if let Some(keep) = log.torn_at {
        truncate_torn_tail(vfs, path, keep, buf.len() - keep);
    }
    out.reserve(log.records.len());
    let mut last_tag: Option<Arc<str>> = None;
    for record in log.records {
        let tag = record.tag.map(|tag| match &last_tag {
            Some(last) if **last == *tag => Arc::clone(last),
            _ => Arc::clone(last_tag.insert(Arc::from(tag))),
        });
        let entry = StoredEntry {
            payload: Payload::in_segment(&buf, record.value),
            tag,
            order: out.len() as u64,
        };
        out.push((record.key.into_owned(), entry));
    }
    Ok(())
}

/// Sets a corrupt segment aside as `{name}.quarantine` so the store
/// stays usable and the bytes stay available for forensics. Best
/// effort: a failed rename only costs us the move — the segment is
/// skipped either way and the next open will retry.
fn quarantine_segment(vfs: &dyn Vfs, path: &Path, why: &str) {
    let mut target = path.as_os_str().to_owned();
    target.push(QUARANTINE_SUFFIX);
    let target = PathBuf::from(target);
    match vfs.rename(path, &target) {
        Ok(()) => {
            vfs.stats().note_quarantine();
            eprintln!(
                "wrsn-store: {}: quarantined corrupt segment ({why}); \
                 its results drop from the cache and will recompute on miss",
                path.display()
            );
        }
        Err(e) => eprintln!(
            "wrsn-store: {}: corrupt segment ({why}) could not be quarantined: {e}",
            path.display()
        ),
    }
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir` with the default
    /// segment size, compacting stale segments.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be created or read;
    /// corrupt segments are quarantined, not fatal.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        ResultStore::open_with(dir, StoreOptions::default())
    }

    /// [`ResultStore::open`] with an explicit rotation threshold
    /// (smaller values force more segments; used by tests).
    ///
    /// # Errors
    ///
    /// As [`ResultStore::open`].
    pub fn with_segment_bytes(dir: impl Into<PathBuf>, bytes: u64) -> Result<Self, StoreError> {
        ResultStore::open_with(
            dir,
            StoreOptions {
                segment_bytes: bytes,
                ..StoreOptions::default()
            },
        )
    }

    /// [`ResultStore::open`] with full control over segment size,
    /// durability policy, and the backing [`Vfs`] (the seam fault
    /// injection uses).
    ///
    /// # Errors
    ///
    /// As [`ResultStore::open`].
    pub fn open_with(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Self, StoreError> {
        let dir = dir.into();
        let vfs: Arc<dyn Vfs> = options
            .vfs
            .unwrap_or_else(|| Arc::new(RealFs::new()) as Arc<dyn Vfs>);
        vfs.create_dir_all(&dir)
            .map_err(|e| StoreError::io(&dir, e))?;
        let mut segments = ResultStore::segment_files_on(&*vfs, &dir)?;
        segments.sort();
        let mut records = Vec::new();
        let mut live_segments = Vec::with_capacity(segments.len());
        let mut max_seq = 0u64;
        for path in segments {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            max_seq = max_seq.max(segment_seq(name).unwrap_or(0));
            match load_segment(&*vfs, &path, &mut records) {
                Ok(()) => live_segments.push(path),
                // One bad segment must not brick the node: set it
                // aside and serve the rest. Only a filesystem failure
                // (unreadable directory or file) stays fatal.
                Err(SegmentFault::Corrupt(why)) => quarantine_segment(&*vfs, &path, &why),
                Err(SegmentFault::Io(e)) => return Err(e),
            }
        }
        let total_records = records.len();
        // Later records win, making compaction replay-safe. One bulk
        // build does what an insert per record in order would: its
        // stable sort keeps records of one key in order, and of those
        // it keeps the last.
        let entries: BTreeMap<String, StoredEntry> = records.into_iter().collect();
        let needs_compaction = live_segments.len() > 1 || total_records > entries.len();
        let store = ResultStore {
            dir,
            segment_bytes: options.segment_bytes,
            durability: options.durability,
            vfs,
            disc: fresh_discriminator(),
            index: Mutex::new(Index {
                entries,
                digest: None,
            }),
            writer: Mutex::new(Writer {
                active: None,
                next_seq: max_seq + 1,
                next_order: total_records as u64,
            }),
        };
        if needs_compaction {
            store.compact(&live_segments)?;
        }
        Ok(store)
    }

    fn segment_files_on(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
        let mut out = Vec::new();
        for path in vfs.read_dir(dir).map_err(|e| StoreError::io(dir, e))? {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("seg-") && name.ends_with(".jsonl") {
                out.push(path);
            }
        }
        Ok(out)
    }

    /// Bytes currently on disk across all segment files.
    fn disk_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for path in ResultStore::segment_files_on(&*self.vfs, &self.dir)? {
            total += self
                .vfs
                .metadata_len(&path)
                .map_err(|e| StoreError::io(&path, e))?;
        }
        Ok(total)
    }

    /// Live entries in insertion order (oldest first), as segment
    /// lines.
    fn ordered_lines(entries: &BTreeMap<String, StoredEntry>) -> Vec<String> {
        let mut live: Vec<(&String, &StoredEntry)> = entries.iter().collect();
        live.sort_by_key(|(_, e)| e.order);
        live.iter().map(|(k, e)| e.line(k)).collect()
    }

    /// Folds every live entry into one `seg-00000000-compact.jsonl`
    /// written atomically, then removes the superseded segments.
    /// Crash-safe at every step: the old segments alone, the new
    /// segment plus leftovers, and the new segment alone all reload to
    /// the same map. Records land in insertion order so entry age
    /// survives the rewrite.
    fn compact(&self, old_segments: &[PathBuf]) -> Result<(), StoreError> {
        let target = self.dir.join("seg-00000000-compact.jsonl");
        let _writer = self.writer.lock();
        let records = ResultStore::ordered_lines(&self.index.lock().entries);
        write_lines_on(
            &*self.vfs,
            &target,
            &header(),
            &records,
            self.durability.is_fsync(),
        )?;
        for path in old_segments {
            if *path != target {
                self.vfs
                    .remove_file(path)
                    .map_err(|e| StoreError::io(path, e))?;
            }
        }
        Ok(())
    }

    /// The payload stored under `key`, if any. A payload read from
    /// disk is parsed on its first read and shared after that.
    #[must_use]
    pub fn get(&self, key: &Fingerprint) -> Option<Arc<Value>> {
        // Every event loop and worker reads through this lock: format
        // the key before taking it, and parse after releasing it, so
        // the lock covers a lookup and a reference count.
        let mut buf = [0; 32];
        let hex = key.hex_in(&mut buf);
        let payload = Arc::clone(&self.index.lock().entries.get(hex)?.payload);
        Some(payload.tree())
    }

    /// Stores `value` under `key` with no reachability tag; see
    /// [`ResultStore::put_tagged`].
    ///
    /// # Errors
    ///
    /// As [`ResultStore::put_tagged`].
    pub fn put(&self, key: &Fingerprint, value: Value) -> Result<bool, StoreError> {
        self.insert(key, value, None)
    }

    /// Stores `value` under `key`, appending it to the active segment,
    /// and records `tag` as the entry's reachability tag (typically the
    /// producer's fingerprint-scheme identifier, so [`ResultStore::gc`]
    /// can tell entries written by the current scheme from stale ones).
    /// A key already present is left untouched (the store is
    /// content-addressed: one key always names one result). Returns
    /// whether the entry was freshly appended.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the segment cannot be written;
    /// [`StoreError::Parse`] for a payload nested so deep (arrays and
    /// objects more than 127 levels) that its line would not read back.
    pub fn put_tagged(
        &self,
        key: &Fingerprint,
        value: Value,
        tag: &str,
    ) -> Result<bool, StoreError> {
        self.insert(key, value, Some(tag))
    }

    fn insert(
        &self,
        key: &Fingerprint,
        value: Value,
        tag: Option<&str>,
    ) -> Result<bool, StoreError> {
        let mut writer = self.writer.lock();
        self.insert_raw(&mut writer, &key.to_hex(), value, tag)
    }

    /// Put-if-absent under the writer lock, keyed by the raw hex
    /// string — the shared path for local puts and segment imports.
    ///
    /// Commit discipline: the in-memory index is only updated after
    /// every required write (and, under the fsync policy, the
    /// seal-fsync) succeeded, so the store never serves a result it
    /// did not commit. Any append or sync failure poisons the active
    /// writer — its tail may be torn — and the next put opens a fresh
    /// segment rather than fusing records onto the tear. The index
    /// lock is not held across the disk work: every index mutation
    /// holds the writer lock, so the absence checked first still holds
    /// at the insert.
    fn insert_raw(
        &self,
        writer: &mut Writer,
        hex: &str,
        value: Value,
        tag: Option<&str>,
    ) -> Result<bool, StoreError> {
        if self.index.lock().entries.contains_key(hex) {
            return Ok(false);
        }
        let payload = Payload::parsed(value);
        let line = record_line(hex, payload.text(), tag);
        // Append only a line that open reads back: a payload nested past
        // the parser's limit would make its whole segment look corrupt.
        if let Err(e) = decode_record(&line) {
            let why = format!("the payload under {hex} would not read back: {e}");
            return Err(StoreError::parse(&self.dir, 0, why));
        }
        if writer.active.is_none() {
            let name = format!(
                "seg-{:08}-{}-{}.jsonl",
                writer.next_seq,
                std::process::id(),
                self.disc
            );
            writer.next_seq += 1;
            writer.active = Some(LogWriter::create_on(
                &*self.vfs,
                &self.dir.join(name),
                &header(),
                &[],
                self.durability.is_fsync(),
            )?);
        }
        let active = writer.active.as_mut().expect("just ensured");
        if let Err(e) = active.append_line(&line) {
            writer.active = None;
            return Err(e);
        }
        let rotate = active.bytes() >= self.segment_bytes;
        if rotate {
            // Seal the full segment; the next put opens a fresh one.
            // Under the fsync policy the seal is the durability point
            // for everything the segment holds.
            if self.durability.is_fsync() {
                if let Err(e) = active.sync() {
                    writer.active = None;
                    return Err(e);
                }
            }
            writer.active = None;
        }
        let order = writer.next_order;
        writer.next_order += 1;
        self.index.lock().insert(
            hex.to_string(),
            StoredEntry {
                payload,
                tag: tag.map(Arc::from),
                order,
            },
        );
        Ok(true)
    }

    /// Garbage-collects the store: drops every entry whose tag fails
    /// `reachable` (legacy untagged entries pass `None`), then — if
    /// `max_bytes` is given — drops surviving entries oldest-first
    /// until the estimated segment size fits the budget. Survivors are
    /// rewritten into a single compact segment atomically.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the rewrite or directory scan fails.
    pub fn gc<F>(&self, reachable: F, max_bytes: Option<u64>) -> Result<GcReport, StoreError>
    where
        F: Fn(Option<&str>) -> bool,
    {
        let mut writer = self.writer.lock();
        let bytes_before = self.disk_bytes()?;
        let old_segments = ResultStore::segment_files_on(&*self.vfs, &self.dir)?;
        let mut index = self.index.lock();
        // The removals below would each have to fold out of the digest;
        // the next keys_digest folds it afresh instead.
        index.digest = None;
        let entries = &mut index.entries;
        let mut dropped_unreachable = 0u64;
        entries.retain(|_, e| {
            let keep = reachable(e.tag.as_deref());
            if !keep {
                dropped_unreachable += 1;
            }
            keep
        });

        // Size the survivors as they will land on disk (one JSONL line
        // each plus the header), then evict oldest-first to budget.
        let mut dropped_for_budget = 0u64;
        if let Some(budget) = max_bytes {
            let header_bytes = serde_json::to_string(&header())
                .expect("header serializes")
                .len() as u64
                + 1;
            let mut sized: Vec<(String, u64, u64)> = entries
                .iter()
                .map(|(k, e)| (k.clone(), e.order, e.line(k).len() as u64 + 1))
                .collect();
            sized.sort_by_key(|(_, order, _)| *order);
            let mut total: u64 = header_bytes + sized.iter().map(|(_, _, b)| b).sum::<u64>();
            for (key, _, bytes) in &sized {
                if total <= budget {
                    break;
                }
                entries.remove(key);
                total -= bytes;
                dropped_for_budget += 1;
            }
        }

        let records = ResultStore::ordered_lines(entries);
        let kept = entries.len() as u64;
        drop(index);

        // Atomic rewrite: survivors into the compact segment, then the
        // superseded segments go away. Close the active writer first —
        // its file is among the segments being replaced.
        writer.active = None;
        let target = self.dir.join("seg-00000000-compact.jsonl");
        write_lines_on(
            &*self.vfs,
            &target,
            &header(),
            &records,
            self.durability.is_fsync(),
        )?;
        for path in &old_segments {
            if *path != target {
                self.vfs
                    .remove_file(path)
                    .map_err(|e| StoreError::io(path, e))?;
            }
        }
        drop(writer);
        Ok(GcReport {
            kept,
            dropped_unreachable,
            dropped_for_budget,
            bytes_before,
            bytes_after: self.disk_bytes()?,
        })
    }

    /// Forces any buffered appends down to stable storage (`fsync` on
    /// the active segment). A no-op when nothing has been appended.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the sync fails; the active writer is
    /// poisoned so later puts start a fresh segment.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut writer = self.writer.lock();
        if let Some(active) = writer.active.as_mut() {
            if let Err(e) = active.sync() {
                writer.active = None;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Number of entries in the store.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.lock().entries.len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync discipline this store runs under.
    #[must_use]
    pub fn durability(&self) -> DurabilityPolicy {
        self.durability
    }

    /// The filesystem the store writes through, for files kept beside
    /// it (the server's job journals) to share its fault seam and its
    /// I/O counters.
    #[must_use]
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// A snapshot of the backing filesystem's I/O counters (fsyncs,
    /// real/injected errors, quarantined segments) — the `/statusz`
    /// `io` section.
    #[must_use]
    pub fn io_stats(&self) -> IoSnapshot {
        self.vfs.stats().snapshot()
    }

    /// Number of segment files currently on disk (tests and tooling).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be listed.
    pub fn segment_count(&self) -> Result<usize, StoreError> {
        Ok(ResultStore::segment_files_on(&*self.vfs, &self.dir)?.len())
    }

    /// Whether `name` is a well-formed segment file name: `seg-….jsonl`
    /// with no path separators or parent references, so names arriving
    /// over the network can be joined onto the store directory safely.
    #[must_use]
    pub fn is_segment_name(name: &str) -> bool {
        name.starts_with("seg-")
            && name.ends_with(".jsonl")
            && !name.contains('/')
            && !name.contains('\\')
            && !name.contains("..")
    }

    /// The on-disk segment files as manifest rows, sorted by name.
    /// Taken under the writer lock so sizes are stable (appends hold the
    /// same lock).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be listed.
    pub fn segments(&self) -> Result<Vec<SegmentInfo>, StoreError> {
        let _writer = self.writer.lock();
        let mut out = Vec::new();
        for path in ResultStore::segment_files_on(&*self.vfs, &self.dir)? {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let bytes = self
                .vfs
                .metadata_len(&path)
                .map_err(|e| StoreError::io(&path, e))?;
            out.push(SegmentInfo { name, bytes });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Reads one segment file verbatim (header line plus records) for
    /// transfer to a peer. Taken under the writer lock so a concurrent
    /// append can never be observed mid-line.
    ///
    /// # Errors
    ///
    /// [`StoreError::Parse`] for a name failing
    /// [`ResultStore::is_segment_name`]; [`StoreError::Io`] when the
    /// file cannot be read.
    pub fn read_segment(&self, name: &str) -> Result<String, StoreError> {
        let path = self.dir.join(name);
        if !ResultStore::is_segment_name(name) {
            return Err(StoreError::parse(&path, 1, "not a segment file name"));
        }
        let _writer = self.writer.lock();
        let bytes = self.vfs.read(&path).map_err(|e| StoreError::io(&path, e))?;
        String::from_utf8(bytes).map_err(|e| {
            StoreError::io(
                &path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e),
            )
        })
    }

    /// Imports segment text (as produced by [`ResultStore::read_segment`]
    /// on a peer) with put-if-absent semantics: records whose key is
    /// already present are skipped, everything else is appended to this
    /// store's own active segment. The whole import runs under one
    /// writer-lock acquisition. A torn final line (sender crashed mid-append) is
    /// tolerated exactly as on open: the fragment is dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Parse`] for a missing/foreign header or a
    /// malformed interior record; [`StoreError::Io`] when the local
    /// append fails.
    pub fn import_segment_text(&self, text: &str) -> Result<ImportReport, StoreError> {
        let pseudo = self.dir.join("<import>");
        // Appends render the payload from its tree, as a put does, so
        // parse each one as its line is read.
        let log = read_lines(text.as_bytes(), |line| {
            let record = decode_record(line)?;
            let value: Value = serde_json::from_str(record.value).map_err(LineError::Syntax)?;
            Ok((record.key, value, record.tag))
        })
        .ok_or_else(|| StoreError::parse(&pseudo, 1, "empty segment (missing header)"))?;
        check_header(&log).map_err(|why| StoreError::parse(&pseudo, 1, why))?;
        let mut report = ImportReport::default();
        let mut writer = self.writer.lock();
        for (key, value, tag) in log.records {
            if self.insert_raw(&mut writer, &key, value, tag.as_deref())? {
                report.imported += 1;
            } else {
                report.skipped += 1;
            }
        }
        match log.corrupt {
            Some((line, e)) => Err(record_fault(&pseudo, line, e)),
            None => Ok(report),
        }
    }

    /// An order-independent digest of the key set, `{count}:{32 hex}`:
    /// the XOR of a per-key FNV-128 hash. Two stores holding the same
    /// keys — regardless of segment layout, insertion order, or which
    /// node computed each entry — report the same digest, which is how
    /// cluster anti-entropy decides a fleet has converged.
    ///
    /// The first call folds every key, under the writer lock, and each
    /// insert keeps the result current, so later calls take the index
    /// lock once. Open does none of this work.
    #[must_use]
    pub fn keys_digest(&self) -> String {
        if let Some(known) = self.known_digest() {
            return known;
        }
        let writer = self.writer.lock();
        let mut acc = 0;
        self.for_each_key(&writer, |key| acc ^= key_hash(key));
        let mut index = self.index.lock();
        index.digest = Some(acc);
        format!("{}:{acc:032x}", index.entries.len())
    }

    fn known_digest(&self) -> Option<String> {
        let index = self.index.lock();
        let digest = index.digest?;
        Some(format!("{}:{digest:032x}", index.entries.len()))
    }

    /// Calls `f` on every key, in key order. `_frozen` is the writer
    /// lock, which every change to the index holds, so the key set
    /// stays put between chunks; the index lock is held only to copy
    /// out [`KEY_CHUNK`] keys at a time, so lookups run during the pass.
    fn for_each_key(&self, _frozen: &Writer, mut f: impl FnMut(&str)) {
        let mut after: Option<String> = None;
        loop {
            let chunk: Vec<String> = {
                let index = self.index.lock();
                let start = after.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
                index
                    .entries
                    .range::<str, _>((start, Bound::Unbounded))
                    .take(KEY_CHUNK)
                    .map(|(key, _)| key.clone())
                    .collect()
            };
            for key in &chunk {
                f(key);
            }
            if chunk.len() < KEY_CHUNK {
                return;
            }
            after = chunk.into_iter().last();
        }
    }

    /// Read-only integrity scan of a store directory: parses every
    /// live segment without repairing, truncating, or quarantining
    /// anything, and counts segments already in quarantine. Safe to
    /// run against a directory another process is serving from —
    /// though a torn tail reported here may simply be an append in
    /// flight.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be listed;
    /// per-segment problems land in the report, not the error.
    pub fn verify_dir(dir: &Path) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        let mut keys = std::collections::BTreeSet::new();
        let mut names = Vec::new();
        let iter = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
        for entry in iter {
            let entry = entry.map_err(|e| StoreError::io(dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("seg-") && name.ends_with(QUARANTINE_SUFFIX) {
                report.quarantined += 1;
            } else if name.starts_with("seg-") && name.ends_with(".jsonl") {
                names.push(name);
            }
        }
        names.sort();
        for name in names {
            let path = dir.join(&name);
            let mut seg = SegmentVerify {
                name,
                ..SegmentVerify::default()
            };
            match std::fs::read(&path) {
                Ok(bytes) => {
                    seg.bytes = bytes.len() as u64;
                    verify_segment(&bytes, &mut seg, &mut keys);
                }
                Err(e) => seg.error = Some(format!("unreadable: {e}")),
            }
            report.records += seg.records;
            report.segments.push(seg);
        }
        report.keys = keys.len() as u64;
        Ok(report)
    }
}

/// The parsing half of [`ResultStore::verify_dir`], split out so it
/// never touches the filesystem.
fn verify_segment(
    bytes: &[u8],
    seg: &mut SegmentVerify,
    keys: &mut std::collections::BTreeSet<String>,
) {
    let Some(log) = read_lines(bytes, decode_record) else {
        seg.error = Some("empty segment (missing header)".to_string());
        return;
    };
    if let Err(why) = check_header(&log) {
        seg.error = Some(why);
        return;
    }
    seg.records = log.records.len() as u64;
    keys.extend(
        log.records
            .into_iter()
            .map(|record| record.key.into_owned()),
    );
    seg.torn_tail = log.torn_at.is_some();
    seg.error = log.corrupt.map(|(line, e)| match e {
        LineError::Shape => format!("line {line}: record missing key/value"),
        e => format!("line {line}: {e}"),
    });
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("entries", &self.len())
            .field("durability", &self.durability)
            .finish()
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::differential::record;
    use super::*;
    use crate::jsonl::write_log;
    use crate::vfs::FaultFs;
    use crate::FingerprintBuilder;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wrsn-store-test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(tag: &str) -> Fingerprint {
        let mut b = FingerprintBuilder::new("store-test");
        b.push_str(tag);
        b.finish()
    }

    fn open_on(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<ResultStore, StoreError> {
        ResultStore::open_with(
            dir,
            StoreOptions {
                vfs: Some(vfs),
                ..StoreOptions::default()
            },
        )
    }

    #[test]
    fn put_get_and_reopen() {
        let dir = temp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.put(&key("a"), 1u64.to_value()).unwrap());
        assert!(store.put(&key("b"), 2u64.to_value()).unwrap());
        assert_eq!(store.get(&key("a")).as_deref(), Some(&1u64.to_value()));
        assert_eq!(store.get(&key("missing")), None);
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(&key("b")).as_deref(), Some(&2u64.to_value()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reopen_survives_a_partial_final_record() {
        // Crash-during-append: the newest segment ends mid-record. The
        // reopen must keep every intact entry, lose only the record in
        // flight, and leave the directory fully writable again.
        let dir = temp_dir("torn-reopen");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&key("a"), 1u64.to_value()).unwrap();
        store.put(&key("b"), 2u64.to_value()).unwrap();
        store.sync().unwrap();
        drop(store);
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
            })
            .expect("one segment written");
        let mut file = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        use std::io::Write as _;
        file.write_all(b"{\"key\": \"0123456789abcdef\", \"val")
            .unwrap();
        drop(file);

        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2, "intact entries survive the torn tail");
        assert_eq!(reopened.get(&key("a")).as_deref(), Some(&1u64.to_value()));
        assert_eq!(reopened.get(&key("b")).as_deref(), Some(&2u64.to_value()));
        reopened.put(&key("c"), 3u64.to_value()).unwrap();
        drop(reopened);
        let again = ResultStore::open(&dir).unwrap();
        assert_eq!(again.len(), 3, "appends after the repair round-trip");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn existing_keys_are_not_duplicated() {
        let dir = temp_dir("dedup");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.put(&key("a"), 1u64.to_value()).unwrap());
        assert!(!store.put(&key("a"), 1u64.to_value()).unwrap());
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rotation_splits_segments_and_reopen_compacts() {
        let dir = temp_dir("rotate");
        let store = ResultStore::with_segment_bytes(&dir, 64).unwrap();
        for i in 0..10u64 {
            store.put(&key(&format!("k{i}")), i.to_value()).unwrap();
        }
        assert!(store.segment_count().unwrap() > 1, "rotation must split");
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 10);
        assert_eq!(reopened.segment_count().unwrap(), 1, "compacted on open");
        for i in 0..10u64 {
            assert_eq!(
                reopened.get(&key(&format!("k{i}"))).as_deref(),
                Some(&i.to_value())
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_is_idempotent() {
        let dir = temp_dir("idempotent");
        {
            let store = ResultStore::with_segment_bytes(&dir, 32).unwrap();
            for i in 0..6u64 {
                store.put(&key(&format!("k{i}")), i.to_value()).unwrap();
            }
        }
        let entries = |store: &ResultStore| -> Vec<(String, String, Option<String>, u64)> {
            let index = store.index.lock();
            let entries = index.entries.iter();
            entries
                .map(|(k, e)| {
                    (
                        k.clone(),
                        e.payload.text().to_string(),
                        e.tag.as_deref().map(str::to_string),
                        e.order,
                    )
                })
                .collect()
        };
        let first = ResultStore::open(&dir).unwrap();
        assert_eq!(first.segment_count().unwrap(), 1);
        let entries_after_first = entries(&first);
        drop(first);
        let second = ResultStore::open(&dir).unwrap();
        assert_eq!(second.segment_count().unwrap(), 1);
        assert_eq!(entries_after_first, entries(&second));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn later_segments_win_on_duplicate_keys() {
        let dir = temp_dir("later-wins");
        std::fs::create_dir_all(&dir).unwrap();
        let hex = key("dup").to_hex();
        write_log(
            &dir.join("seg-00000001-1.jsonl"),
            &header(),
            &[record(&hex, &1u64.to_value(), None)],
        )
        .unwrap();
        write_log(
            &dir.join("seg-00000002-1.jsonl"),
            &header(),
            &[record(&hex, &2u64.to_value(), None)],
        )
        .unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&key("dup")).as_deref(), Some(&2u64.to_value()));
        assert_eq!(store.segment_count().unwrap(), 1, "duplicates compacted");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_later_of_two_records_wins_with_its_payload_tag_and_order() {
        let dir = temp_dir("later-record-wins");
        std::fs::create_dir_all(&dir).unwrap();
        let [a, b, dup] = ["a", "b", "dup"].map(|k| key(k).to_hex());
        write_log(
            &dir.join("seg-00000001-1.jsonl"),
            &header(),
            &[
                record(&a, &1u64.to_value(), Some("t")),
                record(&dup, &10u64.to_value(), Some("old")),
            ],
        )
        .unwrap();
        write_log(
            &dir.join("seg-00000002-1.jsonl"),
            &header(),
            &[
                record(&dup, &20u64.to_value(), Some("newer")),
                record(&b, &2u64.to_value(), None),
                record(&dup, &30u64.to_value(), Some("newest")),
            ],
        )
        .unwrap();
        let store = ResultStore::open(&dir).unwrap();
        let entries = |store: &ResultStore| -> Vec<(String, String, Option<String>, u64)> {
            let index = store.index.lock();
            let entries = index.entries.iter();
            entries
                .map(|(k, e)| {
                    let tag = e.tag.as_deref().map(str::to_string);
                    (k.clone(), e.payload.text().to_string(), tag, e.order)
                })
                .collect()
        };
        let mut expected = vec![
            (a.clone(), "1".to_string(), Some("t".to_string()), 0),
            (b.clone(), "2".to_string(), None, 3),
            (dup.clone(), "30".to_string(), Some("newest".to_string()), 4),
        ];
        expected.sort();
        assert_eq!(entries(&store), expected);
        drop(store);
        // Compaction keeps the winner and the order of age.
        let reopened = ResultStore::open(&dir).unwrap();
        let orders: Vec<(String, u64)> = entries(&reopened)
            .into_iter()
            .map(|(k, _, _, order)| (k, order))
            .collect();
        let mut by_age = orders.clone();
        by_age.sort_by_key(|(_, order)| *order);
        assert_eq!(by_age, vec![(a, 0), (b, 1), (dup.clone(), 2)]);
        assert_eq!(
            reopened.get(&key("dup")).as_deref(),
            Some(&30u64.to_value())
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The one segment a store at `dir` holds.
    fn only_segment(dir: &Path) -> PathBuf {
        let mut segments = ResultStore::segment_files_on(&RealFs::new(), dir).unwrap();
        assert_eq!(segments.len(), 1);
        segments.pop().unwrap()
    }

    #[test]
    fn a_byte_that_is_not_utf8_quarantines_its_segment_and_names_the_line() {
        // Bit 7 set in one ASCII byte of an interior line: damaged
        // content, so quarantine, not an I/O error.
        let dir = temp_dir("utf8-interior");
        {
            let store = ResultStore::open(&dir).unwrap();
            for i in 0..3u64 {
                store
                    .put_tagged(&key(&format!("k{i}")), i.to_value(), "t")
                    .unwrap();
            }
        }
        let seg = only_segment(&dir);
        let mut bytes = std::fs::read(&seg).unwrap();
        let line_3 = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0
            + 1;
        bytes[line_3 + 5] |= 0x80;
        std::fs::write(&seg, &bytes).unwrap();
        write_log(
            &dir.join("seg-00000009-1.jsonl"),
            &header(),
            &[record(&key("other").to_hex(), &9u64.to_value(), None)],
        )
        .unwrap();

        let verify = ResultStore::verify_dir(&dir).unwrap();
        assert!(!verify.is_clean());
        let damaged = &verify.segments[0];
        assert_eq!(damaged.bytes, bytes.len() as u64, "the file's real size");
        assert_eq!(
            damaged.error.as_deref(),
            Some("line 3: invalid UTF-8 at byte 5")
        );
        assert_eq!(damaged.records, 1, "the records before the damage");

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.io_stats().quarantined, 1);
        let mut quarantined = seg.into_os_string();
        quarantined.push(QUARANTINE_SUFFIX);
        assert_eq!(std::fs::read(&quarantined).unwrap(), bytes, "kept as found");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&key("other")).as_deref(), Some(&9u64.to_value()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_final_line_torn_inside_a_character_is_cut_off_like_any_torn_tail() {
        let dir = temp_dir("utf8-torn");
        {
            let store = ResultStore::open(&dir).unwrap();
            store
                .put(&key("a"), Value::String("é".to_string()))
                .unwrap();
        }
        let seg = only_segment(&dir);
        let intact = std::fs::read(&seg).unwrap();
        // The next record's line, cut between the two bytes of its `é`.
        let line = record_line(&key("b").to_hex(), "\"é\"", None);
        let cut = line.find('é').unwrap() + 1;
        let mut torn = intact.clone();
        torn.extend_from_slice(&line.as_bytes()[..cut]);
        std::fs::write(&seg, &torn).unwrap();

        let verify = ResultStore::verify_dir(&dir).unwrap();
        assert!(verify.is_clean(), "{verify:?}");
        assert!(verify.segments[0].torn_tail);
        assert_eq!(verify.segments[0].bytes, torn.len() as u64);
        assert_eq!(verify.records, 1);

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.io_stats().quarantined, 0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&key("a")).as_deref(), Some(&"é".to_value()));
        assert_eq!(
            std::fs::read(&seg).unwrap(),
            intact,
            "the torn bytes are cut"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn foreign_segments_are_quarantined_not_fatal() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-00000001-1.jsonl"), "{\"kind\": \"other\"}\n").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 0, "foreign records never load");
        assert_eq!(store.io_stats().quarantined, 1);
        assert!(
            dir.join("seg-00000001-1.jsonl.quarantine").exists(),
            "the bad segment is set aside, not deleted"
        );
        assert!(!dir.join("seg-00000001-1.jsonl").exists());
        // The store stays fully usable.
        store.put(&key("fresh"), 1u64.to_value()).unwrap();
        drop(store);
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.io_stats().quarantined, 0, "already set aside");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn interior_corruption_quarantines_one_segment_and_keeps_the_rest() {
        let dir = temp_dir("interior-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        write_log(
            &dir.join("seg-00000001-1.jsonl"),
            &header(),
            &[record(&key("good").to_hex(), &1u64.to_value(), None)],
        )
        .unwrap();
        // Interior garbage: a corrupt line with an intact record after
        // it, so torn-tail repair cannot apply.
        std::fs::write(
            dir.join("seg-00000002-1.jsonl"),
            format!(
                "{}\nnot json\n{}\n",
                serde_json::to_string(&header()).unwrap(),
                serde_json::to_string(&record(&key("lost").to_hex(), &2u64.to_value(), None))
                    .unwrap(),
            ),
        )
        .unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(&key("good")).as_deref(), Some(&1u64.to_value()));
        assert_eq!(store.get(&key("lost")), None, "whole bad segment drops");
        assert_eq!(store.io_stats().quarantined, 1);
        assert!(dir.join("seg-00000002-1.jsonl.quarantine").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn verify_dir_reports_health_without_repairing() {
        let dir = temp_dir("verify");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(&key("a"), 1u64.to_value()).unwrap();
            store.put(&key("b"), 2u64.to_value()).unwrap();
        }
        let clean = ResultStore::verify_dir(&dir).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.records, 2);
        assert_eq!(clean.keys, 2);
        assert_eq!(clean.quarantined, 0);

        // Plant interior corruption; verify must flag it and leave the
        // bytes exactly as found.
        let seg = dir.join(&clean.segments[0].name);
        let mut text = std::fs::read_to_string(&seg).unwrap();
        let insert_at = text.find('\n').unwrap() + 1;
        text.insert_str(insert_at, "garbage line\n");
        std::fs::write(&seg, &text).unwrap();
        let dirty = ResultStore::verify_dir(&dir).unwrap();
        assert!(!dirty.is_clean());
        assert!(dirty.segments[0]
            .error
            .as_deref()
            .unwrap()
            .contains("line 2"));
        assert_eq!(std::fs::read_to_string(&seg).unwrap(), text, "read-only");

        // A torn tail is repairable: flagged but still clean.
        std::fs::write(
            &seg,
            format!(
                "{}\n{}\n{{\"key\": \"ab",
                serde_json::to_string(&header()).unwrap(),
                serde_json::to_string(&record(&key("a").to_hex(), &1u64.to_value(), None)).unwrap(),
            ),
        )
        .unwrap();
        let torn = ResultStore::verify_dir(&dir).unwrap();
        assert!(torn.is_clean());
        assert!(torn.segments[0].torn_tail);
        assert_eq!(torn.records, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_points_at_every_byte_offset_recover_a_prefix_of_puts() {
        // The central crash-safety property: wherever the disk dies —
        // at every single byte offset of the store's write stream —
        // reopening recovers exactly the puts that were acknowledged
        // before the failure. No phantom entries, no holes, no
        // reordering.
        const PUTS: u64 = 5;
        let probe_dir = temp_dir("crash-probe");
        let probe = Arc::new(FaultFs::seeded(0));
        {
            let store = open_on(&probe_dir, Arc::clone(&probe) as Arc<dyn Vfs>).unwrap();
            for i in 0..PUTS {
                store.put(&key(&format!("k{i}")), i.to_value()).unwrap();
            }
        }
        let total = probe.bytes_written();
        assert!(total > 0);
        let _ = std::fs::remove_dir_all(&probe_dir);

        let dir = temp_dir("crash-sweep");
        for offset in 0..=total {
            let _ = std::fs::remove_dir_all(&dir);
            let fs = Arc::new(FaultFs::seeded(offset).crash_after_bytes(offset));
            let store = open_on(&dir, fs as Arc<dyn Vfs>).unwrap();
            let mut acked = Vec::new();
            for i in 0..PUTS {
                match store.put(&key(&format!("k{i}")), i.to_value()) {
                    Ok(_) => acked.push(i),
                    Err(_) => break,
                }
            }
            drop(store);
            let recovered = ResultStore::open(&dir).unwrap();
            // Exactly the acked prefix — plus, at most, the one put
            // that was in flight when the disk died: a tear that cuts
            // only the trailing newline leaves a complete record,
            // which recovery rightly keeps (same key, same
            // deterministic value — recovered data, not a phantom).
            let n = recovered.len();
            assert!(
                n == acked.len() || (n == acked.len() + 1 && acked.len() < PUTS as usize),
                "offset {offset}: recovered {n} entries from {} acked puts",
                acked.len()
            );
            for i in 0..PUTS {
                assert_eq!(
                    recovered.get(&key(&format!("k{i}"))).as_deref(),
                    ((i as usize) < n).then(|| i.to_value()).as_ref(),
                    "offset {offset}: recovered set must be the prefix k0..k{n}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_never_serve_an_unacknowledged_result() {
        // Under a storm of injected ENOSPC, torn writes, and fsync
        // failures (fsync policy, tiny segments so seals happen
        // constantly), the live store serves exactly the acknowledged
        // puts, and every acknowledged put survives reopen.
        let dir = temp_dir("fault-storm");
        let fs = Arc::new(
            FaultFs::seeded(42)
                .write_errors(0.25)
                .short_writes(0.15)
                .fsync_errors(0.25),
        );
        let store = ResultStore::open_with(
            &dir,
            StoreOptions {
                segment_bytes: 128,
                durability: DurabilityPolicy::Fsync,
                vfs: Some(fs as Arc<dyn Vfs>),
            },
        )
        .unwrap();
        let mut acked = Vec::new();
        let mut failed = 0u64;
        for i in 0..60u64 {
            match store.put(&key(&format!("k{i}")), i.to_value()) {
                Ok(_) => acked.push(i),
                Err(_) => failed += 1,
            }
        }
        assert!(failed > 0, "the storm must actually inject failures");
        assert!(!acked.is_empty(), "some puts must get through");
        for i in 0..60u64 {
            assert_eq!(
                store.get(&key(&format!("k{i}"))).is_some(),
                acked.contains(&i),
                "k{i}: live store must serve acked puts and only those"
            );
        }
        drop(store);
        let recovered = ResultStore::open(&dir).unwrap();
        for i in &acked {
            assert_eq!(
                recovered.get(&key(&format!("k{i}"))).as_deref(),
                Some(&i.to_value()),
                "acked k{i} must survive reopen"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsync_policy_syncs_on_seal_and_compaction() {
        let dir = temp_dir("fsync-policy");
        let fs = Arc::new(RealFs::new());
        let counting: Arc<dyn Vfs> = Arc::clone(&fs) as Arc<dyn Vfs>;
        let store = ResultStore::open_with(
            &dir,
            StoreOptions {
                segment_bytes: 96,
                durability: DurabilityPolicy::Fsync,
                vfs: Some(counting),
            },
        )
        .unwrap();
        assert_eq!(store.durability(), DurabilityPolicy::Fsync);
        for i in 0..6u64 {
            store.put(&key(&format!("k{i}")), i.to_value()).unwrap();
        }
        let snap = store.io_stats();
        assert!(snap.fsyncs > 0, "seals must fsync under the policy");
        assert_eq!(snap.injected_errors, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_stats_counts_lookups() {
        let stats = CacheStats {
            hits: 3,
            misses: 2,
            appended: 2,
        };
        assert_eq!(stats.lookups(), 5);
        assert_eq!(CacheStats::default().lookups(), 0);
        let json = serde_json::to_string(&stats).unwrap();
        assert!(
            json.contains("\"hits\":3") || json.contains("\"hits\": 3"),
            "{json}"
        );
    }

    #[test]
    fn tags_round_trip_across_reopen() {
        let dir = temp_dir("tags");
        {
            let store = ResultStore::open(&dir).unwrap();
            store
                .put_tagged(&key("a"), 1u64.to_value(), "scheme-v1")
                .unwrap();
            store.put(&key("b"), 2u64.to_value()).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        let index = store.index.lock();
        assert_eq!(
            index
                .entries
                .get(&key("a").to_hex())
                .unwrap()
                .tag
                .as_deref(),
            Some("scheme-v1")
        );
        assert_eq!(index.entries.get(&key("b").to_hex()).unwrap().tag, None);
        drop(index);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_drops_unreachable_tags() {
        let dir = temp_dir("gc-unreachable");
        let store = ResultStore::open(&dir).unwrap();
        store
            .put_tagged(&key("new"), 1u64.to_value(), "scheme-v2")
            .unwrap();
        store
            .put_tagged(&key("old"), 2u64.to_value(), "scheme-v1")
            .unwrap();
        store.put(&key("legacy"), 3u64.to_value()).unwrap();
        let report = store.gc(|tag| tag == Some("scheme-v2"), None).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped_unreachable, 2);
        assert_eq!(report.dropped_for_budget, 0);
        assert!(report.bytes_after < report.bytes_before, "{report:?}");
        assert_eq!(
            report.bytes_reclaimed(),
            report.bytes_before - report.bytes_after
        );
        assert_eq!(store.get(&key("new")).as_deref(), Some(&1u64.to_value()));
        assert_eq!(store.get(&key("old")), None);
        assert_eq!(store.get(&key("legacy")), None);
        // The rewrite survives a reopen.
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.segment_count().unwrap(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_budget_evicts_oldest_first() {
        let dir = temp_dir("gc-budget");
        let store = ResultStore::open(&dir).unwrap();
        for i in 0..8u64 {
            store
                .put_tagged(&key(&format!("k{i}")), i.to_value(), "t")
                .unwrap();
        }
        // Budget that fits roughly half the entries.
        let full = store.disk_bytes().unwrap();
        let report = store.gc(|_| true, Some(full / 2)).unwrap();
        assert_eq!(report.dropped_unreachable, 0);
        assert!(report.dropped_for_budget > 0, "{report:?}");
        assert!(report.bytes_after <= full / 2, "{report:?}");
        // Oldest keys go first; the newest must survive.
        assert_eq!(store.get(&key("k0")), None);
        assert_eq!(store.get(&key("k7")).as_deref(), Some(&7u64.to_value()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_after_reopen_still_knows_age() {
        let dir = temp_dir("gc-age-reopen");
        {
            let store = ResultStore::with_segment_bytes(&dir, 48).unwrap();
            for i in 0..6u64 {
                store
                    .put_tagged(&key(&format!("k{i}")), i.to_value(), "t")
                    .unwrap();
            }
        }
        // Reopen compacts; insertion order must survive the rewrite.
        let store = ResultStore::open(&dir).unwrap();
        let report = store.gc(|_| true, Some(0)).unwrap();
        assert_eq!(report.kept, 0, "budget 0 clears everything: {report:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn two_stores_in_one_directory_never_clobber_segments() {
        // Same pid, same directory, same next_seq: before the per-store
        // discriminator both stores would write the same segment file.
        let dir = temp_dir("disc-collision");
        let a = ResultStore::open(&dir).unwrap();
        let b = ResultStore::open(&dir).unwrap();
        a.put(&key("from-a"), 1u64.to_value()).unwrap();
        b.put(&key("from-b"), 2u64.to_value()).unwrap();
        drop((a, b));
        let merged = ResultStore::open(&dir).unwrap();
        assert_eq!(merged.len(), 2, "both writers' segments survive");
        assert_eq!(
            merged.get(&key("from-a")).as_deref(),
            Some(&1u64.to_value())
        );
        assert_eq!(
            merged.get(&key("from-b")).as_deref(),
            Some(&2u64.to_value())
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn legacy_segment_names_still_load() {
        let dir = temp_dir("legacy-names");
        std::fs::create_dir_all(&dir).unwrap();
        let hex = key("old").to_hex();
        // Pre-discriminator name shape: seg-{seq}-{pid}.jsonl.
        write_log(
            &dir.join("seg-00000001-4242.jsonl"),
            &header(),
            &[record(&hex, &7u64.to_value(), None)],
        )
        .unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(&key("old")).as_deref(), Some(&7u64.to_value()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn segment_names_are_validated() {
        assert!(ResultStore::is_segment_name("seg-00000001-1-abcd.jsonl"));
        assert!(ResultStore::is_segment_name("seg-00000000-compact.jsonl"));
        assert!(!ResultStore::is_segment_name("notseg.jsonl"));
        assert!(!ResultStore::is_segment_name("seg-1.txt"));
        assert!(!ResultStore::is_segment_name("../seg-1.jsonl"));
        assert!(!ResultStore::is_segment_name("seg-..-x.jsonl"));
        assert!(!ResultStore::is_segment_name("seg-a/b.jsonl"));
        // Quarantined files fall outside the live-segment namespace.
        assert!(!ResultStore::is_segment_name(
            "seg-00000001-1.jsonl.quarantine"
        ));
    }

    #[test]
    fn manifest_lists_segments_and_read_rejects_bad_names() {
        let dir = temp_dir("manifest");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&key("a"), 1u64.to_value()).unwrap();
        let segments = store.segments().unwrap();
        assert_eq!(segments.len(), 1);
        assert!(segments[0].name.starts_with("seg-"));
        assert!(segments[0].bytes > 0);
        let text = store.read_segment(&segments[0].name).unwrap();
        assert!(text.contains(&key("a").to_hex()));
        assert!(store.read_segment("../../etc/passwd").is_err());
        assert!(store.read_segment("seg-missing-0.jsonl").is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn import_is_put_if_absent_and_round_trips() {
        let dir_a = temp_dir("import-a");
        let dir_b = temp_dir("import-b");
        let a = ResultStore::open(&dir_a).unwrap();
        let b = ResultStore::open(&dir_b).unwrap();
        a.put_tagged(&key("x"), 1u64.to_value(), "t").unwrap();
        a.put(&key("y"), 2u64.to_value()).unwrap();
        b.put(&key("y"), 2u64.to_value()).unwrap();
        let name = a.segments().unwrap()[0].name.clone();
        let text = a.read_segment(&name).unwrap();
        let report = b.import_segment_text(&text).unwrap();
        assert_eq!(report.imported, 1, "only the absent key lands");
        assert_eq!(report.skipped, 1, "the present key is left untouched");
        assert_eq!(b.get(&key("x")).as_deref(), Some(&1u64.to_value()));
        assert_eq!(a.keys_digest(), b.keys_digest(), "same key set converges");
        // Re-importing is a no-op.
        let again = b.import_segment_text(&text).unwrap();
        assert_eq!(again.imported, 0);
        assert_eq!(again.skipped, 2);
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }

    #[test]
    fn import_rejects_foreign_or_garbled_text() {
        let dir = temp_dir("import-bad");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.import_segment_text("").is_err());
        assert!(store
            .import_segment_text("{\"kind\": \"other\"}\n")
            .is_err());
        let garbled = format!(
            "{}\nnot json\n{}\n",
            serde_json::to_string(&header()).unwrap(),
            serde_json::to_string(&record(&key("a").to_hex(), &1u64.to_value(), None)).unwrap(),
        );
        assert!(store.import_segment_text(&garbled).is_err());
        // A torn final line (no trailing newline) is tolerated.
        let torn = format!(
            "{}\n{}\n{{\"key\": \"ab",
            serde_json::to_string(&header()).unwrap(),
            serde_json::to_string(&record(&key("a").to_hex(), &1u64.to_value(), None)).unwrap(),
        );
        let report = store.import_segment_text(&torn).unwrap();
        assert_eq!(report.imported, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn import_through_a_fault_fs_fails_cleanly_and_recovers() {
        // The gossip import path shares insert_raw, so injected append
        // failures must surface to the caller and never corrupt the
        // local store.
        let dir_a = temp_dir("import-fault-a");
        let dir_b = temp_dir("import-fault-b");
        let a = ResultStore::open(&dir_a).unwrap();
        for i in 0..4u64 {
            a.put(&key(&format!("g{i}")), i.to_value()).unwrap();
        }
        let text = a.read_segment(&a.segments().unwrap()[0].name).unwrap();
        let fs = Arc::new(FaultFs::seeded(9).write_errors(0.5));
        let b = open_on(&dir_b, fs as Arc<dyn Vfs>).unwrap();
        // Retry until the whole import lands (put-if-absent makes the
        // retry loop idempotent, exactly like gossip anti-entropy).
        let mut attempts = 0;
        while b.import_segment_text(&text).is_err() {
            attempts += 1;
            assert!(attempts < 100, "import must eventually succeed");
        }
        drop(b);
        let recovered = ResultStore::open(&dir_b).unwrap();
        for i in 0..4u64 {
            assert_eq!(
                recovered.get(&key(&format!("g{i}"))).as_deref(),
                Some(&i.to_value())
            );
        }
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }

    #[test]
    fn keys_digest_is_order_independent_and_counts() {
        let dir_a = temp_dir("digest-a");
        let dir_b = temp_dir("digest-b");
        let a = ResultStore::open(&dir_a).unwrap();
        let b = ResultStore::open(&dir_b).unwrap();
        assert_eq!(a.keys_digest(), b.keys_digest(), "both empty");
        assert!(a.keys_digest().starts_with("0:"));
        a.put(&key("p"), 1u64.to_value()).unwrap();
        a.put(&key("q"), 2u64.to_value()).unwrap();
        b.put(&key("q"), 2u64.to_value()).unwrap();
        assert_ne!(a.keys_digest(), b.keys_digest());
        b.put(&key("p"), 1u64.to_value()).unwrap();
        assert_eq!(
            a.keys_digest(),
            b.keys_digest(),
            "insertion order is invisible"
        );
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }

    #[test]
    fn a_kept_digest_matches_a_fresh_fold() {
        // Once folded, the digest follows puts, imports and gc; a
        // reopened store folds it from scratch.
        let dir = temp_dir("digest-kept");
        let peer_dir = temp_dir("digest-kept-peer");
        let store = ResultStore::open(&dir).unwrap();
        let fresh = |store: &ResultStore| {
            let index = store.index.lock();
            let acc = index.entries.keys().fold(0, |acc, k| acc ^ key_hash(k));
            format!("{}:{acc:032x}", index.entries.len())
        };
        // More than one chunk, so the first fold resumes after a key.
        for i in 0..KEY_CHUNK + 3 {
            store
                .put_tagged(&key(&format!("k{i}")), 1u64.to_value(), "old")
                .unwrap();
        }
        assert_eq!(store.keys_digest(), fresh(&store));
        store
            .put_tagged(&key("new"), 2u64.to_value(), "new")
            .unwrap();
        let peer = ResultStore::open(&peer_dir).unwrap();
        peer.put(&key("peer"), 3u64.to_value()).unwrap();
        let segment = peer
            .read_segment(&peer.segments().unwrap()[0].name)
            .unwrap();
        assert_eq!(store.import_segment_text(&segment).unwrap().imported, 1);
        assert_eq!(store.keys_digest(), fresh(&store));
        store.gc(|tag| tag != Some("old"), None).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.keys_digest(), fresh(&store));
        let digest = store.keys_digest();
        drop(store);
        assert_eq!(ResultStore::open(&dir).unwrap().keys_digest(), digest);
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(peer_dir);
    }

    #[test]
    fn reads_never_wait_on_a_pass_over_the_keys() {
        // keys_digest folds the keys through for_each_key; stop that
        // pass inside its first chunk and read.
        let dir = temp_dir("key-pass");
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let count = KEY_CHUNK + 1;
        for i in 0..count {
            store
                .put(&key(&format!("k{i}")), (i as u64).to_value())
                .unwrap();
        }
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let pass = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let writer = store.writer.lock();
                let mut seen = 0;
                store.for_each_key(&writer, |_| {
                    if seen == 0 {
                        entered_tx.send(()).unwrap();
                        go_rx.recv().unwrap();
                    }
                    seen += 1;
                });
                seen
            })
        };
        entered_rx.recv().unwrap();
        // As in the blocked-append test, the reads run on a thread of
        // their own so that one waiting fails the test, not hangs it.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let _ = tx.send((store.get(&key("k0")), store.len()));
            })
        };
        let read = rx.recv_timeout(std::time::Duration::from_secs(5));
        go_tx.send(()).unwrap();
        let (value, len) = read.expect("a read waited on the pass over the keys");
        assert_eq!(value.as_deref(), Some(&0u64.to_value()));
        assert_eq!(len, count);
        assert_eq!(pass.join().unwrap(), count, "every key, once");
        reader.join().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Where a [`GateFs`] append stands.
    #[derive(Debug, Default)]
    struct Gate {
        /// (armed, entered, released)
        state: std::sync::Mutex<(bool, bool, bool)>,
        changed: std::sync::Condvar,
    }

    impl Gate {
        fn update(&self, f: impl FnOnce(&mut (bool, bool, bool))) {
            f(&mut self.state.lock().unwrap());
            self.changed.notify_all();
        }

        fn wait_until(&self, done: impl Fn(&(bool, bool, bool)) -> bool) {
            let mut state = self.state.lock().unwrap();
            while !done(&state) {
                state = self.changed.wait(state).unwrap();
            }
        }

        /// Blocks the write that finds the gate armed until release.
        fn pass(&self) {
            let armed = std::mem::take(&mut self.state.lock().unwrap().0);
            if armed {
                self.update(|s| s.1 = true);
                self.wait_until(|s| s.2);
            }
        }
    }

    /// The real filesystem, except that once armed, the next append
    /// blocks inside its write until the test releases it.
    #[derive(Debug, Default)]
    struct GateFs {
        real: RealFs,
        gate: Arc<Gate>,
    }

    #[derive(Debug)]
    struct GatedFile {
        file: Box<dyn crate::vfs::VfsFile>,
        gate: Arc<Gate>,
    }

    impl crate::vfs::VfsFile for GatedFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.gate.pass();
            self.file.write_all(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            self.file.sync_all()
        }
    }

    impl Vfs for GateFs {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.real.read(path)
        }
        fn write(&self, path: &Path, contents: &[u8]) -> std::io::Result<()> {
            self.real.write(path, contents)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.real.rename(from, to)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            self.real.create_dir_all(path)
        }
        fn read_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
            self.real.read_dir(path)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.real.remove_file(path)
        }
        fn metadata_len(&self, path: &Path) -> std::io::Result<u64> {
            self.real.metadata_len(path)
        }
        fn set_len(&self, path: &Path, len: u64) -> std::io::Result<()> {
            self.real.set_len(path, len)
        }
        fn last_byte(&self, path: &Path) -> std::io::Result<Option<u8>> {
            self.real.last_byte(path)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn crate::vfs::VfsFile>> {
            Ok(Box::new(GatedFile {
                file: self.real.open_append(path)?,
                gate: Arc::clone(&self.gate),
            }))
        }
        fn fsync_path(&self, path: &Path) -> std::io::Result<()> {
            self.real.fsync_path(path)
        }
        fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
            self.real.fsync_dir(path)
        }
        fn stats(&self) -> &crate::vfs::IoStats {
            self.real.stats()
        }
    }

    #[test]
    fn reads_never_wait_on_a_blocked_append() {
        let dir = temp_dir("blocked-append");
        let fs = Arc::new(GateFs::default());
        let store = Arc::new(open_on(&dir, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap());
        store.put(&key("a"), 1u64.to_value()).unwrap();
        fs.gate.update(|s| s.0 = true);
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.put(&key("b"), 2u64.to_value()))
        };
        fs.gate.wait_until(|s| s.1);
        // The reads run on a thread of their own, so that one waiting
        // on the append fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let _ = tx.send((store.get(&key("a")), store.get(&key("b")), store.len()));
            })
        };
        let read = rx.recv_timeout(std::time::Duration::from_secs(5));
        fs.gate.update(|s| s.2 = true);
        let (a, b, len) = read.expect("a read waited on the blocked append");
        assert_eq!(a.as_deref(), Some(&1u64.to_value()));
        assert_eq!(b, None, "a key is invisible until its append returns");
        assert_eq!(len, 1);
        assert!(writer.join().unwrap().unwrap());
        reader.join().unwrap();
        assert_eq!(store.get(&key("b")).as_deref(), Some(&2u64.to_value()));
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sync_is_safe_with_and_without_writer() {
        let dir = temp_dir("sync");
        let store = ResultStore::open(&dir).unwrap();
        store.sync().unwrap();
        store.put(&key("a"), 1u64.to_value()).unwrap();
        store.sync().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[ignore = "benchmark: run with --ignored --nocapture to measure"]
    fn bench_fsync_policy_throughput_delta() {
        // Measures put throughput under flush vs fsync durability with
        // seal-sized segments — the dated record in EXPERIMENTS.md R8.
        let run = |durability: DurabilityPolicy| -> (u64, f64) {
            let dir = temp_dir(&format!("bench-{}", durability.as_str()));
            let store = ResultStore::open_with(
                &dir,
                StoreOptions {
                    segment_bytes: 4096,
                    durability,
                    vfs: None,
                },
            )
            .unwrap();
            let puts: u64 = 2000;
            let start = std::time::Instant::now();
            for i in 0..puts {
                store
                    .put_tagged(&key(&format!("bench-{i}")), i.to_value(), "bench")
                    .unwrap();
            }
            store.sync().unwrap();
            let secs = start.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(dir);
            (puts, puts as f64 / secs)
        };
        let (n, flush_rate) = run(DurabilityPolicy::Flush);
        let (_, fsync_rate) = run(DurabilityPolicy::Fsync);
        println!(
            "BENCH_durability {{\"puts\": {n}, \"flush_puts_per_s\": {flush_rate:.0}, \
             \"fsync_puts_per_s\": {fsync_rate:.0}, \"slowdown\": {:.2}}}",
            flush_rate / fsync_rate
        );
    }
}
