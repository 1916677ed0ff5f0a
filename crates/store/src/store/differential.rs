//! The eager segment reader the store used before it kept payloads as
//! text, kept as the oracle for the lazy one: every line parsed into a
//! tree, every payload cloned out of its record, every record rendered
//! from one tree. The tests below hold open, `get`, compaction, the key
//! digest, `verify_dir`, put and import to it, on random stores and on
//! hand-picked corrupt ones.

use super::*;
use crate::jsonl::write_log_on;
use serde::Number;
use std::collections::BTreeSet;

/// Renders one record as a tree, as the eager store did before writing
/// it.
pub(super) fn record(key: &str, value: &Value, tag: Option<&str>) -> Value {
    let mut fields = vec![
        ("key".to_string(), Value::String(key.to_string())),
        ("value".to_string(), value.clone()),
    ];
    if let Some(tag) = tag {
        fields.push(("tag".to_string(), Value::String(tag.to_string())));
    }
    Value::Object(fields)
}

/// A log's lines, split as `str::lines` splits text: each line's bytes
/// and its text, or, when it is not UTF-8, the offset of its first bad
/// byte. Each line is checked on its own.
fn lines(bytes: &[u8]) -> Vec<(&[u8], Result<&str, usize>)> {
    let mut pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let last = pieces.pop().filter(|last| !last.is_empty());
    let terminated = pieces
        .into_iter()
        .map(|p| p.strip_suffix(b"\r").unwrap_or(p));
    terminated
        .chain(last)
        .map(|line| (line, std::str::from_utf8(line).map_err(|e| e.valid_up_to())))
        .collect()
}

fn not_utf8(at: usize) -> String {
    format!("invalid UTF-8 at byte {at}")
}

/// A log as the eager reader parses it: the header, the records and,
/// when the last line is torn, the bytes to keep.
type EagerLog = (Value, Vec<Value>, Option<usize>);

/// The eager log reader: every line parsed into a tree. A line that is
/// not UTF-8 reads as one that is not JSON. Returns the parsed log, or
/// the number of the bad line and why.
fn parse_log(bytes: &[u8]) -> Result<EagerLog, (usize, String)> {
    let terminated = bytes.ends_with(b"\n");
    let lines = lines(bytes);
    let header = match lines.first() {
        Some((_, Ok(first))) if !first.trim().is_empty() => {
            serde_json::from_str(first).map_err(|e| (1, format!("bad header: {e}")))?
        }
        Some((_, Err(at))) => return Err((1, format!("bad header: {}", not_utf8(*at)))),
        _ => return Err((1, "empty log (missing header)".to_string())),
    };
    let mut records = Vec::with_capacity(lines.len().saturating_sub(1));
    for (i, (raw, line)) in lines.iter().enumerate().skip(1) {
        let parsed = match line {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => serde_json::from_str::<Value>(text).map_err(|e| e.to_string()),
            Err(at) => Err(not_utf8(*at)),
        };
        match parsed {
            Ok(v) => records.push(v),
            Err(_) if i + 1 == lines.len() && !terminated => {
                return Ok((header, records, Some(bytes.len() - raw.len())));
            }
            Err(e) => return Err((i + 1, e)),
        }
    }
    Ok((header, records, None))
}

/// [`parse_log`] on a file, repairing a torn tail.
fn read_log_on(vfs: &dyn Vfs, path: &Path) -> Result<(Value, Vec<Value>), StoreError> {
    let bytes = vfs.read(path).map_err(|e| StoreError::io(path, e))?;
    let (header, records, torn) =
        parse_log(&bytes).map_err(|(line, why)| StoreError::parse(path, line, why))?;
    if let Some(keep) = torn {
        crate::jsonl::truncate_torn_tail(vfs, path, keep, bytes.len() - keep);
    }
    Ok((header, records))
}

/// A segment's records, from its parsed lines, or why it is corrupt.
fn segment_records(
    head: &Value,
    records: Vec<Value>,
) -> Result<Vec<(String, Value, Option<String>)>, String> {
    if head.get("kind").and_then(Value::as_str) != Some(STORE_KIND) {
        return Err("not a wrsn result-store segment".to_string());
    }
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        let (Some(key), Some(value)) = (rec.get("key").and_then(Value::as_str), rec.get("value"))
        else {
            return Err("segment record missing key/value".to_string());
        };
        let tag = rec
            .get("tag")
            .and_then(Value::as_str)
            .map(ToString::to_string);
        out.push((key.to_string(), value.clone(), tag));
    }
    Ok(out)
}

/// The eager segment loader.
fn load_segment(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<Vec<(String, Value, Option<String>)>, SegmentFault> {
    let (head, records) = match read_log_on(vfs, path) {
        Ok(parsed) => parsed,
        Err(e @ StoreError::Io { .. }) => return Err(SegmentFault::Io(e)),
        Err(e @ StoreError::Parse { .. }) => return Err(SegmentFault::Corrupt(e.to_string())),
    };
    segment_records(&head, records).map_err(SegmentFault::Corrupt)
}

/// What the eager open serves: key → (payload, tag, insertion rank).
type EagerIndex = BTreeMap<String, (Value, Option<String>, u64)>;

/// The eager open, reduced to what it serves and the files it leaves
/// behind: it loads every segment, quarantines corrupt ones, and
/// compacts exactly when the store does.
fn open(dir: &Path) -> EagerIndex {
    let vfs = RealFs::new();
    let mut segments = ResultStore::segment_files_on(&vfs, dir).unwrap();
    segments.sort();
    let mut entries = BTreeMap::new();
    let mut live_segments = Vec::new();
    let mut total_records = 0usize;
    let mut order = 0u64;
    for path in segments {
        match load_segment(&vfs, &path) {
            Ok(records) => {
                for (key, value, tag) in records {
                    entries.insert(key, (value, tag, order));
                    order += 1;
                    total_records += 1;
                }
                live_segments.push(path);
            }
            Err(SegmentFault::Corrupt(why)) => quarantine_segment(&vfs, &path, &why),
            Err(SegmentFault::Io(e)) => panic!("{e}"),
        }
    }
    if live_segments.len() > 1 || total_records > entries.len() {
        let target = dir.join("seg-00000000-compact.jsonl");
        let mut live: Vec<_> = entries.iter().collect();
        live.sort_by_key(|(_, (_, _, order))| *order);
        let records: Vec<Value> = live
            .iter()
            .map(|(k, (v, tag, _))| record(k, v, tag.as_deref()))
            .collect();
        write_log_on(&vfs, &target, &header(), &records, false).unwrap();
        for path in &live_segments {
            if *path != target {
                std::fs::remove_file(path).unwrap();
            }
        }
    }
    entries
}

/// The eager `verify_dir`.
fn verify_dir(dir: &Path) -> VerifyReport {
    let mut report = VerifyReport::default();
    let mut keys = BTreeSet::new();
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(QUARANTINE_SUFFIX) {
            report.quarantined += 1;
        } else if name.starts_with("seg-") && name.ends_with(".jsonl") {
            names.push(name);
        }
    }
    names.sort();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).unwrap();
        let mut seg = SegmentVerify {
            name,
            bytes: bytes.len() as u64,
            ..SegmentVerify::default()
        };
        verify_segment(&bytes, &mut seg, &mut keys);
        report.records += seg.records;
        report.segments.push(seg);
    }
    report.keys = keys.len() as u64;
    report
}

/// The eager parsing half of `verify_dir`.
fn verify_segment(bytes: &[u8], seg: &mut SegmentVerify, keys: &mut BTreeSet<String>) {
    let terminated = bytes.ends_with(b"\n");
    let lines = lines(bytes);
    let head: Value = match lines.first() {
        Some((_, Ok(first))) if !first.trim().is_empty() => match serde_json::from_str(first) {
            Ok(v) => v,
            Err(e) => {
                seg.error = Some(format!("bad header: {e}"));
                return;
            }
        },
        Some((_, Err(at))) => {
            seg.error = Some(format!("bad header: {}", not_utf8(*at)));
            return;
        }
        _ => {
            seg.error = Some("empty segment (missing header)".to_string());
            return;
        }
    };
    if head.get("kind").and_then(Value::as_str) != Some(STORE_KIND) {
        seg.error = Some("not a wrsn result-store segment".to_string());
        return;
    }
    for (i, (_, line)) in lines.iter().enumerate().skip(1) {
        let parsed = match line {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => serde_json::from_str::<Value>(text).map_err(|e| e.to_string()),
            Err(at) => Err(not_utf8(*at)),
        };
        let rec = match parsed {
            Ok(v) => v,
            Err(_) if i + 1 == lines.len() && !terminated => {
                seg.torn_tail = true;
                break;
            }
            Err(e) => {
                seg.error = Some(format!("line {}: {e}", i + 1));
                return;
            }
        };
        match rec.get("key").and_then(Value::as_str) {
            Some(key) if rec.get("value").is_some() => {
                keys.insert(key.to_string());
                seg.records += 1;
            }
            _ => {
                seg.error = Some(format!("line {}: record missing key/value", i + 1));
                return;
            }
        }
    }
}

/// The eager import: every line parsed into a tree, each payload cloned
/// into the store as it is read.
fn import_segment_text(store: &ResultStore, text: &str) -> Result<ImportReport, StoreError> {
    let pseudo = store.dir.join("<import>");
    let terminated = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() || lines[0].trim().is_empty() {
        return Err(StoreError::parse(
            &pseudo,
            1,
            "empty segment (missing header)",
        ));
    }
    let head: Value = serde_json::from_str(lines[0])
        .map_err(|e| StoreError::parse(&pseudo, 1, format!("bad header: {e}")))?;
    if head.get("kind").and_then(Value::as_str) != Some(STORE_KIND) {
        return Err(StoreError::parse(
            &pseudo,
            1,
            "not a wrsn result-store segment",
        ));
    }
    let mut report = ImportReport::default();
    let mut writer = store.writer.lock();
    for (i, raw) in lines.iter().enumerate().skip(1) {
        if raw.trim().is_empty() {
            continue;
        }
        let rec = match serde_json::from_str::<Value>(raw) {
            Ok(v) => v,
            Err(_) if i + 1 == lines.len() && !terminated => break,
            Err(e) => return Err(StoreError::parse(&pseudo, i + 1, e)),
        };
        let (Some(key), Some(value)) = (rec.get("key").and_then(Value::as_str), rec.get("value"))
        else {
            return Err(StoreError::parse(
                &pseudo,
                i + 1,
                "segment record missing key/value",
            ));
        };
        let tag = rec.get("tag").and_then(Value::as_str);
        if store.insert_raw(&mut writer, key, value.clone(), tag)? {
            report.imported += 1;
        } else {
            report.skipped += 1;
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Random stores
// ---------------------------------------------------------------------

/// SplitMix64: a seeded stream, so every case replays from its number.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Keys the random records draw from: few, so segments repeat them, and
/// some that need escapes.
const KEYS: [&str; 6] = ["k0", "k1", "k2", "a\"b\\c", "é\n\u{1}", "😀"];

fn random_string(rng: &mut Rng) -> String {
    let pieces = [
        "a", "\"", "\\", "\n", "\u{1f}", "é", "😀", "/", "\u{7f}", " ",
    ];
    (0..rng.below(5)).map(|_| rng.pick(&pieces)).collect()
}

/// A random payload: nested arrays and objects, escaped strings,
/// repeated member names, and numbers at the edges.
fn random_value(rng: &mut Rng, depth: u32) -> Value {
    let (bits, shift) = (rng.next(), rng.below(64));
    match rng.below(if depth >= 3 { 6 } else { 9 }) {
        0 => [Value::Null, Value::Bool(true), Value::Bool(false)][rng.below(3) as usize].clone(),
        1 => Value::Number(Number::PosInt(rng.pick(&[0, 1, u64::MAX, bits >> shift]))),
        2 => Value::Number(Number::NegInt(rng.pick(&[
            -1,
            i64::MIN,
            -((bits >> 2) as i64) - 1,
        ]))),
        3 => Value::Number(Number::Float(rng.pick(&[
            -0.0,
            5e-324,
            2.225e-308,
            f64::MIN_POSITIVE,
            0.1,
            1e16,
            -1e300,
            f64::from_bits(bits),
        ]))),
        4 | 5 => Value::String(random_string(rng)),
        6 => Value::Array(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| {
                    let name = rng.pick(&["seed", "cost_uj", "a\"b", "é", "k\n"]);
                    (name.to_string(), random_value(rng, depth + 1))
                })
                .collect(),
        ),
    }
}

/// A JSON string literal.
fn quoted(s: &str) -> String {
    serde_json::to_string(s).unwrap()
}

/// One random segment line: mostly records as the store writes them,
/// and every way a line can be valid in an unusual spelling, of the
/// wrong shape, or not JSON at all.
fn random_line(rng: &mut Rng) -> String {
    let key = rng.pick(&KEYS);
    let value = serde_json::to_string(&random_value(rng, 0)).unwrap();
    let tag = rng.pick(&[None, Some("t1"), Some("wrsn-seedrun-v1/0.1.0")]);
    match rng.below(64) {
        // Valid, in spellings the store never writes: escaped member
        // names and key, whitespace, a number compaction respells,
        // repeated members (the first counts) and tags that are no
        // strings.
        0 => format!(
            "{{ \"k\\u0065y\" : {} , \"v\\u0061lue\" : {value} }}",
            quoted(key)
        ),
        1 => r#"{"key":"k\u0031","value":1e3,"tag":"t\u0031"}"#.to_string(),
        2 => format!(
            "{{\"value\":{value},\"key\":{},\"value\":2,\"tag\":7,\"tag\":\"t1\",\"x\":[]}}",
            quoted(key)
        ),
        3 => format!("{{\"key\":{},\"value\":{value},\"tag\":null}}", quoted(key)),
        // Valid JSON of the wrong shape.
        4 => rng.pick(&["[1]", "null", "\"k0\"", "{}"]).to_string(),
        5 => format!("{{\"value\":{value}}}"),
        6 => format!("{{\"key\":{},\"tag\":\"t1\"}}", quoted(key)),
        7 => format!("{{\"key\":5,\"key\":{},\"value\":1}}", quoted(key)),
        // Not JSON.
        8 => rng
            .pick(&[
                "not json",
                "{\"key\":\"k0\",\"value\":}",
                "{\"key\":\"k0\",\"value\":1} x",
            ])
            .to_string(),
        9 => format!(
            "{{\"key\":\"k0\",\"value\":{}0{}}}",
            "[".repeat(128),
            "]".repeat(128)
        ),
        10 => String::new(),
        _ => serde_json::to_string(&record(key, &serde_json::from_str(&value).unwrap(), tag))
            .unwrap(),
    }
}

/// A random segment file: usually a store header and a few lines;
/// sometimes no header, a foreign one or a broken one; sometimes cut
/// short by a crash, mid-line or just before its final newline.
fn random_segment(rng: &mut Rng) -> String {
    let mut text = match rng.below(16) {
        0 => String::new(),
        1 => "{\"kind\":\"other\"}\n".to_string(),
        2 => "{\"kind\":\"wrsn-result-store\"\n".to_string(),
        3 => "{ \"kind\" : \"wrsn-result-store\", \"version\": 1 }\n".to_string(),
        _ => format!("{}\n", serde_json::to_string(&header()).unwrap()),
    };
    for _ in 0..rng.below(7) {
        text.push_str(&random_line(rng));
        text.push('\n');
    }
    match rng.below(6) {
        0 => {
            text.pop();
            let line_start = text.rfind('\n').map_or(0, |i| i + 1);
            let mut cut = line_start + rng.below((text.len() - line_start + 1) as u64) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
        1 => {
            text.pop();
        }
        _ => {}
    }
    text
}

fn case_dir(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("wrsn-store-differential")
        .join(format!("{name}-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file in `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// The lazy store's index as the eager one shows it, with payloads
/// printed so that −0.0 and 0.0 differ.
fn lazy_index(store: &ResultStore) -> BTreeMap<String, (String, Option<String>, u64)> {
    let index = store.index.lock();
    let entries = index.entries.iter();
    entries
        .map(|(k, e)| {
            let tree = serde_json::to_string(&*e.payload.tree()).unwrap();
            (
                k.clone(),
                (tree, e.tag.as_deref().map(str::to_string), e.order),
            )
        })
        .collect()
}

fn printed(index: &EagerIndex) -> BTreeMap<String, (String, Option<String>, u64)> {
    index
        .iter()
        .map(|(k, (v, tag, order))| {
            (
                k.clone(),
                (serde_json::to_string(v).unwrap(), tag.clone(), *order),
            )
        })
        .collect()
}

/// Writes `segments` into two fresh directories, checks `verify_dir`,
/// opens one with the store and one with the eager oracle, and holds
/// the two to the same index, key digest, and files left behind.
/// Returns the opened store.
fn open_both(name: &str, case: u64, segments: &[(String, String)]) -> ResultStore {
    let lazy_dir = case_dir(&format!("{name}-lazy"), case);
    let eager_dir = case_dir(&format!("{name}-eager"), case);
    for (file, text) in segments {
        std::fs::write(lazy_dir.join(file), text).unwrap();
        std::fs::write(eager_dir.join(file), text).unwrap();
    }
    assert_eq!(
        ResultStore::verify_dir(&lazy_dir).unwrap(),
        verify_dir(&eager_dir),
        "case {case}: {segments:?}"
    );
    let store = ResultStore::open(&lazy_dir).unwrap();
    let eager = open(&eager_dir);
    assert_eq!(
        lazy_index(&store),
        printed(&eager),
        "case {case}: {segments:?}"
    );
    let digest = eager.keys().fold(0, |acc, k| acc ^ key_hash(k));
    assert_eq!(
        store.keys_digest(),
        format!("{}:{digest:032x}", eager.len()),
        "case {case}"
    );
    // The same live files, byte for byte, compacted or repaired alike.
    // A quarantined segment keeps the bytes it was found with.
    let (lazy_files, eager_files) = (files(&lazy_dir), files(&eager_dir));
    assert_eq!(
        lazy_files.keys().collect::<Vec<_>>(),
        eager_files.keys().collect::<Vec<_>>(),
        "case {case}: {segments:?}"
    );
    for (file, bytes) in &lazy_files {
        match file.strip_suffix(QUARANTINE_SUFFIX) {
            Some(original) => {
                let found = segments.iter().find(|(f, _)| f == original).unwrap();
                assert_eq!(bytes, found.1.as_bytes(), "case {case}: {file}");
            }
            None => assert_eq!(bytes, &eager_files[file], "case {case}: {file}"),
        }
    }
    assert_eq!(
        ResultStore::verify_dir(&lazy_dir).unwrap(),
        verify_dir(&eager_dir),
        "case {case}: after open"
    );
    let _ = std::fs::remove_dir_all(eager_dir);
    store
}

/// Imports `text` into a fresh store and through the eager import into
/// another, and holds them to the same outcome, message and segment
/// bytes.
fn import_both(case: u64, text: &str) {
    let lazy = ResultStore::open(case_dir("import-lazy", case)).unwrap();
    let eager = ResultStore::open(case_dir("import-eager", case)).unwrap();
    let outcome = |store: &ResultStore, result: Result<ImportReport, StoreError>| {
        result.map_err(|e| {
            e.to_string()
                .replace(&store.dir.display().to_string(), "DIR")
        })
    };
    let lazy_result = outcome(&lazy, lazy.import_segment_text(text));
    let eager_result = outcome(&eager, import_segment_text(&eager, text));
    assert_eq!(lazy_result, eager_result, "case {case}: {text:?}");
    let bytes = |store: &ResultStore| -> Vec<Vec<u8>> {
        let files = files(&store.dir);
        files.into_values().collect()
    };
    assert_eq!(bytes(&lazy), bytes(&eager), "case {case}: {text:?}");
    assert_eq!(lazy_index(&lazy), lazy_index(&eager), "case {case}");
    let _ = std::fs::remove_dir_all(&lazy.dir);
    let _ = std::fs::remove_dir_all(&eager.dir);
}

#[test]
fn random_stores_match_the_eager_oracle() {
    for case in 0..500 {
        let mut rng = Rng(case);
        let mut segments: Vec<(String, String)> = (1..=1 + rng.below(3))
            .map(|seq| (format!("seg-{seq:08}-1.jsonl"), random_segment(&mut rng)))
            .collect();
        if rng.below(4) == 0 {
            segments.push((
                "seg-00000000-compact.jsonl".to_string(),
                random_segment(&mut rng),
            ));
        }
        let store = open_both("random", case, &segments);
        // Puts append the bytes the eager store rendered from one tree.
        let before = store.segments().unwrap();
        let puts: Vec<(String, Value, Option<&str>)> = (0..rng.below(4))
            .map(|i| {
                let tag = rng.pick(&[None, Some("t1"), Some("a\"\n")]);
                (
                    format!("put-{i}-{}", rng.pick(&KEYS)),
                    random_value(&mut rng, 0),
                    tag,
                )
            })
            .collect();
        for (key, value, tag) in &puts {
            let mut writer = store.writer.lock();
            assert!(store
                .insert_raw(&mut writer, key, value.clone(), *tag)
                .unwrap());
        }
        if !puts.is_empty() {
            let fresh = store.segments().unwrap();
            let fresh: Vec<_> = fresh.iter().filter(|s| !before.contains(s)).collect();
            let text = store.read_segment(&fresh[0].name).unwrap();
            let mut expected = format!("{}\n", serde_json::to_string(&header()).unwrap());
            for (key, value, tag) in &puts {
                expected.push_str(&serde_json::to_string(&record(key, value, *tag)).unwrap());
                expected.push('\n');
            }
            assert_eq!(text, expected, "case {case}");
        }
        let _ = std::fs::remove_dir_all(&store.dir);
        for (_, text) in &segments {
            import_both(case, text);
        }
    }
}

/// Hand-picked segments, one store each: torn tails and lines of the
/// wrong shape, final and interior.
#[test]
fn corrupt_and_torn_corpus_matches_the_eager_oracle() {
    let head = serde_json::to_string(&header()).unwrap();
    let good =
        |key: &str, v: u64| serde_json::to_string(&record(key, &v.to_value(), Some("t"))).unwrap();
    let corpus = [
        // A torn final line: cut off the file, the rest kept.
        format!("{head}\n{}\n{{\"key\":\"k1\",\"va", good("k0", 0)),
        format!("{head}\n{}\n{{", good("k0", 0)),
        // A complete final record whose newline never landed: kept.
        format!("{head}\n{}\n{}", good("k0", 0), good("k1", 1)),
        // Valid JSON of the wrong shape is corruption, final or not,
        // terminated or not: never truncated as torn.
        format!("{head}\n{}\n[1]", good("k0", 0)),
        format!("{head}\n{}\n[1]\n", good("k0", 0)),
        format!("{head}\n[1]\n{}\n", good("k0", 0)),
        format!("{head}\n{}\n{{\"value\":1}}", good("k0", 0)),
        format!("{head}\n{{\"key\":\"k0\"}}\n{}\n", good("k1", 1)),
        // Interior text that is not JSON.
        format!("{head}\nnot json\n{}\n", good("k0", 0)),
        // Corruption and a torn tail together.
        format!("{head}\n[1]\n{}\n{{\"key\":\"k1\",\"va", good("k0", 0)),
        format!("{head}\nnot json\n{}\n{{\"key\":\"k1\",\"va", good("k0", 0)),
        format!(
            "{{\"kind\":\"other\"}}\n{}\n{{\"key\":\"k1\",\"va",
            good("k0", 0)
        ),
    ];
    for (case, text) in corpus.iter().enumerate() {
        let healthy = (
            "seg-00000001-1.jsonl".to_string(),
            format!("{head}\n{}\n", good("h", 9)),
        );
        let segments = [healthy, ("seg-00000002-1.jsonl".to_string(), text.clone())];
        let store = open_both("corpus", case as u64, &segments);
        let _ = std::fs::remove_dir_all(&store.dir);
        import_both(1000 + case as u64, text);
    }
}

#[test]
fn a_line_nested_ten_thousand_deep_is_quarantined() {
    // The scan refuses the line past 128 levels instead of recursing
    // once per level, so the segment is corrupt (the line is complete,
    // so it is no torn tail).
    let dir = case_dir("deep", 0);
    let head = serde_json::to_string(&header()).unwrap();
    let deep = format!(
        "{{\"key\":\"deep\",\"value\":{}{}}}",
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let bad = format!("{head}\n{deep}\n");
    std::fs::write(dir.join("seg-00000002-1.jsonl"), &bad).unwrap();
    let good = serde_json::to_string(&record("ok", &1u64.to_value(), None)).unwrap();
    std::fs::write(
        dir.join("seg-00000001-1.jsonl"),
        format!("{head}\n{good}\n"),
    )
    .unwrap();
    let verify = ResultStore::verify_dir(&dir).unwrap();
    let error = verify.segments[1].error.as_deref().unwrap();
    assert!(error.contains("recursion limit exceeded"), "{error}");
    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.io_stats().quarantined, 1);
    let quarantined = dir.join(format!("seg-00000002-1.jsonl{QUARANTINE_SUFFIX}"));
    assert_eq!(std::fs::read_to_string(quarantined).unwrap(), bad);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_payload_too_deep_to_read_back_is_refused_at_put() {
    // A record line nests its payload one level down, so 127 levels is
    // the deepest payload a reopened store reads back.
    let dir = case_dir("deep-put", 0);
    let nested = |depth: usize| -> Value {
        serde_json::from_str(&format!("{}0{}", "[".repeat(depth), "]".repeat(depth))).unwrap()
    };
    let store = ResultStore::open(&dir).unwrap();
    let (ok, deep) = (
        FingerprintBuilder::new("ok").finish(),
        FingerprintBuilder::new("deep").finish(),
    );
    assert!(store.put(&ok, nested(127)).unwrap());
    let err = store.put(&deep, nested(128)).unwrap_err().to_string();
    assert!(err.contains("recursion limit exceeded"), "{err}");
    assert!(store.get(&deep).is_none(), "a refused put is not served");
    drop(store);
    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(
        store.io_stats().quarantined,
        0,
        "the segment stays readable"
    );
    assert_eq!(store.get(&ok).as_deref(), Some(&nested(127)));
    assert_eq!(store.len(), 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_first_reads_parse_once_and_share_the_tree() {
    let dir = case_dir("first-reads", 0);
    let key = FingerprintBuilder::new("first-reads").finish();
    let payload: Value =
        serde_json::from_str(r#"{"seed":3,"cost_uj":-0.0,"history":[[1,2.5],["a\"b"]]}"#).unwrap();
    write_log_on(
        &RealFs::new(),
        &dir.join("seg-00000001-1.jsonl"),
        &header(),
        &[record(&key.to_hex(), &payload, None)],
        false,
    )
    .unwrap();
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let start = Arc::new(std::sync::Barrier::new(8));
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let (store, start) = (Arc::clone(&store), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                store.get(&key).unwrap()
            })
        })
        .collect();
    let trees: Vec<Arc<Value>> = readers.into_iter().map(|r| r.join().unwrap()).collect();
    for tree in &trees {
        assert!(
            Arc::ptr_eq(tree, &trees[0]),
            "one parse, shared by every reader"
        );
    }
    assert_eq!(
        serde_json::to_string(&*trees[0]).unwrap(),
        serde_json::to_string(&payload).unwrap()
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// One byte-level mutation of `bytes`, as disk damage or a crash leaves
/// it: a flipped bit (bit 7, which turns ASCII into bytes that are not
/// UTF-8, half the time), an inserted byte, a deleted byte, or a cut at
/// any offset.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    let len = bytes.len() as u64;
    let at = rng.below(len + 1) as usize;
    let inside = rng.below(len.max(1)) as usize;
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            let bit = if rng.below(2) == 0 { 7 } else { rng.below(8) };
            bytes[inside] ^= 1 << bit;
        }
        1 => {
            let byte = rng.pick(&[b'\n', b'"', b'{', b'\\', b' ', 0xC3, 0x80, 0xFF]);
            bytes.insert(
                at,
                if rng.below(4) == 0 {
                    rng.next() as u8
                } else {
                    byte
                },
            );
        }
        2 if !bytes.is_empty() => {
            bytes.remove(inside);
        }
        _ => bytes.truncate(at),
    }
}

#[test]
fn byte_mutations_of_a_segment_match_the_eager_oracle() {
    // A valid three-segment store whose keys repeat across segments and
    // whose payloads hold characters of two, three and four bytes.
    let head = serde_json::to_string(&header()).unwrap();
    let segment = |records: &[(&str, u64, &str, Option<&str>)]| -> Vec<u8> {
        let mut text = format!("{head}\n");
        for &(key, seed, note, tag) in records {
            let payload: Value = serde_json::from_str(&format!(
                r#"{{"seed":{seed},"cost_uj":-0.0,"note":{},"history":[[1,2.5e-7],[3,4]]}}"#,
                quoted(note)
            ))
            .unwrap();
            text.push_str(&serde_json::to_string(&record(key, &payload, tag)).unwrap());
            text.push('\n');
        }
        text.into_bytes()
    };
    let store = [
        (
            "seg-00000001-1.jsonl",
            segment(&[
                ("k0", 0, "é", Some("t1")),
                ("k1", 1, "plain", Some("t1")),
                ("k2", 2, "😀 ü", Some("t1")),
            ]),
        ),
        (
            "seg-00000002-1.jsonl",
            segment(&[("k1", 11, "Ωmega", Some("t2")), ("k3", 3, "a\"b\\c", None)]),
        ),
        (
            "seg-00000003-1.jsonl",
            segment(&[("k0", 10, "中文", Some("t2")), ("é", 4, "x", Some("t2"))]),
        ),
    ];
    let dir = case_dir("mutations", 0);
    let mut rng = Rng(0x6d75_7461_7465);
    let (mut not_utf8, mut refused, mut torn) = (0, 0, 0);
    for case in 0..2000 {
        let mut segments = store.clone();
        let victim = rng.below(3) as usize;
        mutate(&mut rng, &mut segments[victim].1);
        not_utf8 += usize::from(std::str::from_utf8(&segments[victim].1).is_err());
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        for (name, bytes) in &segments {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let show = || String::from_utf8_lossy(&segments[victim].1).into_owned();
        let verified = ResultStore::verify_dir(&dir).unwrap();
        assert_eq!(verified, verify_dir(&dir), "case {case}: {}", show());
        let opened = ResultStore::open(&dir)
            .unwrap_or_else(|e| panic!("case {case}: open failed: {e}: {}", show()));
        // The oracle reads each segment in memory, as the eager open did.
        let mut eager = EagerIndex::new();
        let mut order = 0;
        for ((name, bytes), verdict) in segments.iter().zip(&verified.segments) {
            assert_eq!(*name, verdict.name);
            let read = parse_log(bytes).map_err(|(_, why)| why);
            let tail_torn = matches!(read, Ok((_, _, Some(_))));
            let loaded = read.and_then(|(head, records, _)| segment_records(&head, records));
            let quarantined = dir.join(format!("{name}{QUARANTINE_SUFFIX}")).exists();
            assert_eq!(
                quarantined,
                loaded.is_err(),
                "case {case}: {name}: {}",
                show()
            );
            assert_eq!(
                verdict.error.is_some(),
                loaded.is_err(),
                "case {case}: {verdict:?}"
            );
            match loaded {
                Ok(records) => {
                    assert_eq!(verdict.torn_tail, tail_torn, "case {case}: {verdict:?}");
                    torn += usize::from(tail_torn);
                    for (key, value, tag) in records {
                        eager.insert(key, (value, tag, order));
                        order += 1;
                    }
                }
                Err(_) => refused += 1,
            }
        }
        assert_eq!(
            lazy_index(&opened),
            printed(&eager),
            "case {case}: {}",
            show()
        );
    }
    // Every verdict came up, and so did bytes that are not UTF-8.
    assert!(
        not_utf8 > 300 && refused > 300 && torn > 100,
        "{not_utf8} {refused} {torn}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
