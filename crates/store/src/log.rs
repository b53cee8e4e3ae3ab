//! The on-disk store: append-only JSONL logs under one directory,
//! merged deterministically on read, compacted explicitly.
//!
//! # Layout
//!
//! ```text
//! store/
//!   compact.jsonl           # optional: the last compaction's merge
//!   writer-4221-0.jsonl     # one log per writing process instance
//!   writer-4221-0.jsonl.lock
//! ```
//!
//! Every log starts with the header line
//! `{"format":"heterovliw-store","version":1}` followed by one
//! [`Record`] per line. A process never appends to a log it did not
//! create: each [`MeasureStore`] opens its own `writer-<pid>-<n>.jsonl`
//! (guarded by a lock file holding the pid) on first write, so
//! concurrent processes cannot interleave bytes. Readers merge all
//! `*.jsonl` logs in sorted filename order; duplicate keys must carry
//! identical payloads (measurements are deterministic), and a
//! same-key-different-value pair is a hard [`StoreError::Conflict`].
//!
//! # Corruption policy
//!
//! A final line with no trailing newline is the signature of a writer
//! killed mid-append: it is skipped and counted
//! ([`StoreStats::skipped_lines`]). Every other malformed line is a
//! hard [`StoreError::Corrupt`] naming the file, line and JSON path —
//! silent data loss is never an option for lines the format says are
//! complete. The writer's own lines are read in one pass; any other
//! line, and so every error, goes through the strict tree decoder.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vliw_ir::SerialError;

use crate::record::{
    decode_canonical_line, EvalRecord, MeasureRecord, ProfileRecord, Record, StoreKey,
};

/// Process-wide store telemetry: interned-once counter handles. These
/// aggregate over every store a process opens — the I/O view `store
/// stats` and the metrics exposition report alongside the per-store
/// hit/miss counters.
mod obs {
    use std::sync::{Arc, OnceLock};

    use vliw_obs::Counter;

    macro_rules! handle {
        ($fn_name:ident, $metric:literal, $doc:literal) => {
            #[doc = $doc]
            pub(crate) fn $fn_name() -> &'static Arc<Counter> {
                static C: OnceLock<Arc<Counter>> = OnceLock::new();
                C.get_or_init(|| vliw_obs::counter($metric))
            }
        };
    }

    handle!(
        records_read,
        "store_records_read_total",
        "Records loaded from logs."
    );
    handle!(
        records_written,
        "store_records_written_total",
        "Records appended to our writer log."
    );
    handle!(
        bytes_read,
        "store_bytes_read_total",
        "Log bytes read from disk."
    );
    handle!(
        bytes_written,
        "store_bytes_written_total",
        "Log bytes written to disk."
    );
    handle!(
        lock_takeovers,
        "store_lock_takeovers_total",
        "Stale writer locks reclaimed."
    );
    handle!(
        skipped_lines,
        "store_skipped_lines_total",
        "Truncated trailing lines skipped."
    );
}

/// The header line opening every store log.
pub const LOG_HEADER: &str = "{\"format\":\"heterovliw-store\",\"version\":1}";

/// Distinguishes writer instances within one process, so a store opened
/// twice (or two stores on different directories) never fight over one
/// lock name.
static INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Errors from opening, reading or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed; `path` names the file or directory.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A complete log line is malformed; the path names file, line and
    /// JSON field.
    Corrupt(SerialError),
    /// Two logs carry the same key with different payloads.
    Conflict {
        /// The contested content address.
        key: StoreKey,
        /// `<file>#<line>` of the losing record.
        path: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store i/o error at {}: {}", path.display(), source)
            }
            StoreError::Corrupt(err) => write!(f, "corrupt store log {err}"),
            StoreError::Conflict { key, path } => write!(
                f,
                "store conflict at {path}: key {key} already stored with a different value \
                 (measurements are deterministic; this store mixes incompatible builds)"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt(err) => Some(err),
            StoreError::Conflict { .. } => None,
        }
    }
}

impl From<SerialError> for StoreError {
    fn from(err: SerialError) -> Self {
        StoreError::Corrupt(err)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Counters describing one open store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Stored usage measurements.
    pub measure_records: usize,
    /// Stored reference profiles.
    pub profile_records: usize,
    /// Stored search evaluations.
    pub eval_records: usize,
    /// Lookups answered from the store since open.
    pub hits: u64,
    /// Lookups that found nothing since open.
    pub misses: u64,
    /// Truncated trailing lines skipped while loading.
    pub skipped_lines: u64,
    /// Log files currently on disk.
    pub log_files: usize,
    /// Total bytes of log files on disk.
    pub bytes: u64,
    /// Log bytes read by *this process* so far (every store, from the
    /// process-wide `store_bytes_read_total` counter) — explains
    /// warm-vs-cold behaviour without strace.
    pub bytes_read: u64,
    /// Log bytes written by this process so far (process-wide).
    pub bytes_written: u64,
    /// Writer-lock takeovers this process performed (a takeover means a
    /// dead process's recycled-pid lock was reclaimed; process-wide).
    pub lock_takeovers: u64,
}

impl StoreStats {
    /// Total records of every kind.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.measure_records + self.profile_records + self.eval_records
    }
}

/// What a [`MeasureStore::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Records written to the compacted log.
    pub records: usize,
    /// Logs merged and removed.
    pub merged_logs: usize,
    /// Logs left in place because a live foreign writer holds them.
    pub skipped_live_logs: usize,
    /// Size of the compacted log in bytes.
    pub bytes: u64,
}

struct Writer {
    file: fs::File,
    log_path: PathBuf,
    lock_path: PathBuf,
}

impl Drop for Writer {
    fn drop(&mut self) {
        // The log outlives the writer; only the liveness marker goes.
        let _ = fs::remove_file(&self.lock_path);
    }
}

#[derive(Default)]
struct Maps {
    measures: HashMap<StoreKey, MeasureRecord>,
    profiles: HashMap<StoreKey, ProfileRecord>,
    evals: HashMap<StoreKey, EvalRecord>,
}

impl Maps {
    /// Merges `record`: `Ok(true)` if its key is new, `Ok(false)` if the
    /// same payload is already stored, `Err(key)` if a different one is.
    fn insert(&mut self, record: Record) -> Result<bool, StoreKey> {
        match record {
            Record::Measure { key, value } => merge(&mut self.measures, key, value),
            Record::Profile { key, value } => merge(&mut self.profiles, key, value),
            Record::Eval { key, value } => merge(&mut self.evals, key, value),
        }
    }
}

fn merge<V: PartialEq>(
    map: &mut HashMap<StoreKey, V>,
    key: StoreKey,
    value: V,
) -> Result<bool, StoreKey> {
    match map.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(value);
            Ok(true)
        }
        Entry::Occupied(slot) if *slot.get() == value => Ok(false),
        Entry::Occupied(_) => Err(key),
    }
}

struct Inner {
    maps: Maps,
    writer: Option<Writer>,
}

/// A persistent content-addressed measurement store over one directory.
///
/// Cheap to share behind an `Arc`: lookups and appends take `&self`.
pub struct MeasureStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped_lines: AtomicU64,
}

impl fmt::Debug for MeasureStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeasureStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl MeasureStore {
    /// Opens (creating if needed) the store at `dir`, merging every log
    /// already present.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem trouble, [`StoreError::Corrupt`]
    /// on any malformed complete log line, [`StoreError::Conflict`] if
    /// two logs disagree about one key.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let mut maps = Maps::default();
        let mut skipped = 0;
        for path in log_paths(&dir)? {
            skipped += load_log(&path, &mut maps)?;
        }
        Ok(MeasureStore {
            dir,
            inner: Mutex::new(Inner { maps, writer: None }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped_lines: AtomicU64::new(skipped),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up a stored measurement.
    pub fn get_measure(&self, key: StoreKey) -> Option<MeasureRecord> {
        let found = self.inner.lock().unwrap().maps.measures.get(&key).cloned();
        self.count(found.is_some());
        found
    }

    /// Looks up a stored reference profile.
    pub fn get_profile(&self, key: StoreKey) -> Option<ProfileRecord> {
        let found = self.inner.lock().unwrap().maps.profiles.get(&key).cloned();
        self.count(found.is_some());
        found
    }

    /// Stores a measurement, appending to this process's writer log.
    /// Re-storing an identical value is a no-op; a different value under
    /// the same key is a [`StoreError::Conflict`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::Conflict`].
    pub fn put_measure(&self, key: StoreKey, value: MeasureRecord) -> Result<(), StoreError> {
        self.put(Record::Measure { key, value })
    }

    /// Stores a reference profile; same contract as
    /// [`put_measure`](Self::put_measure).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::Conflict`].
    pub fn put_profile(&self, key: StoreKey, value: ProfileRecord) -> Result<(), StoreError> {
        self.put(Record::Profile { key, value })
    }

    /// Looks up a stored search evaluation.
    pub fn get_eval(&self, key: StoreKey) -> Option<EvalRecord> {
        let found = self.inner.lock().unwrap().maps.evals.get(&key).copied();
        self.count(found.is_some());
        found
    }

    /// Stores a search evaluation; same contract as
    /// [`put_measure`](Self::put_measure).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::Conflict`].
    pub fn put_eval(&self, key: StoreKey, value: EvalRecord) -> Result<(), StoreError> {
        self.put(Record::Eval { key, value })
    }

    /// Probes every stored evaluation of one search-space fingerprint in
    /// a single lock acquisition: returns all `(candidate index, record)`
    /// pairs whose key is `{content, index}` with `index < size`, sorted
    /// by index. Found records count as hits; if any index in
    /// `0..size` is absent, one collective miss is counted — a warm
    /// probe asks one question ("what does the store know about this
    /// space?"), not `size` questions.
    pub fn warm_evals(&self, content: u64, size: u64) -> Vec<(u64, EvalRecord)> {
        let mut found: Vec<(u64, EvalRecord)> = {
            let inner = self.inner.lock().unwrap();
            inner
                .maps
                .evals
                .iter()
                .filter(|(k, _)| k.content == content && k.config < size)
                .map(|(k, v)| (k.config, *v))
                .collect()
        };
        found.sort_unstable_by_key(|&(i, _)| i);
        self.hits.fetch_add(found.len() as u64, Ordering::Relaxed);
        if (found.len() as u64) < size {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put(&self, record: Record) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap();
        let line = record.to_json_line();
        let fresh = inner
            .maps
            .insert(record)
            .map_err(|key| StoreError::Conflict {
                key,
                path: "<put>".to_owned(),
            })?;
        if !fresh {
            return Ok(());
        }
        if inner.writer.is_none() {
            inner.writer = Some(open_writer(&self.dir)?);
        }
        let writer = inner.writer.as_mut().expect("just opened");
        writer
            .file
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.file.flush())
            .map_err(|e| io_err(&writer.log_path, e))?;
        obs::records_written().inc();
        obs::bytes_written().add(line.len() as u64 + 1);
        Ok(())
    }

    /// Current counters, including on-disk sizes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be listed.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let inner = self.inner.lock().unwrap();
        let paths = log_paths(&self.dir)?;
        let mut bytes = 0;
        for p in &paths {
            bytes += fs::metadata(p).map_err(|e| io_err(p, e))?.len();
        }
        Ok(StoreStats {
            measure_records: inner.maps.measures.len(),
            profile_records: inner.maps.profiles.len(),
            eval_records: inner.maps.evals.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            skipped_lines: self.skipped_lines.load(Ordering::Relaxed),
            log_files: paths.len(),
            bytes,
            bytes_read: obs::bytes_read().get(),
            bytes_written: obs::bytes_written().get(),
            lock_takeovers: obs::lock_takeovers().get(),
        })
    }

    /// Merges every quiescent log into a single `compact.jsonl` and
    /// removes the merged logs. This store's own writer is closed
    /// first; logs held by a *live* foreign writer are left untouched
    /// and counted in the report.
    ///
    /// # Errors
    ///
    /// Same error surface as [`open`](Self::open), plus I/O while
    /// writing the compacted log.
    pub fn compact(&self) -> Result<CompactReport, StoreError> {
        let mut inner = self.inner.lock().unwrap();
        inner.writer = None; // Drop flushes nothing (writes are flushed) and frees our lock.

        // Re-read from disk rather than trusting our maps: other
        // processes may have written since we opened.
        let mut merged = Maps::default();
        let mut merged_paths = Vec::new();
        let mut skipped_live = 0;
        for path in log_paths(&self.dir)? {
            if is_live_foreign_log(&path) {
                skipped_live += 1;
                continue;
            }
            self.skipped_lines
                .fetch_add(load_log(&path, &mut merged)?, Ordering::Relaxed);
            merged_paths.push(path);
        }

        let tmp = self.dir.join("compact.jsonl.tmp");
        let target = self.dir.join("compact.jsonl");
        let mut out = String::from(LOG_HEADER);
        out.push('\n');
        let mut records = 0;
        let mut profile_keys: Vec<StoreKey> = merged.profiles.keys().copied().collect();
        profile_keys.sort_by_key(|k| (k.content, k.config));
        for key in profile_keys {
            let value = merged.profiles.remove(&key).expect("own key");
            out.push_str(&Record::Profile { key, value }.to_json_line());
            out.push('\n');
            records += 1;
        }
        let mut measure_keys: Vec<StoreKey> = merged.measures.keys().copied().collect();
        measure_keys.sort_by_key(|k| (k.content, k.config));
        for key in measure_keys {
            let value = merged.measures.remove(&key).expect("own key");
            out.push_str(&Record::Measure { key, value }.to_json_line());
            out.push('\n');
            records += 1;
        }
        let mut eval_keys: Vec<StoreKey> = merged.evals.keys().copied().collect();
        eval_keys.sort_by_key(|k| (k.content, k.config));
        for key in eval_keys {
            let value = merged.evals.remove(&key).expect("own key");
            out.push_str(&Record::Eval { key, value }.to_json_line());
            out.push('\n');
            records += 1;
        }
        fs::write(&tmp, out.as_bytes()).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, &target).map_err(|e| io_err(&target, e))?;
        let merged_logs = merged_paths.iter().filter(|p| **p != target).count();
        for path in merged_paths {
            if path != target {
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        let bytes = fs::metadata(&target).map_err(|e| io_err(&target, e))?.len();

        // The compacted view replaces our in-memory merge: records from
        // skipped live logs stay visible (they were loaded at open or
        // re-read above only if quiescent), so reload them too.
        let mut maps = merged;
        debug_assert!(
            maps.measures.is_empty() && maps.profiles.is_empty() && maps.evals.is_empty()
        );
        for path in log_paths(&self.dir)? {
            self.skipped_lines
                .fetch_add(load_log(&path, &mut maps)?, Ordering::Relaxed);
        }
        inner.maps = maps;

        Ok(CompactReport {
            records,
            merged_logs,
            skipped_live_logs: skipped_live,
            bytes,
        })
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// All log files in `dir`, in sorted filename order (the merge order).
fn log_paths(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut paths = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

/// Loads one log into `maps`; returns how many truncated trailing lines
/// were skipped (0 or 1).
fn load_log(path: &Path, maps: &mut Maps) -> Result<u64, StoreError> {
    let content = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    obs::bytes_read().add(content.len() as u64);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("<log>");
    // A line the one-pass decoder reads needs its label only if it
    // conflicts or is dropped.
    let label = |i: usize| format!("{name}#{}", i + 1);
    let terminated = content.ends_with('\n');
    let mut lines = content.lines().enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        let truncated_tail = !terminated && lines.peek().is_none();
        match parse_line(line, i == 0, || label(i)) {
            Ok(None) => {} // header
            // A record with no newline *could* still be a prefix of a
            // longer line that happens to parse; the only safe reading
            // of an unterminated tail, valid or not, is "the writer died
            // here", so drop it.
            _ if truncated_tail => {
                eprintln!(
                    "[store] warning: skipping truncated final line {}",
                    label(i)
                );
                obs::skipped_lines().inc();
                return Ok(1);
            }
            Ok(Some(record)) => {
                maps.insert(record).map_err(|key| StoreError::Conflict {
                    key,
                    path: label(i),
                })?;
                obs::records_read().inc();
            }
            Err(err) => return Err(err),
        }
    }
    Ok(0)
}

/// Parses one log line: `Ok(None)` for the header, `Ok(Some(_))` for a
/// record. The writer's own lines take the one-pass decoder; every other
/// line goes through the strict tree decoder, which names `label()` in
/// its errors.
fn parse_line(
    line: &str,
    is_header: bool,
    label: impl FnOnce() -> String,
) -> Result<Option<Record>, StoreError> {
    if is_header {
        if line == LOG_HEADER {
            return Ok(None);
        }
    } else if let Some(record) = decode_canonical_line(line) {
        return Ok(Some(record));
    }
    parse_line_strict(line, is_header, &label())
}

/// [`parse_line`] through a parsed JSON tree, for any valid line and
/// every error.
fn parse_line_strict(
    line: &str,
    is_header: bool,
    label: &str,
) -> Result<Option<Record>, StoreError> {
    let value = serde_json::from_str(line).map_err(|e| {
        StoreError::Corrupt(SerialError {
            path: label.to_owned(),
            message: format!("not valid JSON: {e}"),
        })
    })?;
    if is_header {
        let format = vliw_ir::get_str_field(&value, label, "format")?;
        if format != "heterovliw-store" {
            return Err(StoreError::Corrupt(SerialError {
                path: format!("{label}.format"),
                message: format!("expected \"heterovliw-store\", got {format:?}"),
            }));
        }
        let version = crate::record::get_u64_field(&value, label, "version")?;
        if version != 1 {
            return Err(StoreError::Corrupt(SerialError {
                path: format!("{label}.version"),
                message: format!("unsupported store format version {version} (this build reads 1)"),
            }));
        }
        vliw_ir::check_fields(&value, label, &["format", "version"])?;
        return Ok(None);
    }
    Record::from_json_value(&value, label)
        .map(Some)
        .map_err(StoreError::Corrupt)
}

/// True when `path` is a writer log whose lock names a live process
/// other than us.
fn is_live_foreign_log(path: &Path) -> bool {
    let lock = lock_path_for(path);
    let Ok(content) = fs::read_to_string(&lock) else {
        return false; // no lock: the writer is done
    };
    let Ok(pid) = content.trim().parse::<u32>() else {
        return true; // unreadable lock: be conservative, leave it alone
    };
    if pid == std::process::id() {
        return false;
    }
    process_alive(pid)
}

fn lock_path_for(log: &Path) -> PathBuf {
    let mut name = log.file_name().unwrap_or_default().to_os_string();
    name.push(".lock");
    log.with_file_name(name)
}

/// Best-effort liveness probe. Where `/proc` is absent we assume alive —
/// wrongly skipping a dead writer's log during compaction only delays
/// its merge, while merging a live one would lose racing appends.
fn process_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// Creates this process's writer log (with header) and its lock file.
fn open_writer(dir: &Path) -> Result<Writer, StoreError> {
    let pid = std::process::id();
    loop {
        let instance = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let log_path = dir.join(format!("writer-{pid}-{instance}.jsonl"));
        let lock_path = lock_path_for(&log_path);
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut lock) => {
                lock.write_all(pid.to_string().as_bytes())
                    .map_err(|e| io_err(&lock_path, e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // A lock bearing our own pid can only be a leftover from
                // a dead process that recycled the pid: our in-process
                // instance counter never reuses a number. Take it over.
                obs::lock_takeovers().inc();
                let stale_log_gone = fs::remove_file(&log_path)
                    .or_else(|e| {
                        if e.kind() == std::io::ErrorKind::NotFound {
                            Ok(())
                        } else {
                            Err(e)
                        }
                    })
                    .is_ok();
                if !stale_log_gone {
                    continue; // cannot reclaim; try the next instance number
                }
                fs::remove_file(&lock_path).map_err(|e| io_err(&lock_path, e))?;
                continue;
            }
            Err(e) => return Err(io_err(&lock_path, e)),
        }
        let mut file = match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&log_path)
        {
            Ok(f) => f,
            Err(e) => {
                let _ = fs::remove_file(&lock_path);
                return Err(io_err(&log_path, e));
            }
        };
        if let Err(e) = file
            .write_all(format!("{LOG_HEADER}\n").as_bytes())
            .and_then(|()| file.flush())
        {
            let _ = fs::remove_file(&lock_path);
            return Err(io_err(&log_path, e));
        }
        return Ok(Writer {
            file,
            log_path,
            lock_path,
        });
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::record::tests::{arb_record, float_bits};
    use crate::record::{EvalObjectives, LoopProfileRecord, ProfileRecord};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vliw-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> StoreKey {
        StoreKey {
            content: n,
            config: n.wrapping_mul(3),
        }
    }

    fn measure(n: u64) -> MeasureRecord {
        MeasureRecord {
            weighted_ins_per_cluster: vec![n as f64, 0.5],
            comms: n,
            mem_accesses: n + 1,
            exec_time_fs: 1000 + n,
        }
    }

    fn profile(name: &str) -> ProfileRecord {
        ProfileRecord {
            name: name.to_owned(),
            loops: vec![LoopProfileRecord {
                name: format!("{name}.l0"),
                weight: 1.0,
                trips: 10,
                rec_mii: 2,
                fu_counts: [1, 2, 3],
                comms: 4,
                lifetime_fs: 5,
                it_length_fs: 6,
                it_ref_fs: 7,
                weighted_ins: 8.0,
                rec_weighted_ins: 1.0,
                mem_accesses: 9,
                exec_time_fs: 10,
                invocations: 1.0,
            }],
            ref_weighted_ins: 8.0,
            ref_comms: 4,
            ref_mem_accesses: 9,
            ref_exec_time_fs: 10,
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        {
            let store = MeasureStore::open(&dir).unwrap();
            store.put_measure(key(1), measure(1)).unwrap();
            store.put_profile(key(2), profile("p")).unwrap();
            assert_eq!(store.get_measure(key(1)), Some(measure(1)));
        }
        let store = MeasureStore::open(&dir).unwrap();
        assert_eq!(store.get_measure(key(1)), Some(measure(1)));
        assert_eq!(store.get_profile(key(2)), Some(profile("p")));
        assert_eq!(store.get_measure(key(99)), None);
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries(), 2);
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.skipped_lines, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn eval(n: u64) -> EvalRecord {
        EvalRecord {
            objectives: Some(crate::record::EvalObjectives {
                exec_time_ns: n as f64 + 0.5,
                energy: n as f64 * 2.0,
                ed2: n as f64 * 3.0,
            }),
        }
    }

    #[test]
    fn evals_round_trip_and_warm_probe_finds_them() {
        let dir = tmp_dir("evals");
        let space = 0xabcd;
        {
            let store = MeasureStore::open(&dir).unwrap();
            for i in [0, 2, 5] {
                let key = StoreKey {
                    content: space,
                    config: i,
                };
                store.put_eval(key, eval(i)).unwrap();
            }
            // An infeasible candidate is worth remembering too.
            store
                .put_eval(
                    StoreKey {
                        content: space,
                        config: 7,
                    },
                    EvalRecord { objectives: None },
                )
                .unwrap();
            // A different space's evals must not leak into the probe.
            store
                .put_eval(
                    StoreKey {
                        content: space + 1,
                        config: 1,
                    },
                    eval(1),
                )
                .unwrap();
        }
        let store = MeasureStore::open(&dir).unwrap();
        let warm = store.warm_evals(space, 8);
        assert_eq!(warm.len(), 4);
        assert_eq!(
            warm.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 2, 5, 7]
        );
        assert_eq!(warm[3].1, EvalRecord { objectives: None });
        // Out-of-range indices are filtered: a probe of a smaller space
        // under the same fingerprint sees only the prefix.
        assert_eq!(store.warm_evals(space, 3).len(), 2);
        let stats = store.stats().unwrap();
        assert_eq!(stats.eval_records, 5);
        assert_eq!(stats.entries(), 5);
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.misses, 2);
        // Conflicting eval payloads under one key are hard errors.
        let err = store
            .put_eval(
                StoreKey {
                    content: space,
                    config: 0,
                },
                eval(9),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Conflict { .. }), "{err}");
        // Compaction keeps evals.
        let report = store.compact().unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(store.stats().unwrap().eval_records, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_put_is_a_noop_and_conflict_is_an_error() {
        let dir = tmp_dir("conflict");
        let store = MeasureStore::open(&dir).unwrap();
        store.put_measure(key(1), measure(1)).unwrap();
        store.put_measure(key(1), measure(1)).unwrap(); // dedupe
        let err = store.put_measure(key(1), measure(2)).unwrap_err();
        assert!(matches!(err, StoreError::Conflict { .. }), "{err}");
        drop(store);
        // Only one record line made it to disk.
        let store = MeasureStore::open(&dir).unwrap();
        assert_eq!(store.stats().unwrap().entries(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_writers_in_one_dir_merge_deterministically() {
        let dir = tmp_dir("two-writers");
        let a = MeasureStore::open(&dir).unwrap();
        let b = MeasureStore::open(&dir).unwrap();
        a.put_measure(key(1), measure(1)).unwrap();
        b.put_measure(key(2), measure(2)).unwrap();
        b.put_measure(key(1), measure(1)).unwrap(); // duplicate across logs: fine
        drop(a);
        drop(b);
        let merged = MeasureStore::open(&dir).unwrap();
        assert_eq!(merged.get_measure(key(1)), Some(measure(1)));
        assert_eq!(merged.get_measure(key(2)), Some(measure(2)));
        assert_eq!(merged.stats().unwrap().log_files, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cross_log_conflict_is_detected_on_open() {
        let dir = tmp_dir("cross-conflict");
        {
            let a = MeasureStore::open(&dir).unwrap();
            a.put_measure(key(1), measure(1)).unwrap();
        }
        {
            let b = MeasureStore::open(&dir).unwrap();
            // b opened after a's writer closed, so it sees a's value and
            // would refuse; force the conflict by writing the log by hand.
            drop(b);
            let line = Record::Measure {
                key: key(1),
                value: measure(7),
            }
            .to_json_line();
            fs::write(
                dir.join("writer-zz-forged.jsonl"),
                format!("{LOG_HEADER}\n{line}\n"),
            )
            .unwrap();
        }
        let err = MeasureStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Conflict { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_line_is_skipped_and_counted() {
        let dir = tmp_dir("truncated");
        {
            let store = MeasureStore::open(&dir).unwrap();
            store.put_measure(key(1), measure(1)).unwrap();
        }
        // Chop the last record mid-line, as a killed writer would.
        let log = log_paths(&dir).unwrap().pop().unwrap();
        let content = fs::read_to_string(&log).unwrap();
        fs::write(&log, &content[..content.len() - 9]).unwrap();
        let store = MeasureStore::open(&dir).unwrap();
        assert_eq!(store.get_measure(key(1)), None);
        assert_eq!(store.stats().unwrap().skipped_lines, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_middle_line_is_a_hard_error() {
        let dir = tmp_dir("malformed");
        fs::create_dir_all(&dir).unwrap();
        let line = Record::Measure {
            key: key(1),
            value: measure(1),
        }
        .to_json_line();
        fs::write(
            dir.join("writer-1-0.jsonl"),
            format!("{LOG_HEADER}\n{{\"kind\":\"bogus\"}}\n{line}\n"),
        )
        .unwrap();
        let err = MeasureStore::open(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("writer-1-0.jsonl#2"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        let dir = tmp_dir("header");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("writer-1-0.jsonl"),
            "{\"format\":\"heterovliw-store\",\"version\":2}\n",
        )
        .unwrap();
        let err = MeasureStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_to_one_sorted_log() {
        let dir = tmp_dir("compact");
        {
            let a = MeasureStore::open(&dir).unwrap();
            a.put_measure(key(5), measure(5)).unwrap();
            a.put_measure(key(3), measure(3)).unwrap();
        }
        let store = MeasureStore::open(&dir).unwrap();
        store.put_profile(key(4), profile("q")).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.merged_logs, 2);
        assert_eq!(report.skipped_live_logs, 0);
        // Everything still visible, now from one file.
        assert_eq!(store.get_measure(key(5)), Some(measure(5)));
        assert_eq!(store.get_profile(key(4)), Some(profile("q")));
        let stats = store.stats().unwrap();
        assert_eq!(stats.log_files, 1);
        assert_eq!(stats.entries(), 3);
        // Compacting twice is byte-stable.
        let first = fs::read(dir.join("compact.jsonl")).unwrap();
        store.compact().unwrap();
        assert_eq!(fs::read(dir.join("compact.jsonl")).unwrap(), first);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_skips_live_foreign_writers() {
        let dir = tmp_dir("compact-live");
        let other = MeasureStore::open(&dir).unwrap();
        other.put_measure(key(9), measure(9)).unwrap();
        // Forge the other writer's lock to belong to a live foreign
        // process (pid 1 is always alive on Linux).
        let log = log_paths(&dir)
            .unwrap()
            .into_iter()
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .starts_with("writer-")
            })
            .unwrap();
        std::mem::forget(other); // keep its lock file on disk
        fs::write(lock_path_for(&log), "1").unwrap();

        let store = MeasureStore::open(&dir).unwrap();
        store.put_measure(key(8), measure(8)).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.skipped_live_logs, 1);
        assert_eq!(report.records, 1);
        // The live log's record is still visible after compaction.
        assert_eq!(store.get_measure(key(9)), Some(measure(9)));
        assert_eq!(store.get_measure(key(8)), Some(measure(8)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_files_are_removed_on_close_but_logs_stay() {
        let dir = tmp_dir("locks");
        {
            let store = MeasureStore::open(&dir).unwrap();
            store.put_measure(key(1), measure(1)).unwrap();
            let locks: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .path()
                        .extension()
                        .is_some_and(|x| x == "lock")
                })
                .collect();
            assert_eq!(locks.len(), 1);
        }
        let leftover: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            leftover.iter().all(|n| !n.ends_with(".lock")),
            "{leftover:?}"
        );
        assert_eq!(leftover.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A canonical log and a hand-written one holding the same records
    /// valid but not canonical: spaces after `:` and `,`, keys out of
    /// order, an escaped loop name and floats in exponent form. The
    /// tree decoder reads the second, and both answer alike.
    #[test]
    fn non_canonical_lines_read_as_their_canonical_twins() {
        let measure_key = StoreKey {
            content: 0x00c5_0000_0000_0001,
            config: 0xabcd,
        };
        let profile_key = StoreKey {
            content: 7,
            config: 8,
        };
        let eval_key = StoreKey {
            content: 9,
            config: 1,
        };
        let infeasible_key = StoreKey {
            content: 9,
            config: 2,
        };
        let canonical = tmp_dir("canonical-twin");
        {
            let store = MeasureStore::open(&canonical).unwrap();
            let measure = MeasureRecord {
                weighted_ins_per_cluster: vec![2.5, 0.1 + 0.2, -0.0],
                comms: 40,
                mem_accesses: 11,
                exec_time_fs: 1_250_000,
            };
            store.put_measure(measure_key, measure).unwrap();
            let mut swim = profile("171.swim");
            swim.loops[0].name = "l\"0\"é".to_owned();
            swim.loops[0].weight = 0.25;
            store.put_profile(profile_key, swim).unwrap();
            let objectives = EvalObjectives {
                exec_time_ns: 1234.5,
                energy: 3e-300,
                ed2: 500.0,
            };
            let eval = EvalRecord {
                objectives: Some(objectives),
            };
            store.put_eval(eval_key, eval).unwrap();
            let infeasible = EvalRecord { objectives: None };
            store.put_eval(infeasible_key, infeasible).unwrap();
        }
        let hand_written = [
            r#"{"version": 1, "format": "heterovliw-store"}"#,
            r#"{"ins": [2.5e0, 0.30000000000000004, -0.0], "kind": "measure", "exec_fs": 1250000, "config": "000000000000abcd", "mems": 11, "content": "00c5000000000001", "comms": 40}"#,
            r#"{"kind": "profile", "name": "171.swim", "content": "0000000000000007", "config": "0000000000000008", "loops": [{"invocations": 1E0, "name": "l\"0\"é", "weight": 2.5e-1, "trips": 10, "rec_mii": 2, "fu": [1, 2, 3], "comms": 4, "lifetime_fs": 5, "it_length_fs": 6, "it_ref_fs": 7, "ins": 8.0, "rec_ins": 1.0, "mems": 9, "exec_fs": 10}], "ref_ins": 8e0, "ref_comms": 4, "ref_mems": 9, "ref_exec_fs": 10}"#,
            r#"{"kind": "eval", "content": "0000000000000009", "config": "0000000000000001", "ed2": 5e2, "time_ns": 1.2345e3, "energy": 3e-300}"#,
            r#"{"infeasible": true, "kind": "eval", "content": "0000000000000009", "config": "0000000000000002"}"#,
        ];
        for line in &hand_written[1..] {
            assert!(decode_canonical_line(line).is_none(), "{line}");
        }
        let hand = tmp_dir("hand-written-twin");
        fs::create_dir_all(&hand).unwrap();
        fs::write(
            hand.join("writer-1-0.jsonl"),
            hand_written.join("\n") + "\n",
        )
        .unwrap();

        // Canonical lines compare records bit for bit: `-0` is not `0`.
        let answers = |dir: &Path| -> Vec<String> {
            let store = MeasureStore::open(dir).unwrap();
            let value = store.get_measure(measure_key).expect("measure");
            let measure = Record::Measure {
                key: measure_key,
                value,
            };
            let value = store.get_profile(profile_key).expect("profile");
            let profile = Record::Profile {
                key: profile_key,
                value,
            };
            let evals = [eval_key, infeasible_key].map(|key| Record::Eval {
                key,
                value: store.get_eval(key).expect("eval"),
            });
            [measure, profile]
                .iter()
                .chain(&evals)
                .map(Record::to_json_line)
                .collect()
        };
        assert_eq!(answers(&hand), answers(&canonical));
        fs::remove_dir_all(&canonical).unwrap();
        fs::remove_dir_all(&hand).unwrap();
    }

    /// A second log repeating a key with a float one ULP away is a
    /// conflict labelled with that log's file and line.
    #[test]
    fn one_ulp_conflict_names_the_losing_line() {
        let dir = tmp_dir("ulp-conflict");
        fs::create_dir_all(&dir).unwrap();
        let line = |key, value| Record::Measure { key, value }.to_json_line();
        let mut nudged = measure(1);
        nudged.weighted_ins_per_cluster[1] = f64::from_bits(0.5f64.to_bits() + 1);
        fs::write(
            dir.join("writer-1-0.jsonl"),
            format!("{LOG_HEADER}\n{}\n", line(key(1), measure(1))),
        )
        .unwrap();
        fs::write(
            dir.join("writer-1-1.jsonl"),
            format!(
                "{LOG_HEADER}\n{}\n{}\n",
                line(key(2), measure(2)),
                line(key(1), nudged)
            ),
        )
        .unwrap();
        match MeasureStore::open(&dir).unwrap_err() {
            StoreError::Conflict { key: k, path } => {
                assert_eq!(k, key(1));
                assert_eq!(path, "writer-1-1.jsonl#3");
            }
            other => panic!("expected a conflict, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Bytes an edit writes: digits and number signs, JSON structure,
    /// an escape, a control byte and a byte that is never UTF-8.
    const EDIT_BYTES: &[u8] = b"0123456789-+.eE\":,{}[] \\tu\x01\xff";

    /// A canonical line cut at a random byte, or with 1-4 random byte
    /// edits (replace, delete or insert).
    fn arb_mangled_line() -> impl Strategy<Value = String> {
        let edit = (0u8..3, 0usize..1 << 16, 0..EDIT_BYTES.len());
        (arb_record(), 0u8..5, proptest::collection::vec(edit, 1..5)).prop_map(
            |(record, pick, edits)| {
                let mut bytes = record.to_json_line().into_bytes();
                if pick == 0 {
                    bytes.truncate(edits[0].1 % bytes.len());
                } else {
                    for (op, at, b) in edits {
                        let at = at % bytes.len();
                        match op {
                            0 => bytes[at] = EDIT_BYTES[b],
                            1 => drop(bytes.remove(at)),
                            _ => bytes.insert(at, EDIT_BYTES[b]),
                        }
                    }
                }
                String::from_utf8_lossy(&bytes).into_owned()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On a mangled canonical line the store's line decoding returns
        /// what `serde_json::from_str` + `Record::from_json_value` return
        /// under the same label: the same record bit for bit, or the
        /// same error.
        #[test]
        fn mangled_lines_decode_as_the_tree_decoder_does(line in arb_mangled_line()) {
            let label = "writer-1-0.jsonl#2";
            let tree = serde_json::from_str(&line)
                .map_err(|e| {
                    StoreError::Corrupt(SerialError {
                        path: label.to_owned(),
                        message: format!("not valid JSON: {e}"),
                    })
                })
                .and_then(|value| {
                    Record::from_json_value(&value, label).map_err(StoreError::Corrupt)
                });
            match (parse_line(&line, false, || label.to_owned()), tree) {
                (Ok(Some(got)), Ok(want)) => prop_assert!(
                    got == want && float_bits(&got) == float_bits(&want),
                    "{line}: read {got:?}, want {want:?}"
                ),
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => panic!("{line}: read {got:?}, the tree decoder {want:?}"),
            }
        }
    }
}
