//! [`ExperimentStore`] — the on-disk store proper: atomic puts, checked
//! gets, an inspection index and garbage collection.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::entry::{decode_entry, encode_entry, visit_stat_fields, StoredPoint};
use crate::key::PointKey;

/// How long a stray `.tmp-*` file is protected from
/// [`ExperimentStore::gc`]: a temp file younger than this may belong to a
/// concurrent writer in another process that has not renamed it into
/// place yet, so gc leaves it alone. Entry writes take milliseconds, so
/// anything older than this is an orphan from a crashed writer.
pub const GC_TEMP_GRACE: Duration = Duration::from_secs(15 * 60);

/// Error from a store operation.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem I/O failed.
    Io(io::Error),
    /// An entry file exists but is truncated, bit-rotten, mis-keyed or
    /// otherwise unusable. The store never silently serves such entries;
    /// callers typically log it and recompute (or run
    /// [`ExperimentStore::gc`]).
    Corrupt {
        /// The offending entry file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "experiment store i/o error: {e}"),
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store entry {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One line of the inspection index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRow {
    /// Entry file stem (32 hex digits of the key hash).
    pub hash: String,
    /// Canonical design id.
    pub design: String,
    /// Workload cache id.
    pub workload: String,
    /// Trace seed.
    pub seed: u64,
    /// Measured instructions.
    pub instrs: u64,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Simulator version the point was computed under.
    pub sim_version: String,
}

/// Outcome of [`ExperimentStore::gc`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries kept (current version, intact).
    pub kept: usize,
    /// Entries removed because their simulator version is stale.
    pub removed_stale: usize,
    /// Entries (and stray temp files) removed as corrupt or unreadable.
    pub removed_corrupt: usize,
    /// Temp files left alone because they are younger than the grace age
    /// — a writer in another process may still own them.
    pub kept_temps: usize,
    /// Disk bytes reclaimed.
    pub bytes_freed: u64,
}

/// A snapshot of one store handle's write-path counters (see
/// [`ExperimentStore::counters`]). The counts are per-handle, not
/// per-directory: they tell a caller (or test) what *this* process did —
/// how often its writes published fresh entries versus collapsed into a
/// concurrent winner's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Entries this handle published first (won the write-once race or
    /// wrote an uncontended key).
    pub published: u64,
    /// Writes that lost the write-once race to an intact concurrent
    /// entry and were verified-and-discarded — the store-level
    /// deduplication of concurrent writers.
    pub deduped: u64,
    /// Corrupt or mis-keyed entries healed in place by a fresh copy.
    pub healed: u64,
    /// Deliberate overwrites through [`ExperimentStore::put_replace`].
    pub replaced: u64,
}

/// Take the in-process index lock, recovering from poison: the lock
/// only serializes index writes within this process (cross-process
/// safety comes from `O_APPEND`), and a panicked writer leaves the
/// index file merely stale — `rebuild_index` regenerates it.
fn lock_index(m: &Mutex<()>) -> std::sync::MutexGuard<'_, ()> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A content-addressed, on-disk store of simulated experiment points.
///
/// Safe for concurrent writers in many **threads and processes** sharing
/// one store directory:
///
/// * [`put`](Self::put) is **write-once** on each fingerprint path — the
///   first fully-written entry wins (an atomic hard-link publish) and
///   racing losers verify the winner's entry and discard their own, so
///   two processes computing the same point can never corrupt it;
/// * temp files are collision-free (pid + per-process nonce, created
///   with `O_EXCL`) and [`gc`](Self::gc) refuses to reclaim temp files
///   younger than [`GC_TEMP_GRACE`], so it cannot destroy another
///   process's in-flight write;
/// * index appends are a single `O_APPEND` write by the publishing
///   winner only; readers deduplicate, and the index is a convenience
///   that [`rebuild_index`](Self::rebuild_index) / [`gc`](Self::gc)
///   regenerate from the entries (the durable truth) at any time.
///
/// Sweep workers cache their points as soon as they finish — which is
/// what makes an interrupted sweep resumable and a multi-process sharded
/// sweep mergeable. See the [crate docs](crate) for the layout and a
/// usage example.
#[derive(Debug)]
pub struct ExperimentStore {
    root: PathBuf,
    index: Mutex<()>,
    tmp_counter: AtomicU64,
    read_only: bool,
    published: AtomicU64,
    deduped: AtomicU64,
    healed: AtomicU64,
    replaced: AtomicU64,
}

impl ExperimentStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let root = dir.into();
        fs::create_dir_all(root.join("entries"))?;
        Ok(Self::handle(root, false))
    }

    /// Open an **existing** store without write access: refuses to
    /// create the directory (a missing store is `NotFound`, never
    /// silently materialised empty), and every mutating call —
    /// [`put`](Self::put), [`put_replace`](Self::put_replace) — fails
    /// with `PermissionDenied`. The read-mostly handle for inspection
    /// tools.
    pub fn open_read_only(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let root = dir.into();
        if !root.join("entries").is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no experiment store at {}", root.display()),
            ));
        }
        Ok(Self::handle(root, true))
    }

    fn handle(root: PathBuf, read_only: bool) -> Self {
        ExperimentStore {
            root,
            index: Mutex::new(()),
            tmp_counter: AtomicU64::new(0),
            read_only,
            published: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            healed: AtomicU64::new(0),
            replaced: AtomicU64::new(0),
        }
    }

    /// Whether this handle was opened with [`open_read_only`](Self::open_read_only).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Snapshot this handle's write-path counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            published: self.published.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            healed: self.healed.load(Ordering::Relaxed),
            replaced: self.replaced.load(Ordering::Relaxed),
        }
    }

    fn deny_if_read_only(&self) -> io::Result<()> {
        if self.read_only {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!(
                    "experiment store {} was opened read-only",
                    self.root.display()
                ),
            ));
        }
        Ok(())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entries_dir(&self) -> PathBuf {
        self.root.join("entries")
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.tsv")
    }

    fn entry_path(&self, key: &PointKey) -> PathBuf {
        self.entries_dir().join(key.file_name())
    }

    /// Look up a point. `Ok(None)` is a clean miss; [`StoreError::Corrupt`]
    /// means an entry exists for this key's address but cannot be trusted
    /// (including the collision case where it was stored under a
    /// different canonical key).
    pub fn get(&self, key: &PointKey) -> Result<Option<StoredPoint>, StoreError> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let decoded = decode_entry(&text).map_err(|reason| StoreError::Corrupt {
            path: path.clone(),
            reason,
        })?;
        if decoded.key_canonical != key.canonical() {
            return Err(StoreError::Corrupt {
                path,
                reason: format!(
                    "key mismatch: entry holds `{}`, lookup wanted `{}`",
                    decoded.key_canonical,
                    key.canonical()
                ),
            });
        }
        Ok(Some(decoded.point))
    }

    /// Whether a (possibly corrupt) entry exists for `key`.
    pub fn contains(&self, key: &PointKey) -> bool {
        self.entry_path(key).exists()
    }

    /// Store a point under `key`, **write-once**: the first fully-written
    /// entry for a fingerprint path wins and is appended to the
    /// inspection index; a racing loser verifies that the winner's entry
    /// is intact for this key, discards its own copy and returns the
    /// shared path. (Points are pure functions of their key, so the
    /// winner's entry is equivalent — only `wall_nanos`/extras can
    /// differ.) An existing entry that turns out to be corrupt is healed
    /// in place. Use [`put_replace`](Self::put_replace) to overwrite an
    /// intact entry deliberately.
    pub fn put(&self, key: &PointKey, point: &StoredPoint) -> io::Result<PathBuf> {
        self.deny_if_read_only()?;
        let path = self.entry_path(key);
        let tmp = self.write_temp(key, point)?;
        // A hard link publishes the finished temp file atomically and
        // fails with `AlreadyExists` instead of overwriting — exactly
        // the first-rename-wins semantics a cross-process race needs
        // (plain `rename` would silently replace the winner).
        for _ in 0..8 {
            match fs::hard_link(&tmp, &path) {
                Ok(()) => {
                    let _ = fs::remove_file(&tmp);
                    self.append_index(key)?;
                    self.published.fetch_add(1, Ordering::Relaxed);
                    return Ok(path);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => match self.get(key) {
                    Ok(Some(_)) => {
                        // Lost the race to an intact equivalent entry:
                        // verify-and-discard.
                        let _ = fs::remove_file(&tmp);
                        self.deduped.fetch_add(1, Ordering::Relaxed);
                        return Ok(path);
                    }
                    // The entry vanished between the failed link and the
                    // verify (concurrent gc): retry the publish.
                    Ok(None) => continue,
                    Err(_) => {
                        // The existing entry is corrupt or mis-keyed:
                        // heal it with our complete copy.
                        fs::rename(&tmp, &path)?;
                        self.append_index(key)?;
                        self.healed.fetch_add(1, Ordering::Relaxed);
                        return Ok(path);
                    }
                },
                // Filesystems without hard links degrade to an atomic
                // rename (last writer wins, entries still always whole).
                Err(_) => {
                    fs::rename(&tmp, &path)?;
                    self.append_index(key)?;
                    self.published.fetch_add(1, Ordering::Relaxed);
                    return Ok(path);
                }
            }
        }
        fs::rename(&tmp, &path)?;
        self.append_index(key)?;
        self.published.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// Store a point under `key`, atomically **replacing** any previous
    /// entry (temp + rename). This is the refresh path — e.g. re-storing
    /// a point with merged extras, or after the old entry was rejected as
    /// corrupt; plain caching should use the write-once
    /// [`put`](Self::put).
    pub fn put_replace(&self, key: &PointKey, point: &StoredPoint) -> io::Result<PathBuf> {
        self.deny_if_read_only()?;
        let path = self.entry_path(key);
        let existed = path.exists();
        let tmp = self.write_temp(key, point)?;
        fs::rename(&tmp, &path)?;
        if !existed {
            self.append_index(key)?;
        }
        self.replaced.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// Write the encoded entry to a collision-free temp file in the
    /// entries directory. The name embeds the pid and a per-process nonce
    /// and the file is opened with `create_new` (`O_EXCL`), so two
    /// processes — even two incarnations of the same pid — can never
    /// interleave writes into one temp file.
    fn write_temp(&self, key: &PointKey, point: &StoredPoint) -> io::Result<PathBuf> {
        let pid = std::process::id();
        loop {
            let nonce = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
            let tmp = self
                .entries_dir()
                .join(format!(".tmp-{}-{pid}-{nonce}", key.file_name()));
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&tmp)
            {
                Ok(mut f) => {
                    f.write_all(encode_entry(&key.canonical(), point).as_bytes())?;
                    return Ok(tmp);
                }
                // A leftover temp from a crashed run with our pid: take
                // the next nonce.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Append `key`'s row to the inspection index as one `O_APPEND`
    /// write — atomic across processes for a line this size, so
    /// concurrent appenders can duplicate rows but never interleave
    /// bytes. Readers ([`index`](Self::index)) deduplicate.
    fn append_index(&self, key: &PointKey) -> io::Result<()> {
        let line = format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            key.file_name().trim_end_matches(".point"),
            key.design,
            key.workload,
            key.seed,
            key.instrs,
            key.warmup,
            key.sim_version
        );
        let _guard = lock_index(&self.index);
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())?;
        f.write_all(line.as_bytes())
    }

    /// Number of entry files currently in the store.
    pub fn len(&self) -> io::Result<usize> {
        Ok(self.entry_files()?.len())
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Total size in bytes of all entry files.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for p in self.entry_files()? {
            total += fs::metadata(&p)?.len();
        }
        Ok(total)
    }

    /// Read the inspection index (one row per stored point, deduplicated,
    /// in insertion order). Duplicate rows — the benign residue of
    /// concurrent appenders racing on one store — collapse to the first
    /// occurrence, and malformed lines are skipped: the index is a
    /// convenience listing; the entries are the truth
    /// ([`rebuild_index`](Self::rebuild_index) and [`gc`](Self::gc)
    /// regenerate it from them).
    pub fn index(&self) -> io::Result<Vec<IndexRow>> {
        let text = match fs::read_to_string(self.index_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut rows = Vec::new();
        for line in text.lines() {
            let mut it = line.split('\t');
            let (
                Some(hash),
                Some(design),
                Some(workload),
                Some(seed),
                Some(instrs),
                Some(warmup),
                Some(ver),
            ) = (
                it.next(),
                it.next(),
                it.next(),
                it.next(),
                it.next(),
                it.next(),
                it.next(),
            )
            else {
                continue;
            };
            let (Ok(seed), Ok(instrs), Ok(warmup)) = (seed.parse(), instrs.parse(), warmup.parse())
            else {
                continue;
            };
            if seen.insert(hash.to_string()) {
                rows.push(IndexRow {
                    hash: hash.to_string(),
                    design: design.to_string(),
                    workload: workload.to_string(),
                    seed,
                    instrs,
                    warmup,
                    sim_version: ver.to_string(),
                });
            }
        }
        Ok(rows)
    }

    /// Garbage-collect: delete corrupt entries, orphaned temp files and
    /// entries computed under a simulator version other than
    /// `current_version`, then rebuild the index from the survivors.
    ///
    /// Temp files younger than [`GC_TEMP_GRACE`] are **never** reclaimed
    /// — they may be another process's in-flight write; use
    /// [`gc_with_temp_grace`](Self::gc_with_temp_grace) to choose the
    /// grace age explicitly.
    pub fn gc(&self, current_version: &str) -> io::Result<GcReport> {
        self.gc_with_temp_grace(current_version, GC_TEMP_GRACE)
    }

    /// [`gc`](Self::gc) with an explicit temp-file grace age: temp files
    /// whose mtime is younger than `temp_grace` are kept (counted in
    /// [`GcReport::kept_temps`]), everything older is reclaimed as an
    /// orphan of a crashed writer.
    pub fn gc_with_temp_grace(
        &self,
        current_version: &str,
        temp_grace: Duration,
    ) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let mut survivors: Vec<String> = Vec::new();
        let _guard = lock_index(&self.index);
        for path in self.entry_files_and_temps()? {
            let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(".tmp-") {
                // A young temp may be a concurrent writer's in-flight
                // entry (an unreadable mtime counts as young — when in
                // doubt, never destroy another process's work).
                let age = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    // samie-allow(wall-clock): gc's temp-file grace period is host file mtime age by design — it protects other processes' in-flight writes, not simulated time
                    .and_then(|t| t.elapsed().ok());
                if age.is_none_or(|a| a < temp_grace) {
                    report.kept_temps += 1;
                    continue;
                }
                fs::remove_file(&path)?;
                report.removed_corrupt += 1;
                report.bytes_freed += size;
                continue;
            }
            let decoded = fs::read_to_string(&path)
                .ok()
                .and_then(|t| decode_entry(&t).ok());
            match decoded {
                None => {
                    fs::remove_file(&path)?;
                    report.removed_corrupt += 1;
                    report.bytes_freed += size;
                }
                Some(d) => {
                    let ver = d
                        .key_canonical
                        .rsplit_once("|ver=")
                        .map(|(_, v)| v)
                        .unwrap_or("");
                    if ver != current_version {
                        fs::remove_file(&path)?;
                        report.removed_stale += 1;
                        report.bytes_freed += size;
                    } else {
                        report.kept += 1;
                        survivors.push(index_line_from_canonical(name, &d.key_canonical));
                    }
                }
            }
        }
        survivors.sort();
        fs::write(self.index_path(), survivors.concat())?;
        Ok(report)
    }

    /// Rewrite the inspection index from the entry files (sorted by
    /// hash), dropping duplicate and stale rows without deleting
    /// anything. Returns the number of indexed entries. Undecodable
    /// entries are skipped — [`gc`](Self::gc) is the tool that removes
    /// them.
    pub fn rebuild_index(&self) -> io::Result<usize> {
        let mut lines: Vec<String> = Vec::new();
        for path in self.entry_files()? {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(d) = fs::read_to_string(&path)
                .ok()
                .and_then(|t| decode_entry(&t).ok())
            {
                lines.push(index_line_from_canonical(name, &d.key_canonical));
            }
        }
        lines.sort();
        let n = lines.len();
        let _guard = lock_index(&self.index);
        fs::write(self.index_path(), lines.concat())?;
        Ok(n)
    }

    /// Render every stored point as deterministic text: entries sorted
    /// by canonical key, each as a `key` line followed by `stat`/`extra`
    /// lines, with the wall-clock field (the one non-deterministic byte
    /// of an entry) omitted. Two stores hold equivalent results — no
    /// matter which processes filled them, in what order, or how often
    /// writers raced — exactly when their dumps are byte-identical;
    /// a sharded store can be diffed against a serial sweep's this way. A
    /// corrupt entry fails the dump rather than vanishing from it.
    pub fn dump_deterministic(&self) -> Result<String, StoreError> {
        let mut entries = Vec::new();
        for path in self.entry_files()? {
            let text = fs::read_to_string(&path).map_err(StoreError::Io)?;
            let decoded = decode_entry(&text).map_err(|reason| StoreError::Corrupt {
                path: path.clone(),
                reason,
            })?;
            entries.push(decoded);
        }
        entries.sort_by(|a, b| a.key_canonical.cmp(&b.key_canonical));
        let mut out = String::new();
        for mut e in entries {
            out.push_str("key ");
            out.push_str(&e.key_canonical);
            out.push('\n');
            visit_stat_fields(&mut e.point.stats, |name, v| {
                out.push_str(&format!("stat {name} {v}\n"));
            });
            for (name, v) in &e.point.extras {
                out.push_str(&format!("extra {name} {v}\n"));
            }
        }
        Ok(out)
    }

    fn entry_files(&self) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .entry_files_and_temps()?
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "point"))
            .collect())
    }

    fn entry_files_and_temps(&self) -> io::Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = fs::read_dir(self.entries_dir())?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        Ok(files)
    }
}

/// Rebuild an index line from an entry's canonical key string.
fn index_line_from_canonical(file_name: &str, canonical: &str) -> String {
    let field = |tag: &str| {
        canonical
            .split('|')
            .find_map(|part| part.strip_prefix(tag))
            .unwrap_or("")
            .to_string()
    };
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        file_name.trim_end_matches(".point"),
        field("design="),
        field("workload="),
        field("seed="),
        field("instrs="),
        field("warmup="),
        field("ver=")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_sim::SimStats;

    fn tmp_store(tag: &str) -> ExperimentStore {
        let dir = std::env::temp_dir().join(format!("exp-store-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        ExperimentStore::open(dir).unwrap()
    }

    fn key(design: &str, seed: u64, ver: &str) -> PointKey {
        PointKey {
            design: design.into(),
            workload: "spec:gzip:00".into(),
            seed,
            instrs: 1000,
            warmup: 100,
            sim_config: "paper".into(),
            sim_version: ver.into(),
        }
    }

    fn point(cycles: u64) -> StoredPoint {
        StoredPoint {
            stats: SimStats {
                cycles,
                committed: cycles * 2,
                ..SimStats::default()
            },
            wall_nanos: 5_000,
            extras: vec![],
        }
    }

    #[test]
    fn put_get_and_index() {
        let store = tmp_store("basic");
        let k = key("conv:128", 1, "v1");
        assert!(store.get(&k).unwrap().is_none());
        assert!(store.is_empty().unwrap());
        store.put(&k, &point(10)).unwrap();
        assert_eq!(store.get(&k).unwrap().unwrap(), point(10));
        assert_eq!(store.len().unwrap(), 1);
        assert!(store.disk_bytes().unwrap() > 0);
        // put is write-once: a second writer loses the race, verifies the
        // winner's entry and discards its own (no temp file left behind).
        store.put(&k, &point(11)).unwrap();
        assert_eq!(store.get(&k).unwrap().unwrap().stats.cycles, 10);
        // put_replace deliberately refreshes; neither path duplicates the
        // index.
        store.put_replace(&k, &point(11)).unwrap();
        assert_eq!(store.get(&k).unwrap().unwrap().stats.cycles, 11);
        let idx = store.index().unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx[0].design, "conv:128");
        assert_eq!(idx[0].seed, 1);
        // No stray temps after any of the puts.
        let temps: Vec<_> = fs::read_dir(store.entries_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(temps.is_empty(), "{temps:?}");
    }

    #[test]
    fn put_heals_a_corrupt_loser_entry() {
        let store = tmp_store("heal");
        let k = key("conv:128", 7, "v1");
        let path = store.put(&k, &point(1)).unwrap();
        fs::write(&path, "garbage").unwrap();
        // The write-once loser path detects the corruption and replaces
        // the entry instead of discarding its fresh copy.
        store.put(&k, &point(2)).unwrap();
        assert_eq!(store.get(&k).unwrap().unwrap().stats.cycles, 2);
    }

    #[test]
    fn corrupt_entries_error_loudly() {
        let store = tmp_store("corrupt");
        let k = key("samie", 2, "v1");
        let path = store.put(&k, &point(42)).unwrap();
        // Truncate the entry in place.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = store.get(&k).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("corrupt store entry"));
        // A key collision (same file, different canonical key) is also
        // rejected rather than served.
        fs::write(
            &path,
            encode_entry(&key("other", 9, "v1").canonical(), &point(1)),
        )
        .unwrap();
        let err = store.get(&k).unwrap_err();
        assert!(err.to_string().contains("key mismatch"), "{err}");
    }

    #[test]
    fn gc_reclaims_stale_and_corrupt() {
        let store = tmp_store("gc");
        store.put(&key("conv:128", 1, "v1"), &point(1)).unwrap();
        store.put(&key("conv:128", 2, "v0"), &point(2)).unwrap();
        let corrupt_path = store.put(&key("samie", 3, "v1"), &point(3)).unwrap();
        fs::write(&corrupt_path, "garbage").unwrap();
        fs::write(store.entries_dir().join(".tmp-leftover-0"), "x").unwrap();

        let report = store.gc_with_temp_grace("v1", Duration::ZERO).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed_stale, 1);
        assert_eq!(report.removed_corrupt, 2, "corrupt entry + stray temp");
        assert_eq!(report.kept_temps, 0);
        assert!(report.bytes_freed > 0);
        assert_eq!(store.len().unwrap(), 1);
        // Index was rebuilt from the survivors.
        let idx = store.index().unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx[0].seed, 1);
        assert_eq!(idx[0].sim_version, "v1");
    }

    #[test]
    fn gc_spares_temp_files_within_the_grace_age() {
        let store = tmp_store("gc-grace");
        store.put(&key("conv:128", 1, "v1"), &point(1)).unwrap();
        let temp = store.entries_dir().join(".tmp-inflight-999-0");
        fs::write(&temp, "another process is still writing this").unwrap();

        // The default grace protects a just-written temp...
        let report = store.gc("v1").unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.kept_temps, 1, "in-flight temp must survive gc");
        assert!(temp.exists());
        // ...while a zero grace treats it as an orphan.
        let report = store.gc_with_temp_grace("v1", Duration::ZERO).unwrap();
        assert_eq!(report.kept_temps, 0);
        assert!(!temp.exists());
    }

    #[test]
    fn rebuild_index_recovers_from_a_lost_or_duplicated_index() {
        let store = tmp_store("rebuild");
        for s in 0..4 {
            store.put(&key("conv:128", s, "v1"), &point(s)).unwrap();
        }
        // Simulate concurrent-appender residue plus a torn final line.
        let existing = fs::read_to_string(store.index_path()).unwrap();
        let first = existing.lines().next().unwrap();
        fs::write(
            store.index_path(),
            format!("{existing}{first}\n{}", &first[..10]),
        )
        .unwrap();
        assert_eq!(store.index().unwrap().len(), 4, "readers dedup");
        assert_eq!(store.rebuild_index().unwrap(), 4);
        assert_eq!(store.index().unwrap().len(), 4);
        // A deleted index is rebuilt wholesale from the entries.
        fs::remove_file(store.index_path()).unwrap();
        assert_eq!(store.rebuild_index().unwrap(), 4);
        let idx = store.index().unwrap();
        assert_eq!(idx.len(), 4);
        let mut seeds: Vec<u64> = idx.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn read_only_handle_reads_but_never_writes_or_creates() {
        let store = tmp_store("read-only");
        let k = key("conv:128", 5, "v1");
        store.put(&k, &point(9)).unwrap();

        let ro = ExperimentStore::open_read_only(store.root()).unwrap();
        assert!(ro.is_read_only());
        assert_eq!(ro.get(&k).unwrap().unwrap(), point(9));
        for err in [
            ro.put(&key("conv:128", 6, "v1"), &point(1)).unwrap_err(),
            ro.put_replace(&k, &point(1)).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
        }
        assert_eq!(ro.counters(), StoreCounters::default());

        // A missing store is NotFound, never materialised empty.
        let missing = std::env::temp_dir().join("exp-store-test-no-such-store");
        let _ = fs::remove_dir_all(&missing);
        let err = ExperimentStore::open_read_only(&missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!missing.exists(), "read-only open must not create");
    }

    #[test]
    fn counters_track_publish_dedup_heal_replace() {
        let store = tmp_store("counters");
        let k = key("samie", 1, "v1");
        store.put(&k, &point(1)).unwrap();
        store.put(&k, &point(2)).unwrap(); // loses the write-once race
        store.put_replace(&k, &point(3)).unwrap();
        fs::write(store.entry_path(&k), "garbage").unwrap();
        store.put(&k, &point(4)).unwrap(); // heals the corrupt entry
        assert_eq!(
            store.counters(),
            StoreCounters {
                published: 1,
                deduped: 1,
                healed: 1,
                replaced: 1,
            }
        );
    }

    #[test]
    fn deterministic_dump_is_order_independent_and_loud_on_corruption() {
        let a = tmp_store("dump-a");
        let b = tmp_store("dump-b");
        // Same logical contents, inserted in opposite orders with
        // different wall clocks.
        for (store, seeds, wall) in [(&a, [1, 2, 3], 10), (&b, [3, 2, 1], 999_999)] {
            for s in seeds {
                let p = StoredPoint {
                    wall_nanos: wall,
                    ..point(s * 7)
                };
                store.put(&key("conv:64", s, "v1"), &p).unwrap();
            }
        }
        let dump = a.dump_deterministic().unwrap();
        assert_eq!(dump, b.dump_deterministic().unwrap());
        assert_eq!(dump.matches("key design=").count(), 3);
        assert!(!dump.contains("wall"), "wall clock is excluded");

        // A corrupt entry fails the dump instead of vanishing from it.
        fs::write(a.entry_path(&key("conv:64", 1, "v1")), "garbage").unwrap();
        assert!(matches!(
            a.dump_deterministic().unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn concurrent_puts_from_many_threads() {
        let store = tmp_store("parallel");
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..16 {
                        let k = key("conv:64", t * 100 + i, "v1");
                        store.put(&k, &point(t * 100 + i)).unwrap();
                        assert!(store.get(&k).unwrap().is_some());
                    }
                });
            }
        });
        assert_eq!(store.len().unwrap(), 128);
        assert_eq!(store.index().unwrap().len(), 128);
    }

    #[test]
    fn concurrent_puts_on_overlapping_keys_never_corrupt() {
        // 8 threads hammer the *same* 16 keys — the write-once race in
        // its purest form. Every entry must decode, hold one of the
        // written values, and index exactly once.
        let store = tmp_store("overlap");
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let store = &store;
                s.spawn(move || {
                    for round in 0..4u64 {
                        for i in 0..16 {
                            let k = key("samie", i, "v1");
                            store.put(&k, &point(1000 + t * 10 + round)).unwrap();
                            let got = store.get(&k).unwrap().expect("entry present");
                            assert!(got.stats.cycles >= 1000, "torn value: {got:?}");
                        }
                    }
                });
            }
        });
        assert_eq!(store.len().unwrap(), 16);
        assert_eq!(store.index().unwrap().len(), 16);
        for i in 0..16 {
            let got = store.get(&key("samie", i, "v1")).unwrap().unwrap();
            assert!(got.stats.cycles >= 1000);
        }
    }
}
