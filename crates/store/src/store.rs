//! [`ExperimentStore`] — the on-disk store proper: atomic puts, checked
//! gets, one walk over the decoded entries and garbage collection.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::entry::{decode_entry, encode_entry, visit_stat_fields, DecodedEntry, StoredPoint};
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
///   process's in-flight write.
///
/// The entry files are the store's only state: every listing
/// ([`entries`](Self::entries), [`len`](Self::len)) reads them.
///
/// Sweep workers cache their points as soon as they finish — which is
/// what makes an interrupted sweep resumable and lets processes sharing
/// a store serve each other's points. See the [crate docs](crate) for
/// the layout and a usage example.
#[derive(Debug)]
pub struct ExperimentStore {
    root: PathBuf,
    tmp_counter: AtomicU64,
}

impl ExperimentStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let root = dir.into();
        fs::create_dir_all(root.join("entries"))?;
        Ok(Self::handle(root))
    }

    /// Open an **existing** store: a missing store is `NotFound`, never
    /// created — the handle for inspection, which must not make a store
    /// where there was none.
    pub fn open_existing(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let root = dir.into();
        if !root.join("entries").is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no experiment store at {}", root.display()),
            ));
        }
        Ok(Self::handle(root))
    }

    fn handle(root: PathBuf) -> Self {
        ExperimentStore {
            root,
            tmp_counter: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entries_dir(&self) -> PathBuf {
        self.root.join("entries")
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
        let Some(decoded) = read_entry(&path)? else {
            return Ok(None);
        };
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

    /// Store a point under `key`, **write-once**: the first fully-written
    /// entry for a fingerprint path wins; a racing loser verifies that
    /// the winner's entry
    /// is intact for this key, discards its own copy and returns the
    /// shared path. (Points are pure functions of their key, so the
    /// winner's entry is equivalent — only `wall_nanos`/extras can
    /// differ.) An existing entry that turns out to be corrupt is healed
    /// in place. Use [`put_replace`](Self::put_replace) to overwrite an
    /// intact entry deliberately.
    pub fn put(&self, key: &PointKey, point: &StoredPoint) -> io::Result<PathBuf> {
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
                    return Ok(path);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => match self.get(key) {
                    Ok(Some(_)) => {
                        // Lost the race to an intact equivalent entry:
                        // verify-and-discard.
                        let _ = fs::remove_file(&tmp);
                        return Ok(path);
                    }
                    // The entry vanished between the failed link and the
                    // verify (concurrent gc): retry the publish.
                    Ok(None) => continue,
                    Err(_) => {
                        // The existing entry is corrupt or mis-keyed:
                        // heal it with our complete copy.
                        fs::rename(&tmp, &path)?;
                        return Ok(path);
                    }
                },
                // Filesystems without hard links degrade to an atomic
                // rename (last writer wins, entries still always whole).
                Err(_) => {
                    fs::rename(&tmp, &path)?;
                    return Ok(path);
                }
            }
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Store a point under `key`, atomically **replacing** any previous
    /// entry (temp + rename). This is the refresh path — e.g. re-storing
    /// a point with merged extras, or after the old entry was rejected as
    /// corrupt; plain caching should use the write-once
    /// [`put`](Self::put).
    pub fn put_replace(&self, key: &PointKey, point: &StoredPoint) -> io::Result<PathBuf> {
        let path = self.entry_path(key);
        let tmp = self.write_temp(key, point)?;
        fs::rename(&tmp, &path)?;
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

    /// Garbage-collect: delete corrupt entries, orphaned temp files and
    /// entries computed under a simulator version other than
    /// `current_version`.
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
            match read_entry(&path) {
                // Removed by a concurrent gc since the listing.
                Ok(None) => {}
                Err(_) => {
                    fs::remove_file(&path)?;
                    report.removed_corrupt += 1;
                    report.bytes_freed += size;
                }
                Ok(Some(d)) if d.key_field("ver") != current_version => {
                    fs::remove_file(&path)?;
                    report.removed_stale += 1;
                    report.bytes_freed += size;
                }
                Ok(Some(_)) => report.kept += 1,
            }
        }
        Ok(report)
    }

    /// Decode every entry, sorted by canonical key — the one walk over
    /// the store's contents that every listing shares. The first entry
    /// that cannot be decoded fails the walk as [`StoreError::Corrupt`]
    /// naming its file, so a damaged store is
    /// never listed as if it were whole ([`gc`](Self::gc) removes such
    /// entries).
    pub fn entries(&self) -> Result<Vec<DecodedEntry>, StoreError> {
        let mut entries = Vec::new();
        for path in self.entry_files()? {
            // An entry removed by a concurrent gc since the listing is
            // simply gone.
            entries.extend(read_entry(&path)?);
        }
        entries.sort_by(|a, b| a.key_canonical.cmp(&b.key_canonical));
        Ok(entries)
    }

    /// Render every stored point as deterministic text: the
    /// [`entries`](Self::entries) walk, each entry as a `key` line
    /// followed by `stat`/`extra` lines, with the wall-clock field (the
    /// one non-deterministic byte of an entry) omitted. Two stores hold
    /// equivalent results — no matter which processes filled them, in
    /// what order, or how often writers raced — exactly when their dumps
    /// are byte-identical; a store filled by processes sharing it can be
    /// diffed against a serial sweep's this way. A corrupt entry fails
    /// the dump rather than vanishing from it.
    pub fn dump_deterministic(&self) -> Result<String, StoreError> {
        let mut out = String::new();
        for mut e in self.entries()? {
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

/// Read and decode the entry file at `path`: `Ok(None)` if there is no
/// such file, [`StoreError::Corrupt`] naming it if it cannot be decoded.
fn read_entry(path: &Path) -> Result<Option<DecodedEntry>, StoreError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    std::str::from_utf8(&bytes)
        .map_err(|_| "entry is not UTF-8 text".to_string())
        .and_then(decode_entry)
        .map(Some)
        .map_err(|reason| StoreError::Corrupt {
            path: path.to_path_buf(),
            reason,
        })
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
        // put_replace deliberately refreshes; neither path adds an entry.
        store.put_replace(&k, &point(11)).unwrap();
        assert_eq!(store.get(&k).unwrap().unwrap().stats.cycles, 11);
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key_field("design"), "conv:128");
        assert_eq!(entries[0].key_field("seed"), "1");
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
        // Bytes that are not even text are corrupt too, not an i/o error.
        fs::write(&path, [0xff, 0xfe, b'\n']).unwrap();
        let err = store.get(&k).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
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
        // The survivor is the intact current-version entry.
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key_field("seed"), "1");
        assert_eq!(entries[0].key_field("ver"), "v1");
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
    fn open_existing_reads_a_store_but_never_creates_one() {
        let store = tmp_store("existing");
        let k = key("conv:128", 5, "v1");
        store.put(&k, &point(9)).unwrap();
        let existing = ExperimentStore::open_existing(store.root()).unwrap();
        assert_eq!(existing.get(&k).unwrap().unwrap(), point(9));

        // A missing store is NotFound, never materialised empty.
        let missing = std::env::temp_dir().join("exp-store-test-no-such-store");
        let _ = fs::remove_dir_all(&missing);
        let err = ExperimentStore::open_existing(&missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!missing.exists(), "open_existing must not create");
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
        assert_eq!(store.entries().unwrap().len(), 128, "every entry decodes");
    }

    #[test]
    fn concurrent_puts_on_overlapping_keys_never_corrupt() {
        // 8 threads hammer the *same* 16 keys — the write-once race in
        // its purest form. Every entry must decode, hold one of the
        // written values, and exist exactly once.
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
        assert_eq!(store.entries().unwrap().len(), 16, "every entry decodes");
        for i in 0..16 {
            let got = store.get(&key("samie", i, "v1")).unwrap().unwrap();
            assert!(got.stats.cycles >= 1000);
        }
    }
}
