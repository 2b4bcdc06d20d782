//! The book workload: `samie-exp report` cold into an empty store, then
//! warm on the full store, plus the set-up and store timings around it.

use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use exp_store::{ExperimentStore, PointKey, StoredPoint};
use ooo_sim::{SimConfig, Simulator};
use spec_traces::Workload;

use crate::grid::{median, Point, RunLength};

/// The committed real programs, as the book's real-programs chapter
/// assembles and runs them.
const RV_SOURCES: [(&str, &str, &str); 4] = [
    (
        "rv:quicksort",
        "programs/quicksort.s",
        include_str!("../../programs/quicksort.s"),
    ),
    (
        "rv:matmul",
        "programs/matmul.s",
        include_str!("../../programs/matmul.s"),
    ),
    (
        "rv:sieve",
        "programs/sieve.s",
        include_str!("../../programs/sieve.s"),
    ),
    (
        "rv:memcpy",
        "programs/memcpy.s",
        include_str!("../../programs/memcpy.s"),
    ),
];

/// Assemble and emulate the four real programs; returns the time taken.
pub fn rv_setup() -> io::Result<Duration> {
    let t0 = Instant::now();
    for (name, file, source) in RV_SOURCES {
        let w = Workload::rv_source(name, file, source)
            .map_err(|e| io::Error::other(format!("{file}: {e}")))?;
        black_box(w);
    }
    Ok(t0.elapsed())
}

/// Remove `dir` if it exists.
pub fn clear(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The book's set-up: an empty store, the real programs assembled and
/// emulated, and every in-process point's design, trace and simulator
/// built.
pub fn setup(dir: &Path, points: &[Point], seed: u64) -> io::Result<Duration> {
    clear(dir)?;
    let t0 = Instant::now();
    black_box(ExperimentStore::open(dir)?);
    rv_setup()?;
    for p in points {
        black_box(Simulator::new(
            SimConfig::paper(),
            p.design.build(),
            p.workload.build_trace(seed),
        ));
    }
    Ok(t0.elapsed())
}

/// One book: the `samie-exp` binary, its store and its pages.
pub struct Book {
    exe: PathBuf,
    store: PathBuf,
    pages: PathBuf,
    seed: u64,
    len: RunLength,
}

impl Book {
    /// A book built by `exe` under `dir`.
    pub fn new(exe: &Path, dir: &Path, seed: u64, len: RunLength) -> Self {
        Book {
            exe: exe.to_path_buf(),
            store: dir.join("store"),
            pages: dir.join("pages"),
            seed,
            len,
        }
    }

    /// The store the book writes.
    pub fn store_dir(&self) -> &Path {
        &self.store
    }

    /// Build the book into an empty store.
    pub fn cold(&self) -> io::Result<Duration> {
        clear(&self.store)?;
        clear(&self.pages)?;
        self.report()
    }

    /// Rebuild the book on the store a previous build filled.
    pub fn warm(&self) -> io::Result<Duration> {
        self.report()
    }

    /// Digest of the pages last written.
    pub fn digest(&self) -> io::Result<u128> {
        crate::check::pages_digest(&self.pages)
    }

    fn report(&self) -> io::Result<Duration> {
        let t0 = Instant::now();
        let out = Command::new(&self.exe)
            .arg("report")
            .args(["--instrs", &self.len.instrs.to_string()])
            .args(["--warmup", &self.len.warmup.to_string()])
            .args(["--seed", &self.seed.to_string()])
            .arg("--out")
            .arg(&self.pages)
            .arg("--store")
            .arg(&self.store)
            .output()?;
        let elapsed = t0.elapsed();
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            return Err(io::Error::other(format!(
                "{} report failed ({}): {}",
                self.exe.display(),
                out.status,
                tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
            )));
        }
        Ok(elapsed)
    }
}

/// Timed gets of a workload's keys.
pub struct Gets {
    /// Median µs per get over the rounds.
    pub us: f64,
    /// Gets made.
    pub gets: u64,
    /// Gets that found their entry.
    pub hits: u64,
    /// The entries the first round found.
    pub found: Vec<(PointKey, StoredPoint)>,
}

/// `get` every key in `keys` from `store`, `reps` times.
pub fn time_gets(store: &ExperimentStore, keys: &[PointKey], reps: usize) -> io::Result<Gets> {
    let mut out = Gets {
        us: 0.0,
        gets: 0,
        hits: 0,
        found: Vec::new(),
    };
    let mut per_get = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut round = Vec::with_capacity(keys.len());
        let t0 = Instant::now();
        for k in keys {
            round.push(store.get(k));
        }
        per_get.push(t0.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64);
        for (k, got) in keys.iter().zip(round) {
            out.gets += 1;
            if let Some(p) = got.map_err(|e| io::Error::other(e.to_string()))? {
                out.hits += 1;
                if rep == 0 {
                    out.found.push((k.clone(), p));
                }
            }
        }
    }
    if !per_get.is_empty() {
        out.us = median(&per_get);
    }
    Ok(out)
}

/// Median µs per `put` of `entries` into a new store under `dir`, over
/// `reps` stores, and the puts made.
pub fn time_puts(
    dir: &Path,
    entries: &[(PointKey, StoredPoint)],
    reps: usize,
) -> io::Result<(f64, u64)> {
    if entries.is_empty() {
        return Ok((0.0, 0));
    }
    let mut per_put = Vec::with_capacity(reps);
    for rep in 0..reps {
        let root = dir.join(format!("put-{rep}"));
        clear(&root)?;
        let store = ExperimentStore::open(&root)?;
        let t0 = Instant::now();
        for (k, p) in entries {
            store.put(k, p)?;
        }
        per_put.push(t0.elapsed().as_secs_f64() * 1e6 / entries.len() as f64);
    }
    Ok((median(&per_put), (reps * entries.len()) as u64))
}
