//! The point path shared by every batch of simulations: [`run_point`]
//! (the one function that keys a point, asks the experiment store and
//! simulates on a miss), the store front end [`PointCache`], and the
//! scoped parallel map [`parallel_map_with`] that sweeps fan out on.
//!
//! Batches of points go through [`run_sweep`](crate::sweep::run_sweep);
//! one-off runs use [`SimSession`] directly — the single construction
//! path for every LSQ design.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use exp_store::{ExperimentStore, PointKey, StoreError, StoredPoint, SIM_VERSION};
use ooo_sim::{SimConfig, SimStats};
use samie_lsq::LoadStoreQueue;
use spec_traces::Workload;

use crate::session::{IntoDesign, SimSession};

/// Simulation length parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Instructions measured per benchmark (paper: 100 M).
    pub instrs: u64,
    /// Warm-up instructions before measurement (paper: 100 M).
    pub warmup: u64,
    /// Trace seed (same seed → byte-identical runs).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            instrs: 1_000_000,
            warmup: 200_000,
            seed: 42,
        }
    }
}

impl RunConfig {
    /// A fast configuration for smoke tests and the committed book.
    pub fn quick() -> Self {
        RunConfig {
            instrs: 120_000,
            warmup: 30_000,
            seed: 42,
        }
    }
}

/// Baseline vs SAMIE results for one benchmark: the two points of a
/// paired grid (see [`paired::run_with`](crate::experiments::paired::run_with)).
#[derive(Debug, Clone)]
pub struct PairedRun {
    /// Benchmark name.
    pub name: String,
    /// Conventional 128-entry LSQ run.
    pub conv: SimStats,
    /// SAMIE-LSQ (Table 3 configuration) run.
    pub samie: SimStats,
}

impl PairedRun {
    /// Relative IPC loss of SAMIE vs the baseline (Figure 5's metric;
    /// negative = SAMIE is faster).
    pub fn ipc_loss(&self) -> f64 {
        let c = self.conv.ipc();
        if c == 0.0 {
            0.0
        } else {
            (c - self.samie.ipc()) / c
        }
    }
}

/// Thread-safe front end to an [`ExperimentStore`]: builds the
/// [`PointKey`] for a simulation point (under its [`SimConfig`] and the
/// current [`SIM_VERSION`]), serves cache hits, and
/// records fresh results as soon as they are computed — which is what
/// makes interrupted sweeps resumable. Hit/miss/saved-time counters are
/// atomic so parallel sweep workers share one cache.
#[derive(Debug)]
pub struct PointCache {
    store: ExperimentStore,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    saved_nanos: AtomicU64,
}

impl PointCache {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(PointCache {
            store: ExperimentStore::open(dir.as_ref())?,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            saved_nanos: AtomicU64::new(0),
        })
    }

    /// The underlying store (inspection, GC).
    pub fn store(&self) -> &ExperimentStore {
        &self.store
    }

    /// The key of one simulation point under core configuration `cfg`
    /// (its canonical form is part of the key, so runs under config
    /// overrides never alias paper runs).
    pub fn key(
        &self,
        design_id: &str,
        workload: &Workload,
        rc: &RunConfig,
        cfg: &SimConfig,
    ) -> PointKey {
        PointKey {
            design: design_id.to_string(),
            workload: workload.cache_id(),
            seed: rc.seed,
            instrs: rc.instrs,
            warmup: rc.warmup,
            sim_config: cfg.canonical(),
            sim_version: SIM_VERSION.to_string(),
        }
    }

    /// Serve `key` from the store, or compute, record and return it.
    ///
    /// `expected_extras` names the extras the caller needs: a stored
    /// entry missing any of them (e.g. cached by a plain sweep before an
    /// extras-collecting experiment asked for the same point) is treated
    /// as a miss and recomputed, never silently served incomplete. On
    /// recomputation the stored extras are *merged* with the fresh ones
    /// (fresh values win), so two experiments caching disjoint extras on
    /// the same point enrich one entry instead of evicting each other.
    /// Corrupt entries are reported on stderr, counted, and recomputed.
    /// Returns the point and whether it was a cache hit.
    pub fn get_or_compute(
        &self,
        key: &PointKey,
        expected_extras: &[&str],
        compute: impl FnOnce() -> (SimStats, Vec<(String, u64)>),
    ) -> (StoredPoint, bool) {
        let mut stale_extras = Vec::new();
        // Whether an entry already occupies this key (incomplete or
        // corrupt): storing the recomputed point must then *replace* it —
        // the write-once `put` would verify the old entry and discard the
        // fresh one.
        let mut replace = false;
        match self.store.get(key) {
            Ok(Some(point)) => {
                if expected_extras
                    .iter()
                    .all(|e| point.extras.iter().any(|(n, _)| n == e))
                {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.saved_nanos
                        .fetch_add(point.wall_nanos, Ordering::Relaxed);
                    return (point, true);
                }
                // Incomplete for this caller, but its extras are still
                // good — carry them into the refreshed entry.
                stale_extras = point.extras;
                replace = true;
            }
            Ok(None) => {}
            Err(e @ StoreError::Corrupt { .. }) => {
                eprintln!("warning: {e}; recomputing the point");
                self.rejected.fetch_add(1, Ordering::Relaxed);
                replace = true;
            }
            Err(e) => eprintln!("warning: store read failed ({e}); recomputing the point"),
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let (stats, mut extras) = compute();
        for (name, v) in stale_extras {
            if !extras.iter().any(|(n, _)| *n == name) {
                extras.push((name, v));
            }
        }
        let point = StoredPoint {
            stats,
            wall_nanos: t0.elapsed().as_nanos() as u64,
            extras,
        };
        let stored = if replace {
            self.store.put_replace(key, &point)
        } else {
            self.store.put(key, &point)
        };
        if let Err(e) = stored {
            eprintln!("warning: could not cache point ({e})");
        }
        (point, false)
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Points computed (cache misses) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Corrupt entries rejected (and recomputed) so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Recorded compute time the hits avoided — the "cold" cost a warm
    /// run did not pay, and the numerator of the warm-speedup figure.
    pub fn saved(&self) -> Duration {
        Duration::from_nanos(self.saved_nanos.load(Ordering::Relaxed))
    }
}

/// Simulate one `(design, workload, run-config, core-config)` point —
/// through `cache` when given — and return it with whether it was a
/// cache hit.
///
/// `probe` reads named `u64` extras off the finished LSQ (statistics
/// that live on the design rather than in [`SimStats`], e.g. occupancy
/// quantiles); it runs only when the point is simulated. `extras` names
/// the ones a cache hit must carry, with the guard and merge semantics
/// of [`PointCache::get_or_compute`]. Uncached, the point's `wall_nanos`
/// is this run's compute time; on a hit it is the recorded one.
pub fn run_point(
    cache: Option<&PointCache>,
    design: impl IntoDesign,
    workload: &Workload,
    rc: &RunConfig,
    cfg: SimConfig,
    extras: &[&str],
    probe: impl Fn(&dyn LoadStoreQueue) -> Vec<(String, u64)>,
) -> (StoredPoint, bool) {
    let design = design.into_design();
    let compute = || {
        let mut extras = Vec::new();
        let mut report = SimSession::new(&design, workload)
            .config(cfg)
            .run_config(*rc)
            .on_finish(|_, lsq| extras = probe(lsq))
            .run();
        (report.runs.swap_remove(0).stats, extras)
    };
    match cache {
        None => {
            let t0 = Instant::now();
            let (stats, extras) = compute();
            let point = StoredPoint {
                stats,
                wall_nanos: t0.elapsed().as_nanos() as u64,
                extras,
            };
            (point, false)
        }
        Some(cache) => {
            let key = cache.key(&design.id(), workload, rc, &cfg);
            cache.get_or_compute(&key, extras, compute)
        }
    }
}

/// Order-preserving parallel map over `items` on `threads` workers (`0`
/// = all available cores). Workers claim the next unclaimed index from a
/// shared counter, in `0..n` order, so long-running items (e.g. `ammp`
/// with its deadlock replays) do not serialise the suite. The pool never
/// exceeds the item count; oversubscribed calls (`threads > items`)
/// degrade gracefully — the sweep engine exposes this as `--jobs`.
///
/// Each worker returns its own `(index, result)` list and the results
/// are put back in index order after the scope joins, so a long sweep
/// never serialises its workers on a results lock. A panicking worker
/// propagates its panic out of the scope.
pub fn parallel_map_with<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<R> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    }
    .min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    // Relaxed suffices: the counter only hands out distinct indices; the
    // results travel back through the joined threads' return values.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::paired;
    use samie_lsq::DesignSpec;
    use spec_traces::by_name;

    /// Plain statistics for one point through [`run_point`].
    fn point_stats(
        cache: Option<&PointCache>,
        design: DesignSpec,
        w: &Workload,
        rc: &RunConfig,
    ) -> SimStats {
        run_point(cache, design, w, rc, SimConfig::paper(), &[], |_| {
            Vec::new()
        })
        .0
        .stats
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_with(0, &items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_slice() {
        assert!(parallel_map_with::<u64, u64, _>(0, &[], |&x| x).is_empty());
        assert!(parallel_map_with::<u64, u64, _>(8, &[], |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_single_item() {
        assert_eq!(parallel_map_with(0, &[7u64], |&x| x + 1), vec![8]);
        assert_eq!(parallel_map_with(16, &[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_propagates_a_worker_panic() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_with(2, &[1u64, 2, 3, 4], |&x| {
                assert_ne!(x, 3, "worker panic");
                x
            })
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("worker panic"), "{msg}");
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        // The pool clamps to the item count; excess workers are never
        // spawned and every item is still mapped exactly once, in order.
        let items: Vec<u64> = (0..3).collect();
        assert_eq!(parallel_map_with(64, &items, |&x| x * x), vec![0, 1, 4]);
    }

    #[test]
    fn parallel_map_explicit_thread_counts_agree() {
        let items: Vec<u64> = (0..23).collect();
        let serial = parallel_map_with(1, &items, |&x| x ^ 0xff);
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map_with(threads, &items, |&x| x ^ 0xff), serial);
        }
    }

    #[test]
    fn parallel_map_non_copy_results() {
        // The lock-free slots must move non-trivial result types intact.
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map_with(4, &items, |&x| vec![x.to_string(); 3]);
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], vec!["49".to_string(); 3]);
    }

    #[test]
    fn paired_run_smoke() {
        let rc = RunConfig {
            instrs: 20_000,
            warmup: 5_000,
            seed: 1,
        };
        let mut runs = SimSession::new(DesignSpec::conventional_paper(), by_name("gzip").unwrap())
            .design(DesignSpec::samie_paper())
            .run_config(rc)
            .run()
            .runs
            .into_iter()
            .map(|r| r.stats);
        let pr = PairedRun {
            name: "gzip".into(),
            conv: runs.next().unwrap(),
            samie: runs.next().unwrap(),
        };
        assert!(pr.conv.ipc() > 0.1);
        assert!(pr.samie.ipc() > 0.1);
        assert!(pr.ipc_loss().abs() < 0.5);
        // Identical traces: committed mixes match (up to the final
        // commit-group overshoot).
        assert!(pr.conv.loads.abs_diff(pr.samie.loads) < 64);
        assert!(pr.conv.stores.abs_diff(pr.samie.stores) < 64);
    }

    #[test]
    fn run_one_accepts_any_design() {
        let rc = RunConfig {
            instrs: 10_000,
            warmup: 2_000,
            seed: 1,
        };
        let spec = by_name("gzip").unwrap();
        for design in ["conv:64", "samie", "unbounded", "oracle"] {
            let d: DesignSpec = design.parse().unwrap();
            let stats = SimSession::new(d, spec)
                .run_config(rc)
                .run()
                .stats()
                .clone();
            assert!(stats.ipc() > 0.1, "{design}");
        }
    }

    #[test]
    fn split_paired_suite_matches_sessioned_pairs() {
        let rc = RunConfig {
            instrs: 10_000,
            warmup: 2_000,
            seed: 5,
        };
        let spec = by_name("gzip").unwrap();
        // The paired grid runs each design as its own sweep point; a
        // two-design session runs both on one shared trace.
        let joint = SimSession::new(DesignSpec::conventional_paper(), spec)
            .design(DesignSpec::samie_paper())
            .run_config(rc)
            .run();
        let split = paired::run_with(&rc, None, [Workload::from(spec)]);
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].name, joint.workload);
        assert_eq!(
            split[0].conv, joint.runs[0].stats,
            "identical traces per design"
        );
        assert_eq!(split[0].samie, joint.runs[1].stats);
    }

    #[test]
    fn cached_runner_is_bit_identical_and_counts() {
        let dir = std::env::temp_dir().join("samie-runner-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(&dir).unwrap();
        let rc = RunConfig {
            instrs: 8_000,
            warmup: 2_000,
            seed: 3,
        };
        let w = spec_traces::find_workload("gzip").unwrap();
        let design = DesignSpec::samie_paper();

        let direct = point_stats(None, design, &w, &rc);
        let cold = point_stats(Some(&cache), design, &w, &rc);
        let warm = point_stats(Some(&cache), design, &w, &rc);
        assert_eq!(direct, cold, "cold cached run matches direct");
        assert_eq!(cold, warm, "warm hit is bit-identical to recompute");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(cache.saved() > Duration::ZERO);

        // A different seed is a different point.
        let other = point_stats(Some(&cache), design, &w, &RunConfig { seed: 4, ..rc });
        assert_ne!(warm, other);
        assert_eq!(cache.misses(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extras_guard_recomputes_incomplete_hits() {
        let dir = std::env::temp_dir().join("samie-runner-extras-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(&dir).unwrap();
        let rc = RunConfig {
            instrs: 6_000,
            warmup: 1_000,
            seed: 1,
        };
        let w = spec_traces::find_workload("gzip").unwrap();
        let design = DesignSpec::samie_paper();
        type Probe<'p> = &'p dyn Fn(&dyn LoadStoreQueue) -> Vec<(String, u64)>;
        let with_extras = |expected: &[&str], probe: Probe<'_>| {
            let (point, _) = run_point(
                Some(&cache),
                design,
                &w,
                &rc,
                SimConfig::paper(),
                expected,
                probe,
            );
            (point.stats, point.extras)
        };

        // A plain run caches the point without extras...
        let plain = point_stats(Some(&cache), design, &w, &rc);
        // ...so an extras-requiring call must not be served the bare hit.
        let probe = |lsq: &dyn LoadStoreQueue| {
            let samie = lsq
                .as_any()
                .downcast_ref::<samie_lsq::SamieLsq>()
                .expect("samie design");
            vec![(
                "p99_shared".to_string(),
                samie.shared_entries_for_quantile(0.99) as u64,
            )]
        };
        let (stats, extras) = with_extras(&["p99_shared"], &probe);
        assert_eq!(stats, plain, "same point, same statistics");
        assert_eq!(extras.len(), 1, "probe ran despite the stale hit");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));

        // Now the enriched entry serves both call shapes as hits.
        let (_, again) = with_extras(&["p99_shared"], &probe);
        assert_eq!(again, extras);
        let _ = point_stats(Some(&cache), design, &w, &rc);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));

        // A second experiment caching a *different* extra on the same
        // point must not evict p99_shared: the refresh merges extras.
        let probe_b = |_: &dyn LoadStoreQueue| vec![("p50_shared".to_string(), 1)];
        let (_, merged) = with_extras(&["p50_shared"], &probe_b);
        assert!(merged.iter().any(|(n, _)| n == "p50_shared"));
        assert!(
            merged.iter().any(|(n, _)| n == "p99_shared"),
            "stored extras survive the refresh"
        );
        // Both call shapes now hit the one enriched entry.
        let (_, a) = with_extras(&["p99_shared"], &probe);
        let (_, b) = with_extras(&["p50_shared"], &probe_b);
        assert_eq!(a, b, "one entry serves both experiments");
        assert_eq!(cache.misses(), 3, "no ping-pong recomputation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_config_defaults() {
        let rc = RunConfig::default();
        assert!(rc.instrs >= rc.warmup);
        assert!(RunConfig::quick().instrs < rc.instrs);
    }
}
