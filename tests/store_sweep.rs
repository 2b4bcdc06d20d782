//! End-to-end semantics of the experiment store under the sweep engine:
//! warm re-sweeps are byte-identical and all-hits, interrupted sweeps
//! resume from what was already computed, and corrupt entries are
//! rejected loudly but recovered from.

use std::time::Duration;

use exp_harness::runner::{PointCache, RunConfig};
use exp_harness::sweep::{run_sweep, SweepGrid, SweepOptions};
use exp_harness::DesignSpec;
use exp_store::StoreError;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("samie-store-sweep-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid(benchmarks: &str, rc: RunConfig) -> SweepGrid {
    SweepGrid::paper(
        DesignSpec::paper_trio(),
        SweepGrid::parse_benchmarks(benchmarks).unwrap(),
        rc,
    )
}

fn rc() -> RunConfig {
    RunConfig {
        instrs: 6_000,
        warmup: 1_500,
        seed: 21,
    }
}

#[test]
fn interrupted_sweep_resumes_from_partial_store() {
    let dir = tmp_dir("resume");
    let cache = PointCache::open(&dir).unwrap();

    // "Interrupted" run: only part of the grid completed before the
    // process died — modelled as a sweep over a benchmark subset (the
    // store records each point the moment it finishes, so a real
    // interruption leaves exactly such a prefix of whole entries).
    let partial = run_sweep(
        &grid("gzip", rc()),
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
            shard: None,
        },
    );
    assert_eq!(partial.misses, 3);

    // Resuming the full grid recomputes only the missing points...
    let resumed = run_sweep(
        &grid("gzip,swim,ammp", rc()),
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
            shard: None,
        },
    );
    assert_eq!((resumed.hits, resumed.misses), (3, 6));

    // ...and the result is byte-identical to a never-interrupted run.
    let cold = run_sweep(
        &grid("gzip,swim,ammp", rc()),
        &SweepOptions {
            jobs: 1,
            ..Default::default()
        },
    );
    assert_eq!(
        resumed.to_json_deterministic(),
        cold.to_json_deterministic(),
        "resumed sweep must equal an uninterrupted one"
    );

    // A third pass is pure hits with real time saved.
    let warm = run_sweep(
        &grid("gzip,swim,ammp", rc()),
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
            shard: None,
        },
    );
    assert_eq!((warm.hits, warm.misses), (9, 0));
    assert!(warm.saved > Duration::ZERO);
    assert_eq!(warm.to_json_deterministic(), cold.to_json_deterministic());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_entry_is_rejected_loudly_and_recomputed() {
    let dir = tmp_dir("corrupt");
    let cache = PointCache::open(&dir).unwrap();
    let g = grid("gzip", rc());
    let cold = run_sweep(
        &g,
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
            shard: None,
        },
    );

    // Vandalise one entry on disk.
    let entries: Vec<_> = std::fs::read_dir(dir.join("entries"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 3);
    std::fs::write(&entries[0], "not a store entry").unwrap();

    // The store layer reports it as corruption (not a miss, not a hit)...
    let design = &g.designs[0];
    let probe_key = cache.key(&design.id(), &g.benchmarks[0], &g.rc, &g.cfg);
    let direct = cache.store().get(&probe_key);
    // (whichever entry we hit, at least the vandalised one must scream on
    // its own lookup — probe all three keys)
    let mut corrupt_seen = direct.is_err();
    for d in &g.designs[1..] {
        if matches!(
            cache
                .store()
                .get(&cache.key(&d.id(), &g.benchmarks[0], &g.rc, &g.cfg)),
            Err(StoreError::Corrupt { .. })
        ) {
            corrupt_seen = true;
        }
    }
    assert!(corrupt_seen, "a vandalised entry must surface as Corrupt");

    // ...and the sweep recovers by recomputing it, bit-identically.
    let healed = run_sweep(
        &g,
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
            shard: None,
        },
    );
    assert_eq!((healed.hits, healed.misses), (2, 1));
    assert!(cache.rejected() >= 1, "rejection was counted");
    assert_eq!(healed.to_json_deterministic(), cold.to_json_deterministic());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_then_resweep_recomputes_everything() {
    let dir = tmp_dir("gc");
    let cache = PointCache::open(&dir).unwrap();
    let g = grid("gzip", rc());
    run_sweep(
        &g,
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
            shard: None,
        },
    );
    assert_eq!(cache.store().len().unwrap(), 3);

    // GC under a *different* version wipes the (now-stale) entries.
    let report = cache.store().gc("some-future-version").unwrap();
    assert_eq!(report.kept, 0);
    assert_eq!(report.removed_stale, 3);
    assert!(cache.store().is_empty().unwrap());

    let re = run_sweep(
        &g,
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
            shard: None,
        },
    );
    assert_eq!((re.hits, re.misses), (0, 3));
    std::fs::remove_dir_all(&dir).unwrap();
}
