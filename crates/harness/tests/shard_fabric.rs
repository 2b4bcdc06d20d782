//! The store's cross-process contract, tested end to end with real
//! `samie-exp sweep` **processes** (`CARGO_BIN_EXE_samie-exp`) sharing
//! one store:
//!
//! * overlapping writers — worker processes plus in-process threads
//!   hammering the same keys of one store — leave zero corrupt entries;
//! * a SIGKILLed worker loses nothing: the store stays clean and a
//!   resumed sweep completes the exact grid bit-identically.
//!
//! That a sweep served from the store equals a cold one byte for byte
//! is `sweep::tests::cached_sweep_matches_cold_sweep_byte_for_byte`.
//!
//! Spawned workers run the *debug* binary, so grids here are tiny.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use exp_harness::runner::RunConfig;
use exp_harness::sweep::SweepGrid;
use exp_harness::{designs_from_specs, run_sweep, DesignSpec, PointCache, SweepOptions};
use ooo_sim::SimConfig;

const EXE: &str = env!("CARGO_BIN_EXE_samie-exp");

/// The shared test grid: 2 designs x 2 benchmarks, short enough for a
/// debug-build worker process to simulate in well under a second.
fn small_grid(seed: u64) -> SweepGrid {
    SweepGrid {
        designs: designs_from_specs(DesignSpec::parse_list("conv:32,samie").unwrap()),
        benchmarks: SweepGrid::parse_benchmarks("gzip,swim").unwrap(),
        seeds: vec![seed],
        rc: RunConfig {
            instrs: 2_000,
            warmup: 500,
            seed,
        },
        cfg: SimConfig::paper(),
    }
}

/// A fresh scratch directory (removed first if a previous run left it).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samie-shard-fabric-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flags shared by every spawned worker: the grid and run length of
/// `small_grid(seed)` plus the store to sweep into.
fn worker_args(grid: &SweepGrid, store: &Path, out: &Path) -> Vec<String> {
    vec![
        "sweep".into(),
        "--designs".into(),
        "conv:32,samie".into(),
        "--bench".into(),
        "gzip,swim".into(),
        "--instrs".into(),
        grid.rc.instrs.to_string(),
        "--warmup".into(),
        grid.rc.warmup.to_string(),
        "--seed".into(),
        grid.rc.seed.to_string(),
        "--jobs".into(),
        "2".into(),
        "--store".into(),
        store.display().to_string(),
        "--out".into(),
        out.display().to_string(),
    ]
}

/// Every entry the grid's keys address must be readable — `Ok(Some)` if
/// present, `Ok(None)` if a worker never got to it; a `StoreError::Corrupt`
/// fails the test. Returns how many points were present.
fn assert_no_corruption(cache: &PointCache, grid: &SweepGrid) -> usize {
    let mut present = 0;
    for (design, bench, seed) in grid.expand() {
        let rc = RunConfig { seed, ..grid.rc };
        let key = cache.key(&design.id(), &bench, &rc, &grid.cfg);
        match cache.store().get(&key) {
            Ok(Some(_)) => present += 1,
            Ok(None) => {}
            Err(e) => panic!("corrupt entry for {}/{}: {e}", design.id(), bench.name()),
        }
    }
    present
}

#[test]
fn overlapping_processes_and_threads_leave_zero_corrupt_entries() {
    let store = scratch("stress");
    let out = scratch("stress-out");
    let grid = small_grid(29);

    // Two worker processes race the SAME unsharded grid — fully
    // overlapping keys — while this process sweeps it on threads too.
    let mut children: Vec<_> = (0..2)
        .map(|i| {
            Command::new(EXE)
                .args(worker_args(&grid, &store, &out.join(format!("w{i}"))))
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let cache = PointCache::open(&store).unwrap();
    let local = run_sweep(
        &grid,
        &SweepOptions {
            jobs: 4,
            cache: Some(&cache),
        },
    );
    for child in &mut children {
        assert!(child.wait().unwrap().success(), "worker exited non-zero");
    }

    // Three writers, one store, zero corruption: exactly one entry per
    // point, every entry decodes (through the keyed gets and the walk
    // over all entries), and no temp files were leaked.
    let store_handle = cache.store();
    assert_eq!(store_handle.len().unwrap(), 4);
    assert_eq!(assert_no_corruption(&cache, &grid), 4);
    assert_eq!(
        store_handle.entries().unwrap().len(),
        4,
        "the entry walk decodes each point once"
    );
    let temps = std::fs::read_dir(store.join("entries"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .count();
    assert_eq!(temps, 0, "no leaked temp files");

    // And the racy store still serves a byte-identical warm sweep.
    let warm = run_sweep(
        &grid,
        &SweepOptions {
            jobs: 1,
            cache: Some(&cache),
        },
    );
    assert_eq!((warm.hits, warm.misses), (4, 0));
    assert_eq!(warm.to_json_deterministic(), local.to_json_deterministic());
    std::fs::remove_dir_all(&store).unwrap();
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn sigkilled_worker_loses_nothing_and_a_resumed_sweep_completes_the_grid() {
    let store = scratch("chaos");
    let out = scratch("chaos-out");
    // A longer grid (6 points, serialized with --jobs 1) so the kill
    // lands mid-sweep: we poll the store for the first published entry,
    // then SIGKILL while later points are still simulating.
    let grid = SweepGrid {
        designs: designs_from_specs(DesignSpec::parse_list("conv:32,samie").unwrap()),
        benchmarks: SweepGrid::parse_benchmarks("gzip,swim,ammp").unwrap(),
        seeds: vec![41],
        rc: RunConfig {
            instrs: 15_000,
            warmup: 2_000,
            seed: 41,
        },
        cfg: SimConfig::paper(),
    };
    let mut args = worker_args(&grid, &store, &out);
    for (flag, value) in [("--bench", "gzip,swim,ammp"), ("--jobs", "1")] {
        let at = args.iter().position(|a| a == flag).unwrap();
        args[at + 1] = value.into();
    }
    let mut worker = Command::new(EXE)
        .args(&args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn worker");

    let cache = PointCache::open(&store).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while cache.store().len().unwrap_or(0) == 0 {
        assert!(
            Instant::now() < deadline,
            "worker published nothing in 120 s"
        );
        if let Some(status) = worker.try_wait().unwrap() {
            panic!("worker finished before it could be killed: {status}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    worker.kill().expect("SIGKILL the worker mid-grid");
    let status = worker.wait().unwrap();
    assert!(!status.success(), "a SIGKILLed worker cannot exit 0");

    // The store holds only whole entries: whatever the dead worker
    // published is intact, nothing is corrupt.
    let survivors = assert_no_corruption(&cache, &grid);
    assert!(survivors >= 1, "the polled-for entry survived the kill");

    // A resumed sweep completes the exact grid — survivors are cache
    // hits, the rest simulate — bit-identical to a never-killed run.
    let resumed = run_sweep(
        &grid,
        &SweepOptions {
            jobs: 0,
            cache: Some(&cache),
        },
    );
    assert_eq!(resumed.hits + resumed.misses, 6);
    assert!(resumed.hits >= survivors, "survivors served from the store");
    let serial = run_sweep(
        &grid,
        &SweepOptions {
            jobs: 0,
            ..Default::default()
        },
    );
    assert_eq!(
        resumed.to_json_deterministic(),
        serial.to_json_deterministic()
    );
    assert_eq!(
        resumed.table_deterministic().to_csv(),
        serial.table_deterministic().to_csv()
    );
    std::fs::remove_dir_all(&store).unwrap();
    let _ = std::fs::remove_dir_all(&out);
}
