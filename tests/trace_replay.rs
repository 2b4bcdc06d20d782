//! Trace capture/replay contract (the acceptance criterion of the trace
//! subsystem): a session recorded to `.strc` and replayed through
//! `SimSession` reproduces **bit-identical** `SimStats` for every design
//! that was part of the recording session.

use exp_harness::runner::RunConfig;
use exp_harness::session::{record_trace, SimSession};
use exp_harness::sweep::{designs_from_specs, run_sweep, SweepGrid, SweepOptions};
use samie_lsq::DesignSpec;
use spec_traces::{find_workload, Workload};
use trace_isa::strc::RecordedTrace;
use trace_isa::TraceSource;

const RC: RunConfig = RunConfig {
    instrs: 3_000,
    warmup: 800,
    seed: 13,
};

/// All six design families, paper geometries.
fn all_designs() -> Vec<exp_harness::DesignHandle> {
    designs_from_specs([
        DesignSpec::conventional_paper(),
        DesignSpec::filtered_paper(),
        DesignSpec::samie_paper(),
        "arb".parse().unwrap(),
        DesignSpec::Unbounded,
        DesignSpec::Oracle,
    ])
}

fn session<'a>(workload: impl exp_harness::session::IntoWorkload) -> SimSession<'a> {
    let designs = all_designs();
    let mut s = SimSession::new(&designs[0], workload).run_config(RC);
    for d in &designs[1..] {
        s = s.design(d);
    }
    s
}

fn temp_path(file: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join(format!("samie-replay-{}", std::process::id()))
        .join(file)
}

#[test]
fn recorded_session_replays_bit_identically_for_every_design() {
    let path = temp_path("gzip.strc");
    let w = find_workload("gzip").unwrap();
    let live = session(&w).run();
    record_trace(&w, RC.seed, live.ops_consumed, &path).unwrap();
    assert!(live.ops_consumed > RC.instrs, "recording captured the run");

    // The file round-trips through the decoder...
    let rec = RecordedTrace::load(&path).unwrap();
    assert_eq!(rec.name(), "gzip");
    assert_eq!(rec.ops().len() as u64, live.ops_consumed);

    // ...and replaying it reproduces every design's stats bit for bit.
    let replay = session(Workload::replay_file(&path).unwrap()).run();
    assert_eq!(replay.runs.len(), live.runs.len());
    for (a, b) in live.runs.iter().zip(&replay.runs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.stats, b.stats, "{} diverged under replay", a.id);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn recorded_adversarial_workload_replays_bit_identically() {
    let path = temp_path("alias-storm.strc");
    let w = find_workload("alias-storm").unwrap();
    let live = session(&w).run();
    record_trace(&w, RC.seed, live.ops_consumed, &path).unwrap();
    let replay = session(Workload::replay_file(&path).unwrap()).run();
    for (a, b) in live.runs.iter().zip(&replay.runs) {
        assert_eq!(a.stats, b.stats, "{} diverged under replay", a.id);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn recording_regenerates_exactly_the_consumed_stream() {
    let path = temp_path("stream.strc");
    let w = find_workload("swim").unwrap();
    let report = SimSession::new(DesignSpec::samie_paper(), &w)
        .run_config(RC)
        .run();
    record_trace(&w, RC.seed, report.ops_consumed, &path).unwrap();
    let rec = RecordedTrace::load(&path).unwrap();
    // The recorded prefix is the generator's own stream, op for op.
    let mut fresh = w.build_trace(RC.seed);
    for (i, op) in rec.ops().iter().enumerate() {
        assert_eq!(*op, fresh.next_op(), "op {i} diverged");
    }
    assert_eq!(rec.ops().len() as u64, report.ops_consumed);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn recorded_rv_program_replays_bit_identically() {
    // Real-program traces go through the same capture/replay contract as
    // the synthetic generators: the recording regenerates the emulator's
    // retired-op stream, and replaying the file reproduces every
    // design's stats bit for bit (the oracle hook rides the live side).
    let path = temp_path("rv-sieve.strc");
    let w = find_workload("rv:sieve").unwrap();
    let live = session(&w).arch_oracle().run();
    record_trace(&w, RC.seed, live.ops_consumed, &path).unwrap();
    assert!(
        live.arch_oracle
            .as_ref()
            .is_some_and(|v| v.as_ref().is_ok_and(|s| s.starts_with("arch-oracle ok"))),
        "{:?}",
        live.arch_oracle
    );

    let rec = RecordedTrace::load(&path).unwrap();
    assert_eq!(rec.name(), "rv:sieve");
    assert_eq!(rec.ops().len() as u64, live.ops_consumed);

    let replay = session(Workload::replay_file(&path).unwrap()).run();
    for (a, b) in live.runs.iter().zip(&replay.runs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.stats, b.stats, "{} diverged under replay", a.id);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn rv_cache_id_tracks_program_bytes_not_names() {
    // The cache id is the program-content digest: renaming a program
    // must not invalidate stored points, editing one instruction must.
    let base = "main:\n  li a0, 5\n  addi a0, a0, 1\n  ecall\n";
    let edited = "main:\n  li a0, 5\n  addi a0, a0, 2\n  ecall\n";
    let a = Workload::rv_source("rv:a", "a.s", base).unwrap();
    let renamed = Workload::rv_source("rv:b", "elsewhere/b.s", base).unwrap();
    let b = Workload::rv_source("rv:a", "a.s", edited).unwrap();
    assert_eq!(
        a.cache_id(),
        renamed.cache_id(),
        "renames must not invalidate"
    );
    assert_ne!(a.cache_id(), b.cache_id(), "edits must invalidate");
    assert!(a.cache_id().starts_with("rv:"));

    // Whitespace and comments don't reach the image either.
    let cosmetic = "# cosmetic change\nmain:\n  li  a0, 5\n  addi a0, a0, 1\n  ecall\n";
    let c = Workload::rv_source("rv:a", "a.s", cosmetic).unwrap();
    assert_eq!(a.cache_id(), c.cache_id(), "comments must not invalidate");
}

#[test]
fn replay_traces_sweep_like_benchmarks() {
    let path = temp_path("sweepable.strc");
    let w = find_workload("gcc").unwrap();
    let recorded = session(&w).run();
    record_trace(&w, RC.seed, recorded.ops_consumed, &path).unwrap();

    // `@file.strc` resolves through the sweep grid's workload parser.
    let grid = SweepGrid::paper(
        [DesignSpec::samie_paper()],
        SweepGrid::parse_benchmarks(&format!("@{}", path.display())).unwrap(),
        RC,
    );
    let report = run_sweep(
        &grid,
        &SweepOptions {
            jobs: 1,
            ..Default::default()
        },
    );
    assert_eq!(report.points.len(), 1);
    assert_eq!(report.points[0].bench, "gcc", "replay keeps its name");

    // The swept replay matches the design's live run bit-for-bit where
    // comparable (cycles + ipc are the full fingerprint here).
    let live = session(find_workload("gcc").unwrap()).run();
    let samie_live = live.by_id("samie:64x2x8:sh8:ab64").unwrap();
    assert_eq!(report.points[0].cycles(), samie_live.stats.cycles);
    assert_eq!(report.points[0].ipc(), samie_live.stats.ipc());
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
