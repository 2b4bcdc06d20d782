//! The redesign contract: every new entry point ([`DesignSpec::build`],
//! [`SimSession`], the paired grid, the sweep engine) produces
//! **bit-identical** [`SimStats`] to the pre-redesign path of driving
//! [`Simulator`] by hand with directly-constructed LSQs.
//!
//! These tests deliberately construct LSQs the old way (the only place
//! outside core unit tests that still may) — they are the fixed point the
//! new API is measured against.

use exp_harness::experiments::paired;
use exp_harness::runner::RunConfig;
use exp_harness::session::SimSession;
use exp_harness::sweep::{designs_from_specs, run_sweep, SweepGrid, SweepOptions};
use ooo_sim::{SimConfig, SimStats, Simulator};
use samie_lsq::{ConventionalLsq, DesignSpec, FilteredLsq, LoadStoreQueue, SamieLsq};
use spec_traces::{by_name, SpecTrace, Workload};

const RC: RunConfig = RunConfig {
    instrs: 15_000,
    warmup: 4_000,
    seed: 11,
};

/// The pre-redesign entry point: a hand-driven simulator around a
/// directly-constructed LSQ.
fn manual<L: LoadStoreQueue>(bench: &str, lsq: L) -> SimStats {
    let spec = by_name(bench).unwrap();
    let mut sim = Simulator::paper(lsq, SpecTrace::new(spec, RC.seed));
    sim.warm_up(RC.warmup);
    sim.run(RC.instrs)
}

#[test]
fn run_one_is_bit_identical_per_design_family() {
    let spec = by_name("gzip").unwrap();
    assert_eq!(
        SimSession::new(DesignSpec::conventional_paper(), spec)
            .run_config(RC)
            .run()
            .stats()
            .clone(),
        manual("gzip", ConventionalLsq::paper()),
        "conventional"
    );
    assert_eq!(
        SimSession::new(DesignSpec::samie_paper(), spec)
            .run_config(RC)
            .run()
            .stats()
            .clone(),
        manual("gzip", SamieLsq::paper()),
        "samie"
    );
    assert_eq!(
        SimSession::new(DesignSpec::filtered_paper(), spec)
            .run_config(RC)
            .run()
            .stats()
            .clone(),
        manual("gzip", FilteredLsq::paper()),
        "filtered"
    );
    assert_eq!(
        SimSession::new(DesignSpec::Unbounded, spec)
            .run_config(RC)
            .run()
            .stats()
            .clone(),
        manual("gzip", ConventionalLsq::unbounded()),
        "unbounded"
    );
}

#[test]
fn paired_grid_is_bit_identical_to_two_manual_runs() {
    for bench in ["swim", "ammp"] {
        let pr = paired::run_with(&RC, None, [Workload::from(by_name(bench).unwrap())]).remove(0);
        assert_eq!(pr.conv, manual(bench, ConventionalLsq::paper()), "{bench}");
        assert_eq!(pr.samie, manual(bench, SamieLsq::paper()), "{bench}");
    }
}

#[test]
fn session_comparison_equals_independent_sessions() {
    // An N-design comparison is exactly N single-design runs on the
    // identical trace — adding designs to a session never perturbs the
    // others.
    let spec = by_name("gcc").unwrap();
    let combined = SimSession::new(DesignSpec::conventional_paper(), spec)
        .design(DesignSpec::samie_paper())
        .design(DesignSpec::Oracle)
        .run_config(RC)
        .run();
    for run in &combined.runs {
        let alone = SimSession::new(run.id.parse::<DesignSpec>().unwrap(), spec)
            .run_config(RC)
            .run();
        assert_eq!(&alone.runs[0], run, "{}", run.id);
    }
}

#[test]
fn sweep_points_are_bit_identical_to_manual_runs() {
    let grid = SweepGrid {
        designs: designs_from_specs([
            DesignSpec::conventional_paper(),
            DesignSpec::samie_paper(),
            DesignSpec::filtered_paper(),
            DesignSpec::Unbounded,
        ]),
        benchmarks: SweepGrid::parse_benchmarks("gzip,swim").unwrap(),
        seeds: vec![RC.seed],
        rc: RC,
        cfg: SimConfig::paper(),
    };
    let report = run_sweep(
        &grid,
        &SweepOptions {
            jobs: 2,
            ..Default::default()
        },
    );
    assert_eq!(report.points.len(), 8);
    for p in &report.points {
        let stats = match p.design.as_str() {
            "conv:128" => manual(&p.bench, ConventionalLsq::paper()),
            "samie:64x2x8:sh8:ab64" => manual(&p.bench, SamieLsq::paper()),
            "unbounded" => manual(&p.bench, ConventionalLsq::unbounded()),
            filtered => {
                assert!(filtered.starts_with("filtered:"), "{filtered}");
                manual(&p.bench, FilteredLsq::paper())
            }
        };
        assert_eq!(p.stats, stats, "{} {}", p.design, p.bench);
        assert_eq!(
            p.instructions,
            RC.warmup + stats.committed,
            "{} {}",
            p.design,
            p.bench
        );
    }
}

#[test]
fn oracle_design_runs_whole_benchmarks_without_divergence() {
    // The oracle design self-checks every forwarding answer against the
    // executable specification; a full benchmark run is the strongest
    // pipeline-driven equivalence test in the suite.
    let stats = SimSession::new(DesignSpec::Oracle, by_name("vortex").unwrap())
        .run_config(RC)
        .run()
        .stats()
        .clone();
    assert!(stats.ipc() > 0.1);
    assert!(stats.forwarded_loads > 0, "forwarding paths were exercised");
    // And it answers exactly like the unbounded ideal design.
    assert_eq!(
        stats,
        SimSession::new(DesignSpec::Unbounded, by_name("vortex").unwrap())
            .run_config(RC)
            .run()
            .stats()
            .clone()
    );
}
