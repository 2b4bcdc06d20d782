//! Integration tests: full pipeline × every workload × every LSQ design,
//! all constructed through the [`DesignSpec`] front door.

use exp_harness::runner::RunConfig;
use exp_harness::session::SimSession;
use ooo_sim::{SimStats, Simulator};
use samie_lsq::{DesignSpec, FilteredLsq};
use spec_traces::{all_benchmarks, by_name, SpecTrace};

const INSTRS: u64 = 25_000;
const RC: RunConfig = RunConfig {
    instrs: INSTRS,
    warmup: 0,
    seed: 7,
};

fn run(bench: &str, design: DesignSpec) -> SimStats {
    SimSession::new(design, by_name(bench).expect("benchmark"))
        .run_config(RC)
        .run()
        .stats()
        .clone()
}

#[test]
fn every_benchmark_runs_under_every_lsq() {
    for spec in all_benchmarks() {
        for which in 0..5 {
            let stats = match which {
                0 => run(spec.name, DesignSpec::conventional_paper()),
                1 => run(spec.name, DesignSpec::samie_paper()),
                2 => run(spec.name, DesignSpec::Unbounded),
                3 => run(spec.name, DesignSpec::filtered_paper()),
                _ => run(spec.name, "arb:64x2".parse().unwrap()),
            };
            assert!(
                stats.committed >= INSTRS,
                "{}/{which}: too few commits",
                spec.name
            );
            assert!(
                stats.ipc() > 0.02,
                "{}/{which}: ipc {}",
                spec.name,
                stats.ipc()
            );
            assert!(
                stats.ipc() < 8.0,
                "{}/{which}: ipc {}",
                spec.name,
                stats.ipc()
            );
            assert!(
                stats.loads + stats.stores > 0,
                "{}/{which}: no memory ops committed",
                spec.name
            );
        }
    }
}

#[test]
fn identical_traces_commit_identical_mixes() {
    for bench in ["gcc", "swim", "mcf"] {
        let a = run(bench, DesignSpec::conventional_paper());
        let b = run(bench, DesignSpec::samie_paper());
        // Both commit the same dynamic instruction stream (up to the final
        // commit-group overshoot and deadlock replays).
        assert!(
            a.loads.abs_diff(b.loads) < 64,
            "{bench}: {} vs {}",
            a.loads,
            b.loads
        );
        assert!(a.stores.abs_diff(b.stores) < 64, "{bench}");
        assert!(a.branches.abs_diff(b.branches) < 64, "{bench}");
    }
}

#[test]
fn simulation_is_deterministic() {
    for bench in ["gzip", "ammp"] {
        let a = run(bench, DesignSpec::samie_paper());
        let b = run(bench, DesignSpec::samie_paper());
        assert_eq!(a.cycles, b.cycles, "{bench}");
        assert_eq!(a.l1d.accesses(), b.l1d.accesses(), "{bench}");
        assert_eq!(a.deadlock_flushes, b.deadlock_flushes, "{bench}");
        assert_eq!(a.lsq.bus_sends, b.lsq.bus_sends, "{bench}");
    }
}

#[test]
fn unbounded_lsq_is_an_upper_bound() {
    // The ideal LSQ can never be slower than the bounded designs on the
    // same trace (beyond a small noise margin from commit-group effects).
    for bench in ["gcc", "facerec", "swim"] {
        let ideal = run(bench, DesignSpec::Unbounded).ipc();
        let conv = run(bench, DesignSpec::conventional_paper()).ipc();
        let samie = run(bench, DesignSpec::samie_paper()).ipc();
        assert!(
            ideal >= conv * 0.995,
            "{bench}: ideal {ideal} < conventional {conv}"
        );
        assert!(
            ideal >= samie * 0.995,
            "{bench}: ideal {ideal} < samie {samie}"
        );
    }
}

#[test]
fn samie_only_accesses_dtlb_when_translation_not_cached() {
    for spec in all_benchmarks().iter().take(8) {
        let stats = run(spec.name, DesignSpec::samie_paper());
        assert!(
            stats.dtlb_accesses <= stats.l1d.accesses(),
            "{}: more D-TLB lookups than data accesses",
            spec.name
        );
        // The whole point of §3.4: some lookups must be skipped.
        assert!(
            stats.dtlb_accesses < stats.l1d.accesses(),
            "{}: no translation reuse at all",
            spec.name
        );
    }
}

#[test]
fn conventional_never_deadlocks() {
    for bench in ["ammp", "mgrid", "apsi"] {
        let stats = run(bench, DesignSpec::conventional_paper());
        assert_eq!(stats.deadlock_flushes, 0, "{bench}");
        assert_eq!(stats.nospace_flushes, 0, "{bench}");
        // And it performs no way-known accesses (no location cache).
        assert_eq!(stats.l1d.way_known_accesses, 0, "{bench}");
    }
}

#[test]
fn forwarded_loads_skip_the_cache_in_both_designs() {
    for bench in ["gcc", "vortex"] {
        for samie in [false, true] {
            let stats = if samie {
                run(bench, DesignSpec::samie_paper())
            } else {
                run(bench, DesignSpec::conventional_paper())
            };
            assert!(stats.forwarded_loads > 0, "{bench}/{samie}: no forwarding");
            // Reads from the D-cache plus forwards cover all loads.
            assert!(
                stats.l1d.read_accesses + stats.forwarded_loads >= stats.loads,
                "{bench}/{samie}: loads unaccounted"
            );
        }
    }
}

#[test]
fn bloom_filter_saves_cam_searches_without_changing_timing() {
    for bench in ["gcc", "swim"] {
        let plain = run(bench, DesignSpec::conventional_paper());
        let spec = by_name(bench).unwrap();
        let mut rate = 0.0;
        let report = SimSession::new(DesignSpec::filtered_paper(), spec)
            .run_config(RC)
            .on_finish(|_, lsq| {
                rate = lsq
                    .as_any()
                    .downcast_ref::<FilteredLsq>()
                    .expect("filtered design")
                    .filter_rate();
            })
            .run();
        let filtered = report.stats();
        // Identical timing (the filter is off the critical path)...
        assert_eq!(plain.cycles, filtered.cycles, "{bench}");
        // ...with strictly fewer CAM searches charged.
        assert!(
            filtered.lsq.conv_addr.cmp_ops < plain.lsq.conv_addr.cmp_ops,
            "{bench}: filter saved nothing"
        );
        assert!(rate > 0.1, "{bench}: filter rate {rate}");
    }
}

#[test]
fn warmup_then_measure_protocol() {
    let spec = by_name("equake").unwrap();
    let mut sim = Simulator::paper(DesignSpec::samie_paper().build(), SpecTrace::new(spec, 7));
    sim.warm_up(10_000);
    let cold_misses = sim.mem().l1d().stats().misses();
    assert_eq!(cold_misses, 0, "warm-up must reset statistics");
    let stats = sim.run(INSTRS);
    // A warmed cache: the measured miss ratio is well below the cold one.
    assert!(stats.l1d.miss_ratio() < 0.5);
    assert!((INSTRS..INSTRS + 8).contains(&stats.committed));
}
