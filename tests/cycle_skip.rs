//! Event-driven cycle skipping is a pure host-speed optimization: the
//! simulator must produce **bit-identical** [`SimStats`] — cycle count,
//! commit mix, cache counters, flush counters and the entire LSQ
//! activity ledger — with the skipper on (the default) or off, for every
//! design family on every catalog workload. The only observable
//! difference is [`Simulator::skipped_cycles`], which never enters the
//! stats.

use ooo_sim::{SimStats, Simulator};
use samie_lsq::DesignSpec;
use spec_traces::{all_workloads, Workload};

fn run(design: &DesignSpec, workload: &Workload, skip: bool) -> (SimStats, u64) {
    let mut sim = Simulator::paper(design.build(), workload.build_trace(5));
    sim.set_cycle_skipping(skip);
    sim.warm_up(600);
    let stats = sim.run(2_500);
    let skipped = sim.skipped_cycles();
    assert!(
        skipped <= stats.cycles,
        "{design} on {}: skipped {skipped} > cycles",
        workload.name()
    );
    (stats, skipped)
}

/// The full 6-family × catalog matrix (26 calibrated benchmarks plus the
/// adversarial pack), with two more ARB geometries, skip on vs skip off.
#[test]
fn skipping_is_bit_invisible_across_the_design_workload_matrix() {
    let designs: Vec<DesignSpec> = vec![
        DesignSpec::conventional_paper(),
        DesignSpec::filtered_paper(),
        DesignSpec::samie_paper(),
        "arb".parse().unwrap(),
        DesignSpec::Unbounded,
        DesignSpec::Oracle,
        // Figure 1's extreme geometries: one fully associative bank, and
        // direct-mapped banks that keep the ARB retry queue busy.
        "arb:1x128:if128".parse().unwrap(),
        "arb:128x1:if64".parse().unwrap(),
    ];
    let mut total_skipped = 0;
    for workload in all_workloads() {
        for design in &designs {
            let (on, skipped) = run(design, &workload, true);
            let (off, off_skipped) = run(design, &workload, false);
            assert_eq!(off_skipped, 0, "skipper fired while disabled");
            assert_eq!(
                on,
                off,
                "stats diverge with skipping on: {} on {}",
                design,
                workload.name()
            );
            total_skipped += skipped;
        }
    }
    assert!(
        total_skipped > 0,
        "the skipper never fired across the whole matrix — dead feature"
    );
}

/// Long-latency stalls are where the skipper earns its keep: on
/// memory-bound work (ROB and fetch window full behind a miss, the fetch
/// resume cycle long past) a large share of measured cycles must be jumped.
#[test]
fn skipper_covers_stall_cycles_on_memory_bound_work() {
    let conv = DesignSpec::conventional_paper();
    let samie = DesignSpec::samie_paper();
    for (design, workload, min_percent) in [
        (&samie, "mcf", 10),
        (&samie, "pointer-chase", 50),
        (&conv, "pointer-chase", 50),
        (&conv, "alias-storm", 50),
    ] {
        let workload = spec_traces::find_workload(workload).unwrap();
        let (stats, skipped) = run(design, &workload, true);
        assert!(
            skipped * 100 >= stats.cycles * min_percent,
            "only {skipped} of {} cycles skipped: {design} on {}",
            stats.cycles,
            workload.name()
        );
    }
}
