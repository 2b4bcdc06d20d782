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
    (stats, sim.skipped_cycles())
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

/// Long-latency stalls are where the skipper earns its keep: on a
/// pointer-chasing workload a meaningful share of simulated cycles must
/// be jumped, not stepped.
#[test]
fn skipper_covers_stall_cycles_on_memory_bound_work() {
    let workload = spec_traces::find_workload("mcf").unwrap();
    let (stats, skipped) = run(&DesignSpec::samie_paper(), &workload, true);
    assert!(
        skipped * 10 >= stats.cycles,
        "only {skipped} of {} cycles skipped on a memory-bound workload",
        stats.cycles
    );
}
