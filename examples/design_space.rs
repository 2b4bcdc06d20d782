//! SAMIE-LSQ design-space ablation (§3.5): sweep the DistribLSQ banking,
//! the slots-per-entry, and the SharedLSQ size around the paper's chosen
//! 64×2×8 + 8 configuration, and report IPC / deadlocks / energy for each
//! point — the study a designer would run before committing to Table 3.
//!
//! Every point is a [`DesignSpec`]; the points run as one [`run_sweep`]
//! grid, exactly like `samie-exp sweep`.
//!
//! ```sh
//! cargo run --release --example design_space [bench] [instrs]
//! ```

use exp_harness::runner::RunConfig;
use exp_harness::session::SimSession;
use exp_harness::sweep::{run_sweep, SweepGrid, SweepOptions};
use samie_lsq::{DesignSpec, FilteredLsq, SamieConfig};
use spec_traces::{by_name, Workload};

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "facerec".to_string());
    let instrs: u64 = args
        .next()
        .map(|s| s.parse().expect("instr count"))
        .unwrap_or(200_000);
    let spec = by_name(&bench).expect("unknown benchmark");
    let rc = RunConfig {
        instrs,
        warmup: instrs / 5,
        seed: 42,
    };

    let mut configs: Vec<(String, DesignSpec)> = Vec::new();
    // Banking sweep at fixed total DistribLSQ capacity (128 entries x 8).
    for (banks, epb) in [(16, 8), (32, 4), (64, 2), (128, 1)] {
        configs.push((
            format!("{banks}x{epb}x8 shared=8"),
            DesignSpec::Samie(SamieConfig {
                banks,
                entries_per_bank: epb,
                ..SamieConfig::paper()
            }),
        ));
    }
    // Slots-per-entry sweep (the §3.5 leakage/benefit trade-off).
    for slots in [2, 4, 8, 16] {
        configs.push((
            format!("64x2x{slots} shared=8"),
            DesignSpec::Samie(SamieConfig {
                slots_per_entry: slots,
                ..SamieConfig::paper()
            }),
        ));
    }
    // SharedLSQ sweep (Figure 4's design decision).
    for shared in [2, 4, 8, 16] {
        configs.push((
            format!("64x2x8 shared={shared}"),
            DesignSpec::Samie(SamieConfig {
                shared_entries: shared,
                ..SamieConfig::paper()
            }),
        ));
    }

    eprintln!("sweeping {} configurations on `{bench}`...", configs.len());
    let grid = SweepGrid::paper(
        configs.iter().map(|(_, design)| *design),
        vec![Workload::from(spec)],
        rc,
    );
    let report = run_sweep(&grid, &SweepOptions::default());

    println!(
        "{:>20} {:>7} {:>10} {:>10} {:>10} {:>9}",
        "configuration", "ipc", "deadlk/Mc", "wayknown%", "tlbskip%", "lsq_nJ"
    );
    for ((label, _), point) in configs.iter().zip(&report.points) {
        let st = &point.stats;
        let wk = st.l1d.way_known_accesses as f64 / st.l1d.accesses() as f64;
        let skip = 1.0 - st.dtlb_accesses as f64 / st.l1d.accesses() as f64;
        println!(
            "{:>20} {:>7.3} {:>10.1} {:>9.1}% {:>9.1}% {:>9.0}",
            label,
            st.ipc(),
            st.deadlocks_per_mcycle(),
            wk * 100.0,
            skip * 100.0,
            energy_model::price_lsq(&st.lsq).total(),
        );
    }
    println!("\n(the paper's Table 3 point is 64x2x8 shared=8)");

    // Related-work corner of the design space (§2): filtering accesses to
    // a conventional LSQ saves searches but keeps the big CAM. One
    // two-design session, identical traces; the filter rate is a
    // FilteredLsq-specific statistic read off the finished design.
    let mut filter_rate = 0.0;
    let report = SimSession::new(DesignSpec::conventional_paper(), spec)
        .design(DesignSpec::filtered_paper())
        .run_config(rc)
        .on_finish(|_, lsq| {
            if let Some(filt) = lsq.as_any().downcast_ref::<FilteredLsq>() {
                filter_rate = filt.filter_rate();
            }
        })
        .run();
    println!("\nrelated work (§2) on `{bench}`:");
    println!(
        "  conventional 128-entry CAM : {:>9.0} nJ",
        energy_model::price_lsq(&report.runs[0].stats.lsq).total()
    );
    println!(
        "  + counting Bloom filters   : {:>9.0} nJ  ({:.0}% of searches filtered)",
        energy_model::price_lsq(&report.runs[1].stats.lsq).total(),
        filter_rate * 100.0
    );
}
