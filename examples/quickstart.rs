//! Quickstart: simulate one benchmark under the SAMIE-LSQ and print the
//! headline statistics — through the [`SimSession`] front door.
//!
//! ```sh
//! cargo run --release --example quickstart [benchmark] [instructions]
//! ```

use exp_harness::runner::RunConfig;
use exp_harness::session::{SessionEvent, SimSession};
use samie_lsq::{DesignSpec, LsqOccupancy};
use spec_traces::by_name;

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "gcc".to_string());
    let instrs: u64 = args
        .next()
        .map(|s| s.parse().expect("instruction count"))
        .unwrap_or(500_000);

    let spec = by_name(&bench).unwrap_or_else(|err| {
        eprintln!("{err}; available:");
        for s in spec_traces::all_benchmarks() {
            eprint!(" {}", s.name);
        }
        eprintln!();
        std::process::exit(2);
    });

    println!("simulating {instrs} instructions of `{bench}` on the paper's 8-wide core...");
    let mut occ = LsqOccupancy::default();
    let report = SimSession::new(DesignSpec::samie_paper(), spec)
        .run_config(RunConfig {
            instrs,
            warmup: instrs / 5,
            seed: 42,
        })
        .progress_every((instrs / 20).max(1))
        .observer(|e| match e {
            SessionEvent::Progress {
                committed, target, ..
            } => eprint!("\r  {committed}/{target} instructions"),
            SessionEvent::DesignFinished { lsq, .. } => {
                eprintln!();
                occ = lsq.occupancy();
            }
            _ => {}
        })
        .run();
    let stats = report.stats();

    println!("\n== pipeline ==");
    println!("IPC                    {:.3}", stats.ipc());
    println!(
        "branch mispredict      {:.2}%",
        stats.mispredict_ratio() * 100.0
    );
    println!("deadlock flushes/Mcyc  {:.1}", stats.deadlocks_per_mcycle());
    println!(
        "store->load forwards   {:.1}% of loads",
        stats.forwarded_loads as f64 / stats.loads as f64 * 100.0
    );

    println!("\n== SAMIE-LSQ effects ==");
    let wk = stats.l1d.way_known_accesses as f64 / stats.l1d.accesses() as f64;
    println!(
        "way-known D$ accesses  {:.1}%  (single way, no tag check)",
        wk * 100.0
    );
    let skip = 1.0 - stats.dtlb_accesses as f64 / stats.l1d.accesses() as f64;
    println!(
        "D-TLB lookups skipped  {:.1}%  (translation cached in LSQ entries)",
        skip * 100.0
    );
    println!(
        "L1D miss ratio         {:.1}%",
        stats.l1d.miss_ratio() * 100.0
    );

    println!("\n== energy (CACTI constants, Tables 4-5) ==");
    let lsq_e = energy_model::price_lsq(&stats.lsq);
    println!(
        "LSQ energy             {:.0} nJ  (dist {:.0} / shared {:.0} / abuf {:.0} / bus {:.0})",
        lsq_e.total(),
        lsq_e.dist,
        lsq_e.shared,
        lsq_e.abuf,
        lsq_e.bus
    );
    println!(
        "L1 D-cache energy      {:.0} nJ",
        energy_model::dcache_energy_nj(&stats.l1d)
    );
    println!(
        "D-TLB energy           {:.0} nJ",
        energy_model::dtlb_energy_nj(stats.dtlb_accesses)
    );

    println!(
        "\nfinal LSQ occupancy: {} DistribLSQ slots in {} entries, {} SharedLSQ slots, {} buffered",
        occ.dist_slots, occ.dist_entries, occ.shared_slots, occ.addr_buffer
    );
}
