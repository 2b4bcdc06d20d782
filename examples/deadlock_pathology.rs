//! The §3.3 deadlock-avoidance mechanism in action.
//!
//! Runs the suite's pathological benchmark (`ammp`) and narrates what the
//! SAMIE-LSQ structures are doing — SharedLSQ filling, ops parking in the
//! AddrBuffer, the ROB-head deadlock flush firing — through the
//! [`SimSession`] streaming observer, then shows that a well-behaved
//! benchmark (`gzip`) never triggers any of it.
//!
//! ```sh
//! cargo run --release --example deadlock_pathology
//! ```

use exp_harness::runner::RunConfig;
use exp_harness::session::{SessionEvent, SimSession};
use samie_lsq::DesignSpec;
use spec_traces::by_name;

fn narrate(bench: &str, instrs: u64) {
    println!("--- {bench} ---");
    let spec = by_name(bench).expect("benchmark");

    let chunks = 20u64;
    let mut last_flushes = 0;
    let mut max_shared = 0;
    let mut max_abuf = 0;
    let mut abuf_busy = 0u64;
    let mut chunk = 0u64;
    let report = SimSession::new(DesignSpec::samie_paper(), spec)
        .run_config(RunConfig {
            instrs,
            warmup: instrs / 5,
            seed: 42,
        })
        .progress_every(instrs / chunks)
        .observer(|e| {
            let SessionEvent::Progress { stats, lsq, .. } = e else {
                return;
            };
            chunk += 1;
            let occ = lsq.occupancy();
            max_shared = max_shared.max(occ.shared_entries);
            max_abuf = max_abuf.max(occ.addr_buffer);
            if occ.addr_buffer > 0 {
                abuf_busy += 1;
            }
            let flushes = stats.deadlock_flushes + stats.nospace_flushes;
            if flushes > last_flushes {
                println!(
                    "  [{chunk:>2}/{chunks}] {} deadlock flush(es); SharedLSQ {}/8, AddrBuffer {} waiting",
                    flushes - last_flushes,
                    occ.shared_entries,
                    occ.addr_buffer
                );
                last_flushes = flushes;
            }
        })
        .run();
    let st = report.stats();
    println!(
        "  total: {} deadlock + {} no-space flushes over {} cycles ({:.1}/Mcycle)",
        st.deadlock_flushes,
        st.nospace_flushes,
        st.cycles,
        st.deadlocks_per_mcycle()
    );
    println!(
        "  peaks: SharedLSQ {max_shared}/8 entries, AddrBuffer {max_abuf}/64 slots \
         (buffer busy in {abuf_busy}/{chunks} samples)"
    );
    println!("  IPC {:.3}\n", st.ipc());
}

fn main() {
    println!("SAMIE-LSQ §3.3: when the ROB-head memory op is stuck in the AddrBuffer,");
    println!("only a pipeline flush can free the entries its younger neighbours hold.\n");
    narrate("ammp", 400_000);
    narrate("gzip", 400_000);
    println!(
        "ammp's skewed conflict phases overflow its banks; gzip never needs the escape hatch."
    );
}
