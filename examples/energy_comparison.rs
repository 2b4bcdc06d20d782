//! Head-to-head energy comparison: conventional 128-entry LSQ vs
//! SAMIE-LSQ on identical traces — the experiment behind the paper's
//! abstract (82 % LSQ / 42 % D-cache / 73 % D-TLB savings at 0.6 % IPC
//! loss).
//!
//! ```sh
//! cargo run --release --example energy_comparison [instrs] [bench,bench,...]
//! ```

use exp_harness::experiments::paired;
use exp_harness::runner::RunConfig;
use spec_traces::{all_benchmarks, Workload, WorkloadSpec};

fn main() {
    let mut args = std::env::args().skip(1);
    let instrs: u64 = args
        .next()
        .map(|s| s.parse().expect("instr count"))
        .unwrap_or(200_000);
    let picks: Option<Vec<String>> = args
        .next()
        .map(|s| s.split(',').map(str::to_string).collect());

    let specs: Vec<&'static WorkloadSpec> = all_benchmarks()
        .iter()
        .filter(|s| picks.as_ref().is_none_or(|p| p.iter().any(|n| n == s.name)))
        .collect();
    assert!(!specs.is_empty(), "no benchmarks selected");

    let rc = RunConfig {
        instrs,
        warmup: instrs / 5,
        seed: 42,
    };
    eprintln!(
        "running {} benchmark(s) x 2 LSQ designs x {instrs} instructions...",
        specs.len()
    );
    let runs = paired::run_with(&rc, None, specs.iter().copied().map(Workload::from));

    println!(
        "{:>9}  {:>9} {:>9} {:>7}   {:>9} {:>9} {:>7}   {:>8} {:>8} {:>7}",
        "bench",
        "lsq_conv",
        "lsq_samie",
        "save",
        "d$_conv",
        "d$_samie",
        "save",
        "ipc_conv",
        "ipc_sam",
        "loss"
    );
    let (mut lc, mut ls, mut dc, mut ds, mut tl) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in &runs {
        let conv = energy_model::price_lsq(&r.conv.lsq).total();
        let samie = energy_model::price_lsq(&r.samie.lsq).total();
        let dcache_c = energy_model::dcache_energy_nj(&r.conv.l1d);
        let dcache_s = energy_model::dcache_energy_nj(&r.samie.l1d);
        lc += conv;
        ls += samie;
        dc += dcache_c;
        ds += dcache_s;
        tl += r.ipc_loss();
        println!(
            "{:>9}  {:>8.0}n {:>8.0}n {:>6.1}%   {:>8.0}n {:>8.0}n {:>6.1}%   {:>8.3} {:>8.3} {:>6.2}%",
            r.name,
            conv,
            samie,
            (1.0 - samie / conv) * 100.0,
            dcache_c,
            dcache_s,
            (1.0 - dcache_s / dcache_c) * 100.0,
            r.conv.ipc(),
            r.samie.ipc(),
            r.ipc_loss() * 100.0,
        );
    }
    println!(
        "\nsuite: LSQ energy saved {:.1}%, D-cache energy saved {:.1}%, mean IPC loss {:.2}%",
        (1.0 - ls / lc) * 100.0,
        (1.0 - ds / dc) * 100.0,
        tl / runs.len() as f64 * 100.0
    );
    println!("paper:                  82%                        42%                 0.6%");
}
