//! Trace capture & replay: record the trace a session consumes to a
//! compact `.strc` file, replay it bit-identically, and show the
//! adversarial workload pack next to a calibrated benchmark.
//!
//! ```sh
//! cargo run --release --example record_replay [workload] [instrs]
//! ```
//!
//! Try `alias-storm`, `pointer-chase` or `adversarial-mix` as the
//! workload to see the attack generators; any SPEC name works too.

use exp_harness::runner::RunConfig;
use exp_harness::session::{record_trace, SimSession};
use samie_lsq::DesignSpec;
use spec_traces::{find_workload, workload_names, Workload};
use trace_isa::strc::RecordedTrace;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "alias-storm".to_string());
    let instrs: u64 = args
        .next()
        .map(|s| s.parse().expect("instruction count"))
        .unwrap_or(100_000);

    let workload = find_workload(&name).unwrap_or_else(|err| {
        eprintln!(
            "{err}\nregistered workloads: {}",
            workload_names().join(" ")
        );
        std::process::exit(2);
    });
    let rc = RunConfig {
        instrs,
        warmup: instrs / 5,
        seed: 42,
    };
    let path = std::path::PathBuf::from("results").join(format!("{}-s{}.strc", name, rc.seed));

    println!("recording `{name}` ({instrs} instrs) under conventional vs SAMIE...");
    let live = SimSession::new(DesignSpec::conventional_paper(), &workload)
        .design(DesignSpec::samie_paper())
        .run_config(rc)
        .run();
    record_trace(&workload, rc.seed, live.ops_consumed, &path).expect("trace records");
    for run in &live.runs {
        println!("  {:<28} ipc {:.4}", run.id, run.stats.ipc());
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "captured {} ops -> {} ({} bytes, {:.2} B/op)",
        live.ops_consumed,
        path.display(),
        bytes,
        bytes as f64 / live.ops_consumed.max(1) as f64
    );

    let rec = RecordedTrace::load(&path).expect("recorded trace loads");
    println!("replaying {} (`{}`)...", path.display(), rec.name());
    let replay = SimSession::new(
        DesignSpec::conventional_paper(),
        Workload::from_recorded(rec),
    )
    .design(DesignSpec::samie_paper())
    .run_config(rc)
    .run();
    let mut identical = true;
    for (a, b) in live.runs.iter().zip(&replay.runs) {
        let same = a.stats == b.stats;
        identical &= same;
        println!(
            "  {:<28} ipc {:.4}  [{}]",
            b.id,
            b.stats.ipc(),
            if same { "bit-identical" } else { "DIVERGED" }
        );
    }
    assert!(identical, "replay must reproduce the recorded session");
    println!("replay reproduced every design's statistics bit for bit.");
    println!(
        "\nsweep it like a benchmark:  samie-exp sweep --bench @{}",
        path.display()
    );
}
