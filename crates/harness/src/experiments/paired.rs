//! Figures 5–12 and the §4/§5 headline summary.
//!
//! All eight artefacts derive from one pair of runs per benchmark
//! (conventional 128-entry LSQ vs SAMIE-LSQ on identical traces), so the
//! harness runs the suite once and slices the results.

use energy_model::{active_area, dcache_energy_nj, dtlb_energy_nj, price_lsq};
use ooo_sim::SimStats;
use samie_lsq::{DesignSpec, SamieConfig};
use spec_traces::Workload;

use crate::runner::{PairedRun, PointCache, RunConfig};
use crate::sweep::{run_sweep, SweepGrid, SweepOptions};
use crate::table::{fmt, Table};

/// Run the paired grid — the conventional baseline and SAMIE over
/// `benchmarks` — as one [`run_sweep`] (through `cache` when given) and
/// pair its points per benchmark, in benchmark order. Trace generation
/// is deterministic per `(workload, seed)`, so each design of a pair is
/// an independent point that hits the store on its own.
pub fn run_with(
    rc: &RunConfig,
    cache: Option<&PointCache>,
    benchmarks: impl IntoIterator<Item = Workload>,
) -> Vec<PairedRun> {
    let grid = SweepGrid::paper(
        [DesignSpec::conventional_paper(), DesignSpec::samie_paper()],
        benchmarks.into_iter().collect(),
        *rc,
    );
    let opts = SweepOptions {
        cache,
        ..Default::default()
    };
    // The grid expands design-major: every conventional point, then
    // every SAMIE point.
    let mut points = run_sweep(&grid, &opts).points;
    let samie = points.split_off(points.len() / 2);
    points
        .into_iter()
        .zip(samie)
        .map(|(c, s)| PairedRun {
            name: c.bench,
            conv: c.stats,
            samie: s.stats,
        })
        .collect()
}

/// Figure 5 — % IPC loss of SAMIE vs the conventional LSQ.
pub fn fig5_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 5 - % IPC loss of SAMIE-LSQ vs conventional",
        &["bench", "conv_ipc", "samie_ipc", "ipc_loss_%"],
    );
    let mut sum = 0.0;
    for r in runs {
        sum += r.ipc_loss();
        t.push_row(vec![
            r.name.clone(),
            fmt(r.conv.ipc(), 3),
            fmt(r.samie.ipc(), 3),
            fmt(r.ipc_loss() * 100.0, 2),
        ]);
    }
    t.push_row(vec![
        "SPEC".into(),
        String::new(),
        String::new(),
        fmt(sum / runs.len() as f64 * 100.0, 2),
    ]);
    t
}

/// Figure 6 — deadlock-avoidance flushes per million cycles.
pub fn fig6_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 6 - deadlock flushes per Mcycle (SAMIE)",
        &["bench", "deadlocks_per_mcycle", "nospace_per_mcycle"],
    );
    for r in runs {
        let ns = r.samie.nospace_flushes as f64 * 1e6 / r.samie.cycles.max(1) as f64;
        t.push_row(vec![
            r.name.clone(),
            fmt(r.samie.deadlocks_per_mcycle(), 1),
            fmt(ns, 1),
        ]);
    }
    t
}

/// A conventional-vs-SAMIE table of one per-run `metric`: a row per
/// benchmark plus a SPEC row of the suite sums, each closed by
/// `compare(conv, samie)` in percent.
fn versus_table(
    title: &str,
    headers: &[&str],
    runs: &[PairedRun],
    metric: impl Fn(&SimStats) -> f64,
    compare: fn(f64, f64) -> f64,
) -> Table {
    let mut t = Table::new(title, headers);
    let (mut csum, mut ssum) = (0.0, 0.0);
    let mut row = |name: String, c: f64, s: f64| {
        t.push_row(vec![name, fmt(c, 0), fmt(s, 0), fmt(compare(c, s), 1)]);
    };
    for r in runs {
        let (c, s) = (metric(&r.conv), metric(&r.samie));
        csum += c;
        ssum += s;
        row(r.name.clone(), c, s);
    }
    row("SPEC".into(), csum, ssum);
    t
}

/// Percent saved going from `conv` to `samie`.
fn saving(conv: f64, samie: f64) -> f64 {
    (1.0 - samie / conv) * 100.0
}

/// Figure 7 — LSQ dynamic energy (nJ), conventional vs SAMIE.
pub fn fig7_table(runs: &[PairedRun]) -> Table {
    versus_table(
        "Figure 7 - LSQ dynamic energy (nJ)",
        &["bench", "conventional_nj", "samie_nj", "saving_%"],
        runs,
        |st| price_lsq(&st.lsq).total(),
        saving,
    )
}

/// A per-benchmark table of SAMIE's breakdown `shares` (fractions,
/// shown in percent).
fn breakdown_table(
    title: &str,
    headers: &[&str],
    runs: &[PairedRun],
    shares: impl Fn(&SimStats) -> Vec<f64>,
) -> Table {
    let mut t = Table::new(title, headers);
    for r in runs {
        let mut row = vec![r.name.clone()];
        row.extend(shares(&r.samie).into_iter().map(|f| fmt(f * 100.0, 1)));
        t.push_row(row);
    }
    t
}

/// Figure 8 — SAMIE LSQ energy breakdown.
pub fn fig8_table(runs: &[PairedRun]) -> Table {
    breakdown_table(
        "Figure 8 - SAMIE energy breakdown (%)",
        &["bench", "distriblsq", "sharedlsq", "addrbuffer", "bus"],
        runs,
        |st| {
            let (d, s, a, b) = price_lsq(&st.lsq).breakdown_fractions();
            vec![d, s, a, b]
        },
    )
}

/// Figure 9 — L1 D-cache dynamic energy.
pub fn fig9_table(runs: &[PairedRun]) -> Table {
    versus_table(
        "Figure 9 - L1 D-cache dynamic energy (nJ)",
        &["bench", "conventional_nj", "samie_nj", "saving_%"],
        runs,
        |st| dcache_energy_nj(&st.l1d),
        saving,
    )
}

/// Figure 10 — D-TLB dynamic energy.
pub fn fig10_table(runs: &[PairedRun]) -> Table {
    versus_table(
        "Figure 10 - D-TLB dynamic energy (nJ)",
        &["bench", "conventional_nj", "samie_nj", "saving_%"],
        runs,
        |st| dtlb_energy_nj(st.dtlb_accesses),
        saving,
    )
}

/// Figure 11 — accumulated active LSQ area (µm²·cycles).
pub fn fig11_table(runs: &[PairedRun]) -> Table {
    let cfg = SamieConfig::paper();
    versus_table(
        "Figure 11 - accumulated active LSQ area (um2*cycles)",
        &["bench", "conventional", "samie", "samie_vs_conv_%"],
        runs,
        |st| active_area(&st.lsq, &cfg).total(),
        |conv, samie| samie / conv * 100.0,
    )
}

/// Figure 12 — SAMIE active-area breakdown.
pub fn fig12_table(runs: &[PairedRun]) -> Table {
    let cfg = SamieConfig::paper();
    breakdown_table(
        "Figure 12 - SAMIE active-area breakdown (%)",
        &["bench", "distriblsq", "sharedlsq", "addrbuffer"],
        runs,
        |st| {
            let (d, s, b) = active_area(&st.lsq, &cfg).breakdown_fractions();
            vec![d, s, b]
        },
    )
}

/// Headline numbers of the paper's abstract / §5, measured vs published.
pub fn summary_table(runs: &[PairedRun]) -> Table {
    let cfg = SamieConfig::paper();
    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&PairedRun) -> f64| runs.iter().map(f).sum::<f64>() / n;

    let ipc_loss = mean(&|r| r.ipc_loss());
    let lsq_saving =
        mean(&|r| 1.0 - price_lsq(&r.samie.lsq).total() / price_lsq(&r.conv.lsq).total());
    let dcache_saving =
        mean(&|r| 1.0 - dcache_energy_nj(&r.samie.l1d) / dcache_energy_nj(&r.conv.l1d));
    let dtlb_saving = mean(&|r| {
        1.0 - dtlb_energy_nj(r.samie.dtlb_accesses) / dtlb_energy_nj(r.conv.dtlb_accesses)
    });
    let area_ratio =
        mean(&|r| active_area(&r.samie.lsq, &cfg).total() / active_area(&r.conv.lsq, &cfg).total());

    let mut t = Table::new(
        "Summary - headline results (measured vs paper)",
        &["metric", "measured", "paper"],
    );
    for (metric, measured, digits, paper) in [
        ("LSQ dynamic energy saving", lsq_saving, 1, "82%"),
        ("L1 D-cache energy saving", dcache_saving, 1, "42%"),
        ("D-TLB energy saving", dtlb_saving, 1, "73%"),
        ("IPC loss", ipc_loss, 2, "0.6%"),
        (
            "SAMIE active area vs conventional",
            area_ratio,
            1,
            "~95% (5% smaller)",
        ),
    ] {
        t.push_row(vec![
            metric.into(),
            fmt(measured * 100.0, digits) + "%",
            paper.into(),
        ]);
    }
    t
}
