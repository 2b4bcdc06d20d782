//! Figures 3 and 4 — the §3.5 SharedLSQ sizing study.
//!
//! Figure 3: mean occupancy of an *unbounded* SharedLSQ per benchmark,
//! for DistribLSQ geometries 128×1, 64×2 and 32×4 (8 slots per entry).
//! The paper picks 64×2 because its SharedLSQ needs are barely above
//! 32×4's while the banks stay small.
//!
//! Figure 4: for the 64×2 geometry, the number of programs whose
//! SharedLSQ demand stays within N entries during 99 % of cycles, for
//! N = 0, 4, 8, … 60 — the curve that justifies the 8-entry SharedLSQ.

use ooo_sim::SimConfig;
use samie_lsq::{DesignSpec, LoadStoreQueue, SamieConfig, SamieLsq};
use spec_traces::{Workload, WorkloadSpec};

use crate::runner::{parallel_map_with, run_point, PointCache, RunConfig};
use crate::table::{fmt, Table};

/// The DistribLSQ geometries of Figure 3.
pub const CONFIGS: [(usize, usize); 3] = [(128, 1), (64, 2), (32, 4)];

/// Per-benchmark sizing statistics for one geometry.
#[derive(Debug, Clone)]
pub struct SizingRun {
    /// Benchmark name.
    pub name: &'static str,
    /// DistribLSQ banks.
    pub banks: usize,
    /// Entries per bank.
    pub entries_per_bank: usize,
    /// Mean in-use SharedLSQ entries (Figure 3's bar).
    pub mean_shared: f64,
    /// 99th-percentile SharedLSQ occupancy (Figure 4's statistic).
    pub p99_shared: usize,
}

/// The extras name under which the sizing study caches the occupancy
/// quantile (it lives in SAMIE's histogram, not in `SimStats`).
const P99_EXTRA: &str = "p99_shared";

fn run_sizing(
    spec: &WorkloadSpec,
    banks: usize,
    epb: usize,
    rc: &RunConfig,
    cache: Option<&PointCache>,
) -> SizingRun {
    let design = DesignSpec::Samie(SamieConfig::sizing_study(banks, epb));
    // The p99 statistic lives in SAMIE's occupancy histogram, not in
    // SimStats: read it off the finished design (or the cached extras).
    let probe = |lsq: &dyn LoadStoreQueue| {
        let samie = lsq
            .as_any()
            .downcast_ref::<SamieLsq>()
            .expect("sizing study runs SAMIE designs");
        vec![(
            P99_EXTRA.to_string(),
            samie.shared_entries_for_quantile(0.99) as u64,
        )]
    };
    let (point, _) = run_point(
        cache,
        design,
        &Workload::from(*spec),
        rc,
        SimConfig::paper(),
        &[P99_EXTRA],
        probe,
    );
    let p99_shared = point
        .extras
        .iter()
        .find(|(n, _)| n == P99_EXTRA)
        .map(|&(_, v)| v as usize)
        .expect("probe (or cache) supplies the quantile");
    SizingRun {
        name: spec.name,
        banks,
        entries_per_bank: epb,
        mean_shared: point.stats.lsq.occupancy.mean_shared_entries(),
        p99_shared,
    }
}

/// Run the sizing study over `suite` (through `cache` when given): for
/// each geometry, one run per benchmark, every point on every core.
pub fn run_with(
    rc: &RunConfig,
    cache: Option<&PointCache>,
    suite: &[WorkloadSpec],
) -> Vec<SizingRun> {
    let mut jobs: Vec<(&WorkloadSpec, usize, usize)> = Vec::new();
    for &(banks, epb) in &CONFIGS {
        for spec in suite {
            jobs.push((spec, banks, epb));
        }
    }
    parallel_map_with(0, &jobs, |&(spec, banks, epb)| {
        run_sizing(spec, banks, epb, rc, cache)
    })
}

/// Figure 3 table: one row per benchmark, one column per geometry, plus
/// the suite average (the paper's "SPEC" bar).
pub fn fig3_table(runs: &[SizingRun]) -> Table {
    let mut t = Table::new(
        "Figure 3 - mean unbounded-SharedLSQ occupancy",
        &["bench", "128x1", "64x2", "32x4"],
    );
    let mut sums = [0.0f64; 3];
    let mut names: Vec<&'static str> = Vec::new();
    for r in runs {
        if !names.contains(&r.name) {
            names.push(r.name);
        }
    }
    for name in &names {
        let mut row = vec![name.to_string()];
        for (i, &(banks, epb)) in CONFIGS.iter().enumerate() {
            let v = runs
                .iter()
                .find(|r| r.name == *name && r.banks == banks && r.entries_per_bank == epb)
                .map(|r| r.mean_shared)
                .unwrap_or(0.0);
            sums[i] += v;
            row.push(fmt(v, 2));
        }
        t.push_row(row);
    }
    let n = names.len() as f64;
    let spec = sums.iter().map(|s| fmt(s / n, 2));
    t.push_row(std::iter::once("SPEC".into()).chain(spec).collect());
    t
}

/// Figure 4 table: cumulative number of programs satisfied by N SharedLSQ
/// entries (64×2 geometry, 99 % of cycles).
pub fn fig4_table(runs: &[SizingRun]) -> Table {
    let p99: Vec<usize> = runs
        .iter()
        .filter(|r| r.banks == 64 && r.entries_per_bank == 2)
        .map(|r| r.p99_shared)
        .collect();
    let mut t = Table::new(
        "Figure 4 - programs satisfied vs SharedLSQ entries (64x2, p99)",
        &["shared_entries", "programs_satisfied"],
    );
    for n in (0..=60).step_by(4) {
        let satisfied = p99.iter().filter(|&&need| need <= n).count();
        t.push_row(vec![n.to_string(), satisfied.to_string()]);
    }
    t
}
