//! Figure 1 — ARB IPC relative to an unbounded LSQ.
//!
//! The paper's motivation study: Franklin & Sohi's ARB distributed over
//! `banks × addresses-per-bank`, from fully associative (1×128) to fully
//! banked (128×1), plus the "half the in-flight memory instructions"
//! variant. Each point is the suite-average IPC normalised to the same
//! trace under an unbounded LSQ. The paper's headline: 64×2 loses ~28 %.

use samie_lsq::{ArbConfig, DesignSpec};
use spec_traces::{Workload, WorkloadSpec};

use crate::runner::{PointCache, RunConfig};
use crate::sweep::{run_sweep, SweepGrid, SweepOptions, SweepPoint};
use crate::table::{fmt, Table};

/// The banking sweep of Figure 1 (banks, addresses per bank).
pub const CONFIGS: [(usize, usize); 8] = [
    (1, 128),
    (2, 64),
    (4, 32),
    (8, 16),
    (16, 8),
    (32, 4),
    (64, 2),
    (128, 1),
];

/// One point of Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Banks × addresses label, e.g. "64x2".
    pub label: String,
    /// Suite-average IPC as a fraction of the unbounded-LSQ IPC, with the
    /// normal (128) in-flight cap.
    pub normal: f64,
    /// Same with the halved (64) cap.
    pub half: f64,
}

/// Run the Figure 1 sweep over `suite` as one [`run_sweep`] grid (through
/// `cache` when given): the unbounded reference, then normal/half ARB per
/// banking configuration, every point on every core.
pub fn run_with(
    rc: &RunConfig,
    cache: Option<&PointCache>,
    suite: &[WorkloadSpec],
) -> Vec<Fig1Point> {
    let mut designs = vec![DesignSpec::Unbounded];
    for &(banks, rows) in &CONFIGS {
        let cfg = ArbConfig::fig1(banks, rows);
        designs.push(DesignSpec::Arb(cfg));
        designs.push(DesignSpec::Arb(cfg.half_inflight()));
    }
    let grid = SweepGrid::paper(
        designs,
        suite.iter().map(|s| Workload::from(*s)).collect(),
        *rc,
    );
    let report = run_sweep(
        &grid,
        &SweepOptions {
            cache,
            ..Default::default()
        },
    );
    let ipcs: Vec<f64> = report.points.iter().map(SweepPoint::ipc).collect();

    let n = suite.len();
    let per_design = |i: usize| &ipcs[i * n..(i + 1) * n];
    let reference = per_design(0);
    let avg = |v: &[f64]| -> f64 {
        v.iter().zip(reference).map(|(i, r)| i / r).sum::<f64>() / v.len() as f64
    };
    CONFIGS
        .iter()
        .enumerate()
        .map(|(c, &(banks, rows))| Fig1Point {
            label: format!("{banks}x{rows}"),
            normal: avg(per_design(1 + 2 * c)),
            half: avg(per_design(2 + 2 * c)),
        })
        .collect()
}

/// Render as the paper's figure data.
pub fn table(points: &[Fig1Point]) -> Table {
    let mut t = Table::new(
        "Figure 1 - ARB IPC relative to unbounded LSQ",
        &["banks_x_addresses", "normal_%ipc", "half_inflight_%ipc"],
    );
    for p in points {
        t.push_row(vec![
            p.label.clone(),
            fmt(p.normal * 100.0, 1),
            fmt(p.half * 100.0, 1),
        ]);
    }
    t
}
