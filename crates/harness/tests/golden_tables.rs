//! Golden checks for the harness's deterministic table outputs.
//!
//! The Table 1 / §3.6 / Table 6 generators are pure arithmetic over the
//! CACTI-lite model and the paper's published constants — no simulation —
//! so their CSV output is byte-stable and can be pinned exactly. A harness
//! regression (renamed column, reordered row, changed rounding, drifted
//! model constant) fails here in milliseconds, without any timing
//! simulation.
//!
//! The expected outputs live as CSV files under `tests/golden/` (the
//! checked-in goldens; regenerated `results/` output is never
//! committed — see `docs/REPRODUCING.md` for the split). If a change to
//! the energy model is *intentional*, regenerate the files from
//! `Table::to_csv()` and justify the new numbers against the paper's
//! Tables 1/6 and §3.6.

use exp_harness::experiments::{fig1, tab1_delay, tab456};
use exp_harness::Table;

const TAB1_GOLDEN: &str = include_str!("golden/tab1.csv");
const DELAY_GOLDEN: &str = include_str!("golden/delay.csv");
const TAB6_GOLDEN: &str = include_str!("golden/tab6.csv");

fn assert_csv_golden(t: &Table, golden: &str) {
    let got = t.to_csv();
    assert_eq!(
        got, golden,
        "\n== {} drifted from its golden CSV ==\n--- got ---\n{got}\n--- expected ---\n{golden}",
        t.title
    );
}

#[test]
fn tab1_csv_matches_golden() {
    assert_csv_golden(&tab1_delay::tab1_table(), TAB1_GOLDEN);
}

#[test]
fn section36_delay_csv_matches_golden() {
    assert_csv_golden(&tab1_delay::delay_table(), DELAY_GOLDEN);
}

#[test]
fn table6_csv_matches_golden() {
    assert_csv_golden(&tab456::table6(), TAB6_GOLDEN);
}

#[test]
fn tab1_model_tracks_paper_within_tolerance() {
    // Beyond byte-stability: the regenerated model must stay close to the
    // published Table 1 numbers (the claim the golden strings encode).
    let t = tab1_delay::tab1_table();
    for row in &t.rows {
        for (label, model_col, paper_col) in [("conv", 3, 4), ("known", 5, 6)] {
            let model: f64 = row[model_col].parse().unwrap();
            let paper: f64 = row[paper_col].parse().unwrap();
            let rel = (model - paper).abs() / paper;
            assert!(
                rel < 0.10,
                "{label} delay {model} vs paper {paper} drifts {:.1}%",
                rel * 100.0
            );
        }
    }
}

#[test]
fn fig1_table_has_the_paper_shape() {
    // Fig. 1's table shaping, golden-checked from synthetic points so no
    // simulation runs: 8 banking configurations, 64x2 is the paper's
    // headline point (~28% IPC loss → 72% of unbounded).
    let points: Vec<fig1::Fig1Point> = fig1::CONFIGS
        .iter()
        .map(|&(banks, rows)| fig1::Fig1Point {
            label: format!("{banks}x{rows}"),
            normal: 0.72,
            half: 0.55,
        })
        .collect();
    let t = fig1::table(&points);
    assert_eq!(t.to_csv(), include_str!("golden/fig1_shape.csv"));
    assert!(
        t.rows.iter().any(|r| r[0] == "64x2"),
        "the paper's chosen geometry is swept"
    );
}
