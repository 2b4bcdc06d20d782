//! Pins the full [`SimStats`] of every design family on every catalog
//! workload to a committed golden, so a rewrite of the simulator's hot
//! loop is proven exact by `cargo test` alone.
//!
//! `api_regression` compares two API paths that share the pipeline, so a
//! pipeline change moves both sides together; this test compares against
//! digests recorded before the change instead. Each point is digested the
//! way the benchmark's correctness check does it: one `name=value` line
//! per `visit_stat_fields` counter, then `fingerprint128`.
//!
//! Golden format (`tests/golden/stats_matrix.tsv`): one line per point,
//! `design<TAB>workload<TAB>digest` with the digest as 32 hex digits.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use exp_store::visit_stat_fields;
use ooo_sim::{SimStats, Simulator};
use samie_lsq::DesignSpec;
use spec_traces::all_workloads;
use trace_isa::fingerprint128;

const GOLDEN: &str = include_str!("golden/stats_matrix.tsv");

/// The design list of `tests/cycle_skip.rs`: one point per family, plus
/// two more ARB geometries.
fn designs() -> Vec<DesignSpec> {
    vec![
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
    ]
}

fn stats_digest(stats: &SimStats) -> u128 {
    let mut s = stats.clone();
    let mut text = String::new();
    visit_stat_fields(&mut s, |name, v| {
        let _ = writeln!(text, "{name}={v}");
    });
    fingerprint128(text.as_bytes())
}

fn golden() -> BTreeMap<(String, String), u128> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 3, "malformed golden line: {line:?}");
            let digest = u128::from_str_radix(cols[2], 16)
                .unwrap_or_else(|e| panic!("bad digest in {line:?}: {e}"));
            ((cols[0].to_string(), cols[1].to_string()), digest)
        })
        .collect()
}

#[test]
fn stats_match_the_committed_golden_across_the_matrix() {
    let mut expected = golden();
    let mut mismatches = Vec::new();
    for workload in all_workloads() {
        for design in designs() {
            let mut sim = Simulator::paper(design.build(), workload.build_trace(5));
            sim.warm_up(600);
            let digest = stats_digest(&sim.run(2_500));
            let point = (design.to_string(), workload.name().to_string());
            match expected.remove(&point) {
                Some(want) if want == digest => {}
                Some(want) => mismatches.push(format!(
                    "{}\t{}\t{digest:032x} (golden {want:032x})",
                    point.0, point.1
                )),
                None => mismatches.push(format!(
                    "{}\t{}\t{digest:032x} (not in the golden)",
                    point.0, point.1
                )),
            }
        }
    }
    for ((design, workload), want) in &expected {
        mismatches.push(format!(
            "{design}\t{workload}\t(not simulated; golden {want:032x})"
        ));
    }
    assert!(
        mismatches.is_empty(),
        "{} point(s) differ from tests/golden/stats_matrix.tsv:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
