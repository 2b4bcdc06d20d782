//! Oracle-differential fuzzing of every LSQ design.
//!
//! Each iteration derives a workload deterministically from the fuzz seed
//! — a mutated [`WorkloadSpec`], a calibrated benchmark, or an adversarial
//! generator — and runs **every registered design family** on the
//! identical trace through one [`SimSession`], together with the two
//! references: [`DesignSpec::Unbounded`] (the capacity-free timing
//! reference) and [`DesignSpec::Oracle`] (the executable disambiguation
//! specification, which asserts its own answers in-pipeline). Every
//! bounded design additionally runs wrapped in
//! [`samie_lsq::CheckedLsq`], so each of its forwarding answers is
//! cross-checked against the oracle model without perturbing its timing.
//!
//! A mismatch is any of:
//!
//! * a panic anywhere in the session (oracle divergence assertions, the
//!   simulator's no-commit watchdog, internal invariants),
//! * oracle and unbounded stats differing (they are specified to be
//!   bit-identical),
//! * a design violating the committed-instruction contract
//!   (`instrs ≤ committed < instrs + overshoot`),
//! * a design's committed load/store/branch mix drifting from the
//!   unbounded reference beyond the commit-group slack (identical traces
//!   must commit identical prefixes),
//! * more forwards than loads,
//! * any [`CheckedLsq`] forwarding divergence, or
//! * for real-program (`rv:*` and generated RV32IM) workloads, the
//!   [`rv_front::ArchOracle`] finding the replayed op stream or the
//!   re-executed architectural state diverging from the committed record.
//!
//! On mismatch the consumed trace prefix is captured, shrunk with a
//! ddmin-style loop to a minimal op sequence that still mismatches, and
//! written to `results/` as a `.strc` repro replayable with
//! `samie-exp sweep --bench @results/fuzz-repro-iter3.strc` or
//! [`Workload::replay_file`].
//!
//! The CLI front end is `samie-exp fuzz --iters N --seed S`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ooo_sim::SimStats;
use samie_lsq::{checked, ArbConfig, CheckedLsq, DesignHandle, DesignSpec, SamieConfig};
use spec_traces::{all_workloads, by_name, Workload, WorkloadSpec};
use trace_isa::{MicroOp, RecordedTrace};

use crate::runner::{parallel_map_with, RunConfig};
use crate::session::SimSession;
use crate::sweep::designs_from_specs;

/// Committed-count slack: a design may overshoot its instruction target
/// by less than one commit group, and warm-up boundaries shift the
/// measured window by the same amount — 64 bounds both comfortably.
const COMMIT_SLACK: u64 = 64;

/// Configuration of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Iterations (one workload × all designs each).
    pub iters: u64,
    /// Campaign seed: same seed, same verdict, bit for bit.
    pub seed: u64,
    /// Per-iteration simulation length.
    pub rc: RunConfig,
    /// Worker threads (0 = all cores); iterations are independent.
    pub jobs: usize,
    /// Where shrunken `.strc` repros land (`None` disables writing).
    pub out: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 100,
            seed: 42,
            rc: RunConfig {
                instrs: 3_000,
                warmup: 800,
                seed: 0, // per-iteration, derived from the campaign seed
            },
            jobs: 0,
            out: Some(PathBuf::from("results")),
        }
    }
}

/// One detected design-vs-oracle mismatch.
#[derive(Debug, Clone)]
pub struct FuzzMismatch {
    /// Iteration that found it.
    pub iter: u64,
    /// Workload that provoked it.
    pub workload: String,
    /// What went wrong (one entry per violated invariant).
    pub failures: Vec<String>,
    /// Shrunken repro trace, if one was written.
    pub repro: Option<PathBuf>,
    /// Ops in the shrunken repro.
    pub repro_ops: usize,
}

/// The campaign verdict.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// All mismatches, in iteration order.
    pub mismatches: Vec<FuzzMismatch>,
}

impl FuzzReport {
    /// Did every design agree with the oracle on every input?
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The design lineup of one iteration: the references plus every bounded
/// family, geometry-mutated for a third of the iterations.
fn iteration_designs(rng: &mut SmallRng) -> Vec<DesignHandle> {
    let mutate = rng.gen_bool(1.0 / 3.0);
    let samie = if mutate {
        DesignSpec::Samie(SamieConfig {
            banks: 1 << rng.gen_range(1..=6u32),
            entries_per_bank: rng.gen_range(1..=4),
            slots_per_entry: 1 << rng.gen_range(0..=3u32),
            shared_entries: rng.gen_range(1..=16),
            abuf_slots: rng.gen_range(4..=64),
        })
    } else {
        DesignSpec::samie_paper()
    };
    let arb = if mutate {
        DesignSpec::Arb(ArbConfig {
            banks: 1 << rng.gen_range(1..=6u32),
            rows_per_bank: rng.gen_range(1..=4),
            max_inflight: rng.gen_range(8..=128),
        })
    } else {
        "arb".parse().expect("default arb spec")
    };
    let conv = DesignSpec::Conventional {
        entries: *[8usize, 32, 128].get(rng.gen_range(0..3usize)).unwrap(),
    };
    designs_from_specs([conv, DesignSpec::filtered_paper(), samie, arb])
}

/// The workload of one iteration: an adversarial/calibrated/real-program
/// catalog entry half the time, a generated straight-line RV32IM program
/// (assembled and emulated, so the oracle has real architectural state to
/// check) a fifth of the time, a random mutant of a calibrated spec
/// otherwise.
fn iteration_workload(rng: &mut SmallRng) -> Workload {
    if rng.gen_bool(0.5) {
        let catalog = all_workloads();
        catalog[rng.gen_range(0..catalog.len())].clone()
    } else if rng.gen_bool(0.4) {
        rv_mutant(rng.gen(), rng.gen_range(200..1_200))
    } else {
        Workload::from(mutate_spec(rng))
    }
}

/// A generated RV32IM program as a fuzz workload. The generator only
/// emits well-formed source, so assembly/emulation failure is a frontend
/// bug — surfaced as a panic the campaign records as a mismatch.
pub fn rv_mutant(seed: u64, n_ops: usize) -> Workload {
    let source = rv_front::gen_program(seed, n_ops);
    Workload::rv_source(&format!("rv-fuzz:{seed:016x}"), "rv-fuzz.s", &source)
        .unwrap_or_else(|e| panic!("generated program rejected (seed {seed:#x}): {e}"))
}

/// A random valid spec mutation: knobs drawn across their whole legal
/// ranges (and a bit beyond typical programs), then clamped into what
/// [`WorkloadSpec::validate`] accepts.
pub fn mutate_spec(rng: &mut SmallRng) -> WorkloadSpec {
    let base = *by_name("gcc").expect("gcc is calibrated");
    let f_load = rng.gen_range(0.05..0.40);
    let f_store = rng.gen_range(0.02..0.25);
    let f_branch = rng.gen_range(0.02..0.20);
    let line_reuse = rng.gen_range(0.0..0.85);
    let random_frac = (1.0f64 - line_reuse).min(rng.gen_range(0.0..0.4));
    let forward_frac = (1.0f64 - line_reuse - random_frac).min(rng.gen_range(0.0..0.25));
    let mut spec = WorkloadSpec {
        name: "fuzz",
        f_load,
        f_store,
        f_branch,
        dep_density: rng.gen_range(0.0..0.9),
        dep_distance: rng.gen_range(1..48),
        branch_entropy: rng.gen_range(0.0..0.5),
        streams: rng.gen_range(1..20),
        stream_stride: *[4u64, 8, 16, 32, 64, 2048, 4096]
            .get(rng.gen_range(0..7usize))
            .unwrap(),
        line_reuse,
        random_frac,
        forward_frac,
        working_set: 1 << rng.gen_range(14..24u32),
        reuse_window: rng.gen_range(1..=16),
        bank_skew: rng.gen_range(0.0..1.0),
        hot_banks: rng.gen_range(1..=8),
        conflict_duty: rng.gen_range(0.0..0.7),
        access_size: *[1u8, 2, 4, 8].get(rng.gen_range(0..4usize)).unwrap(),
        ..base
    };
    // FP mix only when the class fractions leave room.
    let room = 1.0 - (spec.f_load + spec.f_store + spec.f_branch) - 0.05;
    spec.f_fp_alu = rng.gen_range(0.0..room.max(0.001) / 2.0);
    spec.validate().expect("mutation stays in the legal space");
    spec
}

/// Run one workload through every design + references and collect every
/// violated invariant (empty = clean). Public so the equivalence-matrix
/// test and the fuzzer share one definition of "mismatch".
pub fn differential_check(
    workload: &Workload,
    designs: &[DesignHandle],
    rc: &RunConfig,
) -> Vec<String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut checked_verdicts: Vec<(String, u64, Vec<String>)> = Vec::new();
        // The architectural oracle is a no-op for synthetic workloads;
        // for `rv:*` programs it re-executes the emulator and panics on
        // any state divergence — caught below as a mismatch.
        let mut session = SimSession::new(DesignSpec::Unbounded, workload)
            .design(DesignSpec::Oracle)
            .arch_oracle()
            .run_config(*rc);
        for d in designs {
            session = session.design(checked(d.clone()));
        }
        let report = session
            .on_finish(|id, lsq| {
                if let Some(c) = lsq.as_any().downcast_ref::<CheckedLsq>() {
                    checked_verdicts.push((
                        id.to_string(),
                        c.mismatch_count(),
                        c.mismatches().to_vec(),
                    ));
                }
            })
            .run();
        (report, checked_verdicts)
    }));
    let (report, checked_verdicts) = match run {
        Ok(r) => r,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            return vec![format!("panic during session: {msg}")];
        }
    };

    let mut failures = Vec::new();
    let reference: &SimStats = &report.runs[0].stats; // unbounded
    let oracle: &SimStats = &report.runs[1].stats;
    if oracle != reference {
        failures.push(format!(
            "oracle and unbounded stats diverge: oracle ipc {:.6} vs unbounded {:.6}",
            oracle.ipc(),
            reference.ipc()
        ));
    }
    for run in &report.runs {
        let s = &run.stats;
        if s.committed < rc.instrs || s.committed >= rc.instrs + COMMIT_SLACK {
            failures.push(format!(
                "{}: committed {} outside [{}, {})",
                run.id,
                s.committed,
                rc.instrs,
                rc.instrs + COMMIT_SLACK
            ));
        }
        for (what, got, want) in [
            ("loads", s.loads, reference.loads),
            ("stores", s.stores, reference.stores),
            ("branches", s.branches, reference.branches),
        ] {
            if got.abs_diff(want) >= COMMIT_SLACK {
                failures.push(format!(
                    "{}: committed {what} {got} vs reference {want} (identical traces)",
                    run.id
                ));
            }
        }
        if s.forwarded_loads > s.loads + COMMIT_SLACK {
            failures.push(format!(
                "{}: {} forwards for {} committed loads",
                run.id, s.forwarded_loads, s.loads
            ));
        }
    }
    for (id, count, reports) in &checked_verdicts {
        if *count > 0 {
            failures.push(format!(
                "{id}: {count} forwarding answers diverged from the oracle; first: {}",
                reports.first().map(String::as_str).unwrap_or("<none>")
            ));
        }
    }
    failures
}

/// Capture the trace prefix a differential run consumes, as concrete ops.
fn capture_ops(workload: &Workload, rc: &RunConfig) -> Vec<MicroOp> {
    // A session that panicked mid-run consumed at most warmup + instrs
    // plus in-flight and batching slack; a clean run reports its exact
    // consumption. Run the cheap unbounded design alone to measure, and
    // pad for designs that fetch slightly further.
    let measured = catch_unwind(AssertUnwindSafe(|| {
        SimSession::new(DesignSpec::Unbounded, workload)
            .run_config(*rc)
            .run()
            .ops_consumed
    }))
    .unwrap_or(0);
    let n = measured.max(rc.warmup + rc.instrs) + 4096;
    let mut src = workload.build_trace(rc.seed);
    (0..n).map(|_| src.next_op()).collect()
}

/// ddmin-style shrink: repeatedly delete chunks while the mismatch still
/// reproduces, halving chunk size until single ops stick. Bounded by
/// `budget` candidate evaluations so a slow repro cannot stall a campaign.
pub fn shrink_ops(
    ops: Vec<MicroOp>,
    designs: &[DesignHandle],
    rc: &RunConfig,
    budget: usize,
) -> Vec<MicroOp> {
    let reproduces = |candidate: &[MicroOp]| -> bool {
        if candidate.is_empty() {
            return false;
        }
        let w = Workload::from_recorded(RecordedTrace::from_ops("fuzz-repro", candidate.to_vec()));
        !differential_check(&w, designs, rc).is_empty()
    };
    let mut cur = ops;
    let mut spent = 0usize;
    let mut chunk = (cur.len() / 2).max(1);
    while chunk >= 1 && spent < budget {
        let mut any_progress = false;
        let mut start = 0;
        while start < cur.len() && spent < budget {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            spent += 1;
            if reproduces(&candidate) {
                cur = candidate;
                any_progress = true;
                // Retry the same offset: the next chunk slid into place.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !any_progress {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    cur
}

/// Run a fuzzing campaign. Deterministic per [`FuzzConfig::seed`];
/// iterations execute on [`FuzzConfig::jobs`] workers.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let iters: Vec<u64> = (0..cfg.iters).collect();
    let mismatches = parallel_map_with(cfg.jobs, &iters, |&iter| {
        // Split-mix the campaign seed per iteration so the stream is
        // independent of worker scheduling.
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(iter),
        );
        let workload = iteration_workload(&mut rng);
        let designs = iteration_designs(&mut rng);
        let rc = RunConfig {
            seed: rng.gen(),
            ..cfg.rc
        };
        let failures = differential_check(&workload, &designs, &rc);
        if failures.is_empty() {
            return None;
        }
        // Shrink to a minimal replayable repro.
        let ops = capture_ops(&workload, &rc);
        let minimal = shrink_ops(ops, &designs, &rc, 160);
        let repro_ops = minimal.len();
        let repro = cfg.out.as_ref().and_then(|dir| {
            let path = dir.join(format!("fuzz-repro-iter{iter}.strc"));
            let rec = RecordedTrace::from_ops(format!("fuzz-repro-iter{iter}"), minimal);
            match rec.save(&path) {
                Ok(()) => Some(path),
                Err(e) => {
                    eprintln!("(could not write repro {}: {e})", path.display());
                    None
                }
            }
        });
        Some(FuzzMismatch {
            iter,
            workload: workload.name().to_string(),
            failures,
            repro,
            repro_ops,
        })
    });
    FuzzReport {
        iters: cfg.iters,
        mismatches: mismatches.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samie_lsq::{LoadStoreQueue, LsqFactory};
    use std::sync::Arc;

    fn quick_rc() -> RunConfig {
        RunConfig {
            instrs: 2_000,
            warmup: 500,
            seed: 7,
        }
    }

    #[test]
    fn clean_campaign_reports_no_mismatches() {
        let cfg = FuzzConfig {
            iters: 6,
            seed: 1,
            rc: quick_rc(),
            jobs: 2,
            out: None,
        };
        let report = run_fuzz(&cfg);
        assert_eq!(report.iters, 6);
        assert!(
            report.clean(),
            "unexpected mismatches: {:#?}",
            report.mismatches
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = FuzzConfig {
            iters: 4,
            seed: 9,
            rc: quick_rc(),
            jobs: 1,
            out: None,
        };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.mismatches.len(), b.mismatches.len());
        assert_eq!(a.clean(), b.clean());
    }

    #[test]
    fn checked_wrapper_is_timing_transparent() {
        // A checked design must produce bit-identical stats to the bare
        // design — otherwise the fuzzer would test a different machine.
        let w = spec_traces::find_workload("gzip").unwrap();
        let report = SimSession::new(DesignSpec::samie_paper(), &w)
            .design(checked(Arc::new(DesignSpec::samie_paper()) as DesignHandle))
            .run_config(quick_rc())
            .run();
        let (plain, wrapped) = (&report.runs[0].stats, &report.runs[1].stats);
        assert_eq!(plain, wrapped);
    }

    /// A factory producing a design that silently refuses all forwards.
    struct BrokenFactory;

    impl LsqFactory for BrokenFactory {
        fn id(&self) -> String {
            "broken".into()
        }
        fn build(&self) -> Box<dyn LoadStoreQueue> {
            Box::new(samie_lsq::checked::ForwardDroppingLsq::new(
                DesignSpec::conventional_paper().build(),
            ))
        }
    }

    #[test]
    fn broken_design_is_caught_and_shrunk() {
        let designs: Vec<DesignHandle> = vec![Arc::new(BrokenFactory)];
        let w = spec_traces::find_workload("gzip").unwrap();
        let rc = quick_rc();
        let failures = differential_check(&w, &designs, &rc);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("diverged from the oracle")),
            "broken design not detected: {failures:?}"
        );
        // The repro shrinks to a tiny trace that still mismatches.
        let ops = capture_ops(&w, &rc);
        let minimal = shrink_ops(ops.clone(), &designs, &rc, 60);
        assert!(minimal.len() < ops.len() / 4, "no shrink progress");
        let again = differential_check(
            &Workload::from_recorded(RecordedTrace::from_ops("m", minimal)),
            &designs,
            &rc,
        );
        assert!(!again.is_empty(), "shrunken repro no longer reproduces");
    }

    #[test]
    fn rv_mutants_pass_the_differential_and_the_oracle() {
        let designs = designs_from_specs([
            DesignSpec::conventional_paper(),
            DesignSpec::filtered_paper(),
            DesignSpec::samie_paper(),
        ]);
        for seed in [1u64, 7, 42] {
            let w = rv_mutant(seed, 400);
            assert!(w.cache_id().starts_with("rv:"), "{}", w.cache_id());
            let failures = differential_check(&w, &designs, &quick_rc());
            assert!(failures.is_empty(), "seed {seed}: {failures:?}");
        }
    }

    #[test]
    fn mutated_specs_always_validate() {
        let mut rng = SmallRng::seed_from_u64(123);
        for _ in 0..500 {
            mutate_spec(&mut rng).validate().unwrap();
        }
    }
}
