//! [`SimSession`] — the builder every one-off run, sweep point and
//! example goes through to simulate designs.
//!
//! A session pairs one workload with any number of [`DesignSpec`]s (or
//! custom [`samie_lsq::LsqFactory`] handles), runs them on identical
//! traces, and returns one [`SessionReport`] with per-design
//! [`SimStats`]. Designs are built through the object-safe
//! `Box<dyn LoadStoreQueue>` path, so adding a design to the comparison
//! never adds a type parameter anywhere. The workload side is equally
//! open: anything convertible to a [`Workload`] runs — a calibrated
//! benchmark, an adversarial generator, or a recorded `.strc` replay.
//!
//! Results are bit-identical to driving [`ooo_sim::Simulator`] by hand:
//! the session performs exactly the same `warm_up(n)` + `run(m)` calls
//! (chunked only to emit progress events, which does not perturb the
//! cycle-accurate state — `run` is incremental).
//!
//! ## Record & replay
//!
//! [`record_trace`] writes the trace a session consumed to a `.strc`
//! file: given the report's [`SessionReport::ops_consumed`], it
//! regenerates exactly the op prefix the hungriest design pulled and
//! writes it with [`trace_isa::TraceWriter`]. Replaying that file (as a
//! [`Workload::Replay`], e.g. via [`Workload::replay_file`]) under the
//! same run configuration reproduces bit-identical [`SimStats`] for every
//! design that was part of the recorded session.
//!
//! ## Examples
//!
//! ```
//! use exp_harness::session::SimSession;
//! use samie_lsq::DesignSpec;
//! use spec_traces::{by_name, find_workload};
//!
//! // Single design, quick run.
//! let report = SimSession::new(DesignSpec::samie_paper(), by_name("gzip").unwrap())
//!     .instrs(20_000)
//!     .warmup(5_000)
//!     .seed(1)
//!     .run();
//! assert!(report.stats().ipc() > 0.1);
//!
//! // Any-N comparison on identical traces — here on an adversarial
//! // workload — with streaming progress.
//! let report = SimSession::new(DesignSpec::conventional_paper(), find_workload("alias-storm").unwrap())
//!     .design(DesignSpec::samie_paper())
//!     .design(DesignSpec::Unbounded)
//!     .instrs(20_000)
//!     .warmup(5_000)
//!     .observer(|e| {
//!         if let exp_harness::session::SessionEvent::DesignFinished { id, stats, .. } = e {
//!             eprintln!("{id}: IPC {:.3}", stats.ipc());
//!         }
//!     })
//!     .run();
//! assert_eq!(report.runs.len(), 3);
//! assert!(report.ipc_loss_vs_first(1).abs() < 1.0);
//! ```

use std::io;
use std::path::Path;
use std::sync::Arc;

use ooo_sim::{SimConfig, SimStats, Simulator};
use samie_lsq::{DesignHandle, DesignSpec, LoadStoreQueue};
use spec_traces::{Workload, WorkloadSpec};
use trace_isa::strc::TraceWriter;

use crate::runner::RunConfig;

/// Anything a session accepts as a design: a typed [`DesignSpec`] or a
/// [`DesignHandle`] to any factory.
pub trait IntoDesign {
    /// Convert into the shared factory handle the session stores.
    fn into_design(self) -> DesignHandle;
}

impl IntoDesign for DesignSpec {
    fn into_design(self) -> DesignHandle {
        Arc::new(self)
    }
}

impl IntoDesign for DesignHandle {
    fn into_design(self) -> DesignHandle {
        self
    }
}

impl IntoDesign for &DesignHandle {
    fn into_design(self) -> DesignHandle {
        Arc::clone(self)
    }
}

/// Anything a session accepts as a workload: a [`Workload`] handle (any
/// catalog entry, replay or real program) or a calibrated
/// [`WorkloadSpec`].
pub trait IntoWorkload {
    /// Convert into the workload handle the session stores.
    fn into_workload(self) -> Workload;
}

impl IntoWorkload for Workload {
    fn into_workload(self) -> Workload {
        self
    }
}

impl IntoWorkload for &Workload {
    fn into_workload(self) -> Workload {
        self.clone()
    }
}

impl IntoWorkload for &WorkloadSpec {
    fn into_workload(self) -> Workload {
        // WorkloadSpec is Copy; owning the copy frees callers from
        // 'static borrows (suite slices, locally-built specs).
        Workload::from(*self)
    }
}

/// Streaming event emitted to the session observer.
pub enum SessionEvent<'a> {
    /// A design's simulation is about to start.
    DesignStarted {
        /// Position in the session's design list.
        index: usize,
        /// Number of designs in the session.
        total: usize,
        /// Canonical design id.
        id: &'a str,
    },
    /// Warm-up finished; the measured interval starts.
    WarmupDone {
        /// Position in the session's design list.
        index: usize,
        /// Canonical design id.
        id: &'a str,
    },
    /// Progress inside the measured interval (emitted every
    /// [`SimSession::progress_every`] committed instructions).
    Progress {
        /// Position in the session's design list.
        index: usize,
        /// Canonical design id.
        id: &'a str,
        /// Instructions committed so far in the measured interval.
        committed: u64,
        /// Target instruction count of the measured interval.
        target: u64,
        /// Statistics so far (cycles, flushes, ... keep accumulating).
        stats: &'a SimStats,
        /// The design mid-run (occupancy snapshots, downcasts).
        lsq: &'a dyn LoadStoreQueue,
    },
    /// A design finished; final statistics and the LSQ itself (downcast
    /// via [`LoadStoreQueue::as_any`] for design-specific statistics).
    DesignFinished {
        /// Position in the session's design list.
        index: usize,
        /// Canonical design id.
        id: &'a str,
        /// Final statistics of the measured interval.
        stats: &'a SimStats,
        /// The design, post-run.
        lsq: &'a dyn LoadStoreQueue,
    },
}

/// One design's result within a [`SessionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRun {
    /// Canonical design id ([`samie_lsq::LsqFactory::id`]).
    pub id: String,
    /// Statistics of the measured interval.
    pub stats: SimStats,
}

/// The outcome of [`SimSession::run`]: per-design results in session
/// order, all from identical traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Workload the session ran.
    pub workload: String,
    /// Trace seed.
    pub seed: u64,
    /// Per-design runs, in the order the designs were added.
    pub runs: Vec<DesignRun>,
    /// Largest trace prefix any design pulled (the length
    /// [`record_trace`] captures).
    pub ops_consumed: u64,
    /// Architectural-oracle summary, if [`SimSession::arch_oracle`] was
    /// requested and the workload is a real `rv:*` program (`None` for
    /// synthetic workloads, which have no architectural state to check).
    pub arch_oracle: Option<String>,
}

impl SessionReport {
    /// Statistics of the first (or only) design.
    pub fn stats(&self) -> &SimStats {
        &self.runs[0].stats
    }

    /// Look a run up by its design id.
    pub fn by_id(&self, id: &str) -> Option<&DesignRun> {
        self.runs.iter().find(|r| r.id == id)
    }

    /// Relative IPC loss of design `index` vs the first design (the
    /// Figure 5 metric generalised to any-N comparisons; negative means
    /// design `index` is faster).
    pub fn ipc_loss_vs_first(&self, index: usize) -> f64 {
        let base = self.runs[0].stats.ipc();
        if base == 0.0 {
            0.0
        } else {
            (base - self.runs[index].stats.ipc()) / base
        }
    }
}

type Observer<'s> = Box<dyn FnMut(&SessionEvent<'_>) + 's>;
type FinishHook<'s> = Box<dyn FnMut(&str, &dyn LoadStoreQueue) + 's>;

/// Builder for simulation sessions — see the [module docs](self).
/// The lifetime covers the observer/finish closures.
pub struct SimSession<'s> {
    designs: Vec<DesignHandle>,
    workload: Workload,
    cfg: SimConfig,
    instrs: u64,
    warmup: u64,
    seed: u64,
    progress_every: u64,
    observer: Option<Observer<'s>>,
    on_finish: Option<FinishHook<'s>>,
    arch_oracle: bool,
}

impl<'s> SimSession<'s> {
    /// A session simulating `design` on `workload` under the paper's
    /// core configuration and the default [`RunConfig`] length.
    pub fn new(design: impl IntoDesign, workload: impl IntoWorkload) -> Self {
        let rc = RunConfig::default();
        SimSession {
            designs: vec![design.into_design()],
            workload: workload.into_workload(),
            cfg: SimConfig::paper(),
            instrs: rc.instrs,
            warmup: rc.warmup,
            seed: rc.seed,
            progress_every: 0,
            observer: None,
            on_finish: None,
            arch_oracle: false,
        }
    }

    /// Add another design to compare on the identical trace (any N).
    pub fn design(mut self, design: impl IntoDesign) -> Self {
        self.designs.push(design.into_design());
        self
    }

    /// Replace the core/memory configuration (default: the paper's).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set instructions measured / warm-up / seed from a [`RunConfig`].
    pub fn run_config(mut self, rc: RunConfig) -> Self {
        self.instrs = rc.instrs;
        self.warmup = rc.warmup;
        self.seed = rc.seed;
        self
    }

    /// Instructions in the measured interval.
    pub fn instrs(mut self, instrs: u64) -> Self {
        self.instrs = instrs;
        self
    }

    /// Warm-up instructions before measurement.
    pub fn warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Trace seed (same seed ⇒ byte-identical runs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Stream [`SessionEvent`]s to `observer` while running.
    ///
    /// [`SessionEvent::Progress`] events additionally require a nonzero
    /// [`progress_every`](SimSession::progress_every) interval; the
    /// lifecycle events (started / warm-up done / finished) always fire.
    pub fn observer(mut self, observer: impl FnMut(&SessionEvent<'_>) + 's) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Call `hook(id, lsq)` with each finished design — the convenient
    /// path to design-specific statistics that live on the LSQ rather
    /// than in [`SimStats`] (downcast via [`LoadStoreQueue::as_any`]):
    ///
    /// ```
    /// use exp_harness::session::SimSession;
    /// use samie_lsq::{DesignSpec, SamieLsq};
    /// use spec_traces::by_name;
    ///
    /// let mut p99 = 0;
    /// SimSession::new(DesignSpec::samie_paper(), by_name("gzip").unwrap())
    ///     .instrs(10_000)
    ///     .warmup(2_000)
    ///     .on_finish(|_, lsq| {
    ///         let samie = lsq.as_any().downcast_ref::<SamieLsq>().unwrap();
    ///         p99 = samie.shared_entries_for_quantile(0.99);
    ///     })
    ///     .run();
    /// ```
    pub fn on_finish(mut self, hook: impl FnMut(&str, &dyn LoadStoreQueue) + 's) -> Self {
        self.on_finish = Some(Box::new(hook));
        self
    }

    /// Emit a [`SessionEvent::Progress`] every `n` committed
    /// instructions (0, the default, disables Progress events). A handy
    /// interval for "~20 updates per design" is `instrs / 20`.
    pub fn progress_every(mut self, n: u64) -> Self {
        self.progress_every = n;
        self
    }

    /// Verify the workload against the [`rv_front::ArchOracle`] after the
    /// designs run (only meaningful for `rv:*` workloads; a no-op
    /// otherwise).
    ///
    /// The oracle re-executes the program on a fresh emulator and asserts
    /// the final architectural state — registers, memory digest, retired
    /// count, op-stream digest — matches the committed record, then
    /// replays the exact op prefix the designs consumed through
    /// [`Workload::build_trace`] and checks it op-for-op against the
    /// committed stream. This is a timing-independent correctness check:
    /// it can never be satisfied by a simulator bug, only by the trace
    /// frontend genuinely reproducing the program. Mismatches panic (a
    /// failed oracle is a defect, not a result); the success summary
    /// lands in [`SessionReport::arch_oracle`].
    pub fn arch_oracle(mut self) -> Self {
        self.arch_oracle = true;
        self
    }

    /// Run every design on the identical trace and collect the report.
    pub fn run(mut self) -> SessionReport {
        let designs = std::mem::take(&mut self.designs);
        let total = designs.len();
        let mut runs = Vec::with_capacity(total);
        let mut ops_consumed = 0u64;
        for (index, design) in designs.iter().enumerate() {
            let id = design.id();
            self.emit(SessionEvent::DesignStarted {
                index,
                total,
                id: &id,
            });
            let (stats, ops) = self.run_design(index, &id, design.build());
            ops_consumed = ops_consumed.max(ops);
            runs.push(DesignRun { id, stats });
        }
        let arch_oracle = if self.arch_oracle {
            self.verify_arch_oracle(ops_consumed)
        } else {
            None
        };
        SessionReport {
            workload: self.workload.name().to_string(),
            seed: self.seed,
            runs,
            ops_consumed,
            arch_oracle,
        }
    }

    /// Run the architectural oracle for an `rv:*` workload: re-execute on
    /// a fresh emulator and cross-check the consumed trace prefix against
    /// the committed op stream. Returns the success summary, or `None`
    /// for workloads without architectural state.
    fn verify_arch_oracle(&self, ops_consumed: u64) -> Option<String> {
        let w = self.workload.rv()?;
        let report = rv_front::ArchOracle::verify(w)
            .unwrap_or_else(|e| panic!("arch-oracle mismatch on {}: {e}", w.name()));
        let mut src = self.workload.build_trace(self.seed);
        rv_front::ArchOracle::verify_stream_prefix(w, &mut *src, ops_consumed)
            .unwrap_or_else(|e| panic!("arch-oracle stream mismatch on {}: {e}", w.name()));
        Some(report.to_string())
    }

    fn emit(&mut self, e: SessionEvent<'_>) {
        if let Some(f) = &mut self.observer {
            f(&e);
        }
    }

    /// Simulate one design. Returns the final stats and the trace
    /// prefix pulled.
    fn run_design(
        &mut self,
        index: usize,
        id: &str,
        lsq: Box<dyn LoadStoreQueue>,
    ) -> (SimStats, u64) {
        let mut sim = Simulator::new(self.cfg, lsq, self.workload.build_trace(self.seed));
        sim.warm_up(self.warmup);
        self.emit(SessionEvent::WarmupDone { index, id });
        if self.progress_every == 0 || self.observer.is_none() {
            sim.run(self.instrs);
        } else {
            // Chunked run with absolute targets: the same cycle
            // sequence as one run(instrs) call, so results stay
            // bit-identical under any progress interval.
            let mut committed = 0;
            while committed < self.instrs {
                let step = self.progress_every.min(self.instrs - committed);
                let stats = sim.run(step);
                committed = stats.committed;
                self.emit(SessionEvent::Progress {
                    index,
                    id,
                    committed,
                    target: self.instrs,
                    stats: &stats,
                    lsq: sim.lsq(),
                });
            }
        }
        let stats = sim.stats();
        self.emit(SessionEvent::DesignFinished {
            index,
            id,
            stats: &stats,
            lsq: sim.lsq(),
        });
        if let Some(hook) = &mut self.on_finish {
            hook(id, sim.lsq());
        }
        (stats, sim.trace_ops_pulled())
    }
}

/// Write the first `ops` ops of `workload`'s trace under `seed` to
/// `path` as `.strc`, creating its directory. Called with a session's
/// workload, seed and [`SessionReport::ops_consumed`], it records
/// exactly the trace that session consumed: trace sources are
/// deterministic per (workload, seed), so regenerating the stream
/// reproduces what the designs saw.
pub fn record_trace(workload: &Workload, seed: u64, ops: u64, path: &Path) -> io::Result<()> {
    let mut src = workload.build_trace(seed);
    let mut w = TraceWriter::create(path, workload.name())?;
    for _ in 0..ops {
        w.write_op(&src.next_op())?;
    }
    w.finish().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samie_lsq::SamieLsq;
    use spec_traces::{by_name, SpecTrace};

    fn quick(design: impl IntoDesign) -> SimSession<'static> {
        SimSession::new(design, by_name("gzip").unwrap())
            .instrs(12_000)
            .warmup(3_000)
            .seed(7)
    }

    #[test]
    fn single_design_matches_manual_simulator() {
        let report = quick(DesignSpec::samie_paper()).run();
        let mut sim = Simulator::paper(
            SamieLsq::paper(),
            SpecTrace::new(by_name("gzip").unwrap(), 7),
        );
        sim.warm_up(3_000);
        let manual = sim.run(12_000);
        assert_eq!(report.stats(), &manual, "session must be bit-identical");
    }

    #[test]
    fn progress_chunking_does_not_perturb_results() {
        let plain = quick(DesignSpec::samie_paper()).run();
        let mut events = 0;
        let chunked = quick(DesignSpec::samie_paper())
            .progress_every(1_000)
            .observer(|e| {
                if matches!(e, SessionEvent::Progress { .. }) {
                    events += 1;
                }
            })
            .run();
        assert_eq!(plain, chunked);
        assert!(events >= 12, "expected ~12 progress events, saw {events}");
    }

    #[test]
    fn multi_design_comparison_in_order() {
        let report = quick(DesignSpec::conventional_paper())
            .design(DesignSpec::samie_paper())
            .design(DesignSpec::Unbounded)
            .run();
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.runs[0].id, "conv:128");
        assert_eq!(report.runs[1].id, "samie:64x2x8:sh8:ab64");
        assert_eq!(report.runs[2].id, "unbounded");
        assert!(report.by_id("unbounded").is_some());
        // The ideal LSQ is never slower than the bounded designs.
        assert!(report.ipc_loss_vs_first(2) <= 1e-9);
    }

    #[test]
    fn observer_sees_lifecycle_and_lsq() {
        let mut started = 0;
        let mut finished = 0;
        let mut occupancy_seen = false;
        quick(DesignSpec::samie_paper())
            .observer(|e| match e {
                SessionEvent::DesignStarted { total, .. } => {
                    assert_eq!(*total, 1);
                    started += 1;
                }
                SessionEvent::DesignFinished { lsq, stats, .. } => {
                    assert!(stats.committed >= 12_000);
                    assert!(lsq.as_any().downcast_ref::<SamieLsq>().is_some());
                    occupancy_seen = true;
                    finished += 1;
                }
                _ => {}
            })
            .run();
        assert_eq!((started, finished), (1, 1));
        assert!(occupancy_seen);
    }

    #[test]
    fn arch_oracle_verifies_rv_workloads_and_skips_synthetic() {
        let report = SimSession::new(
            DesignSpec::samie_paper(),
            spec_traces::find_workload("rv:sieve").unwrap(),
        )
        .instrs(8_000)
        .warmup(2_000)
        .arch_oracle()
        .run();
        let summary = report
            .arch_oracle
            .expect("rv workload must be oracle-checked");
        assert!(summary.starts_with("arch-oracle ok"), "{summary}");

        // Synthetic workloads have no architectural state: the oracle
        // request is a no-op, not an error.
        let report = quick(DesignSpec::samie_paper()).arch_oracle().run();
        assert_eq!(report.arch_oracle, None);
    }

    #[test]
    fn registry_handles_run_like_specs() {
        let handle: DesignHandle = std::sync::Arc::new("conv:64".parse::<DesignSpec>().unwrap());
        let report = quick(handle).run();
        assert_eq!(report.runs[0].id, "conv:64");
        assert!(report.stats().ipc() > 0.1);
    }
}
