//! Pipeline instrumentation: a per-stage observer hook.
//!
//! The simulator's hot loop is generic over a [`PipelineProbe`]. The
//! default [`NoProbe`] compiles to nothing, so `Simulator::run` pays zero
//! cost; a probe passed to `Simulator::run_with` sees every stage's entry
//! and exit with the events it performed, every stepped cycle and every
//! skipped stretch. The hook only observes: a probed run's statistics
//! equal an unprobed run's in full. This crate never reads the host
//! clock; a probe that times stages (the `lsqbench` sampling tracer)
//! brings its own.

/// One pipeline stage, as attributed by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Completion/write-back: FU latencies expiring, consumers waking.
    Execute,
    /// The LSQ's once-per-cycle tick (AddrBuffer promotion + occupancy)
    /// and the retry drain — the LSQ search path.
    LsqTick,
    /// In-order retirement from the ROB head.
    Commit,
    /// Memory issue: forwarding decisions and D-cache accesses.
    Forward,
    /// Ready ops to functional units.
    Issue,
    /// Fetch queue → ROB (+ LSQ dispatch).
    Dispatch,
    /// Trace/replay → fetch queue through predictor, BTB and L1I.
    Fetch,
}

impl Stage {
    /// Every stage, in per-cycle execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Execute,
        Stage::LsqTick,
        Stage::Commit,
        Stage::Forward,
        Stage::Issue,
        Stage::Dispatch,
        Stage::Fetch,
    ];

    /// Stable lowercase name (JSON report keys).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Execute => "execute",
            Stage::LsqTick => "lsq_tick",
            Stage::Commit => "commit",
            Stage::Forward => "forward",
            Stage::Issue => "issue",
            Stage::Dispatch => "dispatch",
            Stage::Fetch => "fetch",
        }
    }
}

/// Observer of the simulator's per-cycle stage loop. All methods default
/// to no-ops so the uninstrumented pipeline keeps its exact shape.
pub trait PipelineProbe {
    /// A stage is about to run.
    #[inline(always)]
    fn enter(&mut self, _stage: Stage) {}

    /// The stage finished, having performed `events` units of work
    /// (ops completed/committed/issued/fetched, promotions, ...).
    #[inline(always)]
    fn exit(&mut self, _stage: Stage, _events: u64) {}

    /// A full cycle was simulated.
    #[inline(always)]
    fn cycle(&mut self) {}

    /// `k` cycles were event-skipped in one jump.
    #[inline(always)]
    fn skipped(&mut self, _k: u64) {}
}

/// The zero-cost probe the ordinary `run` path uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl PipelineProbe for NoProbe {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use samie_lsq::DesignSpec;
    use spec_traces::SpecTrace;

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["execute", "lsq_tick", "commit", "forward", "issue", "dispatch", "fetch"]
        );
    }

    /// Tallies what the hook reports.
    #[derive(Default)]
    struct Tally {
        stepped: u64,
        skipped: u64,
        events: [u64; 7],
    }

    impl PipelineProbe for Tally {
        fn exit(&mut self, stage: Stage, events: u64) {
            self.events[stage as usize] += events;
        }

        fn cycle(&mut self) {
            self.stepped += 1;
        }

        fn skipped(&mut self, k: u64) {
            self.skipped += k;
        }
    }

    #[test]
    fn profiled_stats_match_unprofiled_run() {
        for design in DesignSpec::paper_trio() {
            for bench in ["gzip", "ammp"] {
                let sim = || {
                    let trace = SpecTrace::new(spec_traces::by_name(bench).unwrap(), 42);
                    Simulator::new(SimConfig::paper(), design.build(), trace)
                };
                let plain = sim().run(20_000);
                let mut tally = Tally::default();
                let probed = sim().run_with(20_000, &mut tally);
                assert_eq!(probed, plain, "{design} on {bench}: stats moved");
                assert_eq!(
                    tally.stepped + tally.skipped,
                    plain.cycles,
                    "{design} on {bench}: every cycle is stepped or skipped"
                );
                // Skipping engaged, so the sum above covers both paths.
                assert!(tally.skipped > 0, "{design} on {bench}: nothing skipped");
                assert!(tally.events[Stage::Commit as usize] >= plain.committed);
            }
        }
    }
}
