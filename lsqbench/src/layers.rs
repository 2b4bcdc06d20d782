//! Per-layer metrics, named after the crates, from traced runs and from
//! timing the layers' public entry points directly.
//!
//! Stage and LSQ times come from sampled cycles only; counts cover every
//! cycle. Each timed interval carries the cost of one clock read pair
//! (`empty_ns`), which is subtracted, and a stage that contains timed
//! calls also carries their two clock reads each.

use std::hint::black_box;
use std::time::{Duration, Instant};

use energy_model::{dcache_energy_nj, dtlb_energy_nj, price_lsq};
use mem_hier::{AccessKind, CacheStats, DataMemory, DcacheAccessMode};
use ooo_sim::{SimConfig, SimStats, Stage};

use crate::grid::{Point, TracedRun};
use crate::report::{ratio, Metrics};
use crate::tracing::{Method, MethodStat, StageStat};

/// LSQ methods reported one by one for SAMIE.
const SAMIE_METHODS: [Method; 6] = [
    Method::Dispatch,
    Method::AddressReady,
    Method::LoadForwardStatus,
    Method::Commit,
    Method::Tick,
    Method::FlushAll,
];

/// Design families with their own `samie-lsq` metrics.
const FAMILIES: [&str; 3] = ["conv", "filtered", "samie"];

#[derive(Debug, Clone, Default)]
struct Family {
    methods: [MethodStat; Method::COUNT],
    stages: [StageStat; 7],
    committed: u64,
    deadlocks: u64,
    nospace: u64,
}

/// Traced runs of a grid, summed.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    families: [Family; 3],
    stages: [StageStat; 7],
    stepped: u64,
    skipped: u64,
    committed: u64,
    cycles: u64,
    trace_calls: u64,
    trace_ops: u64,
    trace_ns: u64,
    l1d: CacheStats,
    l2: CacheStats,
    dtlb_accesses: u64,
    dtlb_misses: u64,
    /// Untraced measured-interval time of the same points.
    untraced_measured: Duration,
}

fn add_cache(a: &mut CacheStats, b: &CacheStats) {
    a.read_accesses += b.read_accesses;
    a.write_accesses += b.write_accesses;
    a.read_hits += b.read_hits;
    a.write_hits += b.write_hits;
}

impl TraceTotals {
    /// Add one traced point and the untraced time of the same point.
    pub fn add(&mut self, p: &Point, run: &TracedRun, untraced_measured: Duration) {
        let s = &run.stats;
        if let Some(i) = FAMILIES.iter().position(|&k| k == p.design.kind()) {
            let f = &mut self.families[i];
            for (m, r) in f.methods.iter_mut().zip(&run.methods) {
                m.add(r);
            }
            for (a, b) in f.stages.iter_mut().zip(&run.stages) {
                a.add(b);
            }
            f.committed += s.committed;
            f.deadlocks += s.deadlock_flushes;
            f.nospace += s.nospace_flushes;
        }
        for (a, b) in self.stages.iter_mut().zip(&run.stages) {
            a.add(b);
        }
        self.stepped += run.stepped;
        self.skipped += run.skipped;
        self.committed += s.committed;
        self.cycles += s.cycles;
        self.trace_calls += run.trace_calls;
        self.trace_ops += run.trace_ops;
        self.trace_ns += run.trace_ns;
        add_cache(&mut self.l1d, &s.l1d);
        add_cache(&mut self.l2, &s.l2);
        self.dtlb_accesses += s.dtlb_accesses;
        self.dtlb_misses += s.dtlb_misses;
        self.untraced_measured += untraced_measured;
    }

    /// Emit the `samie-lsq`, `ooo-sim`, `spec-traces` and count-based
    /// `mem-hier` metrics.
    pub fn emit(&self, m: &mut Metrics, empty_ns: f64) {
        let e = empty_ns;
        // Stage self time excludes timed children and every clock read.
        let self_ns = |st: &StageStat| {
            st.ns as f64
                - e * (st.samples + st.lsq_n + st.trace_n) as f64
                - st.lsq_ns as f64
                - st.trace_ns as f64
        };
        let total_ns = |stages: &[StageStat; 7]| {
            stages
                .iter()
                .map(|st| st.ns as f64 - e * (st.samples + 2 * (st.lsq_n + st.trace_n)) as f64)
                .sum::<f64>()
        };
        let lsq_ns = |stages: &[StageStat; 7]| {
            stages
                .iter()
                .map(|st| st.lsq_ns as f64 - e * st.lsq_n as f64)
                .sum::<f64>()
        };
        let per_call = |ms: &MethodStat| ratio(ms.ns as f64 - e * ms.timed as f64, ms.timed as f64);

        for (kind, f) in FAMILIES.iter().zip(&self.families) {
            let name = format!("samie-lsq.{kind}");
            m.put(
                format!("{name}.self_share"),
                ratio(lsq_ns(&f.stages), total_ns(&f.stages)),
                "fraction",
            );
            m.base(
                format!("{name}.self_share"),
                f.stages.iter().map(|s| s.samples).sum(),
            );
            let lsq_total: f64 = f
                .methods
                .iter()
                .map(|ms| per_call(ms) * ms.calls as f64)
                .sum();
            m.put(
                format!("{name}.ns_per_instr"),
                ratio(lsq_total, f.committed as f64),
                "ns",
            );
            m.base(format!("{name}.ns_per_instr"), f.committed);
        }
        let samie = &self.families[2];
        for method in SAMIE_METHODS {
            let ms = &samie.methods[method as usize];
            let name = format!("samie-lsq.samie.{}", method.name());
            m.put(format!("{name}.ns_per_call"), per_call(ms), "ns");
            m.base(format!("{name}.ns_per_call"), ms.timed);
            m.put(
                format!("{name}.calls_per_instr"),
                ratio(ms.calls as f64, samie.committed as f64),
                "1/instr",
            );
            m.base(format!("{name}.calls_per_instr"), samie.committed);
        }
        for (what, n) in [("deadlocks", samie.deadlocks), ("nospace", samie.nospace)] {
            let name = format!("samie-lsq.samie.{what}_per_kinstr");
            m.put(
                &name,
                ratio(1e3 * n as f64, samie.committed as f64),
                "1/kinstr",
            );
            m.base(name, samie.committed);
        }

        let untraced_ns = self.untraced_measured.as_nanos() as f64;
        m.put(
            "ooo-sim.ns_per_cycle",
            ratio(untraced_ns, self.cycles as f64),
            "ns",
        );
        m.base("ooo-sim.ns_per_cycle", self.cycles);
        m.put(
            "ooo-sim.ns_per_stepped_cycle",
            ratio(untraced_ns, self.stepped as f64),
            "ns",
        );
        m.base("ooo-sim.ns_per_stepped_cycle", self.stepped);
        let all_cycles = self.stepped + self.skipped;
        m.put(
            "ooo-sim.skipped_frac",
            ratio(self.skipped as f64, all_cycles as f64),
            "fraction",
        );
        m.base("ooo-sim.skipped_frac", all_cycles);
        let total = total_ns(&self.stages);
        for stage in Stage::ALL {
            let st = &self.stages[stage as usize];
            let name = format!("ooo-sim.{}", stage.name());
            m.put(
                format!("{name}.self_share"),
                ratio(self_ns(st), total),
                "fraction",
            );
            m.base(format!("{name}.self_share"), st.samples);
            m.put(
                format!("{name}.events_per_instr"),
                ratio(st.events as f64, self.committed as f64),
                "1/instr",
            );
            m.base(format!("{name}.events_per_instr"), self.committed);
        }

        m.put(
            "spec-traces.ns_per_op",
            ratio(
                self.trace_ns as f64 - e * self.trace_calls as f64,
                self.trace_ops as f64,
            ),
            "ns",
        );
        m.base("spec-traces.ns_per_op", self.trace_ops);
        m.put(
            "spec-traces.ops_per_instr",
            ratio(self.trace_ops as f64, self.committed as f64),
            "1/instr",
        );
        m.base("spec-traces.ops_per_instr", self.committed);

        m.put(
            "mem-hier.l1d.accesses_per_instr",
            ratio(self.l1d.accesses() as f64, self.committed as f64),
            "1/instr",
        );
        m.base("mem-hier.l1d.accesses_per_instr", self.committed);
        for (name, misses, accesses) in [
            (
                "mem-hier.l1d.miss_ratio",
                self.l1d.misses(),
                self.l1d.accesses(),
            ),
            (
                "mem-hier.l2.miss_ratio",
                self.l2.misses(),
                self.l2.accesses(),
            ),
            (
                "mem-hier.dtlb.miss_ratio",
                self.dtlb_misses,
                self.dtlb_accesses,
            ),
        ] {
            m.put(name, ratio(misses as f64, accesses as f64), "fraction");
            m.base(name, accesses);
        }
    }
}

/// Replay address streams through `DataMemory::access` (a fresh paper
/// hierarchy per stream, conventional accesses); returns ns per access
/// and the number of accesses.
pub fn mem_ns_per_access(streams: &[Vec<(u64, bool)>]) -> (f64, u64) {
    let mut elapsed = Duration::ZERO;
    let mut accesses = 0u64;
    for stream in streams.iter().filter(|s| !s.is_empty()) {
        let mut mem = DataMemory::new(SimConfig::paper().mem);
        let t0 = Instant::now();
        for &(addr, is_store) in stream {
            let kind = if is_store {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            black_box(mem.access(black_box(addr), kind, DcacheAccessMode::CONVENTIONAL));
        }
        elapsed += t0.elapsed();
        accesses += stream.len() as u64;
    }
    (ratio(elapsed.as_nanos() as f64, accesses as f64), accesses)
}

/// Price every point's activity (LSQ, D-cache and D-TLB energy) in a
/// loop of at least 20 ms; returns µs per priced point and the prices
/// made.
pub fn energy_us_per_price(stats: &[SimStats]) -> (f64, u64) {
    if stats.is_empty() {
        return (0.0, 0);
    }
    let t0 = Instant::now();
    let mut prices = 0u64;
    while prices == 0 || t0.elapsed() < Duration::from_millis(20) {
        for s in stats {
            let s = black_box(s);
            black_box(
                price_lsq(&s.lsq).total()
                    + dcache_energy_nj(&s.l1d)
                    + dtlb_energy_nj(s.dtlb_accesses),
            );
            prices += 1;
        }
    }
    (
        ratio(t0.elapsed().as_secs_f64() * 1e6, prices as f64),
        prices,
    )
}
