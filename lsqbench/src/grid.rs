//! Simulation points and the serial passes that run them.

use std::rc::Rc;
use std::time::{Duration, Instant};

use exp_store::{ExperimentStore, PointKey, StoredPoint, SIM_VERSION};
use ooo_sim::{SimConfig, SimStats, Simulator};
use samie_lsq::DesignSpec;
use spec_traces::{all_benchmarks, find_workload, Workload};

use crate::speed::HostSpeed;
use crate::tracing::{
    Method, MethodStat, SamplingProbe, Shared, StageStat, TracedLsq, TracedTrace,
};

/// Warm-up and measured instructions of one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Instructions run (and discarded) before measuring.
    pub warmup: u64,
    /// Instructions in the measured interval.
    pub instrs: u64,
}

/// `samie-exp bench --quick`'s length, so `paper-grid` stays comparable
/// with `BENCH_baseline.json`.
pub const GRID_LENGTH: RunLength = RunLength {
    warmup: 30_000,
    instrs: 120_000,
};

/// A tenth of [`GRID_LENGTH`]: SAMIE on alias-storm steps 24 cycles per
/// instruction at ~2 µs each, so the full length would take ~8 s a point.
pub const STRESS_LENGTH: RunLength = RunLength {
    warmup: 3_000,
    instrs: 12_000,
};

/// The book's reduced length (`report --warmup 2500 --instrs 10000`).
pub const BOOK_LENGTH: RunLength = RunLength {
    warmup: 2_500,
    instrs: 10_000,
};

/// One simulation point: a design on a workload.
#[derive(Debug, Clone)]
pub struct Point {
    /// The LSQ design.
    pub design: DesignSpec,
    /// The workload whose trace drives it.
    pub workload: Workload,
}

impl Point {
    /// `design@workload`, the point's id in the expected digests.
    pub fn id(&self) -> String {
        format!("{}@{}", self.design, self.workload.name())
    }

    /// The key the experiment store files this point under.
    pub fn key(&self, seed: u64, len: RunLength) -> PointKey {
        PointKey {
            design: self.design.to_string(),
            workload: self.workload.cache_id(),
            seed,
            instrs: len.instrs,
            warmup: len.warmup,
            sim_config: SimConfig::paper().canonical(),
            sim_version: SIM_VERSION.to_string(),
        }
    }
}

fn cross(designs: &[DesignSpec], workloads: &[&str]) -> Vec<Point> {
    designs
        .iter()
        .flat_map(|d| {
            workloads.iter().map(move |w| Point {
                design: *d,
                workload: find_workload(w).expect("catalog workload"),
            })
        })
        .collect()
}

/// The points of a benchmark workload, or `None` for an unknown name.
///
/// * `paper-grid`: the paper trio on gzip, swim and ammp (the `bench`
///   grid).
/// * `lsq-stress`: conventional and SAMIE on the adversarial traces that
///   load the LSQ and the cycle loop.
/// * `book`: the book's paired suite, conventional and SAMIE on all 26
///   calibrated benchmarks.
pub fn points(workload: &str) -> Option<(Vec<Point>, RunLength)> {
    let conv = DesignSpec::conventional_paper();
    let samie = DesignSpec::samie_paper();
    match workload {
        "paper-grid" => Some((
            cross(&DesignSpec::paper_trio(), &["gzip", "swim", "ammp"]),
            GRID_LENGTH,
        )),
        "lsq-stress" => Some((
            cross(
                &[conv, samie],
                &[
                    "alias-storm",
                    "stream-storm",
                    "adversarial-mix",
                    "pointer-chase",
                ],
            ),
            STRESS_LENGTH,
        )),
        "book" => {
            let names: Vec<&str> = all_benchmarks().iter().map(|s| s.name).collect();
            Some((cross(&[conv, samie], &names), BOOK_LENGTH))
        }
        _ => None,
    }
}

/// Outcome of one untraced point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Statistics of the measured interval.
    pub stats: SimStats,
    /// Building the design, trace and simulator.
    pub setup: Duration,
    /// Warm-up plus measured interval.
    pub sim: Duration,
    /// The measured interval alone.
    pub measured: Duration,
    /// Resident memory at the end of the run, simulator still alive.
    pub rss_mib: f64,
}

impl PointRun {
    /// Instructions simulated: warm-up plus measured commits.
    pub fn simulated(&self, len: RunLength) -> u64 {
        len.warmup + self.stats.committed
    }
}

/// Build, warm up and run one point with no tracing.
pub fn run_point(p: &Point, seed: u64, len: RunLength) -> PointRun {
    let t0 = Instant::now();
    let mut sim = Simulator::new(
        SimConfig::paper(),
        p.design.build(),
        p.workload.build_trace(seed),
    );
    let t1 = Instant::now();
    sim.warm_up(len.warmup);
    let t2 = Instant::now();
    let stats = sim.run(len.instrs);
    let t3 = Instant::now();
    PointRun {
        stats,
        setup: t1 - t0,
        sim: t3 - t1,
        measured: t3 - t2,
        rss_mib: crate::host::rss_mib(),
    }
}

/// One serial pass over a grid.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per-point results, in grid order.
    pub runs: Vec<PointRun>,
    /// Set-up: opening the store plus every point's set-up.
    pub setup: Duration,
    /// Simulation (warm-up plus measured) over all points.
    pub sim: Duration,
    /// Storing the points.
    pub put: Duration,
    /// The whole pass: set-up, simulation and puts.
    pub wall: Duration,
    /// Instructions simulated.
    pub simulated: u64,
    /// Simulation time in reference-host seconds: each point's time
    /// divided by the host-speed factor measured right after it (equal to
    /// `sim` when the pass ran without calibration).
    pub sim_normalized: Duration,
}

impl Pass {
    /// The largest resident memory seen at the end of a point.
    pub fn peak_rss_mib(&self) -> f64 {
        self.runs.iter().map(|r| r.rss_mib).fold(0.0, f64::max)
    }

    /// Simulated instructions per host second, in millions.
    pub fn mips(&self) -> f64 {
        self.simulated as f64 / self.sim.as_secs_f64() / 1e6
    }

    /// Host-speed factor of the pass, weighted by each point's time (1
    /// without calibration).
    pub fn factor(&self) -> f64 {
        self.sim.as_secs_f64() / self.sim_normalized.as_secs_f64()
    }
}

/// Run every point serially, storing each into a new store at `store_dir`
/// when given (the grid's cold path), and running a calibration slice
/// after each point when `speed` is given (outside the timed parts).
pub fn run_pass(
    points: &[Point],
    seed: u64,
    len: RunLength,
    store_dir: Option<&std::path::Path>,
    mut speed: Option<&mut HostSpeed>,
) -> std::io::Result<Pass> {
    let t0 = Instant::now();
    let store = store_dir.map(ExperimentStore::open).transpose()?;
    let mut pass = Pass {
        setup: t0.elapsed(),
        ..Pass::default()
    };
    for p in points {
        let run = run_point(p, seed, len);
        pass.setup += run.setup;
        pass.sim += run.sim;
        pass.simulated += run.simulated(len);
        if let Some(store) = &store {
            let t = Instant::now();
            let point = StoredPoint {
                stats: run.stats.clone(),
                wall_nanos: run.sim.as_nanos() as u64,
                extras: Vec::new(),
            };
            store.put(&p.key(seed, len), &point)?;
            pass.put += t.elapsed();
        }
        let factor = speed.as_deref_mut().map_or(1.0, |s| s.factor_for(run.sim));
        pass.sim_normalized += run.sim.div_f64(factor);
        pass.runs.push(run);
    }
    pass.wall = pass.setup + pass.sim + pass.put;
    Ok(pass)
}

/// Tallies of one traced point.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Statistics of the measured interval (must equal the untraced run).
    pub stats: SimStats,
    /// Warm-up plus measured interval, tracing included.
    pub sim: Duration,
    /// Per-stage tallies of the measured interval.
    pub stages: [StageStat; 7],
    /// Stepped and skipped cycles of the measured interval.
    pub stepped: u64,
    pub skipped: u64,
    /// Per-LSQ-method tallies of the measured interval.
    pub methods: [MethodStat; Method::COUNT],
    /// Trace-source calls, ops and ns of the measured interval.
    pub trace_calls: u64,
    pub trace_ops: u64,
    pub trace_ns: u64,
    /// Memory references of the trace, `(address, is_store)`.
    pub mem_stream: Vec<(u64, bool)>,
}

/// Build, warm up and run one point with the LSQ and trace wrapped and
/// the sampling probe attached.
pub fn run_traced(p: &Point, seed: u64, len: RunLength) -> TracedRun {
    let shared = Rc::new(Shared::default());
    let mut sim = Simulator::new(
        SimConfig::paper(),
        TracedLsq::new(p.design.build(), Rc::clone(&shared)),
        TracedTrace::new(p.workload.build_trace(seed), Rc::clone(&shared)),
    );
    let t0 = Instant::now();
    sim.warm_up(len.warmup);
    sim.lsq().reset_counts();
    shared.reset_counts();
    let mut probe = SamplingProbe::new(Rc::clone(&shared));
    let stats = sim.run_with(len.instrs, &mut probe);
    let sim_time = t0.elapsed();
    TracedRun {
        stats,
        sim: sim_time,
        stages: probe.stages,
        stepped: probe.stepped,
        skipped: probe.skipped,
        methods: sim.lsq().method_stats(),
        trace_calls: shared.trace_calls.get(),
        trace_ops: shared.trace_ops.get(),
        trace_ns: shared.trace_ns.get(),
        mem_stream: shared.mem_stream.take(),
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
