//! Design-space sweep engine.
//!
//! The paper's result is fundamentally a *design-space* claim — SAMIE's
//! entries × ways × banks geometry trades IPC, energy and area against a
//! conventional CAM — but the figure harness only ever runs the single
//! Table 3 point. This module runs declarative grids over LSQ designs,
//! workloads and trace seeds:
//!
//! * designs are named by [`DesignSpec`] strings (`conv:128`,
//!   `filtered:128:1024:2`, `samie:64x2x8:sh8:ab64`, `arb:64x2:if128`,
//!   `unbounded`, `oracle`) or by any custom [`samie_lsq::LsqFactory`] —
//!   the grid carries opaque [`DesignHandle`]s, so custom designs sweep
//!   exactly like built-ins;
//! * [`SweepGrid`] — the cross product of designs × benchmarks × seeds
//!   plus a [`RunConfig`], expanded in deterministic order;
//! * [`run_sweep`] — executes the grid on the work-stealing
//!   [`parallel_map_with`](crate::runner::parallel_map_with()) scheduler
//!   with order-preserving collection;
//! * [`SweepReport`] — per-point IPC / deadlocks / energy / wall-time /
//!   simulated-instructions-per-second, emitted as CSV (via
//!   [`Table`]) and as machine-readable `BENCH_sweep.json`.
//!
//! Timing fields (`wall_ms`, `sim_ips`) are the only non-deterministic
//! outputs; [`SweepReport::to_json_deterministic`] zeroes them so equal
//! grids + seeds produce byte-identical JSON (the regression-tracking
//! invariant CI relies on).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use energy_model::price_lsq;
use ooo_sim::{SimConfig, SimStats};
use samie_lsq::{DesignHandle, DesignSpec, SamieConfig};
use spec_traces::{all_benchmarks, all_workloads, find_workload, Workload};

use crate::runner::{parallel_map_with, run_point, PointCache, RunConfig};
use crate::table::{fmt, Table};

/// A declarative sweep grid: the cross product of designs × workloads ×
/// seeds, simulated under one [`RunConfig`] length.
#[derive(Clone)]
pub struct SweepGrid {
    /// LSQ designs to sweep (shared factory handles; see
    /// [`DesignSpec::parse_list`] and [`designs_from_specs`]).
    pub designs: Vec<DesignHandle>,
    /// Workloads to run each design on — calibrated benchmarks,
    /// adversarial generators and `.strc` replays sweep alike.
    pub benchmarks: Vec<Workload>,
    /// Trace seeds (each multiplies the grid).
    pub seeds: Vec<u64>,
    /// Simulation length (its `seed` field is ignored; `seeds` governs).
    pub rc: RunConfig,
    /// Core configuration every point simulates under (store keys hash
    /// its canonical form, so grids with different configs never alias).
    pub cfg: SimConfig,
}

/// Sets one [`SimConfig`] field from a `--cfg` value.
type SetField = fn(&mut SimConfig, u64);

/// The [`SweepGrid::parse_cfg`] keys, in [`SimConfig::canonical`] order,
/// each with the field it sets.
const CFG_KEYS: [(&str, SetField); 12] = [
    ("fw", |c, v| c.fetch_width = v as u32),
    ("dw", |c, v| c.dispatch_width = v as u32),
    ("iwi", |c, v| c.issue_width_int = v as u32),
    ("iwf", |c, v| c.issue_width_fp = v as u32),
    ("cw", |c, v| c.commit_width = v as u32),
    ("fq", |c, v| c.fetch_queue = v as usize),
    ("rob", |c, v| c.rob_size = v as usize),
    ("iqi", |c, v| c.iq_int = v as usize),
    ("iqf", |c, v| c.iq_fp = v as usize),
    ("mr", |c, v| c.mispredict_redirect = v as u32),
    ("ports", |c, v| c.mem_ports = v as u32),
    ("wd", |c, v| c.watchdog_cycles = v),
];

/// Lift typed [`DesignSpec`]s into the handles a grid carries.
pub fn designs_from_specs(specs: impl IntoIterator<Item = DesignSpec>) -> Vec<DesignHandle> {
    specs
        .into_iter()
        .map(|s| Arc::new(s) as DesignHandle)
        .collect()
}

impl SweepGrid {
    /// A one-seed grid (`rc.seed`) under the paper core configuration —
    /// the shape of every book batch, keyed exactly like a `sweep` of the
    /// same designs and workloads.
    pub fn paper(
        designs: impl IntoIterator<Item = DesignSpec>,
        benchmarks: Vec<Workload>,
        rc: RunConfig,
    ) -> Self {
        SweepGrid {
            designs: designs_from_specs(designs),
            benchmarks,
            seeds: vec![rc.seed],
            rc,
            cfg: SimConfig::paper(),
        }
    }

    /// The default `sweep` grid: a SAMIE/conventional geometry ladder
    /// over the 26-benchmark calibrated suite.
    pub fn sweep_default(rc: RunConfig) -> Self {
        let ladder = [
            DesignSpec::Conventional { entries: 64 },
            DesignSpec::Conventional { entries: 128 },
            DesignSpec::filtered_paper(),
            DesignSpec::Samie(SamieConfig {
                banks: 32,
                ..SamieConfig::paper()
            }),
            DesignSpec::samie_paper(),
            DesignSpec::Samie(SamieConfig {
                entries_per_bank: 4,
                ..SamieConfig::paper()
            }),
        ];
        let suite = all_benchmarks().iter().map(Workload::from).collect();
        SweepGrid::paper(ladder, suite, rc)
    }

    /// The default `bench` grid: the paper trio on one integer, one
    /// floating-point and the pathological benchmark.
    pub fn bench_default(rc: RunConfig) -> Self {
        let benches = ["gzip", "swim", "ammp"]
            .iter()
            .map(|n| find_workload(n).expect("catalog benchmark"))
            .collect();
        SweepGrid::paper(DesignSpec::paper_trio(), benches, rc)
    }

    /// Parse a comma-separated workload list. `all` expands to the full
    /// catalog (calibrated suite + adversarial pack); names resolve
    /// case-insensitively with "did you mean" errors; `@path/to/file.strc`
    /// loads a recorded trace for replay. An empty list is an error.
    pub fn parse_benchmarks(list: &str) -> Result<Vec<Workload>, String> {
        if list == "all" {
            return Ok(all_workloads());
        }
        let benchmarks: Vec<Workload> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|n| match n.strip_prefix('@') {
                Some("") => Err("`@` needs a trace path, e.g. `@results/gzip-s42.strc`".into()),
                Some(path) => Workload::replay_file(std::path::Path::new(path))
                    .map_err(|e| format!("cannot replay `{path}`: {e}")),
                None => find_workload(n).map_err(|e| e.to_string()),
            })
            .collect::<Result<_, _>>()?;
        if benchmarks.is_empty() {
            return Err("needs at least one workload".into());
        }
        Ok(benchmarks)
    }

    /// Parse `key:value,...` core-configuration overrides onto
    /// [`SimConfig::paper`]. The keys are the field tags of
    /// [`SimConfig::canonical`] (`rob:128` shrinks the reorder buffer,
    /// `ports:2` halves the d-cache ports, ...), so a grid names exactly
    /// the configuration its store keys hash. Unknown or repeated keys,
    /// non-numbers, values that overflow their field and overrides that
    /// fail [`SimConfig::validate`] are errors.
    pub fn parse_cfg(list: &str) -> Result<SimConfig, String> {
        let mut cfg = SimConfig::paper();
        let mut seen = Vec::new();
        for item in list.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once(':')
                .ok_or_else(|| format!("expected key:value, got `{item}`"))?;
            let Some(&(_, set)) = CFG_KEYS.iter().find(|(k, _)| *k == key) else {
                let known: Vec<&str> = CFG_KEYS.iter().map(|(k, _)| *k).collect();
                return Err(format!("unknown key `{key}` (known: {})", known.join(", ")));
            };
            if seen.contains(&key) {
                return Err(format!("duplicate key `{key}`"));
            }
            seen.push(key);
            let value: u64 = value
                .parse()
                .map_err(|_| format!("`{key}` needs a number, got `{item}`"))?;
            // Every key except `wd` lands in a `u32`/`usize` field: reject
            // values the cast would wrap.
            if key != "wd" && value > u64::from(u32::MAX) {
                return Err(format!("`{key}:{value}` exceeds the field's range"));
            }
            set(&mut cfg, value);
        }
        cfg.validate()
            .map_err(|e| format!("overrides produce an invalid configuration: {e}"))?;
        Ok(cfg)
    }

    /// Expand the grid into points, seed-major then design-major then
    /// benchmark-major — the deterministic order of every report row.
    pub fn expand(&self) -> Vec<(DesignHandle, Workload, u64)> {
        let mut points =
            Vec::with_capacity(self.seeds.len() * self.designs.len() * self.benchmarks.len());
        for &seed in &self.seeds {
            for design in &self.designs {
                for bench in &self.benchmarks {
                    points.push((Arc::clone(design), bench.clone(), seed));
                }
            }
        }
        points
    }
}

/// The measured result of one grid point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Canonical design id ([`samie_lsq::LsqFactory::id`]).
    pub design: String,
    /// Workload name.
    pub bench: String,
    /// Trace seed.
    pub seed: u64,
    /// Instructions simulated including warm-up (the throughput
    /// denominator).
    pub instructions: u64,
    /// Statistics of the measured interval. Every derived column (IPC,
    /// energy) is a pure function of these integer counters, so a point
    /// served from the store reports byte-identically to a fresh one.
    pub stats: SimStats,
    /// Host wall-clock time of the run.
    pub wall: Duration,
}

/// Shortest wall time `sim_ips` trusts. Host timers legitimately report
/// a cached or trivially small point in microseconds; dividing by that
/// yields billions of instr/s, which would poison the `--baseline`
/// worst-point gate. Clamping the denominator bounds the reported
/// throughput instead of letting it explode.
pub const MIN_TRUSTED_WALL: Duration = Duration::from_millis(1);

impl SweepPoint {
    /// Committed IPC over the measured interval.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Measured cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// §3.3 deadlock-avoidance flushes.
    pub fn deadlock_flushes(&self) -> u64 {
        self.stats.deadlock_flushes
    }

    /// Flushes because an address fit nowhere.
    pub fn nospace_flushes(&self) -> u64 {
        self.stats.nospace_flushes
    }

    /// LSQ dynamic energy over the measured interval (nJ).
    pub fn lsq_energy_nj(&self) -> f64 {
        price_lsq(&self.stats.lsq).total()
    }

    /// Simulated instructions per host second. A wall time below
    /// [`MIN_TRUSTED_WALL`] is clamped up to it — a zero or sub-ms
    /// measurement reports a bounded throughput, never an absurd one.
    pub fn sim_ips(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.instructions as f64 / self.wall.max(MIN_TRUSTED_WALL).as_secs_f64()
    }
}

/// How [`run_sweep`] executes a grid.
#[derive(Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// Worker threads (0 = all available cores).
    pub jobs: usize,
    /// Experiment-store cache to consult and fill (`None` = simulate
    /// every point).
    pub cache: Option<&'a PointCache>,
}

/// Execute a grid. Points are distributed through the work-stealing
/// queue on `opts.jobs` threads and collected in deterministic
/// [`SweepGrid::expand`] order.
///
/// With a cache, every point is looked up first and only misses are
/// simulated (and recorded the moment they finish, so an interrupted
/// sweep resumes where it stopped). The report rows are byte-identical
/// to an uncached sweep — cache hits rebuild the row from the stored
/// integer counters; only the wall-clock columns differ (a hit reports
/// the *original* compute time, which is what the warm-speedup figure
/// sums).
pub fn run_sweep(grid: &SweepGrid, opts: &SweepOptions<'_>) -> SweepReport {
    let points = grid.expand();
    let t0 = Instant::now();
    let results = parallel_map_with(opts.jobs, &points, |(design, bench, seed)| {
        let rc = RunConfig {
            seed: *seed,
            ..grid.rc
        };
        let (point, hit) = run_point(opts.cache, design, bench, &rc, grid.cfg, &[], |_| {
            Vec::new()
        });
        let point = SweepPoint {
            design: design.id(),
            bench: bench.name().to_string(),
            seed: *seed,
            instructions: rc.warmup + point.stats.committed,
            stats: point.stats,
            wall: Duration::from_nanos(point.wall_nanos),
        };
        (point, hit)
    });
    let wall = t0.elapsed();
    let hit_walls: Vec<Duration> = results.iter().filter(|r| r.1).map(|r| r.0.wall).collect();
    SweepReport {
        mode: "sweep",
        rc: grid.rc,
        wall,
        hits: hit_walls.len(),
        misses: results.len() - hit_walls.len(),
        saved: hit_walls.into_iter().sum(),
        points: results.into_iter().map(|r| r.0).collect(),
    }
}

/// A completed sweep: every point plus aggregate timing.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// `"sweep"` or `"bench"` (stamped into the JSON).
    pub mode: &'static str,
    /// Simulation length the grid ran under.
    pub rc: RunConfig,
    /// End-to-end wall time of the whole grid (≤ sum of point walls when
    /// workers run in parallel).
    pub wall: Duration,
    /// Points served from the experiment store (0 for uncached sweeps).
    pub hits: usize,
    /// Points actually simulated this run.
    pub misses: usize,
    /// Recorded compute time the hits avoided (the "cold" cost of the
    /// cached points); `saved / wall` is the warm-speedup figure.
    pub saved: Duration,
    /// Per-point results, in grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// How much faster this (partially) warm run was than recomputing the
    /// cached points: recorded cold time of the hits over this run's
    /// grid wall time. 0 when nothing was cached.
    pub fn warm_speedup(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.saved.as_secs_f64() / w
        }
    }

    /// One-line cache summary for console output.
    pub fn cache_summary(&self) -> String {
        format!(
            "cache: {} hits / {} misses; saved ~{:.2} s of simulation (warm speedup ~{:.0}x)",
            self.hits,
            self.misses,
            self.saved.as_secs_f64(),
            self.warm_speedup()
        )
    }
    /// Total simulated instructions across all points.
    pub fn total_instructions(&self) -> u64 {
        self.points.iter().map(|p| p.instructions).sum()
    }

    /// Aggregate simulated instructions per host second (the headline
    /// throughput number tracked by CI).
    pub fn total_sim_ips(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total_instructions() as f64 / s
        }
    }

    /// The report as a [`Table`] (console rendering + CSV).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Sweep - {} designs x workloads x seeds", self.mode),
            &[
                "design",
                "bench",
                "seed",
                "ipc",
                "cycles",
                "instructions",
                "deadlocks",
                "nospace",
                "lsq_energy_nj",
                "wall_ms",
                "sim_mips",
            ],
        );
        for p in &self.points {
            t.push_row(vec![
                p.design.clone(),
                p.bench.clone(),
                p.seed.to_string(),
                fmt(p.ipc(), 4),
                p.cycles().to_string(),
                p.instructions.to_string(),
                p.deadlock_flushes().to_string(),
                p.nospace_flushes().to_string(),
                fmt(p.lsq_energy_nj(), 1),
                fmt(p.wall.as_secs_f64() * 1e3, 1),
                fmt(p.sim_ips() / 1e6, 3),
            ]);
        }
        t
    }

    /// [`table`](Self::table) with the two wall-clock columns
    /// (`wall_ms`, `sim_mips`) zeroed — the CSV determinism contract:
    /// equal grids + seeds produce byte-identical output regardless of
    /// host, worker count, or whether the points came from the store.
    pub fn table_deterministic(&self) -> Table {
        let mut t = self.table();
        for row in &mut t.rows {
            let n = row.len();
            row[n - 2] = fmt(0.0, 1);
            row[n - 1] = fmt(0.0, 3);
        }
        t
    }

    /// Machine-readable JSON (schema `samie-bench-v1`), including the
    /// non-deterministic timing fields.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON with every timing field zeroed: same grid + same seeds →
    /// byte-identical output (the determinism contract CI and the tests
    /// rely on).
    pub fn to_json_deterministic(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timing: bool) -> String {
        let ms = |d: Duration| if timing { d.as_secs_f64() * 1e3 } else { 0.0 };
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"samie-bench-v1\",");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(
            out,
            "  \"run_config\": {{\"instrs\": {}, \"warmup\": {}}},",
            self.rc.instrs, self.rc.warmup
        );
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"design\": \"{}\", \"bench\": \"{}\", \"seed\": {}, \
                 \"ipc\": {:.6}, \"cycles\": {}, \"instructions\": {}, \
                 \"deadlock_flushes\": {}, \"nospace_flushes\": {}, \
                 \"lsq_energy_nj\": {:.3}, \"wall_ms\": {:.3}, \"sim_ips\": {:.0}}}",
                p.design,
                p.bench,
                p.seed,
                p.ipc(),
                p.cycles(),
                p.instructions,
                p.deadlock_flushes(),
                p.nospace_flushes(),
                p.lsq_energy_nj(),
                ms(p.wall),
                if timing { p.sim_ips() } else { 0.0 },
            );
            out.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"total\": {{\"instructions\": {}, \"wall_ms\": {:.3}, \"total_sim_ips\": {:.0}}}",
            self.total_instructions(),
            ms(self.wall),
            if timing { self.total_sim_ips() } else { 0.0 },
        );
        out.push_str("}\n");
        out
    }

    /// Write `<dir>/BENCH_sweep.json` (and the CSV next to it), plus the
    /// deterministic companions `BENCH_sweep.det.json` /
    /// `BENCH_sweep.det.csv` with every timing field zeroed — those two
    /// are byte-comparable across runs, hosts and worker counts (`diff`
    /// them to prove a cached sweep equals a cold one).
    /// Returns the JSON path.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("BENCH_sweep.json");
        std::fs::write(&path, self.to_json())?;
        self.table().write_csv(dir)?;
        std::fs::write(
            dir.join("BENCH_sweep.det.json"),
            self.to_json_deterministic(),
        )?;
        std::fs::write(
            dir.join("BENCH_sweep.det.csv"),
            self.table_deterministic().to_csv(),
        )?;
        Ok(path)
    }
}

/// Every number following `"key":` in a `BENCH_sweep.json`, in order
/// (hand-rolled — the workspace has no JSON dependency, and the schema
/// is ours). Unparseable values are skipped.
fn json_numbers<'j>(json: &'j str, key: &'j str) -> impl Iterator<Item = f64> + 'j {
    json.match_indices(key).filter_map(move |(at, _)| {
        let rest = json[at + key.len()..].trim_start();
        let end = rest
            .find(|c: char| {
                !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
            })
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    })
}

/// Extract `"total_sim_ips": N` from a `BENCH_sweep.json`.
pub fn baseline_total_sim_ips(json: &str) -> Option<f64> {
    json_numbers(json, "\"total_sim_ips\":").next()
}

/// Extract every per-point `"sim_ips": N` from a `BENCH_sweep.json` and
/// return the worst (smallest) strictly-positive one. `None` when the
/// baseline has no positive per-point throughput (e.g. a
/// timing-zeroed deterministic JSON) — the per-point gate is then moot.
pub fn baseline_worst_point_sim_ips(json: &str) -> Option<f64> {
    // The totals block uses the distinct key `total_sim_ips`, so a plain
    // scan over `"sim_ips":` sees exactly the per-point values.
    json_numbers(json, "\"sim_ips\":")
        .filter(|&v| v > 0.0)
        .reduce(f64::min)
}

/// Compare a fresh report against a checked-in baseline: `Ok` unless
/// throughput regressed by more than `factor` (CI uses 2.0 — only a
/// *gross* regression fails the smoke job, since runner hardware
/// varies). Two gates, both required:
///
/// * **aggregate** — the report's `total_sim_ips` vs the baseline's;
/// * **worst point** — the slowest per-point `sim_ips` vs the
///   baseline's slowest. The aggregate alone lets one pathological
///   design/workload point regress 10× while the other points hide it;
///   the worst-point gate catches exactly that.
pub fn check_regression(
    report: &SweepReport,
    baseline_json: &str,
    factor: f64,
) -> Result<String, String> {
    let Some(base) = baseline_total_sim_ips(baseline_json) else {
        return Err("baseline JSON has no total_sim_ips field".into());
    };
    let now = report.total_sim_ips();
    let ratio = if base > 0.0 {
        now / base
    } else {
        f64::INFINITY
    };
    let mut msg = format!(
        "throughput {:.2} Msim-instr/s vs baseline {:.2} Msim-instr/s ({ratio:.2}x)",
        now / 1e6,
        base / 1e6
    );
    if base > 0.0 && now * factor < base {
        return Err(msg);
    }
    // Worst-point gate: only when both sides have positive per-point
    // throughput to compare.
    if let Some(worst_base) = baseline_worst_point_sim_ips(baseline_json) {
        let worst_now = report
            .points
            .iter()
            .map(SweepPoint::sim_ips)
            .fold(f64::INFINITY, f64::min);
        if worst_now.is_finite() {
            let _ = write!(
                msg,
                "; worst point {:.2} vs baseline worst {:.2} Msim-instr/s",
                worst_now / 1e6,
                worst_base / 1e6
            );
            if worst_now * factor < worst_base {
                return Err(msg);
            }
        }
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_designs(list: &str) -> Vec<DesignHandle> {
        designs_from_specs(DesignSpec::parse_list(list).unwrap())
    }

    #[test]
    fn parse_list_and_benchmarks() {
        let ds = parse_designs("conv:64,samie");
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].id(), "conv:64");
        assert!(DesignSpec::parse_list("conv:64,bogus").is_err());
        // `all` covers the calibrated suite plus the adversarial pack.
        let all = SweepGrid::parse_benchmarks("all").unwrap();
        assert_eq!(all.len(), spec_traces::workload_names().len());
        assert!(all.len() > 26);
        let bs = SweepGrid::parse_benchmarks("gzip,swim,ALIAS-STORM").unwrap();
        assert_eq!(bs[1].name(), "swim");
        assert_eq!(bs[2].name(), "alias-storm", "case-insensitive");
        let err = SweepGrid::parse_benchmarks("gziip").unwrap_err();
        assert!(err.contains("did you mean `gzip`"), "{err}");
        assert!(SweepGrid::parse_benchmarks("@no/such/file.strc").is_err());
        for empty in ["", ","] {
            let err = SweepGrid::parse_benchmarks(empty).unwrap_err();
            assert!(err.contains("at least one workload"), "{err}");
        }
        let err = SweepGrid::parse_benchmarks("gzip,@").unwrap_err();
        assert!(err.contains("needs a trace path"), "{err}");
    }

    #[test]
    fn default_grids_match_the_paper_grids() {
        let rc = RunConfig::quick();
        let sweep = SweepGrid::sweep_default(rc);
        assert_eq!(sweep.designs.len(), 6);
        assert_eq!(sweep.benchmarks.len(), 26);
        assert_eq!(sweep.expand().len(), 6 * 26);
        let bench = SweepGrid::bench_default(rc);
        let ids: Vec<String> = bench.designs.iter().map(|d| d.id()).collect();
        assert_eq!(
            ids,
            ["conv:128", "filtered:128:1024:2", "samie:64x2x8:sh8:ab64"]
        );
        let names: Vec<&str> = bench.benchmarks.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["gzip", "swim", "ammp"]);
        for grid in [&sweep, &bench] {
            assert_eq!(grid.seeds, [rc.seed]);
            assert_eq!(grid.rc.instrs, rc.instrs);
            assert_eq!(grid.cfg.canonical(), SimConfig::paper().canonical());
        }
    }

    #[test]
    fn replaced_axes_expand_the_cross_product() {
        // `sweep --designs conv:32,samie --bench gzip,swim --seeds 1,2
        // --instrs 1000` replaces three axes of the default grid.
        let rc = RunConfig {
            instrs: 1000,
            ..RunConfig::quick()
        };
        let mut grid = SweepGrid::sweep_default(rc);
        grid.designs = parse_designs("conv:32,samie");
        grid.benchmarks = SweepGrid::parse_benchmarks("gzip,swim").unwrap();
        grid.seeds = vec![1, 2];
        assert_eq!(grid.expand().len(), 2 * 2 * 2);
        assert_eq!(grid.rc.instrs, 1000);
        assert_eq!(grid.cfg.canonical(), SimConfig::paper().canonical());
    }

    #[test]
    fn cfg_overrides_apply_to_the_paper_config() {
        // The rejection cases run through the CLI, in tests/cli_usage.rs.
        let c = SweepGrid::parse_cfg("rob:128,ports:2").unwrap();
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.mem_ports, 2);
        assert_eq!(c.fetch_width, SimConfig::paper().fetch_width);
        // Key order is immaterial: the store key hashes the whole config.
        let swapped = SweepGrid::parse_cfg("ports:2,rob:128").unwrap();
        assert_eq!(swapped.canonical(), c.canonical());
        let none = SweepGrid::parse_cfg("").unwrap();
        assert_eq!(none.canonical(), SimConfig::paper().canonical());
    }

    #[test]
    fn grid_expands_in_deterministic_order() {
        let rc = RunConfig {
            instrs: 1000,
            warmup: 100,
            seed: 1,
        };
        let grid = SweepGrid {
            designs: parse_designs("conv:32,samie"),
            benchmarks: SweepGrid::parse_benchmarks("gzip,gcc").unwrap(),
            seeds: vec![1, 2],
            rc,
            cfg: SimConfig::paper(),
        };
        let pts = grid.expand();
        assert_eq!(pts.len(), 8);
        assert_eq!((pts[0].1.name(), pts[0].2), ("gzip", 1));
        assert_eq!((pts[1].1.name(), pts[1].2), ("gcc", 1));
        assert_eq!(pts[4].2, 2, "seed-major ordering");
        assert_eq!(
            pts[0].0.id(),
            "conv:32",
            "design handles travel with points"
        );
    }

    #[test]
    fn small_sweep_produces_valid_report() {
        let rc = RunConfig {
            instrs: 8_000,
            warmup: 2_000,
            seed: 7,
        };
        let grid = SweepGrid::paper(
            DesignSpec::paper_trio(),
            SweepGrid::parse_benchmarks("gzip").unwrap(),
            rc,
        );
        let report = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 1,
                ..Default::default()
            },
        );
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert!(p.ipc() > 0.1, "{}: ipc {}", p.design, p.ipc());
            assert_eq!(p.instructions, 10_000);
            assert!(p.lsq_energy_nj() > 0.0);
        }
        assert!(report.total_sim_ips() > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"samie-bench-v1\""));
        assert!(json.contains("\"total_sim_ips\""));
        let base = baseline_total_sim_ips(&json).unwrap();
        assert!((base - report.total_sim_ips()).abs() <= 1.0);
    }

    #[test]
    fn custom_registered_design_sweeps_like_builtins() {
        use samie_lsq::{LoadStoreQueue, LsqFactory};
        struct Tiny;
        impl LsqFactory for Tiny {
            fn id(&self) -> String {
                "tiny".into()
            }
            fn build(&self) -> Box<dyn LoadStoreQueue> {
                DesignSpec::Conventional { entries: 8 }.build()
            }
        }
        let rc = RunConfig {
            instrs: 6_000,
            warmup: 1_000,
            seed: 7,
        };
        let grid = SweepGrid {
            designs: vec![Arc::new(Tiny), Arc::new(DesignSpec::conventional_paper())],
            benchmarks: SweepGrid::parse_benchmarks("gzip").unwrap(),
            seeds: vec![7],
            rc,
            cfg: SimConfig::paper(),
        };
        let report = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.points[0].design, "tiny");
        assert!(
            report.points[0].ipc() <= report.points[1].ipc() + 1e-9,
            "an 8-entry LSQ cannot beat the 128-entry baseline"
        );
    }

    #[test]
    fn cached_sweep_matches_cold_sweep_byte_for_byte() {
        let dir = std::env::temp_dir().join("samie-sweep-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(&dir).unwrap();
        let rc = RunConfig {
            instrs: 6_000,
            warmup: 1_000,
            seed: 9,
        };
        let grid = SweepGrid::paper(
            DesignSpec::paper_trio(),
            SweepGrid::parse_benchmarks("gzip,swim").unwrap(),
            rc,
        );
        let plain = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 1,
                ..Default::default()
            },
        );
        let cold = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 1,
                cache: Some(&cache),
            },
        );
        let warm = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: Some(&cache),
            },
        );
        assert_eq!((cold.hits, cold.misses), (0, 6));
        assert_eq!((warm.hits, warm.misses), (6, 0));
        assert!(warm.saved > Duration::ZERO);
        let json = plain.to_json_deterministic();
        assert_eq!(json, cold.to_json_deterministic());
        assert_eq!(json, warm.to_json_deterministic());
        assert!(warm.cache_summary().contains("6 hits / 0 misses"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A synthetic point with a controllable wall time.
    fn synthetic_point(design: &str, instructions: u64, wall: Duration) -> SweepPoint {
        SweepPoint {
            design: design.to_string(),
            bench: "gzip".to_string(),
            seed: 1,
            instructions,
            stats: SimStats::default(),
            wall,
        }
    }

    #[test]
    fn sim_ips_is_bounded_for_sub_ms_walls() {
        // 150k instructions in 10 ns would naively report 15 Tinstr/s;
        // the clamp caps the rate at instructions-per-MIN_TRUSTED_WALL.
        let absurd = synthetic_point("conv:32", 150_000, Duration::from_nanos(10));
        let cap = 150_000.0 / MIN_TRUSTED_WALL.as_secs_f64();
        assert_eq!(absurd.sim_ips(), cap);
        // Zero wall (a never-measured point) stays zero, not infinity.
        assert_eq!(
            synthetic_point("conv:32", 150_000, Duration::ZERO).sim_ips(),
            0.0
        );
        // Trustworthy walls are untouched.
        let normal = synthetic_point("conv:32", 150_000, Duration::from_millis(50));
        assert!((normal.sim_ips() - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn regression_check_gates_the_worst_point_not_just_the_aggregate() {
        let rc = RunConfig {
            instrs: 10_000,
            warmup: 0,
            seed: 1,
        };
        // Synthetic two-point report: one healthy point, one point that
        // regressed ~8x (40k instrs in 100 ms = 0.4 Msim-instr/s).
        let report = SweepReport {
            mode: "bench",
            rc,
            wall: Duration::from_millis(120),
            hits: 0,
            misses: 2,
            saved: Duration::ZERO,
            points: vec![
                synthetic_point("conv:128", 60_000, Duration::from_millis(20)),
                synthetic_point("samie:64x2x8:sh8:ab64", 40_000, Duration::from_millis(100)),
            ],
        };
        // Baseline where both points ran at ~3 Msim-instr/s. Aggregate:
        // baseline 0.83 vs fresh 0.83 Msim-instr/s (same wall) — passes.
        let baseline = r#"{
          "points": [
            {"design": "conv:128", "sim_ips": 3000000},
            {"design": "samie:64x2x8:sh8:ab64", "sim_ips": 3200000}
          ],
          "total": {"total_sim_ips": 833000}
        }"#;
        assert_eq!(baseline_worst_point_sim_ips(baseline), Some(3_000_000.0));
        // The aggregate gate alone would pass (0.83M vs 0.83M), but the
        // worst point (0.4M) regressed more than 2x vs the baseline's
        // worst (3.0M) — the check must fail.
        let err = check_regression(&report, baseline, 2.0).unwrap_err();
        assert!(err.contains("worst point"), "{err}");
        // With a generous factor the same report passes both gates.
        assert!(check_regression(&report, baseline, 10.0).is_ok());
        // A timing-zeroed baseline (det.json) has no positive per-point
        // values: the worst-point gate is skipped, not tripped.
        let det = r#"{
          "points": [{"design": "conv:128", "sim_ips": 0}],
          "total": {"total_sim_ips": 833000}
        }"#;
        assert_eq!(baseline_worst_point_sim_ips(det), None);
        assert!(check_regression(&report, det, 2.0).is_ok());
    }

    #[test]
    fn regression_check_thresholds() {
        let rc = RunConfig {
            instrs: 4_000,
            warmup: 1_000,
            seed: 7,
        };
        let grid = SweepGrid::paper(
            [DesignSpec::Conventional { entries: 32 }],
            SweepGrid::parse_benchmarks("gzip").unwrap(),
            rc,
        );
        let report = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 1,
                ..Default::default()
            },
        );
        let fast = format!(
            "{{\"total\": {{\"total_sim_ips\": {:.0}}}}}",
            report.total_sim_ips() * 10.0
        );
        let slow = format!(
            "{{\"total\": {{\"total_sim_ips\": {:.0}}}}}",
            report.total_sim_ips() / 10.0
        );
        assert!(
            check_regression(&report, &fast, 2.0).is_err(),
            "10x slower than baseline"
        );
        assert!(
            check_regression(&report, &slow, 2.0).is_ok(),
            "10x faster than baseline"
        );
        assert!(
            check_regression(&report, "{}", 2.0).is_err(),
            "missing field"
        );
    }
}
