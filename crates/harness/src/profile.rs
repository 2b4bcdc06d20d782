//! `samie-exp profile` — where does simulation wall time go?
//!
//! Runs a grid of designs × workloads with [`ooo_sim::ProfilingProbe`]
//! plugged into the pipeline, attributing wall nanoseconds and work
//! events to each stage (fetch / dispatch / issue / execute / memory
//! forward / commit, plus the LSQ tick-and-search path) and counting how
//! many cycles the event-driven skipper jumped over. Emits
//! `PROFILE_report.json` (schema `samie-profile-v1`) and
//! `PROFILE_report.md` — a Markdown attribution table per point plus an
//! aggregate across the grid.
//!
//! The probe brackets every stage with [`crate::runner::clock_nanos`]
//! (the harness's sanctioned monotonic clock; the simulator itself never
//! reads host time). Warm-up runs unprofiled — attribution covers
//! exactly the measured interval. Probe overhead (two clock reads per
//! stage per stepped cycle) inflates the absolute numbers a little, so
//! compare *shares*, not `samie-exp bench` throughput.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use ooo_sim::{ProfilingProbe, SimStats, Simulator, Stage, StageProfile};
use samie_lsq::LoadStoreQueue;
use spec_traces::Workload;

use crate::runner::clock_nanos;
use crate::sweep::SweepGrid;
use crate::table::{fmt, Table};

/// One profiled grid point.
#[derive(Debug, Clone)]
pub struct ProfilePoint {
    /// Canonical design id.
    pub design: String,
    /// Workload name.
    pub workload: String,
    /// Trace seed.
    pub seed: u64,
    /// Per-stage attribution of the measured interval.
    pub profile: StageProfile,
    /// Instructions committed in the measured interval.
    pub committed: u64,
}

/// The completed profile run, ready to render.
#[derive(Debug)]
pub struct ProfileReport {
    /// Instructions measured per point.
    pub instrs: u64,
    /// Warm-up instructions per point (unprofiled).
    pub warmup: u64,
    /// Per-point attributions, grid order.
    pub points: Vec<ProfilePoint>,
}

/// Profile every point of `grid` serially (parallel points would fight
/// for cores and corrupt each other's wall-time attribution).
pub fn run_profile(grid: &SweepGrid) -> ProfileReport {
    let mut points = Vec::new();
    for design in &grid.designs {
        for workload in &grid.benchmarks {
            for &seed in &grid.seeds {
                let rc_seeded = crate::runner::RunConfig { seed, ..grid.rc };
                let (profile, stats) = profile_one(grid, design.build(), workload, &rc_seeded);
                points.push(ProfilePoint {
                    design: design.id(),
                    workload: workload.name().to_string(),
                    seed,
                    profile,
                    committed: stats.committed,
                });
            }
        }
    }
    ProfileReport {
        instrs: grid.rc.instrs,
        warmup: grid.rc.warmup,
        points,
    }
}

fn profile_one(
    grid: &SweepGrid,
    lsq: Box<dyn LoadStoreQueue>,
    workload: &Workload,
    rc: &crate::runner::RunConfig,
) -> (StageProfile, SimStats) {
    let mut sim = Simulator::new(grid.cfg, lsq, workload.build_trace(rc.seed));
    sim.warm_up(rc.warmup);
    let mut probe = ProfilingProbe::new(clock_nanos);
    let stats = sim.run_with(rc.instrs, &mut probe);
    (probe.profile, stats)
}

impl ProfileReport {
    /// Stage totals summed across every point, [`Stage::ALL`] order.
    pub fn stage_totals(&self) -> StageProfile {
        let mut total = StageProfile::default();
        for p in &self.points {
            for i in 0..Stage::ALL.len() {
                total.wall_ns[i] += p.profile.wall_ns[i];
                total.events[i] += p.profile.events[i];
            }
            total.stepped_cycles += p.profile.stepped_cycles;
            total.skipped_cycles += p.profile.skipped_cycles;
            total.skips += p.profile.skips;
        }
        total
    }

    /// Console/Markdown attribution table for one [`StageProfile`].
    pub fn stage_table(title: impl Into<String>, profile: &StageProfile) -> Table {
        let total_ns = profile.total_wall_ns().max(1);
        let mut t = Table::new(
            title,
            &["stage", "wall_ms", "share", "events", "ns_per_event"],
        );
        for stage in Stage::ALL {
            let ns = profile.wall_ns_of(stage);
            let ev = profile.events_of(stage);
            t.push_row(vec![
                stage.name().to_string(),
                fmt(ns as f64 / 1e6, 2),
                format!("{:.1}%", ns as f64 * 100.0 / total_ns as f64),
                ev.to_string(),
                if ev == 0 {
                    "-".to_string()
                } else {
                    fmt(ns as f64 / ev as f64, 1)
                },
            ]);
        }
        t
    }

    /// The aggregate table most runs want first.
    pub fn table(&self) -> Table {
        let totals = self.stage_totals();
        let mut t = Self::stage_table(
            format!(
                "Pipeline profile - {} points x {} instrs (stages x wall time)",
                self.points.len(),
                self.instrs
            ),
            &totals,
        );
        t.push_row(vec![
            "(cycles)".to_string(),
            fmt(totals.total_wall_ns() as f64 / 1e6, 2),
            format!(
                "skipped {:.1}%",
                totals.skipped_cycles as f64 * 100.0 / totals.total_cycles().max(1) as f64
            ),
            totals.total_cycles().to_string(),
            format!("{} skips", totals.skips),
        ]);
        t
    }

    /// Machine-readable JSON (schema `samie-profile-v1`).
    pub fn to_json(&self) -> String {
        fn stages_json(out: &mut String, indent: &str, p: &StageProfile) {
            let _ = writeln!(out, "{indent}\"stages\": {{");
            for (i, stage) in Stage::ALL.iter().enumerate() {
                let _ = write!(
                    out,
                    "{indent}  \"{}\": {{\"wall_ns\": {}, \"events\": {}}}",
                    stage.name(),
                    p.wall_ns[i],
                    p.events[i]
                );
                out.push_str(if i + 1 < Stage::ALL.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            let _ = writeln!(out, "{indent}}},");
            let _ = writeln!(out, "{indent}\"stepped_cycles\": {},", p.stepped_cycles);
            let _ = writeln!(out, "{indent}\"skipped_cycles\": {},", p.skipped_cycles);
            let _ = writeln!(out, "{indent}\"skips\": {},", p.skips);
        }
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"samie-profile-v1\",");
        let _ = writeln!(out, "  \"instrs\": {},", self.instrs);
        let _ = writeln!(out, "  \"warmup\": {},", self.warmup);
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"design\": \"{}\",", p.design);
            let _ = writeln!(out, "      \"bench\": \"{}\",", p.workload);
            let _ = writeln!(out, "      \"seed\": {},", p.seed);
            stages_json(&mut out, "      ", &p.profile);
            let _ = writeln!(out, "      \"committed\": {}", p.committed);
            out.push_str(if i + 1 < self.points.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        let totals = self.stage_totals();
        out.push_str("  \"totals\": {\n");
        stages_json(&mut out, "    ", &totals);
        let _ = writeln!(out, "    \"wall_ns\": {}", totals.total_wall_ns());
        out.push_str("  }\n}\n");
        out
    }

    /// The Markdown report: aggregate attribution, then one table per
    /// profiled point.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Pipeline profile\n\n");
        let _ = writeln!(
            out,
            "{} instructions measured per point after {} warm-up \
             (warm-up unprofiled). Wall time is attributed per pipeline \
             stage by the `samie-exp profile` probe; `lsq_tick` is the \
             LSQ promotion/search path.\n",
            self.instrs, self.warmup
        );
        let aggregate = self.table();
        let _ = writeln!(out, "## {}\n", aggregate.title);
        out.push_str(&aggregate.to_markdown());
        out.push('\n');
        for p in &self.points {
            let t = Self::stage_table(
                format!("{} on {} (seed {})", p.design, p.workload, p.seed),
                &p.profile,
            );
            let _ = writeln!(out, "## {}\n", t.title);
            out.push_str(&t.to_markdown());
            let _ = writeln!(
                out,
                "\n{} committed; {} cycles stepped, {} skipped in {} jumps.\n",
                p.committed, p.profile.stepped_cycles, p.profile.skipped_cycles, p.profile.skips
            );
        }
        out
    }

    /// Write `PROFILE_report.json` + `PROFILE_report.md` under `dir`;
    /// returns the JSON path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("PROFILE_report.json");
        std::fs::write(&path, self.to_json())?;
        std::fs::write(dir.join("PROFILE_report.md"), self.to_markdown())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::sweep::designs_from_specs;
    use ooo_sim::SimConfig;
    use samie_lsq::DesignSpec;
    use spec_traces::find_workload;

    fn tiny_grid(designs: &str) -> SweepGrid {
        SweepGrid {
            designs: designs_from_specs(DesignSpec::parse_list(designs).unwrap()),
            benchmarks: vec![find_workload("gzip").unwrap()],
            seeds: vec![7],
            rc: RunConfig {
                instrs: 8_000,
                warmup: 2_000,
                seed: 7,
            },
            cfg: SimConfig::paper(),
        }
    }

    #[test]
    fn profile_attributes_cycles_and_wall_time() {
        let report = run_profile(&tiny_grid("samie"));
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert!(p.committed >= 8_000);
        // Every cycle of the measured interval is accounted for: stepped
        // + skipped covers the interval exactly.
        assert!(p.profile.stepped_cycles > 0);
        assert!(p.profile.total_wall_ns() > 0, "clock must advance");
        // Commit performed at least `instrs` events.
        assert!(p.profile.events_of(Stage::Commit) >= 8_000);
    }

    #[test]
    fn profiled_stats_match_unprofiled_run() {
        // The probe observes; it must not perturb the simulation.
        let report = crate::session::SimSession::new(
            DesignSpec::samie_paper(),
            find_workload("gzip").unwrap(),
        )
        .instrs(8_000)
        .warmup(2_000)
        .seed(7)
        .run();
        let profiled = run_profile(&tiny_grid("samie"));
        assert_eq!(profiled.points[0].committed, report.stats().committed);
    }

    #[test]
    fn report_renders_json_and_markdown() {
        let report = run_profile(&tiny_grid("conv:32"));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"samie-profile-v1\""));
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", stage.name())), "{json}");
        }
        assert!(json.contains("\"totals\""));
        let md = report.to_markdown();
        assert!(md.contains("# Pipeline profile"));
        assert!(md.contains("conv:32"));
    }
}
