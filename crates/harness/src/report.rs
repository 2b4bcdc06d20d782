//! `samie-exp report` — regenerate every paper artefact as a browsable
//! Markdown book with embedded SVG charts.
//!
//! One call to [`generate_book`] produces `docs/book/`: an index page
//! plus one page per table/figure of the paper (Table 1, the §3.6
//! delays, Figures 1 and 3–12, Tables 4–6, and the §4/§5 summary) and a
//! real-program chapter (the committed RV32I(M) workloads with their
//! architectural-oracle witness), each holding the regenerated data as a
//! Markdown table and, for the figures, a deterministic SVG bar chart.
//! The Figure 1 points run as one [`run_sweep`](crate::sweep::run_sweep)
//! grid, the paired and real-program points as a second, and the sizing
//! study through the same [`run_point`](crate::runner::run_point) path —
//! all under [`ReportOptions::cache`]. Hand it an experiment store and a
//! re-run after a code-free change is almost pure cache hits, making the
//! whole reproduction one cheap idempotent command. The store keys are
//! those of `samie-exp sweep`, so a sweep over the paper pair warms the
//! book too.
//!
//! Output is byte-deterministic: page content derives only from simulated
//! statistics (themselves deterministic per seed) and contains no
//! timestamps or host-specific data. The `report-smoke` CI job runs the
//! command twice and diffs the books.
//!
//! ```
//! use exp_harness::report::{generate_book, ReportOptions};
//! use exp_harness::runner::RunConfig;
//! use spec_traces::by_name;
//!
//! let dir = std::env::temp_dir().join("samie-report-doctest");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut opts = ReportOptions::new(
//!     RunConfig { instrs: 3_000, warmup: 600, seed: 1 },
//!     &dir,
//! );
//! opts.suite = vec![*by_name("gzip").unwrap()]; // shrink for the doctest
//! let book = generate_book(&opts).unwrap();
//! assert!(book.pages.iter().any(|p| p.ends_with("index.md")));
//! assert!(dir.join("fig5.svg").exists());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use energy_model::price_lsq;
use exp_store::SIM_VERSION;
use samie_lsq::DesignSpec;
use spec_traces::{all_benchmarks, find_workload, Workload, WorkloadSpec, RV_PROGRAM_NAMES};

use crate::chart::svg_bar_chart;
use crate::experiments::{fig1, fig3_4, paired, tab1_delay, tab456};
use crate::runner::{PairedRun, PointCache, RunConfig};
use crate::table::{fmt, Table};

/// What to reproduce, where to, and through which experiment store.
pub struct ReportOptions<'a> {
    /// Simulation length per point (the paper: 100 M + 100 M; the
    /// committed book: `--quick`, 120 k + 30 k).
    pub rc: RunConfig,
    /// Benchmark suite (default: the full 26-benchmark catalog; tests
    /// shrink it). Must be non-empty.
    pub suite: Vec<WorkloadSpec>,
    /// Book output directory (conventionally `docs/book`).
    pub out: PathBuf,
    /// Experiment store to consult and fill — pass one for incremental
    /// re-runs (`None` = simulate every point).
    pub cache: Option<&'a PointCache>,
}

impl ReportOptions<'static> {
    /// Options over the full calibrated suite, without a store.
    pub fn new(rc: RunConfig, out: impl Into<PathBuf>) -> Self {
        ReportOptions {
            rc,
            suite: all_benchmarks().to_vec(),
            out: out.into(),
            cache: None,
        }
    }
}

/// The outcome of [`generate_book`].
#[derive(Debug)]
pub struct BookSummary {
    /// Every file written (Markdown pages and SVG charts), in book order.
    pub pages: Vec<PathBuf>,
    /// End-to-end generation wall time.
    pub wall: Duration,
}

/// One book page: a slug (`fig5` → `fig5.md`), a title, an explanatory
/// blurb, the regenerated tables, and optionally a bar chart of
/// `(table index, label column, value column)`.
struct Page {
    slug: &'static str,
    title: &'static str,
    blurb: &'static str,
    tables: Vec<Table>,
    chart: Option<(usize, usize, usize)>,
}

/// Regenerate the whole reproduction book. See the [module docs](self).
#[allow(
    clippy::disallowed_methods,
    reason = "the book's wall time is host time by design: it is the denominator of the warm speedup"
)]
pub fn generate_book(opts: &ReportOptions<'_>) -> io::Result<BookSummary> {
    assert!(!opts.suite.is_empty(), "report needs a non-empty suite");
    let t0 = Instant::now();
    let rc = &opts.rc;
    // Fail on an unwritable `out` before simulating anything.
    std::fs::create_dir_all(&opts.out)?;

    // All simulation, through the (possibly cached) point path. The
    // paired grid covers the suite and the real programs in one sweep.
    let fig1_points = fig1::run_with(rc, opts.cache, &opts.suite);
    let sizing_runs = fig3_4::run_with(rc, opts.cache, &opts.suite);
    let programs: Vec<Workload> = RV_PROGRAM_NAMES
        .iter()
        .map(|name| find_workload(name).expect("committed program in the catalog"))
        .collect();
    let pairs = paired::run_with(
        rc,
        opts.cache,
        opts.suite
            .iter()
            .map(|s| Workload::from(*s))
            .chain(programs.iter().cloned()),
    );
    let (paired_runs, program_runs) = pairs.split_at(opts.suite.len());

    let pages = vec![
        Page {
            slug: "tab1",
            title: "Table 1 — cache access times",
            blurb: "Conventional vs physical-line-known access times for eight cache \
                    geometries: the cacti-lite analytic model next to the paper's published \
                    CACTI 3.0 numbers (0.10 µm). No simulation — pure arithmetic.",
            tables: vec![tab1_delay::tab1_table()],
            chart: None,
        },
        Page {
            slug: "delay",
            title: "§3.6 — LSQ component delays",
            blurb: "Access-time comparison of every SAMIE-LSQ component against the \
                    conventional LSQ, model vs paper.",
            tables: vec![tab1_delay::delay_table()],
            chart: None,
        },
        Page {
            slug: "fig1",
            title: "Figure 1 — ARB IPC relative to an unbounded LSQ",
            blurb: "The motivation study: Franklin & Sohi's ARB banked from fully \
                    associative (1x128) to fully banked (128x1), suite-average IPC \
                    normalised to an unbounded LSQ on identical traces, with the normal \
                    and halved in-flight caps.",
            tables: vec![fig1::table(&fig1_points)],
            chart: Some((0, 0, 1)),
        },
        Page {
            slug: "fig3",
            title: "Figure 3 — mean unbounded-SharedLSQ occupancy",
            blurb: "SharedLSQ pressure per benchmark for DistribLSQ geometries 128x1, \
                    64x2 and 32x4 — the sizing study behind the paper's 64x2 choice.",
            tables: vec![fig3_4::fig3_table(&sizing_runs)],
            chart: Some((0, 0, 2)),
        },
        Page {
            slug: "fig4",
            title: "Figure 4 — programs satisfied vs SharedLSQ entries",
            blurb: "For the 64x2 geometry: how many programs' 99th-percentile SharedLSQ \
                    demand fits within N entries — the curve that justifies the 8-entry \
                    SharedLSQ.",
            tables: vec![fig3_4::fig4_table(&sizing_runs)],
            chart: Some((0, 0, 1)),
        },
        Page {
            slug: "fig5",
            title: "Figure 5 — % IPC loss of SAMIE-LSQ vs conventional",
            blurb: "Per-benchmark IPC cost of SAMIE-LSQ against the 128-entry \
                    conventional LSQ on identical traces (paper headline: 0.6 % average).",
            tables: vec![paired::fig5_table(paired_runs)],
            chart: Some((0, 0, 3)),
        },
        Page {
            slug: "fig6",
            title: "Figure 6 — deadlock-avoidance flushes",
            blurb: "§3.3 deadlock-avoidance flushes per million cycles under SAMIE-LSQ, \
                    plus no-space flushes.",
            tables: vec![paired::fig6_table(paired_runs)],
            chart: Some((0, 0, 1)),
        },
        Page {
            slug: "fig7",
            title: "Figure 7 — LSQ dynamic energy",
            blurb: "LSQ dynamic energy (nJ) per benchmark, conventional vs SAMIE \
                    (paper headline: 82 % saving).",
            tables: vec![paired::fig7_table(paired_runs)],
            chart: Some((0, 0, 3)),
        },
        Page {
            slug: "fig8",
            title: "Figure 8 — SAMIE energy breakdown",
            blurb: "Where SAMIE's remaining LSQ energy goes: DistribLSQ, SharedLSQ, \
                    AddrBuffer and the distribution bus (percent of total).",
            tables: vec![paired::fig8_table(paired_runs)],
            chart: None,
        },
        Page {
            slug: "fig9",
            title: "Figure 9 — L1 D-cache dynamic energy",
            blurb: "D-cache energy with SAMIE's way-known (single-way, no tag check) \
                    accesses vs conventional accesses (paper headline: 42 % saving).",
            tables: vec![paired::fig9_table(paired_runs)],
            chart: Some((0, 0, 3)),
        },
        Page {
            slug: "fig10",
            title: "Figure 10 — D-TLB dynamic energy",
            blurb: "D-TLB energy with SAMIE's cached translations vs a lookup per \
                    memory access (paper headline: 73 % saving).",
            tables: vec![paired::fig10_table(paired_runs)],
            chart: Some((0, 0, 3)),
        },
        Page {
            slug: "fig11",
            title: "Figure 11 — accumulated active LSQ area",
            blurb: "Active-area integrals (µm²·cycles) under the §4.2 activation \
                    policies, conventional vs SAMIE.",
            tables: vec![paired::fig11_table(paired_runs)],
            chart: Some((0, 0, 3)),
        },
        Page {
            slug: "fig12",
            title: "Figure 12 — SAMIE active-area breakdown",
            blurb: "Active-area share of DistribLSQ, SharedLSQ and AddrBuffer.",
            tables: vec![paired::fig12_table(paired_runs)],
            chart: None,
        },
        Page {
            slug: "tab456",
            title: "Tables 4–6 — energy and area constants",
            blurb: "The published per-access energies regenerated from a single \
                    CAM-match constant (internal-consistency check), and the Table 6 \
                    cell areas with the entry areas derived from them.",
            tables: vec![tab456::regen_table45(), tab456::table6()],
            chart: None,
        },
        Page {
            slug: "summary",
            title: "Summary — headline results vs the paper",
            blurb: "The abstract's claims, measured: LSQ/D-cache/D-TLB energy savings, \
                    IPC loss and active area, suite averages against the published \
                    numbers.",
            tables: vec![paired::summary_table(paired_runs)],
            chart: None,
        },
        Page {
            slug: "realprog",
            title: "Real programs — RV32I(M) workloads through the designs",
            blurb: "Beyond the calibrated synthetic suite: four committed RISC-V \
                    programs (quicksort, matmul, sieve, memcpy) assembled and emulated \
                    by the in-repo RV32I(M) frontend, their retired-op streams replayed \
                    through the paper pair on identical traces. The second table is the \
                    architectural oracle's witness — the final register/memory state a \
                    fresh re-execution must reproduce — so any emulator or program \
                    change shows up here byte-visibly.",
            tables: vec![
                realprog_table(&programs, program_runs),
                realprog_oracle_table(),
            ],
            chart: Some((0, 0, 4)),
        },
    ];

    let mut written = Vec::new();
    written.push(write_file(
        &opts.out,
        "index.md",
        &index_page(opts, &pages),
    )?);
    for page in &pages {
        let mut md = format!("# {}\n\n{}\n", page.title, page.blurb);
        for t in &page.tables {
            md.push_str(&format!("\n## {}\n\n{}", t.title, t.to_markdown()));
        }
        if let Some((ti, label, value)) = page.chart {
            let svg = svg_bar_chart(&page.tables[ti], label, value);
            let svg_name = format!("{}.svg", page.slug);
            written.push(write_file(&opts.out, &svg_name, &svg)?);
            md.push_str(&format!("\n![{}]({svg_name})\n", page.title));
        }
        md.push_str("\n---\n\n[Back to index](index.md)\n");
        written.push(write_file(&opts.out, &format!("{}.md", page.slug), &md)?);
    }
    // Keep the page list in book order: index first, then page/chart
    // pairs; sort-free because we pushed in order.
    Ok(BookSummary {
        pages: written,
        wall: t0.elapsed(),
    })
}

/// The real-program chapter: the committed RV32I(M) programs through
/// the paper pair on their retired-op traces (identical per design, as
/// everywhere in the book).
fn realprog_table(programs: &[Workload], runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Real programs - IPC and LSQ energy, conventional vs SAMIE",
        &[
            "program",
            "ops_per_pass",
            "conv_ipc",
            "samie_ipc",
            "ipc_loss_%",
            "conv_nj",
            "samie_nj",
            "saving_%",
        ],
    );
    for (w, r) in programs.iter().zip(runs) {
        let (ci, si) = (r.conv.ipc(), r.samie.ipc());
        let (ce, se) = (
            price_lsq(&r.conv.lsq).total(),
            price_lsq(&r.samie.lsq).total(),
        );
        let period = w.rv().expect("rv workload").period();
        t.push_row(vec![
            r.name.clone(),
            period.to_string(),
            fmt(ci, 4),
            fmt(si, 4),
            fmt((ci - si) / ci * 100.0, 2),
            fmt(ce, 0),
            fmt(se, 0),
            fmt((1.0 - se / ce) * 100.0, 1),
        ]);
    }
    t
}

/// The architectural-oracle table: re-executed final state of every
/// committed program. Editing a program — or the emulator — changes
/// this page byte-visibly, which is what makes the book a conformance
/// witness for the real-ISA frontend.
fn realprog_oracle_table() -> Table {
    let mut t = Table::new(
        "Real programs - architectural oracle",
        &[
            "program",
            "retired_per_pass",
            "a0",
            "ops_digest",
            "mem_digest",
        ],
    );
    for name in RV_PROGRAM_NAMES {
        let w = spec_traces::rv_by_name(name).expect("committed program");
        let rep = rv_front::ArchOracle::verify(&w)
            .unwrap_or_else(|e| panic!("arch-oracle mismatch on {name}: {e}"));
        t.push_row(vec![
            name.into(),
            rep.retired.to_string(),
            format!("{:#010x}", w.record.state.regs[10]),
            format!("{:08x}", rep.ops_digest),
            format!("{:08x}", rep.mem_digest),
        ]);
    }
    t
}

fn index_page(opts: &ReportOptions<'_>, pages: &[Page]) -> String {
    let mut md = String::from(
        "# SAMIE-LSQ reproduction book\n\n\
         Every table and figure of Abella & González, *SAMIE-LSQ: Set-Associative \
         Multiple-Instruction Entry Load/Store Queue* (IPDPS 2006), regenerated from \
         this repository's simulator. This book is a build artifact: regenerate it \
         any time with `samie-exp report` (see \
         [REPRODUCING](../REPRODUCING.md) for the command matrix and expected \
         tolerances).\n\n",
    );
    md.push_str("## Contents\n\n");
    for p in pages {
        md.push_str(&format!("- [{}]({}.md)\n", p.title, p.slug));
    }
    md.push_str("\n## Provenance\n\n");
    md.push_str(
        "All simulated points share one run configuration; the statistics are \
         deterministic per seed, so rebuilding this book reproduces it byte for byte.\n\n",
    );
    let mut t = Table::new("Run configuration", &["parameter", "value"]);
    t.push_row(vec![
        "measured instructions".into(),
        opts.rc.instrs.to_string(),
    ]);
    t.push_row(vec![
        "warm-up instructions".into(),
        opts.rc.warmup.to_string(),
    ]);
    t.push_row(vec!["trace seed".into(), opts.rc.seed.to_string()]);
    t.push_row(vec!["benchmarks".into(), opts.suite.len().to_string()]);
    t.push_row(vec![
        "baseline design".into(),
        DesignSpec::conventional_paper().to_string(),
    ]);
    t.push_row(vec![
        "SAMIE design".into(),
        DesignSpec::samie_paper().to_string(),
    ]);
    t.push_row(vec!["simulator version".into(), SIM_VERSION.into()]);
    md.push_str(&t.to_markdown());
    md
}

fn write_file(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_traces::by_name;

    fn tiny_opts(dir: &Path) -> ReportOptions<'static> {
        let mut opts = ReportOptions::new(
            RunConfig {
                instrs: 4_000,
                warmup: 800,
                seed: 2,
            },
            dir,
        );
        opts.suite = vec![*by_name("gzip").unwrap(), *by_name("swim").unwrap()];
        opts
    }

    #[test]
    fn book_is_complete_and_deterministic() {
        let dir = std::env::temp_dir().join("samie-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let book = generate_book(&tiny_opts(&dir)).unwrap();
        // 1 index + 16 pages + charts.
        let mds: Vec<_> = book
            .pages
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "md"))
            .collect();
        assert_eq!(mds.len(), 17, "index + 16 artefact pages");
        let svgs = book.pages.len() - mds.len();
        assert_eq!(svgs, 10, "ten charted figures");
        let index = std::fs::read_to_string(dir.join("index.md")).unwrap();
        for slug in [
            "tab1", "delay", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "tab456", "summary", "realprog",
        ] {
            if slug != "index" {
                assert!(
                    index.contains(&format!("({slug}.md)")),
                    "index links {slug}"
                );
            }
            assert!(dir.join(format!("{slug}.md")).exists(), "{slug}.md written");
        }
        assert!(!index.contains("wall"), "no timing leaks into the book");

        // Regenerating produces byte-identical files.
        let snapshot: Vec<(PathBuf, String)> = book
            .pages
            .iter()
            .map(|p| (p.clone(), std::fs::read_to_string(p).unwrap()))
            .collect();
        generate_book(&tiny_opts(&dir)).unwrap();
        for (path, before) in snapshot {
            let after = std::fs::read_to_string(&path).unwrap();
            assert_eq!(before, after, "{} drifted between runs", path.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_rerun_hits_for_every_point() {
        use crate::sweep::{run_sweep, SweepGrid, SweepOptions};
        let dir = std::env::temp_dir().join("samie-report-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(dir.join("store")).unwrap();
        let swept = PointCache::open(dir.join("swept-store")).unwrap();

        let mut opts = tiny_opts(&dir.join("book"));
        opts.suite.truncate(1);
        opts.cache = Some(&cache);
        generate_book(&opts).unwrap();
        let (h0, m0) = (cache.hits(), cache.misses());
        assert_eq!(h0, 0, "cold store");
        assert!(m0 > 0);

        generate_book(&opts).unwrap();
        assert_eq!(cache.misses(), m0, "warm re-run simulates nothing");
        assert_eq!(cache.hits(), m0, "every point served from the store");
        assert!(cache.saved() > Duration::ZERO);

        // A plain sweep over the paper pair keys its points exactly like
        // the book: a store it filled spares the cold book those points.
        let grid = SweepGrid::paper(
            [DesignSpec::conventional_paper(), DesignSpec::samie_paper()],
            opts.suite.iter().map(|s| Workload::from(*s)).collect(),
            opts.rc,
        );
        let sweep = run_sweep(
            &grid,
            &SweepOptions {
                cache: Some(&swept),
                ..Default::default()
            },
        );
        let filled = sweep.points.len() as u64;
        assert_eq!((sweep.hits, swept.misses()), (0, filled));
        opts.cache = Some(&swept);
        generate_book(&opts).unwrap();
        assert_eq!(swept.hits(), filled, "the book hits every swept point");
        assert_eq!(
            swept.misses() - filled,
            m0 - filled,
            "the cold book misses exactly the swept points fewer"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
