//! `lsqbench`: the end-to-end and per-layer benchmark of the SAMIE-LSQ
//! reproduction. See `README.md` beside this crate for the workloads, the
//! metrics and how steady they are.
//!
//! ```text
//! lsqbench --workload <paper-grid|lsq-stress|book> --seed N --seconds S
//!          --trace <0|1> --work DIR [--samie-exp PATH] [--bless]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; the
//! line before it records the host, the raw (not host-speed-normalised)
//! medians and the base of every ratio.
//! `--bless` recomputes the expected digests of every input seed instead.

mod book;
mod check;
mod grid;
mod host;
mod layers;
mod report;
mod speed;
#[cfg(test)]
mod tests;
mod tracing;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use exp_store::ExperimentStore;
use ooo_sim::SimStats;

use crate::book::Book;
use crate::check::{input_seed, stats_digest, Expected, Tally, SEED_FAMILY};
use crate::grid::{median, run_pass, run_traced, Pass, Point, RunLength};
use crate::host::CpuTicks;
use crate::layers::TraceTotals;
use crate::report::{ratio, Metrics};
use crate::speed::HostSpeed;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    budget: Duration,
    trace: bool,
    work: PathBuf,
    samie_exp: Option<PathBuf>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work) = (None, None, None, None, None);
    let mut samie_exp = None;
    let mut bless = false;
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--work" => work = Some(PathBuf::from(&value)),
            "--samie-exp" => samie_exp = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        seed: seed.unwrap_or(0),
        budget: Duration::from_secs(seconds.unwrap_or(10).max(1)),
        trace: trace.unwrap_or(false),
        work: work.ok_or("--work is required")?,
        samie_exp,
        bless,
        workload,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lsqbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lsqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one invocation measures.
struct Ctx<'a> {
    args: &'a Args,
    points: Vec<Point>,
    len: RunLength,
    seed: u64,
    expected: Expected,
    tally: Tally,
    metrics: Metrics,
    work: PathBuf,
}

impl Ctx<'_> {
    /// Check every point of a pass against the expected digests.
    fn check_pass(&mut self, pass: &Pass) {
        for (p, run) in self.points.iter().zip(&pass.runs) {
            let ok = self
                .expected
                .matches(self.seed, &p.id(), stats_digest(&run.stats));
            self.tally.record(ok);
        }
    }

    fn check_point(&mut self, p: &Point, stats: &SimStats) {
        let ok = self
            .expected
            .matches(self.seed, &p.id(), stats_digest(stats));
        self.tally.record(ok);
    }

    fn check_book(&mut self, book: &Book) -> io::Result<()> {
        let ok = self
            .expected
            .matches(self.seed, "book-pages", book.digest()?);
        self.tally.record(ok);
        Ok(())
    }

    fn samie_exp(&self) -> io::Result<&Path> {
        self.args
            .samie_exp
            .as_deref()
            .ok_or_else(|| io::Error::other("the book workload needs --samie-exp PATH"))
    }
}

fn run(args: &Args) -> io::Result<()> {
    let (points, len) = grid::points(&args.workload).ok_or_else(|| {
        io::Error::other(format!(
            "unknown workload `{}` (paper-grid, lsq-stress, book)",
            args.workload
        ))
    })?;
    let work = args
        .work
        .join(format!("{}-{}", args.workload, u8::from(args.trace)));
    book::clear(&work)?;
    std::fs::create_dir_all(&work)?;
    let mut ctx = Ctx {
        args,
        points,
        len,
        seed: input_seed(args.seed),
        expected: Expected::committed(&args.workload),
        tally: Tally::default(),
        metrics: Metrics::default(),
        work: work.clone(),
    };
    if args.bless {
        bless(&mut ctx)?;
        return book::clear(&work);
    }
    let ticks = CpuTicks::now();
    match (args.workload == "book", args.trace) {
        (false, false) => grid_end_to_end(&mut ctx)?,
        (false, true) => layers(&mut ctx, None)?,
        (true, false) => book_end_to_end(&mut ctx)?,
        (true, true) => {
            let book = Book::new(ctx.samie_exp()?, &work.join("book"), ctx.seed, len);
            layers(&mut ctx, Some(&book))?
        }
    }
    let steal = CpuTicks::now().steal_frac_since(&ticks);
    if args.trace {
        ctx.metrics.put("host.steal_frac", steal, "fraction");
    }
    book::clear(&work)?;
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"input_seed\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"steal_frac\": {}}}, \"raw\": {}, \"bases\": {}}}",
        report::string(&args.workload),
        args.seed,
        ctx.seed,
        u8::from(args.trace),
        host::nproc(),
        report::string(&host::cpu_model()),
        report::num(steal),
        ctx.metrics.raw_json(),
        ctx.metrics.bases_json()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.tally.failed == 0 && ctx.tally.attempted > 0,
        ctx.tally.attempted.max(1),
        ctx.tally.failed,
        ctx.metrics.values_json()
    );
    Ok(())
}

/// A timed sample and the host-speed factor measured beside it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    raw: f64,
    factor: f64,
}

/// Record `name` as the median of `samples` in reference-host units
/// (a time divided by its factor, a rate multiplied), and its raw median.
fn put_normalized(m: &mut Metrics, name: &str, unit: &'static str, samples: &[Sample], rate: bool) {
    let norm: Vec<f64> = samples
        .iter()
        .map(|s| {
            if rate {
                s.raw * s.factor
            } else {
                s.raw / s.factor
            }
        })
        .collect();
    m.put(name, median(&norm), unit);
    m.raw(
        name,
        median(&samples.iter().map(|s| s.raw).collect::<Vec<_>>()),
    );
}

/// Serial cold passes (simulate every point and store it in an empty
/// store), each followed by warm serves of the whole grid from the store
/// it filled, so both kinds of sample span the whole run.
fn grid_end_to_end(ctx: &mut Ctx<'_>) -> io::Result<()> {
    // Each warm sample serves the grid SERVES times, so one sample spans
    // milliseconds rather than microseconds.
    const SERVES: usize = 16;
    const WARM_PER_PASS: usize = 16;
    let budget = ctx.args.budget;
    let start = Instant::now();
    let mut speed = HostSpeed::new(1);
    let keys: Vec<_> = ctx
        .points
        .iter()
        .map(|p| p.key(ctx.seed, ctx.len))
        .collect();
    let (mut setup, mut mips, mut cold, mut warm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Memory is read in the first pass only: later passes add allocator
    // fragmentation from this loop, by an amount that depends on how many
    // passes the host's speed allows.
    let mut peak_rss = 0.0f64;
    while cold.len() < 3 || start.elapsed() < budget {
        let store_dir = ctx.work.join(format!("cold-{}", cold.len()));
        let pass = run_pass(
            &ctx.points,
            ctx.seed,
            ctx.len,
            Some(&store_dir),
            Some(&mut speed),
        )?;
        ctx.check_pass(&pass);
        let factor = pass.factor();
        let sample = |raw| Sample { raw, factor };
        setup.push(sample(pass.setup.as_secs_f64()));
        mips.push(sample(pass.mips()));
        cold.push(sample(pass.wall.as_secs_f64()));
        if peak_rss == 0.0 {
            peak_rss = pass.peak_rss_mib();
        }

        let store = ExperimentStore::open(&store_dir)?;
        for _ in 0..WARM_PER_PASS {
            let mut served = Vec::with_capacity(SERVES * keys.len());
            let t0 = Instant::now();
            for _ in 0..SERVES {
                for k in &keys {
                    served.push(store.get(k));
                }
            }
            let raw = t0.elapsed().as_secs_f64() / SERVES as f64;
            warm.push(Sample {
                raw,
                factor: speed.slice(),
            });
            // One check per point per sample: all its serves must match.
            let mut ok = vec![true; keys.len()];
            for (i, got) in served.into_iter().enumerate() {
                let run = &pass.runs[i % keys.len()];
                ok[i % keys.len()] &= matches!(got, Ok(Some(ref p)) if p.stats == run.stats);
            }
            ok.into_iter().for_each(|ok| ctx.tally.record(ok));
        }
        book::clear(&store_dir)?;
    }
    let m = &mut ctx.metrics;
    put_normalized(m, "setup_s", "s", &setup, false);
    put_normalized(m, "sim_mips", "Minstr/s", &mips, true);
    put_normalized(m, "cold_s", "s", &cold, false);
    put_normalized(m, "warm_s", "s", &warm, false);
    m.put("peak_rss_mb", peak_rss, "MiB");
    let factors: Vec<f64> = cold.iter().map(|s| s.factor).collect();
    m.raw("host.speed_factor", median(&factors));
    Ok(())
}

/// Rounds of: one set-up, one cold book, warm rebuilds, and serial passes
/// over the book's paired suite in this process, so every kind of sample
/// spans the whole run.
fn book_end_to_end(ctx: &mut Ctx<'_>) -> io::Result<()> {
    const WARM_PER_ROUND: usize = 5;
    const PASSES_PER_ROUND: usize = 2;
    let budget = ctx.args.budget;
    let start = Instant::now();
    // `report` runs one thread per processor.
    let mut speed = HostSpeed::new(host::nproc());
    let book = Book::new(ctx.samie_exp()?, &ctx.work.join("book"), ctx.seed, ctx.len);
    let (mut setup, mut mips, mut cold, mut warm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Memory is read in the first pass only, as in `grid_end_to_end`.
    let mut peak_rss = 0.0f64;
    while cold.len() < 3 || start.elapsed() < budget {
        let t = book::setup(&ctx.work.join("setup"), &ctx.points, ctx.seed)?;
        setup.push(Sample {
            raw: t.as_secs_f64(),
            factor: speed.factor_for(t),
        });
        let t = book.cold()?;
        cold.push(Sample {
            raw: t.as_secs_f64(),
            factor: speed.factor_for_parallel(t),
        });
        ctx.check_book(&book)?;
        for _ in 0..WARM_PER_ROUND {
            let t = book.warm()?;
            warm.push(Sample {
                raw: t.as_secs_f64(),
                factor: speed.factor_for_parallel(t),
            });
            ctx.check_book(&book)?;
        }
        for _ in 0..PASSES_PER_ROUND {
            let pass = run_pass(&ctx.points, ctx.seed, ctx.len, None, Some(&mut speed))?;
            ctx.check_pass(&pass);
            if peak_rss == 0.0 {
                peak_rss = pass.peak_rss_mib();
            }
            mips.push(Sample {
                raw: pass.mips(),
                factor: pass.factor(),
            });
        }
    }
    let m = &mut ctx.metrics;
    put_normalized(m, "setup_s", "s", &setup, false);
    put_normalized(m, "sim_mips", "Minstr/s", &mips, true);
    put_normalized(m, "cold_s", "s", &cold, false);
    put_normalized(m, "warm_s", "s", &warm, false);
    m.put("peak_rss_mb", peak_rss, "MiB");
    let factors: Vec<f64> = mips.iter().map(|s| s.factor).collect();
    m.raw("host.speed_factor", median(&factors));
    Ok(())
}

/// The traced run: untraced and traced passes alternate, then the store,
/// the energy model, the memory hierarchy and (on the book) the real
/// programs and the book itself are timed through their entry points.
fn layers(ctx: &mut Ctx<'_>, book: Option<&Book>) -> io::Result<()> {
    let budget = ctx.args.budget;
    let start = Instant::now();
    let empty_ns = tracing::empty_interval_ns();
    let mut m = Metrics::default();

    // The book and its store come first, so the store holds the book's
    // points when its gets are timed.
    let (mut rv_ms, mut sim_share, mut render_ms) = (0.0, 0.0, 0.0);
    let mut book_times = None;
    if let Some(book) = book {
        let rv: Vec<f64> = (0..3)
            .map(|_| book::rv_setup().map(|d| d.as_secs_f64() * 1e3))
            .collect::<io::Result<_>>()?;
        rv_ms = median(&rv);
        let cold = book.cold()?.as_secs_f64();
        ctx.check_book(book)?;
        let mut warm = Vec::new();
        for _ in 0..5 {
            warm.push(book.warm()?.as_secs_f64());
            ctx.check_book(book)?;
        }
        book_times = Some((cold, median(&warm)));
    }

    let mut untraced_sim = Vec::new();
    let mut traced_sim = Vec::new();
    let mut totals = TraceTotals::default();
    let mut streams = Vec::new();
    let mut last_stats = Vec::new();
    let grid_store = ctx.work.join("grid-store");
    while untraced_sim.len() < 2 || start.elapsed() < budget.mul_f64(0.85) {
        let first = untraced_sim.is_empty();
        let pass = run_pass(
            &ctx.points,
            ctx.seed,
            ctx.len,
            (first && book.is_none()).then_some(grid_store.as_path()),
            None,
        )?;
        ctx.check_pass(&pass);
        let mut traced = Duration::ZERO;
        for (i, run) in pass.runs.iter().enumerate() {
            let p = ctx.points[i].clone();
            let t = run_traced(&p, ctx.seed, ctx.len);
            // A wrapper that changed the simulation fails here.
            ctx.check_point(&p, &t.stats);
            totals.add(&p, &t, run.measured);
            traced += t.sim;
            if first {
                streams.push(t.mem_stream);
            }
        }
        untraced_sim.push(pass.sim.as_secs_f64());
        traced_sim.push(traced.as_secs_f64());
        last_stats = pass.runs.into_iter().map(|r| r.stats).collect();
    }
    totals.emit(&mut m, empty_ns);
    let (mem_ns, accesses) = layers::mem_ns_per_access(&streams);
    m.put("mem-hier.ns_per_access", mem_ns, "ns");
    m.base("mem-hier.ns_per_access", accesses);

    // The store: gets on the store this workload wrote, puts of the same
    // points into new stores.
    let store_dir = book.map_or(grid_store.as_path(), Book::store_dir);
    let store = ExperimentStore::open(store_dir)?;
    let keys: Vec<_> = ctx
        .points
        .iter()
        .map(|p| p.key(ctx.seed, ctx.len))
        .collect();
    let gets = book::time_gets(&store, &keys, 20)?;
    let (put_us, puts) = book::time_puts(&ctx.work.join("puts"), &gets.found, 5)?;
    m.put("exp-store.get_us", gets.us, "us");
    m.base("exp-store.get_us", gets.gets);
    m.put("exp-store.put_us", put_us, "us");
    m.base("exp-store.put_us", puts);
    m.put(
        "exp-store.hit_ratio",
        ratio(gets.hits as f64, gets.gets as f64),
        "fraction",
    );
    m.base("exp-store.hit_ratio", gets.gets);

    let (price_us, prices) = layers::energy_us_per_price(&last_stats);
    m.put("energy-model.us_per_price", price_us, "us");
    m.base("energy-model.us_per_price", prices);

    // Book-only layers read 0 where the workload bypasses them.
    let entries = store.len()? as u64;
    if let Some((cold, warm)) = book_times {
        // What a warm rebuild skips is simulation and store writes; what
        // it still does beyond store reads and the real programs is
        // rendering.
        sim_share = 1.0 - ratio(warm, cold);
        render_ms = warm * 1e3 - entries as f64 * gets.us / 1e3 - rv_ms;
    }
    m.put("rv-front.setup_ms", rv_ms, "ms");
    m.put("exp-harness.book.sim_share", sim_share, "fraction");
    m.base("exp-harness.book.sim_share", entries);
    m.put("exp-harness.book.render_ms", render_ms, "ms");
    m.base("exp-harness.book.render_ms", entries);

    let untraced = median(&untraced_sim);
    m.put(
        "trace.overhead_frac",
        ratio(median(&traced_sim) - untraced, untraced),
        "fraction",
    );
    m.base("trace.overhead_frac", untraced_sim.len() as u64);
    ctx.metrics = m;
    Ok(())
}

/// Recompute and write the expected digests of every input seed.
fn bless(ctx: &mut Ctx<'_>) -> io::Result<()> {
    let mut expected = Expected::default();
    for seed in 1..=SEED_FAMILY {
        let pass = run_pass(&ctx.points, seed, ctx.len, None, None)?;
        for (p, run) in ctx.points.iter().zip(&pass.runs) {
            expected.insert(seed, &p.id(), stats_digest(&run.stats));
        }
        if ctx.args.workload == "book" {
            let book = Book::new(ctx.samie_exp()?, &ctx.work.join("book"), seed, ctx.len);
            book.cold()?;
            expected.insert(seed, "book-pages", book.digest()?);
        }
        eprintln!("blessed {} input seed {seed}", ctx.args.workload);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.tsv", ctx.args.workload));
    std::fs::write(&path, expected.render())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
