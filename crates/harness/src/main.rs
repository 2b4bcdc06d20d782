//! `samie-exp` — regenerate the paper's tables and figures, and run
//! design-space sweeps / throughput benchmarks beyond them.
//!
//! ```text
//! samie-exp <experiment> [--instrs N] [--warmup N] [--seed N] [--out DIR] [--quick] [--chart]
//!
//! experiments:
//!   fig1      ARB IPC vs unbounded LSQ
//!   fig3      SharedLSQ occupancy (sizing study)
//!   fig4      programs vs SharedLSQ entries (from the same runs)
//!   tab1      cache access times (cacti-lite vs paper)
//!   delay     §3.6 LSQ component delays
//!   fig5..fig12  IPC / deadlocks / energy / area (paired runs)
//!   tab456    energy & area constants, regenerated
//!   summary   headline numbers vs the paper
//!   all       everything above
//!
//! samie-exp sweep [--exp SPEC] [--designs LIST] [--bench LIST|all]
//!                 [--seeds LIST] [--jobs N] [--shard I/N] [common flags]
//!   design-space grid: LSQ designs x workloads x seeds -> CSV +
//!   BENCH_sweep.json (+ timing-zeroed BENCH_sweep.det.{json,csv}, the
//!   byte-comparable artifacts). Designs are DesignSpec strings (run
//!   `samie-exp designs` for the registered kinds and their syntax),
//!   comma-separated.
//!
//!   --exp takes a whole typed ExperimentSpec in one string —
//!   `design=conv:128,samie bench=gzip,swim seed=1,2 cfg=rob:128`; the
//!   explicit flags override individual fields of it.
//!
//!   --shard i/n runs only worker i's slice of the grid against the
//!   shared --store. Run n such workers (as separate processes), then a
//!   plain `sweep` over the same store: it serves every point a worker
//!   finished, simulates any stragglers, and writes a report whose
//!   deterministic JSON/CSV is byte-identical to a serial run.
//!
//! samie-exp bench [--baseline FILE] [--max-regression X] [common flags]
//!   fixed throughput-tracking grid; with --baseline, exits 3 if
//!   aggregate simulated-instructions/sec regressed more than X times
//!   (default 2.0) vs the checked-in BENCH_baseline.json.
//!
//! samie-exp profile [--designs LIST] [--bench LIST] [--exp SPEC]
//!                   [common flags]
//!   per-stage attribution of where simulation wall time goes: runs the
//!   bench grid (default: the paper trio x gzip/swim/ammp) serially with
//!   the pipeline probe enabled and writes PROFILE_report.json (schema
//!   samie-profile-v1) + PROFILE_report.md with wall-ns, event counts
//!   and ns/event per stage, plus stepped-vs-skipped cycle totals.
//!
//! samie-exp designs
//!   list every design kind in the registry with its spec syntax.
//!
//! samie-exp fuzz [--iters N] [--seed S] [--jobs N] [common flags]
//!   oracle-differential fuzzing: every registered design family vs the
//!   executable disambiguation oracle on random workload mutations and
//!   the adversarial pack. Mismatches are shrunk to minimal .strc repro
//!   traces under --out and the exit code is 4.
//!
//! samie-exp record [--bench NAME] [--designs LIST] [common flags]
//!   capture the trace a session consumes to <out>/<bench>-s<seed>.strc;
//!   replay it anywhere with --bench @file.strc (sweep) or
//!   Workload::replay_file (API).
//!
//! samie-exp report [--quick] [--out DIR] [--store DIR] [--no-cache]
//!                  [--expect-warm X] [common flags]
//!   regenerate the whole reproduction book (tables 1/4-6, figs 1/3-12,
//!   summary) as Markdown + SVG into DIR (default docs/book), consulting
//!   the experiment store so re-runs are nearly free. --expect-warm X
//!   exits 5 unless the run was all cache hits with a warm speedup >= X
//!   (the report-smoke CI gate).
//!
//! samie-exp store [--store DIR] [--gc] [--dump]
//!   inspect the experiment store (entries, size, per-design/workload
//!   counts); with --gc, delete corrupt and version-stale entries and
//!   rebuild the index; with --dump, print every entry in deterministic
//!   sorted text form (timing excluded) for byte-for-byte store diffs.
//!
//! samie-exp analyze
//!   run the repo-specific static-analysis lints (determinism,
//!   panic-hygiene, unsafe audit, schema/doc consistency) over the
//!   workspace; writes ANALYZE_report.json and exits 6 on findings.
//!   The standalone `samie-analyze` binary adds --lints/--json/--list.
//!
//! samie-exp rv asm FILE.s
//!   assemble an RV32I(M) program and print the listing (address,
//!   encoding, canonical disassembly), the symbol table, and the image
//!   summary. Assembly errors print `file:line: message` and exit 2.
//!
//! samie-exp rv run <FILE.s|rv:NAME> [--designs LIST] [common flags]
//!   assemble + emulate a real program (a `.s` file or a committed
//!   `rv:*` catalog entry), stream its retired ops through every design
//!   (default: conv:128,filtered,samie,arb,unbounded,oracle) on the
//!   identical trace, and verify the run against the architectural
//!   oracle (fresh re-execution must reproduce registers, memory digest
//!   and the exact op stream the designs consumed).
//!
//! caching: sweep and report consult the content-addressed store at
//! --store DIR (default .samie-store) and only simulate cache misses;
//! --no-cache forces full recomputation. bench never caches — it exists
//! to measure simulation throughput.
//!
//! A malformed flag (unknown, missing its value, or with an unparseable
//! value) prints one `samie-exp: ...` line naming the flag and exits 2.
//! ```

use std::path::PathBuf;

use exp_harness::experiment::{BenchSel, ExperimentSpec};
use exp_harness::experiments::{fig1, fig3_4, paired, tab1_delay, tab456};
use exp_harness::fuzz::{run_fuzz, FuzzConfig};
use exp_harness::report::{generate_book, ReportOptions};
use exp_harness::runner::{PairedRun, PointCache, RunConfig};
use exp_harness::session::SimSession;
use exp_harness::sweep::{check_regression, run_sweep, ShardSpec, SweepGrid, SweepOptions};
use exp_harness::table::Table;
use exp_harness::{DesignHandle, DesignRegistry, DesignSpec, SIM_VERSION};
use spec_traces::{all_benchmarks, find_workload, Workload};

/// What the first positional argument asks for. The paper experiment ids
/// (`fig1`, `tab456`, `summary`, ...) stay data — they select table
/// emitters — but every *mode* is typed here, so an unknown command
/// fails up front with a suggestion instead of falling through to the
/// experiment loop.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    /// Regenerate paper artefacts (`fig1`..`tab456`, `summary`, `all`).
    Paper(String),
    Sweep,
    Bench,
    Profile,
    Designs,
    Fuzz,
    Record,
    Report,
    Store,
    Analyze,
    /// Real-ISA frontend: `rv asm FILE.s` / `rv run <FILE.s|rv:NAME>`.
    Rv,
}

/// Paper experiment ids `Command::Paper` accepts.
const PAPER_IDS: &[&str] = &[
    "fig1", "fig3", "fig4", "tab1", "delay", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "tab456", "summary", "all",
];

/// The mode commands, by the word that selects them.
const MODES: [(&str, Command); 10] = [
    ("sweep", Command::Sweep),
    ("bench", Command::Bench),
    ("profile", Command::Profile),
    ("designs", Command::Designs),
    ("fuzz", Command::Fuzz),
    ("record", Command::Record),
    ("report", Command::Report),
    ("store", Command::Store),
    ("analyze", Command::Analyze),
    ("rv", Command::Rv),
];

impl Command {
    fn parse(word: &str) -> Result<Command, String> {
        if let Some((_, mode)) = MODES.iter().find(|(w, _)| *w == word) {
            return Ok(mode.clone());
        }
        if PAPER_IDS.contains(&word) {
            return Ok(Command::Paper(word.to_string()));
        }
        let known: Vec<&str> = PAPER_IDS
            .iter()
            .copied()
            .chain(MODES.iter().map(|(w, _)| *w))
            .collect();
        let mut msg = format!("unknown command `{word}`");
        if let Some(best) = closest(word, &known) {
            msg.push_str(&format!(" (did you mean `{best}`?)"));
        } else {
            msg.push_str(&format!(" (known: {})", known.join(", ")));
        }
        Err(msg)
    }
}

/// The closest known command within edit distance 2, for typo hints.
fn closest<'a>(word: &str, known: &[&'a str]) -> Option<&'a str> {
    known
        .iter()
        .map(|k| (edit_distance(word, k), *k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, k)| k)
}

/// Plain Levenshtein distance over bytes (commands are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

struct Args {
    command: Command,
    rc: RunConfig,
    /// Which of instrs/warmup were given explicitly (fuzz/record pick
    /// their own defaults otherwise).
    instrs_set: bool,
    warmup_set: bool,
    out: PathBuf,
    out_set: bool,
    chart: bool,
    designs: Option<String>,
    benchmarks: Option<String>,
    seeds: Option<String>,
    jobs: usize,
    baseline: Option<PathBuf>,
    max_regression: f64,
    iters: u64,
    store: PathBuf,
    no_cache: bool,
    gc: bool,
    expect_warm: Option<f64>,
    shard: Option<ShardSpec>,
    exp: Option<String>,
    dump: bool,
    /// Extra positionals after the command word (only `rv` takes any:
    /// the subcommand verb and its target).
    positionals: Vec<String>,
}

/// A value-taking flag's argument: the next word, unless the command
/// line ends or the next word is itself a flag.
fn flag_value(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<String, String> {
    match it.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag}: missing value")),
    }
}

/// A flag's value parsed as a number.
fn flag_number<T: std::str::FromStr>(
    flag: &str,
    it: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v = flag_value(flag, it)?;
    v.parse()
        .map_err(|_| format!("{flag}: expected a number, got \"{v}\""))
}

/// Parse the command line. A malformed flag is an `Err` holding one
/// diagnostic line that names it.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut command = None;
    let mut rc = RunConfig::default();
    let mut instrs_set = false;
    let mut warmup_set = false;
    let mut out = PathBuf::from("results");
    let mut out_set = false;
    let mut chart = false;
    let mut designs = None;
    let mut benchmarks = None;
    let mut seeds = None;
    let mut jobs = 0;
    let mut baseline = None;
    let mut max_regression = 2.0;
    let mut iters = 200;
    let mut store = PathBuf::from(".samie-store");
    let mut no_cache = false;
    let mut gc = false;
    let mut expect_warm = None;
    let mut shard = None;
    let mut exp = None;
    let mut dump = false;
    let mut positionals = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let it = &mut it;
        match a.as_str() {
            "--instrs" => {
                rc.instrs = flag_number(&a, it)?;
                instrs_set = true;
            }
            "--warmup" => {
                rc.warmup = flag_number(&a, it)?;
                warmup_set = true;
            }
            "--seed" => rc.seed = flag_number(&a, it)?,
            "--iters" => iters = flag_number(&a, it)?,
            "--out" => {
                out = PathBuf::from(flag_value(&a, it)?);
                out_set = true;
            }
            "--chart" => chart = true,
            "--quick" => {
                let q = RunConfig::quick();
                rc.instrs = q.instrs;
                rc.warmup = q.warmup;
                instrs_set = true;
                warmup_set = true;
            }
            "--designs" => designs = Some(flag_value(&a, it)?),
            "--bench" => benchmarks = Some(flag_value(&a, it)?),
            "--seeds" => seeds = Some(flag_value(&a, it)?),
            "--jobs" => jobs = flag_number(&a, it)?,
            "--baseline" => baseline = Some(PathBuf::from(flag_value(&a, it)?)),
            "--max-regression" => max_regression = flag_number(&a, it)?,
            "--store" => store = PathBuf::from(flag_value(&a, it)?),
            "--no-cache" => no_cache = true,
            "--gc" => gc = true,
            "--expect-warm" => expect_warm = Some(flag_number(&a, it)?),
            "--shard" => {
                let v = flag_value(&a, it)?;
                shard = Some(v.parse::<ShardSpec>().map_err(|e| format!("{a}: {e}"))?);
            }
            "--exp" => exp = Some(flag_value(&a, it)?),
            "--dump" => dump = true,
            "--help" | "-h" => {
                eprintln!("usage: samie-exp <fig1|fig3|fig4|tab1|delay|fig5..fig12|tab456|summary|all|sweep|bench|profile|designs|fuzz|record|report|store|analyze|rv> [--exp SPEC] [--instrs N] [--warmup N] [--seed N] [--out DIR] [--quick] [--chart] [--designs LIST] [--bench LIST] [--seeds LIST] [--jobs N] [--baseline FILE] [--max-regression X] [--iters N] [--store DIR] [--no-cache] [--gc] [--dump] [--expect-warm X] [--shard I/N]");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag} (run with --help)"));
            }
            other if command.is_none() => {
                command = Some(Command::parse(other).map_err(|e| format!("{e}; run with --help"))?);
            }
            other if command == Some(Command::Rv) => positionals.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        command: command.unwrap_or_else(|| Command::Paper("all".to_string())),
        rc,
        instrs_set,
        warmup_set,
        out,
        out_set,
        chart,
        designs,
        benchmarks,
        seeds,
        jobs,
        baseline,
        max_regression,
        iters,
        store,
        no_cache,
        gc,
        expect_warm,
        shard,
        exp,
        dump,
        positionals,
    })
}

/// `fuzz` entry point; returns the process exit code (4 on mismatch).
fn run_fuzz_command(args: &Args) -> i32 {
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        iters: args.iters,
        seed: args.rc.seed,
        rc: RunConfig {
            instrs: if args.instrs_set {
                args.rc.instrs
            } else {
                defaults.rc.instrs
            },
            warmup: if args.warmup_set {
                args.rc.warmup
            } else {
                defaults.rc.warmup
            },
            seed: 0,
        },
        jobs: args.jobs,
        out: Some(args.out.clone()),
    };
    eprintln!(
        "fuzz: {} iterations (seed {}, {} + {} instrs each) x every design family vs oracle + unbounded",
        cfg.iters, cfg.seed, cfg.rc.warmup, cfg.rc.instrs
    );
    let report = run_fuzz(&cfg);
    if report.clean() {
        println!(
            "fuzz: {} iterations, zero design-vs-oracle mismatches",
            report.iters
        );
        return 0;
    }
    println!(
        "fuzz: {} MISMATCHES in {} iterations",
        report.mismatches.len(),
        report.iters
    );
    for m in &report.mismatches {
        println!(
            "  iter {} (workload `{}`, shrunk to {} ops{}):",
            m.iter,
            m.workload,
            m.repro_ops,
            m.repro
                .as_ref()
                .map(|p| format!(", repro {}", p.display()))
                .unwrap_or_default(),
        );
        for f in &m.failures {
            println!("    - {f}");
        }
        if let Some(p) = &m.repro {
            println!("    replay: samie-exp sweep --bench @{}", p.display());
        }
    }
    4
}

impl Args {
    /// Run length of the one-off commands (`record`, `rv run`): the
    /// given `--instrs`/`--warmup`/`--quick`, else [`RunConfig::quick`].
    fn one_off_rc(&self) -> RunConfig {
        if self.instrs_set || self.warmup_set {
            self.rc
        } else {
            RunConfig {
                seed: self.rc.seed,
                ..RunConfig::quick()
            }
        }
    }
}

/// A bad flag value caught after parsing: one `samie-exp: FLAG: ...`
/// line on stderr and the usage-error exit code 2.
fn usage_error(flag: &str, e: impl std::fmt::Display) -> i32 {
    eprintln!("samie-exp: {flag}: {e}");
    2
}

/// `--designs` (default: all six families) as registry handles, or the
/// usage-error exit code.
fn designs_arg(args: &Args) -> Result<Vec<DesignHandle>, i32> {
    DesignRegistry::builtin()
        .parse_list(
            args.designs
                .as_deref()
                .unwrap_or("conv:128,filtered,samie,arb,unbounded,oracle"),
        )
        .map_err(|e| usage_error("--designs", e))
}

/// `record` entry point: capture the trace a session consumes.
fn run_record_command(args: &Args) -> i32 {
    let bench = args.benchmarks.as_deref().unwrap_or("gzip");
    let workload = match find_workload(bench) {
        Ok(w) => w,
        Err(e) => return usage_error("--bench", e),
    };
    let designs = match designs_arg(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let rc = args.one_off_rc();
    let path = args
        .out
        .join(format!("{}-s{}.strc", workload.name(), rc.seed));
    let session = SimSession::new(&designs[0], &workload)
        .run_config(rc)
        .record(&path);
    let report = designs[1..].iter().fold(session, |s, d| s.design(d)).run();
    for run in &report.runs {
        println!("  {:<28} ipc {:.4}", run.id, run.stats.ipc());
    }
    println!(
        "recorded {} ops of `{}` -> {}",
        report.ops_consumed,
        report.workload,
        path.display()
    );
    println!("replay:  samie-exp sweep --bench @{}", path.display());
    0
}

/// How a cache-consulting command sees the experiment store: open, off
/// by request (`--no-cache`, bench mode), or *failed to open* — the
/// failure carries its reason so the final report can surface it
/// instead of a mid-scroll warning silently degrading the run.
enum CacheState {
    Open(PointCache),
    Disabled,
    Failed(String),
}

impl CacheState {
    fn cache(&self) -> Option<&PointCache> {
        match self {
            CacheState::Open(c) => Some(c),
            _ => None,
        }
    }

    fn failure(&self) -> Option<&str> {
        match self {
            CacheState::Failed(reason) => Some(reason),
            _ => None,
        }
    }
}

/// Open the experiment store for a cache-consulting command. A failure
/// is reported *and remembered*: cached CLI paths degrade to uncached
/// execution but print the reason again in the report tail.
fn open_cache(args: &Args, disabled: bool) -> CacheState {
    if disabled {
        return CacheState::Disabled;
    }
    match PointCache::open(&args.store) {
        Ok(c) => CacheState::Open(c),
        Err(e) => {
            let reason = format!(
                "cannot open experiment store {} ({e})",
                args.store.display()
            );
            eprintln!("warning: {reason}; running uncached");
            CacheState::Failed(reason)
        }
    }
}

/// Resolve the grid for `sweep`/`bench`/`profile`: start from `--exp`
/// (or the mode's default grid), then let the explicit flags override
/// individual fields.
fn build_grid(args: &Args, is_bench: bool) -> Result<SweepGrid, String> {
    let mut spec = match &args.exp {
        Some(s) => s.parse::<ExperimentSpec>().map_err(|e| e.to_string())?,
        None if is_bench => ExperimentSpec::bench_default(args.rc),
        None => ExperimentSpec::sweep_default(args.rc),
    };
    if args.instrs_set {
        spec.instrs = args.rc.instrs;
    }
    if args.warmup_set {
        spec.warmup = args.rc.warmup;
    }
    if let Some(d) = &args.designs {
        spec.designs = DesignSpec::parse_list(d).map_err(|e| e.to_string())?;
    }
    if let Some(b) = &args.benchmarks {
        spec.benches = BenchSel::parse_bench_list(b).map_err(|e| e.to_string())?;
    }
    if let Some(s) = &args.seeds {
        spec.seeds = s
            .split(',')
            .filter(|x| !x.is_empty())
            .map(|x| x.parse().map_err(|_| format!("bad seed `{x}`")))
            .collect::<Result<_, _>>()?;
    }
    spec.to_grid()
}

/// `sweep` / `bench` entry point; returns the process exit code.
fn run_sweep_command(args: &Args, is_bench: bool) -> i32 {
    let mode = if is_bench { "bench" } else { "sweep" };
    let grid = match build_grid(args, is_bench) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{mode}: {e}");
            return 2;
        }
    };
    // Shards hand their results over through the store, and `bench`
    // exists to measure raw simulation throughput — the modes are
    // mutually exclusive.
    if args.shard.is_some() && (is_bench || args.no_cache) {
        eprintln!("--shard needs the experiment store: use `sweep` without --no-cache");
        return 2;
    }
    // `bench` is a throughput tracker: its number must be comparable
    // across hosts with different core counts, so it runs serially
    // unless a worker count is requested explicitly — and it never
    // consults the cache (a cache hit measures nothing).
    let jobs = if is_bench && args.jobs == 0 {
        1
    } else {
        args.jobs
    };
    let cache = open_cache(args, is_bench || args.no_cache);
    if args.shard.is_some() && cache.cache().is_none() {
        eprintln!("a sharded worker without a store would simulate into the void");
        return 2;
    }
    let n = grid.designs.len() * grid.benchmarks.len() * grid.seeds.len();
    let shard_note = args
        .shard
        .map(|s| format!(" [shard {s}]"))
        .unwrap_or_default();
    eprintln!(
        "{mode}: {} designs x {} benchmarks x {} seeds = {n} points ({} + {} instrs each){shard_note}",
        grid.designs.len(),
        grid.benchmarks.len(),
        grid.seeds.len(),
        grid.rc.warmup,
        grid.rc.instrs,
    );
    let mut report = run_sweep(
        &grid,
        &SweepOptions {
            jobs,
            cache: cache.cache(),
            shard: args.shard,
        },
    );
    report.mode = mode;
    println!("{}", report.table().render());
    if let Some(c) = cache.cache() {
        println!(
            "{} [store {}]",
            report.cache_summary(),
            c.store().root().display()
        );
    }
    if let Some(reason) = cache.failure() {
        // Repeated at the tail on purpose: the warning at open time
        // scrolls away under the sweep's progress output.
        println!("store UNAVAILABLE — ran uncached: {reason}");
    }
    println!(
        "total: {} simulated instructions in {:.2} s = {:.2} Msim-instr/s",
        report.total_instructions(),
        report.wall.as_secs_f64(),
        report.total_sim_ips() / 1e6,
    );
    match report.write(&args.out) {
        Ok(p) => eprintln!("  -> {}", p.display()),
        Err(e) => eprintln!("  (json not written: {e})"),
    }
    if let Some(path) = &args.baseline {
        let baseline = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return 1;
            }
        };
        match check_regression(&report, &baseline, args.max_regression) {
            Ok(msg) => println!("baseline check OK: {msg}"),
            Err(msg) => {
                eprintln!(
                    "THROUGHPUT REGRESSION (> {:.1}x): {msg}",
                    args.max_regression
                );
                return 3;
            }
        }
    }
    0
}

/// `profile` entry point: per-stage wall-time attribution over the
/// bench grid (or whatever --exp/--designs/--bench selects). Runs
/// serially by construction — concurrent points would contend for cores
/// and smear each other's timings.
fn run_profile_command(args: &Args) -> i32 {
    let grid = match build_grid(args, true) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("profile: {e}");
            return 2;
        }
    };
    eprintln!(
        "profile: {} designs x {} benchmarks x {} seeds, {} + {} instrs per point (serial)",
        grid.designs.len(),
        grid.benchmarks.len(),
        grid.seeds.len(),
        grid.rc.warmup,
        grid.rc.instrs,
    );
    let report = exp_harness::run_profile(&grid);
    println!("{}", report.table().render());
    match report.write(&args.out) {
        Ok(p) => {
            eprintln!("  -> {}", p.display());
            0
        }
        Err(e) => {
            eprintln!("cannot write profile report: {e}");
            1
        }
    }
}

/// `report` entry point: regenerate the reproduction book.
fn run_report_command(args: &Args) -> i32 {
    let out = if args.out_set {
        args.out.clone()
    } else {
        PathBuf::from("docs/book")
    };
    let cache = open_cache(args, args.no_cache);
    if let Some(reason) = cache.failure() {
        if args.expect_warm.is_some() {
            // A warm-gate run that cannot even open the store can only
            // fail the gate after simulating everything — refuse early.
            eprintln!("--expect-warm needs the store: {reason}");
            return 5;
        }
    }
    let mut opts = ReportOptions::new(args.rc, &out);
    opts.cache = cache.cache();
    eprintln!(
        "report: {} benchmarks, {} + {} instrs per point (seed {}) -> {}",
        opts.suite.len(),
        args.rc.warmup,
        args.rc.instrs,
        args.rc.seed,
        out.display()
    );
    let book = match generate_book(&opts) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("report failed: {e}");
            return 1;
        }
    };
    println!(
        "wrote {} files to {} in {:.2} s",
        book.pages.len(),
        out.display(),
        book.wall.as_secs_f64()
    );
    if let Some(reason) = cache.failure() {
        println!("store UNAVAILABLE — book regenerated uncached: {reason}");
    }
    if let Some(c) = cache.cache() {
        let speedup = if book.wall.as_secs_f64() > 0.0 {
            c.saved().as_secs_f64() / book.wall.as_secs_f64()
        } else {
            0.0
        };
        println!(
            "cache: {} hits / {} misses; saved ~{:.2} s of simulation (warm speedup ~{speedup:.0}x) [store {}]",
            c.hits(),
            c.misses(),
            c.saved().as_secs_f64(),
            c.store().root().display()
        );
        if let Some(want) = args.expect_warm {
            if c.misses() > 0 {
                eprintln!("EXPECTED WARM RUN: {} points missed the cache", c.misses());
                return 5;
            }
            if speedup < want {
                eprintln!("EXPECTED WARM SPEEDUP >= {want:.0}x, measured ~{speedup:.0}x");
                return 5;
            }
            println!("warm gate OK: all hits, speedup ~{speedup:.0}x >= {want:.0}x");
        }
    } else if args.expect_warm.is_some() {
        eprintln!("--expect-warm requires the cache (drop --no-cache)");
        return 5;
    }
    0
}

/// `store` entry point: inspect or garbage-collect the experiment store.
fn run_store_command(args: &Args) -> i32 {
    let cache = match PointCache::open(&args.store) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open experiment store {}: {e}", args.store.display());
            return 1;
        }
    };
    let store = cache.store();
    if args.dump {
        // Deterministic text form of every entry, sorted, timing
        // excluded — two stores holding the same results dump
        // byte-identical text (a diffable record of what a store holds).
        match store.dump_deterministic() {
            Ok(text) => {
                print!("{text}");
                return 0;
            }
            Err(e) => {
                eprintln!("cannot dump store: {e}");
                return 1;
            }
        }
    }
    if args.gc {
        match store.gc(SIM_VERSION) {
            Ok(r) => {
                println!(
                    "gc: kept {}, removed {} stale + {} corrupt, freed {} bytes",
                    r.kept, r.removed_stale, r.removed_corrupt, r.bytes_freed
                );
                return 0;
            }
            Err(e) => {
                eprintln!("gc failed: {e}");
                return 1;
            }
        }
    }
    let (entries, bytes) = match (store.len(), store.disk_bytes()) {
        (Ok(n), Ok(b)) => (n, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cannot read store: {e}");
            return 1;
        }
    };
    println!(
        "store {}: {entries} entries, {:.1} KiB (sim version {SIM_VERSION})",
        store.root().display(),
        bytes as f64 / 1024.0
    );
    let mut rows = match store.index() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot read index: {e}");
            return 1;
        }
    };
    // The index is a convenience the entries can always regenerate:
    // concurrent appenders (or a crash between publish and append) can
    // leave it short or duplicated — heal it on sight.
    if rows.len() != entries {
        eprintln!(
            "index lists {} of {entries} entries; rebuilding it from the entry files",
            rows.len()
        );
        match store.rebuild_index().and_then(|_| store.index()) {
            Ok(r) => rows = r,
            Err(e) => {
                eprintln!("cannot rebuild index: {e}");
                return 1;
            }
        }
    }
    let mut by_design: Vec<(String, usize)> = Vec::new();
    let mut by_version: Vec<(String, usize)> = Vec::new();
    for row in &rows {
        match by_design.iter_mut().find(|(d, _)| *d == row.design) {
            Some((_, n)) => *n += 1,
            None => by_design.push((row.design.clone(), 1)),
        }
        match by_version.iter_mut().find(|(v, _)| *v == row.sim_version) {
            Some((_, n)) => *n += 1,
            None => by_version.push((row.sim_version.clone(), 1)),
        }
    }
    let mut t = Table::new(
        "Experiment store - points per design",
        &["design", "points"],
    );
    for (d, n) in by_design {
        t.push_row(vec![d, n.to_string()]);
    }
    println!("{}", t.render());
    for (v, n) in by_version {
        let stale = if v == SIM_VERSION {
            ""
        } else {
            "  (stale - `samie-exp store --gc` reclaims)"
        };
        println!("version {v}: {n} points{stale}");
    }
    0
}

/// `rv` entry point: the real-ISA frontend — assemble a program for
/// inspection, or run one through the designs under the architectural
/// oracle. Returns the process exit code (2 on usage or assembly error).
fn run_rv_command(args: &Args) -> i32 {
    const USAGE: &str =
        "usage: samie-exp rv asm FILE.s | samie-exp rv run <FILE.s|rv:NAME> [--designs LIST] [common flags]";
    let (verb, target) = match args.positionals.as_slice() {
        [v, t] => (v.as_str(), t.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match verb {
        "asm" => run_rv_asm(target),
        "run" => run_rv_run(args, target),
        other => {
            eprintln!("unknown rv subcommand `{other}`; {USAGE}");
            2
        }
    }
}

/// `rv asm`: assemble and print the listing + symbol table.
fn run_rv_asm(path: &str) -> i32 {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let image = match rv_front::assemble(path, &source) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    for (i, &word) in image.text.iter().enumerate() {
        let pc = rv_front::TEXT_BASE + 4 * i as u32;
        // Every assembled word decodes back (encode/decode are inverses),
        // so the listing shows the canonical disassembly.
        let asm = rv_front::decode(word)
            .map(|ins| ins.asm())
            .unwrap_or_else(|_| "<raw>".into());
        println!("{pc:08x}: {word:08x}  {asm}");
    }
    let mut labels: Vec<(&String, &u32)> = image.labels.iter().collect();
    labels.sort_by_key(|&(_, addr)| *addr);
    for (name, addr) in labels {
        println!("{addr:08x}  {name}");
    }
    println!(
        "{} instructions, {} data bytes, {} labels",
        image.text.len(),
        image.data.len(),
        image.labels.len()
    );
    0
}

/// `rv run`: emulate a real program and compare every design on its
/// retired-op trace, oracle-checked.
fn run_rv_run(args: &Args, target: &str) -> i32 {
    let workload = if target.ends_with(".s") {
        let source = match std::fs::read_to_string(target) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {target}: {e}");
                return 2;
            }
        };
        let stem = std::path::Path::new(target)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("program");
        match Workload::rv_source(&format!("rv:{stem}"), target, &source) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    } else {
        match find_workload(target) {
            Ok(w) if w.rv().is_some() => w,
            Ok(w) => {
                eprintln!(
                    "`{}` is not a real program; `rv run` takes a .s file or an rv:* entry (e.g. rv:quicksort)",
                    w.name()
                );
                return 2;
            }
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    };
    let designs = match designs_arg(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let rc = args.one_off_rc();
    let rv = workload
        .rv()
        .expect("rv run targets carry a program")
        .clone();
    eprintln!(
        "rv: `{}` retires {} ops/pass ({:?}-halt, a0 = {:#x}); {} + {} instrs x {} designs",
        workload.name(),
        rv.period(),
        rv.record.halt,
        rv.record.state.regs[10],
        rc.warmup,
        rc.instrs,
        designs.len(),
    );
    let session = SimSession::new(&designs[0], &workload)
        .run_config(rc)
        .arch_oracle();
    let report = designs[1..].iter().fold(session, |s, d| s.design(d)).run();
    for run in &report.runs {
        println!(
            "  {:<28} ipc {:.4}  committed {}",
            run.id,
            run.stats.ipc(),
            run.stats.committed
        );
    }
    if let Some(summary) = &report.arch_oracle {
        println!("{summary}");
    }
    0
}

/// `analyze` entry point: run the repo-specific lints
/// (`samie-analyzer`) over the workspace, always denying findings —
/// the standalone `samie-analyze` binary has the permissive flags.
fn run_analyze_command() -> i32 {
    let mut root = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        if root.join("Cargo.toml").exists() && root.join("ROADMAP.md").exists() {
            break;
        }
        if !root.pop() {
            eprintln!("analyze: cannot find the workspace root (run inside the repo)");
            return 2;
        }
    }
    let opts = samie_analyzer::AnalyzeOptions {
        root: root.clone(),
        only: None,
    };
    let report = match samie_analyzer::analyze(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 1;
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    let json = root.join("ANALYZE_report.json");
    if let Err(e) = std::fs::write(&json, samie_analyzer::render_json(&report)) {
        eprintln!("analyze: cannot write {}: {e}", json.display());
        return 1;
    }
    eprintln!(
        "analyze: {} finding(s), {} suppressed, {} files, {} lints -> {}",
        report.findings.len(),
        report.suppressed.len(),
        report.files_scanned,
        report.lints_run.len(),
        json.display()
    );
    if report.findings.is_empty() {
        0
    } else {
        6
    }
}

fn emit(t: &Table, out: &std::path::Path, chart: bool) {
    println!("{}", t.render());
    if chart && t.headers.len() >= 2 {
        // Chart the last column against the first (the key series of
        // every figure table).
        println!(
            "{}",
            exp_harness::table::bar_chart(t, 0, t.headers.len() - 1, 50)
        );
    }
    match t.write_csv(out) {
        Ok(p) => eprintln!("  -> {}", p.display()),
        Err(e) => eprintln!("  (csv not written: {e})"),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("samie-exp: {e}");
            std::process::exit(2);
        }
    };
    let exp = match &args.command {
        Command::Designs => {
            println!("registered design kinds (comma-separate specs for --designs):");
            for (kind, help) in DesignRegistry::builtin().help_lines() {
                println!("  {kind:<14} {help}");
            }
            return;
        }
        Command::Sweep => std::process::exit(run_sweep_command(&args, false)),
        Command::Bench => std::process::exit(run_sweep_command(&args, true)),
        Command::Profile => std::process::exit(run_profile_command(&args)),
        Command::Fuzz => std::process::exit(run_fuzz_command(&args)),
        Command::Record => std::process::exit(run_record_command(&args)),
        Command::Report => std::process::exit(run_report_command(&args)),
        Command::Store => std::process::exit(run_store_command(&args)),
        Command::Analyze => std::process::exit(run_analyze_command()),
        Command::Rv => std::process::exit(run_rv_command(&args)),
        Command::Paper(id) => id.clone(),
    };
    let rc = args.rc;
    let exp = exp.as_str();
    eprintln!(
        "running `{exp}` with {} measured / {} warm-up instructions per benchmark (seed {})",
        rc.instrs, rc.warmup, rc.seed
    );

    // `Command::parse` admits only PAPER_IDS, so every id emits something.
    let wants = |id: &str| exp == id || exp == "all";
    let show = |t: &Table| emit(t, &args.out, args.chart);
    if wants("fig1") {
        eprintln!("ARB sweep (17 configurations x 26 benchmarks)...");
        show(&fig1::table(&fig1::run_with(&rc, None, all_benchmarks())));
    }
    if wants("fig3") || wants("fig4") {
        eprintln!("SharedLSQ sizing study (3 geometries x 26 benchmarks)...");
        let runs = fig3_4::run_with(&rc, None, all_benchmarks());
        if exp != "fig4" {
            show(&fig3_4::fig3_table(&runs));
        }
        if exp != "fig3" {
            show(&fig3_4::fig4_table(&runs));
        }
    }
    if wants("tab1") {
        show(&tab1_delay::tab1_table());
    }
    if wants("delay") {
        show(&tab1_delay::delay_table());
    }
    type PairedTable = fn(&[PairedRun]) -> Table;
    let paired_tables: [(&str, PairedTable); 9] = [
        ("fig5", paired::fig5_table),
        ("fig6", paired::fig6_table),
        ("fig7", paired::fig7_table),
        ("fig8", paired::fig8_table),
        ("fig9", paired::fig9_table),
        ("fig10", paired::fig10_table),
        ("fig11", paired::fig11_table),
        ("fig12", paired::fig12_table),
        ("summary", paired::summary_table),
    ];
    if paired_tables.iter().any(|(id, _)| wants(id)) {
        eprintln!("simulating the 26-benchmark suite under both LSQs...");
        let runs = paired::run_with(&rc, None, all_benchmarks().iter().map(Workload::from));
        for (id, table) in paired_tables {
            if wants(id) {
                show(&table(&runs));
            }
        }
    }
    if wants("tab456") {
        show(&tab456::regen_table45());
        show(&tab456::table6());
    }
}
