//! `samie-exp` — regenerate the paper's tables and figures as the
//! reproduction book, and run design-space sweeps / throughput
//! benchmarks beyond them.
//!
//! ```text
//! samie-exp <command> [--instrs N] [--warmup N] [--seed N] [--out DIR] [--quick] ...
//!
//! samie-exp sweep [--designs LIST] [--bench LIST|all] [--seeds LIST]
//!                 [--cfg KEY:VAL,...] [--jobs N] [common flags]
//!   design-space grid: LSQ designs x workloads x seeds -> CSV +
//!   BENCH_sweep.json (+ timing-zeroed BENCH_sweep.det.{json,csv}, the
//!   byte-comparable artifacts). Designs are DesignSpec strings (run
//!   `samie-exp designs` for the kinds and their syntax),
//!   comma-separated. Each flag replaces one axis of the default grid
//!   (six-design ladder x the 26-benchmark suite).
//!
//!   --cfg overrides core-configuration fields of the paper machine by
//!   their SimConfig::canonical tags (fw dw iwi iwf cw fq rob iqi iqf mr
//!   ports wd), e.g. `--cfg rob:128,ports:2`.
//!
//! samie-exp bench [--baseline FILE] [--max-regression X] [common flags]
//!   throughput-tracking grid (default: the paper trio x gzip/swim/ammp;
//!   the sweep flags reshape it); with --baseline, exits 3 if aggregate
//!   simulated-instructions/sec regressed more than X times (default
//!   2.0) vs the checked-in BENCH_baseline.json.
//!
//! samie-exp designs
//!   list every design kind `--designs` accepts with its spec syntax.
//!
//! samie-exp fuzz [--iters N] [--seed S] [--jobs N] [common flags]
//!   oracle-differential fuzzing: every design family vs the
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
//!   the experiment store so re-runs are nearly free. This is the one
//!   way to regenerate a paper artefact. --expect-warm X
//!   exits 5 unless the run was all cache hits with a warm speedup >= X
//!   (the report-smoke CI gate).
//!
//! samie-exp store [--store DIR] [--gc | --dump]
//!   inspect an existing experiment store (entries, size, per-design and
//!   per-version counts, decoded from every entry; a corrupt entry is
//!   named and exits 1); with --gc, delete corrupt and version-stale
//!   entries; with --dump, print every entry in deterministic sorted
//!   text form (timing excluded) for byte-for-byte store diffs. A
//!   missing store exits 1 and is not created; --gc with --dump exits 2.
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
//!   and the exact op stream the designs consumed; a mismatch is one
//!   stderr line naming the program, exit 1).
//!
//! caching: sweep and report consult the content-addressed store at
//! --store DIR (default .samie-store) and only simulate cache misses;
//! --no-cache forces full recomputation. bench never caches — it exists
//! to measure simulation throughput.
//!
//! A malformed flag (unknown, missing its value, or with an unparseable
//! value) prints one `samie-exp: ...` line naming the flag and exits 2;
//! so does a missing or unknown command. `--help` lists every flag (the
//! `FLAGS` table) and command.
//! ```

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use exp_harness::fuzz::{run_fuzz, FuzzConfig};
use exp_harness::report::{generate_book, ReportOptions};
use exp_harness::runner::{PointCache, RunConfig};
use exp_harness::session::{record_trace, SimSession};
use exp_harness::sweep::{check_regression, run_sweep, SweepGrid, SweepOptions};
use exp_harness::table::Table;
use exp_harness::{designs_from_specs, DesignHandle, DesignSpec, SIM_VERSION};
use exp_store::{ExperimentStore, StoreError};
use ooo_sim::SimConfig;
use spec_traces::{find_workload, Workload};

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout without panicking. Once the reader has closed the
/// pipe (`samie-exp store --dump | head`), later output is dropped
/// quietly and the command still finishes its files and exit code; any
/// other write error ends the process with one line and exit 1.
fn write_stdout(text: std::fmt::Arguments) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(text) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => CLOSED.store(true, Ordering::Relaxed),
        Err(e) => {
            eprintln!("samie-exp: cannot write to stdout: {e}");
            std::process::exit(Exit::Failure as i32);
        }
    }
}

/// The process exit status, so CI jobs and scripts can branch on what
/// went wrong. Every command returns one; the table in
/// `docs/REPRODUCING.md` documents each code (a unit test below keeps
/// the two in step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i32)]
enum Exit {
    /// Success, including `--help`.
    Ok,
    /// Runtime failure: I/O, a missing store, a corrupt entry or a real
    /// program failing the architectural oracle under `report` or
    /// `rv run`.
    Failure,
    /// Usage error: a malformed command line or incompatible flags.
    Usage,
    /// `bench` throughput regressed more than `--max-regression`.
    Regression,
    /// `fuzz` found a design diverging from the oracle.
    Mismatch,
    /// `report --expect-warm` saw fewer warm cache hits than promised.
    NotWarm,
}

/// What the first positional argument asks for. An unknown command
/// fails up front with a suggestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Sweep,
    Bench,
    Designs,
    Fuzz,
    Record,
    Report,
    Store,
    /// Real-ISA frontend: `rv asm FILE.s` / `rv run <FILE.s|rv:NAME>`.
    Rv,
}

/// The mode commands, by the word that selects them.
const MODES: [(&str, Command); 8] = [
    ("sweep", Command::Sweep),
    ("bench", Command::Bench),
    ("designs", Command::Designs),
    ("fuzz", Command::Fuzz),
    ("record", Command::Record),
    ("report", Command::Report),
    ("store", Command::Store),
    ("rv", Command::Rv),
];

impl Command {
    fn parse(word: &str) -> Result<Command, String> {
        if let Some((_, mode)) = MODES.iter().find(|(w, _)| *w == word) {
            return Ok(*mode);
        }
        let known: Vec<&str> = MODES.iter().map(|(w, _)| *w).collect();
        let mut msg = format!("unknown command `{word}`");
        if let Some(best) = closest(word, &known) {
            msg.push_str(&format!(" (did you mean `{best}`?)"));
        } else {
            msg.push_str(&format!(
                " (known: {}; every paper table and figure is a page of `report`)",
                known.join(", ")
            ));
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

/// The parsed command line, apart from the command word. Every field
/// but `positionals` is set through [`FLAGS`]; `None` means "not given",
/// and each command applies its own default.
struct Args {
    instrs: Option<u64>,
    warmup: Option<u64>,
    seed: u64,
    out: Option<PathBuf>,
    designs: Option<String>,
    benchmarks: Option<String>,
    seeds: Option<String>,
    /// `--cfg` overrides, parsed onto the paper configuration.
    cfg: SimConfig,
    jobs: usize,
    baseline: Option<PathBuf>,
    max_regression: f64,
    iters: u64,
    store: PathBuf,
    no_cache: bool,
    gc: bool,
    expect_warm: Option<f64>,
    dump: bool,
    /// Extra positionals after the command word (only `rv` takes any:
    /// the subcommand verb and its target).
    positionals: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            instrs: None,
            warmup: None,
            seed: RunConfig::default().seed,
            out: None,
            designs: None,
            benchmarks: None,
            seeds: None,
            cfg: SimConfig::paper(),
            jobs: 0,
            baseline: None,
            max_regression: 2.0,
            iters: 200,
            store: PathBuf::from(".samie-store"),
            no_cache: false,
            gc: false,
            expect_warm: None,
            dump: false,
            positionals: Vec::new(),
        }
    }
}

/// How a flag sets its [`Args`] field.
enum Set {
    /// A switch: takes no value.
    Switch(fn(&mut Args)),
    /// Keeps its value as text (the command that uses it parses it).
    Text(fn(&mut Args, String)),
    /// Parses its value now; the error names what was wrong with it.
    Parse(fn(&mut Args, &str) -> Result<(), String>),
}

/// A flag value parsed as a number.
fn number<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("expected a number, got \"{v}\""))
}

/// Every flag `samie-exp` accepts, as (name, value hint for `--help`,
/// setter) — the one list [`parse_args`] and [`usage`] read.
const FLAGS: [(&str, &str, Set); 18] = [
    (
        "--instrs",
        "N",
        Set::Parse(|a, v| number(v).map(|n| a.instrs = Some(n))),
    ),
    (
        "--warmup",
        "N",
        Set::Parse(|a, v| number(v).map(|n| a.warmup = Some(n))),
    ),
    (
        "--quick",
        "",
        Set::Switch(|a| {
            let q = RunConfig::quick();
            (a.instrs, a.warmup) = (Some(q.instrs), Some(q.warmup));
        }),
    ),
    (
        "--seed",
        "N",
        Set::Parse(|a, v| number(v).map(|n| a.seed = n)),
    ),
    ("--out", "DIR", Set::Text(|a, v| a.out = Some(v.into()))),
    ("--designs", "LIST", Set::Text(|a, v| a.designs = Some(v))),
    ("--bench", "LIST", Set::Text(|a, v| a.benchmarks = Some(v))),
    ("--seeds", "LIST", Set::Text(|a, v| a.seeds = Some(v))),
    (
        "--cfg",
        "KEY:VAL,...",
        Set::Parse(|a, v| SweepGrid::parse_cfg(v).map(|c| a.cfg = c)),
    ),
    (
        "--jobs",
        "N",
        Set::Parse(|a, v| number(v).map(|n| a.jobs = n)),
    ),
    (
        "--baseline",
        "FILE",
        Set::Text(|a, v| a.baseline = Some(v.into())),
    ),
    (
        "--max-regression",
        "X",
        Set::Parse(|a, v| number(v).map(|x| a.max_regression = x)),
    ),
    (
        "--iters",
        "N",
        Set::Parse(|a, v| number(v).map(|n| a.iters = n)),
    ),
    ("--store", "DIR", Set::Text(|a, v| a.store = v.into())),
    ("--no-cache", "", Set::Switch(|a| a.no_cache = true)),
    ("--gc", "", Set::Switch(|a| a.gc = true)),
    ("--dump", "", Set::Switch(|a| a.dump = true)),
    (
        "--expect-warm",
        "X",
        Set::Parse(|a, v| number(v).map(|x| a.expect_warm = Some(x))),
    ),
];

/// The `--help` text, built from [`MODES`] and [`FLAGS`].
fn usage() -> String {
    let commands: Vec<&str> = MODES.iter().map(|(w, _)| *w).collect();
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|(name, hint, _)| match *hint {
            "" => format!("[{name}]"),
            hint => format!("[{name} {hint}]"),
        })
        .collect();
    format!(
        "usage: samie-exp <{}> {}",
        commands.join("|"),
        flags.join(" ")
    )
}

/// Parse the command line. A malformed flag, or a missing or unknown
/// command, is an `Err` holding one diagnostic line.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<(Command, Args), String> {
    let mut args = Args::default();
    let mut command = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            eprintln!("{}", usage());
            std::process::exit(Exit::Ok as i32);
        }
        if let Some((_, _, set)) = FLAGS.iter().find(|(name, _, _)| *name == a) {
            // A value is the next word, unless the command line ends or
            // the next word is itself a flag.
            let mut value = || match it.next() {
                Some(v) if !v.starts_with("--") => Ok(v),
                _ => Err(format!("{a}: missing value")),
            };
            match set {
                Set::Switch(set) => set(&mut args),
                Set::Text(set) => set(&mut args, value()?),
                Set::Parse(set) => set(&mut args, &value()?).map_err(|e| format!("{a}: {e}"))?,
            }
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a} (run with --help)"));
        } else if command.is_none() {
            command = Some(Command::parse(&a).map_err(|e| format!("{e}; run with --help"))?);
        } else if command == Some(Command::Rv) {
            args.positionals.push(a);
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    let command = command.ok_or_else(|| format!("no command given; {}", usage()))?;
    Ok((command, args))
}

/// `fuzz` entry point; returns the process exit code (4 on mismatch).
fn run_fuzz_command(args: &Args) -> Exit {
    let cfg = FuzzConfig {
        iters: args.iters,
        seed: args.seed,
        rc: RunConfig {
            seed: 0,
            ..args.rc(FuzzConfig::default().rc)
        },
        jobs: args.jobs,
        out: Some(args.out("results")),
    };
    eprintln!(
        "fuzz: {} iterations (seed {}, {} + {} instrs each) x every design family vs oracle + unbounded",
        cfg.iters, cfg.seed, cfg.rc.warmup, cfg.rc.instrs
    );
    let report = run_fuzz(&cfg);
    if report.clean() {
        outln!(
            "fuzz: {} iterations, zero design-vs-oracle mismatches",
            report.iters
        );
        return Exit::Ok;
    }
    outln!(
        "fuzz: {} MISMATCHES in {} iterations",
        report.mismatches.len(),
        report.iters
    );
    for m in &report.mismatches {
        outln!(
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
            outln!("    - {f}");
        }
        if let Some(p) = &m.repro {
            outln!("    replay: samie-exp sweep --bench @{}", p.display());
        }
    }
    Exit::Mismatch
}

impl Args {
    /// The run length: `--instrs`/`--warmup` (or `--quick`) where given,
    /// else `default`'s, under `--seed`.
    fn rc(&self, default: RunConfig) -> RunConfig {
        RunConfig {
            instrs: self.instrs.unwrap_or(default.instrs),
            warmup: self.warmup.unwrap_or(default.warmup),
            seed: self.seed,
        }
    }

    /// The run length of `sweep`, `bench` and `report`: [`Self::rc`]
    /// over the standard default, or the usage-error exit code when no
    /// instruction would be measured.
    fn measured_rc(&self) -> Result<RunConfig, Exit> {
        let rc = self.rc(RunConfig::default());
        if rc.instrs == 0 {
            return Err(usage_error("--instrs", "must be positive"));
        }
        Ok(rc)
    }

    /// Run length of the one-off commands (`record`, `rv run`):
    /// [`RunConfig::quick`] unless `--instrs`/`--warmup`/`--quick` was
    /// given, in which case the standard default fills the other.
    fn one_off_rc(&self) -> RunConfig {
        if self.instrs.is_none() && self.warmup.is_none() {
            self.rc(RunConfig::quick())
        } else {
            self.rc(RunConfig::default())
        }
    }

    /// `--out`, else `default`.
    fn out(&self, default: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from(default))
    }
}

/// A bad flag value caught after parsing: one `samie-exp: FLAG: ...`
/// line on stderr and the usage-error exit code 2.
fn usage_error(flag: &str, e: impl std::fmt::Display) -> Exit {
    eprintln!("samie-exp: {flag}: {e}");
    Exit::Usage
}

/// A `--designs` list as design handles, or the usage-error exit code.
fn parse_designs(list: &str) -> Result<Vec<DesignHandle>, Exit> {
    match DesignSpec::parse_list(list) {
        Ok(d) if d.is_empty() => Err(usage_error("--designs", "needs at least one design")),
        Ok(d) => Ok(designs_from_specs(d)),
        Err(e) => Err(usage_error("--designs", e)),
    }
}

/// `--designs` (default: all six families) for the one-off commands.
fn designs_arg(args: &Args) -> Result<Vec<DesignHandle>, Exit> {
    parse_designs(
        args.designs
            .as_deref()
            .unwrap_or("conv:128,filtered,samie,arb,unbounded,oracle"),
    )
}

/// Create the `--out` directory before any point is simulated, so an
/// unwritable path fails at once, in one line naming it.
fn create_out(dir: &Path) -> Result<(), Exit> {
    std::fs::create_dir_all(dir).map_err(|e| {
        eprintln!("cannot create output directory {}: {e}", dir.display());
        Exit::Failure
    })
}

/// `record` entry point: capture the trace a session consumes.
fn run_record_command(args: &Args) -> Exit {
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
    let out = args.out("results");
    if let Err(code) = create_out(&out) {
        return code;
    }
    let path = out.join(format!("{}-s{}.strc", workload.name(), rc.seed));
    let session = SimSession::new(&designs[0], &workload).run_config(rc);
    let report = designs[1..].iter().fold(session, |s, d| s.design(d)).run();
    for run in &report.runs {
        outln!("  {:<28} ipc {:.4}", run.id, run.stats.ipc());
    }
    if let Err(e) = record_trace(&workload, rc.seed, report.ops_consumed, &path) {
        eprintln!("cannot record to {}: {e}", path.display());
        return Exit::Failure;
    }
    outln!(
        "recorded {} ops of `{}` -> {}",
        report.ops_consumed,
        report.workload,
        path.display()
    );
    outln!("replay:  samie-exp sweep --bench @{}", path.display());
    Exit::Ok
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

/// The `sweep`/`bench` grid: the mode's default grid, with each of
/// `--designs`, `--bench`, `--seeds`, `--cfg` and the run length
/// replacing its axis. A bad value is the usage-error exit code, after
/// one line naming its flag.
fn build_grid(args: &Args, is_bench: bool) -> Result<SweepGrid, Exit> {
    let rc = args.measured_rc()?;
    let mut grid = if is_bench {
        SweepGrid::bench_default(rc)
    } else {
        SweepGrid::sweep_default(rc)
    };
    if let Some(d) = &args.designs {
        grid.designs = parse_designs(d)?;
    }
    if let Some(b) = &args.benchmarks {
        grid.benchmarks = SweepGrid::parse_benchmarks(b).map_err(|e| usage_error("--bench", e))?;
    }
    if let Some(s) = &args.seeds {
        grid.seeds = s
            .split(',')
            .filter(|x| !x.is_empty())
            .map(|x| {
                x.parse()
                    .map_err(|_| usage_error("--seeds", format!("bad seed `{x}`")))
            })
            .collect::<Result<_, _>>()?;
        if grid.seeds.is_empty() {
            return Err(usage_error("--seeds", "needs at least one seed"));
        }
    }
    grid.cfg = args.cfg;
    Ok(grid)
}

/// `sweep` / `bench` entry point; returns the process exit code.
fn run_sweep_command(args: &Args, is_bench: bool) -> Exit {
    let mode = if is_bench { "bench" } else { "sweep" };
    let grid = match build_grid(args, is_bench) {
        Ok(g) => g,
        Err(code) => return code,
    };
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
    let n = grid.designs.len() * grid.benchmarks.len() * grid.seeds.len();
    eprintln!(
        "{mode}: {} designs x {} benchmarks x {} seeds = {n} points ({} + {} instrs each)",
        grid.designs.len(),
        grid.benchmarks.len(),
        grid.seeds.len(),
        grid.rc.warmup,
        grid.rc.instrs,
    );
    let out = args.out("results");
    if let Err(code) = create_out(&out) {
        return code;
    }
    let mut report = run_sweep(
        &grid,
        &SweepOptions {
            jobs,
            cache: cache.cache(),
        },
    );
    report.mode = mode;
    outln!("{}", report.table().render());
    if let Some(c) = cache.cache() {
        outln!("{}", c.summary(report.wall));
    }
    if let Some(reason) = cache.failure() {
        // Repeated at the tail on purpose: the warning at open time
        // scrolls away under the sweep's progress output.
        outln!("store UNAVAILABLE — ran uncached: {reason}");
    }
    outln!(
        "total: {} simulated instructions in {:.2} s = {:.2} Msim-instr/s",
        report.total_instructions(),
        report.wall.as_secs_f64(),
        report.total_sim_ips() / 1e6,
    );
    match report.write(&out) {
        Ok(p) => eprintln!("  -> {}", p.display()),
        Err(e) => {
            eprintln!("cannot write the {mode} report to {}: {e}", out.display());
            return Exit::Failure;
        }
    }
    if let Some(path) = &args.baseline {
        let baseline = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return Exit::Failure;
            }
        };
        match check_regression(&report, &baseline, args.max_regression) {
            Ok(msg) => outln!("baseline check OK: {msg}"),
            Err(msg) => {
                eprintln!(
                    "THROUGHPUT REGRESSION (> {:.1}x): {msg}",
                    args.max_regression
                );
                return Exit::Regression;
            }
        }
    }
    Exit::Ok
}

/// `report` entry point: regenerate the reproduction book.
fn run_report_command(args: &Args) -> Exit {
    let out = args.out("docs/book");
    let rc = match args.measured_rc() {
        Ok(rc) => rc,
        Err(code) => return code,
    };
    if let Err(code) = create_out(&out) {
        return code;
    }
    let cache = open_cache(args, args.no_cache);
    if let Some(reason) = cache.failure() {
        if args.expect_warm.is_some() {
            // A warm-gate run that cannot even open the store can only
            // fail the gate after simulating everything — refuse early.
            eprintln!("--expect-warm needs the store: {reason}");
            return Exit::NotWarm;
        }
    }
    let mut opts = ReportOptions::new(rc, &out);
    opts.cache = cache.cache();
    eprintln!(
        "report: {} benchmarks, {} + {} instrs per point (seed {}) -> {}",
        opts.suite.len(),
        rc.warmup,
        rc.instrs,
        rc.seed,
        out.display()
    );
    let book = match generate_book(&opts) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("report failed: {e}");
            return Exit::Failure;
        }
    };
    outln!(
        "wrote {} files to {} in {:.2} s",
        book.pages.len(),
        out.display(),
        book.wall.as_secs_f64()
    );
    if let Some(reason) = cache.failure() {
        outln!("store UNAVAILABLE — book regenerated uncached: {reason}");
    }
    if let Some(c) = cache.cache() {
        outln!("{}", c.summary(book.wall));
        if let Some(want) = args.expect_warm {
            let speedup = c.warm_speedup(book.wall);
            if c.misses() > 0 {
                eprintln!("EXPECTED WARM RUN: {} points missed the cache", c.misses());
                return Exit::NotWarm;
            }
            if speedup < want {
                eprintln!("EXPECTED WARM SPEEDUP >= {want:.0}x, measured ~{speedup:.0}x");
                return Exit::NotWarm;
            }
            outln!("warm gate OK: all hits, speedup ~{speedup:.0}x >= {want:.0}x");
        }
    } else if args.expect_warm.is_some() {
        eprintln!("--expect-warm requires the cache (drop --no-cache)");
        return Exit::NotWarm;
    }
    Exit::Ok
}

/// `store` entry point: inspect or garbage-collect an existing
/// experiment store (never creates one).
fn run_store_command(args: &Args) -> Exit {
    if args.dump && args.gc {
        return usage_error("--gc", "cannot be combined with --dump");
    }
    let store = match ExperimentStore::open_existing(&args.store) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open experiment store {}: {e}", args.store.display());
            return Exit::Failure;
        }
    };
    if args.dump {
        // Deterministic text form of every entry, sorted, timing
        // excluded — two stores holding the same results dump
        // byte-identical text (a diffable record of what a store holds).
        return match store.dump_deterministic() {
            Ok(text) => {
                write_stdout(format_args!("{text}"));
                Exit::Ok
            }
            Err(e) => store_walk_failed(e),
        };
    }
    if args.gc {
        match store.gc(SIM_VERSION) {
            Ok(r) => {
                outln!(
                    "gc: kept {}, removed {} stale + {} corrupt, freed {} bytes",
                    r.kept,
                    r.removed_stale,
                    r.removed_corrupt,
                    r.bytes_freed
                );
                return Exit::Ok;
            }
            Err(e) => {
                eprintln!("gc failed: {e}");
                return Exit::Failure;
            }
        }
    }
    let (entries, bytes) = match (store.entries(), store.disk_bytes()) {
        (Ok(entries), Ok(bytes)) => (entries, bytes),
        (Err(e), _) => return store_walk_failed(e),
        (_, Err(e)) => return store_walk_failed(e.into()),
    };
    outln!(
        "store {}: {} entries, {:.1} KiB (sim version {SIM_VERSION})",
        store.root().display(),
        entries.len(),
        bytes as f64 / 1024.0
    );
    let mut by_design: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_version: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &entries {
        *by_design.entry(e.key_field("design")).or_default() += 1;
        *by_version.entry(e.key_field("ver")).or_default() += 1;
    }
    let mut t = Table::new(
        "Experiment store - points per design",
        &["design", "points"],
    );
    for (d, n) in by_design {
        t.push_row(vec![d.to_string(), n.to_string()]);
    }
    outln!("{}", t.render());
    for (v, n) in by_version {
        let stale = if v == SIM_VERSION {
            ""
        } else {
            "  (stale - `samie-exp store --gc` reclaims)"
        };
        outln!("version {v}: {n} points{stale}");
    }
    Exit::Ok
}

/// The one line `store` prints when its walk over the entries fails:
/// a corrupt entry names its file and the command that removes it.
fn store_walk_failed(e: StoreError) -> Exit {
    match e {
        StoreError::Corrupt { .. } => eprintln!("{e}; `samie-exp store --gc` removes it"),
        StoreError::Io(_) => eprintln!("cannot read store: {e}"),
    }
    Exit::Failure
}

/// `rv` entry point: the real-ISA frontend — assemble a program for
/// inspection, or run one through the designs under the architectural
/// oracle. Returns the process exit code (2 on usage or assembly error).
fn run_rv_command(args: &Args) -> Exit {
    const USAGE: &str =
        "usage: samie-exp rv asm FILE.s | samie-exp rv run <FILE.s|rv:NAME> [--designs LIST] [common flags]";
    let (verb, target) = match args.positionals.as_slice() {
        [v, t] => (v.as_str(), t.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return Exit::Usage;
        }
    };
    match verb {
        "asm" => run_rv_asm(target),
        "run" => run_rv_run(args, target),
        other => {
            eprintln!("unknown rv subcommand `{other}`; {USAGE}");
            Exit::Usage
        }
    }
}

/// `rv asm`: assemble and print the listing + symbol table.
fn run_rv_asm(path: &str) -> Exit {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Exit::Usage;
        }
    };
    let image = match rv_front::assemble(path, &source) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return Exit::Usage;
        }
    };
    for (i, &word) in image.text.iter().enumerate() {
        let pc = rv_front::TEXT_BASE + 4 * i as u32;
        // Every assembled word decodes back (encode/decode are inverses),
        // so the listing shows the canonical disassembly.
        let asm = rv_front::decode(word)
            .map(|ins| ins.asm())
            .unwrap_or_else(|_| "<raw>".into());
        outln!("{pc:08x}: {word:08x}  {asm}");
    }
    let mut labels: Vec<(&String, &u32)> = image.labels.iter().collect();
    labels.sort_by_key(|&(_, addr)| *addr);
    for (name, addr) in labels {
        outln!("{addr:08x}  {name}");
    }
    outln!(
        "{} instructions, {} data bytes, {} labels",
        image.text.len(),
        image.data.len(),
        image.labels.len()
    );
    Exit::Ok
}

/// `rv run`: emulate a real program and compare every design on its
/// retired-op trace, oracle-checked.
fn run_rv_run(args: &Args, target: &str) -> Exit {
    let workload = if target.ends_with(".s") {
        let source = match std::fs::read_to_string(target) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {target}: {e}");
                return Exit::Usage;
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
                return Exit::Usage;
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
                return Exit::Usage;
            }
            Err(e) => {
                eprintln!("{e}");
                return Exit::Usage;
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
        outln!(
            "  {:<28} ipc {:.4}  committed {}",
            run.id,
            run.stats.ipc(),
            run.stats.committed
        );
    }
    match report.arch_oracle {
        Some(Ok(summary)) => outln!("{summary}"),
        Some(Err(e)) => {
            eprintln!("{e}");
            return Exit::Failure;
        }
        None => {}
    }
    Exit::Ok
}

fn main() {
    let (command, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("samie-exp: {e}");
            std::process::exit(Exit::Usage as i32);
        }
    };
    let code = match command {
        Command::Designs => {
            outln!("registered design kinds (comma-separate specs for --designs):");
            for (kind, help) in DesignSpec::KINDS {
                outln!("  {kind:<14} {help}");
            }
            Exit::Ok
        }
        Command::Sweep => run_sweep_command(&args, false),
        Command::Bench => run_sweep_command(&args, true),
        Command::Fuzz => run_fuzz_command(&args),
        Command::Record => run_record_command(&args),
        Command::Report => run_report_command(&args),
        Command::Store => run_store_command(&args),
        Command::Rv => run_rv_command(&args),
    };
    std::process::exit(code as i32);
}

#[cfg(test)]
mod tests {
    use super::Exit;

    /// Every exit code, in order.
    const ALL: [Exit; 6] = [
        Exit::Ok,
        Exit::Failure,
        Exit::Usage,
        Exit::Regression,
        Exit::Mismatch,
        Exit::NotWarm,
    ];

    #[test]
    fn exit_codes_match_the_reproducing_table() {
        // A new variant stops this match compiling until it is listed
        // in `ALL` (and so checked against the docs) too.
        for e in ALL {
            match e {
                Exit::Ok
                | Exit::Failure
                | Exit::Usage
                | Exit::Regression
                | Exit::Mismatch
                | Exit::NotWarm => {}
            }
        }
        let doc = include_str!("../../../docs/REPRODUCING.md");
        let section = doc
            .split("### Exit codes")
            .nth(1)
            .expect("docs/REPRODUCING.md has an `### Exit codes` section");
        // The `| n | meaning |` rows, up to the next heading.
        let documented: Vec<i32> = section
            .lines()
            .take_while(|l| !l.starts_with('#'))
            .filter_map(|l| l.strip_prefix('|')?.split('|').next()?.trim().parse().ok())
            .collect();
        let codes: Vec<i32> = ALL.iter().map(|&e| e as i32).collect();
        assert_eq!(
            codes, documented,
            "main.rs's Exit codes must equal the rows of docs/REPRODUCING.md's exit-code table"
        );
    }
}
