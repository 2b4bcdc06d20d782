//! Typed experiments: [`ExperimentSpec`], the one declarative
//! description of "what to simulate" behind `samie-exp sweep --exp`.
//!
//! The canonical string form is the command-line format, exactly like
//! [`DesignSpec`]: `Display` renders a spec as space-separated
//! `key=value` fields and `FromStr` parses any field order back, so
//! `parse(display(spec)) == spec` and a canonical string is a fixed
//! point of the round trip. One grammar covers the whole cross product
//! a sweep runs:
//!
//! ```text
//! spec    := field*                      (any order, each key at most once)
//! field   := design=<DesignSpec>,...     required
//!          | bench=<name|@path.strc>,... required; names resolve through
//!          |                             find_workload (case-insensitive,
//!          |                             "did you mean" on typos)
//!          | seed=<u64>,...              default 42
//!          | instrs=<u64>                default 1000000
//!          | warmup=<u64>                default 200000
//!          | cfg=<key:value>,...         core-config overrides, default none
//! ```
//!
//! `cfg` keys reuse the field tags of
//! [`SimConfig::canonical`](ooo_sim::SimConfig::canonical) (`rob:128`
//! shrinks the reorder buffer, `ports:2` halves the d-cache ports, ...),
//! so a spec names precisely the configuration its store keys are hashed
//! under.
//!
//! ```
//! use exp_harness::experiment::ExperimentSpec;
//!
//! let spec: ExperimentSpec = "design=conv:128,samie bench=gzip seed=7 cfg=rob:128"
//!     .parse()
//!     .unwrap();
//! assert_eq!(spec.points(), 2);
//! // Canonical form: every field explicit, `samie` expanded, fixed order.
//! assert_eq!(
//!     spec.to_string(),
//!     "design=conv:128,samie:64x2x8:sh8:ab64 bench=gzip seed=7 \
//!      instrs=1000000 warmup=200000 cfg=rob:128"
//! );
//! ```

use std::fmt;
use std::str::FromStr;

use ooo_sim::SimConfig;
use samie_lsq::{DesignSpec, SamieConfig};
use spec_traces::{all_benchmarks, find_workload, Workload};

use crate::runner::RunConfig;
use crate::sweep::{designs_from_specs, SweepGrid};

/// A malformed experiment spec. The message always names the offending
/// field and quotes the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentParseError(String);

impl ExperimentParseError {
    fn new(msg: impl Into<String>) -> Self {
        ExperimentParseError(msg.into())
    }
}

impl fmt::Display for ExperimentParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad experiment spec: {}", self.0)
    }
}

impl std::error::Error for ExperimentParseError {}

/// One benchmark selection: a catalog workload by canonical name, or a
/// recorded `.strc` trace to replay (`@path`). Paths stay syntactic
/// until [`ExperimentSpec::to_grid`] resolves them — a spec naming a
/// trace file parses (and round-trips) even when the file is not
/// readable *here*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchSel {
    /// A catalog workload (calibrated benchmark or adversarial
    /// generator), stored under its canonical name.
    Name(String),
    /// A recorded trace replayed from this path.
    Replay(String),
}

impl BenchSel {
    fn parse(token: &str) -> Result<Self, ExperimentParseError> {
        if let Some(path) = token.strip_prefix('@') {
            if path.is_empty() {
                return Err(ExperimentParseError::new(
                    "bench: `@` needs a trace path, e.g. `@results/gzip-s42.strc`",
                ));
            }
            return Ok(BenchSel::Replay(path.to_string()));
        }
        // Resolving eagerly canonicalises the name (GZIP -> gzip) and
        // surfaces find_workload's "did you mean" on typos at parse time.
        let w =
            find_workload(token).map_err(|e| ExperimentParseError::new(format!("bench: {e}")))?;
        Ok(BenchSel::Name(w.name().to_string()))
    }

    /// Resolve into the [`Workload`] a grid carries (replay paths are
    /// read here).
    pub fn resolve(&self) -> Result<Workload, String> {
        match self {
            BenchSel::Name(n) => find_workload(n).map_err(|e| e.to_string()),
            BenchSel::Replay(path) => Workload::replay_file(std::path::Path::new(path))
                .map_err(|e| format!("cannot replay `{path}`: {e}")),
        }
    }
}

impl fmt::Display for BenchSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchSel::Name(n) => f.write_str(n),
            BenchSel::Replay(p) => write!(f, "@{p}"),
        }
    }
}

impl FromStr for BenchSel {
    type Err = ExperimentParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BenchSel::parse(s)
    }
}

impl BenchSel {
    /// Parse a comma-separated benchmark list; the word `all` expands to
    /// the whole catalog (calibrated suite + adversarial pack).
    pub fn parse_bench_list(list: &str) -> Result<Vec<BenchSel>, ExperimentParseError> {
        if list == "all" {
            return Ok(spec_traces::all_workloads()
                .iter()
                .map(|w| BenchSel::Name(w.name().to_string()))
                .collect());
        }
        let sels: Vec<BenchSel> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(BenchSel::parse)
            .collect::<Result<_, _>>()?;
        if sels.is_empty() {
            return Err(ExperimentParseError::new(
                "bench list needs at least one workload",
            ));
        }
        Ok(sels)
    }
}

/// The `cfg=` keys, in canonical (display) order — the same field tags
/// [`SimConfig::canonical`] uses, so a spec reads like the store key it
/// produces.
const CFG_KEYS: &[(&str, &str)] = &[
    ("fw", "fetch width"),
    ("dw", "dispatch width"),
    ("iwi", "integer issue width"),
    ("iwf", "fp issue width"),
    ("cw", "commit width"),
    ("fq", "fetch-queue entries"),
    ("rob", "reorder-buffer entries"),
    ("iqi", "integer issue-queue entries"),
    ("iqf", "fp issue-queue entries"),
    ("mr", "mispredict redirect cycles"),
    ("ports", "d-cache ports"),
    ("wd", "watchdog cycles"),
];

/// Sparse core-configuration overrides applied on top of
/// [`SimConfig::paper`]. Canonical display order is the fixed key-table order
/// regardless of parse order, so equal override sets render equal
/// strings (and hash to equal store keys).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigOverrides {
    /// `(index into CFG_KEYS, value)`, sorted by key index.
    pairs: Vec<(usize, u64)>,
}

impl ConfigOverrides {
    /// No overrides: the paper configuration verbatim.
    pub fn none() -> Self {
        ConfigOverrides::default()
    }

    /// Whether any override is set.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Set one override by key (`rob`, `ports`, ...); replaces an
    /// existing value for the same key.
    pub fn set(&mut self, key: &str, value: u64) -> Result<(), ExperimentParseError> {
        let idx = Self::key_index(key)?;
        Self::check_range(idx, value)?;
        match self.pairs.iter_mut().find(|(k, _)| *k == idx) {
            Some((_, v)) => *v = value,
            None => {
                self.pairs.push((idx, value));
                self.pairs.sort_by_key(|&(k, _)| k);
            }
        }
        Ok(())
    }

    fn key_index(key: &str) -> Result<usize, ExperimentParseError> {
        CFG_KEYS.iter().position(|(k, _)| *k == key).ok_or_else(|| {
            let known: Vec<&str> = CFG_KEYS.iter().map(|(k, _)| *k).collect();
            ExperimentParseError::new(format!(
                "cfg: unknown key `{key}` (known: {})",
                known.join(", ")
            ))
        })
    }

    /// Every key except `wd` lands in a `u32`/`usize` field; reject
    /// values that cannot survive the cast instead of wrapping.
    fn check_range(idx: usize, value: u64) -> Result<(), ExperimentParseError> {
        let key = CFG_KEYS[idx].0;
        if key != "wd" && value > u32::MAX as u64 {
            return Err(ExperimentParseError::new(format!(
                "cfg: `{key}:{value}` exceeds the field's range"
            )));
        }
        Ok(())
    }

    fn parse(list: &str) -> Result<Self, ExperimentParseError> {
        let mut out = ConfigOverrides::default();
        for item in list.split(',').filter(|s| !s.is_empty()) {
            let Some((key, value)) = item.split_once(':') else {
                return Err(ExperimentParseError::new(format!(
                    "cfg: expected key:value, got `{item}`"
                )));
            };
            let idx = Self::key_index(key)?;
            if out.pairs.iter().any(|(k, _)| *k == idx) {
                return Err(ExperimentParseError::new(format!(
                    "cfg: duplicate key `{key}`"
                )));
            }
            let value: u64 = value.parse().map_err(|_| {
                ExperimentParseError::new(format!("cfg: `{key}` needs a number, got `{item}`"))
            })?;
            Self::check_range(idx, value)?;
            out.pairs.push((idx, value));
        }
        out.pairs.sort_by_key(|&(k, _)| k);
        Ok(out)
    }

    /// Apply the overrides to `base` (typically [`SimConfig::paper`]).
    pub fn apply(&self, base: SimConfig) -> SimConfig {
        let mut c = base;
        for &(idx, v) in &self.pairs {
            match CFG_KEYS[idx].0 {
                "fw" => c.fetch_width = v as u32,
                "dw" => c.dispatch_width = v as u32,
                "iwi" => c.issue_width_int = v as u32,
                "iwf" => c.issue_width_fp = v as u32,
                "cw" => c.commit_width = v as u32,
                "fq" => c.fetch_queue = v as usize,
                "rob" => c.rob_size = v as usize,
                "iqi" => c.iq_int = v as usize,
                "iqf" => c.iq_fp = v as usize,
                "mr" => c.mispredict_redirect = v as u32,
                "ports" => c.mem_ports = v as u32,
                "wd" => c.watchdog_cycles = v,
                _ => unreachable!("CFG_KEYS is exhaustive"),
            }
        }
        c
    }
}

impl fmt::Display for ConfigOverrides {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &(idx, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}:{v}", CFG_KEYS[idx].0)?;
        }
        Ok(())
    }
}

/// A declarative experiment: the cross product of designs × benchmarks
/// × seeds under one run length and one (possibly overridden) core
/// configuration. See the [module docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// LSQ designs to sweep (typed; `Display` renders canonical ids).
    pub designs: Vec<DesignSpec>,
    /// Benchmarks / replay traces to run each design on.
    pub benches: Vec<BenchSel>,
    /// Trace seeds (each multiplies the grid).
    pub seeds: Vec<u64>,
    /// Instructions measured per point.
    pub instrs: u64,
    /// Warm-up instructions before measurement.
    pub warmup: u64,
    /// Core-configuration overrides on top of [`SimConfig::paper`].
    pub cfg: ConfigOverrides,
}

impl ExperimentSpec {
    /// The default `sweep` grid: a geometry ladder over the full
    /// calibrated suite.
    pub fn sweep_default(rc: RunConfig) -> Self {
        ExperimentSpec {
            designs: vec![
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
            ],
            benches: all_benchmarks()
                .iter()
                .map(|s| BenchSel::Name(s.name.to_string()))
                .collect(),
            seeds: vec![rc.seed],
            instrs: rc.instrs,
            warmup: rc.warmup,
            cfg: ConfigOverrides::none(),
        }
    }

    /// The default `bench` grid: the paper trio on one integer, one
    /// floating-point and the pathological benchmark.
    pub fn bench_default(rc: RunConfig) -> Self {
        ExperimentSpec {
            designs: DesignSpec::paper_trio(),
            benches: ["gzip", "swim", "ammp"]
                .iter()
                .map(|n| BenchSel::Name(n.to_string()))
                .collect(),
            seeds: vec![rc.seed],
            instrs: rc.instrs,
            warmup: rc.warmup,
            cfg: ConfigOverrides::none(),
        }
    }

    /// Number of grid points this spec expands to.
    pub fn points(&self) -> usize {
        self.designs.len() * self.benches.len() * self.seeds.len()
    }

    /// The run length (seed = first seed; grids re-seed per point).
    pub fn rc(&self) -> RunConfig {
        RunConfig {
            instrs: self.instrs,
            warmup: self.warmup,
            seed: self.seeds.first().copied().unwrap_or(42),
        }
    }

    /// The full core configuration this spec simulates under: overrides
    /// applied to [`SimConfig::paper`], validated.
    pub fn sim_config(&self) -> Result<SimConfig, String> {
        let c = self.cfg.apply(SimConfig::paper());
        c.validate()
            .map_err(|e| format!("cfg overrides produce an invalid configuration: {e}"))?;
        Ok(c)
    }

    /// Structural validity (parse already guarantees this for parsed
    /// specs; programmatically-built ones go through here).
    pub fn validate(&self) -> Result<(), String> {
        if self.designs.is_empty() {
            return Err("experiment spec needs at least one design".into());
        }
        if self.benches.is_empty() {
            return Err("experiment spec needs at least one benchmark".into());
        }
        if self.seeds.is_empty() {
            return Err("experiment spec needs at least one seed".into());
        }
        if self.instrs == 0 {
            return Err("instrs must be positive".into());
        }
        for d in &self.designs {
            d.validate().map_err(|e| e.to_string())?;
        }
        self.sim_config()?;
        Ok(())
    }

    /// Expand into the [`SweepGrid`] the sweep engine executes. Replay
    /// paths are opened here; workload names resolve from the catalog.
    pub fn to_grid(&self) -> Result<SweepGrid, String> {
        self.validate()?;
        let cfg = self.sim_config()?;
        let mut benchmarks = Vec::with_capacity(self.benches.len());
        for b in &self.benches {
            benchmarks.push(b.resolve()?);
        }
        Ok(SweepGrid {
            designs: designs_from_specs(self.designs.iter().copied()),
            benchmarks,
            seeds: self.seeds.clone(),
            rc: self.rc(),
            cfg,
        })
    }
}

impl fmt::Display for ExperimentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join<T: fmt::Display>(items: &[T]) -> String {
            let mut s = String::new();
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&it.to_string());
            }
            s
        }
        write!(
            f,
            "design={} bench={} seed={} instrs={} warmup={}",
            join(&self.designs),
            join(&self.benches),
            join(&self.seeds),
            self.instrs,
            self.warmup
        )?;
        if !self.cfg.is_empty() {
            write!(f, " cfg={}", self.cfg)?;
        }
        Ok(())
    }
}

impl FromStr for ExperimentSpec {
    type Err = ExperimentParseError;

    /// Parse the fields in any order, each at most once.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut designs: Option<Vec<DesignSpec>> = None;
        let mut benches: Option<Vec<BenchSel>> = None;
        let mut seeds: Option<Vec<u64>> = None;
        let mut instrs: Option<u64> = None;
        let mut warmup: Option<u64> = None;
        let mut cfg: Option<ConfigOverrides> = None;

        fn dup<T>(slot: &Option<T>, key: &str) -> Result<(), ExperimentParseError> {
            if slot.is_some() {
                return Err(ExperimentParseError::new(format!(
                    "duplicate field `{key}`"
                )));
            }
            Ok(())
        }
        fn number(key: &str, value: &str) -> Result<u64, ExperimentParseError> {
            value.parse().map_err(|_| {
                ExperimentParseError::new(format!("{key}: expected a number, got `{value}`"))
            })
        }

        for token in s.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                return Err(ExperimentParseError::new(format!(
                    "expected key=value fields, got `{token}`"
                )));
            };
            match key {
                "design" => {
                    dup(&designs, key)?;
                    let mut list = Vec::new();
                    for item in value.split(',').filter(|v| !v.is_empty()) {
                        let d: DesignSpec = item
                            .parse()
                            .map_err(|e| ExperimentParseError::new(format!("design: {e}")))?;
                        list.push(d);
                    }
                    if list.is_empty() {
                        return Err(ExperimentParseError::new(
                            "design= needs at least one design spec",
                        ));
                    }
                    designs = Some(list);
                }
                "bench" => {
                    dup(&benches, key)?;
                    let mut list = Vec::new();
                    for item in value.split(',').filter(|v| !v.is_empty()) {
                        list.push(BenchSel::parse(item)?);
                    }
                    if list.is_empty() {
                        return Err(ExperimentParseError::new(
                            "bench= needs at least one workload",
                        ));
                    }
                    benches = Some(list);
                }
                "seed" => {
                    dup(&seeds, key)?;
                    let mut list = Vec::new();
                    for item in value.split(',').filter(|v| !v.is_empty()) {
                        list.push(number("seed", item)?);
                    }
                    if list.is_empty() {
                        return Err(ExperimentParseError::new("seed= needs at least one seed"));
                    }
                    seeds = Some(list);
                }
                "instrs" => {
                    dup(&instrs, key)?;
                    let n = number("instrs", value)?;
                    if n == 0 {
                        return Err(ExperimentParseError::new("instrs must be positive"));
                    }
                    instrs = Some(n);
                }
                "warmup" => {
                    dup(&warmup, key)?;
                    warmup = Some(number("warmup", value)?);
                }
                "cfg" => {
                    dup(&cfg, key)?;
                    cfg = Some(ConfigOverrides::parse(value)?);
                }
                other => {
                    return Err(ExperimentParseError::new(format!(
                        "unknown field `{other}` (known: design, bench, seed, instrs, warmup, cfg)"
                    )));
                }
            }
        }

        let designs = designs.ok_or_else(|| {
            ExperimentParseError::new(
                "missing required field `design=` (e.g. design=conv:128,samie)",
            )
        })?;
        let benches = benches.ok_or_else(|| {
            ExperimentParseError::new("missing required field `bench=` (e.g. bench=gzip,swim)")
        })?;
        let defaults = RunConfig::default();
        Ok(ExperimentSpec {
            designs,
            benches,
            seeds: seeds.unwrap_or_else(|| vec![defaults.seed]),
            instrs: instrs.unwrap_or(defaults.instrs),
            warmup: warmup.unwrap_or(defaults.warmup),
            cfg: cfg.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_in_and_round_trip() {
        let spec: ExperimentSpec = "design=conv:64 bench=gzip".parse().unwrap();
        assert_eq!(spec.seeds, vec![42]);
        assert_eq!(spec.instrs, 1_000_000);
        assert_eq!(spec.warmup, 200_000);
        let text = spec.to_string();
        assert_eq!(text.parse::<ExperimentSpec>().unwrap(), spec);
        assert_eq!(text.parse::<ExperimentSpec>().unwrap().to_string(), text);
    }

    #[test]
    fn fields_parse_in_any_order() {
        let a: ExperimentSpec = "design=samie bench=gzip seed=1,2 instrs=5000 warmup=1000"
            .parse()
            .unwrap();
        let b: ExperimentSpec = "warmup=1000 seed=1,2 bench=GZIP instrs=5000 design=samie"
            .parse()
            .unwrap();
        assert_eq!(a, b, "field order and workload case are immaterial");
    }

    #[test]
    fn cfg_overrides_apply_and_canonicalise() {
        let spec: ExperimentSpec = "design=conv:64 bench=gzip cfg=ports:2,rob:128"
            .parse()
            .unwrap();
        // Canonical cfg order follows SimConfig::canonical field order.
        assert!(spec.to_string().ends_with("cfg=rob:128,ports:2"));
        let c = spec.sim_config().unwrap();
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.mem_ports, 2);
        assert_eq!(c.fetch_width, SimConfig::paper().fetch_width);
        // Invalid override values are caught by SimConfig::validate.
        let zero: ExperimentSpec = "design=conv:64 bench=gzip cfg=rob:0".parse().unwrap();
        assert!(zero.sim_config().is_err());
    }

    #[test]
    fn to_grid_expands_the_cross_product() {
        let spec: ExperimentSpec = "design=conv:32,samie bench=gzip,swim seed=1,2 instrs=1000"
            .parse()
            .unwrap();
        assert_eq!(spec.points(), 8);
        let grid = spec.to_grid().unwrap();
        assert_eq!(grid.expand().len(), 8);
        assert_eq!(grid.rc.instrs, 1000);
        assert_eq!(grid.cfg.canonical(), SimConfig::paper().canonical());
    }

    #[test]
    fn defaults_match_the_legacy_sweep_grids() {
        let rc = RunConfig::quick();
        let sweep = ExperimentSpec::sweep_default(rc).to_grid().unwrap();
        assert_eq!(sweep.designs.len(), 6);
        assert_eq!(sweep.benchmarks.len(), 26);
        let bench = ExperimentSpec::bench_default(rc).to_grid().unwrap();
        assert_eq!(bench.designs.len(), 3);
        assert_eq!(bench.benchmarks.len(), 3);
        assert_eq!(bench.rc.instrs, rc.instrs);
    }
}
