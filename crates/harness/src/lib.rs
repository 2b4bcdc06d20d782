//! # exp-harness — regenerating every table and figure of the paper
//!
//! One experiment module per paper artefact, each rendered as a page of
//! the reproduction book (`docs/book/<page>.md`):
//!
//! | book page | artefact | module |
//! |-----------|----------|--------|
//! | `fig1` | Figure 1 — ARB IPC vs unbounded LSQ | [`experiments::fig1`] |
//! | `fig3` / `fig4` | SharedLSQ occupancy / sizing CDF | [`experiments::fig3_4`] |
//! | `tab1` / `delay` | cache access times / §3.6 LSQ delays | [`experiments::tab1_delay`] |
//! | `fig5`…`fig12` | IPC, deadlocks, energy, area | [`experiments::paired`] |
//! | `tab456` | energy/area constants, regenerated | [`experiments::tab456`] |
//! | `summary` | §4 headline numbers | [`experiments::paired`] |
//!
//! [`report::generate_book`] (`samie-exp report`) is the one way to
//! regenerate them. Simulation length is configurable; the paper uses
//! 100 M instructions per benchmark after 100 M warm-up, the harness
//! defaults to 1 M after 200 k (scaled for wall-clock; the occupancy and
//! energy statistics are flat well before that).
//!
//! Beyond the paper's fixed tables, [`sweep`] runs declarative design-space
//! grids (`samie-exp sweep`) and the throughput benchmark tracked by CI
//! (`samie-exp bench`), both emitting machine-readable `BENCH_sweep.json`.
//! A grid is a plain [`SweepGrid`] value: the CLI starts from
//! [`SweepGrid::sweep_default`] or [`SweepGrid::bench_default`] and its
//! flags replace axes through [`SweepGrid::parse_benchmarks`],
//! [`SweepGrid::parse_cfg`] and [`DesignSpec::parse_list`].
//!
//! ## Incremental everything
//!
//! Every simulated point can flow through the content-addressed
//! experiment store (the `exp-store` crate): [`runner::PointCache`] keys
//! a point by design × workload × run length × seed × core config ×
//! simulator version and serves bit-identical cache hits, so
//! `samie-exp sweep` re-runs only what changed and interrupted sweeps
//! resume. [`report::generate_book`] (`samie-exp report`) rebuilds the
//! whole paper — tables, figures, SVG charts — into `docs/book/` from
//! the same cache, making the complete reproduction one idempotent
//! command.
//!
//! ## The front door
//!
//! Designs are named by [`DesignSpec`] descriptors (or any custom
//! [`LsqFactory`]) and built through the object-safe
//! `Box<dyn LoadStoreQueue>` factory. One-off runs (the CLI's `record`
//! and `rv run`, the examples, the fuzzer) use [`session::SimSession`],
//! which simulates one design or an any-N comparison on identical
//! traces, with streaming progress observers. Every batch of points —
//! sweeps and the book — goes through [`sweep::run_sweep`], whose points
//! (like the sizing study's) take the one cached point path,
//! [`runner::run_point`], which drives the simulator directly.

pub mod chart;
pub mod experiments;
pub mod fuzz;
pub mod report;
pub mod runner;
pub mod session;
pub mod sweep;
pub mod table;

pub use chart::svg_bar_chart;
pub use exp_store::{ExperimentStore, PointKey, StoredPoint, SIM_VERSION};
pub use fuzz::{differential_check, run_fuzz, FuzzConfig, FuzzMismatch, FuzzReport};
pub use report::{generate_book, BookSummary, ReportOptions};
pub use runner::{parallel_map_with, run_point, PairedRun, PointCache, RunConfig};
pub use samie_lsq::{DesignHandle, DesignParseError, DesignSpec, LsqFactory};
pub use session::{record_trace, DesignRun, SessionEvent, SessionReport, SimSession};
pub use sweep::{designs_from_specs, run_sweep, SweepGrid, SweepOptions, SweepPoint, SweepReport};
pub use table::Table;
