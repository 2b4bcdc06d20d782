//! # ooo-sim — out-of-order superscalar timing simulator
//!
//! A trace-driven reimplementation of the substrate the paper built on (an
//! enhanced SimpleScalar `sim-outorder`): an 8-wide out-of-order core with
//! the Table 2 configuration —
//!
//! * fetch/decode/commit width 8, issue width 8 INT + 8 FP,
//! * 64-entry fetch queue, 256-entry ROB, 128+128 issue-queue entries,
//! * hybrid branch predictor (2K gshare + 2K bimodal + 1K selector) with a
//!   2048-entry 4-way BTB,
//! * 6 int ALUs, 3 int mul/div, 4 FP ALUs, 2 FP mul/div, 4 D-cache ports,
//! * the `mem-hier` cache/TLB hierarchy,
//! * a pluggable [`samie_lsq::LoadStoreQueue`] backend — the variable under
//!   study.
//!
//! ## Modelling notes (vs. an execute-driven simulator)
//!
//! * Traces carry resolved branch outcomes; mispredictions are modelled by
//!   stalling fetch until the branch resolves plus a redirect penalty
//!   (no wrong-path instructions are injected).
//! * The paper's readyBit protocol (§3.1) lives here: a load may issue to
//!   memory only when every older store's address is known; the LSQ then
//!   answers forward/access/wait.
//! * The only pipeline flushes are the SAMIE deadlock-avoidance flush
//!   (ROB head stuck in the AddrBuffer, §3.3) and the no-space flush; both
//!   are counted for Figure 6. Flushed instructions are replayed from an
//!   internal buffer with fresh ages.

pub mod ageset;
pub mod config;
pub mod fu;
pub mod pipeline;
#[cfg(test)]
mod pipeline_tests;
pub mod predictor;
pub mod profile;
pub mod stats;

pub use ageset::AgeSet;
pub use config::SimConfig;
pub use pipeline::Simulator;
pub use predictor::{BranchPredictor, Btb};
pub use profile::{NoProbe, PipelineProbe, Stage};
pub use stats::SimStats;
