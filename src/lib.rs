//! # samie-repro — umbrella crate
//!
//! Re-exports the whole SAMIE-LSQ reproduction workspace so that examples
//! and integration tests can depend on a single crate. See the individual
//! crates for the real APIs:
//!
//! * [`samie_lsq`] — the paper's contribution (SAMIE-LSQ) and baselines.
//! * [`ooo_sim`] — out-of-order superscalar timing simulator substrate.
//! * [`mem_hier`] — cache/TLB hierarchy.
//! * [`rv_front`] — RV32I(M) assembler + functional emulator feeding real
//!   program traces into every design.
//! * [`spec_traces`] — synthetic SPEC CPU2000-like workloads.
//! * [`energy_model`] — CACTI-lite timing/energy/area model and accounting.
//! * [`exp_store`] — content-addressed experiment store (incremental sweeps).
//! * [`exp_harness`] — experiment harness regenerating every table/figure.

pub use energy_model;
pub use exp_harness;
pub use exp_store;
pub use mem_hier;
pub use ooo_sim;
pub use rv_front;
pub use samie_lsq;
pub use spec_traces;
pub use trace_isa;
