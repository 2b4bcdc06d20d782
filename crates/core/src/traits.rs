//! The [`LoadStoreQueue`] interface between the timing simulator and the
//! LSQ designs under study.
//!
//! ## Protocol
//!
//! The simulator drives every implementation through the same life cycle,
//! in program order per op (`age` is the op's unique sequence number):
//!
//! 1. [`can_dispatch`](LoadStoreQueue::can_dispatch) /
//!    [`dispatch`](LoadStoreQueue::dispatch) — at rename. Designs that
//!    allocate at dispatch (conventional LSQ, ARB's in-flight cap) gate the
//!    pipeline here; SAMIE accepts unconditionally because placement
//!    happens at address-compute time.
//! 2. [`address_ready`](LoadStoreQueue::address_ready) — the op's address
//!    has been computed and is broadcast to the LSQ. Returns where the op
//!    landed ([`PlaceOutcome`]); `Buffered` ops are later promoted by
//!    [`tick`](LoadStoreQueue::tick).
//! 3. For stores, [`store_executed`](LoadStoreQueue::store_executed) marks
//!    the datum available for forwarding.
//! 4. For loads that the simulator's readyBit logic allows to proceed,
//!    [`load_forward_status`](LoadStoreQueue::load_forward_status) asks
//!    whether to forward, access the cache, or wait;
//!    [`take_forward`](LoadStoreQueue::take_forward) consumes a forward.
//! 5. Cache interplay (SAMIE §3.4):
//!    [`cache_access_plan`](LoadStoreQueue::cache_access_plan) chooses the
//!    access mode, [`note_cache_access`](LoadStoreQueue::note_cache_access)
//!    caches the location+translation after a conventional access, and
//!    [`on_line_replaced`](LoadStoreQueue::on_line_replaced) invalidates
//!    conservatively on eviction.
//! 6. [`commit`](LoadStoreQueue::commit) frees the op in program order;
//!    [`squash_younger`](LoadStoreQueue::squash_younger) /
//!    [`flush_all`](LoadStoreQueue::flush_all) implement mispredict and
//!    deadlock-avoidance flushes. Freeing an entry deliberately leaves the
//!    L1D presentBit set: a stale bit is harmless (it only means a later
//!    replacement broadcasts an invalidation nobody needs) and clearing it
//!    eagerly would require extra cache ports.
//! 7. [`tick`](LoadStoreQueue::tick) once per cycle: AddrBuffer→LSQ
//!    promotion and occupancy integration.

use crate::activity::LsqActivity;
use crate::types::{Age, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};

/// How a memory op should access the D-cache, per the SAMIE §3.4
/// extensions. For LSQs without location/translation caching both fields
/// are "no".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CachePlan {
    /// `(set, way)` if the entry holds a valid cached line location: the
    /// access reads a single way with no tag compare.
    pub location: Option<(u32, u32)>,
    /// The entry holds the D-TLB translation: skip the D-TLB. May be true
    /// even when `location` is `None` (the location is invalidated by line
    /// replacement; the translation is not).
    pub translation: bool,
}

/// A load/store queue design, driven by the `ooo-sim` timing simulator.
///
/// The trait is object-safe: [`crate::DesignSpec::build`] hands out
/// `Box<dyn LoadStoreQueue>` and the simulator drives it through the
/// blanket `Box` impl below, so runners need no type parameter per
/// design. Implementations that expose design-specific statistics
/// (e.g. `SamieLsq::shared_entries_for_quantile`) are reached by
/// downcasting [`as_any`](LoadStoreQueue::as_any).
pub trait LoadStoreQueue {
    /// Short identifier for reports ("conventional", "samie", ...).
    fn name(&self) -> &'static str;

    /// The concrete design, for downcasting to design-specific APIs.
    fn as_any(&self) -> &dyn std::any::Any;

    /// May a memory op be dispatched this cycle (rename-stage gate)?
    fn can_dispatch(&self, is_store: bool) -> bool;

    /// Dispatch a memory op (its address is not known yet; `op.mref` is the
    /// oracle value the simulator will reveal at `address_ready`).
    fn dispatch(&mut self, op: MemOp);

    /// The op's address has been computed; place it. Must be called exactly
    /// once per dispatched op unless the op is squashed first.
    fn address_ready(&mut self, age: Age) -> PlaceOutcome;

    /// The store's datum is now available for forwarding.
    fn store_executed(&mut self, age: Age);

    /// Forwarding decision for a load whose ordering constraints (readyBit)
    /// are already satisfied. This is a pure query: the CAM search activity
    /// was already accounted when the addresses met the LSQ (at
    /// `address_ready`), matching the paper's energy model in which match
    /// lines fire once per address computation.
    fn load_forward_status(&mut self, age: Age) -> ForwardStatus;

    /// Consume a forward previously returned by `load_forward_status`
    /// (counts the datum read/write activity).
    fn take_forward(&mut self, load: Age, store: Age);

    /// How should this op access the D-cache? Reading the cached location /
    /// translation fields out of the LSQ entry is itself activity, so the
    /// method is `&mut` and accounts those reads.
    fn cache_access_plan(&mut self, age: Age) -> CachePlan;

    /// A conventional D-cache access for this op returned location
    /// `(set, way)`. Returns `true` if the LSQ cached the location and the
    /// caller must set the line's presentBit.
    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool;

    /// A load's datum arrived (from cache or forward): account the LSQ
    /// datum write.
    fn load_data_arrived(&mut self, age: Age);

    /// The L1D replaced the line at `(set, way)`: conservatively invalidate
    /// cached locations that could refer to it (§3.4: "resetting the
    /// presentBit flag of all entries that can be potentially affected").
    fn on_line_replaced(&mut self, set: u32, way: u32);

    /// Commit the op (oldest first), freeing its slot/entry.
    fn commit(&mut self, age: Age);

    /// Squash all ops with age strictly greater than `age`.
    fn squash_younger(&mut self, age: Age);

    /// Remove everything (deadlock-avoidance pipeline flush, §3.3).
    fn flush_all(&mut self);

    /// Is this op parked in the waiting buffer (not yet disambiguable)?
    /// The simulator fires the deadlock-avoidance flush when the ROB head
    /// is buffered.
    fn is_buffered(&self, age: Age) -> bool;

    /// Once-per-cycle housekeeping: promote buffered ops into freed
    /// entries/slots (pushing promoted ages to `promoted`) and integrate
    /// occupancy.
    fn tick(&mut self, promoted: &mut Vec<Age>);

    /// `k` consecutive [`tick`](LoadStoreQueue::tick)s during which the
    /// simulator guarantees the LSQ state cannot change: the previous
    /// tick promoted nothing and no op was dispatched, placed, executed
    /// or committed since. Used by the simulator's event-driven cycle
    /// skipping, so the accounting must be exactly `k` idle ticks' worth.
    ///
    /// Each design must give an exact closed form: `k` integrations of
    /// its unchanged occupancy, in O(1), not a replay of `tick`.
    fn tick_idle(&mut self, k: u64);

    /// The activity ledger accumulated so far.
    fn activity(&self) -> &LsqActivity;

    /// Clear the ledger (end of warm-up).
    fn reset_activity(&mut self);

    /// Current occupancy snapshot.
    fn occupancy(&self) -> LsqOccupancy;
}

/// Compile-time proof that the trait stays object-safe — the session
/// layer and [`crate::DesignSpec::build`] depend on `dyn LoadStoreQueue`.
const _: Option<&dyn LoadStoreQueue> = None;

/// Boxed (and `&mut`-borrowed) LSQs are LSQs, so the simulator runs
/// `Box<dyn LoadStoreQueue>` from [`crate::DesignSpec::build`] exactly
/// like a concrete design.
impl<L: LoadStoreQueue + ?Sized> LoadStoreQueue for Box<L> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        (**self).as_any()
    }

    fn can_dispatch(&self, is_store: bool) -> bool {
        (**self).can_dispatch(is_store)
    }

    fn dispatch(&mut self, op: MemOp) {
        (**self).dispatch(op)
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        (**self).address_ready(age)
    }

    fn store_executed(&mut self, age: Age) {
        (**self).store_executed(age)
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        (**self).load_forward_status(age)
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        (**self).take_forward(load, store)
    }

    fn cache_access_plan(&mut self, age: Age) -> CachePlan {
        (**self).cache_access_plan(age)
    }

    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool {
        (**self).note_cache_access(age, set, way)
    }

    fn load_data_arrived(&mut self, age: Age) {
        (**self).load_data_arrived(age)
    }

    fn on_line_replaced(&mut self, set: u32, way: u32) {
        (**self).on_line_replaced(set, way)
    }

    fn commit(&mut self, age: Age) {
        (**self).commit(age)
    }

    fn squash_younger(&mut self, age: Age) {
        (**self).squash_younger(age)
    }

    fn flush_all(&mut self) {
        (**self).flush_all()
    }

    fn is_buffered(&self, age: Age) -> bool {
        (**self).is_buffered(age)
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        (**self).tick(promoted)
    }

    fn tick_idle(&mut self, k: u64) {
        (**self).tick_idle(k)
    }

    fn activity(&self) -> &LsqActivity {
        (**self).activity()
    }

    fn reset_activity(&mut self) {
        (**self).reset_activity()
    }

    fn occupancy(&self) -> LsqOccupancy {
        (**self).occupancy()
    }
}
