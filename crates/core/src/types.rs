//! Types shared by all LSQ implementations.

use trace_isa::MemRef;

/// Age identifier of an in-flight memory instruction.
///
/// The paper implements it as "the reorder buffer position plus an extra
/// bit" (to disambiguate wrap-around). In the simulator we use the global
/// dynamic-instruction sequence number, which is order-isomorphic to the
/// hardware encoding and never wraps within a run.
pub type Age = u64;

/// A memory micro-op as the LSQ sees it: an age, a direction, and (once
/// computed) its memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Unique, monotonically increasing program-order identifier.
    pub age: Age,
    /// Store (`true`) or load (`false`).
    pub is_store: bool,
    /// The reference being made.
    pub mref: MemRef,
}

impl MemOp {
    /// A load op.
    pub fn load(age: Age, mref: MemRef) -> Self {
        MemOp {
            age,
            is_store: false,
            mref,
        }
    }

    /// A store op.
    pub fn store(age: Age, mref: MemRef) -> Self {
        MemOp {
            age,
            is_store: true,
            mref,
        }
    }
}

/// Where an op landed when its address reached the LSQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceOutcome {
    /// Placed into a disambiguating structure (DistribLSQ / SharedLSQ /
    /// a conventional entry / an ARB row): the op may now be
    /// disambiguated and, when otherwise ready, access memory.
    Placed,
    /// Parked in a waiting buffer (SAMIE AddrBuffer, ARB retry queue):
    /// cannot access memory until promoted; promotions are reported by
    /// [`crate::traits::LoadStoreQueue::tick`].
    Buffered,
    /// No space anywhere — the pipeline must be flushed (§3.3).
    NoSpace,
}

/// What a ready load should do about older stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardStatus {
    /// No older overlapping store in flight: access the D-cache.
    AccessCache,
    /// Fully covered by this older store, whose data is ready: take the
    /// datum from the LSQ, no cache access.
    Forward {
        /// Age of the forwarding store.
        store: Age,
    },
    /// An older overlapping store exists but cannot forward (data not
    /// ready, partial overlap, or — SAMIE — an older store is still in the
    /// AddrBuffer). Retry next cycle.
    Wait,
}

/// Snapshot of current structure occupancy, for tests and figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqOccupancy {
    /// Entries in use in a conventional/unbounded LSQ (or ARB rows).
    pub conv_entries: usize,
    /// DistribLSQ entries in use.
    pub dist_entries: usize,
    /// DistribLSQ slots in use.
    pub dist_slots: usize,
    /// SharedLSQ entries in use.
    pub shared_entries: usize,
    /// SharedLSQ slots in use.
    pub shared_slots: usize,
    /// Ops waiting in the AddrBuffer (or ARB retry queue).
    pub addr_buffer: usize,
}

impl LsqOccupancy {
    /// Total memory instructions currently held anywhere in the LSQ.
    pub fn total_instructions(&self) -> usize {
        self.conv_entries + self.dist_slots + self.shared_slots + self.addr_buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let m = MemRef::new(0x40, 4);
        assert!(!MemOp::load(1, m).is_store);
        assert!(MemOp::store(2, m).is_store);
    }

    #[test]
    fn occupancy_total() {
        let occ = LsqOccupancy {
            conv_entries: 3,
            dist_entries: 2,
            dist_slots: 5,
            shared_entries: 1,
            shared_slots: 2,
            addr_buffer: 4,
        };
        assert_eq!(occ.total_instructions(), 3 + 5 + 2 + 4);
    }
}
