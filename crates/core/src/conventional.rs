//! Conventional fully-associative load/store queue — the paper's baseline.
//!
//! A single age-ordered structure of `capacity` entries (128 in the paper,
//! Table 2). Entries are allocated at dispatch and freed at commit, so a
//! full LSQ stalls rename. Disambiguation is a global CAM: when a load's
//! address is computed it is compared against the addresses of all *older
//! stores whose address is known*; when a store's address is computed it is
//! compared against all *younger loads with known addresses* (§4.2 — the
//! paper grants the baseline this filtered comparison for fairness).
//!
//! Store→load forwarding: a load fully covered by the youngest older
//! overlapping store takes the datum from the LSQ and skips the D-cache; a
//! partially overlapping or data-not-ready match stalls the load.

use std::collections::VecDeque;

use crate::activity::LsqActivity;
use crate::agering::AgeRing;
use crate::traits::{CachePlan, LoadStoreQueue};
use crate::types::{Age, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};
use trace_isa::MemRef;

#[derive(Debug, Clone, Copy)]
struct ConvEntry {
    age: Age,
    is_store: bool,
    mref: MemRef,
    addr_known: bool,
    data_ready: bool,
}

impl ConvEntry {
    fn mem_op(&self) -> MemOp {
        MemOp {
            age: self.age,
            is_store: self.is_store,
            mref: self.mref,
        }
    }
}

/// Conventional fully-associative LSQ (the 128-entry baseline).
#[derive(Debug, Clone)]
pub struct ConventionalLsq {
    entries: VecDeque<ConvEntry>,
    capacity: usize,
    /// Ages of in-flight stores whose address is known, ascending — the
    /// §4.2 CAM-operand count for a load is then one binary search
    /// instead of a scan over the whole queue.
    known_stores: Vec<Age>,
    /// Ages of in-flight loads whose address is known, ascending (the
    /// store-side operand count).
    known_loads: Vec<Age>,
    /// Age -> dispatch sequence number; with `base_seq` (the sequence
    /// number of the current front entry) this makes every in-queue
    /// lookup O(1) instead of a binary search. An [`AgeRing`] rather
    /// than a hash map: ages index their slots directly, with the full
    /// age as a generation tag so recycled slots never alias.
    seq_of: AgeRing<u64>,
    /// Sequence number of `entries.front()`.
    base_seq: u64,
    activity: LsqActivity,
    /// When false, no activity is recorded (the unbounded and oracle
    /// references, ideal structures whose energy is not under study).
    count_activity: bool,
    /// One-shot: the next `address_ready` skips its CAM-search accounting
    /// (set by [`crate::FilteredLsq`] when its Bloom filter proves the op
    /// dependence-free).
    skip_next_search: bool,
    name: &'static str,
}

impl ConventionalLsq {
    /// The paper's 128-entry baseline.
    pub fn paper() -> Self {
        Self::with_capacity(128)
    }

    /// A conventional LSQ with an arbitrary capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        ConventionalLsq {
            entries: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            known_stores: Vec::new(),
            known_loads: Vec::new(),
            seq_of: AgeRing::with_capacity(capacity.min(1024) * 2),
            base_seq: 0,
            activity: LsqActivity::default(),
            count_activity: true,
            skip_next_search: false,
            name: "conventional",
        }
    }

    /// The ideal unbounded LSQ — Figure 1's reference point: never runs
    /// out of entries (the 256-entry ROB bounds real occupancy long
    /// before) and records no energy activity.
    pub fn unbounded() -> Self {
        Self::ideal(usize::MAX >> 1, "unbounded")
    }

    pub(crate) fn ideal(capacity: usize, name: &'static str) -> Self {
        let mut l = Self::with_capacity(capacity);
        l.count_activity = false;
        l.name = name;
        l
    }

    /// Suppress the CAM-search accounting of the next `address_ready`
    /// (the search was filtered away in front of the structure).
    pub(crate) fn skip_next_search(&mut self) {
        self.skip_next_search = true;
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The op dispatched at `age` and whether its address is known, or
    /// `None` if `age` is not in the queue.
    pub(crate) fn op(&self, age: Age) -> Option<(MemOp, bool)> {
        let seq = *self.seq_of.get(age)?;
        let e = self.entries[(seq - self.base_seq) as usize];
        Some((e.mem_op(), e.addr_known))
    }

    /// The ops younger than `age`, oldest first, with their
    /// address-known bits.
    pub(crate) fn younger_than(&self, age: Age) -> impl Iterator<Item = (MemOp, bool)> + '_ {
        let from = self.entries.partition_point(|e| e.age <= age);
        self.entries
            .range(from..)
            .map(|e| (e.mem_op(), e.addr_known))
    }

    fn idx_of(&self, age: Age) -> usize {
        // Entries are age-sorted (dispatch order); the op's dispatch
        // sequence number minus the front's gives its position directly.
        let seq = *self.seq_of.get(age).expect("op not in conventional LSQ");
        let i = (seq - self.base_seq) as usize;
        debug_assert!(
            i < self.entries.len() && self.entries[i].age == age,
            "op {age} not in conventional LSQ"
        );
        i
    }
}

impl LoadStoreQueue for ConventionalLsq {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn can_dispatch(&self, _is_store: bool) -> bool {
        self.entries.len() < self.capacity
    }

    fn dispatch(&mut self, op: MemOp) {
        debug_assert!(
            self.entries.len() < self.capacity,
            "dispatch into a full LSQ"
        );
        debug_assert!(
            self.entries.back().is_none_or(|e| e.age < op.age),
            "ages must ascend"
        );
        self.seq_of
            .insert(op.age, self.base_seq + self.entries.len() as u64);
        self.entries.push_back(ConvEntry {
            age: op.age,
            is_store: op.is_store,
            mref: op.mref,
            addr_known: false,
            data_ready: false,
        });
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        let i = self.idx_of(age);
        debug_assert!(
            !self.entries[i].addr_known,
            "address computed twice for {age}"
        );
        self.entries[i].addr_known = true;
        let is_store = self.entries[i].is_store;
        let skip = std::mem::replace(&mut self.skip_next_search, false);
        if self.count_activity && !skip {
            // CAM search: loads against older stores with known addresses,
            // stores against younger loads with known addresses (§4.2).
            // The op itself is not yet in either known-age list.
            let operands = if is_store {
                self.known_loads.len() - self.known_loads.partition_point(|&a| a < age)
            } else {
                self.known_stores.partition_point(|&a| a < age)
            };
            self.activity.conv_addr.search(operands as u64);
        }
        let known = if is_store {
            &mut self.known_stores
        } else {
            &mut self.known_loads
        };
        let at = known.partition_point(|&a| a < age);
        known.insert(at, age);
        if self.count_activity {
            // Writing the freshly computed address into the entry.
            self.activity.conv_addr.rw(1);
        }
        PlaceOutcome::Placed
    }

    fn store_executed(&mut self, age: Age) {
        let i = self.idx_of(age);
        debug_assert!(self.entries[i].is_store);
        self.entries[i].data_ready = true;
        if self.count_activity {
            // Store datum written into the LSQ.
            self.activity.conv_data_rw += 1;
        }
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        let load = self.entries[self.idx_of(age)];
        debug_assert!(!load.is_store && load.addr_known);
        // Youngest older store with a known overlapping address: walk the
        // known stores older than the load, youngest first.
        let older = self.known_stores.partition_point(|&a| a < age);
        let hit = self.known_stores[..older]
            .iter()
            .rev()
            .map(|&st| self.entries[self.idx_of(st)])
            .find(|e| e.mref.overlaps(load.mref));
        match hit {
            None => ForwardStatus::AccessCache,
            Some(st) if st.mref.covers(load.mref) && st.data_ready => {
                ForwardStatus::Forward { store: st.age }
            }
            Some(_) => ForwardStatus::Wait,
        }
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        debug_assert!(store < load);
        if self.count_activity {
            // Read the store's datum out of the LSQ.
            self.activity.conv_data_rw += 1;
            self.activity.forwards += 1;
        } else {
            self.activity.forwards += 1;
        }
    }

    fn cache_access_plan(&mut self, _age: Age) -> CachePlan {
        CachePlan::default() // conventional LSQs cache neither location nor translation
    }

    fn note_cache_access(&mut self, _age: Age, _set: u32, _way: u32) -> bool {
        false
    }

    fn load_data_arrived(&mut self, _age: Age) {
        if self.count_activity {
            self.activity.conv_data_rw += 1;
        }
    }

    fn on_line_replaced(&mut self, _set: u32, _way: u32) {}

    fn commit(&mut self, age: Age) {
        let front = self.entries.front().expect("commit from an empty LSQ");
        assert_eq!(front.age, age, "memory ops must commit in age order");
        if self.count_activity && front.is_store {
            // Store datum read out on its way to the cache.
            self.activity.conv_data_rw += 1;
        }
        if front.addr_known {
            // The oldest in-flight op sits at the head of its known list.
            let known = if front.is_store {
                &mut self.known_stores
            } else {
                &mut self.known_loads
            };
            debug_assert_eq!(known.first(), Some(&age));
            known.remove(0);
        }
        self.seq_of.remove(age);
        self.base_seq += 1;
        self.entries.pop_front();
    }

    fn squash_younger(&mut self, age: Age) {
        while self.entries.back().is_some_and(|e| e.age > age) {
            let e = self.entries.pop_back().expect("back exists");
            self.seq_of.remove(e.age);
        }
        self.known_stores
            .truncate(self.known_stores.partition_point(|&a| a <= age));
        self.known_loads
            .truncate(self.known_loads.partition_point(|&a| a <= age));
    }

    fn flush_all(&mut self) {
        self.entries.clear();
        self.known_stores.clear();
        self.known_loads.clear();
        self.seq_of.clear();
        self.base_seq = 0;
    }

    fn is_buffered(&self, _age: Age) -> bool {
        false // a dispatched op is always in a disambiguating entry
    }

    fn tick(&mut self, _promoted: &mut Vec<Age>) {
        let occ = &mut self.activity.occupancy;
        occ.cycles += 1;
        occ.conv_entries += self.entries.len() as u64;
    }

    fn tick_idle(&mut self, k: u64) {
        // A conventional tick only integrates occupancy, which is
        // constant while the simulator guarantees no state change.
        let occ = &mut self.activity.occupancy;
        occ.cycles += k;
        occ.conv_entries += self.entries.len() as u64 * k;
    }

    fn activity(&self) -> &LsqActivity {
        &self.activity
    }

    fn reset_activity(&mut self) {
        self.activity = LsqActivity::default();
    }

    fn occupancy(&self) -> LsqOccupancy {
        LsqOccupancy {
            conv_entries: self.entries.len(),
            ..LsqOccupancy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsq() -> ConventionalLsq {
        ConventionalLsq::with_capacity(8)
    }

    fn mref(addr: u64, size: u8) -> MemRef {
        MemRef::new(addr, size)
    }

    #[test]
    fn dispatch_gates_on_capacity() {
        let mut l = ConventionalLsq::with_capacity(2);
        assert!(l.can_dispatch(false));
        l.dispatch(MemOp::load(1, mref(0, 4)));
        l.dispatch(MemOp::store(2, mref(8, 4)));
        assert!(!l.can_dispatch(true));
        l.commit(1);
        assert!(l.can_dispatch(false));
    }

    #[test]
    fn forward_from_youngest_older_covering_store() {
        let mut l = lsq();
        l.dispatch(MemOp::store(1, mref(64, 8)));
        l.dispatch(MemOp::store(2, mref(64, 8)));
        l.dispatch(MemOp::load(3, mref(68, 4)));
        l.address_ready(1);
        l.address_ready(2);
        l.address_ready(3);
        l.store_executed(1);
        l.store_executed(2);
        assert_eq!(
            l.load_forward_status(3),
            ForwardStatus::Forward { store: 2 }
        );
    }

    #[test]
    fn unknown_store_address_is_invisible() {
        // Paper §4.2: loads compare only against stores with known addrs.
        // (The readyBit logic in the simulator prevents this load from
        // issuing at all, but the LSQ answer must still be consistent.)
        let mut l = lsq();
        l.dispatch(MemOp::store(1, mref(64, 8)));
        l.dispatch(MemOp::load(2, mref(64, 8)));
        l.address_ready(2);
        assert_eq!(l.load_forward_status(2), ForwardStatus::AccessCache);
    }

    #[test]
    fn partial_overlap_waits() {
        let mut l = lsq();
        l.dispatch(MemOp::store(1, mref(64, 4)));
        l.dispatch(MemOp::load(2, mref(66, 4)));
        l.address_ready(1);
        l.address_ready(2);
        l.store_executed(1);
        assert_eq!(l.load_forward_status(2), ForwardStatus::Wait);
        // After the store commits, the load can go to the cache.
        l.commit(1);
        assert_eq!(l.load_forward_status(2), ForwardStatus::AccessCache);
    }

    #[test]
    fn covering_store_without_data_waits() {
        let mut l = lsq();
        l.dispatch(MemOp::store(1, mref(64, 8)));
        l.dispatch(MemOp::load(2, mref(64, 4)));
        l.address_ready(1);
        l.address_ready(2);
        assert_eq!(l.load_forward_status(2), ForwardStatus::Wait);
        l.store_executed(1);
        assert_eq!(
            l.load_forward_status(2),
            ForwardStatus::Forward { store: 1 }
        );
    }

    #[test]
    fn youngest_older_overlapping_known_store_wins() {
        let mut l = lsq();
        l.dispatch(MemOp::store(1, mref(64, 8))); // overlapping, older
        l.dispatch(MemOp::store(2, mref(64, 8))); // overlapping: the answer
        l.dispatch(MemOp::store(3, mref(128, 8))); // known, no overlap
        l.dispatch(MemOp::store(4, mref(64, 8))); // address unknown
        l.dispatch(MemOp::load(5, mref(64, 8)));
        l.dispatch(MemOp::store(6, mref(64, 8))); // younger
        for age in [1, 2, 3, 5, 6] {
            l.address_ready(age);
        }
        for age in [1, 2, 3, 6] {
            l.store_executed(age);
        }
        assert_eq!(
            l.load_forward_status(5),
            ForwardStatus::Forward { store: 2 }
        );
        l.squash_younger(5);
        assert_eq!(
            l.younger_than(2)
                .map(|(op, known)| (op.age, known))
                .collect::<Vec<_>>(),
            [(3, true), (4, false), (5, true)]
        );
        assert_eq!(
            l.op(4).map(|(op, known)| (op.is_store, known)),
            Some((true, false))
        );
        assert_eq!(l.op(6), None);
    }

    #[test]
    fn younger_store_does_not_forward() {
        let mut l = lsq();
        l.dispatch(MemOp::load(1, mref(64, 4)));
        l.dispatch(MemOp::store(2, mref(64, 8)));
        l.address_ready(1);
        l.address_ready(2);
        l.store_executed(2);
        assert_eq!(l.load_forward_status(1), ForwardStatus::AccessCache);
    }

    #[test]
    fn comparison_activity_counts_filtered_operands() {
        let mut l = lsq();
        l.dispatch(MemOp::store(1, mref(0, 4)));
        l.dispatch(MemOp::store(2, mref(8, 4)));
        l.dispatch(MemOp::load(3, mref(0, 4)));
        l.address_ready(1); // store: 0 younger known loads
        assert_eq!(l.activity().conv_addr.cmp_operands, 0);
        l.address_ready(3); // load: 1 older known store (age 1)
        assert_eq!(l.activity().conv_addr.cmp_operands, 1);
        l.address_ready(2); // store: 1 younger known load (age 3)
        assert_eq!(l.activity().conv_addr.cmp_operands, 2);
        assert_eq!(l.activity().conv_addr.cmp_ops, 3);
        assert_eq!(l.activity().conv_addr.reads_writes, 3);
    }

    #[test]
    fn squash_removes_young_ops() {
        let mut l = lsq();
        l.dispatch(MemOp::load(1, mref(0, 4)));
        l.dispatch(MemOp::store(5, mref(8, 4)));
        l.dispatch(MemOp::load(9, mref(16, 4)));
        l.squash_younger(5);
        assert_eq!(l.occupancy().conv_entries, 2);
        l.squash_younger(0);
        assert_eq!(l.occupancy().conv_entries, 0);
    }

    #[test]
    #[should_panic(expected = "age order")]
    fn out_of_order_commit_panics() {
        let mut l = lsq();
        l.dispatch(MemOp::load(1, mref(0, 4)));
        l.dispatch(MemOp::load(2, mref(8, 4)));
        l.commit(2);
    }

    #[test]
    fn store_lifecycle_counts_datum_traffic() {
        let mut l = lsq();
        l.dispatch(MemOp::store(1, mref(0, 8)));
        l.address_ready(1);
        l.store_executed(1); // +1 write
        l.commit(1); // +1 read (to cache)
        assert_eq!(l.activity().conv_data_rw, 2);
    }

    #[test]
    fn occupancy_integrates_per_tick() {
        let mut l = lsq();
        l.dispatch(MemOp::load(1, mref(0, 4)));
        let mut p = vec![];
        l.tick(&mut p);
        l.dispatch(MemOp::load(2, mref(8, 4)));
        l.tick(&mut p);
        assert_eq!(l.activity().occupancy.cycles, 2);
        assert_eq!(l.activity().occupancy.conv_entries, 3);
        assert!((l.activity().occupancy.mean_conv_entries() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn flush_all_empties() {
        let mut l = lsq();
        l.dispatch(MemOp::load(1, mref(0, 4)));
        l.dispatch(MemOp::store(2, mref(8, 4)));
        l.flush_all();
        assert_eq!(l.occupancy().conv_entries, 0);
        assert!(l.can_dispatch(false));
    }

    #[test]
    fn never_stalls_dispatch() {
        let mut l = ConventionalLsq::unbounded();
        for age in 0..10_000u64 {
            assert!(l.can_dispatch(age % 3 == 0));
            l.dispatch(MemOp::load(age, MemRef::new(age * 8, 8)));
        }
        assert_eq!(l.occupancy().conv_entries, 10_000);
    }

    #[test]
    fn records_no_cam_activity() {
        let mut l = ConventionalLsq::unbounded();
        l.dispatch(MemOp::store(1, MemRef::new(0, 8)));
        l.dispatch(MemOp::load(2, MemRef::new(0, 8)));
        l.address_ready(1);
        l.address_ready(2);
        l.store_executed(1);
        assert_eq!(
            l.load_forward_status(2),
            ForwardStatus::Forward { store: 1 }
        );
        assert_eq!(l.activity().conv_addr.cmp_ops, 0);
        assert_eq!(l.activity().conv_data_rw, 0);
    }

    #[test]
    fn forwarding_matches_conventional_semantics() {
        let mut l = ConventionalLsq::unbounded();
        l.dispatch(MemOp::store(1, MemRef::new(64, 4)));
        l.dispatch(MemOp::load(2, MemRef::new(66, 2)));
        l.address_ready(1);
        l.address_ready(2);
        l.store_executed(1);
        assert_eq!(
            l.load_forward_status(2),
            ForwardStatus::Forward { store: 1 }
        );
    }

    #[test]
    fn name_is_unbounded() {
        assert_eq!(ConventionalLsq::unbounded().name(), "unbounded");
    }
}
