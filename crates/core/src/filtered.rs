//! Bloom-filtered conventional LSQ — the §2 related-work baseline
//! (Sethumadhavan et al., "Scalable Hardware Memory Disambiguation for
//! High ILP Processors", MICRO 2003) and the technique the paper notes
//! SAMIE "can be easily combined with".
//!
//! A small Bloom filter summarises the addresses of in-flight stores
//! (for loads) and in-flight loads (for stores). When a computed address
//! misses in the filter, the op provably has no dependence and the
//! power-hungry fully-associative search is skipped entirely; only filter
//! hits pay the CAM search. The filter is counting (so entries can be
//! removed at commit/squash) and indexed by line-granularity hashes,
//! giving zero false negatives and a false-positive rate set by its size.
//!
//! As the paper's §2 observes, this filters *accesses to* the LSQ but
//! does not shrink the CAM itself: the worst-case latency and the
//! structure's complexity remain those of the 128-entry baseline. The
//! [`FilteredLsq`] exists to let the repository quantify that trade-off
//! (see `examples/design_space.rs`).

use crate::activity::LsqActivity;
use crate::conventional::ConventionalLsq;
use crate::traits::{CachePlan, LoadStoreQueue};
use crate::types::{Age, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};
use trace_isa::addr::line_index;

/// A counting Bloom filter over line addresses.
#[derive(Debug, Clone)]
pub struct CountingBloom {
    counters: Vec<u16>,
    mask: u64,
    hashes: u32,
}

impl CountingBloom {
    /// `buckets` must be a power of two; `hashes` ≥ 1.
    pub fn new(buckets: usize, hashes: u32) -> Self {
        assert!(buckets.is_power_of_two() && hashes >= 1);
        CountingBloom {
            counters: vec![0; buckets],
            mask: buckets as u64 - 1,
            hashes,
        }
    }

    fn index(&self, key: u64, i: u32) -> usize {
        // Two independent mixes combined (Kirsch–Mitzenmacher).
        let h1 = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let h2 = key.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 1;
        ((h1.wrapping_add((i as u64).wrapping_mul(h2)) >> 17) & self.mask) as usize
    }

    /// Insert one occurrence of `key`.
    pub fn insert(&mut self, key: u64) {
        for i in 0..self.hashes {
            let idx = self.index(key, i);
            self.counters[idx] = self.counters[idx].saturating_add(1);
        }
    }

    /// Remove one occurrence previously inserted.
    pub fn remove(&mut self, key: u64) {
        for i in 0..self.hashes {
            let idx = self.index(key, i);
            debug_assert!(self.counters[idx] > 0, "removing a key never inserted");
            self.counters[idx] = self.counters[idx].saturating_sub(1);
        }
    }

    /// Might `key` be present? (No false negatives.)
    pub fn may_contain(&self, key: u64) -> bool {
        (0..self.hashes).all(|i| self.counters[self.index(key, i)] > 0)
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }
}

/// Conventional LSQ fronted by two counting Bloom filters.
#[derive(Debug, Clone)]
pub struct FilteredLsq {
    inner: ConventionalLsq,
    /// Lines of in-flight stores with known addresses (checked by loads).
    store_filter: CountingBloom,
    /// Lines of in-flight loads with known addresses (checked by stores).
    load_filter: CountingBloom,
    /// Dispatched ops whose address has not reached the LSQ yet
    /// (age-sorted: dispatch allocates ages monotonically).
    pending: Vec<(Age, MemOp)>,
    /// Ops whose line was inserted, age-sorted (so commit — always the
    /// oldest — and squash are binary searches, not scans).
    tracked: Vec<(Age, bool, u64)>,
    /// Searches skipped thanks to a filter miss.
    filtered_searches: u64,
    /// Searches that had to run (filter hit — true dependence or false
    /// positive).
    performed_searches: u64,
}

impl FilteredLsq {
    /// The configuration studied by the MICRO'03 paper, scaled to this
    /// window: 1024-bucket, 2-hash counting filters in front of the
    /// 128-entry baseline.
    pub fn paper() -> Self {
        FilteredLsq::new(128, 1024, 2)
    }

    /// Custom geometry.
    pub fn new(capacity: usize, buckets: usize, hashes: u32) -> Self {
        FilteredLsq {
            inner: ConventionalLsq::with_capacity(capacity),
            store_filter: CountingBloom::new(buckets, hashes),
            load_filter: CountingBloom::new(buckets, hashes),
            pending: Vec::new(),
            tracked: Vec::new(),
            filtered_searches: 0,
            performed_searches: 0,
        }
    }

    /// Searches skipped by the filter.
    pub fn filtered_searches(&self) -> u64 {
        self.filtered_searches
    }

    /// Searches that ran.
    pub fn performed_searches(&self) -> u64 {
        self.performed_searches
    }

    /// Fraction of disambiguation searches the filter eliminated.
    pub fn filter_rate(&self) -> f64 {
        let total = self.filtered_searches + self.performed_searches;
        if total == 0 {
            0.0
        } else {
            self.filtered_searches as f64 / total as f64
        }
    }

    fn untrack(&mut self, age: Age) {
        let i = self.tracked.partition_point(|&(a, _, _)| a < age);
        if self.tracked.get(i).is_some_and(|&(a, _, _)| a == age) {
            let (_, is_store, line) = self.tracked.remove(i);
            if is_store {
                self.store_filter.remove(line);
            } else {
                self.load_filter.remove(line);
            }
        }
    }
}

impl LoadStoreQueue for FilteredLsq {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "bloom-filtered"
    }

    fn can_dispatch(&self, is_store: bool) -> bool {
        self.inner.can_dispatch(is_store)
    }

    fn dispatch(&mut self, op: MemOp) {
        debug_assert!(
            self.pending.last().is_none_or(|&(a, _)| a < op.age),
            "ages must ascend"
        );
        self.pending.push((op.age, op));
        self.inner.dispatch(op);
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        let i = self.pending.partition_point(|&(a, _)| a < age);
        assert!(
            self.pending.get(i).is_some_and(|&(a, _)| a == age),
            "address_ready for an undispatched op ({age})"
        );
        let (_, op) = self.pending.remove(i);
        if self.filter_check(op) {
            // Provably dependence-free: the CAM search is skipped; only
            // the address write is paid.
            self.inner.skip_next_search();
        }
        self.inner.address_ready(age)
    }

    fn store_executed(&mut self, age: Age) {
        self.inner.store_executed(age);
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        self.inner.load_forward_status(age)
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        self.inner.take_forward(load, store);
    }

    fn cache_access_plan(&mut self, age: Age) -> CachePlan {
        self.inner.cache_access_plan(age)
    }

    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool {
        self.inner.note_cache_access(age, set, way)
    }

    fn load_data_arrived(&mut self, age: Age) {
        self.inner.load_data_arrived(age);
    }

    fn on_line_replaced(&mut self, set: u32, way: u32) {
        self.inner.on_line_replaced(set, way);
    }

    fn commit(&mut self, age: Age) {
        self.untrack(age);
        self.inner.commit(age);
    }

    fn squash_younger(&mut self, age: Age) {
        for (_, is_store, line) in self
            .tracked
            .split_off(self.tracked.partition_point(|&(a, _, _)| a <= age))
        {
            if is_store {
                self.store_filter.remove(line);
            } else {
                self.load_filter.remove(line);
            }
        }
        self.pending
            .truncate(self.pending.partition_point(|&(a, _)| a <= age));
        self.inner.squash_younger(age);
    }

    fn flush_all(&mut self) {
        self.pending.clear();
        self.tracked.clear();
        self.store_filter.clear();
        self.load_filter.clear();
        self.inner.flush_all();
    }

    fn is_buffered(&self, age: Age) -> bool {
        self.inner.is_buffered(age)
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        self.inner.tick(promoted);
    }

    fn tick_idle(&mut self, k: u64) {
        self.inner.tick_idle(k);
    }

    fn activity(&self) -> &LsqActivity {
        self.inner.activity()
    }

    fn reset_activity(&mut self) {
        self.filtered_searches = 0;
        self.performed_searches = 0;
        self.inner.reset_activity();
    }

    fn occupancy(&self) -> LsqOccupancy {
        self.inner.occupancy()
    }
}

impl FilteredLsq {
    /// Record the op's line in the appropriate filter and decide whether
    /// its disambiguation search can be skipped. Returns `true` if the
    /// search was filtered (provably no dependence). Called by
    /// `address_ready`; public for the ablation experiments.
    pub fn filter_check(&mut self, op: MemOp) -> bool {
        let line = line_index(op.mref.addr);
        let filtered = if op.is_store {
            !self.load_filter.may_contain(line)
        } else {
            !self.store_filter.may_contain(line)
        };
        if filtered {
            self.filtered_searches += 1;
        } else {
            self.performed_searches += 1;
        }
        if op.is_store {
            self.store_filter.insert(line);
        } else {
            self.load_filter.insert(line);
        }
        // Addresses compute nearly in age order, so the append fast path
        // covers almost every insert.
        match self.tracked.last() {
            Some(&(last, _, _)) if last >= op.age => {
                let at = self.tracked.partition_point(|&(a, _, _)| a < op.age);
                self.tracked.insert(at, (op.age, op.is_store, line));
            }
            _ => self.tracked.push((op.age, op.is_store, line)),
        }
        filtered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut f = CountingBloom::new(256, 2);
        for k in 0..64u64 {
            f.insert(k * 7);
        }
        for k in 0..64u64 {
            assert!(f.may_contain(k * 7));
        }
    }

    #[test]
    fn bloom_removal_restores_absence() {
        let mut f = CountingBloom::new(1024, 2);
        f.insert(42);
        assert!(f.may_contain(42));
        f.remove(42);
        assert!(!f.may_contain(42));
    }

    #[test]
    fn bloom_false_positive_rate_is_low_when_sparse() {
        let mut f = CountingBloom::new(1024, 2);
        for k in 0..32u64 {
            f.insert(k);
        }
        let fps = (1000u64..11_000).filter(|&k| f.may_contain(k)).count();
        assert!(fps < 300, "false positives {fps}/10000");
    }

    #[test]
    fn bloom_counting_supports_duplicates() {
        let mut f = CountingBloom::new(256, 2);
        f.insert(7);
        f.insert(7);
        f.remove(7);
        assert!(f.may_contain(7), "one occurrence must remain");
        f.remove(7);
        assert!(!f.may_contain(7));
    }
}
