//! ARB — Franklin & Sohi's Address Resolution Buffer, reproduced for the
//! paper's Figure 1 motivation study.
//!
//! The ARB distributes disambiguation over `banks` banks selected by
//! low-order word-address bits. Each bank holds `rows_per_bank` *address
//! rows*; a row is keyed by one (word-aligned) memory address and has room
//! for every in-flight memory instruction referencing that address. A
//! global cap bounds the number of in-flight memory instructions (the
//! paper studies 128 and, for the "half" variant, 64).
//!
//! An op whose bank has no matching row and no free row must wait and
//! retry — the pathology Figure 1 quantifies: with 64×2 banking, programs
//! lose as much as 28 % IPC.

use crate::activity::LsqActivity;
use crate::agering::AgeRing;
use crate::traits::{CachePlan, LoadStoreQueue};
use crate::types::{Age, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};

/// ARB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbConfig {
    /// Number of banks (power of two).
    pub banks: usize,
    /// Address rows per bank.
    pub rows_per_bank: usize,
    /// Maximum in-flight memory instructions (dispatch gate).
    pub max_inflight: usize,
}

impl ArbConfig {
    /// A Figure 1 configuration: `banks × rows`, e.g. `fig1(64, 2)` is the
    /// "64x2" point; `max_inflight` 128 ("Normal") unless halved.
    pub fn fig1(banks: usize, rows_per_bank: usize) -> Self {
        ArbConfig {
            banks,
            rows_per_bank,
            max_inflight: 128,
        }
    }

    /// The "half number of addresses" variant of Figure 1.
    pub fn half_inflight(mut self) -> Self {
        self.max_inflight /= 2;
        self
    }

    fn validate(&self) {
        assert!(
            self.banks.is_power_of_two(),
            "ARB banks must be a power of two"
        );
        assert!(self.rows_per_bank > 0 && self.max_inflight > 0);
    }
}

/// ARB rows disambiguate at naturally-aligned 8-byte word granularity.
const WORD_SHIFT: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Dispatched, address not yet computed.
    Dispatched,
    /// Address computed but no row available; retried each cycle.
    Buffered,
    /// Resident in `bank`/`row`.
    Placed { bank: u32, row: u32 },
}

#[derive(Debug, Clone, Copy)]
struct ArbOp {
    op: MemOp,
    stage: Stage,
    data_ready: bool,
}

#[derive(Debug, Clone, Default)]
struct Row {
    /// Word address this row disambiguates (valid while `ages` is non-empty).
    word: u64,
    /// Ages of resident ops (kept unsorted; rows are tiny in practice).
    ages: Vec<Age>,
}

/// Franklin & Sohi ARB.
///
/// Occupancy is kept in `rows_used`, updated where a row fills or
/// empties, so a cycle's housekeeping never rescans the rows.
#[derive(Debug, Clone)]
pub struct ArbLsq {
    cfg: ArbConfig,
    rows: Vec<Row>, // banks * rows_per_bank, row-major by bank
    /// Rows holding at least one op.
    rows_used: usize,
    ops: AgeRing<ArbOp>,
    /// Buffered ages in arrival (FIFO) order.
    retry: Vec<Age>,
    inflight: usize,
    activity: LsqActivity,
}

impl ArbLsq {
    /// Build an ARB.
    pub fn new(cfg: ArbConfig) -> Self {
        cfg.validate();
        ArbLsq {
            cfg,
            rows: vec![Row::default(); cfg.banks * cfg.rows_per_bank],
            rows_used: 0,
            // At most `max_inflight` ops, so the ring never grows.
            ops: AgeRing::with_capacity(cfg.max_inflight * 2),
            retry: Vec::new(),
            inflight: 0,
            activity: LsqActivity::default(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> ArbConfig {
        self.cfg
    }

    #[inline]
    fn bank_of(&self, word: u64) -> u32 {
        (word & (self.cfg.banks as u64 - 1)) as u32
    }

    fn row_slot(&self, bank: u32, row: u32) -> usize {
        bank as usize * self.cfg.rows_per_bank + row as usize
    }

    /// The tracked state of an in-flight op (every age the simulator
    /// asks about is between dispatch and commit, so the lookup hits).
    #[inline]
    fn op(&self, age: Age) -> &ArbOp {
        self.ops.get(age).expect("unknown op")
    }

    #[inline]
    fn word_of(&self, age: Age) -> u64 {
        self.op(age).op.mref.addr >> WORD_SHIFT
    }

    /// The row of `word`'s bank that would take it: the row already
    /// holding `word`, else the first free row.
    fn find_row(&self, bank: u32, word: u64) -> Option<u32> {
        let mut free: Option<u32> = None;
        for r in 0..self.cfg.rows_per_bank as u32 {
            let row = &self.rows[self.row_slot(bank, r)];
            if row.ages.is_empty() {
                free.get_or_insert(r);
            } else if row.word == word {
                return Some(r);
            }
        }
        free
    }

    /// Try to place `age` (address already known). Returns true on success.
    fn try_place(&mut self, age: Age) -> bool {
        let word = self.word_of(age);
        let bank = self.bank_of(word);
        let Some(r) = self.find_row(bank, word) else {
            return false;
        };
        let slot = self.row_slot(bank, r);
        let row = &mut self.rows[slot];
        if row.ages.is_empty() {
            row.word = word;
            self.rows_used += 1;
        }
        row.ages.push(age);
        self.ops.get_mut(age).unwrap().stage = Stage::Placed { bank, row: r };
        true
    }

    fn remove_placed(&mut self, age: Age, stage: Stage) {
        if let Stage::Placed { bank, row } = stage {
            let slot = self.row_slot(bank, row);
            let ages = &mut self.rows[slot].ages;
            ages.retain(|&a| a != age);
            if ages.is_empty() {
                self.rows_used -= 1;
            }
        }
    }

    /// Rows in use by a full scan: the reference `rows_used` is checked
    /// against.
    #[cfg(any(test, debug_assertions))]
    fn recount_rows(&self) -> usize {
        self.rows.iter().filter(|r| !r.ages.is_empty()).count()
    }

    /// Debug check backing `tick_idle`: no buffered op has a row to go to.
    #[cfg(debug_assertions)]
    fn no_row_for_any_buffered(&self) -> bool {
        self.retry.iter().all(|&a| {
            let word = self.word_of(a);
            self.find_row(self.bank_of(word), word).is_none()
        })
    }
}

impl LoadStoreQueue for ArbLsq {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "arb"
    }

    fn can_dispatch(&self, _is_store: bool) -> bool {
        self.inflight < self.cfg.max_inflight
    }

    fn dispatch(&mut self, op: MemOp) {
        debug_assert!(self.inflight < self.cfg.max_inflight);
        self.inflight += 1;
        let prev = self.ops.insert(
            op.age,
            ArbOp {
                op,
                stage: Stage::Dispatched,
                data_ready: false,
            },
        );
        debug_assert!(prev.is_none(), "duplicate age {}", op.age);
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        debug_assert_eq!(self.op(age).stage, Stage::Dispatched);
        if self.try_place(age) {
            PlaceOutcome::Placed
        } else {
            self.ops.get_mut(age).unwrap().stage = Stage::Buffered;
            self.retry.push(age);
            PlaceOutcome::Buffered
        }
    }

    fn store_executed(&mut self, age: Age) {
        let op = self.ops.get_mut(age).expect("unknown store");
        debug_assert!(op.op.is_store);
        op.data_ready = true;
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        let load = *self.op(age);
        let Stage::Placed { bank, row } = load.stage else {
            // A buffered load cannot be disambiguated yet.
            return ForwardStatus::Wait;
        };
        // An older overlapping store still waiting for a row has not been
        // disambiguated; the load must wait for its placement.
        if self.retry.iter().any(|&a| {
            a < age && {
                let o = self.op(a);
                o.op.is_store && o.op.mref.overlaps(load.op.mref)
            }
        }) {
            return ForwardStatus::Wait;
        }
        let slot = self.row_slot(bank, row);
        // Youngest older store in this row that overlaps the load.
        let mut best: Option<&ArbOp> = None;
        for &a in &self.rows[slot].ages {
            if a >= age {
                continue;
            }
            let cand = self.op(a);
            if cand.op.is_store && cand.op.mref.overlaps(load.op.mref) {
                match best {
                    Some(b) if b.op.age > a => {}
                    _ => best = Some(cand),
                }
            }
        }
        match best {
            None => ForwardStatus::AccessCache,
            Some(st) if st.op.mref.covers(load.op.mref) && st.data_ready => {
                ForwardStatus::Forward { store: st.op.age }
            }
            Some(_) => ForwardStatus::Wait,
        }
    }

    fn take_forward(&mut self, _load: Age, _store: Age) {
        self.activity.forwards += 1;
    }

    fn cache_access_plan(&mut self, _age: Age) -> CachePlan {
        CachePlan::default()
    }

    fn note_cache_access(&mut self, _age: Age, _set: u32, _way: u32) -> bool {
        false
    }

    fn load_data_arrived(&mut self, _age: Age) {}

    fn on_line_replaced(&mut self, _set: u32, _way: u32) {}

    fn commit(&mut self, age: Age) {
        let op = self.ops.remove(age).expect("commit of unknown op");
        debug_assert!(
            !matches!(op.stage, Stage::Buffered),
            "simulator must flush, not commit, a buffered ROB head"
        );
        self.remove_placed(age, op.stage);
        self.retry.retain(|&a| a != age);
        self.inflight -= 1;
    }

    fn squash_younger(&mut self, age: Age) {
        let doomed: Vec<Age> = self
            .ops
            .iter()
            .map(|(a, _)| a)
            .filter(|&a| a > age)
            .collect();
        for a in doomed {
            let op = self.ops.remove(a).unwrap();
            self.remove_placed(a, op.stage);
            self.inflight -= 1;
        }
        self.retry.retain(|&a| a <= age);
    }

    fn flush_all(&mut self) {
        self.ops.clear();
        self.retry.clear();
        for r in &mut self.rows {
            r.ages.clear();
        }
        self.rows_used = 0;
        self.inflight = 0;
    }

    fn is_buffered(&self, age: Age) -> bool {
        self.ops
            .get(age)
            .is_some_and(|o| o.stage == Stage::Buffered)
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        // Retry buffered ops in arrival order, compacting in place.
        let mut retry = std::mem::take(&mut self.retry);
        retry.retain(|&age| {
            let placed = self.try_place(age);
            if placed {
                promoted.push(age);
            }
            !placed
        });
        self.retry = retry;
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.rows_used, self.recount_rows());

        let occ = &mut self.activity.occupancy;
        occ.cycles += 1;
        occ.conv_entries += self.rows_used as u64;
        occ.abuf_slots += self.retry.len() as u64;
        if !self.retry.is_empty() {
            self.activity.abuf_busy_cycles += 1;
        }
    }

    fn tick_idle(&mut self, k: u64) {
        // The caller guarantees the previous tick promoted nothing and no
        // state changed since. No row empties during the stretch, so
        // every retry fails again: k idle ticks are k integrations of
        // unchanged occupancy.
        #[cfg(debug_assertions)]
        debug_assert!(
            self.no_row_for_any_buffered(),
            "tick_idle while a buffered op could be placed"
        );
        let occ = &mut self.activity.occupancy;
        occ.cycles += k;
        occ.conv_entries += self.rows_used as u64 * k;
        occ.abuf_slots += self.retry.len() as u64 * k;
        if !self.retry.is_empty() {
            self.activity.abuf_busy_cycles += k;
        }
    }

    fn activity(&self) -> &LsqActivity {
        &self.activity
    }

    fn reset_activity(&mut self) {
        self.activity = LsqActivity::default();
    }

    fn occupancy(&self) -> LsqOccupancy {
        LsqOccupancy {
            conv_entries: self.rows_used,
            addr_buffer: self.retry.len(),
            ..LsqOccupancy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use trace_isa::MemRef;

    fn tiny() -> ArbLsq {
        // 2 banks x 1 row, cap 8
        ArbLsq::new(ArbConfig {
            banks: 2,
            rows_per_bank: 1,
            max_inflight: 8,
        })
    }

    #[test]
    fn same_word_ops_share_a_row() {
        let mut a = tiny();
        a.dispatch(MemOp::store(1, MemRef::new(0x100, 8)));
        a.dispatch(MemOp::load(2, MemRef::new(0x100, 4)));
        assert_eq!(a.address_ready(1), PlaceOutcome::Placed);
        assert_eq!(a.address_ready(2), PlaceOutcome::Placed);
        assert_eq!(a.occupancy().conv_entries, 1, "one row for one word");
        a.store_executed(1);
        assert_eq!(
            a.load_forward_status(2),
            ForwardStatus::Forward { store: 1 }
        );
    }

    #[test]
    fn bank_conflict_buffers_then_promotes() {
        let mut a = tiny();
        // words 0 and 2 both map to bank 0 (even words)
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(16, 4)));
        assert_eq!(a.address_ready(1), PlaceOutcome::Placed);
        assert_eq!(a.address_ready(2), PlaceOutcome::Buffered);
        assert!(a.is_buffered(2));
        a.commit(1);
        let mut promoted = vec![];
        a.tick(&mut promoted);
        assert_eq!(promoted, vec![2]);
        assert!(!a.is_buffered(2));
    }

    #[test]
    fn inflight_cap_gates_dispatch() {
        let mut a = ArbLsq::new(ArbConfig {
            banks: 2,
            rows_per_bank: 4,
            max_inflight: 2,
        });
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(8, 4)));
        assert!(!a.can_dispatch(false));
        a.address_ready(1);
        a.commit(1);
        assert!(a.can_dispatch(false));
    }

    #[test]
    fn different_words_never_forward() {
        let mut a = ArbLsq::new(ArbConfig::fig1(1, 128));
        a.dispatch(MemOp::store(1, MemRef::new(0x100, 8)));
        a.dispatch(MemOp::load(2, MemRef::new(0x108, 8)));
        a.address_ready(1);
        a.address_ready(2);
        a.store_executed(1);
        assert_eq!(a.load_forward_status(2), ForwardStatus::AccessCache);
    }

    #[test]
    fn buffered_load_waits() {
        let mut a = tiny();
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(16, 4)));
        a.address_ready(1);
        a.address_ready(2);
        assert_eq!(a.load_forward_status(2), ForwardStatus::Wait);
    }

    #[test]
    fn squash_frees_rows_and_cap() {
        let mut a = tiny();
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(5, MemRef::new(16, 4)));
        a.address_ready(1);
        a.address_ready(5); // buffered
        a.squash_younger(1);
        assert_eq!(a.occupancy().addr_buffer, 0);
        assert_eq!(a.occupancy().conv_entries, 1);
        assert!(a.can_dispatch(false));
    }

    #[test]
    fn fig1_configs() {
        let c = ArbConfig::fig1(64, 2);
        assert_eq!(c.max_inflight, 128);
        assert_eq!(c.half_inflight().max_inflight, 64);
    }

    #[test]
    fn partial_word_overlap_waits() {
        let mut a = ArbLsq::new(ArbConfig::fig1(1, 8));
        a.dispatch(MemOp::store(1, MemRef::new(0x100, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(0x102, 4)));
        a.address_ready(1);
        a.address_ready(2);
        a.store_executed(1);
        assert_eq!(a.load_forward_status(2), ForwardStatus::Wait);
    }

    /// Deterministic splitmix64 (the same stand-in for a property-test
    /// RNG as `agering`'s tests).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The in-flight ages whose op satisfies `keep`, oldest first.
    fn live_where(a: &ArbLsq, live: &VecDeque<Age>, keep: impl Fn(&ArbOp) -> bool) -> Vec<Age> {
        live.iter().copied().filter(|&x| keep(a.op(x))).collect()
    }

    /// ARB's bookkeeping under random traffic that keeps the simulator's
    /// protocol, on tiny geometries where a few words make rows collide
    /// and the retry queue fill. After every step `rows_used` equals a
    /// full recount. Wherever a tick promoted nothing, `tick_idle(k)`
    /// charges exactly what `k` replayed ticks charge.
    #[test]
    fn row_count_and_idle_tick_match_a_recount_and_a_replay() {
        for (banks, rows_per_bank, max_inflight) in [(1, 4, 8), (4, 1, 8), (2, 2, 4)] {
            let cfg = ArbConfig {
                banks,
                rows_per_bank,
                max_inflight,
            };
            let mut a = ArbLsq::new(cfg);
            // In-flight ages, oldest first.
            let mut live: VecDeque<Age> = VecDeque::new();
            let mut rng = 0xa5b ^ (banks * 64 + rows_per_bank) as u64;
            let mut next_age = 1;
            let mut promoted = Vec::new();
            let (mut idle_checks, mut busy_idle_checks, mut flushes) = (0, 0, 0);
            for step in 0..(1u64 << 14) {
                let roll = splitmix(&mut rng);
                let pick = |ages: &[Age]| ages[(roll >> 32) as usize % ages.len()];
                match roll % 16 {
                    0..=3 if a.can_dispatch(roll & 16 != 0) => {
                        // Six words over 48 bytes, whole or half-word.
                        let size = if roll & 32 == 0 { 8 } else { 4 };
                        let offset = if size == 4 { (roll >> 6) & 4 } else { 0 };
                        let mref = MemRef::new((roll >> 8) % 6 * 8 + offset, size);
                        a.dispatch(MemOp {
                            age: next_age,
                            is_store: roll & 16 != 0,
                            mref,
                        });
                        live.push_back(next_age);
                        next_age += 1;
                    }
                    4..=7 => {
                        let waiting = live_where(&a, &live, |o| o.stage == Stage::Dispatched);
                        if !waiting.is_empty() {
                            let age = pick(&waiting);
                            let outcome = a.address_ready(age);
                            assert_eq!(outcome == PlaceOutcome::Buffered, a.is_buffered(age));
                        }
                    }
                    8 => {
                        let stores = live_where(&a, &live, |o| o.op.is_store && !o.data_ready);
                        if !stores.is_empty() {
                            a.store_executed(pick(&stores));
                        }
                    }
                    9..=12 => {
                        promoted.clear();
                        a.tick(&mut promoted);
                        assert!(promoted.iter().all(|&p| !a.is_buffered(p)));
                        if promoted.is_empty() {
                            let k = 1 + (roll >> 40) % 49;
                            let mut replay = a.clone();
                            for _ in 0..k {
                                replay.tick(&mut promoted);
                            }
                            assert!(promoted.is_empty(), "{cfg:?} step {step}");
                            a.tick_idle(k);
                            assert_eq!(a.activity(), replay.activity(), "{cfg:?} step {step}");
                            assert_eq!(a.occupancy(), replay.occupancy(), "{cfg:?} step {step}");
                            idle_checks += 1;
                            if !a.retry.is_empty() {
                                busy_idle_checks += 1;
                            }
                        }
                    }
                    13 | 14 => match live.front().map(|&x| a.op(x).stage) {
                        Some(Stage::Placed { .. }) => {
                            a.commit(live.pop_front().unwrap());
                        }
                        // A buffered ROB head: the simulator's
                        // deadlock-avoidance flush.
                        Some(Stage::Buffered) => {
                            a.flush_all();
                            live.clear();
                            flushes += 1;
                        }
                        _ => {}
                    },
                    _ if roll & (63 << 6) == 0 => {
                        a.flush_all();
                        live.clear();
                        flushes += 1;
                    }
                    _ => {}
                }
                assert_eq!(a.rows_used, a.recount_rows(), "{cfg:?} step {step}");
                assert_eq!(
                    a.retry.len(),
                    live_where(&a, &live, |o| o.stage == Stage::Buffered).len(),
                    "{cfg:?} step {step}"
                );
                assert_eq!(a.inflight, live.len(), "{cfg:?} step {step}");
            }
            assert!(
                busy_idle_checks > 100 && idle_checks > busy_idle_checks && flushes > 10,
                "{cfg:?}: {idle_checks} idle checks, {busy_idle_checks} with retries, \
                 {flushes} flushes"
            );
        }
    }
}
