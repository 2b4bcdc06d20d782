//! The out-of-order pipeline: fetch → dispatch → issue → execute →
//! memory → commit, with the LSQ design as a pluggable backend.
//!
//! ## Cycle order
//!
//! Within a simulated cycle the stages run oldest-work-first:
//!
//! 1. **complete** — ops whose functional-unit latency expires this cycle
//!    write back and wake their consumers; finished address computations
//!    are handed to the LSQ ([`samie_lsq::LoadStoreQueue::address_ready`]).
//! 2. **LSQ tick** — AddrBuffer promotion and occupancy integration.
//! 3. **commit** — up to `commit_width` finished ops leave the ROB head;
//!    stores perform their D-cache write here (through a port). The
//!    deadlock-avoidance check (§3.3) fires first: a ROB head still parked
//!    in the AddrBuffer can never be freed by in-order commit, so the
//!    pipeline is flushed and replayed.
//! 4. **memory issue** — disambiguated loads with satisfied readyBit
//!    ordering either take a forward or access the D-cache via a port.
//! 5. **issue** — ready ops go to functional units (address generation for
//!    memory ops runs on the integer ALUs).
//! 6. **dispatch** — fetched ops → ROB (+ LSQ dispatch for memory ops).
//! 7. **fetch** — trace/replay → the ring behind the ROB (at most
//!    `fetch_queue` ops), guided by the branch predictor, BTB and L1
//!    I-cache; a mispredicted branch blocks fetch until it resolves plus
//!    a redirect penalty.
//!
//! ## Hot-loop layout and event-driven cycle skipping
//!
//! An op has one home from fetch to commit: a struct-of-arrays ring
//! (`Rob`) whose per-op record is split into parallel fixed arrays of
//! `(rob_size + fetch_queue).next_power_of_two()` slots. The op of age
//! `a` sits in slot `a & mask`: fetch writes it there, dispatch only
//! moves the boundary between the reorder buffer `[age0, age0 + len)`
//! and the fetched ops behind it, and commit advances `age0`. Ages are
//! assigned sequentially at fetch and flushes clear the whole ring, so
//! live ages never share a slot; `Rob::index` answers only for the
//! reorder buffer and checks that range in every build. The commit scan
//! touches only the `state` array, the wake-up walk only
//! `waiting_on`/`state` and the wake links, instead of dragging whole
//! entries through the cache.
//!
//! Wake-up lists are intrusive: each producer slot holds the head and
//! tail of a FIFO of nodes `age << 1 | operand`, linked through two
//! per-slot `wake_next` cells of the consumers themselves, so
//! registering a consumer allocates nothing.
//!
//! Scheduled completions sit on a timing wheel (`CompletionWheel`):
//! bucket `cycle & mask` plus an occupancy bitmap, with a horizon sized
//! once from the configuration's longest latency. The complete stage
//! drains exactly the current cycle's bucket in age order. The ready
//! sets are sorted age vectors walked oldest-first and compacted in the
//! same pass.
//!
//! Every stage reports how many units of work it performed. A cycle with
//! zero events across all stages cannot unblock itself: every gate is a
//! pure function of the (unchanged) pipeline state and the clock, and the
//! clock only matters through three kinds of timer — scheduled
//! completions, the fetch resume cycle, and functional-unit releases. So
//! when a cycle performs no events (and no refused address is waiting in
//! the LSQ retry queue, whose re-admission attempts charge LSQ activity),
//! the simulator jumps straight to the earliest such timer (the wheel's
//! next completion comes from its bitmap), bulk-charging
//! the per-cycle accounting (`stats.cycles`, LSQ occupancy integration
//! via [`samie_lsq::LoadStoreQueue::tick_idle`], fetch-blocked cycles) so
//! all statistics stay cycle-exact — runs with skipping on and off are
//! bit-identical. The jump is capped just short of the watchdog so a
//! genuinely stuck pipeline still trips the same assert on the same
//! cycle.
//!
//! ## Replay
//!
//! The only squashes in this trace-driven model are whole-pipeline flushes
//! (deadlock avoidance and LSQ no-space, both counted for Figure 6). All
//! uncommitted ops, dispatched and fetched, are pushed in age order into
//! a replay buffer and re-fetched with fresh ages, which preserves
//! dependency distances (they are relative to dynamic program order).

use std::collections::VecDeque;

use mem_hier::{AccessKind, Cache, DataMemory, DcacheAccessMode};
use samie_lsq::{Age, CachePlan, ForwardStatus, LoadStoreQueue, MemOp, PlaceOutcome};
use trace_isa::latency::exec_latency;
use trace_isa::{FuKind, MicroOp, OpClass, TraceSource};

use crate::ageset::AgeSet;
use crate::config::SimConfig;
use crate::fu::FuScoreboard;
use crate::predictor::{BranchPredictor, Btb};
use crate::profile::{NoProbe, PipelineProbe, Stage};
use crate::stats::SimStats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    /// Waiting for operands (in an issue queue).
    Waiting,
    /// Issued to a functional unit / memory.
    Executing,
    /// Result produced; may commit.
    Done,
}

/// Memory-op progress past address generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemPhase {
    /// Not a memory op, or address not yet generated.
    PreAgen,
    /// Address handed to the LSQ (placed or buffered); loads wait here for
    /// disambiguation + readyBit.
    InLsq,
    /// Load issued to memory / forwarded; store finished (writes at
    /// commit).
    Finished,
}

/// The wake-up list terminator. Ages start at 1, so no node is 0.
const NIL: u64 = 0;

/// Struct-of-arrays ring holding every in-flight op from fetch to commit.
/// One logical entry per op, split into parallel arrays of
/// `(rob_size + fetch_queue).next_power_of_two()` slots; the op of age `a`
/// lives in slot `a & mask`. Ages are assigned sequentially at fetch,
/// dispatch takes the oldest fetched op, and the only squashes are
/// whole-ring flushes, so the ring always holds the contiguous age range
/// `[age0, age0 + len + fetched)`: the reorder buffer proper
/// `[age0, age0 + len)` followed by the fetched, not yet dispatched ops.
/// No two live ages share a slot.
///
/// A producer's consumers hang off it on an intrusive FIFO: node
/// `age << 1 | operand` names a consumer's source operand, `wake_head`/
/// `wake_tail` (per producer slot) delimit the list and `wake_next`
/// (two links per consumer slot, one per operand) chains it. A consumer
/// naming one producer in both operands is two nodes on its list.
#[derive(Debug)]
struct Rob {
    /// Age of the oldest op in the ring (meaningful only while non-empty).
    age0: Age,
    /// Dispatched ops: the reorder buffer.
    len: usize,
    /// Fetched ops waiting for dispatch, just after the reorder buffer.
    fetched: usize,
    /// `slots - 1`; slot of age `a` is `a & mask`.
    mask: u64,
    op: Box<[MicroOp]>,
    state: Box<[ExecState]>,
    mem_phase: Box<[MemPhase]>,
    /// Producers still outstanding (0 → ready to issue).
    waiting_on: Box<[u8]>,
    /// First and last consumer node registered on each slot's op.
    wake_head: Box<[u64]>,
    wake_tail: Box<[u64]>,
    /// Link after each node, at `node & (2 * slots - 1)`.
    wake_next: Box<[u64]>,
}

impl Rob {
    fn with_capacity(cap: usize) -> Self {
        let slots = cap.next_power_of_two();
        Rob {
            age0: 0,
            len: 0,
            fetched: 0,
            mask: slots as u64 - 1,
            op: vec![MicroOp::alu(0, [0, 0]); slots].into_boxed_slice(),
            state: vec![ExecState::Waiting; slots].into_boxed_slice(),
            mem_phase: vec![MemPhase::PreAgen; slots].into_boxed_slice(),
            waiting_on: vec![0; slots].into_boxed_slice(),
            wake_head: vec![NIL; slots].into_boxed_slice(),
            wake_tail: vec![NIL; slots].into_boxed_slice(),
            wake_next: vec![NIL; 2 * slots].into_boxed_slice(),
        }
    }

    /// Dispatched ops in the reorder buffer.
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Fetched ops waiting for dispatch.
    #[inline]
    fn fetched(&self) -> usize {
        self.fetched
    }

    /// Slot of dispatched op `age`, or `None` if the op is not in the
    /// reorder buffer (it committed or was flushed — flushed ages are
    /// never re-used, so any stale age falls below `age0` — or it is
    /// still waiting for dispatch). Checked against the live range in
    /// every build: a ring slot outside it may belong to another op.
    #[inline]
    fn index(&self, age: Age) -> Option<usize> {
        // One compare covers both ends: an age below `age0` wraps high.
        if age.wrapping_sub(self.age0) < self.len as u64 {
            Some((age & self.mask) as usize)
        } else {
            None
        }
    }

    /// Slot of the oldest dispatched op, if any.
    #[inline]
    fn head(&self) -> Option<usize> {
        (self.len > 0).then_some((self.age0 & self.mask) as usize)
    }

    /// Age and slot of the oldest fetched op, if any.
    #[inline]
    fn fetch_front(&self) -> Option<(Age, usize)> {
        let age = self.age0 + self.len as u64;
        (self.fetched > 0).then_some((age, (age & self.mask) as usize))
    }

    /// Every op in the ring, oldest first: the reorder buffer, then the
    /// fetched ops.
    fn ops(&self) -> impl Iterator<Item = MicroOp> + '_ {
        let end = self.age0 + (self.len + self.fetched) as u64;
        (self.age0..end).map(|a| self.op[(a & self.mask) as usize])
    }

    /// Fetch `op` as age `age`, the next age after the ring's youngest.
    #[inline]
    fn push_fetched(&mut self, age: Age, op: MicroOp) {
        let live = self.len + self.fetched;
        if live == 0 {
            self.age0 = age;
        }
        assert!(
            self.age0 + live as u64 == age && (live as u64) <= self.mask,
            "ring ages must be dense and fit the ring (age {age}, window {}+{live})",
            self.age0,
        );
        self.op[(age & self.mask) as usize] = op;
        self.fetched += 1;
    }

    /// Move the oldest fetched op into the reorder buffer, waiting on
    /// `waiting` producers.
    #[inline]
    fn dispatch(&mut self, waiting: u8) {
        let (_, slot) = self.fetch_front().expect("dispatch with nothing fetched");
        self.state[slot] = ExecState::Waiting;
        self.mem_phase[slot] = MemPhase::PreAgen;
        self.waiting_on[slot] = waiting;
        self.wake_head[slot] = NIL;
        self.wake_tail[slot] = NIL;
        self.len += 1;
        self.fetched -= 1;
    }

    /// Retire the oldest dispatched op.
    #[inline]
    fn pop_front(&mut self) {
        assert!(self.len > 0, "pop from an empty ROB");
        self.age0 += 1;
        self.len -= 1;
    }

    /// Drop every op, dispatched or fetched.
    fn clear(&mut self) {
        self.len = 0;
        self.fetched = 0;
    }

    /// Register operand `operand` of the op of age `consumer` to wake
    /// when the op in `producer_slot` finishes, after every consumer
    /// registered before it.
    #[inline]
    fn add_waiter(&mut self, producer_slot: usize, consumer: Age, operand: usize) {
        let node = consumer << 1 | operand as u64;
        let link_mask = self.mask << 1 | 1;
        self.wake_next[(node & link_mask) as usize] = NIL;
        match self.wake_tail[producer_slot] {
            NIL => self.wake_head[producer_slot] = node,
            tail => self.wake_next[(tail & link_mask) as usize] = node,
        }
        self.wake_tail[producer_slot] = node;
    }

    /// Detach the wake-up list of the op in `slot`, returning its first
    /// node (or `NIL`); walk it with [`Rob::next_waiter`].
    #[inline]
    fn take_waiters(&mut self, slot: usize) -> u64 {
        self.wake_tail[slot] = NIL;
        std::mem::replace(&mut self.wake_head[slot], NIL)
    }

    /// The node after `node` on its list (or `NIL`).
    #[inline]
    fn next_waiter(&self, node: u64) -> u64 {
        self.wake_next[(node & (self.mask << 1 | 1)) as usize]
    }

    /// Oldest-op summary for the watchdog panic message.
    fn front_debug(&self) -> Option<(Age, OpClass, ExecState, MemPhase)> {
        self.head().map(|h| {
            (
                self.age0,
                self.op[h].class,
                self.state[h],
                self.mem_phase[h],
            )
        })
    }
}

/// Scheduled completions on a timing wheel. The ages due at cycle `c`
/// sit in bucket `c & mask`, and bit `c & mask` of `occupied` is set
/// while that bucket is non-empty. Every completion is scheduled into
/// `(now, now + horizon)` and each cycle's bucket is drained when the
/// clock reaches it, so a bucket never mixes two cycles.
#[derive(Debug)]
struct CompletionWheel {
    buckets: Box<[Vec<Age>]>,
    occupied: Box<[u64]>,
    /// `horizon - 1` (the horizon is a power of two).
    mask: u64,
}

impl CompletionWheel {
    fn new(horizon: usize) -> Self {
        assert!(horizon.is_power_of_two(), "wheel horizon {horizon}");
        CompletionWheel {
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            occupied: vec![0; horizon.div_ceil(64)].into_boxed_slice(),
            mask: horizon as u64 - 1,
        }
    }

    /// Schedule `age` to complete at `cycle`.
    #[inline]
    fn push(&mut self, now: u64, cycle: u64, age: Age) {
        assert!(
            now < cycle && cycle - now <= self.mask,
            "completion at cycle {cycle} outside the wheel's horizon from {now}"
        );
        let b = (cycle & self.mask) as usize;
        self.buckets[b].push(age);
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Move the ages due at `now` into `out` (emptied first), oldest
    /// first: that order decides the order addresses reach the LSQ.
    #[inline]
    fn drain_due(&mut self, now: u64, out: &mut Vec<Age>) {
        out.clear();
        let b = (now & self.mask) as usize;
        let bit = 1u64 << (b % 64);
        if self.occupied[b / 64] & bit != 0 {
            self.occupied[b / 64] &= !bit;
            std::mem::swap(&mut self.buckets[b], out);
            out.sort_unstable();
        }
    }

    /// The earliest cycle at or after `now` with a completion due.
    fn earliest(&self, now: u64) -> Option<u64> {
        let start = (now & self.mask) as usize;
        let (w0, s) = (start / 64, start % 64);
        let words = self.occupied.len();
        // Wheel order from `start`: the start word from bit `s` up, the
        // following words, then the start word below bit `s`.
        let mut pos = None;
        for k in 0..=words {
            let w = (w0 + k) % words;
            let bits = match k {
                0 => self.occupied[w] >> s << s,
                _ if k == words => self.occupied[w] & ((1u64 << s) - 1),
                _ => self.occupied[w],
            };
            if bits != 0 {
                pos = Some(w * 64 + bits.trailing_zeros() as usize);
                break;
            }
        }
        pos.map(|p| now + ((p as u64).wrapping_sub(start as u64) & self.mask))
    }

    /// Drop every scheduled completion.
    fn clear(&mut self) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            while *word != 0 {
                self.buckets[w * 64 + word.trailing_zeros() as usize].clear();
                *word &= *word - 1;
            }
        }
    }
}

/// The wheel's horizon for `cfg`: the next power of two above the
/// longest latency anything can be scheduled with — the slowest
/// functional unit, or a load that misses the D-TLB, L1D and L2.
fn completion_horizon(cfg: &SimConfig) -> usize {
    let fu = OpClass::ALL
        .iter()
        .map(|&c| exec_latency(c).cycles as u64)
        .max()
        .unwrap_or(1);
    let m = &cfg.mem;
    let load = m.l1d.hit_latency as u64
        + m.dtlb_miss_penalty as u64
        + m.l2.hit_latency as u64
        + m.mem_latency as u64;
    (fu.max(load).max(1) as usize + 1).next_power_of_two()
}

/// The simulator. Generic over the LSQ design (`L`) and trace source
/// (`T`) so every paper experiment is a type instantiation, not a flag.
pub struct Simulator<L: LoadStoreQueue, T: TraceSource> {
    cfg: SimConfig,
    lsq: L,
    trace: T,
    mem: DataMemory,
    icache: Cache,
    predictor: BranchPredictor,
    btb: Btb,
    fu: FuScoreboard,

    now: u64,
    next_age: Age,
    /// Ops pulled from the trace source so far (batch granularity) — the
    /// prefix length a recording must capture to replay this run.
    trace_ops: u64,

    /// Ops pulled from the trace ahead of fetch ([`TRACE_BATCH`] at a
    /// time, amortising the generator's per-call work).
    trace_buf: VecDeque<MicroOp>,
    replay: VecDeque<MicroOp>,
    /// Mispredicted branch blocking fetch until it resolves.
    fetch_blocked_on: Option<Age>,
    /// Earliest cycle fetch may run (redirect/flush/I-miss penalties).
    fetch_resume_at: u64,
    last_fetch_line: u64,

    rob: Rob,
    iq_int: usize,
    iq_fp: usize,

    ready_int: AgeSet,
    ready_fp: AgeSet,
    /// Loads past agen awaiting forward/cache access.
    pending_loads: AgeSet,
    /// In-flight stores whose address is still unknown (readyBit source).
    unknown_store_addrs: AgeSet,
    /// Ops whose computed address the LSQ refused outright (no space even
    /// in the AddrBuffer). They retry each cycle — the paper's §3.3
    /// alternative of holding the address computation until space is
    /// guaranteed. Stores here stay in `unknown_store_addrs` (they have
    /// not been disambiguated against anything).
    lsq_retry: VecDeque<Age>,

    completions: CompletionWheel,

    stats: SimStats,
    last_commit_cycle: u64,
    /// Event-driven cycle skipping (on by default). Not part of
    /// [`SimConfig`]: it cannot change any statistic, only wall time.
    skip_enabled: bool,
    /// Cycles jumped over by skipping (already included in
    /// `stats.cycles`; kept separately for diagnostics/profiling).
    skipped_cycles: u64,
    scratch_promoted: Vec<Age>,
    /// The completions due this cycle. It trades places with a wheel
    /// bucket every cycle, so it must not share capacity with a
    /// longer-lived list: each bucket would keep the larger capacity.
    scratch_due: Vec<Age>,
    /// Per-cycle working copy of the pending loads (reused so the stage
    /// allocates nothing in steady state).
    scratch_ages: Vec<Age>,
}

/// Ops pulled from the trace source per refill of the fetch-side buffer.
const TRACE_BATCH: usize = 64;

impl<L: LoadStoreQueue, T: TraceSource> Simulator<L, T> {
    /// Build a simulator.
    pub fn new(cfg: SimConfig, lsq: L, trace: T) -> Self {
        cfg.validate().expect("invalid simulator configuration");
        Simulator {
            mem: DataMemory::new(cfg.mem),
            icache: Cache::new(cfg.l1i),
            predictor: BranchPredictor::paper(),
            btb: Btb::paper(),
            fu: FuScoreboard::paper(),
            now: 0,
            next_age: 1,
            trace_ops: 0,
            trace_buf: VecDeque::with_capacity(TRACE_BATCH),
            replay: VecDeque::new(),
            fetch_blocked_on: None,
            fetch_resume_at: 0,
            last_fetch_line: u64::MAX,
            rob: Rob::with_capacity(cfg.rob_size + cfg.fetch_queue),
            iq_int: 0,
            iq_fp: 0,
            ready_int: AgeSet::new(),
            ready_fp: AgeSet::new(),
            pending_loads: AgeSet::new(),
            unknown_store_addrs: AgeSet::new(),
            lsq_retry: VecDeque::new(),
            completions: CompletionWheel::new(completion_horizon(&cfg)),
            stats: SimStats::default(),
            last_commit_cycle: 0,
            skip_enabled: true,
            skipped_cycles: 0,
            scratch_promoted: Vec::new(),
            scratch_due: Vec::new(),
            scratch_ages: Vec::new(),
            cfg,
            lsq,
            trace,
        }
    }

    /// The paper's core configuration around `lsq`.
    pub fn paper(lsq: L, trace: T) -> Self {
        Simulator::new(SimConfig::paper(), lsq, trace)
    }

    /// The LSQ under study.
    pub fn lsq(&self) -> &L {
        &self.lsq
    }

    /// The data-memory hierarchy.
    pub fn mem(&self) -> &DataMemory {
        &self.mem
    }

    /// Enable/disable event-driven cycle skipping (on by default).
    /// Statistics are bit-identical either way; off exists for
    /// differential testing and single-stepped debugging.
    pub fn set_cycle_skipping(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
    }

    /// Cycles of the measured interval jumped over by event-driven
    /// skipping (a subset of `stats.cycles`, which counts them as
    /// simulated; [`warm_up`](Self::warm_up) resets both).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Ops pulled from the trace source so far (in 64-op batch refills,
    /// so this slightly over-counts what fetch actually used).
    /// A recording of this many ops replays the run bit-identically —
    /// the `SimSession` record mode is built on it.
    pub fn trace_ops_pulled(&self) -> u64 {
        self.trace_ops
    }

    /// Statistics of the measured interval so far (finalised copy).
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.l1d = *self.mem.l1d().stats();
        s.l2 = *self.mem.l2().stats();
        s.l1i = *self.icache.stats();
        s.dtlb_accesses = self.mem.dtlb().accesses();
        s.dtlb_misses = self.mem.dtlb().misses();
        s.lsq = *self.lsq.activity();
        s
    }

    /// Run until `instructions` more have committed; returns final stats.
    pub fn run(&mut self, instructions: u64) -> SimStats {
        self.run_with(instructions, &mut NoProbe)
    }

    /// [`run`](Self::run) with a [`PipelineProbe`] observing every stage,
    /// stepped cycle and skipped stretch. The probe only observes: the
    /// returned stats equal [`run`](Self::run)'s. `NoProbe` compiles to
    /// the plain hot loop.
    pub fn run_with<P: PipelineProbe>(&mut self, instructions: u64, probe: &mut P) -> SimStats {
        let target = self.stats.committed + instructions;
        while self.stats.committed < target {
            let events = self.step_with(probe);
            // A cycle with zero events cannot unblock itself (see the
            // module docs); jump to the next timer. The retry queue is
            // excluded: re-offering a refused address charges LSQ
            // activity every cycle, so those cycles must be stepped.
            if events == 0 && self.skip_enabled && self.lsq_retry.is_empty() {
                self.skip_ahead(probe);
            }
        }
        self.stats()
    }

    /// Run `instructions` then discard all statistics (cache/predictor/LSQ
    /// state is kept) — the paper's warm-up protocol.
    pub fn warm_up(&mut self, instructions: u64) {
        self.run(instructions);
        self.stats = SimStats::default();
        self.mem.reset_stats();
        self.icache.reset_stats();
        self.lsq.reset_activity();
        self.skipped_cycles = 0;
        self.last_commit_cycle = self.now;
    }

    /// Advance one cycle, reporting per-stage work to `probe`. Returns
    /// the total number of events (zero ⇒ the pipeline made no progress).
    fn step_with<P: PipelineProbe>(&mut self, probe: &mut P) -> u64 {
        probe.enter(Stage::Execute);
        let completed = self.complete_stage();
        probe.exit(Stage::Execute, completed);

        probe.enter(Stage::LsqTick);
        let mut promoted = std::mem::take(&mut self.scratch_promoted);
        promoted.clear();
        self.lsq.tick(&mut promoted);
        // Promoted stores become complete (they were held back while in
        // the AddrBuffer so they could not commit undisambiguated).
        let promotions = promoted.len() as u64;
        for &age in &promoted {
            if let Some(i) = self.rob.index(age) {
                if self.rob.op[i].class == OpClass::Store {
                    self.rob.mem_phase[i] = MemPhase::Finished;
                    self.mark_done(age);
                }
            }
        }
        self.scratch_promoted = promoted;
        let drained = self.drain_lsq_retry();
        probe.exit(Stage::LsqTick, promotions + drained);

        probe.enter(Stage::Commit);
        let committed = self.commit_stage();
        probe.exit(Stage::Commit, committed);

        probe.enter(Stage::Forward);
        let mem_issued = self.memory_issue_stage();
        probe.exit(Stage::Forward, mem_issued);

        probe.enter(Stage::Issue);
        let issued = self.issue_stage();
        probe.exit(Stage::Issue, issued);

        probe.enter(Stage::Dispatch);
        let dispatched = self.dispatch_stage();
        probe.exit(Stage::Dispatch, dispatched);

        probe.enter(Stage::Fetch);
        let fetched = self.fetch_stage();
        probe.exit(Stage::Fetch, fetched);

        self.stats.cycles += 1;
        self.now += 1;
        probe.cycle();
        assert!(
            self.now - self.last_commit_cycle < self.cfg.watchdog_cycles,
            "no commit for {} cycles at cycle {} (rob head: {:?})",
            self.cfg.watchdog_cycles,
            self.now,
            self.rob.front_debug(),
        );
        completed + promotions + drained + committed + mem_issued + issued + dispatched + fetched
    }

    /// Jump from a proven-idle cycle to the earliest cycle at which
    /// anything can happen, bulk-charging the per-cycle accounting so the
    /// statistics are identical to stepping. Caller guarantees the step
    /// just executed performed zero events and the LSQ retry queue is
    /// empty.
    fn skip_ahead<P: PipelineProbe>(&mut self, probe: &mut P) {
        let now = self.now;
        let mut wake = u64::MAX;
        // The three timers that can unblock an idle pipeline:
        // a scheduled completion...
        if let Some(cycle) = self.completions.earliest(now) {
            wake = wake.min(cycle);
        }
        // ...fetch resuming after a redirect/I-miss penalty, counted only
        // while it lies ahead and fetch does not wait on a branch (whose
        // resolution is a completion). A past resume cycle wakes nothing:
        // a zero-event cycle in which fetch was blocked neither by a
        // redirect nor by its timer means the fetch window was full, and
        // only dispatch frees it. The completion and FU timers that drive
        // dispatch stay in the minimum, as does the watchdog cap...
        if self.fetch_blocked_on.is_none() && self.fetch_resume_at >= now {
            wake = wake.min(self.fetch_resume_at);
        }
        // ...or a busy functional unit freeing up.
        if let Some(release) = self.fu.earliest_release(now) {
            wake = wake.min(release);
        }
        // Never jump past the last cycle the watchdog allows: if no timer
        // is pending the pipeline is stuck, and stepping from here makes
        // the watchdog fire on exactly the cycle it would have without
        // skipping.
        let cap = self.last_commit_cycle + self.cfg.watchdog_cycles - 1;
        let target = wake.min(cap);
        if target <= now {
            return;
        }
        let k = target - now;
        // Per-cycle accounting the skipped steps would have performed.
        self.stats.cycles += k;
        if self.fetch_blocked_on.is_some() {
            self.stats.fetch_blocked_cycles += k;
        } else if self.fetch_resume_at > now {
            self.stats.fetch_blocked_cycles += k.min(self.fetch_resume_at - now);
        }
        self.lsq.tick_idle(k);
        self.now = target;
        self.skipped_cycles += k;
        probe.skipped(k);
    }

    // ---- stage 1: completion ------------------------------------------

    fn complete_stage(&mut self) -> u64 {
        let mut due = std::mem::take(&mut self.scratch_due);
        self.completions.drain_due(self.now, &mut due);
        for &age in &due {
            // The op may have been flushed since scheduling.
            if self.rob.index(age).is_some() {
                self.finish_execution(age);
            }
        }
        let events = due.len() as u64;
        self.scratch_due = due;
        events
    }

    /// An op's FU latency expired. A memory op completes twice: once when
    /// its address generation finishes (it then meets the LSQ) and — for
    /// loads — once more when its datum arrives; `mem_phase` tells the two
    /// events apart.
    fn finish_execution(&mut self, age: Age) {
        let i = self.rob.index(age).expect("completing a flushed op");
        let op = self.rob.op[i];
        let phase = self.rob.mem_phase[i];
        match op.class {
            OpClass::Load | OpClass::Store if phase == MemPhase::PreAgen => {
                self.agen_complete(age, op);
            }
            OpClass::Load => {
                debug_assert_eq!(phase, MemPhase::Finished, "load datum without memory issue");
                self.mark_done(age);
            }
            OpClass::Store => unreachable!("stores complete exactly once (at agen)"),
            _ => {
                if op.class.is_branch() {
                    self.resolve_branch(age);
                }
                self.mark_done(age);
            }
        }
    }

    fn agen_complete(&mut self, age: Age, op: MicroOp) {
        if !self.lsq_admit(age, op) {
            self.lsq_retry.push_back(age);
        }
    }

    /// Offer a computed address to the LSQ. Returns false on
    /// [`PlaceOutcome::NoSpace`] (the op must retry).
    fn lsq_admit(&mut self, age: Age, op: MicroOp) -> bool {
        let is_store = op.class == OpClass::Store;
        let outcome = self.lsq.address_ready(age);
        if outcome == PlaceOutcome::NoSpace {
            return false;
        }
        if is_store {
            // readyBit (§3.1): the store's address is now known.
            self.unknown_store_addrs.remove(age);
            // The store's datum is produced with its address; it forwards
            // from the LSQ (once placed) and writes the cache at commit.
            self.lsq.store_executed(age);
        }
        let i = self.rob.index(age).expect("agen for a flushed op");
        self.rob.mem_phase[i] = MemPhase::InLsq;
        if is_store {
            if outcome == PlaceOutcome::Placed {
                // A store parked in the AddrBuffer is *not* complete: it
                // has not been disambiguated, so it must not commit until
                // promoted (the ROB-head deadlock check handles the stuck
                // case).
                self.rob.mem_phase[i] = MemPhase::Finished;
                self.mark_done(age);
            }
        } else {
            self.pending_loads.insert(age);
        }
        true
    }

    /// Retry addresses the LSQ refused, oldest-arrival first. Returns the
    /// number of retry-queue entries resolved (admitted or flushed).
    fn drain_lsq_retry(&mut self) -> u64 {
        let mut events = 0;
        while let Some(&age) = self.lsq_retry.front() {
            let Some(i) = self.rob.index(age) else {
                self.lsq_retry.pop_front(); // flushed meanwhile
                events += 1;
                continue;
            };
            let op = self.rob.op[i];
            if self.lsq_admit(age, op) {
                self.lsq_retry.pop_front();
                events += 1;
            } else {
                break;
            }
        }
        events
    }

    fn resolve_branch(&mut self, age: Age) {
        if self.fetch_blocked_on == Some(age) {
            self.fetch_blocked_on = None;
            self.fetch_resume_at = self.now + 1 + self.cfg.mispredict_redirect as u64;
        }
    }

    /// Mark `age` Done and wake its consumers.
    fn mark_done(&mut self, age: Age) {
        let i = self.rob.index(age).expect("waking a flushed op");
        self.rob.state[i] = ExecState::Done;
        let mut node = self.rob.take_waiters(i);
        while node != NIL {
            let c = node >> 1;
            // Consumers are younger than their producer and leave the
            // ring only in a whole-ring flush, so each is still live.
            let j = self.rob.index(c).expect("waking a flushed consumer");
            node = self.rob.next_waiter(node);
            debug_assert!(self.rob.waiting_on[j] > 0);
            self.rob.waiting_on[j] -= 1;
            let wake = self.rob.waiting_on[j] == 0 && self.rob.state[j] == ExecState::Waiting;
            if wake {
                let class = self.rob.op[j].class;
                self.push_ready(c, class);
            }
        }
    }

    fn push_ready(&mut self, age: Age, class: OpClass) {
        if class.is_fp() {
            self.ready_fp.insert(age);
        } else {
            self.ready_int.insert(age);
        }
    }

    // ---- stage 3: commit ----------------------------------------------

    fn commit_stage(&mut self) -> u64 {
        // §3.3 deadlock avoidance: a ROB head stuck in the AddrBuffer (or
        // refused by the LSQ entirely) can never be freed by in-order
        // commit — everything older is gone and younger ops hold the
        // entries — so flush and replay. The tick above already gave
        // promotion its chance this cycle.
        if let Some(head) = self.rob.head() {
            let head_age = self.rob.age0;
            if self.rob.op[head].class.is_mem() {
                if self.lsq.is_buffered(head_age) {
                    self.stats.deadlock_flushes += 1;
                    self.flush_pipeline();
                    return 1;
                }
                if self.lsq_retry.front() == Some(&head_age) || self.lsq_retry.contains(&head_age) {
                    self.stats.nospace_flushes += 1;
                    self.flush_pipeline();
                    return 1;
                }
            }
        }
        let mut events = 0;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.head() else {
                break;
            };
            if self.rob.state[head] != ExecState::Done {
                break;
            }
            let age = self.rob.age0;
            let op = self.rob.op[head];
            match op.class {
                OpClass::Store => {
                    // The cache write needs a port; without one, commit
                    // stalls this cycle.
                    if !self.fu.available(FuKind::MemPort, self.now) {
                        break;
                    }
                    self.fu.try_issue(OpClass::Store, self.now);
                    self.dcache_access(age, op, AccessKind::Write);
                    self.lsq.commit(age);
                    self.stats.stores += 1;
                }
                OpClass::Load => {
                    self.lsq.commit(age);
                    self.stats.loads += 1;
                }
                OpClass::CondBranch => self.stats.branches += 1,
                _ => {}
            }
            self.rob.pop_front();
            self.stats.committed += 1;
            self.last_commit_cycle = self.now;
            events += 1;
        }
        events
    }

    /// Access the D-cache for `age` using the LSQ's cached-location /
    /// cached-translation plan, wiring back presentBit maintenance.
    /// Returns the access latency.
    fn dcache_access(&mut self, age: Age, op: MicroOp, kind: AccessKind) -> u32 {
        let mref = op.mem().expect("cache access needs a mem op");
        let plan = self.lsq.cache_access_plan(age);
        let mode = match plan {
            CachePlan {
                location: Some((set, way)),
                ..
            } => DcacheAccessMode::way_known(set, way),
            CachePlan {
                location: None,
                translation: true,
            } => DcacheAccessMode::TRANSLATION_CACHED,
            CachePlan {
                location: None,
                translation: false,
            } => DcacheAccessMode::CONVENTIONAL,
        };
        let result = self.mem.access(mref.addr, kind, mode);
        if plan.location.is_none() {
            // Conventional access: the entry may cache the location (and
            // the line's presentBit is set so replacement notifies us).
            if self.lsq.note_cache_access(age, result.set, result.way) {
                self.mem.set_present_bit(result.set, result.way);
            }
        }
        if let Some(ev) = result.evicted {
            if ev.present_bit {
                self.lsq.on_line_replaced(ev.set, ev.way);
            }
        }
        result.latency
    }

    // ---- stage 4: memory issue ------------------------------------------

    fn memory_issue_stage(&mut self) -> u64 {
        let mut events = 0;
        // Oldest-first among disambiguation-ready loads (working copy: the
        // set is edited mid-walk).
        let mut candidates = std::mem::take(&mut self.scratch_ages);
        candidates.clear();
        candidates.extend_from_slice(self.pending_loads.as_slice());
        for &age in &candidates {
            let Some(i) = self.rob.index(age) else {
                self.pending_loads.remove(age);
                events += 1;
                continue;
            };
            // readyBit: every older store address must be known. The
            // candidates ascend and this stage learns no store address,
            // so once a load fails the test every younger one does too.
            if self.unknown_store_addrs.any_below(age) {
                break;
            }
            // A buffered load cannot be disambiguated yet (§3.1).
            if self.lsq.is_buffered(age) {
                continue;
            }
            match self.lsq.load_forward_status(age) {
                ForwardStatus::Wait => continue,
                ForwardStatus::Forward { store } => {
                    self.lsq.take_forward(age, store);
                    self.lsq.load_data_arrived(age);
                    self.stats.forwarded_loads += 1;
                    self.pending_loads.remove(age);
                    self.rob.mem_phase[i] = MemPhase::Finished;
                    self.rob.state[i] = ExecState::Executing;
                    self.completions.push(self.now, self.now + 1, age);
                    events += 1;
                }
                ForwardStatus::AccessCache => {
                    if !self.fu.available(FuKind::MemPort, self.now) {
                        break; // out of ports this cycle
                    }
                    self.fu.try_issue(OpClass::Load, self.now);
                    let op = self.rob.op[i];
                    let latency = self.dcache_access(age, op, AccessKind::Read);
                    self.lsq.load_data_arrived(age);
                    self.pending_loads.remove(age);
                    self.rob.mem_phase[i] = MemPhase::Finished;
                    self.rob.state[i] = ExecState::Executing;
                    self.completions
                        .push(self.now, self.now + latency.max(1) as u64, age);
                    events += 1;
                }
            }
        }
        self.scratch_ages = candidates;
        events
    }

    // ---- stage 5: issue --------------------------------------------------

    fn issue_stage(&mut self) -> u64 {
        self.issue_side(false) + self.issue_side(true)
    }

    fn issue_side(&mut self, fp: bool) -> u64 {
        let width = if fp {
            self.cfg.issue_width_fp
        } else {
            self.cfg.issue_width_int
        };
        let mut events = 0;
        // The set is walked and compacted in place: nothing inserts into a
        // ready set during issue, and an op leaves it when it issues.
        let mut ready = std::mem::take(if fp {
            &mut self.ready_fp
        } else {
            &mut self.ready_int
        });
        let mut issued = 0;
        // Unit pools only get busier within a cycle, so once a kind
        // rejects an op it rejects every younger one too — skip them
        // instead of re-scanning the scoreboard, and stop outright once
        // every kind this side issues to is exhausted.
        let mut exhausted_kinds = 0u8;
        let side_kinds = if fp {
            1u8 << FuKind::FpAlu as u8 | 1u8 << FuKind::FpMulDiv as u8
        } else {
            1u8 << FuKind::IntAlu as u8 | 1u8 << FuKind::IntMulDiv as u8
        };
        ready.retain_oldest_first(|age| {
            if issued == width {
                return None;
            }
            let Some(i) = self.rob.index(age) else {
                // Flushed while ready.
                events += 1;
                return Some(false);
            };
            let class = self.rob.op[i].class;
            // Memory ops run their address generation on an integer ALU.
            let agen_class = if class.is_mem() {
                OpClass::IntAlu
            } else {
                class
            };
            let kind_bit = 1u8 << trace_isa::latency::fu_kind(agen_class) as u8;
            if exhausted_kinds & kind_bit != 0 {
                return Some(true); // structural hazard; try a younger ready op
            }
            let Some(done) = self.fu.try_issue(agen_class, self.now) else {
                exhausted_kinds |= kind_bit;
                if exhausted_kinds & side_kinds == side_kinds {
                    return None;
                }
                return Some(true); // structural hazard; try a younger ready op
            };
            self.rob.state[i] = ExecState::Executing;
            if fp {
                self.iq_fp -= 1;
            } else {
                self.iq_int -= 1;
            }
            self.completions.push(self.now, done, age);
            issued += 1;
            events += 1;
            Some(false)
        });
        if fp {
            self.ready_fp = ready;
        } else {
            self.ready_int = ready;
        }
        events
    }

    // ---- stage 6: dispatch ----------------------------------------------

    fn dispatch_stage(&mut self) -> u64 {
        let mut events = 0;
        for _ in 0..self.cfg.dispatch_width {
            let Some((age, slot)) = self.rob.fetch_front() else {
                break;
            };
            let op = self.rob.op[slot];
            if self.rob.len() == self.cfg.rob_size {
                break;
            }
            let fp = op.class.is_fp();
            if fp && self.iq_fp == self.cfg.iq_fp {
                break;
            }
            if !fp && self.iq_int == self.cfg.iq_int {
                break;
            }
            if op.class.is_mem() && !self.lsq.can_dispatch(op.class.is_store()) {
                break;
            }

            // Resolve producers and register for wake-up.
            let mut waiting = 0u8;
            for (operand, d) in op.deps.into_iter().enumerate() {
                if d == 0 || d as u64 > age {
                    continue;
                }
                let producer = age - d as u64;
                if let Some(j) = self.rob.index(producer) {
                    if self.rob.state[j] != ExecState::Done {
                        self.rob.add_waiter(j, age, operand);
                        waiting += 1;
                    }
                }
                // Producer already retired → operand ready.
            }

            if op.class.is_mem() {
                let mref = op.mem().expect("well-formed mem op");
                let mop = if op.class == OpClass::Store {
                    self.unknown_store_addrs.insert(age);
                    MemOp::store(age, mref)
                } else {
                    MemOp::load(age, mref)
                };
                self.lsq.dispatch(mop);
            }

            if fp {
                self.iq_fp += 1;
            } else {
                self.iq_int += 1;
            }
            self.rob.dispatch(waiting);
            if waiting == 0 {
                self.push_ready(age, op.class);
            }
            events += 1;
        }
        events
    }

    // ---- stage 7: fetch ---------------------------------------------------

    fn fetch_stage(&mut self) -> u64 {
        if self.fetch_blocked_on.is_some() || self.now < self.fetch_resume_at {
            self.stats.fetch_blocked_cycles += 1;
            return 0;
        }
        let mut events = 0;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.fetched() == self.cfg.fetch_queue {
                break;
            }
            let op = match self.replay.pop_front() {
                Some(op) => op,
                None => match self.trace_buf.pop_front() {
                    Some(op) => op,
                    None => {
                        self.trace.next_batch(&mut self.trace_buf, TRACE_BATCH);
                        self.trace_ops += self.trace_buf.len() as u64;
                        self.trace_buf
                            .pop_front()
                            .expect("trace sources are infinite")
                    }
                },
            };
            // I-cache: charged once per new line.
            let line = op.pc & !(self.cfg.l1i.line_bytes as u64 - 1);
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                let out = self.icache.access(op.pc, AccessKind::Read);
                if !out.hit {
                    // Refill from L2; fetch resumes afterwards.
                    self.fetch_resume_at = self.now + self.cfg.mem.l2.hit_latency as u64;
                }
            }
            let age = self.next_age;
            self.next_age += 1;
            self.rob.push_fetched(age, op);
            events += 1;

            if let Some(info) = op.branch_info() {
                let (predicted_taken, predicted_target) = match op.class {
                    OpClass::CondBranch => {
                        let dir = self.predictor.predict(op.pc);
                        self.predictor.update(op.pc, info.taken);
                        (dir, self.btb.lookup(op.pc))
                    }
                    _ => (true, self.btb.lookup(op.pc)),
                };
                if info.taken {
                    self.btb.update(op.pc, info.target);
                }
                let target_ok =
                    !info.taken || (predicted_taken && predicted_target == Some(info.target));
                let correct = predicted_taken == info.taken && target_ok;
                if !correct {
                    self.stats.mispredicts += 1;
                    self.fetch_blocked_on = Some(age);
                    break;
                }
                if info.taken {
                    // Correctly predicted taken branches end the fetch group.
                    break;
                }
            }
            if self.now < self.fetch_resume_at {
                break; // I-miss stall takes effect after this op
            }
        }
        events
    }

    // ---- flush -------------------------------------------------------------

    /// Whole-pipeline flush (§3.3): every uncommitted op is replayed.
    fn flush_pipeline(&mut self) {
        let mut replay: VecDeque<MicroOp> = self.rob.ops().collect();
        replay.append(&mut self.replay);
        self.replay = replay;

        self.rob.clear();
        self.ready_int.clear();
        self.ready_fp.clear();
        self.pending_loads.clear();
        self.unknown_store_addrs.clear();
        self.lsq_retry.clear();
        self.completions.clear();
        self.iq_int = 0;
        self.iq_fp = 0;
        self.fetch_blocked_on = None;
        self.fetch_resume_at = self.now + 1 + self.cfg.mispredict_redirect as u64;
        self.lsq.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Deterministic splitmix64 (the same stand-in for a property-test
    /// RNG as `samie_lsq::agering`'s tests).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The wheel against the `BinaryHeap` it replaced, on horizons below,
    /// at and above one bitmap word: random pushes (several ages often
    /// share a cycle), per-cycle drains in `(cycle, age)` order, the
    /// `earliest` answer before every step, jumps of the clock as
    /// `skip_ahead` makes them, and occasional clears.
    #[test]
    fn wheel_matches_a_binary_heap() {
        for horizon in [16usize, 64, 256] {
            let mut wheel = CompletionWheel::new(horizon);
            let mut heap: BinaryHeap<Reverse<(u64, Age)>> = BinaryHeap::new();
            let mut rng = 0xc0ffee ^ horizon as u64;
            let (mut now, mut next_age) = (0u64, 1u64);
            let mut due = Vec::new();
            for step in 0..(1u64 << 16) {
                assert_eq!(
                    wheel.earliest(now),
                    heap.peek().map(|r| r.0 .0),
                    "horizon {horizon} step {step} now {now}"
                );
                due.clear();
                while heap.peek().is_some_and(|r| r.0 .0 == now) {
                    due.push(heap.pop().unwrap().0 .1);
                }
                let mut drained = Vec::new();
                wheel.drain_due(now, &mut drained);
                assert_eq!(drained, due, "horizon {horizon} step {step} now {now}");

                let roll = splitmix(&mut rng);
                for k in 0..roll % 4 {
                    // Ages complete out of age order, like the pipeline's.
                    let age = next_age + (roll >> (8 + k)) % 8;
                    let latency = 1 + (roll >> (16 + 8 * k)) % (horizon as u64 - 1);
                    wheel.push(now, now + latency, age);
                    heap.push(Reverse((now + latency, age)));
                }
                next_age += 8;
                if roll.is_multiple_of(1024) {
                    wheel.clear();
                    heap.clear();
                    assert_eq!(wheel.earliest(now), None);
                    assert!(wheel.occupied.iter().all(|&w| w == 0));
                    assert!(wheel.buckets.iter().all(Vec::is_empty));
                }
                // Step one cycle, or jump to the next completion.
                now = match heap.peek() {
                    Some(r) if roll.is_multiple_of(3) => r.0 .0,
                    _ => now + 1,
                };
            }
            assert!(now > 64 * horizon as u64, "the clock must lap the wheel");
        }
    }

    /// The age-indexed ring through many power-of-two wraps: a sliding
    /// window of dense dispatched ages against a reference deque, with
    /// flushes mid-window. `index` must answer `None` outside
    /// `[age0, age0 + len)` and after `clear`, even where the slot is
    /// recycled.
    #[test]
    fn rob_ring_indexes_exactly_the_live_window() {
        let cap = 12; // 16 slots
        let mut rob = Rob::with_capacity(cap);
        let mut model: VecDeque<(Age, u64)> = VecDeque::new();
        let mut rng = 0x5eed_u64;
        let mut next_age = 1u64;
        let (mut flushes, mut last_age0) = (0, 0);
        for step in 0..(1u64 << 16) {
            let roll = splitmix(&mut rng);
            if roll.is_multiple_of(512) {
                rob.clear();
                for &(age, _) in &model {
                    assert_eq!(rob.index(age), None, "step {step}: flushed age {age}");
                }
                model.clear();
                flushes += 1;
                // Flushed ages are never re-used.
                next_age += 1 + roll % 5;
            } else if roll.is_multiple_of(3) && !model.is_empty() {
                rob.pop_front();
                model.pop_front();
            } else if model.len() < cap {
                rob.push_fetched(next_age, MicroOp::alu(roll, [0, 0]));
                rob.dispatch(0);
                model.push_back((next_age, roll));
                next_age += 1;
            }
            assert_eq!(rob.len(), model.len());
            if let Some(&(age0, pc)) = model.front() {
                assert_eq!(rob.age0, age0);
                assert_eq!(rob.op[rob.head().unwrap()].pc, pc);
                last_age0 = age0;
            } else {
                assert_eq!(rob.head(), None);
            }
            assert!(rob
                .ops()
                .map(|op| op.pc)
                .eq(model.iter().map(|&(_, pc)| pc)));
            for probe in last_age0.saturating_sub(20)..next_age + 20 {
                let live = model.iter().position(|&(a, _)| a == probe);
                match (rob.index(probe), live) {
                    (None, None) => {}
                    (Some(slot), Some(k)) => {
                        assert_eq!(slot as u64, probe & 15);
                        assert_eq!(rob.op[slot].pc, model[k].1, "step {step} age {probe}");
                    }
                    (got, want) => panic!("step {step} age {probe}: {got:?} vs {want:?}"),
                }
            }
        }
        assert!(
            flushes > 16 && next_age > 16 * 1024,
            "must flush and wrap many times"
        );
    }

    /// Fetched ops share the ring with the reorder buffer: fetch pushes,
    /// dispatches, commits and flushes interleaved across many wraps,
    /// against two reference deques (reorder buffer, fetched ops). Only
    /// dispatched ops are `index`ed, `fetch_front` is the oldest fetched
    /// op, and a flush replays the reorder buffer then the fetched ops.
    /// One geometry fills its slots exactly (12 + 4 = 16), one does not.
    #[test]
    fn rob_ring_holds_fetched_ops_behind_the_rob() {
        for (rob_cap, fq_cap) in [(12usize, 4usize), (9, 6)] {
            let mut rob = Rob::with_capacity(rob_cap + fq_cap);
            let slots = (rob_cap + fq_cap).next_power_of_two() as u64;
            let mut dispatched: VecDeque<(Age, u64)> = VecDeque::new();
            let mut fetched: VecDeque<(Age, u64)> = VecDeque::new();
            let mut rng = 0xfe7c_u64 ^ rob_cap as u64;
            let (mut next_age, mut flushes, mut full) = (1u64, 0, 0);
            for step in 0..(1u64 << 16) {
                let roll = splitmix(&mut rng);
                match roll % 7 {
                    _ if roll.is_multiple_of(401) => {
                        let replay: Vec<u64> = rob.ops().map(|op| op.pc).collect();
                        let want: Vec<u64> = dispatched
                            .iter()
                            .chain(&fetched)
                            .map(|&(_, pc)| pc)
                            .collect();
                        assert_eq!(replay, want, "step {step}: replay order");
                        rob.clear();
                        for &(age, _) in dispatched.iter().chain(&fetched) {
                            assert_eq!(rob.index(age), None, "step {step}: flushed age {age}");
                        }
                        dispatched.clear();
                        fetched.clear();
                        flushes += 1;
                        next_age += 1 + roll % 5;
                    }
                    0..=2 if fetched.len() < fq_cap => {
                        rob.push_fetched(next_age, MicroOp::alu(roll, [0, 0]));
                        fetched.push_back((next_age, roll));
                        next_age += 1;
                    }
                    3 | 4 if !fetched.is_empty() && dispatched.len() < rob_cap => {
                        rob.dispatch(0);
                        dispatched.push_back(fetched.pop_front().unwrap());
                    }
                    5 | 6 if !dispatched.is_empty() => {
                        rob.pop_front();
                        dispatched.pop_front();
                    }
                    _ => {}
                }
                if dispatched.len() + fetched.len() == slots as usize {
                    full += 1;
                }
                assert_eq!(
                    (rob.len(), rob.fetched()),
                    (dispatched.len(), fetched.len())
                );
                match (rob.fetch_front(), fetched.front()) {
                    (None, None) => {}
                    (Some((age, slot)), Some(&(want, pc))) => {
                        assert_eq!(age, want, "step {step}");
                        assert_eq!(slot as u64, want & (slots - 1));
                        assert_eq!(rob.op[slot].pc, pc, "step {step}");
                    }
                    (got, want) => panic!("step {step}: fetch front {got:?} vs {want:?}"),
                }
                assert!(rob
                    .ops()
                    .map(|op| op.pc)
                    .eq(dispatched.iter().chain(&fetched).map(|&(_, pc)| pc)));
                let lo = dispatched
                    .front()
                    .or(fetched.front())
                    .map_or(next_age, |&(a, _)| a);
                for probe in lo.saturating_sub(8)..next_age + 8 {
                    let live = dispatched.iter().find(|&&(a, _)| a == probe);
                    match (rob.index(probe), live) {
                        (None, None) => {}
                        (Some(slot), Some(&(_, pc))) => {
                            assert_eq!(slot as u64, probe & (slots - 1));
                            assert_eq!(rob.op[slot].pc, pc, "step {step} age {probe}");
                        }
                        (got, want) => panic!("step {step} age {probe}: {got:?} vs {want:?}"),
                    }
                }
            }
            assert!(
                flushes > 16 && next_age > 16 * 1024,
                "must flush and wrap many times"
            );
            if rob_cap + fq_cap == slots as usize {
                assert!(full > 0, "the exact geometry must fill every slot");
            }
        }
    }

    /// Walk and detach the wake-up list of `slot` as `mark_done` does,
    /// returning the consumer ages in wake order (once per node).
    fn wake_order(rob: &mut Rob, slot: usize) -> Vec<Age> {
        let mut woken = Vec::new();
        let mut node = rob.take_waiters(slot);
        while node != NIL {
            woken.push(node >> 1);
            node = rob.next_waiter(node);
        }
        woken
    }

    /// The intrusive wake-up lists against a `Vec<Vec<Age>>` reference
    /// (one consumer vector per producer, as the pipeline kept before):
    /// random dependencies on live producers, including both operands
    /// naming one producer, random completions in any order, in-order
    /// commit of finished ops and whole-ring flushes. Every completion
    /// must wake the same consumers, each once per registered operand,
    /// in the same order.
    #[test]
    fn wake_lists_match_a_vec_of_vecs() {
        let cap = 24; // 32 slots
        let mut rob = Rob::with_capacity(cap);
        // Per live op, oldest first: (age, done, registered consumers).
        let mut model: VecDeque<(Age, bool, Vec<Age>)> = VecDeque::new();
        let mut rng = 0x3a4e_u64;
        let mut next_age = 1u64;
        let (mut flushes, mut doubles, mut wakes) = (0, 0, 0u64);
        for step in 0..(1u64 << 15) {
            let roll = splitmix(&mut rng);
            if roll.is_multiple_of(997) {
                rob.clear();
                model.clear();
                flushes += 1;
                next_age += 1 + roll % 3;
            } else if roll.is_multiple_of(3) && !model.is_empty() {
                // Complete a random unfinished op.
                let k = (roll >> 8) as usize % model.len();
                if !model[k].1 {
                    let (age, _, want) = std::mem::replace(&mut model[k], (0, true, Vec::new()));
                    model[k].0 = age;
                    let slot = rob.index(age).unwrap();
                    rob.state[slot] = ExecState::Done;
                    assert_eq!(wake_order(&mut rob, slot), want, "step {step}: age {age}");
                    wakes += want.len() as u64;
                }
            } else if roll % 3 == 1 && model.front().is_some_and(|m| m.1) {
                rob.pop_front();
                model.pop_front();
            } else if model.len() < cap {
                // Each operand names a live producer, an absent one or
                // none; both may name the same producer.
                let age = next_age;
                next_age += 1;
                rob.push_fetched(age, MicroOp::alu(roll, [0, 0]));
                let first = (roll >> 16) % 6;
                let second = if roll & (1 << 40) != 0 {
                    first
                } else {
                    (roll >> 24) % 6
                };
                let mut waiting = 0;
                for (operand, d) in [first, second].into_iter().enumerate() {
                    let producer = age.wrapping_sub(d);
                    let Some(m) = model.iter_mut().find(|m| m.0 == producer && d != 0) else {
                        continue;
                    };
                    let j = rob.index(producer).unwrap();
                    if !m.1 {
                        rob.add_waiter(j, age, operand);
                        m.2.push(age);
                        waiting += 1;
                    }
                }
                if waiting == 2 && first == second {
                    doubles += 1;
                }
                rob.dispatch(waiting);
                model.push_back((age, false, Vec::new()));
            }
        }
        assert!(
            flushes > 16 && next_age > 32 * 64,
            "must flush and wrap many times"
        );
        assert!(
            doubles > 100 && wakes > 1000,
            "duplicates {doubles}, wakes {wakes}"
        );
    }
}
