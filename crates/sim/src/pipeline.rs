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
//! 6. **dispatch** — fetch queue → ROB (+ LSQ dispatch for memory ops).
//! 7. **fetch** — trace/replay → fetch queue, guided by the branch
//!    predictor, BTB and L1 I-cache; a mispredicted branch blocks fetch
//!    until it resolves plus a redirect penalty.
//!
//! ## Hot-loop layout and event-driven cycle skipping
//!
//! In-flight ops live in a struct-of-arrays reorder buffer (`Rob`):
//! the per-op record is split into parallel arrays indexed by the dense
//! slot id `age - front_age` (ages are assigned sequentially at fetch and
//! flushes clear the whole window, so the ROB is a dense age-indexed
//! window). The commit scan touches only the `state` array, the wake-up
//! walk only `waiting_on`/`state`, instead of dragging whole entries
//! through the cache.
//!
//! Every stage reports how many units of work it performed. A cycle with
//! zero events across all stages cannot unblock itself: every gate is a
//! pure function of the (unchanged) pipeline state and the clock, and the
//! clock only matters through three kinds of timer — scheduled
//! completions, the fetch resume cycle, and functional-unit releases. So
//! when a cycle performs no events (and no refused address is waiting in
//! the LSQ retry queue, whose re-admission attempts charge LSQ activity),
//! the simulator jumps straight to the earliest such timer, bulk-charging
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
//! uncommitted ops are pushed into a replay buffer and re-fetched with
//! fresh ages, which preserves dependency distances (they are relative to
//! dynamic program order).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mem_hier::{AccessKind, Cache, DataMemory, DcacheAccessMode};
use samie_lsq::{Age, CachePlan, ForwardStatus, LoadStoreQueue, MemOp, PlaceOutcome};
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

/// Struct-of-arrays reorder buffer. One logical entry per in-flight op,
/// split into parallel arrays indexed by the dense slot id
/// `age - age0`: ages are assigned sequentially at fetch, dispatch pushes
/// them in order, and the only squashes are whole-window flushes, so the
/// ROB is always a contiguous age range.
#[derive(Debug)]
struct Rob {
    /// Age of the front entry (meaningful only while non-empty).
    age0: Age,
    op: VecDeque<MicroOp>,
    state: VecDeque<ExecState>,
    mem_phase: VecDeque<MemPhase>,
    /// Producers still outstanding (0 → ready to issue).
    waiting_on: VecDeque<u8>,
    /// Ages of dependents registered for wake-up.
    consumers: VecDeque<Vec<Age>>,
}

impl Rob {
    fn with_capacity(cap: usize) -> Self {
        Rob {
            age0: 0,
            op: VecDeque::with_capacity(cap),
            state: VecDeque::with_capacity(cap),
            mem_phase: VecDeque::with_capacity(cap),
            waiting_on: VecDeque::with_capacity(cap),
            consumers: VecDeque::with_capacity(cap),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.op.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.op.is_empty()
    }

    /// Slot id of `age`, or `None` if the op is not in the window (it
    /// committed or was flushed — flushed ages are never re-used, so any
    /// stale age falls below `age0`).
    #[inline]
    fn index(&self, age: Age) -> Option<usize> {
        if self.op.is_empty() || age < self.age0 {
            return None;
        }
        let i = (age - self.age0) as usize;
        debug_assert!(i < self.op.len(), "age {age} beyond the ROB window");
        Some(i)
    }

    fn push_back(&mut self, age: Age, op: MicroOp, waiting: u8, consumers: Vec<Age>) {
        if self.op.is_empty() {
            self.age0 = age;
        }
        debug_assert_eq!(
            self.age0 + self.op.len() as u64,
            age,
            "ROB ages must be dense"
        );
        self.op.push_back(op);
        self.state.push_back(ExecState::Waiting);
        self.mem_phase.push_back(MemPhase::PreAgen);
        self.waiting_on.push_back(waiting);
        self.consumers.push_back(consumers);
    }

    /// Pop the front entry, returning its consumer list for recycling.
    fn pop_front(&mut self) -> Vec<Age> {
        self.age0 += 1;
        self.op.pop_front();
        self.state.pop_front();
        self.mem_phase.pop_front();
        self.waiting_on.pop_front();
        self.consumers.pop_front().expect("pop from an empty ROB")
    }

    /// Drop every entry, recycling consumer lists into `pool`.
    fn clear_into(&mut self, pool: &mut Vec<Vec<Age>>) {
        self.op.clear();
        self.state.clear();
        self.mem_phase.clear();
        self.waiting_on.clear();
        for mut consumers in self.consumers.drain(..) {
            consumers.clear();
            pool.push(consumers);
        }
    }

    /// Front-entry summary for the watchdog panic message.
    fn front_debug(&self) -> Option<(Age, OpClass, ExecState, MemPhase)> {
        if self.is_empty() {
            None
        } else {
            Some((
                self.age0,
                self.op[0].class,
                self.state[0],
                self.mem_phase[0],
            ))
        }
    }
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

    fetch_queue: VecDeque<(Age, MicroOp)>,
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

    completions: BinaryHeap<Reverse<(u64, Age)>>,

    stats: SimStats,
    last_commit_cycle: u64,
    /// Event-driven cycle skipping (on by default). Not part of
    /// [`SimConfig`]: it cannot change any statistic, only wall time.
    skip_enabled: bool,
    /// Cycles jumped over by skipping (already included in
    /// `stats.cycles`; kept separately for diagnostics/profiling).
    skipped_cycles: u64,
    scratch_promoted: Vec<Age>,
    /// Per-cycle working copy of a ready set / the pending loads (reused
    /// so the stages allocate nothing in steady state).
    scratch_ages: Vec<Age>,
    /// Recycled consumer lists (capacity survives an op's retirement, so
    /// wake-up registration stops allocating once the pool is warm).
    consumer_pool: Vec<Vec<Age>>,
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
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            trace_buf: VecDeque::with_capacity(TRACE_BATCH),
            replay: VecDeque::new(),
            fetch_blocked_on: None,
            fetch_resume_at: 0,
            last_fetch_line: u64::MAX,
            rob: Rob::with_capacity(cfg.rob_size),
            iq_int: 0,
            iq_fp: 0,
            ready_int: AgeSet::new(),
            ready_fp: AgeSet::new(),
            pending_loads: AgeSet::new(),
            unknown_store_addrs: AgeSet::new(),
            lsq_retry: VecDeque::new(),
            completions: BinaryHeap::new(),
            stats: SimStats::default(),
            last_commit_cycle: 0,
            skip_enabled: true,
            skipped_cycles: 0,
            scratch_promoted: Vec::new(),
            scratch_ages: Vec::new(),
            consumer_pool: Vec::new(),
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

    /// Mutable access to the LSQ (experiment-specific statistics).
    pub fn lsq_mut(&mut self) -> &mut L {
        &mut self.lsq
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

    /// Is event-driven cycle skipping enabled?
    pub fn cycle_skipping(&self) -> bool {
        self.skip_enabled
    }

    /// Cycles jumped over by event-driven skipping so far (a subset of
    /// `stats.cycles`, which counts them as simulated).
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
        self.last_commit_cycle = self.now;
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        self.step_with(&mut NoProbe);
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
        if let Some(&Reverse((cycle, _))) = self.completions.peek() {
            wake = wake.min(cycle);
        }
        // ...fetch resuming after a redirect/I-miss penalty (irrelevant
        // while fetch waits on a branch: resolution is a completion)...
        if self.fetch_blocked_on.is_none() {
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
        let mut events = 0;
        while let Some(&Reverse((cycle, age))) = self.completions.peek() {
            if cycle > self.now {
                break;
            }
            self.completions.pop();
            events += 1;
            // The op may have been flushed since scheduling.
            if self.rob.index(age).is_none() {
                continue;
            }
            self.finish_execution(age);
        }
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
        let mut consumers = std::mem::take(&mut self.rob.consumers[i]);
        for &c in &consumers {
            if let Some(j) = self.rob.index(c) {
                debug_assert!(self.rob.waiting_on[j] > 0);
                self.rob.waiting_on[j] -= 1;
                let wake = self.rob.waiting_on[j] == 0 && self.rob.state[j] == ExecState::Waiting;
                if wake {
                    let class = self.rob.op[j].class;
                    self.push_ready(c, class);
                }
            }
        }
        consumers.clear();
        self.consumer_pool.push(consumers);
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
        if !self.rob.is_empty() {
            let head_age = self.rob.age0;
            if self.rob.op[0].class.is_mem() {
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
            if self.rob.is_empty() || self.rob.state[0] != ExecState::Done {
                break;
            }
            let age = self.rob.age0;
            let op = self.rob.op[0];
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
            let consumers = self.rob.pop_front();
            if consumers.capacity() > 0 {
                self.consumer_pool.push(consumers);
            }
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
            // A buffered load cannot be disambiguated yet (§3.1).
            if self.lsq.is_buffered(age) {
                continue;
            }
            // readyBit: every older store address must be known.
            if self.unknown_store_addrs.any_below(age) {
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
                    self.completions.push(Reverse((self.now + 1, age)));
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
                        .push(Reverse((self.now + latency.max(1) as u64, age)));
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
        // Working copy: the ready set is edited as ops issue.
        let mut ready = std::mem::take(&mut self.scratch_ages);
        ready.clear();
        ready.extend_from_slice(if fp {
            self.ready_fp.as_slice()
        } else {
            self.ready_int.as_slice()
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
        for &age in &ready {
            if issued == width {
                break;
            }
            let Some(i) = self.rob.index(age) else {
                // Flushed while ready.
                if fp {
                    self.ready_fp.remove(age);
                } else {
                    self.ready_int.remove(age);
                }
                events += 1;
                continue;
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
                continue; // structural hazard; try a younger ready op
            }
            let Some(done) = self.fu.try_issue(agen_class, self.now) else {
                exhausted_kinds |= kind_bit;
                if exhausted_kinds & side_kinds == side_kinds {
                    break;
                }
                continue; // structural hazard; try a younger ready op
            };
            self.rob.state[i] = ExecState::Executing;
            if class.is_fp() {
                self.iq_fp -= 1;
                self.ready_fp.remove(age);
            } else {
                self.iq_int -= 1;
                self.ready_int.remove(age);
            }
            self.completions.push(Reverse((done, age)));
            issued += 1;
            events += 1;
        }
        self.scratch_ages = ready;
        events
    }

    // ---- stage 6: dispatch ----------------------------------------------

    fn dispatch_stage(&mut self) -> u64 {
        let mut events = 0;
        for _ in 0..self.cfg.dispatch_width {
            let Some(&(age, op)) = self.fetch_queue.front() else {
                break;
            };
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
            self.fetch_queue.pop_front();

            // Resolve producers and register for wake-up.
            let mut waiting = 0u8;
            for d in op.deps {
                if d == 0 || d as u64 > age {
                    continue;
                }
                let producer = age - d as u64;
                if let Some(j) = self.rob.index(producer) {
                    if self.rob.state[j] != ExecState::Done {
                        self.rob.consumers[j].push(age);
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
            self.rob.push_back(
                age,
                op,
                waiting,
                self.consumer_pool.pop().unwrap_or_default(),
            );
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
            if self.fetch_queue.len() == self.cfg.fetch_queue {
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
            self.fetch_queue.push_back((age, op));
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
        let mut replay: VecDeque<MicroOp> = self.rob.op.iter().copied().collect();
        replay.extend(self.fetch_queue.iter().map(|&(_, op)| op));
        replay.append(&mut self.replay);
        self.replay = replay;

        self.rob.clear_into(&mut self.consumer_pool);
        self.fetch_queue.clear();
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
