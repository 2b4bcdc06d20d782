//! Sampled layer tracing around the simulator's public seams.
//!
//! [`TracedLsq`] wraps the `LoadStoreQueue` that `DesignSpec::build`
//! returns, [`TracedTrace`] wraps the `TraceSource` from
//! `Workload::build_trace`, and [`SamplingProbe`] is the `PipelineProbe`
//! passed to `Simulator::run_with`. All three only forward calls and read
//! the clock, so the simulated statistics are bit-identical to an
//! unwrapped run (asserted by this crate's tests and by every traced run,
//! whose points are checked against the same expected digests).
//!
//! The clock is read only in sampled cycles: about one stepped cycle in
//! [`SAMPLE_PERIOD`], chosen by a pseudo-random sequence so a loop in the
//! workload cannot alias with the sampling. Every call is still counted
//! exactly. The cost of one clock read pair is measured by
//! [`empty_interval_ns`] and subtracted from each timed interval and,
//! for nested calls, from the enclosing stage.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use ooo_sim::{PipelineProbe, Stage};
use samie_lsq::{
    Age, CachePlan, ForwardStatus, LoadStoreQueue, LsqActivity, LsqOccupancy, MemOp, PlaceOutcome,
};
use trace_isa::{MicroOp, OpClass, TraceSource};

/// Mean stepped cycles between sampled cycles.
pub const SAMPLE_PERIOD: u64 = 16;

/// Memory references kept per traced point for the `mem-hier` replay.
const STREAM_CAP: usize = 50_000;

/// Nanoseconds between two back-to-back clock reads: the clock cost
/// included in every timed interval (median of blocks of reads).
pub fn empty_interval_ns() -> f64 {
    let mut per_block: Vec<f64> = (0..64)
        .map(|_| {
            let n = 2_000u64;
            let mut total = 0u128;
            for _ in 0..n {
                let t0 = Instant::now();
                let t1 = black_box(Instant::now());
                total += (t1 - t0).as_nanos();
            }
            total as f64 / n as f64
        })
        .collect();
    per_block.sort_by(f64::total_cmp);
    per_block[per_block.len() / 2]
}

/// State shared by the probe and the two wrappers of one simulator.
#[derive(Debug, Default)]
pub struct Shared {
    /// Inside a stage of a sampled cycle: wrapped calls are timed.
    timing: Cell<bool>,
    /// Timed LSQ nanoseconds / calls inside the current stage.
    lsq_ns: Cell<u64>,
    lsq_n: Cell<u64>,
    /// Timed trace-source nanoseconds / calls inside the current stage.
    trace_ns_in_stage: Cell<u64>,
    trace_n_in_stage: Cell<u64>,
    /// Trace-source totals: calls, ops delivered, nanoseconds (every
    /// call is timed; one call delivers a whole fetch batch).
    pub trace_calls: Cell<u64>,
    pub trace_ops: Cell<u64>,
    pub trace_ns: Cell<u64>,
    /// Memory references seen in the trace, `(address, is_store)`.
    pub mem_stream: RefCell<Vec<(u64, bool)>>,
}

impl Shared {
    /// Forget the trace totals (end of warm-up); the stream is kept.
    pub fn reset_counts(&self) {
        self.trace_calls.set(0);
        self.trace_ops.set(0);
        self.trace_ns.set(0);
    }
}

/// The LSQ methods the pipeline calls, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    CanDispatch,
    Dispatch,
    AddressReady,
    StoreExecuted,
    LoadForwardStatus,
    TakeForward,
    CacheAccessPlan,
    NoteCacheAccess,
    LoadDataArrived,
    OnLineReplaced,
    Commit,
    SquashYounger,
    FlushAll,
    IsBuffered,
    Tick,
    TickIdle,
}

impl Method {
    /// Number of methods.
    pub const COUNT: usize = 16;

    /// Is each call timed in sampled cycles? `can_dispatch` and
    /// `is_buffered` are pure queries made up to ~70 times a cycle, for
    /// which a clock read pair would cost more than the call: they are
    /// only counted, and their time stays in the calling stage.
    pub fn timed(self) -> bool {
        !matches!(self, Method::CanDispatch | Method::IsBuffered)
    }

    /// Stable snake-case name (the trait method's name).
    pub fn name(self) -> &'static str {
        match self {
            Method::CanDispatch => "can_dispatch",
            Method::Dispatch => "dispatch",
            Method::AddressReady => "address_ready",
            Method::StoreExecuted => "store_executed",
            Method::LoadForwardStatus => "load_forward_status",
            Method::TakeForward => "take_forward",
            Method::CacheAccessPlan => "cache_access_plan",
            Method::NoteCacheAccess => "note_cache_access",
            Method::LoadDataArrived => "load_data_arrived",
            Method::OnLineReplaced => "on_line_replaced",
            Method::Commit => "commit",
            Method::SquashYounger => "squash_younger",
            Method::FlushAll => "flush_all",
            Method::IsBuffered => "is_buffered",
            Method::Tick => "tick",
            Method::TickIdle => "tick_idle",
        }
    }
}

/// Calls to one method: all counted, some timed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStat {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Nanoseconds over the timed calls, clock cost included.
    pub ns: u64,
}

impl MethodStat {
    /// Add another tally.
    pub fn add(&mut self, o: &MethodStat) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.ns += o.ns;
    }
}

/// `LoadStoreQueue` wrapper that counts and (in sampled stages) times
/// every call, then forwards it unchanged.
pub struct TracedLsq {
    inner: Box<dyn LoadStoreQueue>,
    meter: Meter,
}

/// The counting half of a [`TracedLsq`], a field apart from `inner` so a
/// call can borrow both at once.
struct Meter {
    shared: Rc<Shared>,
    stats: [Cell<MethodStat>; Method::COUNT],
}

impl Meter {
    #[inline]
    fn timed<R>(&self, m: Method, call: impl FnOnce() -> R) -> R {
        let cell = &self.stats[m as usize];
        let mut st = cell.get();
        st.calls += 1;
        let timing = self.shared.timing.get() && m.timed();
        // Deadlock flushes are rare and expensive: always timed.
        let result = if timing || m == Method::FlushAll {
            let t0 = Instant::now();
            let r = call();
            let ns = t0.elapsed().as_nanos() as u64;
            st.timed += 1;
            st.ns += ns;
            if timing {
                self.shared.lsq_ns.set(self.shared.lsq_ns.get() + ns);
                self.shared.lsq_n.set(self.shared.lsq_n.get() + 1);
            }
            r
        } else {
            call()
        };
        cell.set(st);
        result
    }
}

impl TracedLsq {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn LoadStoreQueue>, shared: Rc<Shared>) -> Self {
        TracedLsq {
            inner,
            meter: Meter {
                shared,
                stats: Default::default(),
            },
        }
    }

    /// Per-method tallies, indexed by `Method as usize`.
    pub fn method_stats(&self) -> [MethodStat; Method::COUNT] {
        std::array::from_fn(|i| self.meter.stats[i].get())
    }

    /// Forget the tallies (end of warm-up).
    pub fn reset_counts(&self) {
        for s in &self.meter.stats {
            s.set(MethodStat::default());
        }
    }
}

impl LoadStoreQueue for TracedLsq {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn can_dispatch(&self, is_store: bool) -> bool {
        self.meter
            .timed(Method::CanDispatch, || self.inner.can_dispatch(is_store))
    }

    fn dispatch(&mut self, op: MemOp) {
        self.meter
            .timed(Method::Dispatch, || self.inner.dispatch(op))
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        self.meter
            .timed(Method::AddressReady, || self.inner.address_ready(age))
    }

    fn store_executed(&mut self, age: Age) {
        self.meter
            .timed(Method::StoreExecuted, || self.inner.store_executed(age))
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        self.meter.timed(Method::LoadForwardStatus, || {
            self.inner.load_forward_status(age)
        })
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        self.meter
            .timed(Method::TakeForward, || self.inner.take_forward(load, store))
    }

    fn cache_access_plan(&mut self, age: Age) -> CachePlan {
        self.meter.timed(Method::CacheAccessPlan, || {
            self.inner.cache_access_plan(age)
        })
    }

    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool {
        self.meter.timed(Method::NoteCacheAccess, || {
            self.inner.note_cache_access(age, set, way)
        })
    }

    fn load_data_arrived(&mut self, age: Age) {
        self.meter.timed(Method::LoadDataArrived, || {
            self.inner.load_data_arrived(age)
        })
    }

    fn on_line_replaced(&mut self, set: u32, way: u32) {
        self.meter.timed(Method::OnLineReplaced, || {
            self.inner.on_line_replaced(set, way)
        })
    }

    fn commit(&mut self, age: Age) {
        self.meter.timed(Method::Commit, || self.inner.commit(age))
    }

    fn squash_younger(&mut self, age: Age) {
        self.meter
            .timed(Method::SquashYounger, || self.inner.squash_younger(age))
    }

    fn flush_all(&mut self) {
        self.meter
            .timed(Method::FlushAll, || self.inner.flush_all())
    }

    fn is_buffered(&self, age: Age) -> bool {
        self.meter
            .timed(Method::IsBuffered, || self.inner.is_buffered(age))
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        self.meter.timed(Method::Tick, || self.inner.tick(promoted))
    }

    fn tick_idle(&mut self, k: u64) {
        self.meter
            .timed(Method::TickIdle, || self.inner.tick_idle(k))
    }

    fn activity(&self) -> &LsqActivity {
        self.inner.activity()
    }

    fn reset_activity(&mut self) {
        self.inner.reset_activity()
    }

    fn occupancy(&self) -> LsqOccupancy {
        self.inner.occupancy()
    }
}

/// `TraceSource` wrapper that counts and times every pull and keeps the
/// first memory references for the `mem-hier` replay.
pub struct TracedTrace {
    inner: Box<dyn TraceSource>,
    shared: Rc<Shared>,
}

impl TracedTrace {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn TraceSource>, shared: Rc<Shared>) -> Self {
        TracedTrace { inner, shared }
    }

    fn account(&self, ns: u64, ops: &mut dyn Iterator<Item = &MicroOp>) {
        let s = &self.shared;
        s.trace_calls.set(s.trace_calls.get() + 1);
        s.trace_ns.set(s.trace_ns.get() + ns);
        if s.timing.get() {
            s.trace_ns_in_stage.set(s.trace_ns_in_stage.get() + ns);
            s.trace_n_in_stage.set(s.trace_n_in_stage.get() + 1);
        }
        let mut stream = s.mem_stream.borrow_mut();
        let mut n = 0;
        for op in ops {
            n += 1;
            if stream.len() < STREAM_CAP {
                if let Some(m) = op.mem() {
                    stream.push((m.addr, op.class == OpClass::Store));
                }
            }
        }
        s.trace_ops.set(s.trace_ops.get() + n);
    }
}

impl TraceSource for TracedTrace {
    fn next_op(&mut self) -> MicroOp {
        let t0 = Instant::now();
        let op = self.inner.next_op();
        let ns = t0.elapsed().as_nanos() as u64;
        self.account(ns, &mut std::iter::once(&op));
        op
    }

    fn next_batch(&mut self, out: &mut VecDeque<MicroOp>, n: usize) {
        let start = out.len();
        let t0 = Instant::now();
        self.inner.next_batch(out, n);
        let ns = t0.elapsed().as_nanos() as u64;
        self.account(ns, &mut out.range(start..));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Per-stage tallies of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Work events the stage reported (every stepped cycle).
    pub events: u64,
    /// Sampled intervals timed.
    pub samples: u64,
    /// Nanoseconds over the sampled intervals, children and clock
    /// cost included.
    pub ns: u64,
    /// Timed LSQ calls inside the sampled intervals, and their ns.
    pub lsq_n: u64,
    pub lsq_ns: u64,
    /// Timed trace-source calls inside the sampled intervals, and their ns.
    pub trace_n: u64,
    pub trace_ns: u64,
}

impl StageStat {
    /// Add another tally.
    pub fn add(&mut self, o: &StageStat) {
        self.events += o.events;
        self.samples += o.samples;
        self.ns += o.ns;
        self.lsq_n += o.lsq_n;
        self.lsq_ns += o.lsq_ns;
        self.trace_n += o.trace_n;
        self.trace_ns += o.trace_ns;
    }
}

/// The benchmark's sampling `PipelineProbe`.
pub struct SamplingProbe {
    shared: Rc<Shared>,
    /// Tallies per stage, in `Stage::ALL` order.
    pub stages: [StageStat; 7],
    /// Cycles stepped one by one.
    pub stepped: u64,
    /// Cycles jumped over by event-driven skipping.
    pub skipped: u64,
    sample_this_cycle: bool,
    rng: u64,
    entered: Option<Instant>,
}

impl SamplingProbe {
    /// A probe sharing `shared` with the wrappers of the same simulator.
    pub fn new(shared: Rc<Shared>) -> Self {
        SamplingProbe {
            shared,
            stages: [StageStat::default(); 7],
            stepped: 0,
            skipped: 0,
            sample_this_cycle: false,
            rng: 0x9e37_79b9_7f4a_7c15,
            entered: None,
        }
    }
}

impl PipelineProbe for SamplingProbe {
    #[inline]
    fn enter(&mut self, _stage: Stage) {
        if self.sample_this_cycle {
            self.shared.timing.set(true);
            self.entered = Some(Instant::now());
        }
    }

    #[inline]
    fn exit(&mut self, stage: Stage, events: u64) {
        let st = &mut self.stages[stage as usize];
        st.events += events;
        if let Some(t0) = self.entered.take() {
            st.ns += t0.elapsed().as_nanos() as u64;
            st.samples += 1;
            let s = &self.shared;
            s.timing.set(false);
            st.lsq_ns += s.lsq_ns.replace(0);
            st.lsq_n += s.lsq_n.replace(0);
            st.trace_ns += s.trace_ns_in_stage.replace(0);
            st.trace_n += s.trace_n_in_stage.replace(0);
        }
    }

    #[inline]
    fn cycle(&mut self) {
        self.stepped += 1;
        // xorshift64: sample with probability 1/SAMPLE_PERIOD.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.sample_this_cycle = self.rng.is_multiple_of(SAMPLE_PERIOD);
    }

    #[inline]
    fn skipped(&mut self, k: u64) {
        self.skipped += k;
    }
}
