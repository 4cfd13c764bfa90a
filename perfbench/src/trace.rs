//! The traced run: wrappers around the two public layer traits that time
//! every call, plus the per-thread span and counter store they write to.
//!
//! * [`TracedAlloc`] wraps the allocator before the scheme is built, so
//!   every allocation and every free — the tree's own and the scheme's —
//!   goes through it.
//! * [`TracedSmr`] wraps the scheme object and is handed to the tree, so
//!   every `begin_op`/`end_op`/`retire`/`on_alloc` goes through it.
//!
//! The closed loop opens the op span (`ds` layer) around each map call. Spans
//! nest per thread, `ds → smr → alloc`; a span's self time is its duration
//! minus its children's. Counters are exact for every call. Full spans
//! are kept in per-thread memory for a sampled subset of ops (every
//! [`Tracer::SAMPLE_EVERY`]-th op, plus the first few slow ops, which is
//! where a batch free shows) and written out as Chrome trace-event JSON at
//! the end.
//!
//! Per-thread state lives in [`TidSlots`]: every call carries its tid and
//! the library's contract is one thread per tid, so no call shares a
//! cache line with another thread.

use crate::clock::{self, Clock};
use crate::hist::Hist;
use epic_alloc::{AllocSnapshot, PoolAllocator, ThreadAllocStats, Tid};
use epic_smr::{RawSmr, SchemeLocal, SmrKind, SmrSnapshot};
use epic_util::json::{push_str_literal, render_num};
use epic_util::TidSlots;
use std::fmt::Write as _;
use std::ptr::NonNull;
use std::sync::Arc;

/// A layer on the op path, named after its crate's module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `crates/ds` (`epic-ds`): tree traversal and copy-on-write updates.
    Ds,
    /// `crates/core` (`epic-smr`): reclamation bookkeeping and freeing.
    Smr,
    /// `crates/allocsim` (`epic-alloc`): the allocator model.
    Alloc,
}

impl Layer {
    /// Name used in metric prefixes.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ds => "ds",
            Layer::Smr => "smr",
            Layer::Alloc => "alloc",
        }
    }
}

/// A traced call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// `ConcurrentMap::insert` (op span, opened by the closed loop).
    Insert,
    /// `ConcurrentMap::remove` (op span, opened by the closed loop).
    Remove,
    /// `ConcurrentMap::get` (op span, opened by the closed loop).
    Get,
    /// `RawSmr::begin_op` (includes the amortized drain).
    BeginOp,
    /// `RawSmr::end_op`.
    EndOp,
    /// `RawSmr::retire` (includes batch frees).
    Retire,
    /// `RawSmr::on_alloc` (era stamp, amortized-free tick).
    OnAlloc,
    /// `RawSmr::try_pool_alloc`.
    PoolAlloc,
    /// `RawSmr::poll_restart` (only for restarts the handle routes here).
    PollRestart,
    /// `RawSmr::enter_write_phase`.
    WritePhase,
    /// `PoolAllocator::alloc`.
    Alloc,
    /// `PoolAllocator::dealloc`.
    Dealloc,
}

impl Name {
    /// Every name, indexed by `name as usize`.
    pub const ALL: [Name; 12] = [
        Name::Insert,
        Name::Remove,
        Name::Get,
        Name::BeginOp,
        Name::EndOp,
        Name::Retire,
        Name::OnAlloc,
        Name::PoolAlloc,
        Name::PollRestart,
        Name::WritePhase,
        Name::Alloc,
        Name::Dealloc,
    ];

    /// The layer the call belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Insert | Name::Remove | Name::Get => Layer::Ds,
            Name::Alloc | Name::Dealloc => Layer::Alloc,
            _ => Layer::Smr,
        }
    }

    /// Span name.
    pub fn label(self) -> &'static str {
        match self {
            Name::Insert => "insert",
            Name::Remove => "remove",
            Name::Get => "get",
            Name::BeginOp => "begin_op",
            Name::EndOp => "end_op",
            Name::Retire => "retire",
            Name::OnAlloc => "on_alloc",
            Name::PoolAlloc => "try_pool_alloc",
            Name::PollRestart => "poll_restart",
            Name::WritePhase => "enter_write_phase",
            Name::Alloc => "alloc",
            Name::Dealloc => "dealloc",
        }
    }
}

/// No parent / not recorded.
const NONE: u32 = u32::MAX;

/// One recorded span. `start`/`end` are clock ticks; `parent` indexes the
/// same thread's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call site.
    pub name: Name,
    /// Index of the enclosing span, or `u32::MAX` for an op span.
    pub parent: u32,
    /// The op (per-thread sequence number) the span belongs to.
    pub op_id: u64,
    /// Start tick.
    pub start: u64,
    /// End tick.
    pub end: u64,
}

#[derive(Clone, Copy)]
struct Frame {
    name: Name,
    start: u64,
    child: u64,
    frees: u64,
    span: u32,
}

/// Exact per-call-site counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteStats {
    /// Calls.
    pub calls: u64,
    /// Ticks between entry and exit.
    pub total: u64,
    /// `total` minus the ticks of nested traced calls.
    pub self_ticks: u64,
}

/// `sites` (indexed by `Name as usize`) summed over the sites of `layer`.
pub fn layer_sum(sites: &[SiteStats], layer: Layer) -> SiteStats {
    let mut acc = SiteStats::default();
    for (name, s) in Name::ALL.iter().zip(sites) {
        if name.layer() == layer {
            acc.calls += s.calls;
            acc.total += s.total;
            acc.self_ticks += s.self_ticks;
        }
    }
    acc
}

/// Everything one thread recorded.
#[derive(Clone)]
pub struct ThreadTrace {
    active: bool,
    stack: Vec<Frame>,
    scratch: Vec<Span>,
    slow_kept: usize,
    /// Counters per call site, indexed by `Name as usize`.
    pub sites: [SiteStats; 12],
    /// Every `dealloc` call's duration (ticks).
    pub dealloc: Hist,
    /// `dealloc` calls made inside a scheme call (ticks): the scheme's
    /// individual frees.
    pub smr_dealloc: Hist,
    /// Frees nested under one scheme call, for calls that free anything:
    /// the batch size the allocator sees.
    pub frees_per_call: Hist,
    /// Ops completed while active.
    pub ops: u64,
    /// Kept spans, in entry order.
    pub spans: Vec<Span>,
    /// Tick the thread became active.
    pub first: u64,
    /// Tick the thread went inactive.
    pub last: u64,
}

impl ThreadTrace {
    fn new() -> ThreadTrace {
        ThreadTrace {
            active: false,
            stack: Vec::with_capacity(8),
            scratch: Vec::with_capacity(1 << 14),
            slow_kept: 0,
            sites: [SiteStats::default(); 12],
            dealloc: Hist::default(),
            smr_dealloc: Hist::default(),
            frees_per_call: Hist::default(),
            ops: 0,
            spans: Vec::new(),
            first: 0,
            last: 0,
        }
    }

    /// Ticks the thread spent active.
    pub fn active_ticks(&self) -> u64 {
        self.last.saturating_sub(self.first)
    }
}

/// Per-thread trace store shared by the wrappers and the closed loop.
pub struct Tracer {
    threads: TidSlots<ThreadTrace>,
    slow_ticks: u64,
}

impl Tracer {
    /// Full spans are kept for one op in this many.
    pub const SAMPLE_EVERY: u64 = 4096;
    /// Slow ops (at least `slow_ns` long) kept per thread, beyond the
    /// sampled ones.
    pub const SLOW_KEPT: usize = 4;
    /// Spans kept per thread at most (bounds the trace file).
    pub const SPAN_CAP: usize = 1 << 16;

    /// A tracer for `threads` tids; ops of at least `slow_ns` keep their
    /// spans (up to [`SLOW_KEPT`](Self::SLOW_KEPT) per thread).
    pub fn new(threads: usize, clock: &Clock, slow_ns: f64) -> Tracer {
        Tracer {
            threads: TidSlots::new_with(threads, |_| ThreadTrace::new()),
            slow_ticks: clock.ticks(slow_ns),
        }
    }

    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn thread(&self, tid: Tid) -> &mut ThreadTrace {
        // SAFETY: every caller passes the tid of the thread it runs on —
        // the one-thread-per-tid contract of `PoolAllocator`, `RawSmr` and
        // the closed loop — and no reference outlives the call that took it
        // (wrappers re-borrow after the inner call returns).
        unsafe { self.threads.get_mut(tid) }
    }

    /// Starts recording on `tid`, outside any traced call.
    ///
    /// This and the span methods below follow the allocator's and the
    /// scheme's contract: `tid` is the tid the calling thread runs as, and
    /// no other thread uses it meanwhile.
    pub(crate) fn activate(&self, tid: Tid) {
        let t = self.thread(tid);
        t.active = true;
        t.first = clock::now();
    }

    /// Stops recording on `tid`.
    pub(crate) fn deactivate(&self, tid: Tid) {
        let t = self.thread(tid);
        t.active = false;
        t.last = clock::now();
    }

    /// Opens a span on `tid`; returns its start tick.
    #[inline]
    pub(crate) fn enter(&self, tid: Tid, name: Name) -> u64 {
        let t = self.thread(tid);
        if !t.active {
            return clock::now();
        }
        let parent = t.stack.last().map_or(NONE, |f| f.span);
        if t.stack.is_empty() {
            t.scratch.clear();
        }
        let span = t.scratch.len() as u32;
        let start = clock::now();
        t.scratch.push(Span {
            name,
            parent,
            op_id: t.ops,
            start,
            end: start,
        });
        t.stack.push(Frame {
            name,
            start,
            child: 0,
            frees: 0,
            span,
        });
        start
    }

    /// Counts a call on `tid` without timing it: its time stays in the
    /// enclosing span's self time.
    #[inline]
    pub(crate) fn count(&self, tid: Tid, name: Name) {
        let t = self.thread(tid);
        if t.active {
            t.sites[name as usize].calls += 1;
        }
    }

    /// Closes `tid`'s innermost span; returns its end tick.
    #[inline]
    pub(crate) fn exit(&self, tid: Tid) -> u64 {
        let end = clock::now();
        let t = self.thread(tid);
        let Some(f) = t.stack.pop() else {
            return end;
        };
        let dur = end - f.start;
        let site = &mut t.sites[f.name as usize];
        site.calls += 1;
        site.total += dur;
        site.self_ticks += dur.saturating_sub(f.child);
        t.scratch[f.span as usize].end = end;
        let parent_is_smr = match t.stack.last_mut() {
            Some(p) => {
                p.child += dur;
                let smr = p.name.layer() == Layer::Smr;
                if smr && f.name == Name::Dealloc {
                    p.frees += 1;
                }
                smr
            }
            None => false,
        };
        match f.name.layer() {
            Layer::Alloc if f.name == Name::Dealloc => {
                t.dealloc.record(dur);
                if parent_is_smr {
                    t.smr_dealloc.record(dur);
                }
            }
            Layer::Smr if f.frees > 0 => t.frees_per_call.record(f.frees),
            Layer::Ds => self.close_op(t, dur),
            _ => {}
        }
        end
    }

    /// Keeps the finished op's spans if it is sampled or among the first
    /// slow ones.
    fn close_op(&self, t: &mut ThreadTrace, dur: u64) {
        let sampled = t.ops.is_multiple_of(Self::SAMPLE_EVERY);
        let slow = dur >= self.slow_ticks && t.slow_kept < Self::SLOW_KEPT;
        if (sampled || slow) && t.spans.len() + t.scratch.len() <= Self::SPAN_CAP {
            t.slow_kept += usize::from(slow && !sampled);
            let base = t.spans.len() as u32;
            t.spans.extend(t.scratch.iter().map(|s| Span {
                parent: if s.parent == NONE {
                    NONE
                } else {
                    s.parent + base
                },
                ..*s
            }));
        }
        t.ops += 1;
    }

    /// Takes every thread's record (call once the workers have joined).
    pub fn into_threads(self) -> Vec<ThreadTrace> {
        (0..self.threads.len())
            // SAFETY: the workers have joined, so no other thread can
            // touch any slot.
            .map(|tid| unsafe { self.threads.peek(tid) }.clone())
            .collect()
    }
}

/// [`PoolAllocator`] wrapper that records an `alloc` layer span per call.
pub struct TracedAlloc {
    inner: Arc<dyn PoolAllocator>,
    tracer: Arc<Tracer>,
}

impl TracedAlloc {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn PoolAllocator>, tracer: Arc<Tracer>) -> TracedAlloc {
        TracedAlloc { inner, tracer }
    }
}

impl PoolAllocator for TracedAlloc {
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8> {
        self.tracer.enter(tid, Name::Alloc);
        let p = self.inner.alloc(tid, size);
        self.tracer.exit(tid);
        p
    }

    fn dealloc(&self, tid: Tid, ptr: NonNull<u8>) {
        self.tracer.enter(tid, Name::Dealloc);
        self.inner.dealloc(tid, ptr);
        self.tracer.exit(tid);
    }

    fn snapshot(&self) -> AllocSnapshot {
        self.inner.snapshot()
    }

    fn thread_stats(&self, tid: Tid) -> ThreadAllocStats {
        self.inner.thread_stats(tid)
    }

    fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// [`RawSmr`] wrapper that records an `smr` layer span per operation-path
/// call and forwards everything else.
///
/// `try_pool_alloc`, `enter_write_phase` and `poll_restart` are no-ops in
/// every benchmarked mode (no pooling, no neutralization), so they are
/// counted but not timed: two clock reads would cost more than the call.
pub struct TracedSmr {
    inner: Arc<dyn RawSmr>,
    tracer: Arc<Tracer>,
}

impl TracedSmr {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn RawSmr>, tracer: Arc<Tracer>) -> TracedSmr {
        TracedSmr { inner, tracer }
    }

    #[inline]
    fn span<R>(&self, tid: Tid, name: Name, f: impl FnOnce() -> R) -> R {
        self.tracer.enter(tid, name);
        let r = f();
        self.tracer.exit(tid);
        r
    }
}

impl RawSmr for TracedSmr {
    fn begin_op(&self, tid: Tid) {
        self.span(tid, Name::BeginOp, || self.inner.begin_op(tid))
    }

    fn end_op(&self, tid: Tid) {
        self.span(tid, Name::EndOp, || self.inner.end_op(tid))
    }

    fn protect(&self, tid: Tid, slot: usize, ptr: usize) {
        self.inner.protect(tid, slot, ptr)
    }

    fn needs_validate(&self) -> bool {
        self.inner.needs_validate()
    }

    fn poll_restart(&self, tid: Tid) -> bool {
        self.tracer.count(tid, Name::PollRestart);
        self.inner.poll_restart(tid)
    }

    fn enter_write_phase(&self, tid: Tid, ptrs: &[usize]) {
        self.tracer.count(tid, Name::WritePhase);
        self.inner.enter_write_phase(tid, ptrs)
    }

    fn on_alloc(&self, tid: Tid, ptr: NonNull<u8>) {
        self.span(tid, Name::OnAlloc, || self.inner.on_alloc(tid, ptr))
    }

    fn try_pool_alloc(&self, tid: Tid, size: usize) -> Option<NonNull<u8>> {
        self.tracer.count(tid, Name::PoolAlloc);
        self.inner.try_pool_alloc(tid, size)
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.span(tid, Name::Retire, || self.inner.retire(tid, ptr))
    }

    fn detach(&self, tid: Tid) {
        self.inner.detach(tid)
    }

    fn quiesce_and_drain(&self) {
        self.inner.quiesce_and_drain()
    }

    fn stats(&self) -> SmrSnapshot {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> SmrKind {
        self.inner.kind()
    }

    fn max_threads(&self) -> usize {
        self.inner.max_threads()
    }

    fn local(&self, tid: Tid) -> SchemeLocal {
        self.inner.local(tid)
    }

    fn allocator(&self) -> &Arc<dyn PoolAllocator> {
        self.inner.allocator()
    }
}

/// Renders the threads' kept spans as Chrome trace-event JSON (one track
/// per thread, complete events nested by time), which Perfetto and
/// `chrome://tracing` open directly. Times are microseconds from `origin`.
pub fn chrome_trace(threads: &[ThreadTrace], clock: &Clock, origin: u64, title: &str) -> String {
    let us = |ticks: u64| render_num(clock.ns(ticks.saturating_sub(origin) as f64) / 1e3);
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"otherData\": {\"benchmark\": ");
    push_str_literal(&mut out, title);
    out.push_str("}, \"traceEvents\": [\n");
    out.push_str("{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"args\": {\"name\": ");
    push_str_literal(&mut out, title);
    out.push_str("}}");
    for (tid, t) in threads.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"worker {tid}\"}}}}"
        );
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": \"{}\", \"cat\": \"{}\", \"ts\": {}, \"dur\": {}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op_id\": {}}}}}",
                s.name.label(),
                s.name.layer().name(),
                us(s.start),
                render_num(clock.ns((s.end - s.start) as f64) / 1e3),
                s.op_id,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};
    use epic_ds::{build_tree, TreeKind};
    use epic_smr::{build_raw_smr, Smr, SmrConfig};
    use epic_util::Json;
    use std::time::Duration;

    #[test]
    fn name_table_matches_discriminants() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
        for (i, k) in crate::model::OpKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let clock = Clock::calibrate(Duration::from_millis(5));
        let tracer = Arc::new(Tracer::new(1, &clock, 0.0));
        let alloc: Arc<dyn PoolAllocator> = Arc::new(TracedAlloc::new(
            build_allocator(AllocatorKind::Je, 1, CostModel::zero()),
            Arc::clone(&tracer),
        ));
        let cfg = SmrConfig::new(1).with_bag_cap(4);
        let raw = build_raw_smr(SmrKind::Rcu, alloc, cfg);
        let smr = Smr::from_raw(Arc::new(TracedSmr::new(raw, Arc::clone(&tracer))));
        let tree = build_tree(TreeKind::Ab, smr);
        let h = tree.smr().register(0);
        tracer.activate(0);
        for k in 0..64u64 {
            let name = if k % 2 == 0 {
                Name::Insert
            } else {
                Name::Remove
            };
            tracer.enter(0, name);
            if name == Name::Insert {
                tree.insert(&h, k / 2, 1);
            } else {
                tree.remove(&h, k / 2);
            }
            tracer.exit(0);
        }
        tracer.deactivate(0);
        drop(h);
        drop(tree);
        let Ok(tracer) = Arc::try_unwrap(tracer) else {
            panic!("wrappers still hold the tracer");
        };
        let threads = tracer.into_threads();
        let t = &threads[0];
        assert_eq!(t.ops, 64);
        assert_eq!(t.sites[Name::Insert as usize].calls, 32);
        assert!(t.sites[Name::BeginOp as usize].calls >= 64);
        assert!(t.sites[Name::Alloc as usize].calls >= 32);
        // Tiny bags: the scheme frees through the traced allocator.
        assert!(t.smr_dealloc.count() > 0);
        assert!(t.frees_per_call.count() > 0);
        let ds = layer_sum(&t.sites, Layer::Ds);
        let nested =
            layer_sum(&t.sites, Layer::Smr).self_ticks + layer_sum(&t.sites, Layer::Alloc).total;
        assert_eq!(ds.total, ds.self_ticks + nested);
        // Slow threshold 0: every op keeps its spans, parents first.
        assert!(t.spans.iter().all(|s| s.end >= s.start));
        for (i, s) in t.spans.iter().enumerate() {
            if s.parent != NONE {
                let p = t.spans[s.parent as usize];
                assert!(s.parent < i as u32 && p.start <= s.start && s.end <= p.end);
                assert_eq!(p.op_id, s.op_id);
            }
        }
        let json = chrome_trace(&threads, &clock, t.first, "test");
        let parsed = Json::parse(&json).expect("trace is JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2 + t.spans.len());
    }
}
