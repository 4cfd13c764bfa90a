//! The closed loop: one round builds the allocator, scheme and
//! ABtree, prefills the tree to half, resets the layers' statistics, and
//! lets each worker thread run a fixed op budget, sending its next op only
//! after the previous one returns. Every op is timed from the outside and
//! its return value checked against the thread's [`KeyModel`]; after the
//! round the tree's invariants and key set are checked too.

use crate::clock;
use crate::hist::Hist;
use crate::model::{union_keys, KeyModel, OpKind};
use crate::trace::{Name, ThreadTrace, TracedAlloc, TracedSmr, Tracer};
use crate::workload::{Workload, AF_BACKLOG_CAP, BAG_CAP, THREADS};
use epic_alloc::{build_allocator, AllocSnapshot, AllocatorKind, CostModel, PoolAllocator};
use epic_ds::{build_tree, ConcurrentMap, TreeKind};
use epic_smr::{build_raw_smr, RawSmr, Smr, SmrConfig, SmrHandle, SmrSnapshot};
use epic_util::{SplitMix64, XorShift64};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// What one round runs.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// The run's seed; each round and thread derives its own stream.
    pub seed: u64,
    /// Round number within the run.
    pub round: u64,
    /// Key space (striped over [`THREADS`]).
    pub keys: u64,
    /// Measured ops per thread.
    pub ops_per_thread: u64,
    /// Allocator cost model.
    pub cost: CostModel,
}

/// Times an op from the outside: returns start and end ticks.
pub trait Probe {
    /// Called right before the map call.
    fn enter(&self, kind: OpKind) -> u64;
    /// Called right after it returns.
    fn exit(&self) -> u64;
}

/// Untraced timing: two clock reads per op.
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn enter(&self, _: OpKind) -> u64 {
        clock::now()
    }

    #[inline(always)]
    fn exit(&self) -> u64 {
        clock::now()
    }
}

/// Traced timing: the op is the root span of the thread's trace.
pub struct Traced<'a> {
    tracer: &'a Tracer,
    tid: usize,
}

impl Probe for Traced<'_> {
    #[inline(always)]
    fn enter(&self, kind: OpKind) -> u64 {
        let name = match kind {
            OpKind::Insert => Name::Insert,
            OpKind::Remove => Name::Remove,
            OpKind::Get => Name::Get,
        };
        self.tracer.enter(self.tid, name)
    }

    #[inline(always)]
    fn exit(&self) -> u64 {
        self.tracer.exit(self.tid)
    }
}

/// What a thread's measured loop saw.
pub struct LoopStats {
    /// Op latency (ticks), indexed by `OpKind as usize`.
    pub lat: [Hist; 3],
    /// Ops whose return value disagreed with the model.
    pub failed: u64,
    /// Ops attempted.
    pub ops: u64,
}

/// Runs `ops` closed-loop ops: uniform slots of the thread's stripe,
/// `get_pct`% gets and the rest insert/remove 50/50.
pub fn run_ops(
    map: &dyn ConcurrentMap,
    h: &SmrHandle,
    model: &mut KeyModel,
    rng: &mut XorShift64,
    get_pct: u64,
    ops: u64,
    probe: &impl Probe,
) -> LoopStats {
    let mut stats = LoopStats {
        lat: Default::default(),
        failed: 0,
        ops,
    };
    for _ in 0..ops {
        let slot = rng.next_bounded(model.slots());
        let roll = rng.next_bounded(200);
        let kind = if roll < 2 * get_pct {
            OpKind::Get
        } else if roll.is_multiple_of(2) {
            OpKind::Insert
        } else {
            OpKind::Remove
        };
        let t0 = probe.enter(kind);
        let ok = model.exec(map, h, kind, slot);
        let t1 = probe.exit();
        stats.lat[kind as usize].record(t1 - t0);
        stats.failed += u64::from(!ok);
    }
    stats
}

/// One round's results.
pub struct RoundResult {
    /// Build plus prefill, in seconds.
    pub setup_s: f64,
    /// First worker start to last worker end, in ticks.
    pub wall_ticks: u64,
    /// Measured ops attempted.
    pub ops: u64,
    /// Measured ops whose return value was wrong.
    pub failed: u64,
    /// Op latency (ticks) over both threads, indexed by `OpKind as usize`.
    pub lat: [Hist; 3],
    /// Allocator chunk bytes at the end of the round.
    pub peak_bytes: usize,
    /// Allocator counters of the measured phase.
    pub alloc: AllocSnapshot,
    /// Scheme counters of the measured phase.
    pub smr: SmrSnapshot,
    /// Prefill answers, tree invariants and key set.
    pub check: Result<(), String>,
    /// Per-thread trace of a traced round.
    pub trace: Option<Vec<ThreadTrace>>,
}

impl RoundResult {
    /// Latency over every op kind.
    pub fn all_ops(&self) -> Hist {
        let mut all = self.lat[0].clone();
        all.merge(&self.lat[1]);
        all.merge(&self.lat[2]);
        all
    }
}

struct WorkerOut {
    model: KeyModel,
    stats: LoopStats,
    prefill_failed: u64,
    start: u64,
    end: u64,
}

fn stream_seed(spec: &RoundSpec, tid: usize) -> u64 {
    let mut sm = SplitMix64::new(spec.seed);
    sm.next_u64() ^ spec.round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (tid as u64 + 1) << 56
}

fn worker(
    tid: usize,
    spec: &RoundSpec,
    tree: &dyn ConcurrentMap,
    barrier: &Barrier,
    tracer: Option<&Tracer>,
) -> WorkerOut {
    let h = tree.smr().register(tid);
    let mut model = KeyModel::new(tid, THREADS, spec.keys);
    let mut rng = XorShift64::new(stream_seed(spec, tid));
    let mut prefill_failed = 0;
    while model.present() < model.slots() / 2 {
        let slot = rng.next_bounded(model.slots());
        prefill_failed += u64::from(!model.exec(tree, &h, OpKind::Insert, slot));
    }
    barrier.wait(); // prefill done
    barrier.wait(); // statistics reset: go
    let get_pct = spec.workload.get_pct;
    let n = spec.ops_per_thread;
    let start = clock::now();
    let stats = match tracer {
        Some(tracer) => {
            tracer.activate(tid);
            let s = run_ops(
                tree,
                &h,
                &mut model,
                &mut rng,
                get_pct,
                n,
                &Traced { tracer, tid },
            );
            tracer.deactivate(tid);
            s
        }
        None => run_ops(tree, &h, &mut model, &mut rng, get_pct, n, &Untraced),
    };
    let end = clock::now();
    WorkerOut {
        model,
        stats,
        prefill_failed,
        start,
        end,
    }
}

/// Builds the layers bottom-up — `epic_alloc` → `epic_smr` → `epic_ds` —
/// with every scheme knob pinned, wrapping both layer traits when traced.
fn build(spec: &RoundSpec, tracer: Option<&Arc<Tracer>>) -> Arc<dyn ConcurrentMap> {
    let mut alloc = build_allocator(AllocatorKind::Je, THREADS, spec.cost);
    if let Some(t) = tracer {
        alloc = Arc::new(TracedAlloc::new(alloc, Arc::clone(t))) as Arc<dyn PoolAllocator>;
    }
    let cfg = SmrConfig::new(THREADS)
        .with_mode(spec.workload.mode)
        .with_bag_cap(BAG_CAP)
        .with_af_backlog_cap(AF_BACKLOG_CAP);
    let mut raw = build_raw_smr(spec.workload.smr, alloc, cfg);
    if let Some(t) = tracer {
        raw = Arc::new(TracedSmr::new(raw, Arc::clone(t))) as Arc<dyn RawSmr>;
    }
    build_tree(TreeKind::Ab, Smr::from_raw(raw))
}

/// Runs one round; traced if `tracer` is given (the tracer must be fresh).
pub fn run_round(spec: &RoundSpec, tracer: Option<Arc<Tracer>>) -> RoundResult {
    let t_setup = Instant::now();
    let tree = build(spec, tracer.as_ref());
    let barrier = Barrier::new(THREADS + 1);
    let mut setup_s = 0.0;
    let mut alloc = AllocSnapshot::default();
    let mut smr = SmrSnapshot::default();
    let outs: Vec<WorkerOut> = thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (tree, barrier, tracer) = (&*tree, &barrier, tracer.as_deref());
                s.spawn(move || worker(tid, spec, tree, barrier, tracer))
            })
            .collect();
        barrier.wait();
        setup_s = t_setup.elapsed().as_secs_f64();
        tree.smr().reset_stats();
        tree.smr().allocator().reset_stats();
        barrier.wait();
        let outs = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        alloc = tree.smr().allocator().snapshot();
        smr = tree.smr().stats();
        outs
    });
    let peak_bytes = tree.smr().allocator().peak_bytes();
    let check = check_round(&*tree, &outs);
    drop(tree);
    let trace = tracer.map(|t| {
        let Ok(t) = Arc::try_unwrap(t) else {
            panic!("the tree was dropped, so nothing else holds the tracer");
        };
        t.into_threads()
    });
    let mut lat: [Hist; 3] = Default::default();
    for o in &outs {
        for (a, b) in lat.iter_mut().zip(o.stats.lat.iter()) {
            a.merge(b);
        }
    }
    RoundResult {
        setup_s,
        wall_ticks: outs.iter().map(|o| o.end).max().unwrap_or(0)
            - outs.iter().map(|o| o.start).min().unwrap_or(0),
        ops: outs.iter().map(|o| o.stats.ops).sum(),
        failed: outs.iter().map(|o| o.stats.failed).sum(),
        lat,
        peak_bytes,
        alloc,
        smr,
        check,
        trace,
    }
}

fn check_round(tree: &dyn ConcurrentMap, outs: &[WorkerOut]) -> Result<(), String> {
    let prefill_failed: u64 = outs.iter().map(|o| o.prefill_failed).sum();
    if prefill_failed > 0 {
        return Err(format!("{prefill_failed} prefill inserts answered wrongly"));
    }
    tree.check_invariants()
        .map_err(|e| format!("tree invariant violated: {e}"))?;
    let want = union_keys(outs.iter().map(|o| &o.model));
    let got = tree.collect_keys();
    if want != got {
        return Err(format!(
            "key set differs from the models: {} keys in the tree, {} expected",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use std::time::Duration;

    fn spec(workload: &'static Workload) -> RoundSpec {
        RoundSpec {
            workload,
            seed: 7,
            round: 0,
            keys: 1 << 12,
            ops_per_thread: 20_000,
            cost: CostModel::zero(),
        }
    }

    #[test]
    fn every_workload_round_is_correct() {
        for w in &WORKLOADS {
            let r = run_round(&spec(w), None);
            assert_eq!(r.check, Ok(()), "{}", w.name);
            assert_eq!(r.failed, 0);
            assert_eq!(r.ops, 40_000);
            assert_eq!(r.all_ops().count(), 40_000);
            assert!(r.wall_ticks > 0 && r.setup_s > 0.0 && r.peak_bytes > 0);
        }
    }

    #[test]
    fn mix_follows_the_workload() {
        let updates = run_round(&spec(&WORKLOADS[0]), None);
        assert_eq!(updates.lat[OpKind::Get as usize].count(), 0);
        let reads = run_round(&spec(&WORKLOADS[2]), None);
        let gets = reads.lat[OpKind::Get as usize].count() as f64 / reads.ops as f64;
        assert!((0.88..0.92).contains(&gets), "get share {gets}");
    }

    #[test]
    fn wrong_answers_count_as_failed_ops() {
        let s = spec(&WORKLOADS[0]);
        let tree = build(&s, None);
        let h = tree.smr().register(0);
        // A model that believes every key of its stripe is present, over
        // an empty tree: inserts and removes answer against it.
        let mut model = KeyModel::new(0, 1, 64);
        for slot in 0..64 {
            model.set(slot, true);
        }
        let mut rng = XorShift64::new(1);
        let stats = run_ops(&*tree, &h, &mut model, &mut rng, 0, 2_000, &Untraced);
        assert!(stats.failed > 0, "wrong expectations went uncounted");
        assert!(stats.failed <= 64, "each wrong expectation counts once");
    }

    #[test]
    fn traced_round_records_every_layer() {
        let clock = clock::Clock::calibrate(Duration::from_millis(5));
        let tracer = Arc::new(Tracer::new(THREADS, &clock, 1e12));
        let r = run_round(&spec(&WORKLOADS[0]), Some(tracer));
        assert_eq!(r.check, Ok(()));
        let threads = r.trace.expect("traced round");
        let ops: u64 = threads.iter().map(|t| t.ops).sum();
        assert_eq!(ops, r.ops);
        for t in &threads {
            assert!(t.sites[Name::BeginOp as usize].calls >= t.ops);
            assert!(t.sites[Name::Alloc as usize].calls > 0);
            assert!(!t.spans.is_empty());
        }
    }
}
