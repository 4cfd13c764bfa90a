//! One benchmark run of a workload: repeated rounds for the time budget,
//! then the end-to-end metrics (untraced rounds) or the per-layer metrics
//! (traced rounds, each paired with an untraced one).
//!
//! Every end-to-end metric is the median over rounds of a per-round
//! value, so one disturbed round cannot move it; each round rebuilds and
//! prefills the tree, which makes `setup_s` a median of several set-ups.

use crate::clock::Clock;
use crate::closed_loop::{run_round, RoundResult, RoundSpec};
use crate::hist::Hist;
use crate::model::OpKind;
use crate::trace::{chrome_trace, layer_sum, Layer, Name, SiteStats, ThreadTrace, Tracer};
use crate::workload::{Workload, THREADS};
use epic_alloc::{CostModel, ThreadAllocStats};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The highest percentile reported end to end. At 2 × 2^21 ops per round
/// it rests on about 42000 samples, and it sits below the two regions
/// whose run-to-run spread is wider than the benchmark's bound on a shared
/// host: the ramp of ops that wait out the other thread's flush (p99.5 to
/// p99.9 on the batch workload) and the ops a host stall lands in (from
/// about p99.9 on the amortized ones).
pub const TAIL_Q: f64 = 0.99;

/// Deeper percentiles, printed but not in the result line. The p99.9
/// separates batch from amortized free (about 18 µs against 3 µs); the
/// p99.99 is where a batch-freeing op sits (about 1.2 in 10^4 ops on the
/// batch workload), and on an amortized workload it measures the host.
const PRINTED_Q: [(f64, &str); 2] = [(0.999, "op_p999_ns"), (0.9999, "op_p9999_ns")];

/// Ops at least this long keep their spans in the trace file.
const SLOW_OP_NS: f64 = 100_000.0;

/// How a run is shaped.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Time budget; rounds start until it is spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Rounds run at least (untraced rounds, or traced pairs).
    pub min_rounds: usize,
    /// Key space.
    pub keys: u64,
    /// Measured ops per thread per round.
    pub ops_per_thread: u64,
    /// Allocator cost model.
    pub cost: CostModel,
    /// Where the trace file goes (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value rests on (sample counts, rounds).
    pub basis: String,
}

/// A workload's result.
pub struct WorkloadRun {
    /// The metrics the run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further measurements printed for reading, not reported.
    pub extra: Vec<Metric>,
    /// Measured ops attempted.
    pub attempted: u64,
    /// Measured ops answered wrongly.
    pub failed: u64,
    /// Failed checks (empty when correct).
    pub errors: Vec<String>,
}

impl WorkloadRun {
    /// True when every op and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// The middle value (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn throughput_mops(r: &RoundResult, clock: &Clock) -> f64 {
    r.ops as f64 / clock.ns(r.wall_ticks as f64) * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `w` for `opts.seconds`; `log` receives one line per round.
pub fn run_workload(
    w: &'static Workload,
    opts: &RunOpts,
    clock: &Clock,
    log: &mut dyn FnMut(String),
) -> WorkloadRun {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let spec = |round| RoundSpec {
        workload: w,
        seed: opts.seed,
        round,
        keys: opts.keys,
        ops_per_thread: opts.ops_per_thread,
        cost: opts.cost,
    };
    // The process's first round is consistently slower (memory fresh
    // from the OS, cold caches): its answers are checked, its timings are
    // not reported.
    let warmup = run_round(&spec(0), None);
    log(round_line(&warmup, clock, "warm-up"));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut round = 1;
    // The budget covers the warm-up too. A round (or traced pair) starts
    // only when, at the pace of the one before, it ends within the budget,
    // so a run lasts `seconds` whatever the round length.
    let mut last = start.elapsed();
    while plain.len() < opts.min_rounds || start.elapsed() + last <= budget {
        let t = Instant::now();
        let r = run_round(&spec(round), None);
        round += 1;
        log(round_line(&r, clock, "untraced"));
        plain.push(r);
        if opts.trace {
            let tracer = Arc::new(Tracer::new(THREADS, clock, SLOW_OP_NS));
            let r = run_round(&spec(round), Some(tracer));
            round += 1;
            log(round_line(&r, clock, "traced"));
            traced.push(r);
        }
        last = t.elapsed();
    }
    let all = || std::iter::once(&warmup).chain(&plain).chain(&traced);
    let mut errors: Vec<String> = all()
        .filter_map(|r| r.check.as_ref().err().cloned())
        .collect();
    let (metrics, extra) = if opts.trace {
        if let Some(dir) = &opts.trace_dir {
            match write_trace(&traced[0], clock, w, opts, dir) {
                Ok(path) => log(format!("trace file: {}", path.display())),
                Err(e) => errors.push(e),
            }
        }
        (layer_metrics(&plain, &traced, clock), Vec::new())
    } else {
        end_to_end_metrics(&plain, clock)
    };
    WorkloadRun {
        metrics,
        extra,
        attempted: all().map(|r| r.ops).sum(),
        failed: all().map(|r| r.failed).sum(),
        errors,
    }
}

fn round_line(r: &RoundResult, clock: &Clock, kind: &str) -> String {
    let all = r.all_ops();
    format!(
        "{kind} round: setup {:.3} s, {:.4} Mop/s, p50 {:.0} ns, p99.9 {:.0} ns, p99.99 {:.0} ns, peak {:.1} MiB, {} failed of {}, check {}",
        r.setup_s,
        throughput_mops(r, clock),
        clock.ns(all.quantile(0.5)),
        clock.ns(all.quantile(PRINTED_Q[0].0)),
        clock.ns(all.quantile(PRINTED_Q[1].0)),
        r.peak_bytes as f64 / (1 << 20) as f64,
        r.failed,
        r.ops,
        match &r.check {
            Ok(()) => "ok",
            Err(_) => "FAILED",
        }
    )
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, basis: String) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        basis,
    }
}

/// The end-to-end metrics, medians over untraced rounds, and the
/// printed-only deeper percentiles.
pub fn end_to_end_metrics(rounds: &[RoundResult], clock: &Clock) -> (Vec<Metric>, Vec<Metric>) {
    let n = rounds.len();
    let per_round =
        |f: &dyn Fn(&RoundResult) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let ops = rounds.first().map_or(0, |r| r.ops);
    let all: Vec<Hist> = rounds.iter().map(RoundResult::all_ops).collect();
    let q = |q: f64| {
        median(
            &all.iter()
                .map(|h| clock.ns(h.quantile(q)))
                .collect::<Vec<_>>(),
        )
    };
    let lat_basis = |p: f64| {
        let beyond = all.first().map_or(0, |h| h.beyond(p));
        format!("median of {n} rounds; {ops} ops per round, {beyond} beyond")
    };
    let rounds_basis = format!("median of {n} rounds of {ops} ops");
    let printed = PRINTED_Q
        .iter()
        .map(|&(p, name)| metric(name, q(p), "ns", lat_basis(p)))
        .collect();
    let metrics = vec![
        metric(
            "throughput_mops",
            per_round(&|r| throughput_mops(r, clock)),
            "Mop/s",
            rounds_basis.clone(),
        ),
        metric("op_p50_ns", q(0.5), "ns", lat_basis(0.5)),
        metric("op_p99_ns", q(TAIL_Q), "ns", lat_basis(TAIL_Q)),
        metric(
            "peak_mib",
            per_round(&|r| r.peak_bytes as f64 / (1 << 20) as f64),
            "MiB",
            rounds_basis.clone(),
        ),
        metric(
            "setup_s",
            per_round(&|r| r.setup_s),
            "s",
            format!("median of {n} set-ups"),
        ),
    ];
    (metrics, printed)
}

/// Everything the traced rounds recorded, summed.
#[derive(Default)]
struct LayerTotals {
    sites: [SiteStats; 12],
    dealloc: Hist,
    smr_dealloc: Hist,
    frees_per_call: Hist,
    lat: [Hist; 3],
    thread_ticks: u64,
    ops: u64,
    alloc: ThreadAllocStats,
    retired: u64,
    freed: u64,
    batches: u64,
    restarts: u64,
    peak_garbage: Vec<f64>,
}

impl LayerTotals {
    fn add(&mut self, r: &RoundResult, threads: &[ThreadTrace]) {
        for t in threads {
            for (a, b) in self.sites.iter_mut().zip(t.sites.iter()) {
                a.calls += b.calls;
                a.total += b.total;
                a.self_ticks += b.self_ticks;
            }
            self.dealloc.merge(&t.dealloc);
            self.smr_dealloc.merge(&t.smr_dealloc);
            self.frees_per_call.merge(&t.frees_per_call);
            self.thread_ticks += t.active_ticks();
        }
        for (a, b) in self.lat.iter_mut().zip(r.lat.iter()) {
            a.merge(b);
        }
        self.ops += r.ops;
        self.alloc.accumulate(&r.alloc.totals);
        self.retired += r.smr.retired;
        self.freed += r.smr.freed;
        self.batches += r.smr.batches;
        self.restarts += r.smr.restarts;
        self.peak_garbage.push(r.smr.peak_garbage as f64);
    }
}

/// The per-layer metrics: totals over the traced rounds, plus the tracing
/// overhead against the paired untraced rounds.
pub fn layer_metrics(plain: &[RoundResult], traced: &[RoundResult], clock: &Clock) -> Vec<Metric> {
    let mut t = LayerTotals::default();
    for r in traced {
        t.add(r, r.trace.as_deref().unwrap_or_default());
    }
    let ops = t.ops as f64;
    let mops = ops / 1e6;
    let thread = t.thread_ticks as f64;
    let ns = |ticks: f64| clock.ns(ticks);
    let layer = |l: Layer| layer_sum(&t.sites, l);
    let (ds, smr, alloc) = (layer(Layer::Ds), layer(Layer::Smr), layer(Layer::Alloc));
    let site = |n: Name| t.sites[n as usize];
    let per_call_self = |n: Name| ns(ratio(site(n).self_ticks as f64, site(n).calls as f64));
    let a = &t.alloc;
    let basis = format!("{} traced rounds, {} ops", traced.len(), t.ops);
    let calls = |n: Name| format!("{} calls", site(n).calls);
    let hist_basis = |h: &Hist| format!("{} calls", h.count());
    let thr = |rs: &[RoundResult]| {
        median(
            &rs.iter()
                .map(|r| throughput_mops(r, clock))
                .collect::<Vec<_>>(),
        )
    };

    let mut m = vec![
        metric(
            "alloc.self_share",
            ratio(alloc.total as f64, thread),
            "fraction",
            basis.clone(),
        ),
        metric(
            "alloc.alloc.calls_per_op",
            site(Name::Alloc).calls as f64 / ops,
            "1/op",
            basis.clone(),
        ),
        metric(
            "alloc.dealloc.calls_per_op",
            site(Name::Dealloc).calls as f64 / ops,
            "1/op",
            basis.clone(),
        ),
        metric(
            "alloc.alloc.ns_per_call",
            ns(ratio(
                site(Name::Alloc).total as f64,
                site(Name::Alloc).calls as f64,
            )),
            "ns",
            calls(Name::Alloc),
        ),
        metric(
            "alloc.dealloc.p50_ns",
            ns(t.dealloc.quantile(0.5)),
            "ns",
            hist_basis(&t.dealloc),
        ),
        metric(
            "alloc.dealloc.p99_ns",
            ns(t.dealloc.quantile(0.99)),
            "ns",
            hist_basis(&t.dealloc),
        ),
        metric(
            "alloc.dealloc.max_ns",
            ns(t.dealloc.max() as f64),
            "ns",
            hist_basis(&t.dealloc),
        ),
        metric(
            "alloc.cache_hit_ratio",
            ratio(a.cache_hits as f64, a.allocs as f64),
            "fraction",
            format!("{} allocs", a.allocs),
        ),
        metric(
            "alloc.flushes",
            a.flushes as f64 / mops,
            "1/Mop",
            format!("{} flushes", a.flushes),
        ),
        metric(
            "alloc.flushed_per_dealloc",
            ratio(a.flushed_objects as f64, a.deallocs as f64),
            "fraction",
            format!("{} deallocs", a.deallocs),
        ),
        metric(
            "alloc.remote_free_ratio",
            ratio(a.remote_freed as f64, a.deallocs as f64),
            "fraction",
            format!("{} deallocs", a.deallocs),
        ),
        metric(
            "alloc.lock_wait_share",
            ratio(a.lock_wait_ns as f64, ns(thread)),
            "fraction",
            basis.clone(),
        ),
        metric(
            "smr.self_share",
            ratio(smr.self_ticks as f64, thread),
            "fraction",
            basis.clone(),
        ),
        metric(
            "smr.calls_per_op",
            smr.calls as f64 / ops,
            "1/op",
            basis.clone(),
        ),
        metric(
            "smr.self_ns_per_op",
            ns(smr.self_ticks as f64) / ops,
            "ns",
            basis.clone(),
        ),
        metric(
            "smr.begin_op.self_ns",
            per_call_self(Name::BeginOp),
            "ns",
            calls(Name::BeginOp),
        ),
        metric(
            "smr.end_op.self_ns",
            per_call_self(Name::EndOp),
            "ns",
            calls(Name::EndOp),
        ),
        metric(
            "smr.retire.self_ns",
            per_call_self(Name::Retire),
            "ns",
            calls(Name::Retire),
        ),
        metric(
            "smr.on_alloc.self_ns",
            per_call_self(Name::OnAlloc),
            "ns",
            calls(Name::OnAlloc),
        ),
        metric(
            "smr.frees_per_call.p99",
            t.frees_per_call.quantile(0.99),
            "count",
            format!("{} freeing calls", t.frees_per_call.count()),
        ),
        metric(
            "smr.frees_per_call.max",
            t.frees_per_call.max() as f64,
            "count",
            format!("{} freeing calls", t.frees_per_call.count()),
        ),
        metric(
            "smr.retired_per_op",
            t.retired as f64 / ops,
            "1/op",
            basis.clone(),
        ),
        metric(
            "smr.freed_per_op",
            t.freed as f64 / ops,
            "1/op",
            basis.clone(),
        ),
        metric(
            "smr.batches",
            t.batches as f64 / mops,
            "1/Mop",
            format!("{} batches", t.batches),
        ),
        metric(
            "smr.peak_garbage",
            median(&t.peak_garbage),
            "count",
            format!("median of {} traced rounds", traced.len()),
        ),
        metric(
            "smr.restarts_per_op",
            t.restarts as f64 / ops,
            "1/op",
            basis.clone(),
        ),
        metric(
            "smr.free_p99_ns",
            ns(t.smr_dealloc.quantile(0.99)),
            "ns",
            hist_basis(&t.smr_dealloc),
        ),
    ];
    for kind in OpKind::ALL {
        let h = &t.lat[kind as usize];
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            m.push(metric(
                format!("ds.{}.{label}_ns", kind.name()),
                ns(h.quantile(q)),
                "ns",
                format!("{} ops", h.count()),
            ));
        }
    }
    let op_ticks = ds.total as f64;
    m.extend([
        metric(
            "ds.self_ns_per_op",
            ns(ds.self_ticks as f64) / ops,
            "ns",
            basis.clone(),
        ),
        metric(
            "ds.self_share",
            ratio(ds.self_ticks as f64, thread),
            "fraction",
            basis.clone(),
        ),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(thr(traced), thr(plain)),
            "fraction",
            format!(
                "median throughput of {} traced vs {} untraced rounds",
                traced.len(),
                plain.len()
            ),
        ),
        metric(
            "trace.unattributed_share",
            ratio(thread - op_ticks, thread),
            "fraction",
            basis,
        ),
    ]);
    m
}

fn write_trace(
    r: &RoundResult,
    clock: &Clock,
    w: &Workload,
    opts: &RunOpts,
    dir: &std::path::Path,
) -> Result<PathBuf, String> {
    let threads = r.trace.as_deref().unwrap_or_default();
    let origin = threads.iter().map(|t| t.first).min().unwrap_or(0);
    let title = format!("perfbench {} seed {}", w.name, opts.seed);
    let json = chrome_trace(threads, clock, origin, &title);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", w.name, opts.seed));
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn opts(trace: bool) -> RunOpts {
        RunOpts {
            seed: 3,
            seconds: 0.0,
            trace,
            min_rounds: 1,
            keys: 1 << 12,
            ops_per_thread: 10_000,
            cost: CostModel::zero(),
            trace_dir: None,
        }
    }

    #[test]
    fn untraced_run_reports_end_to_end_metrics() {
        let clock = Clock::calibrate(Duration::from_millis(5));
        let run = run_workload(
            &crate::workload::WORKLOADS[0],
            &opts(false),
            &clock,
            &mut |_| {},
        );
        assert!(run.correct(), "{:?}", run.errors);
        assert_eq!(run.attempted, 40_000, "warm-up plus one round");
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "throughput_mops",
                "op_p50_ns",
                "op_p99_ns",
                "peak_mib",
                "setup_s"
            ]
        );
        let printed: Vec<&str> = run.extra.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, ["op_p999_ns", "op_p9999_ns"]);
        assert!(run.metrics.iter().all(|m| m.value > 0.0));
    }

    #[test]
    fn traced_run_reports_layer_metrics() {
        let clock = Clock::calibrate(Duration::from_millis(5));
        let run = run_workload(
            &crate::workload::WORKLOADS[2],
            &opts(true),
            &clock,
            &mut |_| {},
        );
        assert!(run.correct(), "{:?}", run.errors);
        assert_eq!(run.attempted, 60_000, "warm-up plus one pair");
        let get = |n: &str| run.metrics.iter().find(|m| m.name == n).expect(n).value;
        let shares = get("ds.self_share") + get("smr.self_share") + get("alloc.self_share");
        assert!((shares + get("trace.unattributed_share") - 1.0).abs() < 1e-6);
        assert!(get("ds.get.p50_ns") > 0.0);
        assert!(get("smr.calls_per_op") >= 2.0);
    }
}
