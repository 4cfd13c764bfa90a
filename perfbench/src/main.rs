//! Command line: `perfbench [--workload NAME|all] [--seed N] [--seconds N]
//! [--trace 0|1]`.
//!
//! Prints one line per round, then every metric by name with its unit and
//! what it rests on, and last a one-line JSON result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exit code 0 when every answer and check passed, 1 when one failed, 2 on
//! a usage error.

use epic_alloc::CostModel;
use epic_perfbench::bench::{run_workload, Metric, RunOpts, WorkloadRun};
use epic_perfbench::clock::Clock;
use epic_perfbench::workload::{self, Workload, WORKLOADS};
use epic_util::json::{push_str_literal, render_num};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
  --workload  one of the workloads below, or `all` (default) to run each in turn
  --seed      input seed (default 1)
  --seconds   time budget per workload (default 10); warm-up and rounds end within it
  --trace 1   traced run: per-layer metrics and a Chrome trace file under perfbench/out/";

struct Args {
    workloads: Vec<&'static Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().collect(),
        all: true,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = workload::find(name).ok_or(format!("unknown workload `{name}`"))?;
                    a.workloads = vec![w];
                    a.all = false;
                }
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "-h" | "--help" => return Err(String::new()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

fn print_metrics(prefix: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{prefix}{} = {} {}  ({})",
            m.name,
            render_num(m.value),
            m.unit,
            m.basis
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };

    let clock = Clock::calibrate(Duration::from_millis(50));
    let cost = CostModel::default_for_machine();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        min_rounds: 3,
        keys: workload::KEYS,
        ops_per_thread: workload::OPS_PER_THREAD,
        cost,
        trace_dir: Some(concat!(env!("CARGO_MANIFEST_DIR"), "/out").into()),
    };
    println!(
        "# perfbench seed={} seconds={} trace={} nproc={nproc} threads={} keys={} prefill={} ops_per_thread_per_round={} tree=abtree alloc=je bag_cap={} af_backlog_cap={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::THREADS,
        workload::KEYS,
        workload::KEYS / 2,
        workload::OPS_PER_THREAD,
        workload::BAG_CAP,
        workload::AF_BACKLOG_CAP,
    );
    println!(
        "# cost model: remote_penalty_ns={} refill_penalty_ns={} arenas_per_cpu={} assumed_cpus={} arenas={}; tick clock {:.4} ticks/ns",
        cost.remote_penalty_ns,
        cost.refill_penalty_ns,
        cost.arenas_per_cpu,
        cost.assumed_cpus,
        cost.num_arenas(),
        clock.ticks_per_ns(),
    );

    let mut runs: Vec<(&Workload, WorkloadRun)> = Vec::new();
    for &w in &args.workloads {
        println!(
            "# workload {}: scheme {}{}, {}% get",
            w.name,
            w.smr.base_name(),
            w.mode.suffix(),
            w.get_pct
        );
        let run = run_workload(w, &opts, &clock, &mut |line| println!("#   {line}"));
        print_metrics(&format!("{}  ", w.name), &run.metrics);
        print_metrics(
            &format!("{}  (not in the result line) ", w.name),
            &run.extra,
        );
        println!(
            "{}  failed_op_share = {} fraction  ({} of {} ops answered wrongly)",
            w.name,
            render_num(run.failed as f64 / run.attempted as f64),
            run.failed,
            run.attempted
        );
        for e in &run.errors {
            println!("{}  CHECK FAILED: {e}", w.name);
        }
        runs.push((w, run));
    }

    let correct = runs.iter().all(|(_, r)| r.correct());
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        runs.iter().map(|(_, r)| r.attempted).sum::<u64>(),
        runs.iter().map(|(_, r)| r.failed).sum::<u64>(),
    );
    let mut first = true;
    for (w, run) in &runs {
        for m in &run.metrics {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let name = if args.all {
                format!("{}:{}", w.name, m.name)
            } else {
                m.name.clone()
            };
            push_str_literal(&mut out, &name);
            out.push_str(": {\"value\": ");
            out.push_str(&render_num(m.value));
            out.push_str(", \"unit\": ");
            push_str_literal(&mut out, m.unit);
            out.push('}');
        }
    }
    out.push_str("}}");
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
