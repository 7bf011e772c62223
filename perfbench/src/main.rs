//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload repeatedly for `--seconds` of host time (one
//! simulation at a time), checks every repetition's digests and work
//! counts against an untimed reference repetition, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The last line of standard output is one JSON object.

use perfbench::kernels;
use perfbench::{
    median, percentile, run_rep, Rep, Setup, Workload, PARALLEL_THREADS, PROJECT_SEED,
};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Minimum timed repetitions of each kind, so a median always has a base
/// even when `--seconds` is shorter than a repetition.
const MIN_REPS: usize = 3;

/// Largest disagreement allowed between a layer sum and the time it
/// accounts for.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// The kinds of timed repetition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Untraced at the workload's own thread count: the end-to-end rows.
    Plain = 0,
    /// Traced (`HOSTPROF`, chunked runs, timed fleet calls).
    Traced = 1,
    /// Untraced on the parallel worker path (`core.parallel_speedup`).
    Parallel = 2,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = PROJECT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' ({})", names.join("|"))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0|1)")),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn print_rep(label: &str, rep: &Rep, verdict: &str) {
    let mut line = format!(
        "{label} setup_s={:.6} wall_s={:.6} traced={}",
        rep.setup_s,
        rep.wall_s,
        u8::from(rep.layers.is_some())
    );
    for (name, d) in &rep.digests {
        write!(line, " {name}={d:#018x}").expect("write to String");
    }
    let hwm = peak_rss_mb().unwrap_or(0.0);
    println!("{line} lost={} hwm_mb={hwm:.1} verdict={verdict}", rep.lost);
}

/// A metric as printed: name, unit, value.
struct Metric(&'static str, &'static str, f64);

fn print_summary(name: &str, unit: &str, samples: &[f64]) {
    println!(
        "METRIC {name} median={:.6} min={:.6} max={:.6} n={} unit={unit}",
        median(samples),
        percentile(samples, 0.0),
        percentile(samples, 100.0),
        samples.len()
    );
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, Metric(name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN/inf; a non-finite value is written as 0 and
        // makes the run incorrect (see `run`).
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let setup = Setup::new(args.workload, args.seed);
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "WORKLOAD={} seed={} threads={} sched={:?} nodes={} sim_window_s={} host_cpus={host_cpus} trace={}",
        args.workload.name(),
        args.seed,
        setup.cfg.threads,
        setup.cfg.sched,
        setup.fleet.map_or(1, |f| f.nodes),
        setup.plan.end().as_secs_f64(),
        u8::from(args.trace)
    );

    // The untimed reference repetition warms the process up and fixes the
    // digests and counts every later repetition must reproduce. It runs on
    // the parallel worker path and the timed repetitions at one thread, so
    // every timed repetition also proves thread-count invariance.
    let reference = catch_unwind(AssertUnwindSafe(|| {
        run_rep(&setup.with_threads(PARALLEL_THREADS), false)
    }))
    .map_err(|_| "the reference repetition panicked".to_string())?;
    let ref_ok = reference.lost == 0;
    print_rep(
        &format!("REF threads={PARALLEL_THREADS}"),
        &reference,
        if ref_ok { "ok" } else { "fail" },
    );
    // Peak memory of a fresh process that has run the workload once, as a
    // CLI user runs it. Later repetitions only add allocator fragmentation
    // left by earlier ones.
    let peak_rss = peak_rss_mb()?;
    let mut attempted = 1;
    let mut failed = usize::from(!ref_ok);

    // Untraced, traced and parallel repetitions take turns (the kind
    // with the fewest passing repetitions runs next), so host drift hits
    // each kind alike.
    let kinds: &[Kind] = if args.trace {
        &[Kind::Plain, Kind::Traced, Kind::Parallel]
    } else {
        &[Kind::Plain]
    };
    let mut reps: [Vec<Rep>; 3] = Default::default();
    let t0 = Instant::now();
    loop {
        let enough = kinds.iter().all(|&k| reps[k as usize].len() >= MIN_REPS);
        if enough && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let kind = *kinds
            .iter()
            .min_by_key(|&&k| reps[k as usize].len())
            .expect("at least one kind");
        let rep_setup = match kind {
            Kind::Parallel => setup.with_threads(PARALLEL_THREADS),
            Kind::Plain | Kind::Traced => setup.clone(),
        };
        attempted += 1;
        let label = format!("REP{attempted} kind={kind:?}");
        match catch_unwind(AssertUnwindSafe(|| {
            run_rep(&rep_setup, kind == Kind::Traced)
        })) {
            Ok(rep) => {
                let ok = rep.lost == 0
                    && rep.digests == reference.digests
                    && rep.counts == reference.counts;
                print_rep(&label, &rep, if ok { "ok" } else { "fail" });
                if ok {
                    reps[kind as usize].push(rep);
                } else {
                    failed += 1;
                }
            }
            Err(_) => {
                println!("{label} verdict=fail (panicked)");
                failed += 1;
            }
        }
        if failed > 0 && reps.iter().all(Vec::is_empty) && attempted > 2 * MIN_REPS {
            break;
        }
    }
    if kinds.iter().any(|&k| reps[k as usize].is_empty()) {
        return Err(format!(
            "no repetition passed its checks ({failed} of {attempted} failed)"
        ));
    }
    let [plain, traced, parallel] = reps;

    let mut line = String::from("COUNTS");
    for (name, value) in reference.counts.fields() {
        write!(line, " {name}={value}").expect("write to String");
    }
    let (btree, btree_nodes) = kernels::btree(&setup.cfg);
    println!(
        "{line} btree_lookups={} btree_nodes_per_lookup={btree_nodes}",
        btree.ops
    );

    let wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let setup_s: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    let cycles_rate: Vec<f64> = plain
        .iter()
        .map(|r| r.counts.cycles as f64 / r.wall_s)
        .collect();
    let request_rate: Vec<f64> = plain
        .iter()
        .map(|r| r.counts.requests as f64 / r.wall_s)
        .collect();
    print_summary("wall_s", "s", &wall);
    print_summary("setup_s", "s", &setup_s);
    print_summary("sim_cycles_per_host_s", "cycles/s", &cycles_rate);
    print_summary("sim_requests_per_host_s", "req/s", &request_rate);
    println!("FAILED_RUNS={failed}/{attempted}");

    let (correct, metrics) = if args.trace {
        layer_metrics(
            &setup,
            &reference,
            [&plain, &traced, &parallel],
            btree,
            btree_nodes,
        )?
    } else {
        println!("METRIC peak_rss_mb value={peak_rss:.3} n=1 unit=MiB");
        let metrics = vec![
            Metric("wall_s", "s", median(&wall)),
            Metric("setup_s", "s", median(&setup_s)),
            Metric("sim_cycles_per_host_s", "cycles/s", median(&cycles_rate)),
            Metric("sim_requests_per_host_s", "req/s", median(&request_rate)),
            Metric("peak_rss_mb", "MiB", peak_rss),
        ];
        (true, metrics)
    };
    println!(
        "{}",
        json_line(
            correct && failed == 0 && metrics.iter().all(|m| m.2.is_finite()),
            attempted,
            failed,
            &metrics
        )
    );
    Ok(())
}

/// The `--trace 1` metrics: medians over the traced repetitions, the
/// kernel replays, and the two accounting checks.
fn layer_metrics(
    setup: &Setup,
    reference: &Rep,
    [plain, traced, parallel]: [&[Rep]; 3],
    btree: kernels::KernelRow,
    btree_nodes: f64,
) -> Result<(bool, Vec<Metric>), String> {
    let layers: Vec<_> = traced.iter().filter_map(|r| r.layers.as_ref()).collect();
    let med = |f: &dyn Fn(&perfbench::Layers) -> f64| {
        median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let parallel_wall = median(&parallel.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let section = |i: usize| med(&|l| l.sections_s[i] * 1e3);
    let counts = reference.counts;
    let hpm = reference.hpm;

    let execute_spans = layers[0].execute_spans;
    if layers.iter().any(|l| l.execute_spans != execute_spans) {
        return Err("execute span count differs between traced repetitions".into());
    }
    let us_per_quantum =
        med(&|l| l.sections_s.iter().sum::<f64>()) * 1e6 / counts.quanta_executed.max(1) as f64;
    let chunk_p50 = med(&|l| percentile(&l.chunks_s, 50.0) * 1e3);
    let chunk_p99 = med(&|l| percentile(&l.chunks_s, 99.0) * 1e3);

    // Accounting. The engines' own HOSTPROF rows must match the
    // bench-timed engine time. `cluster.self_ms` is the remainder of the
    // wall time after the timed engine, snapshot and restore calls, so the
    // four cluster rows sum to the wall time exactly; what is checked is
    // that the timed calls never exceed it (no double counting).
    let lb_self_s = |r: &Rep| {
        let l = r.layers.as_ref().expect("traced repetitions carry layers");
        r.wall_s - l.node_run_s - l.snapshot_s - l.restore_s
    };
    let mut correct = true;
    for (i, rep) in traced.iter().enumerate() {
        let l = rep
            .layers
            .as_ref()
            .expect("traced repetitions carry layers");
        let core_ratio = l.sections_s.iter().sum::<f64>() / l.node_run_s;
        let lb_self = lb_self_s(rep);
        let ok = (core_ratio - 1.0).abs() <= ACCOUNTING_TOLERANCE && lb_self >= 0.0;
        correct &= ok;
        println!(
            "CHECK traced{} core_rows/engine_time={core_ratio:.4} timed_calls/wall={:.4} lb_self_ms={:.3} {}",
            i + 1,
            (rep.wall_s - lb_self) / rep.wall_s,
            lb_self * 1e3,
            if ok { "ok" } else { "fail" }
        );
    }

    let t = Instant::now();
    let cpu = kernels::cpu(&setup.cfg);
    let gc = kernels::gc(&setup.cfg);
    let (arrival, arrivals) = kernels::arrivals(setup);
    let wake = kernels::wake_heap(setup);
    let image = &layers[0].end_state;
    let snap = kernels::snapshots(setup, image, setup.fleet.is_some());
    println!("KERNELS host_s={:.3}", t.elapsed().as_secs_f64());

    // On one node there is no LB: the engine is the node, and the
    // snapshot/restore rows are one LB-style snapshot and warm restart of
    // the end-of-run state.
    let (snapshot_ms, restore_ms) = if setup.fleet.is_some() {
        (med(&|l| l.snapshot_s * 1e3), med(&|l| l.restore_s * 1e3))
    } else {
        (snap.snapshot_s * 1e3, snap.restore_s * 1e3)
    };
    let node_run_ms = med(&|l| l.node_run_s * 1e3);
    let self_ms = median(
        &traced
            .iter()
            .map(|r| lb_self_s(r) * 1e3)
            .collect::<Vec<_>>(),
    );

    let c = |v: u64| v as f64;
    let metrics = vec![
        Metric("core.schedule_ms", "ms", section(0)),
        Metric("core.plan_ms", "ms", section(1)),
        Metric("core.execute_ms", "ms", section(2)),
        Metric("core.reconcile_ms", "ms", section(3)),
        Metric("core.gc_ms", "ms", section(4)),
        Metric("core.instruments_ms", "ms", section(5)),
        Metric("core.execute_spans", "count", c(execute_spans)),
        Metric("core.us_per_executed_quantum", "us", us_per_quantum),
        Metric("core.chunk_p50_ms", "ms", chunk_p50),
        Metric("core.chunk_p99_ms", "ms", chunk_p99),
        Metric("core.quanta_executed", "count", c(counts.quanta_executed)),
        Metric("core.quanta_skipped", "count", c(counts.quanta_skipped)),
        Metric("core.wake_events", "count", c(counts.wake_events)),
        Metric("cpu.uops", "count", c(counts.uops)),
        Metric("cpu.cycles", "count", c(counts.cycles)),
        Metric("cpu.replay_uops", "count", c(cpu.machine.ops)),
        Metric("cpu.machine_ns_per_uop", "ns", cpu.machine.ns_per_op),
        Metric("cpu.stream_ns_per_uop", "ns", cpu.stream.ns_per_op),
        Metric("cpu.l1d_probes", "count", c(cpu.l1d.ops)),
        Metric("cpu.l1d_ns_per_probe", "ns", cpu.l1d.ns_per_op),
        Metric("cpu.tlb_translations", "count", c(cpu.tlb.ops)),
        Metric("cpu.tlb_ns_per_translation", "ns", cpu.tlb.ns_per_op),
        Metric("cpu.branch_predicts", "count", c(cpu.branch.ops)),
        Metric("cpu.branch_ns_per_predict", "ns", cpu.branch.ns_per_op),
        Metric("cpu.prefetch_calls", "count", c(cpu.prefetch.ops)),
        Metric("cpu.prefetch_ns_per_call", "ns", cpu.prefetch.ns_per_op),
        Metric("cpu.hierarchy_misses", "count", c(cpu.hierarchy.ops)),
        Metric("cpu.hierarchy_ns_per_miss", "ns", cpu.hierarchy.ns_per_op),
        Metric("hpm.cpi", "ratio", hpm.cpi),
        Metric(
            "hpm.cond_mispredict_rate",
            "ratio",
            hpm.cond_mispredict_rate,
        ),
        Metric("hpm.l1d_load_miss_rate", "ratio", hpm.l1d_load_miss_rate),
        Metric("hpm.derat_tlb_share", "ratio", hpm.derat_tlb_share),
        Metric("jvm.gc_collections", "count", c(counts.gc_collections)),
        Metric("jvm.objects_marked", "count", c(gc.ops)),
        Metric("jvm.gc_ns_per_object", "ns", gc.ns_per_op),
        Metric("db.btree_lookups", "count", c(btree.ops)),
        Metric("db.btree_ns_per_lookup", "ns", btree.ns_per_op),
        Metric("db.btree_nodes_per_lookup", "count", btree_nodes),
        Metric(
            "db.bufferpool_hit_rate",
            "ratio",
            c(counts.pool_hits) / c(counts.pool_accesses.max(1)),
        ),
        Metric("db.lock_waits", "count", c(counts.lock_waits)),
        Metric("workload.arrivals", "count", c(arrivals)),
        Metric("workload.arrival_draws", "count", c(arrival.ops)),
        Metric("workload.ns_per_arrival", "ns", arrival.ns_per_op),
        Metric("simkernel.wakeheap_ops", "count", c(wake.ops)),
        Metric("simkernel.wakeheap_ns_per_op", "ns", wake.ns_per_op),
        Metric(
            "simkernel.snapshot_bytes",
            "bytes",
            c(counts.snapshot_bytes),
        ),
        Metric("simkernel.save_mb_per_s", "MB/s", snap.save_mb_per_s),
        Metric("simkernel.load_mb_per_s", "MB/s", snap.load_mb_per_s),
        Metric("cluster.node_run_ms", "ms", node_run_ms),
        Metric("cluster.snapshot_ms", "ms", snapshot_ms),
        Metric("cluster.restore_ms", "ms", restore_ms),
        Metric("cluster.self_ms", "ms", self_ms),
        Metric("cluster.dispatched", "count", c(counts.dispatched)),
        Metric("cluster.restarts", "count", c(counts.restarts)),
        Metric("cluster.scale_events", "count", c(counts.scale_events)),
        Metric("faults.injected", "count", c(counts.faults_injected)),
        Metric("appserver.retries", "count", c(counts.retries)),
        Metric("appserver.breaker_opens", "count", c(counts.breaker_opens)),
        Metric("core.parallel_speedup", "ratio", plain_wall / parallel_wall),
        Metric("trace.overhead_ratio", "ratio", traced_wall / plain_wall),
    ];
    for Metric(name, unit, value) in &metrics {
        println!("LAYER {name}={value} unit={unit}");
    }
    println!(
        "PAPER hpm.cpi~3 hpm.cond_mispredict_rate~0.06 hpm.l1d_load_miss_rate~0.08 hpm.derat_tlb_share~0.75"
    );
    Ok((correct, metrics))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
