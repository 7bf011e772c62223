//! The `jas2004` command-line front end: run a configuration of the
//! simulated system and print the paper's figures.
//!
//! ```sh
//! cargo run --release --bin jas2004 -- --ir 40 --figure 9
//! jas2004 --scenario trade --figure 3
//! jas2004 --checkpoint-at 60 --checkpoint-out mid.jckpt
//! jas2004 --restore-from mid.jckpt --threads 4
//! jas2004 --fault-plan db-lock@120-180:0.5 --reduce --witness-out w.jwit
//! ```

use jas2004::cli::{parse_args, Cli, CliOptions, FigureSelect, USAGE};
use jas2004::{
    checkpoint_bytes, figures, reduce_divergence, report, restore_engine, run_artifacts_from,
    run_cluster_with, Engine, FaultPlan, FaultWindow, RunPlan, SutConfig,
};
use jas_hpm::PhaseHpm;
use jas_scenario::ScenarioOutcome;
use jas_simkernel::{SimDuration, SimTime};
use jas_workload::ReplayLog;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::Run(o)) => *o,
        Ok(Cli::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read '{}': {e}", path.display()))
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write '{}': {e}", path.display()))
}

/// Where the engine branch pauses on its way to the end of the run.
enum Stop<'a> {
    /// At this simulated time, write a `.jckpt` of the engine state to
    /// this path.
    Checkpoint(SimTime, &'a Path),
    /// Record the cumulative counters at this curve-phase boundary (s).
    Phase(f64),
}

/// The one run driver. `--reduce` runs its own engines; every other
/// invocation is either a load-balanced fleet (`nodes > 1`) or a single
/// engine, started fresh or restored, optionally recording or replaying
/// its request stream, paused at the checkpoint or at each curve-phase
/// boundary of a `--scenario <file>` spec. A spec run is bracketed by its
/// `SCENARIO_DIGEST` and `SCENARIO_VERDICT` lines.
fn run(options: CliOptions) -> Result<(), String> {
    let CliOptions {
        config,
        plan,
        select,
        trace_out,
        checkpoint_at,
        checkpoint_out,
        restore_from,
        record_out,
        replay_from,
        reduce,
        witness_out,
        nodes,
        dispatch,
        scenario_spec,
    } = options;
    if reduce {
        return run_reduce(config, plan, witness_out.as_deref());
    }
    let spec = scenario_spec.as_deref();
    let what = match spec {
        Some(spec) => format!(
            "scenario '{}' (curve {})",
            spec.name,
            spec.curve.kind_name()
        ),
        None => format!("({:?})", config.scenario),
    };
    eprintln!(
        "running IR{} {what} on {nodes} node(s), {:.0}s steady after {:.0}s ramp-up...",
        config.ir,
        plan.steady.as_secs_f64(),
        plan.ramp_up.as_secs_f64()
    );
    if let Some(spec) = spec {
        println!("SCENARIO_DIGEST={:#018x}", spec.digest());
    }
    let end_s = plan.end().as_secs_f64();
    let mut phases = PhaseHpm::new();
    let print_phases = |phases: &PhaseHpm, curve| {
        if let (Some(spec), FigureSelect::Scenario) = (spec, select) {
            let table = figures::scenario_table(&spec.name, curve, phases);
            print!("{}", report::render_scenario(&table));
        }
    };
    let outcome = if nodes > 1 {
        let art = run_cluster_with(
            &config,
            plan,
            nodes,
            dispatch,
            spec.and_then(|spec| spec.autoscale),
            spec.map(|spec| spec.max_in_flight),
            spec.is_some().then_some(&mut phases),
        );
        if matches!(select, FigureSelect::All | FigureSelect::Cluster) {
            print!("{}", report::render_cluster(&figures::cluster_table(&art)));
        }
        print_phases(&phases, &config.curve);
        let digests = [art.hpm_digest, art.trace_digest, art.fault_digest];
        print_digests(&config, digests, None);
        for (i, digest) in art.node_hpm_digests.iter().enumerate() {
            println!("NODE{i}_HPM_DIGEST={digest:#018x}");
        }
        if spec.is_some() {
            println!(
                "ACTIVE_NODES={} scale_ups={} scale_downs={}",
                art.active_nodes, art.stats.scale_ups, art.stats.scale_downs
            );
        }
        let v = &art.verdict;
        println!(
            "CLUSTER_VERDICT={} lost={} shed={} shed_fraction={:.4}",
            if v.lost == 0 && v.verdict.passed {
                "pass"
            } else {
                "fail"
            },
            v.lost,
            v.shed,
            v.shed_fraction
        );
        spec.map(|spec| ScenarioOutcome {
            web_p90: v.verdict.web_p90,
            rmi_p90: v.verdict.rmi_p90,
            error_rate: v.verdict.error_rate,
            shed_fraction: v.shed_fraction,
            slo_miss: art.metrics.slo_miss_fraction(spec.slo.web_p90_s),
            lost: v.lost,
        })
    } else {
        let mut engine = match restore_from.as_deref() {
            Some(path) => {
                let engine = restore_engine(&config, plan, &read_file(path)?)?;
                eprintln!(
                    "restored {} at t={:.3}s",
                    path.display(),
                    engine.now().as_secs_f64()
                );
                engine
            }
            None => Engine::new(config.clone(), plan),
        };
        if record_out.is_some() {
            engine.start_recording();
        }
        if let Some(path) = replay_from.as_deref() {
            engine.arm_replay(ReplayLog::from_bytes(&read_file(path)?)?);
            eprintln!("replaying {}", path.display());
        }
        // The CLI never combines `--checkpoint-at` with a spec.
        let stops: Vec<Stop> = match (checkpoint_at, checkpoint_out.as_deref()) {
            (Some(at), Some(out)) => vec![Stop::Checkpoint(SimTime::ZERO + at, out)],
            _ if spec.is_some() => {
                let bounds = config.curve.phase_boundaries(end_s);
                bounds.into_iter().map(Stop::Phase).collect()
            }
            _ => Vec::new(),
        };
        for stop in stops {
            match stop {
                Stop::Checkpoint(at, out) => {
                    engine.run_to(at);
                    let bytes = checkpoint_bytes(&mut engine);
                    write_file(out, &bytes)?;
                    println!(
                        "CKPT={} tick_ns={} bytes={}",
                        out.display(),
                        engine.now().as_nanos(),
                        bytes.len()
                    );
                }
                Stop::Phase(s) => {
                    engine.run_to(SimTime::ZERO + SimDuration::from_secs_f64(s));
                    phases.observe(s, &engine.total_counters());
                }
            }
        }
        engine.run_to_end();
        phases.observe(end_s, &engine.total_counters());
        if let Some(out) = record_out.as_deref() {
            let log = engine
                .take_recording()
                .expect("recording was started before the run");
            let bytes = log.to_bytes();
            write_file(out, &bytes)?;
            println!(
                "REPLAY_LOG={} arrivals={} bytes={}",
                out.display(),
                log.arrivals.len(),
                bytes.len()
            );
        }
        let slo_miss = spec.map(|spec| engine.metrics().slo_miss_fraction(spec.slo.web_p90_s));
        let art = run_artifacts_from(config, plan, engine);
        print_figures(&art, select);
        print_phases(&phases, &art.config.curve);
        let digests = [art.hpm_digest, art.trace_digest, art.fault_digest];
        print_digests(
            &art.config,
            digests,
            Some([art.trace.len(), art.fault_events]),
        );
        if let Some(path) = trace_out {
            let json = jas_trace::export::to_chrome_json(art.trace.events());
            write_file(&path, json.as_bytes())?;
            eprintln!("trace written to {}", path.display());
        }
        if let Some(text) = &art.hostprof_text {
            print!("{text}");
        }
        slo_miss.map(|slo_miss| ScenarioOutcome {
            web_p90: art.verdict.web_p90,
            rmi_p90: art.verdict.rmi_p90,
            error_rate: art.verdict.error_rate,
            shed_fraction: 0.0,
            slo_miss,
            lost: 0,
        })
    };
    if let (Some(spec), Some(outcome)) = (spec, outcome) {
        println!("{}", spec.verdict_line(&outcome));
    }
    Ok(())
}

/// Prints the `HPM_DIGEST` line, plus `TRACE_DIGEST` when tracing is on
/// and `FAULT_DIGEST` when a fault plan ran. `digests` is
/// `[hpm, trace, fault]`; `events` (`[trace, fault]` event counts) adds
/// an `events=` field to the last two — a single engine has them, a
/// fleet's folded digests do not.
fn print_digests(config: &SutConfig, digests: [u64; 3], events: Option<[usize; 2]>) {
    let [hpm, trace, fault] = digests;
    let count = |i: usize| events.map_or(String::new(), |n| format!(" events={}", n[i]));
    println!("HPM_DIGEST={hpm:#018x}");
    if config.trace.enabled() {
        println!("TRACE_DIGEST={trace:#018x}{}", count(0));
    }
    if !config.faults.plan.is_empty() {
        println!("FAULT_DIGEST={fault:#018x}{}", count(1));
    }
}

/// `--reduce`: bisect the first divergence between the configured fault
/// plan and the same windows at rate zero (both sides keep identical
/// window bounds so the fault monitor and injector draw RNG identically —
/// the first state difference is the first actual injection).
fn run_reduce(config: SutConfig, plan: RunPlan, witness_out: Option<&Path>) -> Result<(), String> {
    let faulty = config.clone();
    let mut healthy = config;
    healthy.faults.plan = FaultPlan::from_windows(
        faulty
            .faults
            .plan
            .windows()
            .iter()
            .map(|w| FaultWindow { rate_fp: 0, ..*w })
            .collect(),
    );
    eprintln!(
        "reducing: {} fault window(s) vs the same windows at rate 0...",
        faulty.faults.plan.windows().len()
    );
    let witness = reduce_divergence(&healthy, &faulty, plan, 16)?;
    println!(
        "REDUCE_WINDOW={:.3}s-{:.3}s fraction={:.4} digest_a={:#018x} digest_b={:#018x}",
        witness.window_start.as_secs_f64(),
        witness.window_end.as_secs_f64(),
        witness.window_fraction(),
        witness.digest_a,
        witness.digest_b
    );
    if let Some(path) = witness_out {
        let bytes = witness.to_bytes();
        write_file(path, &bytes)?;
        eprintln!(
            "witness written to {} ({} bytes)",
            path.display(),
            bytes.len()
        );
    }
    Ok(())
}

fn print_figures(art: &jas2004::RunArtifacts, select: FigureSelect) {
    let want = |n: u8| match select {
        FigureSelect::All => true,
        FigureSelect::Figure(x) => x == n,
        _ => false,
    };
    if want(2) {
        print!("{}", report::render_fig2(&figures::fig2_throughput(art)));
    }
    if want(3) {
        print!("{}", report::render_fig3(&figures::fig3_gc(art)));
    }
    if want(4) {
        print!("{}", report::render_fig4(&figures::fig4_profile(art)));
    }
    if want(5) {
        print!("{}", report::render_fig5(&figures::fig5_cpi(art)));
    }
    if want(6) {
        print!("{}", report::render_fig6(&figures::fig6_branch(art)));
    }
    if want(7) {
        print!("{}", report::render_fig7(&figures::fig7_tlb(art)));
    }
    if want(8) {
        print!("{}", report::render_fig8(&figures::fig8_l1d(art)));
    }
    if want(9) {
        print!("{}", report::render_fig9(&figures::fig9_data_from(art)));
    }
    if want(10) {
        print!("{}", report::render_fig10(&figures::fig10_correlation(art)));
    }
    if matches!(select, FigureSelect::All | FigureSelect::Locking) {
        print!("{}", report::render_locking(&figures::locking_table(art)));
    }
    if matches!(select, FigureSelect::All | FigureSelect::Utilization) {
        print!(
            "{}",
            report::render_utilization(&figures::utilization_table(art))
        );
    }
    if matches!(select, FigureSelect::Tprof) {
        print!("{}", report::render_tprof(&figures::tprof_table(art)));
    }
    if matches!(select, FigureSelect::Vmstat) {
        print!("{}", report::render_vmstat(&figures::vmstat_table(art)));
    }
    if matches!(select, FigureSelect::Sched) {
        print!("{}", report::render_sched(&figures::sched_table(art)));
    }
    // The resilience table prints on request, or in `all` mode whenever a
    // fault plan actually ran.
    if matches!(select, FigureSelect::Resilience)
        || (matches!(select, FigureSelect::All) && !art.config.faults.plan.is_empty())
    {
        print!(
            "{}",
            report::render_resilience(&figures::resilience_table(art))
        );
    }
}
