//! `jas2004` — a full-system simulation reproducing *"Characterizing a
//! Complex J2EE Workload: A Comprehensive Analysis and Opportunities for
//! Optimizations"* (Shuf & Steiner, ISPASS 2007).
//!
//! The paper is a measurement study of SPECjAppServer2004 on a POWER4
//! server. This crate assembles the whole measured system from the
//! substrate crates — CPU/memory hierarchy (`jas-cpu`), JVM (`jas-jvm`),
//! database (`jas-db`), application server (`jas-appserver`), workload
//! driver (`jas-workload`), measurement tools (`jas-hpm`) — couples them
//! on one simulated timeline ([`Engine`]), runs experiments
//! ([`run_experiment`]), and regenerates every figure and in-text table of
//! the paper's evaluation ([`figures`]).
//!
//! # Quick start
//!
//! ```no_run
//! use jas2004::{figures, report, run_experiment, RunPlan, SutConfig};
//!
//! let artifacts = run_experiment(SutConfig::at_ir(40), RunPlan::default());
//! let fig5 = figures::fig5_cpi(&artifacts);
//! println!("{}", report::render_fig5(&fig5));
//! ```
//!
//! See `DESIGN.md` for the substitution map (what the paper used → what is
//! built here) and `EXPERIMENTS.md` for paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod engine;
pub mod experiment;
pub mod figures;
pub mod fleet;
pub mod profiles;
pub mod reduce;
pub mod report;

pub use checkpoint::{checkpoint_bytes, config_fingerprint, restore_engine, validate_checkpoint};
pub use config::{FaultsConfig, RunPlan, ScenarioKind, SchedMode, SutConfig};
pub use engine::Engine;
pub use experiment::{run_artifacts_from, run_experiment, RunArtifacts};
pub use fleet::{run_cluster_with, ClusterArtifacts, EngineNode};
pub use jas_cluster::{AutoscaleConfig, ClusterVerdict, DispatchPolicy, FleetStats};
pub use jas_cpu::{CounterFile, HpmEvent};
pub use jas_faults::{FaultCounters, FaultKind, FaultPlan, FaultWindow};
pub use jas_trace::{TraceCategory, TraceEvent, TraceEventKind, TraceSpec, Tracer};
pub use reduce::{reduce_divergence, DivergenceWitness};

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SutConfig {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        cfg
    }

    /// Runs `cfg` to the end while recording its request stream.
    fn record(cfg: &SutConfig, plan: RunPlan) -> (RunArtifacts, jas_workload::ReplayLog) {
        let mut engine = Engine::new(cfg.clone(), plan);
        engine.start_recording();
        engine.run_to_end();
        let log = engine.take_recording().expect("recording was started");
        (run_artifacts_from(cfg.clone(), plan, engine), log)
    }

    /// Re-executes a recorded stream in place of the workload generator.
    fn replay(cfg: &SutConfig, plan: RunPlan, log: jas_workload::ReplayLog) -> RunArtifacts {
        let mut engine = Engine::new(cfg.clone(), plan);
        engine.arm_replay(log);
        engine.run_to_end();
        run_artifacts_from(cfg.clone(), plan, engine)
    }

    #[test]
    fn recorded_replay_reproduces_the_run() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let (original, log) = record(&cfg, plan);
        assert!(!log.is_empty());
        let replayed = replay(&cfg, plan, log);
        assert_eq!(replayed.jops, original.jops);
        assert_eq!(replayed.trace_digest, original.trace_digest);
        assert_eq!(replayed.fault_digest, original.fault_digest);
    }

    #[test]
    fn replay_matches_under_different_thread_count() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let (original, log) = record(&cfg, plan);
        let mut threaded = cfg.clone();
        threaded.threads = 4;
        let replayed = replay(&threaded, plan, log);
        assert_eq!(replayed.jops, original.jops);
        assert_eq!(replayed.trace_digest, original.trace_digest);
    }
}
