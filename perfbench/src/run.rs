//! One repetition of a workload: build, run, and collect what the
//! benchmark checks (digests, deterministic work counts) and, when
//! traced, the per-layer host times.

use crate::fleet::Fleet;
use crate::workloads::{FleetShape, Setup};
use jas2004::{Engine, FaultCounters, HpmEvent, RunPlan, SutConfig};
use jas_cpu::CounterFile;
use jas_simkernel::{Saver, SimTime};
use jas_trace::HostProfReport;
use std::time::Instant;

/// Index of the execute phase in `HostSection::ALL` order.
const EXECUTE: usize = 2;

/// Deterministic work counts of one repetition. A change in any of these
/// is a change in simulated work, not host jitter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated instructions completed (all cores, all nodes).
    pub uops: u64,
    /// Simulated cycles (all cores, all nodes).
    pub cycles: u64,
    /// Simulated requests completed.
    pub requests: u64,
    /// Quanta the engine executed.
    pub quanta_executed: u64,
    /// Quanta the event scheduler skipped as provably idle.
    pub quanta_skipped: u64,
    /// Wake-ups the event scheduler dispatched.
    pub wake_events: u64,
    /// Garbage collections.
    pub gc_collections: u64,
    /// Buffer-pool page touches.
    pub pool_accesses: u64,
    /// Buffer-pool touches served without I/O.
    pub pool_hits: u64,
    /// Lock acquisitions refused (the requester waits).
    pub lock_waits: u64,
    /// Faults injected (node-local kinds plus LB node crashes).
    pub faults_injected: u64,
    /// Database statement retries.
    pub retries: u64,
    /// Circuit-breaker openings.
    pub breaker_opens: u64,
    /// Requests the LB dispatched.
    pub dispatched: u64,
    /// Warm restarts after a crash.
    pub restarts: u64,
    /// Autoscaler actions (ups plus downs).
    pub scale_events: u64,
    /// State-image bytes: the end-of-run `persist_state` image on one
    /// node; every snapshot the LB took in a fleet.
    pub snapshot_bytes: u64,
}

impl Counts {
    /// Every count with its report name.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("uops", self.uops),
            ("cycles", self.cycles),
            ("requests", self.requests),
            ("quanta_executed", self.quanta_executed),
            ("quanta_skipped", self.quanta_skipped),
            ("wake_events", self.wake_events),
            ("gc_collections", self.gc_collections),
            ("pool_accesses", self.pool_accesses),
            ("pool_hits", self.pool_hits),
            ("lock_waits", self.lock_waits),
            ("faults_injected", self.faults_injected),
            ("retries", self.retries),
            ("breaker_opens", self.breaker_opens),
            ("dispatched", self.dispatched),
            ("restarts", self.restarts),
            ("scale_events", self.scale_events),
            ("snapshot_bytes", self.snapshot_bytes),
        ]
    }

    fn add_engine(&mut self, engine: &Engine) {
        let totals = engine.total_counters();
        self.uops += totals.get(HpmEvent::InstCompleted);
        self.cycles += totals.get(HpmEvent::Cycles);
        let sched = engine.sched_stats();
        self.quanta_executed += sched.quanta_executed;
        self.quanta_skipped += sched.idle_ticks_skipped;
        self.wake_events += sched.events_dispatched;
        self.gc_collections += engine.jvm().gc_count();
        let pool = engine.db().pool_stats();
        self.pool_accesses += pool.accesses;
        self.pool_hits += pool.hits;
        self.lock_waits += engine.db().txn_stats().conflicts;
        let faults: &FaultCounters = engine.fault_counters();
        self.faults_injected += faults.injected.iter().sum::<u64>();
        self.retries += faults.retries;
        self.breaker_opens += faults.breaker_opens;
    }
}

/// Model-accuracy ratios from the machine counters; each has a paper
/// value in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HpmRatios {
    /// Cycles per instruction (paper ~3).
    pub cpi: f64,
    /// Conditional mispredictions per branch (paper ~6%).
    pub cond_mispredict_rate: f64,
    /// L1 D-cache load misses per load (paper ~8%).
    pub l1d_load_miss_rate: f64,
    /// Share of DERAT misses the TLB satisfies (paper ~75%).
    pub derat_tlb_share: f64,
}

impl HpmRatios {
    fn of(c: &CounterFile) -> HpmRatios {
        let ratio = |n: HpmEvent, d: HpmEvent| c.get(n) as f64 / c.get(d).max(1) as f64;
        HpmRatios {
            cpi: ratio(HpmEvent::Cycles, HpmEvent::InstCompleted),
            cond_mispredict_rate: ratio(HpmEvent::BrMpredCond, HpmEvent::Branches),
            l1d_load_miss_rate: ratio(HpmEvent::LoadMissL1, HpmEvent::LoadRefs),
            derat_tlb_share: 1.0 - ratio(HpmEvent::DtlbMiss, HpmEvent::DeratMiss),
        }
    }
}

/// Host times of one traced repetition, split by layer.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `HOSTPROF` section seconds in `HostSection::ALL` order, summed over
    /// every engine that ran (including ones a warm restart replaced).
    pub sections_s: [f64; 6],
    /// `HOSTPROF` execute scopes (barrier rounds).
    pub execute_spans: u64,
    /// Seconds of each bench-timed `run_to` call: one per HPM period on a
    /// single node, one per node per LB epoch in a fleet.
    pub chunks_s: Vec<f64>,
    /// Seconds inside the engines (`run_to` and `run_to_end`/`finish`).
    pub node_run_s: f64,
    /// Seconds inside LB snapshot calls.
    pub snapshot_s: f64,
    /// Seconds inside LB warm-restart calls.
    pub restore_s: f64,
    /// The end-of-run state image the snapshot kernels load and save.
    pub end_state: Vec<u8>,
}

impl Layers {
    fn add_profile(&mut self, report: &HostProfReport) {
        for (acc, s) in self.sections_s.iter_mut().zip(report.section_secs) {
            *acc += s;
        }
        self.execute_spans += report.section_spans[EXECUTE];
    }
}

/// Outcome of one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Host seconds to build the engine or fleet.
    pub setup_s: f64,
    /// Host seconds from after construction to the end of the run.
    pub wall_s: f64,
    /// Every digest the run produced, by name.
    pub digests: Vec<(String, u64)>,
    /// Deterministic work counts.
    pub counts: Counts,
    /// Model-accuracy ratios.
    pub hpm: HpmRatios,
    /// Requests the fleet lost (conservation violations); 0 on one node.
    pub lost: u64,
    /// Per-layer host times, when traced.
    pub layers: Option<Layers>,
}

/// Runs one repetition of `setup`, traced or not.
#[must_use]
pub fn run_rep(setup: &Setup, traced: bool) -> Rep {
    let mut cfg = setup.cfg.clone();
    cfg.host_prof = traced;
    match &setup.fleet {
        None => run_single(cfg, setup.plan, traced),
        Some(shape) => run_fleet(&cfg, setup.plan, shape, traced),
    }
}

fn run_single(cfg: SutConfig, plan: RunPlan, traced: bool) -> Rep {
    let t0 = Instant::now();
    let mut engine = Engine::new(cfg, plan);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut layers = traced.then(Layers::default);
    if let Some(layers) = layers.as_mut() {
        // Chunked runs are digest-equivalent to straight ones; the chunk
        // boundaries are the HPM sampling instants.
        let mut at = SimTime::ZERO;
        while at < plan.end() {
            at = (at + plan.hpm_period).min(plan.end());
            let c0 = Instant::now();
            engine.run_to(at);
            layers.chunks_s.push(c0.elapsed().as_secs_f64());
        }
        let c0 = Instant::now();
        engine.run_to_end();
        layers.node_run_s = layers.chunks_s.iter().sum::<f64>() + c0.elapsed().as_secs_f64();
    } else {
        engine.run_to_end();
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut counts = Counts::default();
    counts.add_engine(&engine);
    counts.requests = engine.completed_requests();
    let mut digests = vec![("HPM_DIGEST".to_string(), engine.hpm_digest())];
    if !engine.config().faults.plan.is_empty() {
        digests.push(("FAULT_DIGEST".into(), engine.fault_log().digest()));
    }
    if engine.config().trace.enabled() {
        digests.push(("TRACE_DIGEST".into(), engine.tracer().digest()));
    }
    digests.push(("STATE_DIGEST".into(), engine.probe_digest()));
    let mut saver = Saver::new();
    engine.persist_state(&mut saver);
    let image = saver.into_bytes();
    counts.snapshot_bytes = image.len() as u64;
    if let Some(layers) = layers.as_mut() {
        if let Some(report) = engine.host_profile() {
            layers.add_profile(&report);
        }
        layers.end_state = image;
    }
    Rep {
        setup_s,
        wall_s,
        digests,
        counts,
        hpm: HpmRatios::of(&engine.total_counters()),
        lost: 0,
        layers,
    }
}

fn run_fleet(cfg: &SutConfig, plan: RunPlan, shape: &FleetShape, traced: bool) -> Rep {
    let t0 = Instant::now();
    let mut fleet = Fleet::build(cfg, plan, shape, traced);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    fleet.run();
    let wall_s = t1.elapsed().as_secs_f64();

    let cluster = &fleet.cluster;
    let stats = cluster.stats();
    let mut counts = Counts {
        requests: stats.completions,
        dispatched: stats.dispatched,
        restarts: stats.restarts,
        scale_events: stats.scale_ups + stats.scale_downs,
        // LB-injected node crashes; node-local kinds are added per node.
        faults_injected: stats.crashes,
        ..Counts::default()
    };
    let mut totals = CounterFile::new();
    let mut digests = vec![
        ("FLEET_HPM_DIGEST".to_string(), cluster.hpm_digest()),
        ("FLEET_TRACE_DIGEST".into(), cluster.trace_digest()),
        ("FLEET_FAULT_DIGEST".into(), cluster.fault_digest()),
    ];
    let mut layers = traced.then(Layers::default);
    for (i, node) in cluster.nodes().iter().enumerate() {
        let inner = node.node();
        let engine = inner.engine();
        counts.add_engine(engine);
        counts.snapshot_bytes += node.snapshot_bytes;
        totals.merge(&engine.total_counters());
        digests.push((format!("NODE{i}_HPM_DIGEST"), engine.hpm_digest()));
        digests.push((format!("NODE{i}_FAULT_DIGEST"), engine.fault_log().digest()));
        if let Some(layers) = layers.as_mut() {
            for report in node.retired_profiles.iter().chain(&engine.host_profile()) {
                layers.add_profile(report);
            }
            layers.node_run_s += node.times.run.as_secs_f64();
            layers.snapshot_s += node.times.snapshot.as_secs_f64();
            layers.restore_s += node.times.restore.as_secs_f64();
            layers
                .chunks_s
                .extend(node.times.chunks.iter().map(|d| d.as_secs_f64()));
        }
    }
    if let Some(layers) = layers.as_mut() {
        layers.end_state = cluster.nodes()[0].state_image();
    }
    Rep {
        setup_s,
        wall_s,
        digests,
        counts,
        hpm: HpmRatios::of(&totals),
        lost: cluster.verdict().lost,
        layers,
    }
}
