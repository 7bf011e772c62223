//! The three benchmark workloads, built from the seed through the same
//! public configuration surface the `jas2004` CLI uses.
//!
//! Why each workload exists, and which layer it loads or bypasses, is
//! recorded in `perfbench/README.md`.

use jas2004::{AutoscaleConfig, DispatchPolicy, RunPlan, SchedMode, SutConfig};
use jas_scenario::ScenarioSpec;
use jas_simkernel::SimDuration;

/// The project seed (`SutConfig::default().seed`), the benchmark's
/// default `--seed`.
#[allow(clippy::unusual_byte_groupings)] // grouped to spell "JAS2004" in ASCII
pub const PROJECT_SEED: u64 = 0x4A41_5332_3030_34;

/// `HPM_DIGEST` of `jas2004 --scenario scenarios/steady-40.toml` at the
/// project seed and `--threads 1`: the full steady-40 window must
/// reproduce it at [`PARALLEL_THREADS`].
pub const STEADY40_HPM_DIGEST: u64 = 0x5658_0c1c_b94c_10e8;

/// Host threads of the parallel worker path (the measurement host has two
/// CPUs): the reference repetition and the traced run's parallel
/// repetitions use it. Timed end-to-end repetitions run at one thread: on
/// a shared 2-CPU host two-thread wall times spread too widely across
/// runs to bound a regression (see README.md, "Host noise").
pub const PARALLEL_THREADS: usize = 2;

const STEADY40_SPEC: &str = include_str!("../../scenarios/steady-40.toml");
const FLEET_SPEC: &str = include_str!("../workloads/fleet-flash-crash.toml");

/// Steady-state seconds simulated per `steady-ir40` repetition. The
/// scenario's own 30 s window costs ~15 s of host time, which would leave
/// one or two repetitions per run; 3 s after the 5 s ramp keeps the
/// operating point and allows a median over several repetitions.
const STEADY40_BENCH_STEADY_S: u64 = 3;

/// Modelled clock of the `fleet-flash-crash` nodes (as in the
/// `chaos_failover` example): each modelled instruction stands for more
/// real ones, so a repetition costs ~3 s of host time instead of ~11 s
/// while the queueing behaviour stays at the same load point.
const FLEET_FREQUENCY_HZ: f64 = 500_000.0;

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Flat IR40 on one node, quantum scheduler.
    SteadyIr40,
    /// IR 1 on a 250 kHz clock under the event scheduler, one thread.
    IdleIr1,
    /// The 3-node flash crowd with crashes and a GC storm, one thread.
    FleetFlashCrash,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyIr40,
        Workload::IdleIr1,
        Workload::FleetFlashCrash,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyIr40 => "steady-ir40",
            Workload::IdleIr1 => "idle-ir1",
            Workload::FleetFlashCrash => "fleet-flash-crash",
        }
    }

    /// Looks a workload up by its `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fleet topology of a multi-node workload.
#[derive(Clone, Copy, Debug)]
pub struct FleetShape {
    /// Node count.
    pub nodes: usize,
    /// LB dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Reactive autoscaler.
    pub autoscale: Option<AutoscaleConfig>,
    /// Admission cap.
    pub max_in_flight: u64,
}

/// Everything needed to run one repetition of a workload.
#[derive(Clone, Debug)]
pub struct Setup {
    /// SUT configuration (node 0's, for a fleet).
    pub cfg: SutConfig,
    /// Simulated window of one repetition.
    pub plan: RunPlan,
    /// The fleet, when the workload is multi-node.
    pub fleet: Option<FleetShape>,
}

fn parse_spec(text: &str) -> ScenarioSpec {
    ScenarioSpec::parse(text).expect("benchmark scenario spec parses and matches its pin")
}

/// The configuration and plan `jas2004 --scenario <spec>` derives.
fn from_spec(spec: &ScenarioSpec, seed: u64) -> (SutConfig, RunPlan) {
    let mut cfg = SutConfig::at_ir(spec.ir);
    cfg.seed = seed;
    cfg.curve = spec.compile_curve();
    cfg.faults.plan = spec.plan();
    cfg.trace = spec.trace_spec();
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(spec.ramp_s),
        steady: SimDuration::from_secs(spec.steady_s),
        ..RunPlan::default()
    };
    (cfg, plan)
}

impl Setup {
    /// The benchmark repetition of `workload` at `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Setup {
        match workload {
            Workload::SteadyIr40 => {
                let mut setup = Setup::steady40_full(seed);
                setup.plan.steady = SimDuration::from_secs(STEADY40_BENCH_STEADY_S);
                setup
            }
            Workload::IdleIr1 => {
                let mut cfg = SutConfig::at_ir(1);
                cfg.seed = seed;
                cfg.machine.frequency_hz = 250_000.0;
                cfg.sched = SchedMode::Event;
                let plan = RunPlan {
                    ramp_up: SimDuration::from_secs(5),
                    steady: SimDuration::from_secs(1500),
                    // A 1 s sampler period lets the event scheduler batch
                    // idle quanta, as in the engine_idle_heavy bench.
                    hpm_period: SimDuration::from_secs(1),
                    throughput_bin: SimDuration::from_secs(5),
                };
                Setup {
                    cfg,
                    plan,
                    fleet: None,
                }
            }
            Workload::FleetFlashCrash => {
                let spec = parse_spec(FLEET_SPEC);
                let (mut cfg, plan) = from_spec(&spec, seed);
                cfg.machine.frequency_hz = FLEET_FREQUENCY_HZ;
                Setup {
                    cfg,
                    plan,
                    fleet: Some(FleetShape {
                        nodes: spec.nodes,
                        dispatch: spec.dispatch,
                        autoscale: spec.autoscale,
                        max_in_flight: spec.max_in_flight,
                    }),
                }
            }
        }
    }

    /// `scenarios/steady-40.toml` over its own full window, configured as
    /// `jas2004 --scenario` configures it.
    #[must_use]
    pub fn steady40_full(seed: u64) -> Setup {
        let (cfg, plan) = from_spec(&parse_spec(STEADY40_SPEC), seed);
        Setup {
            cfg,
            plan,
            fleet: None,
        }
    }

    /// The same repetition at another host thread count (digest-equivalent
    /// by the engine's determinism contract).
    #[must_use]
    pub fn with_threads(&self, threads: usize) -> Setup {
        let mut setup = self.clone();
        setup.cfg.threads = threads;
        setup
    }
}
