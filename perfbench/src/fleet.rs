//! The fleet driven from outside: `jas_cluster::Cluster` over
//! [`TimedNode`]s, each an [`EngineNode`] whose `ClusterNode` calls are
//! timed by the benchmark. Node construction mirrors
//! `jas2004::run_cluster_with` exactly (the `wrapper_equivalence` test
//! checks the digests bit for bit), so timing from outside does not
//! change the program being measured.

use crate::workloads::FleetShape;
use jas2004::{EngineNode, RunPlan, SutConfig};
use jas_cluster::{ArrivalStream, Cluster, ClusterConfig, ClusterNode};
use jas_cpu::CounterFile;
use jas_simkernel::SimTime;
use jas_trace::hostprof::HostProfReport;
use jas_workload::{Driver, DriverConfig, Metrics, RequestKind};
use std::cell::{Ref, RefCell};
use std::time::{Duration, Instant};

/// `jas2004::fleet`'s per-node seed salt: node `i` runs seed
/// `seed ^ i * NODE_SEED_SALT`.
const NODE_SEED_SALT: u64 = 0x4E4F_4445_5345_4544;

/// `jas2004::fleet`'s LB epoch length in quanta.
const EPOCH_QUANTA: u64 = 8;

/// Host time one node spent in each kind of LB call.
#[derive(Clone, Debug, Default)]
pub struct NodeTimes {
    /// `run_to` and `finish`.
    pub run: Duration,
    /// `snapshot`.
    pub snapshot: Duration,
    /// `restore` (engine construction plus state load).
    pub restore: Duration,
    /// Each `run_to` call, for the chunk-time percentiles.
    pub chunks: Vec<Duration>,
}

/// An [`EngineNode`] with bench-side timers around every `ClusterNode`
/// call that does real work, plus the byte count of every snapshot.
pub struct TimedNode {
    /// In a cell so the end-of-run state can be saved after the run,
    /// when the LB only hands out shared references to its nodes.
    inner: RefCell<EngineNode>,
    timed: bool,
    /// Host times (empty when untimed).
    pub times: NodeTimes,
    /// Bytes of every snapshot the LB took.
    pub snapshot_bytes: u64,
    /// Host profiles of engines a restore replaced: the LB swaps the
    /// engine out, so their `HOSTPROF` rows would otherwise be lost.
    pub retired_profiles: Vec<HostProfReport>,
}

impl TimedNode {
    fn new(cfg: SutConfig, plan: RunPlan, timed: bool) -> TimedNode {
        TimedNode {
            inner: RefCell::new(EngineNode::new(cfg, plan)),
            timed,
            times: NodeTimes::default(),
            snapshot_bytes: 0,
            retired_profiles: Vec::new(),
        }
    }

    /// The wrapped node.
    #[must_use]
    pub fn node(&self) -> Ref<'_, EngineNode> {
        self.inner.borrow()
    }

    /// The node's current state image (what a snapshot would hold).
    #[must_use]
    pub fn state_image(&self) -> Vec<u8> {
        self.inner.borrow_mut().snapshot()
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut EngineNode) -> T) -> (T, Duration) {
        let node = self.inner.get_mut();
        if self.timed {
            let t0 = Instant::now();
            let out = f(node);
            (out, t0.elapsed())
        } else {
            (f(node), Duration::ZERO)
        }
    }
}

impl ClusterNode for TimedNode {
    fn now(&self) -> SimTime {
        self.inner.borrow().now()
    }

    fn run_to(&mut self, until: SimTime) {
        let ((), dt) = self.timed(|n| n.run_to(until));
        if self.timed {
            self.times.run += dt;
            self.times.chunks.push(dt);
        }
    }

    fn push_arrival(&mut self, at: SimTime, kind: RequestKind) {
        self.inner.get_mut().push_arrival(at, kind);
    }

    fn completed(&self) -> u64 {
        self.inner.borrow().completed()
    }

    fn errored(&self) -> u64 {
        self.inner.borrow().errored()
    }

    fn in_flight(&self) -> u64 {
        self.inner.borrow().in_flight()
    }

    fn snapshot(&mut self) -> Vec<u8> {
        let (bytes, dt) = self.timed(EngineNode::snapshot);
        self.times.snapshot += dt;
        self.snapshot_bytes += bytes.len() as u64;
        bytes
    }

    fn restore(&mut self, bytes: &[u8]) {
        if let Some(report) = self.inner.get_mut().engine().host_profile() {
            self.retired_profiles.push(report);
        }
        let ((), dt) = self.timed(|n| n.restore(bytes));
        self.times.restore += dt;
    }

    fn finish(&mut self) {
        let ((), dt) = self.timed(EngineNode::finish);
        self.times.run += dt;
    }

    fn hpm_digest(&self) -> u64 {
        self.inner.borrow().hpm_digest()
    }

    fn trace_digest(&self) -> u64 {
        self.inner.borrow().trace_digest()
    }

    fn fault_digest(&self) -> u64 {
        self.inner.borrow().fault_digest()
    }

    fn counters(&self) -> CounterFile {
        self.inner.borrow().counters()
    }

    fn metrics(&self) -> Metrics {
        self.inner.borrow().metrics()
    }
}

/// A fleet ready to run, plus its LB arrival stream.
pub struct Fleet {
    /// The LB over the timed nodes.
    pub cluster: Cluster<TimedNode>,
    arrivals: Driver,
    end: SimTime,
}

impl Fleet {
    /// Builds the fleet exactly as `jas2004::run_cluster_with` does.
    #[must_use]
    pub fn build(cfg: &SutConfig, plan: RunPlan, shape: &FleetShape, timed: bool) -> Fleet {
        let nodes: Vec<TimedNode> = (0..shape.nodes)
            .map(|i| {
                let mut node_cfg = cfg.clone();
                node_cfg.seed = cfg.seed ^ (i as u64).wrapping_mul(NODE_SEED_SALT);
                node_cfg.faults.plan = cfg.faults.plan.local_only();
                TimedNode::new(node_cfg, plan, timed)
            })
            .collect();
        let lb_metrics = Metrics::new(plan.throughput_bin, plan.steady_start(), plan.end());
        let defaults = ClusterConfig::default();
        let cluster_cfg = ClusterConfig {
            nodes: shape.nodes,
            dispatch: shape.dispatch,
            epoch: cfg.quantum * EPOCH_QUANTA,
            seed: cfg.seed,
            plan: cfg.faults.plan.clone(),
            retry: cfg.faults.retry,
            autoscale: shape.autoscale,
            max_in_flight: shape.max_in_flight,
            ..defaults
        };
        Fleet {
            cluster: Cluster::new(cluster_cfg, nodes, lb_metrics),
            arrivals: Driver::with_curve(DriverConfig::at_ir(cfg.ir), cfg.curve.clone()),
            end: plan.end(),
        }
    }

    /// Runs the whole plan and closes every node's instrument windows.
    pub fn run(&mut self) {
        let arrivals: &mut dyn ArrivalStream = &mut self.arrivals;
        self.cluster.run(arrivals, self.end);
        self.cluster.finish();
    }
}
