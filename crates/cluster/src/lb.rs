//! The front-end load balancer: epoch loop, health-checked failover,
//! admission control, and fleet accounting.
//!
//! All LB decisions happen on a single sequential timeline between node
//! epochs, from inputs that are themselves thread-count- and
//! scheduler-invariant, so fleet digests inherit the engine's
//! bit-identity guarantees (DESIGN.md §13).

use crate::dispatch::DispatchPolicy;
use crate::node::{ArrivalStream, ClusterNode};
use jas_appserver::RetryPolicy;
use jas_faults::{EventKind, FaultKind, FaultLog, FaultPlan};
use jas_hpm::FleetHpm;
use jas_simkernel::snapshot::WordDigest;
use jas_simkernel::{Rng, SimDuration, SimTime};
use jas_workload::{Metrics, RequestKind, Verdict};
use std::collections::{BTreeMap, VecDeque};

/// Salt folded into the fleet RNG seed so LB fault rolls are decoupled
/// from every node-local stream (the jas-faults discipline).
const FLEET_SALT: u64 = 0x464C_4545_5430_3031; // "FLEET001"

/// Reactive autoscaler tuning: epoch-driven activation/drain of warm
/// standby nodes against JOPS-per-node and response-time-SLO thresholds.
/// All decisions happen on the LB's sequential timeline in node-index
/// order, so scaling inherits the fleet's determinism guarantees.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoscaleConfig {
    /// Nodes kept in rotation at all times (the fleet starts with
    /// exactly this many active; the rest are warm standbys).
    pub min_nodes: usize,
    /// Upper bound on active nodes (must equal the fleet size).
    pub max_nodes: usize,
    /// Scale up when completions per active node per second exceed this.
    pub up_jops_per_node: f64,
    /// Scale down when completions per active node per second fall
    /// below this (and the SLO is comfortably met).
    pub down_jops_per_node: f64,
    /// Scale up when the fraction of completions breaching the response
    /// SLO exceeds this.
    pub slo_miss_fraction: f64,
    /// Response-time SLO in seconds a completion is judged against
    /// (epoch-granular upper bound: completion epoch end minus dispatch).
    pub slo_s: f64,
    /// Decision cadence in epochs.
    pub evaluate_every: u64,
    /// Epochs to wait after a scaling action before the next one.
    pub cooldown_epochs: u64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_nodes: 1,
            max_nodes: 2,
            up_jops_per_node: 8.0,
            down_jops_per_node: 2.0,
            slo_miss_fraction: 0.10,
            slo_s: 2.0,
            evaluate_every: 4,
            cooldown_epochs: 8,
        }
    }
}

/// Load-balancer and fleet-fault tuning.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of app-server nodes behind the LB.
    pub nodes: usize,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// LB decision epoch: faults, probes, dispatch, and reconciliation
    /// happen at this granularity (nodes run freely in between).
    pub epoch: SimDuration,
    /// Health probes fire every `probe_every` epochs.
    pub probe_every: u64,
    /// Consecutive failed probes that eject a node.
    pub eject_after: u32,
    /// Consecutive successful probes that readmit an ejected node.
    pub readmit_after: u32,
    /// Delay between a crash and the warm restart from the last snapshot.
    pub restart_delay: SimDuration,
    /// Snapshot attempts fire every `snapshot_every` epochs (taken only
    /// when the node is quiescent, so restores never replay work, and only
    /// while a `node-crash` window can still open).
    pub snapshot_every: u64,
    /// Per-node admission cap: dispatch sheds when every available node
    /// is at this many requests in flight.
    pub max_in_flight: u64,
    /// Run seed (the fleet RNG salts it).
    pub seed: u64,
    /// The fault plan; only fleet-level windows are executed here.
    pub plan: FaultPlan,
    /// Backoff policy for re-dispatching idempotent in-flight work after
    /// a crash (reused from the appserver resilience layer).
    pub retry: RetryPolicy,
    /// Reactive autoscaling; `None` keeps every node in rotation (the
    /// legacy fixed-fleet behavior, byte-identical to builds without
    /// the autoscaler).
    pub autoscale: Option<AutoscaleConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            dispatch: DispatchPolicy::default(),
            epoch: SimDuration::from_millis(256),
            probe_every: 1,
            eject_after: 3,
            readmit_after: 2,
            restart_delay: SimDuration::from_secs(2),
            snapshot_every: 8,
            max_in_flight: 64,
            seed: 0,
            plan: FaultPlan::empty(),
            retry: RetryPolicy::default(),
            autoscale: None,
        }
    }
}

/// Health of one node as the LB sees it (DESIGN.md §13 state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Health {
    /// In rotation.
    Up,
    /// Out of rotation after `eject_after` failed probes.
    Ejected,
    /// Half-open: `k` consecutive probes have succeeded; `readmit_after`
    /// readmits.
    Probation(u32),
    /// Crash-stopped; warm restart due at the given instant.
    Crashed {
        /// When the warm restart fires.
        restart_at: SimTime,
    },
}

/// One dispatched request the LB is tracking.
#[derive(Clone, Copy, Debug)]
struct DispatchRecord {
    kind: RequestKind,
    at: SimTime,
    attempt: u32,
}

/// Per-node LB bookkeeping.
struct NodeCtl {
    health: Health,
    fail_streak: u32,
    /// Gray failure this epoch (fails probes; still serves).
    slow: bool,
    /// LB↔node link lost this epoch (no dispatch, probes fail).
    partitioned: bool,
    /// Warm standby: out of rotation by autoscaler decision. The node
    /// keeps running (and draining) — only new dispatch is withheld.
    standby: bool,
    inflight: VecDeque<DispatchRecord>,
    base_completed: u64,
    base_errored: u64,
    /// The node's last quiescent image, held only while a restart can
    /// still read it.
    snapshot: Option<Vec<u8>>,
}

impl NodeCtl {
    fn new() -> NodeCtl {
        NodeCtl {
            health: Health::Up,
            fail_streak: 0,
            slow: false,
            partitioned: false,
            standby: false,
            inflight: VecDeque::new(),
            base_completed: 0,
            base_errored: 0,
            snapshot: None,
        }
    }

    fn crashed(&self) -> bool {
        matches!(self.health, Health::Crashed { .. })
    }

    /// In rotation for new dispatch this epoch.
    fn available(&self) -> bool {
        self.health == Health::Up && !self.partitioned && !self.standby
    }
}

/// Cumulative fleet-level outcome counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Dispatch records created (fresh arrivals, redispatches, and each
    /// half of a cloned pair).
    pub dispatched: u64,
    /// Records that completed on their node.
    pub completions: u64,
    /// Records that failed permanently on their node.
    pub errors: u64,
    /// Non-idempotent records errored by a crash (reported to the client,
    /// never silently lost).
    pub crash_errored: u64,
    /// Idempotent records re-dispatched to survivors after a crash.
    pub redispatched: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Requests offered to the dispatcher (arrivals + due redispatches).
    pub offered: u64,
    /// Cloned pairs created under `ps-clone`.
    pub cloned: u64,
    /// Node crash-stops executed.
    pub crashes: u64,
    /// Warm restarts executed.
    pub restarts: u64,
    /// Ejections after failed probes.
    pub ejections: u64,
    /// Readmissions after half-open probing.
    pub readmissions: u64,
    /// Standby nodes brought into rotation by the autoscaler.
    pub scale_ups: u64,
    /// Active nodes drained back to warm standby by the autoscaler.
    pub scale_downs: u64,
}

impl FleetStats {
    /// Report labels, aligned with [`FleetStats::values`].
    pub const LABELS: [&'static str; 14] = [
        "dispatched",
        "completions",
        "errors",
        "crash-errored",
        "redispatched",
        "shed",
        "offered",
        "cloned",
        "crashes",
        "restarts",
        "ejections",
        "readmissions",
        "scale-ups",
        "scale-downs",
    ];

    /// Counter values, aligned with [`FleetStats::LABELS`].
    #[must_use]
    pub fn values(&self) -> [u64; 14] {
        [
            self.dispatched,
            self.completions,
            self.errors,
            self.crash_errored,
            self.redispatched,
            self.shed,
            self.offered,
            self.cloned,
            self.crashes,
            self.restarts,
            self.ejections,
            self.readmissions,
            self.scale_ups,
            self.scale_downs,
        ]
    }
}

/// The fleet's pass/fail summary: the merged SLO verdict plus the
/// failover conservation check.
#[derive(Clone, Copy, Debug)]
pub struct ClusterVerdict {
    /// The benchmark verdict over the merged per-node + LB metrics.
    pub verdict: Verdict,
    /// Dispatch records unaccounted for — dispatched minus completions,
    /// errors, crash-errored, redispatched originals, and work still in
    /// flight or awaiting redispatch at the end. Zero means no request
    /// was silently lost, the failover invariant the chaos suite pins.
    pub lost: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Shed fraction of everything offered to the dispatcher.
    pub shed_fraction: f64,
}

/// A deterministic load-balanced fleet of [`ClusterNode`]s.
pub struct Cluster<N> {
    cfg: ClusterConfig,
    nodes: Vec<N>,
    ctl: Vec<NodeCtl>,
    rng: Rng,
    clock: SimTime,
    epoch_index: u64,
    rr_cursor: usize,
    /// Redispatched work waiting for its backoff to elapse, keyed by due
    /// time in nanoseconds (BTreeMap: deterministic order).
    due_redispatch: BTreeMap<u64, Vec<(RequestKind, u32)>>,
    /// The next arrival drawn but not yet dispatched. Held on the
    /// struct (not a run-local) so [`Cluster::run`] can be called in
    /// chunks — e.g. at scenario phase boundaries — without losing or
    /// re-drawing an arrival: chunked runs are identical to one call.
    pending_arrival: Option<(SimTime, RequestKind)>,
    /// Completions observed since the last autoscale decision.
    window_completions: u64,
    /// Of those, completions whose epoch-granular latency upper bound
    /// exceeded the autoscale SLO.
    window_slo_miss: u64,
    /// Epoch of the last scaling action (cooldown anchor).
    last_scale_epoch: Option<u64>,
    log: FaultLog,
    stats: FleetStats,
    lb_metrics: Metrics,
}

impl<N: ClusterNode> Cluster<N> {
    /// Builds the LB over `nodes`. `lb_metrics` is an empty collector
    /// with the run's steady window, used for LB-assigned outcomes
    /// (crash errors) and as the base of the fleet merge. The initial
    /// quiescent snapshot of every node is captured on first entry to
    /// [`Cluster::run`], before any fault window can roll (when the plan
    /// has a `node-crash` window at all).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` disagrees with `nodes.len()` or is zero.
    #[must_use]
    pub fn new(cfg: ClusterConfig, nodes: Vec<N>, lb_metrics: Metrics) -> Cluster<N> {
        // jas-lint: allow(D013, reason = "constructor-time config validation; runs before any request exists")
        assert_eq!(cfg.nodes, nodes.len(), "config/node-count mismatch");
        // jas-lint: allow(D013, reason = "constructor-time config validation; runs before any request exists")
        assert!(cfg.nodes > 0, "a cluster needs at least one node");
        let mut ctl: Vec<NodeCtl> = (0..nodes.len()).map(|_| NodeCtl::new()).collect();
        if let Some(a) = cfg.autoscale {
            // jas-lint: allow(D013, reason = "constructor-time config validation; runs before any request exists")
            assert!(
                a.min_nodes >= 1 && a.min_nodes <= cfg.nodes && a.max_nodes == cfg.nodes,
                "autoscale bounds must satisfy 1 <= min <= max == fleet size"
            );
            // Nodes above the floor start as warm standbys, in index
            // order; the autoscaler activates the lowest-index standby
            // first so the fleet shape is a pure function of decisions.
            for (i, c) in ctl.iter_mut().enumerate() {
                c.standby = i >= a.min_nodes;
            }
        }
        let rng = Rng::new(cfg.seed ^ FLEET_SALT);
        Cluster {
            cfg,
            nodes,
            ctl,
            rng,
            clock: SimTime::ZERO,
            epoch_index: 0,
            rr_cursor: 0,
            due_redispatch: BTreeMap::new(),
            pending_arrival: None,
            window_completions: 0,
            window_slo_miss: 0,
            last_scale_epoch: None,
            log: FaultLog::default(),
            stats: FleetStats::default(),
            lb_metrics,
        }
    }

    /// The LB clock (epoch-grid aligned).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Runs the fleet to `until`, drawing arrivals from `arrivals`.
    pub fn run(&mut self, arrivals: &mut dyn ArrivalStream, until: SimTime) {
        // The initial quiescent snapshot (every node idle at t=0) is
        // captured on first entry — before any fault window can roll —
        // so a crash ahead of the first periodic snapshot still
        // warm-restarts from a valid image.
        if self.epoch_index == 0 && self.clock == SimTime::ZERO {
            self.take_snapshots(SimTime::ZERO);
        }
        if self.pending_arrival.is_none() {
            let (gap, kind) = arrivals.next_arrival();
            self.pending_arrival = Some((SimTime::ZERO + gap, kind));
        }
        while self.clock < until {
            let t0 = self.clock;
            let t1 = t0 + self.cfg.epoch;
            self.roll_fleet_faults(t0);
            self.execute_restarts(t0);
            if self.epoch_index.is_multiple_of(self.cfg.probe_every.max(1)) {
                self.probe_nodes(t0);
            }
            // Due redispatches first (older work), then fresh arrivals.
            let due: Vec<u64> = self
                .due_redispatch
                .range(..t1.as_nanos())
                .map(|(k, _)| *k)
                .collect();
            for key in due {
                for (kind, attempt) in self.due_redispatch.remove(&key).unwrap_or_default() {
                    let at = SimTime::from_nanos(key).max(t0);
                    self.stats.offered += 1;
                    self.dispatch_one(at, kind, attempt);
                }
            }
            while let Some((at, kind)) = self.pending_arrival {
                if at >= t1 {
                    break;
                }
                self.stats.offered += 1;
                self.dispatch_one(at.max(t0), kind, 0);
                let (gap, kind) = arrivals.next_arrival();
                self.pending_arrival = Some((at + gap, kind));
            }
            for (node, ctl) in self.nodes.iter_mut().zip(&self.ctl) {
                if !ctl.crashed() {
                    node.run_to(t1);
                }
            }
            self.reconcile(t1);
            if self.cfg.autoscale.is_some() {
                self.autoscale_step(t1);
            }
            if self.cfg.snapshot_every > 0
                && (self.epoch_index + 1).is_multiple_of(self.cfg.snapshot_every)
            {
                self.take_snapshots(t1);
            }
            self.clock = t1;
            self.epoch_index += 1;
        }
    }

    /// Rolls fleet fault windows for this epoch, in node-index order with
    /// a fixed per-node kind order (crash, slow, partition) so the draw
    /// sequence is deterministic. Draws happen only while a window is
    /// active: a plan without fleet windows never touches the fleet RNG.
    fn roll_fleet_faults(&mut self, t0: SimTime) {
        let crash = self.cfg.plan.active_rate(FaultKind::NodeCrash, t0);
        let slow = self.cfg.plan.active_rate(FaultKind::NodeSlow, t0);
        let partition = self.cfg.plan.active_rate(FaultKind::Partition, t0);
        let mut crashed_now = Vec::new();
        for (i, ctl) in self.ctl.iter_mut().enumerate() {
            if ctl.crashed() {
                ctl.slow = false;
                ctl.partitioned = false;
                continue;
            }
            if let Some(rate) = crash {
                if (self.rng.next_u64() >> 32) < rate {
                    crashed_now.push(i);
                }
            }
            ctl.slow = match slow {
                Some(rate) => (self.rng.next_u64() >> 32) < rate,
                None => false,
            };
            ctl.partitioned = match partition {
                Some(rate) => (self.rng.next_u64() >> 32) < rate,
                None => false,
            };
        }
        for i in crashed_now {
            self.crash_node(i, t0);
        }
    }

    /// Crash-stop node `i`: every tracked in-flight record either errors
    /// (non-idempotent — the client sees a failure, nothing is silently
    /// lost) or is re-dispatched to a survivor after a jittered backoff
    /// (idempotent). The node is frozen until its warm restart.
    fn crash_node(&mut self, i: usize, t0: SimTime) {
        self.stats.crashes += 1;
        self.log.push(t0, EventKind::Injected(FaultKind::NodeCrash));
        self.log.push(t0, EventKind::NodeCrashed { node: i as u32 });
        let records: Vec<DispatchRecord> = self.ctl[i].inflight.drain(..).collect();
        for rec in records {
            if idempotent(rec.kind) {
                self.stats.redispatched += 1;
                self.log.push(t0, EventKind::RequestRedispatched);
                // Equal-jitter exponential backoff, deterministically
                // varied per redispatch by folding the running count into
                // the seed.
                let delay = self.cfg.retry.delay(
                    self.cfg.seed.wrapping_add(self.stats.redispatched),
                    rec.attempt + 1,
                );
                let due = (t0 + delay).as_nanos();
                self.due_redispatch
                    .entry(due)
                    .or_default()
                    .push((rec.kind, rec.attempt + 1));
            } else {
                self.stats.crash_errored += 1;
                self.log.push(t0, EventKind::RequestFailed);
                self.lb_metrics.record_error(t0);
            }
        }
        self.ctl[i].health = Health::Crashed {
            restart_at: t0 + self.cfg.restart_delay,
        };
        self.ctl[i].fail_streak = 0;
        self.ctl[i].slow = false;
        self.ctl[i].partitioned = false;
    }

    /// Warm-restarts crashed nodes whose delay has elapsed: restore the
    /// last quiescent snapshot in place, fast-forward the (idle) node to
    /// the present, and hand it to half-open probing for readmission. The
    /// image is dropped once no crash can follow.
    fn execute_restarts(&mut self, t0: SimTime) {
        let keep_images = self.crash_can_follow(t0);
        for i in 0..self.nodes.len() {
            let Health::Crashed { restart_at } = self.ctl[i].health else {
                continue;
            };
            if restart_at > t0 {
                continue;
            }
            let bytes = self.ctl[i]
                .snapshot
                .as_deref()
                .expect("initial snapshot captured at the start of the run");
            let node = &mut self.nodes[i];
            node.restore(bytes);
            node.run_to(t0);
            if !keep_images {
                self.ctl[i].snapshot = None;
            }
            self.ctl[i].base_completed = node.completed();
            self.ctl[i].base_errored = node.errored();
            self.ctl[i].health = Health::Ejected;
            self.stats.restarts += 1;
            self.log
                .push(t0, EventKind::NodeRestarted { node: i as u32 });
        }
    }

    /// One health-check round: the ejection / half-open-readmission state
    /// machine (DESIGN.md §13).
    fn probe_nodes(&mut self, t0: SimTime) {
        for (i, ctl) in self.ctl.iter_mut().enumerate() {
            if ctl.crashed() {
                continue; // probes cannot reach a crashed node
            }
            let ok = !ctl.partitioned && !ctl.slow;
            match (ctl.health, ok) {
                (Health::Up, true) => ctl.fail_streak = 0,
                (Health::Up, false) => {
                    ctl.fail_streak += 1;
                    if ctl.fail_streak >= self.cfg.eject_after {
                        ctl.health = Health::Ejected;
                        self.stats.ejections += 1;
                        self.log.push(t0, EventKind::NodeEjected { node: i as u32 });
                    }
                }
                (Health::Ejected, true) => ctl.health = Health::Probation(1),
                (Health::Ejected, false) => {}
                (Health::Probation(k), true) => {
                    if k + 1 >= self.cfg.readmit_after {
                        ctl.health = Health::Up;
                        ctl.fail_streak = 0;
                        self.stats.readmissions += 1;
                        self.log
                            .push(t0, EventKind::NodeReadmitted { node: i as u32 });
                    } else {
                        ctl.health = Health::Probation(k + 1);
                    }
                }
                (Health::Probation(_), false) => ctl.health = Health::Ejected,
                (Health::Crashed { .. }, _) => {}
            }
        }
    }

    /// Dispatches one request (or sheds it under overload).
    fn dispatch_one(&mut self, at: SimTime, kind: RequestKind, attempt: u32) {
        let cap = self.cfg.max_in_flight;
        let available: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.ctl[i].available() && self.load(i) < cap)
            .collect();
        if available.is_empty() {
            self.stats.shed += 1;
            self.log.push(at, EventKind::RequestShed);
            return;
        }
        match self.cfg.dispatch {
            DispatchPolicy::PsClone if idempotent(kind) && available.len() >= 2 => {
                // Clone to the two least-loaded nodes.
                let mut by_load = available;
                by_load.sort_by_key(|&i| (self.load(i), i));
                self.stats.cloned += 1;
                let (a, b) = (by_load[0], by_load[1]);
                self.send(a, at, kind, attempt);
                self.send(b, at, kind, attempt);
            }
            DispatchPolicy::RoundRobin => {
                let pick = available[self.rr_cursor % available.len()];
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                self.send(pick, at, kind, attempt);
            }
            DispatchPolicy::LeastConn | DispatchPolicy::PsClone => {
                let pick = available
                    .into_iter()
                    .min_by_key(|&i| (self.load(i), i))
                    .expect("non-empty");
                self.send(pick, at, kind, attempt);
            }
        }
    }

    /// A node's effective load: requests in flight plus work dispatched
    /// this epoch that the node has not admitted yet.
    fn load(&self, i: usize) -> u64 {
        self.ctl[i].inflight.len() as u64
    }

    fn send(&mut self, i: usize, at: SimTime, kind: RequestKind, attempt: u32) {
        // The node may have overshot the epoch boundary to its next
        // quantum edge; dispatch lands at its clock in that case (the
        // engine clamps admission the same way).
        let at = at.max(self.nodes[i].now());
        self.nodes[i].push_arrival(at, kind);
        self.stats.dispatched += 1;
        let rec = DispatchRecord { kind, at, attempt };
        let fifo = &mut self.ctl[i].inflight;
        let pos = fifo.partition_point(|r| r.at <= at);
        fifo.insert(pos, rec);
    }

    /// Folds each node's outcome deltas since the last epoch into the
    /// fleet accounting, retiring tracked records oldest-first. `t1` is
    /// the epoch end: each retired record's latency upper bound
    /// (`t1 - dispatch`) is judged against the autoscale SLO, so the
    /// miss fraction is epoch-granular but fully deterministic.
    fn reconcile(&mut self, t1: SimTime) {
        let slo_s = self.cfg.autoscale.map(|a| a.slo_s);
        for (node, ctl) in self.nodes.iter().zip(self.ctl.iter_mut()) {
            let dc = node.completed().saturating_sub(ctl.base_completed);
            let de = node.errored().saturating_sub(ctl.base_errored);
            ctl.base_completed = node.completed();
            ctl.base_errored = node.errored();
            for _ in 0..dc {
                debug_assert!(!ctl.inflight.is_empty(), "completion without a record");
                if let Some(rec) = ctl.inflight.pop_front() {
                    if let Some(slo) = slo_s {
                        self.window_completions += 1;
                        if t1.saturating_since(rec.at).as_secs_f64() > slo {
                            self.window_slo_miss += 1;
                        }
                    }
                }
                self.stats.completions += 1;
            }
            for _ in 0..de {
                debug_assert!(!ctl.inflight.is_empty(), "error without a record");
                ctl.inflight.pop_front();
                self.stats.errors += 1;
            }
        }
    }

    /// One autoscaler decision: every `evaluate_every` epochs, compare
    /// the window's completions-per-active-node rate and SLO-miss
    /// fraction against the thresholds and activate (lowest-index
    /// standby) or drain (highest-index active) one node, subject to
    /// the cooldown. Node choice is by index, never by RNG, so the
    /// fleet shape is a pure function of deterministic inputs.
    fn autoscale_step(&mut self, t1: SimTime) {
        let Some(a) = self.cfg.autoscale else {
            return;
        };
        let every = a.evaluate_every.max(1);
        if !(self.epoch_index + 1).is_multiple_of(every) {
            return;
        }
        let window_s = self.cfg.epoch.as_secs_f64() * every as f64;
        let active = self.active_nodes();
        let jops_per_node = if active == 0 || window_s <= 0.0 {
            0.0
        } else {
            self.window_completions as f64 / active as f64 / window_s
        };
        let miss_frac = if self.window_completions == 0 {
            0.0
        } else {
            self.window_slo_miss as f64 / self.window_completions as f64
        };
        self.window_completions = 0;
        self.window_slo_miss = 0;
        let cooled = self
            .last_scale_epoch
            .is_none_or(|e| self.epoch_index.saturating_sub(e) >= a.cooldown_epochs);
        if !cooled {
            return;
        }
        let overloaded = jops_per_node > a.up_jops_per_node || miss_frac > a.slo_miss_fraction;
        let idle = jops_per_node < a.down_jops_per_node && miss_frac <= a.slo_miss_fraction / 2.0;
        if overloaded && active < a.max_nodes {
            if let Some(i) = (0..self.ctl.len()).find(|&i| self.ctl[i].standby) {
                self.ctl[i].standby = false;
                self.stats.scale_ups += 1;
                self.last_scale_epoch = Some(self.epoch_index);
                self.log
                    .push(t1, EventKind::NodeScaledUp { node: i as u32 });
            }
        } else if idle && active > a.min_nodes {
            // Drain the highest-index active, non-crashed node; it keeps
            // running (reconciling its in-flight work) but receives no
            // new dispatch.
            if let Some(i) = (0..self.ctl.len())
                .rev()
                .find(|&i| !self.ctl[i].standby && !self.ctl[i].crashed())
            {
                self.ctl[i].standby = true;
                self.stats.scale_downs += 1;
                self.last_scale_epoch = Some(self.epoch_index);
                self.log
                    .push(t1, EventKind::NodeScaledDown { node: i as u32 });
            }
        }
    }

    /// Whether a node can still crash at or after `at`: crashes roll only
    /// at epoch starts inside a `node-crash` window, so some such window
    /// must end after `at`.
    fn crash_can_follow(&self, at: SimTime) -> bool {
        self.cfg
            .plan
            .windows()
            .iter()
            .any(|w| w.kind == FaultKind::NodeCrash && w.end > at)
    }

    /// Captures per-node snapshots at `at` (an epoch boundary) where
    /// possible. Only quiescent nodes are captured (nothing in flight,
    /// nothing queued): a restore must never replay half-done work, which
    /// is also what keeps the engine's unpersisted external queue provably
    /// empty at capture. A node's old image is dropped before its
    /// replacement is built, so it holds one at a time.
    ///
    /// Only a restart reads an image, and only for a node that crashed
    /// after the capture: the next crash roll is at `at` or later. So when
    /// no crash can follow `at`, nothing is captured and every image a
    /// live node holds is dropped — none of them can be read. A crashed
    /// node keeps its image for its pending restart.
    fn take_snapshots(&mut self, at: SimTime) {
        let readable = self.crash_can_follow(at);
        for (node, ctl) in self.nodes.iter_mut().zip(self.ctl.iter_mut()) {
            if ctl.crashed() {
                continue;
            }
            if !readable {
                ctl.snapshot = None;
            } else if node.in_flight() == 0 && ctl.inflight.is_empty() {
                ctl.snapshot = None;
                ctl.snapshot = Some(node.snapshot());
            }
        }
    }

    /// Closes instrument windows on every live node.
    pub fn finish(&mut self) {
        for (node, ctl) in self.nodes.iter_mut().zip(&self.ctl) {
            if !ctl.crashed() {
                node.finish();
            }
        }
    }

    /// Cumulative fleet outcome counters.
    #[must_use]
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The fleet fault/resilience event log (LB-level events only; node
    /// logs are folded into [`Cluster::fault_digest`]).
    #[must_use]
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// The nodes (read-only).
    #[must_use]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Mutable node access for in-crate tests only (production callers
    /// must not mutate nodes behind the LB's bookkeeping).
    #[cfg(test)]
    pub(crate) fn nodes_mut_for_tests(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Nodes currently in rotation (not parked as warm standbys). With
    /// autoscaling off this is the fleet size.
    #[must_use]
    pub fn active_nodes(&self) -> usize {
        self.ctl.iter().filter(|c| !c.standby).count()
    }

    /// Records still tracked as in flight across the fleet.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.ctl.iter().map(|c| c.inflight.len() as u64).sum()
    }

    /// Per-node HPM counter files plus fleet aggregates.
    #[must_use]
    pub fn fleet_hpm(&self) -> FleetHpm {
        let mut fleet = FleetHpm::new(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            fleet.set_node(i, node.counters());
        }
        fleet
    }

    /// The merged fleet metrics: LB-assigned outcomes plus every node's
    /// collector.
    #[must_use]
    pub fn merged_metrics(&self) -> Metrics {
        let mut merged = self.lb_metrics.clone();
        for node in &self.nodes {
            merged.merge(&node.metrics());
        }
        merged
    }

    /// The fleet verdict: merged SLO verdict plus the conservation check.
    #[must_use]
    pub fn verdict(&self) -> ClusterVerdict {
        let s = &self.stats;
        // Every dispatch record ends in exactly one bucket — completed,
        // errored, crash-errored (non-idempotent crash), or redispatched
        // (idempotent crash; its replacement offer is a NEW record) — or
        // is still in flight. Anything else was silently lost.
        let accounted =
            s.completions + s.errors + s.crash_errored + s.redispatched + self.in_flight();
        let lost = s.dispatched.saturating_sub(accounted);
        let shed_fraction = if s.offered == 0 {
            0.0
        } else {
            s.shed as f64 / s.offered as f64
        };
        ClusterVerdict {
            verdict: self.merged_metrics().verdict(),
            lost,
            shed: s.shed,
            shed_fraction,
        }
    }

    /// Fleet HPM digest: FNV-1a fold over the per-node HPM digests in
    /// node order.
    #[must_use]
    pub fn hpm_digest(&self) -> u64 {
        fold_digests(self.nodes.iter().map(ClusterNode::hpm_digest))
    }

    /// Fleet trace digest: fold over the per-node trace digests.
    #[must_use]
    pub fn trace_digest(&self) -> u64 {
        fold_digests(self.nodes.iter().map(ClusterNode::trace_digest))
    }

    /// Fleet fault digest: fold over the per-node fault-log digests plus
    /// the LB's own fleet event log.
    #[must_use]
    pub fn fault_digest(&self) -> u64 {
        fold_digests(
            self.nodes
                .iter()
                .map(ClusterNode::fault_digest)
                .chain(std::iter::once(self.log.digest())),
        )
    }
}

/// Whether a dispatched request may be safely re-executed on another node
/// after a crash. Only the read-only catalog browse is: purchases,
/// dealership management, and RMI profile updates all commit writes.
fn idempotent(kind: RequestKind) -> bool {
    matches!(kind, RequestKind::Browse)
}

/// FNV-1a over a sequence of digests (via the `WordDigest` visitor, the
/// same mixing every other fingerprint in the stack uses).
fn fold_digests(values: impl Iterator<Item = u64>) -> u64 {
    let mut d = WordDigest::new();
    for v in values {
        d.mix(v);
    }
    d.value()
}
