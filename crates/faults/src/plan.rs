//! Fault taxonomy and the `kind@lo-hi:rate` plan grammar.

use jas_simkernel::SimTime;

/// The kinds of fault the stack knows how to inject.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A DB lock wait exceeds its timeout; the statement fails with
    /// `DbError::Timeout` instead of blocking.
    #[default]
    DbLockTimeout,
    /// A bufferpool read stalls: the touched page misses even if resident
    /// and the device round-trip is charged.
    DbIoStall,
    /// A consumed JMS work order is redelivered (at-least-once delivery).
    JmsRedelivery,
    /// A sent JMS message is duplicated in the queue.
    JmsDuplicate,
    /// A fraction of a connection pool's capacity is seized (leaked
    /// connections / stuck peers), shrinking effective capacity.
    PoolSeize,
    /// A forced full GC cycle on top of the allocation-driven schedule.
    GcStorm,
    /// Crash-stop of one fleet node: its in-flight requests error and the
    /// node's state is reset until the load balancer warm-restarts it.
    NodeCrash,
    /// Gray failure of one fleet node: the node keeps serving at a
    /// degraded rate and intermittently fails health probes.
    NodeSlow,
    /// Link loss between the load balancer and one node: no dispatch, no
    /// probe responses, but the node itself keeps running.
    Partition,
}

impl FaultKind {
    /// Every kind, in the canonical (digest-stable) order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::DbLockTimeout,
        FaultKind::DbIoStall,
        FaultKind::JmsRedelivery,
        FaultKind::JmsDuplicate,
        FaultKind::PoolSeize,
        FaultKind::GcStorm,
        FaultKind::NodeCrash,
        FaultKind::NodeSlow,
        FaultKind::Partition,
    ];

    /// Stable plan-grammar / report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DbLockTimeout => "db-lock",
            FaultKind::DbIoStall => "db-io",
            FaultKind::JmsRedelivery => "jms-redeliver",
            FaultKind::JmsDuplicate => "jms-dup",
            FaultKind::PoolSeize => "pool-seize",
            FaultKind::GcStorm => "gc-storm",
            FaultKind::NodeCrash => "node-crash",
            FaultKind::NodeSlow => "node-slow",
            FaultKind::Partition => "partition",
        }
    }

    /// `true` for fleet-level kinds, which target whole nodes and are
    /// executed by the cluster load balancer, never by a node's own
    /// injector. A plan containing only fleet kinds leaves a single-node
    /// engine run untouched.
    #[must_use]
    pub fn is_fleet(self) -> bool {
        matches!(
            self,
            FaultKind::NodeCrash | FaultKind::NodeSlow | FaultKind::Partition
        )
    }

    /// `true` for node-local kinds handled by the engine's own injector.
    #[must_use]
    pub fn is_local(self) -> bool {
        !self.is_fleet()
    }

    /// Index into [`FaultKind::ALL`]; also the digest code of the kind.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultKind::DbLockTimeout => 0,
            FaultKind::DbIoStall => 1,
            FaultKind::JmsRedelivery => 2,
            FaultKind::JmsDuplicate => 3,
            FaultKind::PoolSeize => 4,
            FaultKind::GcStorm => 5,
            FaultKind::NodeCrash => 6,
            FaultKind::NodeSlow => 7,
            FaultKind::Partition => 8,
        }
    }

    fn parse(s: &str) -> Result<FaultKind, String> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
                format!(
                    "unknown fault kind '{s}' (expected one of {})",
                    names.join("|")
                )
            })
    }
}

/// One scheduled fault window: between `start` (inclusive) and `end`
/// (exclusive) on the sim clock, each opportunity of `kind` fires with
/// probability `rate_fp / 2^32`.
///
/// For [`FaultKind::PoolSeize`] the rate is not a probability but the
/// seized *fraction* of pool capacity — no randomness is involved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// What to inject.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Rate in 32.32 fixed point: `rate * 2^32`, saturated to `2^32`.
    pub rate_fp: u64,
}

impl FaultWindow {
    /// Builds a window from fractional-second bounds and a `[0, 1]` rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or the bounds are reversed.
    #[must_use]
    pub fn new(kind: FaultKind, start_s: f64, end_s: f64, rate: f64) -> FaultWindow {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be in [0,1], got {rate}"
        );
        assert!(end_s >= start_s, "fault window ends before it starts");
        FaultWindow {
            kind,
            start: SimTime::from_nanos((start_s * 1e9).round() as u64),
            end: SimTime::from_nanos((end_s * 1e9).round() as u64),
            rate_fp: rate_to_fp(rate),
        }
    }

    /// `true` when `now` lies inside the window.
    #[must_use]
    pub fn contains(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// Converts a `[0, 1]` probability to 32.32 fixed point.
#[must_use]
pub(crate) fn rate_to_fp(rate: f64) -> u64 {
    // 1.0 maps to exactly 2^32 so `(x >> 32) < rate_fp` is always-true.
    ((rate * 4_294_967_296.0).round() as u64).min(1 << 32)
}

/// A deterministic fault schedule: zero or more [`FaultWindow`]s.
///
/// The empty plan is the default and is guaranteed zero-cost: with no
/// windows the injector never draws from its RNG and every resilience
/// path in the engine stays on the legacy healthy-run code.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The empty plan.
    #[must_use]
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builds a plan from explicit windows.
    #[must_use]
    pub fn from_windows(windows: Vec<FaultWindow>) -> FaultPlan {
        FaultPlan { windows }
    }

    /// Parses the CLI grammar: `kind@lo-hi:rate` entries separated by
    /// commas or newlines (so `@FILE` plans can list one window per
    /// line), where `kind` is a [`FaultKind::name`], `lo`/`hi` are
    /// seconds on the sim clock, and `rate` is a probability (seize
    /// fraction for `pool-seize`). Example:
    /// `db-lock@40-60:0.3,gc-storm@50-55:0.05`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry and its position in
    /// the separated list (e.g. `plan[2]: bad window
    /// 'node-crash@9-3' (ends before it starts)`) for unknown kinds,
    /// malformed numbers, reversed windows, or rates outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut windows = Vec::new();
        for (i, entry) in spec.split([',', '\n']).enumerate() {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("plan[{i}]: '{entry}': expected kind@lo-hi:rate"))?;
            let (span, rate) = rest
                .split_once(':')
                .ok_or_else(|| format!("plan[{i}]: '{entry}': expected kind@lo-hi:rate"))?;
            let (lo, hi) = span
                .split_once('-')
                .ok_or_else(|| format!("plan[{i}]: '{entry}': expected a lo-hi window"))?;
            let kind =
                FaultKind::parse(kind.trim()).map_err(|e| format!("plan[{i}]: '{entry}': {e}"))?;
            let lo = parse_secs(lo).map_err(|e| format!("plan[{i}]: '{entry}': {e}"))?;
            let hi = parse_secs(hi).map_err(|e| format!("plan[{i}]: '{entry}': {e}"))?;
            if hi < lo {
                return Err(format!(
                    "plan[{i}]: bad window '{}@{}' (ends before it starts)",
                    kind.name(),
                    span.trim()
                ));
            }
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| format!("plan[{i}]: '{entry}': bad rate '{rate}'"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "plan[{i}]: '{entry}': rate must be in [0, 1], got {rate}"
                ));
            }
            windows.push(FaultWindow::new(kind, lo, hi, rate));
        }
        Ok(FaultPlan { windows })
    }

    /// The scheduled windows.
    #[must_use]
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// `true` when the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// `true` when at least one window schedules a node-local kind (one
    /// the engine's own injector executes).
    #[must_use]
    pub fn has_local(&self) -> bool {
        self.windows.iter().any(|w| w.kind.is_local())
    }

    /// `true` when at least one window schedules a fleet-level kind (one
    /// the cluster load balancer executes).
    #[must_use]
    pub fn has_fleet(&self) -> bool {
        self.windows.iter().any(|w| w.kind.is_fleet())
    }

    /// The plan restricted to node-local kinds — what a single node's
    /// injector should execute. Fleet-level windows are the load
    /// balancer's business and never reach a node engine.
    #[must_use]
    pub fn local_only(&self) -> FaultPlan {
        FaultPlan {
            windows: self
                .windows
                .iter()
                .copied()
                .filter(|w| w.kind.is_local())
                .collect(),
        }
    }

    /// The fixed-point rate of the first active window of `kind` at `now`,
    /// or `None` when no window of that kind covers `now`.
    #[must_use]
    pub fn active_rate(&self, kind: FaultKind, now: SimTime) -> Option<u64> {
        self.windows
            .iter()
            .find(|w| w.kind == kind && w.contains(now))
            .map(|w| w.rate_fp)
    }
}

fn parse_secs(s: &str) -> Result<f64, String> {
    let v: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("bad time '{s}' (seconds)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("time must be finite and non-negative, got {s}"));
    }
    Ok(v)
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for FaultKind {
    // Encoded as the stable `index()` position in `ALL`.
    fn persist(&mut self, io: &mut dyn StateIo) {
        let count = FaultKind::ALL.len() as u64;
        let tag = snap::persist_tag(io, self.index() as u64, count, "fault kind tag");
        if !io.saving() {
            *self = FaultKind::ALL[tag as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_multi_entry_spec() {
        let plan = FaultPlan::parse("db-lock@40-60:0.3, gc-storm@50-55:1").expect("parses");
        assert_eq!(plan.windows().len(), 2);
        let w = plan.windows()[0];
        assert_eq!(w.kind, FaultKind::DbLockTimeout);
        assert_eq!(w.start, SimTime::from_secs(40));
        assert_eq!(w.end, SimTime::from_secs(60));
        assert_eq!(w.rate_fp, rate_to_fp(0.3));
        assert_eq!(plan.windows()[1].rate_fp, 1 << 32);
    }

    #[test]
    fn empty_and_blank_specs_parse_to_the_empty_plan() {
        assert!(FaultPlan::parse("").expect("parses").is_empty());
        assert!(FaultPlan::parse(" , ").expect("parses").is_empty());
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "nonsense@1-2:0.5",
            "db-lock@1-2",
            "db-lock:0.5",
            "db-lock@x-2:0.5",
            "db-lock@2-1:0.5",
            "db-lock@1-2:1.5",
            "db-lock@1-2:-0.1",
            "db-lock@-1-2:0.5",
            "node-crash@9-3:0.5",
            "node-slow@1-2:2.0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn newline_separated_file_plans_parse_with_positions() {
        let plan = FaultPlan::parse("db-lock@40-60:0.3\ngc-storm@50-55:1\n").expect("parses");
        assert_eq!(plan.windows().len(), 2);
        assert_eq!(plan.windows()[1].kind, FaultKind::GcStorm);

        // Positions count every separated entry, commas and newlines alike.
        let err = FaultPlan::parse("db-lock@1-2:0.5\nnode-crash@9-3:0.5")
            .expect_err("reversed window must be rejected");
        assert_eq!(
            err,
            "plan[1]: bad window 'node-crash@9-3' (ends before it starts)"
        );
    }

    #[test]
    fn parse_errors_carry_the_entry_position() {
        let err = FaultPlan::parse("db-lock@1-2:0.5,gc-storm@3-4:0.1,node-crash@9-3:0.5")
            .expect_err("reversed window must be rejected");
        assert_eq!(
            err,
            "plan[2]: bad window 'node-crash@9-3' (ends before it starts)"
        );

        let err = FaultPlan::parse("db-lock@1-2:1.5").expect_err("rate > 1 must be rejected");
        assert!(
            err.starts_with("plan[0]: 'db-lock@1-2:1.5': rate must be in [0, 1]"),
            "got: {err}"
        );

        let err = FaultPlan::parse("db-lock@1-2:0.5,bogus@1-2:0.5").expect_err("unknown kind");
        assert!(err.starts_with("plan[1]: 'bogus@1-2:0.5':"), "got: {err}");
    }

    #[test]
    fn fleet_and_local_kinds_are_disjoint_and_exhaustive() {
        for kind in FaultKind::ALL {
            assert_ne!(kind.is_fleet(), kind.is_local(), "{kind:?}");
        }
        let fleet: Vec<FaultKind> = FaultKind::ALL
            .into_iter()
            .filter(|k| k.is_fleet())
            .collect();
        assert_eq!(
            fleet,
            vec![
                FaultKind::NodeCrash,
                FaultKind::NodeSlow,
                FaultKind::Partition
            ]
        );
    }

    #[test]
    fn local_only_strips_fleet_windows() {
        let plan =
            FaultPlan::parse("db-lock@1-2:0.5,node-crash@3-4:1,partition@5-6:1").expect("parses");
        assert!(plan.has_local() && plan.has_fleet());
        let local = plan.local_only();
        assert_eq!(local.windows().len(), 1);
        assert_eq!(local.windows()[0].kind, FaultKind::DbLockTimeout);
        assert!(local.has_local() && !local.has_fleet());

        let fleet_only = FaultPlan::parse("node-slow@1-2:0.5").expect("parses");
        assert!(!fleet_only.has_local() && fleet_only.has_fleet());
        assert!(fleet_only.local_only().is_empty());
    }

    #[test]
    fn active_rate_respects_window_bounds() {
        let plan = FaultPlan::parse("db-io@10-20:0.5").expect("parses");
        assert_eq!(
            plan.active_rate(FaultKind::DbIoStall, SimTime::from_secs(9)),
            None
        );
        assert_eq!(
            plan.active_rate(FaultKind::DbIoStall, SimTime::from_secs(10)),
            Some(rate_to_fp(0.5))
        );
        assert_eq!(
            plan.active_rate(FaultKind::DbIoStall, SimTime::from_secs(20)),
            None
        );
        assert_eq!(
            plan.active_rate(FaultKind::DbLockTimeout, SimTime::from_secs(15)),
            None
        );
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Ok(kind));
            assert_eq!(FaultKind::ALL[kind.index()], kind);
        }
    }
}
