//! Resilience policies: bounded retry with deterministic exponential
//! backoff + jitter, and a circuit breaker guarding the database.
//!
//! Both are pure state machines over sim time — no wall-clock, no global
//! RNG. Backoff jitter comes from a SplitMix64 hash of `(seed, attempt)`,
//! so a retry schedule is a function of the run seed alone and a faulted
//! run stays bit-identical at any `--threads` count.

use jas_simkernel::{SimDuration, SimTime};

/// Bounded-retry policy with exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first failure before the request fails
    /// permanently.
    pub max_retries: u32,
    /// First-attempt backoff; doubles per attempt.
    pub base: SimDuration,
    /// Backoff ceiling.
    pub cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_millis(2),
            cap: SimDuration::from_millis(64),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): equal-jitter exponential,
    /// `[e/2, e)` for envelope `e = base * 2^(attempt-1)`, clamped to
    /// exactly `cap` once the envelope reaches it.
    ///
    /// The schedule is monotone non-decreasing in `attempt` for any seed:
    /// each uncapped draw lies below its envelope, which is the floor of
    /// the next attempt's jitter window.
    #[must_use]
    pub fn delay(&self, seed: u64, attempt: u32) -> SimDuration {
        debug_assert!(attempt >= 1, "attempts are 1-based");
        let envelope = self.base.as_nanos().saturating_mul(
            1u64.checked_shl(attempt.saturating_sub(1))
                .unwrap_or(u64::MAX),
        );
        if envelope >= self.cap.as_nanos() {
            return self.cap;
        }
        let half = envelope / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % half
        };
        SimDuration::from_nanos(half + jitter)
    }
}

/// SplitMix64 finalizer: a cheap, high-quality pure hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Circuit-breaker tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing.
    pub open_for: SimDuration,
    /// Probe requests admitted in the half-open state.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_for: SimDuration::from_millis(250),
            half_open_probes: 2,
        }
    }
}

/// Circuit-breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Tripped: requests fail fast without touching the resource.
    Open,
    /// Probing: a bounded number of requests are admitted to test
    /// recovery.
    HalfOpen,
}

/// A closed/open/half-open circuit breaker over sim time.
///
/// The caller brackets each guarded operation with
/// [`CircuitBreaker::try_acquire`] and then exactly one of
/// [`CircuitBreaker::on_success`] / [`CircuitBreaker::on_failure`].
#[derive(Clone, Copy, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    probes_admitted: u32,
    last_probe_at: SimTime,
}

impl CircuitBreaker {
    /// A closed breaker with `cfg` tuning.
    #[must_use]
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            probes_admitted: 0,
            last_probe_at: SimTime::ZERO,
        }
    }

    /// Current state (after any timed open → half-open transition would
    /// apply on the next [`CircuitBreaker::try_acquire`]).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Asks to perform one guarded operation at `now`. `false` means fail
    /// fast: the breaker is open, or half-open with its probe quota spent
    /// or a probe already admitted at this instant.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        if self.state == BreakerState::Open && now >= self.opened_at + self.cfg.open_for {
            self.state = BreakerState::HalfOpen;
            self.probes_admitted = 0;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // Exactly one probe per instant: a same-tick burst must
                // not drain the whole quota before the first probe's
                // outcome is known.
                let spaced = self.probes_admitted == 0 || now > self.last_probe_at;
                if spaced && self.probes_admitted < self.cfg.half_open_probes {
                    self.probes_admitted += 1;
                    self.last_probe_at = now;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful guarded operation.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    /// Reports a failed guarded operation at `now`.
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_failures = 0;
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for BreakerState {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let tag: u64 = match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        };
        let tag = snap::persist_tag(io, tag, 3, "breaker state tag");
        if !io.saving() {
            *self = match tag {
                0 => BreakerState::Closed,
                1 => BreakerState::Open,
                _ => BreakerState::HalfOpen,
            };
        }
    }
}

impl Persist for CircuitBreaker {
    // `cfg` is immutable tuning.
    // jas-lint: allow(D009, reason = "cfg is construction-time configuration, rebuilt from the run plan on restore")
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.state.persist(io);
        self.consecutive_failures.persist(io);
        self.opened_at.persist(io);
        self.probes_admitted.persist(io);
        self.last_probe_at.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tripped(cfg: BreakerConfig, now: SimTime) -> CircuitBreaker {
        let mut b = CircuitBreaker::new(cfg);
        for _ in 0..cfg.failure_threshold {
            assert!(b.try_acquire(now));
            b.on_failure(now);
        }
        assert_eq!(b.state(), BreakerState::Open);
        b
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy::default();
        let d1 = p.delay(1, 1);
        let d2 = p.delay(1, 2);
        assert!(d1.as_nanos() >= p.base.as_nanos() / 2 && d1.as_nanos() < p.base.as_nanos());
        assert!(d2.as_nanos() >= p.base.as_nanos());
        // base 2 ms doubling reaches the 64 ms cap at attempt 6.
        assert_eq!(p.delay(1, 6), p.cap);
        assert_eq!(p.delay(1, 40), p.cap, "deep attempts stay at the cap");
        assert_eq!(
            p.delay(1, 3),
            p.delay(1, 3),
            "pure function of (seed, attempt)"
        );
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let cfg = BreakerConfig::default();
        let t0 = SimTime::from_secs(1);
        let mut b = tripped(cfg, t0);
        assert!(
            !b.try_acquire(t0 + SimDuration::from_millis(1)),
            "open fails fast"
        );
        let probe_at = t0 + cfg.open_for;
        assert!(b.try_acquire(probe_at), "half-open admits a probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let cfg = BreakerConfig::default();
        let t0 = SimTime::from_secs(1);
        let mut b = tripped(cfg, t0);
        let probe_at = t0 + cfg.open_for;
        assert!(b.try_acquire(probe_at));
        b.on_failure(probe_at);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_acquire(probe_at + SimDuration::from_millis(1)));
        // The open window restarts from the failed probe.
        assert!(b.try_acquire(probe_at + cfg.open_for));
    }

    #[test]
    fn half_open_admits_exactly_one_probe_per_instant() {
        let cfg = BreakerConfig::default();
        assert!(cfg.half_open_probes >= 2, "test needs a quota above one");
        let t0 = SimTime::from_secs(1);
        let mut b = tripped(cfg, t0);
        let probe_at = t0 + cfg.open_for;
        // A same-tick burst: only the first request may pass.
        assert!(b.try_acquire(probe_at), "first probe admitted");
        for _ in 0..10 {
            assert!(
                !b.try_acquire(probe_at),
                "same-tick burst must not drain the probe quota"
            );
        }
        // The next instant admits the second (and last) quota slot.
        let later = probe_at + SimDuration::from_millis(1);
        assert!(b.try_acquire(later), "next instant admits one more probe");
        assert!(!b.try_acquire(later), "still one per instant");
        assert!(
            !b.try_acquire(later + SimDuration::from_millis(1)),
            "quota of {} probes is spent",
            cfg.half_open_probes
        );
        // A successful probe closes the breaker as before.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        for _ in 0..100 {
            assert!(b.try_acquire(SimTime::ZERO));
            b.on_failure(SimTime::ZERO);
            b.on_success();
        }
        assert_eq!(b.state(), BreakerState::Closed, "streak never reaches 5");
    }
}
