//! Per-stage circuit breaking for estimator pipelines.
//!
//! A drifted or corrupted learned model does not fail once — it fails on
//! *every* query, and each failed attempt burns latency budget before the
//! fallback answers (the failure mode Han et al.'s benchmark study calls
//! out for learned estimators in production). A [`CircuitBreaker`] turns
//! repeated failure into *skipping*: after `failure_threshold` consecutive
//! failures the breaker opens and the stage is not invoked at all; after a
//! cooldown it lets exactly one probe request through (half-open), and
//! either closes on success or re-opens with an exponentially longer
//! cooldown.
//!
//! ```text
//!            failure × threshold            cooldown elapsed
//!  Closed ──────────────────────▶ Open ──────────────────────▶ HalfOpen
//!    ▲                             ▲                              │
//!    │         probe succeeds      │        probe fails           │
//!    └─────────────────────────────┼──────────────────────────────┤
//!                                  └──────────────────────────────┘
//!                                       (cooldown doubles, capped)
//! ```
//!
//! Time is injectable ([`CircuitBreaker::with_clock`]) so the state
//! machine is testable deterministically — production uses a monotonic
//! [`std::time::Instant`] clock. All state transitions are counted
//! ([`BreakerStats`]) and surfaced alongside the fallback-chain counters,
//! so "the learned stage has been open for an hour" is an observable fact
//! rather than a silent degradation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qfe_obs::Recorder;

/// Breaker tuning knobs.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures (errors, timeouts, contract violations) that
    /// trip the breaker from closed to open. Clamped to `>= 1`.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a half-open probe.
    pub cooldown: Duration,
    /// Upper bound for the exponentially growing cooldown.
    pub max_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_secs(10),
        }
    }
}

/// The observable state of a breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow through; failures are counted.
    Closed,
    /// Requests are rejected without invoking the stage.
    Open,
    /// One probe request is in flight; its outcome decides open vs closed.
    HalfOpen,
}

/// Counter snapshot of a breaker's lifetime transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerStats {
    /// Current state.
    pub state: BreakerState,
    /// Closed/half-open → open transitions.
    pub opened: u64,
    /// Open → half-open transitions (probe admissions).
    pub probes: u64,
    /// Half-open → closed transitions (probe successes).
    pub reclosed: u64,
    /// Requests rejected because the breaker was open.
    pub rejected: u64,
}

/// Monotonic time source; injectable for deterministic tests.
type Clock = Arc<dyn Fn() -> Duration + Send + Sync>;

/// A recorder plus precomputed metric names, so emitting a transition
/// event never allocates on the request path.
struct BreakerEvents {
    recorder: Arc<dyn Recorder>,
    opened: String,
    probes: String,
    reclosed: String,
    rejected: String,
}

struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    /// When the current open period ends (elapsed-clock time).
    open_until: Duration,
    /// Exponent of the current cooldown (doubles per consecutive re-open).
    backoff: u32,
}

/// Thread-safe circuit breaker (see the module docs for the state
/// machine). The mutex guards only a few words and is held for a handful
/// of instructions; counters are separate atomics so stats reads never
/// contend with the request path.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
    clock: Clock,
    opened: AtomicU64,
    probes: AtomicU64,
    reclosed: AtomicU64,
    rejected: AtomicU64,
    events: Option<BreakerEvents>,
}

impl CircuitBreaker {
    /// A breaker on the real (monotonic) clock.
    pub fn new(cfg: BreakerConfig) -> Self {
        let epoch = Instant::now();
        Self::with_clock(cfg, Arc::new(move || epoch.elapsed()))
    }

    /// A breaker on an injected clock returning elapsed time since an
    /// arbitrary fixed epoch. Tests drive this with an atomic counter to
    /// step through the state machine deterministically.
    pub fn with_clock(mut cfg: BreakerConfig, clock: Clock) -> Self {
        cfg.failure_threshold = cfg.failure_threshold.max(1);
        if cfg.max_cooldown < cfg.cooldown {
            cfg.max_cooldown = cfg.cooldown;
        }
        CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                open_until: Duration::ZERO,
                backoff: 0,
            }),
            clock,
            opened: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            reclosed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            events: None,
        }
    }

    /// Additionally publish state-transition events to `recorder` as
    /// counters named `<prefix>.opened`, `<prefix>.probes`,
    /// `<prefix>.reclosed`, and `<prefix>.rejected`. The names are
    /// precomputed here so the transition path never allocates. The
    /// internal [`BreakerStats`] counters keep working either way.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>, prefix: &str) -> Self {
        self.events = Some(BreakerEvents {
            recorder,
            opened: format!("{prefix}.opened"),
            probes: format!("{prefix}.probes"),
            reclosed: format!("{prefix}.reclosed"),
            rejected: format!("{prefix}.rejected"),
        });
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A breaker mutex can only be poisoned if a thread panicked while
        // holding it; the critical sections below cannot panic, but if it
        // ever happens the breaker state is still plain data — recover it.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Ask to invoke the protected stage. `true` means go ahead (closed,
    /// or admitted as the half-open probe); `false` means the breaker is
    /// open — skip the stage and fall through.
    pub fn admit(&self) -> bool {
        let now = (self.clock)();
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= inner.open_until {
                    inner.state = BreakerState::HalfOpen;
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    if let Some(ev) = &self.events {
                        ev.recorder.incr(&ev.probes);
                    }
                    true
                } else {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    if let Some(ev) = &self.events {
                        ev.recorder.incr(&ev.rejected);
                    }
                    false
                }
            }
            // A probe is already in flight; concurrent requests keep
            // falling through until it resolves.
            BreakerState::HalfOpen => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(ev) = &self.events {
                    ev.recorder.incr(&ev.rejected);
                }
                false
            }
        }
    }

    /// Record a successful stage call.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        if inner.state == BreakerState::HalfOpen {
            self.reclosed.fetch_add(1, Ordering::Relaxed);
            if let Some(ev) = &self.events {
                ev.recorder.incr(&ev.reclosed);
            }
        }
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.backoff = 0;
    }

    /// Record a failed stage call (typed error, timeout, panic, or
    /// contract violation).
    pub fn record_failure(&self) {
        let now = (self.clock)();
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.cfg.failure_threshold {
                    self.open(&mut inner, now);
                }
            }
            // The half-open probe failed: re-open with a longer cooldown.
            BreakerState::HalfOpen => {
                inner.backoff = inner.backoff.saturating_add(1);
                self.open(&mut inner, now);
            }
            BreakerState::Open => {}
        }
    }

    fn open(&self, inner: &mut Inner, now: Duration) {
        let cooldown = self
            .cfg
            .cooldown
            .saturating_mul(1u32 << inner.backoff.min(16))
            .min(self.cfg.max_cooldown);
        inner.state = BreakerState::Open;
        inner.open_until = now.saturating_add(cooldown);
        inner.consecutive_failures = 0;
        self.opened.fetch_add(1, Ordering::Relaxed);
        if let Some(ev) = &self.events {
            ev.recorder.incr(&ev.opened);
        }
    }

    /// Current state (racy by nature — for observability, not control
    /// flow).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Snapshot of the transition counters.
    pub fn stats(&self) -> BreakerStats {
        BreakerStats {
            state: self.state(),
            opened: self.opened.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            reclosed: self.reclosed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as ClockCell;

    /// A manually stepped clock: `tick.store(ms)` sets "now".
    fn manual_clock() -> (Arc<ClockCell>, Clock) {
        let tick = Arc::new(ClockCell::new(0));
        let t = Arc::clone(&tick);
        (
            tick,
            Arc::new(move || Duration::from_millis(t.load(Ordering::Relaxed))),
        )
    }

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_millis(400),
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let (_, clock) = manual_clock();
        let b = CircuitBreaker::with_clock(cfg(), clock);
        for _ in 0..2 {
            assert!(b.admit());
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.admit());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open breaker rejects");
        let s = b.stats();
        assert_eq!((s.opened, s.rejected), (1, 1));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let (_, clock) = manual_clock();
        let b = CircuitBreaker::with_clock(cfg(), clock);
        for _ in 0..10 {
            assert!(b.admit());
            b.record_failure();
            assert!(b.admit());
            b.record_failure();
            assert!(b.admit());
            b.record_success(); // streak broken at 2 < threshold 3
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().opened, 0);
    }

    #[test]
    fn half_open_probe_recovers_or_reopens_with_backoff() {
        let (tick, clock) = manual_clock();
        let b = CircuitBreaker::with_clock(cfg(), clock);
        for _ in 0..3 {
            b.admit();
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);

        // Cooldown not elapsed: still rejecting.
        tick.store(99, Ordering::Relaxed);
        assert!(!b.admit());

        // Cooldown elapsed: exactly one probe goes through, concurrent
        // requests keep being rejected.
        tick.store(100, Ordering::Relaxed);
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit());

        // Probe fails → re-open with doubled cooldown (200ms).
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        tick.store(299, Ordering::Relaxed);
        assert!(!b.admit());
        tick.store(300, Ordering::Relaxed);
        assert!(b.admit());

        // Probe succeeds → closed, streak and backoff reset.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let s = b.stats();
        assert_eq!((s.opened, s.probes, s.reclosed), (2, 2, 1));
    }

    #[test]
    fn cooldown_backoff_is_capped() {
        let (tick, clock) = manual_clock();
        let b = CircuitBreaker::with_clock(cfg(), clock);
        let mut now = 0u64;
        // Trip, then fail every probe; the cooldown must never exceed
        // max_cooldown (400ms).
        for _ in 0..3 {
            b.admit();
            b.record_failure();
        }
        for _ in 0..8 {
            now += 400;
            tick.store(now, Ordering::Relaxed);
            assert!(b.admit(), "max cooldown is 400ms, probe must be admitted");
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn transitions_are_published_to_the_recorder() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let (tick, clock) = manual_clock();
        let b = CircuitBreaker::with_clock(cfg(), clock)
            .with_recorder(recorder.clone(), "test.breaker");
        // Trip the breaker, reject once, probe, and re-close.
        for _ in 0..3 {
            b.admit();
            b.record_failure();
        }
        assert!(!b.admit()); // rejected while open
        tick.store(100, Ordering::Relaxed);
        assert!(b.admit()); // probe
        b.record_success(); // re-close
        assert_eq!(recorder.counter("test.breaker.opened"), 1);
        assert_eq!(recorder.counter("test.breaker.rejected"), 1);
        assert_eq!(recorder.counter("test.breaker.probes"), 1);
        assert_eq!(recorder.counter("test.breaker.reclosed"), 1);
        // The recorder mirrors the internal stats exactly.
        let s = b.stats();
        assert_eq!((s.opened, s.probes, s.reclosed, s.rejected), (1, 1, 1, 1));
    }
}
