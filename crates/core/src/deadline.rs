//! Per-request time budgets for estimation.
//!
//! A cardinality estimate is only useful while the optimizer is still
//! waiting for it — the paper's latency argument (Section 5.6, Table 7) is
//! that featurization + inference must fit the plan-search hot path. A
//! [`Deadline`] makes that budget explicit and portable: it is created at
//! admission time, carried through every stage of a fallback chain, and
//! consulted before (and during) each stage call so a slow learned model
//! is abandoned and the *remaining* budget flows to the cheaper
//! histogram/sampling stages instead of being lost.
//!
//! Deadlines are plain values over [`std::time::Instant`]: cheap to copy,
//! meaningful across threads, and immune to wall-clock adjustments.

use std::time::{Duration, Instant};

/// The budget of [`Deadline::unbounded`], and the most any deadline gets:
/// about 30 years.
const HORIZON: Duration = Duration::from_secs(60 * 60 * 24 * 365 * 30);

/// An absolute point in time by which a request must be answered.
///
/// Constructed from a relative budget ([`Deadline::within`]); all
/// consumers then ask only two questions: [`expired`](Deadline::expired)
/// and [`remaining`](Deadline::remaining).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    start: Instant,
    due: Instant,
}

impl Deadline {
    /// A deadline `budget` from now. Budgets beyond the
    /// [`unbounded`](Self::unbounded) horizon saturate at it, so even
    /// `Duration::MAX` is a deadline that never expires in practice.
    pub fn within(budget: Duration) -> Self {
        let start = Instant::now();
        Deadline {
            start,
            due: start + budget.min(HORIZON),
        }
    }

    /// A deadline that never expires (practically: ~30 years out). Used
    /// when a caller wants the deadline-aware code path without a real
    /// budget.
    pub fn unbounded() -> Self {
        Deadline::within(HORIZON)
    }

    /// The budget this deadline was created with.
    pub fn budget(&self) -> Duration {
        self.due.duration_since(self.start)
    }

    /// Time since the deadline was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time left before expiry; `Duration::ZERO` once expired.
    pub fn remaining(&self) -> Duration {
        self.due.saturating_duration_since(Instant::now())
    }

    /// True once the budget is exhausted.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_has_budget_left() {
        let d = Deadline::within(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(59));
        assert_eq!(d.budget(), Duration::from_secs(60));
    }

    #[test]
    fn zero_budget_is_immediately_expired() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn expires_after_the_budget() {
        let d = Deadline::within(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(20));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        assert!(d.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn unbounded_never_expires_in_practice() {
        let d = Deadline::unbounded();
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(60 * 60));
    }

    #[test]
    fn huge_budgets_saturate_at_the_unbounded_horizon() {
        for budget in [Duration::MAX, Duration::from_secs(u64::MAX / 2)] {
            let d = Deadline::within(budget);
            assert!(!d.expired(), "{budget:?} expired at birth");
            assert_eq!(d.budget(), HORIZON);
            assert!(d.remaining() > Duration::from_secs(60 * 60));
        }
    }

    #[test]
    fn copies_agree() {
        let d = Deadline::within(Duration::from_secs(5));
        let e = d;
        assert_eq!(d, e);
        assert_eq!(d.budget(), e.budget());
    }
}
