//! Deterministic fault injection for regressors and estimators.
//!
//! [`ChaosRegressor`] wraps any [`Regressor`] and corrupts a seeded,
//! reproducible subset of its predictions — NaN, ±∞, or absurd garbage
//! magnitudes. [`ChaosEstimator`] wraps any [`CardinalityEstimator`] and
//! makes a seeded subset of its calls fail in each of the ways a real
//! estimator can: typed errors, NaN or below-one values, stalls and
//! panics. Both exist to *test* the robustness layer: the guards in
//! [`Regressor::try_predict_batch`] and the serving stage loop must turn
//! every injected fault into a typed error or a sane fallback, never a
//! panic escaping the service and never a silently-wrong estimate.
//!
//! Injection is a pure function of `(seed, call index[, output index])`,
//! so a failing test case replays exactly. Nothing here is conditionally
//! compiled away: chaos wrappers are ordinary models and estimators,
//! usable from integration tests, examples and benchmarks alike.

use crate::matrix::Matrix;
use crate::train::{Regressor, TrainError};
use qfe_core::error::EstimateError;
use qfe_core::estimator::{CardinalityEstimator, Estimate};
use qfe_core::Query;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The corruption a [`ChaosRegressor`] injects into predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressorFault {
    /// Replace the prediction with NaN.
    Nan,
    /// Replace the prediction with +∞.
    Infinity,
    /// Replace the prediction with a finite but absurd magnitude
    /// (±1e30) — the kind of silent garbage a divergent model emits.
    Garbage,
    /// Training rounds that never finish: `try_fit_within` spins forever,
    /// polling `should_continue` between (optionally real-time-stalled)
    /// virtual rounds, and only the caller's budget saying "stop" ends it
    /// with [`TrainError::Interrupted`]. This is the fault a budgeted
    /// retraining loop exists for — a test that survives it has proven
    /// its budget is actually enforced, because nothing else terminates
    /// the call. Predictions and the unbudgeted `fit`/`try_fit` paths
    /// pass through untouched.
    SlowTrain,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from a hash of the identifying indices.
fn unit(seed: u64, call: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ call.wrapping_mul(0x9E37_79B9) ^ index.wrapping_mul(0x85EB_CA6B));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A [`Regressor`] wrapper that deterministically corrupts a fraction of
/// predictions (see the module docs).
#[derive(Debug)]
pub struct ChaosRegressor<M> {
    inner: M,
    fault: RegressorFault,
    rate: f64,
    seed: u64,
    calls: AtomicU64,
    stall: Duration,
}

impl<M: Regressor> ChaosRegressor<M> {
    /// Wrap `inner`, corrupting each prediction independently with
    /// probability `rate` (clamped to [0, 1]), deterministically in `seed`.
    pub fn new(inner: M, fault: RegressorFault, rate: f64, seed: u64) -> Self {
        ChaosRegressor {
            inner,
            fault,
            rate: rate.clamp(0.0, 1.0),
            seed,
            calls: AtomicU64::new(0),
            stall: Duration::ZERO,
        }
    }

    /// Real time burned per virtual [`RegressorFault::SlowTrain`] round
    /// (default: none). Tests on an injected, auto-advancing clock keep
    /// this at zero so the stall is purely virtual and the test is
    /// instant; wall-clock stress runs set a small real stall so the
    /// budget enforcement is exercised against a genuinely blocked
    /// thread.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// The wrapped regressor.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn corrupted(&self, original: f32) -> f32 {
        match self.fault {
            RegressorFault::Nan => f32::NAN,
            RegressorFault::Infinity => f32::INFINITY,
            RegressorFault::Garbage => {
                if original >= 0.0 {
                    1e30
                } else {
                    -1e30
                }
            }
            // SlowTrain is a training-path fault; predictions flow
            // through untouched even when it fires.
            RegressorFault::SlowTrain => original,
        }
    }

    /// Whether the per-call fault fires for the call numbered by the
    /// shared counter (pure in `(seed, call)`, like every other chaos
    /// draw in this workspace).
    fn call_fires(&self, call: u64) -> bool {
        unit(self.seed, call, u64::MAX) < self.rate
    }
}

impl<M: Regressor> Regressor for ChaosRegressor<M> {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        self.inner.fit(x, y);
    }

    fn try_fit(&mut self, x: &Matrix, y: &[f32]) -> Result<(), TrainError> {
        self.inner.try_fit(x, y)
    }

    /// Budgeted training with the [`RegressorFault::SlowTrain`] hook: when
    /// the fault fires for this call, the method never finishes on its
    /// own — it spins through virtual rounds (each optionally burning
    /// [`with_stall`](ChaosRegressor::with_stall) of real time), polling
    /// `should_continue` between rounds, until the budget aborts it with
    /// [`TrainError::Interrupted`]. The model is left untouched, honoring
    /// the no-poisoning contract.
    fn try_fit_within(
        &mut self,
        x: &Matrix,
        y: &[f32],
        should_continue: &mut dyn FnMut() -> bool,
    ) -> Result<(), TrainError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.fault == RegressorFault::SlowTrain && self.call_fires(call) {
            let mut round = 0usize;
            loop {
                if !should_continue() {
                    return Err(TrainError::Interrupted { round });
                }
                if !self.stall.is_zero() {
                    std::thread::sleep(self.stall);
                }
                round = round.saturating_add(1);
            }
        }
        self.inner.try_fit_within(x, y, should_continue)
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<f32> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut out = self.inner.predict_batch(x);
        for (i, v) in out.iter_mut().enumerate() {
            if unit(self.seed, call, i as u64) < self.rate {
                *v = self.corrupted(*v);
            }
        }
        out
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn model_name(&self) -> &'static str {
        "chaos"
    }
}

/// The failure modes [`ChaosEstimator`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorFault {
    /// `try_estimate` returns a typed [`EstimateError::Internal`].
    Error,
    /// The estimator "succeeds" with a NaN value — a contract violation
    /// that downstream consumers must catch.
    Nan,
    /// The estimator "succeeds" with finite garbage below the legal
    /// minimum (negative cardinality).
    Garbage,
    /// The call sleeps for the wrapper's configured latency
    /// ([`ChaosEstimator::with_latency`]) and then answers correctly — an
    /// inference-latency spike, the fault deadlines and breakers exist
    /// for. Which calls stall is seeded and replayable like every other
    /// fault; the stall duration itself is fixed, not random, so timeout
    /// assertions stay deterministic.
    Latency,
    /// The call panics — the fault `catch_unwind` isolation exists for.
    /// The panic payload is [`ChaosEstimator::PANIC_MSG`], so test panic
    /// hooks can tell injected panics from real assertion failures.
    Panic,
}

/// Deterministic fault-injection wrapper around any estimator.
///
/// Each call fails independently with probability `rate`; whether call
/// `n` fails — and with which of the configured faults — is a pure
/// function of `(seed, n)`, so any failing test case replays exactly.
pub struct ChaosEstimator<E> {
    inner: E,
    faults: Vec<EstimatorFault>,
    rate: f64,
    seed: u64,
    latency: Duration,
    calls: AtomicU64,
}

impl<E: CardinalityEstimator> ChaosEstimator<E> {
    /// Panic payload of [`EstimatorFault::Panic`].
    pub const PANIC_MSG: &'static str = "chaos: injected estimator panic";

    /// Wrap `inner`, injecting one of `faults` (chosen deterministically
    /// per call) with probability `rate` per call. An empty `faults` list
    /// disables injection.
    pub fn new(inner: E, faults: Vec<EstimatorFault>, rate: f64, seed: u64) -> Self {
        ChaosEstimator {
            inner,
            faults,
            rate: rate.clamp(0.0, 1.0),
            seed,
            latency: Duration::from_millis(25),
            calls: AtomicU64::new(0),
        }
    }

    /// Set the stall duration injected by [`EstimatorFault::Latency`]
    /// (default 25 ms).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The fault for the next call, if one fires.
    fn next_fault(&self) -> Option<EstimatorFault> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.faults.is_empty() {
            return None;
        }
        let h = splitmix64(self.seed ^ call.wrapping_mul(0x85EB_CA6B));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit < self.rate {
            Some(self.faults[(splitmix64(h) % self.faults.len() as u64) as usize])
        } else {
            None
        }
    }
}

impl<E: CardinalityEstimator> CardinalityEstimator for ChaosEstimator<E> {
    fn name(&self) -> String {
        format!("chaos({})", self.inner.name())
    }

    fn estimate(&self, query: &Query) -> f64 {
        match self.next_fault() {
            None => self.inner.estimate(query),
            Some(EstimatorFault::Error) | Some(EstimatorFault::Nan) => f64::NAN,
            Some(EstimatorFault::Garbage) => -1e9,
            Some(EstimatorFault::Latency) => {
                std::thread::sleep(self.latency);
                self.inner.estimate(query)
            }
            Some(EstimatorFault::Panic) => panic!("{}", Self::PANIC_MSG),
        }
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        match self.next_fault() {
            None => self.inner.try_estimate(query),
            Some(EstimatorFault::Error) => Err(EstimateError::Internal {
                estimator: self.name(),
                message: "injected fault".into(),
            }),
            // Nan and Garbage deliberately violate the Ok contract — this
            // is what a buggy estimator looks like from the outside, and
            // exactly what the service's re-validation must absorb.
            Some(EstimatorFault::Nan) => Ok(Estimate::primary(f64::NAN, self.name())),
            Some(EstimatorFault::Garbage) => Ok(Estimate::primary(-1e9, self.name())),
            // A stall, then a *correct* answer: slow is its own failure
            // mode, distinct from wrong.
            Some(EstimatorFault::Latency) => {
                std::thread::sleep(self.latency);
                self.inner.try_estimate(query)
            }
            Some(EstimatorFault::Panic) => panic!("{}", Self::PANIC_MSG),
        }
    }

    /// Identical to the trait default, pinned here on purpose: faults
    /// are drawn **per row in row order**, so a batch of `n` fails
    /// exactly the calls that `n` singleton calls would have failed.
    /// Replayability of seeded test cases depends on this — do not
    /// "optimize" it into one draw per batch.
    fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        queries.iter().map(|q| self.try_estimate(q)).collect()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearRegression;

    fn fitted_linreg() -> LinearRegression {
        let x = Matrix::from_rows(&(0..32).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let y: Vec<f32> = (0..32).map(|i| i as f32 * 0.5).collect();
        let mut m = LinearRegression::new(0);
        m.fit(&x, &y);
        m
    }

    fn probe() -> Matrix {
        Matrix::from_rows(&(0..64).map(|i| vec![i as f32]).collect::<Vec<_>>())
    }

    #[test]
    fn zero_rate_is_transparent() {
        let m = fitted_linreg();
        let clean = m.predict_batch(&probe());
        let chaos = ChaosRegressor::new(fitted_linreg(), RegressorFault::Nan, 0.0, 1);
        assert_eq!(chaos.predict_batch(&probe()), clean);
    }

    #[test]
    fn full_rate_corrupts_everything() {
        let chaos = ChaosRegressor::new(fitted_linreg(), RegressorFault::Nan, 1.0, 1);
        assert!(chaos.predict_batch(&probe()).iter().all(|v| v.is_nan()));
        let chaos = ChaosRegressor::new(fitted_linreg(), RegressorFault::Infinity, 1.0, 1);
        assert!(chaos
            .predict_batch(&probe())
            .iter()
            .all(|v| *v == f32::INFINITY));
        let chaos = ChaosRegressor::new(fitted_linreg(), RegressorFault::Garbage, 1.0, 1);
        assert!(chaos
            .predict_batch(&probe())
            .iter()
            .all(|v| v.is_finite() && v.abs() >= 1e29));
    }

    #[test]
    fn same_seed_same_faults() {
        let a = ChaosRegressor::new(fitted_linreg(), RegressorFault::Nan, 0.3, 42);
        let b = ChaosRegressor::new(fitted_linreg(), RegressorFault::Nan, 0.3, 42);
        let pa = a.predict_batch(&probe());
        let pb = b.predict_batch(&probe());
        let mask_a: Vec<bool> = pa.iter().map(|v| v.is_nan()).collect();
        let mask_b: Vec<bool> = pb.iter().map(|v| v.is_nan()).collect();
        assert_eq!(mask_a, mask_b);
        assert!(mask_a.iter().any(|&m| m), "rate 0.3 over 64 outputs");
        assert!(!mask_a.iter().all(|&m| m));
    }

    #[test]
    fn different_calls_fault_different_positions() {
        let chaos = ChaosRegressor::new(fitted_linreg(), RegressorFault::Nan, 0.3, 7);
        let m1: Vec<bool> = chaos
            .predict_batch(&probe())
            .iter()
            .map(|v| v.is_nan())
            .collect();
        let m2: Vec<bool> = chaos
            .predict_batch(&probe())
            .iter()
            .map(|v| v.is_nan())
            .collect();
        assert_ne!(m1, m2, "fault pattern should vary across calls");
    }

    #[test]
    fn slow_train_spins_until_the_budget_says_stop() {
        let mut chaos =
            ChaosRegressor::new(LinearRegression::new(0), RegressorFault::SlowTrain, 1.0, 5);
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let y = [1.0, 2.0];
        // A virtual budget of 100 polls: training must end via
        // Interrupted, not by completing.
        let mut polls = 0u32;
        let err = chaos
            .try_fit_within(&x, &y, &mut || {
                polls += 1;
                polls <= 100
            })
            .unwrap_err();
        assert!(
            matches!(err, TrainError::Interrupted { round: 100 }),
            "{err:?}"
        );
        assert_eq!(polls, 101, "one poll per round plus the aborting one");
        // The model was never touched (no-poisoning): fitting now works
        // exactly like on a fresh model.
        assert!(chaos.try_fit(&x, &y).is_ok());
    }

    #[test]
    fn slow_train_at_rate_zero_trains_normally_and_predicts_cleanly() {
        let mut chaos =
            ChaosRegressor::new(LinearRegression::new(0), RegressorFault::SlowTrain, 0.0, 5);
        let x = Matrix::from_rows(&(0..16).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let y: Vec<f32> = (0..16).map(|i| i as f32).collect();
        chaos
            .try_fit_within(&x, &y, &mut || true)
            .expect("rate 0 never stalls");
        // SlowTrain is a training fault only: predictions pass through
        // even at rate 1.0.
        let always = ChaosRegressor::new(fitted_linreg(), RegressorFault::SlowTrain, 1.0, 5);
        assert_eq!(
            always.predict_batch(&probe()),
            fitted_linreg().predict_batch(&probe())
        );
    }

    #[test]
    fn try_predict_surfaces_injected_fault_as_typed_error() {
        let chaos = ChaosRegressor::new(fitted_linreg(), RegressorFault::Nan, 1.0, 3);
        let err = chaos.try_predict_batch(&probe()).unwrap_err();
        assert!(
            matches!(err, TrainError::NonFinitePrediction { .. }),
            "{err:?}"
        );
    }

    struct Constant(f64);

    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            "constant".into()
        }

        fn estimate(&self, _query: &Query) -> f64 {
            self.0
        }
    }

    fn q() -> Query {
        Query::single_table(qfe_core::TableId(0), vec![])
    }

    #[test]
    fn estimator_zero_rate_is_transparent() {
        let chaos = ChaosEstimator::new(Constant(42.0), vec![EstimatorFault::Nan], 0.0, 1);
        for _ in 0..50 {
            assert_eq!(chaos.try_estimate(&q()).unwrap().value, 42.0);
        }
    }

    #[test]
    fn estimator_full_rate_always_faults() {
        let chaos = ChaosEstimator::new(Constant(42.0), vec![EstimatorFault::Error], 1.0, 1);
        for _ in 0..20 {
            let err = chaos.try_estimate(&q()).unwrap_err();
            assert_eq!(err.kind(), qfe_core::EstimateErrorKind::Internal);
        }
    }

    #[test]
    fn estimator_faults_are_deterministic_in_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let chaos = ChaosEstimator::new(
                Constant(42.0),
                vec![EstimatorFault::Error, EstimatorFault::Nan],
                0.5,
                seed,
            );
            (0..64).map(|_| chaos.try_estimate(&q()).is_err()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn estimator_fault_draws_are_pinned() {
        // The per-call draw is part of every seeded test's replay: these
        // fault positions must never change.
        let chaos = ChaosEstimator::new(
            Constant(42.0),
            vec![EstimatorFault::Error, EstimatorFault::Nan],
            0.5,
            7,
        );
        let drawn: Vec<Option<EstimatorFault>> = (0..12).map(|_| chaos.next_fault()).collect();
        let (e, n) = (Some(EstimatorFault::Error), Some(EstimatorFault::Nan));
        assert_eq!(
            drawn,
            [n, None, n, None, None, None, n, None, e, None, None, e]
        );
    }

    #[test]
    fn latency_fault_stalls_then_answers_correctly() {
        let chaos = ChaosEstimator::new(Constant(42.0), vec![EstimatorFault::Latency], 1.0, 1)
            .with_latency(Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        let e = chaos.try_estimate(&q()).unwrap();
        assert_eq!(e.value, 42.0, "latency fault must not corrupt the value");
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "the injected stall must be observable"
        );
        // Seeded like every other fault: a rate-0.5 wrapper stalls the
        // same calls on every run.
        let stalls = |seed: u64| -> Vec<bool> {
            let c = ChaosEstimator::new(Constant(1.0), vec![EstimatorFault::Latency], 0.5, seed)
                .with_latency(Duration::ZERO);
            (0..32).map(|_| c.next_fault().is_some()).collect()
        };
        assert_eq!(stalls(3), stalls(3));
        assert_ne!(stalls(3), stalls(4));
    }

    #[test]
    fn panic_fault_panics_with_the_documented_payload() {
        let chaos = ChaosEstimator::new(Constant(1.0), vec![EstimatorFault::Panic], 1.0, 1);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos.try_estimate(&q())))
                .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, ChaosEstimator::<Constant>::PANIC_MSG);
    }
}
