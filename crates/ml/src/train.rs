//! Shared training abstractions: the [`Regressor`] trait all models
//! implement, plus deterministic shuffling and train/validation splitting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::matrix::Matrix;
use qfe_core::featurize::FeatureBinner;
use qfe_core::QfeError;

/// Typed training/inference failures.
///
/// Every variant names the exact sample (or boosting round) that broke, so
/// a failed training run on a 100k-query workload is debuggable without a
/// debugger. `try_fit` guarantees that on `Err` the model is left exactly
/// as it was before the call — no half-trained state.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The training set has zero samples.
    EmptyTrainingSet,
    /// Feature row count and label count disagree.
    ShapeMismatch { rows: usize, labels: usize },
    /// A feature value is NaN or ±∞.
    NonFiniteFeature { row: usize, col: usize },
    /// A target value is NaN or ±∞.
    NonFiniteLabel { row: usize },
    /// The training loss went NaN/∞ mid-optimization (diverged).
    NonFiniteLoss { round: usize },
    /// A trained model produced a NaN/∞ prediction.
    NonFinitePrediction { index: usize },
    /// Training was interrupted by the caller's continuation check (e.g.
    /// a retraining deadline expired) before the given boosting round /
    /// epoch. The model is unchanged — same no-poisoning guarantee as
    /// every other `try_fit` failure.
    Interrupted { round: usize },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyTrainingSet => write!(f, "cannot train on an empty workload"),
            TrainError::ShapeMismatch { rows, labels } => {
                write!(f, "{rows} feature rows but {labels} labels")
            }
            TrainError::NonFiniteFeature { row, col } => {
                write!(f, "non-finite feature at row {row}, column {col}")
            }
            TrainError::NonFiniteLabel { row } => write!(f, "non-finite label at row {row}"),
            TrainError::NonFiniteLoss { round } => {
                write!(f, "training loss went non-finite at round {round}")
            }
            TrainError::NonFinitePrediction { index } => {
                write!(f, "model produced a non-finite prediction at index {index}")
            }
            TrainError::Interrupted { round } => {
                write!(f, "training interrupted by the caller before round {round}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<TrainError> for QfeError {
    fn from(e: TrainError) -> Self {
        QfeError::Training(e.to_string())
    }
}

/// Shared input validation for [`Regressor::try_fit`].
pub fn validate_training_set(x: &Matrix, y: &[f32]) -> Result<(), TrainError> {
    if x.rows() == 0 {
        return Err(TrainError::EmptyTrainingSet);
    }
    if x.rows() != y.len() {
        return Err(TrainError::ShapeMismatch {
            rows: x.rows(),
            labels: y.len(),
        });
    }
    for row in 0..x.rows() {
        for (col, &v) in x.row(row).iter().enumerate() {
            if !v.is_finite() {
                return Err(TrainError::NonFiniteFeature { row, col });
            }
        }
    }
    if let Some(row) = y.iter().position(|v| !v.is_finite()) {
        return Err(TrainError::NonFiniteLabel { row });
    }
    Ok(())
}

/// A trainable regression model over dense feature matrices.
///
/// Models are input-agnostic (Section 2.2 of the paper): for a fixed input
/// dimension they work with any numeric vector, which is what allows
/// swapping QFTs without touching model architectures.
pub trait Regressor {
    /// Fit on features `x` (one row per sample) and targets `y`.
    ///
    /// # Panics
    /// Panics if `x.rows() != y.len()` or `x` is empty.
    fn fit(&mut self, x: &Matrix, y: &[f32]);

    /// Predict targets for a batch.
    ///
    /// Contract: the output has exactly `x.rows()` entries; a 0-row input
    /// yields an empty vector (models must not trip their input-dimension
    /// assertions on the degenerate `0×0` of `Matrix::from_rows(&[])`).
    fn predict_batch(&self, x: &Matrix) -> Vec<f32>;

    /// Predict a single sample.
    ///
    /// The default reshapes a thread-local `1×n` buffer around `x` and
    /// calls [`predict_batch`](Self::predict_batch) — after the buffer has
    /// warmed up, the only allocation left on this hot serving path is the
    /// one-element output vector (previously: the row clone *and* the
    /// matrix body, two heap allocations per call).
    fn predict(&self, x: &[f32]) -> f32 {
        use std::cell::RefCell;
        thread_local! {
            static SINGLE_ROW: RefCell<Matrix> = RefCell::new(Matrix::empty(0));
        }
        SINGLE_ROW.with(|slot| {
            let mut m = slot.borrow_mut();
            m.copy_from_row(x);
            self.predict_batch(&m)[0]
        })
    }

    /// Fallible training: validates shape and finiteness of the inputs
    /// before fitting, and returns a typed [`TrainError`] instead of
    /// panicking or silently absorbing NaNs into the weights.
    ///
    /// On `Err` the model is unchanged (validation happens before any
    /// mutation). Models with iterative optimizers override this to also
    /// abort on mid-training divergence ([`TrainError::NonFiniteLoss`]).
    fn try_fit(&mut self, x: &Matrix, y: &[f32]) -> Result<(), TrainError> {
        validate_training_set(x, y)?;
        self.fit(x, y);
        Ok(())
    }

    /// Fallible batch prediction: every output is checked finite, a NaN/∞
    /// surfaces as [`TrainError::NonFinitePrediction`] naming the sample.
    fn try_predict_batch(&self, x: &Matrix) -> Result<Vec<f32>, TrainError> {
        let out = self.predict_batch(x);
        if let Some(index) = out.iter().position(|v| !v.is_finite()) {
            return Err(TrainError::NonFinitePrediction { index });
        }
        Ok(out)
    }

    /// The quantization table for this model's compiled inference form,
    /// if it has one. A `Some` is a commitment: the model answers
    /// [`predict_batch_binned`](Self::predict_batch_binned) on every arena
    /// of the binner's width, bit-identically to the `f32` path, so a
    /// caller featurizes straight to `u16` bin ids and never needs the
    /// `f32` path for this model. The default — and any wrapper that
    /// perturbs predictions, like the chaos injector — returns `None` so
    /// callers stay on the `f32` path.
    fn feature_binner(&self) -> Option<&FeatureBinner> {
        None
    }

    /// Predict from a row-major arena of `u16` bin ids produced with this
    /// model's [`feature_binner`](Self::feature_binner) (`rows` rows of
    /// `dim` ids each). `None` only when the model has no binner or the
    /// arena's length is not `rows * dim`. Implementations must return
    /// exactly `rows` predictions, bit-identical to the `f32` path on the
    /// same featurized rows.
    fn predict_batch_binned(&self, rows: usize, bins: &[u16]) -> Option<Vec<f32>> {
        let _ = (rows, bins);
        None
    }

    /// Interruptible training: `should_continue` is polled at safe points
    /// (between boosting rounds / epochs for iterative models); returning
    /// `false` aborts with [`TrainError::Interrupted`] and leaves the
    /// model unchanged. This is how a deadline-aware retraining loop
    /// bounds its own latency without killing the process.
    ///
    /// The default checks once up front and then trains to completion —
    /// correct for non-iterative models (closed-form linear regression),
    /// overridden by the boosted/gradient models.
    fn try_fit_within(
        &mut self,
        x: &Matrix,
        y: &[f32],
        should_continue: &mut dyn FnMut() -> bool,
    ) -> Result<(), TrainError> {
        if !should_continue() {
            return Err(TrainError::Interrupted { round: 0 });
        }
        self.try_fit(x, y)
    }

    /// Probe-workload validation of a trained model: every prediction on
    /// `probe` must be finite. This is the acceptance gate a serving
    /// layer runs before hot-swapping a freshly trained (or freshly
    /// deserialized) model into the request path — a model that emits
    /// NaN on a known-good probe set must never be published.
    fn validate_probe(&self, probe: &Matrix) -> Result<(), TrainError> {
        self.try_predict_batch(probe).map(|_| ())
    }

    /// Approximate model size in bytes (Section 5.7 compares footprints).
    fn memory_bytes(&self) -> usize;

    /// Model label for experiment output (`GB`, `NN`, `MSCN`, `linreg`).
    fn model_name(&self) -> &'static str;

    /// Serialize the trained model into its checksummed byte format
    /// (decodable by [`crate::serialize::regressor_from_bytes`]).
    ///
    /// `None` means this model has no durable form — either the family
    /// has no serializer yet (MSCN, linreg) or the model is untrained.
    /// A checkpoint store treats `None` as "skip, and count it", never
    /// as an error: durability is best-effort per model family.
    fn to_bytes(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Deterministically shuffled sample indices.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx
}

/// Split `n` samples into train/validation index sets with the given
/// validation fraction (deterministic). The closed endpoints are valid
/// degenerate splits: `0.0` puts every sample in train, `1.0` every
/// sample in validation.
pub fn train_val_split(n: usize, val_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..=1.0).contains(&val_fraction),
        "val_fraction {val_fraction} outside [0, 1]"
    );
    let idx = shuffled_indices(n, seed);
    let val_n = ((n as f64) * val_fraction).round() as usize;
    let (val, train) = idx.split_at(val_n);
    (train.to_vec(), val.to_vec())
}

/// Mean squared error between predictions and targets.
pub fn mse(pred: &[f32], target: &[f32]) -> f64 {
    assert_eq!(pred.len(), target.len());
    assert!(!pred.is_empty());
    pred.iter()
        .zip(target)
        .map(|(&p, &t)| ((p - t) as f64).powi(2))
        .sum::<f64>()
        / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let a = shuffled_indices(100, 5);
        let b = shuffled_indices(100, 5);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(a, sorted, "should actually shuffle");
    }

    #[test]
    fn split_fractions() {
        let (train, val) = train_val_split(100, 0.2, 1);
        assert_eq!(val.len(), 20);
        assert_eq!(train.len(), 80);
        let mut all: Vec<usize> = train.iter().chain(&val).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_edge_cases() {
        assert!(shuffled_indices(0, 7).is_empty());
        assert_eq!(shuffled_indices(1, 7), vec![0]);
    }

    #[test]
    fn split_edge_cases() {
        // n = 0: both sides empty at any fraction.
        for frac in [0.0, 0.5, 1.0] {
            let (train, val) = train_val_split(0, frac, 3);
            assert!(train.is_empty() && val.is_empty(), "frac {frac}");
        }
        // n = 1: the single sample lands on exactly one side.
        let (train, val) = train_val_split(1, 0.0, 3);
        assert_eq!((train.len(), val.len()), (1, 0));
        let (train, val) = train_val_split(1, 1.0, 3);
        assert_eq!((train.len(), val.len()), (0, 1));
        // Closed endpoints: degenerate but valid full splits.
        let (train, val) = train_val_split(10, 0.0, 3);
        assert_eq!((train.len(), val.len()), (10, 0));
        let (train, val) = train_val_split(10, 1.0, 3);
        assert_eq!((train.len(), val.len()), (0, 10));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn split_rejects_fraction_above_one() {
        let _ = train_val_split(10, 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn split_rejects_negative_fraction() {
        let _ = train_val_split(10, -0.1, 0);
    }

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mse(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
        assert_eq!(mse(&[3.0], &[1.0]), 4.0);
    }

    #[test]
    #[should_panic]
    fn mse_rejects_mismatched_lengths() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn validation_catches_each_failure_mode() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(
            validate_training_set(&Matrix::zeros(0, 2), &[]),
            Err(TrainError::EmptyTrainingSet)
        );
        assert_eq!(
            validate_training_set(&x, &[1.0]),
            Err(TrainError::ShapeMismatch { rows: 2, labels: 1 })
        );
        let bad_x = Matrix::from_rows(&[vec![1.0, f32::NAN], vec![3.0, 4.0]]);
        assert_eq!(
            validate_training_set(&bad_x, &[1.0, 2.0]),
            Err(TrainError::NonFiniteFeature { row: 0, col: 1 })
        );
        assert_eq!(
            validate_training_set(&x, &[1.0, f32::INFINITY]),
            Err(TrainError::NonFiniteLabel { row: 1 })
        );
        assert_eq!(validate_training_set(&x, &[1.0, 2.0]), Ok(()));
    }

    #[test]
    fn try_fit_rejects_bad_input_without_touching_the_model() {
        let mut m = crate::linreg::LinearRegression::new(0);
        let bad_x = Matrix::from_rows(&[vec![f32::NAN]]);
        assert!(m.try_fit(&bad_x, &[1.0]).is_err());
        // The model must still be untrained: predict should panic exactly
        // as it would on a freshly-constructed model.
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        assert!(m.try_fit(&x, &[1.0, 2.0]).is_ok());
        assert!(m.try_predict_batch(&x).is_ok());
    }

    #[test]
    fn train_error_converts_to_qfe_training_error() {
        let e: QfeError = TrainError::NonFiniteLoss { round: 7 }.into();
        assert!(
            matches!(e, QfeError::Training(ref m) if m.contains("round 7")),
            "{e:?}"
        );
    }
}
