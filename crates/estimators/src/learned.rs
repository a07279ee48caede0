//! Learned estimator: a QFT × model combination.
//!
//! This is the composition the whole paper is about: any
//! [`Featurizer`] (the QFT) is paired with any [`Regressor`] (the ML
//! model). The featurizer is the plug-in layer of Section 4 — swapping it
//! requires no change to the model beyond the input width.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use qfe_core::estimator::{CardinalityEstimator, Estimate};
use qfe_core::featurize::{FeatureMatrix, Featurizer};
use qfe_core::{EstimateError, QfeError, Query};
use qfe_ml::matrix::Matrix;
use qfe_ml::scaling::LogScaler;
use qfe_ml::train::Regressor;

use crate::labels::LabeledQueries;

/// Magic header of the learned-estimator snapshot frame (see
/// [`LearnedEstimator::snapshot_bytes`]).
const SNAPSHOT_MAGIC: &[u8; 8] = b"QFELE001";

/// Rows featurized and predicted per model call; larger batches run one
/// chunk per task on the shared [`qfe_core::parallel`] pool.
const ROW_CHUNK: usize = 64;

/// Per-thread buffers of [`LearnedEstimator::predict_chunk`], reused
/// across calls: a warm singleton allocates no feature buffer.
#[derive(Default)]
struct Scratch {
    /// Binned path: one `f32` feature row, and the chunk's bin ids.
    row: Vec<f32>,
    bins: Vec<u16>,
    /// Dense path: the chunk's feature rows.
    dense: Matrix,
    /// Per-row featurization failures, in row order.
    failed: Vec<Option<QfeError>>,
}

/// A trained (or trainable) QFT × model cardinality estimator.
pub struct LearnedEstimator {
    featurizer: Box<dyn Featurizer + Send + Sync>,
    model: Box<dyn Regressor + Send + Sync>,
    scaler: Option<LogScaler>,
    /// `"{model} + {qft}"`, built once: every answer carries it.
    name: String,
    /// Times [`estimate`](CardinalityEstimator::estimate) degraded to the
    /// conservative `1.0` instead of a model prediction. The silent part
    /// of that fallback is the dangerous part — this counter makes it
    /// observable, and [`try_estimate`](CardinalityEstimator::try_estimate)
    /// makes it typed.
    fallbacks: AtomicU64,
}

impl LearnedEstimator {
    /// Pair a featurizer with an (untrained) model.
    pub fn new(
        featurizer: Box<dyn Featurizer + Send + Sync>,
        model: Box<dyn Regressor + Send + Sync>,
    ) -> Self {
        LearnedEstimator {
            name: format!("{} + {}", model.model_name(), featurizer.name()),
            featurizer,
            model,
            scaler: None,
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Featurize a workload into a dense matrix.
    ///
    /// Built through the zero-copy [`FeatureMatrix`] arena: one
    /// allocation for the whole workload, handed to [`Matrix`] without a
    /// row-by-row copy. All-or-nothing: the first featurization failure
    /// aborts the build (use the batched estimation path for per-row
    /// error tolerance).
    pub fn featurize_matrix(&self, queries: &[Query]) -> Result<Matrix, QfeError> {
        let (rows, cols, data, errors) =
            FeatureMatrix::build(self.featurizer.as_ref(), queries).into_raw();
        if let Some(e) = errors.into_iter().flatten().next() {
            return Err(e);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Train on labeled queries.
    ///
    /// # Errors
    /// Fails if any training query cannot be featurized by the configured
    /// QFT (e.g. disjunctions under `conjunctive`).
    pub fn fit(&mut self, data: &LabeledQueries) -> Result<(), QfeError> {
        assert!(!data.is_empty(), "cannot train on an empty workload");
        let x = self.featurize_matrix(&data.queries)?;
        let scaler = LogScaler::fit(&data.cardinalities)?;
        let y = scaler.transform_batch(&data.cardinalities);
        self.model.fit(&x, &y);
        self.scaler = Some(scaler);
        Ok(())
    }

    /// Interruptible training: like [`fit`](Self::fit), but the model's
    /// [`try_fit_within`](Regressor::try_fit_within) is used, so
    /// `should_continue` is polled at the model's safe points (between
    /// boosting rounds / epochs) and a `false` aborts with
    /// [`qfe_ml::train::TrainError::Interrupted`] — the estimator is left
    /// exactly as it was (an already-trained model keeps serving its old
    /// weights, an untrained one stays untrained). This is the entry
    /// point a budgeted background-retraining loop calls: the budget
    /// closure bounds training latency without poisoning the estimator.
    pub fn fit_within(
        &mut self,
        data: &LabeledQueries,
        should_continue: &mut dyn FnMut() -> bool,
    ) -> Result<(), QfeError> {
        if data.is_empty() {
            return Err(qfe_ml::train::TrainError::EmptyTrainingSet.into());
        }
        let x = self.featurize_matrix(&data.queries)?;
        let scaler = LogScaler::fit(&data.cardinalities)?;
        let y = scaler.transform_batch(&data.cardinalities);
        self.model
            .try_fit_within(&x, &y, should_continue)
            .map_err(QfeError::from)?;
        // Only publish the scaler once the model actually trained — on an
        // interrupted run the estimator must be byte-for-byte unchanged.
        self.scaler = Some(scaler);
        Ok(())
    }

    /// The underlying featurizer.
    pub fn featurizer(&self) -> &dyn Featurizer {
        self.featurizer.as_ref()
    }

    /// True once `fit` has completed.
    pub fn is_trained(&self) -> bool {
        self.scaler.is_some()
    }

    /// How many times [`estimate`](CardinalityEstimator::estimate) has
    /// degraded to the conservative `1.0` fallback (untrained model,
    /// unsupported query, or non-finite model output).
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Rebuild a trained estimator from a snapshot produced by
    /// [`snapshot_bytes`](CardinalityEstimator::snapshot_bytes), pairing
    /// the restored model + scaler with a freshly constructed featurizer.
    ///
    /// The featurizer itself is deterministic configuration (an attribute
    /// space and a budget), so it is *not* serialized — the caller
    /// reconstructs it from the catalog exactly as at first training. The
    /// snapshot records the featurizer's name and this constructor
    /// rejects a mismatch, so a checkpoint written under one QFT can
    /// never be silently served through another.
    ///
    /// # Errors
    /// [`QfeError::Training`] on any corruption of the snapshot frame
    /// (bad magic, checksum mismatch, truncation, structurally invalid
    /// model bytes) and [`QfeError::InvalidConfig`] when the provided
    /// featurizer does not match the one the snapshot was taken under.
    pub fn from_snapshot(
        featurizer: Box<dyn Featurizer + Send + Sync>,
        bytes: &[u8],
    ) -> Result<Self, QfeError> {
        use qfe_ml::serialize::{fnv1a64, Reader};
        let corrupt =
            |what: &str| QfeError::Training(format!("corrupt estimator snapshot: {what}"));
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let frame = SNAPSHOT_MAGIC.len() + 8;
        if bytes.len() < frame {
            return Err(corrupt("truncated checksum"));
        }
        let c = &bytes[SNAPSHOT_MAGIC.len()..frame];
        let stored = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        let payload = &bytes[frame..];
        if fnv1a64(payload) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        let mut r = Reader::new(payload);
        let name_len = r.u32().map_err(|_| corrupt("truncated"))? as usize;
        if name_len > 4096 {
            return Err(corrupt("implausible featurizer name length"));
        }
        let name_bytes = r.bytes(name_len).map_err(|_| corrupt("truncated"))?;
        let qft = std::str::from_utf8(name_bytes).map_err(|_| corrupt("non-utf8 QFT name"))?;
        if qft != featurizer.name() {
            return Err(QfeError::InvalidConfig(format!(
                "snapshot was taken under QFT '{}' but '{}' was provided",
                qft,
                featurizer.name()
            )));
        }
        let dim = r.u32().map_err(|_| corrupt("truncated"))? as usize;
        if dim != featurizer.dim() {
            return Err(QfeError::ShapeMismatch {
                expected: dim,
                actual: featurizer.dim(),
            });
        }
        let log_min = r.f64().map_err(|_| corrupt("truncated"))?;
        let log_max = r.f64().map_err(|_| corrupt("truncated"))?;
        let scaler = LogScaler::from_parts(log_min, log_max)?;
        let model_len = r.u32().map_err(|_| corrupt("truncated"))? as usize;
        let model_bytes = r.bytes(model_len).map_err(|_| corrupt("truncated"))?;
        if !r.finished() {
            return Err(corrupt("trailing bytes"));
        }
        let model = qfe_ml::serialize::regressor_from_bytes(model_bytes)
            .map_err(|e| QfeError::Training(format!("corrupt estimator snapshot: {e}")))?;
        let mut restored = LearnedEstimator::new(featurizer, model);
        restored.scaler = Some(scaler);
        Ok(restored)
    }

    /// The one prediction routine: featurize and predict `queries`,
    /// handing each row's estimate (or typed error) to `emit`, in order.
    /// [`try_estimate`](CardinalityEstimator::try_estimate),
    /// [`estimate`](CardinalityEstimator::estimate) and
    /// [`estimate_batch`](CardinalityEstimator::estimate_batch) all answer
    /// through it, so a singleton and a batch row run the same code.
    ///
    /// Batches up to [`ROW_CHUNK`] rows run on the calling thread;
    /// larger ones run chunk by chunk on the shared pool. Rows never
    /// interact, so the values are the same at any chunking and thread
    /// count.
    fn predict_each(&self, queries: &[Query], mut emit: impl FnMut(Result<f64, EstimateError>)) {
        let Some(scaler) = &self.scaler else {
            for _ in queries {
                emit(Err(EstimateError::Untrained {
                    estimator: self.name.clone(),
                }));
            }
            return;
        };
        if queries.len() <= ROW_CHUNK {
            return self.predict_chunk(scaler, queries, &mut emit);
        }
        let pool = qfe_core::parallel::current();
        let chunks = pool.par_chunks(queries, ROW_CHUNK, |_, chunk| {
            let mut rows = Vec::with_capacity(chunk.len());
            self.predict_chunk(scaler, chunk, &mut |row| rows.push(row));
            rows
        });
        chunks.into_iter().flatten().for_each(emit);
    }

    /// [`predict_each`](Self::predict_each) over at most [`ROW_CHUNK`]
    /// queries, through this thread's [`Scratch`] (a fresh one if a pool
    /// task re-enters on a thread whose scratch is in use).
    ///
    /// A model that publishes a [`feature_binner`](Regressor::
    /// feature_binner) (compiled GBDT) gets the chunk featurized straight
    /// to `u16` bin ids and walks its flattened trees on integer
    /// compares; any other model gets dense `f32` rows. A row that fails
    /// to featurize is predicted with the rest and answered with its
    /// featurization error.
    fn predict_chunk(
        &self,
        scaler: &LogScaler,
        queries: &[Query],
        emit: &mut impl FnMut(Result<f64, EstimateError>),
    ) {
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
        }
        let (rows, dim) = (queries.len(), self.featurizer.dim());
        let mut run = |s: &mut Scratch| {
            s.failed.clear();
            let preds = match self.model.feature_binner() {
                Some(binner) => {
                    s.row.resize(dim, 0.0);
                    s.bins.resize(rows * dim, 0);
                    for (r, query) in queries.iter().enumerate() {
                        let out = &mut s.bins[r * dim..(r + 1) * dim];
                        let featurized = self
                            .featurizer
                            .featurize_binned_into(query, binner, &mut s.row, out);
                        s.failed.push(featurized.err());
                    }
                    self.model.predict_batch_binned(rows, &s.bins)
                }
                None => {
                    s.dense.reset(rows, dim);
                    for (r, query) in queries.iter().enumerate() {
                        let featurized = self.featurizer.featurize_into(query, s.dense.row_mut(r));
                        s.failed.push(featurized.err());
                    }
                    Some(self.model.predict_batch(&s.dense))
                }
            };
            // A model that answers no row (or too few) reads as `NaN`.
            let preds = preds.unwrap_or_default();
            for (r, failed) in s.failed.drain(..).enumerate() {
                let value = scaler.inverse(preds.get(r).copied().unwrap_or(f32::NAN));
                emit(match failed {
                    Some(e) => Err(e.into()),
                    None if value.is_finite() && value >= 1.0 => Ok(value),
                    None => Err(EstimateError::NonFinite {
                        estimator: self.name.clone(),
                        value,
                    }),
                });
            }
        };
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => run(&mut scratch),
            Err(_) => run(&mut Scratch::default()),
        });
    }
}

impl CardinalityEstimator for LearnedEstimator {
    fn name(&self) -> String {
        self.name.clone()
    }

    /// The infallible path: "try, and degrade to the most conservative
    /// legal estimate on any typed failure" — same classification as
    /// `try_estimate`, but the degradation is counted rather than silent.
    fn estimate(&self, query: &Query) -> f64 {
        let mut value = 1.0;
        self.predict_each(std::slice::from_ref(query), |row| match row {
            Ok(v) => value = v,
            Err(_) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        });
        value
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        // Overwritten: `predict_each` answers every row exactly once.
        let mut value = Ok(1.0);
        self.predict_each(std::slice::from_ref(query), |row| value = row);
        Ok(Estimate::primary(value?, self.name.clone()))
    }

    /// One featurization pass and one model call per [`ROW_CHUNK`] rows
    /// (see `predict_each`): with a compiled model the rows are quantized
    /// `u16` bin ids and the trees are walked on integer compares. Rows
    /// that fail to featurize get their own error without disturbing
    /// their batch-mates. Row-for-row identical to
    /// [`try_estimate`](Self::try_estimate): same errors, same bits.
    fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        let mut out = Vec::with_capacity(queries.len());
        self.predict_each(queries, |row| {
            out.push(row.map(|value| Estimate::primary(value, self.name.clone())));
        });
        out
    }

    fn memory_bytes(&self) -> usize {
        self.model.memory_bytes()
    }

    /// Snapshot layout, decodable by
    /// [`LearnedEstimator::from_snapshot`] (little-endian):
    ///
    /// ```text
    /// magic     "QFELE001"                8 bytes
    /// checksum  FNV-1a-64 of the payload  8
    /// payload:
    ///   qft name: len u32 + utf8 bytes
    ///   feature dim u32
    ///   scaler log_min f64, log_max f64
    ///   model: len u32 + checksummed model frame (QFEGB002/QFENN001)
    /// ```
    ///
    /// `None` until trained, or when the model family has no serializer
    /// (see [`Regressor::to_bytes`]).
    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        let scaler = self.scaler.as_ref()?;
        let model = self.model.to_bytes()?;
        let qft = self.featurizer.name();
        let (log_min, log_max) = scaler.to_parts();
        let mut payload = Vec::with_capacity(4 + qft.len() + 4 + 16 + 4 + model.len());
        payload.extend_from_slice(&(qft.len() as u32).to_le_bytes());
        payload.extend_from_slice(qft.as_bytes());
        payload.extend_from_slice(&(self.featurizer.dim() as u32).to_le_bytes());
        payload.extend_from_slice(&log_min.to_le_bytes());
        payload.extend_from_slice(&log_max.to_le_bytes());
        payload.extend_from_slice(&(model.len() as u32).to_le_bytes());
        payload.extend_from_slice(&model);
        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 8 + payload.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&qfe_ml::serialize::fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::label_queries;
    use qfe_core::featurize::{AttributeSpace, UniversalConjunctionEncoding};
    use qfe_core::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
    use qfe_core::query::ColumnRef;
    use qfe_core::{ColumnId, TableId};
    use qfe_data::table::Table;
    use qfe_data::{Column, Database};
    use qfe_ml::gbdt::{Gbdt, GbdtConfig};

    fn db() -> Database {
        Database::new(
            vec![Table::new(
                "t",
                vec![(
                    "a".into(),
                    Column::Int((0..1000).map(|i| i % 100).collect()),
                )],
            )],
            &[],
        )
    }

    fn range_query(lo: i64, hi: i64) -> Query {
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(0)),
                vec![
                    SimplePredicate::new(CmpOp::Ge, lo),
                    SimplePredicate::new(CmpOp::Le, hi),
                ],
            )],
        )
    }

    fn trained_estimator(db: &Database) -> LearnedEstimator {
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        let mut est = LearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 32).unwrap()),
            Box::new(Gbdt::new(GbdtConfig {
                n_trees: 60,
                min_samples_leaf: 2,
                ..GbdtConfig::default()
            })),
        );
        let mut queries = Vec::new();
        for lo in 0..90 {
            for width in [1, 5, 10, 30, 60] {
                queries.push(range_query(lo, lo + width));
            }
        }
        let data = label_queries(db, queries);
        est.fit(&data).unwrap();
        est
    }

    #[test]
    fn learns_range_cardinalities() {
        let db = db();
        let est = trained_estimator(&db);
        // In-distribution test queries.
        for (lo, hi) in [(5, 20), (30, 35), (10, 70)] {
            let q = range_query(lo, hi);
            let truth = qfe_exec::true_cardinality(&db, &q).unwrap() as f64;
            let e = est.estimate(&q);
            let q_err = (truth / e).max(e / truth);
            assert!(
                q_err < 2.0,
                "({lo},{hi}): q-error {q_err} (truth {truth}, est {e})"
            );
        }
    }

    #[test]
    fn name_combines_model_and_qft() {
        let db = db();
        let est = trained_estimator(&db);
        assert_eq!(est.name(), "GB + conjunctive");
        assert!(est.is_trained());
        assert!(est.memory_bytes() > 0);
    }

    #[test]
    fn batch_estimates_match_single() {
        let db = db();
        let est = trained_estimator(&db);
        let queries = vec![range_query(5, 20), range_query(50, 90)];
        let batch = est.estimate_batch(&queries);
        for (q, r) in queries.iter().zip(&batch) {
            let e = r.as_ref().unwrap();
            assert_eq!(e.value, est.estimate(q), "batch diverged from singleton");
            assert_eq!(e.estimator, est.name());
            assert!(!e.fell_back());
        }
    }

    #[test]
    fn batch_failures_are_per_row_not_poisonous() {
        let db = db();
        let est = trained_estimator(&db);
        let queries = vec![range_query(5, 20), disjunctive_query(), range_query(50, 90)];
        let batch = est.estimate_batch(&queries);
        assert_eq!(
            batch[1].as_ref().unwrap_err().kind(),
            qfe_core::error::EstimateErrorKind::UnsupportedQuery,
            "{:?}",
            batch[1]
        );
        // The bad row must not disturb its batch-mates.
        assert_eq!(batch[0].as_ref().unwrap().value, est.estimate(&queries[0]));
        assert_eq!(batch[2].as_ref().unwrap().value, est.estimate(&queries[2]));
        // And the empty batch stays empty.
        assert!(est.estimate_batch(&[]).is_empty());
    }

    #[test]
    fn unsupported_query_estimates_one() {
        let db = db();
        let est = trained_estimator(&db);
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: ColumnRef::new(TableId(0), ColumnId(0)),
                expr: qfe_core::PredicateExpr::Or(vec![
                    qfe_core::PredicateExpr::leaf(CmpOp::Eq, 1),
                    qfe_core::PredicateExpr::leaf(CmpOp::Eq, 2),
                ]),
            }],
        );
        assert_eq!(est.estimate(&q), 1.0);
    }

    #[test]
    fn untrained_estimator_returns_one() {
        let db = db();
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        let est = LearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 8).unwrap()),
            Box::new(Gbdt::new(GbdtConfig::default())),
        );
        assert_eq!(est.estimate(&range_query(0, 10)), 1.0);
        assert!(!est.is_trained());
    }

    fn disjunctive_query() -> Query {
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: ColumnRef::new(TableId(0), ColumnId(0)),
                expr: qfe_core::PredicateExpr::Or(vec![
                    qfe_core::PredicateExpr::leaf(CmpOp::Eq, 1),
                    qfe_core::PredicateExpr::leaf(CmpOp::Eq, 2),
                ]),
            }],
        )
    }

    #[test]
    fn try_estimate_classifies_untrained() {
        let db = db();
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        let est = LearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 8).unwrap()),
            Box::new(Gbdt::new(GbdtConfig::default())),
        );
        let err = est.try_estimate(&range_query(0, 10)).unwrap_err();
        assert!(
            matches!(err, qfe_core::EstimateError::Untrained { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn try_estimate_classifies_unsupported_query() {
        let db = db();
        let est = trained_estimator(&db);
        let err = est.try_estimate(&disjunctive_query()).unwrap_err();
        assert_eq!(
            err.kind(),
            qfe_core::error::EstimateErrorKind::UnsupportedQuery,
            "{err:?}"
        );
    }

    #[test]
    fn try_estimate_success_carries_provenance() {
        let db = db();
        let est = trained_estimator(&db);
        let e = est.try_estimate(&range_query(5, 20)).unwrap();
        assert!(e.value.is_finite() && e.value >= 1.0);
        assert_eq!(e.estimator, "GB + conjunctive");
        assert!(!e.fell_back());
    }

    #[test]
    fn fallbacks_are_counted_not_silent() {
        let db = db();
        let est = trained_estimator(&db);
        assert_eq!(est.fallback_count(), 0);
        let _ = est.estimate(&range_query(5, 20)); // model answers: no fallback
        assert_eq!(est.fallback_count(), 0);
        assert_eq!(est.estimate(&disjunctive_query()), 1.0);
        assert_eq!(est.estimate(&disjunctive_query()), 1.0);
        assert_eq!(est.fallback_count(), 2);
    }

    #[test]
    fn estimate_batch_before_fit_is_a_typed_error() {
        let db = db();
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        let est = LearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 8).unwrap()),
            Box::new(Gbdt::new(GbdtConfig::default())),
        );
        let batch = est.estimate_batch(&[range_query(0, 10), range_query(5, 20)]);
        assert_eq!(batch.len(), 2);
        for r in &batch {
            assert!(matches!(r, Err(EstimateError::Untrained { .. })), "{r:?}");
        }
    }

    #[test]
    fn fit_within_interruption_leaves_the_estimator_unchanged() {
        let db = db();
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        let mut est = LearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 8).unwrap()),
            Box::new(Gbdt::new(GbdtConfig {
                n_trees: 10,
                ..GbdtConfig::default()
            })),
        );
        let data = label_queries(&db, (0..40).map(|i| range_query(i, i + 10)).collect());
        // A budget that expires immediately: the estimator must stay
        // untrained (no scaler published, typed Untrained on estimate).
        let err = est.fit_within(&data, &mut || false).unwrap_err();
        assert!(matches!(err, QfeError::Training(_)), "{err:?}");
        assert!(!est.is_trained());
        assert!(est.try_estimate(&range_query(0, 10)).is_err());
        // An unconstrained budget trains to completion.
        est.fit_within(&data, &mut || true).unwrap();
        assert!(est.is_trained());
        assert!(est.try_estimate(&range_query(0, 10)).is_ok());
    }

    #[test]
    fn snapshot_round_trip_preserves_estimates() {
        let db = db();
        let est = trained_estimator(&db);
        let bytes = est.snapshot_bytes().expect("trained estimator snapshots");
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        let restored = LearnedEstimator::from_snapshot(
            Box::new(UniversalConjunctionEncoding::new(space, 32).unwrap()),
            &bytes,
        )
        .unwrap();
        assert!(restored.is_trained());
        assert_eq!(restored.name(), est.name());
        // Decoding rebuilt the compiled inference form: the restored GB
        // publishes its quantization table, so batches run binned.
        assert!(
            restored.model.feature_binner().is_some(),
            "snapshot restore must rebuild compiled inference"
        );
        for (lo, hi) in [(5, 20), (30, 35), (10, 70), (0, 99)] {
            let q = range_query(lo, hi);
            assert_eq!(restored.estimate(&q), est.estimate(&q), "({lo},{hi})");
        }
    }

    #[test]
    fn snapshot_corruption_is_rejected() {
        let db = db();
        let est = trained_estimator(&db);
        let clean = est.snapshot_bytes().unwrap();
        let fresh_qft = || {
            let space = AttributeSpace::for_table(db.catalog(), TableId(0));
            Box::new(UniversalConjunctionEncoding::new(space, 32).unwrap())
        };
        // Truncation at stride across the whole frame.
        for cut in (0..clean.len()).step_by(97) {
            assert!(
                LearnedEstimator::from_snapshot(fresh_qft(), &clean[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Bit flips at stride.
        for pos in (0..clean.len()).step_by(61) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x20;
            assert!(
                LearnedEstimator::from_snapshot(fresh_qft(), &bytes).is_err(),
                "flip at byte {pos}"
            );
        }
    }

    #[test]
    fn snapshot_rejects_mismatched_featurizer() {
        let db = db();
        let est = trained_estimator(&db);
        let bytes = est.snapshot_bytes().unwrap();
        // Same QFT family, different budget → different dim: typed
        // ShapeMismatch, not a panic at serving time.
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        match LearnedEstimator::from_snapshot(
            Box::new(UniversalConjunctionEncoding::new(space, 8).unwrap()),
            &bytes,
        ) {
            Err(err) => assert!(matches!(err, QfeError::ShapeMismatch { .. }), "{err:?}"),
            Ok(_) => panic!("mismatched featurizer dim must be rejected"),
        }
    }

    #[test]
    fn untrained_estimator_has_no_snapshot() {
        let db = db();
        let space = AttributeSpace::for_table(db.catalog(), TableId(0));
        let est = LearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 8).unwrap()),
            Box::new(Gbdt::new(GbdtConfig::default())),
        );
        assert!(est.snapshot_bytes().is_none());
    }

    #[test]
    fn featurize_matrix_is_all_or_nothing() {
        let db = db();
        let est = trained_estimator(&db);
        let err = est
            .featurize_matrix(&[range_query(0, 10), disjunctive_query()])
            .unwrap_err();
        assert!(matches!(err, QfeError::UnsupportedQuery(_)), "{err:?}");
    }
}
