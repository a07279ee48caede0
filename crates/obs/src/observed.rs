//! Featurization instrumentation: a wrapper recording per-QFT encode
//! latency.
//!
//! Featurization sits on the estimation hot path — the End-to-End Learned
//! Cost Estimator line of work reports encode time as part of inference
//! latency — but `qfe-core` must not depend on this crate. So rather than
//! instrumenting `Featurizer::featurize_into` in core, [`ObservedFeaturizer`]
//! wraps any featurizer behind the same trait. Both metric names embed
//! the wrapped QFT's `name()` and are precomputed at construction, so the
//! per-encode cost is one clock read pair plus one recorder call.

use std::sync::Arc;
use std::time::Instant;

use qfe_core::error::QfeError;
use qfe_core::featurize::Featurizer;
use qfe_core::query::Query;

use crate::recorder::Recorder;

/// A [`Featurizer`] decorator that records encode latency and error
/// counts under `featurize.<qft>.latency` / `featurize.<qft>.errors`.
pub struct ObservedFeaturizer<F> {
    inner: F,
    recorder: Arc<dyn Recorder>,
    latency_metric: String,
    error_metric: String,
}

impl<F: Featurizer> ObservedFeaturizer<F> {
    /// Wrap `inner`, reporting to `recorder`.
    pub fn new(inner: F, recorder: Arc<dyn Recorder>) -> Self {
        let qft = inner.name();
        ObservedFeaturizer {
            inner,
            recorder,
            latency_metric: format!("featurize.{qft}.latency"),
            error_metric: format!("featurize.{qft}.errors"),
        }
    }

    /// The wrapped featurizer.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F> std::fmt::Debug for ObservedFeaturizer<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedFeaturizer")
            .field("latency_metric", &self.latency_metric)
            .field("error_metric", &self.error_metric)
            .finish_non_exhaustive()
    }
}

impl<F: Featurizer> Featurizer for ObservedFeaturizer<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        let start = Instant::now();
        let result = self.inner.featurize_into(query, out);
        self.recorder.record(&self.latency_metric, start.elapsed());
        if result.is_err() {
            self.recorder.incr(&self.error_metric);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MetricsRecorder;
    use qfe_core::featurize::{AttributeSpace, SingularPredicateEncoding};
    use qfe_core::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
    use qfe_core::query::ColumnRef;
    use qfe_core::schema::{AttributeDomain, Catalog, ColumnId, ColumnMeta, TableId, TableMeta};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableMeta {
            name: "t".into(),
            columns: vec![ColumnMeta {
                name: "a".into(),
                domain: AttributeDomain::integers(0, 99),
            }],
            row_count: 1000,
        });
        cat
    }

    fn query() -> Query {
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Le, 50)],
            )],
        )
    }

    #[test]
    fn records_latency_per_encode_and_forwards_the_vector() {
        let catalog = catalog();
        let space = AttributeSpace::for_catalog(&catalog);
        let inner = SingularPredicateEncoding::new(space.clone());
        let plain = inner.featurize(&query()).expect("featurizable");

        let recorder = Arc::new(MetricsRecorder::new());
        let observed =
            ObservedFeaturizer::new(SingularPredicateEncoding::new(space), recorder.clone());
        assert_eq!(observed.name(), "simple");
        assert_eq!(observed.dim(), observed.inner().dim());

        for _ in 0..5 {
            let v = observed.featurize(&query()).expect("featurizable");
            assert_eq!(v, plain);
        }
        let hist = recorder
            .histogram("featurize.simple.latency")
            .expect("latency recorded");
        assert_eq!(hist.count(), 5);
        assert_eq!(recorder.counter("featurize.simple.errors"), 0);
    }

    #[test]
    fn counts_featurization_errors() {
        let catalog = catalog();
        let space = AttributeSpace::for_catalog(&catalog);
        let recorder = Arc::new(MetricsRecorder::new());
        let observed =
            ObservedFeaturizer::new(SingularPredicateEncoding::new(space), recorder.clone());

        // A query over an unknown table must fail and be counted.
        let bad = Query::single_table(
            TableId(9),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(9), ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Eq, 1)],
            )],
        );
        assert!(observed.featurize(&bad).is_err());
        assert_eq!(recorder.counter("featurize.simple.errors"), 1);
        let hist = recorder
            .histogram("featurize.simple.latency")
            .expect("latency recorded even on error");
        assert_eq!(hist.count(), 1);
    }
}
