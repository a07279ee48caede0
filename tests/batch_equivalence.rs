//! Batched execution must be *semantically invisible*: for every layer
//! that grew an `estimate_batch` fast path — [`LearnedEstimator`],
//! [`EstimatorService`] — a batch of N queries must produce exactly the
//! N results the singleton path produces, row for row, including mixed
//! per-row failures, seeded chaos and deadline expiry mid-batch.
//!
//! [`LearnedEstimator`]: qfe::estimators::LearnedEstimator
//! [`EstimatorService`]: qfe::serve::EstimatorService

use std::sync::Arc;
use std::time::Duration;

use qfe::core::featurize::{AttributeSpace, UniversalConjunctionEncoding};
use qfe::core::{
    AttributeDomain, CardinalityEstimator, CmpOp, ColumnId, ColumnRef, CompoundPredicate, Deadline,
    EstimateError, PredicateExpr, Query, SimplePredicate, TableId,
};
use qfe::estimators::labels::LabeledQueries;
use qfe::estimators::{BreakerConfig, LearnedEstimator};
use qfe::ml::chaos::{ChaosEstimator, EstimatorFault};
use qfe::ml::linreg::LinearRegression;
use qfe::serve::{EstimatorService, ServeError, ServiceConfig, SharedEstimator};

fn space() -> AttributeSpace {
    AttributeSpace::new(vec![
        (
            ColumnRef::new(TableId(0), ColumnId(0)),
            AttributeDomain::integers(0, 19),
        ),
        (
            ColumnRef::new(TableId(0), ColumnId(1)),
            AttributeDomain::integers(0, 9),
        ),
    ])
}

fn le_query(col: usize, v: i64) -> Query {
    Query::single_table(
        TableId(0),
        vec![CompoundPredicate::conjunction(
            ColumnRef::new(TableId(0), ColumnId(col)),
            vec![SimplePredicate::new(CmpOp::Le, v)],
        )],
    )
}

/// A query with a disjunction — rejected by the conjunctive QFT.
fn or_query() -> Query {
    Query::single_table(
        TableId(0),
        vec![CompoundPredicate {
            column: ColumnRef::new(TableId(0), ColumnId(0)),
            expr: PredicateExpr::Or(vec![
                PredicateExpr::all_of(vec![SimplePredicate::new(CmpOp::Le, 3)]),
                PredicateExpr::all_of(vec![SimplePredicate::new(CmpOp::Ge, 15)]),
            ]),
        }],
    )
}

fn trained_estimator() -> LearnedEstimator {
    let featurizer = UniversalConjunctionEncoding::new(space(), 8)
        .expect("valid featurizer config")
        .with_attr_sel(true);
    let mut est = LearnedEstimator::new(Box::new(featurizer), Box::new(LinearRegression::new(0)));
    let queries: Vec<Query> = (0..40).map(|i| le_query(i % 2, (i % 20) as i64)).collect();
    let cardinalities: Vec<f64> = (0..40).map(|i| ((i % 20) + 1) as f64 * 25.0).collect();
    est.fit(&LabeledQueries {
        queries,
        cardinalities,
    })
    .expect("training a conjunctive workload must succeed");
    est
}

#[test]
fn learned_estimator_batch_equals_singleton_with_mixed_failures() {
    let est = trained_estimator();
    // Rows 1 and 4 carry disjunctions the conjunctive QFT rejects: the
    // batch must fail exactly those rows and answer the rest identically.
    let batch = vec![
        le_query(0, 7),
        or_query(),
        le_query(1, 3),
        le_query(0, 18),
        or_query(),
    ];
    let batched = est.estimate_batch(&batch);
    assert_eq!(batched.len(), batch.len());
    for (q, row) in batch.iter().zip(&batched) {
        let solo = est.try_estimate(q);
        match (row, solo) {
            (Ok(b), Ok(s)) => assert_eq!(b, &s, "batched row diverged from singleton"),
            (Err(b), Err(s)) => assert_eq!(b.kind(), s.kind(), "error kinds diverged"),
            (b, s) => panic!("outcome shape diverged: batch {b:?} vs solo {s:?}"),
        }
    }
    assert!(matches!(
        batched[1],
        Err(EstimateError::UnsupportedQuery(_))
    ));
    assert!(batched[3].is_ok());
}

#[test]
fn service_batch_replays_the_singleton_chaos_walk() {
    // Two *identical* services (same chaos seeds): walking queries one
    // by one through the first must be indistinguishable — results,
    // provenance and per-stage counters — from one batched walk through
    // the second, because per-row fault draws happen in the same order
    // either way.
    let make_svc = || {
        EstimatorService::new(
            vec![
                Arc::new(ChaosEstimator::new(
                    Fixed(50.0),
                    vec![EstimatorFault::Nan, EstimatorFault::Error],
                    0.5,
                    17,
                )) as SharedEstimator,
                Arc::new(ChaosEstimator::new(
                    Fixed(8.0),
                    vec![EstimatorFault::Error],
                    0.3,
                    23,
                )),
            ],
            ServiceConfig {
                floor: 2.0,
                breaker: lenient(),
                ..ServiceConfig::default()
            },
        )
    };
    let queries: Vec<Query> = (0..48).map(|i| le_query(i % 2, (i % 20) as i64)).collect();

    let solo_svc = make_svc();
    let solo: Vec<_> = queries
        .iter()
        .map(|q| {
            solo_svc
                .estimate_within(q, Deadline::unbounded())
                .expect("service always answers")
        })
        .collect();

    let batch_svc = make_svc();
    let batched: Vec<_> = batch_svc
        .estimate_batch_within(&queries, Deadline::unbounded())
        .into_iter()
        .map(|r| r.expect("service always answers"))
        .collect();

    assert_eq!(
        solo, batched,
        "batched service must replay the singleton walk"
    );
    // Per-stage accounting matches too. Breaker counters are left out:
    // a batch records one breaker outcome per stage call, not per row.
    let (s1, s2) = (solo_svc.stats(), batch_svc.stats());
    assert_eq!(
        (s1.answered, s1.floor_answers),
        (s2.answered, s2.floor_answers)
    );
    for (a, b) in s1.stages.iter().zip(&s2.stages) {
        assert_eq!(
            (a.hits, &a.errors, a.timeouts, a.panics, a.skipped_open),
            (b.hits, &b.errors, b.timeouts, b.panics, b.skipped_open),
            "per-stage accounting must match the singleton walk"
        );
    }
    assert!(
        batched.iter().any(|e| e.fell_back()),
        "chaos at 50% must push some rows down the stack"
    );
    assert!(
        batched
            .iter()
            .any(|e| e.estimator == "floor" && e.value == 2.0),
        "fault rates chosen so some rows reach the floor"
    );
}

struct Fixed(f64);
impl CardinalityEstimator for Fixed {
    fn name(&self) -> String {
        "fixed".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        self.0
    }
}

/// Answers queries without predicates, NaNs the rest — a deterministic
/// per-row failure pattern for routing tests.
struct Picky(f64);
impl CardinalityEstimator for Picky {
    fn name(&self) -> String {
        "picky".into()
    }
    fn estimate(&self, q: &Query) -> f64 {
        if q.predicates.is_empty() {
            self.0
        } else {
            f64::NAN
        }
    }
}

struct Stall {
    delay: Duration,
}
impl CardinalityEstimator for Stall {
    fn name(&self) -> String {
        "stall".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        std::thread::sleep(self.delay);
        9.0
    }
}

fn plain_query() -> Query {
    Query::single_table(TableId(0), vec![])
}

fn lenient() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 1_000_000,
        ..BreakerConfig::default()
    }
}

#[test]
fn service_batch_equals_singleton_with_per_row_routing() {
    let make_svc = || {
        EstimatorService::new(
            vec![
                Arc::new(Picky(123.0)) as SharedEstimator,
                Arc::new(Fixed(6.0)),
            ],
            ServiceConfig {
                breaker: lenient(),
                ..ServiceConfig::default()
            },
        )
    };
    let queries = vec![plain_query(), le_query(0, 4), plain_query(), le_query(1, 2)];
    let singleton = make_svc();
    let solo: Vec<_> = queries
        .iter()
        .map(|q| singleton.estimate(q).expect("always answers"))
        .collect();
    let batched_svc = make_svc();
    let batched: Vec<_> = batched_svc
        .estimate_batch(&queries)
        .into_iter()
        .map(|r| r.expect("always answers"))
        .collect();
    assert_eq!(solo, batched, "service batch must match the singleton path");
    // Routing actually mixed: depth 0 for predicate-free rows, depth 1
    // for the rows the picky stage NaN'd.
    assert_eq!(batched[0].fallback_depth, 0);
    assert_eq!(batched[1].fallback_depth, 1);
    let s1 = singleton.stats();
    let s2 = batched_svc.stats();
    assert_eq!(s1.answered, s2.answered);
    assert_eq!(s1.stages[0].hits, s2.stages[0].hits);
    assert_eq!(s1.stages[1].hits, s2.stages[1].hits);
}

#[test]
fn deadline_expiring_mid_batch_fails_only_the_unanswered_rows() {
    // Stage 0 answers predicate-free rows instantly; stage 1 stalls past
    // the budget. Rows answered at depth 0 must keep their estimates even
    // though the deadline dies while their batch-mates wait on stage 1.
    let svc = EstimatorService::new(
        vec![
            Arc::new(Picky(77.0)) as SharedEstimator,
            Arc::new(Stall {
                delay: Duration::from_secs(5),
            }),
        ],
        ServiceConfig {
            breaker: lenient(),
            ..ServiceConfig::default()
        },
    );
    let queries = vec![plain_query(), le_query(0, 3), plain_query(), le_query(1, 1)];
    let out = svc.estimate_batch_within(&queries, Deadline::within(Duration::from_millis(60)));
    assert_eq!(out.len(), 4);
    for (i, row) in out.iter().enumerate() {
        if queries[i].predicates.is_empty() {
            let est = row.as_ref().expect("depth-0 rows keep their answers");
            assert_eq!((est.value, est.fallback_depth), (77.0, 0));
        } else {
            assert!(
                matches!(
                    row,
                    Err(ServeError::DeadlineExceeded { admitted: true, .. })
                ),
                "unanswered row must fail with the deadline, got {row:?}"
            );
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.answered, 2);
    assert_eq!(stats.deadline_exceeded, 2);
    assert_eq!(stats.batched_requests, 4);
}

/// The singleton and the batch run one prediction routine: for GB under
/// every QFT, and for an MLP, `try_estimate` must be bit-equal to a
/// one-row `estimate_batch` — value bits and provenance, or error kind.
#[test]
fn try_estimate_is_bit_equal_to_a_one_row_batch_for_every_qft_and_mlp() {
    use qfe::core::featurize::{
        Featurizer, LimitedDisjunctionEncoding, RangePredicateEncoding, SingularPredicateEncoding,
    };
    use qfe::ml::gbdt::{Gbdt, GbdtConfig};
    use qfe::ml::mlp::{Mlp, MlpConfig};
    use qfe::ml::train::Regressor;

    type Qft = Box<dyn Featurizer + Send + Sync>;
    type Model = Box<dyn Regressor + Send + Sync>;
    let conj = || -> Qft {
        Box::new(
            UniversalConjunctionEncoding::new(space(), 8)
                .expect("valid featurizer config")
                .with_attr_sel(true),
        )
    };
    let gb = || -> Model {
        Box::new(Gbdt::new(GbdtConfig {
            n_trees: 20,
            min_samples_leaf: 2,
            ..GbdtConfig::default()
        }))
    };
    let combos: Vec<(Qft, Model)> = vec![
        (Box::new(SingularPredicateEncoding::new(space())), gb()),
        (Box::new(RangePredicateEncoding::new(space())), gb()),
        (conj(), gb()),
        (
            Box::new(
                LimitedDisjunctionEncoding::new(space(), 8)
                    .expect("valid featurizer config")
                    .with_attr_sel(true),
            ),
            gb(),
        ),
        (
            conj(),
            Box::new(Mlp::new(MlpConfig {
                hidden: vec![8],
                epochs: 20,
                batch_size: 16,
                learning_rate: 1e-2,
                seed: 3,
            })),
        ),
    ];
    let range = |col: usize, lo: i64, hi: i64| {
        CompoundPredicate::conjunction(
            ColumnRef::new(TableId(0), ColumnId(col)),
            vec![
                SimplePredicate::new(CmpOp::Ge, lo),
                SimplePredicate::new(CmpOp::Le, hi),
            ],
        )
    };
    let queries: Vec<Query> = (0..80)
        .map(|i| le_query(i % 2, (i * 7 % 20) as i64))
        .collect();
    let cardinalities: Vec<f64> = (0..80)
        .map(|i| ((i * 7 % 20) + 1) as f64 * 25.0 + (i % 2) as f64 * 40.0)
        .collect();
    let probes = vec![
        le_query(0, 7),
        le_query(1, 0),
        le_query(1, 9),
        Query::single_table(TableId(0), vec![range(0, 3, 12)]),
        Query::single_table(TableId(0), vec![range(0, 5, 5), range(1, 2, 8)]),
        or_query(),
    ];
    for (qft, model) in combos {
        let mut est = LearnedEstimator::new(qft, model);
        est.fit(&LabeledQueries {
            queries: queries.clone(),
            cardinalities: cardinalities.clone(),
        })
        .expect("every QFT featurizes single-predicate queries");
        let mut answered = 0;
        for q in &probes {
            let solo = est.try_estimate(q);
            let batched = est
                .estimate_batch(std::slice::from_ref(q))
                .pop()
                .expect("one row in, one row out");
            match (&solo, &batched) {
                (Ok(s), Ok(b)) => {
                    answered += 1;
                    assert_eq!(s.value.to_bits(), b.value.to_bits(), "{}", est.name());
                    assert_eq!(s, b, "{}", est.name());
                    assert_eq!(est.estimate(q).to_bits(), s.value.to_bits());
                }
                (Err(s), Err(b)) => assert_eq!(s.kind(), b.kind(), "{}", est.name()),
                _ => panic!("{}: solo {solo:?} vs batch {batched:?}", est.name()),
            }
        }
        assert!(
            answered >= 3,
            "{}: only {answered} probes answered",
            est.name()
        );
    }
}
