//! Allocation budgets of warm-cache planning, counted by a counting global
//! allocator (its own test binary, so the allocator is installed for these
//! tests only; counts are per thread).
//!
//! * A warm-cache `optimize()` of a k-table query makes at most
//!   `2·(k−1) + 16` allocations: two boxes per join node of the returned
//!   plan tree, plus a constant for the per-call canonical form,
//!   restriction bits and DP table. No allocation may scale with the
//!   number of sub-plans probed.
//! * An `EstimateCache::probe` hit allocates nothing.
//! * A miss asks a learned model, whose warm singleton estimate reuses
//!   per-thread feature buffers: GB × conjunctive allocates only its
//!   output `Vec` and one encoder buffer, plus the answer's name
//!   (`try_estimate`) and the result `Vec` (a one-row batch).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qfe::core::estimator::{CardinalityEstimator, GenerationSource};
use qfe::core::fingerprint::QueryFingerprint;
use qfe::core::{
    CmpOp, ColumnId, ColumnRef, CompoundPredicate, JoinPredicate, PredicateExpr, Query,
    SimplePredicate, TableId,
};
use qfe::exec::{EstimateCache, Optimizer, Probe};
use qfe::obs::alloc::{count_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Content-sensitive estimator, so plans make real choices.
struct Synthetic;

impl CardinalityEstimator for Synthetic {
    fn name(&self) -> String {
        "synthetic".into()
    }

    fn estimate(&self, query: &Query) -> f64 {
        1.0 + (QueryFingerprint::of(query).0 % 9973) as f64
    }
}

struct Generation(AtomicU64);

impl GenerationSource for Generation {
    fn generation(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

fn col(t: usize, c: usize) -> ColumnRef {
    ColumnRef::new(TableId(t), ColumnId(c))
}

/// A k-table star around table 0 plus a chain edge between the leaves,
/// with a conjunctive predicate on every table and a mixed AND/OR one on
/// table 0.
fn query(k: usize) -> Query {
    let mut joins: Vec<JoinPredicate> = (1..k)
        .map(|i| JoinPredicate {
            left: col(0, 0),
            right: col(i, 0),
        })
        .collect();
    if k > 2 {
        joins.push(JoinPredicate {
            left: col(1, 1),
            right: col(2, 1),
        });
    }
    let mut predicates: Vec<CompoundPredicate> = (0..k)
        .map(|i| {
            CompoundPredicate::conjunction(
                col(i, 2),
                vec![
                    SimplePredicate::new(CmpOp::Ge, i as i64),
                    SimplePredicate::new(CmpOp::Le, 10 + i as i64),
                ],
            )
        })
        .collect();
    predicates.push(CompoundPredicate {
        column: col(0, 3),
        expr: PredicateExpr::Or(vec![
            PredicateExpr::leaf(CmpOp::Eq, 1),
            PredicateExpr::And(vec![
                PredicateExpr::leaf(CmpOp::Gt, 5),
                PredicateExpr::leaf(CmpOp::Lt, 9),
            ]),
        ]),
    });
    Query {
        tables: (0..k).rev().map(TableId).collect(),
        joins,
        predicates,
    }
}

#[test]
fn warm_cache_planning_stays_within_its_allocation_budget() {
    let source = Arc::new(Generation(AtomicU64::new(0)));
    let cache = Arc::new(EstimateCache::with_generation_source(
        Arc::clone(&source) as Arc<dyn GenerationSource>
    ));
    let est = Synthetic;
    let opt = Optimizer::new(&est).with_cache(cache);
    for k in 1..=6 {
        let q = query(k);
        let cold = opt.optimize(&q).expect("connected query plans");
        assert!(cold.stats.misses > 0);
        let (warm, allocs) = count_allocations(|| opt.optimize(&q).expect("plans"));
        assert_eq!(warm.stats.misses, 0, "k={k}: the second plan is warm");
        assert_eq!(warm.stats.cross_hits, warm.stats.probes);
        assert_eq!(warm.plan, cold.plan);
        let budget = 2 * (k as u64 - 1) + 16;
        assert!(
            allocs <= budget,
            "k={k}: warm optimize() made {allocs} allocations, budget {budget}"
        );
    }
}

#[test]
fn cache_hits_allocate_nothing() {
    let source = Arc::new(Generation(AtomicU64::new(0)));
    let cache = EstimateCache::with_generation_source(source);
    let fp = QueryFingerprint::of(&query(3));
    let Probe::Miss(token) = cache.probe(fp) else {
        panic!("an empty cache misses");
    };
    cache.fill(fp, qfe::core::Estimate::primary(42.0, "test"), token);
    let (hit, allocs) = count_allocations(|| cache.probe(fp));
    assert_eq!(hit, Probe::Hit(42.0));
    assert_eq!(allocs, 0, "a cache hit allocated");
}

#[test]
fn learned_singleton_estimates_reuse_their_feature_buffers() {
    use qfe::core::featurize::{AttributeSpace, UniversalConjunctionEncoding};
    use qfe::core::AttributeDomain;
    use qfe::estimators::labels::LabeledQueries;
    use qfe::estimators::LearnedEstimator;
    use qfe::ml::gbdt::{Gbdt, GbdtConfig};

    let le = |c: usize, v: i64| {
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0, c),
                vec![SimplePredicate::new(CmpOp::Le, v)],
            )],
        )
    };
    let space = AttributeSpace::new(vec![
        (col(0, 0), AttributeDomain::integers(0, 19)),
        (col(0, 1), AttributeDomain::integers(0, 9)),
    ]);
    let mut est = LearnedEstimator::new(
        Box::new(UniversalConjunctionEncoding::new(space, 8).expect("valid config")),
        Box::new(Gbdt::new(GbdtConfig {
            n_trees: 20,
            min_samples_leaf: 2,
            ..GbdtConfig::default()
        })),
    );
    est.fit(&LabeledQueries {
        queries: (0..80).map(|i| le(i % 2, (i * 7 % 20) as i64)).collect(),
        cardinalities: (0..80).map(|i| ((i * 7 % 20) + 1) as f64 * 25.0).collect(),
    })
    .expect("conjunctive training set");
    let q = le(0, 7);
    let one = std::slice::from_ref(&q);
    // Warm this thread's buffers.
    let _ = (
        est.try_estimate(&q),
        est.estimate(&q),
        est.estimate_batch(one),
    );
    let (_, estimate) = count_allocations(|| est.estimate(&q));
    let (_, try_estimate) = count_allocations(|| est.try_estimate(&q));
    let (_, batch) = count_allocations(|| est.estimate_batch(one));
    assert!(estimate <= 2, "estimate() made {estimate} allocations");
    assert!(try_estimate <= 3, "try_estimate() made {try_estimate}");
    assert!(batch <= 4, "a one-row estimate_batch made {batch}");
}
