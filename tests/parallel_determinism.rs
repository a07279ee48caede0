//! The tentpole's hard contract, end to end: labeling, training and
//! featurizing with a 1-thread pool and a many-thread pool must produce
//! **bit-identical** artifacts — labeled workloads, serialized GBDT bytes,
//! MLP predictions, and the featurization arena. Thread counts are pinned
//! in-process via `parallel::with_pool` (the same mechanism `QFE_THREADS`
//! feeds); the cross-process variant of this check is CI's
//! `bench_accuracy` byte diff.

use std::sync::Arc;

use qfe::core::featurize::{AttributeSpace, FeatureMatrix, UniversalConjunctionEncoding};
use qfe::core::parallel::{with_pool, ThreadPool};
use qfe::core::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
use qfe::core::query::ColumnRef;
use qfe::core::{ColumnId, Query, TableId};
use qfe::data::forest::{generate_forest, ForestConfig};
use qfe::data::imdb::{generate_imdb, ImdbConfig};
use qfe::data::Database;
use qfe::estimators::labels::label_queries;
use qfe::exec::true_cardinality;
use qfe::ml::gbdt::{Gbdt, GbdtConfig};
use qfe::ml::matrix::Matrix;
use qfe::ml::mlp::{Mlp, MlpConfig};
use qfe::ml::serialize::gbdt_to_bytes;
use qfe::ml::train::Regressor;
use qfe::workload::conjunctive::{generate_conjunctive_with_data, ConjunctiveConfig};
use qfe::workload::{
    generate_join_workload, generate_mixed_with_data, JoinWorkloadConfig, MixedConfig,
};

fn forest_db(rows: usize) -> qfe::data::Database {
    generate_forest(&ForestConfig {
        rows,
        quantitative_only: true,
        seed: 0xF0_4E57,
    })
}

/// Shared fixture: a featurized forest workload big enough that every
/// parallel path (row chunks, feature chunks, minibatch grad chunks)
/// actually fans out rather than falling back to its inline path.
fn fixture() -> (Matrix, Vec<f32>) {
    let db = forest_db(1500);
    let queries = generate_conjunctive_with_data(&db, &ConjunctiveConfig::new(TableId(0), 600, 11));
    let labeled = label_queries(&db, queries);
    let space = AttributeSpace::for_table(db.catalog(), TableId(0));
    let featurizer = UniversalConjunctionEncoding::new(space, 16)
        .expect("valid featurizer config")
        .with_attr_sel(true);
    let fm = FeatureMatrix::build(&featurizer, &labeled.queries);
    assert_eq!(fm.ok_rows(), fm.rows(), "fixture queries must featurize");
    let (rows, cols, data, _) = fm.into_raw();
    let y: Vec<f32> = labeled
        .cardinalities
        .iter()
        .map(|&c| (1.0 + c).ln() as f32)
        .collect();
    (Matrix::from_vec(rows, cols, data), y)
}

fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = Arc::new(ThreadPool::new(threads));
    with_pool(&pool, f)
}

#[test]
fn gbdt_bytes_identical_across_thread_counts() {
    let (x, y) = fixture();
    let train = |threads: usize| {
        at_threads(threads, || {
            let mut gb = Gbdt::new(GbdtConfig {
                n_trees: 12,
                min_samples_leaf: 3,
                max_leaves: 32,
                seed: 5,
                ..GbdtConfig::default()
            });
            gb.fit(&x, &y);
            gbdt_to_bytes(&gb)
        })
    };
    let reference = train(1);
    for threads in [2, 8] {
        assert_eq!(
            train(threads),
            reference,
            "GBDT bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn mlp_predictions_identical_across_thread_counts() {
    let (x, y) = fixture();
    let train = |threads: usize| {
        at_threads(threads, || {
            let mut nn = Mlp::new(MlpConfig {
                hidden: vec![32, 32],
                epochs: 3,
                batch_size: 128,
                learning_rate: 1e-3,
                seed: 9,
            });
            nn.fit(&x, &y);
            // Compare raw prediction bits, not just values: NaN-safe and
            // strict about the last ulp.
            nn.predict_batch(&x)
                .into_iter()
                .map(f32::to_bits)
                .collect::<Vec<u32>>()
        })
    };
    let reference = train(1);
    for threads in [2, 8] {
        assert_eq!(
            train(threads),
            reference,
            "MLP predictions diverged at {threads} threads"
        );
    }
}

#[test]
fn feature_arena_identical_across_thread_counts() {
    let db = forest_db(800);
    let queries = generate_conjunctive_with_data(&db, &ConjunctiveConfig::new(TableId(0), 400, 23));
    let build = |threads: usize| {
        at_threads(threads, || {
            let space = AttributeSpace::for_table(db.catalog(), TableId(0));
            let featurizer = UniversalConjunctionEncoding::new(space, 16)
                .expect("valid featurizer config")
                .with_attr_sel(true);
            let fm = FeatureMatrix::build(&featurizer, &queries);
            fm.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        })
    };
    let reference = build(1);
    for threads in [2, 8] {
        assert_eq!(
            build(threads),
            reference,
            "feature arena diverged at {threads} threads"
        );
    }
}

/// `query` with one more predicate on `column` that no row satisfies
/// (every generated value is non-negative).
fn with_empty_result(mut query: Query, column: ColumnRef) -> Query {
    query.predicates.push(CompoundPredicate::conjunction(
        column,
        vec![SimplePredicate::new(CmpOp::Lt, -1)],
    ));
    query
}

#[test]
fn labels_identical_across_thread_counts() {
    // A mixed AND/OR forest workload; an empty-result query and one on a
    // column the table does not have (an oracle error).
    let forest = forest_db(1200);
    let elevation = ColumnRef::new(TableId(0), ColumnId(0));
    let mut mixed = generate_mixed_with_data(&forest, &MixedConfig::new(TableId(0), 150, 31));
    mixed.insert(31, with_empty_result(mixed[31].clone(), elevation));
    let mut unknown_column = mixed[64].clone();
    unknown_column.predicates[0].column.column = ColumnId(999);
    mixed.insert(64, unknown_column);

    // An IMDB join workload; an empty-result join and a cyclic one (a
    // repeated join edge), which the tree-shaped counter rejects.
    let imdb = generate_imdb(&ImdbConfig {
        titles: 2_000,
        seed: 3,
    });
    let title = imdb.table_id("title").expect("IMDB has title");
    let year = imdb
        .table(title)
        .column_id("production_year")
        .expect("title has production_year");
    let mut joins = generate_join_workload(imdb.catalog(), &JoinWorkloadConfig::new(150, 37));
    let at = joins
        .iter()
        .position(|q| !q.joins.is_empty())
        .expect("workload has a join");
    let mut cyclic = joins[at].clone();
    cyclic.joins.push(cyclic.joins[0]);
    joins.insert(33, cyclic);
    joins.insert(
        95,
        with_empty_result(joins[95].clone(), ColumnRef::new(title, year)),
    );

    let check = |name: &str, db: &Database, queries: Vec<Query>| {
        let counts: Vec<_> = queries
            .iter()
            .map(|q| true_cardinality(db, q).ok())
            .collect();
        assert!(
            counts.contains(&None),
            "{name}: no query the oracle rejects"
        );
        assert!(counts.contains(&Some(0)), "{name}: no empty-result query");
        // The reference: a plain sequential loop over the oracle.
        let (expected_queries, expected_cards): (Vec<Query>, Vec<u64>) = queries
            .iter()
            .zip(&counts)
            .filter_map(|(q, c)| {
                c.filter(|&c| c > 0)
                    .map(|c| (q.clone(), (c as f64).to_bits()))
            })
            .unzip();
        for threads in [1, 4] {
            let labeled = at_threads(threads, || label_queries(db, queries.clone()));
            assert_eq!(
                labeled.queries, expected_queries,
                "{name}: labeled queries diverged at {threads} threads"
            );
            let cards: Vec<u64> = labeled.cardinalities.iter().map(|c| c.to_bits()).collect();
            assert_eq!(
                cards, expected_cards,
                "{name}: cardinalities diverged at {threads} threads"
            );
        }
    };
    check("forest mixed", &forest, mixed);
    check("imdb joins", &imdb, joins);
}
