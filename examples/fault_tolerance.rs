//! Fault-tolerant estimation: typed errors, checksummed models, and
//! fail-fast training.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```
//!
//! Walks the robustness surface of a single estimator: a learned
//! estimator that classifies its failures instead of silently answering
//! `1.0`, the checksummed model serialization that rejects corrupted
//! bytes with a typed error, and training that aborts on divergent labels
//! without poisoning the model. How a stack of stages degrades learned →
//! histogram → floor under seeded chaos, with per-stage counters, is
//! shown by the `serving` example (`EstimatorService`).

use qfe::core::featurize::{AttributeSpace, UniversalConjunctionEncoding};
use qfe::core::{
    CardinalityEstimator, CmpOp, ColumnId, ColumnRef, CompoundPredicate, PredicateExpr, Query,
    SimplePredicate, TableId,
};
use qfe::data::forest::{generate_forest, ForestConfig};
use qfe::estimators::labels::label_queries;
use qfe::estimators::LearnedEstimator;
use qfe::ml::gbdt::{Gbdt, GbdtConfig};
use qfe::ml::matrix::Matrix;
use qfe::ml::serialize::{gbdt_from_bytes, gbdt_to_bytes};
use qfe::ml::train::Regressor;
use qfe::workload::{generate_conjunctive, ConjunctiveConfig};

fn main() {
    let table = TableId(0);
    let db = generate_forest(&ForestConfig {
        rows: 5_000,
        quantitative_only: true,
        seed: 42,
    });
    let catalog = db.catalog();

    // ── 1. Typed failure classification ────────────────────────────────
    let space = AttributeSpace::for_table(catalog, table);
    let mut learned = LearnedEstimator::new(
        Box::new(UniversalConjunctionEncoding::new(space, 8).expect("valid featurizer config")),
        Box::new(Gbdt::new(GbdtConfig {
            n_trees: 30,
            ..GbdtConfig::default()
        })),
    );
    let probe = Query::single_table(
        table,
        vec![CompoundPredicate::conjunction(
            ColumnRef::new(table, ColumnId(0)),
            vec![SimplePredicate::new(CmpOp::Ge, 100)],
        )],
    );
    println!("── typed errors ──");
    println!(
        "untrained try_estimate  → {:?}",
        learned.try_estimate(&probe).unwrap_err()
    );

    let train = label_queries(
        &db,
        generate_conjunctive(catalog, &ConjunctiveConfig::new(table, 400, 7)),
    );
    learned.fit(&train).expect("training");
    let est = learned.try_estimate(&probe).expect("trained estimate");
    println!(
        "trained  try_estimate  → {:.1} rows from {:?} (fallback depth {})",
        est.value, est.estimator, est.fallback_depth
    );
    let disjunction = Query::single_table(
        table,
        vec![CompoundPredicate {
            column: ColumnRef::new(table, ColumnId(0)),
            expr: PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Eq, 10),
                PredicateExpr::leaf(CmpOp::Eq, 20),
            ]),
        }],
    );
    println!(
        "unsupported (OR) query → {:?}",
        learned.try_estimate(&disjunction).unwrap_err()
    );
    println!(
        "infallible estimate()  → {} (counted fallbacks: {})",
        learned.estimate(&disjunction),
        learned.fallback_count()
    );

    // ── 2. Corrupt model bytes are rejected, not mis-parsed ────────────
    println!("\n── checksummed serialization ──");
    let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![(i % 13) as f32]).collect();
    let y: Vec<f32> = rows.iter().map(|r| r[0] * 2.0).collect();
    let mut gb = Gbdt::new(GbdtConfig {
        n_trees: 3,
        ..GbdtConfig::default()
    });
    gb.try_fit(&Matrix::from_rows(&rows), &y)
        .expect("clean fit");
    let bytes = gbdt_to_bytes(&gb);
    println!(
        "{} model bytes round-trip: {}",
        bytes.len(),
        gbdt_from_bytes(&bytes).is_ok()
    );
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() / 2] ^= 0x04; // single bit flip in the payload
    println!(
        "single bit flipped     → {:?}",
        gbdt_from_bytes(&corrupt).unwrap_err()
    );
    println!(
        "truncated to 10 bytes  → {:?}",
        gbdt_from_bytes(&bytes[..10]).unwrap_err()
    );

    // ── 3. Divergent training aborts without poisoning the model ───────
    println!("\n── fail-fast training ──");
    let bad_y = vec![f32::MAX; rows.len()];
    let err = gb.try_fit(&Matrix::from_rows(&rows), &bad_y).unwrap_err();
    println!("divergent labels       → {err:?}");
    println!(
        "model unpoisoned: still {} trees, still decodes old bytes: {}",
        gb.tree_count(),
        gbdt_from_bytes(&bytes).is_ok()
    );
}
