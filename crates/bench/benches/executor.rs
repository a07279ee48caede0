//! Criterion micro-benchmarks of the execution substrate: selection
//! bitmap throughput (a large conjunctive scan and a forest-sized mixed
//! AND/OR predicate) and join-count throughput (the labeling oracle's hot
//! paths).

use criterion::{criterion_group, criterion_main, Criterion};

use qfe_core::predicate::{CmpOp, CompoundPredicate, PredicateExpr, SimplePredicate};
use qfe_core::query::{ColumnRef, JoinPredicate};
use qfe_core::{ColumnId, Query, TableId};
use qfe_data::forest::{generate_forest, ForestConfig};
use qfe_data::imdb::{generate_imdb, ImdbConfig};
use qfe_data::table::Table;
use qfe_data::{Column, Database};
use qfe_exec::eval::selection_bitmap;
use qfe_exec::true_cardinality;

fn bench_selection(c: &mut Criterion) {
    let table = Table::new(
        "t",
        vec![(
            "a".into(),
            Column::Int((0..500_000).map(|i| i % 1000).collect()),
        )],
    );
    let cp = CompoundPredicate::conjunction(
        ColumnRef::new(TableId(0), ColumnId(0)),
        vec![
            SimplePredicate::new(CmpOp::Ge, 100),
            SimplePredicate::new(CmpOp::Le, 600),
            SimplePredicate::new(CmpOp::Ne, 250),
        ],
    );
    c.bench_function("selection_500k_rows", |b| {
        b.iter(|| std::hint::black_box(selection_bitmap(&table, &[&cp]).count()))
    });
}

/// The labeling oracle's typical shape: a mixed `Or(And(..))` predicate
/// (ranges with `<>` exclusions) over a forest-sized column.
fn bench_mixed_selection(c: &mut Criterion) {
    let db = generate_forest(&ForestConfig {
        rows: 4_000,
        quantitative_only: true,
        seed: 0xF0_4E57,
    });
    let leaf = PredicateExpr::leaf;
    let cp = CompoundPredicate {
        column: ColumnRef::new(TableId(0), ColumnId(0)),
        expr: PredicateExpr::Or(vec![
            PredicateExpr::And(vec![
                leaf(CmpOp::Ge, 2200),
                leaf(CmpOp::Lt, 2600),
                leaf(CmpOp::Ne, 2300),
                leaf(CmpOp::Ne, 2400),
            ]),
            PredicateExpr::And(vec![leaf(CmpOp::Ge, 2900), leaf(CmpOp::Le, 3300)]),
            PredicateExpr::And(vec![leaf(CmpOp::Gt, 3500), leaf(CmpOp::Ne, 3600)]),
        ]),
    };
    let table = db.table(TableId(0));
    c.bench_function("selection_mixed_4k_forest_rows", |b| {
        b.iter(|| std::hint::black_box(selection_bitmap(table, &[&cp]).count()))
    });
}

fn bench_join_count(c: &mut Criterion) {
    let db: Database = generate_imdb(&ImdbConfig {
        titles: 10_000,
        seed: 2,
    });
    let title = db.table_id("title").unwrap();
    let ci = db.table_id("cast_info").unwrap();
    let mk = db.table_id("movie_keyword").unwrap();
    let title_id = ColumnId(0);
    let q = Query {
        tables: vec![title, ci, mk],
        joins: vec![
            JoinPredicate {
                left: ColumnRef::new(ci, ColumnId(0)),
                right: ColumnRef::new(title, title_id),
            },
            JoinPredicate {
                left: ColumnRef::new(mk, ColumnId(0)),
                right: ColumnRef::new(title, title_id),
            },
        ],
        predicates: vec![CompoundPredicate::conjunction(
            ColumnRef::new(title, ColumnId(2)),
            vec![SimplePredicate::new(CmpOp::Ge, 2000)],
        )],
    };
    let mut group = c.benchmark_group("join_count");
    group.sample_size(20);
    group.bench_function("three_way_star", |b| {
        b.iter(|| std::hint::black_box(true_cardinality(&db, &q).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_selection,
    bench_mixed_selection,
    bench_join_count
);
criterion_main!(benches);
