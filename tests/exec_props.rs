//! Property-based tests of the execution engine against brute-force
//! oracles: selection bitmaps vs row-by-row evaluation, the join-count
//! oracle vs nested loops, histogram bounds, and grouped counting.

use proptest::prelude::*;
use qfe::core::featurize::GroupedQuery;
use qfe::core::predicate::{CmpOp, CompoundPredicate, PredicateExpr, SimplePredicate};
use qfe::core::query::{ColumnRef, JoinPredicate};
use qfe::core::{ColumnId, Query, TableId, Value};
use qfe::data::table::{Database, ForeignKey, Table};
use qfe::data::{Column, Dictionary};
use qfe::exec::count::{brute_force_count, grouped_cardinality};
use qfe::exec::eval::{eval_expr, row_matches};
use qfe::exec::true_cardinality;

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Lt),
        Just(CmpOp::Gt),
        Just(CmpOp::Le),
        Just(CmpOp::Ge),
        Just(CmpOp::Ne),
    ]
}

/// Literals for every kernel path: integral `Int`s (the `i64` fast path on
/// `Int` columns), non-integral `Float`s (the `f64` fallback), half-steps
/// that tie with `Float` column values, and raw strings (match nothing).
fn arb_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-2i64..12).prop_map(Value::Int),
        2 => (-2.0f64..12.0).prop_map(Value::Float),
        2 => (-4i64..24).prop_map(|v| Value::Float(v as f64 / 2.0)),
        1 => Just(Value::Str("raw".into())),
    ]
}

fn arb_expr(depth: u32) -> impl Strategy<Value = PredicateExpr> {
    let leaf = (arb_op(), arb_literal()).prop_map(|(op, v)| PredicateExpr::leaf(op, v));
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(PredicateExpr::And),
            prop::collection::vec(inner, 1..3).prop_map(PredicateExpr::Or),
        ]
    })
}

/// Row counts 0..=200, weighted towards the word boundaries (63/64/65,
/// 127/128/129) so partial tail words and whole-word columns both occur.
fn arb_len() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 200];
    prop_oneof![0usize..=200, (0..EDGES.len()).prop_map(|i| EDGES[i]),]
}

/// An `Int`, `Float` (with NaNs) or `Dict` column of `raw.len()` rows.
fn column_of(kind: u8, raw: Vec<i64>) -> Column {
    match kind {
        0 => Column::Int(raw),
        1 => Column::Float(
            raw.into_iter()
                .map(|v| if v == 10 { f64::NAN } else { v as f64 / 2.0 })
                .collect(),
        ),
        _ => Column::Dict {
            codes: raw.into_iter().map(|v| v as u32).collect(),
            dict: Dictionary::from_values((0..11).map(|i| format!("s{i:02}")).collect()),
        },
    }
}

proptest! {
    // More cases than the properties below: three column kinds, four
    // literal kinds and the word-boundary lengths all multiply.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitmap_evaluation_matches_scalar_evaluation(
        kind in 0u8..3,
        raw in arb_len().prop_flat_map(|n| prop::collection::vec(0i64..11, n)),
        expr in arb_expr(2),
    ) {
        let column = column_of(kind, raw);
        let bm = eval_expr(&column, &expr);
        prop_assert_eq!(bm.len(), column.len());
        let mut scalar_count = 0;
        for row in 0..column.len() {
            let v = column.get_f64(row);
            let expected = expr.matches_f64(v);
            scalar_count += u64::from(expected);
            prop_assert_eq!(bm.get(row), expected, "row {} value {} expr {:?}", row, v, expr);
        }
        // Equal counts prove the tail word carries no stray bits.
        prop_assert_eq!(bm.count(), scalar_count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn join_count_matches_brute_force(
        dim_vals in prop::collection::vec(0i64..6, 2..12),
        fact_keys in prop::collection::vec(0i64..12, 0..25),
        sel in 0i64..6,
    ) {
        // dim has unique ids 0..n; fact references arbitrary keys (some
        // dangling). Build and compare against nested loops.
        let n = dim_vals.len();
        let dim = Table::new(
            "dim",
            vec![
                ("id".into(), Column::Int((0..n as i64).collect())),
                ("x".into(), Column::Int(dim_vals)),
            ],
        );
        let fact = Table::new(
            "fact",
            vec![("dim_id".into(), Column::Int(fact_keys))],
        );
        let db = Database::new(
            vec![dim, fact],
            &[ForeignKey {
                from: ("fact".into(), "dim_id".into()),
                to: ("dim".into(), "id".into()),
            }],
        );
        let q = Query {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![JoinPredicate {
                left: ColumnRef::new(TableId(1), ColumnId(0)),
                right: ColumnRef::new(TableId(0), ColumnId(0)),
            }],
            predicates: vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(1)),
                vec![SimplePredicate::new(CmpOp::Ge, sel)],
            )],
        };
        prop_assert_eq!(
            true_cardinality(&db, &q).unwrap(),
            brute_force_count(&db, &q).unwrap()
        );
    }

    #[test]
    fn grouped_count_matches_manual_group_set(
        a in prop::collection::vec(0i64..5, 1..80),
        threshold in 0i64..5,
    ) {
        let b: Vec<i64> = a.iter().map(|v| v * 2 % 3).collect();
        let table = Table::new(
            "t",
            vec![("a".into(), Column::Int(a.clone())), ("b".into(), Column::Int(b.clone()))],
        );
        let db = Database::new(vec![table], &[]);
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Ge, threshold)],
            )],
        );
        let grouped = GroupedQuery::new(
            q.clone(),
            vec![ColumnRef::new(TableId(0), ColumnId(1))],
        );
        let counted = grouped_cardinality(&db, &grouped).unwrap();
        let mut manual = std::collections::HashSet::new();
        let t = db.table(TableId(0));
        let preds: Vec<&CompoundPredicate> = q.predicates.iter().collect();
        for (row, &group) in b.iter().enumerate() {
            if row_matches(t, &preds, row) {
                manual.insert(group);
            }
        }
        prop_assert_eq!(counted, manual.len() as u64);
    }

    #[test]
    fn histogram_selectivity_brackets_truth(
        values in prop::collection::vec(0i64..100, 20..200),
        literal in -10i64..110,
        op in arb_op(),
    ) {
        use qfe::data::histogram::EquiDepthHistogram;
        let column = Column::Int(values.clone());
        let h = EquiDepthHistogram::build(&column, 16, 8);
        let pred = SimplePredicate::new(op, literal);
        let sel = h.selectivity(&pred);
        prop_assert!((0.0..=1.0).contains(&sel), "selectivity {}", sel);
        let truth = values
            .iter()
            .filter(|&&v| pred.matches_f64(v as f64))
            .count() as f64
            / values.len() as f64;
        // Histograms are estimates: allow a generous band, but catch
        // systematic breakage.
        prop_assert!(
            (sel - truth).abs() < 0.35,
            "op {:?} literal {}: sel {} vs truth {}", op, literal, sel, truth
        );
    }
}
