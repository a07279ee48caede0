//! Vectorized predicate evaluation into selection bitmaps.
//!
//! Leaves are evaluated by a word-packed kernel, one generic function
//! monomorphized per operator and element type. The [`CmpOp`] match is
//! hoisted out of the row loop; each 64-row word is built branch-free
//! (64 compares into 0/1 bytes, gathered eight at a time into bits by one
//! multiply) and stored whole, instead of setting one bounds-checked bit
//! per row. A short last chunk leaves the tail word's high bits clear.
//! AND/OR nodes combine their children's bitmaps word by word.

use qfe_core::predicate::{CompoundPredicate, PredicateExpr, SimplePredicate};
use qfe_core::CmpOp;
use qfe_data::{Column, Table};

use crate::bitmap::Bitmap;

/// Evaluate one simple predicate over a column.
pub fn eval_simple(column: &Column, pred: &SimplePredicate) -> Bitmap {
    let mut bm = Bitmap::zeros(column.len());
    let Some(rhs) = pred.value.as_f64() else {
        // Raw string literals never match: they must be dictionary-encoded
        // before execution.
        return bm;
    };
    let words = bm.words_mut();
    match column {
        // Integer fast path: compare in i64 when the literal is integral,
        // avoiding float conversion per row.
        Column::Int(values) if rhs.fract() == 0.0 && rhs.abs() < 9e15 => {
            pack_cmp(words, values, |v| v, pred.op, rhs as i64)
        }
        Column::Int(values) => pack_cmp(words, values, |v| v as f64, pred.op, rhs),
        Column::Float(values) => pack_cmp(words, values, |v| v, pred.op, rhs),
        Column::Dict { codes, .. } => pack_cmp(words, codes, |c| c as f64, pred.op, rhs),
    }
    bm
}

/// Fill `words` with `key(v) op rhs` over `values`, dispatching on `op`
/// once per column rather than once per row. The comparisons are Rust's
/// own operators, so they agree with [`CmpOp::eval_i64`] and
/// [`CmpOp::eval_f64`] (NaN included) by construction.
fn pack_cmp<T: Copy, K: PartialOrd + Copy>(
    words: &mut [u64],
    values: &[T],
    key: impl Fn(T) -> K,
    op: CmpOp,
    rhs: K,
) {
    match op {
        CmpOp::Eq => pack(words, values, |v| key(v) == rhs),
        CmpOp::Lt => pack(words, values, |v| key(v) < rhs),
        CmpOp::Gt => pack(words, values, |v| key(v) > rhs),
        CmpOp::Le => pack(words, values, |v| key(v) <= rhs),
        CmpOp::Ge => pack(words, values, |v| key(v) >= rhs),
        CmpOp::Ne => pack(words, values, |v| key(v) != rhs),
    }
}

/// Store one word per 64 values: bit `i` of word `w` is
/// `keep(values[64 * w + i])`. A short last chunk leaves its padding bytes
/// 0, so the tail word's high bits stay clear.
fn pack<T: Copy>(words: &mut [u64], values: &[T], keep: impl Fn(T) -> bool) {
    debug_assert_eq!(words.len(), values.len().div_ceil(64));
    for (word, chunk) in words.iter_mut().zip(values.chunks(64)) {
        let mut bytes = [0u8; 64];
        for (b, &v) in bytes.iter_mut().zip(chunk) {
            *b = u8::from(keep(v));
        }
        *word = gather(&bytes);
    }
}

/// Multiplying eight 0/1 bytes (little-endian in a `u64`) by this moves
/// byte `j`'s low bit to bit `56 + j`; no partial products overlap, so
/// nothing carries.
const GATHER_LOW_BITS: u64 = 0x0102_0408_1020_4080;

/// The word whose bit `i` is `bytes[i]` (each 0 or 1). Shared by every
/// [`pack`] instance, so the per-operator code is only the compare loop.
fn gather(bytes: &[u8; 64]) -> u64 {
    let mut bits = 0;
    for (k, group) in bytes.chunks_exact(8).enumerate() {
        let mut lanes = [0u8; 8];
        lanes.copy_from_slice(group);
        bits |= (u64::from_le_bytes(lanes).wrapping_mul(GATHER_LOW_BITS) >> 56) << (8 * k);
    }
    bits
}

/// Evaluate an arbitrary AND/OR predicate expression over a column.
pub fn eval_expr(column: &Column, expr: &PredicateExpr) -> Bitmap {
    match expr {
        PredicateExpr::Leaf(p) => eval_simple(column, p),
        PredicateExpr::And(children) => {
            let mut acc = Bitmap::ones(column.len());
            for child in children {
                acc.and_with(&eval_expr(column, child));
            }
            acc
        }
        PredicateExpr::Or(children) => {
            let mut acc = Bitmap::zeros(column.len());
            for child in children {
                acc.or_with(&eval_expr(column, child));
            }
            acc
        }
    }
}

/// Evaluate one compound predicate over its table.
pub fn eval_compound(table: &Table, cp: &CompoundPredicate) -> Bitmap {
    eval_expr(table.column(cp.column.column), &cp.expr)
}

/// Selection bitmap of a conjunction of compound predicates over one table
/// (the per-table filter of a query).
pub fn selection_bitmap(table: &Table, predicates: &[&CompoundPredicate]) -> Bitmap {
    let mut acc = Bitmap::ones(table.row_count());
    for cp in predicates {
        acc.and_with(&eval_compound(table, cp));
    }
    acc
}

/// Brute-force row check used as a test oracle (and by the sampling
/// estimator for sampled rows).
pub fn row_matches(table: &Table, predicates: &[&CompoundPredicate], row: usize) -> bool {
    predicates.iter().all(|cp| {
        let v = table.column(cp.column.column).get_f64(row);
        cp.expr.matches_f64(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::query::ColumnRef;
    use qfe_core::schema::{ColumnId, TableId};

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("a".into(), Column::Int((0..100).collect())),
                (
                    "b".into(),
                    Column::Float((0..100).map(|i| i as f64 / 10.0).collect()),
                ),
            ],
        )
    }

    fn col(i: usize) -> ColumnRef {
        ColumnRef::new(TableId(0), ColumnId(i))
    }

    #[test]
    fn simple_ops_on_int_column() {
        let t = table();
        let c = t.column(ColumnId(0));
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Lt, 10)).count(),
            10
        );
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Le, 10)).count(),
            11
        );
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Eq, 42)).count(),
            1
        );
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Ne, 42)).count(),
            99
        );
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Gt, 89)).count(),
            10
        );
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Ge, 90)).count(),
            10
        );
    }

    #[test]
    fn float_literal_on_int_column() {
        let t = table();
        let c = t.column(ColumnId(0));
        // a < 9.5 matches 0..=9.
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Lt, 9.5)).count(),
            10
        );
    }

    #[test]
    fn float_column() {
        let t = table();
        let c = t.column(ColumnId(1));
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Ge, 5.0)).count(),
            50
        );
    }

    #[test]
    fn raw_string_literal_matches_nothing() {
        let t = table();
        let c = t.column(ColumnId(0));
        assert_eq!(
            eval_simple(c, &SimplePredicate::new(CmpOp::Eq, "raw")).count(),
            0
        );
    }

    #[test]
    fn expr_and_or_match_semantics() {
        let t = table();
        let c = t.column(ColumnId(0));
        // (a < 10 OR a >= 90) AND a <> 5  → 19 rows
        let e = PredicateExpr::And(vec![
            PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Lt, 10),
                PredicateExpr::leaf(CmpOp::Ge, 90),
            ]),
            PredicateExpr::leaf(CmpOp::Ne, 5),
        ]);
        let bm = eval_expr(c, &e);
        assert_eq!(bm.count(), 19);
        // Cross-check against scalar evaluation.
        for row in 0..100 {
            assert_eq!(bm.get(row), e.matches_f64(row as f64), "row {row}");
        }
    }

    #[test]
    fn selection_bitmap_intersects_compounds() {
        let t = table();
        let cp_a = CompoundPredicate::conjunction(
            col(0),
            vec![
                SimplePredicate::new(CmpOp::Ge, 20),
                SimplePredicate::new(CmpOp::Lt, 60),
            ],
        );
        let cp_b =
            CompoundPredicate::conjunction(col(1), vec![SimplePredicate::new(CmpOp::Lt, 4.0)]);
        let bm = selection_bitmap(&t, &[&cp_a, &cp_b]);
        // a in [20, 60) AND b < 4.0 (b = a/10) → a in [20, 40).
        assert_eq!(bm.count(), 20);
        for row in bm.iter_ones() {
            assert!(row_matches(&t, &[&cp_a, &cp_b], row));
        }
    }

    #[test]
    fn empty_predicate_list_selects_all() {
        let t = table();
        assert_eq!(selection_bitmap(&t, &[]).count(), 100);
    }
}
