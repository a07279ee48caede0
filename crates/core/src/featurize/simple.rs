//! Singular Predicate Encoding (Section 2.1.1) — the established baseline.
//!
//! For a table with `m` attributes the feature vector has `4·m` entries:
//! per attribute a 3-bit operator encoding over `{=, >, <}` plus the
//! normalized literal. Compound operators set two bits (`>=` sets `=` and
//! `>`; `<>` sets `>` and `<`).
//!
//! The encoding can represent **at most one predicate per attribute**: for
//! a query with `k > 1` predicates on some attribute, the information about
//! `k−1` of them is lost — the paper uses exactly this to show the encoding
//! violates the lossless property (Definition 3.1). Our implementation
//! keeps the *first* predicate per attribute, which matches the behaviour
//! of the prior-work pipelines the paper benchmarks against. Disjunctions
//! cannot be represented at all and are rejected.

use crate::error::QfeError;
use crate::featurize::space::AttributeSpace;
use crate::featurize::{group_by_column, Featurizer};
use crate::predicate::{CmpOp, SimplePredicate};
use crate::query::Query;

/// The `simple` QFT: one `(op-bits, literal)` slot per attribute.
#[derive(Debug, Clone)]
pub struct SingularPredicateEncoding {
    space: AttributeSpace,
}

/// Entries per attribute: 3 operator bits + 1 normalized literal.
const SLOT: usize = 4;

impl SingularPredicateEncoding {
    /// Build over the given attribute space.
    pub fn new(space: AttributeSpace) -> Self {
        SingularPredicateEncoding { space }
    }

    /// The attribute space this encoder is defined over.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    /// Operator bits over `{=, >, <}`; compound operators set two bits.
    fn op_bits(op: CmpOp) -> [f32; 3] {
        match op {
            CmpOp::Eq => [1.0, 0.0, 0.0],
            CmpOp::Gt => [0.0, 1.0, 0.0],
            CmpOp::Lt => [0.0, 0.0, 1.0],
            CmpOp::Ge => [1.0, 1.0, 0.0],
            CmpOp::Le => [1.0, 0.0, 1.0],
            CmpOp::Ne => [0.0, 1.0, 1.0],
        }
    }

    /// Encoding core shared by the allocating and in-place paths: fills
    /// `out` (length `dim()`) in place without allocating the output.
    fn encode_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        out.fill(0.0);
        for (col, expr) in group_by_column(query) {
            let Some(pos) = self.space.position(col) else {
                return Err(QfeError::InvalidQuery(format!(
                    "predicate on attribute outside the featurizer's space: table {} column {}",
                    col.table.0, col.column.0
                )));
            };
            if !expr.is_conjunctive() {
                return Err(QfeError::UnsupportedQuery(
                    "Singular Predicate Encoding cannot featurize disjunctions".into(),
                ));
            }
            let preds: Vec<SimplePredicate> = expr.to_dnf()?.into_iter().next().unwrap_or_default();
            // Only one predicate fits the slot; additional predicates on
            // the same attribute are dropped (information loss, Section 3).
            let Some(first) = preds.first() else {
                continue;
            };
            let value = first.value.as_f64().ok_or_else(|| {
                QfeError::InvalidLiteral(format!(
                    "literal {} must be dictionary-encoded before featurization",
                    first.value
                ))
            })?;
            let domain = self.space.domain(pos);
            let slot = &mut out[pos * SLOT..(pos + 1) * SLOT];
            slot[..3].copy_from_slice(&Self::op_bits(first.op));
            slot[3] = domain.normalize(value) as f32;
        }
        Ok(())
    }
}

impl Featurizer for SingularPredicateEncoding {
    fn name(&self) -> &'static str {
        "simple"
    }

    fn dim(&self) -> usize {
        self.space.len() * SLOT
    }

    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        crate::featurize::check_out_len(self.dim(), out.len())?;
        self.encode_into(query, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompoundPredicate, PredicateExpr};
    use crate::query::ColumnRef;
    use crate::schema::{AttributeDomain, ColumnId, TableId};

    fn space() -> AttributeSpace {
        AttributeSpace::new(vec![
            (
                ColumnRef::new(TableId(0), ColumnId(0)),
                AttributeDomain::integers(0, 100),
            ),
            (
                ColumnRef::new(TableId(0), ColumnId(1)),
                AttributeDomain::integers(0, 100),
            ),
            (
                ColumnRef::new(TableId(0), ColumnId(2)),
                AttributeDomain::integers(0, 100),
            ),
        ])
    }

    fn col(i: usize) -> ColumnRef {
        ColumnRef::new(TableId(0), ColumnId(i))
    }

    /// Section 2.1.1 example: `A > 5 AND B = 7` on a 3-attribute table.
    #[test]
    fn paper_example_layout() {
        let enc = SingularPredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![
                CompoundPredicate::conjunction(col(0), vec![SimplePredicate::new(CmpOp::Gt, 5)]),
                CompoundPredicate::conjunction(col(1), vec![SimplePredicate::new(CmpOp::Eq, 7)]),
            ],
        );
        let f = enc.featurize(&q).unwrap();
        assert_eq!(f.dim(), 12);
        // A: op bits (=, >, <) = 0 1 0, literal 0.05.
        assert_eq!(&f.0[..3], &[0.0, 1.0, 0.0]);
        assert!((f.0[3] - 0.05).abs() < 1e-6);
        // B: op bits 1 0 0, literal 0.07.
        assert_eq!(&f.0[4..7], &[1.0, 0.0, 0.0]);
        assert!((f.0[7] - 0.07).abs() < 1e-6);
        // Third attribute: all zero (no predicate).
        assert_eq!(&f.0[8..], &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn compound_operators_set_two_bits() {
        assert_eq!(
            SingularPredicateEncoding::op_bits(CmpOp::Ge),
            [1.0, 1.0, 0.0]
        );
        assert_eq!(
            SingularPredicateEncoding::op_bits(CmpOp::Le),
            [1.0, 0.0, 1.0]
        );
        assert_eq!(
            SingularPredicateEncoding::op_bits(CmpOp::Ne),
            [0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn information_loss_with_multiple_predicates_per_attribute() {
        // Two different queries — a tight range and its lower bound only —
        // featurize identically: the encoding is not lossless (Section 3).
        let enc = SingularPredicateEncoding::new(space());
        let tight = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![
                    SimplePredicate::new(CmpOp::Ge, 10),
                    SimplePredicate::new(CmpOp::Le, 12),
                ],
            )],
        );
        let loose = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![SimplePredicate::new(CmpOp::Ge, 10)],
            )],
        );
        assert_eq!(
            enc.featurize(&tight).unwrap(),
            enc.featurize(&loose).unwrap()
        );
    }

    #[test]
    fn disjunctions_are_rejected() {
        let enc = SingularPredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(0),
                expr: PredicateExpr::Or(vec![
                    PredicateExpr::leaf(CmpOp::Eq, 1),
                    PredicateExpr::leaf(CmpOp::Eq, 2),
                ]),
            }],
        );
        assert!(matches!(
            enc.featurize(&q),
            Err(QfeError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn empty_query_is_all_zero() {
        let enc = SingularPredicateEncoding::new(space());
        let f = enc
            .featurize(&Query::single_table(TableId(0), vec![]))
            .unwrap();
        assert!(f.0.iter().all(|&e| e == 0.0));
    }
}
