//! Range Predicate Encoding (Section 3.1).
//!
//! Builds on the observation that in databases all point and range
//! predicates can be encoded as **closed ranges**: `A = 5` becomes
//! `[5, 5]`, `A <= 5` becomes `[min(A), 5]`, and open endpoints are closed
//! using the domain step (integers: `A < 5 ↦ [min(A), 4]`; decimals: a
//! small step size). Ranges are normalized to `[0, 1]` per attribute.
//!
//! The encoding is lossless for queries with up to one equality / open
//! range / closed range predicate per attribute. Conjunctions of bound
//! predicates on the same attribute fold naturally into the intersected
//! range; `<>` predicates and disjunctions cannot be represented — `<>` is
//! dropped (information loss, visible in the paper's Figure 3 as the
//! 3-predicate spike), disjunctions are rejected.

use crate::error::QfeError;
use crate::featurize::space::AttributeSpace;
use crate::featurize::{group_by_column, Featurizer};
use crate::interval::Region;
use crate::predicate::SimplePredicate;
use crate::query::Query;

/// The `range` QFT: one normalized closed range `[lo, hi]` per attribute.
#[derive(Debug, Clone)]
pub struct RangePredicateEncoding {
    space: AttributeSpace,
}

/// Entries per attribute: normalized lower and upper bound.
const SLOT: usize = 2;

impl RangePredicateEncoding {
    /// Build over the given attribute space.
    pub fn new(space: AttributeSpace) -> Self {
        RangePredicateEncoding { space }
    }

    /// The attribute space this encoder is defined over.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    /// Encoding core shared by the allocating and in-place paths: fills
    /// `out` (length `dim()`) in place without allocating the output.
    fn encode_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        // Default: the full range [0, 1] for attributes without predicates,
        // which is exactly the lossless encoding of "no restriction".
        for slot in out.chunks_exact_mut(SLOT) {
            slot[0] = 0.0;
            slot[1] = 1.0;
        }
        for (col, expr) in group_by_column(query) {
            let Some(pos) = self.space.position(col) else {
                return Err(QfeError::InvalidQuery(format!(
                    "predicate on attribute outside the featurizer's space: table {} column {}",
                    col.table.0, col.column.0
                )));
            };
            if !expr.is_conjunctive() {
                return Err(QfeError::UnsupportedQuery(
                    "Range Predicate Encoding cannot featurize disjunctions".into(),
                ));
            }
            let dnf = expr.to_dnf()?;
            let unsatisfiable = dnf.is_empty();
            let preds: Vec<SimplePredicate> = dnf.into_iter().next().unwrap_or_default();
            for p in &preds {
                if p.value.as_f64().is_none() {
                    return Err(QfeError::InvalidLiteral(format!(
                        "literal {} must be dictionary-encoded before featurization",
                        p.value
                    )));
                }
            }
            let domain = self.space.domain(pos);
            let region = if unsatisfiable {
                Region::empty()
            } else {
                Region::from_conjunct(&preds, domain)
            };
            let (lo, hi) = if region.is_empty() {
                // An unsatisfiable conjunction: encode as an inverted range,
                // distinguishable from every non-empty range.
                (1.0, 0.0)
            } else {
                (domain.normalize(region.lo), domain.normalize(region.hi))
            };
            out[pos * SLOT] = lo as f32;
            out[pos * SLOT + 1] = hi as f32;
        }
        Ok(())
    }
}

impl Featurizer for RangePredicateEncoding {
    fn name(&self) -> &'static str {
        "range"
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
    use crate::predicate::{CmpOp, CompoundPredicate, PredicateExpr};
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
                AttributeDomain::reals(0.0, 10.0),
            ),
        ])
    }

    fn col(i: usize) -> ColumnRef {
        ColumnRef::new(TableId(0), ColumnId(i))
    }

    #[test]
    fn equality_becomes_point_range() {
        let enc = RangePredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![SimplePredicate::new(CmpOp::Eq, 50)],
            )],
        );
        let f = enc.featurize(&q).unwrap();
        assert_eq!(f.0[0], 0.5);
        assert_eq!(f.0[1], 0.5);
    }

    #[test]
    fn open_integer_range_closes_with_step_one() {
        let enc = RangePredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![SimplePredicate::new(CmpOp::Lt, 5)],
            )],
        );
        let f = enc.featurize(&q).unwrap();
        assert_eq!(f.0[0], 0.0);
        assert!((f.0[1] - 0.04).abs() < 1e-6); // [0, 4] on [0, 100]
    }

    #[test]
    fn conjunctions_of_bounds_intersect() {
        let enc = RangePredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![
                    SimplePredicate::new(CmpOp::Ge, 20),
                    SimplePredicate::new(CmpOp::Le, 80),
                    SimplePredicate::new(CmpOp::Gt, 40),
                ],
            )],
        );
        let f = enc.featurize(&q).unwrap();
        assert!((f.0[0] - 0.41).abs() < 1e-6);
        assert!((f.0[1] - 0.80).abs() < 1e-6);
    }

    #[test]
    fn not_equal_predicates_are_lost() {
        // `<>` cannot be represented: the featurization equals the one
        // without the `<>` (documented information loss).
        let enc = RangePredicateEncoding::new(space());
        let with_ne = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![
                    SimplePredicate::new(CmpOp::Ge, 10),
                    SimplePredicate::new(CmpOp::Le, 20),
                    SimplePredicate::new(CmpOp::Ne, 15),
                ],
            )],
        );
        let without = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![
                    SimplePredicate::new(CmpOp::Ge, 10),
                    SimplePredicate::new(CmpOp::Le, 20),
                ],
            )],
        );
        assert_eq!(
            enc.featurize(&with_ne).unwrap(),
            enc.featurize(&without).unwrap()
        );
    }

    #[test]
    fn no_predicate_is_full_range() {
        let enc = RangePredicateEncoding::new(space());
        let f = enc
            .featurize(&Query::single_table(TableId(0), vec![]))
            .unwrap();
        assert_eq!(f.0, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn empty_range_is_inverted() {
        let enc = RangePredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![
                    SimplePredicate::new(CmpOp::Gt, 80),
                    SimplePredicate::new(CmpOp::Lt, 20),
                ],
            )],
        );
        let f = enc.featurize(&q).unwrap();
        assert!(f.0[0] > f.0[1]);
    }

    #[test]
    fn empty_disjunction_is_inverted_range() {
        let enc = RangePredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(0),
                expr: PredicateExpr::Or(vec![]),
            }],
        );
        let f = enc.featurize(&q).unwrap();
        assert!(
            f.0[0] > f.0[1],
            "unsatisfiable must encode as inverted range"
        );
    }

    #[test]
    fn real_domain_bounds() {
        let enc = RangePredicateEncoding::new(space());
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(1),
                vec![
                    SimplePredicate::new(CmpOp::Ge, 2.5),
                    SimplePredicate::new(CmpOp::Le, 7.5),
                ],
            )],
        );
        let f = enc.featurize(&q).unwrap();
        assert!((f.0[2] - 0.25).abs() < 1e-6);
        assert!((f.0[3] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn disjunctions_are_rejected() {
        let enc = RangePredicateEncoding::new(space());
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
}
