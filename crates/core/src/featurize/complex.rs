//! Limited Disjunction Encoding (Section 3.3, Algorithm 2).
//!
//! The first QFT able to featurize *mixed queries* (Definition 3.3):
//! conjunctions of per-attribute compound predicates, where each compound
//! predicate is an arbitrary AND/OR combination of simple predicates on one
//! attribute.
//!
//! The key idea: each conjunction inside a compound predicate is a query
//! featurizable with Universal Conjunction Encoding; the per-conjunction
//! vectors are then merged by **entry-wise max**, which directly resembles
//! the semantics of OR — additional disjuncts make a query only *less*
//! selective. Compound predicates need not be in CNF/DNF: we normalize
//! arbitrary AND/OR trees via [`crate::predicate::PredicateExpr::to_dnf`]'s
//! borrowed-leaf form.
//!
//! The per-attribute selectivity entry (when enabled) is the exact
//! uniformity-assumption selectivity of the *union* of the disjunct
//! regions, computed by [`crate::interval::RegionSet`] — entry-wise max
//! would overestimate it, and summing disjunct selectivities would double
//! count overlaps. A single-term attribute (every pure conjunction) takes
//! [`crate::interval::Region::selectivity`], bit-identical to the
//! one-region set.
//!
//! Each attribute's DNF is expanded over leaves borrowed from the query
//! into one per-query scratch, which also holds the max-merge buffer and
//! the disjunct regions. When the query predicates each attribute at most
//! once (Definition 3.3's shape) the expressions are read in place and no
//! predicate is cloned; only a query repeating an attribute is merged
//! through `group_by_column`. The same shape gets a fused
//! [`Featurizer::featurize_binned_into`] that copies the binner's all-ones
//! template and re-bins only the predicated segments, as the conjunctive
//! QFT does; a repeated-attribute query encodes the full row and bins it.

use crate::error::QfeError;
use crate::featurize::conjunctive::{
    bin_predicated_segments, distinct_columns, featurize_conjunct_into,
};
use crate::featurize::space::AttributeSpace;
use crate::featurize::{group_by_column, FeatureBinner, Featurizer};
use crate::interval::{Region, RegionSet};
use crate::predicate::{DnfTerms, PredicateExpr};
use crate::query::{ColumnRef, Query};

/// The `complex` QFT: Universal Conjunction Encoding per disjunct, merged
/// by entry-wise max (Algorithm 2).
#[derive(Debug, Clone)]
pub struct LimitedDisjunctionEncoding {
    space: AttributeSpace,
    max_buckets: usize,
    attr_sel: bool,
    ternary: bool,
    /// Cumulative layout (see [`super::UniversalConjunctionEncoding`]'s
    /// twin field): `offsets[pos]` is attribute `pos`'s start, the last
    /// entry is the total dimension. Precomputed on every layout change so
    /// `dim()` and the in-place encoder are O(1) per lookup.
    offsets: Vec<usize>,
}

impl LimitedDisjunctionEncoding {
    /// Build over `space` with at most `max_buckets` entries per attribute
    /// and per-attribute selectivity entries enabled.
    ///
    /// # Errors
    /// [`QfeError::InvalidConfig`] if `max_buckets` is zero — every
    /// attribute needs at least one bucket.
    pub fn new(space: AttributeSpace, max_buckets: usize) -> Result<Self, QfeError> {
        if max_buckets < 1 {
            return Err(QfeError::InvalidConfig(
                "complex QFT needs at least one bucket per attribute".into(),
            ));
        }
        let mut enc = LimitedDisjunctionEncoding {
            space,
            max_buckets,
            attr_sel: true,
            ternary: true,
            offsets: Vec::new(),
        };
        enc.recompute_offsets();
        Ok(enc)
    }

    fn recompute_offsets(&mut self) {
        self.offsets =
            super::conjunctive::layout_offsets(self.space.len(), |pos| self.attr_width(pos));
    }

    /// Enable/disable the per-attribute selectivity entries.
    pub fn with_attr_sel(mut self, attr_sel: bool) -> Self {
        self.attr_sel = attr_sel;
        self.recompute_offsets();
        self
    }

    /// Enable/disable the ternary `½` marks (see
    /// [`super::UniversalConjunctionEncoding::with_ternary`]).
    pub fn with_ternary(mut self, ternary: bool) -> Self {
        self.ternary = ternary;
        self
    }

    /// The attribute space this encoder is defined over.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    /// Maximum buckets per attribute (`n`).
    pub fn max_buckets(&self) -> usize {
        self.max_buckets
    }

    fn attr_width(&self, pos: usize) -> usize {
        self.space.domain(pos).bucket_count(self.max_buckets) + usize::from(self.attr_sel)
    }

    /// Encoding core shared by the allocating and in-place paths: fills
    /// `out` (length `dim()`) via the precomputed offsets.
    fn encode_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        out.fill(1.0);
        if distinct_columns(query) {
            return self.encode_attrs(query.predicates.iter().map(|cp| (cp.column, &cp.expr)), out);
        }
        let grouped = group_by_column(query);
        self.encode_attrs(grouped.iter().map(|(col, expr)| (*col, expr)), out)
    }

    /// Encode each `(attribute, expression)` into its segment of `out`,
    /// sharing one scratch.
    fn encode_attrs<'q>(
        &self,
        attrs: impl Iterator<Item = (ColumnRef, &'q PredicateExpr)>,
        out: &mut [f32],
    ) -> Result<(), QfeError> {
        let mut scratch = Scratch::default();
        for (col, expr) in attrs {
            let pos = self.space.position_checked(col)?;
            let seg = &mut out[self.offsets[pos]..self.offsets[pos + 1]];
            self.encode_attr(pos, expr, seg, &mut scratch)?;
        }
        Ok(())
    }

    /// Algorithm 2 for one attribute: `seg` holds its buckets plus the
    /// selectivity slot if enabled.
    fn encode_attr<'q>(
        &self,
        pos: usize,
        expr: &'q PredicateExpr,
        seg: &mut [f32],
        scratch: &mut Scratch<'q>,
    ) -> Result<(), QfeError> {
        let Scratch {
            dnf,
            merge,
            regions,
        } = scratch;
        // Line 2: split the compound predicate into its disjuncts.
        expr.dnf_into(dnf)?;
        let domain = self.space.domain(pos);
        let n_a = domain.bucket_count(self.max_buckets);
        let (buckets, sel_slot) = seg.split_at_mut(n_a);
        let n_terms = dnf.len();
        if n_terms == 0 {
            // No disjunct (an `Or([])` inside): unsatisfiable, line 3's
            // all-zero vector stays.
            buckets.fill(0.0);
            if self.attr_sel {
                sel_slot[0] = 0.0;
            }
            return Ok(());
        }
        // Lines 4–6: featurize each disjunct with Algorithm 1 and merge by
        // entry-wise max. The first disjunct writes straight into the
        // slot: its entries are all >= 0, so merging it into line 3's
        // zeros would change nothing.
        regions.resize_with(n_terms, Region::empty);
        merge.resize(n_a, 0.0);
        for (k, (term, region)) in dnf.iter().zip(regions.iter_mut()).enumerate() {
            let term = term.iter().copied();
            if k == 0 {
                featurize_conjunct_into(term, domain, buckets, self.ternary, region)?;
            } else {
                featurize_conjunct_into(term, domain, merge, self.ternary, region)?;
                for (m, e) in buckets.iter_mut().zip(merge.iter()) {
                    *m = m.max(*e);
                }
            }
        }
        if self.attr_sel {
            sel_slot[0] = if n_terms == 1 {
                regions[0].selectivity(domain)
            } else {
                let set = RegionSet::new(std::mem::take(regions));
                let sel = set.selectivity(domain);
                *regions = set.into_regions();
                sel
            } as f32;
        }
        Ok(())
    }
}

/// Per-query scratch of the encoder: the borrowed DNF of the attribute
/// being encoded, the max-merge buffer and the disjunct regions.
#[derive(Default)]
struct Scratch<'q> {
    dnf: DnfTerms<'q>,
    merge: Vec<f32>,
    regions: Vec<Region>,
}

impl Featurizer for LimitedDisjunctionEncoding {
    fn name(&self) -> &'static str {
        "complex"
    }

    fn dim(&self) -> usize {
        self.offsets[self.space.len()]
    }

    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        crate::featurize::check_out_len(self.dim(), out.len())?;
        self.encode_into(query, out)
    }

    fn featurize_binned_into(
        &self,
        query: &Query,
        binner: &FeatureBinner,
        scratch: &mut [f32],
        out: &mut [u16],
    ) -> Result<(), QfeError> {
        crate::featurize::check_out_len(self.dim(), out.len())?;
        crate::featurize::check_out_len(self.dim(), binner.features())?;
        crate::featurize::check_out_len(self.dim(), scratch.len())?;
        if !distinct_columns(query) {
            self.encode_into(query, scratch)?;
            binner.bin_row(scratch, out);
            return Ok(());
        }
        let mut attr_scratch = Scratch::default();
        bin_predicated_segments(
            query,
            &self.space,
            &self.offsets,
            binner,
            scratch,
            out,
            |pos, expr, seg| self.encode_attr(pos, expr, seg, &mut attr_scratch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::UniversalConjunctionEncoding;
    use crate::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
    use crate::schema::{AttributeDomain, ColumnId, TableId};

    /// Attributes A [-9, 50], B [0, 115], C in {1, 2} — the Section 3.3
    /// example space (n = 12).
    fn paper_space() -> AttributeSpace {
        AttributeSpace::new(vec![
            (
                ColumnRef::new(TableId(0), ColumnId(0)),
                AttributeDomain::integers(-9, 50),
            ),
            (
                ColumnRef::new(TableId(0), ColumnId(1)),
                AttributeDomain::integers(0, 115),
            ),
            (
                ColumnRef::new(TableId(0), ColumnId(2)),
                AttributeDomain::integers(1, 2),
            ),
        ])
    }

    fn col(i: usize) -> ColumnRef {
        ColumnRef::new(TableId(0), ColumnId(i))
    }

    /// Section 3.3 example:
    /// `(A > -2 AND A <= 30 AND A != 7 OR A >= 42) AND B >= 39.5` gives
    /// A: 0 ½ 1 ½ 1 1 1 ½ 0 0 ½ 1   B: 0 0 0 0 ½ 1 1 1 1 1 1 1   C: 1 1
    #[test]
    fn paper_example_merged_vector() {
        let enc = LimitedDisjunctionEncoding::new(paper_space(), 12)
            .unwrap()
            .with_attr_sel(false);
        let q = Query::single_table(
            TableId(0),
            vec![
                CompoundPredicate {
                    column: col(0),
                    expr: PredicateExpr::Or(vec![
                        PredicateExpr::And(vec![
                            PredicateExpr::leaf(CmpOp::Gt, -2),
                            PredicateExpr::leaf(CmpOp::Le, 30),
                            PredicateExpr::leaf(CmpOp::Ne, 7),
                        ]),
                        PredicateExpr::leaf(CmpOp::Ge, 42),
                    ]),
                },
                CompoundPredicate::conjunction(col(1), vec![SimplePredicate::new(CmpOp::Ge, 39.5)]),
            ],
        );
        let f = enc.featurize(&q).unwrap();
        let expected_a = [0.0, 0.5, 1.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.5, 1.0];
        let expected_b = [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let expected_c = [1.0, 1.0];
        assert_eq!(&f.0[..12], &expected_a, "attribute A");
        assert_eq!(&f.0[12..24], &expected_b, "attribute B");
        assert_eq!(&f.0[24..], &expected_c, "attribute C");
    }

    #[test]
    fn reduces_to_conjunctive_encoding_on_conjunctive_queries() {
        // JOB-light contains no disjunctions, hence the paper notes the
        // feature vectors of `complex` and `conjunctive` coincide there.
        let space = paper_space();
        let complex = LimitedDisjunctionEncoding::new(space.clone(), 12).unwrap();
        let conj = UniversalConjunctionEncoding::new(space, 12).unwrap();
        let q = Query::single_table(
            TableId(0),
            vec![
                CompoundPredicate::conjunction(
                    col(0),
                    vec![
                        SimplePredicate::new(CmpOp::Ge, 0),
                        SimplePredicate::new(CmpOp::Le, 20),
                        SimplePredicate::new(CmpOp::Ne, 5),
                    ],
                ),
                CompoundPredicate::conjunction(col(2), vec![SimplePredicate::new(CmpOp::Eq, 2)]),
            ],
        );
        assert_eq!(complex.featurize(&q).unwrap(), conj.featurize(&q).unwrap());
        assert_eq!(complex.dim(), conj.dim());
    }

    #[test]
    fn disjunction_only_increases_entries() {
        // Adding a disjunct makes the query less selective: every entry is
        // monotonically non-decreasing in the number of disjuncts.
        let space = paper_space();
        let enc = LimitedDisjunctionEncoding::new(space, 12)
            .unwrap()
            .with_attr_sel(false);
        let disjuncts = [
            PredicateExpr::And(vec![
                PredicateExpr::leaf(CmpOp::Ge, 0),
                PredicateExpr::leaf(CmpOp::Le, 10),
            ]),
            PredicateExpr::leaf(CmpOp::Eq, 42),
            PredicateExpr::And(vec![
                PredicateExpr::leaf(CmpOp::Ge, 20),
                PredicateExpr::leaf(CmpOp::Le, 25),
            ]),
        ];
        let mut prev: Option<Vec<f32>> = None;
        for k in 1..=disjuncts.len() {
            let q = Query::single_table(
                TableId(0),
                vec![CompoundPredicate {
                    column: col(0),
                    expr: PredicateExpr::Or(disjuncts[..k].to_vec()),
                }],
            );
            let f = enc.featurize(&q).unwrap();
            if let Some(prev) = &prev {
                for (new, old) in f.0.iter().zip(prev) {
                    assert!(new >= old, "entry decreased when adding a disjunct");
                }
            }
            prev = Some(f.0);
        }
    }

    #[test]
    fn union_selectivity_entry_does_not_double_count() {
        // Two disjuncts covering the identical range: selectivity of the
        // union equals that of a single disjunct.
        let enc = LimitedDisjunctionEncoding::new(paper_space(), 12).unwrap();
        let range = |lo: i64, hi: i64| {
            PredicateExpr::And(vec![
                PredicateExpr::leaf(CmpOp::Ge, lo),
                PredicateExpr::leaf(CmpOp::Le, hi),
            ])
        };
        let single = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(1),
                expr: range(10, 40),
            }],
        );
        let double = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(1),
                expr: PredicateExpr::Or(vec![range(10, 40), range(10, 40)]),
            }],
        );
        let fs = enc.featurize(&single).unwrap();
        let fd = enc.featurize(&double).unwrap();
        assert_eq!(fs, fd);
    }

    #[test]
    fn non_dnf_trees_are_normalized() {
        // ((a OR b) AND c) is not in DNF; Algorithm 2 still applies after
        // normalization.
        let enc = LimitedDisjunctionEncoding::new(paper_space(), 12)
            .unwrap()
            .with_attr_sel(false);
        let nested = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(1),
                expr: PredicateExpr::And(vec![
                    PredicateExpr::Or(vec![
                        PredicateExpr::leaf(CmpOp::Le, 20),
                        PredicateExpr::leaf(CmpOp::Ge, 100),
                    ]),
                    PredicateExpr::leaf(CmpOp::Ne, 10),
                ]),
            }],
        );
        let flat = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(1),
                expr: PredicateExpr::Or(vec![
                    PredicateExpr::And(vec![
                        PredicateExpr::leaf(CmpOp::Le, 20),
                        PredicateExpr::leaf(CmpOp::Ne, 10),
                    ]),
                    PredicateExpr::And(vec![
                        PredicateExpr::leaf(CmpOp::Ge, 100),
                        PredicateExpr::leaf(CmpOp::Ne, 10),
                    ]),
                ]),
            }],
        );
        assert_eq!(
            enc.featurize(&nested).unwrap(),
            enc.featurize(&flat).unwrap()
        );
    }

    #[test]
    fn no_predicate_attribute_is_all_ones() {
        let enc = LimitedDisjunctionEncoding::new(paper_space(), 12).unwrap();
        let q = Query::single_table(TableId(0), vec![]);
        let f = enc.featurize(&q).unwrap();
        assert!(f.0.iter().all(|&e| e == 1.0));
    }
}
