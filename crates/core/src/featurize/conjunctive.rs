//! Universal Conjunction Encoding (Section 3.2, Algorithm 1).
//!
//! The data-driven idea: (1) partition the data domain of each attribute,
//! (2) give each partition one feature-vector entry, and (3) assign each
//! entry a categorical value indicating whether the partition satisfies the
//! predicates of the query — `0` (no value qualifies), `½` (some values
//! qualify), `1` (all values qualify). This encodes queries with
//! *arbitrarily many* simple predicates connected by AND, unlike the
//! fixed-slot encodings.
//!
//! Per the paper, an optional per-attribute selectivity estimate (the gray
//! entries of Algorithm 1) is appended after each attribute's buckets; it
//! is the uniformity-assumption fraction of the attribute's domain that
//! qualifies, which helps the model when buckets are coarse or training
//! data is scarce. We compute it exactly via [`crate::interval::Region`]
//! (a refinement of the paper's `r_A` formula that handles equality
//! predicates and off-by-one endpoints precisely).
//!
//! When an attribute's domain has at most as many distinct values as
//! buckets, each bucket covers exactly one value and the implementation
//! switches to an exact 0/1 mode (no ½ entries), as described at the end of
//! Section 3.2.

use crate::error::QfeError;
use crate::featurize::space::AttributeSpace;
use crate::featurize::{group_by_column, FeatureVec, Featurizer};
use crate::interval::Region;
use crate::predicate::{CmpOp, SimplePredicate};
use crate::query::Query;
use crate::schema::AttributeDomain;

/// The `conjunctive` QFT: bucketized per-attribute vectors with entries in
/// `{0, ½, 1}` plus optional per-attribute selectivity estimates.
#[derive(Debug, Clone)]
pub struct UniversalConjunctionEncoding {
    space: AttributeSpace,
    max_buckets: usize,
    attr_sel: bool,
    ternary: bool,
    /// Cumulative layout: `offsets[pos]` is where attribute `pos` starts in
    /// the feature vector; `offsets[space.len()]` is the total dimension.
    /// Precomputed whenever the layout changes — summing the prefix on
    /// every `attr_offset` call made per-attribute loops O(n²).
    offsets: Vec<usize>,
}

/// Cumulative offsets for a per-attribute layout: one entry per attribute
/// plus a final entry holding the total width.
pub(crate) fn layout_offsets(count: usize, width_of: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(count + 1);
    let mut total = 0;
    offsets.push(0);
    for pos in 0..count {
        total += width_of(pos);
        offsets.push(total);
    }
    offsets
}

impl UniversalConjunctionEncoding {
    /// Build over `space` with at most `max_buckets` entries per attribute
    /// (the paper's `n`; 32–64 is recommended, cf. Section 5.4) and
    /// per-attribute selectivity entries enabled.
    ///
    /// # Errors
    /// [`QfeError::InvalidConfig`] if `max_buckets` is zero — every
    /// attribute needs at least one bucket.
    pub fn new(space: AttributeSpace, max_buckets: usize) -> Result<Self, QfeError> {
        if max_buckets < 1 {
            return Err(QfeError::InvalidConfig(
                "conjunctive QFT needs at least one bucket per attribute".into(),
            ));
        }
        let mut enc = UniversalConjunctionEncoding {
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
        self.offsets = layout_offsets(self.space.len(), |pos| self.attr_width(pos));
    }

    /// Enable/disable the per-attribute selectivity entries (Table 3
    /// ablates them).
    pub fn with_attr_sel(mut self, attr_sel: bool) -> Self {
        self.attr_sel = attr_sel;
        self.recompute_offsets();
        self
    }

    /// Enable/disable the ternary `½` marks for partially-qualifying
    /// buckets. With `false`, touched buckets keep their binary value
    /// (superset semantics) — an ablation of the design choice, not part
    /// of the paper's algorithm.
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

    /// Whether selectivity entries are appended.
    pub fn attr_sel(&self) -> bool {
        self.attr_sel
    }

    /// Number of bucket entries of the attribute at layout position `pos`.
    pub fn buckets_of(&self, pos: usize) -> usize {
        self.space.domain(pos).bucket_count(self.max_buckets)
    }

    /// Per-attribute vector width including the selectivity entry.
    fn attr_width(&self, pos: usize) -> usize {
        self.buckets_of(pos) + usize::from(self.attr_sel)
    }

    /// Offset of attribute `pos` inside the feature vector. O(1): the
    /// layout is precomputed at construction.
    pub fn attr_offset(&self, pos: usize) -> usize {
        self.offsets[pos]
    }

    /// Encoding core shared by the allocating and in-place paths: fills
    /// `out` (length `dim()`) directly via the precomputed layout offsets,
    /// allocating nothing beyond what DNF expansion itself needs.
    fn encode_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        // Default per attribute: all-one buckets and selectivity 1 ("no
        // restriction"); predicated attributes overwrite their slot below
        // (each attribute is encoded at most once).
        out.fill(1.0);
        // Workload-shaped queries predicate each attribute at most once
        // (Definition 3.3), so their expressions can be encoded straight
        // off the query by reference. Only user-built queries that repeat
        // an attribute pay for the merging clones in `group_by_column`.
        if distinct_columns(query) {
            let mut leaves = Vec::new();
            for cp in &query.predicates {
                let pos = self.position_of(cp.column)?;
                leaves.clear();
                self.encode_attr_in(
                    pos,
                    &cp.expr,
                    &mut out[self.offsets[pos]..self.offsets[pos + 1]],
                    &mut leaves,
                )?;
            }
            return Ok(());
        }
        for (col, expr) in group_by_column(query) {
            let pos = self.position_of(col)?;
            self.encode_attr(
                pos,
                &expr,
                &mut out[self.offsets[pos]..self.offsets[pos + 1]],
            )?;
        }
        Ok(())
    }

    /// Layout position of `col`, or the typed out-of-space error.
    fn position_of(&self, col: crate::query::ColumnRef) -> Result<usize, QfeError> {
        self.space.position(col).ok_or_else(|| {
            QfeError::InvalidQuery(format!(
                "predicate on attribute outside the featurizer's space: table {} column {}",
                col.table.0, col.column.0
            ))
        })
    }

    /// Encode one attribute's merged predicate expression into its segment
    /// of the feature vector (`seg` has length `buckets_of(pos)` plus the
    /// selectivity slot if enabled).
    pub(crate) fn encode_attr(
        &self,
        pos: usize,
        expr: &crate::predicate::PredicateExpr,
        seg: &mut [f32],
    ) -> Result<(), QfeError> {
        self.encode_attr_in(pos, expr, seg, &mut Vec::new())
    }

    /// [`Self::encode_attr`] with a caller-owned leaf-reference scratch,
    /// so the per-query loop reuses one allocation across attributes.
    fn encode_attr_in<'q>(
        &self,
        pos: usize,
        expr: &'q crate::predicate::PredicateExpr,
        seg: &mut [f32],
        leaves: &mut Vec<&'q SimplePredicate>,
    ) -> Result<(), QfeError> {
        if !expr.is_conjunctive() {
            return Err(QfeError::UnsupportedQuery(
                "Universal Conjunction Encoding cannot featurize disjunctions; \
                 use Limited Disjunction Encoding"
                    .into(),
            ));
        }
        let domain = self.space.domain(pos);
        let n_a = domain.bucket_count(self.max_buckets);
        debug_assert_eq!(seg.len(), self.attr_width(pos));
        let (buckets, sel_slot) = seg.split_at_mut(n_a);
        // The DNF of a conjunctive expression is a single term holding
        // exactly its leaves in depth-first order; gather them by
        // reference instead of cloning through `to_dnf` — same bits out,
        // none of the expansion's per-attribute allocations.
        leaves.clear();
        if expr.conjunct_leaf_refs(leaves) {
            let region =
                featurize_conjunct_into(leaves.iter().copied(), domain, buckets, self.ternary)?;
            if self.attr_sel {
                sel_slot[0] = region.selectivity(domain) as f32;
            }
        } else {
            // An empty disjunction is unsatisfiable (e.g. a prefix
            // predicate matching nothing): no bucket qualifies.
            buckets.fill(0.0);
            if self.attr_sel {
                sel_slot[0] = 0.0;
            }
        }
        Ok(())
    }
}

/// Whether every compound predicate names a different attribute
/// (Definition 3.3's shape) — the precondition for the by-reference
/// encoding paths that skip `group_by_column`'s merging clones.
fn distinct_columns(query: &Query) -> bool {
    query.predicates.iter().enumerate().all(|(i, cp)| {
        query.predicates[..i]
            .iter()
            .all(|prev| prev.column != cp.column)
    })
}

/// Featurize one attribute's conjunction of simple predicates into `n_a`
/// bucket entries (Algorithm 1 lines 1–16) plus the exact selectivity.
///
/// Shared with Limited Disjunction Encoding, which runs it once per
/// disjunct and merges by entry-wise max (Algorithm 2).
pub(crate) fn featurize_conjunct(
    preds: &[SimplePredicate],
    domain: &AttributeDomain,
    n_a: usize,
    ternary: bool,
) -> Result<(Vec<f32>, Region), QfeError> {
    let mut v = vec![1.0f32; n_a];
    let region = featurize_conjunct_into(preds, domain, &mut v, ternary)?;
    Ok((v, region))
}

/// In-place variant of [`featurize_conjunct`]: encodes into `out` (whose
/// length is the attribute's bucket count `n_a`) without allocating the
/// bucket vector. Used by the batched arena path. Generic over borrowed
/// predicates so the zero-clone leaf-reference path shares it.
pub(crate) fn featurize_conjunct_into<'a, I>(
    preds: I,
    domain: &AttributeDomain,
    out: &mut [f32],
    ternary: bool,
) -> Result<Region, QfeError>
where
    I: IntoIterator<Item = &'a SimplePredicate> + Clone,
{
    let n_a = out.len();
    let exact = domain.exact_buckets(n_a);
    featurize_conjunct_buckets_into(preds.clone(), out, exact, ternary, &|val| {
        domain.bucket_of(val, n_a)
    })?;
    Ok(Region::from_conjunct(preds, domain))
}

/// The bucket-update core of Algorithm 1, generic over the bucket mapping
/// (equal-width per the paper, or data-driven equi-depth via
/// [`super::EquiDepthConjunctionEncoding`]). `bucket_of` must be monotone
/// non-decreasing in its argument. Operates in place: `v` (length = the
/// bucket count `n_a`) is reset to all-ones and then updated, so batch
/// callers can point it straight into their feature arena.
pub(crate) fn featurize_conjunct_buckets_into<'a, I>(
    preds: I,
    v: &mut [f32],
    exact: bool,
    ternary: bool,
    bucket_of: &dyn Fn(f64) -> usize,
) -> Result<(), QfeError>
where
    I: IntoIterator<Item = &'a SimplePredicate>,
{
    let n_a = v.len();
    v.fill(1.0);
    for p in preds {
        let val = p.value.as_f64().ok_or_else(|| {
            QfeError::InvalidLiteral(format!(
                "literal {} must be dictionary-encoded before featurization",
                p.value
            ))
        })?;
        let idx = bucket_of(val).min(n_a - 1);
        // Line 5: a bucket touched by a predicate only *partially*
        // qualifies — but only in coarse mode; with exact single-value
        // buckets the boundary is sharp (end of Section 3.2). With the
        // ternary marks ablated, touched buckets keep their value
        // (superset semantics).
        let mark_partial = |v: &mut [f32], idx: usize| {
            if ternary && v[idx] == 1.0 {
                v[idx] = 0.5;
            }
        };
        match p.op {
            CmpOp::Eq => {
                if !exact {
                    mark_partial(v, idx);
                }
                for (i, entry) in v.iter_mut().enumerate() {
                    if i != idx {
                        *entry = 0.0;
                    }
                }
            }
            CmpOp::Gt => {
                let zero_to = if exact { idx + 1 } else { idx };
                if !exact {
                    mark_partial(v, idx);
                }
                v[..zero_to.min(n_a)].fill(0.0);
            }
            CmpOp::Ge => {
                if !exact {
                    mark_partial(v, idx);
                }
                v[..idx].fill(0.0);
            }
            CmpOp::Lt => {
                let zero_from = if exact { idx } else { idx + 1 };
                if !exact {
                    mark_partial(v, idx);
                }
                v[zero_from..].fill(0.0);
            }
            CmpOp::Le => {
                if !exact {
                    mark_partial(v, idx);
                }
                v[idx + 1..].fill(0.0);
            }
            CmpOp::Ne => {
                if exact {
                    v[idx] = 0.0;
                } else {
                    mark_partial(v, idx);
                }
            }
        }
    }
    Ok(())
}

impl Featurizer for UniversalConjunctionEncoding {
    fn name(&self) -> &'static str {
        "conjunctive"
    }

    fn dim(&self) -> usize {
        self.offsets[self.space.len()]
    }

    fn featurize(&self, query: &Query) -> Result<FeatureVec, QfeError> {
        let mut out = vec![0.0f32; self.dim()];
        self.encode_into(query, &mut out)?;
        Ok(FeatureVec(out))
    }

    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        crate::featurize::check_out_len(self.dim(), out.len())?;
        self.encode_into(query, out)
    }

    fn featurize_binned_into(
        &self,
        query: &Query,
        binner: &crate::featurize::FeatureBinner,
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
        // Fused fast path: unpredicated attributes hold the constant
        // all-ones default, so their bins come straight off the binner's
        // precomputed template; only predicated segments are encoded
        // (into their slice of `scratch`) and re-binned value by value.
        // `bin_value` is `bin_row`'s kernel, so the bits match the
        // default encode-then-bin composition exactly.
        binner.bin_ones_into(out);
        let mut leaves = Vec::new();
        for cp in &query.predicates {
            let pos = self.position_of(cp.column)?;
            let range = self.offsets[pos]..self.offsets[pos + 1];
            leaves.clear();
            self.encode_attr_in(pos, &cp.expr, &mut scratch[range.clone()], &mut leaves)?;
            binner.bin_span(range.start, &scratch[range.clone()], &mut out[range]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompoundPredicate, PredicateExpr};
    use crate::query::ColumnRef;
    use crate::schema::{ColumnId, TableId};

    /// The paper's running example: attributes A [-9, 50], B [0, 115],
    /// C in {1, 2}; n = 12.
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

    /// Section 3.2 example: A < 7 AND B >= 30 AND B <= 100 AND B <> 66
    /// with n = 12 yields
    /// A: 1 1 1 ½ 0 0 0 0 0 0 0 0   B: 0 0 0 ½ 1 1 ½ 1 1 1 ½ 0   C: 1 1
    #[test]
    fn paper_example_feature_vector() {
        let enc = UniversalConjunctionEncoding::new(paper_space(), 12)
            .unwrap()
            .with_attr_sel(false);
        let q = Query::single_table(
            TableId(0),
            vec![
                CompoundPredicate::conjunction(col(0), vec![SimplePredicate::new(CmpOp::Lt, 7)]),
                CompoundPredicate::conjunction(
                    col(1),
                    vec![
                        SimplePredicate::new(CmpOp::Ge, 30),
                        SimplePredicate::new(CmpOp::Le, 100),
                        SimplePredicate::new(CmpOp::Ne, 66),
                    ],
                ),
            ],
        );
        let f = enc.featurize(&q).unwrap();
        let expected_a = [1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let expected_b = [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0];
        let expected_c = [1.0, 1.0];
        assert_eq!(&f.0[..12], &expected_a);
        assert_eq!(&f.0[12..24], &expected_b);
        assert_eq!(&f.0[24..26], &expected_c);
        assert_eq!(f.dim(), 26);
    }

    /// With attrSel the example's gray entries are ~0.27 for A (16/60) and
    /// ~0.48 for B (70/116, the paper rounds to .48); C gets 1.0.
    #[test]
    fn paper_example_selectivity_entries() {
        let enc = UniversalConjunctionEncoding::new(paper_space(), 12).unwrap();
        let q = Query::single_table(
            TableId(0),
            vec![
                CompoundPredicate::conjunction(col(0), vec![SimplePredicate::new(CmpOp::Lt, 7)]),
                CompoundPredicate::conjunction(
                    col(1),
                    vec![
                        SimplePredicate::new(CmpOp::Ge, 30),
                        SimplePredicate::new(CmpOp::Le, 100),
                        SimplePredicate::new(CmpOp::Ne, 66),
                    ],
                ),
            ],
        );
        let f = enc.featurize(&q).unwrap();
        // Layout: A buckets (12) + sel, B buckets (12) + sel, C buckets (2) + sel.
        let sel_a = f.0[12];
        let sel_b = f.0[25];
        let sel_c = f.0[28];
        // A < 7 on [-9, 50]: qualifying integers -9..=6 => 16 / 60.
        assert!((sel_a - 16.0 / 60.0).abs() < 1e-6, "sel_a = {sel_a}");
        // 30 <= B <= 100 minus 66 on [0, 115]: 70 / 116.
        assert!((sel_b - 70.0 / 116.0).abs() < 1e-6, "sel_b = {sel_b}");
        assert_eq!(sel_c, 1.0);
        assert_eq!(f.dim(), 12 + 1 + 12 + 1 + 2 + 1);
    }

    #[test]
    fn equality_zeroes_all_other_buckets() {
        let d = AttributeDomain::integers(0, 999);
        let (v, _) =
            featurize_conjunct(&[SimplePredicate::new(CmpOp::Eq, 500)], &d, 10, true).unwrap();
        let idx = d.bucket_of(500.0, 10);
        for (i, &e) in v.iter().enumerate() {
            if i == idx {
                assert_eq!(e, 0.5);
            } else {
                assert_eq!(e, 0.0);
            }
        }
    }

    #[test]
    fn exact_mode_uses_only_binary_entries() {
        // Domain {1, 2} with 12 max buckets -> 2 exact buckets.
        let d = AttributeDomain::integers(1, 2);
        let (v, _) =
            featurize_conjunct(&[SimplePredicate::new(CmpOp::Eq, 2)], &d, 2, true).unwrap();
        assert_eq!(v, vec![0.0, 1.0]);
        let (v, _) =
            featurize_conjunct(&[SimplePredicate::new(CmpOp::Ne, 2)], &d, 2, true).unwrap();
        assert_eq!(v, vec![1.0, 0.0]);
        let (v, _) =
            featurize_conjunct(&[SimplePredicate::new(CmpOp::Gt, 1)], &d, 2, true).unwrap();
        assert_eq!(v, vec![0.0, 1.0]);
        let (v, _) =
            featurize_conjunct(&[SimplePredicate::new(CmpOp::Ge, 2)], &d, 2, true).unwrap();
        assert_eq!(v, vec![0.0, 1.0]);
        let (v, _) =
            featurize_conjunct(&[SimplePredicate::new(CmpOp::Lt, 2)], &d, 2, true).unwrap();
        assert_eq!(v, vec![1.0, 0.0]);
        let (v, _) =
            featurize_conjunct(&[SimplePredicate::new(CmpOp::Le, 1)], &d, 2, true).unwrap();
        assert_eq!(v, vec![1.0, 0.0]);
    }

    #[test]
    fn conjunction_only_decreases_entries() {
        // Adding conjuncts can only make a query more selective: every
        // entry is monotonically non-increasing in the number of predicates.
        let d = AttributeDomain::integers(0, 99);
        let preds = [
            SimplePredicate::new(CmpOp::Ge, 10),
            SimplePredicate::new(CmpOp::Le, 80),
            SimplePredicate::new(CmpOp::Ne, 42),
            SimplePredicate::new(CmpOp::Gt, 15),
        ];
        let mut prev = vec![1.0f32; 16];
        for k in 0..=preds.len() {
            let (v, _) = featurize_conjunct(&preds[..k], &d, 16, true).unwrap();
            for (a, b) in v.iter().zip(&prev) {
                assert!(a <= b, "entry increased when adding a conjunct");
            }
            prev = v;
        }
    }

    #[test]
    fn no_predicate_attribute_is_all_ones() {
        let enc = UniversalConjunctionEncoding::new(paper_space(), 12).unwrap();
        let q = Query::single_table(TableId(0), vec![]);
        let f = enc.featurize(&q).unwrap();
        assert!(f.0.iter().all(|&e| e == 1.0));
    }

    #[test]
    fn empty_disjunction_is_unsatisfiable_not_unrestricted() {
        // An `Or([])` (e.g. a prefix predicate matching no dictionary
        // entry) must zero its attribute's buckets, not leave them all-one.
        let enc = UniversalConjunctionEncoding::new(paper_space(), 12).unwrap();
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(0),
                expr: PredicateExpr::Or(vec![]),
            }],
        );
        let f = enc.featurize(&q).unwrap();
        // Attribute A: 12 zero buckets + selectivity 0.
        assert!(f.0[..12].iter().all(|&e| e == 0.0), "{:?}", &f.0[..13]);
        assert_eq!(f.0[12], 0.0);
        // Other attributes untouched.
        assert!(f.0[13..].iter().all(|&e| e == 1.0));
    }

    #[test]
    fn disjunction_is_rejected() {
        let enc = UniversalConjunctionEncoding::new(paper_space(), 12).unwrap();
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
    fn raw_string_literal_is_rejected() {
        let enc = UniversalConjunctionEncoding::new(paper_space(), 12).unwrap();
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(0),
                vec![SimplePredicate::new(CmpOp::Eq, "raw")],
            )],
        );
        assert!(matches!(
            enc.featurize(&q),
            Err(QfeError::InvalidLiteral(_))
        ));
    }

    #[test]
    fn determinism() {
        let enc = UniversalConjunctionEncoding::new(paper_space(), 32).unwrap();
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(1),
                vec![
                    SimplePredicate::new(CmpOp::Ge, 30),
                    SimplePredicate::new(CmpOp::Le, 100),
                ],
            )],
        );
        assert_eq!(enc.featurize(&q).unwrap(), enc.featurize(&q).unwrap());
    }

    #[test]
    fn offsets_are_consistent_with_dim() {
        let enc = UniversalConjunctionEncoding::new(paper_space(), 12).unwrap();
        let last = enc.space().len() - 1;
        assert_eq!(enc.attr_offset(last) + enc.buckets_of(last) + 1, enc.dim());
    }

    /// Layout regression: the precomputed offsets must equal the prefix
    /// sums of the per-attribute widths under every layout-affecting
    /// configuration (attrSel on/off; ternary does not affect layout).
    #[test]
    fn precomputed_offsets_match_prefix_sums() {
        for attr_sel in [true, false] {
            for ternary in [true, false] {
                let enc = UniversalConjunctionEncoding::new(paper_space(), 12)
                    .unwrap()
                    .with_attr_sel(attr_sel)
                    .with_ternary(ternary);
                let mut expected = 0;
                for pos in 0..enc.space().len() {
                    assert_eq!(
                        enc.attr_offset(pos),
                        expected,
                        "attrSel={attr_sel} ternary={ternary} pos={pos}"
                    );
                    expected += enc.buckets_of(pos) + usize::from(attr_sel);
                }
                assert_eq!(enc.dim(), expected);
            }
        }
    }

    /// Toggling attrSel after construction must rebuild the layout, not
    /// keep stale offsets.
    #[test]
    fn with_attr_sel_rebuilds_offsets() {
        let with_sel = UniversalConjunctionEncoding::new(paper_space(), 12).unwrap();
        let without = with_sel.clone().with_attr_sel(false);
        // Each of the 3 attributes loses exactly its one selectivity slot.
        assert_eq!(with_sel.attr_offset(1), without.attr_offset(1) + 1);
        assert_eq!(with_sel.attr_offset(2), without.attr_offset(2) + 2);
        assert_eq!(with_sel.dim(), without.dim() + 3);
    }
}
