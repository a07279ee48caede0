//! Equi-depth bucket boundaries for Universal Conjunction Encoding.
//!
//! Section 3.2 of the paper notes that "for attributes with high skew, a
//! larger n may be necessary. … One could also apply sophisticated
//! partitioning techniques from the field of histograms, like v-optimal
//! and q-optimal partitioning." This encoder implements the simplest such
//! refinement: per-attribute **equi-depth** boundaries computed from the
//! data, so each bucket covers roughly the same number of rows instead of
//! the same value range. Everything else — the `{0, ½, 1}` update rules
//! of Algorithm 1 and the entry-wise-max OR merge of Algorithm 2 — is
//! shared with the equal-width encoders.
//!
//! The `ablations` experiment compares this variant against the paper's
//! equal-width scheme on the skewed forest attributes.

use crate::error::QfeError;
use crate::featurize::conjunctive::featurize_conjunct_buckets_into;
use crate::featurize::space::AttributeSpace;
use crate::featurize::{group_by_column, Featurizer};
use crate::interval::{Region, RegionSet};
use crate::query::Query;

/// Per-attribute equi-depth bucket edges.
///
/// `edges[a]` holds the sorted inner cut points of attribute `a`: with
/// `k` edges there are `k + 1` buckets, bucket `i` covering values `v`
/// with `edges[i-1] < v <= edges[i]`.
#[derive(Debug, Clone)]
pub struct EquiDepthConjunctionEncoding {
    space: AttributeSpace,
    edges: Vec<Vec<f64>>,
    attr_sel: bool,
    /// Cumulative layout (see [`UniversalConjunctionEncoding`]'s twin
    /// field): `offsets[pos]` is attribute `pos`'s start, the last entry
    /// is the total dimension. Precomputed on every layout change.
    ///
    /// [`UniversalConjunctionEncoding`]: crate::featurize::UniversalConjunctionEncoding
    offsets: Vec<usize>,
}

impl EquiDepthConjunctionEncoding {
    /// Build over `space` with explicit per-attribute edges (one edge
    /// vector per attribute, in space order). Edge vectors must be sorted;
    /// `qfe-data::histogram::equi_depth_edges` computes them from columns.
    ///
    /// # Panics
    /// Panics if `edges.len() != space.len()` or an edge vector is
    /// unsorted.
    pub fn new(space: AttributeSpace, edges: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            edges.len(),
            space.len(),
            "one edge vector per attribute required"
        );
        for e in &edges {
            assert!(
                e.windows(2).all(|w| w[0] <= w[1]),
                "bucket edges must be sorted"
            );
        }
        let mut enc = EquiDepthConjunctionEncoding {
            space,
            edges,
            attr_sel: true,
            offsets: Vec::new(),
        };
        enc.recompute_offsets();
        enc
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

    /// Buckets of attribute `pos`.
    pub fn buckets_of(&self, pos: usize) -> usize {
        self.edges[pos].len() + 1
    }

    /// Offset of attribute `pos` inside the feature vector. O(1): the
    /// layout is precomputed at construction.
    pub fn attr_offset(&self, pos: usize) -> usize {
        self.offsets[pos]
    }

    /// The attribute space.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    fn attr_width(&self, pos: usize) -> usize {
        self.buckets_of(pos) + usize::from(self.attr_sel)
    }

    /// Encoding core shared by the allocating and in-place paths: fills
    /// `out` (length `dim()`) via the precomputed offsets. The first
    /// disjunct of each attribute encodes straight into the output slot;
    /// only additional disjuncts touch the (call-local, reused) scratch
    /// buffer for the entry-wise max merge of Algorithm 2.
    fn encode_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        out.fill(1.0);
        let mut scratch: Vec<f32> = Vec::new();
        for (col, expr) in group_by_column(query) {
            let Some(pos) = self.space.position(col) else {
                return Err(QfeError::InvalidQuery(format!(
                    "predicate on attribute outside the featurizer's space: table {} column {}",
                    col.table.0, col.column.0
                )));
            };
            let domain = self.space.domain(pos);
            let edges = &self.edges[pos];
            let n_a = edges.len() + 1;
            let bucket_of = |v: f64| edges.partition_point(|&e| e < v);
            let start = self.offsets[pos];
            // Merge disjuncts by entry-wise max (Algorithm 2); a pure
            // conjunction is the single-disjunct special case. An empty
            // DNF (unsatisfiable) leaves every bucket at 0.
            let slot = &mut out[start..start + n_a];
            slot.fill(0.0);
            let mut regions = Vec::new();
            for conjunct in expr.to_dnf()? {
                if regions.is_empty() {
                    featurize_conjunct_buckets_into(&conjunct, slot, false, true, &bucket_of)?;
                } else {
                    scratch.resize(n_a, 0.0);
                    let scratch = &mut scratch[..n_a];
                    featurize_conjunct_buckets_into(&conjunct, scratch, false, true, &bucket_of)?;
                    for (m, e) in slot.iter_mut().zip(scratch.iter()) {
                        *m = m.max(*e);
                    }
                }
                regions.push(Region::from_conjunct(&conjunct, domain));
            }
            if self.attr_sel {
                let sel = RegionSet::new(regions).selectivity(domain);
                out[start + n_a] = sel as f32;
            }
        }
        Ok(())
    }
}

impl Featurizer for EquiDepthConjunctionEncoding {
    fn name(&self) -> &'static str {
        "conj-eqdepth"
    }

    fn dim(&self) -> usize {
        self.offsets[self.space.len()]
    }

    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        crate::featurize::check_out_len(self.dim(), out.len())?;
        self.encode_into(query, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, CompoundPredicate, PredicateExpr, SimplePredicate};
    use crate::query::ColumnRef;
    use crate::schema::{AttributeDomain, ColumnId, TableId};

    fn space() -> AttributeSpace {
        AttributeSpace::new(vec![(
            ColumnRef::new(TableId(0), ColumnId(0)),
            AttributeDomain::integers(0, 1000),
        )])
    }

    fn col() -> ColumnRef {
        ColumnRef::new(TableId(0), ColumnId(0))
    }

    /// Skewed data: most mass below 10, so equi-depth edges concentrate
    /// there.
    fn skewed_edges() -> Vec<f64> {
        vec![1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]
    }

    #[test]
    fn skew_aware_resolution() {
        // A predicate on the dense low range resolves to different buckets
        // under equi-depth while equal-width would lump everything into
        // bucket 0.
        let enc =
            EquiDepthConjunctionEncoding::new(space(), vec![skewed_edges()]).with_attr_sel(false);
        let q = |hi: i64| {
            Query::single_table(
                TableId(0),
                vec![CompoundPredicate::conjunction(
                    col(),
                    vec![SimplePredicate::new(CmpOp::Le, hi)],
                )],
            )
        };
        let f2 = enc.featurize(&q(2)).unwrap();
        let f8 = enc.featurize(&q(8)).unwrap();
        assert_ne!(f2, f8, "equi-depth buckets separate 2 from 8");
        // Equal-width with the same bucket count cannot: both fall in
        // bucket 0 of 8 over [0, 1000].
        let ew = crate::featurize::UniversalConjunctionEncoding::new(space(), 8)
            .unwrap()
            .with_attr_sel(false);
        assert_eq!(ew.featurize(&q(2)).unwrap(), ew.featurize(&q(8)).unwrap());
    }

    #[test]
    fn update_semantics_match_algorithm_1() {
        // <= 4 with edges [1,2,4,8,16,64,256]: bucket_of(4) = 2 (values
        // in (2,4]); the touched bucket is marked ½ and everything above
        // is zeroed, matching Algorithm 1's update rules.
        let enc =
            EquiDepthConjunctionEncoding::new(space(), vec![skewed_edges()]).with_attr_sel(false);
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                col(),
                vec![SimplePredicate::new(CmpOp::Le, 4)],
            )],
        );
        let f = enc.featurize(&q).unwrap();
        assert_eq!(f.0, vec![1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn disjunctions_merge_by_max() {
        let enc =
            EquiDepthConjunctionEncoding::new(space(), vec![skewed_edges()]).with_attr_sel(false);
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(),
                expr: PredicateExpr::Or(vec![
                    PredicateExpr::leaf(CmpOp::Le, 2),
                    PredicateExpr::leaf(CmpOp::Ge, 500),
                ]),
            }],
        );
        let f = enc.featurize(&q).unwrap();
        // Low buckets from the first disjunct; the top bucket (256, 1000]
        // is only partially covered by >= 500.
        assert_eq!(f.0[0], 1.0);
        assert_eq!(f.0[7], 0.5);
        assert_eq!(f.0[4], 0.0);
    }

    #[test]
    fn no_predicate_is_all_ones_with_sel() {
        let enc = EquiDepthConjunctionEncoding::new(space(), vec![skewed_edges()]);
        let f = enc
            .featurize(&Query::single_table(TableId(0), vec![]))
            .unwrap();
        assert_eq!(f.dim(), 9);
        assert!(f.0.iter().all(|&e| e == 1.0));
        assert_eq!(enc.name(), "conj-eqdepth");
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_edges_rejected() {
        let _ = EquiDepthConjunctionEncoding::new(space(), vec![vec![5.0, 1.0]]);
    }

    /// Layout regression for the precomputed offsets, over attributes of
    /// *different* widths (3, 1, and 5 buckets), with and without the
    /// selectivity entry.
    #[test]
    fn precomputed_offsets_match_prefix_sums() {
        let space = AttributeSpace::new(vec![
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
        ]);
        let edges = vec![vec![10.0, 20.0], vec![], vec![5.0, 10.0, 20.0, 40.0]];
        for attr_sel in [true, false] {
            let enc = EquiDepthConjunctionEncoding::new(space.clone(), edges.clone())
                .with_attr_sel(attr_sel);
            let mut expected = 0;
            for pos in 0..enc.space().len() {
                assert_eq!(
                    enc.attr_offset(pos),
                    expected,
                    "attrSel={attr_sel} pos={pos}"
                );
                expected += enc.buckets_of(pos) + usize::from(attr_sel);
            }
            assert_eq!(enc.dim(), expected);
        }
    }
}
