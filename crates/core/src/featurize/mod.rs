//! Query featurization techniques (QFTs) — the paper's core contribution.
//!
//! A QFT encodes a [`Query`] into a numeric [`FeatureVec`] that serves as
//! input to a machine-learning model. All QFTs here are model-independent
//! (Section 4): the same feature vector can be fed to a feed-forward
//! network, a gradient-boosting model, or — via the set-based adapter in
//! [`mscn`] — a multi-set convolutional network.
//!
//! | paper label  | type |
//! |--------------|------|
//! | `simple`     | [`SingularPredicateEncoding`] |
//! | `range`      | [`RangePredicateEncoding`] |
//! | `conjunctive`| [`UniversalConjunctionEncoding`] |
//! | `complex`    | [`LimitedDisjunctionEncoding`] |

pub mod binned;
mod complex;
mod conjunctive;
mod equidepth;
pub mod groupby;
pub mod join;
pub mod lossless;
mod matrix;
pub mod mscn;
mod range;
mod simple;
mod space;

pub use binned::{BinnedFeatureMatrix, FeatureBinner};
pub use complex::LimitedDisjunctionEncoding;
pub use conjunctive::UniversalConjunctionEncoding;
pub use equidepth::EquiDepthConjunctionEncoding;
pub use groupby::{GroupByEncoding, GroupedQuery};
pub use join::GlobalTableEncoding;
pub use matrix::FeatureMatrix;
pub use range::RangePredicateEncoding;
pub use simple::SingularPredicateEncoding;
pub use space::AttributeSpace;

use crate::error::QfeError;
use crate::predicate::PredicateExpr;
use crate::query::{ColumnRef, Query};

/// A featurized query: the numeric vector consumed by ML models.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVec(pub Vec<f32>);

impl FeatureVec {
    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Raw entries.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Approximate in-memory footprint in bytes (Table 5 reports
    /// per-feature-vector memory).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.0.len() * std::mem::size_of::<f32>()
    }
}

/// A query featurization technique.
///
/// Implementations are deterministic: equal queries always produce equal
/// feature vectors (the requirement of Eq. 4 in the paper — ML training
/// breaks down if the same input maps to different labels, so featurization
/// must at least be a function).
pub trait Featurizer: Send + Sync {
    /// Short label used in experiment output (`simple`, `range`,
    /// `conjunctive`, `complex`).
    fn name(&self) -> &'static str;

    /// Length of every produced feature vector.
    fn dim(&self) -> usize;

    /// Encode `query` into a feature vector of length [`Featurizer::dim`].
    fn featurize(&self, query: &Query) -> Result<FeatureVec, QfeError>;

    /// Encode `query` into a caller-provided buffer of length
    /// [`Featurizer::dim`] without allocating an output vector.
    ///
    /// The batch path ([`FeatureMatrix`]) featurizes rows directly into one
    /// contiguous arena through this method. The default delegates to
    /// [`featurize`](Self::featurize) and copies; the built-in QFTs override
    /// it with in-place encoders that produce bit-identical output.
    ///
    /// On error the contents of `out` are unspecified; callers must treat
    /// the row as poisoned. Passing a buffer whose length differs from
    /// `dim()` is a caller bug and surfaces as [`QfeError::ShapeMismatch`].
    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        check_out_len(self.dim(), out.len())?;
        let v = self.featurize(query)?;
        out.copy_from_slice(&v.0);
        Ok(())
    }

    /// Encode `query` and quantize it to `u16` bin ids in one pass: the
    /// compiled-inference entry point ([`BinnedFeatureMatrix`] builds its
    /// arena through this).
    ///
    /// `scratch` receives the intermediate `f32` features (caller-owned so
    /// batch loops reuse one buffer); `out` receives one bin id per
    /// feature. Both must be exactly [`dim`](Self::dim) long, and `binner`
    /// must cover the same width. The default composes
    /// [`featurize_into`](Self::featurize_into) with
    /// [`FeatureBinner::bin_row`], which is already zero-alloc; overrides
    /// must stay bit-identical to that composition.
    fn featurize_binned_into(
        &self,
        query: &Query,
        binner: &FeatureBinner,
        scratch: &mut [f32],
        out: &mut [u16],
    ) -> Result<(), QfeError> {
        check_out_len(self.dim(), out.len())?;
        check_out_len(self.dim(), binner.features())?;
        self.featurize_into(query, scratch)?;
        binner.bin_row(scratch, out);
        Ok(())
    }
}

/// Shared guard for [`Featurizer::featurize_into`] buffer lengths.
pub(crate) fn check_out_len(dim: usize, got: usize) -> Result<(), QfeError> {
    if dim != got {
        return Err(QfeError::ShapeMismatch {
            expected: dim,
            actual: got,
        });
    }
    Ok(())
}

/// Boxed featurizers are featurizers, so composite encodings
/// ([`GroupByEncoding`], [`GlobalTableEncoding`]) can wrap trait objects
/// (with or without `Send + Sync` bounds).
impl<F: Featurizer + ?Sized> Featurizer for Box<F> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn dim(&self) -> usize {
        self.as_ref().dim()
    }

    fn featurize(&self, query: &Query) -> Result<FeatureVec, QfeError> {
        self.as_ref().featurize(query)
    }

    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        self.as_ref().featurize_into(query, out)
    }

    fn featurize_binned_into(
        &self,
        query: &Query,
        binner: &FeatureBinner,
        scratch: &mut [f32],
        out: &mut [u16],
    ) -> Result<(), QfeError> {
        self.as_ref()
            .featurize_binned_into(query, binner, scratch, out)
    }
}

/// Group a query's compound predicates by attribute, conjoining multiple
/// compound predicates on the same attribute (Definition 3.3 permits one
/// compound predicate per attribute; queries built from workload generators
/// satisfy this, but user-built queries may repeat an attribute).
pub(crate) fn group_by_column(query: &Query) -> Vec<(ColumnRef, PredicateExpr)> {
    let mut grouped: Vec<(ColumnRef, Vec<PredicateExpr>)> = Vec::new();
    for cp in &query.predicates {
        match grouped.iter_mut().find(|(c, _)| *c == cp.column) {
            Some((_, exprs)) => exprs.push(cp.expr.clone()),
            None => grouped.push((cp.column, vec![cp.expr.clone()])),
        }
    }
    grouped
        .into_iter()
        .map(|(c, mut exprs)| {
            let expr = if exprs.len() == 1 {
                exprs.pop().unwrap()
            } else {
                PredicateExpr::And(exprs)
            };
            (c, expr)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
    use crate::schema::{ColumnId, TableId};

    #[test]
    fn feature_vec_accessors() {
        let v = FeatureVec(vec![0.0, 0.5, 1.0]);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.as_slice(), &[0.0, 0.5, 1.0]);
        assert!(v.memory_bytes() >= 12);
    }

    #[test]
    fn grouping_merges_repeated_attributes() {
        let col_a = ColumnRef::new(TableId(0), ColumnId(0));
        let col_b = ColumnRef::new(TableId(0), ColumnId(1));
        let q = Query::single_table(
            TableId(0),
            vec![
                CompoundPredicate::conjunction(col_a, vec![SimplePredicate::new(CmpOp::Ge, 1)]),
                CompoundPredicate::conjunction(col_b, vec![SimplePredicate::new(CmpOp::Eq, 7)]),
                CompoundPredicate::conjunction(col_a, vec![SimplePredicate::new(CmpOp::Le, 9)]),
            ],
        );
        let grouped = group_by_column(&q);
        assert_eq!(grouped.len(), 2);
        let (c, expr) = &grouped[0];
        assert_eq!(*c, col_a);
        assert_eq!(expr.leaf_count(), 2);
    }
}
