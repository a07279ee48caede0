//! Row-major feature arena for batched featurization.
//!
//! [`FeatureMatrix`] featurizes a `&[Query]` into **one** contiguous
//! `Vec<f32>` through [`Featurizer::featurize_into`], so a batch of `n`
//! queries costs a single allocation instead of `n` [`FeatureVec`]s plus a
//! row-pointer table. Each row has an error slot: a query the featurizer
//! rejects poisons only its own row (the slot records the [`QfeError`], the
//! row data is zeroed so the arena stays finite), and the batch carries on.
//!
//! The arena's shape is exactly what `qfe-ml::Matrix::from_vec` expects
//! (row-major `rows × cols`), so converting costs nothing:
//! [`FeatureMatrix::into_raw`] hands over the backing vector without
//! copying.

use crate::error::QfeError;
use crate::query::Query;

use super::Featurizer;

/// A batch of featurized queries in one contiguous row-major arena, with
/// per-row error slots.
#[derive(Debug)]
pub struct FeatureMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    errors: Vec<Option<QfeError>>,
}

impl FeatureMatrix {
    /// Rows per parallel featurization chunk. Fixed (never derived from
    /// the thread count) so the arena is bit-identical at any
    /// `QFE_THREADS` — see the determinism contract in
    /// [`crate::parallel`]. Rows are independent, so this constant only
    /// shapes scheduling granularity, not results.
    const ROW_CHUNK: usize = 64;

    /// Featurize every query in `queries` into a fresh arena,
    /// row-parallel on the shared [`crate::parallel`] pool.
    ///
    /// Rows the featurizer rejects are zero-filled and their error is
    /// recorded in the row's error slot — the remaining rows are still
    /// usable, and the arena as a whole stays finite (zero rows are valid
    /// model input; their predictions are simply discarded by callers).
    pub fn build<F: Featurizer + ?Sized>(featurizer: &F, queries: &[Query]) -> Self {
        let cols = featurizer.dim();
        let rows = queries.len();
        let mut data = vec![0.0f32; rows * cols];
        // A zero-dim featurizer yields an empty arena but must still
        // visit every row so the error slots line up.
        if cols == 0 {
            let errors = queries
                .iter()
                .map(|query| featurizer.featurize_into(query, &mut []).err())
                .collect();
            return FeatureMatrix {
                rows,
                cols,
                data,
                errors,
            };
        }
        let featurize_rows = |queries: &[Query], arena: &mut [f32]| {
            queries
                .iter()
                .zip(arena.chunks_exact_mut(cols))
                .map(|(query, out)| match featurizer.featurize_into(query, out) {
                    Ok(()) => None,
                    Err(e) => {
                        out.fill(0.0);
                        Some(e)
                    }
                })
                .collect::<Vec<Option<QfeError>>>()
        };
        let errors = if rows <= Self::ROW_CHUNK {
            featurize_rows(queries, &mut data)
        } else {
            let pool = crate::parallel::current();
            let chunks: Vec<(&[Query], &mut [f32])> = queries
                .chunks(Self::ROW_CHUNK)
                .zip(data.chunks_mut(Self::ROW_CHUNK * cols))
                .collect();
            let featurize_rows = &featurize_rows;
            pool.scoped(
                chunks
                    .into_iter()
                    .map(|(qs, arena)| move || featurize_rows(qs, arena))
                    .collect(),
            )
            .into_iter()
            .flatten()
            .collect()
        };
        FeatureMatrix {
            rows,
            cols,
            data,
            errors,
        }
    }

    /// Number of rows (== number of queries passed to [`build`](Self::build)).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Feature dimension (== the featurizer's `dim()`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `r`-th feature row. Zero-filled if the row errored.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The error recorded for row `r`, if featurization rejected it.
    pub fn row_error(&self, r: usize) -> Option<&QfeError> {
        self.errors[r].as_ref()
    }

    /// Number of rows that featurized successfully.
    pub fn ok_rows(&self) -> usize {
        self.errors.iter().filter(|e| e.is_none()).count()
    }

    /// The whole arena as one row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Decompose into `(rows, cols, arena, per-row errors)` without copying.
    ///
    /// The arena vector has length `rows * cols` and is laid out row-major —
    /// exactly the contract of `qfe-ml::Matrix::from_vec`.
    pub fn into_raw(self) -> (usize, usize, Vec<f32>, Vec<Option<QfeError>>) {
        (self.rows, self.cols, self.data, self.errors)
    }

    /// Approximate in-memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.data.len() * std::mem::size_of::<f32>()
            + self.errors.len() * std::mem::size_of::<Option<QfeError>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;

    /// Featurizer that rejects queries with an odd number of predicates.
    struct Picky;

    impl Featurizer for Picky {
        fn name(&self) -> &'static str {
            "picky"
        }

        fn dim(&self) -> usize {
            2
        }

        fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
            if query.predicates.len() % 2 == 1 {
                return Err(QfeError::UnsupportedQuery("odd".into()));
            }
            let n = query.predicates.len() as f32;
            out.copy_from_slice(&[n, n + 0.5]);
            Ok(())
        }
    }

    fn q(n_preds: usize) -> Query {
        use crate::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
        use crate::query::ColumnRef;
        use crate::schema::ColumnId;
        let preds = (0..n_preds)
            .map(|i| {
                CompoundPredicate::conjunction(
                    ColumnRef::new(TableId(0), ColumnId(i)),
                    vec![SimplePredicate::new(CmpOp::Eq, 1)],
                )
            })
            .collect();
        Query::single_table(TableId(0), preds)
    }

    #[test]
    fn arena_is_contiguous_and_rows_match_featurize() {
        let f = Picky;
        let queries = [q(0), q(2), q(4)];
        let m = FeatureMatrix::build(&f, &queries);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.ok_rows(), 3);
        assert_eq!(m.as_slice().len(), 6);
        for (i, query) in queries.iter().enumerate() {
            assert_eq!(m.row(i), f.featurize(query).unwrap().as_slice());
            assert!(m.row_error(i).is_none());
        }
    }

    #[test]
    fn failed_rows_are_zeroed_and_carry_their_error() {
        let m = FeatureMatrix::build(&Picky, &[q(2), q(1), q(0)]);
        assert_eq!(m.ok_rows(), 2);
        assert!(m.row_error(0).is_none());
        assert!(matches!(
            m.row_error(1),
            Some(QfeError::UnsupportedQuery(_))
        ));
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert!(m.row_error(2).is_none());
    }

    #[test]
    fn into_raw_is_the_whole_arena() {
        let m = FeatureMatrix::build(&Picky, &[q(0), q(2)]);
        let (rows, cols, data, errors) = m.into_raw();
        assert_eq!((rows, cols), (2, 2));
        assert_eq!(data.len(), 4);
        assert_eq!(errors, vec![None, None]);
    }

    #[test]
    fn empty_batch_yields_empty_arena() {
        let m = FeatureMatrix::build(&Picky, &[]);
        assert_eq!((m.rows(), m.cols()), (0, 2));
        assert!(m.as_slice().is_empty());
        assert_eq!(m.ok_rows(), 0);
        assert!(m.memory_bytes() >= std::mem::size_of::<FeatureMatrix>());
    }
}
