//! Labeling utilities: run the counting oracle over a workload to obtain
//! training/test cardinalities. Queries with empty results are filtered,
//! following the paper ("we consider only queries with non-empty
//! results").

use qfe_core::parallel::current;
use qfe_core::Query;
use qfe_data::Database;
use qfe_exec::true_cardinality;

/// A labeled workload: queries paired with true cardinalities.
#[derive(Debug, Clone, Default)]
pub struct LabeledQueries {
    /// The queries.
    pub queries: Vec<Query>,
    /// Their exact result cardinalities.
    pub cardinalities: Vec<f64>,
}

impl LabeledQueries {
    /// Number of labeled queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Split off the first `n` queries (e.g. train/test partitioning of a
    /// pre-shuffled workload).
    pub fn split_at(mut self, n: usize) -> (LabeledQueries, LabeledQueries) {
        let n = n.min(self.len());
        let tail_q = self.queries.split_off(n);
        let tail_c = self.cardinalities.split_off(n);
        (
            self,
            LabeledQueries {
                queries: tail_q,
                cardinalities: tail_c,
            },
        )
    }

    /// Keep only queries satisfying `pred` (paired with their labels).
    pub fn filter(self, mut pred: impl FnMut(&Query, f64) -> bool) -> LabeledQueries {
        let mut out = LabeledQueries::default();
        for (q, c) in self.queries.into_iter().zip(self.cardinalities) {
            if pred(&q, c) {
                out.queries.push(q);
                out.cardinalities.push(c);
            }
        }
        out
    }
}

/// Queries per labeling task. A constant, as the pool's fixed-chunk
/// contract requires: chunk boundaries never depend on the thread count.
const LABEL_CHUNK: usize = 32;

/// Label `queries` against `db`, dropping queries with empty results and
/// queries the counting oracle cannot handle.
///
/// Chunks of queries are counted on the [`current`] pool; the counts come
/// back in chunk order and are filtered in input order, so the output is
/// the same at every thread count.
pub fn label_queries(db: &Database, queries: Vec<Query>) -> LabeledQueries {
    let counts = current().par_chunks(&queries, LABEL_CHUNK, |_, chunk| {
        chunk
            .iter()
            .map(|q| true_cardinality(db, q).ok())
            .collect::<Vec<_>>()
    });
    let mut out = LabeledQueries::default();
    for (q, card) in queries.into_iter().zip(counts.into_iter().flatten()) {
        if let Some(card) = card.filter(|&card| card > 0) {
            out.cardinalities.push(card as f64);
            out.queries.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
    use qfe_core::query::ColumnRef;
    use qfe_core::{ColumnId, TableId};
    use qfe_data::table::Table;
    use qfe_data::Column;

    fn db() -> Database {
        Database::new(
            vec![Table::new(
                "t",
                vec![("a".into(), Column::Int((0..100).collect()))],
            )],
            &[],
        )
    }

    fn lt(v: i64) -> Query {
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Lt, v)],
            )],
        )
    }

    #[test]
    fn labels_and_filters_empty_results() {
        let labeled = label_queries(&db(), vec![lt(10), lt(-5), lt(50)]);
        // lt(-5) has an empty result and is dropped.
        assert_eq!(labeled.len(), 2);
        assert_eq!(labeled.cardinalities, vec![10.0, 50.0]);
    }

    #[test]
    fn split_preserves_pairing() {
        let labeled = label_queries(&db(), vec![lt(10), lt(20), lt(30)]);
        let (a, b) = labeled.split_at(2);
        assert_eq!(a.cardinalities, vec![10.0, 20.0]);
        assert_eq!(b.cardinalities, vec![30.0]);
        assert_eq!(a.queries.len(), 2);
        assert_eq!(b.queries.len(), 1);
    }

    #[test]
    fn filter_by_attribute_count() {
        let labeled = label_queries(&db(), vec![lt(10), lt(20)]);
        let kept = labeled.filter(|_, c| c > 15.0);
        assert_eq!(kept.cardinalities, vec![20.0]);
        assert!(!kept.is_empty());
    }

    #[test]
    fn split_beyond_len_is_safe() {
        let labeled = label_queries(&db(), vec![lt(10)]);
        let (a, b) = labeled.split_at(10);
        assert_eq!(a.len(), 1);
        assert!(b.is_empty());
    }
}
