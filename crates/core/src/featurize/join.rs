//! Join encoding for global models (Section 2.1.2).
//!
//! A *global* model is a single estimator covering all sub-schemata. The
//! feature vector must therefore also represent which tables the query
//! accesses: any QFT is adapted by appending a binary vector with one entry
//! per catalog table (`1101` ≙ tables 1, 2, 4 joined along their
//! key/foreign-key relationships). Local models need no such adaptation —
//! the model choice itself identifies the sub-schema.

use crate::error::QfeError;
use crate::featurize::{check_out_len, Featurizer};
use crate::query::Query;

/// Wraps any featurizer and appends the table-presence bit vector,
/// producing a global-model encoding.
#[derive(Debug, Clone)]
pub struct GlobalTableEncoding<F> {
    inner: F,
    table_count: usize,
}

impl<F: Featurizer> GlobalTableEncoding<F> {
    /// Wrap `inner`; `table_count` is the number of tables in the catalog.
    pub fn new(inner: F, table_count: usize) -> Self {
        GlobalTableEncoding { inner, table_count }
    }

    /// The wrapped featurizer.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: Featurizer> Featurizer for GlobalTableEncoding<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim() + self.table_count
    }

    fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
        check_out_len(self.dim(), out.len())?;
        let (features, bits) = out.split_at_mut(self.inner.dim());
        self.inner.featurize_into(query, features)?;
        bits.fill(0.0);
        for t in &query.tables {
            if t.0 >= self.table_count {
                return Err(QfeError::UnknownTable(format!("table id {}", t.0)));
            }
            bits[t.0] = 1.0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{AttributeSpace, RangePredicateEncoding};
    use crate::query::{ColumnRef, JoinPredicate};
    use crate::schema::{AttributeDomain, ColumnId, TableId};

    fn inner() -> RangePredicateEncoding {
        RangePredicateEncoding::new(AttributeSpace::new(vec![
            (
                ColumnRef::new(TableId(0), ColumnId(0)),
                AttributeDomain::integers(0, 9),
            ),
            (
                ColumnRef::new(TableId(1), ColumnId(0)),
                AttributeDomain::integers(0, 9),
            ),
        ]))
    }

    #[test]
    fn appends_table_bits() {
        let enc = GlobalTableEncoding::new(inner(), 4);
        assert_eq!(enc.dim(), 4 + 4);
        let q = Query {
            tables: vec![TableId(0), TableId(2)],
            joins: vec![JoinPredicate {
                left: ColumnRef::new(TableId(0), ColumnId(0)),
                right: ColumnRef::new(TableId(2), ColumnId(0)),
            }],
            predicates: vec![],
        };
        let f = enc.featurize(&q).unwrap();
        assert_eq!(&f.0[4..], &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn single_table_query_sets_one_bit() {
        let enc = GlobalTableEncoding::new(inner(), 4);
        let q = Query::single_table(TableId(1), vec![]);
        let f = enc.featurize(&q).unwrap();
        assert_eq!(&f.0[4..], &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn out_of_catalog_table_rejected() {
        let enc = GlobalTableEncoding::new(inner(), 2);
        let q = Query::single_table(TableId(7), vec![]);
        assert!(matches!(enc.featurize(&q), Err(QfeError::UnknownTable(_))));
    }

    #[test]
    fn name_is_inherited() {
        let enc = GlobalTableEncoding::new(inner(), 2);
        assert_eq!(enc.name(), "range");
    }
}
