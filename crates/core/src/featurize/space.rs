//! The attribute space a featurizer is defined over.
//!
//! A featurizer reserves feature-vector entries per attribute; the
//! [`AttributeSpace`] fixes which attributes participate and in which
//! order. For local models (Section 2.1.2) the space covers all columns of
//! one sub-schema; for global models it covers all columns of the catalog.

use std::collections::HashMap;

use crate::error::QfeError;
use crate::query::ColumnRef;
use crate::schema::{AttributeDomain, Catalog, ColumnId, TableId};

/// An ordered set of attributes with their domains; defines the layout of
/// per-attribute featurizations.
#[derive(Debug, Clone)]
pub struct AttributeSpace {
    columns: Vec<(ColumnRef, AttributeDomain)>,
    index: HashMap<ColumnRef, usize>,
}

impl AttributeSpace {
    /// Space over explicit (column, domain) pairs, in the given order.
    pub fn new(columns: Vec<(ColumnRef, AttributeDomain)>) -> Self {
        let index = columns
            .iter()
            .enumerate()
            .map(|(i, (c, _))| (*c, i))
            .collect();
        AttributeSpace { columns, index }
    }

    /// Space over all columns of one table, in declaration order.
    pub fn for_table(catalog: &Catalog, table: TableId) -> Self {
        Self::for_tables(catalog, &[table])
    }

    /// Space over all columns of the given tables; tables are laid out in
    /// the order given, columns in declaration order.
    pub fn for_tables(catalog: &Catalog, tables: &[TableId]) -> Self {
        let mut columns = Vec::new();
        for &t in tables {
            for (ci, col) in catalog.table(t).columns.iter().enumerate() {
                columns.push((ColumnRef::new(t, ColumnId(ci)), col.domain.clone()));
            }
        }
        Self::new(columns)
    }

    /// Space over every column of every table in the catalog (global
    /// models).
    pub fn for_catalog(catalog: &Catalog) -> Self {
        let tables: Vec<TableId> = (0..catalog.table_count()).map(TableId).collect();
        Self::for_tables(catalog, &tables)
    }

    /// Attributes in layout order.
    pub fn columns(&self) -> &[(ColumnRef, AttributeDomain)] {
        &self.columns
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the space has no attributes.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Layout position of `column`, if it participates in this space.
    pub fn position(&self, column: ColumnRef) -> Option<usize> {
        self.index.get(&column).copied()
    }

    /// Layout position of `column`, or the typed error for a predicate on
    /// an attribute outside this space.
    pub(crate) fn position_checked(&self, column: ColumnRef) -> Result<usize, QfeError> {
        self.position(column).ok_or_else(|| {
            QfeError::InvalidQuery(format!(
                "predicate on attribute outside the featurizer's space: table {} column {}",
                column.table.0, column.column.0
            ))
        })
    }

    /// Domain of the attribute at layout position `pos`.
    pub fn domain(&self, pos: usize) -> &AttributeDomain {
        &self.columns[pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, TableMeta};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableMeta {
            name: "t0".into(),
            columns: vec![
                ColumnMeta {
                    name: "a".into(),
                    domain: AttributeDomain::integers(0, 9),
                },
                ColumnMeta {
                    name: "b".into(),
                    domain: AttributeDomain::integers(0, 99),
                },
            ],
            row_count: 10,
        });
        cat.add_table(TableMeta {
            name: "t1".into(),
            columns: vec![ColumnMeta {
                name: "c".into(),
                domain: AttributeDomain::reals(0.0, 1.0),
            }],
            row_count: 10,
        });
        cat
    }

    #[test]
    fn table_space_layout() {
        let cat = catalog();
        let space = AttributeSpace::for_table(&cat, TableId(0));
        assert_eq!(space.len(), 2);
        assert_eq!(
            space.position(ColumnRef::new(TableId(0), ColumnId(1))),
            Some(1)
        );
        assert_eq!(
            space.position(ColumnRef::new(TableId(1), ColumnId(0))),
            None
        );
    }

    #[test]
    fn catalog_space_spans_all_tables() {
        let cat = catalog();
        let space = AttributeSpace::for_catalog(&cat);
        assert_eq!(space.len(), 3);
        assert_eq!(
            space.position(ColumnRef::new(TableId(1), ColumnId(0))),
            Some(2)
        );
        assert!(!space.domain(2).integral);
    }

    #[test]
    fn multi_table_space_preserves_order() {
        let cat = catalog();
        let space = AttributeSpace::for_tables(&cat, &[TableId(1), TableId(0)]);
        assert_eq!(
            space.position(ColumnRef::new(TableId(1), ColumnId(0))),
            Some(0)
        );
        assert_eq!(
            space.position(ColumnRef::new(TableId(0), ColumnId(0))),
            Some(1)
        );
    }

    #[test]
    fn empty_space() {
        let space = AttributeSpace::new(vec![]);
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
    }
}
