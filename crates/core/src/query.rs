//! The query model: count queries over a sub-schema with mixed predicates.
//!
//! A [`Query`] corresponds to
//! `SELECT count(*) FROM t1 ⋈ … ⋈ tk WHERE cp1 AND cp2 AND …`
//! where each `cpᵢ` is a per-attribute [`CompoundPredicate`]
//! (Definition 3.3) and the joins follow key/foreign-key edges of the
//! catalog. Single-table queries are the special case with one table and no
//! joins.

use crate::error::QfeError;
use crate::predicate::{CompoundPredicate, PredicateExpr, SimplePredicate};
use crate::schema::{Catalog, ColumnId, TableId};

/// A fully-qualified column reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table the column belongs to.
    pub table: TableId,
    /// Column within the table.
    pub column: ColumnId,
}

impl ColumnRef {
    /// Convenience constructor.
    pub fn new(table: TableId, column: ColumnId) -> Self {
        ColumnRef { table, column }
    }
}

/// An equi-join predicate `a = b` along a key/foreign-key edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinPredicate {
    /// Left join column.
    pub left: ColumnRef,
    /// Right join column.
    pub right: ColumnRef,
}

/// The set of tables a query touches; identifies the local model
/// responsible for the query (Section 2.1.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubSchema(Vec<TableId>);

impl SubSchema {
    /// Build from an unsorted list of table ids (deduplicated + sorted so
    /// that equal table sets compare equal).
    pub fn new(mut tables: Vec<TableId>) -> Self {
        tables.sort_unstable();
        tables.dedup();
        SubSchema(tables)
    }

    /// Tables in the sub-schema, sorted.
    pub fn tables(&self) -> &[TableId] {
        &self.0
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no tables.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A sub-schema is its sorted table list: maps keyed by [`SubSchema`] can
/// be searched with a sorted, deduplicated `&[TableId]` without building
/// one.
impl std::borrow::Borrow<[TableId]> for SubSchema {
    fn borrow(&self) -> &[TableId] {
        &self.0
    }
}

/// A `SELECT count(*)` query over one or more joined tables with mixed
/// selection predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Tables accessed (at least one).
    pub tables: Vec<TableId>,
    /// Equi-joins connecting the tables (empty for single-table queries).
    pub joins: Vec<JoinPredicate>,
    /// Per-attribute compound predicates, implicitly ANDed.
    pub predicates: Vec<CompoundPredicate>,
}

impl Query {
    /// A single-table query with the given compound predicates.
    pub fn single_table(table: TableId, predicates: Vec<CompoundPredicate>) -> Self {
        Query {
            tables: vec![table],
            joins: Vec::new(),
            predicates,
        }
    }

    /// The sub-schema this query belongs to.
    pub fn sub_schema(&self) -> SubSchema {
        SubSchema::new(self.tables.clone())
    }

    /// Total number of simple predicates across all compound predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.iter().map(|cp| cp.predicate_count()).sum()
    }

    /// Number of distinct attributes mentioned in selection predicates.
    pub fn attribute_count(&self) -> usize {
        let mut cols: Vec<_> = self.predicates.iter().map(|cp| cp.column).collect();
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    }

    /// True if every compound predicate is a pure conjunction (no OR), i.e.
    /// the query is a *conjunctive query* in the paper's terminology.
    pub fn is_conjunctive(&self) -> bool {
        self.predicates.iter().all(|cp| cp.is_conjunctive())
    }

    /// Validate the query against a catalog:
    /// * all tables/columns exist,
    /// * predicate columns belong to accessed tables,
    /// * join predicates connect accessed tables along FK edges,
    /// * the join graph spans all tables (no cross products),
    /// * per-attribute compound predicates reference exactly one attribute
    ///   (guaranteed by construction, revalidated for defense in depth).
    pub fn validate(&self, catalog: &Catalog) -> Result<(), QfeError> {
        if self.tables.is_empty() {
            return Err(QfeError::InvalidQuery("query accesses no table".into()));
        }
        for &t in &self.tables {
            if t.0 >= catalog.table_count() {
                return Err(QfeError::UnknownTable(format!("table id {}", t.0)));
            }
        }
        for cp in &self.predicates {
            let t = cp.column.table;
            if !self.tables.contains(&t) {
                return Err(QfeError::InvalidQuery(format!(
                    "predicate on table id {} which the query does not access",
                    t.0
                )));
            }
            if cp.column.column.0 >= catalog.table(t).columns.len() {
                return Err(QfeError::UnknownColumn(format!(
                    "column id {} of table {}",
                    cp.column.column.0,
                    catalog.table(t).name
                )));
            }
        }
        for j in &self.joins {
            for side in [j.left, j.right] {
                if !self.tables.contains(&side.table) {
                    return Err(QfeError::InvalidQuery(
                        "join references table the query does not access".into(),
                    ));
                }
            }
            if catalog
                .fk_edge_index(
                    (j.left.table, j.left.column),
                    (j.right.table, j.right.column),
                )
                .is_none()
            {
                return Err(QfeError::InvalidQuery(
                    "join predicate does not follow a key/foreign-key edge".into(),
                ));
            }
        }
        if self.tables.len() > 1 {
            self.check_connected()?;
        }
        Ok(())
    }

    fn check_connected(&self) -> Result<(), QfeError> {
        let mut reached = vec![self.tables[0]];
        let mut frontier = vec![self.tables[0]];
        while let Some(t) = frontier.pop() {
            for j in &self.joins {
                for (a, b) in [(j.left.table, j.right.table), (j.right.table, j.left.table)] {
                    if a == t && !reached.contains(&b) {
                        reached.push(b);
                        frontier.push(b);
                    }
                }
            }
        }
        if reached.len() != self.sub_schema().len() {
            return Err(QfeError::InvalidQuery(
                "join graph does not connect all accessed tables".into(),
            ));
        }
        Ok(())
    }

    /// Render as a SQL string (diagnostics and examples; there is no SQL
    /// parser round trip — the workload generators build ASTs directly).
    pub fn to_sql(&self, catalog: &Catalog) -> String {
        let mut sql = String::from("SELECT count(*) FROM ");
        let table_names: Vec<_> = self
            .tables
            .iter()
            .map(|t| catalog.table(*t).name.clone())
            .collect();
        sql.push_str(&table_names.join(", "));
        let mut clauses = Vec::new();
        for j in &self.joins {
            clauses.push(format!(
                "{}.{} = {}.{}",
                catalog.table(j.left.table).name,
                catalog.column(j.left.table, j.left.column).name,
                catalog.table(j.right.table).name,
                catalog.column(j.right.table, j.right.column).name
            ));
        }
        for cp in &self.predicates {
            let attr = format!(
                "{}.{}",
                catalog.table(cp.column.table).name,
                catalog.column(cp.column.table, cp.column.column).name
            );
            clauses.push(format!("({})", render_expr(&cp.expr, &attr)));
        }
        if !clauses.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&clauses.join(" AND "));
        }
        sql.push(';');
        sql
    }
}

fn render_expr(expr: &PredicateExpr, attr: &str) -> String {
    match expr {
        PredicateExpr::Leaf(SimplePredicate { op, value }) => {
            format!("{attr} {} {value}", op.sql())
        }
        PredicateExpr::And(children) => children
            .iter()
            .map(|c| render_expr(c, attr))
            .collect::<Vec<_>>()
            .join(" AND "),
        PredicateExpr::Or(children) => children
            .iter()
            .map(|c| match c {
                PredicateExpr::And(_) => format!("({})", render_expr(c, attr)),
                _ => render_expr(c, attr),
            })
            .collect::<Vec<_>>()
            .join(" OR "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::{AttributeDomain, ColumnMeta, FkEdge, TableMeta};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let orders = cat.add_table(TableMeta {
            name: "orders".into(),
            columns: vec![
                ColumnMeta {
                    name: "id".into(),
                    domain: AttributeDomain::integers(0, 99),
                },
                ColumnMeta {
                    name: "price".into(),
                    domain: AttributeDomain::integers(0, 1000),
                },
            ],
            row_count: 100,
        });
        let items = cat.add_table(TableMeta {
            name: "items".into(),
            columns: vec![
                ColumnMeta {
                    name: "order_id".into(),
                    domain: AttributeDomain::integers(0, 99),
                },
                ColumnMeta {
                    name: "qty".into(),
                    domain: AttributeDomain::integers(1, 10),
                },
            ],
            row_count: 500,
        });
        cat.add_fk_edge(FkEdge {
            from: (items, ColumnId(0)),
            to: (orders, ColumnId(0)),
        });
        cat
    }

    fn join_query() -> Query {
        Query {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![JoinPredicate {
                left: ColumnRef::new(TableId(1), ColumnId(0)),
                right: ColumnRef::new(TableId(0), ColumnId(0)),
            }],
            predicates: vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(1)),
                vec![
                    SimplePredicate::new(CmpOp::Gt, 100),
                    SimplePredicate::new(CmpOp::Lt, 500),
                ],
            )],
        }
    }

    #[test]
    fn sub_schema_normalizes() {
        let a = SubSchema::new(vec![TableId(2), TableId(0), TableId(2)]);
        let b = SubSchema::new(vec![TableId(0), TableId(2)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn counts() {
        let q = join_query();
        assert_eq!(q.predicate_count(), 2);
        assert_eq!(q.attribute_count(), 1);
        assert!(q.is_conjunctive());
    }

    #[test]
    fn validation_accepts_well_formed_join() {
        join_query().validate(&catalog()).unwrap();
    }

    #[test]
    fn validation_rejects_disconnected_join_graph() {
        let mut q = join_query();
        q.joins.clear();
        assert!(matches!(
            q.validate(&catalog()),
            Err(QfeError::InvalidQuery(_))
        ));
    }

    #[test]
    fn validation_rejects_foreign_predicate_table() {
        let mut q = join_query();
        q.tables = vec![TableId(1)];
        q.joins.clear();
        // predicate still references table 0
        assert!(matches!(
            q.validate(&catalog()),
            Err(QfeError::InvalidQuery(_))
        ));
    }

    #[test]
    fn validation_rejects_non_fk_join() {
        let mut q = join_query();
        q.joins[0].left = ColumnRef::new(TableId(1), ColumnId(1)); // items.qty
        assert!(matches!(
            q.validate(&catalog()),
            Err(QfeError::InvalidQuery(_))
        ));
    }

    #[test]
    fn sql_rendering_mentions_all_parts() {
        let q = join_query();
        let sql = q.to_sql(&catalog());
        assert!(sql.starts_with("SELECT count(*) FROM orders, items"));
        assert!(sql.contains("items.order_id = orders.id"));
        assert!(sql.contains("orders.price > 100 AND orders.price < 500"));
        assert!(sql.ends_with(';'));
    }

    #[test]
    fn sql_rendering_of_disjunction_parenthesizes() {
        let cp = CompoundPredicate {
            column: ColumnRef::new(TableId(0), ColumnId(1)),
            expr: PredicateExpr::Or(vec![
                PredicateExpr::And(vec![
                    PredicateExpr::leaf(CmpOp::Ge, 1),
                    PredicateExpr::leaf(CmpOp::Le, 5),
                ]),
                PredicateExpr::leaf(CmpOp::Eq, 9),
            ]),
        };
        let q = Query::single_table(TableId(0), vec![cp]);
        let sql = q.to_sql(&catalog());
        assert!(
            sql.contains("(orders.price >= 1 AND orders.price <= 5) OR orders.price = 9"),
            "{sql}"
        );
    }
}
