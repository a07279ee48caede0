//! Local models (Section 2.1.2): one learned model per sub-schema.
//!
//! "With local models, one model is built per sub-schema, i.e., either per
//! base table or per join result. To estimate the result cardinality of
//! some query, the selection predicates in the query are featurized and
//! forwarded to the corresponding local model." The paper finds local
//! models clearly more accurate than global ones on join workloads
//! (Table 2) and recommends them.

use std::collections::HashMap;

use qfe_core::estimator::CardinalityEstimator;
use qfe_core::featurize::{AttributeSpace, Featurizer};
use qfe_core::query::SubSchema;
use qfe_core::schema::Catalog;
use qfe_core::{QfeError, Query};
use qfe_ml::train::Regressor;

use crate::labels::LabeledQueries;
use crate::learned::LearnedEstimator;

/// One learned estimator per sub-schema, with an optional System-R-style
/// composition fallback for sub-schemata without a trained model.
pub struct LocalModelEstimator {
    models: HashMap<SubSchema, LearnedEstimator>,
    label: String,
    fallback: Option<SystemRFallback>,
}

/// System-R composition (Section 2.1.2): "in real applications, this
/// number [of local models] is reduced by relying on System R formulas
/// where models are built exactly for those sub-schemata for which the
/// assumptions from \[25\] do not hold." For a query whose sub-schema has
/// no model, the fallback combines per-table local estimates with the
/// `1 / max(nd)` key/foreign-key join formula.
struct SystemRFallback {
    catalog: Catalog,
}

impl SystemRFallback {
    fn estimate(
        &self,
        models: &HashMap<SubSchema, LearnedEstimator>,
        query: &qfe_core::Query,
    ) -> f64 {
        let mut card = 1.0f64;
        for &t in query.sub_schema().tables() {
            // Per-table estimate: the single-table local model if trained,
            // otherwise the filtered table size is unknown — use the raw
            // row count (uniformity would need stats the local approach
            // does not keep).
            let single = SubSchema::new(vec![t]);
            let restricted = qfe_core::Query {
                tables: vec![t],
                joins: Vec::new(),
                predicates: query
                    .predicates
                    .iter()
                    .filter(|cp| cp.column.table == t)
                    .cloned()
                    .collect(),
            };
            card *= match models.get(&single) {
                Some(m) => m.estimate(&restricted),
                None => self.catalog.table(t).row_count as f64,
            };
        }
        for j in &query.joins {
            let nd = |side: qfe_core::ColumnRef| {
                self.catalog
                    .domain(side.table, side.column)
                    .distinct
                    .unwrap_or(1) as f64
            };
            card /= nd(j.left).max(nd(j.right)).max(1.0);
        }
        card.max(1.0)
    }
}

impl LocalModelEstimator {
    /// Train local models from a labeled workload.
    ///
    /// Queries are grouped by sub-schema; for every group with at least
    /// `min_queries` samples, a model is trained over the attribute space
    /// of that sub-schema. `featurizer_factory` builds the QFT for a given
    /// space; `model_factory` builds a fresh untrained model.
    ///
    /// # Errors
    /// Propagates featurization failures from training.
    pub fn train(
        catalog: &Catalog,
        data: &LabeledQueries,
        min_queries: usize,
        featurizer_factory: &dyn Fn(AttributeSpace) -> Box<dyn Featurizer + Send + Sync>,
        model_factory: &dyn Fn() -> Box<dyn Regressor + Send + Sync>,
    ) -> Result<Self, QfeError> {
        // Group by sub-schema.
        let mut groups: HashMap<SubSchema, LabeledQueries> = HashMap::new();
        for (q, &c) in data.queries.iter().zip(&data.cardinalities) {
            let g = groups.entry(q.sub_schema()).or_default();
            g.queries.push(q.clone());
            g.cardinalities.push(c);
        }
        let mut models = HashMap::new();
        let mut label = String::new();
        for (schema, group) in groups {
            if group.len() < min_queries.max(1) {
                continue;
            }
            let space = AttributeSpace::for_tables(catalog, schema.tables());
            let mut est = LearnedEstimator::new(featurizer_factory(space), model_factory());
            est.fit(&group)?;
            if label.is_empty() {
                label = format!("{} (local)", est.name());
            }
            models.insert(schema, est);
        }
        Ok(LocalModelEstimator {
            models,
            label,
            fallback: None,
        })
    }

    /// Enable the System-R composition fallback for sub-schemata without a
    /// trained model (needs the catalog for row counts and join-column
    /// distinct counts).
    pub fn with_system_r_fallback(mut self, catalog: &Catalog) -> Self {
        self.fallback = Some(SystemRFallback {
            catalog: catalog.clone(),
        });
        self
    }

    /// Number of trained local models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The model responsible for a sub-schema, if trained.
    pub fn model_for(&self, schema: &SubSchema) -> Option<&LearnedEstimator> {
        self.models.get(schema)
    }
}

impl CardinalityEstimator for LocalModelEstimator {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn estimate(&self, query: &Query) -> f64 {
        // Sub-plans from the optimizer list their tables sorted and
        // deduplicated already: look those up without building a
        // `SubSchema`.
        let model = if query.tables.windows(2).all(|w| w[0] < w[1]) {
            self.models.get(query.tables.as_slice())
        } else {
            self.models.get(&query.sub_schema())
        };
        match model {
            Some(model) => model.estimate(query),
            // No local model for this sub-schema: compose with System-R
            // formulas if enabled, otherwise the most conservative legal
            // estimate.
            None => match &self.fallback {
                Some(f) => f.estimate(&self.models, query),
                None => 1.0,
            },
        }
    }

    fn memory_bytes(&self) -> usize {
        self.models.values().map(|m| m.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::label_queries;
    use qfe_core::featurize::RangePredicateEncoding;
    use qfe_core::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
    use qfe_core::query::{ColumnRef, JoinPredicate};
    use qfe_core::{ColumnId, TableId};
    use qfe_data::table::{ForeignKey, Table};
    use qfe_data::{Column, Database};
    use qfe_ml::gbdt::{Gbdt, GbdtConfig};

    fn db() -> Database {
        let dim = Table::new(
            "dim",
            vec![
                ("id".into(), Column::Int((0..200).collect())),
                ("x".into(), Column::Int((0..200).map(|i| i % 50).collect())),
            ],
        );
        let fact = Table::new(
            "fact",
            vec![(
                "dim_id".into(),
                Column::Int((0..2000).map(|i| i % 200).collect()),
            )],
        );
        Database::new(
            vec![dim, fact],
            &[ForeignKey {
                from: ("fact".into(), "dim_id".into()),
                to: ("dim".into(), "id".into()),
            }],
        )
    }

    fn single_table_query(lo: i64) -> Query {
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(1)),
                vec![SimplePredicate::new(CmpOp::Ge, lo)],
            )],
        )
    }

    fn join_query(lo: i64) -> Query {
        Query {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![JoinPredicate {
                left: ColumnRef::new(TableId(1), ColumnId(0)),
                right: ColumnRef::new(TableId(0), ColumnId(0)),
            }],
            predicates: vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(1)),
                vec![SimplePredicate::new(CmpOp::Ge, lo)],
            )],
        }
    }

    fn trained(db: &Database) -> LocalModelEstimator {
        let mut queries = Vec::new();
        for lo in 0..49 {
            queries.push(single_table_query(lo));
            queries.push(join_query(lo));
        }
        let data = label_queries(db, queries);
        LocalModelEstimator::train(
            db.catalog(),
            &data,
            5,
            &|space| Box::new(RangePredicateEncoding::new(space)),
            &|| {
                Box::new(Gbdt::new(GbdtConfig {
                    n_trees: 40,
                    min_samples_leaf: 2,
                    ..GbdtConfig::default()
                }))
            },
        )
        .unwrap()
    }

    #[test]
    fn one_model_per_sub_schema() {
        let db = db();
        let est = trained(&db);
        assert_eq!(est.model_count(), 2);
        assert!(est.model_for(&SubSchema::new(vec![TableId(0)])).is_some());
        assert!(est
            .model_for(&SubSchema::new(vec![TableId(0), TableId(1)]))
            .is_some());
    }

    #[test]
    fn routes_queries_to_the_right_model() {
        let db = db();
        let est = trained(&db);
        for lo in [5, 20, 40] {
            let q1 = single_table_query(lo);
            let truth = qfe_exec::true_cardinality(&db, &q1).unwrap() as f64;
            let e = est.estimate(&q1);
            let q_err = (truth / e).max(e / truth);
            assert!(q_err < 2.0, "single-table lo={lo}: q-error {q_err}");
            let q2 = join_query(lo);
            let truth = qfe_exec::true_cardinality(&db, &q2).unwrap() as f64;
            let e = est.estimate(&q2);
            let q_err = (truth / e).max(e / truth);
            assert!(q_err < 2.0, "join lo={lo}: q-error {q_err}");
            // Listing the tables out of order reaches the same model.
            let mut reordered = q2.clone();
            reordered.tables.reverse();
            assert_eq!(est.estimate(&reordered), e);
        }
    }

    #[test]
    fn unknown_sub_schema_falls_back_to_one() {
        let db = db();
        let est = trained(&db);
        let q = Query::single_table(TableId(1), vec![]);
        assert_eq!(est.estimate(&q), 1.0);
    }

    #[test]
    fn system_r_fallback_composes_per_table_models() {
        let db = db();
        // Train ONLY the single-table model (restrict the workload).
        let mut queries = Vec::new();
        for lo in 0..49 {
            queries.push(single_table_query(lo));
        }
        let data = label_queries(&db, queries);
        let est = LocalModelEstimator::train(
            db.catalog(),
            &data,
            5,
            &|space| Box::new(RangePredicateEncoding::new(space)),
            &|| {
                Box::new(Gbdt::new(GbdtConfig {
                    n_trees: 40,
                    min_samples_leaf: 2,
                    ..GbdtConfig::default()
                }))
            },
        )
        .unwrap()
        .with_system_r_fallback(db.catalog());
        assert_eq!(est.model_count(), 1);
        // Join queries have no model: the fallback composes the dim-side
        // local estimate with |fact| / nd(dim_id). Each dim row has 10
        // fact rows, so the composition should land near the truth.
        for lo in [5, 20, 40] {
            let q = join_query(lo);
            let truth = qfe_exec::true_cardinality(&db, &q).unwrap() as f64;
            let e = est.estimate(&q);
            let q_err = (truth / e).max(e / truth);
            assert!(
                q_err < 2.5,
                "fallback lo={lo}: q-error {q_err} ({e} vs {truth})"
            );
        }
    }

    #[test]
    fn min_queries_threshold_skips_thin_groups() {
        let db = db();
        let data = label_queries(&db, vec![single_table_query(5)]);
        let est = LocalModelEstimator::train(
            db.catalog(),
            &data,
            10,
            &|space| Box::new(RangePredicateEncoding::new(space)),
            &|| Box::new(Gbdt::new(GbdtConfig::default())),
        )
        .unwrap();
        assert_eq!(est.model_count(), 0);
    }

    #[test]
    fn label_and_memory() {
        let db = db();
        let est = trained(&db);
        assert_eq!(est.name(), "GB + range (local)");
        assert!(est.memory_bytes() > 0);
    }
}
