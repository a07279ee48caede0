//! Global models (Section 2.1.2): a single estimator for all sub-schemata.
//!
//! Two variants, matching the paper's Table 2:
//!
//! * [`GlobalLearnedEstimator`] — any QFT over the whole catalog's
//!   attribute space, with the table-presence bit vector appended
//!   ([`GlobalTableEncoding`]), feeding any flat regressor.
//! * [`MscnEstimator`] — the MSCN architecture over (table, join,
//!   predicate) sets, in original per-predicate mode (`MSCN w/o mods`) or
//!   with the paper's per-attribute QFT predicate vectors (`MSCN + conj`).

use qfe_core::estimator::CardinalityEstimator;
use qfe_core::featurize::mscn::{MscnFeaturizer, MscnSets, PredicateMode};
use qfe_core::featurize::{Featurizer, GlobalTableEncoding};
use qfe_core::schema::Catalog;
use qfe_core::{QfeError, Query};
use qfe_ml::mscn::{Mscn, MscnConfig};
use qfe_ml::scaling::LogScaler;
use qfe_ml::train::Regressor;

use crate::labels::LabeledQueries;
use crate::learned::LearnedEstimator;

/// A flat global model: QFT + table bits + regressor.
pub struct GlobalLearnedEstimator {
    inner: LearnedEstimator,
}

impl GlobalLearnedEstimator {
    /// Wrap `featurizer` (defined over the full catalog attribute space)
    /// with the table-presence encoding and pair it with `model`.
    pub fn new(
        featurizer: Box<dyn Featurizer + Send + Sync>,
        model: Box<dyn Regressor + Send + Sync>,
        catalog: &Catalog,
    ) -> Self {
        let global = GlobalTableEncoding::new(featurizer, catalog.table_count());
        GlobalLearnedEstimator {
            inner: LearnedEstimator::new(Box::new(global), model),
        }
    }

    /// Train on a labeled multi-sub-schema workload.
    pub fn fit(&mut self, data: &LabeledQueries) -> Result<(), QfeError> {
        self.inner.fit(data)
    }
}

impl CardinalityEstimator for GlobalLearnedEstimator {
    fn name(&self) -> String {
        format!("{} (global)", self.inner.name())
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.inner.estimate(query)
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// The MSCN global estimator.
pub struct MscnEstimator {
    featurizer: MscnFeaturizer,
    catalog: Catalog,
    model: Mscn,
    scaler: Option<LogScaler>,
    mode: PredicateMode,
}

impl MscnEstimator {
    /// Build an untrained MSCN estimator over `catalog`.
    ///
    /// # Errors
    /// [`QfeError::InvalidConfig`] if `mode` is invalid (e.g. a
    /// per-attribute bucket count of zero).
    pub fn new(
        catalog: &Catalog,
        mode: PredicateMode,
        config: MscnConfig,
    ) -> Result<Self, QfeError> {
        let featurizer = MscnFeaturizer::new(catalog, mode)?;
        let model = Mscn::new(
            config,
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.predicate_dim(),
        );
        Ok(MscnEstimator {
            featurizer,
            catalog: catalog.clone(),
            model,
            scaler: None,
            mode,
        })
    }

    fn featurize_all(&self, queries: &[Query]) -> Result<Vec<MscnSets>, QfeError> {
        queries
            .iter()
            .map(|q| self.featurizer.featurize(q, &self.catalog))
            .collect()
    }

    /// Train on a labeled workload.
    pub fn fit(&mut self, data: &LabeledQueries) -> Result<(), QfeError> {
        assert!(!data.is_empty(), "cannot train on an empty workload");
        let sets = self.featurize_all(&data.queries)?;
        let scaler = LogScaler::fit(&data.cardinalities)?;
        let y = scaler.transform_batch(&data.cardinalities);
        self.model.fit(&sets, &y);
        self.scaler = Some(scaler);
        Ok(())
    }
}

impl CardinalityEstimator for MscnEstimator {
    fn name(&self) -> String {
        match self.mode {
            PredicateMode::PerPredicate => "MSCN w/o mods (global)".into(),
            PredicateMode::PerAttributeRange => "MSCN + range (global)".into(),
            PredicateMode::PerAttribute { .. } => "MSCN + conj (global)".into(),
        }
    }

    fn estimate(&self, query: &Query) -> f64 {
        let Some(scaler) = &self.scaler else {
            return 1.0;
        };
        match self.featurizer.featurize(query, &self.catalog) {
            Ok(sets) => scaler.inverse(self.model.predict(&sets)),
            Err(_) => 1.0,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.model.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::label_queries;
    use qfe_core::featurize::{AttributeSpace, UniversalConjunctionEncoding};
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

    fn workload(db: &Database) -> LabeledQueries {
        let mut queries = Vec::new();
        for lo in 0..49 {
            queries.push(single_table_query(lo));
            queries.push(join_query(lo));
        }
        label_queries(db, queries)
    }

    #[test]
    fn global_flat_model_distinguishes_sub_schemata() {
        let db = db();
        let data = workload(&db);
        let space = AttributeSpace::for_catalog(db.catalog());
        let mut est = GlobalLearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 16).unwrap()),
            Box::new(Gbdt::new(GbdtConfig {
                n_trees: 60,
                min_samples_leaf: 2,
                ..GbdtConfig::default()
            })),
            db.catalog(),
        );
        est.fit(&data).unwrap();
        // Identical predicates, different sub-schemata → the table bits
        // must separate them (cardinalities differ by ~10×).
        let e1 = est.estimate(&single_table_query(10));
        let e2 = est.estimate(&join_query(10));
        assert!(
            e2 > e1 * 3.0,
            "global model should separate sub-schemata: {e1} vs {e2}"
        );
        assert!(est.name().contains("global"));
    }

    #[test]
    fn mscn_trains_and_estimates() {
        let db = db();
        let data = workload(&db);
        let mut est = MscnEstimator::new(
            db.catalog(),
            PredicateMode::PerAttribute {
                max_buckets: 16,
                attr_sel: true,
            },
            MscnConfig {
                hidden: 16,
                epochs: 80,
                batch_size: 16,
                learning_rate: 3e-3,
                seed: 1,
            },
        )
        .unwrap();
        est.fit(&data).unwrap();
        let mut errors = Vec::new();
        for lo in [5, 20, 40] {
            for q in [single_table_query(lo), join_query(lo)] {
                let truth = qfe_exec::true_cardinality(&db, &q).unwrap() as f64;
                let e = est.estimate(&q);
                errors.push((truth / e).max(e / truth));
            }
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 3.0, "mean q-error {mean} ({errors:?})");
        assert_eq!(est.name(), "MSCN + conj (global)");
    }

    #[test]
    fn mscn_original_mode_name() {
        let db = db();
        let est = MscnEstimator::new(
            db.catalog(),
            PredicateMode::PerPredicate,
            MscnConfig::default(),
        )
        .unwrap();
        assert_eq!(est.name(), "MSCN w/o mods (global)");
        // Untrained estimates default to 1.
        assert_eq!(est.estimate(&single_table_query(5)), 1.0);
    }

    #[test]
    fn memory_reported() {
        let db = db();
        let est = MscnEstimator::new(
            db.catalog(),
            PredicateMode::PerPredicate,
            MscnConfig::default(),
        )
        .unwrap();
        assert!(est.memory_bytes() > 0);
    }

    #[test]
    fn equal_fingerprints_are_interchangeable_for_routing() {
        // The serving registry keys routing and caching on the
        // canonical query fingerprint. For that to be sound over a
        // global model, two queries with equal fingerprints must be
        // indistinguishable to the estimator: same sub-schema key and
        // bit-identical estimate.
        use qfe_core::QueryFingerprint;
        let db = db();
        let data = workload(&db);
        let space = AttributeSpace::for_catalog(db.catalog());
        let mut est = GlobalLearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 16).unwrap()),
            Box::new(Gbdt::new(GbdtConfig {
                n_trees: 30,
                min_samples_leaf: 2,
                ..GbdtConfig::default()
            })),
            db.catalog(),
        );
        est.fit(&data).unwrap();

        let pred = |col: usize, lo: i64| {
            CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(col)),
                vec![SimplePredicate::new(CmpOp::Ge, lo)],
            )
        };
        let a = Query::single_table(TableId(0), vec![pred(0, 10), pred(1, 20)]);
        let b = Query::single_table(TableId(0), vec![pred(1, 20), pred(0, 10)]);
        assert_eq!(
            QueryFingerprint::of(&a),
            QueryFingerprint::of(&b),
            "reordered predicates must share a routing fingerprint"
        );
        assert_eq!(a.sub_schema(), b.sub_schema());
        let ea = est.estimate(&a);
        let eb = est.estimate(&b);
        assert_eq!(
            ea.to_bits(),
            eb.to_bits(),
            "equal fingerprints must yield bit-identical global estimates"
        );
        // Different sub-schemata must not share a routing key: the
        // table-presence bits that separate them in the featurization
        // also separate them at the router.
        let j = join_query(10);
        assert_ne!(QueryFingerprint::of(&a), QueryFingerprint::of(&j));
        assert_ne!(a.sub_schema(), j.sub_schema());
    }
}
