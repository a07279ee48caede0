//! Bernoulli-sampling estimator.
//!
//! Section 5.2: "*Sampling* is a 0.1 % Bernoulli sample of the data. The
//! sample is drawn independently per query." For single tables the
//! estimate is `|R'(Q)| / p`; for joins, each table is sampled and the
//! sampled join count is scaled by `p^{-k}` — which is what produces the
//! heavy tail errors the paper observes ("it works in most cases but has
//! large tail errors").

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use qfe_core::estimator::CardinalityEstimator;
use qfe_core::predicate::CompoundPredicate;
use qfe_core::Query;
use qfe_data::sample::BernoulliSample;
use qfe_data::Database;

use qfe_exec::eval::row_matches;
use qfe_exec::join::HashJoinTable;

/// Per-query Bernoulli sampling over a database.
pub struct SamplingEstimator<'a> {
    db: &'a Database,
    rate: f64,
    base_seed: u64,
    counter: AtomicU64,
    /// Track the size of the most recent samples for memory reporting.
    last_sample_bytes: AtomicUsize,
}

impl<'a> SamplingEstimator<'a> {
    /// Create with sampling rate `rate` (the paper uses `0.001`).
    pub fn new(db: &'a Database, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        SamplingEstimator {
            db,
            rate,
            base_seed: seed,
            counter: AtomicU64::new(0),
            last_sample_bytes: AtomicUsize::new(0),
        }
    }

    fn next_seed(&self) -> u64 {
        let c = self.counter.fetch_add(1, Ordering::Relaxed);
        self.base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(c)
    }

    /// Sampled qualifying rows of one table under the query's predicates.
    fn sample_table(&self, query: &Query, table: qfe_core::TableId) -> Vec<u32> {
        let t = self.db.table(table);
        let sample = BernoulliSample::draw(t.row_count(), self.rate, self.next_seed());
        self.last_sample_bytes
            .fetch_add(sample.memory_bytes(), Ordering::Relaxed);
        let preds: Vec<&CompoundPredicate> = query
            .predicates
            .iter()
            .filter(|cp| cp.column.table == table)
            .collect();
        sample
            .rows()
            .iter()
            .copied()
            .filter(|&r| row_matches(t, &preds, r as usize))
            .collect()
    }
}

impl CardinalityEstimator for SamplingEstimator<'_> {
    fn name(&self) -> String {
        "sampling".into()
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.last_sample_bytes.store(0, Ordering::Relaxed);
        let tables = query.sub_schema();
        if tables.len() == 1 {
            let qualifying = self.sample_table(query, tables.tables()[0]).len();
            return (qualifying as f64 / self.rate).max(1.0);
        }
        // Join estimation: join the per-table samples along the join tree
        // (tree-shaped queries only, like the counting oracle) and scale by
        // p^{-k}.
        let sampled: Vec<(qfe_core::TableId, Vec<u32>)> = tables
            .tables()
            .iter()
            .map(|&t| (t, self.sample_table(query, t)))
            .collect();
        // Count the sampled join with per-key count maps, rooted at the
        // first table.
        let root = tables.tables()[0];
        let mut visited = vec![root];
        let count = self.count_sampled(query, &sampled, root, None, &mut visited);
        let scale = self.rate.powi(tables.len() as i32);
        (count as f64 / scale).max(1.0)
    }

    fn memory_bytes(&self) -> usize {
        self.last_sample_bytes.load(Ordering::Relaxed)
    }
}

impl SamplingEstimator<'_> {
    fn count_sampled(
        &self,
        query: &Query,
        sampled: &[(qfe_core::TableId, Vec<u32>)],
        table: qfe_core::TableId,
        parent_key_col: Option<qfe_core::ColumnId>,
        visited: &mut Vec<qfe_core::TableId>,
    ) -> u64 {
        let t = self.db.table(table);
        // A table missing from the sample set contributes no rows — an
        // empty count, not a panic (the caller samples every query table,
        // so this is defensive).
        let Some((_, rows)) = sampled.iter().find(|(tt, _)| *tt == table) else {
            return 0;
        };
        // Children maps: key → combination count.
        let mut children: Vec<(qfe_core::ColumnId, std::collections::HashMap<i64, u64>)> =
            Vec::new();
        for j in &query.joins {
            let (my_col, other) = if j.left.table == table && !visited.contains(&j.right.table) {
                (j.left.column, j.right)
            } else if j.right.table == table && !visited.contains(&j.left.table) {
                (j.right.column, j.left)
            } else {
                continue;
            };
            visited.push(other.table);
            let sub = self.count_sampled_map(query, sampled, other.table, other.column, visited);
            children.push((my_col, sub));
        }
        let mut total = 0u64;
        for &r in rows {
            let mut mult = 1u64;
            for (col, map) in &children {
                let key = t.column(*col).get_i64(r as usize);
                match map.get(&key) {
                    Some(&c) => mult *= c,
                    None => {
                        mult = 0;
                        break;
                    }
                }
            }
            let _ = parent_key_col;
            total += mult;
        }
        total
    }

    fn count_sampled_map(
        &self,
        query: &Query,
        sampled: &[(qfe_core::TableId, Vec<u32>)],
        table: qfe_core::TableId,
        key_col: qfe_core::ColumnId,
        visited: &mut Vec<qfe_core::TableId>,
    ) -> std::collections::HashMap<i64, u64> {
        let t = self.db.table(table);
        // Defensive, as in `count_sampled`: missing table → empty map.
        let Some((_, rows)) = sampled.iter().find(|(tt, _)| *tt == table) else {
            return std::collections::HashMap::new();
        };
        let mut children: Vec<(qfe_core::ColumnId, std::collections::HashMap<i64, u64>)> =
            Vec::new();
        for j in &query.joins {
            let (my_col, other) = if j.left.table == table && !visited.contains(&j.right.table) {
                (j.left.column, j.right)
            } else if j.right.table == table && !visited.contains(&j.left.table) {
                (j.right.column, j.left)
            } else {
                continue;
            };
            visited.push(other.table);
            let sub = self.count_sampled_map(query, sampled, other.table, other.column, visited);
            children.push((my_col, sub));
        }
        let mut out = std::collections::HashMap::new();
        for &r in rows {
            let mut mult = 1u64;
            for (col, map) in &children {
                let key = t.column(*col).get_i64(r as usize);
                match map.get(&key) {
                    Some(&c) => mult *= c,
                    None => {
                        mult = 0;
                        break;
                    }
                }
            }
            if mult > 0 {
                let key = t.column(key_col).get_i64(r as usize);
                *out.entry(key).or_insert(0) += mult;
            }
        }
        out
    }
}

/// Kept public for benches: a sampled two-table join count via an explicit
/// hash join, cross-checking the count-map path.
pub fn sampled_two_way_join_count(
    db: &Database,
    left_rows: &[u32],
    right_rows: &[u32],
    join: &qfe_core::query::JoinPredicate,
) -> u64 {
    let left_col = db.table(join.left.table).column(join.left.column);
    let right_col = db.table(join.right.table).column(join.right.column);
    let ht = HashJoinTable::build(left_rows.iter().map(|&r| left_col.get_i64(r as usize)));
    right_rows
        .iter()
        .map(|&r| ht.probe_count(right_col.get_i64(r as usize)) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::predicate::{CmpOp, SimplePredicate};
    use qfe_core::query::{ColumnRef, JoinPredicate};
    use qfe_core::{ColumnId, TableId};
    use qfe_data::table::{ForeignKey, Table};
    use qfe_data::Column;
    use qfe_exec::true_cardinality;

    fn db() -> Database {
        let a: Vec<i64> = (0..100_000).map(|i| i % 1000).collect();
        Database::new(
            vec![Table::new("t", vec![("a".into(), Column::Int(a))])],
            &[],
        )
    }

    #[test]
    fn unselective_predicate_is_estimated_well() {
        let db = db();
        let est = SamplingEstimator::new(&db, 0.01, 7);
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Lt, 500)],
            )],
        );
        let truth = true_cardinality(&db, &q).unwrap() as f64; // 50 000
        let e = est.estimate(&q);
        let q_err = (truth / e).max(e / truth);
        assert!(q_err < 1.2, "q-error {q_err}");
    }

    #[test]
    fn selective_predicate_has_large_error_risk() {
        // The paper's known sampling weakness: selective predicates.
        // With rate 0.001 and a truth of ~10 rows the sample usually holds
        // 0 of them, giving estimate 1 (max q-error = truth).
        let db = db();
        let est = SamplingEstimator::new(&db, 0.001, 7);
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(0)),
                vec![
                    SimplePredicate::new(CmpOp::Ge, 0),
                    SimplePredicate::new(CmpOp::Lt, 1),
                ],
            )],
        );
        let truth = true_cardinality(&db, &q).unwrap() as f64; // 100
        let mut worst: f64 = 1.0;
        for _ in 0..20 {
            let e = est.estimate(&q);
            worst = worst.max((truth / e).max(e / truth));
        }
        assert!(worst > 3.0, "expected tail errors, worst {worst}");
    }

    #[test]
    fn estimates_vary_per_query_draw() {
        let db = db();
        let est = SamplingEstimator::new(&db, 0.001, 7);
        let q = Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Lt, 100)],
            )],
        );
        let estimates: Vec<f64> = (0..5).map(|_| est.estimate(&q)).collect();
        assert!(
            estimates.windows(2).any(|w| w[0] != w[1]),
            "independent per-query samples should differ: {estimates:?}"
        );
    }

    fn join_db() -> Database {
        let dim = Table::new("dim", vec![("id".into(), Column::Int((0..1000).collect()))]);
        let fact = Table::new(
            "fact",
            vec![(
                "dim_id".into(),
                Column::Int((0..50_000).map(|i| i % 1000).collect()),
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

    #[test]
    fn join_estimate_is_unbiased_at_high_rate() {
        let db = join_db();
        let est = SamplingEstimator::new(&db, 0.2, 3);
        let q = Query {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![JoinPredicate {
                left: ColumnRef::new(TableId(1), ColumnId(0)),
                right: ColumnRef::new(TableId(0), ColumnId(0)),
            }],
            predicates: vec![],
        };
        let truth = true_cardinality(&db, &q).unwrap() as f64; // 50 000
        let mean: f64 = (0..10).map(|_| est.estimate(&q)).sum::<f64>() / 10.0;
        let q_err = (truth / mean).max(mean / truth);
        assert!(q_err < 1.5, "q-error of mean {q_err} ({mean} vs {truth})");
    }

    #[test]
    fn hash_join_cross_check() {
        let db = join_db();
        let left: Vec<u32> = (0..1000).collect();
        let right: Vec<u32> = (0..50_000).collect();
        let join = JoinPredicate {
            left: ColumnRef::new(TableId(0), ColumnId(0)),
            right: ColumnRef::new(TableId(1), ColumnId(0)),
        };
        assert_eq!(
            sampled_two_way_join_count(&db, &left, &right, &join),
            50_000
        );
    }

    #[test]
    fn memory_reflects_last_samples() {
        let db = db();
        let est = SamplingEstimator::new(&db, 0.01, 1);
        let q = Query::single_table(TableId(0), vec![]);
        let _ = est.estimate(&q);
        assert!(est.memory_bytes() > 0);
        assert_eq!(est.name(), "sampling");
    }
}
