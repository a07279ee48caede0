//! Criterion micro-benchmarks of the batched execution path against its
//! singleton equivalent, at the three layers that grew a batch fast
//! path:
//!
//! * `featurize-batch` — per-query [`Featurizer::featurize`] (one
//!   allocation per query) vs the [`FeatureMatrix`] arena (one
//!   allocation per batch, `featurize_into` rows);
//! * `estimate-batch` — per-query `try_estimate` vs one
//!   `estimate_batch` (one featurize pass, one model forward);
//! * `serve-batch` — `EstimatorService::estimate_within` per query
//!   (admission, deadline bookkeeping, and a runner-thread hand-off per
//!   stage call) vs `estimate_batch_within` (all of that once per batch).
//!
//! The committed throughput record lives in `BENCH_batch.json`,
//! produced by the `bench_batch` binary; this bench is the precise
//! criterion view of the same comparison.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use qfe_bench::envs::ForestEnv;
use qfe_bench::trainers::{train_single_table, ModelKind, QftKind};
use qfe_bench::Scale;
use qfe_core::featurize::{AttributeSpace, FeatureMatrix, Featurizer};
use qfe_core::{CardinalityEstimator, Deadline, Query, TableId};
use qfe_serve::{EstimatorService, ServiceConfig, SharedEstimator};

const BATCH: usize = 64;

fn batch_of(queries: &[Query], n: usize) -> Vec<Query> {
    (0..n).map(|i| queries[i % queries.len()].clone()).collect()
}

fn bench_featurize_batch(c: &mut Criterion) {
    let scale = Scale::smoke();
    let env = ForestEnv::build(&scale);
    let space = AttributeSpace::for_table(env.db.catalog(), TableId(0));
    let featurizer = qfe_bench::trainers::make_featurizer(QftKind::Conjunctive, space, 64, true);
    let batch = batch_of(&env.conj_test.queries, BATCH);
    let mut group = c.benchmark_group("featurize-batch");
    group.bench_function("singleton-x64", |b| {
        b.iter(|| {
            for q in &batch {
                std::hint::black_box(featurizer.featurize(q).unwrap());
            }
        });
    });
    group.bench_function("arena-x64", |b| {
        b.iter(|| {
            let m = FeatureMatrix::build(featurizer.as_ref(), &batch);
            assert_eq!(m.ok_rows(), BATCH);
            std::hint::black_box(m)
        });
    });
    group.finish();
}

fn bench_estimate_batch(c: &mut Criterion) {
    let scale = Scale::smoke();
    let env = ForestEnv::build(&scale);
    let est = train_single_table(
        env.db.catalog(),
        TableId(0),
        &env.conj_train,
        QftKind::Conjunctive,
        ModelKind::Gb,
        &scale,
        true,
    );
    let batch = batch_of(&env.conj_test.queries, BATCH);
    let mut group = c.benchmark_group("estimate-batch");
    group.bench_function("singleton-x64", |b| {
        b.iter(|| {
            for q in &batch {
                std::hint::black_box(est.try_estimate(q).unwrap());
            }
        });
    });
    group.bench_function("batched-x64", |b| {
        b.iter(|| {
            let rows = est.estimate_batch(&batch);
            assert_eq!(rows.len(), BATCH);
            std::hint::black_box(rows)
        });
    });
    group.finish();
}

fn bench_serve_batch(c: &mut Criterion) {
    let scale = Scale::smoke();
    let env = ForestEnv::build(&scale);
    let est = train_single_table(
        env.db.catalog(),
        TableId(0),
        &env.conj_train,
        QftKind::Conjunctive,
        ModelKind::Gb,
        &scale,
        true,
    );
    let svc = EstimatorService::new(
        vec![Arc::new(est) as SharedEstimator],
        ServiceConfig::default(),
    );
    let batch = batch_of(&env.conj_test.queries, BATCH);
    let budget = Duration::from_millis(100);
    let mut group = c.benchmark_group("serve-batch");
    group.bench_function("singleton-x64", |b| {
        b.iter(|| {
            for q in &batch {
                std::hint::black_box(svc.estimate_within(q, Deadline::within(budget)).unwrap());
            }
        });
    });
    group.bench_function("batched-x64", |b| {
        b.iter(|| {
            let rows = svc.estimate_batch_within(&batch, Deadline::within(budget));
            assert_eq!(rows.len(), BATCH);
            std::hint::black_box(rows)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_featurize_batch,
    bench_estimate_batch,
    bench_serve_batch
);
criterion_main!(benches);
