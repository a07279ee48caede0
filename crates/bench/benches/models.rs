//! Criterion micro-benchmarks of the ML substrate: forward-pass latency
//! of trained GB / NN models and GBDT training throughput, including a
//! fit shaped like the drift-retraining step (a few hundred feedback
//! rows of complex-QFT features).

use criterion::{criterion_group, criterion_main, Criterion};

use qfe_ml::gbdt::{Gbdt, GbdtConfig};
use qfe_ml::matrix::Matrix;
use qfe_ml::mlp::{Mlp, MlpConfig};
use qfe_ml::train::Regressor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_data(n: usize, dim: usize) -> (Matrix, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        y.push(row.iter().sum::<f32>() / dim as f32);
        rows.push(row);
    }
    (Matrix::from_rows(&rows), y)
}

fn bench_forward_pass(c: &mut Criterion) {
    let (x, y) = make_data(2000, 128);
    let mut gb = Gbdt::new(GbdtConfig {
        n_trees: 60,
        ..GbdtConfig::default()
    });
    gb.fit(&x, &y);
    let mut nn = Mlp::new(MlpConfig {
        hidden: vec![64, 64],
        epochs: 3,
        ..MlpConfig::default()
    });
    nn.fit(&x, &y);

    let mut group = c.benchmark_group("forward_pass");
    let sample = x.row(7).to_vec();
    group.bench_function("gbdt_single", |b| {
        b.iter(|| std::hint::black_box(gb.predict(&sample)))
    });
    group.bench_function("mlp_single", |b| {
        b.iter(|| std::hint::black_box(nn.predict(&sample)))
    });
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    let (x, y) = make_data(1000, 64);
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.bench_function("gbdt_20_trees", |b| {
        b.iter(|| {
            let mut gb = Gbdt::new(GbdtConfig {
                n_trees: 20,
                ..GbdtConfig::default()
            });
            gb.fit(&x, &y);
            std::hint::black_box(gb.tree_count())
        })
    });
    // The retrain-drift adaptation step's fit: 192 rows × 138 features,
    // 128 of them complex-QFT-like values in {0, ½, 1} and 10 continuous,
    // at the benchmark's `min_samples_leaf` 3 / `max_leaves` 64.
    let (x, y) = make_retrain_data(192, 128, 10);
    group.bench_function("gbdt_20_trees_retrain_shape", |b| {
        b.iter(|| {
            let mut gb = Gbdt::new(GbdtConfig {
                n_trees: 20,
                min_samples_leaf: 3,
                max_leaves: 64,
                ..GbdtConfig::default()
            });
            gb.fit(&x, &y);
            std::hint::black_box(gb.tree_count())
        })
    });
    group.finish();
}

/// `n` rows of `discrete` columns in {0, ½, 1} followed by `continuous`
/// columns in [0, 1), with a target that mixes both kinds.
fn make_retrain_data(n: usize, discrete: usize, continuous: usize) -> (Matrix, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row: Vec<f32> = (0..discrete)
            .map(|_| rng.gen_range(0..3u32) as f32 / 2.0)
            .collect();
        row.extend((0..continuous).map(|_| rng.gen::<f32>()));
        let d = row[..discrete.min(8)].iter().sum::<f32>();
        let c = row[discrete..].iter().sum::<f32>();
        y.push(d * c + 0.1 * d);
        rows.push(row);
    }
    (Matrix::from_rows(&rows), y)
}

criterion_group!(benches, bench_forward_pass, bench_training);
criterion_main!(benches);
