//! Compiled-inference smoke gate: stage-by-stage timing of the estimator
//! hot path plus the hard equivalence gates for the compiled layer.
//!
//! Stages measured (µs/query, batch 64, forest conjunctive workload):
//!
//! * `featurize` — `f32` arena build alone.
//! * `featurize_binned` — `u16` binned arena build alone (featurize +
//!   quantize; the delta against `featurize` is the binning cost).
//! * `quantize` — binning a prebuilt `f32` matrix alone.
//! * `walk_reference` — enum-tree GBDT walk over a prebuilt `f32` matrix.
//! * `walk_binned` — flattened-forest walk over prebuilt `u16` bins (an
//!   `f32` row's prediction costs `quantize` + `walk_binned`).
//! * `pipeline_reference` / `pipeline_compiled` — the full arena → model
//!   → inverse-scaling pipelines the estimator batch path composes.
//! * `mlp_reference` / `mlp_compiled` — MLP forward, matmul reference vs
//!   compiled scratch kernels (SIMD if the host has AVX2+FMA).
//! * `complex_featurize` / `complex_featurize_binned` — the two arena
//!   builds again, for the complex QFT (Algorithm 2) on the forest mixed
//!   workload, binned by a GB model trained on it.
//!
//! Hard gates (non-zero exit):
//!
//! * GBDT compiled predictions — over prebuilt bins and through
//!   `predict_batch` on `f32` rows — must be **bit-identical** to the
//!   reference walk.
//! * The complex QFT's fused featurize-and-bin path must give, on every
//!   mixed test query, exactly the bins of featurize-then-`bin_row`.
//! * MLP compiled predictions must match the reference within 1e-4
//!   relative tolerance.
//! * Neither compiled pipeline may be slower than its reference.
//!
//! Writes `BENCH_inference.json` (override with `QFE_BENCH_JSON`).

use std::time::{Duration, Instant};

use qfe_bench::envs::ForestEnv;
use qfe_bench::trainers::{make_featurizer, QftKind};
use qfe_core::featurize::{
    AttributeSpace, BinnedFeatureMatrix, FeatureBinner, FeatureMatrix, Featurizer,
};
use qfe_core::{Query, TableId};
use qfe_ml::gbdt::{Gbdt, GbdtConfig};
use qfe_ml::matrix::Matrix;
use qfe_ml::mlp::{Mlp, MlpConfig};
use qfe_ml::scaling::LogScaler;
use qfe_ml::train::Regressor;
use qfe_ml::{fma_available, mlp_simd_active};

const BATCH: usize = 64;

/// Run `f` (which processes `per_iter` queries) repeatedly for at least
/// `budget`, after one warmup call; returns microseconds per query.
fn measure(per_iter: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut iters = 0u64;
    while started.elapsed() < budget {
        f();
        iters += 1;
    }
    let total = started.elapsed().as_secs_f64() * 1e6;
    total / (iters as f64 * per_iter as f64)
}

/// Train the GB configuration measured here; returns the model, its
/// training matrix, the label scaler and the scaled labels.
fn train_gb(
    featurizer: &dyn Featurizer,
    queries: &[Query],
    cardinalities: &[f64],
    n_trees: usize,
) -> (Gbdt, Matrix, LogScaler, Vec<f32>) {
    let mut gb = Gbdt::new(GbdtConfig {
        n_trees,
        min_samples_leaf: 3,
        max_leaves: 64,
        ..GbdtConfig::default()
    });
    let (rows, cols, data, _) = FeatureMatrix::build(featurizer, queries).into_raw();
    let x_train = Matrix::from_vec(rows, cols, data);
    let scaler = LogScaler::fit(cardinalities).expect("labels scale");
    let y_train = scaler.transform_batch(cardinalities);
    gb.try_fit(&x_train, &y_train).expect("GB fit");
    (gb, x_train, scaler, y_train)
}

/// Queries whose fused featurize-and-bin output differs from the default
/// featurize-then-`bin_row` composition (value or error).
fn fused_bin_mismatches(
    featurizer: &dyn Featurizer,
    binner: &FeatureBinner,
    queries: &[Query],
) -> usize {
    let dim = featurizer.dim();
    let (mut row, mut scratch) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    let (mut composed, mut fused) = (vec![0u16; dim], vec![0u16; dim]);
    queries
        .iter()
        .filter(|query| {
            let a = featurizer
                .featurize_into(query, &mut row)
                .map(|()| binner.bin_row(&row, &mut composed));
            let b = featurizer.featurize_binned_into(query, binner, &mut scratch, &mut fused);
            a != b || (a.is_ok() && composed != fused)
        })
        .count()
}

fn main() {
    let scale = qfe_bench::Scale::from_env();
    eprintln!("building forest environment at scale '{}'…", scale.label);
    let env = ForestEnv::build(&scale);
    let budget = Duration::from_millis(200);
    let batch: Vec<Query> = (0..BATCH)
        .map(|i| env.conj_test.queries[i % env.conj_test.queries.len()].clone())
        .collect();

    let space = AttributeSpace::for_table(env.db.catalog(), TableId(0));
    let featurizer = make_featurizer(QftKind::Conjunctive, space.clone(), 64, true);

    eprintln!("training GB on the forest workload…");
    let (gb, x_train, scaler, y_train) = train_gb(
        featurizer.as_ref(),
        &env.conj_train.queries,
        &env.conj_train.cardinalities,
        scale.gbdt_trees,
    );
    let binner = gb.feature_binner().expect("trained GB compiles");
    let active = (0..binner.features())
        .filter(|&f| !binner.cuts(f).is_empty())
        .count();
    let total_cuts: usize = (0..binner.features()).map(|f| binner.cuts(f).len()).sum();
    let max_cuts = (0..binner.features())
        .map(|f| binner.cuts(f).len())
        .max()
        .unwrap_or(0);
    let by_count = |lo: usize, hi: usize| {
        (0..binner.features())
            .filter(|&f| (lo..=hi).contains(&binner.cuts(f).len()))
            .count()
    };
    eprintln!(
        "binner: {} features, {active} with cuts ({} one, {} two, {} more), {total_cuts} cuts total (max {max_cuts})",
        binner.features(),
        by_count(1, 1),
        by_count(2, 2),
        by_count(3, usize::MAX),
    );

    // Prebuilt arenas for the walk-only stages.
    let (r, c, d, _) = FeatureMatrix::build(featurizer.as_ref(), &batch).into_raw();
    let x_batch = Matrix::from_vec(r, c, d);
    let (bin_rows, _bc, bins, _) =
        BinnedFeatureMatrix::build(featurizer.as_ref(), binner, &batch).into_raw();

    // ── Equivalence gates first: timing a wrong answer is worthless. ──
    let reference = gb.predict_batch_reference(&x_batch);
    let quantized = gb.predict_batch(&x_batch);
    let compiled_binned = gb
        .predict_batch_binned(bin_rows, &bins)
        .expect("binned path");
    if reference != quantized {
        eprintln!("GATE FAILED: quantize + binned walk diverged from the reference");
        std::process::exit(1);
    }
    if reference != compiled_binned {
        eprintln!("GATE FAILED: compiled binned walk diverged from the reference");
        std::process::exit(1);
    }
    eprintln!(
        "equivalence gate: {} predictions bit-identical: reference, quantize + binned walk, prebuilt bins",
        reference.len()
    );

    eprintln!("training MLP for the kernel comparison…");
    let mut mlp = Mlp::new(MlpConfig {
        hidden: vec![scale.nn_hidden, scale.nn_hidden],
        epochs: scale.nn_epochs.min(10),
        ..MlpConfig::default()
    });
    mlp.try_fit(&x_train, &y_train).expect("MLP fit");
    let mlp_ref = mlp.predict_batch_reference(&x_batch);
    let mlp_compiled = mlp.predict_batch(&x_batch);
    for (i, (&a, &b)) in mlp_ref.iter().zip(&mlp_compiled).enumerate() {
        let tol = 1e-4f32 * a.abs().max(1.0);
        if (a - b).abs() > tol {
            eprintln!("GATE FAILED: MLP row {i}: reference {a} vs compiled {b}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "MLP gate: {} predictions within 1e-4 relative (simd {})",
        mlp_ref.len(),
        if mlp_simd_active() { "on" } else { "off" }
    );

    // ── Stage timings. ──
    let featurize = measure(BATCH, budget, || {
        let m = FeatureMatrix::build(featurizer.as_ref(), &batch);
        assert_eq!(m.ok_rows(), BATCH);
        std::hint::black_box(m);
    });
    let featurize_binned = measure(BATCH, budget, || {
        let m = BinnedFeatureMatrix::build(featurizer.as_ref(), binner, &batch);
        assert_eq!(m.ok_rows(), BATCH);
        std::hint::black_box(m);
    });
    let quantize = {
        let mut scratch_bins = vec![0u16; bins.len()];
        let data = x_batch.data().to_vec();
        measure(BATCH, budget, move || {
            binner.bin_matrix(&data, &mut scratch_bins);
            std::hint::black_box(&mut scratch_bins);
        })
    };
    let walk_reference = measure(BATCH, budget, || {
        std::hint::black_box(gb.predict_batch_reference(&x_batch));
    });
    let walk_binned = measure(BATCH, budget, || {
        std::hint::black_box(gb.predict_batch_binned(bin_rows, &bins).expect("binned"));
    });
    let pipeline_reference = measure(BATCH, budget, || {
        let (r, c, d, _) = FeatureMatrix::build(featurizer.as_ref(), &batch).into_raw();
        let preds = gb.predict_batch_reference(&Matrix::from_vec(r, c, d));
        let out: Vec<f64> = preds.iter().map(|&p| scaler.inverse(p)).collect();
        std::hint::black_box(out);
    });
    let pipeline_compiled = measure(BATCH, budget, || {
        let (r, _c, bins, _) =
            BinnedFeatureMatrix::build(featurizer.as_ref(), binner, &batch).into_raw();
        let preds = gb.predict_batch_binned(r, &bins).expect("binned");
        let out: Vec<f64> = preds.iter().map(|&p| scaler.inverse(p)).collect();
        std::hint::black_box(out);
    });
    let mlp_reference = measure(BATCH, budget, || {
        std::hint::black_box(mlp.predict_batch_reference(&x_batch));
    });
    let mlp_compiled_us = measure(BATCH, budget, || {
        std::hint::black_box(mlp.predict_batch(&x_batch));
    });

    // ── The complex QFT on the mixed workload: gate, then the arenas. ──
    let complex = make_featurizer(QftKind::Complex, space, 64, true);
    eprintln!("training GB on the forest mixed workload…");
    let (gb_complex, ..) = train_gb(
        complex.as_ref(),
        &env.mixed_train.queries,
        &env.mixed_train.cardinalities,
        scale.gbdt_trees,
    );
    let complex_binner = gb_complex.feature_binner().expect("trained GB compiles");
    let mismatches =
        fused_bin_mismatches(complex.as_ref(), complex_binner, &env.mixed_test.queries);
    if mismatches > 0 {
        eprintln!("GATE FAILED: complex fused bins diverged from featurize-then-bin on {mismatches} queries");
        std::process::exit(1);
    }
    eprintln!(
        "complex gate: fused bins equal featurize-then-bin on {} mixed queries",
        env.mixed_test.queries.len()
    );
    let mixed_batch: Vec<Query> = (0..BATCH)
        .map(|i| env.mixed_test.queries[i % env.mixed_test.queries.len()].clone())
        .collect();
    let complex_featurize = measure(BATCH, budget, || {
        let m = FeatureMatrix::build(complex.as_ref(), &mixed_batch);
        assert_eq!(m.ok_rows(), BATCH);
        std::hint::black_box(m);
    });
    let complex_featurize_binned = measure(BATCH, budget, || {
        let m = BinnedFeatureMatrix::build(complex.as_ref(), complex_binner, &mixed_batch);
        assert_eq!(m.ok_rows(), BATCH);
        std::hint::black_box(m);
    });

    let gbdt_speedup = pipeline_reference / pipeline_compiled;
    let mlp_speedup = mlp_reference / mlp_compiled_us;
    println!(
        "compiled inference, batch {BATCH}, scale '{}':",
        scale.label
    );
    println!("  featurize          {featurize:>9.2} µs/query");
    println!("  featurize+bin      {featurize_binned:>9.2} µs/query");
    println!("  quantize only      {quantize:>9.2} µs/query");
    println!("  walk reference     {walk_reference:>9.2} µs/query");
    println!("  walk binned        {walk_binned:>9.2} µs/query");
    println!("  pipeline reference {pipeline_reference:>9.2} µs/query");
    println!(
        "  pipeline compiled  {pipeline_compiled:>9.2} µs/query   speedup {gbdt_speedup:>5.2}×"
    );
    println!("  mlp reference      {mlp_reference:>9.2} µs/query");
    println!("  mlp compiled       {mlp_compiled_us:>9.2} µs/query   speedup {mlp_speedup:>5.2}×");
    println!("  complex featurize  {complex_featurize:>9.2} µs/query   (forest mixed)");
    println!("  complex feat+bin   {complex_featurize_binned:>9.2} µs/query   (forest mixed)");

    // Timings are only comparable across runs on similar hardware; the
    // record names the host it was taken on.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let environment = format!(
        "{cores}-core host: µs/query timings are comparable only across runs on this class of machine; the equivalence gates are hardware-independent"
    );

    let json = format!(
        "{{\"workload\":\"forest-conjunctive\",\"scale\":\"{}\",\"batch_size\":{BATCH},\
\"cores\":{cores},\"environment\":\"{environment}\",\"fma\":{},\"simd_active\":{},\
\"featurize_us\":{featurize:.3},\"featurize_binned_us\":{featurize_binned:.3},\"quantize_us\":{quantize:.3},\
\"walk_reference_us\":{walk_reference:.3},\"walk_binned_us\":{walk_binned:.3},\
\"pipeline_reference_us\":{pipeline_reference:.3},\"pipeline_compiled_us\":{pipeline_compiled:.3},\"gbdt_speedup\":{gbdt_speedup:.2},\
\"mlp_reference_us\":{mlp_reference:.3},\"mlp_compiled_us\":{mlp_compiled_us:.3},\"mlp_speedup\":{mlp_speedup:.2},\
\"complex_workload\":\"forest-mixed\",\"complex_featurize_us\":{complex_featurize:.3},\"complex_featurize_binned_us\":{complex_featurize_binned:.3}}}\n",
        scale.label,
        fma_available(),
        mlp_simd_active(),
    );
    let path = std::env::var("QFE_BENCH_JSON").unwrap_or_else(|_| "BENCH_inference.json".into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    let mut failed = false;
    if gbdt_speedup < 1.0 {
        eprintln!("REGRESSION: compiled GBDT pipeline slower than reference ({gbdt_speedup:.2}×)");
        failed = true;
    }
    if mlp_speedup < 1.0 {
        eprintln!("REGRESSION: compiled MLP forward slower than reference ({mlp_speedup:.2}×)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
