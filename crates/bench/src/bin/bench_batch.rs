//! Throughput record for the batched execution path: singleton vs
//! batched execution at batch size 64 on the forest conjunctive
//! workload, measured at the three layers that grew a batch fast path
//! (featurization arena, learned-estimator batch forward, batched
//! service walk). Writes the machine-readable record to
//! `BENCH_batch.json` (override with `QFE_BENCH_JSON`), prints the same
//! numbers as text, and exits non-zero if any batched layer is *slower*
//! than its singleton equivalent — the CI regression gate for this
//! path. Scale via `QFE_SCALE=smoke|small|full`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_bench::envs::ForestEnv;
use qfe_bench::trainers::{make_featurizer, train_single_table, ModelKind, QftKind};
use qfe_core::featurize::{AttributeSpace, BinnedFeatureMatrix, FeatureMatrix};
use qfe_core::{CardinalityEstimator, Deadline, Query, TableId};
use qfe_ml::gbdt::{Gbdt, GbdtConfig};
use qfe_ml::matrix::Matrix;
use qfe_ml::scaling::LogScaler;
use qfe_ml::train::Regressor;
use qfe_serve::{EstimatorService, ServiceConfig, SharedEstimator};

const BATCH: usize = 64;

/// Estimator-segment µs/query committed with the pre-compiled-inference
/// batch record (smoke scale, 1-core CI runner) — the fixed yardstick the
/// compiled pipeline is gated against, independent of run-to-run drift in
/// the freshly measured reference.
const COMMITTED_ESTIMATOR_BASELINE_US: f64 = 4.202;

/// One measured comparison: microseconds per query down each path.
struct Layer {
    name: &'static str,
    singleton_us: f64,
    batched_us: f64,
}

impl Layer {
    fn speedup(&self) -> f64 {
        self.singleton_us / self.batched_us
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"singleton_us_per_query\":{:.3},\"batched_us_per_query\":{:.3},\"speedup\":{:.2}}}",
            self.singleton_us,
            self.batched_us,
            self.speedup()
        )
    }
}

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

fn main() {
    let scale = qfe_bench::Scale::from_env();
    eprintln!("building forest environment at scale '{}'…", scale.label);
    let env = ForestEnv::build(&scale);
    let budget = Duration::from_millis(300);
    let batch: Vec<Query> = (0..BATCH)
        .map(|i| env.conj_test.queries[i % env.conj_test.queries.len()].clone())
        .collect();

    // Layer 1: featurization — per-query allocation vs the arena.
    let space = AttributeSpace::for_table(env.db.catalog(), TableId(0));
    let featurizer = make_featurizer(QftKind::Conjunctive, space, 64, true);
    let feat = Layer {
        name: "featurize",
        singleton_us: measure(BATCH, budget, || {
            for q in &batch {
                std::hint::black_box(featurizer.featurize(q).unwrap());
            }
        }),
        batched_us: measure(BATCH, budget, || {
            let m = FeatureMatrix::build(featurizer.as_ref(), &batch);
            assert_eq!(m.ok_rows(), BATCH);
            std::hint::black_box(m);
        }),
    };

    // Layer 2: the learned estimator — try_estimate vs estimate_batch.
    eprintln!("training GB × conjunctive on the forest workload…");
    let est = train_single_table(
        env.db.catalog(),
        TableId(0),
        &env.conj_train,
        QftKind::Conjunctive,
        ModelKind::Gb,
        &scale,
        true,
    );
    let estimator = Layer {
        name: "estimator",
        singleton_us: measure(BATCH, budget, || {
            for q in &batch {
                std::hint::black_box(est.try_estimate(q).unwrap());
            }
        }),
        batched_us: measure(BATCH, budget, || {
            let rows = est.estimate_batch(&batch);
            assert_eq!(rows.len(), BATCH);
            std::hint::black_box(rows);
        }),
    };

    // Layer 3: the serving front end — one admission + deadline walk +
    // runner hand-off per query vs one per batch.
    let svc = EstimatorService::new(
        vec![Arc::new(est) as SharedEstimator],
        ServiceConfig::default(),
    );
    let req_budget = Duration::from_millis(100);
    let serve = Layer {
        name: "serve",
        singleton_us: measure(BATCH, budget, || {
            for q in &batch {
                std::hint::black_box(
                    svc.estimate_within(q, Deadline::within(req_budget))
                        .unwrap(),
                );
            }
        }),
        batched_us: measure(BATCH, budget, || {
            let rows = svc.estimate_batch_within(&batch, Deadline::within(req_budget));
            assert_eq!(rows.len(), BATCH);
            std::hint::black_box(rows);
        }),
    };

    // Layer 2b: compiled inference inside the estimator segment — the
    // full reference pipeline (f32 arena → enum-tree walk → inverse
    // scaling) against the compiled pipeline (u16 binned arena →
    // flattened-forest walk → inverse scaling), on the same raw GB model.
    // The two must agree bit-for-bit (quantization contract); the
    // speedup is the tentpole number of the compiled-inference layer.
    eprintln!("training raw GB for the compiled-inference comparison…");
    let mut gb = Gbdt::new(GbdtConfig {
        n_trees: scale.gbdt_trees,
        min_samples_leaf: 3,
        max_leaves: 64,
        ..GbdtConfig::default()
    });
    let train_m = FeatureMatrix::build(featurizer.as_ref(), &env.conj_train.queries);
    let (rows, cols, data, _errs) = train_m.into_raw();
    let x_train = Matrix::from_vec(rows, cols, data);
    let scaler = LogScaler::fit(&env.conj_train.cardinalities).expect("labels scale");
    let y_train = scaler.transform_batch(&env.conj_train.cardinalities);
    gb.try_fit(&x_train, &y_train).expect("GB fit");
    let binner = gb.feature_binner().expect("trained GB compiles");
    {
        // Equivalence gate before timing anything: both pipelines must
        // produce bit-identical estimates on the bench batch.
        let (r, c, d, _) = FeatureMatrix::build(featurizer.as_ref(), &batch).into_raw();
        let reference = gb.predict_batch_reference(&Matrix::from_vec(r, c, d));
        let (br, _bc, bins, _) =
            BinnedFeatureMatrix::build(featurizer.as_ref(), binner, &batch).into_raw();
        let compiled = gb.predict_batch_binned(br, &bins).expect("binned path");
        assert_eq!(reference, compiled, "compiled pipeline diverged");
    }
    let estimator_compiled = Layer {
        name: "est-compiled",
        singleton_us: measure(BATCH, budget, || {
            let (r, c, d, _) = FeatureMatrix::build(featurizer.as_ref(), &batch).into_raw();
            let preds = gb.predict_batch_reference(&Matrix::from_vec(r, c, d));
            let out: Vec<f64> = preds.iter().map(|&p| scaler.inverse(p)).collect();
            assert_eq!(out.len(), BATCH);
            std::hint::black_box(out);
        }),
        batched_us: measure(BATCH, budget, || {
            let (r, _c, bins, _) =
                BinnedFeatureMatrix::build(featurizer.as_ref(), binner, &batch).into_raw();
            let preds = gb.predict_batch_binned(r, &bins).expect("binned path");
            let out: Vec<f64> = preds.iter().map(|&p| scaler.inverse(p)).collect();
            assert_eq!(out.len(), BATCH);
            std::hint::black_box(out);
        }),
    };

    let layers = [feat, estimator, serve];
    println!(
        "batched execution at batch {BATCH}, forest conjunctive workload ({}):",
        scale.label
    );
    for l in &layers {
        println!(
            "  {:<10} singleton {:>9.2} µs/query   batched {:>9.2} µs/query   speedup {:>5.2}×",
            l.name,
            l.singleton_us,
            l.batched_us,
            l.speedup()
        );
    }
    let vs_committed = COMMITTED_ESTIMATOR_BASELINE_US / estimator_compiled.batched_us;
    println!(
        "  {:<10} reference {:>9.2} µs/query   compiled {:>9.2} µs/query   speedup {:>5.2}×",
        estimator_compiled.name,
        estimator_compiled.singleton_us,
        estimator_compiled.batched_us,
        estimator_compiled.speedup()
    );
    println!(
        "  compiled vs committed {COMMITTED_ESTIMATOR_BASELINE_US} µs/query baseline: {vs_committed:>5.2}×"
    );
    // The headline number is the end-to-end serving layer: that is what
    // the micro-batcher amortizes per request.
    let headline = layers[2].speedup();
    let json = format!(
        "{{\"workload\":\"forest-conjunctive\",\"scale\":\"{}\",\"batch_size\":{},\"featurize\":{},\"estimator\":{},\"estimator_compiled\":{{\"reference_us_per_query\":{:.3},\"compiled_us_per_query\":{:.3},\"speedup\":{:.2},\"committed_baseline_us_per_query\":{COMMITTED_ESTIMATOR_BASELINE_US},\"speedup_vs_committed\":{vs_committed:.2}}},\"serve\":{},\"speedup\":{:.2}}}\n",
        scale.label,
        BATCH,
        layers[0].to_json(),
        layers[1].to_json(),
        estimator_compiled.singleton_us,
        estimator_compiled.batched_us,
        estimator_compiled.speedup(),
        layers[2].to_json(),
        headline
    );
    let path = std::env::var("QFE_BENCH_JSON").unwrap_or_else(|_| "BENCH_batch.json".into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    let mut failed = false;
    for l in &layers {
        if l.speedup() < 1.0 {
            eprintln!(
                "REGRESSION: batched {} path is slower than singleton ({:.2}×)",
                l.name,
                l.speedup()
            );
            failed = true;
        }
    }
    if estimator_compiled.speedup() < 1.0 {
        eprintln!(
            "REGRESSION: compiled estimator pipeline is slower than the reference ({:.2}×)",
            estimator_compiled.speedup()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
