//! Throughput record for the batched execution path: singleton vs
//! batched execution at batch size 64 on the forest conjunctive
//! workload, measured at the three layers that grew a batch fast path
//! (featurization arena, learned-estimator batch forward, batched
//! service walk), plus the serving overhead a singleton request pays
//! over the bare estimator, through the service and through an idle
//! `MicroBatcher`, and one `MicroBatcher` loaded by many more submitting
//! threads than it has dispatch slots (throughput, mean batch size and
//! context switches per request). Writes the machine-readable record to
//! `BENCH_batch.json` (override with `QFE_BENCH_JSON`), prints the same
//! numbers as text, and exits non-zero if any batched layer is *slower*
//! than its singleton equivalent — the CI regression gate for this
//! path. Scale via `QFE_SCALE=smoke|small|full`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qfe_bench::envs::ForestEnv;
use qfe_bench::trainers::{make_featurizer, train_single_table, ModelKind, QftKind};
use qfe_core::featurize::{AttributeSpace, BinnedFeatureMatrix, FeatureMatrix};
use qfe_core::{CardinalityEstimator, Deadline, Query, TableId};
use qfe_ml::gbdt::{Gbdt, GbdtConfig};
use qfe_ml::matrix::Matrix;
use qfe_ml::scaling::LogScaler;
use qfe_ml::train::Regressor;
use qfe_serve::{EstimatorService, MicroBatcher, ServiceConfig, SharedEstimator};

const BATCH: usize = 64;

/// Estimator-segment µs/query committed with the pre-compiled-inference
/// batch record (smoke scale, 1-core CI runner) — the fixed yardstick the
/// compiled pipeline is gated against, independent of run-to-run drift in
/// the freshly measured reference.
const COMMITTED_ESTIMATOR_BASELINE_US: f64 = 4.202;

/// Submitting threads of the loaded batcher row: eight times the default
/// two dispatch slots, so requests pile up and batches form.
const LOADED_SUBMITTERS: usize = 16;

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

/// A `MicroBatcher` under load: `LOADED_SUBMITTERS` threads submitting
/// singletons back to back.
struct Loaded {
    /// Wall time over requests answered: the inverse of throughput.
    us_per_query: f64,
    /// Rows per service drain.
    mean_batch: f64,
    /// Voluntary and involuntary switches of every live thread, per
    /// request (`None` off Linux).
    ctx_switches_per_request: Option<f64>,
    /// Requests that came back with an error.
    failed: u64,
}

impl Loaded {
    fn to_json(&self) -> String {
        let ctx = self
            .ctx_switches_per_request
            .map_or("null".into(), |c| format!("{c:.2}"));
        format!(
            "{{\"submitters\":{LOADED_SUBMITTERS},\"us_per_query\":{:.3},\"mean_batch_size\":{:.2},\"ctx_switches_per_request\":{ctx},\"failed\":{}}}",
            self.us_per_query, self.mean_batch, self.failed
        )
    }
}

/// Context switches so far of every live thread of this process, from
/// `/proc/self/task/*/status`; `None` where that is unavailable.
fn ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        for line in status.lines() {
            if let Some(n) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += n.trim().parse::<u64>().ok()?;
            }
        }
    }
    Some(total)
}

/// Drive `batcher` from `LOADED_SUBMITTERS` threads for `budget`. The
/// threads stay alive across both context-switch readings, so none of
/// their switches is lost with an exited thread.
fn measure_loaded(
    batcher: &MicroBatcher,
    queries: &[Query],
    budget: Duration,
    req_budget: Duration,
) -> Loaded {
    let barrier = Barrier::new(LOADED_SUBMITTERS + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..LOADED_SUBMITTERS)
            .map(|t| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    barrier.wait();
                    barrier.wait();
                    for q in queries.iter().cycle().skip(t) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        match batcher.submit_within(q, Deadline::within(req_budget)) {
                            Ok(e) => {
                                std::hint::black_box(e);
                                ok += 1;
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    barrier.wait();
                    barrier.wait();
                    (ok, failed)
                })
            })
            .collect();
        let svc = batcher.service();
        barrier.wait();
        let (before_ctx, before) = (ctx_switches(), svc.stats());
        let started = Instant::now();
        barrier.wait();
        std::thread::sleep(budget);
        stop.store(true, Ordering::Relaxed);
        barrier.wait();
        let elapsed = started.elapsed();
        let (after_ctx, after) = (ctx_switches(), svc.stats());
        barrier.wait();
        let (ok, failed) = workers
            .into_iter()
            .map(|w| w.join().expect("submitter thread"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
        let requests = (ok + failed).max(1) as f64;
        let drains = (after.batch_drains - before.batch_drains).max(1) as f64;
        Loaded {
            us_per_query: elapsed.as_secs_f64() * 1e6 / ok.max(1) as f64,
            mean_batch: (after.batched_requests - before.batched_requests) as f64 / drains,
            ctx_switches_per_request: before_ctx
                .zip(after_ctx)
                .map(|(b, a)| a.saturating_sub(b) as f64 / requests),
            failed,
        }
    })
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
    let svc = Arc::new(EstimatorService::new(
        vec![Arc::new(est) as SharedEstimator],
        ServiceConfig::default(),
    ));
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

    // Layer 3b: a singleton request through an idle micro-batcher — the
    // submitting thread dispatches its own batch of one.
    let batcher = MicroBatcher::new(Arc::clone(&svc));
    let batcher_us = measure(BATCH, budget, || {
        for q in &batch {
            std::hint::black_box(
                batcher
                    .submit_within(q, Deadline::within(req_budget))
                    .unwrap(),
            );
        }
    });

    // Layer 3c: the same batcher loaded by many more submitting threads
    // than dispatch slots — the regime micro-batching exists for.
    let loaded = measure_loaded(&batcher, &batch, Duration::from_secs(1), req_budget);

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
    // What serving costs a singleton request on top of the estimator.
    let estimator_us = layers[1].singleton_us;
    let serve_overhead = layers[2].singleton_us - estimator_us;
    let batcher_overhead = batcher_us - estimator_us;
    println!(
        "serving overhead over the bare estimator ({estimator_us:.2} µs/query), forest conjunctive workload ({}):",
        scale.label
    );
    println!("  service    {serve_overhead:>9.2} µs/query");
    println!("  batcher    {batcher_overhead:>9.2} µs/query");
    println!("batched execution at batch {BATCH}:");
    for l in &layers {
        println!(
            "  {:<10} singleton {:>9.2} µs/query   batched {:>9.2} µs/query   speedup {:>5.2}×",
            l.name,
            l.singleton_us,
            l.batched_us,
            l.speedup()
        );
    }
    println!("  {:<10} singleton {batcher_us:>9.2} µs/query", "batcher");
    println!(
        "  {:<10} {LOADED_SUBMITTERS} submitters {:>9.2} µs/query   mean batch {:>5.2}   ctx switches/request {}   failed {}",
        "loaded",
        loaded.us_per_query,
        loaded.mean_batch,
        loaded
            .ctx_switches_per_request
            .map_or("n/a".into(), |c| format!("{c:.2}")),
        loaded.failed
    );
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
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let environment = format!(
        "{cores}-core host: µs/query timings are comparable only across runs on this class of machine; the batched >= singleton gates are hardware-independent"
    );
    let json = format!(
        "{{\"workload\":\"forest-conjunctive\",\"scale\":\"{}\",\"batch_size\":{},\"cores\":{cores},\"environment\":\"{environment}\",\"overhead\":{{\"serve_minus_estimator_us_per_query\":{serve_overhead:.3},\"batcher_minus_estimator_us_per_query\":{batcher_overhead:.3}}},\"featurize\":{},\"estimator\":{},\"estimator_compiled\":{{\"reference_us_per_query\":{:.3},\"compiled_us_per_query\":{:.3},\"speedup\":{:.2},\"committed_baseline_us_per_query\":{COMMITTED_ESTIMATOR_BASELINE_US},\"speedup_vs_committed\":{vs_committed:.2}}},\"serve\":{},\"batcher\":{{\"singleton_us_per_query\":{batcher_us:.3}}},\"batcher_loaded\":{},\"speedup\":{:.2}}}\n",
        scale.label,
        BATCH,
        layers[0].to_json(),
        layers[1].to_json(),
        estimator_compiled.singleton_us,
        estimator_compiled.batched_us,
        estimator_compiled.speedup(),
        layers[2].to_json(),
        loaded.to_json(),
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
