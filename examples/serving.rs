//! Deadline-aware serving under chaos: circuit breakers, panic isolation,
//! load shedding, and validated hot model swap.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Builds an [`EstimatorService`] over a realistic stack — a hot-swappable
//! learned GBDT, a flaky histogram stage (typed errors, NaNs, *panics*),
//! and a fallback model that sometimes stalls past the whole request
//! budget — then hammers it from four threads on a
//! per-request time budget while a background thread retrains and swaps
//! the learned model (validating candidates first, including a corrupted
//! serialized artifact that must bounce off the checksum gate).

use std::sync::Arc;
use std::time::Duration;

use qfe::core::featurize::{AttributeSpace, UniversalConjunctionEncoding};
use qfe::core::{CardinalityEstimator, Deadline, TableId};
use qfe::data::forest::{generate_forest, ForestConfig};
use qfe::estimators::labels::label_queries;
use qfe::estimators::{BreakerConfig, LearnedEstimator, PostgresEstimator};
use qfe::ml::chaos::{ChaosEstimator, EstimatorFault};
use qfe::ml::gbdt::{Gbdt, GbdtConfig};
use qfe::ml::serialize::gbdt_to_bytes;
use qfe::ml::train::Regressor as _;
use qfe::serve::{
    decode_validated, install_quiet_panic_hook, EstimatorService, ModelSlot, ServeError,
    ServiceConfig, SharedEstimator, ShedPolicy,
};
use qfe::workload::{generate_conjunctive, generate_mixed, ConjunctiveConfig, MixedConfig};

fn train_learned(db: &qfe::data::table::Database, n_trees: usize, seed: u64) -> LearnedEstimator {
    let table = TableId(0);
    let space = AttributeSpace::for_table(db.catalog(), table);
    let mut learned = LearnedEstimator::new(
        Box::new(UniversalConjunctionEncoding::new(space, 8).expect("valid featurizer config")),
        Box::new(Gbdt::new(GbdtConfig {
            n_trees,
            ..GbdtConfig::default()
        })),
    );
    let train = label_queries(
        db,
        generate_conjunctive(db.catalog(), &ConjunctiveConfig::new(table, 300, seed)),
    );
    learned.fit(&train).expect("training");
    learned
}

fn main() {
    // Chaos-injected panics are part of the demo; keep stderr readable.
    install_quiet_panic_hook(vec![
        ChaosEstimator::<PostgresEstimator>::PANIC_MSG.to_owned()
    ]);

    let table = TableId(0);
    let db = generate_forest(&ForestConfig {
        rows: 5_000,
        quantitative_only: true,
        seed: 42,
    });
    let catalog = db.catalog();

    // ── 1. The serving stack ───────────────────────────────────────────
    // Primary: a learned model behind a hot-swap slot. Secondary: a
    // histogram estimator that errors, NaNs, and *panics* on 25 % of
    // calls. Tertiary: a cheap model that stalls 30 ms — past the whole
    // 20 ms request budget — on 40 % of calls.
    let slot = Arc::new(ModelSlot::new(Arc::new(train_learned(&db, 10, 7))));
    let stages: Vec<SharedEstimator> = vec![
        Arc::clone(&slot) as SharedEstimator,
        Arc::new(ChaosEstimator::new(
            PostgresEstimator::analyze_default(&db),
            vec![
                EstimatorFault::Error,
                EstimatorFault::Nan,
                EstimatorFault::Panic,
            ],
            0.25,
            2,
        )),
        Arc::new(
            ChaosEstimator::new(
                train_learned(&db, 3, 13),
                vec![EstimatorFault::Latency],
                0.4,
                3,
            )
            .with_latency(Duration::from_millis(30)),
        ),
    ];
    let svc = Arc::new(EstimatorService::new(
        stages,
        ServiceConfig {
            max_concurrency: 4,
            queue_capacity: 8,
            shed_policy: ShedPolicy::ShedOldest,
            default_budget: Duration::from_millis(20),
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(10),
                max_cooldown: Duration::from_millis(100),
            },
            floor: 1.0,
            ..ServiceConfig::default()
        },
    ));
    println!("── serving stack ──");
    println!("stage 0: {}", slot.name());
    println!("stage 1: chaos(postgres)  25% error/NaN/panic");
    println!("stage 2: chaos(learned)   40% 30ms stalls");
    println!("budget per request: 20ms, 4-way concurrency, queue of 8\n");

    // ── 2. Validated hot swap, corrupted artifact first ────────────────
    // A retrained GBDT arrives as checksummed bytes. A bit-flipped copy
    // must be rejected before it is even constructed; the intact copy
    // decodes and validates against a probe feature matrix.
    let retrained = train_learned(&db, 30, 99);
    let mut raw_gbdt = Gbdt::new(GbdtConfig {
        n_trees: 20,
        ..GbdtConfig::default()
    });
    let labeled = label_queries(
        &db,
        generate_conjunctive(catalog, &ConjunctiveConfig::new(table, 200, 5)),
    );
    let x = retrained
        .featurize_matrix(&labeled.queries)
        .expect("featurizable probe workload");
    let y: Vec<f32> = labeled
        .cardinalities
        .iter()
        .map(|c| (*c as f32).max(1.0).ln())
        .collect();
    raw_gbdt.fit(&x, &y);
    let bytes = gbdt_to_bytes(&raw_gbdt);
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;

    println!("── artifact gate ──");
    println!(
        "corrupted bytes → {}",
        decode_validated(&corrupt, &x).expect_err("corruption must be caught")
    );
    println!(
        "intact bytes    → decoded + probe-validated ({} trees)",
        decode_validated(&bytes, &x)
            .map(|_| 20)
            .expect("round trip")
    );

    // ── 3. Four threads of traffic + a mid-flight swap ─────────────────
    // Label the serving workload up front so every answered request can
    // feed the service's online q-error tracker.
    let labeled = {
        let mut qs = generate_conjunctive(catalog, &ConjunctiveConfig::new(table, 200, 21));
        qs.extend(generate_mixed(catalog, &MixedConfig::new(table, 200, 22)));
        Arc::new(label_queries(&db, qs))
    };
    let queries = &labeled.queries;
    let probe: Vec<_> = queries.iter().take(16).cloned().collect();
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let labeled = Arc::clone(&labeled);
            std::thread::spawn(move || {
                let (mut ok, mut deadline, mut overload) = (0u64, 0u64, 0u64);
                for (q, &truth) in labeled
                    .queries
                    .iter()
                    .zip(labeled.cardinalities.iter())
                    .skip(t)
                    .step_by(4)
                {
                    match svc.estimate_within(q, Deadline::within(Duration::from_millis(20))) {
                        Ok(est) => {
                            assert!(est.value.is_finite() && est.value >= 1.0);
                            let _ = svc.observe_truth(truth, est.value);
                            ok += 1;
                        }
                        Err(ServeError::DeadlineExceeded { .. }) => deadline += 1,
                        Err(ServeError::Overloaded { .. }) => overload += 1,
                    }
                }
                (ok, deadline, overload)
            })
        })
        .collect();

    // Meanwhile: reject a NaN-spewing candidate, publish the retrained one.
    std::thread::sleep(Duration::from_millis(5));
    let bad = slot.try_publish(
        Arc::new(ChaosEstimator::new(
            train_learned(&db, 5, 1),
            vec![EstimatorFault::Nan],
            1.0,
            4,
        )),
        &probe,
    );
    println!("\n── hot swap (mid-traffic) ──");
    println!("NaN candidate  → {}", bad.expect_err("must be rejected"));
    let generation = slot
        .try_publish(Arc::new(retrained), &probe)
        .expect("retrained model passes the probe");
    println!("retrained GBDT → published as generation {generation}");

    let mut totals = (0u64, 0u64, 0u64);
    for w in workers {
        let (ok, deadline, overload) = w.join().expect("no panic escapes the service");
        totals = (totals.0 + ok, totals.1 + deadline, totals.2 + overload);
    }

    // ── 4. What the service saw ────────────────────────────────────────
    let stats = svc.stats();
    println!("\n── outcome ({} requests) ──", queries.len());
    println!(
        "answered {} (floor {}), deadline-exceeded {}, overloaded {}",
        totals.0, stats.floor_answers, totals.1, totals.2
    );
    println!(
        "admission: {} admitted, {} shed, {} rejected, {} queue timeouts",
        stats.admission.admitted,
        stats.admission.shed,
        stats.admission.rejected,
        stats.admission.queue_timeouts
    );
    println!("\n  stage                          hits  t/o  panics  skipped  breaker");
    for s in &stats.stages {
        println!(
            "  {:<30} {:>4} {:>4} {:>7} {:>8}  {:?} (opened {}, reclosed {})",
            s.name,
            s.hits,
            s.timeouts,
            s.panics,
            s.skipped_open,
            s.breaker.state,
            s.breaker.opened,
            s.breaker.reclosed
        );
    }
    let (published, rejected) = slot.swap_counts();
    println!(
        "\nmodel slot: generation {}, {} published, {} rejected — now serving {}",
        slot.generation(),
        published,
        rejected,
        slot.name()
    );

    // ── 5. The metrics snapshot ────────────────────────────────────────
    // One `MetricsSnapshot` over the whole pipeline: end-to-end and
    // per-stage latency histograms, queue depth/wait, live breaker
    // transitions, and the sliding-window q-error over the ground truth
    // the workers fed back.
    let metrics = svc.metrics();
    println!("\n── metrics snapshot ──");
    print!("{}", metrics.render_text());
    if let Ok(path) = std::env::var("QFE_METRICS_JSON") {
        let path = std::path::PathBuf::from(path);
        metrics
            .write_json_to(&path)
            .expect("metrics JSON must be writable");
        println!("\nmetrics JSON written to {}", path.display());
    }
}
