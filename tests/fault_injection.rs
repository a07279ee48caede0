//! The central robustness property: an [`EstimatorService`] whose
//! stages are wrapped in seeded [`ChaosEstimator`]s — injecting typed
//! errors, NaNs, and contract-violating garbage — must, over generated
//! conjunctive AND mixed workloads, for every fault pattern:
//!
//! * never panic,
//! * always produce a finite estimate `>= 1`,
//! * attribute every estimate to the stage that actually produced it,
//! * account for every request at every stage it reached.
//!
//! The proptests run under [`Deadline::unbounded`], so stages run inline
//! and no runner thread is involved.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

use qfe::core::featurize::{AttributeSpace, UniversalConjunctionEncoding};
use qfe::core::{CardinalityEstimator, Deadline, EstimateErrorKind, Query, TableId};
use qfe::data::forest::{generate_forest, ForestConfig};
use qfe::data::Database;
use qfe::estimators::labels::label_queries;
use qfe::estimators::{BreakerConfig, LearnedEstimator, PostgresEstimator, SamplingEstimator};
use qfe::ml::chaos::{ChaosEstimator, EstimatorFault};
use qfe::ml::gbdt::{Gbdt, GbdtConfig};
use qfe::serve::{EstimatorService, ServiceConfig, ServiceStats, SharedEstimator};
use qfe::workload::{generate_conjunctive, generate_mixed, ConjunctiveConfig, MixedConfig};

const TABLE: TableId = TableId(0);

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        generate_forest(&ForestConfig {
            rows: 2_000,
            quantitative_only: true,
            seed: 17,
        })
    })
}

fn learned() -> &'static LearnedEstimator {
    static EST: OnceLock<LearnedEstimator> = OnceLock::new();
    EST.get_or_init(|| {
        let db = db();
        let space = AttributeSpace::for_table(db.catalog(), TABLE);
        let mut est = LearnedEstimator::new(
            Box::new(UniversalConjunctionEncoding::new(space, 8).expect("valid config")),
            Box::new(Gbdt::new(GbdtConfig {
                n_trees: 20,
                max_leaves: 8,
                min_samples_leaf: 4,
                ..GbdtConfig::default()
            })),
        );
        let train = label_queries(
            db,
            generate_conjunctive(db.catalog(), &ConjunctiveConfig::new(TABLE, 300, 23)),
        );
        est.fit(&train).expect("training the primary stage");
        est
    })
}

fn postgres() -> &'static PostgresEstimator {
    static EST: OnceLock<PostgresEstimator> = OnceLock::new();
    EST.get_or_init(|| PostgresEstimator::analyze_default(db()))
}

/// Conjunctive + mixed workload for one generator seed.
fn workload(seed: u64) -> Vec<Query> {
    let catalog = db().catalog();
    let mut queries = generate_conjunctive(catalog, &ConjunctiveConfig::new(TABLE, 8, seed));
    queries.extend(generate_mixed(
        catalog,
        &MixedConfig::new(TABLE, 8, seed ^ 0x5EED),
    ));
    queries
}

const ALL_FAULTS: [EstimatorFault; 3] = [
    EstimatorFault::Error,
    EstimatorFault::Nan,
    EstimatorFault::Garbage,
];

fn service(stages: Vec<SharedEstimator>, breaker: BreakerConfig) -> EstimatorService {
    EstimatorService::new(
        stages,
        ServiceConfig {
            breaker,
            ..ServiceConfig::default()
        },
    )
}

fn lenient() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: u32::MAX,
        ..BreakerConfig::default()
    }
}

/// Every request is accounted for at every stage it reached: the rows
/// reaching stage `d` are its hits plus its failures (a breaker skip
/// counts as `circuit-open`), the rest go on to stage `d + 1`, and the
/// ones left after the last stage are the floor answers.
fn assert_conserved(stats: &ServiceStats, requests: u64) {
    let mut reaching = requests;
    for (d, stage) in stats.stages.iter().enumerate() {
        let errors: u64 = stage.errors.iter().map(|(_, n)| n).sum();
        assert_eq!(reaching, stage.hits + errors, "stage {}: {:?}", d, stage);
        let skipped = stage.errors[EstimateErrorKind::CircuitOpen.as_index()].1;
        assert_eq!(skipped, stage.skipped_open, "stage {}", d);
        reaching -= stage.hits;
    }
    assert_eq!(reaching, stats.floor_answers);
    let hits: u64 = stats.stages.iter().map(|s| s.hits).sum();
    assert_eq!(stats.answered, hits + stats.floor_answers);
    assert_eq!(stats.deadline_exceeded, 0);
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    /// The acceptance property: a service over chaos-wrapped learned →
    /// postgres → sampling stages, any fault rate, any seed, on the
    /// production breaker.
    #[test]
    fn chain_survives_chaos_with_correct_provenance(
        chaos_seed in 0u64..u64::MAX / 2,
        workload_seed in 0u64..1u64 << 16,
        rate in 0.0f64..1.0,
    ) {
        let chaos_learned = ChaosEstimator::new(learned(), ALL_FAULTS.to_vec(), rate, chaos_seed);
        let chaos_pg = ChaosEstimator::new(postgres(), ALL_FAULTS.to_vec(), rate, chaos_seed ^ 1);
        let chaos_sampling = ChaosEstimator::new(
            SamplingEstimator::new(db(), 0.05, 7),
            ALL_FAULTS.to_vec(),
            rate,
            chaos_seed ^ 2,
        );
        let stage_names = [chaos_learned.name(), chaos_pg.name(), chaos_sampling.name()];
        let svc = service(
            vec![
                Arc::new(chaos_learned),
                Arc::new(chaos_pg),
                Arc::new(chaos_sampling),
            ],
            BreakerConfig::default(),
        );

        let queries = workload(workload_seed);
        for q in &queries {
            let est = svc
                .estimate_within(q, Deadline::unbounded())
                .expect("the service answers every admitted request");
            prop_assert!(
                est.value.is_finite() && est.value >= 1.0,
                "illegal estimate {est:?}"
            );
            prop_assert!(est.fallback_depth <= 3, "{est:?}");
            // Provenance identifies the producing stage.
            if est.fallback_depth < 3 {
                prop_assert_eq!(&est.estimator, &stage_names[est.fallback_depth]);
            } else {
                prop_assert_eq!(est.estimator.as_str(), "floor");
            }
        }
        assert_conserved(&svc.stats(), queries.len() as u64);
    }

    /// With injection disabled the primary stage answers everything.
    #[test]
    fn zero_rate_chain_never_falls_back(workload_seed in 0u64..1u64 << 16) {
        let svc = service(
            vec![
                Arc::new(ChaosEstimator::new(learned(), ALL_FAULTS.to_vec(), 0.0, 1)),
                Arc::new(postgres()),
            ],
            lenient(),
        );
        let queries = workload(workload_seed);
        let mut fell_back = 0;
        for q in &queries {
            let est = svc.estimate_within(q, Deadline::unbounded()).expect("total");
            // The trained learned stage answers every supported query; an
            // unsupported one (mixed query under the conjunctive QFT) may
            // legitimately fall through to postgres — but never deeper.
            prop_assert!(est.fallback_depth <= 1, "{est:?}");
            prop_assert!(est.value.is_finite() && est.value >= 1.0);
            fell_back += u64::from(est.fell_back());
        }
        let stats = svc.stats();
        prop_assert_eq!(fell_back, stats.stages[1].hits + stats.floor_answers);
        prop_assert_eq!(stats.floor_answers, 0);
        assert_conserved(&stats, queries.len() as u64);
    }

    /// Full-rate chaos on every stage: the floor answers every query and
    /// the error counters account for every stage failure.
    #[test]
    fn full_rate_chaos_always_reaches_the_floor(
        chaos_seed in 0u64..u64::MAX / 2,
        workload_seed in 0u64..1u64 << 16,
    ) {
        let svc = service(
            vec![
                Arc::new(ChaosEstimator::new(learned(), ALL_FAULTS.to_vec(), 1.0, chaos_seed)),
                Arc::new(ChaosEstimator::new(postgres(), ALL_FAULTS.to_vec(), 1.0, chaos_seed ^ 1)),
            ],
            BreakerConfig::default(),
        );
        let queries = workload(workload_seed);
        for q in &queries {
            let est = svc.estimate_within(q, Deadline::unbounded()).expect("total");
            prop_assert_eq!(est.value, 1.0);
            prop_assert_eq!(est.estimator.as_str(), "floor");
            prop_assert_eq!(est.fallback_depth, 2);
        }
        let n = queries.len() as u64;
        let stats = svc.stats();
        prop_assert_eq!(stats.stages[0].hits, 0);
        prop_assert_eq!(stats.stages[1].hits, 0);
        prop_assert_eq!(stats.floor_answers, n);
        // Two stages failed (or were skipped) for each of n queries.
        let errors: u64 = stats
            .stages
            .iter()
            .flat_map(|s| s.errors.iter().map(|(_, n)| n))
            .sum();
        prop_assert_eq!(errors, 2 * n);
        assert_conserved(&stats, n);
    }
}
