//! Fleet-level routing invariants over real estimator seeds.
//!
//! What the registry promises a multi-tenant deployment:
//!
//! 1. **Determinism** — equal tenant/schema fingerprints route to the
//!    same shard, every time, including across differently-written but
//!    schema-equal queries.
//! 2. **Isolation** — shards share nothing that matters: tripping
//!    tenant A's circuit breaker leaves tenant B serving on its
//!    primary; quota-shedding tenant A's flood leaves tenant B's
//!    requests admitted.
//! 3. **Conservation** — per shard, `routed == admitted + quota_shed`
//!    at quiescence, and the fleet snapshot exposes each shard's
//!    counters under its own `shard.<name>.` prefix.
//!
//! Shards here are seeded with the PostgreSQL-style baseline estimator
//! over real (tiny) tables — the cheapest member of the estimator
//! family that still exercises a full featurize-and-estimate path.

use std::sync::Arc;
use std::time::Duration;

use qfe_core::predicate::{CmpOp, CompoundPredicate, PredicateExpr};
use qfe_core::query::{ColumnRef, Query};
use qfe_core::schema::{ColumnId, TableId};
use qfe_core::{CardinalityEstimator, Deadline, Value};
use qfe_data::{Column, Database, Table};
use qfe_estimators::{BreakerConfig, PostgresEstimator};
use qfe_ml::chaos::{ChaosEstimator, EstimatorFault};
use qfe_serve::{
    ServiceConfig, Shard, ShardConfig, ShardError, ShardKey, ShardRegistry, SharedEstimator,
};

fn tiny_db(rows: usize, seed: i64) -> Database {
    Database::new(
        vec![Table::new(
            "t",
            vec![
                (
                    "a".into(),
                    Column::Int((0..rows as i64).map(|v| (v * 7 + seed) % 50).collect()),
                ),
                (
                    "b".into(),
                    Column::Int((0..rows as i64).map(|v| (v + seed) % 10).collect()),
                ),
            ],
        )],
        &[],
    )
}

fn postgres_stage(db: &Database) -> SharedEstimator {
    Arc::new(PostgresEstimator::analyze_default(db))
}

fn lenient_service() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(3600),
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn query_on_table(value: i64) -> Query {
    Query {
        tables: vec![TableId(0)],
        joins: vec![],
        predicates: vec![CompoundPredicate {
            column: ColumnRef::new(TableId(0), ColumnId(0)),
            expr: PredicateExpr::leaf(CmpOp::Le, Value::Int(value)),
        }],
    }
}

#[test]
fn equal_fingerprints_route_to_the_same_shard() {
    let reg = ShardRegistry::new();
    for name in ["alpha", "beta", "gamma", "delta"] {
        let db = tiny_db(64, name.len() as i64);
        reg.register(Shard::new(
            name,
            ShardKey::for_tenant(name),
            vec![postgres_stage(&db)],
            ShardConfig {
                quota: 8,
                service: lenient_service(),
            },
        ))
        .unwrap();
    }
    // Exact tenants: repeat lookups always land home.
    for name in ["alpha", "beta", "gamma", "delta"] {
        for _ in 0..5 {
            assert_eq!(reg.route(ShardKey::for_tenant(name)).unwrap().name(), name);
        }
    }
    // Unregistered keys: rendezvous is a pure function of the key, so
    // equal fingerprints agree across repeated calls — and two queries
    // over the same table set produce equal keys no matter how their
    // predicates or table lists are written.
    let q1 = query_on_table(3);
    let mut q2 = query_on_table(40);
    q2.tables = vec![TableId(0), TableId(0)]; // dup: SubSchema dedups
    assert_eq!(ShardKey::of_query(&q1), ShardKey::of_query(&q2));
    let owner = reg
        .route(ShardKey::of_query(&q1))
        .unwrap()
        .name()
        .to_owned();
    for _ in 0..5 {
        assert_eq!(reg.route(ShardKey::of_query(&q2)).unwrap().name(), owner);
    }
}

#[test]
fn tripping_tenant_a_breaker_leaves_tenant_b_serving() {
    let reg = ShardRegistry::new();
    let db = tiny_db(64, 0);

    // Tenant A's primary always errors; its fallback is the histogram
    // baseline. Tenant B runs the healthy baseline as primary.
    let broken: SharedEstimator = Arc::new(ChaosEstimator::new(
        PostgresEstimator::analyze_default(&db),
        vec![EstimatorFault::Error],
        1.0,
        1,
    ));
    let a = Shard::new(
        "a",
        ShardKey::for_tenant("a"),
        vec![broken, postgres_stage(&db)],
        ShardConfig {
            quota: 8,
            service: lenient_service(),
        },
    );
    let b = Shard::new(
        "b",
        ShardKey::for_tenant("b"),
        vec![postgres_stage(&db)],
        ShardConfig {
            quota: 8,
            service: lenient_service(),
        },
    );
    reg.register(Arc::clone(&a)).unwrap();
    reg.register(Arc::clone(&b)).unwrap();

    // Hammer A until its stage-0 breaker opens (threshold 2).
    for i in 0..6 {
        let est = a
            .estimate_within(&query_on_table(i), Deadline::within(Duration::from_secs(1)))
            .expect("A still answers via fallback");
        assert!(est.fallback_depth > 0, "A's answer must come from fallback");
    }
    let a_breaker = &a.service().stats().stages[0].breaker;
    assert!(a_breaker.opened >= 1, "A's primary breaker never opened");

    // B is untouched: closed breaker, primary answers at depth 0.
    for i in 0..4 {
        let est = b
            .estimate_within(&query_on_table(i), Deadline::within(Duration::from_secs(1)))
            .expect("B serves");
        assert_eq!(est.fallback_depth, 0, "B must answer on its primary");
    }
    let b_stats = b.service().stats();
    assert_eq!(b_stats.stages[0].breaker.opened, 0);
    assert_eq!(b_stats.stages[0].panics, 0);
    assert!(reg.conserved());
}

#[test]
fn quota_shed_on_a_hot_tenant_leaves_the_other_admitted() {
    // A gets quota 1 and a slow-enough service that concurrent floods
    // collide at the gate; B has headroom. Flood A from many threads
    // while B trickles sequentially: B must never be shed.
    let db = tiny_db(64, 1);
    let a = Shard::new(
        "hot",
        ShardKey::for_tenant("hot"),
        vec![postgres_stage(&db)],
        ShardConfig {
            quota: 1,
            service: lenient_service(),
        },
    );
    let b = Shard::new(
        "calm",
        ShardKey::for_tenant("calm"),
        vec![postgres_stage(&db)],
        ShardConfig {
            quota: 8,
            service: lenient_service(),
        },
    );

    let mut handles = Vec::new();
    for t in 0..8 {
        let a = Arc::clone(&a);
        handles.push(std::thread::spawn(move || {
            let mut sheds = 0u64;
            for i in 0..50 {
                match a.estimate_within(
                    &query_on_table((t * 50 + i) % 50),
                    Deadline::within(Duration::from_secs(1)),
                ) {
                    Ok(_) => {}
                    Err(ShardError::QuotaExhausted { .. }) => sheds += 1,
                    Err(e) => panic!("unexpected error on hot shard: {e}"),
                }
            }
            sheds
        }));
    }
    for i in 0..40 {
        let est = b
            .estimate_within(&query_on_table(i), Deadline::within(Duration::from_secs(1)))
            .expect("calm tenant must keep serving during the flood");
        assert!(est.value >= 1.0);
    }
    let total_sheds: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let hot = a.stats();
    let calm = b.stats();
    assert!(hot.conserved(), "hot shard counters must conserve");
    assert!(calm.conserved(), "calm shard counters must conserve");
    assert_eq!(hot.routed, 400);
    assert_eq!(hot.quota_shed, total_sheds);
    assert_eq!(calm.routed, 40);
    assert_eq!(calm.quota_shed, 0, "calm tenant must never be quota-shed");
}

#[test]
fn fleet_snapshot_keeps_tenants_apart() {
    let reg = ShardRegistry::new();
    let db = tiny_db(32, 2);
    for name in ["x", "y"] {
        reg.register(Shard::new(
            name,
            ShardKey::for_tenant(name),
            vec![postgres_stage(&db)],
            ShardConfig {
                quota: 4,
                service: lenient_service(),
            },
        ))
        .unwrap();
    }
    // 3 requests to x, 1 to y, via registry routing.
    for i in 0..3 {
        reg.estimate_within(
            ShardKey::for_tenant("x"),
            &query_on_table(i),
            Deadline::within(Duration::from_secs(1)),
        )
        .unwrap();
    }
    reg.estimate_within(
        ShardKey::for_tenant("y"),
        &query_on_table(9),
        Deadline::within(Duration::from_secs(1)),
    )
    .unwrap();

    let snap = reg.metrics();
    assert_eq!(snap.counter("shard.x.routing.routed"), 3);
    assert_eq!(snap.counter("shard.x.routing.admitted"), 3);
    assert_eq!(snap.counter("shard.y.routing.routed"), 1);
    assert_eq!(snap.counter("registry.routes.exact"), 4);
    assert_eq!(snap.gauge("registry.shards"), 2);
    // Per-shard serving counters stay namespaced.
    assert!(snap.counter_sum_with_prefix("shard.x.serve.") > 0);
    assert!(snap.counter_sum_with_prefix("shard.y.serve.") > 0);
    assert!(reg.conserved());
}

#[test]
fn eviction_and_warm_reregistration_keep_routing_consistent() {
    let reg = ShardRegistry::new();
    let db = tiny_db(32, 3);
    for name in ["p", "q", "r"] {
        reg.register(Shard::new(
            name,
            ShardKey::for_tenant(name),
            vec![postgres_stage(&db)],
            ShardConfig {
                quota: 4,
                service: lenient_service(),
            },
        ))
        .unwrap();
    }
    let keys: Vec<ShardKey> = (0..100)
        .map(|i| ShardKey::for_tenant(&format!("k{i}")))
        .collect();
    let before: Vec<String> = keys
        .iter()
        .map(|k| reg.route(*k).unwrap().name().to_owned())
        .collect();

    // Evict and immediately re-register 'q' (a warm restart in fleet
    // terms): the membership set is unchanged, so *every* key must
    // route exactly as before.
    let evicted = reg.evict(ShardKey::for_tenant("q")).unwrap();
    assert_eq!(evicted.name(), "q");
    reg.register(Shard::new(
        "q",
        ShardKey::for_tenant("q"),
        vec![postgres_stage(&db)],
        ShardConfig {
            quota: 4,
            service: lenient_service(),
        },
    ))
    .unwrap();
    for (k, owner) in keys.iter().zip(&before) {
        assert_eq!(
            reg.route(*k).unwrap().name(),
            owner,
            "restart of one shard moved an unrelated key"
        );
    }
}

#[test]
fn estimates_survive_routing_with_real_estimators() {
    // End-to-end sanity: routed estimates agree with calling the
    // estimator directly — routing adds fairness, not distortion.
    let db = tiny_db(128, 4);
    let est = PostgresEstimator::analyze_default(&db);
    let reg = ShardRegistry::new();
    reg.register(Shard::new(
        "solo",
        ShardKey::for_tenant("solo"),
        vec![postgres_stage(&db)],
        ShardConfig {
            quota: 8,
            service: lenient_service(),
        },
    ))
    .unwrap();
    for i in 0..20 {
        let q = query_on_table(i);
        let direct = est.estimate(&q).max(1.0);
        let routed = reg
            .estimate_within(
                ShardKey::for_tenant("solo"),
                &q,
                Deadline::within(Duration::from_secs(1)),
            )
            .unwrap();
        assert!(
            (routed.value - direct).abs() < 1e-9,
            "query {i}: routed {} vs direct {direct}",
            routed.value
        );
    }
}
