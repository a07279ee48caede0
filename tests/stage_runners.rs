//! The stage-runner pool stays bounded when a stage stalls.
//!
//! Bounded stage calls run on reused runner threads from one process-wide
//! pool. A storm of requests against a stage that never answers abandons
//! a runner per timed-out call, but the circuit breaker caps how many
//! calls are made; healthy traffic afterwards reuses idle runners instead
//! of spawning one per call. This file holds a single test so that the
//! process-wide pool sees no other traffic.

use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use qfe::core::{CardinalityEstimator, Deadline, Query, TableId};
use qfe::estimators::BreakerConfig;
use qfe::serve::{stage_runner_stats, EstimatorService, ServiceConfig, SharedEstimator};

struct Fixed(f64);

impl CardinalityEstimator for Fixed {
    fn name(&self) -> String {
        "fixed".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        self.0
    }
}

/// A stage whose every call blocks until the test releases it.
struct Stalled(Arc<(Mutex<bool>, Condvar)>);

impl CardinalityEstimator for Stalled {
    fn name(&self) -> String {
        "stalled".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        let (released, cv) = &*self.0;
        let mut released = released.lock().unwrap();
        while !*released {
            released = cv.wait(released).unwrap();
        }
        5.0
    }
}

fn query() -> Query {
    Query::single_table(TableId(0), vec![])
}

#[test]
fn stalled_stages_strand_few_runners_and_healthy_traffic_reuses_them() {
    const THRESHOLD: u32 = 3;
    const HEALTHY_THREADS: usize = 4;
    const HEALTHY_PER_THREAD: usize = 500;
    const OPEN_CYCLES: u64 = 4;
    let before = stage_runner_stats();

    // Storm: sequential requests against a stalled primary until its
    // breaker has opened OPEN_CYCLES times (the first open after
    // THRESHOLD timeouts, each later one after a failed half-open probe).
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let storm = EstimatorService::new(
        vec![
            Arc::new(Stalled(Arc::clone(&gate))) as SharedEstimator,
            Arc::new(Fixed(7.0)),
        ],
        ServiceConfig {
            breaker: BreakerConfig {
                failure_threshold: THRESHOLD,
                cooldown: Duration::from_millis(20),
                max_cooldown: Duration::from_millis(20),
            },
            ..ServiceConfig::default()
        },
    );
    while storm.stats().stages[0].breaker.opened < OPEN_CYCLES {
        let e = storm
            .estimate_within(&query(), Deadline::within(Duration::from_millis(100)))
            .expect("the fallback answers within the budget");
        assert_eq!((e.value, e.fallback_depth), (7.0, 1));
    }
    let storm_stats = storm.stats().stages[0].clone();
    let after_storm = stage_runner_stats();
    let abandoned = after_storm.abandoned - before.abandoned;
    // Every abandoned runner is one timed-out call of the stalled stage,
    // and the breaker lets at most THRESHOLD of them through per open
    // cycle.
    assert_eq!(abandoned, storm_stats.timeouts);
    assert!(
        abandoned <= u64::from(THRESHOLD) * storm_stats.breaker.opened,
        "{abandoned} abandoned over {} open cycles",
        storm_stats.breaker.opened
    );

    // Healthy traffic: HEALTHY_THREADS concurrent callers with a real
    // budget, so every call runs on a runner.
    let healthy = Arc::new(EstimatorService::new(
        vec![Arc::new(Fixed(3.0)) as SharedEstimator],
        ServiceConfig {
            max_concurrency: HEALTHY_THREADS,
            ..ServiceConfig::default()
        },
    ));
    let start = Arc::new(Barrier::new(HEALTHY_THREADS));
    let callers: Vec<_> = (0..HEALTHY_THREADS)
        .map(|_| {
            let svc = Arc::clone(&healthy);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..HEALTHY_PER_THREAD {
                    assert_eq!(svc.estimate(&query()).unwrap().value, 3.0);
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }
    assert_eq!(
        healthy.stats().answered,
        (HEALTHY_THREADS * HEALTHY_PER_THREAD) as u64
    );

    // Runners spawned over the whole run: one per concurrent healthy
    // call at most, plus one replacement per abandoned runner. A
    // spawn-per-call design would need one per call, thousands here.
    let after = stage_runner_stats();
    let spawned = after.spawned - before.spawned;
    assert_eq!(after.abandoned - before.abandoned, abandoned);
    assert!(
        spawned <= HEALTHY_THREADS as u64 + abandoned,
        "{spawned} runners spawned for {HEALTHY_THREADS} concurrent callers \
         and {abandoned} abandoned calls"
    );

    // Released, the stalled calls return and their runners exit: only
    // the idle runners stay alive.
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut now = stage_runner_stats();
    while now.live != now.idle as u64 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
        now = stage_runner_stats();
    }
    assert_eq!(now.live, now.idle as u64, "abandoned runners must exit");
    assert!(now.idle <= HEALTHY_THREADS, "{now:?}");
}
