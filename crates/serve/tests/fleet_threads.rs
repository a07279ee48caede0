//! A shard fleet costs no threads of its own.
//!
//! Each shard's micro-batcher is dispatched by the submitting threads,
//! so registering shards spawns nothing, and serving spawns only the
//! stage runners the process-wide runner pool reports. The count is read
//! from `/proc/self/task`, so this file is Linux-only and holds a single
//! test: no other test may start threads in this process meanwhile.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use qfe_core::{CardinalityEstimator, Deadline, Query, TableId};
use qfe_serve::{stage_runner_stats, Shard, ShardConfig, ShardKey, ShardRegistry};

struct Fixed(f64);

impl CardinalityEstimator for Fixed {
    fn name(&self) -> String {
        "fixed".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        self.0
    }
}

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .count()
}

#[test]
fn registering_and_serving_shards_spawns_no_batcher_threads() {
    const SHARDS: usize = 64;
    // The compute pool starts lazily on first use; start it before the
    // baseline so its threads are not charged to the fleet.
    qfe_core::parallel::current();
    let before = live_threads();

    let registry = ShardRegistry::default();
    let shards: Vec<Arc<Shard>> = (0..SHARDS)
        .map(|i| {
            let name = format!("tenant{i}");
            let shard = Shard::new(
                name.as_str(),
                ShardKey::for_tenant(&name),
                vec![Arc::new(Fixed(7.0))],
                ShardConfig::default(),
            );
            registry.register(Arc::clone(&shard)).expect("fresh key");
            shard
        })
        .collect();
    let registered = live_threads();
    assert_eq!(
        registered,
        before,
        "registering {SHARDS} shards started {} threads",
        registered as isize - before as isize
    );

    let runners_before = stage_runner_stats().spawned;
    let query = Query::single_table(TableId(0), vec![]);
    for shard in &shards {
        let e = shard
            .estimate_within(&query, Deadline::within(Duration::from_secs(10)))
            .expect("a fixed stage answers");
        assert_eq!((e.value, e.fallback_depth), (7.0, 0));
    }
    let runners = (stage_runner_stats().spawned - runners_before) as usize;
    let served = live_threads();
    assert!(
        served <= registered + runners,
        "serving one request per shard grew the threads by {}, \
         but the runner pool spawned only {runners}",
        served - registered
    );
}
