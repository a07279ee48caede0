//! Optimizer throughput record for the sub-plan estimate cache: the full
//! JOB-light-like suite is optimized repeatedly with a trained local-model
//! estimator, once without any cross-call cache and once with a shared
//! [`qfe_exec::EstimateCache`]. Two more fields put those numbers in
//! context: `planner_us_per_query`, the optimizer's own cost (a constant
//! estimator, no cache — the floor the cached arm approaches), and
//! `allocs_per_plan`, the heap allocations of one warm-cache plan, counted
//! by this binary's counting global allocator (deterministic; CI fails if
//! it rises above the committed record). Writes the machine-readable record to
//! `BENCH_optimizer.json` (override with `QFE_BENCH_JSON`), prints the
//! same numbers as text, and exits non-zero if the cached arm is slower
//! than the uncached arm, if the cache's counter conservation law breaks
//! (`probes != hits + misses`), or if any cached plan differs from its
//! uncached equivalent — the CI regression gate for this path. Scale via
//! `QFE_SCALE=smoke|small|full`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_bench::envs::ImdbEnv;
use qfe_bench::trainers::{train_local_models, ModelKind, QftKind};
use qfe_core::estimator::{CardinalityEstimator, Estimate};
use qfe_core::{EstimateError, Query};
use qfe_exec::{EstimateCache, Optimizer};
use qfe_obs::alloc::{count_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An estimator that costs nothing: a constant, without even the name
/// allocation of the default `try_estimate`. Planning with it measures
/// the optimizer alone.
struct Constant;

impl CardinalityEstimator for Constant {
    fn name(&self) -> String {
        "constant".into()
    }

    fn estimate(&self, _query: &Query) -> f64 {
        10.0
    }

    fn try_estimate(&self, _query: &Query) -> Result<Estimate, EstimateError> {
        Ok(Estimate::primary(10.0, String::new()))
    }
}

/// Run `f` (which optimizes `per_iter` queries) repeatedly for at least
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
    eprintln!("building JOB-light environment at scale '{}'…", scale.label);
    let env = ImdbEnv::build(&scale);
    eprintln!("training GB × conjunctive local models…");
    let est = train_local_models(
        env.db.catalog(),
        &env.train,
        QftKind::Conjunctive,
        ModelKind::Gb,
        &scale,
        scale.buckets,
    );
    let queries = &env.suite.queries;
    let budget = Duration::from_millis(300);

    // Plan equivalence first: the cache must never change a plan choice.
    let uncached = Optimizer::new(&est);
    let cache = Arc::new(EstimateCache::new());
    let cached = Optimizer::new(&est).with_cache(cache.clone());
    let mut divergent = 0usize;
    for q in queries {
        let off = uncached.optimize(q).expect("optimizable query");
        let on = cached.optimize(q).expect("optimizable query");
        if off.plan != on.plan || off.cost.to_bits() != on.cost.to_bits() {
            divergent += 1;
        }
    }

    // Uncached arm: every sub-plan estimate reaches the estimator.
    let uncached_us = measure(queries.len(), budget, || {
        for q in queries {
            std::hint::black_box(uncached.optimize(q).expect("optimizable query"));
        }
    });

    // Cached arm: one shared cross-call cache over the whole suite; after
    // the warmup pass, every sub-plan estimate is a cache hit (the
    // Hyrise-style steady state of a workload with recurring sub-plans).
    let cached_us = measure(queries.len(), budget, || {
        for q in queries {
            std::hint::black_box(cached.optimize(q).expect("optimizable query"));
        }
    });

    // Warm-cache allocations: one more pass over the suite, every probe a
    // hit.
    let ((), allocs) = count_allocations(|| {
        for q in queries {
            std::hint::black_box(cached.optimize(q).expect("optimizable query"));
        }
    });
    let allocs_per_plan = allocs as f64 / queries.len() as f64;

    // The planner alone: a free estimator and no cache.
    let planner = Optimizer::new(&Constant);
    let planner_us = measure(queries.len(), budget, || {
        for q in queries {
            std::hint::black_box(planner.optimize(q).expect("optimizable query"));
        }
    });

    let speedup = uncached_us / cached_us;
    let stats = cache.stats();
    let conserved = stats.probes() == stats.hits + stats.misses;

    println!(
        "optimizer over the JOB-light-like suite ({} queries, {}):",
        queries.len(),
        scale.label
    );
    println!("  uncached {uncached_us:>9.2} µs/query");
    println!("  cached   {cached_us:>9.2} µs/query   speedup {speedup:>5.2}×");
    println!("  planner  {planner_us:>9.2} µs/query   (constant estimator, no cache)");
    println!("  allocations per warm-cache plan: {allocs_per_plan:.2}");
    println!(
        "  cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {} invalidations",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.evictions,
        stats.invalidations
    );

    let json = format!(
        "{{\"workload\":\"joblight\",\"scale\":\"{}\",\"queries\":{},\"uncached_us_per_query\":{:.3},\"cached_us_per_query\":{:.3},\"speedup\":{:.2},\"planner_us_per_query\":{:.3},\"allocs_per_plan\":{:.2},\"hit_rate\":{:.4},\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{}}}\n",
        scale.label,
        queries.len(),
        uncached_us,
        cached_us,
        speedup,
        planner_us,
        allocs_per_plan,
        stats.hit_rate(),
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.invalidations
    );
    let path = std::env::var("QFE_BENCH_JSON").unwrap_or_else(|_| "BENCH_optimizer.json".into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    let mut failed = false;
    if divergent > 0 {
        eprintln!("REGRESSION: {divergent} cached plans diverge from uncached plans");
        failed = true;
    }
    if !conserved {
        eprintln!(
            "REGRESSION: cache counters violate conservation ({} probes != {} hits + {} misses)",
            stats.probes(),
            stats.hits,
            stats.misses
        );
        failed = true;
    }
    if speedup < 1.0 {
        eprintln!("REGRESSION: cached optimization is slower than uncached ({speedup:.2}×)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
