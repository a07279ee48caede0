//! `plan-job`: join-order planning through a cached, hot-swapped
//! estimator.
//!
//! Set-up: an IMDB-shaped database and two sets of local GB ×
//! conjunctive models (A and B, trained with different seeds). Each of
//! [`SESSIONS`] planning sessions has a `ModelSlot` serving A, behind
//! `Optimizer::with_cache(EstimateCache::with_generation_source(slot))`.
//! Load: each session is a closed loop on its own thread. Its stream, drawn by seed, mixes
//! the recurring JOB-light suite with fresh `generate_join_workload`
//! queries (a fixed pool labeled in set-up, generated with another seed
//! than the training queries), and
//! every [`SWAP_EVERY`] plans the session publishes the other model set
//! through `ModelSlot::try_publish`, which invalidates the cache. No
//! serve, net or batcher code runs.
//!
//! The traced half plans through a benchmark-side estimator that times
//! every estimate the optimizer asks for, then peels each of those
//! sub-plans into the local model's featurize and tree walk.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use qfe::core::estimator::{CardinalityEstimator, Estimate, GenerationSource};
use qfe::core::featurize::{Featurizer, UniversalConjunctionEncoding};
use qfe::core::{q_error, CanonicalQuery, EstimateError, Query, SubSchema};
use qfe::data::imdb::{generate_imdb, ImdbConfig};
use qfe::estimators::labels::{label_queries, LabeledQueries};
use qfe::estimators::LocalModelEstimator;
use qfe::exec::{CacheStats, EstimateCache, JoinPlan, OptimizedPlan, Optimizer};
use qfe::ml::gbdt::{Gbdt, GbdtConfig};
use qfe::ml::train::Regressor;
use qfe::serve::{ModelSlot, SharedEstimator};
use qfe::workload::{generate_join_workload, job_light_suite, JoinWorkloadConfig};

use crate::common::{
    measure, median, regressor_of, repeated_setup, trace_path, Args, Cycle, Phases, Report, Rng,
    Run, Samples,
};
use crate::trace::Trace;

const IMDB_TITLES: usize = 2_000;
const TRAIN_QUERIES: usize = 1_200;
const FRESH_QUERIES: usize = 400;
const BUCKETS: usize = 16;
const GBDT_TREES: usize = 30;
/// Fewest training queries a sub-schema needs for a local model.
const MIN_LOCAL_QUERIES: usize = 20;
/// Plans between hot swaps of the other model set.
const SWAP_EVERY: u64 = 64;
/// Share of the stream drawn from the recurring suite, in percent.
const SUITE_PCT: usize = 50;
/// Queries validated by the slot's probe gate on every publish.
const PROBE_QUERIES: usize = 16;
/// The reported tail percentile.
const TAIL_Q: f64 = 0.99;
/// Window over which rate, tail and CPU per plan are taken.
const WINDOW_S: f64 = 1.0;
/// Planning sessions side by side, each on its own thread. With both
/// cores busy the per-plan time is steady; a lone busy core's speed
/// swings by tens of per cent with the host's load.
const SESSIONS: usize = 2;

/// One model set and its reference plans: what an uncached optimizer
/// over the same models returns for each pool query.
struct ModelSet {
    est: Arc<LocalModelEstimator>,
    reference: Vec<(JoinPlan, u64)>,
}

struct Setup {
    sets: [ModelSet; 2],
    /// The suite's queries first, then the fresh ones.
    pool: Vec<Query>,
    truths: Vec<f64>,
    suite_len: usize,
    probe: Vec<Query>,
}

fn train_local(
    data: &LabeledQueries,
    catalog: &qfe::core::Catalog,
    seed: u64,
) -> LocalModelEstimator {
    LocalModelEstimator::train(
        catalog,
        data,
        MIN_LOCAL_QUERIES,
        &|space| -> Box<dyn Featurizer + Send + Sync> {
            Box::new(
                UniversalConjunctionEncoding::new(space, BUCKETS)
                    .expect("buckets > 0")
                    .with_attr_sel(true),
            )
        },
        &|| -> Box<dyn Regressor + Send + Sync> {
            Box::new(Gbdt::new(GbdtConfig {
                n_trees: GBDT_TREES,
                min_samples_leaf: 3,
                max_leaves: 64,
                colsample: 0.8,
                seed,
                ..GbdtConfig::default()
            }))
        },
    )
    .expect("join queries featurize under the conjunctive QFT")
}

fn setup(phases: &mut Phases) -> Setup {
    let (db, train, suite, fresh) = phases.time("generate", || {
        let db = generate_imdb(&ImdbConfig {
            titles: IMDB_TITLES,
            seed: 0x1_4DB,
        });
        let train =
            generate_join_workload(db.catalog(), &JoinWorkloadConfig::new(TRAIN_QUERIES, 7));
        let suite = job_light_suite(db.catalog());
        let fresh =
            generate_join_workload(db.catalog(), &JoinWorkloadConfig::new(FRESH_QUERIES, 11));
        (db, train, suite, fresh)
    });
    let (train, suite, fresh) = phases.time("label", || {
        (
            label_queries(&db, train),
            label_queries(&db, suite),
            label_queries(&db, fresh),
        )
    });
    let models = phases.time("train", || {
        [1u64, 2].map(|s| Arc::new(train_local(&train, db.catalog(), s)))
    });
    phases.time("bind", || {
        let suite_len = suite.len();
        let mut pool = suite.queries;
        pool.extend(fresh.queries);
        let mut truths = suite.cardinalities;
        truths.extend(fresh.cardinalities);
        let sets = models.map(|est| {
            let uncached = Optimizer::new(est.as_ref());
            let reference = pool
                .iter()
                .map(|q| {
                    let p = uncached.optimize(q).expect("generated join queries plan");
                    (p.plan, p.cost.to_bits())
                })
                .collect();
            ModelSet { est, reference }
        });
        let probe = pool.iter().take(PROBE_QUERIES).cloned().collect();
        Setup {
            sets,
            pool,
            truths,
            suite_len,
            probe,
        }
    })
}

/// The seeded query stream: suite or fresh by coin, each side cycling
/// through its own shuffled order.
struct Stream {
    coin: Rng,
    suite: Cycle,
    fresh: Cycle,
    suite_len: usize,
}

impl Stream {
    fn new(s: &Setup, seed: u64) -> Self {
        Stream {
            coin: Rng::new(seed ^ 0xC014),
            suite: Cycle::new(s.suite_len, seed ^ 0x5017E),
            fresh: Cycle::new(s.pool.len() - s.suite_len, seed ^ 0xF2E5),
            suite_len: s.suite_len,
        }
    }

    fn draw(&mut self) -> usize {
        if self.coin.below(100) < SUITE_PCT {
            self.suite.draw()
        } else {
            self.suite_len + self.fresh.draw()
        }
    }
}

/// Times every estimate the optimizer asks for and keeps the sub-plan,
/// so its featurize and tree walk can be peeled afterwards.
struct Timed<'a> {
    slot: &'a ModelSlot,
    calls: RefCell<Vec<(Instant, Instant, Query)>>,
}

impl CardinalityEstimator for Timed<'_> {
    fn name(&self) -> String {
        self.slot.name()
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.slot.estimate(query)
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        let start = Instant::now();
        let result = self.slot.try_estimate(query);
        let end = Instant::now();
        self.calls.borrow_mut().push((start, end, query.clone()));
        result
    }
}

/// One planning session: a closed loop on its own thread, with its own
/// slot, cache and stream; the loop state carries over from the
/// untraced to the traced half.
struct Session<'s> {
    s: &'s Setup,
    id: u64,
    slot: Arc<ModelSlot>,
    cache: Arc<EstimateCache>,
    stream: Stream,
    active: usize,
    done: u64,
    swaps: u64,
    publish_us: Vec<f64>,
    publish_failures: u64,
    probes: u64,
    cross_hits: u64,
    misses: u64,
    peeled: Peeled,
}

impl<'s> Session<'s> {
    fn new(s: &'s Setup, id: u64, seed: u64) -> Self {
        let slot = Arc::new(ModelSlot::new(Arc::clone(&s.sets[0].est) as SharedEstimator));
        let cache = Arc::new(EstimateCache::with_generation_source(
            Arc::clone(&slot) as Arc<dyn GenerationSource>
        ));
        Session {
            s,
            id,
            slot,
            cache,
            stream: Stream::new(s, seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            active: 0,
            done: 0,
            swaps: 0,
            publish_us: Vec::new(),
            publish_failures: 0,
            probes: 0,
            cross_hits: 0,
            misses: 0,
            peeled: Peeled::default(),
        }
    }

    /// Check one plan against the reference for the live model set.
    fn check(
        &mut self,
        qi: usize,
        result: Result<OptimizedPlan, qfe::exec::OptimizeError>,
    ) -> Option<f64> {
        let plan = result.ok()?;
        let (ref_plan, ref_cost) = &self.s.sets[self.active].reference[qi];
        let st = plan.stats;
        self.probes += st.probes;
        self.cross_hits += st.cross_hits;
        self.misses += st.misses;
        let conserved = st.probes == st.call_hits + st.cross_hits + st.misses;
        (plan.plan == *ref_plan && plan.cost.to_bits() == *ref_cost && conserved)
            .then_some(plan.estimated_cardinality)
    }

    /// After every plan: hot-swap the other model set at the cadence.
    fn after_plan(&mut self) {
        self.done += 1;
        if self.done % SWAP_EVERY != 0 {
            return;
        }
        let next = 1 - self.active;
        let start = Instant::now();
        let published = self.slot.try_publish(
            Arc::clone(&self.s.sets[next].est) as SharedEstimator,
            &self.s.probe,
        );
        self.publish_us.push(start.elapsed().as_secs_f64() * 1e6);
        match published {
            Ok(_) => {
                self.active = next;
                self.swaps += 1;
            }
            Err(_) => self.publish_failures += 1,
        }
    }

    /// Plan with `opt` until `until`; traced, peel every estimate.
    fn plan_until<E: CardinalityEstimator>(
        &mut self,
        opt: &Optimizer<'_, E>,
        timed: Option<&Timed<'_>>,
        epoch: Instant,
        until: Instant,
    ) -> (Samples, Trace, Vec<u64>) {
        let mut samples = Samples::default();
        let mut trace = Trace::new(epoch);
        let mut ops = Vec::new();
        while Instant::now() < until {
            let qi = self.stream.draw();
            let query = &self.s.pool[qi];
            let op = self.id << 40 | self.done;
            let start = Instant::now();
            let result = opt.optimize(query);
            let end = Instant::now();
            if let Some(timed) = timed {
                trace.record(op, "optimize", "client", start, end);
                for (a, b, sub) in timed.calls.borrow_mut().drain(..) {
                    trace.record(op, "estimator", "optimize", a, b);
                    self.peeled.peel(self.s, self.active, op, &sub, &mut trace);
                }
                trace.time(op, "fingerprint", "optimize", || CanonicalQuery::new(query));
                ops.push(op);
            }
            let card = self.check(qi, result);
            if let Some(card) = card {
                samples.qerrors.push(q_error(self.s.truths[qi], card));
            }
            samples.op(epoch, start, end, card.is_some());
            self.after_plan();
        }
        (samples, trace, ops)
    }
}

/// Run every session on its own thread for `seconds`.
fn timed_phase(
    sessions: &mut [Session<'_>],
    seconds: f64,
    traced: bool,
) -> (Run, (Trace, Vec<u64>)) {
    let clock = measure(seconds, WINDOW_S, |epoch, until| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .map(|ses| {
                    scope.spawn(move || {
                        let slot = Arc::clone(&ses.slot);
                        let cache = Arc::clone(&ses.cache);
                        if traced {
                            let timed = Timed {
                                slot: &slot,
                                calls: RefCell::new(Vec::new()),
                            };
                            let opt = Optimizer::new(&timed).with_cache(cache);
                            ses.plan_until(&opt, Some(&timed), epoch, until)
                        } else {
                            let opt = Optimizer::new(slot.as_ref()).with_cache(cache);
                            ses.plan_until(&opt, None, epoch, until)
                        }
                    })
                })
                .collect();
            let mut samples = Samples::default();
            let mut trace = Trace::new(epoch);
            let mut ops = Vec::new();
            for h in handles {
                let (s, t, o) = h.join().expect("planning session thread");
                samples.absorb(s);
                trace.absorb(t);
                ops.extend(o);
            }
            (samples, (trace, ops))
        })
    });
    Run::new(clock)
}

/// Decoded tree ensembles of the local models, for the peeled trace.
#[derive(Default)]
struct Peeled {
    regressors: HashMap<(usize, SubSchema), Box<dyn Regressor + Send + Sync>>,
}

impl Peeled {
    /// Featurize `sub` and walk its local model's trees, as the estimate
    /// the optimizer just made did, recording both as spans.
    fn peel(&mut self, s: &Setup, active: usize, op: u64, sub: &Query, trace: &mut Trace) {
        let schema = sub.sub_schema();
        let Some(local) = s.sets[active].est.model_for(&schema) else {
            return;
        };
        let regressor = self
            .regressors
            .entry((active, schema))
            .or_insert_with(|| regressor_of(local));
        let features = trace.time(op, "featurize", "estimator", || {
            local.featurizer().featurize(sub)
        });
        if let Ok(features) = features {
            trace.time(op, "ml", "estimator", || {
                regressor.predict(features.as_slice())
            });
        }
    }
}

pub fn run(args: &Args, started: Instant) -> Report {
    let (s, setup_times) = repeated_setup(started, setup);
    println!(
        "plan-job: {} pool queries ({} JOB-light suite, {} fresh), {}% from the suite; \
         {SESSIONS} sessions, each a closed loop on its own thread with its own slot and \
         cache, hot-swapping every {SWAP_EVERY} plans",
        s.pool.len(),
        s.suite_len,
        s.pool.len() - s.suite_len,
        SUITE_PCT
    );
    let mut sessions: Vec<Session> = (0..SESSIONS as u64)
        .map(|id| Session::new(&s, id, args.seed))
        .collect();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, _) = timed_phase(&mut sessions, seconds, false);
    let traced = args
        .trace
        .then(|| timed_phase(&mut sessions, seconds, true));

    let mut report = Report::new(args.trace);
    let sum = |f: &dyn Fn(&Session) -> u64| sessions.iter().map(f).sum::<u64>();
    let stats: Vec<CacheStats> = sessions.iter().map(|ses| ses.cache.stats()).collect();
    let (hits, misses) = (
        stats.iter().map(|c| c.hits).sum::<u64>(),
        stats.iter().map(|c| c.misses).sum::<u64>(),
    );
    report.gate(
        sessions
            .iter()
            .zip(&stats)
            .all(|(ses, c)| c.hits == ses.cross_hits && c.misses == ses.misses),
        format!(
            "every session's cache hits and misses ({hits} / {misses} in all) match its plans' \
             cross-call hits and misses"
        ),
    );
    let (swaps, failures) = (sum(&|ses| ses.swaps), sum(&|ses| ses.publish_failures));
    report.gate(
        failures == 0,
        format!(
            "{swaps} of {} hot swaps passed the probe gate",
            swaps + failures
        ),
    );
    let invalidations = stats.iter().map(|c| c.invalidations).sum::<u64>();
    let evictions = stats.iter().map(|c| c.evictions).sum::<u64>();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "cache: {hits} hits, {misses} misses ({hit_rate:.3} hit rate), {invalidations} \
         invalidations, {evictions} evictions; {swaps} swaps"
    );
    match traced {
        None => report.end_to_end(&setup_times, &untraced, TAIL_Q, "plan"),
        Some((traced_run, (trace, ops))) => {
            report.attempted = untraced.ok + untraced.failed + traced_run.ok + traced_run.failed;
            report.failed = untraced.failed + traced_run.failed;
            setup_times.report_phases(&mut report);
            let plans = sum(&|ses| ses.done).max(1) as f64;
            let totals = trace.totals();
            let per_op = |layer| {
                ops.iter()
                    .map(|&op| totals.get(op, layer))
                    .collect::<Vec<_>>()
            };
            let opt_self = median(&totals.self_per_op(&ops, "optimize", &["estimator"]));
            let est_self = median(&totals.self_per_op(&ops, "estimator", &["featurize", "ml"]));
            let featurize = median(&per_op("featurize"));
            let ml = median(&per_op("ml"));
            let attributed = opt_self + est_self + featurize + ml;
            let n = ops.len();
            report.attribution(
                &untraced.latencies_us,
                &traced_run.latencies_us,
                attributed,
                "optimize",
            );
            let estimates = trace.durations_us("estimator");
            report.metric(
                "estimator.us_p50",
                median(&estimates),
                format!("median per call, n={}", estimates.len()),
            );
            report.metric(
                "estimator.self_us_p50",
                est_self,
                "per plan: estimates minus featurize and tree walk",
            );
            let used: std::collections::HashSet<&(usize, SubSchema)> = sessions
                .iter()
                .flat_map(|ses| ses.peeled.regressors.keys())
                .collect();
            let fallbacks: u64 = used
                .into_iter()
                .filter_map(|(set, schema)| s.sets[*set].est.model_for(schema))
                .map(|m| m.fallback_count())
                .sum();
            report.metric(
                "estimator.fallbacks",
                fallbacks as f64,
                "LearnedEstimator::fallback_count over the local models used",
            );
            report.metric(
                "featurize.us_per_query",
                median(&trace.durations_us("featurize")),
                "singleton featurize, median per call",
            );
            report.metric(
                "ml.predict_us_per_row",
                median(&trace.durations_us("ml")),
                "Regressor::predict, median per row",
            );
            report.metric(
                "fingerprint.us_per_query",
                median(&trace.durations_us("fingerprint")),
                format!("CanonicalQuery::new, n={n}"),
            );
            report.metric(
                "optimizer.self_us_p50",
                opt_self,
                "optimize minus its estimate calls, per plan",
            );
            report.metric(
                "optimizer.probes_per_query",
                sum(&|ses| ses.probes) as f64 / plans,
                "OptimizeStats, whole run",
            );
            report.metric(
                "optimizer.misses_per_query",
                sum(&|ses| ses.misses) as f64 / plans,
                "OptimizeStats, whole run",
            );
            report.metric(
                "cache.hit_rate",
                hit_rate,
                format!(
                    "hits / probes of the cross-call caches, {} probes",
                    hits + misses
                ),
            );
            report.metric(
                "cache.invalidations",
                invalidations as f64,
                "EstimateCache::stats",
            );
            report.metric("cache.evictions", evictions as f64, "EstimateCache::stats");
            let publishes: Vec<f64> = sessions
                .iter()
                .flat_map(|ses| ses.publish_us.iter().copied())
                .collect();
            report.metric(
                "slot.publish_us",
                median(&publishes),
                format!("ModelSlot::try_publish, n={}", publishes.len()),
            );
            report.metric("slot.swaps", swaps as f64, "accepted publishes");
            trace.write_tsv(&trace_path("plan-job"));
        }
    }
    report
}
