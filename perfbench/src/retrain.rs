//! `retrain-drift`: the adaptation loop recovering from the paper's
//! §5.5.1 query drift.
//!
//! Set-up: a forest table and a labeled mixed workload split by
//! attribute count (`drift_split`: at most two attributes, or three and
//! more); each side is cut into a feedback stream and held-out test
//! queries. A GB × complex model trained on the low side serves from a
//! `ModelSlot`, watched by an `AdaptController` on an injected clock
//! that never advances, so budgets and cooldowns never expire and
//! outcomes repeat exactly. Candidates come from the benchmark's own
//! `CandidateTrainer` closure. The slot's persister is an
//! `AsyncCheckpointer` over a `CheckpointStore` on `MemFs`.
//!
//! Load: a closed loop on one thread. One operation is one
//! adaptation cycle: restore the low-side model through the slot's
//! publish gate, feed low-side ground truth (the drift detector's
//! baseline), then high-side ground truth, with a controller step after
//! every batch, until a swapped-in candidate passes probation. Every
//! cycle drifts low → high, the paper's direction: the reverse is no
//! drift for this model (a model trained on the high side is about as
//! accurate on the low side as on its own), so alternating sides would
//! leave every other cycle without drift. No serving code runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qfe::core::estimator::CardinalityEstimator;
use qfe::core::featurize::{AttributeSpace, LimitedDisjunctionEncoding};
use qfe::core::{q_error, Catalog, Query, TableId};
use qfe::data::forest::{generate_forest, ForestConfig};
use qfe::estimators::labels::{label_queries, LabeledQueries};
use qfe::estimators::LearnedEstimator;
use qfe::ml::gbdt::{Gbdt, GbdtConfig};
use qfe::obs::{MetricsRecorder, PageHinkleyConfig, Recorder};
use qfe::serve::adapt::AdaptClock;
use qfe::serve::{
    AdaptConfig, AdaptController, AdaptStats, AsyncCheckpointer, CandidateTrainer, FeedbackSink,
    ModelPersister, ModelSlot, SharedEstimator, StepReport,
};
use qfe::store::{CheckpointStore, MemFs, StoreConfig, StoreFs};
use qfe::workload::drift::drift_split;
use qfe::workload::{generate_mixed_with_data, MixedConfig};

use crate::common::{
    measure, median, repeated_setup, trace_path, Args, Cycle, Phases, Report, Run, Samples, Usage,
    POOL_WIDTH,
};
use crate::trace::Trace;

const TABLE: TableId = TableId(0);
const FOREST_ROWS: usize = 4_000;
const QUERIES: usize = 2_000;
const BUCKETS: usize = 12;
const GBDT_TREES: usize = 20;
/// Queries at or below this attribute count form the low side (§5.5.1).
const MAX_LOW_ATTRS: usize = 2;
/// Index of the low side, which the initial model is trained on.
const LOW: usize = 0;
/// Index of the high side, which every cycle drifts to.
const HIGH: usize = 1;
/// Queries the restore's publish gate validates.
const PROBE_QUERIES: usize = 16;
/// Held-out test queries per side.
const TEST_PER_SIDE: usize = 120;
/// Feedback pairs between two controller steps.
const FEED_BATCH: usize = 8;
/// Feedback pairs from the live model's own side that open a cycle.
const BASELINE_FEED: usize = 48;
/// Feedback pairs after which an unfinished cycle counts as failed.
const MAX_CYCLE_FEED: usize = 4_000;
/// Depth of the checkpointer's queue; a full queue drops (counted).
const CHECKPOINT_QUEUE: usize = 8;
/// The reported tail percentile.
const TAIL_Q: f64 = 0.9;
/// Window over which rate, tail and CPU per cycle are taken; a window
/// holds well over a hundred cycles, so its p90 has ten beyond it.
const WINDOW_S: f64 = 5.0;
/// Adaptation loops side by side, each on its own thread. With both
/// cores busy the per-cycle time is steady; a lone busy core's speed
/// swings by tens of per cent with the host's load.
const LOOPS: usize = 2;

fn adapt_config() -> AdaptConfig {
    AdaptConfig {
        reservoir_capacity: 256,
        detector: PageHinkleyConfig {
            delta: 0.05,
            lambda: 3.0,
            min_samples: 30,
        },
        // Long enough that the reservoir is mostly drifted pairs when
        // the retrain reads it, so the candidate clearly beats the live
        // model in shadow scoring.
        confirm_window: 224,
        cooldown: Duration::ZERO,
        train_budget: Duration::from_secs(60),
        min_train_samples: 48,
        holdout_fraction: 0.25,
        min_holdout: 12,
        shadow_z: 1.0,
        min_improvement: 0.98,
        probation_samples: 64,
        rollback_ratio: 4.0,
    }
}

fn fresh_learned(catalog: &Catalog) -> LearnedEstimator {
    let space = AttributeSpace::for_table(catalog, TABLE);
    LearnedEstimator::new(
        Box::new(LimitedDisjunctionEncoding::new(space, BUCKETS).expect("buckets > 0")),
        Box::new(Gbdt::new(GbdtConfig {
            n_trees: GBDT_TREES,
            min_samples_leaf: 3,
            max_leaves: 64,
            ..GbdtConfig::default()
        })),
    )
}

/// One trainer call as the closure measured it (traced half only).
struct TrainerCall {
    start: Instant,
    featurize: Duration,
    fit: Duration,
    rows: usize,
    cpu_us: f64,
}

#[derive(Default)]
struct TrainerLog {
    tracing: AtomicBool,
    calls: Mutex<Vec<TrainerCall>>,
}

/// The candidate trainer: GB × complex through
/// `LearnedEstimator::fit_within`. Traced, it first runs the bulk
/// featurize on its own, so featurize and boosting can be told apart.
fn trainer(catalog: Catalog, log: Arc<TrainerLog>) -> Arc<dyn CandidateTrainer> {
    Arc::new(
        move |data: &[(Query, f64)],
              should_continue: &mut dyn FnMut() -> bool|
              -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
            let pairs = LabeledQueries {
                queries: data.iter().map(|(q, _)| q.clone()).collect(),
                cardinalities: data.iter().map(|(_, t)| *t).collect(),
            };
            let mut model = fresh_learned(&catalog);
            if log.tracing.load(Ordering::Relaxed) {
                let start = Instant::now();
                model
                    .featurize_matrix(&pairs.queries)
                    .map_err(|e| e.to_string())?;
                let featurized = Instant::now();
                let cpu0 = Usage::now();
                model
                    .fit_within(&pairs, should_continue)
                    .map_err(|e| e.to_string())?;
                let cpu_us = Usage::now().since(cpu0).cpu_us;
                log.calls
                    .lock()
                    .expect("trainer log lock")
                    .push(TrainerCall {
                        start,
                        featurize: featurized - start,
                        fit: featurized.elapsed(),
                        rows: pairs.len(),
                        cpu_us,
                    });
            } else {
                model
                    .fit_within(&pairs, should_continue)
                    .map_err(|e| e.to_string())?;
            }
            Ok(Arc::new(model) as SharedEstimator)
        },
    )
}

struct Side {
    feed: LabeledQueries,
    test: LabeledQueries,
}

/// One adaptation loop's program objects.
struct AdaptLoop {
    slot: Arc<ModelSlot>,
    ctl: Arc<AdaptController>,
    ckpt: Arc<AsyncCheckpointer>,
    recorder: Arc<MetricsRecorder>,
    log: Arc<TrainerLog>,
}

impl AdaptLoop {
    fn new(catalog: &Catalog, initial: &SharedEstimator) -> Self {
        let slot = Arc::new(ModelSlot::new(SharedEstimator::clone(initial)));
        let recorder = Arc::new(MetricsRecorder::new());
        let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let store = CheckpointStore::open(fs, StoreConfig::new("checkpoints"))
            .expect("a store on MemFs opens");
        let ckpt = Arc::new(AsyncCheckpointer::new(Arc::new(store), CHECKPOINT_QUEUE));
        ckpt.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        slot.set_persister(Arc::clone(&ckpt) as Arc<dyn ModelPersister>);
        let log = Arc::new(TrainerLog::default());
        let clock: AdaptClock = Arc::new(|| Duration::ZERO);
        let ctl = Arc::new(AdaptController::with_clock(
            Arc::clone(&slot),
            trainer(catalog.clone(), Arc::clone(&log)),
            adapt_config(),
            clock,
        ));
        ctl.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>, "adapt");
        AdaptLoop {
            slot,
            ctl,
            ckpt,
            recorder,
            log,
        }
    }
}

struct Setup {
    /// The [`LOW`] and the [`HIGH`] side.
    sides: [Side; 2],
    /// The model trained on the low side, restored at every cycle start.
    initial: SharedEstimator,
    /// Probe queries for the restore's publish gate.
    probe: Vec<Query>,
    loops: Vec<AdaptLoop>,
}

fn select(labeled: &LabeledQueries, idx: &[usize]) -> LabeledQueries {
    LabeledQueries {
        queries: idx.iter().map(|&i| labeled.queries[i].clone()).collect(),
        cardinalities: idx.iter().map(|&i| labeled.cardinalities[i]).collect(),
    }
}

fn setup(phases: &mut Phases) -> Setup {
    let (db, queries) = phases.time("generate", || {
        let db = generate_forest(&ForestConfig {
            rows: FOREST_ROWS,
            quantitative_only: true,
            seed: 0xF0_4E57,
        });
        let queries = generate_mixed_with_data(&db, &MixedConfig::new(TABLE, QUERIES, 505));
        (db, queries)
    });
    let labeled = phases.time("label", || label_queries(&db, queries));
    let (low, high) = drift_split(&labeled.queries, MAX_LOW_ATTRS);
    let sides = [low, high].map(|idx| {
        let held_out = TEST_PER_SIDE.min(idx.len() / 4);
        Side {
            test: select(&labeled, &idx[..held_out]),
            feed: select(&labeled, &idx[held_out..]),
        }
    });
    let live = phases.time("train", || {
        let mut live = fresh_learned(db.catalog());
        live.fit(&sides[0].feed)
            .expect("mixed queries featurize under the complex QFT");
        live
    });
    phases.time("bind", || {
        let initial = Arc::new(live) as SharedEstimator;
        let probe = sides[LOW].test.queries[..PROBE_QUERIES].to_vec();
        let loops = (0..LOOPS)
            .map(|_| AdaptLoop::new(db.catalog(), &initial))
            .collect();
        Setup {
            sides,
            initial,
            probe,
            loops,
        }
    })
}

/// Step outcomes grouped for timing: idle, drift suspicion, retrain
/// (train, shadow score, publish) and probation verdicts.
const STEP_KINDS: [&str; 4] = ["idle", "suspected", "retrain", "probation"];

fn step_kind(report: &StepReport) -> usize {
    match report {
        StepReport::Idle => 0,
        StepReport::Suspected | StepReport::FalseAlarm | StepReport::CoolingDown => 1,
        StepReport::RetrainAborted { .. }
        | StepReport::ShadowRejected
        | StepReport::ShadowInconclusive
        | StepReport::SwapAccepted { .. } => 2,
        StepReport::ProbationPassed
        | StepReport::RolledBack { .. }
        | StepReport::ProbationAbandoned => 3,
    }
}

struct Cycler<'s> {
    s: &'s Setup,
    l: &'s AdaptLoop,
    id: u64,
    feeds: [Cycle; 2],
    cycles: u64,
    step_us: [Vec<f64>; 4],
    shadow_us: Vec<f64>,
    bulk_us_per_query: Vec<f64>,
    boost_s: Vec<f64>,
    fit_cpu_us: f64,
    fit_wall_us: f64,
}

impl Cycler<'_> {
    /// Publish the low-side model again, as an operator would, so the
    /// cycle starts from the paper's pre-drift state.
    fn restore(&self) -> bool {
        self.l
            .slot
            .try_publish(SharedEstimator::clone(&self.s.initial), &self.s.probe)
            .is_ok()
    }

    fn feed_one(&mut self, side: usize, op: u64, trace: Option<&mut Trace>) {
        let i = self.feeds[side].draw();
        let data = &self.s.sides[side].feed;
        let (query, truth) = (&data.queries[i], data.cardinalities[i]);
        let start = Instant::now();
        let estimate = self.l.slot.estimate(query);
        let mid = Instant::now();
        self.l.ctl.feedback(query, truth, estimate);
        if let Some(trace) = trace {
            trace.record(op, "estimator", "cycle", start, mid);
            trace.record(op, "adapt.feedback", "cycle", mid, Instant::now());
        }
    }

    /// One adaptation cycle; true when it ends in a swapped-in candidate
    /// passing probation. A step that returns to `Stable` without a swap
    /// restarts the cycle from its baseline feed, since the detector was
    /// reset and needs a baseline again.
    fn cycle(&mut self, op: u64, mut trace: Option<&mut Trace>) -> bool {
        let restored = trace.as_deref_mut().map_or_else(
            || self.restore(),
            |t| t.time(op, "slot.publish", "cycle", || self.restore()),
        );
        if !restored {
            return false;
        }
        let (mut fed, mut since_baseline, mut swapped) = (0usize, 0usize, false);
        while fed < MAX_CYCLE_FEED {
            let side = if since_baseline < BASELINE_FEED {
                LOW
            } else {
                HIGH
            };
            for _ in 0..FEED_BATCH {
                self.feed_one(side, op, trace.as_deref_mut());
            }
            fed += FEED_BATCH;
            since_baseline += FEED_BATCH;
            let start = Instant::now();
            let report = self.l.ctl.step();
            let end = Instant::now();
            let step_us = (end - start).as_secs_f64() * 1e6;
            self.step_us[step_kind(&report)].push(step_us);
            if let Some(trace) = trace.as_deref_mut() {
                trace.record(op, "adapt.step", "cycle", start, end);
                self.trainer_spans(op, step_us, trace);
            }
            match report {
                StepReport::SwapAccepted { .. } => swapped = true,
                StepReport::ProbationPassed if swapped => return true,
                StepReport::RetrainAborted { .. }
                | StepReport::ShadowRejected
                | StepReport::ShadowInconclusive
                | StepReport::RolledBack { .. }
                | StepReport::ProbationAbandoned
                | StepReport::FalseAlarm => {
                    swapped = false;
                    since_baseline = 0;
                }
                _ => {}
            }
        }
        false
    }

    /// Record the trainer call a step made, if any, as nested spans.
    fn trainer_spans(&mut self, op: u64, step_us: f64, trace: &mut Trace) {
        let calls: Vec<TrainerCall> =
            std::mem::take(&mut *self.l.log.calls.lock().expect("trainer log lock"));
        for call in calls {
            let featurized = call.start + call.featurize;
            let fitted = featurized + call.fit;
            trace.record(op, "trainer", "adapt.step", call.start, fitted);
            trace.record(op, "featurize.bulk", "trainer", call.start, featurized);
            trace.record(op, "ml.fit", "trainer", featurized, fitted);
            let (featurize_us, fit_us) = (
                call.featurize.as_secs_f64() * 1e6,
                call.fit.as_secs_f64() * 1e6,
            );
            self.shadow_us.push(step_us - featurize_us - fit_us);
            self.bulk_us_per_query
                .push(featurize_us / call.rows.max(1) as f64);
            self.boost_s.push((fit_us - featurize_us) / 1e6);
            self.fit_cpu_us += call.cpu_us;
            self.fit_wall_us += fit_us;
        }
    }

    /// Q-errors of the live model on the held-out queries of `side`.
    fn qerrors(&self, side: usize, out: &mut Vec<f64>) {
        let test = &self.s.sides[side].test;
        let live = self.l.slot.load();
        for (result, &truth) in live
            .estimate_batch(&test.queries)
            .iter()
            .zip(&test.cardinalities)
        {
            if let Ok(est) = result {
                out.push(q_error(truth, est.value));
            }
        }
    }
}

/// One per-loop sample series, concatenated over all loops.
fn merged<'a, 's>(
    cyclers: &'a [Cycler<'s>],
    pick: impl Fn(&'a Cycler<'s>) -> &'a Vec<f64>,
) -> Vec<f64> {
    cyclers
        .iter()
        .flat_map(|d| pick(d).iter().copied())
        .collect()
}

/// Run every loop's cycles on its own thread for `seconds`.
fn timed_phase(cyclers: &mut [Cycler<'_>], seconds: f64, traced: bool) -> (Run, (Trace, Vec<u64>)) {
    let clock = measure(seconds, WINDOW_S, |epoch, until| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = cyclers
                .iter_mut()
                .map(|d| {
                    scope.spawn(move || {
                        let mut samples = Samples::default();
                        let mut trace = Trace::new(epoch);
                        let mut ops = Vec::new();
                        while Instant::now() < until {
                            let op = d.id << 40 | d.cycles;
                            d.cycles += 1;
                            let start = Instant::now();
                            let ok = d.cycle(op, traced.then_some(&mut trace));
                            let end = Instant::now();
                            if traced {
                                trace.record(op, "cycle", "client", start, end);
                                ops.push(op);
                            }
                            if ok {
                                d.qerrors(HIGH, &mut samples.qerrors);
                            }
                            samples.op(epoch, start, end, ok);
                        }
                        (samples, trace, ops)
                    })
                })
                .collect();
            let mut samples = Samples::default();
            let mut trace = Trace::new(epoch);
            let mut ops = Vec::new();
            for h in handles {
                let (s, t, o) = h.join().expect("adaptation loop thread");
                samples.absorb(s);
                trace.absorb(t);
                ops.extend(o);
            }
            (samples, (trace, ops))
        })
    });
    Run::new(clock)
}

pub fn run(args: &Args, started: Instant) -> Report {
    let (s, setup_times) = repeated_setup(started, setup);
    println!(
        "retrain-drift: low side {} feed / {} test, high side {} feed / {} test queries; \
         {LOOPS} adaptation loops, each a closed loop on its own thread with its own slot, \
         controller and checkpointer; injected clock (never advances)",
        s.sides[0].feed.len(),
        s.sides[0].test.len(),
        s.sides[1].feed.len(),
        s.sides[1].test.len()
    );
    println!(
        "persistence: AsyncCheckpointer (one writer thread, queue depth {CHECKPOINT_QUEUE}, \
         drop when full) over CheckpointStore on MemFs (write temp, fsync, read back, rename, \
         fsync directory; retain 3); every publish (restore or accepted swap) enqueues one \
         checkpoint"
    );
    let mut cyclers: Vec<Cycler> = s
        .loops
        .iter()
        .zip(0u64..)
        .map(|(l, id)| Cycler {
            s: &s,
            l,
            id,
            feeds: [0, 1].map(|side| {
                Cycle::new(
                    s.sides[side].feed.len(),
                    args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (2 * id + side as u64 + 1),
                )
            }),
            cycles: 0,
            step_us: Default::default(),
            shadow_us: Vec::new(),
            bulk_us_per_query: Vec::new(),
            boost_s: Vec::new(),
            fit_cpu_us: 0.0,
            fit_wall_us: 0.0,
        })
        .collect();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, _) = timed_phase(&mut cyclers, seconds, false);
    let traced = args.trace.then(|| {
        for l in &s.loops {
            l.log.tracing.store(true, Ordering::Relaxed);
        }
        timed_phase(&mut cyclers, seconds, true)
    });

    let mut report = Report::new(args.trace);
    let stats: Vec<AdaptStats> = s.loops.iter().map(|l| l.ctl.stats()).collect();
    let total = |f: &dyn Fn(&AdaptStats) -> u64| stats.iter().map(f).sum::<u64>();
    report.gate(
        stats.iter().all(|st| {
            st.retrain_triggered
                == st.shadow_accepted
                    + st.shadow_rejected
                    + st.shadow_inconclusive
                    + st.retrain_aborted
        }),
        format!(
            "every loop conserves triggered = accepted + rejected + inconclusive + aborted \
             ({} = {} + {} + {} + {} in all)",
            total(&|st| st.retrain_triggered),
            total(&|st| st.shadow_accepted),
            total(&|st| st.shadow_rejected),
            total(&|st| st.shadow_inconclusive),
            total(&|st| st.retrain_aborted)
        ),
    );
    let mut recovered = Vec::new();
    let (mut enqueued, mut dropped) = (0, 0);
    for l in &s.loops {
        l.ckpt.shutdown();
        let (e, d, _) = l.ckpt.stats();
        enqueued += e;
        dropped += d;
        let newest = l.ckpt.store().recover().ok().and_then(|r| r.latest);
        let published = l.slot.load().snapshot_bytes();
        let same = matches!((&newest, &published), (Some(ck), Some(bytes)) if ck.model == *bytes);
        recovered.push((newest, same));
    }
    report.gate(
        recovered.iter().all(|(_, same)| *same),
        "every loop's newest MemFs checkpoint recovers to its published snapshot bytes",
    );

    match traced {
        None => report.end_to_end(&setup_times, &untraced, TAIL_Q, "cycle"),
        Some((traced_run, (trace, ops))) => {
            report.attempted = untraced.ok + untraced.failed + traced_run.ok + traced_run.failed;
            report.failed = untraced.failed + traced_run.failed;
            setup_times.report_phases(&mut report);
            let totals = trace.totals();
            let per_op = |layer| {
                ops.iter()
                    .map(|&op| totals.get(op, layer))
                    .collect::<Vec<_>>()
            };
            let estimator = median(&per_op("estimator"));
            let adapt_self: Vec<f64> = ops
                .iter()
                .map(|&op| {
                    totals.self_time(op, "adapt.step", &["trainer"])
                        + totals.get(op, "adapt.feedback")
                })
                .collect();
            let adapt_self = median(&adapt_self);
            let featurize = median(&per_op("featurize.bulk"));
            let boost = median(&totals.self_per_op(&ops, "ml.fit", &["featurize.bulk"]));
            let attributed = estimator + adapt_self + featurize + boost;
            report.attribution(
                &untraced.latencies_us,
                &traced_run.latencies_us,
                attributed,
                "cycle",
            );
            report.metric(
                "estimator.us_p50",
                median(&trace.durations_us("estimator")),
                "live-model estimate per feedback pair",
            );
            let bulk = merged(&cyclers, |d| &d.bulk_us_per_query);
            report.metric(
                "featurize.bulk_us_per_query",
                median(&bulk),
                format!("per retrain, n={}", bulk.len()),
            );
            report.metric(
                "ml.boost_s",
                median(&merged(&cyclers, |d| &d.boost_s)),
                "fit_within minus the bulk featurize, per retrain",
            );
            let fit_cpu: f64 = cyclers.iter().map(|d| d.fit_cpu_us).sum();
            let fit_wall: f64 = cyclers.iter().map(|d| d.fit_wall_us).sum();
            report.metric(
                "ml.boost_cpu_per_wall",
                fit_cpu / (fit_wall * POOL_WIDTH as f64).max(1.0),
                format!(
                    "process CPU during fit_within / (its wall x pool width {POOL_WIDTH}); \
                     the other loop's work counts too"
                ),
            );
            for (i, name) in [
                "adapt.step_us.idle",
                "adapt.step_us.suspected",
                "adapt.step_us.retrain",
                "adapt.step_us.probation",
            ]
            .into_iter()
            .enumerate()
            {
                let steps = merged(&cyclers, |d| &d.step_us[i]);
                report.metric(
                    name,
                    median(&steps),
                    format!("{} steps, n={}", STEP_KINDS[i], steps.len()),
                );
            }
            report.metric(
                "adapt.shadow_us",
                median(&merged(&cyclers, |d| &d.shadow_us)),
                "retrain step minus its trainer call: shadow scoring and probe-gated publish",
            );
            report.metric(
                "adapt.triggered",
                total(&|st| st.retrain_triggered) as f64,
                "AdaptController::stats, all loops",
            );
            report.metric(
                "adapt.accepted",
                total(&|st| st.shadow_accepted) as f64,
                "AdaptController::stats, all loops",
            );
            report.metric(
                "adapt.rejected",
                total(&|st| st.shadow_rejected) as f64,
                "AdaptController::stats, all loops",
            );
            report.metric(
                "adapt.inconclusive",
                total(&|st| st.shadow_inconclusive) as f64,
                "AdaptController::stats, all loops",
            );
            report.metric(
                "adapt.aborted",
                total(&|st| st.retrain_aborted) as f64,
                "AdaptController::stats, all loops",
            );
            report.metric(
                "adapt.rolled_back",
                total(&|st| st.probation_rolled_back) as f64,
                "AdaptController::stats, all loops",
            );
            report.metric(
                "slot.swaps",
                s.loops.iter().map(|l| l.slot.swap_counts().0).sum::<u64>() as f64,
                "ModelSlot::swap_counts, all loops",
            );
            let saves = s.loops[0].recorder.snapshot();
            let save = saves.histogram("persist.save");
            report.metric(
                "store.save_us",
                save.map_or(0.0, |h| h.p50_nanos() as f64 / 1e3),
                format!(
                    "persist.save p50 of the first loop, log2-bucket upper bound, n={}",
                    save.map_or(0, |h| h.count)
                ),
            );
            report.metric(
                "store.bytes_per_ckpt",
                recovered[0]
                    .0
                    .as_ref()
                    .map_or(0.0, |ck| ck.encode().len() as f64),
                "the first loop's newest checkpoint, encoded",
            );
            report.metric(
                "store.enqueued",
                enqueued as f64,
                "AsyncCheckpointer::stats, all loops",
            );
            report.metric(
                "store.dropped",
                dropped as f64,
                "AsyncCheckpointer::stats, all loops",
            );
            trace.write_tsv(&trace_path("retrain-drift"));
        }
    }
    report
}
