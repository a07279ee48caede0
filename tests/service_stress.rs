//! Concurrency stress for the serving front end: 8 threads hammer an
//! [`EstimatorService`] whose stages panic, emit NaN, error, and stall —
//! while a background thread hot-swaps the primary model (including
//! deliberately invalid candidates).
//!
//! The acceptance contract under all of that:
//!
//! - no panic ever escapes the service (worker threads join cleanly);
//! - every response is a finite estimate `>= 1` or a typed
//!   [`ServeError`] (`Overloaded` / `DeadlineExceeded`) — nothing else;
//! - breaker counters stay internally consistent (reclose requires a
//!   probe, a probe requires an open, skips match the typed skip errors);
//! - the hot-swap slot never serves a candidate that failed validation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qfe::core::{CardinalityEstimator, Deadline, Query, TableId};
use qfe::estimators::BreakerConfig;
use qfe::ml::chaos::{ChaosEstimator, EstimatorFault};
use qfe::serve::{
    install_quiet_panic_hook, EstimatorService, MicroBatcher, ModelSlot, ServeError, ServiceConfig,
    SharedEstimator, ShedPolicy, SwapError,
};

struct Fixed(f64);

impl CardinalityEstimator for Fixed {
    fn name(&self) -> String {
        "fixed".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        self.0
    }
}

/// Adapter: a shared [`ModelSlot`] as an owned chaos-wrappable stage.
struct SlotStage(Arc<ModelSlot>);

impl CardinalityEstimator for SlotStage {
    fn name(&self) -> String {
        self.0.name()
    }
    fn estimate(&self, q: &Query) -> f64 {
        self.0.estimate(q)
    }
    fn try_estimate(&self, q: &Query) -> Result<qfe::core::Estimate, qfe::core::EstimateError> {
        self.0.try_estimate(q)
    }
}

struct Stalling {
    delay: Duration,
}

impl CardinalityEstimator for Stalling {
    fn name(&self) -> String {
        "stalling".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        std::thread::sleep(self.delay);
        33.0
    }
}

fn query() -> Query {
    Query::single_table(TableId(0), vec![])
}

/// Stress volume: `(threads, requests_per_thread)`, scaled down by the
/// `QFE_SCALE` env var (`smoke` in CI keeps the wall-clock short; the
/// default exercises the full load).
fn stress_scale() -> (usize, u64) {
    match std::env::var("QFE_SCALE").as_deref() {
        Ok("smoke") => (4, 15),
        Ok("small") => (6, 30),
        _ => (8, 60),
    }
}

/// Values the swap thread successfully publishes; anything else coming
/// out of the slot stage is a validation hole.
const INITIAL: f64 = 100.0;
const REPLACEMENT: f64 = 42.0;

#[test]
fn chaos_stress_upholds_the_response_contract() {
    install_quiet_panic_hook(vec![ChaosEstimator::<Fixed>::PANIC_MSG.to_owned()]);

    let slot = Arc::new(ModelSlot::new(Arc::new(Fixed(INITIAL))));
    let stages: Vec<SharedEstimator> = vec![
        // Primary: the hot-swap slot, behind chaos that panics, NaNs, and
        // errors on 40% of calls.
        Arc::new(ChaosEstimator::new(
            SlotStage(Arc::clone(&slot)),
            vec![
                EstimatorFault::Panic,
                EstimatorFault::Nan,
                EstimatorFault::Error,
            ],
            0.4,
            7,
        )),
        // Secondary: correct but sometimes slow (8ms stalls on 30% of
        // calls, against a 40ms request budget shared fairly).
        Arc::new(
            ChaosEstimator::new(Fixed(60.0), vec![EstimatorFault::Latency], 0.3, 11)
                .with_latency(Duration::from_millis(8)),
        ),
        // Tertiary: boring and reliable.
        Arc::new(Fixed(25.0)),
    ];
    let svc = Arc::new(EstimatorService::new(
        stages,
        ServiceConfig {
            max_concurrency: 4,
            queue_capacity: 2,
            shed_policy: ShedPolicy::RejectNew,
            default_budget: Duration::from_millis(40),
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown: Duration::from_millis(5),
                max_cooldown: Duration::from_millis(50),
            },
            floor: 1.0,
            ..ServiceConfig::default()
        },
    ));

    let (threads, per_thread) = stress_scale();
    let ok = Arc::new(AtomicU64::new(0));
    let deadline_errs = Arc::new(AtomicU64::new(0));
    let overload_errs = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let ok = Arc::clone(&ok);
            let deadline_errs = Arc::clone(&deadline_errs);
            let overload_errs = Arc::clone(&overload_errs);
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    match svc.estimate_within(&query(), Deadline::within(Duration::from_millis(40)))
                    {
                        Ok(est) => {
                            assert!(
                                est.value.is_finite() && est.value >= 1.0,
                                "illegal estimate escaped the service: {est:?}"
                            );
                            if est.fallback_depth == 0 {
                                // The slot answered: only validated models
                                // may ever speak through it.
                                assert!(
                                    est.value == INITIAL || est.value == REPLACEMENT,
                                    "unvalidated model served: {est:?}"
                                );
                            }
                            // Feed the online q-error tracker; the
                            // "truth" is synthetic but finite, which is
                            // all the tracker contract needs.
                            svc.observe_truth(50.0, est.value).expect("finite pair");
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::DeadlineExceeded { .. }) => {
                            deadline_errs.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            overload_errs.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // Mid-stress hot swapping: invalid candidates must bounce, valid ones
    // must land, and neither may disturb in-flight requests.
    let swapper = {
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || {
            let probe: Vec<Query> = (0..4).map(|_| query()).collect();
            let mut published = 0u64;
            for _ in 0..20 {
                let nan = slot.try_publish(Arc::new(Fixed(f64::NAN)), &probe);
                assert!(matches!(nan, Err(SwapError::ProbeFailed { .. })), "{nan:?}");
                let low = slot.try_publish(Arc::new(Fixed(0.5)), &probe);
                assert!(matches!(low, Err(SwapError::ProbeFailed { .. })), "{low:?}");
                slot.try_publish(Arc::new(Fixed(REPLACEMENT)), &probe)
                    .expect("valid candidate must publish");
                published += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            published
        })
    };

    // "No panic escapes" is literal: a panic crossing the service
    // boundary would fail these joins.
    for w in workers {
        w.join().expect("worker thread must not see a panic");
    }
    let published = swapper.join().expect("swap thread must not panic");

    // Every request is accounted for, exactly once, with a typed outcome.
    let total = (threads as u64) * per_thread;
    let (ok, deadline_errs, overload_errs) = (
        ok.load(Ordering::Relaxed),
        deadline_errs.load(Ordering::Relaxed),
        overload_errs.load(Ordering::Relaxed),
    );
    assert_eq!(ok + deadline_errs + overload_errs, total);
    assert!(ok > 0, "chaos at 40% must not starve the service entirely");

    let stats = svc.stats();
    assert_eq!(stats.answered, ok, "service counted every success");
    assert_eq!(
        stats.deadline_exceeded + stats.admission.queue_timeouts,
        deadline_errs,
        "deadline errors come from the stage loop or the queue, nowhere else"
    );
    assert_eq!(
        stats.admission.rejected + stats.admission.shed,
        overload_errs,
        "overload errors come from admission, nowhere else"
    );
    assert_eq!(stats.admission.running, 0, "all permits released");
    assert_eq!(stats.admission.queued, 0, "queue drained");

    // Breaker bookkeeping must be internally consistent per stage.
    let mut stage_hits = 0;
    for stage in &stats.stages {
        let b = &stage.breaker;
        assert!(
            b.reclosed <= b.probes && b.probes <= b.opened,
            "close needs a probe, a probe needs an open: {b:?} on {}",
            stage.name
        );
        let skip_errors = stage
            .errors
            .iter()
            .find(|(label, _)| *label == "circuit-open")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert_eq!(
            stage.skipped_open, skip_errors,
            "every breaker skip is recorded as a typed circuit-open error"
        );
        stage_hits += stage.hits;
    }
    assert_eq!(
        stage_hits + stats.floor_answers,
        stats.answered,
        "every answer came from a stage or the floor"
    );
    // The primary stage fails 40% of the time with threshold 4: the
    // breaker must have actually opened (and therefore skipped calls).
    assert!(
        stats.stages[0].breaker.opened > 0,
        "chaos must trip the primary's breaker: {:?}",
        stats.stages[0]
    );

    // The swap thread's view and the slot's view agree.
    let (published_count, rejected_count) = slot.swap_counts();
    assert_eq!(published_count, published);
    assert_eq!(rejected_count, 2 * published);
    assert_eq!(slot.generation(), published);

    // ── Metrics snapshot over the same run ─────────────────────────────
    let m = svc.metrics();
    // Every request — successes and typed errors alike — shows up in the
    // end-to-end latency histogram, with real (non-zero) latency.
    let e2e = m
        .histogram(qfe::serve::REQUEST_LATENCY_METRIC)
        .expect("end-to-end latency histogram");
    assert_eq!(e2e.count, total);
    assert!(e2e.sum_nanos > 0, "non-zero end-to-end latency");
    assert!(e2e.p99_nanos() >= e2e.p50_nanos());
    assert!(e2e.max_nanos >= e2e.p99_nanos());
    // The merged counters agree with the stats() view of the same run.
    assert_eq!(m.counter("serve.answered"), stats.answered);
    assert_eq!(m.counter("serve.floor.answers"), stats.floor_answers);
    assert_eq!(m.counter("serve.queue.admitted"), stats.admission.admitted);
    for (i, stage) in stats.stages.iter().enumerate() {
        assert_eq!(m.counter(&format!("serve.stage{i}.hits")), stage.hits);
        // Breaker transitions were recorded live at transition time; they
        // must mirror the breaker's own counters, not double them.
        assert_eq!(
            m.counter(&format!("serve.stage{i}.breaker.opened")),
            stage.breaker.opened
        );
        assert_eq!(
            m.counter(&format!("serve.stage{i}.breaker.reclosed")),
            stage.breaker.reclosed
        );
    }
    assert!(
        m.counter("serve.stage0.breaker.opened") > 0,
        "breaker transitions visible in the snapshot"
    );
    // The q-error tracker summarized the observed (truth, estimate) pairs.
    let qe = m.qerror.as_ref().expect("q-error summary after stress");
    assert!(qe.median.is_finite() && qe.median >= 1.0);
    // The JSON rendering carries the whole pipeline's metrics.
    let json = m.to_json();
    assert!(json.contains("\"serve.request.latency\""), "{json}");
    assert!(json.contains("\"qerror\":{"), "{json}");
}

#[test]
fn micro_batcher_stress_keeps_every_counter_coherent() {
    // Many threads submit singletons through the batcher; every tenth
    // submission arrives with an already-dead budget and must be
    // withdrawn before dispatch. The acceptance contract: every
    // submission is shed, expired, or dispatched (exactly once), the
    // service's batched-path counters agree with the batcher's, and the
    // batch metrics surface in both renderings of the snapshot.
    let svc = Arc::new(EstimatorService::new(
        vec![Arc::new(Fixed(77.0)) as SharedEstimator],
        ServiceConfig {
            max_concurrency: 4,
            queue_capacity: 256,
            workers: 3,
            max_batch_size: 8,
            default_budget: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
    ));
    let batcher = Arc::new(MicroBatcher::new(Arc::clone(&svc)));
    let (threads, per_thread) = stress_scale();
    let ok = Arc::new(AtomicU64::new(0));
    let expired = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let batcher = Arc::clone(&batcher);
            let ok = Arc::clone(&ok);
            let expired = Arc::clone(&expired);
            std::thread::spawn(move || {
                for j in 0..per_thread {
                    if j % 10 == 9 {
                        let err = batcher
                            .submit_within(&query(), Deadline::within(Duration::ZERO))
                            .expect_err("a dead budget cannot be answered");
                        assert!(
                            matches!(
                                err,
                                ServeError::DeadlineExceeded {
                                    stages_tried: 0,
                                    admitted: false,
                                    ..
                                }
                            ),
                            "{err:?}"
                        );
                        expired.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let est = batcher.submit(&query()).expect("queue is large enough");
                        assert_eq!((est.value, est.fallback_depth), (77.0, 0));
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("submitter must not see a panic");
    }

    let total = (threads as u64) * per_thread;
    let (ok, expired) = (ok.load(Ordering::Relaxed), expired.load(Ordering::Relaxed));
    assert_eq!(ok + expired, total);

    // Batcher-side conservation: submitted = shed + expired + dispatched.
    let bs = batcher.stats();
    assert_eq!(bs.submitted, total);
    assert_eq!(bs.queued, 0, "all submitters returned, queue drained");
    assert_eq!(bs.submitted, bs.shed + bs.expired + bs.dispatched);
    assert_eq!(bs.shed, 0, "the 256-slot queue never fills at this load");
    assert_eq!(bs.expired, expired);
    assert_eq!(bs.dispatched, ok);

    // Service-side agreement: every dispatched row (and only those)
    // went through the batched path and was answered.
    let stats = svc.stats();
    assert_eq!(stats.batched_requests, bs.dispatched);
    assert_eq!(stats.answered, ok);
    assert!(
        stats.batch_drains >= 1 && stats.batch_drains <= bs.dispatched,
        "drains bounded by rows: {stats:?}"
    );

    // The snapshot carries the same numbers under the serve.batch.* names
    // and renders them in both output formats.
    let m = svc.metrics();
    assert_eq!(m.counter("serve.batch.submitted"), bs.submitted);
    assert_eq!(m.counter("serve.batch.shed"), bs.shed);
    assert_eq!(m.counter("serve.batch.expired"), bs.expired);
    assert_eq!(m.counter("serve.batch.drains"), stats.batch_drains);
    assert_eq!(m.counter("serve.batched_requests"), stats.batched_requests);
    let sizes = m
        .histogram(qfe::serve::BATCH_SIZE_METRIC)
        .expect("batch size histogram");
    assert_eq!(sizes.count, stats.batch_drains);
    assert_eq!(sizes.sum_nanos, stats.batched_requests);
    assert!(
        sizes.max_nanos <= 8,
        "no batch may exceed max_batch_size: {sizes:?}"
    );
    // Amortized end-to-end latency: one histogram entry per batched row.
    let e2e = m
        .histogram(qfe::serve::REQUEST_LATENCY_METRIC)
        .expect("e2e latency histogram");
    assert_eq!(e2e.count, stats.batched_requests);
    let json = m.to_json();
    assert!(json.contains("\"serve.batch.size\""), "{json}");
    assert!(json.contains("\"serve.batched_requests\""), "{json}");
    assert!(json.contains("\"serve.batch.drains\""), "{json}");
    let text = m.render_text();
    assert!(text.contains("serve.batch.size"), "{text}");
    assert!(text.contains("serve.batch.submitted"), "{text}");
}

#[test]
fn sustained_overload_sheds_with_typed_provenance() {
    // One slot, no queue to speak of, and a stage that holds its permit
    // for 20ms: most of the burst must be turned away, every rejection
    // typed, and the service must recover to idle afterwards.
    let svc = Arc::new(EstimatorService::new(
        vec![Arc::new(Stalling {
            delay: Duration::from_millis(20),
        }) as SharedEstimator],
        ServiceConfig {
            max_concurrency: 1,
            queue_capacity: 1,
            shed_policy: ShedPolicy::ShedOldest,
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                ..BreakerConfig::default()
            },
            ..ServiceConfig::default()
        },
    ));

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.estimate_within(&query(), Deadline::within(Duration::from_millis(250)))
            })
        })
        .collect();
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no panic under overload"))
        .collect();

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
        .count();
    let deadline = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServeError::DeadlineExceeded { .. })))
        .count();
    assert_eq!(ok + shed + deadline, 6, "only typed outcomes");
    assert!(ok >= 1, "the slot holder and queue survivors finish");
    for r in outcomes.iter().flatten() {
        assert_eq!(r.value, 33.0);
    }
    // Shed requests carry provenance naming the policy that shed them.
    if let Some(Err(e)) = outcomes
        .iter()
        .find(|r| matches!(r, Err(ServeError::Overloaded { .. })))
    {
        let msg = e.to_string();
        assert!(msg.contains("shed-oldest"), "{msg}");
    }
    let stats = svc.stats();
    assert_eq!(stats.admission.running, 0);
    assert_eq!(stats.admission.queued, 0);
    assert_eq!(stats.admission.shed + stats.admission.rejected, shed as u64);
}
