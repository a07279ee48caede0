//! The deadline-aware estimation front end.
//!
//! [`EstimatorService`] wraps an ordered stack of estimator stages
//! (typically: hot-swappable learned model → histogram baseline →
//! sampling) behind one thread-safe request surface with four layers of
//! protection, outermost first:
//!
//! 1. **Admission** ([`crate::admission`]): at most `max_concurrency`
//!    requests run at once; a bounded queue absorbs bursts and sheds load
//!    beyond it with a typed [`ServeError::Overloaded`].
//! 2. **Deadline** ([`qfe_core::Deadline`]): every request carries a time
//!    budget through the stage loop. Each stage gets a *fair share* of the
//!    remaining budget (`remaining / stages_left`), so a stalled learned
//!    stage is abandoned mid-chain and the leftover budget flows to the
//!    cheap fallbacks instead of dying with the stall.
//! 3. **Panic isolation**: every stage call runs under `catch_unwind`
//!    (on a reused runner thread from [`crate::runner`] when a real budget
//!    applies, so a stalled call can be abandoned); a panicking model
//!    becomes a per-stage failure that falls through — it never crosses
//!    the service boundary and never poisons another request.
//! 4. **Circuit breaking** ([`qfe_estimators::breaker`]): consecutive
//!    failures open a per-stage breaker, so a corrupt or drifted model is
//!    *skipped* (fast typed `CircuitOpen`) instead of burning every
//!    request's budget, and probed back in after an exponential cooldown.
//!
//! One stage loop serves singletons and batches alike (a singleton walks
//! a one-row batch). The response contract holds under concurrency:
//! every request gets a finite [`Estimate`] `>= 1` (a real stage or the
//! constant floor) or a typed [`ServeError`] — never a panic, never NaN,
//! under any interleaving of failures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use qfe_core::error::EstimateErrorKind;
use qfe_core::estimator::Estimate;
use qfe_core::{Deadline, Query};
use qfe_estimators::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use qfe_obs::{MetricsRecorder, MetricsSnapshot, QErrorWindow, Recorder};

use crate::adapt::FeedbackSink;
use crate::admission::{AdmissionQueue, AdmissionStats};
use crate::error::{FeedbackError, ServeError, ShedPolicy};
use crate::runner::{self, RunOutcome};
use crate::slot::SharedEstimator;

/// Truths above this are treated as corrupted upstream counters (no real
/// table has 10^18 rows) and rejected as [`FeedbackError::AbsurdTruth`].
const ABSURD_TRUTH: f64 = 1e18;

/// Tuning for an [`EstimatorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests executing concurrently; more wait in the queue.
    pub max_concurrency: usize,
    /// Waiting requests beyond which the service sheds load.
    pub queue_capacity: usize,
    /// Who eats the `Overloaded` error when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Budget used by [`EstimatorService::estimate`] when the caller does
    /// not bring a deadline of their own.
    pub default_budget: Duration,
    /// Breaker tuning applied to every stage.
    pub breaker: BreakerConfig,
    /// The constant answered when every stage fails within budget
    /// (clamped finite and `>= 1`).
    pub floor: f64,
    /// Sliding-window size of the online q-error tracker fed by
    /// [`EstimatorService::observe_truth`]. The window *size* is clamped
    /// to `>= 1`; observed pairs are never clamped on entry — an invalid
    /// truth or estimate is rejected with a typed [`FeedbackError`]
    /// instead. Accepted truths in `(0, 1)` (sub-row cardinalities) are
    /// treated as 1 only inside the q-error computation itself.
    pub qerror_window: usize,
    /// Most batches one shard dispatches at once: the cap on concurrent
    /// dispatches of a [`crate::batch::MicroBatcher`] over this service
    /// (clamped to `>= 1`, and at most the compute pool's width).
    pub workers: usize,
    /// Most requests a micro-batcher coalesces into one batched
    /// dispatch (clamped to `>= 1`).
    pub max_batch_size: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrency: 8,
            queue_capacity: 16,
            shed_policy: ShedPolicy::RejectNew,
            default_budget: Duration::from_millis(100),
            breaker: BreakerConfig::default(),
            floor: 1.0,
            qerror_window: 1024,
            workers: 2,
            max_batch_size: 32,
        }
    }
}

/// End-to-end request latency histogram name (admission wait included).
pub const REQUEST_LATENCY_METRIC: &str = "serve.request.latency";

/// Batch-size histogram name. Sizes are recorded on the histogram's
/// nanosecond scale (a 32-row batch records as 32 ns), so `count` is the
/// number of drains, `sum` the total rows, and the percentiles read
/// directly as batch sizes.
pub const BATCH_SIZE_METRIC: &str = "serve.batch.size";

/// Budgets at or above this are treated as "no real deadline": the stage
/// runs inline (still panic-isolated) instead of on a runner thread.
const INLINE_BUDGET: Duration = Duration::from_secs(60 * 60);

struct StageSlot {
    est: SharedEstimator,
    /// Captured at construction; hot-swapped inner models keep the
    /// stage's label for provenance (the *slot* answered).
    name: String,
    breaker: CircuitBreaker,
    hits: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    skipped_open: AtomicU64,
    errors: [AtomicU64; EstimateErrorKind::COUNT],
    /// Precomputed `serve.stage<i>.latency` histogram name.
    latency_metric: String,
}

impl StageSlot {
    fn record_error(&self, kind: EstimateErrorKind) {
        self.record_error_n(kind, 1);
    }

    fn record_error_n(&self, kind: EstimateErrorKind, n: u64) {
        self.errors[kind.as_index()].fetch_add(n, Ordering::Relaxed);
    }
}

/// Per-stage serving counters, one coherent snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageServiceStats {
    /// Stage label (`name()` at construction).
    pub name: String,
    /// Requests this stage answered.
    pub hits: u64,
    /// Stage calls abandoned on their budget share.
    pub timeouts: u64,
    /// Stage calls that panicked (contained).
    pub panics: u64,
    /// Requests that skipped the stage because its breaker was open.
    pub skipped_open: u64,
    /// All stage failures bucketed by [`EstimateErrorKind`] label.
    pub errors: Vec<(&'static str, u64)>,
    /// Breaker state and transition counters.
    pub breaker: BreakerStats,
}

/// Service-wide counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered with an estimate (stage or floor).
    pub answered: u64,
    /// Of those, answered by the constant floor.
    pub floor_answers: u64,
    /// Requests that returned [`ServeError::DeadlineExceeded`] after
    /// admission.
    pub deadline_exceeded: u64,
    /// Admission-layer counters (running, queued, shed, rejected, …).
    pub admission: AdmissionStats,
    /// Batched dispatches through
    /// [`estimate_batch`](EstimatorService::estimate_batch) (each batch
    /// counts once).
    pub batch_drains: u64,
    /// Requests served through the batched path (each row counts once;
    /// these requests also count in `answered`/`deadline_exceeded`).
    pub batched_requests: u64,
    /// Per-stage counters in stage order.
    pub stages: Vec<StageServiceStats>,
}

/// A thread-safe, deadline-aware front end over a stack of estimators
/// (see the module docs).
pub struct EstimatorService {
    stages: Vec<StageSlot>,
    admission: AdmissionQueue,
    floor: f64,
    default_budget: Duration,
    answered: AtomicU64,
    floor_answers: AtomicU64,
    deadline_exceeded: AtomicU64,
    batch_drains: AtomicU64,
    batched_requests: AtomicU64,
    recorder: Arc<MetricsRecorder>,
    qerror: QErrorWindow,
    truth_rejected: AtomicU64,
    /// Optional downstream consumer of sanitized (query, truth) pairs —
    /// the adaptation controller. Behind a lock because it is attached
    /// once at wiring time and read rarely (per ground-truth arrival,
    /// not per estimate).
    feedback: RwLock<Option<Arc<dyn FeedbackSink>>>,
    /// Retained so a [`crate::batch::MicroBatcher`] can read its tuning.
    cfg: ServiceConfig,
}

impl EstimatorService {
    /// Build a service over `stages`, tried in order per request.
    pub fn new(stages: Vec<SharedEstimator>, cfg: ServiceConfig) -> Self {
        let floor = if cfg.floor.is_finite() {
            cfg.floor.max(1.0)
        } else {
            1.0
        };
        let recorder = Arc::new(MetricsRecorder::new());
        EstimatorService {
            stages: stages
                .into_iter()
                .enumerate()
                .map(|(i, est)| StageSlot {
                    name: est.name(),
                    breaker: CircuitBreaker::new(cfg.breaker.clone()).with_recorder(
                        Arc::clone(&recorder) as Arc<dyn Recorder>,
                        &format!("serve.stage{i}.breaker"),
                    ),
                    est,
                    hits: AtomicU64::new(0),
                    timeouts: AtomicU64::new(0),
                    panics: AtomicU64::new(0),
                    skipped_open: AtomicU64::new(0),
                    errors: std::array::from_fn(|_| AtomicU64::new(0)),
                    latency_metric: format!("serve.stage{i}.latency"),
                })
                .collect(),
            admission: AdmissionQueue::new(
                cfg.max_concurrency,
                cfg.queue_capacity,
                cfg.shed_policy,
            )
            .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>, "serve.queue"),
            floor,
            default_budget: cfg.default_budget,
            answered: AtomicU64::new(0),
            floor_answers: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            batch_drains: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            recorder,
            qerror: QErrorWindow::new(cfg.qerror_window),
            truth_rejected: AtomicU64::new(0),
            feedback: RwLock::new(None),
            cfg,
        }
    }

    /// The configuration this service was built with.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The service's live recorder, for crate-internal components (the
    /// micro-batcher) that publish their own counters into the same
    /// snapshot.
    pub(crate) fn recorder(&self) -> &Arc<MetricsRecorder> {
        &self.recorder
    }

    /// Serve one request under the configured default budget.
    pub fn estimate(&self, query: &Query) -> Result<Estimate, ServeError> {
        self.estimate_within(query, Deadline::within(self.default_budget))
    }

    /// Serve one request under the caller's deadline.
    ///
    /// Returns a finite estimate `>= 1` (with stage provenance, the floor
    /// included as the deepest stage), or a typed [`ServeError`] when the
    /// request was shed or its budget ran out. Never panics, never NaN.
    /// The request walks the same stage loop as a batch, as a one-row
    /// batch, but never counts as a batch drain.
    pub fn estimate_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<Estimate, ServeError> {
        // End-to-end latency covers everything the caller waited for —
        // admission queueing included — for every outcome, errors too.
        let started = Instant::now();
        let result = self.admission.acquire(&deadline).and_then(|_permit| {
            let mut rows = self.walk_stages(Arc::from(std::slice::from_ref(query)), deadline);
            // The walk returns one row per query, so the fallback never
            // runs; it keeps this path free of a panic.
            rows.pop().unwrap_or_else(|| Err(self.give_up(deadline, 0)))
        });
        self.recorder
            .record(REQUEST_LATENCY_METRIC, started.elapsed());
        result
    }

    /// Serve a caller-held batch under the configured default budget.
    /// See [`estimate_batch_within`](Self::estimate_batch_within).
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, ServeError>> {
        self.estimate_batch_within(queries, Deadline::within(self.default_budget))
    }

    /// Serve a caller-held batch of queries under one shared deadline.
    ///
    /// The batch is admitted as **one** unit of concurrency and walks the
    /// stage stack once: each stage receives a single
    /// [`estimate_batch`](qfe_core::CardinalityEstimator::estimate_batch)
    /// call covering every row still unanswered at its depth, under
    /// fair-share budgeting, breaker gating, and panic isolation.
    /// Per-row failures fall through to the next stage individually;
    /// rows still unanswered when the stack is exhausted get the floor,
    /// and rows unanswered at deadline expiry get a per-row
    /// [`ServeError::DeadlineExceeded`]. An admission rejection reports
    /// the same [`ServeError`] on every row.
    ///
    /// End-to-end and per-stage latency are recorded amortized (elapsed ÷
    /// rows, once per row), so histogram counts stay comparable with the
    /// singleton path; [`BATCH_SIZE_METRIC`] records each drain's size.
    pub fn estimate_batch_within(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Vec<Result<Estimate, ServeError>> {
        self.estimate_shared_batch_within(Arc::from(queries), deadline)
    }

    /// [`estimate_batch_within`](Self::estimate_batch_within) over a batch
    /// the caller hands over: the stage calls share it instead of each
    /// copying every query.
    pub(crate) fn estimate_shared_batch_within(
        &self,
        queries: Arc<[Query]>,
        deadline: Deadline,
    ) -> Vec<Result<Estimate, ServeError>> {
        let rows = queries.len();
        if rows == 0 {
            return Vec::new();
        }
        let started = Instant::now();
        let results = match self.admission.acquire(&deadline) {
            Ok(_permit) => {
                self.batch_drains.fetch_add(1, Ordering::Relaxed);
                self.batched_requests
                    .fetch_add(rows as u64, Ordering::Relaxed);
                self.recorder
                    .record(BATCH_SIZE_METRIC, Duration::from_nanos(rows as u64));
                self.walk_stages(queries, deadline)
            }
            Err(e) => vec![Err(e); rows],
        };
        let amortized = started.elapsed() / rows as u32;
        for _ in 0..rows {
            self.recorder.record(REQUEST_LATENCY_METRIC, amortized);
        }
        results
    }

    /// The stage loop, run by an admitted request or batch: every stage
    /// receives one [`estimate_batch`](qfe_core::CardinalityEstimator::estimate_batch)
    /// call covering the rows still unanswered at its depth, with its
    /// fair share of the remaining budget (`remaining / stages_left`;
    /// later stages inherit whatever it leaves behind). Each answer is
    /// re-validated; a failed row falls through to the next stage. Rows
    /// unanswered when the stack is exhausted get the floor, or a
    /// [`ServeError::DeadlineExceeded`] if the deadline has passed.
    /// Returns one result per query, in order.
    fn walk_stages(
        &self,
        queries: Arc<[Query]>,
        deadline: Deadline,
    ) -> Vec<Result<Estimate, ServeError>> {
        let mut results: Vec<Option<Estimate>> = vec![None; queries.len()];
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        // The pending rows' queries, shared by every stage call until a
        // stage answers some of them; only then is the fallthrough subset
        // copied.
        let mut sub = Arc::clone(&queries);
        let mut tried = 0usize;
        for (depth, stage) in self.stages.iter().enumerate() {
            if pending.is_empty() || deadline.expired() {
                break;
            }
            if !stage.breaker.admit() {
                // Counter granularity is per request: a skipped stage
                // skips every pending row.
                stage
                    .skipped_open
                    .fetch_add(pending.len() as u64, Ordering::Relaxed);
                stage.record_error_n(EstimateErrorKind::CircuitOpen, pending.len() as u64);
                continue;
            }
            tried += 1;
            let stages_left = (self.stages.len() - depth) as u32;
            let share = deadline.remaining() / stages_left;
            let stage_started = Instant::now();
            let rows = Arc::clone(&sub);
            let outcome =
                Self::run_stage(stage, share, deadline, move |est| est.estimate_batch(&rows));
            let amortized = stage_started.elapsed() / pending.len() as u32;
            for _ in &pending {
                self.recorder.record(&stage.latency_metric, amortized);
            }
            match outcome {
                RunOutcome::Done(rows) => {
                    let mut still = Vec::with_capacity(pending.len());
                    let mut answered_any = false;
                    // `zip` also absorbs a contract-violating stage that
                    // returns the wrong number of rows: leftovers stay
                    // pending and fall through.
                    for (&i, row) in pending.iter().zip(rows) {
                        match Self::classify(row) {
                            Ok(value) => {
                                answered_any = true;
                                stage.hits.fetch_add(1, Ordering::Relaxed);
                                self.answered.fetch_add(1, Ordering::Relaxed);
                                results[i] = Some(Estimate {
                                    value,
                                    estimator: stage.name.clone(),
                                    fallback_depth: depth,
                                });
                            }
                            Err(kind) => {
                                stage.record_error(kind);
                                still.push(i);
                            }
                        }
                    }
                    // Breaker at call granularity: the invocation counts
                    // as a success if any row got a valid answer, as one
                    // failure if none did — a drifted model failing whole
                    // batches trips it on the same schedule as failing
                    // whole requests.
                    if answered_any {
                        stage.breaker.record_success();
                    } else {
                        stage.breaker.record_failure();
                    }
                    if still.len() != pending.len() {
                        sub = still.iter().map(|&i| queries[i].clone()).collect();
                    }
                    pending = still;
                }
                lost => Self::record_lost_call(stage, lost, pending.len() as u64),
            }
        }
        let expired = deadline.expired();
        results
            .into_iter()
            .map(|slot| match slot {
                Some(est) => Ok(est),
                // Per-row accounting: every unanswered row is one
                // deadline error or one floor answer.
                None if expired => Err(self.give_up(deadline, tried)),
                None => {
                    self.answered.fetch_add(1, Ordering::Relaxed);
                    self.floor_answers.fetch_add(1, Ordering::Relaxed);
                    Ok(Estimate {
                        value: self.floor,
                        estimator: "floor".into(),
                        fallback_depth: self.stages.len(),
                    })
                }
            })
            .collect()
    }

    fn give_up(&self, deadline: Deadline, tried: usize) -> ServeError {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        ServeError::DeadlineExceeded {
            budget: deadline.budget(),
            elapsed: deadline.elapsed(),
            stages_tried: tried,
            admitted: true,
        }
    }

    /// One stage call (singleton or batched), panic-isolated and bounded
    /// by `share`, counted from when a runner starts it, and by
    /// `deadline` in all (waiting for the runner counts only against the
    /// request). A bounded call runs on a reused runner thread of the
    /// process-wide [`runner`] pool; on timeout the runner is abandoned —
    /// the call finishes (or panics) in the background and its result is
    /// discarded. The breaker is what keeps a chronically slow stage from
    /// stranding runners: after `failure_threshold` timeouts the stage
    /// stops being invoked at all. A batched call shares one runner and
    /// one timeout, so a stage that stalls mid-batch is abandoned
    /// wholesale and every pending row falls through.
    fn run_stage<T, F>(
        stage: &StageSlot,
        share: Duration,
        deadline: Deadline,
        call: F,
    ) -> RunOutcome<T>
    where
        T: Send + 'static,
        F: FnOnce(&SharedEstimator) -> T + Send + 'static,
    {
        if share >= INLINE_BUDGET {
            // No meaningful deadline: run inline, keep the panic isolation.
            return match catch_unwind(AssertUnwindSafe(|| call(&stage.est))) {
                Ok(value) => RunOutcome::Done(value),
                Err(_) => RunOutcome::Panicked,
            };
        }
        if share.is_zero() {
            return RunOutcome::Timeout;
        }
        let est = SharedEstimator::clone(&stage.est);
        runner::global().run(share, deadline.remaining(), move || call(&est))
    }

    /// Account a stage call that produced no rows — timed out, panicked,
    /// or could not run (no runner thread could be spawned) — against
    /// the stage: one breaker failure per call, error counters per row.
    fn record_lost_call<T>(stage: &StageSlot, outcome: RunOutcome<T>, rows: u64) {
        stage.breaker.record_failure();
        let kind = match outcome {
            RunOutcome::Timeout => {
                stage.timeouts.fetch_add(rows, Ordering::Relaxed);
                EstimateErrorKind::DeadlineExceeded
            }
            RunOutcome::Panicked => {
                stage.panics.fetch_add(rows, Ordering::Relaxed);
                EstimateErrorKind::Internal
            }
            // `Done` never reaches here: callers classify its rows.
            RunOutcome::Done(_) | RunOutcome::Unavailable => EstimateErrorKind::Internal,
        };
        stage.record_error_n(kind, rows);
    }

    /// A stage's answer, re-validated: a finite value `>= 1`, or the
    /// failure kind (an `Ok` wrapping an illegal value is `NonFinite`).
    fn classify(
        result: Result<Estimate, qfe_core::EstimateError>,
    ) -> Result<f64, EstimateErrorKind> {
        match result {
            // Defense in depth: an Ok is only trusted after
            // re-validation.
            Ok(est) if est.value.is_finite() && est.value >= 1.0 => Ok(est.value),
            Ok(_) => Err(EstimateErrorKind::NonFinite),
            Err(e) => Err(e.kind()),
        }
    }

    /// Number of configured stages (the floor is implicit).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Feed the online q-error tracker with a ground-truth cardinality
    /// and the estimate the service produced for it.
    ///
    /// Pairs are *validated before* they reach the window: a NaN, zero,
    /// negative, or absurdly large truth (or a non-finite estimate) is
    /// rejected with a typed [`FeedbackError`] and counted under
    /// `obs.truth.rejected` — never recorded. The underlying q-error
    /// clamps both sides to ≥ 1, so without this gate a zero truth
    /// against a large estimate would masquerade as a catastrophic (but
    /// fictional) accuracy collapse and could trip drift detection or
    /// poison retraining. The tracker summarizes the most recent
    /// `qerror_window` accepted observations in
    /// [`metrics`](Self::metrics).
    pub fn observe_truth(&self, truth: f64, estimate: f64) -> Result<(), FeedbackError> {
        if let Err(e) = Self::validate_truth(truth, estimate) {
            self.truth_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.qerror.observe(truth, estimate);
        Ok(())
    }

    /// [`observe_truth`](Self::observe_truth) plus feedback routing: on
    /// acceptance the sanitized `(query, truth, estimate)` triple is also
    /// forwarded to the attached [`FeedbackSink`] (the adaptation
    /// controller), which is how retraining data and drift evidence
    /// accumulate. Rejected pairs are counted and never forwarded — the
    /// sink only ever sees sanitized labels.
    pub fn observe_labeled(
        &self,
        query: &Query,
        truth: f64,
        estimate: f64,
    ) -> Result<(), FeedbackError> {
        self.observe_truth(truth, estimate)?;
        let sink = {
            let guard = self.feedback.read().unwrap_or_else(|e| e.into_inner());
            guard.as_ref().map(Arc::clone)
        };
        if let Some(sink) = sink {
            sink.feedback(query, truth, estimate);
        }
        Ok(())
    }

    /// Wire an adaptation controller into this service in one call: the
    /// controller becomes the feedback sink for
    /// [`observe_labeled`](Self::observe_labeled), and its `adapt.*`
    /// lifecycle metrics (plus the underlying slot's `slot.*` swap
    /// events) are routed into this service's recorder, so
    /// [`metrics`](Self::metrics) shows the whole control loop.
    pub fn attach_adaptation(&self, controller: &Arc<crate::adapt::AdaptController>) {
        controller.set_recorder(Arc::clone(&self.recorder) as Arc<dyn Recorder>, "adapt");
        self.attach_feedback(Arc::clone(controller) as Arc<dyn FeedbackSink>);
    }

    /// Attach the consumer of sanitized ground-truth labels (one sink;
    /// a second attach replaces the first).
    pub fn attach_feedback(&self, sink: Arc<dyn FeedbackSink>) {
        match self.feedback.write() {
            Ok(mut g) => *g = Some(sink),
            Err(poisoned) => *poisoned.into_inner() = Some(sink),
        }
    }

    fn validate_truth(truth: f64, estimate: f64) -> Result<(), FeedbackError> {
        if !truth.is_finite() {
            return Err(FeedbackError::NonFiniteTruth);
        }
        if truth <= 0.0 {
            return Err(FeedbackError::NonPositiveTruth);
        }
        if truth > ABSURD_TRUTH {
            return Err(FeedbackError::AbsurdTruth);
        }
        if !estimate.is_finite() {
            return Err(FeedbackError::NonFiniteEstimate);
        }
        Ok(())
    }

    /// One [`MetricsSnapshot`] over the whole pipeline: request/stage
    /// latency histograms, queue depth gauge and wait histogram, breaker
    /// transition counters (recorded live), plus the service's own
    /// counters merged in under `serve.*` names, and the sliding-window
    /// q-error summary when ground truth has been observed.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.recorder.snapshot();
        let stats = self.stats();
        snap.merge_counter("serve.answered", stats.answered);
        snap.merge_counter("serve.floor.answers", stats.floor_answers);
        snap.merge_counter("serve.deadline_exceeded", stats.deadline_exceeded);
        snap.merge_counter("serve.queue.admitted", stats.admission.admitted);
        snap.merge_counter("serve.queue.rejected", stats.admission.rejected);
        snap.merge_counter("serve.queue.shed", stats.admission.shed);
        snap.merge_counter("serve.queue.timeouts", stats.admission.queue_timeouts);
        snap.merge_counter("serve.batch.drains", stats.batch_drains);
        snap.merge_counter("serve.batched_requests", stats.batched_requests);
        snap.merge_counter(
            "obs.truth.rejected",
            self.truth_rejected.load(Ordering::Relaxed),
        );
        for (i, stage) in stats.stages.iter().enumerate() {
            snap.merge_counter(&format!("serve.stage{i}.hits"), stage.hits);
            snap.merge_counter(&format!("serve.stage{i}.timeouts"), stage.timeouts);
            snap.merge_counter(&format!("serve.stage{i}.panics"), stage.panics);
            snap.merge_counter(&format!("serve.stage{i}.skipped_open"), stage.skipped_open);
            for (label, n) in &stage.errors {
                if *n > 0 {
                    snap.merge_counter(&format!("serve.stage{i}.errors.{label}"), *n);
                }
            }
            // Breaker transitions are recorded live by the breaker's own
            // recorder hook — merging `stage.breaker` here would double
            // count them.
        }
        snap.qerror = self.qerror.summary();
        snap
    }

    /// One coherent snapshot of every service counter.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            answered: self.answered.load(Ordering::Relaxed),
            floor_answers: self.floor_answers.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            admission: self.admission.stats(),
            batch_drains: self.batch_drains.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            stages: self
                .stages
                .iter()
                .map(|s| StageServiceStats {
                    name: s.name.clone(),
                    hits: s.hits.load(Ordering::Relaxed),
                    timeouts: s.timeouts.load(Ordering::Relaxed),
                    panics: s.panics.load(Ordering::Relaxed),
                    skipped_open: s.skipped_open.load(Ordering::Relaxed),
                    errors: EstimateErrorKind::ALL
                        .iter()
                        .map(|k| (k.label(), s.errors[k.as_index()].load(Ordering::Relaxed)))
                        .collect(),
                    breaker: s.breaker.stats(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::estimator::CardinalityEstimator;
    use qfe_core::TableId;
    use qfe_ml::chaos::{ChaosEstimator, EstimatorFault};
    use std::sync::Arc;

    struct Constant(f64);
    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            "constant".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    struct Slow {
        delay: Duration,
        value: f64,
    }
    impl CardinalityEstimator for Slow {
        fn name(&self) -> String {
            "slow".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            std::thread::sleep(self.delay);
            self.value
        }
    }

    struct Panicky;
    impl CardinalityEstimator for Panicky {
        fn name(&self) -> String {
            "panicky".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            panic!("stage bug")
        }
    }

    fn q() -> Query {
        Query::single_table(TableId(0), vec![])
    }

    fn lenient_breaker() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 1_000_000,
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn healthy_primary_answers_with_provenance() {
        let svc = EstimatorService::new(
            vec![Arc::new(Constant(123.0)), Arc::new(Constant(5.0))],
            ServiceConfig::default(),
        );
        let e = svc.estimate(&q()).unwrap();
        assert_eq!((e.value, e.fallback_depth), (123.0, 0));
        assert_eq!(e.estimator, "constant");
        let stats = svc.stats();
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.stages[0].hits, 1);
        assert_eq!(stats.stages[1].hits, 0);
    }

    #[test]
    fn slow_stage_is_abandoned_and_fallback_answers_in_budget() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(Slow {
                    delay: Duration::from_secs(5),
                    value: 99.0,
                }),
                Arc::new(Constant(7.0)),
            ],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        let e = svc
            .estimate_within(&q(), Deadline::within(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(e.value, 7.0);
        assert_eq!(e.fallback_depth, 1);
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "the 5s stall must not be waited out: {:?}",
            t0.elapsed()
        );
        let stats = svc.stats();
        assert_eq!(stats.stages[0].timeouts, 1);
        assert_eq!(stats.stages[1].hits, 1);
    }

    #[test]
    fn panicking_stage_is_contained() {
        let svc = EstimatorService::new(
            vec![Arc::new(Panicky), Arc::new(Constant(3.0))],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        for _ in 0..5 {
            let e = svc.estimate(&q()).unwrap();
            assert_eq!(e.value, 3.0);
        }
        assert_eq!(svc.stats().stages[0].panics, 5);
    }

    #[test]
    fn breaker_stops_invoking_a_dead_stage_then_recovers_by_probe() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(ChaosEstimator::new(
                    Constant(50.0),
                    vec![EstimatorFault::Error],
                    1.0,
                    1,
                )),
                Arc::new(Constant(9.0)),
            ],
            ServiceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(40),
                    max_cooldown: Duration::from_millis(40),
                },
                ..ServiceConfig::default()
            },
        );
        for _ in 0..10 {
            assert_eq!(svc.estimate(&q()).unwrap().value, 9.0);
        }
        let stats = svc.stats();
        // 3 failures trip the breaker; the remaining 7 requests skip.
        assert_eq!(stats.stages[0].breaker.opened, 1);
        assert_eq!(stats.stages[0].skipped_open, 7);
        // After the cooldown a probe is admitted (and fails again here,
        // re-opening the breaker).
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(svc.estimate(&q()).unwrap().value, 9.0);
        let stats = svc.stats();
        assert_eq!(stats.stages[0].breaker.probes, 1);
        assert_eq!(stats.stages[0].breaker.opened, 2);
    }

    #[test]
    fn zero_budget_is_a_typed_deadline_error() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        let err = svc
            .estimate_within(&q(), Deadline::within(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::DeadlineExceeded {
                stages_tried: 0,
                admitted: true,
                ..
            }
        ));
        assert_eq!(svc.stats().deadline_exceeded, 1);
    }

    #[test]
    fn all_stages_failing_within_budget_lands_on_the_floor() {
        let svc = EstimatorService::new(
            vec![Arc::new(Constant(f64::NAN))],
            ServiceConfig {
                floor: 4.0,
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let e = svc.estimate(&q()).unwrap();
        assert_eq!((e.value, e.fallback_depth), (4.0, 1));
        assert_eq!(e.estimator, "floor");
        let stats = svc.stats();
        assert_eq!(stats.floor_answers, 1);
        assert_eq!(
            stats.stages[0].errors[EstimateErrorKind::NonFinite.as_index()].1,
            1
        );
    }

    #[test]
    fn metrics_snapshot_covers_latency_stages_breakers_and_qerror() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(ChaosEstimator::new(
                    Constant(50.0),
                    vec![EstimatorFault::Error],
                    1.0,
                    1,
                )),
                Arc::new(Constant(9.0)),
            ],
            ServiceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_secs(60),
                    max_cooldown: Duration::from_secs(60),
                },
                ..ServiceConfig::default()
            },
        );
        for _ in 0..10 {
            let e = svc.estimate(&q()).unwrap();
            svc.observe_truth(10.0, e.value).unwrap();
        }
        let m = svc.metrics();
        // End-to-end and per-stage latency histograms are populated.
        let e2e = m.histogram(REQUEST_LATENCY_METRIC).expect("e2e histogram");
        assert_eq!(e2e.count, 10);
        assert!(e2e.sum_nanos > 0, "non-zero end-to-end latency");
        assert_eq!(
            m.histogram("serve.stage1.latency").expect("stage").count,
            10
        );
        // Per-stage counters merged from the service atomics.
        assert_eq!(m.counter("serve.stage0.errors.internal"), 3);
        assert_eq!(m.counter("serve.stage0.skipped_open"), 7);
        assert_eq!(m.counter("serve.stage1.hits"), 10);
        assert_eq!(m.counter("serve.answered"), 10);
        assert_eq!(m.counter("serve.queue.admitted"), 10);
        // Breaker transitions recorded live (no double counting).
        assert_eq!(m.counter("serve.stage0.breaker.opened"), 1);
        // The q-error summary reflects the observed truths: all answers
        // were 9.0 against truth 10.0.
        let qe = m.qerror.as_ref().expect("qerror summary");
        assert!(
            (qe.median - 10.0 / 9.0).abs() < 1e-9,
            "median {}",
            qe.median
        );
        // JSON rendering includes the new names.
        let json = m.to_json();
        assert!(json.contains("\"serve.request.latency\""), "{json}");
        assert!(json.contains("\"qerror\":{"), "{json}");
    }

    #[test]
    fn observe_truth_rejects_garbage_with_typed_errors_and_counts_it() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        assert_eq!(
            svc.observe_truth(f64::NAN, 2.0),
            Err(FeedbackError::NonFiniteTruth)
        );
        assert_eq!(
            svc.observe_truth(f64::INFINITY, 2.0),
            Err(FeedbackError::NonFiniteTruth)
        );
        assert_eq!(
            svc.observe_truth(0.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        assert_eq!(
            svc.observe_truth(-5.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        assert_eq!(
            svc.observe_truth(1e19, 2.0),
            Err(FeedbackError::AbsurdTruth)
        );
        assert_eq!(
            svc.observe_truth(10.0, f64::INFINITY),
            Err(FeedbackError::NonFiniteEstimate)
        );
        assert_eq!(
            svc.observe_truth(10.0, f64::NAN),
            Err(FeedbackError::NonFiniteEstimate)
        );
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 7);
        assert!(m.qerror.is_none(), "nothing garbage reached the window");
        // Boundary values are legitimate and accepted.
        svc.observe_truth(1e18, 2.0).unwrap();
        svc.observe_truth(f64::MIN_POSITIVE, 2.0).unwrap();
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 7);
        assert_eq!(m.qerror.as_ref().map(|s| s.count), Some(2));
    }

    #[test]
    fn fractional_truth_is_accepted_not_clamped_away() {
        // Truths in (0, 1) — e.g. average cardinalities below one row —
        // are positive and finite: the guard accepts them (no typed
        // rejection, no entry clamping). Only the q-error computation
        // itself treats both sides as >= 1, so 0.5 vs an estimate of 2.0
        // scores q = 2.0, not 4.0.
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        svc.observe_truth(0.5, 2.0).unwrap();
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 0);
        let qe = m.qerror.as_ref().expect("pair reached the window");
        assert_eq!(qe.count, 1);
        assert!((qe.median - 2.0).abs() < 1e-12, "median {}", qe.median);

        // The open-interval boundaries behave per the guard's contract:
        // exactly 0 is rejected, anything strictly inside (0, 1) lands.
        assert_eq!(
            svc.observe_truth(0.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        svc.observe_truth(0.999_999, 2.0).unwrap();
        svc.observe_truth(1.0 - f64::EPSILON, 2.0).unwrap();
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 1);
        assert_eq!(m.qerror.as_ref().map(|s| s.count), Some(3));
    }

    #[test]
    fn observe_labeled_forwards_only_sanitized_pairs_to_the_sink() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Capture(Mutex<Vec<(f64, f64)>>);
        impl FeedbackSink for Capture {
            fn feedback(&self, _query: &Query, truth: f64, estimate: f64) {
                self.0
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((truth, estimate));
            }
        }
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        let sink = Arc::new(Capture::default());
        svc.attach_feedback(Arc::clone(&sink) as Arc<dyn FeedbackSink>);

        svc.observe_labeled(&q(), 10.0, 2.0).unwrap();
        assert_eq!(
            svc.observe_labeled(&q(), 0.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        assert_eq!(
            svc.observe_labeled(&q(), f64::NAN, 2.0),
            Err(FeedbackError::NonFiniteTruth)
        );
        svc.observe_labeled(&q(), 20.0, 4.0).unwrap();

        let seen = sink.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(seen, vec![(10.0, 2.0), (20.0, 4.0)]);
        assert_eq!(svc.metrics().counter("obs.truth.rejected"), 2);
    }

    #[test]
    fn unbounded_budget_runs_inline() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(11.0))], ServiceConfig::default());
        let e = svc.estimate_within(&q(), Deadline::unbounded()).unwrap();
        assert_eq!(e.value, 11.0);
    }

    #[test]
    fn duration_max_budget_is_answered_by_stage_zero() {
        let svc = EstimatorService::new(
            vec![Arc::new(Constant(11.0)), Arc::new(Constant(5.0))],
            ServiceConfig {
                default_budget: Duration::MAX,
                ..ServiceConfig::default()
            },
        );
        let e = svc
            .estimate_within(&q(), Deadline::within(Duration::MAX))
            .unwrap();
        assert_eq!((e.value, e.fallback_depth), (11.0, 0));
        let e = svc.estimate(&q()).unwrap();
        assert_eq!((e.value, e.fallback_depth), (11.0, 0));
        assert_eq!(svc.stats().deadline_exceeded, 0);
    }

    /// Fails rows whose index in the batch call sequence is odd — used
    /// to prove per-row failure routing. Stateless across rows: whether
    /// a row fails depends only on its own query (predicate count).
    struct FailsNonEmpty(f64);
    impl CardinalityEstimator for FailsNonEmpty {
        fn name(&self) -> String {
            "picky".into()
        }
        fn estimate(&self, query: &Query) -> f64 {
            if query.predicates.is_empty() {
                self.0
            } else {
                f64::NAN
            }
        }
    }

    fn q_with_pred() -> Query {
        use qfe_core::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
        use qfe_core::query::ColumnRef;
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), qfe_core::ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Eq, 1)],
            )],
        )
    }

    #[test]
    fn batch_matches_singleton_row_for_row() {
        let mk = || {
            EstimatorService::new(
                vec![
                    Arc::new(FailsNonEmpty(123.0)) as SharedEstimator,
                    Arc::new(Constant(5.0)),
                ],
                ServiceConfig {
                    breaker: lenient_breaker(),
                    ..ServiceConfig::default()
                },
            )
        };
        let singleton = mk();
        let batched = mk();
        let queries = vec![q(), q_with_pred(), q(), q_with_pred()];
        let solo: Vec<_> = queries
            .iter()
            .map(|qq| singleton.estimate(qq).unwrap())
            .collect();
        let batch: Vec<_> = batched
            .estimate_batch(&queries)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(solo, batch, "batched answers must match singleton");
        // Mixed routing: empty queries answered at depth 0, the rest fell
        // through to the constant at depth 1.
        assert_eq!(batch[0].fallback_depth, 0);
        assert_eq!(batch[1].fallback_depth, 1);
        // Stage counters agree between the two execution shapes.
        let s1 = singleton.stats();
        let s2 = batched.stats();
        assert_eq!(s1.answered, s2.answered);
        assert_eq!(s1.stages[0].hits, s2.stages[0].hits);
        assert_eq!(s1.stages[1].hits, s2.stages[1].hits);
        // Batched-vs-singleton provenance counters: singletons walk the
        // same loop as one-row batches but never count as batches.
        assert_eq!((s1.batch_drains, s1.batched_requests), (0, 0));
        assert!(singleton.metrics().histogram(BATCH_SIZE_METRIC).is_none());
        assert_eq!((s2.batch_drains, s2.batched_requests), (1, 4));
        let m = batched.metrics();
        assert_eq!(m.counter("serve.batch.drains"), 1);
        assert_eq!(m.counter("serve.batched_requests"), 4);
        let sizes = m.histogram(BATCH_SIZE_METRIC).expect("batch size hist");
        assert_eq!((sizes.count, sizes.sum_nanos), (1, 4));
        // Amortized per-item latency: one end-to-end entry per row.
        assert_eq!(m.histogram(REQUEST_LATENCY_METRIC).expect("e2e").count, 4);
    }

    #[test]
    fn batch_deadline_expiry_is_reported_per_row() {
        let svc = EstimatorService::new(
            vec![Arc::new(Slow {
                delay: Duration::from_secs(5),
                value: 9.0,
            })],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let queries = vec![q(), q(), q()];
        let out = svc.estimate_batch_within(&queries, Deadline::within(Duration::from_millis(50)));
        assert_eq!(out.len(), 3);
        for r in &out {
            assert!(
                matches!(
                    r,
                    Err(ServeError::DeadlineExceeded {
                        admitted: true,
                        stages_tried: 1,
                        ..
                    })
                ),
                "{r:?}"
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.deadline_exceeded, 3);
        assert_eq!(stats.stages[0].timeouts, 3);
        assert_eq!(stats.batched_requests, 3);
    }

    #[test]
    fn batch_floor_and_panic_isolation() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(Panicky) as SharedEstimator,
                Arc::new(Constant(f64::NAN)),
            ],
            ServiceConfig {
                floor: 2.0,
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let queries = vec![q(), q()];
        for r in svc.estimate_batch(&queries) {
            let e = r.unwrap();
            assert_eq!((e.value, e.fallback_depth), (2.0, 2));
            assert_eq!(e.estimator, "floor");
        }
        let stats = svc.stats();
        assert_eq!(stats.floor_answers, 2);
        assert_eq!(stats.stages[0].panics, 2);
        assert_eq!(
            stats.stages[1].errors[EstimateErrorKind::NonFinite.as_index()].1,
            2
        );
    }

    #[test]
    fn empty_batch_is_free() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        assert!(svc.estimate_batch(&[]).is_empty());
        let stats = svc.stats();
        assert_eq!((stats.batch_drains, stats.batched_requests), (0, 0));
        assert_eq!(stats.admission.admitted, 0);
    }

    #[test]
    fn floor_is_clamped_to_legal_range() {
        for floor in [0.25, f64::NAN, f64::INFINITY] {
            let svc = EstimatorService::new(
                vec![],
                ServiceConfig {
                    floor,
                    ..ServiceConfig::default()
                },
            );
            // An empty stack is just the floor.
            let e = svc.estimate(&q()).unwrap();
            assert_eq!((e.value, e.fallback_depth), (1.0, 0), "floor {floor}");
            assert_eq!(e.estimator, "floor");
            let e = svc.estimate_batch(&[q()]).pop().unwrap().unwrap();
            assert_eq!(e.value, 1.0, "floor {floor}");
            assert_eq!(svc.metrics().counter("serve.floor.answers"), 2);
        }
    }

    /// Counts the `estimate_batch` calls that reach it and the rows they
    /// carry, to prove the stage loop batches a stage instead of looping
    /// `try_estimate`.
    struct CountingStage {
        value: f64,
        calls: Arc<AtomicU64>,
        rows: Arc<AtomicU64>,
    }

    impl CardinalityEstimator for CountingStage {
        fn name(&self) -> String {
            "counting".into()
        }

        fn estimate(&self, _query: &Query) -> f64 {
            self.value
        }

        fn estimate_batch(
            &self,
            queries: &[Query],
        ) -> Vec<Result<Estimate, qfe_core::EstimateError>> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.rows.fetch_add(queries.len() as u64, Ordering::Relaxed);
            queries.iter().map(|q| self.try_estimate(q)).collect()
        }
    }

    #[test]
    fn each_stage_gets_one_batch_call_over_the_pending_rows() {
        let calls = Arc::new(AtomicU64::new(0));
        let rows = Arc::new(AtomicU64::new(0));
        let svc = EstimatorService::new(
            vec![
                Arc::new(FailsNonEmpty(123.0)) as SharedEstimator,
                Arc::new(CountingStage {
                    value: 9.0,
                    calls: Arc::clone(&calls),
                    rows: Arc::clone(&rows),
                }),
            ],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        // 10 of 16 rows fail stage 0 and fall through.
        let queries: Vec<Query> = (0..16)
            .map(|i| if i % 8 < 5 { q_with_pred() } else { q() })
            .collect();
        let out = svc.estimate_batch_within(&queries, Deadline::unbounded());
        for (query, r) in queries.iter().zip(&out) {
            let e = r.as_ref().unwrap();
            let depth = usize::from(!query.predicates.is_empty());
            assert_eq!(e.fallback_depth, depth);
        }
        // Stage 1 saw the 10 stage-0 failures as ONE batched call.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(rows.load(Ordering::Relaxed), 10);
        let stats = svc.stats();
        assert_eq!((stats.stages[0].hits, stats.stages[1].hits), (6, 10));
        assert_eq!(
            stats.stages[0].errors[EstimateErrorKind::NonFinite.as_index()].1,
            10
        );
        // Amortized per-row recording keeps the stage latency histogram
        // at one entry per row the stage saw.
        let m = svc.metrics();
        assert_eq!(m.histogram("serve.stage0.latency").unwrap().count, 16);
        assert_eq!(m.histogram("serve.stage1.latency").unwrap().count, 10);
    }
}
