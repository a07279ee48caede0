//! Dynamic micro-batching over an [`EstimatorService`].
//!
//! Callers that arrive one query at a time can't use
//! [`EstimatorService::estimate_batch`] themselves — somebody has to
//! collect the batch. The [`MicroBatcher`] is that somebody: `submit`
//! parks the caller on a completion slot while a small worker pool
//! (`cfg.workers`) drains the submission queue. Batching is
//! opportunistic: a worker that pops a request also takes whatever else
//! is already queued, up to `cfg.max_batch_size`, and dispatches at once
//! as one batched service call, then completes each waiter individually.
//! It never waits for a batch to fill. When idle, a lone request goes out
//! as a batch of one without delay; under load, requests pile up while
//! every worker is busy, so the next drain takes them all and the learned
//! stage amortizes one featurize-and-forward across the whole batch.
//!
//! Deadline semantics: the dispatched batch runs under the *tightest*
//! member deadline (minimum remaining budget), so no member's budget is
//! silently extended by its batch-mates; members whose own deadline
//! already expired while queued are withdrawn before dispatch with a
//! per-row [`ServeError::DeadlineExceeded`] (`admitted: false` — the
//! budget died in the batcher's queue).
//!
//! Load shedding: the submission queue is bounded
//! (`max(queue_capacity, max_batch_size)`, so a full batch can always
//! accumulate); when full, new submissions are rejected with a typed
//! [`ServeError::Overloaded`] regardless of the service's own shed
//! policy — the batcher never evicts a parked caller.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use qfe_core::estimator::Estimate;
use qfe_core::{Deadline, Query};
use qfe_obs::Recorder;

use crate::error::{OverloadKind, ServeError, ShedPolicy};
use crate::service::EstimatorService;

/// One parked caller: its query, its budget, and the channel its worker
/// completes it on.
struct BatchRequest {
    query: Query,
    deadline: Deadline,
    tx: mpsc::SyncSender<Result<Estimate, ServeError>>,
}

struct BatcherState {
    waiting: VecDeque<BatchRequest>,
    shutdown: bool,
}

/// State shared between submitters and workers. Counters live outside
/// the mutex; only the queue itself is locked.
struct Shared {
    state: Mutex<BatcherState>,
    cv: Condvar,
    submitted: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    dispatched: AtomicU64,
}

impl Shared {
    /// Poisoning recovery mirrors the admission queue: counters and the
    /// queue are valid under any interleaving, so a panicking peer must
    /// not wedge every future submission.
    fn lock(&self) -> MutexGuard<'_, BatcherState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// One coherent snapshot of the batcher's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatcherStats {
    /// Lifetime `submit` calls.
    pub submitted: u64,
    /// Submissions rejected because the queue was full (or the batcher
    /// was shutting down).
    pub shed: u64,
    /// Members withdrawn before dispatch because their deadline expired
    /// in the queue.
    pub expired: u64,
    /// Members actually dispatched to the service in a batch.
    pub dispatched: u64,
    /// Requests currently parked in the submission queue.
    pub queued: usize,
}

/// A worker pool that coalesces singleton submissions into batched
/// [`EstimatorService::estimate_batch_within`] calls (see module docs).
pub struct MicroBatcher {
    svc: Arc<EstimatorService>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
}

impl MicroBatcher {
    /// Start `cfg.workers` (clamped to `>= 1`) worker threads over
    /// `svc`, reading the batching knobs from the service's
    /// [`ServiceConfig`](crate::ServiceConfig). Workers run until the
    /// batcher is dropped; requests still queued at drop are served
    /// before the workers exit.
    ///
    /// The worker count is additionally capped at the shared
    /// [`qfe_core::parallel`] pool width (`QFE_THREADS` /
    /// `available_parallelism`): batcher workers drive featurization and
    /// model inference, so spawning more of them than the machine has
    /// cores only adds queueing jitter — oversized `cfg.workers` configs
    /// degrade gracefully to the pool size instead.
    pub fn new(svc: Arc<EstimatorService>) -> Self {
        let cfg = svc.config();
        let pool_width = qfe_core::parallel::current().threads();
        let workers_n = cfg.workers.max(1).min(pool_width.max(1));
        let max_batch = cfg.max_batch_size.max(1);
        let capacity = cfg.queue_capacity.max(max_batch);
        let shared = Arc::new(Shared {
            state: Mutex::new(BatcherState {
                waiting: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
        });
        let workers = (0..workers_n)
            .filter_map(|i| {
                let svc = Arc::clone(&svc);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qfe-serve-batcher-{i}"))
                    .spawn(move || worker_loop(&svc, &shared, max_batch))
                    .ok()
            })
            .collect::<Vec<_>>();
        if workers.is_empty() {
            // No worker could be spawned (resource exhaustion): close the
            // queue so submissions fail fast with `Overloaded` instead of
            // parking forever.
            shared.lock().shutdown = true;
        }
        MicroBatcher {
            svc,
            shared,
            workers,
            capacity,
        }
    }

    /// Submit one query under the service's default budget, blocking
    /// until a worker completes it. See [`submit_within`](Self::submit_within).
    pub fn submit(&self, query: &Query) -> Result<Estimate, ServeError> {
        self.submit_within(query, Deadline::within(self.svc.config().default_budget))
    }

    /// Submit one query under the caller's deadline, blocking until a
    /// worker batches and completes it.
    ///
    /// Returns exactly what the singleton path would: an [`Estimate`]
    /// with stage provenance, or a typed [`ServeError`] when the request
    /// was shed (queue full), expired in the queue, or ran out of budget
    /// inside the service.
    pub fn submit_within(&self, query: &Query, deadline: Deadline) -> Result<Estimate, ServeError> {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.svc.recorder().incr("serve.batch.submitted");
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut st = self.shared.lock();
            if st.shutdown || st.waiting.len() >= self.capacity {
                let queue_len = st.waiting.len();
                drop(st);
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                self.svc.recorder().incr("serve.batch.shed");
                return Err(ServeError::Overloaded {
                    kind: OverloadKind::RejectedAtAdmission,
                    // The batcher always rejects the newcomer — it never
                    // evicts a parked caller — whatever the service's own
                    // queue policy says.
                    policy: ShedPolicy::RejectNew,
                    queue_len,
                    capacity: self.capacity,
                });
            }
            st.waiting.push_back(BatchRequest {
                query: query.clone(),
                deadline,
                tx,
            });
        }
        self.shared.cv.notify_one();
        match rx.recv() {
            Ok(result) => result,
            // Unreachable in practice: workers complete every request
            // they pop, and drop-shutdown drains the queue. Kept total so
            // a future worker bug degrades to a typed error, not a hang
            // or a panic.
            Err(_) => Err(ServeError::DeadlineExceeded {
                budget: deadline.budget(),
                elapsed: deadline.elapsed(),
                stages_tried: 0,
                admitted: false,
            }),
        }
    }

    /// One coherent snapshot of the batcher's counters. After the queue
    /// drains, `submitted == shed + expired + dispatched`.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            expired: self.shared.expired.load(Ordering::Relaxed),
            dispatched: self.shared.dispatched.load(Ordering::Relaxed),
            queued: self.shared.lock().waiting.len(),
        }
    }

    /// The service this batcher dispatches to.
    pub fn service(&self) -> &Arc<EstimatorService> {
        &self.svc
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: block until the queue is non-empty, take everything
/// queued (up to `max_batch`), withdraw expired members, dispatch the
/// rest under the tightest member deadline, and complete every waiter
/// individually.
fn worker_loop(svc: &Arc<EstimatorService>, shared: &Arc<Shared>, max_batch: usize) {
    loop {
        // Phase 1: take what is queued (or exit on shutdown + empty
        // queue). There is no fill wait: a batch is whatever piled up
        // while the workers were busy.
        let batch: Vec<BatchRequest> = {
            let mut st = shared.lock();
            loop {
                if !st.waiting.is_empty() {
                    let n = st.waiting.len().min(max_batch);
                    break st.waiting.drain(..n).collect();
                }
                if st.shutdown {
                    return;
                }
                st = match shared.cv.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        // Phase 2: withdraw members whose budget died in the queue —
        // dispatching them would only burn the batch's budget on rows
        // that can no longer be answered in time.
        let mut live = Vec::with_capacity(batch.len());
        for req in batch {
            if req.deadline.expired() {
                shared.expired.fetch_add(1, Ordering::Relaxed);
                svc.recorder().incr("serve.batch.expired");
                let _ = req.tx.send(Err(ServeError::DeadlineExceeded {
                    budget: req.deadline.budget(),
                    elapsed: req.deadline.elapsed(),
                    stages_tried: 0,
                    admitted: false,
                }));
            } else {
                live.push(req);
            }
        }
        if live.is_empty() {
            continue;
        }
        // Phase 3: dispatch under the tightest member deadline and
        // complete each waiter with its own row result.
        let mut batch_deadline = live[0].deadline;
        for req in &live[1..] {
            if req.deadline.remaining() < batch_deadline.remaining() {
                batch_deadline = req.deadline;
            }
        }
        shared
            .dispatched
            .fetch_add(live.len() as u64, Ordering::Relaxed);
        let queries: Vec<Query> = live.iter().map(|r| r.query.clone()).collect();
        let results = svc.estimate_batch_within(&queries, batch_deadline);
        let mut results = results.into_iter();
        for req in live {
            let row = results.next().unwrap_or_else(|| {
                Err(ServeError::DeadlineExceeded {
                    budget: req.deadline.budget(),
                    elapsed: req.deadline.elapsed(),
                    stages_tried: 0,
                    admitted: true,
                })
            });
            let _ = req.tx.send(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use qfe_core::estimator::CardinalityEstimator;
    use qfe_core::TableId;
    use std::time::Duration;

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

    fn q() -> Query {
        Query::single_table(TableId(0), vec![])
    }

    fn service(cfg: ServiceConfig) -> Arc<EstimatorService> {
        Arc::new(EstimatorService::new(vec![Arc::new(Constant(42.0))], cfg))
    }

    #[test]
    fn concurrent_submissions_are_batched_and_all_answered() {
        let svc = service(ServiceConfig {
            workers: 2,
            max_batch_size: 8,
            // Room for every submitter: this test is about coalescing,
            // not shedding.
            queue_capacity: 64,
            ..ServiceConfig::default()
        });
        let batcher = Arc::new(MicroBatcher::new(Arc::clone(&svc)));
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(&q()))
            })
            .collect();
        for h in handles {
            let e = h.join().unwrap().unwrap();
            assert_eq!(e.value, 42.0);
            assert_eq!(e.estimator, "constant");
            assert_eq!(e.fallback_depth, 0);
        }
        let stats = batcher.stats();
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.dispatched, 32);
        assert_eq!(stats.queued, 0);
        // Service-side accounting agrees: every request went through the
        // batched path, and coalescing produced fewer drains than rows.
        let sstats = svc.stats();
        assert_eq!(sstats.batched_requests, 32);
        assert_eq!(sstats.answered, 32);
        assert!(
            sstats.batch_drains <= 32,
            "drains never exceed rows: {sstats:?}"
        );
        // The batch-size histogram saw every drain, totalling every row.
        let m = svc.metrics();
        let sizes = m
            .histogram(crate::service::BATCH_SIZE_METRIC)
            .expect("batch size histogram");
        assert_eq!(sizes.count, sstats.batch_drains);
        assert_eq!(sizes.sum_nanos, 32);
        assert_eq!(m.counter("serve.batch.submitted"), 32);
    }

    #[test]
    fn expired_members_are_withdrawn_before_dispatch() {
        let svc = service(ServiceConfig::default());
        let batcher = MicroBatcher::new(Arc::clone(&svc));
        let err = batcher
            .submit_within(&q(), Deadline::within(Duration::ZERO))
            .unwrap_err();
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
        let stats = batcher.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.dispatched, 0);
        // Withdrawn members never reach the service.
        assert_eq!(svc.stats().batched_requests, 0);
        assert_eq!(svc.metrics().counter("serve.batch.expired"), 1);
    }

    #[test]
    fn full_queue_sheds_new_submissions_with_a_typed_error() {
        // One worker, one-row batches, a 50 ms stage: submissions pile up
        // behind the worker and overflow the 1-slot queue.
        let svc = Arc::new(EstimatorService::new(
            vec![Arc::new(Slow {
                delay: Duration::from_millis(50),
                value: 7.0,
            })],
            ServiceConfig {
                workers: 1,
                max_batch_size: 1,
                queue_capacity: 1,
                default_budget: Duration::from_secs(5),
                ..ServiceConfig::default()
            },
        ));
        let batcher = Arc::new(MicroBatcher::new(Arc::clone(&svc)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(&q()))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
            .count();
        assert!(ok >= 1, "somebody must be served: {results:?}");
        assert!(shed >= 1, "the 1-slot queue must overflow: {results:?}");
        let stats = batcher.stats();
        assert_eq!(stats.shed as usize, shed);
        assert_eq!(stats.submitted, 8);
        // Conservation: every submission was shed, expired, or dispatched.
        assert_eq!(
            stats.submitted,
            stats.shed + stats.expired + stats.dispatched
        );
    }

    #[test]
    fn drop_drains_queued_requests_before_stopping() {
        let svc = service(ServiceConfig {
            workers: 1,
            max_batch_size: 4,
            ..ServiceConfig::default()
        });
        let batcher = Arc::new(MicroBatcher::new(Arc::clone(&svc)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(&q()))
            })
            .collect();
        // Drop our handle while submitters are in flight; the workers
        // hold their own Arc and drain before exiting.
        drop(batcher);
        for h in handles {
            let e = h.join().unwrap().unwrap();
            assert_eq!(e.value, 42.0);
        }
    }

    #[test]
    fn batch_of_one_when_idle_still_answers() {
        let svc = service(ServiceConfig {
            workers: 1,
            max_batch_size: 64,
            ..ServiceConfig::default()
        });
        let batcher = MicroBatcher::new(Arc::clone(&svc));
        let e = batcher.submit(&q()).unwrap();
        assert_eq!(e.value, 42.0);
        assert_eq!(batcher.stats().dispatched, 1);
        assert_eq!(batcher.service().stats().batch_drains, 1);
    }

    /// Holds every stage call until opened, counting the calls inside.
    #[derive(Default)]
    struct Gate {
        /// (open, calls entered)
        state: Mutex<(bool, usize)>,
        cv: Condvar,
    }

    impl Gate {
        fn wait_entered(&self, n: usize) {
            let mut st = self.state.lock().unwrap();
            while st.1 < n {
                st = self.cv.wait(st).unwrap();
            }
        }

        fn open(&self) {
            self.state.lock().unwrap().0 = true;
            self.cv.notify_all();
        }
    }

    struct Gated(Arc<Gate>);
    impl CardinalityEstimator for Gated {
        fn name(&self) -> String {
            "gated".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            let mut st = self.0.state.lock().unwrap();
            st.1 += 1;
            self.0.cv.notify_all();
            while !st.0 {
                st = self.0.cv.wait(st).unwrap();
            }
            42.0
        }
    }

    #[test]
    fn requests_queued_behind_a_busy_worker_drain_as_one_batch() {
        const K: usize = 6;
        let gate = Arc::new(Gate::default());
        let svc = Arc::new(EstimatorService::new(
            vec![Arc::new(Gated(Arc::clone(&gate)))],
            ServiceConfig {
                workers: 1,
                max_batch_size: 32,
                queue_capacity: 32,
                default_budget: Duration::from_secs(30),
                ..ServiceConfig::default()
            },
        ));
        let batcher = Arc::new(MicroBatcher::new(Arc::clone(&svc)));
        let submit = || {
            let b = Arc::clone(&batcher);
            std::thread::spawn(move || b.submit(&q()))
        };
        // The single worker dispatches the first request alone and is held
        // inside the stage by the gate.
        let mut handles = vec![submit()];
        gate.wait_entered(1);
        // K more pile up in the queue behind it.
        handles.extend((0..K).map(|_| submit()));
        while batcher.stats().queued < K {
            std::thread::yield_now();
        }
        gate.open();
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap().value, 42.0);
        }
        // Two drains: the lone first request, then all K at once.
        let m = svc.metrics();
        let sizes = m
            .histogram(crate::service::BATCH_SIZE_METRIC)
            .expect("batch size histogram");
        assert_eq!(
            (sizes.count, sizes.sum_nanos, sizes.max_nanos),
            (2, 1 + K as u64, K as u64)
        );
    }
}
