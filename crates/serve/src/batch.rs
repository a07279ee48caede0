//! Dynamic micro-batching over an [`EstimatorService`].
//!
//! Callers that arrive one query at a time can't use
//! [`EstimatorService::estimate_batch`] themselves — somebody has to
//! collect the batch. The [`MicroBatcher`] lets the callers collect it
//! among themselves, on their own threads; it owns no threads. `submit`
//! queues the request and then parks the caller under the queue lock.
//! On every wake a caller first looks for its own published reply and
//! returns it. Otherwise, if fewer than `dispatchers` batches are in
//! flight and its own request is still among the first
//! `cfg.max_batch_size` queued, the caller becomes a leader: it claims a
//! dispatch slot, takes that many requests oldest first (its own among
//! them), runs them as one batched service call on its own thread,
//! publishes every member's reply and wakes each member. A leader
//! therefore only ever runs a batch it is part of, under a deadline no
//! later than its own; a caller whose request another leader took parks
//! until that leader publishes its reply.
//!
//! Every caller parks on a condvar of its own, so a wake reaches only
//! the callers it concerns: the members of a finished batch, a withdrawn
//! member, and the owner of the oldest queued request when a dispatch
//! slot is free (that owner leads next, and hands the wake on if a slot
//! is still free after its drain).
//!
//! Batching is opportunistic: nobody waits for a batch to fill. When
//! idle, a lone caller dispatches its own request at once as a batch of
//! one; under load, requests pile up while every dispatch slot is busy,
//! so the next leader takes them all and the learned stage amortizes one
//! featurize-and-forward across the whole batch. A request therefore
//! crosses two thread hand-offs, to the service's stage runner and back
//! ([`crate::runner`]); the stage call stays abandonable at its budget
//! share exactly as on the singleton path.
//!
//! Deadline semantics: the dispatched batch runs under the *tightest*
//! member deadline (minimum remaining budget), so no member's budget is
//! silently extended by its batch-mates; members whose own deadline
//! already expired while queued are withdrawn before dispatch with a
//! per-row [`ServeError::DeadlineExceeded`] (`admitted: false` — the
//! budget died in the batcher's queue). A would-be leader whose own
//! deadline has expired withdraws itself the same way instead of leading.
//!
//! Load shedding: the submission queue is bounded
//! (`max(queue_capacity, max_batch_size)`, so a full batch can always
//! accumulate); when full, new submissions are rejected with a typed
//! [`ServeError::Overloaded`] regardless of the service's own shed
//! policy — the batcher never evicts a parked caller.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use qfe_core::estimator::Estimate;
use qfe_core::{Deadline, Query};
use qfe_obs::Recorder;

use crate::error::{OverloadKind, ServeError, ShedPolicy};
use crate::service::EstimatorService;

type Reply = Result<Estimate, ServeError>;

/// One queued request: its caller's ticket and wake, its query and its
/// budget.
struct BatchRequest {
    ticket: u64,
    wake: Arc<Condvar>,
    query: Query,
    deadline: Deadline,
}

struct BatcherState {
    /// Queued requests, oldest first (tickets ascending).
    waiting: VecDeque<BatchRequest>,
    /// Replies published by a leader, each awaiting its parked caller.
    replies: Vec<(u64, Reply)>,
    next_ticket: u64,
    /// Batches being dispatched right now (at most `dispatchers`).
    in_flight: usize,
}

/// One coherent snapshot of the batcher's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatcherStats {
    /// Lifetime `submit` calls.
    pub submitted: u64,
    /// Submissions rejected because the queue was full.
    pub shed: u64,
    /// Members withdrawn before dispatch because their deadline expired
    /// in the queue.
    pub expired: u64,
    /// Members actually dispatched to the service in a batch.
    pub dispatched: u64,
    /// Requests currently parked in the submission queue.
    pub queued: usize,
}

/// Coalesces singleton submissions into batched
/// [`EstimatorService::estimate_batch_within`] calls, dispatched by the
/// submitting threads themselves (see module docs).
pub struct MicroBatcher {
    svc: Arc<EstimatorService>,
    /// Only the queue and the replies are locked; counters live outside.
    state: Mutex<BatcherState>,
    submitted: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    dispatched: AtomicU64,
    capacity: usize,
    max_batch: usize,
    dispatchers: usize,
}

impl MicroBatcher {
    /// A batcher over `svc`, reading the batching knobs from the
    /// service's [`ServiceConfig`](crate::ServiceConfig). It spawns no
    /// threads: submitters dispatch the batches.
    ///
    /// At most `cfg.workers` (clamped to `>= 1`) batches are in flight at
    /// once, further capped at the shared [`qfe_core::parallel`] pool
    /// width (`QFE_THREADS` / `available_parallelism`): a dispatch drives
    /// featurization and model inference, so running more of them than
    /// the machine has cores only adds queueing jitter — oversized
    /// `cfg.workers` configs degrade gracefully to the pool size instead.
    pub fn new(svc: Arc<EstimatorService>) -> Self {
        let pool_width = qfe_core::parallel::current().threads();
        let dispatchers = svc.config().workers.min(pool_width);
        Self::with_dispatchers(svc, dispatchers)
    }

    /// A batcher with at most `dispatchers` (clamped to `>= 1`) batches
    /// in flight, whatever the pool width.
    fn with_dispatchers(svc: Arc<EstimatorService>, dispatchers: usize) -> Self {
        let cfg = svc.config();
        let max_batch = cfg.max_batch_size.max(1);
        let capacity = cfg.queue_capacity.max(max_batch);
        MicroBatcher {
            svc,
            state: Mutex::new(BatcherState {
                waiting: VecDeque::new(),
                replies: Vec::new(),
                next_ticket: 0,
                in_flight: 0,
            }),
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            capacity,
            max_batch,
            dispatchers: dispatchers.max(1),
        }
    }

    /// Submit one query under the service's default budget, blocking
    /// until its batch is answered. See [`submit_within`](Self::submit_within).
    pub fn submit(&self, query: &Query) -> Result<Estimate, ServeError> {
        self.submit_within(query, Deadline::within(self.svc.config().default_budget))
    }

    /// Submit one query under the caller's deadline, blocking until its
    /// batch is answered — possibly dispatching that batch on this thread.
    ///
    /// Returns exactly what the singleton path would: an [`Estimate`]
    /// with stage provenance, or a typed [`ServeError`] when the request
    /// was shed (queue full), expired in the queue, or ran out of budget
    /// inside the service.
    pub fn submit_within(&self, query: &Query, deadline: Deadline) -> Result<Estimate, ServeError> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.svc.recorder().incr("serve.batch.submitted");
        let query = query.clone();
        let wake = Arc::new(Condvar::new());
        let mut st = self.lock();
        if st.waiting.len() >= self.capacity {
            let queue_len = st.waiting.len();
            drop(st);
            self.shed.fetch_add(1, Ordering::Relaxed);
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
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push_back(BatchRequest {
            ticket,
            wake: Arc::clone(&wake),
            query,
            deadline,
        });
        loop {
            if let Some(i) = st.replies.iter().position(|(t, _)| *t == ticket) {
                return st.replies.swap_remove(i).1;
            }
            if st.in_flight < self.dispatchers {
                // Lead only a batch this caller is part of.
                let mut next_batch = st.waiting.iter().take(self.max_batch);
                if let Some(i) = next_batch.position(|r| r.ticket == ticket) {
                    if deadline.expired() {
                        // Leading now would hold this caller past its own
                        // deadline, for a batch of others.
                        st.waiting.remove(i);
                        self.count_expired();
                        self.wake_next_leader(&st);
                        return Err(deadline_error(deadline, false));
                    }
                    let dispatch = self.take_batch(&mut st, ticket);
                    drop(st);
                    dispatch.run();
                    st = self.lock();
                    continue;
                }
            }
            st = wake.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drain up to `max_batch` queued requests, oldest first — `leader`'s
    /// own among them — answer the expired ones at once, and claim a
    /// dispatch slot for the rest. The leader's own request is never
    /// withdrawn: it was live when the leader checked, and the batch's
    /// tightest deadline covers it.
    fn take_batch(&self, st: &mut BatcherState, leader: u64) -> Dispatch<'_> {
        let n = st.waiting.len().min(self.max_batch);
        let mut queries = Vec::with_capacity(n);
        let mut members = Vec::with_capacity(n);
        for req in st.waiting.drain(..n) {
            // Dispatching a member whose budget died in the queue would
            // only burn the batch's budget on a row that can no longer be
            // answered in time.
            if req.ticket != leader && req.deadline.expired() {
                self.count_expired();
                st.replies
                    .push((req.ticket, Err(deadline_error(req.deadline, false))));
                req.wake.notify_one();
            } else {
                queries.push(req.query);
                members.push(Member {
                    ticket: req.ticket,
                    wake: req.wake,
                    deadline: req.deadline,
                });
            }
        }
        st.in_flight += 1;
        self.dispatched
            .fetch_add(members.len() as u64, Ordering::Relaxed);
        self.wake_next_leader(st);
        Dispatch {
            batcher: self,
            leader,
            queries,
            members,
            results: Vec::new(),
        }
    }

    /// If a dispatch slot is free and requests are queued, wake the owner
    /// of the oldest one: it is the caller that leads next.
    fn wake_next_leader(&self, st: &BatcherState) {
        if st.in_flight < self.dispatchers {
            if let Some(oldest) = st.waiting.front() {
                oldest.wake.notify_one();
            }
        }
    }

    fn count_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        self.svc.recorder().incr("serve.batch.expired");
    }

    /// Poisoning recovery mirrors the admission queue: counters, queue
    /// and replies are valid under any interleaving, so a panicking peer
    /// must not wedge every future submission.
    fn lock(&self) -> MutexGuard<'_, BatcherState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One coherent snapshot of the batcher's counters. After the queue
    /// drains, `submitted == shed + expired + dispatched`.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            queued: self.lock().waiting.len(),
        }
    }

    /// The service this batcher dispatches to.
    pub fn service(&self) -> &Arc<EstimatorService> {
        &self.svc
    }
}

/// The error of a member whose budget ran out before it was answered.
fn deadline_error(deadline: Deadline, admitted: bool) -> ServeError {
    ServeError::DeadlineExceeded {
        budget: deadline.budget(),
        elapsed: deadline.elapsed(),
        stages_tried: 0,
        admitted,
    }
}

/// A dispatched request: whom to answer, how to wake them, and by when.
struct Member {
    ticket: u64,
    wake: Arc<Condvar>,
    deadline: Deadline,
}

/// A claimed dispatch slot and the batch drained into it. Dropping it
/// publishes a reply for every member — its row result, or a deadline
/// error for a row the service never returned — releases the slot and
/// wakes every member and the next leader, on every exit path, so no
/// caller is ever stranded.
struct Dispatch<'a> {
    batcher: &'a MicroBatcher,
    /// The ticket of the caller running the dispatch, itself a member.
    leader: u64,
    queries: Vec<Query>,
    /// In `queries` order.
    members: Vec<Member>,
    results: Vec<Reply>,
}

impl Dispatch<'_> {
    /// Run the batch under the tightest member deadline.
    fn run(mut self) {
        let tightest = self.members.iter().map(|m| m.deadline);
        let Some(deadline) = tightest.min_by_key(Deadline::remaining) else {
            return;
        };
        let queries = Arc::from(std::mem::take(&mut self.queries));
        self.results = self
            .batcher
            .svc
            .estimate_shared_batch_within(queries, deadline);
    }
}

impl Drop for Dispatch<'_> {
    fn drop(&mut self) {
        let mut results = std::mem::take(&mut self.results).into_iter();
        let mut st = self.batcher.lock();
        for m in &self.members {
            let row = results
                .next()
                .unwrap_or_else(|| Err(deadline_error(m.deadline, true)));
            st.replies.push((m.ticket, row));
        }
        st.in_flight -= 1;
        self.batcher.wake_next_leader(&st);
        drop(st);
        // The leader is awake: it finds its own reply when it relocks.
        for m in self.members.iter().filter(|m| m.ticket != self.leader) {
            m.wake.notify_one();
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
        // Drop our handle while submitters are in flight; each submitter
        // holds its own Arc and is answered regardless.
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

    /// Holds a query on table `i` at gate `i`, then answers 42.
    struct Gated(Vec<Arc<Gate>>);
    impl CardinalityEstimator for Gated {
        fn name(&self) -> String {
            "gated".into()
        }
        fn estimate(&self, q: &Query) -> f64 {
            let gate = &self.0[q.tables[0].0];
            let mut st = gate.state.lock().unwrap();
            st.1 += 1;
            gate.cv.notify_all();
            while !st.0 {
                st = gate.cv.wait(st).unwrap();
            }
            42.0
        }
    }

    /// `n` fresh gates and a batcher over a [`Gated`] stage behind them,
    /// with `dispatchers` dispatch slots whatever the pool width.
    fn gated_batcher(
        n: usize,
        dispatchers: usize,
        max_batch_size: usize,
    ) -> (Vec<Arc<Gate>>, Arc<MicroBatcher>) {
        let gates: Vec<_> = (0..n).map(|_| Arc::new(Gate::default())).collect();
        let svc = Arc::new(EstimatorService::new(
            vec![Arc::new(Gated(gates.clone()))],
            ServiceConfig {
                max_batch_size,
                queue_capacity: 32,
                default_budget: Duration::from_secs(30),
                ..ServiceConfig::default()
            },
        ));
        (
            gates,
            Arc::new(MicroBatcher::with_dispatchers(svc, dispatchers)),
        )
    }

    /// Submit a query on table `table` from a new thread; the thread
    /// returns the reply and how long the caller was held.
    fn spawn_submit(
        batcher: &Arc<MicroBatcher>,
        table: usize,
        deadline: Deadline,
    ) -> std::thread::JoinHandle<(Reply, Duration)> {
        let b = Arc::clone(batcher);
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let reply = b.submit_within(&Query::single_table(TableId(table), vec![]), deadline);
            (reply, started.elapsed())
        })
    }

    fn wait_queued(batcher: &MicroBatcher, n: usize) {
        while batcher.stats().queued < n {
            std::thread::yield_now();
        }
    }

    fn batch_sizes(batcher: &MicroBatcher) -> qfe_obs::HistogramSnapshot {
        batcher
            .service()
            .metrics()
            .histogram(crate::service::BATCH_SIZE_METRIC)
            .cloned()
            .expect("batch size histogram")
    }

    #[test]
    fn requests_queued_behind_a_busy_worker_drain_as_one_batch() {
        const K: usize = 6;
        let (gates, batcher) = gated_batcher(1, 1, 32);
        let live = || Deadline::within(Duration::from_secs(30));
        // The only dispatch slot takes the first request alone and is held
        // inside the stage by the gate.
        let leader = spawn_submit(&batcher, 0, live());
        gates[0].wait_entered(1);
        // K live callers pile up behind it, the second of them preceded
        // by a caller whose budget is already gone.
        let mut followers = vec![spawn_submit(&batcher, 0, live())];
        wait_queued(&batcher, 1);
        let expired = spawn_submit(&batcher, 0, Deadline::within(Duration::ZERO));
        wait_queued(&batcher, 2);
        followers.extend((1..K).map(|_| spawn_submit(&batcher, 0, live())));
        wait_queued(&batcher, 1 + K);
        // The freed slot goes to the oldest caller, which withdraws the
        // expired one and leads the rest.
        gates[0].open();
        for h in std::iter::once(leader).chain(followers) {
            assert_eq!(h.join().unwrap().0.unwrap().value, 42.0);
        }
        let err = expired.join().unwrap().0.unwrap_err();
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
        // Two drains: the lone first request, then all K at once; the
        // expired one never reached the service.
        let sizes = batch_sizes(&batcher);
        assert_eq!(
            (sizes.count, sizes.sum_nanos, sizes.max_nanos),
            (2, 1 + K as u64, K as u64)
        );
        let stats = batcher.stats();
        assert_eq!(
            (stats.submitted, stats.shed, stats.expired, stats.dispatched),
            (2 + K as u64, 0, 1, 1 + K as u64)
        );
        assert_eq!(
            stats.submitted,
            stats.shed + stats.expired + stats.dispatched
        );
        let m = batcher.service().metrics();
        assert_eq!(m.counter("serve.batch.expired"), 1);
    }

    #[test]
    fn callers_piled_up_behind_a_gated_leader_drain_in_fifo_batches_of_two() {
        const K: usize = 6;
        let (gates, batcher) = gated_batcher(1, 1, 2);
        let live = || Deadline::within(Duration::from_secs(30));
        let mut handles = vec![spawn_submit(&batcher, 0, live())];
        gates[0].wait_entered(1);
        handles.extend((0..K).map(|_| spawn_submit(&batcher, 0, live())));
        wait_queued(&batcher, K);
        gates[0].open();
        // Each freed slot goes to the owner of the oldest queued request,
        // which leads it and the next one: every caller is answered, in
        // three drains of two behind the first.
        for h in handles {
            assert_eq!(h.join().unwrap().0.unwrap().value, 42.0);
        }
        let sizes = batch_sizes(&batcher);
        assert_eq!(
            (sizes.count, sizes.sum_nanos, sizes.max_nanos),
            (1 + K as u64 / 2, 1 + K as u64, 2)
        );
        let stats = batcher.stats();
        assert_eq!((stats.dispatched, stats.queued), (1 + K as u64, 0));
    }

    #[test]
    fn a_follower_returns_within_its_own_budget_while_a_later_batch_stalls() {
        const FOLLOWERS: usize = 5;
        // Gate 0 and 1 hold the two dispatch slots, gate 2 holds the
        // followers' batch, gate 3 stalls a later batch.
        let (gates, batcher) = gated_batcher(4, 2, 32);
        let long = || Deadline::within(Duration::from_secs(10));
        let own_budget = Duration::from_secs(5);
        let first = spawn_submit(&batcher, 0, long());
        gates[0].wait_entered(1);
        let second = spawn_submit(&batcher, 1, long());
        gates[1].wait_entered(1);
        let followers: Vec<_> = (0..FOLLOWERS)
            .map(|_| spawn_submit(&batcher, 2, Deadline::within(own_budget)))
            .collect();
        wait_queued(&batcher, FOLLOWERS);
        // One slot frees: the followers go out as one batch, held at gate
        // 2 — all but its leader now park with their request in flight.
        gates[1].open();
        gates[2].wait_entered(1);
        // A later request with a longer budget queues behind them, and the
        // other slot frees for it while the followers are still parked.
        let stalled = spawn_submit(&batcher, 3, long());
        wait_queued(&batcher, 1);
        gates[0].open();
        gates[3].wait_entered(1);
        // The followers' batch is answered while the later one stalls:
        // none of them may be held by it.
        gates[2].open();
        for h in followers {
            let (reply, held) = h.join().unwrap();
            assert_eq!(reply.unwrap().value, 42.0);
            assert!(held < own_budget, "a follower was held {held:?}");
        }
        gates[3].open();
        for h in [first, second, stalled] {
            assert_eq!(h.join().unwrap().0.unwrap().value, 42.0);
        }
        let sizes = batch_sizes(&batcher);
        assert_eq!(
            (sizes.count, sizes.sum_nanos, sizes.max_nanos),
            (4, 3 + FOLLOWERS as u64, FOLLOWERS as u64)
        );
    }
}
