//! Reused stage-runner threads for deadline-bounded stage calls.
//!
//! A bounded stage call must be abandonable: if the stage stalls past its
//! share of the budget, the caller stops waiting and the leftover budget
//! flows to the fallbacks. That needs the call on another thread. Spawning
//! a fresh thread per call costs more than the estimator itself, so a
//! runner pool keeps long-lived runner threads instead:
//!
//! - a call borrows an idle runner, or spawns one when none is idle;
//! - the job runs under `catch_unwind`, and the caller waits at most its
//!   share for the answer, counted from when the runner *starts* the job:
//!   a job that waited for its runner (a thread wake-up, a spawn, a stall
//!   of the whole process) keeps its full share. The wait for the start
//!   and the run together stay within the call's outer bound (the
//!   request deadline);
//! - an answered runner (value or contained panic) goes back to the idle
//!   list;
//! - a runner that misses the share is abandoned: its job channel is
//!   dropped, so after the stalled call finishes the thread finds the
//!   channel closed and exits. The next call spawns a replacement.
//!
//! Runners alive at any moment are therefore at most the peak number of
//! concurrent healthy calls plus the abandoned calls still stalled; the
//! service's circuit breaker bounds how many calls a stalled stage can
//! strand. Runner threads are detached: idle ones live as long as the
//! process, abandoned ones end with their stalled call.
//!
//! The service uses one process-wide pool, so every service in a fleet
//! shares the same idle runners; [`stage_runner_stats`] reads its
//! counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;

/// How one bounded call ended.
pub(crate) enum RunOutcome<T> {
    /// The job returned within its share.
    Done(T),
    /// The job did not answer within its share; its runner was abandoned.
    Timeout,
    /// The job panicked; the panic was contained on the runner.
    Panicked,
    /// No runner could be spawned (resource exhaustion).
    Unavailable,
}

/// Counters of a stage-runner pool (see [`stage_runner_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerStats {
    /// Runner threads spawned.
    pub spawned: u64,
    /// Runners abandoned because their call outlived its share.
    pub abandoned: u64,
    /// Runner threads still alive (idle, busy, or finishing a stalled
    /// call).
    pub live: u64,
    /// Runners parked on the idle list.
    pub idle: usize,
}

/// A set of long-lived threads that run bounded calls (see the module
/// docs).
pub(crate) struct RunnerPool {
    /// Job senders of the parked runners; a runner exits once its sender
    /// is dropped.
    idle: Mutex<Vec<mpsc::Sender<Job>>>,
    spawned: AtomicU64,
    abandoned: AtomicU64,
    live: Arc<AtomicU64>,
}

impl RunnerPool {
    pub(crate) fn new() -> Self {
        RunnerPool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            live: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Run `job` on a runner and wait for its result at most `share`
    /// after the runner starts it, and at most `bound` in all.
    pub(crate) fn run<T, F>(&self, share: Duration, bound: Duration, job: F) -> RunOutcome<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let give_up = Instant::now() + bound;
        // Pop in its own statement so the idle lock is released before a
        // spawn.
        let idle = self.lock_idle().pop();
        let Some(runner) = idle.or_else(|| self.spawn()) else {
            return RunOutcome::Unavailable;
        };
        // The runner reports `None` when it starts the job, then the
        // job's result.
        let (tx, rx) = mpsc::sync_channel(2);
        // A runner exits only once its sender is dropped, so the send
        // cannot fail while we hold `runner`.
        if runner
            .send(Box::new(move || {
                let _ = tx.send(None);
                let _ = tx.send(Some(catch_unwind(AssertUnwindSafe(job))));
            }))
            .is_err()
        {
            return RunOutcome::Unavailable;
        }
        let finished = rx.recv_timeout(bound).and_then(|started| match started {
            None => rx.recv_timeout(share.min(give_up.saturating_duration_since(Instant::now()))),
            finished => Ok(finished),
        });
        match finished {
            Ok(Some(result)) => {
                self.lock_idle().push(runner);
                match result {
                    Ok(value) => RunOutcome::Done(value),
                    Err(_) => RunOutcome::Panicked,
                }
            }
            _ => {
                // Dropping `runner` closes its job channel: the thread
                // exits as soon as the stalled call returns.
                self.abandoned.fetch_add(1, Ordering::Relaxed);
                RunOutcome::Timeout
            }
        }
    }

    /// Start a runner thread; `None` when the OS refuses a new thread.
    fn spawn(&self) -> Option<mpsc::Sender<Job>> {
        let (tx, rx) = mpsc::channel::<Job>();
        let live = Arc::clone(&self.live);
        live.fetch_add(1, Ordering::Relaxed);
        let spawned = std::thread::Builder::new()
            .name("qfe-stage-runner".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
                live.fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(_) => {
                self.spawned.fetch_add(1, Ordering::Relaxed);
                Some(tx)
            }
            Err(_) => {
                self.live.fetch_sub(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Poisoning recovery: the idle list is valid after every push and
    /// pop, and no job runs under the lock.
    fn lock_idle(&self) -> std::sync::MutexGuard<'_, Vec<mpsc::Sender<Job>>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn stats(&self) -> RunnerStats {
        RunnerStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            idle: self.lock_idle().len(),
        }
    }
}

/// The process-wide pool every [`crate::EstimatorService`] runs its
/// bounded stage calls on.
pub(crate) fn global() -> &'static RunnerPool {
    static POOL: OnceLock<RunnerPool> = OnceLock::new();
    POOL.get_or_init(RunnerPool::new)
}

/// Counters of the process-wide stage-runner pool shared by every
/// [`crate::EstimatorService`] in this process.
pub fn stage_runner_stats() -> RunnerStats {
    global().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn sequential_calls_reuse_one_runner() {
        let pool = RunnerPool::new();
        for i in 0..1000u64 {
            match pool.run(
                Duration::from_secs(10),
                Duration::from_secs(10),
                move || i * 2,
            ) {
                RunOutcome::Done(v) => assert_eq!(v, i * 2),
                _ => panic!("call {i} did not complete"),
            }
        }
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.abandoned, stats.idle), (1, 0, 1));
    }

    #[test]
    fn a_panicking_job_is_contained_and_its_runner_reused() {
        let pool = RunnerPool::new();
        let outcome = pool.run(
            Duration::from_secs(10),
            Duration::from_secs(10),
            || -> u32 { panic!("runner job bug") },
        );
        assert!(matches!(outcome, RunOutcome::Panicked));
        assert!(matches!(
            pool.run(Duration::from_secs(10), Duration::from_secs(10), || 7u32),
            RunOutcome::Done(7)
        ));
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.abandoned, stats.idle), (1, 0, 1));
    }

    #[test]
    fn a_stalled_job_abandons_its_runner_and_the_next_call_spawns_anew() {
        let pool = RunnerPool::new();
        assert!(matches!(
            pool.run(Duration::from_secs(10), Duration::from_secs(10), || ()),
            RunOutcome::Done(())
        ));
        // The stalled job blocks until `release` is dropped.
        let (release, gate) = mpsc::channel::<()>();
        let t0 = Instant::now();
        let outcome = pool.run(
            Duration::from_millis(20),
            Duration::from_secs(10),
            move || {
                let _ = gate.recv();
            },
        );
        assert!(matches!(outcome, RunOutcome::Timeout));
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.abandoned, stats.idle), (1, 1, 0));

        assert!(matches!(
            pool.run(Duration::from_secs(10), Duration::from_secs(10), || 3u8),
            RunOutcome::Done(3)
        ));
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.abandoned, stats.idle), (2, 1, 1));

        // Released, the abandoned runner finishes its call and exits.
        drop(release);
        let give_up = Instant::now() + Duration::from_secs(30);
        while pool.stats().live > 1 && Instant::now() < give_up {
            std::thread::yield_now();
        }
        assert_eq!(pool.stats().live, 1, "the abandoned runner must exit");
    }

    /// Park a runner busy with a blocker job on the idle list, so the
    /// next call queues behind the blocker; dropping the returned sender
    /// releases it.
    fn park_busy_runner(pool: &RunnerPool) -> mpsc::Sender<()> {
        let runner = pool.spawn().expect("a runner thread");
        let (release, gate) = mpsc::channel::<()>();
        runner
            .send(Box::new(move || {
                let _ = gate.recv();
            }))
            .expect("a live runner takes jobs");
        pool.lock_idle().push(runner);
        release
    }

    #[test]
    fn the_share_is_charged_from_the_start_of_the_job() {
        let share = Duration::from_millis(100);
        let bound = Duration::from_secs(30);
        let pool = RunnerPool::new();

        // Queued behind a blocker that outlives the share: the job starts
        // late and still gets its whole share to answer in.
        let release = park_busy_runner(&pool);
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(share * 3);
            drop(release);
        });
        let t0 = Instant::now();
        let outcome = pool.run(share, bound, move || {
            std::thread::sleep(share / 4);
            5u8
        });
        assert!(matches!(outcome, RunOutcome::Done(5)));
        assert!(t0.elapsed() >= share * 3, "{:?}", t0.elapsed());
        releaser.join().unwrap();

        // Started on time, then stalled: abandoned about one share later,
        // long before the outer bound.
        let (stall, gate) = mpsc::channel::<()>();
        let t0 = Instant::now();
        let outcome = pool.run(share, bound, move || {
            let _ = gate.recv();
        });
        assert!(matches!(outcome, RunOutcome::Timeout));
        let waited = t0.elapsed();
        assert!(waited >= share && waited < bound / 3, "{waited:?}");
        drop(stall);

        // Never started: gives up by the outer bound, long before the
        // share.
        let release = park_busy_runner(&pool);
        let t0 = Instant::now();
        assert!(matches!(
            pool.run(bound, share, || 6u8),
            RunOutcome::Timeout
        ));
        let waited = t0.elapsed();
        assert!(waited >= share && waited < bound / 3, "{waited:?}");
        drop(release);
        assert_eq!(pool.stats().abandoned, 2);
    }
}
