//! Fixed worker thread pools with fast/slow lane routing.
//!
//! TAO "utilizes separate thread pools for fast and slow paths" (§6 of the
//! paper), and DCPerf's TaoBench reproduces that: cache hits are served by
//! *fast* threads while misses are dispatched to *slow* threads that
//! simulate database lookups. [`ThreadPool`] implements that structure for
//! any [`Lane`]-classified job stream. Each lane's queue is bounded: a
//! full queue makes [`ThreadPool::spawn`] wait for space, so overload
//! pushes back on callers as queueing delay instead of growing memory
//! without bound. Jobs are never shed.

use crossbeam::channel::{bounded, Receiver, Sender};
use dcperf_telemetry::{metrics, Counter, Telemetry};
use std::cell::RefCell;
use std::sync::Arc;

/// Which pool a job is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-critical path (e.g. cache hit).
    Fast,
    /// Expensive path (e.g. cache miss hitting the database).
    Slow,
}

/// Thread-pool sizing and queue depths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of fast-lane worker threads (0 disables the lane).
    pub fast_threads: usize,
    /// Number of slow-lane worker threads (0 routes everything fast).
    pub slow_threads: usize,
    /// Bounded queue depth per lane.
    pub queue_depth: usize,
}

impl PoolConfig {
    /// A single-lane pool with `threads` fast workers and a deep queue.
    pub fn single_lane(threads: usize) -> Self {
        Self {
            fast_threads: threads.max(1),
            slow_threads: 0,
            queue_depth: 4096,
        }
    }

    /// A fast/slow split pool, TAO-style.
    pub fn fast_slow(fast_threads: usize, slow_threads: usize) -> Self {
        Self {
            fast_threads: fast_threads.max(1),
            slow_threads,
            queue_depth: 4096,
        }
    }

    /// Overrides the per-lane queue depth (builder style).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Work a job hands to the end of its worker's dequeue batch, such as
/// writing out the responses the batch completed in one syscall.
pub(crate) trait BatchEnd {
    /// Runs once the worker's current batch of jobs is done.
    fn batch_end(&self);
}

thread_local! {
    /// `Some` on a pool worker: the tasks to run when its current dequeue
    /// batch ends. `None` on every other thread.
    static BATCH_END: RefCell<Option<Vec<Arc<dyn BatchEnd>>>> = const { RefCell::new(None) };
}

/// Schedules `task` to run once at the end of the calling worker's
/// current dequeue batch; scheduling the same task again in one batch is
/// a no-op. Returns `false`, scheduling nothing, when the caller is not a
/// pool worker: no batch end will come, so the caller must act at once.
pub(crate) fn defer_to_batch_end<T: BatchEnd + 'static>(task: &Arc<T>) -> bool {
    BATCH_END.with(|slot| {
        let mut slot = slot.borrow_mut();
        let Some(tasks) = slot.as_mut() else {
            return false;
        };
        let ptr = Arc::as_ptr(task).cast::<()>();
        if !tasks.iter().any(|t| Arc::as_ptr(t).cast::<()>() == ptr) {
            tasks.push(Arc::clone(task) as Arc<dyn BatchEnd>);
        }
        true
    })
}

/// Runs and clears the tasks the finished batch scheduled. The list is
/// taken out first, so a task may schedule work for the next batch.
fn end_batch() {
    let tasks = BATCH_END.with(|slot| slot.borrow_mut().as_mut().map(std::mem::take));
    for task in tasks.into_iter().flatten() {
        task.batch_end();
    }
}

/// Counters exposed by a running pool, recorded through the unified
/// telemetry layer (namespace `rpc.pool.*` by default).
#[derive(Debug)]
pub struct PoolStats {
    fast_jobs: Arc<Counter>,
    slow_jobs: Arc<Counter>,
}

impl PoolStats {
    /// Creates zeroed counters in a private registry.
    pub fn new() -> Self {
        Self::with_telemetry(&Telemetry::new(), metrics::PREFIX_RPC_POOL)
    }

    /// Registers the counters under `<prefix>.*` in `telemetry`.
    pub fn with_telemetry(telemetry: &Telemetry, prefix: &str) -> Self {
        let counter = |s| telemetry.counter(&metrics::scoped(prefix, s));
        Self {
            fast_jobs: counter(metrics::suffix::FAST_JOBS),
            slow_jobs: counter(metrics::suffix::SLOW_JOBS),
        }
    }

    /// Jobs accepted into the fast lane.
    pub fn fast_jobs(&self) -> u64 {
        self.fast_jobs.get()
    }

    /// Jobs accepted into the slow lane.
    pub fn slow_jobs(&self) -> u64 {
        self.slow_jobs.get()
    }
}

impl Default for PoolStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-size worker pool with fast/slow lanes and bounded queues.
///
/// # Examples
///
/// ```
/// use dcperf_rpc::{Lane, PoolConfig, ThreadPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = ThreadPool::new(PoolConfig::fast_slow(2, 1));
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     pool.spawn(Lane::Fast, move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///     })
///     .unwrap();
/// }
/// pool.shutdown();
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct ThreadPool {
    fast_tx: Sender<Job>,
    slow_tx: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .field("has_slow_lane", &self.slow_tx.is_some())
            .finish()
    }
}

/// Error returned by [`ThreadPool::spawn`] when a job cannot be queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnError {
    /// The pool has been shut down.
    Shutdown,
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Shutdown => write!(f, "thread pool shut down"),
        }
    }
}

impl std::error::Error for SpawnError {}

impl ThreadPool {
    /// Creates the pool with counters in a private registry.
    pub fn new(config: PoolConfig) -> Self {
        Self::with_stats(config, PoolStats::new())
    }

    /// Creates the pool with counters registered under `rpc.pool.*` in
    /// `telemetry`.
    pub fn with_telemetry(config: PoolConfig, telemetry: &Telemetry) -> Self {
        Self::with_stats(
            config,
            PoolStats::with_telemetry(telemetry, metrics::PREFIX_RPC_POOL),
        )
    }

    fn with_stats(config: PoolConfig, stats: PoolStats) -> Self {
        let stats = Arc::new(stats);
        let mut workers = Vec::new();

        let (fast_tx, fast_rx) = bounded::<Job>(config.queue_depth);
        for i in 0..config.fast_threads.max(1) {
            workers.push(Self::worker(format!("rpc-fast-{i}"), fast_rx.clone()));
        }

        let slow_tx = if config.slow_threads > 0 {
            let (tx, rx) = bounded::<Job>(config.queue_depth);
            for i in 0..config.slow_threads {
                workers.push(Self::worker(format!("rpc-slow-{i}"), rx.clone()));
            }
            Some(tx)
        } else {
            None
        };

        Self {
            fast_tx,
            slow_tx,
            workers,
            stats,
        }
    }

    fn worker(name: String, rx: Receiver<Job>) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                // Batch dequeue: after the blocking receive, drain up to
                // DEQUEUE_BATCH already-queued jobs without re-parking.
                // Under a pipelined burst this trades one wakeup for a
                // run of jobs; under light load try_recv misses and the
                // loop parks again, identical to one-at-a-time dequeue.
                // Work the jobs deferred (see `defer_to_batch_end`) runs
                // before the worker parks again.
                const DEQUEUE_BATCH: usize = 16;
                BATCH_END.with(|slot| *slot.borrow_mut() = Some(Vec::new()));
                while let Ok(job) = rx.recv() {
                    job();
                    for _ in 1..DEQUEUE_BATCH {
                        match rx.try_recv() {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    }
                    end_batch();
                }
            })
            // analyzer: allow(panic-path) — spawn failure at pool construction is fatal by design
            .expect("failed to spawn pool worker")
    }

    /// Queues a job on the given lane, blocking until there is queue
    /// space (closed-loop callers).
    ///
    /// Jobs for [`Lane::Slow`] fall back to the fast lane when the pool has
    /// no slow workers.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError::Shutdown`] after [`ThreadPool::shutdown`].
    pub fn spawn<F>(&self, lane: Lane, job: F) -> Result<(), SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        let (tx, counter) = match (lane, &self.slow_tx) {
            (Lane::Slow, Some(tx)) => (tx, &self.stats.slow_jobs),
            _ => (&self.fast_tx, &self.stats.fast_jobs),
        };
        tx.send(Box::new(job)).map_err(|_| SpawnError::Shutdown)?;
        counter.inc();
        Ok(())
    }

    /// Pool counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queues and joins every worker, completing queued jobs.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Dropping the senders closes the channels; workers drain and exit.
        let (dummy_tx, _) = bounded::<Job>(1);
        let fast = std::mem::replace(&mut self.fast_tx, dummy_tx);
        drop(fast);
        drop(self.slow_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run_before_shutdown_returns() {
        let pool = ThreadPool::new(PoolConfig::single_lane(4));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let done = Arc::clone(&done);
            pool.spawn(Lane::Fast, move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn slow_lane_routes_to_slow_workers() {
        let pool = ThreadPool::new(PoolConfig::fast_slow(1, 1));
        let slow_ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let slow_ran = Arc::clone(&slow_ran);
            pool.spawn(Lane::Slow, move || {
                slow_ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(slow_ran.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn slow_jobs_fall_back_to_fast_lane_without_slow_workers() {
        let pool = ThreadPool::new(PoolConfig::single_lane(2));
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        pool.spawn(Lane::Slow, move || {
            r2.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_count_lane_usage() {
        let pool = ThreadPool::new(PoolConfig::fast_slow(1, 1));
        for _ in 0..5 {
            pool.spawn(Lane::Fast, || {}).unwrap();
        }
        for _ in 0..3 {
            pool.spawn(Lane::Slow, || {}).unwrap();
        }
        // Counters update before shutdown completes.
        assert_eq!(pool.stats().fast_jobs(), 5);
        assert_eq!(pool.stats().slow_jobs(), 3);
        pool.shutdown();
    }

    #[test]
    fn worker_count_reflects_config() {
        let pool = ThreadPool::new(PoolConfig::fast_slow(3, 2));
        assert_eq!(pool.worker_count(), 5);
        pool.shutdown();
    }

    /// Records, at each batch end, how many jobs had run by then.
    struct BatchProbe {
        jobs: AtomicUsize,
        seen_at_batch_end: std::sync::Mutex<Vec<usize>>,
    }

    impl BatchEnd for BatchProbe {
        fn batch_end(&self) {
            // ordering: the jobs ran earlier on this same thread
            let jobs = self.jobs.load(Ordering::Relaxed);
            self.seen_at_batch_end.lock().unwrap().push(jobs);
        }
    }

    #[test]
    fn defer_to_batch_end_is_refused_off_a_worker() {
        let probe = Arc::new(BatchProbe {
            jobs: AtomicUsize::new(0),
            seen_at_batch_end: std::sync::Mutex::new(Vec::new()),
        });
        assert!(!defer_to_batch_end(&probe));
        end_batch();
        assert!(probe.seen_at_batch_end.lock().unwrap().is_empty());
    }

    #[test]
    fn deferred_task_runs_once_after_the_whole_batch() {
        let pool = ThreadPool::new(PoolConfig::single_lane(1));
        let probe = Arc::new(BatchProbe {
            jobs: AtomicUsize::new(0),
            seen_at_batch_end: std::sync::Mutex::new(Vec::new()),
        });
        // Hold the worker on a gate so the next three jobs queue up and
        // are drained as one batch.
        let (gate_tx, gate_rx) = bounded::<()>(1);
        pool.spawn(Lane::Fast, move || {
            let _ = gate_rx.recv();
        })
        .unwrap();
        for _ in 0..3 {
            let probe = Arc::clone(&probe);
            pool.spawn(Lane::Fast, move || {
                // ordering: read back on this thread at the batch end
                probe.jobs.fetch_add(1, Ordering::Relaxed);
                assert!(defer_to_batch_end(&probe), "jobs run on a pool worker");
            })
            .unwrap();
        }
        gate_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(
            *probe.seen_at_batch_end.lock().unwrap(),
            vec![3],
            "one run, after all three jobs of the batch"
        );
    }

    #[test]
    fn drop_joins_workers() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(PoolConfig::single_lane(2));
            for _ in 0..100 {
                let done = Arc::clone(&done);
                pool.spawn(Lane::Fast, move || {
                    done.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            // No explicit shutdown: Drop must drain.
        }
        assert_eq!(done.load(Ordering::Relaxed), 100);
    }
}
