//! The slow-lane worker pool.
//!
//! TAO "utilizes separate thread pools for fast and slow paths" (§6 of the
//! paper), and DCPerf's TaoBench reproduces that split. As in memcached,
//! the fast path needs no pool of its own: a [`Lane::Fast`] job (a cache
//! hit) runs on the thread that delivered the request — the caller of an
//! in-process client, or a TCP connection's reader — and only
//! [`Lane::Slow`] jobs (misses that go to the database) are handed to a
//! [`ThreadPool`]. The pool is one [`BoundedQueue`] drained by one set
//! of workers. A full queue makes [`ThreadPool::spawn`] wait for space, so
//! overload pushes back on callers as queueing delay instead of growing
//! memory without bound. Jobs are never shed.
//!
//! A thread that serves requests in runs — a pool worker draining its
//! queue, or a connection reader handling the frames it has buffered —
//! is a *batch context*: work its jobs defer with `defer_to_batch_end`
//! (writing out the responses they completed) runs once per run, and
//! before the thread blocks.

use dcperf_telemetry::{metrics, Counter, Telemetry};
use dcperf_util::queue::{SendError, TrySendError};
use dcperf_util::BoundedQueue;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// Where a request's job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-critical path (e.g. cache hit): runs inline on the thread
    /// that delivered the request.
    Fast,
    /// Expensive path (e.g. cache miss hitting the database): queued to
    /// the server's [`ThreadPool`].
    Slow,
}

/// Thread-pool sizing and queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads, which run the server's [`Lane::Slow`] jobs.
    pub workers: usize,
    /// Bounded depth of the pool's queue.
    pub queue_depth: usize,
}

impl PoolConfig {
    /// A pool of `threads` workers behind one deep queue.
    pub fn single_lane(threads: usize) -> Self {
        Self {
            workers: threads.max(1),
            queue_depth: 4096,
        }
    }

    /// The pool of a fast/slow split, TAO-style: fast-lane jobs run
    /// inline, so only the `slow_threads` workers are started, or
    /// `fast_threads` when `slow_threads` is 0.
    pub fn fast_slow(fast_threads: usize, slow_threads: usize) -> Self {
        Self::single_lane(if slow_threads > 0 {
            slow_threads
        } else {
            fast_threads
        })
    }

    /// Overrides the queue depth (builder style).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Work a job hands to the end of its thread's current batch, such as
/// writing out the responses the batch completed in one syscall.
pub(crate) trait BatchEnd {
    /// Runs once the thread's current batch of jobs is done.
    fn batch_end(self: Arc<Self>);
}

thread_local! {
    /// `Some` on a batch context (a pool worker or a connection reader):
    /// the tasks to run when its current batch ends. `None` on every
    /// other thread.
    static BATCH_END: RefCell<Option<Vec<Arc<dyn BatchEnd>>>> = const { RefCell::new(None) };
}

/// Makes the calling thread a batch context: from now on,
/// [`defer_to_batch_end`] schedules work on it instead of refusing, and
/// the thread must call [`end_batch`] before it blocks.
pub(crate) fn enter_batch_context() {
    BATCH_END.with(|slot| *slot.borrow_mut() = Some(Vec::new()));
}

/// Schedules `task` to run once at the end of the calling thread's
/// current batch; scheduling the same task again in one batch is a
/// no-op. Returns `false`, scheduling nothing, when the caller is not a
/// batch context: no batch end will come, so the caller must act at once.
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
/// taken out first, so a task may schedule work for the next batch. A
/// no-op off a batch context.
pub(crate) fn end_batch() {
    let Some(mut tasks) = BATCH_END.with(|slot| slot.borrow_mut().as_mut().map(std::mem::take))
    else {
        return;
    };
    for task in tasks.drain(..) {
        task.batch_end();
    }
    // Hand the emptied list back for the next batch, so scheduling does
    // not allocate once per batch.
    BATCH_END.with(|slot| {
        if let Some(next) = slot.borrow_mut().as_mut().filter(|next| next.is_empty()) {
            *next = tasks;
        }
    });
}

/// Sends `msg`, waiting for space in the bounded queue. When it has to
/// wait, it first ends the calling thread's batch, so the work that batch
/// deferred is not held back by the wait.
///
/// # Errors
///
/// Returns the message when the queue is closed.
pub(crate) fn send_or_end_batch<T>(queue: &BoundedQueue<T>, msg: T) -> Result<(), SendError<T>> {
    match queue.try_send(msg) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(msg)) => {
            end_batch();
            queue.send(msg)
        }
        Err(TrySendError::Closed(msg)) => Err(SendError(msg)),
    }
}

/// Lane counters, recorded through the unified telemetry layer
/// (namespace `rpc.pool.*` by default).
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

    /// Fast-lane jobs run inline on the delivering thread.
    pub fn fast_jobs(&self) -> u64 {
        self.fast_jobs.get()
    }

    /// Jobs queued to the pool's workers.
    pub fn slow_jobs(&self) -> u64 {
        self.slow_jobs.get()
    }

    /// Counts one fast-lane job run inline.
    pub(crate) fn record_fast_job(&self) {
        self.fast_jobs.inc();
    }
}

impl Default for PoolStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-size worker pool with one bounded queue.
///
/// # Examples
///
/// ```
/// use dcperf_rpc::{PoolConfig, ThreadPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = ThreadPool::new(PoolConfig::single_lane(2));
/// let misses = Arc::new(AtomicU64::new(0));
/// for _ in 0..100 {
///     let misses = Arc::clone(&misses);
///     pool.spawn(move || {
///         misses.fetch_add(1, Ordering::Relaxed);
///     })
///     .unwrap();
/// }
/// pool.shutdown();
/// assert_eq!(misses.load(Ordering::Relaxed), 100);
/// ```
pub struct ThreadPool {
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Held by each pool worker. The last worker to exit closes the queue, so
/// once panicking jobs have ended every worker, [`ThreadPool::spawn`]
/// fails instead of queueing work no thread will run.
struct WorkerExit {
    queue: Arc<BoundedQueue<Job>>,
    live: Arc<Mutex<usize>>,
}

impl Drop for WorkerExit {
    fn drop(&mut self) {
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        *live -= 1;
        if *live == 0 {
            self.queue.close();
        }
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
        let queue = Arc::new(BoundedQueue::new(config.queue_depth));
        let n = config.workers.max(1);
        let live = Arc::new(Mutex::new(n));
        let workers = (0..n)
            .map(|i| {
                let exit = WorkerExit {
                    queue: Arc::clone(&queue),
                    live: Arc::clone(&live),
                };
                Self::worker(format!("rpc-slow-{i}"), exit)
            })
            .collect();
        Self {
            queue,
            workers,
            stats: Arc::new(stats),
        }
    }

    fn worker(name: String, exit: WorkerExit) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let queue = &exit.queue;
                // Batch dequeue: after the blocking receive, drain up to
                // DEQUEUE_BATCH already-queued jobs without re-parking.
                // Under a pipelined burst this trades one wakeup for a
                // run of jobs; under light load try_recv misses and the
                // loop parks again, identical to one-at-a-time dequeue.
                // Work the jobs deferred (see `defer_to_batch_end`) runs
                // before the worker parks again.
                const DEQUEUE_BATCH: usize = 16;
                enter_batch_context();
                while let Some(job) = queue.recv() {
                    job();
                    for _ in 1..DEQUEUE_BATCH {
                        match queue.try_recv() {
                            Some(job) => job(),
                            None => break,
                        }
                    }
                    end_batch();
                }
            })
            // analyzer: allow(panic-path) — spawn failure at pool construction is fatal by design
            .expect("failed to spawn pool worker")
    }

    /// Queues a job, blocking until there is queue space (closed-loop
    /// callers). A caller that is a batch context ends its batch before
    /// it waits (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError::Shutdown`] after [`ThreadPool::shutdown`].
    pub fn spawn<F>(&self, job: F) -> Result<(), SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        send_or_end_batch(&self.queue, Box::new(job) as Job).map_err(|_| SpawnError::Shutdown)?;
        self.stats.slow_jobs.inc();
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

    /// Closes the queue and joins every worker, completing queued jobs.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Workers drain the closed queue and exit.
        self.queue.close();
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
    use std::time::Duration;

    #[test]
    fn all_jobs_run_before_shutdown_returns() {
        let pool = ThreadPool::new(PoolConfig::single_lane(4));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn workers_are_the_slow_lane_or_else_the_fast_threads() {
        // A split pool keeps only its slow workers: fast-lane jobs run
        // inline on the delivering thread.
        let split = ThreadPool::new(PoolConfig::fast_slow(3, 2));
        assert_eq!(split.worker_count(), 2);
        split.shutdown();
        // Without a slow lane, the fast threads run the queued jobs.
        let no_slow = ThreadPool::new(PoolConfig::fast_slow(3, 0));
        assert_eq!(no_slow.worker_count(), 3);
        no_slow.shutdown();
        let single = ThreadPool::new(PoolConfig::single_lane(3));
        assert_eq!(single.worker_count(), 3);
        single.shutdown();
    }

    #[test]
    fn stats_count_queued_jobs_as_slow_and_inline_runs_as_fast() {
        let pool = ThreadPool::new(PoolConfig::fast_slow(1, 1));
        for _ in 0..3 {
            pool.spawn(|| {}).unwrap();
        }
        for _ in 0..5 {
            pool.stats().record_fast_job();
        }
        // Counters update before shutdown completes.
        assert_eq!(pool.stats().slow_jobs(), 3);
        assert_eq!(pool.stats().fast_jobs(), 5);
        pool.shutdown();
    }

    /// Records, at each batch end, how many jobs had run by then.
    struct BatchProbe {
        jobs: AtomicUsize,
        seen_at_batch_end: std::sync::Mutex<Vec<usize>>,
    }

    impl BatchProbe {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                jobs: AtomicUsize::new(0),
                seen_at_batch_end: std::sync::Mutex::new(Vec::new()),
            })
        }
    }

    impl BatchEnd for BatchProbe {
        fn batch_end(self: Arc<Self>) {
            // ordering: the jobs ran earlier on this same thread
            let jobs = self.jobs.load(Ordering::Relaxed);
            self.seen_at_batch_end.lock().unwrap().push(jobs);
        }
    }

    #[test]
    fn defer_to_batch_end_is_refused_off_a_batch_context() {
        let probe = BatchProbe::new();
        assert!(!defer_to_batch_end(&probe));
        end_batch();
        assert!(probe.seen_at_batch_end.lock().unwrap().is_empty());
    }

    #[test]
    fn deferred_task_runs_once_after_the_whole_batch() {
        let pool = ThreadPool::new(PoolConfig::single_lane(1));
        let probe = BatchProbe::new();
        // Hold the worker on a gate so the next three jobs queue up and
        // are drained as one batch.
        let (gate_tx, gate_rx) = std::sync::mpsc::sync_channel::<()>(1);
        pool.spawn(move || {
            let _ = gate_rx.recv();
        })
        .unwrap();
        for _ in 0..3 {
            let probe = Arc::clone(&probe);
            pool.spawn(move || {
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
    fn a_send_that_must_wait_ends_the_batch_first() {
        std::thread::spawn(|| {
            enter_batch_context();
            let probe = BatchProbe::new();
            assert!(defer_to_batch_end(&probe));
            let queue = Arc::new(BoundedQueue::new(1));
            queue.send(0).unwrap();
            // The queue is full: the send below waits until the drainer
            // takes a message, and the drainer waits for the batch end. A
            // send that waited without ending the batch would leave the
            // drainer to time out.
            let seen = Arc::clone(&probe);
            let rx = Arc::clone(&queue);
            let drainer = std::thread::spawn(move || {
                let give_up = std::time::Instant::now() + Duration::from_secs(5);
                while seen.seen_at_batch_end.lock().unwrap().is_empty()
                    && std::time::Instant::now() < give_up
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let ended_first = !seen.seen_at_batch_end.lock().unwrap().is_empty();
                assert_eq!(rx.recv().unwrap(), 0);
                ended_first
            });
            send_or_end_batch(&queue, 1).unwrap();
            let ended_first = drainer.join().unwrap();
            assert!(ended_first, "the batch must end before the send waits");
            assert_eq!(queue.recv().unwrap(), 1);
            // A send with room neither waits nor ends the batch.
            assert!(defer_to_batch_end(&probe));
            send_or_end_batch(&queue, 2).unwrap();
            assert_eq!(probe.seen_at_batch_end.lock().unwrap().len(), 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_pool_whose_workers_all_died_refuses_jobs() {
        let mut pool = ThreadPool::new(PoolConfig::single_lane(1));
        pool.spawn(|| panic!("a job panics on purpose")).unwrap();
        let worker = pool.workers.pop().unwrap();
        assert!(worker.join().is_err(), "the worker died with the job");
        assert_eq!(pool.spawn(|| {}), Err(SpawnError::Shutdown));
    }

    #[test]
    fn drop_joins_workers() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(PoolConfig::single_lane(2));
            for _ in 0..100 {
                let done = Arc::clone(&done);
                pool.spawn(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            // No explicit shutdown: Drop must drain.
        }
        assert_eq!(done.load(Ordering::Relaxed), 100);
    }
}
