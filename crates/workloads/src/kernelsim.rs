//! A runnable demonstration of the §5.3 kernel scalability bug.
//!
//! The paper traced TaoBench's poor 384-core scaling to "lock contention
//! on a counter used for tracking system load" (`tg->load_avg`),
//! "mitigated in kernel 6.9 by a patch that reduced the update frequency
//! of the counter". This module reproduces the mechanism in user space:
//! worker threads do fixed-size work quanta and, like the scheduler,
//! account each quantum on a *global* counter. In the `V6_4` style every
//! quantum updates the shared counter; in the `V6_9` style updates are
//! batched locally and flushed at a rate limit — the exact structure of
//! the upstream patch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Which accounting policy to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterPolicy {
    /// Kernel-6.4 style: the shared load counter is updated on every
    /// scheduling quantum.
    EveryUpdate,
    /// Kernel-6.9 style: updates are accumulated locally and flushed to
    /// the shared counter once per `flush_every` quanta (the ratelimit
    /// patch).
    Ratelimited {
        /// Quanta between flushes.
        flush_every: u64,
    },
}

/// The result of one contention run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionResult {
    /// Worker threads used.
    pub threads: usize,
    /// Work quanta completed across all workers.
    pub quanta: u64,
    /// Quanta per second.
    pub throughput: f64,
    /// Final value of the shared load counter (must equal `quanta`).
    pub counter_value: u64,
    /// Updates made to the shared load counter: one per quantum under
    /// `EveryUpdate`, one per `flush_every` quanta (plus each worker's
    /// final partial batch) under `Ratelimited`.
    pub flushes: u64,
}

/// Runs `threads` workers for `duration`, each executing small work
/// quanta and accounting them per `policy`.
pub fn run_contention(
    threads: usize,
    duration: Duration,
    policy: CounterPolicy,
) -> ContentionResult {
    // The shared "tg->load_avg": a mutex-protected counter, like the
    // cacheline the scheduler bounces.
    let load_avg = Mutex::new(0u64);
    let quanta = AtomicU64::new(0);
    let flushes = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads.max(1) {
            let load_avg = &load_avg;
            let quanta = &quanta;
            let flushes = &flushes;
            scope.spawn(move || {
                let deadline = started + duration;
                let mut local = 0u64;
                let mut done = 0u64;
                let mut flushed = 0u64;
                let mut x = t as u64 + 1;
                while Instant::now() < deadline {
                    // One scheduling quantum of "application work".
                    for _ in 0..64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                    done += 1;
                    match policy {
                        CounterPolicy::EveryUpdate => {
                            *load_avg.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                            flushed += 1;
                        }
                        CounterPolicy::Ratelimited { flush_every } => {
                            local += 1;
                            if local >= flush_every {
                                *load_avg.lock().unwrap_or_else(PoisonError::into_inner) += local;
                                local = 0;
                                flushed += 1;
                            }
                        }
                    }
                }
                if local > 0 {
                    *load_avg.lock().unwrap_or_else(PoisonError::into_inner) += local;
                    flushed += 1;
                }
                quanta.fetch_add(done, Ordering::Relaxed);
                flushes.fetch_add(flushed, Ordering::Relaxed);
            });
        }
    });
    let secs = started.elapsed().as_secs_f64();
    let total = quanta.load(Ordering::Relaxed);
    let counter_value = *load_avg.lock().unwrap_or_else(PoisonError::into_inner);
    ContentionResult {
        threads,
        quanta: total,
        throughput: total as f64 / secs,
        counter_value,
        flushes: flushes.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_never_lost() {
        for policy in [
            CounterPolicy::EveryUpdate,
            CounterPolicy::Ratelimited { flush_every: 32 },
        ] {
            let result = run_contention(4, Duration::from_millis(80), policy);
            assert_eq!(
                result.counter_value, result.quanta,
                "accounting must be exact under {policy:?}"
            );
            assert!(result.throughput > 0.0);
        }
    }

    #[test]
    fn ratelimited_flushes_stay_batched_at_high_thread_counts() {
        // Whether batching wins on the clock depends on the host's core
        // count and load (examples/kernel_scalability.rs prints the
        // contrast). What the policy fixes is how often the shared
        // counter is touched, and that no quantum is lost.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let threads = (cores * 2).max(8);
        let dur = Duration::from_millis(150);
        let contended = run_contention(threads, dur, CounterPolicy::EveryUpdate);
        assert_eq!(contended.counter_value, contended.quanta);
        assert_eq!(
            contended.flushes, contended.quanta,
            "one update per quantum"
        );
        let ratelimited =
            run_contention(threads, dur, CounterPolicy::Ratelimited { flush_every: 64 });
        assert_eq!(ratelimited.counter_value, ratelimited.quanta);
        let (quanta, flushes) = (ratelimited.quanta, ratelimited.flushes);
        assert!(
            quanta / 64 <= flushes && flushes <= quanta.div_ceil(64) + threads as u64,
            "{flushes} flushes for {quanta} quanta on {threads} threads: one per 64 \
             quanta, plus at most one partial batch per worker"
        );
    }

    #[test]
    fn single_thread_flushes_follow_the_policy() {
        // Wall-clock throughput of one uncontended thread says little in
        // a debug build, where the per-quantum lock is not small next to
        // the work. What the policy fixes is how often the shared counter
        // is touched, and that no quantum is lost.
        let dur = Duration::from_millis(40);
        let every = run_contention(1, dur, CounterPolicy::EveryUpdate);
        assert_eq!(every.counter_value, every.quanta);
        assert_eq!(every.flushes, every.quanta, "one update per quantum");
        let rate = run_contention(1, dur, CounterPolicy::Ratelimited { flush_every: 64 });
        assert_eq!(rate.counter_value, rate.quanta);
        assert_eq!(
            rate.flushes,
            rate.quanta.div_ceil(64),
            "one update per 64 quanta, plus the final partial batch"
        );
    }
}
