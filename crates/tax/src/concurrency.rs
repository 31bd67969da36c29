//! Concurrency-management kernels: the "ThreadManager" tax slice.
//!
//! Production thread managers pay for contended atomics and queue
//! transfers. Each kernel here runs a fixed amount of work across
//! `threads` workers and returns the observed operation count so callers
//! can compute ops/sec, and so scalability collapse (e.g. a global counter
//! at high core counts, §5.3 of the paper) is directly measurable.

use dcperf_util::BoundedQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The same increment load against a relaxed atomic — the "ratelimited /
/// distributed counter" fix: cache-line ping-pong but no lock handoff.
pub fn contended_atomic_counter(threads: usize, per_thread: u64) -> u64 {
    let counter = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..threads.max(1) {
        let counter = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..per_thread {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().expect("counter worker panicked");
    }
    counter.load(Ordering::Relaxed)
}

/// Streams `messages` items from `producers` producer threads to an equal
/// number of consumers over a [`BoundedQueue`]. Returns the number of
/// items received.
pub fn queue_throughput(producers: usize, messages: u64) -> u64 {
    let producers = producers.max(1);
    let queue = Arc::new(BoundedQueue::<u64>::new(1024));
    let received = Arc::new(AtomicU64::new(0));

    let mut senders = Vec::new();
    for p in 0..producers {
        let queue = Arc::clone(&queue);
        let share = messages / producers as u64
            + if (p as u64) < messages % producers as u64 {
                1
            } else {
                0
            };
        senders.push(std::thread::spawn(move || {
            for i in 0..share {
                queue.send(i).expect("queue closed early");
            }
        }));
    }
    let mut receivers = Vec::new();
    for _ in 0..producers {
        let queue = Arc::clone(&queue);
        let received = Arc::clone(&received);
        receivers.push(std::thread::spawn(move || {
            while queue.recv().is_some() {
                received.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for h in senders {
        h.join().expect("queue producer panicked");
    }
    queue.close();
    for h in receivers {
        h.join().expect("queue consumer panicked");
    }
    received.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_counter_is_exact() {
        assert_eq!(contended_atomic_counter(4, 10_000), 40_000);
    }

    #[test]
    fn counters_handle_zero_threads() {
        assert_eq!(contended_atomic_counter(0, 10), 10);
    }

    #[test]
    fn queue_delivers_every_message() {
        assert_eq!(queue_throughput(3, 10_000), 10_000);
        assert_eq!(queue_throughput(1, 0), 0);
        // Uneven split.
        assert_eq!(queue_throughput(3, 10), 10);
    }
}
