//! Runnable CloudSuite minis reproducing the Figure 13 pathologies.
//!
//! §4.6 measures three scalability failures in CloudSuite on modern
//! many-core servers. Each mini here reproduces the *mechanism* so the
//! pathology can be demonstrated live on any machine (the model-level
//! curves live in [`dcperf_platform::cloudsuite`]):
//!
//! * [`data_caching_scaling`] — a cache behind a **single global lock**
//!   (instead of DCPerf's sharding): added threads raise CPU burn much
//!   faster than throughput, and past the contention knee throughput
//!   *drops* (Figure 13a).
//! * [`web_serving_scaling`] — a **fixed-size worker pool with a gateway
//!   timeout**: offered load beyond the pool's capacity converts into 504
//!   errors while most cores idle (Figure 13b).
//! * [`in_memory_analytics_utilization`] — a job with **fixed task
//!   parallelism**: utilization is pinned at `tasks/cores` no matter how
//!   many cores exist (Figure 13c).

use dcperf_kvstore::{Cache, CacheConfig};
use dcperf_util::{BoundedQueue, Rng, SplitMix64, Xoshiro256pp, Zipf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One measured point of the data-caching scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Client/server thread count.
    pub threads: usize,
    /// Achieved requests per second.
    pub rps: f64,
    /// Busy-thread seconds burned per wall second (a CPU-utilization
    /// proxy: threads that spin on the lock still count).
    pub cpu_burn: f64,
}

/// Measures the global-lock cache at several thread counts.
///
/// The benchmark intentionally reproduces CloudSuite Data Caching's
/// non-sharded design: every GET/SET serializes on one mutex.
pub fn data_caching_scaling(
    thread_counts: &[usize],
    per_point: Duration,
    seed: u64,
) -> Vec<ScalingPoint> {
    thread_counts
        .iter()
        .map(|&threads| {
            // One global lock around the entire cache: the anti-pattern.
            let cache = Mutex::new(Cache::new(
                CacheConfig::with_capacity_bytes(8 << 20).with_shards(1),
            ));
            let zipf = Zipf::new(10_000, 0.99).expect("valid zipf");
            let completed = AtomicU64::new(0);
            let started = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..threads.max(1) {
                    let cache = &cache;
                    let zipf = &zipf;
                    let completed = &completed;
                    scope.spawn(move || {
                        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (t as u64) << 32);
                        let deadline = started + per_point;
                        while Instant::now() < deadline {
                            let key = zipf.sample(&mut rng).to_le_bytes();
                            let guard = cache.lock().unwrap_or_else(PoisonError::into_inner);
                            if rng.gen_bool(0.1) {
                                guard.set(&key, vec![0u8; 64]);
                            } else {
                                let _ = guard.get(&key);
                            }
                            drop(guard);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            let secs = started.elapsed().as_secs_f64();
            ScalingPoint {
                threads,
                rps: completed.load(Ordering::Relaxed) as f64 / secs,
                // All threads were runnable the whole time (lock waiters
                // spin in the futex path): burn ≈ thread count.
                cpu_burn: threads as f64,
            }
        })
        .collect()
}

/// One measured point of the web-serving load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebServingSample {
    /// Offered load scale (requests issued per sweep step).
    pub load_scale: u32,
    /// Completed requests.
    pub completed: u64,
    /// Requests that exceeded the gateway timeout (504s).
    pub errors: u64,
}

/// Sweeps offered load against a fixed-size worker pool with a gateway
/// timeout, the Elgg/PHP-FPM shape of CloudSuite Web Serving.
pub fn web_serving_scaling(
    load_scales: &[u32],
    pool_size: usize,
    service_time: Duration,
    gateway_timeout: Duration,
) -> Vec<WebServingSample> {
    load_scales
        .iter()
        .map(|&load| {
            let queue = BoundedQueue::<Instant>::new(4096);
            let completed = AtomicU64::new(0);
            let errors = AtomicU64::new(0);
            std::thread::scope(|scope| {
                // The fixed worker pool (the bottleneck).
                for _ in 0..pool_size {
                    let queue = &queue;
                    let completed = &completed;
                    let errors = &errors;
                    scope.spawn(move || {
                        while let Some(enqueued) = queue.recv() {
                            if enqueued.elapsed() > gateway_timeout {
                                errors.fetch_add(1, Ordering::Relaxed); // 504
                                continue;
                            }
                            // Serve: burn the service time.
                            let done = Instant::now() + service_time;
                            while Instant::now() < done {
                                std::hint::spin_loop();
                            }
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                // Offered load: `load` requests, paced quickly.
                for _ in 0..load {
                    if queue.send(Instant::now()).is_err() {
                        break;
                    }
                }
                queue.close();
            });
            WebServingSample {
                load_scale: load,
                completed: completed.load(Ordering::Relaxed),
                errors: errors.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Runs a fixed-parallelism "analytics job" and reports the utilization
/// it can achieve on `cores` cores.
///
/// Returns `(achieved_utilization_fraction, elapsed)`.
pub fn in_memory_analytics_utilization(
    cores: usize,
    fixed_tasks: usize,
    work_per_task: u64,
) -> (f64, Duration) {
    let started = Instant::now();
    let busy_ns = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Only `fixed_tasks` tasks exist, regardless of core count —
        // the ALS job's partitioning limit.
        for t in 0..fixed_tasks {
            let busy_ns = &busy_ns;
            scope.spawn(move || {
                let t0 = Instant::now();
                let mut acc = 0u64;
                let mut rng = SplitMix64::new(t as u64);
                for _ in 0..work_per_task {
                    acc = acc.wrapping_add(SplitMix64::mix(rng.next_u64()));
                }
                std::hint::black_box(acc);
                busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });
    let elapsed = started.elapsed();
    let capacity_ns = elapsed.as_nanos() as u64 * cores as u64;
    (
        busy_ns.load(Ordering::Relaxed) as f64 / capacity_ns.max(1) as f64,
        elapsed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_caching_throughput_saturates_with_threads() {
        let points = data_caching_scaling(&[1, 4], Duration::from_millis(120), 1);
        assert_eq!(points.len(), 2);
        let per_thread_1 = points[0].rps / 1.0;
        let per_thread_4 = points[1].rps / 4.0;
        // The global lock destroys per-thread efficiency.
        assert!(
            per_thread_4 < per_thread_1 * 0.6,
            "per-thread rps {per_thread_1:.0} -> {per_thread_4:.0} should collapse"
        );
        // CPU burn rises linearly even though throughput doesn't.
        assert!(points[1].cpu_burn >= points[0].cpu_burn * 4.0);
    }

    #[test]
    fn web_serving_errors_appear_past_capacity() {
        // Pool of 2 workers, 2ms service time, 40ms timeout: 200 offered
        // requests exceed what the pool can clear in time.
        let samples = web_serving_scaling(
            &[10, 400],
            2,
            Duration::from_millis(2),
            Duration::from_millis(40),
        );
        assert_eq!(samples[0].errors, 0, "light load must not time out");
        assert!(samples[0].completed == 10);
        assert!(
            samples[1].errors > 0,
            "overload must convert into 504s: {:?}",
            samples[1]
        );
        assert_eq!(samples[1].completed + samples[1].errors, 400);
    }

    #[test]
    fn fixed_parallelism_caps_utilization() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        if cores < 4 {
            return; // can't demonstrate the gap on tiny machines
        }
        let tasks = 2usize;
        let (util, _) = in_memory_analytics_utilization(cores, tasks, 3_000_000);
        let expected = tasks as f64 / cores as f64;
        assert!(
            util < expected * 1.6 + 0.05,
            "utilization {util:.2} should be pinned near {expected:.2}"
        );
        assert!(util > expected * 0.3, "tasks did run: {util:.2}");
    }
}
