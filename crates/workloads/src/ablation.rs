//! Architecture ablations: measure the design choices the paper calls
//! out as essential to fidelity (§2.2, §6).
//!
//! * [`compare_cache_architectures`] — **read-through vs look-aside**
//!   caching. "While many caching benchmarks implement a look-aside
//!   cache, DCPerf uses a read-through cache because our production
//!   systems employ it." A look-aside client pays two RPC round trips
//!   plus a client-side fill on every miss; read-through pays one.
//! * [`compare_pool_architectures`] — **fast/slow split pools vs a single
//!   pool**. "TAO utilizes separate thread pools for fast and slow
//!   paths." With one shared pool, slow (DB-latency) misses queue ahead
//!   of cache hits and inflate the hit-path tail latency; the split
//!   serves hits on the calling thread and queues only misses.
//!
//! Both return paired measurements so examples and tests can quantify
//! the architectural difference on the running host.

use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_rpc::{InProcClient, InProcServer, Lane, PoolConfig, Request, Response};
use dcperf_util::{Rng, SplitMix64, Xoshiro256pp, Zipf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one cache-architecture measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArchResult {
    /// Architecture label.
    pub architecture: &'static str,
    /// Requests completed.
    pub requests: u64,
    /// Achieved requests per second.
    pub rps: f64,
    /// RPC calls issued per application request (the protocol overhead).
    pub rpc_calls_per_request: f64,
    /// Cache hit rate observed.
    pub hit_rate: f64,
}

fn cache_server(cache: Arc<Cache>, store: Arc<BackingStore>) -> InProcServer {
    InProcServer::start(
        move |req: &Request| match req.method.as_str() {
            // Read-through GET: the server fills on miss.
            "get_rt" => match cache.get_or_load(&req.body, |k| store.lookup(k)) {
                Some(v) => Response::ok(v.to_vec()),
                None => Response::error("missing"),
            },
            // Look-aside GET: cache only; miss is the client's problem.
            "get_la" => match cache.get(&req.body) {
                Some(v) => Response::ok(v.to_vec()),
                None => Response::error("miss"),
            },
            // Look-aside backend read (a separate "database" service in
            // real deployments; same process here, same RPC cost).
            "db_get" => match store.lookup(&req.body) {
                Some(v) => Response::ok(v),
                None => Response::error("missing"),
            },
            "set" => {
                if req.body.len() < 8 {
                    return Response::error("malformed");
                }
                let (k, v) = req.body.split_at(8);
                cache.set(k, v.to_vec());
                Response::ok(Vec::new())
            }
            other => Response::error(&format!("unknown {other}")),
        },
        // Every request runs inline on the caller's thread (fast lane),
        // so the pool never receives a job and keeps one worker.
        PoolConfig::single_lane(1),
    )
}

fn drive_cache_arch(
    client: &InProcClient,
    read_through: bool,
    key_space: u64,
    duration: Duration,
    threads: usize,
    seed: u64,
) -> (u64, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let requests = AtomicU64::new(0);
    let rpc_calls = AtomicU64::new(0);
    let zipf = Zipf::new(key_space, 0.99).expect("valid zipf");
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let client = client.clone();
            let zipf = &zipf;
            let requests = &requests;
            let rpc_calls = &rpc_calls;
            scope.spawn(move || {
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (t as u64) << 32);
                while started.elapsed() < duration {
                    let key = (SplitMix64::mix(zipf.sample(&mut rng)) % key_space).to_le_bytes();
                    if read_through {
                        let _ = client.call("get_rt", key.to_vec());
                        rpc_calls.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Look-aside: GET; on miss, read the DB and SET.
                        rpc_calls.fetch_add(1, Ordering::Relaxed);
                        if client.call("get_la", key.to_vec()).is_err() {
                            rpc_calls.fetch_add(2, Ordering::Relaxed);
                            if let Ok(resp) = client.call("db_get", key.to_vec()) {
                                let mut body = key.to_vec();
                                body.extend_from_slice(&resp.body);
                                let _ = client.call("set", body);
                            }
                        }
                    }
                    requests.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    (
        requests.load(std::sync::atomic::Ordering::Relaxed),
        rpc_calls.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// Measures read-through vs look-aside caching under identical load.
pub fn compare_cache_architectures(
    key_space: u64,
    duration: Duration,
    threads: usize,
    seed: u64,
) -> Vec<CacheArchResult> {
    let mut out = Vec::new();
    for (label, read_through) in [("read-through", true), ("look-aside", false)] {
        let cache = Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes((key_space as usize) * 160).with_shards(8),
        ));
        let store = Arc::new(BackingStore::new(
            BackingStoreConfig {
                lookup_latency: Duration::from_micros(100),
            },
            seed,
        ));
        let server = cache_server(Arc::clone(&cache), store);
        let client = server.client();
        let started = Instant::now();
        let (requests, rpc_calls) =
            drive_cache_arch(&client, read_through, key_space, duration, threads, seed);
        let secs = started.elapsed().as_secs_f64();
        out.push(CacheArchResult {
            architecture: label,
            requests,
            rps: requests as f64 / secs,
            rpc_calls_per_request: rpc_calls as f64 / requests.max(1) as f64,
            hit_rate: cache.stats().hit_rate(),
        });
        server.shutdown();
    }
    out
}

/// Result of one pool-architecture measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolArchResult {
    /// Architecture label.
    pub architecture: &'static str,
    /// P95 latency of the *hit* (fast) path in microseconds.
    pub hit_p95_us: f64,
    /// P95 latency of the miss path in microseconds.
    pub miss_p95_us: f64,
    /// Total requests served.
    pub requests: u64,
}

/// Workers in the single shared pool. The split configuration keeps half
/// as many slow workers and serves hits on the drivers' own threads.
const POOL_WORKERS: usize = 4;

/// Measures fast/slow split pools versus one shared pool, under a mixed
/// hit/miss stream where misses carry a simulated DB latency.
///
/// Twice as many closed-loop drivers as `POOL_WORKERS` call each server.
/// The single pool routes every request to its `POOL_WORKERS` workers,
/// so with more requests outstanding than workers, misses fill the pool
/// and each hit queues behind about
/// `(drivers − workers) × db_latency / workers` of them. The split
/// configuration serves hits inline on the calling driver's thread and
/// queues only misses to its slow workers, so a hit never waits behind a
/// miss: the head-of-line blocking the split exists to prevent.
pub fn compare_pool_architectures(
    miss_fraction: f64,
    db_latency: Duration,
    duration: Duration,
    seed: u64,
) -> Vec<PoolArchResult> {
    use dcperf_telemetry::ConcurrentHistogram;
    use std::sync::atomic::{AtomicU64, Ordering};

    let drivers = 2 * POOL_WORKERS;
    let mut out = Vec::new();
    // (label, pool, lane of a hit); misses always take the slow lane.
    let configs = [
        (
            "fast/slow pools",
            PoolConfig::single_lane(POOL_WORKERS / 2),
            Lane::Fast,
        ),
        (
            "single pool",
            PoolConfig::single_lane(POOL_WORKERS),
            Lane::Slow,
        ),
    ];
    for (label, pool, hit_lane) in configs {
        let server = InProcServer::start_with_classifier(
            move |req: &Request| {
                if req.method == "miss" {
                    // The slow path: a simulated DB lookup. Sleeping (not
                    // spinning) models the I/O wait and keeps the CPU free
                    // for the fast lane, as in production.
                    std::thread::sleep(db_latency);
                }
                Response::ok(vec![0u8; 64])
            },
            move |req: &Request| {
                if req.method == "miss" {
                    Lane::Slow
                } else {
                    hit_lane
                }
            },
            pool.with_queue_depth(8192),
        );
        let client = server.client();
        // Wait-free striped recording; snapshots are exact once the
        // driver threads have joined.
        let hit_hist = ConcurrentHistogram::new();
        let miss_hist = ConcurrentHistogram::new();
        let total = AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..drivers {
                let client = client.clone();
                let hit_hist = &hit_hist;
                let miss_hist = &miss_hist;
                let total = &total;
                scope.spawn(move || {
                    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (t as u64) << 32);
                    while started.elapsed() < duration {
                        let is_miss = rng.gen_bool(miss_fraction);
                        let method = if is_miss { "miss" } else { "hit" };
                        let t0 = Instant::now();
                        if client.call(method, vec![1u8; 16]).is_ok() {
                            let ns = t0.elapsed().as_nanos() as u64;
                            if is_miss {
                                miss_hist.record(ns);
                            } else {
                                hit_hist.record(ns);
                            }
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        out.push(PoolArchResult {
            architecture: label,
            hit_p95_us: hit_hist.snapshot().p95() as f64 / 1_000.0,
            miss_p95_us: miss_hist.snapshot().p95() as f64 / 1_000.0,
            requests: total.load(Ordering::Relaxed),
        });
        server.shutdown();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn look_aside_pays_more_rpc_calls() {
        let results = compare_cache_architectures(2_000, Duration::from_millis(200), 2, 11);
        let rt = results
            .iter()
            .find(|r| r.architecture == "read-through")
            .unwrap();
        let la = results
            .iter()
            .find(|r| r.architecture == "look-aside")
            .unwrap();
        assert!(
            (0.99..=1.01).contains(&rt.rpc_calls_per_request),
            "read-through must be exactly one call per request: {}",
            rt.rpc_calls_per_request
        );
        assert!(
            la.rpc_calls_per_request > 1.01,
            "look-aside must pay extra calls on misses: {}",
            la.rpc_calls_per_request
        );
        assert!(rt.requests > 0 && la.requests > 0);
    }

    #[test]
    fn split_pools_protect_the_hit_path() {
        // 30% misses at 2ms each: in a single pool, hits queue behind
        // misses; split pools keep the hit path fast.
        let results = compare_pool_architectures(
            0.3,
            Duration::from_millis(2),
            Duration::from_millis(400),
            7,
        );
        let split = results
            .iter()
            .find(|r| r.architecture == "fast/slow pools")
            .unwrap();
        let single = results
            .iter()
            .find(|r| r.architecture == "single pool")
            .unwrap();
        assert!(split.requests > 0 && single.requests > 0);
        // The architectural claim, qualitatively: the split pool's hit
        // p95 must beat the single pool's.
        assert!(
            split.hit_p95_us < single.hit_p95_us,
            "split hit p95 {}us should beat single-pool {}us",
            split.hit_p95_us,
            single.hit_p95_us
        );
        // Misses pay the DB latency either way.
        assert!(split.miss_p95_us >= 1_500.0, "{}", split.miss_p95_us);
    }
}
