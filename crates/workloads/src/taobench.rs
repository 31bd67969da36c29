//! TaoBench: the TAO-style read-through caching benchmark.
//!
//! "TaoBench is a read-through, in-memory cache modeled after TAO …
//! The server spawns a number of so-called fast and slow threads. When a
//! request encounters a cache hit, a fast thread simply returns the cached
//! object to the client. However, in the case of a cache miss, the request
//! is dispatched to a slow thread, which simulates backend database lookup
//! delay, new object creation, and Memcached insertion using the SET
//! command." (§3.2)
//!
//! This implementation is exactly that architecture on this repo's
//! substrates: a [`dcperf_kvstore::Cache`] served through a
//! [`dcperf_rpc::InProcServer`] whose classifier peeks the cache and
//! serves hits on the fast lane — inline, on the client thread that
//! issued the call, as memcached serves a hit on the thread that read it
//! — and queues misses to the slow pool, a
//! [`BackingStore`] paying simulated DB latency on the miss path, and a
//! memtier-style closed-loop client drawing Zipf-distributed keys with
//! production-shaped value sizes.

use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
use dcperf_rpc::{InProcClient, InProcServer, Lane, PoolConfig, Request, Response};
use dcperf_util::{SplitMix64, Zipf};
use std::sync::Arc;
use std::time::Duration;

/// Tunable parameters; `Default` matches the production-shaped TAO
/// configuration scaled by the run's [`Scale`](dcperf_core::Scale).
#[derive(Debug, Clone)]
pub struct TaoBenchConfig {
    /// Distinct keys in the working set (scaled by the run scale).
    pub base_key_space: u64,
    /// Zipf skew of key popularity.
    pub zipf_exponent: f64,
    /// Cache capacity as a fraction of the expected working-set bytes;
    /// below 1.0 forces a production-like miss rate.
    pub cache_fraction: f64,
    /// GET share of the operation mix (the remainder are SETs).
    pub get_fraction: f64,
    /// Simulated DB latency on the miss path.
    pub db_latency: Duration,
    /// Base measurement duration (scaled by the run scale).
    pub base_duration: Duration,
    /// Requests each load-generator worker keeps in flight per turn; 1 is
    /// the classic one-request-per-turn memtier mode, larger values
    /// exercise the pipelined RPC path.
    pub pipeline_depth: usize,
}

impl Default for TaoBenchConfig {
    fn default() -> Self {
        Self {
            base_key_space: 200_000,
            zipf_exponent: 0.99,
            cache_fraction: 0.35,
            get_fraction: 0.95,
            db_latency: Duration::from_micros(150),
            base_duration: Duration::from_millis(400),
            pipeline_depth: 1,
        }
    }
}

/// The TaoBench benchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct TaoBench {
    config: TaoBenchConfig,
}

/// Marker length for a missing object in an `mget` response slot.
const MGET_MISSING: u32 = u32::MAX;

/// Appends one `mget` response slot: `u32` little-endian length plus the
/// value bytes, with [`MGET_MISSING`] marking an absent object.
fn encode_mget_slot(out: &mut Vec<u8>, value: Option<&[u8]>) {
    match value {
        Some(v) => {
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        None => out.extend_from_slice(&MGET_MISSING.to_le_bytes()),
    }
}

/// Consumes one `mget` response slot from `rest`. `Ok(None)` is a missing
/// object; `Err(())` is a truncated or malformed frame.
fn parse_mget_slot<'a>(rest: &mut &'a [u8]) -> Result<Option<&'a [u8]>, ()> {
    let (len_bytes, tail) = rest.split_at_checked(4).ok_or(())?;
    let len = u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]);
    if len == MGET_MISSING {
        *rest = tail;
        return Ok(None);
    }
    let (value, tail) = tail.split_at_checked(len as usize).ok_or(())?;
    *rest = tail;
    Ok(Some(value))
}

/// Appends one `mset` request item: 8-byte key, `u32` little-endian
/// length, value bytes.
fn encode_mset_item(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// Decodes a whole `mset` request body into key/value pairs, or `None` if
/// the frame is malformed.
fn parse_mset_items(body: &[u8]) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut items = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, tail) = rest.split_at_checked(8)?;
        let (len_bytes, tail) = tail.split_at_checked(4)?;
        let len = u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]);
        let (value, tail) = tail.split_at_checked(len as usize)?;
        items.push((key.to_vec(), value.to_vec()));
        rest = tail;
    }
    Some(items)
}

impl TaoBench {
    /// Creates the benchmark with an explicit configuration.
    pub fn with_config(config: TaoBenchConfig) -> Self {
        Self { config }
    }
}

/// The client side: memtier-style key/op generation over the RPC client.
struct TaoClient {
    rpc: InProcClient,
    zipf: Zipf,
    key_space: u64,
    seed: u64,
    store: Arc<BackingStore>,
}

impl TaoClient {
    fn key_for(&self, seq: u64) -> u64 {
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D));
        // Hash the Zipf rank so hot keys are spread across cache shards.
        let rank = self.zipf.sample(&mut rng);
        SplitMix64::mix(rank) % self.key_space.max(1)
    }
}

impl Service for TaoClient {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        let key = self.key_for(seq).to_le_bytes().to_vec();
        let result = if endpoint == 0 {
            self.rpc.call("get", key)
        } else {
            // SET: client supplies the new object, as memtier does.
            let mut body = key.clone();
            body.extend_from_slice(&self.store.synthesize_for_key(&key));
            self.rpc.call("set", body)
        };
        match result {
            Ok(resp) => Ok(resp.body.len()),
            Err(e) => Err(ServiceError::new(e.to_string())),
        }
    }

    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        // Fold the burst into at most two multi-key requests — one mget
        // carrying every GET key and one mset carrying every SET — so the
        // whole pipelined burst maps onto one shard-grouped cache pass
        // server-side, then scatter results back in issue order.
        let mut get_slots: Vec<usize> = Vec::new();
        let mut mget_body: Vec<u8> = Vec::new();
        let mut set_slots: Vec<usize> = Vec::new();
        let mut mset_body: Vec<u8> = Vec::new();
        for (idx, &(endpoint, seq)) in batch.iter().enumerate() {
            let key = self.key_for(seq).to_le_bytes();
            if endpoint == 0 {
                get_slots.push(idx);
                mget_body.extend_from_slice(&key);
            } else {
                set_slots.push(idx);
                encode_mset_item(&mut mset_body, &key, &self.store.synthesize_for_key(&key));
            }
        }
        let mut results: Vec<Option<Result<usize, ServiceError>>> = vec![None; batch.len()];
        if !get_slots.is_empty() {
            match self.rpc.call("mget", mget_body) {
                Ok(resp) => {
                    let mut rest = resp.body.as_slice();
                    for &idx in &get_slots {
                        results[idx] = Some(match parse_mget_slot(&mut rest) {
                            Ok(Some(value)) => Ok(value.len()),
                            Ok(None) => Err(ServiceError::new("object not found")),
                            Err(()) => Err(ServiceError::new("truncated mget response")),
                        });
                    }
                }
                Err(e) => {
                    let err = ServiceError::new(e.to_string());
                    for &idx in &get_slots {
                        results[idx] = Some(Err(err.clone()));
                    }
                }
            }
        }
        if !set_slots.is_empty() {
            let outcome = self.rpc.call("mset", mset_body);
            for &idx in &set_slots {
                results[idx] = Some(match &outcome {
                    Ok(resp) => Ok(resp.body.len()),
                    Err(e) => Err(ServiceError::new(e.to_string())),
                });
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(ServiceError::new("request dropped from batch"))))
            .collect()
    }
}

/// TaoBench's server over `cache` and `store`: `get`, `set`, `mget` and
/// `mset` handlers, with TAO's dispatch. The classifier peeks the cache,
/// so hits run on the fast lane and misses and writes queue to `pool`.
pub(crate) fn tao_server(
    cache: Arc<Cache>,
    store: Arc<BackingStore>,
    pool: PoolConfig,
) -> InProcServer {
    let handler_cache = Arc::clone(&cache);
    InProcServer::start_with_classifier(
        move |req: &Request| match req.method.as_str() {
            "get" => match handler_cache.get_or_load(&req.body, |key| store.lookup(key)) {
                Some(value) => Response::ok(value.to_vec()),
                None => Response::error("object not found"),
            },
            "set" => {
                if req.body.len() < 8 {
                    return Response::error("malformed set");
                }
                let (key, value) = req.body.split_at(8);
                handler_cache.set(key, value.to_vec());
                Response::ok(Vec::new())
            }
            "mget" => {
                // Body: concatenated 8-byte keys. The whole burst
                // resolves in one shard-grouped cache pass, with
                // misses loaded through the single-flight fill path.
                if !req.body.len().is_multiple_of(8) {
                    return Response::error("malformed mget");
                }
                let keys: Vec<&[u8]> = req.body.chunks_exact(8).collect();
                let values = handler_cache.get_or_load_many(&keys, |key| store.lookup(key));
                let mut out = Vec::new();
                for value in &values {
                    encode_mget_slot(&mut out, value.as_deref());
                }
                Response::ok(out)
            }
            "mset" => match parse_mset_items(&req.body) {
                // One write-locked pass per touched shard.
                Some(items) => {
                    handler_cache.set_many(items);
                    Response::ok(Vec::new())
                }
                None => Response::error("malformed mset"),
            },
            other => Response::error(&format!("unknown method {other}")),
        },
        move |req: &Request| {
            // TAO's dispatch: peek the cache; hits take the fast
            // lane, misses and writes the slow threads. The peek is
            // a stat-less `contains` so classification neither skews
            // hit/miss counters nor perturbs LRU order.
            match req.method.as_str() {
                "get" if cache.contains(&req.body) => Lane::Fast,
                "mget"
                    if req.body.len().is_multiple_of(8)
                        && req.body.chunks_exact(8).all(|key| cache.contains(key)) =>
                {
                    Lane::Fast
                }
                _ => Lane::Slow,
            }
        },
        pool,
    )
}

impl Benchmark for TaoBench {
    fn name(&self) -> &str {
        "taobench"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::DataCaching
    }

    fn description(&self) -> &str {
        "TAO-style read-through in-memory cache with fast/slow paths"
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let scale = ctx.config().scale.factor();
        let threads = ctx.config().effective_threads();
        let key_space = self.config.base_key_space * scale;
        let seed = ctx.seed();

        // Expected working set: key space × mean object size; cap the
        // cache below it so the slow path stays exercised.
        let store = Arc::new(BackingStore::new(
            BackingStoreConfig {
                lookup_latency: self.config.db_latency,
                ..BackingStoreConfig::tao_like()
            },
            seed,
        ));
        let mean_object = 450usize; // log-normal mean for the TAO shape
        let capacity = (key_space as usize * mean_object) as f64 * self.config.cache_fraction;
        // Record onto the run's registry so the report's telemetry
        // snapshot carries the cache counters.
        let cache = Arc::new(Cache::with_telemetry(
            CacheConfig::with_capacity_bytes(capacity as usize).with_shards(threads * 4),
            ctx.telemetry(),
        ));

        // Server: hits run inline on the fast lane, misses/SETs on the
        // slow pool.
        let slow_threads = (threads / 2).max(2);
        let server = tao_server(
            Arc::clone(&cache),
            Arc::clone(&store),
            PoolConfig::single_lane(slow_threads).with_queue_depth(8192),
        );

        let client = TaoClient {
            rpc: server.client(),
            zipf: Zipf::new(key_space, self.config.zipf_exponent)
                .map_err(|e| Error::Config(e.to_string()))?,
            key_space,
            seed,
            store: Arc::clone(&store),
        };

        // Warm the cache briefly so the measured phase sees steady state.
        let mix = EndpointMix::new(
            &["get", "set"],
            &[self.config.get_fraction, 1.0 - self.config.get_fraction],
        )
        .map_err(|e| Error::Config(e.to_string()))?;
        ClosedLoop::new(mix.clone())
            .workers(threads)
            .pipeline_depth(self.config.pipeline_depth)
            .duration(self.config.base_duration / 4)
            .run(&client, seed ^ 0xAAAA);
        let warm_hits = cache.stats().hits();
        let warm_misses = cache.stats().misses();

        let mut report = ReportBuilder::new(self.name());
        report.param("key_space", key_space);
        report.param("cache_capacity_bytes", capacity as u64);
        report.param("slow_threads", slow_threads as u64);
        report.param("client_threads", threads as u64);
        report.param("pipeline_depth", self.config.pipeline_depth as u64);
        report.param("zipf_exponent", self.config.zipf_exponent);

        let duration = self.config.base_duration * scale.min(16) as u32;
        // The measured run records onto the run registry (the warmup above
        // kept its own, so warmup traffic stays out of the snapshot).
        let load = ClosedLoop::new(mix)
            .workers(threads)
            .pipeline_depth(self.config.pipeline_depth)
            .duration(duration)
            .telemetry(ctx.telemetry())
            .run(&client, seed);

        // Hit rate over the measured phase only (classifier peeks are
        // counted too, symmetrically, so the ratio is preserved).
        let hits = cache.stats().hits() - warm_hits;
        let misses = cache.stats().misses() - warm_misses;
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };

        report.metric("requests_per_second", load.throughput_rps());
        report.metric("cache_hit_rate", hit_rate);
        report.metric("total_requests", load.completed);
        report.metric("error_rate", load.error_rate());
        report.metric("response_mb", load.response_bytes as f64 / 1e6);
        report.latency_ms("request", &load.latency_ns);
        let stats = server.stats();
        report.metric("rpc_shed", stats.shed());
        server.shutdown();
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;

    fn smoke_config() -> TaoBenchConfig {
        TaoBenchConfig {
            base_key_space: 20_000,
            db_latency: Duration::from_micros(40),
            base_duration: Duration::from_millis(150),
            ..TaoBenchConfig::default()
        }
    }

    #[test]
    fn smoke_run_produces_sane_metrics() {
        let bench = TaoBench::with_config(smoke_config());
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "taobench",
        );
        let report = bench.run(&mut ctx).expect("taobench runs");
        let rps = report.metric_f64("requests_per_second").unwrap();
        assert!(rps > 1_000.0, "rps={rps}");
        let hit_rate = report.metric_f64("cache_hit_rate").unwrap();
        assert!(
            (0.3..=0.999).contains(&hit_rate),
            "hit rate {hit_rate} out of expected band"
        );
        assert_eq!(report.metric_f64("error_rate"), Some(0.0));
        assert!(report.metric_f64("request_p95_ms").unwrap() > 0.0);
    }

    #[test]
    fn pipelined_run_matches_classic_semantics() {
        // Depth 8 batches bursts down the multiplexed RPC path; the mix,
        // hit-rate band, and error-free completion must be unchanged.
        let bench = TaoBench::with_config(TaoBenchConfig {
            pipeline_depth: 8,
            ..smoke_config()
        });
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "taobench",
        );
        let report = bench.run(&mut ctx).expect("pipelined taobench runs");
        assert_eq!(report.metric_f64("error_rate"), Some(0.0));
        let hit_rate = report.metric_f64("cache_hit_rate").unwrap();
        assert!(
            (0.3..=0.999).contains(&hit_rate),
            "hit rate {hit_rate} out of expected band"
        );
        assert!(report.metric_f64("requests_per_second").unwrap() > 1_000.0);
    }

    #[test]
    fn hot_keys_hit_cold_keys_miss() {
        // With a capacity-limited cache and Zipf keys, the measured hit
        // rate must be far above the capacity fraction alone (recency
        // keeps the hot head resident).
        let bench = TaoBench::with_config(TaoBenchConfig {
            cache_fraction: 0.2,
            ..smoke_config()
        });
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "taobench",
        );
        let report = bench.run(&mut ctx).unwrap();
        let hit_rate = report.metric_f64("cache_hit_rate").unwrap();
        assert!(hit_rate > 0.35, "hit rate {hit_rate}");
    }

    #[test]
    fn mget_slot_roundtrip() {
        let mut out = Vec::new();
        encode_mget_slot(&mut out, Some(b"hello"));
        encode_mget_slot(&mut out, None);
        encode_mget_slot(&mut out, Some(b""));
        let mut rest = out.as_slice();
        assert_eq!(parse_mget_slot(&mut rest), Ok(Some(&b"hello"[..])));
        assert_eq!(parse_mget_slot(&mut rest), Ok(None));
        assert_eq!(parse_mget_slot(&mut rest), Ok(Some(&b""[..])));
        assert!(rest.is_empty());
        // Truncated frames are a typed error, not a panic.
        let mut truncated = &out[..2];
        assert_eq!(parse_mget_slot(&mut truncated), Err(()));
    }

    #[test]
    fn mset_items_roundtrip() {
        let mut body = Vec::new();
        encode_mset_item(&mut body, &7u64.to_le_bytes(), b"value-7");
        encode_mset_item(&mut body, &8u64.to_le_bytes(), b"");
        let items = parse_mset_items(&body).expect("well-formed mset");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].0, 7u64.to_le_bytes());
        assert_eq!(items[0].1, b"value-7");
        assert_eq!(items[1].1, b"");
        assert!(parse_mset_items(&body[..5]).is_none(), "truncated mset");
    }

    #[test]
    fn deterministic_key_generation() {
        // Same seed → same key sequence (content determinism).
        let store = Arc::new(BackingStore::new(
            BackingStoreConfig::tao_like().without_latency(),
            9,
        ));
        let server = InProcServer::start(
            |_req: &Request| Response::ok(vec![]),
            PoolConfig::single_lane(1),
        );
        let make = || TaoClient {
            rpc: server.client(),
            zipf: Zipf::new(1000, 0.99).unwrap(),
            key_space: 1000,
            seed: 77,
            store: Arc::clone(&store),
        };
        let a = make();
        let b = make();
        for seq in 0..100 {
            assert_eq!(a.key_for(seq), b.key_for(seq));
        }
        server.shutdown();
    }
}
