//! `kv_tcp`: memcached-style traffic over loopback TCP.
//!
//! One `TcpClient` with an in-flight window of 16 pipelines individual
//! `get`/`set` frames to a `TcpServer` with one pool thread, whose handler
//! runs scalar `Cache::get`/`Cache::set` against a fully resident set of
//! 100k keys. 80% GET / 20% SET, Zipf 0.99. RPC framing, the wire codec,
//! socket I/O and the server's reader and writer threads do most of the
//! work; the cache is a small share.

use crate::harness::Workload;
use crate::trace::{Name, Tracer};
use crate::{key_of, request_rng, zipf, Counters, Expected, Gauges};
use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_loadgen::{EndpointMix, Service, ServiceError};
use dcperf_rpc::{PipelineConfig, PoolConfig, Request, Response, TcpClient, TcpServer};
use dcperf_util::{SplitMix64, Zipf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Keys in the full-size set.
pub const KEYS: u64 = 100_000;
/// Keys in the test-size set.
pub const SMALL_KEYS: u64 = 2_000;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 0.99;
/// GET share of requests.
pub const GET_FRACTION: f64 = 0.8;
/// Client in-flight window (frames per burst).
pub const WINDOW: usize = 16;
/// Cache shards (fixed, not scaled by core count).
pub const SHARDS: usize = 16;
/// Frame op codes: the first body byte.
const OP_GET: u8 = 0;
const OP_SET: u8 = 1;

/// The workload. See the [module docs](self).
pub struct KvTcp {
    tracer: Arc<Tracer>,
    // Declared before the server so the connection closes first and the
    // server's connection threads see EOF before shutdown.
    client: Mutex<TcpClient>,
    server: TcpServer,
    cache: Arc<Cache>,
    store: BackingStore,
    zipf: Zipf,
    salt: u64,
    seed: u64,
    phase: AtomicU64,
    oracle: Vec<Expected>,
    keys: u64,
    capacity: u64,
}

impl KvTcp {
    /// The popularity rank of request `seq` in `phase`.
    pub fn rank(&self, phase: u64, seq: u64) -> u64 {
        self.zipf.sample(&mut request_rng(self.seed, phase, seq))
    }

    /// The correct object for rank `rank`.
    pub fn expected_value(&self, rank: u64) -> Vec<u8> {
        self.store.synthesize_for_key(&key_of(self.salt, rank))
    }

    /// Whether `value` is the correct object for rank `rank`.
    pub fn check(&self, rank: u64, value: &[u8]) -> bool {
        self.oracle[rank as usize].matches(value)
    }
}

fn handle(req: &Request, cache: &Cache, tracer: &Tracer) -> Response {
    let _span = tracer.span(Name::Handler, 1);
    let body = &req.body;
    if body.len() < 9 {
        return Response::error("malformed frame");
    }
    let key = &body[1..9];
    match body[0] {
        OP_GET => {
            let hit = {
                let _s = tracer.span(Name::KvGet, 1);
                cache.get(key)
            };
            match hit {
                Some(v) => Response::ok(v.to_vec()),
                None => Response::error("miss"),
            }
        }
        OP_SET => {
            let value = body[9..].to_vec();
            let _s = tracer.span(Name::KvSet, 1);
            cache.set(key, value);
            Response::ok(Vec::new())
        }
        _ => Response::error("unknown op"),
    }
}

impl Workload for KvTcp {
    fn build(seed: u64, full_size: bool, tracer: Arc<Tracer>) -> Result<Self, String> {
        let keys = if full_size { KEYS } else { SMALL_KEYS };
        let salt = SplitMix64::mix(seed ^ 0x006B_7674_6370);
        let store = BackingStore::new(BackingStoreConfig::tao_like().without_latency(), seed);
        let mut oracle = Vec::with_capacity(keys as usize);
        let cache_items: Vec<(Vec<u8>, Vec<u8>)> = (0..keys)
            .map(|rank| {
                let key = key_of(salt, rank);
                let value = store.synthesize_for_key(&key);
                oracle.push(Expected::of(&value));
                (key.to_vec(), value)
            })
            .collect();
        // Twice the charged working set: every key stays resident.
        let charged: u64 = oracle.iter().map(|e| 8 + u64::from(e.len) + 64).sum();
        let capacity = 2 * charged;
        let cache = Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes(capacity as usize).with_shards(SHARDS),
        ));
        cache.set_many(cache_items);

        let (h_cache, h_tracer) = (Arc::clone(&cache), Arc::clone(&tracer));
        let server = TcpServer::bind_with_pipeline(
            "127.0.0.1:0",
            move |req: &Request| handle(req, &h_cache, &h_tracer),
            PoolConfig::single_lane(1),
            PipelineConfig::default(),
        )
        .map_err(|e| format!("binding the TCP server: {e}"))?;
        let client = TcpClient::connect(server.local_addr())
            .map_err(|e| format!("connecting to the TCP server: {e}"))?
            .with_window(WINDOW);
        Ok(Self {
            tracer,
            client: Mutex::new(client),
            server,
            cache,
            store,
            zipf: zipf(keys, ZIPF_S)?,
            salt,
            seed,
            phase: AtomicU64::new(0),
            oracle,
            keys,
            capacity,
        })
    }

    fn set_phase(&self, phase: u64) {
        // ordering: written before ClosedLoop::run spawns its worker
        self.phase.store(phase, Ordering::Relaxed);
    }

    fn mix(&self) -> EndpointMix {
        EndpointMix::new(&["get", "set"], &[GET_FRACTION, 1.0 - GET_FRACTION])
            .expect("constant weights are valid")
    }

    fn counters(&self) -> Counters {
        let s = self.cache.stats();
        let client = self.client.lock().expect("client lock poisoned");
        let p = self.server.pipeline();
        Counters {
            hits: s.hits(),
            misses: s.misses(),
            evictions: s.evictions(),
            rpc_bytes: client.stats().bytes_sent() + client.stats().bytes_received(),
            flushes: p.flushes(),
            flushed_responses: p.batched_responses(),
            ..Counters::default()
        }
    }

    fn gauges(&self) -> Gauges {
        Gauges {
            cache_used_bytes: self.cache.used_bytes() as u64,
            inflight_peak: self.server.pipeline().inflight_peak().max(0) as u64,
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("keys", self.keys.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("get_fraction", GET_FRACTION.to_string()),
            ("cache_capacity_bytes", self.capacity.to_string()),
            ("cache_shards", SHARDS.to_string()),
            ("client_window", WINDOW.to_string()),
            ("server_pool_threads", "1".into()),
        ]
    }
}

impl Service for KvTcp {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        self.call_many(&[(endpoint, seq)]).remove(0)
    }

    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        // ordering: see set_phase
        let phase = self.phase.load(Ordering::Relaxed);
        let mut ranks = Vec::with_capacity(batch.len());
        let bodies: Vec<Vec<u8>> = batch
            .iter()
            .map(|&(endpoint, seq)| {
                let rank = self.rank(phase, seq);
                ranks.push(rank);
                let key = key_of(self.salt, rank);
                if endpoint == 0 {
                    let mut body = Vec::with_capacity(9);
                    body.push(OP_GET);
                    body.extend_from_slice(&key);
                    body
                } else {
                    // A SET writes the object the oracle expects.
                    let value = self.store.synthesize_for_key(&key);
                    let mut body = Vec::with_capacity(9 + value.len());
                    body.push(OP_SET);
                    body.extend_from_slice(&key);
                    body.extend_from_slice(&value);
                    body
                }
            })
            .collect();
        let replies = {
            let mut client = self.client.lock().expect("client lock poisoned");
            let _s = self.tracer.span(Name::TcpCallMany, bodies.len() as u64);
            client.call_many("kv", bodies)
        };
        batch
            .iter()
            .zip(ranks)
            .zip(replies)
            .map(|((&(endpoint, _), rank), reply)| match reply {
                Ok(resp) if endpoint == 0 && self.check(rank, &resp.body) => Ok(resp.body.len()),
                Ok(resp) if endpoint != 0 && resp.body.is_empty() => Ok(0),
                Ok(_) => Err(ServiceError::new("wrong value")),
                Err(e) => Err(ServiceError::new(e.to_string())),
            })
            .collect()
    }
}
