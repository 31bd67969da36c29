//! `tao_mget`: TaoBench in its pipelined mode.
//!
//! Each `ClosedLoop` turn is a burst of 16 requests folded into one
//! `mget` (`Cache::get_or_load_many`, filling misses from
//! `BackingStore::lookup`) and one `mset` (`Cache::set_many`) over
//! `InProcClient` → `InProcServer::start_with_classifier`, whose
//! classifier sends all-resident `mget`s to the fast pool thread and
//! everything else to the slow one. 95% GET / 5% SET, Zipf 0.99 over
//! 200k keys, cache at 35% of the working set's bytes, TAO-shaped values.
//! One request is one key.

use crate::harness::Workload;
use crate::trace::{Name, Tracer};
use crate::{key_of, request_rng, zipf, Counters, Expected, Gauges};
use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_loadgen::{EndpointMix, Service, ServiceError};
use dcperf_rpc::{InProcClient, InProcServer, Lane, PoolConfig, Request, Response};
use dcperf_util::{SplitMix64, Zipf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Keys in the full-size working set.
pub const KEYS: u64 = 200_000;
/// Keys in the test-size working set.
pub const SMALL_KEYS: u64 = 4_000;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 0.99;
/// Cache capacity as a share of the working set's bytes.
pub const CACHE_FRACTION: f64 = 0.35;
/// GET share of requests.
pub const GET_FRACTION: f64 = 0.95;
/// Cache shards (fixed, not scaled by core count).
pub const SHARDS: usize = 16;
/// Per-entry charge the cache adds to key and value bytes.
const ENTRY_OVERHEAD: u64 = 64;
/// `mget` slot length marking a missing object.
const MISSING: u32 = u32::MAX;

/// The workload. See the [module docs](self).
pub struct TaoMget {
    tracer: Arc<Tracer>,
    client: InProcClient,
    cache: Arc<Cache>,
    store: Arc<BackingStore>,
    fills: Arc<AtomicU64>,
    zipf: Zipf,
    salt: u64,
    seed: u64,
    phase: AtomicU64,
    oracle: Vec<Expected>,
    keys: u64,
    capacity: u64,
    working_set: u64,
    // Dropped last: shutting the server down joins its pool threads.
    _server: InProcServer,
}

impl TaoMget {
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

fn handle(
    req: &Request,
    cache: &Cache,
    store: &BackingStore,
    fills: &AtomicU64,
    tracer: &Tracer,
) -> Response {
    let _span = tracer.span(Name::Handler, 1);
    match req.method.as_str() {
        "mget" => {
            if !req.body.len().is_multiple_of(8) {
                return Response::error("malformed mget");
            }
            let keys: Vec<&[u8]> = req.body.chunks_exact(8).collect();
            let values = {
                let _s = tracer.span(Name::KvGetOrLoadMany, keys.len() as u64);
                cache.get_or_load_many(&keys, |key| {
                    let _s = tracer.span(Name::KvBacking, 1);
                    // ordering: a statistic, read after the phase's calls returned
                    fills.fetch_add(1, Ordering::Relaxed);
                    store.lookup(key)
                })
            };
            let mut out = Vec::with_capacity(
                values
                    .iter()
                    .map(|v| v.as_ref().map_or(4, |v| v.len() + 4))
                    .sum(),
            );
            for v in &values {
                match v {
                    Some(v) => {
                        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                        out.extend_from_slice(v);
                    }
                    None => out.extend_from_slice(&MISSING.to_le_bytes()),
                }
            }
            Response::ok(out)
        }
        "mset" => match parse_mset(&req.body) {
            Some(items) => {
                let _s = tracer.span(Name::KvSetMany, items.len() as u64);
                cache.set_many(items);
                Response::ok(Vec::new())
            }
            None => Response::error("malformed mset"),
        },
        other => Response::error(&format!("unknown method {other}")),
    }
}

/// Appends one `mset` item: 8-byte key, `u32` LE length, value.
fn encode_mset_item(out: &mut Vec<u8>, key: &[u8; 8], value: &[u8]) {
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// `mset` body: repeated 8-byte key, `u32` LE length, value.
fn parse_mset(mut body: &[u8]) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut items = Vec::new();
    while !body.is_empty() {
        if body.len() < 12 {
            return None;
        }
        let len = u32::from_le_bytes(body[8..12].try_into().ok()?) as usize;
        let end = 12usize.checked_add(len)?;
        if body.len() < end {
            return None;
        }
        items.push((body[..8].to_vec(), body[12..end].to_vec()));
        body = &body[end..];
    }
    Some(items)
}

/// Splits the next `mget` slot off `rest`: `Ok(None)` for a missing
/// object, `Err` for a truncated body.
fn next_slot<'a>(rest: &mut &'a [u8]) -> Result<Option<&'a [u8]>, ()> {
    if rest.len() < 4 {
        return Err(());
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    *rest = &rest[4..];
    if len == MISSING {
        return Ok(None);
    }
    let len = len as usize;
    if rest.len() < len {
        return Err(());
    }
    let (value, tail) = rest.split_at(len);
    *rest = tail;
    Ok(Some(value))
}

impl Workload for TaoMget {
    fn build(seed: u64, full_size: bool, tracer: Arc<Tracer>) -> Result<Self, String> {
        let keys = if full_size { KEYS } else { SMALL_KEYS };
        let salt = SplitMix64::mix(seed ^ 0x7A0_7A0);
        // No spin latency: a miss costs real CPU (object synthesis + fill).
        let store = Arc::new(BackingStore::new(
            BackingStoreConfig::tao_like().without_latency(),
            seed,
        ));
        // The oracle: every object's digest, by rank.
        let oracle: Vec<Expected> = (0..keys)
            .map(|rank| Expected::of(&store.synthesize_for_key(&key_of(salt, rank))))
            .collect();
        let working_set: u64 = oracle.iter().map(|e| 8 + u64::from(e.len)).sum();
        let capacity = (working_set as f64 * CACHE_FRACTION) as u64;
        let cache = Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes(capacity as usize).with_shards(SHARDS),
        ));
        // Populate with the hottest objects that fit, coldest first so the
        // hottest end up most recent in LRU order.
        let mut charged = 0u64;
        let mut hot = 0u64;
        while hot < keys {
            let cost = 8 + u64::from(oracle[hot as usize].len) + ENTRY_OVERHEAD;
            if charged + cost > capacity {
                break;
            }
            charged += cost;
            hot += 1;
        }
        let fills = Arc::new(AtomicU64::new(0));
        let (h_cache, h_store, h_fills, h_tracer) = (
            Arc::clone(&cache),
            Arc::clone(&store),
            Arc::clone(&fills),
            Arc::clone(&tracer),
        );
        let (c_cache, c_tracer) = (Arc::clone(&cache), Arc::clone(&tracer));
        let server = InProcServer::start_with_classifier(
            move |req: &Request| handle(req, &h_cache, &h_store, &h_fills, &h_tracer),
            move |req: &Request| {
                let _span = c_tracer.span(Name::Classify, 1);
                if req.method != "mget" || !req.body.len().is_multiple_of(8) {
                    return Lane::Slow;
                }
                let _s = c_tracer.span(Name::KvContains, (req.body.len() / 8) as u64);
                if req.body.chunks_exact(8).all(|k| c_cache.contains(k)) {
                    Lane::Fast
                } else {
                    Lane::Slow
                }
            },
            PoolConfig::fast_slow(1, 1),
        );
        // Populate through `mset`, as a client would, so the cached objects
        // are allocated by the server thread that also fills and evicts
        // them; populating from this thread would leave the heap to drift
        // from one allocator arena to another over the run.
        let client = server.client();
        let ranks: Vec<u64> = (0..hot).rev().collect();
        for chunk in ranks.chunks(4096) {
            let mut body = Vec::new();
            for &r in chunk {
                let key = key_of(salt, r);
                encode_mset_item(&mut body, &key, &store.synthesize_for_key(&key));
            }
            client
                .call("mset", body)
                .map_err(|e| format!("populating the cache: {e}"))?;
        }
        Ok(Self {
            client,
            _server: server,
            tracer,
            cache,
            store,
            fills,
            zipf: zipf(keys, ZIPF_S)?,
            salt,
            seed,
            phase: AtomicU64::new(0),
            oracle,
            keys,
            capacity,
            working_set,
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
        Counters {
            hits: s.hits(),
            misses: s.misses(),
            // ordering: read after the phase's calls returned
            fills: self.fills.load(Ordering::Relaxed),
            evictions: s.evictions(),
            ..Counters::default()
        }
    }

    fn gauges(&self) -> Gauges {
        Gauges {
            cache_used_bytes: self.cache.used_bytes() as u64,
            inflight_peak: 0,
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("keys", self.keys.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("get_fraction", GET_FRACTION.to_string()),
            ("working_set_bytes", self.working_set.to_string()),
            ("cache_capacity_bytes", self.capacity.to_string()),
            ("cache_shards", SHARDS.to_string()),
            ("pipeline_depth", "16".into()),
            ("server_threads", "1 fast + 1 slow".into()),
        ]
    }
}

impl Service for TaoMget {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        self.call_many(&[(endpoint, seq)]).remove(0)
    }

    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        // ordering: see set_phase
        let phase = self.phase.load(Ordering::Relaxed);
        let mut gets: Vec<(usize, u64)> = Vec::new();
        let mut sets: Vec<usize> = Vec::new();
        let mut mget = Vec::new();
        let mut mset = Vec::new();
        for (idx, &(endpoint, seq)) in batch.iter().enumerate() {
            let rank = self.rank(phase, seq);
            let key = key_of(self.salt, rank);
            if endpoint == 0 {
                gets.push((idx, rank));
                mget.extend_from_slice(&key);
            } else {
                // A SET writes the object the backing store holds, so the
                // oracle stays valid.
                sets.push(idx);
                encode_mset_item(&mut mset, &key, &self.store.synthesize_for_key(&key));
            }
        }
        let mut results: Vec<Result<usize, ServiceError>> =
            vec![Err(ServiceError::new("not issued")); batch.len()];
        if !gets.is_empty() {
            let reply = {
                let _s = self.tracer.span(Name::InprocCall, gets.len() as u64);
                self.client.call("mget", mget)
            };
            match reply {
                Ok(resp) => {
                    let mut rest = resp.body.as_slice();
                    for &(idx, rank) in &gets {
                        results[idx] = match next_slot(&mut rest) {
                            Ok(Some(v)) if self.check(rank, v) => Ok(v.len()),
                            Ok(Some(_)) => Err(ServiceError::new("wrong value")),
                            Ok(None) => Err(ServiceError::new("object not found")),
                            Err(()) => Err(ServiceError::new("truncated mget response")),
                        };
                    }
                    if !rest.is_empty() {
                        for &(idx, _) in &gets {
                            results[idx] = Err(ServiceError::new("trailing mget bytes"));
                        }
                    }
                }
                Err(e) => {
                    for &(idx, _) in &gets {
                        results[idx] = Err(ServiceError::new(e.to_string()));
                    }
                }
            }
        }
        if !sets.is_empty() {
            let reply = {
                let _s = self.tracer.span(Name::InprocCall, sets.len() as u64);
                self.client.call("mset", mset)
            };
            for &idx in &sets {
                results[idx] = match &reply {
                    Ok(resp) if resp.body.is_empty() => Ok(0),
                    Ok(_) => Err(ServiceError::new("unexpected mset body")),
                    Err(e) => Err(ServiceError::new(e.to_string())),
                };
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mset_round_trips_and_rejects_truncation() {
        let mut body = Vec::new();
        encode_mset_item(&mut body, &[1u8; 8], b"abc");
        assert_eq!(
            parse_mset(&body),
            Some(vec![(vec![1u8; 8], b"abc".to_vec())])
        );
        assert_eq!(parse_mset(&body[..body.len() - 1]), None);
    }

    #[test]
    fn slots_parse_missing_and_truncated() {
        let mut body = Vec::new();
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(b"hi");
        body.extend_from_slice(&MISSING.to_le_bytes());
        let mut rest = body.as_slice();
        assert_eq!(next_slot(&mut rest), Ok(Some(&b"hi"[..])));
        assert_eq!(next_slot(&mut rest), Ok(None));
        assert_eq!(next_slot(&mut rest), Err(()));
    }
}
