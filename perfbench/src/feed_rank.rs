//! `feed_rank`: FeedSim's request anatomy.
//!
//! Per request: 96 Zipf-0.9 candidates out of 50k resident serialized
//! stories, fetched as 4 shard bodies through `InProcClient::call_many`
//! from a leaf whose handler calls `Cache::get_many`; stories decoded with
//! `rpc::Value::decode`, text features hashed with `tax::hash::dcx64`,
//! ranked by a fixed linear model; the top 24 composed with
//! `Value::encode` → `compress::lz_compress` → `ChaCha20::apply` →
//! `hmac_sha256`. The ranking code here is kept small so it does not
//! dilute the layers.

use crate::harness::Workload;
use crate::trace::{Name, Tracer};
use crate::{request_rng, zipf, Counters, Expected, Gauges};
use dcperf_kvstore::{Cache, CacheConfig};
use dcperf_loadgen::{EndpointMix, Service, ServiceError};
use dcperf_rpc::{InProcClient, InProcServer, PoolConfig, Request, Response, Value};
use dcperf_tax::{compress, crypto, hash};
use dcperf_util::{Rng, SplitMix64, Zipf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stories in the full-size corpus.
pub const STORIES: u64 = 50_000;
/// Stories in the test-size corpus.
pub const SMALL_STORIES: u64 = 1_000;
/// Candidates fetched per request.
pub const CANDIDATES: usize = 96;
/// Stories returned per request.
pub const TOP_K: usize = 24;
/// Shard bodies per fetch (`call_many` width).
pub const FETCH_SHARDS: usize = 4;
/// Zipf exponent of candidate popularity.
pub const ZIPF_S: f64 = 0.9;
/// Cache shards (fixed, not scaled by core count).
pub const CACHE_SHARDS: usize = 16;
/// Feature-vector width.
const FEATURES: usize = 128;
/// Text bytes per hashed feature chunk.
const CHUNK: usize = 16;
const FEATURE_SEED: u64 = 0x5EED;
const CRYPT_KEY: [u8; 32] = [0x42; 32];

/// The fields of one story.
struct Story<'a> {
    id: u64,
    author: i64,
    text: &'a [u8],
    block: &'a [u8],
}

impl Story<'_> {
    /// Reads a decoded story, or `None` if a field is missing.
    fn from_value(v: &Value) -> Option<Story<'_>> {
        Some(Story {
            id: u64::try_from(v.field(1)?.as_i64()?).ok()?,
            author: v.field(2)?.as_i64()?,
            text: v.field(3)?.as_str()?.as_bytes(),
            block: v.field(4)?.as_bin()?,
        })
    }
}

/// Builds story `id`'s fields (as FeedSim does) and its encoding.
fn make_story(id: u64, seed: u64) -> Value {
    let mut rng = SplitMix64::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let text_len = (rng.next_u64() % 400 + 80) as usize;
    let mut text = String::with_capacity(text_len + 10);
    while text.len() < text_len {
        for _ in 0..rng.next_u64() % 8 + 2 {
            text.push((b'a' + (rng.next_u64() % 26) as u8) as char);
        }
        text.push(' ');
    }
    let mut block = vec![0u8; 64];
    rng.fill_bytes(&mut block);
    Value::Struct(vec![
        (1, Value::I64(id as i64)),
        (2, Value::I64((rng.next_u64() % 1_000_000) as i64)),
        (3, Value::Str(text)),
        (4, Value::Bin(block)),
    ])
}

/// Appends one `tax::hash::dcx64` per text chunk.
fn hash_text(text: &[u8], out: &mut Vec<u64>) {
    out.extend(text.chunks(CHUNK).map(|c| hash::dcx64(c, FEATURE_SEED)));
}

/// The ranking model: a linear score over hashed text features, the
/// binary feature block and the ids, squashed by a sigmoid.
fn score(story: &Story<'_>, text_hashes: &[u64], weights: &[f32; FEATURES]) -> f32 {
    let mut f = [0f32; FEATURES];
    for h in text_hashes {
        f[(h % FEATURES as u64) as usize] += 1.0;
    }
    for (i, c) in story.block.chunks(8).enumerate() {
        let v = c.iter().fold(0u64, |a, &b| a << 8 | u64::from(b));
        f[(i * 7 + 3) % FEATURES] += (v % 1000) as f32 / 1000.0;
    }
    f[0] += (story.id % 97) as f32 / 97.0;
    f[1] += (story.author % 89) as f32 / 89.0;
    let dot: f32 = f.iter().zip(weights).map(|(a, b)| a * b).sum();
    1.0 / (1.0 + (-dot).exp())
}

/// Rank order: score descending, id ascending on ties.
fn rank_order(a: &(f32, u64), b: &(f32, u64)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The workload. See the [module docs](self).
pub struct FeedRank {
    tracer: Arc<Tracer>,
    client: InProcClient,
    cache: Arc<Cache>,
    zipf: Zipf,
    seed: u64,
    phase: AtomicU64,
    weights: [f32; FEATURES],
    /// Reference score of each story, computed once from its fields.
    scores: Vec<f32>,
    /// Digest of each story's encoding.
    oracle: Vec<Expected>,
    stories: u64,
    compress_in: AtomicU64,
    compress_out: AtomicU64,
    // Dropped last: shutting the server down joins its pool thread.
    _leaf: InProcServer,
}

fn handle(req: &Request, cache: &Cache, tracer: &Tracer) -> Response {
    let _span = tracer.span(Name::Handler, 1);
    if req.method != "fetch" || !req.body.len().is_multiple_of(8) {
        return Response::error("malformed fetch");
    }
    let keys: Vec<&[u8]> = req.body.chunks_exact(8).collect();
    let values = {
        let _s = tracer.span(Name::KvGetMany, keys.len() as u64);
        cache.get_many(&keys)
    };
    let mut out = Vec::with_capacity(values.iter().flatten().map(|v| v.len() + 4).sum());
    for v in values {
        let Some(v) = v else {
            return Response::error("story not resident");
        };
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(&v);
    }
    Response::ok(out)
}

impl FeedRank {
    /// Candidate story ids of request `seq` in `phase`.
    pub fn candidates(&self, phase: u64, seq: u64) -> Vec<u64> {
        let mut rng = request_rng(self.seed, phase, seq);
        (0..CANDIDATES)
            .map(|_| self.zipf.sample(&mut rng))
            .collect()
    }

    /// The single-threaded reference ranking: top-K ids of `candidates`.
    pub fn reference_top(&self, candidates: &[u64]) -> Vec<u64> {
        let mut scored: Vec<(f32, u64)> = candidates
            .iter()
            .map(|&id| (self.scores[id as usize], id))
            .collect();
        scored.sort_by(rank_order);
        scored.truncate(TOP_K);
        scored.into_iter().map(|(_, id)| id).collect()
    }

    fn nonce(phase: u64, seq: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&seq.to_le_bytes());
        n[8..].copy_from_slice(&(phase as u32).to_le_bytes());
        n
    }

    /// Checks a composed response: MAC, then decrypt, decompress and
    /// decode; the ids must equal `expected_top` and every story must be
    /// the stored one.
    pub fn check(&self, response: &[u8], phase: u64, seq: u64, expected_top: &[u64]) -> bool {
        let Some(split) = response.len().checked_sub(32) else {
            return false;
        };
        let (sealed, mac) = response.split_at(split);
        if crypto::hmac_sha256(&CRYPT_KEY, sealed) != mac {
            return false;
        }
        let mut packed = sealed.to_vec();
        crypto::ChaCha20::new(&CRYPT_KEY, &Self::nonce(phase, seq), 0).apply(&mut packed);
        let Ok(plain) = compress::lz_decompress(&packed) else {
            return false;
        };
        let Ok(Value::List(items)) = Value::decode(&plain) else {
            return false;
        };
        items.len() == expected_top.len()
            && items.iter().zip(expected_top).all(|(item, &want)| {
                let id = item.field(2).and_then(Value::as_i64);
                let body = item.field(3).and_then(Value::as_bin);
                id == Some(want as i64)
                    && body.is_some_and(|b| self.oracle[want as usize].matches(b))
            })
    }

    /// Serves request `seq` of `phase` for `candidates`: fetch, decode,
    /// hash, rank, compose. Returns the sealed response.
    ///
    /// # Errors
    ///
    /// A description of a failed fetch or an undecodable story.
    pub fn serve(&self, phase: u64, seq: u64, candidates: &[u64]) -> Result<Vec<u8>, String> {
        let t = &*self.tracer;
        let mut bodies: Vec<Vec<u8>> = (0..FETCH_SHARDS)
            .map(|_| Vec::with_capacity(8 * CANDIDATES / FETCH_SHARDS))
            .collect();
        for &id in candidates {
            bodies[id as usize % FETCH_SHARDS].extend_from_slice(&id.to_le_bytes());
        }
        let replies = {
            let _s = t.span(Name::InprocCall, FETCH_SHARDS as u64);
            self.client.call_many("fetch", bodies)
        };
        let mut payloads: Vec<&[u8]> = Vec::with_capacity(CANDIDATES);
        for reply in &replies {
            let resp = reply.as_ref().map_err(|e| e.to_string())?;
            let mut rest = resp.body.as_slice();
            while !rest.is_empty() {
                let len = rest
                    .get(..4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
                    .ok_or("truncated fetch reply")?;
                let story = rest.get(4..4 + len).ok_or("truncated fetch reply")?;
                payloads.push(story);
                rest = &rest[4 + len..];
            }
        }
        let decoded: Vec<Value> = {
            let _s = t.span(Name::ValueDecode, payloads.len() as u64);
            payloads
                .iter()
                .map(|p| Value::decode(p))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?
        };
        let stories: Vec<Story<'_>> = decoded
            .iter()
            .map(Story::from_value)
            .collect::<Option<_>>()
            .ok_or("story missing a field")?;
        let mut hashes = Vec::with_capacity(stories.len() * 24);
        let mut ends = Vec::with_capacity(stories.len());
        {
            let text_bytes = stories.iter().map(|s| s.text.len() as u64).sum();
            let _s = t.span(Name::TaxHash, text_bytes);
            for s in &stories {
                hash_text(s.text, &mut hashes);
                ends.push(hashes.len());
            }
        }
        let mut ranked: Vec<(f32, u64, usize)> = Vec::with_capacity(stories.len());
        let mut start = 0;
        for (i, (s, &end)) in stories.iter().zip(&ends).enumerate() {
            ranked.push((score(s, &hashes[start..end], &self.weights), s.id, i));
            start = end;
        }
        ranked.sort_by(|a, b| rank_order(&(a.0, a.1), &(b.0, b.1)));
        ranked.truncate(TOP_K);
        let response = Value::List(
            ranked
                .iter()
                .map(|&(score, id, i)| {
                    Value::Struct(vec![
                        (1, Value::F64(f64::from(score))),
                        (2, Value::I64(id as i64)),
                        (3, Value::Bin(payloads[i].to_vec())),
                    ])
                })
                .collect(),
        );
        let encoded = {
            let _s = t.span(Name::ValueEncode, 1);
            response.encode()
        };
        let mut sealed = {
            let _s = t.span(Name::TaxCompress, encoded.len() as u64);
            compress::lz_compress(&encoded)
        };
        // ordering: statistics, read after the phase's calls returned
        self.compress_in
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        self.compress_out
            .fetch_add(sealed.len() as u64, Ordering::Relaxed);
        {
            let _s = t.span(Name::TaxEncrypt, sealed.len() as u64);
            crypto::ChaCha20::new(&CRYPT_KEY, &Self::nonce(phase, seq), 0).apply(&mut sealed);
        }
        let mac = {
            let _s = t.span(Name::TaxMac, sealed.len() as u64);
            crypto::hmac_sha256(&CRYPT_KEY, &sealed)
        };
        sealed.extend_from_slice(&mac);
        Ok(sealed)
    }
}

impl Workload for FeedRank {
    fn build(seed: u64, full_size: bool, tracer: Arc<Tracer>) -> Result<Self, String> {
        let stories = if full_size { STORIES } else { SMALL_STORIES };
        let mut wrng = SplitMix64::new(seed ^ 0x00DE_7EC7);
        let mut weights = [0f32; FEATURES];
        for w in &mut weights {
            *w = (wrng.next_f64() as f32 - 0.5) * 2.0;
        }
        let mut scores = Vec::with_capacity(stories as usize);
        let mut oracle = Vec::with_capacity(stories as usize);
        let mut items = Vec::with_capacity(stories as usize);
        let mut hashes = Vec::new();
        for id in 0..stories {
            let value = make_story(id, seed);
            let story = Story::from_value(&value).ok_or("built story missing a field")?;
            hashes.clear();
            hash_text(story.text, &mut hashes);
            scores.push(score(&story, &hashes, &weights));
            let bytes = value.encode();
            oracle.push(Expected::of(&bytes));
            items.push((id.to_le_bytes().to_vec(), bytes));
        }
        // Twice the charged corpus: every story stays resident.
        let charged: usize = items.iter().map(|(k, v)| k.len() + v.len() + 64).sum();
        let cache = Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes(2 * charged).with_shards(CACHE_SHARDS),
        ));
        cache.set_many(items);
        let (h_cache, h_tracer) = (Arc::clone(&cache), Arc::clone(&tracer));
        let leaf = InProcServer::start(
            move |req: &Request| handle(req, &h_cache, &h_tracer),
            PoolConfig::single_lane(1),
        );
        Ok(Self {
            tracer,
            client: leaf.client(),
            _leaf: leaf,
            cache,
            zipf: zipf(stories, ZIPF_S)?,
            seed,
            phase: AtomicU64::new(0),
            weights,
            scores,
            oracle,
            stories,
            compress_in: AtomicU64::new(0),
            compress_out: AtomicU64::new(0),
        })
    }

    fn set_phase(&self, phase: u64) {
        // ordering: written before ClosedLoop::run spawns its worker
        self.phase.store(phase, Ordering::Relaxed);
    }

    fn mix(&self) -> EndpointMix {
        EndpointMix::uniform(&["rank"]).expect("one endpoint is a valid mix")
    }

    fn counters(&self) -> Counters {
        let s = self.cache.stats();
        Counters {
            hits: s.hits(),
            misses: s.misses(),
            evictions: s.evictions(),
            // ordering: read after the phase's calls returned
            compress_in: self.compress_in.load(Ordering::Relaxed),
            compress_out: self.compress_out.load(Ordering::Relaxed),
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
            ("stories", self.stories.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("candidates", CANDIDATES.to_string()),
            ("top_k", TOP_K.to_string()),
            ("fetch_shards", FETCH_SHARDS.to_string()),
            ("cache_shards", CACHE_SHARDS.to_string()),
            ("leaf_pool_threads", "1".into()),
        ]
    }
}

impl Service for FeedRank {
    fn call(&self, _endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        // ordering: see set_phase
        let phase = self.phase.load(Ordering::Relaxed);
        let candidates = self.candidates(phase, seq);
        let response = self
            .serve(phase, seq, &candidates)
            .map_err(ServiceError::new)?;
        let _s = self.tracer.span(Name::Verify, 1);
        if self.check(&response, phase, seq, &self.reference_top(&candidates)) {
            Ok(response.len())
        } else {
            Err(ServiceError::new("response failed the oracle"))
        }
    }
}
