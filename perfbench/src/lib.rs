//! The DCPerf-RS benchmark: three fixed-work workloads built from the
//! public APIs of `loadgen`, `rpc`, `kvstore` and `tax`, an oracle check
//! on every response, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md` beside this crate
//! for the workloads, the metric map and the measurement rules.

#![forbid(unsafe_code)]

pub mod feed_rank;
pub mod harness;
pub mod kv_tcp;
pub mod tao_mget;
pub mod trace;

use dcperf_util::{SplitMix64, Zipf};

pub use harness::{run, Outcome, Plan, WorkloadKind};

/// Phase id of the warm-up. Measured windows use 1.., traced windows
/// [`TRACED_PHASE_BASE`].., so no two phases share a key stream.
pub const WARMUP_PHASE: u64 = 0;
/// First phase id of the traced run's windows.
pub const TRACED_PHASE_BASE: u64 = 1 << 20;

/// The request stream's generator for request `seq` of `phase`.
///
/// `ClosedLoop` restarts `seq` at 0 on every run, so the stream is keyed
/// on (seed, phase, seq): the warm-up and every window draw fresh keys.
pub fn request_rng(seed: u64, phase: u64, seq: u64) -> SplitMix64 {
    let a = SplitMix64::mix(seed ^ 0xA076_1D64_78BD_642F);
    let b = SplitMix64::mix(phase.wrapping_add(0xE703_7ED1_A0B4_28DB));
    SplitMix64::new(SplitMix64::mix(
        a ^ b.rotate_left(17) ^ seq.wrapping_mul(0x8EBC_6AF0_9C88_C6E3),
    ))
}

/// The seed `ClosedLoop` gets for `phase` (it draws the GET/SET mix).
pub fn mix_seed(seed: u64, phase: u64) -> u64 {
    SplitMix64::mix(seed ^ SplitMix64::mix(phase ^ 0x5851_F42D_4C95_7F2D))
}

/// Benchmark-owned 64-bit content digest used by the oracles.
///
/// Deliberately not `tax::hash`, so checking responses does not charge
/// the tax layer.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    SplitMix64::mix(h)
}

/// What a correct value for one key looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// [`digest`] of the value.
    pub digest: u64,
    /// Value length in bytes.
    pub len: u32,
}

impl Expected {
    /// The expectation for `value`.
    pub fn of(value: &[u8]) -> Self {
        Self {
            digest: digest(value),
            len: value.len() as u32,
        }
    }

    /// Whether `value` matches.
    pub fn matches(&self, value: &[u8]) -> bool {
        value.len() == self.len as usize && digest(value) == self.digest
    }
}

/// The 8-byte cache key of popularity rank `rank`.
///
/// `SplitMix64::mix` is a bijection, so distinct ranks never collide and
/// hot ranks spread over cache shards.
pub fn key_of(salt: u64, rank: u64) -> [u8; 8] {
    SplitMix64::mix(rank ^ salt).to_le_bytes()
}

/// A Zipf distribution, or a setup error naming the bad parameter.
pub fn zipf(n: u64, s: f64) -> Result<Zipf, String> {
    Zipf::new(n, s).map_err(|e| format!("zipf({n}, {s}): {e}"))
}

/// Counters a workload exposes; the harness reports their change over a
/// phase. All but the two flush counters (the server's writer records a
/// flush after the client may already have its replies, so a phase boundary
/// can split one) repeat exactly for a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Backing-store loader runs (fills).
    pub fills: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// RPC bytes sent plus received by the client.
    pub rpc_bytes: u64,
    /// TCP server write flushes.
    pub flushes: u64,
    /// TCP responses written by those flushes.
    pub flushed_responses: u64,
    /// Bytes into `lz_compress`.
    pub compress_in: u64,
    /// Bytes out of `lz_compress`.
    pub compress_out: u64,
}

impl Counters {
    fn zip(self, o: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            fills: f(self.fills, o.fills),
            evictions: f(self.evictions, o.evictions),
            rpc_bytes: f(self.rpc_bytes, o.rpc_bytes),
            flushes: f(self.flushes, o.flushes),
            flushed_responses: f(self.flushed_responses, o.flushed_responses),
            compress_in: f(self.compress_in, o.compress_in),
            compress_out: f(self.compress_out, o.compress_out),
        }
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;

    fn add(self, o: Counters) -> Counters {
        self.zip(o, |a, b| a + b)
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;

    fn sub(self, o: Counters) -> Counters {
        self.zip(o, |a, b| a - b)
    }
}

/// Point-in-time gauges a workload exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauges {
    /// Bytes charged to the cache.
    pub cache_used_bytes: u64,
    /// Peak requests in flight on the TCP server.
    pub inflight_peak: u64,
}
