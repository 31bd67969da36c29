//! Deterministic randomness, statistical distributions, and latency
//! histograms used throughout DCPerf-RS.
//!
//! Datacenter benchmarks must be *reproducible*: two runs with the same seed
//! must generate the same key popularity ranking, the same request-size
//! sequence, and the same arrival process. This crate therefore ships its
//! own small, fully deterministic PRNGs ([`SplitMix64`], [`Xoshiro256pp`])
//! instead of depending on an external randomness source, together with the
//! distributions the DCPerf paper calls out (Zipf key popularity, log-normal
//! request/response sizes, Poisson arrivals) and an HDR-style log-bucketed
//! histogram for latency percentiles. It also holds the one bounded
//! multi-consumer queue ([`BoundedQueue`]) that the RPC pool, the load
//! generators and the workloads hand work through.
//!
//! # Examples
//!
//! ```
//! use dcperf_util::{Xoshiro256pp, Zipf, Histogram};
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(42);
//! let zipf = Zipf::new(1_000, 0.99).unwrap();
//! let mut hist = Histogram::new();
//! for _ in 0..10_000 {
//!     let key = zipf.sample(&mut rng);
//!     hist.record(key as u64 + 1);
//! }
//! assert!(hist.value_at_percentile(50.0) < hist.value_at_percentile(99.9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod hist;
pub mod queue;
pub mod rng;
pub mod stats;

pub use dist::{Empirical, Exponential, LogNormal, Zipf};
pub use hist::{Histogram, NUM_BUCKETS};
pub use queue::BoundedQueue;
pub use rng::{Rng, SplitMix64, Xoshiro256pp};
pub use stats::{geometric_mean, weighted_geometric_mean, RunningStats};
