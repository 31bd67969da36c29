//! Datacenter-tax libraries: compression, hashing, crypto, serialization,
//! memory and concurrency kernels — all implemented from scratch.
//!
//! The paper models "common library functions used by datacenter
//! applications, such as those for RPC, encryption, hashing, serialization,
//! concurrency management, and memory operations" as a set of
//! microbenchmarks, because this *datacenter tax* consumes 18–82% of CPU
//! cycles across Meta's fleet (§3.2). This crate is both:
//!
//! 1. The tax *implementation* the full benchmarks call on their hot paths
//!    (FeedSim compresses and encrypts responses, TaoBench hashes keys,
//!    SparkBench spills compressed rows), and
//! 2. The kernel registry behind the `tax_micro` benchmark, which measures
//!    each function in isolation exactly as DCPerf's folly_bench does.
//!
//! Modules:
//!
//! * [`compress`] — an LZ77-class byte compressor ("szip") and an RLE
//!   codec, with one-shot and streaming round-trip APIs.
//! * [`hash`] — FNV-1a, a 64-bit mixing hash (`dcx64`), and table-driven
//!   CRC-32.
//! * [`crypto`] — SHA-256, HMAC-SHA-256, and the ChaCha20 stream cipher.
//!   On x86_64 they run on the instructions production libraries use (the
//!   SHA extensions when detected, SSE2 four-block ChaCha20);
//!   [`crypto::backend`] names the path a host runs.
//! * [`serialize`] — varint-based record batch serialization.
//! * [`memops`] — sequential copy, fill, gather and pointer-chase memory
//!   kernels.
//! * [`concurrency`] — atomic and queue contention kernels.
//! * [`registry`] — the named-kernel registry for the microbenchmark
//!   harness.
//!
//! The only `unsafe` code is in [`crypto`]: calls into its
//! `#[target_feature]` functions, each made after the features it enables
//! were detected (or, for SSE2, are in the x86_64 baseline).
//!
//! # Examples
//!
//! ```
//! use dcperf_tax::compress;
//!
//! let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
//! let packed = compress::lz_compress(data);
//! assert_eq!(compress::lz_decompress(&packed)?, data);
//! # Ok::<(), dcperf_tax::compress::CompressError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod compress;
pub mod concurrency;
pub mod crypto;
pub mod hash;
pub mod memops;
pub mod registry;
pub mod serialize;

pub use registry::{Microbench, Registry};
