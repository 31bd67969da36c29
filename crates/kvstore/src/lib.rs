//! A sharded, concurrent, read-through LRU cache plus a simulated backing
//! store — the substrate of TaoBench.
//!
//! The DCPerf paper is explicit that architectural fidelity matters here:
//! "while many caching benchmarks implement a look-aside cache, DCPerf
//! uses a read-through cache because our production systems employ it to
//! simplify application logic" (§2.2). [`Cache`] therefore exposes
//! [`Cache::get_or_load`], which consults the cache and *itself* fetches
//! from the backing loader on a miss — callers never manage the fill path.
//!
//! * [`Cache`] — exact LRU behind one mutex per shard: a hit moves its
//!   entry to the recency front inline and returns a shared `Arc<[u8]>`
//!   handle (zero-copy). Keys on different shards proceed in parallel
//!   (the scalability the paper's §4.6 finds lacking in CloudSuite's
//!   data-caching tier); concurrent misses on one key are
//!   collapsed onto a single loader run (single-flight), and pipelined
//!   bursts map onto shard-grouped [`Cache::get_many`] /
//!   [`Cache::set_many`] passes that take each shard's lock once.
//! * [`BackingStore`] — a deterministic "database" with a configurable
//!   lookup-latency model, standing in for the MySQL/Cassandra tiers the
//!   paper's benchmarks attach to.
//!
//! # Examples
//!
//! ```
//! use dcperf_kvstore::{Cache, CacheConfig};
//!
//! let cache = Cache::new(CacheConfig::with_capacity_bytes(1 << 20));
//! let value = cache.get_or_load(b"user:42", |_key| Some(vec![7u8; 100]));
//! assert_eq!(value.as_deref(), Some(&[7u8; 100][..]));
//! assert_eq!(cache.stats().misses(), 1);
//! let again = cache.get_or_load(b"user:42", |_key| None);
//! assert!(again.is_some()); // served from cache; loader not consulted
//! assert_eq!(cache.stats().hits(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backing;
pub mod cache;
pub mod shard;
pub mod stats;

pub use backing::{BackingStore, BackingStoreConfig};
pub use cache::{Cache, CacheConfig, MIN_SHARD_CAPACITY};
pub use stats::CacheStats;
