//! DjangoBench: the Instagram-style web-serving benchmark.
//!
//! "DjangoBench uses Python, Django, and UWSGI as the backend serving
//! stack. Unlike MediaWiki's multi-threading model, UWSGI uses a
//! multi-process model, spawning a number of worker processes equal to the
//! number of logical CPU cores … DjangoBench uses Apache Cassandra as the
//! backend database and Memcached as the cache. During benchmarking, the
//! load generator visits several endpoints, such as feed, timeline, seen,
//! and inbox." (§3.2)
//!
//! The architectural properties reproduced here:
//!
//! * **Share-nothing worker-per-core concurrency**: one `WorkerState`
//!   per logical CPU, each owning its own partition of the wide-row store;
//!   requests are routed by user id and serialize only within one worker,
//!   exactly as UWSGI processes do. (Rust threads stand in for the
//!   processes; the share-nothing state partitioning is what matters for
//!   scaling behaviour.)
//! * **Cassandra-flavoured storage**: partition-key + clustering-key
//!   access with range scans ([`WideRowStore`]).
//! * **Memcached cache** in front of the hot feed path.
//! * The production endpoint mix: `feed`, `timeline`, `seen`, `inbox`.

use crate::store::WideRowStore;
use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_kvstore::{Cache, CacheConfig};
use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
use dcperf_tax::{compress, hash, serialize};
use dcperf_util::{SplitMix64, Zipf};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Users per worker at smoke scale (scaled by the run scale, up to 16×).
const BASE_USERS_PER_WORKER: u64 = 2_000;
/// Timeline entries per user at install time.
const COLUMNS_PER_USER: u64 = 64;
/// Zipf skew of user popularity.
const ZIPF_EXPONENT: f64 = 0.9;
/// Measurement duration at smoke scale (scaled by the run scale).
const BASE_DURATION: Duration = Duration::from_millis(400);
/// Requests each load-generator worker keeps in flight per turn: the
/// classic one-request-per-turn mode.
const PIPELINE_DEPTH: usize = 1;

/// One UWSGI-style worker: private store, private session state.
struct WorkerState {
    store: WideRowStore,
    seen_writes: u64,
}

/// The DjangoBench benchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct DjangoBench;

pub(crate) struct DjangoApp {
    workers: Vec<Mutex<WorkerState>>,
    cache: Cache,
    users_per_worker: u64,
    zipf: Zipf,
    seed: u64,
}

impl DjangoApp {
    /// Builds a standalone app instance (workers populated, private
    /// cache); used by the benchmark run and its tests.
    pub(crate) fn build(threads: usize, users_per_worker: u64, seed: u64) -> Result<Self, Error> {
        let workers: Vec<Mutex<WorkerState>> = (0..threads)
            .map(|w| {
                let mut store = WideRowStore::new();
                store.populate(users_per_worker, COLUMNS_PER_USER, seed ^ (w as u64) << 40);
                Mutex::new(WorkerState {
                    store,
                    seen_writes: 0,
                })
            })
            .collect();
        Ok(Self {
            workers,
            cache: Cache::new(CacheConfig::with_capacity_bytes(64 << 20).with_shards(threads * 2)),
            users_per_worker,
            zipf: Zipf::new(users_per_worker * threads as u64, ZIPF_EXPONENT)
                .map_err(|e| Error::Config(e.to_string()))?,
            seed,
        })
    }

    /// The production endpoint mix (`feed`, `timeline`, `seen`, `inbox`).
    pub(crate) fn endpoint_mix() -> Result<EndpointMix, Error> {
        EndpointMix::new(
            &["feed", "timeline", "seen", "inbox"],
            &[0.45, 0.25, 0.20, 0.10],
        )
        .map_err(|e| Error::Config(e.to_string()))
    }

    /// Cache key of one user's rendered feed page.
    fn feed_key(worker: usize, user: u64) -> Vec<u8> {
        [
            b"feed:".as_slice(),
            &worker.to_le_bytes(),
            &user.to_le_bytes(),
        ]
        .concat()
    }

    /// Serializes and compresses one feed page from its timeline rows;
    /// `None` for unknown users (empty scans).
    fn render_feed_page(rows: &[(&u64, &Vec<u8>)]) -> Option<Vec<u8>> {
        if rows.is_empty() {
            return None;
        }
        let records: Vec<serialize::Record> = rows
            .iter()
            .map(|(ck, value)| {
                vec![
                    serialize::FieldValue::I64(**ck as i64),
                    serialize::FieldValue::Bytes((*value).clone()),
                ]
            })
            .collect();
        let mut buf = Vec::new();
        serialize::encode_batch(&records, &mut buf);
        Some(compress::lz_compress(&buf))
    }

    /// Locks one worker's state, recovering it from a poisoned lock.
    fn worker(&self, worker: usize) -> MutexGuard<'_, WorkerState> {
        self.workers[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn user_for(&self, seq: u64) -> (usize, u64) {
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let global = SplitMix64::mix(self.zipf.sample(&mut rng))
            % (self.users_per_worker * self.workers.len() as u64);
        (
            (global / self.users_per_worker) as usize,
            global % self.users_per_worker,
        )
    }

    /// `feed`: hot path — cached render of the user's first feed page.
    fn feed(&self, worker: usize, user: u64) -> Result<usize, ServiceError> {
        let cache_key = Self::feed_key(worker, user);
        let rendered = self.cache.get_or_load(&cache_key, |_| {
            let state = self.worker(worker);
            Self::render_feed_page(&state.store.scan(user, 0, 25))
        });
        rendered
            .map(|body| body.len())
            .ok_or_else(|| ServiceError::new("feed: unknown user"))
    }

    /// Batched `feed`: one shard-grouped cache read over the whole run of
    /// requests ([`Cache::get_many`]), misses resolved per worker with a
    /// single lock hold and one [`WideRowStore::scan_many`] pass, and the
    /// rendered pages written back through one [`Cache::set_many`]. The
    /// render is deterministic, so a concurrent fill racing this batch
    /// writes an identical page.
    fn feed_many(&self, items: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        let keys: Vec<Vec<u8>> = items
            .iter()
            .map(|&(worker, user)| Self::feed_key(worker, user))
            .collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let mut pages = self.cache.get_many(&key_refs);
        let mut misses_by_worker: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, page) in pages.iter().enumerate() {
            if page.is_none() {
                misses_by_worker.entry(items[i].0).or_default().push(i);
            }
        }
        let mut fills: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (worker, indices) in misses_by_worker {
            let state = self.worker(worker);
            let requests: Vec<(u64, u64, usize)> =
                indices.iter().map(|&i| (items[i].1, 0, 25)).collect();
            let scans = state.store.scan_many(&requests);
            for (&i, rows) in indices.iter().zip(&scans) {
                if let Some(rendered) = Self::render_feed_page(rows) {
                    fills.push((keys[i].clone(), rendered.clone()));
                    pages[i] = Some(rendered.into());
                }
            }
        }
        if !fills.is_empty() {
            self.cache.set_many(fills);
        }
        pages
            .into_iter()
            .map(|page| {
                page.map(|body| body.len())
                    .ok_or_else(|| ServiceError::new("feed: unknown user"))
            })
            .collect()
    }

    /// `timeline`: uncached range scan deeper into the partition.
    fn timeline(&self, worker: usize, user: u64, offset: u64) -> Result<usize, ServiceError> {
        let state = self.worker(worker);
        let rows = state.store.scan(user, offset % 32, 50);
        if rows.is_empty() {
            // Paging past the end of a timeline is a normal empty page.
            return Ok(2);
        }
        let mut bytes = 0usize;
        let mut digest = 0u64;
        for (ck, value) in rows {
            bytes += value.len();
            digest ^= hash::fnv1a(value).rotate_left((*ck % 63) as u32);
        }
        std::hint::black_box(digest);
        Ok(bytes)
    }

    /// `seen`: the write path — marks stories as seen and invalidates the
    /// cached feed page.
    fn seen(&self, worker: usize, user: u64, seq: u64) -> Result<usize, ServiceError> {
        {
            let mut state = self.worker(worker);
            for i in 0..4u64 {
                let marker = seq.wrapping_mul(31).wrapping_add(i);
                state.store.insert(
                    user,
                    1_000_000 + marker % 512,
                    marker.to_le_bytes().to_vec(),
                );
            }
            state.seen_writes += 4;
        }
        self.cache.delete(&Self::feed_key(worker, user));
        Ok(8)
    }

    /// `inbox`: read plus aggregate (unread counts).
    fn inbox(&self, worker: usize, user: u64) -> Result<usize, ServiceError> {
        let state = self.worker(worker);
        let rows = state.store.scan(user, 0, 40);
        let unread = rows
            .iter()
            .filter(|(ck, v)| (**ck + v.len() as u64).is_multiple_of(3))
            .count();
        Ok(16 + unread)
    }
}

impl Service for DjangoApp {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        let (worker, user) = self.user_for(seq);
        match endpoint {
            0 => self.feed(worker, user),
            1 => self.timeline(worker, user, seq),
            2 => self.seen(worker, user, seq),
            _ => self.inbox(worker, user),
        }
    }

    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        // Runs of consecutive feed requests collapse into one batched
        // cache/store pass; everything else stays scalar and in order, so
        // a `seen` invalidation still lands between the feed runs around
        // it exactly as in the unpipelined schedule.
        let mut results = Vec::with_capacity(batch.len());
        let mut i = 0;
        while i < batch.len() {
            if batch[i].0 == 0 {
                let mut j = i;
                while j < batch.len() && batch[j].0 == 0 {
                    j += 1;
                }
                let items: Vec<(usize, u64)> = batch[i..j]
                    .iter()
                    .map(|&(_, seq)| self.user_for(seq))
                    .collect();
                results.extend(self.feed_many(&items));
                i = j;
            } else {
                let (endpoint, seq) = batch[i];
                results.push(self.call(endpoint, seq));
                i += 1;
            }
        }
        results
    }
}

impl Benchmark for DjangoBench {
    fn name(&self) -> &str {
        "django_bench"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::Web
    }

    fn description(&self) -> &str {
        "Instagram-style web serving: share-nothing worker-per-core over a wide-row store"
    }

    fn install(&self, _ctx: &mut RunContext) -> Result<(), Error> {
        Ok(())
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let scale = ctx.config().scale.factor();
        let threads = ctx.config().effective_threads();
        let seed = ctx.seed();
        let users_per_worker = BASE_USERS_PER_WORKER * scale.min(16);

        // One share-nothing worker per logical core, as UWSGI spawns one
        // process per core.
        let mut app = DjangoApp::build(threads, users_per_worker, seed)?;
        // The benchmark run records cache traffic onto the run registry.
        app.cache = Cache::with_telemetry(
            CacheConfig::with_capacity_bytes(64 << 20).with_shards(threads * 2),
            ctx.telemetry(),
        );

        // The production endpoint mix.
        let mix = DjangoApp::endpoint_mix()?;

        let duration = BASE_DURATION * scale.min(16) as u32;
        let load = ClosedLoop::new(mix)
            .workers(threads)
            .pipeline_depth(PIPELINE_DEPTH)
            .duration(duration)
            .telemetry(ctx.telemetry())
            .run(&app, seed);

        let mut report = ReportBuilder::new(self.name());
        report.param("workers", threads as u64);
        report.param("users_per_worker", users_per_worker);
        report.param("columns_per_user", COLUMNS_PER_USER);
        report.param("pipeline_depth", PIPELINE_DEPTH as u64);
        report.metric("requests_per_second", load.throughput_rps());
        report.metric("total_requests", load.completed);
        report.metric("error_rate", load.error_rate());
        report.metric("cache_hit_rate", app.cache.stats().hit_rate());
        report.latency_ms("request", &load.latency_ns);
        for (name, count) in ["feed", "timeline", "seen", "inbox"]
            .iter()
            .zip(&load.per_endpoint)
        {
            report.metric(&format!("requests_{name}"), *count);
        }
        let writes: u64 = (0..app.workers.len())
            .map(|w| app.worker(w).seen_writes)
            .sum();
        report.metric("seen_writes", writes);
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;

    #[test]
    fn smoke_run_serves_all_endpoints() {
        let bench = DjangoBench;
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "django_bench",
        );
        let report = bench.run(&mut ctx).expect("django runs");
        let rps = report.metric_f64("requests_per_second").unwrap();
        assert!(rps > 500.0, "rps={rps}");
        for ep in ["feed", "timeline", "seen", "inbox"] {
            assert!(
                report.metric_f64(&format!("requests_{ep}")).unwrap() > 0.0,
                "endpoint {ep} never hit"
            );
        }
        assert!(report.metric_f64("seen_writes").unwrap() > 0.0);
        assert_eq!(report.metric_f64("error_rate"), Some(0.0));
        // Zipf user popularity means hot feeds are re-served from cache,
        // though `seen` writes keep invalidating them.
        let hit_rate = report.metric_f64("cache_hit_rate").unwrap();
        assert!(hit_rate > 0.2, "hit rate {hit_rate}");
    }

    #[test]
    fn batched_feed_matches_scalar_feed() {
        let app = DjangoApp::build(2, 100, 11).expect("app builds");
        // A burst mixing feeds (runs), a seen invalidation, and other
        // endpoints; the batched schedule must return element-for-element
        // what the scalar schedule returns on a fresh identical app.
        let batch: Vec<(usize, u64)> = vec![
            (0, 1),
            (0, 2),
            (0, 1),
            (2, 3),
            (0, 1),
            (3, 4),
            (0, 5),
            (0, 6),
        ];
        let batched = app.call_many(&batch);
        let scalar_app = DjangoApp::build(2, 100, 11).expect("app builds");
        let scalar: Vec<_> = batch
            .iter()
            .map(|&(endpoint, seq)| scalar_app.call(endpoint, seq))
            .collect();
        assert_eq!(batched, scalar);
        assert!(app.cache.stats().hits() > 0, "repeat feeds must hit");
    }

    #[test]
    fn requests_route_by_user_to_fixed_workers() {
        let app = DjangoApp {
            workers: (0..4)
                .map(|_| {
                    Mutex::new(WorkerState {
                        store: WideRowStore::new(),
                        seen_writes: 0,
                    })
                })
                .collect(),
            cache: Cache::new(CacheConfig::with_capacity_bytes(1 << 20)),
            users_per_worker: 100,
            zipf: Zipf::new(400, 0.9).unwrap(),
            seed: 3,
        };
        for seq in 0..200 {
            let (w1, u1) = app.user_for(seq);
            let (w2, u2) = app.user_for(seq);
            assert_eq!((w1, u1), (w2, u2), "routing must be deterministic");
            assert!(w1 < 4);
            assert!(u1 < 100);
        }
    }
}
