//! MediaWiki: the Facebook-style web-serving benchmark.
//!
//! "The Mediawiki benchmark represents a classic web application. It runs
//! Nginx together with HHVM as the web server, with MediaWiki as the
//! website to serve. It uses MySQL as the backend database and Memcached
//! as the cache … Siege is used as the load generator to access several
//! endpoints of the MediaWiki website, such as the Barack Obama page from
//! Wikipedia, the edit page, the user login page, and the talk page."
//! (§3.2)
//!
//! Mapping onto this repo's substrates: the [`wiki`]
//! template renderer is the HHVM/MediaWiki application logic (large
//! instruction footprint, template recursion), [`PageStore`] is MySQL,
//! [`dcperf_kvstore::Cache`] is Memcached in front of rendered pages, and
//! a siege-style multithreaded closed loop drives the same four endpoints.

use crate::store::{PageRecord, PageStore};
use crate::wiki::{self, TemplateSet};
use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_kvstore::{Cache, CacheConfig};
use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
use dcperf_tax::{compress, crypto};
use dcperf_util::{SplitMix64, Zipf};
use std::sync::{PoisonError, RwLock};
use std::time::Duration;

/// Tunable parameters.
#[derive(Debug, Clone)]
pub struct MediaWikiConfig {
    /// Number of wiki pages (scaled by run scale).
    pub base_pages: u64,
    /// Target wikitext length per page, bytes.
    pub article_len: usize,
    /// Zipf skew of page popularity (the "Barack Obama page" effect).
    pub zipf_exponent: f64,
    /// Base measurement duration (scaled by run scale).
    pub base_duration: Duration,
    /// Requests each load-generator worker keeps in flight per turn; 1 is
    /// the classic siege one-request-per-turn mode, larger values batch
    /// runs of views into one store/cache pass.
    pub pipeline_depth: usize,
}

impl Default for MediaWikiConfig {
    fn default() -> Self {
        Self {
            base_pages: 400,
            article_len: 6_000,
            zipf_exponent: 1.0,
            base_duration: Duration::from_millis(400),
            pipeline_depth: 1,
        }
    }
}

/// The MediaWiki benchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct MediaWikiBench {
    config: MediaWikiConfig,
}

impl MediaWikiBench {
    /// Creates the benchmark with an explicit configuration.
    pub fn with_config(config: MediaWikiConfig) -> Self {
        Self { config }
    }
}

struct WikiApp {
    pages: RwLock<PageStore>,
    cache: Cache,
    templates: TemplateSet,
    zipf: Zipf,
    page_count: u64,
    seed: u64,
    session_key: [u8; 32],
}

impl WikiApp {
    fn page_for(&self, seq: u64) -> u64 {
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(0x94D0_49BB_1331_11EB));
        SplitMix64::mix(self.zipf.sample(&mut rng)) % self.page_count
    }

    /// `view`: cache-or-render the article page, then gzip it for the
    /// wire, exactly the Nginx+HHVM hot path.
    fn view(&self, page_id: u64) -> Result<usize, ServiceError> {
        let (revision, cache_key) = {
            let pages = self.pages.read().unwrap_or_else(PoisonError::into_inner);
            let page = pages
                .get(page_id)
                .ok_or_else(|| ServiceError::new("404 page not found"))?;
            let mut key = b"page:".to_vec();
            key.extend_from_slice(&page_id.to_le_bytes());
            key.extend_from_slice(&page.revision.to_le_bytes());
            (page.revision, key)
        };
        let _ = revision;
        let html_gz = self.cache.get_or_load(&cache_key, |_| {
            let pages = self.pages.read().unwrap_or_else(PoisonError::into_inner);
            let page = pages.get(page_id)?;
            let html = wiki::render(&page.source, &self.templates);
            Some(compress::lz_compress(html.as_bytes()))
        });
        html_gz
            .map(|b| b.len())
            .ok_or_else(|| ServiceError::new("render failed"))
    }

    /// Batched `view`: one read-locked [`PageStore::get_many`] pass
    /// resolves every page's revision-suffixed cache key, one
    /// [`Cache::get_many`] resolves the hits, and the misses are rendered
    /// and written back through one [`Cache::set_many`]. Rendering is
    /// deterministic per (page, revision), so racing fills are benign.
    fn view_many(&self, page_ids: &[u64]) -> Vec<Result<usize, ServiceError>> {
        let pages = self.pages.read().unwrap_or_else(PoisonError::into_inner);
        let records = pages.get_many(page_ids);
        let keys: Vec<Option<Vec<u8>>> = records
            .iter()
            .map(|record| {
                record.map(|page| {
                    let mut key = b"page:".to_vec();
                    key.extend_from_slice(&page.id.to_le_bytes());
                    key.extend_from_slice(&page.revision.to_le_bytes());
                    key
                })
            })
            .collect();
        let present: Vec<usize> = (0..keys.len()).filter(|&i| keys[i].is_some()).collect();
        let key_refs: Vec<&[u8]> = present.iter().filter_map(|&i| keys[i].as_deref()).collect();
        let mut cached = self.cache.get_many(&key_refs);
        let mut fills: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (slot, &i) in cached.iter_mut().zip(&present) {
            if slot.is_none() {
                if let (Some(page), Some(key)) = (records[i], keys[i].as_ref()) {
                    let html = wiki::render(&page.source, &self.templates);
                    let html_gz = compress::lz_compress(html.as_bytes());
                    fills.push((key.clone(), html_gz.clone()));
                    *slot = Some(html_gz.into());
                }
            }
        }
        drop(pages);
        if !fills.is_empty() {
            self.cache.set_many(fills);
        }
        let mut sizes = cached.into_iter();
        keys.iter()
            .map(|key| match key {
                Some(_) => sizes
                    .next()
                    .flatten()
                    .map(|body| body.len())
                    .ok_or_else(|| ServiceError::new("render failed")),
                None => Err(ServiceError::new("404 page not found")),
            })
            .collect()
    }

    /// `edit`: append a paragraph, bump the revision (the old revision's
    /// cache entry becomes unreachable, like a purged page).
    fn edit(&self, page_id: u64, seq: u64) -> Result<usize, ServiceError> {
        let appended = format!("\n\nEdit {seq} adds a '''new''' paragraph with [[link {seq}]].");
        let mut pages = self.pages.write().unwrap_or_else(PoisonError::into_inner);
        pages
            .edit(page_id, &appended)
            .map(|rev| rev as usize)
            .ok_or_else(|| ServiceError::new("404 page not found"))
    }

    /// `login`: password hash check + session token issuance (crypto
    /// tax, no page render).
    fn login(&self, seq: u64) -> Result<usize, ServiceError> {
        let user = format!("user{}", seq % 1000);
        let password = format!("hunter{}", seq % 10);
        // Derive and verify a salted hash (the expensive part of login).
        let mut salted = user.clone().into_bytes();
        salted.extend_from_slice(password.as_bytes());
        let mut digest = crypto::Sha256::digest(&salted);
        for _ in 0..64 {
            digest = crypto::Sha256::digest(&digest); // stretched hash
        }
        let token = crypto::hmac_sha256(&self.session_key, &digest);
        Ok(token.len())
    }

    /// `talk`: render the discussion page (smaller, never cached).
    fn talk(&self, page_id: u64, seq: u64) -> Result<usize, ServiceError> {
        let source = format!(
            "== Discussion of page {page_id} ==\n* comment {seq} by [[user {}]]\n* reply with {{{{cite|talk-{seq}}}}}\n",
            seq % 97
        );
        let html = wiki::render(&source, &self.templates);
        Ok(html.len())
    }
}

impl Service for WikiApp {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        let page = self.page_for(seq);
        match endpoint {
            0 => self.view(page),
            1 => self.edit(page, seq),
            2 => self.login(seq),
            _ => self.talk(page, seq),
        }
    }

    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        // Runs of consecutive views collapse into one batched
        // store/cache pass; edits and the rest stay scalar and in order,
        // so revision-key invalidation keeps its unpipelined schedule.
        let mut results = Vec::with_capacity(batch.len());
        let mut i = 0;
        while i < batch.len() {
            if batch[i].0 == 0 {
                let mut j = i;
                while j < batch.len() && batch[j].0 == 0 {
                    j += 1;
                }
                let page_ids: Vec<u64> = batch[i..j]
                    .iter()
                    .map(|&(_, seq)| self.page_for(seq))
                    .collect();
                results.extend(self.view_many(&page_ids));
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

impl Benchmark for MediaWikiBench {
    fn name(&self) -> &str {
        "mediawiki"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::Web
    }

    fn description(&self) -> &str {
        "classic web serving: wiki template rendering with page cache and DB"
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let scale = ctx.config().scale.factor();
        let threads = ctx.config().effective_threads();
        let seed = ctx.seed();
        let page_count = self.config.base_pages * scale.min(16);

        // Install: generate the wiki.
        let mut pages = PageStore::new();
        for id in 0..page_count {
            pages.insert(PageRecord {
                id,
                title: format!("Article {id}"),
                source: wiki::generate_article(id, self.config.article_len, seed),
                revision: 1,
            });
        }

        let app = WikiApp {
            pages: RwLock::new(pages),
            cache: Cache::with_telemetry(
                CacheConfig::with_capacity_bytes(128 << 20).with_shards(threads * 2),
                ctx.telemetry(),
            ),
            templates: TemplateSet::standard(),
            zipf: Zipf::new(page_count, self.config.zipf_exponent)
                .map_err(|e| Error::Config(e.to_string()))?,
            page_count,
            seed,
            session_key: [0x5A; 32],
        };

        // Siege's endpoint mix: mostly views, some edits/logins/talk.
        let mix = EndpointMix::new(
            &["view", "edit", "login", "talk"],
            &[0.70, 0.08, 0.10, 0.12],
        )
        .map_err(|e| Error::Config(e.to_string()))?;

        let duration = self.config.base_duration * scale.min(16) as u32;
        let load = ClosedLoop::new(mix)
            .workers(threads)
            .pipeline_depth(self.config.pipeline_depth)
            .duration(duration)
            .telemetry(ctx.telemetry())
            .run(&app, seed);

        let mut report = ReportBuilder::new(self.name());
        report.param("pages", page_count);
        report.param("article_len", self.config.article_len as u64);
        report.param("client_threads", threads as u64);
        report.param("pipeline_depth", self.config.pipeline_depth as u64);
        report.metric("requests_per_second", load.throughput_rps());
        report.metric("total_requests", load.completed);
        report.metric("error_rate", load.error_rate());
        report.metric("page_cache_hit_rate", app.cache.stats().hit_rate());
        report.latency_ms("request", &load.latency_ns);
        for (name, count) in ["view", "edit", "login", "talk"]
            .iter()
            .zip(&load.per_endpoint)
        {
            report.metric(&format!("requests_{name}"), *count);
        }
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;

    fn smoke() -> MediaWikiConfig {
        MediaWikiConfig {
            base_pages: 60,
            article_len: 2_000,
            base_duration: Duration::from_millis(150),
            ..MediaWikiConfig::default()
        }
    }

    #[test]
    fn smoke_run_serves_pages() {
        let bench = MediaWikiBench::with_config(smoke());
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "mediawiki",
        );
        let report = bench.run(&mut ctx).expect("mediawiki runs");
        let rps = report.metric_f64("requests_per_second").unwrap();
        assert!(rps > 200.0, "rps={rps}");
        assert_eq!(report.metric_f64("error_rate"), Some(0.0));
        for ep in ["view", "edit", "login", "talk"] {
            assert!(
                report.metric_f64(&format!("requests_{ep}")).unwrap() > 0.0,
                "endpoint {ep} never hit"
            );
        }
    }

    #[test]
    fn hot_pages_are_served_from_cache() {
        let bench = MediaWikiBench::with_config(smoke());
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(2),
                ..RunConfig::smoke_test()
            },
            "mediawiki",
        );
        let report = bench.run(&mut ctx).unwrap();
        let hit_rate = report.metric_f64("page_cache_hit_rate").unwrap();
        assert!(
            hit_rate > 0.5,
            "read-through page cache hit rate {hit_rate}"
        );
    }

    #[test]
    fn pipelined_run_matches_classic_semantics() {
        let bench = MediaWikiBench::with_config(MediaWikiConfig {
            pipeline_depth: 8,
            ..smoke()
        });
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "mediawiki",
        );
        let report = bench.run(&mut ctx).expect("pipelined mediawiki runs");
        assert_eq!(report.metric_f64("error_rate"), Some(0.0));
        assert!(report.metric_f64("page_cache_hit_rate").unwrap() > 0.5);
    }

    fn one_page_app() -> WikiApp {
        WikiApp {
            pages: RwLock::new({
                let mut s = PageStore::new();
                for id in 0..3 {
                    s.insert(PageRecord {
                        id,
                        title: format!("T{id}"),
                        source: format!("== H{id} ==\nbody {id}"),
                        revision: 1,
                    });
                }
                s
            }),
            cache: Cache::new(CacheConfig::with_capacity_bytes(1 << 20)),
            templates: TemplateSet::standard(),
            zipf: Zipf::new(3, 1.0).unwrap(),
            page_count: 3,
            seed: 1,
            session_key: [0; 32],
        }
    }

    #[test]
    fn batched_views_match_scalar_views() {
        let batched_app = one_page_app();
        let scalar_app = one_page_app();
        let ids = [0u64, 2, 0, 99, 1];
        let batched = batched_app.view_many(&ids);
        let scalar: Vec<_> = ids.iter().map(|&id| scalar_app.view(id)).collect();
        assert_eq!(batched, scalar);
        assert!(batched[3].is_err(), "unknown page is a 404 in both paths");
        // The duplicate view of page 0 misses alongside the first (the
        // batch read pass ran before any fill) and renders again — benign,
        // identical bytes; set_many leaves one entry per key.
        assert_eq!(batched_app.cache.stats().insertions(), 4);
        assert_eq!(batched_app.cache.len(), 3);
    }

    #[test]
    fn edits_invalidate_via_revision_keys() {
        let app = WikiApp {
            pages: RwLock::new({
                let mut s = PageStore::new();
                s.insert(PageRecord {
                    id: 0,
                    title: "T".into(),
                    source: "== H ==\nbody".into(),
                    revision: 1,
                });
                s
            }),
            cache: Cache::new(CacheConfig::with_capacity_bytes(1 << 20)),
            templates: TemplateSet::standard(),
            zipf: Zipf::new(1, 1.0).unwrap(),
            page_count: 1,
            seed: 1,
            session_key: [0; 32],
        };
        let size_before = app.view(0).unwrap();
        app.view(0).unwrap();
        assert_eq!(app.cache.stats().hits(), 1, "second view must hit");
        app.edit(0, 9).unwrap();
        let size_after = app.view(0).unwrap();
        assert!(size_after >= size_before, "edited page grew");
        // The edited view missed (new revision key).
        assert_eq!(app.cache.stats().misses(), 2);
    }
}
