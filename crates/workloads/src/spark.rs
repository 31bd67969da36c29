//! SparkBench: the data-warehouse query benchmark.
//!
//! "SparkBench models query execution in a data warehouse. It uses a
//! synthetic, representative dataset … The entire benchmark execution is
//! split into three stages: the first and second stages mainly load data
//! from the tables and are I/O-intensive, whereas the third stage is
//! computation-intensive. Thus, the total query execution time reflects
//! the end-to-end data warehouse performance, while the execution time of
//! the last stage can be used to evaluate CPU performance." (§3.2)
//!
//! This module is a from-scratch mini warehouse engine:
//!
//! * A deterministic dataset generator preserving the paper's fidelity
//!   features: fixed schema, realistic types, Zipf key cardinality, and a
//!   bounded distinct-value dictionary.
//! * Compressed, serialized part files on disk (the "remote NVMe" stand-in
//!   is the local filesystem — the I/O code path is identical).
//! * Stage 1: parallel scan + filter of the fact table, hash-partitioned
//!   shuffle spill. Stage 2: the same for the dimension table. Stage 3:
//!   per-partition hash join + group-by aggregation (compute-bound).

use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_tax::{
    compress,
    serialize::{self, FieldValue, Record},
};
use dcperf_util::{Rng, SplitMix64, Xoshiro256pp, Zipf};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Aggregation state keyed by `(segment, region)`: running revenue sum
/// and row count for that group.
type GroupAgg = HashMap<(i64, String), (f64, u64)>;

/// Fact-table rows at smoke scale (scaled by the run scale).
const BASE_FACT_ROWS: u64 = 120_000;
/// Dimension-table rows at smoke scale (scaled by the run scale).
const BASE_DIM_ROWS: u64 = 8_000;
/// Rows per part file.
const ROWS_PER_PART: u64 = 20_000;
/// Shuffle partitions.
const PARTITIONS: usize = 16;
/// Filter selectivity: fact rows with `amount > AMOUNT_THRESHOLD` survive.
const AMOUNT_THRESHOLD: f64 = 25.0;

/// Numbers the runs of this process, so concurrent runs with one seed
/// never share a scratch directory.
static RUN_ID: AtomicU64 = AtomicU64::new(0);

/// The SparkBench benchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SparkBench;

const COUNTRIES: [&str; 12] = [
    "US", "IN", "BR", "ID", "MX", "PH", "VN", "TH", "GB", "DE", "FR", "JP",
];
const EVENT_TYPES: [&str; 6] = ["view", "click", "like", "share", "comment", "purchase"];

/// Generates one fact row: (user_id, event_type, ts, amount, country,
/// payload) — schema, types, and cardinalities as §2.2 requires.
fn fact_row(rng: &mut Xoshiro256pp, users: &Zipf, user_count: u64) -> Record {
    let user = SplitMix64::mix(users.sample(rng)) % user_count;
    let event = EVENT_TYPES[rng.gen_index(EVENT_TYPES.len())];
    let country = COUNTRIES[rng.gen_index(COUNTRIES.len())];
    let payload_len = (rng.next_u64() % 48 + 16) as usize;
    let mut payload = vec![0u8; payload_len];
    rng.fill_bytes(&mut payload);
    vec![
        FieldValue::I64(user as i64),
        FieldValue::Str(event.to_owned()),
        FieldValue::I64(1_700_000_000 + (rng.next_u64() % 86_400) as i64),
        FieldValue::F64((rng.next_f64() * 100.0 * rng.next_f64() * 2.0).min(5_000.0)),
        FieldValue::Str(country.to_owned()),
        FieldValue::Bytes(payload),
    ]
}

/// Generates one dimension row: (user_id, segment, signup_year).
fn dim_row(user: u64, seed: u64) -> Record {
    let mut rng = SplitMix64::new(seed ^ user.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    vec![
        FieldValue::I64(user as i64),
        FieldValue::I64((rng.next_u64() % 8) as i64), // segment, low cardinality
        FieldValue::I64(2008 + (rng.next_u64() % 16) as i64),
    ]
}

fn write_part(path: &Path, records: &[Record]) -> std::io::Result<usize> {
    let mut buf = Vec::new();
    serialize::encode_batch(records, &mut buf);
    let packed = compress::lz_compress(&buf);
    let mut file = std::fs::File::create(path)?;
    file.write_all(&packed)?;
    Ok(packed.len())
}

fn read_part(path: &Path) -> Result<Vec<Record>, Error> {
    let packed = std::fs::read(path)?;
    let buf = compress::lz_decompress(&packed).map_err(|e| Error::Benchmark {
        name: "spark_bench".into(),
        message: format!("corrupt part file {}: {e}", path.display()),
    })?;
    let (records, _) = serialize::decode_batch(&buf).map_err(|e| Error::Benchmark {
        name: "spark_bench".into(),
        message: format!("undecodable part file {}: {e}", path.display()),
    })?;
    Ok(records)
}

fn record_i64(record: &Record, idx: usize) -> Option<i64> {
    match record.get(idx)? {
        FieldValue::I64(v) => Some(*v),
        _ => None,
    }
}

fn record_f64(record: &Record, idx: usize) -> Option<f64> {
    match record.get(idx)? {
        FieldValue::F64(v) => Some(*v),
        _ => None,
    }
}

fn record_str(record: &Record, idx: usize) -> Option<&str> {
    match record.get(idx)? {
        FieldValue::Str(s) => Some(s),
        _ => None,
    }
}

/// Runs a stage's tasks (one per input item) on a scoped worker pool of
/// `threads`, collecting results.
fn run_tasks<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Every task exists before the workers start: each takes the next
    // one until none are left.
    let tasks = Mutex::new(items.into_iter().enumerate());
    let next_task = || tasks.lock().unwrap_or_else(PoisonError::into_inner).next();
    let results = Mutex::new(Vec::<(usize, R)>::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                while let Some((i, item)) = next_task() {
                    let r = f(item);
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, r));
                }
            });
        }
    });
    let mut out = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

impl Benchmark for SparkBench {
    fn name(&self) -> &str {
        "spark_bench"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::BigData
    }

    fn description(&self) -> &str {
        "three-stage warehouse query: scan/shuffle stages then a compute-bound join+aggregate"
    }

    fn score_metric(&self) -> &str {
        "rows_per_second"
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let scale = ctx.config().scale.factor();
        let threads = ctx.config().effective_threads();
        let seed = ctx.seed();
        let fact_rows = BASE_FACT_ROWS * scale;
        let dim_rows = BASE_DIM_ROWS * scale;

        // ordering: the id only has to be unique; nothing is published through it
        let run = RUN_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "dcperf-spark-{}-{seed:x}-{run}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        // Ensure cleanup even on early error.
        let result = self.run_in(ctx, &dir, fact_rows, dim_rows, threads, seed);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}

impl SparkBench {
    fn run_in(
        &self,
        ctx: &mut RunContext,
        dir: &Path,
        fact_rows: u64,
        dim_rows: u64,
        threads: usize,
        seed: u64,
    ) -> Result<BenchmarkReport, Error> {
        let mut report = ReportBuilder::new(self.name());
        report.param("fact_rows", fact_rows);
        report.param("dim_rows", dim_rows);
        report.param("partitions", PARTITIONS as u64);
        report.param("threads", threads as u64);

        // ------ Table build (like loading the Spark table) -------------
        let build_started = Instant::now();
        let users = Zipf::new(dim_rows.max(1), 0.8).map_err(|e| Error::Config(e.to_string()))?;
        let n_fact_parts = fact_rows.div_ceil(ROWS_PER_PART).max(1);
        let fact_parts: Vec<PathBuf> = (0..n_fact_parts)
            .map(|p| dir.join(format!("fact-{p}.part")))
            .collect();
        let bytes_written: usize = run_tasks(
            fact_parts.iter().cloned().enumerate().collect(),
            threads,
            |(p, path)| {
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (p as u64) << 32);
                let count = ROWS_PER_PART.min(fact_rows - (p as u64) * ROWS_PER_PART);
                let records: Vec<Record> = (0..count)
                    .map(|_| fact_row(&mut rng, &users, dim_rows.max(1)))
                    .collect();
                write_part(&path, &records).unwrap_or(0)
            },
        )
        .into_iter()
        .sum();
        let dim_part = dir.join("dim-0.part");
        let dim_records: Vec<Record> = (0..dim_rows).map(|u| dim_row(u, seed)).collect();
        let dim_bytes = write_part(&dim_part, &dim_records)?;
        let build_secs = build_started.elapsed().as_secs_f64();

        let shuffle_dir = dir.join("shuffle");
        std::fs::create_dir_all(&shuffle_dir)?;

        // ------ Stage 1: scan + filter fact, shuffle by user ----------
        let stage1_started = Instant::now();
        let stage1_results = run_tasks(
            fact_parts.iter().cloned().enumerate().collect(),
            threads,
            |(p, path)| -> Result<(u64, u64), Error> {
                let records = read_part(&path)?;
                let scanned = records.len() as u64;
                let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); PARTITIONS];
                for record in records {
                    let Some(user) = record_i64(&record, 0) else {
                        continue;
                    };
                    let Some(amount) = record_f64(&record, 3) else {
                        continue;
                    };
                    if amount > AMOUNT_THRESHOLD {
                        buckets[(user as u64 % PARTITIONS as u64) as usize].push(record);
                    }
                }
                let mut kept = 0u64;
                for (b, bucket) in buckets.iter().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    kept += bucket.len() as u64;
                    let path = dir.join(format!("shuffle/fact-{b}-{p}.shf"));
                    write_part(&path, bucket)?;
                }
                Ok((scanned, kept))
            },
        );
        let mut scanned_rows = 0u64;
        let mut surviving_rows = 0u64;
        for r in stage1_results {
            let (scanned, kept) = r?;
            scanned_rows += scanned;
            surviving_rows += kept;
        }
        let stage1_secs = stage1_started.elapsed().as_secs_f64();

        // ------ Stage 2: scan dimension, shuffle by user ---------------
        let stage2_started = Instant::now();
        {
            let records = read_part(&dim_part)?;
            let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); PARTITIONS];
            for record in records {
                if let Some(user) = record_i64(&record, 0) {
                    buckets[(user as u64 % PARTITIONS as u64) as usize].push(record);
                }
            }
            let tasks: Vec<(usize, Vec<Record>)> = buckets.into_iter().enumerate().collect();
            for r in run_tasks(tasks, threads, |(b, bucket)| -> Result<(), Error> {
                if !bucket.is_empty() {
                    write_part(&dir.join(format!("shuffle/dim-{b}.shf")), &bucket)?;
                }
                Ok(())
            }) {
                r?;
            }
        }
        let stage2_secs = stage2_started.elapsed().as_secs_f64();

        // ------ Stage 3: per-partition hash join + aggregate -----------
        let stage3_started = Instant::now();
        let partial_results = run_tasks(
            (0..PARTITIONS).collect::<Vec<_>>(),
            threads,
            |b| -> Result<GroupAgg, Error> {
                // Build side: dimension rows for this partition.
                let dim_path = dir.join(format!("shuffle/dim-{b}.shf"));
                let mut segments: HashMap<i64, i64> = HashMap::new();
                if dim_path.exists() {
                    for record in read_part(&dim_path)? {
                        if let (Some(user), Some(segment)) =
                            (record_i64(&record, 0), record_i64(&record, 1))
                        {
                            segments.insert(user, segment);
                        }
                    }
                }
                // Probe side: every fact shuffle file for this partition.
                let mut agg: GroupAgg = HashMap::new();
                for entry in std::fs::read_dir(dir.join("shuffle"))? {
                    let entry = entry?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if !name.starts_with(&format!("fact-{b}-")) {
                        continue;
                    }
                    for record in read_part(&entry.path())? {
                        let (Some(user), Some(amount), Some(country)) = (
                            record_i64(&record, 0),
                            record_f64(&record, 3),
                            record_str(&record, 4),
                        ) else {
                            continue;
                        };
                        let Some(&segment) = segments.get(&user) else {
                            continue;
                        };
                        let slot = agg.entry((segment, country.to_owned())).or_insert((0.0, 0));
                        slot.0 += amount;
                        slot.1 += 1;
                    }
                }
                Ok(agg)
            },
        );
        // Global merge + order by revenue.
        let mut merged: GroupAgg = HashMap::new();
        for partial in partial_results {
            for (key, (sum, count)) in partial? {
                let slot = merged.entry(key).or_insert((0.0, 0));
                slot.0 += sum;
                slot.1 += count;
            }
        }
        let mut groups: Vec<((i64, String), (f64, u64))> = merged.into_iter().collect();
        groups.sort_by(|a, b| {
            b.1 .0
                .partial_cmp(&a.1 .0)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let stage3_secs = stage3_started.elapsed().as_secs_f64();

        let joined_rows: u64 = groups.iter().map(|(_, (_, c))| c).sum();
        let total_secs = stage1_secs + stage2_secs + stage3_secs;

        report.metric("table_build_seconds", build_secs);
        report.metric("stage1_seconds", stage1_secs);
        report.metric("stage2_seconds", stage2_secs);
        report.metric("stage3_seconds", stage3_secs);
        report.metric("total_query_seconds", total_secs);
        report.metric("scanned_rows", scanned_rows);
        report.metric("surviving_rows", surviving_rows);
        report.metric("joined_rows", joined_rows);
        report.metric("result_groups", groups.len() as u64);
        report.metric("dataset_mb", (bytes_written + dim_bytes) as f64 / 1e6);
        report.metric(
            "rows_per_second",
            scanned_rows as f64 / total_secs.max(1e-9),
        );
        if let Some(((segment, country), (revenue, count))) = groups.first() {
            report.metric("top_group", format!("segment={segment} country={country}"));
            report.metric("top_group_revenue", *revenue);
            report.metric("top_group_rows", *count);
        }
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;

    #[test]
    fn smoke_run_completes_all_stages() {
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(4),
                ..RunConfig::smoke_test()
            },
            "spark_bench",
        );
        let report = SparkBench.run(&mut ctx).expect("spark runs");
        let fact_rows = BASE_FACT_ROWS as f64;
        assert_eq!(report.metric_f64("scanned_rows"), Some(fact_rows));
        let surviving = report.metric_f64("surviving_rows").unwrap();
        assert!(
            surviving > 0.0 && surviving < fact_rows,
            "filter must be selective"
        );
        assert!(report.metric_f64("joined_rows").unwrap() > 0.0);
        let groups = report.metric_f64("result_groups").unwrap();
        // Group-by (segment × country): bounded by 8 × 12 = 96.
        assert!(groups > 10.0 && groups <= 96.0, "groups={groups}");
        assert!(report.metric_f64("rows_per_second").unwrap() > 0.0);
        for stage in ["stage1_seconds", "stage2_seconds", "stage3_seconds"] {
            assert!(report.metric_f64(stage).unwrap() > 0.0, "{stage}");
        }
    }

    #[test]
    fn concurrent_runs_with_one_seed_agree() {
        // Two runs in one process with one seed must not share scratch
        // files: one run's cleanup would delete the other's parts. The
        // runs use different thread counts, so one finishes while the
        // other is still reading, and their results must still agree.
        let runs = std::thread::scope(|s| {
            [1, 2]
                .map(|threads| {
                    s.spawn(move || {
                        let config = RunConfig {
                            threads: Some(threads),
                            ..RunConfig::smoke_test()
                        };
                        SparkBench.run(&mut RunContext::new(config, "spark_bench"))
                    })
                })
                .map(|h| h.join().unwrap())
        });
        let [a, b] = runs.each_ref().map(|r| r.as_ref().expect("spark runs"));
        assert_eq!(
            a.metric_f64("surviving_rows"),
            b.metric_f64("surviving_rows")
        );
        assert_eq!(a.metric_f64("joined_rows"), b.metric_f64("joined_rows"));
        assert_eq!(
            a.metrics.get("top_group"),
            b.metrics.get("top_group"),
            "aggregation result must be deterministic"
        );
    }

    #[test]
    fn temp_files_are_cleaned_up() {
        // A seed no other test uses, so a concurrent test's scratch
        // directory is never counted here.
        let seed = 0x5BA2C1EA;
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(2),
                seed,
                ..RunConfig::smoke_test()
            },
            "spark_bench",
        );
        let _ = SparkBench.run(&mut ctx).unwrap();
        let prefix = format!("dcperf-spark-{}-{seed:x}-", std::process::id());
        let leftovers = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .count();
        assert_eq!(leftovers, 0, "spark temp dirs must be removed");
    }

    #[test]
    fn dataset_preserves_schema_and_cardinality() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let users = Zipf::new(100, 0.8).unwrap();
        let mut countries = std::collections::HashSet::new();
        for _ in 0..1000 {
            let row = fact_row(&mut rng, &users, 100);
            assert_eq!(row.len(), 6);
            assert!(record_i64(&row, 0).unwrap() < 100);
            countries.insert(record_str(&row, 4).unwrap().to_owned());
            let amount = record_f64(&row, 3).unwrap();
            assert!((0.0..=5_000.0).contains(&amount));
        }
        assert_eq!(countries.len(), 12, "country cardinality preserved");
    }
}
