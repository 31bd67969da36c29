//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <tao_mget|kv_tcp|feed_rank> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host block, a config block and notes, then as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`, the
//! per-layer ones. Exits non-zero, printing no result, on bad arguments or
//! a failed set-up.

#![forbid(unsafe_code)]

use dcperf_perfbench::harness::{self, Metric};
use dcperf_perfbench::{Plan, WorkloadKind};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <tao_mget|kv_tcp|feed_rank> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// JSON string literal (the strings printed here are ASCII identifiers
/// and short host descriptions).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The checkout's git revision, read from `.git` when there is one.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn host_block() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    json_object(&[
        ("available_parallelism", parallelism.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_owned()),
        ("git_revision", git_revision()),
        ("kernel", kernel),
    ])
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut plan = Plan::for_seconds(args.kind, args.seed, args.seconds);
    if args.trace {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        // One file per workload, overwritten by the next traced run, so
        // repeated runs do not pile up hundreds of megabytes of spans.
        plan.trace_out = Some(
            target
                .join("perfbench-trace")
                .join(format!("{}.tsv", args.kind.name())),
        );
    }
    println!("host {}", host_block());
    let outcome = match harness::run(&plan, args.trace, process_start) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = vec![
        ("workload", args.kind.name().to_owned()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("setup_reps", plan.setup_reps.to_string()),
        ("warmup_requests", plan.warmup_requests.to_string()),
        (
            "windows",
            (if args.trace {
                2 * plan.traced_windows
            } else {
                plan.windows
            })
            .to_string(),
        ),
        ("window_requests", plan.window_requests.to_string()),
        ("generator_threads", "1".into()),
    ];
    config.extend(outcome.sizes.iter().map(|(k, v)| (*k, v.clone())));
    println!("config {}", json_object(&config));
    for note in &outcome.notes {
        println!("# {note}");
    }
    let c = outcome.counters;
    println!(
        "# counts: hits {} misses {} fills {} evictions {} response_bytes {}",
        c.hits, c.misses, c.fills, c.evictions, outcome.response_bytes
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    ExitCode::SUCCESS
}
