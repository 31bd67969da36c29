//! Deterministic RPC pipelining regression benchmark.
//!
//! Sweeps the client pipeline depth against a loopback [`TcpServer`] echo
//! handler and reports throughput plus per-request batch-turn latency for
//! each depth. Depth 1 is the classic one-request-per-turn baseline; the
//! emitted JSON records each depth's speedup against it so CI can assert
//! the pipelined path keeps its win.
//!
//! Usage (also aliased as `cargo bench-rpc`):
//!
//! ```text
//! bench_rpc [--requests N] [--payload BYTES] [--depths 1,2,4,8,16,32]
//!           [--seed S] [--out BENCH_rpc_pipeline.json]
//! ```
//!
//! The request stream is derived from the seed alone, so two runs with the
//! same arguments issue byte-identical traffic. The output's `host` block
//! records the CPUs, toolchain and git revision the sweep ran on.

#![forbid(unsafe_code)]

use dcperf_bench::host::Host;
use dcperf_rpc::{PipelineConfig, PoolConfig, Response, TcpClient, TcpServer};
use dcperf_util::{Histogram, Rng, Xoshiro256pp};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct DepthResult {
    depth: usize,
    requests: u64,
    elapsed_ms: f64,
    throughput_rps: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    speedup_vs_depth1: f64,
}

#[derive(Debug, Serialize)]
struct BenchOutput {
    benchmark: String,
    host: Host,
    seed: u64,
    requests_per_depth: u64,
    payload_bytes: usize,
    server_pipeline_max_inflight: usize,
    server_pipeline_max_batch: usize,
    depths: Vec<DepthResult>,
}

struct Args {
    requests: u64,
    payload: usize,
    depths: Vec<usize>,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 4_000,
        payload: 64,
        depths: vec![1, 2, 4, 8, 16, 32],
        seed: 42,
        out: "BENCH_rpc_pipeline.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--payload" => {
                args.payload = value("--payload")?
                    .parse()
                    .map_err(|e| format!("--payload: {e}"))?;
            }
            "--depths" => {
                args.depths = value("--depths")?
                    .split(',')
                    .map(|d| d.trim().parse().map_err(|e| format!("--depths: {e}")))
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                return Err(
                    "usage: bench_rpc [--requests N] [--payload BYTES] [--depths CSV] \
                     [--seed S] [--out PATH]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.depths.is_empty() || args.depths.contains(&0) {
        return Err("--depths must list at least one nonzero depth".to_owned());
    }
    Ok(args)
}

/// Builds the deterministic payload for request `i`.
fn payload_for(rng_seed: u64, i: u64, len: usize) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(rng_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut body = vec![0u8; len];
    rng.fill_bytes(&mut body);
    body
}

/// One sweep point: issues `requests` echoes at the given depth and
/// returns (elapsed, per-request batch-turn latency histogram).
fn run_depth(
    addr: std::net::SocketAddr,
    depth: usize,
    requests: u64,
    payload: usize,
    seed: u64,
) -> std::io::Result<(f64, Histogram)> {
    let mut client = TcpClient::connect(addr)?.with_window(depth);
    let mut hist = Histogram::new();
    let started = Instant::now();
    let mut issued = 0u64;
    while issued < requests {
        let batch = depth.min((requests - issued) as usize);
        if batch == 1 {
            let body = payload_for(seed, issued, payload);
            let t0 = Instant::now();
            let resp = client
                .call("echo", body)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            hist.record(t0.elapsed().as_nanos() as u64);
            assert_eq!(resp.body.len(), payload, "echo must return the payload");
            issued += 1;
            continue;
        }
        let bodies: Vec<Vec<u8>> = (0..batch as u64)
            .map(|j| payload_for(seed, issued + j, payload))
            .collect();
        let t0 = Instant::now();
        let outcomes = client.call_many("echo", bodies);
        let turn_ns = t0.elapsed().as_nanos() as u64;
        for outcome in outcomes {
            let resp = outcome.map_err(|e| std::io::Error::other(e.to_string()))?;
            assert_eq!(resp.body.len(), payload, "echo must return the payload");
            hist.record(turn_ns);
        }
        issued += batch as u64;
    }
    Ok((started.elapsed().as_secs_f64(), hist))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let pipeline = PipelineConfig::default();
    let server = TcpServer::bind_with_pipeline(
        "127.0.0.1:0",
        |req: &dcperf_rpc::Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(4).with_queue_depth(4096),
        pipeline,
    )
    .expect("bind loopback echo server");
    let addr = server.local_addr();

    eprintln!(
        "bench_rpc: {} requests x {} depths, {}B payload, seed {}",
        args.requests,
        args.depths.len(),
        args.payload,
        args.seed
    );

    let mut depths = Vec::with_capacity(args.depths.len());
    let mut baseline_rps = None;
    for &depth in &args.depths {
        // One untimed warmup pass per depth settles connections and pools.
        run_depth(
            addr,
            depth,
            (args.requests / 10).max(64),
            args.payload,
            args.seed,
        )
        .expect("warmup");
        let (elapsed, hist) =
            run_depth(addr, depth, args.requests, args.payload, args.seed).expect("sweep");
        let rps = args.requests as f64 / elapsed;
        if depth == 1 || baseline_rps.is_none() {
            baseline_rps.get_or_insert(rps);
        }
        let speedup = rps / baseline_rps.unwrap_or(rps);
        eprintln!(
            "  depth {depth:>3}: {rps:>10.0} rps  p50 {:>8.1}us  p99 {:>8.1}us  {speedup:.2}x",
            hist.p50() as f64 / 1e3,
            hist.p99() as f64 / 1e3,
        );
        depths.push(DepthResult {
            depth,
            requests: args.requests,
            elapsed_ms: elapsed * 1e3,
            throughput_rps: rps,
            latency_p50_us: hist.p50() as f64 / 1e3,
            latency_p99_us: hist.p99() as f64 / 1e3,
            speedup_vs_depth1: speedup,
        });
    }

    let output = BenchOutput {
        benchmark: "rpc_pipeline_depth_sweep".to_owned(),
        host: Host::detect(),
        seed: args.seed,
        requests_per_depth: args.requests,
        payload_bytes: args.payload,
        server_pipeline_max_inflight: pipeline.max_inflight,
        server_pipeline_max_batch: dcperf_rpc::server::MAX_BATCH,
        depths,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialize bench output");
    std::fs::write(&args.out, format!("{json}\n")).expect("write bench output");
    eprintln!("wrote {}", args.out);
    server.shutdown();
}
