//! SLO-under-chaos: TaoBench's SLO-constrained peak throughput with and
//! without a fault plan, and what the retry layer buys back.
//!
//! Scenario (the resilience layer is active throughout — per-request
//! deadlines, capped retries, circuit breaking):
//!
//! 1. Find the peak offered load meeting the SLO on a healthy stack.
//! 2. Repeat under the chaos plan — 50 ms stalls on 10% of backing-store
//!    lookups plus 1% injected RPC errors — and compare peaks.
//! 3. At a fixed offered load with 20% of dispatches shed as overloaded,
//!    compare goodput with retries enabled vs disabled.
//!
//! ```sh
//! cargo chaos   # alias for:
//! cargo run --release --features fault-injection --example chaos_taobench
//! ```

use dcperf::core::SloSpec;
use dcperf::loadgen::find_peak_load;
use dcperf::resilience::RetryPolicy;
use dcperf::workloads::chaos::{run_tao_chaos, TaoChaosConfig};
use std::time::Duration;

/// One peak search: open-loop trials at doubling offered rates, binary
/// refinement, judged against `slo`.
fn find_peak(label: &str, config: &TaoChaosConfig, slo: &SloSpec) -> f64 {
    let search = find_peak_load(
        250.0,
        50_000.0,
        4,
        |rate| {
            let trial = TaoChaosConfig {
                offered_rps: Some(rate),
                ..config.clone()
            };
            run_tao_chaos(&trial, slo).load
        },
        |report| {
            slo.evaluate(&report.latency_ns, report.error_rate())
                .is_met()
        },
    );
    let peak = search.peak_rps.unwrap_or(0.0);
    println!(
        "  {label:<11} peak {peak:>8.0} rps  ({} trials)",
        search.trials.len()
    );
    peak
}

fn main() {
    // The SLO sits above the 50 ms injected stall so an individual stall
    // is survivable; what kills the faulted stack is capacity: each stall
    // pins a slow-pool thread for 50 ms, so the slow lane saturates and
    // queueing delay blows the percentile at a far lower offered load.
    let slo = SloSpec::p95_under_ms(60.0).with_max_error_rate(0.05);
    println!("SLO: p95 < 60 ms, error rate <= 5%\n");

    println!("SLO-constrained peak throughput:");
    let healthy = find_peak("fault-free", &TaoChaosConfig::default().fault_free(), &slo);
    let faulted = find_peak("faulted", &TaoChaosConfig::default(), &slo);
    if faulted < healthy {
        println!(
            "  chaos costs {:.0}% of SLO-attained capacity\n",
            (1.0 - faulted / healthy.max(1.0)) * 100.0
        );
    } else {
        println!("  WARNING: faulted peak not below baseline — inspect the plan\n");
    }

    // Retries on/off at a fixed offered load while 20% of dispatches are
    // shed as overloaded (retryable; below the breaker trip ratio).
    let shed = TaoChaosConfig {
        store_latency_fault: None,
        rpc_error_rate: 0.0,
        request_deadline: None,
        overload_burst: Some((5, 1)),
        offered_rps: Some(2_000.0),
        retry_policy: RetryPolicy::new(4, Duration::from_micros(200))
            .with_max_backoff(Duration::from_millis(1)),
        ..TaoChaosConfig::default()
    };
    let with_retries = run_tao_chaos(&shed, &slo);
    let without_retries = run_tao_chaos(&shed.clone().without_retries(), &slo);
    println!("Goodput at 2000 rps offered with 20% overload shed:");
    println!(
        "  retries on   {:>6.0} rps  (error rate {:.2}%, {} retries)",
        with_retries.goodput_rps(),
        with_retries.load.error_rate() * 100.0,
        with_retries
            .snapshot
            .counter("rpc.resilient.retries")
            .unwrap_or(0),
    );
    println!(
        "  retries off  {:>6.0} rps  (error rate {:.2}%)",
        without_retries.goodput_rps(),
        without_retries.load.error_rate() * 100.0,
    );

    // One run with every fault class at once — stalls on the store,
    // latency + overload bursts on the RPC path, tight deadlines — so the
    // merged snapshot shows the full resilience layer reacting.
    let everything = TaoChaosConfig {
        rpc_latency_fault: Some((0.2, Duration::from_millis(40))),
        request_deadline: Some(Duration::from_millis(10)),
        overload_burst: Some((10, 2)),
        ..TaoChaosConfig::default()
    };
    let full = run_tao_chaos(&everything, &slo);
    println!("\nResilience counters under the full chaos plan:");
    for name in [
        "rpc.requests",
        "rpc.resilient.retries",
        "rpc.deadline_exceeded",
        "rpc.deadline_shed",
        "rpc.breaker.open_transitions",
        "rpc.breaker.rejected",
        "loadgen.rejected",
        "chaos.rpc.injected_overloads",
        "chaos.store.injected_latency_ops",
    ] {
        if let Some(value) = full.snapshot.counter(name) {
            println!("  {name:<34} {value}");
        }
    }
}
