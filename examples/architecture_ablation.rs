//! Architecture ablation (§2.2 / §6): quantify the two software-
//! architecture choices the paper says benchmarks must reproduce —
//! read-through caching and TAO's fast/slow thread-pool split — by
//! measuring both variants live on this machine.
//!
//! ```sh
//! cargo run --release --example architecture_ablation
//! ```

use dcperf::workloads::ablation::{compare_cache_architectures, compare_pool_architectures};
use std::time::Duration;

fn main() {
    println!("=== Ablation 1: read-through vs look-aside caching ===\n");
    let results = compare_cache_architectures(20_000, Duration::from_millis(600), 4, 42);
    println!(
        "{:<14} {:>10} {:>16} {:>10}",
        "architecture", "RPS", "rpc calls/req", "hit rate"
    );
    for r in &results {
        println!(
            "{:<14} {:>10.0} {:>16.3} {:>9.1}%",
            r.architecture,
            r.rps,
            r.rpc_calls_per_request,
            r.hit_rate * 100.0
        );
    }
    println!(
        "\nThe look-aside client pays ~3 RPC round trips per miss (GET, DB read,\n\
         SET-back); read-through pays one. That protocol difference is why §2.2\n\
         insists the benchmark reproduce the production cache architecture.\n"
    );

    println!("=== Ablation 2: fast/slow pools vs a single shared pool ===\n");
    let results =
        compare_pool_architectures(0.3, Duration::from_millis(2), Duration::from_millis(800), 7);
    println!(
        "{:<16} {:>14} {:>14} {:>10}",
        "architecture", "hit p95 (us)", "miss p95 (us)", "requests"
    );
    for r in &results {
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>10}",
            r.architecture, r.hit_p95_us, r.miss_p95_us, r.requests
        );
    }
    println!(
        "\nWith one shared pool, 2ms DB misses queue ahead of cache hits and drag\n\
         the hit-path tail with them; TAO's split pools isolate the fast path —\n\
         the design §6 highlights under 'Modeling software architecture'."
    );
}
