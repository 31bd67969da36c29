//! Vendor CPU optimization (§5.2 / Figure 15): express a microcode
//! cache-replacement improvement as miss multipliers, project its effect
//! on MediaWiki in the "vendor lab", and check whether SPEC would have
//! noticed anything at all.
//!
//! ```sh
//! cargo run --release --example vendor_optimization
//! ```

use dcperf::platform::profile::profiles;
use dcperf::platform::sku::SKU2;
use dcperf::platform::vendor::{project_impact, L1I_MISS_MULT, L2_MISS_MULT};
use dcperf::platform::Model;

fn main() {
    let model = Model::new();
    println!("=== 2023 cache-replacement microcode optimization ===");
    println!("expressed as miss multipliers: L1-I x{L1I_MISS_MULT:.2}, L2 x{L2_MISS_MULT:.2}\n",);

    println!("Projected impact (DCPerf benchmark in the vendor lab, and the");
    println!("production workload it models):\n");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8}",
        "workload", "appPerf", "GIPS", "IPC", "L1I-miss", "LLC-miss", "MemBW"
    );
    for workload in [profiles::mediawiki(), profiles::fbweb_prod()] {
        let impact = project_impact(&model, &workload, &SKU2);
        println!(
            "{:<16} {:>+7.1}% {:>+7.1}% {:>+7.1}% {:>+8.0}% {:>+8.1}% {:>+7.1}%",
            impact.workload,
            impact.app_perf,
            impact.gips,
            impact.ipc,
            impact.l1i_miss,
            impact.llc_miss,
            impact.mem_bw
        );
    }

    println!("\nAnd on SPEC 2017 (small instruction footprints):");
    let mut max_gain = 0.0f64;
    for p in profiles::spec2017_suite() {
        let impact = project_impact(&model, &p, &SKU2);
        max_gain = max_gain.max(impact.app_perf);
    }
    println!("  largest SPEC benchmark gain: {max_gain:+.2}% — effectively invisible.");
    println!("  \"Without DCPerf, the vendor could not have made this optimization");
    println!("   relying only on the standard SPEC benchmarks.\" (§5.2)");
}
