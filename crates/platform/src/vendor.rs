//! The §5.2 vendor-optimization study (Figure 15).
//!
//! In 2023 a CPU vendor iteratively improved its cache-replacement
//! microcode under DCPerf's guidance; Figure 15 reports the effect on
//! MediaWiki in the vendor's lab and on the Facebook web application in
//! production. This module reproduces that what-if through
//! [`Model::evaluate_adjusted`]: the optimization is expressed as miss
//! multipliers ([`L1I_MISS_MULT`], [`L2_MISS_MULT`]), and application
//! performance, GIPS, IPC, and bandwidth deltas fall out of the model.

use crate::model::{Adjustments, Model, OsConfig};
use crate::profile::{profiles, WorkloadProfile};
use crate::sku::{SkuSpec, SKU2};

/// The §5.2 cache-replacement optimization's L1-I miss multiplier
/// (Figure 15: 0.64 ⇒ −36%).
pub const L1I_MISS_MULT: f64 = 0.64;

/// The §5.2 cache-replacement optimization's L2 miss multiplier
/// (0.72 ⇒ −28%).
pub const L2_MISS_MULT: f64 = 0.72;

/// Figure 15's metric deltas for one workload, in percent
/// (positive = higher after the optimization).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationImpact {
    /// Workload name.
    pub workload: &'static str,
    /// Application performance change, %.
    pub app_perf: f64,
    /// Giga-instructions-per-second change, %.
    pub gips: f64,
    /// IPC change, %.
    pub ipc: f64,
    /// L1-I cache miss change, %.
    pub l1i_miss: f64,
    /// L2 cache miss change, %.
    pub l2_miss: f64,
    /// LLC miss change, %.
    pub llc_miss: f64,
    /// Memory bandwidth usage change, %.
    pub mem_bw: f64,
}

/// Projects the impact of the §5.2 optimization on `workload` running
/// on `sku`.
pub fn project_impact(
    model: &Model,
    workload: &WorkloadProfile,
    sku: &SkuSpec,
) -> OptimizationImpact {
    let os = OsConfig::default();
    let base = model.evaluate(workload, sku, &os);
    // A replacement-policy change removes misses that were largely
    // overlapped, so the frontend coupling is much weaker than for a
    // capacity change (see Model::frontend_beta); 0.055 calibrates the
    // MediaWiki IPC delta to the vendor's measured ~+1.9%.
    let adj = Adjustments {
        l1i_mpki_mult: L1I_MISS_MULT,
        l2_miss_mult: L2_MISS_MULT,
        frontend_beta: Some(0.055),
    };
    let tuned = model.evaluate_adjusted(workload, sku, &os, &adj);

    let pct = |after: f64, before: f64| (after / before - 1.0) * 100.0;
    // LLC misses fall roughly with the square root of the L2 reduction
    // (only some of the removed L2 misses would have missed LLC too).
    let llc_miss = (L2_MISS_MULT.sqrt() - 1.0) * 100.0;
    OptimizationImpact {
        workload: workload.name,
        app_perf: pct(tuned.throughput, base.throughput),
        gips: pct(
            tuned.ipc * tuned.freq_ghz * tuned.effective_cores,
            base.ipc * base.freq_ghz * base.effective_cores,
        ),
        ipc: pct(tuned.ipc, base.ipc),
        l1i_miss: pct(tuned.l1i_mpki, base.l1i_mpki),
        l2_miss: (L2_MISS_MULT - 1.0) * 100.0,
        llc_miss,
        mem_bw: pct(tuned.mem_bw_gbs, base.mem_bw_gbs),
    }
}

/// Figure 15: the 2023 cache-replacement optimization projected for
/// MediaWiki (vendor lab) and FB Web production.
pub fn figure15(model: &Model) -> Vec<OptimizationImpact> {
    vec![
        project_impact(model, &profiles::fbweb_prod(), &SKU2),
        project_impact(model, &profiles::mediawiki(), &SKU2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure15_shape() {
        let fig = figure15(&Model::new());
        assert_eq!(fig.len(), 2);
        for impact in &fig {
            // Small positive app-level gains (paper: +2.9% / +3.5%)...
            assert!(
                (0.2..=8.0).contains(&impact.app_perf),
                "{}: app {}",
                impact.workload,
                impact.app_perf
            );
            // ...driven by large L1-I/L2 miss reductions.
            assert!((impact.l1i_miss + 36.0).abs() < 1.0, "{}", impact.l1i_miss);
            assert!((impact.l2_miss + 28.0).abs() < 1.0, "{}", impact.l2_miss);
            // IPC gains are modest, like the paper's +1.9% / +2.2%.
            assert!((0.2..=6.0).contains(&impact.ipc), "ipc {}", impact.ipc);
            // Bandwidth drops (fewer misses reach DRAM).
            assert!(impact.mem_bw < 0.0, "bw {}", impact.mem_bw);
        }
    }

    #[test]
    fn spec_sees_nothing() {
        // §5.2: "testing on SPEC 2017 revealed no noticeable performance
        // changes" — SPEC's tiny instruction footprint leaves nothing for
        // an I-cache replacement optimization to recover.
        let model = Model::new();
        let spec = profiles::spec2017_suite();
        for p in &spec {
            let impact = project_impact(&model, p, &SKU2);
            assert!(
                impact.app_perf < 1.0,
                "{}: {}% should be negligible",
                p.name,
                impact.app_perf
            );
        }
    }

    #[test]
    fn mediawiki_gains_more_than_nothing() {
        let fig = figure15(&Model::new());
        let mediawiki = fig.iter().find(|i| i.workload == "Mediawiki").unwrap();
        let fbweb = fig.iter().find(|i| i.workload == "FB Web (prod)").unwrap();
        // Both in the low single digits, same order as the paper
        // (3.5% lab vs 2.9% production).
        assert!(mediawiki.app_perf > 0.0 && fbweb.app_perf > 0.0);
    }
}
