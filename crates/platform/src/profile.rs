//! Workload profiles: structural parameters plus the microarchitecture
//! anchor measured on the reference SKU.
//!
//! Anchor values ([`MicroAnchor`]) are transcribed from the paper's SKU2
//! measurements: TMAM from Figure 4, IPC from Figure 6, memory bandwidth
//! from Figure 7, L1-I MPKI from Figure 8, CPU utilization from Figure 9,
//! power from Figure 10, frequency from Figure 11, and the datacenter-tax
//! cycle breakdown from Figure 12. Structural parameters (footprints,
//! thread ratios, fan-out, scaling coefficients) come from Table 1 and the
//! benchmark descriptions of §3.2.

use serde::Serialize;

/// Top-down pipeline-slot percentages (must sum to ~100).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Tmam {
    /// Frontend-bound slots, %.
    pub frontend: f64,
    /// Bad-speculation slots, %.
    pub bad_spec: f64,
    /// Backend-bound slots, %.
    pub backend: f64,
    /// Retiring slots, %.
    pub retiring: f64,
}

impl Tmam {
    /// Creates a TMAM split.
    ///
    /// # Panics
    ///
    /// Panics if the components do not sum to 100 ± 2 (the figures are
    /// read to the nearest percent).
    pub fn new(frontend: f64, bad_spec: f64, backend: f64, retiring: f64) -> Self {
        let sum = frontend + bad_spec + backend + retiring;
        assert!(
            (98.0..=102.0).contains(&sum),
            "TMAM components must sum to ~100, got {sum}"
        );
        Self {
            frontend,
            bad_spec,
            backend,
            retiring,
        }
    }

    /// Renormalizes the components to sum exactly 100.
    pub fn normalized(&self) -> Tmam {
        let sum = self.frontend + self.bad_spec + self.backend + self.retiring;
        Tmam {
            frontend: self.frontend / sum * 100.0,
            bad_spec: self.bad_spec / sum * 100.0,
            backend: self.backend / sum * 100.0,
            retiring: self.retiring / sum * 100.0,
        }
    }
}

/// Server power split, each component as a percent of design power
/// (Figure 10's stacking).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerBreakdown {
    /// CPU core power, % of design power.
    pub core: f64,
    /// SoC non-core (interconnect, memory controller), %.
    pub soc: f64,
    /// DRAM, %.
    pub dram: f64,
    /// Everything else (storage, NIC, BMC, fans), %.
    pub other: f64,
}

impl PowerBreakdown {
    /// Total power as a percent of design power.
    pub fn total(&self) -> f64 {
        self.core + self.soc + self.dram + self.other
    }
}

/// One slice of the Figure-12 cycle breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaxSlice {
    /// Slice label (e.g. `"RPC"`, `"(App) Ranking"`).
    pub label: &'static str,
    /// Percent of CPU cycles.
    pub percent: f64,
    /// Whether this is application logic (`true`) or datacenter tax.
    pub is_app: bool,
}

/// The microarchitecture profile measured on the reference SKU (SKU2).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MicroAnchor {
    /// TMAM split (Figure 4).
    pub tmam: Tmam,
    /// IPC per physical core, SMT on (Figure 6).
    pub ipc: f64,
    /// Memory bandwidth consumption, GB/s (Figure 7).
    pub mem_bw_gbs: f64,
    /// L1 I-cache misses per kilo-instruction (Figure 8).
    pub l1i_mpki: f64,
    /// Total CPU utilization, % (Figure 9).
    pub cpu_util_total: f64,
    /// Kernel+IRQ CPU utilization, % (Figure 9).
    pub cpu_util_sys: f64,
    /// Average core frequency, GHz (Figure 11).
    pub freq_ghz: f64,
    /// Power breakdown (Figure 10; suite averages where the figure has no
    /// per-workload column).
    pub power: PowerBreakdown,
}

/// Which suite a profile belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ProfileKind {
    /// A Meta production workload (aggregated fleet measurement).
    Production,
    /// A DCPerf benchmark.
    DcPerf,
    /// A SPEC CPU 2017 rate benchmark.
    Spec2017,
    /// A SPEC CPU 2006 rate benchmark (the paper's selected subset).
    Spec2006,
}

/// A complete workload description: anchor + structural parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadProfile {
    /// Display name (matches the paper's figure labels).
    pub name: &'static str,
    /// Suite membership.
    pub kind: ProfileKind,
    /// Microarchitecture anchor on the reference SKU.
    pub anchor: MicroAnchor,
    /// Instruction working-set footprint, KiB.
    pub icache_kb: f64,
    /// Data working set, MiB (drives LLC/bandwidth sensitivity).
    pub data_mb: f64,
    /// Threads per logical core (Table 1's thread-to-core ratio).
    pub thread_core_ratio: f64,
    /// RPC fan-out per request (Table 1).
    pub rpc_fanout: f64,
    /// Instructions per request (Table 1).
    pub instructions_per_request: f64,
    /// USL contention coefficient σ (serialization).
    pub usl_sigma: f64,
    /// USL coherence coefficient κ (application crosstalk, × N(N−1)).
    pub usl_kappa: f64,
    /// Kernel-contention coefficient (× N⁴): the global-counter
    /// coherence pathology of §5.3, shrunk ~16× by the kernel-6.9
    /// ratelimit patch.
    pub kernel_kappa: f64,
    /// Throughput sensitivity to frequency (1.0 = linear).
    pub freq_sensitivity: f64,
    /// Throughput yield of the second SMT thread (0 = none, 1 = double).
    pub smt_yield: f64,
    /// Figure-12 cycle breakdown (empty for SPEC/production workloads the
    /// figure does not cover).
    pub tax: Vec<TaxSlice>,
    /// Fleet power weight for the production suite score (§4.1 weighs
    /// production workloads by power consumption); 1.0 elsewhere.
    pub fleet_weight: f64,
}

impl WorkloadProfile {
    /// Sum of tax (non-app) slices, % of cycles.
    pub fn tax_percent(&self) -> f64 {
        self.tax
            .iter()
            .filter(|s| !s.is_app)
            .map(|s| s.percent)
            .sum()
    }

    /// Sum of application slices, % of cycles.
    pub fn app_percent(&self) -> f64 {
        self.tax
            .iter()
            .filter(|s| s.is_app)
            .map(|s| s.percent)
            .sum()
    }
}

/// Constructors for every profile in the evaluation, plus suite
/// groupings.
pub mod profiles {
    use super::*;

    fn slice(label: &'static str, percent: f64, is_app: bool) -> TaxSlice {
        TaxSlice {
            label,
            percent,
            is_app,
        }
    }

    // Suite-average power splits for workloads Figure 10 does not cover.
    const PROD_AVG_POWER: PowerBreakdown = PowerBreakdown {
        core: 32.0,
        soc: 26.0,
        dram: 10.0,
        other: 19.0,
    };
    const DCPERF_AVG_POWER: PowerBreakdown = PowerBreakdown {
        core: 39.0,
        soc: 22.0,
        dram: 10.0,
        other: 13.0,
    };

    // ---------------------------------------------------------------
    // Production workloads
    // ---------------------------------------------------------------

    /// "Cache (prod)": the TAO-style read-through caching tier.
    pub fn cache_prod() -> WorkloadProfile {
        WorkloadProfile {
            name: "Cache (prod)",
            kind: ProfileKind::Production,
            anchor: MicroAnchor {
                tmam: Tmam::new(41.0, 6.0, 22.0, 31.0),
                ipc: 1.2,
                mem_bw_gbs: 29.0,
                l1i_mpki: 56.0,
                cpu_util_total: 90.0,
                cpu_util_sys: 30.0,
                freq_ghz: 2.00,
                power: PROD_AVG_POWER,
            },
            icache_kb: 220.0,
            data_mb: 48_000.0,
            thread_core_ratio: 10.0,
            rpc_fanout: 10.0,
            instructions_per_request: 1e3,
            usl_sigma: 0.001,
            usl_kappa: 5.0e-7,
            kernel_kappa: 1.7e-10,
            freq_sensitivity: 0.85,
            smt_yield: 0.35,
            tax: vec![
                slice("(App) KVStore logic", 20.0, true),
                slice("RPC", 20.0, false),
                slice("Compression", 12.0, false),
                slice("Serialization", 12.0, false),
                slice("KVStore", 10.0, false),
                slice("ThreadManager", 8.0, false),
                slice("Memory", 8.0, false),
                slice("Hashing", 4.0, false),
                slice("Others", 6.0, false),
            ],
            fleet_weight: 1.2,
        }
    }

    /// "Ranking (prod)": newsfeed ranking.
    pub fn ranking_prod() -> WorkloadProfile {
        WorkloadProfile {
            name: "Ranking (prod)",
            kind: ProfileKind::Production,
            anchor: MicroAnchor {
                tmam: Tmam::new(29.0, 13.0, 13.0, 44.0),
                ipc: 1.8,
                mem_bw_gbs: 31.0,
                l1i_mpki: 17.0,
                cpu_util_total: 61.0,
                cpu_util_sys: 10.0,
                freq_ghz: 2.10,
                power: PowerBreakdown {
                    core: 31.0,
                    soc: 29.0,
                    dram: 9.0,
                    other: 19.0,
                },
            },
            icache_kb: 300.0,
            data_mb: 8_000.0,
            thread_core_ratio: 10.0,
            rpc_fanout: 10.0,
            instructions_per_request: 1e10,
            usl_sigma: 0.0015,
            usl_kappa: 4.0e-7,
            kernel_kappa: 1.0e-11,
            freq_sensitivity: 0.95,
            smt_yield: 0.30,
            tax: vec![
                slice("(App) Feature Extraction", 25.0, true),
                slice("(App) Ranking", 20.0, true),
                slice("RPC", 15.0, false),
                slice("Compression", 10.0, false),
                slice("Serialization", 8.0, false),
                slice("Memory", 7.0, false),
                slice("ThreadManager", 5.0, false),
                slice("Hashing", 3.0, false),
                slice("Others", 7.0, false),
            ],
            fleet_weight: 1.5,
        }
    }

    /// "IG Web (prod)": Instagram's Django frontend.
    pub fn igweb_prod() -> WorkloadProfile {
        WorkloadProfile {
            name: "IG Web (prod)",
            kind: ProfileKind::Production,
            anchor: MicroAnchor {
                tmam: Tmam::new(48.0, 9.0, 18.0, 25.0),
                ipc: 1.0,
                mem_bw_gbs: 19.0,
                l1i_mpki: 55.0,
                cpu_util_total: 98.0,
                cpu_util_sys: 13.0,
                freq_ghz: 1.92,
                power: PowerBreakdown {
                    core: 33.0,
                    soc: 30.0,
                    dram: 11.0,
                    other: 20.0,
                },
            },
            icache_kb: 1_400.0,
            data_mb: 4_000.0,
            thread_core_ratio: 100.0,
            rpc_fanout: 100.0,
            instructions_per_request: 1e9,
            usl_sigma: 0.0012,
            usl_kappa: 5.0e-7,
            kernel_kappa: 2.0e-11,
            freq_sensitivity: 0.92,
            smt_yield: 0.40,
            tax: Vec::new(),
            fleet_weight: 1.3,
        }
    }

    /// "FB Web (prod)": Facebook's HHVM frontend, "more than half a
    /// million servers".
    pub fn fbweb_prod() -> WorkloadProfile {
        WorkloadProfile {
            name: "FB Web (prod)",
            kind: ProfileKind::Production,
            anchor: MicroAnchor {
                tmam: Tmam::new(39.0, 9.0, 23.0, 29.0),
                ipc: 1.2,
                mem_bw_gbs: 36.0,
                l1i_mpki: 39.0,
                cpu_util_total: 99.0,
                cpu_util_sys: 11.0,
                freq_ghz: 1.90,
                power: PowerBreakdown {
                    core: 34.0,
                    soc: 28.0,
                    dram: 10.0,
                    other: 21.0,
                },
            },
            icache_kb: 1_600.0,
            data_mb: 6_000.0,
            thread_core_ratio: 100.0,
            rpc_fanout: 100.0,
            instructions_per_request: 1e9,
            usl_sigma: 0.0012,
            usl_kappa: 5.0e-7,
            kernel_kappa: 2.0e-11,
            freq_sensitivity: 0.92,
            smt_yield: 0.40,
            tax: vec![
                slice("(App) HHVM JIT", 30.0, true),
                slice("(App) RPC", 8.0, true),
                slice("(App) MySQL", 6.0, true),
                slice("RPC", 12.0, false),
                slice("Compression", 8.0, false),
                slice("Serialization", 7.0, false),
                slice("Memory", 8.0, false),
                slice("ThreadManager", 5.0, false),
                slice("Hashing", 4.0, false),
                slice("Others", 12.0, false),
            ],
            fleet_weight: 2.0,
        }
    }

    /// "Spark (prod)": the data-warehouse tier.
    pub fn spark_prod() -> WorkloadProfile {
        WorkloadProfile {
            name: "Spark (prod)",
            kind: ProfileKind::Production,
            anchor: MicroAnchor {
                tmam: Tmam::new(24.0, 11.0, 2.0, 64.0),
                ipc: 2.6,
                mem_bw_gbs: 36.0,
                l1i_mpki: 7.0,
                cpu_util_total: 70.0,
                cpu_util_sys: 9.0,
                freq_ghz: 1.80,
                power: PROD_AVG_POWER,
            },
            icache_kb: 160.0,
            data_mb: 100_000.0,
            thread_core_ratio: 1.0,
            rpc_fanout: 10.0,
            instructions_per_request: 1e10,
            usl_sigma: 0.0012,
            usl_kappa: 4.0e-7,
            kernel_kappa: 5.0e-11,
            freq_sensitivity: 0.9,
            smt_yield: 0.25,
            tax: vec![
                slice("(App) Spark", 45.0, true),
                slice("RPC", 6.0, false),
                slice("Compression", 12.0, false),
                slice("Serialization", 14.0, false),
                slice("Memory", 8.0, false),
                slice("IO Preparation", 6.0, false),
                slice("ThreadManager", 4.0, false),
                slice("Others", 5.0, false),
            ],
            fleet_weight: 1.0,
        }
    }

    /// Video transcoding production workloads (three quality settings),
    /// present in Figure 10's power comparison.
    pub fn video_prod(setting: u8) -> WorkloadProfile {
        let (name, core, soc, dram, other) = match setting {
            1 => ("Video1 (prod)", 26.0, 26.0, 12.0, 18.0),
            2 => ("Video2 (prod)", 32.0, 22.0, 10.0, 18.0),
            _ => ("Video3 (prod)", 36.0, 19.0, 8.0, 19.0),
        };
        WorkloadProfile {
            name,
            kind: ProfileKind::Production,
            anchor: MicroAnchor {
                tmam: Tmam::new(12.0, 6.0, 30.0, 52.0),
                ipc: 2.2,
                mem_bw_gbs: 22.0,
                l1i_mpki: 5.0,
                cpu_util_total: 97.0,
                cpu_util_sys: 3.0,
                freq_ghz: 1.95,
                power: PowerBreakdown {
                    core,
                    soc,
                    dram,
                    other,
                },
            },
            icache_kb: 90.0,
            data_mb: 400.0,
            thread_core_ratio: 1.0,
            rpc_fanout: 0.0,
            instructions_per_request: 1e6,
            usl_sigma: 0.0002,
            usl_kappa: 1.0e-8,
            kernel_kappa: 1.0e-12,
            freq_sensitivity: 1.0,
            smt_yield: 0.30,
            tax: Vec::new(),
            fleet_weight: 0.8,
        }
    }

    // ---------------------------------------------------------------
    // DCPerf benchmarks
    // ---------------------------------------------------------------

    /// TaoBench (models Cache (prod)).
    pub fn taobench() -> WorkloadProfile {
        WorkloadProfile {
            name: "TaoBench",
            kind: ProfileKind::DcPerf,
            anchor: MicroAnchor {
                tmam: Tmam::new(33.0, 5.0, 31.0, 31.0),
                ipc: 1.1,
                mem_bw_gbs: 17.0,
                l1i_mpki: 54.0,
                cpu_util_total: 86.0,
                cpu_util_sys: 31.0,
                freq_ghz: 2.00,
                power: DCPERF_AVG_POWER,
            },
            icache_kb: 190.0,
            data_mb: 20_000.0,
            thread_core_ratio: 10.0,
            rpc_fanout: 10.0,
            instructions_per_request: 1e3,
            usl_sigma: 0.0005,
            usl_kappa: 5.0e-7,
            kernel_kappa: 1.7e-10,
            freq_sensitivity: 0.85,
            smt_yield: 0.35,
            tax: vec![
                slice("(App) KVStore logic", 22.0, true),
                slice("RPC", 24.0, false),
                slice("Compression", 4.0, false),
                slice("Serialization", 5.0, false),
                slice("KVStore", 14.0, false),
                slice("ThreadManager", 10.0, false),
                slice("Memory", 10.0, false),
                slice("Benchmark Clients", 6.0, false),
                slice("Hashing", 3.0, false),
                slice("Others", 2.0, false),
            ],
            fleet_weight: 1.0,
        }
    }

    /// FeedSim (models Ranking (prod)).
    pub fn feedsim() -> WorkloadProfile {
        WorkloadProfile {
            name: "FeedSim",
            kind: ProfileKind::DcPerf,
            anchor: MicroAnchor {
                tmam: Tmam::new(33.0, 12.0, 7.0, 49.0),
                ipc: 1.8,
                mem_bw_gbs: 30.0,
                l1i_mpki: 14.0,
                cpu_util_total: 64.0,
                cpu_util_sys: 1.0,
                freq_ghz: 2.01,
                power: PowerBreakdown {
                    core: 38.0,
                    soc: 23.0,
                    dram: 10.0,
                    other: 13.0,
                },
            },
            icache_kb: 280.0,
            data_mb: 7_000.0,
            thread_core_ratio: 10.0,
            rpc_fanout: 10.0,
            instructions_per_request: 1e10,
            usl_sigma: 0.0008,
            usl_kappa: 4.0e-7,
            kernel_kappa: 1.0e-11,
            freq_sensitivity: 0.95,
            smt_yield: 0.30,
            tax: vec![
                slice("(App) Feature Extraction", 24.0, true),
                slice("(App) Ranking", 22.0, true),
                slice("RPC", 16.0, false),
                slice("Compression", 9.0, false),
                slice("Serialization", 8.0, false),
                slice("Memory", 6.0, false),
                slice("ThreadManager", 5.0, false),
                slice("Benchmark Clients", 4.0, false),
                slice("Hashing", 2.0, false),
                slice("Others", 4.0, false),
            ],
            fleet_weight: 1.0,
        }
    }

    /// DjangoBench (models IG Web (prod)).
    pub fn djangobench() -> WorkloadProfile {
        WorkloadProfile {
            name: "DjangoBench",
            kind: ProfileKind::DcPerf,
            anchor: MicroAnchor {
                tmam: Tmam::new(46.0, 10.0, 5.0, 39.0),
                ipc: 1.4,
                mem_bw_gbs: 21.0,
                l1i_mpki: 46.0,
                cpu_util_total: 95.0,
                cpu_util_sys: 3.0,
                freq_ghz: 1.90,
                power: PowerBreakdown {
                    core: 40.0,
                    soc: 21.0,
                    dram: 9.0,
                    other: 13.0,
                },
            },
            icache_kb: 1_100.0,
            data_mb: 3_000.0,
            thread_core_ratio: 100.0,
            rpc_fanout: 100.0,
            instructions_per_request: 1e9,
            usl_sigma: 0.0007,
            usl_kappa: 5.0e-7,
            kernel_kappa: 2.0e-11,
            freq_sensitivity: 0.92,
            smt_yield: 0.40,
            tax: Vec::new(),
            fleet_weight: 1.0,
        }
    }

    /// MediaWiki (models FB Web (prod)).
    pub fn mediawiki() -> WorkloadProfile {
        WorkloadProfile {
            name: "Mediawiki",
            kind: ProfileKind::DcPerf,
            anchor: MicroAnchor {
                tmam: Tmam::new(36.0, 10.0, 18.0, 36.0),
                ipc: 1.4,
                mem_bw_gbs: 29.0,
                l1i_mpki: 31.0,
                cpu_util_total: 95.0,
                cpu_util_sys: 10.0,
                freq_ghz: 1.91,
                power: PowerBreakdown {
                    core: 40.0,
                    soc: 22.0,
                    dram: 10.0,
                    other: 13.0,
                },
            },
            icache_kb: 1_300.0,
            data_mb: 5_000.0,
            thread_core_ratio: 100.0,
            rpc_fanout: 100.0,
            instructions_per_request: 1e9,
            usl_sigma: 0.0007,
            usl_kappa: 5.0e-7,
            kernel_kappa: 2.0e-11,
            freq_sensitivity: 0.92,
            smt_yield: 0.40,
            tax: vec![
                slice("(App) HHVM JIT", 32.0, true),
                slice("(App) MySQL", 8.0, true),
                slice("RPC", 12.0, false),
                slice("Compression", 7.0, false),
                slice("Serialization", 6.0, false),
                slice("Memory", 7.0, false),
                slice("ThreadManager", 5.0, false),
                slice("Benchmark Clients", 5.0, false),
                slice("Hashing", 3.0, false),
                slice("Others", 15.0, false),
            ],
            fleet_weight: 1.0,
        }
    }

    /// SparkBench (models Spark (prod)).
    pub fn sparkbench() -> WorkloadProfile {
        WorkloadProfile {
            name: "SparkBench",
            kind: ProfileKind::DcPerf,
            anchor: MicroAnchor {
                tmam: Tmam::new(21.0, 8.0, 3.0, 68.0),
                ipc: 2.6,
                mem_bw_gbs: 33.0,
                l1i_mpki: 12.0,
                cpu_util_total: 73.0,
                cpu_util_sys: 17.0,
                freq_ghz: 1.80,
                power: DCPERF_AVG_POWER,
            },
            icache_kb: 180.0,
            data_mb: 100_000.0,
            thread_core_ratio: 1.0,
            rpc_fanout: 10.0,
            instructions_per_request: 1e10,
            usl_sigma: 0.0007,
            usl_kappa: 4.0e-7,
            kernel_kappa: 5.0e-11,
            freq_sensitivity: 0.9,
            smt_yield: 0.25,
            tax: vec![
                slice("(App) Spark", 48.0, true),
                slice("RPC", 5.0, false),
                slice("Compression", 11.0, false),
                slice("Serialization", 13.0, false),
                slice("Memory", 8.0, false),
                slice("IO Preparation", 7.0, false),
                slice("ThreadManager", 4.0, false),
                slice("Others", 4.0, false),
            ],
            fleet_weight: 1.0,
        }
    }

    /// VideoTranscodeBench at one of the three quality settings of
    /// Figure 10.
    pub fn videobench(setting: u8) -> WorkloadProfile {
        let (name, core, soc, dram, other) = match setting {
            1 => ("VideoBench1", 31.0, 26.0, 11.0, 13.0),
            2 => ("VideoBench2", 40.0, 22.0, 9.0, 13.0),
            _ => ("VideoBench3", 42.0, 19.0, 8.0, 14.0),
        };
        WorkloadProfile {
            name,
            kind: ProfileKind::DcPerf,
            anchor: MicroAnchor {
                tmam: Tmam::new(11.0, 6.0, 29.0, 54.0),
                ipc: 2.3,
                mem_bw_gbs: 20.0,
                l1i_mpki: 4.0,
                cpu_util_total: 98.0,
                cpu_util_sys: 2.0,
                freq_ghz: 1.95,
                power: PowerBreakdown {
                    core,
                    soc,
                    dram,
                    other,
                },
            },
            icache_kb: 80.0,
            data_mb: 350.0,
            thread_core_ratio: 1.0,
            rpc_fanout: 0.0,
            instructions_per_request: 1e6,
            usl_sigma: 0.0002,
            usl_kappa: 1.0e-8,
            kernel_kappa: 1.0e-12,
            freq_sensitivity: 1.0,
            smt_yield: 0.30,
            tax: Vec::new(),
            fleet_weight: 1.0,
        }
    }

    // ---------------------------------------------------------------
    // SPEC CPU 2017 (the paper's Figure 4–11 subset)
    // ---------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn spec17(
        name: &'static str,
        tmam: Tmam,
        ipc: f64,
        mem_bw: f64,
        l1i_mpki: f64,
        freq: f64,
        power_total_hint: f64,
        data_mb: f64,
    ) -> WorkloadProfile {
        // SPEC's split skews toward core power; scale a generic split to
        // the figure's per-benchmark total.
        let scale = power_total_hint / 78.0;
        WorkloadProfile {
            name,
            kind: ProfileKind::Spec2017,
            anchor: MicroAnchor {
                tmam,
                ipc,
                mem_bw_gbs: mem_bw,
                l1i_mpki,
                cpu_util_total: 100.0,
                cpu_util_sys: 0.5,
                freq_ghz: freq,
                power: PowerBreakdown {
                    core: 34.0 * scale,
                    soc: 20.0 * scale,
                    dram: 7.0 * scale,
                    other: 17.0 * scale,
                },
            },
            icache_kb: 24.0,
            data_mb,
            thread_core_ratio: 1.0,
            rpc_fanout: 0.0,
            instructions_per_request: 1e12,
            usl_sigma: 0.00005,
            usl_kappa: 5.0e-9,
            kernel_kappa: 0.0,
            freq_sensitivity: 1.0,
            smt_yield: 0.28,
            tax: Vec::new(),
            fleet_weight: 1.0,
        }
    }

    /// The SPEC 2017 subset used in Figures 4–11.
    pub fn spec2017_suite() -> Vec<WorkloadProfile> {
        vec![
            spec17(
                "500.perlbench",
                Tmam::new(29.0, 3.0, 19.0, 49.0),
                2.0,
                16.0,
                3.0,
                2.07,
                77.0,
                80.0,
            ),
            spec17(
                "502.gcc",
                Tmam::new(29.0, 9.0, 16.0, 47.0),
                1.6,
                43.0,
                9.0,
                2.08,
                80.0,
                900.0,
            ),
            spec17(
                "505.mcf",
                Tmam::new(13.0, 11.0, 59.0, 17.0),
                0.6,
                68.0,
                2.0,
                2.00,
                82.0,
                3_300.0,
            ),
            spec17(
                "520.omnetpp",
                Tmam::new(15.0, 7.0, 56.0, 22.0),
                0.8,
                50.0,
                4.0,
                2.17,
                80.0,
                1_700.0,
            ),
            spec17(
                "523.xalancbmk",
                Tmam::new(21.0, 2.0, 43.0, 33.0),
                1.5,
                18.0,
                4.0,
                2.16,
                80.0,
                400.0,
            ),
            spec17(
                "525.x264",
                Tmam::new(10.0, 5.0, 25.0, 60.0),
                3.3,
                5.0,
                4.0,
                2.14,
                75.0,
                100.0,
            ),
            spec17(
                "531.deepsjeng",
                Tmam::new(28.0, 11.0, 9.0, 51.0),
                2.1,
                8.0,
                1.0,
                2.13,
                77.0,
                600.0,
            ),
            spec17(
                "541.leela",
                Tmam::new(22.0, 20.0, 10.0, 48.0),
                1.9,
                3.0,
                1.0,
                2.15,
                74.0,
                30.0,
            ),
            spec17(
                "548.exchange2",
                Tmam::new(23.0, 7.0, 3.0, 67.0),
                2.5,
                0.3,
                2.0,
                2.08,
                71.0,
                1.0,
            ),
            spec17(
                "557.xz",
                Tmam::new(14.0, 17.0, 23.0, 45.0),
                1.8,
                21.0,
                2.0,
                2.19,
                80.0,
                1_800.0,
            ),
        ]
    }

    /// The SPEC 2006 subset the paper selected "as better representing
    /// Meta's workloads" — modeled as 2006-era counterparts with smaller
    /// working sets (so less upside from big caches and bandwidth).
    pub fn spec2006_suite() -> Vec<WorkloadProfile> {
        spec2017_suite()
            .into_iter()
            .map(|mut p| {
                p.kind = ProfileKind::Spec2006;
                p.data_mb = (p.data_mb * 0.35).max(1.0);
                // 2006 binaries stress memory less: shift some backend
                // stall into retiring at the anchor.
                let shift = p.anchor.tmam.backend * 0.25;
                p.anchor.tmam = Tmam::new(
                    p.anchor.tmam.frontend,
                    p.anchor.tmam.bad_spec,
                    p.anchor.tmam.backend - shift,
                    p.anchor.tmam.retiring + shift,
                )
                .normalized();
                p.anchor.ipc *= 1.05;
                p
            })
            .collect()
    }

    /// The production suite (Figure 2's "Production" bar), with the video
    /// workloads that only appear in the power study excluded from the
    /// performance score, as in the paper's §4.1 pairing.
    pub fn production_suite() -> Vec<WorkloadProfile> {
        vec![
            cache_prod(),
            ranking_prod(),
            igweb_prod(),
            fbweb_prod(),
            spark_prod(),
        ]
    }

    /// The DCPerf suite used for the Figure 2 score.
    pub fn dcperf_suite() -> Vec<WorkloadProfile> {
        vec![
            taobench(),
            feedsim(),
            djangobench(),
            mediawiki(),
            sparkbench(),
        ]
    }

    /// `(DCPerf benchmark, production counterpart)` pairs, as in
    /// Figures 4–12's column pairing.
    pub fn dcperf_production_pairs() -> Vec<(WorkloadProfile, WorkloadProfile)> {
        vec![
            (taobench(), cache_prod()),
            (feedsim(), ranking_prod()),
            (djangobench(), igweb_prod()),
            (mediawiki(), fbweb_prod()),
            (sparkbench(), spark_prod()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::profiles::*;
    use super::*;

    fn all_profiles() -> Vec<WorkloadProfile> {
        let mut v = production_suite();
        v.extend(dcperf_suite());
        v.extend(spec2017_suite());
        v.extend(spec2006_suite());
        v.push(video_prod(1));
        v.push(video_prod(2));
        v.push(video_prod(3));
        v.push(videobench(1));
        v.push(videobench(2));
        v.push(videobench(3));
        v
    }

    #[test]
    fn tmam_sums_to_100() {
        for p in all_profiles() {
            let t = p.anchor.tmam;
            let sum = t.frontend + t.bad_spec + t.backend + t.retiring;
            assert!((98.0..=102.0).contains(&sum), "{}: {sum}", p.name);
        }
    }

    #[test]
    #[should_panic(expected = "sum to ~100")]
    fn tmam_rejects_bad_split() {
        let _ = Tmam::new(50.0, 50.0, 50.0, 50.0);
    }

    #[test]
    fn tmam_normalized_sums_exactly() {
        let t = Tmam::new(40.0, 10.0, 25.0, 26.0).normalized();
        let sum = t.frontend + t.bad_spec + t.backend + t.retiring;
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn anchors_match_figure6_ipc() {
        assert_eq!(cache_prod().anchor.ipc, 1.2);
        assert_eq!(taobench().anchor.ipc, 1.1);
        assert_eq!(igweb_prod().anchor.ipc, 1.0);
        assert_eq!(djangobench().anchor.ipc, 1.4);
        assert_eq!(spark_prod().anchor.ipc, 2.6);
    }

    #[test]
    fn anchors_match_figure8_mpki() {
        assert_eq!(cache_prod().anchor.l1i_mpki, 56.0);
        assert_eq!(taobench().anchor.l1i_mpki, 54.0);
        assert_eq!(mediawiki().anchor.l1i_mpki, 31.0);
        // SPEC L1-I misses are an order of magnitude lower (1–9).
        for p in spec2017_suite() {
            assert!(p.anchor.l1i_mpki <= 9.0, "{}", p.name);
        }
    }

    #[test]
    fn taobench_under_represents_compression_as_in_figure12() {
        // §4.5: "TaoBench spends significantly less time on compression
        // and serialization compared to the production workload".
        let tao: f64 = taobench()
            .tax
            .iter()
            .filter(|s| s.label == "Compression" || s.label == "Serialization")
            .map(|s| s.percent)
            .sum();
        let cache: f64 = cache_prod()
            .tax
            .iter()
            .filter(|s| s.label == "Compression" || s.label == "Serialization")
            .map(|s| s.percent)
            .sum();
        assert!(tao < cache / 2.0, "tao={tao} cache={cache}");
    }

    #[test]
    fn tax_slices_sum_to_100_where_present() {
        for p in all_profiles() {
            if p.tax.is_empty() {
                continue;
            }
            let sum = p.app_percent() + p.tax_percent();
            assert!((99.0..=101.0).contains(&sum), "{}: {sum}", p.name);
        }
    }

    #[test]
    fn dcperf_tax_is_substantial() {
        // The datacenter tax is 18-82% of cycles; every profiled DCPerf
        // benchmark must model a substantial share.
        for (bench, _) in dcperf_production_pairs() {
            if bench.tax.is_empty() {
                continue;
            }
            let tax = bench.tax_percent();
            assert!((18.0..=82.0).contains(&tax), "{}: {tax}%", bench.name);
        }
    }

    #[test]
    fn spec_profiles_have_trivial_kernel_time() {
        for p in spec2017_suite() {
            assert!(p.anchor.cpu_util_sys <= 1.0, "{}", p.name);
            assert!(p.anchor.cpu_util_total >= 98.0, "{}", p.name);
        }
    }

    #[test]
    fn spec2006_differs_from_2017_as_designed() {
        let s17 = spec2017_suite();
        let s06 = spec2006_suite();
        assert_eq!(s17.len(), s06.len());
        for (a, b) in s17.iter().zip(&s06) {
            assert!(b.data_mb < a.data_mb || a.data_mb <= 1.0, "{}", a.name);
            assert!(b.anchor.tmam.backend <= a.anchor.tmam.backend + 1e-9);
        }
    }

    #[test]
    fn suite_groupings_are_consistent() {
        assert_eq!(production_suite().len(), 5);
        assert_eq!(dcperf_suite().len(), 5);
        assert_eq!(spec2017_suite().len(), 10);
        assert_eq!(dcperf_production_pairs().len(), 5);
        for p in production_suite() {
            assert_eq!(p.kind, ProfileKind::Production);
        }
        for p in dcperf_suite() {
            assert_eq!(p.kind, ProfileKind::DcPerf);
        }
    }

    #[test]
    fn power_totals_match_figure10_averages() {
        let prod_avg: f64 = production_suite()
            .iter()
            .map(|p| p.anchor.power.total())
            .sum::<f64>()
            / 5.0;
        let dcperf_avg: f64 = dcperf_suite()
            .iter()
            .map(|p| p.anchor.power.total())
            .sum::<f64>()
            / 5.0;
        let spec_avg: f64 = spec2017_suite()
            .iter()
            .map(|p| p.anchor.power.total())
            .sum::<f64>()
            / 10.0;
        // Figure 10: prod 87%, DCPerf 84%, SPEC 78%.
        assert!((prod_avg - 87.0).abs() < 4.0, "prod {prod_avg}");
        assert!((dcperf_avg - 84.0).abs() < 4.0, "dcperf {dcperf_avg}");
        assert!((spec_avg - 78.0).abs() < 3.0, "spec {spec_avg}");
        assert!(prod_avg > dcperf_avg && dcperf_avg > spec_avg);
    }
}
