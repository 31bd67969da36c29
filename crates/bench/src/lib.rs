//! Figure/table regeneration library for DCPerf-RS.
//!
//! Every table and figure of the paper's evaluation has a `render_*`
//! function here returning the printable series; the `figures` binary is a
//! thin CLI over them, and integration tests assert their qualitative
//! shape. Every figure, including Figure 13's CloudSuite comparison, comes
//! from the `dcperf-platform` models; the runnable workloads are measured
//! by `dcperf run` and `perfbench`, not here.

#![forbid(unsafe_code)]

pub mod figures;

pub use figures::{render, render_all, FIGURE_IDS};
