//! Figure/table regeneration library for DCPerf-RS.
//!
//! Every table and figure of the paper's evaluation has a `render_*`
//! function here returning the printable series; the `figures` binary is a
//! thin CLI over them, and integration tests assert their qualitative
//! shape. Model-driven figures (2–12, 14–16) come from `dcperf-platform`;
//! the runnable-workload figures (13, and the measured columns of the
//! microbenchmark tables) execute the actual `dcperf-workloads` code.

#![forbid(unsafe_code)]

pub mod figures;
pub mod host;

pub use figures::{render, render_all, FIGURE_IDS};
