//! Phase-scoped timing spans.
//!
//! Benchmark runs move through a fixed lifecycle — setup, measure,
//! teardown (a benchmark's own warm-up runs inside its measure phase) —
//! and a report is only interpretable if it says how
//! long each phase took (a 2-second measure window after a 10-minute
//! setup is a very different experiment than the reverse). A [`PhaseSpan`]
//! is an RAII guard: construct it when the phase starts, and its `Drop`
//! records the elapsed wall time under `"<benchmark>/<phase>"`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A benchmark lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Building datasets, starting servers, populating caches.
    Setup,
    /// The measured interval that produces the reported metrics.
    Measure,
    /// Draining and shutting down.
    Teardown,
}

impl Phase {
    /// Stable lowercase name used in span keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Measure => "measure",
            Phase::Teardown => "teardown",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated timing for one `"<benchmark>/<phase>"` key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub total_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        let phases = [Phase::Setup, Phase::Measure, Phase::Teardown];
        assert_eq!(phases.map(Phase::name), ["setup", "measure", "teardown"]);
    }

    #[test]
    fn phase_serializes_as_variant_name() {
        let json = serde_json::to_string(&Phase::Measure).unwrap();
        assert_eq!(json, "\"Measure\"");
        let back: Phase = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Phase::Measure);
    }
}
