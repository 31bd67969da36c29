//! Service-level objectives.
//!
//! DCPerf enforces "the same service level objectives (SLOs) used in
//! production, such as maximizing throughput while maintaining the
//! 95th-percentile latency under 500ms for our newsfeed benchmark" (§2.2).

use dcperf_util::Histogram;
use serde::{Deserialize, Serialize};

/// A latency/error-rate SLO a benchmark must satisfy while measuring peak
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Maximum 95th-percentile latency in milliseconds, if constrained.
    pub p95_ms: Option<f64>,
    /// Maximum 99th-percentile latency in milliseconds, if constrained.
    pub p99_ms: Option<f64>,
    /// Maximum fraction of failed requests, if constrained.
    pub max_error_rate: Option<f64>,
}

impl SloSpec {
    /// An SLO bounding only P95 latency (FeedSim's form).
    pub fn p95_under_ms(ms: f64) -> Self {
        Self {
            p95_ms: Some(ms),
            p99_ms: None,
            max_error_rate: None,
        }
    }

    /// Adds an error-rate bound (builder style).
    pub fn with_max_error_rate(mut self, rate: f64) -> Self {
        self.max_error_rate = Some(rate);
        self
    }

    /// Evaluates the SLO against a latency histogram (nanosecond samples)
    /// and an observed error rate.
    pub fn evaluate(&self, latency_ns: &Histogram, error_rate: f64) -> SloOutcome {
        let mut violations = Vec::new();
        let to_ms = |ns: u64| ns as f64 / 1e6;
        if let Some(limit) = self.p95_ms {
            let got = to_ms(latency_ns.p95());
            if got > limit {
                violations.push(format!("p95 {got:.2}ms > {limit:.2}ms"));
            }
        }
        if let Some(limit) = self.p99_ms {
            let got = to_ms(latency_ns.p99());
            if got > limit {
                violations.push(format!("p99 {got:.2}ms > {limit:.2}ms"));
            }
        }
        if let Some(limit) = self.max_error_rate {
            if error_rate > limit {
                violations.push(format!("error rate {error_rate:.4} > {limit:.4}"));
            }
        }
        if violations.is_empty() {
            SloOutcome::Met
        } else {
            SloOutcome::Violated(violations)
        }
    }
}

impl std::fmt::Display for SloSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if let Some(ms) = self.p95_ms {
            parts.push(format!("p95<={ms}ms"));
        }
        if let Some(ms) = self.p99_ms {
            parts.push(format!("p99<={ms}ms"));
        }
        if let Some(r) = self.max_error_rate {
            parts.push(format!("errors<={r}"));
        }
        if parts.is_empty() {
            f.write_str("unconstrained")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

/// The result of evaluating an [`SloSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloOutcome {
    /// All constraints satisfied.
    Met,
    /// One or more constraints violated, with descriptions.
    Violated(Vec<String>),
}

impl SloOutcome {
    /// Whether the SLO was met.
    pub fn is_met(&self) -> bool {
        matches!(self, SloOutcome::Met)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNCONSTRAINED: SloSpec = SloSpec {
        p95_ms: None,
        p99_ms: None,
        max_error_rate: None,
    };

    fn hist_with_p95_ms(ms: u64) -> Histogram {
        let mut h = Histogram::new();
        // 94 fast samples and 6 at the target puts the p95 rank in the
        // slow bucket, so p95 ≈ `ms`.
        for _ in 0..94 {
            h.record(1_000_000); // 1 ms
        }
        for _ in 0..6 {
            h.record(ms * 1_000_000);
        }
        h
    }

    #[test]
    fn unconstrained_always_met() {
        let slo = UNCONSTRAINED;
        let h = hist_with_p95_ms(10_000);
        assert!(slo.evaluate(&h, 1.0).is_met());
    }

    #[test]
    fn p95_violation_detected() {
        let slo = SloSpec::p95_under_ms(500.0);
        let ok = hist_with_p95_ms(100);
        let bad = hist_with_p95_ms(900);
        assert!(slo.evaluate(&ok, 0.0).is_met());
        let outcome = slo.evaluate(&bad, 0.0);
        assert!(!outcome.is_met());
        if let SloOutcome::Violated(v) = outcome {
            assert!(v[0].contains("p95"));
        }
    }

    #[test]
    fn error_rate_violation_detected() {
        let slo = UNCONSTRAINED.with_max_error_rate(0.01);
        let h = hist_with_p95_ms(1);
        assert!(slo.evaluate(&h, 0.005).is_met());
        assert!(!slo.evaluate(&h, 0.02).is_met());
    }

    #[test]
    fn multiple_violations_all_reported() {
        let slo = SloSpec {
            p99_ms: Some(1.0),
            ..SloSpec::p95_under_ms(1.0).with_max_error_rate(0.0)
        };
        let h = hist_with_p95_ms(1000);
        match slo.evaluate(&h, 0.5) {
            SloOutcome::Violated(v) => assert_eq!(v.len(), 3, "{v:?}"),
            SloOutcome::Met => panic!("expected violations"),
        }
    }

    #[test]
    fn display_summarizes_constraints() {
        let slo = SloSpec::p95_under_ms(500.0).with_max_error_rate(0.01);
        let s = slo.to_string();
        assert!(s.contains("p95<=500ms"));
        assert!(s.contains("errors<=0.01"));
        assert_eq!(UNCONSTRAINED.to_string(), "unconstrained");
    }
}
