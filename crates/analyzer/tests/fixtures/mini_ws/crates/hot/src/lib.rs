//! Fixture hot-path crate root. Seeds one violation per per-file rule
//! family that applies to hot crates, plus suppression misuse, plus a
//! test region that must stay exempt.

#![forbid(unsafe_code)]

pub mod det;

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Telemetry;
impl Telemetry {
    pub fn counter(&self, _name: &str) {}
}

fn spin(stop: &AtomicU64) -> u64 {
    stop.load(Ordering::SeqCst) // line 17: atomics-order, no justification
}

pub fn record(t: &Telemetry) {
    t.counter("app.mystery.total"); // line 21: metrics-schema, undeclared
}

fn brittle(x: Option<u8>) -> u8 {
    x.unwrap() // line 25: panic-path in a hot crate
}

// analyzer: allow(panic-path) — nothing on the next line panics, so this is stale
fn calm() {}

// analyzer: allow(panic-path)
fn missing_reason() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_is_exempt() {
        let stop = AtomicU64::new(1);
        assert_eq!(stop.load(Ordering::SeqCst), 1);
        assert_eq!(brittle(Some(7)), 7);
        let x: Option<u8> = Some(1);
        assert_eq!(x.unwrap(), 1);
    }
}
