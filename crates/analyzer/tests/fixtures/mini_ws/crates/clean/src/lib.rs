//! Fixture crate that exercises every rule's *happy* path: the whole
//! file must stay silent.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Telemetry;
impl Telemetry {
    pub fn counter(&self, _name: &str) {}
    pub fn with_telemetry(&self, _prefix: &str) {}
}

/// Declared feature, so the gate is legitimate.
#[cfg(feature = "fault-injection")]
pub fn inject() {}

pub fn justified(stop: &AtomicU64) -> u64 {
    // ordering: advisory flag, stale reads are harmless
    stop.load(Ordering::Relaxed)
}

pub fn suppressed(x: Option<u8>) -> u8 {
    // analyzer: allow(atomics-order) — exercising a used allow on the next line
    AtomicU64::new(u64::from(x.unwrap_or(0))).load(Ordering::SeqCst) as u8
}

pub fn record(t: &Telemetry) {
    t.counter("app.good");
    t.with_telemetry("app.rpc");
    let scoped = format!("{}.{}", "app.rpc", "requests");
    t.counter(&scoped);
    let worker_template = "app.worker";
    t.counter(&format!("{worker_template}.7"));
}

/// Names every pub item above outside its definition, so `dead-pub`
/// stays silent; `perfbench` names this one.
pub fn exercise(t: &Telemetry, stop: &AtomicU64) -> u64 {
    record(t);
    #[cfg(feature = "fault-injection")]
    inject();
    deadpub::used_by_other_crate();
    justified(stop) + u64::from(suppressed(None))
}
