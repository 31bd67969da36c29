//! Fixture stand-in for `perfbench`, a workspace of its own: read only as
//! a source of references, so its own unreferenced item never fires.

pub fn run(t: &clean::Telemetry, stop: &std::sync::atomic::AtomicU64) {
    deadpub::used_by_perfbench();
    clean::exercise(t, stop);
}
