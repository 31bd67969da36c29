//! Fixture stand-in for `perfbench`, a workspace of its own: read only as
//! a source of references and writes, so its own unreferenced item never
//! fires.

pub fn run(t: &clean::Telemetry, stop: &std::sync::atomic::AtomicU64) {
    deadpub::used_by_perfbench();
    clean::exercise(t, stop);
    let _ = deadfield::Knobs { tag: 9, ..deadfield::Knobs::default() };
}
