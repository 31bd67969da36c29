//! Determinism and oracle tests at small sizes.

use dcperf_loadgen::Service;
use dcperf_perfbench::feed_rank::FeedRank;
use dcperf_perfbench::harness::{self, Workload};
use dcperf_perfbench::kv_tcp::KvTcp;
use dcperf_perfbench::tao_mget::TaoMget;
use dcperf_perfbench::trace::Tracer;
use dcperf_perfbench::{Counters, Plan, WorkloadKind};
use std::sync::Arc;
use std::time::Instant;

fn run(kind: WorkloadKind, seed: u64, trace: bool) -> harness::Outcome {
    let out = harness::run(&Plan::small(kind, seed), trace, Instant::now()).expect("run");
    assert!(out.correct, "{} seed {seed}: {:?}", kind.name(), out.notes);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    out
}

#[test]
fn same_seed_repeats_every_count() {
    for kind in WorkloadKind::ALL {
        for trace in [false, true] {
            let a = run(kind, 7, trace);
            let b = run(kind, 7, trace);
            // Write coalescing depends on thread timing; everything else repeats.
            let counts = |c: Counters| Counters {
                flushes: 0,
                flushed_responses: 0,
                ..c
            };
            assert_eq!(
                counts(a.counters),
                counts(b.counters),
                "{} trace={trace}",
                kind.name()
            );
            assert_eq!(
                a.response_bytes,
                b.response_bytes,
                "{} trace={trace}",
                kind.name()
            );
            assert_eq!(a.attempted, b.attempted);
            assert!(a.counters.hits > 0, "{}: no cache hits", kind.name());
        }
    }
}

#[test]
fn tao_mget_misses_fill_and_evict() {
    let c = run(WorkloadKind::TaoMget, 3, false).counters;
    assert!(c.misses > 0 && c.evictions > 0, "{c:?}");
    // Every miss runs the loader at most once (duplicates in a burst share it).
    assert!(c.fills <= c.misses && c.fills > 0, "{c:?}");
}

#[test]
fn different_seeds_give_different_counts() {
    for kind in WorkloadKind::ALL {
        let a = run(kind, 1, false);
        let b = run(kind, 2, false);
        assert!(
            a.counters != b.counters || a.response_bytes != b.response_bytes,
            "{}: seeds 1 and 2 gave identical runs",
            kind.name()
        );
    }
}

fn tracer() -> Arc<Tracer> {
    Arc::new(Tracer::new())
}

#[test]
fn key_streams_differ_by_seed_and_never_replay_across_phases() {
    let a = TaoMget::build(1, false, tracer()).unwrap();
    let b = TaoMget::build(2, false, tracer()).unwrap();
    let stream = |w: &TaoMget, phase| (0..256).map(|seq| w.rank(phase, seq)).collect::<Vec<_>>();
    assert_ne!(
        stream(&a, 1),
        stream(&b, 1),
        "seed must change the key stream"
    );
    assert_ne!(
        stream(&a, 0),
        stream(&a, 1),
        "warm-up and window 1 must not share keys"
    );
    assert_ne!(
        stream(&a, 1),
        stream(&a, 2),
        "windows must not replay each other"
    );
    assert_eq!(stream(&a, 1), stream(&a, 1));

    let f1 = FeedRank::build(1, false, tracer()).unwrap();
    let f2 = FeedRank::build(2, false, tracer()).unwrap();
    assert_ne!(f1.candidates(1, 0), f2.candidates(1, 0));
    assert_ne!(f1.candidates(1, 0), f1.candidates(2, 0));
}

fn corruptions(value: &[u8]) -> Vec<Vec<u8>> {
    let mut flipped = value.to_vec();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let mut longer = value.to_vec();
    longer.push(b'x');
    vec![
        flipped,
        value[..value.len() - 1].to_vec(),
        longer,
        Vec::new(),
    ]
}

#[test]
fn kv_oracles_reject_corrupted_values() {
    let tao = TaoMget::build(5, false, tracer()).unwrap();
    let kv = KvTcp::build(5, false, tracer()).unwrap();
    for rank in [0, 1, 17, 999] {
        let v = tao.expected_value(rank);
        assert!(tao.check(rank, &v));
        assert!(
            !tao.check(rank + 1, &v),
            "a neighbour's value must not pass"
        );
        for bad in corruptions(&v) {
            assert!(!tao.check(rank, &bad));
        }
        let v = kv.expected_value(rank);
        assert!(kv.check(rank, &v));
        for bad in corruptions(&v) {
            assert!(!kv.check(rank, &bad));
        }
    }
    // The live path passes its own oracle.
    kv.set_phase(9);
    assert!(kv
        .call_many(&[(0, 0), (1, 1), (0, 2)])
        .iter()
        .all(Result::is_ok));
    tao.set_phase(9);
    assert!(tao
        .call_many(&[(0, 0), (1, 1), (0, 2)])
        .iter()
        .all(Result::is_ok));
}

#[test]
fn feed_rank_oracle_rejects_corrupted_responses() {
    let f = FeedRank::build(5, false, tracer()).unwrap();
    let (phase, seq) = (3, 11);
    let candidates = f.candidates(phase, seq);
    let top = f.reference_top(&candidates);
    let response = f.serve(phase, seq, &candidates).unwrap();
    assert!(f.check(&response, phase, seq, &top));
    // Any flipped byte breaks the MAC or the payload.
    for pos in [0, response.len() / 2, response.len() - 1] {
        let mut bad = response.clone();
        bad[pos] ^= 0x80;
        assert!(!f.check(&bad, phase, seq, &top), "flip at {pos}");
    }
    // A response for another request (other nonce) fails.
    assert!(!f.check(&response, phase, seq + 1, &top));
    // A wrong ranking fails.
    let mut wrong = top.clone();
    wrong.swap(0, 1);
    if wrong != top {
        assert!(!f.check(&response, phase, seq, &wrong));
    }
    assert!(!f.check(&response, phase, seq, &top[..top.len() - 1]));
    assert!(!f.check(&[], phase, seq, &top));
    // The live path passes its own oracle.
    f.set_phase(4);
    assert!(f.call(0, 0).is_ok());
}
