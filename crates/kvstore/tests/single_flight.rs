//! Concurrency tests for the single-flight fill path: one loader per cold
//! key no matter how many threads miss it simultaneously, and failure
//! outcomes that release waiters without poisoning the key.

use dcperf_kvstore::{Cache, CacheConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const THREADS: usize = 8;

fn cache() -> Arc<Cache> {
    Arc::new(Cache::new(
        CacheConfig::with_capacity_bytes(1 << 20).with_shards(4),
    ))
}

#[test]
fn cold_key_loader_runs_exactly_once_across_threads() {
    let c = cache();
    let loads = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = Arc::clone(&c);
            let loads = Arc::clone(&loads);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                c.get_or_load(b"cold", |_| {
                    loads.fetch_add(1, Ordering::SeqCst);
                    // Hold the fill open long enough that the other
                    // threads reach the miss path and park behind it.
                    std::thread::sleep(Duration::from_millis(30));
                    Some(b"filled".to_vec())
                })
            })
        })
        .collect();
    for h in handles {
        let got = h.join().expect("thread");
        assert_eq!(
            got.as_deref(),
            Some(&b"filled"[..]),
            "all callers same value"
        );
    }
    assert_eq!(
        loads.load(Ordering::SeqCst),
        1,
        "single-flight must run the loader exactly once"
    );
    let stats = c.stats();
    assert_eq!(stats.singleflight_fills(), 1);
    assert!(
        stats.singleflight_fills() + stats.singleflight_waits() <= stats.misses(),
        "leads and waits never exceed misses"
    );
    assert!(
        stats.singleflight_waits() >= 1,
        "some threads must have parked"
    );
}

#[test]
fn many_cold_keys_each_fill_once() {
    let c = cache();
    let loads = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    const KEYS: u64 = 64;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = Arc::clone(&c);
            let loads = Arc::clone(&loads);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Each thread walks the key space from a different start,
                // so every key sees racing threads at some point.
                for i in 0..KEYS {
                    let key = ((i + t as u64 * 7) % KEYS).to_le_bytes();
                    let got = c.get_or_load(&key, |k| {
                        loads.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        Some(k.to_vec())
                    });
                    assert_eq!(got.as_deref(), Some(&key[..]));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    assert_eq!(
        loads.load(Ordering::SeqCst),
        KEYS,
        "each cold key must be loaded exactly once"
    );
}

#[test]
fn failing_loader_releases_waiters_without_poisoning() {
    let c = cache();
    let loads = Arc::new(AtomicU64::new(0));
    let nones = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = Arc::clone(&c);
            let loads = Arc::clone(&loads);
            let nones = Arc::clone(&nones);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let got = c.get_or_load(b"absent", |_| {
                    loads.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    None
                });
                if got.is_none() {
                    nones.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    assert_eq!(
        nones.load(Ordering::SeqCst),
        THREADS as u64,
        "all observe the failure"
    );
    let racing_loads = loads.load(Ordering::SeqCst);
    assert!(
        racing_loads < THREADS as u64,
        "waiters must not retry-stampede ({racing_loads} loads)"
    );
    assert_eq!(
        c.stats().load_failures(),
        racing_loads,
        "leader-only failures"
    );
    // The key is not poisoned: the next miss runs a fresh loader.
    let got = c.get_or_load(b"absent", |_| Some(vec![1]));
    assert_eq!(got.as_deref(), Some(&[1u8][..]));
}

#[test]
fn panicking_loader_releases_waiters_and_unpoisons_key() {
    let c = cache();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = Arc::clone(&c);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                if t == 0 {
                    // The leader candidate panics mid-fill; the FillGuard
                    // must publish Failed on unwind.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        c.get_or_load(b"boom", |_| {
                            std::thread::sleep(Duration::from_millis(30));
                            panic!("loader blew up");
                        })
                    }));
                    assert!(result.is_err(), "the panic must propagate to the caller");
                    None
                } else {
                    std::thread::sleep(Duration::from_millis(5));
                    c.get_or_load(b"boom", |_| {
                        // If this thread became the leader instead (the
                        // race is timing-dependent), fill normally.
                        Some(b"recovered".to_vec())
                    })
                }
            })
        })
        .collect();
    for h in handles {
        let got = h.join().expect("non-leader threads must not panic");
        if let Some(v) = got {
            assert_eq!(&v[..], b"recovered");
        }
    }
    // However the race resolved, the key works afterwards.
    let got = c.get_or_load(b"boom", |_| Some(b"recovered".to_vec()));
    assert_eq!(got.as_deref(), Some(&b"recovered"[..]));
}

#[test]
fn disabling_single_flight_restores_thundering_herd() {
    let c = Arc::new(Cache::new(
        CacheConfig::with_capacity_bytes(1 << 20)
            .with_shards(4)
            .without_single_flight(),
    ));
    // `loads` counts loader entries; `inside` counts loaders running now,
    // and `peak` the most that ran at once.
    let loads = Arc::new(AtomicU64::new(0));
    let inside = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = Arc::clone(&c);
            let (loads, inside, peak) =
                (Arc::clone(&loads), Arc::clone(&inside), Arc::clone(&peak));
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                c.get_or_load(b"herd", |_| {
                    inside.fetch_add(1, Ordering::SeqCst);
                    loads.fetch_add(1, Ordering::SeqCst);
                    // Hold until every racer is loading too. The wait is
                    // bounded, so a cache that collapses the herd fails
                    // the counts below instead of hanging.
                    let give_up = Instant::now() + Duration::from_secs(2);
                    while loads.load(Ordering::SeqCst) < THREADS as u64 && Instant::now() < give_up
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    peak.fetch_max(inside.load(Ordering::SeqCst), Ordering::SeqCst);
                    inside.fetch_sub(1, Ordering::SeqCst);
                    Some(vec![1])
                })
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("thread").as_deref(), Some(&[1u8][..]));
    }
    assert_eq!(
        loads.load(Ordering::SeqCst),
        THREADS as u64,
        "without single-flight, every concurrent miss loads"
    );
    assert_eq!(
        peak.load(Ordering::SeqCst),
        THREADS as u64,
        "all loaders run at once"
    );
    assert_eq!(c.stats().singleflight_fills(), 0);
}

#[test]
fn eight_waiters_on_one_fill_all_get_the_value() {
    // The leader's loader holds the fill open until all eight waiters
    // have joined it, so each one parks (or finds the value published)
    // and must be woken by the leader's publish.
    let c = cache();
    let (leading_tx, leading_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let leader = {
        let (c, done_tx) = (Arc::clone(&c), done_tx.clone());
        std::thread::spawn(move || {
            let got = c.get_or_load(b"cold", |_| {
                leading_tx.send(()).expect("test is waiting");
                let give_up = std::time::Instant::now() + Duration::from_secs(10);
                while c.stats().singleflight_waits() < THREADS as u64
                    && std::time::Instant::now() < give_up
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Give the last waiter time to park after it registered.
                std::thread::sleep(Duration::from_millis(20));
                Some(b"filled".to_vec())
            });
            done_tx.send(got).expect("test is waiting");
        })
    };
    leading_rx.recv().expect("the leader started its fill");
    let waiters: Vec<_> = (0..THREADS)
        .map(|_| {
            let (c, done_tx) = (Arc::clone(&c), done_tx.clone());
            std::thread::spawn(move || {
                let got = c.get_or_load(b"cold", |_| panic!("a waiter must not load"));
                done_tx.send(got).expect("test is waiting");
            })
        })
        .collect();
    // A waiter left parked shows as a missing value, not a hung test.
    for _ in 0..=THREADS {
        let got = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("every caller returns");
        assert_eq!(got.as_deref(), Some(&b"filled"[..]));
    }
    leader.join().expect("leader");
    for w in waiters {
        w.join().expect("waiter");
    }
    let stats = c.stats();
    assert_eq!(stats.singleflight_fills(), 1);
    assert_eq!(stats.singleflight_waits(), THREADS as u64);
}
