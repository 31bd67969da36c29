//! Fixture deterministic module: wall-clock reads are banned here.

use std::time::Instant;

fn elapsed_ns(since: Instant) -> u128 {
    Instant::now().duration_since(since).as_nanos() // line 6: wall-clock
}
