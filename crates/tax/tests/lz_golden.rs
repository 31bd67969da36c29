//! Golden outputs of `lz_compress`: the szip stream format is part of the
//! benchmark (`tax.compress_ratio`, response sizes), so a faster match
//! finder must reproduce the old bytes exactly, not merely round-trip.
//!
//! Each corpus is seeded. The pinned value is the FNV-1a digest and the
//! length of the compressed stream.

use dcperf_rpc::Value;
use dcperf_tax::{compress, hash};
use dcperf_util::{Rng, SplitMix64};

/// Words drawn from a small vocabulary, with punctuation: the text-like
/// case. Longer than the 64 KiB window.
fn text_corpus() -> Vec<u8> {
    const WORDS: &str = "the feed story ranks cache server request of a and compress \
        datacenter tax leaf aggregator response is to in latency throughput kernel thread window";
    let words: Vec<&str> = WORDS.split_whitespace().collect();
    let mut rng = SplitMix64::new(11);
    let mut out = Vec::with_capacity(200_000);
    while out.len() < 200_000 {
        out.extend_from_slice(words[(rng.next_u64() % words.len() as u64) as usize].as_bytes());
        out.push(match rng.next_u64() % 10 {
            0 => b'.',
            1 => b',',
            _ => b' ',
        });
    }
    out
}

/// Uniform random bytes: nearly all literals.
fn random_corpus() -> Vec<u8> {
    let mut out = vec![0u8; 50_000];
    SplitMix64::new(22).fill_bytes(&mut out);
    out
}

/// Long matches and the window edge: a zero run, short periods, a block
/// repeated just inside the window (offset 65,536) and one repeated just
/// outside it (offset 70,000).
fn repeats_corpus() -> Vec<u8> {
    let mut rng = SplitMix64::new(33);
    let mut out = vec![0u8; 100_000];
    for period in 1..=17u8 {
        let unit: Vec<u8> = (0..period).map(|i| i.wrapping_mul(37) ^ period).collect();
        out.extend(unit.iter().cycle().take(3_000 + usize::from(period) * 11));
    }
    let mut block = vec![0u8; 65_536];
    rng.fill_bytes(&mut block);
    out.extend_from_slice(&block);
    out.extend_from_slice(&block[..20_000]);
    let mut far = vec![0u8; 70_000];
    rng.fill_bytes(&mut far);
    out.extend_from_slice(&far);
    out.extend_from_slice(&far[..10_000]);
    out
}

/// A FeedSim-style story, shaped like `feed_rank`'s: id, author, text of
/// lowercase words and a random binary block.
fn story(id: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(44 ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let text_len = (rng.next_u64() % 400 + 80) as usize;
    let mut text = String::with_capacity(text_len + 10);
    while text.len() < text_len {
        for _ in 0..rng.next_u64() % 8 + 2 {
            text.push((b'a' + (rng.next_u64() % 26) as u8) as char);
        }
        text.push(' ');
    }
    let mut block = vec![0u8; 64];
    rng.fill_bytes(&mut block);
    Value::Struct(vec![
        (1, Value::I64(id as i64)),
        (2, Value::I64((rng.next_u64() % 1_000_000) as i64)),
        (3, Value::Str(text)),
        (4, Value::Bin(block)),
    ])
    .encode()
}

/// Sixteen encoded responses of 24 ranked stories each, drawn with
/// repeats from a pool of 40, as `feed_rank` composes them.
fn feed_responses() -> Vec<Vec<u8>> {
    let pool: Vec<Vec<u8>> = (0..40).map(story).collect();
    let mut rng = SplitMix64::new(55);
    (0..16)
        .map(|_| {
            Value::List(
                (0..24)
                    .map(|rank| {
                        let id = (rng.next_u64() % 40).min(rng.next_u64() % 40);
                        (id, 1.0 / (1.0 + f64::from(rank)))
                    })
                    .map(|(id, score)| {
                        Value::Struct(vec![
                            (1, Value::F64(score)),
                            (2, Value::I64(id as i64)),
                            (3, Value::Bin(pool[id as usize].clone())),
                        ])
                    })
                    .collect(),
            )
            .encode()
        })
        .collect()
}

/// `(fnv1a, length)` of the concatenated compressed streams, after
/// checking that each one round-trips.
fn pin(inputs: &[Vec<u8>]) -> (u64, usize) {
    let mut all = Vec::new();
    for input in inputs {
        let packed = compress::lz_compress(input);
        assert_eq!(
            compress::lz_decompress(&packed).expect("own stream decodes"),
            *input
        );
        all.extend_from_slice(&packed);
    }
    (hash::fnv1a(&all), all.len())
}

#[test]
fn lz_output_matches_golden_text() {
    assert_eq!(pin(&[text_corpus()]), (2_488_467_947_810_778_675, 81_989));
}

#[test]
fn lz_output_matches_golden_random() {
    assert_eq!(
        pin(&[random_corpus()]),
        (15_078_653_536_126_966_905, 50_008)
    );
}

#[test]
fn lz_output_matches_golden_repeats() {
    assert_eq!(
        pin(&[repeats_corpus()]),
        (11_263_075_234_323_168_465, 145_782)
    );
}

#[test]
fn lz_output_matches_golden_feed_responses() {
    assert_eq!(pin(&feed_responses()), (3_548_188_453_432_479_224, 72_926));
}

#[test]
fn lz_output_matches_golden_short_inputs() {
    let inputs: Vec<Vec<u8>> = (0..40)
        .map(|n| {
            b"abcdabcdabcabcdab"
                .iter()
                .copied()
                .cycle()
                .take(n)
                .collect()
        })
        .collect();
    assert_eq!(pin(&inputs), (531_740_289_318_724_792, 516));
}
