//! Byte-oriented compression: an LZ77-class codec ("szip") and RLE.
//!
//! The LZ codec follows the Snappy/LZ4 family that dominates datacenter
//! compression tax: greedy parsing, a hash-chain match finder over a 64 KiB
//! window, minimum match length 4, varint-coded token stream. It is not
//! meant to beat zstd — it is meant to *spend cycles the way production
//! compression does*: hashing 4-byte windows, chasing chains, and copying
//! overlapping runs.

const WINDOW: usize = 64 << 10;
const MIN_MATCH: usize = 4;
const MAX_CHAIN: usize = 16;
const HASH_BITS: u32 = 15;

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended before the stream was complete.
    Truncated,
    /// A match referenced data before the start of output.
    BadOffset {
        /// The offending offset.
        offset: usize,
        /// Bytes produced so far.
        produced: usize,
    },
    /// The declared output size did not match what decoding produced.
    LengthMismatch {
        /// Declared size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// A varint in the stream was malformed.
    BadVarint,
    /// The declared output size exceeds the decoder's sanity limit.
    TooLarge {
        /// Declared size.
        expected: usize,
        /// The decoder's limit.
        limit: usize,
    },
}

/// Sanity cap on declared decompressed size. A corrupt or adversarial
/// header must produce an error, not an allocation abort or an
/// effectively unbounded decode loop.
pub const MAX_DECODED_LEN: usize = 1 << 28; // 256 MiB

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadOffset { offset, produced } => {
                write!(f, "match offset {offset} exceeds produced bytes {produced}")
            }
            CompressError::LengthMismatch { expected, actual } => {
                write!(f, "declared size {expected} but produced {actual}")
            }
            CompressError::BadVarint => write!(f, "malformed varint"),
            CompressError::TooLarge { expected, limit } => {
                write!(f, "declared size {expected} exceeds decode limit {limit}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(CompressError::Truncated)?;
        *pos += 1;
        if shift >= 63 && b > 1 {
            return Err(CompressError::BadVarint);
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CompressError::BadVarint);
        }
    }
}

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b`, at most `max`: eight
/// bytes per step (the first differing byte is the lowest set byte of
/// the XOR), then byte by byte.
#[inline]
fn match_len(a: &[u8], b: &[u8], max: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= max {
        let x = u64::from_le_bytes(a[len..len + 8].try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(b[len..len + 8].try_into().expect("8 bytes"));
        if x != 0 {
            return len + (x.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && a[len] == b[len] {
        len += 1;
    }
    len
}

/// Compresses `input` with the szip LZ77 codec.
///
/// Output layout: `[varint uncompressed_len]` followed by tokens of the
/// form `[varint lit_len][literals][varint match_code]` where a match code
/// of 0 terminates the stream and `code > 0` encodes a match of
/// `code + MIN_MATCH - 1` bytes followed by `[varint offset]`.
///
/// The match finder stores positions as `u32` (`u32::MAX` marks an empty
/// slot), which halves its tables. An input longer than `u32::MAX` bytes
/// still compresses correctly: a stored position is then its true value
/// modulo 2^32, and every such truncated position lies more than the
/// window behind the current one, so it only ever ends a chain walk as
/// out of the window. It never yields a bad offset; past 4 GiB the
/// finder may only miss matches.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_varint(&mut out, input.len() as u64);

    // Hash table: bucket -> most recent position; chain: pos -> previous
    // pos with the same hash.
    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut chain = vec![u32::MAX; input.len()];

    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        let mut depth = 0usize;
        let max = input.len() - i;
        while candidate != u32::MAX && depth < MAX_CHAIN && best_len < max {
            let c = candidate as usize;
            let off = i - c;
            if off > WINDOW {
                break;
            }
            // Only a candidate that also agrees at `best_len` can beat it.
            if input[c + best_len] == input[i + best_len] {
                let len = match_len(&input[c..], &input[i..], max);
                if len > best_len {
                    best_len = len;
                    best_off = off;
                }
            }
            candidate = chain[c];
            depth += 1;
        }

        if best_len >= MIN_MATCH {
            // Emit pending literals, then the match token.
            let lits = &input[lit_start..i];
            write_varint(&mut out, lits.len() as u64);
            out.extend_from_slice(lits);
            write_varint(&mut out, (best_len - MIN_MATCH + 1) as u64);
            write_varint(&mut out, best_off as u64);

            // Index every position inside the match (up to the last
            // hashable position), then skip past the match body.
            let match_end = i + best_len;
            let idx_end = match_end.min(input.len() - MIN_MATCH + 1);
            let mut j = i;
            while j < idx_end {
                let h = hash4(&input[j..]);
                chain[j] = head[h];
                head[h] = j as u32;
                j += 1;
            }
            i = match_end;
            lit_start = i;
        } else {
            chain[i] = head[h];
            head[h] = i as u32;
            i += 1;
        }
    }

    // Trailing literals + terminator.
    let lits = &input[lit_start..];
    write_varint(&mut out, lits.len() as u64);
    out.extend_from_slice(lits);
    write_varint(&mut out, 0);
    out
}

/// Decompresses an szip stream produced by [`lz_compress`].
///
/// # Errors
///
/// Returns a [`CompressError`] on any malformed input; never panics and
/// never reads out of bounds.
pub fn lz_decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut pos = 0usize;
    let expected = read_varint(input, &mut pos)? as usize;
    if expected > MAX_DECODED_LEN {
        return Err(CompressError::TooLarge {
            expected,
            limit: MAX_DECODED_LEN,
        });
    }
    // Cap pre-allocation: a corrupt header must not allocate unbounded.
    let mut out = Vec::with_capacity(expected.min(16 << 20));
    loop {
        let lit_len = read_varint(input, &mut pos)? as usize;
        if lit_len > input.len() - pos {
            return Err(CompressError::Truncated);
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;

        let code = read_varint(input, &mut pos)? as usize;
        if code == 0 {
            break;
        }
        let match_len = code + MIN_MATCH - 1;
        // A match that overshoots the declared size is corrupt; checking
        // here (not after the loop) bounds both memory and time.
        if match_len > expected.saturating_sub(out.len()) {
            return Err(CompressError::LengthMismatch {
                expected,
                actual: out.len().saturating_add(match_len),
            });
        }
        let offset = read_varint(input, &mut pos)? as usize;
        if offset == 0 || offset > out.len() {
            return Err(CompressError::BadOffset {
                offset,
                produced: out.len(),
            });
        }
        // A match longer than its offset repeats the `offset` bytes at
        // `start`. Every copy below is a whole number of those periods
        // (bar the last), so copying again from `start` continues the
        // repetition, and each copy doubles what the next can take.
        let start = out.len() - offset;
        let mut left = match_len;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    if out.len() != expected {
        return Err(CompressError::LengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    Ok(out)
}

/// Run-length encodes `input`: tokens are `[varint (len<<1 | is_run)]`
/// followed by one byte (run) or `len` bytes (literal block).
pub fn rle_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 16);
    write_varint(&mut out, input.len() as u64);
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < input.len() {
        // Measure the run at i.
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b {
            run += 1;
        }
        if run >= 4 {
            if lit_start < i {
                let lits = &input[lit_start..i];
                write_varint(&mut out, (lits.len() as u64) << 1);
                out.extend_from_slice(lits);
            }
            write_varint(&mut out, ((run as u64) << 1) | 1);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    if lit_start < input.len() {
        let lits = &input[lit_start..];
        write_varint(&mut out, (lits.len() as u64) << 1);
        out.extend_from_slice(lits);
    }
    out
}

/// Decodes an RLE stream produced by [`rle_compress`].
///
/// # Errors
///
/// Returns a [`CompressError`] on malformed input.
pub fn rle_decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut pos = 0usize;
    let expected = read_varint(input, &mut pos)? as usize;
    if expected > MAX_DECODED_LEN {
        return Err(CompressError::TooLarge {
            expected,
            limit: MAX_DECODED_LEN,
        });
    }
    let mut out = Vec::with_capacity(expected.min(16 << 20));
    while out.len() < expected {
        let token = read_varint(input, &mut pos)?;
        let len = (token >> 1) as usize;
        if len == 0 {
            return Err(CompressError::Truncated);
        }
        // A block that overshoots the declared size is corrupt; checking
        // here (not after the loop) bounds the run-expansion allocation.
        if len > expected - out.len() {
            return Err(CompressError::LengthMismatch {
                expected,
                actual: out.len().saturating_add(len),
            });
        }
        if token & 1 == 1 {
            let b = *input.get(pos).ok_or(CompressError::Truncated)?;
            pos += 1;
            out.extend(std::iter::repeat_n(b, len));
        } else {
            if len > input.len() - pos {
                return Err(CompressError::Truncated);
            }
            out.extend_from_slice(&input[pos..pos + len]);
            pos += len;
        }
    }
    if out.len() != expected {
        return Err(CompressError::LengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_lz(data: &[u8]) {
        let packed = lz_compress(data);
        let unpacked = lz_decompress(&packed).unwrap();
        assert_eq!(unpacked, data);
    }

    fn round_trip_rle(data: &[u8]) {
        let packed = rle_compress(data);
        let unpacked = rle_decompress(&packed).unwrap();
        assert_eq!(unpacked, data);
    }

    #[test]
    fn lz_round_trips_edge_cases() {
        round_trip_lz(b"");
        round_trip_lz(b"a");
        round_trip_lz(b"abc");
        round_trip_lz(b"aaaa");
        round_trip_lz(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        round_trip_lz(b"abcabcabcabcabcabcabcabc");
        round_trip_lz("héllo wörld héllo wörld".as_bytes());
    }

    #[test]
    fn lz_round_trips_text() {
        let text = "the quick brown fox jumps over the lazy dog. "
            .repeat(100)
            .into_bytes();
        let packed = lz_compress(&text);
        assert!(
            packed.len() < text.len() / 3,
            "repetitive text should compress well: {} -> {}",
            text.len(),
            packed.len()
        );
        assert_eq!(lz_decompress(&packed).unwrap(), text);
    }

    #[test]
    fn lz_round_trips_pseudo_random() {
        let mut data = Vec::with_capacity(50_000);
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push((x >> 33) as u8);
        }
        round_trip_lz(&data);
    }

    #[test]
    fn lz_round_trips_long_range_repeats() {
        let mut data = Vec::new();
        let phrase: Vec<u8> = (0u8..=255).collect();
        for _ in 0..300 {
            data.extend_from_slice(&phrase);
        }
        let packed = lz_compress(&data);
        assert!(packed.len() < data.len() / 4);
        assert_eq!(lz_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lz_incompressible_expands_bounded() {
        let mut data = Vec::with_capacity(10_000);
        let mut x = 99u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
            data.push((x >> 40) as u8);
        }
        let packed = lz_compress(&data);
        assert!(packed.len() < data.len() + data.len() / 8 + 32);
        round_trip_lz(&data);
    }

    #[test]
    fn lz_rejects_truncated_streams() {
        let packed = lz_compress(b"hello hello hello hello hello");
        for cut in 0..packed.len() {
            assert!(
                lz_decompress(&packed[..cut]).is_err(),
                "cut={cut} should fail"
            );
        }
    }

    #[test]
    fn lz_rejects_bad_offset() {
        // Handcraft: declared len 8, 0 literals, match code 5 (len 8),
        // offset 10 with nothing produced.
        let mut bad = Vec::new();
        write_varint(&mut bad, 8);
        write_varint(&mut bad, 0);
        write_varint(&mut bad, 5);
        write_varint(&mut bad, 10);
        assert!(matches!(
            lz_decompress(&bad),
            Err(CompressError::BadOffset { .. })
        ));
    }

    #[test]
    fn lz_rejects_length_mismatch() {
        let mut bad = Vec::new();
        write_varint(&mut bad, 100); // claims 100 bytes
        write_varint(&mut bad, 3); // 3 literals
        bad.extend_from_slice(b"abc");
        write_varint(&mut bad, 0); // end
        assert!(matches!(
            lz_decompress(&bad),
            Err(CompressError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rle_round_trips() {
        round_trip_rle(b"");
        round_trip_rle(b"abc");
        round_trip_rle(b"aaaaaaaabbbbbbbbcccccccc");
        round_trip_rle(b"abababababab");
        round_trip_rle(&[0u8; 10_000]);
        let mixed: Vec<u8> = (0..5000u32)
            .flat_map(|i| {
                if i % 7 == 0 {
                    vec![9u8; 20]
                } else {
                    vec![(i % 251) as u8]
                }
            })
            .collect();
        round_trip_rle(&mixed);
    }

    #[test]
    fn rle_compresses_runs() {
        let data = vec![7u8; 100_000];
        let packed = rle_compress(&data);
        assert!(
            packed.len() < 32,
            "all-run input should be tiny: {}",
            packed.len()
        );
    }

    #[test]
    fn rle_rejects_truncation() {
        let packed = rle_compress(b"aaaaaaaaaabbbbbbbbbbx");
        for cut in 0..packed.len() {
            assert!(rle_decompress(&packed[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn compression_ratio_on_structured_content() {
        // Backing-store-like content: runs with breaks.
        let mut data = Vec::new();
        let mut x = 5u64;
        while data.len() < 20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            let run = (x % 24 + 4) as usize;
            let byte = ((x >> 32) % 64 + 32) as u8;
            data.extend(std::iter::repeat_n(byte, run));
        }
        let lz = lz_compress(&data);
        let rle = rle_compress(&data);
        assert!(
            lz.len() < data.len() / 2,
            "lz: {} / {}",
            lz.len(),
            data.len()
        );
        assert!(
            rle.len() < data.len() / 2,
            "rle: {} / {}",
            rle.len(),
            data.len()
        );
        assert_eq!(lz_decompress(&lz).unwrap(), data);
        assert_eq!(rle_decompress(&rle).unwrap(), data);
    }
}
