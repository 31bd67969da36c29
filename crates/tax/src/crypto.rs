//! Cryptographic kernels: SHA-256, HMAC-SHA-256, and ChaCha20.
//!
//! FeedSim's stack includes "Crypto (OpenSSL, libsodium, fizz)" (Table 2);
//! TLS-terminating services pay hashing and stream-cipher cycles on every
//! response. These are complete, test-vector-verified implementations —
//! *not* for protecting real secrets (no constant-time guarantees), but
//! instruction-accurate stand-ins for the crypto tax.
//!
//! Production libraries do not run these algorithms one scalar word at a
//! time, so neither does this module, or the crypto share of the tax would
//! be overstated:
//!
//! * SHA-256 runs its rounds on the SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`) when the x86_64 CPU has them, as OpenSSL
//!   does. The features are detected once per call.
//! * ChaCha20 makes its keystream four blocks at a time in SSE2 lanes on
//!   every x86_64 CPU (SSE2 is in the baseline), as libsodium does, and
//!   XORs it in eight-byte words.
//!
//! Both compute the same functions as the portable code, which is the
//! only path on other CPUs and the reference the tests hold the
//! accelerated paths to. [`backend`] names the path this CPU runs.

// --------------------------------------------------------------------------
// SHA-256
// --------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use dcperf_tax::crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: SHA256_H0,
            buffer: [0; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                // A partial buffer means `rest` is exhausted.
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        compress_blocks(&mut self.state, &rest[..whole]);
        let rem = &rest[whole..];
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Pads and produces the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; 32] {
        // The buffered bytes, 0x80, zeros, then the 64-bit big-endian bit
        // length: one block, or two when the length no longer fits.
        let n = self.buffered;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.length_bits.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..len]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Runs the SHA-256 compression function over `blocks`, a whole number
/// of 64-byte blocks, on the SHA extensions when the CPU has them.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if x86::has_sha_ni() {
        // SAFETY: `has_sha_ni` detected the sha, ssse3 and sse4.1 features
        // `sha_ni_blocks` enables; sse2 is in the x86_64 baseline.
        unsafe { x86::sha_ni_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_block(state, block);
    }
}

/// The portable SHA-256 rounds over one 64-byte block: the only path on
/// CPUs without the SHA extensions, and the reference the tests hold the
/// accelerated path to.
fn compress_block(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(SHA256_K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// HMAC-SHA-256 of `message` under `key` (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&Sha256::digest(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(&inner_digest);
    outer.finalize()
}

// --------------------------------------------------------------------------
// ChaCha20
// --------------------------------------------------------------------------

/// The ChaCha20 stream cipher (RFC 8439 block function).
///
/// Encryption and decryption are the same operation (XOR keystream).
///
/// # Examples
///
/// ```
/// use dcperf_tax::crypto::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let mut data = b"attack at dawn".to_vec();
/// ChaCha20::new(&key, &nonce, 1).apply(&mut data);
/// assert_ne!(&data, b"attack at dawn");
/// ChaCha20::new(&key, &nonce, 1).apply(&mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
}

impl ChaCha20 {
    /// Creates a cipher from a 256-bit key, 96-bit nonce, and initial
    /// block counter.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4"));
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("4"));
        }
        Self { state }
    }

    #[cfg(any(test, not(target_arch = "x86_64")))]
    #[inline]
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    /// One keystream block at `counter`: the portable block function,
    /// the only path off x86_64 and the reference for the 4-block path.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    fn block(&self, counter: u32) -> [u8; 64] {
        let mut working = self.state;
        working[12] = counter;
        let initial = working;
        for _ in 0..10 {
            // Column rounds.
            Self::quarter_round(&mut working, 0, 4, 8, 12);
            Self::quarter_round(&mut working, 1, 5, 9, 13);
            Self::quarter_round(&mut working, 2, 6, 10, 14);
            Self::quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            Self::quarter_round(&mut working, 0, 5, 10, 15);
            Self::quarter_round(&mut working, 1, 6, 11, 12);
            Self::quarter_round(&mut working, 2, 7, 8, 13);
            Self::quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs the keystream into `data` in place, starting at the
    /// construction-time counter. The block counter wraps at `u32::MAX`.
    pub fn apply(&self, data: &mut [u8]) {
        let base = self.state[12];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `chacha_xor` enables only sse2, which every x86_64
            // CPU has (it is in the target's baseline), so no detection is
            // needed.
            unsafe { x86::chacha_xor(&self.state, base, data) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            let ks = self.block(base.wrapping_add(block_idx as u32));
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// Names the code paths this CPU runs: `"sha-ni+sse2"` (SHA-256 on the
/// SHA extensions, ChaCha20 four blocks at a time in SSE2), `"sse2"`
/// (portable SHA-256, SSE2 ChaCha20) on other x86_64 CPUs, and
/// `"portable"` elsewhere. Reports that compare hosts record it, so a
/// score says which implementation it measured.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    return if x86::has_sha_ni() {
        "sha-ni+sse2"
    } else {
        "sse2"
    };
    #[cfg(not(target_arch = "x86_64"))]
    "portable"
}

/// The x86_64 kernels: the same SHA-256 and ChaCha20, on the instructions
/// production libraries (OpenSSL, libsodium) use. Vectors are built with
/// `_mm_set_*` and read back with extracts, so no raw pointer is needed.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Does this CPU have the SHA extensions and the SSSE3 and SSE4.1
    /// shuffles and extracts [`sha_ni_blocks`] uses?
    pub(super) fn has_sha_ni() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::compress_block`] over every block of `blocks`, with the
    /// state held in two registers (ABEF and CDGH, as `sha256rnds2`
    /// takes it) across all of them.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn sha_ni_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(64) {
            let mut m = [0i32; 16];
            for (v, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
                *v = i32::from_be_bytes(bytes.try_into().expect("4 bytes"));
            }
            // The message schedule, four words per vector, lowest lane
            // first: w0 holds the words the next four rounds use.
            let mut w0 = _mm_set_epi32(m[3], m[2], m[1], m[0]);
            let mut w1 = _mm_set_epi32(m[7], m[6], m[5], m[4]);
            let mut w2 = _mm_set_epi32(m[11], m[10], m[9], m[8]);
            let mut w3 = _mm_set_epi32(m[15], m[14], m[13], m[12]);
            let (abef_in, cdgh_in) = (abef, cdgh);
            for k in super::SHA256_K.chunks_exact(4) {
                let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
                let wk = _mm_add_epi32(w0, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                // The next four words. The last four steps compute words
                // past 63 that no round uses; that keeps the loop uniform.
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(sum, w3));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|w| w as u32);
    }

    /// Rotates each 32-bit lane left by `n` bits.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl(x: __m128i, n: i32) -> __m128i {
        let left = _mm_sll_epi32(x, _mm_cvtsi32_si128(n));
        _mm_or_si128(left, _mm_srl_epi32(x, _mm_cvtsi32_si128(32 - n)))
    }

    /// The ChaCha20 quarter round on four blocks at once.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter_round(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl(_mm_xor_si128(x[d], x[a]), 16);
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl(_mm_xor_si128(x[b], x[c]), 12);
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl(_mm_xor_si128(x[d], x[a]), 8);
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl(_mm_xor_si128(x[b], x[c]), 7);
    }

    /// XORs the keystream from block `counter` on into `data`, four
    /// blocks (256 bytes) per step and eight bytes per XOR. A partial last
    /// step uses the start of its four blocks, as the portable path does.
    #[target_feature(enable = "sse2")]
    pub(super) fn chacha_xor(state: &[u32; 16], counter: u32, data: &mut [u8]) {
        let mut initial = [_mm_setzero_si128(); 16];
        for (v, &w) in initial.iter_mut().zip(state) {
            *v = _mm_set1_epi32(w as i32);
        }
        for (i, chunk) in data.chunks_mut(256).enumerate() {
            let keystream = chacha_blocks4(&initial, counter.wrapping_add(4 * i as u32));
            let tail_word = keystream.get(chunk.len() / 8).copied();
            let mut words = chunk.chunks_exact_mut(8);
            for (word, k) in (&mut words).zip(keystream) {
                let x = u64::from_le_bytes((&*word).try_into().expect("8 bytes")) ^ k;
                word.copy_from_slice(&x.to_le_bytes());
            }
            if let Some(k) = tail_word {
                for (b, k) in words.into_remainder().iter_mut().zip(k.to_le_bytes()) {
                    *b ^= k;
                }
            }
        }
    }

    /// The keystream of the four blocks at `counter`..`counter + 3`
    /// (wrapping), one block per lane, as 32 little-endian words: block
    /// `n`'s bytes are words `8n..8n + 8`. `initial` is the cipher state
    /// with each word in all four lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn chacha_blocks4(initial: &[__m128i; 16], counter: u32) -> [u64; 32] {
        let mut initial = *initial;
        let ctr = |n: u32| counter.wrapping_add(n) as i32;
        initial[12] = _mm_set_epi32(ctr(3), ctr(2), ctr(1), ctr(0));
        let mut x = initial;
        for _ in 0..10 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        let lo = |v: __m128i| _mm_cvtsi128_si64(v) as u64;
        let hi = |v: __m128i| _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
        let mut out = [0u64; 32];
        for g in 0..4 {
            // Words 4g..4g+4 of the four blocks, transposed to block order.
            let word = |i: usize| _mm_add_epi32(x[4 * g + i], initial[4 * g + i]);
            let (a, b, c, d) = (word(0), word(1), word(2), word(3));
            let (ab01, ab23) = (_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b));
            let (cd01, cd23) = (_mm_unpacklo_epi32(c, d), _mm_unpackhi_epi32(c, d));
            out[2 * g] = lo(ab01);
            out[2 * g + 1] = lo(cd01);
            out[8 + 2 * g] = hi(ab01);
            out[8 + 2 * g + 1] = hi(cd01);
            out[16 + 2 * g] = lo(ab23);
            out[16 + 2 * g + 1] = lo(cd23);
            out[24 + 2 * g] = hi(ab23);
            out[24 + 2 * g + 1] = hi(cd23);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_standard_vectors() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        for split in [0usize, 1, 63, 64, 65, 100, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2 ("Jefe").
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed_first() {
        let long_key = [0xaau8; 131];
        let mac = hmac_sha256(
            &long_key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        // RFC 4231 test case 6.
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn chacha20_rfc8439_block_vector() {
        // RFC 8439 §2.3.2 test vector.
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block(1);
        assert_eq!(
            hex(&block),
            concat!(
                "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e",
                "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
            )
        );
    }

    #[test]
    fn chacha20_rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2.
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        ChaCha20::new(&key, &nonce, 1).apply(&mut data);
        assert_eq!(
            hex(&data),
            concat!(
                "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b",
                "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8",
                "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736",
                "5af90bbf74a35be6b40b8eedf2785e42874d",
            )
        );
    }

    /// `apply` against the portable block function, for every length up
    /// to 1,100 bytes (so every tail length of a 256-byte step), at
    /// counter 0 and at a counter that wraps inside the first step.
    #[test]
    fn chacha20_apply_matches_portable_blocks() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 13 + 1) as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| (i * 29 + 7) as u8);
        for counter in [0, u32::MAX - 2] {
            let cipher = ChaCha20::new(&key, &nonce, counter);
            let reference: Vec<u8> = (0..18u32)
                .flat_map(|n| cipher.block(counter.wrapping_add(n)))
                .collect();
            for len in 0..=1100 {
                let plain: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
                let mut data = plain.clone();
                cipher.apply(&mut data);
                let want: Vec<u8> = plain.iter().zip(&reference).map(|(p, k)| p ^ k).collect();
                assert_eq!(data, want, "counter={counter} len={len}");
            }
        }
    }

    #[test]
    fn chacha20_round_trips_many_sizes() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut data = original.clone();
            ChaCha20::new(&key, &nonce, 0).apply(&mut data);
            if len > 8 {
                assert_ne!(data, original);
            }
            ChaCha20::new(&key, &nonce, 0).apply(&mut data);
            assert_eq!(data, original, "len={len}");
        }
    }

    #[test]
    fn different_nonces_differ() {
        let key = [1u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ChaCha20::new(&key, &[0u8; 12], 0).apply(&mut a);
        ChaCha20::new(&key, &[1u8; 12], 0).apply(&mut b);
        assert_ne!(a, b);
    }

    /// The portable SHA-256: padding and rounds with no accelerated code.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = SHA256_H0;
        for block in padded.chunks_exact(64) {
            compress_block(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// RFC 2104 HMAC over [`sha256_portable`].
    fn hmac_portable(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&sha256_portable(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = key_block.map(|b| b ^ 0x36).to_vec();
        inner.extend_from_slice(message);
        let mut outer = key_block.map(|b| b ^ 0x5c).to_vec();
        outer.extend_from_slice(&sha256_portable(&inner));
        sha256_portable(&outer)
    }

    #[test]
    fn portable_reference_passes_the_standard_vectors() {
        assert_eq!(
            hex(&sha256_portable(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&hmac_portable(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `Sha256` and `hmac_sha256`, on whatever path this CPU runs,
        /// against the portable reference, with the message fed to
        /// `update` in random pieces.
        #[test]
        fn sha256_and_hmac_match_the_portable_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(0usize..4096, 0..8),
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..100),
        ) {
            static SAY_ONCE: std::sync::Once = std::sync::Once::new();
            if !backend().starts_with("sha-ni") {
                // Written past the test harness's capture, so a run on a
                // CPU without the SHA extensions says so.
                SAY_ONCE.call_once(|| {
                    use std::io::Write;
                    let _ = writeln!(
                        std::io::stderr(),
                        "sha256_and_hmac_match_the_portable_reference: no SHA extensions \
                         (backend {}); the accelerated path was not exercised",
                        backend()
                    );
                });
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(h.finalize(), sha256_portable(&data));
            proptest::prop_assert_eq!(hmac_sha256(&key, &data), hmac_portable(&key, &data));
        }
    }
}
