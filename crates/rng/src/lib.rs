//! # crimes-rng — in-tree deterministic randomness
//!
//! The whole reproduction hinges on CRIMES' determinism contract: the same
//! seed must yield the same PFN→MFN permutation, the same workload trace,
//! and the same epoch dirty sets, forever. Pulling a PRNG from a registry
//! makes that contract hostage to a `cargo update` *and* makes the build
//! depend on network access. This crate owns the generator instead:
//!
//! * [`ChaCha8Rng`] — a seedable ChaCha stream cipher reduced to 8 rounds,
//!   the same construction the workspace previously obtained from the
//!   `rand_chacha` crate. The output stream for a given seed is pinned by
//!   golden-value tests below; changing it invalidates every recorded
//!   trace, so those tests are intentionally brittle.
//! * [`prop`] — a minimal seeded property-test harness (case generation,
//!   shrink-on-failure, explicit regression seeds) replacing `proptest`.
//!
//! No `unsafe`, no dependencies, no platform-dependent behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The pause window runs in this crate: no console I/O (the allocation
// test, tests/pause_alloc.rs, holds it to no heap growth either).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod prop;

/// The four "expand 32-byte k" ChaCha constants.
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One ChaCha quarter round over four state words.
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha block function: permute `input` for `rounds` rounds and add
/// the original state back in, producing 64 bytes of keystream.
fn chacha_block(input: &[u32; 16], rounds: u32, out: &mut [u8; 64]) {
    debug_assert!(rounds >= 2 && rounds.is_multiple_of(2), "rounds come in pairs");
    let mut x = *input;
    for _ in 0..rounds / 2 {
        // Column round.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (i, word) in x.iter().enumerate() {
        let sum = word.wrapping_add(input[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&sum.to_le_bytes());
    }
}

/// SplitMix64 step, used to expand a 64-bit seed into a 256-bit key. Fixed
/// forever: changing these constants changes every derived stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic ChaCha stream RNG with 8 rounds.
///
/// The state layout is the classic DJB one: 4 constant words, 8 key words,
/// a 64-bit block counter, and a 64-bit stream id (always zero here). Each
/// block yields 64 bytes of keystream, consumed in order.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Immutable block input; words 12..13 are the counter.
    state: [u32; 16],
    /// Keystream of the current block.
    buf: [u8; 64],
    /// Next unconsumed byte in `buf`; 64 means "refill before use".
    pos: usize,
}

impl ChaCha8Rng {
    /// Number of rounds — the "8" in ChaCha8.
    const ROUNDS: u32 = 8;

    /// Build from a full 256-bit key, counter zero.
    pub fn from_seed(key: [u8; 32]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
        }
        // Words 12..16: 64-bit block counter then 64-bit stream id, zero.
        ChaCha8Rng {
            state,
            buf: [0; 64],
            pos: 64,
        }
    }

    /// Build from a 64-bit seed, expanded to a key via SplitMix64 — the
    /// seeding path every call site in the workspace uses.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u8; 32];
        for chunk in key.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut sm).to_le_bytes());
        }
        Self::from_seed(key)
    }

    /// Advance to the next keystream block.
    fn refill(&mut self) {
        chacha_block(&self.state, Self::ROUNDS, &mut self.buf);
        // 64-bit counter across words 12 and 13.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.pos = 0;
    }

    /// Next 4 keystream bytes as a little-endian `u32`.
    pub fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    /// Next 8 keystream bytes as a little-endian `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Fill `dest` with keystream bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut written = 0;
        while written < dest.len() {
            if self.pos == 64 {
                self.refill();
            }
            let n = (dest.len() - written).min(64 - self.pos);
            dest[written..written + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            written += n;
        }
    }

    /// Alias of [`fill_bytes`](Self::fill_bytes), matching the `rand::Rng`
    /// spelling used by existing call sites.
    pub fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }

    /// A uniformly random value of a primitive type.
    pub fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// A uniform draw from the half-open range `lo..hi`.
    ///
    /// Unbiased (Lemire rejection over the full 64-bit draw).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleUniform>(&mut self, range: core::ops::Range<T>) -> T {
        T::sample_uniform(self, range.start, range.end)
    }

    /// Uniform `u64` in `[0, span)` for nonzero `span`, without modulo bias.
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Fisher–Yates shuffle of `slice`, driven by this stream.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }
}

/// Types [`ChaCha8Rng::gen`] can produce.
pub trait Random: Sized {
    /// Draw a uniformly random value.
    fn random(rng: &mut ChaCha8Rng) -> Self;
}

macro_rules! impl_random_uint {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random(rng: &mut ChaCha8Rng) -> $t {
                let mut b = [0u8; core::mem::size_of::<$t>()];
                rng.fill_bytes(&mut b);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}
impl_random_uint!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Random for bool {
    fn random(rng: &mut ChaCha8Rng) -> bool {
        rng.gen::<u8>() & 1 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn random(rng: &mut ChaCha8Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn random(rng: &mut ChaCha8Rng) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Integer types [`ChaCha8Rng::gen_range`] can sample.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn sample_uniform(rng: &mut ChaCha8Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(rng: &mut ChaCha8Rng, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "gen_range called with empty range");
                lo + rng.bounded_u64((hi - lo) as u64) as $t
            }
        }
    )*};
}
impl_sample_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(rng: &mut ChaCha8Rng, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "gen_range called with empty range");
                // Offset encoding so the span fits the unsigned twin.
                let span = (hi as $u).wrapping_sub(lo as $u);
                lo.wrapping_add(rng.bounded_u64(span as u64) as $t)
            }
        }
    )*};
}
impl_sample_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook ChaCha20 zero-key/zero-nonce keystream (djb's original
    /// 64-bit-counter layout, identical first block to RFC 7539). Validates
    /// the block function itself against an external reference, independent
    /// of round count.
    #[test]
    fn chacha20_block_matches_reference_vector() {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&CHACHA_CONSTANTS);
        let mut out = [0u8; 64];
        chacha_block(&input, 20, &mut out);
        let expected: [u8; 32] = [
            0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
            0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
            0x8b, 0x77, 0x0d, 0xc7,
        ];
        assert_eq!(&out[..32], &expected);
    }

    /// Golden pin: the u64 stream for fixed seeds. A change here means
    /// every recorded trace, PFN permutation, and workload schedule in the
    /// repository is invalidated — do not "fix" this test by updating the
    /// constants unless that invalidation is intended and documented.
    #[test]
    fn golden_u64_streams_are_pinned() {
        let expected: [(u64, [u64; 4]); 4] = [
            (0x0, [0xbf94_d133_2d8e_e5e8, 0x3a73_8775_a6da_5a01, 0x3d46_ff10_c143_ee06, 0x17c6_ab23_e9f6_424f]),
            (0x1, [0xef72_eaf4_48a8_b558, 0x8a33_ba97_599a_55b3, 0x0c40_074e_e248_f1ee, 0xdbb1_6098_5b66_0e10]),
            (0xdead_beef, [0xd555_1a3c_d2cd_678c, 0x1a58_ffa8_e8a4_2224, 0xa5b4_41d8_4212_2e22, 0xb873_6499_f010_dcc3]),
            (0x5ca1_ab1e, [0x6984_70df_8434_7307, 0xa11c_9ee7_cf5b_a7a0, 0x7ccd_c99a_66cd_0ffb, 0xe392_a7fb_67c4_c82d]),
        ];
        for (seed, stream) in expected {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            assert_eq!(got, stream, "stream changed for seed {seed:#x}");
        }
    }

    /// Golden pin for the byte and shuffle paths: `fill_bytes` must share
    /// the keystream with `next_u64`, and the Fisher–Yates draw order is
    /// part of the contract too (it feeds the PFN→MFN permutation).
    #[test]
    fn golden_bytes_and_shuffle_are_pinned() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        assert_eq!(
            bytes,
            [252, 26, 201, 135, 249, 158, 21, 49, 1, 144, 22, 180, 68, 152, 85, 23]
        );

        let mut v: Vec<u8> = (0..8).collect();
        ChaCha8Rng::seed_from_u64(42).shuffle(&mut v);
        assert_eq!(v, [2, 7, 4, 6, 3, 5, 0, 1]);
    }

    #[test]
    fn clone_continues_identically() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn fill_bytes_split_matches_contiguous() {
        let mut whole = ChaCha8Rng::seed_from_u64(7);
        let mut split = ChaCha8Rng::seed_from_u64(7);
        let mut a = [0u8; 100];
        whole.fill_bytes(&mut a);
        let mut b = [0u8; 100];
        split.fill_bytes(&mut b[..33]);
        split.fill_bytes(&mut b[33..90]);
        split.fill_bytes(&mut b[90..]);
        assert_eq!(a, b);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_endpoints() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range appear");
    }

    #[test]
    fn gen_range_signed_spans_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = rng.gen_range(-3i32..3);
            assert!((-3..3).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty_range() {
        ChaCha8Rng::seed_from_u64(0).gen_range(5u32..5);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn choose_is_none_on_empty_and_in_slice_otherwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [10u8, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
    }

    /// Property: shuffling any vector yields a permutation of it, and the
    /// permutation depends only on the seed.
    #[test]
    fn shuffle_is_a_seed_deterministic_permutation() {
        crate::prop::check("shuffle_is_permutation", crate::prop::Config::default(), |g| {
            let len = g.int(0usize..64);
            let seed = g.any_u64();
            let original: Vec<u32> = (0..len as u32).collect();

            let mut a = original.clone();
            ChaCha8Rng::seed_from_u64(seed).shuffle(&mut a);
            let mut b = original.clone();
            ChaCha8Rng::seed_from_u64(seed).shuffle(&mut b);
            assert_eq!(a, b, "same seed must give the same permutation");

            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, original, "shuffle must be a permutation");
        });
    }

    /// With 512 elements the identity permutation is astronomically
    /// unlikely; guards against a shuffle that silently does nothing.
    #[test]
    fn shuffle_actually_permutes() {
        let original: Vec<u32> = (0..512).collect();
        let mut shuffled = original.clone();
        ChaCha8Rng::seed_from_u64(9).shuffle(&mut shuffled);
        assert_ne!(shuffled, original);
    }
}
