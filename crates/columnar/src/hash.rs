//! The one hasher of every hash table keyed by column values: GROUP BY and
//! join key ids (`polaris-exec`'s `ops`) and the dictionary that
//! [`ColumnarWriter`](crate::ColumnarWriter) builds per string chunk.
//!
//! std's SipHash costs tens of nanoseconds for a short key, which made it
//! most of the cost of grouping a row. [`KeyHasher`] instead takes one
//! multiply step per word: an integer is one step, a string one step per 8
//! bytes (and one for a shorter tail) plus the `0xff` terminator that
//! `str`'s `Hash` sends after them.
//!
//! * **Seeded.** The starting state is one per-process `u64` drawn once
//!   from std's [`RandomState`], so keys that collide cannot be computed in
//!   advance. The seed is never observable: the tables hashed with it are
//!   only probed, never iterated — group ids and dictionary codes are handed
//!   out in first-seen order — so no result row, file byte or counter
//!   depends on it.
//! * **`finish` mixes high bits down.** A multiply carries every input bit
//!   upwards only, while hashbrown picks a bucket from the low bits. Keys
//!   that differ only in high bits — `Int64` keys such as `k << 32`, the
//!   float keys of dyadic values, strings that differ late in a word —
//!   would all share one probe chain under a bare multiply, so `finish`
//!   folds the high half into the low half around one more multiply.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The odd multiplier of rustc-hash 2.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A std `HashMap` hashed by [`KeyHasher`].
pub type KeyMap<Key, V> = HashMap<Key, V, KeyState>;

/// Builds [`KeyHasher`]s from the process seed.
#[derive(Clone, Copy, Debug)]
pub struct KeyState {
    seed: u64,
}

impl KeyState {
    /// A state with a fixed seed, so a test can look at `finish` values.
    #[cfg(test)]
    fn with_seed(seed: u64) -> Self {
        KeyState { seed }
    }
}

impl Default for KeyState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        KeyState {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { hash: self.seed }
    }
}

/// Word-at-a-time hasher: `hash = (hash ^ word) * K` per word. Under
/// rustc-hash's `+` a difference in one word is cancelled by a difference
/// of `-K` times it in the next, whatever the seed; under `^` the carries
/// of the multiply make that difference depend on the seed.
#[derive(Clone, Debug)]
pub struct KeyHasher {
    hash: u64,
}

impl KeyHasher {
    #[inline]
    fn step(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(K);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.step(u64::from_le_bytes(*word));
        }
        // The last 1 to 7 bytes in one word, read as two overlapping
        // 4-byte loads or as bytes 0, n/2 and n-1: either covers every
        // byte, with no copy of a variable length. The tail's length is
        // xored into the top byte, so "ab" and "ab\0" are different words.
        let n = rest.len();
        let tail = match (rest.first_chunk::<4>(), rest.last_chunk::<4>()) {
            (Some(lo), Some(hi)) => {
                u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << 32
            }
            _ => match rest {
                [] => return,
                [first, ..] => {
                    u64::from(*first) | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]) << 16
                }
            },
        };
        self.step(tail ^ (n as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.step(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.step(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }

    /// An xor-shift, a multiply and an xor-shift: each a bijection, so no
    /// two states collide here, and every bit of the state reaches the low
    /// bits.
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.hash ^ (self.hash >> 32)).wrapping_mul(K);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    const SEEDS: [u64; 4] = [0, 1, 0x9e37_79b9_7f4a_7c15, u64::MAX];

    /// Share of distinct values among the low 16 bits of the hashes of
    /// 65 536 keys: a uniform hash gives ≈ 0.63, one bucket gives 0.00002.
    fn low_bits_spread<T: Hash>(state: KeyState, keys: impl Iterator<Item = T>) -> f64 {
        let low: HashSet<u16> = keys.map(|k| state.hash_one(k) as u16).collect();
        low.len() as f64 / 65_536.0
    }

    /// Byte strings hashed as `str` hashes: its bytes, then `0xff`.
    struct AsStr(Vec<u8>);

    impl Hash for AsStr {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write(&self.0);
            state.write_u8(0xff);
        }
    }

    #[test]
    fn keys_with_zero_low_bits_still_spread() {
        for seed in SEEDS {
            let state = KeyState::with_seed(seed);
            let shifted = low_bits_spread(state, (0..65_536i64).map(|k| k << 32));
            // The bits `float_key` hashes for these non-negative values.
            let floats = (0..65_536u64).map(|k| (k as f64 / 1024.0).to_bits() as i64);
            let floats = low_bits_spread(state, floats);
            assert!(shifted >= 0.55, "seed {seed:#x}: k << 32 spread {shifted}");
            assert!(floats >= 0.55, "seed {seed:#x}: float spread {floats}");
            // 16 varying bits at the end of strings that share the rest: in
            // a partial word, at the top of a full one, across the first
            // word boundary, and in the second word after a shared first.
            for len in [7usize, 8, 9, 16] {
                let strings = (0..65_536u32).map(|k| {
                    let mut s = b"abcdefghijklmnop"[..len - 2].to_vec();
                    s.extend_from_slice(&(k as u16).to_le_bytes());
                    AsStr(s)
                });
                let spread = low_bits_spread(state, strings);
                assert!(
                    spread >= 0.55,
                    "seed {seed:#x}: length {len} spread {spread}"
                );
            }
        }
    }

    #[test]
    fn str_hashes_as_its_bytes_then_a_terminator() {
        let state = KeyState::with_seed(7);
        for s in ["", "a", "abcdefgh", "abcdefghé"] {
            assert_eq!(
                state.hash_one(s),
                state.hash_one(AsStr(s.as_bytes().to_vec()))
            );
        }
        // A tail and the same tail with a NUL added are different words.
        assert_ne!(state.hash_one("ab"), state.hash_one("ab\0"));
    }

    /// Two 16-byte keys whose words differ by `d` and by `-d·K`: under `+`
    /// they would collide under every seed.
    #[test]
    fn word_differences_do_not_cancel() {
        let (w1, w2, d) = (
            0x0123_4567_89ab_cdef_u64,
            0x0fed_cba9_8765_4321_u64,
            1 << 40,
        );
        let key = |a: u64, b: u64| AsStr([a.to_le_bytes(), b.to_le_bytes()].concat());
        for seed in SEEDS {
            let state = KeyState::with_seed(seed);
            assert_ne!(
                state.hash_one(key(w1, w2)),
                state.hash_one(key(w1.wrapping_add(d), w2.wrapping_sub(d.wrapping_mul(K))))
            );
        }
    }

    #[test]
    fn one_process_seed() {
        let (a, b) = (KeyState::default(), KeyState::default());
        assert_eq!(a.hash_one(42i64), b.hash_one(42i64));
    }
}
