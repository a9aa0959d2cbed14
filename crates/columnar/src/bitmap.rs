//! Fixed-capacity bitmaps used for validity masks and delete vectors.

use crate::{ColumnarError, ColumnarResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A growable bitmap over `u64` words.
///
/// Used in two roles:
/// * validity (null) masks inside [`ColumnVector`](crate::ColumnVector)s;
/// * row-level *delete vectors* attached to immutable data files (§2.1's
///   merge-on-read scheme).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    /// Logical length in bits.
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` bits, all clear.
    pub fn with_len(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` bits, all set.
    pub fn all_set(len: usize) -> Self {
        let mut b = Self::with_len(len);
        for w in &mut b.words {
            *w = u64::MAX;
        }
        b.mask_tail();
        b
    }

    /// Clear bits past the logical length so popcount stays exact.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Logical length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the logical length zero?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`; bits past the end read as clear.
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i`, growing the logical length if needed.
    pub fn set(&mut self, i: usize) {
        if i >= self.len {
            self.len = i + 1;
            let need = self.len.div_ceil(64);
            if self.words.len() < need {
                self.words.resize(need, 0);
            }
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i` (no-op past the end).
    pub fn clear(&mut self, i: usize) {
        if i < self.len {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Append a bit at the end.
    pub fn push(&mut self, bit: bool) {
        let i = self.len;
        self.len += 1;
        let need = self.len.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        if bit {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Union with `other` in place; the result length is the max of both.
    pub fn union_with(&mut self, other: &Bitmap) {
        if other.len > self.len {
            self.len = other.len;
            self.words.resize(self.len.div_ceil(64), 0);
        }
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// Intersect with `other` in place; bits past `other`'s end clear.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Iterate over the indices of set bits, ascending.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Serialize: `len` as u64 LE, then the words.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.words.len() * 8);
        buf.put_u64_le(self.len as u64);
        for w in &self.words {
            buf.put_u64_le(*w);
        }
        buf.freeze()
    }

    /// Deserialize from [`to_bytes`](Bitmap::to_bytes) output.
    pub fn from_bytes(mut data: &[u8]) -> ColumnarResult<Self> {
        if data.len() < 8 {
            return Err(ColumnarError::corrupt("bitmap too short"));
        }
        let len = data.get_u64_le() as usize;
        let want_words = len.div_ceil(64);
        if data.len() != want_words * 8 {
            return Err(ColumnarError::corrupt(format!(
                "bitmap of {len} bits should have {want_words} words, found {} bytes",
                data.len()
            )));
        }
        let mut words = Vec::with_capacity(want_words);
        for _ in 0..want_words {
            words.push(data.get_u64_le());
        }
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        Ok(bm)
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        // A word at a time: masks are built from whole value vectors.
        let mut b = Bitmap::new();
        let mut word = 0u64;
        for bit in iter {
            word |= u64::from(bit) << (b.len % 64);
            b.len += 1;
            if b.len.is_multiple_of(64) {
                b.words.push(word);
                word = 0;
            }
        }
        if !b.len.is_multiple_of(64) {
            b.words.push(word);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::with_len(10);
        assert!(!b.get(3));
        b.set(3);
        assert!(b.get(3));
        b.clear(3);
        assert!(!b.get(3));
        assert_eq!(b.len(), 10);
        b.set(100); // grows
        assert_eq!(b.len(), 101);
        assert!(b.get(100));
        assert!(!b.get(99));
        assert!(!b.get(5000)); // out of range reads clear
    }

    #[test]
    fn all_set_counts_exactly() {
        for len in [0, 1, 63, 64, 65, 130] {
            let b = Bitmap::all_set(len);
            assert_eq!(b.count_set(), len, "len={len}");
        }
    }

    #[test]
    fn union_extends() {
        let mut a = Bitmap::with_len(4);
        a.set(1);
        let mut b = Bitmap::with_len(80);
        b.set(70);
        a.union_with(&b);
        assert_eq!(a.len(), 80);
        assert!(a.get(1) && a.get(70));
        assert_eq!(a.count_set(), 2);
    }

    #[test]
    fn iter_set_ascending() {
        let mut b = Bitmap::new();
        for i in [5usize, 0, 64, 63, 128] {
            b.set(i);
        }
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![0, 5, 63, 64, 128]);
    }

    #[test]
    fn from_iter_round_trip() {
        let bits = [true, false, true, true, false];
        let b: Bitmap = bits.iter().copied().collect();
        assert_eq!(b.len(), 5);
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(b.get(i), bit);
        }
    }

    #[test]
    fn rejects_corrupt_bytes() {
        assert!(Bitmap::from_bytes(b"abc").is_err());
        let mut good = Bitmap::with_len(100);
        good.set(42);
        let mut raw = good.to_bytes().to_vec();
        raw.pop();
        assert!(Bitmap::from_bytes(&raw).is_err());
    }

    proptest! {
        #[test]
        fn serde_round_trip(indices in proptest::collection::vec(0usize..500, 0..50)) {
            let mut b = Bitmap::new();
            for &i in &indices {
                b.set(i);
            }
            let back = Bitmap::from_bytes(&b.to_bytes()).unwrap();
            prop_assert_eq!(&back, &b);
            prop_assert_eq!(back.count_set(), b.count_set());
        }

        #[test]
        fn count_matches_iter(indices in proptest::collection::vec(0usize..300, 0..40)) {
            let mut b = Bitmap::new();
            for &i in &indices {
                b.set(i);
            }
            prop_assert_eq!(b.iter_set().count(), b.count_set());
        }
    }
}
