//! The value vector of a `Utf8` column.

use std::fmt;
use std::ops::Index;

/// Strings stored back to back in one buffer and addressed by their end
/// offsets, so a column of them is two allocations however many rows it
/// has, and gathering, decoding and comparing never build a `String`.
///
/// Reads like a `Vec<String>` where the engine needs it to: `len`,
/// `values[i]` (a `str`), `iter`, `push`, `collect` and `extend`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct StrVec {
    bytes: String,
    /// `ends[i]` is where string `i` stops in `bytes`; it starts where
    /// string `i - 1` stopped.
    ends: Vec<usize>,
}

impl StrVec {
    /// An empty vector with room for `rows` strings of `bytes` in total.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        StrVec {
            bytes: String::with_capacity(bytes),
            ends: Vec::with_capacity(rows),
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Append one string.
    pub fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
    }

    /// The strings in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        (0..self.len()).map(|i| &self[i])
    }
}

impl Index<usize> for StrVec {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

impl<S: AsRef<str>> Extend<S> for StrVec {
    fn extend<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.ends.reserve(iter.size_hint().0);
        for s in iter {
            self.push(s.as_ref());
        }
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrVec {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut out = StrVec::default();
        out.extend(iter);
        out
    }
}

impl fmt::Debug for StrVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_like_a_vector_of_strings() {
        let mut v: StrVec = ["ab", "", "çd"].into_iter().collect();
        v.push("e");
        v.extend([String::from("fg")]);
        assert_eq!(v.len(), 5);
        assert_eq!(
            (&v[0], &v[1], &v[2], &v[3], &v[4]),
            ("ab", "", "çd", "e", "fg")
        );
        assert_eq!(v.iter().collect::<Vec<_>>(), ["ab", "", "çd", "e", "fg"]);
        assert_eq!(format!("{v:?}"), r#"["ab", "", "çd", "e", "fg"]"#);
        assert_eq!(v, v.iter().collect::<StrVec>());
        assert!(StrVec::default().is_empty());
    }

    #[test]
    #[should_panic]
    fn index_past_the_end_panics() {
        let v: StrVec = ["a"].into_iter().collect();
        let _ = &v[1];
    }
}
