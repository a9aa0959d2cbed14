//! The binary codec of every blob the engine writes for itself: the footers
//! and chunk payloads of `.pcf` data files, transaction manifests, lst
//! checkpoints, and the payloads of commit-log and catalog checkpoint
//! frames. JSON is kept only where another reader looks (the published
//! Delta log, `/health`, the metrics snapshot). `polaris-lst` re-exports
//! this module for the crates above it.
//!
//! Four encodings, nothing else:
//!
//! * unsigned integers (lengths, counts, tags and ids included) as LEB128
//!   varints — seven bits a byte, low group first;
//! * signed integers zig-zag mapped onto unsigned ones first, so small
//!   magnitudes of either sign stay short;
//! * `f64` as its IEEE-754 bits, eight bytes little-endian, so `-0.0` and
//!   every NaN payload survive;
//! * strings as a varint byte length followed by their UTF-8 bytes.
//!
//! A record is its fields in declaration order; a variant is a varint tag,
//! then its fields; a list is a varint count, then its elements. There is no
//! header and no padding, so records written separately concatenate into a
//! valid run of records. Where a list's strings share long prefixes (one
//! table's manifest paths), a string may be *front-coded* against the one
//! before it: the byte length of the prefix they share, then the rest as a
//! string ([`put_str_after`]).
//!
//! [`Reader`] is the one way back. It checks every length against the bytes
//! that remain before it slices or allocates, never panics, and reports a
//! failure as a [`DecodeError`] naming the byte offset it stopped at. Its
//! primitives and the `put_*` writers are `#[inline]`: the crates that
//! decode manifests and log frames call them from other crates, in loops.

use std::fmt;

/// Why a decode stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset, from the start of the decoded buffer, of the field that
    /// failed.
    pub offset: usize,
    /// What was wrong there.
    pub detail: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for decoding.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// A type with a binary encoding: [`encode`](Codec::encode) appends it to a
/// buffer, [`decode`](Codec::decode) reads it back.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Read one value, advancing `r` past it.
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self>;
}

/// Append `v` as a LEB128 varint.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append `v` zig-zag mapped, as a varint.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append the bits of `v`, little-endian.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append `s` as its byte length, then its bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append `s` front-coded against `prev`: the length of the prefix they
/// share, cut back to a character boundary, then the rest of `s`.
pub fn put_str_after(out: &mut Vec<u8>, prev: &str, s: &str) {
    let mut shared = prev
        .bytes()
        .zip(s.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    while !s.is_char_boundary(shared) {
        shared -= 1;
    }
    put_u64(out, shared as u64);
    put_str(out, &s[shared..]);
}

/// A bounds-checked cursor over an encoded buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn error(&self, detail: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            detail,
        }
    }

    /// Fail unless every byte has been consumed.
    pub fn finish(&self) -> DecodeResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.error("trailing bytes"))
        }
    }

    /// Rewind to `start` and fail there: every error names the offset of
    /// the field it rejects, not of the byte inside it that gave it away.
    fn fail_at<T>(&mut self, start: usize, detail: &'static str) -> DecodeResult<T> {
        self.pos = start;
        Err(self.error(detail))
    }

    /// A LEB128 varint of at most ten bytes that fits in 64 bits. The
    /// position moves only once the whole varint has been read, so a failure
    /// names its first byte without a rewind. Always inlined: a chunk
    /// decoder calls it once a value.
    #[inline(always)]
    pub fn u64(&mut self) -> DecodeResult<u64> {
        let mut pos = self.pos;
        let mut v = 0u64;
        let mut shift = 0;
        while let Some(&byte) = self.buf.get(pos) {
            pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                // The tenth byte holds bit 63 alone.
                if shift == 63 && byte > 1 {
                    return Err(self.error("varint overflows 64 bits"));
                }
                self.pos = pos;
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.error("varint longer than ten bytes"));
            }
        }
        Err(self.error("varint runs past the end"))
    }

    /// A varint that fits in 32 bits.
    #[inline]
    pub fn u32(&mut self) -> DecodeResult<u32> {
        let start = self.pos;
        match u32::try_from(self.u64()?) {
            Ok(v) => Ok(v),
            Err(_) => self.fail_at(start, "value overflows 32 bits"),
        }
    }

    /// A zig-zag varint.
    #[inline]
    pub fn i64(&mut self) -> DecodeResult<i64> {
        let v = self.u64()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// A zig-zag varint that fits in 32 bits.
    #[inline]
    pub fn i32(&mut self) -> DecodeResult<i32> {
        let start = self.pos;
        match i32::try_from(self.i64()?) {
            Ok(v) => Ok(v),
            Err(_) => self.fail_at(start, "value overflows 32 bits"),
        }
    }

    /// Eight little-endian bytes of `f64` bits.
    #[inline]
    pub fn f64(&mut self) -> DecodeResult<f64> {
        let Some(bytes) = self.buf.get(self.pos..self.pos + 8) else {
            return Err(self.error("float runs past the end"));
        };
        let mut bits = [0u8; 8];
        bits.copy_from_slice(bytes);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// The next `n` bytes, borrowed from the buffer.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.error("bytes run past the end"));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// A length-prefixed UTF-8 string, borrowed from the buffer.
    #[inline]
    pub fn str(&mut self) -> DecodeResult<&'a str> {
        let start = self.pos;
        let len = self.u64()?;
        let Some(bytes) = usize::try_from(len).ok().and_then(|n| self.bytes(n).ok()) else {
            return self.fail_at(start, "string runs past the end");
        };
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => self.fail_at(start, "string is not UTF-8"),
        }
    }

    /// A string front-coded against `prev` (see [`put_str_after`]).
    pub fn str_after(&mut self, prev: &str) -> DecodeResult<String> {
        let start = self.pos;
        let shared = self.u64()?;
        let Some(head) = usize::try_from(shared).ok().and_then(|n| prev.get(..n)) else {
            return self.fail_at(start, "shared prefix is not one of the previous string");
        };
        let tail = self.str()?;
        let mut s = String::with_capacity(head.len() + tail.len());
        s.push_str(head);
        s.push_str(tail);
        Ok(s)
    }

    /// The count prefix of a list whose every element takes at least one
    /// byte: checked against the bytes that remain, so a caller may size an
    /// allocation by it.
    #[inline]
    pub fn count(&mut self) -> DecodeResult<usize> {
        let start = self.pos;
        match usize::try_from(self.u64()?) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => self.fail_at(start, "count exceeds the bytes that remain"),
        }
    }

    /// A variant tag below `variants`.
    #[inline]
    pub fn tag(&mut self, variants: u64) -> DecodeResult<u64> {
        let start = self.pos;
        match self.u64()? {
            t if t < variants => Ok(t),
            _ => self.fail_at(start, "unknown tag"),
        }
    }

    /// A boolean: tag 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> DecodeResult<bool> {
        Ok(self.tag(2)? == 1)
    }
}

/// Decode a buffer holding exactly one `T`.
pub fn decode_all<T: Codec>(buf: &[u8]) -> DecodeResult<T> {
    let mut r = Reader::new(buf);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        r.u64()
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        r.str().map(str::to_owned)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

/// `None` is tag 0; `Some(v)` is tag 1, then `v`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => put_u64(out, 0),
            Some(v) => {
                put_u64(out, 1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        match r.tag(2)? {
            0 => Ok(None),
            _ => T::decode(r).map(Some),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    #[test]
    fn varints_are_leb128() {
        assert_eq!(encoded(|o| put_u64(o, 0)), [0x00]);
        assert_eq!(encoded(|o| put_u64(o, 127)), [0x7F]);
        assert_eq!(encoded(|o| put_u64(o, 128)), [0x80, 0x01]);
        assert_eq!(encoded(|o| put_u64(o, 300)), [0xAC, 0x02]);
        let max = encoded(|o| put_u64(o, u64::MAX));
        assert_eq!(max.len(), 10);
        assert_eq!(Reader::new(&max).u64(), Ok(u64::MAX));
    }

    #[test]
    fn signed_ints_zig_zag() {
        for (v, zz) in [(0i64, 0u8), (-1, 1), (1, 2), (-2, 3), (63, 126), (-64, 127)] {
            assert_eq!(encoded(|o| put_i64(o, v)), [zz], "{v}");
        }
        for v in [i64::MIN, i64::MAX, -1_000_000, 1_000_000] {
            let bytes = encoded(|o| put_i64(o, v));
            assert_eq!(Reader::new(&bytes).i64(), Ok(v));
        }
    }

    #[test]
    fn floats_keep_their_bits() {
        for v in [
            0.0f64,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            1.5,
            f64::from_bits(0x7FF0_0000_0000_0001),
        ] {
            let bytes = encoded(|o| put_f64(o, v));
            let back = Reader::new(&bytes).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn failures_name_their_offset() {
        // A string whose length runs past the end, after a one-byte field.
        let mut r = Reader::new(&[0x05, 0x09, b'a']);
        assert_eq!(r.u64(), Ok(5));
        assert_eq!(r.str().unwrap_err().offset, 1);
        // A varint with an eleventh byte, and one whose tenth overflows.
        let long = [0xFFu8; 11];
        assert!(Reader::new(&long).u64().is_err());
        let mut over = [0xFFu8; 10];
        over[9] = 0x02;
        assert_eq!(
            Reader::new(&over).u64().unwrap_err().detail,
            "varint overflows 64 bits"
        );
        // Invalid UTF-8, an unknown tag, trailing bytes.
        assert!(Reader::new(&[0x01, 0xFF]).str().is_err());
        assert_eq!(Reader::new(&[0x07]).tag(3).unwrap_err().offset, 0);
        assert_eq!(decode_all::<u64>(&[0x01, 0x02]).unwrap_err().offset, 1);
    }

    #[test]
    fn counts_are_checked_against_the_rest() {
        // Claims u64::MAX elements with none present: no allocation tried.
        let bytes = encoded(|o| put_u64(o, u64::MAX));
        assert!(decode_all::<Vec<u64>>(&bytes).is_err());
        let bytes = encoded(|o| put_u64(o, u64::from(u32::MAX)));
        assert!(decode_all::<Vec<String>>(&bytes).is_err());
    }

    #[test]
    fn front_coding_shares_prefixes_at_char_boundaries() {
        let mut out = Vec::new();
        put_str_after(&mut out, "lake/t/_log/txn-19-1", "lake/t/_log/txn-20-1");
        assert_eq!(out, [16, 4, b'2', b'0', b'-', b'1']);
        // "é" and "ê" share their first byte: the prefix stops before both.
        out.clear();
        put_str_after(&mut out, "aé", "aê");
        assert_eq!(out[0], 1);
        let mut r = Reader::new(&out);
        assert_eq!(r.str_after("aé").as_deref(), Ok("aê"));
        // A claimed prefix longer than the previous string, or inside a
        // character of it, is refused.
        assert!(Reader::new(&[3, 0]).str_after("ab").is_err());
        assert!(Reader::new(&[2, 0]).str_after("aé").is_err());
    }

    #[test]
    fn composites_round_trip() {
        let value: Vec<(u64, Option<String>)> = vec![
            (0, None),
            (u64::MAX, Some(String::new())),
            (7, Some("ünïcødé/päth".to_owned())),
        ];
        let bytes = encoded(|o| value.encode(o));
        assert_eq!(decode_all::<Vec<(u64, Option<String>)>>(&bytes), Ok(value));
    }
}
