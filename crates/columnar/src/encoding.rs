//! Low-level column encodings: varint/zigzag, delta, run-length,
//! dictionary, and bit-packing.
//!
//! The writer picks an encoding per column chunk based on the data
//! (see [`file`](crate::file)); every encoding here is self-contained and
//! round-trips exactly.

use crate::hash::KeyMap;
use crate::{ColumnarError, ColumnarResult, StrVec};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Write an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint.
pub fn get_uvarint(buf: &mut Bytes) -> ColumnarResult<u64> {
    let mut pos = 0;
    let v = get_uvarint_at(buf.as_ref(), &mut pos);
    buf.advance(pos);
    v
}

/// [`get_uvarint`] over a slice, from `*pos` on: a chunk decoder reads
/// its whole payload this way and advances the buffer once.
fn get_uvarint_at(bytes: &[u8], pos: &mut usize) -> ColumnarResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(ColumnarError::corrupt("truncated varint"));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(ColumnarError::corrupt("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// ZigZag-encode a signed integer so small magnitudes get small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode `i64` values as zigzag-varint deltas from the previous value.
/// Effective for sorted or clustered columns (keys, dates).
pub fn encode_delta_i64(values: &[i64], buf: &mut BytesMut) {
    put_uvarint(buf, values.len() as u64);
    let mut prev = 0i64;
    for &v in values {
        put_uvarint(buf, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
}

/// Decode [`encode_delta_i64`] output.
pub fn decode_delta_i64(buf: &mut Bytes) -> ColumnarResult<Vec<i64>> {
    let (bytes, mut pos) = (buf.as_ref(), 0);
    let n = get_uvarint_at(bytes, &mut pos)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    let mut prev = 0i64;
    for _ in 0..n {
        let delta = unzigzag(get_uvarint_at(bytes, &mut pos)?);
        prev = prev.wrapping_add(delta);
        out.push(prev);
    }
    buf.advance(pos);
    Ok(out)
}

/// Run-length encode `i64` values as (value, run) pairs.
/// Effective for flag/status columns and mostly-constant columns.
pub fn encode_rle_i64(values: &[i64], buf: &mut BytesMut) {
    put_uvarint(buf, values.len() as u64);
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        put_uvarint(buf, zigzag(v));
        put_uvarint(buf, run as u64);
        i += run;
    }
}

/// Decode [`encode_rle_i64`] output.
pub fn decode_rle_i64(buf: &mut Bytes) -> ColumnarResult<Vec<i64>> {
    let n = get_uvarint(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    while out.len() < n {
        let v = unzigzag(get_uvarint(buf)?);
        let run = get_uvarint(buf)? as usize;
        if run == 0 || out.len() + run > n {
            return Err(ColumnarError::corrupt("bad RLE run length"));
        }
        out.extend(std::iter::repeat_n(v, run));
    }
    Ok(out)
}

/// Count the number of runs (used by the writer's encoding heuristic).
pub fn run_count_i64(values: &[i64]) -> usize {
    if values.is_empty() {
        return 0;
    }
    1 + values.windows(2).filter(|w| w[0] != w[1]).count()
}

/// Encode `f64` values verbatim (LE bits).
pub fn encode_plain_f64(values: &[f64], buf: &mut BytesMut) {
    put_uvarint(buf, values.len() as u64);
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// Decode [`encode_plain_f64`] output.
pub fn decode_plain_f64(buf: &mut Bytes) -> ColumnarResult<Vec<f64>> {
    let n = get_uvarint(buf)? as usize;
    if buf.remaining() < n * 8 {
        return Err(ColumnarError::corrupt("truncated f64 column"));
    }
    Ok((0..n).map(|_| buf.get_f64_le()).collect())
}

/// Encode strings as length-prefixed UTF-8, back to back.
pub fn encode_plain_str(values: &StrVec, buf: &mut BytesMut) {
    put_uvarint(buf, values.len() as u64);
    for v in values.iter() {
        put_uvarint(buf, v.len() as u64);
        buf.put_slice(v.as_bytes());
    }
}

/// One length-prefixed UTF-8 string, borrowed from `bytes` at `*pos`.
fn get_str<'a>(bytes: &'a [u8], pos: &mut usize, what: &str) -> ColumnarResult<&'a str> {
    let len = get_uvarint_at(bytes, pos)? as usize;
    let raw = pos
        .checked_add(len)
        .and_then(|end| bytes.get(*pos..end))
        .ok_or_else(|| ColumnarError::corrupt(format!("truncated {what}")))?;
    *pos += len;
    std::str::from_utf8(raw).map_err(|_| ColumnarError::corrupt(format!("invalid UTF-8 in {what}")))
}

/// Decode [`encode_plain_str`] output.
pub fn decode_plain_str(buf: &mut Bytes) -> ColumnarResult<StrVec> {
    let (bytes, mut pos) = (buf.as_ref(), 0);
    let n = get_uvarint_at(bytes, &mut pos)? as usize;
    let mut out = StrVec::with_capacity(n.min(1 << 20), bytes.len() - pos);
    for _ in 0..n {
        out.push(get_str(bytes, &mut pos, "string payload")?);
    }
    buf.advance(pos);
    Ok(out)
}

/// Dictionary-encode strings: unique values once, then u32 codes.
/// Effective for low-cardinality columns (flags, nations, categories).
///
/// The dictionary is built in one pass, and given up as soon as it holds
/// `dict_ratio × len` distinct values (or the column is empty): then
/// nothing is written, the result is `false`, and the caller writes the
/// strings plain. Codes go to values in first-seen order.
pub fn encode_dict_str(values: &StrVec, dict_ratio: f64, buf: &mut BytesMut) -> bool {
    if values.is_empty() {
        return false;
    }
    let limit = dict_ratio * values.len() as f64;
    let mut dict: Vec<&str> = Vec::new();
    let mut codes = Vec::with_capacity(values.len());
    let mut index = KeyMap::default();
    for v in values.iter() {
        let code = *index.entry(v).or_insert_with(|| {
            dict.push(v);
            dict.len() - 1
        });
        if (dict.len() as f64) < limit {
            codes.push(code as u64);
        } else {
            return false;
        }
    }
    put_uvarint(buf, dict.len() as u64);
    for d in &dict {
        put_uvarint(buf, d.len() as u64);
        buf.put_slice(d.as_bytes());
    }
    put_uvarint(buf, codes.len() as u64);
    for c in codes {
        put_uvarint(buf, c);
    }
    true
}

/// Decode [`encode_dict_str`] output.
pub fn decode_dict_str(buf: &mut Bytes) -> ColumnarResult<StrVec> {
    let (bytes, mut pos) = (buf.as_ref(), 0);
    let dict_len = get_uvarint_at(bytes, &mut pos)? as usize;
    let mut dict = Vec::with_capacity(dict_len.min(1 << 20));
    for _ in 0..dict_len {
        dict.push(get_str(bytes, &mut pos, "dictionary entry")?);
    }
    let n = get_uvarint_at(bytes, &mut pos)? as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let code = get_uvarint_at(bytes, &mut pos)? as usize;
        let entry = dict
            .get(code)
            .ok_or_else(|| ColumnarError::corrupt("dictionary code out of range"))?;
        rows.push(*entry);
    }
    let mut out = StrVec::with_capacity(rows.len(), rows.iter().map(|r| r.len()).sum());
    out.extend(rows);
    buf.advance(pos);
    Ok(out)
}

/// Bit-pack booleans, 8 per byte, LSB first.
pub fn encode_bool(values: &[bool], buf: &mut BytesMut) {
    put_uvarint(buf, values.len() as u64);
    let mut byte = 0u8;
    for (i, &v) in values.iter().enumerate() {
        if v {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.put_u8(byte);
            byte = 0;
        }
    }
    if !values.len().is_multiple_of(8) {
        buf.put_u8(byte);
    }
}

/// Decode [`encode_bool`] output.
pub fn decode_bool(buf: &mut Bytes) -> ColumnarResult<Vec<bool>> {
    let n = get_uvarint(buf)? as usize;
    let bytes_needed = n.div_ceil(8);
    if buf.remaining() < bytes_needed {
        return Err(ColumnarError::corrupt("truncated bool column"));
    }
    let raw = buf.split_to(bytes_needed);
    Ok((0..n).map(|i| raw[i / 8] >> (i % 8) & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_uvarint(&mut b).unwrap(), v);
            assert!(b.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trip_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // small magnitudes map to small codes
        assert!(zigzag(-1) < 4);
        assert!(zigzag(1) < 4);
    }

    #[test]
    fn truncated_inputs_error() {
        let mut b = Bytes::from_static(&[0x80]);
        assert!(get_uvarint(&mut b).is_err());
        let mut buf = BytesMut::new();
        encode_plain_str(&["hello"].into_iter().collect(), &mut buf);
        let full = buf.freeze();
        let mut cut = full.slice(..full.len() - 2);
        assert!(decode_plain_str(&mut cut).is_err());
    }

    #[test]
    fn rle_compresses_runs() {
        let values = vec![7i64; 10_000];
        let mut rle = BytesMut::new();
        encode_rle_i64(&values, &mut rle);
        assert!(
            rle.len() < 16,
            "constant column should be tiny, got {}",
            rle.len()
        );
        assert_eq!(run_count_i64(&values), 1);
        assert_eq!(run_count_i64(&[1, 1, 2, 2, 3]), 3);
        assert_eq!(run_count_i64(&[]), 0);
    }

    #[test]
    fn dict_compresses_low_cardinality() {
        let values: StrVec = (0..1000).map(|i| format!("cat-{}", i % 4)).collect();
        let mut dict = BytesMut::new();
        assert!(encode_dict_str(&values, 0.5, &mut dict));
        let mut plain = BytesMut::new();
        encode_plain_str(&values, &mut plain);
        assert!(dict.len() < plain.len() / 3);
    }

    /// The writer's rule, `distinct < dict_ratio × len`, decided in the
    /// one pass: exactly at the limit, or empty, nothing is written.
    #[test]
    fn dict_gives_up_at_the_ratio() {
        let four_of_eight: StrVec = ["a", "b", "a", "c", "a", "d", "a", "a"]
            .into_iter()
            .collect();
        let mut buf = BytesMut::new();
        assert!(!encode_dict_str(&four_of_eight, 0.5, &mut buf));
        assert!(!encode_dict_str(&StrVec::default(), 0.5, &mut buf));
        assert!(!encode_dict_str(&four_of_eight, f64::NAN, &mut buf));
        assert!(buf.is_empty());
        assert!(encode_dict_str(&four_of_eight, 0.51, &mut buf));
        assert_eq!(decode_dict_str(&mut buf.freeze()).unwrap(), four_of_eight);
    }

    #[test]
    fn invalid_dict_code_rejected() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 1); // dict of one entry
        put_uvarint(&mut buf, 1);
        buf.put_slice(b"a");
        put_uvarint(&mut buf, 1); // one code
        put_uvarint(&mut buf, 9); // out of range
        assert!(decode_dict_str(&mut buf.freeze()).is_err());
    }

    proptest! {
        #[test]
        fn delta_round_trip(values in proptest::collection::vec(any::<i64>(), 0..200)) {
            let mut buf = BytesMut::new();
            encode_delta_i64(&values, &mut buf);
            let decoded = decode_delta_i64(&mut buf.freeze()).unwrap();
            prop_assert_eq!(decoded, values);
        }

        #[test]
        fn rle_round_trip(values in proptest::collection::vec(-5i64..5, 0..300)) {
            let mut buf = BytesMut::new();
            encode_rle_i64(&values, &mut buf);
            let decoded = decode_rle_i64(&mut buf.freeze()).unwrap();
            prop_assert_eq!(decoded, values);
        }

        #[test]
        fn f64_round_trip(values in proptest::collection::vec(any::<f64>(), 0..100)) {
            let mut buf = BytesMut::new();
            encode_plain_f64(&values, &mut buf);
            let decoded = decode_plain_f64(&mut buf.freeze()).unwrap();
            prop_assert_eq!(decoded.len(), values.len());
            for (d, v) in decoded.iter().zip(values.iter()) {
                prop_assert_eq!(d.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn str_round_trips(values in proptest::collection::vec(".{0,20}", 0..50)) {
            let values: StrVec = values.iter().collect();
            let mut plain = BytesMut::new();
            encode_plain_str(&values, &mut plain);
            prop_assert_eq!(&decode_plain_str(&mut plain.freeze()).unwrap(), &values);
            let mut dict = BytesMut::new();
            // Every column but an empty one has fewer than 2 × len values.
            prop_assert_eq!(encode_dict_str(&values, 2.0, &mut dict), !values.is_empty());
            if !values.is_empty() {
                prop_assert_eq!(&decode_dict_str(&mut dict.freeze()).unwrap(), &values);
            }
        }

        #[test]
        fn bool_round_trip(values in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut buf = BytesMut::new();
            encode_bool(&values, &mut buf);
            prop_assert_eq!(decode_bool(&mut buf.freeze()).unwrap(), values);
        }
    }
}
