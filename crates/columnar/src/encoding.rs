//! Column chunk encodings: delta, run-length, dictionary, bit-packing and
//! plain, each written and read with the shared [`codec`](crate::codec)
//! primitives (varints, zig-zag, `f64` bits, length-prefixed strings).
//!
//! The writer picks an encoding per column chunk based on the data
//! (see [`file`](crate::file)); every encoding here is self-contained and
//! round-trips exactly. Every chunk starts with its value count, and each
//! decoder checks that count against the row group's row count before it
//! allocates, so a chunk can never claim more values than its footer does.

use crate::codec::{put_f64, put_i64, put_str, put_u64, Reader};
use crate::hash::KeyMap;
use crate::{ColumnarError, ColumnarResult, StrVec};

/// The count prefix of a chunk, which must be the group's `rows`.
fn count(r: &mut Reader<'_>, rows: usize) -> ColumnarResult<usize> {
    match r.u64()? {
        n if n == rows as u64 => Ok(rows),
        n => Err(ColumnarError::LengthMismatch {
            expected: rows,
            found: n as usize,
        }),
    }
}

/// Encode `i64` values as zigzag-varint deltas from the previous value.
/// Effective for sorted or clustered columns (keys, dates).
pub fn encode_delta_i64(values: &[i64], out: &mut Vec<u8>) {
    put_u64(out, values.len() as u64);
    let mut prev = 0i64;
    for &v in values {
        put_i64(out, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Decode [`encode_delta_i64`] output.
pub fn decode_delta_i64(r: &mut Reader<'_>, rows: usize) -> ColumnarResult<Vec<i64>> {
    let n = count(r, rows)?;
    let mut out = Vec::with_capacity(n);
    // A copy that nothing else sees keeps its position in a register
    // across `push`, which may unwind.
    let mut local = r.clone();
    let mut prev = 0i64;
    for _ in 0..n {
        prev = prev.wrapping_add(local.i64()?);
        out.push(prev);
    }
    *r = local;
    Ok(out)
}

/// Run-length encode `i64` values as (value, run) pairs.
/// Effective for flag/status columns and mostly-constant columns.
pub fn encode_rle_i64(values: &[i64], out: &mut Vec<u8>) {
    put_u64(out, values.len() as u64);
    for run in values.chunk_by(|a, b| a == b) {
        put_i64(out, run[0]);
        put_u64(out, run.len() as u64);
    }
}

/// Decode [`encode_rle_i64`] output.
pub fn decode_rle_i64(r: &mut Reader<'_>, rows: usize) -> ColumnarResult<Vec<i64>> {
    let n = count(r, rows)?;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = r.i64()?;
        let run = r.u64()?;
        if run == 0 || run > (n - out.len()) as u64 {
            return Err(ColumnarError::corrupt("bad RLE run length"));
        }
        out.extend(std::iter::repeat_n(v, run as usize));
    }
    Ok(out)
}

/// Count the number of runs (used by the writer's encoding heuristic).
pub fn run_count_i64(values: &[i64]) -> usize {
    values.chunk_by(|a, b| a == b).count()
}

/// Encode `f64` values verbatim (LE bits).
pub fn encode_plain_f64(values: &[f64], out: &mut Vec<u8>) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_f64(out, v);
    }
}

/// Decode [`encode_plain_f64`] output.
pub fn decode_plain_f64(r: &mut Reader<'_>, rows: usize) -> ColumnarResult<Vec<f64>> {
    let n = count(r, rows)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f64()?);
    }
    Ok(out)
}

/// Encode strings as length-prefixed UTF-8, back to back.
pub fn encode_plain_str(values: &StrVec, out: &mut Vec<u8>) {
    put_u64(out, values.len() as u64);
    for v in values.iter() {
        put_str(out, v);
    }
}

/// Decode [`encode_plain_str`] output.
pub fn decode_plain_str(r: &mut Reader<'_>, rows: usize) -> ColumnarResult<StrVec> {
    let n = count(r, rows)?;
    let mut out = StrVec::with_capacity(n, r.remaining());
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

/// Dictionary-encode strings: unique values once, then u32 codes.
/// Effective for low-cardinality columns (flags, nations, categories).
///
/// The dictionary is built in one pass, and given up as soon as it holds
/// `dict_ratio × len` distinct values (or the column is empty): then
/// nothing is written, the result is `false`, and the caller writes the
/// strings plain. Codes go to values in first-seen order.
pub fn encode_dict_str(values: &StrVec, dict_ratio: f64, out: &mut Vec<u8>) -> bool {
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
    put_u64(out, dict.len() as u64);
    for d in &dict {
        put_str(out, d);
    }
    put_u64(out, codes.len() as u64);
    for c in codes {
        put_u64(out, c);
    }
    true
}

/// Decode [`encode_dict_str`] output.
pub fn decode_dict_str(r: &mut Reader<'_>, rows: usize) -> ColumnarResult<StrVec> {
    let dict_len = r.count()?;
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(r.str()?);
    }
    let n = count(r, rows)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = dict
            .get(r.u64()? as usize)
            .ok_or_else(|| ColumnarError::corrupt("dictionary code out of range"))?;
        rows.push(*entry);
    }
    let mut out = StrVec::with_capacity(rows.len(), rows.iter().map(|r| r.len()).sum());
    out.extend(rows);
    Ok(out)
}

/// Bit-pack booleans, 8 per byte, LSB first.
pub fn encode_bool(values: &[bool], out: &mut Vec<u8>) {
    put_u64(out, values.len() as u64);
    out.extend(values.chunks(8).map(|byte| {
        byte.iter()
            .enumerate()
            .fold(0u8, |acc, (i, &v)| acc | u8::from(v) << i)
    }));
}

/// Decode [`encode_bool`] output.
pub fn decode_bool(r: &mut Reader<'_>, rows: usize) -> ColumnarResult<Vec<bool>> {
    let n = count(r, rows)?;
    let raw = r.bytes(n.div_ceil(8))?;
    Ok((0..n).map(|i| raw[i / 8] >> (i % 8) & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encoded(f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    /// Decode all of `bytes` with `decode`, expecting `rows` values.
    fn decoded<T>(
        bytes: &[u8],
        rows: usize,
        decode: impl FnOnce(&mut Reader<'_>, usize) -> ColumnarResult<T>,
    ) -> ColumnarResult<T> {
        let mut r = Reader::new(bytes);
        let value = decode(&mut r, rows)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn truncated_inputs_error() {
        let values: StrVec = ["hello"].into_iter().collect();
        let full = encoded(|o| encode_plain_str(&values, o));
        assert!(decoded(&full[..full.len() - 2], 1, decode_plain_str).is_err());
        let bools = encoded(|o| encode_bool(&[true; 9], o));
        assert!(decoded(&bools[..bools.len() - 1], 9, decode_bool).is_err());
    }

    /// A count other than the group's rows is refused before anything is
    /// sized by it, and a run may not reach past the count.
    #[test]
    fn counts_must_match_the_group() {
        let mut f64s = encoded(|o| put_u64(o, 1 << 61));
        f64s.extend([0; 8]);
        assert!(matches!(
            decoded(&f64s, 1, decode_plain_f64),
            Err(ColumnarError::LengthMismatch { expected: 1, .. })
        ));
        let ints = encoded(|o| encode_delta_i64(&[1, 2, 3], o));
        assert!(decoded(&ints, 2, decode_delta_i64).is_err());
        // Three rows, then a run of u64::MAX, then one of zero.
        for run in [u64::MAX, 4, 0] {
            let rle = encoded(|o| {
                put_u64(o, 3);
                put_i64(o, 7);
                put_u64(o, run);
            });
            assert!(decoded(&rle, 3, decode_rle_i64).is_err(), "run {run}");
        }
    }

    #[test]
    fn rle_compresses_runs() {
        let values = vec![7i64; 10_000];
        let rle = encoded(|o| encode_rle_i64(&values, o));
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
        let mut dict = Vec::new();
        assert!(encode_dict_str(&values, 0.5, &mut dict));
        let plain = encoded(|o| encode_plain_str(&values, o));
        assert!(dict.len() < plain.len() / 3);
    }

    /// The writer's rule, `distinct < dict_ratio × len`, decided in the
    /// one pass: exactly at the limit, or empty, nothing is written.
    #[test]
    fn dict_gives_up_at_the_ratio() {
        let four_of_eight: StrVec = ["a", "b", "a", "c", "a", "d", "a", "a"]
            .into_iter()
            .collect();
        let mut buf = Vec::new();
        assert!(!encode_dict_str(&four_of_eight, 0.5, &mut buf));
        assert!(!encode_dict_str(&StrVec::default(), 0.5, &mut buf));
        assert!(!encode_dict_str(&four_of_eight, f64::NAN, &mut buf));
        assert!(buf.is_empty());
        assert!(encode_dict_str(&four_of_eight, 0.51, &mut buf));
        assert_eq!(decoded(&buf, 8, decode_dict_str).unwrap(), four_of_eight);
    }

    #[test]
    fn invalid_dict_code_rejected() {
        let buf = encoded(|o| {
            put_u64(o, 1); // dict of one entry
            put_str(o, "a");
            put_u64(o, 1); // one code
            put_u64(o, 9); // out of range
        });
        assert!(decoded(&buf, 1, decode_dict_str).is_err());
    }

    proptest! {
        #[test]
        fn delta_round_trip(values in proptest::collection::vec(any::<i64>(), 0..200)) {
            let buf = encoded(|o| encode_delta_i64(&values, o));
            prop_assert_eq!(decoded(&buf, values.len(), decode_delta_i64).unwrap(), values);
        }

        #[test]
        fn rle_round_trip(values in proptest::collection::vec(-5i64..5, 0..300)) {
            let buf = encoded(|o| encode_rle_i64(&values, o));
            prop_assert_eq!(decoded(&buf, values.len(), decode_rle_i64).unwrap(), values);
        }

        #[test]
        fn f64_round_trip(values in proptest::collection::vec(any::<f64>(), 0..100)) {
            let buf = encoded(|o| encode_plain_f64(&values, o));
            let decoded = decoded(&buf, values.len(), decode_plain_f64).unwrap();
            prop_assert_eq!(decoded.len(), values.len());
            for (d, v) in decoded.iter().zip(values.iter()) {
                prop_assert_eq!(d.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn str_round_trips(values in proptest::collection::vec(".{0,20}", 0..50)) {
            let values: StrVec = values.iter().collect();
            let plain = encoded(|o| encode_plain_str(&values, o));
            prop_assert_eq!(&decoded(&plain, values.len(), decode_plain_str).unwrap(), &values);
            let mut dict = Vec::new();
            // Every column but an empty one has fewer than 2 × len values.
            prop_assert_eq!(encode_dict_str(&values, 2.0, &mut dict), !values.is_empty());
            if !values.is_empty() {
                prop_assert_eq!(&decoded(&dict, values.len(), decode_dict_str).unwrap(), &values);
            }
        }

        #[test]
        fn bool_round_trip(values in proptest::collection::vec(any::<bool>(), 0..200)) {
            let buf = encoded(|o| encode_bool(&values, o));
            prop_assert_eq!(decoded(&buf, values.len(), decode_bool).unwrap(), values);
        }
    }
}
