//! Delete-vector files: row-level tombstones for immutable data files.

use crate::{Bitmap, ColumnarError, ColumnarResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A delete vector marks rows of one immutable data file as deleted
/// (merge-on-read, §2.1). It is itself an immutable file: when more rows of
/// the same data file are deleted, a *merged* delete vector is written and
/// the old one logically removed from the manifest — exactly the
/// "one Delete + one Add" pattern of the paper's §4.2 example.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeleteVector {
    deleted: Bitmap,
}

const DV_MAGIC: &[u8; 4] = b"PDV1";

impl DeleteVector {
    /// An empty delete vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from row indices.
    pub fn from_rows(rows: impl IntoIterator<Item = usize>) -> Self {
        let mut dv = Self::new();
        for r in rows {
            dv.delete_row(r);
        }
        dv
    }

    /// Mark row `row` of the target data file as deleted.
    pub fn delete_row(&mut self, row: usize) {
        self.deleted.set(row);
    }

    /// Is row `row` deleted?
    pub fn is_deleted(&self, row: usize) -> bool {
        self.deleted.get(row)
    }

    /// Number of deleted rows.
    pub fn cardinality(&self) -> usize {
        self.deleted.count_set()
    }

    /// Merge another delete vector for the same data file into this one.
    ///
    /// Deletes are monotone within a data file's lifetime — a merged vector
    /// is always a superset of its inputs.
    pub fn merge(&mut self, other: &DeleteVector) {
        self.deleted.union_with(&other.deleted);
    }

    /// Iterate deleted row indices, ascending.
    pub fn iter_deleted(&self) -> impl Iterator<Item = usize> + '_ {
        self.deleted.iter_set()
    }

    /// Underlying bitmap (for scan-time masking).
    pub fn bitmap(&self) -> &Bitmap {
        &self.deleted
    }

    /// Serialize to the delete-vector file format.
    pub fn to_bytes(&self) -> Bytes {
        let bm = self.deleted.to_bytes();
        let mut buf = BytesMut::with_capacity(4 + 4 + bm.len());
        buf.put_slice(DV_MAGIC);
        buf.put_u32_le(bm.len() as u32);
        buf.put_slice(&bm);
        buf.freeze()
    }

    /// Parse a delete-vector file.
    pub fn from_bytes(mut data: Bytes) -> ColumnarResult<Self> {
        if data.len() < 8 || &data[..4] != DV_MAGIC {
            return Err(ColumnarError::corrupt("bad delete-vector magic"));
        }
        data.advance(4);
        let len = data.get_u32_le() as usize;
        if data.len() != len {
            return Err(ColumnarError::corrupt(format!(
                "delete-vector payload: expected {len} bytes, found {}",
                data.len()
            )));
        }
        Ok(DeleteVector {
            deleted: Bitmap::from_bytes(&data)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delete_and_query() {
        let mut dv = DeleteVector::new();
        dv.delete_row(3);
        dv.delete_row(100);
        assert!(dv.is_deleted(3));
        assert!(!dv.is_deleted(4));
        assert!(dv.is_deleted(100));
        assert_eq!(dv.cardinality(), 2);
        assert_eq!(dv.iter_deleted().collect::<Vec<_>>(), vec![3, 100]);
    }

    #[test]
    fn merge_is_union() {
        let a = DeleteVector::from_rows([1, 5]);
        let b = DeleteVector::from_rows([5, 9]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.iter_deleted().collect::<Vec<_>>(), vec![1, 5, 9]);
        // superset property
        for r in a.iter_deleted().chain(b.iter_deleted()) {
            assert!(m.is_deleted(r));
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(DeleteVector::from_bytes(Bytes::from_static(b"XXXX\0\0\0\0")).is_err());
        let good = DeleteVector::from_rows([2]).to_bytes();
        let truncated = good.slice(..good.len() - 1);
        assert!(DeleteVector::from_bytes(truncated).is_err());
    }

    proptest! {
        #[test]
        fn file_round_trip(rows in proptest::collection::btree_set(0usize..2000, 0..100)) {
            let dv = DeleteVector::from_rows(rows.iter().copied());
            let back = DeleteVector::from_bytes(dv.to_bytes()).unwrap();
            prop_assert_eq!(&back, &dv);
            prop_assert_eq!(back.cardinality(), rows.len());
        }

        #[test]
        fn merge_commutes(
            a in proptest::collection::btree_set(0usize..500, 0..50),
            b in proptest::collection::btree_set(0usize..500, 0..50),
        ) {
            let va = DeleteVector::from_rows(a.iter().copied());
            let vb = DeleteVector::from_rows(b.iter().copied());
            let mut ab = va.clone();
            ab.merge(&vb);
            let mut ba = vb.clone();
            ba.merge(&va);
            prop_assert_eq!(
                ab.iter_deleted().collect::<Vec<_>>(),
                ba.iter_deleted().collect::<Vec<_>>()
            );
        }
    }
}
