//! Manifest files: action sequences as concatenable binary records.

use crate::codec::{Codec, Reader};
use crate::{LstError, LstResult, ManifestAction};
use bytes::Bytes;

/// A transaction's manifest: the ordered list of actions it performed.
///
/// **A manifest blob is a run of self-delimiting binary records, one per
/// action** (layout in [`crate::codec`]; no header, no separator). This is
/// the property that makes the distributed write path (§3.2.2, §4.3) work:
/// every BE task encodes its own actions as whole records into a staged
/// block, and the Block Blob commit concatenates blocks in any order into a
/// valid manifest — no merging or coordination between BEs required.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Actions in replay order.
    pub actions: Vec<ManifestAction>,
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an action list.
    pub fn from_actions(actions: Vec<ManifestAction>) -> Self {
        Manifest { actions }
    }

    /// The manifest blob.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        Self::encode_actions(&self.actions, &mut out);
        Bytes::from(out)
    }

    /// Append the records of `actions` to `out` — the payload of one
    /// manifest *block* as written by a single BE task. `out` is the
    /// caller's, so a buffer reused across blocks stops growing once warm.
    pub fn encode_actions(actions: &[ManifestAction], out: &mut Vec<u8>) {
        for action in actions {
            action.encode(out);
        }
    }

    /// Parse a manifest blob: records until the bytes run out. The empty
    /// blob is the empty manifest.
    pub fn decode(data: &[u8]) -> LstResult<Self> {
        let mut r = Reader::new(data);
        let mut actions = Vec::new();
        while !r.is_empty() {
            let action = ManifestAction::decode(&mut r).map_err(|e| {
                LstError::malformed(format!("manifest record {}: {e}", actions.len()))
            })?;
            actions.push(action);
        }
        Ok(Manifest { actions })
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Is the manifest empty?
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColRange, DataFileEntry, RangeVal};

    fn sample() -> Manifest {
        Manifest::from_actions(vec![
            ManifestAction::add_file("t/f1", 10, 100, 0),
            ManifestAction::add_dv("t/f1", "t/f1.dv", 2),
            ManifestAction::remove_file("t/f0"),
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn concatenated_blocks_decode_as_one_manifest() {
        // Two BEs write independent blocks; commit concatenates them.
        let mut joined = Vec::new();
        Manifest::encode_actions(&[ManifestAction::add_file("t/a", 1, 10, 0)], &mut joined);
        Manifest::encode_actions(
            &[
                ManifestAction::add_file("t/b", 2, 20, 1),
                ManifestAction::add_dv("t/b", "t/b.dv", 1),
            ],
            &mut joined,
        );
        let m = Manifest::decode(&joined).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.actions[0], ManifestAction::add_file("t/a", 1, 10, 0));
    }

    /// Every action and every `RangeVal` variant, pinned byte for byte: a
    /// change to this encoding breaks manifests already in a store, so it
    /// must fail here first.
    #[test]
    fn golden_bytes() {
        let range = |column: &str, min, max| ColRange {
            column: column.into(),
            min,
            max,
        };
        let m = Manifest::from_actions(vec![
            ManifestAction::AddFile(DataFileEntry {
                path: "t/f1".into(),
                rows: 300,
                bytes: 4096,
                distribution: 2,
                col_ranges: vec![
                    range("i", RangeVal::Int(-1), RangeVal::Int(64)),
                    range("f", RangeVal::Float(1.5), RangeVal::Float(-0.0)),
                    range("s", RangeVal::Str("a".into()), RangeVal::Str("é".into())),
                    range("b", RangeVal::Bool(false), RangeVal::Bool(true)),
                    range("d", RangeVal::Date(-2), RangeVal::Date(19000)),
                ],
            }),
            ManifestAction::remove_file("t/f0"),
            ManifestAction::add_dv("t/f1", "t/d", 7),
            ManifestAction::remove_dv("t/f1", "t/c"),
        ]);
        let hex: String = m.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                // AddFile "t/f1", rows 300, bytes 4096, distribution 2, 5 ranges
                "0004742f6631ac02802002",
                "05",
                "01690001008001",                           // i: Int(-1) .. Int(64)
                "016601000000000000f83f010000000000000080", // f: 1.5 .. -0.0
                "01730201610202c3a9",                       // s: "a" .. "é"
                "016203000301",                             // b: false .. true
                "0164040304f0a802",                         // d: Date(-2) .. Date(19000)
                "0104742f6630",                             // RemoveFile "t/f0"
                "0204742f663103742f6407",                   // AddDv "t/f1" -> "t/d", 7 rows
                "0304742f663103742f63",                     // RemoveDv "t/f1", "t/c"
            )
        );
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Manifest::decode(b"{not json}\n").is_err());
        assert!(Manifest::decode(&[0xff, 0xfe]).is_err());
        // A whole record, then an unknown tag: the error names the record.
        let mut raw = Vec::new();
        Manifest::encode_actions(&[ManifestAction::remove_file("x")], &mut raw);
        raw.push(9);
        let err = Manifest::decode(&raw).unwrap_err().to_string();
        assert!(err.contains("record 1") && err.contains("byte 3"), "{err}");
    }

    #[test]
    fn empty_manifest() {
        let m = Manifest::new();
        assert!(m.is_empty());
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        assert_eq!(Manifest::decode(b"").unwrap(), m);
    }
}
