//! Checkpoint files: compacted full-state snapshots of the manifest chain
//! (§5.2).

use crate::codec::{decode_all, put_u64, Codec, DecodeResult, Reader};
use crate::{
    DataFileEntry, DataFileState, DvEntry, LstError, LstResult, SequenceId, TableSnapshot,
};
use bytes::Bytes;

/// A checkpoint: the complete table state as of `upto`, written by the STO
/// once a table accumulates enough manifests.
///
/// Readers start from the most recent checkpoint visible to their snapshot
/// and replay only the manifests after it — turning O(total commits)
/// reconstruction into O(commits since checkpoint). Checkpoints never
/// modify data files and therefore never conflict with user transactions.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Sequence number this checkpoint covers through (inclusive).
    pub upto: SequenceId,
    /// Full file state at `upto`.
    files: Vec<DataFileState>,
}

impl Checkpoint {
    /// Capture a snapshot into a checkpoint.
    pub fn from_snapshot(snapshot: &TableSnapshot) -> Self {
        Checkpoint {
            upto: snapshot.upto(),
            files: snapshot.files().cloned().collect(),
        }
    }

    /// Restore the snapshot this checkpoint captured.
    pub fn into_snapshot(self) -> TableSnapshot {
        let mut snap = TableSnapshot::empty();
        for state in self.files {
            snap.insert_state(state);
        }
        snap.set_upto(self.upto);
        snap
    }

    /// Number of live files captured.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The checkpoint blob: `upto`, then the file states as a list of
    /// records (layout in [`crate::codec`]).
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        put_u64(&mut out, self.upto.0);
        self.files.encode(&mut out);
        Bytes::from(out)
    }

    /// Parse a checkpoint blob.
    pub fn decode(data: &[u8]) -> LstResult<Self> {
        decode_all::<(u64, Vec<DataFileState>)>(data)
            .map(|(upto, files)| Checkpoint {
                upto: SequenceId(upto),
                files,
            })
            .map_err(|e| LstError::malformed(format!("checkpoint: {e}")))
    }
}

/// The file's entry as a manifest's `AddFile` carries it, its delete
/// vector (none: tag 0; some: tag 1 and the `AddDv` record's entry), and
/// the sequence that added it.
impl Codec for DataFileState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entry.encode(out);
        self.delete_vector.encode(out);
        put_u64(out, self.added_at.0);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(DataFileState {
            entry: DataFileEntry::decode(r)?,
            delete_vector: Option::<DvEntry>::decode(r)?,
            added_at: SequenceId(r.u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Manifest, ManifestAction};

    fn snapshot() -> TableSnapshot {
        let m1 = Manifest::from_actions(vec![
            ManifestAction::add_file("t/a", 10, 100, 0),
            ManifestAction::add_file("t/b", 20, 200, 1),
        ]);
        let m2 = Manifest::from_actions(vec![
            ManifestAction::add_dv("t/b", "t/b.dv", 4),
            ManifestAction::remove_file("t/a"),
            ManifestAction::add_file("t/c", 30, 300, 0),
        ]);
        TableSnapshot::from_manifests([(SequenceId(1), &m1), (SequenceId(2), &m2)]).unwrap()
    }

    #[test]
    fn checkpoint_round_trip() {
        let snap = snapshot();
        let ckpt = Checkpoint::from_snapshot(&snap);
        assert_eq!(ckpt.upto, SequenceId(2));
        assert_eq!(ckpt.file_count(), 2);
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
        let restored = decoded.into_snapshot();
        assert_eq!(restored, snap);
    }

    #[test]
    fn replay_continues_after_checkpoint_restore() {
        let snap = snapshot();
        let mut restored = Checkpoint::from_snapshot(&snap).into_snapshot();
        let m3 = Manifest::from_actions(vec![ManifestAction::add_file("t/d", 5, 50, 1)]);
        restored.apply_manifest(SequenceId(3), &m3).unwrap();
        assert_eq!(restored.file_count(), 3);
        assert_eq!(restored.upto(), SequenceId(3));
        // a manifest at or before the checkpoint must be rejected
        let mut restored2 = Checkpoint::from_snapshot(&snap).into_snapshot();
        let stale = Manifest::from_actions(vec![ManifestAction::add_file("t/e", 1, 10, 0)]);
        assert!(restored2.apply_manifest(SequenceId(2), &stale).is_err());
    }

    /// A checkpoint of two files, one with a delete vector, pinned byte
    /// for byte: checkpoints already in a store must keep decoding.
    #[test]
    fn golden_bytes() {
        let ckpt = Checkpoint::from_snapshot(&snapshot());
        let hex: String = ckpt.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "02",                 // upto 2
                "02",                 // two files, by path
                "03742f6214c8010100", // "t/b", 20 rows, 200 bytes, distribution 1, no ranges
                "0106742f622e647604", // dv "t/b.dv", 4 rows
                "01",                 // added at 1
                "03742f631eac020000", // "t/c", 30 rows, 300 bytes, distribution 0, no ranges
                "00",                 // no dv
                "02",                 // added at 2
            )
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Checkpoint::decode(b"not json").is_err());
        assert!(Checkpoint::decode(b"{}").is_err());
        // Whole, then one byte too many.
        let mut raw = Checkpoint::from_snapshot(&snapshot()).encode().to_vec();
        raw.push(0);
        assert!(Checkpoint::decode(&raw).is_err());
    }
}
