//! Table snapshots: the reconstructed state of an LST as of a commit.

use crate::{DataFileEntry, DvEntry, LstError, LstResult, Manifest, ManifestAction, SequenceId};
use std::collections::BTreeMap;

/// State of one live data file within a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFileState {
    /// File metadata as recorded at add time.
    pub entry: DataFileEntry,
    /// Current delete vector, if any rows are deleted.
    pub delete_vector: Option<DvEntry>,
    /// Sequence of the transaction that added the file.
    pub added_at: SequenceId,
}

impl DataFileState {
    /// Rows still visible after delete-vector masking.
    pub fn live_rows(&self) -> u64 {
        let deleted = self.delete_vector.as_ref().map_or(0, |dv| dv.cardinality);
        self.entry.rows.saturating_sub(deleted)
    }

    /// Fraction of the file's rows that are deleted (0.0 for no DV).
    pub fn deleted_fraction(&self) -> f64 {
        if self.entry.rows == 0 {
            return 0.0;
        }
        let deleted = self.delete_vector.as_ref().map_or(0, |dv| dv.cardinality);
        deleted as f64 / self.entry.rows as f64
    }
}

/// The reconstructed state of a table as of a sequence number: the set of
/// live data files and their delete vectors (§3.2.1).
///
/// Built by replaying manifests (optionally on top of a checkpoint) in
/// sequence order; supports incremental extension, which is what the
/// BE-side [`SnapshotCache`](crate::SnapshotCache) exploits.
///
/// ```
/// use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot};
///
/// let load = Manifest::from_actions(vec![ManifestAction::add_file("t/f1", 100, 4096, 0)]);
/// let delete = Manifest::from_actions(vec![ManifestAction::add_dv("t/f1", "t/f1.dv", 10)]);
/// let snap = TableSnapshot::from_manifests([
///     (SequenceId(1), &load),
///     (SequenceId(2), &delete),
/// ])
/// .unwrap();
/// assert_eq!(snap.live_rows(), 90);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableSnapshot {
    files: BTreeMap<String, DataFileState>,
    /// Highest sequence replayed into this snapshot.
    upto: SequenceId,
}

impl TableSnapshot {
    /// An empty snapshot (table before any commit).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Replay a chain of `(sequence, manifest)` pairs, in order.
    pub fn from_manifests<'a>(
        manifests: impl IntoIterator<Item = (SequenceId, &'a Manifest)>,
    ) -> LstResult<Self> {
        let mut snap = Self::empty();
        for (seq, m) in manifests {
            snap.apply_manifest(seq, m)?;
        }
        Ok(snap)
    }

    /// Apply one committed manifest. `seq` must be greater than everything
    /// already applied (commit order).
    pub fn apply_manifest(&mut self, seq: SequenceId, manifest: &Manifest) -> LstResult<()> {
        if seq <= self.upto && self.upto != SequenceId(0) {
            return Err(LstError::invalid_replay(format!(
                "manifest {seq} applied after {}",
                self.upto
            )));
        }
        for action in &manifest.actions {
            self.apply_action(seq, action)?;
        }
        self.upto = seq;
        Ok(())
    }

    fn apply_action(&mut self, seq: SequenceId, action: &ManifestAction) -> LstResult<()> {
        match action {
            ManifestAction::AddFile(entry) => {
                if self.files.contains_key(&entry.path) {
                    return Err(LstError::invalid_replay(format!(
                        "duplicate add of {}",
                        entry.path
                    )));
                }
                self.files.insert(
                    entry.path.clone(),
                    DataFileState {
                        entry: entry.clone(),
                        delete_vector: None,
                        added_at: seq,
                    },
                );
            }
            ManifestAction::RemoveFile { path } => {
                if self.files.remove(path).is_none() {
                    return Err(LstError::invalid_replay(format!(
                        "remove of non-live file {path}"
                    )));
                }
            }
            ManifestAction::AddDv { data_file, dv } => {
                let state = self.files.get_mut(data_file).ok_or_else(|| {
                    LstError::invalid_replay(format!("delete vector for non-live file {data_file}"))
                })?;
                state.delete_vector = Some(dv.clone());
            }
            ManifestAction::RemoveDv { data_file, dv_path } => {
                let state = self.files.get_mut(data_file).ok_or_else(|| {
                    LstError::invalid_replay(format!("dv removal for non-live file {data_file}"))
                })?;
                match &state.delete_vector {
                    Some(dv) if &dv.path == dv_path => state.delete_vector = None,
                    _ => {
                        return Err(LstError::invalid_replay(format!(
                            "dv removal of {dv_path} which is not current for {data_file}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Highest sequence replayed into this snapshot.
    pub fn upto(&self) -> SequenceId {
        self.upto
    }

    /// Force the sequence watermark (used when restoring from checkpoints).
    pub fn set_upto(&mut self, seq: SequenceId) {
        self.upto = seq;
    }

    /// Live data files, ordered by path.
    pub fn files(&self) -> impl Iterator<Item = &DataFileState> {
        self.files.values()
    }

    /// Look up one file's state.
    pub fn file(&self, path: &str) -> Option<&DataFileState> {
        self.files.get(path)
    }

    /// Number of live data files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total live rows (after delete-vector masking).
    pub fn live_rows(&self) -> u64 {
        self.files.values().map(DataFileState::live_rows).sum()
    }

    /// Total physical rows (before masking).
    pub fn total_rows(&self) -> u64 {
        self.files.values().map(|f| f.entry.rows).sum()
    }

    /// Total bytes across live data files.
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.entry.bytes).sum()
    }

    /// Emit the minimal action list that recreates this snapshot from
    /// empty — the payload of a checkpoint (§5.2).
    pub fn to_actions(&self) -> Vec<ManifestAction> {
        let mut actions = Vec::with_capacity(self.files.len() * 2);
        for state in self.files.values() {
            actions.push(ManifestAction::AddFile(state.entry.clone()));
            if let Some(dv) = &state.delete_vector {
                actions.push(ManifestAction::AddDv {
                    data_file: state.entry.path.clone(),
                    dv: dv.clone(),
                });
            }
        }
        actions
    }

    /// The actions that turn this snapshot into `newer`, the net change
    /// between two states of one table: a file that left is removed, a file
    /// that arrived is added with its delete vector, and a file in both whose
    /// delete vector changed swaps it. A file added and removed again in
    /// between leaves no trace, the rule [`TxnDelta`](crate::TxnDelta)
    /// applies inside a transaction. Replaying the result onto `self` gives
    /// `newer`'s files.
    pub fn changes_to(&self, newer: &TableSnapshot) -> Vec<ManifestAction> {
        let mut actions = Vec::new();
        for (path, old) in &self.files {
            match (newer.files.get(path), &old.delete_vector) {
                (None, _) => actions.push(ManifestAction::remove_file(path.clone())),
                (Some(new), Some(dv)) if new.delete_vector.as_ref() != Some(dv) => {
                    actions.push(ManifestAction::remove_dv(path.clone(), dv.path.clone()))
                }
                _ => {}
            }
        }
        for (path, new) in &newer.files {
            let old = self.files.get(path);
            if old.is_none() {
                actions.push(ManifestAction::AddFile(new.entry.clone()));
            }
            if let Some(dv) = &new.delete_vector {
                if old.and_then(|f| f.delete_vector.as_ref()) != Some(dv) {
                    actions.push(ManifestAction::AddDv {
                        data_file: path.clone(),
                        dv: dv.clone(),
                    });
                }
            }
        }
        actions
    }

    /// Internal: insert a file state directly (checkpoint restore path).
    pub(crate) fn insert_state(&mut self, state: DataFileState) {
        self.files.insert(state.entry.path.clone(), state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(path: &str, rows: u64) -> ManifestAction {
        ManifestAction::add_file(path, rows, rows * 10, 0)
    }

    #[test]
    fn replay_example_from_paper_section_4_2() {
        // X1 loads 3 rows -> file1; X2 inserts 2 rows (file2) and deletes one
        // row of file1 (dv). Mirrors Figure 6.
        let x1 = Manifest::from_actions(vec![add("t/file1", 3)]);
        let x2 = Manifest::from_actions(vec![
            add("t/file2", 2),
            ManifestAction::add_dv("t/file1", "t/1DV", 1),
        ]);
        let snap =
            TableSnapshot::from_manifests([(SequenceId(1), &x1), (SequenceId(2), &x2)]).unwrap();
        assert_eq!(snap.file_count(), 2);
        assert_eq!(snap.total_rows(), 5);
        assert_eq!(snap.live_rows(), 4);
        assert_eq!(snap.upto(), SequenceId(2));
        assert_eq!(snap.file("t/file1").unwrap().live_rows(), 2);
    }

    #[test]
    fn dv_replacement_via_remove_add() {
        // Deleting more rows of a file with an existing DV: Remove old DV,
        // Add merged DV (§4.2).
        let m1 = Manifest::from_actions(vec![
            add("t/f", 10),
            ManifestAction::add_dv("t/f", "t/f.dv1", 2),
        ]);
        let m2 = Manifest::from_actions(vec![
            ManifestAction::remove_dv("t/f", "t/f.dv1"),
            ManifestAction::add_dv("t/f", "t/f.dv2", 5),
        ]);
        let snap =
            TableSnapshot::from_manifests([(SequenceId(1), &m1), (SequenceId(2), &m2)]).unwrap();
        let f = snap.file("t/f").unwrap();
        assert_eq!(f.delete_vector.as_ref().unwrap().path, "t/f.dv2");
        assert_eq!(f.live_rows(), 5);
        assert_eq!(f.deleted_fraction(), 0.5);
    }

    #[test]
    fn compaction_remove_then_add() {
        let m1 = Manifest::from_actions(vec![add("t/small1", 5), add("t/small2", 5)]);
        let m2 = Manifest::from_actions(vec![
            ManifestAction::remove_file("t/small1"),
            ManifestAction::remove_file("t/small2"),
            add("t/compacted", 10),
        ]);
        let snap =
            TableSnapshot::from_manifests([(SequenceId(1), &m1), (SequenceId(2), &m2)]).unwrap();
        assert_eq!(snap.file_count(), 1);
        assert_eq!(snap.live_rows(), 10);
        assert_eq!(snap.file("t/compacted").unwrap().added_at, SequenceId(2));
    }

    #[test]
    fn invalid_replays_rejected() {
        let mut snap = TableSnapshot::empty();
        // remove before add
        let bad = Manifest::from_actions(vec![ManifestAction::remove_file("t/x")]);
        assert!(snap.apply_manifest(SequenceId(1), &bad).is_err());
        // duplicate add
        let m = Manifest::from_actions(vec![add("t/x", 1)]);
        snap.apply_manifest(SequenceId(1), &m).unwrap();
        let dup = Manifest::from_actions(vec![add("t/x", 1)]);
        assert!(snap.apply_manifest(SequenceId(2), &dup).is_err());
        // dv for unknown file
        let dv = Manifest::from_actions(vec![ManifestAction::add_dv("t/ghost", "g.dv", 1)]);
        assert!(snap.apply_manifest(SequenceId(3), &dv).is_err());
        // wrong dv removal
        let wrongdv = Manifest::from_actions(vec![ManifestAction::remove_dv("t/x", "nope.dv")]);
        assert!(snap.apply_manifest(SequenceId(3), &wrongdv).is_err());
        // out-of-order sequence
        let m2 = Manifest::from_actions(vec![add("t/y", 1)]);
        snap.apply_manifest(SequenceId(5), &m2).unwrap();
        let stale = Manifest::from_actions(vec![add("t/z", 1)]);
        assert!(snap.apply_manifest(SequenceId(4), &stale).is_err());
    }

    #[test]
    fn to_actions_round_trips_state() {
        let m1 = Manifest::from_actions(vec![
            add("t/a", 4),
            add("t/b", 6),
            ManifestAction::add_dv("t/b", "t/b.dv", 2),
        ]);
        let snap = TableSnapshot::from_manifests([(SequenceId(3), &m1)]).unwrap();
        let rebuilt = TableSnapshot::from_manifests([(
            SequenceId(3),
            &Manifest::from_actions(snap.to_actions()),
        )])
        .unwrap();
        assert_eq!(rebuilt.live_rows(), snap.live_rows());
        assert_eq!(rebuilt.file_count(), snap.file_count());
        assert_eq!(
            rebuilt.file("t/b").unwrap().delete_vector,
            snap.file("t/b").unwrap().delete_vector
        );
    }

    #[test]
    fn empty_file_deleted_fraction_is_zero() {
        let m = Manifest::from_actions(vec![add("t/empty", 0)]);
        let snap = TableSnapshot::from_manifests([(SequenceId(1), &m)]).unwrap();
        assert_eq!(snap.file("t/empty").unwrap().deleted_fraction(), 0.0);
    }
}
