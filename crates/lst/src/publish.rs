//! Async "lake" snapshot publishing in the Delta Lake format (§5.4).
//!
//! Polaris keeps its internal manifests in a private location and the STO
//! copies the committed metadata into a user-accessible `_delta_log` so
//! other engines (Spark, etc.) can read the same data files with zero
//! copies. The internal format "closely aligns" with Delta, so publishing
//! is a near-1:1 transformation.
//!
//! The log holds one version per publish, not one per commit: version
//! `<to>.json` is the net change from the previous version's snapshot to
//! the snapshot at sequence `to` ([`TableSnapshot::changes_to`]), so a file
//! added and compacted away in between never appears. A checkpoint
//! `<to>.checkpoint.json` lists every live file at a published version. A
//! reader folds the versions in name order from the newest checkpoint.
//! Every version's `commitInfo` names the table that wrote it, so a table
//! re-created under a dropped table's name never continues that log.

use crate::{LstResult, ManifestAction, SequenceId, TableSnapshot};
use polaris_store::{BlobPath, ObjectStore, Stamp};
use serde_json::json;

/// Publish the change from `last` (the snapshot the newest version holds;
/// empty before the first) to `current` as Delta version
/// `<table_root>/_delta_log/<%020d>.json`, named after `current`'s
/// sequence: a `commitInfo` line naming table `table_id`, then one Delta
/// `add`/`remove` line per action. Returns the blob path written.
pub fn publish_version(
    store: &dyn ObjectStore,
    table_root: &str,
    table_id: u64,
    last: &TableSnapshot,
    current: &TableSnapshot,
) -> LstResult<BlobPath> {
    let actions = last.changes_to(current);
    let mut lines = Vec::with_capacity(actions.len() + 1);
    lines.push(
        json!({
            "commitInfo": {
                "operation": "POLARIS_COMMIT",
                "polarisSequence": current.upto().0,
                "polarisTableId": table_id,
                "engineInfo": "polaris-tx",
            }
        })
        .to_string(),
    );
    for action in &actions {
        lines.push(delta_action_json(action).to_string());
    }
    put_log(store, table_root, current.upto(), "json", &lines)
}

/// Publish a full snapshot as a Delta checkpoint-style file
/// (`_delta_log/<%020d>.checkpoint.json`) listing every live file. Write it
/// only at a sequence [`publish_version`] has published: a reader starts
/// from it and applies the versions named above it.
pub fn publish_snapshot_as_delta(
    store: &dyn ObjectStore,
    table_root: &str,
    snapshot: &TableSnapshot,
) -> LstResult<BlobPath> {
    let mut lines = Vec::with_capacity(snapshot.file_count());
    for action in snapshot.to_actions() {
        lines.push(delta_action_json(&action).to_string());
    }
    put_log(
        store,
        table_root,
        snapshot.upto(),
        "checkpoint.json",
        &lines,
    )
}

/// Where table `table_id`'s next publish continues from: the sequence of
/// the newest version under `<table_root>/_delta_log/`, 0 when there is
/// none. A log whose newest version another table wrote — a dropped
/// table's, under a name since re-created — is not the table's to
/// continue: it is deleted (the newest version last, so a crash part-way
/// leaves a log this call still refuses), and the table's own starts at 0.
pub fn resume_log(
    store: &dyn ObjectStore,
    table_root: &str,
    table_id: u64,
) -> LstResult<SequenceId> {
    let listed = store.list(&format!("{table_root}/_delta_log/"))?;
    let newest = listed
        .iter()
        .filter_map(|blob| Some((blob.path.file_name().strip_suffix(".json")?, &blob.path)))
        // A checkpoint's stem, `<seq>.checkpoint`, is not a number.
        .filter_map(|(stem, path)| Some((stem.parse::<u64>().ok()?, path)))
        .max_by_key(|(upto, _)| *upto);
    let Some((upto, path)) = newest else {
        return Ok(SequenceId(0));
    };
    let raw = store.get(path)?;
    let first = raw.split(|b| *b == b'\n').next().unwrap_or_default();
    let owner = serde_json::from_slice::<serde_json::Value>(first)
        .ok()
        .and_then(|line| line["commitInfo"]["polarisTableId"].as_u64());
    if owner == Some(table_id) {
        return Ok(SequenceId(upto));
    }
    for blob in listed.iter().filter(|blob| blob.path != *path) {
        store.delete(&blob.path)?;
    }
    store.delete(path)?;
    Ok(SequenceId(0))
}

/// Write `lines` as `<table_root>/_delta_log/<%020d>.<suffix>`: zero-padded,
/// so names sort in sequence order.
fn put_log(
    store: &dyn ObjectStore,
    table_root: &str,
    seq: SequenceId,
    suffix: &str,
    lines: &[String],
) -> LstResult<BlobPath> {
    let path = BlobPath::new(format!("{table_root}/_delta_log/{:020}.{suffix}", seq.0))?;
    store.put(&path, lines.join("\n").into_bytes().into(), Stamp::SYSTEM)?;
    Ok(path)
}

fn delta_action_json(action: &ManifestAction) -> serde_json::Value {
    match action {
        ManifestAction::AddFile(e) => json!({
            "add": {
                "path": e.path,
                "size": e.bytes,
                "stats": { "numRecords": e.rows },
                "partitionValues": { "distribution": e.distribution.to_string() },
                "dataChange": true,
            }
        }),
        ManifestAction::RemoveFile { path } => json!({
            "remove": { "path": path, "dataChange": true }
        }),
        ManifestAction::AddDv { data_file, dv } => json!({
            "add": {
                "path": data_file,
                "deletionVector": {
                    "storageType": "p",
                    "pathOrInlineDv": dv.path,
                    "cardinality": dv.cardinality,
                },
                "dataChange": true,
            }
        }),
        ManifestAction::RemoveDv { data_file, dv_path } => json!({
            "remove": {
                "path": data_file,
                "deletionVector": { "storageType": "p", "pathOrInlineDv": dv_path },
                "dataChange": true,
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manifest;
    use polaris_store::MemoryStore;

    fn lines(store: &MemoryStore, path: &BlobPath) -> Vec<serde_json::Value> {
        let content = String::from_utf8(store.get(path).unwrap().to_vec()).unwrap();
        content
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    /// Seq 3 loads f0; seq 5 inserts f1 and deletes rows of f0; seq 7
    /// compacts f1 into f2.
    fn chain() -> (TableSnapshot, TableSnapshot) {
        let load = Manifest::from_actions(vec![ManifestAction::add_file(
            "lake/t/data/f0.pcf",
            100,
            4096,
            0,
        )]);
        let insert = Manifest::from_actions(vec![
            ManifestAction::add_file("lake/t/data/f1.pcf", 1, 64, 1),
            ManifestAction::add_dv("lake/t/data/f0.pcf", "lake/t/dv/f0.dv", 5),
        ]);
        let compact = Manifest::from_actions(vec![
            ManifestAction::remove_file("lake/t/data/f1.pcf"),
            ManifestAction::add_file("lake/t/data/f2.pcf", 1, 64, 1),
        ]);
        let first = TableSnapshot::from_manifests([(SequenceId(3), &load)]).unwrap();
        let mut second = first.clone();
        second.apply_manifest(SequenceId(5), &insert).unwrap();
        second.apply_manifest(SequenceId(7), &compact).unwrap();
        (first, second)
    }

    #[test]
    fn a_version_holds_the_net_change_since_the_last() {
        let store = MemoryStore::new();
        let (first, second) = chain();
        let path = publish_version(&store, "lake/t", 1, &TableSnapshot::empty(), &first).unwrap();
        assert_eq!(path.as_str(), "lake/t/_delta_log/00000000000000000003.json");
        let path = publish_version(&store, "lake/t", 1, &first, &second).unwrap();
        assert_eq!(path.as_str(), "lake/t/_delta_log/00000000000000000007.json");
        let lines = lines(&store, &path);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(lines[0]["commitInfo"]["polarisSequence"], 7);
        assert_eq!(lines[1]["add"]["path"], "lake/t/data/f0.pcf");
        assert_eq!(lines[1]["add"]["deletionVector"]["cardinality"], 5);
        assert_eq!(lines[2]["add"]["path"], "lake/t/data/f2.pcf");
        assert_eq!(lines[2]["add"]["stats"]["numRecords"], 1);
        // f1 was added and compacted away between the two versions.
        assert!(!lines.iter().any(|l| l.to_string().contains("f1.pcf")));
        assert_eq!(resume_log(&store, "lake/t", 1).unwrap(), SequenceId(7));
    }

    #[test]
    fn publishes_snapshot_checkpoint() {
        let store = MemoryStore::new();
        let (_, snap) = chain();
        let path = publish_snapshot_as_delta(&store, "lake/t", &snap).unwrap();
        assert!(path
            .as_str()
            .ends_with("00000000000000000007.checkpoint.json"));
        // f0 with its delete vector, and f2.
        assert_eq!(lines(&store, &path).len(), 3);
    }

    #[test]
    fn the_watermark_is_the_newest_version_name() {
        let store = MemoryStore::new();
        assert_eq!(resume_log(&store, "lake/t", 1).unwrap(), SequenceId(0));
        let mut last = TableSnapshot::empty();
        for seq in [1u64, 2, 10, 100] {
            let mut next = last.clone();
            let add = ManifestAction::add_file(format!("lake/t/data/f{seq}.pcf"), 1, 8, 0);
            next.apply_manifest(SequenceId(seq), &Manifest::from_actions(vec![add]))
                .unwrap();
            publish_version(&store, "lake/t", 1, &last, &next).unwrap();
            last = next;
        }
        // A checkpoint is not a version, and another table's log is not this
        // table's.
        publish_snapshot_as_delta(&store, "lake/t", &last).unwrap();
        publish_version(&store, "lake/t2", 2, &TableSnapshot::empty(), &{
            let mut far = last.clone();
            far.set_upto(SequenceId(500));
            far
        })
        .unwrap();
        assert_eq!(resume_log(&store, "lake/t", 1).unwrap(), SequenceId(100));
        let listed = store.list("lake/t/_delta_log/").unwrap();
        let names: Vec<&str> = listed.iter().map(|m| m.path.file_name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "zero-padded names must sort in commit order");
    }

    #[test]
    fn a_log_another_table_wrote_is_deleted_not_continued() {
        let store = MemoryStore::new();
        let (first, second) = chain();
        publish_version(&store, "lake/t", 1, &TableSnapshot::empty(), &first).unwrap();
        publish_version(&store, "lake/t", 1, &first, &second).unwrap();
        publish_snapshot_as_delta(&store, "lake/t", &second).unwrap();
        assert_eq!(resume_log(&store, "lake/t", 2).unwrap(), SequenceId(0));
        assert!(store.list("lake/t/_delta_log/").unwrap().is_empty());
    }
}
