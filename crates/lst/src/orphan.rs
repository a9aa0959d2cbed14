//! Orphaned transaction-manifest collection (recovery sweep).
//!
//! The engine uploads each transaction's manifest to
//! [`manifest_path`](crate::manifest_path) —
//! `{data_root}/_log/txn-{txn_id}-{table_id}.mf` — *before* the catalog
//! commit (the pipelined-upload prepare stage), and on an abort deletes it
//! again. A crash between upload and commit — or between abort and
//! cleanup — leaves the blob visible but referenced by no `Manifests`
//! row: an **orphan**. Orphans are harmless to correctness (nothing ever
//! reads an unreferenced manifest) but they leak storage and confuse
//! manual inspection, so recovery sweeps them.
//!
//! The sweep is safe at recovery time only: with no transaction in
//! flight, an unreferenced `_log` blob can never become referenced later
//! (manifest rows are inserted in the same atomic commit that would
//! reference the blob, and that commit either replayed or never
//! happened).

use crate::{LstError, LstResult, MANIFEST_PREFIX, MANIFEST_SUFFIX};
use polaris_store::{BlobPath, ObjectStore};
use std::collections::HashSet;

/// Transaction manifests under `{data_root}/_log/` that `referenced` does
/// not name, ascending by path. `referenced` holds the manifest-file
/// paths of every `Manifests` row in the recovered catalog. Non-manifest
/// blobs under the prefix (there are none today) are left alone: only names
/// with the manifest prefix and suffix the writer uses are candidates.
pub fn find_orphan_manifests(
    store: &dyn ObjectStore,
    data_root: &str,
    referenced: &HashSet<String>,
) -> LstResult<Vec<String>> {
    let prefix = format!("{data_root}/_log/");
    let mut orphans: Vec<String> = store
        .list(&prefix)?
        .into_iter()
        .map(|meta| meta.path.as_str().to_owned())
        .filter(|path| {
            let name = path.strip_prefix(&prefix).unwrap_or(path);
            name.starts_with(MANIFEST_PREFIX)
                && name.ends_with(MANIFEST_SUFFIX)
                && !referenced.contains(path)
        })
        .collect();
    orphans.sort();
    Ok(orphans)
}

/// Delete every orphan [`find_orphan_manifests`] reports for `data_root`.
/// Returns the deleted paths. A delete racing an external cleanup may
/// find the blob already gone; that is success, not an error.
pub fn collect_orphan_manifests(
    store: &dyn ObjectStore,
    data_root: &str,
    referenced: &HashSet<String>,
) -> LstResult<Vec<String>> {
    let orphans = find_orphan_manifests(store, data_root, referenced)?;
    for path in &orphans {
        let blob = BlobPath::new(path).map_err(LstError::from)?;
        match store.delete(&blob) {
            Ok(()) => {}
            Err(polaris_store::StoreError::NotFound { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(orphans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest_path;
    use polaris_store::{Bytes, MemoryStore, Stamp};

    fn put(store: &MemoryStore, path: &str) {
        store
            .put(&BlobPath::new(path).unwrap(), Bytes::new(), Stamp(1))
            .unwrap();
    }

    #[test]
    fn unreferenced_txn_manifests_are_orphans() {
        let store = MemoryStore::new();
        put(&store, &manifest_path("lake/t", 7, 1001));
        put(&store, &manifest_path("lake/t", 8, 1001));
        put(&store, "lake/t/data/t7-s0-d0-a0.pcf");
        let referenced: HashSet<String> = [manifest_path("lake/t", 7, 1001)].into();
        let orphans = find_orphan_manifests(&store, "lake/t", &referenced).unwrap();
        assert_eq!(orphans, vec![manifest_path("lake/t", 8, 1001)]);
    }

    #[test]
    fn collect_deletes_only_orphans() {
        let store = MemoryStore::new();
        let (kept, orphan) = (
            manifest_path("lake/t", 7, 1001),
            manifest_path("lake/t", 9, 1001),
        );
        put(&store, &kept);
        put(&store, &orphan);
        let referenced: HashSet<String> = [kept.clone()].into();
        let deleted = collect_orphan_manifests(&store, "lake/t", &referenced).unwrap();
        assert_eq!(deleted, vec![orphan.clone()]);
        assert!(store.get(&BlobPath::new(kept).unwrap()).is_ok());
        assert!(store.get(&BlobPath::new(orphan).unwrap()).is_err());
    }

    #[test]
    fn non_manifest_names_are_ignored() {
        let store = MemoryStore::new();
        put(&store, "lake/t/_log/readme.txt");
        put(&store, "lake/t/_log/txn-7-1001.json");
        let orphans = find_orphan_manifests(&store, "lake/t", &HashSet::new()).unwrap();
        assert!(orphans.is_empty(), "{orphans:?}");
    }
}
