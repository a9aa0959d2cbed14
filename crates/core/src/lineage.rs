//! Data-lineage features (§6): Query As Of, zero-copy Clone As Of, and
//! point-in-time Restore.
//!
//! All three are *logical-metadata-only* operations: the immutability of
//! LST data files means a historical state is just a subset of manifest
//! rows, so cloning and restoring copy no data.

use crate::{PolarisEngine, PolarisError, PolarisResult};
use polaris_catalog::{TableId, TableMeta};
use polaris_lst::{ManifestAction, SequenceId};
use std::sync::Arc;

/// The commit history of a table: `(sequence, manifest file)` pairs,
/// ascending. Entry *n* is the state the table had after its *n*-th
/// committed write.
pub fn history(
    engine: &Arc<PolarisEngine>,
    table: &str,
) -> PolarisResult<Vec<(SequenceId, String)>> {
    let rows = crate::sto::read_catalog(engine, |ctxn| {
        let meta = engine.catalog().table_by_name(ctxn, table)?;
        Ok(engine.catalog().visible_manifests(ctxn, meta.id)?)
    })?;
    Ok(rows
        .into_iter()
        .map(|(seq, row)| (seq, row.manifest_file))
        .collect())
}

/// Zero-copy clone (§6.2): create `target` sharing `source`'s data files,
/// optionally as of a historical sequence. Only manifest *rows* are
/// copied — no data or physical metadata is duplicated; afterwards the
/// two tables evolve independently. Returns the clone's table id.
pub fn clone_table(
    engine: &Arc<PolarisEngine>,
    source: &str,
    target: &str,
    as_of: Option<SequenceId>,
) -> PolarisResult<TableId> {
    let mut ctxn = engine.catalog().begin(Default::default());
    let result = (|| {
        let src_meta = engine.catalog().table_by_name(&mut ctxn, source)?;
        let new_id = engine.catalog().allocate_table_id();
        let meta = TableMeta {
            id: new_id,
            name: target.to_owned(),
            schema_json: src_meta.schema_json.clone(),
            cluster_by: src_meta.cluster_by.clone(),
            // Clones share the source's data root: a single physical file
            // can be referenced by several tables, which is why GC
            // processes shared-lineage tables together (§5.3).
            data_root: src_meta.data_root.clone(),
        };
        engine.catalog().register_table(&mut ctxn, meta)?;
        let upto = as_of.unwrap_or(SequenceId(u64::MAX));
        engine
            .catalog()
            .copy_manifests_for_clone(&mut ctxn, src_meta.id, new_id, upto)?;
        Ok(new_id)
    })();
    match result {
        Ok(id) => {
            engine.catalog().commit(&mut ctxn)?;
            Ok(id)
        }
        Err(e) => {
            engine.catalog().abort(&mut ctxn);
            Err(e)
        }
    }
}

/// Point-in-time restore (§6.3): rewrite `table` back to its state at
/// `as_of`. Runs as an ordinary write transaction — a pure metadata
/// operation (remove every current file, re-add every historical file),
/// after which garbage collection reclaims anything no longer referenced.
/// Returns the sequence of the restoring commit.
pub fn restore_table_as_of(
    engine: &Arc<PolarisEngine>,
    table: &str,
    as_of: SequenceId,
) -> PolarisResult<SequenceId> {
    let mut txn = engine.begin();
    let tid = txn.table_state(table)?;
    let (meta, current) = {
        let t = &txn.tables[&tid];
        (t.meta.clone(), t.base.clone())
    };
    let historical = {
        let engine = Arc::clone(txn.engine());
        let snap = engine.snapshot(&mut txn.ctxn, &meta, Some(as_of))?;
        (*snap).clone()
    };
    if current.upto() < as_of {
        return Err(PolarisError::invalid(format!(
            "cannot restore {table} to future sequence {as_of}"
        )));
    }
    let mut actions = Vec::new();
    for f in current.files() {
        actions.push(ManifestAction::remove_file(f.entry.path.clone()));
    }
    for f in historical.files() {
        actions.push(ManifestAction::AddFile(f.entry.clone()));
        if let Some(dv) = &f.delete_vector {
            actions.push(ManifestAction::AddDv {
                data_file: f.entry.path.clone(),
                dv: dv.clone(),
            });
        }
    }
    txn.apply_actions(table, &actions)?;
    let info = txn.commit()?;
    Ok(info.sequence.expect("restore is a write"))
}
