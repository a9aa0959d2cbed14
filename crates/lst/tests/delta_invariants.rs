//! Property test for the central reconciliation invariant of §3.2.3:
//! for ANY sequence of valid statement actions, replaying the reconciled
//! transaction manifest onto the committed base produces exactly the
//! overlay view the transaction saw — and never references files that
//! were created and obsoleted within the transaction.

use polaris_lst::{Manifest, ManifestAction, SequenceId, TableSnapshot, TxnDelta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn base_snapshot(files: usize, with_dvs: bool) -> TableSnapshot {
    let mut actions = Vec::new();
    for i in 0..files {
        actions.push(ManifestAction::add_file(
            format!("t/base{i}"),
            100,
            1000,
            i as u32,
        ));
        if with_dvs && i % 2 == 0 {
            actions.push(ManifestAction::add_dv(
                format!("t/base{i}"),
                format!("t/base{i}.dv0"),
                5,
            ));
        }
    }
    TableSnapshot::from_manifests([(SequenceId(1), &Manifest::from_actions(actions))]).unwrap()
}

/// Generate one random VALID action against the current overlay state,
/// mimicking what statements emit: inserts add files; deletes replace the
/// current DV (remove-then-add when one exists); whole-file deletes remove.
fn random_action(
    rng: &mut StdRng,
    overlay: &TableSnapshot,
    fresh: &mut usize,
) -> Vec<ManifestAction> {
    let live: Vec<_> = overlay.files().cloned().collect();
    match rng.gen_range(0..4) {
        // insert a new file
        0 => {
            *fresh += 1;
            vec![ManifestAction::add_file(
                format!("t/new{fresh}"),
                50,
                500,
                rng.gen_range(0..4),
            )]
        }
        // delete some rows of a live file: RemoveDv(old)? + AddDv(new)
        1 if !live.is_empty() => {
            let f = &live[rng.gen_range(0..live.len())];
            *fresh += 1;
            let mut out = Vec::new();
            if let Some(dv) = &f.delete_vector {
                out.push(ManifestAction::remove_dv(
                    f.entry.path.clone(),
                    dv.path.clone(),
                ));
            }
            let old_card = f.delete_vector.as_ref().map_or(0, |d| d.cardinality);
            out.push(ManifestAction::add_dv(
                f.entry.path.clone(),
                format!("t/dv{fresh}"),
                (old_card + rng.gen_range(1..10)).min(f.entry.rows),
            ));
            out
        }
        // remove a whole live file
        2 if !live.is_empty() => {
            let f = &live[rng.gen_range(0..live.len())];
            vec![ManifestAction::remove_file(f.entry.path.clone())]
        }
        _ => {
            *fresh += 1;
            vec![ManifestAction::add_file(
                format!("t/new{fresh}"),
                10,
                100,
                rng.gen_range(0..4),
            )]
        }
    }
}

proptest! {
    #[test]
    fn reconciled_manifest_equals_overlay(
        seed in any::<u64>(),
        steps in 1usize..30,
        base_files in 0usize..6,
        with_dvs in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = base_snapshot(base_files, with_dvs);
        let mut delta = TxnDelta::new();
        let mut fresh = 0usize;
        for _ in 0..steps {
            let overlay = delta.overlay(&base);
            for action in random_action(&mut rng, &overlay, &mut fresh) {
                delta.apply(&base, &action).unwrap();
            }
        }
        // Invariant 1: replaying the reconciled manifest onto the base
        // reproduces the overlay exactly.
        let manifest = Manifest::from_actions(delta.to_actions());
        let mut committed = base.clone();
        committed.apply_manifest(SequenceId(2), &manifest).unwrap();
        let overlay = delta.overlay(&base);
        let committed_files: Vec<_> = committed.files().cloned().collect();
        let mut overlay_files: Vec<_> = overlay.files().cloned().collect();
        // `added_at` differs (overlay marks additions at base.upto+1);
        // normalize before comparing.
        for f in overlay_files.iter_mut() {
            if let Some(c) = committed_files.iter().find(|c| c.entry.path == f.entry.path) {
                f.added_at = c.added_at;
            }
        }
        prop_assert_eq!(committed_files, overlay_files);
        prop_assert_eq!(committed.live_rows(), overlay.live_rows());

        // Invariant 2: the committed manifest never mentions files that
        // were created AND obsoleted within the transaction. Every AddFile
        // path must be live in the final overlay.
        for action in &manifest.actions {
            if let ManifestAction::AddFile(e) = action {
                prop_assert!(
                    overlay.file(&e.path).is_some(),
                    "manifest adds {} which the txn already obsoleted",
                    e.path
                );
            }
        }

        // Invariant 3: modified_base_files ⊆ base files, and every removed
        // or re-DV'd base file is reported (conflict-detection soundness).
        for path in delta.modified_base_files() {
            prop_assert!(base.file(path).is_some());
        }
        for f in base.files() {
            let path = &f.entry.path;
            let changed = match overlay.file(path) {
                None => true, // removed
                Some(o) => o.delete_vector != f.delete_vector,
            };
            if changed {
                prop_assert!(
                    delta.modified_base_files().any(|p| p == path),
                    "base file {path} changed but is missing from the write set"
                );
            }
        }
    }
}

proptest! {
    /// The published Delta version (§5.4) is the net change between two
    /// committed snapshots of one chain: replayed onto the older it gives the
    /// newer, and it names no file committed and removed between them.
    #[test]
    fn snapshot_changes_replay_to_the_newer_snapshot(
        seed in any::<u64>(),
        commits in 1usize..20,
        cut in 0usize..20,
        base_files in 0usize..6,
        with_dvs in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chain = vec![base_snapshot(base_files, with_dvs)];
        let mut fresh = 0usize;
        for seq in 2..2 + commits as u64 {
            let mut next = chain.last().unwrap().clone();
            let actions = random_action(&mut rng, &next, &mut fresh);
            next.apply_manifest(SequenceId(seq), &Manifest::from_actions(actions)).unwrap();
            chain.push(next);
        }
        let older = &chain[cut.min(chain.len() - 1)];
        let newer = chain.last().unwrap();
        let changes = older.changes_to(newer);
        let mut replayed = older.clone();
        replayed
            .apply_manifest(SequenceId(newer.upto().0 + 1), &Manifest::from_actions(changes.clone()))
            .unwrap();
        let key = |s: &TableSnapshot| -> Vec<_> {
            s.files().map(|f| (f.entry.clone(), f.delete_vector.clone())).collect()
        };
        prop_assert_eq!(key(&replayed), key(newer));
        for action in &changes {
            match action {
                ManifestAction::AddFile(e) => prop_assert!(older.file(&e.path).is_none()),
                ManifestAction::RemoveFile { path } => prop_assert!(newer.file(path).is_none()),
                ManifestAction::AddDv { data_file, .. } => {
                    prop_assert!(newer.file(data_file).is_some())
                }
                ManifestAction::RemoveDv { data_file, .. } => {
                    prop_assert!(older.file(data_file).is_some() && newer.file(data_file).is_some())
                }
            }
        }
        if older.upto() == newer.upto() {
            prop_assert!(changes.is_empty());
        }
    }
}
