//! Property tests over random interleavings of MVCC transactions,
//! verifying the Snapshot Isolation axioms no schedule may violate:
//!
//! 1. Reads are repeatable: a transaction sees one consistent snapshot.
//! 2. First-committer-wins: of two overlapping writers of the same key,
//!    at most one commits.
//! 3. Committed state equals a serial replay of the committed
//!    transactions in commit order.
//! 4. Every point read, range scan and last-live-key probe answers what a
//!    model computes independently: the committed writes at the
//!    transaction's snapshot, overlaid with its own buffered writes and
//!    tombstones.

use polaris_catalog::{CatalogError, IsolationLevel, MvccStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

type Store = MvccStore<u8, i64>;

/// A write set: `None` is a tombstone.
type Writes = BTreeMap<u8, Option<i64>>;

/// One step of an interleaved schedule over a fixed set of transactions.
#[derive(Debug, Clone)]
enum Step {
    Begin(u8),
    Read(u8, u8),
    Write(u8, u8, i64),
    Delete(u8, u8),
    Scan(u8, Bound<u8>, Bound<u8>),
    LastKey(u8, Bound<u8>, Bound<u8>),
    Commit(u8),
    Abort(u8),
}

/// A bound over `0..=keys` (one past the last key, so ranges may end
/// beyond everything written).
fn bound_strategy(keys: u8) -> impl Strategy<Value = Bound<u8>> {
    prop_oneof![
        (0..=keys).prop_map(Bound::Included),
        (0..=keys).prop_map(Bound::Excluded),
        Just(Bound::Unbounded),
    ]
}

/// A well-formed range: `lo <= hi`, and never `(Excluded(k), Excluded(k))`
/// — the shapes a catalog range is built in.
fn range_strategy(keys: u8) -> impl Strategy<Value = (Bound<u8>, Bound<u8>)> {
    (bound_strategy(keys), bound_strategy(keys)).prop_map(|(lo, hi)| {
        let key = |b: &Bound<u8>| match b {
            Bound::Included(k) | Bound::Excluded(k) => Some(*k),
            Bound::Unbounded => None,
        };
        match (key(&lo), key(&hi)) {
            (Some(a), Some(b)) if a > b => (hi, lo),
            (Some(a), Some(b)) if a == b => (lo, Bound::Included(b)),
            _ => (lo, hi),
        }
    })
}

fn step_strategy(txns: u8, keys: u8) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..txns).prop_map(Step::Begin),
        (0..txns, 0..keys).prop_map(|(t, k)| Step::Read(t, k)),
        (0..txns, 0..keys, -100i64..100).prop_map(|(t, k, v)| Step::Write(t, k, v)),
        (0..txns, 0..keys).prop_map(|(t, k)| Step::Delete(t, k)),
        (0..txns, range_strategy(keys)).prop_map(|(t, (lo, hi))| Step::Scan(t, lo, hi)),
        (0..txns, range_strategy(keys)).prop_map(|(t, (lo, hi))| Step::LastKey(t, lo, hi)),
        (0..txns).prop_map(Step::Commit),
        (0..txns).prop_map(Step::Abort),
    ]
}

/// The model's answer for a transaction: every write committed at or
/// below `snapshot`, replayed in commit order, then the transaction's own
/// buffered writes on top; tombstoned keys are absent.
fn model_view(history: &[(u64, Writes)], snapshot: u64, own: &Writes) -> BTreeMap<u8, i64> {
    let mut state = Writes::new();
    for (_, writes) in history.iter().filter(|(ts, _)| *ts <= snapshot) {
        state.extend(writes);
    }
    state.extend(own);
    state
        .into_iter()
        .filter_map(|(k, v)| v.map(|v| (k, v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn si_axioms_hold_for_all_schedules(
        steps in proptest::collection::vec(step_strategy(4, 3), 1..100),
    ) {
        let store = Store::new();
        let mut txns: Vec<Option<polaris_catalog::Txn<u8, i64>>> =
            (0..4).map(|_| None).collect();
        // Per-transaction: first observed value per key (for repeatability)
        // and the write set (for serial replay and the model's overlay).
        let mut first_reads: Vec<BTreeMap<u8, Option<i64>>> =
            vec![BTreeMap::new(); 4];
        let mut writes: Vec<Writes> = vec![Writes::new(); 4];
        // Committed transactions' write sets with their commit timestamps,
        // in commit order.
        let mut history: Vec<(u64, Writes)> = Vec::new();

        for step in &steps {
            match step {
                Step::Begin(t) => {
                    let t = *t as usize;
                    if txns[t].is_none() {
                        txns[t] = Some(store.begin(IsolationLevel::Snapshot));
                        first_reads[t].clear();
                        writes[t].clear();
                    }
                }
                Step::Read(t, k) => {
                    let ti = *t as usize;
                    if let Some(txn) = txns[ti].as_mut() {
                        let got = store.read(txn, k).unwrap();
                        let view = model_view(&history, txn.snapshot.0, &writes[ti]);
                        prop_assert_eq!(got, view.get(k).copied(), "read of key {}", k);
                        match first_reads[ti].get(k) {
                            // Axiom 1: repeatable reads (own writes shadow).
                            Some(first) if !writes[ti].contains_key(k) => {
                                prop_assert_eq!(&got, first, "non-repeatable read");
                            }
                            Some(_) => {}
                            None => {
                                if !writes[ti].contains_key(k) {
                                    first_reads[ti].insert(*k, got);
                                }
                            }
                        }
                    }
                }
                Step::Write(t, k, v) => {
                    let ti = *t as usize;
                    if let Some(txn) = txns[ti].as_mut() {
                        store.write(txn, *k, *v).unwrap();
                        writes[ti].insert(*k, Some(*v));
                    }
                }
                Step::Delete(t, k) => {
                    let ti = *t as usize;
                    if let Some(txn) = txns[ti].as_mut() {
                        store.delete(txn, *k).unwrap();
                        writes[ti].insert(*k, None);
                    }
                }
                Step::Scan(t, lo, hi) => {
                    let ti = *t as usize;
                    if let Some(txn) = txns[ti].as_mut() {
                        let got = store.scan(txn, lo.as_ref(), hi.as_ref()).unwrap();
                        let view = model_view(&history, txn.snapshot.0, &writes[ti]);
                        let expected: Vec<(u8, i64)> =
                            view.range((*lo, *hi)).map(|(k, v)| (*k, *v)).collect();
                        prop_assert_eq!(got, expected, "scan {:?}..{:?}", lo, hi);
                    }
                }
                Step::LastKey(t, lo, hi) => {
                    let ti = *t as usize;
                    if let Some(txn) = txns[ti].as_mut() {
                        let got = store.last_key_in_range(txn, lo.as_ref(), hi.as_ref()).unwrap();
                        let view = model_view(&history, txn.snapshot.0, &writes[ti]);
                        let expected = view.range((*lo, *hi)).next_back().map(|(k, _)| *k);
                        prop_assert_eq!(got, expected, "last key {:?}..{:?}", lo, hi);
                    }
                }
                Step::Commit(t) => {
                    let ti = *t as usize;
                    if let Some(mut txn) = txns[ti].take() {
                        match store.commit(&mut txn) {
                            Ok(outcome) => {
                                if !writes[ti].is_empty() {
                                    history.push((outcome.commit_ts.0, writes[ti].clone()));
                                }
                            }
                            Err(e) => {
                                // Axiom 2: only WW conflicts abort commits.
                                let is_ww =
                                    matches!(e, CatalogError::WriteWriteConflict { .. });
                                prop_assert!(is_ww, "unexpected commit error");
                            }
                        }
                    }
                }
                Step::Abort(t) => {
                    let ti = *t as usize;
                    if let Some(mut txn) = txns[ti].take() {
                        store.abort(&mut txn);
                    }
                }
            }
        }
        // Axiom 3: final committed state == serial replay in commit order.
        let model = model_view(&history, u64::MAX, &Writes::new());
        let mut check = store.begin(IsolationLevel::Snapshot);
        for k in 0..3u8 {
            let got = store.read(&mut check, &k).unwrap();
            prop_assert_eq!(got, model.get(&k).copied(), "key {} diverged", k);
        }
    }

    /// Overlapping writers of one key: exactly one commits (never both).
    #[test]
    fn overlapping_writers_never_both_commit(
        v1 in any::<i64>(),
        v2 in any::<i64>(),
        commit_order in any::<bool>(),
    ) {
        let store = Store::new();
        let mut a = store.begin(IsolationLevel::Snapshot);
        let mut b = store.begin(IsolationLevel::Snapshot);
        store.write(&mut a, 0u8, v1).unwrap();
        store.write(&mut b, 0u8, v2).unwrap();
        let (first, second) = if commit_order { (&mut a, &mut b) } else { (&mut b, &mut a) };
        let r1 = store.commit(first);
        let r2 = store.commit(second);
        prop_assert!(r1.is_ok());
        prop_assert!(r2.is_err());
        let mut check = store.begin(IsolationLevel::Snapshot);
        let expected = if commit_order { v1 } else { v2 };
        prop_assert_eq!(store.read(&mut check, &0u8).unwrap(), Some(expected));
    }
}
