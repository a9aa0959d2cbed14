//! Multi-threaded stress tests for the commit protocol: validation under
//! one commit lock, publication through the sequencer (directly or by
//! group commit). Lock races show at release timing, so tier-1 runs this
//! file optimized as well. The tests assert:
//!
//! * **No lost updates** — counter increments equal successful commits.
//! * **No WW-conflict false negatives** — of N same-snapshot writers of
//!   one key, exactly one commits and the rest report
//!   `WriteWriteConflict`.
//! * **Monotone, dense commit clock** — commit timestamps are unique,
//!   contiguous from 1, and `now()` ends at the total commit count.
//! * **Multi-key atomicity** — transfer transactions never unbalance the
//!   invariant sum.
//! * **The lock is taken only when there is something to validate** —
//!   and only then is a hold recorded.

use polaris_catalog::{CatalogError, IsolationLevel, MvccStore, Timestamp};
use polaris_obs::{CatalogMeter, MetricsRegistry};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

type Store = MvccStore<String, i64>;

/// Disjoint per-writer key ranges: every commit must succeed, and the
/// clock must end exactly at the number of commits.
#[test]
fn disjoint_footprints_all_commit() {
    let s = Arc::new(Store::new());
    let writers = 8;
    let commits_per_writer = 50;
    let ts_log = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..writers)
        .map(|w| {
            let s = Arc::clone(&s);
            let ts_log = Arc::clone(&ts_log);
            thread::spawn(move || {
                for i in 0..commits_per_writer {
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    s.write(&mut t, format!("w{w}/k{i}"), i as i64).unwrap();
                    let outcome = s.commit(&mut t).expect("disjoint commit must succeed");
                    ts_log.lock().unwrap().push(outcome.commit_ts.0);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let total = (writers * commits_per_writer) as u64;
    let log = ts_log.lock().unwrap();
    let unique: BTreeSet<u64> = log.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "commit timestamps unique");
    assert_eq!(*unique.iter().next().unwrap(), 1, "clock dense from 1");
    assert_eq!(*unique.iter().last().unwrap(), total, "clock dense to N");
    assert_eq!(s.now(), Timestamp(total), "watermark caught up");
    assert_eq!(s.meter().commits.get(), total);
    assert_eq!(s.meter().ww_conflicts.get(), 0);
}

/// N writers of the same key from the same snapshot: exactly one wins per
/// round, everyone else gets a WriteWriteConflict — never a silent pass.
#[test]
fn overlapping_footprints_report_every_conflict() {
    let s = Arc::new(Store::new());
    let writers = 6;
    let rounds = 20;
    for round in 0..rounds {
        // All transactions begin before any commits, so they share a
        // snapshot and every pair overlaps.
        let txns: Vec<_> = (0..writers)
            .map(|_| s.begin(IsolationLevel::Snapshot))
            .collect();
        let barrier = Arc::new(Barrier::new(writers));
        let threads: Vec<_> = txns
            .into_iter()
            .enumerate()
            .map(|(w, mut t)| {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    s.write(&mut t, format!("hot{round}"), w as i64).unwrap();
                    barrier.wait();
                    match s.commit(&mut t) {
                        Ok(_) => Ok(()),
                        Err(CatalogError::WriteWriteConflict { .. }) => Err(()),
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                })
            })
            .collect();
        let outcomes: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let wins = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(wins, 1, "exactly one winner per contended round");
    }
    assert_eq!(s.meter().commits.get(), rounds as u64);
    assert_eq!(
        s.meter().ww_conflicts.get(),
        (rounds * (writers - 1)) as u64,
        "every loser surfaced as a WW conflict"
    );
}

/// Two-key transfers between accounts: the invariant sum survives any
/// interleaving, and retries converge.
#[test]
fn transfers_preserve_invariant() {
    let s = Arc::new(Store::new());
    let accounts = 8;
    let initial = 100i64;
    let mut setup = s.begin(IsolationLevel::Snapshot);
    for a in 0..accounts {
        s.write(&mut setup, format!("acct{a}"), initial).unwrap();
    }
    s.commit(&mut setup).unwrap();
    let threads: Vec<_> = (0..4)
        .map(|w| {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                let mut committed = 0u64;
                for i in 0..100 {
                    let from = format!("acct{}", (w + i) % accounts);
                    let to = format!("acct{}", (w + i + 1) % accounts);
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    let f = s.read(&mut t, &from).unwrap().unwrap();
                    let g = s.read(&mut t, &to).unwrap().unwrap();
                    s.write(&mut t, from, f - 1).unwrap();
                    s.write(&mut t, to, g + 1).unwrap();
                    match s.commit(&mut t) {
                        Ok(_) => committed += 1,
                        Err(CatalogError::WriteWriteConflict { .. }) => {}
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    let mut r = s.begin(IsolationLevel::Snapshot);
    let sum: i64 = (0..accounts)
        .map(|a| s.read(&mut r, &format!("acct{a}")).unwrap().unwrap())
        .sum();
    assert_eq!(sum, initial * accounts as i64, "transfers conserve total");
    // Setup commit + every successful transfer advanced the clock once.
    assert_eq!(s.now(), Timestamp(1 + committed));
}

/// The classic lost-update shape from the unit suite, under more threads:
/// counter equals the number of successful commits exactly.
#[test]
fn contended_counter_has_no_lost_updates() {
    let s = Arc::new(Store::new());
    let mut setup = s.begin(IsolationLevel::Snapshot);
    s.write(&mut setup, "counter".to_owned(), 0).unwrap();
    s.commit(&mut setup).unwrap();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                let mut committed = 0i64;
                for _ in 0..50 {
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    let v = s.read(&mut t, &"counter".to_owned()).unwrap().unwrap();
                    s.write(&mut t, "counter".to_owned(), v + 1).unwrap();
                    if s.commit(&mut t).is_ok() {
                        committed += 1;
                    }
                }
                committed
            })
        })
        .collect();
    let total: i64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    let mut r = s.begin(IsolationLevel::Snapshot);
    assert_eq!(s.read(&mut r, &"counter".to_owned()).unwrap(), Some(total));
}

/// Serializable write-skew detection under concurrency: a commit with a
/// read set takes the commit lock, so one half of each skew sees the
/// other's write.
#[test]
fn serializable_write_skew_detected_under_concurrency() {
    let s = Arc::new(Store::new());
    let mut setup = s.begin(IsolationLevel::Snapshot);
    s.write(&mut setup, "a".to_owned(), 1).unwrap();
    s.write(&mut setup, "b".to_owned(), 1).unwrap();
    s.commit(&mut setup).unwrap();
    for _ in 0..50 {
        let barrier = Arc::new(Barrier::new(2));
        let pair: Vec<_> = [("a", "b"), ("b", "a")]
            .into_iter()
            .map(|(read, write)| {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let mut t = s.begin(IsolationLevel::Serializable);
                    let v = s.read(&mut t, &read.to_owned()).unwrap().unwrap();
                    s.write(&mut t, write.to_owned(), v).unwrap();
                    barrier.wait();
                    s.commit(&mut t).is_ok()
                })
            })
            .collect();
        let oks: Vec<bool> = pair.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(
            !(oks[0] && oks[1]),
            "both halves of a write skew committed under Serializable"
        );
    }
}

/// A transaction pinned via `begin_at` holds the GC watermark (oldest
/// active snapshot) down while concurrent commits advance the
/// commit clock past it.
#[test]
fn begin_at_pins_gc_watermark_under_concurrent_commits() {
    let s = Arc::new(Store::new());
    let mut setup = s.begin(IsolationLevel::Snapshot);
    s.write(&mut setup, "seed".to_owned(), 1).unwrap();
    s.commit(&mut setup).unwrap();
    let pin_ts = s.now();
    let mut pinned = s.begin_at(pin_ts);

    let threads: Vec<_> = (0..4)
        .map(|w| {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                for i in 0..50 {
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    s.write(&mut t, format!("w{w}/k{i}"), i as i64).unwrap();
                    s.commit(&mut t).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(s.now(), Timestamp(1 + 4 * 50), "clock advanced past pin");
    assert_eq!(
        s.min_active_snapshot(),
        Some(pin_ts),
        "pinned snapshot holds the GC watermark down"
    );
    // Vacuuming at the watermark must keep the pinned snapshot readable.
    s.vacuum(s.min_active_snapshot().unwrap());
    assert_eq!(s.read(&mut pinned, &"seed".to_owned()).unwrap(), Some(1));
    s.abort(&mut pinned);
    assert_eq!(s.min_active_snapshot(), None, "watermark released");
}

/// Regression: a writer re-committing the *same* keys back-to-back must
/// never conflict with itself. If commit publication were not atomic
/// with timestamp draw (e.g. a lagging watermark while another commit's
/// install is in flight), `begin()` could hand out a snapshot below the
/// writer's own last commit and first-committer-wins would abort it.
#[test]
fn sequential_recommits_never_self_conflict() {
    let s = Arc::new(Store::new());
    let threads: Vec<_> = (0..8)
        .map(|w| {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                // Every iteration rewrites the same per-writer key, so
                // each commit's FCW check races only the writer's own
                // previous commit becoming visible.
                for i in 0..200 {
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    s.write(&mut t, format!("slot{w}"), i).unwrap();
                    s.commit(&mut t)
                        .expect("a writer must see its own prior commit");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(s.meter().ww_conflicts.get(), 0);
    assert_eq!(s.now(), Timestamp(8 * 200));
}

/// A commit that buffered nothing takes no place in the commit order: no
/// commit lock, no timestamp, no commit-log record — under either sequencer
/// path — and it reports its snapshot. Its read set is still validated.
#[test]
fn read_only_commits_draw_no_timestamp_and_log_nothing() {
    for max_batch in [1, 8] {
        let s = Store::new();
        s.set_group_commit(max_batch, std::time::Duration::from_micros(50));
        let logged = Arc::new(AtomicU64::new(0));
        {
            let logged = Arc::clone(&logged);
            s.set_commit_log(Some(Arc::new(move |records| {
                logged.fetch_add(records.len() as u64, Ordering::SeqCst);
                Ok(())
            })));
        }
        let mut w = s.begin(IsolationLevel::Snapshot);
        s.write(&mut w, "k".to_owned(), 1).unwrap();
        s.commit(&mut w).unwrap();
        let before = s.now();
        let holds = s.meter().commit_lock_hold.count();

        let mut t = s.begin(IsolationLevel::Snapshot);
        assert_eq!(s.read(&mut t, &"k".to_owned()).unwrap(), Some(1));
        let outcome = s.commit(&mut t).unwrap();
        assert_eq!(
            outcome.commit_ts, before,
            "a read-only commit is its snapshot"
        );
        assert_eq!(s.now(), before, "the clock counts writing transactions");
        assert_eq!(
            logged.load(Ordering::SeqCst),
            1,
            "only the write was logged"
        );
        assert_eq!(s.meter().commit_lock_hold.count(), holds);
        assert_eq!(s.active_count(), 0);

        // Serializable: the read set is validated all the same.
        let mut reader = s.begin(IsolationLevel::Serializable);
        s.read(&mut reader, &"k".to_owned()).unwrap();
        let mut w = s.begin(IsolationLevel::Snapshot);
        s.write(&mut w, "k".to_owned(), 2).unwrap();
        s.commit(&mut w).unwrap();
        assert!(matches!(
            s.commit(&mut reader),
            Err(CatalogError::SerializationFailure { .. })
        ));
        assert_eq!(s.now(), Timestamp(before.0 + 1));
    }
}

/// `catalog.commit_lock_hold_ns` counts holds of the commit lock, so only
/// commits that take it record one: pure-`extra` commits (an INSERT's
/// shape) and read-only commits leave it at 0, one write commit adds
/// exactly 1, and so does a Serializable commit with a read set.
#[test]
fn a_hold_is_recorded_only_when_the_lock_is_taken() {
    let registry = MetricsRegistry::new();
    let s = Store::with_meter(CatalogMeter::from_registry(&registry));
    let count = |name: &str| {
        let snap = registry.snapshot();
        snap.histograms.get(name).map_or(0, |h| h.count)
    };
    let holds = || count("catalog.commit_lock_hold_ns");
    for i in 0..4 {
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.commit_with(&mut t, move |ts| vec![(format!("m@{}", ts.0), Some(i))])
            .unwrap();
    }
    let mut t = s.begin(IsolationLevel::Snapshot);
    assert_eq!(s.read(&mut t, &"m@1".to_owned()).unwrap(), Some(0));
    s.commit(&mut t).unwrap();
    let mut t = s.begin(IsolationLevel::Serializable);
    s.commit(&mut t).unwrap();
    assert_eq!(s.now(), Timestamp(4), "the pure-extra commits committed");
    assert_eq!(holds(), 0, "no lock taken, no hold recorded");

    let mut t = s.begin(IsolationLevel::Snapshot);
    s.write(&mut t, "k".to_owned(), 1).unwrap();
    s.commit(&mut t).unwrap();
    assert_eq!(holds(), 1, "one write commit, one hold");

    let mut t = s.begin(IsolationLevel::Serializable);
    s.read(&mut t, &"k".to_owned()).unwrap();
    s.commit(&mut t).unwrap();
    assert_eq!(
        holds(),
        2,
        "a Serializable read set is validated under the lock"
    );
    assert_eq!(
        count("catalog.commit_lock_wait_ns"),
        2,
        "one wait per acquisition"
    );
}

// ----------------------------------------------------------------------
// Group commit through the sequencer
// ----------------------------------------------------------------------

/// Disjoint multi-writer commits through the group-commit sequencer:
/// batching must not lose or duplicate a member, and the commit clock
/// must stay exactly as dense as the one-commit-per-section protocol's.
/// The commit-log hook observes every batch; its dense timestamp runs
/// must partition the clock.
#[test]
fn group_commit_batches_preserve_dense_unique_clock() {
    let s = Arc::new(Store::new());
    s.set_group_commit(8, std::time::Duration::from_micros(200));
    let batches: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let batches = Arc::clone(&batches);
        s.set_commit_log(Some(Arc::new(move |records| {
            // The members commit at one dense run of timestamps.
            let first = records[0].commit_ts.0;
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.commit_ts.0, first + i as u64);
            }
            batches.lock().unwrap().push((first, records.len()));
            Ok(())
        })));
    }
    let writers = 8;
    let commits_per_writer = 25;
    let ts_log = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(writers));
    let threads: Vec<_> = (0..writers)
        .map(|w| {
            let s = Arc::clone(&s);
            let ts_log = Arc::clone(&ts_log);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..commits_per_writer {
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    s.write(&mut t, format!("w{w}/k{i}"), i as i64).unwrap();
                    let outcome = s.commit(&mut t).expect("disjoint commit must succeed");
                    ts_log.lock().unwrap().push(outcome.commit_ts.0);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let total = (writers * commits_per_writer) as u64;
    let log = ts_log.lock().unwrap();
    let unique: BTreeSet<u64> = log.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "timestamps unique");
    assert_eq!(*unique.iter().next().unwrap(), 1, "clock dense from 1");
    assert_eq!(*unique.iter().last().unwrap(), total, "clock dense to N");
    assert_eq!(s.now(), Timestamp(total), "watermark caught up");
    assert_eq!(s.meter().commits.get(), total);
    // The batch-size histogram records one sample per sequencer
    // section whose value is the batch size, so the sum counts every
    // member exactly once.
    assert_eq!(s.meter().group_batch_size.sum_ns(), total);
    assert!(s.meter().group_batch_size.count() <= total);
    // The commit log saw every member exactly once, in dense,
    // non-overlapping timestamp runs that partition [1, total].
    let mut seen = batches.lock().unwrap().clone();
    seen.sort_unstable();
    assert_eq!(seen.iter().map(|(_, n)| *n as u64).sum::<u64>(), total);
    let mut next = 1u64;
    for (first, n) in seen {
        assert_eq!(first, next, "batch timestamp runs must be contiguous");
        next += n as u64;
    }
    assert_eq!(next, total + 1);
}

/// A failing commit-log write aborts every member of its batch with
/// [`CatalogError::CommitLogFailure`] and consumes no timestamps: the
/// survivors' clock stays dense, aborted writes are invisible, and the
/// failure counter matches exactly.
#[test]
fn commit_log_failure_aborts_whole_batch_without_consuming_timestamps() {
    let s = Arc::new(Store::new());
    s.set_group_commit(8, std::time::Duration::from_micros(200));
    let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
    {
        let calls = Arc::clone(&calls);
        s.set_commit_log(Some(Arc::new(move |_records| {
            // Every third batch's durable log write fails.
            if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) % 3 == 2 {
                Err("injected commit-log fault".to_owned())
            } else {
                Ok(())
            }
        })));
    }
    let writers = 6;
    let commits_per_writer = 30;
    let barrier = Arc::new(Barrier::new(writers));
    let threads: Vec<_> = (0..writers)
        .map(|w| {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut outcomes = Vec::new();
                for i in 0..commits_per_writer {
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    s.write(&mut t, format!("w{w}/k{i}"), i as i64).unwrap();
                    match s.commit(&mut t) {
                        Ok(o) => outcomes.push((format!("w{w}/k{i}"), Some(o.commit_ts.0))),
                        Err(CatalogError::CommitLogFailure { .. }) => {
                            outcomes.push((format!("w{w}/k{i}"), None))
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
                outcomes
            })
        })
        .collect();
    let outcomes: Vec<(String, Option<u64>)> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    let total = (writers * commits_per_writer) as u64;
    let succeeded: BTreeSet<u64> = outcomes.iter().filter_map(|(_, ts)| *ts).collect();
    let failed = total - succeeded.len() as u64;
    assert!(failed > 0, "some batches must have hit the injected fault");
    assert!(!succeeded.is_empty(), "some batches must have succeeded");
    // Aborted batches consumed no timestamps: the survivors alone form
    // the dense clock.
    assert_eq!(*succeeded.iter().next().unwrap(), 1);
    assert_eq!(*succeeded.iter().last().unwrap(), succeeded.len() as u64);
    assert_eq!(s.now(), Timestamp(succeeded.len() as u64));
    assert_eq!(s.meter().commits.get(), succeeded.len() as u64);
    assert_eq!(s.meter().commit_log_failures.get(), failed);
    // Failed members' writes are invisible; successful members' persist.
    let mut r = s.begin(IsolationLevel::Snapshot);
    for (key, ts) in &outcomes {
        let read = s.read(&mut r, key).unwrap();
        match ts {
            Some(_) => assert!(read.is_some(), "committed write {key} must be visible"),
            None => assert_eq!(read, None, "aborted write {key} must be invisible"),
        }
    }
}

/// A lone committer with batching enabled must not wait for a batch that
/// will never fill: the leader drains a partial batch after the window.
#[test]
fn single_committer_drains_partial_batch_after_window() {
    let s = Store::new();
    s.set_group_commit(64, std::time::Duration::from_millis(5));
    let start = std::time::Instant::now();
    let mut t = s.begin(IsolationLevel::Snapshot);
    s.write(&mut t, "solo".to_owned(), 1).unwrap();
    let outcome = s.commit(&mut t).unwrap();
    assert_eq!(outcome.commit_ts, Timestamp(1));
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "partial batch must drain after the window, not hang"
    );
    assert_eq!(s.meter().group_batch_size.count(), 1);
    assert_eq!(s.meter().group_batch_size.sum_ns(), 1);
}

/// `max_batch = 1` is the documented off-switch: no queue, every commit
/// its own sequencer section, exactly the ungrouped protocol.
#[test]
fn batch_of_one_reproduces_direct_path() {
    let s = Arc::new(Store::new());
    s.set_group_commit(1, std::time::Duration::from_micros(200));
    let threads: Vec<_> = (0..4)
        .map(|w| {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                for i in 0..25 {
                    let mut t = s.begin(IsolationLevel::Snapshot);
                    s.write(&mut t, format!("w{w}/k{i}"), i as i64).unwrap();
                    s.commit(&mut t).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(s.now(), Timestamp(100));
    // Every sequencer section carried exactly one commit.
    assert_eq!(s.meter().group_batch_size.count(), 100);
    assert_eq!(s.meter().group_batch_size.sum_ns(), 100);
}
