//! The tentpole assertion: after warmup, the catalog-only commit hot
//! path — begin, buffered write, validate, sequence, install, publish,
//! vacuum — runs with ZERO allocations per commit. Pooled transaction
//! scratch (write-set vector, read set), a commit lock held on the stack
//! and the drain-in-place installer together mean a warm store touches
//! the allocator not at all.
//!
//! Runs only with `--features track-alloc` (the tracking global
//! allocator); without it the file compiles to nothing.
#![cfg(feature = "track-alloc")]

use polaris_catalog::{IsolationLevel, MvccStore};

/// Commits-per-measurement window, comfortably past any amortized
/// doubling a cold structure might still do.
const WARMUP: usize = 64;
const MEASURED: usize = 256;

fn commit_loop(s: &MvccStore<u64, u64>, n: usize) {
    for i in 0..n {
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, 7, i as u64).expect("write");
        s.commit(&mut t).expect("commit");
        // Keep the version chain bounded so installs never grow it.
        s.vacuum(s.now());
    }
}

#[test]
fn catalog_commit_path_is_allocation_free_after_warmup() {
    let s: MvccStore<u64, u64> = MvccStore::new();
    commit_loop(&s, WARMUP);
    let (allocs_before, frees_before) = polaris_obs::alloc::thread_counts();
    commit_loop(&s, MEASURED);
    let (allocs_after, frees_after) = polaris_obs::alloc::thread_counts();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "warm catalog commit path allocated ({} allocs / {} frees over {MEASURED} commits)",
        allocs_after - allocs_before,
        frees_after - frees_before,
    );
    assert_eq!(frees_after - frees_before, 0, "warm path freed memory");
}

#[test]
fn serializable_commit_path_is_allocation_free_after_warmup() {
    // Same discipline with a tracked read set: the pooled HashSet keeps
    // its capacity, so Serializable reads don't allocate once warm.
    let s: MvccStore<u64, u64> = MvccStore::new();
    let run = |n: usize| {
        for i in 0..n {
            let mut t = s.begin(IsolationLevel::Serializable);
            let _ = s.read(&mut t, &7).expect("read");
            s.write(&mut t, 7, i as u64).expect("write");
            s.commit(&mut t).expect("commit");
            s.vacuum(s.now());
        }
    };
    run(WARMUP);
    let (allocs_before, _) = polaris_obs::alloc::thread_counts();
    run(MEASURED);
    let (allocs_after, _) = polaris_obs::alloc::thread_counts();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "warm Serializable commit path allocated",
    );
}
