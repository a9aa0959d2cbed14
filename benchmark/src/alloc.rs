//! The harness's own counting allocator.
//!
//! `polaris-obs` has a tracking allocator behind its `track-alloc` cargo
//! feature, but a feature is a second build, and `BENCHMARK.json` has one
//! command. This wrapper is always installed and switched at run time: with
//! counting off (every `--trace 0` run) an allocation costs one relaxed load
//! on top of `System`; with counting on it also bumps a thread-local and a
//! global counter. Neither path allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

pub struct CountingAlloc;

/// Process-wide totals, sharded so that threads allocating at once (a dozen
/// pool workers beside the clients) do not fight over one cache line: a
/// thread takes the next shard on its first counted allocation.
#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 32;
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static TOTALS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];

thread_local! {
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count(size: usize) {
    // Statistics only: no other data is published through these counters.
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: the allocator also runs while a thread's TLS is torn down;
    // such an allocation lands in shard 0 and in no thread's own count.
    let shard = THREAD_SHARD
        .try_with(|c| {
            if c.get() == usize::MAX {
                c.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            c.get()
        })
        .unwrap_or(0);
    TOTALS[shard].allocs.fetch_add(1, Ordering::Relaxed);
    TOTALS[shard]
        .bytes
        .fetch_add(size as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counting touches only atomics and const-initialised
// `Cell`s, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCounts {
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// All threads, since the process started, while counting was on.
pub fn process_counts() -> AllocCounts {
    AllocCounts {
        allocs: TOTALS
            .iter()
            .map(|s| s.allocs.load(Ordering::Relaxed))
            .sum(),
        bytes: TOTALS.iter().map(|s| s.bytes.load(Ordering::Relaxed)).sum(),
    }
}

/// This thread only — exact for the single-threaded replay probes.
pub fn thread_counts() -> AllocCounts {
    AllocCounts {
        allocs: THREAD_ALLOCS.with(Cell::get),
        bytes: THREAD_BYTES.with(Cell::get),
    }
}
