//! Resource attribution: a tracking global allocator and a phase scope
//! stack.
//!
//! The ROADMAP's zero-allocation hot-path work needs a *measured*
//! allocations-per-commit number, not an assumed one. This module supplies
//! the measurement substrate in three pieces:
//!
//! * **A tracking `#[global_allocator]` wrapper** ([`TrackingAlloc`])
//!   around [`std::alloc::System`]. It bumps lock-free global totals
//!   (allocs, frees, bytes allocated/freed, peak live bytes) plus
//!   per-thread counters on every heap operation. The wrapper is only
//!   installed when the crate is built with the **`track-alloc`** cargo
//!   feature; default builds compile this module (the scope stack and all
//!   read APIs keep working) but pay zero allocator overhead and simply
//!   read zeros. [`tracking_enabled`] tells callers which world they live
//!   in.
//! * **A TLS scope stack** ([`PhaseScope`], mirroring `SpanGuard` in
//!   [`crate::trace`]) attributing allocations — and lock/condvar *wait
//!   time*, via [`attribute_wait`] — to named engine phases
//!   ([`Phase`]): statement dispatch, parse/plan, scan planning,
//!   morsel execution, write encode, manifest staging, txn validate,
//!   manifest upload, sequencer publish, replay, profile bookkeeping,
//!   telemetry.
//!   The stack is a fixed-size array of TLS `Cell`s so the allocator hook
//!   itself never allocates (reentrancy would deadlock or recurse).
//! * **Registry publication** ([`AllocMetrics`]): pre-registered
//!   `alloc.bytes{phase=...}` / `alloc.count{phase=...}` /
//!   `alloc.wait_ns{phase=...}` counters and live/peak/RSS gauges whose
//!   [`AllocMetrics::sync`] copies the raw atomics into a
//!   [`MetricsRegistry`] without allocating — the Harvester calls it each
//!   tick, the Prometheus endpoint before each scrape, so
//!   `alloc_bytes_total{phase="..."}` and `process_resident_bytes` are
//!   always present in `/metrics` (zero-valued when tracking is off).
//!
//! # Attribution semantics
//!
//! Phase counters are *global* (summed across threads): a scope entered on
//! one thread attributes that thread's allocations while it is the
//! innermost scope. A statement's `QueryProfile::phases` (and a commit's
//! `TxnProfile::commit_phases`) is the [`phase_delta`] of [`phase_totals`]
//! snapshots taken before and after it, so — exactly like the cache-hit
//! deltas reported beside it — it is approximate under concurrent
//! sessions. The per-thread counters ([`thread_counts`])
//! are exact for single-threaded sections and back the allocation gate.
use crate::{Gauge, MetricsRegistry};
#[cfg(feature = "track-alloc")]
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of attribution phases (including [`Phase::Unscoped`]).
pub const PHASE_COUNT: usize = 13;

/// The engine's one phase vocabulary: allocations, lock waits and the
/// per-statement record (`QueryProfile::phases`) are all attributed to
/// these, under the same labels.
///
/// `Unscoped` collects everything recorded while no [`PhaseScope`] is
/// active on the current thread (test harnesses, background threads that
/// never enter a scope).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// No scope active on this thread.
    Unscoped = 0,
    /// SQL tokenize + parse + logical planning (`polaris-sql`).
    ParsePlan = 1,
    /// Snapshot scan planning: pruning, task fan-out, morsel carving.
    ScanPlanning = 2,
    /// Morsel execution on DCP lanes (scan/aggregate leaf work).
    MorselExecution = 3,
    /// Commit-time validation under the commit lock.
    TxnValidate = 4,
    /// Staged-manifest upload / block-list publication to the store.
    ManifestUpload = 5,
    /// The global sequencer section: timestamping + version publish.
    SequencerPublish = 6,
    /// LST snapshot reconstruction (manifest replay on cache miss).
    Replay = 7,
    /// The telemetry plane itself: harvester ticks, watchdog evaluation.
    Telemetry = 8,
    /// A session running one statement: transaction begin, table lookup,
    /// literal coercion, and whatever of the commit no inner phase claims.
    StatementDispatch = 9,
    /// The write operator: partitioning rows into distribution groups and
    /// encoding + storing their data files.
    WriteEncode = 10,
    /// Encoding a write task's manifest actions, staging the block and
    /// applying the actions to the transaction's private delta.
    ManifestStaging = 11,
    /// Statement and transaction profiles: building, patching at commit
    /// and the slow log.
    ProfileBookkeeping = 12,
}

impl Phase {
    /// All phases, in label order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Unscoped,
        Phase::ParsePlan,
        Phase::ScanPlanning,
        Phase::MorselExecution,
        Phase::TxnValidate,
        Phase::ManifestUpload,
        Phase::SequencerPublish,
        Phase::Replay,
        Phase::Telemetry,
        Phase::StatementDispatch,
        Phase::WriteEncode,
        Phase::ManifestStaging,
        Phase::ProfileBookkeeping,
    ];

    /// Stable snake_case label, used as the `phase` metric label and in
    /// `EXPLAIN ANALYZE` output.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Unscoped => "unscoped",
            Phase::ParsePlan => "parse_plan",
            Phase::ScanPlanning => "scan_planning",
            Phase::MorselExecution => "morsel_execution",
            Phase::TxnValidate => "txn_validate",
            Phase::ManifestUpload => "manifest_upload",
            Phase::SequencerPublish => "sequencer_publish",
            Phase::Replay => "replay",
            Phase::Telemetry => "telemetry",
            Phase::StatementDispatch => "statement_dispatch",
            Phase::WriteEncode => "write_encode",
            Phase::ManifestStaging => "manifest_staging",
            Phase::ProfileBookkeeping => "profile_bookkeeping",
        }
    }
}

/// One phase's accumulated attribution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Bytes allocated while the phase was innermost.
    pub bytes: u64,
    /// Allocation count while the phase was innermost.
    pub allocs: u64,
    /// Lock/condvar wait nanoseconds attributed via [`attribute_wait`].
    pub wait_ns: u64,
    /// Number of attributed wait events.
    pub waits: u64,
}

impl PhaseTotals {
    /// What accrued since `earlier`, field by field (saturating, so a
    /// reader racing a writer never wraps).
    pub fn since(self, earlier: PhaseTotals) -> PhaseTotals {
        PhaseTotals {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            waits: self.waits.saturating_sub(earlier.waits),
        }
    }
}

impl std::ops::Add for PhaseTotals {
    type Output = PhaseTotals;

    fn add(self, other: PhaseTotals) -> PhaseTotals {
        PhaseTotals {
            bytes: self.bytes + other.bytes,
            allocs: self.allocs + other.allocs,
            wait_ns: self.wait_ns + other.wait_ns,
            waits: self.waits + other.waits,
        }
    }
}

impl std::iter::Sum for PhaseTotals {
    fn sum<I: Iterator<Item = PhaseTotals>>(iter: I) -> PhaseTotals {
        iter.fold(PhaseTotals::default(), |a, b| a + b)
    }
}

/// What accrued in each phase between two [`phase_totals`] snapshots.
pub fn phase_delta(
    before: &[PhaseTotals; PHASE_COUNT],
    after: &[PhaseTotals; PHASE_COUNT],
) -> [PhaseTotals; PHASE_COUNT] {
    std::array::from_fn(|i| after[i].since(before[i]))
}

/// Process-wide allocator totals (all phases, all threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Total successful heap allocations.
    pub allocs: u64,
    /// Total deallocations.
    pub frees: u64,
    /// Total bytes handed out.
    pub alloc_bytes: u64,
    /// Total bytes returned.
    pub freed_bytes: u64,
    /// High-water mark of `alloc_bytes - freed_bytes`.
    pub peak_live_bytes: u64,
}

impl AllocTotals {
    /// Bytes currently live (allocated minus freed). Approximate across
    /// threads; exact once the process quiesces.
    pub fn live_bytes(&self) -> u64 {
        self.alloc_bytes.saturating_sub(self.freed_bytes)
    }
}

struct PhaseCounters {
    bytes: AtomicU64,
    allocs: AtomicU64,
    wait_ns: AtomicU64,
    waits: AtomicU64,
}

impl PhaseCounters {
    const fn new() -> Self {
        PhaseCounters {
            bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }
}

static PHASES: [PhaseCounters; PHASE_COUNT] = [const { PhaseCounters::new() }; PHASE_COUNT];

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Maximum [`PhaseScope`] nesting per thread. Deeper scopes still work —
/// they just attribute to the phase at the truncation point.
const MAX_SCOPE_DEPTH: usize = 16;

struct TlsState {
    depth: Cell<usize>,
    stack: [Cell<u8>; MAX_SCOPE_DEPTH],
    allocs: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    static TLS: TlsState = const {
        TlsState {
            depth: Cell::new(0),
            stack: [const { Cell::new(0) }; MAX_SCOPE_DEPTH],
            allocs: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
}

#[inline]
fn current_phase_index() -> usize {
    // `try_with` so the allocator hook stays safe during TLS teardown
    // (allocations after this thread's TLS is destroyed fall to Unscoped).
    TLS.try_with(|t| {
        let d = t.depth.get();
        if d == 0 {
            0
        } else {
            let idx = t.stack[(d - 1).min(MAX_SCOPE_DEPTH - 1)].get() as usize;
            idx.min(PHASE_COUNT - 1)
        }
    })
    .unwrap_or(0)
}

#[cfg_attr(not(feature = "track-alloc"), allow(dead_code))]
#[inline]
fn on_alloc(size: usize) {
    let size = size as u64;
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let allocated = TOTAL_ALLOC_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    let live = allocated.saturating_sub(TOTAL_FREED_BYTES.load(Ordering::Relaxed));
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    let phase = &PHASES[current_phase_index()];
    phase.bytes.fetch_add(size, Ordering::Relaxed);
    phase.allocs.fetch_add(1, Ordering::Relaxed);
    let _ = TLS.try_with(|t| {
        t.allocs.set(t.allocs.get() + 1);
        t.bytes.set(t.bytes.get() + size);
    });
}

#[cfg_attr(not(feature = "track-alloc"), allow(dead_code))]
#[inline]
fn on_dealloc(size: usize) {
    TOTAL_FREES.fetch_add(1, Ordering::Relaxed);
    TOTAL_FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// Counting wrapper around the system allocator. Installed as the global
/// allocator only under the `track-alloc` feature; safe (but pointless) to
/// instantiate otherwise.
pub struct TrackingAlloc;

#[cfg(feature = "track-alloc")]
// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counter bumps around each call never touch
// the returned memory and never allocate (atomics + const-init TLS cells).
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count a realloc as free(old) + alloc(new) so byte totals
            // stay an exact ledger of live memory.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(feature = "track-alloc")]
#[global_allocator]
static GLOBAL_TRACKER: TrackingAlloc = TrackingAlloc;

/// Whether the tracking allocator is installed in this build
/// (`track-alloc` cargo feature). When `false`, allocation counters read
/// zero; scope/wait attribution still works.
pub const fn tracking_enabled() -> bool {
    cfg!(feature = "track-alloc")
}

/// RAII guard attributing this thread's allocations (and
/// [`attribute_wait`] calls) to `phase` until dropped. Nests like
/// `trace::SpanGuard`: the innermost scope wins.
#[must_use = "the scope attributes allocations only while alive"]
pub struct PhaseScope {
    saved_depth: usize,
}

impl PhaseScope {
    /// Push `phase` onto this thread's scope stack.
    pub fn enter(phase: Phase) -> PhaseScope {
        let saved_depth = TLS
            .try_with(|t| {
                let d = t.depth.get();
                if d < MAX_SCOPE_DEPTH {
                    t.stack[d].set(phase as u8);
                }
                t.depth.set(d + 1);
                d
            })
            .unwrap_or(0);
        PhaseScope { saved_depth }
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let _ = TLS.try_with(|t| {
            // Restore rather than decrement: scopes drop LIFO per thread,
            // so this also self-heals if an inner guard leaked.
            if t.depth.get() > self.saved_depth {
                t.depth.set(self.saved_depth);
            }
        });
    }
}

/// Attribute `ns` nanoseconds of lock/condvar wait to the innermost phase
/// on this thread. Works whether or not the tracking allocator is
/// installed.
pub fn attribute_wait(ns: u64) {
    let phase = &PHASES[current_phase_index()];
    phase.wait_ns.fetch_add(ns, Ordering::Relaxed);
    phase.waits.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide allocator totals.
pub fn totals() -> AllocTotals {
    AllocTotals {
        allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
        frees: TOTAL_FREES.load(Ordering::Relaxed),
        alloc_bytes: TOTAL_ALLOC_BYTES.load(Ordering::Relaxed),
        freed_bytes: TOTAL_FREED_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Per-phase attribution totals, indexed by [`Phase`] discriminant.
/// `Copy` so statement profiling can snapshot before/after and diff.
pub fn phase_totals() -> [PhaseTotals; PHASE_COUNT] {
    let mut out = [PhaseTotals::default(); PHASE_COUNT];
    for (slot, phase) in out.iter_mut().zip(PHASES.iter()) {
        *slot = PhaseTotals {
            bytes: phase.bytes.load(Ordering::Relaxed),
            allocs: phase.allocs.load(Ordering::Relaxed),
            wait_ns: phase.wait_ns.load(Ordering::Relaxed),
            waits: phase.waits.load(Ordering::Relaxed),
        };
    }
    out
}

/// This thread's cumulative (allocs, bytes) — exact, unaffected by other
/// threads.
pub fn thread_counts() -> (u64, u64) {
    TLS.try_with(|t| (t.allocs.get(), t.bytes.get()))
        .unwrap_or((0, 0))
}

/// Resident set size of this process in bytes, from `/proc/self/statm`
/// (resident pages × page size). Returns 0 where procfs is unavailable.
/// Reads into a stack buffer: safe to call from the harvester tick without
/// allocating.
pub fn rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        use std::io::Read as _;
        let mut buf = [0u8; 128];
        let Ok(mut f) = std::fs::File::open("/proc/self/statm") else {
            return 0;
        };
        let Ok(n) = f.read(&mut buf) else { return 0 };
        // statm: "size resident shared text lib data dt" in pages.
        let mut fields = buf[..n].split(|b| *b == b' ');
        let _size = fields.next();
        let Some(resident) = fields.next() else {
            return 0;
        };
        let mut pages: u64 = 0;
        for b in resident {
            if !b.is_ascii_digit() {
                break;
            }
            pages = pages.saturating_mul(10).saturating_add((b - b'0') as u64);
        }
        pages.saturating_mul(page_size())
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Page size from the ELF auxiliary vector (`AT_PAGESZ` in
/// `/proc/self/auxv`), cached after the first read; 4096 if unreadable.
#[cfg(target_os = "linux")]
fn page_size() -> u64 {
    static PAGE: AtomicU64 = AtomicU64::new(0);
    let cached = PAGE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let mut size = 4096u64;
    if let Ok(auxv) = std::fs::read("/proc/self/auxv") {
        const AT_PAGESZ: u64 = 6;
        for pair in auxv.chunks_exact(16) {
            let key = u64::from_ne_bytes([
                pair[0], pair[1], pair[2], pair[3], pair[4], pair[5], pair[6], pair[7],
            ]);
            let val = u64::from_ne_bytes([
                pair[8], pair[9], pair[10], pair[11], pair[12], pair[13], pair[14], pair[15],
            ]);
            if key == AT_PAGESZ && val != 0 {
                size = val;
                break;
            }
        }
    }
    PAGE.store(size, Ordering::Relaxed);
    size
}

/// Pre-registered registry handles for the attribution metrics.
///
/// Registration allocates (metric names); [`AllocMetrics::sync`] does not —
/// it copies the raw atomics into the already-registered handles, which is
/// what lets the telemetry plane itself pass the allocation gate.
pub struct AllocMetrics {
    phase_bytes: [crate::Counter; PHASE_COUNT],
    phase_allocs: [crate::Counter; PHASE_COUNT],
    phase_wait_ns: [crate::Counter; PHASE_COUNT],
    allocs: crate::Counter,
    frees: crate::Counter,
    live_bytes: Gauge,
    peak_live_bytes: Gauge,
    rss: Gauge,
}

/// Canonical registry key for a phase-labeled attribution metric:
/// `base{phase="label"}`. Panics only on an invalid `base` — call sites
/// pass literals.
pub fn phase_metric_key(base: &str, phase: Phase) -> String {
    crate::MetricName::new(base)
        .and_then(|n| n.with_label("phase", phase.label()))
        .expect("alloc metric bases are compile-time literals")
        .registry_key()
}

impl AllocMetrics {
    /// Get-or-create the attribution metrics in `registry`:
    /// `alloc.bytes{phase=...}`, `alloc.count{phase=...}`,
    /// `alloc.wait_ns{phase=...}`, `alloc.allocs`, `alloc.frees`,
    /// `alloc.live_bytes`, `alloc.peak_live_bytes`,
    /// `process.resident_bytes`.
    pub fn register(registry: &MetricsRegistry) -> AllocMetrics {
        let labeled = |base: &str, phase: Phase| registry.counter(&phase_metric_key(base, phase));
        AllocMetrics {
            phase_bytes: Phase::ALL.map(|p| labeled("alloc.bytes", p)),
            phase_allocs: Phase::ALL.map(|p| labeled("alloc.count", p)),
            phase_wait_ns: Phase::ALL.map(|p| labeled("alloc.wait_ns", p)),
            allocs: registry.counter("alloc.allocs"),
            frees: registry.counter("alloc.frees"),
            live_bytes: registry.gauge("alloc.live_bytes"),
            peak_live_bytes: registry.gauge("alloc.peak_live_bytes"),
            rss: registry.gauge("process.resident_bytes"),
        }
    }

    /// Copy the raw attribution atomics into the registry handles.
    /// Allocation-free; counters advance monotonically via
    /// `add(raw - seen)`.
    pub fn sync(&self) {
        let raise = |c: &crate::Counter, raw: u64| {
            c.add(raw.saturating_sub(c.get()));
        };
        for (i, snap) in phase_totals().iter().enumerate() {
            raise(&self.phase_bytes[i], snap.bytes);
            raise(&self.phase_allocs[i], snap.allocs);
            raise(&self.phase_wait_ns[i], snap.wait_ns);
        }
        let t = totals();
        raise(&self.allocs, t.allocs);
        raise(&self.frees, t.frees);
        self.live_bytes.set(t.live_bytes() as i64);
        self.peak_live_bytes.set(t.peak_live_bytes as i64);
        self.rss.set(rss_bytes() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current_phase() -> Phase {
        Phase::ALL[current_phase_index()]
    }

    #[test]
    fn scope_stack_nests_and_restores() {
        assert_eq!(current_phase(), Phase::Unscoped);
        {
            let _outer = PhaseScope::enter(Phase::ParsePlan);
            assert_eq!(current_phase(), Phase::ParsePlan);
            {
                let _inner = PhaseScope::enter(Phase::MorselExecution);
                assert_eq!(current_phase(), Phase::MorselExecution);
            }
            assert_eq!(current_phase(), Phase::ParsePlan);
        }
        assert_eq!(current_phase(), Phase::Unscoped);
    }

    #[test]
    fn deep_nesting_saturates_without_corruption() {
        let guards: Vec<PhaseScope> = (0..MAX_SCOPE_DEPTH + 4)
            .map(|_| PhaseScope::enter(Phase::Replay))
            .collect();
        assert_eq!(current_phase(), Phase::Replay);
        drop(guards);
        assert_eq!(current_phase(), Phase::Unscoped);
    }

    #[test]
    fn wait_attribution_lands_on_innermost_phase() {
        let before = phase_totals()[Phase::TxnValidate as usize];
        {
            let _scope = PhaseScope::enter(Phase::TxnValidate);
            attribute_wait(1_500);
            attribute_wait(500);
        }
        let after = phase_totals()[Phase::TxnValidate as usize];
        assert_eq!(after.waits - before.waits, 2);
        assert_eq!(after.wait_ns - before.wait_ns, 2_000);
    }

    #[test]
    fn phase_labels_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.label()), "duplicate label {}", p.label());
        }
        assert_eq!(
            Phase::ALL[Phase::SequencerPublish as usize].label(),
            "sequencer_publish"
        );
    }

    #[test]
    fn registry_sync_publishes_every_phase() {
        let registry = MetricsRegistry::new();
        let metrics = AllocMetrics::register(&registry);
        metrics.sync();
        let snap = registry.snapshot();
        for phase in Phase::ALL {
            let key = phase_metric_key("alloc.bytes", phase);
            assert!(snap.counters.contains_key(&key), "missing {key}");
        }
        assert!(snap.gauges.contains_key("process.resident_bytes"));
        assert!(snap.gauges.contains_key("alloc.live_bytes"));
    }

    #[test]
    fn sync_is_monotonic_for_counters() {
        let registry = MetricsRegistry::new();
        let metrics = AllocMetrics::register(&registry);
        metrics.sync();
        let first = registry.counter("alloc.allocs").get();
        metrics.sync();
        let second = registry.counter("alloc.allocs").get();
        assert!(second >= first);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_is_nonzero_on_linux() {
        assert!(rss_bytes() > 0);
    }

    #[cfg(feature = "track-alloc")]
    #[test]
    fn tracking_attributes_bytes_to_scoped_phase() {
        let before = phase_totals()[Phase::ManifestUpload as usize];
        let (t_allocs0, t_bytes0) = thread_counts();
        {
            let _scope = PhaseScope::enter(Phase::ManifestUpload);
            let v: Vec<u8> = Vec::with_capacity(64 * 1024);
            std::hint::black_box(&v);
        }
        let after = phase_totals()[Phase::ManifestUpload as usize];
        assert!(after.allocs > before.allocs);
        assert!(after.bytes - before.bytes >= 64 * 1024);
        let (t_allocs1, t_bytes1) = thread_counts();
        assert!(t_allocs1 > t_allocs0 && t_bytes1 > t_bytes0);
        let t = totals();
        assert!(t.allocs > 0 && t.alloc_bytes > 0 && t.peak_live_bytes > 0);
    }
}
