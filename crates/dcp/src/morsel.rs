//! Work-stealing morsel scheduler: the read-path scheduling primitive
//! beside [`run_dag`](crate::ComputePool::run_dag).
//!
//! A DAG task is the unit of *placement* — it runs to completion on the
//! node it was dispatched to. That is the right shape for writes (stage
//! blocks, return IDs) but serializes a scan whenever one file dwarfs the
//! others: the unlucky node grinds through every row group while its
//! neighbours idle. Morsels fix the granularity: a scan is split into
//! row-group-aligned fragments, every Read lane with a free slot runs a
//! *driver* that pops fragments from its own deque front and, when empty,
//! steals from the back of the longest other deque — the classic
//! morsel-driven design (Leis et al., SIGMOD'14) on top of the pool's
//! node/lane topology. A driver holds its lane's slot for the whole run; a
//! run that finds every slot held parks until one is released, as a DAG
//! scheduler does.
//!
//! Two policies ride on the queue:
//!
//! * **Adaptive sizing** — the caller passes a total in-flight byte
//!   budget. Each driver derives a per-morsel target from it and splits an
//!   oversized morsel *at pop time* (lazy splitting): the target shrinks
//!   while in-flight bytes exceed the budget (memory pressure) and grows
//!   while the pipeline is starved (in-flight well under budget), so
//!   fragment size tracks how fast lanes are draining work.
//! * **Retry / node loss** — a failed attempt returns the morsel to the
//!   coordinator, which re-queues it on a surviving lane under the retry
//!   rule DAG tasks follow (`ComputePool::retry`); an attempt whose node
//!   died under it is lost by the same check (`LaneRef::unless_lost`). A
//!   killed node's deque stays stealable, so its queued morsels drain
//!   through other lanes; only the attempt that was *running* on the dead
//!   node is re-executed.
//!
//! Accounting note: morsel attempts are deliberately **not** counted in
//! [`PoolStats::attempts`](crate::PoolStats) and emit no `dcp.task`
//! spans — that meter is defined as "DAG task attempts" and traces assert
//! span/attempt parity. Morsel throughput is reported separately via
//! [`MorselRunStats`].

use crate::pool::{ComputePool, Job, LaneRef, SlotEvent, WorkloadClass};
use crate::{DcpError, DcpResult, TaskError};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use polaris_obs::alloc::{attribute_wait, Phase, PhaseScope};
use polaris_obs::Histogram;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a driver parks on an empty deque before it re-checks on its
/// own. Kills signal the pool's slot event, not a run's, so this re-check
/// is how a driver notices its node was killed while it was parked.
const DRIVER_RECHECK: Duration = Duration::from_millis(5);

/// A schedulable scan fragment. A failed attempt hands the morsel itself
/// back to the coordinator for re-queueing.
pub trait Morsel: Sized + Send + 'static {
    /// Result of executing this morsel.
    type Output: Send + 'static;

    /// Scheduling weight in bytes (the transfer volume executing it
    /// implies). Drives adaptive splitting and the in-flight budget.
    fn weight(&self) -> u64;

    /// Split into two smaller morsels of roughly equal weight, or `None`
    /// if this morsel is already atomic (a single row group).
    fn split(&self) -> Option<(Self, Self)>;

    /// Execute the morsel. Transient errors are retried on another lane
    /// up to the pool's retry budget.
    fn execute(&self, ctx: &MorselCtx) -> Result<Self::Output, TaskError>;
}

/// Execution context handed to [`Morsel::execute`].
#[derive(Debug, Clone, Copy)]
pub struct MorselCtx {
    /// Id of the node (lane) running this attempt.
    pub node: u64,
    /// 0 for the first attempt, incremented per retry.
    pub attempt: u32,
    /// Whether this attempt was stolen from another lane's deque.
    pub stolen: bool,
}

/// Counters from one [`ComputePool::run_morsels`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselRunStats {
    /// Morsels placed on lane deques (initial fan-out plus splits).
    pub scheduled: u64,
    /// Morsels popped from another lane's deque.
    pub stolen: u64,
    /// Adaptive splits performed at pop time.
    pub splits: u64,
    /// Attempts that were retries of a failed earlier attempt.
    pub retries: u64,
}

/// Morsel-to-coordinator completion traffic.
enum Event<M: Morsel> {
    Done(M::Output),
    Failed {
        morsel: M,
        attempt: u32,
        error: TaskError,
    },
    DriverExit,
}

struct Entry<M> {
    morsel: M,
    attempt: u32,
}

/// State shared by the coordinator and every driver.
struct Shared<M: Morsel> {
    deques: Vec<Mutex<VecDeque<Entry<M>>>>,
    /// Morsels not yet successfully completed (deque entries, running
    /// attempts, and failed attempts awaiting re-queue).
    remaining: AtomicUsize,
    /// Bytes of morsels currently executing across all lanes.
    in_flight_bytes: AtomicU64,
    /// Total in-flight byte budget (adaptive-sizing set point).
    budget: u64,
    /// Baseline per-morsel target: `budget / lanes`.
    per_lane: u64,
    shutdown: AtomicBool,
    /// Wakes drivers parked on empty deques when a retry or split lands.
    wake: SlotEvent,
    /// Wait-profiler sink for time drivers spend parked on `wake`
    /// (`dcp.morsel_wake_wait_ns`).
    wake_wait_ns: Histogram,
    scheduled: AtomicU64,
    stolen: AtomicU64,
    splits: AtomicU64,
    retries: AtomicU64,
}

impl<M: Morsel> Shared<M> {
    /// Current per-morsel split target. Shrinks under memory pressure
    /// (in-flight bytes above budget), grows when starved (in-flight
    /// below half the budget — lanes are waiting on storage, bigger
    /// fragments amortize per-morsel overhead).
    fn split_target(&self) -> u64 {
        let in_flight = self.in_flight_bytes.load(Ordering::Relaxed);
        let base = self.per_lane.max(1);
        if in_flight > self.budget {
            (base / 2).max(1)
        } else if in_flight < self.budget / 2 {
            base.saturating_mul(2)
        } else {
            base
        }
    }

    fn stats(&self) -> MorselRunStats {
        MorselRunStats {
            scheduled: self.scheduled.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// Pop the next morsel: own deque front first, else steal from the back
/// of the longest other deque (dead lanes' deques included — that is how
/// a killed node's queued work drains).
fn next_entry<M: Morsel>(shared: &Shared<M>, lane: usize) -> Option<(Entry<M>, bool)> {
    if let Some(e) = shared.deques[lane].lock().pop_front() {
        return Some((e, false));
    }
    let mut victims: Vec<(usize, usize)> = (0..shared.deques.len())
        .filter(|&i| i != lane)
        .map(|i| (shared.deques[i].lock().len(), i))
        .filter(|&(len, _)| len > 0)
        .collect();
    victims.sort_unstable_by_key(|v| std::cmp::Reverse(v.0));
    for (_, i) in victims {
        if let Some(e) = shared.deques[i].lock().pop_back() {
            shared.stolen.fetch_add(1, Ordering::Relaxed);
            return Some((e, true));
        }
    }
    None
}

/// Driver loop body, running as one long job on a node's worker thread.
fn drive<M: Morsel>(shared: &Shared<M>, lane: usize, node: &LaneRef, tx: &Sender<Event<M>>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || !node.is_alive() {
            return;
        }
        let gen = shared.wake.generation();
        let Some((mut entry, stolen)) = next_entry(shared, lane) else {
            if shared.remaining.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Work may still flow back (retries, splits on other lanes):
            // park until something lands.
            let parked = Instant::now();
            shared.wake.wait_past(gen, DRIVER_RECHECK);
            let waited_ns = parked.elapsed().as_nanos() as u64;
            shared.wake_wait_ns.record_ns(waited_ns);
            attribute_wait(waited_ns);
            continue;
        };
        // Lazy adaptive split: halve until within 2x of the current
        // target, pushing tails to our own front (hot) where neighbours
        // can steal them from the back.
        loop {
            let target = shared.split_target();
            if entry.morsel.weight() <= target.saturating_mul(2) {
                break;
            }
            let Some((head, tail)) = entry.morsel.split() else {
                break;
            };
            shared.remaining.fetch_add(1, Ordering::SeqCst);
            shared.scheduled.fetch_add(1, Ordering::Relaxed);
            shared.splits.fetch_add(1, Ordering::Relaxed);
            shared.deques[lane].lock().push_front(Entry {
                morsel: tail,
                attempt: entry.attempt,
            });
            shared.wake.signal();
            entry.morsel = head;
        }
        let weight = entry.morsel.weight();
        shared.in_flight_bytes.fetch_add(weight, Ordering::SeqCst);
        let ctx = MorselCtx {
            node: node.node.0,
            attempt: entry.attempt,
            stolen,
        };
        let result = {
            let _alloc = PhaseScope::enter(Phase::MorselExecution);
            entry.morsel.execute(&ctx)
        };
        shared.in_flight_bytes.fetch_sub(weight, Ordering::SeqCst);
        match node.unless_lost(result) {
            Ok(out) => {
                if shared.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    // Last morsel done: release every parked driver.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.wake.signal();
                }
                let _ = tx.send(Event::Done(out));
            }
            Err(error) => {
                let _ = tx.send(Event::Failed {
                    morsel: entry.morsel,
                    attempt: entry.attempt,
                    error,
                });
            }
        }
    }
}

impl ComputePool {
    /// Run `morsels` across the alive lanes of `class` with work
    /// stealing and adaptive splitting against `target_in_flight_bytes`.
    /// Returns outputs in *completion* order (callers that need
    /// determinism sort by an ordinal carried in the output) plus the
    /// run's counters.
    pub fn run_morsels<M: Morsel>(
        &self,
        class: WorkloadClass,
        morsels: Vec<M>,
        target_in_flight_bytes: u64,
    ) -> DcpResult<(Vec<M::Output>, MorselRunStats)> {
        let n = morsels.len();
        if n == 0 {
            return Ok((Vec::new(), MorselRunStats::default()));
        }
        // One driver per free slot of the class, parking (as `run_dag`
        // does) while every slot is held: a driver holds its lane's slot
        // for the whole run, so drivers beyond a node's capacity would
        // oversubscribe it (§4.3's slot-based workload separation).
        let mut parked = None;
        let slots = loop {
            let slot_gen = self.slot_event.generation();
            let slots = self.take_free_slots(class);
            if !slots.is_empty() {
                break slots;
            }
            self.park(class, slot_gen, &mut parked)?;
        };
        let budget = target_in_flight_bytes.max(1);
        let shared = Arc::new(Shared::<M> {
            deques: (0..slots.len())
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            remaining: AtomicUsize::new(n),
            in_flight_bytes: AtomicU64::new(0),
            budget,
            per_lane: (budget / slots.len() as u64).max(1),
            shutdown: AtomicBool::new(false),
            wake: SlotEvent::new(),
            wake_wait_ns: self.meter().morsel_wake_wait_ns.clone(),
            scheduled: AtomicU64::new(n as u64),
            stolen: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        });
        // Initial placement: round-robin so every lane starts with work.
        for (i, m) in morsels.into_iter().enumerate() {
            shared.deques[i % slots.len()].lock().push_back(Entry {
                morsel: m,
                attempt: 0,
            });
        }
        let (tx, rx) = unbounded::<Event<M>>();
        let mut active = 0usize;
        for (li, slot) in slots.into_iter().enumerate() {
            let sender = slot.lane.sender.clone();
            // The slot is held by the driver job; released when it ends,
            // unwinds, or is dropped unsent.
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let job: Job = Box::new(move |alive_at_dequeue| {
                if alive_at_dequeue {
                    drive(&shared, li, &slot.lane, &tx);
                }
                drop(slot);
                let _ = tx.send(Event::DriverExit);
            });
            if sender.send(job).is_ok() {
                active += 1;
            }
        }
        drop(tx);
        if active == 0 {
            return Err(DcpError::NoCapacity {
                class: class.name(),
            });
        }
        let mut outputs = Vec::with_capacity(n);
        let mut error: Option<DcpError> = None;
        let mut retry_rr = 0usize;
        while active > 0 {
            let event = rx.recv().expect("a driver exited without notice");
            match event {
                Event::Done(out) => outputs.push(out),
                Event::Failed {
                    morsel,
                    attempt,
                    error: err,
                } => {
                    if error.is_some() {
                        continue; // already failing; drop the morsel
                    }
                    match self.retry(0, attempt, err) {
                        Ok(next) => {
                            shared.retries.fetch_add(1, Ordering::Relaxed);
                            shared.scheduled.fetch_add(1, Ordering::Relaxed);
                            // Round-robin re-queue: stealing evens out a bad
                            // placement, liveness only needs *a* deque.
                            let target = retry_rr % shared.deques.len();
                            retry_rr += 1;
                            shared.deques[target].lock().push_back(Entry {
                                morsel,
                                attempt: next,
                            });
                        }
                        Err(e) => {
                            error = Some(e);
                            shared.shutdown.store(true, Ordering::SeqCst);
                        }
                    }
                    shared.wake.signal();
                }
                Event::DriverExit => active -= 1,
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        if shared.remaining.load(Ordering::SeqCst) > 0 {
            // Every driver exited (nodes died) with work still queued.
            return Err(DcpError::NoCapacity {
                class: class.name(),
            });
        }
        Ok((outputs, shared.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::sync::atomic::AtomicU32;

    /// Test morsel: a range of "rows" with a byte weight; splits at the
    /// midpoint; executes by summing ids (optionally failing or
    /// sleeping).
    #[derive(Clone)]
    struct TestMorsel {
        lo: u64,
        hi: u64,
        bytes_per_row: u64,
        sleep_ms: u64,
        fail_first: Arc<AtomicU32>,
        executed_on: Arc<Mutex<Vec<u64>>>,
    }

    impl TestMorsel {
        fn new(lo: u64, hi: u64) -> Self {
            TestMorsel {
                lo,
                hi,
                bytes_per_row: 1,
                sleep_ms: 0,
                fail_first: Arc::new(AtomicU32::new(0)),
                executed_on: Arc::new(Mutex::new(Vec::new())),
            }
        }
    }

    impl Morsel for TestMorsel {
        type Output = (u64, u64); // (lo, row count)

        fn weight(&self) -> u64 {
            (self.hi - self.lo) * self.bytes_per_row
        }

        fn split(&self) -> Option<(Self, Self)> {
            if self.hi - self.lo < 2 {
                return None;
            }
            let mid = self.lo + (self.hi - self.lo) / 2;
            let mut a = self.clone();
            let mut b = self.clone();
            a.hi = mid;
            b.lo = mid;
            Some((a, b))
        }

        fn execute(&self, ctx: &MorselCtx) -> Result<Self::Output, TaskError> {
            if self.sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.sleep_ms));
            }
            if self
                .fail_first
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
            {
                return Err(TaskError::transient("injected"));
            }
            self.executed_on.lock().push(ctx.node);
            Ok((self.lo, self.hi - self.lo))
        }
    }

    fn total_rows(outputs: &[(u64, u64)]) -> u64 {
        outputs.iter().map(|(_, n)| n).sum()
    }

    #[test]
    fn drains_all_morsels_once() {
        let pool = ComputePool::with_topology(3, 0, 1);
        let morsels: Vec<_> = (0..10)
            .map(|i| TestMorsel::new(i * 10, i * 10 + 10))
            .collect();
        let (out, stats) = pool
            .run_morsels(WorkloadClass::Read, morsels, u64::MAX)
            .unwrap();
        assert_eq!(total_rows(&out), 100);
        assert_eq!(stats.scheduled, 10);
        assert_eq!(stats.retries, 0);
        // Coverage: every range completed exactly once.
        let mut los: Vec<u64> = out.iter().map(|(lo, _)| *lo).collect();
        los.sort_unstable();
        assert_eq!(los, (0..10).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_morsel_splits_to_target() {
        let pool = ComputePool::with_topology(2, 0, 1);
        // One 1024-byte morsel against a 64-byte budget: must shatter.
        let (out, stats) = pool
            .run_morsels(WorkloadClass::Read, vec![TestMorsel::new(0, 1024)], 64)
            .unwrap();
        assert_eq!(total_rows(&out), 1024);
        assert!(stats.splits > 0, "expected adaptive splits, got {stats:?}");
        assert!(out.len() > 1);
    }

    #[test]
    fn idle_lane_steals_from_loaded_lane() {
        // 2 lanes, many slow morsels: round-robin seeds both deques, but
        // with a large budget nothing splits; uneven execution times make
        // steals overwhelmingly likely. Run enough morsels that a zero
        // steal count would mean stealing is broken, not unlucky.
        let pool = ComputePool::with_topology(2, 0, 1);
        let mut morsels = Vec::new();
        for i in 0..16 {
            let mut m = TestMorsel::new(i * 10, i * 10 + 10);
            // Lane 0's share (even indexes) is slow; lane 1 finishes its
            // own and must steal.
            m.sleep_ms = if i % 2 == 0 { 10 } else { 0 };
            morsels.push(m);
        }
        let (out, stats) = pool
            .run_morsels(WorkloadClass::Read, morsels, u64::MAX)
            .unwrap();
        assert_eq!(total_rows(&out), 160);
        assert!(stats.stolen > 0, "expected steals, got {stats:?}");
    }

    #[test]
    fn transient_failures_retry_on_another_attempt() {
        let pool = ComputePool::with_topology(2, 0, 1);
        let m = TestMorsel::new(0, 8);
        m.fail_first.store(2, Ordering::SeqCst);
        let (out, stats) = pool
            .run_morsels(
                WorkloadClass::Read,
                vec![m, TestMorsel::new(8, 16)],
                u64::MAX,
            )
            .unwrap();
        assert_eq!(total_rows(&out), 16);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn retries_exhausted_fails_the_run() {
        let pool = ComputePool::with_topology(2, 0, 1);
        let m = TestMorsel::new(0, 8);
        m.fail_first.store(u32::MAX, Ordering::SeqCst);
        let err = pool
            .run_morsels(WorkloadClass::Read, vec![m], u64::MAX)
            .unwrap_err();
        assert!(matches!(
            err,
            DcpError::RetriesExhausted { attempts: 4, .. }
        ));
    }

    #[test]
    fn fatal_failure_fails_fast() {
        struct Fatal;
        impl Morsel for Fatal {
            type Output = ();
            fn weight(&self) -> u64 {
                1
            }
            fn split(&self) -> Option<(Self, Self)> {
                None
            }
            fn execute(&self, _: &MorselCtx) -> Result<(), TaskError> {
                Err(TaskError::fatal("bug"))
            }
        }
        let pool = ComputePool::with_topology(2, 0, 1);
        let err = pool
            .run_morsels(WorkloadClass::Read, vec![Fatal, Fatal], u64::MAX)
            .unwrap_err();
        assert!(matches!(err, DcpError::TaskFailed { .. }));
    }

    #[test]
    fn killed_node_mid_scan_drains_fully() {
        // The satellite-mandated drill: kill one of two lanes while the
        // scan runs. Its queued morsels must drain through the survivor
        // (steals from the dead lane's deque), and the morsel that was
        // *running* on the victim must be re-executed elsewhere — every
        // range completes exactly once in the output.
        let pool = Arc::new(ComputePool::new());
        let victim = pool.add_nodes(WorkloadClass::Read, 2, 1)[0];
        let mut morsels = Vec::new();
        for i in 0..12 {
            let mut m = TestMorsel::new(i * 10, i * 10 + 10);
            m.sleep_ms = 5;
            morsels.push(m);
        }
        let p = Arc::clone(&pool);
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(12));
            p.kill_node(victim);
        });
        let (out, _stats) = pool
            .run_morsels(WorkloadClass::Read, morsels, u64::MAX)
            .unwrap();
        killer.join().unwrap();
        let mut los: Vec<u64> = out.iter().map(|(lo, _)| *lo).collect();
        los.sort_unstable();
        assert_eq!(
            los,
            (0..12).map(|i| i * 10).collect::<Vec<_>>(),
            "every morsel must complete exactly once despite the kill"
        );
        assert_eq!(pool.alive_count(WorkloadClass::Read), 1);
    }

    #[test]
    fn all_nodes_dead_reports_no_capacity() {
        let pool = ComputePool::new();
        let id = pool.add_nodes(WorkloadClass::Read, 1, 1)[0];
        pool.kill_node(id);
        let err = pool
            .run_morsels(WorkloadClass::Read, vec![TestMorsel::new(0, 4)], u64::MAX)
            .unwrap_err();
        assert!(matches!(err, DcpError::NoCapacity { class: "Read" }));
        let _ = NodeId(0); // keep the import exercised on all feature sets
    }

    #[test]
    fn empty_run_is_trivial() {
        let pool = ComputePool::with_topology(1, 0, 1);
        let (out, stats) = pool
            .run_morsels::<TestMorsel>(WorkloadClass::Read, Vec::new(), 1024)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, MorselRunStats::default());
    }

    #[test]
    fn morsel_runs_do_not_inflate_dag_attempt_stats() {
        // The tracing contract: PoolStats::attempts counts DAG task
        // attempts only; morsel work is accounted in MorselRunStats.
        let pool = ComputePool::with_topology(2, 0, 1);
        let before = pool.stats();
        let morsels: Vec<_> = (0..6)
            .map(|i| TestMorsel::new(i * 10, i * 10 + 10))
            .collect();
        pool.run_morsels(WorkloadClass::Read, morsels, u64::MAX)
            .unwrap();
        let after = pool.stats();
        assert_eq!(before.attempts, after.attempts);
        assert_eq!(before.retries, after.retries);
    }

    #[test]
    fn a_morsel_run_waits_for_a_held_slot() {
        // One Read node with one slot, held by a DAG task until released.
        let pool = Arc::new(ComputePool::with_topology(1, 0, 1));
        let (release, held) = std::sync::mpsc::channel::<()>();
        let held = Mutex::new(held);
        let dag_run = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut dag = crate::WorkflowDag::new();
                dag.add_task(move |_| {
                    let _ = held.lock().recv();
                    Ok(())
                });
                pool.run_dag(dag, WorkloadClass::Read).unwrap();
            })
        };
        while pool.busy(WorkloadClass::Read) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let morsel = TestMorsel::new(0, 4);
        let executed = Arc::clone(&morsel.executed_on);
        let scan = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                pool.run_morsels(WorkloadClass::Read, vec![morsel], u64::MAX)
            })
        };
        // The run parks for a slot, counted once, instead of running.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().slot_waits == 0 {
            assert!(
                Instant::now() < deadline,
                "the morsel run never waited for the held slot"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(executed.lock().is_empty(), "a morsel ran without a slot");
        release.send(()).unwrap();
        dag_run.join().unwrap();
        let (out, _) = scan.join().unwrap().unwrap();
        assert_eq!(total_rows(&out), 4);
        assert_eq!(pool.busy(WorkloadClass::Read), 0);
    }
}
