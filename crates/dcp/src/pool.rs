//! The compute pool: a dynamic topology of worker nodes with task-level
//! scheduling, retries, and workload separation.

use crate::dag::{TaskCtx, TaskFn, WorkflowDag};
use crate::{DcpError, DcpResult, TaskError};
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use parking_lot::RwLock;
use polaris_obs::{PoolMeter, Tracer};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A generation-counted wake event. `gen` counts changes worth a re-check;
/// a waiter captures it *before* looking for work and parks only while it
/// is unchanged, so a signal landing between the failed look and the park
/// is never missed. The pool's instance wakes DAG schedulers stalled on a
/// class whose every slot is held (slot releases and topology changes
/// signal it); each morsel run has its own that wakes its drivers when a
/// retry or a split lands.
pub(crate) struct SlotEvent {
    gen: AtomicU64,
    lock: StdMutex<()>,
    cv: Condvar,
}

impl SlotEvent {
    pub(crate) fn new() -> Self {
        SlotEvent {
            gen: AtomicU64::new(0),
            lock: StdMutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.gen.load(Ordering::SeqCst)
    }

    pub(crate) fn signal(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
        // Taking the lock orders the bump against any waiter's check —
        // the waiter either sees the new generation or is already parked
        // when the notify fires.
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Park until the generation moves past `seen`; `false` when
    /// `timeout` ended the wait instead. The timeout bounds the cost of
    /// any edge this reasoning missed to one re-check, never a stall.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.gen.load(Ordering::SeqCst) == seen {
            let (g, timeout) = self
                .cv
                .wait_timeout(guard, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
            if timeout.timed_out() {
                return false;
            }
        }
        true
    }
}

/// Identifier of a compute node within the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

/// Workload class a node serves (§4.3 workload separation).
///
/// The WLM allocates separate sets of compute nodes for reads and writes so
/// that ETL never interferes with reporting; `System` nodes run STO
/// background tasks (compaction, checkpointing, GC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Query execution nodes.
    Read,
    /// Data loading / DML nodes.
    Write,
    /// Background storage-optimization nodes.
    System,
}

impl WorkloadClass {
    pub(crate) fn name(self) -> &'static str {
        match self {
            WorkloadClass::Read => "Read",
            WorkloadClass::Write => "Write",
            WorkloadClass::System => "System",
        }
    }
}

/// A job shipped to a worker thread. The `bool` argument tells the job
/// whether its node was still alive when dequeued: jobs on a dead node
/// report [`TaskError::NodeLost`] without running.
pub(crate) type Job = Box<dyn FnOnce(bool) + Send + 'static>;

/// A view of one node: enough to send it jobs, observe its liveness and
/// account its slots without exposing [`NodeHandle`] itself.
pub(crate) struct LaneRef {
    pub(crate) node: NodeId,
    alive: Arc<AtomicBool>,
    busy: Arc<AtomicUsize>,
    pub(crate) sender: Sender<Job>,
}

impl LaneRef {
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// The result of an attempt that ran on this node, as its scheduler
    /// takes it: a node killed while the body ran discards the output —
    /// Polaris treats the attempt as lost and re-schedules it (§4.3), and
    /// anything it staged is never committed.
    pub(crate) fn unless_lost<T>(&self, result: Result<T, TaskError>) -> Result<T, TaskError> {
        if self.is_alive() {
            result
        } else {
            Err(TaskError::NodeLost { node: self.node.0 })
        }
    }
}

/// One held task slot of a node. Dropping it releases the slot and wakes
/// schedulers parked on a full class — also when the body it was held for
/// unwinds, on a node thread and on a caller's thread alike.
pub(crate) struct Slot {
    pub(crate) lane: LaneRef,
    event: Arc<SlotEvent>,
}

impl Slot {
    pub(crate) fn hold(lane: LaneRef, event: &Arc<SlotEvent>) -> Slot {
        lane.busy.fetch_add(1, Ordering::SeqCst);
        let event = Arc::clone(event);
        Slot { lane, event }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.lane.busy.fetch_sub(1, Ordering::SeqCst);
        self.event.signal();
    }
}

/// Trace-attribute label for how an attempt ended.
fn outcome_label<T>(outcome: &Result<T, TaskError>) -> &'static str {
    match outcome {
        Ok(_) => "ok",
        Err(TaskError::NodeLost { .. }) => "node_lost",
        Err(e) if e.is_retryable() => "transient",
        Err(_) => "fatal",
    }
}

struct NodeHandle {
    class: WorkloadClass,
    alive: Arc<AtomicBool>,
    /// Tasks currently queued or running on the node.
    busy: Arc<AtomicUsize>,
    capacity: usize,
    sender: Sender<Job>,
    _worker: JoinHandle<()>,
}

impl NodeHandle {
    fn lane(&self, node: NodeId) -> LaneRef {
        LaneRef {
            node,
            alive: Arc::clone(&self.alive),
            busy: Arc::clone(&self.busy),
            sender: self.sender.clone(),
        }
    }
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Task attempts executed to completion (success or failure).
    pub attempts: u64,
    /// Attempts that were retries of a failed earlier attempt.
    pub retries: u64,
    /// Tasks whose attempt was lost to a node failure.
    pub node_losses: u64,
    /// Times a DAG scheduler parked waiting for another DAG to release a
    /// slot (each park ends on the release event, not a spin).
    pub slot_waits: u64,
}

/// What one finished attempt reports: task, attempt number, outcome.
type Completion<T> = (usize, u32, Result<T, TaskError>);

/// The channel lane attempts report on.
type DoneChannel<T> = (Sender<Completion<T>>, Receiver<Completion<T>>);

/// One attempt of one task, wherever it runs: on a node's thread, or on
/// the scheduling thread itself when it is the only runnable work. Either
/// way it holds a slot of a node for as long as the body runs.
struct Attempt<T> {
    slot: Slot,
    task: usize,
    attempt: u32,
    run: TaskFn<T>,
    tracer: Tracer,
    trace_parent: u64,
}

impl<T> Attempt<T> {
    /// Run the body on this thread. `alive` is whether the node was alive
    /// when the attempt reached it: an attempt on a dead node reports
    /// [`TaskError::NodeLost`] without running.
    fn run(self, alive: bool) -> Completion<T> {
        let node = self.slot.lane.node.0;
        // One span per attempt, on the node's trace lane; spans inside the
        // task body (exec.scan, exec.write_*) nest under it via this
        // thread's span stack.
        let mut span = self
            .tracer
            .span_on_lane("dcp.task", self.trace_parent, node);
        span.attr("node", node);
        span.attr("task", self.task);
        span.attr("attempt", self.attempt);
        let outcome = if alive {
            self.slot.lane.unless_lost((self.run)(&TaskCtx {
                node,
                attempt: self.attempt,
                task: self.task,
            }))
        } else {
            Err(TaskError::NodeLost { node })
        };
        span.attr("outcome", outcome_label(&outcome));
        drop(span);
        // Free the slot before reporting: the report may unblock the very
        // scheduler that then wants it.
        drop(self.slot);
        (self.task, self.attempt, outcome)
    }
}

/// One DAG's scheduling state, owned by the thread in
/// [`ComputePool::run_dag`].
struct DagRun<T> {
    class: WorkloadClass,
    tasks: Vec<TaskFn<T>>,
    /// Runnable `(task, attempt)` pairs not yet placed.
    ready: Vec<(usize, u32)>,
    in_flight: usize,
    results: Vec<Option<T>>,
    completed: usize,
    /// First failure; once set nothing more is placed, and `run_dag`
    /// returns it when the attempts already in flight have reported.
    failed: Option<DcpError>,
    /// Where lane attempts report; made when the first one is placed.
    done: Option<DoneChannel<T>>,
    /// Tracer and the submitting thread's current span, captured once:
    /// attempts may run on other threads, so parenting is explicit.
    tracer: Tracer,
    trace_parent: u64,
}

/// A dynamic topology of compute nodes executing task DAGs.
///
/// Nodes are OS threads; each has a workload class and a slot capacity.
/// The scheduler in [`run_dag`](ComputePool::run_dag) dispatches runnable
/// tasks to the least-loaded alive node of the requested class, retries
/// transient failures (including node loss) on surviving nodes, and fails
/// the DAG only when retries are exhausted or a fatal error occurs.
pub struct ComputePool {
    nodes: RwLock<HashMap<NodeId, NodeHandle>>,
    next_node: AtomicU64,
    /// Per-task-completion accounting. Lock-free counters: the recv loop
    /// bumps these once per attempt, so a shared mutex here would serialize
    /// every concurrent DAG on the pool's hottest path.
    meter: PoolMeter,
    /// Trace handle: every task attempt opens a `dcp.task` span on the
    /// executing node's lane. The lock is read once per `run_dag`, never
    /// per attempt. Disabled (no-op) until an engine binds its tracer.
    tracer: RwLock<Tracer>,
    /// Wakes schedulers stalled on a fully busy class (see [`SlotEvent`]);
    /// morsel drivers signal their lane occupancy changes on it too.
    pub(crate) slot_event: Arc<SlotEvent>,
    /// Retry budget per task, and per morsel.
    pub(crate) max_attempts: u32,
}

impl Default for ComputePool {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputePool {
    /// An empty pool with a default retry budget of 4 attempts per task.
    pub fn new() -> Self {
        ComputePool {
            nodes: RwLock::new(HashMap::new()),
            next_node: AtomicU64::new(1),
            meter: PoolMeter::default(),
            tracer: RwLock::new(Tracer::default()),
            slot_event: Arc::new(SlotEvent::new()),
            max_attempts: 4,
        }
    }

    /// A pool pre-provisioned with `read` + `write` nodes of capacity
    /// `slots` each.
    pub fn with_topology(read: usize, write: usize, slots: usize) -> Self {
        let pool = Self::new();
        pool.add_nodes(WorkloadClass::Read, read, slots);
        pool.add_nodes(WorkloadClass::Write, write, slots);
        pool
    }

    /// Override the per-task retry budget.
    pub fn set_max_attempts(&mut self, attempts: u32) {
        assert!(attempts >= 1);
        self.max_attempts = attempts;
    }

    /// Add `count` nodes of the given class, each with `capacity` task
    /// slots. Returns the new node ids. Nodes joining mid-run pick up work
    /// immediately — the elasticity the paper's serverless model relies on.
    pub fn add_nodes(&self, class: WorkloadClass, count: usize, capacity: usize) -> Vec<NodeId> {
        assert!(capacity >= 1, "a node needs at least one slot");
        let mut out = Vec::with_capacity(count);
        let mut nodes = self.nodes.write();
        for _ in 0..count {
            let id = NodeId(self.next_node.fetch_add(1, Ordering::SeqCst));
            let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
            let alive = Arc::new(AtomicBool::new(true));
            let alive_worker = Arc::clone(&alive);
            let worker = std::thread::Builder::new()
                .name(format!("polaris-node-{}", id.0))
                .spawn(move || {
                    for job in rx {
                        job(alive_worker.load(Ordering::SeqCst));
                    }
                })
                .expect("spawning a node worker thread");
            nodes.insert(
                id,
                NodeHandle {
                    class,
                    alive,
                    busy: Arc::new(AtomicUsize::new(0)),
                    capacity,
                    sender: tx,
                    _worker: worker,
                },
            );
            out.push(id);
        }
        drop(nodes);
        // Fresh capacity: wake any scheduler parked on a full class.
        self.slot_event.signal();
        out
    }

    /// Kill a node: its running and queued tasks report
    /// [`TaskError::NodeLost`] and are retried elsewhere. Returns `false`
    /// if the node is unknown or already dead.
    pub fn kill_node(&self, id: NodeId) -> bool {
        let nodes = self.nodes.read();
        let was_alive = match nodes.get(&id) {
            Some(h) => h.alive.swap(false, Ordering::SeqCst),
            None => false,
        };
        drop(nodes);
        // Wake parked schedulers so they can re-evaluate (and observe
        // NoCapacity if this was the class's last node).
        self.slot_event.signal();
        was_alive
    }

    /// Alive nodes in a class.
    pub fn alive_count(&self, class: WorkloadClass) -> usize {
        self.nodes
            .read()
            .values()
            .filter(|h| h.class == class && h.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Total task slots across alive nodes of a class.
    pub fn capacity(&self, class: WorkloadClass) -> usize {
        self.nodes
            .read()
            .values()
            .filter(|h| h.class == class && h.alive.load(Ordering::SeqCst))
            .map(|h| h.capacity)
            .sum()
    }

    /// Task slots of a class occupied *right now* across alive nodes —
    /// the lane-depth probe continuous telemetry samples against
    /// [`ComputePool::capacity`] to expose per-class saturation.
    pub fn busy(&self, class: WorkloadClass) -> usize {
        self.nodes
            .read()
            .values()
            .filter(|h| h.class == class && h.alive.load(Ordering::SeqCst))
            .map(|h| h.busy.load(Ordering::SeqCst))
            .sum()
    }

    /// Cumulative statistics — a lock-free snapshot of the meter's
    /// counters. Reads of the three counters are not mutually atomic, but
    /// each is monotonic, so a snapshot is always a valid recent state.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            attempts: self.meter.attempts.get(),
            retries: self.meter.retries.get(),
            node_losses: self.meter.node_losses.get(),
            slot_waits: self.meter.slot_waits.get(),
        }
    }

    /// The pool's meter (shared counter handles) — adopt it into a
    /// [`polaris_obs::MetricsRegistry`] to surface `dcp.*` metrics.
    pub fn meter(&self) -> &PoolMeter {
        &self.meter
    }

    /// Bind an engine's tracer so task attempts record `dcp.task` spans
    /// (one per attempt, on the executing node's trace lane).
    pub fn bind_tracer(&self, tracer: &Tracer) {
        *self.tracer.write() = tracer.clone();
    }

    /// Hold a free slot on every alive node of `class` that has one, in id
    /// order: the lanes a morsel run's drivers may take (`morsel.rs`).
    pub(crate) fn take_free_slots(&self, class: WorkloadClass) -> Vec<Slot> {
        let nodes = self.nodes.read();
        let mut slots: Vec<Slot> = nodes
            .iter()
            .filter(|(_, h)| {
                h.class == class
                    && h.alive.load(Ordering::SeqCst)
                    && h.busy.load(Ordering::SeqCst) < h.capacity
            })
            .map(|(id, h)| Slot::hold(h.lane(*id), &self.slot_event))
            .collect();
        slots.sort_by_key(|slot| slot.lane.node.0);
        slots
    }

    /// Run every task of `dag` on nodes of `class`; returns one result per
    /// task, in task order, or the first error that failed the DAG once
    /// every attempt it placed has reported. The calling thread is the
    /// scheduler: place, collect, retry, until every task has a result or
    /// the DAG has failed and nothing of it is still running.
    pub fn run_dag<T: Send + 'static>(
        &self,
        dag: WorkflowDag<T>,
        class: WorkloadClass,
    ) -> DcpResult<Vec<T>> {
        let n = dag.tasks.len();
        let tracer = self.tracer.read().clone();
        let mut run = DagRun {
            class,
            tasks: dag.tasks,
            ready: (0..n).map(|i| (i, 0)).collect(),
            in_flight: 0,
            results: (0..n).map(|_| None).collect(),
            completed: 0,
            failed: None,
            done: None,
            trace_parent: tracer.current(),
            tracer,
        };
        let mut parked = None;
        while run.completed < n && (run.failed.is_none() || run.in_flight > 0) {
            // Captured before placing: a slot released after this point
            // bumps the generation, so a failed placement below never
            // parks past it.
            let slot_gen = self.slot_event.generation();
            self.place_ready(&mut run);
            let done = if run.in_flight > 0 {
                run.in_flight -= 1;
                let (_, done_rx) = run.done.as_ref().expect("a lane attempt was placed");
                done_rx.recv().expect("the run holds a sender")
            } else {
                // Nothing in flight, so `place_ready` left either the one
                // attempt that is the caller's to run, or several that
                // found every slot of the class taken.
                assert!(!run.ready.is_empty(), "scheduler stalled mid-DAG");
                let lone = (run.ready.len() == 1).then(|| self.take_slot(run.class));
                match lone.flatten() {
                    Some(slot) => {
                        let (task, attempt) = run.ready.pop().expect("one is ready");
                        self.attempt(&run, slot, task, attempt).run(true)
                    }
                    None => {
                        self.park(run.class, slot_gen, &mut parked)?;
                        continue;
                    }
                }
            };
            self.settle(&mut run, done);
        }
        match run.failed {
            Some(err) => Err(err),
            None => Ok(run
                .results
                .into_iter()
                .map(|r| r.expect("all tasks completed"))
                .collect()),
        }
    }

    /// Place runnable attempts on the lanes of free nodes. The caller-runs
    /// rule is decided here, from what the scheduler can see: when exactly
    /// one attempt is runnable and none is in flight there is nothing to
    /// overlap it with, so it stays for the scheduling thread (which runs
    /// it itself, holding a node's slot) instead of paying two cross-thread
    /// hand-offs.
    fn place_ready<T: Send + 'static>(&self, run: &mut DagRun<T>) {
        if run.failed.is_some() {
            run.ready.clear();
        }
        if run.in_flight == 0 && run.ready.len() == 1 {
            return;
        }
        while let Some(&(task, attempt)) = run.ready.last() {
            // No free slot for this attempt means none for the rest.
            let Some(slot) = self.take_slot(run.class) else {
                return;
            };
            run.ready.pop();
            run.in_flight += 1;
            let lane = slot.lane.sender.clone();
            let body = self.attempt(run, slot, task, attempt);
            let done_tx = run.done.get_or_insert_with(unbounded).0.clone();
            let job: Job = Box::new(move |alive| {
                // A panicking body must not take the node's thread, and
                // the scheduler waiting on this report, with it.
                let done = catch_unwind(AssertUnwindSafe(|| body.run(alive)))
                    .unwrap_or_else(|_| (task, attempt, Err(TaskError::fatal("task panicked"))));
                let _ = done_tx.send(done);
            });
            // Worker gone: the attempt still reports (as lost) from here.
            if let Err(SendError(job)) = lane.send(job) {
                job(false);
            }
        }
    }

    /// Hold a slot of the least-loaded alive node of `class` that has one
    /// free.
    fn take_slot(&self, class: WorkloadClass) -> Option<Slot> {
        let nodes = self.nodes.read();
        let (id, h) = nodes
            .iter()
            .filter(|(_, h)| {
                h.class == class
                    && h.alive.load(Ordering::SeqCst)
                    && h.busy.load(Ordering::SeqCst) < h.capacity
            })
            .min_by_key(|(id, h)| (h.busy.load(Ordering::SeqCst), id.0))?;
        Some(Slot::hold(h.lane(*id), &self.slot_event))
    }

    fn attempt<T>(&self, run: &DagRun<T>, slot: Slot, task: usize, attempt: u32) -> Attempt<T> {
        Attempt {
            slot,
            task,
            attempt,
            run: Arc::clone(&run.tasks[task]),
            tracer: run.tracer.clone(),
            trace_parent: run.trace_parent,
        }
    }

    /// Every slot of `class` is held by other DAGs sharing the pool: park
    /// until the next slot release or topology change instead of spinning.
    /// `parked` carries one park across the wait's safety timeouts, so it
    /// is counted and timed once.
    pub(crate) fn park(
        &self,
        class: WorkloadClass,
        slot_gen: u64,
        parked: &mut Option<Instant>,
    ) -> DcpResult<()> {
        if self.alive_count(class) == 0 {
            // Nothing running and no node that could ever run it.
            return Err(DcpError::NoCapacity {
                class: class.name(),
            });
        }
        let since = *parked.get_or_insert_with(|| {
            self.meter.slot_waits.inc();
            Instant::now()
        });
        if self
            .slot_event
            .wait_past(slot_gen, Duration::from_millis(50))
        {
            let waited_ns = since.elapsed().as_nanos() as u64;
            self.meter.slot_wait_ns.record_ns(waited_ns);
            polaris_obs::alloc::attribute_wait(waited_ns);
            *parked = None;
        }
        Ok(())
    }

    /// Account one finished attempt and apply its outcome to the run.
    fn settle<T>(&self, run: &mut DagRun<T>, (task, attempt, outcome): Completion<T>) {
        self.meter.attempts.inc();
        if attempt > 0 {
            self.meter.retries.inc();
        }
        if matches!(outcome, Err(TaskError::NodeLost { .. })) {
            self.meter.node_losses.inc();
        }
        let err = match outcome {
            Ok(value) => {
                run.results[task] = Some(value);
                run.completed += 1;
                return;
            }
            Err(err) => err,
        };
        match self.retry(task, attempt, err) {
            Ok(next) => run.ready.push((task, next)),
            Err(failure) => {
                run.failed.get_or_insert(failure);
            }
        }
    }

    /// The one retry rule, for DAG tasks and morsels alike: attempt
    /// `attempt` of `task` failed with `err`. A retryable failure with
    /// budget left gets the next attempt number; a fatal one fails the
    /// job, and so does a retryable one that used the last attempt.
    pub(crate) fn retry(&self, task: usize, attempt: u32, err: TaskError) -> DcpResult<u32> {
        if !err.is_retryable() {
            Err(DcpError::TaskFailed { task, error: err })
        } else if attempt + 1 < self.max_attempts {
            Ok(attempt + 1)
        } else {
            Err(DcpError::RetriesExhausted {
                task,
                attempts: attempt + 1,
                last: err,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_flat_dag_and_orders_results() {
        let pool = ComputePool::with_topology(2, 0, 2);
        let mut dag = WorkflowDag::new();
        for i in 0..10i64 {
            dag.add_task(move |_| Ok(i * i));
        }
        let results = pool.run_dag(dag, WorkloadClass::Read).unwrap();
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<i64>>());
    }

    #[test]
    fn retries_transient_failures() {
        let pool = ComputePool::with_topology(2, 0, 2);
        let tries = Arc::new(AtomicU32::new(0));
        let mut dag = WorkflowDag::new();
        let t = Arc::clone(&tries);
        dag.add_task(move |ctx| {
            t.fetch_add(1, Ordering::SeqCst);
            if ctx.attempt < 2 {
                Err(TaskError::transient("flaky"))
            } else {
                Ok(ctx.attempt)
            }
        });
        let results = pool.run_dag(dag, WorkloadClass::Read).unwrap();
        assert_eq!(results, vec![2]);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert_eq!(pool.stats().retries, 2);
    }

    #[test]
    fn exhausted_retries_fail_the_dag() {
        let mut pool = ComputePool::with_topology(1, 0, 1);
        pool.set_max_attempts(3);
        let mut dag: WorkflowDag<()> = WorkflowDag::new();
        dag.add_task(|_| Err(TaskError::transient("always")));
        let err = pool.run_dag(dag, WorkloadClass::Read).unwrap_err();
        assert!(matches!(
            err,
            DcpError::RetriesExhausted { attempts: 3, .. }
        ));
    }

    #[test]
    fn fatal_errors_fail_immediately() {
        let pool = ComputePool::with_topology(1, 0, 1);
        let mut dag: WorkflowDag<()> = WorkflowDag::new();
        dag.add_task(|_| Err(TaskError::fatal("bug")));
        let err = pool.run_dag(dag, WorkloadClass::Read).unwrap_err();
        assert!(matches!(err, DcpError::TaskFailed { task: 0, .. }));
        assert_eq!(pool.stats().retries, 0);
    }

    #[test]
    fn workload_classes_are_separate() {
        let pool = ComputePool::with_topology(1, 1, 1);
        assert_eq!(pool.alive_count(WorkloadClass::Read), 1);
        assert_eq!(pool.alive_count(WorkloadClass::Write), 1);
        assert_eq!(pool.alive_count(WorkloadClass::System), 0);
        // a DAG on an empty class fails fast
        let mut dag: WorkflowDag<()> = WorkflowDag::new();
        dag.add_task(|_| Ok(()));
        assert!(matches!(
            pool.run_dag(dag, WorkloadClass::System),
            Err(DcpError::NoCapacity { class: "System" })
        ));
    }

    #[test]
    fn node_kill_mid_task_retries_on_survivor() {
        let pool = Arc::new(ComputePool::with_topology(0, 2, 1));
        let ids = {
            let nodes = pool.nodes.read();
            nodes.keys().copied().collect::<Vec<_>>()
        };
        let victim = ids[0];
        let pool2 = Arc::clone(&pool);
        let killer = std::thread::spawn(move || {
            // Land mid-batch (tasks run 15ms, batches start at 0/15/30…):
            // killing exactly on a batch boundary can catch the victim idle
            // between tasks, recording no loss at all.
            std::thread::sleep(std::time::Duration::from_millis(22));
            pool2.kill_node(victim);
        });
        // 8 slow tasks across 2 single-slot nodes; one node dies mid-run.
        let mut dag = WorkflowDag::new();
        for i in 0..8i64 {
            dag.add_task(move |ctx| {
                std::thread::sleep(std::time::Duration::from_millis(15));
                Ok((i, ctx.node))
            });
        }
        let results = pool.run_dag(dag, WorkloadClass::Write).unwrap();
        killer.join().unwrap();
        assert_eq!(results.len(), 8);
        // all successful attempts must come from the survivor or the victim
        // before death; the DAG still completed exactly once per task.
        let firsts: Vec<i64> = results.iter().map(|(i, _)| *i).collect();
        assert_eq!(firsts, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.alive_count(WorkloadClass::Write), 1);
        assert!(pool.stats().node_losses > 0 || results.iter().all(|(_, n)| *n != victim.0));
    }

    #[test]
    fn all_nodes_dead_reports_no_capacity() {
        let pool = ComputePool::with_topology(1, 0, 1);
        let id = *pool.nodes.read().keys().next().unwrap();
        pool.kill_node(id);
        let mut dag: WorkflowDag<()> = WorkflowDag::new();
        dag.add_task(|_| Ok(()));
        assert!(matches!(
            pool.run_dag(dag, WorkloadClass::Read),
            Err(DcpError::NoCapacity { .. })
        ));
        assert_eq!(pool.alive_count(WorkloadClass::Read), 0);
    }

    #[test]
    fn nodes_can_join_and_expand_capacity() {
        let pool = ComputePool::with_topology(1, 0, 1);
        assert_eq!(pool.capacity(WorkloadClass::Read), 1);
        pool.add_nodes(WorkloadClass::Read, 3, 2);
        assert_eq!(pool.capacity(WorkloadClass::Read), 7);
        assert_eq!(pool.alive_count(WorkloadClass::Read), 4);
    }

    #[test]
    fn empty_dag_is_trivially_done() {
        let pool = ComputePool::with_topology(1, 0, 1);
        let results: Vec<i32> = pool
            .run_dag(WorkflowDag::new(), WorkloadClass::Read)
            .unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn parallelism_scales_with_nodes() {
        // 8 tasks of ~20ms each: 8 single-slot nodes should finish much
        // faster than 1. Coarse 2x threshold keeps this robust on CI.
        let time_with = |nodes: usize| {
            let pool = ComputePool::with_topology(nodes, 0, 1);
            let mut dag = WorkflowDag::new();
            for _ in 0..8 {
                dag.add_task(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok(())
                });
            }
            let start = std::time::Instant::now();
            pool.run_dag(dag, WorkloadClass::Read).unwrap();
            start.elapsed()
        };
        let serial = time_with(1);
        let parallel = time_with(8);
        assert!(
            parallel * 2 < serial,
            "parallel {parallel:?} should be well under serial {serial:?}"
        );
    }

    #[test]
    fn stats_snapshot_is_consistent_under_concurrent_dags() {
        // stats() must be readable while DAGs run (no lock to contend on)
        // and must add up once everything drains: attempts from successful
        // single-try tasks plus one extra attempt per recorded retry.
        let pool = Arc::new(ComputePool::with_topology(4, 0, 2));
        let readers_done = Arc::new(AtomicBool::new(false));
        let rd = Arc::clone(&readers_done);
        let p = Arc::clone(&pool);
        let reader = std::thread::spawn(move || {
            let mut last = PoolStats::default();
            while !rd.load(Ordering::SeqCst) {
                let s = p.stats();
                // Counters are monotonic.
                assert!(s.attempts >= last.attempts);
                assert!(s.retries >= last.retries);
                last = s;
            }
        });
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut dag = WorkflowDag::new();
                    for _ in 0..25 {
                        dag.add_task(|ctx| {
                            if ctx.attempt == 0 && ctx.task % 5 == 0 {
                                Err(TaskError::transient("first try fails"))
                            } else {
                                Ok(())
                            }
                        });
                    }
                    pool.run_dag(dag, WorkloadClass::Read).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        readers_done.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        let s = pool.stats();
        // 4 DAGs x 25 tasks, 5 of each DAG's tasks retried exactly once.
        assert_eq!(s.retries, 20);
        assert_eq!(s.attempts, 120);
        assert_eq!(s.node_losses, 0);
    }

    #[test]
    fn stalled_dag_parks_until_slot_release() {
        // One single-slot node shared by two DAGs: A holds the slot for
        // ~120ms, so B's scheduler stalls with alive capacity — the case
        // that used to spin in a 200µs sleep loop. B must park (counted
        // in dcp.slot_waits), wake on A's slot release, and finish with
        // exactly one attempt per task — no spin-born extras.
        let pool = Arc::new(ComputePool::with_topology(1, 0, 1));
        let p = Arc::clone(&pool);
        let a = std::thread::spawn(move || {
            let mut dag = WorkflowDag::new();
            dag.add_task(|_| {
                std::thread::sleep(Duration::from_millis(120));
                Ok(())
            });
            p.run_dag(dag, WorkloadClass::Read).unwrap();
        });
        // Give A time to occupy the slot before B arrives.
        std::thread::sleep(Duration::from_millis(30));
        let mut dag = WorkflowDag::new();
        dag.add_task(|_| Ok(()));
        let start = std::time::Instant::now();
        pool.run_dag(dag, WorkloadClass::Read).unwrap();
        let waited = start.elapsed();
        a.join().unwrap();
        assert!(
            waited >= Duration::from_millis(50),
            "B must actually wait out A's task, got {waited:?}"
        );
        let s = pool.stats();
        assert_eq!(s.attempts, 2, "one attempt per task — no duplicates");
        assert_eq!(s.retries, 0);
        assert!(
            s.slot_waits >= 1,
            "the stall must park on the slot event, not spin"
        );
    }

    /// A one-task DAG whose body reports where it ran and what it saw.
    fn probe_dag(pool: &Arc<ComputePool>) -> WorkflowDag<(std::thread::ThreadId, usize, u64)> {
        let pool = Arc::clone(pool);
        let mut dag = WorkflowDag::new();
        dag.add_task(move |ctx| {
            Ok((
                std::thread::current().id(),
                pool.busy(WorkloadClass::Write),
                ctx.node,
            ))
        });
        dag
    }

    #[test]
    fn lone_task_runs_on_the_caller_holding_a_slot() {
        let pool = Arc::new(ComputePool::with_topology(0, 2, 1));
        let out = pool
            .run_dag(probe_dag(&pool), WorkloadClass::Write)
            .unwrap();
        let (thread, busy_inside, node) = out[0];
        assert_eq!(thread, std::thread::current().id());
        assert_eq!(busy_inside, 1, "the caller holds a node's slot");
        assert!(pool.nodes.read().contains_key(&NodeId(node)));
        assert_eq!(pool.busy(WorkloadClass::Write), 0, "released after");
        let s = pool.stats();
        assert_eq!((s.attempts, s.retries, s.node_losses), (1, 0, 0));
    }

    #[test]
    fn caller_parks_for_a_slot_then_runs_and_one_park_counts_once() {
        // One slot, held by another DAG's (caller-run) task until told to
        // let go. This thread's lone task must park for it — counted and
        // timed as ONE park although the wait's 50 ms safety timeout fires
        // more than once meanwhile — and then run right here.
        let pool = Arc::new(ComputePool::with_topology(0, 1, 1));
        let (release_tx, release_rx) = unbounded::<()>();
        let holder = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut dag = WorkflowDag::new();
                dag.add_task(move |_| {
                    release_rx.recv().expect("released");
                    Ok(())
                });
                pool.run_dag(dag, WorkloadClass::Write).unwrap();
            })
        };
        while pool.busy(WorkloadClass::Write) == 0 {
            std::thread::yield_now();
        }
        let releaser = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                while pool.stats().slot_waits == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(120));
                release_tx.send(()).unwrap();
            })
        };
        let out = pool
            .run_dag(probe_dag(&pool), WorkloadClass::Write)
            .unwrap();
        holder.join().unwrap();
        releaser.join().unwrap();
        assert_eq!(out[0].0, std::thread::current().id());
        let s = pool.stats();
        assert_eq!((s.attempts, s.slot_waits), (2, 1));
        assert_eq!(pool.meter().slot_wait_ns.count(), 1);
        assert!(pool.meter().slot_wait_ns.sum_ns() >= 100_000_000);
    }

    #[test]
    fn node_killed_under_a_caller_run_attempt_is_lost_and_retried() {
        let pool = Arc::new(ComputePool::with_topology(0, 2, 1));
        let tracer = Tracer::with_capacity(64);
        pool.bind_tracer(&tracer);
        let p = Arc::clone(&pool);
        let mut dag = WorkflowDag::new();
        dag.add_task(move |ctx| {
            // The node dies while this attempt is in the body.
            if ctx.attempt == 0 {
                assert!(p.kill_node(NodeId(ctx.node)));
            }
            Ok((ctx.node, ctx.attempt, std::thread::current().id()))
        });
        let out = pool.run_dag(dag, WorkloadClass::Write).unwrap();
        let (node, attempt, thread) = out[0];
        assert_eq!((attempt, thread), (1, std::thread::current().id()));
        assert!(pool.nodes.read()[&NodeId(node)]
            .alive
            .load(Ordering::SeqCst));
        assert_eq!(pool.alive_count(WorkloadClass::Write), 1);
        assert_eq!(pool.busy(WorkloadClass::Write), 0);
        let s = pool.stats();
        assert_eq!((s.attempts, s.retries, s.node_losses), (2, 1, 1));
        // One span per attempt, on the lane of the node whose slot it held.
        let spans = polaris_obs::build_spans(&tracer.events());
        let outcomes: Vec<String> = spans
            .values()
            .filter(|s| s.name == "dcp.task")
            .map(|s| s.attr("outcome").expect("ended").to_string())
            .collect();
        assert_eq!(outcomes, ["node_lost", "ok"]);
    }

    #[test]
    fn a_panicking_body_releases_its_slot_on_the_caller_and_on_a_lane() {
        let pool = ComputePool::with_topology(0, 2, 1);
        let boom = |tasks: usize| {
            let mut dag: WorkflowDag<()> = WorkflowDag::new();
            for i in 0..tasks {
                dag.add_task(move |_| if i == 0 { panic!("boom") } else { Ok(()) });
            }
            dag
        };
        // Alone, the body runs (and unwinds) on this thread.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            pool.run_dag(boom(1), WorkloadClass::Write)
        }));
        assert!(unwound.is_err());
        assert_eq!(pool.busy(WorkloadClass::Write), 0);
        // Beside another task it runs on a lane: the DAG fails, the node's
        // thread lives on.
        let err = pool.run_dag(boom(2), WorkloadClass::Write).unwrap_err();
        assert!(matches!(err, DcpError::TaskFailed { task: 0, .. }));
        assert_eq!(pool.busy(WorkloadClass::Write), 0);
        let mut dag = WorkflowDag::new();
        for i in 0..4 {
            dag.add_task(move |_| Ok(i));
        }
        let again = pool.run_dag(dag, WorkloadClass::Write).unwrap();
        assert_eq!(again, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_failed_dag_returns_after_its_running_attempts() {
        // Task 0 fails at once; task 1 is still in its body then. The
        // error must not come back before task 1 has reported: a caller
        // that cleans up after a failed DAG may assume nothing of it runs.
        let pool = ComputePool::with_topology(2, 0, 1);
        let finished = Arc::new(AtomicBool::new(false));
        let (started_tx, started_rx) = unbounded::<()>();
        let mut dag: WorkflowDag<()> = WorkflowDag::new();
        dag.add_task(move |_| {
            started_rx.recv().expect("task 1 is running");
            Err(TaskError::fatal("bug"))
        });
        let f = Arc::clone(&finished);
        dag.add_task(move |_| {
            started_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            f.store(true, Ordering::SeqCst);
            Ok(())
        });
        let err = pool.run_dag(dag, WorkloadClass::Read).unwrap_err();
        assert!(matches!(err, DcpError::TaskFailed { task: 0, .. }));
        assert!(finished.load(Ordering::SeqCst));
        assert_eq!(pool.busy(WorkloadClass::Read), 0);
    }

    #[test]
    fn concurrent_dags_share_the_pool() {
        let pool = Arc::new(ComputePool::with_topology(4, 0, 2));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut dag = WorkflowDag::new();
                    for i in 0..10i64 {
                        dag.add_task(move |_| Ok(i));
                    }
                    pool.run_dag(dag, WorkloadClass::Read).unwrap().len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 10);
        }
    }
}
