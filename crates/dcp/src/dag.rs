//! Workflow DAGs: the independent leaf tasks of one statement.

use crate::TaskError;
use std::sync::Arc;

/// Execution context handed to each task attempt.
#[derive(Debug, Clone, Copy)]
pub struct TaskCtx {
    /// Node the attempt runs on.
    pub node: u64,
    /// Attempt number, starting at 0. Retried attempts see higher numbers —
    /// BEs fold this into block IDs so stale attempts never commit
    /// (§3.2.2).
    pub attempt: u32,
    /// Index of the task within its DAG.
    pub task: usize,
}

/// A task body: re-runnable (retries execute it again), sendable across
/// node threads, returning a `T` on success.
pub type TaskFn<T> = Arc<dyn Fn(&TaskCtx) -> Result<T, TaskError> + Send + Sync>;

/// The tasks of one job, producing values of type `T`.
///
/// A write statement is a set of leaf tasks over disjoint cells that each
/// return the block IDs they staged (§3.3); scan planning and the
/// block-list publication have the same shape. No task waits for another,
/// so the DAG is an ordered list of bodies:
/// [`ComputePool::run_dag`](crate::ComputePool::run_dag) returns one `T`
/// per task, in task order.
pub struct WorkflowDag<T> {
    pub(crate) tasks: Vec<TaskFn<T>>,
}

impl<T> Default for WorkflowDag<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WorkflowDag<T> {
    /// An empty DAG.
    pub fn new() -> Self {
        WorkflowDag { tasks: Vec::new() }
    }

    /// An empty DAG with room for `n` tasks — builders that know their
    /// fan-out up front avoid the incremental `Vec` growth.
    pub fn with_capacity(n: usize) -> Self {
        WorkflowDag {
            tasks: Vec::with_capacity(n),
        }
    }

    /// Add a task.
    pub fn add_task(
        &mut self,
        run: impl Fn(&TaskCtx) -> Result<T, TaskError> + Send + Sync + 'static,
    ) {
        self.tasks.push(Arc::new(run));
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Is the DAG empty?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}
