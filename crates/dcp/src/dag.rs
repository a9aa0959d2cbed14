//! Workflow DAGs: tasks with data-dependency edges.

use crate::{DcpError, DcpResult, TaskError};
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

/// One task of a DAG: its body and the earlier tasks it waits for.
pub(crate) struct TaskNode<T> {
    pub(crate) run: TaskFn<T>,
    pub(crate) deps: Vec<usize>,
}

/// A DAG of tasks producing values of type `T`.
///
/// The distributed plan of both reads and writes is expressed this way
/// (§3.3): each node is a pipeline of operators over a disjoint set of data
/// cells; edges are data dependencies.
/// [`ComputePool::run_dag`](crate::ComputePool::run_dag) returns one `T`
/// per task, in task order.
pub struct WorkflowDag<T> {
    tasks: Vec<TaskNode<T>>,
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

    /// Add a task with no dependencies; returns its index.
    pub fn add_task(
        &mut self,
        run: impl Fn(&TaskCtx) -> Result<T, TaskError> + Send + Sync + 'static,
    ) -> usize {
        self.add_task_with_deps(run, Vec::new())
    }

    /// Add a task depending on earlier tasks; returns its index.
    pub fn add_task_with_deps(
        &mut self,
        run: impl Fn(&TaskCtx) -> Result<T, TaskError> + Send + Sync + 'static,
        deps: Vec<usize>,
    ) -> usize {
        self.tasks.push(TaskNode {
            run: Arc::new(run),
            deps,
        });
        self.tasks.len() - 1
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Is the DAG empty?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Validate the edges and hand the tasks to the scheduler.
    pub(crate) fn into_tasks(self) -> DcpResult<Vec<TaskNode<T>>> {
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(d) = t.deps.iter().find(|&&d| d >= i) {
                // Tasks only depend on earlier indices, which also rules
                // out cycles by construction.
                return Err(DcpError::InvalidDag {
                    detail: format!("task {i} depends on non-earlier task {d}"),
                });
            }
        }
        Ok(self.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_validates() {
        let mut dag: WorkflowDag<i32> = WorkflowDag::new();
        let a = dag.add_task(|_| Ok(1));
        let b = dag.add_task(|_| Ok(2));
        let c = dag.add_task_with_deps(|_| Ok(3), vec![a, b]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(dag.len(), 3);
        let tasks = dag.into_tasks().unwrap();
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[2].deps, vec![0, 1]);
    }

    #[test]
    fn rejects_forward_and_self_edges() {
        let mut dag: WorkflowDag<i32> = WorkflowDag::new();
        dag.add_task_with_deps(|_| Ok(1), vec![0]); // self edge
        assert!(matches!(dag.into_tasks(), Err(DcpError::InvalidDag { .. })));
        let mut dag: WorkflowDag<i32> = WorkflowDag::new();
        dag.add_task_with_deps(|_| Ok(1), vec![5]); // forward edge
        assert!(matches!(dag.into_tasks(), Err(DcpError::InvalidDag { .. })));
    }
}
