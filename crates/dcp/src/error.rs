//! Error types for task execution and DAG scheduling.

use std::fmt;

/// Result alias for DCP operations.
pub type DcpResult<T> = Result<T, DcpError>;

/// Failure of a single task *attempt*. Transient failures are retried by
/// the scheduler (§4.3's "re-scheduling the task without causing the entire
/// transaction to fail"); fatal ones abort the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The node executing the task left the topology (failure or scale-in).
    NodeLost {
        /// The node that was lost.
        node: u64,
    },
    /// A retryable failure inside the task (e.g. a transient storage
    /// fault).
    Transient {
        /// Description of the failure.
        detail: String,
    },
    /// A non-retryable failure (logic error, corrupt data).
    Fatal {
        /// Description of the failure.
        detail: String,
    },
}

impl TaskError {
    /// Should the scheduler retry this attempt?
    pub fn is_retryable(&self) -> bool {
        !matches!(self, TaskError::Fatal { .. })
    }

    /// Shorthand for a transient failure.
    pub fn transient(detail: impl Into<String>) -> Self {
        TaskError::Transient {
            detail: detail.into(),
        }
    }

    /// Shorthand for a fatal failure.
    pub fn fatal(detail: impl Into<String>) -> Self {
        TaskError::Fatal {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::NodeLost { node } => write!(f, "node {node} lost during execution"),
            TaskError::Transient { detail } => write!(f, "transient task failure: {detail}"),
            TaskError::Fatal { detail } => write!(f, "fatal task failure: {detail}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// Failure of a whole DAG run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DcpError {
    /// A task exhausted its retry budget.
    RetriesExhausted {
        /// Index of the failing task within the DAG.
        task: usize,
        /// Number of attempts made.
        attempts: u32,
        /// The last error observed.
        last: TaskError,
    },
    /// A task failed fatally.
    TaskFailed {
        /// Index of the failing task within the DAG.
        task: usize,
        /// The error.
        error: TaskError,
    },
    /// No alive node of the required class exists.
    NoCapacity {
        /// The class that had no nodes.
        class: &'static str,
    },
}

impl fmt::Display for DcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcpError::RetriesExhausted {
                task,
                attempts,
                last,
            } => {
                write!(f, "task {task} failed after {attempts} attempts: {last}")
            }
            DcpError::TaskFailed { task, error } => write!(f, "task {task} failed: {error}"),
            DcpError::NoCapacity { class } => {
                write!(f, "no alive compute nodes in class {class}")
            }
        }
    }
}

impl std::error::Error for DcpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability() {
        assert!(TaskError::NodeLost { node: 3 }.is_retryable());
        assert!(TaskError::transient("blip").is_retryable());
        assert!(!TaskError::fatal("bug").is_retryable());
    }

    #[test]
    fn display() {
        let e = DcpError::RetriesExhausted {
            task: 2,
            attempts: 4,
            last: TaskError::transient("io"),
        };
        let s = e.to_string();
        assert!(s.contains("task 2") && s.contains("4 attempts"));
    }
}
