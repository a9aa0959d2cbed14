//! One retry rule, two schedulers: the same failure script run as a
//! one-task DAG and as a one-morsel run ends the same way after the same
//! number of body executions.

use polaris_dcp::{
    ComputePool, DcpError, Morsel, MorselCtx, NodeId, TaskError, WorkflowDag, WorkloadClass,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

const MAX_ATTEMPTS: u32 = 3;

/// What attempt `n` of the body does.
#[derive(Clone, Copy, Debug)]
enum Script {
    /// Fail transiently on the first `k` attempts, then succeed.
    Transient(u32),
    /// Fail fatally.
    Fatal,
    /// Kill the node running attempt 0, then succeed.
    KillNode,
}

/// How a run ended, with what the test can compare across schedulers.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Succeeded; whether the winning attempt ran on a node the script
    /// did not kill.
    Ok {
        on_survivor: bool,
    },
    RetriesExhausted {
        attempts: u32,
    },
    TaskFailed,
}

/// The body both schedulers run: counts its executions, remembers the
/// node it killed, and returns the node it ran on.
#[derive(Clone)]
struct Body {
    pool: Arc<ComputePool>,
    script: Script,
    runs: Arc<AtomicU32>,
    killed: Arc<AtomicU64>,
}

impl Body {
    fn step(&self, node: u64, attempt: u32) -> Result<u64, TaskError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        match self.script {
            Script::Transient(k) if attempt < k => Err(TaskError::transient("flaky")),
            Script::Fatal => Err(TaskError::fatal("bug")),
            Script::KillNode if attempt == 0 => {
                assert!(self.pool.kill_node(NodeId(node)));
                self.killed.store(node, Ordering::SeqCst);
                Ok(node)
            }
            _ => Ok(node),
        }
    }

    fn outcome(&self, result: Result<u64, DcpError>) -> (Outcome, u32) {
        let outcome = match result {
            Ok(node) => Outcome::Ok {
                on_survivor: node != self.killed.load(Ordering::SeqCst),
            },
            Err(DcpError::RetriesExhausted { attempts, .. }) => {
                Outcome::RetriesExhausted { attempts }
            }
            Err(DcpError::TaskFailed { .. }) => Outcome::TaskFailed,
            Err(other) => panic!("unexpected {other:?}"),
        };
        (outcome, self.runs.load(Ordering::SeqCst))
    }
}

impl Morsel for Body {
    type Output = u64;

    fn weight(&self) -> u64 {
        1
    }

    fn split(&self) -> Option<(Self, Self)> {
        None
    }

    fn execute(&self, ctx: &MorselCtx) -> Result<u64, TaskError> {
        self.step(ctx.node, ctx.attempt)
    }
}

fn body(script: Script) -> Body {
    let mut pool = ComputePool::with_topology(2, 0, 1);
    pool.set_max_attempts(MAX_ATTEMPTS);
    Body {
        pool: Arc::new(pool),
        script,
        runs: Arc::new(AtomicU32::new(0)),
        killed: Arc::new(AtomicU64::new(0)),
    }
}

fn as_dag(script: Script) -> (Outcome, u32) {
    let b = body(script);
    let mut dag = WorkflowDag::new();
    let task = b.clone();
    dag.add_task(move |ctx| task.step(ctx.node, ctx.attempt));
    let result = b.pool.run_dag(dag, WorkloadClass::Read);
    b.outcome(result.map(|out| out[0]))
}

fn as_morsel(script: Script) -> (Outcome, u32) {
    let b = body(script);
    let result = b
        .pool
        .run_morsels(WorkloadClass::Read, vec![b.clone()], u64::MAX);
    b.outcome(result.map(|(out, _)| out[0]))
}

#[test]
fn one_task_dag_and_one_morsel_follow_the_same_retry_rule() {
    let cases = [
        (
            Script::Transient(MAX_ATTEMPTS - 1),
            Outcome::Ok { on_survivor: true },
            MAX_ATTEMPTS,
        ),
        (
            Script::Transient(MAX_ATTEMPTS),
            Outcome::RetriesExhausted {
                attempts: MAX_ATTEMPTS,
            },
            MAX_ATTEMPTS,
        ),
        (Script::Fatal, Outcome::TaskFailed, 1),
        (Script::KillNode, Outcome::Ok { on_survivor: true }, 2),
    ];
    for (script, outcome, runs) in cases {
        let expected = (outcome, runs);
        assert_eq!(as_dag(script), expected, "run_dag, {script:?}");
        assert_eq!(as_morsel(script), expected, "run_morsels, {script:?}");
    }
}
