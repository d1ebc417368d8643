//! Error type for task-graph construction and validation.

use crate::ids::TaskId;

/// Errors reported while building or validating a [`crate::TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge would connect a task to itself.
    SelfLoop(TaskId),
    /// An edge between the two tasks already exists (the model allows a
    /// single file per task pair).
    DuplicateEdge(TaskId, TaskId),
    /// A task id does not belong to this graph.
    UnknownTask(TaskId),
    /// The graph contains a dependency cycle (so it is not a DAG); the
    /// payload is one task on the cycle.
    Cycle(TaskId),
    /// A task has a negative processing time or a non-finite value.
    InvalidWeight(TaskId),
    /// An edge has a negative file size or communication cost.
    InvalidEdgeWeight(TaskId, TaskId),
    /// Every weight is finite, but the processing and transfer times, or
    /// the file sizes, sum beyond the largest finite `f64`: makespans and
    /// memory peaks of such a graph are not representable.
    WeightOverflow,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::SelfLoop(t) => write!(f, "self loop on task {t}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::UnknownTask(t) => write!(f, "unknown task {t}"),
            GraphError::Cycle(t) => write!(f, "dependency cycle involving task {t}"),
            GraphError::InvalidWeight(t) => write!(f, "invalid processing time on task {t}"),
            GraphError::InvalidEdgeWeight(a, b) => {
                write!(
                    f,
                    "invalid file size or communication cost on edge {a} -> {b}"
                )
            }
            GraphError::WeightOverflow => write!(
                f,
                "processing times, transfer times or file sizes sum to a non-finite total"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let t = TaskId::from_index(1);
        let u = TaskId::from_index(2);
        assert!(GraphError::SelfLoop(t).to_string().contains("self loop"));
        assert!(GraphError::DuplicateEdge(t, u)
            .to_string()
            .contains("duplicate"));
        assert!(GraphError::Cycle(t).to_string().contains("cycle"));
        assert!(GraphError::UnknownTask(t).to_string().contains("unknown"));
    }
}
