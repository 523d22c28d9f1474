//! [`ExecError`]: the non-memory failures that abort a training run.

use mimose_models::ModelError;

/// A non-memory failure that aborts a training run (memory failures are
/// *data* — they land in the reports as `OomReport`s, not errors).
#[derive(Debug)]
pub enum ExecError {
    /// The model rejected the iteration's input during profiling.
    Profile {
        /// Iteration at which profiling failed.
        iter: usize,
        /// The model's own error.
        source: ModelError,
    },
    /// A policy handed back a plan whose length does not match the profiled
    /// block count; dispatching it would index out of bounds mid-iteration.
    PlanShape {
        /// Iteration at which the mismatched plan was issued.
        iter: usize,
        /// Plan flavour ("checkpoint", "fine", "hybrid").
        kind: &'static str,
        /// Block count of the iteration's profile.
        expected: usize,
        /// Block count the plan actually covers.
        got: usize,
    },
    /// The run requested more iterations than one epoch of the dataset
    /// holds; `iter` is the first iteration past the end.
    DataExhausted {
        /// The out-of-range iteration number.
        iter: usize,
        /// Iterations one epoch of the dataset holds.
        len: usize,
    },
    /// A [`Session`](crate::Session) was built without a memory policy.
    MissingPolicy,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Profile { iter, source } => {
                write!(f, "profiling failed at iteration {iter}: {source}")
            }
            ExecError::PlanShape {
                iter,
                kind,
                expected,
                got,
            } => write!(
                f,
                "{kind} plan at iteration {iter} covers {got} blocks but the profile has {expected}"
            ),
            ExecError::DataExhausted { iter, len } => write!(
                f,
                "dataset exhausted: iteration {iter} requested but one epoch holds {len}"
            ),
            ExecError::MissingPolicy => {
                write!(f, "session built without a memory policy")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Profile { source, .. } => Some(source),
            ExecError::PlanShape { .. }
            | ExecError::DataExhausted { .. }
            | ExecError::MissingPolicy => None,
        }
    }
}
