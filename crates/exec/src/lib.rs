//! # mimose-exec
//!
//! The training-iteration executor: a block-granularity engine that runs
//! checkpoint plans (and Mimose's double-forward shuttle iterations) against
//! the simulated arena allocator and virtual clock, a tensor-granularity
//! engine with DTR-style reactive eviction, and one front door that drives
//! any [`mimose_planner::MemoryPolicy`] over a dataset stream:
//! [`Session`] (`Session::builder(..).policy(..).build()?.run(n)`). A
//! session owns or borrows its policy, owns its stream, is steppable and
//! `Send`, which is what the cluster scheduler consumes.
//!
//! Single iterations with explicit knobs go through [`BlockIteration`] and
//! [`DtrIteration`]; a session step builds the same values. Both engines
//! are thin [`mimose_runtime::MaterializationPolicy`] layers over the
//! shared [`mimose_runtime::EngineCore`]; every run can be recorded as a
//! typed [`mimose_runtime::ExecEvent`] stream into an
//! [`mimose_runtime::EventLog`] that the report, the shadow checkers and
//! the audit layer all consume.

#![warn(missing_docs)]

mod block_engine;
mod dtr_engine;
mod error;
mod eviction;
mod iteration;
mod recovery;
mod rungs;
mod session;
pub mod shadow;

pub use block_engine::{BlockMode, BlockRun};
pub use error::ExecError;
pub use iteration::{BlockIteration, DtrIteration};
pub use mimose_runtime::{IterationReport, OomReport, RunSummary, TimeBreakdown};
pub use recovery::{grow_plan, RecoveryConfig};
pub use session::{IterationRecord, Session, SessionBuilder, SessionCheckpoint};
pub use shadow::{shadow_check_enabled, DtrShadow, ShadowChecker};
