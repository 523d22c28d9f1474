//! # mimose-audit
//!
//! Invariant-checking and lint layer for the Mimose simulator: independent
//! re-derivations of properties the rest of the workspace is supposed to
//! maintain, reported as structured [`Diagnostic`]s with JSON output.
//!
//! The passes:
//!
//! * [`audit_exec_events`] — the one audit of a recorded
//!   [`ExecEvent`](mimose_runtime::ExecEvent) stream from either engine:
//!   its allocator events go through a shadow allocator that catches
//!   double-frees, overlapping live ranges, missed coalescing / spurious
//!   OOMs, compaction accounting errors and `ArenaStats` divergence, and
//!   its embedded recovery events through the ladder lint;
//! * [`lint_plan`] / [`lint_fine_plan`] / [`lint_hybrid_plan`] — static
//!   checks of checkpoint plans against a model profile and a byte budget;
//! * [`lint_profile`] — well-formedness of the profile itself (block chain,
//!   tensor accounting, cost sanity);
//! * [`lint_recovery_trace`] — structural invariants of the executor's
//!   OOM-recovery ladder (ladder order, bounded retries, monotone demotion,
//!   terminal fallback, shrink discipline);
//! * [`lint_cluster`] — re-derivation of a fleet run's rollup (makespan,
//!   utilization, per-device counters, admission bookkeeping) from the
//!   per-job evidence, with event-fold cross-checks and dispatch-order
//!   structure;
//! * [`lint_schedule`] / [`lint_plan_schedule`] — the *static* family:
//!   `mimose-verify`'s symbolic def-use sanitizer over a plan's
//!   forward/backward timeline, reported through the same diagnostics
//!   before anything executes;
//! * [`lint_optimized_graph`] — `mimose-verify`'s graph-equivalence lint
//!   over an [`OptimizedGraph`](mimose_models::OptimizedGraph): the
//!   optimization pipeline must preserve FLOPs, boundaries and dataflow
//!   while only shrinking activation bytes, with every stash elision
//!   independently re-derived.
//!
//! The runtime counterpart — the planner/executor shadow checker that
//! compares the allocator's live bytes against the analytic residency curve
//! at every block boundary — lives in `mimose_exec::shadow` (it needs the
//! engines); this crate holds the offline/static passes. The `audit` binary
//! in `mimose-exp` runs every pass over every preset task × planner
//! combination and exits non-zero on any error-severity finding.

#![warn(missing_docs)]

mod cluster;
mod diag;
mod exec_stream;
mod lint;
mod profile;
mod recovery;
mod statics;
mod trace;

pub use cluster::lint_cluster;
pub use diag::{has_errors, max_severity, Diagnostic, Severity};
pub use exec_stream::audit_exec_events;
pub use lint::{lint_fine_plan, lint_hybrid_plan, lint_plan};
pub use profile::lint_profile;
pub use recovery::lint_recovery_trace;
pub use statics::{lint_optimized_graph, lint_plan_schedule, lint_schedule};
