//! Auditing the executor's typed [`ExecEvent`] stream.
//!
//! Both engines can record every allocation, free, clock charge, plan
//! change and recovery action as one append-only event stream
//! (`BlockIteration::run_recorded` / `DtrIteration::run_recorded` in
//! `mimose-exec`). This pass is the single entry point for auditing such a
//! stream: it projects the allocator-level events down to the arena
//! [`TraceEvent`](mimose_simgpu::TraceEvent) log and replays them through
//! [`audit_trace`]'s shadow allocator, then extracts the embedded
//! [`RecoveryEvent`](mimose_planner::RecoveryEvent)s and runs the ladder
//! lint over them — so a recorded run gets the exact same scrutiny a
//! hand-collected arena trace plus recovery chain would, from one artifact.

use crate::diag::Diagnostic;
use crate::recovery::lint_recovery_trace;
use crate::trace::audit_trace;
use mimose_runtime::ExecEvent;
use mimose_simgpu::ArenaStats;

/// Ladder bounds used for the embedded recovery lint; these mirror the
/// executor's default `RecoveryConfig` (`max_restarts` / `max_inline_events`).
const DEFAULT_MAX_RESTARTS: usize = 2;
const DEFAULT_MAX_INLINE_PER_ATTEMPT: usize = 64;

/// Audit a recorded execution-event stream: shadow-replay its allocator
/// projection against an arena of `capacity` bytes (cross-checking `stats`
/// when given), and lint any recovery events embedded in the stream under
/// the executor's default ladder bounds.
pub fn audit_exec_events(
    capacity: usize,
    events: &[ExecEvent],
    stats: Option<&ArenaStats>,
) -> Vec<Diagnostic> {
    let trace: Vec<_> = events
        .iter()
        .filter_map(ExecEvent::to_trace_event)
        .collect();
    let mut diags = audit_trace(capacity, &trace, stats);
    let recovery: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ExecEvent::Recovery(r) => Some(r.clone()),
            _ => None,
        })
        .collect();
    if !recovery.is_empty() {
        diags.extend(lint_recovery_trace(
            &recovery,
            DEFAULT_MAX_RESTARTS,
            DEFAULT_MAX_INLINE_PER_ATTEMPT,
        ));
    }
    diags
}
