//! Auditing the executor's typed [`ExecEvent`] stream.
//!
//! Both engines can record every allocation, free, clock charge, plan
//! change and recovery action as one append-only event stream
//! (`BlockIteration::run_recorded` / `DtrIteration::run_recorded` in
//! `mimose-exec`). This pass is the single entry point for auditing such a
//! stream: it replays the allocator events through the shadow allocator in
//! `trace.rs`, then extracts the embedded
//! [`RecoveryEvent`](mimose_planner::RecoveryEvent)s and runs the ladder
//! lint over them, so one recorded artifact gets both checks.

use crate::diag::Diagnostic;
use crate::recovery::lint_recovery_trace;
use crate::trace::shadow_replay;
use mimose_runtime::ExecEvent;
use mimose_simgpu::ArenaStats;

/// Ladder bounds used for the embedded recovery lint; these mirror the
/// executor's default `RecoveryConfig` (`max_restarts` / `max_inline_events`).
const DEFAULT_MAX_RESTARTS: usize = 2;
const DEFAULT_MAX_INLINE_PER_ATTEMPT: usize = 64;

/// Audit a recorded execution-event stream: shadow-replay its allocator
/// events against an arena of `capacity` bytes (cross-checking `stats`
/// when given), and lint any recovery events embedded in the stream under
/// the executor's default ladder bounds.
///
/// The replay reports double and foreign frees (`double-free`,
/// `foreign-free`), reissued ids (`alloc-id-reuse`), overlapping,
/// misaligned, out-of-bounds or mis-sized carves
/// (`overlapping-live-ranges`, `misaligned-carve`, `out-of-bounds`,
/// `size-mismatch`), frees that name another range
/// (`free-metadata-mismatch`), OOMs the live set contradicts
/// (`oom-accounting`, `missed-coalescing`, `spurious-oom`), compactions
/// that moved another byte count (`compact-accounting`), `ArenaStats` that
/// the stream does not replay to (`stats-divergence`), and, at info
/// severity, allocations still live at the end (`live-at-end`). Each
/// finding's subject is `event N`, where `N` indexes `events`.
#[must_use]
pub fn audit_exec_events(
    capacity: usize,
    events: &[ExecEvent],
    stats: Option<&ArenaStats>,
) -> Vec<Diagnostic> {
    let mut diags = shadow_replay(capacity, events, stats);
    let recovery: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ExecEvent::Recovery(r) => Some(r.as_ref().clone()),
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
