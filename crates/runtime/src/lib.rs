//! # mimose-runtime
//!
//! The event-sourced execution runtime core shared by every engine.
//!
//! Layering (see `docs/ARCHITECTURE.md` for the full picture):
//!
//! ```text
//!   engines (mimose-exec)      block timeline      DTR timeline
//!        policies              inline rungs        h-DTR eviction
//!   ───────────────────────  MaterializationPolicy + policy_alloc
//!        runtime core          EngineCore: arena + clock + charges
//!        event stream          ExecEvent  →  Recorder (Null/Log/Tee)
//!   ───────────────────────
//!        consumers             report fold · shadow check · audit replay
//! ```
//!
//! [`EngineCore`] owns the arena, the virtual clock and the time channels;
//! every mutation emits a typed [`ExecEvent`] to a [`Recorder`], so one
//! append-only stream is the single observability substrate: iteration
//! reports fold from it ([`fold_events`]), shadow checkers cross-validate
//! it live, and `mimose-audit` replays it through an independent shadow
//! allocator. [`MaterializationPolicy`] is the seam where the engines
//! differ — how pressure is relieved at an allocation site.

#![warn(missing_docs)]

mod engine;
mod event;
mod fold;
pub mod json;
mod live;
mod policy;
mod report;

pub use engine::{EngineCore, ReportMeta};
pub use event::{ClockChannel, EventLog, ExecEvent, NullRecorder, Recorder, Tee};
pub use fold::{fold_events, EventFold};
pub use live::LiveBlock;
pub use policy::{policy_alloc, AllocFail, AllocSite, MaterializationPolicy, NoRelief};
pub use report::{IterationReport, OomReport, RunSummary, TimeBreakdown};

/// The single alignment rule of the whole system, re-exported from the
/// arena: round up to the 512 B granule, minimum one granule, saturating
/// near `usize::MAX`.
pub use mimose_simgpu::align_up;

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_simgpu::ARENA_ALIGN;

    #[test]
    fn align_up_edge_sizes() {
        // Zero-byte requests still occupy one granule.
        assert_eq!(align_up(0), ARENA_ALIGN);
        // Exact multiples are fixed points.
        assert_eq!(align_up(ARENA_ALIGN), ARENA_ALIGN);
        assert_eq!(align_up(7 * ARENA_ALIGN), 7 * ARENA_ALIGN);
        // One past a multiple rounds to the next granule.
        assert_eq!(align_up(ARENA_ALIGN + 1), 2 * ARENA_ALIGN);
        assert_eq!(align_up(1), ARENA_ALIGN);
        // Near usize::MAX the addition saturates instead of overflowing and
        // the result is still granule-aligned.
        let top = align_up(usize::MAX);
        assert_eq!(top % ARENA_ALIGN, 0);
        assert_eq!(top, usize::MAX - (ARENA_ALIGN - 1));
        assert_eq!(align_up(top), top);
    }
}
