//! The typed, append-only execution event stream and the [`Recorder`]
//! sinks that consume it.
//!
//! Every engine built on [`EngineCore`](crate::EngineCore) emits one
//! [`ExecEvent`] per observable action — allocator operations, virtual-clock
//! charges, plan changes, recovery-ladder rungs and phase boundaries — in
//! strict execution order. The stream is the single source of truth for all
//! downstream observability: `mimose-exec` folds it into iteration reports,
//! the shadow checkers cross-validate it against the analytic memory model,
//! and `mimose-audit` replays it through an independent shadow allocator.
//!
//! The allocator-level events (`Alloc`, `Free`, `Oom`, `InjectedOom`,
//! `Compact`) are the one record of what the arena did: the arena keeps no
//! log of its own, and `mimose-audit` replays these events directly.

use mimose_planner::{CheckpointPlan, RecoveryEvent};
use mimose_simgpu::AllocId;

/// Which [`TimeBreakdown`](crate::TimeBreakdown) channel a scalar clock
/// charge lands in. Compute/recompute/swap charges carry their own event
/// variants (they are the channels downstream consumers reason about most);
/// the remaining bookkeeping-style channels share [`ExecEvent::ClockCharge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockChannel {
    /// Plan generation / eviction-search time.
    Planning,
    /// Per-tensor metadata maintenance (DTR bookkeeping).
    Bookkeeping,
    /// Allocator call overhead (charged once at iteration finish).
    Allocator,
    /// OOM-recovery overhead (compaction copies, aborted attempts).
    Recovery,
}

/// One event in an engine's execution stream, in strict execution order.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecEvent {
    /// A successful arena allocation.
    Alloc {
        /// Handle returned by the arena.
        id: AllocId,
        /// Start address of the carved range.
        offset: usize,
        /// Aligned length of the carved range.
        size: usize,
        /// Bytes the engine asked for (pre-alignment).
        requested: usize,
        /// Iteration phase issuing the request.
        phase: &'static str,
    },
    /// A free of a live allocation.
    Free {
        /// Handle being released.
        id: AllocId,
        /// Start address of the released range.
        offset: usize,
        /// Aligned length of the released range.
        size: usize,
    },
    /// A genuine allocation failure.
    Oom {
        /// Aligned bytes requested.
        requested: usize,
        /// Total free bytes at the time of failure.
        free_bytes: usize,
        /// Largest contiguous free range at the time of failure.
        largest_free: usize,
        /// Iteration phase issuing the request.
        phase: &'static str,
    },
    /// An injected (spurious) allocation failure from the chaos layer; the
    /// arena state is untouched.
    InjectedOom {
        /// Aligned bytes the failed request asked for.
        requested: usize,
        /// Iteration phase issuing the request.
        phase: &'static str,
    },
    /// The arena was compacted (recovery rung 1).
    Compact {
        /// Bytes of live allocations that changed address.
        moved: usize,
    },
    /// Useful forward/backward/optimizer compute charged to the clock.
    Compute {
        /// Nanoseconds charged.
        ns: u64,
    },
    /// Recomputation of checkpointed/evicted activations.
    Recompute {
        /// Nanoseconds charged (after any chaos spike factor).
        ns: u64,
    },
    /// Non-overlapped host↔device swap transfer.
    Swap {
        /// Nanoseconds charged.
        ns: u64,
    },
    /// A scalar charge to one of the remaining clock channels.
    ClockCharge {
        /// Destination channel.
        channel: ClockChannel,
        /// Nanoseconds charged.
        ns: u64,
    },
    /// The effective checkpoint plan changed mid-iteration (in-place
    /// demotion). Carries the complete post-change plan so stream consumers
    /// (shadow checkers, auditors) can rebase without engine internals.
    PlanApplied {
        /// The plan now in effect.
        plan: CheckpointPlan,
    },
    /// A recovery-ladder rung was taken. Boxed: the rung is the largest
    /// payload and the rarest event, and boxing it keeps every event at
    /// 56 bytes.
    Recovery(Box<RecoveryEvent>),
    /// A phase boundary — the points where engines and shadow checkers
    /// synchronise with the analytic memory model.
    Boundary {
        /// Boundary kind: `"init"`, `"forward"`, `"backward"`,
        /// `"end-of-forward"`.
        phase: &'static str,
        /// Block index for per-block boundaries.
        index: Option<usize>,
        /// Engine-side live-byte accounting at this boundary (the DTR slot
        /// table's total), when the engine computed it.
        live_hint: Option<usize>,
    },
}

/// A sink for [`ExecEvent`]s. Engines emit through `&mut dyn Recorder`, so
/// recording, shadow checking and plain (discarding) execution share one
/// code path. Events are passed by value, so a log moves each one in
/// without a clone.
pub trait Recorder {
    /// Consume one event. Called in strict execution order.
    fn record(&mut self, ev: ExecEvent);
}

/// Discards every event — the zero-overhead default for plain runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&mut self, _ev: ExecEvent) {}
}

/// Appends every event to an in-memory log.
#[derive(Debug, Default)]
pub struct EventLog {
    /// The recorded stream, in execution order.
    pub events: Vec<ExecEvent>,
}

impl EventLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Take ownership of the recorded events, leaving an empty log.
    pub fn take(&mut self) -> Vec<ExecEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Recorder for EventLog {
    #[inline]
    fn record(&mut self, ev: ExecEvent) {
        self.events.push(ev);
    }
}

/// Fans each event out to two recorders in order (first, then second).
/// Engines use this to run a shadow checker alongside the caller's sink.
/// The first sink gets a clone, the second the event itself.
pub struct Tee<'a>(pub &'a mut dyn Recorder, pub &'a mut dyn Recorder);

impl Recorder for Tee<'_> {
    #[inline]
    fn record(&mut self, ev: ExecEvent) {
        self.0.record(ev.clone());
        self.1.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tee_preserves_order_into_both_sinks() {
        let mut a = EventLog::new();
        let mut b = EventLog::new();
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.record(ExecEvent::Compute { ns: 1 });
            tee.record(ExecEvent::Compact { moved: 512 });
        }
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.events,
            vec![
                ExecEvent::Compute { ns: 1 },
                ExecEvent::Compact { moved: 512 }
            ]
        );
    }

    #[test]
    fn boxed_recovery_keeps_events_at_56_bytes() {
        assert_eq!(std::mem::size_of::<ExecEvent>(), 56);
    }
}
