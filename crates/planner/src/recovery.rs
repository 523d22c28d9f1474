//! Typed record of the executor's staged OOM-recovery ladder.
//!
//! When an allocation fails mid-iteration, the block engine climbs a ladder
//! of increasingly expensive remedies instead of aborting: compact the arena
//! and retry, demote additional blocks to checkpointed in place, restart the
//! iteration under a multiplicatively shrunk budget, and finally fall back
//! to a fully-checkpointed plan. Every rung taken is recorded as a
//! [`RecoveryEvent`] on the iteration report, with its virtual-clock cost,
//! so recovery behaviour is observable, auditable (the recovery-trace linter
//! in `mimose-audit`) and can feed back into planning (the adaptive budget
//! shrink in `mimose-core`).
//!
//! The types live here — not in `mimose-exec` — because they cross three
//! crate boundaries: the executor produces them, policies consume them via
//! [`IterationObservation`](crate::IterationObservation), and the audit
//! layer lints them.

/// One rung of the OOM-recovery ladder, in escalation order.
///
/// The derived `Ord` follows the declaration order, so `a < b` means `a` is
/// the cheaper remedy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryRung {
    /// Compact the arena (slide live allocations down, coalescing all free
    /// space into one range) and retry the failed allocation. Cures
    /// fragmentation OOMs and absorbs transient (injected) failures.
    CoalesceRetry,
    /// Demote additional blocks to checkpointed in place: evict the
    /// internal activations of already-executed kept blocks (they will be
    /// recomputed in backward) and mark not-yet-executed blocks as
    /// checkpointed to shed upcoming pressure. Forward pass only; the
    /// checkpointed set only ever grows (monotone demotion).
    Demotion,
    /// Abort the attempt and restart the whole iteration under a
    /// multiplicatively shrunk planning budget, carrying the demoted plan
    /// forward. Bounded by the configured restart limit.
    Restart,
    /// The guaranteed-terminal last attempt: every block checkpointed. If
    /// even this OOMs the iteration is genuinely infeasible and the failure
    /// is reported as fatal.
    Fallback,
}

impl RecoveryRung {
    /// Short lower-case name for tables and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::CoalesceRetry => "coalesce-retry",
            RecoveryRung::Demotion => "demotion",
            RecoveryRung::Restart => "restart",
            RecoveryRung::Fallback => "fallback",
        }
    }
}

/// One recovery action taken by the executor, with cost attribution on the
/// virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// The ladder rung taken.
    pub rung: RecoveryRung,
    /// Which execution attempt (0-based) the event occurred in. Inline
    /// rungs keep the current attempt; `Restart`/`Fallback` close attempt
    /// `attempt` and open `attempt + 1`.
    pub attempt: usize,
    /// Iteration phase of the failing allocation
    /// (`"const"`/`"input"`/`"forward"`/`"recompute"`/`"backward"`).
    pub phase: &'static str,
    /// Bytes the failing allocation requested (aligned).
    pub requested: usize,
    /// Checkpointed blocks before the action.
    pub ckpt_before: usize,
    /// Checkpointed blocks after the action (≥ `ckpt_before`: demotion is
    /// monotone).
    pub ckpt_after: usize,
    /// Cumulative budget multiplier in effect after this event (1.0 for
    /// inline rungs; shrinks multiplicatively on each `Restart`).
    pub shrink_factor: f64,
    /// Virtual time attributed to the action itself: compaction copy time
    /// for `CoalesceRetry`, the aborted attempt's whole elapsed time for
    /// `Restart`/`Fallback`. Demotion's cost surfaces later as ordinary
    /// recompute time and is not double-counted here.
    pub time_cost_ns: u64,
    /// Bytes the action made available immediately (compaction: bytes
    /// defragmented into the coalesced range; demotion: internals evicted).
    pub freed_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_order_by_escalation() {
        assert!(RecoveryRung::CoalesceRetry < RecoveryRung::Demotion);
        assert!(RecoveryRung::Demotion < RecoveryRung::Restart);
        assert!(RecoveryRung::Restart < RecoveryRung::Fallback);
    }
}
