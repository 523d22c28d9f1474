//! The block engine's materialization policy: the inline rungs of the
//! OOM-recovery ladder (arena coalesce-and-retry, then in-place plan
//! demotion) expressed against the shared [`EngineCore`].
//!
//! This is the whole of what makes the block engine's response to memory
//! pressure different from the DTR engine's — the timeline in
//! [`crate::block_engine`] is policy-free. Escalation past these rungs
//! (restart with a denser plan, fallback to full checkpointing) is the
//! driver's job ([`crate::recovery`]), not the policy's.

use crate::recovery::RecoveryConfig;
use mimose_models::ModelProfile;
use mimose_planner::{CheckpointPlan, RecoveryEvent, RecoveryRung};
use mimose_runtime::{
    align_up, AllocFail, AllocSite, EngineCore, ExecEvent, LiveBlock, MaterializationPolicy,
};
use mimose_simgpu::OomError;

/// The plan a demotion-mutable working copy currently expresses.
pub(crate) fn plan_of(w: &[bool]) -> CheckpointPlan {
    let mut plan = CheckpointPlan::none(w.len());
    for (j, &c) in w.iter().enumerate() {
        plan.set(j, c);
    }
    plan
}

/// Inline recovery rungs plus the live-block table the demotion rung evicts
/// from. Without a [`RecoveryConfig`] every relief request is declined and
/// the arena error surfaces unchanged (legacy report-and-die behaviour).
pub(crate) struct BlockRungPolicy<'a> {
    pub profile: &'a ModelProfile,
    pub recovery: Option<&'a RecoveryConfig>,
    /// 0-based attempt number stamped on recovery events.
    pub attempt: usize,
    /// Cumulative budget shrink stamped on recovery events.
    pub shrink: f64,
    /// Checkpoint count of the plan as given, for stamping recovery events
    /// when no demotion working copy exists (demotion disabled or non-Plan
    /// mode) — keeps the chain's counts consistent with the driver's
    /// restart/fallback events.
    pub base_ckpt: usize,
    /// Demotion-mutable checkpoint plan (Plan mode under recovery only).
    pub working: Option<Vec<bool>>,
    pub live: Vec<LiveBlock>,
    pub dropped_units: usize,
    pub events: Vec<RecoveryEvent>,
}

impl BlockRungPolicy<'_> {
    fn ckpt_now(&self) -> usize {
        self.working
            .as_ref()
            .map_or(self.base_ckpt, |w| w.iter().filter(|&&c| c).count())
    }

    /// Expose the post-demotion plan only when demotion actually fired.
    pub fn demoted_plan(&self) -> Option<CheckpointPlan> {
        if self.events.iter().any(|e| e.rung == RecoveryRung::Demotion) {
            self.working.as_deref().map(plan_of)
        } else {
            None
        }
    }
}

impl MaterializationPolicy for BlockRungPolicy<'_> {
    fn relieve(
        &mut self,
        core: &mut EngineCore<'_>,
        err: &OomError,
        bytes: usize,
        site: &AllocSite,
    ) -> Result<bool, AllocFail> {
        let Some(cfg) = self.recovery else {
            return Ok(false);
        };
        if self.events.len() >= cfg.max_inline_events {
            return Ok(false);
        }

        // Rung 1 — coalesce-and-retry. Fires on fragmentation failures
        // (enough total bytes, no contiguous range) and on injected
        // spurious failures, which report the arena's true free space.
        // Termination: after a compact, fragmentation is zero, so a real
        // re-failure must be genuine exhaustion (escalates to rung 2); an
        // injected re-failure consumes one of the finitely many armed
        // ordinals. The copy cost of the slide is charged to the clock.
        if cfg.compact && err.is_fragmentation() {
            let frag_before = core.arena.fragmentation_bytes();
            let ckpt = self.ckpt_now();
            let moved = core.compact();
            let cost = core.dev.exec_ns(0.0, 2 * moved) as u64;
            core.charge_recovery(cost);
            let ev = RecoveryEvent {
                rung: RecoveryRung::CoalesceRetry,
                attempt: self.attempt,
                phase: site.phase,
                requested: err.requested,
                ckpt_before: ckpt,
                ckpt_after: ckpt,
                shrink_factor: self.shrink,
                time_cost_ns: cost,
                freed_bytes: frag_before,
            };
            core.emit(ExecEvent::Recovery(Box::new(ev.clone())));
            self.events.push(ev);
            return Ok(true);
        }

        // Rung 2 — in-place demotion (Plan mode only). Evict the internals
        // of kept blocks that are not currently executing (earliest index
        // first — their recompute is cheapest to schedule in backward) until
        // enough total bytes are free; contiguity, if still lacking, is rung
        // 1's job on the next round. In the forward pass, additionally mark
        // the largest-activation future kept block checkpointed so upcoming
        // blocks shed pressure before allocating it.
        if cfg.demote {
            if let Some(w) = self.working.as_mut() {
                let need = align_up(bytes);
                let before = w.iter().filter(|&&c| c).count();
                let mut freed = 0usize;
                let mut demoted = 0usize;
                // Indexing on purpose: the loop walks `w` and `self.live` in
                // lockstep and compares against the cursor position.
                #[allow(clippy::needless_range_loop)]
                for j in 0..self.live.len() {
                    if core.arena.free_bytes() >= need {
                        break;
                    }
                    if Some(j) == site.cursor || w[j] || self.live[j].tensor_ids.is_empty() {
                        continue;
                    }
                    for id in self.live[j].tensor_ids.drain(..) {
                        if let Some(sz) = core.arena.size_of(id) {
                            freed += sz;
                        }
                        core.free(id);
                    }
                    w[j] = true;
                    demoted += 1;
                    self.dropped_units += 1;
                }
                if site.in_forward {
                    let future = site.cursor.map_or(0, |c| c + 1).max(self.live.len());
                    let victim = (future..w.len())
                        .filter(|&j| !w[j])
                        .max_by_key(|&j| self.profile.blocks[j].act_bytes);
                    if let Some(j) = victim {
                        w[j] = true;
                        demoted += 1;
                    }
                }
                if demoted > 0 {
                    let after = w.iter().filter(|&&c| c).count();
                    let ev = RecoveryEvent {
                        rung: RecoveryRung::Demotion,
                        attempt: self.attempt,
                        phase: site.phase,
                        requested: err.requested,
                        ckpt_before: before,
                        ckpt_after: after,
                        shrink_factor: self.shrink,
                        time_cost_ns: 0, // cost surfaces later as recompute
                        freed_bytes: freed,
                    };
                    core.emit(ExecEvent::Recovery(Box::new(ev.clone())));
                    self.events.push(ev);
                    // The stream carries the new plan; the teed shadow
                    // checker (and any auditor) rebases from it.
                    core.emit(ExecEvent::PlanApplied { plan: plan_of(w) });
                    return Ok(true);
                }
            }
        }

        Ok(false)
    }
}
