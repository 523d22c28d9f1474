//! The OOM-recovery ladder's outer rungs: iteration restart under a shrunk
//! planning budget, and the guaranteed-terminal full-checkpoint fallback.
//!
//! The ladder has four rungs, tried strictly in order of increasing cost:
//!
//! 1. **Coalesce-and-retry** — compact the arena and retry the failed
//!    allocation. Handled *inline* by the engine (see
//!    [`crate::block_engine`]); cures fragmentation failures and absorbs
//!    injected spurious failures. Cost: the copy time of the slide.
//! 2. **In-place demotion** — checkpoint additional blocks mid-iteration,
//!    evicting their internals, without abandoning work already done.
//!    Inline as well. Cost: their recompute in the backward pass.
//! 3. **Restart** — abandon the iteration and re-run it under a
//!    multiplicatively shrunk planning budget (the new plan is grown from
//!    the failed attempt's post-demotion plan, so demotion is monotone
//!    across attempts). Bounded by [`RecoveryConfig::max_restarts`]. Cost:
//!    everything the aborted attempt spent.
//! 4. **Fallback** — re-run with *every* block checkpointed. This is the
//!    minimum-footprint configuration at block granularity, so if it fails
//!    the workload genuinely does not fit and the failure is terminal.
//!
//! Every rung taken is recorded as a typed [`RecoveryEvent`] on the final
//! [`IterationReport`](crate::IterationReport), with its cost attributed to
//! the virtual clock's `recovery_ns` channel (demotion's cost shows up
//! later as ordinary recompute, so its event carries `time_cost_ns: 0` —
//! never double-counted).

use crate::block_engine::{run_attempt, BlockMode, BlockRun, EngineOpts};
use crate::BlockIteration;
use mimose_models::ModelProfile;
use mimose_planner::memory_model::peak_bytes;
use mimose_planner::{CheckpointPlan, RecoveryEvent, RecoveryRung};
use mimose_runtime::{EventLog, NullRecorder, Recorder};
use mimose_simgpu::ArenaStats;

/// Tunables for the OOM-recovery ladder. The default configuration enables
/// every rung with conservative bounds; disable individual rungs to study
/// their marginal contribution (the chaos CLI does exactly that).
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Rung 1: compact the arena and retry on fragmentation failures.
    pub compact: bool,
    /// Rung 2: demote (checkpoint) additional blocks in place.
    pub demote: bool,
    /// Rung 3: maximum full-iteration restarts before falling back.
    pub max_restarts: usize,
    /// Multiplicative planning-budget shrink applied per restart.
    pub shrink_factor: f64,
    /// Global cap on inline (rung 1/2) events per attempt; exceeding it
    /// escalates to restart rather than looping forever.
    pub max_inline_events: usize,
    /// Rung 4: try the full-checkpoint plan before declaring a fatal OOM.
    pub fallback: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            compact: true,
            demote: true,
            max_restarts: 2,
            shrink_factor: 0.85,
            max_inline_events: 64,
            fallback: true,
        }
    }
}

/// Grow `plan` (checkpoint more blocks) until the analytic peak fits under
/// `target` bytes, choosing kept blocks by descending activation size —
/// the fewest demotions for the most relief. Returns the plan unchanged if
/// it already fits; returns the all-checkpoint plan if even that is needed.
///
/// This uses the *true* profile rather than the policy's estimator: the
/// restart rung is an executor-side mechanism (like a runtime OOM handler
/// resizing its own workspace), not a planner prediction. The shrunk budget
/// is still fed back to the policy via the recovery events so *future*
/// plans become more conservative too.
#[must_use]
pub fn grow_plan(
    profile: &ModelProfile,
    mut plan: CheckpointPlan,
    target: usize,
) -> CheckpointPlan {
    if peak_bytes(profile, &plan) <= target {
        return plan;
    }
    let mut kept: Vec<usize> = (0..plan.len())
        .filter(|&i| !plan.is_checkpointed(i))
        .collect();
    kept.sort_by_key(|&i| std::cmp::Reverse(profile.blocks[i].act_bytes));
    for i in kept {
        plan.set(i, true);
        if peak_bytes(profile, &plan) <= target {
            break;
        }
    }
    plan
}

struct DriverState {
    /// Restarts consumed so far.
    restarts: usize,
    /// Cumulative budget shrink across restarts.
    shrink: f64,
    /// Elapsed virtual time of aborted attempts.
    wasted_ns: u64,
    /// Events accumulated from aborted attempts plus escalations.
    events: Vec<RecoveryEvent>,
    /// Plan for the next attempt, if an escalation replaced the caller's.
    restart_plan: Option<CheckpointPlan>,
    /// Whether the terminal full-checkpoint fallback has been tried.
    did_fallback: bool,
}

/// Run one iteration under the full recovery ladder, recording the final
/// attempt into `log` when one is given.
///
/// With neither a recovery config nor faults this is exactly one plain
/// engine attempt. Restart and fallback only apply to [`BlockMode::Plan`]
/// (the other modes have no block plan to grow): `Fine`/`Hybrid` escalate
/// straight to the fallback plan, and `Shuttle` *is* the full-checkpoint
/// configuration already, so its fallback would be itself and a fatal
/// shuttle iteration stays fatal.
///
/// The recorded stream and the returned arena statistics cover the **final attempt
/// only** — aborted attempts ran in arenas that were torn down with them;
/// their cost survives in the report's `recovery_ns` and the accumulated
/// [`RecoveryEvent`]s.
pub(crate) fn drive(
    it: &BlockIteration<'_>,
    mut log: Option<&mut EventLog>,
) -> (BlockRun, ArenaStats) {
    let BlockIteration {
        profile,
        ref mode,
        capacity,
        ref device,
        iter,
        planning_ns,
        recovery,
        faults,
    } = *it;
    let n = profile.blocks.len();
    let mut st = DriverState {
        restarts: 0,
        shrink: 1.0,
        wasted_ns: 0,
        events: Vec::new(),
        restart_plan: None,
        did_fallback: false,
    };
    let mut attempt = 0usize;
    let mut null = NullRecorder;
    loop {
        let attempt_mode = match &st.restart_plan {
            Some(p) => BlockMode::Plan(p),
            None => mode.clone(),
        };
        let opts = EngineOpts {
            attempt,
            shrink: st.shrink,
            recovery,
            faults,
        };
        // Planning time is a per-iteration cost, charged once; the aborted
        // attempts' own elapsed time is charged via recovery_ns instead.
        let attempt_planning = if attempt == 0 { planning_ns } else { 0 };
        // One log serves every attempt: clearing it keeps the allocation
        // and leaves the returned stream covering the final attempt only.
        let rec: &mut dyn Recorder = match log.as_deref_mut() {
            Some(log) => {
                log.events.clear();
                log
            }
            None => &mut null,
        };
        let (mut run, arena) = run_attempt(
            profile,
            attempt_mode,
            capacity,
            device,
            iter,
            attempt_planning,
            &opts,
            rec,
        );

        let fatal = !run.report.ok();
        let cfg = match recovery {
            Some(cfg) if fatal => cfg,
            _ => {
                // Success — or no ladder configured, so the first attempt is
                // final either way. Merge accumulated history into the
                // report.
                if !st.events.is_empty() {
                    let mut all = std::mem::take(&mut st.events);
                    all.append(&mut run.report.recovery);
                    run.report.recovery = all;
                }
                run.report.time.recovery_ns += st.wasted_ns;
                return (run, arena.stats());
            }
        };

        // Fatal under a ladder: decide the escalation before giving up.
        let attempt_ns = run.report.time.total_ns();
        let (oom_phase, oom_requested) = run
            .report
            .oom
            .as_ref()
            .map_or(("unknown", 0), |o| (o.phase, o.requested));
        // Checkpoint count of the plan the failed attempt *effectively* ran
        // (post-demotion when the inline rung fired), so the event chain's
        // checkpoint counts stay globally monotone.
        let effective_plan: Option<&CheckpointPlan> = run
            .demoted_plan
            .as_ref()
            .or(st.restart_plan.as_ref())
            .or(match &mode {
                BlockMode::Plan(p) => Some(*p),
                _ => None,
            });
        let failed_ckpt =
            effective_plan.map_or(0, |p| (0..n).filter(|&i| p.is_checkpointed(i)).count());
        st.events.append(&mut run.report.recovery);

        let restartable = matches!(&mode, BlockMode::Plan(_)) || st.restart_plan.is_some();
        if restartable && st.restarts < cfg.max_restarts && !st.did_fallback {
            // Rung 3 — restart under a shrunk budget, growing from the
            // failed attempt's post-demotion plan so demotion is monotone.
            st.wasted_ns += attempt_ns;
            st.restarts += 1;
            st.shrink *= cfg.shrink_factor;
            let target = (capacity as f64 * st.shrink) as usize;
            let base = run
                .demoted_plan
                .take()
                .or_else(|| st.restart_plan.take())
                .unwrap_or_else(|| match &mode {
                    BlockMode::Plan(p) => (*p).clone(),
                    _ => CheckpointPlan::none(n),
                });
            let next = grow_plan(profile, base, target);
            st.events.push(RecoveryEvent {
                rung: RecoveryRung::Restart,
                attempt,
                phase: oom_phase,
                requested: oom_requested,
                ckpt_before: failed_ckpt,
                ckpt_after: (0..n).filter(|&i| next.is_checkpointed(i)).count(),
                shrink_factor: st.shrink,
                time_cost_ns: attempt_ns,
                freed_bytes: 0,
            });
            st.restart_plan = Some(next);
            attempt += 1;
            continue;
        }

        // Rung 4 — full-checkpoint fallback. Skip when the failed plan
        // already *was* full-checkpoint (nothing left to shed) and for
        // shuttle iterations, which are full-checkpoint by construction.
        let already_full = failed_ckpt == n && n > 0;
        let fallback_applies = cfg.fallback
            && !st.did_fallback
            && !already_full
            && !matches!(&mode, BlockMode::Shuttle if st.restart_plan.is_none());
        if fallback_applies {
            st.wasted_ns += attempt_ns;
            st.did_fallback = true;
            st.events.push(RecoveryEvent {
                rung: RecoveryRung::Fallback,
                attempt,
                phase: oom_phase,
                requested: oom_requested,
                ckpt_before: failed_ckpt,
                ckpt_after: n,
                shrink_factor: st.shrink,
                time_cost_ns: attempt_ns,
                freed_bytes: 0,
            });
            st.restart_plan = Some(CheckpointPlan::all(n));
            attempt += 1;
            continue;
        }

        // Terminal fatal: the ladder is exhausted. Ship the full chain of
        // remedies tried, with aborted attempts' time on the clock.
        run.report.recovery = std::mem::take(&mut st.events);
        run.report.time.recovery_ns += st.wasted_ns;
        return (run, arena.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_chaos::{FaultInjector, FaultSpec};
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_models::ModelInput;
    use mimose_simgpu::DeviceProfile;

    fn profile(seq: usize) -> ModelProfile {
        bert_base(BertHead::Classification { labels: 2 })
            .profile(&ModelInput::tokens(32, seq))
            .unwrap()
    }

    #[test]
    fn grow_plan_is_monotone_and_reaches_target() {
        let p = profile(200);
        let n = p.blocks.len();
        let none = CheckpointPlan::none(n);
        let full_peak = peak_bytes(&p, &none);
        let min_peak = peak_bytes(&p, &CheckpointPlan::all(n));
        let target = (min_peak + full_peak) / 2;
        let grown = grow_plan(&p, none.clone(), target);
        assert!(peak_bytes(&p, &grown) <= target);
        // Monotone: grow never un-checkpoints.
        for i in 0..n {
            assert!(!none.is_checkpointed(i) || grown.is_checkpointed(i));
        }
        // Unreachable target saturates at the all-checkpoint plan.
        let sat = grow_plan(&p, CheckpointPlan::none(n), 1);
        assert_eq!(sat.count(), n);
    }

    #[test]
    fn ladder_rescues_undersized_plan_via_restart() {
        let p = profile(256);
        let n = p.blocks.len();
        // A capacity the no-checkpoint plan cannot fit, but full-checkpoint
        // can: without the ladder this is a fatal OOM.
        let min_peak = peak_bytes(&p, &CheckpointPlan::all(n));
        let max_peak = peak_bytes(&p, &CheckpointPlan::none(n));
        let capacity = (min_peak + (max_peak - min_peak) / 4).next_multiple_of(512);
        let plan = CheckpointPlan::none(n);

        let bare = BlockIteration::plan(&p, &plan).capacity(capacity).run();
        assert!(!bare.report.ok(), "without the ladder this must die");

        let cfg = RecoveryConfig::default();
        let run = BlockIteration::plan(&p, &plan)
            .capacity(capacity)
            .recovery(&cfg)
            .run();
        assert!(run.report.ok(), "ladder must rescue: {:?}", run.report.oom);
        assert!(!run.report.recovery.is_empty());
        assert!(
            run.report.time.recovery_ns > 0
                || run
                    .report
                    .recovery
                    .iter()
                    .all(|e| e.rung == RecoveryRung::Demotion)
        );
    }

    #[test]
    fn fallback_is_terminal_and_ordered() {
        let p = profile(256);
        let n = p.blocks.len();
        let min_peak = peak_bytes(&p, &CheckpointPlan::all(n));
        // Slightly above the absolute floor: only full-checkpoint fits.
        let capacity = (min_peak + (min_peak / 50)).next_multiple_of(512);
        let plan = CheckpointPlan::none(n);
        // Demotion and restarts disabled: the only rescue left is rung 4.
        let cfg = RecoveryConfig {
            demote: false,
            max_restarts: 0,
            ..RecoveryConfig::default()
        };
        let run = BlockIteration::plan(&p, &plan)
            .capacity(capacity)
            .recovery(&cfg)
            .run();
        assert!(run.report.ok(), "fallback must fit: {:?}", run.report.oom);
        let rungs: Vec<_> = run.report.recovery.iter().map(|e| e.rung).collect();
        assert!(rungs.contains(&RecoveryRung::Fallback));
        // Rungs escalate: no Restart after the Fallback.
        let fb = rungs
            .iter()
            .position(|r| *r == RecoveryRung::Fallback)
            .unwrap();
        assert!(rungs[fb + 1..].iter().all(|r| *r != RecoveryRung::Restart));
        assert!(run.report.time.recovery_ns > 0);
    }

    #[test]
    fn impossible_workload_fails_terminally_with_full_chain() {
        let p = profile(256);
        let n = p.blocks.len();
        let min_peak = peak_bytes(&p, &CheckpointPlan::all(n));
        // Below even the full-checkpoint floor: nothing can save this.
        let capacity = (min_peak / 2).next_multiple_of(512);
        let plan = CheckpointPlan::none(n);
        let full = BlockIteration::plan(&p, &plan)
            .capacity(capacity)
            .recovery(&RecoveryConfig::default())
            .run();
        assert!(!full.report.ok(), "must stay fatal below the floor");
        // The chain shows the ladder *was* climbed before giving up. (No
        // recovery_ns assertion: the attempts die at the first allocation,
        // which genuinely costs nothing on the virtual clock.)
        assert!(!full.report.recovery.is_empty());
        assert!(full
            .report
            .recovery
            .iter()
            .any(|e| e.rung >= RecoveryRung::Restart));

        // With only rung 4 enabled, the terminal chain is exactly one
        // Fallback event — tried once, then fatal.
        let cfg = RecoveryConfig {
            compact: false,
            demote: false,
            max_restarts: 0,
            ..RecoveryConfig::default()
        };
        let run = BlockIteration::plan(&p, &plan)
            .capacity(capacity)
            .recovery(&cfg)
            .run();
        assert!(!run.report.ok());
        let rungs: Vec<_> = run.report.recovery.iter().map(|e| e.rung).collect();
        assert_eq!(rungs, vec![RecoveryRung::Fallback]);
    }

    #[test]
    fn injected_failures_absorbed_by_compact_rung() {
        let p = profile(128);
        let n = p.blocks.len();
        let spec = FaultSpec {
            seed: 7,
            alloc_failure_rate: 1.0,
            alloc_failures_per_iter: 3,
            alloc_failure_span: 40,
            ..FaultSpec::default()
        };
        let inj = FaultInjector::new(spec);
        let faults = inj.iteration_faults(0);
        assert!(!faults.fail_allocs.is_empty());
        let cfg = RecoveryConfig::default();
        let plan = CheckpointPlan::from_indices(n, &[0, 1, 2]).unwrap();
        let run = BlockIteration::plan(&p, &plan)
            .capacity(64 << 30)
            .recovery(&cfg)
            .faults(&faults)
            .run();
        assert!(run.report.ok(), "spurious failures must be absorbed");
        assert!(run
            .report
            .recovery
            .iter()
            .any(|e| e.rung == RecoveryRung::CoalesceRetry));
        // Spurious failures report true free space, so no demotion needed
        // on a huge arena.
        assert!(run
            .report
            .recovery
            .iter()
            .all(|e| e.rung == RecoveryRung::CoalesceRetry));
    }

    #[test]
    fn happy_path_is_byte_identical_to_plain_engine() {
        let p = profile(160);
        let n = p.blocks.len();
        let dev = DeviceProfile::v100();
        let plan = CheckpointPlan::from_indices(n, &[1, 3, 5, 7]).unwrap();
        let it = || {
            BlockIteration::plan(&p, &plan)
                .device(&dev)
                .capacity(64 << 30)
                .iter(3)
                .planning_ns(42)
        };
        let (plain, plain_events, plain_stats) = it().run_recorded();
        let cfg = RecoveryConfig::default();
        let (rec, rec_events, rec_stats) = it().recovery(&cfg).run_recorded();
        assert!(plain.report.ok() && rec.report.ok());
        assert_eq!(plain_events, rec_events, "streams must be identical");
        assert_eq!(plain_stats, rec_stats);
        assert_eq!(
            plain.report.time.total_ns(),
            rec.report.time.total_ns(),
            "virtual clock must agree on the happy path"
        );
        assert!(rec.report.recovery.is_empty());
        assert_eq!(rec.report.time.recovery_ns, 0);
    }
}
