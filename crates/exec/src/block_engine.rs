//! Block-granularity iteration engine: simulates one forward/backward pass
//! under a checkpoint plan (or a shuttle-collection iteration) on top of the
//! shared [`EngineCore`] runtime.
//!
//! The allocation timeline deliberately mirrors
//! `mimose_planner::memory_model::peak_bytes` step for step, so planner
//! budget checks and executor measurements agree (cross-validated in the
//! integration tests).
//!
//! Everything the engine does goes through the core and is narrated to a
//! [`Recorder`] as a typed [`ExecEvent`] stream: the report folds from it,
//! the shadow checker is teed into it, and `mimose-audit` replays it. What
//! remains here is the block *timeline* plus [`BlockRungPolicy`] — the
//! inline rungs of the OOM-recovery ladder (arena coalesce-and-retry, then
//! in-place plan demotion) expressed as a
//! [`MaterializationPolicy`]. Without a [`RecoveryConfig`] the policy has no
//! remedies and any `OomError` becomes a terminal `OomReport`, exactly as
//! before.

use crate::recovery::RecoveryConfig;
use crate::rungs::BlockRungPolicy;
use crate::shadow::ShadowChecker;
use mimose_chaos::IterationFaults;
use mimose_models::{BlockProfile, ModelProfile};
use mimose_planner::memory_model::FinePlan;
use mimose_planner::{BlockAction, BlockObservation, CheckpointPlan, HybridPlan};
use mimose_runtime::{
    policy_alloc, AllocSite, EngineCore, ExecEvent, IterationReport, LiveBlock, Recorder,
    ReportMeta, Tee,
};
use mimose_simgpu::{Arena, DeviceProfile};

/// How to run the iteration.
#[derive(Debug, Clone)]
pub enum BlockMode<'a> {
    /// Normal execution under a block plan.
    Plan(&'a CheckpointPlan),
    /// Tensor-granular plan (MONeT).
    Fine(&'a FinePlan),
    /// Hybrid swap/recompute plan (Capuchin).
    Hybrid(&'a HybridPlan),
    /// Mimose's shuttle-collection iteration: every block forwards twice and
    /// per-block measurements are returned.
    Shuttle,
}

/// Outcome of a block-engine iteration.
pub struct BlockRun {
    /// The measurement report.
    pub report: IterationReport,
    /// Per-block observations (only for shuttle iterations).
    pub observations: Option<Vec<BlockObservation>>,
    /// The effective checkpoint plan after in-iteration demotion, if the
    /// recovery ladder demoted any blocks (Plan mode only). The restart
    /// driver grows its next plan from here so demotion stays monotone
    /// across attempts.
    pub demoted_plan: Option<CheckpointPlan>,
}

/// Per-attempt knobs threaded through the engine (the recovery driver
/// varies them from one attempt to the next).
pub(crate) struct EngineOpts<'a> {
    /// 0-based attempt number stamped on recovery events.
    pub attempt: usize,
    /// Cumulative budget shrink stamped on recovery events.
    pub shrink: f64,
    /// Inline recovery rungs; `None` = legacy report-and-die behaviour.
    pub recovery: Option<&'a RecoveryConfig>,
    /// Faults to inject into this attempt; `None` = clean run.
    pub faults: Option<&'a IterationFaults>,
}

/// Whether block `i` runs checkpointed, consulting the demotion-mutable
/// working plan when one exists (Plan mode under recovery).
fn is_ckpt_of(mode: &BlockMode<'_>, working: &Option<Vec<bool>>, i: usize) -> bool {
    if let Some(w) = working {
        return w[i];
    }
    match mode {
        BlockMode::Plan(p) => p.is_checkpointed(i),
        BlockMode::Fine(_) => false, // handled via dropped sets
        BlockMode::Hybrid(h) => h.actions[i] == BlockAction::Recompute,
        BlockMode::Shuttle => true,
    }
}

fn is_swap(mode: &BlockMode<'_>, i: usize) -> bool {
    matches!(mode, BlockMode::Hybrid(h) if h.actions[i] == BlockAction::Swap)
}

/// The shadow checker's reference plan for a mode. Fine plans are excluded —
/// the engine drops whole tensors until the planned byte count is covered,
/// deliberately overshooting the analytic figure. Hybrid swap blocks free
/// internals exactly like recompute blocks, so both map to "checkpointed".
fn shadow_plan(mode: &BlockMode<'_>, n: usize) -> Option<CheckpointPlan> {
    match mode {
        BlockMode::Plan(p) => Some((*p).clone()),
        BlockMode::Shuttle => Some(CheckpointPlan::all(n)),
        BlockMode::Hybrid(h) => {
            let mut pl = CheckpointPlan::none(n);
            for (i, a) in h.actions.iter().enumerate() {
                pl.set(i, *a != BlockAction::Keep);
            }
            Some(pl)
        }
        BlockMode::Fine(_) => None,
    }
}

/// For fine plans: which tensor indices to drop per block. Matches the
/// MONeT solver's selection order (bytes-per-recompute-FLOP efficiency,
/// best first) until the planned byte count is covered.
fn fine_drops(b: &BlockProfile, planned: usize) -> Vec<usize> {
    if planned == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..b.tensors.len()).collect();
    order.sort_by(|&x, &y| {
        let ex = b.tensors[x].bytes as f64 / b.tensors[x].fwd_flops.max(1.0);
        let ey = b.tensors[y].bytes as f64 / b.tensors[y].fwd_flops.max(1.0);
        ey.total_cmp(&ex)
    });
    let mut acc = 0usize;
    let mut out = Vec::new();
    for i in order {
        if acc >= planned {
            break;
        }
        acc += b.tensors[i].bytes;
        out.push(i);
    }
    out
}

/// Close the iteration from any point of the timeline.
fn close(
    core: EngineCore<'_>,
    profile: &ModelProfile,
    iter: usize,
    shuttle: bool,
    oom: Option<mimose_runtime::OomReport>,
    pol: BlockRungPolicy<'_>,
) -> (BlockRun, Arena) {
    let demoted_plan = pol.demoted_plan();
    let (report, arena) = core.finish(ReportMeta {
        iter,
        input: profile.input,
        input_size: profile.input_size,
        dropped_units: pol.dropped_units,
        shuttle,
        oom,
        recovery: pol.events,
    });
    (
        BlockRun {
            report,
            observations: None,
            demoted_plan,
        },
        arena,
    )
}

/// Run one attempt of one iteration at block granularity, narrating it to
/// `rec`.
///
/// `capacity` is the arena size (the budget for budget-enforcing policies,
/// or the device size for the baseline); `planning_ns` is the policy's plan
/// generation time to charge to the clock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_attempt(
    profile: &ModelProfile,
    mode: BlockMode<'_>,
    capacity: usize,
    dev: &DeviceProfile,
    iter: usize,
    planning_ns: u64,
    opts: &EngineOpts<'_>,
    rec: &mut dyn Recorder,
) -> (BlockRun, Arena) {
    let n = profile.blocks.len();
    let shuttle = matches!(mode, BlockMode::Shuttle);

    // Shadow checking (debug builds / MIMOSE_SHADOW_CHECK=1): a recorder
    // teed into the stream that cross-validates live bytes against the
    // analytic model's residency curve at every `Boundary` event.
    let mut shadow = if crate::shadow::shadow_check_enabled() {
        shadow_plan(&mode, n).map(|pl| ShadowChecker::new(profile, &pl))
    } else {
        None
    };
    let mut tee;
    let rec: &mut dyn Recorder = match shadow.as_mut() {
        Some(s) => {
            tee = Tee(s, rec);
            &mut tee
        }
        None => rec,
    };

    let mut core = EngineCore::new(capacity, dev, rec);
    core.arm_faults(opts.faults);
    core.charge_planning(planning_ns);

    let mut pol = BlockRungPolicy {
        profile,
        recovery: opts.recovery,
        attempt: opts.attempt,
        shrink: opts.shrink,
        base_ckpt: match &mode {
            BlockMode::Plan(p) => p.count(),
            BlockMode::Hybrid(h) => h
                .actions
                .iter()
                .filter(|a| **a == BlockAction::Recompute)
                .count(),
            _ => 0,
        },
        // Demotion-mutable working copy of the plan (Plan mode under
        // recovery).
        working: match (&mode, opts.recovery) {
            (BlockMode::Plan(p), Some(cfg)) if cfg.demote => {
                Some((0..n).map(|i| p.is_checkpointed(i)).collect())
            }
            _ => None,
        },
        live: Vec::with_capacity(n),
        dropped_units: 0,
        events: Vec::new(),
    };

    // Constant footprint + input tensor.
    for (bytes, phase) in [
        (profile.const_bytes, "const"),
        (profile.input_bytes, "input"),
    ] {
        if let Err(e) = policy_alloc(&mut core, &mut pol, bytes, &AllocSite::setup(phase)) {
            let report = e.to_report(&core.arena, phase);
            return close(core, profile, iter, shuttle, Some(report), pol);
        }
    }
    core.emit(ExecEvent::Boundary {
        phase: "init",
        index: None,
        live_hint: None,
    });

    // ---------------- forward ----------------
    let mut observations: Vec<BlockObservation> = Vec::with_capacity(if shuttle { n } else { 0 });
    for (i, b) in profile.blocks.iter().enumerate() {
        let fwd_ns = dev.exec_ns(b.fwd_flops, b.fwd_bytes_moved);
        core.charge_compute(fwd_ns as u64);
        if shuttle {
            // The second forward of the shuttling collector (§IV-B).
            core.charge_recompute(fwd_ns);
        }
        // Materialise internals + output.
        let site = AllocSite {
            phase: "forward",
            cursor: Some(i),
            in_forward: true,
        };
        let mut ids = Vec::with_capacity(b.tensors.len());
        for t in &b.tensors {
            match policy_alloc(&mut core, &mut pol, t.bytes, &site) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    let report = e.to_report(&core.arena, "forward");
                    return close(core, profile, iter, shuttle, Some(report), pol);
                }
            }
        }
        let out_id = match policy_alloc(&mut core, &mut pol, b.out_bytes, &site) {
            Ok(id) => id,
            Err(e) => {
                let report = e.to_report(&core.arena, "forward");
                return close(core, profile, iter, shuttle, Some(report), pol);
            }
        };
        if shuttle {
            observations.push(BlockObservation {
                index: i,
                act_bytes: b.act_bytes,
                out_bytes: b.out_bytes,
                in_bytes: b.in_bytes,
                fwd_ns: fwd_ns as u64,
            });
        }
        let mut lb = LiveBlock {
            tensor_ids: ids,
            out_id: Some(out_id),
            dropped: Vec::new(),
        };
        if is_ckpt_of(&mode, &pol.working, i) || is_swap(&mode, i) {
            // Drop internals, keep the output checkpoint. A swapped block
            // additionally pays the non-overlapped swap-out transfer.
            if is_swap(&mode, i) {
                core.charge_swap(dev.swap_ns(b.act_bytes) as u64);
            }
            for id in lb.tensor_ids.drain(..) {
                core.free(id);
            }
            if !b.tensors.is_empty() {
                pol.dropped_units += 1;
            }
        } else if let BlockMode::Fine(fp) = &mode {
            let drops = fine_drops(b, fp.dropped_bytes[i]);
            for &ti in &drops {
                core.free(lb.tensor_ids[ti]);
                pol.dropped_units += 1;
            }
            // Mark dropped slots (keep ids vec aligned by replacing later).
            let drop_set: std::collections::HashSet<usize> = drops.iter().copied().collect();
            lb.tensor_ids = lb
                .tensor_ids
                .iter()
                .enumerate()
                .filter(|(ti, _)| !drop_set.contains(ti))
                .map(|(_, &id)| id)
                .collect();
            lb.dropped = drops;
        }
        pol.live.push(lb);
        core.emit(ExecEvent::Boundary {
            phase: "forward",
            index: Some(i),
            live_hint: None,
        });
    }

    // ---------------- backward ----------------
    for (i, b) in profile.blocks.iter().enumerate().rev() {
        // Rematerialise what was dropped.
        if is_ckpt_of(&mode, &pol.working, i) || is_swap(&mode, i) {
            if is_swap(&mode, i) {
                // Prefetch back over PCIe instead of recomputing.
                core.charge_swap(dev.swap_ns(b.act_bytes) as u64);
            } else {
                core.charge_recompute(dev.exec_ns(b.fwd_flops, b.fwd_bytes_moved));
            }
            let site = AllocSite {
                phase: "recompute",
                cursor: Some(i),
                in_forward: false,
            };
            for t in &b.tensors {
                match policy_alloc(&mut core, &mut pol, t.bytes, &site) {
                    Ok(id) => pol.live[i].tensor_ids.push(id),
                    Err(e) => {
                        let report = e.to_report(&core.arena, "recompute");
                        return close(core, profile, iter, shuttle, Some(report), pol);
                    }
                }
            }
        } else if let BlockMode::Fine(fp) = &mode {
            if fp.dropped_bytes[i] > 0 {
                // Recompute cost follows the tensors *actually* dropped for
                // this input (a static fine plan names tensors; on smaller
                // inputs those tensors are smaller and cheaper). Each tensor
                // pays a 1.3x locality factor for re-running block-local
                // producers, but a block never recomputes more than its own
                // forward pass.
                let flops: f64 = pol.live[i]
                    .dropped
                    .iter()
                    .map(|&ti| b.tensors[ti].fwd_flops * 1.3)
                    .sum::<f64>()
                    .min(b.fwd_flops * 1.05);
                core.charge_recompute(dev.exec_ns(flops, 0));
                let site = AllocSite {
                    phase: "recompute",
                    cursor: Some(i),
                    in_forward: false,
                };
                let drops = pol.live[i].dropped.clone();
                for ti in drops {
                    match policy_alloc(&mut core, &mut pol, b.tensors[ti].bytes, &site) {
                        Ok(id) => pol.live[i].tensor_ids.push(id),
                        Err(e) => {
                            let report = e.to_report(&core.arena, "recompute");
                            return close(core, profile, iter, shuttle, Some(report), pol);
                        }
                    }
                }
            }
        }
        // Gradient transients: output grad + input grad.
        let site = AllocSite {
            phase: "backward",
            cursor: Some(i),
            in_forward: false,
        };
        let mut grads = [None, None];
        for (g, bytes) in grads.iter_mut().zip([b.out_bytes, b.in_bytes]) {
            match policy_alloc(&mut core, &mut pol, bytes, &site) {
                Ok(id) => *g = Some(id),
                Err(e) => {
                    let report = e.to_report(&core.arena, "backward");
                    return close(core, profile, iter, shuttle, Some(report), pol);
                }
            }
        }
        core.charge_compute(dev.exec_ns(b.bwd_flops, 2 * b.fwd_bytes_moved) as u64);
        for id in grads.into_iter().flatten() {
            core.free(id);
        }
        // Release the block's activations + output.
        for id in pol.live[i].tensor_ids.drain(..) {
            core.free(id);
        }
        if let Some(id) = pol.live[i].out_id.take() {
            core.free(id);
        }
        core.emit(ExecEvent::Boundary {
            phase: "backward",
            index: Some(i),
            live_hint: None,
        });
    }

    // Optimizer step: elementwise update over all parameters.
    let p = profile.param_count as f64;
    core.charge_compute(dev.exec_ns(4.0 * p, profile.param_count * 16) as u64);

    let (mut run, arena) = close(core, profile, iter, shuttle, None, pol);
    if shuttle {
        run.observations = Some(observations);
    }
    (run, arena)
}
