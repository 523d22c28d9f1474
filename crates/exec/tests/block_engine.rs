//! Behavioural tests of the block engine's timeline, driven through the
//! public API only (the engine itself is a thin layer over
//! `mimose_runtime::EngineCore`).

use mimose_exec::{BlockIteration, BlockMode, BlockRun};
use mimose_models::builders::{bert_base, BertHead};
use mimose_models::{ModelInput, ModelProfile};
use mimose_planner::memory_model::{peak_bytes, FinePlan};
use mimose_planner::{BlockAction, CheckpointPlan, HybridPlan};
use mimose_runtime::fold_events;
use mimose_simgpu::DeviceProfile;

fn profile(seq: usize) -> ModelProfile {
    bert_base(BertHead::Classification { labels: 2 })
        .profile(&ModelInput::tokens(32, seq))
        .unwrap()
}

/// One block-engine iteration on a V100 cost model.
fn run_block(p: &ModelProfile, mode: BlockMode<'_>, capacity: usize) -> BlockRun {
    BlockIteration::with_mode(p, mode).capacity(capacity).run()
}

#[test]
fn engine_peak_matches_analytic_model() {
    let p = profile(128);
    for plan in [
        CheckpointPlan::none(p.blocks.len()),
        CheckpointPlan::all(p.blocks.len()),
        CheckpointPlan::from_indices(p.blocks.len(), &[1, 2, 3, 4, 5]).unwrap(),
    ] {
        let run = run_block(&p, BlockMode::Plan(&plan), 64 << 30);
        assert!(run.report.ok());
        let analytic = peak_bytes(&p, &plan);
        let measured = run.report.peak_bytes;
        let rel = (measured as f64 - analytic as f64).abs() / analytic as f64;
        assert!(
            rel < 0.001,
            "plan {plan}: measured {measured} vs analytic {analytic}"
        );
    }
}

#[test]
fn checkpointing_reduces_peak_and_adds_recompute() {
    let p = profile(200);
    let none = run_block(
        &p,
        BlockMode::Plan(&CheckpointPlan::none(p.blocks.len())),
        64 << 30,
    );
    let all = run_block(
        &p,
        BlockMode::Plan(&CheckpointPlan::all(p.blocks.len())),
        64 << 30,
    );
    assert!(all.report.peak_bytes < none.report.peak_bytes);
    assert_eq!(none.report.time.recompute_ns, 0);
    assert!(all.report.time.recompute_ns > 0);
    assert!(all.report.time.total_ns() > none.report.time.total_ns());
}

#[test]
fn oom_reported_when_over_capacity() {
    let p = profile(300);
    let run = run_block(
        &p,
        BlockMode::Plan(&CheckpointPlan::none(p.blocks.len())),
        3 << 30,
    );
    assert!(!run.report.ok());
    assert_eq!(run.report.oom.as_ref().expect("oom").phase, "forward");
    assert!(run.report.recovery.is_empty(), "no ladder without a config");
    assert!(run.demoted_plan.is_none());
}

#[test]
fn shuttle_doubles_forward_time_and_measures() {
    let p = profile(128);
    let plain = run_block(
        &p,
        BlockMode::Plan(&CheckpointPlan::all(p.blocks.len())),
        64 << 30,
    );
    let shuttle = run_block(&p, BlockMode::Shuttle, 64 << 30);
    assert!(shuttle.report.ok());
    let obs = shuttle.observations.as_ref().expect("shuttle observes");
    assert_eq!(obs.len(), p.blocks.len());
    for (o, b) in obs.iter().zip(&p.blocks) {
        assert_eq!(o.act_bytes, b.act_bytes);
        assert_eq!(o.out_bytes, b.out_bytes);
        assert!(o.fwd_ns > 0);
    }
    // Shuttle recompute equals a full extra forward; its peak matches
    // the all-checkpointed plan (§IV-B: same footprint as Sublinear).
    assert_eq!(shuttle.report.peak_bytes, plain.report.peak_bytes);
    assert!(shuttle.report.time.recompute_ns >= plain.report.time.recompute_ns);
}

#[test]
fn fine_plan_drops_partial_bytes() {
    let p = profile(200);
    let n = p.blocks.len();
    let mut fine = FinePlan::none(n);
    // Drop ~half of encoder 1's internals.
    fine.dropped_bytes[1] = p.blocks[1].act_bytes / 2;
    fine.recompute_flops[1] = p.blocks[1].fwd_flops / 2.0;
    let run = run_block(&p, BlockMode::Fine(&fine), 64 << 30);
    assert!(run.report.ok());
    assert!(run.report.dropped_units > 0);
    assert!(run.report.time.recompute_ns > 0);
    let full = run_block(&p, BlockMode::Plan(&CheckpointPlan::none(n)), 64 << 30);
    assert!(run.report.peak_bytes < full.report.peak_bytes);
}

#[test]
fn hybrid_swap_charges_transfer_not_recompute() {
    let p = profile(200);
    let dev = DeviceProfile::v100();
    let n = p.blocks.len();
    let mut swap_plan = HybridPlan::keep_all(n);
    swap_plan.actions[1] = BlockAction::Swap;
    let mut rec_plan = HybridPlan::keep_all(n);
    rec_plan.actions[1] = BlockAction::Recompute;

    let swap = run_block(&p, BlockMode::Hybrid(&swap_plan), 64 << 30);
    let rec = run_block(&p, BlockMode::Hybrid(&rec_plan), 64 << 30);
    assert!(swap.report.ok() && rec.report.ok());
    // Identical memory behaviour...
    assert_eq!(swap.report.peak_bytes, rec.report.peak_bytes);
    // ...different time channels.
    assert!(swap.report.time.swap_ns > 0);
    assert_eq!(swap.report.time.recompute_ns, 0);
    assert!(rec.report.time.recompute_ns > 0);
    assert_eq!(rec.report.time.swap_ns, 0);
    // Expected swap charge: out + back, non-overlapped fraction.
    let expect = 2 * dev.swap_ns(p.blocks[1].act_bytes) as u64;
    let got = swap.report.time.swap_ns;
    assert!(
        (got as i64 - expect as i64).unsigned_abs() <= 2,
        "swap charge {got} vs {expect}"
    );
}

#[test]
fn planning_ns_charged_to_clock() {
    let p = profile(64);
    let plan = CheckpointPlan::none(p.blocks.len());
    let without = run_block(&p, BlockMode::Plan(&plan), 64 << 30);
    let with = BlockIteration::plan(&p, &plan)
        .capacity(64 << 30)
        .planning_ns(123_456)
        .run();
    assert_eq!(
        with.report.time.total_ns(),
        without.report.time.total_ns() + 123_456
    );
}

#[test]
fn recorded_stream_folds_back_to_the_report() {
    let p = profile(128);
    let plan = CheckpointPlan::from_indices(p.blocks.len(), &[1, 3, 5]).unwrap();
    let capacity = 64usize << 30;
    let (run, events, stats) = BlockIteration::plan(&p, &plan)
        .capacity(capacity)
        .planning_ns(777)
        .run_recorded();
    assert!(run.report.ok());
    let f = fold_events(capacity, &events);
    assert_eq!(f.time, run.report.time);
    assert_eq!(f.peak_used, run.report.peak_bytes);
    assert_eq!(f.peak_frag, run.report.frag_bytes);
    assert_eq!(f.report_extent(), run.report.peak_extent);
    assert_eq!(f.allocs, stats.allocs);
    assert_eq!(f.frees, stats.frees);
    // Only the constant footprint (weights/grads/optimizer) and the batch
    // survive to iteration end; every activation was freed.
    let expected_live =
        mimose_runtime::align_up(p.const_bytes) + mimose_runtime::align_up(p.input_bytes);
    assert_eq!(f.live_bytes, expected_live);
}
