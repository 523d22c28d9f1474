//! Property tests for the OOM-recovery ladder.
//!
//! The ladder's contract is structural, not scenario-specific: whatever
//! faults are injected it must terminate, stay within its configured rung
//! bounds, produce a chain the audit linter accepts, and behave
//! deterministically for a given seed. These tests throw hundreds of
//! randomized fault schedules at the engine-level driver to check exactly
//! that, then close with an end-to-end run through a session and the
//! Mimose policy showing the acceptance scenario: an injected estimator
//! under-prediction that is fatal without the ladder completes with it.

use mimose_audit::{lint_recovery_trace, Severity};
use mimose_chaos::{FaultInjector, FaultSpec, IterationFaults};
use mimose_exec::{BlockIteration, BlockRun, RecoveryConfig, Session};
use mimose_exp::experiments::chaos::{clean_reference, scenario_spec, ChaosOptions, Scenario};
use mimose_exp::tasks::Task;
use mimose_models::builders::{bert_base, BertHead};
use mimose_models::{ModelInput, ModelProfile};
use mimose_planner::memory_model::peak_bytes;
use mimose_planner::{CheckpointPlan, RecoveryRung};
use mimose_rng::{Rng, SeedableRng, StdRng};
use mimose_simgpu::DeviceProfile;

fn profiles() -> Vec<ModelProfile> {
    let model = bert_base(BertHead::Classification { labels: 2 });
    [(8, 64), (16, 128), (8, 192)]
        .iter()
        .map(|&(batch, seq)| model.profile(&ModelInput::tokens(batch, seq)).unwrap())
        .collect()
}

/// Draw a random but structurally valid ladder configuration.
fn random_config(rng: &mut StdRng) -> RecoveryConfig {
    RecoveryConfig {
        compact: rng.gen::<f64>() < 0.8,
        demote: rng.gen::<f64>() < 0.8,
        max_restarts: rng.gen_range(0..4usize),
        shrink_factor: rng.gen_range(0.55..0.95),
        max_inline_events: rng.gen_range(4..32usize),
        fallback: rng.gen::<f64>() < 0.85,
    }
}

/// Draw a random fault schedule through the deterministic injector, so the
/// property suite also exercises the chaos layer's channel derivation.
fn random_faults(rng: &mut StdRng, iter: usize) -> IterationFaults {
    let spec = FaultSpec {
        alloc_failure_rate: if rng.gen::<f64>() < 0.6 { 1.0 } else { 0.0 },
        alloc_failures_per_iter: rng.gen_range(1..5usize),
        alloc_failure_span: rng.gen_range(8..96u64),
        recompute_spike_rate: if rng.gen::<f64>() < 0.4 { 1.0 } else { 0.0 },
        recompute_spike_factor: rng.gen_range(1.0..4.0),
        ..FaultSpec::none(rng.gen::<u64>())
    };
    FaultInjector::new(spec).iteration_faults(iter)
}

struct Trial {
    profile_idx: usize,
    plan: CheckpointPlan,
    shuttle: bool,
    capacity: usize,
    cfg: RecoveryConfig,
    faults: IterationFaults,
    iter: usize,
}

fn random_trial(rng: &mut StdRng, profiles: &[ModelProfile]) -> Trial {
    let profile_idx = rng.gen_range(0..profiles.len());
    let p = &profiles[profile_idx];
    let n = p.blocks.len();
    let mut plan = CheckpointPlan::none(n);
    let density = rng.gen::<f64>();
    for i in 0..n {
        if rng.gen::<f64>() < density {
            plan.set(i, true);
        }
    }
    let floor = peak_bytes(p, &CheckpointPlan::all(n));
    let roof = peak_bytes(p, &CheckpointPlan::none(n));
    // From hopeless (below even the full-checkpoint floor) to comfortable:
    // fatal outcomes are in scope — the property is termination and
    // discipline, not success.
    let capacity = rng
        .gen_range(floor / 2..roof + roof / 4)
        .next_multiple_of(512);
    let iter = rng.gen_range(0..64usize);
    Trial {
        profile_idx,
        plan,
        shuttle: rng.gen::<f64>() < 0.1,
        capacity,
        cfg: random_config(rng),
        faults: random_faults(rng, iter),
        iter,
    }
}

fn run_trial(t: &Trial, profiles: &[ModelProfile], dev: &DeviceProfile) -> BlockRun {
    let p = &profiles[t.profile_idx];
    let it = if t.shuttle {
        BlockIteration::shuttle(p)
    } else {
        BlockIteration::plan(p, &t.plan)
    };
    it.device(dev)
        .capacity(t.capacity)
        .iter(t.iter)
        .recovery(&t.cfg)
        .faults(&t.faults)
        .run()
}

#[test]
fn ladder_terminates_with_bounded_linted_chains_on_randomized_schedules() {
    let profiles = profiles();
    let dev = DeviceProfile::v100();
    let mut rng = StdRng::seed_from_u64(0x1adde2);
    let mut recovered = 0usize;
    let mut fatal = 0usize;
    for trial_no in 0..520 {
        let t = random_trial(&mut rng, &profiles);
        let run = run_trial(&t, &profiles, &dev);
        let events = &run.report.recovery;

        // Bounded escalation: each attempt holds at most the inline cap
        // plus its closing escalation, and there are at most
        // 1 + max_restarts + 1 (fallback) attempts.
        let attempts = 2 + t.cfg.max_restarts;
        let bound = attempts * (t.cfg.max_inline_events + 1);
        assert!(
            events.len() <= bound,
            "trial {trial_no}: {} events exceeds bound {bound} ({:?})",
            events.len(),
            t.cfg
        );
        let restarts = events
            .iter()
            .filter(|e| e.rung == RecoveryRung::Restart)
            .count();
        assert!(
            restarts <= t.cfg.max_restarts,
            "trial {trial_no}: {restarts} restarts > {}",
            t.cfg.max_restarts
        );
        let fallbacks = events
            .iter()
            .filter(|e| e.rung == RecoveryRung::Fallback)
            .count();
        assert!(fallbacks <= 1, "trial {trial_no}: {fallbacks} fallbacks");

        // Whatever happened, the chain must satisfy the audit linter.
        let diags = lint_recovery_trace(events, t.cfg.max_restarts, t.cfg.max_inline_events);
        let errs: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errs.is_empty(),
            "trial {trial_no}: lint errors {errs:?} on {events:#?}"
        );

        // A fatal report still carries the remedies it tried.
        if run.report.ok() {
            if !events.is_empty() {
                recovered += 1;
            }
        } else {
            fatal += 1;
        }
    }
    // The schedule space must actually cover both regimes, otherwise the
    // assertions above are vacuous.
    assert!(
        recovered > 50,
        "only {recovered} recovered trials — schedules too tame"
    );
    assert!(fatal > 20, "only {fatal} fatal trials — schedules too soft");
}

#[test]
fn ladder_is_deterministic_for_a_given_schedule() {
    let profiles = profiles();
    let dev = DeviceProfile::v100();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..60 {
        let t = random_trial(&mut rng, &profiles);
        let a = run_trial(&t, &profiles, &dev);
        let b = run_trial(&t, &profiles, &dev);
        assert_eq!(a.report.recovery, b.report.recovery);
        assert_eq!(a.report.time.total_ns(), b.report.time.total_ns());
        assert_eq!(a.report.peak_bytes, b.report.peak_bytes);
        assert_eq!(a.report.oom.is_some(), b.report.oom.is_some());
    }
}

#[test]
fn happy_path_is_byte_identical_under_recovery_harness() {
    let profiles = profiles();
    let mut rng = StdRng::seed_from_u64(0xfeed);
    let cfg = RecoveryConfig::default();
    for _ in 0..50 {
        let t = random_trial(&mut rng, &profiles);
        let p = &profiles[t.profile_idx];
        // Generous capacity and no faults: the harness must be invisible.
        let capacity = peak_bytes(p, &CheckpointPlan::none(p.blocks.len())) * 2;
        let plain = BlockIteration::plan(p, &t.plan)
            .capacity(capacity)
            .iter(t.iter)
            .planning_ns(7)
            .run();
        let guarded = BlockIteration::plan(p, &t.plan)
            .capacity(capacity)
            .iter(t.iter)
            .planning_ns(7)
            .recovery(&cfg)
            .run();
        assert!(guarded.report.recovery.is_empty());
        assert_eq!(plain.report.time.total_ns(), guarded.report.time.total_ns());
        assert_eq!(plain.report.peak_bytes, guarded.report.peak_bytes);
        assert_eq!(plain.report.peak_extent, guarded.report.peak_extent);
        assert_eq!(plain.report.frag_bytes, guarded.report.frag_bytes);
        assert_eq!(plain.report.dropped_units, guarded.report.dropped_units);
    }
}

#[test]
fn spurious_failures_are_absorbed_by_coalesce_retry() {
    let profiles = profiles();
    let p = &profiles[1];
    let dev = DeviceProfile::v100();
    let n = p.blocks.len();
    let plan = CheckpointPlan::none(n);
    let capacity = peak_bytes(p, &plan) * 2;
    let cfg = RecoveryConfig::default();
    let faults = IterationFaults {
        fail_allocs: vec![3, 17, 40],
        ..IterationFaults::identity()
    };
    let run = BlockIteration::plan(p, &plan)
        .device(&dev)
        .capacity(capacity)
        .recovery(&cfg)
        .faults(&faults)
        .run();
    assert!(run.report.ok(), "{:?}", run.report.oom);
    assert_eq!(run.report.recovery.len(), 3);
    assert!(run
        .report
        .recovery
        .iter()
        .all(|e| e.rung == RecoveryRung::CoalesceRetry));
    assert!(
        run.report.time.recovery_ns > 0,
        "compaction copies must be charged"
    );
}

/// End-to-end acceptance scenario: an estimator that under-predicts by ~2x
/// on a squeezed device is fatal without the ladder and fully recovered
/// with it, with linted recovery chains and virtual-clock attribution.
#[test]
fn e2e_estimator_under_prediction_is_fatal_without_ladder_and_recovered_with_it() {
    let task = Task::tc_bert();
    let opt = ChaosOptions {
        iters: 60,
        ..ChaosOptions::default()
    };
    let clean = clean_reference(&task, &opt);
    let (spec, estimate_scale) = scenario_spec(Scenario::EstimatorUnder, &task, &opt, &clean);
    assert!(spec.capacity_shrink.is_some() && estimate_scale < 1.0);

    let make_policy = |scale: f64| {
        let mut cfg = mimose_core::MimoseConfig::with_budget(opt.budget_bytes);
        cfg.estimate_scale = scale;
        mimose_core::MimosePolicy::new(cfg)
    };

    // Without the ladder the faults are fatal.
    let bare_reports = Session::builder(&task.model, &task.dataset)
        .policy(make_policy(estimate_scale))
        .seed(opt.seed)
        .chaos(FaultInjector::new(spec.clone()))
        .build()
        .and_then(|mut session| session.run(opt.iters))
        .unwrap();
    let bare_fatal = bare_reports.iter().filter(|r| !r.ok()).count();
    assert!(bare_fatal > 0, "scenario must be fatal without recovery");

    // With the ladder every iteration completes.
    let recovery = RecoveryConfig::default();
    let reports = Session::builder(&task.model, &task.dataset)
        .policy(make_policy(estimate_scale))
        .seed(opt.seed)
        .recovery(recovery.clone())
        .chaos(FaultInjector::new(spec))
        .build()
        .and_then(|mut session| session.run(opt.iters))
        .unwrap();

    let fatal = reports.iter().filter(|r| !r.ok()).count();
    assert_eq!(fatal, 0, "ladder must rescue every injected OOM");
    let recovered = reports.iter().filter(|r| r.recovered()).count();
    assert!(recovered > 0, "the squeeze must actually bite");
    for r in &reports {
        let diags = lint_recovery_trace(
            &r.recovery,
            recovery.max_restarts,
            recovery.max_inline_events,
        );
        assert!(
            !mimose_audit::has_errors(&diags),
            "iter {}: {diags:?}",
            r.iter
        );
        // Clock attribution: escalations charge the aborted attempt.
        if r.recovery
            .iter()
            .any(|e| matches!(e.rung, RecoveryRung::Restart | RecoveryRung::Fallback))
        {
            assert!(
                r.time.recovery_ns > 0,
                "iter {}: escalation without cost",
                r.iter
            );
        }
    }
}
