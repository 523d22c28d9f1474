//! End-to-end: record real engine runs and push their event streams
//! through the stream auditor. These tests are that pipeline's only home:
//! `cargo test --workspace` runs them in debug, shadow checkers on.

use mimose_audit::{audit_exec_events, has_errors};
use mimose_exec::{BlockIteration, DtrIteration};
use mimose_models::builders::{bert_base, BertHead};
use mimose_models::{ModelInput, ModelProfile};
use mimose_planner::CheckpointPlan;
use mimose_simgpu::DeviceProfile;

fn profile(seq: usize) -> ModelProfile {
    bert_base(BertHead::Classification { labels: 2 })
        .profile(&ModelInput::tokens(32, seq))
        .unwrap()
}

#[test]
fn recorded_block_run_audits_clean() {
    let p = profile(128);
    let dev = DeviceProfile::v100();
    let plan = CheckpointPlan::from_indices(p.blocks.len(), &[1, 3, 5]).unwrap();
    let capacity = 64usize << 30;
    let (run, events, stats) = BlockIteration::plan(&p, &plan)
        .device(&dev)
        .capacity(capacity)
        .planning_ns(1000)
        .run_recorded();
    assert!(run.report.ok());
    let diags = audit_exec_events(capacity, &events, Some(&stats));
    assert!(!has_errors(&diags), "stream audit found errors: {diags:?}");
}

#[test]
fn recorded_dtr_run_audits_clean() {
    let p = profile(100);
    let dev = DeviceProfile::v100();
    let capacity = 16usize << 30;
    let (report, events, stats) = DtrIteration::new(&p, 6 << 30)
        .device(&dev)
        .capacity(capacity)
        .run_recorded();
    assert!(report.ok());
    let diags = audit_exec_events(capacity, &events, Some(&stats));
    assert!(!has_errors(&diags), "stream audit found errors: {diags:?}");
}

#[test]
fn corrupted_stream_is_caught() {
    use mimose_runtime::ExecEvent;
    let p = profile(64);
    let dev = DeviceProfile::v100();
    let capacity = 64usize << 30;
    let plan = CheckpointPlan::none(p.blocks.len());
    let (_, mut events, _) = BlockIteration::plan(&p, &plan)
        .device(&dev)
        .capacity(capacity)
        .run_recorded();
    // Duplicate the first Free event: a double-free the shadow must flag.
    let free = events
        .iter()
        .find(|e| matches!(e, ExecEvent::Free { .. }))
        .expect("stream has frees")
        .clone();
    events.push(free);
    let diags = audit_exec_events(capacity, &events, None);
    assert!(has_errors(&diags), "double-free must be flagged");
}
