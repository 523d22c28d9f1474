//! Behavioural tests of the DTR tensor engine, driven through the public
//! API only.

use mimose_exec::DtrIteration;
use mimose_models::builders::{roberta_base, BertHead};
use mimose_models::{ModelInput, ModelProfile};
use mimose_runtime::{fold_events, IterationReport};
use mimose_simgpu::DeviceProfile;

fn profile(seq: usize) -> ModelProfile {
    roberta_base(BertHead::Classification { labels: 1 })
        .profile(&ModelInput::tokens(64, seq))
        .unwrap()
}

/// One DTR iteration on a V100 cost model in a 16 GiB arena.
fn run(p: &ModelProfile, budget: usize) -> IterationReport {
    DtrIteration::new(p, budget).capacity(16 << 30).run()
}

#[test]
fn loose_budget_needs_no_evictions() {
    let p = profile(100);
    let r = run(&p, 14 << 30);
    assert!(r.ok());
    assert_eq!(r.dropped_units, 0);
    assert_eq!(r.time.recompute_ns, 0);
}

#[test]
fn tight_budget_evicts_and_recomputes() {
    let p = profile(128);
    let loose = run(&p, 14 << 30);
    let tight = run(&p, 5 << 30);
    assert!(tight.ok(), "tight run OOMed: {:?}", tight.oom);
    assert!(tight.dropped_units > 0);
    assert!(tight.time.recompute_ns > 0);
    assert!(tight.time.total_ns() > loose.time.total_ns());
    // Logical usage respects the budget.
    assert!(tight.peak_bytes <= 5 << 30);
}

#[test]
fn bookkeeping_overhead_exists_even_without_evictions() {
    // §III-B: "such overhead exists even without any activation tensor
    // dropped".
    let p = profile(80);
    let r = run(&p, 14 << 30);
    assert!(r.time.bookkeeping_ns > 0);
    let frac = r.time.bookkeeping_ns as f64 / r.time.total_ns() as f64;
    assert!(frac > 0.05, "bookkeeping fraction too small: {frac}");
}

#[test]
fn infeasible_budget_reports_oom() {
    let p = profile(128);
    let r = run(&p, 1 << 30);
    assert!(!r.ok());
}

#[test]
fn metadata_charge_is_uniform_across_every_slot_touch() {
    // §III-B: DTR maintains per-tensor runtime metadata on *every* slot
    // touch — creation, access (hit or miss in the backward pass) and
    // eviction — not only on the touches that happen to hit a resident
    // tensor. This pins the charge accounting exactly: each slot is touched
    // once at creation and once by its backward materialisation, and every
    // eviction adds one more.
    let p = profile(128);
    let meta = DeviceProfile::v100().dtr_meta_ns_per_tensor as u64;
    let total_slots: usize = p.blocks.iter().map(|b| b.tensors.len() + 1).sum();

    let loose = run(&p, 14 << 30);
    assert_eq!(loose.dropped_units, 0);
    assert_eq!(
        loose.time.bookkeeping_ns,
        meta * 2 * total_slots as u64,
        "creation + backward access, uniformly charged"
    );

    let tight = run(&p, 5 << 30);
    assert!(tight.dropped_units > 0);
    assert_eq!(
        tight.time.bookkeeping_ns,
        meta * (2 * total_slots + tight.dropped_units) as u64,
        "each eviction is one extra metadata touch"
    );
}

#[test]
fn recorded_stream_folds_back_to_the_report() {
    let p = profile(100);
    let capacity = 16usize << 30;
    let (report, events, stats) = DtrIteration::new(&p, 6 << 30)
        .capacity(capacity)
        .run_recorded();
    assert!(report.ok());
    let f = fold_events(capacity, &events);
    assert_eq!(f.time, report.time);
    assert_eq!(f.peak_used, report.peak_bytes);
    assert_eq!(f.report_extent(), report.peak_extent);
    assert_eq!(f.allocs, stats.allocs);
    assert_eq!(f.frees, stats.frees);
}
