//! Planner/executor cross-validation ("shadow checking").
//!
//! The analytic memory model in `mimose-planner` and the engines in this
//! crate walk the same allocation timeline by construction — but nothing
//! used to *enforce* that beyond a handful of peak comparisons in tests.
//! The shadow checkers close the gap, and since the engines narrate every
//! action as an [`ExecEvent`], they are plain [`Recorder`]s teed into the
//! stream: they fold `Alloc`/`Free` into a live-byte count, compare it to
//! the model's predicted residency
//! ([`mimose_planner::memory_model::resident_curve`]) at every `Boundary`
//! event, rebase on `PlanApplied` (mid-iteration demotion), and fail fast
//! with a precise diff when engine and model disagree.
//!
//! Enabled by default in debug builds (`debug_assertions`); override either
//! way with the `MIMOSE_SHADOW_CHECK` environment variable (`1`/`0`). The
//! check is skipped entirely in release builds unless opted in, so the hot
//! experiment paths pay nothing.

use mimose_models::ModelProfile;
use mimose_planner::memory_model::resident_curve;
use mimose_planner::CheckpointPlan;
use mimose_runtime::{align_up, ExecEvent, Recorder};
use std::sync::OnceLock;

/// Whether shadow checking is active for this process.
///
/// `MIMOSE_SHADOW_CHECK=1` (or any value other than `0`/`off`/`false`)
/// forces it on, `MIMOSE_SHADOW_CHECK=0` forces it off; otherwise it
/// follows `cfg!(debug_assertions)`. Cached after the first call.
pub fn shadow_check_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("MIMOSE_SHADOW_CHECK") {
        Ok(v) => {
            !(v.is_empty()
                || v == "0"
                || v.eq_ignore_ascii_case("off")
                || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => cfg!(debug_assertions),
    })
}

/// The site label a boundary event checks under.
fn site_of(phase: &str, index: Option<usize>) -> String {
    match index {
        Some(i) => format!("{phase} block {i}"),
        None => phase.to_string(),
    }
}

/// Compares the block engine's live bytes against the analytic
/// [`resident_curve`] at successive block boundaries, fed purely from the
/// event stream.
///
/// The model works in logical (profile) bytes while the arena rounds the
/// constant footprint and input tensor up to the arena granule; the checker
/// shifts the curve by exactly that slack, so the comparison is *exact* —
/// per-block tensor sizes are pre-aligned in the profile.
pub struct ShadowChecker<'p> {
    profile: &'p ModelProfile,
    curve: Vec<usize>,
    /// Aligned-base minus logical-base correction applied to every point.
    base_slack: usize,
    cursor: usize,
    live_bytes: usize,
}

impl<'p> ShadowChecker<'p> {
    /// Build a checker for one iteration of `profile` under `plan`.
    #[must_use]
    pub fn new(profile: &'p ModelProfile, plan: &CheckpointPlan) -> Self {
        let logical = profile.const_bytes + profile.input_bytes;
        let aligned = align_up(profile.const_bytes) + align_up(profile.input_bytes);
        ShadowChecker {
            profile,
            curve: resident_curve(profile, plan),
            base_slack: aligned - logical,
            cursor: 0,
            live_bytes: 0,
        }
    }

    /// Assert the stream-folded live bytes agree with the model at the next
    /// boundary.
    ///
    /// # Panics
    /// Panics with a detailed diff when the engine's live bytes diverge
    /// from the model's prediction — that is a planner/executor drift bug,
    /// not a recoverable condition.
    fn check(&mut self, site: &str) {
        let expected = self.curve[self.cursor] + self.base_slack;
        let actual = self.live_bytes;
        assert!(
            expected == actual,
            "shadow check failed at {site} (boundary {} of {}): \
             engine has {actual} B live, memory model predicts {expected} B \
             (diff {:+} B) — the planner and executor timelines have diverged",
            self.cursor,
            self.curve.len(),
            actual as i64 - expected as i64,
        );
        self.cursor += 1;
    }
}

impl Recorder for ShadowChecker<'_> {
    fn record(&mut self, ev: ExecEvent) {
        match &ev {
            ExecEvent::Alloc { size, .. } => self.live_bytes += size,
            ExecEvent::Free { size, .. } => self.live_bytes -= size,
            // The recovery ladder's demotion rung mutates the plan while the
            // iteration runs: a demoted-executed block has its internals
            // evicted, which is indistinguishable *at the next boundary*
            // from having been checkpointed from the start. Rebasing onto
            // the post-demotion plan (carried by the event) keeps the
            // cross-validation exact for the rest of the iteration.
            ExecEvent::PlanApplied { plan } => {
                self.curve = resident_curve(self.profile, plan);
            }
            ExecEvent::Boundary { phase, index, .. } => {
                let site = site_of(phase, *index);
                self.check(&site);
            }
            _ => {}
        }
    }
}

/// DTR-engine residency cross-check: the slot table's notion of live bytes
/// must match the arena exactly, and logical usage must respect the budget.
///
/// `arena_live_bytes` is the stream-folded (= arena's) live count;
/// `live_slot_bytes` is the engine-side slot-table total.
///
/// # Panics
/// Panics on divergence (slot-table/arena leak) or a budget breach.
pub fn check_dtr_residency(
    arena_live_bytes: usize,
    live_slot_bytes: usize,
    const_bytes: usize,
    input_bytes: usize,
    budget: usize,
    site: &str,
) {
    let expected = align_up(const_bytes) + align_up(input_bytes) + live_slot_bytes;
    let actual = arena_live_bytes;
    assert!(
        expected == actual,
        "DTR shadow check failed at {site}: arena has {actual} B live but the \
         slot table accounts for {expected} B (diff {:+} B) — a slot free or \
         rematerialisation was not mirrored in the arena",
        actual as i64 - expected as i64,
    );
    assert!(
        actual <= budget,
        "DTR shadow check failed at {site}: {actual} B live exceeds the \
         logical budget of {budget} B",
    );
}

/// The DTR engine's shadow checker: folds the stream's `Alloc`/`Free` into
/// the arena-side live count and, at every `Boundary` that carries a
/// `live_hint` (the slot table's total), runs [`check_dtr_residency`].
pub struct DtrShadow {
    const_bytes: usize,
    input_bytes: usize,
    budget: usize,
    live_bytes: usize,
}

impl DtrShadow {
    /// Checker for one DTR iteration under `budget` logical bytes.
    #[must_use]
    pub fn new(const_bytes: usize, input_bytes: usize, budget: usize) -> Self {
        DtrShadow {
            const_bytes,
            input_bytes,
            budget,
            live_bytes: 0,
        }
    }
}

impl Recorder for DtrShadow {
    fn record(&mut self, ev: ExecEvent) {
        match &ev {
            ExecEvent::Alloc { size, .. } => self.live_bytes += size,
            ExecEvent::Free { size, .. } => self.live_bytes -= size,
            ExecEvent::Boundary {
                phase,
                index,
                live_hint: Some(slot_bytes),
            } => {
                let site = site_of(phase, *index);
                check_dtr_residency(
                    self.live_bytes,
                    *slot_bytes,
                    self.const_bytes,
                    self.input_bytes,
                    self.budget,
                    &site,
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_models::ModelInput;
    use mimose_simgpu::AllocId;

    /// Feed an alloc/free pair of events with arena-aligned sizes; the
    /// checkers only read sizes, so offsets and ids can be synthetic.
    fn ev_alloc(raw: u64, bytes: usize) -> ExecEvent {
        ExecEvent::Alloc {
            id: AllocId::from_raw(raw),
            offset: 0,
            size: align_up(bytes),
            requested: bytes,
            phase: "forward",
        }
    }

    fn ev_free(raw: u64, bytes: usize) -> ExecEvent {
        ExecEvent::Free {
            id: AllocId::from_raw(raw),
            offset: 0,
            size: align_up(bytes),
        }
    }

    fn boundary(phase: &'static str, index: Option<usize>) -> ExecEvent {
        ExecEvent::Boundary {
            phase,
            index,
            live_hint: None,
        }
    }

    #[test]
    fn checker_walks_a_consistent_timeline() {
        let p = bert_base(BertHead::Classification { labels: 2 })
            .profile(&ModelInput::tokens(8, 64))
            .unwrap();
        let n = p.blocks.len();
        let plan = CheckpointPlan::all(n);
        let mut checker = ShadowChecker::new(&p, &plan);
        let mut next_id = 0u64;
        let mut id = |bytes: usize| {
            next_id += 1;
            (next_id, bytes)
        };
        let (cid, cbytes) = id(p.const_bytes);
        let (iid, ibytes) = id(p.input_bytes);
        checker.record(ev_alloc(cid, cbytes));
        checker.record(ev_alloc(iid, ibytes));
        checker.record(boundary("init", None));
        // Forward: checkpointed blocks retain only their output.
        let mut outs = Vec::new();
        for (i, b) in p.blocks.iter().enumerate() {
            let (oid, obytes) = id(b.out_bytes);
            outs.push((oid, obytes));
            checker.record(ev_alloc(oid, obytes));
            checker.record(boundary("forward", Some(i)));
        }
        // Backward: recompute internals, free them + output.
        for (i, b) in p.blocks.iter().enumerate().rev() {
            let acts: Vec<_> = b.tensors.iter().map(|t| id(t.bytes)).collect();
            for &(aid, abytes) in &acts {
                checker.record(ev_alloc(aid, abytes));
            }
            for (aid, abytes) in acts {
                checker.record(ev_free(aid, abytes));
            }
            let (oid, obytes) = outs.pop().unwrap();
            checker.record(ev_free(oid, obytes));
            checker.record(boundary("backward", Some(i)));
        }
        checker.record(ev_free(cid, cbytes));
        checker.record(ev_free(iid, ibytes));
        assert_eq!(checker.live_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "shadow check failed")]
    fn checker_catches_a_leak() {
        let p = bert_base(BertHead::Classification { labels: 2 })
            .profile(&ModelInput::tokens(8, 64))
            .unwrap();
        let plan = CheckpointPlan::none(p.blocks.len());
        let mut checker = ShadowChecker::new(&p, &plan);
        checker.record(ev_alloc(1, p.const_bytes));
        checker.record(ev_alloc(2, p.input_bytes));
        checker.record(boundary("init", None));
        // A stray allocation the model knows nothing about.
        checker.record(ev_alloc(3, 123 << 20));
        let b = &p.blocks[0];
        for (k, t) in b.tensors.iter().enumerate() {
            checker.record(ev_alloc(10 + k as u64, t.bytes));
        }
        checker.record(ev_alloc(99, b.out_bytes));
        checker.record(boundary("forward", Some(0)));
    }

    #[test]
    fn dtr_check_accepts_consistent_state() {
        // 1000 and 2000 round up to one and two granules; the 4096 B slot is
        // already aligned.
        let live = align_up(1000) + align_up(2000) + 4096;
        check_dtr_residency(live, 4096, 1000, 2000, 1 << 30, "test");
    }

    #[test]
    #[should_panic(expected = "exceeds the logical budget")]
    fn dtr_check_catches_budget_breach() {
        let live = align_up(1000) + align_up(2000) + (1 << 20);
        check_dtr_residency(live, 1 << 20, 1000, 2000, 4096, "test");
    }

    #[test]
    #[should_panic(expected = "slot free or")]
    fn dtr_shadow_recorder_catches_slot_table_drift() {
        let mut shadow = DtrShadow::new(1000, 2000, 1 << 30);
        shadow.record(ev_alloc(1, 1000));
        shadow.record(ev_alloc(2, 2000));
        shadow.record(ev_alloc(3, 4096));
        // Slot table claims 8192 B live but the stream only carried 4096.
        shadow.record(ExecEvent::Boundary {
            phase: "end-of-forward",
            index: None,
            live_hint: Some(8192),
        });
    }
}
