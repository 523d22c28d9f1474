//! The traced round's instruments: an in-memory span store, and
//! [`TimedPolicy`], which times every call the executor makes into the
//! Mimose policy. Spans are taken only in this benchmark's code, around
//! calls into the workspace's public functions; nothing inside the program
//! is changed.

use mimose_cluster::DeterministicMimose;
use mimose_core::Phase;
use mimose_models::ModelProfile;
use mimose_planner::{Directive, IterationObservation, MemoryPolicy, PlanTierStats, PlannerMeta};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span durations (ns) by name, in call order.
#[derive(Debug, Default, Clone)]
pub struct SpanStore {
    spans: BTreeMap<&'static str, Vec<u64>>,
}

impl SpanStore {
    pub fn record(&mut self, name: &'static str, ns: u64) {
        self.spans.entry(name).or_default().push(ns);
    }

    /// Every duration of `name`, in call order.
    pub fn get(&self, name: &str) -> &[u64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn total(&self, name: &str) -> u64 {
        self.get(name).iter().sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.get(name).len()
    }

    pub fn p(&self, name: &str, pct: f64) -> u64 {
        crate::stats::percentile(self.get(name), pct)
    }

    pub fn max(&self, name: &str) -> u64 {
        self.get(name).iter().copied().max().unwrap_or(0)
    }
}

/// A [`SpanStore`] shared between the round loop and the policy the
/// session owns (sessions take their policy by value and must be `Send`).
#[derive(Clone, Default)]
pub struct Spans(Arc<Mutex<SpanStore>>);

impl Spans {
    pub fn record(&self, name: &'static str, ns: u64) {
        self.0.lock().expect("span store poisoned").record(name, ns);
    }

    /// Run `f`, recording its duration under `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, elapsed_ns(t0));
        out
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> SpanStore {
        self.0.lock().expect("span store poisoned").clone()
    }
}

pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Plan-ladder rung a `begin_iteration` call was served by.
pub const TIERS: [&str; 5] = [
    "core.shuttle",
    "core.certified_hit",
    "core.cache_hit",
    "core.repair",
    "core.cold_solve",
];

/// Which rung served a call, from the ladder counters before and after it
/// and the directive it returned. `None` when no counter moved and the
/// directive was not a shuttle (which the Mimose ladder never does).
fn tier(
    before: PlanTierStats,
    after: PlanTierStats,
    directive: &Directive,
) -> Option<&'static str> {
    if after.cold_solves > before.cold_solves {
        Some("core.cold_solve")
    } else if after.repaired_plans > before.repaired_plans {
        Some("core.repair")
    } else if after.cache_hits > before.cache_hits {
        Some("core.cache_hit")
    } else if after.certified_hits > before.certified_hits {
        Some("core.certified_hit")
    } else if matches!(directive, Directive::Shuttle(_)) {
        Some("core.shuttle")
    } else {
        None
    }
}

/// Forwards every [`MemoryPolicy`] call to the wrapped
/// [`DeterministicMimose`] and records:
///
/// - `core.plan`: every `begin_iteration`, plus the same duration under the
///   rung that served it (one of [`TIERS`], or `core.unclassified`);
/// - `core.observe`: every `end_iteration`, plus `estimator.fit` for the
///   call in which the policy left its sheltered phase (the estimator is
///   fitted inside that call).
///
/// The wrapped policy sees exactly the calls it would see unwrapped, so a
/// traced run's simulated output is identical to an untraced one's.
pub struct TimedPolicy {
    inner: DeterministicMimose,
    spans: Spans,
}

impl TimedPolicy {
    pub fn new(inner: DeterministicMimose, spans: Spans) -> Self {
        TimedPolicy { inner, spans }
    }
}

impl MemoryPolicy for TimedPolicy {
    fn meta(&self) -> PlannerMeta {
        self.inner.meta()
    }

    fn budget_bytes(&self) -> usize {
        self.inner.budget_bytes()
    }

    fn begin_iteration(&mut self, iter: usize, profile: &ModelProfile) -> Directive {
        let before = self.inner.plan_tier_stats().unwrap_or_default();
        let t0 = Instant::now();
        let directive = self.inner.begin_iteration(iter, profile);
        let ns = elapsed_ns(t0);
        let after = self.inner.plan_tier_stats().unwrap_or_default();
        self.spans.record("core.plan", ns);
        let rung = tier(before, after, &directive).unwrap_or("core.unclassified");
        self.spans.record(rung, ns);
        directive
    }

    fn end_iteration(&mut self, obs: &IterationObservation) {
        let sheltered = self.inner.inner().phase() == Phase::Sheltered;
        let t0 = Instant::now();
        self.inner.end_iteration(obs);
        let ns = elapsed_ns(t0);
        self.spans.record("core.observe", ns);
        if sheltered && self.inner.inner().phase() == Phase::Responsive {
            self.spans.record("estimator.fit", ns);
        }
    }

    fn last_plan_overhead_ns(&self) -> u64 {
        self.inner.last_plan_overhead_ns()
    }

    fn predicted_peak_bytes(&self, profile: &ModelProfile) -> Option<usize> {
        self.inner.predicted_peak_bytes(profile)
    }

    fn plan_tier_stats(&self) -> Option<PlanTierStats> {
        self.inner.plan_tier_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_follow_the_counter_that_moved() {
        let base = PlanTierStats::default();
        let run = Directive::DtrDynamic;
        let bump = |f: fn(&mut PlanTierStats)| {
            let mut s = base;
            f(&mut s);
            s
        };
        assert_eq!(
            tier(base, bump(|s| s.cold_solves += 1), &run),
            Some("core.cold_solve")
        );
        assert_eq!(
            tier(base, bump(|s| s.repaired_plans += 1), &run),
            Some("core.repair")
        );
        assert_eq!(
            tier(base, bump(|s| s.cache_hits += 1), &run),
            Some("core.cache_hit")
        );
        assert_eq!(
            tier(base, bump(|s| s.certified_hits += 1), &run),
            Some("core.certified_hit")
        );
        let shuttle = Directive::Shuttle(mimose_planner::CheckpointPlan::all(2));
        assert_eq!(tier(base, base, &shuttle), Some("core.shuttle"));
        assert_eq!(tier(base, base, &run), None);
    }

    #[test]
    fn store_orders_and_sums() {
        let spans = Spans::default();
        spans.record("a", 3);
        spans.record("a", 1);
        let v = spans.time("b", || 7);
        assert_eq!(v, 7);
        let s = spans.snapshot();
        assert_eq!(s.get("a"), &[3, 1]);
        assert_eq!(s.total("a"), 4);
        assert_eq!(s.count("b"), 1);
        assert_eq!(s.count("missing"), 0);
        assert_eq!(s.max("a"), 3);
    }
}
