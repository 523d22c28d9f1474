//! Adaptive extensions to the base Mimose policy.
//!
//! Two mechanisms beyond the paper's evaluated configuration, both in the
//! spirit of its discussion sections:
//!
//! * **Adaptive re-collection** (§IV-B: the collector cost is `O(n/N)` when
//!   shuttling only "when meeting new input size"): in responsive execution,
//!   an input far outside the fitted support triggers one more shuttle
//!   iteration and a refit, instead of trusting polynomial extrapolation.
//! * **OOM feedback** (the safety companion to §VI-D's fragmentation
//!   reserve): if a planned iteration still overruns — an estimator
//!   under-prediction — the policy widens its safety margin and invalidates
//!   the plan cache, so the failure cannot repeat.

/// Configuration of the adaptive extensions.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Re-shuttle when the input size exceeds the fitted support by this
    /// factor (or falls below its inverse). 0 disables re-collection.
    pub recollect_beyond: f64,
    /// Extra bytes added to the reserve after each in-budget OOM.
    pub oom_backoff_bytes: usize,
    /// Upper bound on the accumulated backoff.
    pub max_backoff_bytes: usize,
    /// Floor on the multiplicative planning-budget scale accumulated from
    /// executor restart feedback (the recovery ladder's shrunk budgets).
    /// Guards against a pathological fault storm driving plans to
    /// all-checkpoint forever.
    pub min_plan_scale: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            recollect_beyond: 1.25,
            oom_backoff_bytes: 256 << 20,
            max_backoff_bytes: 2 << 30,
            min_plan_scale: 0.5,
        }
    }
}

/// Runtime state of the adaptive extensions.
#[derive(Debug, Clone)]
pub struct AdaptiveState {
    /// Extra reserve accumulated from OOM feedback.
    pub backoff_bytes: usize,
    /// Number of responsive-phase re-collections triggered.
    pub recollections: usize,
    /// Number of OOM-feedback events.
    pub oom_events: usize,
    /// Multiplicative scale on the planning budget, tightened whenever the
    /// executor's recovery ladder had to restart or fall back (its shrunk
    /// budget rescued the iteration, so future plans should assume it).
    pub plan_scale: f64,
    /// Number of budget-shrink feedback events absorbed.
    pub budget_shrinks: usize,
}

impl Default for AdaptiveState {
    fn default() -> Self {
        AdaptiveState {
            backoff_bytes: 0,
            recollections: 0,
            oom_events: 0,
            plan_scale: 1.0,
            budget_shrinks: 0,
        }
    }
}

impl AdaptiveState {
    /// Whether `input_size` lies outside the fitted support
    /// `[x_min, x_max]` by more than the configured factor.
    #[must_use]
    pub fn needs_recollect(
        &self,
        cfg: &AdaptiveConfig,
        input_size: f64,
        x_min: f64,
        x_max: f64,
    ) -> bool {
        if cfg.recollect_beyond <= 1.0 {
            return false;
        }
        input_size > x_max * cfg.recollect_beyond || input_size < x_min / cfg.recollect_beyond
    }

    /// Register an in-budget OOM; returns the new backoff.
    pub fn on_oom(&mut self, cfg: &AdaptiveConfig) -> usize {
        self.oom_events += 1;
        self.backoff_bytes =
            (self.backoff_bytes + cfg.oom_backoff_bytes).min(cfg.max_backoff_bytes);
        self.backoff_bytes
    }

    /// Absorb an executor restart/fallback's budget shrink (`factor` is the
    /// cumulative shrink the ladder needed to complete the iteration);
    /// returns the new plan scale, floored at `cfg.min_plan_scale`.
    pub fn on_budget_shrink(&mut self, cfg: &AdaptiveConfig, factor: f64) -> f64 {
        if factor > 0.0 && factor < 1.0 {
            self.budget_shrinks += 1;
            self.plan_scale = (self.plan_scale * factor).max(cfg.min_plan_scale);
        }
        self.plan_scale
    }

    /// Absorb an iteration's recovery-event chain. If the iteration only
    /// completed via a restart or fallback, the ladder's *cumulative* shrink
    /// (carried by the last such event) is what actually fit — adopt it for
    /// future plans. Returns `true` when the plan scale tightened, i.e. any
    /// cached plans generated under the wider budget are now suspect.
    pub fn absorb_recovery(
        &mut self,
        cfg: &AdaptiveConfig,
        events: &[mimose_planner::RecoveryEvent],
    ) -> bool {
        let escalated = events
            .iter()
            .rev()
            .find(|e| e.rung >= mimose_planner::RecoveryRung::Restart);
        match escalated {
            Some(e) => {
                self.on_budget_shrink(cfg, e.shrink_factor);
                true
            }
            None => false,
        }
    }

    /// Like [`AdaptiveState::absorb_recovery`], but feeding straight from a
    /// recorded executor event stream: the recovery events embedded in it
    /// are exactly what the report's chain would carry.
    pub fn absorb_exec_events(
        &mut self,
        cfg: &AdaptiveConfig,
        events: &[mimose_runtime::ExecEvent],
    ) -> bool {
        let recovery: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                mimose_runtime::ExecEvent::Recovery(r) => Some(r.as_ref().clone()),
                _ => None,
            })
            .collect();
        self.absorb_recovery(cfg, &recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recollect_only_outside_factor() {
        let cfg = AdaptiveConfig::default();
        let s = AdaptiveState::default();
        assert!(!s.needs_recollect(&cfg, 1_000.0, 500.0, 1_000.0));
        assert!(!s.needs_recollect(&cfg, 1_200.0, 500.0, 1_000.0)); // 1.2x < 1.25x
        assert!(s.needs_recollect(&cfg, 1_300.0, 500.0, 1_000.0));
        assert!(s.needs_recollect(&cfg, 300.0, 500.0, 1_000.0));
    }

    #[test]
    fn disabled_when_factor_not_above_one() {
        let cfg = AdaptiveConfig {
            recollect_beyond: 0.0,
            ..Default::default()
        };
        let s = AdaptiveState::default();
        assert!(!s.needs_recollect(&cfg, 1e12, 1.0, 2.0));
    }

    #[test]
    fn oom_backoff_accumulates_and_caps() {
        let cfg = AdaptiveConfig {
            oom_backoff_bytes: 1 << 30,
            max_backoff_bytes: 2 << 30,
            ..Default::default()
        };
        let mut s = AdaptiveState::default();
        assert_eq!(s.on_oom(&cfg), 1 << 30);
        assert_eq!(s.on_oom(&cfg), 2 << 30);
        assert_eq!(s.on_oom(&cfg), 2 << 30, "capped");
        assert_eq!(s.oom_events, 3);
    }

    #[test]
    fn budget_shrink_accumulates_and_floors() {
        let cfg = AdaptiveConfig {
            min_plan_scale: 0.5,
            ..Default::default()
        };
        let mut s = AdaptiveState::default();
        assert!((s.plan_scale - 1.0).abs() < 1e-12, "starts at identity");
        assert!((s.on_budget_shrink(&cfg, 0.85) - 0.85).abs() < 1e-12);
        assert!((s.on_budget_shrink(&cfg, 0.85) - 0.7225).abs() < 1e-12);
        // Keeps shrinking but never below the floor.
        for _ in 0..10 {
            s.on_budget_shrink(&cfg, 0.85);
        }
        assert!((s.plan_scale - 0.5).abs() < 1e-12);
        assert_eq!(s.budget_shrinks, 12);
        // Out-of-range factors are ignored.
        s.on_budget_shrink(&cfg, 1.5);
        s.on_budget_shrink(&cfg, 0.0);
        assert_eq!(s.budget_shrinks, 12);
    }

    #[test]
    fn absorbs_escalations_from_chains_and_streams() {
        use mimose_planner::{RecoveryEvent, RecoveryRung};
        use mimose_runtime::ExecEvent;
        let ev = |rung, shrink_factor| RecoveryEvent {
            rung,
            attempt: 0,
            phase: "forward",
            requested: 1 << 20,
            ckpt_before: 0,
            ckpt_after: 3,
            shrink_factor,
            time_cost_ns: 0,
            freed_bytes: 0,
        };
        let cfg = AdaptiveConfig::default();

        // Inline-only chains carry no budget shrink: nothing to absorb.
        let mut s = AdaptiveState::default();
        assert!(!s.absorb_recovery(&cfg, &[ev(RecoveryRung::CoalesceRetry, 1.0)]));
        assert!((s.plan_scale - 1.0).abs() < 1e-12);

        // The *last* escalation's cumulative shrink wins.
        let chain = [
            ev(RecoveryRung::Restart, 0.85),
            ev(RecoveryRung::Restart, 0.7225),
        ];
        assert!(s.absorb_recovery(&cfg, &chain));
        assert!((s.plan_scale - 0.7225).abs() < 1e-12);
        assert_eq!(s.budget_shrinks, 1);

        // Same feedback straight from a recorded event stream.
        let mut t = AdaptiveState::default();
        let stream = [
            ExecEvent::Compute { ns: 10 },
            ExecEvent::Recovery(Box::new(ev(RecoveryRung::Fallback, 0.85))),
        ];
        assert!(t.absorb_exec_events(&cfg, &stream));
        assert!((t.plan_scale - 0.85).abs() < 1e-12);
    }
}
