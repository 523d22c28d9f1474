//! Chaos sweep: drive the executor's OOM-recovery ladder under
//! deterministic fault injection and report recovered-vs-fatal rates plus
//! the virtual-time slowdown against a clean run.
//!
//! Each scenario is one [`FaultSpec`] (plus, for the estimator scenarios,
//! the policy-side `estimate_scale` bias) applied to a Mimose run with the
//! recovery ladder enabled. Every iteration's recovery-event chain is
//! additionally passed through [`mimose_audit::lint_recovery_trace`], so a
//! ladder that recovers but violates its own escalation discipline still
//! fails the sweep.
//!
//! The scenarios are sized from the task's own profile (full-checkpoint
//! floor, no-checkpoint peak, budget) so every injected OOM is *recoverable
//! by construction*: the shrunk capacity always stays above the worst-case
//! full-checkpoint floor, which the terminal fallback rung is guaranteed to
//! reach. A fatal iteration therefore indicates a ladder bug, not an
//! impossible workload — which is exactly what the `--gate` mode of the
//! `chaos` binary turns into a non-zero exit.

use crate::table::{gib, ms, render_table};
use crate::tasks::Task;
use mimose_audit::{has_errors, lint_recovery_trace};
use mimose_chaos::{FaultInjector, FaultSpec};
use mimose_core::{MimoseConfig, MimosePolicy};
use mimose_exec::{IterationReport, RecoveryConfig, RunSummary, Session};
use mimose_planner::memory_model::{min_feasible_budget, peak_bytes};
use mimose_planner::CheckpointPlan;

/// A named fault scenario of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No faults: the control. With recovery enabled but nothing injected,
    /// the run must be byte-identical to a plain run (zero recovery events,
    /// slowdown exactly 1.0).
    None,
    /// Systematically under-predicting estimator (`estimate_scale` 0.55)
    /// on a squeezed device: the planner believes everything fits and stops
    /// checkpointing, so its plans under-provision, OOM, and must be
    /// rescued by demotion/restart/fallback.
    EstimatorUnder,
    /// A co-located process grabs device memory mid-run: the arena shrinks
    /// to halfway between the full-checkpoint floor and the effective
    /// budget, so previously feasible plans stop fitting.
    CapacityShrink,
    /// Spurious one-shot allocation failures (a flaky allocator): absorbed
    /// entirely by the coalesce-and-retry rung.
    AllocFlake,
    /// Recompute kernels intermittently run 3x slow: no memory faults, no
    /// recovery events — pure latency perturbation.
    RecomputeSpike,
    /// Everything at once, at reduced intensity.
    Combined,
}

impl Scenario {
    /// CLI/display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scenario::None => "none",
            Scenario::EstimatorUnder => "estimator-under",
            Scenario::CapacityShrink => "capacity-shrink",
            Scenario::AllocFlake => "alloc-flake",
            Scenario::RecomputeSpike => "recompute-spike",
            Scenario::Combined => "combined",
        }
    }

    /// Every scenario, sweep order.
    #[must_use]
    pub fn all() -> [Scenario; 6] {
        [
            Scenario::None,
            Scenario::EstimatorUnder,
            Scenario::CapacityShrink,
            Scenario::AllocFlake,
            Scenario::RecomputeSpike,
            Scenario::Combined,
        ]
    }

    /// Parse a CLI name (case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::all()
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }

    /// Whether the scenario can inject hard OOMs (and therefore whether
    /// recovery events are *expected* in its outcome).
    #[must_use]
    pub fn expects_recovery(self) -> bool {
        matches!(
            self,
            Scenario::EstimatorUnder
                | Scenario::CapacityShrink
                | Scenario::AllocFlake
                | Scenario::Combined
        )
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Task abbreviation (Table II).
    pub task: String,
    /// Memory budget in bytes.
    pub budget_bytes: usize,
    /// Iterations per scenario.
    pub iters: usize,
    /// Batch-stream and fault seed.
    pub seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            task: "TC-Bert".into(),
            budget_bytes: 6 << 30,
            iters: 120,
            seed: 42,
        }
    }
}

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Which scenario ran.
    pub scenario: Scenario,
    /// Aggregate over the scenario's iterations.
    pub summary: RunSummary,
    /// Iterations that hit a *fatal* (unrecovered) OOM.
    pub fatal_iters: usize,
    /// Virtual-time ratio against the clean (no-fault, no-recovery) run,
    /// over the deterministic components only — `planning_ns` is measured
    /// host wall-clock (the policy times its own scheduler), so it jitters
    /// between otherwise identical runs and is excluded from the ratio.
    pub slowdown: f64,
    /// Error-severity findings from the recovery-trace linter, summed over
    /// all iterations.
    pub lint_errors: usize,
    /// Whether this run's concrete fault parameters can actually provoke
    /// the ladder. A squeeze capacity can land *above* every observed peak
    /// when a task's plans are already near-fully-checkpointed (the OD
    /// tasks): per-input fallback floors approach the peaks themselves and
    /// the recoverable-by-construction clamp leaves no room to OOM. Such a
    /// run is a structural no-op, not a broken injection, and the gate must
    /// not demand recovery events from it.
    pub expects_events: bool,
}

impl ScenarioOutcome {
    /// Whether this outcome satisfies the gate: no fatal OOM, linter-clean,
    /// and — for the control scenario — a byte-identical happy path.
    #[must_use]
    pub fn passes_gate(&self) -> bool {
        if self.fatal_iters > 0 || self.lint_errors > 0 {
            return false;
        }
        match self.scenario {
            Scenario::None => {
                self.summary.recovery_events == 0 && (self.slowdown - 1.0).abs() < 1e-12
            }
            // Fault scenarios designed to OOM must actually exercise the
            // ladder; a silent no-op means the injection is broken.
            _ if self.expects_events => self.summary.recovery_events > 0,
            _ => true,
        }
    }
}

/// Iteration at which mid-run faults (capacity shrink) arm: safely past the
/// sheltered collection phase, whose shuttle iterations intentionally run
/// without checkpointing and must not be starved (`min_distinct_sizes`
/// extensions are hard-capped at 30 shuttles).
const SHRINK_AT: usize = 31;

/// Capacity the squeeze scenarios shrink the device to, derived from the
/// *measured* peaks of the clean reference run rather than the analytic
/// budget window: just under the median post-collection peak, so roughly
/// half of the squeezed iterations genuinely OOM regardless of how far
/// below the budget the scheduler's plans happen to land for this task.
///
/// The lower clamp is the largest full-checkpoint footprint among the
/// inputs the squeezed iterations will actually see (the batch stream is
/// seeded, so the fault run replays exactly the clean run's inputs): the
/// ladder's terminal fallback is guaranteed to fit, making every injected
/// OOM recoverable by construction. The worst-*case* input's floor would be
/// uselessly conservative here — it can sit above every real plan peak.
fn squeezed_capacity(task: &Task, clean: &[IterationReport], floor: usize, eff: usize) -> usize {
    let post: Vec<&IterationReport> = clean
        .iter()
        .filter(|r| r.iter >= SHRINK_AT && !r.shuttle)
        .collect();
    if post.is_empty() {
        // Degenerate short run: fall back to the analytic midpoint.
        return floor + eff.saturating_sub(floor) / 2;
    }
    let guard = post
        .iter()
        .map(|r| {
            let p = task
                .model
                .profile(&r.input)
                .expect("input already profiled in the clean run");
            peak_bytes(&p, &CheckpointPlan::all(p.blocks.len()))
        })
        .max()
        .expect("non-empty");
    let mut peaks: Vec<usize> = post.iter().map(|r| r.peak_bytes).collect();
    peaks.sort_unstable();
    let median = peaks[peaks.len() / 2];
    (median - median / 20).max(guard + guard / 20)
}

/// The fault spec and the policy-side estimator bias for a scenario.
/// `clean` is the clean reference run's per-iteration reports; the squeeze
/// scenarios size their capacity shrink from its measured peaks.
#[must_use]
pub fn scenario_spec(
    scenario: Scenario,
    task: &Task,
    opt: &ChaosOptions,
    clean: &[IterationReport],
) -> (FaultSpec, f64) {
    let worst = task.worst_profile();
    let floor = min_feasible_budget(&worst);
    // A session sizes budgeted arenas to the physical device.
    let nominal = mimose_simgpu::DeviceProfile::v100().total_mem_bytes;
    let eff = opt
        .budget_bytes
        .saturating_sub(512 << 20)
        .max(floor + (floor / 4));
    let squeezed = squeezed_capacity(task, clean, floor, eff);
    let f = |bytes: usize| (bytes as f64 / nominal as f64).min(1.0);

    let base = FaultSpec::none(opt.seed);
    match scenario {
        Scenario::None => (base, 1.0),
        // Same squeezed device as CapacityShrink, but the estimator also
        // under-predicts by ~2x: the planner believes even unchecked plans
        // fit the budget and stops checkpointing, so strictly more
        // iterations OOM than under the honest estimator and the ladder
        // has to make up the difference.
        Scenario::EstimatorUnder => (
            FaultSpec {
                capacity_shrink: Some((SHRINK_AT, f(squeezed))),
                ..base
            },
            0.55,
        ),
        Scenario::CapacityShrink => (
            FaultSpec {
                capacity_shrink: Some((SHRINK_AT, f(squeezed))),
                ..base
            },
            1.0,
        ),
        Scenario::AllocFlake => (
            FaultSpec {
                alloc_failure_rate: 0.35,
                alloc_failures_per_iter: 2,
                alloc_failure_span: 48,
                ..base
            },
            1.0,
        ),
        Scenario::RecomputeSpike => (
            FaultSpec {
                recompute_spike_rate: 0.30,
                recompute_spike_factor: 3.0,
                ..base
            },
            1.0,
        ),
        Scenario::Combined => (
            FaultSpec {
                capacity_shrink: Some((SHRINK_AT, f(squeezed))),
                alloc_failure_rate: 0.20,
                alloc_failures_per_iter: 1,
                alloc_failure_span: 48,
                recompute_spike_rate: 0.20,
                recompute_spike_factor: 2.0,
                ..base
            },
            0.70,
        ),
    }
}

/// Mimose policy for the sweep. Non-adaptive on purpose: adaptive
/// re-collection issues shuttle (no-checkpoint) iterations on
/// far-out-of-support inputs, which a deliberately squeezed arena cannot
/// hold and the ladder refuses to demote (measurement iterations must stay
/// unperturbed). The adaptive budget-shrink feedback loop is covered by the
/// `mimose-core` unit tests instead.
fn build_policy(opt: &ChaosOptions, estimate_scale: f64) -> MimosePolicy {
    let mut cfg = MimoseConfig::with_budget(opt.budget_bytes);
    cfg.estimate_scale = estimate_scale;
    MimosePolicy::new(cfg)
}

/// The clean reference run: same task/budget/seed, no faults, no recovery.
/// Returns the per-iteration reports — the squeeze scenarios size their
/// capacity shrink from the measured peaks.
#[must_use]
///
/// # Panics
///
/// Panics when the underlying training run fails.
pub fn clean_reference(task: &Task, opt: &ChaosOptions) -> Vec<IterationReport> {
    let reports = Session::builder(&task.model, &task.dataset)
        .policy(build_policy(opt, 1.0))
        .seed(opt.seed)
        .build()
        .and_then(|mut session| session.run(opt.iters));
    reports.expect("chaos run")
}

/// Fold per-iteration reports into a summary.
#[must_use]
pub fn summarize(reports: &[IterationReport]) -> RunSummary {
    let mut s = RunSummary::default();
    for r in reports {
        s.absorb(r);
    }
    s
}

/// A summary's deterministic virtual time: everything except
/// `planning_ns`, which is host wall-clock measured by the policy and
/// jitters between otherwise identical runs.
#[must_use]
pub fn deterministic_ns(s: &RunSummary) -> u64 {
    s.total_ns.saturating_sub(s.time.planning_ns)
}

/// Run one scenario and score it against the clean reference.
#[must_use]
///
/// # Panics
///
/// Panics when the underlying training run fails.
pub fn run_scenario(
    task: &Task,
    scenario: Scenario,
    opt: &ChaosOptions,
    clean: &[IterationReport],
) -> ScenarioOutcome {
    let (spec, estimate_scale) = scenario_spec(scenario, task, opt, clean);
    // A squeeze only bites when its capacity lands below at least one
    // observed post-shrink peak; the estimator bias raises peaks further,
    // so comparing against the clean run's peaks is conservative for the
    // biased scenarios. Flaky allocations always bite.
    let nominal = mimose_simgpu::DeviceProfile::v100().total_mem_bytes;
    let max_clean_peak = clean
        .iter()
        .filter(|r| r.iter >= SHRINK_AT && !r.shuttle)
        .map(|r| r.peak_bytes)
        .max()
        .unwrap_or(0);
    let squeeze_bites = spec
        .capacity_shrink
        .is_some_and(|(_, f)| ((nominal as f64 * f) as usize) < max_clean_peak);
    let expects_events = scenario.expects_recovery()
        && (squeeze_bites || spec.alloc_failure_rate > 0.0 || estimate_scale < 1.0);
    let recovery = RecoveryConfig::default();
    let reports = Session::builder(&task.model, &task.dataset)
        .policy(build_policy(opt, estimate_scale))
        .seed(opt.seed)
        .recovery(recovery.clone())
        .chaos(FaultInjector::new(spec))
        .build()
        .and_then(|mut session| session.run(opt.iters))
        .expect("chaos run");

    let mut summary = RunSummary::default();
    let mut fatal_iters = 0usize;
    let mut lint_errors = 0usize;
    for r in &reports {
        summary.absorb(r);
        if !r.ok() {
            fatal_iters += 1;
        }
        let diags = lint_recovery_trace(
            &r.recovery,
            recovery.max_restarts,
            recovery.max_inline_events,
        );
        if has_errors(&diags) {
            lint_errors += diags
                .iter()
                .filter(|d| d.severity == mimose_audit::Severity::Error)
                .count();
        }
    }
    let clean_ns = deterministic_ns(&summarize(clean));
    let slowdown = if clean_ns == 0 {
        1.0
    } else {
        deterministic_ns(&summary) as f64 / clean_ns as f64
    };
    ScenarioOutcome {
        scenario,
        summary,
        fatal_iters,
        slowdown,
        lint_errors,
        expects_events,
    }
}

/// Run every scenario.
#[must_use]
///
/// # Panics
///
/// Panics when `opt.task` names no known task (the CLI validates it
/// first) or a scenario run fails.
pub fn run_all(opt: &ChaosOptions) -> Vec<ScenarioOutcome> {
    let task = crate::cli::find_task(&opt.task).expect("task validated by the caller");
    let clean = clean_reference(&task, opt);
    Scenario::all()
        .into_iter()
        .map(|s| run_scenario(&task, s, opt, &clean))
        .collect()
}

/// Text table of a sweep's outcomes.
#[must_use]
pub fn render(opt: &ChaosOptions, outcomes: &[ScenarioOutcome]) -> String {
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.scenario.name().to_string(),
                format!("{}", o.summary.iters),
                format!("{}", o.summary.recovered_iters),
                format!("{}", o.fatal_iters),
                format!("{}", o.summary.recovery_events),
                ms(o.summary.time.recovery_ns),
                format!("{:.3}x", o.slowdown),
                format!("{}", o.lint_errors),
                if o.passes_gate() { "pass" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    render_table(
        &format!(
            "Chaos sweep — {} | budget {} GiB | {} iters | seed {}",
            opt.task,
            gib(opt.budget_bytes),
            opt.iters,
            opt.seed
        ),
        &[
            "scenario",
            "iters",
            "recovered",
            "fatal",
            "events",
            "recovery",
            "slowdown",
            "lint err",
            "gate",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::all() {
            assert_eq!(Scenario::parse(s.name()), Some(s));
            assert_eq!(Scenario::parse(&s.name().to_uppercase()), Some(s));
        }
        assert_eq!(Scenario::parse("frobnicate"), None);
    }

    #[test]
    fn specs_are_recoverable_by_construction() {
        let task = Task::tc_bert();
        let opt = ChaosOptions {
            iters: 40,
            ..ChaosOptions::default()
        };
        let clean = clean_reference(&task, &opt);
        // Largest full-checkpoint footprint among the post-shrink inputs:
        // the terminal fallback must fit under any injected capacity.
        let guard = clean
            .iter()
            .filter(|r| r.iter >= SHRINK_AT && !r.shuttle)
            .map(|r| {
                let p = task.model.profile(&r.input).unwrap();
                peak_bytes(&p, &CheckpointPlan::all(p.blocks.len()))
            })
            .max()
            .unwrap();
        let nominal = mimose_simgpu::DeviceProfile::v100().total_mem_bytes;
        for s in Scenario::all() {
            let (spec, scale) = scenario_spec(s, &task, &opt, &clean);
            assert_eq!(spec.seed, opt.seed);
            if let Some((at, factor)) = spec.capacity_shrink {
                assert!(at >= SHRINK_AT, "{}: shrink inside collection", s.name());
                let cap = (nominal as f64 * factor) as usize;
                assert!(
                    cap > guard,
                    "{}: capacity under the fallback floor",
                    s.name()
                );
            }
            assert!(scale > 0.0 && scale <= 1.0);
            if s == Scenario::None {
                assert!(spec.is_noop());
            }
        }
    }

    #[test]
    fn control_scenario_is_byte_identical_and_flake_recovers() {
        let task = Task::tc_bert();
        let opt = ChaosOptions {
            iters: 40,
            ..ChaosOptions::default()
        };
        let clean = clean_reference(&task, &opt);
        let control = run_scenario(&task, Scenario::None, &opt, &clean);
        assert!(control.passes_gate(), "{control:?}");
        assert_eq!(
            deterministic_ns(&control.summary),
            deterministic_ns(&summarize(&clean)),
            "control must be byte-identical to the clean run"
        );
        let flake = run_scenario(&task, Scenario::AllocFlake, &opt, &clean);
        assert!(flake.passes_gate(), "{flake:?}");
        assert!(flake.summary.recovered_iters > 0);
    }
}
