//! Fig 10: end-to-end comparison — normalised training time for every
//! planner on every task across a memory-budget sweep.

use crate::par::parallel_map;
use crate::planners::{build_policy, PlannerKind};
use crate::table::{gib, render_table};
use crate::tasks::Task;
use mimose_data::Dataset;
use mimose_exec::{RunSummary, Session};
use mimose_planner::memory_model::min_feasible_budget;

/// One (task, budget, planner) measurement.
pub struct Fig10Cell {
    /// Task abbreviation.
    pub task: &'static str,
    /// Budget in bytes.
    pub budget: usize,
    /// Planner.
    pub planner: PlannerKind,
    /// Run summary.
    pub summary: RunSummary,
    /// Execution time normalised to the unconstrained baseline.
    pub normalized: f64,
}

/// Full result: cells plus the per-task feasibility stars.
pub struct Fig10Result {
    /// All measurements.
    pub cells: Vec<Fig10Cell>,
    /// Per task: (lower star, upper star) = min feasible budget and
    /// no-checkpoint peak for the worst-case input.
    pub stars: Vec<(&'static str, usize, usize)>,
}

/// Budgets evaluated for a task: five points between the feasibility stars,
/// except the OD tasks which the paper runs at 14 GB only.
#[must_use]
pub fn budgets_for(task: &Task) -> Vec<usize> {
    if matches!(task.dataset, Dataset::Vision(_)) {
        return vec![14 << 30];
    }
    let worst = task.worst_profile();
    let lo = min_feasible_budget(&worst);
    // Budgets cannot exceed the physical device (16 GB V100); leave ~0.5 GB
    // for the driver like real deployments do.
    let hi = worst
        .peak_no_checkpoint()
        .min((15usize << 30) + (512 << 20));
    let lo = lo + (hi - lo) / 20; // 5 % above the lower star
    (0..5).map(|i| lo + (hi - lo) * i / 5).collect()
}

fn run_one(task: &Task, budget: usize, kind: PlannerKind, iters: usize, seed: u64) -> RunSummary {
    let summary = Session::builder(&task.model, &task.dataset)
        .policy_boxed(build_policy(kind, task, budget))
        .seed(seed)
        .build()
        .and_then(|mut session| session.run_summary(iters));
    summary.expect("fig10 run")
}

/// Run the full grid. `nlp_iters`/`od_iters` control per-run length.
#[must_use]
///
/// # Panics
///
/// Panics when a baseline run is missing from the grid or a training
/// run fails.
pub fn run(nlp_iters: usize, od_iters: usize) -> Fig10Result {
    let tasks = Task::all();
    let stars: Vec<(&'static str, usize, usize)> = tasks
        .iter()
        .map(|t| {
            let w = t.worst_profile();
            (t.abbr, min_feasible_budget(&w), w.peak_no_checkpoint())
        })
        .collect();

    // Work list: (task index, budget, planner).
    let mut work: Vec<(usize, usize, PlannerKind)> = Vec::new();
    for (ti, task) in tasks.iter().enumerate() {
        for b in budgets_for(task) {
            for k in PlannerKind::comparison_set() {
                work.push((ti, b, k));
            }
        }
    }
    let cells: Vec<Fig10Cell> = parallel_map(&work, |&(ti, budget, kind)| {
        let task = &tasks[ti];
        let iters = if matches!(task.dataset, Dataset::Vision(_)) {
            od_iters
        } else {
            nlp_iters
        };
        let summary = run_one(task, budget, kind, iters, 97);
        Fig10Cell {
            task: task.abbr,
            budget,
            planner: kind,
            summary,
            normalized: 0.0, // filled below against the baseline
        }
    });

    // Normalise against the baseline of the same (task, budget).
    let mut cells = cells;
    let baselines: Vec<(&'static str, usize, u64)> = cells
        .iter()
        .filter(|c| c.planner == PlannerKind::Baseline)
        .map(|c| (c.task, c.budget, c.summary.total_ns))
        .collect();
    for c in &mut cells {
        let base = baselines
            .iter()
            .find(|(t, b, _)| *t == c.task && *b == c.budget)
            .map(|(_, _, ns)| *ns)
            .expect("baseline present");
        c.normalized = c.summary.total_ns as f64 / base as f64;
    }
    Fig10Result { cells, stars }
}

/// Render the Fig 10 report.
#[must_use]
pub fn render(r: &Fig10Result) -> String {
    let mut out = String::new();
    for (task, lo, hi) in &r.stars {
        out.push_str(&format!(
            "{task}: ★ lower bound {} GiB, ★ upper bound {} GiB\n",
            gib(*lo),
            gib(*hi)
        ));
    }
    out.push('\n');
    let mut tasks: Vec<&'static str> = r.cells.iter().map(|c| c.task).collect();
    tasks.dedup();
    for task in tasks {
        let mut budgets: Vec<usize> = r
            .cells
            .iter()
            .filter(|c| c.task == task)
            .map(|c| c.budget)
            .collect();
        budgets.sort_unstable();
        budgets.dedup();
        let mut rows = Vec::new();
        for b in budgets {
            for k in PlannerKind::comparison_set() {
                let Some(c) = r
                    .cells
                    .iter()
                    .find(|c| c.task == task && c.budget == b && c.planner == k)
                else {
                    continue;
                };
                let status = if c.summary.oom_iters > 0 {
                    format!("OOM x{}", c.summary.oom_iters)
                } else if c.summary.max_peak_extent > b && k != PlannerKind::Baseline {
                    format!("exceeds budget ({} GiB)", gib(c.summary.max_peak_extent))
                } else {
                    "ok".to_string()
                };
                let norm = if c.summary.oom_iters > 0 {
                    "n/a".to_string()
                } else {
                    format!("{:.3}", c.normalized)
                };
                rows.push(vec![
                    gib(b),
                    k.name().to_string(),
                    norm,
                    gib(c.summary.max_peak_extent),
                    status,
                ]);
            }
        }
        out.push_str(&render_table(
            &format!("Fig 10: {task} — normalised training time"),
            &["budget GiB", "planner", "norm. time", "peak GiB", "status"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Summary statistics quoted in §VI-B: Mimose's mean improvement over
/// Sublinear and DTR across all successful cells.
#[must_use]
pub fn improvements(r: &Fig10Result) -> (f64, f64) {
    let mut vs_sub = Vec::new();
    let mut vs_dtr = Vec::new();
    for c in &r.cells {
        if c.planner != PlannerKind::Mimose || c.summary.oom_iters > 0 {
            continue;
        }
        let find = |k: PlannerKind| {
            r.cells
                .iter()
                .find(|o| o.task == c.task && o.budget == c.budget && o.planner == k)
        };
        if let Some(s) = find(PlannerKind::Sublinear) {
            if s.summary.oom_iters == 0 {
                vs_sub.push(1.0 - c.normalized / s.normalized);
            }
        }
        if let Some(d) = find(PlannerKind::Dtr) {
            if d.summary.oom_iters == 0 {
                vs_dtr.push(1.0 - c.normalized / d.normalized);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&vs_sub), mean(&vs_dtr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_lie_between_stars_for_nlp() {
        let task = Task::tc_bert();
        let w = task.worst_profile();
        let lo = min_feasible_budget(&w);
        let hi = w.peak_no_checkpoint();
        for b in budgets_for(&task) {
            assert!(b >= lo && b <= hi, "budget {} outside [{}, {}]", b, lo, hi);
        }
    }

    #[test]
    fn od_runs_at_14_gb() {
        assert_eq!(budgets_for(&Task::od_r50()), vec![14usize << 30]);
    }

    #[test]
    fn mimose_beats_static_and_dynamic_on_tc_bert() {
        // A one-task slice of Fig 10 (fast enough for unit tests).
        let task = Task::tc_bert();
        let budget = budgets_for(&task)[1];
        let iters = 120;
        let base = run_one(&task, budget, PlannerKind::Baseline, iters, 3).total_ns;
        let sub = run_one(&task, budget, PlannerKind::Sublinear, iters, 3).total_ns;
        let dtr = run_one(&task, budget, PlannerKind::Dtr, iters, 3).total_ns;
        let mim = run_one(&task, budget, PlannerKind::Mimose, iters, 3).total_ns;
        assert!(mim < sub, "mimose {mim} !< sublinear {sub}");
        assert!(mim < dtr, "mimose {mim} !< dtr {dtr}");
        assert!(
            mim as f64 >= base as f64 * 0.99,
            "mimose faster than baseline?"
        );
    }
}
