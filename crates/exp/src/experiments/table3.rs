//! Table III: Mimose's overhead breakdown per epoch under a 6 GB budget —
//! collector cost (10 shuttle iterations), estimator+scheduler latency
//! (sub-millisecond, dozens of invocations), total normalised to the
//! single-iteration time.

use crate::table::{ms, render_table};
use crate::tasks::Task;
use mimose_core::{MimoseConfig, MimosePolicy};
use mimose_exec::Session;

/// One task's overhead breakdown.
pub struct Table3Row {
    /// Task abbreviation.
    pub task: &'static str,
    /// Mean non-shuttle iteration time, ns.
    pub iter_ns: u64,
    /// Extra time per collection iteration (the second forward), ns.
    pub collector_per_iter_ns: u64,
    /// Number of collection iterations.
    pub collector_count: usize,
    /// (min, max) estimator+scheduler wall time per generated plan, ns.
    pub plan_ns_range: (u64, u64),
    /// Number of generated plans (cache misses) this run.
    pub plans_generated: u64,
    /// Total overhead (collector extra + plan generation), ns.
    pub total_overhead_ns: u64,
    /// Iterations simulated.
    pub iters: usize,
}

impl Table3Row {
    /// Total overhead expressed in single-iteration units (the paper's
    /// "3.93 iters" style figure).
    #[must_use]
    pub fn overhead_iters(&self) -> f64 {
        self.total_overhead_ns as f64 / self.iter_ns.max(1) as f64
    }
}

/// Run Mimose for up to `max_iters` iterations of each task's epoch under
/// `budget` bytes. The OD tasks run at 14 GB instead (the paper's Fig 10 OD
/// budget): the simulated detector footprint cannot complete even fully
/// checkpointed collection at 6 GB for the largest multi-scale inputs —
/// documented as a calibration difference in EXPERIMENTS.md.
#[must_use]
///
/// # Panics
///
/// Panics when an underlying training run fails.
pub fn run(budget: usize, max_iters: usize) -> Vec<Table3Row> {
    Task::all()
        .into_iter()
        .map(|task| {
            let budget = if matches!(task.dataset, mimose_data::Dataset::Vision(_)) {
                (14usize) << 30
            } else {
                budget
            };
            let iters = task.dataset.iters_per_epoch().min(max_iters);
            let mut pol = MimosePolicy::new(MimoseConfig::with_budget(budget));
            let reports = Session::builder(&task.model, &task.dataset)
                .policy(&mut pol)
                .seed(11)
                .build()
                .and_then(|mut session| session.run(iters))
                .expect("table3 run");
            let normal: Vec<&mimose_exec::IterationReport> =
                reports.iter().filter(|r| !r.shuttle).collect();
            let iter_ns =
                normal.iter().map(|r| r.time.total_ns()).sum::<u64>() / normal.len().max(1) as u64;
            let shuttles: Vec<&mimose_exec::IterationReport> =
                reports.iter().filter(|r| r.shuttle).collect();
            // The collector's extra cost is the shuttle iteration's
            // recompute component (the second forward pass).
            let collector_total: u64 = shuttles.iter().map(|r| r.time.recompute_ns).sum();
            let collector_per_iter_ns = collector_total / shuttles.len().max(1) as u64;
            let stats = pol.stats();
            let total_overhead_ns = collector_total + stats.total_plan_ns();
            Table3Row {
                task: task.abbr,
                iter_ns,
                collector_per_iter_ns,
                collector_count: shuttles.len(),
                plan_ns_range: stats.plan_ns_range(),
                plans_generated: stats.plans_generated,
                total_overhead_ns,
                iters,
            }
        })
        .collect()
}

/// Render Table III.
#[must_use]
pub fn render(rows: &[Table3Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} ({} ms/iter)", r.task, ms(r.iter_ns)),
                format!(
                    "{} ms ({} times)",
                    ms(r.collector_per_iter_ns),
                    r.collector_count
                ),
                format!(
                    "{} ms~{} ms ({} times)",
                    ms(r.plan_ns_range.0),
                    ms(r.plan_ns_range.1),
                    r.plans_generated
                ),
                format!(
                    "{} ms ({:.2} iters)",
                    ms(r.total_overhead_ns),
                    r.overhead_iters()
                ),
            ]
        })
        .collect();
    render_table(
        "Table III: Mimose overhead breakdown (6 GB budget)",
        &["Task", "Collector", "Estimator & Scheduler", "Total"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_a_few_iterations_per_epoch() {
        let rows = run(6 << 30, 1200);
        for r in &rows {
            assert_eq!(r.collector_count, 10, "{}: collector count", r.task);
            // Paper: total overhead 1.2~6.4 iterations; ours must stay
            // within the same order.
            let oi = r.overhead_iters();
            assert!((0.5..15.0).contains(&oi), "{}: {oi:.2} iters", r.task);
            // Estimator+scheduler stays sub-millisecond per plan in release
            // builds (the paper's claim); unoptimised builds get slack.
            let limit = if cfg!(debug_assertions) {
                50_000_000
            } else {
                2_000_000
            };
            assert!(
                r.plan_ns_range.1 < limit,
                "{}: plan gen {} ns",
                r.task,
                r.plan_ns_range.1
            );
        }
    }

    #[test]
    fn plans_generated_are_dozens_not_thousands() {
        // §V: "the memory scheduler only needs to generate the checkpointing
        // plan dozens of times during the entire epoch".
        let rows = run(6 << 30, 1500);
        for r in &rows {
            assert!(
                (r.plans_generated as usize) < r.iters / 4,
                "{}: {} plans over {} iters",
                r.task,
                r.plans_generated,
                r.iters
            );
        }
    }
}
