//! Fig 5: DTR's training-time breakdown and real memory usage on
//! MC-Roberta (SWAG) at budgets 4.2/4.5/5/5.5 GB.

use crate::table::{gib, render_table};
use crate::tasks::Task;
use mimose_exec::Session;
use mimose_planner::DtrPolicy;

/// Breakdown for one budget.
pub struct Fig5Row {
    /// Nominal budget bytes.
    pub budget: usize,
    /// Peak address-space extent (bytes "actually used").
    pub actual_bytes: usize,
    /// Peak fragmentation bytes.
    pub frag_bytes: usize,
    /// Fraction of iteration time in cost maintenance (metadata).
    pub maintain_frac: f64,
    /// Fraction in eviction search (planning).
    pub planning_frac: f64,
    /// Fraction in recomputation.
    pub recompute_frac: f64,
    /// Fraction in useful compute.
    pub compute_frac: f64,
}

/// Run DTR on MC-Roberta for `iters` iterations at each budget.
#[must_use]
///
/// # Panics
///
/// Panics when an underlying training run fails.
pub fn run(budgets_gb: &[f64], iters: usize) -> Vec<Fig5Row> {
    budgets_gb
        .iter()
        .map(|&gb| {
            let budget = (gb * (1u64 << 30) as f64) as usize;
            let task = Task::mc_roberta();
            let s = Session::builder(&task.model, &task.dataset)
                .policy(DtrPolicy::new(budget))
                .seed(5)
                .build()
                .and_then(|mut session| session.run_summary(iters))
                .expect("fig5 run");
            let total = s.time.total_ns() as f64;
            Fig5Row {
                budget,
                actual_bytes: s.max_peak_extent,
                frag_bytes: s.max_frag_bytes,
                maintain_frac: s.time.bookkeeping_ns as f64 / total,
                planning_frac: s.time.planning_ns as f64 / total,
                recompute_frac: s.time.recompute_ns as f64 / total,
                compute_frac: s.time.compute_ns as f64 / total,
            }
        })
        .collect()
}

/// Render the Fig 5 report.
#[must_use]
pub fn render(rows: &[Fig5Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                gib(r.budget),
                gib(r.actual_bytes),
                gib(r.frag_bytes),
                format!("{:.1}%", r.compute_frac * 100.0),
                format!("{:.1}%", r.recompute_frac * 100.0),
                format!("{:.1}%", r.maintain_frac * 100.0),
                format!("{:.1}%", r.planning_frac * 100.0),
            ]
        })
        .collect();
    render_table(
        "Fig 5: DTR breakdown on MC-Roberta (SWAG)",
        &[
            "budget GiB",
            "actual GiB",
            "frag GiB",
            "compute",
            "recompute",
            "cost maintain",
            "planning",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtr_breakdown_matches_paper_shape() {
        let rows = run(&[4.2, 5.5], 40);
        for r in &rows {
            // Paper: cost maintenance ~26 % on average (up to 40 %).
            assert!(
                (0.08..0.45).contains(&r.maintain_frac),
                "maintenance fraction {:.3}",
                r.maintain_frac
            );
            // Actual usage exceeds the nominal budget (fragmentation).
            assert!(
                r.actual_bytes > r.budget,
                "actual {} <= budget {}",
                gib(r.actual_bytes),
                gib(r.budget)
            );
        }
        // Tighter budget → more planning/eviction overhead.
        assert!(
            rows[0].planning_frac + rows[0].recompute_frac
                >= rows[1].planning_frac + rows[1].recompute_frac,
            "tight {:.3}/{:.3} vs loose {:.3}/{:.3}",
            rows[0].planning_frac,
            rows[0].recompute_frac,
            rows[1].planning_frac,
            rows[1].recompute_frac
        );
    }
}
