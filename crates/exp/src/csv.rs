//! CSV export of iteration reports and run summaries, so experiment output
//! can be piped into external plotting tools without extra dependencies.

use mimose_exec::{IterationReport, RunSummary};
use std::fmt::Write as _;

/// CSV header for per-iteration rows.
pub const ITERATION_HEADER: &str = "iter,input_size,extent,shuttle,ok,peak_bytes,reserved_bytes,\
frag_bytes,dropped_units,compute_ns,recompute_ns,planning_ns,bookkeeping_ns,allocator_ns,swap_ns,\
total_ns";

/// Escape a CSV field (quotes fields containing separators/quotes).
#[must_use]
pub fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Render iteration reports as CSV (header + one row per iteration).
#[must_use]
pub fn iterations_to_csv(reports: &[IterationReport]) -> String {
    let mut out = String::with_capacity(reports.len() * 96 + ITERATION_HEADER.len());
    out.push_str(ITERATION_HEADER);
    out.push('\n');
    for r in reports {
        let t = &r.time;
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.iter,
            r.input_size,
            r.input.per_sample_extent(),
            r.shuttle,
            r.ok(),
            r.peak_bytes,
            r.peak_extent,
            r.frag_bytes,
            r.dropped_units,
            t.compute_ns,
            t.recompute_ns,
            t.planning_ns,
            t.bookkeeping_ns,
            t.allocator_ns,
            t.swap_ns,
            t.total_ns(),
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Render labelled run summaries as CSV.
#[must_use]
pub fn summaries_to_csv(rows: &[(String, RunSummary)]) -> String {
    let mut out = String::from(
        "label,iters,total_ns,compute_ns,recompute_ns,planning_ns,bookkeeping_ns,swap_ns,\
max_peak_bytes,max_reserved_bytes,max_frag_bytes,oom_iters,shuttle_iters\n",
    );
    for (label, s) in rows {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            escape(label),
            s.iters,
            s.total_ns,
            s.time.compute_ns,
            s.time.recompute_ns,
            s.time.planning_ns,
            s.time.bookkeeping_ns,
            s.time.swap_ns,
            s.max_peak_bytes,
            s.max_peak_extent,
            s.max_frag_bytes,
            s.oom_iters,
            s.shuttle_iters,
        )
        .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planners::{build_policy, PlannerKind};
    use crate::tasks::Task;
    use mimose_exec::Session;

    #[test]
    fn iteration_csv_has_one_row_per_report() {
        let task = Task::tc_bert();
        let reports = Session::builder(&task.model, &task.dataset)
            .policy_boxed(build_policy(PlannerKind::Sublinear, &task, 5 << 30))
            .seed(3)
            .build()
            .and_then(|mut session| session.run(12))
            .expect("csv run");
        let csv = iterations_to_csv(&reports);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 13); // header + 12 rows
        assert!(lines[0].starts_with("iter,input_size"));
        // Every row has the same column count as the header.
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "{l}");
        }
    }

    #[test]
    fn summary_csv_round_numbers() {
        let task = Task::tc_bert();
        let s = Session::builder(&task.model, &task.dataset)
            .policy_boxed(build_policy(PlannerKind::Baseline, &task, 5 << 30))
            .seed(3)
            .build()
            .and_then(|mut session| session.run_summary(5))
            .expect("csv run");
        let csv = summaries_to_csv(&[("base,line".to_string(), s.clone())]);
        assert!(csv.contains("\"base,line\""), "label must be escaped");
        assert!(csv.contains(&s.total_ns.to_string()));
    }

    #[test]
    fn escape_rules() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
