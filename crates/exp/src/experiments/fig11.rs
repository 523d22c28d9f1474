//! Fig 11: Mimose's memory consumption as the input size varies, at
//! budgets MB-4 … MB-8 (TC-Bert).

use crate::table::{gib, render_table};
use crate::tasks::Task;
use mimose_core::{MimoseConfig, MimosePolicy};
use mimose_exec::Session;

/// Per-iteration (seqlen, peak bytes, shuttle?) samples for one budget.
pub struct Fig11Series {
    /// Budget bytes.
    pub budget: usize,
    /// (collated seqlen, peak bytes, was shuttle iteration).
    pub points: Vec<(usize, usize, bool)>,
}

/// Run Mimose on TC-Bert for `iters` iterations at each budget (GiB).
#[must_use]
///
/// # Panics
///
/// Panics when an underlying training run fails.
pub fn run(budgets_gb: &[usize], iters: usize) -> Vec<Fig11Series> {
    budgets_gb
        .iter()
        .map(|&gb| {
            let budget = gb << 30;
            let task = Task::tc_bert();
            let points = Session::builder(&task.model, &task.dataset)
                .policy(MimosePolicy::new(MimoseConfig::with_budget(budget)))
                .seed(21)
                .build()
                .and_then(|mut session| session.run(iters))
                .expect("fig11 run")
                .into_iter()
                .map(|r| (r.input.per_sample_extent(), r.peak_bytes, r.shuttle))
                .collect();
            Fig11Series { budget, points }
        })
        .collect()
}

/// Render: per budget, bucket seqlens and report the mean peak per bucket.
#[must_use]
///
/// # Panics
///
/// Panics when a series has no points.
pub fn render(series: &[Fig11Series]) -> String {
    let mut out = String::new();
    for s in series {
        let mut rows = Vec::new();
        let min_s = s.points.iter().map(|p| p.0).min().expect("nonempty");
        let max_s = s.points.iter().map(|p| p.0).max().expect("nonempty");
        let bins = 10usize;
        for b in 0..bins {
            let lo = min_s + (max_s - min_s) * b / bins;
            let hi = min_s + (max_s - min_s) * (b + 1) / bins;
            let sel: Vec<usize> = s
                .points
                .iter()
                .filter(|(x, _, sh)| !sh && *x >= lo && (*x < hi || b == bins - 1))
                .map(|(_, p, _)| *p)
                .collect();
            if sel.is_empty() {
                continue;
            }
            let mean = sel.iter().sum::<usize>() / sel.len();
            let peak = *sel.iter().max().expect("nonempty");
            rows.push(vec![
                format!("{lo}-{hi}"),
                sel.len().to_string(),
                gib(mean),
                gib(peak),
            ]);
        }
        out.push_str(&render_table(
            &format!("Fig 11: Mimose memory vs seqlen, MB-{}", s.budget >> 30),
            &["seqlen bucket", "iters", "mean GiB", "max GiB"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_grows_with_input_until_budget() {
        let series = run(&[5], 150);
        let s = &series[0];
        // Partition non-shuttle points into small/large input halves.
        let (min_s, max_s) = s
            .points
            .iter()
            .filter(|p| !p.2)
            .fold((usize::MAX, 0), |(lo, hi), p| (lo.min(p.0), hi.max(p.0)));
        let mid = (min_s + max_s) / 2;
        let mean = |pred: &dyn Fn(usize) -> bool| {
            let v: Vec<usize> = s
                .points
                .iter()
                .filter(|p| !p.2 && pred(p.0))
                .map(|p| p.1)
                .collect();
            v.iter().sum::<usize>() / v.len().max(1)
        };
        let small = mean(&|x| x < mid);
        let large = mean(&|x| x >= mid);
        assert!(large > small, "small {small} large {large}");
        // Never exceeds the budget.
        assert!(s.points.iter().all(|p| p.1 <= s.budget));
        // Large inputs approach (but respect) the budget: gap below ~1.5 GiB
        // (the paper reserves 0.5-1 GB headroom).
        let max_peak = s.points.iter().map(|p| p.1).max().expect("nonempty");
        assert!(
            s.budget - max_peak < 3 << 30,
            "gap {} GiB too large",
            gib(s.budget - max_peak)
        );
    }

    #[test]
    fn higher_budget_uses_more_memory() {
        let series = run(&[4, 7], 120);
        let peak = |s: &Fig11Series| s.points.iter().map(|p| p.1).max().unwrap_or(0);
        assert!(peak(&series[1]) >= peak(&series[0]));
    }
}
