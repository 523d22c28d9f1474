//! Extension experiment: the swap-vs-recompute crossover.
//!
//! The paper rules out swapping because "the copying overhead is quite high
//! due to the limited PCIe bandwidth" (§I) — a bandwidth-dependent claim.
//! This experiment sweeps the host-link bandwidth and shows where a
//! Capuchin-style hybrid planner starts preferring swaps over
//! recomputation, and where it would overtake recomputation-only planners
//! (NVLink-class links).

use crate::table::{gib, ms, render_table};
use crate::tasks::Task;
use mimose_exec::Session;
use mimose_planner::{BlockAction, CapuchinPolicy, SublinearPolicy};
use mimose_simgpu::DeviceProfile;

/// One bandwidth point.
pub struct HybridRow {
    /// Link bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Blocks the hybrid plan swaps.
    pub swapped: usize,
    /// Blocks the hybrid plan recomputes.
    pub recomputed: usize,
    /// Hybrid total time, ns.
    pub hybrid_ns: u64,
    /// Recompute-only (Sublinear) total time, ns.
    pub sublinear_ns: u64,
}

/// Sweep link bandwidths (bytes/s) on TC-Bert at `budget`.
#[must_use]
///
/// # Panics
///
/// Panics when an underlying training run fails.
pub fn run(budget: usize, iters: usize, bandwidths: &[f64]) -> Vec<HybridRow> {
    let task = Task::tc_bert();
    let worst = task.worst_profile();
    bandwidths
        .iter()
        .map(|&bw| {
            let mut dev = DeviceProfile::v100();
            dev.pcie_bytes_per_sec = bw;
            let cap = CapuchinPolicy::plan_offline(&worst, budget, &dev);
            let swapped = cap.plan().count(BlockAction::Swap);
            let recomputed = cap.plan().count(BlockAction::Recompute);

            let hybrid = Session::builder(&task.model, &task.dataset)
                .policy(cap)
                .seed(61)
                .device(dev.clone())
                .build()
                .and_then(|mut session| session.run_summary(iters))
                .expect("hybrid run");

            let sublinear = Session::builder(&task.model, &task.dataset)
                .policy(SublinearPolicy::plan_offline(&worst, budget))
                .seed(61)
                .device(dev)
                .build()
                .and_then(|mut session| session.run_summary(iters))
                .expect("sublinear run");

            HybridRow {
                bandwidth: bw,
                swapped,
                recomputed,
                hybrid_ns: hybrid.total_ns,
                sublinear_ns: sublinear.total_ns,
            }
        })
        .collect()
}

/// Render the crossover table.
#[must_use]
pub fn render(rows: &[HybridRow], budget: usize) -> String {
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0} GB/s", r.bandwidth / 1e9),
                r.swapped.to_string(),
                r.recomputed.to_string(),
                ms(r.hybrid_ns),
                ms(r.sublinear_ns),
                format!(
                    "{:+.1}%",
                    (r.hybrid_ns as f64 / r.sublinear_ns as f64 - 1.0) * 100.0
                ),
            ]
        })
        .collect();
    render_table(
        &format!(
            "Extension: swap-vs-recompute crossover (TC-Bert, budget {} GiB)",
            gib(budget)
        ),
        &[
            "link bw",
            "swapped",
            "recomputed",
            "hybrid ms",
            "sublinear ms",
            "hybrid vs sublinear",
        ],
        &t,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapping_grows_with_bandwidth() {
        let rows = run(4 << 30, 40, &[2e9, 50e9]);
        assert!(
            rows[1].swapped >= rows[0].swapped,
            "more bandwidth should not swap less"
        );
        // At NVLink-class bandwidth the hybrid must beat recompute-only.
        assert!(
            rows[1].hybrid_ns < rows[1].sublinear_ns,
            "hybrid {} !< sublinear {} at 50 GB/s",
            rows[1].hybrid_ns,
            rows[1].sublinear_ns
        );
    }
}
