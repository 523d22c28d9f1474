//! Extension experiment: device sensitivity.
//!
//! Planner overheads scale differently with the accelerator generation:
//! recomputation shrinks with compute throughput, while DTR's metadata
//! maintenance is host-side and stays constant — so on a faster device the
//! dynamic planner's *relative* overhead grows and the gap to Mimose widens.

use crate::planners::{build_policy, PlannerKind};
use crate::table::render_table;
use crate::tasks::Task;
use mimose_exec::Session;
use mimose_simgpu::DeviceProfile;

/// One (device, planner) cell.
pub struct DeviceRow {
    /// Device label.
    pub device: &'static str,
    /// Planner.
    pub planner: PlannerKind,
    /// Time normalised to that device's unconstrained baseline.
    pub normalized: f64,
}

/// Run the sensitivity grid on TC-Bert under `budget`.
#[must_use]
///
/// # Panics
///
/// Panics when an underlying training run fails.
pub fn run(budget: usize, iters: usize) -> Vec<DeviceRow> {
    let task = Task::tc_bert();
    let mut rows = Vec::new();
    for (label, dev) in [
        ("V100", DeviceProfile::v100()),
        ("A100", DeviceProfile::a100()),
    ] {
        let total = |kind: PlannerKind| -> u64 {
            let summary = Session::builder(&task.model, &task.dataset)
                .policy_boxed(build_policy(kind, &task, budget))
                .seed(17)
                .device(dev.clone())
                .build()
                .and_then(|mut session| session.run_summary(iters));
            summary.expect("device run").total_ns
        };
        let base = total(PlannerKind::Baseline);
        for kind in [
            PlannerKind::Sublinear,
            PlannerKind::Dtr,
            PlannerKind::Mimose,
        ] {
            rows.push(DeviceRow {
                device: label,
                planner: kind,
                normalized: total(kind) as f64 / base as f64,
            });
        }
    }
    rows
}

/// Render the sensitivity table.
#[must_use]
pub fn render(rows: &[DeviceRow], budget: usize) -> String {
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.device.to_string(),
                r.planner.name().to_string(),
                format!("{:.3}", r.normalized),
            ]
        })
        .collect();
    render_table(
        &format!(
            "Extension: device sensitivity (TC-Bert, budget {} GiB)",
            budget >> 30
        ),
        &["device", "planner", "norm. time"],
        &t,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtr_overhead_grows_on_faster_devices() {
        let rows = run(5 << 30, 60);
        let get = |device: &str, planner: PlannerKind| {
            rows.iter()
                .find(|r| r.device == device && r.planner == planner)
                .expect("cell present")
                .normalized
        };
        // DTR's host-side bookkeeping is a larger fraction of the faster
        // device's iteration.
        assert!(
            get("A100", PlannerKind::Dtr) > get("V100", PlannerKind::Dtr),
            "a100 {} !> v100 {}",
            get("A100", PlannerKind::Dtr),
            get("V100", PlannerKind::Dtr)
        );
        // Mimose stays the cheapest budgeted planner on both devices.
        for d in ["V100", "A100"] {
            assert!(get(d, PlannerKind::Mimose) < get(d, PlannerKind::Sublinear));
            assert!(get(d, PlannerKind::Mimose) < get(d, PlannerKind::Dtr));
        }
    }
}
