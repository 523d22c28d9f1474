//! Every metric the benchmark reports, by name and unit, and the output
//! format: one `workload metric value unit` line per metric, then one JSON
//! result line. `BENCHMARK.json` lists the same names and units with each
//! end-to-end metric's bound and direction; a test keeps the two in step.

use crate::stats::Fnv;
use mimose_exec::{IterationReport, TimeBreakdown};
use std::collections::BTreeMap;

/// A metric's name and unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the simulator sees, on every workload. Host metrics are
/// wall-clock costs of running the simulator on this machine; `sim_*`
/// metrics are read off the simulated (virtual) clock and are exact for a
/// given seed.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("host_iters_per_s", "1/s"),
    m("host_peak_rss_mib", "MiB"),
    m("sim_iters_per_s", "1/s"),
    m("sim_overhead_pct", "%"),
];

/// One layer each, named `<crate>.<metric>`. A metric that does not apply
/// to a workload reads 0 there (for instance `cluster.*` on the train
/// workloads).
pub const PER_LAYER: &[Metric] = &[
    m("data.batch_ns_p50", "ns"),
    m("models.profile_ns_p50", "ns"),
    m("models.profile_share_pct", "%"),
    m("models.worst_profile_s", "s"),
    m("core.plan_ns_p50", "ns"),
    m("core.plan_ns_p99", "ns"),
    m("core.plan_share_pct", "%"),
    m("core.shuttle_ns_p50", "ns"),
    m("core.certified_hit_ns_p50", "ns"),
    m("core.cache_hit_ns_p50", "ns"),
    m("core.repair_ns_p50", "ns"),
    m("core.cold_solve_ns_p50", "ns"),
    m("core.shuttle_iters", "count"),
    m("core.certified_hits", "count"),
    m("core.cache_hits", "count"),
    m("core.repairs", "count"),
    m("core.cold_solves", "count"),
    m("core.hit_ratio", "ratio"),
    m("core.observe_ns_p50", "ns"),
    m("estimator.fits", "count"),
    m("estimator.fit_ns_max", "ns"),
    m("planner.policy_build_s", "s"),
    m("exec.step_ns_p50", "ns"),
    m("exec.step_ns_p99", "ns"),
    m("exec.engine_ns_p50", "ns"),
    m("exec.engine_share_pct", "%"),
    m("exec.session_build_s", "s"),
    m("exec.predict_s", "s"),
    m("exec.replay_step_s", "s"),
    m("exec.recovered_iters", "count"),
    m("exec.recovery_events", "count"),
    m("exec.sim_recompute_pct", "%"),
    m("exec.sim_recovery_pct", "%"),
    m("exec.failed_pct", "%"),
    m("exec.recovered_pct", "%"),
    m("runtime.events_per_iter", "count"),
    m("runtime.record_overhead_pct", "%"),
    m("simgpu.sim_allocator_pct", "%"),
    m("simgpu.peak_frag_gib", "GiB"),
    m("simgpu.peak_extent_gib", "GiB"),
    m("simgpu.budget_violation_pct", "%"),
    m("chaos.faulted_iters", "count"),
    m("cluster.self_pct", "%"),
    m("cluster.events", "count"),
    m("cluster.events_per_s", "1/s"),
    m("cluster.dispatches", "count"),
    m("cluster.admitted", "count"),
    m("cluster.verified_admits", "count"),
    m("cluster.demoted", "count"),
    m("cluster.rejected", "count"),
    m("cluster.deferred_rounds", "count"),
    m("cluster.admission_err_pct", "%"),
    m("cluster.rounds", "count"),
    m("cluster.utilization_pct", "%"),
    m("cluster.report_json_ms", "ms"),
    m("cluster.report_json_bytes", "B"),
    m("cluster.goodput_iters_per_s", "1/s"),
    m("cluster.queue_wait_p50_s", "s"),
    m("cluster.queue_wait_p99_s", "s"),
    m("cluster.shed_pct", "%"),
    m("audit.lint_cluster_ms", "ms"),
    m("audit.lint_recovery_ms", "ms"),
    m("bench.unattributed_pct", "%"),
    m("bench.trace_overhead_pct", "%"),
];

/// The unit of a known metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// Percentage `part / whole`, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

const GIB: f64 = (1u64 << 30) as f64;

/// Simulated (virtual-clock) totals over a set of iteration reports, and
/// the digest of every report.
#[derive(Default)]
pub struct SimTotals {
    pub iters: usize,
    pub fatal: usize,
    pub recovered: usize,
    pub recovery_events: usize,
    pub over_budget: usize,
    pub time: TimeBreakdown,
    pub max_frag: usize,
    pub max_extent: usize,
    pub digest: Fnv,
}

impl SimTotals {
    /// Fold in one report of a job trained under `budget` bytes.
    pub fn absorb(&mut self, r: &IterationReport, budget: usize) {
        self.digest.debug(r);
        self.iters += 1;
        self.fatal += usize::from(!r.ok());
        self.recovered += usize::from(r.recovered());
        self.recovery_events += r.recovery.len();
        self.over_budget += usize::from(r.peak_extent > budget);
        self.time.add(&r.time);
        self.max_frag = self.max_frag.max(r.frag_bytes);
        self.max_extent = self.max_extent.max(r.peak_extent);
    }

    pub fn total_ns(&self) -> f64 {
        self.time.total_ns() as f64
    }

    /// The simulated metrics both kinds of workload share.
    pub fn report(&self, out: &mut Outcome) {
        let total = self.total_ns();
        let iters = self.iters as f64;
        out.set(
            "sim_overhead_pct",
            pct(total - self.time.compute_ns as f64, total),
        );
        out.set(
            "exec.sim_recompute_pct",
            pct(self.time.recompute_ns as f64, total),
        );
        out.set(
            "exec.sim_recovery_pct",
            pct(self.time.recovery_ns as f64, total),
        );
        out.set("exec.recovered_iters", self.recovered as f64);
        out.set("exec.recovery_events", self.recovery_events as f64);
        out.set("exec.recovered_pct", pct(self.recovered as f64, iters));
        out.set(
            "simgpu.sim_allocator_pct",
            pct(self.time.allocator_ns as f64, total),
        );
        out.set("simgpu.peak_frag_gib", self.max_frag as f64 / GIB);
        out.set("simgpu.peak_extent_gib", self.max_extent as f64 / GIB);
        out.set(
            "simgpu.budget_violation_pct",
            pct(self.over_budget as f64, iters),
        );
    }
}

/// One workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks; empty when the run is correct.
    pub errors: Vec<String>,
    /// Simulated iterations attempted across the timed rounds.
    pub attempted: usize,
    /// Of those, iterations that failed: fatal OOMs and executor errors.
    pub failed: usize,
    /// Every metric measured, by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Set to 0 every per-layer metric whose name starts with one of
    /// `prefixes`: the layers a workload does not exercise.
    pub fn zero(&mut self, prefixes: &[&str]) {
        for m in PER_LAYER {
            if prefixes.iter().any(|p| m.name.starts_with(p)) {
                self.values.insert(m.name, 0.0);
            }
        }
    }

    /// Record a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The `workload metric value unit` lines, for every metric measured.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.values
            .iter()
            .map(|(name, v)| format!("{workload} {name} {v} {}", unit(name).unwrap_or("?")))
            .collect()
    }

    /// The result line: the end-to-end metrics for an untraced run, the
    /// per-layer ones for a traced run. A metric that was not measured, or
    /// is not a finite number, is itself a failed check.
    pub fn result_json(&mut self, traced: bool) -> String {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(set.len());
        for metric in set {
            match self.values.get(metric.name) {
                Some(v) if v.is_finite() => fields.push(format!(
                    "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                    metric.name, metric.unit
                )),
                other => self
                    .errors
                    .push(format!("metric {} not measured ({other:?})", metric.name)),
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_holds_exactly_the_requested_set() {
        let mut out = Outcome::default();
        for m in END_TO_END {
            out.set(m.name, 1.5);
        }
        let line = out.result_json(false);
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let metrics = v.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // The traced set is missing here, so asking for it fails the run.
        let line = out.result_json(true);
        assert_eq!(
            Json::parse(&line).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
