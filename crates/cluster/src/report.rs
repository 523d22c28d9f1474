//! Fleet reporting: per-job and per-device rollups, SLO tail percentiles,
//! plus the [`ClusterReport`] with its deterministic JSON encoding (stable
//! field order, integral counters, fixed-precision floats — two runs with
//! the same seed serialize byte-identically).

use crate::admission::AdmissionStats;
use crate::events::{FleetEvent, FleetEventKind};
use mimose_chaos::FleetFaultPlan;
use mimose_data::ArrivalProcess;
use mimose_planner::PlanTierStats;

/// How a job's cluster run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran every requested iteration on one device.
    Completed,
    /// Ran every requested iteration, surviving at least one device loss
    /// via checkpointed migration.
    Migrated,
    /// No device in the pool could ever admit it.
    Rejected,
    /// Explicitly dropped by fleet load shedding: after device loss, no
    /// surviving device could ever hold it, the whole pool died, or (in
    /// event-driven mode) the bounded queue was full on arrival.
    Shed(String),
    /// Aborted mid-run on a typed executor error, or displaced past the
    /// retry budget.
    Failed(String),
}

impl JobOutcome {
    /// Stable lowercase tag for serialization.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Migrated => "migrated",
            JobOutcome::Rejected => "rejected",
            JobOutcome::Shed(_) => "shed",
            JobOutcome::Failed(_) => "failed",
        }
    }

    /// True when the job executed every requested iteration (with or
    /// without migrating).
    #[must_use]
    pub fn finished(&self) -> bool {
        matches!(self, JobOutcome::Completed | JobOutcome::Migrated)
    }
}

/// One contiguous span of a job's execution on one device. A job that
/// never migrates has exactly one placement; each migration opens a new
/// one. Placements let the audit layer re-derive per-device busy time and
/// iteration counts even when jobs move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlacement {
    /// Device the span ran on.
    pub device: usize,
    /// Virtual nanoseconds of iteration time executed in the span.
    pub busy_ns: u64,
    /// Iterations executed in the span.
    pub iters: usize,
}

/// Fleet-level fault-tolerance rollup: what the failure protocol did,
/// re-derivable from the [`FleetEvent`] chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Devices that left for good during the run: lost, or down with no
    /// return ahead (an outage that turns into a loss). A device counts
    /// from the first down event that says it never returns, even when
    /// the run ends before the loss itself.
    pub devices_lost: usize,
    /// Jobs checkpointed off a dying device.
    pub checkpoints: usize,
    /// Checkpointed jobs successfully resumed on a surviving device.
    pub migrations: usize,
    /// Jobs explicitly shed because the degraded pool could never place
    /// them (or their arrival overflowed the bounded queue).
    pub shed_jobs: usize,
    /// Jobs that ended in failure (executor errors or retry exhaustion).
    pub failed_jobs: usize,
    /// The retry budget displaced jobs were bounded by.
    pub max_retries: usize,
    /// Total modeled checkpoint/restore overhead, virtual nanoseconds
    /// (accounted per job, separate from device busy time).
    pub overhead_ns: u64,
}

/// Nearest-rank percentile over an unsorted sample: the smallest element
/// such that at least `p`% of the sample is ≤ it. Returns 0 for an empty
/// sample. `p` is in (0, 100].
fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Service-level rollup: queue-wait and iteration-latency tail
/// percentiles, goodput, and rejection/shed rates. Folded identically in
/// both modes from the per-job rows, and re-derived independently by the
/// audit layer from the same rows — a quoted tail can never drift from
/// the evidence behind it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloRollup {
    /// Median queue wait over dispatched jobs, virtual nanoseconds.
    pub queue_wait_p50_ns: u64,
    /// 95th-percentile queue wait (nearest rank).
    pub queue_wait_p95_ns: u64,
    /// 99th-percentile queue wait (nearest rank).
    pub queue_wait_p99_ns: u64,
    /// Median per-iteration latency over every executed iteration.
    pub iter_latency_p50_ns: u64,
    /// 95th-percentile iteration latency (nearest rank).
    pub iter_latency_p95_ns: u64,
    /// 99th-percentile iteration latency (nearest rank).
    pub iter_latency_p99_ns: u64,
    /// Iterations executed by jobs that finished (completed or migrated):
    /// work the fleet delivered, not just attempted.
    pub goodput_iters: usize,
    /// `goodput_iters` per virtual second of makespan.
    pub goodput_iters_per_s: f64,
    /// Jobs admission rejected outright.
    pub rejected_jobs: usize,
    /// Jobs the fleet shed (degraded pool or full queue).
    pub shed_jobs: usize,
    /// Jobs that failed mid-run.
    pub failed_jobs: usize,
    /// `rejected_jobs` as a percentage of submissions.
    pub rejection_rate_pct: f64,
    /// `shed_jobs` as a percentage of submissions.
    pub shed_rate_pct: f64,
}

impl SloRollup {
    /// Fold the rollup from per-job rows plus the flat list of every
    /// executed iteration's latency. Queue waits count only jobs that
    /// actually dispatched (`device` set); goodput counts only iterations
    /// of jobs that finished.
    #[must_use]
    pub fn fold(jobs: &[JobReport], iter_latencies: &[u64], makespan_ns: u64) -> SloRollup {
        let waits: Vec<u64> = jobs
            .iter()
            .filter(|j| j.device.is_some())
            .map(|j| j.queue_wait_ns)
            .collect();
        let goodput_iters: usize = jobs
            .iter()
            .filter(|j| j.outcome.finished())
            .map(|j| j.iters)
            .sum();
        let goodput_iters_per_s = if makespan_ns > 0 {
            goodput_iters as f64 / (makespan_ns as f64 / 1e9)
        } else {
            0.0
        };
        let rejected_jobs = jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Rejected)
            .count();
        let shed_jobs = jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Shed(_)))
            .count();
        let failed_jobs = jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Failed(_)))
            .count();
        let rate = |n: usize| {
            if jobs.is_empty() {
                0.0
            } else {
                n as f64 / jobs.len() as f64 * 100.0
            }
        };
        SloRollup {
            queue_wait_p50_ns: percentile(&waits, 50.0),
            queue_wait_p95_ns: percentile(&waits, 95.0),
            queue_wait_p99_ns: percentile(&waits, 99.0),
            iter_latency_p50_ns: percentile(iter_latencies, 50.0),
            iter_latency_p95_ns: percentile(iter_latencies, 95.0),
            iter_latency_p99_ns: percentile(iter_latencies, 99.0),
            goodput_iters,
            goodput_iters_per_s,
            rejected_jobs,
            shed_jobs,
            failed_jobs,
            rejection_rate_pct: rate(rejected_jobs),
            shed_rate_pct: rate(shed_jobs),
        }
    }
}

/// One job's rollup.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Policy display name.
    pub policy: String,
    /// The policy's memory budget in bytes (`None` for the unconstrained
    /// baseline) — the knob behind the policy name, echoed so report rows
    /// are self-describing.
    pub budget_bytes: Option<usize>,
    /// Device index the job ran on (`None` when rejected).
    pub device: Option<usize>,
    /// How the run ended.
    pub outcome: JobOutcome,
    /// Whether admission dispatched it with demotion armed.
    pub demoted: bool,
    /// Iterations executed.
    pub iters: usize,
    /// Virtual instant the job entered the fleet (always 0 in BSP mode).
    pub arrival_ns: u64,
    /// Time spent queued: dispatch instant minus arrival instant.
    pub queue_wait_ns: u64,
    /// Virtual instant the job's last iteration completed (`None` in BSP
    /// mode, and for jobs that never finished).
    pub finish_ns: Option<u64>,
    /// Summed iteration time.
    pub total_ns: u64,
    /// Highest peak residency over the run.
    pub max_peak_bytes: usize,
    /// Iterations ending in unrecovered OOM.
    pub oom_iters: usize,
    /// Iterations rescued by the recovery ladder.
    pub recovered_iters: usize,
    /// Recovery-ladder rungs taken.
    pub recovery_events: usize,
    /// Mimose shuttle (collection) iterations.
    pub shuttle_iters: usize,
    /// Planning-tier ladder counters (certified hit → cached hit → repair
    /// → cold solve) for runtime planners; `None` for static policies.
    pub plan_tiers: Option<PlanTierStats>,
    /// Successful checkpoint-and-resume moves between devices.
    pub migrations: usize,
    /// Times the job was displaced off a dying device (bounded by the
    /// spec's retry budget).
    pub retries: usize,
    /// Modeled checkpoint/restore overhead attributed to this job,
    /// virtual nanoseconds (separate from device busy time).
    pub fleet_overhead_ns: u64,
    /// The policy's predicted first-iteration peak over the raw
    /// (pre-pass) graph — what admission would have gated on without
    /// the optimization pipeline (`None` when the job never profiled).
    pub graph_raw_peak_bytes: Option<usize>,
    /// The same prediction over the optimized graph, the number
    /// admission actually gated on; the gap to `graph_raw_peak_bytes`
    /// is the pass pipeline's credit.
    pub graph_opt_peak_bytes: Option<usize>,
    /// Why admission demoted or rejected the job (`None` for a plain
    /// admit); the first non-trivial decision the job received.
    pub admission_reason: Option<String>,
    /// Per-device execution spans, in execution order (empty when the
    /// job never dispatched).
    pub placements: Vec<JobPlacement>,
}

/// One device's rollup.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Device index in the pool.
    pub index: usize,
    /// Arena capacity in bytes.
    pub capacity_bytes: usize,
    /// Virtual nanoseconds the device spent executing iterations.
    pub busy_ns: u64,
    /// Jobs that ran to their end (completion or failure) here.
    pub jobs_run: usize,
    /// Iterations executed here.
    pub iters: usize,
    /// True when the fault plan removed this device for good during the
    /// run (see [`FleetStats::devices_lost`]).
    pub lost: bool,
}

/// The whole fleet's rollup.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Dispatch policy name.
    pub schedule: String,
    /// Execution mode name ("bsp" or "event-driven").
    pub mode: String,
    /// The arrival process the run executed under, embedded so the
    /// report is self-describing (always `Immediate` in BSP mode).
    pub arrivals: ArrivalProcess,
    /// BSP rounds (or event-loop epochs) executed.
    pub rounds: usize,
    /// Virtual time at which the last device went idle (BSP: max device
    /// busy time; event-driven: the last fleet event's timestamp).
    pub makespan_ns: u64,
    /// Summed busy time across devices.
    pub busy_ns: u64,
    /// `busy / (makespan × devices)`, percent.
    pub utilization_pct: f64,
    /// Mean queue wait over dispatched jobs.
    pub mean_queue_wait_ns: u64,
    /// Worst queue wait over dispatched jobs.
    pub max_queue_wait_ns: u64,
    /// Fleet totals of the per-job OOM/recovery counters.
    pub oom_iters: usize,
    /// Iterations rescued by the ladder, fleet-wide.
    pub recovered_iters: usize,
    /// Recovery rungs taken, fleet-wide.
    pub recovery_events: usize,
    /// Admission outcomes and prediction quality.
    pub admission: AdmissionStats,
    /// SLO tails: queue-wait/iteration-latency percentiles, goodput, and
    /// rejection/shed rates.
    pub slo: SloRollup,
    /// Fault-tolerance rollup (all zeros on a clean run).
    pub fleet: FleetStats,
    /// The fault plan the run executed under, embedded so a gated chaos
    /// run's evidence is self-describing.
    pub fault_plan: FleetFaultPlan,
    /// The typed fleet-event chain, in observation order (empty on a
    /// clean BSP run; never empty in event-driven mode).
    pub events: Vec<FleetEvent>,
    /// Per-device rollups, in index order.
    pub devices: Vec<DeviceReport>,
    /// Per-job rollups, in submission order.
    pub jobs: Vec<JobReport>,
}

fn push_kv_u(out: &mut String, key: &str, v: u128, comma: bool) {
    out.push_str(&format!("\"{key}\":{v}"));
    if comma {
        out.push(',');
    }
}

fn push_kv_f(out: &mut String, key: &str, v: f64, comma: bool) {
    out.push_str(&format!("\"{key}\":{v:.4}"));
    if comma {
        out.push(',');
    }
}

fn push_kv_s(out: &mut String, key: &str, v: &str, comma: bool) {
    // Names here are identifier-like; escape the two JSON-critical chars
    // anyway so arbitrary job names stay well-formed.
    let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
    out.push_str(&format!("\"{key}\":\"{escaped}\""));
    if comma {
        out.push(',');
    }
}

fn push_event(o: &mut String, e: &FleetEvent) {
    o.push('{');
    push_kv_u(o, "round", e.round as u128, true);
    push_kv_u(o, "at_ns", u128::from(e.at_ns), true);
    push_kv_s(o, "kind", e.kind.tag(), true);
    match &e.kind {
        FleetEventKind::Arrive { job } => {
            push_kv_u(o, "job", *job as u128, true);
        }
        FleetEventKind::Dispatch { job, device, seq } => {
            push_kv_u(o, "job", *job as u128, true);
            push_kv_u(o, "device", *device as u128, true);
            push_kv_u(o, "seq", *seq as u128, true);
        }
        FleetEventKind::Complete { job, device } => {
            push_kv_u(o, "job", *job as u128, true);
            push_kv_u(o, "device", *device as u128, true);
        }
        FleetEventKind::DeviceDown {
            device,
            until_round,
        } => {
            push_kv_u(o, "device", *device as u128, true);
            match until_round {
                Some(r) => push_kv_u(o, "until_round", *r as u128, true),
                None => o.push_str("\"until_round\":null,"),
            }
        }
        FleetEventKind::DeviceUp { device } => {
            push_kv_u(o, "device", *device as u128, true);
        }
        FleetEventKind::Checkpoint {
            job,
            device,
            cursor,
        } => {
            push_kv_u(o, "job", *job as u128, true);
            push_kv_u(o, "device", *device as u128, true);
            push_kv_u(o, "cursor", *cursor as u128, true);
        }
        FleetEventKind::Requeue { job, retries } => {
            push_kv_u(o, "job", *job as u128, true);
            push_kv_u(o, "retries", *retries as u128, true);
        }
        FleetEventKind::Backoff { job, until_round } => {
            push_kv_u(o, "job", *job as u128, true);
            push_kv_u(o, "until_round", *until_round as u128, true);
        }
        FleetEventKind::Migrate {
            job,
            from,
            to,
            cursor,
            seq,
        } => {
            push_kv_u(o, "job", *job as u128, true);
            push_kv_u(o, "from", *from as u128, true);
            push_kv_u(o, "to", *to as u128, true);
            push_kv_u(o, "cursor", *cursor as u128, true);
            push_kv_u(o, "seq", *seq as u128, true);
        }
        FleetEventKind::Reject { job, reason }
        | FleetEventKind::Shed { job, reason }
        | FleetEventKind::Fail { job, reason } => {
            push_kv_u(o, "job", *job as u128, true);
            push_kv_s(o, "reason", reason, true);
        }
    }
    push_kv_u(o, "cost_ns", u128::from(e.cost_ns), false);
    o.push('}');
}

impl ClusterReport {
    /// Deterministic JSON encoding (see module docs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push('{');
        push_kv_s(&mut o, "schedule", &self.schedule, true);
        push_kv_s(&mut o, "mode", &self.mode, true);
        push_kv_u(&mut o, "rounds", self.rounds as u128, true);
        push_kv_u(&mut o, "makespan_ns", self.makespan_ns as u128, true);
        push_kv_u(&mut o, "busy_ns", self.busy_ns as u128, true);
        push_kv_f(&mut o, "utilization_pct", self.utilization_pct, true);
        push_kv_u(
            &mut o,
            "mean_queue_wait_ns",
            self.mean_queue_wait_ns as u128,
            true,
        );
        push_kv_u(
            &mut o,
            "max_queue_wait_ns",
            self.max_queue_wait_ns as u128,
            true,
        );
        push_kv_u(&mut o, "oom_iters", self.oom_iters as u128, true);
        push_kv_u(
            &mut o,
            "recovered_iters",
            self.recovered_iters as u128,
            true,
        );
        push_kv_u(
            &mut o,
            "recovery_events",
            self.recovery_events as u128,
            true,
        );

        o.push_str("\"admission\":{");
        let a = &self.admission;
        push_kv_u(&mut o, "admitted", a.admitted as u128, true);
        push_kv_u(&mut o, "verified_admits", a.verified_admits as u128, true);
        push_kv_u(&mut o, "demoted", a.demoted as u128, true);
        push_kv_u(&mut o, "rejected", a.rejected as u128, true);
        push_kv_u(&mut o, "deferred_rounds", a.deferred_rounds as u128, true);
        push_kv_u(&mut o, "predictions", a.predictions as u128, true);
        push_kv_u(&mut o, "within_10pct", a.within_10pct as u128, true);
        push_kv_f(
            &mut o,
            "mean_abs_rel_err_pct",
            a.mean_abs_rel_err_pct(),
            false,
        );
        o.push_str("},");

        o.push_str("\"slo\":{");
        let s = &self.slo;
        push_kv_u(
            &mut o,
            "queue_wait_p50_ns",
            u128::from(s.queue_wait_p50_ns),
            true,
        );
        push_kv_u(
            &mut o,
            "queue_wait_p95_ns",
            u128::from(s.queue_wait_p95_ns),
            true,
        );
        push_kv_u(
            &mut o,
            "queue_wait_p99_ns",
            u128::from(s.queue_wait_p99_ns),
            true,
        );
        push_kv_u(
            &mut o,
            "iter_latency_p50_ns",
            u128::from(s.iter_latency_p50_ns),
            true,
        );
        push_kv_u(
            &mut o,
            "iter_latency_p95_ns",
            u128::from(s.iter_latency_p95_ns),
            true,
        );
        push_kv_u(
            &mut o,
            "iter_latency_p99_ns",
            u128::from(s.iter_latency_p99_ns),
            true,
        );
        push_kv_u(&mut o, "goodput_iters", s.goodput_iters as u128, true);
        push_kv_f(&mut o, "goodput_iters_per_s", s.goodput_iters_per_s, true);
        push_kv_u(&mut o, "rejected_jobs", s.rejected_jobs as u128, true);
        push_kv_u(&mut o, "shed_jobs", s.shed_jobs as u128, true);
        push_kv_u(&mut o, "failed_jobs", s.failed_jobs as u128, true);
        push_kv_f(&mut o, "rejection_rate_pct", s.rejection_rate_pct, true);
        push_kv_f(&mut o, "shed_rate_pct", s.shed_rate_pct, false);
        o.push_str("},");

        o.push_str("\"fleet\":{");
        let f = &self.fleet;
        push_kv_u(&mut o, "devices_lost", f.devices_lost as u128, true);
        push_kv_u(&mut o, "checkpoints", f.checkpoints as u128, true);
        push_kv_u(&mut o, "migrations", f.migrations as u128, true);
        push_kv_u(&mut o, "shed_jobs", f.shed_jobs as u128, true);
        push_kv_u(&mut o, "failed_jobs", f.failed_jobs as u128, true);
        push_kv_u(&mut o, "max_retries", f.max_retries as u128, true);
        push_kv_u(&mut o, "overhead_ns", u128::from(f.overhead_ns), false);
        o.push_str("},");

        o.push_str("\"arrivals\":");
        o.push_str(&self.arrivals.to_json());
        o.push(',');

        o.push_str("\"fault_plan\":");
        o.push_str(&self.fault_plan.to_json());
        o.push(',');

        o.push_str("\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            push_event(&mut o, e);
            if i + 1 < self.events.len() {
                o.push(',');
            }
        }
        o.push_str("],");

        o.push_str("\"devices\":[");
        for (i, d) in self.devices.iter().enumerate() {
            o.push('{');
            push_kv_u(&mut o, "index", d.index as u128, true);
            push_kv_u(&mut o, "capacity_bytes", d.capacity_bytes as u128, true);
            push_kv_u(&mut o, "busy_ns", d.busy_ns as u128, true);
            push_kv_u(&mut o, "jobs_run", d.jobs_run as u128, true);
            push_kv_u(&mut o, "iters", d.iters as u128, true);
            o.push_str(&format!("\"lost\":{}", d.lost));
            o.push('}');
            if i + 1 < self.devices.len() {
                o.push(',');
            }
        }
        o.push_str("],");

        o.push_str("\"jobs\":[");
        for (i, j) in self.jobs.iter().enumerate() {
            o.push('{');
            push_kv_s(&mut o, "name", &j.name, true);
            push_kv_s(&mut o, "policy", &j.policy, true);
            match j.budget_bytes {
                Some(b) => push_kv_u(&mut o, "budget_bytes", b as u128, true),
                None => o.push_str("\"budget_bytes\":null,"),
            }
            match j.device {
                Some(d) => push_kv_u(&mut o, "device", d as u128, true),
                None => {
                    o.push_str("\"device\":null,");
                }
            }
            push_kv_s(&mut o, "outcome", j.outcome.tag(), true);
            o.push_str(&format!("\"demoted\":{},", j.demoted));
            push_kv_u(&mut o, "iters", j.iters as u128, true);
            push_kv_u(&mut o, "arrival_ns", u128::from(j.arrival_ns), true);
            push_kv_u(&mut o, "queue_wait_ns", j.queue_wait_ns as u128, true);
            match j.finish_ns {
                Some(t) => push_kv_u(&mut o, "finish_ns", u128::from(t), true),
                None => o.push_str("\"finish_ns\":null,"),
            }
            push_kv_u(&mut o, "total_ns", j.total_ns as u128, true);
            push_kv_u(&mut o, "max_peak_bytes", j.max_peak_bytes as u128, true);
            push_kv_u(&mut o, "oom_iters", j.oom_iters as u128, true);
            push_kv_u(&mut o, "recovered_iters", j.recovered_iters as u128, true);
            push_kv_u(&mut o, "recovery_events", j.recovery_events as u128, true);
            push_kv_u(&mut o, "shuttle_iters", j.shuttle_iters as u128, true);
            push_kv_u(&mut o, "migrations", j.migrations as u128, true);
            push_kv_u(&mut o, "retries", j.retries as u128, true);
            push_kv_u(
                &mut o,
                "fleet_overhead_ns",
                u128::from(j.fleet_overhead_ns),
                true,
            );
            match j.graph_raw_peak_bytes {
                Some(v) => push_kv_u(&mut o, "graph_raw_peak_bytes", v as u128, true),
                None => o.push_str("\"graph_raw_peak_bytes\":null,"),
            }
            match j.graph_opt_peak_bytes {
                Some(v) => push_kv_u(&mut o, "graph_opt_peak_bytes", v as u128, true),
                None => o.push_str("\"graph_opt_peak_bytes\":null,"),
            }
            match &j.admission_reason {
                Some(r) => push_kv_s(&mut o, "admission_reason", r, true),
                None => o.push_str("\"admission_reason\":null,"),
            }
            o.push_str("\"placements\":[");
            for (k, p) in j.placements.iter().enumerate() {
                o.push('{');
                push_kv_u(&mut o, "device", p.device as u128, true);
                push_kv_u(&mut o, "busy_ns", u128::from(p.busy_ns), true);
                push_kv_u(&mut o, "iters", p.iters as u128, false);
                o.push('}');
                if k + 1 < j.placements.len() {
                    o.push(',');
                }
            }
            o.push_str("],");
            match &j.plan_tiers {
                Some(t) => {
                    o.push_str("\"plan_tiers\":{");
                    push_kv_u(&mut o, "certified_hits", u128::from(t.certified_hits), true);
                    push_kv_u(&mut o, "cache_hits", u128::from(t.cache_hits), true);
                    push_kv_u(&mut o, "repaired_plans", u128::from(t.repaired_plans), true);
                    push_kv_u(&mut o, "cold_solves", u128::from(t.cold_solves), false);
                    o.push('}');
                }
                None => o.push_str("\"plan_tiers\":null"),
            }
            o.push('}');
            if i + 1 < self.jobs.len() {
                o.push(',');
            }
        }
        o.push_str("]}");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 99.0), 99);
        // Unsorted input sorts internally.
        assert_eq!(percentile(&[30, 10, 20], 50.0), 20);
        assert_eq!(percentile(&[30, 10, 20], 99.0), 30);
    }

    fn row(name: &str, outcome: JobOutcome, device: Option<usize>, wait: u64) -> JobReport {
        JobReport {
            name: name.into(),
            policy: "Baseline".into(),
            budget_bytes: None,
            device,
            outcome,
            demoted: false,
            iters: 2,
            arrival_ns: 0,
            queue_wait_ns: wait,
            finish_ns: None,
            total_ns: 90,
            max_peak_bytes: 8,
            oom_iters: 0,
            recovered_iters: 0,
            recovery_events: 0,
            shuttle_iters: 0,
            plan_tiers: None,
            migrations: 0,
            retries: 0,
            fleet_overhead_ns: 0,
            graph_raw_peak_bytes: None,
            graph_opt_peak_bytes: None,
            admission_reason: None,
            placements: vec![],
        }
    }

    #[test]
    fn slo_fold_counts_only_what_it_should() {
        let jobs = vec![
            row("a", JobOutcome::Completed, Some(0), 10),
            row("b", JobOutcome::Migrated, Some(1), 30),
            row("c", JobOutcome::Rejected, None, 0),
            row("d", JobOutcome::Shed("full".into()), None, 0),
        ];
        let slo = SloRollup::fold(&jobs, &[5, 15, 25], 2_000_000_000);
        // Waits: only the two dispatched jobs.
        assert_eq!(slo.queue_wait_p50_ns, 10);
        assert_eq!(slo.queue_wait_p99_ns, 30);
        assert_eq!(slo.iter_latency_p50_ns, 15);
        // Goodput: the two finished jobs × 2 iters over 2 virtual seconds.
        assert_eq!(slo.goodput_iters, 4);
        assert!((slo.goodput_iters_per_s - 2.0).abs() < 1e-9);
        assert_eq!(slo.rejected_jobs, 1);
        assert_eq!(slo.shed_jobs, 1);
        assert_eq!(slo.failed_jobs, 0);
        assert!((slo.rejection_rate_pct - 25.0).abs() < 1e-9);
        assert!((slo.shed_rate_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_stable_and_escapes_names() {
        let jobs = vec![JobReport {
            name: "job \"a\"".into(),
            policy: "Baseline".into(),
            budget_bytes: Some(1 << 30),
            device: Some(0),
            outcome: JobOutcome::Migrated,
            demoted: false,
            iters: 2,
            arrival_ns: 7,
            queue_wait_ns: 0,
            finish_ns: Some(97),
            total_ns: 90,
            max_peak_bytes: 8,
            oom_iters: 0,
            recovered_iters: 0,
            recovery_events: 0,
            shuttle_iters: 0,
            plan_tiers: Some(PlanTierStats {
                certified_hits: 3,
                cache_hits: 1,
                repaired_plans: 2,
                cold_solves: 1,
            }),
            migrations: 1,
            retries: 1,
            fleet_overhead_ns: 65_000,
            graph_raw_peak_bytes: Some(12),
            graph_opt_peak_bytes: Some(8),
            admission_reason: Some("fits under \"usable\"".into()),
            placements: vec![
                JobPlacement {
                    device: 1,
                    busy_ns: 40,
                    iters: 1,
                },
                JobPlacement {
                    device: 0,
                    busy_ns: 50,
                    iters: 1,
                },
            ],
        }];
        let slo = SloRollup::fold(&jobs, &[40, 50], 100);
        let report = ClusterReport {
            schedule: "fifo".into(),
            mode: "event-driven".into(),
            arrivals: ArrivalProcess::poisson(1_000, 7),
            rounds: 2,
            makespan_ns: 100,
            busy_ns: 90,
            utilization_pct: 45.0,
            mean_queue_wait_ns: 5,
            max_queue_wait_ns: 10,
            oom_iters: 0,
            recovered_iters: 0,
            recovery_events: 0,
            admission: AdmissionStats::default(),
            slo,
            fleet: FleetStats {
                devices_lost: 1,
                checkpoints: 1,
                migrations: 1,
                shed_jobs: 0,
                failed_jobs: 0,
                max_retries: 3,
                overhead_ns: 65_000,
            },
            fault_plan: FleetFaultPlan::none(0),
            events: vec![
                FleetEvent {
                    round: 0,
                    at_ns: 7,
                    kind: FleetEventKind::Arrive { job: 0 },
                    cost_ns: 0,
                },
                FleetEvent {
                    round: 0,
                    at_ns: 7,
                    kind: FleetEventKind::Dispatch {
                        job: 0,
                        device: 1,
                        seq: 0,
                    },
                    cost_ns: 0,
                },
                FleetEvent {
                    round: 1,
                    at_ns: 47,
                    kind: FleetEventKind::DeviceDown {
                        device: 1,
                        until_round: None,
                    },
                    cost_ns: 0,
                },
                FleetEvent {
                    round: 1,
                    at_ns: 47,
                    kind: FleetEventKind::Checkpoint {
                        job: 0,
                        device: 1,
                        cursor: 1,
                    },
                    cost_ns: 25_000,
                },
                FleetEvent {
                    round: 2,
                    at_ns: 47,
                    kind: FleetEventKind::Migrate {
                        job: 0,
                        from: 1,
                        to: 0,
                        cursor: 1,
                        seq: 2,
                    },
                    cost_ns: 40_000,
                },
                FleetEvent {
                    round: 3,
                    at_ns: 97,
                    kind: FleetEventKind::Complete { job: 0, device: 0 },
                    cost_ns: 0,
                },
            ],
            devices: vec![DeviceReport {
                index: 0,
                capacity_bytes: 16,
                busy_ns: 90,
                jobs_run: 1,
                iters: 2,
                lost: false,
            }],
            jobs,
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schedule\":\"fifo\",\"mode\":\"event-driven\""));
        assert!(a.contains("job \\\"a\\\""));
        assert!(a.contains("\"utilization_pct\":45.0000"));
        assert!(a.contains(
            "\"plan_tiers\":{\"certified_hits\":3,\"cache_hits\":1,\
             \"repaired_plans\":2,\"cold_solves\":1}"
        ));
        assert!(a.contains("\"fleet\":{\"devices_lost\":1,"));
        assert!(a.contains("\"arrivals\":{\"kind\":\"poisson\""));
        assert!(a.contains("\"fault_plan\":{\"base\":{"));
        assert!(a.contains("\"slo\":{\"queue_wait_p50_ns\":0,"));
        assert!(a.contains("\"iter_latency_p50_ns\":40,"));
        assert!(a.contains("\"goodput_iters\":2,"));
        assert!(a.contains("\"kind\":\"arrive\",\"job\":0,\"cost_ns\":0"));
        assert!(a.contains("\"kind\":\"dispatch\",\"job\":0,\"device\":1,\"seq\":0"));
        assert!(a.contains("\"kind\":\"complete\",\"job\":0,\"device\":0"));
        assert!(
            a.contains("\"at_ns\":47,\"kind\":\"device-down\",\"device\":1,\"until_round\":null")
        );
        assert!(a.contains(
            "\"kind\":\"migrate\",\"job\":0,\"from\":1,\"to\":0,\
             \"cursor\":1,\"seq\":2,\"cost_ns\":40000"
        ));
        assert!(a.contains("\"outcome\":\"migrated\""));
        assert!(a.contains("\"budget_bytes\":1073741824,"));
        assert!(a.contains("\"arrival_ns\":7,"));
        assert!(a.contains("\"finish_ns\":97,"));
        assert!(a.contains("\"admission_reason\":\"fits under \\\"usable\\\"\""));
        assert!(a.contains("\"graph_raw_peak_bytes\":12,\"graph_opt_peak_bytes\":8,"));
        assert!(a.contains(
            "\"placements\":[{\"device\":1,\"busy_ns\":40,\"iters\":1},\
             {\"device\":0,\"busy_ns\":50,\"iters\":1}]"
        ));
        assert!(a.contains("\"lost\":false"));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn outcome_finished_covers_both_success_paths() {
        assert!(JobOutcome::Completed.finished());
        assert!(JobOutcome::Migrated.finished());
        assert!(!JobOutcome::Rejected.finished());
        assert!(!JobOutcome::Shed("x".into()).finished());
        assert!(!JobOutcome::Failed("x".into()).finished());
    }
}
