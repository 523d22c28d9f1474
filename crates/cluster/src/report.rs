//! Fleet reporting: per-job and per-device rollups, SLO tail percentiles,
//! plus the [`ClusterReport`] with its deterministic JSON encoding (stable
//! field order, integral counters, fixed-precision floats — two runs with
//! the same seed serialize byte-identically). The report embeds its
//! arrival process and fault plan; all of it is written through
//! [`mimose_runtime::json`].

use crate::admission::AdmissionStats;
use crate::events::{FleetEvent, FleetEventKind};
use mimose_chaos::{DeviceFault, FleetFaultPlan, TimedDeviceFault};
use mimose_data::{ArrivalProcess, LengthSampler};
use mimose_planner::PlanTierStats;
use mimose_runtime::json::{self, Exact, Fixed, Object};

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
    /// The arrival process the run executed under, embedded with every
    /// parameter (a sampled process's gap sampler, a trace's offsets) so
    /// the report is self-describing; floats carry the report's four
    /// decimals. Always `Immediate` in BSP mode.
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

/// Report floats carry four decimals.
fn f4(v: f64) -> Fixed {
    Fixed(v, 4)
}

fn event_json(o: &mut Object<'_>, e: &FleetEvent) {
    o.field("round", e.round)
        .field("at_ns", e.at_ns)
        .field("kind", e.kind.tag());
    match &e.kind {
        FleetEventKind::Arrive { job } => {
            o.field("job", job);
        }
        FleetEventKind::Dispatch { job, device, seq } => {
            o.field("job", job)
                .field("device", device)
                .field("seq", seq);
        }
        FleetEventKind::Complete { job, device } => {
            o.field("job", job).field("device", device);
        }
        FleetEventKind::Checkpoint {
            job,
            device,
            cursor,
        } => {
            o.field("job", job)
                .field("device", device)
                .field("cursor", cursor);
        }
        FleetEventKind::DeviceDown {
            device,
            until_round,
        } => {
            o.field("device", device).field("until_round", until_round);
        }
        FleetEventKind::DeviceUp { device } => {
            o.field("device", device);
        }
        FleetEventKind::Requeue { job, retries } => {
            o.field("job", job).field("retries", retries);
        }
        FleetEventKind::Backoff { job, until_round } => {
            o.field("job", job).field("until_round", until_round);
        }
        FleetEventKind::Migrate {
            job,
            from,
            to,
            cursor,
            seq,
        } => {
            o.field("job", job)
                .field("from", from)
                .field("to", to)
                .field("cursor", cursor)
                .field("seq", seq);
        }
        FleetEventKind::Reject { job, reason }
        | FleetEventKind::Shed { job, reason }
        | FleetEventKind::Fail { job, reason } => {
            o.field("job", job).field("reason", reason);
        }
    }
    o.field("cost_ns", e.cost_ns);
}

/// The arrival process as a descriptor: its kind and every parameter,
/// including a sampled process's gap sampler and a trace's offsets.
fn arrivals_json(o: &mut Object<'_>, arrivals: &ArrivalProcess) {
    o.field("kind", arrivals.name());
    match arrivals {
        ArrivalProcess::Immediate => {}
        ArrivalProcess::Poisson { mean_gap_ns, seed } => {
            o.field("mean_gap_ns", mean_gap_ns).field("seed", seed);
        }
        ArrivalProcess::Bursty {
            calm_gap_ns,
            burst_gap_ns,
            mean_phase_len,
            seed,
        } => {
            o.field("calm_gap_ns", calm_gap_ns)
                .field("burst_gap_ns", burst_gap_ns)
                .field("mean_phase_len", mean_phase_len)
                .field("seed", seed);
        }
        ArrivalProcess::Sampled {
            gaps,
            unit_ns,
            seed,
        } => {
            o.object("gaps", |o| sampler_json(o, gaps))
                .field("unit_ns", unit_ns)
                .field("seed", seed);
        }
        ArrivalProcess::Trace { offsets_ns } => {
            o.field("offsets_ns", offsets_ns.as_slice());
        }
    }
}

/// A length sampler: its kind and every parameter. Float parameters are
/// written [`Exact`], so a run rebuilt from the report draws from the same
/// distribution.
fn sampler_json(o: &mut Object<'_>, sampler: &LengthSampler) {
    match sampler {
        LengthSampler::Normal {
            mu,
            sigma,
            min,
            max,
        } => o
            .field("kind", "normal")
            .field("mu", Exact(*mu))
            .field("sigma", Exact(*sigma))
            .field("min", min)
            .field("max", max),
        LengthSampler::LogNormal {
            mu_ln,
            sigma_ln,
            min,
            max,
        } => o
            .field("kind", "lognormal")
            .field("mu_ln", Exact(*mu_ln))
            .field("sigma_ln", Exact(*sigma_ln))
            .field("min", min)
            .field("max", max),
        LengthSampler::Uniform { min, max } => o
            .field("kind", "uniform")
            .field("min", min)
            .field("max", max),
        LengthSampler::Ladder { steps } => {
            o.field("kind", "ladder").field("steps", steps.as_slice())
        }
    };
}

/// The whole fault plan: the base spec, then the round-indexed and the
/// timed lifecycle faults in declaration order.
fn fault_plan_json(o: &mut Object<'_>, plan: &FleetFaultPlan) {
    let b = plan.base();
    o.object("base", |o| {
        o.field("seed", b.seed)
            .field("estimator_bias", f4(b.estimator_bias))
            .field("estimator_noise", f4(b.estimator_noise))
            .object_or_null("capacity_shrink", b.capacity_shrink, |o, (at, f)| {
                o.field("at_iter", at).field("factor", f4(f));
            })
            .field("alloc_failure_rate", f4(b.alloc_failure_rate))
            .field("alloc_failures_per_iter", b.alloc_failures_per_iter)
            .field("alloc_failure_span", b.alloc_failure_span)
            .field("recompute_spike_rate", f4(b.recompute_spike_rate))
            .field("recompute_spike_factor", f4(b.recompute_spike_factor));
    });
    o.array("device_faults", |a| {
        for &(device, fault) in plan.device_faults() {
            a.object(|o| {
                o.field("device", device);
                match fault {
                    DeviceFault::Down { at_round, duration } => {
                        o.field("kind", "down")
                            .field("at_round", at_round)
                            .field("duration", duration);
                    }
                    DeviceFault::Lost { at_round } => {
                        o.field("kind", "lost").field("at_round", at_round);
                    }
                    DeviceFault::CapacityCollapse {
                        at_round,
                        duration,
                        factor,
                    } => {
                        o.field("kind", "capacity-collapse")
                            .field("at_round", at_round)
                            .field("duration", duration)
                            .field("factor", f4(factor));
                    }
                }
            });
        }
    });
    o.array("timed_faults", |a| {
        for &(device, fault) in plan.timed_faults() {
            a.object(|o| {
                o.field("device", device);
                match fault {
                    TimedDeviceFault::Down { at_ns, duration_ns } => {
                        o.field("kind", "down")
                            .field("at_ns", at_ns)
                            .field("duration_ns", duration_ns);
                    }
                    TimedDeviceFault::Lost { at_ns } => {
                        o.field("kind", "lost").field("at_ns", at_ns);
                    }
                    TimedDeviceFault::CapacityCollapse {
                        at_ns,
                        duration_ns,
                        factor,
                    } => {
                        o.field("kind", "capacity-collapse")
                            .field("at_ns", at_ns)
                            .field("duration_ns", duration_ns)
                            .field("factor", f4(factor));
                    }
                }
            });
        }
    });
}

fn job_json(o: &mut Object<'_>, j: &JobReport) {
    o.field("name", &j.name)
        .field("policy", &j.policy)
        .field("budget_bytes", j.budget_bytes)
        .field("device", j.device)
        .field("outcome", j.outcome.tag())
        .field("demoted", j.demoted)
        .field("iters", j.iters)
        .field("arrival_ns", j.arrival_ns)
        .field("queue_wait_ns", j.queue_wait_ns)
        .field("finish_ns", j.finish_ns)
        .field("total_ns", j.total_ns)
        .field("max_peak_bytes", j.max_peak_bytes)
        .field("oom_iters", j.oom_iters)
        .field("recovered_iters", j.recovered_iters)
        .field("recovery_events", j.recovery_events)
        .field("shuttle_iters", j.shuttle_iters)
        .field("migrations", j.migrations)
        .field("retries", j.retries)
        .field("fleet_overhead_ns", j.fleet_overhead_ns)
        .field("graph_raw_peak_bytes", j.graph_raw_peak_bytes)
        .field("graph_opt_peak_bytes", j.graph_opt_peak_bytes)
        .field("admission_reason", &j.admission_reason)
        .array("placements", |a| {
            for p in &j.placements {
                a.object(|o| {
                    o.field("device", p.device)
                        .field("busy_ns", p.busy_ns)
                        .field("iters", p.iters);
                });
            }
        })
        .object_or_null("plan_tiers", j.plan_tiers.as_ref(), |o, t| {
            o.field("certified_hits", t.certified_hits)
                .field("cache_hits", t.cache_hits)
                .field("repaired_plans", t.repaired_plans)
                .field("cold_solves", t.cold_solves);
        });
}

impl ClusterReport {
    /// Deterministic JSON encoding (see module docs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let (a, s, f) = (&self.admission, &self.slo, &self.fleet);
        json::object(|o| {
            o.field("schedule", &self.schedule)
                .field("mode", &self.mode)
                .field("rounds", self.rounds)
                .field("makespan_ns", self.makespan_ns)
                .field("busy_ns", self.busy_ns)
                .field("utilization_pct", f4(self.utilization_pct))
                .field("mean_queue_wait_ns", self.mean_queue_wait_ns)
                .field("max_queue_wait_ns", self.max_queue_wait_ns)
                .field("oom_iters", self.oom_iters)
                .field("recovered_iters", self.recovered_iters)
                .field("recovery_events", self.recovery_events)
                .object("admission", |o| {
                    o.field("admitted", a.admitted)
                        .field("verified_admits", a.verified_admits)
                        .field("demoted", a.demoted)
                        .field("rejected", a.rejected)
                        .field("deferred_rounds", a.deferred_rounds)
                        .field("predictions", a.predictions)
                        .field("within_10pct", a.within_10pct)
                        .field("mean_abs_rel_err_pct", f4(a.mean_abs_rel_err_pct()));
                })
                .object("slo", |o| {
                    o.field("queue_wait_p50_ns", s.queue_wait_p50_ns)
                        .field("queue_wait_p95_ns", s.queue_wait_p95_ns)
                        .field("queue_wait_p99_ns", s.queue_wait_p99_ns)
                        .field("iter_latency_p50_ns", s.iter_latency_p50_ns)
                        .field("iter_latency_p95_ns", s.iter_latency_p95_ns)
                        .field("iter_latency_p99_ns", s.iter_latency_p99_ns)
                        .field("goodput_iters", s.goodput_iters)
                        .field("goodput_iters_per_s", f4(s.goodput_iters_per_s))
                        .field("rejected_jobs", s.rejected_jobs)
                        .field("shed_jobs", s.shed_jobs)
                        .field("failed_jobs", s.failed_jobs)
                        .field("rejection_rate_pct", f4(s.rejection_rate_pct))
                        .field("shed_rate_pct", f4(s.shed_rate_pct));
                })
                .object("fleet", |o| {
                    o.field("devices_lost", f.devices_lost)
                        .field("checkpoints", f.checkpoints)
                        .field("migrations", f.migrations)
                        .field("shed_jobs", f.shed_jobs)
                        .field("failed_jobs", f.failed_jobs)
                        .field("max_retries", f.max_retries)
                        .field("overhead_ns", f.overhead_ns);
                })
                .object("arrivals", |o| arrivals_json(o, &self.arrivals))
                .object("fault_plan", |o| fault_plan_json(o, &self.fault_plan))
                .array("events", |a| {
                    for e in &self.events {
                        a.object(|o| event_json(o, e));
                    }
                })
                .array("devices", |a| {
                    for d in &self.devices {
                        a.object(|o| {
                            o.field("index", d.index)
                                .field("capacity_bytes", d.capacity_bytes)
                                .field("busy_ns", d.busy_ns)
                                .field("jobs_run", d.jobs_run)
                                .field("iters", d.iters)
                                .field("lost", d.lost);
                        });
                    }
                })
                .array("jobs", |a| {
                    for j in &self.jobs {
                        a.object(|o| job_json(o, j));
                    }
                });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_chaos::FaultSpec;
    use mimose_data::LengthSampler;

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

    /// 64-bit FNV-1a over `bytes`, the digest the fleet fixtures use.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn event(round: usize, at_ns: u64, kind: FleetEventKind, cost_ns: u64) -> FleetEvent {
        FleetEvent {
            round,
            at_ns,
            kind,
            cost_ns,
        }
    }

    /// One job migrated off a lost device: every optional job field set,
    /// names that need escaping, poisson arrivals and a clean plan.
    fn migrated_report() -> ClusterReport {
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
        ClusterReport {
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
                event(0, 7, FleetEventKind::Arrive { job: 0 }, 0),
                event(
                    0,
                    7,
                    FleetEventKind::Dispatch {
                        job: 0,
                        device: 1,
                        seq: 0,
                    },
                    0,
                ),
                event(
                    1,
                    47,
                    FleetEventKind::DeviceDown {
                        device: 1,
                        until_round: None,
                    },
                    0,
                ),
                event(
                    1,
                    47,
                    FleetEventKind::Checkpoint {
                        job: 0,
                        device: 1,
                        cursor: 1,
                    },
                    25_000,
                ),
                event(
                    2,
                    47,
                    FleetEventKind::Migrate {
                        job: 0,
                        from: 1,
                        to: 0,
                        cursor: 1,
                        seq: 2,
                    },
                    40_000,
                ),
                event(3, 97, FleetEventKind::Complete { job: 0, device: 0 }, 0),
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
        }
    }

    /// A plan with a capacity shrink, non-default float intensities and
    /// every kind of lifecycle fault on both clocks.
    fn busy_plan() -> FleetFaultPlan {
        FleetFaultPlan::new(FaultSpec {
            seed: 11,
            estimator_bias: 0.6,
            estimator_noise: 0.125,
            capacity_shrink: Some((4, 0.75)),
            alloc_failure_rate: 0.3,
            alloc_failures_per_iter: 2,
            alloc_failure_span: 32,
            recompute_spike_rate: 0.05,
            recompute_spike_factor: 3.5,
        })
        .with_device_fault(
            0,
            DeviceFault::Down {
                at_round: 1,
                duration: 3,
            },
        )
        .with_device_fault(1, DeviceFault::Lost { at_round: 2 })
        .with_device_fault(
            2,
            DeviceFault::CapacityCollapse {
                at_round: 1,
                duration: 2,
                factor: 0.5,
            },
        )
        .with_timed_fault(
            0,
            TimedDeviceFault::Down {
                at_ns: 1_000,
                duration_ns: 500,
            },
        )
        .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 2_000 })
        .with_timed_fault(
            2,
            TimedDeviceFault::CapacityCollapse {
                at_ns: 100,
                duration_ns: 300,
                factor: 0.25,
            },
        )
    }

    /// Every fleet event kind the migrated report lacks, every job outcome
    /// and every optional job field as `None`, a lost device, scored
    /// admissions, sampled arrivals and [`busy_plan`].
    fn faulted_report() -> ClusterReport {
        let mut demoted = row("d\\e", JobOutcome::Completed, Some(2), 30);
        demoted.demoted = true;
        demoted.finish_ns = Some(400);
        let jobs = vec![
            row("a", JobOutcome::Rejected, None, 0),
            row("b", JobOutcome::Shed("no \"room\"".into()), None, 12),
            row("c", JobOutcome::Failed("oom".into()), Some(1), 5),
            demoted,
        ];
        let slo = SloRollup::fold(&jobs, &[90, 45, 60], 400);
        let mut admission = AdmissionStats {
            admitted: 3,
            verified_admits: 1,
            demoted: 1,
            rejected: 1,
            deferred_rounds: 4,
            ..AdmissionStats::default()
        };
        admission.score(110, 100);
        admission.score(95, 100);
        admission.score(70, 100);
        ClusterReport {
            schedule: "best-fit-memory".into(),
            mode: "bsp".into(),
            arrivals: ArrivalProcess::sampled(LengthSampler::Uniform { min: 2, max: 4 }, 1_000, 7),
            rounds: 6,
            makespan_ns: 400,
            busy_ns: 333,
            utilization_pct: 100.0 / 3.0,
            mean_queue_wait_ns: 17,
            max_queue_wait_ns: 30,
            oom_iters: 1,
            recovered_iters: 2,
            recovery_events: 3,
            admission,
            slo,
            fleet: FleetStats {
                devices_lost: 1,
                checkpoints: 2,
                migrations: 0,
                shed_jobs: 1,
                failed_jobs: 1,
                max_retries: 1,
                overhead_ns: 1_234,
            },
            fault_plan: busy_plan(),
            events: vec![
                event(
                    0,
                    0,
                    FleetEventKind::Reject {
                        job: 0,
                        reason: "floor \"too\" big".into(),
                    },
                    0,
                ),
                event(
                    1,
                    1,
                    FleetEventKind::DeviceDown {
                        device: 0,
                        until_round: Some(4),
                    },
                    0,
                ),
                event(1, 1, FleetEventKind::Requeue { job: 2, retries: 1 }, 9),
                event(
                    1,
                    1,
                    FleetEventKind::Backoff {
                        job: 2,
                        until_round: 3,
                    },
                    0,
                ),
                event(
                    2,
                    2,
                    FleetEventKind::Shed {
                        job: 1,
                        reason: "queue full".into(),
                    },
                    0,
                ),
                event(
                    3,
                    3,
                    FleetEventKind::Fail {
                        job: 2,
                        reason: "retry budget \\ exhausted".into(),
                    },
                    0,
                ),
                event(4, 4, FleetEventKind::DeviceUp { device: 0 }, 0),
            ],
            devices: vec![
                DeviceReport {
                    index: 0,
                    capacity_bytes: 1 << 34,
                    busy_ns: 0,
                    jobs_run: 0,
                    iters: 0,
                    lost: false,
                },
                DeviceReport {
                    index: 1,
                    capacity_bytes: 6 << 30,
                    busy_ns: 133,
                    jobs_run: 1,
                    iters: 1,
                    lost: true,
                },
                DeviceReport {
                    index: 2,
                    capacity_bytes: 1 << 34,
                    busy_ns: 200,
                    jobs_run: 1,
                    iters: 2,
                    lost: false,
                },
            ],
            jobs,
        }
    }

    /// The migrated report under other arrivals and fault plans.
    fn with_inputs(arrivals: ArrivalProcess, fault_plan: FleetFaultPlan) -> ClusterReport {
        ClusterReport {
            arrivals,
            fault_plan,
            ..migrated_report()
        }
    }

    /// A round fault alongside two timed faults.
    fn timed_plan() -> FleetFaultPlan {
        FleetFaultPlan::none(3)
            .with_device_fault(1, DeviceFault::Lost { at_round: 2 })
            .with_timed_fault(
                0,
                TimedDeviceFault::Down {
                    at_ns: 1_000,
                    duration_ns: 500,
                },
            )
            .with_timed_fault(
                2,
                TimedDeviceFault::CapacityCollapse {
                    at_ns: 100,
                    duration_ns: 300,
                    factor: 0.25,
                },
            )
    }

    /// A capacity shrink with two round faults.
    fn shrink_plan() -> FleetFaultPlan {
        FleetFaultPlan::new(FaultSpec {
            capacity_shrink: Some((4, 0.75)),
            ..FaultSpec::none(7)
        })
        .with_device_fault(1, DeviceFault::Lost { at_round: 2 })
        .with_device_fault(
            0,
            DeviceFault::Down {
                at_round: 1,
                duration: 3,
            },
        )
    }

    fn pinned_reports() -> Vec<(&'static str, ClusterReport)> {
        let none = || FleetFaultPlan::none(0);
        vec![
            ("migrated", migrated_report()),
            ("faulted", faulted_report()),
            (
                "immediate",
                with_inputs(ArrivalProcess::immediate(), none()),
            ),
            (
                "poisson",
                with_inputs(ArrivalProcess::poisson(5, 1), none()),
            ),
            (
                "bursty",
                with_inputs(ArrivalProcess::bursty(10, 1, 4, 0), none()),
            ),
            (
                "trace",
                with_inputs(ArrivalProcess::trace(vec![1, 2]), timed_plan()),
            ),
            (
                "shrink",
                with_inputs(ArrivalProcess::trace(vec![]), shrink_plan()),
            ),
        ]
    }

    /// Pins the report encoding byte for byte on synthetic reports that
    /// reach every branch the fleet fixtures miss: one `name digest` line
    /// per report, FNV-1a over its JSON. A deliberate format change updates
    /// the digests by hand from the failure message.
    #[test]
    fn json_reproduces_pinned_digests() {
        let digests: String = pinned_reports()
            .iter()
            .map(|(name, r)| format!("{name} {:016x}\n", fnv1a(r.to_json().as_bytes())))
            .collect();
        let want = "\
            migrated 041bf52bedd6c8d7\n\
            faulted 2f45070ba78eb546\n\
            immediate 5cad41424f05e4a4\n\
            poisson a411e463ed2c76f5\n\
            bursty 8bdae796aadc0e5f\n\
            trace f6cc0e3ee2ef973b\n\
            shrink da6141f43a008ba8\n";
        assert_eq!(
            digests, want,
            "report JSON diverged from the pinned digests"
        );
    }

    #[test]
    fn json_is_stable_and_escapes_names() {
        let report = migrated_report();
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

    /// Control characters in job names and in admission, shed and fail
    /// reasons are escaped, so the report stays valid JSON.
    #[test]
    fn control_characters_in_names_and_reasons_are_escaped() {
        let mut report = migrated_report();
        report.jobs[0].name = "a\nb\tc\u{1}".into();
        report.jobs[0].admission_reason = Some("x\ry".into());
        report.events.extend([
            event(
                4,
                98,
                FleetEventKind::Shed {
                    job: 0,
                    reason: "q\u{1f}".into(),
                },
                0,
            ),
            event(
                4,
                99,
                FleetEventKind::Fail {
                    job: 0,
                    reason: "\u{0}".into(),
                },
                0,
            ),
        ]);
        let j = report.to_json();
        assert!(j.contains(r#""name":"a\nb\tc\u0001""#), "{j}");
        assert!(j.contains(r#""admission_reason":"x\ry""#), "{j}");
        assert!(
            j.contains(r#""kind":"shed","job":0,"reason":"q\u001f""#),
            "{j}"
        );
        assert!(
            j.contains(r#""kind":"fail","job":0,"reason":"\u0000""#),
            "{j}"
        );
        assert!(j.bytes().all(|b| b >= 0x20), "raw control character in {j}");
    }

    /// The embedded arrival descriptors: every parameter of every kind,
    /// in a stable field order.
    #[test]
    fn arrival_descriptors_are_stable() {
        let none = || FleetFaultPlan::none(0);
        let arrivals = |a: ArrivalProcess| with_inputs(a, none()).to_json();
        assert!(arrivals(ArrivalProcess::immediate())
            .contains("\"arrivals\":{\"kind\":\"immediate\"},\"fault_plan\""));
        assert!(arrivals(ArrivalProcess::poisson(5, 1)).contains(
            "\"arrivals\":{\"kind\":\"poisson\",\"mean_gap_ns\":5,\"seed\":1},\"fault_plan\""
        ));
        assert!(arrivals(ArrivalProcess::bursty(10, 1, 4, 0)).contains("\"mean_phase_len\":4"));
        let sampled = |gaps: LengthSampler| arrivals(ArrivalProcess::sampled(gaps, 1_000, 7));
        assert!(sampled(LengthSampler::Normal {
            mu: 72.0,
            sigma: 40.5,
            min: 35,
            max: 141,
        })
        .contains(
            "\"arrivals\":{\"kind\":\"sampled\",\"gaps\":{\"kind\":\"normal\",\"mu\":72,\
             \"sigma\":40.5,\"min\":35,\"max\":141},\"unit_ns\":1000,\"seed\":7},\"fault_plan\""
        ));
        assert!(sampled(LengthSampler::LogNormal {
            mu_ln: 3.25,
            sigma_ln: 0.5,
            min: 30,
            max: 332,
        })
        .contains(
            "\"gaps\":{\"kind\":\"lognormal\",\"mu_ln\":3.25,\"sigma_ln\":0.5,\
             \"min\":30,\"max\":332}"
        ));
        // Float parameters parse back to the same bits: ln 50 (four
        // decimals would write 3.9120) and a spread below 1e-6 (four
        // decimals would write 0.0000).
        let (mu_ln, sigma_ln) = (50f64.ln(), 3.7e-7);
        let json = sampled(LengthSampler::LogNormal {
            mu_ln,
            sigma_ln,
            min: 30,
            max: 332,
        });
        let number = |key: &str| -> f64 {
            let start = json.find(key).expect("key written") + key.len();
            let len = json[start..].find(',').expect("more members follow");
            json[start..start + len].parse().expect("a JSON number")
        };
        assert_eq!(number("\"mu_ln\":").to_bits(), mu_ln.to_bits());
        assert_eq!(number("\"sigma_ln\":").to_bits(), sigma_ln.to_bits());
        assert!(sampled(LengthSampler::Uniform { min: 2, max: 4 })
            .contains("\"gaps\":{\"kind\":\"uniform\",\"min\":2,\"max\":4}"));
        assert!(sampled(LengthSampler::Ladder {
            steps: vec![480, 800]
        })
        .contains("\"gaps\":{\"kind\":\"ladder\",\"steps\":[480,800]}"));
        assert!(arrivals(ArrivalProcess::trace(vec![9, 3, 5]))
            .contains("\"arrivals\":{\"kind\":\"trace\",\"offsets_ns\":[3,5,9]},\"fault_plan\""));
    }

    /// The embedded fault plan: base spec, round faults and timed faults,
    /// each list present even when empty (evidence of "no faults" is still
    /// evidence).
    #[test]
    fn fault_plans_are_stable_and_self_describing() {
        let timed = with_inputs(ArrivalProcess::immediate(), timed_plan()).to_json();
        assert_eq!(
            timed,
            with_inputs(ArrivalProcess::immediate(), timed_plan()).to_json()
        );
        assert!(timed.contains("\"timed_faults\":["));
        assert!(timed.contains("\"kind\":\"down\",\"at_ns\":1000,\"duration_ns\":500"));
        assert!(timed.contains("\"factor\":0.2500"));

        let shrink = with_inputs(ArrivalProcess::immediate(), shrink_plan()).to_json();
        assert_eq!(
            shrink,
            with_inputs(ArrivalProcess::immediate(), shrink_plan()).to_json()
        );
        assert!(shrink.contains("\"fault_plan\":{\"base\":{\"seed\":7,"));
        assert!(shrink.contains("\"capacity_shrink\":{\"at_iter\":4,\"factor\":0.7500}"));
        assert!(shrink.contains("\"kind\":\"lost\",\"at_round\":2"));
        assert!(shrink.contains("\"kind\":\"down\",\"at_round\":1,\"duration\":3"));
        assert!(shrink.contains("]},\"events\":["));

        let none = migrated_report().to_json();
        assert!(none.contains("\"device_faults\":[]"));
        assert!(none.contains("\"timed_faults\":[]"));
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
