//! Mode-shared scheduling protocol: the parts of fleet scheduling that do
//! not depend on how virtual time advances. Both drivers — the BSP round
//! scheduler ([`run_bsp`](crate::scheduler::run_bsp)) and the discrete-
//! event loop ([`run_event`](crate::des::run_event)) — submit jobs through
//! the same profiling/certification pass, pick pending work with the same
//! [`SchedulePolicy`] comparators, and fold their final state through the
//! same report rollup, so a BSP run and its event-driven degenerate twin
//! differ only in *when* decisions happen, never in *how*.

use crate::admission::AdmissionController;
use crate::job::JobSpec;
use crate::report::{
    ClusterReport, DeviceReport, FleetStats, JobOutcome, JobPlacement, JobReport, SloRollup,
};
use crate::scheduler::{ClusterSpec, JobDetail, SchedulePolicy};
use mimose_models::{ModelGraph, ModelInput, ModelProfile, PassReport};
use mimose_planner::memory_model::min_feasible_budget;
use mimose_planner::{CheckpointPlan, MemoryPolicy};
use mimose_simgpu::DeviceProfile;
use mimose_verify::{certify, SafetyCertificate, SizeBucket};
use std::collections::HashMap;
use std::sync::Arc;

/// What the scheduler precomputes about a job at submission.
pub(crate) struct Submitted {
    /// Worst-case profile the static planners solved against, shared by
    /// every job training the same model on the same worst-case input.
    pub worst: Arc<ModelProfile>,
    /// All-checkpoint floor over the worst case — the admit/demote/reject
    /// pivot.
    pub floor: usize,
    /// The policy's predicted peak for the job's first iteration.
    pub predicted_peak: usize,
    /// Static safety certificate over the job's worst case (sound no-plan
    /// peak bound), when it fits at least one device in the pool. Admits
    /// backed by it are scored as `verified_admits`.
    pub certificate: Option<SafetyCertificate>,
    /// The built policy, taken at first dispatch.
    pub policy: Option<Box<dyn MemoryPolicy>>,
    /// One-line summary of the graph passes that shrank the job's
    /// predicted peak, appended to demote/reject reasons so the report
    /// names the evidence behind the number it gated on.
    pub graph_evidence: Option<String>,
}

/// One shared model, by the identity of its storage, at one input. Jobs
/// cloned from one [`OptimizedGraph`](mimose_models::OptimizedGraph)
/// share a key; the pointer is never dereferenced.
type ProfileKey = (*const ModelGraph, ModelInput);

/// The worst-case facts of one (model, worst-case input) pair.
struct WorstCase {
    profile: Arc<ModelProfile>,
    floor: usize,
    certificate: Option<SafetyCertificate>,
}

impl WorstCase {
    /// Profile `job`'s worst case, and certify its no-plan peak against
    /// the largest usable capacity in the pool.
    fn of(job: &JobSpec, max_usable: usize) -> Result<WorstCase, String> {
        let profile = job.worst_profile().map_err(|e| e.to_string())?;
        // The no-checkpoint peak over the worst profile soundly bounds
        // every plan at every input size up to it, so a certificate that
        // fits a device makes the admit unconditional for every job
        // training this model on this dataset.
        let certificate = certify(
            std::slice::from_ref(&profile),
            &CheckpointPlan::none(profile.blocks.len()),
            SizeBucket::new(1, profile.input_size),
            max_usable,
        )
        .ok();
        Ok(WorstCase {
            floor: min_feasible_budget(&profile),
            profile: Arc::new(profile),
            certificate,
        })
    }
}

/// A first batch's profiles over the optimized and the raw graph.
struct FirstBatch {
    optimized: Result<ModelProfile, String>,
    raw: Option<ModelProfile>,
}

/// A policy's advisory peak for `profile`, falling back to the input's
/// no-checkpoint peak when the policy offers no prediction.
fn predict(policy: &dyn MemoryPolicy, profile: &ModelProfile) -> usize {
    policy
        .predicted_peak_bytes(profile)
        .unwrap_or_else(|| profile.peak_no_checkpoint())
}

/// Headroom-discounted capacity admission gates against.
pub(crate) fn usable_bytes(dev: &DeviceProfile, headroom: f64) -> usize {
    (dev.total_mem_bytes as f64 * headroom) as usize
}

/// One line naming the optimization passes behind an admission number:
/// which passes touched the graph and how far they moved the predicted
/// peak. `None` when the raw graph could not be profiled, no pass did
/// anything, or the passes saved no bytes at this input size.
fn graph_evidence(
    reports: &[PassReport],
    raw_peak: Option<usize>,
    opt_peak: usize,
) -> Option<String> {
    let raw_peak = raw_peak?;
    let passes: Vec<String> = reports
        .iter()
        .filter(|r| !r.is_noop())
        .map(|r| {
            format!(
                "{} ({} nodes)",
                r.pass.name(),
                r.nodes_removed + r.nodes_rewired + r.nodes_annotated
            )
        })
        .collect();
    if passes.is_empty() || raw_peak <= opt_peak {
        return None;
    }
    Some(format!(
        "graph passes [{}] cut the predicted peak from {raw_peak} B (raw graph) to {opt_peak} B",
        passes.join(", ")
    ))
}

/// Submission pass, shared verbatim by both drivers: profile each job,
/// build its policy (static planners solve once against the worst case,
/// costed on device 0), and settle jobs no device can ever hold. Jobs that
/// settle here get their outcome written directly; everyone else gets a
/// [`Submitted`] record.
///
/// Profiles are pure functions of (model, input), so the pass walks each
/// distinct pair once: the worst case (with its floor and certificate) and
/// each first batch are memoized for the length of this call, keyed by the
/// shared model's identity. Policies carry state and are built per job.
pub(crate) fn submit_jobs(
    spec: &ClusterSpec,
    ctl: &mut AdmissionController,
    outcomes: &mut [Option<JobOutcome>],
    details: &mut [JobDetail],
) -> Vec<Option<Submitted>> {
    let n_jobs = spec.jobs.len();
    let mut submitted: Vec<Option<Submitted>> = Vec::with_capacity(n_jobs);
    let max_usable = spec
        .devices
        .iter()
        .map(|d| usable_bytes(d, spec.headroom))
        .max()
        .unwrap_or(0);
    let mut worst_cases: HashMap<ProfileKey, Result<WorstCase, String>> = HashMap::new();
    let mut first_batches: HashMap<ProfileKey, FirstBatch> = HashMap::new();
    for (j, job) in spec.jobs.iter().enumerate() {
        let graph = std::ptr::from_ref(job.model.optimized());
        let worst = match worst_cases
            .entry((graph, job.dataset.worst_case()))
            .or_insert_with(|| WorstCase::of(job, max_usable))
        {
            Ok(w) => w,
            Err(e) => {
                outcomes[j] = Some(JobOutcome::Failed(e.clone()));
                submitted.push(None);
                continue;
            }
        };
        let floor = worst.floor;
        if floor > max_usable {
            ctl.stats.rejected += 1;
            outcomes[j] = Some(JobOutcome::Rejected);
            details[j].admission_reason = Some(format!(
                "all-checkpoint floor {floor} B exceeds every device's usable \
                 capacity (max {max_usable} B)"
            ));
            submitted.push(None);
            continue;
        }
        let policy = job.policy.build(&worst.profile, &spec.devices[0]);
        // Predict the first iteration's peak: that is the iteration the
        // dispatch decision gates.
        let first = job.dataset.stream(job.seed).next_batch();
        let batch = first_batches
            .entry((graph, first))
            .or_insert_with(|| FirstBatch {
                optimized: job.model.profile(&first).map_err(|e| e.to_string()),
                raw: job.model.raw_profile(&first).ok(),
            });
        let predicted_peak = match &batch.optimized {
            Ok(p) => predict(&*policy, p),
            Err(e) => {
                outcomes[j] = Some(JobOutcome::Failed(e.clone()));
                submitted.push(None);
                continue;
            }
        };
        // Graph-pass evidence: run the same prediction over the raw
        // (pre-pass) graph. A strictly lower optimized prediction is the
        // byte credit the admission report attributes to the pipeline.
        let graph_raw_peak = batch.raw.as_ref().map(|p| predict(&*policy, p));
        details[j].graph_raw_peak_bytes = graph_raw_peak;
        details[j].graph_opt_peak_bytes = Some(predicted_peak);
        let graph_evidence = graph_evidence(job.model.reports(), graph_raw_peak, predicted_peak);
        submitted.push(Some(Submitted {
            worst: Arc::clone(&worst.profile),
            floor,
            predicted_peak,
            certificate: worst.certificate,
            policy: Some(policy),
            graph_evidence,
        }));
    }
    submitted
}

/// The device a dispatch decision sees: the pool profile, shrunk by any
/// active capacity-collapse factor.
pub(crate) fn effective_device(spec: &ClusterSpec, d: usize, cap_factor: f64) -> DeviceProfile {
    if cap_factor < 1.0 {
        let mut dev = spec.devices[d].clone();
        dev.total_mem_bytes = (dev.total_mem_bytes as f64 * cap_factor) as usize;
        dev
    } else {
        spec.devices[d].clone()
    }
}

/// Pick a fresh pending job for an idle device under the dispatch policy.
/// Returns the *position* in `pending`. Admissibility is the all-
/// checkpoint floor against the device's usable capacity; comparator ties
/// resolve by queue position exactly as the original BSP scheduler did
/// (first for FIFO/shortest, last for best-fit).
pub(crate) fn pick_pending(
    schedule: SchedulePolicy,
    pending: &[usize],
    submitted: &[Option<Submitted>],
    jobs: &[JobSpec],
    device: &DeviceProfile,
    usable: usize,
) -> Option<usize> {
    match schedule {
        SchedulePolicy::Fifo => pending
            .iter()
            .position(|j| submitted[*j].as_ref().is_some_and(|s| s.floor <= usable)),
        SchedulePolicy::ShortestPredicted => pending
            .iter()
            .enumerate()
            .filter_map(|(i, &j)| {
                let s = submitted[j].as_ref()?;
                (s.floor <= usable).then(|| (i, jobs[j].predicted_iter_ns(&s.worst, device)))
            })
            .min_by_key(|&(_, predicted)| predicted)
            .map(|(i, _)| i),
        SchedulePolicy::BestFitMemory => pending
            .iter()
            .enumerate()
            .filter_map(|(i, &j)| {
                let s = submitted[j].as_ref()?;
                // Jobs that only fit demoted fill the device to their
                // floor, not their prediction.
                let fill = if s.predicted_peak <= usable {
                    s.predicted_peak
                } else {
                    s.floor
                };
                (s.floor <= usable).then_some((i, fill))
            })
            .max_by_key(|&(_, fill)| fill)
            .map(|(i, _)| i),
    }
}

/// Per-device accumulator snapshot handed to the rollup.
pub(crate) struct DeviceAccum {
    /// Virtual nanoseconds spent executing iterations.
    pub busy_ns: u64,
    /// Jobs that ran to their end here.
    pub jobs_run: usize,
    /// Iterations executed here.
    pub iters: usize,
}

/// Everything a driver accumulated, ready to fold into a
/// [`ClusterReport`]. One struct so the two drivers cannot drift on which
/// pieces feed the rollup.
pub(crate) struct RollupInputs {
    pub outcomes: Vec<Option<JobOutcome>>,
    pub queue_waits: Vec<Option<u64>>,
    pub demoted: Vec<bool>,
    pub placements: Vec<Vec<JobPlacement>>,
    pub migrations: Vec<usize>,
    pub retries: Vec<usize>,
    pub overhead: Vec<u64>,
    /// Virtual arrival instant per job (all zero in BSP mode).
    pub arrival_ns: Vec<u64>,
    /// Virtual completion instant per job (`None` in BSP mode, and for
    /// jobs that never finished).
    pub finish_ns: Vec<Option<u64>>,
    pub events: Vec<crate::events::FleetEvent>,
    pub fleet: FleetStats,
    pub lost: Vec<bool>,
    pub device_stats: Vec<DeviceAccum>,
    pub rounds: usize,
    pub makespan_ns: u64,
}

/// The shared rollup: fold driver state into the final [`ClusterReport`].
/// Queue-wait means, utilization, per-job rows, the SLO tail fold and the
/// JSON-visible spec echoes (mode, arrivals) all live here.
pub(crate) fn finish_report(
    spec: &ClusterSpec,
    ctl: AdmissionController,
    details: &[JobDetail],
    inputs: RollupInputs,
) -> ClusterReport {
    let n_devs = spec.devices.len();
    let RollupInputs {
        outcomes,
        queue_waits,
        demoted,
        placements,
        migrations,
        retries,
        overhead,
        arrival_ns,
        finish_ns,
        events,
        mut fleet,
        lost,
        device_stats,
        rounds,
        makespan_ns,
    } = inputs;

    let busy_ns: u64 = device_stats.iter().map(|s| s.busy_ns).sum();
    let utilization_pct = if makespan_ns > 0 {
        busy_ns as f64 / (makespan_ns as f64 * n_devs as f64) * 100.0
    } else {
        0.0
    };
    let waits: Vec<u64> = queue_waits.iter().filter_map(|w| *w).collect();
    let mean_queue_wait_ns = if waits.is_empty() {
        0
    } else {
        waits.iter().sum::<u64>() / waits.len() as u64
    };
    let max_queue_wait_ns = waits.iter().copied().max().unwrap_or(0);
    fleet.overhead_ns = overhead.iter().sum();

    let jobs: Vec<JobReport> = spec
        .jobs
        .iter()
        .enumerate()
        .map(|(j, job)| {
            let s = &details[j].summary;
            JobReport {
                name: job.name.clone(),
                policy: job.policy.name().to_string(),
                budget_bytes: {
                    let b = job.policy.budget_bytes();
                    (b != usize::MAX).then_some(b)
                },
                device: details[j].device,
                outcome: outcomes[j].clone().unwrap_or(JobOutcome::Rejected),
                demoted: demoted[j],
                iters: s.iters,
                arrival_ns: arrival_ns[j],
                queue_wait_ns: queue_waits[j].unwrap_or(0),
                finish_ns: finish_ns[j],
                total_ns: s.total_ns,
                max_peak_bytes: s.max_peak_bytes,
                oom_iters: s.oom_iters,
                recovered_iters: s.recovered_iters,
                recovery_events: s.recovery_events,
                shuttle_iters: s.shuttle_iters,
                plan_tiers: details[j].plan_tiers,
                migrations: migrations[j],
                retries: retries[j],
                fleet_overhead_ns: overhead[j],
                graph_raw_peak_bytes: details[j].graph_raw_peak_bytes,
                graph_opt_peak_bytes: details[j].graph_opt_peak_bytes,
                admission_reason: details[j].admission_reason.clone(),
                placements: placements[j].clone(),
            }
        })
        .collect();
    fleet.failed_jobs = jobs
        .iter()
        .filter(|j| matches!(j.outcome, JobOutcome::Failed(_)))
        .count();
    let iter_latencies: Vec<u64> = details
        .iter()
        .flat_map(|d| d.reports.iter().map(|r| r.time.total_ns()))
        .collect();
    let slo = SloRollup::fold(&jobs, &iter_latencies, makespan_ns);
    ClusterReport {
        schedule: spec.schedule.name().to_string(),
        mode: spec.mode.name().to_string(),
        arrivals: spec.arrivals.clone(),
        rounds,
        makespan_ns,
        busy_ns,
        utilization_pct,
        mean_queue_wait_ns,
        max_queue_wait_ns,
        oom_iters: jobs.iter().map(|j| j.oom_iters).sum(),
        recovered_iters: jobs.iter().map(|j| j.recovered_iters).sum(),
        recovery_events: jobs.iter().map(|j| j.recovery_events).sum(),
        admission: ctl.stats,
        slo,
        fleet,
        fault_plan: spec.faults.clone(),
        events,
        devices: device_stats
            .iter()
            .enumerate()
            .map(|(i, s)| DeviceReport {
                index: i,
                capacity_bytes: spec.devices[i].total_mem_bytes,
                busy_ns: s.busy_ns,
                jobs_run: s.jobs_run,
                iters: s.iters,
                lost: lost[i],
            })
            .collect(),
        jobs,
    }
}
