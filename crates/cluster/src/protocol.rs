//! Submission and picking: the parts of fleet scheduling that do not
//! depend on the clock. The driver ([`crate::des`]) submits every job
//! through one profiling/certification pass before its loop starts, and
//! idle devices pick pending work with the [`SchedulePolicy`] comparators
//! here, so a BSP run and its event-driven twin differ only in *when*
//! decisions happen, never in *how*.

use crate::admission::{usable_bytes, AdmissionController};
use crate::job::JobSpec;
use crate::report::JobOutcome;
use crate::spec::{ClusterSpec, JobDetail, SchedulePolicy};
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

/// Submission pass: profile each job, build its policy (static planners
/// solve once against the worst case, costed on device 0), and settle jobs
/// no device can ever hold. Jobs that settle here get their outcome
/// written directly; everyone else gets a [`Submitted`] record.
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
    let max_usable = spec.devices.iter().map(usable_bytes).max().unwrap_or(0);
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
/// resolve by queue position (first for FIFO/shortest, last for
/// best-fit).
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
