//! The round-based (BSP) fleet driver and the mode-shared [`ClusterSpec`].
//!
//! Execution proceeds in BSP rounds over virtual time: each round, every
//! busy device runs exactly one iteration of its job (in parallel real
//! threads when `threads != 1`), a barrier joins them, results merge in
//! ascending device-index order, and idle devices pick up queued jobs
//! under the configured [`SchedulePolicy`]. Because sessions touch no
//! shared state and the merge order is fixed, the resulting
//! [`ClusterReport`] is byte-identical run-to-run and across thread
//! counts — the fleet-level extension of the executor's determinism
//! contract. The event-driven driver lives in [`crate::des`]; both share
//! the submission, picking and rollup machinery in [`crate::protocol`].
//!
//! # Failure protocol
//!
//! The fault plan can take devices away mid-run
//! ([`DeviceFault`](mimose_chaos::DeviceFault)). At the top of every
//! round the scheduler observes each device's condition; when a device
//! with an in-flight job goes down or is lost, the job is **checkpointed**
//! at its last completed iteration boundary
//! ([`Session::checkpoint`](mimose_exec::Session::checkpoint) captures the
//! warmed policy — plan cache, certificates, adaptive-estimator state —
//! plus the data-stream cursor and accumulated summary), **requeued**
//! under exponential virtual-round backoff, and **migrated** to a
//! surviving device through the same admission controller that gated its
//! first dispatch (so migration can demote). When the degraded pool can
//! never place a job (its all-checkpoint floor exceeds every surviving
//! device) or its retry budget is exhausted, the job is **shed** or
//! **failed** explicitly — lowest priority first — never silently
//! dropped or starved. Every step of the protocol is a typed, cost-
//! attributed [`FleetEvent`](crate::FleetEvent) on the report, and all of
//! it happens in the serial dispatch/merge phases, so the determinism
//! contract survives device loss.

use crate::admission::AdmissionController;
use crate::error::ClusterError;
use crate::events::{
    FleetEvent, FleetEventKind, BACKOFF_BASE_ROUNDS, CHECKPOINT_COST_NS, RESTORE_COST_NS,
};
use crate::job::JobSpec;
use crate::protocol::{self, DeviceAccum, RollupInputs};
use crate::report::{ClusterReport, FleetStats, JobOutcome, JobPlacement};
use crate::spec::{validate, Mode};
use crate::AdmissionDecision;
use mimose_chaos::{DeviceCondition, FleetFaultPlan};
use mimose_data::ArrivalProcess;
use mimose_exec::{IterationRecord, RecoveryConfig, Session, SessionCheckpoint};
use mimose_planner::PlanTierStats;
use mimose_runtime::{IterationReport, RunSummary};
use mimose_simgpu::DeviceProfile;

/// How idle devices choose among queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Oldest admissible job first.
    Fifo,
    /// Admissible job with the smallest predicted iteration time first
    /// (drains short jobs early, shrinking mean queue wait).
    ShortestPredicted,
    /// Admissible job whose predicted peak fills the device best
    /// (packs big jobs onto devices while they are free).
    BestFitMemory,
}

impl SchedulePolicy {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::ShortestPredicted => "shortest-predicted",
            SchedulePolicy::BestFitMemory => "best-fit-memory",
        }
    }

    /// Parse a [`Self::name`] string (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedulePolicy::Fifo),
            "shortest-predicted" | "sjf" => Some(SchedulePolicy::ShortestPredicted),
            "best-fit-memory" | "best-fit" => Some(SchedulePolicy::BestFitMemory),
            _ => None,
        }
    }
}

/// A whole cluster run, as data: jobs, devices, and the knobs. Most code
/// should construct one through [`Cluster::builder`](crate::Cluster),
/// which validates into this spec.
pub struct ClusterSpec {
    /// Jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// The device pool.
    pub devices: Vec<DeviceProfile>,
    /// Dispatch policy.
    pub schedule: SchedulePolicy,
    /// `1` runs BSP rounds serially on the calling thread; any other
    /// value spawns one scoped thread per busy device. The report is
    /// byte-identical either way. Ignored in event-driven mode (the event
    /// loop is serial by construction).
    pub threads: usize,
    /// Admission headroom (fraction of device memory admission may plan
    /// into).
    pub headroom: f64,
    /// Per-device fault derivation (noop by default). BSP mode consumes
    /// round-indexed faults; event-driven mode consumes timed faults.
    pub faults: FleetFaultPlan,
    /// Record every iteration's event stream for auditing.
    pub record: bool,
    /// How many times a job may be displaced off a dying device before
    /// the scheduler fails it instead of requeueing again.
    pub max_retries: usize,
    /// How virtual time advances (BSP rounds or discrete events).
    pub mode: Mode,
    /// When jobs enter the fleet (event-driven mode; BSP ignores it).
    pub arrivals: ArrivalProcess,
    /// Bound on the pending queue (event-driven mode): arrivals past it
    /// are shed explicitly. `None` queues without bound.
    pub queue_limit: Option<usize>,
}

impl ClusterSpec {
    /// A spec with default knobs: FIFO dispatch, parallel rounds, 0.95
    /// headroom, no faults, no recording, 3 displacement retries, BSP
    /// mode with immediate arrivals and no queue limit.
    #[must_use]
    pub fn new(jobs: Vec<JobSpec>, devices: Vec<DeviceProfile>) -> Self {
        ClusterSpec {
            jobs,
            devices,
            schedule: SchedulePolicy::Fifo,
            threads: 0,
            headroom: 0.95,
            faults: FleetFaultPlan::none(0),
            record: false,
            max_retries: 3,
            mode: Mode::Bsp,
            arrivals: ArrivalProcess::Immediate,
            queue_limit: None,
        }
    }

    /// Set the dispatch policy.
    #[must_use]
    pub fn schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the threading mode (see the field docs).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the fleet fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FleetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable event recording.
    #[must_use]
    pub fn record(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Set the displacement retry budget.
    #[must_use]
    pub fn max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Set the execution mode.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the arrival process (event-driven mode).
    #[must_use]
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Bound the pending queue (event-driven mode).
    #[must_use]
    pub fn queue_limit(mut self, queue_limit: Option<usize>) -> Self {
        self.queue_limit = queue_limit;
        self
    }
}

/// Everything the scheduler kept about one job, for auditing and
/// equivalence checks (the [`ClusterReport`] holds only the rollup).
#[derive(Debug, Default)]
pub struct JobDetail {
    /// Job name.
    pub name: String,
    /// Device the job last ran on.
    pub device: Option<usize>,
    /// Round (BSP) or event-loop epoch (event-driven) at which the job
    /// was first dispatched.
    pub dispatch_round: Option<usize>,
    /// Global dispatch sequence number of the first dispatch
    /// (0 = dispatched first; migrations take fresh numbers, recorded on
    /// their [`FleetEvent`]).
    pub dispatch_seq: Option<usize>,
    /// Per-iteration reports, in order, across every placement.
    pub reports: Vec<IterationReport>,
    /// Recorded event streams (empty unless the spec set `record`).
    pub records: Vec<IterationRecord>,
    /// The session's own fold of the run.
    pub summary: RunSummary,
    /// Planning-tier ladder counters snapshotted at job completion
    /// (`None` for static planners, which have no tiered planner).
    pub plan_tiers: Option<PlanTierStats>,
    /// Why admission demoted or rejected the job (`None` for plain
    /// admits).
    pub admission_reason: Option<String>,
    /// The policy's predicted first-iteration peak over the *raw*
    /// (pre-pass) graph, when it could be profiled — what admission
    /// would have gated on without the optimization pipeline.
    pub graph_raw_peak_bytes: Option<usize>,
    /// The same prediction over the optimized graph — what admission
    /// actually gated on. The gap to `graph_raw_peak_bytes` is the
    /// pass pipeline's credit.
    pub graph_opt_peak_bytes: Option<usize>,
}

/// A finished cluster run: the rollup plus per-job evidence.
pub struct ClusterOutcome {
    /// The fleet rollup.
    pub report: ClusterReport,
    /// Per-job evidence, in submission order.
    pub details: Vec<JobDetail>,
}

/// A device's round result: the pre-step peak prediction (when the policy
/// offers one) and the iteration outcome.
type StepResult = (
    Option<usize>,
    Result<IterationReport, mimose_exec::ExecError>,
);

/// One job executing on a device.
struct Running<'a> {
    job: usize,
    session: Session<'a>,
    remaining: usize,
    reports: Vec<IterationReport>,
    /// Busy time executed in the current placement span.
    seg_ns: u64,
    /// Iterations executed in the current placement span.
    seg_iters: usize,
}

/// A checkpointed job waiting out its backoff window for re-admission.
struct Displaced<'a> {
    job: usize,
    checkpoint: SessionCheckpoint<'a>,
    remaining: usize,
    ready_round: usize,
    from_device: usize,
}

/// Per-device accumulator.
#[derive(Default)]
struct DeviceState<'a> {
    busy_ns: u64,
    jobs_run: usize,
    iters: usize,
    running: Option<Running<'a>>,
}

/// Legacy entry point, kept so pre-builder call sites keep compiling.
/// New code goes through [`Cluster::builder`](crate::Cluster), which
/// returns the same outcome as a `Result` instead of panicking.
#[doc(hidden)]
#[must_use]
///
/// # Panics
///
/// Panics when `spec` is malformed (e.g. has no devices) — the condition
/// [`run_bsp`] reports as a typed [`ClusterError`].
pub fn run_cluster(spec: &ClusterSpec) -> ClusterOutcome {
    run_bsp(spec).unwrap()
}

/// Run the whole spec to completion under BSP rounds. Per-job failures
/// (profile errors, data exhaustion, displacement past the retry budget)
/// and load-shed jobs are recorded in the report, not returned — a fleet
/// run that starts always yields a report, even when the fault plan kills
/// every device.
///
/// # Errors
///
/// [`ClusterError`] when the spec cannot start at all (empty device pool,
/// zero-iteration job).
#[allow(clippy::too_many_lines)]
pub fn run_bsp(spec: &ClusterSpec) -> Result<ClusterOutcome, ClusterError> {
    validate(spec)?;
    let n_jobs = spec.jobs.len();
    let n_devs = spec.devices.len();

    let mut ctl = AdmissionController {
        headroom: spec.headroom,
        ..AdmissionController::default()
    };
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; n_jobs];
    let mut details: Vec<JobDetail> = spec
        .jobs
        .iter()
        .map(|j| JobDetail {
            name: j.name.clone(),
            ..JobDetail::default()
        })
        .collect();
    let mut queue_waits: Vec<Option<u64>> = vec![None; n_jobs];
    let mut demoted: Vec<bool> = vec![false; n_jobs];
    let mut placements: Vec<Vec<JobPlacement>> = vec![Vec::new(); n_jobs];
    let mut migrations = vec![0usize; n_jobs];
    let mut retries = vec![0usize; n_jobs];
    let mut overhead = vec![0u64; n_jobs];
    let mut events: Vec<FleetEvent> = Vec::new();
    let mut fleet = FleetStats {
        max_retries: spec.max_retries,
        ..FleetStats::default()
    };

    let mut submitted = protocol::submit_jobs(spec, &mut ctl, &mut outcomes, &mut details);

    let mut pending: Vec<usize> = (0..n_jobs).filter(|&j| outcomes[j].is_none()).collect();
    let mut displaced: Vec<Displaced> = Vec::new();
    let mut devices: Vec<DeviceState> = (0..n_devs).map(|_| DeviceState::default()).collect();
    let mut last_cond: Vec<DeviceCondition> = vec![DeviceCondition::Up; n_devs];
    let mut lost: Vec<bool> = vec![false; n_devs];
    let mut rounds = 0usize;
    let mut dispatch_seq = 0usize;

    loop {
        // The fleet's virtual now — the furthest any device has run —
        // stamps every event and queue wait observed this round.
        let now = devices.iter().map(|s| s.busy_ns).max().unwrap_or(0);

        // --- Fault observation: device transitions, displacement. ---
        // Serial and in device-index order, so the event chain and every
        // checkpoint decision are deterministic.
        let conds: Vec<DeviceCondition> = (0..n_devs)
            .map(|d| spec.faults.device_condition(d, rounds))
            .collect();
        // The best any permanently-surviving device can ever offer: the
        // shed pivot. Down devices count — they come back.
        let alive_usable = (0..n_devs)
            .filter(|&d| conds[d] != DeviceCondition::Lost)
            .map(|d| protocol::usable_bytes(&spec.devices[d], spec.headroom))
            .max()
            .unwrap_or(0);
        for d in 0..n_devs {
            if conds[d] == last_cond[d] {
                continue;
            }
            match conds[d] {
                DeviceCondition::Up => {
                    events.push(FleetEvent {
                        round: rounds,
                        at_ns: now,
                        kind: FleetEventKind::DeviceUp { device: d },
                        cost_ns: 0,
                    });
                }
                DeviceCondition::Down | DeviceCondition::Lost => {
                    let until_round = if conds[d] == DeviceCondition::Lost {
                        lost[d] = true;
                        fleet.devices_lost += 1;
                        None
                    } else {
                        // Walk the plan's boundaries to the round this
                        // device returns (None if it is lost before then).
                        let mut probe = rounds;
                        let mut until = None;
                        while let Some(t) = spec.faults.next_transition_after(probe) {
                            match spec.faults.device_condition(d, t) {
                                DeviceCondition::Up => {
                                    until = Some(t);
                                    break;
                                }
                                DeviceCondition::Lost => break,
                                DeviceCondition::Down => probe = t,
                            }
                        }
                        until
                    };
                    events.push(FleetEvent {
                        round: rounds,
                        at_ns: now,
                        kind: FleetEventKind::DeviceDown {
                            device: d,
                            until_round,
                        },
                        cost_ns: 0,
                    });
                    // Displace the in-flight job, if any: checkpoint at
                    // the last completed iteration boundary and requeue
                    // under backoff — or fail it when the retry budget is
                    // spent. (Whether the degraded pool can still place it
                    // is the triage pass's call, so shedding stays in one
                    // priority-ordered place.)
                    if let Some(run) = devices[d].running.take() {
                        let j = run.job;
                        if run.seg_iters > 0 || run.seg_ns > 0 {
                            placements[j].push(JobPlacement {
                                device: d,
                                busy_ns: run.seg_ns,
                                iters: run.seg_iters,
                            });
                        }
                        details[j].reports.extend(run.reports);
                        if retries[j] + 1 > spec.max_retries {
                            let reason = format!(
                                "displaced {} times; retry budget {} exhausted",
                                retries[j] + 1,
                                spec.max_retries
                            );
                            events.push(FleetEvent {
                                round: rounds,
                                at_ns: now,
                                kind: FleetEventKind::Fail {
                                    job: j,
                                    reason: reason.clone(),
                                },
                                cost_ns: 0,
                            });
                            outcomes[j] = Some(JobOutcome::Failed(reason));
                            let mut session = run.session;
                            details[j].records.extend(session.take_records());
                            details[j].summary = session.summary().clone();
                            details[j].plan_tiers = session.policy().plan_tier_stats();
                        } else {
                            retries[j] += 1;
                            let checkpoint = run.session.checkpoint();
                            overhead[j] += CHECKPOINT_COST_NS;
                            fleet.checkpoints += 1;
                            events.push(FleetEvent {
                                round: rounds,
                                at_ns: now,
                                kind: FleetEventKind::Checkpoint {
                                    job: j,
                                    device: d,
                                    cursor: checkpoint.cursor(),
                                },
                                cost_ns: CHECKPOINT_COST_NS,
                            });
                            events.push(FleetEvent {
                                round: rounds,
                                at_ns: now,
                                kind: FleetEventKind::Requeue {
                                    job: j,
                                    retries: retries[j],
                                },
                                cost_ns: 0,
                            });
                            let ready_round = rounds
                                .saturating_add(BACKOFF_BASE_ROUNDS << (retries[j] - 1).min(32));
                            events.push(FleetEvent {
                                round: rounds,
                                at_ns: now,
                                kind: FleetEventKind::Backoff {
                                    job: j,
                                    until_round: ready_round,
                                },
                                cost_ns: 0,
                            });
                            displaced.push(Displaced {
                                job: j,
                                checkpoint,
                                remaining: run.remaining,
                                ready_round,
                                from_device: d,
                            });
                        }
                    }
                }
            }
            last_cond[d] = conds[d];
        }

        // --- Triage: shed queued work the degraded pool can never place,
        // lowest priority first (graceful degradation instead of
        // starvation). The only place jobs are shed, so the drop order is
        // one deterministic priority sort per round. ---
        let unplaceable = |j: usize| submitted[j].as_ref().is_none_or(|s| s.floor > alive_usable);
        if pending.iter().any(|&j| unplaceable(j)) || displaced.iter().any(|x| unplaceable(x.job)) {
            let mut to_shed: Vec<(usize, Option<Displaced>)> = Vec::new();
            let mut kept = Vec::with_capacity(displaced.len());
            for x in displaced.drain(..) {
                if unplaceable(x.job) {
                    to_shed.push((x.job, Some(x)));
                } else {
                    kept.push(x);
                }
            }
            displaced = kept;
            to_shed.extend(
                pending
                    .iter()
                    .copied()
                    .filter(|&j| unplaceable(j))
                    .map(|j| (j, None)),
            );
            pending.retain(|&j| !unplaceable(j));
            to_shed.sort_by_key(|(j, _)| (spec.jobs[*j].priority, *j));
            for (j, dsp) in to_shed {
                let reason = if alive_usable == 0 {
                    "no surviving device in the pool".to_string()
                } else {
                    format!(
                        "all-checkpoint floor exceeds every surviving device's usable \
                         capacity ({alive_usable} B)"
                    )
                };
                events.push(FleetEvent {
                    round: rounds,
                    at_ns: now,
                    kind: FleetEventKind::Shed {
                        job: j,
                        reason: reason.clone(),
                    },
                    cost_ns: 0,
                });
                fleet.shed_jobs += 1;
                outcomes[j] = Some(JobOutcome::Shed(reason));
                if let Some(dsp) = dsp {
                    // Preserve the checkpointed evidence of what did run.
                    let (summary, records, policy) = dsp.checkpoint.into_evidence();
                    details[j].summary = summary;
                    details[j].records.extend(records);
                    details[j].plan_tiers = policy.plan_tier_stats();
                }
            }
        }

        // --- Dispatch phase: idle, reachable devices pick work in
        // device-index order, so the choice sequence is deterministic.
        // Displaced jobs (highest priority, then requeue order) outrank
        // fresh submissions — they hold warmed checkpoints, and deferring
        // new admissions is the fleet's backpressure under degradation. ---
        for d in 0..n_devs {
            if devices[d].running.is_some() || conds[d] != DeviceCondition::Up {
                continue;
            }
            let cap_factor = spec.faults.capacity_factor(d, rounds);
            let dev_eff = protocol::effective_device(spec, d, cap_factor);
            let usable = protocol::usable_bytes(&dev_eff, spec.headroom);

            // 1. A ready displaced job that fits?
            let pick = displaced
                .iter()
                .enumerate()
                .filter(|(_, x)| {
                    x.ready_round <= rounds
                        && submitted[x.job].as_ref().is_some_and(|s| s.floor <= usable)
                })
                .min_by_key(|(pos, x)| (std::cmp::Reverse(spec.jobs[x.job].priority), *pos))
                .map(|(pos, _)| pos);
            if let Some(pos) = pick {
                let dsp = displaced.remove(pos);
                let j = dsp.job;
                let Some(sub) = submitted[j].as_ref() else {
                    // The pick filter proved submission; settle explicitly
                    // rather than panicking if that invariant ever breaks.
                    outcomes[j] = Some(JobOutcome::Failed(
                        "internal: displaced job lost its submission record".into(),
                    ));
                    continue;
                };
                let decision = ctl.decide_certified(
                    sub.predicted_peak,
                    &sub.worst,
                    &dev_eff,
                    sub.certificate.as_ref(),
                );
                if details[j].admission_reason.is_none() {
                    details[j].admission_reason =
                        decision.reason(sub.predicted_peak, usable).map(|r| {
                            match &sub.graph_evidence {
                                Some(g) => format!("{r}; {g}"),
                                None => r,
                            }
                        });
                }
                let recovery: Option<RecoveryConfig> = match decision {
                    AdmissionDecision::Admit => spec.jobs[j].recovery.clone(),
                    AdmissionDecision::Demote { .. } => {
                        demoted[j] = true;
                        Some(spec.jobs[j].recovery.clone().unwrap_or_default())
                    }
                    AdmissionDecision::Reject { .. } => {
                        // Pre-filtered on the floor, so unreachable; settle
                        // the job explicitly rather than dropping it.
                        let reason = "re-admission rejected below the floor".to_string();
                        events.push(FleetEvent {
                            round: rounds,
                            at_ns: now,
                            kind: FleetEventKind::Fail {
                                job: j,
                                reason: reason.clone(),
                            },
                            cost_ns: 0,
                        });
                        outcomes[j] = Some(JobOutcome::Failed(reason));
                        continue;
                    }
                };
                let cursor = dsp.checkpoint.cursor();
                let mut builder = Session::builder(&spec.jobs[j].model, &spec.jobs[j].dataset)
                    .device(spec.devices[d].clone())
                    .record(spec.record)
                    .resume(dsp.checkpoint);
                if let Some(cfg) = recovery {
                    builder = builder.recovery(cfg);
                }
                if let Some(inj) = spec.faults.injector_for(d) {
                    builder = builder.chaos(inj);
                }
                match builder.build() {
                    Ok(session) => {
                        details[j].device = Some(d);
                        overhead[j] += RESTORE_COST_NS;
                        migrations[j] += 1;
                        fleet.migrations += 1;
                        events.push(FleetEvent {
                            round: rounds,
                            at_ns: now,
                            kind: FleetEventKind::Migrate {
                                job: j,
                                from: dsp.from_device,
                                to: d,
                                cursor,
                                seq: dispatch_seq,
                            },
                            cost_ns: RESTORE_COST_NS,
                        });
                        dispatch_seq += 1;
                        devices[d].running = Some(Running {
                            job: j,
                            session,
                            remaining: dsp.remaining,
                            reports: Vec::with_capacity(dsp.remaining),
                            seg_ns: 0,
                            seg_iters: 0,
                        });
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        events.push(FleetEvent {
                            round: rounds,
                            at_ns: now,
                            kind: FleetEventKind::Fail {
                                job: j,
                                reason: reason.clone(),
                            },
                            cost_ns: 0,
                        });
                        outcomes[j] = Some(JobOutcome::Failed(reason));
                    }
                }
                continue;
            }

            // 2. Otherwise a fresh submission under the dispatch policy.
            let Some(pos) = protocol::pick_pending(
                spec.schedule,
                &pending,
                &submitted,
                &spec.jobs,
                &spec.devices[d],
                usable,
            ) else {
                continue;
            };
            let j = pending.remove(pos);
            let Some(sub) = submitted[j].as_mut() else {
                outcomes[j] = Some(JobOutcome::Failed(
                    "internal: picked job lost its submission record".into(),
                ));
                continue;
            };
            let decision = ctl.decide_certified(
                sub.predicted_peak,
                &sub.worst,
                &dev_eff,
                sub.certificate.as_ref(),
            );
            if details[j].admission_reason.is_none() {
                details[j].admission_reason =
                    decision.reason(sub.predicted_peak, usable).map(|r| {
                        match &sub.graph_evidence {
                            Some(g) => format!("{r}; {g}"),
                            None => r,
                        }
                    });
            }
            let recovery: Option<RecoveryConfig> = match decision {
                AdmissionDecision::Admit => spec.jobs[j].recovery.clone(),
                AdmissionDecision::Demote { .. } => {
                    demoted[j] = true;
                    Some(spec.jobs[j].recovery.clone().unwrap_or_default())
                }
                AdmissionDecision::Reject { .. } => {
                    // Admissibility was pre-filtered on the floor, so the
                    // controller cannot reject here; keep the arm total.
                    outcomes[j] = Some(JobOutcome::Rejected);
                    continue;
                }
            };
            let Some(policy) = sub.policy.take() else {
                outcomes[j] = Some(JobOutcome::Failed(
                    "internal: job policy consumed before dispatch".into(),
                ));
                continue;
            };
            let mut builder = Session::builder(&spec.jobs[j].model, &spec.jobs[j].dataset)
                .policy_boxed(policy)
                .device(spec.devices[d].clone())
                .seed(spec.jobs[j].seed)
                .record(spec.record);
            if let Some(cfg) = recovery {
                builder = builder.recovery(cfg);
            }
            if let Some(inj) = spec.faults.injector_for(d) {
                builder = builder.chaos(inj);
            }
            match builder.build() {
                Ok(session) => {
                    // Queue wait: the cluster's virtual now — the furthest
                    // any device has run — at the dispatch instant.
                    queue_waits[j] = Some(now);
                    details[j].device = Some(d);
                    details[j].dispatch_round = Some(rounds);
                    details[j].dispatch_seq = Some(dispatch_seq);
                    dispatch_seq += 1;
                    devices[d].running = Some(Running {
                        job: j,
                        session,
                        remaining: spec.jobs[j].iters,
                        reports: Vec::with_capacity(spec.jobs[j].iters),
                        seg_ns: 0,
                        seg_iters: 0,
                    });
                }
                Err(e) => outcomes[j] = Some(JobOutcome::Failed(e.to_string())),
            }
        }

        let busy = devices.iter().filter(|s| s.running.is_some()).count();
        if busy == 0 {
            if displaced.is_empty() && pending.is_empty() {
                break;
            }
            // Waiting round: nothing runnable now, but work remains (a
            // down device will return, or a backoff window is open). Jump
            // the virtual round clock to the next boundary instead of
            // spinning; if no boundary lies ahead the stragglers are
            // unreachable — shed them explicitly and stop.
            let next_fault = spec.faults.next_transition_after(rounds);
            let next_ready = displaced
                .iter()
                .map(|x| x.ready_round)
                .filter(|&r| r > rounds)
                .min();
            match [next_fault, next_ready].into_iter().flatten().min() {
                Some(r) => {
                    rounds = r;
                    continue;
                }
                None => {
                    let mut stragglers: Vec<(usize, Option<Displaced>)> = pending
                        .drain(..)
                        .map(|j| (j, None))
                        .chain(displaced.drain(..).map(|x| (x.job, Some(x))))
                        .collect();
                    stragglers.sort_by_key(|(j, _)| (spec.jobs[*j].priority, *j));
                    for (j, dsp) in stragglers {
                        let reason =
                            "fleet quiesced with no placement path for this job".to_string();
                        events.push(FleetEvent {
                            round: rounds,
                            at_ns: now,
                            kind: FleetEventKind::Shed {
                                job: j,
                                reason: reason.clone(),
                            },
                            cost_ns: 0,
                        });
                        fleet.shed_jobs += 1;
                        outcomes[j] = Some(JobOutcome::Shed(reason));
                        if let Some(dsp) = dsp {
                            let (summary, records, policy) = dsp.checkpoint.into_evidence();
                            details[j].summary = summary;
                            details[j].records.extend(records);
                            details[j].plan_tiers = policy.plan_tier_stats();
                        }
                    }
                    break;
                }
            }
        }
        ctl.stats.deferred_rounds += pending.len() + displaced.len();

        // Run phase: one iteration per busy device. `steps[d]` is the
        // device's (prediction, outcome) pair; order never depends on
        // thread scheduling because results land in per-device slots.
        let mut steps: Vec<Option<StepResult>> = (0..n_devs).map(|_| None).collect();
        let step_one = |run: &mut Running| {
            let predicted = run.session.predicted_peak_bytes().ok();
            (predicted, run.session.step())
        };
        if spec.threads == 1 || busy == 1 {
            for (d, state) in devices.iter_mut().enumerate() {
                if let Some(run) = state.running.as_mut() {
                    steps[d] = Some(step_one(run));
                }
            }
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(busy);
                for (d, state) in devices.iter_mut().enumerate() {
                    if let Some(run) = state.running.as_mut() {
                        handles.push(scope.spawn(move || (d, step_one(run))));
                    }
                }
                for h in handles {
                    match h.join() {
                        Ok((d, step)) => steps[d] = Some(step),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
        }

        // Merge phase: ascending device index, so every counter update
        // happens in one canonical order.
        for d in 0..n_devs {
            let Some((predicted, outcome)) = steps[d].take() else {
                continue;
            };
            let finished = {
                let state = &mut devices[d];
                let Some(run) = state.running.as_mut() else {
                    continue;
                };
                match outcome {
                    Ok(report) => {
                        let t = report.time.total_ns();
                        state.busy_ns += t;
                        state.iters += 1;
                        run.seg_ns += t;
                        run.seg_iters += 1;
                        if let Some(p) = predicted {
                            ctl.stats.score(p, report.peak_bytes);
                        }
                        run.reports.push(report);
                        run.remaining = run.remaining.saturating_sub(1);
                        (run.remaining == 0).then(|| {
                            if migrations[run.job] > 0 {
                                JobOutcome::Migrated
                            } else {
                                JobOutcome::Completed
                            }
                        })
                    }
                    Err(e) => Some(JobOutcome::Failed(e.to_string())),
                }
            };
            if let Some(outcome) = finished {
                let Some(mut run) = devices[d].running.take() else {
                    continue;
                };
                devices[d].jobs_run += 1;
                outcomes[run.job] = Some(outcome);
                if run.seg_iters > 0 || run.seg_ns > 0 {
                    placements[run.job].push(JobPlacement {
                        device: d,
                        busy_ns: run.seg_ns,
                        iters: run.seg_iters,
                    });
                }
                details[run.job].records.extend(run.session.take_records());
                details[run.job].summary = run.session.summary().clone();
                details[run.job].plan_tiers = run.session.policy().plan_tier_stats();
                details[run.job]
                    .reports
                    .extend(std::mem::take(&mut run.reports));
            }
        }
        rounds += 1;
    }

    let makespan_ns = devices.iter().map(|s| s.busy_ns).max().unwrap_or(0);
    let device_stats = devices
        .iter()
        .map(|s| DeviceAccum {
            busy_ns: s.busy_ns,
            jobs_run: s.jobs_run,
            iters: s.iters,
        })
        .collect();
    let report = protocol::finish_report(
        spec,
        ctl,
        &details,
        RollupInputs {
            outcomes,
            queue_waits,
            demoted,
            placements,
            migrations,
            retries,
            overhead,
            arrival_ns: vec![0; n_jobs],
            finish_ns: vec![None; n_jobs],
            events,
            fleet,
            lost,
            device_stats,
            rounds,
            makespan_ns,
        },
    );
    Ok(ClusterOutcome { report, details })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CHECKPOINT_COST_NS, RESTORE_COST_NS};
    use crate::job::JobPolicy;
    use crate::workload::{DevicePool, Workload};
    use crate::Cluster;
    use mimose_chaos::{DeviceFault, FaultSpec, FleetFaultPlan};
    use mimose_data::presets;
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_planner::PolicyKind;

    fn small(devices: usize) -> crate::ClusterBuilder {
        Cluster::builder()
            .devices(DevicePool::v100(devices))
            .workload(Workload::mixed(2))
    }

    fn run(builder: crate::ClusterBuilder) -> ClusterOutcome {
        builder.run().expect("spec is well-formed")
    }

    #[test]
    fn graph_pass_evidence_reaches_the_report() {
        let outcome = run(small(2));
        let mut strictly_lower = 0;
        for job in &outcome.report.jobs {
            let raw = job.graph_raw_peak_bytes.expect("raw peak recorded");
            let opt = job.graph_opt_peak_bytes.expect("opt peak recorded");
            assert!(
                opt <= raw,
                "{}: optimized predicted peak {opt} B above raw {raw} B",
                job.name
            );
            if opt < raw {
                strictly_lower += 1;
            }
        }
        // Budget-capped policies (DTR) predict their budget either way;
        // every planner-predicted job must show the pipeline's credit.
        assert!(strictly_lower > 0, "no job's predicted peak moved");
        let json = outcome.report.to_json();
        assert!(json.contains("\"graph_raw_peak_bytes\":"));
        assert!(json.contains("\"graph_opt_peak_bytes\":"));
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let a = run(small(2)).report.to_json();
        let b = run(small(2)).report.to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let serial = run(small(3).threads(1)).report.to_json();
        let parallel = run(small(3).threads(0)).report.to_json();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_schedule_policy_completes_the_workload() {
        for schedule in [
            SchedulePolicy::Fifo,
            SchedulePolicy::ShortestPredicted,
            SchedulePolicy::BestFitMemory,
        ] {
            let outcome = run(small(2).schedule(schedule));
            assert_eq!(outcome.report.schedule, schedule.name());
            assert_eq!(outcome.report.mode, "bsp");
            for job in &outcome.report.jobs {
                assert_eq!(
                    job.outcome,
                    JobOutcome::Completed,
                    "{} under {}",
                    job.name,
                    schedule.name()
                );
            }
            assert!(outcome.report.makespan_ns > 0);
            assert!(outcome.report.utilization_pct > 0.0);
            assert!(outcome.report.events.is_empty());
            assert_eq!(outcome.report.fleet.migrations, 0);
        }
    }

    #[test]
    fn slo_rollup_is_folded_in_bsp_mode_too() {
        let outcome = run(small(2));
        let slo = &outcome.report.slo;
        assert!(slo.iter_latency_p50_ns > 0);
        assert!(slo.iter_latency_p50_ns <= slo.iter_latency_p99_ns);
        assert!(slo.queue_wait_p50_ns <= slo.queue_wait_p99_ns);
        assert_eq!(slo.goodput_iters, 8 * 2);
        assert!(slo.goodput_iters_per_s > 0.0);
        assert_eq!(slo.rejected_jobs, 0);
        let json = outcome.report.to_json();
        assert!(json.contains("\"slo\":{\"queue_wait_p50_ns\":"));
    }

    #[test]
    fn verified_admits_reach_the_fleet_report() {
        let outcome = run(small(2));
        let adm = &outcome.report.admission;
        assert!(adm.verified_admits <= adm.admitted);
        let json = outcome.report.to_json();
        assert!(json.contains(&format!("\"verified_admits\":{}", adm.verified_admits)));
    }

    #[test]
    fn impossible_job_is_rejected_not_hung() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let job = crate::JobSpec::new(
            "too-big",
            model,
            ds,
            JobPolicy::Planner(PolicyKind::Sublinear, 1 << 20),
            2,
            1,
        );
        let mut tiny = mimose_simgpu::DeviceProfile::v100();
        tiny.total_mem_bytes = 1 << 20; // 1 MiB: below any BERT floor
        let outcome = run(Cluster::builder()
            .devices(DevicePool::custom(vec![tiny]))
            .workload(Workload::custom(vec![job])));
        assert_eq!(outcome.report.jobs[0].outcome, JobOutcome::Rejected);
        assert_eq!(outcome.report.jobs[0].device, None);
        assert_eq!(outcome.report.admission.rejected, 1);
        assert_eq!(outcome.report.makespan_ns, 0);
        // Satellite: the rejection explains itself.
        let reason = outcome.report.jobs[0].admission_reason.as_ref().unwrap();
        assert!(reason.contains("all-checkpoint floor"), "{reason}");
    }

    #[test]
    fn more_devices_never_lengthen_the_makespan() {
        let one = run(small(1)).report.makespan_ns;
        let two = run(small(2)).report.makespan_ns;
        assert!(two <= one, "two devices {two} > one device {one}");
    }

    #[test]
    fn fleet_faults_replay_byte_identically() {
        let faults = FleetFaultPlan::new(FaultSpec {
            alloc_failure_rate: 0.3,
            ..FaultSpec::none(99)
        });
        let mk = || small(2).faults(faults.clone()).record(true);
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.report.to_json(), b.report.to_json());
        // Recording captured event streams for every executed iteration.
        for (da, db) in a.details.iter().zip(&b.details) {
            assert_eq!(da.records.len(), da.reports.len());
            assert_eq!(format!("{:?}", da.reports), format!("{:?}", db.reports));
        }
    }

    #[test]
    fn lost_device_migrates_its_job_and_the_fleet_finishes() {
        // 4 devices, 8 jobs, 4 iterations each; device 1 dies permanently
        // in round 2, mid-flight. Everything must still finish (the
        // displaced job via migration), with the full event chain.
        let faults =
            FleetFaultPlan::none(0).with_device_fault(1, DeviceFault::Lost { at_round: 2 });
        let outcome = run(Cluster::builder()
            .devices(DevicePool::v100(4))
            .workload(Workload::mixed(4))
            .faults(faults));
        let r = &outcome.report;
        assert!(
            r.jobs.iter().all(|j| j.outcome.finished()),
            "{:?}",
            r.jobs
                .iter()
                .map(|j| (j.name.clone(), j.outcome.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.fleet.devices_lost, 1);
        assert!(r.fleet.migrations >= 1);
        assert_eq!(r.fleet.checkpoints, r.fleet.migrations);
        assert_eq!(r.fleet.shed_jobs, 0);
        assert!(r.devices[1].lost);
        // The migrated job's evidence: two placements, full iteration
        // count, chained events, attributed overhead.
        let moved: Vec<_> = r.jobs.iter().filter(|j| j.migrations > 0).collect();
        assert!(!moved.is_empty());
        for j in moved {
            assert_eq!(j.outcome, JobOutcome::Migrated);
            assert_eq!(j.iters, 4);
            assert!(j.placements.len() >= 2);
            assert_eq!(j.placements.iter().map(|p| p.iters).sum::<usize>(), 4);
            assert_eq!(
                j.fleet_overhead_ns,
                (CHECKPOINT_COST_NS + RESTORE_COST_NS) * j.migrations as u64
            );
            assert!(j.retries >= 1);
        }
        let kinds: Vec<_> = r.events.iter().map(|e| e.kind.tag()).collect();
        for k in ["device-down", "checkpoint", "requeue", "backoff", "migrate"] {
            assert!(kinds.contains(&k), "missing {k} in {kinds:?}");
        }
        // Event timestamps never run backwards.
        for w in r.events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
    }

    #[test]
    fn device_loss_replays_byte_identically_across_threads() {
        let mk = |threads| {
            let faults =
                FleetFaultPlan::none(0).with_device_fault(1, DeviceFault::Lost { at_round: 2 });
            Cluster::builder()
                .devices(DevicePool::v100(4))
                .workload(Workload::mixed(4))
                .faults(faults)
                .threads(threads)
                .record(true)
        };
        let serial = run(mk(1)).report.to_json();
        let parallel = run(mk(4)).report.to_json();
        assert_eq!(serial, parallel);
        assert_eq!(serial, run(mk(1)).report.to_json());
    }

    #[test]
    fn transient_outage_returns_the_device_to_service() {
        // Device 0 of 2 goes down for 3 rounds; its job migrates to the
        // survivor and the device serves again after the outage.
        let faults = FleetFaultPlan::none(0).with_device_fault(
            0,
            DeviceFault::Down {
                at_round: 1,
                duration: 3,
            },
        );
        let outcome = run(Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(3))
            .faults(faults));
        let r = &outcome.report;
        assert!(r.jobs.iter().all(|j| j.outcome.finished()));
        assert_eq!(r.fleet.devices_lost, 0);
        assert!(!r.devices[0].lost);
        let kinds: Vec<_> = r.events.iter().map(|e| e.kind.tag()).collect();
        assert!(kinds.contains(&"device-down"));
        assert!(kinds.contains(&"device-up"));
        // The down event knows when the device returns.
        let down = r.events.iter().find_map(|e| match &e.kind {
            FleetEventKind::DeviceDown {
                device: 0,
                until_round,
            } => Some(*until_round),
            _ => None,
        });
        assert_eq!(down, Some(Some(4)));
        // Device 0 ran iterations after returning (it served again).
        assert!(r.devices[0].iters > 0);
    }

    #[test]
    fn losing_every_device_sheds_the_backlog_explicitly() {
        let faults = FleetFaultPlan::none(0)
            .with_device_fault(0, DeviceFault::Lost { at_round: 1 })
            .with_device_fault(1, DeviceFault::Lost { at_round: 1 });
        let spec = Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(4))
            .faults(faults)
            .build()
            .expect("valid spec");
        let outcome = run_bsp(&spec).expect("validated spec runs");
        let r = &outcome.report;
        // No hangs, no silent drops: every job has an explicit outcome.
        for j in &r.jobs {
            assert!(
                matches!(j.outcome, JobOutcome::Shed(_)) || j.outcome.finished(),
                "{}: {:?}",
                j.name,
                j.outcome
            );
        }
        assert!(r.fleet.shed_jobs > 0);
        assert_eq!(r.fleet.devices_lost, 2);
        // Within a round, shedding drops the lowest-priority jobs first.
        let shed_events: Vec<(usize, usize)> = r
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                FleetEventKind::Shed { job, .. } => Some((e.round, *job)),
                _ => None,
            })
            .collect();
        assert!(shed_events.len() > 1);
        for w in shed_events.windows(2) {
            let ((ra, a), (rb, b)) = (w[0], w[1]);
            if ra == rb {
                assert!(
                    (spec.jobs[a].priority, a) <= (spec.jobs[b].priority, b),
                    "shed order not lowest-priority-first: {a} before {b}"
                );
            }
        }
    }

    #[test]
    fn retry_budget_bounds_repeated_displacement() {
        // One device that flaps down every other round around a 1-device
        // pool forces repeated displacement of the same job; with a
        // 1-retry budget the job must fail explicitly, not loop forever.
        let faults = FleetFaultPlan::none(0)
            .with_device_fault(
                0,
                DeviceFault::Down {
                    at_round: 1,
                    duration: 1,
                },
            )
            .with_device_fault(
                0,
                DeviceFault::Down {
                    at_round: 3,
                    duration: 1,
                },
            )
            .with_device_fault(
                0,
                DeviceFault::Down {
                    at_round: 5,
                    duration: 1,
                },
            );
        let jobs = vec![Workload::mixed(8).into_jobs().remove(0)];
        let outcome = run(Cluster::builder()
            .devices(DevicePool::v100(1))
            .workload(Workload::custom(jobs))
            .faults(faults)
            .max_retries(1));
        let job = &outcome.report.jobs[0];
        assert!(
            matches!(job.outcome, JobOutcome::Failed(_)) || job.outcome.finished(),
            "{:?}",
            job.outcome
        );
        assert!(
            job.retries <= 2,
            "retries {} exceeded budget+1",
            job.retries
        );
        if let JobOutcome::Failed(reason) = &job.outcome {
            assert!(reason.contains("retry budget"), "{reason}");
        }
    }
}
