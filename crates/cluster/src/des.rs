//! The discrete-event (serving-mode) fleet driver.
//!
//! Where [`run_bsp`](crate::scheduler::run_bsp) advances a round clock in
//! lockstep, `run_event` advances a virtual-nanosecond clock through a
//! seed-deterministic event queue: job **arrivals** (drawn from the
//! spec's [`ArrivalProcess`](mimose_data::ArrivalProcess)), per-iteration
//! **completions**, timed device **fault transitions** and displaced-job
//! **backoff expiries**. Dispatch happens only at event boundaries, so
//! queueing, SLO tails and overload behavior become visible — the serving
//! world the BSP batch world cannot express.
//!
//! # Determinism
//!
//! The loop is serial by construction: events pop in `(time, class,
//! push-sequence)` order from a binary heap, every batch of same-instant
//! events is processed before one triage + dispatch pass runs, and all
//! randomness (arrival gaps, chaos injection) is seeded. Two runs of the
//! same spec produce byte-identical reports, and the `threads` knob is
//! documented as a no-op here, so thread-count independence is trivial.
//!
//! # Fault semantics
//!
//! Timed faults ([`TimedDeviceFault`](mimose_chaos::TimedDeviceFault))
//! take effect at *transition events*, but a device that dies
//! mid-iteration only surrenders its job at the iteration's **completion
//! boundary** — the same place a real executor could first observe the
//! loss and the only boundary a [`SessionCheckpoint`] can capture. The
//! displaced job then follows the BSP protocol verbatim (checkpoint →
//! requeue → exponential backoff in virtual nanoseconds → migrate through
//! re-admission), with every step a timestamped
//! [`FleetEvent`](crate::FleetEvent).

use crate::admission::AdmissionController;
use crate::error::ClusterError;
use crate::events::{
    FleetEvent, FleetEventKind, BACKOFF_BASE_NS, CHECKPOINT_COST_NS, RESTORE_COST_NS,
};
use crate::protocol::{self, DeviceAccum, RollupInputs};
use crate::report::{FleetStats, JobOutcome, JobPlacement};
use crate::scheduler::{ClusterOutcome, ClusterSpec, JobDetail};
use crate::spec::validate;
use crate::AdmissionDecision;
use mimose_chaos::DeviceCondition;
use mimose_exec::{RecoveryConfig, Session, SessionCheckpoint};
use mimose_runtime::IterationReport;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queue entry's payload. The derived `Ord` is never reached in heap
/// comparisons (the push sequence number before it is unique) but keeps
/// the tuple totally ordered.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// The fault plan crosses a timed boundary: re-observe every device.
    Transition,
    /// The in-flight iteration on a device reaches its boundary.
    Finish { device: usize },
    /// A job enters the fleet.
    Arrive { job: usize },
    /// A displaced job's backoff window closes (pure wakeup; the dispatch
    /// pass re-checks eligibility by time).
    Ready,
}

impl Ev {
    /// Tie-break class for same-instant events: fault transitions are
    /// observed first (so a completion at the same instant already sees
    /// the device down), then completions free devices, then arrivals
    /// queue, then wakeups — and the batch's single dispatch pass sees the
    /// union.
    fn class(&self) -> u8 {
        match self {
            Ev::Transition => 0,
            Ev::Finish { .. } => 1,
            Ev::Arrive { .. } => 2,
            Ev::Ready => 3,
        }
    }
}

/// Min-heap of `(t_ns, class, push_seq, payload)` with a monotone push
/// sequence so ordering is total and insertion-stable.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u8, u64, Ev)>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, t_ns: u64, ev: Ev) {
        self.heap.push(Reverse((t_ns, ev.class(), self.seq, ev)));
        self.seq += 1;
    }

    /// Pop every event at the earliest pending instant, in class/sequence
    /// order. Events pushed *during* a batch — even at the same instant —
    /// form a later batch.
    fn pop_batch(&mut self) -> Option<(u64, Vec<Ev>)> {
        let Reverse((t, _, _, first)) = self.heap.pop()?;
        let mut batch = vec![first];
        while self.heap.peek().is_some_and(|Reverse((pt, ..))| *pt == t) {
            if let Some(Reverse((_, _, _, ev))) = self.heap.pop() {
                batch.push(ev);
            }
        }
        Some((t, batch))
    }
}

/// The step a session executed eagerly at dispatch, held until its
/// completion event fires: the pre-step peak prediction and the outcome.
type StepResult = (
    Option<usize>,
    Result<IterationReport, mimose_exec::ExecError>,
);

/// One job executing on a device, with its in-flight iteration.
struct Running<'a> {
    job: usize,
    session: Session<'a>,
    remaining: usize,
    reports: Vec<IterationReport>,
    seg_ns: u64,
    seg_iters: usize,
    inflight: Option<StepResult>,
}

/// A checkpointed job waiting out its backoff window (virtual ns).
struct Displaced<'a> {
    job: usize,
    checkpoint: SessionCheckpoint<'a>,
    remaining: usize,
    ready_ns: u64,
    from_device: usize,
}

#[derive(Default)]
struct DeviceState<'a> {
    busy_ns: u64,
    jobs_run: usize,
    iters: usize,
    running: Option<Running<'a>>,
}

/// Eagerly execute the next iteration and schedule its completion event.
/// Exec errors schedule a zero-length completion so the failure settles
/// through the same boundary path.
fn advance(run: &mut Running, q: &mut EventQueue, t: u64, device: usize) {
    let predicted = run.session.predicted_peak_bytes().ok();
    let outcome = run.session.step();
    let dt = match &outcome {
        Ok(report) => report.time.total_ns(),
        Err(_) => 0,
    };
    run.inflight = Some((predicted, outcome));
    q.push(t.saturating_add(dt), Ev::Finish { device });
}

/// Run the whole spec to completion under the discrete-event clock. The
/// same per-job failure philosophy as BSP applies: a run that starts
/// always yields a report, with every job settled by an explicit outcome
/// and a terminal event on the chain.
///
/// # Errors
///
/// [`ClusterError`] when the spec cannot start at all (empty device pool,
/// zero-iteration job).
#[allow(clippy::too_many_lines)]
pub(crate) fn run_event(spec: &ClusterSpec) -> Result<ClusterOutcome, ClusterError> {
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
    let mut finish_ns: Vec<Option<u64>> = vec![None; n_jobs];
    let mut events: Vec<FleetEvent> = Vec::new();
    let mut fleet = FleetStats {
        max_retries: spec.max_retries,
        ..FleetStats::default()
    };

    // Submission runs the same pass as BSP, up front: profiles, floors,
    // certificates. Jobs it settles (unprofilable, floor over every
    // device) replay their terminal event when their arrival fires, so
    // the chain still accounts for them at the right virtual instant.
    let mut submitted = protocol::submit_jobs(spec, &mut ctl, &mut outcomes, &mut details);

    let arrival_ns = spec.arrivals.arrival_ns(n_jobs);
    let mut q = EventQueue::default();
    for (j, &t) in arrival_ns.iter().enumerate() {
        q.push(t, Ev::Arrive { job: j });
    }
    // Seed the fault-transition chain; each transition schedules the next,
    // so the walk covers exactly the plan's timed boundaries.
    q.push(0, Ev::Transition);

    let mut pending: Vec<usize> = Vec::new();
    let mut displaced: Vec<Displaced> = Vec::new();
    let mut devices: Vec<DeviceState> = (0..n_devs).map(|_| DeviceState::default()).collect();
    let mut last_cond: Vec<DeviceCondition> = vec![DeviceCondition::Up; n_devs];
    let mut lost: Vec<bool> = vec![false; n_devs];
    let mut epoch = 0usize;
    let mut dispatch_seq = 0usize;
    let mut last_t = 0u64;

    while let Some((t, batch)) = q.pop_batch() {
        last_t = t;
        for ev in batch {
            match ev {
                Ev::Transition => {
                    let conds: Vec<DeviceCondition> = (0..n_devs)
                        .map(|d| spec.faults.device_condition_at_ns(d, t))
                        .collect();
                    for d in 0..n_devs {
                        if conds[d] == last_cond[d] {
                            continue;
                        }
                        match conds[d] {
                            DeviceCondition::Up => events.push(FleetEvent {
                                round: epoch,
                                at_ns: t,
                                kind: FleetEventKind::DeviceUp { device: d },
                                cost_ns: 0,
                            }),
                            DeviceCondition::Down | DeviceCondition::Lost => {
                                let until_round = if conds[d] == DeviceCondition::Lost {
                                    lost[d] = true;
                                    fleet.devices_lost += 1;
                                    None
                                } else {
                                    // Walk the timed boundaries to the
                                    // instant this device returns.
                                    let mut probe = t;
                                    let mut until = None;
                                    while let Some(b) = spec.faults.next_transition_after_ns(probe)
                                    {
                                        match spec.faults.device_condition_at_ns(d, b) {
                                            DeviceCondition::Up => {
                                                until = Some(b as usize);
                                                break;
                                            }
                                            DeviceCondition::Lost => break,
                                            DeviceCondition::Down => probe = b,
                                        }
                                    }
                                    until
                                };
                                events.push(FleetEvent {
                                    round: epoch,
                                    at_ns: t,
                                    kind: FleetEventKind::DeviceDown {
                                        device: d,
                                        until_round,
                                    },
                                    cost_ns: 0,
                                });
                                // The in-flight job (if any) keeps running
                                // to its iteration boundary; displacement
                                // happens at its completion event.
                            }
                        }
                        last_cond[d] = conds[d];
                    }
                    if let Some(next) = spec.faults.next_transition_after_ns(t) {
                        q.push(next, Ev::Transition);
                    }
                }
                Ev::Finish { device: d } => {
                    let Some(mut run) = devices[d].running.take() else {
                        continue; // stale wakeup; nothing in flight here
                    };
                    let j = run.job;
                    let Some((predicted, outcome)) = run.inflight.take() else {
                        outcomes[j] = Some(JobOutcome::Failed(
                            "internal: completion fired with no in-flight step".into(),
                        ));
                        continue;
                    };
                    let report = match outcome {
                        Ok(report) => report,
                        Err(e) => {
                            let reason = e.to_string();
                            events.push(FleetEvent {
                                round: epoch,
                                at_ns: t,
                                kind: FleetEventKind::Fail {
                                    job: j,
                                    reason: reason.clone(),
                                },
                                cost_ns: 0,
                            });
                            outcomes[j] = Some(JobOutcome::Failed(reason));
                            devices[d].jobs_run += 1;
                            if run.seg_iters > 0 || run.seg_ns > 0 {
                                placements[j].push(JobPlacement {
                                    device: d,
                                    busy_ns: run.seg_ns,
                                    iters: run.seg_iters,
                                });
                            }
                            details[j].records.extend(run.session.take_records());
                            details[j].summary = run.session.summary().clone();
                            details[j].plan_tiers = run.session.policy().plan_tier_stats();
                            details[j].reports.extend(run.reports);
                            continue;
                        }
                    };
                    // Commit the iteration at its boundary.
                    let dt = report.time.total_ns();
                    devices[d].busy_ns += dt;
                    devices[d].iters += 1;
                    run.seg_ns += dt;
                    run.seg_iters += 1;
                    if let Some(p) = predicted {
                        ctl.stats.score(p, report.peak_bytes);
                    }
                    run.reports.push(report);
                    run.remaining = run.remaining.saturating_sub(1);
                    if run.remaining == 0 {
                        let outcome = if migrations[j] > 0 {
                            JobOutcome::Migrated
                        } else {
                            JobOutcome::Completed
                        };
                        events.push(FleetEvent {
                            round: epoch,
                            at_ns: t,
                            kind: FleetEventKind::Complete { job: j, device: d },
                            cost_ns: 0,
                        });
                        outcomes[j] = Some(outcome);
                        finish_ns[j] = Some(t);
                        devices[d].jobs_run += 1;
                        if run.seg_iters > 0 || run.seg_ns > 0 {
                            placements[j].push(JobPlacement {
                                device: d,
                                busy_ns: run.seg_ns,
                                iters: run.seg_iters,
                            });
                        }
                        details[j].records.extend(run.session.take_records());
                        details[j].summary = run.session.summary().clone();
                        details[j].plan_tiers = run.session.policy().plan_tier_stats();
                        details[j].reports.extend(std::mem::take(&mut run.reports));
                        continue;
                    }
                    match spec.faults.device_condition_at_ns(d, t) {
                        DeviceCondition::Up => {
                            // Next iteration starts immediately.
                            advance(&mut run, &mut q, t, d);
                            devices[d].running = Some(run);
                        }
                        DeviceCondition::Down | DeviceCondition::Lost => {
                            // The device died under the job: displace at
                            // this boundary, BSP-protocol-style.
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
                                    round: epoch,
                                    at_ns: t,
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
                                    round: epoch,
                                    at_ns: t,
                                    kind: FleetEventKind::Checkpoint {
                                        job: j,
                                        device: d,
                                        cursor: checkpoint.cursor(),
                                    },
                                    cost_ns: CHECKPOINT_COST_NS,
                                });
                                events.push(FleetEvent {
                                    round: epoch,
                                    at_ns: t,
                                    kind: FleetEventKind::Requeue {
                                        job: j,
                                        retries: retries[j],
                                    },
                                    cost_ns: 0,
                                });
                                let ready_ns =
                                    t.saturating_add(BACKOFF_BASE_NS << (retries[j] - 1).min(32));
                                events.push(FleetEvent {
                                    round: epoch,
                                    at_ns: t,
                                    kind: FleetEventKind::Backoff {
                                        job: j,
                                        until_round: ready_ns as usize,
                                    },
                                    cost_ns: 0,
                                });
                                q.push(ready_ns, Ev::Ready);
                                displaced.push(Displaced {
                                    job: j,
                                    checkpoint,
                                    remaining: run.remaining,
                                    ready_ns,
                                    from_device: d,
                                });
                            }
                        }
                    }
                }
                Ev::Arrive { job: j } => {
                    events.push(FleetEvent {
                        round: epoch,
                        at_ns: t,
                        kind: FleetEventKind::Arrive { job: j },
                        cost_ns: 0,
                    });
                    match &outcomes[j] {
                        Some(JobOutcome::Rejected) => {
                            // Settled at submission; replay the verdict on
                            // the chain at the arrival instant.
                            let reason = details[j]
                                .admission_reason
                                .clone()
                                .unwrap_or_else(|| "rejected at submission".to_string());
                            events.push(FleetEvent {
                                round: epoch,
                                at_ns: t,
                                kind: FleetEventKind::Reject { job: j, reason },
                                cost_ns: 0,
                            });
                        }
                        Some(JobOutcome::Failed(reason)) => {
                            events.push(FleetEvent {
                                round: epoch,
                                at_ns: t,
                                kind: FleetEventKind::Fail {
                                    job: j,
                                    reason: reason.clone(),
                                },
                                cost_ns: 0,
                            });
                        }
                        Some(_) => {}
                        None => {
                            if spec.queue_limit.is_some_and(|limit| pending.len() >= limit) {
                                // The overload valve: bounded queue full,
                                // shed on arrival rather than queue into an
                                // SLO-busting backlog.
                                let reason = format!(
                                    "queue full on arrival ({} jobs waiting, limit {})",
                                    pending.len(),
                                    spec.queue_limit.unwrap_or(0)
                                );
                                events.push(FleetEvent {
                                    round: epoch,
                                    at_ns: t,
                                    kind: FleetEventKind::Shed {
                                        job: j,
                                        reason: reason.clone(),
                                    },
                                    cost_ns: 0,
                                });
                                fleet.shed_jobs += 1;
                                outcomes[j] = Some(JobOutcome::Shed(reason));
                            } else {
                                pending.push(j);
                            }
                        }
                    }
                }
                Ev::Ready => {} // pure wakeup; dispatch below re-checks
            }
        }

        // --- Triage: shed queued work the degraded pool can never place,
        // lowest priority first — identical policy to BSP. Down devices
        // still count (they come back); only lost ones don't. ---
        let alive_usable = (0..n_devs)
            .filter(|&d| spec.faults.device_condition_at_ns(d, t) != DeviceCondition::Lost)
            .map(|d| protocol::usable_bytes(&spec.devices[d], spec.headroom))
            .max()
            .unwrap_or(0);
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
                    round: epoch,
                    at_ns: t,
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
        }

        // --- Dispatch pass: idle, up devices pick work in index order.
        // Displaced jobs outrank fresh arrivals, exactly as in BSP. ---
        #[allow(clippy::needless_range_loop)] // devices[d] is re-borrowed mutably mid-body
        for d in 0..n_devs {
            if devices[d].running.is_some()
                || spec.faults.device_condition_at_ns(d, t) != DeviceCondition::Up
            {
                continue;
            }
            let cap_factor = spec.faults.capacity_factor_at_ns(d, t);
            let dev_eff = protocol::effective_device(spec, d, cap_factor);
            let usable = protocol::usable_bytes(&dev_eff, spec.headroom);

            // 1. A ready displaced job that fits?
            let pick = displaced
                .iter()
                .enumerate()
                .filter(|(_, x)| {
                    x.ready_ns <= t && submitted[x.job].as_ref().is_some_and(|s| s.floor <= usable)
                })
                .min_by_key(|(pos, x)| (Reverse(spec.jobs[x.job].priority), *pos))
                .map(|(pos, _)| pos);
            if let Some(pos) = pick {
                let dsp = displaced.remove(pos);
                let j = dsp.job;
                let Some(sub) = submitted[j].as_ref() else {
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
                        let reason = "re-admission rejected below the floor".to_string();
                        events.push(FleetEvent {
                            round: epoch,
                            at_ns: t,
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
                            round: epoch,
                            at_ns: t,
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
                        let mut run = Running {
                            job: j,
                            session,
                            remaining: dsp.remaining,
                            reports: Vec::with_capacity(dsp.remaining),
                            seg_ns: 0,
                            seg_iters: 0,
                            inflight: None,
                        };
                        advance(&mut run, &mut q, t, d);
                        devices[d].running = Some(run);
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        events.push(FleetEvent {
                            round: epoch,
                            at_ns: t,
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

            // 2. Otherwise a fresh arrival under the dispatch policy.
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
                    queue_waits[j] = Some(t.saturating_sub(arrival_ns[j]));
                    details[j].device = Some(d);
                    details[j].dispatch_round = Some(epoch);
                    details[j].dispatch_seq = Some(dispatch_seq);
                    events.push(FleetEvent {
                        round: epoch,
                        at_ns: t,
                        kind: FleetEventKind::Dispatch {
                            job: j,
                            device: d,
                            seq: dispatch_seq,
                        },
                        cost_ns: 0,
                    });
                    dispatch_seq += 1;
                    let mut run = Running {
                        job: j,
                        session,
                        remaining: spec.jobs[j].iters,
                        reports: Vec::with_capacity(spec.jobs[j].iters),
                        seg_ns: 0,
                        seg_iters: 0,
                        inflight: None,
                    };
                    advance(&mut run, &mut q, t, d);
                    devices[d].running = Some(run);
                }
                Err(e) => {
                    let reason = e.to_string();
                    events.push(FleetEvent {
                        round: epoch,
                        at_ns: t,
                        kind: FleetEventKind::Fail {
                            job: j,
                            reason: reason.clone(),
                        },
                        cost_ns: 0,
                    });
                    outcomes[j] = Some(JobOutcome::Failed(reason));
                }
            }
        }
        ctl.stats.deferred_rounds += pending.len() + displaced.len();
        epoch += 1;
    }

    // The queue drained with work still waiting: no running iteration, no
    // upcoming transition, no backoff wakeup — there is no event that
    // could ever place these jobs. Shed them explicitly, lowest priority
    // first, at the final instant.
    if !pending.is_empty() || !displaced.is_empty() {
        let mut stragglers: Vec<(usize, Option<Displaced>)> = pending
            .drain(..)
            .map(|j| (j, None))
            .chain(displaced.drain(..).map(|x| (x.job, Some(x))))
            .collect();
        stragglers.sort_by_key(|(j, _)| (spec.jobs[*j].priority, *j));
        for (j, dsp) in stragglers {
            let reason = "fleet quiesced with no placement path for this job".to_string();
            events.push(FleetEvent {
                round: epoch,
                at_ns: last_t,
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
        epoch += 1;
    }

    // Makespan is the last instant anything *happened* — the maximum event
    // timestamp — not the last instant the heap held (stale backoff
    // wakeups past the end of useful work must not inflate it). Every job
    // end emits a terminal event, so coverage is guaranteed.
    let makespan_ns = events.iter().map(|e| e.at_ns).max().unwrap_or(0);
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
            arrival_ns,
            finish_ns,
            events,
            fleet,
            lost,
            device_stats,
            rounds: epoch,
            makespan_ns,
        },
    );
    Ok(ClusterOutcome { report, details })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{DevicePool, Workload};
    use crate::{Cluster, Mode};
    use mimose_chaos::{FleetFaultPlan, TimedDeviceFault};
    use mimose_data::ArrivalProcess;

    fn serve(arrivals: ArrivalProcess) -> crate::ClusterBuilder {
        Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(2))
            .mode(Mode::EventDriven)
            .arrivals(arrivals)
    }

    #[test]
    fn event_mode_completes_and_replays_byte_identically() {
        let mk = || serve(ArrivalProcess::poisson(400_000, 42));
        let a = mk().run().expect("runs");
        let b = mk().run().expect("runs");
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.report.mode, "event-driven");
        for job in &a.report.jobs {
            assert_eq!(job.outcome, JobOutcome::Completed, "{}", job.name);
        }
        // The chain settles every job: arrive, dispatch, complete.
        let tags: Vec<_> = a.report.events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags.iter().filter(|t| **t == "arrive").count(), 8);
        assert_eq!(tags.iter().filter(|t| **t == "dispatch").count(), 8);
        assert_eq!(tags.iter().filter(|t| **t == "complete").count(), 8);
    }

    #[test]
    fn event_timestamps_and_makespan_are_consistent() {
        let outcome = serve(ArrivalProcess::poisson(400_000, 7))
            .run()
            .expect("runs");
        let r = &outcome.report;
        for w in r.events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "event time ran backwards");
        }
        let max_at = r.events.iter().map(|e| e.at_ns).max().unwrap();
        assert_eq!(r.makespan_ns, max_at);
        // Queue waits re-derive from the chain.
        for job in &r.jobs {
            let arrive = r
                .events
                .iter()
                .find(|e| e.kind.tag() == "arrive" && e.kind.job() == Some(job_index(r, job)))
                .expect("every job arrives");
            let dispatch = r
                .events
                .iter()
                .find(|e| e.kind.tag() == "dispatch" && e.kind.job() == Some(job_index(r, job)));
            if let Some(dispatch) = dispatch {
                assert_eq!(dispatch.at_ns - arrive.at_ns, job.queue_wait_ns);
                assert_eq!(arrive.at_ns, job.arrival_ns);
            }
        }
    }

    fn job_index(r: &crate::ClusterReport, job: &crate::JobReport) -> usize {
        r.jobs.iter().position(|x| x.name == job.name).unwrap()
    }

    #[test]
    fn staggered_arrivals_shrink_early_queue_waits() {
        // Immediate arrivals pile all 8 jobs onto 2 devices at t=0: six of
        // them wait. Wide Poisson gaps let devices drain between arrivals.
        let packed = serve(ArrivalProcess::Immediate).run().expect("runs");
        let spread = serve(ArrivalProcess::poisson(50_000_000, 3))
            .run()
            .expect("runs");
        assert!(
            spread.report.slo.queue_wait_p95_ns <= packed.report.slo.queue_wait_p95_ns,
            "spread arrivals p95 wait {} > packed {}",
            spread.report.slo.queue_wait_p95_ns,
            packed.report.slo.queue_wait_p95_ns
        );
    }

    #[test]
    fn bounded_queue_sheds_on_arrival_under_overload() {
        let outcome = Cluster::builder()
            .devices(DevicePool::v100(1))
            .workload(Workload::mixed(2))
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::Immediate)
            .queue_limit(Some(2))
            .run()
            .expect("runs");
        let r = &outcome.report;
        assert!(r.fleet.shed_jobs > 0, "no sheds under a full queue");
        assert!(r.slo.shed_rate_pct > 0.0);
        // Every job settled: no silent drops even under overload.
        for job in &r.jobs {
            assert!(
                job.outcome.finished()
                    || matches!(job.outcome, JobOutcome::Shed(_) | JobOutcome::Rejected),
                "{}: {:?}",
                job.name,
                job.outcome
            );
        }
        let shed_reason = r
            .events
            .iter()
            .find_map(|e| match &e.kind {
                FleetEventKind::Shed { reason, .. } => Some(reason.clone()),
                _ => None,
            })
            .expect("shed event recorded");
        assert!(shed_reason.contains("queue full"), "{shed_reason}");
    }

    #[test]
    fn timed_device_loss_migrates_at_the_iteration_boundary() {
        // Device 1 of 2 is lost early; its in-flight job must checkpoint
        // at its boundary, back off in virtual ns, and migrate to device 0.
        let faults = FleetFaultPlan::none(0)
            .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 1_000_000 });
        let outcome = Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(3))
            .mode(Mode::EventDriven)
            .faults(faults)
            .run()
            .expect("runs");
        let r = &outcome.report;
        assert_eq!(r.fleet.devices_lost, 1);
        assert!(r.devices[1].lost);
        assert!(r.fleet.migrations >= 1);
        assert_eq!(r.fleet.checkpoints, r.fleet.migrations);
        assert!(
            r.jobs.iter().all(|j| j.outcome.finished()),
            "{:?}",
            r.jobs
                .iter()
                .map(|j| (&j.name, &j.outcome))
                .collect::<Vec<_>>()
        );
        let kinds: Vec<_> = r.events.iter().map(|e| e.kind.tag()).collect();
        for k in ["device-down", "checkpoint", "requeue", "backoff", "migrate"] {
            assert!(kinds.contains(&k), "missing {k} in {kinds:?}");
        }
        // Migrated jobs carry their overhead attribution, as in BSP.
        for j in r.jobs.iter().filter(|j| j.migrations > 0) {
            assert_eq!(
                j.fleet_overhead_ns,
                (CHECKPOINT_COST_NS + RESTORE_COST_NS) * j.migrations as u64
            );
        }
    }

    #[test]
    fn transient_timed_outage_returns_the_device() {
        let faults = FleetFaultPlan::none(0).with_timed_fault(
            0,
            TimedDeviceFault::Down {
                at_ns: 500_000,
                duration_ns: 2_000_000,
            },
        );
        let outcome = Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(3))
            .mode(Mode::EventDriven)
            .faults(faults)
            .run()
            .expect("runs");
        let r = &outcome.report;
        assert_eq!(r.fleet.devices_lost, 0);
        assert!(!r.devices[0].lost);
        let kinds: Vec<_> = r.events.iter().map(|e| e.kind.tag()).collect();
        assert!(kinds.contains(&"device-down"));
        assert!(kinds.contains(&"device-up"));
        // The down event names the return instant in virtual ns.
        let down = r.events.iter().find_map(|e| match e.kind {
            FleetEventKind::DeviceDown {
                device: 0,
                until_round,
            } => Some(until_round),
            _ => None,
        });
        assert_eq!(down, Some(Some(2_500_000)));
        assert!(r.jobs.iter().all(|j| j.outcome.finished()));
    }
}
