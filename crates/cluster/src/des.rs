//! The fleet driver: one discrete-event loop, two clocks.
//!
//! A seed-deterministic event queue drives the whole run: job
//! **arrivals**, iteration **completions**, device **fault transitions**
//! and displaced-job **backoff expiries**. Both modes only decide *when* a
//! job's next iteration runs; everything else — admission, dispatch,
//! displacement, triage, shedding and the report fold — is this one loop.
//!
//! - **Event clock** ([`Mode::EventDriven`]): the queue counts virtual
//!   nanoseconds. Arrivals come from the spec's
//!   [`ArrivalProcess`](mimose_data::ArrivalProcess), each iteration
//!   completes at its own instant, timed faults apply, and events are
//!   stamped with the loop epoch and the queue time.
//! - **Round clock** ([`Mode::Bsp`]): a tick is one round. Every job
//!   arrives at tick 0, every busy device runs one iteration per tick, and
//!   a single `Barrier` event ends the round and commits its steps in
//!   device-index order. Round-indexed faults apply through
//!   [`FleetFaultPlan::on_round_clock`], and events are stamped with the
//!   round and the furthest any device has run.
//!
//! # Determinism
//!
//! Events pop in `(time, class, push-sequence)` order from a binary heap.
//! Every batch of same-instant events is handled before one triage and one
//! dispatch pass; then every job parked at its iteration boundary steps
//! once. Steps touch no shared state and their results are committed in a
//! fixed order, so the pass may run on scoped threads (`threads != 1`)
//! without changing a byte. Two runs of the same spec produce identical
//! reports, and the loop stops when the last job settles.
//!
//! # Failure protocol
//!
//! The fault plan can take devices away mid-run. A `Transition` event
//! records each device's new condition. A job is displaced at the later of
//! its device's fault and its own iteration boundary — the only place a
//! [`SessionCheckpoint`] can capture it: a transition displaces a job
//! parked at its boundary, and a completion displaces its job when the
//! observed condition is down. The displaced job is **checkpointed**
//! ([`Session::checkpoint`] keeps the warmed policy, the data-stream
//! cursor and the summary), **requeued** under exponential backoff (one
//! tick or [`BACKOFF_BASE_NS`] doubled per retry), and **migrated** to a
//! surviving device through the same admission controller that gated its
//! first dispatch. When the degraded pool can never place a job, or its
//! retry budget is spent, the job is **shed** or **failed** explicitly —
//! lowest priority first — never silently dropped. Every step is a typed,
//! cost-attributed [`FleetEvent`] on the report.

use crate::admission::{usable_bytes, AdmissionController, AdmissionDecision};
use crate::events::{
    FleetEvent, FleetEventKind, BACKOFF_BASE_NS, CHECKPOINT_COST_NS, RESTORE_COST_NS,
};
use crate::protocol::{self, Submitted};
use crate::report::{
    ClusterReport, DeviceReport, FleetStats, JobOutcome, JobPlacement, JobReport, SloRollup,
};
use crate::spec::{ClusterOutcome, ClusterSpec, JobDetail, Mode};
use mimose_chaos::{DeviceCondition, FleetFaultPlan};
use mimose_exec::{ExecError, RecoveryConfig, Session, SessionBuilder, SessionCheckpoint};
use mimose_runtime::IterationReport;
use mimose_simgpu::DeviceProfile;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queue entry's payload, declared in tie-break order for same-instant
/// events: the round barrier commits the last round before its faults are
/// observed, fault transitions come before completions (so a completion at
/// the same instant already sees the device down), completions free
/// devices before arrivals queue, and wakeups come last — the batch's
/// single dispatch pass sees the union.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Round clock: the round's steps end; commit them in device order.
    Barrier,
    /// The fault plan crosses a boundary: re-observe every device.
    Transition,
    /// Event clock: the in-flight iteration on a device reaches its
    /// boundary.
    Finish { device: usize },
    /// A job enters the fleet.
    Arrive { job: usize },
    /// A displaced job's backoff window closes (pure wakeup; the dispatch
    /// pass re-checks eligibility by time).
    Ready,
}

impl Ev {
    fn class(&self) -> u8 {
        match self {
            Ev::Barrier => 0,
            Ev::Transition => 1,
            Ev::Finish { .. } => 2,
            Ev::Arrive { .. } => 3,
            Ev::Ready => 4,
        }
    }
}

/// Min-heap of `(time, class, push_seq, payload)` with a monotone push
/// sequence so ordering is total and insertion-stable.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u8, u64, Ev)>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, t: u64, ev: Ev) {
        self.heap.push(Reverse((t, ev.class(), self.seq, ev)));
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

/// A step's pre-step peak prediction (when the policy offers one) and its
/// outcome.
type StepResult = (Option<usize>, Result<IterationReport, ExecError>);

/// One job on a device: parked at an iteration boundary, or with one
/// iteration in flight.
struct Running<'a> {
    job: usize,
    session: Session<'a>,
    remaining: usize,
    reports: Vec<IterationReport>,
    /// Busy time executed in the current placement span.
    seg_ns: u64,
    /// Iterations executed in the current placement span.
    seg_iters: usize,
    /// The step in flight; `None` while parked at a boundary.
    inflight: Option<StepResult>,
}

impl<'a> Running<'a> {
    fn new(job: usize, session: Session<'a>, remaining: usize) -> Self {
        Running {
            job,
            session,
            remaining,
            reports: Vec::with_capacity(remaining),
            seg_ns: 0,
            seg_iters: 0,
            inflight: None,
        }
    }
}

/// A checkpointed job waiting out its backoff window for re-admission.
struct Displaced<'a> {
    job: usize,
    checkpoint: SessionCheckpoint<'a>,
    remaining: usize,
    /// First instant (tick or ns) the job may be re-admitted.
    ready: u64,
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

/// Per-job fleet bookkeeping beyond the [`JobDetail`] evidence.
#[derive(Default)]
struct JobState {
    queue_wait_ns: Option<u64>,
    demoted: bool,
    placements: Vec<JobPlacement>,
    migrations: usize,
    retries: usize,
    overhead_ns: u64,
    finish_ns: Option<u64>,
}

/// Run a validated spec to completion.
pub(crate) fn run(spec: &ClusterSpec) -> ClusterOutcome {
    let mut fleet = Fleet::new(spec);
    while let Some((t, batch)) = fleet.queue.pop_batch() {
        fleet.t = t;
        for ev in batch {
            match ev {
                Ev::Barrier => {
                    for d in 0..spec.devices.len() {
                        fleet.complete(d);
                    }
                }
                Ev::Transition => fleet.observe_faults(),
                Ev::Finish { device } => fleet.complete(device),
                Ev::Arrive { job } => fleet.arrive(job),
                Ev::Ready => {}
            }
        }
        fleet.triage();
        fleet.dispatch();
        // On the round clock only a round with a busy device is a round; a
        // batch that just waits out a fault or a backoff defers nobody.
        if !fleet.bsp || fleet.devices.iter().any(|s| s.running.is_some()) {
            fleet.ctl.stats.deferred_rounds += fleet.pending.len() + fleet.displaced.len();
        }
        fleet.step_parked();
        fleet.epoch += 1;
        if fleet.settled() {
            return fleet.finish();
        }
    }
    fleet.shed_stragglers();
    fleet.finish()
}

/// The driver's state for one run.
struct Fleet<'s> {
    spec: &'s ClusterSpec,
    /// Whether the run is on the round clock.
    bsp: bool,
    /// The fault plan on this run's clock.
    faults: Cow<'s, FleetFaultPlan>,
    queue: EventQueue,
    /// The current batch's instant (tick or ns).
    t: u64,
    /// Batches handled so far: the event clock's round stamp.
    epoch: usize,
    /// The furthest any device has run: the round clock's time stamp.
    max_busy_ns: u64,
    ctl: AdmissionController,
    submitted: Vec<Option<Submitted>>,
    arrival_ns: Vec<u64>,
    unarrived: usize,
    outcomes: Vec<Option<JobOutcome>>,
    jobs: Vec<JobState>,
    details: Vec<JobDetail>,
    pending: Vec<usize>,
    displaced: Vec<Displaced<'s>>,
    devices: Vec<DeviceState<'s>>,
    /// Each device's condition as the last transition observed it.
    conds: Vec<DeviceCondition>,
    /// Devices observed leaving for good: lost, or down with no return
    /// ahead (an outage that turns into a loss).
    lost: Vec<bool>,
    /// Devices whose job waits at its iteration boundary, in the order
    /// they parked: the step pass schedules their completions in it.
    parked: Vec<usize>,
    events: Vec<FleetEvent>,
    stats: FleetStats,
    dispatch_seq: usize,
}

impl<'s> Fleet<'s> {
    fn new(spec: &'s ClusterSpec) -> Self {
        let n_jobs = spec.jobs.len();
        let bsp = spec.mode == Mode::Bsp;
        let mut ctl = AdmissionController::default();
        let mut outcomes = vec![None; n_jobs];
        let mut details: Vec<JobDetail> = spec
            .jobs
            .iter()
            .map(|j| JobDetail {
                name: j.name.clone(),
                ..JobDetail::default()
            })
            .collect();
        // Submission runs once, up front: profiles, floors, certificates.
        // Jobs it settles replay their verdict when they arrive.
        let submitted = protocol::submit_jobs(spec, &mut ctl, &mut outcomes, &mut details);
        let (faults, arrival_ns) = if bsp {
            (Cow::Owned(spec.faults.on_round_clock()), vec![0; n_jobs])
        } else {
            (
                Cow::Borrowed(&spec.faults),
                spec.arrivals.arrival_ns(n_jobs),
            )
        };
        let mut queue = EventQueue::default();
        for (job, &t) in arrival_ns.iter().enumerate() {
            queue.push(t, Ev::Arrive { job });
        }
        // Seed the fault-transition chain; each transition schedules the
        // next, so the walk covers exactly the plan's boundaries.
        queue.push(0, Ev::Transition);
        let n_devs = spec.devices.len();
        Fleet {
            spec,
            bsp,
            faults,
            queue,
            t: 0,
            epoch: 0,
            max_busy_ns: 0,
            ctl,
            submitted,
            arrival_ns,
            unarrived: n_jobs,
            outcomes,
            jobs: (0..n_jobs).map(|_| JobState::default()).collect(),
            details,
            pending: Vec::new(),
            displaced: Vec::new(),
            devices: (0..n_devs).map(|_| DeviceState::default()).collect(),
            conds: vec![DeviceCondition::Up; n_devs],
            lost: vec![false; n_devs],
            parked: Vec::new(),
            events: Vec::new(),
            stats: FleetStats {
                max_retries: spec.max_retries,
                ..FleetStats::default()
            },
            dispatch_seq: 0,
        }
    }

    /// The fleet's virtual now: the furthest any device has run on the
    /// round clock, the queue time on the event clock.
    fn now(&self) -> u64 {
        if self.bsp {
            self.max_busy_ns
        } else {
            self.t
        }
    }

    /// The round stamp: the tick on the round clock, the epoch otherwise.
    fn round(&self) -> usize {
        if self.bsp {
            self.t as usize
        } else {
            self.epoch
        }
    }

    fn emit(&mut self, kind: FleetEventKind, cost_ns: u64) {
        self.events.push(FleetEvent {
            round: self.round(),
            at_ns: self.now(),
            kind,
            cost_ns,
        });
    }

    /// Settle job `j` as failed. Failures of the displacement protocol
    /// are always on the chain; event mode, which settles every job with a
    /// terminal event, records the others too.
    fn fail(&mut self, j: usize, reason: String, protocol: bool) {
        if protocol || !self.bsp {
            self.emit(
                FleetEventKind::Fail {
                    job: j,
                    reason: reason.clone(),
                },
                0,
            );
        }
        self.outcomes[j] = Some(JobOutcome::Failed(reason));
    }

    /// Shed job `j` explicitly, keeping a displaced job's checkpointed
    /// evidence of what did run.
    fn shed(&mut self, j: usize, reason: String, displaced: Option<Displaced>) {
        self.emit(
            FleetEventKind::Shed {
                job: j,
                reason: reason.clone(),
            },
            0,
        );
        self.stats.shed_jobs += 1;
        self.outcomes[j] = Some(JobOutcome::Shed(reason));
        if let Some(x) = displaced {
            let (summary, records, policy) = x.checkpoint.into_evidence();
            let detail = &mut self.details[j];
            detail.summary = summary;
            detail.records.extend(records);
            detail.plan_tiers = policy.plan_tier_stats();
        }
    }

    /// Whether every job has arrived and left the queue, the backoff list
    /// and the devices — i.e. every job is settled.
    fn settled(&self) -> bool {
        self.unarrived == 0
            && self.pending.is_empty()
            && self.displaced.is_empty()
            && self.devices.iter().all(|s| s.running.is_none())
    }

    fn arrive(&mut self, j: usize) {
        self.unarrived -= 1;
        if self.bsp {
            if self.outcomes[j].is_none() {
                self.pending.push(j);
            }
            return;
        }
        self.emit(FleetEventKind::Arrive { job: j }, 0);
        match &self.outcomes[j] {
            Some(JobOutcome::Rejected) => {
                // Settled at submission; replay the verdict on the chain at
                // the arrival instant.
                let reason = self.details[j]
                    .admission_reason
                    .clone()
                    .unwrap_or_else(|| "rejected at submission".to_string());
                self.emit(FleetEventKind::Reject { job: j, reason }, 0);
            }
            Some(JobOutcome::Failed(reason)) => {
                let reason = reason.clone();
                self.emit(FleetEventKind::Fail { job: j, reason }, 0);
            }
            Some(_) => {}
            None => match self.spec.queue_limit {
                // The overload valve: bounded queue full, shed on arrival
                // rather than queue into an SLO-busting backlog.
                Some(limit) if self.pending.len() >= limit => {
                    let reason = format!(
                        "queue full on arrival ({} jobs waiting, limit {limit})",
                        self.pending.len()
                    );
                    self.shed(j, reason, None);
                }
                _ => self.pending.push(j),
            },
        }
    }

    /// Record every device whose condition changed at this boundary, and
    /// displace a job parked at its iteration boundary on a device that
    /// went away. A job mid-iteration keeps running to its boundary and is
    /// displaced at its completion.
    fn observe_faults(&mut self) {
        let t = self.t;
        for d in 0..self.devices.len() {
            let cond = self.faults.device_condition_at_ns(d, t);
            if cond == self.conds[d] {
                continue;
            }
            self.conds[d] = cond;
            if cond == DeviceCondition::Up {
                self.emit(FleetEventKind::DeviceUp { device: d }, 0);
                continue;
            }
            let until_round = if cond == DeviceCondition::Lost {
                None
            } else {
                // Walk the plan's boundaries to the instant this device
                // returns (None if it is lost before then).
                let mut probe = t;
                let mut until = None;
                while let Some(b) = self.faults.next_transition_after_ns(probe) {
                    match self.faults.device_condition_at_ns(d, b) {
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
            if until_round.is_none() && !self.lost[d] {
                self.lost[d] = true;
                self.stats.devices_lost += 1;
            }
            self.emit(
                FleetEventKind::DeviceDown {
                    device: d,
                    until_round,
                },
                0,
            );
            if let Some(run) = self.devices[d].running.take_if(|r| r.inflight.is_none()) {
                self.displace(d, run);
            }
        }
        if let Some(next) = self.faults.next_transition_after_ns(t) {
            self.queue.push(next, Ev::Transition);
        }
    }

    /// Commit device `d`'s in-flight iteration at its boundary: settle the
    /// job when it is done or its step failed, displace it when its device
    /// was observed down, or park it for the next step pass.
    fn complete(&mut self, d: usize) {
        let Some(mut run) = self.devices[d].running.take() else {
            return;
        };
        let j = run.job;
        let Some((predicted, outcome)) = run.inflight.take() else {
            self.outcomes[j] = Some(JobOutcome::Failed(
                "internal: completion fired with no in-flight step".into(),
            ));
            return;
        };
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                self.fail(j, e.to_string(), false);
                self.retire(d, run);
                return;
            }
        };
        let dt = report.time.total_ns();
        let dev = &mut self.devices[d];
        dev.busy_ns += dt;
        dev.iters += 1;
        self.max_busy_ns = self.max_busy_ns.max(dev.busy_ns);
        run.seg_ns += dt;
        run.seg_iters += 1;
        if let Some(p) = predicted {
            self.ctl.stats.score(p, report.peak_bytes);
        }
        run.reports.push(report);
        run.remaining = run.remaining.saturating_sub(1);
        if run.remaining == 0 {
            if !self.bsp {
                self.emit(FleetEventKind::Complete { job: j, device: d }, 0);
                self.jobs[j].finish_ns = Some(self.t);
            }
            self.outcomes[j] = Some(if self.jobs[j].migrations > 0 {
                JobOutcome::Migrated
            } else {
                JobOutcome::Completed
            });
            self.retire(d, run);
        } else if self.conds[d] == DeviceCondition::Up {
            self.devices[d].running = Some(run);
            self.parked.push(d);
        } else {
            self.displace(d, run);
        }
    }

    /// Close a job's placement span on device `d` and keep its iteration
    /// reports.
    fn close_span(&mut self, d: usize, run: &mut Running) {
        if run.seg_iters > 0 || run.seg_ns > 0 {
            self.jobs[run.job].placements.push(JobPlacement {
                device: d,
                busy_ns: run.seg_ns,
                iters: run.seg_iters,
            });
        }
        self.details[run.job]
            .reports
            .extend(std::mem::take(&mut run.reports));
    }

    /// Keep a departing session's evidence on its job's detail row.
    fn keep_evidence(&mut self, j: usize, session: &mut Session) {
        let detail = &mut self.details[j];
        detail.records.extend(session.take_records());
        detail.summary = session.summary().clone();
        detail.plan_tiers = session.policy().plan_tier_stats();
    }

    /// A settled job leaves device `d` for good.
    fn retire(&mut self, d: usize, mut run: Running) {
        self.devices[d].jobs_run += 1;
        self.close_span(d, &mut run);
        self.keep_evidence(run.job, &mut run.session);
    }

    /// Move a job off device `d` at its iteration boundary: checkpoint and
    /// requeue it under exponential backoff, or fail it when its retry
    /// budget is spent. (Whether the degraded pool can still place it is
    /// triage's call, so shedding stays in one priority-ordered place.)
    fn displace(&mut self, d: usize, mut run: Running<'s>) {
        let j = run.job;
        self.close_span(d, &mut run);
        let retries = self.jobs[j].retries + 1;
        if retries > self.spec.max_retries {
            let reason = format!(
                "displaced {retries} times; retry budget {} exhausted",
                self.spec.max_retries
            );
            self.fail(j, reason, true);
            self.keep_evidence(j, &mut run.session);
            return;
        }
        self.jobs[j].retries = retries;
        let checkpoint = run.session.checkpoint();
        self.jobs[j].overhead_ns += CHECKPOINT_COST_NS;
        self.stats.checkpoints += 1;
        self.emit(
            FleetEventKind::Checkpoint {
                job: j,
                device: d,
                cursor: checkpoint.cursor(),
            },
            CHECKPOINT_COST_NS,
        );
        self.emit(FleetEventKind::Requeue { job: j, retries }, 0);
        let base = if self.bsp { 1 } else { BACKOFF_BASE_NS };
        let ready = self.t.saturating_add(base << (retries - 1).min(32));
        self.emit(
            FleetEventKind::Backoff {
                job: j,
                until_round: ready as usize,
            },
            0,
        );
        self.queue.push(ready, Ev::Ready);
        self.displaced.push(Displaced {
            job: j,
            checkpoint,
            remaining: run.remaining,
            ready,
            from_device: d,
        });
    }

    /// Shed queued work the degraded pool can never place, lowest priority
    /// first (graceful degradation instead of starvation). Down devices
    /// still count — they come back; only lost ones don't.
    fn triage(&mut self) {
        let alive_usable = (0..self.devices.len())
            .filter(|&d| self.conds[d] != DeviceCondition::Lost)
            .map(|d| usable_bytes(&self.spec.devices[d]))
            .max()
            .unwrap_or(0);
        let submitted = &self.submitted;
        let unplaceable = |j: usize| submitted[j].as_ref().is_none_or(|s| s.floor > alive_usable);
        if !self.pending.iter().any(|&j| unplaceable(j))
            && !self.displaced.iter().any(|x| unplaceable(x.job))
        {
            return;
        }
        let (gone, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.displaced)
            .into_iter()
            .partition(|x| unplaceable(x.job));
        self.displaced = kept;
        let mut to_shed: Vec<(usize, Option<Displaced>)> =
            gone.into_iter().map(|x| (x.job, Some(x))).collect();
        to_shed.extend(
            self.pending
                .iter()
                .copied()
                .filter(|&j| unplaceable(j))
                .map(|j| (j, None)),
        );
        self.pending.retain(|&j| !unplaceable(j));
        let reason = if alive_usable == 0 {
            "no surviving device in the pool".to_string()
        } else {
            format!(
                "all-checkpoint floor exceeds every surviving device's usable \
                 capacity ({alive_usable} B)"
            )
        };
        self.shed_all(to_shed, &reason);
    }

    /// Shed `jobs` explicitly with `reason`, lowest priority first.
    fn shed_all(&mut self, mut jobs: Vec<(usize, Option<Displaced>)>, reason: &str) {
        let spec = self.spec;
        jobs.sort_by_key(|(j, _)| (spec.jobs[*j].priority, *j));
        for (j, x) in jobs {
            self.shed(j, reason.to_string(), x);
        }
    }

    /// Idle, up devices pick work in index order. Displaced jobs (highest
    /// priority, then requeue order) outrank fresh submissions — they hold
    /// warmed checkpoints, and deferring new admissions is the fleet's
    /// backpressure under degradation.
    fn dispatch(&mut self) {
        for d in 0..self.devices.len() {
            if self.devices[d].running.is_some() || self.conds[d] != DeviceCondition::Up {
                continue;
            }
            let cap_factor = self.faults.capacity_factor_at_ns(d, self.t);
            let dev = protocol::effective_device(self.spec, d, cap_factor);
            let usable = usable_bytes(&dev);
            let submitted = &self.submitted;
            let pick = self
                .displaced
                .iter()
                .enumerate()
                .filter(|(_, x)| {
                    x.ready <= self.t
                        && submitted[x.job].as_ref().is_some_and(|s| s.floor <= usable)
                })
                .min_by_key(|(pos, x)| (Reverse(self.spec.jobs[x.job].priority), *pos))
                .map(|(pos, _)| pos);
            if let Some(pos) = pick {
                let x = self.displaced.remove(pos);
                self.migrate(d, x, &dev, usable);
            } else if let Some(pos) = protocol::pick_pending(
                self.spec.schedule,
                &self.pending,
                &self.submitted,
                &self.spec.jobs,
                &self.spec.devices[d],
                usable,
            ) {
                let j = self.pending.remove(pos);
                self.start(d, j, &dev, usable);
            }
        }
    }

    /// Gate job `j` on `dev`: record the first admission reason, and
    /// return the recovery config to run it with (`None` inside when the
    /// job runs without one), or `None` when admission rejects it. The
    /// pickers only offer submitted jobs whose floor fits, so neither a
    /// missing record nor a rejection happens here; the callers keep the
    /// arm total.
    fn admit(
        &mut self,
        j: usize,
        dev: &DeviceProfile,
        usable: usize,
    ) -> Option<Option<RecoveryConfig>> {
        let sub = self.submitted[j].as_ref()?;
        let decision = self.ctl.decide_certified(
            sub.predicted_peak,
            &sub.worst,
            dev,
            sub.certificate.as_ref(),
        );
        if self.details[j].admission_reason.is_none() {
            self.details[j].admission_reason =
                decision
                    .reason(sub.predicted_peak, usable)
                    .map(|r| match &sub.graph_evidence {
                        Some(g) => format!("{r}; {g}"),
                        None => r,
                    });
        }
        let job = &self.spec.jobs[j];
        match decision {
            AdmissionDecision::Admit => Some(job.recovery.clone()),
            AdmissionDecision::Demote { .. } => {
                self.jobs[j].demoted = true;
                Some(Some(job.recovery.clone().unwrap_or_default()))
            }
            AdmissionDecision::Reject { .. } => None,
        }
    }

    /// Finish a session builder for device `d`: the pool's device, the
    /// spec's recording and chaos, and the recovery ladder admission armed.
    fn open(
        &self,
        d: usize,
        builder: SessionBuilder<'s>,
        recovery: Option<RecoveryConfig>,
    ) -> Result<Session<'s>, ExecError> {
        let mut builder = builder
            .device(self.spec.devices[d].clone())
            .record(self.spec.record);
        if let Some(cfg) = recovery {
            builder = builder.recovery(cfg);
        }
        if let Some(inj) = self.spec.faults.injector_for(d) {
            builder = builder.chaos(inj);
        }
        builder.build()
    }

    /// Resume displaced job `x` on device `d`.
    fn migrate(&mut self, d: usize, x: Displaced<'s>, dev: &DeviceProfile, usable: usize) {
        let j = x.job;
        let Some(recovery) = self.admit(j, dev, usable) else {
            self.fail(j, "re-admission rejected below the floor".into(), true);
            return;
        };
        let cursor = x.checkpoint.cursor();
        let job = &self.spec.jobs[j];
        let builder = Session::builder(&job.model, &job.dataset).resume(x.checkpoint);
        match self.open(d, builder, recovery) {
            Ok(session) => {
                self.details[j].device = Some(d);
                self.jobs[j].overhead_ns += RESTORE_COST_NS;
                self.jobs[j].migrations += 1;
                self.stats.migrations += 1;
                self.emit(
                    FleetEventKind::Migrate {
                        job: j,
                        from: x.from_device,
                        to: d,
                        cursor,
                        seq: self.dispatch_seq,
                    },
                    RESTORE_COST_NS,
                );
                self.dispatch_seq += 1;
                self.devices[d].running = Some(Running::new(j, session, x.remaining));
                self.parked.push(d);
            }
            Err(e) => self.fail(j, e.to_string(), true),
        }
    }

    /// Start fresh job `j` on device `d`.
    fn start(&mut self, d: usize, j: usize, dev: &DeviceProfile, usable: usize) {
        let Some(recovery) = self.admit(j, dev, usable) else {
            self.outcomes[j] = Some(JobOutcome::Rejected);
            return;
        };
        let Some(policy) = self.submitted[j].as_mut().and_then(|s| s.policy.take()) else {
            self.outcomes[j] = Some(JobOutcome::Failed(
                "internal: job policy consumed before dispatch".into(),
            ));
            return;
        };
        let job = &self.spec.jobs[j];
        let builder = Session::builder(&job.model, &job.dataset)
            .policy_boxed(policy)
            .seed(job.seed);
        match self.open(d, builder, recovery) {
            Ok(session) => {
                self.jobs[j].queue_wait_ns = Some(self.now().saturating_sub(self.arrival_ns[j]));
                let round = self.round();
                let detail = &mut self.details[j];
                detail.device = Some(d);
                detail.dispatch_round = Some(round);
                detail.dispatch_seq = Some(self.dispatch_seq);
                if !self.bsp {
                    self.emit(
                        FleetEventKind::Dispatch {
                            job: j,
                            device: d,
                            seq: self.dispatch_seq,
                        },
                        0,
                    );
                }
                self.dispatch_seq += 1;
                self.devices[d].running = Some(Running::new(j, session, job.iters));
                self.parked.push(d);
            }
            Err(e) => self.fail(j, e.to_string(), false),
        }
    }

    /// Step every parked job once and schedule its completion: its own
    /// `Finish` on the event clock, one `Barrier` next tick on the round
    /// clock. Serial when `threads == 1`, on scoped threads otherwise;
    /// results land in per-device slots and are scheduled in parking
    /// order, so the thread count never changes the run.
    fn step_parked(&mut self) {
        let parked = std::mem::take(&mut self.parked);
        let mut steps: Vec<Option<StepResult>> = (0..self.devices.len()).map(|_| None).collect();
        let step = |run: &mut Running| {
            let predicted = run.session.predicted_peak_bytes().ok();
            (predicted, run.session.step())
        };
        let runs = self.devices.iter_mut().enumerate().filter_map(|(d, s)| {
            s.running
                .as_mut()
                .filter(|r| r.inflight.is_none())
                .map(|r| (d, r))
        });
        if self.spec.threads == 1 || parked.len() < 2 {
            for (d, run) in runs {
                steps[d] = Some(step(run));
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = runs
                    .map(|(d, run)| scope.spawn(move || (d, step(run))))
                    .collect();
                for h in handles {
                    match h.join() {
                        Ok((d, result)) => steps[d] = Some(result),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
        }
        let mut barrier = false;
        for d in parked {
            let (Some(result), Some(run)) = (steps[d].take(), self.devices[d].running.as_mut())
            else {
                continue;
            };
            // A failed step completes at once and settles at its boundary.
            let dt = result.1.as_ref().map_or(0, |r| r.time.total_ns());
            run.inflight = Some(result);
            if self.bsp {
                barrier = true;
            } else {
                self.queue
                    .push(self.t.saturating_add(dt), Ev::Finish { device: d });
            }
        }
        if barrier {
            self.queue.push(self.t.saturating_add(1), Ev::Barrier);
        }
    }

    /// The queue drained with work still waiting: no running iteration, no
    /// upcoming transition, no backoff wakeup — no event could ever place
    /// these jobs. Shed them explicitly, lowest priority first.
    fn shed_stragglers(&mut self) {
        let stragglers: Vec<(usize, Option<Displaced>)> = self
            .pending
            .drain(..)
            .map(|j| (j, None))
            .chain(self.displaced.drain(..).map(|x| (x.job, Some(x))))
            .collect();
        if !stragglers.is_empty() {
            self.shed_all(
                stragglers,
                "fleet quiesced with no placement path for this job",
            );
            self.epoch += 1;
        }
    }

    /// Fold the run into its report. Makespan is the fleet's now when the
    /// last job settled.
    fn finish(self) -> ClusterOutcome {
        let spec = self.spec;
        let makespan_ns = self.now();
        let rounds = self.round();
        let mut fleet = self.stats;
        let busy_ns: u64 = self.devices.iter().map(|s| s.busy_ns).sum();
        let utilization_pct = if makespan_ns > 0 {
            busy_ns as f64 / (makespan_ns as f64 * spec.devices.len() as f64) * 100.0
        } else {
            0.0
        };
        let waits: Vec<u64> = self.jobs.iter().filter_map(|s| s.queue_wait_ns).collect();
        let mean_queue_wait_ns = if waits.is_empty() {
            0
        } else {
            waits.iter().sum::<u64>() / waits.len() as u64
        };
        let max_queue_wait_ns = waits.iter().copied().max().unwrap_or(0);
        fleet.overhead_ns = self.jobs.iter().map(|s| s.overhead_ns).sum();
        let details = self.details;
        let jobs: Vec<JobReport> = spec
            .jobs
            .iter()
            .zip(self.jobs)
            .zip(self.outcomes)
            .enumerate()
            .map(|(j, ((job, state), outcome))| {
                let detail = &details[j];
                let s = &detail.summary;
                JobReport {
                    name: job.name.clone(),
                    policy: job.policy.name().to_string(),
                    budget_bytes: {
                        let b = job.policy.budget_bytes();
                        (b != usize::MAX).then_some(b)
                    },
                    device: detail.device,
                    outcome: outcome.unwrap_or(JobOutcome::Rejected),
                    demoted: state.demoted,
                    iters: s.iters,
                    arrival_ns: self.arrival_ns[j],
                    queue_wait_ns: state.queue_wait_ns.unwrap_or(0),
                    finish_ns: state.finish_ns,
                    total_ns: s.total_ns,
                    max_peak_bytes: s.max_peak_bytes,
                    oom_iters: s.oom_iters,
                    recovered_iters: s.recovered_iters,
                    recovery_events: s.recovery_events,
                    shuttle_iters: s.shuttle_iters,
                    plan_tiers: detail.plan_tiers,
                    migrations: state.migrations,
                    retries: state.retries,
                    fleet_overhead_ns: state.overhead_ns,
                    graph_raw_peak_bytes: detail.graph_raw_peak_bytes,
                    graph_opt_peak_bytes: detail.graph_opt_peak_bytes,
                    admission_reason: detail.admission_reason.clone(),
                    placements: state.placements,
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
        let report = ClusterReport {
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
            admission: self.ctl.stats,
            slo,
            fleet,
            fault_plan: spec.faults.clone(),
            events: self.events,
            devices: self
                .devices
                .iter()
                .enumerate()
                .map(|(i, s)| DeviceReport {
                    index: i,
                    capacity_bytes: spec.devices[i].total_mem_bytes,
                    busy_ns: s.busy_ns,
                    jobs_run: s.jobs_run,
                    iters: s.iters,
                    lost: self.lost[i],
                })
                .collect(),
            jobs,
        };
        ClusterOutcome { report, details }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPolicy;
    use crate::workload::{DevicePool, Workload};
    use crate::{Cluster, ClusterBuilder, SchedulePolicy};
    use mimose_chaos::{DeviceFault, FaultSpec, TimedDeviceFault};
    use mimose_data::{presets, ArrivalProcess};
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_planner::PolicyKind;

    fn small(devices: usize) -> ClusterBuilder {
        Cluster::builder()
            .devices(DevicePool::v100(devices))
            .workload(Workload::mixed(2))
    }

    fn run(builder: ClusterBuilder) -> ClusterOutcome {
        builder.run().expect("spec is well-formed")
    }

    fn serve(arrivals: ArrivalProcess) -> ClusterBuilder {
        small(2).mode(Mode::EventDriven).arrivals(arrivals)
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
        let outcome = spec.run().expect("validated spec runs");
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

    #[test]
    fn a_fault_boundary_after_the_last_job_does_not_stretch_the_makespan() {
        // Device 0 goes down long after the work is done: the run ends when
        // the last job settles, not at the outage's far boundary.
        let faults = FleetFaultPlan::none(0).with_timed_fault(
            0,
            TimedDeviceFault::Down {
                at_ns: 300_000_000,
                duration_ns: 100_000_000_000,
            },
        );
        let r = run(small(2).mode(Mode::EventDriven).faults(faults)).report;
        let last_finish = r.jobs.iter().filter_map(|j| j.finish_ns).max();
        assert!(r.jobs.iter().all(|j| j.outcome.finished()));
        assert_eq!(Some(r.makespan_ns), last_finish);
    }
}
