//! Fleet-level lint: independent re-derivation of a
//! [`ClusterReport`](mimose_cluster::ClusterReport)'s rollup numbers from
//! the per-job evidence the scheduler kept, plus structural invariants of
//! the dispatch sequence.
//!
//! The scheduler folds per-iteration reports into per-job summaries and
//! those into the fleet rollup; this pass refuses to trust any of it. It
//! re-folds the iteration reports, re-sums the device counters, replays
//! recorded event streams through [`fold_events`], and cross-checks every
//! number the report claims.
//!
//! The fleet-failure checks prove the failure protocol's central promise:
//! a lost device's jobs are never silently dropped. Every checkpointed
//! job must carry a balanced event chain (checkpoint → requeue → backoff,
//! then migrate or an explicit shed/fail), every rollup counter must
//! re-derive from that chain, every migration must land on a device the
//! embedded fault plan says was reachable, and retries must stay within
//! the configured budget.
//!
//! Serving-mode (event-driven) reports get two further treatments: every
//! SLO tail percentile (p50/p95/p99 queue wait and iteration latency),
//! the goodput and the rejection/shed rates are re-folded from the job
//! rows through an independent nearest-rank implementation; and the
//! timestamped event chain must be self-consistent — arrival echoes,
//! queue waits as `dispatch.at_ns - arrive.at_ns`, completion instants,
//! a terminal event for every job, and a makespan equal to the last
//! terminal event's timestamp (the run ends when its last job settles).

use crate::diag::Diagnostic;
use mimose_cluster::{ClusterOutcome, FleetEvent, FleetEventKind, JobOutcome};
use mimose_runtime::{fold_events, RunSummary};

/// One event-mode job's chain, indexed by [`lint_cluster`]'s chain check.
#[derive(Clone, Copy, Default)]
struct JobChain<'e> {
    arrive: Option<&'e FleetEvent>,
    dispatch: Option<&'e FleetEvent>,
    complete: Option<&'e FleetEvent>,
    /// Whether a complete, reject, shed or fail event settles the job.
    terminal: bool,
}

/// Independent nearest-rank percentile: the smallest sample element with
/// at least `p`% of the sample at or below it (0 for an empty sample).
/// Deliberately re-implemented here rather than shared with the cluster
/// crate, so a bug in the report's fold cannot hide from the lint.
fn nearest_rank(sample: &[u64], p: f64) -> u64 {
    let mut xs = sample.to_vec();
    xs.sort_unstable();
    if xs.is_empty() {
        return 0;
    }
    let need = ((p / 100.0 * xs.len() as f64).ceil()).max(1.0) as usize;
    xs[need - 1]
}

/// Audit a finished cluster run. Returns one diagnostic per violated
/// invariant; an empty vector means the rollup is exactly reproducible
/// from the evidence.
#[must_use]
pub fn lint_cluster(outcome: &ClusterOutcome) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let report = &outcome.report;
    let details = &outcome.details;

    if report.jobs.len() != details.len() {
        diags.push(Diagnostic::error(
            "cluster-job-rows",
            "report",
            format!(
                "report has {} job rows but {} job details",
                report.jobs.len(),
                details.len()
            ),
        ));
        return diags; // every per-job check below would misalign
    }

    // --- Fleet event chain: tally per-job protocol steps once, for the
    // per-job and rollup cross-checks below. ---
    let n_jobs = report.jobs.len();
    let mut checkpoints = vec![0usize; n_jobs];
    let mut requeues = vec![0usize; n_jobs];
    let mut backoffs = vec![0usize; n_jobs];
    let mut migrates = vec![0usize; n_jobs];
    let mut sheds = vec![0usize; n_jobs];
    let mut event_cost = vec![0u64; n_jobs];
    let mut lost_by_event = vec![false; report.devices.len()];
    let event_mode = report.mode == "event-driven";
    // BSP reads its round-indexed faults on the round clock: round r is
    // instant r.
    let round_faults = (!event_mode).then(|| report.fault_plan.on_round_clock());
    let faults = round_faults.as_ref().unwrap_or(&report.fault_plan);
    let mut last_round = 0usize;
    let mut last_at_ns = 0u64;
    // When the last job settled: the latest complete, reject, shed or
    // fail event.
    let mut last_settled_ns = 0u64;
    for e in &report.events {
        if e.round < last_round {
            diags.push(Diagnostic::error(
                "cluster-event-order",
                "fleet",
                format!(
                    "{} event in round {} after an event in round {last_round}",
                    e.kind.tag(),
                    e.round
                ),
            ));
        }
        last_round = e.round;
        if e.at_ns < last_at_ns {
            diags.push(Diagnostic::error(
                "cluster-event-time",
                "fleet",
                format!(
                    "{} event at {} ns after an event at {last_at_ns} ns",
                    e.kind.tag(),
                    e.at_ns
                ),
            ));
        }
        last_at_ns = e.at_ns;
        let Some(j) = e.kind.job() else {
            if let FleetEventKind::DeviceDown {
                device,
                until_round: None,
            } = &e.kind
            {
                if *device < lost_by_event.len() {
                    lost_by_event[*device] = true;
                }
            }
            continue;
        };
        if j >= n_jobs {
            diags.push(Diagnostic::error(
                "cluster-event-job",
                "fleet",
                format!("{} event names job #{j}, out of range", e.kind.tag()),
            ));
            continue;
        }
        event_cost[j] += e.cost_ns;
        match &e.kind {
            FleetEventKind::Checkpoint { .. } => checkpoints[j] += 1,
            FleetEventKind::Requeue { .. } => requeues[j] += 1,
            FleetEventKind::Backoff { until_round, .. } => {
                backoffs[j] += 1;
                // In event mode the window is a virtual-ns instant and the
                // epoch is not a clock; compare against the right axis.
                let window_open = if event_mode {
                    *until_round as u64 > e.at_ns
                } else {
                    *until_round > e.round
                };
                if !window_open {
                    diags.push(Diagnostic::error(
                        "cluster-backoff-window",
                        report.jobs[j].name.clone(),
                        format!("backoff until {until_round} is not after the event's instant"),
                    ));
                }
            }
            FleetEventKind::Migrate { to, .. } => {
                migrates[j] += 1;
                let at = if event_mode { e.at_ns } else { e.round as u64 };
                if faults.is_lost_at_ns(*to, at) {
                    diags.push(Diagnostic::error(
                        "cluster-migrate-target",
                        report.jobs[j].name.clone(),
                        format!(
                            "migrated onto device {to} at {} ns (round {}), but the \
                             fault plan says that device was already lost",
                            e.at_ns, e.round
                        ),
                    ));
                }
            }
            FleetEventKind::Shed { .. } => sheds[j] += 1,
            _ => {}
        }
        if matches!(
            e.kind,
            FleetEventKind::Complete { .. }
                | FleetEventKind::Reject { .. }
                | FleetEventKind::Shed { .. }
                | FleetEventKind::Fail { .. }
        ) {
            last_settled_ns = last_settled_ns.max(e.at_ns);
        }
    }

    // --- Per-job: re-fold the iteration reports and compare. ---
    let mut first_dispatches = 0usize;
    for (j, (row, detail)) in report.jobs.iter().zip(details).enumerate() {
        let subject = row.name.clone();
        if detail.dispatch_seq.is_some() {
            first_dispatches += 1;
        }
        // A job with no device must have been settled, never starved.
        if row.device.is_none() && row.outcome.finished() {
            diags.push(Diagnostic::error(
                "cluster-starvation",
                subject.clone(),
                "job marked finished but never dispatched to a device",
            ));
        }
        // Failure-protocol chain balance and the no-silent-drop rule.
        if checkpoints[j] != requeues[j] || requeues[j] != backoffs[j] {
            diags.push(Diagnostic::error(
                "cluster-fleet-chain",
                subject.clone(),
                format!(
                    "unbalanced protocol chain: {} checkpoints, {} requeues, {} backoffs",
                    checkpoints[j], requeues[j], backoffs[j]
                ),
            ));
        }
        if migrates[j] > requeues[j] {
            diags.push(Diagnostic::error(
                "cluster-fleet-chain",
                subject.clone(),
                format!(
                    "{} migrations exceed {} requeues (migrated without a checkpoint)",
                    migrates[j], requeues[j]
                ),
            ));
        }
        if checkpoints[j] > 0
            && !matches!(
                row.outcome,
                JobOutcome::Migrated | JobOutcome::Shed(_) | JobOutcome::Failed(_)
            )
        {
            diags.push(Diagnostic::error(
                "cluster-displaced-outcome",
                subject.clone(),
                format!(
                    "job was checkpointed off a device but its outcome is {:?} — \
                     displaced work must end migrated, shed, or failed",
                    row.outcome.tag()
                ),
            ));
        }
        if (sheds[j] > 0) != matches!(row.outcome, JobOutcome::Shed(_)) || sheds[j] > 1 {
            diags.push(Diagnostic::error(
                "cluster-shed-outcome",
                subject.clone(),
                format!(
                    "{} shed events for outcome {:?}",
                    sheds[j],
                    row.outcome.tag()
                ),
            ));
        }
        if row.outcome == JobOutcome::Migrated && migrates[j] == 0 {
            diags.push(Diagnostic::error(
                "cluster-migrated-evidence",
                subject.clone(),
                "outcome says migrated but no migrate event exists",
            ));
        }
        if row.migrations != migrates[j] {
            diags.push(Diagnostic::error(
                "cluster-migration-count",
                subject.clone(),
                format!(
                    "row claims {} migrations, events show {}",
                    row.migrations, migrates[j]
                ),
            ));
        }
        if row.retries != requeues[j] {
            diags.push(Diagnostic::error(
                "cluster-retry-count",
                subject.clone(),
                format!(
                    "row claims {} retries, events show {}",
                    row.retries, requeues[j]
                ),
            ));
        }
        if row.retries > report.fleet.max_retries {
            diags.push(Diagnostic::error(
                "cluster-retry-budget",
                subject.clone(),
                format!(
                    "{} retries exceed the configured budget {}",
                    row.retries, report.fleet.max_retries
                ),
            ));
        }
        if row.fleet_overhead_ns != event_cost[j] {
            diags.push(Diagnostic::error(
                "cluster-fleet-overhead",
                subject.clone(),
                format!(
                    "row attributes {} ns of fleet overhead, events sum to {} ns",
                    row.fleet_overhead_ns, event_cost[j]
                ),
            ));
        }
        // Placement segments must partition the job's execution.
        let seg_iters: usize = row.placements.iter().map(|p| p.iters).sum();
        let seg_busy: u64 = row.placements.iter().map(|p| p.busy_ns).sum();
        if seg_iters != row.iters || seg_busy != row.total_ns {
            diags.push(Diagnostic::error(
                "cluster-placement-sum",
                subject.clone(),
                format!(
                    "placements sum to {seg_iters} iters / {seg_busy} ns, \
                     row says {} iters / {} ns",
                    row.iters, row.total_ns
                ),
            ));
        }
        if let (Some(last), Some(dev)) = (row.placements.last(), row.device) {
            if last.device != dev {
                diags.push(Diagnostic::error(
                    "cluster-placement-device",
                    subject.clone(),
                    format!(
                        "last placement ran on device {}, row says device {dev}",
                        last.device
                    ),
                ));
            }
        }
        if row.device.is_some() && detail.dispatch_seq.is_none() {
            diags.push(Diagnostic::error(
                "cluster-dispatch-seq",
                subject.clone(),
                "dispatched job carries no dispatch sequence number",
            ));
        }

        let mut refold = RunSummary::default();
        for r in &detail.reports {
            refold.absorb(r);
        }
        let s = &detail.summary;
        if (refold.iters, refold.total_ns, refold.max_peak_bytes)
            != (s.iters, s.total_ns, s.max_peak_bytes)
            || (
                refold.oom_iters,
                refold.recovered_iters,
                refold.recovery_events,
            ) != (s.oom_iters, s.recovered_iters, s.recovery_events)
            || refold.shuttle_iters != s.shuttle_iters
        {
            diags.push(Diagnostic::error(
                "cluster-summary-refold",
                subject.clone(),
                format!(
                    "re-folding {} iteration reports disagrees with the session summary \
                     (refold {refold:?} vs summary {s:?})",
                    detail.reports.len()
                ),
            ));
        }
        if row.iters != s.iters
            || row.total_ns != s.total_ns
            || row.max_peak_bytes != s.max_peak_bytes
            || row.oom_iters != s.oom_iters
            || row.recovered_iters != s.recovered_iters
            || row.recovery_events != s.recovery_events
            || row.shuttle_iters != s.shuttle_iters
        {
            diags.push(Diagnostic::error(
                "cluster-row-vs-summary",
                subject.clone(),
                "report row disagrees with the job's session summary",
            ));
        }
        if row.outcome == JobOutcome::Completed && row.iters == 0 {
            diags.push(Diagnostic::error(
                "cluster-empty-completion",
                subject.clone(),
                "job completed with zero iterations executed",
            ));
        }

        // Recorded event streams must reproduce the reported peaks and
        // stay within the arena each iteration actually ran under.
        if !detail.records.is_empty() {
            if detail.records.len() != detail.reports.len() {
                diags.push(Diagnostic::error(
                    "cluster-record-count",
                    subject.clone(),
                    format!(
                        "{} event records for {} iteration reports",
                        detail.records.len(),
                        detail.reports.len()
                    ),
                ));
            }
            for (rec, rep) in detail.records.iter().zip(&detail.reports) {
                let fold = fold_events(rec.capacity, &rec.events);
                if fold.peak_used != rep.peak_bytes {
                    diags.push(Diagnostic::error(
                        "cluster-fold-peak",
                        format!("{subject} iter {}", rec.iter),
                        format!(
                            "event fold peak {} != reported peak {}",
                            fold.peak_used, rep.peak_bytes
                        ),
                    ));
                }
                if rep.peak_extent > rec.capacity {
                    diags.push(Diagnostic::error(
                        "cluster-extent-capacity",
                        format!("{subject} iter {}", rec.iter),
                        format!(
                            "peak extent {} exceeds the iteration's arena capacity {}",
                            rep.peak_extent, rec.capacity
                        ),
                    ));
                }
            }
        }
    }

    // --- Devices: counters must re-derive from the jobs' placement
    // segments (a migrated job's iterations split across devices). ---
    for dev in &report.devices {
        let iters: usize = report
            .jobs
            .iter()
            .flat_map(|j| &j.placements)
            .filter(|p| p.device == dev.index)
            .map(|p| p.iters)
            .sum();
        if iters != dev.iters {
            diags.push(Diagnostic::error(
                "cluster-device-iters",
                format!("device {}", dev.index),
                format!(
                    "device counted {} iters, its placement segments sum to {iters}",
                    dev.iters
                ),
            ));
        }
        let busy: u64 = report
            .jobs
            .iter()
            .flat_map(|j| &j.placements)
            .filter(|p| p.device == dev.index)
            .map(|p| p.busy_ns)
            .sum();
        if busy != dev.busy_ns {
            diags.push(Diagnostic::error(
                "cluster-device-busy",
                format!("device {}", dev.index),
                format!(
                    "device busy {} ns, its placement segments sum to {busy} ns",
                    dev.busy_ns
                ),
            ));
        }
        if dev.lost != lost_by_event[dev.index] {
            diags.push(Diagnostic::error(
                "cluster-device-lost",
                format!("device {}", dev.index),
                format!(
                    "device lost flag {} disagrees with the event chain ({})",
                    dev.lost, lost_by_event[dev.index]
                ),
            ));
        }
    }

    // --- Fleet rollup: totals, makespan, utilization. In BSP mode the
    // makespan is the furthest any device ran; in event mode it is the
    // instant the last job settled — the latest terminal event, so a fault
    // boundary after the work cannot stretch it. ---
    if event_mode {
        if report.makespan_ns != last_settled_ns {
            diags.push(Diagnostic::error(
                "cluster-makespan",
                "report",
                format!(
                    "event-mode makespan {} != last terminal event timestamp {last_settled_ns}",
                    report.makespan_ns
                ),
            ));
        }
    } else {
        let max_busy = report.devices.iter().map(|d| d.busy_ns).max().unwrap_or(0);
        if report.makespan_ns != max_busy {
            diags.push(Diagnostic::error(
                "cluster-makespan",
                "report",
                format!(
                    "makespan {} != max device busy {max_busy}",
                    report.makespan_ns
                ),
            ));
        }
    }
    let sum_busy: u64 = report.devices.iter().map(|d| d.busy_ns).sum();
    if report.busy_ns != sum_busy {
        diags.push(Diagnostic::error(
            "cluster-busy-sum",
            "report",
            format!("busy {} != device sum {sum_busy}", report.busy_ns),
        ));
    }
    if !(0.0..=100.0 + 1e-9).contains(&report.utilization_pct) {
        diags.push(Diagnostic::error(
            "cluster-utilization-bounds",
            "report",
            format!("utilization {} % out of [0, 100]", report.utilization_pct),
        ));
    }
    if report.makespan_ns > 0 {
        let expect =
            sum_busy as f64 / (report.makespan_ns as f64 * report.devices.len() as f64) * 100.0;
        if (expect - report.utilization_pct).abs() > 1e-6 {
            diags.push(Diagnostic::error(
                "cluster-utilization-value",
                "report",
                format!(
                    "utilization {} % does not re-derive ({expect} %)",
                    report.utilization_pct
                ),
            ));
        }
    }
    for (check, reported, derived) in [
        (
            "cluster-oom-total",
            report.oom_iters,
            report.jobs.iter().map(|j| j.oom_iters).sum::<usize>(),
        ),
        (
            "cluster-recovered-total",
            report.recovered_iters,
            report.jobs.iter().map(|j| j.recovered_iters).sum(),
        ),
        (
            "cluster-recovery-total",
            report.recovery_events,
            report.jobs.iter().map(|j| j.recovery_events).sum(),
        ),
    ] {
        if reported != derived {
            diags.push(Diagnostic::error(
                check,
                "report",
                format!("rollup says {reported}, job rows sum to {derived}"),
            ));
        }
    }

    // --- Fleet rollup: every counter re-derives from the event chain. ---
    let total_migrates: usize = migrates.iter().sum();
    let total_cost: u64 = report.events.iter().map(|e| e.cost_ns).sum();
    let failed_rows = report
        .jobs
        .iter()
        .filter(|j| matches!(j.outcome, JobOutcome::Failed(_)))
        .count();
    for (check, reported, derived) in [
        (
            "cluster-fleet-checkpoints",
            report.fleet.checkpoints,
            checkpoints.iter().sum::<usize>(),
        ),
        (
            "cluster-fleet-migrations",
            report.fleet.migrations,
            total_migrates,
        ),
        (
            "cluster-fleet-shed",
            report.fleet.shed_jobs,
            sheds.iter().sum::<usize>(),
        ),
        (
            "cluster-fleet-failed",
            report.fleet.failed_jobs,
            failed_rows,
        ),
        (
            "cluster-fleet-lost",
            report.fleet.devices_lost,
            lost_by_event.iter().filter(|l| **l).count(),
        ),
    ] {
        if reported != derived {
            diags.push(Diagnostic::error(
                check,
                "fleet",
                format!("rollup says {reported}, the event chain derives {derived}"),
            ));
        }
    }
    if report.fleet.overhead_ns != total_cost {
        diags.push(Diagnostic::error(
            "cluster-fleet-overhead",
            "fleet",
            format!(
                "rollup attributes {} ns of fleet overhead, events sum to {total_cost} ns",
                report.fleet.overhead_ns
            ),
        ));
    }

    // Admission bookkeeping: every dispatch — first placement or
    // migration — passed through the controller; every undispatched job
    // was rejected or failed.
    let adm = &report.admission;
    if adm.admitted + adm.demoted != first_dispatches + total_migrates {
        diags.push(Diagnostic::error(
            "cluster-admission-count",
            "report",
            format!(
                "{} admitted + {} demoted != {first_dispatches} first dispatches + \
                 {total_migrates} migrations",
                adm.admitted, adm.demoted
            ),
        ));
    }
    if adm.verified_admits > adm.admitted {
        diags.push(Diagnostic::error(
            "cluster-verified-admits",
            "report",
            format!(
                "{} statically verified admits exceed {} total admits",
                adm.verified_admits, adm.admitted
            ),
        ));
    }
    let rejected_rows = report
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::Rejected)
        .count();
    if adm.rejected != rejected_rows {
        diags.push(Diagnostic::error(
            "cluster-rejection-count",
            "report",
            format!(
                "admission counted {} rejections, {rejected_rows} job rows are rejected",
                adm.rejected
            ),
        ));
    }
    if adm.within_10pct > adm.predictions {
        diags.push(Diagnostic::error(
            "cluster-prediction-count",
            "report",
            format!(
                "{} accurate predictions out of {} scored",
                adm.within_10pct, adm.predictions
            ),
        ));
    }

    // --- SLO rollup: re-fold every tail percentile, the goodput and the
    // rates from the job rows through an independent nearest-rank
    // implementation. A quoted p99 must be exactly reproducible. ---
    let slo = &report.slo;
    let waits: Vec<u64> = report
        .jobs
        .iter()
        .filter(|j| j.device.is_some())
        .map(|j| j.queue_wait_ns)
        .collect();
    let latencies: Vec<u64> = details
        .iter()
        .flat_map(|d| d.reports.iter().map(|r| r.time.total_ns()))
        .collect();
    for (check, reported, sample, p) in [
        ("cluster-slo-wait-p50", slo.queue_wait_p50_ns, &waits, 50.0),
        ("cluster-slo-wait-p95", slo.queue_wait_p95_ns, &waits, 95.0),
        ("cluster-slo-wait-p99", slo.queue_wait_p99_ns, &waits, 99.0),
        (
            "cluster-slo-latency-p50",
            slo.iter_latency_p50_ns,
            &latencies,
            50.0,
        ),
        (
            "cluster-slo-latency-p95",
            slo.iter_latency_p95_ns,
            &latencies,
            95.0,
        ),
        (
            "cluster-slo-latency-p99",
            slo.iter_latency_p99_ns,
            &latencies,
            99.0,
        ),
    ] {
        let derived = nearest_rank(sample, p);
        if reported != derived {
            diags.push(Diagnostic::error(
                check,
                "slo",
                format!("rollup quotes {reported} ns, the evidence re-folds to {derived} ns"),
            ));
        }
    }
    let goodput: usize = report
        .jobs
        .iter()
        .filter(|j| j.outcome.finished())
        .map(|j| j.iters)
        .sum();
    if slo.goodput_iters != goodput {
        diags.push(Diagnostic::error(
            "cluster-slo-goodput",
            "slo",
            format!(
                "rollup claims {} goodput iters, finished rows sum to {goodput}",
                slo.goodput_iters
            ),
        ));
    }
    let goodput_rate = if report.makespan_ns > 0 {
        goodput as f64 / (report.makespan_ns as f64 / 1e9)
    } else {
        0.0
    };
    if (slo.goodput_iters_per_s - goodput_rate).abs() > 1e-6 * goodput_rate.max(1.0) {
        diags.push(Diagnostic::error(
            "cluster-slo-goodput-rate",
            "slo",
            format!(
                "goodput rate {} iters/s does not re-derive ({goodput_rate})",
                slo.goodput_iters_per_s
            ),
        ));
    }
    let shed_rows = report
        .jobs
        .iter()
        .filter(|j| matches!(j.outcome, JobOutcome::Shed(_)))
        .count();
    for (check, reported, derived) in [
        ("cluster-slo-rejected", slo.rejected_jobs, rejected_rows),
        ("cluster-slo-shed", slo.shed_jobs, shed_rows),
        ("cluster-slo-failed", slo.failed_jobs, failed_rows),
    ] {
        if reported != derived {
            diags.push(Diagnostic::error(
                check,
                "slo",
                format!("rollup counts {reported}, job rows show {derived}"),
            ));
        }
    }
    let n = report.jobs.len().max(1) as f64;
    for (check, reported, count) in [
        (
            "cluster-slo-rejection-rate",
            slo.rejection_rate_pct,
            rejected_rows,
        ),
        ("cluster-slo-shed-rate", slo.shed_rate_pct, shed_rows),
    ] {
        let derived = if report.jobs.is_empty() {
            0.0
        } else {
            count as f64 / n * 100.0
        };
        if (reported - derived).abs() > 1e-9 {
            diags.push(Diagnostic::error(
                check,
                "slo",
                format!("rate {reported} % does not re-derive ({derived} %)"),
            ));
        }
    }

    // --- Event-mode chain consistency: arrival echoes, queue waits,
    // completion instants and terminal settlement all re-derive from the
    // timestamped chain. ---
    if event_mode {
        // Index each job's chain in one pass: its first arrive, dispatch
        // and complete event, and whether any terminal event exists.
        let mut chains = vec![JobChain::default(); report.jobs.len()];
        for e in &report.events {
            let Some(chain) = e.kind.job().and_then(|j| chains.get_mut(j)) else {
                continue;
            };
            match &e.kind {
                FleetEventKind::Arrive { .. } => {
                    chain.arrive.get_or_insert(e);
                }
                FleetEventKind::Dispatch { .. } => {
                    chain.dispatch.get_or_insert(e);
                }
                FleetEventKind::Complete { .. } => {
                    chain.complete.get_or_insert(e);
                    chain.terminal = true;
                }
                FleetEventKind::Reject { .. }
                | FleetEventKind::Shed { .. }
                | FleetEventKind::Fail { .. } => chain.terminal = true,
                _ => {}
            }
        }
        for (row, chain) in report.jobs.iter().zip(&chains) {
            let subject = row.name.clone();
            let Some(arrive) = chain.arrive else {
                diags.push(Diagnostic::error(
                    "cluster-arrival-missing",
                    subject,
                    "event-mode job has no arrive event on the chain",
                ));
                continue;
            };
            if arrive.at_ns != row.arrival_ns {
                diags.push(Diagnostic::error(
                    "cluster-arrival-echo",
                    subject.clone(),
                    format!(
                        "row claims arrival at {} ns, the chain says {} ns",
                        row.arrival_ns, arrive.at_ns
                    ),
                ));
            }
            if let Some(dispatch) = chain.dispatch {
                if dispatch.at_ns != arrive.at_ns + row.queue_wait_ns {
                    diags.push(Diagnostic::error(
                        "cluster-queue-wait-refold",
                        subject.clone(),
                        format!(
                            "row claims a {} ns queue wait, the chain derives {} ns",
                            row.queue_wait_ns,
                            dispatch.at_ns.saturating_sub(arrive.at_ns)
                        ),
                    ));
                }
            }
            if let Some(complete) = chain.complete {
                if Some(complete.at_ns) != row.finish_ns {
                    diags.push(Diagnostic::error(
                        "cluster-finish-echo",
                        subject.clone(),
                        format!(
                            "row claims finish at {:?} ns, the chain says {} ns",
                            row.finish_ns, complete.at_ns
                        ),
                    ));
                }
            }
            if !chain.terminal {
                diags.push(Diagnostic::error(
                    "cluster-terminal-event",
                    subject,
                    format!(
                        "job settled as {:?} but carries no terminal event on the chain",
                        row.outcome.tag()
                    ),
                ));
            }
        }
    }

    // --- Dispatch-sequence structure: the union of first dispatches and
    // migration dispatches must be unique, dense and round-monotone; and
    // under FIFO, same-round first dispatches onto equal-capacity devices
    // must honor submission order. ---
    let mut seq: Vec<(usize, usize, usize)> = details // (seq, round, submit idx)
        .iter()
        .enumerate()
        .filter_map(|(j, d)| Some((d.dispatch_seq?, d.dispatch_round?, j)))
        .collect();
    seq.sort_unstable();
    let mut all_dispatches = seq.clone();
    for e in &report.events {
        if let FleetEventKind::Migrate { job, seq: s, .. } = &e.kind {
            all_dispatches.push((*s, e.round, *job));
        }
    }
    all_dispatches.sort_unstable();
    for (k, (s, round, _)) in all_dispatches.iter().enumerate() {
        if *s != k {
            diags.push(Diagnostic::error(
                "cluster-dispatch-seq",
                "schedule",
                format!("dispatch sequence is not dense: position {k} holds seq {s}"),
            ));
            break;
        }
        if k > 0 && *round < all_dispatches[k - 1].1 {
            diags.push(Diagnostic::error(
                "cluster-dispatch-rounds",
                "schedule",
                format!("seq {s} dispatched in round {round}, before its predecessor"),
            ));
        }
    }
    if report.schedule == "fifo" {
        for w in seq.windows(2) {
            let ((_, ra, ja), (_, rb, jb)) = (w[0], w[1]);
            let cap = |j: usize| {
                report.jobs[j]
                    .device
                    .map(|d| report.devices[d].capacity_bytes)
            };
            if ra == rb && cap(ja) == cap(jb) && ja > jb {
                diags.push(Diagnostic::error(
                    "cluster-fifo-order",
                    "schedule",
                    format!(
                        "fifo dispatched job #{ja} before job #{jb} in round {ra} \
                         on equal-capacity devices"
                    ),
                ));
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_cluster::{ArrivalProcess, Cluster, DevicePool, Mode, SchedulePolicy, Workload};

    #[test]
    fn clean_run_lints_clean() {
        for schedule in [
            SchedulePolicy::Fifo,
            SchedulePolicy::ShortestPredicted,
            SchedulePolicy::BestFitMemory,
        ] {
            let outcome = Cluster::builder()
                .devices(DevicePool::v100(2))
                .workload(Workload::mixed(2))
                .schedule(schedule)
                .record(true)
                .run()
                .expect("canonical workload runs");
            let diags = lint_cluster(&outcome);
            assert!(
                diags.is_empty(),
                "{}: {:?}",
                schedule.name(),
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn corrupted_rollup_is_caught() {
        let mut outcome = Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(2))
            .record(true)
            .run()
            .expect("canonical workload runs");
        outcome.report.makespan_ns += 1;
        outcome.report.jobs[0].oom_iters += 1;
        let diags = lint_cluster(&outcome);
        let checks: Vec<_> = diags.iter().map(|d| d.check).collect();
        assert!(checks.contains(&"cluster-makespan"), "{checks:?}");
        assert!(checks.contains(&"cluster-row-vs-summary"), "{checks:?}");
        assert!(checks.contains(&"cluster-oom-total"), "{checks:?}");
    }

    fn lossy_outcome() -> mimose_cluster::ClusterOutcome {
        use mimose_chaos::{DeviceFault, FleetFaultPlan};
        let faults =
            FleetFaultPlan::none(0).with_device_fault(1, DeviceFault::Lost { at_round: 2 });
        Cluster::builder()
            .devices(DevicePool::v100(4))
            .workload(Workload::mixed(4))
            .faults(faults)
            .record(true)
            .run()
            .expect("faulted workload runs")
    }

    fn serving_outcome() -> mimose_cluster::ClusterOutcome {
        use mimose_chaos::{FleetFaultPlan, TimedDeviceFault};
        let faults = FleetFaultPlan::none(0).with_timed_fault(
            1,
            TimedDeviceFault::Down {
                at_ns: 600_000,
                duration_ns: 1_500_000,
            },
        );
        Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(2))
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::poisson(400_000, 17))
            .faults(faults)
            .record(true)
            .run()
            .expect("serving run")
    }

    #[test]
    fn event_mode_run_lints_clean() {
        let outcome = serving_outcome();
        assert_eq!(outcome.report.mode, "event-driven");
        let diags = lint_cluster(&outcome);
        assert!(
            diags.is_empty(),
            "{:?}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_trailing_fault_event_cannot_stretch_the_makespan() {
        // A fault boundary observed after the last job settled, with the
        // makespan stretched to it: the lint measures the makespan from
        // the terminal events, so the trailing event cannot cover for it.
        let mut outcome = serving_outcome();
        let last = outcome.report.events.last().expect("chain").clone();
        let end = outcome.report.makespan_ns + 1_000_000_000;
        outcome.report.events.push(FleetEvent {
            round: last.round + 1,
            at_ns: end,
            kind: FleetEventKind::DeviceUp { device: 0 },
            cost_ns: 0,
        });
        outcome.report.makespan_ns = end;
        let diags = lint_cluster(&outcome);
        let checks: Vec<_> = diags.iter().map(|d| d.check).collect();
        assert!(checks.contains(&"cluster-makespan"), "{checks:?}");
    }

    #[test]
    fn an_outage_that_ends_in_a_loss_after_the_work_lints_clean() {
        // Device 0's outage turns into a loss, and the work finishes in
        // between: the device counts as lost from the down event that
        // says it never returns, on both clocks.
        use mimose_chaos::{DeviceFault, FleetFaultPlan, TimedDeviceFault};
        let rounds = FleetFaultPlan::none(0)
            .with_device_fault(
                0,
                DeviceFault::Down {
                    at_round: 1,
                    duration: 100,
                },
            )
            .with_device_fault(0, DeviceFault::Lost { at_round: 50 });
        let timed = FleetFaultPlan::none(0)
            .with_timed_fault(
                0,
                TimedDeviceFault::Down {
                    at_ns: 300_000_000,
                    duration_ns: 100_000_000_000,
                },
            )
            .with_timed_fault(
                0,
                TimedDeviceFault::Lost {
                    at_ns: 50_000_000_000,
                },
            );
        for (mode, faults) in [(Mode::Bsp, rounds), (Mode::EventDriven, timed)] {
            let outcome = Cluster::builder()
                .devices(DevicePool::v100(2))
                .workload(Workload::mixed(2))
                .mode(mode)
                .faults(faults)
                .record(true)
                .run()
                .expect("faulted workload runs");
            let r = &outcome.report;
            assert!(r.jobs.iter().all(|j| j.outcome.finished()), "{}", r.mode);
            assert_eq!(r.fleet.devices_lost, 1, "{}", r.mode);
            assert!(r.devices[0].lost, "{}", r.mode);
            let diags = lint_cluster(&outcome);
            assert!(
                diags.is_empty(),
                "{}: {:?}",
                r.mode,
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn corrupted_slo_tails_are_caught() {
        let mut outcome = serving_outcome();
        outcome.report.slo.queue_wait_p99_ns += 1;
        outcome.report.slo.iter_latency_p50_ns += 1;
        outcome.report.slo.goodput_iters += 1;
        outcome.report.slo.shed_rate_pct += 0.5;
        let diags = lint_cluster(&outcome);
        let checks: Vec<_> = diags.iter().map(|d| d.check).collect();
        assert!(checks.contains(&"cluster-slo-wait-p99"), "{checks:?}");
        assert!(checks.contains(&"cluster-slo-latency-p50"), "{checks:?}");
        assert!(checks.contains(&"cluster-slo-goodput"), "{checks:?}");
        assert!(checks.contains(&"cluster-slo-shed-rate"), "{checks:?}");
    }

    #[test]
    fn corrupted_event_chain_is_caught() {
        let mut outcome = serving_outcome();
        let dispatched = outcome
            .report
            .jobs
            .iter()
            .position(|j| j.device.is_some() && j.queue_wait_ns > 0)
            .unwrap_or(0);
        outcome.report.jobs[dispatched].queue_wait_ns += 1;
        outcome.report.jobs[dispatched].arrival_ns += 1;
        let diags = lint_cluster(&outcome);
        let checks: Vec<_> = diags.iter().map(|d| d.check).collect();
        assert!(checks.contains(&"cluster-arrival-echo"), "{checks:?}");
        assert!(checks.contains(&"cluster-queue-wait-refold"), "{checks:?}");
    }

    #[test]
    fn device_loss_run_lints_clean() {
        let outcome = lossy_outcome();
        // The scenario actually exercised the failure protocol.
        assert!(outcome.report.fleet.migrations >= 1);
        assert_eq!(outcome.report.fleet.devices_lost, 1);
        let diags = lint_cluster(&outcome);
        assert!(
            diags.is_empty(),
            "{:?}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupted_fleet_accounting_is_caught() {
        let mut outcome = lossy_outcome();
        let moved = outcome
            .report
            .jobs
            .iter()
            .position(|j| j.migrations > 0)
            .expect("scenario migrates a job");
        outcome.report.fleet.migrations += 1;
        outcome.report.jobs[moved].retries += 1;
        outcome.report.jobs[moved].fleet_overhead_ns += 1;
        outcome.report.devices[1].lost = false;
        let diags = lint_cluster(&outcome);
        let checks: Vec<_> = diags.iter().map(|d| d.check).collect();
        assert!(checks.contains(&"cluster-fleet-migrations"), "{checks:?}");
        assert!(checks.contains(&"cluster-retry-count"), "{checks:?}");
        assert!(checks.contains(&"cluster-fleet-overhead"), "{checks:?}");
        assert!(checks.contains(&"cluster-device-lost"), "{checks:?}");
    }

    #[test]
    fn silently_dropped_job_is_caught() {
        let mut outcome = lossy_outcome();
        // Forge the cover-up: pretend the displaced job plain-completed and
        // erase its migration from the rollup and the row.
        let moved = outcome
            .report
            .jobs
            .iter()
            .position(|j| j.migrations > 0)
            .expect("scenario migrates a job");
        outcome.report.jobs[moved].outcome = JobOutcome::Completed;
        outcome.report.jobs[moved].migrations = 0;
        let diags = lint_cluster(&outcome);
        let checks: Vec<_> = diags.iter().map(|d| d.check).collect();
        assert!(checks.contains(&"cluster-displaced-outcome"), "{checks:?}");
        assert!(checks.contains(&"cluster-migration-count"), "{checks:?}");
    }
}
