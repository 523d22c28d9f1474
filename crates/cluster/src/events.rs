//! Typed fleet-lifecycle events: the scheduler's protocol as an
//! append-only, cost-attributed chain on the [`ClusterReport`]
//! (`crate::ClusterReport`) — device down/up transitions, job checkpoints,
//! requeues with exponential backoff, migrations and load shedding, plus
//! (in event-driven mode) every arrival, dispatch, completion and
//! rejection. The audit layer re-derives every fleet rollup counter and
//! every SLO tail percentile from this chain, so a lost device's jobs can
//! never be dropped silently and a quoted p99 can never drift from the
//! events behind it.
//!
//! Every event carries two stamps: `round` (the BSP round, or the
//! event-loop epoch, it was observed in) and `at_ns` (the fleet's virtual
//! time at emission — the furthest any device has run in BSP mode, the
//! event-queue time in event-driven mode). Both are nondecreasing in chain
//! order.

/// Modeled virtual cost of checkpointing an in-flight job at an iteration
/// boundary (serializing the policy/estimator state and stream cursor).
pub const CHECKPOINT_COST_NS: u64 = 25_000;
/// Modeled virtual cost of restoring a checkpoint on the migration target
/// (rebuilding the session and fast-forwarding the batch stream).
pub const RESTORE_COST_NS: u64 = 40_000;
/// Base of the exponential requeue backoff in event-driven mode: a job
/// displaced for the `n`-th time waits `BACKOFF_BASE_NS << (n - 1)`
/// virtual nanoseconds before it is eligible for re-admission. On the BSP
/// round clock the base is one tick.
pub const BACKOFF_BASE_NS: u64 = 1_000_000;

/// What happened, fleet-wise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEventKind {
    /// A job entered the fleet (event-driven mode only; in BSP mode every
    /// job is present at round 0 and no arrival is recorded).
    Arrive {
        /// Job submission index.
        job: usize,
    },
    /// A fresh job was admitted and started on a device (event-driven
    /// mode only; BSP dispatches are recorded on the job's detail row).
    Dispatch {
        /// Job submission index.
        job: usize,
        /// Device the job started on.
        device: usize,
        /// Global dispatch sequence number.
        seq: usize,
    },
    /// A job executed its last requested iteration (event-driven mode
    /// only).
    Complete {
        /// Job submission index.
        job: usize,
        /// Device the job finished on.
        device: usize,
    },
    /// A job's submission-time rejection, replayed on its arrival so the
    /// event chain settles every job (event-driven mode only).
    Reject {
        /// Job submission index.
        job: usize,
        /// Why admission rejected the job.
        reason: String,
    },
    /// A device became unreachable. `until_round` is the BSP round (or,
    /// in event-driven mode, the virtual nanosecond) it returns
    /// (`None` = permanently lost).
    DeviceDown {
        /// Device index.
        device: usize,
        /// First round (BSP) or virtual nanosecond (event-driven) the
        /// device is back up; `None` for permanent loss.
        until_round: Option<usize>,
    },
    /// A transiently-down device returned to service.
    DeviceUp {
        /// Device index.
        device: usize,
    },
    /// An in-flight job was parked at its last completed iteration
    /// boundary because its device went down.
    Checkpoint {
        /// Job submission index.
        job: usize,
        /// Device the job was checkpointed off.
        device: usize,
        /// Next iteration the resumed job will run.
        cursor: usize,
    },
    /// A checkpointed job re-entered the admission queue.
    Requeue {
        /// Job submission index.
        job: usize,
        /// How many times this job has now been displaced.
        retries: usize,
    },
    /// The requeued job's exponential-backoff window.
    Backoff {
        /// Job submission index.
        job: usize,
        /// First round (BSP) or virtual nanosecond (event-driven) the job
        /// is eligible for re-admission.
        until_round: usize,
    },
    /// A checkpointed job was re-admitted and resumed on a surviving
    /// device.
    Migrate {
        /// Job submission index.
        job: usize,
        /// Device the job was displaced from.
        from: usize,
        /// Device the job resumed on.
        to: usize,
        /// Iteration the job resumed at.
        cursor: usize,
        /// Global dispatch sequence number of the migration dispatch.
        seq: usize,
    },
    /// A job was shed: the degraded fleet can never place it (or, in
    /// event-driven mode, its bounded queue was full on arrival), so it
    /// is dropped explicitly rather than starved.
    Shed {
        /// Job submission index.
        job: usize,
        /// Why the job was shed.
        reason: String,
    },
    /// A displaced job was failed (retry budget exhausted or the resumed
    /// session could not be rebuilt).
    Fail {
        /// Job submission index.
        job: usize,
        /// Why the job failed.
        reason: String,
    },
}

impl FleetEventKind {
    /// Stable lowercase tag for serialization.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            FleetEventKind::Arrive { .. } => "arrive",
            FleetEventKind::Dispatch { .. } => "dispatch",
            FleetEventKind::Complete { .. } => "complete",
            FleetEventKind::Reject { .. } => "reject",
            FleetEventKind::DeviceDown { .. } => "device-down",
            FleetEventKind::DeviceUp { .. } => "device-up",
            FleetEventKind::Checkpoint { .. } => "checkpoint",
            FleetEventKind::Requeue { .. } => "requeue",
            FleetEventKind::Backoff { .. } => "backoff",
            FleetEventKind::Migrate { .. } => "migrate",
            FleetEventKind::Shed { .. } => "shed",
            FleetEventKind::Fail { .. } => "fail",
        }
    }

    /// The job the event concerns, when it concerns one.
    #[must_use]
    pub fn job(&self) -> Option<usize> {
        match self {
            FleetEventKind::Arrive { job }
            | FleetEventKind::Dispatch { job, .. }
            | FleetEventKind::Complete { job, .. }
            | FleetEventKind::Reject { job, .. }
            | FleetEventKind::Checkpoint { job, .. }
            | FleetEventKind::Requeue { job, .. }
            | FleetEventKind::Backoff { job, .. }
            | FleetEventKind::Migrate { job, .. }
            | FleetEventKind::Shed { job, .. }
            | FleetEventKind::Fail { job, .. } => Some(*job),
            FleetEventKind::DeviceDown { .. } | FleetEventKind::DeviceUp { .. } => None,
        }
    }
}

/// One entry of the fleet-event chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEvent {
    /// Scheduler round (BSP) or event-loop epoch (event-driven) the event
    /// was observed in.
    pub round: usize,
    /// Fleet virtual time at emission, nanoseconds (see module docs).
    pub at_ns: u64,
    /// What happened.
    pub kind: FleetEventKind,
    /// Modeled virtual cost attributed to the affected job's fleet
    /// overhead (zero for pure bookkeeping like backoff windows).
    pub cost_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_job_attribution_are_stable() {
        let e = FleetEventKind::Migrate {
            job: 3,
            from: 1,
            to: 0,
            cursor: 2,
            seq: 9,
        };
        assert_eq!(e.tag(), "migrate");
        assert_eq!(e.job(), Some(3));
        let d = FleetEventKind::DeviceDown {
            device: 1,
            until_round: None,
        };
        assert_eq!(d.tag(), "device-down");
        assert_eq!(d.job(), None);
        assert_eq!(
            FleetEventKind::Shed {
                job: 0,
                reason: "x".into()
            }
            .job(),
            Some(0)
        );
        for (kind, tag) in [
            (FleetEventKind::Arrive { job: 2 }, "arrive"),
            (
                FleetEventKind::Dispatch {
                    job: 2,
                    device: 0,
                    seq: 1,
                },
                "dispatch",
            ),
            (FleetEventKind::Complete { job: 2, device: 0 }, "complete"),
            (
                FleetEventKind::Reject {
                    job: 2,
                    reason: "floor".into(),
                },
                "reject",
            ),
        ] {
            assert_eq!(kind.tag(), tag);
            assert_eq!(kind.job(), Some(2));
        }
    }
}
