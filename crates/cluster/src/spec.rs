//! The cluster front door: [`Cluster::builder()`] mirrors
//! [`Session::builder`](mimose_exec::Session::builder) one level up —
//! devices, workload, arrival process and execution mode are chained onto
//! a [`ClusterBuilder`], which validates into a [`ClusterSpec`];
//! [`ClusterSpec::run`] drives it and returns
//! `Result<ClusterOutcome, ClusterError>` instead of panicking on a
//! malformed spec.
//!
//! ```
//! use mimose_cluster::{Cluster, ClusterError, DevicePool, Workload};
//!
//! # fn main() -> Result<(), ClusterError> {
//! let outcome = Cluster::builder()
//!     .devices(DevicePool::v100(2))
//!     .workload(Workload::mixed(3))
//!     .run()?;
//! assert_eq!(outcome.report.jobs.len(), 8);
//! # Ok(())
//! # }
//! ```

use crate::error::ClusterError;
use crate::job::JobSpec;
use crate::report::ClusterReport;
use crate::workload::{DevicePool, Workload};
use mimose_chaos::FleetFaultPlan;
use mimose_data::ArrivalProcess;
use mimose_exec::IterationRecord;
use mimose_planner::PlanTierStats;
use mimose_runtime::{IterationReport, RunSummary};
use mimose_simgpu::DeviceProfile;

/// How the fleet advances virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// BSP rounds: the event loop on a round clock. Every job is present
    /// at tick 0, each tick every busy device runs exactly one iteration,
    /// and one barrier event ends the round. The batch world — maximally
    /// parallel, arrival-blind. Round-indexed faults apply.
    #[default]
    Bsp,
    /// Discrete events on a virtual-nanosecond clock: job arrivals,
    /// per-iteration completions, timed device faults and backoff expiries
    /// drive the loop; dispatch happens at event boundaries. The serving
    /// world — queueing, SLO tails and overload behavior become visible.
    /// Timed faults apply.
    EventDriven,
}

impl Mode {
    /// Stable lowercase name ("bsp", "event-driven").
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Bsp => "bsp",
            Mode::EventDriven => "event-driven",
        }
    }

    /// Parse a [`Self::name`] string (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "bsp" => Some(Mode::Bsp),
            "event-driven" | "event" | "des" => Some(Mode::EventDriven),
            _ => None,
        }
    }
}

/// The fleet. Construct runs through [`Cluster::builder`].
pub struct Cluster;

impl Cluster {
    /// Start building a cluster run.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }
}

/// Builder for one cluster run; see the module docs for the shape.
/// Defaults: FIFO dispatch, threaded steps, no faults, no recording, 3
/// displacement retries, BSP mode with immediate arrivals and no queue
/// limit. Admission always plans into a fixed 95 % of each device's
/// memory.
pub struct ClusterBuilder {
    devices: Option<DevicePool>,
    workload: Option<Workload>,
    arrivals: ArrivalProcess,
    mode: Mode,
    schedule: SchedulePolicy,
    threads: usize,
    faults: FleetFaultPlan,
    record: bool,
    max_retries: usize,
    queue_limit: Option<usize>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            devices: None,
            workload: None,
            arrivals: ArrivalProcess::Immediate,
            mode: Mode::Bsp,
            schedule: SchedulePolicy::Fifo,
            threads: 0,
            faults: FleetFaultPlan::none(0),
            record: false,
            max_retries: 3,
            queue_limit: None,
        }
    }
}

impl ClusterBuilder {
    /// Set the device pool (required).
    #[must_use]
    pub fn devices(mut self, devices: DevicePool) -> Self {
        self.devices = Some(devices);
        self
    }

    /// Set the workload (required).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Set the arrival process (event-driven mode only; BSP ignores it —
    /// the batch world has every job present at `t = 0`).
    #[must_use]
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Set the execution mode.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the dispatch policy.
    #[must_use]
    pub fn schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the threading mode of the step pass: `1` steps the jobs parked
    /// at an event boundary serially on the calling thread; any other
    /// value spawns one scoped thread per parked job when more than one
    /// is parked. Both modes share the pass, and the report is
    /// byte-identical either way.
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

    /// Bound the pending queue (event-driven mode): a job arriving while
    /// `queue_limit` jobs already wait is shed on arrival with an explicit
    /// "queue full" outcome — the fleet's overload valve. `None` (the
    /// default) queues without bound.
    #[must_use]
    pub fn queue_limit(mut self, queue_limit: Option<usize>) -> Self {
        self.queue_limit = queue_limit;
        self
    }

    /// Compile the builder into a validated [`ClusterSpec`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::MissingWorkload`] when no workload was set,
    /// [`ClusterError::EmptyDevicePool`] when the pool is missing or
    /// empty, [`ClusterError::ZeroIterationJob`] when a job requests zero
    /// iterations.
    pub fn build(self) -> Result<ClusterSpec, ClusterError> {
        let workload = self.workload.ok_or(ClusterError::MissingWorkload)?;
        let devices = self.devices.unwrap_or_else(|| DevicePool::custom(vec![]));
        let spec = ClusterSpec {
            jobs: workload.into_jobs(),
            devices: devices.into_devices(),
            schedule: self.schedule,
            threads: self.threads,
            faults: self.faults,
            record: self.record,
            max_retries: self.max_retries,
            mode: self.mode,
            arrivals: self.arrivals,
            queue_limit: self.queue_limit,
        };
        validate(&spec)?;
        Ok(spec)
    }

    /// Compile and run the cluster to completion: `build()?.run()`.
    ///
    /// # Errors
    ///
    /// See [`ClusterBuilder::build`].
    pub fn run(self) -> Result<ClusterOutcome, ClusterError> {
        self.build()?.run()
    }
}

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

/// A whole cluster run, as data: jobs, devices, and the knobs. Built and
/// validated by [`Cluster::builder`]; [`Self::run`] drives it.
pub struct ClusterSpec {
    /// Jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// The device pool.
    pub devices: Vec<DeviceProfile>,
    /// Dispatch policy.
    pub schedule: SchedulePolicy,
    /// `1` steps parked jobs serially on the calling thread; any other
    /// value spawns one scoped thread per parked job. The report is
    /// byte-identical either way.
    pub threads: usize,
    /// Per-device fault derivation (noop by default). BSP mode reads the
    /// round-indexed faults on its round clock
    /// ([`FleetFaultPlan::on_round_clock`]); event-driven mode reads the
    /// timed faults.
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
    /// Run the spec to completion on the fleet driver. Per-job failures
    /// (profile errors, data exhaustion, displacement past the retry
    /// budget) and load-shed jobs are recorded in the report, not
    /// returned — a run that starts always yields a report, even when the
    /// fault plan kills every device.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] when the spec cannot start at all (empty device
    /// pool, zero-iteration job).
    pub fn run(&self) -> Result<ClusterOutcome, ClusterError> {
        validate(self)?;
        Ok(crate::des::run(self))
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
    /// their [`FleetEvent`](crate::FleetEvent)).
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

/// Spec validation: [`ClusterSpec::run`] re-checks before running, so a
/// spec built field by field gets the typed errors too.
pub(crate) fn validate(spec: &ClusterSpec) -> Result<(), ClusterError> {
    if spec.devices.is_empty() {
        return Err(ClusterError::EmptyDevicePool);
    }
    if let Some(job) = spec.jobs.iter().find(|j| j.iters == 0) {
        return Err(ClusterError::ZeroIterationJob {
            name: job.name.clone(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for m in [Mode::Bsp, Mode::EventDriven] {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
        assert_eq!(Mode::parse("des"), Some(Mode::EventDriven));
        assert_eq!(Mode::parse("nope"), None);
        assert_eq!(Mode::default(), Mode::Bsp);
    }

    #[test]
    fn builder_rejects_malformed_specs_with_typed_errors() {
        assert_eq!(
            Cluster::builder().devices(DevicePool::v100(2)).run().err(),
            Some(ClusterError::MissingWorkload)
        );
        assert_eq!(
            Cluster::builder().workload(Workload::mixed(2)).run().err(),
            Some(ClusterError::EmptyDevicePool)
        );
        assert_eq!(
            Cluster::builder()
                .devices(DevicePool::v100(0))
                .workload(Workload::mixed(2))
                .run()
                .err(),
            Some(ClusterError::EmptyDevicePool)
        );
        let err = Cluster::builder()
            .devices(DevicePool::v100(1))
            .workload(Workload::mixed(0))
            .run()
            .err();
        assert!(
            matches!(err, Some(ClusterError::ZeroIterationJob { .. })),
            "{err:?}"
        );
    }
}
