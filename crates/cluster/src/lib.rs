//! mimose-cluster: a deterministic multi-device, multi-job scheduler on
//! top of the event-sourced runtime.
//!
//! The single-job stack answers "how does one training job behave under a
//! memory policy?"; this crate answers the fleet question: given N jobs
//! and M simulated devices, who runs where, does the next iteration fit
//! before we dispatch it, and what did the fleet cost? It composes the
//! existing layers rather than re-implementing them:
//!
//! - **Admission** ([`AdmissionController`]) gates dispatch on the
//!   policy's predicted peak for the job's next iteration against the
//!   device's headroom-discounted capacity, demoting (arming the recovery
//!   ladder) or rejecting via the analytic all-checkpoint floor.
//! - **Scheduling** is one discrete-event loop behind one front door,
//!   [`Cluster::builder`], on one of two clocks: **BSP rounds**
//!   ([`Mode::Bsp`]) — a tick per round, one iteration per busy device
//!   per tick, one barrier committing them in device-index order — and
//!   **virtual nanoseconds** ([`Mode::EventDriven`]), where an
//!   [`ArrivalProcess`] feeds jobs into the queue and each iteration
//!   completes at its own instant. Either way a [`ClusterReport`] is
//!   byte-identical run-to-run and across thread counts, and a
//!   1-job/1-device BSP cluster degenerates exactly to
//!   [`mimose_exec::Session::run`].
//! - **Reporting** ([`ClusterReport`]) folds per-job
//!   [`RunSummary`](mimose_runtime::RunSummary) rollups into
//!   makespan, utilization, queue latency, OOM/recovery counts, admission
//!   accuracy and (from the typed [`FleetEvent`] chain) the serving-mode
//!   SLO tails ([`SloRollup`]: p50/p95/p99 queue wait and iteration
//!   latency, goodput, rejection/shed rates), serialized as deterministic
//!   JSON.
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
//! assert!(outcome.report.makespan_ns > 0);
//! # Ok(())
//! # }
//! ```
//!
//! Serving mode, with arrivals and a bounded queue:
//!
//! ```
//! use mimose_cluster::{ArrivalProcess, Cluster, ClusterError, DevicePool, Mode, Workload};
//!
//! # fn main() -> Result<(), ClusterError> {
//! let outcome = Cluster::builder()
//!     .devices(DevicePool::v100(2))
//!     .workload(Workload::mixed(2))
//!     .mode(Mode::EventDriven)
//!     .arrivals(ArrivalProcess::poisson(500_000, 42))
//!     .queue_limit(Some(16))
//!     .run()?;
//! assert_eq!(outcome.report.mode, "event-driven");
//! assert!(outcome.report.slo.iter_latency_p99_ns > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod admission;
mod des;
mod error;
mod events;
mod job;
mod protocol;
mod report;
mod spec;
mod workload;

pub use admission::{AdmissionController, AdmissionDecision, AdmissionStats};
pub use error::ClusterError;
pub use events::{
    FleetEvent, FleetEventKind, BACKOFF_BASE_NS, CHECKPOINT_COST_NS, RESTORE_COST_NS,
};
pub use job::{
    DeterministicMimose, JobPolicy, JobSpec, MIMOSE_CACHE_HIT_COST_NS, MIMOSE_PLAN_COST_NS,
    MIMOSE_REPAIR_COST_NS,
};
/// Re-exported from `mimose-data`: the arrival processes the event-driven
/// mode draws job submission times from.
pub use mimose_data::ArrivalProcess;
pub use report::{
    ClusterReport, DeviceReport, FleetStats, JobOutcome, JobPlacement, JobReport, SloRollup,
};
pub use spec::{
    Cluster, ClusterBuilder, ClusterOutcome, ClusterSpec, JobDetail, Mode, SchedulePolicy,
};
pub use workload::{DevicePool, Workload};
