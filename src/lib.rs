//! # mimose
//!
//! A full-system Rust reproduction of **"Exploiting Input Tensor Dynamics in
//! Activation Checkpointing for Efficient Training on GPU"** (Liao, Li, Yang
//! et al., IPDPS 2023) — the *Mimose* input-aware checkpointing planner,
//! every baseline planner it is evaluated against, and the simulated
//! training substrate (operator cost model, model graphs, GPU memory arena,
//! data pipeline) the evaluation runs on.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`tensor`] — shapes and dtypes;
//! * [`ops`] — operator taxonomy, shape inference, FLOP/byte costs;
//! * [`models`] — BERT/RoBERTa/T5/ResNet/Swin block graphs;
//! * [`simgpu`] — virtual clock, device profile, memory arena;
//! * [`data`] — synthetic datasets with the paper's input dynamics;
//! * [`estimator`] — polynomial/SVR/tree/GBT regression library;
//! * [`planner`] — plan types, policy trait, Sublinear/Checkmate/MONeT/DTR;
//! * [`core`] — Mimose itself (collector, estimator, scheduler, cache);
//! * [`exec`] — the iteration executor: [`Session`](exec::Session),
//!   single-iteration builders, recovery ladder;
//! * [`cluster`] — the multi-device, multi-job fleet scheduler.
//!
//! The experiment harness regenerating every table/figure lives in the
//! `mimose-exp` crate (binaries only; it consumes this facade).
//!
//! ## Quickstart
//!
//! ```
//! use mimose::prelude::*;
//!
//! // `.optimize()` runs the graph-pass pipeline (dedup, DCE, in-place
//! // stash elision) — sessions plan against the shrunk footprint.
//! let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
//! let dataset = presets::glue_qqp();
//! let mut session = Session::builder(&model, &dataset)
//!     .policy(MimosePolicy::new(MimoseConfig::with_budget(5 << 30)))
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! session.run(50).unwrap();
//! assert_eq!(session.summary().oom_iters, 0);
//! assert!(session.summary().max_peak_bytes <= 5 << 30);
//! ```

pub use mimose_audit as audit;
pub use mimose_cluster as cluster;
pub use mimose_core as core;
pub use mimose_data as data;
pub use mimose_estimator as estimator;
pub use mimose_exec as exec;
pub use mimose_models as models;
pub use mimose_ops as ops;
pub use mimose_planner as planner;
pub use mimose_rng as rng;
pub use mimose_runtime as runtime;
pub use mimose_simgpu as simgpu;
pub use mimose_tensor as tensor;

/// The types most programs touch, importable in one line.
///
/// Covers the session front door, the policy zoo, the fleet scheduler,
/// and the handful of substrate types (device, dataset, model builders)
/// every experiment needs.
pub mod prelude {
    pub use mimose_chaos::{
        DeviceFault, FaultInjector, FaultSpec, FleetFaultPlan, TimedDeviceFault,
    };
    pub use mimose_cluster::{
        ArrivalProcess, Cluster, ClusterBuilder, ClusterError, ClusterReport, ClusterSpec,
        DevicePool, FleetEvent, FleetEventKind, JobOutcome, JobPolicy, JobSpec, Mode,
        SchedulePolicy, SloRollup, Workload,
    };
    pub use mimose_core::{MimoseConfig, MimosePolicy};
    pub use mimose_data::{presets, Dataset};
    pub use mimose_exec::{
        BlockIteration, DtrIteration, ExecError, RecoveryConfig, Session, SessionBuilder,
        SessionCheckpoint,
    };
    pub use mimose_models::builders::{bert_base, resnet50_od, roberta_base, t5_base, BertHead};
    pub use mimose_models::{
        GraphDelta, ModelGraph, ModelInput, ModelProfile, OptimizedGraph, PassPipeline,
    };
    pub use mimose_planner::{MemoryPolicy, PolicyKind};
    pub use mimose_runtime::{IterationReport, RunSummary};
    pub use mimose_simgpu::DeviceProfile;
}
