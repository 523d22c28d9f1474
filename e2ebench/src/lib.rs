//! # mimose-e2e
//!
//! The end-to-end benchmark of the Mimose workspace: four workloads that
//! together pass through every layer (data, models, core, estimator,
//! planner, exec, runtime, simgpu, chaos, cluster, audit), each measured
//! as a whole from outside the program. Host metrics (what the simulator
//! costs on this machine) and simulated metrics (what the virtual clock
//! reads, as the paper measures) are always reported under separate
//! names. A traced round splits the host time across the layers, with
//! spans taken only around calls into the workspace's public functions.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run, trace and compare.

pub mod bench;
pub mod compare;
pub mod fleet;
pub mod json;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod train;

use bench::Opts;
use metrics::Outcome;

/// Run one workload in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    match name {
        "train-epoch" => train::run(opts, false),
        "train-chaos" => train::run(opts, true),
        "serve-overload" => fleet::run(opts, fleet::Kind::Serve),
        "fleet-bsp" => fleet::run(opts, fleet::Kind::Bsp),
        other => Err(format!(
            "unknown workload {other}; expected one of {:?}",
            bench::WORKLOADS
        )),
    }
}
