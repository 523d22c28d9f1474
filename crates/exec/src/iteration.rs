//! The single-iteration API, for callers that drive *one* iteration with
//! explicit knobs (experiments sweeping capacities, fixtures, benches)
//! rather than a whole run: [`BlockIteration`] for the block engine and
//! [`DtrIteration`] for the tensor engine. A [`Session`](crate::Session)
//! step builds the same values, so a session iteration and a hand-built
//! one run the same code.

use crate::block_engine::{run_attempt, BlockMode, BlockRun, EngineOpts};
use crate::recovery::{drive, RecoveryConfig};
use mimose_chaos::IterationFaults;
use mimose_models::ModelProfile;
use mimose_planner::{CheckpointPlan, HybridPlan};
use mimose_runtime::{EventLog, ExecEvent, IterationReport, Recorder};
use mimose_simgpu::{AllocPolicy, ArenaStats, DeviceProfile};

/// One block-engine iteration, configured fluently. Construct with
/// [`BlockIteration::plan`] / [`fine`](BlockIteration::fine) /
/// [`hybrid`](BlockIteration::hybrid) / [`shuttle`](BlockIteration::shuttle),
/// then run with [`run`](BlockIteration::run),
/// [`run_into`](BlockIteration::run_into) or
/// [`run_recorded`](BlockIteration::run_recorded).
pub struct BlockIteration<'a> {
    pub(crate) profile: &'a ModelProfile,
    pub(crate) mode: BlockMode<'a>,
    pub(crate) capacity: usize,
    pub(crate) device: DeviceProfile,
    pub(crate) iter: usize,
    pub(crate) planning_ns: u64,
    pub(crate) recovery: Option<&'a RecoveryConfig>,
    pub(crate) faults: Option<&'a IterationFaults>,
}

impl<'a> BlockIteration<'a> {
    fn new(profile: &'a ModelProfile, mode: BlockMode<'a>) -> Self {
        let device = DeviceProfile::v100();
        BlockIteration {
            profile,
            mode,
            capacity: device.total_mem_bytes,
            device,
            iter: 0,
            planning_ns: 0,
            recovery: None,
            faults: None,
        }
    }

    /// Run under a block checkpoint plan.
    #[must_use]
    pub fn plan(profile: &'a ModelProfile, plan: &'a CheckpointPlan) -> Self {
        Self::new(profile, BlockMode::Plan(plan))
    }

    /// Run under an already-chosen [`BlockMode`] (for callers that pick
    /// the mode at runtime, e.g. from a policy directive).
    #[must_use]
    pub fn with_mode(profile: &'a ModelProfile, mode: BlockMode<'a>) -> Self {
        Self::new(profile, mode)
    }

    /// Run under a tensor-granular plan (MONeT).
    #[must_use]
    pub fn fine(
        profile: &'a ModelProfile,
        plan: &'a mimose_planner::memory_model::FinePlan,
    ) -> Self {
        Self::new(profile, BlockMode::Fine(plan))
    }

    /// Run under a hybrid swap/recompute plan (Capuchin).
    #[must_use]
    pub fn hybrid(profile: &'a ModelProfile, plan: &'a HybridPlan) -> Self {
        Self::new(profile, BlockMode::Hybrid(plan))
    }

    /// Run Mimose's shuttle-collection iteration.
    #[must_use]
    pub fn shuttle(profile: &'a ModelProfile) -> Self {
        Self::new(profile, BlockMode::Shuttle)
    }

    /// Arena capacity in bytes (default: the device's whole memory).
    #[must_use]
    pub fn capacity(mut self, bytes: usize) -> Self {
        self.capacity = bytes;
        self
    }

    /// Device cost profile (default: V100). Does *not* reset a capacity
    /// set explicitly; set capacity after the device to override.
    #[must_use]
    pub fn device(mut self, dev: &DeviceProfile) -> Self {
        self.device = dev.clone();
        self
    }

    /// Iteration number stamped on the report (default 0).
    #[must_use]
    pub fn iter(mut self, iter: usize) -> Self {
        self.iter = iter;
        self
    }

    /// Policy planning time to charge to the virtual clock (default 0).
    #[must_use]
    pub fn planning_ns(mut self, ns: u64) -> Self {
        self.planning_ns = ns;
        self
    }

    /// Enable the OOM-recovery ladder.
    #[must_use]
    pub fn recovery(mut self, cfg: &'a RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Inject this iteration's faults.
    #[must_use]
    pub fn faults(mut self, faults: &'a IterationFaults) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Execute.
    #[must_use]
    pub fn run(self) -> BlockRun {
        drive(&self, None).0
    }

    /// Execute, emitting the event stream into a caller-supplied
    /// [`Recorder`] — the zero-churn seam: a caller that holds one
    /// [`EventLog`] across iterations (clearing it in between) records
    /// every iteration without a per-iteration allocation.
    ///
    /// Single-attempt only: the restart rungs of the recovery ladder need
    /// attempt-scoped streams, so a configured `recovery` ladder here
    /// drives its inline rungs but not restarts (exactly the semantics of
    /// one engine attempt). Use [`run_recorded`](Self::run_recorded) for
    /// ladder-driven recording.
    #[must_use]
    pub fn run_into(self, rec: &mut dyn Recorder) -> BlockRun {
        run_attempt(
            self.profile,
            self.mode,
            self.capacity,
            &self.device,
            self.iter,
            self.planning_ns,
            &EngineOpts {
                attempt: 0,
                shrink: 1.0,
                recovery: self.recovery,
                faults: self.faults,
            },
            rec,
        )
        .0
    }

    /// Execute, recording the full [`ExecEvent`] stream (final attempt
    /// only when the recovery ladder restarted).
    #[must_use]
    pub fn run_recorded(self) -> (BlockRun, Vec<ExecEvent>, ArenaStats) {
        let mut log = EventLog::new();
        let (run, stats) = drive(&self, Some(&mut log));
        (run, log.events, stats)
    }
}

/// One tensor-engine (DTR) iteration, configured fluently.
pub struct DtrIteration<'a> {
    pub(crate) profile: &'a ModelProfile,
    pub(crate) budget: usize,
    pub(crate) device_capacity: usize,
    pub(crate) device: DeviceProfile,
    pub(crate) iter: usize,
    pub(crate) alloc_policy: AllocPolicy,
}

impl<'a> DtrIteration<'a> {
    /// DTR over `profile` with the given eviction budget, on the default
    /// V100 (arena = whole device).
    #[must_use]
    pub fn new(profile: &'a ModelProfile, budget: usize) -> Self {
        let device = DeviceProfile::v100();
        DtrIteration {
            profile,
            budget,
            device_capacity: device.total_mem_bytes,
            device,
            iter: 0,
            alloc_policy: AllocPolicy::FirstFit,
        }
    }

    /// Physical arena capacity (default: the device's whole memory).
    #[must_use]
    pub fn capacity(mut self, bytes: usize) -> Self {
        self.device_capacity = bytes;
        self
    }

    /// Device cost profile (default: V100). Does *not* reset a capacity
    /// set explicitly; set capacity after the device to override.
    #[must_use]
    pub fn device(mut self, dev: &DeviceProfile) -> Self {
        self.device = dev.clone();
        self
    }

    /// Iteration number stamped on the report (default 0).
    #[must_use]
    pub fn iter(mut self, iter: usize) -> Self {
        self.iter = iter;
        self
    }

    /// Allocator fit policy (default first-fit; the allocator ablation
    /// sweeps this).
    #[must_use]
    pub fn alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// Execute.
    #[must_use]
    pub fn run(self) -> IterationReport {
        crate::dtr_engine::run(&self, None).0
    }

    /// Execute, recording the full [`ExecEvent`] stream.
    #[must_use]
    pub fn run_recorded(self) -> (IterationReport, Vec<ExecEvent>, ArenaStats) {
        let mut log = EventLog::new();
        let (report, stats) = crate::dtr_engine::run(&self, Some(&mut log));
        (report, log.events, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_models::ModelInput;

    fn profile(seq: usize) -> ModelProfile {
        bert_base(BertHead::Classification { labels: 2 })
            .profile(&ModelInput::tokens(32, seq))
            .unwrap()
    }

    #[test]
    fn dtr_builder_defaults_to_the_whole_v100() {
        let p = profile(96);
        let dev = DeviceProfile::v100();
        let explicit = DtrIteration::new(&p, 4 << 30)
            .device(&dev)
            .capacity(dev.total_mem_bytes)
            .alloc_policy(AllocPolicy::FirstFit)
            .iter(1)
            .run();
        let built = DtrIteration::new(&p, 4 << 30).iter(1).run();
        assert_eq!(format!("{explicit:?}"), format!("{built:?}"));
    }

    #[test]
    fn dtr_recorded_run_honours_the_alloc_policy() {
        let p = profile(96);
        for policy in [AllocPolicy::FirstFit, AllocPolicy::BestFit] {
            let it = || DtrIteration::new(&p, 4 << 30).alloc_policy(policy);
            let (recorded, _, _) = it().run_recorded();
            assert_eq!(
                format!("{recorded:?}"),
                format!("{:?}", it().run()),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn run_into_an_event_log_matches_the_recorded_stream() {
        let p = profile(128);
        let n = p.blocks.len();
        let plan = CheckpointPlan::from_indices(n, &[0, 2, 4]).unwrap();
        let it = || {
            BlockIteration::plan(&p, &plan)
                .capacity(8 << 30)
                .iter(2)
                .planning_ns(10)
        };
        let (recorded, events, _) = it().run_recorded();
        let mut log = EventLog::new();
        let run = it().run_into(&mut log);
        assert!(run.report.ok());
        assert_eq!(log.events, events);
        // Recording changes nothing the report says.
        let plain = format!("{:?}", it().run().report);
        assert_eq!(format!("{:?}", recorded.report), plain);
        assert_eq!(format!("{:?}", run.report), plain);
    }

    #[test]
    fn recovery_routes_through_the_ladder() {
        let p = profile(256);
        let n = p.blocks.len();
        let plan = CheckpointPlan::none(n);
        let min_peak = mimose_planner::memory_model::peak_bytes(&p, &CheckpointPlan::all(n));
        let max_peak = mimose_planner::memory_model::peak_bytes(&p, &plan);
        let capacity = (min_peak + (max_peak - min_peak) / 4).next_multiple_of(512);
        let cfg = RecoveryConfig::default();
        let run = BlockIteration::plan(&p, &plan)
            .capacity(capacity)
            .recovery(&cfg)
            .run();
        assert!(run.report.ok(), "ladder must rescue");
        assert!(!run.report.recovery.is_empty());
    }
}
