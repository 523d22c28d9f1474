//! Job specifications: what a cluster runs. A [`JobSpec`] holds a shared
//! handle to its model (jobs training one model share one graph, and
//! cloning a job does not copy it), owns its dataset (sessions borrow
//! both for the job's lifetime on a device) and names its policy as data
//! ([`JobPolicy`]), so a whole workload is a plain value — cloneable,
//! comparable, replayable.

use mimose_core::{MimoseConfig, MimosePolicy};
use mimose_data::Dataset;
use mimose_exec::RecoveryConfig;
use mimose_models::{ModelProfile, OptimizedGraph};
use mimose_planner::{Directive, IterationObservation, MemoryPolicy, PlannerMeta, PolicyKind};
use mimose_simgpu::DeviceProfile;

/// Which memory policy a job trains under, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobPolicy {
    /// One of the six planner-crate policies under a byte budget
    /// (built via [`PolicyKind::build_on`]).
    Planner(PolicyKind, usize),
    /// Mimose (input-aware runtime planning) under a byte budget. Plan
    /// overhead is charged at a fixed modeled cost per generated plan /
    /// cache hit, so cluster runs are reproducible byte-for-byte (the
    /// wall-clock measurement the single-job harness reports is
    /// nondeterministic by nature).
    Mimose {
        /// Memory budget in bytes.
        budget: usize,
    },
}

impl JobPolicy {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobPolicy::Planner(kind, _) => kind.name(),
            JobPolicy::Mimose { .. } => "Mimose",
        }
    }

    /// The configured budget (`usize::MAX` for the unconstrained baseline).
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        match self {
            JobPolicy::Planner(PolicyKind::Baseline, _) => usize::MAX,
            JobPolicy::Planner(_, budget) => *budget,
            JobPolicy::Mimose { budget } => *budget,
        }
    }

    /// Instantiate the policy for a job whose static planners solve
    /// against `worst` on `device`.
    #[must_use]
    pub fn build(&self, worst: &ModelProfile, device: &DeviceProfile) -> Box<dyn MemoryPolicy> {
        match self {
            JobPolicy::Planner(kind, budget) => kind.build_on(worst, *budget, device),
            JobPolicy::Mimose { budget } => Box::new(DeterministicMimose::new(MimosePolicy::new(
                MimoseConfig::with_budget(*budget),
            ))),
        }
    }
}

/// Modeled plan-generation cost charged per cold-solving responsive
/// iteration (Table III puts Mimose's estimator+scheduler pass in the
/// sub-millisecond range).
pub const MIMOSE_PLAN_COST_NS: u64 = 120_000;
/// Modeled cost of serving a cached plan.
pub const MIMOSE_CACHE_HIT_COST_NS: u64 = 2_000;
/// Modeled cost of repairing a neighboring bucket's plan on a bucket miss
/// — an order of magnitude under a cold solve (a bounded number of
/// `O(log L)` residency flips vs a full scheduler pass), well above a hit.
pub const MIMOSE_REPAIR_COST_NS: u64 = 12_000;

/// [`MimosePolicy`] with its wall-clock plan-overhead measurement replaced
/// by a fixed modeled cost — the only nondeterministic channel in the
/// executor, removed so fleet runs replay byte-identically.
pub struct DeterministicMimose {
    inner: MimosePolicy,
    last_ns: u64,
}

impl DeterministicMimose {
    /// Wrap a policy.
    #[must_use]
    pub fn new(inner: MimosePolicy) -> Self {
        DeterministicMimose { inner, last_ns: 0 }
    }

    /// The wrapped policy.
    #[must_use]
    pub fn inner(&self) -> &MimosePolicy {
        &self.inner
    }
}

impl MemoryPolicy for DeterministicMimose {
    fn meta(&self) -> PlannerMeta {
        self.inner.meta()
    }

    fn budget_bytes(&self) -> usize {
        self.inner.budget_bytes()
    }

    fn begin_iteration(&mut self, iter: usize, profile: &ModelProfile) -> Directive {
        let plans_before = self.inner.stats().plans_generated;
        let repairs_before = self.inner.stats().repaired_plans;
        let hits_before = self.inner.stats().cache_hits + self.inner.stats().certified_hits;
        let directive = self.inner.begin_iteration(iter, profile);
        // Classify which ladder rung the inner policy just took by its own
        // counters and charge the modeled cost instead of the measured one.
        let st = self.inner.stats();
        self.last_ns = if st.plans_generated > plans_before {
            MIMOSE_PLAN_COST_NS
        } else if st.repaired_plans > repairs_before {
            MIMOSE_REPAIR_COST_NS
        } else if st.cache_hits + st.certified_hits > hits_before {
            MIMOSE_CACHE_HIT_COST_NS
        } else {
            0 // shuttle iterations plan nothing
        };
        directive
    }

    fn end_iteration(&mut self, obs: &IterationObservation) {
        self.inner.end_iteration(obs);
    }

    fn last_plan_overhead_ns(&self) -> u64 {
        self.last_ns
    }

    fn predicted_peak_bytes(&self, profile: &ModelProfile) -> Option<usize> {
        self.inner.predicted_peak_bytes(profile)
    }

    fn plan_tier_stats(&self) -> Option<mimose_planner::PlanTierStats> {
        self.inner.plan_tier_stats()
    }
}

/// One training job submitted to the cluster.
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable job name (unique within a workload).
    pub name: String,
    /// The model to train (post optimization-pipeline; carries its raw
    /// graph and pass reports for admission evidence). Shared: clones of
    /// one [`OptimizedGraph`] are one graph, which the submission pass
    /// profiles once per distinct input.
    pub model: OptimizedGraph,
    /// The dataset to stream.
    pub dataset: Dataset,
    /// The memory policy to train under.
    pub policy: JobPolicy,
    /// Iterations to run.
    pub iters: usize,
    /// Batch-stream seed.
    pub seed: u64,
    /// OOM-recovery ladder; `None` runs report-and-die. The admission
    /// controller arms a default ladder when it admits a job by demotion.
    pub recovery: Option<RecoveryConfig>,
    /// Fleet priority: when device loss shrinks the pool below the
    /// workload, the scheduler sheds *lower*-priority jobs first and
    /// offers freed capacity to *higher*-priority displaced jobs first.
    /// Ties break by submission order. Default 0.
    pub priority: u32,
}

impl JobSpec {
    /// A job with the default ladder disabled.
    pub fn new(
        name: impl Into<String>,
        model: OptimizedGraph,
        dataset: Dataset,
        policy: JobPolicy,
        iters: usize,
        seed: u64,
    ) -> Self {
        JobSpec {
            name: name.into(),
            model,
            dataset,
            policy,
            iters,
            seed,
            recovery: None,
            priority: 0,
        }
    }

    /// Enable the OOM-recovery ladder for this job.
    #[must_use]
    pub fn with_recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Set the fleet priority (see the field docs; higher sheds later).
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// The worst-case profile static planners solve against.
    pub fn worst_profile(&self) -> Result<ModelProfile, mimose_models::ModelError> {
        self.model.profile(&self.dataset.worst_case())
    }

    /// Deterministic estimate of one iteration's execution time on `dev`
    /// (forward + backward FLOPs through the device cost model) — the
    /// ranking key for the shortest-predicted-iteration dispatch policy.
    #[must_use]
    pub fn predicted_iter_ns(&self, worst: &ModelProfile, dev: &DeviceProfile) -> u64 {
        let flops = worst.total_fwd_flops() + worst.total_bwd_flops();
        let bytes = worst.blocks.iter().map(|b| b.fwd_bytes_moved).sum();
        dev.exec_ns(flops, bytes) as u64
    }
}
