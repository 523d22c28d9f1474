//! Planner interfaces: the per-iteration policy hook the executor drives,
//! plus the Table I feature metadata.

use crate::{CheckpointPlan, RecoveryEvent};
use mimose_models::{ModelInput, ModelProfile};

/// Plan granularity (Table I row "Granularity").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Whole checkpointable blocks (Mimose).
    Block,
    /// Individual layers (Sublinear, Checkmate).
    Layer,
    /// Individual tensors (DTR, MONeT).
    Tensor,
}

/// When the plan is generated (Table I row "Timing for generating plan").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTiming {
    /// Before training starts.
    Offline,
    /// During training.
    Runtime,
}

/// Table I feature row for one planner.
#[derive(Debug, Clone)]
pub struct PlannerMeta {
    /// Planner name.
    pub name: &'static str,
    /// Uses swapping.
    pub swapping: bool,
    /// Uses checkpointing.
    pub checkpointing: bool,
    /// Adapts to dynamic input sizes.
    pub dynamic_input: bool,
    /// Supports dynamic graphs.
    pub dynamic_graph: bool,
    /// Memory-fragmentation avoidance description.
    pub frag_avoidance: &'static str,
    /// Planning granularity.
    pub granularity: Granularity,
    /// Plan-generation timing.
    pub timing: PlanTiming,
    /// Search space description.
    pub search_space: &'static str,
    /// Search algorithm description.
    pub search_algorithm: &'static str,
    /// Typical solving time description.
    pub solving_time: &'static str,
}

/// What the executor should do this iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// Run the block engine under this plan.
    RunPlan(CheckpointPlan),
    /// Run the block engine under a tensor-granular plan (MONeT).
    RunFine(crate::memory_model::FinePlan),
    /// Run the block engine under a hybrid swap/recompute plan (Capuchin).
    RunHybrid(crate::capuchin::HybridPlan),
    /// Run Mimose's shuttling collection iteration: every block forwards
    /// twice and per-block memory/time are measured. The embedded plan (all
    /// blocks checkpointed) bounds memory like *Sublinear* does (§IV-B).
    Shuttle(CheckpointPlan),
    /// Run the tensor engine with DTR-style reactive eviction.
    DtrDynamic,
}

/// Per-block measurement produced by a shuttle iteration.
#[derive(Debug, Clone, Copy)]
pub struct BlockObservation {
    /// Global block index.
    pub index: usize,
    /// Internal activation bytes measured for this block.
    pub act_bytes: usize,
    /// Output bytes.
    pub out_bytes: usize,
    /// Input bytes.
    pub in_bytes: usize,
    /// Forward computation time (ns).
    pub fwd_ns: u64,
}

/// End-of-iteration feedback delivered to the policy.
#[derive(Debug, Clone)]
pub struct IterationObservation {
    /// Iteration number.
    pub iter: usize,
    /// The iteration's collated input.
    pub input: ModelInput,
    /// The paper's scalar input size.
    pub input_size: usize,
    /// Per-block measurements (only present after a shuttle iteration).
    pub blocks: Option<Vec<BlockObservation>>,
    /// Observed peak resident bytes.
    pub peak_bytes: usize,
    /// Whether the iteration hit an unrecoverable OOM.
    pub oom: bool,
    /// OOM-recovery actions the executor took this iteration (empty on the
    /// happy path). Policies can use `Restart`/`Fallback` events to plan
    /// more conservatively.
    pub recovery: Vec<RecoveryEvent>,
}

/// A memory policy drives checkpointing decisions across a training run.
///
/// The executor calls [`MemoryPolicy::begin_iteration`] at the start of each
/// forward pass (the red arrow in Fig 2 for Mimose) and
/// [`MemoryPolicy::end_iteration`] after the optimizer step.
///
/// Policies are `Send` so sessions can be dispatched across scheduler
/// threads; every implementor is plain data (plans, samples, counters).
pub trait MemoryPolicy: Send {
    /// Table I metadata.
    fn meta(&self) -> PlannerMeta;

    /// The memory budget this policy was configured with, in bytes.
    fn budget_bytes(&self) -> usize;

    /// Decide what to do for the upcoming iteration.
    ///
    /// `profile` is the ground-truth profile the simulator executes; honest
    /// runtime policies (Mimose) must consult only `profile.input` /
    /// `profile.input_size` and structural facts (block count), relying on
    /// their own measurements for memory — static planners bake in plans
    /// computed offline from a worst-case profile they were given at
    /// construction.
    fn begin_iteration(&mut self, iter: usize, profile: &ModelProfile) -> Directive;

    /// Receive end-of-iteration measurements.
    fn end_iteration(&mut self, _obs: &IterationObservation) {}

    /// Planning overhead (ns) the policy spent in `begin_iteration` this
    /// iteration, to be charged to the virtual clock by the executor.
    fn last_plan_overhead_ns(&self) -> u64 {
        0
    }

    /// The peak resident bytes this policy expects an iteration over
    /// `profile` to reach, before running it — the admission-control hook
    /// the cluster scheduler queries to decide whether a job's next
    /// iteration fits a device. `None` means the policy cannot predict
    /// (admission then falls back to the no-checkpoint peak).
    ///
    /// Predictions are *advisory*: they must never be required to match the
    /// executed peak exactly (admission accuracy is itself a reported
    /// metric), but static planners return their plan's analytic peak and
    /// budget-capped policies their budget, so honest predictions are cheap.
    fn predicted_peak_bytes(&self, _profile: &ModelProfile) -> Option<usize> {
        None
    }

    /// How this policy's iterations were served across the planning-tier
    /// ladder (certified hit → uncertified hit → repair → cold solve), for
    /// policies that plan at runtime. `None` (the default) means the policy
    /// has no tiered planner — static planners solve once at construction.
    /// The cluster scheduler snapshots this at job completion for the
    /// fleet report.
    fn plan_tier_stats(&self) -> Option<PlanTierStats> {
        None
    }
}

/// A borrowed policy is a policy: a session can drive `&mut policy` and
/// leave the caller's value readable after the run.
impl<P: MemoryPolicy + ?Sized> MemoryPolicy for &mut P {
    fn meta(&self) -> PlannerMeta {
        (**self).meta()
    }

    fn budget_bytes(&self) -> usize {
        (**self).budget_bytes()
    }

    fn begin_iteration(&mut self, iter: usize, profile: &ModelProfile) -> Directive {
        (**self).begin_iteration(iter, profile)
    }

    fn end_iteration(&mut self, obs: &IterationObservation) {
        (**self).end_iteration(obs);
    }

    fn last_plan_overhead_ns(&self) -> u64 {
        (**self).last_plan_overhead_ns()
    }

    fn predicted_peak_bytes(&self, profile: &ModelProfile) -> Option<usize> {
        (**self).predicted_peak_bytes(profile)
    }

    fn plan_tier_stats(&self) -> Option<PlanTierStats> {
        (**self).plan_tier_stats()
    }
}

/// Snapshot of a runtime planner's tier ladder counters — how many
/// iterations each rung served. The rungs are disjoint: an iteration is
/// counted in exactly one of the four.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanTierStats {
    /// Bucket hits served off a safety certificate (O(1), zero solves).
    pub certified_hits: u64,
    /// Bucket hits served from uncertified entries (paid a revalidation).
    pub cache_hits: u64,
    /// Bucket misses served by incremental repair of a neighboring
    /// bucket's plan.
    pub repaired_plans: u64,
    /// Bucket misses that required a cold scheduler solve.
    pub cold_solves: u64,
}

impl PlanTierStats {
    /// Total planned (responsive) iterations across all four rungs.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.certified_hits + self.cache_hits + self.repaired_plans + self.cold_solves
    }
}

/// Helper: the collated input of a profile (convenience for policies).
#[must_use]
pub fn input_of(profile: &ModelProfile) -> ModelInput {
    profile.input
}
