//! [`Session`]: the builder-style front door to the executor.
//!
//! A session binds a model, a dataset stream, a memory policy and a device
//! into one owned handle that runs iterations on demand and accumulates a
//! [`RunSummary`] as it goes:
//!
//! ```
//! use mimose_exec::Session;
//! use mimose_data::presets;
//! use mimose_models::builders::{bert_base, BertHead};
//! use mimose_planner::BaselinePolicy;
//!
//! let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
//! let dataset = presets::glue_qqp();
//! let mut session = Session::builder(&model, &dataset)
//!     .policy(BaselinePolicy::new())
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let reports = session.run(5).unwrap();
//! assert_eq!(reports.len(), 5);
//! assert_eq!(session.summary().iters, 5);
//! ```
//!
//! A session owns its batch stream and either owns its policy or borrows
//! it (`.policy(&mut policy)` leaves the policy's own state, e.g.
//! `MimosePolicy::stats()`, readable after the run). It can be parked,
//! resumed one iteration at a time ([`Session::step`]) and moved across
//! threads — exactly what the cluster scheduler needs to interleave many
//! jobs over a device pool.
//!
//! Each step profiles the batch (or takes the profile a
//! [`Session::predicted_peak_bytes`] call kept for it), consults the
//! policy, validates the plan's shape, and hands the iteration to one
//! engine: a [`BlockIteration`] run through the recovery driver, or a
//! [`DtrIteration`] for the reactive tensor engine. Recording
//! (`.record(true)`) tees the same run into an [`EventLog`] and changes
//! nothing else.

use crate::block_engine::BlockMode;
use crate::recovery::{drive, RecoveryConfig};
use crate::{BlockIteration, DtrIteration, ExecError};
use mimose_chaos::FaultInjector;
use mimose_data::{BatchStream, Dataset};
use mimose_models::{ModelInput, ModelProfile, OptimizedGraph};
use mimose_planner::{Directive, IterationObservation, MemoryPolicy};
use mimose_runtime::{EventLog, ExecEvent, IterationReport, RunSummary};
use mimose_simgpu::{ArenaStats, DeviceProfile};

/// One iteration's recorded execution: the [`ExecEvent`] stream, the arena
/// capacity it ran in (needed to fold it — capacity varies per iteration
/// under chaos shrink) and the final arena statistics. Produced by
/// [`Session`]s built with `.record(true)`.
#[derive(Debug)]
pub struct IterationRecord {
    /// Iteration number.
    pub iter: usize,
    /// Arena capacity the iteration executed in.
    pub capacity: usize,
    /// The recorded stream (final attempt only when the ladder restarted).
    pub events: Vec<ExecEvent>,
    /// Final arena statistics.
    pub arena: ArenaStats,
}

/// A parked session, detached from its device: everything needed to
/// resume the job at the last completed iteration boundary on *another*
/// device — the warmed policy (plan cache, certificates and adaptive
/// estimator state ride inside the policy box), the batch-stream seed and
/// cursor, the accumulated summary and any recorded event streams.
///
/// Because a [`BatchStream`](mimose_data::BatchStream) is a pure function
/// of its seed, the checkpoint stores only the *cursor*: resuming fast-
/// forwards a fresh stream by `cursor` draws and lands on byte-identical
/// batches, so a migrated run replays exactly as the uninterrupted run
/// would have.
pub struct SessionCheckpoint<'a> {
    policy: Box<dyn MemoryPolicy + 'a>,
    seed: u64,
    cursor: usize,
    summary: RunSummary,
    records: Vec<IterationRecord>,
}

impl<'a> SessionCheckpoint<'a> {
    /// The iteration the resumed session will run next.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The batch-stream seed the checkpointed run used.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The run folded up to the checkpoint boundary.
    #[must_use]
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// Virtual nanoseconds of execution accumulated at the checkpoint
    /// boundary. Checkpoints always land on iteration boundaries, so this
    /// is the exact virtual time an event-driven scheduler should stamp on
    /// the displacement event that parked the session.
    #[must_use]
    pub fn boundary_ns(&self) -> u64 {
        self.summary.total_ns
    }

    /// The parked policy (for inspecting budget or plan-tier state before
    /// resuming).
    #[must_use]
    pub fn policy(&self) -> &dyn MemoryPolicy {
        &*self.policy
    }

    /// Dissolve the checkpoint without resuming, yielding the parked
    /// evidence — the folded summary, recorded event streams, and policy
    /// box — for a job that will never run again (e.g. one a degraded
    /// fleet sheds after displacement).
    #[must_use]
    pub fn into_evidence(self) -> (RunSummary, Vec<IterationRecord>, Box<dyn MemoryPolicy + 'a>) {
        (self.summary, self.records, self.policy)
    }
}

/// Configures and validates a [`Session`]. Created by [`Session::builder`].
pub struct SessionBuilder<'a> {
    model: &'a OptimizedGraph,
    dataset: &'a Dataset,
    policy: Option<Box<dyn MemoryPolicy + 'a>>,
    device: DeviceProfile,
    seed: u64,
    recovery: Option<RecoveryConfig>,
    injector: Option<FaultInjector>,
    record: bool,
    resume: Option<(usize, RunSummary, Vec<IterationRecord>)>,
}

impl<'a> SessionBuilder<'a> {
    /// The memory policy to drive (required). Pass `&mut policy` to keep
    /// the policy and read its state after the session is dropped.
    pub fn policy(mut self, policy: impl MemoryPolicy + 'a) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Boxed form of [`Self::policy`], for policies chosen at runtime
    /// (e.g. via [`mimose_planner::PolicyKind::build`]).
    #[must_use]
    pub fn policy_boxed(mut self, policy: Box<dyn MemoryPolicy + 'a>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Device cost profile (default: V100).
    #[must_use]
    pub fn device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
        self
    }

    /// Batch-stream seed (default 0; fixed across policies for fairness).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable the OOM-recovery ladder.
    #[must_use]
    pub fn recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Inject deterministic faults.
    #[must_use]
    pub fn chaos(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Record every iteration's [`ExecEvent`](mimose_runtime::ExecEvent)
    /// stream (retrieve with [`Session::take_records`]). Recording changes
    /// nothing about execution.
    #[must_use]
    pub fn record(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Resume from a [`SessionCheckpoint`] instead of starting fresh: the
    /// checkpoint supplies the policy, seed, stream cursor, accumulated
    /// summary and recorded streams (overriding any `policy`/`seed` set on
    /// the builder). Device, recovery, chaos and recording stay builder
    /// knobs — a migrated job resumes on a *different* device with that
    /// device's fault stream.
    #[must_use]
    pub fn resume(mut self, checkpoint: SessionCheckpoint<'a>) -> Self {
        self.policy = Some(checkpoint.policy);
        self.seed = checkpoint.seed;
        self.resume = Some((checkpoint.cursor, checkpoint.summary, checkpoint.records));
        self
    }

    /// Validate and build the session.
    ///
    /// Fails with [`ExecError::MissingPolicy`] when no policy was supplied
    /// and with [`ExecError::Profile`] when the model rejects the dataset's
    /// worst-case input (in which case every batch would fail at run time).
    pub fn build(self) -> Result<Session<'a>, ExecError> {
        let policy = self.policy.ok_or(ExecError::MissingPolicy)?;
        self.model
            .profile(&self.dataset.worst_case())
            .map_err(|source| ExecError::Profile { iter: 0, source })?;
        let mut stream = self.dataset.stream(self.seed);
        let (cursor, summary, records) = self.resume.unwrap_or_default();
        // Fast-forward to the checkpoint boundary: the stream is a pure
        // function of the seed, so drawing `cursor` batches reproduces the
        // exact position (and therefore the exact future batches) the
        // checkpointed session saw.
        for _ in 0..cursor {
            stream.next_batch();
        }
        Ok(Session {
            model: self.model,
            dataset: self.dataset,
            policy,
            device: self.device,
            seed: self.seed,
            recovery: self.recovery,
            injector: self.injector,
            record: self.record,
            stream,
            pending: None,
            pending_profile: None,
            next_iter: cursor,
            epoch_len: self.dataset.iters_per_epoch(),
            summary,
            records,
        })
    }
}

/// An owned training session: model + dataset stream + policy + device,
/// runnable one iteration at a time. See the module docs for the full
/// lifecycle.
pub struct Session<'a> {
    model: &'a OptimizedGraph,
    dataset: &'a Dataset,
    policy: Box<dyn MemoryPolicy + 'a>,
    device: DeviceProfile,
    seed: u64,
    recovery: Option<RecoveryConfig>,
    injector: Option<FaultInjector>,
    record: bool,
    stream: BatchStream<'a>,
    /// Next batch, drawn ahead of execution by [`Self::peek_input`].
    pending: Option<ModelInput>,
    /// Profile of the `pending` batch, kept by
    /// [`Self::predicted_peak_bytes`] so the [`Self::step`] that runs the
    /// batch does not walk the graph again. Only ever set while `pending`
    /// is, and taken with it.
    pending_profile: Option<ModelProfile>,
    next_iter: usize,
    epoch_len: usize,
    summary: RunSummary,
    records: Vec<IterationRecord>,
}

impl<'a> Session<'a> {
    /// Start configuring a session over `model` and `dataset`.
    #[must_use]
    pub fn builder(model: &'a OptimizedGraph, dataset: &'a Dataset) -> SessionBuilder<'a> {
        SessionBuilder {
            model,
            dataset,
            policy: None,
            device: DeviceProfile::v100(),
            seed: 0,
            recovery: None,
            injector: None,
            record: false,
            resume: None,
        }
    }

    /// The iteration the next [`Self::step`] will run.
    #[must_use]
    pub fn next_iter(&self) -> usize {
        self.next_iter
    }

    /// Iterations one epoch of the dataset holds.
    #[must_use]
    pub fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    /// The session's batch-stream seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The dataset this session streams from.
    #[must_use]
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The device this session simulates.
    #[must_use]
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The policy being driven.
    #[must_use]
    pub fn policy(&self) -> &dyn MemoryPolicy {
        &*self.policy
    }

    /// Everything run so far, folded into one summary.
    #[must_use]
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// Virtual nanoseconds of execution accumulated so far — the
    /// session's position on a virtual event clock. After `step()` returns,
    /// the session sits at an iteration boundary and `elapsed_ns()` is the
    /// boundary's timestamp relative to the session's own start.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.summary.total_ns
    }

    /// Drain the recorded per-iteration event streams (empty unless built
    /// with `.record(true)`).
    pub fn take_records(&mut self) -> Vec<IterationRecord> {
        std::mem::take(&mut self.records)
    }

    /// Park the session at the last completed iteration boundary,
    /// detaching it from its device: consumes the session and returns the
    /// [`SessionCheckpoint`] a [`SessionBuilder::resume`] call can restart
    /// from (on any device). Any peeked-but-unrun batch is discarded; the
    /// resumed stream re-draws it byte-identically from the cursor.
    #[must_use]
    pub fn checkpoint(self) -> SessionCheckpoint<'a> {
        SessionCheckpoint {
            policy: self.policy,
            seed: self.seed,
            cursor: self.next_iter,
            summary: self.summary,
            records: self.records,
        }
    }

    /// The next iteration's input, drawn from the stream without running
    /// it (the draw is remembered, so peeking does not perturb the run).
    pub fn peek_input(&mut self) -> ModelInput {
        if let Some(input) = self.pending {
            return input;
        }
        let input = self.stream.next_batch();
        self.pending = Some(input);
        input
    }

    /// Profile the next iteration's input without running it.
    pub fn peek_profile(&mut self) -> Result<ModelProfile, ExecError> {
        let iter = self.next_iter;
        let input = self.peek_input();
        self.model
            .profile(&input)
            .map_err(|source| ExecError::Profile { iter, source })
    }

    /// The policy's advisory peak-memory prediction for the next
    /// iteration — the admission-control signal the cluster scheduler
    /// consults before dispatch. Falls back to the input's no-checkpoint
    /// peak when the policy offers no prediction. The batch's profile is
    /// kept for the [`Self::step`] that runs it, so predicting and then
    /// stepping walks the graph once.
    pub fn predicted_peak_bytes(&mut self) -> Result<usize, ExecError> {
        let profile = match self.pending_profile.take() {
            Some(profile) => profile,
            None => self.peek_profile()?,
        };
        let peak = self
            .policy
            .predicted_peak_bytes(&profile)
            .unwrap_or_else(|| profile.peak_no_checkpoint());
        self.pending_profile = Some(profile);
        Ok(peak)
    }

    /// Run one iteration off the stream.
    pub fn step(&mut self) -> Result<IterationReport, ExecError> {
        if self.next_iter >= self.epoch_len {
            return Err(ExecError::DataExhausted {
                iter: self.next_iter,
                len: self.epoch_len,
            });
        }
        let (input, profile) = match self.pending.take() {
            Some(i) => (i, self.pending_profile.take()),
            None => (self.stream.next_batch(), None),
        };
        let (report, record) = self.execute(self.next_iter, &input, profile, self.record)?;
        if let Some(rec) = record {
            self.records.push(rec);
        }
        self.summary.absorb(&report);
        self.next_iter += 1;
        Ok(report)
    }

    /// Run one iteration numbered `iter` for an explicit input, without
    /// drawing from the stream (the memory-curve experiments sweep input
    /// sizes deterministically this way). The policy sees the iteration;
    /// the session's cursor, summary and recorded streams do not.
    pub fn run_input(
        &mut self,
        iter: usize,
        input: &ModelInput,
    ) -> Result<IterationReport, ExecError> {
        self.execute(iter, input, None, false)
            .map(|(report, _)| report)
    }

    /// Run one full iteration — profile (unless `profile` already holds
    /// `input`'s), policy consult, plan-shape validation, engine run,
    /// policy feedback — returning the report and, when `record` is set,
    /// the iteration's event stream.
    fn execute(
        &mut self,
        iter: usize,
        input: &ModelInput,
        profile: Option<ModelProfile>,
        record: bool,
    ) -> Result<(IterationReport, Option<IterationRecord>), ExecError> {
        let profile = match profile {
            Some(profile) => profile,
            None => self
                .model
                .profile(input)
                .map_err(|source| ExecError::Profile { iter, source })?,
        };
        let directive = self.policy.begin_iteration(iter, &profile);
        let mode = match &directive {
            Directive::RunPlan(p) => Some(BlockMode::Plan(p)),
            Directive::RunFine(fine) => Some(BlockMode::Fine(fine)),
            Directive::RunHybrid(h) => Some(BlockMode::Hybrid(h)),
            Directive::Shuttle(_) => Some(BlockMode::Shuttle),
            Directive::DtrDynamic => None,
        };
        // Reject malformed plans up front with a typed error rather than
        // letting the engine index out of bounds mid-iteration.
        let expected = profile.blocks.len();
        let shape = match &mode {
            Some(BlockMode::Plan(p)) => Some(("checkpoint", p.len())),
            Some(BlockMode::Fine(fine)) => Some(("fine", fine.len())),
            Some(BlockMode::Hybrid(h)) => Some(("hybrid", h.len())),
            Some(BlockMode::Shuttle) | None => None,
        };
        if let Some((kind, got)) = shape.filter(|&(_, got)| got != expected) {
            return Err(ExecError::PlanShape {
                iter,
                kind,
                expected,
                got,
            });
        }
        let planning_ns = self.policy.last_plan_overhead_ns();
        let budget = self.policy.budget_bytes();
        // Per-iteration fault vector (identity when no injector is set).
        let faults = self.injector.as_ref().map(|inj| inj.iteration_faults(iter));
        // The budget is a *target*, not a hard allocator cap: real PyTorch
        // grabs more device memory when a plan under-provisions (that is how
        // the paper's static planners "exceed the memory budget" on OD
        // tasks, §VI-B). Plans therefore execute inside the whole device and
        // violations surface as peak > budget in the reports; hard OOM
        // happens only at physical-device exhaustion. The unconstrained
        // baseline (budget usize::MAX) is the Fig 10 normalisation
        // reference and gets an arena large enough never to fail.
        let nominal = if budget == usize::MAX {
            4 * self.device.total_mem_bytes
        } else {
            self.device.total_mem_bytes
        };
        // Chaos capacity shrink is applied here — once — so the engines and
        // the recovery driver never double-apply it.
        let capacity = match &faults {
            Some(f) if f.capacity_factor != 1.0 => (nominal as f64 * f.capacity_factor) as usize,
            _ => nominal,
        };
        let mut log = record.then(EventLog::new);
        // The arena size each engine actually executes in — what a fold of
        // the recorded stream must use.
        let (report, observations, arena_capacity, stats) = match mode {
            Some(mode) => {
                let it = BlockIteration {
                    profile: &profile,
                    mode,
                    capacity,
                    device: self.device.clone(),
                    iter,
                    planning_ns,
                    recovery: self.recovery.as_ref(),
                    faults: faults.as_ref(),
                };
                let (run, stats) = drive(&it, log.as_mut());
                (run.report, run.observations, capacity, stats)
            }
            None => {
                // The DTR engine's reactive eviction is itself an OOM
                // handler; the ladder and the chaos hooks do not apply, and
                // it runs in the whole device.
                let it = DtrIteration::new(&profile, budget)
                    .device(&self.device)
                    .capacity(self.device.total_mem_bytes)
                    .iter(iter);
                let (report, stats) = crate::dtr_engine::run(&it, log.as_mut());
                (report, None, it.device_capacity, stats)
            }
        };
        self.policy.end_iteration(&IterationObservation {
            iter,
            input: *input,
            input_size: profile.input_size,
            blocks: observations,
            peak_bytes: report.peak_bytes,
            oom: !report.ok(),
            recovery: report.recovery.clone(),
        });
        let record = log.map(|log| IterationRecord {
            iter,
            capacity: arena_capacity,
            events: log.events,
            arena: stats,
        });
        Ok((report, record))
    }

    /// Run `iters` iterations; returns their per-iteration reports.
    pub fn run(&mut self, iters: usize) -> Result<Vec<IterationReport>, ExecError> {
        (0..iters).map(|_| self.step()).collect()
    }

    /// Run `iters` iterations and fold just those into a summary (the
    /// whole-session summary stays available via [`Self::summary`]).
    pub fn run_summary(&mut self, iters: usize) -> Result<RunSummary, ExecError> {
        let mut s = RunSummary::default();
        for r in self.run(iters)? {
            s.absorb(&r);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_core::{MimoseConfig, MimosePolicy};
    use mimose_data::presets;
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_planner::{BaselinePolicy, DtrPolicy, SublinearPolicy};

    fn assert_send<T: Send>(_: &T) {}

    #[test]
    fn borrowed_policy_matches_owned_byte_for_byte() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let budget = 5usize << 30;
        let worst = model.profile(&ds.worst_case()).unwrap();

        let mut pol = SublinearPolicy::plan_offline(&worst, budget);
        let mut borrowed = Session::builder(&model, &ds)
            .policy(&mut pol)
            .seed(7)
            .build()
            .unwrap();
        assert_send(&borrowed);
        let borrowed_reports = borrowed.run(40).unwrap();

        let mut session = Session::builder(&model, &ds)
            .policy(SublinearPolicy::plan_offline(&worst, budget))
            .seed(7)
            .build()
            .unwrap();
        assert_send(&session);
        let session_reports = session.run(40).unwrap();
        assert_eq!(
            format!("{borrowed_reports:?}"),
            format!("{session_reports:?}"),
            "a borrowed policy must drive the session exactly like an owned one"
        );
        assert_eq!(session.summary().iters, 40);
        assert_eq!(session.next_iter(), 40);
    }

    #[test]
    fn borrowed_mimose_stays_readable_after_the_run() {
        // Mimose measures its plan time with a wall clock, so time fields
        // are not reproducible across instances — compare everything else.
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let budget = 5usize << 30;

        let mut pol = MimosePolicy::new(MimoseConfig::with_budget(budget));
        let borrowed_reports = Session::builder(&model, &ds)
            .policy(&mut pol)
            .seed(7)
            .build()
            .unwrap()
            .run(40)
            .unwrap();
        let shuttles = borrowed_reports.iter().filter(|r| r.shuttle).count();
        assert_eq!(pol.stats().shuttle_iters, shuttles);

        let mut session = Session::builder(&model, &ds)
            .policy(MimosePolicy::new(MimoseConfig::with_budget(budget)))
            .seed(7)
            .build()
            .unwrap();
        let session_reports = session.run(40).unwrap();
        for (a, b) in borrowed_reports.iter().zip(&session_reports) {
            assert_eq!(a.iter, b.iter);
            assert_eq!(a.input, b.input);
            assert_eq!(a.peak_bytes, b.peak_bytes);
            assert_eq!(a.shuttle, b.shuttle);
            assert_eq!(a.ok(), b.ok());
        }
    }

    #[test]
    fn baseline_runs_unconstrained() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let mut session = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .seed(7)
            .build()
            .unwrap();
        let s = session.run_summary(20).unwrap();
        assert_eq!(s.oom_iters, 0);
        assert!(s.total_ns > 0);
    }

    #[test]
    fn mimose_respects_budget_after_collection() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let budget = 5usize << 30;
        let mut session = Session::builder(&model, &ds)
            .policy(MimosePolicy::new(MimoseConfig::with_budget(budget)))
            .seed(7)
            .build()
            .unwrap();
        let reports = session.run(60).unwrap();
        assert!(reports.iter().all(|r| r.ok()), "an iteration OOMed");
        for r in &reports {
            assert!(
                r.peak_bytes <= budget,
                "iter {}: peak {} MiB over budget",
                r.iter,
                r.peak_bytes >> 20
            );
        }
        // Sheltered phase ended.
        let shuttles = reports.iter().filter(|r| r.shuttle).count();
        assert!((10..=30).contains(&shuttles), "shuttles = {shuttles}");
    }

    #[test]
    fn sublinear_and_mimose_same_budget_mimose_faster() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let budget = 4usize << 30;
        let worst = model
            .profile(&ds.worst_case())
            .expect("preset worst case must profile");
        let summary = |policy: Box<dyn MemoryPolicy>| {
            Session::builder(&model, &ds)
                .policy_boxed(policy)
                .seed(7)
                .build()
                .unwrap()
                .run_summary(80)
                .unwrap()
        };
        let s_sub = summary(Box::new(SublinearPolicy::plan_offline(&worst, budget)));
        let s_mim = summary(Box::new(MimosePolicy::new(MimoseConfig::with_budget(
            budget,
        ))));
        assert_eq!(s_sub.oom_iters, 0);
        assert_eq!(s_mim.oom_iters, 0);
        assert!(
            s_mim.total_ns < s_sub.total_ns,
            "mimose {} ms vs sublinear {} ms",
            s_mim.total_ns / 1_000_000,
            s_sub.total_ns / 1_000_000
        );
    }

    #[test]
    fn dtr_runs_with_overhead() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let mut session = Session::builder(&model, &ds)
            .policy(DtrPolicy::new(5 << 30))
            .seed(7)
            .build()
            .unwrap();
        let s = session.run_summary(20).unwrap();
        assert_eq!(s.oom_iters, 0);
        assert!(s.time.bookkeeping_ns > 0);
    }

    #[test]
    fn run_input_reports_profile_error() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let mut session = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .seed(7)
            .build()
            .unwrap();
        // An image fed to a token model fails shape inference at the
        // embedding op.
        let bad = ModelInput::image(8, 224, 224);
        let err = session.run_input(0, &bad).unwrap_err();
        match &err {
            ExecError::Profile { iter, .. } => assert_eq!(*iter, 0),
            other => panic!("wrong error: {other}"),
        }
        assert!(err.to_string().contains("iteration 0"));
    }

    #[test]
    fn mismatched_plan_shape_is_a_typed_error() {
        use mimose_planner::{CheckpointPlan, PlannerMeta};
        /// A policy that always answers with a 3-block plan regardless of
        /// the profile it was shown.
        struct BadPolicy;
        impl MemoryPolicy for BadPolicy {
            fn meta(&self) -> PlannerMeta {
                BaselinePolicy::new().meta()
            }
            fn budget_bytes(&self) -> usize {
                usize::MAX
            }
            fn begin_iteration(&mut self, _iter: usize, _profile: &ModelProfile) -> Directive {
                Directive::RunPlan(CheckpointPlan::none(3))
            }
        }
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let mut session = Session::builder(&model, &ds)
            .policy(BadPolicy)
            .seed(7)
            .build()
            .unwrap();
        let err = session
            .run_input(5, &ModelInput::tokens(8, 64))
            .expect_err("a 3-block plan must be rejected");
        match &err {
            ExecError::PlanShape {
                iter, kind, got, ..
            } => {
                assert_eq!(*iter, 5);
                assert_eq!(*kind, "checkpoint");
                assert_eq!(*got, 3);
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(err.to_string().contains("covers 3 blocks"));
    }

    #[test]
    fn over_epoch_run_is_data_exhausted() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let mut ds = presets::glue_qqp();
        // Shrink the epoch to exactly 3 iterations.
        if let Dataset::Text(d) = &mut ds {
            d.epoch_samples = d.batch_size * 3;
        }
        assert_eq!(ds.iters_per_epoch(), 3);
        let mut pol = BaselinePolicy::new();
        let err = Session::builder(&model, &ds)
            .policy(&mut pol)
            .seed(7)
            .build()
            .unwrap()
            .run(5)
            .expect_err("5 iters over a 3-iter epoch");
        match &err {
            ExecError::DataExhausted { iter, len } => {
                assert_eq!(*iter, 3);
                assert_eq!(*len, 3);
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(err.to_string().contains("one epoch holds 3"));
        // Exactly one epoch is fine; one step past it is not.
        let mut whole = Session::builder(&model, &ds)
            .policy(&mut pol)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(whole.run(3).unwrap().len(), 3);
        match whole.step() {
            Err(ExecError::DataExhausted { iter: 3, len: 3 }) => {}
            other => panic!("expected DataExhausted, got {other:?}"),
        }
    }

    #[test]
    fn chaos_session_recovers_from_capacity_shrink() {
        use mimose_chaos::{FaultInjector, FaultSpec};
        use mimose_planner::memory_model::peak_bytes;
        use mimose_planner::CheckpointPlan;
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        // Shrink the device (from iteration 3 onward) to just above the
        // worst case's full-checkpoint floor: the baseline's no-checkpoint
        // plan stops fitting and must be rescued by the ladder.
        let worst = model.profile(&ds.worst_case()).unwrap();
        let n = worst.blocks.len();
        let floor = peak_bytes(&worst, &CheckpointPlan::all(n));
        // The unconstrained baseline runs in a 4x-device arena.
        let nominal = 4 * DeviceProfile::v100().total_mem_bytes;
        let factor = (floor as f64 * 1.15) / nominal as f64;
        let spec = FaultSpec {
            seed: 11,
            capacity_shrink: Some((3, factor)),
            ..FaultSpec::default()
        };
        let mut session = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .seed(7)
            .recovery(RecoveryConfig::default())
            .chaos(FaultInjector::new(spec))
            .build()
            .unwrap();
        let reports = session.run(8).unwrap();
        assert!(reports.iter().all(|r| r.ok()), "ladder must rescue");
        let recovered = reports.iter().filter(|r| r.recovered()).count();
        assert!(recovered > 0, "capacity shrink must trigger recovery");
        assert!(reports.iter().take(3).all(|r| r.recovery.is_empty()));
    }

    #[test]
    fn build_without_policy_fails_typed() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let built = Session::builder(&model, &ds).build();
        match built {
            Err(ExecError::MissingPolicy) => {}
            Err(other) => panic!("expected MissingPolicy, got {other:?}"),
            Ok(_) => panic!("build without a policy must fail"),
        }
    }

    #[test]
    fn peeking_does_not_perturb_the_stream() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let mut plain = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .seed(11)
            .build()
            .unwrap();
        let plain_reports = plain.run(10).unwrap();

        let mut peeky = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .seed(11)
            .build()
            .unwrap();
        let mut peeked = Vec::new();
        let mut peeky_reports = Vec::new();
        for _ in 0..10 {
            peeked.push(peeky.peek_input());
            let _ = peeky.predicted_peak_bytes().unwrap();
            peeky_reports.push(peeky.step().unwrap());
        }
        assert_eq!(
            format!("{plain_reports:?}"),
            format!("{peeky_reports:?}"),
            "peeking must not perturb execution"
        );
        // The inputs the peeks saw are the inputs the steps ran.
        for (r, input) in plain_reports.iter().zip(&peeked) {
            assert_eq!(r.input, *input);
        }

        // The profile a prediction keeps must not outlive its batch: park
        // and resume between every prediction and its step…
        let mut parked = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .seed(11)
            .build()
            .unwrap();
        let mut parked_reports = Vec::new();
        for _ in 0..10 {
            let _ = parked.predicted_peak_bytes().unwrap();
            let checkpoint = parked.checkpoint();
            parked = Session::builder(&model, &ds)
                .resume(checkpoint)
                .build()
                .unwrap();
            parked_reports.push(parked.step().unwrap());
        }
        assert_eq!(
            format!("{plain_reports:?}"),
            format!("{parked_reports:?}"),
            "a prediction before a checkpoint must not leak into the resumed step"
        );

        // …and run an unrelated input between them.
        let other = ModelInput::tokens(ds.batch_size(), 384);
        let other_report = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .build()
            .and_then(|mut s| s.run_input(0, &other))
            .unwrap();
        let mut interleaved = Session::builder(&model, &ds)
            .policy(BaselinePolicy::new())
            .seed(11)
            .build()
            .unwrap();
        let mut interleaved_reports = Vec::new();
        for _ in 0..10 {
            let _ = interleaved.predicted_peak_bytes().unwrap();
            let report = interleaved.run_input(0, &other).unwrap();
            assert_eq!(format!("{report:?}"), format!("{other_report:?}"));
            interleaved_reports.push(interleaved.step().unwrap());
        }
        assert_eq!(
            format!("{plain_reports:?}"),
            format!("{interleaved_reports:?}"),
            "run_input between a prediction and its step must not swap profiles"
        );
    }

    #[test]
    fn recording_changes_nothing_and_yields_streams() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let worst = model.profile(&ds.worst_case()).unwrap();
        let budget = 5usize << 30;

        let mut plain = Session::builder(&model, &ds)
            .policy(SublinearPolicy::plan_offline(&worst, budget))
            .seed(3)
            .build()
            .unwrap();
        let plain_reports = plain.run(6).unwrap();

        let mut recorded = Session::builder(&model, &ds)
            .policy(SublinearPolicy::plan_offline(&worst, budget))
            .seed(3)
            .record(true)
            .build()
            .unwrap();
        let recorded_reports = recorded.run(6).unwrap();
        assert_eq!(
            format!("{plain_reports:?}"),
            format!("{recorded_reports:?}")
        );
        let records = recorded.take_records();
        assert_eq!(records.len(), 6);
        assert!(records.iter().all(|r| !r.events.is_empty()));
        // Folding each stream reproduces the report's peak.
        for (rec, rep) in records.iter().zip(&recorded_reports) {
            let fold = mimose_runtime::fold_events(rec.capacity, &rec.events);
            assert_eq!(fold.peak_used, rep.peak_bytes, "iter {}", rec.iter);
        }
    }

    #[test]
    fn checkpoint_resume_replays_byte_identically() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let ds = presets::glue_qqp();
        let worst = model.profile(&ds.worst_case()).unwrap();
        let budget = 5usize << 30;
        let mk_policy = || SublinearPolicy::plan_offline(&worst, budget);

        let mut whole = Session::builder(&model, &ds)
            .policy(mk_policy())
            .seed(13)
            .record(true)
            .build()
            .unwrap();
        let whole_reports = whole.run(12).unwrap();

        // Run 5 iterations, peek (so a pending batch is in flight), then
        // park, resume and run the remaining 7.
        let mut first = Session::builder(&model, &ds)
            .policy(mk_policy())
            .seed(13)
            .record(true)
            .build()
            .unwrap();
        let mut resumed_reports = first.run(5).unwrap();
        let _ = first.peek_input();
        let cp = first.checkpoint();
        assert_eq!(cp.cursor(), 5);
        assert_eq!(cp.seed(), 13);
        assert_eq!(cp.summary().iters, 5);
        let mut second = Session::builder(&model, &ds)
            .record(true)
            .resume(cp)
            .build()
            .unwrap();
        assert_eq!(second.next_iter(), 5);
        resumed_reports.extend(second.run(7).unwrap());

        assert_eq!(
            format!("{whole_reports:?}"),
            format!("{resumed_reports:?}"),
            "checkpoint/resume must replay the uninterrupted run"
        );
        assert_eq!(
            format!("{:?}", whole.summary()),
            format!("{:?}", second.summary())
        );
        // Recorded streams accumulate across the boundary.
        assert_eq!(second.take_records().len(), 12);
    }
}
