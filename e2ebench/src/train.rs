//! The single-job workloads, `train-epoch` and `train-chaos`: one
//! [`Session`] per Table-II task under [`DeterministicMimose`], closed loop,
//! one job at a time.

use crate::bench::{self, fast_quartile, Opts};
use crate::metrics::{pct, Outcome, SimTotals};
use crate::spans::{elapsed_ns, SpanStore, Spans, TimedPolicy, TIERS};
use crate::stats::percentile;
use mimose_audit::{lint_recovery_trace, Severity};
use mimose_chaos::{FaultInjector, FaultSpec};
use mimose_cluster::DeterministicMimose;
use mimose_core::{MimoseConfig, MimosePolicy};
use mimose_exec::{RecoveryConfig, Session};
use mimose_exp::experiments::chaos::{clean_reference, scenario_spec, ChaosOptions, Scenario};
use mimose_exp::experiments::fig10::budgets_for;
use mimose_exp::tasks::Task;
use mimose_planner::RecoveryEvent;
use std::hint::black_box;
use std::time::Instant;

/// `train-epoch` runs the first `min(epoch, EPOCH_ITERS)` iterations of
/// each of the six tasks.
const EPOCH_ITERS: usize = 2000;
/// `train-chaos` runs this many iterations of each of its three tasks.
const CHAOS_ITERS: usize = 2000;
/// Iterations per task in smoke mode.
const SMOKE_ITERS: usize = 40;

/// One task of a train workload.
pub struct TrainTask {
    pub task: Task,
    pub budget: usize,
    pub iters: usize,
    /// `train-chaos` only: the fault plan and the estimator's
    /// `estimate_scale`, both from the chaos experiment's `Combined`
    /// scenario.
    pub chaos: Option<(FaultSpec, f64)>,
}

/// A train workload: its tasks and the batch-stream seed.
pub struct Train {
    pub tasks: Vec<TrainTask>,
    pub seed: u64,
}

/// The Fig. 10 budget the workload trains at: the second point of the
/// task's budget sweep, or the single 14 GiB point of the OD tasks.
fn budget(task: &Task) -> usize {
    let budgets = budgets_for(task);
    budgets
        .get(1)
        .or(budgets.first())
        .copied()
        .unwrap_or(usize::MAX)
}

impl Train {
    /// `train-epoch`: the six Table-II tasks.
    pub fn epoch(seed: u64, smoke: bool) -> Train {
        let tasks = Task::all()
            .into_iter()
            .map(|task| TrainTask {
                budget: budget(&task),
                iters: if smoke {
                    SMOKE_ITERS
                } else {
                    task.dataset.iters_per_epoch().min(EPOCH_ITERS)
                },
                task,
                chaos: None,
            })
            .collect();
        Train { tasks, seed }
    }

    /// `train-chaos`: TC-Bert, QA-Bert and TR-T5 under the `Combined`
    /// fault scenario. Sizing the faults needs a clean calibration run of
    /// each task, which is part of the set-up.
    pub fn chaos(seed: u64, smoke: bool) -> Train {
        let iters = if smoke { SMOKE_ITERS } else { CHAOS_ITERS };
        let tasks = [Task::tc_bert(), Task::qa_bert(), Task::tr_t5()]
            .into_iter()
            .map(|task| {
                let opt = ChaosOptions {
                    task: task.abbr.into(),
                    budget_bytes: budget(&task),
                    iters,
                    seed,
                };
                let clean = clean_reference(&task, &opt);
                let chaos = scenario_spec(Scenario::Combined, &task, &opt, &clean);
                TrainTask {
                    task,
                    budget: opt.budget_bytes,
                    iters,
                    chaos: Some(chaos),
                }
            })
            .collect();
        Train { tasks, seed }
    }

    fn policy(t: &TrainTask) -> DeterministicMimose {
        let mut cfg = MimoseConfig::with_budget(t.budget);
        if let Some((_, scale)) = &t.chaos {
            cfg.estimate_scale = *scale;
        }
        DeterministicMimose::new(MimosePolicy::new(cfg))
    }

    /// Run every task once. The loop is the same in every mode, so the
    /// simulated output is too; only what is timed differs.
    pub fn round(&self, mode: Mode<'_>) -> Result<Round, String> {
        let mut round = Round::default();
        let t_round = Instant::now();
        for t in &self.tasks {
            let t0 = Instant::now();
            let policy = Self::policy(t);
            let policy_ns = elapsed_ns(t0);
            let mut builder = Session::builder(&t.task.model, &t.task.dataset)
                .seed(self.seed)
                .record(matches!(mode, Mode::Recorded));
            if let Some((spec, _)) = &t.chaos {
                builder = builder
                    .recovery(RecoveryConfig::default())
                    .chaos(FaultInjector::new(spec.clone()));
            }
            builder = match mode {
                Mode::Traced(spans) => {
                    spans.record("planner.policy_build", policy_ns);
                    builder.policy(TimedPolicy::new(policy, spans.clone()))
                }
                _ => builder.policy(policy),
            };
            let t0 = Instant::now();
            let mut session = builder
                .build()
                .map_err(|e| format!("{}: {e}", t.task.abbr))?;
            if let Mode::Traced(spans) = mode {
                spans.record("exec.session_build", elapsed_ns(t0));
            }
            let first_step = round.step_ns.len();
            for _ in 0..t.iters {
                if let Mode::Traced(spans) = mode {
                    let input = spans.time("data.batch", || session.peek_input());
                    // The step profiles the same input internally; this
                    // duplicate call is how the models layer is timed.
                    spans
                        .time("models.profile", || black_box(t.task.model.profile(&input)))
                        .map_err(|e| format!("{}: {e}", t.task.abbr))?;
                }
                let t0 = Instant::now();
                let mut report = session
                    .step()
                    .map_err(|e| format!("{}: {e}", t.task.abbr))?;
                round.step_ns.push(elapsed_ns(t0));
                if let Mode::Recorded = mode {
                    round.events += session
                        .take_records()
                        .iter()
                        .map(|r| r.events.len())
                        .sum::<usize>();
                }
                round.sim.absorb(&report, t.budget);
                if !report.recovery.is_empty() {
                    round.chains.push(std::mem::take(&mut report.recovery));
                }
            }
            if let Mode::Traced(spans) = mode {
                for &ns in &round.step_ns[first_step..] {
                    spans.record("exec.step", ns);
                }
            }
        }
        round.wall_ns = elapsed_ns(t_round);
        Ok(round)
    }

    /// Iterations whose fault vector is not the identity, over every task.
    fn faulted_iters(&self) -> usize {
        self.tasks
            .iter()
            .filter_map(|t| t.chaos.as_ref().map(|(spec, _)| (t.iters, spec)))
            .map(|(iters, spec)| {
                let injector = FaultInjector::new(spec.clone());
                (0..iters)
                    .filter(|&i| !injector.iteration_faults(i).is_identity())
                    .count()
            })
            .sum()
    }

    /// Time `Task::worst_profile` over every task (the profiles the budgets
    /// were derived from during set-up), seconds.
    fn worst_profile_s(&self) -> f64 {
        let t0 = Instant::now();
        for t in &self.tasks {
            black_box(t.task.worst_profile());
        }
        t0.elapsed().as_secs_f64()
    }
}

/// What a round times besides its total.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// Only the round and each `Session::step`.
    Timed,
    /// Also every layer boundary, into the span store.
    Traced(&'a Spans),
    /// Sessions record their `ExecEvent` streams (counted, then dropped).
    Recorded,
}

/// One round's host timings and simulated totals.
#[derive(Default)]
pub struct Round {
    pub wall_ns: u64,
    /// Host latency of every `Session::step`.
    pub step_ns: Vec<u64>,
    /// Recorded rounds only: `ExecEvent`s recorded.
    pub events: usize,
    pub sim: SimTotals,
    /// Every non-empty recovery chain, for the recovery-trace lint.
    pub chains: Vec<Vec<RecoveryEvent>>,
}

/// What the timed-round loop keeps of each round.
#[derive(Clone, Copy)]
struct RoundStats {
    wall_ns: u64,
    iters: usize,
    fatal: usize,
    digest: u64,
    step_p50_ns: u64,
    step_p99_ns: u64,
}

/// Run a train workload: set-up, timed rounds, and with `--trace` one
/// traced and one recorded round.
pub fn run(opts: &Opts, chaos: bool) -> Result<Outcome, String> {
    let build = |smoke| {
        if chaos {
            Train::chaos(opts.seed, smoke)
        } else {
            Train::epoch(opts.seed, smoke)
        }
    };
    let setup = || {
        // Warm-up: one smoke-size round over the same tasks.
        build(true).round(Mode::Timed)?;
        Ok(build(opts.smoke))
    };
    // Only the first round is kept whole; the rest keep a few numbers, so
    // the peak memory does not grow with the number of rounds.
    let mut first: Option<Round> = None;
    let (train, setup_s, rounds) = bench::measure(opts, setup, |train: &Train| {
        let r = train.round(Mode::Timed)?;
        let stats = RoundStats {
            wall_ns: r.wall_ns,
            iters: r.sim.iters,
            fatal: r.sim.fatal,
            digest: r.sim.digest.finish(),
            step_p50_ns: percentile(&r.step_ns, 50.0),
            step_p99_ns: percentile(&r.step_ns, 99.0),
        };
        first.get_or_insert(r);
        Ok((stats, stats.wall_ns))
    })?;
    let Round { sim, chains, .. } = first.ok_or("no round ran")?;
    let mut out = Outcome::default();
    for (i, r) in rounds.iter().enumerate() {
        out.check(r.digest == sim.digest.finish(), || {
            format!("round {i}: simulated output differs from round 0")
        });
        out.attempted += r.iters;
        out.failed += r.fatal;
    }
    out.check(sim.fatal == 0, || {
        format!("{} iterations hit a fatal OOM", sim.fatal)
    });

    let t0 = Instant::now();
    let lint_errors = chains
        .iter()
        .map(|chain| {
            let cfg = RecoveryConfig::default();
            lint_recovery_trace(chain, cfg.max_restarts, cfg.max_inline_events)
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count()
        })
        .sum::<usize>();
    let lint_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.check(lint_errors == 0, || {
        format!("{lint_errors} recovery-trace lint errors")
    });

    let per_round = |f: fn(&RoundStats) -> f64, rate: bool| {
        fast_quartile(&rounds.iter().map(f).collect::<Vec<_>>(), rate)
    };
    let wall_ns = per_round(|r| r.wall_ns as f64, false);
    out.set("setup_s", setup_s);
    out.set(
        "host_iters_per_s",
        per_round(|r| r.iters as f64 / (r.wall_ns as f64 / 1e9), true),
    );
    out.set("sim_iters_per_s", sim.iters as f64 / (sim.total_ns() / 1e9));
    sim.report(&mut out);
    out.set("exec.failed_pct", pct(sim.fatal as f64, sim.iters as f64));
    out.set(
        "exec.step_ns_p50",
        per_round(|r| r.step_p50_ns as f64, false),
    );
    out.set(
        "exec.step_ns_p99",
        per_round(|r| r.step_p99_ns as f64, false),
    );
    out.set("chaos.faulted_iters", train.faulted_iters() as f64);
    out.set("audit.lint_recovery_ms", lint_ms);

    if opts.trace {
        let spans = Spans::default();
        let traced = train.round(Mode::Traced(&spans))?;
        out.check(traced.sim.digest.finish() == sim.digest.finish(), || {
            "the traced round's simulated output differs from the untraced rounds'".into()
        });
        let recorded = train.round(Mode::Recorded)?;
        out.check(recorded.sim.digest.finish() == sim.digest.finish(), || {
            "the recorded round's simulated output differs from the untraced rounds'".into()
        });
        let store = spans.snapshot();
        per_layer(&mut out, &store, traced.wall_ns, wall_ns);
        out.set(
            "runtime.events_per_iter",
            recorded.events as f64 / recorded.sim.iters.max(1) as f64,
        );
        out.set(
            "runtime.record_overhead_pct",
            pct(recorded.wall_ns as f64 - wall_ns, wall_ns),
        );
        out.set("models.worst_profile_s", train.worst_profile_s());
        // Fleet-only layers.
        out.zero(&[
            "cluster.",
            "audit.lint_cluster_ms",
            "exec.predict_s",
            "exec.replay_step_s",
        ]);
    }
    out.set("host_peak_rss_mib", bench::peak_rss_mib()?);
    Ok(out)
}

/// The top-level spans of a traced train round. They do not overlap, so
/// the round's wall time is their sum plus the loop's own cost.
pub const TOP_LEVEL: [&str; 5] = [
    "planner.policy_build",
    "exec.session_build",
    "data.batch",
    "models.profile",
    "exec.step",
];

/// Host time of the round not covered by a top-level span, ns. Negative
/// would mean spans overlap (an accounting bug).
pub fn unattributed_ns(store: &SpanStore, total_ns: u64) -> i128 {
    i128::from(total_ns)
        - TOP_LEVEL
            .iter()
            .map(|s| i128::from(store.total(s)))
            .sum::<i128>()
}

/// Per-iteration engine time: the step minus what the policy and the
/// model profile took inside it (the profile as timed by its duplicate).
fn engine_ns(store: &SpanStore) -> Vec<u64> {
    let step = store.get("exec.step");
    let plan = store.get("core.plan");
    let observe = store.get("core.observe");
    let profile = store.get("models.profile");
    (0..step.len())
        .map(|i| {
            let inside = [plan, observe, profile]
                .iter()
                .map(|v| v.get(i).copied().unwrap_or(0))
                .sum::<u64>();
            step[i].saturating_sub(inside)
        })
        .collect()
}

fn per_layer(out: &mut Outcome, store: &SpanStore, traced_ns: u64, untraced_ns: f64) {
    let step_total = store.total("exec.step") as f64;
    out.set("data.batch_ns_p50", store.p("data.batch", 50.0) as f64);
    out.set(
        "models.profile_ns_p50",
        store.p("models.profile", 50.0) as f64,
    );
    out.set(
        "models.profile_share_pct",
        pct(store.total("models.profile") as f64, step_total),
    );
    out.set("core.plan_ns_p50", store.p("core.plan", 50.0) as f64);
    out.set("core.plan_ns_p99", store.p("core.plan", 99.0) as f64);
    out.set(
        "core.plan_share_pct",
        pct(store.total("core.plan") as f64, step_total),
    );
    let counts = [
        "core.shuttle_iters",
        "core.certified_hits",
        "core.cache_hits",
        "core.repairs",
        "core.cold_solves",
    ];
    let p50s = [
        "core.shuttle_ns_p50",
        "core.certified_hit_ns_p50",
        "core.cache_hit_ns_p50",
        "core.repair_ns_p50",
        "core.cold_solve_ns_p50",
    ];
    for ((tier, count), p50) in TIERS.iter().zip(counts).zip(p50s) {
        out.set(count, store.count(tier) as f64);
        out.set(p50, store.p(tier, 50.0) as f64);
    }
    let hits = (store.count("core.certified_hit") + store.count("core.cache_hit")) as f64;
    let planned = hits + (store.count("core.repair") + store.count("core.cold_solve")) as f64;
    out.set(
        "core.hit_ratio",
        if planned > 0.0 { hits / planned } else { 0.0 },
    );
    out.set("core.observe_ns_p50", store.p("core.observe", 50.0) as f64);
    out.check(store.count("core.unclassified") == 0, || {
        format!(
            "{} plan calls moved no ladder counter",
            store.count("core.unclassified")
        )
    });
    out.set("estimator.fits", store.count("estimator.fit") as f64);
    out.set("estimator.fit_ns_max", store.max("estimator.fit") as f64);
    out.set(
        "planner.policy_build_s",
        store.total("planner.policy_build") as f64 / 1e9,
    );
    let engine = engine_ns(store);
    out.set("exec.engine_ns_p50", percentile(&engine, 50.0) as f64);
    out.set(
        "exec.engine_share_pct",
        pct(engine.iter().sum::<u64>() as f64, step_total),
    );
    out.set(
        "exec.session_build_s",
        store.total("exec.session_build") as f64 / 1e9,
    );
    let unattributed = unattributed_ns(store, traced_ns);
    let share = pct(unattributed as f64, traced_ns as f64);
    out.set("bench.unattributed_pct", share);
    out.check((0.0..10.0).contains(&share), || {
        format!("unattributed share of the traced round is {share:.2}%, outside [0, 10)")
    });
    out.set(
        "bench.trace_overhead_pct",
        pct(traced_ns as f64 - untraced_ns, untraced_ns),
    );
}
