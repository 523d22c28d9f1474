//! The fleet workloads, `serve-overload` and `fleet-bsp`: many jobs through
//! the `mimose_cluster` front door. The cluster owns its sessions, so the
//! per-layer split is taken by replaying every dispatched job outside the
//! cluster through the same public calls it makes.

use crate::bench::{self, fast_quartile, Opts};
use crate::metrics::{pct, Outcome, SimTotals};
use crate::spans::{elapsed_ns, SpanStore, Spans};
use crate::stats::Fnv;
use mimose_audit::lint_cluster;
use mimose_cluster::{
    ArrivalProcess, Cluster, ClusterBuilder, ClusterOutcome, DevicePool, JobOutcome, JobSpec, Mode,
    Workload,
};
use mimose_exec::{IterationReport, Session};
use mimose_simgpu::DeviceProfile;
use std::time::Instant;

/// `serve-overload`: `Workload::scaled(SERVE_ITERS, SERVE_JOBS)` arriving
/// as a Poisson process with a mean gap of `SERVE_GAP_NS` on
/// `SERVE_DEVICES` V100s with a queue bound of `SERVE_QUEUE_LIMIT` — about
/// 2.5× more work than the pool serves, so the queue sheds.
const SERVE_JOBS: usize = 2000;
const SERVE_ITERS: usize = 2;
const SERVE_DEVICES: usize = 4;
const SERVE_GAP_NS: u64 = 100_000_000;
const SERVE_QUEUE_LIMIT: usize = 24;
/// `fleet-bsp`: the eight-job `Workload::mixed(BSP_ITERS)` on
/// `BSP_DEVICES` V100s. Rounds step their devices serially: on a shared
/// 2-core machine `threads(2)` measured no faster than `threads(1)` and
/// twice as noisy across runs (see the README).
const BSP_ITERS: usize = 500;
const BSP_DEVICES: usize = 2;
const BSP_THREADS: usize = 1;
/// Smoke sizes.
const SMOKE_SERVE_JOBS: usize = 200;
const SMOKE_BSP_ITERS: usize = 40;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve,
    Bsp,
}

/// A fleet workload: its job list and how the cluster runs it.
pub struct Fleet {
    pub kind: Kind,
    pub jobs: Vec<JobSpec>,
    pub seed: u64,
}

impl Fleet {
    /// Build the job list. The canonical workloads fix each job's stream
    /// seed; the benchmark seed is added to all of them (in the high bits,
    /// so the jobs keep distinct seeds), and also seeds the arrivals.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Fleet {
        let workload = match (kind, smoke) {
            (Kind::Serve, false) => Workload::scaled(SERVE_ITERS, SERVE_JOBS),
            (Kind::Serve, true) => Workload::scaled(SERVE_ITERS, SMOKE_SERVE_JOBS),
            (Kind::Bsp, false) => Workload::mixed(BSP_ITERS),
            (Kind::Bsp, true) => Workload::mixed(SMOKE_BSP_ITERS),
        };
        let mut jobs = workload.into_jobs();
        for job in &mut jobs {
            job.seed = job.seed.wrapping_add(seed << 32);
        }
        Fleet { kind, jobs, seed }
    }

    /// The cluster for one run, holding its own copy of the jobs.
    pub fn builder(&self) -> ClusterBuilder {
        let builder = Cluster::builder().workload(Workload::custom(self.jobs.clone()));
        match self.kind {
            Kind::Serve => builder
                .devices(DevicePool::v100(SERVE_DEVICES))
                .mode(Mode::EventDriven)
                .arrivals(ArrivalProcess::poisson(SERVE_GAP_NS, self.seed))
                .queue_limit(Some(SERVE_QUEUE_LIMIT)),
            Kind::Bsp => builder
                .devices(DevicePool::v100(BSP_DEVICES))
                .threads(BSP_THREADS),
        }
    }

    /// Run the cluster once; only `run()` is timed.
    pub fn round(&self, record: bool) -> Result<(ClusterOutcome, u64), String> {
        run_timed(self.builder().record(record))
    }

    /// Replay every dispatched job outside the cluster: the worst-case
    /// profile, the policy build, the session build, and per executed
    /// iteration the admission prediction and the step, each a span. The
    /// replay must reproduce each job's iteration reports exactly.
    pub fn replay(&self, outcome: &ClusterOutcome, spans: &Spans) -> Result<(), String> {
        let device = DeviceProfile::v100();
        let rows = outcome.report.jobs.iter().zip(&outcome.details);
        for (job, (row, detail)) in self.jobs.iter().zip(rows) {
            if row.device.is_none() || matches!(row.outcome, JobOutcome::Failed(_)) {
                continue;
            }
            let fail = |e: &dyn std::fmt::Display| format!("replay of {}: {e}", job.name);
            let worst = spans
                .time("models.worst_profile", || job.worst_profile())
                .map_err(|e| fail(&e))?;
            let policy = spans.time("planner.policy_build", || job.policy.build(&worst, &device));
            let mut builder = Session::builder(&job.model, &job.dataset)
                .policy_boxed(policy)
                .device(device.clone())
                .seed(job.seed);
            // Admission arms the default ladder on a job it demotes.
            let recovery = if row.demoted {
                Some(job.recovery.clone().unwrap_or_default())
            } else {
                job.recovery.clone()
            };
            if let Some(cfg) = recovery {
                builder = builder.recovery(cfg);
            }
            let mut session = spans
                .time("exec.session_build", || builder.build())
                .map_err(|e| fail(&e))?;
            let mut replayed = Fnv::default();
            for _ in 0..row.iters {
                // The cluster ignores a failed prediction; so does the replay.
                let _ = spans.time("exec.predict", || session.predicted_peak_bytes());
                let report = spans
                    .time("exec.replay_step", || session.step())
                    .map_err(|e| fail(&e))?;
                replayed.debug(&report);
            }
            if replayed.finish() != digest_reports(&detail.reports) {
                return Err(fail(&"iteration reports differ from the cluster's"));
            }
        }
        Ok(())
    }
}

fn run_timed(builder: ClusterBuilder) -> Result<(ClusterOutcome, u64), String> {
    let t0 = Instant::now();
    let outcome = builder.run().map_err(|e| e.to_string())?;
    Ok((outcome, elapsed_ns(t0)))
}

fn digest_reports(reports: &[IterationReport]) -> u64 {
    let mut d = Fnv::default();
    for r in reports {
        d.debug(r);
    }
    d.finish()
}

/// Digest of everything simulated: the report JSON and every job's
/// iteration reports.
fn digest(outcome: &ClusterOutcome) -> u64 {
    let mut d = Fnv::default();
    d.bytes(outcome.report.to_json().as_bytes());
    for detail in &outcome.details {
        d.bytes(&digest_reports(&detail.reports).to_le_bytes());
    }
    d.finish()
}

/// Executed iterations, over every job.
fn iters(outcome: &ClusterOutcome) -> usize {
    outcome.report.jobs.iter().map(|j| j.iters).sum()
}

/// Iterations that failed: fatal OOMs, plus one per job that failed mid-run.
fn failed(outcome: &ClusterOutcome) -> usize {
    outcome.report.oom_iters + outcome.report.slo.failed_jobs
}

struct RoundStats {
    wall_ns: u64,
    iters: usize,
    failed: usize,
    events: usize,
    digest: u64,
}

/// Run a fleet workload: set-up, timed rounds, and with `--trace` one
/// traced round (run, replay, report JSON, lint) and one recorded round.
pub fn run(opts: &Opts, kind: Kind) -> Result<Outcome, String> {
    let setup = || {
        // Warm-up: one smoke-size run of the same kind of cluster.
        Fleet::new(kind, opts.seed, true).round(false)?;
        Ok(Fleet::new(kind, opts.seed, opts.smoke))
    };
    let mut first: Option<ClusterOutcome> = None;
    let (fleet, setup_s, rounds) = bench::measure(opts, setup, |fleet: &Fleet| {
        let (outcome, wall_ns) = fleet.round(false)?;
        let stats = RoundStats {
            wall_ns,
            iters: iters(&outcome),
            failed: failed(&outcome),
            events: outcome.report.events.len(),
            digest: digest(&outcome),
        };
        first.get_or_insert(outcome);
        Ok((stats, wall_ns))
    })?;
    let outcome = first.ok_or("no round ran")?;
    let mut out = Outcome::default();
    for (i, r) in rounds.iter().enumerate() {
        out.check(r.digest == rounds[0].digest, || {
            format!("round {i}: simulated output differs from round 0")
        });
        out.attempted += r.iters;
        out.failed += r.failed;
    }
    let report = &outcome.report;
    out.check(report.slo.failed_jobs == 0, || {
        format!("{} jobs failed", report.slo.failed_jobs)
    });
    out.check(report.oom_iters == 0, || {
        format!("{} iterations hit a fatal OOM", report.oom_iters)
    });
    let t0 = Instant::now();
    let diags = lint_cluster(&outcome);
    let lint_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.check(diags.is_empty(), || {
        let first: Vec<String> = diags.iter().take(3).map(ToString::to_string).collect();
        format!("lint_cluster: {} findings, first {first:?}", diags.len())
    });

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_ns as f64).collect();
    let wall_ns = fast_quartile(&walls, false);
    let rate = |f: fn(&RoundStats) -> usize| {
        fast_quartile(
            &rounds
                .iter()
                .map(|r| f(r) as f64 / (r.wall_ns as f64 / 1e9))
                .collect::<Vec<_>>(),
            true,
        )
    };
    out.set("setup_s", setup_s);
    out.set("host_iters_per_s", rate(|r| r.iters));
    out.set("cluster.events_per_s", rate(|r| r.events));
    out.set("sim_iters_per_s", report.slo.goodput_iters_per_s);
    sim_metrics(&mut out, &outcome);
    out.set("audit.lint_cluster_ms", lint_ms);

    if opts.trace {
        traced(&mut out, &fleet, wall_ns, rounds[0].digest)?;
        let (recorded, recorded_ns) = fleet.round(true)?;
        out.check(digest(&recorded) == rounds[0].digest, || {
            "the recorded round's simulated output differs from the untraced rounds'".into()
        });
        let events: usize = recorded
            .details
            .iter()
            .flat_map(|d| &d.records)
            .map(|r| r.events.len())
            .sum();
        out.set(
            "runtime.events_per_iter",
            events as f64 / iters(&recorded).max(1) as f64,
        );
        out.set(
            "runtime.record_overhead_pct",
            pct(recorded_ns as f64 - wall_ns, wall_ns),
        );
        // Layers only the single-job workloads time: the replay takes no
        // spans inside `Session::step`.
        out.zero(&[
            "data.",
            "models.profile",
            "core.",
            "estimator.",
            "exec.engine",
            "audit.lint_recovery_ms",
        ]);
    }
    out.set("chaos.faulted_iters", 0.0);
    out.set("host_peak_rss_mib", bench::peak_rss_mib()?);
    Ok(out)
}

/// Simulated metrics, folded from the job rows and iteration reports.
fn sim_metrics(out: &mut Outcome, outcome: &ClusterOutcome) {
    let report = &outcome.report;
    let mut sim = SimTotals::default();
    for (row, detail) in report.jobs.iter().zip(&outcome.details) {
        let budget = row.budget_bytes.unwrap_or(usize::MAX);
        for r in &detail.reports {
            sim.absorb(r, budget);
        }
    }
    sim.report(out);
    let submitted = report.jobs.len() as f64;
    let adm = &report.admission;
    let slo = &report.slo;
    out.set(
        "exec.failed_pct",
        pct((slo.failed_jobs + slo.rejected_jobs) as f64, submitted),
    );
    out.set("cluster.events", report.events.len() as f64);
    out.set(
        "cluster.dispatches",
        report.jobs.iter().filter(|j| j.device.is_some()).count() as f64,
    );
    out.set("cluster.admitted", adm.admitted as f64);
    out.set("cluster.verified_admits", adm.verified_admits as f64);
    out.set("cluster.demoted", adm.demoted as f64);
    out.set("cluster.rejected", adm.rejected as f64);
    out.set("cluster.deferred_rounds", adm.deferred_rounds as f64);
    out.set("cluster.admission_err_pct", adm.mean_abs_rel_err_pct());
    out.set("cluster.rounds", report.rounds as f64);
    out.set("cluster.utilization_pct", report.utilization_pct);
    out.set("cluster.goodput_iters_per_s", slo.goodput_iters_per_s);
    out.set(
        "cluster.queue_wait_p50_s",
        slo.queue_wait_p50_ns as f64 / 1e9,
    );
    out.set(
        "cluster.queue_wait_p99_s",
        slo.queue_wait_p99_ns as f64 / 1e9,
    );
    out.set("cluster.shed_pct", slo.shed_rate_pct);
}

/// The spans of a traced fleet round that do not overlap: the cluster run,
/// every replay call, the report serialization and the lint.
pub const TOP_LEVEL: [&str; 8] = [
    "cluster.run",
    "models.worst_profile",
    "planner.policy_build",
    "exec.session_build",
    "exec.predict",
    "exec.replay_step",
    "cluster.report_json",
    "audit.lint_cluster",
];

/// The replay's share of the traced round: everything but the cluster run
/// and the post-run report and lint.
const REPLAY: [&str; 5] = [
    "models.worst_profile",
    "planner.policy_build",
    "exec.session_build",
    "exec.predict",
    "exec.replay_step",
];

/// Host time of the traced round not covered by a top-level span, ns.
pub fn unattributed_ns(store: &SpanStore, total_ns: u64) -> i128 {
    i128::from(total_ns)
        - TOP_LEVEL
            .iter()
            .map(|s| i128::from(store.total(s)))
            .sum::<i128>()
}

/// The traced round: the cluster run, the replay, `to_json` and
/// `lint_cluster`, each timed.
fn traced(out: &mut Outcome, fleet: &Fleet, untraced_ns: f64, digest0: u64) -> Result<(), String> {
    let spans = Spans::default();
    // Copying the jobs into the cluster is not part of the round.
    let builder = fleet.builder();
    let t_round = Instant::now();
    let (outcome, run_ns) = run_timed(builder)?;
    spans.record("cluster.run", run_ns);
    fleet.replay(&outcome, &spans)?;
    let json = spans.time("cluster.report_json", || outcome.report.to_json());
    spans.time("audit.lint_cluster", || lint_cluster(&outcome).len());
    let total_ns = elapsed_ns(t_round);
    out.check(digest(&outcome) == digest0, || {
        "the traced round's simulated output differs from the untraced rounds'".into()
    });
    let store = spans.snapshot();

    let s = |name: &str| store.total(name) as f64 / 1e9;
    let replay_ns: u64 = REPLAY.iter().map(|n| store.total(n)).sum();
    out.set("models.worst_profile_s", s("models.worst_profile"));
    out.set("planner.policy_build_s", s("planner.policy_build"));
    out.set("exec.session_build_s", s("exec.session_build"));
    out.set("exec.predict_s", s("exec.predict"));
    out.set("exec.replay_step_s", s("exec.replay_step"));
    out.set("exec.step_ns_p50", store.p("exec.replay_step", 50.0) as f64);
    out.set("exec.step_ns_p99", store.p("exec.replay_step", 99.0) as f64);
    out.set(
        "cluster.self_pct",
        pct(run_ns as f64 - replay_ns as f64, run_ns as f64),
    );
    out.set("cluster.report_json_ms", s("cluster.report_json") * 1e3);
    out.set("cluster.report_json_bytes", json.len() as f64);
    out.set("audit.lint_cluster_ms", s("audit.lint_cluster") * 1e3);
    let share = pct(unattributed_ns(&store, total_ns) as f64, total_ns as f64);
    out.set("bench.unattributed_pct", share);
    out.check((0.0..10.0).contains(&share), || {
        format!("unattributed share of the traced round is {share:.2}%, outside [0, 10)")
    });
    out.set(
        "bench.trace_overhead_pct",
        pct(run_ns as f64 - untraced_ns, untraced_ns),
    );
    Ok(())
}
