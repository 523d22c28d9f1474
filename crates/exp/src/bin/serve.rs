//! `serve`: run the fleet in event-driven serving mode — jobs arrive on
//! the virtual clock per an arrival process, dispatch at real iteration
//! boundaries, and the report carries the SLO tail rollup (queue-wait and
//! iteration-latency p50/p95/p99, goodput, rejection/shed rates).
//!
//! With `--gate`, exit non-zero unless serving mode honours its contract:
//! same spec ⇒ byte-identical report across two runs and across thread
//! counts; event mode with every arrival at `t = 0` reproduces the BSP
//! scheduler's per-job evidence exactly (the degenerate-equivalence leg);
//! the audit cluster lint — which independently re-folds every tail
//! percentile from the per-job rows and re-derives the arrival/dispatch/
//! completion chain — is clean on steady and bursty serving runs; and an
//! overload scenario (a scaled workload squeezed through a bounded queue)
//! sheds work explicitly: nonzero sheds, zero failed jobs, every job
//! settled with a terminal outcome. The gate also writes
//! `BENCH_serve.json` (steady + overload SLO records) at the repository
//! root.

use mimose::cluster::{ClusterBuilder, ClusterOutcome, ClusterReport};
use mimose::prelude::*;
use mimose_audit::lint_cluster;
use mimose_exp::table::{gib, ms, render_table};
use mimose_runtime::json::{self, Fixed, Object};
use std::path::Path;

const USAGE: &str = "\
serve — event-driven serving mode: online arrivals, SLO tails, bounded queues

USAGE:
    serve [OPTIONS]

OPTIONS:
    --devices <N>      V100 pool size, 1..=16  [2]
    --jobs <N>         jobs in the workload (scaled mixed cycle)  [8]
    --iters <N>        iterations per job  [2]
    --arrivals <P>     immediate | poisson | bursty  [poisson]
    --gap <NS>         mean inter-arrival gap, virtual ns  [400000]
    --seed <N>         arrival-stream seed  [42]
    --queue-limit <N>  bound the pending queue; arrivals past it shed  [none]
    --schedule <P>     fifo | shortest-predicted | best-fit-memory  [fifo]
    --threads <N>      step threads (1 = serial; else one per parked job)  [0]
    --json             print the ClusterReport JSON instead of the table
    --gate             run the determinism/equivalence/audit/overload gate
                       and write BENCH_serve.json at the repository root
    --help             print this message
";

/// Burst-phase gap is this fraction of the calm gap in `--arrivals bursty`.
const BURST_GAP_DIV: u64 = 8;
/// Mean arrivals per MMPP phase in `--arrivals bursty`.
const BURST_PHASE_LEN: usize = 6;

struct Args {
    devices: usize,
    jobs: usize,
    iters: usize,
    arrivals: String,
    gap_ns: u64,
    seed: u64,
    queue_limit: Option<usize>,
    schedule: SchedulePolicy,
    threads: usize,
    json: bool,
    gate: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            devices: 2,
            jobs: 8,
            iters: 2,
            arrivals: "poisson".into(),
            gap_ns: 400_000,
            seed: 42,
            queue_limit: None,
            schedule: SchedulePolicy::Fifo,
            threads: 0,
            json: false,
            gate: false,
        }
    }
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        let num = |flag: &str, s: &str| -> Result<usize, String> {
            s.parse().map_err(|_| format!("{flag} must be an integer"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--gate" => a.gate = true,
            "--json" => a.json = true,
            "--devices" => {
                a.devices = num("--devices", value("--devices")?)?;
                if !(1..=16).contains(&a.devices) {
                    return Err("--devices out of range (1..=16)".into());
                }
            }
            "--jobs" => {
                a.jobs = num("--jobs", value("--jobs")?)?;
                if a.jobs == 0 {
                    return Err("--jobs must be positive".into());
                }
            }
            "--iters" => {
                a.iters = num("--iters", value("--iters")?)?;
                if a.iters == 0 {
                    return Err("--iters must be positive".into());
                }
            }
            "--arrivals" => {
                let name = value("--arrivals")?;
                if !["immediate", "poisson", "bursty"].contains(&name.as_str()) {
                    return Err(format!("unknown arrival process '{name}'"));
                }
                a.arrivals = name.clone();
            }
            "--gap" => {
                a.gap_ns = value("--gap")?
                    .parse()
                    .map_err(|_| "--gap must be an integer".to_string())?;
                if a.gap_ns == 0 {
                    return Err("--gap must be positive".into());
                }
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--queue-limit" => {
                a.queue_limit = Some(num("--queue-limit", value("--queue-limit")?)?);
            }
            "--schedule" => {
                let name = value("--schedule")?;
                a.schedule = SchedulePolicy::parse(name)
                    .ok_or_else(|| format!("unknown schedule '{name}'"))?;
            }
            "--threads" => {
                a.threads = num("--threads", value("--threads")?)?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Some(a))
}

fn arrivals(args: &Args) -> ArrivalProcess {
    match args.arrivals.as_str() {
        "immediate" => ArrivalProcess::Immediate,
        "bursty" => ArrivalProcess::bursty(
            args.gap_ns,
            (args.gap_ns / BURST_GAP_DIV).max(1),
            BURST_PHASE_LEN,
            args.seed,
        ),
        _ => ArrivalProcess::poisson(args.gap_ns, args.seed),
    }
}

fn builder(args: &Args) -> ClusterBuilder {
    Cluster::builder()
        .devices(DevicePool::v100(args.devices))
        .workload(Workload::scaled(args.iters, args.jobs))
        .mode(Mode::EventDriven)
        .arrivals(arrivals(args))
        .queue_limit(args.queue_limit)
        .schedule(args.schedule)
        .threads(args.threads)
}

fn run(b: ClusterBuilder) -> ClusterOutcome {
    b.run().expect("serve specs are well-formed")
}

fn render(outcome: &ClusterOutcome) {
    let r = &outcome.report;
    let rows: Vec<Vec<String>> = r
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.name.clone(),
                j.device.map_or("-".into(), |d| d.to_string()),
                j.outcome.tag().to_string(),
                j.iters.to_string(),
                ms(j.arrival_ns),
                ms(j.queue_wait_ns),
                ms(j.total_ns),
                gib(j.max_peak_bytes),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "serve: {} arrivals, {} schedule, {} devices",
                r.arrivals.name(),
                r.schedule,
                r.devices.len()
            ),
            &[
                "job",
                "dev",
                "outcome",
                "iters",
                "arrive(ms)",
                "queue(ms)",
                "total(ms)",
                "peak",
            ],
            &rows,
        )
    );
    let s = &r.slo;
    println!(
        "\nmakespan {} ms | utilization {:.1}% | epochs {} | goodput {} iters ({:.1}/s)",
        ms(r.makespan_ns),
        r.utilization_pct,
        r.rounds,
        s.goodput_iters,
        s.goodput_iters_per_s,
    );
    println!(
        "queue wait p50/p95/p99: {}/{}/{} ms | iter latency p50/p95/p99: {}/{}/{} ms",
        ms(s.queue_wait_p50_ns),
        ms(s.queue_wait_p95_ns),
        ms(s.queue_wait_p99_ns),
        ms(s.iter_latency_p50_ns),
        ms(s.iter_latency_p95_ns),
        ms(s.iter_latency_p99_ns),
    );
    println!(
        "rejected {} ({:.1}%) | shed {} ({:.1}%) | failed {}",
        s.rejected_jobs, s.rejection_rate_pct, s.shed_jobs, s.shed_rate_pct, s.failed_jobs,
    );
    if !r.events.is_empty() {
        println!("fleet events ({}):", r.events.len());
        for e in &r.events {
            println!("  t {:>12} ns  {}", e.at_ns, e.kind.tag());
        }
    }
}

fn slo_json(o: &mut Object<'_>, r: &ClusterReport) {
    let s = &r.slo;
    o.field("devices", r.devices.len())
        .field("jobs", r.jobs.len())
        .field("arrivals", r.arrivals.name())
        .field("makespan_ns", r.makespan_ns)
        .field("utilization_pct", Fixed(r.utilization_pct, 4))
        .field("queue_wait_p50_ns", s.queue_wait_p50_ns)
        .field("queue_wait_p95_ns", s.queue_wait_p95_ns)
        .field("queue_wait_p99_ns", s.queue_wait_p99_ns)
        .field("iter_latency_p50_ns", s.iter_latency_p50_ns)
        .field("iter_latency_p95_ns", s.iter_latency_p95_ns)
        .field("iter_latency_p99_ns", s.iter_latency_p99_ns)
        .field("goodput_iters", s.goodput_iters)
        .field("goodput_iters_per_s", Fixed(s.goodput_iters_per_s, 4))
        .field("rejected_jobs", s.rejected_jobs)
        .field("shed_jobs", s.shed_jobs)
        .field("failed_jobs", s.failed_jobs)
        .field("rejection_rate_pct", Fixed(s.rejection_rate_pct, 4))
        .field("shed_rate_pct", Fixed(s.shed_rate_pct, 4));
}

/// Overload-leg shape: enough jobs to swamp the pool, arrivals much
/// faster than service, and a queue bound that forces explicit shedding.
const OVERLOAD_JOBS: usize = 200;
const OVERLOAD_DEVICES: usize = 4;
const OVERLOAD_GAP_NS: u64 = 100_000_000;
const OVERLOAD_QUEUE_LIMIT: usize = 24;
const OVERLOAD_SEED: u64 = 23;

fn overload_builder(iters: usize) -> ClusterBuilder {
    Cluster::builder()
        .devices(DevicePool::v100(OVERLOAD_DEVICES))
        .workload(Workload::scaled(iters, OVERLOAD_JOBS))
        .mode(Mode::EventDriven)
        .arrivals(ArrivalProcess::poisson(OVERLOAD_GAP_NS, OVERLOAD_SEED))
        .queue_limit(Some(OVERLOAD_QUEUE_LIMIT))
}

fn gate(args: &Args) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        eprintln!("serve gate: {name}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures.push(format!("{name}: {detail}"));
        }
    };

    // 1. Same spec twice ⇒ byte-identical report.
    let steady = run(builder(args));
    let again = run(builder(args)).report.to_json();
    check(
        "replay determinism",
        steady.report.to_json() == again,
        "two serving runs diverged".into(),
    );

    // 2. Serial and threaded step passes give the same report.
    let t1 = run(builder(args).threads(1)).report.to_json();
    let t8 = run(builder(args).threads(8)).report.to_json();
    check(
        "thread independence",
        t1 == t8,
        "threads=1 and threads=8 serving reports diverged".into(),
    );

    // 3. Degenerate equivalence: every arrival at t = 0, no queue bound
    // ⇒ each job's execution evidence matches the BSP scheduler's
    // job-for-job, and both modes deliver the same total work.
    {
        let bsp = run(Cluster::builder()
            .devices(DevicePool::v100(args.devices))
            .workload(Workload::mixed(args.iters)));
        let des = run(Cluster::builder()
            .devices(DevicePool::v100(args.devices))
            .workload(Workload::mixed(args.iters))
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::Immediate));
        let per_job = bsp
            .details
            .iter()
            .zip(&des.details)
            .all(|(a, b)| format!("{:?}", a.reports) == format!("{:?}", b.reports))
            && bsp
                .report
                .jobs
                .iter()
                .zip(&des.report.jobs)
                .all(|(a, b)| a.iters == b.iters && a.total_ns == b.total_ns);
        check(
            "bsp-degenerate equivalence",
            per_job
                && bsp.report.busy_ns == des.report.busy_ns
                && bsp.report.slo.goodput_iters == des.report.slo.goodput_iters,
            "event mode with immediate arrivals diverged from BSP".into(),
        );
    }

    // 4. Audit lint — independent re-fold of every SLO tail and the
    // arrival/dispatch/completion chain — clean on steady and bursty
    // serving runs.
    for shape in ["poisson", "bursty"] {
        let mut shaped = Args {
            arrivals: shape.into(),
            ..Args::default()
        };
        shaped.iters = args.iters;
        shaped.devices = args.devices;
        let outcome = run(builder(&shaped).record(true));
        let diags = lint_cluster(&outcome);
        check(
            &format!("audit lint ({shape} arrivals)"),
            diags.is_empty(),
            format!(
                "{:?}",
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            ),
        );
    }

    // 5. Overload: a bounded queue under saturating arrivals must shed
    // explicitly — nonzero sheds, zero failed jobs, every job settled —
    // and still lint clean.
    let overload = run(overload_builder(args.iters).record(true));
    {
        let r = &overload.report;
        let unsettled: Vec<&str> = r
            .jobs
            .iter()
            .filter(|j| {
                !(j.outcome.finished()
                    || matches!(
                        j.outcome,
                        JobOutcome::Rejected | JobOutcome::Shed(_) | JobOutcome::Failed(_)
                    ))
            })
            .map(|j| j.name.as_str())
            .collect();
        eprintln!(
            "serve gate: overload: {} jobs → {} finished, {} shed, {} rejected, {} failed; \
             wait p99 {} ms, goodput {:.1} iters/s",
            r.jobs.len(),
            r.jobs.iter().filter(|j| j.outcome.finished()).count(),
            r.slo.shed_jobs,
            r.slo.rejected_jobs,
            r.slo.failed_jobs,
            ms(r.slo.queue_wait_p99_ns),
            r.slo.goodput_iters_per_s,
        );
        check(
            "overload sheds explicitly, loses nothing",
            r.slo.shed_jobs > 0 && r.slo.failed_jobs == 0 && unsettled.is_empty(),
            format!(
                "{} shed, {} failed, unsettled {unsettled:?}",
                r.slo.shed_jobs, r.slo.failed_jobs
            ),
        );
        let diags = lint_cluster(&overload);
        check(
            "overload trace lints clean",
            diags.is_empty(),
            format!(
                "{:?}",
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            ),
        );
    }

    // 6. Emit the SLO record: the steady serving run plus the overload
    // scenario.
    let json = json::object(|o| {
        o.field("suite", "serve")
            .field("mode", "event-driven")
            .field("iters_per_job", args.iters)
            .object("steady", |o| slo_json(o, &steady.report))
            .object("overload", |o| slo_json(o, &overload.report));
    }) + "\n";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("serve gate: wrote {}", path.display()),
        Err(e) => failures.push(format!("BENCH_serve.json: {e}")),
    }

    failures
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    if args.gate {
        let failures = gate(&args);
        if failures.is_empty() {
            eprintln!("serve gate: every check passed");
        } else {
            for f in &failures {
                eprintln!("serve gate: FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }

    let outcome = run(builder(&args));
    if args.json {
        println!("{}", outcome.report.to_json());
    } else {
        render(&outcome);
    }
}
