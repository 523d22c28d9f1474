//! End-to-end integration: every planner runs every Table II task without
//! panicking, Mimose honours its budget and beats the static baseline on
//! dynamic workloads, and the whole simulation is deterministic.

use mimose::core::{MimoseConfig, MimosePolicy};
use mimose::exec::Session;
use mimose::planner::MemoryPolicy;
use mimose_exp::planners::{build_policy, PlannerKind};
use mimose_exp::tasks::Task;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs every comparison planner (plus `DeterministicMimose`, whose plan
/// cost is modeled rather than wall-clock timed) on every task, and pins the
/// runs with bit-stable reports byte for byte: one `task planner digest`
/// line per run, FNV-1a over the `Debug` bytes of its reports, against a
/// fixture generated before the executor's two front ends were merged into
/// `Session`. A deliberate timeline change updates the fixture by hand from
/// the digests the failure message prints.
#[test]
fn every_planner_runs_every_task() {
    use mimose::cluster::DeterministicMimose;
    let mut digests = String::new();
    for task in Task::all() {
        let budget = if task.abbr.starts_with("OD") {
            14usize << 30
        } else {
            6 << 30
        };
        let mut runs: Vec<(&str, Box<dyn MemoryPolicy>)> = PlannerKind::comparison_set()
            .into_iter()
            .map(|k| (k.name(), build_policy(k, &task, budget)))
            .collect();
        runs.push((
            "DeterministicMimose",
            Box::new(DeterministicMimose::new(MimosePolicy::new(
                MimoseConfig::with_budget(budget),
            ))),
        ));
        for (name, policy) in runs {
            let reports = Session::builder(&task.model, &task.dataset)
                .policy_boxed(policy)
                .seed(13)
                .build()
                .and_then(|mut session| session.run(25))
                .unwrap();
            // Some planners legitimately OOM (static plans on OD); the run
            // itself must still complete and account its time.
            assert_eq!(reports.len(), 25, "{} / {name}", task.abbr);
            assert!(
                reports.iter().map(|r| r.time.total_ns()).sum::<u64>() > 0,
                "{} / {name}",
                task.abbr
            );
            // Mimose times its own planning on the wall clock.
            if name != PlannerKind::Mimose.name() {
                let digest = fnv1a(format!("{reports:?}").as_bytes());
                digests.push_str(&format!("{} {name} {digest:016x}\n", task.abbr));
            }
        }
    }
    let want = include_str!("fixtures/planner_sweep_digests.txt");
    assert_eq!(
        digests, want,
        "planner sweep diverged from the pinned digests"
    );
}

/// Pins the fleet's output on both clocks byte for byte: one
/// `setup digest` line per run, FNV-1a over the `ClusterReport` JSON
/// followed by every job's iteration reports and admission reason (`Debug`
/// bytes), against a fixture generated before jobs shared their models.
/// The setups are the serving overload scenario at 400 jobs, the BSP
/// mixed workload under each dispatch policy, and the cluster gate's
/// lose-one-device-of-four survivability leg. A deliberate change to fleet
/// behaviour updates the fixture by hand from the digests the failure
/// message prints.
#[test]
fn fleet_runs_reproduce_pinned_digests() {
    use mimose::cluster::ClusterOutcome;
    use mimose::prelude::*;
    let digest = |outcome: ClusterOutcome| {
        let mut bytes = outcome.report.to_json().into_bytes();
        for (row, detail) in outcome.report.jobs.iter().zip(&outcome.details) {
            bytes.extend(format!("{:?}", detail.reports).bytes());
            bytes.extend(format!("{:?}", row.admission_reason).bytes());
        }
        fnv1a(&bytes)
    };
    let mut runs: Vec<(String, ClusterBuilder)> = vec![(
        "event-scaled-400".into(),
        Cluster::builder()
            .devices(DevicePool::v100(4))
            .workload(Workload::scaled(2, 400))
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::poisson(100_000_000, 97))
            .queue_limit(Some(24)),
    )];
    for schedule in [
        SchedulePolicy::Fifo,
        SchedulePolicy::ShortestPredicted,
        SchedulePolicy::BestFitMemory,
    ] {
        runs.push((
            format!("bsp-mixed-40-{}", schedule.name()),
            Cluster::builder()
                .devices(DevicePool::v100(2))
                .workload(Workload::mixed(40))
                .schedule(schedule),
        ));
    }
    runs.push((
        "bsp-lose-1-of-4".into(),
        Cluster::builder()
            .devices(DevicePool::v100(4))
            .workload(Workload::mixed(4))
            .faults(FleetFaultPlan::none(0).with_device_fault(1, DeviceFault::Lost { at_round: 2 }))
            .record(true),
    ));
    let digests: String = runs
        .into_iter()
        .map(|(name, builder)| {
            let outcome = builder.run().expect("pinned fleet setups are well-formed");
            format!("{name} {:016x}\n", digest(outcome))
        })
        .collect();
    let want = include_str!("fixtures/fleet_digests.txt");
    assert_eq!(digests, want, "fleet runs diverged from the pinned digests");
}

/// Pins the fleet under faults and edge shapes on both clocks, byte for
/// byte: one `setup digest` line per run, FNV-1a over the `ClusterReport`
/// JSON followed by the `Debug` bytes of every `JobDetail` (iteration
/// reports, recorded streams, summaries, plan tiers, dispatch round and
/// sequence). BSP rows cover each dispatch policy on 1–4 V100s and on the
/// lose-one-of-four leg, two devices down in one round, every device lost,
/// an outage that returns, a flapping device against a one-retry budget,
/// capacity collapse alone and with a loss, an outage that turns into a
/// loss, a mixed-capacity pool losing its large device, and per-iteration
/// allocation-failure chaos. Event rows run the same faults on the
/// nanosecond clock, plus immediate, bounded-queue and bursty arrivals and
/// an outage that outlasts the work. A deliberate change to fleet
/// behaviour updates the fixture by hand from the digests the failure
/// message prints.
#[test]
fn fleet_fault_matrix_reproduces_pinned_digests() {
    use mimose::cluster::ClusterOutcome;
    use mimose::prelude::*;
    const S: u64 = 1_000_000_000;
    let digest = |outcome: ClusterOutcome| {
        let mut bytes = outcome.report.to_json().into_bytes();
        bytes.extend(format!("{:?}", outcome.details).bytes());
        fnv1a(&bytes)
    };
    let pool = |n: usize, iters: usize| {
        Cluster::builder()
            .devices(DevicePool::v100(n))
            .workload(Workload::mixed(iters))
    };
    let schedules = [
        SchedulePolicy::Fifo,
        SchedulePolicy::ShortestPredicted,
        SchedulePolicy::BestFitMemory,
    ];
    let mut small = DeviceProfile::v100();
    small.total_mem_bytes = 6 << 30;
    let mixed_pool = || DevicePool::custom(vec![DeviceProfile::v100(), small.clone()]);
    let flapping_job = || Workload::custom(vec![Workload::mixed(8).into_jobs().remove(0)]);
    let chaos = || {
        FleetFaultPlan::new(FaultSpec {
            alloc_failure_rate: 0.3,
            ..FaultSpec::none(99)
        })
    };
    let none = || FleetFaultPlan::none(0);

    let mut runs: Vec<(String, ClusterBuilder)> = Vec::new();
    // --- BSP rounds. ---
    for schedule in schedules {
        for n in 1..=4 {
            runs.push((
                format!("bsp-{}-{n}dev", schedule.name()),
                pool(n, 3).schedule(schedule),
            ));
        }
        runs.push((
            format!("bsp-{}-lose-1-of-4", schedule.name()),
            pool(4, 4)
                .schedule(schedule)
                .faults(none().with_device_fault(1, DeviceFault::Lost { at_round: 2 }))
                .record(true),
        ));
    }
    let down = |at_round, duration| DeviceFault::Down { at_round, duration };
    let collapse = |at_round, duration, factor| DeviceFault::CapacityCollapse {
        at_round,
        duration,
        factor,
    };
    runs.push((
        "bsp-two-down-one-round".into(),
        pool(4, 4).faults(
            none()
                .with_device_fault(0, down(2, 2))
                .with_device_fault(2, down(2, 3)),
        ),
    ));
    runs.push((
        "bsp-all-lost-round-1".into(),
        pool(2, 4).faults(
            none()
                .with_device_fault(0, DeviceFault::Lost { at_round: 1 })
                .with_device_fault(1, DeviceFault::Lost { at_round: 1 }),
        ),
    ));
    runs.push((
        "bsp-down-then-return".into(),
        pool(2, 3).faults(none().with_device_fault(0, down(1, 3))),
    ));
    runs.push((
        "bsp-flapping-retries-1".into(),
        Cluster::builder()
            .devices(DevicePool::v100(1))
            .workload(flapping_job())
            .faults(
                none()
                    .with_device_fault(0, down(1, 1))
                    .with_device_fault(0, down(3, 1))
                    .with_device_fault(0, down(5, 1)),
            )
            .max_retries(1),
    ));
    runs.push((
        "bsp-collapse".into(),
        pool(2, 3).faults(none().with_device_fault(0, collapse(1, 4, 0.1))),
    ));
    runs.push((
        "bsp-collapse-and-loss".into(),
        pool(3, 3).faults(
            none()
                .with_device_fault(0, collapse(0, 6, 0.1))
                .with_device_fault(1, DeviceFault::Lost { at_round: 2 }),
        ),
    ));
    runs.push((
        "bsp-down-then-lost".into(),
        pool(3, 3).faults(
            none()
                .with_device_fault(0, down(1, 10))
                .with_device_fault(0, DeviceFault::Lost { at_round: 4 }),
        ),
    ));
    runs.push((
        "bsp-v100-plus-6gib-lose-v100".into(),
        Cluster::builder()
            .devices(mixed_pool())
            .workload(Workload::mixed(3))
            .faults(none().with_device_fault(0, DeviceFault::Lost { at_round: 2 })),
    ));
    runs.push((
        "bsp-alloc-chaos".into(),
        pool(2, 3).faults(chaos()).record(true),
    ));

    // --- Discrete events on the nanosecond clock. ---
    let event = |n: usize, iters: usize| {
        pool(n, iters)
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::poisson(S / 2, 42))
    };
    for schedule in schedules {
        for n in 1..=4 {
            runs.push((
                format!("event-{}-{n}dev", schedule.name()),
                event(n, 3).schedule(schedule),
            ));
        }
        runs.push((
            format!("event-{}-lose-1-of-4", schedule.name()),
            event(4, 4)
                .schedule(schedule)
                .faults(none().with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 2 * S }))
                .record(true),
        ));
    }
    let tdown = |at_ns, duration_ns| TimedDeviceFault::Down { at_ns, duration_ns };
    let tcollapse = |at_ns, duration_ns, factor| TimedDeviceFault::CapacityCollapse {
        at_ns,
        duration_ns,
        factor,
    };
    runs.push((
        "event-two-down-one-instant".into(),
        event(4, 4).faults(
            none()
                .with_timed_fault(0, tdown(2 * S, 2 * S))
                .with_timed_fault(2, tdown(2 * S, 3 * S)),
        ),
    ));
    runs.push((
        "event-all-lost".into(),
        event(2, 4).faults(
            none()
                .with_timed_fault(0, TimedDeviceFault::Lost { at_ns: S })
                .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: S }),
        ),
    ));
    runs.push((
        "event-down-then-return".into(),
        event(2, 3).faults(none().with_timed_fault(0, tdown(S, 3 * S))),
    ));
    runs.push((
        "event-flapping-retries-1".into(),
        Cluster::builder()
            .devices(DevicePool::v100(1))
            .workload(flapping_job())
            .mode(Mode::EventDriven)
            .faults(
                none()
                    .with_timed_fault(0, tdown(S, S))
                    .with_timed_fault(0, tdown(3 * S, S))
                    .with_timed_fault(0, tdown(5 * S, S)),
            )
            .max_retries(1),
    ));
    runs.push((
        "event-collapse".into(),
        event(2, 3).faults(none().with_timed_fault(0, tcollapse(S, 4 * S, 0.1))),
    ));
    runs.push((
        "event-collapse-and-loss".into(),
        event(3, 3).faults(
            none()
                .with_timed_fault(0, tcollapse(0, 6 * S, 0.1))
                .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 2 * S }),
        ),
    ));
    runs.push((
        "event-down-then-lost".into(),
        event(3, 3).faults(
            none()
                .with_timed_fault(0, tdown(S, 10 * S))
                .with_timed_fault(0, TimedDeviceFault::Lost { at_ns: 4 * S }),
        ),
    ));
    runs.push((
        "event-v100-plus-6gib-lose-v100".into(),
        Cluster::builder()
            .devices(mixed_pool())
            .workload(Workload::mixed(3))
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::poisson(S / 2, 42))
            .faults(none().with_timed_fault(0, TimedDeviceFault::Lost { at_ns: 2 * S })),
    ));
    runs.push((
        "event-alloc-chaos".into(),
        event(2, 3).faults(chaos()).record(true),
    ));
    runs.push((
        "event-immediate".into(),
        pool(2, 3)
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::Immediate),
    ));
    runs.push((
        "event-queue-limit-2".into(),
        pool(1, 2)
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::Immediate)
            .queue_limit(Some(2)),
    ));
    runs.push((
        "event-bursty".into(),
        pool(2, 3)
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::bursty(S / 2, S / 16, 6, 42)),
    ));
    runs.push((
        "event-outage-outlasts-the-work".into(),
        pool(2, 2)
            .mode(Mode::EventDriven)
            .faults(none().with_timed_fault(0, tdown(3 * S / 10, 100 * S))),
    ));

    let digests: String = runs
        .into_iter()
        .map(|(name, builder)| {
            let outcome = builder.run().expect("fault-matrix setups are well-formed");
            format!("{name} {:016x}\n", digest(outcome))
        })
        .collect();
    let want = include_str!("fixtures/fleet_fault_matrix_digests.txt");
    assert_eq!(
        digests, want,
        "fleet fault matrix diverged from the pinned digests"
    );
}

#[test]
fn mimose_honours_budget_on_all_nlp_tasks() {
    for task in Task::nlp() {
        let budget = 6usize << 30;
        let reports = Session::builder(&task.model, &task.dataset)
            .policy(MimosePolicy::new(MimoseConfig::with_budget(budget)))
            .seed(29)
            .build()
            .and_then(|mut session| session.run(80))
            .unwrap();
        for r in reports {
            assert!(r.ok(), "{}: OOM at iter {}", task.abbr, r.iter);
            assert!(
                r.peak_bytes <= budget,
                "{}: peak {} MiB over budget at iter {}",
                task.abbr,
                r.peak_bytes >> 20,
                r.iter
            );
        }
    }
}

#[test]
fn mimose_beats_sublinear_on_every_nlp_task() {
    // The headline claim (≈18 % over Sublinear) must at least hold in
    // direction on every dynamic-input task at a mid budget.
    for task in Task::nlp() {
        let budget = 6usize << 30;
        let iters = 150;
        let total = |kind: PlannerKind| {
            Session::builder(&task.model, &task.dataset)
                .policy_boxed(build_policy(kind, &task, budget))
                .seed(55)
                .build()
                .and_then(|mut session| session.run_summary(iters))
                .unwrap()
                .total_ns
        };
        let mim = total(PlannerKind::Mimose);
        let sub = total(PlannerKind::Sublinear);
        assert!(
            mim < sub,
            "{}: mimose {} ms !< sublinear {} ms",
            task.abbr,
            mim / 1_000_000,
            sub / 1_000_000
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let task = Task::tc_bert();
    let run = || {
        let s = Session::builder(&task.model, &task.dataset)
            .policy_boxed(build_policy(PlannerKind::Sublinear, &task, 5 << 30))
            .seed(1234)
            .build()
            .and_then(|mut session| session.run_summary(60))
            .unwrap();
        (s.total_ns, s.max_peak_bytes, s.max_frag_bytes)
    };
    assert_eq!(run(), run(), "virtual-time simulation must be bit-stable");
}

#[test]
fn dtr_budget_violations_are_visible() {
    // Fig 5: DTR's nominal budget is respected logically but the reserved
    // footprint exceeds it.
    let task = Task::mc_roberta();
    let budget = (4.5 * (1u64 << 30) as f64) as usize;
    let s = Session::builder(&task.model, &task.dataset)
        .policy_boxed(build_policy(PlannerKind::Dtr, &task, budget))
        .seed(77)
        .build()
        .and_then(|mut session| session.run_summary(60))
        .unwrap();
    assert!(s.max_peak_bytes <= budget, "logical usage over budget");
    assert!(
        s.max_peak_extent > budget,
        "expected reserved footprint ({} MiB) above the nominal budget",
        s.max_peak_extent >> 20
    );
}

#[test]
fn knapsack_scheduler_is_a_working_alternative() {
    let task = Task::tc_bert();
    let budget = 5usize << 30;
    let s = Session::builder(&task.model, &task.dataset)
        .policy_boxed(build_policy(PlannerKind::MimoseKnapsack, &task, budget))
        .seed(21)
        .build()
        .and_then(|mut session| session.run_summary(80))
        .unwrap();
    assert_eq!(s.oom_iters, 0);
    assert!(s.max_peak_bytes <= budget);
}

#[test]
fn capuchin_hybrid_runs_within_budget() {
    use mimose::planner::{BlockAction, CapuchinPolicy};
    use mimose::simgpu::DeviceProfile;
    let task = Task::tc_bert();
    let budget = 5usize << 30;
    let worst = task.worst_profile();
    let policy = CapuchinPolicy::plan_offline(&worst, budget, &DeviceProfile::v100());
    assert!(policy.is_feasible());
    let actions = policy.plan().clone();
    let s = Session::builder(&task.model, &task.dataset)
        .policy(policy)
        .seed(41)
        .build()
        .and_then(|mut session| session.run_summary(60))
        .unwrap();
    assert_eq!(s.oom_iters, 0);
    assert!(s.max_peak_bytes <= budget);
    // At V100 PCIe bandwidth the plan should recompute, not swap (§I).
    assert!(actions.count(BlockAction::Recompute) >= actions.count(BlockAction::Swap));
}

#[test]
fn adaptive_mimose_matches_base_on_stationary_data() {
    use mimose::core::{MimoseConfig, MimosePolicy};
    // With a stationary, tightly-bounded input distribution (SWAG's clipped
    // normal) the adaptive extensions must not change behaviour: the first
    // ten draws cover the support, so no re-collection triggers.
    let task = Task::mc_roberta();
    let budget = 6usize << 30;
    let mut pol = MimosePolicy::new(MimoseConfig::with_budget_adaptive(budget));
    let s = Session::builder(&task.model, &task.dataset)
        .policy(&mut pol)
        .seed(19)
        .build()
        .and_then(|mut session| session.run_summary(120))
        .unwrap();
    assert_eq!(s.oom_iters, 0);
    assert!(s.max_peak_bytes <= budget);
    assert_eq!(pol.stats().recollections, 0, "stationary data re-collected");
}

#[test]
fn csv_export_round_trips_run_length() {
    use mimose_exp::csv::iterations_to_csv;
    let task = Task::qa_bert();
    let reports = Session::builder(&task.model, &task.dataset)
        .policy_boxed(build_policy(PlannerKind::Mimose, &task, 6 << 30))
        .seed(5)
        .build()
        .and_then(|mut session| session.run(30))
        .unwrap();
    let csv = iterations_to_csv(&reports);
    assert_eq!(csv.lines().count(), 31);
}
