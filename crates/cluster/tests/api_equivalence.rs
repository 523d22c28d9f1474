//! Migration-safety properties for the builder API redesign.
//!
//! 1. The hand-built spec surface (`run_cluster` over `ClusterSpec::new`)
//!    and the builder (`Cluster::builder()...run()`) are the *same*
//!    scheduler: their reports are byte-identical on the canonical
//!    workload, across schedule policies and fault plans.
//! 2. The event-driven mode degenerates to BSP: with every arrival at
//!    `t = 0`, no faults and no queue bound, each job's per-iteration
//!    evidence (reports, outcome, iteration count) matches the BSP run
//!    job-for-job — the two drivers differ in *when* decisions happen,
//!    never in *how* a job executes.

use mimose_chaos::{DeviceFault, FleetFaultPlan};
use mimose_cluster::{
    run_cluster, ArrivalProcess, Cluster, ClusterSpec, DevicePool, JobOutcome, Mode,
    SchedulePolicy, Workload,
};
use mimose_simgpu::DeviceProfile;

/// The canonical workload on `n` V100s, as a hand-built spec.
fn hand_built(iters: usize, n: usize) -> ClusterSpec {
    ClusterSpec::new(
        Workload::mixed(iters).into_jobs(),
        vec![DeviceProfile::v100(); n],
    )
}

#[test]
fn builder_and_legacy_wrapper_are_byte_identical() {
    for schedule in [
        SchedulePolicy::Fifo,
        SchedulePolicy::ShortestPredicted,
        SchedulePolicy::BestFitMemory,
    ] {
        let legacy = run_cluster(&hand_built(2, 2).schedule(schedule));
        let built = Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(2))
            .schedule(schedule)
            .run()
            .expect("canonical workload runs");
        assert_eq!(
            legacy.report.to_json(),
            built.report.to_json(),
            "{} diverged",
            schedule.name()
        );
    }
}

#[test]
fn builder_and_legacy_wrapper_agree_under_faults() {
    let faults = || FleetFaultPlan::none(0).with_device_fault(1, DeviceFault::Lost { at_round: 2 });
    let legacy = run_cluster(&hand_built(4, 4).faults(faults()).record(true));
    let built = Cluster::builder()
        .devices(DevicePool::v100(4))
        .workload(Workload::mixed(4))
        .faults(faults())
        .record(true)
        .run()
        .expect("faulted workload runs");
    assert_eq!(legacy.report.to_json(), built.report.to_json());
    for (a, b) in legacy.details.iter().zip(&built.details) {
        assert_eq!(format!("{:?}", a.reports), format!("{:?}", b.reports));
        assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
    }
}

#[test]
fn event_mode_with_degenerate_arrivals_reproduces_bsp_per_job() {
    let bsp = Cluster::builder()
        .devices(DevicePool::v100(2))
        .workload(Workload::mixed(2))
        .run()
        .expect("bsp runs");
    let des = Cluster::builder()
        .devices(DevicePool::v100(2))
        .workload(Workload::mixed(2))
        .mode(Mode::EventDriven)
        .arrivals(ArrivalProcess::Immediate)
        .run()
        .expect("event-driven runs");

    assert_eq!(bsp.report.mode, "bsp");
    assert_eq!(des.report.mode, "event-driven");
    // Placement can differ (the event loop frees devices at real
    // iteration boundaries, BSP at round barriers), but on a homogeneous
    // pool with no faults each job's execution is placement-independent:
    // same iterations, same per-iteration evidence, same outcome.
    for (a, b) in bsp.details.iter().zip(&des.details) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            format!("{:?}", a.reports),
            format!("{:?}", b.reports),
            "{}: iteration evidence diverged between modes",
            a.name
        );
        assert_eq!(
            format!("{:?}", a.summary),
            format!("{:?}", b.summary),
            "{}: summaries diverged between modes",
            a.name
        );
    }
    for (a, b) in bsp.report.jobs.iter().zip(&des.report.jobs) {
        assert_eq!(a.outcome, JobOutcome::Completed, "{}", a.name);
        assert_eq!(b.outcome, JobOutcome::Completed, "{}", b.name);
        assert_eq!(a.iters, b.iters, "{}", a.name);
        assert_eq!(a.total_ns, b.total_ns, "{}", a.name);
        assert_eq!(a.max_peak_bytes, b.max_peak_bytes, "{}", a.name);
    }
    // Both modes did the same total work.
    assert_eq!(bsp.report.busy_ns, des.report.busy_ns);
    assert_eq!(bsp.report.slo.goodput_iters, des.report.slo.goodput_iters);
}

#[test]
fn event_mode_is_thread_knob_independent() {
    let mk = |threads| {
        Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(2))
            .mode(Mode::EventDriven)
            .arrivals(ArrivalProcess::poisson(300_000, 9))
            .threads(threads)
            .run()
            .expect("serving run")
    };
    assert_eq!(mk(1).report.to_json(), mk(8).report.to_json());
}
