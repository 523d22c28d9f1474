//! Mode-equivalence properties of the fleet driver.
//!
//! 1. The event-driven mode degenerates to BSP: with every arrival at
//!    `t = 0`, no faults and no queue bound, each job's per-iteration
//!    evidence (reports, outcome, iteration count) matches the BSP run
//!    job-for-job — the two clocks differ in *when* decisions happen,
//!    never in *how* a job executes.
//! 2. The thread knob never changes an event-mode report, whether one job
//!    or several step at an event boundary.

use mimose_cluster::{ArrivalProcess, Cluster, DevicePool, JobOutcome, Mode, Workload};

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
    // Immediate arrivals start two jobs at t = 0, so the step pass takes
    // its threaded branch.
    for arrivals in [
        ArrivalProcess::poisson(300_000, 9),
        ArrivalProcess::Immediate,
    ] {
        let mk = |threads| {
            Cluster::builder()
                .devices(DevicePool::v100(2))
                .workload(Workload::mixed(2))
                .mode(Mode::EventDriven)
                .arrivals(arrivals.clone())
                .threads(threads)
                .run()
                .expect("serving run")
        };
        assert_eq!(
            mk(1).report.to_json(),
            mk(8).report.to_json(),
            "{}",
            arrivals.name()
        );
    }
}
