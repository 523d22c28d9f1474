//! The benchmark's own guarantees: tracing changes nothing simulated, the
//! span split adds up to the traced total, every workload passes its checks
//! at smoke size, and `BENCHMARK.json` matches the metrics the binary emits.

use mimose_e2e::bench::WORKLOADS;
use mimose_e2e::fleet::{self, Fleet};
use mimose_e2e::json::Json;
use mimose_e2e::metrics::{END_TO_END, PER_LAYER};
use mimose_e2e::spans::Spans;
use mimose_e2e::train::{self, Mode, Train};
use std::process::Command;

#[test]
fn tracing_changes_no_iteration_report() {
    for train in [Train::epoch(5, true), Train::chaos(5, true)] {
        let plain = train.round(Mode::Timed).unwrap();
        let spans = Spans::default();
        let traced = train.round(Mode::Traced(&spans)).unwrap();
        let recorded = train.round(Mode::Recorded).unwrap();
        // The digests hash every report's full `Debug` bytes.
        assert_eq!(plain.sim.digest.finish(), traced.sim.digest.finish());
        assert_eq!(plain.sim.digest.finish(), recorded.sim.digest.finish());
        assert_eq!(plain.sim.iters, traced.sim.iters);
        assert!(recorded.events > 0);
    }
}

#[test]
fn train_spans_add_up_to_the_traced_total() {
    let train = Train::epoch(6, true);
    let spans = Spans::default();
    let round = train.round(Mode::Traced(&spans)).unwrap();
    let store = spans.snapshot();
    let parts: u64 = train::TOP_LEVEL.iter().map(|s| store.total(s)).sum();
    let rest = train::unattributed_ns(&store, round.wall_ns);
    assert!(
        rest >= 0,
        "top-level spans overlap: {parts} ns of {} ns",
        round.wall_ns
    );
    assert_eq!(i128::from(parts) + rest, i128::from(round.wall_ns));
    // One step span per iteration, one plan and one observe call per step.
    assert_eq!(store.count("exec.step"), round.sim.iters);
    assert_eq!(store.count("core.plan"), round.sim.iters);
    assert_eq!(store.count("core.observe"), round.sim.iters);
    let tiers: usize = mimose_e2e::spans::TIERS
        .iter()
        .map(|t| store.count(t))
        .sum();
    assert_eq!(tiers, round.sim.iters, "every plan call has one rung");
    assert_eq!(store.count("estimator.fit"), train.tasks.len());
}

#[test]
fn fleet_replay_reproduces_the_cluster_and_adds_up() {
    let fleet = Fleet::new(fleet::Kind::Serve, 3, true);
    let (a, _) = fleet.round(false).unwrap();
    let (b, _) = fleet.round(false).unwrap();
    assert_eq!(a.report.to_json(), b.report.to_json());
    let spans = Spans::default();
    let t0 = std::time::Instant::now();
    fleet.replay(&a, &spans).unwrap();
    let total = mimose_e2e::spans::elapsed_ns(t0);
    let store = spans.snapshot();
    assert!(fleet::unattributed_ns(&store, total) >= 0);
    let dispatched = a.report.jobs.iter().filter(|j| j.device.is_some()).count();
    assert_eq!(store.count("exec.session_build"), dispatched);
    let iters: usize = a.report.jobs.iter().map(|j| j.iters).sum();
    assert_eq!(store.count("exec.replay_step"), iters);
}

#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let expect = |set: &[mimose_e2e::metrics::Metric]| -> Vec<(String, String)> {
        set.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(END_TO_END));
    assert_eq!(names("per_layer"), expect(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let bounds = mimose_e2e::compare::bounds(&std::fs::read_to_string(path).unwrap()).unwrap();
    let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
    for b in &bounds {
        assert!(
            b.bound > 0.0 && b.bound <= setup.bound && b.bound <= 0.25,
            "{b:?}"
        );
    }
}

#[test]
fn smoke_run_passes_every_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--smoke", "--trace", "1", "--seconds", "0"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(results.len(), WORKLOADS.len());
    for r in results {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        let metrics = r.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
    for w in WORKLOADS {
        for m in END_TO_END {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("{w} {} ", m.name))),
                "{w} {} missing",
                m.name
            );
        }
    }
}
