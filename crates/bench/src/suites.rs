//! The timed suites `bench_report` runs, one `BENCH_*.json` file each:
//! planner solves, the arena, and the recorded block-engine iteration.

use crate::harness::{BenchMeta, Criterion};
use crate::{synthetic_profile, tc_bert_model, tc_bert_profile};
use mimose_core::{repair_plan, GreedyBucketScheduler, KnapsackScheduler, RepairConfig, Scheduler};
use mimose_exec::{BlockIteration, DtrIteration};
use mimose_models::{BlockProfile, ModelInput, ModelProfile};
use mimose_planner::memory_model::peak_bytes;
use mimose_planner::{CheckmatePolicy, CheckpointPlan, MonetPolicy, SublinearPolicy};
use mimose_runtime::{EventLog, ExecEvent, NullRecorder, Recorder};
use mimose_simgpu::{AllocId, AllocPolicy, Arena, DeviceProfile};
use mimose_verify::{certify, plan_hash, SizeBucket};
use std::hint::black_box;

/// Planner suite: the hot-path solvers at 512- and 1024-block synthetic
/// profiles (the scales where an O(L) walk per candidate would dominate),
/// then Table I's offline solves on TC-Bert's worst-case input.
pub fn planner_suite(c: &mut Criterion) {
    planner_group(c, 512);
    planner_group(c, 1024);
    offline_solve_group(c);
}

fn planner_group(c: &mut Criterion, l: usize) {
    let p = synthetic_profile(l);
    // Just above the all-checkpointed floor, Mimose's operating regime
    // (the paper evaluates near the minimum feasible budget). On the
    // spiked profile the attention spike is then the binding peak, so
    // feasibility hinges on the small early blocks the greedy order ranks
    // last, and the planners' feasibility oracle becomes the hot path.
    let budget = near_floor_budget(&p, 256);
    let meta = BenchMeta {
        blocks: Some(l),
        ops_per_iter: None,
    };

    let mut g = c.benchmark_group(&format!("planner_solve_synthetic_{l}"));
    g.bench_function_with("greedy", meta, |b| {
        let s = GreedyBucketScheduler::new(0.10);
        b.iter(|| black_box(s.schedule(black_box(&p), budget)))
    });
    g.bench_function_with("knapsack", meta, |b| {
        let s = KnapsackScheduler;
        b.iter(|| black_box(s.schedule(black_box(&p), budget)))
    });
    g.bench_function_with("monet", meta, |b| {
        b.iter(|| black_box(MonetPolicy::plan_offline(black_box(&p), budget)))
    });
    g.bench_function_with("checkmate", meta, |b| {
        b.iter(|| black_box(CheckmatePolicy::plan_offline(black_box(&p), budget)))
    });
    // The certificate check a certified plan-cache bucket hit performs in
    // place of a planner re-solve: covers + fits + hash compare. Its cost
    // is the whole point of insert-time certification — it must sit orders
    // of magnitude under the greedy solve it replaces.
    let plan = GreedyBucketScheduler::new(0.10).schedule(&p, budget);
    let cert = certify(
        std::slice::from_ref(&p),
        &plan,
        SizeBucket::new(p.input_size, p.input_size),
        budget,
    )
    .expect("feasible plan certifies");
    let hash = plan_hash(&plan);
    g.bench_function_with("certificate_check_hit", meta, |b| {
        b.iter(|| {
            black_box(
                cert.covers(black_box(p.input_size))
                    && cert.fits(black_box(budget))
                    && cert.matches_hash(black_box(hash)),
            )
        })
    });
    // The ladder's middle rung on a bucket miss: repair the neighboring
    // bucket's cached plan (a handful of residency flips against the
    // incremental model) versus `cold_miss`, the bottom rung's full greedy
    // re-solve on the same profile. The acceptance criterion pins repair
    // ≥10× under cold at L = 1024. The scenario runs on the uniform-
    // intensity stack rather than the spiked profile: repair's quality
    // gate proves its result against the covering lower bound, and on the
    // adversarial spike that bound is ~20 % below what any integral plan
    // can reach, so the policy (correctly) refuses the rung there and
    // falls back cold. Uniform transformer stacks — the common case the
    // cache ladder exists for — are where the middle rung engages.
    let up = uniform_profile(l);
    let ubudget = near_floor_budget(&up, 1024);
    let donor_p = scaled_profile(&up, 100, 105); // ~5 % smaller neighbor bucket
    let donor =
        GreedyBucketScheduler::new(0.10).schedule(&donor_p, near_floor_budget(&donor_p, 1024));
    let repair_cfg = RepairConfig::default();
    assert!(
        repair_plan(&up, &donor, ubudget, &repair_cfg).is_some(),
        "repair bench scenario must actually take the repair rung"
    );
    g.bench_function_with("repair_hit", meta, |b| {
        b.iter(|| {
            black_box(repair_plan(
                black_box(&up),
                black_box(&donor),
                ubudget,
                &repair_cfg,
            ))
        })
    });
    g.bench_function_with("cold_miss", meta, |b| {
        let s = GreedyBucketScheduler::new(0.10);
        b.iter(|| black_box(s.schedule(black_box(&up), ubudget)))
    });
}

/// Table I's solving-time ordering: the offline solve of each static
/// planner on TC-Bert's worst-case input (seq 332) under a 5 GiB budget.
/// Checkmate and MONeT are timed on a real model nowhere else.
fn offline_solve_group(c: &mut Criterion) {
    let worst = tc_bert_profile(332);
    let budget = 5usize << 30;
    let meta = BenchMeta {
        blocks: Some(worst.blocks.len()),
        ops_per_iter: None,
    };
    let mut g = c.benchmark_group("offline_solve_tc_bert");
    g.bench_function_with("sublinear", meta, |b| {
        b.iter(|| black_box(SublinearPolicy::plan_offline(black_box(&worst), budget)))
    });
    g.bench_function_with("checkmate", meta, |b| {
        b.iter(|| black_box(CheckmatePolicy::plan_offline(black_box(&worst), budget)))
    });
    g.bench_function_with("monet", meta, |b| {
        b.iter(|| black_box(MonetPolicy::plan_offline(black_box(&worst), budget)))
    });
}

/// A budget `1/denom` of the way up from the all-checkpointed floor — the
/// near-minimum operating regime, parameterized so the repair scenario can
/// leave the trim pass a realistic margin.
fn near_floor_budget(p: &ModelProfile, denom: usize) -> usize {
    let n = p.blocks.len();
    let hi = peak_bytes(p, &CheckpointPlan::none(n));
    let lo = peak_bytes(p, &CheckpointPlan::all(n));
    lo + (hi - lo) / denom
}

/// A uniform transformer stack: every block shares one arithmetic
/// intensity (flops per activation byte), as identical decoder layers do.
/// On this shape the covering lower bound is tight, so the repair quality
/// gate engages — the scenario the plan-cache ladder is built for.
fn uniform_profile(l: usize) -> ModelProfile {
    let blocks = (0..l)
        .map(|i| {
            let act = (8usize << 20) + (i % 7) * (1 << 20); // 8–14 MiB
            BlockProfile {
                name: format!("layer{i}"),
                stage: 0,
                index: i,
                act_bytes: act,
                out_bytes: 4 << 20,
                in_bytes: 4 << 20,
                fwd_flops: act as f64 * 128.0,
                bwd_flops: act as f64 * 256.0,
                fwd_bytes_moved: act + (8 << 20),
                tensors: Vec::new(),
            }
        })
        .collect();
    ModelProfile {
        model: "uniform".into(),
        input: ModelInput::tokens(8, 2048),
        input_size: 2048,
        blocks,
        const_bytes: 2 << 30,
        param_count: 0,
        input_bytes: 8 << 20,
    }
}

/// The neighbor-bucket profile a repair starts from: every size-dependent
/// tensor field scaled by `num/den`, the way the estimator's fitted
/// polynomials move between adjacent buckets.
fn scaled_profile(p: &ModelProfile, num: usize, den: usize) -> ModelProfile {
    let mut q = p.clone();
    for b in &mut q.blocks {
        b.act_bytes = b.act_bytes * num / den;
        b.out_bytes = b.out_bytes * num / den;
        b.in_bytes = b.in_bytes * num / den;
        b.fwd_flops = b.fwd_flops * num as f64 / den as f64;
        b.fwd_bytes_moved = b.fwd_bytes_moved * num / den;
    }
    q.input_size = p.input_size * num / den;
    q
}

/// Arena capacity of the recorded iteration: large enough that the
/// engine never OOMs, so the stream is one clean attempt.
const ITERATION_CAPACITY: usize = 64 << 30;

/// The iteration the runtime and arena suites time: TC-Bert at seq 200
/// (batch 32), checkpointing blocks 1, 3, 5, 7 and 9, on a V100.
fn recorded_iteration() -> (ModelProfile, CheckpointPlan, DeviceProfile) {
    let p = tc_bert_profile(200);
    let plan =
        CheckpointPlan::from_indices(p.blocks.len(), &[1, 3, 5, 7, 9]).expect("indices in range");
    (p, plan, DeviceProfile::v100())
}

/// The event stream of one block-engine iteration of `plan` on `p`.
fn record_iteration(
    p: &ModelProfile,
    plan: &CheckpointPlan,
    dev: &DeviceProfile,
) -> Vec<ExecEvent> {
    let mut log = EventLog::new();
    let _ = BlockIteration::plan(p, plan)
        .device(dev)
        .capacity(ITERATION_CAPACITY)
        .run_into(&mut log);
    log.events
}

/// Recorded-iteration suite: one block-engine iteration (TC-Bert at seq
/// 200, blocks 1, 3, 5, 7 and 9 checkpointed) driven through
/// [`BlockIteration::run_into`] with the null recorder and with an
/// [`EventLog`], one DTR iteration on the same profile, the isolated
/// per-event record cost on the captured stream, and the profile call
/// itself on the raw and the optimized graph.
/// The simulated engine spends only ~8 ns of its own per event, so
/// `EventLog`'s push (each event moved into a reused `Vec`) adds about
/// half again to the null iteration; CI bounds `event_log` at 1.5× null
/// (see the recorder-overhead step in ci.yml). The `runtime_record_cost`
/// group carries the per-event number, which includes one clone per
/// event: the captured stream is kept for the next sample.
///
/// # Panics
/// Panics only if the fixture plan indices fall out of range for the
/// profile (impossible for the pinned TC-Bert shape).
pub fn runtime_suite(c: &mut Criterion) {
    let (p, plan, dev) = recorded_iteration();
    let n = p.blocks.len();
    let meta = BenchMeta {
        blocks: Some(n),
        ops_per_iter: None,
    };
    let mut g = c.benchmark_group("runtime_recorded_iteration");
    g.bench_function_with("null", meta, |b| {
        let mut rec = NullRecorder;
        b.iter(|| {
            black_box(
                BlockIteration::plan(&p, &plan)
                    .device(&dev)
                    .capacity(ITERATION_CAPACITY)
                    .run_into(&mut rec),
            )
        })
    });
    g.bench_function_with("event_log", meta, |b| {
        let mut log = EventLog::new();
        b.iter(|| {
            log.events.clear();
            black_box(
                BlockIteration::plan(&p, &plan)
                    .device(&dev)
                    .capacity(ITERATION_CAPACITY)
                    .run_into(&mut log),
            )
        })
    });
    // The tensor engine on the same profile, unrecorded like `null`: DTR
    // evicts under a 5 GiB budget in a 16 GiB arena.
    g.bench_function_with("dtr", meta, |b| {
        b.iter(|| {
            black_box(
                DtrIteration::new(black_box(&p), 5 << 30)
                    .device(&dev)
                    .capacity(16 << 30)
                    .run(),
            )
        })
    });

    // Pure record cost, isolated from the engine: replay a clone of the
    // captured per-iteration stream into the log. `ops_per_iter` makes the
    // JSON's per-event cost exact (the in-situ numbers above fold the
    // engine's own ~8 ns/event into the denominator).
    let stream = record_iteration(&p, &plan, &dev);
    let ops = BenchMeta {
        blocks: Some(n),
        ops_per_iter: Some(stream.len() as u64),
    };
    let mut g = c.benchmark_group("runtime_record_cost");
    g.bench_function_with("event_log", ops, |b| {
        let mut log = EventLog::new();
        b.iter(|| {
            log.events.clear();
            for ev in &stream {
                log.record(black_box(ev).clone());
            }
            black_box(log.events.len())
        })
    });

    // The profile every step builds for its input, on the raw graph and
    // on the optimized one: the pass annotations are a table lookup per
    // node, so both should cost the same.
    let raw = tc_bert_model();
    let opt = tc_bert_model().optimize();
    let input = ModelInput::tokens(32, 200);
    let mut g = c.benchmark_group("graph_profile");
    g.bench_function_with("raw", meta, |b| {
        b.iter(|| black_box(raw.profile(black_box(&input)).expect("validates")))
    });
    g.bench_function_with("annotated", meta, |b| {
        b.iter(|| black_box(opt.profile(black_box(&input)).expect("validates")))
    });
}

/// Number of allocator calls `frag_heavy` makes (for ops/sec reporting).
pub const FRAG_HEAVY_OPS: u64 = {
    // Phase 1: 768 allocs; phase 2: 384 frees; phase 3: 512 allocs;
    // phase 4: 384 + 512 frees.
    768 + 384 + 512 + 384 + 512
};

/// Fragmentation-heavy allocator workload: a broad carve phase, a
/// hole-punching phase that leaves ~384 free ranges, a small-object phase
/// that must hunt through those holes, then a full teardown.
/// Deterministic sizes (index arithmetic, no RNG).
fn frag_heavy(a: &mut Arena) {
    let mut live: Vec<Option<AllocId>> = Vec::with_capacity(768);
    // Phase 1: 768 varied allocations (~4 KiB .. ~768 KiB).
    for i in 0..768usize {
        let sz = 4096 + (i * 7919) % (768 << 10);
        live.push(Some(a.alloc(sz).expect("phase 1 fits")));
    }
    // Phase 2: free every other one — ~384 non-adjacent holes.
    for slot in live.iter_mut().step_by(2) {
        a.free(slot.take().expect("live"));
    }
    // Phase 3: 512 small allocations that must search the hole field.
    let mut small: Vec<AllocId> = Vec::with_capacity(512);
    for i in 0..512usize {
        let sz = 1024 + (i * 104_729) % (12 << 10);
        small.push(a.alloc(sz).expect("phase 3 fits"));
    }
    // Phase 4: tear down everything still live.
    for slot in live.iter_mut() {
        if let Some(id) = slot.take() {
            a.free(id);
        }
    }
    for id in small {
        a.free(id);
    }
}

/// One allocator call of a recorded iteration.
#[derive(Debug, Clone, Copy)]
enum ArenaOp {
    Alloc(usize),
    Free(AllocId),
}

/// The `Alloc`/`Free` calls of a recorded stream, in order.
///
/// # Panics
/// Panics when the stream did not come from a fresh arena: a fresh arena
/// issues ids 0, 1, 2, … in call order, so a replay on one frees exactly
/// the allocations the recording freed.
fn arena_ops(stream: &[ExecEvent]) -> Vec<ArenaOp> {
    let mut allocs = 0u64;
    stream
        .iter()
        .filter_map(|ev| match *ev {
            ExecEvent::Alloc { id, requested, .. } => {
                assert_eq!(id.raw(), allocs, "the stream starts on a fresh arena");
                allocs += 1;
                Some(ArenaOp::Alloc(requested))
            }
            ExecEvent::Free { id, .. } => Some(ArenaOp::Free(id)),
            _ => None,
        })
        .collect()
}

/// Arena suite: the sorted-`Vec` arena on the fragmentation-heavy
/// workload (about 384 holes, the many-range case) under both fit
/// policies, and the allocator calls of the runtime suite's recorded
/// iteration (a handful of ranges, the engines' case) replayed on a fresh
/// arena.
///
/// # Panics
/// Panics only if a replayed call fails where the recording succeeded,
/// which a deterministic arena rules out.
pub fn arena_suite(c: &mut Criterion) {
    const CAP: usize = 1 << 30;
    let meta = BenchMeta {
        blocks: None,
        ops_per_iter: Some(FRAG_HEAVY_OPS),
    };
    let mut g = c.benchmark_group("arena_frag_heavy");
    g.bench_function_with("first_fit", meta, |b| {
        b.iter_batched_ref(
            || Arena::with_policy(CAP, AllocPolicy::FirstFit),
            frag_heavy,
        )
    });
    g.bench_function_with("best_fit", meta, |b| {
        b.iter_batched_ref(|| Arena::with_policy(CAP, AllocPolicy::BestFit), frag_heavy)
    });

    let (p, plan, dev) = recorded_iteration();
    let ops = arena_ops(&record_iteration(&p, &plan, &dev));
    let meta = BenchMeta {
        blocks: Some(p.blocks.len()),
        ops_per_iter: Some(ops.len() as u64),
    };
    let mut g = c.benchmark_group("arena_replay");
    g.bench_function_with("tc_bert_seq200", meta, |b| {
        b.iter_batched_ref(
            || Arena::with_policy(ITERATION_CAPACITY, AllocPolicy::FirstFit),
            |a| {
                for &op in &ops {
                    match op {
                        ArenaOp::Alloc(bytes) => {
                            black_box(a.alloc(bytes).expect("the recorded iteration fit"));
                        }
                        ArenaOp::Free(id) => {
                            black_box(a.free(id));
                        }
                    }
                }
            },
        )
    });
}
