//! Before/after benchmark suites for the planning hot path and the arena.
//!
//! The "before" side of each pair is a **frozen copy** of the
//! pre-optimisation algorithm (the seed's O(L) peak-walk planners and the
//! linear-scan arena), kept here — and only here — so the speedup of the
//! incremental residency engine and the size-indexed free list stays
//! measurable after the production code moved on. The frozen copies are
//! driven by the `*_reference` peak walks, which are themselves the
//! differential-test oracles, so "before" also doubles as a correctness
//! cross-check: before and after must produce plans with identical peaks.

use crate::harness::{BatchSize, BenchMeta, Criterion};
use crate::synthetic_profile;
use mimose_core::{repair_plan, GreedyBucketScheduler, KnapsackScheduler, RepairConfig, Scheduler};
use mimose_exec::BlockIteration;
use mimose_models::{BlockProfile, ModelInput, ModelProfile};
use mimose_planner::memory_model::peak_bytes;
use mimose_planner::{CheckmatePolicy, CheckpointPlan, MonetPolicy};
use mimose_runtime::{EventLog, NullRecorder, Recorder};
use mimose_simgpu::{AllocPolicy, Arena, DeviceProfile};
use mimose_verify::{certify, plan_hash, SizeBucket};
use std::hint::black_box;

/// Frozen pre-optimisation algorithms (see module docs).
pub mod baseline {
    use mimose_models::ModelProfile;
    use mimose_planner::memory_model::{peak_bytes_fine_reference, peak_bytes_reference, FinePlan};
    use mimose_planner::CheckpointPlan;
    use std::collections::BTreeMap;

    /// Seed-version bucket construction (unchanged in production; copied so
    /// the frozen scheduler is self-contained).
    fn build_buckets(est_mem: &[usize], tolerance: f64) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..est_mem.len()).collect();
        order.sort_by(|&a, &b| est_mem[b].cmp(&est_mem[a]));
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let head = order[i];
            let head_mem = est_mem[head] as f64;
            let mut bucket = vec![head];
            let mut j = i + 1;
            while j < order.len() && est_mem[order[j]] as f64 > head_mem * (1.0 - tolerance) {
                bucket.push(order[j]);
                j += 1;
            }
            bucket.sort_unstable();
            buckets.push(bucket);
            i = j;
        }
        buckets
    }

    /// Seed-version greedy bucket scheduler: scalar excess bookkeeping with
    /// an O(L) peak walk per verification step and O(B) bucket scans plus
    /// `Vec::remove(0)` per selection.
    #[must_use]
    pub fn greedy_bucket(est: &ModelProfile, budget: usize, tolerance: f64) -> CheckpointPlan {
        let n = est.blocks.len();
        let mut plan = CheckpointPlan::none(n);
        if peak_bytes_reference(est, &plan) <= budget {
            return plan;
        }
        let est_mem: Vec<usize> = est.blocks.iter().map(|b| b.act_bytes).collect();
        let mut buckets = build_buckets(&est_mem, tolerance);
        let total: usize = peak_bytes_reference(est, &plan);
        let mut excess = total as i64 - budget as i64;
        while excess > 0 {
            let candidate = buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .filter(|(_, b)| est_mem[b[0]] as i64 >= excess)
                .min_by_key(|(_, b)| est_mem[b[0]]);
            let bi = match candidate {
                Some((bi, _)) => bi,
                None => {
                    match buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| !b.is_empty())
                        .max_by_key(|(_, b)| est_mem[b[0]])
                    {
                        Some((bi, _)) => bi,
                        None => break,
                    }
                }
            };
            let l = buckets[bi].remove(0);
            plan.set(l, true);
            excess -= est_mem[l] as i64;
        }
        while peak_bytes_reference(est, &plan) > budget {
            let next = buckets
                .iter_mut()
                .filter(|b| !b.is_empty())
                .max_by_key(|b| est_mem[b[0]]);
            match next {
                Some(b) => {
                    let l = b.remove(0);
                    plan.set(l, true);
                }
                None => break,
            }
        }
        plan
    }

    /// Seed-version knapsack scheduler: one O(L) peak walk per candidate.
    #[must_use]
    pub fn knapsack(est: &ModelProfile, budget: usize) -> CheckpointPlan {
        let n = est.blocks.len();
        let plan = CheckpointPlan::none(n);
        if peak_bytes_reference(est, &plan) <= budget {
            return plan;
        }
        let mut plan = CheckpointPlan::all(n);
        for i in (0..n).rev() {
            plan.set(i, false);
            if peak_bytes_reference(est, &plan) > budget {
                plan.set(i, true);
            }
        }
        plan
    }

    /// Seed-version MONeT greedy + prune: one O(L) fine peak walk per
    /// candidate evaluation.
    #[must_use]
    pub fn monet(reference: &ModelProfile, budget: usize) -> FinePlan {
        struct Candidate {
            block: usize,
            bytes: usize,
            flops: f64,
        }
        fn apply(plan: &mut FinePlan, c: &Candidate, on: bool) {
            if on {
                plan.dropped_bytes[c.block] += c.bytes;
                plan.recompute_flops[c.block] += c.flops;
            } else {
                plan.dropped_bytes[c.block] -= c.bytes;
                plan.recompute_flops[c.block] = (plan.recompute_flops[c.block] - c.flops).max(0.0);
            }
        }
        let n = reference.blocks.len();
        let mut candidates: Vec<Candidate> = Vec::new();
        for (bi, b) in reference.blocks.iter().enumerate() {
            for t in &b.tensors {
                candidates.push(Candidate {
                    block: bi,
                    bytes: t.bytes,
                    flops: t.fwd_flops * 1.3,
                });
            }
        }
        let mut plan = FinePlan::none(n);
        let mut selected = vec![false; candidates.len()];
        let mut feasible = peak_bytes_fine_reference(reference, &plan) <= budget;
        if !feasible {
            let mut order: Vec<usize> = (0..candidates.len()).collect();
            order.sort_by(|&a, &b| {
                let ea = candidates[a].bytes as f64 / candidates[a].flops.max(1.0);
                let eb = candidates[b].bytes as f64 / candidates[b].flops.max(1.0);
                eb.total_cmp(&ea)
            });
            for &ci in &order {
                apply(&mut plan, &candidates[ci], true);
                selected[ci] = true;
                if peak_bytes_fine_reference(reference, &plan) <= budget {
                    feasible = true;
                    break;
                }
            }
            if feasible {
                let mut sel: Vec<usize> = (0..candidates.len()).filter(|&i| selected[i]).collect();
                sel.sort_by(|&a, &b| candidates[b].flops.total_cmp(&candidates[a].flops));
                for &ci in &sel {
                    apply(&mut plan, &candidates[ci], false);
                    if peak_bytes_fine_reference(reference, &plan) <= budget {
                        selected[ci] = false;
                    } else {
                        apply(&mut plan, &candidates[ci], true);
                    }
                }
            }
        }
        for (i, b) in reference.blocks.iter().enumerate() {
            plan.recompute_flops[i] = plan.recompute_flops[i].min(b.fwd_flops * 1.05);
        }
        plan
    }

    /// Seed-version arena: single address-ordered free list, linear-scan fit
    /// selection, and — the dominant cost — an O(n) `largest_free` scan run
    /// twice per successful allocation for the fragmentation watermarks.
    /// Trimmed of tracing; the allocation/free cost structure is intact.
    pub struct LinearArena {
        capacity: usize,
        best_fit: bool,
        free: BTreeMap<usize, usize>,
        live: BTreeMap<u64, (usize, usize)>,
        next_id: u64,
        used: usize,
        peak_frag: usize,
        peak_footprint: usize,
    }

    impl LinearArena {
        const ALIGN: usize = 512;

        /// Arena of `capacity` bytes; `best_fit` selects the fit policy.
        #[must_use]
        pub fn new(capacity: usize, best_fit: bool) -> Self {
            let mut free = BTreeMap::new();
            if capacity > 0 {
                free.insert(0, capacity);
            }
            LinearArena {
                capacity,
                best_fit,
                free,
                live: BTreeMap::new(),
                next_id: 0,
                used: 0,
                peak_frag: 0,
                peak_footprint: 0,
            }
        }

        fn aligned(bytes: usize) -> usize {
            ((bytes + Self::ALIGN - 1) & !(Self::ALIGN - 1)).max(Self::ALIGN)
        }

        fn largest_free(&self) -> usize {
            self.free.values().copied().max().unwrap_or(0)
        }

        fn fragmentation_bytes(&self) -> usize {
            (self.capacity - self.used) - self.largest_free()
        }

        /// Allocate; `None` on OOM.
        pub fn alloc(&mut self, bytes: usize) -> Option<u64> {
            let need = Self::aligned(bytes);
            let slot = if self.best_fit {
                self.free
                    .iter()
                    .filter(|(_, &len)| len >= need)
                    .min_by_key(|(&addr, &len)| (len, addr))
                    .map(|(&addr, &len)| (addr, len))
            } else {
                self.free
                    .iter()
                    .find(|(_, &len)| len >= need)
                    .map(|(&addr, &len)| (addr, len))
            };
            let (addr, len) = slot?;
            self.free.remove(&addr);
            if len > need {
                self.free.insert(addr + need, len - need);
            }
            let id = self.next_id;
            self.next_id += 1;
            self.live.insert(id, (addr, need));
            self.used += need;
            self.peak_frag = self.peak_frag.max(self.fragmentation_bytes());
            self.peak_footprint = self
                .peak_footprint
                .max(self.used + self.fragmentation_bytes());
            Some(id)
        }

        /// Free a live allocation.
        ///
        /// # Panics
        ///
        /// Panics when `id` is not live.
        pub fn free(&mut self, id: u64) {
            let (addr, len) = self.live.remove(&id).expect("live id");
            self.used -= len;
            let mut start = addr;
            let mut length = len;
            if let Some((&paddr, &plen)) = self.free.range(..addr).next_back() {
                if paddr + plen == addr {
                    self.free.remove(&paddr);
                    start = paddr;
                    length += plen;
                }
            }
            if let Some((&naddr, &nlen)) = self.free.range(addr + len..).next() {
                if addr + len == naddr {
                    self.free.remove(&naddr);
                    length += nlen;
                }
            }
            self.free.insert(start, length);
            self.peak_footprint = self
                .peak_footprint
                .max(self.used + self.fragmentation_bytes());
        }
    }
}

/// Pick a budget just above the all-checkpointed floor — Mimose's operating
/// regime (the paper evaluates near the minimum feasible budget). On the
/// spiked synthetic profile this makes the attention spike the binding
/// peak, so feasibility hinges on the small early blocks the greedy order
/// ranks last, and the planners' feasibility oracle becomes the hot path.
fn tight_budget(p: &ModelProfile) -> usize {
    let n = p.blocks.len();
    let hi = peak_bytes(p, &CheckpointPlan::none(n));
    let lo = peak_bytes(p, &CheckpointPlan::all(n));
    lo + (hi - lo) / 256
}

/// Planner hot-path suite: before/after pairs at 512- and 1024-block
/// synthetic profiles (the scales where the O(L) walk per candidate
/// dominates; the ratio roughly doubles from 512 to 1024 because the
/// "before" solvers are O(L²)).
pub fn planner_suite(c: &mut Criterion) {
    planner_group(c, 512);
    planner_group(c, 1024);
}

fn planner_group(c: &mut Criterion, l: usize) {
    let p = synthetic_profile(l);
    let budget = tight_budget(&p);
    let meta = BenchMeta {
        blocks: Some(l),
        ops_per_iter: None,
    };

    // Sanity: before and after must agree on plan quality (equal peaks are
    // not guaranteed — selection order can differ once est_mem ties — but
    // both must be feasible).
    assert!(
        peak_bytes(&p, &baseline::greedy_bucket(&p, budget, 0.10)) <= budget,
        "frozen greedy baseline produced an infeasible plan"
    );
    assert!(
        peak_bytes(&p, &GreedyBucketScheduler::new(0.10).schedule(&p, budget)) <= budget,
        "production greedy produced an infeasible plan"
    );

    let mut g = c.benchmark_group(&format!("planner_solve_synthetic_{l}"));
    g.bench_function_with("greedy_before", meta, |b| {
        b.iter(|| black_box(baseline::greedy_bucket(black_box(&p), budget, 0.10)))
    });
    g.bench_function_with("greedy_after", meta, |b| {
        let s = GreedyBucketScheduler::new(0.10);
        b.iter(|| black_box(s.schedule(black_box(&p), budget)))
    });
    g.bench_function_with("knapsack_before", meta, |b| {
        b.iter(|| black_box(baseline::knapsack(black_box(&p), budget)))
    });
    g.bench_function_with("knapsack_after", meta, |b| {
        let s = KnapsackScheduler;
        b.iter(|| black_box(s.schedule(black_box(&p), budget)))
    });
    g.bench_function_with("monet_before", meta, |b| {
        b.iter(|| black_box(baseline::monet(black_box(&p), budget)))
    });
    g.bench_function_with("monet_after", meta, |b| {
        b.iter(|| black_box(MonetPolicy::plan_offline(black_box(&p), budget)))
    });
    // The seed checkmate is O(L^3)-ish at these scales — minutes per solve —
    // so only the rewired planner is benched.
    g.bench_function_with("checkmate_after", meta, |b| {
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
    g.finish();
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

/// Recorded-iteration suite: one block-engine iteration (TC-Bert, seq 200,
/// alternating plan) driven through [`BlockIteration::run_into`] with the
/// null recorder and with an [`EventLog`], plus the isolated per-event
/// record cost on the captured stream. The simulated engine does only
/// ~100 ns of bookkeeping per event, so even `EventLog`'s raw push shows
/// up at ~5–10 %; CI bounds `event_log` at 1.5× null (see the
/// recorder-overhead step in ci.yml), and the `runtime_record_cost` group
/// carries the exact per-event number.
///
/// # Panics
/// Panics only if the fixture plan indices fall out of range for the
/// profile (impossible for the pinned TC-Bert shape).
pub fn runtime_suite(c: &mut Criterion) {
    let p = crate::tc_bert_profile(200);
    let n = p.blocks.len();
    let plan = CheckpointPlan::from_indices(n, &[1, 3, 5, 7, 9]).expect("indices in range");
    let dev = DeviceProfile::v100();
    let cap = 64usize << 30;
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
                    .capacity(cap)
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
                    .capacity(cap)
                    .run_into(&mut log),
            )
        })
    });
    g.finish();

    // Pure record cost, isolated from the engine: replay the captured
    // per-iteration stream into each recorder. `ops_per_iter` makes the
    // JSON's per-event cost exact (the in-situ numbers above fold the
    // engine's own ~100 ns/event of bookkeeping into the denominator).
    let mut log = EventLog::new();
    let _ = BlockIteration::plan(&p, &plan)
        .device(&dev)
        .capacity(cap)
        .run_into(&mut log);
    let stream = log.events;
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
                log.record(black_box(ev));
            }
            black_box(log.events.len())
        })
    });
    g.finish();
}

/// Number of allocator calls `frag_heavy` makes (for ops/sec reporting).
pub const FRAG_HEAVY_OPS: u64 = {
    // Phase 1: 768 allocs; phase 2: 384 frees; phase 3: 512 allocs;
    // phase 4: 384 + 512 frees.
    768 + 384 + 512 + 384 + 512
};

/// Arena surface the fragmentation workload drives (one impl per side of
/// the before/after pair).
trait BenchArena {
    type Id;
    fn try_alloc(&mut self, bytes: usize) -> Option<Self::Id>;
    fn release(&mut self, id: Self::Id);
}

impl BenchArena for baseline::LinearArena {
    type Id = u64;
    fn try_alloc(&mut self, bytes: usize) -> Option<u64> {
        self.alloc(bytes)
    }
    fn release(&mut self, id: u64) {
        self.free(id)
    }
}

impl BenchArena for Arena {
    type Id = mimose_simgpu::AllocId;
    fn try_alloc(&mut self, bytes: usize) -> Option<Self::Id> {
        self.alloc(bytes).ok()
    }
    fn release(&mut self, id: Self::Id) {
        self.free(id)
    }
}

/// Fragmentation-heavy allocator workload, generic over the arena: a broad
/// carve phase, a hole-punching phase that leaves ~384 free ranges, a
/// small-object phase that must hunt through those holes, then a full
/// teardown. Deterministic sizes (index arithmetic, no RNG).
fn frag_heavy<A: BenchArena>(a: &mut A) {
    let mut live: Vec<Option<A::Id>> = Vec::with_capacity(768);
    // Phase 1: 768 varied allocations (~4 KiB .. ~768 KiB).
    for i in 0..768usize {
        let sz = 4096 + (i * 7919) % (768 << 10);
        live.push(Some(a.try_alloc(sz).expect("phase 1 fits")));
    }
    // Phase 2: free every other one — ~384 non-adjacent holes.
    for slot in live.iter_mut().step_by(2) {
        a.release(slot.take().expect("live"));
    }
    // Phase 3: 512 small allocations that must search the hole field.
    let mut small: Vec<A::Id> = Vec::with_capacity(512);
    for i in 0..512usize {
        let sz = 1024 + (i * 104_729) % (12 << 10);
        small.push(a.try_alloc(sz).expect("phase 3 fits"));
    }
    // Phase 4: tear down everything still live.
    for slot in live.iter_mut() {
        if let Some(id) = slot.take() {
            a.release(id);
        }
    }
    for id in small {
        a.release(id);
    }
}

/// Arena suite: frozen linear-scan arena vs the size-indexed arena on the
/// fragmentation-heavy workload, both fit policies.
pub fn arena_suite(c: &mut Criterion) {
    const CAP: usize = 1 << 30;
    let meta = BenchMeta {
        blocks: None,
        ops_per_iter: Some(FRAG_HEAVY_OPS),
    };
    let mut g = c.benchmark_group("arena_frag_heavy");
    g.bench_function_with("first_fit_before", meta, |b| {
        b.iter_batched_ref(
            || baseline::LinearArena::new(CAP, false),
            frag_heavy,
            BatchSize::SmallInput,
        )
    });
    g.bench_function_with("first_fit_after", meta, |b| {
        b.iter_batched_ref(
            || Arena::with_policy(CAP, AllocPolicy::FirstFit),
            frag_heavy,
            BatchSize::SmallInput,
        )
    });
    g.bench_function_with("best_fit_before", meta, |b| {
        b.iter_batched_ref(
            || baseline::LinearArena::new(CAP, true),
            frag_heavy,
            BatchSize::SmallInput,
        )
    });
    g.bench_function_with("best_fit_after", meta, |b| {
        b.iter_batched_ref(
            || Arena::with_policy(CAP, AllocPolicy::BestFit),
            frag_heavy,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}
