//! Differential properties of the incremental residency engine: after any
//! sequence of mutations, [`ResidencyModel::peak`] must equal the original
//! O(L) reference walk over the equivalent plan — the engine is an index,
//! never a second opinion.
//!
//! All cases are seeded-deterministic (see `mimose::rng`), so failures
//! reproduce exactly.

use mimose::core::{GreedyBucketScheduler, KnapsackScheduler, Scheduler};
use mimose::models::{BlockProfile, ModelInput, ModelProfile, TensorRecord};
use mimose::ops::OpCategory;
use mimose::planner::memory_model::{
    peak_bytes_fine_reference, peak_bytes_reference, recompute_flops, FinePlan,
};
use mimose::planner::{CheckpointPlan, MonetPolicy, ResidencyModel};
use mimose::rng::{Rng, SeedableRng, StdRng};

/// A random synthetic profile: `n` blocks with independently drawn tensor
/// sizes, including degenerate zero-byte blocks and zero-cost boundaries.
fn random_profile(rng: &mut StdRng, n: usize) -> ModelProfile {
    let blocks = (0..n)
        .map(|i| BlockProfile {
            name: format!("blk{i}"),
            stage: 0,
            index: i,
            act_bytes: if rng.gen_bool(0.1) {
                0
            } else {
                rng.gen_range(1usize..64 << 20)
            },
            out_bytes: rng.gen_range(0usize..8 << 20),
            in_bytes: rng.gen_range(0usize..8 << 20),
            fwd_flops: rng.gen_range(0.0..1e12),
            bwd_flops: rng.gen_range(0.0..2e12),
            fwd_bytes_moved: rng.gen_range(0usize..1 << 20),
            tensors: Vec::new(),
        })
        .collect();
    ModelProfile {
        model: "synthetic".into(),
        input: ModelInput::tokens(1, 1),
        input_size: 1,
        blocks,
        const_bytes: rng.gen_range(0usize..2 << 30),
        param_count: 0,
        input_bytes: rng.gen_range(0usize..64 << 20),
    }
}

fn random_plan(rng: &mut StdRng, n: usize) -> CheckpointPlan {
    let mut plan = CheckpointPlan::none(n);
    for i in 0..n {
        plan.set(i, rng.gen::<bool>());
    }
    plan
}

/// Core differential property: over many random profiles × random flip
/// sequences, the engine's O(1) peak query matches the reference walk after
/// *every* mutation. Well over 1000 randomized flip sequences in total.
#[test]
fn peak_matches_reference_after_every_flip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    let mut sequences = 0usize;
    for _case in 0..150 {
        let n = rng.gen_range(1usize..96);
        let profile = random_profile(&mut rng, n);
        for _seq in 0..8 {
            sequences += 1;
            let mut plan = random_plan(&mut rng, n);
            let mut model = ResidencyModel::from_plan(&profile, &plan);
            assert_eq!(model.peak(), peak_bytes_reference(&profile, &plan));
            for _step in 0..24 {
                let i = rng.gen_range(0usize..n);
                plan.set(i, !plan.is_checkpointed(i));
                model.flip(i);
                assert_eq!(
                    model.peak(),
                    peak_bytes_reference(&profile, &plan),
                    "divergence after flipping block {i} of {n}"
                );
            }
            assert_eq!(model.to_plan(), plan);
            assert_eq!(
                model.recompute_flops(),
                recompute_flops(&profile, &plan),
                "recompute cost diverged from the reference"
            );
        }
    }
    assert!(sequences >= 1000, "only {sequences} sequences exercised");
}

/// Fine-granularity differential: partial drops (MONeT-style) tracked via
/// `set_dropped` match the fine reference walk, including over-drop clamping.
#[test]
fn fine_peak_matches_reference_after_every_mutation() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for _case in 0..120 {
        let n = rng.gen_range(1usize..64);
        let profile = random_profile(&mut rng, n);
        let mut plan = FinePlan::none(n);
        let mut model = ResidencyModel::from_fine(&profile, &plan);
        for _step in 0..32 {
            let i = rng.gen_range(0usize..n);
            // Occasionally request more than the block holds; both the
            // reference walk and the engine clamp to act_bytes.
            let dropped = if rng.gen_bool(0.1) {
                profile.blocks[i].act_bytes + rng.gen_range(0usize..1 << 20)
            } else {
                rng.gen_range(0usize..profile.blocks[i].act_bytes + 1)
            };
            plan.dropped_bytes[i] = dropped;
            model.set_dropped(i, dropped);
            assert_eq!(
                model.peak(),
                peak_bytes_fine_reference(&profile, &plan),
                "fine divergence after dropping {dropped} B from block {i}"
            );
        }
    }
}

/// Undo restores the exact pre-mutation state: peak, plan, and journal
/// behave as a stack regardless of which mutation kind is being undone.
#[test]
fn undo_and_mark_restore_exact_state() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for _case in 0..100 {
        let n = rng.gen_range(1usize..48);
        let profile = random_profile(&mut rng, n);
        let plan = random_plan(&mut rng, n);
        let mut model = ResidencyModel::from_plan(&profile, &plan);
        let peak0 = model.peak();
        let mark = model.mark();
        let steps = rng.gen_range(1usize..16);
        for _ in 0..steps {
            match rng.gen_range(0u32..3) {
                0 => model.flip(rng.gen_range(0usize..n)),
                1 => {
                    let i = rng.gen_range(0usize..n);
                    let on = rng.gen::<bool>();
                    model.set_checkpointed(i, on);
                }
                _ => {
                    let i = rng.gen_range(0usize..n);
                    let d = rng.gen_range(0usize..profile.blocks[i].act_bytes + 1);
                    model.set_dropped(i, d);
                }
            }
        }
        model.undo_to(mark);
        assert_eq!(model.peak(), peak0, "undo_to did not restore the peak");
        assert_eq!(model.to_plan(), plan, "undo_to did not restore the plan");
    }
}

/// Single-step undo pairs with every mutation, including no-op mutations
/// (`set_checkpointed` to the current state must still journal one entry).
#[test]
fn every_mutation_pairs_with_one_undo() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for _case in 0..60 {
        let n = rng.gen_range(1usize..32);
        let profile = random_profile(&mut rng, n);
        let mut model = ResidencyModel::from_plan(&profile, &CheckpointPlan::none(n));
        let mut peaks = vec![model.peak()];
        let steps = rng.gen_range(1usize..20);
        for _ in 0..steps {
            let i = rng.gen_range(0usize..n);
            // ~half the time this is a no-op (already in the target state).
            model.set_checkpointed(i, rng.gen::<bool>());
            peaks.push(model.peak());
        }
        for _ in 0..steps {
            assert!(model.undo(), "journal exhausted early");
            peaks.pop();
            assert_eq!(model.peak(), *peaks.last().unwrap());
        }
        assert!(!model.undo(), "journal should be empty");
    }
}

/// Non-mutating what-if queries agree with actually mutating and undoing:
/// `peak_if_kept` / `peak_if_checkpointed` / `peak_if_dropped` are pure
/// reads — they must return exactly the post-mutation peak while leaving
/// peak, plan, and journal untouched.
#[test]
fn what_if_queries_match_mutate_then_undo() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0006);
    for _case in 0..100 {
        let n = rng.gen_range(1usize..64);
        let profile = random_profile(&mut rng, n);
        let plan = random_plan(&mut rng, n);
        let mut model = ResidencyModel::from_plan(&profile, &plan);
        // Drift into a random mixed state so queries run against non-trivial
        // pending suffix adds in the tree.
        for _ in 0..rng.gen_range(0usize..16) {
            let i = rng.gen_range(0usize..n);
            model.set_dropped(i, rng.gen_range(0usize..profile.blocks[i].act_bytes + 2));
        }
        model.commit();
        let peak0 = model.peak();
        let plan0 = model.to_plan();
        for _probe in 0..24 {
            let i = rng.gen_range(0usize..n);
            let (predicted, actual) = match rng.gen_range(0u32..3) {
                0 => {
                    let on = rng.gen::<bool>();
                    let p = model.peak_if_checkpointed(i, on);
                    model.set_checkpointed(i, on);
                    (p, model.peak())
                }
                1 => {
                    let k = rng.gen_range(0usize..profile.blocks[i].act_bytes + 2);
                    let p = model.peak_if_kept(i, k);
                    let clamped = k.min(profile.blocks[i].act_bytes);
                    model.set_dropped(i, profile.blocks[i].act_bytes - clamped);
                    (p, model.peak())
                }
                _ => {
                    let d = rng.gen_range(0usize..profile.blocks[i].act_bytes + 2);
                    let p = model.peak_if_dropped(i, d);
                    model.set_dropped(i, d);
                    (p, model.peak())
                }
            };
            assert_eq!(predicted, actual, "what-if diverged on block {i} of {n}");
            assert!(model.undo());
        }
        assert_eq!(model.peak(), peak0, "what-if probes mutated the peak");
        assert_eq!(model.to_plan(), plan0, "what-if probes mutated the plan");
        assert!(!model.undo(), "what-if probes left journal entries");
    }
}

/// Batched flips land on the same state as the equivalent singles, and
/// `commit` makes the state permanent (undo becomes a no-op).
#[test]
fn apply_batch_matches_singles_and_commit_seals() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0005);
    for _case in 0..60 {
        let n = rng.gen_range(1usize..40);
        let profile = random_profile(&mut rng, n);
        let plan = random_plan(&mut rng, n);
        let batch: Vec<(usize, bool)> = (0..rng.gen_range(1usize..12))
            .map(|_| (rng.gen_range(0usize..n), rng.gen::<bool>()))
            .collect();

        let mut batched = ResidencyModel::from_plan(&profile, &plan);
        batched.apply_batch(&batch);
        let mut singles = ResidencyModel::from_plan(&profile, &plan);
        for &(i, on) in &batch {
            singles.set_checkpointed(i, on);
        }
        assert_eq!(batched.peak(), singles.peak());
        assert_eq!(batched.to_plan(), singles.to_plan());

        batched.commit();
        let sealed = batched.peak();
        assert!(!batched.undo(), "commit must clear the journal");
        assert_eq!(batched.peak(), sealed);
    }
}

/// `p` with each block's activation bytes split into one to four tensor
/// records, so MONeT has drop candidates.
fn with_tensors(rng: &mut StdRng, mut p: ModelProfile) -> ModelProfile {
    for b in &mut p.blocks {
        let k = rng.gen_range(1usize..=4);
        let mut left = b.act_bytes;
        b.tensors = (0..k)
            .map(|t| {
                let bytes = if t + 1 == k {
                    left
                } else {
                    rng.gen_range(0..=left)
                };
                left -= bytes;
                TensorRecord {
                    bytes,
                    fwd_flops: rng.gen_range(0.0..1e11),
                    category: OpCategory::ImplicitReduction,
                }
            })
            .collect();
    }
    p
}

/// The planner bench's adversarial shape: activations ramping from 2 to
/// 31 MiB along the timeline with KiB jitter, one ~4 GiB attention spike
/// at block `l/8`, and four tensor records per block. Under a near-floor
/// budget the peak sits at the spike and only the small early blocks can
/// lower it, so the greedy planners lean hardest on their feasibility
/// checks here.
fn spiked_profile(l: usize) -> ModelProfile {
    let blocks = (0..l)
        .map(|i| {
            let act_bytes = if i == l / 8 {
                4 << 30
            } else {
                ((2 + (29 * i) / l) << 20) + (((i * 7919) % 17) << 10)
            };
            let out_bytes = (1 << 20) + (((i * 104_729) % 3) << 19);
            let fwd_flops = 1e9 + (i % 17) as f64 * 1e8;
            BlockProfile {
                name: format!("syn{i}"),
                stage: 0,
                index: i,
                act_bytes,
                out_bytes,
                in_bytes: out_bytes,
                fwd_flops,
                bwd_flops: 2.0 * fwd_flops,
                fwd_bytes_moved: act_bytes / 2,
                tensors: (0..4)
                    .map(|t| TensorRecord {
                        bytes: act_bytes / 4 + t * 4096,
                        fwd_flops: fwd_flops / 4.0,
                        category: OpCategory::ImplicitReduction,
                    })
                    .collect(),
            }
        })
        .collect();
    ModelProfile {
        model: format!("spiked-{l}"),
        input: ModelInput::tokens(1, l),
        input_size: l,
        blocks,
        const_bytes: 2 << 30,
        param_count: 0,
        input_bytes: 8 << 20,
    }
}

/// Every plan the greedy bucket, knapsack and MONeT planners return fits
/// its budget by the O(L) reference walks, whenever some plan can: the
/// all-checkpoint plan for the block planners, the plan with every tensor
/// dropped for MONeT. Budgets run from the all-checkpoint peak to the
/// no-checkpoint peak, through the near-floor point the planner bench
/// times (1/256 of the way up) and random points between.
#[test]
fn planners_fit_every_budget_a_plan_can_meet() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0007);
    let mut profiles: Vec<ModelProfile> = (0..150)
        .map(|_| {
            let n = rng.gen_range(1usize..96);
            let p = random_profile(&mut rng, n);
            with_tensors(&mut rng, p)
        })
        .collect();
    profiles.extend([spiked_profile(512), spiked_profile(1024)]);
    let greedy = GreedyBucketScheduler::new(0.10);
    let mut monet_checks = 0usize;
    for p in &profiles {
        let n = p.blocks.len();
        let floor = peak_bytes_reference(p, &CheckpointPlan::all(n));
        let top = peak_bytes_reference(p, &CheckpointPlan::none(n));
        assert!(floor <= top, "checkpointing raised the peak of {}", p.model);
        let mut every_tensor_dropped = FinePlan::none(n);
        for (i, b) in p.blocks.iter().enumerate() {
            every_tensor_dropped.dropped_bytes[i] = b.tensors.iter().map(|t| t.bytes).sum();
        }
        let fine_floor = peak_bytes_fine_reference(p, &every_tensor_dropped);
        let mut budgets = vec![floor, floor + (top - floor) / 256, top];
        budgets.extend((0..4).map(|_| rng.gen_range(floor..=top)));
        for budget in budgets {
            for (name, plan) in [
                ("greedy", greedy.schedule(p, budget)),
                ("knapsack", KnapsackScheduler.schedule(p, budget)),
            ] {
                let peak = peak_bytes_reference(p, &plan);
                assert!(
                    peak <= budget,
                    "{name} plan peaks at {peak} B over the {budget} B budget on {} ({n} blocks)",
                    p.model
                );
            }
            if fine_floor <= budget {
                monet_checks += 1;
                let monet = MonetPolicy::plan_offline(p, budget);
                let peak = peak_bytes_fine_reference(p, monet.plan());
                assert!(
                    monet.is_feasible() && peak <= budget,
                    "MONeT plan peaks at {peak} B over the {budget} B budget on {} ({n} blocks)",
                    p.model
                );
            }
        }
    }
    assert!(
        monet_checks >= 500,
        "only {monet_checks} MONeT budgets checked"
    );
}
