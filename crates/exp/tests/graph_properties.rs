//! Property suite for the graph optimization pass layer: 500 randomized
//! block DAGs (shape-preserving op chains with injected duplicate views
//! and dead nodes) must all come out of the pipeline lint-clean, with
//! per-block activation bytes monotonically non-increasing and every
//! planner-level peak on the optimized graph no worse than on the raw
//! graph. The profile walk that reuses repeated blocks must equal the
//! reference walk that evaluates every block, on these DAGs and on every
//! task's input stream.

use mimose::models::builders::{bert_base, t5_base, BertHead};
use mimose::models::{Block, ModelGraph, ModelInput, ModelProfile, OptimizerKind, Stage};
use mimose::ops::OpKind;
use mimose_exp::tasks::Task;
use mimose_planner::memory_model::{min_feasible_budget, peak_bytes};
use mimose_planner::{CheckpointPlan, SublinearPolicy};
use mimose_rng::{RngCore, SeedableRng, StdRng};
use mimose_verify::lint_graph;

const H: usize = 64;
const SEEDS: u64 = 500;

fn pick(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A random block of shape-preserving ops over `[b, s, H]`. The first
/// block embeds the `[b, s]` token input; later blocks chain from the
/// previous block's output. Randomly interleaves duplicate view pairs
/// (fodder for dedup) and unconsumed nodes (fodder for DCE).
fn random_block(rng: &mut StdRng, name: String, first: bool) -> Block {
    let mut b = Block::builder(name);
    use mimose::models::NodeInput::{BlockInput, Node};
    let mut chain = if first {
        Node(b.push(
            OpKind::Embedding {
                vocab: 1000,
                hidden: H,
            },
            &[BlockInput],
        ))
    } else {
        BlockInput
    };
    // Earlier values usable as a second Add operand ([b, s, H] only).
    let mut values: Vec<usize> = Vec::new();
    let n_ops = 4 + pick(rng, 8);
    for _ in 0..n_ops {
        // Occasionally inject a duplicate view pair: one gets folded back
        // into the chain through a second transpose, its twin is left for
        // dedup-views / dead-node-elim to clean up.
        if pick(rng, 8) == 0 {
            let t1 = b.push(OpKind::TransposeLast2, &[chain]);
            let _twin = b.push(OpKind::TransposeLast2, &[chain]);
            chain = Node(b.push(OpKind::TransposeLast2, &[Node(t1)]));
        }
        // Occasionally inject a dead node nothing consumes.
        if pick(rng, 8) == 0 {
            b.push(OpKind::Relu, &[chain]);
        }
        let next = match pick(rng, 10) {
            0 => b.push(OpKind::Relu, &[chain]),
            1 => b.push(OpKind::Gelu, &[chain]),
            2 => b.push(OpKind::Tanh, &[chain]),
            3 => b.push(OpKind::Sigmoid, &[chain]),
            4 => b.push(OpKind::Dropout { p: 0.1 }, &[chain]),
            5 => b.push(OpKind::Scale, &[chain]),
            6 => b.push(OpKind::Softmax, &[chain]),
            7 => b.push(OpKind::LayerNorm { features: H }, &[chain]),
            8 => b.push(
                OpKind::Linear {
                    in_features: H,
                    out_features: H,
                    bias: true,
                },
                &[chain],
            ),
            _ => match values.as_slice() {
                [] => b.push(OpKind::Scale, &[chain]),
                vs => {
                    let other = vs[pick(rng, vs.len())];
                    b.push(OpKind::Add, &[chain, Node(other)])
                }
            },
        };
        if let Node(i) = chain {
            values.push(i);
        }
        chain = Node(next);
    }
    b.build()
}

fn random_graph(seed: u64) -> (ModelGraph, ModelInput) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_blocks = 2 + pick(&mut rng, 4);
    let blocks = (0..n_blocks)
        .map(|i| random_block(&mut rng, format!("rand.{i}"), i == 0))
        .collect();
    let graph = ModelGraph {
        name: format!("rand-{seed}"),
        stages: vec![Stage {
            name: "body".into(),
            blocks,
            capture_context: false,
        }],
        optimizer: OptimizerKind::Adam,
        max_extent: 256,
        framework_const_bytes: 0,
        reserved_bytes: 0,
    };
    let batch = 1 + pick(&mut rng, 8);
    let seq = 16 << pick(&mut rng, 4);
    (graph, ModelInput::tokens(batch, seq))
}

#[test]
fn randomized_dags_lint_clean_and_only_shrink() {
    let mut total_saved = 0usize;
    for seed in 0..SEEDS {
        let (graph, input) = random_graph(seed);
        let opt = graph.optimize();

        let viols = lint_graph(&opt, &input);
        assert!(viols.is_empty(), "seed {seed}: {viols:?}");

        let delta = opt
            .delta(&input)
            .unwrap_or_else(|e| panic!("seed {seed}: optimized graph failed to profile: {e}"));
        for b in &delta.per_block {
            assert!(
                b.opt_act_bytes <= b.raw_act_bytes,
                "seed {seed}: block {} grew {} -> {} activation bytes",
                b.name,
                b.raw_act_bytes,
                b.opt_act_bytes
            );
        }
        total_saved += delta.bytes_saved();
    }
    // The generator's op mix must actually exercise the passes: across
    // the whole sweep something must have been saved.
    assert!(total_saved > 0, "500 random DAGs saved zero bytes");
}

#[test]
fn planner_peaks_on_optimized_never_exceed_raw() {
    for seed in 0..SEEDS {
        let (graph, input) = random_graph(seed);
        let opt = graph.optimize();
        let raw = opt.raw_profile(&input).unwrap();
        let shrunk = opt.profile(&input).unwrap();

        assert!(
            shrunk.peak_no_checkpoint() <= raw.peak_no_checkpoint(),
            "seed {seed}: no-checkpoint peak grew"
        );
        assert!(
            min_feasible_budget(&shrunk) <= min_feasible_budget(&raw),
            "seed {seed}: all-checkpoint floor grew"
        );
        // Any plan's analytic peak is monotone in the stash bytes, so the
        // raw graph's sublinear plan can only get cheaper on the
        // optimized profile.
        let budget = raw.peak_no_checkpoint() * 3 / 4;
        let plan = SublinearPolicy::plan_offline(&raw, budget).plan().clone();
        assert!(
            peak_bytes(&shrunk, &plan) <= peak_bytes(&raw, &plan),
            "seed {seed}: sublinear plan peak grew on the optimized graph"
        );
        let none = CheckpointPlan::none(raw.blocks.len());
        assert!(
            peak_bytes(&shrunk, &none) <= peak_bytes(&raw, &none),
            "seed {seed}: none-plan peak grew on the optimized graph"
        );
    }
}

#[test]
fn canonical_builders_shrink_under_the_property_lens() {
    // The same three properties on the real builders the gate uses, at a
    // worst-case-ish input.
    for (name, graph, input) in [
        (
            "bert-base",
            bert_base(BertHead::Classification { labels: 2 }),
            ModelInput::tokens(32, 512),
        ),
        ("t5-base", t5_base(), ModelInput::tokens(8, 512)),
    ] {
        let opt = graph.optimize();
        assert!(lint_graph(&opt, &input).is_empty(), "{name}");
        let raw = opt.raw_profile(&input).unwrap();
        let shrunk = opt.profile(&input).unwrap();
        assert!(
            shrunk.total_act_bytes() < raw.total_act_bytes(),
            "{name}: no measured reduction"
        );
        assert!(min_feasible_budget(&shrunk) <= min_feasible_budget(&raw));
    }
}

/// `profile` and `profile_reference` agree field for field: `Debug` prints
/// every field, floats in their shortest round-trip form, so equal strings
/// mean equal bits.
fn assert_same_profile(fast: &ModelProfile, reference: &ModelProfile, what: &str) {
    assert_eq!(fast.blocks.len(), reference.blocks.len(), "{what}");
    for (f, r) in fast.blocks.iter().zip(&reference.blocks) {
        assert_eq!(
            format!("{f:?}"),
            format!("{r:?}"),
            "{what}: block {}",
            r.index
        );
    }
    assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{what}");
}

#[test]
fn block_reuse_matches_the_reference_walk_on_random_dags() {
    for seed in 0..SEEDS {
        let (graph, input) = random_graph(seed);
        let opt = graph.optimize();
        let what = format!("seed {seed}");
        assert_same_profile(
            &opt.raw().profile(&input).unwrap(),
            &opt.raw().profile_reference(&input).unwrap(),
            &what,
        );
        assert_same_profile(
            &opt.profile(&input).unwrap(),
            &opt.profile_reference(&input).unwrap(),
            &what,
        );
    }
}

#[test]
fn block_reuse_matches_the_reference_walk_on_every_task_stream() {
    for task in Task::all() {
        let mut inputs = task.dataset.stream(97).take_batches(500);
        inputs.push(task.dataset.worst_case());
        for input in &inputs {
            let what = format!("{} {input:?}", task.abbr);
            assert_same_profile(
                &task.model.profile(input).unwrap(),
                &task.model.profile_reference(input).unwrap(),
                &what,
            );
            let raw = task.model.raw();
            assert_same_profile(
                &raw.profile(input).unwrap(),
                &raw.profile_reference(input).unwrap(),
                &what,
            );
        }
    }
}
