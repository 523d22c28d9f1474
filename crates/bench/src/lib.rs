//! # mimose-bench
//!
//! The timed suites behind `bench_report`, the crate's one binary: planner
//! solves (Table I's solve-time ordering and the plan-cache ladder), the
//! arena, and the recorded block-engine iteration. Each suite writes one
//! `BENCH_*.json` file at the repository root. Shared fixtures live here.

#![warn(missing_docs)]

pub mod harness;
pub mod suites;

use mimose_models::builders::{bert_base, BertHead};
use mimose_models::{BlockProfile, ModelGraph, ModelInput, ModelProfile, TensorRecord};
use mimose_ops::OpCategory;

/// BERT-base with the TC-Bert classification head (the Table IV model).
#[must_use]
pub fn tc_bert_model() -> ModelGraph {
    bert_base(BertHead::Classification { labels: 2 })
}

/// Profile of TC-Bert at the given sequence length (batch 32).
#[must_use]
///
/// # Panics
///
/// Panics when the synthetic input fails to profile.
pub fn tc_bert_profile(seq: usize) -> ModelProfile {
    tc_bert_model()
        .profile(&ModelInput::tokens(32, seq))
        .expect("validates")
}

/// Deterministic synthetic profile with `l` blocks — the scale knob for the
/// planner hot-path benches (the BERT builders top out at a few dozen
/// blocks; the residency engine's O(log L) advantage needs hundreds).
///
/// The shape is adversarial for scalar excess bookkeeping, in the way real
/// long-sequence transformers are: activation sizes ramp upward along the
/// timeline (big decoder blocks late), and one **attention-spike block** at
/// `l/8` holds a huge materialised score matrix. Under a tight budget the
/// peak sits at the spike, and by the suffix-delta independence property
/// (Fig 9: a block's own bit never changes its own peak candidate) no
/// late-block checkpoint can lower it — only the small early blocks can.
/// Greedy planners rank those last, so they lean hard on their feasibility
/// oracle: one O(L) timeline re-walk per probe with
/// `peak_bytes_reference`, one O(log L) flip on the residency engine.
/// Each block carries 4 tensor records so tensor-granular planners (MONeT)
/// get `4·l` drop candidates.
#[must_use]
pub fn synthetic_profile(l: usize) -> ModelProfile {
    let spike = l / 8;
    let blocks: Vec<BlockProfile> = (0..l)
        .map(|i| {
            // 2 → 31 MiB ramp with KiB-scale jitter to break exact ties;
            // the spike block materialises a ~4 GiB attention score matrix.
            let act_bytes = if i == spike {
                4 << 30
            } else {
                ((2 + (29 * i) / l.max(1)) << 20) + (((i * 7919) % 17) << 10)
            };
            let out_bytes = (1 << 20) + (((i * 104_729) % 3) << 19);
            let in_bytes = out_bytes;
            let fwd_flops = 1e9 + (i % 17) as f64 * 1e8;
            let tensors = (0..4)
                .map(|t| TensorRecord {
                    bytes: act_bytes / 4 + (t * 4096),
                    fwd_flops: fwd_flops / 4.0,
                    category: OpCategory::ImplicitReduction,
                })
                .collect();
            BlockProfile {
                name: format!("syn{i}"),
                stage: 0,
                index: i,
                act_bytes,
                out_bytes,
                in_bytes,
                fwd_flops,
                bwd_flops: 2.0 * fwd_flops,
                fwd_bytes_moved: act_bytes / 2,
                tensors,
            }
        })
        .collect();
    ModelProfile {
        model: format!("synthetic-{l}"),
        input: ModelInput::tokens(1, l),
        input_size: l,
        blocks,
        const_bytes: 2 << 30,
        param_count: 0,
        input_bytes: 8 << 20,
    }
}
