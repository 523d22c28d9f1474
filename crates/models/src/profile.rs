//! Concrete cost/memory profiles of a model under a given input.
//!
//! A [`ModelProfile`] is the ground truth the simulator executes against and
//! the quantity Mimose's estimator learns to predict per block. The static
//! planners consume the profile of the *worst-case* input; Mimose consumes
//! the profile of *each* input.

use crate::optimize::{NodeAnnotation, StashMode};
use crate::{Block, ModelError, ModelGraph, ModelInput, Node, NodeInput};
use mimose_ops::OpCategory;
use mimose_tensor::{aligned_bytes, TensorMeta};

/// Allocator granularity used when converting logical bytes to resident
/// bytes (the CUDA caching allocator rounds to 512 B).
pub const ALLOC_ALIGN: usize = 512;

/// One saved activation tensor inside a block (DTR's planning granularity).
#[derive(Debug, Clone, Copy)]
pub struct TensorRecord {
    /// Resident bytes (alignment included).
    pub bytes: usize,
    /// FLOPs needed to recompute this tensor from its block-local parents.
    pub fwd_flops: f64,
    /// Operator category that produced it.
    pub category: OpCategory,
}

/// Cost/memory summary of one block for one concrete input.
#[derive(Debug, Clone)]
pub struct BlockProfile {
    /// Block name.
    pub name: String,
    /// Stage index the block belongs to.
    pub stage: usize,
    /// Global block index in execution order.
    pub index: usize,
    /// Bytes of activations saved inside the block for backward, *excluding*
    /// the block output (which is kept anyway as the checkpoint boundary).
    pub act_bytes: usize,
    /// Bytes of the block's output tensor.
    pub out_bytes: usize,
    /// Bytes of the block's input tensor.
    pub in_bytes: usize,
    /// Forward FLOPs (equals the recompute cost when checkpointed).
    pub fwd_flops: f64,
    /// Backward FLOPs.
    pub bwd_flops: f64,
    /// Bytes moved in the forward pass (roofline memory term).
    pub fwd_bytes_moved: usize,
    /// Saved tensors at operator granularity (for the DTR engine).
    pub tensors: Vec<TensorRecord>,
}

/// Whole-model profile for one concrete input.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// Model name.
    pub model: String,
    /// The input this profile was computed for.
    pub input: ModelInput,
    /// The paper's scalar input size (elements in the collated batch).
    pub input_size: usize,
    /// Per-block profiles in execution order.
    pub blocks: Vec<BlockProfile>,
    /// Constant footprint: weights, grads, optimizer state, framework.
    pub const_bytes: usize,
    /// Learnable parameter count (for optimizer-step costing).
    pub param_count: usize,
    /// Bytes of the raw input tensor.
    pub input_bytes: usize,
}

impl ModelProfile {
    /// Total activation bytes if nothing is checkpointed (internal
    /// activations plus every block output).
    #[must_use]
    pub fn total_act_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.act_bytes + b.out_bytes).sum()
    }

    /// Peak memory if nothing is checkpointed: constant + input + all
    /// activations (the paper's `baseline` upper star in Fig 10).
    #[must_use]
    pub fn peak_no_checkpoint(&self) -> usize {
        self.const_bytes + self.input_bytes + self.total_act_bytes()
    }

    /// Approximate peak when *every* block is checkpointed (the lower star in
    /// Fig 10): constant + input + all block outputs + the largest single
    /// block's transient working set during recomputation.
    #[must_use]
    pub fn peak_all_checkpointed(&self) -> usize {
        let outs: usize = self.blocks.iter().map(|b| b.out_bytes).sum();
        let max_work = self.blocks.iter().map(|b| b.act_bytes).max().unwrap_or(0);
        self.const_bytes + self.input_bytes + outs + max_work
    }

    /// Total forward FLOPs of one iteration.
    #[must_use]
    pub fn total_fwd_flops(&self) -> f64 {
        self.blocks.iter().map(|b| b.fwd_flops).sum()
    }

    /// Total backward FLOPs of one iteration.
    #[must_use]
    pub fn total_bwd_flops(&self) -> f64 {
        self.blocks.iter().map(|b| b.bwd_flops).sum()
    }
}

impl ModelGraph {
    /// Compute the full profile of this model under `input`.
    ///
    /// # Panics
    ///
    /// Panics only on an internal invariant violation: a context reference
    /// before any context exists is rejected during graph validation.
    pub fn profile(&self, input: &ModelInput) -> Result<ModelProfile, ModelError> {
        profile_with_stash(self, input, None, true)
    }

    /// The profile walk that evaluates every block, with no block reuse:
    /// the differential oracle for [`ModelGraph::profile`].
    #[doc(hidden)]
    pub fn profile_reference(&self, input: &ModelInput) -> Result<ModelProfile, ModelError> {
        profile_with_stash(self, input, None, false)
    }
}

/// A block evaluated earlier in the same walk, and what its numbers were
/// computed from.
struct Evaluated<'g> {
    nodes: &'g [Node],
    stash: Option<&'g [NodeAnnotation]>,
    input: TensorMeta,
    context: Option<TensorMeta>,
    /// Position of its profile in the walk's output.
    index: usize,
    out: TensorMeta,
}

impl Evaluated<'_> {
    /// Whether a block with these nodes and annotations, fed `input` and
    /// `context`, has exactly this block's numbers: the same ops run on the
    /// same shapes, summed in the same order.
    fn matches(
        &self,
        nodes: &[Node],
        stash: Option<&[NodeAnnotation]>,
        input: TensorMeta,
        context: Option<TensorMeta>,
    ) -> bool {
        let same_stash = match (self.stash, stash) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.stash == y.stash)
            }
            _ => false,
        };
        self.input == input && self.context == context && same_stash && self.nodes == nodes
    }
}

/// Shared profiling walk.
///
/// When `annotations` is `Some`, nodes the optimization pipeline marked
/// [`StashMode::Elided`] contribute no activation bytes and nodes marked
/// [`StashMode::MaskOnly`] contribute only their compact forward mask —
/// FLOPs and bytes-moved are untouched either way (stash elision is
/// execution-time-neutral). `annotations` is indexed `[global_block][node]`.
///
/// With `reuse`, a block whose nodes and stash annotations equal those of
/// a block evaluated earlier in this walk, on the same input and context
/// shapes, copies that block's numbers instead of being evaluated again
/// (a BERT's twelve encoder layers are evaluated once). Nothing outlives
/// the call. Without `reuse` every block is evaluated: the reference walk.
pub(crate) fn profile_with_stash(
    graph: &ModelGraph,
    input: &ModelInput,
    annotations: Option<&[Vec<NodeAnnotation>]>,
    reuse: bool,
) -> Result<ModelProfile, ModelError> {
    let mut blocks: Vec<BlockProfile> = Vec::with_capacity(graph.num_blocks());
    let mut evaluated: Vec<Evaluated<'_>> = Vec::new();
    let mut cur = input.meta();
    let mut context: Option<TensorMeta> = None;
    let mut global_idx = 0usize;
    for (si, stage) in graph.stages.iter().enumerate() {
        for block in &stage.blocks {
            let stash = annotations.map(|a| a[global_idx].as_slice());
            let earlier = evaluated
                .iter()
                .find(|e| e.matches(&block.nodes, stash, cur, context));
            let (profile, out) = match earlier {
                Some(e) => {
                    let src = &blocks[e.index];
                    let copy = BlockProfile {
                        name: block.name.clone(),
                        stage: si,
                        index: global_idx,
                        act_bytes: src.act_bytes,
                        out_bytes: src.out_bytes,
                        in_bytes: src.in_bytes,
                        fwd_flops: src.fwd_flops,
                        bwd_flops: src.bwd_flops,
                        fwd_bytes_moved: src.fwd_bytes_moved,
                        tensors: src.tensors.clone(),
                    };
                    (copy, e.out)
                }
                None => {
                    let (profile, out) = profile_block(block, si, global_idx, cur, context, stash)?;
                    if reuse {
                        evaluated.push(Evaluated {
                            nodes: &block.nodes,
                            stash,
                            input: cur,
                            context,
                            index: global_idx,
                            out,
                        });
                    }
                    (profile, out)
                }
            };
            blocks.push(profile);
            cur = out;
            global_idx += 1;
        }
        if stage.capture_context {
            context = Some(cur);
        }
    }
    Ok(ModelProfile {
        model: graph.name.clone(),
        input: *input,
        input_size: input.input_size(),
        blocks,
        const_bytes: graph.const_bytes(),
        param_count: graph.param_count(),
        input_bytes: aligned_bytes(input.meta().bytes(), ALLOC_ALIGN),
    })
}

/// Evaluate one block on `cur` (and the model context): its profile and
/// its output meta. `stash` is the block's row of the annotation table.
fn profile_block(
    block: &Block,
    stage: usize,
    index: usize,
    cur: TensorMeta,
    context: Option<TensorMeta>,
    stash: Option<&[NodeAnnotation]>,
) -> Result<(BlockProfile, TensorMeta), ModelError> {
    let outs = ModelGraph::eval_block(block, cur, context)?;
    let mut act = 0usize;
    let mut fwd = 0.0f64;
    let mut bwd = 0.0f64;
    let mut moved = 0usize;
    let mut tensors = Vec::new();
    let last = outs.len() - 1;
    for (ni, node) in block.nodes.iter().enumerate() {
        let operands: Vec<TensorMeta> = node
            .inputs
            .iter()
            .map(|src| match *src {
                NodeInput::BlockInput => cur,
                NodeInput::Node(j) => outs[j],
                NodeInput::Context => context.expect("checked in eval_block"),
            })
            .collect();
        let cost = node.op.cost(&operands, outs[ni]);
        fwd += cost.fwd_flops;
        bwd += cost.bwd_flops;
        moved += cost.fwd_bytes_moved;
        if ni != last && cost.saved_bytes > 0 {
            let mode = stash.map_or(StashMode::Default, |a| a[ni].stash);
            let logical = match mode {
                StashMode::Default => cost.saved_bytes,
                StashMode::MaskOnly => node.op.stash_mask_bytes(outs[ni]),
                StashMode::Elided => 0,
            };
            if logical > 0 {
                let b = aligned_bytes(logical, ALLOC_ALIGN);
                act += b;
                tensors.push(TensorRecord {
                    bytes: b,
                    fwd_flops: cost.fwd_flops,
                    category: node.op.category(),
                });
            }
        }
    }
    let out = outs[last];
    let profile = BlockProfile {
        name: block.name.clone(),
        stage,
        index,
        act_bytes: act,
        out_bytes: aligned_bytes(out.bytes(), ALLOC_ALIGN),
        in_bytes: aligned_bytes(cur.bytes(), ALLOC_ALIGN),
        fwd_flops: fwd,
        bwd_flops: bwd,
        fwd_bytes_moved: moved,
        tensors,
    };
    Ok((profile, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptimizerKind, Stage};
    use mimose_ops::OpKind;

    fn chain_model() -> ModelGraph {
        let mut b = Block::builder("emb");
        b.push_on_input(OpKind::Embedding {
            vocab: 1000,
            hidden: 64,
        });
        let emb = b.build();
        let mut blocks = vec![emb];
        for i in 0..3 {
            let mut b = Block::builder(format!("mlp.{i}"));
            let l = b.push_on_input(OpKind::Linear {
                in_features: 64,
                out_features: 64,
                bias: true,
            });
            let g = b.push_on(OpKind::Gelu, l);
            b.push(OpKind::Add, &[NodeInput::Node(g), NodeInput::BlockInput]);
            blocks.push(b.build());
        }
        ModelGraph {
            name: "chain".into(),
            stages: vec![Stage {
                name: "s".into(),
                blocks,
                capture_context: false,
            }],
            optimizer: OptimizerKind::Adam,
            max_extent: 128,
            framework_const_bytes: 0,
            reserved_bytes: 0,
        }
    }

    #[test]
    fn profile_has_one_entry_per_block() {
        let m = chain_model();
        let p = m.profile(&ModelInput::tokens(8, 32)).unwrap();
        assert_eq!(p.blocks.len(), 4);
        assert_eq!(p.input_size, 256);
    }

    #[test]
    fn activation_bytes_grow_linearly_for_mlp() {
        // MLP blocks are purely linear/elementwise: act bytes should scale
        // linearly with sequence length (the paper's implicit-reduction rule).
        let m = chain_model();
        let p1 = m.profile(&ModelInput::tokens(8, 32)).unwrap();
        let p2 = m.profile(&ModelInput::tokens(8, 64)).unwrap();
        let a1 = p1.blocks[1].act_bytes as f64;
        let a2 = p2.blocks[1].act_bytes as f64;
        assert!((a2 / a1 - 2.0).abs() < 0.05, "ratio {}", a2 / a1);
    }

    #[test]
    fn block_output_excluded_from_act_bytes() {
        let m = chain_model();
        let p = m.profile(&ModelInput::tokens(8, 32)).unwrap();
        // mlp block: internal saved = linear out + gelu out (the add is the
        // block output, excluded). 2 tensors of 8*32*64*4 bytes.
        let blk = &p.blocks[1];
        assert_eq!(blk.tensors.len(), 2);
        let one = aligned_bytes(8 * 32 * 64 * 4, ALLOC_ALIGN);
        assert_eq!(blk.act_bytes, 2 * one);
        assert_eq!(blk.out_bytes, one);
    }

    #[test]
    fn peaks_are_ordered() {
        let m = chain_model();
        let p = m.profile(&ModelInput::tokens(8, 32)).unwrap();
        assert!(p.peak_all_checkpointed() < p.peak_no_checkpoint());
        assert!(p.peak_all_checkpointed() > p.const_bytes);
    }

    #[test]
    fn flops_accumulate() {
        let m = chain_model();
        let p = m.profile(&ModelInput::tokens(8, 32)).unwrap();
        assert!(p.total_fwd_flops() > 0.0);
        assert!(p.total_bwd_flops() > p.total_fwd_flops());
    }

    /// The walk with block reuse and the reference walk print the same
    /// `Debug` bytes (every field, floats in round-trip form).
    fn assert_reuse_is_exact(
        graph: &ModelGraph,
        input: &ModelInput,
        annotations: Option<&[Vec<NodeAnnotation>]>,
    ) -> ModelProfile {
        let fast = profile_with_stash(graph, input, annotations, true).unwrap();
        let reference = profile_with_stash(graph, input, annotations, false).unwrap();
        assert_eq!(format!("{fast:?}"), format!("{reference:?}"));
        fast
    }

    #[test]
    fn repeated_blocks_copy_the_numbers_they_would_compute() {
        let m = chain_model();
        let p = assert_reuse_is_exact(&m, &ModelInput::tokens(8, 32), None);
        assert_eq!(p.blocks[3].name, "mlp.2");
        assert_eq!(p.blocks[3].index, 3);
    }

    #[test]
    fn identical_blocks_on_different_input_shapes_are_each_evaluated() {
        // Every block halves the spatial dims, so no input shape repeats:
        // a reused block would carry its predecessor's byte counts.
        let blocks = (0..3)
            .map(|i| {
                let mut b = Block::builder(format!("pool.{i}"));
                let p = b.push_on_input(OpKind::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    pad: 0,
                });
                b.push_on(OpKind::Relu, p);
                b.build()
            })
            .collect();
        let m = ModelGraph {
            name: "pools".into(),
            stages: vec![Stage {
                name: "s".into(),
                blocks,
                capture_context: false,
            }],
            optimizer: OptimizerKind::Adam,
            max_extent: 64,
            framework_const_bytes: 0,
            reserved_bytes: 0,
        };
        let p = assert_reuse_is_exact(&m, &ModelInput::image(2, 64, 64), None);
        assert!(p.blocks[1].in_bytes > p.blocks[2].in_bytes);
    }

    #[test]
    fn identical_nodes_with_different_stash_annotations_are_each_evaluated() {
        // mlp.0, mlp.1 and mlp.2 have the same nodes on the same shapes;
        // only their stash annotations differ.
        let m = chain_model();
        let mut ann: Vec<Vec<NodeAnnotation>> = m
            .blocks()
            .map(|(_, b)| vec![NodeAnnotation::DEFAULT; b.nodes.len()])
            .collect();
        ann[2][0].stash = StashMode::Elided;
        ann[3][1].stash = StashMode::MaskOnly;
        let p = assert_reuse_is_exact(&m, &ModelInput::tokens(8, 32), Some(&ann));
        let acts: Vec<usize> = p.blocks[1..].iter().map(|b| b.act_bytes).collect();
        assert!(acts[0] > acts[1] && acts[1] > 0, "{acts:?}");
        assert_eq!(
            p.blocks[3].tensors.len(),
            1,
            "mlp.2 keeps only its linear stash"
        );
    }
}
