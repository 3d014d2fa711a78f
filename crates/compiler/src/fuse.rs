//! Layer fusion (§IV-B): merging activation/pooling/elementwise layers into
//! the preceding multiply-add layer's instruction block.
//!
//! "When two or more consecutive layers use mutually exclusive on-chip
//! resources, the instructions for the two layers are combined such that the
//! data produced by the first layer is directly fed into the subsequent
//! layer, avoiding costly off-chip accesses." The systolic array produces
//! partial sums; the per-column activation and pooling units (Figure 3)
//! post-process them on the way to the output buffer.

use bitfusion_core::postproc::PoolOp;
use bitfusion_dnn::layer::Layer;
use bitfusion_dnn::model::Model;

use crate::error::CompileError;
use crate::gemm::product;

/// A post-operation fused into a MAC layer's block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostOp {
    /// Rectified linear activation on every output element.
    Relu,
    /// Pooling: `window` elements reduce to one, shrinking the stored
    /// output by `shrink`.
    Pool {
        /// Elements per pooling window.
        window: u64,
        /// Output-count reduction factor (window elements per output).
        shrink: u64,
        /// Max or average.
        op: PoolOp,
    },
    /// Residual addition: one extra input stream of `elems` elements at
    /// `bits` each, added elementwise.
    Residual {
        /// Elements added.
        elems: u64,
        /// Bitwidth of the residual stream.
        bits: u32,
    },
    /// Recurrent-cell elementwise work (gate nonlinearities and state
    /// updates), `ops` scalar operations per batch element.
    RecurrentCell {
        /// Scalar operations.
        ops: u64,
    },
}

impl PostOp {
    /// Scalar operations this post-op performs per *stored* batch run,
    /// given the MAC layer's output element count.
    pub fn ops(&self, output_elems: u64) -> u64 {
        match self {
            PostOp::Relu => output_elems,
            PostOp::Pool { .. } => output_elems, // one compare/add per element
            PostOp::Residual { elems, .. } => *elems,
            PostOp::RecurrentCell { ops } => *ops,
        }
    }

    /// Factor by which the stored output shrinks (1 for non-pooling ops).
    pub fn shrink(&self) -> u64 {
        match self {
            PostOp::Pool { shrink, .. } => *shrink,
            _ => 1,
        }
    }

    /// Extra input bits loaded from DRAM (residual streams only).
    pub fn extra_input_bits(&self) -> u64 {
        match self {
            PostOp::Residual { elems, bits } => elems * *bits as u64,
            _ => 0,
        }
    }
}

/// A fused group: one MAC layer (by index into the model) plus the post-ops
/// absorbed from its successors.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGroup {
    /// Group name (the MAC layer's name).
    pub name: String,
    /// Index of the MAC layer in `model.layers`.
    pub mac_index: usize,
    /// The post-ops, in order.
    pub postops: Vec<PostOp>,
}

/// Groups a model's layers for fusion: every MAC layer absorbs the maximal
/// run of immediately following activation/pooling/elementwise layers.
///
/// Non-MAC layers with no preceding MAC layer (none exist in the zoo) are
/// skipped with their costs charged nowhere; the compiler's plan asserts the
/// zoo never hits this.
///
/// # Errors
///
/// Returns [`CompileError::CountOverflow`] when `batch` pushes a post-op's
/// batch-scaled count past `u64`.
pub fn fuse_layers(model: &Model, batch: u64) -> Result<Vec<FusedGroup>, CompileError> {
    let mut groups: Vec<FusedGroup> = Vec::new();
    for (idx, named) in model.layers.iter().enumerate() {
        match &named.layer {
            Layer::Conv2d(_) | Layer::DepthwiseConv2d(_) | Layer::Dense(_) => {
                groups.push(FusedGroup {
                    name: named.name.clone(),
                    mac_index: idx,
                    postops: Vec::new(),
                });
            }
            Layer::Recurrent(r) => {
                groups.push(FusedGroup {
                    name: named.name.clone(),
                    mac_index: idx,
                    postops: vec![PostOp::RecurrentCell {
                        ops: product(r.elementwise_ops(), batch, "recurrent elementwise op")?,
                    }],
                });
            }
            Layer::Pool2d(p) => {
                if let Some(g) = groups.last_mut() {
                    g.postops.push(PostOp::Pool {
                        window: (p.window.0 * p.window.1) as u64,
                        // Stored outputs shrink by the stride product.
                        shrink: (p.stride.0 * p.stride.1) as u64,
                        op: p.op,
                    });
                }
            }
            Layer::Activation(_) => {
                if let Some(g) = groups.last_mut() {
                    g.postops.push(PostOp::Relu);
                }
            }
            Layer::Eltwise(e) => {
                if let Some(g) = groups.last_mut() {
                    g.postops.push(PostOp::Residual {
                        elems: product(e.elements as u64, batch, "residual element")?,
                        bits: model.layers[g.mac_index]
                            .layer
                            .precision()
                            .map_or(8, |p| p.input.bits()),
                    });
                }
            }
        }
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion_dnn::zoo;

    #[test]
    fn alexnet_groups_absorb_pools() {
        let model = zoo::alexnet();
        let groups = fuse_layers(&model, 1).unwrap();
        // 8 MAC layers; pools fused into conv1/conv2/conv5.
        assert_eq!(groups.len(), 8);
        let conv1 = &groups[0];
        assert_eq!(conv1.name, "conv1");
        assert_eq!(conv1.postops.len(), 1);
        assert!(matches!(conv1.postops[0], PostOp::Pool { .. }));
        // conv3 and conv4 have no pooling successors.
        assert!(groups[2].postops.is_empty());
    }

    #[test]
    fn resnet_groups_absorb_residuals() {
        let model = zoo::resnet18();
        let groups = fuse_layers(&model, 1).unwrap();
        let with_residual = groups
            .iter()
            .filter(|g| g.postops.iter().any(|p| matches!(p, PostOp::Residual { .. })))
            .count();
        assert_eq!(with_residual, 8); // two residual adds per stage
    }

    #[test]
    fn recurrent_gets_cell_postop() {
        let model = zoo::lstm();
        let groups = fuse_layers(&model, 4).unwrap();
        assert_eq!(groups.len(), 2);
        assert!(matches!(
            groups[0].postops[0],
            PostOp::RecurrentCell { ops } if ops == 9 * 900 * 4
        ));
    }

    #[test]
    fn pool_shrink_factor() {
        let p = PostOp::Pool {
            window: 4,
            shrink: 1,
            op: PoolOp::Max,
        };
        assert_eq!(p.shrink(), 1);
        let p = PostOp::Pool {
            window: 9,
            shrink: 2,
            op: PoolOp::Max,
        };
        assert_eq!(p.ops(100), 100);
        assert_eq!(p.extra_input_bits(), 0);
    }

    #[test]
    fn residual_charges_extra_input() {
        let p = PostOp::Residual { elems: 50, bits: 2 };
        assert_eq!(p.extra_input_bits(), 100);
        assert_eq!(p.ops(999), 50);
    }
}
