//! The GEMM view of DNN layers.
//!
//! Every multiply-add layer the accelerator executes reduces to a (possibly
//! batched) matrix multiplication: output `[M × N] = weights [M × K] ×
//! inputs [K × N]`. Convolutions take the im2col view (`K` = filter volume,
//! `N` = output pixels × batch), dense layers are direct, and recurrent
//! cells stack their gate matrices into `M`.

use bitfusion_core::bitwidth::PairPrecision;
use bitfusion_dnn::layer::Layer;

use crate::error::CompileError;

/// The GEMM dimensions of one layer at a given batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Output rows (output channels / features).
    pub m: u64,
    /// Reduction length.
    pub k: u64,
    /// Output columns (output pixels × batch, or batch for dense layers).
    pub n: u64,
}

impl GemmShape {
    /// Total multiply-accumulates.
    pub const fn macs(&self) -> u64 {
        self.m * self.k * self.n
    }
}

/// A layer lowered to GEMM form plus the memory-relevant element counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmLayer {
    /// GEMM dimensions (batch folded into `n`).
    pub shape: GemmShape,
    /// Operand precisions.
    pub pair: PairPrecision,
    /// Unique input elements per batch (feature-map size × batch for convs;
    /// `k × n` for dense layers). Convolutions re-read each input element
    /// `R×S` times in the im2col view but buffer windows on chip, so DRAM
    /// input traffic is charged on unique elements per pass.
    pub unique_input_elems: u64,
    /// Output elements per batch.
    pub output_elems: u64,
    /// Weight elements (batch-independent).
    pub weight_elems: u64,
    /// Output storage bits per element after requantization (the next
    /// layer's input width, or 32 for raw partial sums).
    pub output_bits: u32,
    /// Whether the layer is a depthwise convolution: each output channel
    /// (GEMM row) reduces over its *own* input window, so inputs are
    /// indexed by all three GEMM dimensions and cannot be broadcast
    /// across the array columns the way the shared `[K × N]` input panel
    /// of an ordinary GEMM is. Tiling, the traffic model, and the lowered
    /// block all branch on this.
    pub depthwise: bool,
}

/// `a × b`, or the [`CompileError::CountOverflow`] naming `count`.
pub(crate) fn product(a: u64, b: u64, count: &'static str) -> Result<u64, CompileError> {
    a.checked_mul(b)
        .ok_or(CompileError::CountOverflow { count })
}

/// Lowers a MAC layer to its GEMM view; returns `Ok(None)` for non-MAC
/// layers (pooling, activation, elementwise), which the compiler plans
/// separately.
///
/// # Errors
///
/// Returns [`CompileError::CountOverflow`] when `batch` pushes a
/// batch-scaled count past `u64`.
pub fn layer_to_gemm(
    layer: &Layer,
    batch: u64,
    output_bits: u32,
) -> Result<Option<GemmLayer>, CompileError> {
    Ok(match layer {
        Layer::Conv2d(c) => {
            let (oh, ow) = c.output_hw();
            // Input traffic per full traversal: the IBUF line-buffers each
            // tile row, reusing pixels horizontally (factor S) but
            // re-fetching the R-row window as the output row advances by
            // the stride — `unique × R / stride_v`, capped by the raw
            // im2col volume. Perfect two-dimensional reuse would need the
            // whole feature map resident, which the 32 KB IBUF cannot hold
            // for the ImageNet-scale layers.
            let n = product((oh * ow) as u64, batch, "n")?;
            let unique = product(c.input_elems(), batch, "unique input")?;
            let im2col = product(c.reduction_len(), n, "im2col input")?;
            let windowed =
                product(unique, c.kernel.0 as u64, "windowed input")?.div_ceil(c.stride.0 as u64);
            Some(GemmLayer {
                shape: GemmShape {
                    m: c.out_channels as u64,
                    k: c.reduction_len(),
                    n,
                },
                pair: c.precision,
                unique_input_elems: windowed.min(im2col).max(unique),
                output_elems: product(c.output_elems(), batch, "output element")?,
                weight_elems: c.params(),
                output_bits,
                depthwise: false,
            })
        }
        Layer::DepthwiseConv2d(c) => {
            let (oh, ow) = c.output_hw();
            // Same line-buffered window reuse as dense convolution, per
            // channel; the im2col volume here is tiny (`R·S` per output).
            let output_elems = product(c.output_elems(), batch, "output element")?;
            let unique = product(c.input_elems(), batch, "unique input")?;
            let im2col = product(c.reduction_len(), output_elems, "im2col input")?;
            let windowed =
                product(unique, c.kernel.0 as u64, "windowed input")?.div_ceil(c.stride.0 as u64);
            Some(GemmLayer {
                shape: GemmShape {
                    m: c.channels as u64,
                    k: c.reduction_len(),
                    n: product((oh * ow) as u64, batch, "n")?,
                },
                pair: c.precision,
                unique_input_elems: windowed.min(im2col).max(unique),
                output_elems,
                weight_elems: c.params(),
                output_bits,
                depthwise: true,
            })
        }
        Layer::Dense(d) => Some(GemmLayer {
            shape: GemmShape {
                m: d.out_features as u64,
                k: d.in_features as u64,
                n: batch,
            },
            pair: d.precision,
            unique_input_elems: product(d.in_features as u64, batch, "unique input")?,
            output_elems: product(d.out_features as u64, batch, "output element")?,
            weight_elems: d.params(),
            output_bits,
            depthwise: false,
        }),
        Layer::Recurrent(r) => {
            let k = (r.input_size + r.hidden_size) as u64;
            let m = r.cell.gates() * r.hidden_size as u64;
            Some(GemmLayer {
                shape: GemmShape { m, k, n: batch },
                pair: r.precision,
                unique_input_elems: product(k, batch, "unique input")?,
                output_elems: product(m, batch, "output element")?,
                weight_elems: r.params(),
                output_bits,
                depthwise: false,
            })
        }
        Layer::Pool2d(_) | Layer::Eltwise(_) | Layer::Activation(_) => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion_dnn::layer::{CellKind, Conv2d, Dense, Recurrent};

    fn pp(i: u32, w: u32) -> PairPrecision {
        PairPrecision::from_bits(i, w).unwrap()
    }

    #[test]
    fn conv_gemm_macs_match_layer() {
        let c = Conv2d {
            in_channels: 96,
            out_channels: 256,
            kernel: (5, 5),
            stride: (1, 1),
            padding: (2, 2),
            input_hw: (27, 27),
            groups: 2,
            precision: pp(4, 1),
        };
        let layer = Layer::Conv2d(c.clone());
        let g = layer_to_gemm(&layer, 16, 4).unwrap().unwrap();
        assert_eq!(g.shape.macs(), c.macs() * 16);
        assert_eq!(g.shape.k, c.reduction_len());
        assert_eq!(g.weight_elems, c.params());
    }

    #[test]
    fn dense_gemm() {
        let d = Dense {
            in_features: 9216,
            out_features: 4096,
            precision: pp(4, 1),
        };
        let g = layer_to_gemm(&Layer::Dense(d), 4, 4).unwrap().unwrap();
        assert_eq!(g.shape, GemmShape { m: 4096, k: 9216, n: 4 });
        assert_eq!(g.shape.macs(), 4096 * 9216 * 4);
    }

    #[test]
    fn depthwise_gemm_has_per_channel_reduction() {
        use bitfusion_dnn::layer::DepthwiseConv2d;
        let c = DepthwiseConv2d {
            channels: 64,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            input_hw: (56, 56),
            precision: pp(8, 4),
        };
        let layer = Layer::DepthwiseConv2d(c.clone());
        let g = layer_to_gemm(&layer, 4, 8).unwrap().unwrap();
        assert!(g.depthwise);
        assert_eq!(
            g.shape,
            GemmShape {
                m: 64,
                k: 9,
                n: 56 * 56 * 4
            }
        );
        assert_eq!(g.shape.macs(), c.macs() * 4);
        assert_eq!(g.weight_elems, 64 * 9);
        // Line-buffered window reuse: 3 rows per stride-1 advance, well
        // below the full im2col volume.
        assert_eq!(g.unique_input_elems, 64 * 56 * 56 * 4 * 3);
        assert!(g.unique_input_elems < g.shape.k * g.shape.n * 64);
    }

    #[test]
    fn recurrent_stacks_gates() {
        let r = Recurrent {
            cell: CellKind::Lstm,
            input_size: 900,
            hidden_size: 900,
            precision: pp(4, 4),
        };
        let g = layer_to_gemm(&Layer::Recurrent(r), 1, 4).unwrap().unwrap();
        assert_eq!(g.shape, GemmShape { m: 3600, k: 1800, n: 1 });
    }

    #[test]
    fn non_mac_layers_skip() {
        use bitfusion_core::postproc::PoolOp;
        use bitfusion_dnn::layer::Pool2d;
        let p = Layer::Pool2d(Pool2d {
            channels: 64,
            input_hw: (8, 8),
            window: (2, 2),
            stride: (2, 2),
            padding: (0, 0),
            op: PoolOp::Max,
        });
        assert_eq!(layer_to_gemm(&p, 1, 8), Ok(None));
    }

    #[test]
    fn batch_scaled_counts_that_overflow_are_named_errors() {
        let dense = Layer::Dense(Dense {
            in_features: 2,
            out_features: 2,
            precision: pp(8, 8),
        });
        let overflow = |count| Err(CompileError::CountOverflow { count });
        assert!(layer_to_gemm(&dense, 1 << 62, 8).is_ok());
        assert_eq!(layer_to_gemm(&dense, 1 << 63, 8), overflow("unique input"));
        let conv = Layer::Conv2d(Conv2d {
            in_channels: 1,
            out_channels: 8,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            input_hw: (4, 4),
            groups: 1,
            precision: pp(8, 8),
        });
        // 16 output pixels: `n` fits at 2^59 and overflows at 2^60.
        assert_eq!(layer_to_gemm(&conv, 1 << 60, 8), overflow("n"));
        assert_eq!(layer_to_gemm(&conv, 1 << 59, 8), overflow("im2col input"));
        assert_eq!(layer_to_gemm(&conv, u64::MAX, 8), overflow("n"));
    }
}
