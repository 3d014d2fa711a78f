//! Quantized DNN layer descriptions.
//!
//! Layers carry *shapes* and *precisions* — everything the compiler and the
//! performance/energy models need. (Trained weight values never matter for
//! the paper's evaluation; synthetic tensors of the right shape exercise the
//! functional paths.)

use std::fmt;

use bitfusion_core::bitwidth::PairPrecision;
use bitfusion_core::postproc::PoolOp;

/// A 2-D convolution layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (filters).
    pub out_channels: usize,
    /// Filter height and width `(R, S)`.
    pub kernel: (usize, usize),
    /// Stride `(vertical, horizontal)`.
    pub stride: (usize, usize),
    /// Zero padding `(vertical, horizontal)` applied on each side.
    pub padding: (usize, usize),
    /// Input feature-map height and width `(H, W)`.
    pub input_hw: (usize, usize),
    /// Convolution groups (1 = dense; 2 for AlexNet's grouped convolutions).
    pub groups: usize,
    /// Operand precisions.
    pub precision: PairPrecision,
}

impl Conv2d {
    /// Output feature-map `(height, width)`.
    pub fn output_hw(&self) -> (usize, usize) {
        let (h, w) = self.input_hw;
        let (r, s) = self.kernel;
        let (sv, sh) = self.stride;
        let (pv, ph) = self.padding;
        ((h + 2 * pv - r) / sv + 1, (w + 2 * ph - s) / sh + 1)
    }

    /// Multiply-accumulate count for one input image.
    pub fn macs(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        let (r, s) = self.kernel;
        (oh * ow * self.out_channels * r * s * self.in_channels / self.groups) as u64
    }

    /// Weight parameter count.
    pub fn params(&self) -> u64 {
        let (r, s) = self.kernel;
        (self.out_channels * self.in_channels / self.groups * r * s) as u64
    }

    /// Input elements for one image.
    pub fn input_elems(&self) -> u64 {
        (self.in_channels * self.input_hw.0 * self.input_hw.1) as u64
    }

    /// Output elements for one image.
    pub fn output_elems(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        (self.out_channels * oh * ow) as u64
    }

    /// Reduction (dot-product) length per output element.
    pub fn reduction_len(&self) -> u64 {
        let (r, s) = self.kernel;
        (r * s * self.in_channels / self.groups) as u64
    }
}

/// A depthwise 2-D convolution: one filter per channel, no cross-channel
/// reduction — the spatial half of a depthwise-separable convolution
/// (MobileNet-style; the pointwise half is an ordinary 1×1 [`Conv2d`]).
///
/// Distinct from a grouped [`Conv2d`] with `groups == channels` only in
/// that the compiler lowers it specially: its tiny per-output reduction
/// (`R·S` instead of `R·S·C`) means inputs cannot be broadcast across the
/// output-channel dimension of the systolic array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DepthwiseConv2d {
    /// Channels (equal in and out; depthwise never mixes them).
    pub channels: usize,
    /// Filter height and width `(R, S)`.
    pub kernel: (usize, usize),
    /// Stride `(vertical, horizontal)`.
    pub stride: (usize, usize),
    /// Zero padding `(vertical, horizontal)` applied on each side.
    pub padding: (usize, usize),
    /// Input feature-map height and width `(H, W)`.
    pub input_hw: (usize, usize),
    /// Operand precisions.
    pub precision: PairPrecision,
}

impl DepthwiseConv2d {
    /// Output feature-map `(height, width)`.
    pub fn output_hw(&self) -> (usize, usize) {
        let (h, w) = self.input_hw;
        let (r, s) = self.kernel;
        let (sv, sh) = self.stride;
        let (pv, ph) = self.padding;
        ((h + 2 * pv - r) / sv + 1, (w + 2 * ph - s) / sh + 1)
    }

    /// Multiply-accumulate count for one input image.
    pub fn macs(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        let (r, s) = self.kernel;
        (oh * ow * self.channels * r * s) as u64
    }

    /// Weight parameter count (one `R×S` filter per channel).
    pub fn params(&self) -> u64 {
        let (r, s) = self.kernel;
        (self.channels * r * s) as u64
    }

    /// Input elements for one image.
    pub fn input_elems(&self) -> u64 {
        (self.channels * self.input_hw.0 * self.input_hw.1) as u64
    }

    /// Output elements for one image.
    pub fn output_elems(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        (self.channels * oh * ow) as u64
    }

    /// Reduction (dot-product) length per output element: just the window.
    pub fn reduction_len(&self) -> u64 {
        let (r, s) = self.kernel;
        (r * s) as u64
    }
}

/// A fully-connected (dense) layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dense {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Operand precisions.
    pub precision: PairPrecision,
}

impl Dense {
    /// Multiply-accumulate count for one input vector.
    pub fn macs(&self) -> u64 {
        (self.in_features * self.out_features) as u64
    }

    /// Weight parameter count.
    pub fn params(&self) -> u64 {
        self.macs()
    }
}

/// A 2-D pooling layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pool2d {
    /// Channels (unchanged by pooling).
    pub channels: usize,
    /// Input feature-map `(H, W)`.
    pub input_hw: (usize, usize),
    /// Pooling window `(height, width)`.
    pub window: (usize, usize),
    /// Stride `(vertical, horizontal)`.
    pub stride: (usize, usize),
    /// Zero padding `(vertical, horizontal)` applied on each side.
    pub padding: (usize, usize),
    /// The pooling operator.
    pub op: PoolOp,
}

impl Pool2d {
    /// Output feature-map `(height, width)`.
    pub fn output_hw(&self) -> (usize, usize) {
        let (h, w) = self.input_hw;
        let (r, s) = self.window;
        let (sv, sh) = self.stride;
        let (pv, ph) = self.padding;
        ((h + 2 * pv - r) / sv + 1, (w + 2 * ph - s) / sh + 1)
    }

    /// Scalar compare/add operations for one image (window size per output).
    pub fn ops(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        (oh * ow * self.channels * self.window.0 * self.window.1) as u64
    }

    /// Output elements for one image.
    pub fn output_elems(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        (self.channels * oh * ow) as u64
    }
}

/// A recurrent cell kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Long short-term memory: four gate matrices.
    Lstm,
    /// Vanilla (Elman) RNN: one gate matrix.
    Rnn,
}

impl CellKind {
    /// Gate matrix count.
    pub const fn gates(self) -> u64 {
        match self {
            CellKind::Lstm => 4,
            CellKind::Rnn => 1,
        }
    }
}

/// One recurrent layer, costed per timestep (language-model inference
/// processes one token at a time, which is what makes these benchmarks
/// bandwidth-bound in Figures 15/16).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Recurrent {
    /// The cell kind.
    pub cell: CellKind,
    /// Input feature size.
    pub input_size: usize,
    /// Hidden state size.
    pub hidden_size: usize,
    /// Operand precisions.
    pub precision: PairPrecision,
}

impl Recurrent {
    /// Multiply-accumulate count for one timestep: the gate matrices applied
    /// to the concatenated `[input, hidden]` vector.
    pub fn macs(&self) -> u64 {
        self.cell.gates() * (self.hidden_size as u64) * (self.input_size + self.hidden_size) as u64
    }

    /// Weight parameter count.
    pub fn params(&self) -> u64 {
        self.macs()
    }

    /// Elementwise operations per timestep (gate nonlinearities and state
    /// updates).
    pub fn elementwise_ops(&self) -> u64 {
        match self.cell {
            // 3 sigmoids + 2 tanh + 3 multiplies + 1 add, per hidden unit.
            CellKind::Lstm => 9 * self.hidden_size as u64,
            // One tanh per hidden unit.
            CellKind::Rnn => self.hidden_size as u64,
        }
    }
}

/// An elementwise layer (residual additions, scaling).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Eltwise {
    /// Element count.
    pub elements: usize,
    /// `true` for addition (residual), `false` for multiplication.
    pub is_add: bool,
}

/// A standalone activation layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActivationLayer {
    /// Element count.
    pub elements: usize,
}

/// Any layer of a quantized DNN.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Depthwise 2-D convolution (per-channel filters).
    DepthwiseConv2d(DepthwiseConv2d),
    /// Fully connected.
    Dense(Dense),
    /// 2-D pooling.
    Pool2d(Pool2d),
    /// Recurrent cell (per timestep).
    Recurrent(Recurrent),
    /// Elementwise binary operation.
    Eltwise(Eltwise),
    /// Standalone activation.
    Activation(ActivationLayer),
}

impl Layer {
    /// Multiply-accumulate count (zero for non-MAC layers).
    pub fn macs(&self) -> u64 {
        match self {
            Layer::Conv2d(c) => c.macs(),
            Layer::DepthwiseConv2d(c) => c.macs(),
            Layer::Dense(d) => d.macs(),
            Layer::Recurrent(r) => r.macs(),
            Layer::Pool2d(_) | Layer::Eltwise(_) | Layer::Activation(_) => 0,
        }
    }

    /// Non-MAC scalar operations.
    pub fn other_ops(&self) -> u64 {
        match self {
            Layer::Pool2d(p) => p.ops(),
            Layer::Eltwise(e) => e.elements as u64,
            Layer::Activation(a) => a.elements as u64,
            Layer::Recurrent(r) => r.elementwise_ops(),
            Layer::Conv2d(_) | Layer::DepthwiseConv2d(_) | Layer::Dense(_) => 0,
        }
    }

    /// Weight parameter count.
    pub fn params(&self) -> u64 {
        match self {
            Layer::Conv2d(c) => c.params(),
            Layer::DepthwiseConv2d(c) => c.params(),
            Layer::Dense(d) => d.params(),
            Layer::Recurrent(r) => r.params(),
            Layer::Pool2d(_) | Layer::Eltwise(_) | Layer::Activation(_) => 0,
        }
    }

    /// Total weight storage in bits (params × weight bitwidth).
    pub fn weight_bits(&self) -> u64 {
        self.params() * self.precision().map_or(0, |p| p.weight.bits() as u64)
    }

    /// Operand precisions, when the layer multiplies.
    pub fn precision(&self) -> Option<PairPrecision> {
        match self {
            Layer::Conv2d(c) => Some(c.precision),
            Layer::DepthwiseConv2d(c) => Some(c.precision),
            Layer::Dense(d) => Some(d.precision),
            Layer::Recurrent(r) => Some(r.precision),
            Layer::Pool2d(_) | Layer::Eltwise(_) | Layer::Activation(_) => None,
        }
    }

    /// Replaces the operand precisions on layers that multiply; a no-op on
    /// pool/eltwise/activation layers. Returns whether the layer carries a
    /// precision (i.e. whether the write landed).
    pub fn set_precision(&mut self, precision: PairPrecision) -> bool {
        match self {
            Layer::Conv2d(c) => c.precision = precision,
            Layer::DepthwiseConv2d(c) => c.precision = precision,
            Layer::Dense(d) => d.precision = precision,
            Layer::Recurrent(r) => r.precision = precision,
            Layer::Pool2d(_) | Layer::Eltwise(_) | Layer::Activation(_) => return false,
        }
        true
    }

    /// Short kind tag for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv",
            Layer::DepthwiseConv2d(_) => "dwconv",
            Layer::Dense(_) => "fc",
            Layer::Pool2d(_) => "pool",
            Layer::Recurrent(Recurrent { cell: CellKind::Lstm, .. }) => "lstm",
            Layer::Recurrent(Recurrent { cell: CellKind::Rnn, .. }) => "rnn",
            Layer::Eltwise(_) => "eltwise",
            Layer::Activation(_) => "act",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Conv2d(c) => {
                let (oh, ow) = c.output_hw();
                write!(
                    f,
                    "conv {}x{}x{} -> {}x{}x{} k{}x{} s{} {}",
                    c.in_channels, c.input_hw.0, c.input_hw.1, c.out_channels, oh, ow,
                    c.kernel.0, c.kernel.1, c.stride.0, c.precision
                )
            }
            Layer::DepthwiseConv2d(c) => {
                let (oh, ow) = c.output_hw();
                write!(
                    f,
                    "dwconv {}x{}x{} -> {}x{}x{} k{}x{} s{} {}",
                    c.channels, c.input_hw.0, c.input_hw.1, c.channels, oh, ow,
                    c.kernel.0, c.kernel.1, c.stride.0, c.precision
                )
            }
            Layer::Dense(d) => write!(
                f,
                "fc {} -> {} {}",
                d.in_features, d.out_features, d.precision
            ),
            Layer::Pool2d(p) => write!(
                f,
                "pool {}x{} /{} on {}x{}x{}",
                p.window.0, p.window.1, p.stride.0, p.channels, p.input_hw.0, p.input_hw.1
            ),
            Layer::Recurrent(r) => write!(
                f,
                "{} in {} hidden {} {}",
                if r.cell == CellKind::Lstm { "lstm" } else { "rnn" },
                r.input_size,
                r.hidden_size,
                r.precision
            ),
            Layer::Eltwise(e) => write!(
                f,
                "eltwise-{} {}",
                if e.is_add { "add" } else { "mul" },
                e.elements
            ),
            Layer::Activation(a) => write!(f, "act {}", a.elements),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(i: u32, w: u32) -> PairPrecision {
        PairPrecision::from_bits(i, w).unwrap()
    }

    /// AlexNet conv1 (regular width): the paper's table reports 105 MOps.
    #[test]
    fn alexnet_conv1_macs() {
        let c = Conv2d {
            in_channels: 3,
            out_channels: 96,
            kernel: (11, 11),
            stride: (4, 4),
            padding: (0, 0),
            input_hw: (227, 227),
            groups: 1,
            precision: pp(8, 8),
        };
        assert_eq!(c.output_hw(), (55, 55));
        assert_eq!(c.macs(), 105_415_200);
    }

    #[test]
    fn grouped_conv_halves_macs() {
        let mut c = Conv2d {
            in_channels: 96,
            out_channels: 256,
            kernel: (5, 5),
            stride: (1, 1),
            padding: (2, 2),
            input_hw: (27, 27),
            groups: 1,
            precision: pp(4, 1),
        };
        let dense = c.macs();
        c.groups = 2;
        assert_eq!(c.macs(), dense / 2);
        assert_eq!(c.params(), 5 * 5 * 48 * 256);
    }

    #[test]
    fn depthwise_macs_scale_with_window_not_channels() {
        let dw = DepthwiseConv2d {
            channels: 32,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            input_hw: (112, 112),
            precision: pp(8, 8),
        };
        assert_eq!(dw.output_hw(), (112, 112));
        assert_eq!(dw.macs(), 112 * 112 * 32 * 9);
        assert_eq!(dw.params(), 32 * 9);
        assert_eq!(dw.reduction_len(), 9);
        // A strided depthwise halves the spatial extent like conv does.
        let strided = DepthwiseConv2d {
            stride: (2, 2),
            ..dw.clone()
        };
        assert_eq!(strided.output_hw(), (56, 56));
        let l = Layer::DepthwiseConv2d(dw);
        assert_eq!(l.kind(), "dwconv");
        assert_eq!(l.weight_bits(), 32 * 9 * 8);
        assert!(l.to_string().contains("dwconv 32x112x112 -> 32x112x112"));
    }

    #[test]
    fn dense_macs_and_params() {
        let d = Dense {
            in_features: 9216,
            out_features: 4096,
            precision: pp(4, 1),
        };
        assert_eq!(d.macs(), 37_748_736);
        assert_eq!(d.params(), d.macs());
    }

    #[test]
    fn pool_shapes() {
        let p = Pool2d {
            channels: 96,
            input_hw: (55, 55),
            window: (3, 3),
            stride: (2, 2),
            padding: (0, 0),
            op: PoolOp::Max,
        };
        assert_eq!(p.output_hw(), (27, 27));
        assert_eq!(p.ops(), (27 * 27 * 96 * 9) as u64);
        // ResNet's stem pool: 112 -> 56 with padding 1.
        let p = Pool2d {
            channels: 64,
            input_hw: (112, 112),
            window: (3, 3),
            stride: (2, 2),
            padding: (1, 1),
            op: PoolOp::Max,
        };
        assert_eq!(p.output_hw(), (56, 56));
    }

    #[test]
    fn lstm_macs_match_gate_count() {
        let r = Recurrent {
            cell: CellKind::Lstm,
            input_size: 900,
            hidden_size: 900,
            precision: pp(4, 4),
        };
        assert_eq!(r.macs(), 4 * 900 * 1800);
        let r = Recurrent {
            cell: CellKind::Rnn,
            input_size: 2048,
            hidden_size: 2048,
            precision: pp(4, 4),
        };
        assert_eq!(r.macs(), 2048 * 4096);
    }

    #[test]
    fn weight_bits_scale_with_precision() {
        let d = |w| {
            Layer::Dense(Dense {
                in_features: 100,
                out_features: 10,
                precision: pp(8, w),
            })
        };
        assert_eq!(d(1).weight_bits(), 1000);
        assert_eq!(d(2).weight_bits(), 2000);
        assert_eq!(d(8).weight_bits(), 8000);
    }

    #[test]
    fn non_mac_layers_report_other_ops() {
        let e = Layer::Eltwise(Eltwise {
            elements: 1000,
            is_add: true,
        });
        assert_eq!(e.macs(), 0);
        assert_eq!(e.other_ops(), 1000);
        assert_eq!(e.params(), 0);
        assert!(e.precision().is_none());
    }

    #[test]
    fn display_forms() {
        let c = Conv2d {
            in_channels: 3,
            out_channels: 64,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            input_hw: (32, 32),
            groups: 1,
            precision: pp(2, 2),
        };
        let s = Layer::Conv2d(c).to_string();
        assert!(s.contains("conv 3x32x32 -> 64x32x32"));
        assert!(s.contains("2bit/2bit"));
    }
}
