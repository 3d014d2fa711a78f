//! Whole-network models and their aggregate statistics (Table II).

use std::fmt;

use crate::layer::Layer;

/// A named layer within a model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamedLayer {
    /// Layer name (e.g. `conv1`, `fc6`).
    pub name: String,
    /// The layer.
    pub layer: Layer,
}

/// A quantized DNN model: an ordered list of layers.
///
/// # Examples
///
/// ```
/// use bitfusion_dnn::zoo;
///
/// let m = zoo::alexnet();
/// // Table II: AlexNet (2x-wide WRPN) performs ~2,678M multiply-adds.
/// assert!((m.total_macs() as f64 - 2678e6).abs() / 2678e6 < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Model {
    /// Model name.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<NamedLayer>,
}

impl Model {
    /// Creates a model from `(name, layer)` pairs.
    pub fn new(name: impl Into<String>, layers: Vec<(&str, Layer)>) -> Self {
        Model {
            name: name.into(),
            layers: layers
                .into_iter()
                .map(|(n, layer)| NamedLayer {
                    name: n.to_string(),
                    layer,
                })
                .collect(),
        }
    }

    /// Total multiply-accumulate operations for one input.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.layer.macs()).sum()
    }

    /// Total non-MAC scalar operations for one input.
    pub fn total_other_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.layer.other_ops()).sum()
    }

    /// Fraction of all scalar operations that are multiply-adds (the
    /// `% Multiply-Add` column of Figure 1's table; > 99% for every
    /// benchmark).
    pub fn mac_fraction(&self) -> f64 {
        let macs = self.total_macs() as f64;
        let other = self.total_other_ops() as f64;
        if macs + other == 0.0 {
            return 0.0;
        }
        macs / (macs + other)
    }

    /// Total weight parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.layer.params()).sum()
    }

    /// Total weight storage in bytes at each layer's own weight bitwidth
    /// (the bit-level memory layout of §II-B stores values at their minimal
    /// width).
    pub fn weight_bytes(&self) -> u64 {
        let bits: u64 = self.layers.iter().map(|l| l.layer.weight_bits()).sum();
        bits.div_ceil(8)
    }

    /// Layers that perform multiply-adds, in order.
    pub fn mac_layers(&self) -> impl Iterator<Item = &NamedLayer> {
        self.layers.iter().filter(|l| l.layer.macs() > 0)
    }

    /// Checks that consecutive layer shapes chain: each layer's output
    /// element count should match the next shape-sensitive layer's input
    /// element count. Returns every mismatch as
    /// `(producer, consumer, produced, expected)`.
    ///
    /// Elementwise and activation layers are shape-transparent; recurrent
    /// layers chain on their hidden size. Residual *branch* layers (e.g.
    /// ResNet downsample convolutions, which consume an earlier activation
    /// rather than the previous layer's output) legitimately appear here —
    /// callers decide which mismatches their topology expects.
    pub fn shape_chain_mismatches(&self) -> Vec<(String, String, u64, u64)> {
        let mut mismatches = Vec::new();
        let mut prev: Option<(&NamedLayer, u64)> = None;
        for l in &self.layers {
            let expected_in: Option<u64> = match &l.layer {
                Layer::Conv2d(c) => Some(c.input_elems()),
                Layer::DepthwiseConv2d(c) => Some(c.input_elems()),
                Layer::Dense(d) => Some(d.in_features as u64),
                Layer::Pool2d(p) => {
                    Some((p.channels * p.input_hw.0 * p.input_hw.1) as u64)
                }
                Layer::Recurrent(r) => Some(r.input_size as u64),
                Layer::Eltwise(_) | Layer::Activation(_) => None,
            };
            if let (Some((producer, produced)), Some(expected)) = (prev, expected_in) {
                if produced != expected {
                    mismatches.push((
                        producer.name.clone(),
                        l.name.clone(),
                        produced,
                        expected,
                    ));
                }
            }
            let out: Option<u64> = match &l.layer {
                Layer::Conv2d(c) => Some(c.output_elems()),
                Layer::DepthwiseConv2d(c) => Some(c.output_elems()),
                Layer::Dense(d) => Some(d.out_features as u64),
                Layer::Pool2d(p) => Some(p.output_elems()),
                Layer::Recurrent(r) => Some(r.hidden_size as u64),
                Layer::Eltwise(_) | Layer::Activation(_) => None,
            };
            if let Some(o) = out {
                prev = Some((l, o));
            }
        }
        mismatches
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} layers, {:.0}M MACs, {:.1} MB weights",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e6,
            self.weight_bytes() as f64 / 1e6
        )?;
        for l in &self.layers {
            writeln!(f, "  {:<10} {}", l.name, l.layer)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Dense;
    use bitfusion_core::bitwidth::PairPrecision;

    fn tiny() -> Model {
        let pp = PairPrecision::from_bits(2, 2).unwrap();
        Model::new(
            "tiny",
            vec![
                (
                    "fc1",
                    Layer::Dense(Dense {
                        in_features: 100,
                        out_features: 50,
                        precision: pp,
                    }),
                ),
                (
                    "fc2",
                    Layer::Dense(Dense {
                        in_features: 50,
                        out_features: 10,
                        precision: pp,
                    }),
                ),
            ],
        )
    }

    #[test]
    fn totals_sum_layers() {
        let m = tiny();
        assert_eq!(m.total_macs(), 100 * 50 + 50 * 10);
        assert_eq!(m.total_params(), 5500);
        // 5500 params at 2 bits = 1375 bytes.
        assert_eq!(m.weight_bytes(), 1375);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn mac_fraction_all_mac() {
        assert!((tiny().mac_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_lists_layers() {
        let text = tiny().to_string();
        assert!(text.contains("fc1"));
        assert!(text.contains("fc 100 -> 50"));
    }
}
