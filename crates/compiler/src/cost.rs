//! DRAM-traffic cost model for tiled GEMMs.
//!
//! This is the model behind the paper's *loop ordering* and *loop tiling*
//! optimizations (§IV-B): given tile sizes and a tile-loop order, compute
//! the off-chip bits moved per tensor. The compiler searches tilings to
//! minimize this (Figure 12's `IC×` reduction in output traffic is exactly
//! the partial-sum spill arithmetic below). The six orders have only three
//! distinct costs, so [`class_traffic`] costs a tile once per class and
//! [`traffic`] looks one order up in it. Both are built on the factor form
//! the tile search uses directly: per-dimension [`Axis`] factors and a
//! [`RowTraffic`] holding everything that does not depend on the `n` tile.

use crate::gemm::GemmLayer;
use crate::tiling::{LoopOrder, TileSizes};

/// Off-chip traffic of one tiled GEMM, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Traffic {
    /// Weight bits loaded.
    pub weight_bits: u64,
    /// Input bits loaded.
    pub input_bits: u64,
    /// Output bits stored (at the requantized output width).
    pub output_bits: u64,
    /// Partial-sum spill traffic (32-bit reads + writes) incurred when the
    /// reduction loop is not innermost over an output tile.
    pub spill_bits: u64,
}

impl Traffic {
    /// Total bits moved.
    pub const fn total_bits(&self) -> u64 {
        self.weight_bits + self.input_bits + self.output_bits + self.spill_bits
    }

    /// Load-only bits (DMA reads).
    pub const fn load_bits(&self) -> u64 {
        self.weight_bits + self.input_bits + self.spill_bits / 2
    }

    /// Store-only bits (DMA writes).
    pub const fn store_bits(&self) -> u64 {
        self.output_bits + self.spill_bits / 2
    }
}

/// One order of each cost class, in [`LoopOrder::ALL`] priority: entry `i`
/// of [`class_traffic`] is the traffic of `CLASS_ORDERS[i]`.
///
/// A tensor is reloaded once per iteration of every loop outside its
/// deepest indexing loop, and partial sums spill when `k` sits outside the
/// deepest output loop. Under that rule the six orders fall into three
/// classes: `Nmk ≡ Mnk` (weights ×tn, inputs ×tm, no spill), `Nkm ≡ Knm`
/// (weights ×tn, inputs once, spill) and `Mkn ≡ Kmn` (weights once, inputs
/// ×tm, spill). Depthwise inputs are indexed by all three dimensions, so
/// they load once under every order.
pub const CLASS_ORDERS: [LoopOrder; 3] = [LoopOrder::Nmk, LoopOrder::Nkm, LoopOrder::Mkn];

/// Index of `order`'s cost class in [`CLASS_ORDERS`].
const fn class_of(order: LoopOrder) -> usize {
    match order {
        LoopOrder::Nmk | LoopOrder::Mnk => 0,
        LoopOrder::Nkm | LoopOrder::Knm => 1,
        LoopOrder::Mkn | LoopOrder::Kmn => 2,
    }
}

/// One tile dimension as the traffic model reads it: the tile, its trip
/// count and its pad factor. Each depends on that dimension alone, so the
/// tile search builds them once per candidate, not once per tile.
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    /// Tile size along the dimension.
    pub tile: u64,
    /// Tile-loop trip count, `⌈dim / tile⌉`.
    pub trips: u64,
    /// Padded over true extent, `trips·tile / dim` (never below 1.0).
    pub pad: f64,
}

impl Axis {
    /// The factors of tiling a dimension of `dim` elements by `tile`.
    pub fn new(dim: u64, tile: u64) -> Self {
        let trips = dim.div_ceil(tile);
        // DMAs move whole tiles, so dimensions that do not divide evenly pad
        // to the tile boundary — charging that padding here steers the
        // search away from wasteful tile sizes and keeps the model
        // consistent with the emitted `ld-mem` word counts.
        Axis {
            tile,
            trips,
            pad: (trips * tile) as f64 / dim as f64,
        }
    }
}

/// The traffic model of one layer with its `m` and `k` tiles fixed: every
/// factor that does not involve `n`, with each f64 product kept in the
/// association order of the full formula, so [`RowTraffic::classes`]
/// returns the same bits however the row was reached.
#[derive(Debug, Clone, Copy)]
pub struct RowTraffic {
    w0: f64,
    pad_m: f64,
    pad_k: f64,
    /// Input bits before the `n` padding, per class-0/2 traversal (the
    /// panel reloaded once per m tile) and per single traversal.
    i_per_m: f64,
    i_once: f64,
    i_pad: f64,
    /// Output bits before the `n` padding.
    o_m: f64,
    spill_bits: u64,
}

impl RowTraffic {
    /// The `n`-independent factors of `layer` tiled by `m` and `k`.
    pub fn new(layer: &GemmLayer, m: &Axis, k: &Axis) -> Self {
        // Weights [m, k]: each (m,k) tile holds m_t*k_t*w_bits; the whole
        // tensor is reloaded once per n tile when n is outside the deepest
        // (m, k) loop.
        let w0 = layer.weight_elems as f64 * layer.pair.weight.bits() as f64;

        // Inputs: charged on unique elements per full traversal (window
        // reuse is buffered on chip; see `GemmLayer::unique_input_elems`).
        // An ordinary GEMM shares one [k, n] input panel across all output
        // rows, reloaded once per m tile when m is outside the deepest
        // (k, n) loop; a depthwise layer's rows each read their *own*
        // channel's window, so its input tensor is indexed by every tile
        // dimension — each (m, k, n) tile touches distinct inputs, loaded
        // exactly once per traversal but padded along m as well.
        let (m_reloads, i_pad) = if layer.depthwise {
            (1, m.pad)
        } else {
            (m.trips, 1.0)
        };
        let i0 = layer.unique_input_elems as f64 * layer.pair.input.bits() as f64;

        // Outputs [m, n]: stored once at the requantized width; spilled as
        // 32-bit partials whenever the k loop is outside the deepest (m, n)
        // loop, i.e. the same output tile is revisited tk times
        // non-adjacently.
        let spill_bits = if k.trips > 1 {
            // One 32-bit load + store of the partial tile per k visit (the
            // emitted blocks reload/flush unconditionally; the final
            // visit's store doubles as the output store).
            2 * k.trips * layer.output_elems * 32
        } else {
            0
        };
        RowTraffic {
            w0,
            pad_m: m.pad,
            pad_k: k.pad,
            i_per_m: i0 * m_reloads as f64 * k.pad,
            i_once: i0 * 1.0 * k.pad,
            i_pad,
            o_m: layer.output_elems as f64 * layer.output_bits as f64 * m.pad,
            spill_bits,
        }
    }

    /// The traffic of this row's tile along `n` under each cost class, in
    /// [`CLASS_ORDERS`] order.
    ///
    /// Every term is a product of non-negative factors truncated by
    /// `as u64`, and `n` enters only through `n.trips` (weights, classes 0
    /// and 1) and `n.pad` (inputs, outputs). Both IEEE multiplication by a
    /// non-negative number and the truncation are monotone, so an `n` axis
    /// with fewer trips or less padding never costs more: that is the
    /// tile search's exact lower bound.
    pub fn classes(&self, n: &Axis) -> [Traffic; 3] {
        let weight_bits =
            |reloads: u64| (self.w0 * reloads as f64 * self.pad_m * self.pad_k) as u64;
        let input_bits = |per_k: f64| (per_k * n.pad * self.i_pad) as u64;
        let output_bits = (self.o_m * n.pad) as u64;
        let w_per_n = weight_bits(n.trips);
        let i_m = input_bits(self.i_per_m);
        let traffic = |weight_bits, input_bits, spill_bits| Traffic {
            weight_bits,
            input_bits,
            output_bits,
            spill_bits,
        };
        [
            traffic(w_per_n, i_m, 0),
            traffic(w_per_n, input_bits(self.i_once), self.spill_bits),
            traffic(weight_bits(1), i_m, self.spill_bits),
        ]
    }
}

/// Computes the off-chip traffic of a tiled GEMM under each cost class, in
/// [`CLASS_ORDERS`] order.
pub fn class_traffic(layer: &GemmLayer, tiles: TileSizes) -> [Traffic; 3] {
    let s = layer.shape;
    RowTraffic::new(layer, &Axis::new(s.m, tiles.m), &Axis::new(s.k, tiles.k))
        .classes(&Axis::new(s.n, tiles.n))
}

/// Computes the off-chip traffic of a tiled GEMM under one loop order.
pub fn traffic(layer: &GemmLayer, tiles: TileSizes, order: LoopOrder) -> Traffic {
    class_traffic(layer, tiles)[class_of(order)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmShape;
    use crate::tiling::TileDim;
    use bitfusion_core::bitwidth::PairPrecision;
    use proptest::prelude::*;

    /// Reload factor of a tensor whose indices are `S`: the product of
    /// tile-loop trip counts from the outermost loop down to (and including)
    /// the deepest loop in `S`. Loops deeper than every `S` loop reuse the
    /// tile in place.
    fn reload_factor(order: LoopOrder, indexed_by: &[TileDim], t: [u64; 3]) -> u64 {
        let seq = order.sequence();
        let deepest = seq
            .iter()
            .rposition(|d| indexed_by.contains(d))
            .expect("tensor depends on at least one dimension");
        seq[..=deepest]
            .iter()
            .map(|d| match d {
                TileDim::M => t[0],
                TileDim::K => t[1],
                TileDim::N => t[2],
            })
            .product()
    }

    /// The generic per-order traffic model, derived from each order's loop
    /// sequence: the reference that [`class_traffic`]'s three classes must
    /// reproduce for all six orders.
    fn reference_traffic(layer: &GemmLayer, tiles: TileSizes, order: LoopOrder) -> Traffic {
        let s = layer.shape;
        let t = [
            s.m.div_ceil(tiles.m),
            s.k.div_ceil(tiles.k),
            s.n.div_ceil(tiles.n),
        ];
        let (tm, tk, tn) = (t[0], t[1], t[2]);
        let pad = |dim: u64, trip: u64, tile: u64| (trip * tile) as f64 / dim as f64;
        let pad_m = pad(s.m, tm, tiles.m);
        let pad_k = pad(s.k, tk, tiles.k);
        let pad_n = pad(s.n, tn, tiles.n);

        let w_loads = reload_factor(order, &[TileDim::M, TileDim::K], t);
        let weight_bits = (layer.weight_elems as f64
            * layer.pair.weight.bits() as f64
            * (w_loads / (tm * tk)).max(1) as f64
            * pad_m
            * pad_k) as u64;

        let (i_indexed, i_trips, i_pad): (&[TileDim], u64, f64) = if layer.depthwise {
            (&[TileDim::M, TileDim::K, TileDim::N], tm * tk * tn, pad_m)
        } else {
            (&[TileDim::K, TileDim::N], tk * tn, 1.0)
        };
        let i_loads = reload_factor(order, i_indexed, t);
        let input_bits = (layer.unique_input_elems as f64
            * layer.pair.input.bits() as f64
            * (i_loads / i_trips).max(1) as f64
            * pad_k
            * pad_n
            * i_pad) as u64;

        let output_bits =
            (layer.output_elems as f64 * layer.output_bits as f64 * pad_m * pad_n) as u64;
        let seq = order.sequence();
        let k_pos = seq
            .iter()
            .position(|d| *d == TileDim::K)
            .expect("k in order");
        let mn_deepest = seq
            .iter()
            .rposition(|d| matches!(d, TileDim::M | TileDim::N))
            .expect("m or n in order");
        let spill_bits = if k_pos < mn_deepest && tk > 1 {
            2 * tk * layer.output_elems * 32
        } else {
            0
        };

        Traffic {
            weight_bits,
            input_bits,
            output_bits,
            spill_bits,
        }
    }

    fn arb_layer_and_tiles() -> impl Strategy<Value = (GemmLayer, TileSizes)> {
        let bits = || prop::sample::select(vec![1u32, 2, 4, 8, 16]);
        (
            1u64..3000,
            1u64..20_000,
            1u64..5000,
            bits(),
            bits(),
            bits(),
            any::<bool>(),
        )
            .prop_flat_map(move |(m, k, n, i_bits, w_bits, o_bits, depthwise)| {
                let layer = GemmLayer {
                    shape: GemmShape { m, k, n },
                    pair: PairPrecision::from_bits(i_bits, w_bits).unwrap(),
                    unique_input_elems: if depthwise { m * k * n / 3 + 1 } else { k * n },
                    output_elems: m * n,
                    weight_elems: m * k,
                    output_bits: o_bits,
                    depthwise,
                };
                // Half the draws take the whole reduction (tk == 1, where
                // no order spills).
                (Just(layer), 1..=m, 1..=k, 1..=n, any::<bool>())
            })
            .prop_map(|(layer, m, k, n, whole_k)| {
                let k = if whole_k { layer.shape.k } else { k };
                (layer, TileSizes { m, k, n })
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn class_lookup_matches_generic_reload_model((layer, tiles) in arb_layer_and_tiles()) {
            for order in LoopOrder::ALL {
                prop_assert_eq!(
                    traffic(&layer, tiles, order),
                    reference_traffic(&layer, tiles, order),
                    "{:?} {:?} {:?}",
                    order,
                    layer,
                    tiles
                );
            }
            let classes = class_traffic(&layer, tiles);
            for (order, t) in CLASS_ORDERS.into_iter().zip(classes) {
                prop_assert_eq!(t, reference_traffic(&layer, tiles, order));
            }
        }
    }

    fn layer(m: u64, k: u64, n: u64, i_bits: u32, w_bits: u32) -> GemmLayer {
        GemmLayer {
            shape: GemmShape { m, k, n },
            pair: PairPrecision::from_bits(i_bits, w_bits).unwrap(),
            unique_input_elems: k * n,
            output_elems: m * n,
            weight_elems: m * k,
            output_bits: i_bits,
            depthwise: false,
        }
    }

    #[test]
    fn depthwise_inputs_load_once_regardless_of_order() {
        // Depthwise inputs are indexed by (m, k, n): every tile reads
        // distinct elements, so no loop order can force a re-read — unlike
        // the shared input panel of an ordinary GEMM, which reloads under
        // an outer m loop.
        let dw = GemmLayer {
            unique_input_elems: 64 * 56 * 56,
            depthwise: true,
            ..layer(64, 9, 56 * 56, 8, 4)
        };
        let tiles = TileSizes { m: 16, k: 9, n: 128 };
        for order in LoopOrder::ALL {
            let t = traffic(&dw, tiles, order);
            let once =
                (dw.unique_input_elems as f64 * 8.0 * (25.0 * 128.0 / 3136.0)) as u64;
            assert_eq!(t.input_bits, once, "{order:?}");
        }
        // The same shape as a dense GEMM reloads its shared input panel
        // once per m tile whenever the m loop sits outside the deepest
        // input loop (m trips = 64/16 = 4); an m-innermost order holds it.
        let dense = layer(64, 9, 56 * 56, 8, 4);
        let reloading = traffic(&dense, tiles, LoopOrder::Mkn);
        let stationary = traffic(&dense, tiles, LoopOrder::Knm);
        assert_eq!(reloading.input_bits, stationary.input_bits * 4);
    }

    #[test]
    fn untiled_traffic_is_minimal() {
        let l = layer(64, 128, 32, 8, 8);
        let t = traffic(
            &l,
            TileSizes { m: 64, k: 128, n: 32 },
            LoopOrder::Nmk,
        );
        assert_eq!(t.weight_bits, 64 * 128 * 8);
        assert_eq!(t.input_bits, 128 * 32 * 8);
        assert_eq!(t.output_bits, 64 * 32 * 8);
        assert_eq!(t.spill_bits, 0);
    }

    #[test]
    fn weight_reload_scales_with_outer_n_tiles() {
        let l = layer(64, 128, 32, 8, 8);
        // n outermost with 4 tiles: weights traverse 4 times.
        let t = traffic(
            &l,
            TileSizes { m: 64, k: 128, n: 8 },
            LoopOrder::Nmk,
        );
        assert_eq!(t.weight_bits, 64 * 128 * 8 * 4);
        // m,k innermost orders with n deepest: weights loaded once.
        let t = traffic(
            &l,
            TileSizes { m: 64, k: 128, n: 8 },
            LoopOrder::Mkn,
        );
        assert_eq!(t.weight_bits, 64 * 128 * 8);
    }

    #[test]
    fn spills_when_k_outside_outputs() {
        let l = layer(64, 128, 32, 8, 8);
        // Order K outermost with 4 k-tiles: every output tile revisited.
        let t = traffic(
            &l,
            TileSizes { m: 64, k: 32, n: 32 },
            LoopOrder::Kmn,
        );
        assert_eq!(t.spill_bits, 2 * 4 * 64 * 32 * 32);
        // Output-stationary order (k innermost): no spills.
        let t = traffic(
            &l,
            TileSizes { m: 64, k: 32, n: 32 },
            LoopOrder::Nmk,
        );
        assert_eq!(t.spill_bits, 0);
    }

    #[test]
    fn figure_12_output_reuse() {
        // Figure 12(b): making the output stationary over the ic (k) loop
        // removes the per-k output round trips — the "factor of IC" the
        // paper quotes. Compare k-outermost vs k-innermost.
        let l = layer(512, 4096, 16, 4, 1);
        let k_tiles = 8;
        let bad = traffic(
            &l,
            TileSizes { m: 512, k: 4096 / k_tiles, n: 16 },
            LoopOrder::Kmn,
        );
        let good = traffic(
            &l,
            TileSizes { m: 512, k: 4096 / k_tiles, n: 16 },
            LoopOrder::Mnk,
        );
        assert!(bad.total_bits() > good.total_bits());
        assert_eq!(good.spill_bits, 0);
    }

    #[test]
    fn load_store_split_consistent() {
        let l = layer(64, 128, 32, 8, 8);
        let t = traffic(
            &l,
            TileSizes { m: 16, k: 32, n: 8 },
            LoopOrder::Kmn,
        );
        assert_eq!(t.load_bits() + t.store_bits(), t.total_bits());
    }
}
