//! Lowering a tiled GEMM (plus fused post-ops) to a Fusion-ISA block.
//!
//! The emitted block follows the Figure 12(b) shape: three tile loops in the
//! chosen order, with each tensor's `ld-mem` placed in the body of the
//! deepest tile loop its indices depend on (so DMA counts match the
//! [`cost`](crate::cost) model), an inner `m/n/k` compute nest mapping onto
//! the systolic array, fused post-op `compute` instructions at the output
//! point, and `st-mem` in the post-body of the deepest output loop.

use bitfusion_core::arch::ArchConfig;
use bitfusion_isa::builder::BlockBuilder;
use bitfusion_isa::instruction::{AddressSpace, ComputeFn, Scratchpad};
use bitfusion_isa::InstructionBlock;
use bitfusion_core::postproc::PoolOp;

use crate::error::CompileError;
use crate::fuse::PostOp;
use crate::gemm::GemmLayer;
use crate::tiling::{TileDim, TilePlan};

/// Everything the lowering needs for one fused layer group.
#[derive(Debug, Clone)]
pub struct LowerInput<'a> {
    /// Group name.
    pub name: &'a str,
    /// The GEMM view.
    pub layer: &'a GemmLayer,
    /// Chosen tiling.
    pub plan: &'a TilePlan,
    /// Fused post-ops.
    pub postops: &'a [PostOp],
    /// Successor block index.
    pub next: u16,
}

fn dim_size(layer: &GemmLayer, d: TileDim) -> u64 {
    match d {
        TileDim::M => layer.shape.m,
        TileDim::K => layer.shape.k,
        TileDim::N => layer.shape.n,
    }
}

fn tile_size(plan: &TilePlan, d: TileDim) -> u64 {
    match d {
        TileDim::M => plan.tiles.m,
        TileDim::K => plan.tiles.k,
        TileDim::N => plan.tiles.n,
    }
}

fn post_op_compute_fns(p: &PostOp) -> &'static [ComputeFn] {
    match p {
        PostOp::Relu => &[ComputeFn::Relu],
        PostOp::Pool { op: PoolOp::Max, .. } => &[ComputeFn::Max],
        PostOp::Pool { op: PoolOp::Average, .. } => &[ComputeFn::Avg],
        PostOp::Residual { .. } => &[ComputeFn::Add],
        // LSTM/RNN cell: gate nonlinearities plus state update.
        PostOp::RecurrentCell { .. } => {
            &[ComputeFn::Sigmoid, ComputeFn::Tanh, ComputeFn::Mul, ComputeFn::Add]
        }
    }
}

/// Emits the instruction block for one fused GEMM group.
///
/// Two allocations: the block's name and its instruction storage, sized
/// exactly from the strides and loads decided before any is emitted.
///
/// # Errors
///
/// Returns [`CompileError::Emit`] if the block violates ISA structure —
/// which would be a compiler bug; the error keeps the API total.
pub fn lower_gemm(input: &LowerInput<'_>, arch: &ArchConfig) -> Result<InstructionBlock, CompileError> {
    let layer = input.layer;
    let plan = input.plan;
    let seq = plan.order.sequence();
    let trips = seq.map(|d| dim_size(layer, d).div_ceil(tile_size(plan, d)));

    // Depth (0-based position in `seq`) of the deepest loop each tensor
    // depends on: that is where its DMA lives.
    let depth_of = |dims: &[TileDim]| -> usize {
        seq.iter()
            .rposition(|d| dims.contains(d))
            .expect("tensor depends on some dim")
    };
    let w_depth = depth_of(&[TileDim::M, TileDim::K]);
    // A depthwise layer's inputs are indexed by every tile dimension (each
    // output channel reads its own window), so its input DMA always lives
    // in the innermost tile loop.
    let i_dims: &[TileDim] = if layer.depthwise {
        &[TileDim::M, TileDim::K, TileDim::N]
    } else {
        &[TileDim::K, TileDim::N]
    };
    let i_depth = depth_of(i_dims);
    let o_depth = depth_of(&[TileDim::M, TileDim::N]);
    let k_pos = seq
        .iter()
        .position(|d| *d == TileDim::K)
        .expect("k in sequence");
    let spilling = k_pos < o_depth && trips[k_pos] > 1;

    let pair = layer.pair;
    let lanes = (arch.rows as u64) * pair.fused_pes_per_unit() as u64;
    let cols = arch.cols as u64;

    // DMA word counts (average tile; edge tiles are padded by the cost
    // model, averaged here).
    let tm = trips[seq.iter().position(|d| *d == TileDim::M).expect("m")];
    let tk = trips[k_pos];
    let tn = trips[seq.iter().position(|d| *d == TileDim::N).expect("n")];
    let w_words = (plan.tiles.m * plan.tiles.k).max(1);
    let i_trips = if layer.depthwise { tm * tk * tn } else { tk * tn };
    let i_words = layer.unique_input_elems.div_ceil(i_trips).max(1);
    let shrink: u64 = input.postops.iter().map(PostOp::shrink).product::<u64>().max(1);
    let o_store_words = (layer.output_elems / shrink).div_ceil(tm * tn).max(1);
    let residual_bits: u64 = input.postops.iter().map(PostOp::extra_input_bits).sum();

    // Off-chip strides of each tile loop, per tensor layout (row-major
    // [m][k] weights, [k][n] inputs, [m][n] outputs); a zero stride emits
    // no `gen-addr`.
    let strides = seq.map(|d| {
        let w = match d {
            TileDim::M => plan.tiles.m * layer.shape.k,
            TileDim::K => plan.tiles.k,
            TileDim::N => 0,
        };
        let i = match d {
            TileDim::K => plan.tiles.k * layer.shape.n,
            TileDim::N => plan.tiles.n,
            // Depthwise inputs are laid out [m][k][n]: advancing the m tile
            // walks to the next channel group's windows.
            TileDim::M if layer.depthwise => plan.tiles.m * layer.shape.k * layer.shape.n,
            TileDim::M => 0,
        };
        let o = match d {
            TileDim::M => plan.tiles.m * layer.shape.n / shrink,
            TileDim::N => plan.tiles.n,
            TileDim::K => 0,
        };
        [(Scratchpad::Wbuf, w), (Scratchpad::Ibuf, i), (Scratchpad::Obuf, o)]
    });
    let post_fns: usize = input.postops.iter().map(|p| post_op_compute_fns(p).len()).sum();
    let instructions = 2 // setup, block-end
        + 3 // tile loops
        + strides.iter().flatten().filter(|&&(_, s)| s > 0).count()
        + 2 // weight and input loads
        + usize::from(residual_bits > 0)
        + usize::from(spilling) // partial-sum reload
        + 3 + 6 // compute loops and their on-chip strides
        + 3 // rd-buf, rd-buf, compute mac
        + post_fns
        + 1 // wr-buf
        + 1; // output store

    let mut b = BlockBuilder::with_capacity(input.name, pair, instructions);
    // Synthetic but distinct DRAM bases: weights after inputs, outputs last.
    b.set_base(Scratchpad::Ibuf, 0);
    b.set_base(
        Scratchpad::Wbuf,
        layer.unique_input_elems,
    );
    b.set_base(
        Scratchpad::Obuf,
        layer.unique_input_elems + layer.weight_elems,
    );

    // --- Tile loops, outermost first, with DMA at the right depths. ---
    for depth in 0..3 {
        let id = b.open_loop(trips[depth].min(u32::MAX as u64) as u32)?;
        for (buffer, stride) in strides[depth] {
            if stride > 0 {
                b.gen_addr(id, AddressSpace::OffChip, buffer, stride)?;
            }
        }
        // DMA loads owned by this depth.
        if depth == w_depth {
            b.ld_mem(Scratchpad::Wbuf, pair.weight.bits(), w_words)?;
        }
        if depth == i_depth {
            b.ld_mem(Scratchpad::Ibuf, pair.input.bits(), i_words)?;
            if residual_bits > 0 {
                // Residual stream rides the input buffer at the layer's
                // input precision.
                let words = residual_bits
                    .div_ceil(pair.input.bits() as u64)
                    .div_ceil(i_trips)
                    .max(1);
                b.ld_mem(Scratchpad::Ibuf, pair.input.bits(), words)?;
            }
        }
        if spilling && depth == o_depth {
            // Reload the 32-bit partial tile for accumulation.
            b.ld_mem(Scratchpad::Obuf, 32, (plan.tiles.m * plan.tiles.n).max(1))?;
        }
    }

    // --- Inner compute nest. ---
    let m_passes = plan.tiles.m.div_ceil(cols);
    let k_steps = plan.tiles.k.div_ceil(lanes);
    let mi = b.open_loop(m_passes.min(u32::MAX as u64) as u32)?;
    b.gen_addr(mi, AddressSpace::OnChip, Scratchpad::Wbuf, plan.tiles.k * cols)?;
    b.gen_addr(mi, AddressSpace::OnChip, Scratchpad::Obuf, cols)?;
    let ni = b.open_loop(plan.tiles.n.min(u32::MAX as u64) as u32)?;
    b.gen_addr(ni, AddressSpace::OnChip, Scratchpad::Ibuf, plan.tiles.k)?;
    b.gen_addr(ni, AddressSpace::OnChip, Scratchpad::Obuf, plan.tiles.m)?;
    let ki = b.open_loop(k_steps.min(u32::MAX as u64) as u32)?;
    b.gen_addr(ki, AddressSpace::OnChip, Scratchpad::Ibuf, lanes)?;
    b.gen_addr(ki, AddressSpace::OnChip, Scratchpad::Wbuf, lanes)?;
    b.rd_buf(Scratchpad::Ibuf);
    b.rd_buf(Scratchpad::Wbuf);
    b.compute(ComputeFn::Mac);
    b.close_loop(); // ki
    // Post-ops apply per output vector on the way to OBUF (Figure 3's
    // per-column activation/pooling units).
    for p in input.postops {
        for &f in post_op_compute_fns(p) {
            b.compute(f);
        }
    }
    b.wr_buf(Scratchpad::Obuf);
    b.close_loop(); // ni
    b.close_loop(); // mi

    // --- Stores, walking back out of the tile loops. ---
    // Builder depth is now 3 (inside the innermost tile loop). Close down
    // to the store depth and emit.
    for depth in (0..3).rev() {
        // Currently at builder depth `depth + 1` (inside tile loop `depth`).
        if spilling && depth == o_depth {
            b.st_mem(Scratchpad::Obuf, 32, (plan.tiles.m * plan.tiles.n).max(1))?;
        } else if !spilling && depth == o_depth {
            b.st_mem(
                Scratchpad::Obuf,
                layer.output_bits,
                o_store_words,
            )?;
        }
        b.close_loop();
    }

    Ok(b.finish(input.next)?)
}

/// Per-segment mapping facts: what one iteration of the innermost tile loop
/// (one [`bitfusion_isa::walker::Segment`] of the emitted block) costs on
/// the array. The trace-driven simulation backend uses these to convert a
/// segment's compute-step count into systolic passes and fill/drain charges
/// without re-deriving the tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentFacts {
    /// Tile iterations in the block (`tm × tk × tn`) — the expected number
    /// of DMA-carrying segments.
    pub tiles: u64,
    /// MAC compute steps per tile iteration.
    pub compute_steps: u64,
    /// Systolic passes (weight refills into the array) per tile iteration.
    pub fill_passes: u64,
    /// MAC compute steps in one systolic pass (`n_t × k_steps`): segments
    /// with fewer steps (edge tiles, drain segments) still pay fill/drain
    /// once per started pass.
    pub steps_per_pass: u64,
}

/// Analytic mapping facts the performance simulator consumes, derived from
/// the same quantities the lowering used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Total dynamic MAC `compute` steps.
    pub compute_steps: u64,
    /// Cycles per compute step (1, or up to 4 for 16-bit operands).
    pub temporal_cycles: u64,
    /// Systolic passes (weight refills into the array): fill/drain is
    /// charged once each.
    pub fill_passes: u64,
    /// Reduction lanes (rows × Fused-PEs per unit).
    pub lanes: u64,
    /// Array columns.
    pub cols: u64,
    /// IBUF bits consumed per compute step (broadcast across columns).
    pub ibuf_bits_per_step: u64,
    /// WBUF bits consumed per compute step (distinct per column).
    pub wbuf_bits_per_step: u64,
    /// Total OBUF write bits.
    pub obuf_write_bits: u64,
    /// Total OBUF read bits (partial-sum revisits).
    pub obuf_read_bits: u64,
    /// Fused post-op scalar operations.
    pub postop_ops: u64,
    /// Total multiply-accumulates (unpadded).
    pub macs: u64,
    /// Per-tile-iteration facts for the segment-driven backend.
    pub per_tile: SegmentFacts,
}

/// Computes the mapping facts for a lowered group.
pub fn mapping_for(input: &LowerInput<'_>, arch: &ArchConfig) -> Mapping {
    let layer = input.layer;
    let plan = input.plan;
    let pair = layer.pair;
    let lanes = (arch.rows as u64) * pair.fused_pes_per_unit() as u64;
    let cols = arch.cols as u64;
    let s = layer.shape;
    let tm = s.m.div_ceil(plan.tiles.m);
    let tk = s.k.div_ceil(plan.tiles.k);
    let tn = s.n.div_ceil(plan.tiles.n);
    let m_passes = plan.tiles.m.div_ceil(cols);
    let k_steps = plan.tiles.k.div_ceil(lanes);
    let tiles = tm * tk * tn;
    let compute_steps = tiles * m_passes * plan.tiles.n * k_steps;
    let fill_passes = tiles * m_passes;
    let seq = plan.order.sequence();
    let k_pos = seq.iter().position(|d| *d == TileDim::K).expect("k");
    let o_depth = seq
        .iter()
        .rposition(|d| matches!(d, TileDim::M | TileDim::N))
        .expect("m or n");
    let spilling = k_pos < o_depth && tk > 1;
    // OBUF: one 32-bit vector write per (pass, n); reads on k revisits.
    let vector_writes = tiles * m_passes * plan.tiles.n;
    let obuf_write_bits = vector_writes * cols * 32;
    let obuf_read_bits = if spilling || tk > 1 {
        // Partials re-read once per extra k visit.
        (tk - 1) * s.m.div_ceil(cols) * cols * s.n * 32
    } else {
        0
    };
    let postop_ops = input
        .postops
        .iter()
        .map(|p| p.ops(layer.output_elems))
        .sum();
    Mapping {
        compute_steps,
        temporal_cycles: pair.temporal_cycles() as u64,
        fill_passes,
        lanes,
        cols,
        // A depthwise step cannot broadcast one input vector across the
        // columns: each column's channel reads its own window elements.
        ibuf_bits_per_step: if layer.depthwise {
            lanes * cols * pair.input.bits() as u64
        } else {
            lanes * pair.input.bits() as u64
        },
        wbuf_bits_per_step: lanes * cols * pair.weight.bits() as u64,
        obuf_write_bits,
        obuf_read_bits,
        postop_ops,
        macs: s.macs(),
        per_tile: SegmentFacts {
            tiles,
            compute_steps: m_passes * plan.tiles.n * k_steps,
            fill_passes: m_passes,
            steps_per_pass: plan.tiles.n * k_steps,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmShape;
    use crate::tiling::choose_tiling;
    use bitfusion_core::bitwidth::PairPrecision;
    use bitfusion_isa::walker;

    fn layer(m: u64, k: u64, n: u64, i: u32, w: u32) -> GemmLayer {
        GemmLayer {
            shape: GemmShape { m, k, n },
            pair: PairPrecision::from_bits(i, w).unwrap(),
            unique_input_elems: k * n,
            output_elems: m * n,
            weight_elems: m * k,
            output_bits: i,
            depthwise: false,
        }
    }

    #[test]
    fn depthwise_block_stays_consistent_with_cost_model() {
        let arch = ArchConfig::isca_45nm();
        let dw = GemmLayer {
            unique_input_elems: 128 * 58 * 58 * 3,
            depthwise: true,
            ..layer(128, 9, 3136, 8, 8)
        };
        let plan = choose_tiling(&dw, &arch, 0).unwrap();
        let input = LowerInput {
            name: "dw",
            layer: &dw,
            plan: &plan,
            postops: &[],
            next: 0,
        };
        let block = lower_gemm(&input, &arch).unwrap();
        let summary = walker::summarize(&block);
        let modelled = plan.traffic.total_bits();
        let emitted = summary.dram_bits();
        let rel = (emitted as f64 - modelled as f64).abs() / modelled as f64;
        assert!(rel < 0.05, "emitted {emitted} vs modelled {modelled}");
        // Per-column input feed: each reduction lane of each column reads
        // its own window element every step.
        let mapping = mapping_for(&input, &arch);
        assert_eq!(
            mapping.ibuf_bits_per_step,
            mapping.lanes * mapping.cols * 8
        );
        assert_eq!(
            walker::segments(&block)
                .iter()
                .map(|s| s.compute_count(bitfusion_isa::ComputeFn::Mac))
                .sum::<u64>(),
            mapping.compute_steps
        );
    }

    fn lower(
        l: &GemmLayer,
        postops: &[PostOp],
    ) -> (InstructionBlock, Mapping, ArchConfig) {
        let arch = ArchConfig::isca_45nm();
        let plan = choose_tiling(l, &arch, 0).unwrap();
        let input = LowerInput {
            name: "test",
            layer: l,
            plan: &plan,
            postops,
            next: 0,
        };
        let block = lower_gemm(&input, &arch).unwrap();
        let mapping = mapping_for(&input, &arch);
        (block, mapping, arch)
    }

    #[test]
    fn block_size_in_paper_range() {
        // §IV-A: blocks of 30-86 instructions cover the evaluated layers.
        let l = layer(512, 2400, 729, 4, 1);
        let (block, _, _) = lower(&l, &[PostOp::Relu]);
        assert!(
            (20..=86).contains(&block.len()),
            "block has {} instructions",
            block.len()
        );
    }

    #[test]
    fn walker_compute_count_matches_mapping() {
        let l = layer(128, 1152, 1024, 1, 1);
        let (block, mapping, _) = lower(&l, &[]);
        let summary = walker::summarize(&block);
        assert_eq!(
            summary.compute_count(bitfusion_isa::ComputeFn::Mac),
            mapping.compute_steps
        );
    }

    #[test]
    fn walker_dram_bits_match_cost_model() {
        let arch = ArchConfig::isca_45nm();
        let l = layer(512, 4608, 2916, 2, 2);
        let plan = choose_tiling(&l, &arch, 0).unwrap();
        let input = LowerInput {
            name: "t",
            layer: &l,
            plan: &plan,
            postops: &[],
            next: 0,
        };
        let block = lower_gemm(&input, &arch).unwrap();
        let summary = walker::summarize(&block);
        let modelled = plan.traffic.total_bits();
        let emitted = summary.dram_bits();
        let rel = (emitted as f64 - modelled as f64).abs() / modelled as f64;
        assert!(rel < 0.05, "emitted {emitted} vs modelled {modelled}");
    }

    #[test]
    fn compute_steps_cover_all_macs() {
        // steps x lanes x cols >= macs, and utilization is reasonable for
        // a well-shaped layer.
        let l = layer(512, 2400, 11664, 4, 1);
        let (_, mapping, _) = lower(&l, &[]);
        let peak_macs = mapping.compute_steps * mapping.lanes * mapping.cols;
        assert!(peak_macs >= mapping.macs);
        let util = mapping.macs as f64 / peak_macs as f64;
        assert!(util > 0.5, "utilization {util}");
    }

    #[test]
    fn postops_emit_compute_instructions() {
        let l = layer(64, 512, 64, 8, 8);
        let (block, mapping, _) = lower(
            &l,
            &[PostOp::Relu, PostOp::Pool { window: 9, shrink: 4, op: PoolOp::Max }],
        );
        let text = block.to_string();
        assert!(text.contains("compute relu"));
        assert!(text.contains("compute max"));
        assert_eq!(mapping.postop_ops, 64 * 64 * 2);
    }

    #[test]
    fn binary_layers_use_16_lanes_per_unit() {
        let l = layer(128, 1152, 1024, 1, 1);
        let (_, mapping, arch) = lower(&l, &[]);
        assert_eq!(mapping.lanes, arch.rows as u64 * 16);
        assert_eq!(mapping.temporal_cycles, 1);
    }

    #[test]
    fn sixteen_bit_runs_temporally() {
        let l = layer(64, 256, 64, 16, 16);
        let (_, mapping, _) = lower(&l, &[]);
        assert_eq!(mapping.temporal_cycles, 4);
    }

    #[test]
    fn segment_facts_tile_the_whole_layer() {
        let l = layer(512, 2400, 729, 4, 1);
        let (block, mapping, _) = lower(&l, &[PostOp::Relu]);
        let t = mapping.per_tile;
        // Per-tile facts scale back up to the whole-layer aggregates.
        assert_eq!(t.tiles * t.compute_steps, mapping.compute_steps);
        assert_eq!(t.tiles * t.fill_passes, mapping.fill_passes);
        assert_eq!(t.steps_per_pass * t.fill_passes, t.compute_steps);
        // The emitted block's MAC-carrying segments are exactly the tiles,
        // each carrying the per-tile compute steps.
        let segs = walker::segments(&block);
        let mac_segs: Vec<_> = segs
            .iter()
            .filter(|s| s.compute_count(bitfusion_isa::ComputeFn::Mac) > 0)
            .collect();
        assert_eq!(mac_segs.len() as u64, t.tiles);
        for s in &mac_segs {
            assert_eq!(s.compute_count(bitfusion_isa::ComputeFn::Mac), t.compute_steps);
        }
    }
}
