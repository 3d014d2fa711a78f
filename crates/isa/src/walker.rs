//! Execution semantics of instruction blocks: the event walker, the
//! analytic summarizer, and the segment iterator.
//!
//! The *walker* executes a block's loop nest instruction by instruction,
//! computing every address with Equation 4
//! (`address = base + Σ loop_iterator[id] × stride[id]`) and handing each
//! dynamic memory/compute operation to a visitor. It is exact and is used by
//! functional tests and small-scale inspection.
//!
//! The *summarizer* computes the same aggregate counts (DMA bits, buffer
//! accesses, compute steps) analytically — O(static block size) instead of
//! O(dynamic instruction count) — by one scan of the flat tagged list that
//! keeps a multiplier per loop level, with no allocation; it is what the
//! analytic performance model uses for full networks.
//!
//! The *segment iterator* ([`segments`]/[`for_each_segment`]) sits between
//! the two: it cuts the dynamic instruction stream at the iteration
//! boundaries of the DMA-issuing tile loops, yielding one [`Segment`] per
//! tile iteration with that slice's DMA bits, buffer accesses, and compute
//! steps (the interior compute nest is folded analytically). Concatenating
//! all segments reproduces [`summarize`] exactly; the trace-driven timing
//! backend consumes the segment stream to model double-buffered DMA/compute
//! overlap without enumerating inner-loop iterations.

use crate::block::{BodyItem, InstructionBlock, LoopTree, MAX_LOOP_DEPTH};
use crate::instruction::{AddressSpace, ComputeFn, Instruction, Scratchpad, MAX_LOOP_ID};
use crate::program::SegmentProgram;

/// A dynamic operation produced by walking a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// DRAM → scratchpad DMA.
    DmaLoad {
        /// Destination scratchpad.
        buffer: Scratchpad,
        /// Element bitwidth.
        bits: u32,
        /// Element count.
        words: u64,
        /// DRAM address (elements) from Equation 4.
        addr: u64,
    },
    /// Scratchpad → DRAM DMA.
    DmaStore {
        /// Source scratchpad.
        buffer: Scratchpad,
        /// Element bitwidth.
        bits: u32,
        /// Element count.
        words: u64,
        /// DRAM address (elements) from Equation 4.
        addr: u64,
    },
    /// Scratchpad → datapath vector read.
    BufRead {
        /// Source scratchpad.
        buffer: Scratchpad,
        /// On-chip address (elements) from Equation 4.
        addr: u64,
    },
    /// Datapath → scratchpad vector write.
    BufWrite {
        /// Destination scratchpad.
        buffer: Scratchpad,
        /// On-chip address (elements) from Equation 4.
        addr: u64,
    },
    /// One dynamic compute step.
    Compute {
        /// The operation.
        op: ComputeFn,
    },
}

/// Walks every dynamic instruction of `block`, invoking `visit` per event.
///
/// Addresses follow Equation 4: for each (space, buffer) stream, the address
/// is the stream's base plus the sum over declared strides of
/// `loop_iterator × stride`. DMA events use the off-chip stream; buffer
/// events use the on-chip stream.
pub fn walk(block: &InstructionBlock, visit: &mut impl FnMut(Event)) {
    let tree = block.loop_tree();
    let strides = StrideIndex::new(&tree);
    let mut iters = [0u64; (MAX_LOOP_ID as usize) + 1];
    walk_items(&tree, &strides, &tree.body, &mut iters, visit);
}

/// Strides pre-indexed per (space, buffer) stream, so per-event address
/// computation touches only that stream's declared strides instead of
/// scanning the whole `gen-addr` table (built once per [`walk`]).
struct StrideIndex {
    /// `streams[space][buffer.code()]` → `(loop index, stride)` pairs.
    streams: [[Vec<(usize, u64)>; 3]; 2],
}

impl StrideIndex {
    fn new(tree: &LoopTree) -> Self {
        let mut streams: [[Vec<(usize, u64)>; 3]; 2] = Default::default();
        for (&(sp, buf, id), &stride) in &tree.strides {
            streams[sp as usize][buf.code() as usize].push((id.0 as usize, stride));
        }
        StrideIndex { streams }
    }

    /// Equation 4 for one stream: base + Σ loop_iterator × stride. Inactive
    /// loops hold iterator 0, contributing nothing — identical to skipping
    /// them.
    fn address(
        &self,
        tree: &LoopTree,
        iters: &[u64; (MAX_LOOP_ID as usize) + 1],
        space: AddressSpace,
        buffer: Scratchpad,
    ) -> u64 {
        let base = match space {
            AddressSpace::OffChip => tree.bases.base(buffer),
            AddressSpace::OnChip => 0,
        };
        self.streams[space.code() as usize][buffer.code() as usize]
            .iter()
            .fold(base, |addr, &(id, stride)| addr + iters[id] * stride)
    }
}

fn walk_items(
    tree: &LoopTree,
    strides: &StrideIndex,
    items: &[BodyItem],
    iters: &mut [u64; (MAX_LOOP_ID as usize) + 1],
    visit: &mut impl FnMut(Event),
) {
    for item in items {
        match item {
            BodyItem::Instr(instr) => match *instr {
                Instruction::LdMem { buffer, bits, words } => visit(Event::DmaLoad {
                    buffer,
                    bits,
                    words,
                    addr: strides.address(tree, iters, AddressSpace::OffChip, buffer),
                }),
                Instruction::StMem { buffer, bits, words } => visit(Event::DmaStore {
                    buffer,
                    bits,
                    words,
                    addr: strides.address(tree, iters, AddressSpace::OffChip, buffer),
                }),
                Instruction::RdBuf { buffer } => visit(Event::BufRead {
                    buffer,
                    addr: strides.address(tree, iters, AddressSpace::OnChip, buffer),
                }),
                Instruction::WrBuf { buffer } => visit(Event::BufWrite {
                    buffer,
                    addr: strides.address(tree, iters, AddressSpace::OnChip, buffer),
                }),
                Instruction::Compute { op } => visit(Event::Compute { op }),
                _ => {}
            },
            BodyItem::Loop(node) => {
                for i in 0..node.iterations as u64 {
                    iters[node.id.0 as usize] = i;
                    walk_items(tree, strides, &node.body, iters, visit);
                }
                iters[node.id.0 as usize] = 0;
            }
        }
    }
}

/// Per-scratchpad aggregate access counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferCounts {
    /// `rd-buf` executions.
    pub reads: u64,
    /// `wr-buf` executions.
    pub writes: u64,
    /// Bits loaded from DRAM into this scratchpad.
    pub dma_load_bits: u64,
    /// Bits stored from this scratchpad to DRAM.
    pub dma_store_bits: u64,
}

/// Dynamic execution counts per compute function, held as a fixed array
/// indexed by [`ComputeFn::code`].
///
/// [`ComputeFn`] is a small closed enum, so a flat array makes merging,
/// resetting, and lookups branch-free and allocation-free — this is what
/// lets a [`Segment`] accumulator be reused across millions of tile
/// iterations without touching the heap (the previous `BTreeMap` paid an
/// allocation per distinct function per segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComputeCounts([u64; ComputeFn::COUNT]);

impl ComputeCounts {
    /// Dynamic executions of one compute function.
    pub fn get(&self, op: ComputeFn) -> u64 {
        self.0[op.code() as usize]
    }

    /// Adds `n` executions of `op`.
    pub fn add(&mut self, op: ComputeFn, n: u64) {
        self.0[op.code() as usize] += n;
    }

    /// Total executions across all functions.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Resets every count to zero in place.
    pub fn clear(&mut self) {
        self.0 = [0; ComputeFn::COUNT];
    }

    /// Accumulates another count set into this one.
    pub fn merge(&mut self, other: &ComputeCounts) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += *b;
        }
    }

    /// Iterates the functions with a nonzero count, in code order.
    pub fn iter(&self) -> impl Iterator<Item = (ComputeFn, u64)> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(code, &n)| (ComputeFn::from_code(code as u8).expect("code < COUNT"), n))
    }
}

/// Analytic execution summary of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockSummary {
    /// Counts per scratchpad, indexed by [`Scratchpad::code`].
    pub buffers: [BufferCounts; 3],
    /// Dynamic executions per compute function.
    pub compute: ComputeCounts,
    /// Total dynamic instructions (all kinds).
    pub dynamic_instructions: u64,
}

impl BlockSummary {
    /// Counts for a scratchpad.
    pub fn buffer(&self, buffer: Scratchpad) -> &BufferCounts {
        &self.buffers[buffer.code() as usize]
    }

    /// Total DRAM traffic in bits (loads + stores).
    pub fn dram_bits(&self) -> u64 {
        self.buffers
            .iter()
            .map(|b| b.dma_load_bits + b.dma_store_bits)
            .sum()
    }

    /// Bits loaded from DRAM across all scratchpads.
    pub fn dma_load_bits(&self) -> u64 {
        self.buffers.iter().map(|b| b.dma_load_bits).sum()
    }

    /// Bits stored to DRAM across all scratchpads.
    pub fn dma_store_bits(&self) -> u64 {
        self.buffers.iter().map(|b| b.dma_store_bits).sum()
    }

    /// Total dynamic `compute` executions across all functions.
    pub fn compute_steps(&self) -> u64 {
        self.compute.total()
    }

    /// Dynamic executions of one compute function.
    pub fn compute_count(&self, op: ComputeFn) -> u64 {
        self.compute.get(op)
    }

    /// Whether the summary records no dynamic instructions.
    pub fn is_empty(&self) -> bool {
        self.dynamic_instructions == 0
    }

    /// Resets every count to zero in place. With the flat [`ComputeCounts`]
    /// representation this is a plain memset: a caller-owned accumulator can
    /// be cleared between segments without dropping or reallocating anything.
    pub fn clear(&mut self) {
        *self = BlockSummary::default();
    }

    /// Accumulates another summary into this one. Merging every [`Segment`]
    /// of a block reproduces the block's [`summarize`] result exactly — the
    /// segmentation invariant the simulation backends rely on.
    pub fn merge(&mut self, other: &BlockSummary) {
        for (a, b) in self.buffers.iter_mut().zip(&other.buffers) {
            a.reads += b.reads;
            a.writes += b.writes;
            a.dma_load_bits += b.dma_load_bits;
            a.dma_store_bits += b.dma_store_bits;
        }
        self.compute.merge(&other.compute);
        self.dynamic_instructions += other.dynamic_instructions;
    }
}

/// Computes the aggregate execution counts of a block analytically (without
/// enumerating loop iterations).
///
/// One scan of the tagged list, allocation-free: an instruction at level
/// `l` runs once per iteration of the loops enclosing it, and in a
/// validated block those are the latest `loop` seen at each level below
/// `l`, so a multiplier per level is the whole loop tree this fold needs.
pub fn summarize(block: &InstructionBlock) -> BlockSummary {
    let mut summary = BlockSummary::default();
    // mult[l]: dynamic executions of one instruction at level l.
    let mut mult = [1u64; MAX_LOOP_DEPTH as usize + 1];
    for t in block.body() {
        let level = t.level as usize;
        match t.instruction {
            Instruction::Loop { iterations, .. } => {
                mult[level + 1] = mult[level] * iterations as u64;
            }
            // `gen-addr` is declarative: it never executes.
            Instruction::GenAddr { .. } => {}
            ref instr => fold_instr(instr, mult[level], &mut summary),
        }
    }
    summary
}

/// [`summarize`] as a fold over the reconstructed [`LoopTree`]: the
/// executable specification the flat scan is tested against. Not for
/// production use.
#[doc(hidden)]
pub fn summarize_reference(block: &InstructionBlock) -> BlockSummary {
    let mut summary = BlockSummary::default();
    fold_items(&block.loop_tree().body, 1, &mut summary);
    summary
}

pub(crate) fn fold_instr(instr: &Instruction, multiplier: u64, summary: &mut BlockSummary) {
    summary.dynamic_instructions += multiplier;
    match *instr {
        Instruction::LdMem { buffer, bits, words } => {
            summary.buffers[buffer.code() as usize].dma_load_bits +=
                multiplier * words * bits as u64;
        }
        Instruction::StMem { buffer, bits, words } => {
            summary.buffers[buffer.code() as usize].dma_store_bits +=
                multiplier * words * bits as u64;
        }
        Instruction::RdBuf { buffer } => {
            summary.buffers[buffer.code() as usize].reads += multiplier;
        }
        Instruction::WrBuf { buffer } => {
            summary.buffers[buffer.code() as usize].writes += multiplier;
        }
        Instruction::Compute { op } => {
            summary.compute.add(op, multiplier);
        }
        _ => {}
    }
}

pub(crate) fn fold_items(items: &[BodyItem], multiplier: u64, summary: &mut BlockSummary) {
    for item in items {
        match item {
            BodyItem::Instr(instr) => fold_instr(instr, multiplier, summary),
            BodyItem::Loop(node) => {
                fold_items(&node.body, multiplier * node.iterations as u64, summary);
            }
        }
    }
}

/// One double-buffering segment of a block's execution: the access counts of
/// the dynamic instruction slice between two tile-iteration boundaries (see
/// [`for_each_segment`]).
pub type Segment = BlockSummary;

pub(crate) fn subtree_has_dma(items: &[BodyItem]) -> bool {
    items.iter().any(|item| match item {
        BodyItem::Instr(instr) => matches!(
            instr,
            Instruction::LdMem { .. } | Instruction::StMem { .. }
        ),
        BodyItem::Loop(node) => subtree_has_dma(&node.body),
    })
}

fn collect_segments_reference(
    items: &[BodyItem],
    cur: &mut Segment,
    visit: &mut impl FnMut(&Segment),
) {
    for item in items {
        match item {
            BodyItem::Instr(instr) => fold_instr(instr, 1, cur),
            BodyItem::Loop(node) if subtree_has_dma(&node.body) => {
                // A DMA-carrying loop is *enumerated*: each iteration closes
                // a segment (tile loads issued at shallower depths were
                // accumulated into `cur` and ride the iteration's first
                // segment; post-body stores ride its last).
                for _ in 0..node.iterations {
                    collect_segments_reference(&node.body, cur, visit);
                    if !cur.is_empty() {
                        visit(cur);
                        *cur = Segment::default();
                    }
                }
            }
            BodyItem::Loop(node) => {
                // DMA-free subtrees (the inner compute nest) fold
                // analytically into the current segment.
                fold_items(&node.body, node.iterations as u64, cur);
            }
        }
    }
}

/// Streams the block's [`Segment`]s in execution order.
///
/// Segmentation rule: every loop whose subtree issues DMA (`ld-mem` /
/// `st-mem`) is enumerated, and each iteration of the *innermost* such loop
/// ends a segment; loops without DMA below them (the `m/n/k` compute nest)
/// are folded analytically into the enclosing segment. Instructions that
/// execute outside any DMA loop land in the segment being built when they
/// run — outer-tile loads prefetch with the first inner segment of their
/// iteration, and a tile loop's post-body `st-mem` drains with its last.
///
/// The stream is produced by compiling the loop tree once into a
/// [`SegmentProgram`] and replaying it:
/// per-segment cost is O(1) array arithmetic (DMA-free subtrees are folded
/// a single time at build, not once per tile iteration), and replay never
/// allocates. Compile the program yourself to amortize the build across
/// replays.
///
/// Invariant: merging every visited segment equals [`summarize`]
/// (see [`BlockSummary::merge`]); the ISA property tests pin this, and pin
/// the stream against [`for_each_segment_reference`].
pub fn for_each_segment(block: &InstructionBlock, visit: &mut impl FnMut(&Segment)) {
    SegmentProgram::compile(block).replay(&mut |seg, _, _| visit(seg));
}

/// The naive per-iteration tree walk [`for_each_segment`] replaced: it
/// re-decides `subtree_has_dma` on every iteration of every enumerated tile
/// loop and re-folds each DMA-free compute nest once per segment.
///
/// Kept as the executable specification of the segmentation rule: the
/// property tests replay every [`SegmentProgram`](crate::program) against
/// it, and the event backend's naive oracle walks it. Not for production
/// use.
#[doc(hidden)]
pub fn for_each_segment_reference(
    block: &InstructionBlock,
    visit: &mut impl FnMut(&Segment),
) {
    let tree = block.loop_tree();
    let mut cur = Segment::default();
    collect_segments_reference(&tree.body, &mut cur, visit);
    if !cur.is_empty() {
        visit(&cur);
    }
}

/// Collects the block's [`Segment`]s into a vector (see
/// [`for_each_segment`]; prefer the streaming form for large blocks).
pub fn segments(block: &InstructionBlock) -> Vec<Segment> {
    let mut out = Vec::new();
    for_each_segment(block, &mut |s| out.push(*s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BlockBuilder;
    use bitfusion_core::bitwidth::PairPrecision;

    /// A tiled block: 3 tiles, each loading 10 weights then computing 4
    /// MACs per tile with a weight-buffer walk.
    fn tiled_block() -> InstructionBlock {
        let pair = PairPrecision::from_bits(4, 2).unwrap();
        let mut b = BlockBuilder::new("walk-test", pair);
        b.set_base(Scratchpad::Wbuf, 1000);
        let t = b.open_loop(3).unwrap();
        b.gen_addr(t, AddressSpace::OffChip, Scratchpad::Wbuf, 10).unwrap();
        b.ld_mem(Scratchpad::Wbuf, 2, 10).unwrap();
        let k = b.open_loop(4).unwrap();
        b.gen_addr(k, AddressSpace::OnChip, Scratchpad::Wbuf, 2).unwrap();
        b.rd_buf(Scratchpad::Ibuf);
        b.rd_buf(Scratchpad::Wbuf);
        b.compute(ComputeFn::Mac);
        b.close_loop();
        b.wr_buf(Scratchpad::Obuf);
        b.close_loop();
        b.st_mem(Scratchpad::Obuf, 8, 3).unwrap();
        b.finish(0).unwrap()
    }

    #[test]
    fn walk_produces_equation_4_addresses() {
        let block = tiled_block();
        let mut dma_addrs = Vec::new();
        let mut wbuf_read_addrs = Vec::new();
        walk(&block, &mut |e| match e {
            Event::DmaLoad { buffer: Scratchpad::Wbuf, addr, .. } => dma_addrs.push(addr),
            Event::BufRead { buffer: Scratchpad::Wbuf, addr } => wbuf_read_addrs.push(addr),
            _ => {}
        });
        // DMA: base 1000 + tile * 10.
        assert_eq!(dma_addrs, vec![1000, 1010, 1020]);
        // On-chip weight walk: k * 2, repeating per tile.
        assert_eq!(wbuf_read_addrs.len(), 12);
        assert_eq!(&wbuf_read_addrs[0..4], &[0, 2, 4, 6]);
        assert_eq!(&wbuf_read_addrs[4..8], &[0, 2, 4, 6]);
    }

    #[test]
    fn summary_matches_brute_force_walk() {
        let block = tiled_block();
        let summary = summarize(&block);
        let mut compute = 0u64;
        let mut wbuf_reads = 0u64;
        let mut load_bits = 0u64;
        let mut store_bits = 0u64;
        let mut events = 0u64;
        walk(&block, &mut |e| {
            events += 1;
            match e {
                Event::Compute { .. } => compute += 1,
                Event::BufRead { buffer: Scratchpad::Wbuf, .. } => wbuf_reads += 1,
                Event::DmaLoad { bits, words, .. } => load_bits += bits as u64 * words,
                Event::DmaStore { bits, words, .. } => store_bits += bits as u64 * words,
                _ => {}
            }
        });
        assert_eq!(summary.compute_steps(), compute);
        assert_eq!(summary.compute_count(ComputeFn::Mac), 12);
        assert_eq!(summary.buffer(Scratchpad::Wbuf).reads, wbuf_reads);
        assert_eq!(
            summary.buffers.iter().map(|b| b.dma_load_bits).sum::<u64>(),
            load_bits
        );
        assert_eq!(
            summary.buffers.iter().map(|b| b.dma_store_bits).sum::<u64>(),
            store_bits
        );
        assert_eq!(summary.dynamic_instructions, events);
        // DRAM totals: 3 tiles x 10 weights x 2 bits + 3 outputs x 8 bits.
        assert_eq!(summary.dram_bits(), 3 * 10 * 2 + 3 * 8);
    }

    #[test]
    fn segments_cut_at_tile_iterations() {
        let block = tiled_block();
        let segs = segments(&block);
        // 3 tile iterations plus the trailing top-level st-mem drain.
        assert_eq!(segs.len(), 4);
        for seg in &segs[0..3] {
            assert_eq!(seg.buffer(Scratchpad::Wbuf).dma_load_bits, 10 * 2);
            assert_eq!(seg.compute_count(ComputeFn::Mac), 4);
            assert_eq!(seg.buffer(Scratchpad::Obuf).writes, 1);
        }
        assert_eq!(segs[3].buffer(Scratchpad::Obuf).dma_store_bits, 3 * 8);
        assert_eq!(segs[3].compute_steps(), 0);
    }

    #[test]
    fn segments_merge_back_to_summary() {
        let block = tiled_block();
        let mut merged = BlockSummary::default();
        for_each_segment(&block, &mut |s| merged.merge(s));
        assert_eq!(merged, summarize(&block));
    }

    #[test]
    fn dma_free_block_is_one_segment() {
        let pair = PairPrecision::from_bits(2, 2).unwrap();
        let mut b = BlockBuilder::new("no-dma", pair);
        b.open_loop(5).unwrap();
        b.rd_buf(Scratchpad::Ibuf);
        b.compute(ComputeFn::Mac);
        b.close_loop();
        let block = b.finish(0).unwrap();
        let segs = segments(&block);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0], summarize(&block));
    }

    #[test]
    fn nested_dma_loops_segment_at_the_innermost() {
        // Outer loop loads IBUF, inner loop loads WBUF: segments cut at the
        // inner loop, outer loads riding each outer iteration's first
        // segment.
        let pair = PairPrecision::from_bits(4, 2).unwrap();
        let mut b = BlockBuilder::new("nested", pair);
        b.open_loop(2).unwrap();
        b.ld_mem(Scratchpad::Ibuf, 4, 100).unwrap();
        b.open_loop(3).unwrap();
        b.ld_mem(Scratchpad::Wbuf, 2, 10).unwrap();
        b.compute(ComputeFn::Mac);
        b.close_loop();
        b.close_loop();
        let block = b.finish(0).unwrap();
        let segs = segments(&block);
        assert_eq!(segs.len(), 2 * 3);
        for (i, seg) in segs.iter().enumerate() {
            let expect_ibuf = if i % 3 == 0 { 400 } else { 0 };
            assert_eq!(seg.buffer(Scratchpad::Ibuf).dma_load_bits, expect_ibuf, "{i}");
            assert_eq!(seg.buffer(Scratchpad::Wbuf).dma_load_bits, 20, "{i}");
            assert_eq!(seg.compute_count(ComputeFn::Mac), 1, "{i}");
        }
    }

    #[test]
    fn empty_interior_block_summary_is_zero() {
        let pair = PairPrecision::from_bits(8, 8).unwrap();
        let block = BlockBuilder::new("empty", pair).finish(0).unwrap();
        let s = summarize(&block);
        assert_eq!(s.compute_steps(), 0);
        assert_eq!(s.dram_bits(), 0);
        assert_eq!(s.dynamic_instructions, 0);
    }
}
