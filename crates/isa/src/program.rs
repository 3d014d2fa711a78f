//! Compiled segment programs: the block's tile-segment stream as a flat,
//! reusable op sequence.
//!
//! [`crate::walker::for_each_segment`] defines the segment stream by a tree
//! walk: enumerate every DMA-carrying loop, fold DMA-free subtrees
//! analytically, cut a segment per innermost tile iteration. Executed
//! naively, that walk re-decides "does this subtree issue DMA?" on every
//! iteration of every enumerated loop and re-folds the identical compute
//! nest once per segment — work that depends only on the *static* tree, not
//! the iteration.
//!
//! [`SegmentProgram::compile`] hoists all of it to build time, once per
//! block, in two scans of the flat tagged list (no [`crate::LoopTree`] is
//! built): the first marks which loops carry DMA, the second emits the ops
//! from an explicit stack of open loops. Two allocations per build: the op
//! and delta vectors, each sized up front.
//!
//! * each maximal DMA-free run (plain instructions and whole DMA-free
//!   loop nests) folds into one constant per-iteration delta with its
//!   load/store bit totals precomputed;
//! * each DMA-carrying loop becomes a counted repeat op over its compiled
//!   body (or a fused repeat-emit op when the body is a single delta — the
//!   innermost tile loop, which is where the millions of iterations live);
//! * the whole-block totals ([`SegmentProgram::total`]) are folded once, so
//!   consumers that previously merged every segment to recover
//!   [`crate::walker::summarize`] read them for free.
//!
//! [`SegmentProgram::replay`] then streams the exact same segments as the
//! tree walk — the property tests replay every generated block against the
//! retained reference implementation — with O(1) array arithmetic per
//! segment and **zero heap allocations** in steady state (asserted by a
//! counting-allocator test). The accumulator and the visited segments are
//! plain `Copy` structs ([`crate::walker::ComputeCounts`] replaced the old
//! per-segment `BTreeMap`).
//!
//! [`SegmentProgram::replay_runs`] streams the same segments without
//! expanding the repetition: a fused tile loop reaches the [`ReplaySink`]
//! once with its trip count, and each counted loop reports its iteration
//! boundaries, so a consumer whose per-iteration update has reached a
//! steady state can jump over the iterations left.

use crate::block::{BodyItem, InstructionBlock, MAX_LOOP_DEPTH};
use crate::instruction::{Instruction, TaggedInstruction, MAX_LOOP_ID};
use crate::walker::{fold_instr, fold_items, subtree_has_dma, summarize, Segment};

/// A constant per-execution contribution: the folded access counts of one
/// maximal DMA-free run, with its DMA bit totals pre-summed so replay (and
/// the simulation backends) never re-walk `seg.buffers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Delta {
    seg: Segment,
    load_bits: u64,
    store_bits: u64,
}

impl Delta {
    fn from_segment(seg: Segment) -> Delta {
        Delta {
            seg,
            load_bits: seg.dma_load_bits(),
            store_bits: seg.dma_store_bits(),
        }
    }
}

/// One op of a compiled program. `Repeat` bodies are the op range
/// `[own index + 1, end)`, so the program is a pre-order flattening of the
/// enumerated part of the loop tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Fold `deltas[i]` into the accumulator.
    Delta(u32),
    /// Close the current segment: emit the accumulator if non-empty, then
    /// clear it in place.
    Emit,
    /// Replay the ops up to `end`, `count` times (a DMA-carrying loop).
    Repeat {
        /// Trip count of the source loop.
        count: u32,
        /// One past the last op of the body.
        end: u32,
    },
    /// Fused `Repeat { [Delta, Emit] }`: emit `deltas[i]` itself `count`
    /// times (merging any carried-in prefix into the first emission). This
    /// is the innermost tile loop — the hot path — reduced to one
    /// [`ReplaySink::run`] with no accumulator traffic at all.
    RepeatEmit {
        /// Trip count of the source loop.
        count: u32,
        /// The per-iteration delta.
        delta: u32,
    },
}

/// Replay accumulator: the segment being built plus its running DMA bit
/// totals (so emission hands precomputed sums to the visitor).
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    seg: Segment,
    load_bits: u64,
    store_bits: u64,
}

impl Accum {
    fn merge(&mut self, delta: &Delta) {
        self.seg.merge(&delta.seg);
        self.load_bits += delta.load_bits;
        self.store_bits += delta.store_bits;
    }

    fn clear(&mut self) {
        self.seg.clear();
        self.load_bits = 0;
        self.store_bits = 0;
    }
}

/// The consumer of a run-aware replay ([`SegmentProgram::replay_runs`]).
///
/// The stream it sees is the one [`SegmentProgram::replay`] visits, with
/// the repetition left visible: a fused tile loop arrives as one
/// [`ReplaySink::run`] instead of `count` identical segments, and a counted
/// loop announces the end of each iteration. A sink whose state update is
/// periodic can then apply many iterations at once.
pub trait ReplaySink {
    /// One segment built in the accumulator: a carried-in prefix merged
    /// into a tile loop's first iteration, or a complex loop body's
    /// emission. `load_bits`/`store_bits` are its DMA bit totals.
    fn segment(&mut self, seg: &Segment, load_bits: u64, store_bits: u64);

    /// `count ≥ 1` back-to-back segments, each exactly the program's
    /// constant delta [`SegmentProgram::delta`]`(delta)`.
    fn run(&mut self, delta: u32, count: u32);

    /// Iteration `done` of a counted loop at nesting `depth` (outermost
    /// `0`, always `<` [`crate::block::MAX_LOOP_DEPTH`]) has finished and
    /// `remaining ≥ 1` iterations are left. Every iteration after the
    /// first replays the same segments, and nothing is carried across the
    /// boundary. Return `true` if the sink applied all `remaining`
    /// iterations itself; the replay then skips them. The default steps.
    fn iteration_end(&mut self, depth: usize, done: u32, remaining: u32) -> bool {
        let _ = (depth, done, remaining);
        false
    }
}

/// The sink behind [`SegmentProgram::replay`]: expands every run into its
/// segments.
struct Expand<'a, F> {
    program: &'a SegmentProgram,
    visit: &'a mut F,
}

impl<F: FnMut(&Segment, u64, u64)> ReplaySink for Expand<'_, F> {
    fn segment(&mut self, seg: &Segment, load_bits: u64, store_bits: u64) {
        (self.visit)(seg, load_bits, store_bits);
    }

    fn run(&mut self, delta: u32, count: u32) {
        let d = &self.program.deltas[delta as usize];
        for _ in 0..count {
            (self.visit)(&d.seg, d.load_bits, d.store_bits);
        }
    }
}

/// A block's segment stream, compiled once into a flat op sequence (see the
/// module docs). Build with [`SegmentProgram::compile`], stream with
/// [`SegmentProgram::replay`] or [`SegmentProgram::replay_runs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentProgram {
    ops: Vec<Op>,
    deltas: Vec<Delta>,
    total: Segment,
}

/// Which loops carry DMA, by loop id, and the size of the block's body.
struct BodyShape {
    /// `dma[id]`: the loop's body issues `ld-mem`/`st-mem` at some depth.
    dma: [bool; MAX_LOOP_ID as usize + 1],
    /// Instructions that execute (neither `loop` nor `gen-addr`).
    plain: usize,
}

impl BodyShape {
    fn of(body: &[TaggedInstruction]) -> BodyShape {
        let mut shape = BodyShape {
            dma: [false; MAX_LOOP_ID as usize + 1],
            plain: 0,
        };
        // open[l]: the loop at level l around the current instruction (in a
        // validated block, the latest `loop` seen at that level).
        let mut open = [0u8; MAX_LOOP_DEPTH as usize];
        for t in body {
            match t.instruction {
                Instruction::Loop { id, .. } => open[t.level as usize] = id.0,
                Instruction::GenAddr { .. } => {}
                instr => {
                    shape.plain += 1;
                    if matches!(instr, Instruction::LdMem { .. } | Instruction::StMem { .. }) {
                        for &id in &open[..t.level as usize] {
                            shape.dma[id as usize] = true;
                        }
                    }
                }
            }
        }
        shape
    }
}

impl SegmentProgram {
    /// Compiles a block into a segment program. Cost is O(static block
    /// size) — every per-iteration decision of the naive walk
    /// (`subtree_has_dma`, folding DMA-free nests, summing DMA bits) is made
    /// exactly once here.
    pub fn compile(block: &InstructionBlock) -> SegmentProgram {
        let body = block.body();
        let shape = BodyShape::of(body);
        let dma_loops = shape.dma.iter().filter(|&&d| d).count();
        // Each delta folds at least one executing instruction; each DMA
        // loop adds at most a repeat and an emit; one trailing emit.
        let mut program = SegmentProgram {
            ops: Vec::with_capacity(shape.plain + 2 * dma_loops + 1),
            deltas: Vec::with_capacity(shape.plain),
            total: summarize(block),
        };
        // open[l]: the loop at level l that is open, as `Some((op index of
        // its repeat, trip count))` when it is enumerated (carries DMA) and
        // `None` when it folds into the pending delta.
        let mut open = [None; MAX_LOOP_DEPTH as usize];
        let mut depth = 0;
        // mult[l]: folds of one instruction at level l into the pending
        // delta — the trips of the DMA-free loops around it, up to the
        // innermost enumerated loop.
        let mut mult = [1u64; MAX_LOOP_DEPTH as usize + 1];
        let mut pending = Segment::default();
        for t in body {
            if matches!(t.instruction, Instruction::GenAddr { .. }) {
                continue;
            }
            let level = t.level as usize;
            while depth > level {
                depth -= 1;
                if let Some((at, count)) = open[depth] {
                    program.close_repeat(at, count, &mut pending);
                }
            }
            match t.instruction {
                Instruction::Loop { id, iterations } => {
                    open[level] = if shape.dma[id.0 as usize] {
                        program.flush(&mut pending);
                        program.ops.push(Op::Repeat { count: iterations, end: 0 });
                        mult[level + 1] = 1;
                        Some((program.ops.len() - 1, iterations))
                    } else {
                        mult[level + 1] = mult[level] * iterations as u64;
                        None
                    };
                    depth = level + 1;
                }
                ref instr => fold_instr(instr, mult[level], &mut pending),
            }
        }
        while depth > 0 {
            depth -= 1;
            if let Some((at, count)) = open[depth] {
                program.close_repeat(at, count, &mut pending);
            }
        }
        program.flush(&mut pending);
        program.ops.push(Op::Emit);
        program
    }

    /// [`SegmentProgram::compile`] as a recursive walk of the reconstructed
    /// [`crate::LoopTree`]: the executable specification the flat build is
    /// tested against. Not for production use.
    #[doc(hidden)]
    pub fn compile_reference(block: &InstructionBlock) -> SegmentProgram {
        let tree = block.loop_tree();
        let mut program = SegmentProgram {
            ops: Vec::new(),
            deltas: Vec::new(),
            total: Segment::default(),
        };
        let mut pending = Segment::default();
        program.compile_items(&tree.body, &mut pending);
        program.flush(&mut pending);
        program.ops.push(Op::Emit);
        fold_items(&tree.body, 1, &mut program.total);
        program
    }

    /// Pushes the pending DMA-free run as a single constant delta.
    fn flush(&mut self, pending: &mut Segment) {
        if !pending.is_empty() {
            let idx = u32::try_from(self.deltas.len()).expect("static block size");
            self.deltas.push(Delta::from_segment(*pending));
            self.ops.push(Op::Delta(idx));
            pending.clear();
        }
    }

    /// Ends the body of the enumerated loop whose placeholder repeat sits at
    /// op `at`: flushes the pending run, closes the iteration's segment,
    /// and patches the placeholder.
    fn close_repeat(&mut self, at: usize, count: u32, pending: &mut Segment) {
        self.flush(pending);
        self.ops.push(Op::Emit);
        let end = u32::try_from(self.ops.len()).expect("static block size");
        // Fuse the hot shape: a body of exactly [Delta, Emit] (the
        // innermost tile loop) needs no accumulator.
        match &self.ops[at + 1..] {
            [Op::Delta(d), Op::Emit] => {
                let delta = *d;
                self.ops.truncate(at);
                self.ops.push(Op::RepeatEmit { count, delta });
            }
            _ => self.ops[at] = Op::Repeat { count, end },
        }
    }

    fn compile_items(&mut self, items: &[BodyItem], pending: &mut Segment) {
        for item in items {
            match item {
                BodyItem::Instr(instr) => fold_instr(instr, 1, pending),
                BodyItem::Loop(node) if subtree_has_dma(&node.body) => {
                    self.flush(pending);
                    let at = self.ops.len();
                    self.ops.push(Op::Repeat { count: node.iterations, end: 0 });
                    self.compile_items(&node.body, pending);
                    self.close_repeat(at, node.iterations, pending);
                }
                BodyItem::Loop(node) => {
                    // DMA-free subtree: folded a single time, at build.
                    fold_items(&node.body, node.iterations as u64, pending);
                }
            }
        }
    }

    /// The merge of every segment the program emits — equal to
    /// [`crate::walker::summarize`] of the source block (folded once at
    /// build; consumers need not merge the stream to recover it).
    pub fn total(&self) -> &Segment {
        &self.total
    }

    /// Streams the segments in execution order, invoking
    /// `visit(segment, load_bits, store_bits)` per segment with the
    /// segment's DMA load/store bit totals precomputed.
    ///
    /// Steady-state replay performs no heap allocation: the accumulator is
    /// a stack-held `Copy` struct and fused tile loops emit their delta
    /// directly. Recursion depth is bounded by the block's loop depth
    /// (≤ [`crate::block::MAX_LOOP_DEPTH`]).
    pub fn replay(&self, visit: &mut impl FnMut(&Segment, u64, u64)) {
        self.replay_runs(&mut Expand {
            program: self,
            visit,
        });
    }

    /// Streams the program run by run (see [`ReplaySink`]): a fused tile
    /// loop reaches the sink once as a [`ReplaySink::run`] of its constant
    /// delta with its trip count, every other segment as a
    /// [`ReplaySink::segment`], and each counted loop reports the end of
    /// every iteration but its last through [`ReplaySink::iteration_end`],
    /// where the sink may take over the remaining iterations.
    ///
    /// Allocation-free, like [`SegmentProgram::replay`].
    pub fn replay_runs(&self, sink: &mut impl ReplaySink) {
        let mut acc = Accum::default();
        self.replay_range(0, self.ops.len(), 0, &mut acc, sink);
    }

    fn replay_range(
        &self,
        start: usize,
        end: usize,
        depth: usize,
        acc: &mut Accum,
        sink: &mut impl ReplaySink,
    ) {
        let mut pc = start;
        while pc < end {
            match self.ops[pc] {
                Op::Delta(i) => {
                    acc.merge(&self.deltas[i as usize]);
                    pc += 1;
                }
                Op::Emit => {
                    if !acc.seg.is_empty() {
                        sink.segment(&acc.seg, acc.load_bits, acc.store_bits);
                        acc.clear();
                    }
                    pc += 1;
                }
                Op::Repeat { count, end: body_end } => {
                    for done in 1..=count {
                        self.replay_range(pc + 1, body_end as usize, depth + 1, acc, sink);
                        // Every body ends in `Emit`: nothing is carried
                        // across the boundary, so the iterations after it
                        // all replay the same segments.
                        debug_assert!(acc.seg.is_empty(), "accumulator empty at a boundary");
                        if done == count || sink.iteration_end(depth, done, count - done) {
                            break;
                        }
                    }
                    pc = body_end as usize;
                }
                Op::RepeatEmit { count, delta } => {
                    let mut remaining = count;
                    if !acc.seg.is_empty() {
                        // Carried-in prefix (outer-tile loads, post-body
                        // stores of a preceding sibling) rides the first
                        // iteration's segment.
                        acc.merge(&self.deltas[delta as usize]);
                        sink.segment(&acc.seg, acc.load_bits, acc.store_bits);
                        acc.clear();
                        remaining -= 1;
                    }
                    if remaining > 0 {
                        sink.run(delta, remaining);
                    }
                    pc += 1;
                }
            }
        }
    }

    /// Number of distinct constant deltas in the program. Delta indices
    /// passed to [`ReplaySink::run`] are `<` this.
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// The `i`-th constant delta as `(segment, load_bits, store_bits)` —
    /// what each emission of a [`ReplaySink::run`] of `i` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `i >= `[`SegmentProgram::delta_count`].
    pub fn delta(&self, i: usize) -> (&Segment, u64, u64) {
        let d = &self.deltas[i];
        (&d.seg, d.load_bits, d.store_bits)
    }

    /// Number of ops in the compiled program (diagnostics).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no ops (never true: compilation always
    /// appends the trailing emit).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BlockBuilder;
    use crate::instruction::{ComputeFn, Scratchpad};
    use crate::walker::{for_each_segment_reference, summarize, BlockSummary};
    use bitfusion_core::bitwidth::PairPrecision;

    /// 3 tiles × (load 10 weights, 4 MACs, 1 output write), then a store.
    fn tiled_block() -> InstructionBlock {
        let pair = PairPrecision::from_bits(4, 2).unwrap();
        let mut b = BlockBuilder::new("prog-test", pair);
        let _t = b.open_loop(3).unwrap();
        b.ld_mem(Scratchpad::Wbuf, 2, 10).unwrap();
        let _k = b.open_loop(4).unwrap();
        b.rd_buf(Scratchpad::Ibuf);
        b.rd_buf(Scratchpad::Wbuf);
        b.compute(ComputeFn::Mac);
        b.close_loop();
        b.wr_buf(Scratchpad::Obuf);
        b.close_loop();
        b.st_mem(Scratchpad::Obuf, 8, 3).unwrap();
        b.finish(0).unwrap()
    }

    fn replayed(program: &SegmentProgram) -> Vec<(Segment, u64, u64)> {
        let mut out = Vec::new();
        program.replay(&mut |s, l, st| out.push((*s, l, st)));
        out
    }

    #[test]
    fn replay_matches_the_reference_walk() {
        let block = tiled_block();
        let program = SegmentProgram::compile(&block);
        let mut reference = Vec::new();
        for_each_segment_reference(&block, &mut |s| reference.push(*s));
        let got = replayed(&program);
        assert_eq!(got.len(), reference.len());
        for ((seg, load, store), want) in got.iter().zip(&reference) {
            assert_eq!(seg, want);
            assert_eq!(*load, want.dma_load_bits());
            assert_eq!(*store, want.dma_store_bits());
        }
    }

    #[test]
    fn total_equals_summarize() {
        let block = tiled_block();
        let program = SegmentProgram::compile(&block);
        assert_eq!(*program.total(), summarize(&block));
        let mut merged = BlockSummary::default();
        program.replay(&mut |s, _, _| merged.merge(s));
        assert_eq!(merged, *program.total());
    }

    #[test]
    fn innermost_tile_loop_fuses_to_repeat_emit() {
        let block = tiled_block();
        let program = SegmentProgram::compile(&block);
        assert!(
            program
                .ops
                .iter()
                .any(|op| matches!(op, Op::RepeatEmit { count: 3, .. })),
            "tile loop should fuse: {:?}",
            program.ops
        );
    }

    /// Records what a run-aware replay hands its sink, optionally taking
    /// over every loop at `skip_depth` after its first iteration.
    #[derive(Default)]
    struct Recorder {
        segments: usize,
        runs: Vec<(u32, u32)>,
        boundaries: Vec<(usize, u32, u32)>,
        skip_depth: Option<usize>,
    }

    impl ReplaySink for Recorder {
        fn segment(&mut self, _: &Segment, _: u64, _: u64) {
            self.segments += 1;
        }

        fn run(&mut self, delta: u32, count: u32) {
            self.runs.push((delta, count));
        }

        fn iteration_end(&mut self, depth: usize, done: u32, remaining: u32) -> bool {
            self.boundaries.push((depth, done, remaining));
            self.skip_depth == Some(depth)
        }
    }

    #[test]
    fn run_aware_replay_hands_fused_loops_over_whole() {
        // The tile loop fuses to one run of its delta; only the trailing
        // store segment is accumulator-built, and a fused loop reports no
        // boundaries.
        let block = tiled_block();
        let program = SegmentProgram::compile(&block);
        let mut rec = Recorder::default();
        program.replay_runs(&mut rec);
        assert_eq!(rec.runs.len(), 1);
        let (delta, count) = rec.runs[0];
        assert_eq!(count, 3, "steady-state tile iterations form one run");
        assert_eq!(rec.segments, 1, "the trailing store segment");
        assert!(rec.boundaries.is_empty());
        let segs = replayed(&program);
        let (d, dl, ds) = program.delta(delta as usize);
        assert_eq!((&segs[0].0, segs[0].1, segs[0].2), (d, dl, ds));
    }

    /// 4 outer tiles × (load an input tile, 3 inner tiles × (load weights,
    /// compute), store): a counted outer loop around a fused inner one.
    fn nested_block() -> InstructionBlock {
        let pair = PairPrecision::from_bits(4, 2).unwrap();
        let mut b = BlockBuilder::new("nested", pair);
        b.open_loop(4).unwrap();
        b.ld_mem(Scratchpad::Ibuf, 4, 100).unwrap();
        b.open_loop(3).unwrap();
        b.ld_mem(Scratchpad::Wbuf, 2, 10).unwrap();
        b.compute(ComputeFn::Mac);
        b.close_loop();
        b.st_mem(Scratchpad::Obuf, 8, 3).unwrap();
        b.close_loop();
        b.finish(0).unwrap()
    }

    #[test]
    fn counted_loops_report_every_boundary_but_the_last() {
        let program = SegmentProgram::compile(&nested_block());
        let mut rec = Recorder::default();
        program.replay_runs(&mut rec);
        assert_eq!(rec.boundaries, vec![(0, 1, 3), (0, 2, 2), (0, 3, 1)]);
        // Per outer iteration: the carried-in input load rides the first
        // inner segment, the other two inner iterations form a run, and
        // the store closes a segment of its own.
        assert_eq!(rec.segments, 4 * 2);
        assert_eq!(rec.runs.len(), 4);
        let expanded: u32 = rec.runs.iter().map(|&(_, n)| n).sum::<u32>() + rec.segments as u32;
        assert_eq!(expanded as usize, replayed(&program).len());
    }

    #[test]
    fn a_sink_that_takes_over_a_loop_skips_its_remaining_iterations() {
        let program = SegmentProgram::compile(&nested_block());
        let mut rec = Recorder {
            skip_depth: Some(0),
            ..Recorder::default()
        };
        program.replay_runs(&mut rec);
        assert_eq!(
            rec.boundaries,
            vec![(0, 1, 3)],
            "one boundary, then the sink's"
        );
        assert_eq!(
            (rec.segments, rec.runs.len()),
            (2, 1),
            "only the first iteration replays"
        );
    }

    #[test]
    fn dma_free_block_compiles_to_one_delta() {
        let pair = PairPrecision::from_bits(2, 2).unwrap();
        let mut b = BlockBuilder::new("no-dma", pair);
        b.open_loop(5).unwrap();
        b.rd_buf(Scratchpad::Ibuf);
        b.compute(ComputeFn::Mac);
        b.close_loop();
        let block = b.finish(0).unwrap();
        let program = SegmentProgram::compile(&block);
        assert_eq!(program.deltas.len(), 1, "one folded delta");
        let segs = replayed(&program);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, summarize(&block));
    }

    #[test]
    fn empty_block_emits_nothing() {
        let pair = PairPrecision::from_bits(8, 8).unwrap();
        let block = BlockBuilder::new("empty", pair).finish(0).unwrap();
        let program = SegmentProgram::compile(&block);
        assert!(!program.is_empty(), "trailing emit is always present");
        assert_eq!(program.len(), 1);
        assert!(replayed(&program).is_empty());
    }

    #[test]
    fn nested_dma_loops_carry_outer_loads_into_first_inner_segment() {
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
        let segs = replayed(&SegmentProgram::compile(&block));
        assert_eq!(segs.len(), 2 * 3);
        for (i, (seg, load, store)) in segs.iter().enumerate() {
            let expect_ibuf = if i % 3 == 0 { 400 } else { 0 };
            assert_eq!(seg.buffer(Scratchpad::Ibuf).dma_load_bits, expect_ibuf, "{i}");
            assert_eq!(*load, expect_ibuf + 20, "{i}");
            assert_eq!(*store, 0, "{i}");
        }
    }
}
