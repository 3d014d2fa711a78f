//! Property tests for the Fusion-ISA: randomly generated valid blocks
//! survive binary and text round trips, the analytic summarizer always
//! agrees with brute-force walking, the segment iterator concatenates back
//! to the summary, the flat folds equal their loop-tree references at any
//! block size, and the binary decoder never panics on arbitrary words.

use bitfusion_core::bitwidth::PairPrecision;
use bitfusion_isa::asm::{format_block, parse_block};
use bitfusion_isa::builder::BlockBuilder;
use bitfusion_isa::encode::{decode_block, encode_block};
use bitfusion_isa::instruction::{AddressSpace, ComputeFn, Scratchpad};
use bitfusion_isa::program::SegmentProgram;
use bitfusion_isa::walker::{
    for_each_segment, for_each_segment_reference, summarize, summarize_reference, walk,
    BlockSummary, Event, Segment,
};
use bitfusion_isa::InstructionBlock;
use proptest::prelude::*;

/// A recipe for one randomly shaped (but always valid) block: a loop nest
/// described by per-level trip counts, with per-level DMA/compute payloads.
#[derive(Debug, Clone)]
struct BlockRecipe {
    input_bits: u32,
    weight_bits: u32,
    levels: Vec<LevelRecipe>,
    base: u64,
}

#[derive(Debug, Clone)]
struct LevelRecipe {
    trips: u32,
    ld_words: Option<u64>,
    stride: u64,
    computes: u8,
}

fn arb_recipe() -> impl Strategy<Value = BlockRecipe> {
    let level = (1u32..200, prop::option::of(1u64..100_000), 0u64..1 << 40, 0u8..3).prop_map(
        |(trips, ld_words, stride, computes)| LevelRecipe {
            trips,
            ld_words,
            stride,
            computes,
        },
    );
    (
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        prop::collection::vec(level, 1..5),
        0u64..1 << 45,
    )
        .prop_map(|(input_bits, weight_bits, levels, base)| BlockRecipe {
            input_bits,
            weight_bits,
            levels,
            base,
        })
}

fn build(recipe: &BlockRecipe) -> InstructionBlock {
    let pair = PairPrecision::from_bits(recipe.input_bits, recipe.weight_bits)
        .expect("generated from supported widths");
    let mut b = BlockBuilder::new("prop", pair);
    b.set_base(Scratchpad::Wbuf, recipe.base);
    for (i, level) in recipe.levels.iter().enumerate() {
        let id = b.open_loop(level.trips).expect("depth < 15");
        if level.stride > 0 {
            b.gen_addr(id, AddressSpace::OffChip, Scratchpad::Wbuf, level.stride)
                .expect("declared loop");
        }
        if let Some(words) = level.ld_words {
            let buffer = if i % 2 == 0 { Scratchpad::Ibuf } else { Scratchpad::Wbuf };
            b.ld_mem(buffer, recipe.weight_bits.max(1), words).expect("valid dma");
        }
        for _ in 0..level.computes {
            b.rd_buf(Scratchpad::Ibuf);
            b.rd_buf(Scratchpad::Wbuf);
            b.compute(ComputeFn::Mac);
        }
    }
    for _ in 0..recipe.levels.len() {
        b.close_loop();
    }
    b.st_mem(Scratchpad::Obuf, 8, 1).expect("valid dma");
    b.finish(0).expect("builder produces valid blocks")
}

/// A random loop nest as builder steps `(kind, trips, words)`: loops open
/// and close anywhere (siblings, post-body instructions at every level,
/// `gen-addr` at any depth), unlike [`arb_recipe`]'s single chain. Trip
/// counts stay small enough that a 15-deep nest's counts fit `u64`.
fn arb_nest() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
    prop::collection::vec((0u8..8, 1u32..8, 1u64..1000), 0..48)
}

fn build_nest(steps: &[(u8, u32, u64)]) -> InstructionBlock {
    let pair = PairPrecision::from_bits(4, 2).expect("supported");
    let mut b = BlockBuilder::new("nest", pair);
    let mut loops = Vec::new();
    for &(kind, trips, words) in steps {
        match kind {
            0 if b.depth() < 15 && loops.len() < 65 => {
                loops.push(b.open_loop(trips).expect("room"));
            }
            1 if b.depth() > 0 => {
                b.close_loop();
            }
            2 => {
                b.ld_mem(Scratchpad::Wbuf, 2, words).expect("valid dma");
            }
            3 => {
                b.st_mem(Scratchpad::Obuf, 8, words).expect("valid dma");
            }
            4 if !loops.is_empty() => {
                let id = loops[words as usize % loops.len()];
                b.gen_addr(id, AddressSpace::OffChip, Scratchpad::Ibuf, words)
                    .expect("declared loop");
            }
            5 => {
                b.rd_buf(Scratchpad::Ibuf);
            }
            _ => {
                b.compute(ComputeFn::Mac);
            }
        }
    }
    b.finish(0).expect("builder produces valid blocks")
}

/// The flat folds against their loop-tree references: the whole program
/// (ops, deltas, total), not only the totals.
fn check_flat_folds(block: &InstructionBlock) -> Result<(), TestCaseError> {
    let summary = summarize(block);
    prop_assert_eq!(summary, summarize_reference(block));
    let program = SegmentProgram::compile(block);
    prop_assert_eq!(*program.total(), summary);
    prop_assert_eq!(program, SegmentProgram::compile_reference(block));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_folds_equal_the_loop_tree_folds(recipe in arb_recipe()) {
        // Every block size: no walk, so no guard on the dynamic count.
        check_flat_folds(&build(&recipe))?;
    }

    #[test]
    fn flat_folds_equal_the_loop_tree_folds_on_random_nests(steps in arb_nest()) {
        check_flat_folds(&build_nest(&steps))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_round_trip(recipe in arb_recipe()) {
        let block = build(&recipe);
        let words = encode_block(&block).expect("encodes");
        let decoded = decode_block("prop", &words).expect("decodes");
        let decoded_canon = decoded.canonicalize();
        let block_canon = block.canonicalize();
        prop_assert_eq!(decoded_canon.instructions(), block_canon.instructions());
        prop_assert_eq!(decoded.bases, block.bases);
        prop_assert_eq!(decoded.stride_table(), block.stride_table());
    }

    #[test]
    fn encode_decode_encode_is_a_fixed_point(recipe in arb_recipe()) {
        // Table I's binary format must be a fixed point of one decode:
        // re-encoding a decoded block reproduces the original words exactly,
        // so binaries can be round-tripped through tooling byte-for-byte.
        let block = build(&recipe);
        let words = encode_block(&block).expect("encodes");
        let decoded = decode_block("prop", &words).expect("decodes");
        let words_again = encode_block(&decoded).expect("re-encodes");
        prop_assert_eq!(words, words_again);
    }

    #[test]
    fn text_round_trip(recipe in arb_recipe()) {
        let block = build(&recipe);
        let text = format_block(&block);
        let parsed = parse_block(&text).expect("parses its own output");
        prop_assert_eq!(parsed.instructions(), block.instructions());
    }

    #[test]
    fn summary_matches_walk_when_small(recipe in arb_recipe()) {
        let block = build(&recipe);
        let tree = block.loop_tree();
        // Only brute-force small nests (the summarizer exists precisely so
        // big nests never need walking).
        let dynamic: u64 = summarize(&block).dynamic_instructions;
        if dynamic > 200_000 {
            return Ok(());
        }
        let mut computes = 0u64;
        let mut dma_bits = 0u64;
        let mut events = 0u64;
        walk(&block, &mut |e| {
            events += 1;
            match e {
                Event::Compute { .. } => computes += 1,
                Event::DmaLoad { bits, words, .. } | Event::DmaStore { bits, words, .. } => {
                    dma_bits += bits as u64 * words
                }
                _ => {}
            }
        });
        let s = summarize(&block);
        prop_assert_eq!(s.compute_steps(), computes);
        prop_assert_eq!(s.dram_bits(), dma_bits);
        prop_assert_eq!(s.dynamic_instructions, events);
        prop_assert_eq!(tree.dynamic_compute_count(), computes);
    }

    #[test]
    fn segments_concatenate_to_the_summary(recipe in arb_recipe()) {
        // The segmentation invariant the simulation backends rely on:
        // merging every segment of a block reproduces `summarize` exactly —
        // same DMA bits, buffer accesses, compute steps, and dynamic
        // instruction count.
        let block = build(&recipe);
        let summary = summarize(&block);
        // Segment enumeration is O(tile iterations); skip the pathological
        // deep-DMA nests the generator can produce (same guard as the
        // brute-force walk above).
        if summary.dynamic_instructions > 200_000 {
            return Ok(());
        }
        let mut merged = BlockSummary::default();
        let mut count = 0u64;
        let mut all_non_empty = true;
        for_each_segment(&block, &mut |seg| {
            all_non_empty &= !seg.is_empty();
            count += 1;
            merged.merge(seg);
        });
        prop_assert!(count > 0, "a non-empty block yields at least one segment");
        prop_assert!(all_non_empty, "the iterator never yields empty segments");
        prop_assert_eq!(merged, summary);
    }

    #[test]
    fn compiled_program_replays_the_reference_stream(recipe in arb_recipe()) {
        // The tentpole invariant of the compiled-segment-program path: for
        // any valid block, `SegmentProgram::compile(..).replay(..)` yields
        // byte-for-byte the segment stream of the naive reference tree walk
        // (same segments, same order), with per-segment DMA bit totals that
        // match re-summing the segment's buffers; and the program's
        // build-time total equals `summarize`.
        let block = build(&recipe);
        let summary = summarize(&block);
        if summary.dynamic_instructions > 200_000 {
            return Ok(());
        }
        let mut reference: Vec<Segment> = Vec::new();
        for_each_segment_reference(&block, &mut |seg| reference.push(*seg));
        let program = SegmentProgram::compile(&block);
        prop_assert_eq!(*program.total(), summary);
        let mut replayed: Vec<(Segment, u64, u64)> = Vec::new();
        program.replay(&mut |seg, load, store| replayed.push((*seg, load, store)));
        prop_assert_eq!(replayed.len(), reference.len());
        for (i, ((seg, load, store), want)) in replayed.iter().zip(&reference).enumerate() {
            prop_assert_eq!(seg, want, "segment {} diverged", i);
            prop_assert_eq!(*load, want.dma_load_bits(), "segment {} load bits", i);
            prop_assert_eq!(*store, want.dma_store_bits(), "segment {} store bits", i);
        }
    }

    #[test]
    fn decoder_never_panics(words in prop::collection::vec(any::<u32>(), 0..64)) {
        // Arbitrary words must produce Ok or Err, never a panic.
        let _ = decode_block("fuzz", &words);
    }

    #[test]
    fn walked_addresses_follow_equation_4(
        trips in 1u32..20,
        stride in 0u64..1_000_000,
        base in 0u64..1 << 30,
    ) {
        let pair = PairPrecision::from_bits(4, 2).expect("supported");
        let mut b = BlockBuilder::new("eq4", pair);
        b.set_base(Scratchpad::Ibuf, base);
        let l = b.open_loop(trips).expect("one loop");
        b.gen_addr(l, AddressSpace::OffChip, Scratchpad::Ibuf, stride).expect("declared");
        b.ld_mem(Scratchpad::Ibuf, 4, 16).expect("valid");
        b.close_loop();
        let block = b.finish(0).expect("valid");
        let mut addrs = Vec::new();
        walk(&block, &mut |e| {
            if let Event::DmaLoad { addr, .. } = e {
                addrs.push(addr);
            }
        });
        prop_assert_eq!(addrs.len(), trips as usize);
        for (i, &a) in addrs.iter().enumerate() {
            prop_assert_eq!(a, base + i as u64 * stride);
        }
    }
}
