//! Steady-state segment replay must never touch the heap.
//!
//! A whole-zoo sweep replays millions of tile segments; the PR that
//! introduced [`bitfusion_isa::SegmentProgram`] exists to make that replay
//! allocation-free (the previous walk dropped and reallocated a `BTreeMap`
//! inside every segment accumulator reset). This test pins the property
//! with a counting global allocator: once a program is compiled, replaying
//! it — any number of times, over any number of segments, segment by
//! segment or run by run with loop-boundary callbacks — performs zero
//! allocations and zero deallocations. The builds before replay have
//! budgets too: `summarize` allocates nothing, and a program build at most
//! its op and delta vectors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bitfusion_core::bitwidth::PairPrecision;
use bitfusion_isa::program::{ReplaySink, SegmentProgram};
use bitfusion_isa::walker::{summarize, BlockSummary, Segment};
use bitfusion_isa::{BlockBuilder, ComputeFn, InstructionBlock, Scratchpad};

/// Wraps the system allocator, counting every alloc/dealloc made by the
/// calling thread. The counters are per thread because the test harness
/// runs tests in parallel: process-global counters would also see the
/// sibling test's allocations.
struct CountingAllocator;

thread_local! {
    // `const` initializers: no lazy allocation and no destructor, so the
    // allocator itself can touch them.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The calling thread's (allocs, deallocs) so far.
fn heap_events() -> (u64, u64) {
    (ALLOCS.with(Cell::get), DEALLOCS.with(Cell::get))
}

/// A deeply tiled block: two enumerated DMA loop levels over a DMA-free
/// compute nest, plus carried outer loads and a post-body store — every
/// replay code path (Repeat, RepeatEmit, carry-in, trailing emit) runs.
fn tiled_block(outer: u32, inner: u32) -> InstructionBlock {
    let pair = PairPrecision::from_bits(4, 2).unwrap();
    let mut b = BlockBuilder::new("alloc-free", pair);
    b.open_loop(outer).unwrap();
    b.ld_mem(Scratchpad::Ibuf, 4, 256).unwrap();
    b.open_loop(inner).unwrap();
    b.ld_mem(Scratchpad::Wbuf, 2, 64).unwrap();
    b.open_loop(16).unwrap();
    b.rd_buf(Scratchpad::Ibuf);
    b.rd_buf(Scratchpad::Wbuf);
    b.compute(ComputeFn::Mac);
    b.close_loop();
    b.wr_buf(Scratchpad::Obuf);
    b.close_loop();
    b.st_mem(Scratchpad::Obuf, 8, 64).unwrap();
    b.close_loop();
    b.finish(0).unwrap()
}

#[test]
fn steady_state_replay_performs_zero_heap_allocations() {
    let block = tiled_block(50, 40);
    let program = SegmentProgram::compile(&block);

    // Prime: one full replay outside the measured window, so anything lazy
    // (nothing today — this guards regressions) is already resident.
    let mut segments = 0u64;
    let mut merged = BlockSummary::default();
    program.replay(&mut |seg, _, _| {
        segments += 1;
        merged.merge(seg);
    });
    assert!(segments >= 50 * 40, "expected a long stream, got {segments}");
    assert_eq!(merged, summarize(&block), "segmentation invariant");

    // Measured steady state: three more replays, zero heap traffic.
    let (allocs_before, deallocs_before) = heap_events();
    let mut checksum = 0u64;
    for _ in 0..3 {
        program.replay(&mut |seg, load, store| {
            checksum = checksum
                .wrapping_add(seg.dynamic_instructions)
                .wrapping_add(load)
                .wrapping_add(store);
        });
    }
    let (allocs_after, deallocs_after) = heap_events();
    assert_ne!(checksum, 0, "replays visited segments");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state replay must not allocate"
    );
    assert_eq!(
        deallocs_after - deallocs_before,
        0,
        "steady-state replay must not free"
    );
}

/// A run-aware sink that touches every callback: it sums what it is
/// handed and takes over every `take_over`-th loop boundary, so both the
/// stepping and the skipping paths of the replay run.
struct Checksum<'a> {
    program: &'a SegmentProgram,
    sum: u64,
    boundaries: u64,
    take_over: u64,
}

impl ReplaySink for Checksum<'_> {
    fn segment(&mut self, seg: &Segment, load_bits: u64, store_bits: u64) {
        self.sum = self
            .sum
            .wrapping_add(seg.dynamic_instructions)
            .wrapping_add(load_bits)
            .wrapping_add(store_bits);
    }

    fn run(&mut self, delta: u32, count: u32) {
        let (seg, load_bits, _) = self.program.delta(delta as usize);
        self.sum = self
            .sum
            .wrapping_add(seg.dynamic_instructions.wrapping_mul(u64::from(count)))
            .wrapping_add(load_bits);
    }

    fn iteration_end(&mut self, depth: usize, done: u32, remaining: u32) -> bool {
        self.boundaries += 1;
        self.sum = self
            .sum
            .wrapping_add(depth as u64)
            .wrapping_add(u64::from(done) * u64::from(remaining));
        self.boundaries.is_multiple_of(self.take_over)
    }
}

#[test]
fn run_aware_replay_performs_zero_heap_allocations() {
    let block = tiled_block(50, 40);
    let program = SegmentProgram::compile(&block);
    let mut sink = Checksum {
        program: &program,
        sum: 0,
        boundaries: 0,
        take_over: 7,
    };
    // Prime outside the measured window, as above.
    program.replay_runs(&mut sink);
    assert!(sink.boundaries > 0, "the outer tile loop reports its boundaries");

    let (allocs_before, deallocs_before) = heap_events();
    for take_over in [1, 3, u64::MAX] {
        sink.take_over = take_over;
        program.replay_runs(&mut sink);
    }
    let (allocs_after, deallocs_after) = heap_events();
    assert_ne!(sink.sum, 0, "replays reached the sink");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "run-aware replay must not allocate"
    );
    assert_eq!(
        deallocs_after - deallocs_before,
        0,
        "run-aware replay must not free"
    );
}

#[test]
fn segment_accumulator_clear_and_merge_are_allocation_free() {
    // The old accumulator reset (`*cur = Segment::default()`) dropped a
    // BTreeMap per segment; the ComputeCounts representation makes clear()
    // a memset and merge() fixed array arithmetic. Pin that directly.
    let block = tiled_block(4, 4);
    let delta = summarize(&block);
    let mut acc = BlockSummary::default();
    let (a0, d0) = heap_events();
    for _ in 0..10_000 {
        acc.clear();
        acc.merge(&delta);
        std::hint::black_box(&acc);
    }
    let (a1, d1) = heap_events();
    assert_eq!(a1 - a0, 0, "clear+merge must not allocate");
    assert_eq!(d1 - d0, 0, "clear+merge must not free");
    assert_eq!(acc, delta);
}

#[test]
fn summarize_and_program_build_stay_within_budget() {
    for block in [tiled_block(50, 40), tiled_block(1, 1)] {
        let (a0, _) = heap_events();
        let summary = summarize(&block);
        let (a1, _) = heap_events();
        let program = SegmentProgram::compile(&block);
        let (a2, _) = heap_events();
        assert_eq!(a1 - a0, 0, "summarize must not allocate");
        assert!(a2 - a1 <= 2, "program build made {} allocations", a2 - a1);
        assert_eq!(*program.total(), summary);
    }
}
