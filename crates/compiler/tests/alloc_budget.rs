//! Per-layer allocation budgets of the compile path.
//!
//! Every layer of every request runs through `compile` (lowering included),
//! `walker::summarize` (the analytic backend) and `SegmentProgram::compile`
//! (the event backend). Their cost used to be mostly heap churn: growing
//! instruction vectors, per-post-op `Vec`s, a `BTreeMap` of declared loop
//! ids, and a rebuilt `LoopTree` of nested `Vec`s that the folds never
//! needed. These tests pin a fixed budget per layer over the whole zoo with
//! a counting global allocator, and check that each block's instruction
//! storage is exact-size (the compiled plans are cached, so spare capacity
//! is resident memory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bitfusion_compiler::lower::{lower_gemm, LowerInput};
use bitfusion_compiler::{compile, ExecutionPlan};
use bitfusion_core::arch::ArchConfig;
use bitfusion_dnn::zoo::Benchmark;
use bitfusion_isa::walker::summarize;
use bitfusion_isa::SegmentProgram;

/// Counts every allocation made by the calling thread (per thread, because
/// the test harness runs tests in parallel). A `realloc` reaches `alloc`
/// through the default `GlobalAlloc::realloc`, so growth counts too.
struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations `compile` may make per compiled layer, averaged over a
/// network (the zoo reads 4.7–6.5; the two recurrent nets, with no fused
/// successors, read 6.5). What is left: per layer, fusion's group name and
/// post-op `Vec`, the tile search's row list, and the block's name and
/// instructions; per plan, the growing group `Vec`, the layer `Vec` and
/// the model name.
const COMPILE_ALLOCS_PER_LAYER: f64 = 6.5;

/// Allocations `compile` may make over the whole zoo at batch 16 (it reads
/// 312): the per-net average above cannot see one allocation more per
/// fused group.
const COMPILE_ALLOCS_ZOO: u64 = 312;

fn zoo_plans() -> Vec<(Benchmark, ExecutionPlan)> {
    let arch = ArchConfig::isca_45nm();
    Benchmark::ALL
        .iter()
        .map(|&b| (b, compile(&b.model(), &arch, 16).expect("zoo compiles")))
        .collect()
}

#[test]
fn compile_stays_within_its_per_layer_budget() {
    let arch = ArchConfig::isca_45nm();
    let (mut allocs, mut layers) = (0u64, 0usize);
    for b in Benchmark::ALL {
        let model = b.model();
        let (plan, n) = counted(|| compile(&model, &arch, 16).expect("zoo compiles"));
        let per_layer = n as f64 / plan.layers.len() as f64;
        assert!(
            per_layer <= COMPILE_ALLOCS_PER_LAYER,
            "{b}: {n} allocations over {} layers",
            plan.layers.len()
        );
        allocs += n;
        layers += plan.layers.len();
    }
    assert_eq!(layers, 63, "the zoo's layer count at batch 16");
    assert!(
        allocs <= COMPILE_ALLOCS_ZOO,
        "compile: {allocs} allocations over the zoo"
    );
    eprintln!("compile: {allocs} allocations over {layers} layers");
}

#[test]
fn lowering_makes_at_most_two_allocations_per_layer() {
    // The block's name and its exact-size instruction storage.
    let arch = ArchConfig::isca_45nm();
    for (b, plan) in zoo_plans() {
        for l in &plan.layers {
            let input = LowerInput {
                name: &l.name,
                layer: &l.gemm,
                plan: &l.tile_plan,
                postops: &l.postops,
                next: l.block.next_block(),
            };
            let (block, n) = counted(|| lower_gemm(&input, &arch).expect("lowers"));
            assert!(n <= 2, "{b}/{}: lower_gemm made {n} allocations", l.name);
            assert_eq!(block, l.block, "{b}/{}", l.name);
        }
    }
}

#[test]
fn summarize_and_program_build_stay_within_budget() {
    for (b, plan) in zoo_plans() {
        for l in &plan.layers {
            let (summary, n) = counted(|| summarize(&l.block));
            assert_eq!(n, 0, "{b}/{}: summarize allocated", l.name);
            let (program, n) = counted(|| SegmentProgram::compile(&l.block));
            assert!(n <= 2, "{b}/{}: program build made {n} allocations", l.name);
            assert_eq!(*program.total(), summary, "{b}/{}", l.name);
        }
    }
}

#[test]
fn zoo_block_storage_is_exact_size() {
    for (b, plan) in zoo_plans() {
        for l in &plan.layers {
            assert_eq!(
                l.block.storage_capacity(),
                l.block.len(),
                "{b}/{}: spare instruction capacity",
                l.name
            );
        }
    }
}
