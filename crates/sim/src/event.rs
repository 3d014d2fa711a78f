//! The trace-driven simulation backend.
//!
//! [`EventBackend`] consumes a compiled block as a segment stream — one
//! segment per iteration of the DMA-issuing tile loops, produced by
//! compiling the block once into a [`bitfusion_isa::SegmentProgram`] and
//! replaying it allocation-free (once per bandwidth when a design-space
//! walk asks for a whole bandwidth axis, see
//! [`SimBackend::evaluate_layer_bandwidths`]), with steady-state tile
//! iterations applied in one jump rather than one by one — and advances
//! explicit pipeline state across three engines of the §IV
//! decoupled-access machine:
//!
//! * a **DMA engine** shared by `ld-mem`/`st-mem`: one transfer at a time
//!   at the derated off-chip bandwidth, double-buffered per scratchpad — a
//!   segment's loads may start while the *previous* segment computes, but
//!   not before the segment-before-last released its buffer half;
//! * the **systolic array**: a segment's MAC steps run back to back at the
//!   block's temporal-cycle count, paying one fill/drain
//!   (`rows + cols` cycles) per started pass, derated by
//!   [`SimOptions::systolic_efficiency`];
//! * the **post-op pipe**: the per-column activation/pooling units of
//!   Figure 3, overlapping the array's next segment.
//!
//! Along the way it measures what the closed-form model can only estimate:
//! per-layer stall attribution (bandwidth-starved vs compute-starved
//! cycles) and double-buffered scratchpad occupancy highwater marks.
//!
//! DRAM traffic, MAC counts, and energy come from merging the very segments
//! that drive the timing, so they are *identical* to the analytic backend's
//! by construction — the cross-validation suite pins this, and pins cycle
//! agreement within the `DESIGN.md` tolerance band.

use bitfusion_compiler::PlannedLayer;
use bitfusion_core::arch::ArchConfig;
use bitfusion_energy::{EnergyBreakdown, FusionEnergy};
use bitfusion_isa::block::MAX_LOOP_DEPTH;
use bitfusion_isa::program::{ReplaySink, SegmentProgram};
use bitfusion_isa::walker::{for_each_segment_reference, BlockSummary, Segment};
use bitfusion_isa::{ComputeFn, Scratchpad};

use crate::backend::SimBackend;
use crate::engine::{energy_for_layer, DeratedRate, SimOptions};
use crate::stats::{BufferOccupancy, LayerPerf, StallBreakdown};

/// The trace-driven (segment-timeline) performance model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventBackend;

/// Mutable pipeline state advanced one segment at a time.
///
/// [`advance`] combines the six time fields (`dma_free`,
/// `compute_done_prev`, `compute_done_prev2`, `post_free`, `data_ready` and
/// a pending store's `ready_at`) only with `max` and `+`, and adds to the
/// busy and stall counters only differences of them. Shifting every time
/// field by the same `T` therefore shifts the next state by `T` and leaves
/// the counter increments unchanged, which [`Timeline::periods_after`]
/// uses to jump over steady-state iterations exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Timeline {
    /// Cycle the DMA engine finishes its queued transfers.
    dma_free: u64,
    /// Cycle the array finished the previous segment's MACs.
    compute_done_prev: u64,
    /// Cycle the array finished the segment before last (when its double
    /// buffer half became free for overwriting).
    compute_done_prev2: u64,
    /// Cycle the post-op pipe drains.
    post_free: u64,
    /// When the most recent produced outputs became store-ready.
    data_ready: u64,
    /// A store waiting to drain: `(cycles, ready_at)`. Stores are issued
    /// one segment late so the next tile's load prefetch keeps priority on
    /// the shared DMA engine (no head-of-line blocking behind data that is
    /// still being computed).
    pending_store: Option<(u64, u64)>,
    /// Busy-cycle accumulators for the report.
    dma_busy: u64,
    compute_busy: u64,
    stalls: StallBreakdown,
    /// Per-scratchpad bits of the most recent DMA transfer (the other
    /// double-buffer half, resident until the next transfer replaces it).
    prev_resident: [u64; 3],
    occupancy: BufferOccupancy,
}

impl Timeline {
    fn new() -> Self {
        Timeline {
            dma_free: 0,
            compute_done_prev: 0,
            compute_done_prev2: 0,
            post_free: 0,
            data_ready: 0,
            pending_store: None,
            dma_busy: 0,
            compute_busy: 0,
            stalls: StallBreakdown::default(),
            prev_resident: [0; 3],
            occupancy: BufferOccupancy::default(),
        }
    }

    /// Drains a deferred store through the DMA engine.
    fn drain_pending_store(&mut self) {
        if let Some((cycles, ready_at)) = self.pending_store.take() {
            let start = self.dma_free.max(ready_at);
            self.stalls.compute_starved += start - self.dma_free;
            self.dma_busy += cycles;
            self.dma_free = start + cycles;
        }
    }

    /// End of the layer: all three pipes drained.
    fn finish(&mut self) -> u64 {
        self.drain_pending_store();
        self.dma_free.max(self.compute_done_prev).max(self.post_free)
    }

    /// The state `k` more iterations after `self`, when the iteration that
    /// led from `prev` to `self` was a pure shift: every time field moved
    /// by the same `T`, and the pending store's cycles, `prev_resident` and
    /// the occupancy highwater marks are unchanged.
    ///
    /// The next iteration then starts from `self` exactly as the last one
    /// started from `prev`, shifted by `T`, so each of the `k` iterations
    /// adds `T` to the time fields and the same increments to the
    /// counters. (A segment without loads starts its compute at
    /// `max(0, compute_done_prev)`; the `0` is absorbed because
    /// `compute_done_prev ≥ 0`.) `None` when the shift is not uniform or
    /// `k` periods would overflow: the caller then steps.
    fn periods_after(&self, prev: &Timeline, k: u64) -> Option<Timeline> {
        if self.prev_resident != prev.prev_resident || self.occupancy != prev.occupancy {
            return None;
        }
        let period = self.dma_free.checked_sub(prev.dma_free)?;
        let shifted = period.checked_mul(k)?;
        let time = |now: u64, before: u64| {
            if now.checked_sub(before)? == period {
                now.checked_add(shifted)
            } else {
                None
            }
        };
        let count =
            |now: u64, before: u64| now.checked_add(now.checked_sub(before)?.checked_mul(k)?);
        let pending_store = match (self.pending_store, prev.pending_store) {
            (None, None) => None,
            (Some((cycles, ready_at)), Some((prev_cycles, prev_ready_at)))
                if cycles == prev_cycles =>
            {
                Some((cycles, time(ready_at, prev_ready_at)?))
            }
            _ => return None,
        };
        Some(Timeline {
            dma_free: time(self.dma_free, prev.dma_free)?,
            compute_done_prev: time(self.compute_done_prev, prev.compute_done_prev)?,
            compute_done_prev2: time(self.compute_done_prev2, prev.compute_done_prev2)?,
            post_free: time(self.post_free, prev.post_free)?,
            data_ready: time(self.data_ready, prev.data_ready)?,
            pending_store,
            dma_busy: count(self.dma_busy, prev.dma_busy)?,
            compute_busy: count(self.compute_busy, prev.compute_busy)?,
            stalls: StallBreakdown {
                bandwidth_starved: count(
                    self.stalls.bandwidth_starved,
                    prev.stalls.bandwidth_starved,
                )?,
                compute_starved: count(self.stalls.compute_starved, prev.stalls.compute_starved)?,
                fill_drain: count(self.stalls.fill_drain, prev.stalls.fill_drain)?,
            },
            prev_resident: self.prev_resident,
            occupancy: self.occupancy,
        })
    }
}

/// Static per-layer costs the timeline applies to every segment. Both
/// derates are exact rationals ([`DeratedRate`]): cycle division stays
/// integer-exact at any segment size instead of round-tripping through
/// f64 (which silently loses precision above 2^53 bits).
struct SegmentCosts {
    effective_bw: DeratedRate,
    temporal_cycles: u64,
    steps_per_pass: u64,
    fill_cost: u64,
    systolic: DeratedRate,
}

impl SegmentCosts {
    fn dma_cycles(&self, bits: u64) -> u64 {
        self.effective_bw.cycles_for(bits)
    }

    /// Array cycles for a segment's MAC steps: temporal cycles per step
    /// plus one fill/drain per started systolic pass, derated by the
    /// steady-state efficiency. Returns `(cycles, raw_fill_cycles)`.
    fn compute_cycles(&self, mac_steps: u64) -> (u64, u64) {
        if mac_steps == 0 {
            return (0, 0);
        }
        let passes = mac_steps.div_ceil(self.steps_per_pass);
        let fill = passes.saturating_mul(self.fill_cost);
        let raw = mac_steps
            .saturating_mul(self.temporal_cycles)
            .saturating_add(fill);
        (self.systolic.cycles_for(raw), fill)
    }

    /// Post-op pipe cycles: one vector operation per cycle per column unit,
    /// same steady-state derating as the array it is slaved to.
    fn post_cycles(&self, post_steps: u64) -> u64 {
        self.systolic.cycles_for(post_steps)
    }
}

/// The cycle costs of one segment, derived from its counts alone — no
/// [`Timeline`] state. For a fused tile loop every steady-state iteration
/// emits the same constant delta, so the fast path computes this once per
/// delta (hoisting the exact-rational [`DeratedRate`] divisions out of the
/// per-segment loop) and replays it by lookup.
#[derive(Debug, Clone, Copy)]
struct SegmentCycles {
    load_cycles: u64,
    store_cycles: u64,
    compute_cycles: u64,
    fill: u64,
    post_cycles: u64,
    has_compute: bool,
}

impl SegmentCycles {
    fn of(seg: &Segment, load_bits: u64, store_bits: u64, costs: &SegmentCosts) -> SegmentCycles {
        let mac_steps = seg.compute_count(ComputeFn::Mac);
        let post_steps = seg.compute_steps() - mac_steps;
        let (compute_cycles, fill) = costs.compute_cycles(mac_steps);
        SegmentCycles {
            load_cycles: costs.dma_cycles(load_bits),
            store_cycles: costs.dma_cycles(store_bits),
            compute_cycles,
            fill,
            post_cycles: costs.post_cycles(post_steps),
            has_compute: mac_steps > 0 || post_steps > 0,
        }
    }
}

fn advance(t: &mut Timeline, seg: &Segment, c: &SegmentCycles) {
    // --- DMA engine: this segment's tile loads. The double buffer half
    // being overwritten frees when the segment-before-last finished
    // computing, so loads overlap the previous segment's compute only.
    // Loads go ahead of the previous segment's deferred store: prefetch is
    // latency-critical, the store is not.
    let load_cycles = c.load_cycles;
    let load_done = if load_cycles > 0 {
        let start = t.dma_free.max(t.compute_done_prev2);
        t.stalls.compute_starved += start - t.dma_free;
        t.dma_busy += load_cycles;
        t.dma_free = start + load_cycles;
        t.dma_free
    } else {
        0
    };

    // --- DMA engine: drain the previous segment's store behind this
    // segment's prefetch (its data is ready by now).
    t.drain_pending_store();

    // --- Systolic array + post-op pipe.
    if c.has_compute {
        let start = load_done.max(t.compute_done_prev);
        t.stalls.bandwidth_starved += start - t.compute_done_prev;
        t.stalls.fill_drain += c.fill;
        let compute_done = start + c.compute_cycles;
        t.compute_busy += c.compute_cycles;
        // Post-ops stream the finished vectors; the pipe may still be
        // draining the previous segment.
        let post_done = t.post_free.max(compute_done) + c.post_cycles;
        t.post_free = post_done;
        t.compute_done_prev2 = t.compute_done_prev;
        t.compute_done_prev = compute_done;
        t.data_ready = compute_done.max(post_done);
    }

    // --- Queue this segment's stores; they drain once its data is ready,
    // behind the next segment's prefetch.
    if c.store_cycles > 0 {
        t.pending_store = Some((c.store_cycles, t.data_ready));
    }

    // --- Occupancy: under double buffering, a tile stays resident until
    // the *next* transfer into the same scratchpad replaces it — which may
    // be many segments later when the load sits at an outer tile depth —
    // so the peak pairs each transfer with the previous one into that
    // buffer, not merely the previous segment.
    for buffer in [Scratchpad::Ibuf, Scratchpad::Wbuf, Scratchpad::Obuf] {
        let i = buffer.code() as usize;
        let counts = seg.buffer(buffer);
        // Outputs accumulate in OBUF until their `st-mem` drains them.
        let resident = counts.dma_load_bits + counts.dma_store_bits;
        if resident > 0 {
            let peak = t.prev_resident[i] + resident;
            t.occupancy.highwater_bits[i] = t.occupancy.highwater_bits[i].max(peak);
            t.prev_resident[i] = resident;
        }
    }
}

/// Drives a [`Timeline`] from a run-aware program replay, jumping over
/// iterations once they only shift it (see [`Timeline::periods_after`]).
/// Where the shift is not uniform — DMA-only deltas that leave
/// `compute_done_prev` behind, transients — it steps, so the result never
/// depends on the detection succeeding.
struct TimelineSink<'a> {
    program: &'a SegmentProgram,
    costs: &'a SegmentCosts,
    /// Per program delta, its cycle costs (the `DeratedRate` divisions
    /// made once per delta, not once per emission).
    delta_cycles: Vec<SegmentCycles>,
    timeline: Timeline,
    /// Per loop depth, the state at that loop's previous iteration
    /// boundary.
    marks: [Timeline; MAX_LOOP_DEPTH as usize],
}

impl<'a> TimelineSink<'a> {
    fn new(program: &'a SegmentProgram, costs: &'a SegmentCosts) -> Self {
        TimelineSink {
            program,
            costs,
            delta_cycles: (0..program.delta_count())
                .map(|i| {
                    let (seg, load_bits, store_bits) = program.delta(i);
                    SegmentCycles::of(seg, load_bits, store_bits, costs)
                })
                .collect(),
            timeline: Timeline::new(),
            marks: [Timeline::new(); MAX_LOOP_DEPTH as usize],
        }
    }
}

impl ReplaySink for TimelineSink<'_> {
    fn segment(&mut self, seg: &Segment, load_bits: u64, store_bits: u64) {
        let c = SegmentCycles::of(seg, load_bits, store_bits, self.costs);
        advance(&mut self.timeline, seg, &c);
    }

    fn run(&mut self, delta: u32, count: u32) {
        // Every emission of the run is the same delta, so even the first
        // step is one period.
        let (seg, _, _) = self.program.delta(delta as usize);
        let c = &self.delta_cycles[delta as usize];
        for left in (0..count).rev() {
            let prev = self.timeline;
            advance(&mut self.timeline, seg, c);
            if left > 0 {
                if let Some(next) = self.timeline.periods_after(&prev, u64::from(left)) {
                    self.timeline = next;
                    return;
                }
            }
        }
    }

    fn iteration_end(&mut self, depth: usize, done: u32, remaining: u32) -> bool {
        // The first iteration may carry a prefix in; iterations from the
        // second on are one period each.
        let mark = &mut self.marks[depth];
        if done > 1 {
            if let Some(next) = self.timeline.periods_after(mark, u64::from(remaining)) {
                self.timeline = next;
                return true;
            }
        }
        *mark = self.timeline;
        false
    }
}

fn segment_costs(layer: &PlannedLayer, arch: &ArchConfig, opts: &SimOptions) -> SegmentCosts {
    let m = &layer.mapping;
    let facts = layer.segment_facts();
    SegmentCosts {
        effective_bw: DeratedRate::new(arch.dram_bits_per_cycle as u64, opts.dram_efficiency),
        temporal_cycles: m.temporal_cycles,
        steps_per_pass: facts.steps_per_pass.max(1),
        fill_cost: arch.rows as u64 + arch.cols as u64,
        systolic: DeratedRate::new(1, opts.systolic_efficiency),
    }
}

fn perf_from_timeline(
    layer: &PlannedLayer,
    mut timeline: Timeline,
    merged: &BlockSummary,
    energy: EnergyBreakdown,
) -> LayerPerf {
    debug_assert_eq!(
        merged.compute_count(ComputeFn::Mac),
        layer.mapping.compute_steps,
        "segment MAC steps must cover the mapping"
    );
    LayerPerf {
        name: layer.name.clone(),
        cycles: timeline.finish(),
        compute_cycles: timeline.compute_busy,
        dma_cycles: timeline.dma_busy,
        dram_bits: merged.dram_bits(),
        macs: layer.mapping.macs,
        energy,
        stalls: timeline.stalls,
        occupancy: timeline.occupancy,
    }
}

impl SimBackend for EventBackend {
    fn name(&self) -> &'static str {
        "event"
    }

    fn evaluate_layer(
        &self,
        layer: &PlannedLayer,
        arch: &ArchConfig,
        energy: &FusionEnergy,
        opts: &SimOptions,
    ) -> LayerPerf {
        let mut perfs =
            self.evaluate_layer_bandwidths(layer, arch, &[arch.dram_bits_per_cycle], energy, opts);
        perfs.pop().expect("one bandwidth, one result")
    }

    fn evaluate_layer_bandwidths(
        &self,
        layer: &PlannedLayer,
        arch: &ArchConfig,
        bandwidths: &[u32],
        energy: &FusionEnergy,
        opts: &SimOptions,
    ) -> Vec<LayerPerf> {
        // Compile the block's loop tree once into a flat segment program
        // and charge its energy once (neither depends on bandwidth), then
        // replay the program run by run per bandwidth, jumping over tile
        // iterations once they only shift the timeline.
        let program = SegmentProgram::compile(&layer.block);
        let energy = energy_for_layer(layer, arch, energy, opts, program.total());
        bandwidths
            .iter()
            .map(|&bw| {
                let costs = segment_costs(layer, &arch.clone().with_bandwidth(bw), opts);
                let mut sink = TimelineSink::new(&program, &costs);
                program.replay_runs(&mut sink);
                perf_from_timeline(layer, sink.timeline, program.total(), energy)
            })
            .collect()
    }
}

/// The pre-program evaluation path: steps the same [`Timeline`] through
/// every segment of the naive reference tree walk (per-iteration
/// `subtree_has_dma`, per-segment analytic re-folds, per-segment buffer
/// re-summing and stream merging).
///
/// Produces bit-identical results to [`EventBackend::evaluate_layer`]; kept
/// as the oracle its steady-state jumps are tested against.
#[doc(hidden)]
pub fn evaluate_layer_naive(
    layer: &PlannedLayer,
    arch: &ArchConfig,
    energy: &FusionEnergy,
    opts: &SimOptions,
) -> LayerPerf {
    let costs = segment_costs(layer, arch, opts);
    let mut timeline = Timeline::new();
    let mut merged = BlockSummary::default();
    for_each_segment_reference(&layer.block, &mut |seg| {
        let c = SegmentCycles::of(seg, seg.dma_load_bits(), seg.dma_store_bits(), &costs);
        advance(&mut timeline, seg, &c);
        merged.merge(seg);
    });
    let energy = energy_for_layer(layer, arch, energy, opts, &merged);
    perf_from_timeline(layer, timeline, &merged, energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use bitfusion_compiler::compile;
    use bitfusion_core::bitwidth::PairPrecision;
    use bitfusion_dnn::zoo::Benchmark;
    use bitfusion_dnn::QuantSpec;
    use bitfusion_isa::BlockBuilder;

    fn eval_both(b: Benchmark, batch: u64) -> Vec<(LayerPerf, LayerPerf)> {
        let arch = ArchConfig::isca_45nm();
        let plan = compile(&b.model(), &arch, batch).unwrap();
        let e = FusionEnergy::isca_45nm();
        let o = SimOptions::default();
        plan.layers
            .iter()
            .map(|l| {
                (
                    EventBackend.evaluate_layer(l, &arch, &e, &o),
                    AnalyticBackend.evaluate_layer(l, &arch, &e, &o),
                )
            })
            .collect()
    }

    #[test]
    fn traffic_macs_and_energy_match_analytic_exactly() {
        for (ev, an) in eval_both(Benchmark::Svhn, 4) {
            assert_eq!(ev.dram_bits, an.dram_bits, "{}", ev.name);
            assert_eq!(ev.macs, an.macs, "{}", ev.name);
            assert_eq!(ev.energy, an.energy, "{}", ev.name);
        }
    }

    #[test]
    fn stall_attribution_is_consistent() {
        for (ev, _) in eval_both(Benchmark::Lstm, 1) {
            // LSTM at batch 1 is bandwidth-bound: the array must wait on
            // DMA far longer than the DMA waits on compute.
            assert!(
                ev.stalls.bandwidth_starved > ev.stalls.compute_starved,
                "{}: {:?}",
                ev.name,
                ev.stalls
            );
            // Stall cycles never exceed the layer's total.
            assert!(ev.stalls.bandwidth_starved <= ev.cycles, "{}", ev.name);
        }
    }

    #[test]
    fn occupancy_fits_the_scratchpads() {
        let arch = ArchConfig::isca_45nm();
        for b in [Benchmark::Cifar10, Benchmark::Lstm] {
            let plan = compile(&b.model(), &arch, 16).unwrap();
            let e = FusionEnergy::isca_45nm();
            let o = SimOptions::default();
            for l in &plan.layers {
                let perf = EventBackend.evaluate_layer(l, &arch, &e, &o);
                let occ = perf.occupancy;
                assert!(occ.bits(Scratchpad::Ibuf) > 0, "{b}/{}", l.name);
                assert!(occ.bits(Scratchpad::Wbuf) > 0, "{b}/{}", l.name);
                assert!(
                    occ.bits(Scratchpad::Ibuf) <= 8 * arch.ibuf_bytes as u64,
                    "{b}/{}: {} bits in IBUF",
                    l.name,
                    occ.bits(Scratchpad::Ibuf)
                );
                assert!(
                    occ.bits(Scratchpad::Wbuf) <= 8 * arch.wbuf_bytes as u64,
                    "{b}/{}: {} bits in WBUF",
                    l.name,
                    occ.bits(Scratchpad::Wbuf)
                );
            }
        }
    }

    #[test]
    fn naive_walk_and_compiled_program_agree_exactly() {
        // The compiled-program path, with its steady-state jumps, must be a
        // pure optimization: every field of every layer's result identical
        // to stepping the naive reference walk. The subset covers every
        // zoo network under both quant specs of the dse grids, including
        // the longest tile loop of those grids (AlexNet conv2, uniform8).
        let e = FusionEnergy::isca_45nm();
        let o = SimOptions::default();
        for (rows, cols, bandwidth) in [(16, 8, 64), (32, 16, 256)] {
            let arch = ArchConfig {
                rows,
                cols,
                dram_bits_per_cycle: bandwidth,
                ..ArchConfig::isca_45nm()
            };
            for b in Benchmark::ALL {
                for quant in [QuantSpec::paper(), QuantSpec::uniform(8).unwrap()] {
                    let model = quant.apply(&b.model()).unwrap();
                    let plan = compile(&model, &arch, 16).unwrap();
                    for l in &plan.layers {
                        let fast = EventBackend.evaluate_layer(l, &arch, &e, &o);
                        let naive = evaluate_layer_naive(l, &arch, &e, &o);
                        assert_eq!(fast, naive, "{b}/{quant}/{rows}x{cols}@{bandwidth}/{}", l.name);
                    }
                }
            }
        }
    }

    /// Costs for the hand-built blocks below: 32 DRAM bits per cycle, one
    /// cycle per MAC step, 4 steps per systolic pass, an 8-cycle fill.
    fn unit_costs(dram_bits_per_cycle: u64) -> SegmentCosts {
        SegmentCosts {
            effective_bw: DeratedRate::new(dram_bits_per_cycle, 1.0),
            temporal_cycles: 1,
            steps_per_pass: 4,
            fill_cost: 8,
            systolic: DeratedRate::new(1, 1.0),
        }
    }

    /// The timeline after stepping every segment of `program`.
    fn stepped(program: &SegmentProgram, costs: &SegmentCosts) -> Timeline {
        let mut t = Timeline::new();
        program.replay(&mut |seg, load, store| {
            advance(&mut t, seg, &SegmentCycles::of(seg, load, store, costs));
        });
        t
    }

    /// A [`TimelineSink`] that records the depths of the loops it jumped.
    struct Jumps<'a> {
        sink: TimelineSink<'a>,
        depths: Vec<usize>,
    }

    impl ReplaySink for Jumps<'_> {
        fn segment(&mut self, seg: &Segment, load_bits: u64, store_bits: u64) {
            self.sink.segment(seg, load_bits, store_bits);
        }

        fn run(&mut self, delta: u32, count: u32) {
            self.sink.run(delta, count);
        }

        fn iteration_end(&mut self, depth: usize, done: u32, remaining: u32) -> bool {
            let jumped = self.sink.iteration_end(depth, done, remaining);
            if jumped {
                self.depths.push(depth);
            }
            jumped
        }
    }

    /// The timeline after a jumping replay, and the loops it jumped.
    fn jumped(program: &SegmentProgram, costs: &SegmentCosts) -> (Timeline, Vec<usize>) {
        let mut jumps = Jumps {
            sink: TimelineSink::new(program, costs),
            depths: Vec::new(),
        };
        program.replay_runs(&mut jumps);
        (jumps.sink.timeline, jumps.depths)
    }

    #[test]
    fn a_dma_only_delta_steps() {
        // Loads with nothing to compute: `dma_free` advances every
        // iteration while `compute_done_prev` stays put, so no iteration is
        // a uniform shift and every one must be stepped.
        let pair = PairPrecision::from_bits(8, 8).unwrap();
        let mut b = BlockBuilder::new("dma-only", pair);
        b.open_loop(40).unwrap();
        b.ld_mem(Scratchpad::Wbuf, 8, 16).unwrap();
        b.close_loop();
        let program = SegmentProgram::compile(&b.finish(0).unwrap());
        let costs = unit_costs(32);
        let (seg, load_bits, store_bits) = program.delta(0);
        let c = SegmentCycles::of(seg, load_bits, store_bits, &costs);
        let mut t = Timeline::new();
        advance(&mut t, seg, &c);
        let prev = t;
        advance(&mut t, seg, &c);
        assert!(t.dma_free > prev.dma_free);
        assert_eq!(t.compute_done_prev, prev.compute_done_prev);
        assert_eq!(t.periods_after(&prev, 1), None);
        assert_eq!(jumped(&program, &costs).0, stepped(&program, &costs));
    }

    #[test]
    fn a_nested_repeat_jumps_its_outer_loop() {
        // 60 outer tiles × (input load, 8 inner tiles × (weight load, 16
        // MACs), output write, store): a counted outer loop around a fused
        // inner one. Both pipes reach a steady state within a few outer
        // iterations, compute-bound and bandwidth-bound alike.
        let pair = PairPrecision::from_bits(4, 2).unwrap();
        let mut b = BlockBuilder::new("nested-jump", pair);
        b.open_loop(60).unwrap();
        b.ld_mem(Scratchpad::Ibuf, 4, 64).unwrap();
        b.open_loop(8).unwrap();
        b.ld_mem(Scratchpad::Wbuf, 2, 32).unwrap();
        b.open_loop(16).unwrap();
        b.rd_buf(Scratchpad::Ibuf);
        b.rd_buf(Scratchpad::Wbuf);
        b.compute(ComputeFn::Mac);
        b.close_loop();
        b.close_loop();
        b.wr_buf(Scratchpad::Obuf);
        b.st_mem(Scratchpad::Obuf, 8, 16).unwrap();
        b.close_loop();
        let program = SegmentProgram::compile(&b.finish(0).unwrap());
        for bandwidth in [2, 512] {
            let costs = unit_costs(bandwidth);
            let (timeline, depths) = jumped(&program, &costs);
            assert_eq!(depths, vec![0], "{bandwidth} bits/cycle: the outer loop jumps once");
            assert_eq!(timeline, stepped(&program, &costs), "{bandwidth} bits/cycle");
        }
    }

    #[test]
    fn event_cycles_track_analytic_within_band() {
        for b in [Benchmark::Svhn, Benchmark::Rnn] {
            let (ev_total, an_total) = eval_both(b, 16)
                .iter()
                .fold((0u64, 0u64), |(e, a), (ev, an)| {
                    (e + ev.cycles, a + an.cycles)
                });
            let rel = (ev_total as f64 - an_total as f64).abs() / an_total as f64;
            assert!(rel < 0.25, "{b}: event {ev_total} vs analytic {an_total}");
        }
    }
}
