//! Simulation results: per-layer and whole-model performance/energy, with
//! stall attribution and buffer-occupancy detail from the trace-driven
//! backend.

use std::fmt;
use std::ops::AddAssign;

use bitfusion_energy::EnergyBreakdown;
use bitfusion_isa::Scratchpad;

/// Attribution of a layer's cycles to pipeline conditions.
///
/// The trace-driven backend measures these from the segment timeline; the
/// analytic backend derives coarse whole-layer estimates from its closed
/// form (see `DESIGN.md`, "Simulation backends").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Cycles the systolic array sat idle waiting for off-chip data
    /// (bandwidth-starved).
    pub bandwidth_starved: u64,
    /// Cycles the DMA engine sat idle with nothing to transfer because the
    /// double buffers were still in use by compute (compute-starved).
    pub compute_starved: u64,
    /// Cycles spent filling/draining the systolic array between passes
    /// (before efficiency derating).
    pub fill_drain: u64,
}

impl AddAssign for StallBreakdown {
    fn add_assign(&mut self, rhs: StallBreakdown) {
        self.bandwidth_starved += rhs.bandwidth_starved;
        self.compute_starved += rhs.compute_starved;
        self.fill_drain += rhs.fill_drain;
    }
}

/// Peak scratchpad residency over a layer's execution, in bits, under the
/// double-buffered DMA model: per scratchpad, a tile stays resident until
/// the next DMA transfer into that scratchpad replaces it, so the peak is
/// the largest sum of two consecutive transfers.
///
/// Only the trace-driven backend fills this; the analytic model reports
/// zeros (it never materializes per-tile state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferOccupancy {
    /// Highwater bits per scratchpad, indexed by [`Scratchpad::code`].
    pub highwater_bits: [u64; 3],
}

impl BufferOccupancy {
    /// Highwater residency of one scratchpad.
    pub fn bits(&self, buffer: Scratchpad) -> u64 {
        self.highwater_bits[buffer.code() as usize]
    }
}

/// Performance and energy of one compiled layer group (whole batch).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerf {
    /// Layer/group name.
    pub name: String,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles the compute model needed (systolic array busy).
    pub compute_cycles: u64,
    /// Cycles the DMA model needed (off-chip transfers).
    pub dma_cycles: u64,
    /// Off-chip bits moved.
    pub dram_bits: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Stall attribution (measured by the event backend, estimated by the
    /// analytic one).
    pub stalls: StallBreakdown,
    /// Peak scratchpad residency (event backend only).
    pub occupancy: BufferOccupancy,
}

impl LayerPerf {
    /// Whether the layer was limited by off-chip bandwidth.
    pub fn is_bandwidth_bound(&self) -> bool {
        self.dma_cycles > self.compute_cycles
    }

    /// Achieved MACs per cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }
}

/// Whole-model simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Model name.
    pub model_name: String,
    /// Batch size simulated.
    pub batch: u64,
    /// Clock frequency in MHz (for time conversion).
    pub freq_mhz: u32,
    /// Per-layer results, in execution order.
    pub layers: Vec<LayerPerf>,
}

impl PerfReport {
    /// Total cycles for the whole batch.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Cycles per single input.
    pub fn cycles_per_input(&self) -> f64 {
        self.total_cycles() as f64 / self.batch as f64
    }

    /// Wall-clock time for the batch, in milliseconds.
    pub fn runtime_ms(&self) -> f64 {
        self.total_cycles() as f64 / (self.freq_mhz as f64 * 1e3)
    }

    /// Latency per input, in milliseconds.
    pub fn latency_ms_per_input(&self) -> f64 {
        self.runtime_ms() / self.batch as f64
    }

    /// Total energy for the batch.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.layers.iter().map(|l| l.energy).sum()
    }

    /// Energy per input, already broken down by component.
    pub fn energy_per_input(&self) -> EnergyBreakdown {
        self.total_energy().scaled(1.0 / self.batch as f64)
    }

    /// Total off-chip traffic in bits.
    pub fn total_dram_bits(&self) -> u64 {
        self.layers.iter().map(|l| l.dram_bits).sum()
    }

    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Average achieved MACs per cycle across the run.
    pub fn macs_per_cycle(&self) -> f64 {
        self.total_macs() as f64 / self.total_cycles() as f64
    }

    /// Total stall attribution across layers.
    pub fn total_stalls(&self) -> StallBreakdown {
        let mut total = StallBreakdown::default();
        for l in &self.layers {
            total += l.stalls;
        }
        total
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (batch {}): {:.3} ms/input, {} cycles, {:.1} MACs/cycle, {}",
            self.model_name,
            self.batch,
            self.latency_ms_per_input(),
            self.total_cycles(),
            self.macs_per_cycle(),
            self.energy_per_input()
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:<12} {:>12} cyc ({}) {:>8.1} MACs/cyc",
                l.name,
                l.cycles,
                if l.is_bandwidth_bound() { "mem " } else { "comp" },
                l.macs_per_cycle()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, cycles: u64, compute: u64, dma: u64) -> LayerPerf {
        LayerPerf {
            name: name.into(),
            cycles,
            compute_cycles: compute,
            dma_cycles: dma,
            dram_bits: 1000,
            macs: 10_000,
            energy: EnergyBreakdown {
                compute_pj: 1.0,
                buffer_pj: 2.0,
                rf_pj: 0.0,
                dram_pj: 7.0,
            },
            stalls: StallBreakdown {
                bandwidth_starved: 10,
                compute_starved: 5,
                fill_drain: 2,
            },
            occupancy: BufferOccupancy::default(),
        }
    }

    fn report() -> PerfReport {
        PerfReport {
            model_name: "m".into(),
            batch: 2,
            freq_mhz: 500,
            layers: vec![layer("a", 100, 100, 20), layer("b", 300, 50, 300)],
        }
    }

    #[test]
    fn totals() {
        let r = report();
        assert_eq!(r.total_cycles(), 400);
        assert_eq!(r.cycles_per_input(), 200.0);
        assert_eq!(r.total_macs(), 20_000);
        assert_eq!(r.total_dram_bits(), 2000);
        assert!((r.runtime_ms() - 400.0 / 500e3).abs() < 1e-12);
        assert!((r.total_energy().total_pj() - 20.0).abs() < 1e-12);
        assert!((r.energy_per_input().total_pj() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn stall_totals_sum_layers() {
        let r = report();
        let s = r.total_stalls();
        assert_eq!(s.bandwidth_starved, 20);
        assert_eq!(s.compute_starved, 10);
        assert_eq!(s.fill_drain, 4);
    }

    #[test]
    fn occupancy_indexes_by_scratchpad() {
        let o = BufferOccupancy {
            highwater_bits: [10, 20, 30],
        };
        assert_eq!(o.bits(Scratchpad::Ibuf), 10);
        assert_eq!(o.bits(Scratchpad::Wbuf), 20);
        assert_eq!(o.bits(Scratchpad::Obuf), 30);
    }

    #[test]
    fn bandwidth_bound_flag() {
        let r = report();
        assert!(!r.layers[0].is_bandwidth_bound());
        assert!(r.layers[1].is_bandwidth_bound());
    }

    #[test]
    fn display_contains_layers() {
        let text = report().to_string();
        assert!(text.contains("mem"));
        assert!(text.contains("comp"));
    }
}
