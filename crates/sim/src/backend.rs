//! The pluggable simulation-backend interface.
//!
//! A [`SimBackend`] turns one compiled layer group into a [`LayerPerf`].
//! Two implementations ship with the crate:
//!
//! * [`AnalyticBackend`] — the closed-form model of [`crate::engine`]:
//!   `prologue + max(compute, dma − prologue)`, O(static block size) per
//!   layer. The fast path for sweeps and design-space exploration.
//! * [`EventBackend`](crate::EventBackend) — the trace-driven model of
//!   [`crate::event`]: advances explicit double-buffered DMA, systolic, and
//!   post-op pipeline state over the block's tile segments, producing stall
//!   attribution and buffer-occupancy highwater marks.
//!
//! The backend contract (`DESIGN.md`, "Simulation backends"): every backend
//! must report *identical* DRAM traffic, MAC counts, and energy for the
//! same plan — those flow from the instruction blocks and the shared energy
//! model ([`crate::engine::energy_for_layer`]) — and cycle counts must
//! agree within the documented tolerance band. The cross-validation suite
//! (`tests/backend_cross_validation.rs`) enforces this on every zoo
//! network.

use bitfusion_compiler::PlannedLayer;
use bitfusion_core::arch::ArchConfig;
use bitfusion_energy::FusionEnergy;

use crate::engine::{evaluate_layer, SimOptions};
use crate::stats::LayerPerf;

/// The documented tolerance band between the backends' per-network cycle
/// totals (see `DESIGN.md`, "Simulation backends"): the two timing models
/// describe the same double-buffered machine at different granularity and
/// must agree within this relative bound on every zoo network. With the
/// analytic prologue no longer double-counting the first tile (a one-tile
/// layer costs plain `load + compute + store` in both models), the gap is
/// empirically under 2.6% at batch 16 on all eight networks; the band
/// leaves a small margin for store-serialization detail the closed form
/// folds into `max(compute, dma − prologue)`.
pub const BACKEND_CYCLE_TOLERANCE: f64 = 0.04;

/// A performance model that evaluates compiled layer groups.
pub trait SimBackend {
    /// Short backend name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Evaluates one compiled layer group on an architecture.
    fn evaluate_layer(
        &self,
        layer: &PlannedLayer,
        arch: &ArchConfig,
        energy: &FusionEnergy,
        opts: &SimOptions,
    ) -> LayerPerf;

    /// Evaluates one compiled layer group at each off-chip bandwidth of
    /// `bandwidths` (bits/cycle, overriding `arch.dram_bits_per_cycle`),
    /// returning the results in the same order. Tiling does not depend on
    /// bandwidth, so one plan serves the whole axis; a backend whose
    /// per-layer setup does not depend on it either can share that setup
    /// across the axis. Every result must equal [`SimBackend::evaluate_layer`]
    /// at that bandwidth; the default calls it once per bandwidth.
    fn evaluate_layer_bandwidths(
        &self,
        layer: &PlannedLayer,
        arch: &ArchConfig,
        bandwidths: &[u32],
        energy: &FusionEnergy,
        opts: &SimOptions,
    ) -> Vec<LayerPerf> {
        bandwidths
            .iter()
            .map(|&bw| self.evaluate_layer(layer, &arch.clone().with_bandwidth(bw), energy, opts))
            .collect()
    }
}

/// The closed-form performance model (the original engine): exact DMA
/// traffic from the block summary, systolic-step arithmetic from the
/// mapping facts, and `prologue + max(compute, dma − prologue)` timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyticBackend;

impl SimBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn evaluate_layer(
        &self,
        layer: &PlannedLayer,
        arch: &ArchConfig,
        energy: &FusionEnergy,
        opts: &SimOptions,
    ) -> LayerPerf {
        evaluate_layer(layer, arch, energy, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBackend;
    use bitfusion_compiler::compile;
    use bitfusion_dnn::zoo::Benchmark;
    use bitfusion_dnn::QuantSpec;

    #[test]
    fn analytic_backend_matches_direct_engine_call() {
        let arch = ArchConfig::isca_45nm();
        let plan = compile(&Benchmark::Svhn.model(), &arch, 4).unwrap();
        let e = FusionEnergy::isca_45nm();
        let o = SimOptions::default();
        let backend = AnalyticBackend;
        assert_eq!(backend.name(), "analytic");
        for l in &plan.layers {
            assert_eq!(
                backend.evaluate_layer(l, &arch, &e, &o),
                evaluate_layer(l, &arch, &e, &o),
                "{}",
                l.name
            );
        }
    }

    #[test]
    fn a_bandwidth_axis_equals_one_evaluation_per_bandwidth() {
        let e = FusionEnergy::isca_45nm();
        let o = SimOptions::default();
        let bandwidths = [32, 64, 128, 256, 512];
        for (rows, cols) in [(16, 8), (32, 16)] {
            let arch = ArchConfig {
                rows,
                cols,
                ..ArchConfig::isca_45nm()
            };
            for b in Benchmark::ALL {
                for quant in [QuantSpec::paper(), QuantSpec::uniform(8).unwrap()] {
                    let model = quant.apply(&b.model()).unwrap();
                    let plan = compile(&model, &arch, 16).unwrap();
                    for l in &plan.layers {
                        let backends: [&dyn SimBackend; 2] = [&AnalyticBackend, &EventBackend];
                        for backend in backends {
                            let axis =
                                backend.evaluate_layer_bandwidths(l, &arch, &bandwidths, &e, &o);
                            let each: Vec<LayerPerf> = bandwidths
                                .iter()
                                .map(|&bw| {
                                    backend.evaluate_layer(
                                        l,
                                        &arch.clone().with_bandwidth(bw),
                                        &e,
                                        &o,
                                    )
                                })
                                .collect();
                            assert_eq!(
                                axis,
                                each,
                                "{}: {b}/{quant}/{rows}x{cols}/{}",
                                backend.name(),
                                l.name
                            );
                        }
                    }
                }
            }
        }
    }
}
