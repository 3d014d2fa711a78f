//! Reusable parameter sweeps: the bandwidth (Figure 15) and batch
//! (Figure 16) sensitivity studies as library functions, shared by the
//! session facade and downstream users.
//!
//! Both sweeps are thin views over the design-space exploration engine
//! ([`crate::dse`]): each builds a one-axis [`DseSpec`] and projects the
//! resulting points back into a [`Sweep`]. The bandwidth sweep inherits the
//! engine's compile memoization for free — tiling does not depend on
//! bandwidth, so the whole axis shares a single compilation.
//!
//! Every sweep is generic over the [`SimBackend`] — the cheap
//! [`AnalyticBackend`](crate::AnalyticBackend) or the trace-driven
//! [`EventBackend`](crate::EventBackend) — and runs through caller-owned
//! caches of both tiers.

use bitfusion_compiler::ArtifactCache;
use bitfusion_core::arch::ArchConfig;
use bitfusion_core::grid::ArchGrid;
use bitfusion_dnn::model::Model;
use bitfusion_dnn::quantspec::QuantSpec;

use crate::backend::SimBackend;
use crate::dse::{explore_with_caches, DseSpec, PointError};
use crate::engine::SimOptions;
use crate::layer_cache::LayerPerfCache;
use crate::stats::PerfReport;

/// One point of a sweep: the swept value and the resulting report.
#[derive(Debug, Clone)]
pub struct SweepPoint<T> {
    /// The swept parameter value.
    pub value: T,
    /// The simulation result at that value.
    pub report: PerfReport,
}

/// Result of a sweep over one model.
#[derive(Debug, Clone)]
pub struct Sweep<T> {
    /// Model name.
    pub model_name: String,
    /// Points in sweep order.
    pub points: Vec<SweepPoint<T>>,
    /// Layer evaluations the sweep's points requested (see
    /// [`crate::dse::DseResult::layer_evals`]).
    pub layer_evals: u64,
    /// Unique layer-tier keys those evaluations resolve to — deterministic
    /// for the sweep, independent of cache warmth (see
    /// [`crate::dse::DseResult::layer_unique`]).
    pub layer_unique: u64,
}

impl<T: Copy + PartialEq> Sweep<T> {
    /// Speedups relative to the point with value `baseline` (total cycles,
    /// whole batch), or `None` when `baseline` is not one of the swept
    /// values.
    pub fn speedups_vs(&self, baseline: T) -> Option<Vec<(T, f64)>> {
        let base = self
            .points
            .iter()
            .find(|p| p.value == baseline)?
            .report
            .total_cycles() as f64;
        Some(
            self.points
                .iter()
                .map(|p| (p.value, base / p.report.total_cycles() as f64))
                .collect(),
        )
    }

    /// Per-input speedups relative to the point with value `baseline`, or
    /// `None` when `baseline` is not one of the swept values.
    pub fn per_input_speedups_vs(&self, baseline: T) -> Option<Vec<(T, f64)>> {
        let base = self
            .points
            .iter()
            .find(|p| p.value == baseline)?
            .report
            .cycles_per_input();
        Some(
            self.points
                .iter()
                .map(|p| (p.value, base / p.report.cycles_per_input()))
                .collect(),
        )
    }

    /// Spec-level layer-tier sharing within this sweep: evaluations
    /// answered by a key another layer of the same sweep also resolves to.
    pub fn spec_layer_hits(&self) -> u64 {
        self.layer_evals - self.layer_unique
    }
}

/// Projects a one-axis exploration back into a sweep, propagating the
/// first infeasible point as an error (a compile failure, or an invalid
/// swept configuration such as a zero bandwidth).
fn sweep_view<B: SimBackend + Sync + ?Sized, T>(
    backend: &B,
    spec: &DseSpec,
    cache: &ArtifactCache,
    layer_cache: &LayerPerfCache,
    value_of: impl Fn(&crate::dse::DsePoint) -> T,
) -> Result<Sweep<T>, bitfusion_compiler::CompileError> {
    let result = explore_with_caches(spec, backend, 1, cache, layer_cache);
    if let Some(bad) = result.infeasible.first() {
        return Err(match &bad.error {
            PointError::Compile(e) => e.clone(),
            PointError::InvalidConfig(e) => {
                bitfusion_compiler::CompileError::InvalidArch(e.clone())
            }
            // Sweeps always run at the paper quantization, which applies
            // to every model.
            PointError::Quant(e) => unreachable!("paper quantization failed: {e}"),
        });
    }
    Ok(Sweep {
        model_name: spec.models[0].name.clone(),
        layer_evals: result.layer_evals,
        layer_unique: result.layer_unique,
        points: result
            .points
            .into_iter()
            .map(|p| {
                let value = value_of(&p);
                SweepPoint {
                    value,
                    report: p.report,
                }
            })
            .collect(),
    })
}

/// Sweeps off-chip bandwidth (bits/cycle) at a fixed batch size (Figure 15)
/// on `backend`, through caller-owned caches of both tiers. The whole axis
/// resolves to one artifact key (tiling ignores bandwidth), so a warm
/// `cache` makes the sweep compilation-free; per-layer evaluations resolve
/// through `layer_cache` (bandwidth *is* part of the layer key, so each
/// swept value evaluates its own layers — sharing comes from repeated
/// shapes and warm caches).
///
/// # Errors
///
/// Propagates compilation failures, and rejects invalid swept
/// configurations (e.g. a zero bandwidth) as
/// [`CompileError::InvalidArch`](bitfusion_compiler::CompileError).
#[allow(clippy::too_many_arguments)]
pub fn bandwidth_sweep<B: SimBackend + Sync + ?Sized>(
    backend: &B,
    base_arch: &ArchConfig,
    model: &Model,
    batch: u64,
    bandwidths: &[u32],
    options: SimOptions,
    cache: &ArtifactCache,
    layer_cache: &LayerPerfCache,
) -> Result<Sweep<u32>, bitfusion_compiler::CompileError> {
    let spec = DseSpec {
        grid: ArchGrid {
            dram_bits_per_cycle: bandwidths.to_vec(),
            ..ArchGrid::from_base(base_arch.clone())
        },
        models: vec![model.clone()],
        quant_specs: vec![QuantSpec::paper()],
        batches: vec![batch],
        options,
    };
    sweep_view(backend, &spec, cache, layer_cache, |p| {
        p.arch.dram_bits_per_cycle
    })
}

/// Sweeps batch size at a fixed architecture (Figure 16) on `backend`,
/// through caller-owned caches of both tiers.
///
/// # Errors
///
/// Propagates compilation failures.
pub fn batch_sweep<B: SimBackend + Sync + ?Sized>(
    backend: &B,
    arch: &ArchConfig,
    model: &Model,
    batches: &[u64],
    options: SimOptions,
    cache: &ArtifactCache,
    layer_cache: &LayerPerfCache,
) -> Result<Sweep<u64>, bitfusion_compiler::CompileError> {
    let spec = DseSpec {
        grid: ArchGrid::from_base(arch.clone()),
        models: vec![model.clone()],
        quant_specs: vec![QuantSpec::paper()],
        batches: batches.to_vec(),
        options,
    };
    sweep_view(backend, &spec, cache, layer_cache, |p| p.batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::event::EventBackend;
    use bitfusion_dnn::zoo::Benchmark;

    fn bandwidths<B: SimBackend + Sync>(
        backend: &B,
        benchmark: Benchmark,
        batch: u64,
        bws: &[u32],
    ) -> Result<Sweep<u32>, bitfusion_compiler::CompileError> {
        bandwidth_sweep(
            backend,
            &ArchConfig::isca_45nm(),
            &benchmark.model(),
            batch,
            bws,
            SimOptions::default(),
            &ArtifactCache::default(),
            &LayerPerfCache::default(),
        )
    }

    fn batches(benchmark: Benchmark, batches: &[u64]) -> Sweep<u64> {
        batch_sweep(
            &AnalyticBackend,
            &ArchConfig::isca_45nm(),
            &benchmark.model(),
            batches,
            SimOptions::default(),
            &ArtifactCache::default(),
            &LayerPerfCache::default(),
        )
        .unwrap()
    }

    #[test]
    fn bandwidth_sweep_monotone() {
        let sweep = bandwidths(&AnalyticBackend, Benchmark::Rnn, 16, &[32, 128, 512]).unwrap();
        let speedups = sweep.speedups_vs(128).expect("128 is swept");
        assert_eq!(speedups.len(), 3);
        assert!(speedups[0].1 < 1.0); // 32 b/cyc slower
        assert!((speedups[1].1 - 1.0).abs() < 1e-9);
        assert!(speedups[2].1 > 1.0); // 512 b/cyc faster
    }

    #[test]
    fn batch_sweep_per_input_improves() {
        let sweep = batches(Benchmark::Lstm, &[1, 16]);
        let speedups = sweep.per_input_speedups_vs(1).expect("1 is swept");
        assert!(speedups[1].1 > 2.0, "{speedups:?}");
    }

    #[test]
    fn missing_baseline_is_none_not_a_panic() {
        let sweep = batches(Benchmark::Lstm, &[1, 4]);
        assert!(sweep.speedups_vs(999).is_none());
        assert!(sweep.per_input_speedups_vs(999).is_none());
    }

    #[test]
    fn invalid_swept_bandwidth_is_an_error_not_a_panic() {
        use bitfusion_compiler::CompileError;
        let result = bandwidths(&AnalyticBackend, Benchmark::Rnn, 1, &[0, 128]);
        assert!(
            matches!(result, Err(CompileError::InvalidArch(_))),
            "{result:?}"
        );
    }

    #[test]
    fn sweep_points_follow_input_order() {
        let bws = [512, 32, 128];
        let sweep = bandwidths(&AnalyticBackend, Benchmark::Lstm, 4, &bws).unwrap();
        let got: Vec<u32> = sweep.points.iter().map(|p| p.value).collect();
        assert_eq!(got, bws);
    }

    #[test]
    fn tiered_sweep_reuses_layer_results_across_runs() {
        let arch = ArchConfig::isca_45nm();
        let model = Benchmark::ResNet18.model();
        let cache = ArtifactCache::default();
        let layer_cache = LayerPerfCache::default();
        let opts = SimOptions::default();
        let run = || {
            bandwidth_sweep(
                &AnalyticBackend,
                &arch,
                &model,
                16,
                &[64, 128],
                opts,
                &cache,
                &layer_cache,
            )
            .unwrap()
        };
        let cold = run();
        assert!(cold.spec_layer_hits() > 0, "ResNet-18 repeats shapes");
        assert_eq!(layer_cache.stats().misses, cold.layer_unique);
        let misses_after_cold = layer_cache.stats().misses;
        let warm = run();
        assert_eq!(
            layer_cache.stats().misses,
            misses_after_cold,
            "no re-evaluation"
        );
        assert_eq!(
            warm.layer_evals, cold.layer_evals,
            "counters are warmth-independent"
        );
        assert_eq!(warm.layer_unique, cold.layer_unique);
        for (a, b) in cold.points.iter().zip(&warm.points) {
            assert_eq!(a.report, b.report, "warmth must never change bytes");
        }
    }

    #[test]
    fn event_backend_sweep_shows_the_same_sensitivity() {
        let sweep = bandwidths(&EventBackend, Benchmark::Rnn, 16, &[32, 128, 512]).unwrap();
        let speedups = sweep.speedups_vs(128).expect("128 is swept");
        assert!(speedups[0].1 < 1.0, "{speedups:?}");
        assert!(speedups[2].1 > 1.0, "{speedups:?}");
    }
}
