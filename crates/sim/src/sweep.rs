//! Reusable parameter sweeps: the bandwidth (Figure 15) and batch
//! (Figure 16) sensitivity studies as library functions, shared by the
//! session facade and downstream users.
//!
//! A sweep takes the `report` path once per point: the plan through the
//! caller's [`ArtifactCache`] (`get_or_compile`), then
//! [`run_plan_cached`] through the caller's layer tier. The bandwidth
//! sweep compiles once for the whole axis — tiling does not depend on
//! bandwidth — and evaluates each swept value's layers through the tier,
//! so a warm repeat evaluates nothing.
//!
//! Every sweep is generic over the [`SimBackend`] — the cheap
//! [`AnalyticBackend`](crate::AnalyticBackend) or the trace-driven
//! [`EventBackend`](crate::EventBackend).

use std::collections::HashSet;

use bitfusion_compiler::{layer_fingerprint, ArtifactCache, CachedPlan, CompileError, LayerKey};
use bitfusion_core::arch::ArchConfig;
use bitfusion_dnn::model::Model;
use bitfusion_energy::FusionEnergy;

use crate::backend::SimBackend;
use crate::engine::SimOptions;
use crate::layer_cache::{eval_context, run_plan_cached, LayerPerfCache};
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

/// Runs a sweep's points down the `report` path and accumulates them with
/// the sweep's spec-level layer counters.
struct SweepRun<'a, B: ?Sized, T> {
    backend: &'a B,
    options: SimOptions,
    energy: FusionEnergy,
    layer_cache: &'a LayerPerfCache,
    context: u64,
    points: Vec<SweepPoint<T>>,
    layer_evals: u64,
    layer_keys: HashSet<LayerKey>,
    /// The layer fingerprints of the last point's plan, and its batch:
    /// model and geometry are fixed within a sweep, so the batch names
    /// the plan, and a bandwidth axis hashes its one plan once.
    fingerprints: Vec<u64>,
    fingerprints_of: Option<u64>,
}

impl<'a, B: SimBackend + ?Sized, T> SweepRun<'a, B, T> {
    fn new(backend: &'a B, options: SimOptions, layer_cache: &'a LayerPerfCache) -> Self {
        SweepRun {
            backend,
            options,
            energy: FusionEnergy::isca_45nm(),
            layer_cache,
            context: eval_context(backend.name(), &options),
            points: Vec::new(),
            layer_evals: 0,
            layer_keys: HashSet::new(),
            fingerprints: Vec::new(),
            fingerprints_of: None,
        }
    }

    /// Evaluates the cached plan on `arch` through the layer tier as the
    /// point at `value`, or returns the plan's compile failure.
    fn point(
        &mut self,
        value: T,
        cached: &CachedPlan,
        arch: &ArchConfig,
    ) -> Result<(), CompileError> {
        let plan = cached.as_ref().as_ref().map_err(Clone::clone)?;
        self.layer_evals += plan.layers.len() as u64;
        if self.fingerprints_of != Some(plan.batch) {
            self.fingerprints = plan.layers.iter().map(layer_fingerprint).collect();
            self.fingerprints_of = Some(plan.batch);
        }
        for &fp in &self.fingerprints {
            self.layer_keys
                .insert(LayerKey::of(fp, arch, plan.batch, self.context));
        }
        let report = run_plan_cached(
            self.backend,
            plan,
            arch,
            &self.energy,
            &self.options,
            self.layer_cache,
        );
        self.points.push(SweepPoint { value, report });
        Ok(())
    }

    fn finish(self, model: &Model) -> Sweep<T> {
        Sweep {
            model_name: model.name.clone(),
            points: self.points,
            layer_evals: self.layer_evals,
            layer_unique: self.layer_keys.len() as u64,
        }
    }
}

/// Rejects a swept configuration that fails validation (e.g. a zero
/// bandwidth) before it reaches the compiler.
fn check(arch: &ArchConfig) -> Result<(), CompileError> {
    arch.validate().map_err(CompileError::InvalidArch)
}

/// Sweeps off-chip bandwidth (bits/cycle) at a fixed batch size (Figure 15)
/// on `backend`, through caller-owned caches of both tiers. The whole axis
/// resolves to one artifact key (tiling ignores bandwidth), so it compiles
/// at most once, and a warm `cache` makes the sweep compilation-free;
/// per-layer evaluations resolve through `layer_cache` (bandwidth *is*
/// part of the layer key, so each swept value evaluates its own layers —
/// sharing comes from repeated shapes and warm caches).
///
/// # Errors
///
/// Stops at the first swept value that fails: an invalid configuration
/// (e.g. a zero bandwidth) as [`CompileError::InvalidArch`], or the
/// compilation failure.
#[allow(clippy::too_many_arguments)]
pub fn bandwidth_sweep<B: SimBackend + ?Sized>(
    backend: &B,
    base_arch: &ArchConfig,
    model: &Model,
    batch: u64,
    bandwidths: &[u32],
    options: SimOptions,
    cache: &ArtifactCache,
    layer_cache: &LayerPerfCache,
) -> Result<Sweep<u32>, CompileError> {
    let mut sweep = SweepRun::new(backend, options, layer_cache);
    let mut cached: Option<CachedPlan> = None;
    for &bw in bandwidths {
        let arch = base_arch.clone().with_bandwidth(bw);
        check(&arch)?;
        let cached = cached.get_or_insert_with(|| cache.get_or_compile(model, &arch, batch));
        sweep.point(bw, cached, &arch)?;
    }
    Ok(sweep.finish(model))
}

/// Sweeps batch size at a fixed architecture (Figure 16) on `backend`,
/// through caller-owned caches of both tiers.
///
/// # Errors
///
/// Rejects an invalid `arch` as [`CompileError::InvalidArch`], and stops
/// at the first batch that fails to compile.
pub fn batch_sweep<B: SimBackend + ?Sized>(
    backend: &B,
    arch: &ArchConfig,
    model: &Model,
    batches: &[u64],
    options: SimOptions,
    cache: &ArtifactCache,
    layer_cache: &LayerPerfCache,
) -> Result<Sweep<u64>, CompileError> {
    let mut sweep = SweepRun::new(backend, options, layer_cache);
    for &batch in batches {
        // Checked per point, like the bandwidth axis: an empty axis is an
        // empty sweep.
        check(arch)?;
        sweep.point(batch, &cache.get_or_compile(model, arch, batch), arch)?;
    }
    Ok(sweep.finish(model))
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
        // The contract the benchmark's traced mirror checks: a cold sweep
        // evaluates each of its unique layer keys once through the tier,
        // and a warm repeat evaluates nothing.
        let arch = ArchConfig::isca_45nm();
        let model = Benchmark::ResNet18.model();
        let opts = SimOptions::default();
        for backend in [&AnalyticBackend as &dyn SimBackend, &EventBackend] {
            check_tier_fills(backend.name(), |cache, layers| {
                bandwidth_sweep(backend, &arch, &model, 16, &[64, 128], opts, cache, layers)
                    .unwrap()
            });
            check_tier_fills(backend.name(), |cache, layers| {
                batch_sweep(backend, &arch, &model, &[1, 16], opts, cache, layers).unwrap()
            });
        }
    }

    /// Runs a sweep cold, then warm, through one pair of caches.
    fn check_tier_fills<T: Copy + PartialEq>(
        name: &str,
        run: impl Fn(&ArtifactCache, &LayerPerfCache) -> Sweep<T>,
    ) {
        let cache = ArtifactCache::default();
        let layer_cache = LayerPerfCache::default();
        let cold = run(&cache, &layer_cache);
        assert!(
            cold.spec_layer_hits() > 0,
            "{name}: ResNet-18 repeats shapes"
        );
        assert_eq!(
            layer_cache.stats().misses,
            cold.layer_unique,
            "{name}: cold"
        );
        let warm = run(&cache, &layer_cache);
        assert_eq!(
            layer_cache.stats().misses,
            cold.layer_unique,
            "{name}: warm adds no miss"
        );
        assert_eq!(
            warm.layer_evals, cold.layer_evals,
            "{name}: warmth-independent"
        );
        assert_eq!(warm.layer_unique, cold.layer_unique, "{name}");
        for (a, b) in cold.points.iter().zip(&warm.points) {
            assert_eq!(a.report, b.report, "{name}: warmth must never change bytes");
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
