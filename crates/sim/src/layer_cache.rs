//! The layer tier of the two-tier cache, instantiated for simulation: a
//! shared memo of per-layer [`LayerPerf`] results.
//!
//! The model tier ([`bitfusion_compiler::ArtifactCache`]) makes *plans*
//! compile-once; this tier makes *evaluations* run-once. A layer's
//! performance depends only on its structural fingerprint
//! ([`bitfusion_compiler::layer_fingerprint`], FNV-1a over the derived
//! `Hash` of its shape, `PairPrecision`, tiling, fused post-ops and
//! mapping), the batch, the architecture's geometry and off-chip
//! bandwidth, and the evaluation context (backend + calibration knobs,
//! folded into [`eval_context`]). Networks full of repeated layer shapes —
//! ResNet-18's basic blocks, VGG's conv stacks — and requests that
//! re-visit a layer (a warm `report`, the points of a `sweep`) collapse
//! onto one evaluation per unique [`LayerKey`].
//!
//! [`run_plan_cached`] is the tier's one reader: the session's `report`,
//! `compare` and `sweep` paths. Design-space exploration does not use it:
//! [`crate::dse`] deduplicates layers per run in its own job table, with
//! no lock per layer and one segment program per layer across a bandwidth
//! axis.
//!
//! A lookup is a ~30 ns fingerprint (release build) plus a locked map
//! probe, against ~1.7 µs for an analytic and ~2.7 µs for an
//! event-backend layer evaluation.
//!
//! Correctness note: cached values are *deterministic* functions of their
//! key (both backends are pure), so cache warmth can change wall-clock
//! time but never a result — the service-layer byte-determinism contract
//! holds whether a result came from the cache or a fresh evaluation. The
//! one key-exempt field is the layer's *name*: identical twins at
//! different depths share an entry, so the name is re-stamped from the
//! requesting layer on every hit.

use bitfusion_compiler::cache::fnv1a;
use bitfusion_compiler::{layer_fingerprint, LayerArtifactCache, LayerKey};
use bitfusion_core::arch::ArchConfig;
use bitfusion_energy::FusionEnergy;

use crate::backend::SimBackend;
use crate::engine::SimOptions;
use crate::stats::{LayerPerf, PerfReport};

/// The layer tier instantiated with simulation results.
pub type LayerPerfCache = LayerArtifactCache<LayerPerf>;

/// Folds every evaluation input [`LayerKey`] cannot cover structurally
/// into its `context` discriminant: the backend identity, the exact bit
/// patterns of the calibration knobs (two [`SimOptions`] differing in the
/// last ulp of an efficiency are different contexts — never aliased) and
/// the technology node, hashed with the same FNV-1a as the fingerprints.
pub fn eval_context(backend_name: &str, opts: &SimOptions) -> u64 {
    fnv1a(&(
        backend_name,
        opts.systolic_efficiency.to_bits(),
        opts.dram_efficiency.to_bits(),
        opts.node,
    ))
}

/// Evaluates a whole compiled plan through the layer cache, assembling the
/// same [`PerfReport`] as `BitFusionSim::run_plan` — the session facade's
/// `report`/`compare`/`sweep` path. Per layer, a hit returns the memoized
/// [`LayerPerf`] (name re-stamped from the requesting layer), a miss runs
/// the backend and publishes the result.
pub fn run_plan_cached<B: SimBackend + ?Sized>(
    backend: &B,
    plan: &bitfusion_compiler::ExecutionPlan,
    arch: &ArchConfig,
    energy: &FusionEnergy,
    opts: &SimOptions,
    cache: &LayerPerfCache,
) -> PerfReport {
    let context = eval_context(backend.name(), opts);
    let layers = plan
        .layers
        .iter()
        .map(|layer| {
            let key = LayerKey::of(layer_fingerprint(layer), arch, plan.batch, context);
            if let Some(mut perf) = cache.lookup(&key) {
                // Identical twins at different depths share the entry;
                // only the name is per-instance.
                perf.name.clone_from(&layer.name);
                return perf;
            }
            let perf = backend.evaluate_layer(layer, arch, energy, opts);
            cache.insert(key, perf.clone());
            perf
        })
        .collect();
    PerfReport {
        model_name: plan.model_name.clone(),
        batch: plan.batch,
        freq_mhz: arch.freq_mhz,
        layers,
    }
}

/// Spec-level layer sharing within one plan, independent of cache warmth:
/// `(hits, misses)` where `misses` is the number of unique layer
/// fingerprints and `hits` the evaluations they absorb. This is what the
/// typed protocol reports (warmth-dependent cache counters would break
/// byte-determinism).
pub fn plan_layer_sharing(plan: &bitfusion_compiler::ExecutionPlan) -> (u64, u64) {
    let mut unique = std::collections::HashSet::new();
    for l in &plan.layers {
        unique.insert(layer_fingerprint(l));
    }
    (
        plan.layers.len() as u64 - unique.len() as u64,
        unique.len() as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::BitFusionSim;
    use crate::backend::AnalyticBackend;
    use crate::event::EventBackend;
    use bitfusion_dnn::zoo::Benchmark;

    /// Compiles `benchmark` and evaluates the plan through `cache`.
    fn run<B: SimBackend>(
        backend: &B,
        benchmark: Benchmark,
        arch: &ArchConfig,
        batch: u64,
        cache: &LayerPerfCache,
    ) -> PerfReport {
        let plan = bitfusion_compiler::compile(&benchmark.model(), arch, batch).unwrap();
        let energy = FusionEnergy::isca_45nm();
        run_plan_cached(backend, &plan, arch, &energy, &SimOptions::default(), cache)
    }

    #[test]
    fn cached_run_matches_the_direct_path_cold_and_warm() {
        let arch = ArchConfig::isca_45nm();
        let direct = BitFusionSim::new(arch.clone())
            .run(&Benchmark::ResNet18.model(), 16)
            .unwrap();
        let cache = LayerPerfCache::default();
        let cold = run(&AnalyticBackend, Benchmark::ResNet18, &arch, 16, &cache);
        assert_eq!(cold, direct, "cold cached run must equal the direct path");
        let stats = cache.stats();
        assert!(stats.hits > 0, "ResNet-18 repeats basic blocks: {stats:?}");
        let warm = run(&AnalyticBackend, Benchmark::ResNet18, &arch, 16, &cache);
        assert_eq!(warm, direct, "warmth must never change bytes");
        assert_eq!(cache.stats().misses, stats.misses, "no re-evaluation");
    }

    #[test]
    fn twin_layers_keep_their_own_names() {
        let arch = ArchConfig::isca_45nm();
        let cache = LayerPerfCache::default();
        let report = run(&AnalyticBackend, Benchmark::ResNet18, &arch, 16, &cache);
        let mut names = std::collections::HashSet::new();
        for l in &report.layers {
            assert!(names.insert(l.name.clone()), "duplicate name {}", l.name);
        }
    }

    #[test]
    fn contexts_split_backends_options_and_nodes() {
        let base = SimOptions::default();
        let analytic = eval_context("analytic", &base);
        assert_eq!(analytic, eval_context("analytic", &base));
        assert_ne!(analytic, eval_context("event", &base));
        let slow = SimOptions {
            dram_efficiency: 0.35,
            ..base
        };
        assert_ne!(analytic, eval_context("analytic", &slow));
        let node16 = SimOptions {
            node: bitfusion_energy::TechNode::Nm16,
            ..base
        };
        assert_ne!(analytic, eval_context("analytic", &node16));
    }

    #[test]
    fn backends_never_share_layer_entries() {
        // One cache serving both backends: the context discriminant keeps
        // the event backend's stall-attributed results from answering
        // analytic requests.
        let arch = ArchConfig::isca_45nm();
        let cache = LayerPerfCache::default();
        let an = run(&AnalyticBackend, Benchmark::Rnn, &arch, 1, &cache);
        let ev = run(&EventBackend, Benchmark::Rnn, &arch, 1, &cache);
        assert_eq!(an.total_dram_bits(), ev.total_dram_bits());
        assert_ne!(
            an.layers[0].cycles, ev.layers[0].cycles,
            "backends differ in timing, so entries must not alias"
        );
        let direct_ev = BitFusionSim::event(arch)
            .run(&Benchmark::Rnn.model(), 1)
            .unwrap();
        assert_eq!(ev, direct_ev);
    }

    #[test]
    fn bandwidth_splits_layer_entries() {
        let cache = LayerPerfCache::default();
        let narrow = ArchConfig::isca_45nm().with_bandwidth(32);
        let wide = ArchConfig::isca_45nm().with_bandwidth(512);
        let slow = run(&AnalyticBackend, Benchmark::Rnn, &narrow, 16, &cache);
        let fast = run(&AnalyticBackend, Benchmark::Rnn, &wide, 16, &cache);
        assert!(
            slow.total_cycles() > fast.total_cycles(),
            "a shared entry across bandwidths would flatten Figure 15"
        );
    }

    #[test]
    fn plan_layer_sharing_is_structural() {
        let arch = ArchConfig::isca_45nm();
        let plan =
            bitfusion_compiler::compile(&Benchmark::ResNet18.model(), &arch, 16).unwrap();
        let (hits, misses) = plan_layer_sharing(&plan);
        assert_eq!(hits + misses, plan.layers.len() as u64);
        assert!(misses >= 1);
        // ResNet-18 repeats basic-block shapes: some sharing must exist.
        assert!(hits > 0, "{hits} hits / {misses} unique");
    }
}
