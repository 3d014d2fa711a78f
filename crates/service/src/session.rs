//! The [`Session`] facade: one stable object through which every
//! evaluation flows.
//!
//! A session owns the three things that parameterize evaluation —
//! calibration knobs ([`SimOptions`]), the default backend choice, and the
//! shared compiled-artifact cache ([`ArtifactCache`]) — and turns typed
//! [`Request`]s into typed [`Response`]s. Every entry point (the one-shot
//! CLI, the `serve` loop, tests, benches) goes through [`Session::handle`],
//! so `report`, `compare`, `sweep` and `asm` reuse compilations through the
//! cache (`dse` compiles each unique layer once within the request and
//! keeps no plan), and the same request always produces the same response
//! bytes.
//!
//! # Determinism contract
//!
//! For a fixed session configuration, `handle` is a pure function of the
//! request: responses never depend on cache warmth (the cache changes
//! *wall-clock time*, never *bytes* — `dse` responses report spec-level
//! compile sharing, not cache-state-dependent counters), on worker counts
//! (the underlying engines reassemble results in deterministic order), or
//! on request interleaving in `serve`. This is what makes the JSON-lines
//! server's output byte-identical to the corresponding one-shot
//! invocations.

use bitfusion_baselines::{EyerissSim, GpuMode, GpuModel, StripesSim};
use bitfusion_compiler::{ArtifactCache, CacheStats, CachedPlan, ExecutionPlan};
use bitfusion_core::arch::ArchConfig;
use bitfusion_core::grid::ArchGrid;
use bitfusion_dnn::model::Model;
use bitfusion_dnn::quantspec::QuantSpec;
use bitfusion_dnn::stats::BitwidthStats;
use bitfusion_dnn::zoo::Benchmark;
use bitfusion_energy::{ChipArea, EnergyBreakdown, FusionEnergy};
use bitfusion_isa::asm::format_block;
use bitfusion_sim::pool::default_workers;
use bitfusion_sim::{
    explore, layer_cache::run_plan_cached, plan_layer_sharing, AnalyticBackend, DseResult, DseSpec,
    EventBackend, LayerPerfCache, PerfReport, SimBackend, SimOptions,
};

use crate::protocol::{
    ArchInfo, ArchPreset, AsmBlock, AsmReply, BackendChoice, BaselineComparison, BenchmarkInfo,
    CompareReply, DseParams, DseReply, EnergyInfo, FrontierPoint, InfeasibleInfo, LayerInfo,
    ModelSource, QuantLayerInfo, QuantSpeedupInfo, QuantizeReply, ReportReply, Request, Response,
    StallInfo, SweepAxis, SweepPointInfo, SweepReply,
};

/// Batch sizes the `sweep --batch` axis walks (Figure 16).
pub const SWEEP_BATCHES: [u64; 5] = [1, 4, 16, 64, 256];
/// The batch the batch axis normalizes against.
pub const SWEEP_BATCH_BASELINE: u64 = 1;
/// Bandwidths the `sweep --bandwidth` axis walks (Figure 15), bits/cycle.
pub const SWEEP_BANDWIDTHS: [u32; 5] = [32, 64, 128, 256, 512];
/// The bandwidth the bandwidth axis normalizes against.
pub const SWEEP_BANDWIDTH_BASELINE: u32 = 128;
/// The batch size the bandwidth axis runs at.
pub const SWEEP_BANDWIDTH_BATCH: u64 = 16;

/// A configured evaluation session: calibration + backend + shared
/// artifact cache.
///
/// # Examples
///
/// ```
/// use bitfusion_service::protocol::{Request, Response};
/// use bitfusion_service::session::Session;
///
/// let session = Session::new();
/// let req = Request::parse(r#"{"cmd":"report","benchmark":"rnn","batch":4}"#).unwrap();
/// match session.handle(&req) {
///     Response::Report(r) => assert!(r.cycles > 0),
///     other => panic!("{other:?}"),
/// }
/// // The same request again is answered from the artifact cache.
/// assert!(session.cache_stats().hits > 0 || session.cache_stats().misses > 0);
/// ```
#[derive(Debug)]
pub struct Session {
    options: SimOptions,
    backend: BackendChoice,
    cache: ArtifactCache,
    layer_cache: LayerPerfCache,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session with default calibration, the analytic backend, and a
    /// default-capacity cache.
    pub fn new() -> Self {
        Session {
            options: SimOptions::default(),
            backend: BackendChoice::Analytic,
            cache: ArtifactCache::default(),
            layer_cache: LayerPerfCache::default(),
        }
    }

    /// Overrides the calibration knobs.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the default backend (requests may still override
    /// per-request).
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the artifact cache with one of the given capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = ArtifactCache::new(capacity);
        self
    }

    /// The session's calibration knobs.
    pub fn options(&self) -> SimOptions {
        self.options
    }

    /// The session's default backend.
    pub fn backend(&self) -> BackendChoice {
        self.backend
    }

    /// Counters of the shared artifact cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counters of the shared layer-tier cache.
    pub fn layer_cache_stats(&self) -> CacheStats {
        self.layer_cache.stats()
    }

    /// Serves one request. Never panics on bad input: failures come back
    /// as [`Response::Error`].
    pub fn handle(&self, request: &Request) -> Response {
        let result = match request {
            Request::List => Ok(self.list()),
            Request::Report {
                model,
                batch,
                bandwidth,
                arch,
                backend,
                quant,
            } => self.report(model, *batch, *bandwidth, *arch, *backend, quant.as_deref()),
            Request::Compare {
                model,
                batch,
                backend,
                quant,
            } => self.compare(model, *batch, *backend, quant.as_deref()),
            Request::Asm {
                model,
                batch,
                arch,
                layer,
            } => self.asm(model, *batch, *arch, layer.as_deref()),
            Request::Sweep {
                model,
                axis,
                backend,
                quant,
            } => self.sweep(model, *axis, *backend, quant.as_deref()),
            Request::Dse(params) => self.dse(params),
            Request::Quantize { model, quant } => self.quantize(model, quant.as_deref()),
            // Server-level requests: a bare session has no admission
            // queue, connection counters, or latency histogram to report,
            // and nothing to shut down. The network server intercepts
            // these before they reach `handle`.
            Request::Stats => Err(
                "`stats` is answered by the network server (serve --listen/--unix)".to_string(),
            ),
            Request::Shutdown => Err(
                "`shutdown` is answered by the network server (serve --unix)".to_string(),
            ),
        };
        result.unwrap_or_else(|message| Response::Error { message })
    }

    fn list(&self) -> Response {
        Response::Benchmarks {
            benchmarks: Benchmark::ALL
                .into_iter()
                .map(|b| {
                    let m = b.model();
                    BenchmarkInfo {
                        name: b.name().to_string(),
                        layers: m.len() as u64,
                        macs: m.total_macs(),
                        weight_bytes: m.weight_bytes(),
                    }
                })
                .collect(),
            architectures: [
                ArchConfig::isca_45nm(),
                ArchConfig::stripes_matched(),
                ArchConfig::gpu_16nm(),
            ]
            .iter()
            .map(ArchConfig::to_string)
            .collect(),
        }
    }

    fn report(
        &self,
        source: &ModelSource,
        batch: u64,
        bandwidth: Option<u32>,
        arch: ArchPreset,
        backend: Option<BackendChoice>,
        quant: Option<&str>,
    ) -> Result<Response, String> {
        let resolved = resolve_model(source, quant)?;
        let backend = backend.unwrap_or(self.backend);
        let (model, quant) = (resolved.model, resolved.quant);
        let mut arch = arch_config(arch);
        if let Some(bw) = bandwidth {
            arch = arch.with_bandwidth(bw);
        }
        arch.validate().map_err(|e| e.to_string())?;
        // Spec-level layer sharing within this plan (warmth-independent —
        // the reply must not change as the session's caches fill).
        let cached = self.compiled(&model, &arch, batch)?;
        let (layer_hits, layer_misses) =
            plan_layer_sharing(cached.as_ref().as_ref().expect("checked by compiled()"));
        let report = self.simulate(&model, &arch, batch, backend)?;
        let stalls = report.total_stalls();
        Ok(Response::Report(ReportReply {
            benchmark: resolved.name,
            batch,
            backend,
            quant,
            arch: arch_info(&arch),
            cycles: report.total_cycles(),
            macs: report.total_macs(),
            dram_bits: report.total_dram_bits(),
            latency_ms_per_input: report.latency_ms_per_input(),
            macs_per_cycle: report.macs_per_cycle(),
            energy_per_input: energy_info(report.energy_per_input()),
            stalls: StallInfo {
                bandwidth_starved: stalls.bandwidth_starved,
                compute_starved: stalls.compute_starved,
                fill_drain: stalls.fill_drain,
            },
            layer_hits,
            layer_misses,
            layers: report
                .layers
                .iter()
                .map(|l| LayerInfo {
                    name: l.name.clone(),
                    cycles: l.cycles,
                    compute_cycles: l.compute_cycles,
                    dma_cycles: l.dma_cycles,
                    macs: l.macs,
                    dram_bits: l.dram_bits,
                    bandwidth_bound: l.is_bandwidth_bound(),
                })
                .collect(),
        }))
    }

    fn compare(
        &self,
        source: &ModelSource,
        batch: u64,
        backend: Option<BackendChoice>,
        quant: Option<&str>,
    ) -> Result<Response, String> {
        let resolved = resolve_model(source, quant)?;
        let backend = backend.unwrap_or(self.backend);
        // The quantization applies to the precision-sensitive executors
        // (Bit Fusion, the bit-serial Stripes); Eyeriss and the GPU run
        // the 16-bit reference model regardless.
        let (model, quant) = (resolved.model, resolved.quant);
        let r = self.simulate(&model, &ArchConfig::isca_45nm(), batch, backend)?;
        let ey = EyerissSim::default().run(&resolved.reference, batch);
        let rs = self.simulate(&model, &ArchConfig::stripes_matched(), batch, backend)?;
        let st = StripesSim::default().run(&model, batch);
        let r16 = self.simulate(&model, &ArchConfig::gpu_16nm(), batch, backend)?;
        let tx2 = GpuModel::tegra_x2().run(&resolved.reference, batch, GpuMode::Fp32);
        Ok(Response::Compare(CompareReply {
            benchmark: resolved.name,
            batch,
            backend,
            quant,
            latency_ms_per_input: r.latency_ms_per_input(),
            energy_per_input: energy_info(r.energy_per_input()),
            baselines: vec![
                BaselineComparison {
                    name: "eyeriss".to_string(),
                    speedup: ey.latency_ms_per_input() / r.latency_ms_per_input(),
                    energy_ratio: Some(ey.energy.total_pj() / r.total_energy().total_pj()),
                },
                BaselineComparison {
                    name: "stripes".to_string(),
                    speedup: st.latency_ms_per_input() / rs.latency_ms_per_input(),
                    energy_ratio: Some(st.energy.total_pj() / rs.total_energy().total_pj()),
                },
                BaselineComparison {
                    name: "tegra-x2".to_string(),
                    speedup: tx2.latency_ms_per_input() / r16.latency_ms_per_input(),
                    energy_ratio: None,
                },
            ],
        }))
    }

    fn asm(
        &self,
        source: &ModelSource,
        batch: u64,
        arch: ArchPreset,
        layer: Option<&str>,
    ) -> Result<Response, String> {
        let resolved = resolve_model(source, None)?;
        let cached = self.compiled(&resolved.model, &arch_config(arch), batch)?;
        let plan = cached.as_ref().as_ref().expect("checked by compiled()");
        let blocks: Vec<AsmBlock> = plan
            .layers
            .iter()
            .filter(|l| layer.is_none_or(|want| l.name == want))
            .map(|l| AsmBlock {
                layer: l.name.clone(),
                text: format_block(&l.block),
            })
            .collect();
        if blocks.is_empty() {
            if let Some(want) = layer {
                let names: Vec<&str> = plan.layers.iter().map(|l| l.name.as_str()).collect();
                return Err(format!(
                    "unknown layer `{want}` in {} (layers: {})",
                    resolved.name,
                    names.join(", ")
                ));
            }
        }
        Ok(Response::Asm(AsmReply {
            benchmark: resolved.name,
            batch,
            blocks,
        }))
    }

    fn sweep(
        &self,
        source: &ModelSource,
        axis: SweepAxis,
        backend: Option<BackendChoice>,
        quant: Option<&str>,
    ) -> Result<Response, String> {
        let resolved = resolve_model(source, quant)?;
        let backend = backend.unwrap_or(self.backend);
        let arch = ArchConfig::isca_45nm();
        let model = &resolved.model;
        // Each point takes the `report` path: a plan through the artifact
        // cache, then its layers through the layer tier. Every point of an
        // axis differs in the swept value, which is part of every layer
        // key, so the sum of the points' spec-level sharing is the
        // sweep's.
        let mut reports = Vec::with_capacity(SWEEP_BATCHES.len());
        let (mut layer_hits, mut layer_misses) = (0, 0);
        let mut point = |value: u64, cached: &CachedPlan, arch: &ArchConfig| {
            let plan = cached.as_ref().as_ref().expect("checked by compiled()");
            let (hits, misses) = plan_layer_sharing(plan);
            layer_hits += hits;
            layer_misses += misses;
            reports.push((value, self.run(plan, arch, backend)));
        };
        let (baseline, speedup): (u64, fn(&PerfReport, &PerfReport) -> f64) = match axis {
            SweepAxis::Bandwidth => {
                // Tiling ignores bandwidth: one plan serves the whole axis.
                let cached = self.compiled(model, &arch, SWEEP_BANDWIDTH_BATCH)?;
                for bw in SWEEP_BANDWIDTHS {
                    point(bw as u64, &cached, &arch.clone().with_bandwidth(bw));
                }
                (SWEEP_BANDWIDTH_BASELINE as u64, |base, p| {
                    base.total_cycles() as f64 / p.total_cycles() as f64
                })
            }
            SweepAxis::Batch => {
                for batch in SWEEP_BATCHES {
                    point(batch, &self.compiled(model, &arch, batch)?, &arch);
                }
                (SWEEP_BATCH_BASELINE, |base, p| {
                    base.cycles_per_input() / p.cycles_per_input()
                })
            }
        };
        let (_, base) = reports
            .iter()
            .find(|(value, _)| *value == baseline)
            .expect("every axis sweeps its baseline");
        let points = reports
            .iter()
            .map(|(value, report)| SweepPointInfo {
                value: *value,
                cycles: report.total_cycles(),
                cycles_per_input: report.cycles_per_input(),
                speedup: speedup(base, report),
            })
            .collect();
        Ok(Response::Sweep(SweepReply {
            benchmark: resolved.name,
            axis,
            backend,
            quant: resolved.quant,
            baseline,
            layer_hits,
            layer_misses,
            points,
        }))
    }

    fn quantize(&self, source: &ModelSource, quant: Option<&str>) -> Result<Response, String> {
        let spec = resolve_quant(quant)?;
        let resolved = resolve_model(source, quant)?;
        let model = resolved.model;
        let stats = BitwidthStats::of(&model);
        Ok(Response::Quantize(QuantizeReply {
            benchmark: resolved.name,
            quant: spec.to_string(),
            total_macs: model.total_macs(),
            weight_bytes: model.weight_bytes(),
            share_le_4bit: stats.share_at_or_below(4),
            layers: model
                .mac_layers()
                .map(|l| {
                    let p = l.layer.precision().expect("mac layers carry precisions");
                    QuantLayerInfo {
                        name: l.name.clone(),
                        kind: l.layer.kind().to_string(),
                        input_bits: p.input.bits() as u64,
                        weight_bits: p.weight.bits() as u64,
                        macs: l.layer.macs(),
                    }
                })
                .collect(),
        }))
    }

    fn dse(&self, params: &DseParams) -> Result<Response, String> {
        let backend = params.backend.unwrap_or(self.backend);
        // `networks: None` means the whole zoo — unless the request brings
        // its own external models, in which case an unnamed zoo would be a
        // surprising 8-network tax on a `--model` exploration.
        let networks: Vec<Benchmark> = match &params.networks {
            None if !params.models.is_empty() => Vec::new(),
            None => Benchmark::ALL.to_vec(),
            Some(names) => names
                .iter()
                .map(|n| find_benchmark(n))
                .collect::<Result<_, _>>()?,
        };
        let to_usize = |values: &[u64], what: &str| -> Result<Vec<usize>, String> {
            if values.is_empty() {
                return Err(format!("{what} has no candidates"));
            }
            values
                .iter()
                .map(|&v| usize::try_from(v).map_err(|_| format!("{what} value out of range")))
                .collect()
        };
        let kb_to_bytes = |values: &[u64], what: &str| -> Result<Vec<usize>, String> {
            to_usize(values, what)?
                .into_iter()
                .map(|kb| {
                    kb.checked_mul(1024)
                        .ok_or_else(|| format!("{what} value out of range"))
                })
                .collect()
        };
        let grid = ArchGrid {
            rows: to_usize(&params.rows, "rows")?,
            cols: to_usize(&params.cols, "cols")?,
            ibuf_bytes: kb_to_bytes(&params.ibuf_kb, "ibuf_kb")?,
            wbuf_bytes: kb_to_bytes(&params.wbuf_kb, "wbuf_kb")?,
            obuf_bytes: kb_to_bytes(&params.obuf_kb, "obuf_kb")?,
            dram_bits_per_cycle: params
                .bandwidth
                .iter()
                .map(|&bw| u32::try_from(bw).map_err(|_| "bandwidth value out of range"))
                .collect::<Result<_, _>>()?,
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        if params.quants.is_empty() {
            return Err("quants has no candidates".to_string());
        }
        let quant_specs: Vec<QuantSpec> = params
            .quants
            .iter()
            .map(|q| QuantSpec::parse(q))
            .collect::<Result<_, _>>()?;
        let quant_names: Vec<String> = quant_specs.iter().map(QuantSpec::to_string).collect();
        // Candidate identity is the canonical spelling: two entries that
        // canonicalize alike (e.g. `uniform8` and `default=8/8`) would
        // merge into one over-counted summary and silently empty the
        // frontier, so reject them up front.
        for (i, name) in quant_names.iter().enumerate() {
            if quant_names[..i].contains(name) {
                return Err(format!(
                    "duplicate quantization `{}` (canonicalizes to `{name}`)",
                    params.quants[i]
                ));
            }
        }
        let spec = DseSpec {
            grid,
            models: networks
                .iter()
                .map(|b| b.model())
                .chain(params.models.iter().cloned())
                .collect(),
            quant_specs,
            batches: params.batches.clone(),
            options: self.options,
        };
        if spec.is_empty() {
            return Err("empty design space (a dimension has no candidates)".to_string());
        }
        spec.points_within_cap().map_err(|e| e.to_string())?;
        spec.layers_within_cap().map_err(|e| e.to_string())?;
        let grid_points = spec
            .grid
            .len()
            .expect("at most the spec's checked point count");
        let result = explore(&spec, sim_backend(backend), dse_workers(params.workers));
        Ok(Response::Dse(dse_reply(
            &result,
            grid_points,
            backend,
            quant_names,
        )))
    }

    /// Compiles through the shared cache (or reports the compile failure).
    fn compiled(&self, model: &Model, arch: &ArchConfig, batch: u64) -> Result<CachedPlan, String> {
        arch.validate().map_err(|e| e.to_string())?;
        let cached = self.cache.get_or_compile(model, arch, batch);
        match cached.as_ref() {
            Ok(_) => Ok(cached),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Compile (via the artifact cache) + evaluate on the chosen backend
    /// through the layer-tier cache.
    fn simulate(
        &self,
        model: &Model,
        arch: &ArchConfig,
        batch: u64,
        backend: BackendChoice,
    ) -> Result<PerfReport, String> {
        let cached = self.compiled(model, arch, batch)?;
        let plan = cached.as_ref().as_ref().expect("checked by compiled()");
        Ok(self.run(plan, arch, backend))
    }

    /// Evaluates a compiled plan on `arch` through the layer-tier cache,
    /// reusing the simulator's report assembly (`run_plan_cached` builds
    /// the same [`PerfReport`] as `BitFusionSim::run_plan`) so the service
    /// path can never diverge from the library path.
    fn run(&self, plan: &ExecutionPlan, arch: &ArchConfig, backend: BackendChoice) -> PerfReport {
        run_plan_cached(
            sim_backend(backend),
            plan,
            arch,
            &FusionEnergy::isca_45nm(),
            &self.options,
            &self.layer_cache,
        )
    }
}

/// The thread count a `dse` request's `workers` field runs on: 0 (every
/// core) stays 0, and any other count is capped at
/// [`default_workers`], so no request can ask one process for more
/// threads than it has cores. Results do not depend on the count.
fn dse_workers(requested: u64) -> usize {
    usize::try_from(requested)
        .unwrap_or(usize::MAX)
        .min(default_workers())
}

/// The simulator a backend choice names.
fn sim_backend(choice: BackendChoice) -> &'static (dyn SimBackend + Sync) {
    match choice {
        BackendChoice::Analytic => &AnalyticBackend,
        BackendChoice::Event => &EventBackend,
    }
}

/// Parses an optional quantization override (`None` = the paper
/// assignment).
///
/// # Errors
///
/// Propagates [`QuantSpec::parse`] errors.
pub fn resolve_quant(quant: Option<&str>) -> Result<QuantSpec, String> {
    match quant {
        None => Ok(QuantSpec::paper()),
        Some(q) => QuantSpec::parse(q),
    }
}

/// A [`ModelSource`] resolved for evaluation: the concrete models the
/// executors run plus the canonical reply strings.
struct ResolvedModel {
    /// The (possibly re-quantized) model Bit Fusion and Stripes execute.
    model: Model,
    /// The 16-bit model the precision-blind baselines (Eyeriss, GPU) run
    /// in `compare`: the zoo's curated reference topology, or an external
    /// model forced to uniform 16-bit.
    reference: Model,
    /// The display name echoed in replies.
    name: String,
    /// The canonical quant spelling, when the request named one.
    quant: Option<String>,
}

/// Resolves a request's model source under an optional quantization
/// override. External models take exactly the same path as zoo networks
/// from here on — compilation, simulation, and both cache tiers key on
/// the model's structural fingerprint, never on this display name.
fn resolve_model(source: &ModelSource, quant: Option<&str>) -> Result<ResolvedModel, String> {
    let spec = resolve_quant(quant)?;
    let (base, reference, name) = match source {
        ModelSource::Zoo(n) => {
            let b = find_benchmark(n)?;
            (b.model(), b.reference_model(), b.name().to_string())
        }
        ModelSource::External(m) => {
            let reference = QuantSpec::parse("uniform16")
                .expect("uniform16 is a preset")
                .apply(m)?;
            (m.clone(), reference, m.name.clone())
        }
    };
    Ok(ResolvedModel {
        model: spec.apply(&base)?,
        reference,
        name,
        quant: quant.map(|_| spec.to_string()),
    })
}

/// Resolves a model name for `export-model`: a zoo benchmark
/// (case-insensitive) or one of the shipped modern workloads
/// (`attention-block`, `depthwise-net`).
///
/// # Errors
///
/// Names every valid choice.
pub fn find_model(name: &str) -> Result<Model, String> {
    match name.to_lowercase().as_str() {
        "attention-block" => Ok(bitfusion_dnn::modern::attention_block_example()),
        "depthwise-net" => Ok(bitfusion_dnn::modern::depthwise_net_example()),
        _ => find_benchmark(name).map(|b| b.model()).map_err(|_| {
            let names: Vec<String> = Benchmark::ALL
                .iter()
                .map(|b| b.name().to_lowercase())
                .chain(["attention-block".to_string(), "depthwise-net".to_string()])
                .collect();
            format!("unknown model `{name}` (expected one of: {})", names.join(", "))
        }),
    }
}

/// Resolves a benchmark name case-insensitively, or names every valid
/// choice in the error.
pub fn find_benchmark(name: &str) -> Result<Benchmark, String> {
    let needle = name.to_lowercase();
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().to_lowercase() == needle)
        .ok_or_else(|| {
            let names: Vec<String> = Benchmark::ALL
                .iter()
                .map(|b| b.name().to_lowercase())
                .collect();
            format!("unknown benchmark `{name}` (expected one of: {})", names.join(", "))
        })
}

/// The [`ArchConfig`] a preset names.
pub fn arch_config(preset: ArchPreset) -> ArchConfig {
    match preset {
        ArchPreset::Isca45nm => ArchConfig::isca_45nm(),
        ArchPreset::Gpu16nm => ArchConfig::gpu_16nm(),
        ArchPreset::StripesMatched => ArchConfig::stripes_matched(),
    }
}

fn arch_info(arch: &ArchConfig) -> ArchInfo {
    ArchInfo {
        name: arch.name.to_string(),
        rows: arch.rows as u64,
        cols: arch.cols as u64,
        ibuf_kb: (arch.ibuf_bytes / 1024) as u64,
        wbuf_kb: (arch.wbuf_bytes / 1024) as u64,
        obuf_kb: (arch.obuf_bytes / 1024) as u64,
        bandwidth_bits_per_cycle: arch.dram_bits_per_cycle as u64,
        freq_mhz: arch.freq_mhz as u64,
    }
}

fn energy_info(e: EnergyBreakdown) -> EnergyInfo {
    EnergyInfo {
        compute_pj: e.compute_pj,
        buffer_pj: e.buffer_pj,
        rf_pj: e.rf_pj,
        dram_pj: e.dram_pj,
    }
}

fn dse_reply(
    result: &DseResult,
    grid_points: usize,
    backend: BackendChoice,
    quants: Vec<String>,
) -> DseReply {
    // The comparison baseline: the fixed 8-bit datapath when explored
    // (the paper's heterogeneous-vs-uniform-8 headline), the first policy
    // otherwise. One policy alone has nothing to compare against.
    let speedup_baseline = if quants.len() < 2 {
        None
    } else if quants.iter().any(|q| q == "uniform8") {
        Some("uniform8".to_string())
    } else {
        Some(quants[0].clone())
    };
    let quant_speedups = match &speedup_baseline {
        None => Vec::new(),
        Some(baseline) => result
            .quant_speedups_vs(baseline)
            .into_iter()
            .map(|s| QuantSpeedupInfo {
                model: s.model,
                quant: s.quant,
                speedup: s.speedup,
                energy_ratio: s.energy_ratio,
            })
            .collect(),
    };
    DseReply {
        backend,
        quants,
        speedup_baseline,
        quant_speedups,
        grid_points: grid_points as u64,
        points: result.points.len() as u64,
        infeasible: result.infeasible.len() as u64,
        infeasible_sample: result
            .infeasible
            .iter()
            .take(3)
            .map(|p| InfeasibleInfo {
                model: p.model_name.clone(),
                arch: p.arch.to_string(),
                error: p.error.to_string(),
            })
            .collect(),
        // Spec-level sharing (deterministic), not cache-state counters: a
        // serve session with a warm cache must answer byte-identically to a
        // cold one-shot invocation.
        compile_hits: result.spec_compile_hits(),
        compile_misses: result.compile_unique,
        layer_hits: result.spec_layer_hits(),
        layer_misses: result.layer_unique,
        frontier: result
            .pareto_frontier()
            .iter()
            .map(|s| FrontierPoint {
                arch: arch_info(&s.arch),
                quant: s.quant.clone(),
                cycles: s.total_cycles,
                energy_pj: s.total_energy_pj,
                area_mm2: s.area_mm2,
                bandwidth_starved: s.stalls.bandwidth_starved,
                compute_starved: s.stalls.compute_starved,
            })
            .collect(),
    }
}

/// Chip area of an architecture under the session's node — re-exported
/// convenience for renderers.
pub fn chip_area_mm2(arch: &ArchConfig, options: &SimOptions) -> f64 {
    ChipArea::of(arch, options.node).chip_mm2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion_sim::BitFusionSim;

    #[test]
    fn dse_workers_are_capped_at_the_core_count() {
        let cores = default_workers();
        assert_eq!(dse_workers(0), 0, "0 keeps meaning every core");
        assert_eq!(dse_workers(1), 1);
        assert_eq!(dse_workers(4096), cores.min(4096));
        assert_eq!(dse_workers(u64::MAX), cores);
    }

    #[test]
    fn over_cap_dse_is_refused_before_enumeration() {
        // 20 000 × 20 000 candidate rows × cols (4 × 10^8 grid points from
        // a 218 KB request line) is refused from its candidate lists; the
        // reply is an error, not an allocation.
        let params = DseParams {
            rows: (1..=20_000).collect(),
            cols: (1..=20_000).collect(),
            networks: Some(vec!["lstm".to_string()]),
            ..DseParams::default()
        };
        let err = Session::new().dse(&params).unwrap_err();
        assert!(
            err.starts_with("design space has ") && err.ends_with(", over the cap of 16384"),
            "{err}"
        );
    }

    #[test]
    fn dse_over_the_layer_cap_is_refused_before_compiling() {
        // Sixteen ResNet-18s (31 layers each) on 1 024 geometries: 16 384
        // points, at the point cap, but 507 904 layers. The reply is an
        // error, not a compilation.
        let params = DseParams {
            rows: (1..=1 << 10).collect(),
            cols: vec![16],
            bandwidth: vec![128],
            networks: Some(vec!["resnet-18".to_string(); 16]),
            ..DseParams::default()
        };
        let err = Session::new().dse(&params).unwrap_err();
        assert_eq!(
            err,
            "design space has 507904 layer evaluations, over the cap of 262144"
        );
    }

    #[test]
    fn report_matches_direct_simulation() {
        let session = Session::new();
        let resp = session.handle(&Request::Report {
            model: ModelSource::zoo("lstm"),
            batch: 16,
            bandwidth: None,
            arch: ArchPreset::Isca45nm,
            backend: None,
            quant: None,
        });
        let direct = BitFusionSim::new(ArchConfig::isca_45nm())
            .run(&Benchmark::Lstm.model(), 16)
            .unwrap();
        match resp {
            Response::Report(r) => {
                assert_eq!(r.cycles, direct.total_cycles());
                assert_eq!(r.macs, direct.total_macs());
                assert_eq!(r.dram_bits, direct.total_dram_bits());
                assert_eq!(r.benchmark, "LSTM");
                assert_eq!(r.layers.len(), direct.layers.len());
                assert!(
                    (r.energy_per_input.total_pj()
                        - direct.energy_per_input().total_pj())
                    .abs()
                        < 1e-9
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn counts_above_i64_max_reach_the_wire_exactly() {
        // AlexNet at batch 2^32 does ~1.15e19 MACs, past i64::MAX.
        let batch = 1 << 32;
        let reply = Session::new()
            .handle(&Request::Report {
                model: ModelSource::zoo("alexnet"),
                batch,
                bandwidth: None,
                arch: ArchPreset::Isca45nm,
                backend: None,
                quant: None,
            })
            .encode();
        let direct = BitFusionSim::new(ArchConfig::isca_45nm())
            .run(&Benchmark::AlexNet.model(), batch)
            .unwrap();
        assert!(direct.total_macs() > i64::MAX as u64);
        let doc = crate::json::parse(&reply).unwrap();
        let macs = doc.get("macs").and_then(crate::json::Json::as_u64);
        assert_eq!(macs, Some(direct.total_macs()), "{reply}");
    }

    #[test]
    fn repeated_requests_are_byte_identical_and_warm() {
        let session = Session::new();
        let req = Request::Report {
            model: ModelSource::zoo("rnn"),
            batch: 4,
            bandwidth: Some(256),
            arch: ArchPreset::Isca45nm,
            backend: Some(BackendChoice::Event),
            quant: None,
        };
        let first = session.handle(&req).encode();
        let misses_after_first = session.cache_stats().misses;
        let second = session.handle(&req).encode();
        assert_eq!(first, second);
        assert_eq!(session.cache_stats().misses, misses_after_first, "no recompile");
        assert!(session.cache_stats().hits > 0);
    }

    #[test]
    fn commands_share_one_artifact() {
        // report, asm and the bandwidth sweep at the same key compile once.
        let session = Session::new();
        session.handle(&Request::Report {
            model: ModelSource::zoo("rnn"),
            batch: 16,
            bandwidth: None,
            arch: ArchPreset::Isca45nm,
            backend: None,
            quant: None,
        });
        assert_eq!(session.cache_stats().misses, 1);
        session.handle(&Request::Asm {
            model: ModelSource::zoo("rnn"),
            batch: 16,
            arch: ArchPreset::Isca45nm,
            layer: None,
        });
        assert_eq!(session.cache_stats().misses, 1, "asm reused the report's plan");
        // The bandwidth sweep shares the same geometry key too.
        session.handle(&Request::Sweep {
            model: ModelSource::zoo("rnn"),
            axis: SweepAxis::Bandwidth,
            backend: None,
            quant: None,
        });
        assert_eq!(
            session.cache_stats().misses,
            1,
            "bandwidth axis reused the same artifact"
        );
    }

    #[test]
    fn layer_tier_warms_across_commands_without_changing_bytes() {
        let session = Session::new();
        let req = Request::Report {
            model: ModelSource::zoo("resnet-18"),
            batch: 16,
            bandwidth: None,
            arch: ArchPreset::Isca45nm,
            backend: None,
            quant: None,
        };
        let first = session.handle(&req).encode();
        let stats = session.layer_cache_stats();
        assert!(stats.misses > 0, "cold layer cache must evaluate");
        assert!(
            stats.hits > 0,
            "ResNet-18 repeats basic blocks within one plan: {stats:?}"
        );
        // The reply reports spec-level sharing and names the tier.
        assert!(first.contains(r#""layer_cache":{"hits":"#), "{first}");
        let second = session.handle(&req).encode();
        assert_eq!(first, second, "layer-cache warmth must never change bytes");
        assert_eq!(
            session.layer_cache_stats().misses,
            stats.misses,
            "warm repeat evaluates nothing new"
        );
    }

    #[test]
    fn sweep_and_dse_replies_carry_layer_counters() {
        let session = Session::new();
        match session.handle(&Request::Sweep {
            model: ModelSource::zoo("resnet-18"),
            axis: SweepAxis::Bandwidth,
            backend: None,
            quant: None,
        }) {
            Response::Sweep(r) => {
                assert!(r.layer_misses > 0);
                assert!(
                    r.layer_hits > 0,
                    "repeated shapes across the sweep: {} hits / {} misses",
                    r.layer_hits,
                    r.layer_misses
                );
            }
            other => panic!("{other:?}"),
        }
        let params = DseParams {
            rows: vec![16],
            cols: vec![16],
            bandwidth: vec![128],
            batches: vec![16],
            networks: Some(vec!["resnet-18".into()]),
            workers: 1,
            ..DseParams::default()
        };
        match session.handle(&Request::Dse(params)) {
            Response::Dse(r) => {
                assert!(r.layer_misses > 0);
                assert!(r.layer_hits > 0, "{r:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    const BACKENDS: [BackendChoice; 2] = [BackendChoice::Analytic, BackendChoice::Event];

    /// A zoo network's sweep reply on `backend`.
    fn sweep_of(
        session: &Session,
        net: &str,
        axis: SweepAxis,
        backend: BackendChoice,
        quant: Option<&str>,
    ) -> SweepReply {
        match session.handle(&Request::Sweep {
            model: ModelSource::zoo(net),
            axis,
            backend: Some(backend),
            quant: quant.map(str::to_string),
        }) {
            Response::Sweep(r) => r,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bandwidth_speedups_rise_from_the_baseline() {
        assert_bandwidth_speedups_rise(BackendChoice::Analytic);
    }

    #[test]
    fn event_backend_bandwidth_speedups_rise_from_the_baseline() {
        assert_bandwidth_speedups_rise(BackendChoice::Event);
    }

    /// The RNN bandwidth sweep on `backend` reads 1.0 at the baseline,
    /// rises with bandwidth, and is slower below and faster above it.
    fn assert_bandwidth_speedups_rise(backend: BackendChoice) {
        let r = sweep_of(&Session::new(), "rnn", SweepAxis::Bandwidth, backend, None);
        assert_eq!(r.baseline, u64::from(SWEEP_BANDWIDTH_BASELINE));
        let speedups: Vec<f64> = r.points.iter().map(|p| p.speedup).collect();
        let base = r.points.iter().find(|p| p.value == r.baseline).unwrap();
        assert_eq!(base.speedup, 1.0, "{backend:?}");
        assert!(
            speedups.windows(2).all(|w| w[0] <= w[1]),
            "{backend:?}: {speedups:?}"
        );
        assert!(
            speedups[0] < 1.0,
            "{backend:?}: 32 b/cyc is slower: {speedups:?}"
        );
        assert!(
            speedups[4] > 1.0,
            "{backend:?}: 512 b/cyc is faster: {speedups:?}"
        );
    }

    #[test]
    fn per_input_speedup_grows_with_batch() {
        for backend in BACKENDS {
            let r = sweep_of(&Session::new(), "lstm", SweepAxis::Batch, backend, None);
            assert_eq!(r.baseline, SWEEP_BATCH_BASELINE);
            let at = |batch| r.points.iter().find(|p| p.value == batch).unwrap().speedup;
            assert_eq!(at(1), 1.0, "{backend:?}");
            assert!(at(16) > 2.0, "{backend:?}: {:?}", r.points);
        }
    }

    #[test]
    fn sweep_points_follow_the_axis_order() {
        for backend in BACKENDS {
            let session = Session::new();
            let values = |axis| -> Vec<u64> {
                let r = sweep_of(&session, "lstm", axis, backend, None);
                r.points.iter().map(|p| p.value).collect()
            };
            assert_eq!(
                values(SweepAxis::Bandwidth),
                SWEEP_BANDWIDTHS.map(u64::from)
            );
            assert_eq!(values(SweepAxis::Batch), SWEEP_BATCHES);
        }
    }

    #[test]
    fn tiered_sweep_misses_its_reply_and_warms() {
        // The contract the benchmark's traced mirror checks: a cold sweep
        // evaluates each of its unique layer keys once through the tier,
        // and a warm repeat evaluates nothing.
        for backend in BACKENDS {
            for axis in [SweepAxis::Bandwidth, SweepAxis::Batch] {
                let session = Session::new();
                let cold = sweep_of(&session, "resnet-18", axis, backend, None);
                assert!(cold.layer_hits > 0, "{backend:?}: ResNet-18 repeats shapes");
                let misses = session.layer_cache_stats().misses;
                assert_eq!(misses, cold.layer_misses, "{backend:?}/{axis:?}: cold");
                let warm = sweep_of(&session, "resnet-18", axis, backend, None);
                assert_eq!(
                    session.layer_cache_stats().misses,
                    misses,
                    "{backend:?}/{axis:?}: warm adds no miss"
                );
                assert_eq!(
                    Response::Sweep(warm).encode(),
                    Response::Sweep(cold).encode(),
                    "{backend:?}/{axis:?}: warmth must never change bytes"
                );
            }
        }
    }

    #[test]
    fn sweep_counters_sum_the_reports_at_each_swept_value() {
        for (backend, quant) in BACKENDS.into_iter().zip([None, Some("uniform2")]) {
            let session = Session::new();
            let report = |batch, bandwidth| match session.handle(&Request::Report {
                model: ModelSource::zoo("resnet-18"),
                batch,
                bandwidth,
                arch: ArchPreset::Isca45nm,
                backend: Some(backend),
                quant: quant.map(str::to_string),
            }) {
                Response::Report(r) => r,
                other => panic!("{other:?}"),
            };
            let axes: [(SweepAxis, Vec<ReportReply>); 2] = [
                (
                    SweepAxis::Bandwidth,
                    SWEEP_BANDWIDTHS
                        .map(|bw| report(SWEEP_BANDWIDTH_BATCH, Some(bw)))
                        .into(),
                ),
                (
                    SweepAxis::Batch,
                    SWEEP_BATCHES.map(|batch| report(batch, None)).into(),
                ),
            ];
            for (axis, reports) in axes {
                let sweep = sweep_of(&session, "resnet-18", axis, backend, quant);
                let sum = |count: fn(&ReportReply) -> u64| reports.iter().map(count).sum::<u64>();
                assert_eq!(
                    sweep.layer_hits,
                    sum(|r| r.layer_hits),
                    "{quant:?}/{axis:?}"
                );
                assert_eq!(
                    sweep.layer_misses,
                    sum(|r| r.layer_misses),
                    "{quant:?}/{axis:?}"
                );
                let cycles: Vec<u64> = sweep.points.iter().map(|p| p.cycles).collect();
                let want: Vec<u64> = reports.iter().map(|r| r.cycles).collect();
                assert_eq!(cycles, want, "{quant:?}/{axis:?}: each point is a report");
            }
        }
    }

    #[test]
    fn errors_are_responses_not_panics() {
        let session = Session::new();
        for req in [
            Request::Report {
                model: ModelSource::zoo("nope"),
                batch: 16,
                bandwidth: None,
                arch: ArchPreset::Isca45nm,
                backend: None,
                quant: None,
            },
            Request::Asm {
                model: ModelSource::zoo("rnn"),
                batch: 1,
                arch: ArchPreset::Isca45nm,
                layer: Some("no-such-layer".into()),
            },
        ] {
            match session.handle(&req) {
                Response::Error { message } => {
                    assert!(!message.is_empty());
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn compare_beats_the_baselines() {
        let session = Session::new();
        match session.handle(&Request::Compare {
            model: ModelSource::zoo("cifar-10"),
            batch: 16,
            backend: None,
            quant: None,
        }) {
            Response::Compare(r) => {
                assert_eq!(r.baselines.len(), 3);
                for b in &r.baselines {
                    assert!(b.speedup > 1.0, "{}: {}", b.name, b.speedup);
                }
                assert!(r.baselines[0].energy_ratio.unwrap() > 1.0);
                assert!(r.baselines[2].energy_ratio.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dse_reply_reports_spec_level_sharing() {
        let session = Session::new();
        let params = DseParams {
            rows: vec![16, 32],
            cols: vec![16],
            bandwidth: vec![64, 128],
            batches: vec![16],
            networks: Some(vec!["lstm".into(), "rnn".into()]),
            workers: 1,
            ..DseParams::default()
        };
        let first = session.handle(&Request::Dse(params.clone())).encode();
        // Warm cache: the reply must not change.
        let second = session.handle(&Request::Dse(params)).encode();
        assert_eq!(first, second);
        // 4 archs × 2 nets = 8 points; 2 geometries × 2 nets = 4 compiles.
        assert!(first.contains(r#""compile":{"hits":4,"misses":4}"#), "{first}");
    }

    #[test]
    fn dse_reply_names_infeasible_corners() {
        let session = Session::new();
        let params = DseParams {
            // A 512x512 array with 3 KB of SRAM: no tiling fits.
            rows: vec![512],
            cols: vec![512],
            ibuf_kb: vec![1],
            wbuf_kb: vec![1],
            obuf_kb: vec![1],
            bandwidth: vec![128],
            batches: vec![4],
            networks: Some(vec!["svhn".into()]),
            workers: 1,
            ..DseParams::default()
        };
        match session.handle(&Request::Dse(params)) {
            Response::Dse(r) => {
                assert_eq!(r.infeasible, 1);
                assert_eq!(r.infeasible_sample.len(), 1);
                let p = &r.infeasible_sample[0];
                assert_eq!(p.model, "SVHN");
                assert!(!p.arch.is_empty());
                assert!(p.error.contains("no tiling"), "{p:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn options_thread_through_reports() {
        let slow = Session::new().with_options(SimOptions {
            systolic_efficiency: 0.5,
            ..SimOptions::default()
        });
        let fast = Session::new();
        let req = Request::Report {
            model: ModelSource::zoo("vgg-7"),
            batch: 4,
            bandwidth: None,
            arch: ArchPreset::Isca45nm,
            backend: None,
            quant: None,
        };
        let (Response::Report(a), Response::Report(b)) = (slow.handle(&req), fast.handle(&req))
        else {
            panic!("expected reports");
        };
        assert!(a.cycles > b.cycles, "lower efficiency must cost cycles");
    }
}
