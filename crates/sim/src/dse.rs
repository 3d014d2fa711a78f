//! Sharded design-space exploration (DSE): a cartesian
//! [`ArchGrid`] × network × batch sweep, sharded across `std::thread`
//! workers, reduced into Pareto frontiers over (cycles, energy, area).
//!
//! The paper's own evaluation is a design-space walk — array geometry
//! (Figure 10), off-chip bandwidth (Figure 15), and batch size (Figure 16)
//! all swept to locate the 16×16 Fusion Unit sweet spot — and the
//! composability design space is large enough that follow-on work explores
//! it systematically. This module makes that exploration a first-class,
//! parallel operation:
//!
//! * **grid semantics** — a [`DseSpec`] crosses an [`ArchGrid`] (rows ×
//!   cols × scratchpad capacities × DRAM bandwidth) with a model list,
//!   quantization policies ([`QuantSpec`] — the axis the paper is about),
//!   and batch sizes. Points are enumerated in a deterministic nested
//!   order (models, then quant specs, then batches, then grid
//!   configurations with bandwidth innermost);
//! * **memoized compilation** — compilation depends only on
//!   `(model, batch, geometry, buffers)`, *not* on bandwidth or frequency,
//!   and dominates sweep cost. Each quantized variant is fused, and its
//!   groups' GEMM views built, once per batch ([`gemm_groups`]); each
//!   unique (GEMM view, post-ops, geometry) is then tiled and lowered
//!   once ([`plan_layer`]), so a 5-point bandwidth axis costs one
//!   compilation, not five, and a repeated layer shape one tile search.
//!   No plan outlives the run: the session's
//!   [`ArtifactCache`] is neither read nor filled, so a session that
//!   repeats a grid compiles it again. [`DseResult::compile_unique`]
//!   counts the artifacts a per-point run would compile;
//! * **memoized evaluation** — a layer's result depends on its GEMM view,
//!   post-ops, the compile key (batch and geometry) and the bandwidth.
//!   The per-run job table has one job per (GEMM view, post-ops, compile
//!   key) — the identity [`layer_fingerprint`] gives after compilation —
//!   carrying every bandwidth its points need, so a repeated shape
//!   (within a network, across duplicate models or aliasing quant specs)
//!   is evaluated once, and once for its whole bandwidth axis through
//!   [`SimBackend::evaluate_layer_bandwidths`] (the event backend builds
//!   the layer's segment program once and replays it per bandwidth).
//!   The layer tier ([`crate::layer_cache`]) is not read.
//!   [`DseResult::layer_evals`] / [`DseResult::layer_unique`] report the
//!   spec-level sharing;
//! * **totals-only points** — each [`DsePoint`] keeps the workload's
//!   cycles, energy and stall totals, folded from the job results by
//!   index in layer order (so they equal a per-point
//!   [`PerfReport`](crate::stats::PerfReport)'s totals bit for bit), with
//!   no per-layer copy and no lock per layer;
//! * **worker model** — one [`crate::pool::map_indexed`] call shards the
//!   jobs, each tiling, lowering and evaluating its layer, with the calling
//!   thread working as one of the workers; there is no barrier between
//!   compilation and evaluation. Results land in index order, so the
//!   output — and every Pareto frontier derived from it — is bit-identical
//!   for any worker count. The serial steps' tables hash with the repo's
//!   FNV-1a ([`FnvBuildHasher`]);
//! * **reduction** — per-architecture aggregation over the whole workload
//!   suite ([`DseResult::arch_summaries`]) and the non-dominated subset
//!   ([`DseResult::pareto_frontier`]) over minimized
//!   (total cycles, total energy, chip area), with per-point stall
//!   attribution from whichever [`SimBackend`] ran the evaluation.
//!
//! The Figure 15/16 sweeps (the service session's `sweep`) do not use
//! this engine: they take the `report` path once per point. See
//! `DESIGN.md`, "Design-space exploration".
//!
//! [`layer_fingerprint`]: bitfusion_compiler::layer_fingerprint

use std::collections::HashMap;

use bitfusion_compiler::{
    gemm_groups, plan_layer, ArtifactCache, CompileError, FnvBuildHasher, GemmGroup, GemmLayer,
    PostOp,
};
use bitfusion_core::arch::ArchConfig;
use bitfusion_core::error::CoreError;
use bitfusion_core::grid::ArchGrid;
use bitfusion_dnn::model::Model;
use bitfusion_dnn::quantspec::QuantSpec;
use bitfusion_dnn::zoo::Benchmark;
use bitfusion_energy::{ChipArea, EnergyBreakdown, FusionEnergy};

use crate::backend::SimBackend;
use crate::engine::SimOptions;
use crate::layer_cache::LayerPerfCache;
use crate::pool::map_indexed;
use crate::stats::{LayerPerf, StallBreakdown};

/// The workload × architecture space one exploration covers.
#[derive(Debug, Clone)]
pub struct DseSpec {
    /// Architectural grid (cartesian product of candidate lists).
    pub grid: ArchGrid,
    /// Networks to run at every grid point.
    pub models: Vec<Model>,
    /// Quantization policies each network runs under (applied on top of
    /// its paper assignment; [`QuantSpec::paper`] keeps it).
    pub quant_specs: Vec<QuantSpec>,
    /// Batch sizes to run each network at.
    pub batches: Vec<u64>,
    /// Calibration knobs shared by every evaluation.
    pub options: SimOptions,
}

impl DseSpec {
    /// A spec covering the full eight-network zoo on `grid` at `batches`,
    /// at the paper quantization.
    pub fn zoo(grid: ArchGrid, batches: Vec<u64>) -> Self {
        DseSpec {
            grid,
            models: Benchmark::ALL.iter().map(|b| b.model()).collect(),
            quant_specs: vec![QuantSpec::paper()],
            batches,
            options: SimOptions::default(),
        }
    }

    /// Total points (grid size × models × quant specs × batches), or
    /// `None` when that does not fit a `usize`.
    pub fn len(&self) -> Option<usize> {
        [
            self.models.len(),
            self.quant_specs.len(),
            self.batches.len(),
        ]
        .into_iter()
        .try_fold(self.grid.len()?, usize::checked_mul)
    }

    /// Whether the spec enumerates no points.
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
            || self.models.is_empty()
            || self.quant_specs.is_empty()
            || self.batches.is_empty()
    }

    /// The point count, if it is at most [`MAX_DSE_POINTS`]: the check a
    /// request's spec passes before anything is enumerated.
    ///
    /// # Errors
    ///
    /// [`TooManyPoints`] when the count is over the cap or overflows.
    pub fn points_within_cap(&self) -> Result<usize, TooManyPoints> {
        match self.len() {
            Some(points) if points <= MAX_DSE_POINTS => Ok(points),
            points => Err(TooManyPoints { points }),
        }
    }

    /// Model layers summed over every point — grid size × quant specs ×
    /// batches × the models' summed layer counts — or `None` when that
    /// does not fit a `usize`. A compiled plan has at most one group per
    /// model layer, so this bounds the layer evaluations an exploration
    /// requests, from the spec alone.
    pub fn layer_count(&self) -> Option<usize> {
        let layers = self
            .models
            .iter()
            .try_fold(0, |n: usize, m| n.checked_add(m.layers.len()))?;
        [self.quant_specs.len(), self.batches.len(), layers]
            .into_iter()
            .try_fold(self.grid.len()?, usize::checked_mul)
    }

    /// The [`DseSpec::layer_count`], if it is at most [`MAX_DSE_LAYERS`]:
    /// the second check a request's spec passes before anything compiles.
    ///
    /// # Errors
    ///
    /// [`TooManyLayers`] when the count is over the cap or overflows.
    pub fn layers_within_cap(&self) -> Result<usize, TooManyLayers> {
        match self.layer_count() {
            Some(layers) if layers <= MAX_DSE_LAYERS => Ok(layers),
            layers => Err(TooManyLayers { layers }),
        }
    }

    /// Workloads (model × batch combinations) per architecture and quant
    /// spec — the unit over which (architecture, quantization) candidates
    /// are aggregated and compared.
    pub fn workloads(&self) -> usize {
        self.models.len() * self.batches.len()
    }
}

/// Most points one requested exploration may cover (`Session::dse`
/// refuses a larger spec before enumerating it). The largest grid the
/// README, CI and perfbench run is 192 points. A whole-zoo grid at the cap
/// takes 0.15–0.21 s (analytic) or 0.29–0.31 s (event) and ~44 MB peak
/// RSS as a one-shot process on 2 vCPUs; four times the cap took ~540 MB
/// when explore still kept every plan.
pub const MAX_DSE_POINTS: usize = 1 << 14;

/// A spec over [`MAX_DSE_POINTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyPoints {
    /// The spec's point count, or `None` when it overflows a `usize`.
    pub points: Option<usize>,
}

impl std::fmt::Display for TooManyPoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.points {
            Some(points) => write!(f, "design space has {points} points"),
            None => write!(f, "design space point count overflows"),
        }?;
        write!(f, ", over the cap of {MAX_DSE_POINTS}")
    }
}

impl std::error::Error for TooManyPoints {}

/// Most model layers summed over the points of one requested exploration
/// ([`DseSpec::layer_count`]; `Session::dse` refuses a larger spec before
/// compiling). A whole-zoo grid at [`MAX_DSE_POINTS`] has 178 176 (the
/// zoo's 87 layers × 2 048 points per network), and the largest grid the
/// README, CI and perfbench run has 2 349, so at the point cap the layer
/// cap binds only on networks that average more than 16 layers. See
/// `DESIGN.md`, "Bounded requests".
pub const MAX_DSE_LAYERS: usize = 1 << 18;

/// A spec over [`MAX_DSE_LAYERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyLayers {
    /// The spec's layer count, or `None` when it overflows a `usize`.
    pub layers: Option<usize>,
}

impl std::fmt::Display for TooManyLayers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.layers {
            Some(layers) => write!(f, "design space has {layers} layer evaluations"),
            None => write!(f, "design space layer count overflows"),
        }?;
        write!(f, ", over the cap of {MAX_DSE_LAYERS}")
    }
}

impl std::error::Error for TooManyLayers {}

/// One evaluated point of the exploration: where it ran and the
/// workload's totals over the plan's layers. Per-layer detail is not kept
/// (the reductions read only totals); run the point through
/// [`crate::BitFusionSim::run_plan`] for a per-layer [`PerfReport`].
///
/// [`PerfReport`]: crate::stats::PerfReport
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// The architecture of this grid point.
    pub arch: ArchConfig,
    /// Network name.
    pub model_name: String,
    /// Quantization policy the network ran under (canonical spelling).
    pub quant: String,
    /// Batch size.
    pub batch: u64,
    /// Total cycles for the workload at this point.
    pub cycles: u64,
    /// Energy for the workload by component, in pJ, summed in layer order
    /// (bit-identical to [`PerfReport::total_energy`]).
    ///
    /// [`PerfReport::total_energy`]: crate::stats::PerfReport::total_energy
    pub energy: EnergyBreakdown,
    /// Stall attribution summed over the layers.
    pub stalls: StallBreakdown,
    /// Whole-chip area of the architecture at the evaluated node, in mm².
    pub area_mm2: f64,
}

impl DsePoint {
    /// Total energy for the workload at this point, in pJ.
    pub fn energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }
}

/// A point the engine could not evaluate: the configuration failed
/// validation or the network does not compile onto it (e.g. scratchpads too
/// small for any tiling).
#[derive(Debug, Clone)]
pub struct InfeasiblePoint {
    /// The architecture of the failed point.
    pub arch: ArchConfig,
    /// Network name.
    pub model_name: String,
    /// Quantization policy of the failed point.
    pub quant: String,
    /// Batch size.
    pub batch: u64,
    /// Why the point is infeasible.
    pub error: PointError,
}

/// Why a DSE point could not be evaluated.
#[derive(Debug, Clone)]
pub enum PointError {
    /// The grid point fails [`ArchConfig::validate`].
    InvalidConfig(bitfusion_core::error::CoreError),
    /// The quant spec does not apply to the network (a layer override
    /// naming no layer of it).
    Quant(String),
    /// The network does not compile onto the configuration.
    Compile(CompileError),
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            PointError::Quant(e) => write!(f, "quantization failed: {e}"),
            PointError::Compile(e) => write!(f, "compilation failed: {e}"),
        }
    }
}

/// Aggregate of one (architecture, quantization) candidate over every
/// workload in the spec.
#[derive(Debug, Clone)]
pub struct ArchSummary {
    /// The architecture.
    pub arch: ArchConfig,
    /// Quantization policy of this candidate (canonical spelling).
    pub quant: String,
    /// Whole-chip area in mm².
    pub area_mm2: f64,
    /// Cycles summed over all workloads.
    pub total_cycles: u64,
    /// Energy summed over all workloads, in pJ.
    pub total_energy_pj: f64,
    /// Stall attribution summed over all workloads.
    pub stalls: StallBreakdown,
    /// Workloads evaluated on this architecture (summaries with fewer than
    /// the spec's full workload count are excluded from the frontier — an
    /// architecture that cannot run the whole suite is not comparable).
    pub workloads: usize,
}

impl ArchSummary {
    /// Whether `self` Pareto-dominates `other`: no worse on every minimized
    /// axis (cycles, energy, area) and strictly better on at least one.
    /// Candidates are (architecture, quantization) pairs, so a
    /// heterogeneous-bitwidth policy can dominate a uniform one on the
    /// same silicon (same area, fewer cycles, less energy).
    pub fn dominates(&self, other: &ArchSummary) -> bool {
        let no_worse = self.total_cycles <= other.total_cycles
            && self.total_energy_pj <= other.total_energy_pj
            && self.area_mm2 <= other.area_mm2;
        let better = self.total_cycles < other.total_cycles
            || self.total_energy_pj < other.total_energy_pj
            || self.area_mm2 < other.area_mm2;
        no_worse && better
    }
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Backend that ran the evaluations.
    pub backend: &'static str,
    /// Evaluated points, in deterministic spec order.
    pub points: Vec<DsePoint>,
    /// Points that failed validation or compilation, in spec order.
    pub infeasible: Vec<InfeasiblePoint>,
    /// Workloads per architecture the spec asked for.
    pub workloads_expected: usize,
    /// Unique artifacts (model, batch, compile-relevant architecture
    /// fields — an [`ArtifactKey`](bitfusion_compiler::ArtifactKey)) the
    /// compilable points resolve to: the plans a per-point run would
    /// compile once each.
    pub compile_unique: u64,
    /// Layer evaluations the run's evaluated points requested (every layer
    /// of every point that reached a compiled plan).
    pub layer_evals: u64,
    /// Unique [`LayerKey`](bitfusion_compiler::LayerKey)s (layer, compile
    /// key, bandwidth) those evaluations resolve to — the layer results
    /// the run actually computes. Deterministic for a given spec, so
    /// protocol responses report layer sharing in terms of this.
    pub layer_unique: u64,
}

impl DseResult {
    /// Per-(architecture, quantization) aggregates over the workload
    /// suite, in point order (models outermost, bandwidth innermost).
    pub fn arch_summaries(&self) -> Vec<ArchSummary> {
        let mut order: Vec<ArchSummary> = Vec::new();
        let mut index: HashMap<(ArchKey, &str), usize, FnvBuildHasher> = HashMap::default();
        for p in &self.points {
            let i = *index
                .entry((ArchKey::of(&p.arch), p.quant.as_str()))
                .or_insert_with(|| {
                    order.push(ArchSummary {
                        arch: p.arch.clone(),
                        quant: p.quant.clone(),
                        area_mm2: p.area_mm2,
                        total_cycles: 0,
                        total_energy_pj: 0.0,
                        stalls: StallBreakdown::default(),
                        workloads: 0,
                    });
                    order.len() - 1
                });
            let s = &mut order[i];
            s.total_cycles += p.cycles;
            s.total_energy_pj += p.energy_pj();
            s.stalls += p.stalls;
            s.workloads += 1;
        }
        order
    }

    /// Points that reached the compiler: evaluated points plus
    /// compile-failed corners (invalid configurations are filtered before
    /// compilation and never get that far).
    pub fn compilable_points(&self) -> u64 {
        self.points.len() as u64
            + self
                .infeasible
                .iter()
                .filter(|p| matches!(p.error, PointError::Compile(_)))
                .count() as u64
    }

    /// Spec-level compile sharing: compilable points served by an
    /// artifact another point of the same run also resolves to. The typed
    /// protocol reports this, so responses depend on the spec alone.
    pub fn spec_compile_hits(&self) -> u64 {
        self.compilable_points() - self.compile_unique
    }

    /// Spec-level layer sharing, independent of cache warmth: layer
    /// evaluations answered by a key some other layer of the same run also
    /// resolves to — repeated shapes within a network (ResNet basic
    /// blocks), duplicate models, and aliasing quant specs. The typed
    /// protocol reports this for the same reason as
    /// [`DseResult::spec_compile_hits`].
    pub fn spec_layer_hits(&self) -> u64 {
        self.layer_evals - self.layer_unique
    }

    /// The Pareto frontier over (total cycles, total energy, area):
    /// non-dominated (architecture, quantization) candidates that
    /// completed the full workload suite, in summary order.
    pub fn pareto_frontier(&self) -> Vec<ArchSummary> {
        let complete: Vec<ArchSummary> = self
            .arch_summaries()
            .into_iter()
            .filter(|s| s.workloads == self.workloads_expected)
            .collect();
        complete
            .iter()
            .filter(|candidate| !complete.iter().any(|other| other.dominates(candidate)))
            .cloned()
            .collect()
    }

    /// Per-(model, quantization) aggregates over every architecture and
    /// batch, in point order — the projection that compares quantization
    /// policies per network.
    pub fn quant_summaries(&self) -> Vec<QuantSummary> {
        let mut order: Vec<QuantSummary> = Vec::new();
        let mut index: HashMap<(&str, &str), usize, FnvBuildHasher> = HashMap::default();
        for p in &self.points {
            let key = (p.model_name.as_str(), p.quant.as_str());
            let i = *index.entry(key).or_insert_with(|| {
                order.push(QuantSummary {
                    model: p.model_name.clone(),
                    quant: p.quant.clone(),
                    total_cycles: 0,
                    total_energy_pj: 0.0,
                    workloads: 0,
                });
                order.len() - 1
            });
            let s = &mut order[i];
            s.total_cycles += p.cycles;
            s.total_energy_pj += p.energy_pj();
            s.workloads += 1;
        }
        order
    }

    /// Per-network speedup of every quantization against `baseline`
    /// (e.g. `uniform8`): `baseline cycles / candidate cycles` summed over
    /// the same architectures and batches. Entries keep summary order;
    /// the baseline itself and any (model, quant) pair whose evaluated
    /// workload set differs from the baseline's (an infeasible corner on
    /// one side would skew the ratio) are omitted.
    pub fn quant_speedups_vs(&self, baseline: &str) -> Vec<QuantSpeedup> {
        let summaries = self.quant_summaries();
        let mut out = Vec::new();
        for s in &summaries {
            if s.quant == baseline {
                continue;
            }
            let Some(base) = summaries
                .iter()
                .find(|b| b.quant == baseline && b.model == s.model)
            else {
                continue;
            };
            if base.workloads != s.workloads || s.total_cycles == 0 {
                continue;
            }
            out.push(QuantSpeedup {
                model: s.model.clone(),
                quant: s.quant.clone(),
                speedup: base.total_cycles as f64 / s.total_cycles as f64,
                energy_ratio: if s.total_energy_pj > 0.0 {
                    base.total_energy_pj / s.total_energy_pj
                } else {
                    1.0
                },
            });
        }
        out
    }
}

/// Aggregate of one (model, quantization) pair over every architecture
/// and batch of an exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSummary {
    /// Network name.
    pub model: String,
    /// Quantization policy (canonical spelling).
    pub quant: String,
    /// Cycles summed over every evaluated (architecture, batch).
    pub total_cycles: u64,
    /// Energy summed over every evaluated (architecture, batch), in pJ.
    pub total_energy_pj: f64,
    /// Points aggregated.
    pub workloads: usize,
}

/// One entry of [`DseResult::quant_speedups_vs`]: how much faster (and
/// how much less energy) a quantization policy is than the baseline on
/// one network — the paper's heterogeneous-vs-fixed-bitwidth benefit.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSpeedup {
    /// Network name.
    pub model: String,
    /// The candidate quantization policy.
    pub quant: String,
    /// `baseline cycles / candidate cycles` (> 1 means faster).
    pub speedup: f64,
    /// `baseline energy / candidate energy` (> 1 means less energy).
    pub energy_ratio: f64,
}

/// The compile-relevant part of a point: its batch and every
/// [`ArchConfig`] field tiling reads — the same fields as an
/// [`ArtifactKey`](bitfusion_compiler::ArtifactKey) minus the model.
/// Paired with a quantized-model variant's family it is the in-run
/// artifact identity, so per-point dedup never re-fingerprints a model.
/// Paired with a group's GEMM view and post-ops it is a job: every
/// [`LayerKey`](bitfusion_compiler::LayerKey) field but the bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CompileKey {
    batch: u64,
    rows: usize,
    cols: usize,
    ibuf_bytes: usize,
    wbuf_bytes: usize,
    obuf_bytes: usize,
    buffer_access_bits: u32,
}

impl CompileKey {
    fn of(batch: u64, arch: &ArchConfig) -> Self {
        CompileKey {
            batch,
            rows: arch.rows,
            cols: arch.cols,
            ibuf_bytes: arch.ibuf_bytes,
            wbuf_bytes: arch.wbuf_bytes,
            obuf_bytes: arch.obuf_bytes,
            buffer_access_bits: arch.buffer_access_bits,
        }
    }
}

/// Architecture identity for aggregation (every `ArchConfig` field that can
/// vary across a grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ArchKey {
    rows: usize,
    cols: usize,
    ibuf_bytes: usize,
    wbuf_bytes: usize,
    obuf_bytes: usize,
    buffer_access_bits: u32,
    dram_bits_per_cycle: u32,
    freq_mhz: u32,
}

impl ArchKey {
    fn of(arch: &ArchConfig) -> Self {
        ArchKey {
            rows: arch.rows,
            cols: arch.cols,
            ibuf_bytes: arch.ibuf_bytes,
            wbuf_bytes: arch.wbuf_bytes,
            obuf_bytes: arch.obuf_bytes,
            buffer_access_bits: arch.buffer_access_bits,
            dram_bits_per_cycle: arch.dram_bits_per_cycle,
            freq_mhz: arch.freq_mhz,
        }
    }
}

/// Explores the spec on `backend`, sharded across `workers` threads
/// (`0` = use [`crate::pool::default_workers`]; `1` = the sequential
/// baseline).
///
/// No cache is read or filled: exploration deduplicates compilation and
/// evaluation in a per-run job table instead (below), so a session that
/// repeats a grid compiles it again.
///
/// One sharded pass over unique layer jobs. Serially, each quantized
/// variant is fused once per batch into groups with their GEMM views
/// ([`gemm_groups`]), and every group of every unique artifact is keyed
/// by (GEMM view, post-ops, compile key) — the identity
/// [`layer_fingerprint`](bitfusion_compiler::layer_fingerprint) gives
/// after compilation, since tiling and mapping follow from those. Then one
/// [`map_indexed`] call runs each job once: tile search and lowering
/// ([`plan_layer`]), then one [`SimBackend::evaluate_layer_bandwidths`]
/// call over every bandwidth its points need. Each point's totals are
/// folded from the job results by index; a plan takes the first error in
/// group order, as [`compile`](bitfusion_compiler::compile) would. Invalid
/// configurations and compile failures become [`InfeasiblePoint`]s rather
/// than aborting the sweep — a wide grid is expected to contain corners no
/// tiling fits.
pub fn explore<B: SimBackend + Sync + ?Sized>(
    spec: &DseSpec,
    backend: &B,
    workers: usize,
) -> DseResult {
    let workers = if workers == 0 {
        crate::pool::default_workers()
    } else {
        workers
    };
    let archs: Vec<ArchConfig> = spec.grid.configs().collect();
    let energy = FusionEnergy::isca_45nm();
    let opts = spec.options;

    // Quantized model variants, model-major: variant v = model m under
    // quant spec q, at index m × |quants| + q. A spec that does not apply
    // to a model (layer override naming nothing) marks every point of the
    // variant infeasible rather than aborting the sweep.
    let nquants = spec.quant_specs.len();
    let quant_names: Vec<String> = spec.quant_specs.iter().map(QuantSpec::to_string).collect();
    let variants: Vec<Result<Model, String>> = spec
        .models
        .iter()
        .flat_map(|m| spec.quant_specs.iter().map(|q| q.apply(m)))
        .collect();
    let validity: Vec<Result<(), CoreError>> = archs.iter().map(ArchConfig::validate).collect();

    // A variant's artifact identity is its name and structural
    // fingerprint (the model half of an `ArtifactKey`; the fingerprint
    // covers precisions). `family[v]` is the first variant sharing it, so
    // a model listed twice, or two quant specs assigning the same
    // precisions, share one artifact and one fusion pass.
    let mut first: HashMap<(&str, u64), usize, FnvBuildHasher> = HashMap::default();
    let family: Vec<usize> = variants
        .iter()
        .enumerate()
        .map(|(v, variant)| match variant {
            Ok(m) => *first
                .entry((m.name.as_str(), bitfusion_compiler::cache::fingerprint(m)))
                .or_insert(v),
            Err(_) => v,
        })
        .collect();

    // Point enumeration, deterministic: models → quant specs → batches →
    // grid order. `artifact` indexes `artifacts` below, for the points
    // that reach the compiler.
    struct PointRef {
        variant: usize,
        batch: u64,
        arch: usize,
        artifact: Option<usize>,
    }
    let mut point_refs: Vec<PointRef> = Vec::with_capacity(spec.len().unwrap_or(0));
    for variant in 0..variants.len() {
        for &batch in &spec.batches {
            for arch in 0..archs.len() {
                point_refs.push(PointRef {
                    variant,
                    batch,
                    arch,
                    artifact: None,
                });
            }
        }
    }

    // Serial step: every unique artifact (variant family, compile key) the
    // compilable points resolve to, and one front half — fused groups and
    // GEMM views — per (family, batch), shared by all its geometries.
    // Invalid configs and failed quantizations are filtered here so
    // compilation never sees them.
    struct Artifact {
        front: usize,
        arch: usize,
        key: CompileKey,
    }
    let mut artifact_index: HashMap<(usize, CompileKey), usize, FnvBuildHasher> =
        HashMap::default();
    let mut artifacts: Vec<Artifact> = Vec::new();
    let mut front_index: HashMap<(usize, u64), usize, FnvBuildHasher> = HashMap::default();
    let mut fronts: Vec<Front> = Vec::new();
    for p in &mut point_refs {
        if validity[p.arch].is_err() || variants[p.variant].is_err() {
            continue;
        }
        let (fam, batch, arch) = (family[p.variant], p.batch, p.arch);
        let key = CompileKey::of(batch, &archs[arch]);
        let artifact = *artifact_index.entry((fam, key)).or_insert_with(|| {
            let front = *front_index.entry((fam, batch)).or_insert_with(|| {
                let model = variants[fam].as_ref().expect("feasible variant");
                fronts.push(Front::of(model, batch));
                fronts.len() - 1
            });
            artifacts.push(Artifact { front, arch, key });
            artifacts.len() - 1
        });
        p.artifact = Some(artifact);
    }

    // The job table: one job per (GEMM view, post-ops, compile key),
    // listed for each artifact in group order (`plan_jobs`); then one walk
    // over the points adds the bandwidths they request.
    struct Job<'f> {
        group: &'f GemmGroup,
        arch: usize,
        bandwidths: Vec<u32>,
    }
    let mut jobs: Vec<Job<'_>> = Vec::new();
    let mut job_index: HashMap<(GemmLayer, &[PostOp], CompileKey), usize, FnvBuildHasher> =
        HashMap::default();
    let plan_jobs: Vec<Vec<usize>> = artifacts
        .iter()
        .map(|a| {
            fronts[a.front]
                .groups
                .iter()
                .map(|group| {
                    let key = (group.gemm, group.postops.as_slice(), a.key);
                    *job_index.entry(key).or_insert_with(|| {
                        jobs.push(Job {
                            group,
                            arch: a.arch,
                            bandwidths: Vec::new(),
                        });
                        jobs.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    for p in &point_refs {
        let Some(a) = p.artifact else { continue };
        let bandwidth = archs[p.arch].dram_bits_per_cycle;
        for &j in &plan_jobs[a] {
            let bandwidths = &mut jobs[j].bandwidths;
            if !bandwidths.contains(&bandwidth) {
                bandwidths.push(bandwidth);
            }
        }
    }

    // The one sharded pass: tile, lower and evaluate every job once,
    // across its whole bandwidth axis.
    let results: Vec<Result<Vec<LayerPerf>, CompileError>> =
        map_indexed(jobs.len(), workers, |j| {
            let job = &jobs[j];
            let arch = &archs[job.arch];
            let layer = plan_layer(job.group.clone(), arch)?;
            Ok(backend.evaluate_layer_bandwidths(&layer, arch, &job.bandwidths, &energy, &opts))
        });

    // Fold. A plan fails with its first error in group order: a job's
    // tiling or lowering error, or else the front's GEMM-view error.
    let plan_errors: Vec<Option<&CompileError>> = artifacts
        .iter()
        .zip(&plan_jobs)
        .map(|(a, layer_jobs)| {
            layer_jobs
                .iter()
                .find_map(|&j| results[j].as_ref().err())
                .or(fronts[a.front].error.as_ref())
        })
        .collect();
    // Spec-level layer counters over the points that reach a compiled
    // plan: how many layer evaluations they request, and how many unique
    // `LayerKey`s (job × bandwidth) those resolve to. `seen` flags each
    // job's bandwidth slots, at `offsets[j]` onward.
    let mut offsets = Vec::with_capacity(jobs.len());
    let mut slots = 0;
    for job in &jobs {
        offsets.push(slots);
        slots += job.bandwidths.len();
    }
    let mut seen = vec![false; slots];
    let (mut layer_evals, mut layer_unique) = (0, 0);
    // Each point's totals are folded from its layers' job results, by
    // index and in layer order, so the energy sums equal
    // `PerfReport::total_energy` bit for bit. Area only for valid
    // architectures: the SRAM model rejects a zero-capacity buffer, which
    // `validate` reports as `InvalidConfig`.
    let areas: Vec<Option<f64>> = archs
        .iter()
        .zip(&validity)
        .map(|(arch, ok)| ok.is_ok().then(|| ChipArea::of(arch, opts.node).chip_mm2()))
        .collect();
    let mut points = Vec::new();
    let mut infeasible = Vec::new();
    for p in &point_refs {
        let arch = &archs[p.arch];
        let base = &spec.models[p.variant / nquants];
        let quant = &quant_names[p.variant % nquants];
        let mut fail = |error| {
            infeasible.push(InfeasiblePoint {
                arch: arch.clone(),
                model_name: base.name.clone(),
                quant: quant.clone(),
                batch: p.batch,
                error,
            })
        };
        if let Err(e) = &validity[p.arch] {
            fail(PointError::InvalidConfig(e.clone()));
            continue;
        }
        let model = match &variants[p.variant] {
            Ok(m) => m,
            Err(e) => {
                fail(PointError::Quant(e.clone()));
                continue;
            }
        };
        let a = p.artifact.expect("feasible point");
        if let Some(e) = plan_errors[a] {
            fail(PointError::Compile(e.clone()));
            continue;
        }
        let mut cycles = 0;
        let mut energy = EnergyBreakdown::default();
        let mut stalls = StallBreakdown::default();
        for &j in &plan_jobs[a] {
            let slot = jobs[j]
                .bandwidths
                .iter()
                .position(|&b| b == arch.dram_bits_per_cycle)
                .expect("every point's bandwidth is in its jobs");
            let perf = &results[j].as_ref().expect("the plan compiled")[slot];
            cycles += perf.cycles;
            energy += perf.energy;
            stalls += perf.stalls;
            let seen = &mut seen[offsets[j] + slot];
            layer_unique += u64::from(!*seen);
            *seen = true;
        }
        layer_evals += plan_jobs[a].len() as u64;
        points.push(DsePoint {
            arch: arch.clone(),
            model_name: model.name.clone(),
            quant: quant.clone(),
            batch: p.batch,
            cycles,
            energy,
            stalls,
            area_mm2: areas[p.arch].expect("valid architecture"),
        });
    }
    DseResult {
        backend: backend.name(),
        points,
        infeasible,
        workloads_expected: spec.workloads(),
        compile_unique: artifacts.len() as u64,
        layer_evals,
        layer_unique,
    }
}

/// [`explore`], with two caches it neither reads nor fills. It exists
/// only because perfbench's traced run calls it, and goes with ROADMAP
/// items 5 and 6, which delete the tiers its parameters name.
pub fn explore_with_caches<B: SimBackend + Sync + ?Sized>(
    spec: &DseSpec,
    backend: &B,
    workers: usize,
    _cache: &ArtifactCache,
    _layer_cache: &LayerPerfCache,
) -> DseResult {
    explore(spec, backend, workers)
}

/// The architecture-independent half of one artifact's compilation: its
/// fused groups with their GEMM views, up to the first group whose view
/// fails, and that failure. An up-front failure (batch 0, no MAC layers,
/// a fusion count overflow) is an `error` with no groups.
struct Front {
    groups: Vec<GemmGroup>,
    error: Option<CompileError>,
}

impl Front {
    fn of(model: &Model, batch: u64) -> Self {
        let mut groups = Vec::new();
        let error = gemm_groups(model, batch)
            .and_then(|each| {
                for group in each {
                    groups.push(group?);
                }
                Ok(())
            })
            .err();
        Front { groups, error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::BitFusionSim;
    use crate::backend::AnalyticBackend;
    use crate::event::EventBackend;
    use bitfusion_compiler::{layer_fingerprint, ArtifactKey, LayerKey};
    use std::collections::HashSet;

    fn small_spec() -> DseSpec {
        let grid = ArchGrid {
            rows: vec![16, 32],
            cols: vec![8, 16],
            dram_bits_per_cycle: vec![64, 128, 256],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        DseSpec {
            grid,
            models: vec![Benchmark::Lstm.model(), Benchmark::Rnn.model()],
            quant_specs: vec![QuantSpec::paper()],
            batches: vec![1, 16],
            options: SimOptions::default(),
        }
    }

    #[test]
    fn explore_covers_every_point() {
        let spec = small_spec();
        let result = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(
            Some(result.points.len() + result.infeasible.len()),
            spec.len()
        );
        assert_eq!(
            Some(result.points.len()),
            spec.len(),
            "zoo nets fit every config"
        );
        assert_eq!(result.backend, "analytic");
        // 12 archs × 2 models × 2 batches = 48 points, but the 3-point
        // bandwidth axis shares compilations: 4 geometry keys × 4
        // model-batch pairs = 16 artifacts.
        assert_eq!(result.compile_unique, 16);
        assert_eq!(result.spec_compile_hits(), 48 - 16);
    }

    #[test]
    fn point_cap_is_checked_without_enumerating() {
        let spec = small_spec();
        assert_eq!(spec.points_within_cap(), Ok(48));
        // 20 000 × 20 000 rows × cols: 4 × 10^8 grid points, refused from
        // the candidate lists alone.
        let wide = DseSpec {
            grid: ArchGrid {
                rows: (1..=20_000).collect(),
                cols: (1..=20_000).collect(),
                ..spec.grid.clone()
            },
            ..spec.clone()
        };
        let points = 20_000 * 20_000 * 3 * 2 * 2;
        assert_eq!(wide.len(), Some(points));
        let err = wide.points_within_cap().unwrap_err();
        assert_eq!(
            err,
            TooManyPoints {
                points: Some(points)
            }
        );
        assert_eq!(
            err.to_string(),
            format!("design space has {points} points, over the cap of 16384")
        );
        // A batch list whose product overflows is refused as such.
        let overflowing = DseSpec {
            grid: ArchGrid {
                ibuf_bytes: (1..=20_000).collect(),
                wbuf_bytes: (1..=20_000).collect(),
                ..wide.grid.clone()
            },
            batches: vec![1; 64],
            ..wide
        };
        assert_eq!(overflowing.len(), None);
        assert_eq!(
            overflowing.points_within_cap().unwrap_err().to_string(),
            "design space point count overflows, over the cap of 16384"
        );
        // Exactly at the cap passes.
        let at_cap = DseSpec {
            grid: ArchGrid {
                rows: (1..=1 << 10).collect(),
                ..ArchGrid::from_base(ArchConfig::isca_45nm())
            },
            batches: vec![1; 8],
            ..spec
        };
        assert_eq!(at_cap.points_within_cap(), Ok(MAX_DSE_POINTS));
    }

    #[test]
    fn layer_cap_is_checked_without_compiling() {
        // LSTM and RNN have 2 layers each: 48 points × 2 layers.
        let spec = small_spec();
        assert_eq!(spec.layer_count(), Some(96));
        assert_eq!(spec.layers_within_cap(), Ok(96));
        // The zoo has 87 layers, so a whole-zoo grid at the point cap
        // passes, and so does every grid of the README, CI and perfbench.
        let zoo = DseSpec::zoo(
            ArchGrid {
                rows: (1..=1 << 11).collect(),
                ..ArchGrid::from_base(ArchConfig::isca_45nm())
            },
            vec![1],
        );
        assert_eq!(zoo.points_within_cap(), Ok(MAX_DSE_POINTS));
        assert_eq!(zoo.layers_within_cap(), Ok(87 << 11));
        // Sixteen ResNet-18s (31 layers each) on 1 024 geometries: at the
        // point cap, but refused for their layers.
        let wide = DseSpec {
            grid: ArchGrid {
                rows: (1..=1 << 10).collect(),
                ..ArchGrid::from_base(ArchConfig::isca_45nm())
            },
            models: vec![Benchmark::ResNet18.model(); 16],
            quant_specs: vec![QuantSpec::paper()],
            batches: vec![1],
            options: SimOptions::default(),
        };
        assert_eq!(wide.points_within_cap(), Ok(MAX_DSE_POINTS));
        let layers = (1 << 10) * 16 * 31;
        assert_eq!(wide.layer_count(), Some(layers));
        let err = wide.layers_within_cap().unwrap_err();
        assert_eq!(
            err,
            TooManyLayers {
                layers: Some(layers)
            }
        );
        assert_eq!(
            err.to_string(),
            format!("design space has {layers} layer evaluations, over the cap of 262144")
        );
        // A candidate product that overflows is refused as such.
        let overflowing = DseSpec {
            grid: ArchGrid {
                rows: (1..=20_000).collect(),
                cols: (1..=20_000).collect(),
                ibuf_bytes: (1..=20_000).collect(),
                wbuf_bytes: (1..=20_000).collect(),
                ..spec.grid.clone()
            },
            batches: vec![1; 64],
            ..spec
        };
        assert_eq!(overflowing.layer_count(), None);
        assert_eq!(
            overflowing.layers_within_cap().unwrap_err().to_string(),
            "design space layer count overflows, over the cap of 262144"
        );
    }

    #[test]
    fn explore_leaves_the_plan_cache_untouched() {
        let spec = small_spec();
        let cache = ArtifactCache::default();
        let layer_cache = LayerPerfCache::default();
        let first = explore_with_caches(&spec, &AnalyticBackend, 2, &cache, &layer_cache);
        let second = explore_with_caches(&spec, &AnalyticBackend, 2, &cache, &layer_cache);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.len),
            (0, 0, 0, 0),
            "explore must not read or fill the plan cache"
        );
        assert_eq!(first.compile_unique, 16);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn explore_leaves_the_layer_tier_untouched_and_matches_per_point_runs() {
        // A duplicated model and two quant specs that alias on LSTM (its
        // paper assignment is uniform 4/4), so jobs are shared across
        // models, variants and the bandwidth axis. Two IBUF sizes leave
        // some layers' tiling, and so their fingerprints, unchanged while
        // their buffer energy differs: jobs must still split on them.
        let spec = DseSpec {
            grid: ArchGrid {
                cols: vec![8, 16],
                ibuf_bytes: vec![16 * 1024, 64 * 1024],
                dram_bits_per_cycle: vec![64, 192],
                ..ArchGrid::from_base(ArchConfig::isca_45nm())
            },
            models: vec![
                Benchmark::ResNet18.model(),
                Benchmark::Lstm.model(),
                Benchmark::Lstm.model(),
            ],
            quant_specs: vec![QuantSpec::paper(), QuantSpec::uniform(4).unwrap()],
            batches: vec![16],
            options: SimOptions::default(),
        };
        check_against_per_point_runs(&spec, AnalyticBackend);
        check_against_per_point_runs(&spec, EventBackend);
    }

    #[test]
    fn plans_failing_at_a_later_group_match_per_point_compiles() {
        // With 2 KB buffers these nets compile their first groups and then
        // find no tiling for a later one; explore tiles each group in its
        // own job, so the plan must still report the first error in group
        // order, and count no layer of a failed plan.
        let spec = DseSpec {
            grid: ArchGrid {
                ibuf_bytes: vec![2 * 1024, 32 * 1024],
                wbuf_bytes: vec![2 * 1024, 64 * 1024],
                obuf_bytes: vec![2 * 1024, 16 * 1024],
                ..ArchGrid::from_base(ArchConfig::isca_45nm())
            },
            models: vec![
                Benchmark::ResNet18.model(),
                Benchmark::Vgg7.model(),
                Benchmark::LeNet5.model(),
            ],
            quant_specs: vec![QuantSpec::paper()],
            batches: vec![16],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 2);
        let errors: Vec<String> = result
            .infeasible
            .iter()
            .map(|p| p.error.to_string())
            .collect();
        for shape in ["96x864x50176", "128x576x16384", "64x800x3136"] {
            assert!(
                errors.iter().any(|e| e.contains(shape)),
                "a later group fails at {shape}: {errors:?}"
            );
        }
        check_against_per_point_runs(&spec, AnalyticBackend);
    }

    /// Explores `spec` at 1, 2 and 4 workers through caller-owned caches
    /// and checks that both stay untouched, and that points, infeasible
    /// corners, frontier and the spec-level counters equal what compiling
    /// and running every point on its own through [`BitFusionSim`] gives.
    fn check_against_per_point_runs<B: SimBackend + Sync + Copy>(spec: &DseSpec, backend: B) {
        let name = backend.name();
        let context = crate::layer_cache::eval_context(name, &spec.options);
        let mut points = Vec::new();
        let mut infeasible = Vec::new();
        let mut artifacts = HashSet::new();
        let mut layer_keys = HashSet::new();
        let mut layer_evals = 0;
        for model in &spec.models {
            for q in &spec.quant_specs {
                let variant = q.apply(model).unwrap();
                for &batch in &spec.batches {
                    for arch in spec.grid.configs() {
                        artifacts.insert(ArtifactKey::of(&variant, &arch, batch));
                        let plan = match bitfusion_compiler::compile(&variant, &arch, batch) {
                            Ok(plan) => plan,
                            Err(e) => {
                                infeasible.push(InfeasiblePoint {
                                    arch,
                                    model_name: variant.name.clone(),
                                    quant: q.to_string(),
                                    batch,
                                    error: PointError::Compile(e),
                                });
                                continue;
                            }
                        };
                        layer_evals += plan.layers.len() as u64;
                        for l in &plan.layers {
                            let fp = layer_fingerprint(l);
                            layer_keys.insert(LayerKey::of(fp, &arch, batch, context));
                        }
                        let report =
                            BitFusionSim::with_backend(arch.clone(), backend).run_plan(&plan);
                        points.push(DsePoint {
                            cycles: report.total_cycles(),
                            energy: report.total_energy(),
                            stalls: report.total_stalls(),
                            area_mm2: ChipArea::of(&arch, spec.options.node).chip_mm2(),
                            arch,
                            model_name: variant.name.clone(),
                            quant: q.to_string(),
                            batch,
                        });
                    }
                }
            }
        }
        let oracle = DseResult {
            backend: name,
            points,
            infeasible,
            workloads_expected: spec.workloads(),
            compile_unique: artifacts.len() as u64,
            layer_evals,
            layer_unique: layer_keys.len() as u64,
        };
        assert!(oracle.spec_layer_hits() > 0, "{name}: shapes repeat");
        for workers in [1, 2, 4] {
            let cache = ArtifactCache::default();
            let layer_cache = LayerPerfCache::default();
            let result = explore_with_caches(spec, &backend, workers, &cache, &layer_cache);
            let stats = layer_cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.len),
                (0, 0, 0),
                "{name}/{workers}w: explore must not touch the layer tier"
            );
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.len),
                (0, 0, 0),
                "{name}/{workers}w: explore must not touch the plan cache"
            );
            assert_eq!(result.points.len(), oracle.points.len(), "{name}/{workers}w");
            for (got, want) in result.points.iter().zip(&oracle.points) {
                let at = format!("{name}/{workers}w: {} on {}", want.model_name, want.arch);
                assert_eq!(got.cycles, want.cycles, "{at}: cycles");
                assert_eq!(got.stalls, want.stalls, "{at}: stalls");
                let bits = |e: &EnergyBreakdown| {
                    [e.compute_pj, e.buffer_pj, e.rf_pj, e.dram_pj].map(f64::to_bits)
                };
                assert_eq!(bits(&got.energy), bits(&want.energy), "{at}: energy");
            }
            assert_eq!(
                format!("{:?}", result.points),
                format!("{:?}", oracle.points),
                "{name}/{workers}w: points"
            );
            assert_eq!(
                format!("{:?}", result.infeasible),
                format!("{:?}", oracle.infeasible),
                "{name}/{workers}w: infeasible"
            );
            assert_eq!(
                format!("{:?}", result.pareto_frontier()),
                format!("{:?}", oracle.pareto_frontier()),
                "{name}/{workers}w: frontier"
            );
            assert_eq!(
                (
                    result.compile_unique,
                    result.layer_evals,
                    result.layer_unique
                ),
                (
                    oracle.compile_unique,
                    oracle.layer_evals,
                    oracle.layer_unique
                ),
                "{name}/{workers}w: spec counters"
            );
        }
    }

    #[test]
    fn layer_counters_separate_quantizations() {
        let spec = DseSpec {
            grid: ArchGrid::from_base(ArchConfig::isca_45nm()),
            models: vec![Benchmark::Lstm.model()],
            quant_specs: vec![QuantSpec::paper(), QuantSpec::parse("uniform16").unwrap()],
            batches: vec![1],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 1);
        // LSTM's paper assignment is uniform 4/4; the 16-bit variant tiles
        // differently, so the two points must not share layer keys beyond
        // what each shares internally.
        let per_point = bitfusion_compiler::compile(&spec.models[0], &ArchConfig::isca_45nm(), 1)
            .unwrap()
            .layers
            .len() as u64;
        assert_eq!(result.layer_evals, 2 * per_point);
        assert!(
            result.layer_unique > per_point,
            "quantizations must not alias: {} unique",
            result.layer_unique
        );
    }

    #[test]
    fn duplicate_models_share_one_artifact() {
        let grid = ArchGrid::from_base(ArchConfig::isca_45nm());
        let spec = DseSpec {
            grid,
            models: vec![Benchmark::Rnn.model(), Benchmark::Rnn.model()],
            quant_specs: vec![QuantSpec::paper()],
            batches: vec![4],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(result.points.len(), 2);
        assert_eq!(
            result.compile_unique, 1,
            "identical models share one artifact"
        );
        assert_eq!(result.spec_compile_hits(), 1);
        assert_eq!(result.points[0], result.points[1]);
    }

    #[test]
    fn frontier_is_identical_for_any_worker_count() {
        let spec = small_spec();
        let sequential = explore(&spec, &AnalyticBackend, 1);
        for workers in [2, 4, 8] {
            let parallel = explore(&spec, &AnalyticBackend, workers);
            assert_eq!(sequential.points.len(), parallel.points.len());
            assert_eq!(sequential.points, parallel.points, "{workers} workers");
            let fa = sequential.pareto_frontier();
            let fb = parallel.pareto_frontier();
            assert_eq!(fa.len(), fb.len(), "{workers} workers");
            for (a, b) in fa.iter().zip(&fb) {
                assert_eq!(a.arch, b.arch);
                assert_eq!(a.total_cycles, b.total_cycles);
                assert_eq!(a.total_energy_pj, b.total_energy_pj);
                assert_eq!(a.area_mm2, b.area_mm2);
            }
        }
    }

    #[test]
    fn frontier_is_nonempty_and_nondominated() {
        let result = explore(&small_spec(), &AnalyticBackend, 0);
        let frontier = result.pareto_frontier();
        assert!(!frontier.is_empty());
        for a in &frontier {
            assert_eq!(a.workloads, result.workloads_expected);
            for b in &frontier {
                assert!(!a.dominates(b) || a.arch == b.arch);
            }
        }
        // Every non-frontier complete summary is dominated by someone.
        let summaries = result.arch_summaries();
        for s in &summaries {
            let on_frontier = frontier.iter().any(|f| f.arch == s.arch);
            if !on_frontier {
                assert!(summaries.iter().any(|o| o.dominates(s)), "{}", s.arch);
            }
        }
    }

    #[test]
    fn event_backend_attributes_stalls_per_point() {
        let grid = ArchGrid {
            dram_bits_per_cycle: vec![32, 512],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        let spec = DseSpec {
            grid,
            models: vec![Benchmark::Rnn.model()],
            quant_specs: vec![QuantSpec::paper()],
            batches: vec![1],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &EventBackend, 2);
        assert_eq!(result.backend, "event");
        assert_eq!(result.points.len(), 2);
        // Starved-for-bandwidth at 32 b/cyc; the 512 b/cyc point must stall
        // strictly less.
        let narrow = result.points[0].stalls;
        let wide = result.points[1].stalls;
        assert!(narrow.bandwidth_starved > wide.bandwidth_starved);
    }

    #[test]
    fn infeasible_corners_are_reported_not_fatal() {
        let grid = ArchGrid {
            // 16-byte scratchpads: no tiling fits.
            obuf_bytes: vec![16 * 1024, 1],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        let spec = DseSpec {
            grid,
            models: vec![Benchmark::Svhn.model()],
            quant_specs: vec![QuantSpec::paper()],
            batches: vec![4],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(result.points.len(), 1);
        assert_eq!(result.infeasible.len(), 1);
        assert!(matches!(
            result.infeasible[0].error,
            PointError::Compile(CompileError::NoFeasibleTiling { .. })
        ));
        // The surviving arch still forms a frontier.
        assert_eq!(result.pareto_frontier().len(), 1);
    }

    #[test]
    fn invalid_grid_points_are_reported() {
        let grid = ArchGrid {
            rows: vec![32, 0],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        let spec = DseSpec {
            grid,
            models: vec![Benchmark::Lstm.model()],
            quant_specs: vec![QuantSpec::paper()],
            batches: vec![1],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(result.points.len(), 1);
        assert_eq!(result.infeasible.len(), 1);
        assert!(matches!(
            result.infeasible[0].error,
            PointError::InvalidConfig(_)
        ));

        // Zero-sized buffers are an invalid config too, not a panic in
        // the SRAM area model.
        let grid = ArchGrid {
            ibuf_bytes: vec![0],
            wbuf_bytes: vec![0],
            obuf_bytes: vec![0],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        let result = explore(&DseSpec { grid, ..spec }, &AnalyticBackend, 2);
        assert!(result.points.is_empty());
        assert_eq!(result.infeasible.len(), 1);
        assert!(matches!(
            result.infeasible[0].error,
            PointError::InvalidConfig(_)
        ));
    }

    #[test]
    fn quant_axis_orders_points_and_splits_artifacts() {
        let spec = DseSpec {
            grid: ArchGrid::from_base(ArchConfig::isca_45nm()),
            models: vec![Benchmark::Lstm.model()],
            quant_specs: vec![
                QuantSpec::paper(),
                QuantSpec::parse("uniform8").unwrap(),
                QuantSpec::parse("uniform16").unwrap(),
            ],
            batches: vec![1],
            options: SimOptions::default(),
        };
        assert_eq!(spec.len(), Some(3));
        let result = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(result.points.len(), 3);
        assert_eq!(
            result.compile_unique, 3,
            "each quantization is its own artifact (fingerprint covers precisions)"
        );
        let quants: Vec<&str> = result.points.iter().map(|p| p.quant.as_str()).collect();
        assert_eq!(quants, ["paper", "uniform8", "uniform16"], "spec order");
        // Fewer bits never cost cycles: paper (4/4) <= uniform8 <= uniform16.
        let cycles: Vec<u64> = result.points.iter().map(|p| p.cycles).collect();
        assert!(cycles[0] <= cycles[1], "{cycles:?}");
        assert!(cycles[1] < cycles[2], "{cycles:?}");
    }

    #[test]
    fn quant_points_are_identical_for_any_worker_count() {
        let spec = DseSpec {
            grid: ArchGrid {
                dram_bits_per_cycle: vec![64, 128],
                ..ArchGrid::from_base(ArchConfig::isca_45nm())
            },
            models: vec![Benchmark::Lstm.model(), Benchmark::Rnn.model()],
            quant_specs: vec![QuantSpec::paper(), QuantSpec::parse("uniform8").unwrap()],
            batches: vec![1, 4],
            options: SimOptions::default(),
        };
        let sequential = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(Some(sequential.points.len()), spec.len());
        for workers in [2, 5] {
            let parallel = explore(&spec, &AnalyticBackend, workers);
            assert_eq!(sequential.points.len(), parallel.points.len());
            assert_eq!(sequential.points, parallel.points, "{workers} workers");
            assert_eq!(
                sequential.quant_speedups_vs("uniform8"),
                parallel.quant_speedups_vs("uniform8")
            );
        }
    }

    #[test]
    fn quant_speedups_report_the_heterogeneous_benefit() {
        let spec = DseSpec {
            grid: ArchGrid::from_base(ArchConfig::isca_45nm()),
            models: vec![Benchmark::Lstm.model(), Benchmark::Svhn.model()],
            quant_specs: vec![
                QuantSpec::paper(),
                QuantSpec::parse("uniform8").unwrap(),
                QuantSpec::parse("uniform16").unwrap(),
            ],
            batches: vec![4],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 2);
        let speedups = result.quant_speedups_vs("uniform8");
        // Two models × two non-baseline quants, model-major order.
        let labels: Vec<(&str, &str)> = speedups
            .iter()
            .map(|s| (s.model.as_str(), s.quant.as_str()))
            .collect();
        assert_eq!(
            labels,
            [
                ("LSTM", "paper"),
                ("LSTM", "uniform16"),
                ("SVHN", "paper"),
                ("SVHN", "uniform16"),
            ]
        );
        for s in &speedups {
            match s.quant.as_str() {
                // The paper's point: per-layer bitwidths beat a fixed
                // 8-bit datapath...
                "paper" => assert!(s.speedup >= 1.0, "{}: {}", s.model, s.speedup),
                // ...and a fixed 16-bit datapath is strictly worse.
                "uniform16" => assert!(s.speedup < 1.0, "{}: {}", s.model, s.speedup),
                other => panic!("{other}"),
            }
        }
    }

    #[test]
    fn equivalent_quant_specs_alias_one_artifact() {
        // LSTM's paper assignment is uniform 4/4, so spelling it as a
        // uniform spec resolves to the same fingerprint and artifact.
        let spec = DseSpec {
            grid: ArchGrid::from_base(ArchConfig::isca_45nm()),
            models: vec![Benchmark::Lstm.model()],
            quant_specs: vec![QuantSpec::paper(), QuantSpec::parse("uniform4").unwrap()],
            batches: vec![1],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.compile_unique, 1);
        assert_eq!(result.spec_compile_hits(), 1);
        let (a, b) = (&result.points[0], &result.points[1]);
        assert_eq!((a.cycles, a.energy, a.stalls), (b.cycles, b.energy, b.stalls));
    }

    #[test]
    fn failed_quant_spec_is_infeasible_not_fatal() {
        let spec = DseSpec {
            grid: ArchGrid::from_base(ArchConfig::isca_45nm()),
            models: vec![Benchmark::Lstm.model(), Benchmark::Rnn.model()],
            quant_specs: vec![
                QuantSpec::paper(),
                // Matches RNN but not LSTM: half the axis fails.
                QuantSpec::parse("layer:rnn1=8/8").unwrap(),
            ],
            batches: vec![1],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 1);
        assert_eq!(result.points.len(), 3);
        assert_eq!(result.infeasible.len(), 1);
        let bad = &result.infeasible[0];
        assert_eq!(bad.model_name, "LSTM");
        assert!(matches!(&bad.error, PointError::Quant(e) if e.contains("rnn1")));
        // Quant failures never reach the compiler.
        assert_eq!(result.compilable_points(), 3);
        assert_eq!(result.compile_unique, 3);
    }

    #[test]
    fn frontier_prefers_dominating_quantization_on_the_same_silicon() {
        let spec = DseSpec {
            grid: ArchGrid::from_base(ArchConfig::isca_45nm()),
            models: vec![Benchmark::Lstm.model()],
            quant_specs: vec![QuantSpec::paper(), QuantSpec::parse("uniform16").unwrap()],
            batches: vec![4],
            options: SimOptions::default(),
        };
        let result = explore(&spec, &AnalyticBackend, 1);
        let summaries = result.arch_summaries();
        assert_eq!(summaries.len(), 2, "one candidate per quantization");
        let frontier = result.pareto_frontier();
        // Same chip, but the heterogeneous assignment needs fewer cycles
        // and less energy: uniform16 is dominated off the frontier.
        assert_eq!(frontier.len(), 1, "{frontier:?}");
        assert_eq!(frontier[0].quant, "paper");
    }

    #[test]
    fn zoo_spec_covers_all_networks() {
        let spec = DseSpec::zoo(
            ArchGrid::from_base(ArchConfig::isca_45nm()),
            vec![16],
        );
        assert_eq!(spec.models.len(), 8);
        assert_eq!(spec.workloads(), 8);
        assert!(!spec.is_empty());
    }
}

