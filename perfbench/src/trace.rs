//! The traced run. It replays a workload's requests in-process and times
//! the calls into each layer's public functions, in the order
//! `Session::handle` makes them: `Request::parse`; `find_benchmark`,
//! `parse_model`, `resolve_quant` and `QuantSpec::apply`;
//! `ArtifactCache::get_or_compile`; `SegmentProgram::compile`; the layer
//! tier and backend evaluation; `energy_for_layer`; the `baselines` sims;
//! `Response::encode`. Each request also runs once untraced through a real
//! `Session`, which gives `session.handle_us`, the base of
//! `trace.coverage` and `trace.overhead`, and the cache hit rates. After
//! every request the mirror's plan and layer caches must have compiled and
//! evaluated exactly what the session's did, or the replay fails.
//!
//! Spans are kept in memory and written out as JSON lines at the end.
//! A *stage* span is a step of the request's own pipeline; stage spans of
//! one request never overlap, and their sum over the untraced time is the
//! coverage. A *probe* span re-runs, in isolation, a piece of work a stage
//! already contains (the inline-model `parse_model` inside
//! `Request::parse`; `SegmentProgram::compile` and `energy_for_layer`
//! inside a backend's layer evaluation; the DSE worker-count and
//! per-point probes). Probes are neither coverage nor overhead: their
//! wall time is taken out of the traced time before the overhead is
//! computed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use bitfusion_baselines::{EyerissSim, GpuMode, GpuModel, StripesSim};
use bitfusion_compiler::{
    layer_fingerprint, ArtifactCache, CacheStats, ExecutionPlan, LayerKey, PlannedLayer,
};
use bitfusion_core::arch::ArchConfig;
use bitfusion_core::grid::ArchGrid;
use bitfusion_dnn::model::Model;
use bitfusion_dnn::quantspec::QuantSpec;
use bitfusion_dnn::schema::{export_model, parse_model};
use bitfusion_dnn::stats::BitwidthStats;
use bitfusion_energy::FusionEnergy;
use bitfusion_isa::asm::format_block;
use bitfusion_isa::walker::summarize;
use bitfusion_isa::SegmentProgram;
use bitfusion_service::protocol::{
    BackendChoice, DseParams, ModelSource, Request, Response, SweepAxis,
};
use bitfusion_service::session::{
    arch_config, find_benchmark, resolve_quant, SWEEP_BANDWIDTHS, SWEEP_BANDWIDTH_BATCH,
    SWEEP_BATCHES,
};
use bitfusion_service::Session;
use bitfusion_sim::{
    energy_for_layer, eval_context, explore_with_caches, AnalyticBackend, EventBackend, LayerPerf,
    LayerPerfCache, PerfReport, SimBackend, SimOptions,
};

use crate::stats::median;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Stage,
    Probe,
}

struct Span {
    req: u32,
    name: &'static str,
    kind: Kind,
    start: Instant,
    end: Instant,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    req: u32,
    /// While positive, every span is recorded as a probe.
    probe_depth: u32,
    /// Wall time of the outermost probe regions, microseconds.
    probe_us: f64,
    spans: Vec<Span>,
    counts: Vec<DseCounts>,
}

impl Tracer {
    fn push(&mut self, name: &'static str, kind: Kind, start: Instant, end: Instant) {
        let kind = if self.probe_depth > 0 {
            Kind::Probe
        } else {
            kind
        };
        self.spans.push(Span {
            req: self.req,
            name,
            kind,
            start,
            end,
        });
    }

    fn time<T>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.push(name, kind, start, Instant::now());
        value
    }

    /// Runs `f` as a probe region: its spans are probes, and its wall time
    /// is set aside from the overhead.
    fn probe<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = Instant::now();
        self.probe_depth += 1;
        let value = f(self);
        self.probe_depth -= 1;
        if self.probe_depth == 0 {
            self.probe_us += start.elapsed().as_secs_f64() * 1e6;
        }
        value
    }
}

/// The traced mirror of a `Session`: its own caches, driven through the
/// layers' public functions.
struct Traced {
    cache: ArtifactCache,
    layers: LayerPerfCache,
    opts: SimOptions,
    energy: FusionEnergy,
}

impl Traced {
    fn new() -> Self {
        Traced {
            cache: ArtifactCache::default(),
            layers: LayerPerfCache::default(),
            opts: SimOptions::default(),
            energy: FusionEnergy::isca_45nm(),
        }
    }

    /// Parses and serves `line`, up to the reply's encoding.
    fn handle(&mut self, t: &mut Tracer, line: &str) {
        let request = t.time("protocol.parse", Kind::Stage, || Request::parse(line));
        if let Ok(request) = request {
            if let Some(model) = inline_model(&request) {
                t.probe(|t| {
                    let text = export_model(model).encode();
                    t.time("schema.parse_model", Kind::Probe, || {
                        black_box(parse_model(&text).is_ok())
                    });
                });
            }
            self.dispatch(t, &request);
        }
    }

    fn dispatch(&mut self, t: &mut Tracer, request: &Request) -> Option<()> {
        let backend = |b: &Option<BackendChoice>| b.unwrap_or(BackendChoice::Analytic);
        match request {
            Request::Report {
                model,
                batch,
                bandwidth,
                arch,
                backend: b,
                quant,
            } => {
                let (model, _) = resolve(t, model, quant.as_deref())?;
                let mut arch = arch_config(*arch);
                if let Some(bw) = bandwidth {
                    arch = arch.with_bandwidth(*bw);
                }
                let plan = self.compiled(t, &model, &arch, *batch)?;
                t.time("session.assemble", Kind::Stage, || {
                    black_box(bitfusion_sim::plan_layer_sharing(
                        plan.as_ref().as_ref().ok()?,
                    ));
                    Some(())
                })?;
                let report = self.simulate(t, &model, &arch, *batch, backend(b))?;
                t.time("session.assemble", Kind::Stage, || {
                    black_box((
                        report.total_cycles(),
                        report.total_stalls(),
                        report.energy_per_input(),
                    ))
                });
            }
            Request::Compare {
                model,
                batch,
                backend: b,
                quant,
            } => {
                let (model, reference) = resolve(t, model, quant.as_deref())?;
                let batch = *batch;
                let be = backend(b);
                self.simulate(t, &model, &ArchConfig::isca_45nm(), batch, be)?;
                t.time("baselines.eyeriss", Kind::Stage, || {
                    black_box(EyerissSim::default().run(&reference, batch))
                });
                self.simulate(t, &model, &ArchConfig::stripes_matched(), batch, be)?;
                t.time("baselines.stripes", Kind::Stage, || {
                    black_box(StripesSim::default().run(&model, batch))
                });
                self.simulate(t, &model, &ArchConfig::gpu_16nm(), batch, be)?;
                t.time("baselines.gpu", Kind::Stage, || {
                    black_box(GpuModel::tegra_x2().run(&reference, batch, GpuMode::Fp32))
                });
            }
            Request::Asm {
                model, batch, arch, ..
            } => {
                let (model, _) = resolve(t, model, None)?;
                let plan = self.compiled(t, &model, &arch_config(*arch), *batch)?;
                let plan = plan.as_ref().as_ref().ok()?;
                t.time("isa.asm_format", Kind::Stage, || {
                    for l in &plan.layers {
                        black_box(format_block(&l.block));
                    }
                });
            }
            Request::Sweep {
                model,
                axis,
                backend: b,
                quant,
            } => {
                let (model, _) = resolve(t, model, quant.as_deref())?;
                let arch = ArchConfig::isca_45nm();
                let be = backend(b);
                // The sweeps are one-axis explorations: one compile per
                // unique geometry × batch, then every point's layers.
                match axis {
                    SweepAxis::Bandwidth => {
                        let plan = self.compiled(t, &model, &arch, SWEEP_BANDWIDTH_BATCH)?;
                        let plan = plan.as_ref().as_ref().ok()?;
                        for bw in SWEEP_BANDWIDTHS {
                            self.run_plan(t, plan, &arch.clone().with_bandwidth(bw), be);
                        }
                    }
                    SweepAxis::Batch => {
                        for batch in SWEEP_BATCHES {
                            self.simulate(t, &model, &arch, batch, be)?;
                        }
                    }
                }
            }
            Request::Quantize { model, quant } => {
                let (model, _) = resolve(t, model, quant.as_deref())?;
                t.time("session.assemble", Kind::Stage, || {
                    black_box(BitwidthStats::of(&model).share_at_or_below(4));
                    black_box(model.mac_layers().count());
                });
            }
            Request::Dse(params) => self.dse(t, params)?,
            Request::List | Request::Stats | Request::Shutdown => {}
        }
        Some(())
    }

    fn dse(&mut self, t: &mut Tracer, p: &DseParams) -> Option<()> {
        let spec = t.time("resolve", Kind::Stage, || dse_spec(p, self.opts))?;
        let workers = usize::try_from(p.workers).ok()?;
        let be = p.backend.unwrap_or(BackendChoice::Analytic);
        let explore = |workers, cache: &ArtifactCache, layers: &LayerPerfCache| {
            if be == BackendChoice::Event {
                explore_with_caches(&spec, &EventBackend, workers, cache, layers)
            } else {
                explore_with_caches(&spec, &AnalyticBackend, workers, cache, layers)
            }
        };
        let result = t.time("dse.explore", Kind::Stage, || {
            explore(workers, &self.cache, &self.layers)
        });
        t.time("dse.reply", Kind::Stage, || {
            black_box(result.pareto_frontier());
            if p.quants.len() > 1 {
                black_box(result.quant_speedups_vs("uniform8"));
            }
        });
        t.counts.push(DseCounts {
            layer_evals: result.layer_evals,
            layer_unique: result.layer_unique,
            compile_unique: result.compile_unique,
        });
        t.probe(|t| {
            for (name, w) in [("dse.explore_1w", 1), ("dse.explore_2w", 2)] {
                let (cache, layers) = (ArtifactCache::default(), LayerPerfCache::default());
                t.time(name, Kind::Probe, || black_box(explore(w, &cache, &layers)));
            }
            // Sequential per-point mirror on cold caches: the compile and
            // layer work explore does, one call at a time.
            let mut cold = Traced::new();
            for model in &spec.models {
                for q in &spec.quant_specs {
                    let variant = q.apply(model).ok()?;
                    for &batch in &spec.batches {
                        for arch in spec.grid.configs() {
                            cold.simulate(t, &variant, &arch, batch, be);
                        }
                    }
                }
            }
            Some(())
        })
    }

    /// `ArtifactCache::get_or_compile`, recorded as a compile (miss) or a
    /// plan hit.
    fn compiled(
        &mut self,
        t: &mut Tracer,
        model: &Model,
        arch: &ArchConfig,
        batch: u64,
    ) -> Option<bitfusion_compiler::CachedPlan> {
        arch.validate().ok()?;
        let misses = self.cache.stats().misses;
        let start = Instant::now();
        let plan = self.cache.get_or_compile(model, arch, batch);
        let end = Instant::now();
        let name = if self.cache.stats().misses > misses {
            "compiler.compile"
        } else {
            "compiler.plan_hit"
        };
        t.push(name, Kind::Stage, start, end);
        plan.as_ref().as_ref().ok()?;
        Some(plan)
    }

    fn simulate(
        &mut self,
        t: &mut Tracer,
        model: &Model,
        arch: &ArchConfig,
        batch: u64,
        backend: BackendChoice,
    ) -> Option<PerfReport> {
        let plan = self.compiled(t, model, arch, batch)?;
        let plan = plan.as_ref().as_ref().ok()?;
        Some(self.run_plan(t, plan, arch, backend))
    }

    /// `run_plan_cached`, one layer at a time.
    fn run_plan(
        &mut self,
        t: &mut Tracer,
        plan: &ExecutionPlan,
        arch: &ArchConfig,
        backend: BackendChoice,
    ) -> PerfReport {
        let name = match backend {
            BackendChoice::Analytic => AnalyticBackend.name(),
            BackendChoice::Event => EventBackend.name(),
        };
        let context = eval_context(name, &self.opts);
        PerfReport {
            model_name: plan.model_name.clone(),
            batch: plan.batch,
            freq_mhz: arch.freq_mhz,
            layers: plan
                .layers
                .iter()
                .map(|l| self.layer(t, l, plan.batch, arch, backend, context))
                .collect(),
        }
    }

    /// `evaluate_layer_cached`: a layer-tier lookup, and on a miss the
    /// backend evaluation plus probes of the program build and energy it
    /// contains.
    fn layer(
        &mut self,
        t: &mut Tracer,
        layer: &PlannedLayer,
        batch: u64,
        arch: &ArchConfig,
        backend: BackendChoice,
        context: u64,
    ) -> LayerPerf {
        let start = Instant::now();
        let key = LayerKey::of(layer_fingerprint(layer), arch, batch, context);
        let hit = self.layers.lookup(&key);
        let end = Instant::now();
        if let Some(mut perf) = hit {
            t.push("sim.layer_hit", Kind::Stage, start, end);
            perf.name.clone_from(&layer.name);
            return perf;
        }
        t.push("sim.layer_miss", Kind::Stage, start, end);
        t.probe(|t| {
            if backend == BackendChoice::Event {
                t.time("isa.program_build", Kind::Probe, || {
                    black_box(SegmentProgram::compile(&layer.block))
                });
            }
            let summary = summarize(&layer.block);
            t.time("energy.layer", Kind::Probe, || {
                black_box(energy_for_layer(
                    layer,
                    arch,
                    &self.energy,
                    &self.opts,
                    &summary,
                ))
            });
        });
        let perf = match backend {
            BackendChoice::Analytic => t.time("sim.analytic_layer", Kind::Stage, || {
                AnalyticBackend.evaluate_layer(layer, arch, &self.energy, &self.opts)
            }),
            BackendChoice::Event => t.time("sim.event_layer", Kind::Stage, || {
                EventBackend.evaluate_layer(layer, arch, &self.energy, &self.opts)
            }),
        };
        t.time("sim.layer_insert", Kind::Stage, || {
            self.layers.insert(key, perf.clone())
        });
        perf
    }
}

fn inline_model(request: &Request) -> Option<&Model> {
    match request {
        Request::Report { model, .. }
        | Request::Compare { model, .. }
        | Request::Asm { model, .. }
        | Request::Sweep { model, .. }
        | Request::Quantize { model, .. } => match model {
            ModelSource::External(m) => Some(m),
            ModelSource::Zoo(_) => None,
        },
        _ => None,
    }
}

/// `resolve_model`: the executed model and the 16-bit reference.
fn resolve(t: &mut Tracer, source: &ModelSource, quant: Option<&str>) -> Option<(Model, Model)> {
    t.time(
        "resolve",
        Kind::Stage,
        || -> Result<(Model, Model), String> {
            let spec = resolve_quant(quant)?;
            let (base, reference) = match source {
                ModelSource::Zoo(name) => {
                    let b = find_benchmark(name)?;
                    (b.model(), b.reference_model())
                }
                ModelSource::External(m) => (m.clone(), QuantSpec::parse("uniform16")?.apply(m)?),
            };
            Ok((spec.apply(&base)?, reference))
        },
    )
    .ok()
}

/// The `DseSpec` `Session` builds for a `dse` request.
fn dse_spec(p: &DseParams, options: SimOptions) -> Option<bitfusion_sim::DseSpec> {
    let networks: Vec<Model> = match &p.networks {
        None if !p.models.is_empty() => Vec::new(),
        None => bitfusion_dnn::zoo::Benchmark::ALL
            .iter()
            .map(|b| b.model())
            .collect(),
        Some(names) => names
            .iter()
            .map(|n| find_benchmark(n).map(|b| b.model()))
            .collect::<Result<_, _>>()
            .ok()?,
    };
    let usize_of = |v: &[u64], scale: usize| -> Option<Vec<usize>> {
        v.iter()
            .map(|&x| usize::try_from(x).ok()?.checked_mul(scale))
            .collect()
    };
    let grid = ArchGrid {
        rows: usize_of(&p.rows, 1)?,
        cols: usize_of(&p.cols, 1)?,
        ibuf_bytes: usize_of(&p.ibuf_kb, 1024)?,
        wbuf_bytes: usize_of(&p.wbuf_kb, 1024)?,
        obuf_bytes: usize_of(&p.obuf_kb, 1024)?,
        dram_bits_per_cycle: p
            .bandwidth
            .iter()
            .map(|&b| u32::try_from(b).ok())
            .collect::<Option<_>>()?,
        ..ArchGrid::from_base(ArchConfig::isca_45nm())
    };
    Some(bitfusion_sim::DseSpec {
        grid,
        models: networks
            .into_iter()
            .chain(p.models.iter().cloned())
            .collect(),
        quant_specs: p
            .quants
            .iter()
            .map(|q| QuantSpec::parse(q))
            .collect::<Result<_, _>>()
            .ok()?,
        batches: p.batches.clone(),
        options,
    })
}

/// The spec-level DSE counters of one `dse` request.
#[derive(Clone, Copy)]
struct DseCounts {
    layer_evals: u64,
    layer_unique: u64,
    compile_unique: u64,
}

/// Hits and misses of one cache tier, summed over requests.
#[derive(Default)]
struct Counted {
    hits: u64,
    misses: u64,
}

impl Counted {
    /// Adds the lookups between two snapshots of the tier's counters.
    fn add(&mut self, before: CacheStats, after: CacheStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
    }

    fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

/// What a traced replay measured.
pub struct TraceReport {
    /// Per-layer metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Untraced time not covered by stage spans, microseconds per request.
    pub unaccounted_us_per_op: f64,
    /// Wall time of the probes, milliseconds.
    pub probe_ms: f64,
    /// Requests replayed.
    pub requests: usize,
}

/// How a workload's requests share state in the replay.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sessions {
    /// One long-lived session for every request, as in `serve`.
    Shared,
    /// A fresh session per request, as in a one-shot process.
    PerRequest,
}

/// Replays `lines` untraced and traced, writes the spans to `spans_path`
/// as JSON lines, and derives the per-layer metrics.
pub fn replay(
    lines: &[String],
    sessions: Sessions,
    spans_path: &Path,
) -> Result<TraceReport, String> {
    let mut t = Tracer {
        origin: Instant::now(),
        req: 0,
        probe_depth: 0,
        probe_us: 0.0,
        spans: Vec::new(),
        counts: Vec::new(),
    };
    let mut session = Session::new();
    let mut traced = Traced::new();
    let mut untraced_us = Vec::with_capacity(lines.len());
    let mut traced_us = Vec::with_capacity(lines.len());
    let mut reply_bytes = 0usize;
    // Cache counters of the real sessions, summed over requests.
    let (mut plans, mut layers) = (Counted::default(), Counted::default());
    for (i, line) in lines.iter().enumerate() {
        if sessions == Sessions::PerRequest {
            session = Session::new();
            traced = Traced::new();
        }
        let before = (session.cache_stats(), session.layer_cache_stats());
        t.req = u32::try_from(i).map_err(|e| e.to_string())?;
        // Alternate which side runs first, so that neither always meets
        // the colder allocator and CPU caches.
        let traced_first = i % 2 == 1;
        let mut traced_time = Duration::ZERO;
        if traced_first {
            let start = Instant::now();
            traced.handle(&mut t, line);
            traced_time += start.elapsed();
        }
        let start = Instant::now();
        let response = match Request::parse(line) {
            Ok(request) => session.handle(&request),
            Err(message) => Response::Error { message },
        };
        let encoded = response.encode();
        untraced_us.push(start.elapsed().as_secs_f64() * 1e6);
        reply_bytes += encoded.len();
        let start = Instant::now();
        if !traced_first {
            traced.handle(&mut t, line);
        }
        t.time("protocol.encode", Kind::Stage, || {
            black_box(response.encode())
        });
        traced_us.push((traced_time + start.elapsed()).as_secs_f64() * 1e6);

        let (plan_stats, layer_stats) = (session.cache_stats(), session.layer_cache_stats());
        let (mirror_plans, mirror_layers) = (traced.cache.stats(), traced.layers.stats());
        // Plan lookups must match one for one. Layer lookups may not: a
        // sweep or DSE looks each distinct layer key up once, where the
        // mirror looks up every layer of every point. So the layer tier is
        // held to the same evaluations (misses) and residents.
        if plan_stats != mirror_plans
            || (layer_stats.misses, layer_stats.len) != (mirror_layers.misses, mirror_layers.len)
        {
            return Err(format!(
                "the traced mirror diverged from Session on request {i} ({line}): \
                 plan cache {mirror_plans:?} vs {plan_stats:?}, \
                 layer cache {mirror_layers:?} vs {layer_stats:?}"
            ));
        }
        plans.add(before.0, plan_stats);
        layers.add(before.1, layer_stats);
    }
    write_spans(&t, spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut m = BTreeMap::new();
    let untraced_total: f64 = untraced_us.iter().sum();
    let stage_total: f64 = t
        .spans
        .iter()
        .filter(|s| s.kind == Kind::Stage)
        .map(Span::us)
        .sum();
    m.insert("session.handle_us", median(&mut untraced_us.clone()));
    m.insert("trace.coverage", stage_total / untraced_total);
    m.insert(
        "trace.overhead",
        (traced_us.iter().sum::<f64>() - t.probe_us) / untraced_total - 1.0,
    );
    m.insert(
        "protocol.reply_kb",
        reply_bytes as f64 / 1024.0 / lines.len().max(1) as f64,
    );

    // Per-request sums of the named spans.
    let per_request = |names: &[&str]| -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for s in t.spans.iter().filter(|s| names.contains(&s.name)) {
            *sums.entry(s.req).or_default() += s.us();
        }
        sums.into_values().collect()
    };
    let parse_model: BTreeMap<u32, f64> = t
        .spans
        .iter()
        .filter(|s| s.name == "schema.parse_model")
        .map(|s| (s.req, s.us()))
        .collect();
    // `Request::parse` minus the inline-model decode it contains, which
    // belongs to resolve.
    let mut parse_self: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.name == "protocol.parse")
        .map(|s| s.us() - parse_model.get(&s.req).copied().unwrap_or(0.0))
        .collect();
    m.insert("protocol.parse_us", median(&mut parse_self));
    m.insert(
        "protocol.encode_us",
        median(&mut per_request(&["protocol.encode"])),
    );
    m.insert(
        "resolve.us",
        median(&mut per_request(&["resolve", "schema.parse_model"])),
    );
    m.insert(
        "baselines.compare_us",
        median(&mut per_request(&[
            "baselines.eyeriss",
            "baselines.stripes",
            "baselines.gpu",
        ])),
    );
    let per_call = |name: &str| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    };
    for (metric, span) in [
        ("compiler.compile_us", "compiler.compile"),
        ("isa.program_build_us", "isa.program_build"),
        ("sim.analytic_layer_us", "sim.analytic_layer"),
        ("sim.event_layer_us", "sim.event_layer"),
        ("energy.layer_us", "energy.layer"),
    ] {
        m.insert(metric, median(&mut per_call(span)));
    }
    m.insert("compiler.plan_hit_rate", plans.hit_rate());
    m.insert("sim.layer_hit_rate", layers.hit_rate());
    m.insert(
        "dse.explore_1w_ms",
        median(&mut per_call("dse.explore_1w")) / 1e3,
    );
    m.insert(
        "dse.explore_2w_ms",
        median(&mut per_call("dse.explore_2w")) / 1e3,
    );
    if let Some(c) = t.counts.first() {
        m.insert("dse.layer_evals", c.layer_evals as f64);
        m.insert("dse.layer_unique", c.layer_unique as f64);
        m.insert("dse.compile_unique", c.compile_unique as f64);
    }
    // A layer that is not on this workload's path reads 0.
    for v in m.values_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    Ok(TraceReport {
        metrics: m,
        unaccounted_us_per_op: (untraced_total - stage_total) / lines.len().max(1) as f64,
        probe_ms: t.probe_us / 1e3,
        requests: lines.len(),
    })
}

fn write_spans(t: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let at = |i: Instant| (i - t.origin).as_secs_f64() * 1e6;
    for s in &t.spans {
        writeln!(
            out,
            r#"{{"req":{},"name":"{}","kind":"{}","start_us":{:.3},"end_us":{:.3}}}"#,
            s.req,
            s.name,
            if s.kind == Kind::Stage {
                "stage"
            } else {
                "probe"
            },
            at(s.start),
            at(s.end)
        )?;
    }
    out.flush()
}
