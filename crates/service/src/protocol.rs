//! The typed request/response protocol every evaluation path speaks.
//!
//! A [`Request`] names one operation the reproduction can perform —
//! the same seven the CLI exposes (`list`, `report`, `compare`, `asm`,
//! `sweep`, `dse`, `quantize`) — and a [`Response`] carries its full
//! machine-readable result. Both sides round-trip through the deterministic JSON layer
//! ([`crate::json`]): `encode ∘ parse ∘ encode` is a fixed point for every
//! variant (property-tested), and the wire form is a single line, so the
//! `serve` loop's JSON-lines framing and the one-shot `--json` flag emit
//! byte-identical documents.
//!
//! Wire shape: requests are objects with a `"cmd"` discriminant
//! (`{"cmd":"report","benchmark":"LSTM",...}`), responses with a
//! `"reply"` discriminant mirroring the request that produced them, plus
//! `{"reply":"error","message":...}` for failures. Optional fields are
//! omitted when absent; absent fields parse to their documented defaults,
//! so hand-written requests can stay terse.

use bitfusion_dnn::model::Model;
use bitfusion_dnn::quantspec::QuantSpec;
use bitfusion_dnn::schema::{export_model, model_from_json};

use crate::json::{parse as parse_json, Json};

/// Converts a [`QuantSpec`] to its JSON document: `{"preset":"uniform8"}`
/// for named presets, or the explicit
/// `{"default":"4/1","kinds":[{"kind":"conv","precision":"2/2"}],
/// "layers":[{"layer":"fc8","precision":"8/8"}]}` form (absent fields
/// omitted). `encode ∘ parse ∘ encode` is a fixed point (property-tested
/// in `tests/protocol_roundtrip.rs`).
pub fn quant_spec_to_json(spec: &QuantSpec) -> Json {
    let text = spec.to_string();
    if !text.contains('=') {
        // The canonical spelling is a preset name (`paper`, `uniformN`).
        return Json::obj(vec![("preset", Json::Str(text))]);
    }
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if let Some(p) = spec.default {
        pairs.push(("default", Json::Str(p.compact())));
    }
    if !spec.kinds.is_empty() {
        pairs.push((
            "kinds",
            Json::Arr(
                spec.kinds
                    .iter()
                    .map(|(kind, p)| {
                        Json::obj(vec![
                            ("kind", Json::Str(kind.clone())),
                            ("precision", Json::Str(p.compact())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !spec.layers.is_empty() {
        pairs.push((
            "layers",
            Json::Arr(
                spec.layers
                    .iter()
                    .map(|(layer, p)| {
                        Json::obj(vec![
                            ("layer", Json::Str(layer.clone())),
                            ("precision", Json::Str(p.compact())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(pairs)
}

/// Reads a [`QuantSpec`] back from its JSON document (either form
/// [`quant_spec_to_json`] emits). This is also the format of the
/// `--quant <spec.json>` files the CLI accepts.
///
/// # Errors
///
/// Names the missing or ill-typed field, or the invalid precision/kind.
pub fn quant_spec_from_json(doc: &Json) -> Result<QuantSpec, String> {
    if let Some(preset) = doc.get("preset") {
        let preset = preset.as_str().ok_or("preset must be a string")?;
        if doc.get("default").is_some()
            || doc.get("kinds").is_some()
            || doc.get("layers").is_some()
        {
            return Err("a quant spec is either a preset or explicit fields, not both".into());
        }
        return QuantSpec::parse(preset);
    }
    let precision_of = |entry: &Json, clause: &str| -> Result<_, String> {
        let p = entry
            .get("precision")
            .and_then(Json::as_str)
            .ok_or(format!("{clause} entry needs a string `precision`"))?;
        p.parse()
            .map_err(|_| format!("bad precision `{p}` in {clause} entry (e.g. `4/1`)"))
    };
    let mut spec = QuantSpec::default();
    if let Some(d) = doc.get("default") {
        let d = d.as_str().ok_or("default must be a string like `4/1`")?;
        spec.default =
            Some(d.parse().map_err(|_| format!("bad default precision `{d}` (e.g. `4/1`)"))?);
    }
    if let Some(kinds) = doc.get("kinds") {
        for entry in kinds.as_arr().ok_or("kinds must be an array")? {
            let kind = entry
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("kinds entry needs a string `kind`")?;
            if !bitfusion_dnn::quantspec::QUANT_KINDS.contains(&kind) {
                return Err(format!(
                    "unknown kind `{kind}` (expected one of: {})",
                    bitfusion_dnn::quantspec::QUANT_KINDS.join(", ")
                ));
            }
            spec.kinds.push((kind.to_string(), precision_of(entry, "kinds")?));
        }
    }
    if let Some(layers) = doc.get("layers") {
        for entry in layers.as_arr().ok_or("layers must be an array")? {
            let layer = entry
                .get("layer")
                .and_then(Json::as_str)
                .ok_or("layers entry needs a string `layer`")?;
            if layer.is_empty() {
                return Err("layers entry has an empty layer name".into());
            }
            spec.layers
                .push((layer.to_string(), precision_of(entry, "layers")?));
        }
    }
    if spec.is_paper() {
        return Err(
            "empty quant spec (use {\"preset\":\"paper\"} for the identity assignment)".into(),
        );
    }
    Ok(spec)
}

/// Which simulation backend evaluates a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// The closed-form analytic model (the default: cheap, sweep-friendly).
    Analytic,
    /// The trace-driven event model (stall attribution, occupancy).
    Event,
}

impl BackendChoice {
    /// Wire / CLI spelling.
    pub const fn as_str(self) -> &'static str {
        match self {
            BackendChoice::Analytic => "analytic",
            BackendChoice::Event => "event",
        }
    }

    /// Parses the wire / CLI spelling.
    ///
    /// # Errors
    ///
    /// Names the unknown value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "analytic" => Ok(BackendChoice::Analytic),
            "event" => Ok(BackendChoice::Event),
            other => Err(format!("unknown backend `{other}` (analytic|event)")),
        }
    }
}

/// Which preset architecture a `report`/`asm` request runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArchPreset {
    /// The paper's 45 nm, 512-Fusion-Unit configuration.
    #[default]
    Isca45nm,
    /// The 16 nm GPU-comparison configuration.
    Gpu16nm,
    /// The Stripes-matched configuration (980 MHz).
    StripesMatched,
}

impl ArchPreset {
    /// Wire / CLI spelling.
    pub const fn as_str(self) -> &'static str {
        match self {
            ArchPreset::Isca45nm => "45nm",
            ArchPreset::Gpu16nm => "16nm",
            ArchPreset::StripesMatched => "stripes",
        }
    }

    /// Parses the wire / CLI spelling.
    ///
    /// # Errors
    ///
    /// Names the unknown value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "45nm" => Ok(ArchPreset::Isca45nm),
            "16nm" => Ok(ArchPreset::Gpu16nm),
            "stripes" => Ok(ArchPreset::StripesMatched),
            other => Err(format!("unknown arch `{other}` (45nm|16nm|stripes)")),
        }
    }
}

/// Which axis a `sweep` request walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Batch size at fixed architecture (Figure 16).
    Batch,
    /// Off-chip bandwidth at fixed batch (Figure 15).
    Bandwidth,
}

impl SweepAxis {
    /// Wire / CLI spelling.
    pub const fn as_str(self) -> &'static str {
        match self {
            SweepAxis::Batch => "batch",
            SweepAxis::Bandwidth => "bandwidth",
        }
    }

    /// Parses the wire / CLI spelling.
    ///
    /// # Errors
    ///
    /// Names the unknown value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "batch" => Ok(SweepAxis::Batch),
            "bandwidth" => Ok(SweepAxis::Bandwidth),
            other => Err(format!("unknown sweep axis `{other}` (batch|bandwidth)")),
        }
    }
}

/// What a simulating request runs: a zoo benchmark by name, or an
/// external model carried inline as its `bitfusion-model/1` document.
///
/// On the wire the two spellings are mutually exclusive fields of the
/// request object — `"benchmark":"lstm"` names a zoo network,
/// `"model":{"format":"bitfusion-model/1",...}` embeds an external one
/// (the same document `--model model.json` reads from disk). A request
/// carrying both, or neither, is rejected by name.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSource {
    /// A benchmark of the built-in zoo, resolved case-insensitively.
    Zoo(String),
    /// A parsed external model (the `--model model.json` path). External
    /// models flow through the same caches as zoo networks, keyed by
    /// structural fingerprint — never by display name.
    External(Model),
}

impl ModelSource {
    /// A zoo source by name.
    pub fn zoo(name: impl Into<String>) -> Self {
        ModelSource::Zoo(name.into())
    }

    /// The name shown in replies and error messages (the zoo name as
    /// given, or the external model's own `name`).
    pub fn display_name(&self) -> &str {
        match self {
            ModelSource::Zoo(name) => name,
            ModelSource::External(m) => &m.name,
        }
    }

    /// Pushes the wire field: `"benchmark":"name"` for zoo sources, or
    /// `"model":{…}` (the full model document) for external ones.
    fn push_wire_field(&self, pairs: &mut Vec<(&str, Json)>) {
        match self {
            ModelSource::Zoo(name) => pairs.push(("benchmark", Json::Str(name.clone()))),
            ModelSource::External(m) => pairs.push(("model", export_model(m))),
        }
    }

    /// Reads the source from a request document: exactly one of
    /// `benchmark` (a zoo name) or `model` (an inline model document).
    fn from_doc(doc: &Json) -> Result<Self, String> {
        match (doc.get("benchmark"), doc.get("model")) {
            (Some(_), Some(_)) => {
                Err("give either `benchmark` or `model`, not both".to_string())
            }
            (None, None) => Err("missing field `benchmark` (or an inline `model`)".to_string()),
            (Some(b), None) => Ok(ModelSource::Zoo(
                b.as_str()
                    .map(str::to_string)
                    .ok_or("field `benchmark` must be a string")?,
            )),
            (None, Some(m)) => Ok(ModelSource::External(model_from_json(m)?)),
        }
    }
}

/// Parameters of a `dse` request: the architecture grid (comma lists on
/// the CLI, arrays on the wire) crossed with networks and batch sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct DseParams {
    /// Array-row candidates.
    pub rows: Vec<u64>,
    /// Array-column candidates.
    pub cols: Vec<u64>,
    /// IBUF capacities in KB.
    pub ibuf_kb: Vec<u64>,
    /// WBUF capacities in KB.
    pub wbuf_kb: Vec<u64>,
    /// OBUF capacities in KB.
    pub obuf_kb: Vec<u64>,
    /// Off-chip bandwidths in bits/cycle.
    pub bandwidth: Vec<u64>,
    /// Batch sizes.
    pub batches: Vec<u64>,
    /// Quantization policies (compact spellings: presets or clause
    /// lists), crossed with every network.
    pub quants: Vec<String>,
    /// Benchmark names, or `None` for the whole zoo (or, when external
    /// `models` are given and no networks are named, none of the zoo).
    pub networks: Option<Vec<String>>,
    /// External models explored alongside the named networks (wire:
    /// `"models":[{model doc},...]`, CLI: repeated `--model` flags).
    pub models: Vec<Model>,
    /// Worker threads (0 = all cores).
    pub workers: u64,
    /// Backend override (session default when absent).
    pub backend: Option<BackendChoice>,
}

impl Default for DseParams {
    fn default() -> Self {
        DseParams {
            rows: vec![16, 32],
            cols: vec![8, 16],
            ibuf_kb: vec![32],
            wbuf_kb: vec![64],
            obuf_kb: vec![16],
            bandwidth: vec![64, 128, 256],
            batches: vec![16],
            quants: vec!["paper".to_string()],
            networks: None,
            models: Vec::new(),
            workers: 0,
            backend: None,
        }
    }
}

/// One operation the service can perform.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enumerate the benchmark zoo and preset architectures.
    List,
    /// Simulate one model on one architecture.
    Report {
        /// What to run: a zoo benchmark or an external model.
        model: ModelSource,
        /// Batch size.
        batch: u64,
        /// Off-chip bandwidth override in bits/cycle.
        bandwidth: Option<u32>,
        /// Preset architecture.
        arch: ArchPreset,
        /// Backend override (session default when absent).
        backend: Option<BackendChoice>,
        /// Quantization override (compact spelling; paper assignment when
        /// absent).
        quant: Option<String>,
    },
    /// Compare one model against the Eyeriss/Stripes/GPU baselines.
    Compare {
        /// What to run: a zoo benchmark or an external model.
        model: ModelSource,
        /// Batch size.
        batch: u64,
        /// Backend override (session default when absent).
        backend: Option<BackendChoice>,
        /// Quantization override for the Bit Fusion and Stripes sides
        /// (the 16-bit Eyeriss/GPU references are precision-blind).
        quant: Option<String>,
    },
    /// Dump the compiled Fusion-ISA assembly.
    Asm {
        /// What to compile: a zoo benchmark or an external model.
        model: ModelSource,
        /// Batch size.
        batch: u64,
        /// Preset architecture the code is compiled for.
        arch: ArchPreset,
        /// Restrict output to one layer.
        layer: Option<String>,
    },
    /// Walk one sensitivity axis (Figure 15/16).
    Sweep {
        /// What to run: a zoo benchmark or an external model.
        model: ModelSource,
        /// The swept axis.
        axis: SweepAxis,
        /// Backend override (session default when absent).
        backend: Option<BackendChoice>,
        /// Quantization override (paper assignment when absent).
        quant: Option<String>,
    },
    /// Explore an architecture grid and reduce to a Pareto frontier.
    Dse(DseParams),
    /// Show what a quantization policy assigns to one model's layers.
    Quantize {
        /// What to quantize: a zoo benchmark or an external model.
        model: ModelSource,
        /// Quantization policy (compact spelling; paper assignment when
        /// absent).
        quant: Option<String>,
    },
    /// Live server counters: cache tiers, admission queue, coalescing,
    /// latency percentiles. Answered by the network server
    /// (`serve --listen`/`--unix`); a plain [`crate::Session`] has no
    /// server counters and answers with an error. The reply is the one
    /// deliberate exception to the byte-determinism contract — it reports
    /// live state, so identical `stats` requests may differ.
    Stats,
    /// Admin request: stop accepting connections, drain in-flight work,
    /// exit. Only honoured over a unix socket (a remote TCP client must
    /// not be able to stop the server); elsewhere it answers an error.
    Shutdown,
}

impl Request {
    /// The request's `cmd` discriminant (also the CLI subcommand name).
    pub const fn cmd(&self) -> &'static str {
        match self {
            Request::List => "list",
            Request::Report { .. } => "report",
            Request::Compare { .. } => "compare",
            Request::Asm { .. } => "asm",
            Request::Sweep { .. } => "sweep",
            Request::Dse(_) => "dse",
            Request::Quantize { .. } => "quantize",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Converts to the wire document.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("cmd", Json::Str(self.cmd().to_string()))];
        match self {
            Request::List => {}
            Request::Report {
                model,
                batch,
                bandwidth,
                arch,
                backend,
                quant,
            } => {
                model.push_wire_field(&mut pairs);
                pairs.push(("batch", Json::uint(*batch)));
                if let Some(bw) = bandwidth {
                    pairs.push(("bandwidth", Json::uint(*bw as u64)));
                }
                pairs.push(("arch", Json::Str(arch.as_str().to_string())));
                if let Some(b) = backend {
                    pairs.push(("backend", Json::Str(b.as_str().to_string())));
                }
                if let Some(q) = quant {
                    pairs.push(("quant", Json::Str(q.clone())));
                }
            }
            Request::Compare {
                model,
                batch,
                backend,
                quant,
            } => {
                model.push_wire_field(&mut pairs);
                pairs.push(("batch", Json::uint(*batch)));
                if let Some(b) = backend {
                    pairs.push(("backend", Json::Str(b.as_str().to_string())));
                }
                if let Some(q) = quant {
                    pairs.push(("quant", Json::Str(q.clone())));
                }
            }
            Request::Asm {
                model,
                batch,
                arch,
                layer,
            } => {
                model.push_wire_field(&mut pairs);
                pairs.push(("batch", Json::uint(*batch)));
                pairs.push(("arch", Json::Str(arch.as_str().to_string())));
                if let Some(l) = layer {
                    pairs.push(("layer", Json::Str(l.clone())));
                }
            }
            Request::Sweep {
                model,
                axis,
                backend,
                quant,
            } => {
                model.push_wire_field(&mut pairs);
                pairs.push(("axis", Json::Str(axis.as_str().to_string())));
                if let Some(b) = backend {
                    pairs.push(("backend", Json::Str(b.as_str().to_string())));
                }
                if let Some(q) = quant {
                    pairs.push(("quant", Json::Str(q.clone())));
                }
            }
            Request::Dse(p) => {
                pairs.push(("rows", uint_arr(&p.rows)));
                pairs.push(("cols", uint_arr(&p.cols)));
                pairs.push(("ibuf_kb", uint_arr(&p.ibuf_kb)));
                pairs.push(("wbuf_kb", uint_arr(&p.wbuf_kb)));
                pairs.push(("obuf_kb", uint_arr(&p.obuf_kb)));
                pairs.push(("bandwidth", uint_arr(&p.bandwidth)));
                pairs.push(("batches", uint_arr(&p.batches)));
                pairs.push((
                    "quants",
                    Json::Arr(p.quants.iter().map(|q| Json::Str(q.clone())).collect()),
                ));
                if let Some(networks) = &p.networks {
                    pairs.push((
                        "networks",
                        Json::Arr(networks.iter().map(|n| Json::Str(n.clone())).collect()),
                    ));
                }
                if !p.models.is_empty() {
                    pairs.push((
                        "models",
                        Json::Arr(p.models.iter().map(export_model).collect()),
                    ));
                }
                pairs.push(("workers", Json::uint(p.workers)));
                if let Some(b) = p.backend {
                    pairs.push(("backend", Json::Str(b.as_str().to_string())));
                }
            }
            Request::Quantize { model, quant } => {
                model.push_wire_field(&mut pairs);
                if let Some(q) = quant {
                    pairs.push(("quant", Json::Str(q.clone())));
                }
            }
            Request::Stats | Request::Shutdown => {}
        }
        Json::obj(pairs)
    }

    /// Encodes to the single-line wire form.
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    /// Reads a request back from a wire document.
    ///
    /// # Errors
    ///
    /// Describes the missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let cmd = str_field(doc, "cmd")?;
        // Reject unrecognized keys: a typo'd field (`bacth`) must be an
        // error, not a silently applied default, mirroring the CLI's
        // unknown-flag behaviour.
        let allowed: &[&str] = match cmd.as_str() {
            "list" => &[],
            "report" => &[
                "benchmark", "model", "batch", "bandwidth", "arch", "backend", "quant",
            ],
            "compare" => &["benchmark", "model", "batch", "backend", "quant"],
            "asm" => &["benchmark", "model", "batch", "arch", "layer"],
            "sweep" => &["benchmark", "model", "axis", "backend", "quant"],
            "dse" => &[
                "rows", "cols", "ibuf_kb", "wbuf_kb", "obuf_kb", "bandwidth", "batches",
                "quants", "networks", "models", "workers", "backend",
            ],
            "quantize" => &["benchmark", "model", "quant"],
            "stats" => &[],
            "shutdown" => &[],
            other => {
                return Err(format!(
                    "unknown cmd `{other}` (list|report|compare|asm|sweep|dse|quantize|stats|shutdown)"
                ))
            }
        };
        if let Json::Obj(pairs) = doc {
            for (k, _) in pairs {
                if k != "cmd" && !allowed.contains(&k.as_str()) {
                    return Err(if allowed.is_empty() {
                        format!("unknown field `{k}` for `{cmd}` (takes no fields)")
                    } else {
                        format!(
                            "unknown field `{k}` for `{cmd}` (allowed: {})",
                            allowed.join(", ")
                        )
                    });
                }
            }
        }
        match cmd.as_str() {
            "list" => Ok(Request::List),
            "report" => Ok(Request::Report {
                model: ModelSource::from_doc(doc)?,
                batch: opt_u64_field(doc, "batch")?.unwrap_or(16),
                bandwidth: match opt_u64_field(doc, "bandwidth")? {
                    Some(bw) => Some(
                        u32::try_from(bw).map_err(|_| "bandwidth out of range".to_string())?,
                    ),
                    None => None,
                },
                arch: match opt_str_field(doc, "arch")? {
                    Some(s) => ArchPreset::parse(&s)?,
                    None => ArchPreset::default(),
                },
                backend: opt_backend(doc)?,
                quant: opt_str_field(doc, "quant")?,
            }),
            "compare" => Ok(Request::Compare {
                model: ModelSource::from_doc(doc)?,
                batch: opt_u64_field(doc, "batch")?.unwrap_or(16),
                backend: opt_backend(doc)?,
                quant: opt_str_field(doc, "quant")?,
            }),
            "asm" => Ok(Request::Asm {
                model: ModelSource::from_doc(doc)?,
                batch: opt_u64_field(doc, "batch")?.unwrap_or(16),
                arch: match opt_str_field(doc, "arch")? {
                    Some(s) => ArchPreset::parse(&s)?,
                    None => ArchPreset::default(),
                },
                layer: opt_str_field(doc, "layer")?,
            }),
            "sweep" => Ok(Request::Sweep {
                model: ModelSource::from_doc(doc)?,
                axis: SweepAxis::parse(&str_field(doc, "axis")?)?,
                backend: opt_backend(doc)?,
                quant: opt_str_field(doc, "quant")?,
            }),
            "dse" => {
                let d = DseParams::default();
                Ok(Request::Dse(DseParams {
                    rows: opt_uint_arr(doc, "rows")?.unwrap_or(d.rows),
                    cols: opt_uint_arr(doc, "cols")?.unwrap_or(d.cols),
                    ibuf_kb: opt_uint_arr(doc, "ibuf_kb")?.unwrap_or(d.ibuf_kb),
                    wbuf_kb: opt_uint_arr(doc, "wbuf_kb")?.unwrap_or(d.wbuf_kb),
                    obuf_kb: opt_uint_arr(doc, "obuf_kb")?.unwrap_or(d.obuf_kb),
                    bandwidth: opt_uint_arr(doc, "bandwidth")?.unwrap_or(d.bandwidth),
                    batches: opt_uint_arr(doc, "batches")?.unwrap_or(d.batches),
                    quants: match doc.get("quants") {
                        None => d.quants,
                        Some(v) => v
                            .as_arr()
                            .ok_or("quants must be an array")?
                            .iter()
                            .map(|q| {
                                q.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| "quants entries must be strings".to_string())
                            })
                            .collect::<Result<_, _>>()?,
                    },
                    networks: match doc.get("networks") {
                        None => None,
                        Some(v) => Some(
                            v.as_arr()
                                .ok_or("networks must be an array")?
                                .iter()
                                .map(|n| {
                                    n.as_str()
                                        .map(str::to_string)
                                        .ok_or_else(|| "networks entries must be strings".to_string())
                                })
                                .collect::<Result<_, _>>()?,
                        ),
                    },
                    models: match doc.get("models") {
                        None => Vec::new(),
                        Some(v) => v
                            .as_arr()
                            .ok_or("models must be an array")?
                            .iter()
                            .map(model_from_json)
                            .collect::<Result<_, _>>()?,
                    },
                    workers: opt_u64_field(doc, "workers")?.unwrap_or(0),
                    backend: opt_backend(doc)?,
                }))
            }
            "quantize" => Ok(Request::Quantize {
                model: ModelSource::from_doc(doc)?,
                quant: opt_str_field(doc, "quant")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown cmd `{other}` (list|report|compare|asm|sweep|dse|quantize|stats|shutdown)"
            )),
        }
    }

    /// Parses a request from its wire text.
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors with a byte offset, and protocol errors
    /// naming the offending field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Request::from_json(&doc)
    }
}

/// An architecture as the protocol reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchInfo {
    /// Configuration name.
    pub name: String,
    /// Array rows.
    pub rows: u64,
    /// Array columns.
    pub cols: u64,
    /// IBUF capacity in KB.
    pub ibuf_kb: u64,
    /// WBUF capacity in KB.
    pub wbuf_kb: u64,
    /// OBUF capacity in KB.
    pub obuf_kb: u64,
    /// Off-chip bandwidth in bits/cycle.
    pub bandwidth_bits_per_cycle: u64,
    /// Clock frequency in MHz.
    pub freq_mhz: u64,
}

impl ArchInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("rows", Json::uint(self.rows)),
            ("cols", Json::uint(self.cols)),
            ("ibuf_kb", Json::uint(self.ibuf_kb)),
            ("wbuf_kb", Json::uint(self.wbuf_kb)),
            ("obuf_kb", Json::uint(self.obuf_kb)),
            (
                "bandwidth_bits_per_cycle",
                Json::uint(self.bandwidth_bits_per_cycle),
            ),
            ("freq_mhz", Json::uint(self.freq_mhz)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(ArchInfo {
            name: str_field(doc, "name")?,
            rows: u64_field(doc, "rows")?,
            cols: u64_field(doc, "cols")?,
            ibuf_kb: u64_field(doc, "ibuf_kb")?,
            wbuf_kb: u64_field(doc, "wbuf_kb")?,
            obuf_kb: u64_field(doc, "obuf_kb")?,
            bandwidth_bits_per_cycle: u64_field(doc, "bandwidth_bits_per_cycle")?,
            freq_mhz: u64_field(doc, "freq_mhz")?,
        })
    }
}

/// An energy breakdown on the wire (the Figure 14 categories, in pJ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyInfo {
    /// Datapath energy.
    pub compute_pj: f64,
    /// On-chip buffer energy.
    pub buffer_pj: f64,
    /// Register/pipeline-register energy.
    pub rf_pj: f64,
    /// Off-chip DRAM energy.
    pub dram_pj: f64,
}

impl EnergyInfo {
    /// Total across the four categories.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.buffer_pj + self.rf_pj + self.dram_pj
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("compute_pj", Json::float(self.compute_pj)),
            ("buffer_pj", Json::float(self.buffer_pj)),
            ("rf_pj", Json::float(self.rf_pj)),
            ("dram_pj", Json::float(self.dram_pj)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(EnergyInfo {
            compute_pj: f64_field(doc, "compute_pj")?,
            buffer_pj: f64_field(doc, "buffer_pj")?,
            rf_pj: f64_field(doc, "rf_pj")?,
            dram_pj: f64_field(doc, "dram_pj")?,
        })
    }
}

/// Stall attribution on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallInfo {
    /// Cycles the array starved for off-chip data.
    pub bandwidth_starved: u64,
    /// Cycles the DMA engine waited on compute.
    pub compute_starved: u64,
    /// Systolic fill/drain cycles.
    pub fill_drain: u64,
}

impl StallInfo {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("bandwidth_starved", Json::uint(self.bandwidth_starved)),
            ("compute_starved", Json::uint(self.compute_starved)),
            ("fill_drain", Json::uint(self.fill_drain)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(StallInfo {
            bandwidth_starved: u64_field(doc, "bandwidth_starved")?,
            compute_starved: u64_field(doc, "compute_starved")?,
            fill_drain: u64_field(doc, "fill_drain")?,
        })
    }
}

/// One layer's result inside a [`Response::Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerInfo {
    /// Layer/group name.
    pub name: String,
    /// Total cycles.
    pub cycles: u64,
    /// Compute-model cycles.
    pub compute_cycles: u64,
    /// DMA-model cycles.
    pub dma_cycles: u64,
    /// Multiply-accumulates.
    pub macs: u64,
    /// Off-chip bits moved.
    pub dram_bits: u64,
    /// Whether the layer was bandwidth-bound.
    pub bandwidth_bound: bool,
}

impl LayerInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("cycles", Json::uint(self.cycles)),
            ("compute_cycles", Json::uint(self.compute_cycles)),
            ("dma_cycles", Json::uint(self.dma_cycles)),
            ("macs", Json::uint(self.macs)),
            ("dram_bits", Json::uint(self.dram_bits)),
            ("bandwidth_bound", Json::Bool(self.bandwidth_bound)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(LayerInfo {
            name: str_field(doc, "name")?,
            cycles: u64_field(doc, "cycles")?,
            compute_cycles: u64_field(doc, "compute_cycles")?,
            dma_cycles: u64_field(doc, "dma_cycles")?,
            macs: u64_field(doc, "macs")?,
            dram_bits: u64_field(doc, "dram_bits")?,
            bandwidth_bound: doc
                .get("bandwidth_bound")
                .and_then(Json::as_bool)
                .ok_or("missing field `bandwidth_bound`")?,
        })
    }
}

/// One zoo entry inside a [`Response::Benchmarks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Display name.
    pub name: String,
    /// Layer count.
    pub layers: u64,
    /// MACs per input.
    pub macs: u64,
    /// Weight storage in bytes.
    pub weight_bytes: u64,
}

impl BenchmarkInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("layers", Json::uint(self.layers)),
            ("macs", Json::uint(self.macs)),
            ("weight_bytes", Json::uint(self.weight_bytes)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(BenchmarkInfo {
            name: str_field(doc, "name")?,
            layers: u64_field(doc, "layers")?,
            macs: u64_field(doc, "macs")?,
            weight_bytes: u64_field(doc, "weight_bytes")?,
        })
    }
}

/// The full result of a `report` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportReply {
    /// Benchmark display name.
    pub benchmark: String,
    /// Batch size simulated.
    pub batch: u64,
    /// Backend that ran.
    pub backend: BackendChoice,
    /// Quantization override the request named (canonical spelling),
    /// absent for the paper default.
    pub quant: Option<String>,
    /// The architecture simulated.
    pub arch: ArchInfo,
    /// Total cycles for the batch.
    pub cycles: u64,
    /// Total MACs.
    pub macs: u64,
    /// Total off-chip bits.
    pub dram_bits: u64,
    /// Latency per input in milliseconds.
    pub latency_ms_per_input: f64,
    /// Achieved MACs per cycle.
    pub macs_per_cycle: f64,
    /// Energy per input.
    pub energy_per_input: EnergyInfo,
    /// Whole-run stall attribution.
    pub stalls: StallInfo,
    /// Layer evaluations answered by a layer-tier key another layer of the
    /// same plan also resolves to (repeated shapes — e.g. ResNet basic
    /// blocks). Spec-level and warmth-independent, like
    /// [`DseReply::compile_hits`].
    pub layer_hits: u64,
    /// Unique layer-tier keys the plan resolves to — the evaluations a
    /// cold session would perform.
    pub layer_misses: u64,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerInfo>,
}

/// One baseline entry inside a [`Response::Compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// Baseline name.
    pub name: String,
    /// Bit Fusion's speedup over the baseline.
    pub speedup: f64,
    /// Baseline-energy / BitFusion-energy, when the baseline has an energy
    /// model.
    pub energy_ratio: Option<f64>,
}

impl BaselineComparison {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("speedup", Json::float(self.speedup)),
        ];
        if let Some(r) = self.energy_ratio {
            pairs.push(("energy_ratio", Json::float(r)));
        }
        Json::obj(pairs)
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(BaselineComparison {
            name: str_field(doc, "name")?,
            speedup: f64_field(doc, "speedup")?,
            energy_ratio: match doc.get("energy_ratio") {
                None => None,
                Some(v) => Some(v.as_f64().ok_or("energy_ratio must be a number")?),
            },
        })
    }
}

/// The full result of a `compare` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReply {
    /// Benchmark display name.
    pub benchmark: String,
    /// Batch size.
    pub batch: u64,
    /// Backend that ran the Bit Fusion side.
    pub backend: BackendChoice,
    /// Quantization override applied to the Bit Fusion and Stripes sides,
    /// absent for the paper default.
    pub quant: Option<String>,
    /// Bit Fusion latency per input, 45 nm configuration, in ms.
    pub latency_ms_per_input: f64,
    /// Bit Fusion energy per input, 45 nm configuration.
    pub energy_per_input: EnergyInfo,
    /// Per-baseline comparisons.
    pub baselines: Vec<BaselineComparison>,
}

/// One disassembled block inside a [`Response::Asm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmBlock {
    /// Layer/group name the block implements.
    pub layer: String,
    /// Fusion-ISA assembly text.
    pub text: String,
}

/// The full result of an `asm` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmReply {
    /// Benchmark display name.
    pub benchmark: String,
    /// Batch size compiled for.
    pub batch: u64,
    /// Blocks in execution order (filtered when the request named a layer).
    pub blocks: Vec<AsmBlock>,
}

/// One point inside a [`Response::Sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPointInfo {
    /// The swept value (batch size or bits/cycle).
    pub value: u64,
    /// Total cycles at that value.
    pub cycles: u64,
    /// Cycles per input at that value.
    pub cycles_per_input: f64,
    /// Speedup vs the axis baseline (total for bandwidth, per-input for
    /// batch).
    pub speedup: f64,
}

impl SweepPointInfo {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("value", Json::uint(self.value)),
            ("cycles", Json::uint(self.cycles)),
            ("cycles_per_input", Json::float(self.cycles_per_input)),
            ("speedup", Json::float(self.speedup)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(SweepPointInfo {
            value: u64_field(doc, "value")?,
            cycles: u64_field(doc, "cycles")?,
            cycles_per_input: f64_field(doc, "cycles_per_input")?,
            speedup: f64_field(doc, "speedup")?,
        })
    }
}

/// The full result of a `sweep` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReply {
    /// Benchmark display name.
    pub benchmark: String,
    /// The swept axis.
    pub axis: SweepAxis,
    /// Backend that ran.
    pub backend: BackendChoice,
    /// Quantization override the request named, absent for the paper
    /// default.
    pub quant: Option<String>,
    /// The baseline value speedups are relative to.
    pub baseline: u64,
    /// Layer evaluations across the sweep answered by a layer-tier key
    /// another layer of the same sweep also resolves to. Spec-level and
    /// warmth-independent, like [`DseReply::compile_hits`].
    pub layer_hits: u64,
    /// Unique layer-tier keys the sweep resolves to.
    pub layer_misses: u64,
    /// Points in sweep order.
    pub points: Vec<SweepPointInfo>,
}

/// One Pareto-frontier entry inside a [`Response::Dse`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The architecture.
    pub arch: ArchInfo,
    /// Quantization policy of the candidate (canonical spelling).
    pub quant: String,
    /// Cycles summed over the workload suite.
    pub cycles: u64,
    /// Energy summed over the workload suite, in pJ.
    pub energy_pj: f64,
    /// Chip area in mm².
    pub area_mm2: f64,
    /// Bandwidth-starved stall cycles over the suite.
    pub bandwidth_starved: u64,
    /// Compute-starved stall cycles over the suite.
    pub compute_starved: u64,
}

impl FrontierPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("arch", self.arch.to_json()),
            ("quant", Json::Str(self.quant.clone())),
            ("cycles", Json::uint(self.cycles)),
            ("energy_pj", Json::float(self.energy_pj)),
            ("area_mm2", Json::float(self.area_mm2)),
            ("bandwidth_starved", Json::uint(self.bandwidth_starved)),
            ("compute_starved", Json::uint(self.compute_starved)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(FrontierPoint {
            arch: ArchInfo::from_json(doc.get("arch").ok_or("missing field `arch`")?)?,
            quant: str_field(doc, "quant")?,
            cycles: u64_field(doc, "cycles")?,
            energy_pj: f64_field(doc, "energy_pj")?,
            area_mm2: f64_field(doc, "area_mm2")?,
            bandwidth_starved: u64_field(doc, "bandwidth_starved")?,
            compute_starved: u64_field(doc, "compute_starved")?,
        })
    }
}

/// One infeasible corner reported inside a [`Response::Dse`] (the reply
/// carries a bounded sample; the count covers the rest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibleInfo {
    /// Network that failed at this corner.
    pub model: String,
    /// The architecture, in its display form.
    pub arch: String,
    /// Why the point is infeasible.
    pub error: String,
}

impl InfeasibleInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", Json::Str(self.model.clone())),
            ("arch", Json::Str(self.arch.clone())),
            ("error", Json::Str(self.error.clone())),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(InfeasibleInfo {
            model: str_field(doc, "model")?,
            arch: str_field(doc, "arch")?,
            error: str_field(doc, "error")?,
        })
    }
}

/// One entry of a `dse` reply's quantization comparison: how one policy
/// fares against the baseline on one network, summed over every
/// architecture and batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSpeedupInfo {
    /// Network name.
    pub model: String,
    /// The candidate quantization policy.
    pub quant: String,
    /// `baseline cycles / candidate cycles` (> 1 means faster).
    pub speedup: f64,
    /// `baseline energy / candidate energy` (> 1 means less energy).
    pub energy_ratio: f64,
}

impl QuantSpeedupInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", Json::Str(self.model.clone())),
            ("quant", Json::Str(self.quant.clone())),
            ("speedup", Json::float(self.speedup)),
            ("energy_ratio", Json::float(self.energy_ratio)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(QuantSpeedupInfo {
            model: str_field(doc, "model")?,
            quant: str_field(doc, "quant")?,
            speedup: f64_field(doc, "speedup")?,
            energy_ratio: f64_field(doc, "energy_ratio")?,
        })
    }
}

/// The full result of a `dse` request.
#[derive(Debug, Clone, PartialEq)]
pub struct DseReply {
    /// Backend that ran the evaluations.
    pub backend: BackendChoice,
    /// Quantization policies explored (canonical spellings, spec order).
    pub quants: Vec<String>,
    /// The policy [`DseReply::quant_speedups`] is measured against
    /// (`uniform8` when explored, the first policy otherwise); absent when
    /// only one policy was explored.
    pub speedup_baseline: Option<String>,
    /// Per-network speedup/energy of every non-baseline policy vs the
    /// baseline; empty when only one policy was explored.
    pub quant_speedups: Vec<QuantSpeedupInfo>,
    /// Architectures in the grid.
    pub grid_points: u64,
    /// Points evaluated.
    pub points: u64,
    /// Points that failed validation or compilation.
    pub infeasible: u64,
    /// The first few infeasible corners with their reasons (spec order,
    /// bounded sample).
    pub infeasible_sample: Vec<InfeasibleInfo>,
    /// Compilable points served by an artifact another point of the same
    /// spec also resolves to. Spec-level and warmth-independent (not a
    /// cache counter): the same request always reports the same number,
    /// whatever the session's cache already holds.
    pub compile_hits: u64,
    /// Unique compilation artifacts the spec resolves to — the
    /// compilations a cold session would perform. Also spec-level; a warm
    /// session may compile fewer, but the reply does not change (see the
    /// determinism contract in `bitfusion_service::session`).
    pub compile_misses: u64,
    /// Layer evaluations answered by a layer-tier key another layer of the
    /// same spec also resolves to — repeated shapes within a network,
    /// duplicate models, aliasing quant specs. Spec-level and
    /// warmth-independent, like [`DseReply::compile_hits`].
    pub layer_hits: u64,
    /// Unique layer-tier keys the spec resolves to — the per-layer
    /// evaluations a cold session would perform.
    pub layer_misses: u64,
    /// The Pareto frontier over (cycles, energy, area), in grid order.
    pub frontier: Vec<FrontierPoint>,
}

/// One multiplying layer's assignment inside a [`Response::Quantize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantLayerInfo {
    /// Layer name.
    pub name: String,
    /// Layer kind tag (`conv`, `fc`, `lstm`, `rnn`).
    pub kind: String,
    /// Assigned input (activation) bits.
    pub input_bits: u64,
    /// Assigned weight bits.
    pub weight_bits: u64,
    /// Multiply-accumulates the layer performs per input.
    pub macs: u64,
}

impl QuantLayerInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("kind", Json::Str(self.kind.clone())),
            ("input_bits", Json::uint(self.input_bits)),
            ("weight_bits", Json::uint(self.weight_bits)),
            ("macs", Json::uint(self.macs)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(QuantLayerInfo {
            name: str_field(doc, "name")?,
            kind: str_field(doc, "kind")?,
            input_bits: u64_field(doc, "input_bits")?,
            weight_bits: u64_field(doc, "weight_bits")?,
            macs: u64_field(doc, "macs")?,
        })
    }
}

/// The full result of a `quantize` request: the per-layer assignment a
/// policy produces on one benchmark, plus its storage footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizeReply {
    /// Benchmark display name.
    pub benchmark: String,
    /// The resolved policy (canonical spelling).
    pub quant: String,
    /// Total multiply-accumulates per input (shape-derived, policy
    /// independent).
    pub total_macs: u64,
    /// Weight storage in bytes at the assigned widths.
    pub weight_bytes: u64,
    /// Fraction of MACs whose input and weight widths are ≤ 4 bits (the
    /// paper's Figure 1 statistic).
    pub share_le_4bit: f64,
    /// Per-layer assignments in execution order (multiplying layers
    /// only).
    pub layers: Vec<QuantLayerInfo>,
}

/// One cache tier's live counters inside a [`Response::Stats`].
///
/// Unlike the spec-level `layer_cache` counters on `report`/`sweep`/`dse`
/// replies, these are the process-global cache's actual state and depend
/// on everything the server has evaluated so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheTierInfo {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: u64,
    /// Maximum resident entries.
    pub capacity: u64,
}

impl CacheTierInfo {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("hits", Json::uint(self.hits)),
            ("misses", Json::uint(self.misses)),
            ("evictions", Json::uint(self.evictions)),
            ("len", Json::uint(self.len)),
            ("capacity", Json::uint(self.capacity)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(CacheTierInfo {
            hits: u64_field(doc, "hits")?,
            misses: u64_field(doc, "misses")?,
            evictions: u64_field(doc, "evictions")?,
            len: u64_field(doc, "len")?,
            capacity: u64_field(doc, "capacity")?,
        })
    }
}

/// Request-latency percentiles inside a [`Response::Stats`], derived from
/// the server's fixed-bucket histogram.
///
/// Percentiles are bucket upper bounds (powers of two in microseconds),
/// so they are conservative: the reported pNN is ≥ the true pNN. All
/// zeros when no request has completed yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyInfo {
    /// Requests recorded (admitted requests only; shed requests are not
    /// timed).
    pub count: u64,
    /// 50th-percentile latency upper bound, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency upper bound, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
    /// Exact slowest observed request, microseconds.
    pub max_us: u64,
}

impl LatencyInfo {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("count", Json::uint(self.count)),
            ("p50_us", Json::uint(self.p50_us)),
            ("p90_us", Json::uint(self.p90_us)),
            ("p99_us", Json::uint(self.p99_us)),
            ("max_us", Json::uint(self.max_us)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(LatencyInfo {
            count: u64_field(doc, "count")?,
            p50_us: u64_field(doc, "p50_us")?,
            p90_us: u64_field(doc, "p90_us")?,
            p99_us: u64_field(doc, "p99_us")?,
            max_us: u64_field(doc, "max_us")?,
        })
    }
}

/// The full result of a `stats` request: the network server's live
/// counters.
///
/// This reply is the deliberate exception to the byte-determinism
/// contract — it reports live process state and two identical `stats`
/// requests may answer differently. It still carries no timestamps, so a
/// quiesced server answers reproducibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections accepted since startup.
    pub connections_total: u64,
    /// Workload requests received (parse failures included; server-level
    /// `stats`/`shutdown` requests are answered but not counted, so
    /// polling `stats` never perturbs what it reports).
    pub received: u64,
    /// Requests answered with a non-`error` reply.
    pub ok: u64,
    /// Requests answered with an `error` reply (parse failures, shed
    /// requests, and evaluation errors).
    pub errors: u64,
    /// Requests refused by admission control (a subset of `errors`).
    pub shed: u64,
    /// Requests that rode an identical in-flight evaluation instead of
    /// evaluating themselves.
    pub coalesced: u64,
    /// Admissions currently waiting for a slot.
    pub queue_depth: u64,
    /// Maximum admissions that may wait before shedding starts.
    pub queue_capacity: u64,
    /// Requests currently evaluating.
    pub in_flight: u64,
    /// Evaluation slots (the admission gate's concurrency bound).
    pub workers: u64,
    /// The compiled-plan cache tier (live counters).
    pub artifact_cache: CacheTierInfo,
    /// The layer-result cache tier (live counters).
    pub layer_cache: CacheTierInfo,
    /// Request-latency percentiles.
    pub latency: LatencyInfo,
}

/// The result of one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `list`.
    Benchmarks {
        /// The zoo, in paper order.
        benchmarks: Vec<BenchmarkInfo>,
        /// Preset architecture descriptions.
        architectures: Vec<String>,
    },
    /// Answer to `report`.
    Report(ReportReply),
    /// Answer to `compare`.
    Compare(CompareReply),
    /// Answer to `asm`.
    Asm(AsmReply),
    /// Answer to `sweep`.
    Sweep(SweepReply),
    /// Answer to `dse`.
    Dse(DseReply),
    /// Answer to `quantize`.
    Quantize(QuantizeReply),
    /// Answer to `stats` (network server only).
    Stats(StatsReply),
    /// Answer to `shutdown` (network server, unix socket only): the
    /// server acknowledged and is draining.
    Shutdown,
    /// The request could not be served.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// The response's `reply` discriminant.
    pub const fn reply(&self) -> &'static str {
        match self {
            Response::Benchmarks { .. } => "list",
            Response::Report(_) => "report",
            Response::Compare(_) => "compare",
            Response::Asm(_) => "asm",
            Response::Sweep(_) => "sweep",
            Response::Dse(_) => "dse",
            Response::Quantize(_) => "quantize",
            Response::Stats(_) => "stats",
            Response::Shutdown => "shutdown",
            Response::Error { .. } => "error",
        }
    }

    /// Converts to the wire document.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("reply", Json::Str(self.reply().to_string()))];
        match self {
            Response::Benchmarks {
                benchmarks,
                architectures,
            } => {
                pairs.push((
                    "benchmarks",
                    Json::Arr(benchmarks.iter().map(BenchmarkInfo::to_json).collect()),
                ));
                pairs.push((
                    "architectures",
                    Json::Arr(
                        architectures
                            .iter()
                            .map(|a| Json::Str(a.clone()))
                            .collect(),
                    ),
                ));
            }
            Response::Report(r) => {
                pairs.push(("benchmark", Json::Str(r.benchmark.clone())));
                pairs.push(("batch", Json::uint(r.batch)));
                pairs.push(("backend", Json::Str(r.backend.as_str().to_string())));
                if let Some(q) = &r.quant {
                    pairs.push(("quant", Json::Str(q.clone())));
                }
                pairs.push(("arch", r.arch.to_json()));
                pairs.push(("cycles", Json::uint(r.cycles)));
                pairs.push(("macs", Json::uint(r.macs)));
                pairs.push(("dram_bits", Json::uint(r.dram_bits)));
                pairs.push(("latency_ms_per_input", Json::float(r.latency_ms_per_input)));
                pairs.push(("macs_per_cycle", Json::float(r.macs_per_cycle)));
                pairs.push(("energy_per_input", r.energy_per_input.to_json()));
                pairs.push(("stalls", r.stalls.to_json()));
                pairs.push(("layer_cache", layer_cache_json(r.layer_hits, r.layer_misses)));
                pairs.push((
                    "layers",
                    Json::Arr(r.layers.iter().map(LayerInfo::to_json).collect()),
                ));
            }
            Response::Compare(r) => {
                pairs.push(("benchmark", Json::Str(r.benchmark.clone())));
                pairs.push(("batch", Json::uint(r.batch)));
                pairs.push(("backend", Json::Str(r.backend.as_str().to_string())));
                if let Some(q) = &r.quant {
                    pairs.push(("quant", Json::Str(q.clone())));
                }
                pairs.push(("latency_ms_per_input", Json::float(r.latency_ms_per_input)));
                pairs.push(("energy_per_input", r.energy_per_input.to_json()));
                pairs.push((
                    "baselines",
                    Json::Arr(r.baselines.iter().map(BaselineComparison::to_json).collect()),
                ));
            }
            Response::Asm(r) => {
                pairs.push(("benchmark", Json::Str(r.benchmark.clone())));
                pairs.push(("batch", Json::uint(r.batch)));
                pairs.push((
                    "blocks",
                    Json::Arr(
                        r.blocks
                            .iter()
                            .map(|b| {
                                Json::obj(vec![
                                    ("layer", Json::Str(b.layer.clone())),
                                    ("text", Json::Str(b.text.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Response::Sweep(r) => {
                pairs.push(("benchmark", Json::Str(r.benchmark.clone())));
                pairs.push(("axis", Json::Str(r.axis.as_str().to_string())));
                pairs.push(("backend", Json::Str(r.backend.as_str().to_string())));
                if let Some(q) = &r.quant {
                    pairs.push(("quant", Json::Str(q.clone())));
                }
                pairs.push(("baseline", Json::uint(r.baseline)));
                pairs.push(("layer_cache", layer_cache_json(r.layer_hits, r.layer_misses)));
                pairs.push((
                    "points",
                    Json::Arr(r.points.iter().map(|p| p.to_json()).collect()),
                ));
            }
            Response::Dse(r) => {
                pairs.push(("backend", Json::Str(r.backend.as_str().to_string())));
                pairs.push((
                    "quants",
                    Json::Arr(r.quants.iter().map(|q| Json::Str(q.clone())).collect()),
                ));
                if let Some(b) = &r.speedup_baseline {
                    pairs.push(("speedup_baseline", Json::Str(b.clone())));
                }
                if !r.quant_speedups.is_empty() {
                    pairs.push((
                        "quant_speedups",
                        Json::Arr(
                            r.quant_speedups
                                .iter()
                                .map(QuantSpeedupInfo::to_json)
                                .collect(),
                        ),
                    ));
                }
                pairs.push(("grid_points", Json::uint(r.grid_points)));
                pairs.push(("points", Json::uint(r.points)));
                pairs.push(("infeasible", Json::uint(r.infeasible)));
                if !r.infeasible_sample.is_empty() {
                    pairs.push((
                        "infeasible_sample",
                        Json::Arr(r.infeasible_sample.iter().map(InfeasibleInfo::to_json).collect()),
                    ));
                }
                pairs.push((
                    "compile",
                    Json::obj(vec![
                        ("hits", Json::uint(r.compile_hits)),
                        ("misses", Json::uint(r.compile_misses)),
                    ]),
                ));
                pairs.push(("layer_cache", layer_cache_json(r.layer_hits, r.layer_misses)));
                pairs.push((
                    "frontier",
                    Json::Arr(r.frontier.iter().map(FrontierPoint::to_json).collect()),
                ));
            }
            Response::Quantize(r) => {
                pairs.push(("benchmark", Json::Str(r.benchmark.clone())));
                pairs.push(("quant", Json::Str(r.quant.clone())));
                pairs.push(("total_macs", Json::uint(r.total_macs)));
                pairs.push(("weight_bytes", Json::uint(r.weight_bytes)));
                pairs.push(("share_le_4bit", Json::float(r.share_le_4bit)));
                pairs.push((
                    "layers",
                    Json::Arr(r.layers.iter().map(QuantLayerInfo::to_json).collect()),
                ));
            }
            Response::Stats(r) => {
                pairs.push((
                    "connections",
                    Json::obj(vec![
                        ("active", Json::uint(r.connections_active)),
                        ("total", Json::uint(r.connections_total)),
                    ]),
                ));
                pairs.push((
                    "requests",
                    Json::obj(vec![
                        ("received", Json::uint(r.received)),
                        ("ok", Json::uint(r.ok)),
                        ("errors", Json::uint(r.errors)),
                        ("shed", Json::uint(r.shed)),
                        ("coalesced", Json::uint(r.coalesced)),
                    ]),
                ));
                pairs.push((
                    "queue",
                    Json::obj(vec![
                        ("depth", Json::uint(r.queue_depth)),
                        ("capacity", Json::uint(r.queue_capacity)),
                        ("in_flight", Json::uint(r.in_flight)),
                        ("workers", Json::uint(r.workers)),
                    ]),
                ));
                pairs.push(("artifact_cache", r.artifact_cache.to_json()));
                pairs.push(("layer_cache", r.layer_cache.to_json()));
                pairs.push(("latency_us", r.latency.to_json()));
            }
            Response::Shutdown => {}
            Response::Error { message } => {
                pairs.push(("message", Json::Str(message.clone())));
            }
        }
        Json::obj(pairs)
    }

    /// Encodes to the single-line wire form — exactly what `--json` prints
    /// and the `serve` loop writes per response.
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    /// Reads a response back from a wire document.
    ///
    /// # Errors
    ///
    /// Describes the missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let reply = str_field(doc, "reply")?;
        match reply.as_str() {
            "list" => Ok(Response::Benchmarks {
                benchmarks: doc
                    .get("benchmarks")
                    .and_then(Json::as_arr)
                    .ok_or("missing field `benchmarks`")?
                    .iter()
                    .map(BenchmarkInfo::from_json)
                    .collect::<Result<_, _>>()?,
                architectures: doc
                    .get("architectures")
                    .and_then(Json::as_arr)
                    .ok_or("missing field `architectures`")?
                    .iter()
                    .map(|a| {
                        a.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "architectures entries must be strings".to_string())
                    })
                    .collect::<Result<_, _>>()?,
            }),
            "report" => Ok(Response::Report(ReportReply {
                benchmark: str_field(doc, "benchmark")?,
                batch: u64_field(doc, "batch")?,
                backend: BackendChoice::parse(&str_field(doc, "backend")?)?,
                quant: opt_str_field(doc, "quant")?,
                arch: ArchInfo::from_json(doc.get("arch").ok_or("missing field `arch`")?)?,
                cycles: u64_field(doc, "cycles")?,
                macs: u64_field(doc, "macs")?,
                dram_bits: u64_field(doc, "dram_bits")?,
                latency_ms_per_input: f64_field(doc, "latency_ms_per_input")?,
                macs_per_cycle: f64_field(doc, "macs_per_cycle")?,
                energy_per_input: EnergyInfo::from_json(
                    doc.get("energy_per_input")
                        .ok_or("missing field `energy_per_input`")?,
                )?,
                stalls: StallInfo::from_json(
                    doc.get("stalls").ok_or("missing field `stalls`")?,
                )?,
                layer_hits: layer_cache_field(doc, "hits")?,
                layer_misses: layer_cache_field(doc, "misses")?,
                layers: doc
                    .get("layers")
                    .and_then(Json::as_arr)
                    .ok_or("missing field `layers`")?
                    .iter()
                    .map(LayerInfo::from_json)
                    .collect::<Result<_, _>>()?,
            })),
            "compare" => Ok(Response::Compare(CompareReply {
                benchmark: str_field(doc, "benchmark")?,
                batch: u64_field(doc, "batch")?,
                backend: BackendChoice::parse(&str_field(doc, "backend")?)?,
                quant: opt_str_field(doc, "quant")?,
                latency_ms_per_input: f64_field(doc, "latency_ms_per_input")?,
                energy_per_input: EnergyInfo::from_json(
                    doc.get("energy_per_input")
                        .ok_or("missing field `energy_per_input`")?,
                )?,
                baselines: doc
                    .get("baselines")
                    .and_then(Json::as_arr)
                    .ok_or("missing field `baselines`")?
                    .iter()
                    .map(BaselineComparison::from_json)
                    .collect::<Result<_, _>>()?,
            })),
            "asm" => Ok(Response::Asm(AsmReply {
                benchmark: str_field(doc, "benchmark")?,
                batch: u64_field(doc, "batch")?,
                blocks: doc
                    .get("blocks")
                    .and_then(Json::as_arr)
                    .ok_or("missing field `blocks`")?
                    .iter()
                    .map(|b| {
                        Ok(AsmBlock {
                            layer: str_field(b, "layer")?,
                            text: str_field(b, "text")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            })),
            "sweep" => Ok(Response::Sweep(SweepReply {
                benchmark: str_field(doc, "benchmark")?,
                axis: SweepAxis::parse(&str_field(doc, "axis")?)?,
                backend: BackendChoice::parse(&str_field(doc, "backend")?)?,
                quant: opt_str_field(doc, "quant")?,
                baseline: u64_field(doc, "baseline")?,
                layer_hits: layer_cache_field(doc, "hits")?,
                layer_misses: layer_cache_field(doc, "misses")?,
                points: doc
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or("missing field `points`")?
                    .iter()
                    .map(SweepPointInfo::from_json)
                    .collect::<Result<_, _>>()?,
            })),
            "dse" => {
                let compile = doc.get("compile").ok_or("missing field `compile`")?;
                Ok(Response::Dse(DseReply {
                    backend: BackendChoice::parse(&str_field(doc, "backend")?)?,
                    quants: doc
                        .get("quants")
                        .and_then(Json::as_arr)
                        .ok_or("missing field `quants`")?
                        .iter()
                        .map(|q| {
                            q.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "quants entries must be strings".to_string())
                        })
                        .collect::<Result<_, _>>()?,
                    speedup_baseline: opt_str_field(doc, "speedup_baseline")?,
                    quant_speedups: match doc.get("quant_speedups") {
                        None => Vec::new(),
                        Some(v) => v
                            .as_arr()
                            .ok_or("quant_speedups must be an array")?
                            .iter()
                            .map(QuantSpeedupInfo::from_json)
                            .collect::<Result<_, _>>()?,
                    },
                    grid_points: u64_field(doc, "grid_points")?,
                    points: u64_field(doc, "points")?,
                    infeasible: u64_field(doc, "infeasible")?,
                    infeasible_sample: match doc.get("infeasible_sample") {
                        None => Vec::new(),
                        Some(v) => v
                            .as_arr()
                            .ok_or("infeasible_sample must be an array")?
                            .iter()
                            .map(InfeasibleInfo::from_json)
                            .collect::<Result<_, _>>()?,
                    },
                    compile_hits: u64_field(compile, "hits")?,
                    compile_misses: u64_field(compile, "misses")?,
                    layer_hits: layer_cache_field(doc, "hits")?,
                    layer_misses: layer_cache_field(doc, "misses")?,
                    frontier: doc
                        .get("frontier")
                        .and_then(Json::as_arr)
                        .ok_or("missing field `frontier`")?
                        .iter()
                        .map(FrontierPoint::from_json)
                        .collect::<Result<_, _>>()?,
                }))
            }
            "quantize" => Ok(Response::Quantize(QuantizeReply {
                benchmark: str_field(doc, "benchmark")?,
                quant: str_field(doc, "quant")?,
                total_macs: u64_field(doc, "total_macs")?,
                weight_bytes: u64_field(doc, "weight_bytes")?,
                share_le_4bit: f64_field(doc, "share_le_4bit")?,
                layers: doc
                    .get("layers")
                    .and_then(Json::as_arr)
                    .ok_or("missing field `layers`")?
                    .iter()
                    .map(QuantLayerInfo::from_json)
                    .collect::<Result<_, _>>()?,
            })),
            "stats" => {
                let connections = doc
                    .get("connections")
                    .ok_or("missing field `connections`")?;
                let requests = doc.get("requests").ok_or("missing field `requests`")?;
                let queue = doc.get("queue").ok_or("missing field `queue`")?;
                Ok(Response::Stats(StatsReply {
                    connections_active: u64_field(connections, "active")?,
                    connections_total: u64_field(connections, "total")?,
                    received: u64_field(requests, "received")?,
                    ok: u64_field(requests, "ok")?,
                    errors: u64_field(requests, "errors")?,
                    shed: u64_field(requests, "shed")?,
                    coalesced: u64_field(requests, "coalesced")?,
                    queue_depth: u64_field(queue, "depth")?,
                    queue_capacity: u64_field(queue, "capacity")?,
                    in_flight: u64_field(queue, "in_flight")?,
                    workers: u64_field(queue, "workers")?,
                    artifact_cache: CacheTierInfo::from_json(
                        doc.get("artifact_cache")
                            .ok_or("missing field `artifact_cache`")?,
                    )?,
                    layer_cache: CacheTierInfo::from_json(
                        doc.get("layer_cache").ok_or("missing field `layer_cache`")?,
                    )?,
                    latency: LatencyInfo::from_json(
                        doc.get("latency_us").ok_or("missing field `latency_us`")?,
                    )?,
                }))
            }
            "shutdown" => Ok(Response::Shutdown),
            "error" => Ok(Response::Error {
                message: str_field(doc, "message")?,
            }),
            other => Err(format!("unknown reply `{other}`")),
        }
    }

    /// Parses a response from its wire text.
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors with a byte offset, and protocol errors
    /// naming the offending field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Response::from_json(&doc)
    }
}

/// The `"layer_cache":{"hits":…,"misses":…}` object `report`, `sweep`,
/// and `dse` replies carry (spec-level counters, not cache state).
fn layer_cache_json(hits: u64, misses: u64) -> Json {
    Json::obj(vec![
        ("hits", Json::uint(hits)),
        ("misses", Json::uint(misses)),
    ])
}

fn layer_cache_field(doc: &Json, key: &str) -> Result<u64, String> {
    let obj = doc
        .get("layer_cache")
        .ok_or("missing field `layer_cache`")?;
    u64_field(obj, key)
}

fn uint_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::uint(v)).collect())
}

fn opt_uint_arr(doc: &Json, key: &str) -> Result<Option<Vec<u64>>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_arr()
            .ok_or(format!("{key} must be an array"))?
            .iter()
            .map(|x| x.as_u64().ok_or(format!("{key} entries must be non-negative integers")))
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string field `{key}`"))
}

fn opt_str_field(doc: &Json, key: &str) -> Result<Option<String>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or(format!("field `{key}` must be a string")),
    }
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing integer field `{key}`"))
}

fn opt_u64_field(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or(format!("field `{key}` must be a non-negative integer")),
    }
}

fn f64_field(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing number field `{key}`"))
}

fn opt_backend(doc: &Json) -> Result<Option<BackendChoice>, String> {
    match opt_str_field(doc, "backend")? {
        None => Ok(None),
        Some(s) => BackendChoice::parse(&s).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_round_trip() {
        let external = bitfusion_dnn::schema::parse_model(
            r#"{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]}"#,
        )
        .unwrap();
        let requests = vec![
            Request::List,
            Request::Report {
                model: ModelSource::zoo("LSTM"),
                batch: 16,
                bandwidth: Some(256),
                arch: ArchPreset::Isca45nm,
                backend: Some(BackendChoice::Event),
                quant: Some("uniform8".into()),
            },
            Request::Report {
                model: ModelSource::External(external.clone()),
                batch: 16,
                bandwidth: None,
                arch: ArchPreset::Isca45nm,
                backend: None,
                quant: None,
            },
            Request::Compare {
                model: ModelSource::zoo("AlexNet"),
                batch: 4,
                backend: None,
                quant: None,
            },
            Request::Asm {
                model: ModelSource::zoo("RNN"),
                batch: 1,
                arch: ArchPreset::StripesMatched,
                layer: Some("fc1".into()),
            },
            Request::Sweep {
                model: ModelSource::External(external.clone()),
                axis: SweepAxis::Bandwidth,
                backend: None,
                quant: Some("default=4/1,conv=2/2".into()),
            },
            Request::Dse(DseParams {
                quants: vec!["paper".into(), "uniform8".into(), "uniform16".into()],
                models: vec![external],
                ..DseParams::default()
            }),
            Request::Quantize {
                model: ModelSource::zoo("Cifar-10"),
                quant: Some("uniform16".into()),
            },
        ];
        for req in requests {
            let wire = req.encode();
            let back = Request::parse(&wire).unwrap();
            assert_eq!(back, req, "{wire}");
            assert_eq!(back.encode(), wire);
        }
    }

    #[test]
    fn terse_requests_fill_defaults() {
        let req = Request::parse(r#"{"cmd":"report","benchmark":"lstm"}"#).unwrap();
        assert_eq!(
            req,
            Request::Report {
                model: ModelSource::zoo("lstm"),
                batch: 16,
                bandwidth: None,
                arch: ArchPreset::Isca45nm,
                backend: None,
                quant: None,
            }
        );
        assert!(matches!(
            Request::parse(r#"{"cmd":"dse"}"#).unwrap(),
            Request::Dse(p) if p == DseParams::default()
        ));
        assert_eq!(
            Request::parse(r#"{"cmd":"quantize","benchmark":"svhn"}"#).unwrap(),
            Request::Quantize {
                model: ModelSource::zoo("svhn"),
                quant: None,
            }
        );
    }

    #[test]
    fn model_and_benchmark_are_mutually_exclusive() {
        let model = r#"{"format":"bitfusion-model/1","name":"net","layers":[{"name":"fc1","kind":"fc","in_features":8,"out_features":4,"precision":"8/8"}]}"#;
        let e = Request::parse(&format!(
            r#"{{"cmd":"report","benchmark":"lstm","model":{model}}}"#
        ))
        .unwrap_err();
        assert!(e.contains("not both"), "{e}");
        // An inline model alone parses to the external source.
        let req =
            Request::parse(&format!(r#"{{"cmd":"report","model":{model}}}"#)).unwrap();
        let Request::Report { model: ModelSource::External(m), .. } = req else {
            panic!("expected an external report");
        };
        assert_eq!(m.name, "net");
        // A malformed inline model reports the schema's located diagnostic.
        let e = Request::parse(
            r#"{"cmd":"report","model":{"format":"bitfusion-model/1","name":"net","layers":[{"name":"x","kind":"conv3d"}]}}"#,
        )
        .unwrap_err();
        assert!(e.contains("layers[0].kind"), "{e}");
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(Request::parse("not json").unwrap_err().contains("invalid JSON"));
        assert!(Request::parse(r#"{"cmd":"frobnicate"}"#)
            .unwrap_err()
            .contains("frobnicate"));
        assert!(Request::parse(r#"{"cmd":"report"}"#)
            .unwrap_err()
            .contains("benchmark"));
        assert!(Request::parse(r#"{"cmd":"report","benchmark":"lstm","backend":"x"}"#)
            .unwrap_err()
            .contains("backend"));
    }

    #[test]
    fn misspelled_fields_are_rejected_not_defaulted() {
        // A typo'd field must error (like an unknown CLI flag), never fall
        // back to the default value silently.
        let e = Request::parse(r#"{"cmd":"report","benchmark":"rnn","bacth":8}"#).unwrap_err();
        assert!(e.contains("bacth") && e.contains("report"), "{e}");
        let e = Request::parse(r#"{"cmd":"sweep","benchmark":"rnn","axis":"batch","workers":2}"#)
            .unwrap_err();
        assert!(e.contains("workers") && e.contains("sweep"), "{e}");
        assert!(Request::parse(r#"{"cmd":"list","extra":1}"#).is_err());
    }

    #[test]
    fn quant_spec_json_forms() {
        let preset = QuantSpec::parse("uniform8").unwrap();
        let j = quant_spec_to_json(&preset);
        assert_eq!(j.encode(), r#"{"preset":"uniform8"}"#);
        assert_eq!(quant_spec_from_json(&j).unwrap(), preset);

        let custom = QuantSpec::parse("default=4/1,conv=2/2,layer:fc8=8/8").unwrap();
        let j = quant_spec_to_json(&custom);
        assert_eq!(quant_spec_from_json(&j).unwrap(), custom);
        assert!(j.encode().contains(r#""default":"4/1""#), "{}", j.encode());

        for bad in [
            r#"{"kinds":[{"kind":"pool","precision":"4/4"}]}"#,
            r#"{"default":"3/3"}"#,
            r#"{"preset":"uniform9"}"#,
            r#"{"preset":"paper","default":"4/4"}"#,
            r#"{}"#,
        ] {
            assert!(
                quant_spec_from_json(&parse_json(bad).unwrap()).is_err(),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn error_response_round_trip() {
        let resp = Response::Error {
            message: "unknown benchmark `nope`".into(),
        };
        let wire = resp.encode();
        assert_eq!(Response::parse(&wire).unwrap(), resp);
        assert!(wire.starts_with(r#"{"reply":"error""#));
    }

    #[test]
    fn stats_and_shutdown_requests_round_trip() {
        assert_eq!(Request::Stats.encode(), r#"{"cmd":"stats"}"#);
        assert_eq!(Request::parse(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(Request::Shutdown.encode(), r#"{"cmd":"shutdown"}"#);
        assert_eq!(
            Request::parse(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        // Both take no fields.
        assert!(Request::parse(r#"{"cmd":"stats","extra":1}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"shutdown","force":true}"#).is_err());
    }

    #[test]
    fn stats_response_round_trip() {
        let resp = Response::Stats(StatsReply {
            connections_active: 2,
            connections_total: 17,
            received: 120,
            ok: 110,
            errors: 10,
            shed: 4,
            coalesced: 6,
            queue_depth: 1,
            queue_capacity: 64,
            in_flight: 3,
            workers: 4,
            artifact_cache: CacheTierInfo {
                hits: 80,
                misses: 20,
                evictions: 5,
                len: 15,
                capacity: 32,
            },
            layer_cache: CacheTierInfo {
                hits: 400,
                misses: 100,
                evictions: 0,
                len: 100,
                capacity: 4096,
            },
            latency: LatencyInfo {
                count: 110,
                p50_us: 512,
                p90_us: 2048,
                p99_us: 8192,
                max_us: 7311,
            },
        });
        let wire = resp.encode();
        assert_eq!(Response::parse(&wire).unwrap(), resp);
        assert!(wire.starts_with(r#"{"reply":"stats","connections":"#), "{wire}");
        // No timestamps on the wire: a quiesced server answers
        // reproducibly.
        assert!(!wire.contains("time"), "{wire}");
    }

    #[test]
    fn shutdown_response_round_trip() {
        assert_eq!(Response::Shutdown.encode(), r#"{"reply":"shutdown"}"#);
        assert_eq!(
            Response::parse(r#"{"reply":"shutdown"}"#).unwrap(),
            Response::Shutdown
        );
    }
}
