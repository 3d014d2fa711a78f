//! The fidelity record: every evaluation point of the paper next to this
//! repository's measurement and their log2 error.
//!
//! [`points`] computes the whole record in a fixed order; the `fidelity`
//! bin prints it with [`render`], one JSON object per line:
//!
//! ```text
//! {"figure":"fig13","point":"AlexNet speedup","measured":2.676,"paper":1.9,"log2_err":0.4941}
//! ```
//!
//! `FIDELITY.json` at the repository root pins that output, and
//! `crates/bench/tests/fidelity.rs` fails on any difference from it. Every
//! figure with a paper value ends in a `mean |log2 err|` row. Points the paper
//! gives no number for (the ablation, Loom, per-network sweep rows) keep
//! `"paper":null`.
//!
//! Where a service reply already carries a figure point, the point is taken
//! from [`Session::handle`]: `compare` gives Figures 13 and 18 and the Bit
//! Fusion column of Figure 17, `sweep` gives Figures 15 and 16. The other
//! points call the library directly.

use bitfusion::baselines::{EyerissSim, GpuMode, GpuModel, LoomSim};
use bitfusion::compiler::compile;
use bitfusion::core::arch::ArchConfig;
use bitfusion::core::util::geomean;
use bitfusion::dnn::model::Model;
use bitfusion::dnn::quantspec::QuantSpec;
use bitfusion::dnn::stats::BitwidthStats;
use bitfusion::dnn::zoo::Benchmark;
use bitfusion::energy::{Figure10, TechNode};
use bitfusion::isa::encode::encode_block;
use bitfusion::service::protocol::{
    CompareReply, ModelSource, Request, Response, SweepAxis, SweepReply,
};
use bitfusion::service::{Json, Session};
use bitfusion::sim::{BitFusionSim, PerfReport, SimOptions};

use crate::paper;

/// The batch size of the paper's evaluation (§V-A).
const BATCH: u64 = 16;

/// Significant digits every recorded number keeps, so that a last-ulp libm
/// difference cannot change the record.
const DIGITS: usize = 4;

/// The `point` of each figure's closing row: the mean |log2 error| of the
/// figure's points that have a paper value. `2^mean` is the geometric-mean
/// factor by which those points miss the paper.
const MEAN_ERR: &str = "mean |log2 err|";

/// One recorded figure point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Figure or table id: `fig13`, `table2`, `sec4a` (§IV-A), ...
    pub figure: &'static str,
    /// What was measured, e.g. `AlexNet speedup`.
    pub point: String,
    /// This repository's value, rounded to four significant digits.
    pub measured: f64,
    /// The paper's value, where it publishes one.
    pub paper: Option<f64>,
}

impl Point {
    /// `log2(measured / paper)`, rounded like `measured`; `None` without a
    /// paper value, or where either side is zero.
    pub fn log2_err(&self) -> Option<f64> {
        let paper = self.paper?;
        (paper > 0.0 && self.measured > 0.0).then(|| round((self.measured / paper).log2()))
    }

    fn to_json(&self) -> Json {
        let number = |v: Option<f64>| v.map_or(Json::Null, Json::float);
        Json::obj(vec![
            ("figure", Json::Str(self.figure.to_string())),
            ("point", Json::Str(self.point.clone())),
            ("measured", Json::float(self.measured)),
            ("paper", number(self.paper)),
            ("log2_err", number(self.log2_err())),
        ])
    }
}

/// The record as `FIDELITY.json` holds it: one JSON object per line.
pub fn render(points: &[Point]) -> String {
    points.iter().map(|p| p.to_json().encode() + "\n").collect()
}

/// Computes every point of the record, in the record's order.
pub fn points() -> Vec<Point> {
    let session = Session::new();
    let compare: Vec<CompareReply> = Benchmark::ALL
        .iter()
        .map(|&b| compare(&session, b))
        .collect();
    [
        fig01(),
        fig10(),
        sec4a(),
        table2(),
        versus(
            "fig13",
            &compare,
            "eyeriss",
            paper::fig13,
            paper::FIG13_GEOMEAN,
        ),
        sec5b1(),
        fig14(),
        sensitivity(&session, SweepAxis::Bandwidth),
        sensitivity(&session, SweepAxis::Batch),
        fig17(&compare),
        versus(
            "fig18",
            &compare,
            "stripes",
            paper::fig18,
            paper::FIG18_GEOMEAN,
        ),
        ablation(),
        loom(),
    ]
    .into_iter()
    .flat_map(Figure::finish)
    .collect()
}

fn round(v: f64) -> f64 {
    format!("{v:.*e}", DIGITS - 1)
        .parse()
        .expect("a formatted f64 parses")
}

/// The points of one figure, in order.
#[derive(Default)]
struct Figure {
    id: &'static str,
    points: Vec<Point>,
    /// Unrounded per-network values by column, for the summary rows.
    columns: Vec<(String, f64)>,
}

impl Figure {
    fn new(id: &'static str) -> Self {
        Figure {
            id,
            ..Figure::default()
        }
    }

    fn point(&mut self, point: impl Into<String>, measured: f64, paper: impl Into<Option<f64>>) {
        self.points.push(Point {
            figure: self.id,
            point: point.into(),
            measured: round(measured),
            paper: paper.into(),
        });
    }

    /// The point `{b} {column}`, kept for [`Figure::values`].
    fn network(
        &mut self,
        b: Benchmark,
        column: &str,
        measured: f64,
        paper: impl Into<Option<f64>>,
    ) {
        self.columns.push((column.to_string(), measured));
        self.point(format!("{b} {column}"), measured, paper);
    }

    /// The unrounded values of one column, in network order.
    fn values(&self, column: &str) -> Vec<f64> {
        let rows = self.columns.iter().filter(|(c, _)| c == column);
        rows.map(|&(_, v)| v).collect()
    }

    /// The point `geomean {column}` over the networks; returns its value.
    fn geomean(&mut self, column: &str, paper: impl Into<Option<f64>>) -> f64 {
        let g = geomean(&self.values(column));
        self.point(format!("geomean {column}"), g, paper);
        g
    }

    /// The points, followed by the [`MEAN_ERR`] row when any has a paper
    /// value.
    fn finish(mut self) -> Vec<Point> {
        let errs: Vec<f64> = self
            .points
            .iter()
            .filter_map(|p| p.log2_err().map(f64::abs))
            .collect();
        if !errs.is_empty() {
            self.point(MEAN_ERR, errs.iter().sum::<f64>() / errs.len() as f64, None);
        }
        self.points
    }
}

fn compare(session: &Session, b: Benchmark) -> CompareReply {
    let request = Request::Compare {
        model: ModelSource::zoo(b.name()),
        batch: BATCH,
        backend: None,
        quant: None,
    };
    match session.handle(&request) {
        Response::Compare(reply) => reply,
        other => panic!("compare {b}: {other:?}"),
    }
}

fn sweep(session: &Session, b: Benchmark, axis: SweepAxis) -> SweepReply {
    let request = Request::Sweep {
        model: ModelSource::zoo(b.name()),
        axis,
        backend: None,
        quant: None,
    };
    match session.handle(&request) {
        Response::Sweep(reply) => reply,
        other => panic!("sweep {b}: {other:?}"),
    }
}

/// Bit Fusion's (speedup, energy reduction) over one `compare` baseline.
fn over(reply: &CompareReply, baseline: &str) -> (f64, Option<f64>) {
    let c = reply
        .baselines
        .iter()
        .find(|c| c.name == baseline)
        .expect("compare answers every baseline");
    (c.speedup, c.energy_ratio)
}

/// Figure 1: MAC and weight bitwidth shares, and the multiply-add share.
fn fig01() -> Figure {
    let mut f = Figure::new("fig01");
    for b in Benchmark::ALL {
        let model = b.model();
        let stats = BitwidthStats::of(&model);
        for s in &stats.mac_shares {
            let pair = format!("{}b/{}b MAC share", s.input_bits, s.weight_bits);
            f.network(b, &pair, s.share, None);
        }
        for (bits, share) in &stats.weight_shares {
            f.network(b, &format!("{bits}b weight share"), *share, None);
        }
        f.network(b, "multiply-add share", model.mac_fraction(), None);
        f.network(b, "<=4-bit MAC share", stats.share_at_or_below(4), None);
    }
    let low_bit = f.values("<=4-bit MAC share");
    let mean = low_bit.iter().sum::<f64>() / low_bit.len() as f64;
    f.point(
        "mean <=4-bit MAC share",
        mean,
        paper::FIG1_LOW_BIT_MAC_SHARE,
    );
    let (min, max) = min_max(&f.values("multiply-add share"));
    let (lo, hi) = paper::FIG1_MULTIPLY_ADD_SHARE;
    f.point("min multiply-add share", min, lo);
    f.point("max multiply-add share", max, hi);
    f
}

/// Figure 10: area and power of the temporal design and the Fusion Unit.
fn fig10() -> Figure {
    let mut f = Figure::new("fig10");
    let fig = Figure10::compute();
    let area = [fig.temporal.area_um2, fig.fusion.area_um2];
    let power = [fig.temporal.power_nw, fig.fusion.power_nw];
    for (unit, splits, rows) in [
        ("area um2", area, paper::FIG10_AREA),
        ("power nW", power, paper::FIG10_POWER),
    ] {
        for (s, (design, bricks, shift_add, register)) in splits.into_iter().zip(rows) {
            f.point(format!("{design} bitbricks {unit}"), s.bit_bricks, bricks);
            f.point(format!("{design} shift-add {unit}"), s.shift_add, shift_add);
            f.point(format!("{design} register {unit}"), s.register, register);
            f.point(format!("{design} total {unit}"), s.total(), None);
        }
    }
    let (area, power, register) = paper::FIG10_REDUCTION;
    f.point("area reduction", fig.area_reduction(), area);
    f.point("power reduction", fig.power_reduction(), power);
    f.point("register reduction", fig.register_reduction(), register);
    f
}

/// §IV-A: Fusion-ISA instruction-block sizes of every compiled layer.
fn sec4a() -> Figure {
    let mut f = Figure::new("sec4a");
    let arch = ArchConfig::isca_45nm();
    let mut all = Vec::new();
    for b in Benchmark::ALL {
        let plan = compile(&b.model(), &arch, BATCH).expect("zoo model compiles");
        let sizes: Vec<f64> = plan.layers.iter().map(|l| l.block.len() as f64).collect();
        let words: usize = plan
            .layers
            .iter()
            .map(|l| encode_block(&l.block).expect("blocks encode").len())
            .sum();
        let (lo, hi) = min_max(&sizes);
        f.network(b, "blocks", sizes.len() as f64, None);
        f.network(b, "min block instructions", lo, None);
        f.network(b, "max block instructions", hi, None);
        f.network(b, "encoded bytes", (words * 4) as f64, None);
        all.extend(sizes);
    }
    let (min, max) = min_max(&all);
    let (lo, hi) = paper::SEC4A_BLOCK_INSTRUCTIONS;
    f.point("min block instructions", min, lo);
    f.point("max block instructions", max, hi);
    f
}

fn min_max(values: &[f64]) -> (f64, f64) {
    let extremes = (f64::INFINITY, f64::NEG_INFINITY);
    values
        .iter()
        .fold(extremes, |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Table II: multiply-adds and weight sizes of the benchmark suite.
fn table2() -> Figure {
    let mut f = Figure::new("table2");
    for b in Benchmark::ALL {
        let m = b.model();
        let (mops, mb) = (m.total_macs() as f64 / 1e6, m.weight_bytes() as f64 / 1e6);
        f.network(b, "MOps", mops, b.paper_mops() as f64);
        f.network(b, "weight MB", mb, b.paper_weight_mb());
    }
    f
}

/// Figures 13 and 18: per-network speedup and energy reduction over one
/// `compare` baseline, and their geomeans.
fn versus(
    id: &'static str,
    compare: &[CompareReply],
    baseline: &str,
    paper: impl Fn(Benchmark) -> (f64, f64),
    paper_geomeans: (f64, f64),
) -> Figure {
    let mut f = Figure::new(id);
    for (b, reply) in Benchmark::ALL.into_iter().zip(compare) {
        let (speedup, energy) = over(reply, baseline);
        let energy = energy.expect("accelerator baselines model energy");
        let (p_speedup, p_energy) = paper(b);
        f.network(b, "speedup", speedup, p_speedup);
        f.network(b, "energy reduction", energy, p_energy);
    }
    f.geomean("speedup", paper_geomeans.0);
    f.geomean("energy reduction", paper_geomeans.1);
    f
}

/// §V-B1: AlexNet's per-layer-class improvement over Eyeriss. Bit Fusion
/// runs the 2x-wide quantized model, so its per-class cycles and energy are
/// scaled to the regular model's MACs, as the paper's table does.
fn sec5b1() -> Figure {
    let mut f = Figure::new("sec5b1");
    let class_of = |name: &str| match name {
        "conv1" => Some(0),
        "conv2" | "conv3" | "conv4" | "conv5" => Some(1),
        "fc6" | "fc7" => Some(2),
        "fc8" => Some(3),
        _ => None,
    };
    let wide = Benchmark::AlexNet.model();
    let regular = Benchmark::AlexNet.reference_model();
    let class_macs = |m: &Model, c| {
        let layers = m.layers.iter().filter(|l| class_of(&l.name) == Some(c));
        layers.map(|l| l.layer.macs()).sum::<u64>()
    };
    let (mut bf_cycles, mut bf_pj) = ([0u64; 4], [0f64; 4]);
    let (mut ey_cycles, mut ey_pj) = ([0u64; 4], [0f64; 4]);
    let bf = BitFusionSim::new(ArchConfig::isca_45nm());
    for l in bf.run(&wide, BATCH).expect("zoo model compiles").layers {
        if let Some(c) = class_of(&l.name) {
            bf_cycles[c] += l.cycles;
            bf_pj[c] += l.energy.total_pj();
        }
    }
    // Eyeriss per-layer numbers come from a layer-wise rerun.
    let ey = EyerissSim::default();
    for l in &regular.layers {
        if let Some(c) = class_of(&l.name) {
            let single = Model::new("layer", vec![(l.name.as_str(), l.layer.clone())]);
            let r = ey.run(&single, BATCH);
            ey_cycles[c] += r.cycles;
            ey_pj[c] += r.energy.total_pj();
        }
    }
    for (c, (label, p_speedup, p_energy)) in paper::ALEXNET_PER_LAYER.into_iter().enumerate() {
        let work_scale = class_macs(&wide, c) as f64 / class_macs(&regular, c) as f64;
        let speedup = ey_cycles[c] as f64 / (bf_cycles[c] as f64 / work_scale);
        let energy = ey_pj[c] / (bf_pj[c] / work_scale);
        f.point(format!("{label} speedup"), speedup, p_speedup);
        f.point(format!("{label} energy reduction"), energy, p_energy);
    }
    f
}

/// Figure 14: energy shares of Bit Fusion and Eyeriss per category.
fn fig14() -> Figure {
    const CATEGORIES: [&str; 4] = ["compute", "buffers", "rf", "dram"];
    let mut f = Figure::new("fig14");
    let bf = BitFusionSim::new(ArchConfig::isca_45nm());
    let ey = EyerissSim::default();
    for b in Benchmark::ALL {
        let r = bf.run(&b.model(), BATCH).expect("zoo model compiles");
        let e = ey.run(&b.reference_model(), BATCH);
        let bf_shares = r.total_energy().fractions();
        for (side, measured, reference) in [
            ("Bit Fusion", bf_shares, paper::fig14_bitfusion(b)),
            ("Eyeriss", e.energy.fractions(), paper::fig14_eyeriss(b)),
        ] {
            for ((category, m), p) in CATEGORIES.into_iter().zip(measured).zip(reference) {
                f.network(b, &format!("{side} {category} share"), m, p);
            }
        }
    }
    f
}

/// Figures 15 and 16, from one `sweep` axis each: every network's speedup
/// at each swept value (one standout network/value has a paper number),
/// then the geomean at each value.
fn sensitivity(session: &Session, axis: SweepAxis) -> Figure {
    let (id, paper_geomeans, standout) = match axis {
        SweepAxis::Bandwidth => {
            let lstm = (Benchmark::Lstm, 512, paper::FIG15_LSTM_512);
            ("fig15", paper::FIG15_GEOMEAN, lstm)
        }
        SweepAxis::Batch => {
            let rnn = (Benchmark::Rnn, 256, paper::FIG16_RNN_PEAK);
            ("fig16", paper::FIG16_GEOMEAN, rnn)
        }
    };
    let label = |value: u64| match axis {
        SweepAxis::Bandwidth => format!("at {value} b/cyc"),
        SweepAxis::Batch => format!("at batch {value}"),
    };
    let mut f = Figure::new(id);
    for b in Benchmark::ALL {
        for p in sweep(session, b, axis).points {
            let paper = ((b, p.value) == (standout.0, standout.1)).then_some(standout.2);
            f.network(b, &label(p.value), p.speedup, paper);
        }
    }
    let geomeans = paper_geomeans.map(|(value, paper)| f.geomean(&label(value), paper));
    if axis == SweepAxis::Batch {
        // What batch 256 adds over batch 64 (the last two sweep values).
        let (gain, p) = (geomeans[4] / geomeans[3], paper_geomeans);
        f.point("saturation past batch 64", gain, p[4].1 / p[3].1);
    }
    f
}

/// Figure 17: speedup over Tegra X2, and the 16 nm part's average power.
fn fig17(compare: &[CompareReply]) -> Figure {
    let mut f = Figure::new("fig17");
    let tx2 = GpuModel::tegra_x2();
    let txp = GpuModel::titan_xp();
    let options = SimOptions {
        node: TechNode::Nm16,
        ..SimOptions::default()
    };
    let bf16 = BitFusionSim::new(ArchConfig::gpu_16nm()).with_options(options);
    for (b, reply) in Benchmark::ALL.into_iter().zip(compare) {
        let model = b.reference_model();
        let base = tx2.run(&model, BATCH, GpuMode::Fp32).runtime_ms;
        let fp32 = base / txp.run(&model, BATCH, GpuMode::Fp32).runtime_ms;
        let int8 = base / txp.run(&model, BATCH, GpuMode::Int8).runtime_ms;
        let r = bf16.run(&b.model(), BATCH).expect("zoo model compiles");
        let watts = r.total_energy().total_pj() / 1e12 / (r.runtime_ms() / 1e3);
        f.network(b, "Titan Xp FP32", fp32, None);
        f.network(b, "Titan Xp INT8", int8, None);
        f.network(b, "Bit Fusion 16 nm", over(reply, "tegra-x2").0, None);
        f.network(b, "16 nm power W", watts, paper::FIG17_POWER_W);
    }
    let (p_fp32, p_int8, p_bf) = paper::FIG17_GEOMEAN;
    f.geomean("Titan Xp FP32", p_fp32);
    f.geomean("Titan Xp INT8", p_int8);
    f.geomean("Bit Fusion 16 nm", p_bf);
    f
}

/// Ablation: dynamic fusion against the same 45 nm array locked to 8-bit
/// and 16-bit operands (the fixed-bitwidth designs §I argues against).
fn ablation() -> Figure {
    let mut f = Figure::new("ablation");
    let sim = BitFusionSim::new(ArchConfig::isca_45nm());
    for b in Benchmark::ALL {
        let run = |m: &Model| sim.run(m, BATCH).expect("zoo model compiles");
        let native = run(&b.model());
        let uniform = |bits| {
            let spec = QuantSpec::uniform(bits).expect("a supported width");
            run(&spec.apply(&b.model()).expect("uniform specs apply"))
        };
        let (at8, at16) = (uniform(8), uniform(16));
        for (label, r) in [("fused", &native), ("8-bit", &at8), ("16-bit", &at16)] {
            let per_input = (r.total_cycles() / BATCH) as f64;
            f.network(b, &format!("{label} cycles/input"), per_input, None);
        }
        let speedup = |r: &PerfReport| r.total_cycles() as f64 / native.total_cycles() as f64;
        let energy = at8.total_energy().total_pj() / native.total_energy().total_pj();
        f.network(b, "speedup vs 8-bit", speedup(&at8), None);
        f.network(b, "speedup vs 16-bit", speedup(&at16), None);
        f.network(b, "energy reduction vs 8-bit", energy, None);
    }
    f.geomean("speedup vs 8-bit", None);
    f.geomean("speedup vs 16-bit", None);
    f.geomean("energy reduction vs 8-bit", None);
    f
}

/// §III-C's Loom comparison: a fully-temporal design (both operands
/// bit-serial) against the spatio-temporal Fusion Units, area-matched at
/// 980 MHz.
fn loom() -> Figure {
    let mut f = Figure::new("loom");
    let bf = BitFusionSim::new(ArchConfig::stripes_matched());
    let loom = LoomSim::default();
    for b in Benchmark::ALL {
        let r = bf.run(&b.model(), BATCH).expect("zoo model compiles");
        let l = loom.run(&b.model(), BATCH);
        let bf_energy = r.total_energy();
        let energy = l.energy.total_pj() / bf_energy.total_pj();
        let sram = l.energy.buffer_pj / bf_energy.buffer_pj;
        f.network(b, "speedup", l.runtime_ms / r.runtime_ms(), None);
        f.network(b, "energy reduction", energy, None);
        f.network(b, "SRAM energy ratio", sram, None);
    }
    f.geomean("speedup", None);
    f.geomean("energy reduction", None);
    f.geomean("SRAM energy ratio", None);
    f
}
