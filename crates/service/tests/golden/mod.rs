//! The pinned wire corpus shared by `wire_golden.rs` (which checks every
//! byte) and `wire_fuzz.rs` (which mutates the lines).
//!
//! One value per `Request` and `Response` variant, plus a second value
//! wherever a field is optional, so each optional field appears both
//! absent (omitted) and present, and each omit-when-empty list both
//! empty and non-empty.

#![allow(dead_code)]

use bitfusion_dnn::schema::parse_model;
use bitfusion_service::protocol::{
    ArchInfo, ArchPreset, AsmBlock, AsmReply, BackendChoice, BaselineComparison, BenchmarkInfo,
    CacheTierInfo, CompareReply, DseParams, DseReply, EnergyInfo, FrontierPoint, InfeasibleInfo,
    LatencyInfo, LayerInfo, ModelSource, QuantLayerInfo, QuantSpeedupInfo, QuantizeReply,
    ReportReply, Request, Response, StallInfo, StatsReply, SweepAxis, SweepPointInfo, SweepReply,
};

/// The inline model the `model` / `models` fields carry.
pub const TINY_MODEL: &str = r#"{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]}"#;

fn tiny() -> bitfusion_dnn::model::Model {
    parse_model(TINY_MODEL).expect("the tiny model parses")
}

/// Every request variant with its pinned wire line.
pub fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::List, r#"{"cmd":"list"}"#),
        (
            Request::Report {
                model: ModelSource::zoo("LSTM"),
                batch: 4,
                bandwidth: Some(256),
                arch: ArchPreset::Gpu16nm,
                backend: Some(BackendChoice::Event),
                quant: Some("uniform8".into()),
            },
            r#"{"cmd":"report","benchmark":"LSTM","batch":4,"bandwidth":256,"arch":"16nm","backend":"event","quant":"uniform8"}"#,
        ),
        (
            Request::Report {
                model: ModelSource::External(tiny()),
                batch: 16,
                bandwidth: None,
                arch: ArchPreset::Isca45nm,
                backend: None,
                quant: None,
            },
            r#"{"cmd":"report","model":{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]},"batch":16,"arch":"45nm"}"#,
        ),
        (
            Request::Compare {
                model: ModelSource::zoo("alexnet"),
                batch: 1,
                backend: Some(BackendChoice::Analytic),
                quant: Some("default=4/1,conv=2/2".into()),
            },
            r#"{"cmd":"compare","benchmark":"alexnet","batch":1,"backend":"analytic","quant":"default=4/1,conv=2/2"}"#,
        ),
        (
            Request::Compare {
                model: ModelSource::External(tiny()),
                batch: 16,
                backend: None,
                quant: None,
            },
            r#"{"cmd":"compare","model":{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]},"batch":16}"#,
        ),
        (
            Request::Asm {
                model: ModelSource::zoo("rnn"),
                batch: 2,
                arch: ArchPreset::StripesMatched,
                layer: Some("fc1".into()),
            },
            r#"{"cmd":"asm","benchmark":"rnn","batch":2,"arch":"stripes","layer":"fc1"}"#,
        ),
        (
            Request::Asm {
                model: ModelSource::External(tiny()),
                batch: 16,
                arch: ArchPreset::Isca45nm,
                layer: None,
            },
            r#"{"cmd":"asm","model":{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]},"batch":16,"arch":"45nm"}"#,
        ),
        (
            Request::Sweep {
                model: ModelSource::zoo("rnn"),
                axis: SweepAxis::Bandwidth,
                backend: Some(BackendChoice::Event),
                quant: Some("uniform4".into()),
            },
            r#"{"cmd":"sweep","benchmark":"rnn","axis":"bandwidth","backend":"event","quant":"uniform4"}"#,
        ),
        (
            Request::Sweep {
                model: ModelSource::External(tiny()),
                axis: SweepAxis::Batch,
                backend: None,
                quant: None,
            },
            r#"{"cmd":"sweep","model":{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]},"axis":"batch"}"#,
        ),
        (
            Request::Dse(DseParams::default()),
            r#"{"cmd":"dse","rows":[16,32],"cols":[8,16],"ibuf_kb":[32],"wbuf_kb":[64],"obuf_kb":[16],"bandwidth":[64,128,256],"batches":[16],"quants":["paper"],"workers":0}"#,
        ),
        (
            Request::Dse(DseParams {
                rows: vec![8],
                cols: vec![8, 16, 32],
                ibuf_kb: vec![16, 64],
                wbuf_kb: vec![128],
                obuf_kb: vec![8],
                bandwidth: vec![512],
                batches: vec![1, 16],
                quants: vec!["paper".into(), "uniform8".into()],
                networks: Some(vec!["lstm".into(), "rnn".into()]),
                models: vec![tiny()],
                workers: 2,
                backend: Some(BackendChoice::Event),
            }),
            r#"{"cmd":"dse","rows":[8],"cols":[8,16,32],"ibuf_kb":[16,64],"wbuf_kb":[128],"obuf_kb":[8],"bandwidth":[512],"batches":[1,16],"quants":["paper","uniform8"],"networks":["lstm","rnn"],"models":[{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]}],"workers":2,"backend":"event"}"#,
        ),
        (
            Request::Quantize {
                model: ModelSource::zoo("svhn"),
                quant: Some("layer:fc8=8/8".into()),
            },
            r#"{"cmd":"quantize","benchmark":"svhn","quant":"layer:fc8=8/8"}"#,
        ),
        (
            Request::Quantize {
                model: ModelSource::External(tiny()),
                quant: None,
            },
            r#"{"cmd":"quantize","model":{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]}}"#,
        ),
        (Request::Stats, r#"{"cmd":"stats"}"#),
        (Request::Shutdown, r#"{"cmd":"shutdown"}"#),
    ]
}

fn arch() -> ArchInfo {
    ArchInfo {
        name: "isca-45nm".into(),
        rows: 32,
        cols: 16,
        ibuf_kb: 32,
        wbuf_kb: 64,
        obuf_kb: 16,
        bandwidth_bits_per_cycle: 128,
        freq_mhz: 500,
    }
}

fn energy() -> EnergyInfo {
    EnergyInfo {
        compute_pj: 1.5,
        buffer_pj: 0.25,
        rf_pj: 2.0,
        dram_pj: 1e-7,
    }
}

fn report(quant: Option<String>) -> ReportReply {
    ReportReply {
        benchmark: "LSTM".into(),
        batch: 16,
        backend: BackendChoice::Analytic,
        quant,
        arch: arch(),
        cycles: 123_456,
        macs: 9_876_543,
        dram_bits: 1 << 40,
        latency_ms_per_input: 0.015625,
        macs_per_cycle: 80.0,
        energy_per_input: energy(),
        stalls: StallInfo {
            bandwidth_starved: 7,
            compute_starved: 0,
            fill_drain: 31,
        },
        layer_hits: 3,
        layer_misses: 5,
        layers: vec![
            LayerInfo {
                name: "lstm1".into(),
                cycles: 100,
                compute_cycles: 60,
                dma_cycles: 100,
                macs: 2048,
                dram_bits: 4096,
                bandwidth_bound: true,
            },
            LayerInfo {
                name: "fc \"out\"".into(),
                cycles: 20,
                compute_cycles: 20,
                dma_cycles: 5,
                macs: 64,
                dram_bits: 128,
                bandwidth_bound: false,
            },
        ],
    }
}

fn sweep(quant: Option<String>) -> SweepReply {
    SweepReply {
        benchmark: "RNN".into(),
        axis: SweepAxis::Batch,
        backend: BackendChoice::Event,
        quant,
        baseline: 1,
        layer_hits: 0,
        layer_misses: 12,
        points: vec![
            SweepPointInfo {
                value: 1,
                cycles: 1000,
                cycles_per_input: 1000.0,
                speedup: 1.0,
            },
            SweepPointInfo {
                value: 16,
                cycles: 4000,
                cycles_per_input: 250.0,
                speedup: 4.0,
            },
        ],
    }
}

fn dse(full: bool) -> DseReply {
    let frontier = vec![FrontierPoint {
        arch: arch(),
        quant: "paper".into(),
        cycles: 5000,
        energy_pj: 12.5,
        area_mm2: 1.75,
        bandwidth_starved: 9,
        compute_starved: 1,
    }];
    if !full {
        return DseReply {
            backend: BackendChoice::Analytic,
            quants: vec!["paper".into()],
            speedup_baseline: None,
            quant_speedups: Vec::new(),
            grid_points: 4,
            points: 8,
            infeasible: 0,
            infeasible_sample: Vec::new(),
            compile_hits: 4,
            compile_misses: 4,
            layer_hits: 10,
            layer_misses: 20,
            frontier,
        };
    }
    DseReply {
        backend: BackendChoice::Event,
        quants: vec!["paper".into(), "uniform8".into()],
        speedup_baseline: Some("uniform8".into()),
        quant_speedups: vec![QuantSpeedupInfo {
            model: "LSTM".into(),
            quant: "paper".into(),
            speedup: 1.25,
            energy_ratio: 0.5,
        }],
        grid_points: 2,
        points: 8,
        infeasible: 1,
        infeasible_sample: vec![InfeasibleInfo {
            model: "VGG-7".into(),
            arch: "8x8 ibuf=1KB".into(),
            error: "buffer too small".into(),
        }],
        compile_hits: 0,
        compile_misses: 7,
        layer_hits: 1,
        layer_misses: 2,
        frontier,
    }
}

/// Every response variant with its pinned wire line.
pub fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Benchmarks {
                benchmarks: vec![BenchmarkInfo {
                    name: "AlexNet".into(),
                    layers: 8,
                    macs: 724_406_816,
                    weight_bytes: 15_130_240,
                }],
                architectures: vec!["45nm: 32x16".into(), "16nm".into()],
            },
            r#"{"reply":"list","benchmarks":[{"name":"AlexNet","layers":8,"macs":724406816,"weight_bytes":15130240}],"architectures":["45nm: 32x16","16nm"]}"#,
        ),
        (
            Response::Report(report(Some("uniform8".into()))),
            r#"{"reply":"report","benchmark":"LSTM","batch":16,"backend":"analytic","quant":"uniform8","arch":{"name":"isca-45nm","rows":32,"cols":16,"ibuf_kb":32,"wbuf_kb":64,"obuf_kb":16,"bandwidth_bits_per_cycle":128,"freq_mhz":500},"cycles":123456,"macs":9876543,"dram_bits":1099511627776,"latency_ms_per_input":0.015625,"macs_per_cycle":80,"energy_per_input":{"compute_pj":1.5,"buffer_pj":0.25,"rf_pj":2,"dram_pj":0.0000001},"stalls":{"bandwidth_starved":7,"compute_starved":0,"fill_drain":31},"layer_cache":{"hits":3,"misses":5},"layers":[{"name":"lstm1","cycles":100,"compute_cycles":60,"dma_cycles":100,"macs":2048,"dram_bits":4096,"bandwidth_bound":true},{"name":"fc \"out\"","cycles":20,"compute_cycles":20,"dma_cycles":5,"macs":64,"dram_bits":128,"bandwidth_bound":false}]}"#,
        ),
        (
            Response::Report(report(None)),
            r#"{"reply":"report","benchmark":"LSTM","batch":16,"backend":"analytic","arch":{"name":"isca-45nm","rows":32,"cols":16,"ibuf_kb":32,"wbuf_kb":64,"obuf_kb":16,"bandwidth_bits_per_cycle":128,"freq_mhz":500},"cycles":123456,"macs":9876543,"dram_bits":1099511627776,"latency_ms_per_input":0.015625,"macs_per_cycle":80,"energy_per_input":{"compute_pj":1.5,"buffer_pj":0.25,"rf_pj":2,"dram_pj":0.0000001},"stalls":{"bandwidth_starved":7,"compute_starved":0,"fill_drain":31},"layer_cache":{"hits":3,"misses":5},"layers":[{"name":"lstm1","cycles":100,"compute_cycles":60,"dma_cycles":100,"macs":2048,"dram_bits":4096,"bandwidth_bound":true},{"name":"fc \"out\"","cycles":20,"compute_cycles":20,"dma_cycles":5,"macs":64,"dram_bits":128,"bandwidth_bound":false}]}"#,
        ),
        (
            Response::Compare(CompareReply {
                benchmark: "AlexNet".into(),
                batch: 16,
                backend: BackendChoice::Analytic,
                quant: Some("uniform8".into()),
                latency_ms_per_input: 0.5,
                energy_per_input: energy(),
                baselines: vec![
                    BaselineComparison {
                        name: "Eyeriss".into(),
                        speedup: 3.5,
                        energy_ratio: Some(5.25),
                    },
                    BaselineComparison {
                        name: "GPU".into(),
                        speedup: 0.75,
                        energy_ratio: None,
                    },
                ],
            }),
            r#"{"reply":"compare","benchmark":"AlexNet","batch":16,"backend":"analytic","quant":"uniform8","latency_ms_per_input":0.5,"energy_per_input":{"compute_pj":1.5,"buffer_pj":0.25,"rf_pj":2,"dram_pj":0.0000001},"baselines":[{"name":"Eyeriss","speedup":3.5,"energy_ratio":5.25},{"name":"GPU","speedup":0.75}]}"#,
        ),
        (
            Response::Compare(CompareReply {
                benchmark: "AlexNet".into(),
                batch: 1,
                backend: BackendChoice::Event,
                quant: None,
                latency_ms_per_input: 2.0,
                energy_per_input: energy(),
                baselines: Vec::new(),
            }),
            r#"{"reply":"compare","benchmark":"AlexNet","batch":1,"backend":"event","latency_ms_per_input":2,"energy_per_input":{"compute_pj":1.5,"buffer_pj":0.25,"rf_pj":2,"dram_pj":0.0000001},"baselines":[]}"#,
        ),
        (
            Response::Asm(AsmReply {
                benchmark: "RNN".into(),
                batch: 1,
                blocks: vec![AsmBlock {
                    layer: "fc1".into(),
                    text: "setup\n\tloop 4\nend".into(),
                }],
            }),
            r#"{"reply":"asm","benchmark":"RNN","batch":1,"blocks":[{"layer":"fc1","text":"setup\n\tloop 4\nend"}]}"#,
        ),
        (
            Response::Sweep(sweep(Some("paper".into()))),
            r#"{"reply":"sweep","benchmark":"RNN","axis":"batch","backend":"event","quant":"paper","baseline":1,"layer_cache":{"hits":0,"misses":12},"points":[{"value":1,"cycles":1000,"cycles_per_input":1000,"speedup":1},{"value":16,"cycles":4000,"cycles_per_input":250,"speedup":4}]}"#,
        ),
        (
            Response::Sweep(sweep(None)),
            r#"{"reply":"sweep","benchmark":"RNN","axis":"batch","backend":"event","baseline":1,"layer_cache":{"hits":0,"misses":12},"points":[{"value":1,"cycles":1000,"cycles_per_input":1000,"speedup":1},{"value":16,"cycles":4000,"cycles_per_input":250,"speedup":4}]}"#,
        ),
        (
            Response::Dse(dse(false)),
            r#"{"reply":"dse","backend":"analytic","quants":["paper"],"grid_points":4,"points":8,"infeasible":0,"compile":{"hits":4,"misses":4},"layer_cache":{"hits":10,"misses":20},"frontier":[{"arch":{"name":"isca-45nm","rows":32,"cols":16,"ibuf_kb":32,"wbuf_kb":64,"obuf_kb":16,"bandwidth_bits_per_cycle":128,"freq_mhz":500},"quant":"paper","cycles":5000,"energy_pj":12.5,"area_mm2":1.75,"bandwidth_starved":9,"compute_starved":1}]}"#,
        ),
        (
            Response::Dse(dse(true)),
            r#"{"reply":"dse","backend":"event","quants":["paper","uniform8"],"speedup_baseline":"uniform8","quant_speedups":[{"model":"LSTM","quant":"paper","speedup":1.25,"energy_ratio":0.5}],"grid_points":2,"points":8,"infeasible":1,"infeasible_sample":[{"model":"VGG-7","arch":"8x8 ibuf=1KB","error":"buffer too small"}],"compile":{"hits":0,"misses":7},"layer_cache":{"hits":1,"misses":2},"frontier":[{"arch":{"name":"isca-45nm","rows":32,"cols":16,"ibuf_kb":32,"wbuf_kb":64,"obuf_kb":16,"bandwidth_bits_per_cycle":128,"freq_mhz":500},"quant":"paper","cycles":5000,"energy_pj":12.5,"area_mm2":1.75,"bandwidth_starved":9,"compute_starved":1}]}"#,
        ),
        (
            Response::Quantize(QuantizeReply {
                benchmark: "SVHN".into(),
                quant: "uniform4".into(),
                total_macs: 1000,
                weight_bytes: 250,
                share_le_4bit: 0.875,
                layers: vec![QuantLayerInfo {
                    name: "conv1".into(),
                    kind: "conv".into(),
                    input_bits: 4,
                    weight_bits: 4,
                    macs: 1000,
                }],
            }),
            r#"{"reply":"quantize","benchmark":"SVHN","quant":"uniform4","total_macs":1000,"weight_bytes":250,"share_le_4bit":0.875,"layers":[{"name":"conv1","kind":"conv","input_bits":4,"weight_bits":4,"macs":1000}]}"#,
        ),
        (
            Response::Stats(StatsReply {
                connections_active: 1,
                connections_total: 2,
                received: 3,
                ok: 4,
                errors: 5,
                shed: 6,
                coalesced: 7,
                queue_depth: 8,
                queue_capacity: 9,
                in_flight: 10,
                workers: 11,
                artifact_cache: CacheTierInfo {
                    hits: 12,
                    misses: 13,
                    evictions: 14,
                    len: 15,
                    capacity: 16,
                },
                layer_cache: CacheTierInfo {
                    hits: 17,
                    misses: 18,
                    evictions: 19,
                    len: 20,
                    capacity: 21,
                },
                latency: LatencyInfo {
                    count: 22,
                    p50_us: 23,
                    p90_us: 24,
                    p99_us: 25,
                    max_us: 26,
                },
            }),
            r#"{"reply":"stats","connections":{"active":1,"total":2},"requests":{"received":3,"ok":4,"errors":5,"shed":6,"coalesced":7},"queue":{"depth":8,"capacity":9,"in_flight":10,"workers":11},"artifact_cache":{"hits":12,"misses":13,"evictions":14,"len":15,"capacity":16},"layer_cache":{"hits":17,"misses":18,"evictions":19,"len":20,"capacity":21},"latency_us":{"count":22,"p50_us":23,"p90_us":24,"p99_us":25,"max_us":26}}"#,
        ),
        (Response::Shutdown, r#"{"reply":"shutdown"}"#),
        (
            Response::Error {
                message: "unknown benchmark `nope`".into(),
            },
            r#"{"reply":"error","message":"unknown benchmark `nope`"}"#,
        ),
    ]
}

/// Malformed request lines and the exact diagnostic each one answers.
pub const REQUEST_ERRORS: &[(&str, &str)] = &[
    (
        r#"{"cmd":"frobnicate"}"#,
        r#"unknown cmd `frobnicate` (list|report|compare|asm|sweep|dse|quantize|stats|shutdown)"#,
    ),
    (
        r#"{"cmd":"report","benchmark":"rnn","bacth":8}"#,
        r#"unknown field `bacth` for `report` (allowed: benchmark, model, batch, bandwidth, arch, backend, quant)"#,
    ),
    (
        r#"{"cmd":"report"}"#,
        r#"missing field `benchmark` (or an inline `model`)"#,
    ),
    (
        r#"{"cmd":"report","benchmark":"lstm","model":{"format":"bitfusion-model/1","name":"tiny","layers":[]}}"#,
        r#"give either `benchmark` or `model`, not both"#,
    ),
    (
        r#"{"cmd":"report","benchmark":"lstm","backend":"x"}"#,
        r#"unknown backend `x` (analytic|event)"#,
    ),
    (
        r#"{"cmd":"report","benchmark":"lstm","bandwidth":4294967296}"#,
        r#"bandwidth out of range"#,
    ),
    (r#"{"cmd":"dse","rows":16}"#, r#"rows must be an array"#),
    (
        r#"{"cmd":"dse","quants":["paper",8]}"#,
        r#"quants entries must be strings"#,
    ),
    (
        r#"{"cmd":"report","benchmark":"lstm","batch":1.5}"#,
        r#"field `batch` must be a non-negative integer"#,
    ),
    (
        r#"{"cmd":"list","extra":1}"#,
        r#"unknown field `extra` for `list` (takes no fields)"#,
    ),
    (r#"not json"#, r#"invalid JSON: expected `null` at byte 0"#),
    (r#"{"benchmark":"lstm"}"#, r#"missing string field `cmd`"#),
    (
        r#"{"cmd":"sweep","benchmark":"rnn"}"#,
        r#"missing string field `axis`"#,
    ),
    (
        r#"{"cmd":"sweep","benchmark":"rnn","axis":"diagonal"}"#,
        r#"unknown sweep axis `diagonal` (batch|bandwidth)"#,
    ),
    (
        r#"{"cmd":"asm","benchmark":"rnn","arch":"7nm"}"#,
        r#"unknown arch `7nm` (45nm|16nm|stripes)"#,
    ),
    (
        r#"{"cmd":"report","benchmark":7}"#,
        r#"field `benchmark` must be a string"#,
    ),
    (
        r#"{"cmd":"report","benchmark":"lstm","quant":3}"#,
        r#"field `quant` must be a string"#,
    ),
    (
        r#"{"cmd":"dse","rows":[16,-1]}"#,
        r#"rows entries must be non-negative integers"#,
    ),
    (
        r#"{"cmd":"dse","networks":"lstm"}"#,
        r#"networks must be an array"#,
    ),
    (r#"{"cmd":"dse","models":{}}"#, r#"models must be an array"#),
    (
        r#"{"cmd":"compare","model":{"format":"bitfusion-model/1","name":"x","layers":[{"name":"c","kind":"conv3d"}]}}"#,
        r#"layers[0].kind: unknown layer kind "conv3d" (conv, dwconv, fc, pool, lstm, rnn, eltwise, act)"#,
    ),
    (
        r#"{"cmd":"sweep","benchmark":"rnn","axis":"batch","workers":2}"#,
        r#"unknown field `workers` for `sweep` (allowed: benchmark, model, axis, backend, quant)"#,
    ),
    (
        r#"{"cmd":"stats","extra":1}"#,
        r#"unknown field `extra` for `stats` (takes no fields)"#,
    ),
];
