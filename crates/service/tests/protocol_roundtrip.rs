//! Protocol round-trip property tests: for every `Request` and `Response`
//! variant, `encode → parse` recovers the value exactly and
//! `encode → parse → encode` is a fixed point on the wire bytes — the
//! property the serve loop's byte-identity contract stands on.

use bitfusion_core::bitwidth::PairPrecision;
use bitfusion_core::postproc::PoolOp;
use bitfusion_dnn::layer::{
    ActivationLayer, CellKind, Conv2d, Dense, DepthwiseConv2d, Eltwise, Layer, Pool2d, Recurrent,
};
use bitfusion_dnn::model::{Model, NamedLayer};
use bitfusion_dnn::quantspec::{QuantSpec, QUANT_KINDS};
use bitfusion_dnn::schema::{export_model, parse_model};
use bitfusion_service::json::parse as parse_json;
use bitfusion_service::protocol::{
    quant_spec_from_json, quant_spec_to_json, ArchInfo, ArchPreset, AsmBlock, AsmReply,
    BackendChoice, BaselineComparison, BenchmarkInfo, CacheTierInfo, CompareReply,
    DseParams, DseReply, EnergyInfo, FrontierPoint, InfeasibleInfo, LatencyInfo, LayerInfo,
    ModelSource,
    QuantLayerInfo, QuantSpeedupInfo, QuantizeReply, ReportReply, Request, Response, StallInfo,
    StatsReply, SweepAxis, SweepPointInfo, SweepReply,
};
use proptest::prelude::*;

/// Names with every class of character the encoder must escape.
fn arb_name() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec![
            "plain",
            "with \"quotes\"",
            "line\nbreak\ttab",
            "ünïcödé 😀",
            "back\\slash",
            "ctrl\u{1}char",
            "",
        ]),
        0u32..1000,
    )
        .prop_map(|(base, n)| format!("{base}-{n}"))
}

/// Finite floats across magnitudes, including negatives, zero, and values
/// that encode as integer literals.
fn arb_f64() -> impl Strategy<Value = f64> {
    (any::<i32>(), prop::sample::select(vec![1e-9, 1e-3, 1.0, 1e3, 1e12]))
        .prop_map(|(m, scale)| m as f64 * scale)
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1000,
        (1u64 << 40)..(1u64 << 41), // beyond f64-exact-u32 territory
        prop::sample::select(vec![0u64, 1, u64::from(u32::MAX)]),
    ]
}

/// A supported (input, weight) pair in the `from_bits` convention — the
/// only kind a compact or JSON spec can spell.
fn arb_pair() -> impl Strategy<Value = PairPrecision> {
    (
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
    )
        .prop_map(|(i, w)| PairPrecision::from_bits(i, w).expect("supported widths"))
}

/// Structurally arbitrary quant specs: optional default, kind overrides,
/// layer overrides (names drawn from zoo-style identifiers).
fn arb_quant_spec() -> impl Strategy<Value = QuantSpec> {
    (
        prop::option::of(arb_pair()),
        prop::collection::vec(
            (prop::sample::select(QUANT_KINDS.to_vec()), arb_pair()),
            0..3,
        ),
        prop::collection::vec(
            (
                prop::sample::select(vec!["conv1", "fc8", "lstm1", "rnn2", "l4b2c2"]),
                arb_pair(),
            ),
            0..3,
        ),
    )
        .prop_map(|(default, kinds, layers)| QuantSpec {
            default,
            kinds: kinds.into_iter().map(|(k, p)| (k.to_string(), p)).collect(),
            layers: layers.into_iter().map(|(l, p)| (l.to_string(), p)).collect(),
        })
}

/// Quant override strings as the protocol carries them (canonical
/// spellings).
fn arb_quant_string() -> impl Strategy<Value = String> {
    arb_quant_spec().prop_map(|s| s.to_string())
}

fn arb_opt_quant() -> impl Strategy<Value = Option<String>> {
    prop::option::of(arb_quant_string())
}

fn arb_backend() -> impl Strategy<Value = BackendChoice> {
    prop::sample::select(vec![BackendChoice::Analytic, BackendChoice::Event])
}

fn arb_opt_backend() -> impl Strategy<Value = Option<BackendChoice>> {
    prop::option::of(arb_backend())
}

fn arb_axis() -> impl Strategy<Value = SweepAxis> {
    prop::sample::select(vec![SweepAxis::Batch, SweepAxis::Bandwidth])
}

fn arb_arch_preset() -> impl Strategy<Value = ArchPreset> {
    prop::sample::select(vec![
        ArchPreset::Isca45nm,
        ArchPreset::Gpu16nm,
        ArchPreset::StripesMatched,
    ])
}

/// Arbitrary valid layers covering every `bitfusion-model/1` kind, with
/// geometry constrained so sliding windows always fit their padded input
/// (anything looser is a schema parse error, not a round-trip case).
fn arb_model_layer() -> impl Strategy<Value = Layer> {
    let geom = || (4usize..32, 4usize..32, 1usize..4, 1usize..3, 0usize..2);
    let conv = (geom(), 1usize..4, 1usize..8, 1usize..8, arb_pair()).prop_map(
        |((h, w, k, s, p), groups, in_c, out_c, precision)| {
            Layer::Conv2d(Conv2d {
                in_channels: groups * in_c,
                out_channels: groups * out_c,
                kernel: (k, k),
                stride: (s, s),
                padding: (p, p),
                input_hw: (h, w),
                groups,
                precision,
            })
        },
    );
    let dwconv = (geom(), 1usize..32, arb_pair()).prop_map(|((h, w, k, s, p), channels, precision)| {
        Layer::DepthwiseConv2d(DepthwiseConv2d {
            channels,
            kernel: (k, k),
            stride: (s, s),
            padding: (p, p),
            input_hw: (h, w),
            precision,
        })
    });
    let fc = (1usize..256, 1usize..256, arb_pair()).prop_map(|(i, o, precision)| {
        Layer::Dense(Dense {
            in_features: i,
            out_features: o,
            precision,
        })
    });
    let pool = (
        geom(),
        1usize..32,
        prop::sample::select(vec![PoolOp::Max, PoolOp::Average]),
    )
        .prop_map(|((h, w, k, s, p), channels, op)| {
            Layer::Pool2d(Pool2d {
                channels,
                input_hw: (h, w),
                window: (k, k),
                stride: (s, s),
                padding: (p, p),
                op,
            })
        });
    let recurrent = (
        prop::sample::select(vec![CellKind::Lstm, CellKind::Rnn]),
        1usize..256,
        1usize..256,
        arb_pair(),
    )
        .prop_map(|(cell, input_size, hidden_size, precision)| {
            Layer::Recurrent(Recurrent {
                cell,
                input_size,
                hidden_size,
                precision,
            })
        });
    let eltwise = (1usize..4096, any::<bool>())
        .prop_map(|(elements, is_add)| Layer::Eltwise(Eltwise { elements, is_add }));
    let act =
        (1usize..4096).prop_map(|elements| Layer::Activation(ActivationLayer { elements }));
    prop_oneof![conv, dwconv, fc, pool, recurrent, eltwise, act]
}

/// Arbitrary external models as the `"model"` wire field carries them.
fn arb_model() -> impl Strategy<Value = Model> {
    (arb_name(), prop::collection::vec(arb_model_layer(), 1..4)).prop_map(|(name, layers)| {
        Model {
            name,
            layers: layers
                .into_iter()
                .enumerate()
                .map(|(i, layer)| NamedLayer {
                    name: format!("l{i}"),
                    layer,
                })
                .collect(),
        }
    })
}

/// Either side of the `benchmark` XOR `model` wire convention.
fn arb_source() -> impl Strategy<Value = ModelSource> {
    prop_oneof![
        arb_name().prop_map(ModelSource::Zoo),
        arb_model().prop_map(ModelSource::External),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    let report = (
        arb_source(),
        arb_u64(),
        prop::option::of(1u32..4096),
        arb_arch_preset(),
        arb_opt_backend(),
        arb_opt_quant(),
    )
        .prop_map(|(model, batch, bandwidth, arch, backend, quant)| Request::Report {
            model,
            batch,
            bandwidth,
            arch,
            backend,
            quant,
        });
    let compare = (arb_source(), arb_u64(), arb_opt_backend(), arb_opt_quant()).prop_map(
        |(model, batch, backend, quant)| Request::Compare {
            model,
            batch,
            backend,
            quant,
        },
    );
    let asm = (
        arb_source(),
        arb_u64(),
        arb_arch_preset(),
        prop::option::of(arb_name()),
    )
        .prop_map(|(model, batch, arch, layer)| Request::Asm {
            model,
            batch,
            arch,
            layer,
        });
    let sweep = (arb_source(), arb_axis(), arb_opt_backend(), arb_opt_quant()).prop_map(
        |(model, axis, backend, quant)| Request::Sweep {
            model,
            axis,
            backend,
            quant,
        },
    );
    let dse = (
        (
            prop::collection::vec(1u64..128, 1..4),
            prop::collection::vec(1u64..128, 1..4),
            prop::collection::vec(1u64..512, 1..3),
            prop::collection::vec(1u64..512, 1..3),
            prop::collection::vec(1u64..512, 1..3),
            prop::collection::vec(1u64..1024, 1..4),
            prop::collection::vec(1u64..256, 1..3),
        ),
        prop::collection::vec(arb_quant_string(), 1..4),
        prop::option::of(prop::collection::vec(arb_name(), 1..4)),
        prop::collection::vec(arb_model(), 0..3),
        0u64..16,
        arb_opt_backend(),
    )
        .prop_map(
            |(
                (rows, cols, ibuf_kb, wbuf_kb, obuf_kb, bandwidth, batches),
                quants,
                networks,
                models,
                workers,
                backend,
            )| {
                Request::Dse(DseParams {
                    rows,
                    cols,
                    ibuf_kb,
                    wbuf_kb,
                    obuf_kb,
                    bandwidth,
                    batches,
                    quants,
                    networks,
                    models,
                    workers,
                    backend,
                })
            },
        );
    let quantize = (arb_source(), arb_opt_quant())
        .prop_map(|(model, quant)| Request::Quantize { model, quant });
    prop_oneof![
        prop::sample::select(vec![Request::List, Request::Stats, Request::Shutdown]),
        report,
        compare,
        asm,
        sweep,
        dse,
        quantize,
    ]
}

fn arb_cache_tier() -> impl Strategy<Value = CacheTierInfo> {
    (arb_u64(), arb_u64(), arb_u64(), arb_u64(), arb_u64()).prop_map(
        |(hits, misses, evictions, len, capacity)| CacheTierInfo {
            hits,
            misses,
            evictions,
            len,
            capacity,
        },
    )
}

fn arb_arch_info() -> impl Strategy<Value = ArchInfo> {
    (
        arb_name(),
        1u64..256,
        1u64..256,
        1u64..1024,
        1u64..1024,
        1u64..1024,
        1u64..4096,
        1u64..4096,
    )
        .prop_map(
            |(name, rows, cols, ibuf_kb, wbuf_kb, obuf_kb, bandwidth_bits_per_cycle, freq_mhz)| {
                ArchInfo {
                    name,
                    rows,
                    cols,
                    ibuf_kb,
                    wbuf_kb,
                    obuf_kb,
                    bandwidth_bits_per_cycle,
                    freq_mhz,
                }
            },
        )
}

fn arb_energy() -> impl Strategy<Value = EnergyInfo> {
    (arb_f64(), arb_f64(), arb_f64(), arb_f64()).prop_map(
        |(compute_pj, buffer_pj, rf_pj, dram_pj)| EnergyInfo {
            compute_pj,
            buffer_pj,
            rf_pj,
            dram_pj,
        },
    )
}

fn arb_stalls() -> impl Strategy<Value = StallInfo> {
    (arb_u64(), arb_u64(), arb_u64()).prop_map(
        |(bandwidth_starved, compute_starved, fill_drain)| StallInfo {
            bandwidth_starved,
            compute_starved,
            fill_drain,
        },
    )
}

fn arb_layer() -> impl Strategy<Value = LayerInfo> {
    (
        arb_name(),
        arb_u64(),
        arb_u64(),
        arb_u64(),
        arb_u64(),
        arb_u64(),
        prop::sample::select(vec![true, false]),
    )
        .prop_map(
            |(name, cycles, compute_cycles, dma_cycles, macs, dram_bits, bandwidth_bound)| {
                LayerInfo {
                    name,
                    cycles,
                    compute_cycles,
                    dma_cycles,
                    macs,
                    dram_bits,
                    bandwidth_bound,
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    let benchmarks = (
        prop::collection::vec(
            (arb_name(), arb_u64(), arb_u64(), arb_u64()).prop_map(
                |(name, layers, macs, weight_bytes)| BenchmarkInfo {
                    name,
                    layers,
                    macs,
                    weight_bytes,
                },
            ),
            0..4,
        ),
        prop::collection::vec(arb_name(), 0..4),
    )
        .prop_map(|(benchmarks, architectures)| Response::Benchmarks {
            benchmarks,
            architectures,
        });
    let report = (
        (arb_name(), arb_u64(), arb_backend(), arb_opt_quant(), arb_arch_info()),
        (arb_u64(), arb_u64(), arb_u64()),
        (arb_f64(), arb_f64()),
        arb_energy(),
        arb_stalls(),
        (arb_u64(), arb_u64()),
        prop::collection::vec(arb_layer(), 0..4),
    )
        .prop_map(
            |(
                (benchmark, batch, backend, quant, arch),
                (cycles, macs, dram_bits),
                (latency_ms_per_input, macs_per_cycle),
                energy_per_input,
                stalls,
                (layer_hits, layer_misses),
                layers,
            )| {
                Response::Report(ReportReply {
                    benchmark,
                    batch,
                    backend,
                    quant,
                    arch,
                    cycles,
                    macs,
                    dram_bits,
                    latency_ms_per_input,
                    macs_per_cycle,
                    energy_per_input,
                    stalls,
                    layer_hits,
                    layer_misses,
                    layers,
                })
            },
        );
    let compare = (
        (arb_name(), arb_u64(), arb_backend(), arb_opt_quant()),
        arb_f64(),
        arb_energy(),
        prop::collection::vec(
            (arb_name(), arb_f64(), prop::option::of(arb_f64())).prop_map(
                |(name, speedup, energy_ratio)| BaselineComparison {
                    name,
                    speedup,
                    energy_ratio,
                },
            ),
            0..4,
        ),
    )
        .prop_map(
            |(
                (benchmark, batch, backend, quant),
                latency_ms_per_input,
                energy_per_input,
                baselines,
            )| {
                Response::Compare(CompareReply {
                    benchmark,
                    batch,
                    backend,
                    quant,
                    latency_ms_per_input,
                    energy_per_input,
                    baselines,
                })
            },
        );
    let asm = (
        arb_name(),
        arb_u64(),
        prop::collection::vec(
            (arb_name(), arb_name()).prop_map(|(layer, text)| AsmBlock { layer, text }),
            0..4,
        ),
    )
        .prop_map(|(benchmark, batch, blocks)| {
            Response::Asm(AsmReply {
                benchmark,
                batch,
                blocks,
            })
        });
    let sweep = (
        (arb_name(), arb_axis(), arb_backend(), arb_opt_quant(), arb_u64()),
        (arb_u64(), arb_u64()),
        prop::collection::vec(
            (arb_u64(), arb_u64(), arb_f64(), arb_f64()).prop_map(
                |(value, cycles, cycles_per_input, speedup)| SweepPointInfo {
                    value,
                    cycles,
                    cycles_per_input,
                    speedup,
                },
            ),
            0..6,
        ),
    )
        .prop_map(
            |((benchmark, axis, backend, quant, baseline), (layer_hits, layer_misses), points)| {
                Response::Sweep(SweepReply {
                    benchmark,
                    axis,
                    backend,
                    quant,
                    baseline,
                    layer_hits,
                    layer_misses,
                    points,
                })
            },
        );
    let dse = (
        (arb_backend(), arb_u64(), arb_u64(), arb_u64()),
        (
            prop::collection::vec(arb_quant_string(), 1..4),
            prop::option::of(arb_quant_string()),
            prop::collection::vec(
                (arb_name(), arb_quant_string(), arb_f64(), arb_f64()).prop_map(
                    |(model, quant, speedup, energy_ratio)| QuantSpeedupInfo {
                        model,
                        quant,
                        speedup,
                        energy_ratio,
                    },
                ),
                0..3,
            ),
        ),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64()),
        prop::collection::vec(
            (arb_name(), arb_name(), arb_name()).prop_map(|(model, arch, error)| {
                InfeasibleInfo { model, arch, error }
            }),
            0..3,
        ),
        prop::collection::vec(
            (
                arb_arch_info(),
                arb_quant_string(),
                arb_u64(),
                arb_f64(),
                arb_f64(),
                arb_u64(),
                arb_u64(),
            )
                .prop_map(
                    |(
                        arch,
                        quant,
                        cycles,
                        energy_pj,
                        area_mm2,
                        bandwidth_starved,
                        compute_starved,
                    )| {
                        FrontierPoint {
                            arch,
                            quant,
                            cycles,
                            energy_pj,
                            area_mm2,
                            bandwidth_starved,
                            compute_starved,
                        }
                    },
                ),
            0..3,
        ),
    )
        .prop_map(
            |(
                (backend, grid_points, points, infeasible),
                (quants, speedup_baseline, quant_speedups),
                (compile_hits, compile_misses, layer_hits, layer_misses),
                infeasible_sample,
                frontier,
            )| {
                Response::Dse(DseReply {
                    backend,
                    quants,
                    speedup_baseline,
                    quant_speedups,
                    grid_points,
                    points,
                    infeasible,
                    infeasible_sample,
                    compile_hits,
                    compile_misses,
                    layer_hits,
                    layer_misses,
                    frontier,
                })
            },
        );
    let quantize = (
        (arb_name(), arb_quant_string()),
        (arb_u64(), arb_u64(), arb_f64()),
        prop::collection::vec(
            (
                arb_name(),
                prop::sample::select(QUANT_KINDS.to_vec()),
                prop::sample::select(vec![1u64, 2, 4, 8, 16]),
                prop::sample::select(vec![1u64, 2, 4, 8, 16]),
                arb_u64(),
            )
                .prop_map(|(name, kind, input_bits, weight_bits, macs)| QuantLayerInfo {
                    name,
                    kind: kind.to_string(),
                    input_bits,
                    weight_bits,
                    macs,
                }),
            0..4,
        ),
    )
        .prop_map(
            |((benchmark, quant), (total_macs, weight_bytes, share_le_4bit), layers)| {
                Response::Quantize(QuantizeReply {
                    benchmark,
                    quant,
                    total_macs,
                    weight_bytes,
                    share_le_4bit,
                    layers,
                })
            },
        );
    let error = arb_name().prop_map(|message| Response::Error { message });
    let stats = (
        (arb_u64(), arb_u64()),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64(), arb_u64()),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64()),
        (arb_cache_tier(), arb_cache_tier()),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64(), arb_u64()),
    )
        .prop_map(
            |(
                (connections_active, connections_total),
                (received, ok, errors, shed, coalesced),
                (queue_depth, queue_capacity, in_flight, workers),
                (artifact_cache, layer_cache),
                (count, p50_us, p90_us, p99_us, max_us),
            )| {
                Response::Stats(StatsReply {
                    connections_active,
                    connections_total,
                    received,
                    ok,
                    errors,
                    shed,
                    coalesced,
                    queue_depth,
                    queue_capacity,
                    in_flight,
                    workers,
                    artifact_cache,
                    layer_cache,
                    latency: LatencyInfo {
                        count,
                        p50_us,
                        p90_us,
                        p99_us,
                        max_us,
                    },
                })
            },
        );
    prop_oneof![
        benchmarks,
        report,
        compare,
        asm,
        sweep,
        dse,
        quantize,
        stats,
        prop::sample::select(vec![Response::Shutdown]),
        error,
    ]
}

proptest! {
    #[test]
    fn request_encode_parse_encode_is_a_fixed_point(req in arb_request()) {
        let wire = req.encode();
        let back = Request::parse(&wire).expect("own encoding parses");
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back.encode(), wire);
    }

    #[test]
    fn response_encode_parse_encode_is_a_fixed_point(resp in arb_response()) {
        let wire = resp.encode();
        let back = Response::parse(&wire).expect("own encoding parses");
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.encode(), wire.clone());
        // The wire form is one line: serve's framing can never split it.
        prop_assert!(!wire.contains('\n'), "{}", wire);
    }

    #[test]
    fn model_export_parse_export_is_a_fixed_point(model in arb_model()) {
        // The `bitfusion-model/1` document format the wire embeds: parsing
        // an export reconstructs the model, and re-export is byte-identical.
        let doc = export_model(&model).encode();
        let back = parse_model(&doc).expect("own export parses");
        prop_assert_eq!(&back, &model, "{}", doc);
        prop_assert_eq!(export_model(&back).encode(), doc);
    }

    #[test]
    fn quant_spec_compact_display_parse_is_a_fixed_point(spec in arb_quant_spec()) {
        // The protocol carries specs as their canonical compact spelling,
        // so Display ∘ parse must be lossless and canonical.
        let text = spec.to_string();
        let back = QuantSpec::parse(&text).expect("own spelling parses");
        prop_assert_eq!(&back, &spec, "{}", text);
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn quant_spec_json_encode_parse_encode_is_a_fixed_point(spec in arb_quant_spec()) {
        // The `--quant <spec.json>` file format.
        let wire = quant_spec_to_json(&spec).encode();
        let doc = parse_json(&wire).expect("own encoding is valid JSON");
        let back = quant_spec_from_json(&doc).expect("own encoding parses");
        prop_assert_eq!(&back, &spec, "{}", wire);
        prop_assert_eq!(quant_spec_to_json(&back).encode(), wire);
    }
}

#[test]
fn every_request_variant_is_exercised() {
    // The strategies above must cover all nine commands; pin the
    // discriminants so a new variant cannot silently skip the round-trip.
    let external = ModelSource::External(Model::new(
        "tiny",
        vec![(
            "fc1",
            Layer::Dense(Dense {
                in_features: 64,
                out_features: 32,
                precision: PairPrecision::from_bits(4, 1).unwrap(),
            }),
        )],
    ));
    let mut seen = std::collections::BTreeSet::new();
    for req in [
        Request::List,
        Request::Report {
            model: external.clone(),
            batch: 1,
            bandwidth: None,
            arch: ArchPreset::Isca45nm,
            backend: None,
            quant: Some("uniform8".into()),
        },
        Request::Compare {
            model: ModelSource::zoo("x"),
            batch: 1,
            backend: None,
            quant: None,
        },
        Request::Asm {
            model: ModelSource::zoo("x"),
            batch: 1,
            arch: ArchPreset::Isca45nm,
            layer: None,
        },
        Request::Sweep {
            model: external,
            axis: SweepAxis::Batch,
            backend: None,
            quant: None,
        },
        Request::Dse(DseParams::default()),
        Request::Quantize {
            model: ModelSource::zoo("x"),
            quant: Some("default=4/1,layer:conv1=8/8".into()),
        },
        Request::Stats,
        Request::Shutdown,
    ] {
        seen.insert(req.cmd());
        let wire = req.encode();
        assert_eq!(Request::parse(&wire).unwrap(), req);
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![
            "asm", "compare", "dse", "list", "quantize", "report", "shutdown", "stats", "sweep"
        ]
    );
}
