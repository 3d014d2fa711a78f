//! Acceptance tests for precision as a design-space axis: a `dse` request
//! with multiple quantization policies over the whole zoo must be
//! deterministic (byte-identical across worker counts), report the
//! heterogeneous-vs-uniform-8 benefit, and show uniform-16 slower-or-equal
//! on every network.

use bitfusion::service::protocol::{DseParams, ModelSource};
use bitfusion::service::{Request, Response, Session};

fn zoo_quant_params(workers: u64) -> DseParams {
    DseParams {
        rows: vec![32],
        cols: vec![16],
        ibuf_kb: vec![32],
        wbuf_kb: vec![64],
        obuf_kb: vec![16],
        bandwidth: vec![128, 256],
        batches: vec![1],
        quants: vec![
            "paper".to_string(),
            "uniform8".to_string(),
            "uniform16".to_string(),
        ],
        networks: None, // the whole eight-network zoo
        models: Vec::new(),
        workers,
        backend: None,
    }
}

#[test]
fn zoo_quant_dse_is_deterministic_and_orders_precisions() {
    let session = Session::new();
    let baseline = session.handle(&Request::Dse(zoo_quant_params(1)));
    let baseline_bytes = baseline.encode();

    // Byte-identical for any worker count, even against a warm cache.
    for workers in [2, 4] {
        let again = session.handle(&Request::Dse(zoo_quant_params(workers)));
        assert_eq!(
            again.encode(),
            baseline_bytes,
            "{workers} workers changed the reply bytes"
        );
    }

    let Response::Dse(reply) = baseline else {
        panic!("expected dse reply, got {baseline_bytes}");
    };
    assert_eq!(reply.quants, ["paper", "uniform8", "uniform16"]);
    assert_eq!(reply.infeasible, 0, "{:?}", reply.infeasible_sample);
    assert_eq!(reply.speedup_baseline.as_deref(), Some("uniform8"));
    assert!(!reply.frontier.is_empty());
    // The bandwidth axis still shares compilations under the quant axis:
    // 8 networks × 3 quants × 1 geometry = 24 unique compiles for 48
    // points.
    assert_eq!(reply.compile_misses, 24);
    assert_eq!(reply.compile_hits, 24);

    // Per-network: the paper's heterogeneous assignment beats or matches
    // the fixed 8-bit datapath, and the fixed 16-bit datapath is strictly
    // slower-or-equal (here: strictly slower on every zoo network).
    let mut models_seen = 0;
    for s in &reply.quant_speedups {
        match s.quant.as_str() {
            "paper" => {
                models_seen += 1;
                assert!(
                    s.speedup >= 1.0,
                    "{}: paper {}x vs uniform8",
                    s.model,
                    s.speedup
                );
            }
            "uniform16" => assert!(
                s.speedup < 1.0,
                "{}: uniform16 {}x vs uniform8 — must be slower-or-equal",
                s.model,
                s.speedup
            ),
            other => panic!("unexpected quant {other}"),
        }
    }
    assert_eq!(models_seen, 8, "every zoo network must be compared");
}

#[test]
fn duplicate_quant_policies_are_rejected_not_merged() {
    // Two entries that canonicalize alike would merge into one
    // over-counted candidate and silently empty the frontier; the
    // session must refuse instead.
    let session = Session::new();
    let params = DseParams {
        quants: vec!["uniform8".to_string(), "default=8/8".to_string()],
        networks: Some(vec!["lstm".to_string()]),
        batches: vec![1],
        workers: 1,
        ..DseParams::default()
    };
    match session.handle(&Request::Dse(params)) {
        Response::Error { message } => {
            assert!(
                message.contains("default=8/8") && message.contains("uniform8"),
                "{message}"
            );
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn report_quant_overrides_change_cycles_monotonically() {
    let session = Session::new();
    let cycles = |quant: Option<&str>| {
        let resp = session.handle(&Request::Report {
            model: ModelSource::zoo("vgg-7"),
            batch: 1,
            bandwidth: None,
            arch: Default::default(),
            backend: None,
            quant: quant.map(str::to_string),
        });
        match resp {
            Response::Report(r) => {
                assert_eq!(r.quant.as_deref(), quant);
                r.cycles
            }
            other => panic!("{other:?}"),
        }
    };
    let paper = cycles(None); // VGG-7's Table II assignment is 2/2
    let u4 = cycles(Some("uniform4"));
    let u8 = cycles(Some("uniform8"));
    let u16 = cycles(Some("uniform16"));
    assert!(paper <= u4 && u4 <= u8 && u8 <= u16, "{paper} {u4} {u8} {u16}");
    assert!(u16 > paper, "16-bit must cost cycles over ternary");
}

#[test]
fn quantize_request_reports_the_assignment() {
    let session = Session::new();
    match session.handle(&Request::Quantize {
        model: ModelSource::zoo("alexnet"),
        quant: None,
    }) {
        Response::Quantize(r) => {
            assert_eq!(r.benchmark, "AlexNet");
            assert_eq!(r.quant, "paper");
            assert_eq!(r.layers.len(), 8);
            assert_eq!(r.layers[0].name, "conv1");
            assert_eq!((r.layers[0].input_bits, r.layers[0].weight_bits), (8, 8));
            assert_eq!((r.layers[1].input_bits, r.layers[1].weight_bits), (4, 1));
        }
        other => panic!("{other:?}"),
    }
    // Overrides act on top of the paper assignment.
    match session.handle(&Request::Quantize {
        model: ModelSource::zoo("alexnet"),
        quant: Some("fc=8/8".into()),
    }) {
        Response::Quantize(r) => {
            for l in &r.layers {
                let expect = match (l.kind.as_str(), l.name.as_str()) {
                    ("fc", _) => (8, 8),
                    (_, "conv1") => (8, 8),
                    _ => (4, 1),
                };
                assert_eq!((l.input_bits, l.weight_bits), expect, "{}", l.name);
            }
        }
        other => panic!("{other:?}"),
    }
    // A bad override is an error response naming the problem.
    match session.handle(&Request::Quantize {
        model: ModelSource::zoo("lstm"),
        quant: Some("layer:nope=4/4".into()),
    }) {
        Response::Error { message } => assert!(message.contains("nope"), "{message}"),
        other => panic!("{other:?}"),
    }
}
