//! The fidelity record pinned in `FIDELITY.json`, and the paper's
//! qualitative claims about its figures checked against it.

use std::collections::HashMap;
use std::sync::OnceLock;

use bitfusion::core::json;
use bitfusion::dnn::zoo::Benchmark;
use bitfusion_bench::fidelity::{points, render, Point};
use bitfusion_bench::paper;

const PINNED: &str = include_str!("../../../FIDELITY.json");

fn record() -> &'static [Point] {
    static RECORD: OnceLock<Vec<Point>> = OnceLock::new();
    RECORD.get_or_init(points)
}

fn measured(figure: &str, point: &str) -> f64 {
    record()
        .iter()
        .find(|p| p.figure == figure && p.point == point)
        .unwrap_or_else(|| panic!("no {figure} point `{point}`"))
        .measured
}

#[test]
fn record_matches_fidelity_json() {
    let fresh = render(record());
    if fresh == PINNED {
        return;
    }
    let pinned_errs: HashMap<(String, String), f64> = PINNED
        .lines()
        .filter_map(|line| {
            let doc = json::parse(line).ok()?;
            let figure = doc.get("figure")?.as_str()?.to_string();
            let point = doc.get("point")?.as_str()?.to_string();
            Some(((figure, point), doc.get("log2_err")?.as_f64()?))
        })
        .collect();
    let grown: Vec<String> = record()
        .iter()
        .filter_map(|p| {
            let now = p.log2_err()?;
            let was = *pinned_errs.get(&(p.figure.to_string(), p.point.clone()))?;
            (now.abs() > was.abs()).then(|| format!("{} `{}`: {was} -> {now}", p.figure, p.point))
        })
        .collect();
    let changed: Vec<&str> = fresh
        .lines()
        .filter(|l| !PINNED.lines().any(|p| p == *l))
        .collect();
    panic!(
        "FIDELITY.json is stale: {} recomputed line(s) differ from it.\n\
         |log2 err| grew at {} point(s): {grown:#?}\n\
         changed lines: {changed:#?}\n\
         Re-pin with `cargo run --release -p bitfusion-bench --bin fidelity > FIDELITY.json` \
         and name every grown point in the commit (DESIGN.md, \"Regenerating pinned values\").",
        changed.len(),
        grown.len(),
    );
}

#[test]
fn fig13_alexnet_is_the_slowest_cnn_and_cifar10_the_fastest() {
    let speedup = |b: Benchmark| measured("fig13", &format!("{b} speedup"));
    for b in Benchmark::ALL {
        if !b.is_recurrent() {
            assert!(speedup(Benchmark::AlexNet) <= speedup(b), "AlexNet vs {b}");
        }
        assert!(speedup(Benchmark::Cifar10) >= speedup(b), "Cifar-10 vs {b}");
    }
}

#[test]
fn fig14_bitfusion_rf_is_a_sliver_and_eyeriss_is_rf_heavy() {
    for b in Benchmark::ALL {
        let share =
            |side: &str, category: &str| measured("fig14", &format!("{b} {side} {category} share"));
        // The Fusion Units' output registers are a small RF sliver; Bit
        // Fusion has no per-PE register files.
        assert!(share("Bit Fusion", "rf") < 0.05, "{b}");
        assert!(
            share("Bit Fusion", "buffers") + share("Bit Fusion", "dram") > 0.6,
            "{b}"
        );
        // RF is Eyeriss's largest on-chip component everywhere (the paper's
        // own RF shares dip to ~22% on the DRAM-bound benchmarks).
        let rf = share("Eyeriss", "rf");
        assert!(
            rf > share("Eyeriss", "compute") && rf > share("Eyeriss", "buffers"),
            "{b}"
        );
        assert!(rf > 0.2, "{b}");
    }
}

#[test]
fn fig15_lstm_is_bandwidth_bound() {
    let lstm = measured("fig15", "LSTM at 512 b/cyc");
    assert!(lstm > 2.5, "LSTM gains only {lstm}x at 512 b/cyc");
}

#[test]
fn fig16_gains_saturate_past_batch_64() {
    let saturation = measured("fig16", "saturation past batch 64");
    assert!(
        saturation < 1.15,
        "batch 256 still gains {saturation}x over batch 64"
    );
}

#[test]
fn fig18_alexnet_is_low_and_dual_low_bitwidth_nets_are_high() {
    let speedup = |b: Benchmark| measured("fig18", &format!("{b} speedup"));
    let geomean = measured("fig18", "geomean speedup");
    assert!(speedup(Benchmark::AlexNet) <= geomean);
    for b in [Benchmark::LeNet5, Benchmark::Vgg7, Benchmark::ResNet18] {
        assert!(speedup(b) >= geomean, "{b}: {} < {geomean}", speedup(b));
    }
}

#[test]
fn sec4a_every_block_fits_the_papers_envelope() {
    let largest = measured("sec4a", "max block instructions");
    assert!(
        largest <= paper::SEC4A_BLOCK_INSTRUCTIONS.1,
        "{largest} instructions"
    );
}
