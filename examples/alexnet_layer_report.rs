//! Per-layer anatomy of AlexNet on Bit Fusion vs Eyeriss: where the cycles
//! go, which layers are bandwidth-bound, and what bit-level fusion buys at
//! each precision.
//!
//! Run with: `cargo run --release --example alexnet_layer_report`

use bitfusion::baselines::EyerissSim;
use bitfusion::core::arch::ArchConfig;
use bitfusion::dnn::zoo::Benchmark;
use bitfusion::sim::BitFusionSim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = BitFusionSim::new(ArchConfig::isca_45nm());
    let model = Benchmark::AlexNet.model();
    let report = sim.run(&model, 16)?;

    println!("AlexNet (2x-wide WRPN) on Bit Fusion, batch 16:");
    println!(
        "  {:<8} {:>9} {:>12} {:>7} {:>12} {:>10} {:>8}",
        "layer", "precision", "MACs", "bound", "cycles", "MACs/cyc", "energy"
    );
    let plan = bitfusion::compiler::compile(&model, sim.arch(), 16)?;
    for (perf, planned) in report.layers.iter().zip(&plan.layers) {
        println!(
            "  {:<8} {:>9} {:>12} {:>7} {:>12} {:>10.0} {:>7.0}uJ",
            perf.name,
            planned.gemm.pair.to_string(),
            perf.macs,
            if perf.is_bandwidth_bound() { "mem" } else { "compute" },
            perf.cycles,
            perf.macs_per_cycle(),
            perf.energy.total_pj() / 1e6,
        );
    }
    println!();
    println!(
        "total: {:.3} ms/image, {:.1} average MACs/cycle, {}",
        report.latency_ms_per_input(),
        report.macs_per_cycle(),
        report.energy_per_input()
    );

    // Eyeriss runs the regular-width model at 16 bits.
    let eyeriss = EyerissSim::default().run(&Benchmark::AlexNet.reference_model(), 16);
    println!();
    println!(
        "Eyeriss (regular AlexNet, 16-bit): {:.3} ms/image -> Bit Fusion speedup {:.2}x, \
         energy reduction {:.2}x",
        eyeriss.latency_ms_per_input(),
        eyeriss.latency_ms_per_input() / report.latency_ms_per_input(),
        eyeriss.energy.total_pj() / report.total_energy().total_pj()
    );
    println!(
        "(the paper's Figure 13 reports 1.9x/1.5x against its own simulator; the\n\
         per-layer-class comparison is the `sec5b1` rows of FIDELITY.json, and\n\
         DESIGN.md's substitution table explains the gap)"
    );
    Ok(())
}
