//! Design-space exploration with the sharded DSE engine: sweep array
//! geometry, scratchpad capacity, and off-chip bandwidth across the whole
//! benchmark zoo, and reduce the results to a Pareto frontier over
//! (cycles, energy, area) — the kind of study the Bit Fusion architecture
//! parameters (§V-A) came from.
//!
//! Run with: `cargo run --release --example design_space_explorer`

use bitfusion::core::arch::ArchConfig;
use bitfusion::core::grid::ArchGrid;
use bitfusion::sim::{explore, AnalyticBackend, DseSpec};

fn main() {
    println!("Bit Fusion design-space exploration (sharded DSE engine)\n");

    // A 3-dimensional architecture grid: geometry x SRAM split x bandwidth,
    // crossed with all eight zoo networks at batch 16.
    let grid = ArchGrid {
        rows: vec![16, 32, 64],
        cols: vec![8, 16, 32],
        dram_bits_per_cycle: vec![64, 128, 256],
        ..ArchGrid::from_base(ArchConfig::isca_45nm())
    };
    let spec = DseSpec::zoo(grid, vec![16]);
    println!(
        "grid: {} architectures x {} networks = {} points",
        spec.grid.len().expect("27 architectures"),
        spec.models.len(),
        spec.points_within_cap()
            .expect("216 points, under the request cap")
    );

    // Workers = 0 shards across all available cores. Tiling ignores
    // bandwidth, so the bandwidth axis shares one compilation per
    // geometry, and a repeated layer shape is tiled and evaluated once.
    let result = explore(&spec, &AnalyticBackend, 0);
    println!(
        "evaluated {} points; {} unique compilations, {} points sharing one\n",
        result.points.len(),
        result.compile_unique,
        result.spec_compile_hits()
    );

    println!("Pareto frontier over (total cycles, total energy, chip area):");
    println!(
        "  {:>4} {:>4} {:>5} | {:>14} {:>11} {:>9}",
        "rows", "cols", "bw", "cycles", "energy(mJ)", "area(mm2)"
    );
    for s in result.pareto_frontier() {
        println!(
            "  {:>4} {:>4} {:>5} | {:>14} {:>11.2} {:>9.2}",
            s.arch.rows,
            s.arch.cols,
            s.arch.dram_bits_per_cycle,
            s.total_cycles,
            s.total_energy_pj / 1e9,
            s.area_mm2
        );
    }
    println!(
        "\n  (the frontier walks the area-vs-throughput tradeoff: tall arrays\n   \
         favour long reductions, wide arrays many output channels. The DRAM\n   \
         PHY is outside the chip-area model, so the widest swept bandwidth\n   \
         dominates each geometry — the Figure 15 lesson that compute only\n   \
         scales with matching memory)"
    );
}
