//! Prints the fidelity record: every evaluation point of the paper next to
//! this repository's measurement, one JSON object per line. `FIDELITY.json`
//! pins the output.
//!
//! Run with: `cargo run --release -p bitfusion-bench --bin fidelity`

fn main() {
    let points = bitfusion_bench::fidelity::points();
    print!("{}", bitfusion_bench::fidelity::render(&points));
}
