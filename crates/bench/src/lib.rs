//! # bitfusion-bench
//!
//! The paper's evaluation (§V) as one pinned record. [`fidelity::points`]
//! computes every table and figure point next to the [`paper`] value it
//! reproduces; `cargo run --release -p bitfusion-bench --bin fidelity`
//! prints the record, and `FIDELITY.json` at the repository root pins it.
//! DESIGN.md's substitution table explains the remaining gaps.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fidelity;

/// The paper's reference numbers for every figure this crate regenerates.
pub mod paper {
    use bitfusion::dnn::zoo::Benchmark;

    /// Figure 1: the mean share of multiply-adds that need four or fewer
    /// bits.
    pub const FIG1_LOW_BIT_MAC_SHARE: f64 = 0.973;

    /// Figure 1: the range of multiply-adds' share of all operations across
    /// the benchmarks.
    pub const FIG1_MULTIPLY_ADD_SHARE: (f64, f64) = (0.994, 0.999);

    /// Figure 13: per-benchmark (speedup, energy reduction) over Eyeriss.
    pub fn fig13(b: Benchmark) -> (f64, f64) {
        match b {
            Benchmark::AlexNet => (1.9, 1.5),
            Benchmark::Cifar10 => (13.0, 14.0),
            Benchmark::Lstm => (2.4, 4.8),
            Benchmark::LeNet5 => (2.7, 4.3),
            Benchmark::ResNet18 => (1.9, 1.9),
            Benchmark::Rnn => (2.7, 5.1),
            Benchmark::Svhn => (8.6, 10.0),
            Benchmark::Vgg7 => (7.7, 9.9),
        }
    }

    /// Figure 13 geomeans: (speedup, energy reduction).
    pub const FIG13_GEOMEAN: (f64, f64) = (3.9, 5.1);

    /// §V-B1 AlexNet per-layer-class table:
    /// (class, performance ratio, energy ratio).
    pub const ALEXNET_PER_LAYER: [(&str, f64, f64); 4] = [
        ("conv 8/8 (105 MOps)", 1.669, 6.503),
        ("conv 4/1 (560 MOps)", 6.394, 16.837),
        ("fc 4/1 (54 MOps)", 3.310, 30.739),
        ("fc 8/8 (4 MOps)", 1.005, 10.287),
    ];

    /// Figure 14: Bit Fusion energy fractions (compute, buffers, rf, dram).
    pub fn fig14_bitfusion(b: Benchmark) -> [f64; 4] {
        match b {
            Benchmark::AlexNet => [0.111, 0.211, 0.0, 0.678],
            Benchmark::Cifar10 => [0.089, 0.172, 0.0, 0.738],
            Benchmark::Lstm => [0.093, 0.233, 0.0, 0.675],
            Benchmark::LeNet5 => [0.113, 0.134, 0.0, 0.754],
            Benchmark::ResNet18 => [0.079, 0.199, 0.0, 0.722],
            Benchmark::Rnn => [0.067, 0.191, 0.0, 0.742],
            Benchmark::Svhn => [0.097, 0.233, 0.0, 0.670],
            Benchmark::Vgg7 => [0.094, 0.248, 0.0, 0.658],
        }
    }

    /// Figure 14: Eyeriss energy fractions (compute, buffers, rf, dram).
    pub fn fig14_eyeriss(b: Benchmark) -> [f64; 4] {
        match b {
            Benchmark::AlexNet => [0.156, 0.011, 0.559, 0.274],
            Benchmark::Cifar10 => [0.163, 0.009, 0.577, 0.251],
            Benchmark::Lstm => [0.171, 0.007, 0.616, 0.206],
            Benchmark::LeNet5 => [0.136, 0.015, 0.461, 0.388],
            Benchmark::ResNet18 => [0.165, 0.010, 0.566, 0.259],
            Benchmark::Rnn => [0.156, 0.008, 0.576, 0.260],
            Benchmark::Svhn => [0.068, 0.021, 0.219, 0.692],
            Benchmark::Vgg7 => [0.069, 0.029, 0.218, 0.684],
        }
    }

    /// Figure 15: geomean speedup at each bandwidth (bits/cycle), relative
    /// to the 128 b/cyc default.
    pub const FIG15_GEOMEAN: [(u64, f64); 5] = [
        (32, 0.25),
        (64, 0.51),
        (128, 1.00),
        (256, 1.91),
        (512, 2.86),
    ];

    /// Figure 15: LSTM's speedup at 512 b/cyc (near-linear scaling).
    pub const FIG15_LSTM_512: f64 = 4.0;

    /// Figure 16: geomean speedup at each batch size, relative to batch 1.
    pub const FIG16_GEOMEAN: [(u64, f64); 5] =
        [(1, 1.0), (4, 1.66), (16, 2.43), (64, 2.68), (256, 2.68)];

    /// Figure 16: RNN/LSTM peak batching speedups (the standout series).
    pub const FIG16_RNN_PEAK: f64 = 21.4;

    /// Figure 17: geomean speedups over TX2-FP32 for (TitanX-FP32,
    /// TitanX-INT8, Bit Fusion 16 nm).
    pub const FIG17_GEOMEAN: (f64, f64, f64) = (12.0, 19.0, 16.0);

    /// §V-A: power of the 16 nm Bit Fusion part of Figure 17, in watts.
    pub const FIG17_POWER_W: f64 = 0.895;

    /// Figure 18: per-benchmark (speedup, energy reduction) over Stripes.
    pub fn fig18(b: Benchmark) -> (f64, f64) {
        match b {
            Benchmark::AlexNet => (1.8, 2.7),
            Benchmark::Cifar10 => (4.0, 6.0),
            Benchmark::Lstm => (2.1, 3.1),
            Benchmark::LeNet5 => (5.2, 7.8),
            Benchmark::ResNet18 => (2.6, 4.4),
            Benchmark::Rnn => (2.0, 3.0),
            Benchmark::Svhn => (1.8, 2.7),
            Benchmark::Vgg7 => (2.9, 4.4),
        }
    }

    /// Figure 18 geomeans: (speedup, energy reduction).
    pub const FIG18_GEOMEAN: (f64, f64) = (2.61, 3.97);

    /// Figure 10 reference rows: (design, bitbricks, shift-add, register)
    /// area in µm² and power in nW.
    pub const FIG10_AREA: [(&str, f64, f64, f64); 2] = [
        ("Temporal", 463.0, 2989.0, 1454.0),
        ("Fusion Unit", 369.0, 934.0, 91.0),
    ];
    /// Figure 10 power rows.
    pub const FIG10_POWER: [(&str, f64, f64, f64); 2] = [
        ("Temporal", 60.0, 550.0, 1103.0),
        ("Fusion Unit", 46.0, 424.0, 69.0),
    ];

    /// Figure 10: the Fusion Unit's (area, power, register) reduction over
    /// the temporal design.
    pub const FIG10_REDUCTION: (f64, f64, f64) = (3.5, 3.2, 16.0);

    /// §IV-A: the (smallest, largest) instruction block that covers the
    /// evaluated layer types.
    pub const SEC4A_BLOCK_INSTRUCTIONS: (f64, f64) = (30.0, 86.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion::core::util::geomean;
    use bitfusion::dnn::zoo::Benchmark;

    /// Geomean over the benchmark suite of a per-benchmark metric.
    fn suite_geomean(f: impl Fn(Benchmark) -> f64) -> f64 {
        let values: Vec<f64> = Benchmark::ALL.iter().map(|&b| f(b)).collect();
        geomean(&values)
    }

    #[test]
    fn paper_fig13_geomeans_consistent() {
        // The stored per-benchmark numbers reproduce the stated geomeans.
        let sp = suite_geomean(|b| paper::fig13(b).0);
        assert!((sp - paper::FIG13_GEOMEAN.0).abs() < 0.25, "{sp}");
        let en = suite_geomean(|b| paper::fig13(b).1);
        assert!((en - paper::FIG13_GEOMEAN.1).abs() < 0.35, "{en}");
    }

    #[test]
    fn paper_fig18_geomeans_consistent() {
        let sp = suite_geomean(|b| paper::fig18(b).0);
        assert!((sp - paper::FIG18_GEOMEAN.0).abs() < 0.15, "{sp}");
        let en = suite_geomean(|b| paper::fig18(b).1);
        assert!((en - paper::FIG18_GEOMEAN.1).abs() < 0.25, "{en}");
    }

    #[test]
    fn fig14_fractions_sum_to_one() {
        for b in Benchmark::ALL {
            let s: f64 = paper::fig14_bitfusion(b).iter().sum();
            assert!((s - 1.0).abs() < 0.01, "{b} bf {s}");
            let s: f64 = paper::fig14_eyeriss(b).iter().sum();
            assert!((s - 1.0).abs() < 0.01, "{b} ey {s}");
        }
    }
}
