//! Accelerator-level configuration: array geometry, buffer sizes, bandwidth,
//! and frequency (§II-B and Table III of the paper).

use std::fmt;

use crate::bitwidth::{PairPrecision, BRICKS_PER_FUSION_UNIT};
use crate::error::CoreError;

/// Static configuration of a Bit Fusion accelerator instance.
///
/// # Examples
///
/// ```
/// use bitfusion_core::arch::ArchConfig;
///
/// let arch = ArchConfig::isca_45nm();
/// assert_eq!(arch.fusion_units(), 512);
/// assert_eq!(arch.sram_bytes_total(), 112 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchConfig {
    /// Human-readable configuration name.
    pub name: &'static str,
    /// Fusion Units per column (inputs stream across rows).
    pub rows: usize,
    /// Fusion Units per row (outputs accumulate down columns).
    pub cols: usize,
    /// Input buffer capacity in bytes (IBUF, shared across rows).
    pub ibuf_bytes: usize,
    /// Weight buffer capacity in bytes (WBUF, distributed per Fusion Unit).
    pub wbuf_bytes: usize,
    /// Output buffer capacity in bytes (OBUF, per-column collectors).
    pub obuf_bytes: usize,
    /// Bits delivered per SRAM data-array access (the register + multiplexer
    /// data-infusion logic of Figure 3 splits each access into operand-sized
    /// pieces).
    pub buffer_access_bits: u32,
    /// Off-chip bandwidth in bits per cycle (default 128; swept in
    /// Figure 15).
    pub dram_bits_per_cycle: u32,
    /// Clock frequency in MHz.
    pub freq_mhz: u32,
}

impl ArchConfig {
    /// The paper's default 45 nm configuration used in the Eyeriss
    /// comparison: 512 Fusion Units (1.1 mm² of compute), 112 KB of on-chip
    /// SRAM, 128 bits/cycle of off-chip bandwidth, 500 MHz (§V-A).
    ///
    /// The 112 KB is split 32/64/16 KB across IBUF/WBUF/OBUF: weights get
    /// half the capacity because the WBUF is distributed across all 512
    /// units (128 B each), and outputs need the least standing storage since
    /// partial sums stream.
    pub fn isca_45nm() -> Self {
        ArchConfig {
            name: "bitfusion-45nm",
            rows: 32,
            cols: 16,
            ibuf_bytes: 32 * 1024,
            wbuf_bytes: 64 * 1024,
            obuf_bytes: 16 * 1024,
            buffer_access_bits: 32,
            dram_bits_per_cycle: 128,
            freq_mhz: 500,
        }
    }

    /// The Stripes-comparison configuration (§V-A): the same 512-unit tile
    /// run at Stripes' 980 MHz with Stripes' memory system.
    pub fn stripes_matched() -> Self {
        ArchConfig {
            name: "bitfusion-stripes-matched",
            freq_mhz: 980,
            ..ArchConfig::isca_45nm()
        }
    }

    /// The 16 nm GPU-comparison configuration (§V-A): 4096 Fusion Units and
    /// 896 KB of SRAM at the same 500 MHz. The paper's 895 mW power budget
    /// implies a mobile-class memory interface; 384 bits/cycle at 500 MHz is
    /// a dual-channel LPDDR4x-class 24 GB/s.
    pub fn gpu_16nm() -> Self {
        ArchConfig {
            name: "bitfusion-16nm",
            rows: 64,
            cols: 64,
            ibuf_bytes: 256 * 1024,
            wbuf_bytes: 512 * 1024,
            obuf_bytes: 128 * 1024,
            buffer_access_bits: 32,
            dram_bits_per_cycle: 384,
            freq_mhz: 500,
        }
    }

    /// Total Fusion Units in the array.
    pub const fn fusion_units(&self) -> usize {
        self.rows * self.cols
    }

    /// Total BitBricks in the array.
    pub const fn bit_bricks(&self) -> usize {
        self.fusion_units() * BRICKS_PER_FUSION_UNIT as usize
    }

    /// Total on-chip SRAM in bytes.
    pub const fn sram_bytes_total(&self) -> usize {
        self.ibuf_bytes + self.wbuf_bytes + self.obuf_bytes
    }

    /// Peak multiply-accumulate throughput at a precision pair, in MACs per
    /// kilocycle (×1000 to keep 16-bit modes integral).
    pub fn peak_macs_per_kilocycle(&self, pair: PairPrecision) -> u64 {
        self.fusion_units() as u64 * pair.products_per_kilocycle()
    }

    /// Peak throughput in giga-MACs per second at a precision pair.
    pub fn peak_gmacs_per_s(&self, pair: PairPrecision) -> f64 {
        self.peak_macs_per_kilocycle(pair) as f64 / 1000.0 * self.freq_mhz as f64 / 1000.0
    }

    /// Validates internal consistency (non-zero geometry, buffers,
    /// bandwidth and clock; power-of-two access width).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArchField`] naming the first field out
    /// of range.
    pub fn validate(&self) -> Result<(), CoreError> {
        let nonzero = [
            ("array rows", self.rows),
            ("array columns", self.cols),
            ("input buffer size", self.ibuf_bytes),
            ("weight buffer size", self.wbuf_bytes),
            ("output buffer size", self.obuf_bytes),
            ("off-chip bandwidth", self.dram_bits_per_cycle as usize),
            ("clock frequency", self.freq_mhz as usize),
        ];
        if let Some(&(field, _)) = nonzero.iter().find(|(_, value)| *value == 0) {
            return Err(CoreError::InvalidArchField {
                field,
                requirement: "non-zero",
            });
        }
        if !self.buffer_access_bits.is_power_of_two() {
            return Err(CoreError::InvalidArchField {
                field: "buffer access width",
                requirement: "a power of two",
            });
        }
        Ok(())
    }

    /// Returns a copy with a different off-chip bandwidth (Figure 15 sweep).
    pub fn with_bandwidth(mut self, bits_per_cycle: u32) -> Self {
        self.dram_bits_per_cycle = bits_per_cycle;
        self
    }

    /// Returns a copy with a different clock frequency.
    pub fn with_frequency(mut self, freq_mhz: u32) -> Self {
        self.freq_mhz = freq_mhz;
        self
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig::isca_45nm()
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{} Fusion Units, {} KB SRAM, {} b/cyc, {} MHz)",
            self.name,
            self.rows,
            self.cols,
            self.sram_bytes_total() / 1024,
            self.dram_bits_per_cycle,
            self.freq_mhz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let arch = ArchConfig::isca_45nm();
        arch.validate().unwrap();
        assert_eq!(arch.fusion_units(), 512);
        assert_eq!(arch.bit_bricks(), 8192);
        assert_eq!(arch.sram_bytes_total(), 112 * 1024);
        assert_eq!(arch.dram_bits_per_cycle, 128);
        assert_eq!(arch.freq_mhz, 500);
    }

    #[test]
    fn gpu_config_matches_paper() {
        let arch = ArchConfig::gpu_16nm();
        arch.validate().unwrap();
        assert_eq!(arch.fusion_units(), 4096);
        assert_eq!(arch.sram_bytes_total(), 896 * 1024);
    }

    #[test]
    fn peak_throughput_scales_with_precision() {
        let arch = ArchConfig::isca_45nm();
        let at = |i, w| arch.peak_macs_per_kilocycle(PairPrecision::from_bits(i, w).unwrap());
        // 512 units: 8/8 -> 512 MACs/cycle; 2/2 -> 8192; 16/16 -> 128.
        assert_eq!(at(8, 8), 512_000);
        assert_eq!(at(2, 2), 8_192_000);
        assert_eq!(at(16, 16), 128_000);
        assert_eq!(at(4, 1), 4_096_000);
    }

    #[test]
    fn binary_peak_tops() {
        // Sanity: at 2-bit the 45 nm part delivers 8192 MACs/cycle at
        // 500 MHz = 4.1 TMAC/s.
        let arch = ArchConfig::isca_45nm();
        let pair = PairPrecision::from_bits(2, 2).unwrap();
        let gmacs = arch.peak_gmacs_per_s(pair);
        assert!((gmacs - 4096.0).abs() < 1.0, "{gmacs}");
    }

    #[test]
    fn builders_adjust_fields() {
        let arch = ArchConfig::isca_45nm().with_bandwidth(512).with_frequency(980);
        assert_eq!(arch.dram_bits_per_cycle, 512);
        assert_eq!(arch.freq_mhz, 980);
        arch.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut arch = ArchConfig::isca_45nm();
        arch.rows = 0;
        assert!(arch.validate().is_err());
        let mut arch = ArchConfig::isca_45nm();
        arch.buffer_access_bits = 24;
        assert!(arch.validate().is_err());
    }

    #[test]
    fn each_invalid_field_is_named() {
        let base = ArchConfig::isca_45nm;
        let broken = [
            (ArchConfig { rows: 0, ..base() }, "array rows must be non-zero"),
            (ArchConfig { cols: 0, ..base() }, "array columns must be non-zero"),
            (
                ArchConfig { ibuf_bytes: 0, ..base() },
                "input buffer size must be non-zero",
            ),
            (
                ArchConfig { wbuf_bytes: 0, ..base() },
                "weight buffer size must be non-zero",
            ),
            (
                ArchConfig { obuf_bytes: 0, ..base() },
                "output buffer size must be non-zero",
            ),
            (
                ArchConfig { dram_bits_per_cycle: 0, ..base() },
                "off-chip bandwidth must be non-zero",
            ),
            (
                ArchConfig { freq_mhz: 0, ..base() },
                "clock frequency must be non-zero",
            ),
            (
                ArchConfig { buffer_access_bits: 0, ..base() },
                "buffer access width must be a power of two",
            ),
            (
                ArchConfig { buffer_access_bits: 24, ..base() },
                "buffer access width must be a power of two",
            ),
        ];
        for (arch, message) in broken {
            assert_eq!(arch.validate().unwrap_err().to_string(), message);
        }
    }
}
