//! Cartesian grids over [`ArchConfig`] dimensions — the architecture axis
//! of design-space exploration.
//!
//! The paper's evaluation is itself a design-space walk: array geometry
//! (Figure 10), off-chip bandwidth (Figure 15), and batch size (Figure 16)
//! are all swept to locate the 16×16 Fusion Unit sweet spot. [`ArchGrid`]
//! makes that walk a first-class value: per-dimension candidate lists whose
//! cartesian product enumerates concrete, validated configurations in a
//! deterministic order. The DSE engine in `bitfusion-sim` shards the
//! product across workers; keeping bandwidth the innermost axis means
//! consecutive points share a compilation (tiling ignores bandwidth), which
//! is what makes its memoized compile cache effective.

use crate::arch::ArchConfig;
use crate::error::CoreError;

/// A cartesian grid over the architectural dimensions of [`ArchConfig`].
///
/// Every dimension is a candidate list; [`ArchGrid::configs`] yields the
/// cross product in nested order — rows, cols, IBUF, WBUF, OBUF, then
/// bandwidth innermost. Fields not covered by a dimension (access width,
/// frequency, name) come from `base`.
///
/// # Examples
///
/// ```
/// use bitfusion_core::arch::ArchConfig;
/// use bitfusion_core::grid::ArchGrid;
///
/// let grid = ArchGrid {
///     rows: vec![16, 32],
///     dram_bits_per_cycle: vec![64, 128, 256],
///     ..ArchGrid::from_base(ArchConfig::isca_45nm())
/// };
/// assert_eq!(grid.len(), Some(6));
/// assert!(grid.validate().is_ok());
/// assert_eq!(grid.configs().count(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchGrid {
    /// Template for the fields the grid does not sweep.
    pub base: ArchConfig,
    /// Candidate row counts (Fusion Units per column).
    pub rows: Vec<usize>,
    /// Candidate column counts.
    pub cols: Vec<usize>,
    /// Candidate input-buffer capacities in bytes.
    pub ibuf_bytes: Vec<usize>,
    /// Candidate weight-buffer capacities in bytes.
    pub wbuf_bytes: Vec<usize>,
    /// Candidate output-buffer capacities in bytes.
    pub obuf_bytes: Vec<usize>,
    /// Candidate off-chip bandwidths in bits per cycle (innermost axis).
    pub dram_bits_per_cycle: Vec<u32>,
}

impl ArchGrid {
    /// A degenerate grid holding exactly the base configuration; override
    /// individual dimensions with struct-update syntax to widen it.
    pub fn from_base(base: ArchConfig) -> Self {
        ArchGrid {
            rows: vec![base.rows],
            cols: vec![base.cols],
            ibuf_bytes: vec![base.ibuf_bytes],
            wbuf_bytes: vec![base.wbuf_bytes],
            obuf_bytes: vec![base.obuf_bytes],
            dram_bits_per_cycle: vec![base.dram_bits_per_cycle],
            base,
        }
    }

    /// Number of configurations in the cross product, or `None` when it
    /// does not fit a `usize`.
    pub fn len(&self) -> Option<usize> {
        self.dimension_lens()
            .into_iter()
            .try_fold(1usize, usize::checked_mul)
    }

    /// Whether the cross product is empty (some dimension has no candidates).
    pub fn is_empty(&self) -> bool {
        self.dimension_lens().contains(&0)
    }

    /// Candidate counts of the six dimensions.
    fn dimension_lens(&self) -> [usize; 6] {
        [
            self.rows.len(),
            self.cols.len(),
            self.ibuf_bytes.len(),
            self.wbuf_bytes.len(),
            self.obuf_bytes.len(),
            self.dram_bits_per_cycle.len(),
        ]
    }

    /// Number of swept dimensions (candidate lists longer than one entry).
    pub fn swept_dimensions(&self) -> usize {
        self.dimension_lens().iter().filter(|&&n| n > 1).count()
    }

    /// Validates the grid: every dimension non-empty and every produced
    /// configuration internally consistent ([`ArchConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] when a dimension has no candidates,
    /// or the first failing grid point's [`ArchConfig::validate`] error.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        for config in self.configs() {
            config.validate()?;
        }
        Ok(())
    }

    /// Iterates the cross product in deterministic nested order (rows
    /// outermost, bandwidth innermost).
    pub fn configs(&self) -> impl Iterator<Item = ArchConfig> + '_ {
        self.rows.iter().flat_map(move |&rows| {
            self.cols.iter().flat_map(move |&cols| {
                self.ibuf_bytes.iter().flat_map(move |&ibuf| {
                    self.wbuf_bytes.iter().flat_map(move |&wbuf| {
                        self.obuf_bytes.iter().flat_map(move |&obuf| {
                            self.dram_bits_per_cycle.iter().map(move |&bw| ArchConfig {
                                rows,
                                cols,
                                ibuf_bytes: ibuf,
                                wbuf_bytes: wbuf,
                                obuf_bytes: obuf,
                                dram_bits_per_cycle: bw,
                                ..self.base.clone()
                            })
                        })
                    })
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_grid_is_the_base() {
        let base = ArchConfig::isca_45nm();
        let grid = ArchGrid::from_base(base.clone());
        assert_eq!(grid.len(), Some(1));
        assert_eq!(grid.swept_dimensions(), 0);
        let configs: Vec<_> = grid.configs().collect();
        assert_eq!(configs, vec![base]);
    }

    #[test]
    fn cross_product_order_is_bandwidth_innermost() {
        let grid = ArchGrid {
            rows: vec![16, 32],
            dram_bits_per_cycle: vec![64, 128],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        assert_eq!(grid.len(), Some(4));
        assert_eq!(grid.swept_dimensions(), 2);
        let points: Vec<(usize, u32)> = grid
            .configs()
            .map(|c| (c.rows, c.dram_bits_per_cycle))
            .collect();
        assert_eq!(points, vec![(16, 64), (16, 128), (32, 64), (32, 128)]);
    }

    #[test]
    fn empty_dimension_fails_validation() {
        let grid = ArchGrid {
            cols: vec![],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        assert!(grid.is_empty());
        assert_eq!(grid.len(), Some(0));
        assert!(grid.validate().is_err());
        assert_eq!(grid.configs().count(), 0);
    }

    #[test]
    fn len_is_checked() {
        // 2^11 candidates on each of six dimensions: 2^66 points.
        let wide: Vec<usize> = (1..=2048).collect();
        let grid = ArchGrid {
            rows: wide.clone(),
            cols: wide.clone(),
            ibuf_bytes: wide.clone(),
            wbuf_bytes: wide.clone(),
            obuf_bytes: wide,
            dram_bits_per_cycle: (1..=2048).collect(),
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        assert_eq!(grid.len(), None);
        assert!(!grid.is_empty());
        assert_eq!(grid.swept_dimensions(), 6);
    }

    #[test]
    fn invalid_grid_point_fails_validation() {
        let grid = ArchGrid {
            rows: vec![32, 0],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        };
        assert!(!grid.is_empty());
        assert!(grid.validate().is_err());
    }

    #[test]
    fn every_point_inherits_base_fields() {
        let base = ArchConfig::gpu_16nm();
        let grid = ArchGrid {
            ibuf_bytes: vec![64 * 1024, 128 * 1024],
            ..ArchGrid::from_base(base.clone())
        };
        for c in grid.configs() {
            assert_eq!(c.name, base.name);
            assert_eq!(c.freq_mhz, base.freq_mhz);
            assert_eq!(c.buffer_access_bits, base.buffer_access_bits);
            c.validate().unwrap();
        }
    }
}
