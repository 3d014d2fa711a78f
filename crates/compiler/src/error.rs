//! Error type for the compiler.

use std::error::Error;
use std::fmt;

use bitfusion_core::error::CoreError;
use bitfusion_isa::IsaError;

/// Errors produced while compiling a model to Fusion-ISA blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// No tile assignment fits the configured scratchpads.
    NoFeasibleTiling {
        /// GEMM rows.
        m: u64,
        /// GEMM reduction length.
        k: u64,
        /// GEMM columns.
        n: u64,
    },
    /// The model has no multiply-add layers.
    EmptyModel,
    /// Block emission failed (an ISA structural violation — a compiler bug
    /// surfaced as an error rather than a panic).
    Emit(IsaError),
    /// Batch size must be at least one.
    ZeroBatch,
    /// The target architecture fails [`bitfusion_core::arch::ArchConfig::validate`]
    /// (zero geometry, zero buffers, non-power-of-two access width).
    InvalidArch(CoreError),
    /// A layer's element count does not fit `u64` at the requested batch.
    CountOverflow {
        /// The count that overflowed.
        count: &'static str,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoFeasibleTiling { m, k, n } => {
                write!(f, "no tiling of {m}x{k}x{n} fits the on-chip buffers")
            }
            CompileError::EmptyModel => write!(f, "model has no multiply-add layers"),
            CompileError::Emit(e) => write!(f, "block emission failed: {e}"),
            CompileError::ZeroBatch => write!(f, "batch size must be at least 1"),
            CompileError::InvalidArch(e) => write!(f, "invalid target architecture: {e}"),
            CompileError::CountOverflow { count } => {
                write!(
                    f,
                    "batch too large: the {count} count of a layer overflows u64"
                )
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Emit(e) => Some(e),
            CompileError::InvalidArch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for CompileError {
    fn from(e: IsaError) -> Self {
        CompileError::Emit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CompileError::NoFeasibleTiling { m: 1, k: 2, n: 3 };
        assert!(e.to_string().contains("1x2x3"));
        assert!(e.source().is_none());
        let e = CompileError::from(IsaError::ZeroTripLoop(4));
        assert!(e.source().is_some());
        let e = CompileError::InvalidArch(CoreError::EmptyArray);
        assert!(e.to_string().contains("invalid target architecture"));
        assert!(e.source().is_some());
    }
}
