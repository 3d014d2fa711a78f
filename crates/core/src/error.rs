//! Error type for the core arithmetic crate.

use std::error::Error;
use std::fmt;

use crate::bitwidth::Precision;

/// Errors produced by the bit-level arithmetic layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A bitwidth other than 1, 2, 4, 8, or 16 was requested.
    UnsupportedBitWidth(u32),
    /// A value does not fit in the requested precision.
    ValueOutOfRange {
        /// The offending value.
        value: i32,
        /// The precision it was checked against.
        precision: Precision,
    },
    /// A systolic array was configured with a zero dimension.
    EmptyArray,
    /// An accelerator configuration field is out of its range.
    InvalidArchField {
        /// The field, in words (e.g. "off-chip bandwidth").
        field: &'static str,
        /// What the field must be (e.g. "non-zero").
        requirement: &'static str,
    },
    /// An operand vector's length does not match the array geometry.
    ShapeMismatch {
        /// What the operation expected.
        expected: usize,
        /// What the caller provided.
        actual: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsupportedBitWidth(bits) => {
                write!(f, "unsupported bitwidth: {bits} (expected 1, 2, 4, 8, or 16)")
            }
            CoreError::ValueOutOfRange { value, precision } => {
                write!(
                    f,
                    "value {value} out of range for {precision} (range {}..={})",
                    precision.min_value(),
                    precision.max_value()
                )
            }
            CoreError::EmptyArray => write!(f, "systolic array dimensions must be non-zero"),
            CoreError::InvalidArchField { field, requirement } => {
                write!(f, "{field} must be {requirement}")
            }
            CoreError::ShapeMismatch { expected, actual } => {
                write!(f, "operand shape mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitwidth::BitWidth;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors: Vec<CoreError> = vec![
            CoreError::UnsupportedBitWidth(3),
            CoreError::ValueOutOfRange {
                value: 9,
                precision: Precision::signed(BitWidth::B4),
            },
            CoreError::EmptyArray,
            CoreError::InvalidArchField {
                field: "off-chip bandwidth",
                requirement: "non-zero",
            },
            CoreError::ShapeMismatch {
                expected: 4,
                actual: 2,
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
