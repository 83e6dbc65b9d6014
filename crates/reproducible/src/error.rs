use std::error::Error;
use std::fmt;

/// Errors from the reproducible-statistics algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReproducibleError {
    /// The sample was empty.
    EmptySample,
    /// A sample value was outside the declared domain `[0, 2^bits)`.
    ValueOutOfDomain {
        /// The offending value.
        value: u128,
        /// The declared domain bits.
        bits: u32,
    },
    /// The domain exceeds the supported width.
    DomainTooWide {
        /// Requested bits.
        bits: u32,
    },
    /// The sample's positions do not fit the `u32` position of a sort
    /// record, or rQuantile's padded sample (`2·len` positions) does not
    /// fit the `u32` position permutation.
    SampleTooLarge {
        /// The real sample's length.
        len: usize,
    },
    /// An accuracy / reproducibility / probability parameter was outside
    /// its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for ReproducibleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproducibleError::EmptySample => write!(f, "sample is empty"),
            ReproducibleError::ValueOutOfDomain { value, bits } => {
                write!(f, "sample value {value} outside domain of {bits} bits")
            }
            ReproducibleError::DomainTooWide { bits } => {
                write!(f, "domain of {bits} bits exceeds the supported maximum")
            }
            ReproducibleError::SampleTooLarge { len } => {
                write!(f, "sample of {len} values exceeds 32-bit positions")
            }
            ReproducibleError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} is out of range")
            }
        }
    }
}

impl Error for ReproducibleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for err in [
            ReproducibleError::EmptySample,
            ReproducibleError::ValueOutOfDomain { value: 9, bits: 3 },
            ReproducibleError::DomainTooWide { bits: 200 },
            ReproducibleError::SampleTooLarge { len: 1 << 31 },
            ReproducibleError::InvalidParameter {
                name: "tau",
                value: -1.0,
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReproducibleError>();
    }
}
