//! Finite ordered domains `[0, 2^d)` and the iterated logarithm.
//!
//! The paper's rQuantile runs over the efficiency-key domain, which is
//! finite but huge (`2^{poly(n)}` in the analysis, `2^64` in this
//! implementation after the fixed-point mapping of Section 4.2); its
//! sample complexity carries a `log* |X|` factor.

use crate::ReproducibleError;

/// Maximum supported domain width in bits: a value and its 32-bit
/// sample position share one `u128` sort record, and rQuantile's `±∞`
/// extension ([`Domain::extended`]) adds a 65th bit on top.
pub const MAX_DOMAIN_BITS: u32 = 64;

/// A finite ordered domain `{0, 1, …, 2^bits − 1}` of `u128` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Domain {
    bits: u32,
}

impl Domain {
    /// Creates the domain `[0, 2^bits)`.
    ///
    /// # Errors
    ///
    /// Returns [`ReproducibleError::DomainTooWide`] if `bits` exceeds
    /// [`MAX_DOMAIN_BITS`].
    pub fn new(bits: u32) -> Result<Self, ReproducibleError> {
        if bits > MAX_DOMAIN_BITS {
            return Err(ReproducibleError::DomainTooWide { bits });
        }
        Ok(Domain { bits })
    }

    /// Domain width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The largest value of the domain, `2^bits − 1`.
    #[inline]
    pub fn max_value(self) -> u128 {
        if self.bits == 0 {
            0
        } else {
            (1u128 << self.bits) - 1
        }
    }

    /// Returns `true` if `value` lies in the domain.
    #[inline]
    pub fn contains(self, value: u128) -> bool {
        value <= self.max_value()
    }

    /// Validates that every sample value lies in the domain.
    pub fn check_sample<T: Copy + Into<u128>>(self, sample: &[T]) -> Result<(), ReproducibleError> {
        if sample.is_empty() {
            return Err(ReproducibleError::EmptySample);
        }
        for value in sample.iter().map(|&value| value.into()) {
            if !self.contains(value) {
                return Err(ReproducibleError::ValueOutOfDomain {
                    value,
                    bits: self.bits,
                });
            }
        }
        Ok(())
    }

    /// The domain extended by one bit with room for `−∞` (encoded as 0)
    /// and `+∞` (encoded as the new maximum); real values shift up by 1.
    /// The extension of a [`MAX_DOMAIN_BITS`]-bit domain is one bit wider
    /// than [`Domain::new`] accepts.
    pub fn extended(self) -> Domain {
        Domain {
            bits: self.bits + 1,
        }
    }

    /// `log*` of the domain size, as used in the sample-complexity bounds.
    pub fn log_star(self) -> u32 {
        log_star_of_bits(self.bits)
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[0, 2^{})", self.bits)
    }
}

/// The iterated logarithm: `log* n = 0` if `n ≤ 1`, else
/// `1 + log*(log₂ n)` (Section 2 of the paper).
// lcakp-lint: recursion-bound(log* n) reason="each level replaces n by log2(n); the iterated logarithm of any f64 is at most 5"
pub fn log_star(n: f64) -> u32 {
    if n <= 1.0 {
        0
    } else {
        1 + log_star(n.log2())
    }
}

/// `log*(2^bits)` computed without overflow: one application of `log₂`
/// turns `2^bits` into `bits`.
pub fn log_star_of_bits(bits: u32) -> u32 {
    if bits == 0 {
        0 // 2^0 = 1, log*(1) = 0.
    } else {
        1 + log_star(bits as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
    }

    #[test]
    fn log_star_of_bits_matches_direct() {
        assert_eq!(log_star_of_bits(0), 0);
        assert_eq!(log_star_of_bits(1), 1);
        assert_eq!(log_star_of_bits(4), log_star(16.0));
        // log*(2^64) = 1 + log*(64) = 1 + 3 = ... verify against f64 form.
        assert_eq!(log_star_of_bits(64), log_star(2f64.powi(64)));
        assert_eq!(log_star_of_bits(64), 5);
    }

    #[test]
    fn domain_bounds() {
        let domain = Domain::new(3).unwrap();
        assert_eq!(domain.max_value(), 7);
        assert!(domain.contains(7));
        assert!(!domain.contains(8));
        assert!(Domain::new(64).is_ok());
        assert_eq!(
            Domain::new(65),
            Err(ReproducibleError::DomainTooWide { bits: 65 })
        );
        assert_eq!(Domain::new(64).unwrap().extended().bits(), 65);
    }

    #[test]
    fn zero_bit_domain_is_singleton() {
        let domain = Domain::new(0).unwrap();
        assert_eq!(domain.max_value(), 0);
        assert!(domain.contains(0));
        assert!(!domain.contains(1));
    }

    #[test]
    fn check_sample_validates() {
        let domain = Domain::new(2).unwrap();
        assert!(domain.check_sample(&[0u128, 3, 2]).is_ok());
        assert_eq!(
            domain.check_sample::<u128>(&[]),
            Err(ReproducibleError::EmptySample)
        );
        assert!(matches!(
            domain.check_sample(&[4u128]),
            Err(ReproducibleError::ValueOutOfDomain { value: 4, bits: 2 })
        ));
    }

    #[test]
    fn extended_adds_one_bit() {
        let domain = Domain::new(5).unwrap();
        assert_eq!(domain.extended().bits(), 6);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Domain::new(8).unwrap().to_string(), "[0, 2^8)");
    }
}
