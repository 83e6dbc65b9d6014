//! Exact non-negative rational comparisons.
//!
//! Consistency of the LCA (Lemma 4.9 of the paper) hinges on every
//! efficiency comparison being a *total, deterministic* order. Floating
//! point would make `p/w ≥ ẽ` depend on rounding; instead all comparisons
//! are done on exact rationals via a full 256-bit cross multiplication, so
//! no instance magnitudes can cause overflow.

use std::cmp::Ordering;
use std::fmt;

/// Full 128×128 → 256-bit unsigned multiply, returned as `(high, low)`.
#[inline]
fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);

    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;

    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let low = (ll & MASK) | ((mid & MASK) << 64);
    let high = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (high, low)
}

/// Compares `a * b` with `c * d` exactly (no overflow for any inputs).
#[inline]
pub(crate) fn cmp_products(a: u128, b: u128, c: u128, d: u128) -> Ordering {
    wide_mul(a, b).cmp(&wide_mul(c, d))
}

/// An exact non-negative rational number `num / den` with `den ≥ 1`.
///
/// Equality and ordering are *value-based*: `Rat::new(1, 2)` equals
/// `Rat::new(2, 4)`. Comparisons never overflow: they use 256-bit
/// intermediate products.
///
/// ```
/// use lcakp_knapsack::Rat;
/// assert_eq!(Rat::new(1, 2), Rat::new(2, 4));
/// assert!(Rat::new(2, 3) < Rat::new(3, 4));
/// assert!(Rat::new(5, 1) > Rat::one());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rat {
    num: u128,
    den: u128,
}

impl Rat {
    /// Creates the rational `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[inline]
    pub fn new(num: u128, den: u128) -> Self {
        assert!(den != 0, "Rat denominator must be nonzero");
        Rat { num, den }
    }

    /// The rational `0`.
    #[inline]
    pub fn zero() -> Self {
        Rat { num: 0, den: 1 }
    }

    /// The rational `1`.
    #[inline]
    pub fn one() -> Self {
        Rat { num: 1, den: 1 }
    }

    /// Creates the rational `value / 1`.
    #[inline]
    pub fn from_int(value: u128) -> Self {
        Rat { num: value, den: 1 }
    }

    /// Numerator as stored (not reduced).
    #[inline]
    pub fn num(self) -> u128 {
        self.num
    }

    /// Denominator as stored (not reduced).
    #[inline]
    pub fn den(self) -> u128 {
        self.den
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Exact product of two rationals.
    ///
    /// # Panics
    ///
    /// Panics if the numerator or denominator product overflows `u128`
    /// even after `gcd` reduction.
    pub fn checked_mul(self, other: Rat) -> Option<Rat> {
        // Reduce cross factors first to keep products small.
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Some(Rat { num, den })
    }

    /// Exact sum of two rationals, if representable.
    pub fn checked_add(self, other: Rat) -> Option<Rat> {
        let g = gcd(self.den, other.den);
        let den = (self.den / g).checked_mul(other.den)?;
        let a = self.num.checked_mul(other.den / g)?;
        let b = other.num.checked_mul(self.den / g)?;
        Some(Rat {
            num: a.checked_add(b)?,
            den,
        })
    }

    /// Exact difference `self - other`, saturating at zero.
    pub fn saturating_sub(self, other: Rat) -> Rat {
        if self <= other {
            return Rat::zero();
        }
        let g = gcd(self.den, other.den);
        let den = (self.den / g)
            .checked_mul(other.den)
            .expect("saturating_sub denominator overflow");
        let a = self
            .num
            .checked_mul(other.den / g)
            .expect("saturating_sub numerator overflow");
        let b = other
            .num
            .checked_mul(self.den / g)
            .expect("saturating_sub numerator overflow");
        Rat { num: a - b, den }
    }

    /// Returns the reduced form (numerator and denominator divided by their
    /// gcd).
    pub fn reduced(self) -> Rat {
        let g = gcd(self.num.max(1), self.den);
        Rat {
            num: self.num / g,
            den: self.den / g,
        }
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

impl PartialEq for Rat {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Rat {}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_products(self.num, other.den, other.num, self.den)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.reduced();
        if r.den == 1 {
            write!(f, "{}", r.num)
        } else {
            write!(f, "{}/{}", r.num, r.den)
        }
    }
}

impl From<u64> for Rat {
    fn from(value: u64) -> Self {
        Rat::from_int(value as u128)
    }
}

/// The approximation parameter ε ∈ (0, 1], stored exactly as a rational.
///
/// The paper's algorithm compares profits and efficiencies against ε² and
/// builds ⌊1/ε⌋ copies of representative items; an exact representation
/// keeps all of those quantities deterministic.
///
/// ```
/// use lcakp_knapsack::iky::Epsilon;
/// let eps = Epsilon::new(1, 10).unwrap();
/// assert_eq!(eps.as_f64(), 0.1);
/// assert_eq!(eps.inverse_floor(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epsilon {
    num: u64,
    den: u64,
}

impl Epsilon {
    /// Largest allowed denominator; keeps `ε²`-scaled fixed-point
    /// arithmetic overflow-free everywhere in the workspace.
    pub const MAX_DEN: u64 = (1 << 16) - 1;

    /// Creates ε = `num / den`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::KnapsackError::InvalidEpsilon`] unless
    /// `0 < num ≤ den ≤ Epsilon::MAX_DEN` (that is, ε ∈ (0, 1] with
    /// granularity at least `1/65535`).
    pub fn new(num: u64, den: u64) -> Result<Self, crate::KnapsackError> {
        if num == 0 || den == 0 || num > den || den > Self::MAX_DEN {
            return Err(crate::KnapsackError::InvalidEpsilon {
                value: format!("{num}/{den}"),
            });
        }
        Ok(Epsilon { num, den })
    }

    /// ε as an exact rational.
    #[inline]
    pub fn as_rat(self) -> Rat {
        Rat::new(self.num as u128, self.den as u128)
    }

    /// ε² as an exact rational.
    #[inline]
    pub fn squared(self) -> Rat {
        Rat::new(
            (self.num as u128) * (self.num as u128),
            (self.den as u128) * (self.den as u128),
        )
    }

    /// ⌊1/ε⌋ — the number of representative copies per efficiency bucket in
    /// the Ĩ-construction.
    #[inline]
    pub fn inverse_floor(self) -> u64 {
        self.den / self.num
    }

    /// Lossy conversion for reporting.
    #[inline]
    // lcakp-lint: allow(D004) reason="lossy reporting conversion, documented as such"
    pub fn as_f64(self) -> f64 {
        // lcakp-lint: allow(D004) reason="lossy reporting conversion, documented as such"
        self.num as f64 / self.den as f64
    }

    /// Numerator of ε.
    #[inline]
    pub fn num(self) -> u64 {
        self.num
    }

    /// Denominator of ε.
    #[inline]
    pub fn den(self) -> u64 {
        self.den
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_mul_matches_small_products() {
        assert_eq!(wide_mul(3, 4), (0, 12));
        assert_eq!(wide_mul(u128::MAX, 1), (0, u128::MAX));
    }

    #[test]
    fn wide_mul_max_times_max() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1 → high = 2^128 - 2, low = 1.
        assert_eq!(wide_mul(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
    }

    #[test]
    fn wide_mul_carries_across_limbs() {
        let a = (1u128 << 64) + 5;
        let b = (1u128 << 64) + 7;
        // (2^64+5)(2^64+7) = 2^128 + 12·2^64 + 35 → high 1, low 12·2^64+35.
        assert_eq!(wide_mul(a, b), (1, (12u128 << 64) + 35));
    }

    #[test]
    fn rat_value_equality() {
        assert_eq!(Rat::new(1, 2), Rat::new(2, 4));
        assert_ne!(Rat::new(1, 2), Rat::new(2, 3));
        assert_eq!(Rat::zero(), Rat::new(0, 7));
    }

    #[test]
    fn rat_ordering_no_overflow() {
        let a = Rat::new(u128::MAX - 1, u128::MAX);
        let b = Rat::one();
        assert!(a < b);
        assert!(b > a);
    }

    #[test]
    fn rat_arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half.checked_add(third).unwrap(), Rat::new(5, 6));
        assert_eq!(half.checked_mul(third).unwrap(), Rat::new(1, 6));
        assert_eq!(half.saturating_sub(third), Rat::new(1, 6));
        assert_eq!(third.saturating_sub(half), Rat::zero());
    }

    #[test]
    fn rat_display_is_reduced() {
        assert_eq!(Rat::new(2, 4).to_string(), "1/2");
        assert_eq!(Rat::new(8, 4).to_string(), "2");
    }

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(0, 5).is_err());
        assert!(Epsilon::new(5, 0).is_err());
        assert!(Epsilon::new(6, 5).is_err());
        assert!(Epsilon::new(5, 5).is_ok());
    }

    #[test]
    fn epsilon_derived_quantities() {
        let eps = Epsilon::new(1, 4).unwrap();
        assert_eq!(eps.squared(), Rat::new(1, 16));
        assert_eq!(eps.inverse_floor(), 4);
        let eps = Epsilon::new(2, 7).unwrap();
        assert_eq!(eps.inverse_floor(), 3);
    }
}
