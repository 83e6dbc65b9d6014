//! Reusable working memory for rQuantile/rMedian, and the once-sorted
//! sample every call over the same sample shares.
//!
//! Algorithm 2 runs one rQuantile per EPS threshold, all on the *same*
//! efficiency sample. [`QuantileScratch::sort`] validates and sorts that
//! sample once; the returned [`SortedSample`] then answers every
//! [`rquantile`](SortedSample::rquantile) and
//! [`rmedian`](SortedSample::rmedian) call from that one sort, with every
//! working buffer held in the scratch. The free functions
//! [`crate::rquantile`] and [`crate::rmedian`] are this path over a fresh
//! scratch.

use crate::domain::Domain;
use crate::ReproducibleError;

/// Reusable buffers for reproducible quantiles and medians.
///
/// Only capacity persists between uses: every buffer is cleared before it
/// is filled, so a reused scratch gives the same answers as a fresh one.
///
/// ```
/// use lcakp_reproducible::{rquantile, Domain, QuantileScratch, RQuantileConfig, Seed};
/// # fn main() -> Result<(), lcakp_reproducible::ReproducibleError> {
/// let domain = Domain::new(16)?;
/// let sample: Vec<u128> = (0..5_000).map(|i| (i * 977) % 1000).collect();
/// let mut scratch = QuantileScratch::default();
/// let mut sorted = scratch.sort(&sample, domain)?;
/// for (k, p) in [0.25, 0.5, 0.75].into_iter().enumerate() {
///     let seed = Seed::from_entropy_u64(k as u64);
///     let q = sorted.rquantile(p, 0.05, &seed)?;
///     assert_eq!(q, rquantile(&sample, &RQuantileConfig { domain, p, tau: 0.05 }, &seed)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct QuantileScratch {
    /// The sample in ascending order.
    sorted: Vec<u128>,
    /// rQuantile's shared-seed permutation of the padded positions.
    order: Vec<u32>,
    /// Gathered half-sample or batch values awaiting selection.
    values: Vec<u128>,
}

impl QuantileScratch {
    /// Validates `sample` against `domain` and sorts a copy of it into
    /// the scratch. The returned handle serves any number of quantile and
    /// median calls over this sample.
    ///
    /// # Errors
    ///
    /// * [`ReproducibleError::EmptySample`] for an empty sample;
    /// * [`ReproducibleError::ValueOutOfDomain`] if a sample value exceeds
    ///   the domain.
    pub fn sort<'a>(
        &'a mut self,
        sample: &'a [u128],
        domain: Domain,
    ) -> Result<SortedSample<'a>, ReproducibleError> {
        domain.check_sample(sample)?;
        self.sorted.clear();
        self.sorted.extend_from_slice(sample);
        self.sorted.sort_unstable();
        Ok(SortedSample {
            domain,
            sample,
            sorted: &self.sorted,
            order: &mut self.order,
            values: &mut self.values,
        })
    }
}

/// A validated sample and its sorted copy, borrowed from a
/// [`QuantileScratch`]. Created by [`QuantileScratch::sort`].
#[derive(Debug)]
pub struct SortedSample<'a> {
    /// The domain the sample was validated against.
    pub(crate) domain: Domain,
    /// The sample in the caller's (i.i.d.) order.
    pub(crate) sample: &'a [u128],
    /// The same values in ascending order.
    pub(crate) sorted: &'a [u128],
    /// Permutation buffer for rQuantile's shuffle.
    pub(crate) order: &'a mut Vec<u32>,
    /// Selection buffer for rMedian's half and batch medians.
    pub(crate) values: &'a mut Vec<u128>,
}
