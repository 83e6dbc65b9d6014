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
//!
//! The scratch also memoizes rQuantile's arrival-group maps: the `k`-th
//! `rquantile` call after a sort reads map slot `k`, keyed by the call's
//! shuffle seed and padded length `2n`. A call skips the Fisher–Yates
//! shuffle only when both match the slot's last call. An LCA's shared
//! seed is fixed across its queries, so that happens exactly when the
//! sample size `n` repeats. In LCA-KP it does on every query after the
//! first when no sampled item is large, as every estimation draw is then
//! kept. When large items hold part of the profit, the kept count varies
//! from query to query and nearly every call rebuilds its map
//! ([`QuantileScratch::map_builds`] counts the builds).

use crate::domain::Domain;
use crate::rmedian::arrival_group;
use crate::ReproducibleError;
use lcakp_oracle::Seed;
use rand::seq::SliceRandom;

/// Reusable buffers for reproducible quantiles and medians.
///
/// Working buffers are cleared before they are filled. The arrival-group
/// maps persist with their contents, but each is a function of its key
/// (shuffle seed, padded length) alone and is rebuilt whenever a call
/// brings another key, so a reused scratch gives the same answers as a
/// fresh one. A map holds one byte per padded position, and the scratch
/// keeps as many maps as the most `rquantile` calls made on one sort.
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
    /// rQuantile's shared-seed permutation of the padded positions,
    /// live only while a map is built.
    order: Vec<u32>,
    /// The real values scattered into per-group buckets for selection.
    values: Vec<u128>,
    /// One memoized arrival-group map per `rquantile` call index.
    maps: Vec<ArrivalMap>,
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
            maps: &mut self.maps,
            calls: 0,
        })
    }

    /// How many arrival-group maps this scratch has built: one per
    /// shuffling `rquantile` call whose slot held another (shuffle seed,
    /// padded length). The other shuffling calls skipped the shuffle.
    pub fn map_builds(&self) -> u64 {
        self.maps.iter().map(|map| map.builds).sum()
    }

    /// The key of every map slot, in slot order.
    #[cfg(test)]
    pub(crate) fn map_keys(&self) -> Vec<Option<(Seed, u32)>> {
        self.maps.iter().map(|map| map.key).collect()
    }
}

/// rQuantile's shared-seed shuffle of the padded positions, stored as
/// the group of the arrival that lands at each position (see
/// [`arrival_group`]): all rMedian's top level needs of the order.
#[derive(Debug, Default)]
pub(crate) struct ArrivalMap {
    /// The shuffle seed and padded length `groups` was built for.
    key: Option<(Seed, u32)>,
    /// `groups[position]` is the group of the arrival at `position`.
    groups: Vec<u8>,
    /// Times `groups` was built.
    builds: u64,
}

impl ArrivalMap {
    /// The map of the shuffle of `len` positions under `seed`, rebuilt
    /// in place (through the permutation buffer `order`) unless it is
    /// already the one held. The shuffle's draws depend only on `seed`
    /// and `len`, so this is the arrival order a shuffle of the padded
    /// values would give.
    pub(crate) fn get(&mut self, seed: Seed, len: u32, order: &mut Vec<u32>) -> &[u8] {
        if self.key != Some((seed, len)) {
            order.clear();
            order.extend(0..len);
            order.shuffle(&mut seed.rng());
            self.groups.clear();
            self.groups.resize(order.len(), 0);
            for (arrival, &position) in order.iter().enumerate() {
                self.groups[position as usize] = arrival_group(arrival);
            }
            self.key = Some((seed, len));
            self.builds += 1;
        }
        &self.groups
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
    /// Bucket buffer for rMedian's group medians.
    pub(crate) values: &'a mut Vec<u128>,
    /// The scratch's memoized arrival-group maps.
    pub(crate) maps: &'a mut Vec<ArrivalMap>,
    /// `rquantile` calls made on this sort so far: the next call's slot.
    pub(crate) calls: usize,
}
