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
//! The sort orders *records* `(value << 32) | position`: each value
//! carries the position it held in the caller's order, so a walk up the
//! sorted records knows which arrival group every value belongs to (see
//! [`crate::rmedian`]). It is a stable LSD radix sort over the value's
//! 11-bit digits, so records of equal values stay in position order and
//! the result is the ascending order of the records themselves.
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
//! ([`QuantileScratch::map_builds`] counts the builds). Each slot also
//! keeps its groups' pad counts for the last `−∞` count asked of it.

use crate::domain::{Domain, MAX_DOMAIN_BITS};
use crate::rmedian::{arrival_group, GroupCounts};
use crate::ReproducibleError;
use lcakp_oracle::Seed;
use rand::seq::SliceRandom;

/// Bits of a record below its value, holding the value's position.
const POSITION_BITS: u32 = 32;
/// Width of one radix digit.
const DIGIT_BITS: u32 = 11;
/// Buckets per digit.
const RADIX: usize = 1 << DIGIT_BITS;
/// Digits of a value of at most [`MAX_DOMAIN_BITS`] bits.
const DIGITS: usize = 6;
const _: () = assert!(DIGITS as u32 * DIGIT_BITS >= MAX_DOMAIN_BITS);
const _: () = assert!(MAX_DOMAIN_BITS + POSITION_BITS <= u128::BITS);

/// The record of `value` at `position`.
pub(crate) fn record(value: u128, position: usize) -> u128 {
    (value << POSITION_BITS) | position as u128
}

/// The value a record carries.
pub(crate) fn value_of(record: u128) -> u128 {
    record >> POSITION_BITS
}

/// The position a record carries.
pub(crate) fn position_of(record: u128) -> usize {
    record as u32 as usize
}

/// Reusable buffers for reproducible quantiles and medians.
///
/// Working buffers are overwritten before they are read. The arrival-group
/// maps persist with their contents, and so do their pad counts, but
/// each map is a function of its key (shuffle seed, padded length)
/// alone and is rebuilt whenever a call brings another key, and its pad
/// counts are recounted whenever the map is rebuilt or a call brings
/// another `−∞` count; so a reused scratch gives the same answers as a
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
    /// The sample's `(value, position)` records in ascending order.
    sorted: Vec<u128>,
    /// The radix sort's second buffer.
    spare: Vec<u128>,
    /// rQuantile's shared-seed permutation of the padded positions,
    /// live only while a map is built.
    order: Vec<u32>,
    /// One memoized arrival-group map per `rquantile` call index.
    maps: Vec<ArrivalMap>,
}

impl QuantileScratch {
    /// Validates `sample` against `domain` and sorts its records into
    /// the scratch. The returned handle serves any number of quantile and
    /// median calls over this sample.
    ///
    /// # Errors
    ///
    /// * [`ReproducibleError::SampleTooLarge`] if the sample has more
    ///   than `u32::MAX` values, so a position does not fit its record;
    /// * [`ReproducibleError::EmptySample`] for an empty sample;
    /// * [`ReproducibleError::ValueOutOfDomain`] if a sample value exceeds
    ///   the domain.
    pub fn sort(
        &mut self,
        sample: &[u128],
        domain: Domain,
    ) -> Result<SortedSample<'_>, ReproducibleError> {
        check_len(sample.len())?;
        domain.check_sample(sample)?;
        sort_records(sample, &mut self.sorted, &mut self.spare);
        Ok(SortedSample {
            domain,
            sorted: &self.sorted,
            order: &mut self.order,
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

    /// The `−∞` count of every map slot's memoized pad counts, in slot
    /// order.
    #[cfg(test)]
    pub(crate) fn pad_count_lows(&self) -> Vec<Option<usize>> {
        self.maps
            .iter()
            .map(|map| map.counts.as_ref().map(|&(lows, _)| lows))
            .collect()
    }
}

/// Rejects a sample of `len` values whose positions do not all fit the
/// low [`POSITION_BITS`] bits of a record.
fn check_len(len: usize) -> Result<(), ReproducibleError> {
    if u32::try_from(len).is_ok() {
        Ok(())
    } else {
        Err(ReproducibleError::SampleTooLarge { len })
    }
}

/// Writes the records of `sample` into `records` in ascending order,
/// using `spare` as the second buffer: a stable LSD radix sort over the
/// values' [`DIGIT_BITS`]-bit digits. The records enter the first pass
/// in position order, so equal values keep it and the result is exactly
/// the records sorted as integers. All digit histograms come from one
/// read of the sample, and a digit that every value shares is skipped.
///
/// Every value must be below `2^64` and the sample at most `u32::MAX`
/// long.
pub(crate) fn sort_records(sample: &[u128], records: &mut Vec<u128>, spare: &mut Vec<u128>) {
    let mut histograms = [[0u32; RADIX]; DIGITS];
    for &value in sample {
        for (d, histogram) in histograms.iter_mut().enumerate() {
            histogram[digit(value, d)] += 1;
        }
    }
    let in_order = sample
        .iter()
        .enumerate()
        .map(|(position, &value)| record(value, position));
    // Both buffers are overwritten whole; resizing keeps a warm
    // scratch's buffers without writing them.
    records.resize(sample.len(), 0);
    spare.resize(sample.len(), 0);
    let first = sample.first().copied().unwrap_or(0);
    let mut sorted_any = false;
    for (d, slots) in histograms.iter_mut().enumerate() {
        if slots[digit(first, d)] as usize == sample.len() {
            continue;
        }
        // Exclusive prefix sums: each bucket's first slot.
        let mut next = 0;
        for count in slots.iter_mut() {
            next += std::mem::replace(count, next);
        }
        if sorted_any {
            scatter(records.iter().copied(), d, slots, spare);
        } else {
            scatter(in_order.clone(), d, slots, spare);
        }
        std::mem::swap(records, spare);
        sorted_any = true;
    }
    if !sorted_any {
        for (slot, rec) in records.iter_mut().zip(in_order) {
            *slot = rec;
        }
    }
}

/// Digit `d` of `value`.
fn digit(value: u128, d: usize) -> usize {
    (value >> (d as u32 * DIGIT_BITS)) as usize & (RADIX - 1)
}

/// One radix pass: moves each record to the next slot of its digit-`d`
/// bucket, `slots` holding every bucket's next slot.
fn scatter(
    records: impl Iterator<Item = u128>,
    d: usize,
    slots: &mut [u32; RADIX],
    out: &mut [u128],
) {
    for rec in records {
        let slot = &mut slots[digit(value_of(rec), d)];
        out[*slot as usize] = rec;
        *slot += 1;
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
    /// The groups' pad counts and the `−∞` count they were made for;
    /// cleared whenever `groups` is rebuilt.
    counts: Option<(usize, GroupCounts)>,
    /// Times `groups` was built.
    builds: u64,
}

impl ArrivalMap {
    /// The map of the shuffle of `len` positions under `seed`, rebuilt
    /// in place (through the permutation buffer `order`) unless it is
    /// already the one held, and its groups' counts when the first
    /// `len / 2` positions are real values, the next `lows` are `−∞` and
    /// the rest `+∞`. The shuffle's draws depend only on `seed` and
    /// `len`, so this is the arrival order a shuffle of the padded
    /// values would give.
    pub(crate) fn get(
        &mut self,
        seed: Seed,
        len: u32,
        lows: usize,
        order: &mut Vec<u32>,
    ) -> (&[u8], &GroupCounts) {
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
            self.counts = None;
            self.builds += 1;
        }
        let groups = &self.groups;
        let reals = groups.len() / 2;
        self.counts = self.counts.take().filter(|&(memo, _)| memo == lows);
        let (_, counts) = self.counts.get_or_insert_with(|| {
            let counts = GroupCounts::count(reals, lows, reals - lows, |position| groups[position]);
            (lows, counts)
        });
        (groups, counts)
    }
}

/// A validated sample's sorted records, borrowed from a
/// [`QuantileScratch`]. Created by [`QuantileScratch::sort`].
#[derive(Debug)]
pub struct SortedSample<'a> {
    /// The domain the sample was validated against.
    pub(crate) domain: Domain,
    /// The sample's `(value, position)` records in ascending order.
    pub(crate) sorted: &'a [u128],
    /// Permutation buffer for rQuantile's shuffle.
    pub(crate) order: &'a mut Vec<u32>,
    /// The scratch's memoized arrival-group maps.
    pub(crate) maps: &'a mut Vec<ArrivalMap>,
    /// `rquantile` calls made on this sort so far: the next call's slot.
    pub(crate) calls: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn lengths_past_the_position_bits_are_rejected() {
        assert_eq!(check_len(0), Ok(()));
        assert_eq!(check_len(u32::MAX as usize), Ok(()));
        if let Some(len) = (u32::MAX as usize).checked_add(1) {
            assert_eq!(
                check_len(len),
                Err(ReproducibleError::SampleTooLarge { len })
            );
        }
    }

    #[test]
    fn records_round_trip() {
        let rec = record(u128::from(u64::MAX), u32::MAX as usize);
        assert_eq!(value_of(rec), u128::from(u64::MAX));
        assert_eq!(position_of(rec), u32::MAX as usize);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix sort gives the records in the order `sort_unstable`
        /// gives them: full-width 64-bit values, one value repeated, and
        /// a few distinct values (whose high digits are all skipped).
        #[test]
        fn radix_sort_equals_sort_unstable_on_records(
            len in 0usize..=2_000,
            shape in 0u8..3,
            entropy in 0u64..=u64::MAX,
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(entropy);
            let point = u128::from(rng.gen::<u64>());
            let few: Vec<u128> = (0..4).map(|_| rng.gen_range(0..1u128 << 20)).collect();
            let sample: Vec<u128> = (0..len)
                .map(|_| match shape {
                    0 => u128::from(rng.gen::<u64>()),
                    1 => point,
                    _ => few[rng.gen_range(0..few.len())],
                })
                .collect();
            let mut expected: Vec<u128> = sample
                .iter()
                .enumerate()
                .map(|(position, &value)| record(value, position))
                .collect();
            expected.sort_unstable();
            let (mut records, mut spare) = (vec![7; 3], vec![9; 5]);
            sort_records(&sample, &mut records, &mut spare);
            prop_assert_eq!(records, expected);
        }
    }
}
