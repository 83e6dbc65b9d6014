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
//! The sort orders *records* `((value − min) << s) | position`: each
//! value carries the position it held in the caller's order, so a walk
//! up the sorted records knows which arrival group every value belongs to
//! (see [`crate::rmedian`]). `min` is the sample's least value and `s` the
//! bit length of `len − 1`, so a record is a `u64` whenever the sample's
//! range and its positions fit in 64 bits together (~72k keys spanning 39
//! bits take 56), and a `u128` otherwise (a sample holding both `0` and
//! `u64::MAX`). One generic sort and one read view ([`Layout`]) serve both
//! widths. The sort is a stable LSD radix sort over the values' 13-bit
//! digits: one read of the sample checks the domain, finds the range and
//! fills all five digit histograms, and a digit every value shares is
//! skipped. The digits are the values' own, not their offsets from `min`,
//! so keys all below `2^39` take three passes, but a range as wide that
//! straddles a multiple of `2^39` takes four. Records of equal values
//! stay in position order, so the result is the ascending order of the
//! records themselves.
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

/// Width of one radix digit.
const DIGIT_BITS: u32 = 13;
/// Buckets per digit.
const RADIX: usize = 1 << DIGIT_BITS;
/// Digits of a value of at most [`MAX_DOMAIN_BITS`] bits.
const DIGITS: usize = MAX_DOMAIN_BITS.div_ceil(DIGIT_BITS) as usize;
const _: () = assert!(MAX_DOMAIN_BITS <= u64::BITS);

/// One bucket count per digit value, for every digit.
type Histograms = [[u32; RADIX]; DIGITS];

/// A machine word that holds packed sort records.
pub(crate) trait Word: Copy + Ord + Default {
    /// The record of a value `offset` above the sample's least value, at
    /// `position`, below which `shift` bits hold the position.
    fn pack(offset: u64, shift: u32, position: usize) -> Self;
    /// The offset above the least value a record carries.
    fn offset(self, shift: u32) -> u64;
    /// The position a record carries.
    fn position(self, shift: u32) -> usize;
}

macro_rules! impl_word {
    ($($word:ty),*) => {$(
        impl Word for $word {
            #[inline]
            fn pack(offset: u64, shift: u32, position: usize) -> Self {
                (<$word>::from(offset) << shift) | position as $word
            }

            #[inline]
            fn offset(self, shift: u32) -> u64 {
                (self >> shift) as u64
            }

            #[inline]
            fn position(self, shift: u32) -> usize {
                (self & ((1 << shift) - 1)) as usize
            }
        }
    )*};
}

impl_word!(u64, u128);

/// How a sample's records are packed: `((value − min) << shift) |
/// position`, with `shift` the bit length of the sample's last position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    /// The sample's least value.
    min: u64,
    /// Bits below a record's value offset, holding its position.
    shift: u32,
}

impl Layout {
    /// The layout of a sample of `len` values whose least value is `min`.
    pub(crate) const fn new(len: usize, min: u64) -> Self {
        Layout {
            min,
            shift: usize::BITS - len.saturating_sub(1).leading_zeros(),
        }
    }

    /// Whether the records of values up to `max` fit in a `u64`: the
    /// range's bits and the position bits together take at most 64.
    fn fits_u64(self, max: u64) -> bool {
        u64::BITS - (max - self.min).leading_zeros() + self.shift <= u64::BITS
    }

    /// The record of `value` at `position`.
    #[inline]
    pub(crate) fn record<W: Word>(self, value: u64, position: usize) -> W {
        W::pack(value - self.min, self.shift, position)
    }

    /// The value a record carries.
    #[inline]
    pub(crate) fn value<W: Word>(self, record: W) -> u64 {
        record.offset(self.shift) + self.min
    }

    /// The position a record carries.
    #[inline]
    pub(crate) fn position<W: Word>(self, record: W) -> usize {
        record.position(self.shift)
    }
}

/// A sample's sorted records, in the narrowest word their [`Layout`]
/// fits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Records<'a> {
    /// Records of a sample whose range and positions fit in 64 bits.
    Narrow(&'a [u64]),
    /// Every other sample's records.
    Wide(&'a [u128]),
}

impl Records<'_> {
    /// The number of records.
    pub(crate) fn len(self) -> usize {
        match self {
            Records::Narrow(records) => records.len(),
            Records::Wide(records) => records.len(),
        }
    }
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
/// The record buffers of each width and the five 8,192-bucket digit
/// histograms are kept too, so a warm scratch sorts without allocating.
///
/// ```
/// use lcakp_reproducible::{rquantile, Domain, QuantileScratch, RQuantileConfig, Seed};
/// # fn main() -> Result<(), lcakp_reproducible::ReproducibleError> {
/// let domain = Domain::new(16)?;
/// let sample: Vec<u64> = (0..5_000).map(|i| (i * 977) % 1000).collect();
/// let mut scratch = QuantileScratch::default();
/// let mut sorted = scratch.sort(&sample, domain)?;
/// let wide: Vec<u128> = sample.iter().map(|&value| u128::from(value)).collect();
/// for (k, p) in [0.25, 0.5, 0.75].into_iter().enumerate() {
///     let seed = Seed::from_entropy_u64(k as u64);
///     let q = sorted.rquantile(p, 0.05, &seed)?;
///     assert_eq!(q, rquantile(&wide, &RQuantileConfig { domain, p, tau: 0.05 }, &seed)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct QuantileScratch {
    /// The sorted records of samples whose records fit in a `u64`.
    narrow: RecordBuffers<u64>,
    /// The sorted records of every other sample.
    wide: RecordBuffers<u128>,
    /// The radix sort's digit histograms, [`DIGITS`] of them once a sort
    /// has run.
    histograms: Vec<[u32; RADIX]>,
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
        sample: &[u64],
        domain: Domain,
    ) -> Result<SortedSample<'_>, ReproducibleError> {
        check_len(sample.len())?;
        // Rewrites every bucket; allocates only in a fresh scratch.
        self.histograms.clear();
        self.histograms.resize(DIGITS, [0; RADIX]);
        let Some(histograms) = self.histograms.first_chunk_mut() else {
            unreachable!("the scratch holds DIGITS histograms");
        };
        let (min, max) = scan(sample, histograms);
        if sample.is_empty() || u128::from(max) > domain.max_value() {
            // Cold: reports the empty sample or its first value outside
            // the domain.
            domain.check_sample(sample)?;
        }
        let layout = Layout::new(sample.len(), min);
        let narrow = layout.fits_u64(max);
        #[cfg(test)]
        let narrow = narrow && !forced_wide::enabled();
        let records = if narrow {
            Records::Narrow(self.narrow.sort(sample, layout, histograms))
        } else {
            Records::Wide(self.wide.sort(sample, layout, histograms))
        };
        Ok(SortedSample {
            domain,
            records,
            layout,
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

/// Rejects a sample of `len` values whose positions do not all fit in
/// 32 bits.
fn check_len(len: usize) -> Result<(), ReproducibleError> {
    if u32::try_from(len).is_ok() {
        Ok(())
    } else {
        Err(ReproducibleError::SampleTooLarge { len })
    }
}

/// `sample` as 64-bit keys: the input of [`QuantileScratch::sort`] for
/// the free functions that take `u128` samples. A value past 64 bits lies
/// outside every domain, as [`MAX_DOMAIN_BITS`] is 64.
///
/// # Errors
///
/// [`ReproducibleError::ValueOutOfDomain`] for the first value of
/// `sample` outside `domain` when some value does not fit 64 bits.
pub(crate) fn narrow(sample: &[u128], domain: Domain) -> Result<Vec<u64>, ReproducibleError> {
    match sample.iter().map(|&value| u64::try_from(value)).collect() {
        Ok(keys) => Ok(keys),
        Err(_) => Err(domain
            .check_sample(sample)
            .expect_err("a value past 64 bits lies outside every domain")),
    }
}

/// The least and greatest value of `sample`, read once, with every
/// value's digits counted into `histograms` (zeroed, one per digit).
fn scan(sample: &[u64], histograms: &mut Histograms) -> (u64, u64) {
    let (mut min, mut max) = (u64::MAX, 0);
    for &value in sample {
        min = min.min(value);
        max = max.max(value);
        for (d, histogram) in histograms.iter_mut().enumerate() {
            histogram[digit(value, d)] += 1;
        }
    }
    (min, max)
}

/// Digit `d` of `value`.
#[inline]
fn digit(value: u64, d: usize) -> usize {
    (value >> (d as u32 * DIGIT_BITS)) as usize & (RADIX - 1)
}

/// The sorted records of one word width and the radix sort's second
/// buffer.
#[derive(Debug, Default)]
struct RecordBuffers<W> {
    /// The last sample's records in ascending order.
    sorted: Vec<W>,
    /// The radix sort's second buffer.
    spare: Vec<W>,
}

impl<W: Word> RecordBuffers<W> {
    /// Writes the records of `sample` under `layout` in ascending order:
    /// a stable LSD radix sort over the values' [`DIGIT_BITS`]-bit
    /// digits, `histograms` holding every digit's bucket counts over the
    /// sample. The records are built as the first pass reads the sample
    /// in position order, so equal values keep it and the result is
    /// exactly the records sorted as integers. A digit that every value
    /// shares is skipped.
    ///
    /// The sample must be nonempty and at most `u32::MAX` long, and
    /// `layout` must fit its range in `W`.
    fn sort(&mut self, sample: &[u64], layout: Layout, histograms: &mut Histograms) -> &[W] {
        let (records, spare) = (&mut self.sorted, &mut self.spare);
        // Both buffers are overwritten whole; resizing keeps a warm
        // scratch's buffers without writing them.
        records.resize(sample.len(), W::default());
        spare.resize(sample.len(), W::default());
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
                for &rec in records.iter() {
                    let slot = &mut slots[digit(layout.value(rec), d)];
                    spare[*slot as usize] = rec;
                    *slot += 1;
                }
            } else {
                for (position, &value) in sample.iter().enumerate() {
                    let slot = &mut slots[digit(value, d)];
                    spare[*slot as usize] = layout.record(value, position);
                    *slot += 1;
                }
            }
            std::mem::swap(records, spare);
            sorted_any = true;
        }
        if !sorted_any {
            for (position, (slot, &value)) in records.iter_mut().zip(sample).enumerate() {
                *slot = layout.record(value, position);
            }
        }
        records
    }
}

/// A test hook that makes every sort on this thread pack its records in
/// a `u128`, so tests can run one sample through both widths.
#[cfg(test)]
pub(crate) mod forced_wide {
    use std::cell::Cell;

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn enabled() -> bool {
        ENABLED.with(Cell::get)
    }

    /// Runs `body` with every sort on this thread packing `u128` records.
    pub(crate) fn run<T>(body: impl FnOnce() -> T) -> T {
        ENABLED.with(|flag| flag.set(true));
        let out = body();
        ENABLED.with(|flag| flag.set(false));
        out
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
    pub(crate) records: Records<'a>,
    /// How the records are packed.
    pub(crate) layout: Layout,
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
    use std::cell::RefCell;

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
        let layout = Layout::new(1 << 17, 5);
        for (value, position) in [(5, 0), (5, (1 << 17) - 1), (u64::MAX, 77)] {
            let wide: u128 = layout.record(value, position);
            assert_eq!(
                (layout.value(wide), layout.position(wide)),
                (value, position)
            );
        }
        let narrow: u64 = layout.record((1 << 47) + 4, (1 << 17) - 1);
        assert_eq!(narrow, u64::MAX);
        assert_eq!(layout.value(narrow), (1 << 47) + 4);
        assert_eq!(layout.position(narrow), (1 << 17) - 1);
        assert!(layout.fits_u64((1 << 47) + 4));
        assert!(!layout.fits_u64((1 << 47) + 5));
        let single = Layout::new(1, 0);
        assert!(single.fits_u64(u64::MAX));
        let rec: u64 = single.record(u64::MAX, 0);
        assert_eq!((single.value(rec), single.position(rec)), (u64::MAX, 0));
    }

    /// The longest sample [`check_len`] admits puts its last position in
    /// all 32 low bits, at both widths.
    #[test]
    fn records_round_trip_at_the_last_position() {
        let last = u32::MAX as usize - 1;
        let layout = Layout::new(u32::MAX as usize, 9);
        let top = 9 + u64::from(u32::MAX);
        assert!(layout.fits_u64(top));
        assert!(!layout.fits_u64(top + 1));
        let narrow: u64 = layout.record(top, last);
        assert_eq!((layout.value(narrow), layout.position(narrow)), (top, last));
        let wide: u128 = layout.record(u64::MAX, last);
        assert_eq!(
            (layout.value(wide), layout.position(wide)),
            (u64::MAX, last)
        );
    }

    #[test]
    fn empty_samples_are_rejected() {
        let domain = Domain::new(64).unwrap();
        assert_eq!(
            QuantileScratch::default().sort(&[], domain).unwrap_err(),
            ReproducibleError::EmptySample
        );
    }

    #[test]
    fn the_first_value_outside_the_domain_is_reported() {
        let domain = Domain::new(8).unwrap();
        assert_eq!(
            QuantileScratch::default()
                .sort(&[3, 256, 7, 300], domain)
                .unwrap_err(),
            ReproducibleError::ValueOutOfDomain {
                value: 256,
                bits: 8
            }
        );
    }

    /// The `(value, position)` pairs `records` carry under `layout`.
    fn decode<W: Word>(records: &[W], layout: Layout) -> Vec<(u64, usize)> {
        records
            .iter()
            .map(|&rec| (layout.value(rec), layout.position(rec)))
            .collect()
    }

    thread_local! {
        /// The scratch every test sort on this thread reuses.
        static SCRATCH: RefCell<QuantileScratch> = RefCell::new(QuantileScratch::default());
    }

    /// The sample's `(value, position)` pairs in the order the radix sort
    /// leaves its records, decoded, and whether the records were `u64`.
    /// The sort runs in a scratch whose buffers of both widths hold the
    /// records of a longer sample, so it must write over all of them.
    fn sorted_pairs(sample: &[u64]) -> (Vec<(u64, usize)>, bool) {
        if sample.is_empty() {
            return (Vec::new(), true);
        }
        let domain = Domain::new(64).unwrap();
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let stale_len = sample.len() as u64 + 7;
            let descending: Vec<u64> = (0..stale_len).map(|i| stale_len - i).collect();
            scratch.sort(&descending, domain).unwrap();
            let mut full_width = descending;
            full_width[0] = u64::MAX;
            scratch.sort(&full_width, domain).unwrap();
            let sorted = scratch.sort(sample, domain).unwrap();
            match sorted.records {
                Records::Narrow(records) => (decode(records, sorted.layout), true),
                Records::Wide(records) => (decode(records, sorted.layout), false),
            }
        })
    }

    /// A sample of `len` values of shape `shape`: full-width values with
    /// `0` and `u64::MAX` among them, one value repeated, a few distinct
    /// values, or a range whose bit length plus the position bits of
    /// `len` is exactly 64 (shape 3) or 65 (shape 4).
    fn sample_of_shape(len: usize, shape: u8, rng: &mut ChaCha12Rng) -> Vec<u64> {
        let position_bits = usize::BITS - len.saturating_sub(1).leading_zeros();
        let mut sample: Vec<u64> = match shape {
            0 => (0..len).map(|_| rng.gen()).collect(),
            1 => vec![rng.gen(); len],
            2 => {
                let few: Vec<u64> = (0..4).map(|_| rng.gen_range(0..1 << 20)).collect();
                (0..len).map(|_| few[rng.gen_range(0..few.len())]).collect()
            }
            _ => {
                let range_bits = (64 + u32::from(shape) - 3 - position_bits).min(64);
                let span = u64::MAX >> (64 - range_bits);
                let min = rng.gen_range(0..=u64::MAX - span);
                let mut sample: Vec<u64> =
                    (0..len).map(|_| min + (rng.gen::<u64>() & span)).collect();
                if len >= 2 {
                    sample[0] = min;
                    sample[len - 1] = min + span;
                }
                sample
            }
        };
        sample.shuffle(rng);
        if shape == 0 && len >= 2 {
            let (low, high) = (rng.gen_range(0..len), rng.gen_range(0..len - 1));
            sample[low] = 0;
            sample[if high >= low { high + 1 } else { high }] = u64::MAX;
        }
        sample
    }

    /// Checks the decoded sort of `sample`, in the width its range picks
    /// and in `u128`, against `sort_unstable` of its `(value, position)`
    /// pairs, and that shapes 0, 3 and 4 pick the width their range
    /// needs.
    fn assert_sorts_pairs(sample: &[u64], shape: u8) -> Result<(), TestCaseError> {
        let mut expected: Vec<(u64, usize)> = sample
            .iter()
            .enumerate()
            .map(|(position, &value)| (value, position))
            .collect();
        expected.sort_unstable();
        let (pairs, narrow) = sorted_pairs(sample);
        prop_assert_eq!(&pairs, &expected);
        let (wide_pairs, forced_narrow) = forced_wide::run(|| sorted_pairs(sample));
        prop_assert_eq!(&wide_pairs, &expected);
        prop_assert!(!forced_narrow || sample.is_empty());
        if sample.len() >= 2 {
            match shape {
                0 | 4 => prop_assert!(!narrow),
                3 => prop_assert!(narrow),
                _ => {}
            }
        }
        Ok(())
    }

    /// One sample of every shape above `2^17` values, where a position
    /// takes 18 bits.
    #[test]
    fn long_samples_sort_like_sort_unstable() {
        let mut rng = ChaCha12Rng::seed_from_u64(17);
        for shape in 0..5 {
            let sample = sample_of_shape((1 << 17) + 1, shape, &mut rng);
            assert_sorts_pairs(&sample, shape).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix sort, decoded, gives the `(value, position)` pairs in
        /// the order `sort_unstable` gives them, for every sample shape.
        #[test]
        fn decoded_records_equal_sorted_pairs(
            len in 0usize..=2_000,
            shape in 0u8..5,
            entropy in 0u64..=u64::MAX,
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(entropy);
            assert_sorts_pairs(&sample_of_shape(len, shape, &mut rng), shape)?;
        }
    }
}
