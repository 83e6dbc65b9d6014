//! Reusable working memory for rQuantile/rMedian, and the once-sorted
//! sample every call over the same sample shares.
//!
//! Algorithm 2 runs one rQuantile per EPS threshold, all on the *same*
//! efficiency sample. The caller writes that sample's keys straight into
//! the scratch ([`QuantileScratch::keys`]); [`SampleKeys::sort`] validates
//! and sorts them once, in place, and the returned [`SortedSample`] then
//! answers every [`rquantile`](SortedSample::rquantile) and
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
//! widths. The keys live in the `u64` record buffer itself: the sort's
//! first pass reads them there and writes their records to the second
//! buffer of the records' width, so the sample is never copied. The sort
//! is a stable LSD radix sort over the values' 13-bit digits: one read of
//! the keys checks the domain, finds the range and fills all five digit
//! histograms, and a digit every value shares is skipped. The digits are
//! the values' own, not their offsets from `min`, so keys all below
//! `2^39` take three passes, but a range as wide that straddles a
//! multiple of `2^39` takes four. Records of equal values stay in
//! position order, so the result is the ascending order of the records
//! themselves.
//!
//! The scratch also memoizes rQuantile's arrival-group maps: the `k`-th
//! `rquantile` call after a sort reads map slot `k`, keyed by the call's
//! shuffle seed, padded length `2n` and `−∞` count. A call skips the
//! Fisher–Yates shuffle only when all three match the slot's last call.
//! An LCA's shared seed is fixed across its queries, and a threshold's
//! `−∞` count follows from its `p` and `n`, so in LCA-KP that happens
//! when the sample size `n` repeats under the same `p`. Both do on every
//! query after the first when no sampled item is large, as every
//! estimation draw is then kept. When large items hold part of the profit, the kept count
//! varies from query to query and nearly every call rebuilds its map
//! ([`QuantileScratch::map_builds`] counts the builds). A map holds one
//! group byte per real position and its groups' pad counts; a build
//! shuffles the `2n` positions in the sort's second buffer, which is dead
//! once the sort returns, two `u32` slots to a word.

use crate::domain::{Domain, MAX_DOMAIN_BITS};
use crate::rmedian::{arrival_group, GroupCounts};
use crate::ReproducibleError;
use lcakp_oracle::Seed;
use rand::Rng;
use std::ops::{Deref, DerefMut};

/// Width of one radix digit.
const DIGIT_BITS: u32 = 13;
/// Buckets per digit.
const RADIX: usize = 1 << DIGIT_BITS;
/// Digits of a value of at most [`MAX_DOMAIN_BITS`] bits.
const DIGITS: usize = MAX_DOMAIN_BITS.div_ceil(DIGIT_BITS) as usize;
const _: () = assert!(MAX_DOMAIN_BITS <= u64::BITS);

/// One bucket count per digit value, for every digit.
type Histograms = [[u32; RADIX]; DIGITS];

/// A machine word that holds packed sort records, or two `u32`
/// permutation slots in its low 64 bits.
pub(crate) trait Word: Copy + Ord + Default {
    /// The record of a value `offset` above the sample's least value, at
    /// `position`, below which `shift` bits hold the position.
    fn pack(offset: u64, shift: u32, position: usize) -> Self;
    /// The offset above the least value a record carries.
    fn offset(self, shift: u32) -> u64;
    /// The position a record carries.
    fn position(self, shift: u32) -> usize;
    /// The word holding `low` in slot 0 and `high` in slot 1.
    fn slots(low: u32, high: u32) -> Self;
    /// Slot `half` (0 or 1) of the word.
    fn slot(self, half: usize) -> u32;
    /// The word with slot `half` (0 or 1) set to `value`.
    fn with_slot(self, half: usize, value: u32) -> Self;
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

            #[inline]
            fn slots(low: u32, high: u32) -> Self {
                <$word>::from(low) | (<$word>::from(high) << 32)
            }

            #[inline]
            fn slot(self, half: usize) -> u32 {
                (self >> (32 * half)) as u32
            }

            #[inline]
            fn with_slot(self, half: usize, value: u32) -> Self {
                let shift = 32 * half;
                (self & !(<$word>::from(u32::MAX) << shift)) | (<$word>::from(value) << shift)
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

/// The radix sort's second buffer after the sort, one word per record in
/// the records' width. Its contents are dead, so rQuantile shuffles the
/// `2n` padded positions of an `n`-record sample there, two `u32` slots
/// to a word.
#[derive(Debug)]
pub(crate) enum Spare<'a> {
    /// The second buffer of a `u64` sort.
    Narrow(&'a mut [u64]),
    /// The second buffer of a `u128` sort.
    Wide(&'a mut [u128]),
}

/// Reusable buffers for reproducible quantiles and medians.
///
/// A sample goes in through [`QuantileScratch::keys`], which hands out
/// the `u64` record buffer, emptied, for the caller to write the keys
/// into; [`SampleKeys::sort`] sorts them there ([`QuantileScratch::sort`]
/// does both for a sample held elsewhere). Working buffers are
/// overwritten before they are read. The arrival-group maps persist with
/// their contents, but each map is a function of its key (shuffle seed,
/// padded length, `−∞` count) alone and is rebuilt whenever a call brings
/// another key, so a reused scratch gives the same answers as a fresh
/// one. A map holds one group byte per real position, and the scratch
/// keeps as many maps as the most `rquantile` calls made on one sort; a
/// map is built in the sort's dead second buffer, so no permutation
/// buffer is kept. The record buffers of each width and the five
/// 8,192-bucket digit histograms are kept too, so a warm scratch samples
/// and sorts without allocating.
///
/// ```
/// use lcakp_reproducible::{rquantile, Domain, QuantileScratch, RQuantileConfig, Seed};
/// # fn main() -> Result<(), lcakp_reproducible::ReproducibleError> {
/// let domain = Domain::new(16)?;
/// let mut scratch = QuantileScratch::default();
/// let mut keys = scratch.keys();
/// keys.extend((0..5_000).map(|i| (i * 977) % 1000));
/// let mut sorted = keys.sort(domain)?;
/// let wide: Vec<u128> = (0..5_000).map(|i| (i * 977) % 1000).collect();
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
    /// The sorted records of samples whose records fit in a `u64`. Until
    /// a sort runs, `narrow.sorted` holds the sample's keys instead.
    narrow: RecordBuffers<u64>,
    /// The sorted records of every other sample.
    wide: RecordBuffers<u128>,
    /// The radix sort's digit histograms, [`DIGITS`] of them once a sort
    /// has run.
    histograms: Vec<[u32; RADIX]>,
    /// One memoized arrival-group map per `rquantile` call index.
    maps: Vec<ArrivalMap>,
}

impl QuantileScratch {
    /// Empties the scratch's key buffer and hands it out: push a sample's
    /// keys into it in the sample's order, then sort them where they lie
    /// with [`SampleKeys::sort`].
    pub fn keys(&mut self) -> SampleKeys<'_> {
        self.narrow.sorted.clear();
        SampleKeys { scratch: self }
    }

    /// Copies `sample` into the key buffer and sorts it: [`keys`](Self::keys)
    /// and [`SampleKeys::sort`] for a sample held elsewhere.
    ///
    /// # Errors
    ///
    /// As [`SampleKeys::sort`].
    pub fn sort(
        &mut self,
        sample: &[u64],
        domain: Domain,
    ) -> Result<SortedSample<'_>, ReproducibleError> {
        let mut keys = self.keys();
        keys.extend_from_slice(sample);
        keys.sort(domain)
    }

    /// [`SampleKeys::sort`] of the keys in `narrow.sorted`.
    fn sort_keys(&mut self, domain: Domain) -> Result<SortedSample<'_>, ReproducibleError> {
        let keys = &self.narrow.sorted;
        let len = keys.len();
        check_len(len)?;
        // Rewrites every bucket; allocates only in a fresh scratch.
        self.histograms.clear();
        self.histograms.resize(DIGITS, [0; RADIX]);
        let Some(histograms) = self.histograms.first_chunk_mut() else {
            unreachable!("the scratch holds DIGITS histograms");
        };
        let (min, max) = scan(keys, histograms);
        let Some(&first) = keys
            .first()
            .filter(|_| u128::from(max) <= domain.max_value())
        else {
            // Cold: reports the empty sample or its first value outside
            // the domain.
            return Err(domain
                .check_sample(keys)
                .expect_err("an empty sample or one past the domain"));
        };
        let layout = Layout::new(len, min);
        // A digit every key shares needs no pass.
        let sorts_on: [bool; DIGITS] =
            std::array::from_fn(|d| histograms[d][digit(first, d)] as usize != len);
        let mut digits = (0..DIGITS).filter(|&d| sorts_on[d]);
        let first_digit = digits.next();
        let narrow = layout.fits_u64(max);
        #[cfg(test)]
        let narrow = narrow && !forced_wide::enabled();
        // Buffers the sort writes are overwritten whole; resizing keeps a
        // warm scratch's buffers without writing them.
        let (records, spare) = if narrow {
            let buffers = &mut self.narrow;
            buffers.spare.resize(len, 0);
            first_pass(
                &buffers.sorted,
                layout,
                first_digit,
                histograms,
                &mut buffers.spare,
            );
            let (records, spare) = buffers.finish(layout, digits, histograms);
            (Records::Narrow(records), Spare::Narrow(spare))
        } else {
            let buffers = &mut self.wide;
            buffers.sorted.resize(len, 0);
            buffers.spare.resize(len, 0);
            first_pass(keys, layout, first_digit, histograms, &mut buffers.spare);
            let (records, spare) = buffers.finish(layout, digits, histograms);
            (Records::Wide(records), Spare::Wide(spare))
        };
        Ok(SortedSample {
            domain,
            records,
            layout,
            spare,
            maps: &mut self.maps,
            calls: 0,
        })
    }

    /// How many arrival-group maps this scratch has built: one per
    /// shuffling `rquantile` call whose slot held another (shuffle seed,
    /// padded length, `−∞` count). The other shuffling calls skipped the
    /// shuffle.
    pub fn map_builds(&self) -> u64 {
        self.maps.iter().map(|map| map.builds).sum()
    }

    /// The key (shuffle seed, padded length, `−∞` count) of every map
    /// slot, in slot order.
    #[cfg(test)]
    pub(crate) fn map_keys(&self) -> Vec<Option<(Seed, u32, usize)>> {
        self.maps.iter().map(|map| map.key).collect()
    }
}

/// A [`QuantileScratch`]'s key buffer, emptied and handed out by
/// [`QuantileScratch::keys`]. It dereferences to the `Vec<u64>` a sample's
/// keys are written into, in the sample's order; [`SampleKeys::sort`] then
/// sorts them in the scratch without copying them.
#[derive(Debug)]
pub struct SampleKeys<'a> {
    /// The scratch whose `u64` record buffer holds the keys.
    scratch: &'a mut QuantileScratch,
}

impl<'a> SampleKeys<'a> {
    /// Validates the keys against `domain` and sorts their records in the
    /// scratch. The returned handle serves any number of quantile and
    /// median calls over this sample.
    ///
    /// # Errors
    ///
    /// * [`ReproducibleError::SampleTooLarge`] if there are more than
    ///   `u32::MAX` keys, so a position does not fit its record;
    /// * [`ReproducibleError::EmptySample`] if there are none;
    /// * [`ReproducibleError::ValueOutOfDomain`] for the first key that
    ///   exceeds the domain.
    pub fn sort(self, domain: Domain) -> Result<SortedSample<'a>, ReproducibleError> {
        self.scratch.sort_keys(domain)
    }
}

impl Deref for SampleKeys<'_> {
    type Target = Vec<u64>;

    fn deref(&self) -> &Vec<u64> {
        &self.scratch.narrow.sorted
    }
}

impl DerefMut for SampleKeys<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u64> {
        &mut self.scratch.narrow.sorted
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

/// Appends `sample` to `keys` as 64-bit keys: how the free functions that
/// take `u128` samples fill a scratch's key buffer. A value past 64 bits
/// lies outside every domain, as [`MAX_DOMAIN_BITS`] is 64.
///
/// # Errors
///
/// [`ReproducibleError::ValueOutOfDomain`] for the first value of
/// `sample` outside `domain` when some value does not fit 64 bits.
pub(crate) fn narrow(
    sample: &[u128],
    domain: Domain,
    keys: &mut Vec<u64>,
) -> Result<(), ReproducibleError> {
    keys.reserve(sample.len());
    for &value in sample {
        match u64::try_from(value) {
            Ok(key) => keys.push(key),
            Err(_) => {
                return Err(domain
                    .check_sample(sample)
                    .expect_err("a value past 64 bits lies outside every domain"))
            }
        }
    }
    Ok(())
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

/// One stable counting pass on digit `d`, whose bucket counts over the
/// sample `slots` holds: moves every `(value, record)` of `records`, in
/// order, to the next free slot of its value's bucket in `out`.
#[inline]
fn scatter<W: Word>(
    d: usize,
    slots: &mut [u32; RADIX],
    records: impl Iterator<Item = (u64, W)>,
    out: &mut [W],
) {
    // Exclusive prefix sums: each bucket's first slot.
    let mut next = 0;
    for count in slots.iter_mut() {
        next += std::mem::replace(count, next);
    }
    for (value, rec) in records {
        let slot = &mut slots[digit(value, d)];
        out[*slot as usize] = rec;
        *slot += 1;
    }
}

/// The radix sort's first pass: writes the record of every key of `keys`
/// under `layout` to `out`, in the order of digit `first_digit` when the
/// sort has one (stable, so equal digits keep position order), else in
/// position order. Building the records as the keys are read in position
/// order makes the sorted result exactly the records in integer order.
fn first_pass<W: Word>(
    keys: &[u64],
    layout: Layout,
    first_digit: Option<usize>,
    histograms: &mut Histograms,
    out: &mut [W],
) {
    let records = keys
        .iter()
        .enumerate()
        .map(|(position, &key)| (key, layout.record(key, position)));
    match first_digit {
        Some(d) => scatter(d, &mut histograms[d], records, out),
        None => {
            for (slot, (_, rec)) in out.iter_mut().zip(records) {
                *slot = rec;
            }
        }
    }
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
    /// Finishes a radix sort whose [`first_pass`] wrote `spare`: makes it
    /// the sorted buffer, then runs one pass over each digit of `digits`,
    /// `histograms` holding every digit's bucket counts over the sample.
    /// Returns the sorted records and the dead second buffer.
    fn finish(
        &mut self,
        layout: Layout,
        digits: impl Iterator<Item = usize>,
        histograms: &mut Histograms,
    ) -> (&[W], &mut [W]) {
        std::mem::swap(&mut self.sorted, &mut self.spare);
        for d in digits {
            let records = self.sorted.iter().map(|&rec| (layout.value(rec), rec));
            scatter(d, &mut histograms[d], records, &mut self.spare);
            std::mem::swap(&mut self.sorted, &mut self.spare);
        }
        (&self.sorted, &mut self.spare)
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

/// Slot `i` of `words`, two `u32` slots to a word.
#[inline]
fn read_slot<W: Word>(words: &[W], i: usize) -> u32 {
    words[i / 2].slot(i % 2)
}

/// Fills slots `0..len` of `words`, two `u32` slots to a word, with the
/// permutation that `SliceRandom::shuffle` of `(0..len as u32)` leaves
/// under `rng`, drawing exactly the draws it draws: the same Fisher–Yates
/// pass, step `i` from `len − 1` down to 1 swapping slot `i` with slot
/// `gen_range(0..=i)`. Slots `i` and `i − 1` share a word for odd `i`, so
/// the pass holds that word in a register across both steps and touches
/// only the drawn slot's word in memory. `words` must hold at least
/// `len.div_ceil(2)` words, and `len` be at most `u32::MAX`.
pub(crate) fn shuffle_slots<W: Word, R: Rng + ?Sized>(words: &mut [W], len: usize, rng: &mut R) {
    let words = &mut words[..len.div_ceil(2)];
    for (w, word) in words.iter_mut().enumerate() {
        let low = 2 * w as u32;
        *word = W::slots(low, low.wrapping_add(1));
    }
    for w in (0..words.len()).rev() {
        let mut word = words[w];
        // Step `i` swaps slot `i` (half `half` of `word`) with slot `j`.
        let mut step = |word: &mut W, i: usize, half: usize| {
            let j = rng.gen_range(0..=i);
            if j / 2 == w {
                if j != i {
                    *word = W::slots(word.slot(1), word.slot(0));
                }
            } else {
                let other = &mut words[j / 2];
                let at_j = other.slot(j % 2);
                *other = other.with_slot(j % 2, word.slot(half));
                *word = word.with_slot(half, at_j);
            }
        };
        if 2 * w + 1 < len {
            step(&mut word, 2 * w + 1, 1);
        }
        if w > 0 {
            step(&mut word, 2 * w, 0);
        }
        words[w] = word;
    }
}

/// rQuantile's shared-seed shuffle of the padded positions, stored as
/// the group of the arrival that lands at each real position (see
/// [`arrival_group`]) and every group's counts of real values, lows and
/// highs: all rMedian's top level needs of the order.
#[derive(Debug, Default)]
pub(crate) struct ArrivalMap {
    /// The shuffle seed, padded length and `−∞` count the map was built
    /// for.
    key: Option<(Seed, u32, usize)>,
    /// `groups[position]` is the group of the arrival at real position
    /// `position`.
    groups: Vec<u8>,
    /// Each group's counts of real values, lows and highs.
    counts: GroupCounts,
    /// Times the map was built.
    builds: u64,
}

impl ArrivalMap {
    /// The map of the shuffle of `len` positions under `seed`, and its
    /// groups' counts when the first `len / 2` positions are real values,
    /// the next `lows` are `−∞` and the rest `+∞`; rebuilt in place, with
    /// the permutation in `spare`, unless it is already the one held. The
    /// shuffle's draws depend only on `seed` and `len`, so this is the
    /// arrival order a shuffle of the padded values would give.
    pub(crate) fn get(
        &mut self,
        seed: Seed,
        len: u32,
        lows: usize,
        spare: &mut Spare<'_>,
    ) -> (&[u8], &GroupCounts) {
        let key = (seed, len, lows);
        if self.key != Some(key) {
            match spare {
                Spare::Narrow(words) => self.build(seed, len as usize, lows, words),
                Spare::Wide(words) => self.build(seed, len as usize, lows, words),
            }
            self.key = Some(key);
            self.builds += 1;
        }
        (&self.groups, &self.counts)
    }

    /// Shuffles the `len` positions under `seed` in `words` and writes
    /// the group of every real position's arrival and the groups' counts.
    fn build<W: Word>(&mut self, seed: Seed, len: usize, lows: usize, words: &mut [W]) {
        shuffle_slots(words, len, &mut seed.rng());
        let reals = len / 2;
        // One byte past the real positions takes every pad's write, so
        // that no write branches on whether its position is real.
        self.groups.clear();
        self.groups.resize(reals + 1, 0);
        self.counts = GroupCounts::default();
        for arrival in 0..len {
            let position = read_slot(words, arrival) as usize;
            let group = arrival_group(arrival);
            self.groups[position.min(reals)] = group;
            self.counts.tally(group, position, reals, lows);
        }
        self.groups.truncate(reals);
    }
}

/// A validated sample's sorted records, borrowed from a
/// [`QuantileScratch`]. Created by [`SampleKeys::sort`].
#[derive(Debug)]
pub struct SortedSample<'a> {
    /// The domain the sample was validated against.
    pub(crate) domain: Domain,
    /// The sample's `(value, position)` records in ascending order.
    pub(crate) records: Records<'a>,
    /// How the records are packed.
    pub(crate) layout: Layout,
    /// The sort's dead second buffer, where maps are shuffled.
    pub(crate) spare: Spare<'a>,
    /// The scratch's memoized arrival-group maps.
    pub(crate) maps: &'a mut Vec<ArrivalMap>,
    /// `rquantile` calls made on this sort so far: the next call's slot.
    pub(crate) calls: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, RngCore, SeedableRng};
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

    /// The free functions narrow their `u128` samples into a scratch's
    /// key buffer. A value past 64 bits lies in no domain, and is reported
    /// as the domain check reports a sample: by the first value outside
    /// the domain, which may come before it.
    #[test]
    fn values_past_64_bits_are_reported_by_the_domain_check() {
        let mut keys = Vec::new();
        assert_eq!(
            narrow(&[3, 300, 1 << 70], Domain::new(8).unwrap(), &mut keys),
            Err(ReproducibleError::ValueOutOfDomain {
                value: 300,
                bits: 8
            })
        );
        let domain = Domain::new(64).unwrap();
        assert_eq!(
            narrow(&[5, 1 << 70, 7], domain, &mut keys),
            Err(ReproducibleError::ValueOutOfDomain {
                value: 1 << 70,
                bits: 64
            })
        );
        keys.clear();
        assert_eq!(
            narrow(&[5, u128::from(u64::MAX)], domain, &mut keys),
            Ok(())
        );
        assert_eq!(keys, [5, u64::MAX]);
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

    /// The first `len` slots of `len` positions shuffled under `seed` in
    /// `W` words that held stale slots, and the generator's next word
    /// after the shuffle.
    fn packed_shuffle<W: Word>(len: usize, seed: &Seed) -> (Vec<u32>, u64) {
        let mut words = vec![W::slots(u32::MAX, 7); len.div_ceil(2) + 1];
        let mut rng = seed.rng();
        shuffle_slots(&mut words, len, &mut rng);
        let slots = (0..len).map(|i| read_slot(&words, i)).collect();
        (slots, rng.next_u64())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Shuffling packed slots, in `u64` and in `u128` words, leaves
        /// the permutation `SliceRandom::shuffle` leaves `(0..len as u32)`
        /// under the same seed, and both generators then yield the same
        /// next word: the two shuffles consumed the same draws. One case
        /// in six takes a length up to 16, where a word's second slot is
        /// often the last or unused.
        #[test]
        fn packed_shuffle_equals_slice_shuffle(
            drawn in 0usize..=2_400,
            entropy in 0u64..=u64::MAX,
        ) {
            let len = drawn.checked_sub(2_001).map_or(drawn, |past| past % 17);
            let seed = Seed::from_entropy_u64(entropy);
            let mut rng = seed.rng();
            let mut expected: Vec<u32> = (0..len as u32).collect();
            expected.shuffle(&mut rng);
            let expected = (expected, rng.next_u64());
            prop_assert_eq!(&packed_shuffle::<u64>(len, &seed), &expected);
            prop_assert_eq!(&packed_shuffle::<u128>(len, &seed), &expected);
        }

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
