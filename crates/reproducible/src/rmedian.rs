//! Reproducible approximate median — the workspace's stand-in for
//! [ILPS22, Theorem 4.2] (paper Theorem 2.7).
//!
//! # Algorithm (shifted-grid construction, `DESIGN.md` §3)
//!
//! Given a sample from a distribution `D` over `[0, 2^d)` and the shared
//! seed `r`:
//!
//! 1. **Base case** (`d ≤ 8`, a constant-size domain): draw a random
//!    threshold `θ ∈ [1/2 − τ/2, 1/2 + τ/2]` from `r` and return the
//!    smallest domain element whose empirical CDF reaches `θ`. Two runs
//!    disagree only if their empirical CDFs straddle `θ` at the output —
//!    probability `O(γ/τ)` for CDF error `γ`.
//! 2. **Recursive case**: draw a random grid offset `s ∈ [0, 2^d)` from
//!    `r`. Estimate the *fluctuation scale* of the empirical median: split
//!    half the sample into batches, take batch medians, and record for
//!    each batch pair the bit-scale at which the two medians separate on
//!    the shifted dyadic grid (`bitlen((a+s) ⊕ (b+s))`). These scales are
//!    i.i.d. draws from a distribution over the domain `[0, d]` —
//!    **exponentially smaller** than `[0, 2^d)` — and the grid scale `i*`
//!    is chosen as a *recursive reproducible median* of them (plus a
//!    safety margin). This `2^d → d` compression is what gives the
//!    `log* |X|` recursion depth of [ILPS22].
//! 3. **Snap**: compute the empirical median `m̂` of the other half and
//!    output the centre of the scale-`i*` shifted grid cell containing
//!    `m̂`. Two runs share `s` and (with probability `1 − ρ_rec`) `i*`;
//!    their `m̂`s differ by less than one cell width by the choice of
//!    `i*`, so they snap to the same centre.
//! 4. **Scale descent** (accuracy guard): accept the snapped point only
//!    if it is a θ-approximate median of the *empirical* distribution —
//!    `#{x ≤ out}` and `#{x ≥ out}` both at least `(1/2 − θ)·n`, with a
//!    *shared random* slack `θ ∈ [τ/4, τ/2]` — otherwise halve the cell
//!    width and re-snap. In the limit `i = 0` the output is `m̂` itself,
//!    so the loop terminates and the output always satisfies Definition
//!    2.6 empirically; the random slack gives hysteresis so that two
//!    runs rarely descend different amounts. Both counts come from
//!    arithmetic, not from a sorted copy of the padded sample: two binary
//!    searches in the once-sorted real sample plus rQuantile's known pad
//!    counts and codes (see [`Multiset`]).
//!
//! Every order statistic above — the base-case rank, `m̂`, and the 32
//! batch medians — is a single value of the multiset, so it is read off
//! the once-sorted sample; no step sorts a padded sample, a half, or a
//! batch, and none selects.
//!
//! # Group medians from one walk up the sort
//!
//! Steps 2–3 split the arrivals into 33 *groups*: half B (the odd
//! arrivals) and the 32 batches of half A (even arrival `a` is in batch
//! `(a/2) mod 32`). Under rQuantile the arrival order is a shuffle of the
//! padded positions, held as an arrival-group map (one group byte per
//! real position, see [`crate::QuantileScratch`]); over a plain sample
//! the group is a function of the position. The sort holds `(value,
//! position)` records, so each real value's group is known on the spot.
//! Each group's real, `−∞` and `+∞` members are counted when the map is
//! built (rQuantile memoizes these counts with the map). A group's median
//! is then `0` if its middle rank falls among its lows, `high_code` if it
//! falls among its highs, and otherwise its `(middle − lows)`-th real
//! value. One walk up the sorted records counts the values met per group
//! and takes a group's median when its count reaches that rank; the walk
//! stops once all 33 are resolved. No padded value is ever gathered and
//! no real value is moved.
//!
//! Reproducibility and accuracy are validated empirically by the tests
//! below and experiment E7, as promised in `DESIGN.md`.

use crate::domain::Domain;
use crate::scratch::{narrow, Layout, QuantileScratch, Records, SortedSample, Word};
use crate::ReproducibleError;
use lcakp_oracle::Seed;
use rand::Rng;

/// Domain width at or below which the base case runs.
const BASE_BITS: u32 = 8;
/// Extra bit-scales added on top of the recursively selected scale, to
/// absorb the factor between batch-median and full-median fluctuations.
const SCALE_MARGIN: u32 = 3;
/// Number of batches used for the scale statistic.
const BATCHES: usize = 32;
/// The group of half B's arrivals; groups `0..BATCHES` are half A's
/// batches.
const HALF_B: usize = BATCHES;
/// Half A's batches and half B.
const GROUPS: usize = BATCHES + 1;
/// Sample length below which the base case runs. At or above it half A
/// holds at least `BATCHES` values, so every batch is nonempty.
const MIN_RECURSIVE_LEN: usize = 2 * BATCHES;
/// Accuracy used for the recursive scale-selection call.
const SCALE_TAU: f64 = 0.25;
/// The layout of the scale statistic's `BATCHES / 2` records.
const SCALE_LAYOUT: Layout = Layout::new(BATCHES / 2, 0);

/// Configuration of a reproducible-median call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RMedianConfig {
    /// The finite ordered domain the sample lives in.
    pub domain: Domain,
    /// Target accuracy τ ∈ (0, 1/2]: the output is a τ-approximate median
    /// (Definition 2.6 of the paper).
    pub tau: f64,
}

/// Computes a ρ-reproducible τ-approximate median of the distribution the
/// sample was drawn from.
///
/// * `sample` — fresh i.i.d. draws (the per-run channel). Size it with
///   [`crate::SampleBudget`].
/// * `seed` — the shared randomness `r` (the reproducibility channel).
///   Two runs with the same seed and independent samples return the same
///   value with high probability.
///
/// This is [`SortedSample::rmedian`] over a fresh [`QuantileScratch`];
/// reuse a scratch to run several calls on one sample.
///
/// # Errors
///
/// * [`ReproducibleError::EmptySample`] for an empty sample;
/// * [`ReproducibleError::ValueOutOfDomain`] if a sample value exceeds the
///   domain;
/// * [`ReproducibleError::InvalidParameter`] if `tau ∉ (0, 1/2]`.
///
/// ```
/// use lcakp_reproducible::{rmedian, Domain, RMedianConfig, Seed};
/// # fn main() -> Result<(), lcakp_reproducible::ReproducibleError> {
/// let config = RMedianConfig { domain: Domain::new(16)?, tau: 0.05 };
/// let seed = Seed::from_entropy_u64(1);
/// let sample: Vec<u128> = (0..10_000).map(|i| (i * 37) % 1000).collect();
/// let median = rmedian(&sample, &config, &seed)?;
/// // ~uniform over [0, 1000): any τ-approximate median is near 500.
/// assert!((400..600).contains(&(median as i64)));
/// # Ok(())
/// # }
/// ```
pub fn rmedian(
    sample: &[u128],
    config: &RMedianConfig,
    seed: &Seed,
) -> Result<u128, ReproducibleError> {
    check_tau(config.tau)?;
    let mut scratch = QuantileScratch::default();
    let mut keys = scratch.keys();
    narrow(sample, config.domain, &mut keys)?;
    keys.sort(config.domain)?.rmedian(config.tau, seed)
}

impl SortedSample<'_> {
    /// [`rmedian`] over this sample at accuracy `tau`, from the shared
    /// sort and the scratch's buffers.
    ///
    /// # Errors
    ///
    /// [`ReproducibleError::InvalidParameter`] if `tau ∉ (0, 1/2]`.
    pub fn rmedian(&mut self, tau: f64, seed: &Seed) -> Result<u128, ReproducibleError> {
        check_tau(tau)?;
        Ok(solve_records(
            self.records,
            self.layout,
            Padding::NONE,
            self.domain.bits(),
            tau,
            seed,
        ))
    }
}

/// [`solve`] at the top level over sorted `records` packed under
/// `layout` and padded by `padding`, in the records' word width.
pub(crate) fn solve_records(
    records: Records<'_>,
    layout: Layout,
    padding: Padding<'_>,
    bits: u32,
    tau: f64,
    seed: &Seed,
) -> u128 {
    fn top<W: Word>(
        sorted: &[W],
        layout: Layout,
        padding: Padding<'_>,
        bits: u32,
        tau: f64,
        seed: &Seed,
    ) -> u128 {
        let multiset = Multiset {
            sorted,
            layout,
            padding,
        };
        solve(&multiset, bits, tau, 0.5, seed, 0)
    }
    match records {
        Records::Narrow(sorted) => top(sorted, layout, padding, bits, tau, seed),
        Records::Wide(sorted) => top(sorted, layout, padding, bits, tau, seed),
    }
}

/// Rejects an accuracy outside `(0, 1/2]`.
pub(crate) fn check_tau(tau: f64) -> Result<(), ReproducibleError> {
    if tau > 0.0 && tau <= 0.5 {
        Ok(())
    } else {
        Err(ReproducibleError::InvalidParameter {
            name: "tau",
            value: tau,
        })
    }
}

/// Whether [`solve`] answers a sample of `len` values over `[0, 2^bits)`
/// from the base case, which needs only the sorted values and never the
/// arrival order.
pub(crate) fn is_base_case(bits: u32, len: usize) -> bool {
    bits <= BASE_BITS || len < MIN_RECURSIVE_LEN
}

/// The group of arrival `arrival`: [`HALF_B`] for an odd arrival, batch
/// `(arrival/2) mod BATCHES` for an even one.
pub(crate) fn arrival_group(arrival: usize) -> u8 {
    if arrival % 2 == 1 {
        HALF_B as u8
    } else {
        ((arrival / 2) % BATCHES) as u8
    }
}

/// How many of each group's members are real values, `−∞` pads and
/// `+∞` pads: `members[kind][group]`, with `kind` 0, 1 and 2 in that
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupCounts {
    members: [[usize; GROUPS]; 3],
}

impl Default for GroupCounts {
    /// No members in any group.
    fn default() -> Self {
        GroupCounts {
            members: [[0; GROUPS]; 3],
        }
    }
}

impl GroupCounts {
    /// The counts of a layout of `reals` real values, then `lows` lows,
    /// then `highs` highs, where `group(position)` names the group of the
    /// arrival at each position.
    pub(crate) fn count(
        reals: usize,
        lows: usize,
        highs: usize,
        group: impl Fn(usize) -> u8,
    ) -> Self {
        let mut counts = GroupCounts::default();
        for position in 0..reals + lows + highs {
            counts.tally(group(position), position, reals, lows);
        }
        counts
    }

    /// Counts a member of group `group` at `position` of a layout of
    /// `reals` real values, then `lows` lows, then the highs. It does not
    /// branch on the kind, which a shuffled position makes a coin flip.
    #[inline]
    pub(crate) fn tally(&mut self, group: u8, position: usize, reals: usize, lows: usize) {
        let kind = usize::from(position >= reals) + usize::from(position >= reals + lows);
        self.members[kind][usize::from(group)] += 1;
    }

    /// Group `g`'s counts of real values, lows and highs.
    fn of(&self, g: usize) -> (usize, usize, usize) {
        let [reals, lows, highs] = &self.members;
        (reals[g], lows[g], highs[g])
    }
}

/// rQuantile's `±∞` padding of a real sample: the real values shifted
/// up by `offset`, then `lows` copies of `0` and `highs` copies of
/// `high_code`. Positions are laid out in that order; `groups` names the
/// group of the arrival that lands at each real position, and when it is
/// `None` arrivals come in layout order.
#[derive(Clone, Copy)]
pub(crate) struct Padding<'a> {
    /// Added to every real value (1 under rQuantile's extended domain).
    pub(crate) offset: u128,
    /// Copies of the `−∞` code `0`.
    pub(crate) lows: usize,
    /// Copies of the `+∞` code `high_code`.
    pub(crate) highs: usize,
    /// The `+∞` code.
    pub(crate) high_code: u128,
    /// Arrival group per real position ([`arrival_group`] of its
    /// arrival) and the groups' counts under this padding; `None` when
    /// arrival order is layout order.
    pub(crate) groups: Option<(&'a [u8], &'a GroupCounts)>,
}

impl Padding<'_> {
    /// No padding: the real sample alone, arriving in position order.
    pub(crate) const NONE: Padding<'static> = Padding {
        offset: 0,
        lows: 0,
        highs: 0,
        high_code: 0,
        groups: None,
    };
}

/// The multiset rMedian runs over, never materialized: the real values
/// whose sorted records are `sorted`, read through `layout`, under
/// `padding`.
///
/// Every padded value sorts at or beyond the ends of the shifted real
/// values (`0 < x + 1 ≤ high_code` for real `x`), so the sorted multiset
/// is the lows, then the sorted real sample, then the highs: order
/// statistics and rank counts are arithmetic over `sorted`.
pub(crate) struct Multiset<'a, W> {
    /// The real values' `(value, position)` records in ascending order.
    pub(crate) sorted: &'a [W],
    /// How the records are packed.
    pub(crate) layout: Layout,
    /// The padding around the real values.
    pub(crate) padding: Padding<'a>,
}

impl<'a, W: Word> Multiset<'a, W> {
    /// The unpadded sample whose sorted records are `sorted`.
    fn plain(sorted: &'a [W], layout: Layout) -> Self {
        Multiset {
            sorted,
            layout,
            padding: Padding::NONE,
        }
    }

    fn len(&self) -> usize {
        self.sorted.len() + self.padding.lows + self.padding.highs
    }

    /// The real value a record carries, shifted by the padding's offset.
    fn shifted(&self, rec: W) -> u128 {
        u128::from(self.layout.value(rec)) + self.padding.offset
    }

    /// `#{x ≤ bound}` over the real values, unshifted.
    fn reals_at_most(&self, bound: u128) -> usize {
        match u64::try_from(bound) {
            Ok(bound) => self
                .sorted
                .partition_point(|&rec| self.layout.value(rec) <= bound),
            Err(_) => self.sorted.len(),
        }
    }

    /// The median of every group, indexed by group.
    fn group_medians(&self) -> [u128; GROUPS] {
        let Padding { lows, highs, .. } = self.padding;
        match self.padding.groups {
            Some((groups, counts)) => self.walk_group_medians(counts, |position| groups[position]),
            None => self.walk_group_medians(
                &GroupCounts::count(self.sorted.len(), lows, highs, arrival_group),
                arrival_group,
            ),
        }
    }

    /// [`Multiset::group_medians`] with `counts` the groups' counts and
    /// `group(position)` naming the group of the arrival at each
    /// position: a group whose middle rank falls among its real values
    /// takes the value of its `(middle − lows)`-th real record met on one
    /// walk up the sort.
    fn walk_group_medians(
        &self,
        counts: &GroupCounts,
        group: impl Fn(usize) -> u8,
    ) -> [u128; GROUPS] {
        let mut medians = [0u128; GROUPS];
        // `rank[g]`: the 1-based real rank of group g's median, or 0 when
        // a pad holds it.
        let mut rank = [0usize; GROUPS];
        let mut unresolved = 0;
        for g in 0..GROUPS {
            let (reals, lows, highs) = counts.of(g);
            let middle = (lows + reals + highs - 1) / 2;
            if middle < lows {
                medians[g] = 0;
            } else if middle < lows + reals {
                rank[g] = middle - lows + 1;
                unresolved += 1;
            } else {
                medians[g] = self.padding.high_code;
            }
        }
        if unresolved == 0 {
            return medians;
        }
        let mut seen = [0usize; GROUPS];
        for &rec in self.sorted {
            let g = usize::from(group(self.layout.position(rec)));
            seen[g] += 1;
            if seen[g] == rank[g] {
                medians[g] = self.shifted(rec);
                unresolved -= 1;
                if unresolved == 0 {
                    break;
                }
            }
        }
        medians
    }

    /// The value of 0-based rank `rank` in ascending order.
    fn kth(&self, rank: usize) -> u128 {
        let Padding {
            lows, high_code, ..
        } = self.padding;
        if rank < lows {
            0
        } else {
            match self.sorted.get(rank - lows) {
                Some(&rec) => self.shifted(rec),
                None => high_code,
            }
        }
    }

    /// `#{x ≤ v}`.
    fn count_at_most(&self, v: u128) -> usize {
        let Padding {
            offset,
            lows,
            highs,
            high_code,
            ..
        } = self.padding;
        let real = v
            .checked_sub(offset)
            .map_or(0, |bound| self.reals_at_most(bound));
        let highs = if high_code <= v { highs } else { 0 };
        lows + real + highs
    }

    /// `#{x < v}`.
    fn count_below(&self, v: u128) -> usize {
        let Padding {
            offset,
            lows,
            highs,
            high_code,
            ..
        } = self.padding;
        let lows = if v > 0 { lows } else { 0 };
        let real = v
            .checked_sub(offset + 1)
            .map_or(0, |bound| self.reals_at_most(bound));
        let highs = if high_code < v { highs } else { 0 };
        lows + real + highs
    }
}

/// Recursive worker over `multiset`, visited in its arrival order: the
/// batch statistic needs genuinely random batches, which a sorted sample
/// would destroy. `target` is the quantile to aim for: 1/2 at the top
/// level, an *upper* quantile for the internal scale selection (a
/// conservative, stable choice when the scale distribution is bimodal —
/// larger cells only cost descent steps, which the accuracy guard
/// bounds).
// lcakp-lint: recursion-bound(log* bits) reason="each recursive call compresses the domain from 2^bits values to bits+2 scale codes (Algorithm 1's 2^d -> d step), so the depth is the iterated logarithm of the domain size"
pub(crate) fn solve<W: Word>(
    multiset: &Multiset<'_, W>,
    bits: u32,
    tau: f64,
    target: f64,
    seed: &Seed,
    depth: u64,
) -> u128 {
    let len = multiset.len();
    debug_assert!(len > 0);
    if is_base_case(bits, len) {
        return base_case(multiset, tau, target, seed, depth);
    }

    let mask = (1u128 << bits) - 1;
    let shift = seed.derive("rmedian/shift", depth).rng().gen::<u128>() & mask;

    // Halves (by parity of arrival index, so both are i.i.d. samples):
    // A (even arrivals) estimates the fluctuation scale, B (odd) the
    // median position. Batch `b` of A is the strided subsequence
    // 2b, 2b + 2·BATCHES, … of the arrivals (an i.i.d. subsample); the
    // separation of two independent batch medians upper-bounds the
    // fluctuation of the (larger) half-B median, conservatively.
    let medians = multiset.group_medians();
    let m_hat = medians[HALF_B];
    let batch_medians = &medians[..BATCHES];
    let mut scales = [0u64; BATCHES / 2];
    for (position, (scale, pair)) in scales
        .iter_mut()
        .zip(batch_medians.chunks_exact(2))
        .enumerate()
    {
        let separation = bit_length((pair[0] + shift) ^ (pair[1] + shift));
        *scale = SCALE_LAYOUT.record(u64::from(separation), position);
    }
    scales.sort_unstable();

    // Recursive reproducible median over the scale domain [0, bits+1] ⊆
    // [0, 2^7): the 2^d → d compression that yields log* depth.
    let selected = solve(
        &Multiset::plain(&scales, SCALE_LAYOUT),
        7,
        SCALE_TAU,
        0.75,
        &seed.derive("rmedian/scale", depth),
        depth + 1,
    );
    let mut scale = (u32::try_from(selected).unwrap_or(bits) + SCALE_MARGIN).min(bits);

    // Scale descent with a shared random slack θ ∈ [τ/4, τ/2]: accept the
    // snapped point only if it is an empirical θ-approximate median of
    // the full sample (Definition 2.6, both sides), else halve the cell.
    // At scale 0 the output is m̂ itself, which always qualifies — so the
    // loop terminates and the accuracy contract holds by construction up
    // to the empirical-CDF error.
    let gap_fraction: f64 = seed.derive("rmedian/gap", depth).rng().gen();
    let theta = tau * (0.25 + 0.25 * gap_fraction);
    loop {
        let out = snap(m_hat, shift, scale, mask);
        if is_empirical_median(multiset, out, theta) || scale == 0 {
            return out;
        }
        scale -= 1;
    }
}

/// Whether `v` is a θ-approximate median of the *empirical* distribution:
/// `#{x ≤ v} ≥ (1/2 − θ)·n` and `#{x ≥ v} ≥ (1/2 − θ)·n`.
fn is_empirical_median<W: Word>(multiset: &Multiset<'_, W>, v: u128, theta: f64) -> bool {
    let n = multiset.len() as f64;
    let leq = multiset.count_at_most(v) as f64;
    let geq = n - multiset.count_below(v) as f64;
    let floor = (0.5 - theta) * n;
    leq >= floor && geq >= floor
}

/// Base case: random-threshold empirical quantile over a constant-size
/// domain, centered on `target`.
fn base_case<W: Word>(
    multiset: &Multiset<'_, W>,
    tau: f64,
    target: f64,
    seed: &Seed,
    depth: u64,
) -> u128 {
    let fraction: f64 = seed.derive("rmedian/base-theta", depth).rng().gen();
    let theta = target + (fraction - 0.5) * tau;
    let len = multiset.len();
    let rank = ((theta * len as f64).ceil() as usize).clamp(1, len);
    multiset.kth(rank - 1)
}

/// Centre of the scale-`i` shifted grid cell containing `value`, clamped
/// into the domain.
fn snap(value: u128, shift: u128, scale: u32, mask: u128) -> u128 {
    if scale == 0 {
        return value;
    }
    let shifted = value + shift;
    let cell = shifted >> scale;
    let centre = (cell << scale) + (1u128 << (scale - 1));
    centre.saturating_sub(shift).min(mask)
}

/// Number of bits needed to write `x` (0 for 0).
fn bit_length(x: u128) -> u32 {
    128 - x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn config(bits: u32, tau: f64) -> RMedianConfig {
        RMedianConfig {
            domain: Domain::new(bits).unwrap(),
            tau,
        }
    }

    fn uniform_sample(rng: &mut ChaCha12Rng, n: usize, range: u128) -> Vec<u128> {
        (0..n).map(|_| rng.gen_range(0..range)).collect()
    }

    #[test]
    fn validates_inputs() {
        let seed = Seed::from_entropy_u64(0);
        assert!(matches!(
            rmedian(&[], &config(8, 0.1), &seed),
            Err(ReproducibleError::EmptySample)
        ));
        assert!(matches!(
            rmedian(&[300], &config(8, 0.1), &seed),
            Err(ReproducibleError::ValueOutOfDomain { .. })
        ));
        assert!(matches!(
            rmedian(&[1], &config(8, 0.0), &seed),
            Err(ReproducibleError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn point_mass_returns_the_point() {
        let seed = Seed::from_entropy_u64(5);
        let sample = vec![42u128; 5000];
        for bits in [8, 16, 32, 64] {
            assert_eq!(rmedian(&sample, &config(bits, 0.05), &seed).unwrap(), 42);
        }
    }

    #[test]
    fn deterministic_given_sample_and_seed() {
        let seed = Seed::from_entropy_u64(9);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let sample = uniform_sample(&mut rng, 4000, 1 << 20);
        let a = rmedian(&sample, &config(32, 0.05), &seed).unwrap();
        let b = rmedian(&sample, &config(32, 0.05), &seed).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn accuracy_on_uniform() {
        // τ = 0.05 over U[0, 2^20): output's CDF must be in [0.45, 0.55],
        // i.e. the value in [0.45, 0.55]·2^20 (within sampling noise).
        for trial in 0..10u64 {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng = ChaCha12Rng::seed_from_u64(trial + 100);
            let sample = uniform_sample(&mut rng, 20_000, 1 << 20);
            let out = rmedian(&sample, &config(20, 0.05), &seed).unwrap();
            let cdf = out as f64 / (1u128 << 20) as f64;
            assert!(
                (0.43..=0.57).contains(&cdf),
                "trial {trial}: cdf(out) = {cdf}"
            );
        }
    }

    #[test]
    fn accuracy_near_heavy_atom() {
        // 40% of mass at 1000, the rest uniform over [2^19, 2^20): the
        // median sits in the uniform part near its 1/6 point. The output
        // must not land "inside" the atom's shadow: its CDF must stay in
        // [0.5 − τ, 0.5 + τ] up to sampling noise.
        for trial in 0..5u64 {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng = ChaCha12Rng::seed_from_u64(trial + 7);
            let sample: Vec<u128> = (0..30_000)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        1000u128
                    } else {
                        rng.gen_range((1u128 << 19)..(1u128 << 20))
                    }
                })
                .collect();
            let out = rmedian(&sample, &config(20, 0.05), &seed).unwrap();
            // CDF(out) = 0.4 + 0.6·position within the uniform band.
            let cdf = if out < (1 << 19) {
                0.4
            } else {
                0.4 + 0.6 * ((out - (1 << 19)) as f64 / (1u128 << 19) as f64)
            };
            assert!(
                (0.42..=0.58).contains(&cdf),
                "trial {trial}: out = {out}, cdf = {cdf}"
            );
        }
    }

    #[test]
    fn reproducibility_rate_on_fresh_samples() {
        // Same seed, independent samples → same output, for most seeds.
        let mut agreements = 0;
        let trials = 40;
        for trial in 0..trials {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng_a = ChaCha12Rng::seed_from_u64(1_000 + trial);
            let mut rng_b = ChaCha12Rng::seed_from_u64(2_000 + trial);
            let sample_a = uniform_sample(&mut rng_a, 60_000, 1 << 30);
            let sample_b = uniform_sample(&mut rng_b, 60_000, 1 << 30);
            let out_a = rmedian(&sample_a, &config(30, 0.05), &seed).unwrap();
            let out_b = rmedian(&sample_b, &config(30, 0.05), &seed).unwrap();
            if out_a == out_b {
                agreements += 1;
            }
        }
        assert!(
            agreements * 4 >= trials * 3,
            "reproducibility too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn base_case_is_reproducible_on_small_domains() {
        let mut agreements = 0;
        let trials = 50;
        for trial in 0..trials {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng_a = ChaCha12Rng::seed_from_u64(3_000 + trial);
            let mut rng_b = ChaCha12Rng::seed_from_u64(4_000 + trial);
            // A coarse domain (16 atoms): the random-threshold base case
            // is reproducible when atoms are heavy relative to sampling
            // noise — exactly the regime the recursion reduces to.
            let sample_a = uniform_sample(&mut rng_a, 20_000, 16);
            let sample_b = uniform_sample(&mut rng_b, 20_000, 16);
            let out_a = rmedian(&sample_a, &config(4, 0.1), &seed).unwrap();
            let out_b = rmedian(&sample_b, &config(4, 0.1), &seed).unwrap();
            if out_a == out_b {
                agreements += 1;
            }
        }
        assert!(
            agreements * 50 >= trials * 42,
            "base-case reproducibility too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn two_point_distribution_returns_an_endpoint_region() {
        // Half the mass at 10, half at 1_000_000: any value v with
        // P[X ≤ v] ≥ 1/2 − τ and P[X ≥ v] ≥ 1/2 − τ is valid — that is,
        // anything in [10, 1_000_000].
        let seed = Seed::from_entropy_u64(11);
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let sample: Vec<u128> = (0..10_000)
            .map(|_| if rng.gen_bool(0.5) { 10 } else { 1_000_000 })
            .collect();
        let out = rmedian(&sample, &config(32, 0.1), &seed).unwrap();
        assert!((10..=1_000_000).contains(&out), "out = {out}");
    }

    #[test]
    fn bit_length_is_correct() {
        assert_eq!(bit_length(0), 0);
        assert_eq!(bit_length(1), 1);
        assert_eq!(bit_length(7), 3);
        assert_eq!(bit_length(8), 4);
    }

    #[test]
    fn snap_is_identity_at_scale_zero() {
        assert_eq!(snap(77, 12345, 0, u128::MAX), 77);
    }

    #[test]
    fn snap_clamps_into_domain() {
        let mask = (1u128 << 8) - 1;
        let out = snap(255, 0, 8, mask);
        assert!(out <= mask);
        let out = snap(0, 200, 8, mask);
        assert!(out <= mask);
    }

    /// The sorted `(value, position)` records of `sample` and their
    /// layout, as an integer sort of the packed records gives them.
    fn records(sample: &[u128]) -> (Vec<u64>, Layout) {
        let min = sample.iter().min().map_or(0, |&min| min as u64);
        let layout = Layout::new(sample.len(), min);
        let mut records: Vec<u64> = sample
            .iter()
            .enumerate()
            .map(|(position, &value)| layout.record(value as u64, position))
            .collect();
        records.sort_unstable();
        (records, layout)
    }

    #[test]
    fn empirical_median_check_is_two_sided() {
        let (sorted, layout) = records(&[1u128, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let plain = Multiset::plain(&sorted, layout);
        assert!(is_empirical_median(&plain, 5, 0.1));
        assert!(is_empirical_median(&plain, 6, 0.1));
        assert!(!is_empirical_median(&plain, 1, 0.1));
        assert!(!is_empirical_median(&plain, 10, 0.1));
        // A value past every sample fails the ≥ side even though the ≤
        // side is saturated.
        assert!(!is_empirical_median(&plain, 11, 0.1));
        // Heavy atom: the point just past the atom fails.
        let atom = vec![5u128; 8]
            .into_iter()
            .chain([9, 10])
            .collect::<Vec<_>>();
        let (atom, layout) = records(&atom);
        let atom = Multiset::plain(&atom, layout);
        assert!(is_empirical_median(&atom, 5, 0.1));
        assert!(!is_empirical_median(&atom, 6, 0.1));
    }

    /// Rank arithmetic over a padded multiset agrees with counting in
    /// the materialized, sorted padded sample.
    #[test]
    fn padded_counts_match_a_materialized_sample() {
        let sample = vec![7u128, 0, 3, 3, 15, 9];
        let (sorted, layout) = records(&sample);
        let high_code = 31;
        for lows in 0..=sample.len() {
            let highs = sample.len() - lows;
            let multiset = Multiset {
                sorted: &sorted,
                layout,
                padding: Padding {
                    offset: 1,
                    lows,
                    highs,
                    high_code,
                    groups: None,
                },
            };
            let mut padded: Vec<u128> = sample.iter().map(|&x| x + 1).collect();
            padded.extend(std::iter::repeat_n(0, lows));
            padded.extend(std::iter::repeat_n(high_code, highs));
            padded.sort_unstable();
            assert_eq!(multiset.len(), padded.len());
            for (rank, &value) in padded.iter().enumerate() {
                assert_eq!(multiset.kth(rank), value);
            }
            for v in 0..=high_code + 1 {
                let at_most = padded.iter().filter(|&&x| x <= v).count();
                let below = padded.iter().filter(|&&x| x < v).count();
                assert_eq!(multiset.count_at_most(v), at_most, "lows {lows}, v {v}");
                assert_eq!(multiset.count_below(v), below, "lows {lows}, v {v}");
            }
        }
    }

    /// Group medians read from a map of the real positions (and from
    /// layout order) equal the medians of the groups gathered from a
    /// materialized, shuffled padded sample.
    #[test]
    fn group_medians_match_gathered_groups() {
        use rand::seq::SliceRandom;
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        for (n, lows) in [(32, 0), (32, 32), (40, 13), (100, 71), (257, 128)] {
            let sample = uniform_sample(&mut rng, n, 6);
            let (sorted, layout) = records(&sample);
            let high_code = 9;
            let mut padded: Vec<u128> = sample.iter().map(|&x| x + 1).collect();
            padded.extend(std::iter::repeat_n(0, lows));
            padded.extend(std::iter::repeat_n(high_code, n - lows));
            let mut order: Vec<usize> = (0..2 * n).collect();
            order.shuffle(&mut rng);
            let mut groups = vec![0u8; 2 * n];
            for (arrival, &position) in order.iter().enumerate() {
                groups[position] = arrival_group(arrival);
            }
            let counts = GroupCounts::count(n, lows, n - lows, |position| groups[position]);
            let gathered_medians = |position_of: &dyn Fn(usize) -> usize| {
                let mut medians = [0u128; GROUPS];
                for (g, median) in medians.iter_mut().enumerate() {
                    let mut members: Vec<u128> = (0..2 * n)
                        .filter(|&arrival| usize::from(arrival_group(arrival)) == g)
                        .map(|arrival| padded[position_of(arrival)])
                        .collect();
                    members.sort_unstable();
                    *median = members[(members.len() - 1) / 2];
                }
                medians
            };
            let mut multiset = Multiset {
                sorted: &sorted,
                layout,
                padding: Padding {
                    offset: 1,
                    lows,
                    highs: n - lows,
                    high_code,
                    groups: Some((&groups[..n], &counts)),
                },
            };
            assert_eq!(
                multiset.group_medians(),
                gathered_medians(&|arrival| order[arrival]),
                "n {n}, lows {lows}"
            );
            multiset.padding.groups = None;
            assert_eq!(
                multiset.group_medians(),
                gathered_medians(&|arrival| arrival),
                "n {n}, lows {lows}"
            );
        }
    }
}
