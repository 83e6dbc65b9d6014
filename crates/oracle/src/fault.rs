//! Deterministic fault injection for oracle access.
//!
//! The paper's model assumes a perfect oracle; real deployments sit on
//! lossy storage and RPC. [`FaultyOracle`] wraps any oracle and injects
//! failures according to a [`FaultPlan`]:
//!
//! * **transient failures** — an access errors with
//!   [`OracleError::Transient`]; an immediate retry re-runs the access;
//! * **bounded corruption** — a read returns an item whose profit/weight
//!   were perturbed by at most a configured skew (silent), or errors with
//!   [`OracleError::Corrupted`] when the plan signals detection;
//! * **sampler bias** — a weighted sample is redirected to a uniformly
//!   random item, breaking profit-proportionality.
//!
//! Every fault decision is drawn from a private RNG derived as
//! `seed.derive("fault/access", k)` for the `k`-th counted access, so a
//! fixed `(Seed, FaultPlan)` pair replays the *identical* fault sequence
//! run after run — and the caller's sampling RNG is never touched by the
//! fault layer, so an all-zero plan is bit-identical to the bare oracle.

use crate::access::ItemOracle;
use crate::error::OracleError;
use crate::seed::Seed;
use crate::stats::AccessSnapshot;
use crate::weighted::WeightedSampler;
use lcakp_knapsack::{Item, ItemId, Norms};
use rand::{Rng, RngCore};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Domain tag for per-access fault randomness.
const FAULT_DOMAIN: &str = "fault/access";

/// Declarative description of which faults to inject and how often.
///
/// All rates are independent per-access probabilities in `[0, 1]`.
/// [`FaultPlan::none`] injects nothing and leaves wrapped oracles
/// bit-identical to bare ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a counted access fails with
    /// [`OracleError::Transient`] before touching the inner oracle.
    pub transient_rate: f64,
    /// Probability that a successful read returns a perturbed item (or,
    /// with [`signal_corruption`](Self::signal_corruption), errors with
    /// [`OracleError::Corrupted`]).
    pub corruption_rate: f64,
    /// Largest absolute profit perturbation a corruption may apply.
    pub max_profit_skew: u64,
    /// Largest absolute weight perturbation a corruption may apply.
    pub max_weight_skew: u64,
    /// Probability that a weighted sample is redirected to a uniformly
    /// random item instead of the profit-proportional draw.
    pub sampler_bias: f64,
    /// When `true`, corruptions are *detected* (checksum-style) and
    /// reported as [`OracleError::Corrupted`] instead of silently
    /// returning the perturbed item.
    pub signal_corruption: bool,
}

impl FaultPlan {
    /// The inert plan: no faults of any kind.
    pub fn none() -> Self {
        FaultPlan {
            transient_rate: 0.0,
            corruption_rate: 0.0,
            max_profit_skew: 0,
            max_weight_skew: 0,
            sampler_bias: 0.0,
            signal_corruption: false,
        }
    }

    /// Plan failing each access transiently with probability `rate`.
    pub fn transient(rate: f64) -> Self {
        FaultPlan {
            transient_rate: rate,
            ..FaultPlan::none()
        }
    }

    /// Plan silently corrupting each read with probability `rate`,
    /// perturbing profit and weight by at most `skew`.
    pub fn corrupting(rate: f64, skew: u64) -> Self {
        FaultPlan {
            corruption_rate: rate,
            max_profit_skew: skew,
            max_weight_skew: skew,
            ..FaultPlan::none()
        }
    }

    /// Returns `true` when the plan can never inject a fault.
    pub fn is_inert(&self) -> bool {
        self.transient_rate == 0.0 && self.corruption_rate == 0.0 && self.sampler_bias == 0.0
    }

    fn validate(&self) {
        for (name, rate) in [
            ("transient_rate", self.transient_rate),
            ("corruption_rate", self.corruption_rate),
            ("sampler_bias", self.sampler_bias),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} must be a probability, got {rate}"
            );
        }
    }
}

/// Counts of the faults a [`FaultyOracle`] has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Accesses that failed with [`OracleError::Transient`].
    pub transient_faults: u64,
    /// Reads corrupted (silently perturbed or signalled, per the plan).
    pub corrupted_reads: u64,
    /// Weighted samples redirected away from the proportional draw.
    pub biased_samples: u64,
    /// Counted accesses under an active plan (an inert plan counts none).
    pub accesses: u64,
}

impl FaultReport {
    /// Total faults of all kinds.
    pub fn total_faults(&self) -> u64 {
        self.transient_faults + self.corrupted_reads + self.biased_samples
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} transient / {} corrupted / {} biased over {} accesses",
            self.transient_faults, self.corrupted_reads, self.biased_samples, self.accesses
        )
    }
}

/// Decorator injecting deterministic, seed-replayable faults into any
/// oracle.
///
/// Wraps by shared reference like [`RejectionSamplingOracle`]
/// (crate::RejectionSamplingOracle), so the inner oracle's counters keep
/// aggregating across decorators.
pub struct FaultyOracle<'a, O> {
    inner: &'a O,
    plan: FaultPlan,
    seed: Seed,
    accesses: AtomicU64,
    transients: AtomicU64,
    corruptions: AtomicU64,
    biased: AtomicU64,
}

impl<'a, O> FaultyOracle<'a, O> {
    /// Wraps `inner`, drawing fault decisions from `seed` under the
    /// `"fault/access"` domain.
    ///
    /// # Panics
    ///
    /// Panics if any rate in `plan` is outside `[0, 1]`.
    pub fn new(inner: &'a O, plan: FaultPlan, seed: Seed) -> Self {
        plan.validate();
        FaultyOracle {
            inner,
            plan,
            seed,
            accesses: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            biased: AtomicU64::new(0),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the faults injected so far.
    pub fn fault_report(&self) -> FaultReport {
        FaultReport {
            transient_faults: self.transients.load(Ordering::Relaxed),
            corrupted_reads: self.corruptions.load(Ordering::Relaxed),
            biased_samples: self.biased.load(Ordering::Relaxed),
            accesses: self.accesses.load(Ordering::Relaxed),
        }
    }

    /// The RNG governing the `access`-th fault decision; private to the
    /// fault layer so caller entropy is never consumed by faults.
    fn fault_rng(&self, access: u64) -> impl RngCore {
        self.seed.derive(FAULT_DOMAIN, access).rng()
    }

    fn next_access(&self) -> u64 {
        self.accesses.fetch_add(1, Ordering::Relaxed)
    }

    fn maybe_corrupt<R: Rng + ?Sized>(
        &self,
        id: ItemId,
        item: Item,
        frng: &mut R,
    ) -> Result<Item, OracleError> {
        if !frng.gen_bool(self.plan.corruption_rate) {
            return Ok(item);
        }
        self.corruptions.fetch_add(1, Ordering::Relaxed);
        if self.plan.signal_corruption {
            return Err(OracleError::Corrupted { id });
        }
        let profit = skew(item.profit, self.plan.max_profit_skew, frng);
        let weight = skew(item.weight, self.plan.max_weight_skew, frng);
        Ok(Item::new(profit, weight))
    }
}

/// Perturbs `value` by a uniform amount in `[-max, +max]`, saturating.
fn skew<R: Rng + ?Sized>(value: u64, max: u64, frng: &mut R) -> u64 {
    if max == 0 {
        return value;
    }
    let delta = frng.gen_range(0..=max);
    if frng.gen_bool(0.5) {
        value.saturating_add(delta)
    } else {
        value.saturating_sub(delta)
    }
}

impl<O: ItemOracle> ItemOracle for FaultyOracle<'_, O> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn norms(&self) -> Norms {
        self.inner.norms()
    }

    fn try_query(&self, id: ItemId) -> Result<Item, OracleError> {
        if self.plan.is_inert() {
            return self.inner.try_query(id);
        }
        let access = self.next_access();
        let mut frng = self.fault_rng(access);
        if frng.gen_bool(self.plan.transient_rate) {
            self.transients.fetch_add(1, Ordering::Relaxed);
            return Err(OracleError::Transient { access });
        }
        let item = self.inner.try_query(id)?;
        self.maybe_corrupt(id, item, &mut frng)
    }

    fn stats(&self) -> AccessSnapshot {
        self.inner.stats()
    }
}

impl<O: ItemOracle + WeightedSampler> WeightedSampler for FaultyOracle<'_, O> {
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, Item), OracleError> {
        if self.plan.is_inert() {
            return self.inner.try_sample_weighted(rng);
        }
        let access = self.next_access();
        let mut frng = self.fault_rng(access);
        if frng.gen_bool(self.plan.transient_rate) {
            self.transients.fetch_add(1, Ordering::Relaxed);
            return Err(OracleError::Transient { access });
        }
        // Consume caller entropy exactly as the fault-free draw would,
        // so fault decisions never shift the caller's RNG stream.
        let (id, item) = self.inner.try_sample_weighted(rng)?;
        if frng.gen_bool(self.plan.sampler_bias) {
            self.biased.fetch_add(1, Ordering::Relaxed);
            let redirected = ItemId(frng.gen_range(0..self.inner.len()));
            let item = self.inner.try_query(redirected)?;
            return self
                .maybe_corrupt(redirected, item, &mut frng)
                .map(|item| (redirected, item));
        }
        self.maybe_corrupt(id, item, &mut frng)
            .map(|item| (id, item))
    }

    /// An inert plan passes the whole batch to the inner oracle, as its
    /// single draws pass through. Active faults are decided per access,
    /// so the batch then runs one [`try_sample_weighted`] per slot.
    ///
    /// [`try_sample_weighted`]: WeightedSampler::try_sample_weighted
    fn try_sample_weighted_many<R, F>(
        &self,
        rng: &mut R,
        count: u64,
        mut deliver: F,
    ) -> Result<(), (u64, OracleError)>
    where
        R: Rng + ?Sized,
        F: FnMut(ItemId, Item),
    {
        if self.plan.is_inert() {
            return self.inner.try_sample_weighted_many(rng, count, deliver);
        }
        for delivered in 0..count {
            match self.try_sample_weighted(rng) {
                Ok((id, item)) => deliver(id, item),
                Err(error) => return Err((delivered, error)),
            }
        }
        Ok(())
    }
}

impl<O> fmt::Debug for FaultyOracle<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyOracle")
            .field("plan", &self.plan)
            .field("report", &self.fault_report())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::InstanceOracle;
    use lcakp_knapsack::{Instance, NormalizedInstance};

    fn norm() -> NormalizedInstance {
        NormalizedInstance::new(Instance::from_pairs([(3, 1), (1, 1), (5, 2), (6, 3)], 4).unwrap())
            .unwrap()
    }

    #[test]
    fn inert_plan_is_transparent() {
        let norm = norm();
        let bare = InstanceOracle::new(&norm);
        let wrapped_inner = InstanceOracle::new(&norm);
        let faulty =
            FaultyOracle::new(&wrapped_inner, FaultPlan::none(), Seed::from_entropy_u64(1));
        let mut rng_a = Seed::from_entropy_u64(7).rng();
        let mut rng_b = Seed::from_entropy_u64(7).rng();
        for index in 0..4 {
            assert_eq!(
                bare.try_query(ItemId(index)).unwrap(),
                faulty.try_query(ItemId(index)).unwrap()
            );
        }
        for _ in 0..1000 {
            assert_eq!(
                bare.try_sample_weighted(&mut rng_a).unwrap(),
                faulty.try_sample_weighted(&mut rng_b).unwrap()
            );
        }
        assert_eq!(bare.stats(), wrapped_inner.stats());
        assert_eq!(faulty.fault_report().total_faults(), 0);
    }

    #[test]
    fn transient_faults_fire_at_the_configured_rate() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let faulty = FaultyOracle::new(
            &inner,
            FaultPlan::transient(0.25),
            Seed::from_entropy_u64(2),
        );
        let mut failures = 0u64;
        let trials = 10_000;
        for trial in 0..trials {
            if faulty.try_query(ItemId((trial % 4) as usize)).is_err() {
                failures += 1;
            }
        }
        let rate = failures as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed transient rate {rate}");
        assert_eq!(faulty.fault_report().transient_faults, failures);
    }

    #[test]
    fn fault_sequence_replays_for_a_fixed_seed() {
        let norm = norm();
        let plan = FaultPlan {
            transient_rate: 0.2,
            corruption_rate: 0.2,
            max_profit_skew: 3,
            max_weight_skew: 2,
            sampler_bias: 0.2,
            signal_corruption: false,
        };
        let seed = Seed::from_entropy_u64(42);
        let run = |_: ()| {
            let inner = InstanceOracle::new(&norm);
            let faulty = FaultyOracle::new(&inner, plan, seed);
            let mut rng = Seed::from_entropy_u64(9).rng();
            let mut outcomes = Vec::new();
            for index in 0..500 {
                outcomes.push(faulty.try_query(ItemId(index % 4)));
                outcomes.push(faulty.try_sample_weighted(&mut rng).map(|(_, item)| item));
            }
            (outcomes, faulty.fault_report())
        };
        assert_eq!(run(()), run(()));
    }

    #[test]
    fn corruption_is_bounded_by_the_skew() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let plan = FaultPlan::corrupting(1.0, 2);
        let faulty = FaultyOracle::new(&inner, plan, Seed::from_entropy_u64(3));
        for _ in 0..200 {
            let item = faulty.try_query(ItemId(3)).unwrap();
            // True item is (6, 3); skew at most 2 on each coordinate.
            assert!((4..=8).contains(&item.profit), "profit {}", item.profit);
            assert!((1..=5).contains(&item.weight), "weight {}", item.weight);
        }
        assert_eq!(faulty.fault_report().corrupted_reads, 200);
    }

    #[test]
    fn signalled_corruption_errors_instead() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let plan = FaultPlan {
            signal_corruption: true,
            ..FaultPlan::corrupting(1.0, 2)
        };
        let faulty = FaultyOracle::new(&inner, plan, Seed::from_entropy_u64(4));
        assert_eq!(
            faulty.try_query(ItemId(1)),
            Err(OracleError::Corrupted { id: ItemId(1) })
        );
    }

    #[test]
    fn sampler_bias_redirects_toward_uniform() {
        // Item 1 has profit 1 of 15 total: proportional mass ≈ 6.7%,
        // uniform mass 25%. Full bias must pull its frequency up.
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let plan = FaultPlan {
            sampler_bias: 1.0,
            ..FaultPlan::none()
        };
        let faulty = FaultyOracle::new(&inner, plan, Seed::from_entropy_u64(5));
        let mut rng = Seed::from_entropy_u64(6).rng();
        let trials = 20_000;
        let mut low_profit_hits = 0u64;
        for _ in 0..trials {
            if faulty.try_sample_weighted(&mut rng).unwrap().0 == ItemId(1) {
                low_profit_hits += 1;
            }
        }
        let rate = low_profit_hits as f64 / trials as f64;
        assert!(
            rate > 0.18,
            "biased sampler should be near-uniform, got {rate}"
        );
        assert_eq!(faulty.fault_report().biased_samples, trials);
    }

    #[test]
    #[should_panic(expected = "transient_rate")]
    fn invalid_rate_panics() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let _ = FaultyOracle::new(&inner, FaultPlan::transient(1.5), Seed::from_entropy_u64(0));
    }
}
