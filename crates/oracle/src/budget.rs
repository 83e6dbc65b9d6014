//! Hard enforcement of access budgets.
//!
//! [`AccessStats`](crate::AccessStats) *counts* accesses; every query
//! bound in the paper is stated as a cap the algorithm must respect, so
//! experiments also need an oracle that *refuses* the access past the
//! cap. [`BudgetedOracle`] charges one unit per counted access (point
//! query or weighted sample — metadata stays free, as in Definition 2.2)
//! and fails with [`OracleError::BudgetExhausted`] from the first access
//! past the cap onward.
//!
//! A weighted-sample batch is charged with one reservation: the samples
//! the cap still covers are charged up front, and the slots an inner
//! failure never reached are refunded. The charges, the refusals and
//! their errors are those of one charge per sample.

use crate::access::ItemOracle;
use crate::error::OracleError;
use crate::stats::AccessSnapshot;
use crate::weighted::WeightedSampler;
use lcakp_knapsack::{Item, ItemId, Norms};
use rand::Rng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Decorator enforcing a hard cap on counted accesses.
///
/// The cap spans point queries *and* weighted samples combined, matching
/// how the paper accounts query complexity. Exactly `cap` accesses
/// succeed; access `cap + 1` (and every one after) returns
/// [`OracleError::BudgetExhausted`] without touching the inner oracle.
pub struct BudgetedOracle<'a, O> {
    inner: &'a O,
    cap: u64,
    used: AtomicU64,
}

impl<'a, O> BudgetedOracle<'a, O> {
    /// Wraps `inner` with a combined query+sample cap.
    #[must_use]
    pub fn new(inner: &'a O, cap: u64) -> Self {
        BudgetedOracle::with_spent(inner, cap, 0)
    }

    /// Wraps `inner` with `spent` accesses already charged against
    /// `cap` — how a crash-recovered worker resumes its budget slice
    /// exactly where its snapshot froze it. `spent` is clamped to `cap`
    /// (a snapshot can never legitimately exceed the cap it ran under).
    #[must_use]
    pub fn with_spent(inner: &'a O, cap: u64, spent: u64) -> Self {
        BudgetedOracle {
            inner,
            cap,
            used: AtomicU64::new(spent.min(cap)),
        }
    }

    /// The configured cap.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Accesses charged so far (successful ones only).
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Accesses still available under the cap.
    pub fn remaining(&self) -> u64 {
        self.cap - self.used()
    }

    /// The typed exhaustion error at the current spend level — also what
    /// a serving layer reports when it sheds a query *before* dispatch
    /// because [`remaining`](Self::remaining) cannot cover the query's
    /// worst-case cost.
    pub fn exhaustion(&self) -> OracleError {
        OracleError::BudgetExhausted {
            spent: self.used(),
            cap: self.cap,
        }
    }

    /// Charges one access, failing once the cap is reached.
    fn charge(&self) -> Result<(), OracleError> {
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                (used < self.cap).then(|| used + 1)
            })
            .map(|_| ())
            .map_err(|spent| OracleError::BudgetExhausted {
                spent,
                cap: self.cap,
            })
    }
}

impl<O: ItemOracle> ItemOracle for BudgetedOracle<'_, O> {
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
        self.charge()?;
        self.inner.try_query(id)
    }

    fn stats(&self) -> AccessSnapshot {
        self.inner.stats()
    }
}

impl<O: WeightedSampler> WeightedSampler for BudgetedOracle<'_, O> {
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, Item), OracleError> {
        self.charge()?;
        self.inner.try_sample_weighted(rng)
    }

    /// Reserves `min(count, cap − used)` samples in one `fetch_update`,
    /// so usage never passes the cap even between concurrent callers. A
    /// short inner delivery refunds the slots it never reached (the
    /// failed slot stays charged, as a per-sample `charge` leaves it),
    /// and a batch cut by the cap fails at the first unreserved slot.
    fn try_sample_weighted_many<R, F>(
        &self,
        rng: &mut R,
        count: u64,
        deliver: F,
    ) -> Result<(), (u64, OracleError)>
    where
        R: Rng + ?Sized,
        F: FnMut(ItemId, Item),
    {
        // `reserved` is the usage before the reservation; at the cap the
        // update is refused and nothing is reserved.
        let (Ok(reserved) | Err(reserved)) =
            self.used
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                    (used < self.cap).then(|| used + count.min(self.cap - used))
                });
        let granted = count.min(self.cap - reserved);
        if let Err((delivered, error)) = self.inner.try_sample_weighted_many(rng, granted, deliver)
        {
            self.used
                .fetch_sub(granted - (delivered + 1), Ordering::Relaxed);
            return Err((delivered, error));
        }
        if granted < count {
            // Usage never passes the cap, so a refusal sees it spent.
            let spent = self.cap;
            return Err((granted, OracleError::BudgetExhausted { spent, cap: spent }));
        }
        Ok(())
    }
}

impl<O> fmt::Debug for BudgetedOracle<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BudgetedOracle")
            .field("cap", &self.cap)
            .field("used", &self.used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::InstanceOracle;
    use crate::Seed;
    use lcakp_knapsack::{Instance, NormalizedInstance};

    fn norm() -> NormalizedInstance {
        NormalizedInstance::new(Instance::from_pairs([(3, 1), (1, 1), (6, 3)], 4).unwrap()).unwrap()
    }

    #[test]
    fn errors_at_exactly_cap_plus_one() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let budgeted = BudgetedOracle::new(&inner, 5);
        for access in 0..5 {
            assert!(
                budgeted.try_query(ItemId(access % 3)).is_ok(),
                "access {access} is within the cap"
            );
        }
        assert_eq!(
            budgeted.try_query(ItemId(0)),
            Err(OracleError::BudgetExhausted { spent: 5, cap: 5 }),
            "access cap+1 must fail"
        );
        // The failure is persistent and the inner oracle was not touched.
        assert_eq!(
            budgeted.try_query(ItemId(0)),
            Err(OracleError::BudgetExhausted { spent: 5, cap: 5 })
        );
        assert_eq!(inner.stats().point_queries, 5);
        assert_eq!(budgeted.used(), 5);
        assert_eq!(budgeted.remaining(), 0);
    }

    #[test]
    fn samples_share_the_same_budget() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let budgeted = BudgetedOracle::new(&inner, 3);
        let mut rng = Seed::from_entropy_u64(1).rng();
        assert!(budgeted.try_query(ItemId(0)).is_ok());
        assert!(budgeted.try_sample_weighted(&mut rng).is_ok());
        assert!(budgeted.try_sample_weighted(&mut rng).is_ok());
        assert_eq!(
            budgeted.try_sample_weighted(&mut rng),
            Err(OracleError::BudgetExhausted { spent: 3, cap: 3 })
        );
        assert_eq!(inner.stats().total(), 3);
    }

    #[test]
    fn metadata_is_free() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let budgeted = BudgetedOracle::new(&inner, 1);
        for _ in 0..100 {
            let _ = budgeted.len();
            let _ = budgeted.capacity();
            let _ = budgeted.norms();
            let _ = budgeted.stats();
        }
        assert_eq!(budgeted.used(), 0);
    }

    #[test]
    fn with_spent_resumes_the_budget_exactly() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let resumed = BudgetedOracle::with_spent(&inner, 5, 3);
        assert_eq!(resumed.used(), 3);
        assert_eq!(resumed.remaining(), 2);
        assert!(resumed.try_query(ItemId(0)).is_ok());
        assert!(resumed.try_query(ItemId(1)).is_ok());
        assert_eq!(
            resumed.try_query(ItemId(2)),
            Err(OracleError::BudgetExhausted { spent: 5, cap: 5 })
        );
        // A spend beyond the cap clamps instead of underflowing
        // `remaining`.
        let clamped = BudgetedOracle::with_spent(&inner, 4, 10);
        assert_eq!(clamped.used(), 4);
        assert_eq!(clamped.remaining(), 0);
    }

    #[test]
    fn zero_cap_rejects_everything() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let budgeted = BudgetedOracle::new(&inner, 0);
        assert_eq!(
            budgeted.try_query(ItemId(0)),
            Err(OracleError::BudgetExhausted { spent: 0, cap: 0 })
        );
    }
}
