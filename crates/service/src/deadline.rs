//! Per-query deadlines on the virtual clock.
//!
//! [`DeadlineOracle`] wraps any oracle and (a) advances the worker's
//! [`VirtualClock`] by the access's modelled latency, (b) refuses the
//! access with [`OracleError::DeadlineExceeded`] once the clock passes
//! the query's deadline tick. Because `LCA-KP` already maps that error
//! through its degradation ladder, a blown deadline surfaces as
//! [`DegradationReason::DeadlineExceeded`]
//! (lcakp_core::DegradationReason) rather than a hang — the runtime's
//! answer latency is bounded by construction.
//!
//! Latency is a deterministic [`CostModel`]: a base cost per access plus
//! tick-windowed spikes, which is how the chaos harness injects "slow
//! oracle" incidents without any wall-clock dependence.
//!
//! A weighted-sample batch is charged per chunk of 64 samples: one clock
//! read, a local replay of the chunk's costs to find the accesses that
//! start before the deadline (in closed form when the cost is flat), one
//! inner batch, then one `accesses` add and one clock advance. Ticks,
//! counts and errors are those of one charge per access, because
//! nothing reads the shard clock inside an access.

use crate::clock::VirtualClock;
use lcakp_knapsack::{Item, ItemId, Norms};
use lcakp_oracle::{AccessSnapshot, ItemOracle, OracleError, WeightedSampler};
use rand::Rng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Samples a batch charges per clock read. It bounds the charges a call
/// replays to the samples it goes on to draw, which matters because
/// `LCA-KP` reissues the rest of a batch after every transient fault.
const DEADLINE_CHUNK: u64 = 64;

/// A latency surge over a half-open tick interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyWindow {
    /// First tick (inclusive) the surge applies to.
    pub start_tick: u64,
    /// First tick (exclusive) past the surge.
    pub end_tick: u64,
    /// Extra ticks every access started inside the window costs.
    pub extra_cost: u64,
}

impl LatencyWindow {
    /// Whether `tick` falls inside the window.
    pub fn contains(&self, tick: u64) -> bool {
        self.start_tick <= tick && tick < self.end_tick
    }
}

/// Deterministic access-latency model in virtual ticks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostModel {
    /// Ticks every counted access costs.
    pub cost_per_access: u64,
    /// Additive latency spikes by tick window.
    pub spikes: Vec<LatencyWindow>,
}

impl CostModel {
    /// A flat model: every access costs `cost_per_access` ticks.
    pub fn flat(cost_per_access: u64) -> Self {
        CostModel {
            cost_per_access,
            spikes: Vec::new(),
        }
    }

    /// Adds a latency spike window.
    pub fn with_spike(mut self, spike: LatencyWindow) -> Self {
        self.spikes.push(spike);
        self
    }

    /// The cost of an access *started* at `tick`.
    pub fn cost_at(&self, tick: u64) -> u64 {
        let extra: u64 = self
            .spikes
            .iter()
            .filter(|spike| spike.contains(tick))
            .map(|spike| spike.extra_cost)
            .sum();
        self.cost_per_access.saturating_add(extra)
    }
}

/// Decorator enforcing a deadline tick and charging modelled latency.
///
/// Each counted access first checks the clock against the deadline —
/// refusing with [`OracleError::DeadlineExceeded`] if it already passed
/// — then advances the clock by [`CostModel::cost_at`] and delegates.
/// Metadata stays free and un-clocked, mirroring
/// [`BudgetedOracle`](lcakp_oracle::BudgetedOracle).
pub struct DeadlineOracle<'a, O, C> {
    inner: &'a O,
    clock: &'a C,
    deadline_tick: u64,
    cost: &'a CostModel,
    accesses: AtomicU64,
}

impl<'a, O, C> DeadlineOracle<'a, O, C> {
    /// Wraps `inner` with a deadline at absolute tick `deadline_tick`.
    pub fn new(inner: &'a O, clock: &'a C, deadline_tick: u64, cost: &'a CostModel) -> Self {
        DeadlineOracle {
            inner,
            clock,
            deadline_tick,
            cost,
            accesses: AtomicU64::new(0),
        }
    }

    /// Counted accesses attempted through this wrapper (refused ones
    /// included).
    pub fn accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }
}

/// Replays up to `limit` charges on a local clock starting at tick
/// `now`, an access started at `tick` costing `cost(tick)`: how many
/// accesses start before `deadline`, and the tick the clock reaches once
/// they are charged.
fn replay_loop(mut now: u64, limit: u64, deadline: u64, cost: impl Fn(u64) -> u64) -> (u64, u64) {
    let mut granted = 0;
    while granted < limit && now < deadline {
        now = now.wrapping_add(cost(now));
        granted += 1;
    }
    (granted, now)
}

/// [`replay_loop`] at a flat cost `c`, in closed form: access `j` starts
/// at `now + j·c`, so `⌈(deadline − now)/c⌉` accesses start before the
/// deadline. `None` when `c = 0` or the end tick overflows; there the
/// loop, whose clock wraps, decides.
fn flat_replay(c: u64, now: u64, limit: u64, deadline: u64) -> Option<(u64, u64)> {
    if c == 0 {
        return None;
    }
    let granted = limit.min(deadline.saturating_sub(now).div_ceil(c));
    let end = granted.checked_mul(c)?.checked_add(now)?;
    Some((granted, end))
}

impl<'a, O, C: VirtualClock> DeadlineOracle<'a, O, C> {
    /// Replays up to `limit` charges from tick `now` (see
    /// [`replay_loop`]), in closed form when no spike can change a
    /// charge.
    fn replay(&self, now: u64, limit: u64) -> (u64, u64) {
        if self.cost.spikes.is_empty() {
            if let Some(replayed) =
                flat_replay(self.cost.cost_per_access, now, limit, self.deadline_tick)
            {
                return replayed;
            }
        }
        replay_loop(now, limit, self.deadline_tick, |tick| {
            self.cost.cost_at(tick)
        })
    }

    fn charge(&self) -> Result<(), OracleError> {
        let access = self.accesses.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        if now >= self.deadline_tick {
            return Err(OracleError::DeadlineExceeded { access });
        }
        self.clock.advance(self.cost.cost_at(now));
        Ok(())
    }
}

impl<O: ItemOracle, C: VirtualClock> ItemOracle for DeadlineOracle<'_, O, C> {
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

impl<O: WeightedSampler, C: VirtualClock> WeightedSampler for DeadlineOracle<'_, O, C> {
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, Item), OracleError> {
        self.charge()?;
        self.inner.try_sample_weighted(rng)
    }

    /// Charges per chunk of `DEADLINE_CHUNK` samples (see the module
    /// docs). A chunk settles every access up to and including a failed
    /// one, plus the refused access when the deadline cuts it short.
    ///
    /// Each chunk hands the inner batch a fresh closure rather than
    /// `&mut deliver`: the inner loop then calls the sink directly, not
    /// through one more reference per sample.
    #[allow(clippy::redundant_closure)]
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
        let mut done = 0;
        while done < count {
            let len = (count - done).min(DEADLINE_CHUNK);
            let start = self.clock.now();
            let (granted, end) = self.replay(start, len);
            if let Err((delivered, error)) =
                self.inner
                    .try_sample_weighted_many(rng, granted, |id, item| deliver(id, item))
            {
                let (_, end) = self.replay(start, delivered + 1);
                self.accesses.fetch_add(delivered + 1, Ordering::Relaxed);
                self.clock.advance(end.wrapping_sub(start));
                return Err((done + delivered, error));
            }
            self.clock.advance(end.wrapping_sub(start));
            if granted < len {
                let refused = self.accesses.fetch_add(granted + 1, Ordering::Relaxed) + granted;
                return Err((
                    done + granted,
                    OracleError::DeadlineExceeded { access: refused },
                ));
            }
            self.accesses.fetch_add(granted, Ordering::Relaxed);
            done += len;
        }
        Ok(())
    }
}

impl<O, C> fmt::Debug for DeadlineOracle<'_, O, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadlineOracle")
            .field("deadline_tick", &self.deadline_tick)
            .field("accesses", &self.accesses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;
    use lcakp_knapsack::{Instance, NormalizedInstance};
    use lcakp_oracle::{InstanceOracle, Seed};

    fn norm() -> NormalizedInstance {
        NormalizedInstance::new(Instance::from_pairs([(3, 1), (1, 1), (6, 3)], 4).unwrap()).unwrap()
    }

    #[test]
    fn accesses_advance_the_clock_and_stop_at_the_deadline() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let clock = TickClock::new();
        let cost = CostModel::flat(2);
        let guarded = DeadlineOracle::new(&inner, &clock, 5, &cost);
        assert!(guarded.try_query(ItemId(0)).is_ok()); // t: 0 → 2
        assert!(guarded.try_query(ItemId(1)).is_ok()); // t: 2 → 4
        assert!(guarded.try_query(ItemId(2)).is_ok()); // t: 4 → 6
        assert_eq!(
            guarded.try_query(ItemId(0)),
            Err(OracleError::DeadlineExceeded { access: 3 }),
            "t = 6 ≥ deadline 5 must refuse"
        );
        assert_eq!(clock.now(), 6);
        assert_eq!(guarded.accesses(), 4);
        assert_eq!(
            inner.stats().point_queries,
            3,
            "refused access never reached the oracle"
        );
    }

    #[test]
    fn samples_are_clocked_too() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let clock = TickClock::new();
        let cost = CostModel::flat(1);
        let guarded = DeadlineOracle::new(&inner, &clock, 2, &cost);
        let mut rng = Seed::from_entropy_u64(5).rng();
        assert!(guarded.try_sample_weighted(&mut rng).is_ok());
        assert!(guarded.try_sample_weighted(&mut rng).is_ok());
        assert!(matches!(
            guarded.try_sample_weighted(&mut rng),
            Err(OracleError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn latency_spikes_apply_inside_their_window_only() {
        let cost = CostModel::flat(1)
            .with_spike(LatencyWindow {
                start_tick: 10,
                end_tick: 20,
                extra_cost: 5,
            })
            .with_spike(LatencyWindow {
                start_tick: 15,
                end_tick: 20,
                extra_cost: 2,
            });
        assert_eq!(cost.cost_at(9), 1);
        assert_eq!(cost.cost_at(10), 6);
        assert_eq!(cost.cost_at(15), 8, "overlapping spikes stack");
        assert_eq!(cost.cost_at(20), 1);
    }

    #[test]
    fn metadata_is_free_and_unclocked() {
        let norm = norm();
        let inner = InstanceOracle::new(&norm);
        let clock = TickClock::new();
        let cost = CostModel::flat(3);
        let guarded = DeadlineOracle::new(&inner, &clock, 100, &cost);
        for _ in 0..10 {
            let _ = guarded.len();
            let _ = guarded.norms();
            let _ = guarded.capacity();
        }
        assert_eq!(clock.now(), 0);
        assert_eq!(guarded.accesses(), 0);
    }

    /// The closed-form replay against the charge-by-charge loop.
    mod flat_replay_props {
        use super::super::{flat_replay, replay_loop};
        use proptest::prelude::*;

        /// A tick, cost or count: one of the u64 edges, a small value,
        /// or an arbitrary one.
        fn edgy(small: u64) -> impl Strategy<Value = u64> {
            (0u8..8, 0..=small, 0..=u64::MAX).prop_map(|(pick, low, any)| match pick {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                3 => u64::MAX - 1,
                4 => u64::MAX - low,
                5 | 6 => low,
                _ => any,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn closed_form_equals_the_loop(
                c in edgy(100),
                now in edgy(10_000),
                deadline in edgy(10_000),
                limit in edgy(200),
            ) {
                let Some(closed) = flat_replay(c, now, limit, deadline) else {
                    // The loop decides: a zero cost, or an end tick past u64::MAX.
                    let overflows = limit
                        .min(deadline.saturating_sub(now).div_ceil(c.max(1)))
                        .checked_mul(c)
                        .and_then(|ticks| ticks.checked_add(now))
                        .is_none();
                    prop_assert!(c == 0 || overflows);
                    return Ok(());
                };
                // A closed form only exists when no charge wraps, so the
                // loop runs exactly `closed.0` steps; keep them affordable.
                prop_assume!(closed.0 <= 1 << 20);
                prop_assert_eq!(closed, replay_loop(now, limit, deadline, |_| c));
            }
        }

        #[test]
        fn edge_cases() {
            // At or past the deadline nothing starts.
            assert_eq!(flat_replay(3, 10, 64, 10), Some((0, 10)));
            assert_eq!(flat_replay(3, u64::MAX, 64, 10), Some((0, u64::MAX)));
            // No accesses asked for.
            assert_eq!(flat_replay(3, 0, 0, 10), Some((0, 0)));
            // The last access starts one tick before the deadline.
            assert_eq!(flat_replay(3, 0, 64, 10), Some((4, 12)));
            assert_eq!(replay_loop(0, 64, 10, |_| 3), (4, 12));
            // Zero cost and a wrapping end tick fall back to the loop.
            assert_eq!(flat_replay(0, 0, 64, 10), None);
            assert_eq!(flat_replay(u64::MAX, 1, 64, u64::MAX), None);
            assert_eq!(replay_loop(1, 64, u64::MAX, |_| u64::MAX), (2, u64::MAX));
        }
    }
}
