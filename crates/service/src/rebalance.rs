//! Admission-coupled ring rebalancing: hot-shard relief as a typed,
//! audited, epoch-versioned control loop (experiment E18).
//!
//! The open-loop cluster runtime ([`crate::cluster`]) watches each
//! node's windowed [`LoadSignal`]. When a node runs hot while a standby
//! replica of one of its shards sits under-loaded, the
//! [`RebalanceController`] promotes that standby to acting owner via
//! [`RingView::promote`](crate::ring::RingView::promote) — a pure
//! rotation of one replica group that bumps the
//! [`RingEpoch`](crate::ring::RingEpoch) by exactly one. LCA-KP is what
//! makes this safe: answers are stateless per query, so moving a shard
//! between replicas cannot change a single response byte — the only
//! state that ships is the write-ahead journal, and the only thing a
//! router can get wrong is *which epoch it consulted*.
//!
//! Every promotion is recorded as a [`RebalanceAudit`] carrying the
//! exact overload signal and the target's observed queue depth, so the
//! E18 simulator can verify **rebalance honesty** byte-for-byte: no
//! promotion without a hot source and a live, under-loaded target.
//!
//! # No ping-pong
//!
//! A naive controller promotes a hot shard away, watches the load
//! follow it, and promotes it straight back — forever. The controller
//! reuses the dual-hysteresis discipline of
//! [`AdaptiveAdmission`](crate::admission::AdaptiveAdmission): a
//! per-shard dwell time between consecutive promotions
//! ([`RebalanceConfig::hysteresis_ticks`]) *and* a hard cap of
//! [`RebalanceConfig::max_promotions_per_shard`] promotions inside any
//! [`RebalanceConfig::window_ticks`] window. Both gates are pure
//! functions of `(virtual tick, prior decisions)` — no clocks, no
//! randomness, no allocation on the decide path.

use crate::ring::{NodeId, RingEpoch};
use crate::slo::LoadSignal;
use std::fmt;

/// How faithfully the cluster's router tracks membership and ring
/// epochs. Everything but [`Faithful`](RebalanceDiscipline::Faithful) is
/// a deliberately planted bug a simulator exists to catch (and shrink):
/// [`StaleRing`](RebalanceDiscipline::StaleRing) for E16,
/// [`StaleEpoch`](RebalanceDiscipline::StaleEpoch) for E18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebalanceDiscipline {
    /// Route every arrival to the first alive, reachable replica in the
    /// current [`RingView`](crate::ring::RingView).
    #[default]
    Faithful,
    /// Bug: route against the boot view forever. Arrivals for shards
    /// the controller has since moved reach a node that no longer owns
    /// them and shed with the stale/current epoch pair on record.
    StaleEpoch,
    /// Bug: route to the boot primary only, never failing over. While
    /// that primary is dead or cut off, its shard's arrivals shed
    /// `NodeUnreachable` even when a live replica is reachable — the
    /// shed audit names that replica.
    StaleRing,
}

impl fmt::Display for RebalanceDiscipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebalanceDiscipline::Faithful => write!(f, "faithful"),
            RebalanceDiscipline::StaleEpoch => write!(f, "stale-epoch"),
            RebalanceDiscipline::StaleRing => write!(f, "stale-ring"),
        }
    }
}

/// Thresholds and pacing of the rebalance controller. The entry
/// thresholds mirror [`AdmissionConfig`](crate::admission::AdmissionConfig)
/// — a node must look *overloaded* to donate a shard — and the target
/// bound plays the exit role: a standby qualifies only while its queue
/// sits strictly below `target_queue_depth`. The gap between the two is
/// the hysteresis band; `hysteresis_ticks` and the
/// `max_promotions_per_shard`-per-`window_ticks` cap are the dwell
/// half of the discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// A source node qualifies as overloaded when its signal's queue
    /// depth reaches this.
    pub enter_queue_depth: u32,
    /// … or when its windowed deadline-miss rate reaches this permille.
    pub enter_miss_permille: u32,
    /// A target replica qualifies as under-loaded only while its queue
    /// depth sits strictly below this.
    pub target_queue_depth: u32,
    /// Minimum virtual ticks between two promotions of the same shard.
    pub hysteresis_ticks: u64,
    /// The sliding window the per-shard promotion cap is counted over.
    pub window_ticks: u64,
    /// Promotions allowed per shard inside any `window_ticks` window.
    pub max_promotions_per_shard: u32,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enter_queue_depth: 8,
            enter_miss_permille: 250,
            target_queue_depth: 3,
            hysteresis_ticks: 512,
            window_ticks: 4096,
            max_promotions_per_shard: 2,
        }
    }
}

/// One promotion the controller issued: which shard moves, from whom,
/// to whom, the epoch the ring advances *to*, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct RebalanceDecision {
    /// The shard whose acting owner changes.
    pub shard: usize,
    /// The overloaded node donating the shard.
    pub from: NodeId,
    /// The standby replica being promoted.
    pub to: NodeId,
    /// The ring epoch this promotion advances the view to.
    pub epoch: RingEpoch,
    /// The virtual tick the decision was made at.
    pub at_tick: u64,
}

impl fmt::Display for RebalanceDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "promote(shard={}, {} -> {}, {}, tick={})",
            self.shard, self.from, self.to, self.epoch, self.at_tick
        )
    }
}

/// The audit record of one promotion: the decision plus the exact
/// evidence it was made on, so the simulator can re-judge it — the
/// source signal really was hot, the target really was alive and
/// under-loaded — without trusting the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct RebalanceAudit {
    /// The promotion.
    pub decision: RebalanceDecision,
    /// The donating node's load signal at decision time.
    pub signal: LoadSignal,
    /// The promoted replica's queue depth at decision time.
    pub target_queue_depth: u32,
    /// Whether the promoted replica was alive *and* reachable at
    /// decision time (an honest controller never records `false`).
    pub target_alive: bool,
}

impl fmt::Display for RebalanceAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rebalance({}, source={}, target-queue={}, target-alive={})",
            self.decision, self.signal, self.target_queue_depth, self.target_alive
        )
    }
}

/// The deterministic rebalance policy gate. The runtime proposes a
/// promotion (hot node, its hottest shard, the least-loaded live
/// standby); the controller applies the thresholds and the
/// dual-hysteresis discipline and either issues a
/// [`RebalanceDecision`] or refuses. All per-shard history lives in
/// buffers sized at construction, so deciding never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceController {
    config: RebalanceConfig,
    /// Flat per-shard ring buffers of recent promotion ticks, stored as
    /// `tick + 1` so `0` means "never" (shard `s` owns the slots
    /// `s*K .. (s+1)*K` with `K = max_promotions_per_shard`).
    stamps: Vec<u64>,
    /// Next slot to overwrite, per shard.
    cursor: Vec<u32>,
}

impl RebalanceController {
    /// A controller for `shards` shards with no promotion history.
    #[must_use]
    pub fn new(config: RebalanceConfig, shards: usize) -> Self {
        let slots = config.max_promotions_per_shard.max(1) as usize;
        RebalanceController {
            config,
            stamps: vec![0; shards * slots],
            cursor: vec![0; shards],
        }
    }

    /// The configured thresholds.
    #[must_use]
    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// Whether `signal` is at or above the overload entry thresholds.
    #[must_use]
    pub fn hot(&self, signal: LoadSignal) -> bool {
        signal.queue_depth >= self.config.enter_queue_depth
            || signal.deadline_miss_permille >= self.config.enter_miss_permille
    }

    /// Judges one proposed promotion at virtual tick `now`: `shard`
    /// moves `from -> to`, justified by the donor's `signal` and the
    /// target's observed `target_queue_depth`; `epoch` is the ring's
    /// current version (the decision advances to `epoch.next()`).
    ///
    /// Refuses unless the donor is hot, the target is under-loaded and
    /// distinct from the donor, the shard has dwelt at least
    /// `hysteresis_ticks` since its last promotion, and fewer than
    /// `max_promotions_per_shard` promotions fall inside the trailing
    /// `window_ticks` window. On success the shard's history is
    /// stamped — the caller must apply the decision to its view.
    //
    // Takes the promotion's raw scalars individually: bundling them
    // into a struct would be an allocation-shaped wrapper on the hot
    // decision path for one call site.
    #[allow(clippy::too_many_arguments)]
    // lcakp-lint: hot-path-root
    pub fn decide(
        &mut self,
        now: u64,
        shard: usize,
        from: NodeId,
        to: NodeId,
        signal: LoadSignal,
        target_queue_depth: u32,
        epoch: RingEpoch,
    ) -> Option<RebalanceDecision> {
        if from == to || !self.hot(signal) || target_queue_depth >= self.config.target_queue_depth {
            return None;
        }
        let slots = self.config.max_promotions_per_shard.max(1) as usize;
        let base = shard * slots;
        // Dwell: the most recent promotion of this shard must be at
        // least the hysteresis window ago.
        let mut newest = 0u64;
        for &stamp in &self.stamps[base..base + slots] {
            newest = newest.max(stamp);
        }
        if newest != 0 && now.saturating_sub(newest - 1) < self.config.hysteresis_ticks {
            return None;
        }
        // Window cap: the slot about to be overwritten holds the K-th
        // most recent promotion; if it still falls inside the trailing
        // window, a K+1-th promotion would exceed the cap.
        let slot = base + self.cursor[shard] as usize;
        let oldest = self.stamps[slot];
        if oldest != 0 && now.saturating_sub(oldest - 1) < self.config.window_ticks {
            return None;
        }
        self.stamps[slot] = now + 1;
        self.cursor[shard] = (self.cursor[shard] + 1) % slots as u32;
        Some(RebalanceDecision {
            shard,
            from,
            to,
            epoch: epoch.next(),
            at_tick: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_signal() -> LoadSignal {
        LoadSignal {
            queue_depth: 9,
            shed_permille: 0,
            deadline_miss_permille: 300,
        }
    }

    fn calm_signal() -> LoadSignal {
        LoadSignal {
            queue_depth: 1,
            shed_permille: 0,
            deadline_miss_permille: 0,
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(RebalanceDiscipline::Faithful.to_string(), "faithful");
        assert_eq!(RebalanceDiscipline::StaleEpoch.to_string(), "stale-epoch");
        assert_eq!(RebalanceDiscipline::StaleRing.to_string(), "stale-ring");
        let decision = RebalanceDecision {
            shard: 5,
            from: NodeId(2),
            to: NodeId(0),
            epoch: RingEpoch(3),
            at_tick: 412,
        };
        assert_eq!(
            decision.to_string(),
            "promote(shard=5, node-2 -> node-0, epoch-3, tick=412)"
        );
        let audit = RebalanceAudit {
            decision,
            signal: LoadSignal {
                queue_depth: 9,
                shed_permille: 125,
                deadline_miss_permille: 300,
            },
            target_queue_depth: 1,
            target_alive: true,
        };
        assert_eq!(
            audit.to_string(),
            "rebalance(promote(shard=5, node-2 -> node-0, epoch-3, tick=412), \
             source=load(queue=9, shed=125/1000, miss=300/1000), target-queue=1, \
             target-alive=true)"
        );
    }

    #[test]
    fn refuses_calm_donors_busy_targets_and_self_moves() {
        let config = RebalanceConfig::default();
        let mut controller = RebalanceController::new(config, 4);
        let epoch = RingEpoch::BOOT;
        assert_eq!(
            controller.decide(1000, 0, NodeId(0), NodeId(1), calm_signal(), 0, epoch),
            None,
            "calm donor"
        );
        assert_eq!(
            controller.decide(
                1000,
                0,
                NodeId(0),
                NodeId(1),
                hot_signal(),
                config.target_queue_depth,
                epoch
            ),
            None,
            "busy target"
        );
        assert_eq!(
            controller.decide(1000, 0, NodeId(0), NodeId(0), hot_signal(), 0, epoch),
            None,
            "self move"
        );
    }

    #[test]
    fn dwell_blocks_back_to_back_promotions_of_one_shard() {
        let config = RebalanceConfig::default();
        let mut controller = RebalanceController::new(config, 4);
        let first = controller
            .decide(
                1000,
                2,
                NodeId(0),
                NodeId(1),
                hot_signal(),
                0,
                RingEpoch::BOOT,
            )
            .expect("first promotion fires");
        assert_eq!(first.epoch, RingEpoch(1));
        assert_eq!(first.at_tick, 1000);
        // Ping-pong attempt inside the dwell window: refused.
        assert_eq!(
            controller.decide(
                1000 + config.hysteresis_ticks - 1,
                2,
                NodeId(1),
                NodeId(0),
                hot_signal(),
                0,
                RingEpoch(1)
            ),
            None
        );
        // A different shard is not gated by shard 2's history.
        assert!(controller
            .decide(1001, 3, NodeId(0), NodeId(1), hot_signal(), 0, RingEpoch(1))
            .is_some());
        // After the dwell, shard 2 may move again.
        assert!(controller
            .decide(
                1000 + config.hysteresis_ticks,
                2,
                NodeId(1),
                NodeId(0),
                hot_signal(),
                0,
                RingEpoch(2)
            )
            .is_some());
    }

    #[test]
    fn window_caps_promotions_per_shard() {
        let config = RebalanceConfig {
            hysteresis_ticks: 10,
            window_ticks: 10_000,
            max_promotions_per_shard: 2,
            ..RebalanceConfig::default()
        };
        let mut controller = RebalanceController::new(config, 1);
        let mut epoch = RingEpoch::BOOT;
        for fire_at in [100u64, 200] {
            let decision = controller
                .decide(fire_at, 0, NodeId(0), NodeId(1), hot_signal(), 0, epoch)
                .expect("within the cap");
            epoch = decision.epoch;
        }
        // Third promotion inside the window: over the cap, refused even
        // though the dwell has long passed.
        assert_eq!(
            controller.decide(5000, 0, NodeId(1), NodeId(0), hot_signal(), 0, epoch),
            None
        );
        // Once the oldest promotion ages out of the window, the shard
        // may move again.
        assert!(controller
            .decide(
                100 + config.window_ticks,
                0,
                NodeId(1),
                NodeId(0),
                hot_signal(),
                0,
                epoch
            )
            .is_some());
    }
}
