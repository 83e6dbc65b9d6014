//! The safety and liveness invariants the simulator checks.
//!
//! Every check compares the faulted run against its *crash-free twin* —
//! the same world and the same schedule minus crash/restart events — or
//! inspects the faulted run's write-ahead journals directly:
//!
//! * **crash transparency** — every outcome equals the twin's, except
//!   that a query owned by an unrevived dead worker may shed as
//!   [`ShedReason::WorkerCrashed`];
//! * **liveness** — every submitted query terminates in exactly one
//!   outcome (answer or typed shed), none silently dropped;
//! * **no conflicting double-serve** — a journal may record the same
//!   index twice (a torn snapshot forces a re-execution), but every
//!   record for one index must be byte-identical;
//! * **write-ahead discipline** — an answer the runtime acknowledged
//!   must appear in its worker's journal;
//! * **journal integrity** — journals decode cleanly (recovery
//!   truncates torn tails; only an unrevived final crash may leave one)
//!   and snapshots are monotone in `(tick, next_position)`.
//!
//! [`check_cluster_run`] covers the E16 runs of the arrival engine,
//! with no twin: exactly one outcome per arrival, a shed while a live
//! replica was reachable is a routing bug, and every node's journal
//! decodes, never conflicts, and holds every answer the node
//! acknowledged (but the one a crash tore off its tail). Replicas must
//! agree byte-for-byte on every answer, in E16 and E18 alike.
//!
//! [`check_rebalance_run`] covers the E18 traffic-driven cluster: every
//! promotion must be justified by its own audit trail (rebalance
//! honesty), bounded per shard per window (no ping-pong), and strictly
//! epoch-increasing; stale-epoch sheds and epoch-losing recoveries are
//! always violations.

use lcakp_service::{
    AdmissionConfig, BatchReport, ClusterTrafficReport, DecodeMode, Disposition, Journal,
    JournalRecord, QueryOutcome, RebalanceConfig, RecoveryError, RingEpoch, RoutedOutcome,
    ShedReason, TrafficDisposition,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One invariant violation, addressable enough to debug from the
/// rendered repro alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The faulted outcome differs from the crash-free twin's (and is
    /// not a `WorkerCrashed` shed of a dead worker's query).
    OutcomeDiverged {
        /// Batch position of the diverging query.
        index: usize,
    },
    /// A submitted query has no outcome at all — silently dropped.
    MissingOutcome {
        /// Batch position of the dropped query.
        index: usize,
    },
    /// A batch position appears in more than one outcome.
    DuplicateOutcome {
        /// The duplicated batch position.
        index: usize,
    },
    /// An acknowledged answer is absent from its server's journal.
    UnjournaledAnswer {
        /// The worker (E15) or node (E16) that served the answer.
        worker: usize,
        /// Batch position of the unjournaled answer.
        index: usize,
    },
    /// The same index was journaled twice with different bytes.
    ConflictingJournalRecords {
        /// The worker (E15) or node (E16) whose journal conflicts.
        worker: usize,
        /// The conflicting batch position.
        index: usize,
    },
    /// Snapshot ticks or positions went backwards within one journal.
    JournalNotMonotone {
        /// The worker whose journal regressed.
        worker: usize,
    },
    /// A journal failed to decode even in recovery mode.
    JournalCorrupt {
        /// The worker (E15) or node (E16) whose journal is unreadable.
        worker: usize,
        /// The decoder's typed error.
        error: RecoveryError,
    },
    /// Replica byte-identity (E16, E18): an answer the cluster
    /// acknowledged for a (possibly failed-over or migrated) shard
    /// diverged from the shard's standalone replay of the same admitted
    /// subsequence.
    ReplicaAnswerMismatch {
        /// The shard whose answers diverged.
        shard: usize,
        /// Trace position of the first diverging answer.
        index: usize,
    },
    /// A query was shed for a cluster-level reason while the router had
    /// a live, reachable replica it should have promoted instead.
    ShedWithLiveReplica {
        /// The shard that shed.
        shard: usize,
        /// Batch position of the first wrongly shed query.
        index: usize,
    },
    /// Admission honesty (E17): an `Overload` shed whose recorded load
    /// signal was below every threshold that could have justified it.
    DishonestShed {
        /// Trace position of the dishonestly shed arrival.
        index: usize,
    },
    /// Hysteresis (E17): one shard's admission controller flipped state
    /// twice within the hysteresis window — the signature of the
    /// planted non-hysteretic controller.
    AdmissionFlap {
        /// The flapping shard.
        shard: usize,
        /// Ticks between the two flips (below the hysteresis window).
        gap_ticks: u64,
    },
    /// Liveness (E17): the offered load sat below capacity (the
    /// admission-free twin never queued past the exit threshold nor
    /// missed a deadline), yet the controller shed with `Overload`.
    OverloadShedUnderCapacity {
        /// Trace position of the needlessly shed arrival.
        index: usize,
    },
    /// Rebalance honesty (E18): a promotion whose recorded source
    /// signal was calm, or whose target was dead or already at the busy
    /// bound — the controller may never cite a justification the audit
    /// trail contradicts.
    UnjustifiedPromotion {
        /// The wrongly promoted shard.
        shard: usize,
        /// The promotion's virtual tick.
        at_tick: u64,
    },
    /// No ping-pong (E18): one shard was promoted more often inside a
    /// rebalance window than the dual-hysteresis bound allows.
    PromotionPingPong {
        /// The oscillating shard.
        shard: usize,
        /// Promotions observed inside one window.
        promotions: u32,
    },
    /// Ring-epoch monotonicity (E18): a promotion failed to strictly
    /// increase the ring epoch.
    EpochNotMonotone {
        /// The offending epoch value.
        epoch: u64,
    },
    /// Stale-epoch routing (E18): an arrival shed with
    /// [`ShedReason::StaleRingEpoch`] — the signature of the planted
    /// stale-router bug (faithful routing never sheds on an epoch).
    StaleEpochShed {
        /// Trace position of the stale-shed arrival.
        index: usize,
    },
    /// Epoch replay (E18): a crashed node's surviving journals replayed
    /// an older ring epoch than the cluster had reached at crash time.
    EpochReplayMismatch {
        /// The node whose recovery lost the epoch.
        node: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OutcomeDiverged { index } => {
                write!(f, "outcome-diverged(index={index})")
            }
            Violation::MissingOutcome { index } => {
                write!(f, "missing-outcome(index={index})")
            }
            Violation::DuplicateOutcome { index } => {
                write!(f, "duplicate-outcome(index={index})")
            }
            Violation::UnjournaledAnswer { worker, index } => {
                write!(f, "unjournaled-answer(worker={worker}, index={index})")
            }
            Violation::ConflictingJournalRecords { worker, index } => {
                write!(
                    f,
                    "conflicting-journal-records(worker={worker}, index={index})"
                )
            }
            Violation::JournalNotMonotone { worker } => {
                write!(f, "journal-not-monotone(worker={worker})")
            }
            Violation::JournalCorrupt { worker, error } => {
                write!(f, "journal-corrupt(worker={worker}, error={error})")
            }
            Violation::ReplicaAnswerMismatch { shard, index } => {
                write!(f, "replica-answer-mismatch(shard={shard}, index={index})")
            }
            Violation::ShedWithLiveReplica { shard, index } => {
                write!(f, "shed-with-live-replica(shard={shard}, index={index})")
            }
            Violation::DishonestShed { index } => {
                write!(f, "dishonest-shed(index={index})")
            }
            Violation::AdmissionFlap { shard, gap_ticks } => {
                write!(f, "admission-flap(shard={shard}, gap={gap_ticks})")
            }
            Violation::OverloadShedUnderCapacity { index } => {
                write!(f, "overload-shed-under-capacity(index={index})")
            }
            Violation::UnjustifiedPromotion { shard, at_tick } => {
                write!(f, "unjustified-promotion(shard={shard}, tick={at_tick})")
            }
            Violation::PromotionPingPong { shard, promotions } => {
                write!(
                    f,
                    "promotion-ping-pong(shard={shard}, promotions={promotions})"
                )
            }
            Violation::EpochNotMonotone { epoch } => {
                write!(f, "epoch-not-monotone(epoch={epoch})")
            }
            Violation::StaleEpochShed { index } => {
                write!(f, "stale-epoch-shed(index={index})")
            }
            Violation::EpochReplayMismatch { node } => {
                write!(f, "epoch-replay-mismatch(node={node})")
            }
        }
    }
}

/// Checks every invariant of one faulted run against its crash-free
/// twin. `n` is the submitted batch size. Violations come back in a
/// deterministic order (coverage, divergence, then per-worker journal
/// checks).
pub fn check_run(twin: &BatchReport, faulted: &BatchReport, n: usize) -> Vec<Violation> {
    let mut violations =
        coverage_violations(faulted.outcomes.iter().map(|outcome| outcome.index), n);

    // Crash transparency: outcomes equal the twin's, WorkerCrashed
    // sheds of dead workers excepted.
    violations.extend(divergence_violations(
        &twin.outcomes,
        &faulted.outcomes,
        |disposition| {
            matches!(
                disposition,
                Disposition::Shed(ShedReason::WorkerCrashed { .. })
            )
        },
    ));

    // Per-worker journal checks on the faulted run: acknowledged
    // answers must be journaled by the worker that served them.
    for trace in &faulted.workers {
        let served = faulted.outcomes.iter().filter(|outcome| {
            outcome
                .disposition
                .answered()
                .is_some_and(|answered| answered.worker == trace.worker)
        });
        violations.extend(journal_violations(
            trace.worker,
            &trace.journal,
            served.map(|outcome| outcome.index),
        ));
    }

    violations
}

/// Liveness: exactly one outcome per submitted index in `0..n` — a
/// fault may shed a query, never silently drop it. `indices` are the
/// outcomes' indices in outcome order.
fn coverage_violations(indices: impl Iterator<Item = usize>, n: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut seen = BTreeSet::new();
    for index in indices {
        if !seen.insert(index) {
            violations.push(Violation::DuplicateOutcome { index });
        }
    }
    for index in 0..n {
        if !seen.contains(&index) {
            violations.push(Violation::MissingOutcome { index });
        }
    }
    violations
}

/// Transparency: every faulted outcome equals the twin's, except the
/// sheds `tolerated` sanctions.
fn divergence_violations(
    twin: &[QueryOutcome],
    faulted: &[QueryOutcome],
    tolerated: impl Fn(&Disposition) -> bool,
) -> Vec<Violation> {
    let twin_by_index: BTreeMap<usize, &Disposition> = twin
        .iter()
        .map(|outcome| (outcome.index, &outcome.disposition))
        .collect();
    faulted
        .iter()
        .filter(|outcome| {
            !tolerated(&outcome.disposition)
                && twin_by_index.get(&outcome.index) != Some(&&outcome.disposition)
        })
        .map(|outcome| Violation::OutcomeDiverged {
            index: outcome.index,
        })
        .collect()
}

/// The journal-discipline checks for one write-ahead journal (`worker`
/// is its owner — a pool worker in E15, a node in E16): decodes
/// cleanly, snapshots are monotone, records per index are
/// byte-identical, and every index in `acknowledged` is journaled.
fn journal_violations(
    worker: usize,
    journal: &Journal,
    acknowledged: impl Iterator<Item = usize>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let decoded = match journal.decode(DecodeMode::Recover) {
        Ok(decoded) => decoded,
        Err(error) => {
            violations.push(Violation::JournalCorrupt { worker, error });
            return violations;
        }
    };
    let mut disposed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut last_snapshot: Option<(u64, u64)> = None;
    for record in &decoded.records {
        match record {
            JournalRecord::Snapshot(snapshot) => {
                let key = (snapshot.tick, snapshot.next_position);
                if last_snapshot.is_some_and(|previous| {
                    snapshot.tick < previous.0 || snapshot.next_position < previous.1
                }) {
                    violations.push(Violation::JournalNotMonotone { worker });
                }
                last_snapshot = Some(key);
            }
            JournalRecord::Answered { index, .. } | JournalRecord::Shed { index, .. } => {
                let encoded = record.encode();
                let first = disposed.entry(*index).or_insert_with(|| encoded.clone());
                if *first != encoded {
                    violations.push(Violation::ConflictingJournalRecords {
                        worker,
                        index: *index as usize,
                    });
                }
            }
            JournalRecord::Admitted { .. } | JournalRecord::RingChange { .. } => {}
        }
    }
    // Write-ahead discipline: acknowledged answers must be journaled.
    for index in acknowledged {
        if !disposed.contains_key(&(index as u64)) {
            violations.push(Violation::UnjournaledAnswer { worker, index });
        }
    }
    violations
}

/// Checks the E16 cluster invariants of one faulted run of the arrival
/// engine. `arrivals` is the offered trace length. The checks need no
/// twin — every one reads the run's own records:
///
/// * **liveness** — every arrival terminates in exactly one outcome;
/// * **routing honesty** — a shed whose audit names a reachable replica
///   refused work that replica could have served:
///   [`Violation::ShedWithLiveReplica`] at the shard's first such shed,
///   the planted stale-ring bug's signature;
/// * **journal discipline** — every node's journal decodes under
///   recovery, never records one index twice with different bytes, and
///   holds every answer the node acknowledged, except the last arrival
///   the node took before each of its crashes (a crash may tear that
///   append off). Node journals hold no snapshots, so there is no
///   monotonicity to check.
///
/// Replica byte-identity needs the world's oracle to replay shards
/// standalone, so it lives in [`ClusterWorld`](crate::ClusterWorld).
pub fn check_cluster_run(faulted: &ClusterTrafficReport, arrivals: usize) -> Vec<Violation> {
    let mut violations = coverage_violations(
        faulted.outcomes.iter().map(|routed| routed.outcome.index),
        arrivals,
    );

    // Routing honesty. Every arrival no replica took has exactly one
    // audit, in order.
    let routing_sheds = faulted
        .outcomes
        .iter()
        .filter(|routed| routed.node.is_none());
    let mut flagged = BTreeSet::new();
    for (audit, routed) in faulted.shed_audits.iter().zip(routing_sheds) {
        if !audit.reachable_replicas.is_empty() && flagged.insert(audit.shard) {
            violations.push(Violation::ShedWithLiveReplica {
                shard: audit.shard,
                index: routed.outcome.index,
            });
        }
    }

    // Journal discipline per node.
    for node in &faulted.nodes {
        let routed_here = |routed: &&RoutedOutcome| routed.node == Some(node.node);
        let torn: BTreeSet<usize> = faulted
            .epoch_replays
            .iter()
            .filter(|replay| replay.node == node.node)
            .filter_map(|replay| {
                faulted
                    .outcomes
                    .iter()
                    .filter(routed_here)
                    .take_while(|routed| routed.outcome.at_tick < replay.at_tick)
                    .last()
            })
            .map(|routed| routed.outcome.index)
            .collect();
        let acknowledged = faulted
            .outcomes
            .iter()
            .filter(routed_here)
            .filter(|routed| {
                matches!(
                    routed.outcome.disposition,
                    TrafficDisposition::Answered { .. }
                ) && !torn.contains(&routed.outcome.index)
            })
            .map(|routed| routed.outcome.index);
        violations.extend(journal_violations(node.node.0, &node.journal, acknowledged));
    }

    violations
}

/// Checks the E17 open-loop invariants of one controlled run against
/// its admission-free twin (same trace, unbounded queue, nothing shed):
///
/// * **admission honesty** — every [`ShedReason::Overload`] carries a
///   load signal at or above an exit threshold (or the overloaded queue
///   bound): the controller may never blame a calm signal;
/// * **hysteresis** — no shard's controller flips state twice within
///   the configured hysteresis window;
/// * **liveness** — if the twin proves the offered load sat below
///   capacity (it never queued to the exit threshold and never missed a
///   deadline), the controller must not have shed a single arrival with
///   `Overload`.
pub fn check_slo_run(
    twin: &ClusterTrafficReport,
    controlled: &ClusterTrafficReport,
    admission: &AdmissionConfig,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Admission honesty.
    for outcome in controlled.outcomes.iter().map(|routed| &routed.outcome) {
        let TrafficDisposition::Shed(ShedReason::Overload { signal }) = outcome.disposition else {
            continue;
        };
        let justified = signal.queue_depth >= admission.exit_queue_depth
            || signal.deadline_miss_permille >= admission.exit_miss_permille
            || signal.queue_depth >= admission.queue_depth_overloaded;
        if !justified {
            violations.push(Violation::DishonestShed {
                index: outcome.index,
            });
        }
    }

    // Hysteresis: consecutive transitions per shard must be at least
    // the hysteresis window apart. Each shard runs alone on its own
    // node, so a node's flips are its shard's.
    let shards = controlled
        .transitions
        .iter()
        .map(|transition| transition.node.0 + 1)
        .max()
        .unwrap_or(0);
    for shard in 0..shards {
        let mut last: Option<u64> = None;
        for transition in controlled
            .transitions
            .iter()
            .filter(|transition| transition.node.0 == shard)
        {
            if let Some(previous) = last {
                let gap = transition.at_tick.saturating_sub(previous);
                if gap < admission.hysteresis_ticks {
                    violations.push(Violation::AdmissionFlap {
                        shard,
                        gap_ticks: gap,
                    });
                }
            }
            last = Some(transition.at_tick);
        }
    }

    // Liveness: under-capacity offered load must shed nothing.
    let under_capacity =
        twin.slo.deadline_missed == 0 && twin.max_queue_depth() < admission.exit_queue_depth;
    if under_capacity {
        if let Some(routed) = controlled.outcomes.iter().find(|routed| {
            matches!(
                routed.outcome.disposition,
                TrafficDisposition::Shed(ShedReason::Overload { .. })
            )
        }) {
            violations.push(Violation::OverloadShedUnderCapacity {
                index: routed.outcome.index,
            });
        }
    }

    violations
}

/// Checks the E18 rebalance invariants of one traffic-driven cluster
/// run. `arrivals` is the offered trace length. The checks need no
/// twin — every one reads the run's own audit trail:
///
/// * **liveness** — every arrival terminates in exactly one outcome;
/// * **rebalance honesty** — every promotion's audit cites a source
///   signal at or above an enter threshold and a live target under the
///   busy bound;
/// * **no ping-pong** — no shard is promoted more than
///   `max_promotions_per_shard` times inside one rebalance window;
/// * **epoch monotonicity** — promotion epochs strictly increase from
///   the boot epoch, and the report's final epoch is the last one;
/// * **no stale sheds** — an arrival shed on a ring-epoch mismatch is
///   always a routing bug (the planted stale-router's signature);
/// * **epoch replay** — a crashed node's journals must replay the
///   epoch the cluster had reached.
///
/// Migration byte-identity needs the world's oracle to replay shards
/// standalone, so it lives in
/// [`RebalanceWorld`](crate::RebalanceWorld), not here.
pub fn check_rebalance_run(
    faulted: &ClusterTrafficReport,
    rebalance: &RebalanceConfig,
    arrivals: usize,
) -> Vec<Violation> {
    let mut violations = coverage_violations(
        faulted.outcomes.iter().map(|routed| routed.outcome.index),
        arrivals,
    );

    // Rebalance honesty: the audit trail must justify every promotion.
    for audit in &faulted.rebalance_audits {
        let hot = audit.signal.queue_depth >= rebalance.enter_queue_depth
            || audit.signal.deadline_miss_permille >= rebalance.enter_miss_permille;
        let target_ok =
            audit.target_alive && audit.target_queue_depth < rebalance.target_queue_depth;
        if !hot || !target_ok {
            violations.push(Violation::UnjustifiedPromotion {
                shard: audit.decision.shard,
                at_tick: audit.decision.at_tick,
            });
        }
    }

    // No ping-pong: inside any rebalance window, a shard sees at most
    // `max_promotions_per_shard` promotions.
    let bound = rebalance.max_promotions_per_shard as usize;
    let shard_count = faulted.shards.len();
    for shard in 0..shard_count {
        let ticks: Vec<u64> = faulted
            .rebalance_audits
            .iter()
            .filter(|audit| audit.decision.shard == shard)
            .map(|audit| audit.decision.at_tick)
            .collect();
        if (bound..ticks.len())
            .any(|position| ticks[position] - ticks[position - bound] < rebalance.window_ticks)
        {
            violations.push(Violation::PromotionPingPong {
                shard,
                promotions: u32::try_from(bound + 1).unwrap_or(u32::MAX),
            });
        }
    }

    // Epoch monotonicity: strictly increasing from boot, and the final
    // epoch is the last promotion's (or boot if none fired).
    let mut last = RingEpoch::BOOT;
    for audit in &faulted.rebalance_audits {
        if audit.decision.epoch <= last {
            violations.push(Violation::EpochNotMonotone {
                epoch: audit.decision.epoch.get(),
            });
        }
        last = last.max(audit.decision.epoch);
    }
    if faulted.final_epoch != last {
        violations.push(Violation::EpochNotMonotone {
            epoch: faulted.final_epoch.get(),
        });
    }

    // No stale sheds: refusing work over a ring-epoch mismatch is never
    // legitimate — any replica can serve any shard byte-identically.
    for routed in &faulted.outcomes {
        if matches!(
            routed.outcome.disposition,
            TrafficDisposition::Shed(ShedReason::StaleRingEpoch { .. })
        ) {
            violations.push(Violation::StaleEpochShed {
                index: routed.outcome.index,
            });
        }
    }

    // Epoch replay: recovery must reconstruct the reached epoch from
    // the synchronously replicated journals.
    for replay in &faulted.epoch_replays {
        if replay.replayed_epoch < replay.epoch_at_crash {
            violations.push(Violation::EpochReplayMismatch {
                node: replay.node.0,
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render_with_kebab_names_and_addresses() {
        assert_eq!(
            Violation::OutcomeDiverged { index: 4 }.to_string(),
            "outcome-diverged(index=4)"
        );
        assert_eq!(
            Violation::UnjournaledAnswer {
                worker: 1,
                index: 9
            }
            .to_string(),
            "unjournaled-answer(worker=1, index=9)"
        );
        assert_eq!(
            Violation::JournalCorrupt {
                worker: 2,
                error: RecoveryError::MissingSnapshot,
            }
            .to_string(),
            "journal-corrupt(worker=2, error=journal holds no complete worker snapshot)"
        );
        assert_eq!(
            Violation::DishonestShed { index: 3 }.to_string(),
            "dishonest-shed(index=3)"
        );
        assert_eq!(
            Violation::AdmissionFlap {
                shard: 1,
                gap_ticks: 40
            }
            .to_string(),
            "admission-flap(shard=1, gap=40)"
        );
        assert_eq!(
            Violation::OverloadShedUnderCapacity { index: 7 }.to_string(),
            "overload-shed-under-capacity(index=7)"
        );
        assert_eq!(
            Violation::UnjustifiedPromotion {
                shard: 2,
                at_tick: 99
            }
            .to_string(),
            "unjustified-promotion(shard=2, tick=99)"
        );
        assert_eq!(
            Violation::PromotionPingPong {
                shard: 0,
                promotions: 3
            }
            .to_string(),
            "promotion-ping-pong(shard=0, promotions=3)"
        );
        assert_eq!(
            Violation::EpochNotMonotone { epoch: 4 }.to_string(),
            "epoch-not-monotone(epoch=4)"
        );
        assert_eq!(
            Violation::StaleEpochShed { index: 8 }.to_string(),
            "stale-epoch-shed(index=8)"
        );
        assert_eq!(
            Violation::ReplicaAnswerMismatch { shard: 1, index: 5 }.to_string(),
            "replica-answer-mismatch(shard=1, index=5)"
        );
        assert_eq!(
            Violation::EpochReplayMismatch { node: 2 }.to_string(),
            "epoch-replay-mismatch(node=2)"
        );
    }
}
