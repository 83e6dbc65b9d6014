//! Property tests for the crash–recovery layer (the E15 satellite
//! invariants):
//!
//! * snapshot encoding is canonical — `encode → decode → encode`
//!   round-trips to identical bytes for arbitrary worker snapshots,
//!   breaker event logs included;
//! * a crash at an arbitrary virtual tick, tearing an arbitrary number
//!   of bytes off the in-flight journal write, followed by a restart,
//!   is byte-invisible: the batch report equals the fault-free run's;
//! * a node crash at an arbitrary tick of a hot-shard trace that is
//!   actively *rebalancing* never perturbs the answer bytes: every
//!   acknowledged answer equals the shard's standalone replay of the
//!   same admitted subsequence, and the surviving journals replay the
//!   ring epoch the cluster had reached (the E18 satellite).

use lcakp_core::LcaKp;
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::ItemId;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_service::{
    decode, generate_trace, replay_shard_traffic, serve_batch, serve_cluster_traffic,
    AdmissionConfig, AdmissionDiscipline, Arrival, BreakerEvent, BreakerSnapshot, BreakerState,
    ChaosPlan, ClusterTrafficConfig, DecodeMode, JournalRecord, NodeEvent, NodeId, RebalanceConfig,
    RebalanceDiscipline, RingEpoch, ServiceConfig, TrafficConfig, TrafficDisposition, TrafficShape,
    TransitionCause, WorkerEvent, WorkerSnapshot,
};
use lcakp_workloads::{Family, WorkloadSpec};
use proptest::prelude::*;

fn breaker_state() -> impl Strategy<Value = BreakerState> {
    (0u8..3).prop_map(|tag| match tag {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        _ => BreakerState::HalfOpen,
    })
}

fn transition_cause() -> impl Strategy<Value = TransitionCause> {
    (0u8..4).prop_map(|tag| match tag {
        0 => TransitionCause::FailureThreshold,
        1 => TransitionCause::CooldownElapsed,
        2 => TransitionCause::ProbesSucceeded,
        _ => TransitionCause::ProbeFailed,
    })
}

fn breaker_event() -> impl Strategy<Value = BreakerEvent> {
    (
        0u64..=u64::MAX,
        breaker_state(),
        breaker_state(),
        transition_cause(),
    )
        .prop_map(|(at_tick, from, to, cause)| BreakerEvent {
            at_tick,
            from,
            to,
            cause,
        })
}

fn breaker_snapshot() -> impl Strategy<Value = BreakerSnapshot> {
    (
        breaker_state(),
        (0u32..=u32::MAX, 0u64..=u64::MAX),
        (0u32..=u32::MAX, 0u32..=u32::MAX),
        proptest::collection::vec(breaker_event(), 0..8),
    )
        .prop_map(
            |(
                state,
                (consecutive_failures, opened_at),
                (probes_issued, probes_succeeded),
                events,
            )| {
                BreakerSnapshot {
                    state,
                    consecutive_failures,
                    opened_at,
                    probes_issued,
                    probes_succeeded,
                    events,
                }
            },
        )
}

fn worker_snapshot() -> impl Strategy<Value = WorkerSnapshot> {
    (
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        breaker_snapshot(),
    )
        .prop_map(
            |(worker, tick, budget_spent, next_position, breaker)| WorkerSnapshot {
                worker,
                tick,
                budget_spent,
                next_position,
                breaker,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn snapshot_encoding_is_canonical(snapshot in worker_snapshot()) {
        let record = JournalRecord::Snapshot(snapshot);
        let first = record.encode();
        let decoded = decode(&first, DecodeMode::Strict)
            .map_err(|error| TestCaseError::fail(format!("decode failed: {error}")))?;
        prop_assert_eq!(decoded.torn_bytes, 0);
        prop_assert_eq!(decoded.records.len(), 1);
        let second = decoded.records[0].encode();
        prop_assert_eq!(first, second, "re-encode must reproduce the bytes");
        prop_assert_eq!(&decoded.records[0], &record);
    }
}

proptest! {
    // Each case runs the full service twice (reference + crashed), so
    // keep the case count modest; the tick/torn space is what matters.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crash_at_an_arbitrary_tick_recovers_byte_identically(
        tick_permille in 0u64..1000,
        torn_keep in (0u8..2, 0usize..48).prop_map(|(some, keep)| (some == 1).then_some(keep)),
        crashed_worker in 0usize..2,
    ) {
        let norm = WorkloadSpec::new(Family::SmallDominated, 16, 23)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = LcaKp::new(Epsilon::new(1, 3).unwrap())
            .unwrap()
            .with_budget(SampleBudget::Calibrated { factor: 0.01 });
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let batch: Vec<ItemId> = (0..16).map(ItemId).collect();
        let run = |plan: Option<&ChaosPlan>| {
            serve_batch(
                &lca,
                &oracle,
                &Seed::from_entropy_u64(9),
                &Seed::from_entropy_u64(10),
                &batch,
                &config,
                plan,
            )
            .unwrap()
        };
        let reference = run(None);
        let end_tick = reference.workers[crashed_worker].end_tick.max(1);
        let crash_tick = end_tick * tick_permille / 1000;
        let plan = ChaosPlan {
            worker_events: vec![
                WorkerEvent::Crash {
                    worker: crashed_worker,
                    at_tick: crash_tick,
                    torn_keep,
                },
                WorkerEvent::Restart {
                    worker: crashed_worker,
                    at_tick: crash_tick,
                },
            ],
            ..ChaosPlan::none()
        };
        let crashed = run(Some(&plan));
        prop_assert_eq!(
            &reference.outcomes,
            &crashed.outcomes,
            "crash+restart must be byte-invisible (tick {}, torn {:?})",
            crash_tick,
            torn_keep
        );
        for (trace, reference_trace) in crashed.workers.iter().zip(&reference.workers) {
            prop_assert_eq!(trace.end_tick, reference_trace.end_tick);
            prop_assert_eq!(trace.accesses_used, reference_trace.accesses_used);
            prop_assert_eq!(&trace.breaker_events, &reference_trace.breaker_events);
            // The surviving journal must decode cleanly end to end.
            let decoded = trace
                .journal
                .decode(DecodeMode::Recover)
                .map_err(|error| TestCaseError::fail(format!("journal corrupt: {error}")))?;
            prop_assert_eq!(decoded.torn_bytes, 0, "recovery must truncate torn tails");
        }
    }
}

/// The fixed hot-shard world of the crash-during-rebalance property:
/// back-to-back arrivals concentrated on shard 0 heat the acting owner
/// immediately, and the eager rebalance thresholds promote a standby
/// within the first few arrivals — so an arbitrary crash tick lands
/// before, during, or after an active migration.
fn rebalancing_world() -> (
    lcakp_knapsack::NormalizedInstance,
    LcaKp,
    ClusterTrafficConfig,
    Vec<Arrival>,
) {
    let norm = WorkloadSpec::new(Family::SmallDominated, 16, 31)
        .generate_normalized()
        .unwrap();
    let lca = LcaKp::new(Epsilon::new(1, 3).unwrap())
        .unwrap()
        .with_budget(SampleBudget::Calibrated { factor: 0.01 });
    let config = ClusterTrafficConfig {
        nodes: 3,
        replication: 2,
        shards: 4,
        vnodes: 64,
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        admission: AdmissionConfig::default(),
        discipline: Some(AdmissionDiscipline::Faithful),
        rebalance: Some(RebalanceConfig {
            enter_queue_depth: 2,
            enter_miss_permille: 1000,
            target_queue_depth: 8,
            hysteresis_ticks: 4,
            window_ticks: 64,
            max_promotions_per_shard: 2,
        }),
        routing: RebalanceDiscipline::Faithful,
    };
    let trace = generate_trace(
        &Seed::from_entropy_u64(11),
        &TrafficConfig {
            shape: TrafficShape::HotShard,
            arrivals: 40,
            mean_gap_ticks: 1,
            universe: 16,
            shards: config.shards,
        },
    );
    (norm, lca, config, trace)
}

#[test]
fn the_rebalancing_world_actually_promotes() {
    // The proptest below crashes a node at an arbitrary tick of this
    // world; pin separately that the fault-free run promotes, so the
    // property genuinely exercises crash-during-rebalance and not a
    // frozen ring.
    let (norm, lca, config, trace) = rebalancing_world();
    let oracle = InstanceOracle::new(&norm);
    let report = serve_cluster_traffic(
        &lca,
        &oracle,
        &Seed::from_entropy_u64(9),
        &Seed::from_entropy_u64(10),
        &trace,
        &config,
        &[],
    )
    .unwrap();
    assert!(
        report.promotion_count() > 0,
        "the hot-shard trace must push the controller into promoting"
    );
    assert!(report.final_epoch > RingEpoch::BOOT);
}

proptest! {
    // Each case serves the full hot-shard trace plus one standalone
    // replay per shard, so keep the case count modest; the crash
    // tick/torn/node space is what matters.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn crash_during_rebalance_keeps_answers_byte_identical_to_the_replay(
        tick_permille in 0u64..1000,
        torn_keep in (0u8..2, 0usize..64).prop_map(|(some, keep)| (some == 1).then_some(keep)),
        crashed_node in 0usize..3,
    ) {
        let (norm, lca, config, trace) = rebalancing_world();
        let oracle = InstanceOracle::new(&norm);
        let shared_seed = Seed::from_entropy_u64(9);
        let service_root = Seed::from_entropy_u64(10);
        let horizon = trace.last().map_or(1, |arrival| arrival.at_tick).max(1);
        let faulted = serve_cluster_traffic(
            &lca,
            &oracle,
            &shared_seed,
            &service_root,
            &trace,
            &config,
            &[NodeEvent::NodeCrash {
                node: NodeId(crashed_node),
                at_tick: horizon * tick_permille / 1000,
                torn_keep,
            }],
        )
        .unwrap();
        // Migration byte-identity: whatever mix of promotions,
        // failovers, and the crash this tick produced, every
        // acknowledged answer must equal the shard's standalone replay
        // of the same admitted subsequence.
        for shard in 0..config.shards {
            let admitted: Vec<(usize, Arrival)> = faulted
                .outcomes
                .iter()
                .filter(|routed| {
                    routed.outcome.shard == shard
                        && matches!(
                            routed.outcome.disposition,
                            TrafficDisposition::Answered { .. }
                        )
                })
                .map(|routed| (routed.outcome.index, trace[routed.outcome.index]))
                .collect();
            let replayed = replay_shard_traffic(
                &lca,
                &oracle,
                &shared_seed,
                &service_root,
                &admitted,
                shard,
                &config.service,
            )
            .map_err(|error| TestCaseError::fail(format!("replay failed: {error}")))?;
            let mut position = 0usize;
            for routed in faulted.outcomes.iter().filter(|r| r.outcome.shard == shard) {
                if let TrafficDisposition::Answered { answer, .. } = routed.outcome.disposition {
                    prop_assert_eq!(
                        replayed.get(position),
                        Some(&(routed.outcome.index, answer)),
                        "shard {} arrival {} diverged from the standalone replay \
                         (crash node {}, permille {}, torn {:?})",
                        shard,
                        routed.outcome.index,
                        crashed_node,
                        tick_permille,
                        torn_keep
                    );
                    position += 1;
                }
            }
            prop_assert_eq!(replayed.len(), position, "replay answered extra arrivals");
        }
        // Epoch replay: the surviving journals must replay at least the
        // epoch the cluster had reached at crash time, and the audit
        // trail's epochs must stay strictly increasing up to the final.
        for replay in &faulted.epoch_replays {
            prop_assert!(
                replay.replayed_epoch >= replay.epoch_at_crash,
                "{} recovered on {} but the cluster had reached {}",
                replay.node,
                replay.replayed_epoch,
                replay.epoch_at_crash
            );
        }
        let mut last = RingEpoch::BOOT;
        for audit in &faulted.rebalance_audits {
            prop_assert!(audit.decision.epoch > last);
            last = audit.decision.epoch;
        }
        prop_assert_eq!(faulted.final_epoch, last);
    }
}
