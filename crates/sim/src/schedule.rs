//! Seed-derived fault schedules.
//!
//! A schedule is an ordered list of [`SimEvent`]s — the *entire*
//! difference between one simulated world and another. Schedules are a
//! pure function of `(root, case)`, so any case the simulator flags can
//! be replayed from its number alone, and any *shrunk* schedule can be
//! replayed from its printed event list (each event renders and reads
//! back losslessly through `Display`).

use lcakp_oracle::Seed;
use lcakp_service::TrafficShape;
use rand::Rng;
use std::fmt;
use std::ops::Range;

/// One injected fault. Crash ticks are expressed in *permille of the
/// crash-free run's final worker tick* rather than absolute ticks, so a
/// schedule stays meaningful across instances of different sizes and
/// shrinking a crash tick moves the crash earlier proportionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Kill a worker partway through its shard, optionally tearing the
    /// in-flight journal write to its first `torn_keep` bytes.
    Crash {
        /// The worker to kill.
        worker: usize,
        /// Crash tick as permille of the worker's crash-free end tick.
        tick_permille: u32,
        /// Surviving bytes of the in-flight journal write (`None`:
        /// crash between writes).
        torn_keep: Option<usize>,
    },
    /// Revive a worker after its earliest unrevived crash.
    Restart {
        /// The worker to revive.
        worker: usize,
    },
    /// Periodic heavy-fault windows over batch positions.
    CorruptionBurst {
        /// A burst starts every `period` queries.
        period: usize,
        /// Queries per burst.
        len: usize,
        /// Transient-fault rate inside the burst, in permille.
        transient_permille: u32,
        /// Signalled-corruption rate inside the burst, in permille.
        corruption_permille: u32,
    },
    /// A latency surge over a virtual-tick window.
    LatencySpike {
        /// First tick (inclusive) of the surge.
        start_tick: u64,
        /// Window length in ticks.
        len_ticks: u64,
        /// Extra ticks charged per access started inside the window.
        extra_cost: u64,
    },
    /// A hard per-worker access cap barely above the admission bound.
    BudgetSqueeze {
        /// Slack above one worst-case query, in accesses.
        slack_accesses: u64,
    },
    /// Kill a whole cluster node (E16): every shard it hosts fails over
    /// to a replica via the shipped journal. Ticks are permille of the
    /// fault-free cluster horizon (the max shard end tick).
    NodeCrash {
        /// The node to kill.
        node: usize,
        /// Crash tick as permille of the fault-free cluster horizon.
        tick_permille: u32,
        /// Surviving bytes of each owned shard's last in-flight journal
        /// append (`None`: the journal ships clean).
        torn_keep: Option<usize>,
    },
    /// Revive a dead cluster node (E16). A restart halved below its
    /// crash tick fires while the node is alive and becomes a no-op —
    /// the schedule then reads as an unrevived crash.
    NodeRestart {
        /// The node to revive.
        node: usize,
        /// Restart tick as permille of the fault-free cluster horizon.
        tick_permille: u32,
    },
    /// Cut a set of cluster nodes off from the client's side (E16).
    Partition {
        /// Bitmask of the nodes on the far side of the cut (bit `i` =
        /// node `i`); bits beyond the membership are ignored.
        cut_mask: u32,
        /// Cut tick as permille of the fault-free cluster horizon.
        from_permille: u32,
        /// Heal tick in permille (`None`: never heals in this batch).
        heal_permille: Option<u32>,
    },
    /// The offered open-loop traffic of an E17 case. The gap is
    /// permille of the world's *measured per-query service cost*, so
    /// 1000 means arrivals at exactly one server's capacity and the
    /// schedule stays meaningful across instance sizes.
    Traffic {
        /// The arrival process.
        shape: TrafficShape,
        /// Mean inter-arrival gap as permille of the measured
        /// per-query service cost.
        gap_permille: u32,
    },
    /// An overload surge inside an E17 trace: arrivals in the window
    /// (permille of the trace horizon) come `gap_div`× as fast.
    OverloadSurge {
        /// First tick of the surge, permille of the trace horizon.
        start_permille: u32,
        /// Window length, permille of the trace horizon.
        len_permille: u32,
        /// Gap divisor inside the window (≥ 2 to mean anything).
        gap_div: u32,
    },
}

impl fmt::Display for SimEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimEvent::Crash {
                worker,
                tick_permille,
                torn_keep,
            } => match torn_keep {
                Some(keep) => write!(
                    f,
                    "crash(worker={worker}, tick={tick_permille}/1000, torn-keep={keep})"
                ),
                None => write!(f, "crash(worker={worker}, tick={tick_permille}/1000)"),
            },
            SimEvent::Restart { worker } => write!(f, "restart(worker={worker})"),
            SimEvent::CorruptionBurst {
                period,
                len,
                transient_permille,
                corruption_permille,
            } => write!(
                f,
                "corruption-burst(period={period}, len={len}, transient={transient_permille}/1000, \
                 corruption={corruption_permille}/1000)"
            ),
            SimEvent::LatencySpike {
                start_tick,
                len_ticks,
                extra_cost,
            } => write!(
                f,
                "latency-spike(start={start_tick}, len={len_ticks}, extra={extra_cost})"
            ),
            SimEvent::BudgetSqueeze { slack_accesses } => {
                write!(f, "budget-squeeze(slack={slack_accesses})")
            }
            SimEvent::NodeCrash {
                node,
                tick_permille,
                torn_keep,
            } => match torn_keep {
                Some(keep) => write!(
                    f,
                    "node-crash(node={node}, tick={tick_permille}/1000, torn-keep={keep})"
                ),
                None => write!(f, "node-crash(node={node}, tick={tick_permille}/1000)"),
            },
            SimEvent::NodeRestart {
                node,
                tick_permille,
            } => {
                write!(f, "node-restart(node={node}, tick={tick_permille}/1000)")
            }
            SimEvent::Partition {
                cut_mask,
                from_permille,
                heal_permille,
            } => {
                write!(
                    f,
                    "partition(cut=0b{cut_mask:b}, from={from_permille}/1000, heal="
                )?;
                match heal_permille {
                    Some(heal) => write!(f, "{heal}/1000)"),
                    None => write!(f, "never)"),
                }
            }
            SimEvent::Traffic {
                shape,
                gap_permille,
            } => {
                write!(f, "traffic(shape={shape}, gap={gap_permille}/1000)")
            }
            SimEvent::OverloadSurge {
                start_permille,
                len_permille,
                gap_div,
            } => {
                write!(
                    f,
                    "overload-surge(start={start_permille}/1000, len={len_permille}/1000, \
                     div={gap_div})"
                )
            }
        }
    }
}

/// Generates the fault schedule for `case`: always at least one crash
/// (most get a matching restart), plus up to two ambient faults drawn
/// from corruption bursts, latency spikes, and budget squeezes.
pub fn generate_schedule(root: &Seed, case: u64, workers: usize) -> Vec<SimEvent> {
    let mut rng = root.derive("sim/schedule", case).rng();
    let mut events = Vec::new();
    let crashes = rng.gen_range(1usize..=2);
    for _ in 0..crashes {
        let worker = rng.gen_range(0..workers);
        let torn_keep = if rng.gen_range(0u32..2) == 0 {
            Some(rng.gen_range(0usize..64))
        } else {
            None
        };
        events.push(SimEvent::Crash {
            worker,
            tick_permille: rng.gen_range(0u32..1000),
            torn_keep,
        });
        // Most crashes get revived; the rest leave a dead worker whose
        // shard tail must shed explicitly.
        if rng.gen_range(0u32..10) < 7 {
            events.push(SimEvent::Restart { worker });
        }
    }
    for _ in 0..rng.gen_range(0usize..=2) {
        events.push(match rng.gen_range(0u32..3) {
            0 => SimEvent::CorruptionBurst {
                period: rng.gen_range(8usize..24),
                len: rng.gen_range(2usize..8),
                transient_permille: rng.gen_range(50u32..400),
                corruption_permille: rng.gen_range(0u32..80),
            },
            1 => SimEvent::LatencySpike {
                start_tick: rng.gen_range(0u64..40_000),
                len_ticks: rng.gen_range(1_000u64..20_000),
                extra_cost: rng.gen_range(1u64..4),
            },
            _ => SimEvent::BudgetSqueeze {
                slack_accesses: rng.gen_range(0u64..200_000),
            },
        });
    }
    events
}

/// Generates the node-level fault schedule for a cluster `case`:
/// always at least one node crash (most get a matching restart), and
/// half the cases add a partition (most of which heal). Node 0 is never
/// cut off — it anchors the client's side of every partition.
pub fn generate_cluster_schedule(root: &Seed, case: u64, nodes: usize) -> Vec<SimEvent> {
    let mut rng = root.derive("sim/cluster-schedule", case).rng();
    let mut events = Vec::new();
    let crashes = rng.gen_range(1usize..=2);
    for _ in 0..crashes {
        push_node_crash(&mut rng, &mut events, nodes, 0..900);
    }
    if nodes > 1 && rng.gen_range(0u32..10) < 5 {
        events.push(partition(&mut rng, nodes, 0..700));
    }
    events
}

/// Pushes a crash of a random node at a tick drawn from `ticks`
/// (permille), tearing its journal in half the draws. Most dead nodes
/// come back 50–250‰ later; the rest stay down so their shards must
/// live on replicas (or shed explicitly).
fn push_node_crash(
    rng: &mut impl Rng,
    events: &mut Vec<SimEvent>,
    nodes: usize,
    ticks: Range<u32>,
) {
    let node = rng.gen_range(0..nodes);
    let torn_keep = if rng.gen_range(0u32..2) == 0 {
        Some(rng.gen_range(0usize..96))
    } else {
        None
    };
    let tick_permille = rng.gen_range(ticks);
    events.push(SimEvent::NodeCrash {
        node,
        tick_permille,
        torn_keep,
    });
    if rng.gen_range(0u32..10) < 7 {
        events.push(SimEvent::NodeRestart {
            node,
            tick_permille: tick_permille.saturating_add(rng.gen_range(50u32..250)),
        });
    }
}

/// A partition cutting a random non-empty set of nodes — never node 0,
/// which anchors the client's side — from a tick drawn from `from`
/// (permille); most heal 100–300‰ later. Needs `nodes > 1`.
fn partition(rng: &mut impl Rng, nodes: usize, from: Range<u32>) -> SimEvent {
    let cut_mask = rng.gen_range(1u32..(1 << (nodes - 1))) << 1;
    let from_permille = rng.gen_range(from);
    let heal_permille = if rng.gen_range(0u32..10) < 7 {
        Some(from_permille.saturating_add(rng.gen_range(100u32..300)))
    } else {
        None
    };
    SimEvent::Partition {
        cut_mask,
        from_permille,
        heal_permille,
    }
}

/// An overload surge over 150–400‰ of the trace, starting 100–500‰ in,
/// dividing the gaps inside it by a divisor drawn from `gap_div`.
fn surge(rng: &mut impl Rng, gap_div: Range<u32>) -> SimEvent {
    SimEvent::OverloadSurge {
        start_permille: rng.gen_range(100u32..500),
        len_permille: rng.gen_range(150u32..400),
        gap_div: rng.gen_range(gap_div),
    }
}

/// Generates the traffic schedule for an E17 `case`: exactly one
/// [`SimEvent::Traffic`] event whose shape cycles through all five
/// arrival processes (so any ten consecutive cases cover every shape
/// twice), plus — in half the cases — an [`SimEvent::OverloadSurge`]
/// that pushes the offered load past capacity for part of the trace.
pub fn generate_slo_schedule(root: &Seed, case: u64) -> Vec<SimEvent> {
    let mut rng = root.derive("sim/slo-schedule", case).rng();
    let shape = TrafficShape::ALL[(case % TrafficShape::ALL.len() as u64) as usize];
    let mut events = vec![SimEvent::Traffic {
        shape,
        gap_permille: rng.gen_range(900u32..2200),
    }];
    if rng.gen_range(0u32..10) < 5 {
        events.push(surge(&mut rng, 3..6));
    }
    events
}

/// The traffic shapes an E18 rebalance case cycles through: the three
/// that concentrate load — a hot shard, bursty arrivals, and a query of
/// death — because those are the regimes where promoting a replica can
/// actually relieve anything.
const REBALANCE_SHAPES: [TrafficShape; 3] = [
    TrafficShape::HotShard,
    TrafficShape::Bursty,
    TrafficShape::QueryOfDeath,
];

/// Generates the combined traffic-and-fault schedule for an E18
/// rebalance `case`: exactly one [`SimEvent::Traffic`] event cycling
/// through the load-concentrating shapes at overload-leaning gaps, plus
/// — independently — an overload surge (~40%), a node crash with a
/// likely restart (~50%), and a partition (~40%). Node 0 is never cut
/// off — it anchors the client's side of every partition.
pub fn generate_rebalance_schedule(root: &Seed, case: u64, nodes: usize) -> Vec<SimEvent> {
    let mut rng = root.derive("sim/rebalance-schedule", case).rng();
    let shape = REBALANCE_SHAPES[(case % REBALANCE_SHAPES.len() as u64) as usize];
    let mut events = vec![SimEvent::Traffic {
        shape,
        gap_permille: rng.gen_range(500u32..1400),
    }];
    if rng.gen_range(0u32..10) < 4 {
        events.push(surge(&mut rng, 2..5));
    }
    if rng.gen_range(0u32..10) < 5 {
        push_node_crash(&mut rng, &mut events, nodes, 100..800);
    }
    if nodes > 1 && rng.gen_range(0u32..10) < 4 {
        events.push(partition(&mut rng, nodes, 0..600));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_pure_function_of_root_and_case() {
        let root = Seed::from_entropy_u64(7);
        for case in 0..32 {
            assert_eq!(
                generate_schedule(&root, case, 3),
                generate_schedule(&root, case, 3),
                "case {case}"
            );
        }
    }

    #[test]
    fn every_schedule_contains_a_crash_with_a_valid_worker() {
        let root = Seed::from_entropy_u64(8);
        for case in 0..64 {
            let events = generate_schedule(&root, case, 3);
            assert!(
                events.iter().any(|event| matches!(
                    event,
                    SimEvent::Crash { worker, .. } if *worker < 3
                )),
                "case {case} has no crash: {events:?}"
            );
        }
    }

    #[test]
    fn display_is_stable_and_distinct_per_variant() {
        let rendered = [
            SimEvent::Crash {
                worker: 1,
                tick_permille: 512,
                torn_keep: Some(9),
            },
            SimEvent::Restart { worker: 1 },
            SimEvent::CorruptionBurst {
                period: 16,
                len: 4,
                transient_permille: 300,
                corruption_permille: 50,
            },
            SimEvent::LatencySpike {
                start_tick: 100,
                len_ticks: 50,
                extra_cost: 2,
            },
            SimEvent::BudgetSqueeze { slack_accesses: 77 },
            SimEvent::Traffic {
                shape: TrafficShape::Bursty,
                gap_permille: 1200,
            },
            SimEvent::OverloadSurge {
                start_permille: 300,
                len_permille: 200,
                gap_div: 4,
            },
        ]
        .map(|event| event.to_string());
        assert_eq!(rendered[0], "crash(worker=1, tick=512/1000, torn-keep=9)");
        assert_eq!(rendered[1], "restart(worker=1)");
        assert_eq!(rendered[5], "traffic(shape=bursty, gap=1200/1000)");
        assert_eq!(
            rendered[6],
            "overload-surge(start=300/1000, len=200/1000, div=4)"
        );
        let unique: std::collections::BTreeSet<&String> = rendered.iter().collect();
        assert_eq!(unique.len(), rendered.len());
    }

    #[test]
    fn rebalance_schedules_carry_load_concentrating_traffic() {
        let root = Seed::from_entropy_u64(13);
        let mut shapes = std::collections::BTreeSet::new();
        for case in 0..12 {
            let events = generate_rebalance_schedule(&root, case, 3);
            assert_eq!(events, generate_rebalance_schedule(&root, case, 3));
            let traffic: Vec<&SimEvent> = events
                .iter()
                .filter(|event| matches!(event, SimEvent::Traffic { .. }))
                .collect();
            assert_eq!(traffic.len(), 1, "case {case}: {events:?}");
            if let SimEvent::Traffic { shape, .. } = traffic[0] {
                assert!(
                    REBALANCE_SHAPES.contains(shape),
                    "case {case} drew a non-concentrating shape: {shape}"
                );
                shapes.insert(shape.to_string());
            }
        }
        assert_eq!(shapes.len(), REBALANCE_SHAPES.len());
    }

    #[test]
    fn slo_schedules_cover_every_shape_and_always_carry_traffic() {
        let root = Seed::from_entropy_u64(12);
        let mut shapes = std::collections::BTreeSet::new();
        for case in 0..10 {
            let events = generate_slo_schedule(&root, case);
            assert_eq!(events, generate_slo_schedule(&root, case));
            let traffic: Vec<&SimEvent> = events
                .iter()
                .filter(|event| matches!(event, SimEvent::Traffic { .. }))
                .collect();
            assert_eq!(traffic.len(), 1, "case {case}: {events:?}");
            if let SimEvent::Traffic { shape, .. } = traffic[0] {
                shapes.insert(shape.to_string());
            }
        }
        assert_eq!(shapes.len(), TrafficShape::ALL.len());
    }
}
