//! The served path: the hot-shard trace through `serve_cluster_traffic`,
//! its byte-identity gate against `replay_shard_traffic`, and the
//! serving layers' numbers (journal, ring, admission, rebalance, SLO).

use crate::closed::{Client, Gates, QueryLog};
use crate::measure::{percentile, Permille};
use crate::probe::{now, ns_since, timer_overhead_ns, TracedOracle};
use crate::world::{Serving, World};
use lcakp_core::{LcaError, ResponseTier};
use lcakp_knapsack::ItemId;
use lcakp_oracle::{InstanceOracle, ItemOracle, WeightedSampler};
use lcakp_service::{
    decode, replay_shard_traffic, serve_cluster_traffic, Arrival, ClusterTrafficReport, DecodeMode,
    Ring, RingView, TrafficDisposition,
};
use std::hint::black_box;

/// Serves the trace once; returns the report and the call's wall ns.
///
/// # Errors
///
/// Propagates hard serving errors.
pub fn serve<O>(
    world: &World,
    oracle: &O,
    serving: &Serving,
) -> Result<(ClusterTrafficReport, u64), LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let start = now();
    let report = serve_cluster_traffic(
        &world.lca,
        oracle,
        &world.shared,
        &serving.service_root,
        &serving.trace,
        &serving.config,
        &serving.events,
    )?;
    Ok((report, ns_since(start)))
}

/// The answered arrivals' items, in trace order.
pub fn answered_items(report: &ClusterTrafficReport) -> Vec<ItemId> {
    report
        .outcomes
        .iter()
        .filter(|routed| {
            matches!(
                routed.outcome.disposition,
                TrafficDisposition::Answered { .. }
            )
        })
        .map(|routed| routed.outcome.item)
        .collect()
}

/// Each full-tier answered arrival's item and verdict, in trace order.
pub fn full_tier_answers(report: &ClusterTrafficReport) -> Vec<(ItemId, bool)> {
    report
        .outcomes
        .iter()
        .filter_map(|routed| match routed.outcome.disposition {
            TrafficDisposition::Answered { answer, .. } if answer.tier == ResponseTier::Full => {
                Some((routed.outcome.item, answer.include))
            }
            _ => None,
        })
        .collect()
}

/// Replays `items` back to back through `query_with_audit_in`; returns
/// the wall ns of the whole replay.
pub fn replay<O>(
    world: &World,
    oracle: &O,
    client: &mut Client,
    items: &[ItemId],
    log: &mut QueryLog,
    gates: &mut Gates,
) -> u64
where
    O: ItemOracle + WeightedSampler,
{
    let start = now();
    for &item in items {
        let (result, ns) = client.query(world, oracle, item);
        log.record(world, item, &result, ns, gates);
    }
    ns_since(start)
}

/// Gates that every answered arrival is byte-identical to what
/// `replay_shard_traffic` computes for its shard from the shared seeds
/// alone.
///
/// # Errors
///
/// Propagates hard replay errors.
pub fn check_replay(
    world: &World,
    oracle: &InstanceOracle<'_>,
    serving: &Serving,
    report: &ClusterTrafficReport,
    gates: &mut Gates,
) -> Result<(), LcaError> {
    for shard in 0..serving.config.shards {
        let answered: Vec<_> = report
            .outcomes
            .iter()
            .filter(|routed| routed.outcome.shard == shard)
            .filter_map(|routed| match routed.outcome.disposition {
                TrafficDisposition::Answered { answer, .. } => Some((routed.outcome.index, answer)),
                TrafficDisposition::Shed(_) => None,
            })
            .collect();
        let admitted: Vec<(usize, Arrival)> = answered
            .iter()
            .map(|&(index, _)| (index, serving.trace[index]))
            .collect();
        let replayed = replay_shard_traffic(
            &world.lca,
            oracle,
            &world.shared,
            &serving.service_root,
            &admitted,
            shard,
            &serving.config.service,
        )?;
        gates.check(replayed == answered, || {
            format!("shard {shard}: served answers differ from replay_shard_traffic")
        });
    }
    Ok(())
}

/// The served run's user-facing figures. All are deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ServedSummary {
    /// Arrivals offered.
    pub offered: u64,
    /// Arrivals answered (any tier).
    pub answered: u64,
    /// Arrivals answered below the full tier.
    pub degraded: u64,
    /// Answered at full tier within the deadline, of offered.
    pub availability: Permille,
    /// p99 arrival-to-answer latency of answered arrivals, ticks.
    pub p99_ticks: Option<f64>,
    /// Mean counted accesses per answered arrival.
    pub accesses_per_answer: f64,
}

/// Summarizes a report.
pub fn summarize(report: &ClusterTrafficReport) -> ServedSummary {
    let mut latencies = Vec::new();
    let mut good = 0u64;
    let mut degraded = 0u64;
    let mut accesses = 0u64;
    for routed in &report.outcomes {
        if let TrafficDisposition::Answered {
            latency_ticks,
            deadline_met,
            answer,
            ..
        } = routed.outcome.disposition
        {
            latencies.push(latency_ticks as f64);
            accesses += answer.accesses;
            if answer.tier != ResponseTier::Full {
                degraded += 1;
            } else if deadline_met {
                good += 1;
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let answered = latencies.len() as u64;
    ServedSummary {
        offered: report.outcomes.len() as u64,
        answered,
        degraded,
        availability: Permille {
            part: good,
            base: report.outcomes.len() as u64,
        },
        p99_ticks: percentile(&latencies, 99.0),
        accesses_per_answer: accesses as f64 / answered.max(1) as f64,
    }
}

/// The serving layers' per-layer numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServingLayers {
    /// Serve wall minus closed-loop replay wall, per offered arrival, µs.
    pub service_self_us: f64,
    /// Serve wall minus closed-loop replay wall, of serve wall.
    pub service_share_permille: f64,
    /// Oracle time inside the traced serve, of its wall.
    pub oracle_share: Permille,
    /// Weighted draws in the traced serve.
    pub samples: u64,
    /// Ns inside those draws.
    pub sample_ns: u64,
    /// Point queries in the traced serve.
    pub points: u64,
    /// Arrivals answered.
    pub answered: u64,
    /// Records across every node's journal.
    pub journal_records: u64,
    /// Journal bytes across every node.
    pub journal_bytes: u64,
    /// Re-encoding one decoded record, ns.
    pub encode_ns: f64,
    /// Strict decode of every node's journal, µs.
    pub decode_us: f64,
    /// One `RingView::replica_set` + `primary` lookup, ns.
    pub route_ns: f64,
    /// Arrivals shed.
    pub sheds: u64,
    /// Admission-controller state flips.
    pub transitions: u64,
    /// Rebalance promotions.
    pub promotions: u64,
    /// Fault failovers.
    pub failovers: u64,
    /// Ring epoch at the end.
    pub final_epoch: u64,
    /// Answered arrivals past the deadline.
    pub deadline_missed: u64,
}

/// Plain serves and replays measured against each other per repetition.
const SELF_TIME_REPS: usize = 3;

/// Measures the serving layers on `serving`: service self time against
/// a closed-loop replay, a traced serve for the oracle's share (gated
/// to answer byte-identically), the journals, and ring lookups. Returns
/// them with the served report.
///
/// # Errors
///
/// Propagates hard serving errors.
pub fn measure_layers(
    world: &World,
    oracle: &InstanceOracle<'_>,
    serving: &Serving,
    client: &mut Client,
    gates: &mut Gates,
) -> Result<(ServingLayers, ClusterTrafficReport), LcaError> {
    let mut self_us = Vec::with_capacity(SELF_TIME_REPS);
    let mut shares = Vec::with_capacity(SELF_TIME_REPS);
    let mut report = None;
    for _ in 0..SELF_TIME_REPS {
        let (served, serve_ns) = serve(world, oracle, serving)?;
        let items = answered_items(&served);
        let mut log = QueryLog::default();
        let replay_ns = replay(world, oracle, client, &items, &mut log, gates);
        let offered = served.outcomes.len().max(1) as f64;
        let service_ns = serve_ns as f64 - replay_ns as f64;
        self_us.push(service_ns / offered / 1e3);
        shares.push(service_ns * 1000.0 / serve_ns as f64);
        report = Some(served);
    }
    let report = report.expect("SELF_TIME_REPS is positive");

    let traced = TracedOracle::new(oracle, now(), timer_overhead_ns(), false, 0);
    let (traced_report, traced_ns) = serve(world, &traced, serving)?;
    gates.check(traced_report == report, || {
        "tracing the oracle changed the served report".to_string()
    });
    let accesses = traced.log();

    let mut layers = ServingLayers {
        service_self_us: crate::measure::median(&self_us),
        service_share_permille: crate::measure::median(&shares),
        oracle_share: Permille {
            part: accesses.busy_ns(),
            base: traced_ns,
        },
        samples: accesses.samples,
        sample_ns: accesses.sample_ns,
        points: accesses.points,
        answered: report.slo.answered,
        sheds: report.slo.shed,
        transitions: report.transitions.len() as u64,
        promotions: report.promotion_count() as u64,
        failovers: report
            .shards
            .iter()
            .map(|shard| shard.failovers as u64)
            .sum(),
        final_epoch: report.final_epoch.get(),
        deadline_missed: report.slo.deadline_missed,
        ..ServingLayers::default()
    };

    let mut records = Vec::new();
    let mut journals = Vec::new();
    let mut decode_ns = 0;
    for node in &report.nodes {
        journals.extend_from_slice(node.journal.bytes());
        let start = now();
        let decoded = decode(node.journal.bytes(), DecodeMode::Strict);
        decode_ns += ns_since(start);
        match decoded {
            Ok(decoded) => records.extend(decoded.records),
            Err(error) => gates.check(false, || {
                format!("node {} journal fails strict decode: {error:?}", node.node)
            }),
        }
    }
    layers.decode_us = decode_ns as f64 / 1e3;
    layers.journal_records = records.len() as u64;
    layers.journal_bytes = journals.len() as u64;
    let mut scratch = Vec::new();
    let mut out = Vec::with_capacity(journals.len());
    let encode_start = now();
    for record in &records {
        record.encode_into(&mut scratch, &mut out);
    }
    let encode_ns = ns_since(encode_start);
    gates.check(out == journals, || {
        "re-encoding the decoded records does not reproduce the journals".to_string()
    });
    layers.encode_ns = encode_ns as f64 / records.len().max(1) as f64;

    let view = RingView::from_ring(
        &Ring::new(serving.config.nodes, serving.config.vnodes),
        serving.config.shards,
        serving.config.replication,
    )
    .expect("a non-empty membership always routes");
    const ROUTE_PASSES: usize = 64;
    let route_start = now();
    for _ in 0..ROUTE_PASSES {
        for arrival in &serving.trace {
            let set = view.replica_set(black_box(arrival.shard));
            black_box((set.nodes().len(), view.primary(arrival.shard)));
        }
    }
    layers.route_ns =
        ns_since(route_start) as f64 / (ROUTE_PASSES * serving.trace.len().max(1)) as f64;
    Ok((layers, report))
}
