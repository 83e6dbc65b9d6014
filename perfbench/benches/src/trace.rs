//! The traced closed loop. Each query runs against a [`TracedOracle`]
//! that records its draws; the stages that follow sampling (rQuantile
//! per threshold, Ĩ, CONVERT-GREEDY) have no boundary visible from
//! outside the query, so they are rebuilt from the recorded draws with
//! the same public calls and parameters `LcaKp` uses, and timed there.
//! The rebuilt rule must equal the rule `build_rule_in` returns for the
//! same sampling stream, or the run fails: the per-layer numbers then
//! describe the program, not a look-alike.

use crate::closed::{Client, Gates, QueryLog};
use crate::measure::{self_time, Interval};
use crate::probe::{allocations, AccessLog, SpanLog, TracedOracle};
use crate::world::{World, BUDGET};
use lcakp_core::{convert_greedy, LcaError, SolutionRule};
use lcakp_knapsack::iky::{EpsSequence, TildeInstance};
use lcakp_knapsack::{Item, ItemId};
use lcakp_oracle::InstanceOracle;
use lcakp_reproducible::{rquantile, Domain, RQuantileConfig};

/// Per-layer sums over the traced queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Traced queries answered.
    pub queries: u64,
    /// Wall time inside `query_with_audit_in`, ns.
    pub query_ns: u64,
    /// Wall time inside the oracle, ns.
    pub oracle_ns: u64,
    /// Weighted draws.
    pub samples: u64,
    /// Wall time inside weighted draws, ns.
    pub sample_ns: u64,
    /// Point queries.
    pub points: u64,
    /// `rquantile` calls.
    pub rquantile_calls: u64,
    /// Wall time inside `rquantile`, ns.
    pub rquantile_ns: u64,
    /// Sum of the sample lengths handed to `rquantile`.
    pub rquantile_sample_len: u64,
    /// Sum of |Ĩ|.
    pub tilde_items: u64,
    /// Wall time inside `TildeInstance::build`, ns.
    pub iky_ns: u64,
    /// Wall time inside `convert_greedy`, ns.
    pub convert_ns: u64,
    /// Sum of distinct large items found by coupon collection.
    pub large_items: u64,
    /// Sum of EPS thresholds kept.
    pub thresholds: u64,
    /// Sum of the queries' self time: outside every oracle access and
    /// the rule-stage gap, less the decorator's own clock reads, ns.
    pub self_ns: u64,
    /// Allocations inside the queries.
    pub allocs: u64,
    /// Bytes allocated inside the queries.
    pub alloc_bytes: u64,
}

impl LayerTotals {
    /// `total / queries` as a float (0 with no queries).
    pub fn per_query(&self, total: u64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            total as f64 / self.queries as f64
        }
    }
}

/// Rebuilds Algorithm 2 lines 1–19 from a query's recorded draws, with
/// the parameters `LcaKp` derives, recording a span per stage under
/// `parent` and adding the stages' numbers to `totals`.
fn rebuild_rule(
    world: &World,
    draws: &[(ItemId, Item)],
    spans: &mut SpanLog,
    parent: usize,
    query: u64,
    totals: &mut LayerTotals,
) -> Result<SolutionRule, String> {
    let lca = &world.lca;
    let norms = world.norm.norms();
    let capacity = world.norm.as_instance().capacity();
    let eps = lca.eps();
    let eps_sq = eps.squared();
    let m = usize::try_from(lca.coupon_samples()).map_err(|e| e.to_string())?;
    if draws.len() < m {
        return Err(format!("{} draws < {m} coupon samples", draws.len()));
    }

    let mut large: Vec<(ItemId, Item)> = draws[..m]
        .iter()
        .copied()
        .filter(|&(_, item)| norms.nprofit_of(item.profit) > eps_sq)
        .collect();
    large.sort_by_key(|&(id, _)| id);
    large.dedup_by_key(|&mut (id, _)| id);
    totals.large_items += large.len() as u64;
    let total_profit = u128::from(norms.total_profit);
    let large_profit: u128 = large.iter().map(|&(_, item)| u128::from(item.profit)).sum();
    let residual = total_profit - large_profit;

    let mut estimated = draws.len() - m;
    let seq = if residual * u128::from(eps.den()) >= u128::from(eps.num()) * total_profit {
        let fraction = residual as f64 / total_profit as f64;
        let e = eps.as_f64();
        let q = (e + e * e / 2.0) / fraction;
        let t = (1.0 / q).floor() as usize;
        if t == 0 {
            EpsSequence::empty()
        } else {
            let params = lca.repro_params();
            let n_rq = BUDGET.rquantile_samples(&params);
            let a = ((1.5 * n_rq as f64) / fraction).ceil() as usize;
            if estimated != a {
                return Err(format!("{estimated} estimation draws, expected {a}"));
            }
            estimated = 0;
            let efficiencies: Vec<u128> = draws[m..]
                .iter()
                .filter(|&&(_, item)| norms.nprofit_of(item.profit) <= eps_sq)
                .map(|&(id, item)| u128::from(norms.tie_broken_efficiency_key(id, item)))
                .collect();
            if efficiencies.is_empty() {
                EpsSequence::empty()
            } else {
                let domain = Domain::new(64).map_err(|e| e.to_string())?;
                let mut keys = Vec::with_capacity(t);
                let mut previous = u64::MAX;
                for k in 1..=t {
                    let config = RQuantileConfig {
                        domain,
                        p: (1.0 - k as f64 * q).max(0.0),
                        tau: params.tau.min(0.5),
                    };
                    // lcakp-lint: allow(D007) reason="re-derives LcaKp's own per-threshold seed to rebuild its rQuantile stage; the two streams are meant to be identical"
                    let seed = world.shared.derive("lca-kp/rquantile", k as u64);
                    let start = spans.now();
                    let value =
                        rquantile(&efficiencies, &config, &seed).map_err(|e| e.to_string())?;
                    let end = spans.now();
                    spans.push(
                        "reproducible.rquantile",
                        Interval { start, end },
                        Some(parent),
                        query,
                    );
                    totals.rquantile_calls += 1;
                    totals.rquantile_ns += end - start;
                    totals.rquantile_sample_len += efficiencies.len() as u64;
                    let key = (value.min(u128::from(u64::MAX)) as u64).min(previous);
                    keys.push(key);
                    previous = key;
                }
                let mut seq = EpsSequence::new(keys).map_err(|e| e.to_string())?;
                if let Some(&last) = seq.keys().last() {
                    let num = u128::from(eps.num());
                    let den = u128::from(eps.den());
                    if u128::from(last) * den * den < num * num * (1u128 << 32) {
                        seq.truncate_last();
                    }
                }
                seq
            }
        }
    } else {
        EpsSequence::empty()
    };
    if estimated != 0 {
        return Err(format!(
            "{estimated} draws after coupon collection, expected none"
        ));
    }
    totals.thresholds += seq.len() as u64;

    let start = spans.now();
    let tilde = TildeInstance::build(norms, capacity, eps, &large, &seq);
    let end = spans.now();
    spans.push("iky.build", Interval { start, end }, Some(parent), query);
    totals.iky_ns += end - start;
    totals.tilde_items += tilde.len() as u64;

    let start = spans.now();
    let out = convert_greedy(&tilde, &seq);
    let end = spans.now();
    spans.push(
        "core.convert_greedy",
        Interval { start, end },
        Some(parent),
        query,
    );
    totals.convert_ns += end - start;

    Ok(SolutionRule {
        eps,
        capacity,
        large_selected: out.large_selected.into_iter().collect(),
        e_small: out.e_small,
        singleton: out.singleton,
    })
}

/// One traced query of `item`: runs it on the traced oracle, gates its
/// answer and accesses, rebuilds its rule and gates it against
/// `build_rule_in` on the same sampling stream, and adds its layer
/// numbers to `totals`.
///
/// # Errors
///
/// Propagates `build_rule_in` errors.
#[allow(clippy::too_many_arguments)]
pub fn traced_query(
    world: &World,
    plain: &InstanceOracle<'_>,
    traced: &TracedOracle<'_, InstanceOracle<'_>>,
    client: &mut Client,
    item: ItemId,
    spans: &mut SpanLog,
    totals: &mut LayerTotals,
    log: &mut QueryLog,
    gates: &mut Gates,
) -> Result<(), LcaError> {
    let query = log.attempted;
    let rng_before = client.rng.clone();
    traced.reset();
    let (allocs_before, bytes_before) = allocations();
    let start = spans.now();
    let result = world.lca.query_with_audit_in(
        traced,
        &mut client.rng,
        item,
        &world.shared,
        &mut client.scratch,
    );
    let end = spans.now();
    let (allocs_after, bytes_after) = allocations();
    log.record(world, item, &result, end - start, gates);
    let Ok((answer, audit)) = result else {
        return Ok(());
    };
    if audit.degraded.is_some() {
        return Ok(());
    }

    let at = Interval { start, end };
    let query_span = spans.push("core.query", at, None, query);
    let accesses: &AccessLog = &traced.log();
    let oracle_covered = at.len() - self_time(at, &accesses.intervals);
    if let Some(first) = accesses.intervals.first() {
        spans.push(
            "oracle.access",
            Interval {
                start: first.start,
                end: accesses.intervals.last().map_or(first.end, |last| last.end),
            },
            Some(query_span),
            query,
        );
    }
    // The gap between the last draw and the final point query is where
    // the rule stages ran inside the query: sorting the large items,
    // rQuantile, Ĩ and CONVERT-GREEDY.
    let stages_at = Interval {
        start: accesses
            .last_sample_end
            .min(accesses.first_point_start.unwrap_or(end)),
        end: accesses.first_point_start.unwrap_or(end),
    };
    spans.push("core.rule_stages", stages_at, Some(query_span), query);
    let mut children = accesses.intervals.clone();
    children.push(stages_at);
    // Each access also pays about two clock reads outside its interval.
    let clock_reads = 2 * traced.timer_ns() * (accesses.samples + accesses.points);
    let self_ns = self_time(at, &children).saturating_sub(clock_reads);

    let program_rule = world.lca.build_rule_in(
        plain,
        &mut rng_before.clone(),
        &world.shared,
        &mut client.scratch,
    )?;
    gates.check(
        program_rule
            .decide(world.norm.norms(), item, world.norm.item(item))
            .include
            == answer.include,
        || format!("query {query}: build_rule_in's rule answers {item} unlike the query"),
    );
    let rebuild_start = spans.now();
    let rebuild_span = spans.push(
        "trace.rebuild",
        Interval {
            start: rebuild_start,
            end: rebuild_start,
        },
        Some(query_span),
        query,
    );
    let rebuilt = rebuild_rule(world, &accesses.draws, spans, rebuild_span, query, totals);
    spans.close(rebuild_span, spans.now());
    match rebuilt {
        Ok(rule) => gates.check(rule == program_rule, || {
            format!("query {query}: rebuilt rule {rule} != build_rule_in's {program_rule}")
        }),
        Err(why) => gates.check(false, || format!("query {query}: rebuild failed: {why}")),
    }
    totals.queries += 1;
    totals.query_ns += at.len();
    totals.oracle_ns += oracle_covered;
    totals.samples += accesses.samples;
    totals.sample_ns += accesses.sample_ns;
    totals.points += accesses.points;
    totals.self_ns += self_ns;
    totals.allocs += allocs_after - allocs_before;
    totals.alloc_bytes += bytes_after - bytes_before;
    Ok(())
}
