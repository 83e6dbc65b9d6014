//! Per-query service-cost calibration shared by the traffic-driven
//! simulators (E17, E18).
//!
//! Every traffic schedule expresses its inter-arrival gap in *permille
//! of the world's measured per-query service cost*, so a gap of 1000
//! offers exactly one server's capacity and schedules stay meaningful
//! across instance sizes. The measurement itself is a calibration
//! probe: a short back-to-back steady trace served with admission
//! disabled, whose mean ticks per query becomes the unit. [`SloWorld`]
//! (E17) and [`RebalanceWorld`] (E18) both calibrate through it, in the
//! traffic world they share, so their calibrations agree by
//! construction.
//!
//! [`SloWorld`]: crate::SloWorld
//! [`RebalanceWorld`]: crate::RebalanceWorld

use lcakp_core::{LcaError, LcaKp};
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use lcakp_service::{
    generate_trace, run_open_loop, AdmissionConfig, OpenLoopConfig, ServiceConfig, TrafficConfig,
    TrafficShape,
};

/// Arrivals in the calibration probe. Long enough to average out the
/// degradation ladder's per-query variance, short enough to stay
/// negligible next to one simulated case.
const PROBE_ARRIVALS: usize = 32;

/// Measures the mean per-query service cost (virtual ticks) of one
/// world: serves a [`PROBE_ARRIVALS`]-arrival back-to-back steady trace
/// on a single shard with admission disabled, and divides the final
/// tick by the arrival count. The result is never zero — schedules
/// multiply gaps by it.
///
/// The probe trace derives from `trace_root`, so a world calibrates
/// identically every time it is built from the same seeds.
///
/// # Errors
///
/// Propagates hard serving errors from [`run_open_loop`].
pub fn calibrate_cost<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    trace_root: &Seed,
    service: &ServiceConfig,
    universe: usize,
) -> Result<u64, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let probe_trace = generate_trace(
        trace_root,
        &TrafficConfig {
            shape: TrafficShape::Steady,
            arrivals: PROBE_ARRIVALS,
            mean_gap_ticks: 1,
            universe,
            shards: 1,
        },
    );
    let probe = run_open_loop(
        lca,
        oracle,
        shared_seed,
        service_root,
        &probe_trace,
        &OpenLoopConfig {
            service: service.clone(),
            admission: AdmissionConfig::default(),
            discipline: None,
            shards: 1,
        },
    )?;
    Ok((probe.end_tick / probe_trace.len() as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{TrafficWorld, WorldBase};

    /// The calibrated cost is a pure function of the seeds: pin the E17
    /// world's calibration for a fixed root so an accidental change to the probe (its length,
    /// shape, or serving config) shows up as a test failure instead of
    /// silently re-scaling every schedule in the golden files.
    #[test]
    fn calibrated_cost_is_pinned_for_a_fixed_seed() {
        let root = Seed::from_entropy_u64(0x5eed);
        let base = WorldBase::build(
            24,
            [
                root.derive("sim/slo-workload", 0),
                root.derive("sim/slo-shared", 0),
                root.derive("sim/slo-serving", 0),
            ],
        )
        .expect("world builds");
        let cost = TrafficWorld::build(base, root.derive("sim/slo-trace", 0), 2, 160)
            .expect("probe serves")
            .cost;
        assert_eq!(cost, calibrated_cost_for_seed_0x5eed());
        assert!(cost >= 1);
    }

    /// The pinned value. Kept in a helper so the assertion above reads
    /// as "the calibration did not drift".
    fn calibrated_cost_for_seed_0x5eed() -> u64 {
        22_758
    }
}
