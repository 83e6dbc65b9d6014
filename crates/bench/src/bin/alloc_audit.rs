//! Allocation audit for the serving hot path (ROADMAP: zero-alloc
//! serving). A counting `#[global_allocator]` wraps the system
//! allocator and reports, as canonical JSON:
//!
//!   1. the E14 smoke serving path (`run_smoke`): total allocations,
//!      total bytes, and per-query averages across the batch (no peak:
//!      the pool's worker threads interleave their live allocations, so
//!      the high-water mark differs run to run);
//!   2. a steady-state loop of `query_with_audit_in` with one reused
//!      [`QueryScratch`]: after the warm-up query has sized the scratch
//!      buffers (including the rQuantile key, sort and map buffers),
//!      per-query allocations come only from what the query builds and
//!      keeps — the threshold keys, the Ĩ item list, and the rule;
//!   3. the served path: `replay_shard_traffic` (one shard's
//!      `ShardCore` stepping admitted arrivals through the degradation
//!      ladder) over the same arrivals at two trace lengths. The
//!      difference, divided by the extra arrivals, is what one more
//!      served query allocates once the core's buffers are warm;
//!   4. the oracle build: `InstanceOracle::new` over a fixed
//!      `LargeDominated` instance of `ORACLE_BUILD_ITEMS` items, on this
//!      one thread, with its allocations, bytes and peak live bytes
//!      above the section's entry.
//!
//! Every printed field repeats exactly run to run (CI diffs two runs).
//!
//! The steady-state section also reports `scratch_bytes`: the live
//! bytes the scratch holds after the warm-up query (the query's answer
//! is dropped by then, so nothing else stays live).
//!
//! `--check` exits nonzero if the steady-state per-query allocation
//! count exceeds `STEADY_ALLOC_BUDGET`, the warm scratch holds more than
//! `SCRATCH_BYTES_BUDGET` bytes, the served path's per-arrival count
//! exceeds `SERVED_ALLOCS_PER_ARRIVAL`, or the oracle build exceeds
//! `ORACLE_BUILD_ALLOCS` allocations or `ORACLE_BUILD_PEAK_BYTES` peak
//! bytes — the CI smoke that keeps allocation and memory regressions out
//! of the serving loop and the oracle's set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use lcakp_bench::experiment_root;
use lcakp_canon::object;
use lcakp_core::{LcaKp, QueryScratch, ResponseTier};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::ItemId;
use lcakp_oracle::InstanceOracle;
use lcakp_reproducible::SampleBudget;
use lcakp_service::{replay_shard_traffic, run_smoke, Arrival, ServiceConfig};
use lcakp_workloads::{Family, WorkloadSpec};

/// Steady-state per-query allocation budget, enforced by `--check`.
/// Measured 5 allocations/query on the reference configuration: the
/// threshold keys, three growth steps of the Ĩ item list, and one for
/// the rule — sites `docs/lints.md` lists as allowed under D011. The
/// budget leaves 4x headroom so only a structural regression — a hoisted
/// buffer moving back into the query path — trips it.
const STEADY_ALLOC_BUDGET: u64 = 20;

/// Live bytes the steady-state section's `QueryScratch` holds after its
/// warm-up query, enforced by `--check`. Pinned at the measured value
/// with no headroom: the keys are sampled into the 64-bit sort record
/// buffer, rQuantile's permutation is built in the sort's dead second
/// buffer, and a map keeps one group byte per real position (plus one
/// that takes the pads' writes). A separate key or permutation buffer
/// back in the scratch would add ~0.57 MB, a record buffer back at 128
/// bits as much, and maps over every padded position ~0.2 MB.
const SCRATCH_BYTES_BUDGET: u64 = 1_513_076;

/// Served-path allocations per extra arrival, enforced by `--check`.
/// Measured 5: exactly what one query builds and keeps (the sites
/// `STEADY_ALLOC_BUDGET` lists). No headroom — the shard step around
/// the query (dispatch, fault layer, ladder, clock) must allocate
/// nothing of its own.
const SERVED_ALLOCS_PER_ARRIVAL: u64 = 5;

/// Items in the oracle-build section's instance.
const ORACLE_BUILD_ITEMS: usize = 1 << 16;

/// Allocations of `InstanceOracle::new` over that instance, enforced by
/// `--check`. Pinned at the measured value with no headroom: the alias
/// table's two vectors and nothing else.
const ORACLE_BUILD_ALLOCS: u64 = 2;

/// Peak live bytes of the same build above its entry, enforced by
/// `--check`. Pinned at the measured value with no headroom: 12 bytes per
/// item (`prob` and `alias`). A profit copy would add 8 bytes per item,
/// and 128-bit scaled masses 16.
const ORACLE_BUILD_PEAK_BYTES: u64 = 12 * ORACLE_BUILD_ITEMS as u64;

/// Trace lengths of the served section's two replays.
const SERVED_SHORT: usize = 16;
const SERVED_LONG: usize = 80;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

/// Counts every allocation event and tracks live/peak bytes. `realloc`
/// counts as one event for its full new size: growing a `Vec` without
/// reserved capacity is exactly the regression this audit watches for.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[derive(Clone, Copy)]
struct Snapshot {
    allocs: u64,
    bytes: u64,
    peak: u64,
}

fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Counter deltas across a measured section. Peak is reset at section
/// entry so it reports the section's own high-water mark over the
/// section's entry live bytes.
fn begin_section() -> Snapshot {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    snapshot()
}

struct Section {
    allocs: u64,
    bytes: u64,
    peak: u64,
}

fn end_section(start: Snapshot) -> Section {
    let now = snapshot();
    Section {
        allocs: now.allocs - start.allocs,
        bytes: now.bytes - start.bytes,
        peak: now.peak,
    }
}

/// Integer per-query average in thousandths, keeping the JSON free of
/// platform-dependent float formatting.
fn per_query_milli(total: u64, queries: u64) -> u64 {
    if queries == 0 {
        return 0;
    }
    total.saturating_mul(1000) / queries
}

fn main() {
    // lcakp-lint: allow(D002) reason="--check flag selects CI gating, no entropy involved"
    let check = std::env::args().any(|a| a == "--check");

    // Section 1: the E14 smoke serving path, end to end (workload
    // generation, journal, breaker, the works).
    let smoke_start = begin_section();
    let run = run_smoke(&experiment_root("e14")).expect("e14 smoke runs");
    let smoke = end_section(smoke_start);
    let smoke_queries = run.report.outcomes.len() as u64;

    // Section 2: steady-state queries with a reused scratch. Setup and
    // warm-up are outside the measured window: the warm-up query sizes
    // the scratch buffers, so the measured loop sees only the
    // allocations the scratch hoisting could not remove.
    let root = experiment_root("alloc-audit");
    let spec = WorkloadSpec::new(Family::SmallDominated, 400, 0xA110C);
    let norm = spec.generate_normalized().expect("workload generates");
    let oracle = InstanceOracle::new(&norm);
    let eps = Epsilon::new(1, 4).expect("valid eps");
    let lca = LcaKp::new(eps)
        .expect("lca builds")
        .with_budget(SampleBudget::Calibrated { factor: 0.01 });
    let shared_seed = root.derive("alloc-audit/shared-seed", 0);
    let mut rng = root.derive("alloc-audit/sampling", 0).rng();
    let mut scratch = QueryScratch::default();

    let live_before_warm_up = LIVE.load(Relaxed);
    lca.query_with_audit_in(&oracle, &mut rng, ItemId(0), &shared_seed, &mut scratch)
        .expect("warm-up query");
    // The query's own answer is dropped, so what stays live is what the
    // scratch holds.
    let scratch_bytes = LIVE.load(Relaxed) - live_before_warm_up;

    let steady_queries = 64u64;
    let steady_start = begin_section();
    for i in 0..steady_queries {
        let item = ItemId((i as usize * 7) % norm.len());
        lca.query_with_audit_in(&oracle, &mut rng, item, &shared_seed, &mut scratch)
            .expect("steady-state query");
    }
    let steady = end_section(steady_start);
    let steady_per_query = steady.allocs.div_ceil(steady_queries);

    // Section 3: the served path. Both replays serve a prefix of the
    // same admitted arrivals on a fresh core, so the difference between
    // them is the cost of the extra arrivals alone.
    let service = ServiceConfig {
        deadline_ticks: u64::MAX / 2,
        ..ServiceConfig::default()
    };
    let service_root = root.derive("alloc-audit/service", 0);
    let admitted: Vec<(usize, Arrival)> = (0..SERVED_LONG)
        .map(|index| {
            let arrival = Arrival {
                at_tick: index as u64 * 1_000,
                item: ItemId((index * 7) % norm.len()),
                shard: 0,
                extra_cost_ticks: 0,
            };
            (index, arrival)
        })
        .collect();
    let replay = |arrivals: &[(usize, Arrival)]| {
        let start = begin_section();
        let answers = replay_shard_traffic(
            &lca,
            &oracle,
            &shared_seed,
            &service_root,
            arrivals,
            0,
            &service,
        )
        .expect("served replay");
        let section = end_section(start);
        assert!(
            answers
                .iter()
                .all(|(_, answer)| answer.tier == ResponseTier::Full),
            "the served section measures the full-tier path"
        );
        section.allocs
    };
    let served_short = replay(&admitted[..SERVED_SHORT]);
    let served_long = replay(&admitted);
    let served_per_arrival = served_long
        .saturating_sub(served_short)
        .div_ceil((SERVED_LONG - SERVED_SHORT) as u64);

    // Section 4: the oracle build, on this thread alone so that its peak
    // repeats run to run. The instance is generated outside the window.
    let build_norm = WorkloadSpec::new(
        Family::LargeDominated {
            heavy: 24,
            heavy_profit: 1 << 20,
        },
        ORACLE_BUILD_ITEMS,
        0xB11D,
    )
    .generate_normalized()
    .expect("oracle-build workload generates");
    let live_before_build = LIVE.load(Relaxed);
    let build_start = begin_section();
    let build_oracle = InstanceOracle::new(&build_norm);
    let build = end_section(build_start);
    drop(build_oracle);
    let build_peak = build.peak - live_before_build;

    let smoke_allocs_milli = per_query_milli(smoke.allocs, smoke_queries);
    let smoke_bytes_milli = per_query_milli(smoke.bytes, smoke_queries);
    let counters = |counts: &[(&'static str, u64)]| {
        object(counts.iter().map(|&(key, count)| (key, count.to_string())))
    };
    let report = object([
        (
            "smoke",
            counters(&[
                ("queries", smoke_queries),
                ("allocations", smoke.allocs),
                ("bytes", smoke.bytes),
                ("allocations_per_query_milli", smoke_allocs_milli),
                ("bytes_per_query_milli", smoke_bytes_milli),
            ]),
        ),
        (
            "steady_state",
            counters(&[
                ("queries", steady_queries),
                ("allocations", steady.allocs),
                ("bytes", steady.bytes),
                ("peak_bytes", steady.peak),
                ("allocations_per_query", steady_per_query),
                ("budget_per_query", STEADY_ALLOC_BUDGET),
                ("scratch_bytes", scratch_bytes),
                ("scratch_bytes_budget", SCRATCH_BYTES_BUDGET),
            ]),
        ),
        (
            "served",
            counters(&[
                ("short_arrivals", SERVED_SHORT as u64),
                ("short_allocations", served_short),
                ("long_arrivals", SERVED_LONG as u64),
                ("long_allocations", served_long),
                ("allocations_per_arrival", served_per_arrival),
                ("pinned_per_arrival", SERVED_ALLOCS_PER_ARRIVAL),
            ]),
        ),
        (
            "oracle_build",
            counters(&[
                ("items", ORACLE_BUILD_ITEMS as u64),
                ("allocations", build.allocs),
                ("bytes", build.bytes),
                ("peak_bytes", build_peak),
                ("pinned_allocations", ORACLE_BUILD_ALLOCS),
                ("pinned_peak_bytes", ORACLE_BUILD_PEAK_BYTES),
            ]),
        ),
    ]);
    println!("{report}");

    let mut failed = false;
    if check && steady_per_query > STEADY_ALLOC_BUDGET {
        eprintln!(
            "alloc_audit: steady-state allocations per query {steady_per_query} exceeds \
             budget {STEADY_ALLOC_BUDGET}"
        );
        failed = true;
    }
    if check && scratch_bytes > SCRATCH_BYTES_BUDGET {
        eprintln!(
            "alloc_audit: the warm query scratch holds {scratch_bytes} bytes, above the \
             pinned {SCRATCH_BYTES_BUDGET}"
        );
        failed = true;
    }
    if check && served_per_arrival > SERVED_ALLOCS_PER_ARRIVAL {
        eprintln!(
            "alloc_audit: served-path allocations per arrival {served_per_arrival} exceed \
             the pinned {SERVED_ALLOCS_PER_ARRIVAL}"
        );
        failed = true;
    }
    if check && build.allocs > ORACLE_BUILD_ALLOCS {
        eprintln!(
            "alloc_audit: the oracle build made {} allocations, above the pinned \
             {ORACLE_BUILD_ALLOCS}",
            build.allocs
        );
        failed = true;
    }
    if check && build_peak > ORACLE_BUILD_PEAK_BYTES {
        eprintln!(
            "alloc_audit: the oracle build peaked at {build_peak} live bytes, above the \
             pinned {ORACLE_BUILD_PEAK_BYTES}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
