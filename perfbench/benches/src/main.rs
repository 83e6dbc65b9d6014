//! The lca-knapsack benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/benches/Cargo.toml -- \
//!     --workload <estimate-heavy|served-cluster|big-n> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics and writes the run's spans next to the binary.
//! Every metric is printed by name with its unit, and the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is nonzero if any correctness
//! gate fails. `perfbench/README.md` explains the workloads and metrics.

mod closed;
mod measure;
mod probe;
mod served;
mod trace;
mod world;

use closed::{audit, fullscan_us, run_loop, Client, Gates, QueryLog};
use lcakp_core::LcaError;
use lcakp_knapsack::ItemId;
use lcakp_oracle::{InstanceOracle, ItemOracle, WeightedSampler};
use measure::{median, min_samples_for, percentile, Permille};
use probe::{now, ns_since, peak_rss_mib, timer_overhead_ns, SpanLog, TracedOracle};
use served::{
    answered_items, check_replay, full_tier_answers, measure_layers, replay, serve, summarize,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::{traced_query, LayerTotals};
use world::{with_world, Serving, SetupTimes, Workload, World};

#[global_allocator]
static ALLOCATOR: probe::CountingAlloc = probe::CountingAlloc;

/// End-to-end metrics: name and unit, as `BENCHMARK.json` declares them.
const END_TO_END: &[(&str, &str)] = &[
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("throughput_qps", "1/s"),
    ("accesses_per_query", "count"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("availability_permille", "permille"),
    ("served_p99_ticks", "ticks"),
    ("consistency_permille", "permille"),
    ("value_permille", "permille"),
];

/// Per-layer metrics: name and unit, as `BENCHMARK.json` declares them.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("oracle.build_s", "s"),
    ("oracle.weighted_samples_per_query", "count"),
    ("oracle.point_queries_per_query", "count"),
    ("oracle.sample_ns", "ns"),
    ("oracle.share_permille", "permille"),
    ("reproducible.rquantile_calls_per_query", "count"),
    ("reproducible.rquantile_sample_len", "count"),
    ("reproducible.rquantile_us", "us"),
    ("reproducible.share_permille", "permille"),
    ("iky.tilde_items", "count"),
    ("iky.build_us", "us"),
    ("core.convert_greedy_us", "us"),
    ("core.large_items_per_query", "count"),
    ("core.eps_thresholds_per_query", "count"),
    ("core.self_us", "us"),
    ("core.allocs_per_query", "count"),
    ("core.alloc_bytes_per_query", "bytes"),
    ("baseline.fullscan_query_us", "us"),
    ("service.self_us_per_arrival", "us"),
    ("service.share_permille", "permille"),
    ("journal.records", "count"),
    ("journal.bytes_per_answer", "bytes"),
    ("journal.encode_ns", "ns"),
    ("journal.decode_us", "us"),
    ("ring.route_ns", "ns"),
    ("admission.sheds", "count"),
    ("admission.transitions", "count"),
    ("cluster.promotions", "count"),
    ("cluster.failovers", "count"),
    ("cluster.final_epoch", "count"),
    ("slo.deadline_missed", "count"),
    ("trace.overhead_permille", "permille"),
];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One run's result: metrics in declaration order, plus human notes.
#[derive(Debug)]
struct Report {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Report {
            declared,
            values: vec![None; declared.len()],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let index = self
            .declared
            .iter()
            .position(|&(declared, _)| declared == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.values[index] = Some(value);
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Prints every metric and note, then the JSON result line. Returns
    /// whether the run is correct.
    fn print(&self, gates: &Gates) -> bool {
        let mut correct = gates.passed();
        let mut json = String::new();
        for (&(name, unit), value) in self.declared.iter().zip(&self.values) {
            match value {
                Some(value) if value.is_finite() => {
                    println!("{name:<40} {value:>16.4} {unit}");
                    if !json.is_empty() {
                        json.push_str(", ");
                    }
                    let _ = write!(
                        json,
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    );
                }
                _ => {
                    println!("{name:<40} {:>16} {unit}  (not measured)", "-");
                    correct = false;
                }
            }
        }
        for note in &self.notes {
            println!("  {note}");
        }
        for failure in gates.failures() {
            println!("GATE FAILED: {failure}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// The per-query virtual service time the serving runtime charges a
/// query with no queue ahead of it: one dispatch tick plus one tick per
/// counted access (`CostModel::flat(1)`).
fn service_ticks(accesses: u64) -> f64 {
    (accesses + 1) as f64
}

/// Fills the metrics every workload shares from the closed-loop or
/// replay query log.
fn report_queries(report: &mut Report, log: &QueryLog) {
    let mut latencies = log.latencies_us.clone();
    latencies.sort_by(f64::total_cmp);
    if let Some(p50) = percentile(&latencies, 50.0) {
        report.set("query_p50_us", p50);
    }
    if let Some(p90) = percentile(&latencies, 90.0) {
        report.set("query_p90_us", p90);
    }
    report.note(format!(
        "query latency over {} answered queries",
        latencies.len()
    ));
}

fn report_setup(report: &mut Report, setup: SetupTimes) {
    report.set("setup_s", setup.total_s);
    report.note(format!(
        "setup_s = median of set-ups (generation {:.6} s, oracle {:.6} s, rest incl. warm-up)",
        setup.generate_s, setup.oracle_s
    ));
}

fn report_audit<O>(
    report: &mut Report,
    world: &World,
    oracle: &O,
    answers: &[(ItemId, bool)],
    gates: &mut Gates,
) -> Result<(), LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let audit = audit(world, oracle, answers, gates)?;
    report.set("consistency_permille", audit.consistency.value());
    report.set("value_permille", audit.value.value());
    report.note(format!(
        "consistency {} answers agree with an independent rule",
        audit.consistency
    ));
    report.note(format!(
        "value {} of the fractional upper bound",
        audit.value
    ));
    Ok(())
}

/// The untraced run: end-to-end metrics.
fn end_to_end(
    args: &Args,
    world: &World,
    oracle: &InstanceOracle<'_>,
    serving: Option<&Serving>,
    setup: SetupTimes,
) -> Result<(Report, Gates), LcaError> {
    let mut report = Report::new(END_TO_END);
    let mut gates = Gates::default();
    let mut client = Client::new(world.sampling_rng());
    report_setup(&mut report, setup);
    let (log, answers) = match serving {
        None => {
            let mut items = world.item_stream();
            let min_queries = min_samples_for(90.0);
            let (log, rates) = run_loop(
                world,
                oracle,
                &mut client,
                &mut items,
                args.seconds,
                min_queries as u64,
                &mut gates,
            );
            report.set("throughput_qps", median(&rates));
            report.note(format!(
                "throughput_qps = median of {} one-second batches",
                rates.len()
            ));
            report.set(
                "availability_permille",
                Permille {
                    part: log.answered(),
                    base: log.attempted,
                }
                .value(),
            );
            // The deterministic metrics come from the first queries only,
            // which the seed fixes; how many more fit in the run varies.
            let fixed = log.answers.len().min(min_queries);
            let accesses = &log.accesses[..fixed];
            let max_ticks = accesses
                .iter()
                .map(|&a| service_ticks(a))
                .fold(0.0, f64::max);
            report.set("served_p99_ticks", max_ticks);
            report.set(
                "accesses_per_query",
                accesses.iter().sum::<u64>() as f64 / fixed.max(1) as f64,
            );
            report.note(format!(
                "accesses, served_p99_ticks (their maximum) and consistency over the first {fixed} queries"
            ));
            report.attempted = log.attempted;
            report.failed = log.failed;
            let answers = log.answers[..fixed].to_vec();
            (log, answers)
        }
        Some(serving) => {
            let mut throughputs = Vec::new();
            // Room for 64 replays of the trace, more than a run fits.
            let mut log = QueryLog::with_capacity(serving.trace.len() * 64);
            let mut first = None;
            let start = now();
            while throughputs.len() < 3 || (ns_since(start) as f64) < args.seconds * 1e9 {
                let (served, serve_ns) = serve(world, oracle, serving)?;
                let items = answered_items(&served);
                throughputs.push(items.len() as f64 / (serve_ns as f64 / 1e9));
                replay(world, oracle, &mut client, &items, &mut log, &mut gates);
                match &first {
                    None => first = Some(served),
                    Some(first) => gates.check(served == *first, || {
                        "two serves of the same trace differ".to_string()
                    }),
                }
            }
            let first = first.expect("at least one serve ran");
            check_replay(world, oracle, serving, &first, &mut gates)?;
            let summary = summarize(&first);
            report.set("throughput_qps", median(&throughputs));
            report.set("availability_permille", summary.availability.value());
            if let Some(p99) = summary.p99_ticks {
                report.set("served_p99_ticks", p99);
            }
            report.note(format!(
                "throughput_qps = median of {} serves of {} arrivals ({} answered)",
                throughputs.len(),
                summary.offered,
                summary.answered
            ));
            report.note(format!(
                "availability {} full-tier answers within deadline of offered",
                summary.availability
            ));
            report.note(format!(
                "calibrated cost {} ticks per query; trace offered at {} ticks mean gap",
                serving.cost,
                serving.trace.last().map_or(0, |arrival| arrival.at_tick)
                    / serving.trace.len().max(1) as u64
            ));
            report.set("accesses_per_query", summary.accesses_per_answer);
            report.attempted = summary.offered;
            report.failed = summary.degraded;
            gates.check(log.failed == 0, || {
                format!("{} replayed queries failed", log.failed)
            });
            (log, full_tier_answers(&first))
        }
    };
    report_queries(&mut report, &log);
    report_audit(&mut report, world, oracle, &answers, &mut gates)?;
    if let Some(rss) = peak_rss_mib() {
        report.set("peak_rss_mib", rss);
    }
    Ok((report, gates))
}

/// Arrivals in the short served pass that measures the serving layers
/// on the closed-loop workloads.
fn layer_pass_arrivals(workload: Workload) -> usize {
    match workload {
        Workload::EstimateHeavy => 32,
        Workload::ServedCluster => world::SERVED_ARRIVALS,
        Workload::BigN => 500,
    }
}

/// The traced run: per-layer metrics, spans, tracing overhead.
fn per_layer(
    args: &Args,
    world: &World,
    oracle: &InstanceOracle<'_>,
    serving: Option<&Serving>,
    setup: SetupTimes,
) -> Result<(Report, Gates), LcaError> {
    let mut report = Report::new(PER_LAYER);
    let mut gates = Gates::default();
    let mut client = Client::new(world.sampling_rng());
    report.set("workloads.generate_s", setup.generate_s);
    report.set("oracle.build_s", setup.oracle_s);

    // The serving layers, on the workload's own trace or a short one.
    let built;
    let serving = match serving {
        Some(serving) => serving,
        None => {
            built = Serving::build(world, oracle, layer_pass_arrivals(world.workload))?;
            &built
        }
    };
    let (layers, served) = measure_layers(world, oracle, serving, &mut client, &mut gates)?;
    check_replay(world, oracle, serving, &served, &mut gates)?;

    // Queried items: on served-cluster the served answers, cycled;
    // elsewhere the closed loop's item stream.
    let replayed = match world.workload {
        Workload::ServedCluster => answered_items(&served),
        _ => Vec::new(),
    };
    let mut next = 0usize;
    let mut stream = world.item_stream();
    let mut items = move || match replayed.get(next % replayed.len().max(1)) {
        Some(&item) => {
            next += 1;
            item
        }
        None => stream(),
    };

    // A third of the time untraced, two thirds traced: the difference of
    // their median latencies is the tracing overhead.
    let (plain, _) = run_loop(
        world,
        oracle,
        &mut client,
        &mut items,
        args.seconds / 3.0,
        20,
        &mut gates,
    );
    let mut spans = SpanLog::new();
    let reserve = usize::try_from(world.lca.worst_case_accesses()).unwrap_or(0);
    let traced = TracedOracle::new(oracle, spans.origin, timer_overhead_ns(), true, reserve);
    let mut totals = LayerTotals::default();
    let mut log = QueryLog::default();
    let start = now();
    while log.attempted < 10 || (ns_since(start) as f64) < args.seconds * 2e9 / 3.0 {
        let item = items();
        traced_query(
            world,
            oracle,
            &traced,
            &mut client,
            item,
            &mut spans,
            &mut totals,
            &mut log,
            &mut gates,
        )?;
    }
    let plain_p50 = median(&plain.latencies_us);
    let traced_p50 = median(&log.latencies_us);
    report.set(
        "trace.overhead_permille",
        (traced_p50 - plain_p50) / plain_p50 * 1000.0,
    );
    report.note(format!(
        "tracing overhead: median query {traced_p50:.3} µs traced ({} queries) vs {plain_p50:.3} µs untraced ({} queries)",
        log.latencies_us.len(),
        plain.latencies_us.len()
    ));
    report.attempted = plain.attempted + log.attempted;
    report.failed = plain.failed + log.failed;

    match world.workload {
        Workload::ServedCluster => {
            report.set(
                "oracle.weighted_samples_per_query",
                layers.samples as f64 / layers.answered.max(1) as f64,
            );
            report.set(
                "oracle.point_queries_per_query",
                layers.points as f64 / layers.answered.max(1) as f64,
            );
            report.set(
                "oracle.sample_ns",
                layers.sample_ns as f64 / layers.samples.max(1) as f64,
            );
            report.set("oracle.share_permille", layers.oracle_share.value());
            report.note(format!(
                "oracle share {} of the traced serve's wall ns",
                layers.oracle_share
            ));
        }
        _ => {
            report.set(
                "oracle.weighted_samples_per_query",
                totals.per_query(totals.samples),
            );
            report.set(
                "oracle.point_queries_per_query",
                totals.per_query(totals.points),
            );
            report.set(
                "oracle.sample_ns",
                totals.sample_ns as f64 / totals.samples.max(1) as f64,
            );
            let share = Permille {
                part: totals.oracle_ns,
                base: totals.query_ns,
            };
            report.set("oracle.share_permille", share.value());
            report.note(format!("oracle share {share} of traced query ns"));
        }
    }
    let repro_share = Permille {
        part: totals.rquantile_ns,
        base: totals.query_ns,
    };
    report.set(
        "reproducible.rquantile_calls_per_query",
        totals.per_query(totals.rquantile_calls),
    );
    report.set(
        "reproducible.rquantile_sample_len",
        totals.rquantile_sample_len as f64 / totals.rquantile_calls.max(1) as f64,
    );
    report.set(
        "reproducible.rquantile_us",
        totals.rquantile_ns as f64 / totals.rquantile_calls.max(1) as f64 / 1e3,
    );
    report.set("reproducible.share_permille", repro_share.value());
    report.note(format!(
        "reproducible share {repro_share} of traced query ns"
    ));
    report.set("iky.tilde_items", totals.per_query(totals.tilde_items));
    report.set("iky.build_us", totals.per_query(totals.iky_ns) / 1e3);
    report.set(
        "core.convert_greedy_us",
        totals.per_query(totals.convert_ns) / 1e3,
    );
    report.set(
        "core.large_items_per_query",
        totals.per_query(totals.large_items),
    );
    report.set(
        "core.eps_thresholds_per_query",
        totals.per_query(totals.thresholds),
    );
    report.set("core.self_us", totals.per_query(totals.self_ns) / 1e3);
    report.set("core.allocs_per_query", totals.per_query(totals.allocs));
    report.set(
        "core.alloc_bytes_per_query",
        totals.per_query(totals.alloc_bytes),
    );
    report.set("baseline.fullscan_query_us", fullscan_us(world, oracle)?);

    report.set("service.self_us_per_arrival", layers.service_self_us);
    report.set("service.share_permille", layers.service_share_permille);
    report.set("journal.records", layers.journal_records as f64);
    report.set(
        "journal.bytes_per_answer",
        layers.journal_bytes as f64 / layers.answered.max(1) as f64,
    );
    report.set("journal.encode_ns", layers.encode_ns);
    report.set("journal.decode_us", layers.decode_us);
    report.set("ring.route_ns", layers.route_ns);
    report.set("admission.sheds", layers.sheds as f64);
    report.set("admission.transitions", layers.transitions as f64);
    report.set("cluster.promotions", layers.promotions as f64);
    report.set("cluster.failovers", layers.failovers as f64);
    report.set("cluster.final_epoch", layers.final_epoch as f64);
    report.set("slo.deadline_missed", layers.deadline_missed as f64);
    report.note(format!(
        "serving layers measured on {} arrivals ({} answered)",
        serving.trace.len(),
        layers.answered
    ));

    let path = spans_path(args);
    match spans.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(error) => gates.check(false, || format!("writing spans: {error}")),
    }
    Ok((report, gates))
}

/// Where the traced run writes its spans: beside the benchmark binary,
/// inside the build directory.
fn spans_path(args: &Args) -> std::path::PathBuf {
    // lcakp-lint: allow(D002) reason="locates the build directory to write the span file into; the path never reaches the program"
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    dir.join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    // lcakp-lint: allow(D002) reason="command-line flags select the workload and its seed; the seed is the only randomness the program receives"
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <estimate-heavy|served-cluster|big-n> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = with_world(args.workload, args.seed, |world, oracle, serving, setup| {
        if args.trace {
            per_layer(&args, world, oracle, serving, setup)
        } else {
            end_to_end(&args, world, oracle, serving, setup)
        }
    });
    match run.and_then(|result| result) {
        Ok((report, gates)) => {
            if report.print(&gates) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_string));
        let args = parse("--workload big-n --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::BigN);
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload big-n --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload big-n --seconds 1").is_err());
        assert!(parse("--workload big-n --seed 1 --seconds 1 --trace 2").is_err());
    }

    /// The metrics the code reports are exactly those `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../../BENCHMARK.json");
        let section = |key: &str, next: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |i| start + i);
            &json[start..end]
        };
        for (declared, text) in [
            (END_TO_END, section("end_to_end", "per_layer")),
            (PER_LAYER, section("per_layer", "end_to_end")),
        ] {
            let listed: Vec<(&str, &str)> = text
                .split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = &entry[..entry.find('"').expect("name closes")];
                    let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
                    let unit =
                        &entry[unit_at..unit_at + entry[unit_at..].find('"').expect("unit closes")];
                    (name, unit)
                })
                .collect();
            assert_eq!(listed, declared.to_vec());
        }
    }

    #[test]
    fn declared_metrics_are_unique() {
        for declared in [END_TO_END, PER_LAYER] {
            let mut names: Vec<&str> = declared.iter().map(|&(name, _)| name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), declared.len());
        }
    }
}
