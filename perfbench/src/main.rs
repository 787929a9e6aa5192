//! The repository's benchmark: one command, four seed-driven workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <zipf-batch|internet-mixed|pipeline-live|pipeline-max> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The inputs are generated from `--seed`; the run measures for
//! `--seconds`, checks every output against a serial reference, prints
//! the machine and run stanza and each metric with its unit and spread,
//! and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones (see README.md). A failed check exits with code 1.

mod filter_wl;
mod ledger;
mod machine;
mod pacer;
mod phase;
mod pipeline_wl;
mod reference;
mod spans;
mod staged;
mod stats;
mod traces;
mod yardstick;

use phase::Phase;
use reference::Reference;
use spans::{Off, Probe, Span, Tracer};
use stats::{Percentiles, Spread};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use traces::{TraceSpec, Traces};

const WORKLOADS: [&str; 4] = [
    "zipf-batch",
    "internet-mixed",
    "pipeline-live",
    "pipeline-max",
];
/// Spans stored for the span file of a traced run (all are aggregated).
const STORED_SPANS: usize = 1 << 18;
/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_build/perfbench-spans";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a run measures: one workload on its trace.
struct Run<'a> {
    workload: &'static str,
    items: &'a [(u64, f64)],
    /// The internet trace, the yardstick's input on the filter workloads.
    internet: &'a [(u64, f64)],
    queries: &'a [u64],
    query_every: usize,
    reference: &'a Reference,
    /// The filter seed (the pipeline's `shard_seed(0)` on pipeline
    /// workloads).
    seed: u64,
}

impl Run<'_> {
    fn e2e<P: Probe>(&self, budget: Duration, p: &mut P) -> Phase {
        let (items, reference, seed) = (self.items, self.reference, self.seed);
        match self.workload {
            "zipf-batch" => filter_wl::zipf_batch(items, self.internet, reference, seed, budget, p),
            "internet-mixed" => filter_wl::internet_mixed(
                items,
                self.queries,
                self.query_every,
                reference,
                seed,
                budget,
                p,
            ),
            "pipeline-live" => pipeline_wl::live(items, reference, seed, budget, p),
            "pipeline-max" => pipeline_wl::max(items, self.internet, reference, seed, budget, p),
            other => unreachable!("workload {other} was validated"),
        }
    }
}

/// Named metrics in output order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A metric that has no sample is reported as 0.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn median(values: &[f64]) -> f64 {
    Spread::of(values).median
}

fn print_spread(name: &str, unit: &str, values: &[f64], what: &str) {
    let s = Spread::of(values);
    println!(
        "perfbench: {name} = {} {unit} (median of {} {what}; q1 {}, q3 {})",
        s.median, s.n, s.q1, s.q3
    );
}

fn e2e_metrics(phase: &Phase, reference: &Reference) -> Metrics {
    let (mops, setup_s) = (phase.mops(), phase.setup_s());
    print_spread("host_factor", "x", &phase.host_factor, "passes");
    print_spread("measured throughput", "Mops/s", &phase.raw_mops, "passes");
    print_spread("measured set-up", "s", &phase.raw_setup_s, "set-ups");
    print_spread("throughput_mops", "Mops/s", &mops, "passes");
    print_spread("setup_s", "s", &setup_s, "set-ups");
    println!(
        "perfbench: report latency p50 {} us, p90 {} us, p99 {} us (medians over {} passes \
         of per-pass percentiles; {} reports)",
        phase.latency_us(0.5),
        phase.latency_us(0.9),
        phase.latency_us(0.99),
        phase.latency_pass_end.len(),
        phase.latency_ns.len()
    );
    let a = reference.accuracy;
    println!(
        "perfbench: f1 = {} (tp {}, fp {}, fn {}, against ExactDetector)",
        a.f1(),
        a.tp,
        a.fp,
        a.fn_
    );
    let mut m = Metrics::default();
    m.put("throughput_mops", median(&mops), "Mops/s");
    m.put("report_latency_p50_us", phase.latency_us(0.5), "us");
    m.put("report_latency_p90_us", phase.latency_us(0.9), "us");
    m.put("f1", a.f1(), "ratio");
    m.put("setup_s", median(&setup_s), "s");
    m
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn layer_metrics(
    run: &Run,
    untraced: &Phase,
    traced: &Phase,
    ledger: &ledger::Ledger,
    tracer: &Tracer,
) -> Metrics {
    let pipeline = run.workload.starts_with("pipeline");
    // Span times are reported net of the cost of recording a span,
    // measured by the empty spans taken beside the sampled items.
    let span_cost = tracer.mean_ns(Span::Empty);
    let net = |s: Span| tracer.mean_ns(s) - span_cost;
    let stats = run.reference.stats;
    let items = ledger.items;
    let insert_ns = median(&ledger.insert_ns);
    // Stage time per item: each stage's mean, weighted by how often the
    // sampled items took it.
    let sampled = tracer.count(Span::StagedInsert).max(1) as f64;
    let stage_sum: f64 = ledger::STAGES
        .iter()
        .filter(|&&s| tracer.count(s) > 0)
        .map(|&s| net(s) * tracer.count(s) as f64 / sampled)
        .sum();
    let ingest = Percentiles::of_f64(
        tracer
            .durations_ns(Span::Ingest)
            .into_iter()
            .map(|d| d - span_cost)
            .collect(),
    );
    let lag = Percentiles::of_ns(untraced.lag_ns.clone());
    let queue = Percentiles::of_f64(traced.queue_len.clone());
    let buffered = Percentiles::of_f64(traced.buffered_len.clone());
    // Share of the router's pass time spent inside `ingest`.
    let busy = if pipeline {
        ingest.mean() * traced.attempted as f64 / traced.pass_ns.max(1) as f64
    } else {
        0.0
    };
    let us = |s: Span| tracer.mean_ns(s) / 1e3;
    let when = |cond: bool, v: f64| if cond { v } else { 0.0 };

    let mut m = Metrics::default();
    m.put("hash.coords_of_ns", net(Span::CoordsOf), "ns");
    m.put("candidate.offer_or_min_ns", net(Span::OfferOrMin), "ns");
    m.put(
        "candidate.hit_ratio",
        ratio(stats.candidate_hits, items),
        "ratio",
    );
    m.put(
        "candidate.insert_ratio",
        ratio(stats.candidate_inserts, items),
        "ratio",
    );
    m.put("sketch.round_ns", net(Span::Round), "ns");
    m.put("vague.prepare_lanes_ns", net(Span::PrepareLanes), "ns");
    m.put("vague.add_and_estimate_ns", net(Span::AddAndEstimate), "ns");
    m.put(
        "vague.visit_ratio",
        ratio(stats.vague_visits, items),
        "ratio",
    );
    m.put("strategy.election_ns", net(Span::Election), "ns");
    m.put(
        "strategy.exchange_ratio",
        ratio(ledger.counts.exchanges, ledger.counts.elections),
        "ratio",
    );
    m.put("filter.report_reset_ns", net(Span::ReportReset), "ns");
    m.put("filter.insert_ns", insert_ns, "ns");
    m.put(
        "filter.insert_batch_ns",
        median(&ledger.insert_batch_ns),
        "ns",
    );
    m.put("filter.query_ns", median(&ledger.query_ns), "ns");
    m.put(
        "filter.stage_residual_frac",
        (insert_ns - stage_sum) / insert_ns,
        "fraction",
    );
    m.put(
        "pipeline.buffered_len_mean",
        when(pipeline, buffered.mean()),
        "items",
    );
    m.put(
        "pipeline.poll_reports_ns",
        when(pipeline, net(Span::PollReports)),
        "ns",
    );
    m.put(
        "pipeline.ingest_ns_p50",
        when(pipeline, ingest.at_band(0.5)),
        "ns",
    );
    m.put(
        "pipeline.ingest_ns_p99",
        when(pipeline, ingest.at_band(0.99)),
        "ns",
    );
    m.put("pipeline.ingest_samples", ingest.len() as f64, "count");
    m.put("pipeline.ingest_busy_frac", busy, "fraction");
    m.put(
        "pipeline.queue_len_p99",
        when(pipeline, queue.at(0.99)),
        "slabs",
    );
    m.put("pipeline.queue_len_samples", queue.len() as f64, "count");
    m.put(
        "pipeline.snapshot_us",
        when(run.workload == "pipeline-max", us(Span::Snapshot)),
        "us",
    );
    m.put(
        "pipeline.shutdown_us",
        when(pipeline, us(Span::Shutdown)),
        "us",
    );
    m.put(
        "supervisor.restarts",
        (untraced.restarts + traced.restarts) as f64,
        "count",
    );
    m.put(
        "supervisor.lost_to_crash",
        (untraced.lost_to_crash + traced.lost_to_crash) as f64,
        "items",
    );
    m.put("report_latency_p99_us", untraced.latency_us(0.99), "us");
    m.put(
        "report_latency_samples",
        untraced.latency_ns.len() as f64,
        "count",
    );
    let live = run.workload == "pipeline-live";
    m.put(
        "loadgen.lag_p50_us",
        when(live, lag.at_band(0.5) / 1e3),
        "us",
    );
    m.put(
        "loadgen.lag_p99_us",
        when(live, lag.at_band(0.99) / 1e3),
        "us",
    );
    m.put("loadgen.lag_samples", lag.len() as f64, "count");
    m.put(
        "bench.trace_overhead_frac",
        1.0 - median(&traced.mops()) / median(&untraced.mops()),
        "fraction",
    );
    m.put("bench.span_cost_ns", span_cost, "ns");
    m.put("mem_delta_mb", untraced.mem_delta_mb, "MiB");
    m.put(
        "failed_frac",
        ratio(untraced.failed, untraced.attempted),
        "fraction",
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let spec = TraceSpec::STANDARD;
    let t = Instant::now();
    let traces = Traces::generate(&spec, args.seed);
    let generate_s = t.elapsed().as_secs_f64();

    // The filter seed is fixed and `--seed` draws only the traces: with
    // the filter seed drawn too, the Zipf trace's candidate hit ratio
    // moved over 0.738–0.765 across seeds 1–6 (0.753–0.765 with it
    // fixed), and the work per item with it. On the pipeline workloads it
    // is the pipeline's base seed, and the reference filter is built with
    // `shard_seed(0)`.
    let filter_seed = qf_hash::mix64(0xF117_E25E_ED00);
    let internet = args.workload == "internet-mixed";
    let (items, queries) = if internet {
        (
            &traces.internet[..],
            Some((&traces.queries[..], spec.query_every)),
        )
    } else {
        (&traces.zipf[..], None)
    };
    let seed = if args.workload.starts_with("pipeline") {
        pipeline_wl::config(filter_seed).shard_seed(0)
    } else {
        filter_seed
    };
    let t = Instant::now();
    let reference = Reference::replay(items, queries, seed);
    let reference_s = t.elapsed().as_secs_f64();
    // Queries of the ledger: the workload's own on internet-mixed, else
    // every 7th key of the trace.
    let ledger_queries: Vec<u64> = if internet {
        traces.queries.clone()
    } else {
        items
            .iter()
            .step_by(spec.query_every)
            .map(|&(k, _)| k)
            .collect()
    };
    let run = Run {
        workload: args.workload,
        items,
        internet: &traces.internet,
        queries: &traces.queries,
        query_every: spec.query_every,
        reference: &reference,
        seed,
    };

    println!(
        "perfbench: machine {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}}}",
        machine::nproc(),
        machine::json_str(&machine::cpu_model()),
        machine::json_str(&machine::rustc_version())
    );
    println!(
        "perfbench: run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"trace_items\": {}, \"trace_keys\": {}, \"above_t\": {:.4}, \"queries\": {}, \
         \"reference_reports\": {}, \"query_checksum\": \"{:016x}\", \
         \"candidate_hit_ratio\": {:.4}, \"vague_visit_ratio\": {:.4}, \
         \"inputs_digest\": \"{:016x}\", \"generate_s\": {:.3}, \"reference_s\": {:.3}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        items.len(),
        traces::distinct_keys(items),
        traces::above_threshold(items),
        if internet { traces.queries.len() } else { 0 },
        reference.reports.len(),
        reference.query_checksum,
        ratio(reference.stats.candidate_hits, items.len() as u64),
        ratio(reference.stats.vague_visits, items.len() as u64),
        traces.digest(),
        generate_s,
        reference_s
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let mut errors = Vec::new();
    let (metrics, attempted, failed) = if !args.trace {
        let phase = run.e2e(budget, &mut Off);
        errors.extend(phase.errors.iter().cloned());
        (
            e2e_metrics(&phase, &reference),
            phase.attempted,
            phase.failed,
        )
    } else {
        // 60% in alternating untraced and traced passes (traced at the
        // workload's own calls), so host drift falls on both alike; 40%
        // for the per-layer ledger.
        let mut untraced = Phase::default();
        let mut traced = Phase::default();
        let mut tracer = Tracer::new(STORED_SPANS);
        let start = Instant::now();
        while start.elapsed() < budget.mul_f64(0.6) {
            untraced.absorb(run.e2e(Duration::ZERO, &mut Off));
            traced.absorb(run.e2e(Duration::ZERO, &mut tracer));
            if !untraced.errors.is_empty() || !traced.errors.is_empty() {
                break;
            }
        }
        let ledger = ledger::run(
            items,
            &ledger_queries,
            &reference,
            seed,
            budget.mul_f64(0.4),
            &mut tracer,
        );
        for e in [&untraced.errors, &traced.errors, &ledger.errors] {
            errors.extend(e.iter().cloned());
        }
        for line in tracer.summary_lines() {
            println!("perfbench: span {line}");
        }
        let path = Path::new(SPAN_DIR).join(format!("{}.csv", args.workload));
        match tracer.write_csv(&path) {
            Ok(n) => println!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        print_spread(
            "untraced throughput_mops",
            "Mops/s",
            &untraced.mops(),
            "passes",
        );
        print_spread("traced throughput_mops", "Mops/s", &traced.mops(), "passes");
        let m = layer_metrics(&run, &untraced, &traced, &ledger, &tracer);
        (
            m,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        )
    };
    for (name, value, unit) in &metrics.0 {
        println!("perfbench: metric {name} = {value} {unit}");
    }
    let correct = errors.is_empty();
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
