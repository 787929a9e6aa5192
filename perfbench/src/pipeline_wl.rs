//! The pipeline workloads, `pipeline-live` and `pipeline-max`: one shard,
//! `Block` policy, queue 1024, slab 256, on the Zipf trace.
//!
//! Each pass launches a fresh pipeline (timed as set-up), replays the
//! whole trace, and shuts it down. The shard's reports must equal the
//! serial reference, a filter built with `PipelineConfig::shard_seed(0)`,
//! one-to-one and in order, and both conservation laws must hold.
//! `pipeline-max`'s figures are normalized by a host factor taken on the
//! worker's CPU around each pass; `pipeline-live` runs at a fixed rate
//! and is not normalized.

use crate::pacer::Pacer;
use crate::phase::Phase;
use crate::reference::{criteria, Checker, Reference, FILTER_BYTES};
use crate::spans::{Probe, Span};
use crate::yardstick::Yardstick;
use qf_pipeline::{
    BackpressurePolicy, IngestOutcome, Pipeline, PipelineConfig, PipelineError, PipelineSummary,
    SupervisorConfig,
};
use std::time::{Duration, Instant};

/// Offered rate of `pipeline-live`, items per second.
pub const LIVE_RATE: u64 = 2_000_000;
/// Every this many items, one `ingest` (and one `poll_reports`) call is
/// wrapped in a span and the slab fill and queue depth are sampled. The
/// stride is prime so the sample does not fall into step with the slab
/// flushes (every 256th item).
pub const SPAN_STRIDE: usize = 61;
/// Every this many items one generator-lag sample is kept.
const LAG_STRIDE: usize = 16;
/// `pipeline-max` drains the report sink every this many items.
const MAX_POLL_EVERY: usize = 4096;
/// Yardstick slices per thread in each host probe of `pipeline-max`
/// (about 4 ms).
const PROBE_SLICES: usize = 160;

/// The host factor of the CPU the worker runs on: a yardstick on a new
/// thread, which the scheduler places on the other CPU because this
/// thread keeps its own busy with a second yardstick meanwhile (the
/// worker, spawned the same way at launch, lands there too).
fn probe_worker_cpu(yards: &mut [Yardstick; 2]) -> f64 {
    fn probe(y: &mut Yardstick) {
        y.start_pass();
        for _ in 0..PROBE_SLICES {
            y.slice();
        }
    }
    let [here, there] = yards;
    std::thread::scope(|s| {
        s.spawn(|| probe(there));
        probe(here);
    });
    there.host_factor()
}

pub fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        shards: 1,
        criteria: criteria(),
        memory_bytes_per_shard: FILTER_BYTES,
        queue_capacity: 1024,
        slab_capacity: 256,
        policy: BackpressurePolicy::Block,
        seed,
    }
}

/// Drain the sink once; the latency of the reference's `k`-th report
/// runs from `since(k)` to the moment `poll_reports` returned it.
#[inline]
fn poll<P: Probe>(
    pipe: &mut Pipeline,
    p: &mut P,
    traced: bool,
    check: &mut Checker,
    latency: &mut Vec<u64>,
    since: impl Fn(usize) -> Instant,
) {
    if traced {
        p.enter(Span::PollReports);
    }
    let events = pipe.poll_reports();
    if traced {
        p.exit();
    }
    if events.is_empty() {
        return;
    }
    let now = Instant::now();
    for ev in events {
        if let Some(k) = check.see(None, ev.key, &ev.report) {
            latency.push(now.saturating_duration_since(since(k)).as_nanos() as u64);
        }
    }
}

/// Close a pass: shut down, check the leftover reports and the
/// accounting. Returns the summary and the shutdown time.
fn finish<P: Probe>(
    what: &str,
    pipe: Pipeline,
    p: &mut P,
    mut check: Checker,
    phase: &mut Phase,
    since: impl Fn(usize) -> Instant,
) -> Option<(PipelineSummary, Instant)> {
    p.enter(Span::Shutdown);
    let summary = pipe.shutdown();
    p.exit();
    let end = Instant::now();
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            phase.errors.push(format!("{what}: shutdown failed: {e}"));
            return None;
        }
    };
    for ev in &summary.reports {
        if let Some(k) = check.see(None, ev.key, &ev.report) {
            phase
                .latency_ns
                .push(end.saturating_duration_since(since(k)).as_nanos() as u64);
        }
    }
    check.finish(
        &format!("{what} shard 0 vs serial reference"),
        &mut phase.errors,
    );
    let s = &summary;
    if s.offered != s.enqueued + s.dropped + s.rejected {
        phase.errors.push(format!(
            "{what}: offered {} != enqueued {} + dropped {} + rejected {}",
            s.offered, s.enqueued, s.dropped, s.rejected
        ));
    }
    if s.enqueued != s.processed + s.shed + s.lost_to_crash {
        phase.errors.push(format!(
            "{what}: enqueued {} != processed {} + shed {} + lost_to_crash {}",
            s.enqueued, s.processed, s.shed, s.lost_to_crash
        ));
    }
    if s.restarts != 0 {
        phase.errors.push(format!(
            "{what}: {} worker restarts without faults",
            s.restarts
        ));
    }
    phase.attempted += s.offered;
    phase.failed += s.offered - s.processed.min(s.offered);
    phase.restarts += s.restarts;
    phase.lost_to_crash += s.lost_to_crash;
    Some((summary, end))
}

/// Whether an item was admitted; anything else is an error under `Block`.
fn admitted(
    what: &str,
    i: usize,
    outcome: Result<IngestOutcome, PipelineError>,
    phase: &mut Phase,
) -> bool {
    match outcome {
        Ok(IngestOutcome::Enqueued) => true,
        Ok(other) => {
            phase
                .errors
                .push(format!("{what}: item {i} was {other:?} under Block"));
            false
        }
        Err(e) => {
            phase
                .errors
                .push(format!("{what}: ingest of item {i} failed: {e}"));
            false
        }
    }
}

/// `pipeline-live`: open loop at [`LIVE_RATE`]. The generator is the
/// router thread; it polls the sink while it waits for the next due
/// time. Latency runs from the due time of the item that triggered a
/// report to the moment `poll_reports` returned it.
pub fn live<P: Probe>(
    items: &[(u64, f64)],
    reference: &Reference,
    seed: u64,
    budget: Duration,
    p: &mut P,
) -> Phase {
    const WHAT: &str = "pipeline-live";
    let prefault = (reference.reports.len(), items.len() / LAG_STRIDE + 1);
    Phase::run(budget, prefault, |phase| {
        p.enter(Span::Launch);
        let t = Instant::now();
        let pipe = Pipeline::launch(config(seed));
        phase.raw_setup_s.push(t.elapsed().as_secs_f64());
        p.exit();
        let mut pipe = match pipe {
            Ok(pipe) => pipe,
            Err(e) => {
                phase.errors.push(format!("{WHAT}: launch failed: {e}"));
                return;
            }
        };
        let mut check = Checker::new(&reference.reports);
        p.enter(Span::Pass);
        let pacer = Pacer::new(Instant::now(), LIVE_RATE);
        let due = |k: usize| pacer.due(u64::from(reference.reports[k].idx));
        let mut polls = 0usize;
        for (i, &(key, value)) in items.iter().enumerate() {
            let released = pacer.wait(i as u64, || {
                polls += 1;
                let traced = P::ON && polls.is_multiple_of(SPAN_STRIDE);
                poll(&mut pipe, p, traced, &mut check, &mut phase.latency_ns, due);
            });
            if i.is_multiple_of(LAG_STRIDE) {
                let lag = released.duration_since(pacer.due(i as u64));
                phase.lag_ns.push(lag.as_nanos() as u64);
            }
            let traced = P::ON && i.is_multiple_of(SPAN_STRIDE);
            if traced {
                p.enter(Span::Ingest);
            }
            let outcome = pipe.ingest(key, value);
            if traced {
                p.exit();
                phase.buffered_len.push(pipe.buffered_len(0) as f64);
                phase.queue_len.push(pipe.queue_len(0) as f64);
            }
            if !admitted(WHAT, i, outcome, phase) {
                break;
            }
        }
        // The last partial slab leaves at once rather than waiting for
        // items that will never come.
        pipe.flush();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !check.complete() && Instant::now() < deadline {
            poll(&mut pipe, p, false, &mut check, &mut phase.latency_ns, due);
            std::hint::spin_loop();
        }
        phase.note_memory();
        let start = pacer.start();
        if let Some((summary, end)) = finish(WHAT, pipe, p, check, phase, due) {
            let dt = end.duration_since(start).as_secs_f64();
            phase.pass_done(summary.processed, dt, 1.0);
        }
        p.exit();
    })
}

/// `pipeline-max`: supervised, closed loop, one `snapshot()` half way
/// through each pass. Latency runs from the `ingest` call of the item
/// that triggered a report to the moment `poll_reports` returned it.
///
/// The worker runs on the other CPU, where no yardstick can sit between
/// its slabs, so the pass's host factor is the mean of two probes of
/// that CPU, just before the launch and just after the shutdown
/// (yardsticks on `internet`, the run's internet trace).
pub fn max<P: Probe>(
    items: &[(u64, f64)],
    internet: &[(u64, f64)],
    reference: &Reference,
    seed: u64,
    budget: Duration,
    p: &mut P,
) -> Phase {
    const WHAT: &str = "pipeline-max";
    let mut ingested_at = vec![Instant::now(); reference.reports.len()];
    let mut yards = [Yardstick::new(internet), Yardstick::new(internet)];
    Phase::run(budget, (reference.reports.len(), 0), |phase| {
        let host_before = probe_worker_cpu(&mut yards);
        p.enter(Span::Launch);
        let t = Instant::now();
        let pipe = Pipeline::launch_supervised(config(seed), SupervisorConfig::default());
        phase.raw_setup_s.push(t.elapsed().as_secs_f64());
        p.exit();
        let mut pipe = match pipe {
            Ok(pipe) => pipe,
            Err(e) => {
                phase.errors.push(format!("{WHAT}: launch failed: {e}"));
                return;
            }
        };
        let mut check = Checker::new(&reference.reports);
        let mut next_report = 0usize;
        let mut due_report = reference
            .reports
            .first()
            .map_or(usize::MAX, |r| r.idx as usize);
        p.enter(Span::Pass);
        let t0 = Instant::now();
        for (i, &(key, value)) in items.iter().enumerate() {
            if i == due_report {
                ingested_at[next_report] = Instant::now();
                next_report += 1;
                due_report = reference
                    .reports
                    .get(next_report)
                    .map_or(usize::MAX, |r| r.idx as usize);
            }
            let traced = P::ON && i.is_multiple_of(SPAN_STRIDE);
            if traced {
                p.enter(Span::Ingest);
            }
            let outcome = pipe.ingest(key, value);
            if traced {
                p.exit();
                phase.buffered_len.push(pipe.buffered_len(0) as f64);
                phase.queue_len.push(pipe.queue_len(0) as f64);
            }
            if !admitted(WHAT, i, outcome, phase) {
                break;
            }
            if i == items.len() / 2 {
                p.enter(Span::Snapshot);
                let snap = pipe.snapshot();
                p.exit();
                if let Err(e) = snap {
                    phase.errors.push(format!("{WHAT}: snapshot failed: {e}"));
                    break;
                }
            }
            if i % MAX_POLL_EVERY == MAX_POLL_EVERY - 1 {
                let since = |k: usize| ingested_at[k];
                poll(
                    &mut pipe,
                    p,
                    P::ON,
                    &mut check,
                    &mut phase.latency_ns,
                    since,
                );
            }
        }
        phase.note_memory();
        let since = |k: usize| ingested_at[k];
        if let Some((summary, end)) = finish(WHAT, pipe, p, check, phase, since) {
            let dt = end.duration_since(t0).as_secs_f64();
            let host = (host_before + probe_worker_cpu(&mut yards)) / 2.0;
            phase.pass_done(summary.processed, dt, host);
        }
        p.exit();
    })
}
