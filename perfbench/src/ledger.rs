//! The per-layer ledger of a traced run, on one workload's trace.
//!
//! Each cycle times, from outside:
//! * the composed paths — scalar `QuantileFilter::insert`,
//!   `insert_batch` in 4096-item chunks, and `query` — as whole passes,
//!   giving per-item costs with no clock on the items;
//! * the staged replica, with every stage of a fixed sample of items
//!   (one in [`SAMPLE_STRIDE`]) wrapped in a span.
//!
//! Both composed paths and the replica must report exactly what the
//! reference run reported.

use crate::reference::{build_filter, criteria, Checker, Reference, BATCH_CHUNK, FILTER_BYTES};
use crate::spans::{Off, Probe, Span, Tracer};
use crate::staged::{StageCounts, StagedFilter};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One item in this many goes through the replica with its stages traced
/// (prime, so the sample cannot fall into step with any power-of-two
/// structure of the code under test).
pub const SAMPLE_STRIDE: usize = 61;

/// The stages of one insert, in call order.
pub const STAGES: [Span; 7] = [
    Span::Round,
    Span::CoordsOf,
    Span::OfferOrMin,
    Span::PrepareLanes,
    Span::AddAndEstimate,
    Span::ReportReset,
    Span::Election,
];

#[derive(Default)]
pub struct Ledger {
    /// Per-item ns of each composed path, one value per cycle.
    pub insert_ns: Vec<f64>,
    pub insert_batch_ns: Vec<f64>,
    pub query_ns: Vec<f64>,
    /// Path counts of the last replica pass over the whole trace.
    pub counts: StageCounts,
    pub items: u64,
    pub errors: Vec<String>,
}

pub fn run(
    items: &[(u64, f64)],
    queries: &[u64],
    reference: &Reference,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Ledger {
    let mut ledger = Ledger {
        items: items.len() as u64,
        ..Ledger::default()
    };
    let start = Instant::now();
    loop {
        // Composed scalar insert, then queries against the state it left.
        let mut filter = build_filter(seed);
        let mut check = Checker::new(&reference.reports);
        let t = Instant::now();
        for (i, &(key, value)) in items.iter().enumerate() {
            if let Some(r) = filter.insert(&key, value) {
                check.see(Some(i), key, &r);
            }
        }
        ledger.insert_ns.push(per_item(t, items.len()));
        check.finish("ledger: scalar insert", &mut ledger.errors);
        let t = Instant::now();
        let mut sum = 0i64;
        for q in queries {
            sum = sum.wrapping_add(filter.query(q));
        }
        black_box(sum);
        ledger.query_ns.push(per_item(t, queries.len()));

        // Composed batch insert.
        let mut filter = build_filter(seed);
        let mut check = Checker::new(&reference.reports);
        let t = Instant::now();
        for (c, chunk) in items.chunks(BATCH_CHUNK).enumerate() {
            filter.insert_batch(chunk, &mut |j, r| {
                check.see(Some(c * BATCH_CHUNK + j), chunk[j].0, &r);
            });
        }
        ledger.insert_batch_ns.push(per_item(t, items.len()));
        check.finish("ledger: insert_batch", &mut ledger.errors);

        // The staged replica, stages traced on the sampled items.
        let mut staged = StagedFilter::new(criteria(), FILTER_BYTES, seed);
        if !staged.same_geometry(&filter) {
            ledger
                .errors
                .push("ledger: the staged replica's geometry differs from the filter's".into());
        }
        let mut check = Checker::new(&reference.reports);
        for (i, &(key, value)) in items.iter().enumerate() {
            let report = if i.is_multiple_of(SAMPLE_STRIDE) {
                tracer.enter(Span::StagedInsert);
                tracer.enter(Span::Empty);
                tracer.exit();
                let r = staged.insert(key, value, tracer);
                tracer.exit();
                r
            } else {
                staged.insert(key, value, &mut Off)
            };
            if let Some(r) = report {
                check.see(Some(i), key, &r);
            }
        }
        check.finish(
            "ledger: staged replica vs QuantileFilter::insert",
            &mut ledger.errors,
        );
        let s = reference.stats;
        let c = staged.counts;
        if (
            s.candidate_hits,
            s.candidate_inserts,
            s.vague_visits,
            s.exchanges,
            s.reports,
        ) != (
            c.candidate_hits,
            c.candidate_inserts,
            c.vague_visits,
            c.exchanges,
            c.reports,
        ) {
            ledger.errors.push(format!(
                "ledger: staged replica path counts {c:?} differ from the filter's {s:?}"
            ));
        }
        ledger.counts = c;
        if !ledger.errors.is_empty() || start.elapsed() >= budget {
            return ledger;
        }
    }
}

fn per_item(since: Instant, n: usize) -> f64 {
    since.elapsed().as_nanos() as f64 / n.max(1) as f64
}
