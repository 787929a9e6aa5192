//! The single-filter workloads, `zipf-batch` and `internet-mixed`.
//!
//! Each pass builds a fresh filter (timed as set-up) and replays the
//! whole trace closed loop; its reports must equal the reference run's
//! one-to-one, in order, at the same item indices. A yardstick slice
//! runs after every 4096-item chunk; its time is left out of the pass
//! time and gives the pass's host factor (`yardstick.rs`).

use crate::phase::Phase;
use crate::reference::{build_filter, fold_query, Checker, Reference, BATCH_CHUNK, CHECKSUM_START};
use crate::spans::{Probe, Span};
use crate::yardstick::Yardstick;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Every this many items (or queries), one call is wrapped in a span
/// (prime, so the sample cannot fall into step with the code's batching).
pub const SPAN_STRIDE: usize = 61;
/// Each pass starts its 4096-item blocks this many items later than the
/// one before (mod 4096), so a report's place in its block, and with it
/// its latency, is not fixed by the trace.
const BLOCK_SHIFT: usize = 1031;
/// Passes run so far in this process, traced or not.
static PASSES: AtomicUsize = AtomicUsize::new(0);

/// The 4096-item blocks of pass `pass`: a shorter first block, then
/// whole blocks from a shifted start.
fn blocks(len: usize, pass: usize) -> impl Iterator<Item = Range<usize>> {
    let first = match pass * BLOCK_SHIFT % BATCH_CHUNK {
        0 => BATCH_CHUNK,
        shift => shift,
    };
    let starts = std::iter::once(0).chain((first..len).step_by(BATCH_CHUNK));
    starts.map(move |start| {
        let end = if start == 0 {
            first
        } else {
            start + BATCH_CHUNK
        };
        start..end.min(len)
    })
}

/// `zipf-batch`: `insert_batch` in 4096-item chunks ([`blocks`]). A
/// report's latency runs from the start of the call that was handed its
/// item to the moment the report reaches the caller's sink. The
/// yardstick runs on `internet`, the run's internet trace.
pub fn zipf_batch<P: Probe>(
    items: &[(u64, f64)],
    internet: &[(u64, f64)],
    reference: &Reference,
    seed: u64,
    budget: Duration,
    p: &mut P,
) -> Phase {
    let mut yard = Yardstick::new(internet);
    Phase::run(budget, (reference.reports.len(), 0), |phase| {
        let pass = PASSES.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let mut filter = build_filter(seed);
        phase.raw_setup_s.push(t.elapsed().as_secs_f64());
        let mut check = Checker::new(&reference.reports);
        let latency = &mut phase.latency_ns;
        yard.start_pass();
        p.enter(Span::Pass);
        let t0 = Instant::now();
        for block in blocks(items.len(), pass) {
            let (base, chunk) = (block.start, &items[block]);
            p.enter(Span::InsertBatch);
            let handed = Instant::now();
            filter.insert_batch(chunk, &mut |j, report| {
                let now = Instant::now();
                check.see(Some(base + j), chunk[j].0, &report);
                latency.push(now.duration_since(handed).as_nanos() as u64);
            });
            p.exit();
            yard.slice();
        }
        let dt = t0.elapsed().as_secs_f64() - yard.seconds();
        p.exit();
        phase.note_memory();
        phase.pass_done(items.len() as u64, dt, yard.host_factor());
        phase.attempted += items.len() as u64;
        check.finish(
            "zipf-batch insert_batch vs scalar insert",
            &mut phase.errors,
        );
    })
}

/// `internet-mixed`: scalar `insert`, with a `query` after every
/// `every` inserts. Items arrive in 4096-item blocks ([`blocks`]); a
/// report's latency runs from the arrival of its block to the return of
/// the `insert` call that fired it.
pub fn internet_mixed<P: Probe>(
    items: &[(u64, f64)],
    queries: &[u64],
    every: usize,
    reference: &Reference,
    seed: u64,
    budget: Duration,
    p: &mut P,
) -> Phase {
    let mut yard = Yardstick::new(items);
    Phase::run(budget, (reference.reports.len(), 0), |phase| {
        let pass = PASSES.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let mut filter = build_filter(seed);
        phase.raw_setup_s.push(t.elapsed().as_secs_f64());
        let mut check = Checker::new(&reference.reports);
        let mut checksum = CHECKSUM_START;
        let mut next_query = 0usize;
        yard.start_pass();
        p.enter(Span::Pass);
        let t0 = Instant::now();
        for block in blocks(items.len(), pass) {
            let arrived = Instant::now();
            for (i, &(key, value)) in block.clone().zip(&items[block]) {
                let traced = P::ON && i.is_multiple_of(SPAN_STRIDE);
                if traced {
                    p.enter(Span::Insert);
                }
                let report = filter.insert(&key, value);
                if traced {
                    p.exit();
                }
                if let Some(r) = report {
                    let now = Instant::now();
                    check.see(Some(i), key, &r);
                    phase
                        .latency_ns
                        .push(now.duration_since(arrived).as_nanos() as u64);
                }
                if i % every == every - 1 {
                    let traced = P::ON && next_query.is_multiple_of(SPAN_STRIDE);
                    if traced {
                        p.enter(Span::Query);
                    }
                    checksum = fold_query(checksum, filter.query(&queries[next_query]));
                    if traced {
                        p.exit();
                    }
                    next_query += 1;
                }
            }
            yard.slice();
        }
        let dt = t0.elapsed().as_secs_f64() - yard.seconds();
        p.exit();
        phase.note_memory();
        let ops = (items.len() + next_query) as u64;
        phase.pass_done(ops, dt, yard.host_factor());
        phase.attempted += ops;
        check.finish("internet-mixed insert vs reference", &mut phase.errors);
        if checksum != reference.query_checksum {
            phase.errors.push(format!(
                "internet-mixed: query checksum {checksum:016x} differs from the reference \
                 {:016x} for the same seed",
                reference.query_checksum
            ));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_the_trace_from_a_shifted_start() {
        for (len, pass) in [(10_000, 0), (10_000, 1), (10_000, 4), (100, 3), (8192, 0)] {
            let b: Vec<_> = blocks(len, pass).collect();
            assert_eq!(b[0].start, 0);
            assert_eq!(b.last().map(|r| r.end), Some(len));
            assert!(b.windows(2).all(|w| w[0].end == w[1].start));
            assert!(b.iter().all(|r| !r.is_empty() && r.len() <= BATCH_CHUNK));
            let first = pass * BLOCK_SHIFT % BATCH_CHUNK;
            if first != 0 && first < len {
                assert_eq!(b[0].len(), first);
            }
        }
    }
}
