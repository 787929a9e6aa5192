//! The yardstick: a fixed kernel, owned by the benchmark, timed between
//! the chunks of the single-filter workloads (and around the passes of
//! `pipeline-max`) to measure how fast the host runs code of the filter's
//! kind at that moment.
//!
//! The measuring host's speed drifts by ±20% within a minute, and the
//! drift reaches code like the filter's (hashing, probes of small tables,
//! branches on data) far more than a plain arithmetic loop. A kernel of
//! the same kind — an 8-way fingerprint bucket table in front of a
//! three-row count sketch, 28 KiB in all — run on the internet trace in
//! short slices between a workload's 4096-item chunks slows down and
//! speeds up with the workload. In 120–150 s series of passes on the
//! measuring host, the log of a pass's filter time against the log of its
//! yardstick time had slope 1.02–1.07 and correlation 0.97–0.99. The
//! same kernel on an input of its own making tracked less (slope 1.2–1.3:
//! the mix of keys and values sets its branches); timed between whole
//! passes it correlated at ~0.7, and on the other CPU at ~0.3.
//!
//! A pass's host factor is the yardstick's time per item in that pass
//! over [`NOMINAL_NS_PER_ITEM`]; the single-filter workloads and
//! `pipeline-max` divide their times by it (see README.md). The kernel
//! uses nothing from the repository's crates, so a change to them moves
//! the factor only through the caches the two share.

use crate::traces::THRESHOLD;
use std::hint::black_box;
use std::time::Instant;

/// A round figure for the yardstick's time per item; it took 9–25 ns on
/// the measuring host (2-vCPU KVM guest, "Intel(R) Xeon(R) Processor").
/// It only fixes the scale of the normalized figures: they read as if
/// the whole run had gone at this speed.
pub const NOMINAL_NS_PER_ITEM: f64 = 10.0;
/// Items per slice, about 10 µs of work.
pub const SLICE: usize = 2048;
const BUCKETS: usize = 512;
const WAYS: usize = 8;
const ROWS: usize = 3;
const COLS: usize = 2048;

pub struct Yardstick<'a> {
    /// The internet trace, cycled through slice by slice.
    input: &'a [(u64, f64)],
    pos: usize,
    fps: [u16; BUCKETS * WAYS],
    weights: [i16; BUCKETS * WAYS],
    sketch: [i16; ROWS * COLS],
    /// Time spent in slices since [`Yardstick::start_pass`], ns.
    ns: u64,
    items: u64,
    reports: u64,
}

impl<'a> Yardstick<'a> {
    /// A yardstick over `input`, the run's internet trace (whole slices
    /// of it are used).
    pub fn new(input: &'a [(u64, f64)]) -> Self {
        assert!(input.len() >= SLICE, "the yardstick needs a whole slice");
        let whole = input.len() / SLICE * SLICE;
        let mut y = Self {
            input: &input[..whole],
            pos: 0,
            fps: [0; BUCKETS * WAYS],
            weights: [0; BUCKETS * WAYS],
            sketch: [0; ROWS * COLS],
            ns: 0,
            items: 0,
            reports: 0,
        };
        y.start_pass();
        y
    }

    /// Reset the kernel's state and clock, so every pass does the same
    /// work.
    pub fn start_pass(&mut self) {
        self.pos = 0;
        self.fps = [0; BUCKETS * WAYS];
        self.weights = [0; BUCKETS * WAYS];
        self.sketch = [0; ROWS * COLS];
        self.ns = 0;
        self.items = 0;
    }

    /// Run and time one slice.
    pub fn slice(&mut self) {
        let t = Instant::now();
        let end = self.pos + SLICE;
        let reports = self.run(&self.input[self.pos..end]);
        self.pos = if end == self.input.len() { 0 } else { end };
        self.reports += black_box(reports);
        self.ns += t.elapsed().as_nanos() as u64;
        self.items += SLICE as u64;
    }

    /// Time spent in slices this pass, seconds.
    pub fn seconds(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// This pass's time per item over the nominal one; 1 before any slice.
    pub fn host_factor(&self) -> f64 {
        if self.items == 0 {
            return 1.0;
        }
        self.ns as f64 / self.items as f64 / NOMINAL_NS_PER_ITEM
    }

    /// The kernel: a key found in its bucket adds its weight there and
    /// reports past a threshold; any other key adds its weight to the
    /// sketch and takes the bucket's weakest slot once its estimate
    /// beats it.
    #[inline(never)]
    fn run(&mut self, items: &'a [(u64, f64)]) -> u64 {
        let mut reports = 0;
        for &(key, value) in items {
            let h = mix(key ^ 0x5BD1_E995);
            let w: i16 = if value > THRESHOLD { 19 } else { -1 };
            let b = (h as usize % BUCKETS) * WAYS;
            let fp = (h >> 48) as u16 | 1;
            if let Some(j) = self.fps[b..b + WAYS].iter().position(|&f| f == fp) {
                let q = &mut self.weights[b + j];
                *q = q.saturating_add(w);
                if *q > 100 {
                    *q = 0;
                    reports += 1;
                }
                continue;
            }
            let mut estimate = i16::MAX;
            for r in 0..ROWS {
                let c = &mut self.sketch[r * COLS + ((h >> (16 + 11 * r)) as usize % COLS)];
                *c = c.saturating_add(w);
                estimate = estimate.min(*c);
            }
            if estimate > 40 {
                let slots = &self.weights[b..b + WAYS];
                let (j, &weakest) = slots
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, q)| *q)
                    .expect("a bucket has slots");
                if weakest < estimate {
                    self.fps[b + j] = fp;
                    self.weights[b + j] = estimate;
                }
            }
        }
        reports
    }
}

/// SplitMix64's finalizer, kept here so the kernel does not depend on
/// `qf_hash`.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{TraceSpec, Traces};

    #[test]
    fn every_pass_does_the_same_work() {
        let spec = TraceSpec {
            zipf_items: 10,
            internet_items: 20_000,
            ..TraceSpec::STANDARD
        };
        let traces = Traces::generate(&spec, 5);
        let mut y = Yardstick::new(&traces.internet);
        assert_eq!(y.input.len(), 9 * SLICE);
        for _ in 0..40 {
            y.slice();
        }
        let first = y.reports;
        assert!(first > 0, "the kernel reports on its input");
        y.start_pass();
        y.reports = 0;
        for _ in 0..40 {
            y.slice();
        }
        assert_eq!(y.reports, first);
        assert_eq!(y.items, 40 * SLICE as u64);
        assert!(y.host_factor() > 0.0);
    }
}
