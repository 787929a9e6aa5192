//! One measured phase of a workload: passes repeated until a time budget
//! is spent, and what they collected.

use crate::stats::{Percentiles, Spread};
use std::time::{Duration, Instant};

/// What one measured phase of a workload collected.
#[derive(Default)]
pub struct Phase {
    /// Throughput of each pass as measured, in million operations per
    /// second.
    pub raw_mops: Vec<f64>,
    /// Each pass's host factor (its yardstick time over the nominal one,
    /// see `yardstick.rs`); 1 on workloads that are not normalized.
    pub host_factor: Vec<f64>,
    /// Set-up time of each pass as measured, in seconds.
    pub raw_setup_s: Vec<f64>,
    /// Report latency samples as measured, ns, and where each pass's
    /// samples end.
    pub latency_ns: Vec<u64>,
    pub latency_pass_end: Vec<usize>,
    /// Open-loop generator lag samples, ns (`pipeline-live`).
    pub lag_ns: Vec<u64>,
    /// Operations offered, and those not applied.
    pub attempted: u64,
    pub failed: u64,
    pub restarts: u64,
    pub lost_to_crash: u64,
    /// Router slab fill and queue depth, sampled (traced runs).
    pub buffered_len: Vec<f64>,
    pub queue_len: Vec<f64>,
    /// Wall time of all passes, ns (for busy fractions).
    pub pass_ns: u64,
    /// Resident-set growth from before the first pass's set-up to that
    /// pass's fullest point, MiB. Later passes reuse memory the first one
    /// left with the allocator, so only the first is read.
    pub mem_delta_mb: f64,
    rss_start_kib: u64,
    pub errors: Vec<String>,
}

impl Phase {
    /// Run `pass` until `budget` is spent (at least once), stopping at
    /// the first error. The sample buffers are faulted in for
    /// `(latency, lag)` samples up front, and memory the allocator holds
    /// but does not use is handed back before the starting reading, so
    /// the first pass's memory reading shows the system under test
    /// rather than the benchmark's own bookkeeping.
    pub fn run(
        budget: Duration,
        prefault: (usize, usize),
        mut pass: impl FnMut(&mut Phase),
    ) -> Phase {
        let mut phase = Phase {
            latency_ns: faulted(prefault.0),
            lag_ns: faulted(prefault.1),
            ..Phase::default()
        };
        crate::machine::release_free_memory();
        phase.rss_start_kib = crate::machine::rss_kib();
        let start = Instant::now();
        loop {
            let t = Instant::now();
            pass(&mut phase);
            phase.pass_ns += t.elapsed().as_nanos() as u64;
            phase.latency_pass_end.push(phase.latency_ns.len());
            if !phase.errors.is_empty() || start.elapsed() >= budget {
                break;
            }
        }
        phase
    }

    /// Record a finished pass: `ops` operations in `secs` seconds of the
    /// workload's own time, at host factor `host`.
    pub fn pass_done(&mut self, ops: u64, secs: f64, host: f64) {
        self.raw_mops.push(ops as f64 / secs / 1e6);
        self.host_factor.push(host);
    }

    /// Called by a pass at its fullest point: reads the resident set
    /// during the first pass.
    pub fn note_memory(&mut self) {
        if self.latency_pass_end.is_empty() {
            let grown = crate::machine::rss_kib().saturating_sub(self.rss_start_kib);
            self.mem_delta_mb = grown as f64 / 1024.0;
        }
    }

    /// Append the passes of `other`, a later phase of the same workload.
    pub fn absorb(&mut self, other: Phase) {
        if self.latency_pass_end.is_empty() {
            self.mem_delta_mb = other.mem_delta_mb;
        }
        let base = self.latency_ns.len();
        self.raw_mops.extend(other.raw_mops);
        self.host_factor.extend(other.host_factor);
        self.raw_setup_s.extend(other.raw_setup_s);
        self.latency_ns.extend(other.latency_ns);
        self.latency_pass_end
            .extend(other.latency_pass_end.iter().map(|&e| base + e));
        self.lag_ns.extend(other.lag_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.restarts += other.restarts;
        self.lost_to_crash += other.lost_to_crash;
        self.buffered_len.extend(other.buffered_len);
        self.queue_len.extend(other.queue_len);
        self.pass_ns += other.pass_ns;
        self.errors.extend(other.errors);
    }

    fn host(&self, pass: usize) -> f64 {
        self.host_factor.get(pass).copied().unwrap_or(1.0)
    }

    /// Each pass's throughput at the nominal host speed: a pass on a host
    /// running slower than nominal (factor above 1) is scaled up by it.
    pub fn mops(&self) -> Vec<f64> {
        let passes = self.raw_mops.iter().enumerate();
        passes.map(|(i, &m)| m * self.host(i)).collect()
    }

    /// Each pass's set-up time at the nominal host speed.
    pub fn setup_s(&self) -> Vec<f64> {
        let passes = self.raw_setup_s.iter().enumerate();
        passes.map(|(i, &s)| s / self.host(i)).collect()
    }

    /// Report latency quantile `q` in µs at the nominal host speed: the
    /// median over passes of each pass's own quantile, so one disturbed
    /// pass cannot move it.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut start = 0;
        let mut per_pass = Vec::with_capacity(self.latency_pass_end.len());
        for (i, &end) in self.latency_pass_end.iter().enumerate() {
            if end > start {
                let pass = Percentiles::of_ns(self.latency_ns[start..end].to_vec());
                per_pass.push(pass.at_band(q) / 1e3 / self.host(i));
            }
            start = end;
        }
        Spread::of(&per_pass).median
    }
}

/// An empty vector whose first `n` slots are already resident.
fn faulted(n: usize) -> Vec<u64> {
    let mut v = vec![1u64; n];
    v.clear();
    v
}
