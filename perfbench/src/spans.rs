//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans are kept in memory and written out when the
//! run ends. A span's self time is its duration minus the time its
//! children cover. The benchmark records spans only at the calls it makes
//! itself; spans inside the library are not recorded.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The span clock: the time-stamp counter on x86-64 (a few ns to read,
/// against ~20 ns for `Instant::now`), else nanoseconds from `Instant`.
/// A tracer converts ticks to ns with the rate it measures against
/// `Instant` over its own lifetime.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC only reads the time-stamp counter; it has no
        // memory effects and no preconditions.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Every span the benchmark records. The name is the layer and the
/// public function called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Span {
    /// One timed pass over a trace.
    Pass,
    /// `QuantileFilter::insert_batch` over one 4096-item chunk.
    InsertBatch,
    /// `QuantileFilter::insert`.
    Insert,
    /// `QuantileFilter::query`.
    Query,
    /// One item through the staged replica (parent of the stage spans).
    StagedInsert,
    /// `CandidatePart::coords_of` (the qf-hash layer).
    CoordsOf,
    /// `StochasticRounder::round`.
    Round,
    /// `CandidatePart::offer_or_min`.
    OfferOrMin,
    /// `VaguePart::prepare_lanes`.
    PrepareLanes,
    /// `VaguePart::add_and_estimate`.
    AddAndEstimate,
    /// `ElectionStrategy::should_replace`, plus `fetch_remove`, `add` and
    /// `replace` when the challenger wins.
    Election,
    /// `CandidatePart::reset_entry` or `VaguePart::fetch_remove` after a
    /// report.
    ReportReset,
    /// `Pipeline::launch` / `Pipeline::launch_supervised`.
    Launch,
    /// `Pipeline::ingest`.
    Ingest,
    /// `Pipeline::poll_reports`.
    PollReports,
    /// `Pipeline::snapshot`.
    Snapshot,
    /// `Pipeline::shutdown`.
    Shutdown,
    /// Nothing: measures the cost of recording a span, taken beside the
    /// sampled items so it sees the same machine state.
    Empty,
}

pub const SPAN_KINDS: usize = Span::Empty as usize + 1;

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Pass => "bench.pass",
            Span::InsertBatch => "filter.insert_batch",
            Span::Insert => "filter.insert",
            Span::Query => "filter.query",
            Span::StagedInsert => "staged.insert",
            Span::CoordsOf => "hash.coords_of",
            Span::Round => "sketch.round",
            Span::OfferOrMin => "candidate.offer_or_min",
            Span::PrepareLanes => "vague.prepare_lanes",
            Span::AddAndEstimate => "vague.add_and_estimate",
            Span::Election => "strategy.election",
            Span::ReportReset => "filter.report_reset",
            Span::Launch => "pipeline.launch",
            Span::Ingest => "pipeline.ingest",
            Span::PollReports => "pipeline.poll_reports",
            Span::Snapshot => "pipeline.snapshot",
            Span::Shutdown => "pipeline.shutdown",
            Span::Empty => "bench.empty",
        }
    }

    const ALL: [Span; SPAN_KINDS] = [
        Span::Pass,
        Span::InsertBatch,
        Span::Insert,
        Span::Query,
        Span::StagedInsert,
        Span::CoordsOf,
        Span::Round,
        Span::OfferOrMin,
        Span::PrepareLanes,
        Span::AddAndEstimate,
        Span::Election,
        Span::ReportReset,
        Span::Launch,
        Span::Ingest,
        Span::PollReports,
        Span::Snapshot,
        Span::Shutdown,
        Span::Empty,
    ];
}

/// Where spans go. The untraced paths use [`Off`], which compiles to
/// nothing; traced paths pass a [`Tracer`].
pub trait Probe {
    /// Whether this probe records anything; sampling decisions test it
    /// first so untraced runs pay nothing for them.
    const ON: bool;
    fn enter(&mut self, span: Span);
    fn exit(&mut self);
}

/// The probe of untraced code: records nothing.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn enter(&mut self, _: Span) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

const NO_RECORD: u32 = u32::MAX;

/// One stored span. `parent` indexes the stored spans (`u32::MAX` for a
/// root); times are ticks since the tracer was made.
#[derive(Debug, Clone, Copy)]
struct Record {
    span: Span,
    parent: u32,
    start: u64,
    end: u64,
}

struct Open {
    span: Span,
    start: u64,
    child: u64,
    record: u32,
}

/// Records spans in memory. At most `cap` spans are stored for the span
/// file; durations and self times are aggregated over every span.
pub struct Tracer {
    epoch: Instant,
    epoch_ticks: u64,
    stack: Vec<Open>,
    records: Vec<Record>,
    cap: usize,
    durations: Vec<Vec<u32>>,
    self_ticks: [u64; SPAN_KINDS],
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            epoch_ticks: ticks(),
            stack: Vec::with_capacity(8),
            records: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            durations: (0..SPAN_KINDS).map(|_| Vec::new()).collect(),
            self_ticks: [0; SPAN_KINDS],
        }
    }

    /// Nanoseconds per tick, measured against `Instant` since the tracer
    /// was made.
    pub fn ns_per_tick(&self) -> f64 {
        let ns = self.epoch.elapsed().as_nanos() as f64;
        let ticks = ticks().wrapping_sub(self.epoch_ticks) as f64;
        if ticks > 0.0 {
            ns / ticks
        } else {
            1.0
        }
    }

    /// Durations (ns) of every closed span of one kind.
    pub fn durations_ns(&self, span: Span) -> Vec<f64> {
        let k = self.ns_per_tick();
        self.durations[span as usize]
            .iter()
            .map(|&d| f64::from(d) * k)
            .collect()
    }

    /// How many spans of one kind closed.
    pub fn count(&self, span: Span) -> usize {
        self.durations[span as usize].len()
    }

    /// Summed self time (ns) of one kind.
    pub fn self_ns(&self, span: Span) -> f64 {
        self.self_ticks[span as usize] as f64 * self.ns_per_tick()
    }

    /// Mean duration (ns) of one kind, `NaN` when none closed.
    pub fn mean_ns(&self, span: Span) -> f64 {
        let d = &self.durations[span as usize];
        if d.is_empty() {
            return f64::NAN;
        }
        d.iter().map(|&x| f64::from(x)).sum::<f64>() / d.len() as f64 * self.ns_per_tick()
    }

    /// Write the stored spans as CSV (`id,parent,name,start_ns,end_ns`).
    /// Returns the number of spans written.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let k = self.ns_per_tick();
        let mut out = String::with_capacity(self.records.len() * 48 + 64);
        out.push_str("id,parent,name,start_ns,end_ns\n");
        for (i, r) in self.records.iter().enumerate() {
            let parent = if r.parent == NO_RECORD {
                String::new()
            } else {
                r.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{parent},{},{:.0},{:.0}",
                r.span.name(),
                r.start as f64 * k,
                r.end as f64 * k
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()?;
        Ok(self.records.len())
    }

    /// Per-kind count, mean duration and summed self time, one line each.
    pub fn summary_lines(&self) -> Vec<String> {
        Span::ALL
            .into_iter()
            .filter(|&s| self.count(s) > 0)
            .map(|s| {
                format!(
                    "{}: spans {} mean {:.1} ns self total {:.3} ms",
                    s.name(),
                    self.count(s),
                    self.mean_ns(s),
                    self.self_ns(s) / 1e6
                )
            })
            .collect()
    }
}

impl Probe for Tracer {
    const ON: bool = true;
    #[inline]
    fn enter(&mut self, span: Span) {
        let parent = self.stack.last().map_or(NO_RECORD, |o| o.record);
        let record = if self.records.len() < self.cap {
            self.records.push(Record {
                span,
                parent,
                start: 0,
                end: 0,
            });
            (self.records.len() - 1) as u32
        } else {
            NO_RECORD
        };
        self.stack.push(Open {
            span,
            start: ticks(),
            child: 0,
            record,
        });
    }

    #[inline]
    fn exit(&mut self) {
        let end = ticks();
        let open = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = end.wrapping_sub(open.start);
        if open.record != NO_RECORD {
            let r = &mut self.records[open.record as usize];
            r.start = open.start.wrapping_sub(self.epoch_ticks);
            r.end = end.wrapping_sub(self.epoch_ticks);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        let k = open.span as usize;
        self.self_ticks[k] += dur.saturating_sub(open.child);
        self.durations[k].push(dur.min(u64::from(u32::MAX)) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(16);
        t.enter(Span::Pass);
        t.enter(Span::Insert);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let child = t.durations[Span::Insert as usize][0];
        let parent = t.durations[Span::Pass as usize][0];
        assert!(parent >= child);
        assert_eq!(t.self_ticks[Span::Pass as usize], u64::from(parent - child));
        let child_ns = t.durations_ns(Span::Insert)[0];
        assert!(
            (1.9e6..1e9).contains(&child_ns),
            "slept 2 ms, measured {child_ns} ns"
        );
        assert_eq!(t.records[1].parent, 0);
        assert_eq!(t.records[0].parent, NO_RECORD);
        assert!(t.records[0].start <= t.records[1].start);
        assert!(t.records[1].end <= t.records[0].end);
    }

    #[test]
    fn storage_is_capped_but_aggregates_are_not() {
        let mut t = Tracer::new(3);
        for _ in 0..10 {
            t.enter(Span::Round);
            t.exit();
        }
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.count(Span::Round), 10);
    }
}
