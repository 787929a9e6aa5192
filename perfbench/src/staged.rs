//! A staged replica of `QuantileFilter::insert`, built from the filter's
//! public parts so each stage can be timed from outside.
//!
//! It follows `QuantileFilter::offer_hashed_with` step for step, in the
//! geometry `QuantileFilterBuilder` gives a memory budget and with the
//! same derived seeds (as `qf_bench::hotpath::LegacyFilter` does), so its
//! report sequence equals the real filter's. The benchmark checks that
//! on every pass and stops if it ever differs.

use crate::spans::{Probe, Span};
use qf_hash::{HashedKey, SplitMix64};
use qf_sketch::{CountSketch, StochasticRounder};
use quantile_filter::builder::{
    DEFAULT_BUCKET_LEN, DEFAULT_CANDIDATE_FRACTION, DEFAULT_VAGUE_DEPTH,
};
use quantile_filter::candidate::{CandidatePart, OfferOutcome, ENTRY_BYTES};
use quantile_filter::vague::{VagueKey, VaguePart};
use quantile_filter::{Criteria, ElectionStrategy, QuantileFilter, Report, ReportSource};

/// Path counts of the replica, named as in `FilterStats`, plus the
/// elections held (vague visits that did not report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    pub candidate_hits: u64,
    pub candidate_inserts: u64,
    pub vague_visits: u64,
    pub elections: u64,
    pub exchanges: u64,
    pub reports: u64,
}

pub struct StagedFilter {
    candidate: CandidatePart,
    vague: VaguePart<CountSketch<i8>>,
    strategy: ElectionStrategy,
    rounder: StochasticRounder,
    rng: SplitMix64,
    threshold: f64,
    weight_above: f64,
    report_at: f64,
    pub counts: StageCounts,
}

impl StagedFilter {
    /// The replica of `QuantileFilterBuilder::new(criteria)
    /// .memory_budget_bytes(budget).seed(seed).build()`.
    pub fn new(criteria: Criteria, budget: usize, seed: u64) -> Self {
        let candidate_bytes = (budget as f64 * DEFAULT_CANDIDATE_FRACTION) as usize;
        let vague_bytes = ((budget as f64 * (1.0 - DEFAULT_CANDIDATE_FRACTION)) as usize).max(4);
        Self {
            candidate: CandidatePart::with_memory_budget(
                DEFAULT_BUCKET_LEN,
                candidate_bytes.max(ENTRY_BYTES),
                seed,
            ),
            vague: VaguePart::new(CountSketch::with_memory_budget(
                DEFAULT_VAGUE_DEPTH,
                vague_bytes,
                seed ^ 0x7A63_5E11,
            )),
            strategy: ElectionStrategy::default(),
            rounder: StochasticRounder::new(seed ^ 0x5EED_0001),
            rng: SplitMix64::new(seed ^ 0x5EED_0002),
            threshold: criteria.threshold(),
            weight_above: criteria.weight_above(),
            report_at: criteria.report_threshold(),
            counts: StageCounts::default(),
        }
    }

    /// Whether the replica has the real filter's geometry and hash seeds.
    pub fn same_geometry(&self, real: &QuantileFilter) -> bool {
        let (a, b) = (&self.candidate, real.candidate_part());
        a.buckets() == b.buckets()
            && a.bucket_len() == b.bucket_len()
            && a.bucket_seed() == b.bucket_seed()
            && a.fp_seed() == b.fp_seed()
            && self.vague.memory_bytes() == real.vague_part().memory_bytes()
            && self.strategy == real.strategy()
    }

    #[inline(always)]
    fn meets(&self, qw: i64) -> bool {
        qw as f64 + 1e-9 >= self.report_at
    }

    /// One insert, each stage wrapped in a span on `p`.
    #[inline]
    pub fn insert<P: Probe>(&mut self, key: u64, value: f64, p: &mut P) -> Option<Report> {
        let raw = if value > self.threshold {
            self.weight_above
        } else {
            -1.0
        };
        p.enter(Span::Round);
        let delta = self.rounder.round(raw);
        p.exit();
        p.enter(Span::CoordsOf);
        let HashedKey { bucket, fp } = self.candidate.coords_of(&key);
        p.exit();
        p.enter(Span::OfferOrMin);
        let outcome = self.candidate.offer_or_min(bucket, fp, delta);
        p.exit();
        match outcome {
            OfferOutcome::Updated { qweight } => {
                self.counts.candidate_hits += 1;
                self.candidate_report(bucket, fp, qweight, p)
            }
            OfferOutcome::Inserted => {
                self.counts.candidate_inserts += 1;
                self.candidate_report(bucket, fp, delta, p)
            }
            OfferOutcome::BucketFull { min_fp, min_qw } => {
                self.counts.vague_visits += 1;
                let vk = VagueKey::new(bucket, fp);
                p.enter(Span::PrepareLanes);
                let lanes = self.vague.prepare_lanes(vk);
                p.exit();
                p.enter(Span::AddAndEstimate);
                let est = self.vague.add_and_estimate(vk, &lanes, delta);
                p.exit();
                if self.meets(est) {
                    p.enter(Span::ReportReset);
                    self.vague.fetch_remove(vk, &lanes, est);
                    p.exit();
                    self.counts.reports += 1;
                    return Some(Report {
                        source: ReportSource::Vague,
                        estimated_qweight: est,
                    });
                }
                self.counts.elections += 1;
                p.enter(Span::Election);
                if self.strategy.should_replace(est, min_qw, &mut self.rng) {
                    let pulled = self.vague.fetch_remove(vk, &lanes, est);
                    self.vague.add(VagueKey::new(bucket, min_fp), min_qw);
                    self.candidate.replace(bucket, min_fp, fp, pulled);
                    self.counts.exchanges += 1;
                }
                p.exit();
                None
            }
        }
    }

    #[inline(always)]
    fn candidate_report<P: Probe>(
        &mut self,
        bucket: usize,
        fp: u16,
        qweight: i64,
        p: &mut P,
    ) -> Option<Report> {
        if !self.meets(qweight) {
            return None;
        }
        p.enter(Span::ReportReset);
        self.candidate.reset_entry(bucket, fp);
        p.exit();
        self.counts.reports += 1;
        Some(Report {
            source: ReportSource::Candidate,
            estimated_qweight: qweight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Off, Tracer};
    use quantile_filter::QuantileFilterBuilder;

    #[test]
    fn replica_matches_the_real_filter_item_for_item() {
        let criteria = Criteria::new(30.0, 0.95, 300.0).expect("criteria");
        let budget = 4 * 1024;
        let seed = 0xBEEF;
        let mut real = QuantileFilterBuilder::new(criteria)
            .memory_budget_bytes(budget)
            .seed(seed)
            .build();
        let mut staged = StagedFilter::new(criteria, budget, seed);
        assert!(staged.same_geometry(&real));
        let mut rng = SplitMix64::new(5);
        let mut tracer = Tracer::new(1 << 12);
        for i in 0..200_000u64 {
            // One key in eight is laggy: half its values exceed T.
            let key = rng.next_u64() % 2_000;
            let above = if key.is_multiple_of(8) { 50 } else { 3 };
            let value = if rng.next_u64() % 100 < above {
                900.0
            } else {
                20.0
            };
            let a = real.insert(&key, value);
            let b = if i.is_multiple_of(64) {
                staged.insert(key, value, &mut tracer)
            } else {
                staged.insert(key, value, &mut Off)
            };
            assert_eq!(a, b, "divergence at item {i}");
        }
        let s = real.stats();
        let c = staged.counts;
        assert_eq!(
            (s.candidate_hits, s.candidate_inserts, s.vague_visits),
            (c.candidate_hits, c.candidate_inserts, c.vague_visits)
        );
        assert_eq!((s.exchanges, s.reports), (c.exchanges, c.reports));
        assert!(c.reports > 100 && c.exchanges > 100, "{c:?}");
        assert!(tracer.count(Span::AddAndEstimate) > 0);
    }
}
