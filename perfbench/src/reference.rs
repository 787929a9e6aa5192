//! The serial reference every workload is checked against, and the
//! checker that compares a report stream with it.

use crate::traces::THRESHOLD;
use qf_baselines::{ExactDetector, OutstandingDetector};
use qf_eval::Accuracy;
use qf_hash::mix64;
use quantile_filter::filter::FilterStats;
use quantile_filter::{Criteria, QuantileFilter, QuantileFilterBuilder, Report};
use std::collections::HashSet;

/// Filter memory: 32 KiB (per shard on the pipeline workloads).
pub const FILTER_BYTES: usize = 32 * 1024;
/// Items per `insert_batch` call on `zipf-batch`.
pub const BATCH_CHUNK: usize = 4096;

/// The criteria ⟨ε=30, δ=0.95, T=300⟩ of every workload.
pub fn criteria() -> Criteria {
    Criteria::new(30.0, 0.95, THRESHOLD).expect("the benchmark's criteria are valid")
}

/// A filter as every workload builds it.
pub fn build_filter(seed: u64) -> QuantileFilter {
    QuantileFilterBuilder::new(criteria())
        .memory_budget_bytes(FILTER_BYTES)
        .seed(seed)
        .build()
}

/// One report of the reference run: the index of the item that fired it
/// and what the filter returned.
#[derive(Debug, Clone, Copy)]
pub struct RefReport {
    pub idx: u32,
    pub key: u64,
    pub report: Report,
}

/// The reference run: scalar `QuantileFilter::insert` over a trace, with
/// the queries of `internet-mixed` interleaved when given.
pub struct Reference {
    pub reports: Vec<RefReport>,
    pub query_checksum: u64,
    pub stats: FilterStats,
    pub accuracy: Accuracy,
}

impl Reference {
    pub fn replay(items: &[(u64, f64)], queries: Option<(&[u64], usize)>, seed: u64) -> Self {
        let mut filter = build_filter(seed);
        let mut reports = Vec::new();
        let mut checksum = CHECKSUM_START;
        let mut next_query = 0;
        for (i, &(key, value)) in items.iter().enumerate() {
            if let Some(report) = filter.insert(&key, value) {
                reports.push(RefReport {
                    idx: i as u32,
                    key,
                    report,
                });
            }
            if let Some((keys, every)) = queries {
                if i % every == every - 1 {
                    checksum = fold_query(checksum, filter.query(&keys[next_query]));
                    next_query += 1;
                }
            }
        }
        let mut exact = ExactDetector::new(criteria());
        let mut truth = HashSet::new();
        for &(key, value) in items {
            if exact.insert(key, value) {
                truth.insert(key);
            }
        }
        let reported: HashSet<u64> = reports.iter().map(|r| r.key).collect();
        Self {
            reports,
            query_checksum: checksum,
            stats: filter.stats(),
            accuracy: Accuracy::of(&reported, &truth),
        }
    }
}

pub const CHECKSUM_START: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fold one query result into the running checksum.
#[inline(always)]
pub fn fold_query(checksum: u64, qweight: i64) -> u64 {
    mix64(checksum ^ qweight as u64)
}

/// Checks a report stream against the reference one-to-one and in order.
pub struct Checker<'a> {
    expected: &'a [RefReport],
    next: usize,
    mismatches: u64,
    first: Option<String>,
}

impl<'a> Checker<'a> {
    pub fn new(expected: &'a [RefReport]) -> Self {
        Self {
            expected,
            next: 0,
            mismatches: 0,
            first: None,
        }
    }

    /// Match one observed report (with its item index when the caller
    /// knows it). Returns the matched report's position in the reference.
    #[inline]
    pub fn see(&mut self, idx: Option<usize>, key: u64, report: &Report) -> Option<usize> {
        let want = self.expected.get(self.next).copied();
        self.next += 1;
        match want {
            Some(w)
                if w.key == key
                    && w.report == *report
                    && idx.is_none_or(|i| i == w.idx as usize) =>
            {
                Some(self.next - 1)
            }
            _ => {
                self.mismatches += 1;
                if self.first.is_none() {
                    self.first = Some(format!(
                        "report #{} (item {idx:?}, key {key}, {report:?}) differs from the \
                         reference {want:?}",
                        self.next - 1
                    ));
                }
                None
            }
        }
    }

    /// Whether every expected report was seen.
    pub fn complete(&self) -> bool {
        self.next >= self.expected.len()
    }

    /// Close the pass: any mismatch or a missing/extra report is an error.
    pub fn finish(self, what: &str, errors: &mut Vec<String>) {
        if let Some(first) = self.first {
            errors.push(format!(
                "{what}: {} of {} reports mismatch the reference; first: {first}",
                self.mismatches,
                self.next.max(self.expected.len())
            ));
        } else if self.next != self.expected.len() {
            errors.push(format!(
                "{what}: saw {} reports, the reference has {}",
                self.next,
                self.expected.len()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantile_filter::ReportSource;

    fn rep(idx: u32, key: u64) -> RefReport {
        RefReport {
            idx,
            key,
            report: Report {
                source: ReportSource::Candidate,
                estimated_qweight: 600,
            },
        }
    }

    #[test]
    fn checker_demands_one_to_one_in_order() {
        let refs = [rep(3, 7), rep(9, 8)];
        let mut ok = Checker::new(&refs);
        assert!(ok.see(Some(3), 7, &refs[0].report).is_some());
        assert!(ok.see(None, 8, &refs[1].report).is_some());
        let mut errors = Vec::new();
        ok.finish("ok", &mut errors);
        assert!(errors.is_empty());

        let mut swapped = Checker::new(&refs);
        assert!(swapped.see(None, 8, &refs[1].report).is_none());
        swapped.finish("swapped", &mut errors);
        assert_eq!(errors.len(), 1);

        let mut short = Checker::new(&refs);
        short.see(Some(3), 7, &refs[0].report);
        short.finish("short", &mut errors);
        assert_eq!(errors.len(), 2);

        let mut wrong_item = Checker::new(&refs);
        assert!(wrong_item.see(Some(4), 7, &refs[0].report).is_none());
    }
}
