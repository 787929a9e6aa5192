//! Crash-safety acceptance tests: a filter restored from a snapshot must
//! behave *byte-identically* to the original from the resume point on —
//! same reports, same order, same estimated Qweights — across both vague
//! sketch families, all three election strategies, and the wrapper
//! containers.

use proptest::proptest;
use qf_repro::qf_datasets::{internet_like, InternetConfig};
use qf_repro::qf_sketch::{CountMinSketch, CountSketch};
use qf_repro::quantile_filter::epoch::{EpochFilter, GrowOnPressure};
use qf_repro::quantile_filter::{
    Criteria, ElectionStrategy, MultiCriteriaFilter, QuantileFilter, QuantileFilterBuilder, Report,
};

fn crit() -> Criteria {
    Criteria::new(5.0, 0.9, 100.0).unwrap()
}

fn cs_filter(strategy: ElectionStrategy, seed: u64) -> QuantileFilter {
    QuantileFilterBuilder::new(crit())
        .candidate_buckets(16)
        .bucket_len(3)
        .vague_dims(3, 128)
        .strategy(strategy)
        .seed(seed)
        .build()
}

fn cms_filter(strategy: ElectionStrategy, seed: u64) -> QuantileFilter<CountMinSketch<i16>> {
    QuantileFilterBuilder::new(crit())
        .candidate_buckets(16)
        .bucket_len(3)
        .strategy(strategy)
        .seed(seed)
        .build_with_sketch(CountMinSketch::new(3, 128, seed ^ 0xC5))
}

/// Feed `suffix` to the live filter and to its snapshot-restored twin;
/// every insert must return the identical Option<Report>.
fn assert_identical_resume<S>(mut live: QuantileFilter<S>, suffix: &[(u64, f64)])
where
    S: qf_repro::qf_sketch::WeightSketch + qf_repro::qf_sketch::snapshot::SketchState,
{
    let mut restored: QuantileFilter<S> = QuantileFilter::restore(&live.snapshot()).unwrap();
    for (i, &(key, value)) in suffix.iter().enumerate() {
        assert_eq!(
            live.insert(&key, value),
            restored.insert(&key, value),
            "divergence at suffix item {i}"
        );
    }
    assert_eq!(live.snapshot(), restored.snapshot(), "end states differ");
}

proptest! {
    /// snapshot → restore → insert(suffix) is report-identical for every
    /// election strategy with a CountSketch vague part.
    #[test]
    fn prop_cs_restore_resumes_identically(
        seed in 0u64..512,
        prefix in proptest::collection::vec((0u64..64, -50.0f64..600.0), 0..300),
        suffix in proptest::collection::vec((0u64..64, -50.0f64..600.0), 1..300),
    ) {
        for strategy in ElectionStrategy::ALL {
            let mut qf = cs_filter(strategy, seed);
            for &(k, v) in &prefix {
                qf.insert(&k, v);
            }
            assert_identical_resume(qf, &suffix);
        }
    }

    /// The same property with a CountMinSketch vague part.
    #[test]
    fn prop_cms_restore_resumes_identically(
        seed in 0u64..512,
        prefix in proptest::collection::vec((0u64..64, -50.0f64..600.0), 0..300),
        suffix in proptest::collection::vec((0u64..64, -50.0f64..600.0), 1..300),
    ) {
        for strategy in ElectionStrategy::ALL {
            let mut qf = cms_filter(strategy, seed);
            for &(k, v) in &prefix {
                qf.insert(&k, v);
            }
            assert_identical_resume(qf, &suffix);
        }
    }
}

/// The headline acceptance test: on an internet-like trace, a filter
/// snapshotted mid-stream and restored must emit a byte-identical report
/// sequence over the remainder of the trace.
#[test]
fn internet_trace_reports_identical_after_restore() {
    let mut cfg = InternetConfig::tiny();
    cfg.items = 60_000;
    let dataset = internet_like(&cfg);
    let criteria = Criteria::new(30.0, 0.95, dataset.threshold).unwrap();
    let split = dataset.items.len() / 2;

    let mut live: QuantileFilter = QuantileFilterBuilder::new(criteria)
        .memory_budget_bytes(32 * 1024)
        .seed(0xCAFE)
        .build();
    for item in &dataset.items[..split] {
        live.insert(&item.key, item.value);
    }

    // Simulated crash: only the snapshot bytes survive.
    let checkpoint = live.snapshot();
    let mut recovered: QuantileFilter = QuantileFilter::restore(&checkpoint).unwrap();

    let mut live_reports: Vec<(usize, u64, Report)> = Vec::new();
    let mut recovered_reports: Vec<(usize, u64, Report)> = Vec::new();
    for (i, item) in dataset.items[split..].iter().enumerate() {
        if let Some(r) = live.insert(&item.key, item.value) {
            live_reports.push((i, item.key, r));
        }
        if let Some(r) = recovered.insert(&item.key, item.value) {
            recovered_reports.push((i, item.key, r));
        }
    }
    assert!(
        !live_reports.is_empty(),
        "trace produced no reports; test is vacuous"
    );
    assert_eq!(live_reports, recovered_reports);
    assert_eq!(live.stats().reports, recovered.stats().reports);
    assert_eq!(live.snapshot(), recovered.snapshot());
}

/// EpochFilter checkpoints resume mid-epoch, across epoch rollovers and
/// pressure-driven resizes.
#[test]
fn epoch_filter_with_resize_policy_resumes_identically() {
    let policy = || GrowOnPressure {
        vague_visit_threshold: 0.2,
        factor: 2.0,
        max_bytes: 64 * 1024,
    };
    let mut ef: EpochFilter<i8, GrowOnPressure> = EpochFilter::new(crit(), 2048, 700, 21, policy());
    for i in 0..1_000u64 {
        ef.insert(&(i % 300), if i % 300 == 7 { 400.0 } else { 20.0 });
    }
    let mut restored: EpochFilter<i8, GrowOnPressure> =
        EpochFilter::restore(&ef.snapshot(), policy()).unwrap();
    for i in 0..1_500u64 {
        let key = i % 300;
        let v = if key == 7 { 400.0 } else { 20.0 };
        assert_eq!(ef.insert(&key, v), restored.insert(&key, v), "item {i}");
    }
    assert_eq!(ef.epochs_completed(), restored.epochs_completed());
    assert_eq!(ef.memory_bytes(), restored.memory_bytes());
}

/// MultiCriteriaFilter round-trips its criteria list and per-criterion
/// Qweight state.
#[test]
fn multi_criteria_filter_resumes_identically() {
    let filter = QuantileFilterBuilder::new(Criteria::default())
        .candidate_buckets(64)
        .vague_dims(3, 512)
        .seed(31)
        .build();
    let mut mc = MultiCriteriaFilter::new(
        filter,
        vec![crit(), Criteria::new(3.0, 0.5, 400.0).unwrap()],
    );
    for i in 0..400u64 {
        mc.insert(&(i % 13), if i % 13 < 4 { 450.0 } else { 30.0 });
    }
    let mut restored: MultiCriteriaFilter<CountSketch<i8>> =
        MultiCriteriaFilter::restore(&mc.snapshot()).unwrap();
    assert_eq!(restored.criteria(), mc.criteria());
    for i in 0..600u64 {
        let key = i % 13;
        let v = if key < 4 { 450.0 } else { 30.0 };
        assert_eq!(mc.insert(&key, v), restored.insert(&key, v), "item {i}");
    }
}

/// Deterministic warm-up stream for the wire-format golden: a splitmix64
/// sequence over 3,000 keys with a hot set far over the threshold and
/// fractional values, so every part of the state (occupied and free
/// candidate slots, signed sketch cells, both RNG streams, statistics)
/// carries non-trivial bytes. Independent of the dataset generators, so
/// the golden does not move with them.
fn golden_stream(n: usize) -> Vec<(u64, f64)> {
    let mut s = 0x6F1D_E7A1_5EED_0001u64;
    let mut next = move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let r = next();
            if r % 8 == 0 {
                ((r >> 40) & 15, 350.0 + ((r >> 20) & 255) as f64 + 0.25)
            } else {
                ((r >> 32) % 3000, ((r >> 8) & 1023) as f64 / 7.0)
            }
        })
        .collect()
}

/// Wire-v2 byte-identity golden: the xxh64 of `snapshot()` for four
/// containers warmed by the fixed stream above, plus one filter whose
/// buckets span two occupancy words. Any encoder change must leave
/// every digest — and every length — exactly as pinned here.
#[test]
fn snapshot_bytes_match_wire_v2_golden() {
    use qf_repro::qf_hash::xxh64;
    use qf_repro::quantile_filter::epoch::FixedSize;

    let items = golden_stream(20_000);
    let bench = Criteria::new(30.0, 0.95, 300.0).unwrap();
    let digest = |bytes: &[u8]| (bytes.len(), xxh64(bytes, 0));

    let mut cs: QuantileFilter = QuantileFilterBuilder::new(bench)
        .memory_budget_bytes(32 * 1024)
        .seed(0x5EED)
        .build();
    let mut cms: QuantileFilter<CountMinSketch<i32>> = QuantileFilterBuilder::new(bench)
        .candidate_buckets(96)
        .bucket_len(6)
        .seed(0xC35)
        .build_with_sketch(CountMinSketch::new(3, 700, 0xC35));
    let mut epoch: EpochFilter = EpochFilter::new(bench, 8 * 1024, 7_000, 0xE90C, FixedSize);
    let mut multi = MultiCriteriaFilter::new(
        QuantileFilterBuilder::new(Criteria::default())
            .memory_budget_bytes(8 * 1024)
            .seed(0x3C)
            .build(),
        vec![bench, crit()],
    );
    let mut wide: QuantileFilter<CountSketch<i16>> = QuantileFilterBuilder::new(bench)
        .candidate_buckets(5)
        .bucket_len(70)
        .vague_dims(3, 200)
        .seed(0x71DE)
        .build_with_counter::<i16>();
    for &(k, v) in &items {
        cs.insert(&k, v);
        cms.insert(&k, v);
        epoch.insert(&k, v);
        multi.insert(&k, v);
        wide.insert(&k, v);
    }
    let got = [
        digest(&cs.snapshot()),
        digest(&cms.snapshot()),
        digest(&epoch.snapshot()),
        digest(&multi.snapshot()),
        digest(&wide.snapshot()),
    ];
    let want: [(usize, u64); 5] = [
        (37316, 0x57BE_6845_F2BF_BFA8),
        (12620, 0x162A_9C46_9B0B_12EB),
        (9534, 0xB64A_8D46_FE96_209F),
        (9522, 0x589A_A616_A7C6_CF2E),
        (3838, 0x12DA_F258_5F5C_FE64),
    ];
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "container {i}: snapshot bytes changed (len, xxh64)");
    }
}
