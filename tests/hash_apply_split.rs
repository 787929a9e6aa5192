//! The hash/apply split: records hashed by an `ItemHasher` (the pure
//! stage, which the pipeline router runs) and applied with
//! `QuantileFilter::insert_hashed` (the stateful stage, which the shard
//! worker runs) must be indistinguishable from scalar `insert` — bit for
//! bit, in the filter and in the pipeline.
//!
//! 1. **Filter, own hasher**: a Zipf stream and a vague-heavy stream, with
//!    NaN and ±∞ sprinkled in, applied in slices of 1, 2, 63 and 256
//!    records. Reports at the same indices, `FilterStats`, both RNG states
//!    (via the snapshot bytes) and point queries all agree.
//! 2. **Filter, foreign or no hasher**: records hashed by a filter with
//!    another seed or another geometry, and `HashedItem::unhashed`
//!    records, take the re-hashing fallback and still agree with scalar
//!    `insert`.
//! 3. **Pipelines**: `launch_with_filters` with non-default geometry, a
//!    pipeline rebuilt with `restore`, and a supervised run whose worker
//!    crashes and is recovered by journal replay each equal the serial
//!    reference — at two shards, where the router hashes, and at three,
//!    where each worker hashes its own items.

use qf_repro::qf_datasets::generators::zipf_dataset;
use qf_repro::qf_datasets::ZipfConfig;
use qf_repro::qf_pipeline::{
    shard_of, BackpressurePolicy, ChaosPlan, Fault, IngestOutcome, Pipeline, PipelineConfig,
    ReportEvent, SupervisorConfig,
};
use qf_repro::quantile_filter::{
    Criteria, HashedItem, ItemHasher, QuantileFilter, QuantileFilterBuilder, Report, ReportSource,
};

/// Minimal deterministic RNG (SplitMix64), as in the differential oracle.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn criteria() -> Criteria {
    // δ = 0.6 ⇒ +1.5 above T: every above-T item draws from the rounder.
    match Criteria::new(5.0, 0.6, 300.0) {
        Ok(c) => c,
        Err(e) => panic!("criteria: {e}"),
    }
}

fn build(seed: u64, buckets: usize, bucket_len: usize) -> QuantileFilter {
    QuantileFilterBuilder::new(criteria())
        .candidate_buckets(buckets)
        .bucket_len(bucket_len)
        .vague_dims(3, 256)
        .seed(seed)
        .build()
}

/// Replace every 97th value with NaN, +∞ or −∞ in turn.
fn poison(items: &mut [(u64, f64)]) {
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for (i, item) in items.iter_mut().enumerate().filter(|(i, _)| i % 97 == 5) {
        item.1 = bad[i % 3];
    }
}

/// The Zipf α=1.1 stream of the paper's synthetic dataset (tiny config).
fn zipf_stream() -> Vec<(u64, f64)> {
    let mut items: Vec<(u64, f64)> = zipf_dataset(&ZipfConfig::tiny())
        .items
        .iter()
        .take(20_000)
        .map(|it| (it.key, it.value))
        .collect();
    poison(&mut items);
    items
}

/// Uniform keys over far more keys than candidate slots: most items
/// reach the vague part.
fn vague_heavy_stream() -> Vec<(u64, f64)> {
    let mut rng = Rng(0x7A6E);
    let mut items: Vec<(u64, f64)> = (0..20_000)
        .map(|_| {
            let key = rng.below(2_000);
            let value = if rng.below(100) < 45 { 500.0 } else { 50.0 };
            (key, value)
        })
        .collect();
    poison(&mut items);
    items
}

fn scalar_reports(qf: &mut QuantileFilter, items: &[(u64, f64)]) -> Vec<(usize, Report)> {
    let mut log = Vec::new();
    for (i, &(k, v)) in items.iter().enumerate() {
        if let Some(r) = qf.insert(&k, v) {
            log.push((i, r));
        }
    }
    log
}

/// Hash `items` with `hasher` (or leave them unhashed), then apply the
/// records to `qf` in slices whose lengths cycle through `slices`; report
/// indices are global.
fn hashed_reports(
    qf: &mut QuantileFilter,
    hasher: Option<&ItemHasher>,
    items: &[(u64, f64)],
    slices: &[usize],
) -> Vec<(usize, Report)> {
    let records: Vec<HashedItem> = items
        .iter()
        .map(|&(k, v)| match hasher {
            Some(h) => h.hash(k, v),
            None => HashedItem::unhashed(k, v),
        })
        .collect();
    let mut log = Vec::new();
    let mut base = 0;
    for &len in slices.iter().cycle() {
        if base == records.len() {
            break;
        }
        let end = (base + len).min(records.len());
        qf.insert_hashed(hasher, &records[base..end], &mut |i, r| {
            log.push((base + i, r))
        });
        base = end;
    }
    log
}

fn assert_twins_agree(scalar: &QuantileFilter, hashed: &QuantileFilter, keys: u64, what: &str) {
    let (s, h) = (scalar.stats(), hashed.stats());
    assert_eq!(s.candidate_hits, h.candidate_hits, "{what}: candidate_hits");
    assert_eq!(s.candidate_inserts, h.candidate_inserts, "{what}: inserts");
    assert_eq!(s.vague_visits, h.vague_visits, "{what}: vague_visits");
    assert_eq!(s.exchanges, h.exchanges, "{what}: exchanges");
    assert_eq!(s.reports, h.reports, "{what}: reports");
    // The snapshot carries both RNG states, the stats and every counter.
    assert_eq!(scalar.snapshot(), hashed.snapshot(), "{what}: state");
    for k in 0..keys {
        assert_eq!(scalar.query(&k), hashed.query(&k), "{what}: key {k}");
    }
}

#[test]
fn hashed_records_equal_scalar_insert() {
    let streams = [
        ("zipf", zipf_stream(), 5_000),
        ("vague-heavy", vague_heavy_stream(), 2_000),
    ];
    for (name, items, keys) in &streams {
        for slices in [&[1usize][..], &[2], &[63], &[256], &[1, 2, 63, 256]] {
            let what = format!("{name} slices {slices:?}");
            let mut scalar = build(0x5EED, 16, 4);
            let mut hashed = build(0x5EED, 16, 4);
            let hasher = hashed.item_hasher().clone();
            let want = scalar_reports(&mut scalar, items);
            let got = hashed_reports(&mut hashed, Some(&hasher), items, slices);
            assert!(want.len() > 20, "{what}: only {} reports", want.len());
            assert_eq!(got, want, "{what}: report sequences diverge");
            assert_twins_agree(&scalar, &hashed, *keys, &what);
        }
    }
    // The vague-heavy stream must live up to its name.
    let mut qf = build(0x5EED, 16, 4);
    scalar_reports(&mut qf, &vague_heavy_stream());
    let s = qf.stats();
    assert!(
        s.vague_visits * 2 > s.candidate_hits + s.candidate_inserts + s.vague_visits,
        "vague-heavy stream mostly stayed in the candidate part: {s:?}"
    );
}

#[test]
fn foreign_or_no_hasher_records_fall_back_and_still_agree() {
    let items = vague_heavy_stream();
    let other_seed = build(0xBAD5EED, 16, 4).item_hasher().clone();
    let other_geometry = build(0x5EED, 32, 4).item_hasher().clone();
    let own = build(0x5EED, 16, 4).item_hasher().clone();
    assert_ne!(other_seed, own);
    assert_ne!(other_geometry, own);
    for (name, foreign) in [
        ("other seed", Some(other_seed)),
        ("other geometry", Some(other_geometry)),
        ("unhashed", None),
    ] {
        let mut scalar = build(0x5EED, 16, 4);
        let mut hashed = build(0x5EED, 16, 4);
        let want = scalar_reports(&mut scalar, &items);
        let got = hashed_reports(&mut hashed, foreign.as_ref(), &items, &[1, 2, 63, 256]);
        assert_eq!(got, want, "{name}: report sequences diverge");
        assert_twins_agree(&scalar, &hashed, 2_000, name);
    }
}

// ---- pipelines -------------------------------------------------------

/// Shard counts on both sides of the router-hashing cutoff: at two the
/// router hashes every item, at three each worker hashes its own.
const SHARD_COUNTS: [usize; 2] = [2, 3];

fn config(seed: u64, shards: usize) -> PipelineConfig {
    PipelineConfig {
        shards,
        criteria: criteria(),
        memory_bytes_per_shard: 16 * 1024,
        queue_capacity: 64,
        slab_capacity: 64,
        policy: BackpressurePolicy::Block,
        seed,
    }
}

/// Hot keys far over `T` on a background of more cold keys than the
/// filters have candidate slots, so the vague part and elections work.
fn workload(n: usize) -> Vec<(u64, f64)> {
    let mut rng = Rng(0xD1FF);
    (0..n)
        .map(|_| {
            if rng.below(100) < 12 {
                (100_000 + rng.below(4), 400.0 + rng.below(200) as f64)
            } else {
                (rng.below(3_000), rng.below(400) as f64)
            }
        })
        .collect()
}

/// Each shard's `(key, report)` sequence when its filter
/// (`filters[shard]`) takes its items one `insert` at a time.
fn serial_reference(
    mut filters: Vec<QuantileFilter>,
    items: &[(u64, f64)],
) -> Vec<Vec<(u64, Report)>> {
    let mut reports = vec![Vec::new(); filters.len()];
    for &(key, value) in items {
        let shard = shard_of(key, filters.len());
        if let Some(r) = filters[shard].insert(&key, value) {
            reports[shard].push((key, r));
        }
    }
    reports
}

fn per_shard(reports: &[ReportEvent], shards: usize) -> Vec<Vec<(u64, Report)>> {
    let mut seqs = vec![Vec::new(); shards];
    for r in reports {
        seqs[r.shard].push((r.key, r.report));
    }
    seqs
}

fn ingest_all(pipe: &mut Pipeline, items: &[(u64, f64)], got: &mut Vec<ReportEvent>) {
    for (i, &(key, value)) in items.iter().enumerate() {
        match pipe.ingest(key, value) {
            Ok(IngestOutcome::Enqueued) => {}
            other => panic!("item {i} not enqueued: {other:?}"),
        }
        if i % 1_024 == 0 {
            got.extend(pipe.poll_reports());
        }
    }
}

/// Shut down (which flushes and drains every queue) and return the
/// reports not yet polled.
fn shutdown_reports(pipe: Pipeline) -> Vec<ReportEvent> {
    match pipe.shutdown() {
        Ok(summary) => {
            assert_eq!(summary.processed, summary.enqueued, "{summary:?}");
            summary.reports
        }
        Err(e) => panic!("shutdown: {e}"),
    }
}

/// Shard filters of a non-default geometry: more, shorter buckets and a
/// deeper vague part than the memory-budget builder would pick.
fn odd_filters(cfg: &PipelineConfig) -> Vec<QuantileFilter> {
    (0..cfg.shards)
        .map(|s| {
            QuantileFilterBuilder::new(cfg.criteria)
                .candidate_buckets(37)
                .bucket_len(3)
                .vague_dims(5, 211)
                .seed(cfg.shard_seed(s) ^ 0xFEED)
                .build()
        })
        .collect()
}

#[test]
fn pipeline_over_custom_filters_equals_serial_reference() {
    for shards in SHARD_COUNTS {
        pipeline_over_custom_filters_equals_serial_reference_at(shards);
    }
}

fn pipeline_over_custom_filters_equals_serial_reference_at(shards: usize) {
    let cfg = config(11, shards);
    let items = workload(40_000);
    let expected = serial_reference(odd_filters(&cfg), &items);
    let mut pipe = match Pipeline::launch_with_filters(cfg, odd_filters(&cfg)) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let mut got = Vec::new();
    ingest_all(&mut pipe, &items, &mut got);
    got.extend(shutdown_reports(pipe));
    assert!(expected.iter().all(|s| !s.is_empty()), "too tame");
    assert!(
        expected
            .iter()
            .flatten()
            .any(|(_, r)| r.source == ReportSource::Vague),
        "no report came from the vague part"
    );
    assert_eq!(per_shard(&got, shards), expected, "{shards} shards");
}

#[test]
fn restored_pipeline_equals_serial_reference() {
    for shards in SHARD_COUNTS {
        restored_pipeline_equals_serial_reference_at(shards);
    }
}

fn restored_pipeline_equals_serial_reference_at(shards: usize) {
    let cfg = config(12, shards);
    let items = workload(40_000);
    let half = items.len() / 2;
    let expected = serial_reference(odd_filters(&cfg), &items);
    let mut first = match Pipeline::launch_with_filters(cfg, odd_filters(&cfg)) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let mut got = Vec::new();
    ingest_all(&mut first, &items[..half], &mut got);
    let bytes = match first.snapshot() {
        Ok(b) => b,
        Err(e) => panic!("snapshot: {e}"),
    };
    got.extend(shutdown_reports(first));
    // The rebuilt pipeline's router must hash with the restored filters'
    // seeds and geometry, not the config's defaults.
    let mut second = match Pipeline::restore(&bytes, cfg) {
        Ok(p) => p,
        Err(e) => panic!("restore: {e}"),
    };
    ingest_all(&mut second, &items[half..], &mut got);
    got.extend(shutdown_reports(second));
    assert_eq!(per_shard(&got, shards), expected, "{shards} shards");
}

#[test]
fn supervised_crash_recovery_replays_hashed_records() {
    for shards in SHARD_COUNTS {
        supervised_crash_recovery_replays_hashed_records_at(shards);
    }
}

fn supervised_crash_recovery_replays_hashed_records_at(shards: usize) {
    let cfg = config(13, shards);
    let poison_key = 999_999u64;
    let items = workload(12_000);
    let half = items.len() / 2;
    let filters = (0..shards)
        .map(|s| {
            QuantileFilterBuilder::new(cfg.criteria)
                .memory_budget_bytes(cfg.memory_bytes_per_shard)
                .seed(cfg.shard_seed(s))
                .build()
        })
        .collect();
    let expected = serial_reference(filters, &items);
    // A checkpoint interval longer than the whole run: the recovered
    // filter is a fresh one that replays the whole journal.
    let sup = SupervisorConfig {
        checkpoint_interval: 1 << 20,
        ..SupervisorConfig::default()
    };
    let plan = ChaosPlan::new().with(Fault::Poison {
        key: poison_key,
        times: 1,
    });
    let mut pipe = match Pipeline::launch_chaos(cfg, sup, &plan) {
        Ok(p) => p,
        Err(e) => panic!("launch: {e}"),
    };
    let mut got = Vec::new();
    ingest_all(&mut pipe, &items[..half], &mut got);
    // The poison item travels alone in its slab. Queues are FIFO and a
    // worker commits each slab before popping the next, so every earlier
    // item is journaled when it crashes; the snapshot barrier then waits
    // for the death and recovers the shard before anything else is sent.
    pipe.flush();
    match pipe.ingest(poison_key, 777.0) {
        Ok(IngestOutcome::Enqueued) => {}
        other => panic!("poison item should enqueue, got {other:?}"),
    }
    if let Err(e) = pipe.snapshot() {
        panic!("snapshot: {e}");
    }
    ingest_all(&mut pipe, &items[half..], &mut got);
    got.extend(pipe.poll_reports());
    let summary = match pipe.shutdown() {
        Ok(s) => s,
        Err(e) => panic!("shutdown: {e}"),
    };
    got.extend(summary.reports.iter().copied());
    assert_eq!(summary.restarts, 1, "{summary:?}");
    assert_eq!(summary.lost_to_crash, 1, "{summary:?}");
    let rec = &summary.recoveries[0];
    assert!(rec.replayed > 0, "nothing was replayed: {rec:?}");
    assert_eq!(per_shard(&got, shards), expected, "{shards} shards");
}
