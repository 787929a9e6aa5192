//! Seed-pure benchmark inputs.
//!
//! Both traces, and the internet workload's query keys, come from one
//! `SmallRng` stream seeded by `--seed` and drawn on one thread from the
//! public qf-datasets parts (`ZipfSampler`, `ZipfValueModel`,
//! `LatencyModel`) over fixed key populations. Nothing depends on the
//! host's core count, so the same seed gives the same items everywhere. The bulk generators
//! `zipf_dataset` / `internet_like` are deliberately not used: their
//! output is split across threads by `available_parallelism`.

use qf_datasets::values::{LatencyModel, ZipfValueModel};
use qf_datasets::ZipfSampler;
use qf_hash::mix64;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Value threshold `T` of every workload's criteria.
pub const THRESHOLD: f64 = 300.0;

/// Seeds of the key populations: each key's value model (its Zipf-model
/// constant, its latency profile and whether it is laggy) is fixed, and
/// `--seed` draws the streams over those keys. A seed that made one of
/// the few heaviest keys laggy would otherwise change how much of the
/// internet trace reaches the vague part (8–28% candidate hits across
/// seeds 1–10) and with it the work each item costs.
const ZIPF_POPULATION_SEED: u64 = 0x21FF_0003;
const INTERNET_POPULATION_SEED: u64 = 0x1A7E_0001;

/// Sizes and shapes of the generated traces.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    pub zipf_items: usize,
    pub zipf_keys: u64,
    pub zipf_alpha: f64,
    pub internet_items: usize,
    pub internet_keys: u64,
    pub internet_alpha: f64,
    /// One query follows every `query_every` inserts on `internet-mixed`
    /// (7 → every 8th operation is a query).
    pub query_every: usize,
}

impl TraceSpec {
    /// The benchmark's traces: Zipf α=1.1 over 120k keys with the paper's
    /// value model, and a CAIDA-like trace (α=1.1, 50k keys, lognormal
    /// latencies).
    pub const STANDARD: TraceSpec = TraceSpec {
        zipf_items: 2_000_000,
        zipf_keys: 120_000,
        zipf_alpha: 1.1,
        internet_items: 2_000_000,
        internet_keys: 50_000,
        internet_alpha: 1.1,
        query_every: 7,
    };
}

/// The generated inputs of one seed.
pub struct Traces {
    pub zipf: Vec<(u64, f64)>,
    pub internet: Vec<(u64, f64)>,
    /// Keys queried on `internet-mixed`, drawn from the internet key
    /// distribution by a stream of their own (seeded from the main one).
    pub queries: Vec<u64>,
}

impl Traces {
    pub fn generate(spec: &TraceSpec, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);

        let model = ZipfValueModel::paper_default();
        let keys = ZipfSampler::new(spec.zipf_keys, spec.zipf_alpha);
        let components = ZipfSampler::new(model.component_ranks, model.component_alpha);
        let constants: Vec<f64> = (0..spec.zipf_keys)
            .map(|k| model.key_constant(k, ZIPF_POPULATION_SEED))
            .collect();
        let zipf = (0..spec.zipf_items)
            .map(|_| {
                let key = keys.sample(&mut rng) - 1;
                let value = model.draw_component(&components, &mut rng) + constants[key as usize];
                (key, value)
            })
            .collect();

        let latency = LatencyModel::internet_default();
        let keys = ZipfSampler::new(spec.internet_keys, spec.internet_alpha);
        let profiles: Vec<_> = (0..spec.internet_keys)
            .map(|k| latency.profile(k, INTERNET_POPULATION_SEED))
            .collect();
        let internet = (0..spec.internet_items)
            .map(|_| {
                let key = keys.sample(&mut rng) - 1;
                (key, latency.draw(profiles[key as usize], &mut rng))
            })
            .collect();

        let mut query_rng = SmallRng::seed_from_u64(rng.next_u64());
        let queries = (0..spec.internet_items / spec.query_every)
            .map(|_| keys.sample(&mut query_rng) - 1)
            .collect();

        Self {
            zipf,
            internet,
            queries,
        }
    }

    /// Order-sensitive digest of all generated inputs.
    pub fn digest(&self) -> u64 {
        let mut h = digest_items(&self.zipf);
        h = mix64(h ^ digest_items(&self.internet));
        for &q in &self.queries {
            h = mix64(h ^ q);
        }
        h
    }
}

/// Order-sensitive digest of one trace.
pub fn digest_items(items: &[(u64, f64)]) -> u64 {
    items.iter().fold(items.len() as u64, |h, &(k, v)| {
        mix64(mix64(h ^ k) ^ v.to_bits())
    })
}

/// Number of distinct keys in a trace.
pub fn distinct_keys(items: &[(u64, f64)]) -> usize {
    let mut keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Fraction of items above `T`.
pub fn above_threshold(items: &[(u64, f64)]) -> f64 {
    let above = items.iter().filter(|&&(_, v)| v > THRESHOLD).count();
    above as f64 / items.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: TraceSpec = TraceSpec {
        zipf_items: 20_000,
        internet_items: 14_000,
        ..TraceSpec::STANDARD
    };

    #[test]
    fn digest_is_pinned_for_a_fixed_seed() {
        // Pins the data spec: a change here changes every benchmark input
        // and must be recorded as such.
        let t = Traces::generate(&SMALL, 42);
        assert_eq!(t.zipf.len(), 20_000);
        assert_eq!(t.internet.len(), 14_000);
        assert_eq!(t.queries.len(), 2_000);
        assert_eq!(format!("{:016x}", t.digest()), "acbbbd22d032aded");
    }

    #[test]
    fn same_seed_same_inputs_on_any_thread() {
        let a = Traces::generate(&SMALL, 7).digest();
        let b = std::thread::spawn(|| Traces::generate(&SMALL, 7).digest())
            .join()
            .expect("generator thread");
        assert_eq!(a, b);
        assert_ne!(a, Traces::generate(&SMALL, 8).digest());
    }

    #[test]
    fn traces_have_the_documented_shape() {
        let t = Traces::generate(&SMALL, 3);
        assert!(t.zipf.iter().all(|&(k, v)| k < 120_000 && v >= 0.0));
        assert!(t.internet.iter().all(|&(k, v)| k < 50_000 && v > 0.0));
        let above = above_threshold(&t.internet);
        assert!((0.02..0.2).contains(&above), "internet above T: {above}");
    }
}
