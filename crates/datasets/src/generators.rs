//! The three workload generators, each a statistical stand-in for one of
//! the paper's datasets (substitution rationale in DESIGN.md §4).
//!
//! Each dataset is one RNG stream seeded from the config seed and drawn
//! on the calling thread, so the output depends on the config alone and
//! never on the host (core count included).

use crate::config::{CloudConfig, InternetConfig, ZipfConfig};
use crate::values::{KeyProfile, LatencyModel};
use crate::zipf::ZipfSampler;
use crate::Item;
use rand::prelude::*;
use rand::rngs::SmallRng;

/// A generated workload plus its provenance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable workload name ("internet", "cloud", "zipf-a1.1").
    pub name: String,
    /// The stream.
    pub items: Vec<Item>,
    /// The value threshold `T` the experiments use.
    pub threshold: f64,
    /// Distinct keys actually present.
    pub key_count: u64,
    /// Fraction of items whose value exceeds `T`.
    pub abnormal_fraction: f64,
}

impl Dataset {
    fn finalize(name: String, items: Vec<Item>, threshold: f64) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(items.len() / 4);
        let mut abnormal = 0usize;
        for it in &items {
            seen.insert(it.key);
            if it.value > threshold {
                abnormal += 1;
            }
        }
        let abnormal_fraction = abnormal as f64 / items.len().max(1) as f64;
        Self {
            name,
            key_count: seen.len() as u64,
            abnormal_fraction,
            items,
            threshold,
        }
    }

    /// Average items per distinct key.
    pub fn items_per_key(&self) -> f64 {
        self.items.len() as f64 / self.key_count.max(1) as f64
    }
}

/// Precompute key profiles for a bounded key space.
fn profiles(model: &LatencyModel, keys: u64, seed: u64) -> Vec<KeyProfile> {
    (0..keys).map(|k| model.profile(k, seed)).collect()
}

/// CAIDA-like internet workload: Zipf key popularity, lognormal latencies,
/// a laggy key minority that crosses `T`.
pub fn internet_like(cfg: &InternetConfig) -> Dataset {
    let sampler = ZipfSampler::new(cfg.keys, cfg.alpha);
    let profs = profiles(&cfg.model, cfg.keys, cfg.seed);
    let mut rng = SmallRng::seed_from_u64(qf_hash::mix64(cfg.seed));
    let items = (0..cfg.items)
        .map(|_| {
            let key = sampler.sample(&mut rng) - 1;
            let value = cfg.model.draw(profs[key as usize], &mut rng);
            Item { key, value }
        })
        .collect();
    Dataset::finalize("internet".into(), items, cfg.threshold)
}

/// Yahoo-like cloud workload: a small Zipf heavy core plus an ocean of
/// keys that appear only once or twice (the paper's 16.9M-unique-keys
/// regime, where HistSketch's space explodes).
pub fn cloud_like(cfg: &CloudConfig) -> Dataset {
    let core_sampler = ZipfSampler::new(cfg.core_keys, cfg.core_alpha);
    let core_profs = profiles(&cfg.model, cfg.core_keys, cfg.seed);
    let tail_keys = ((cfg.items as f64 * cfg.tail_key_fraction) as u64).max(1);
    let mut rng = SmallRng::seed_from_u64(qf_hash::mix64(cfg.seed ^ 0xC1));
    let items = (0..cfg.items)
        .map(|_| {
            let (key, profile) = if rng.gen::<f64>() < cfg.core_fraction {
                let k = core_sampler.sample(&mut rng) - 1;
                (k, core_profs[k as usize])
            } else {
                // Tail keys live above the core id range; profiles are
                // derived lazily (the key space is too large to table).
                let k = cfg.core_keys + rng.gen_range(0..tail_keys);
                (k, cfg.model.profile(k, cfg.seed))
            };
            let value = cfg.model.draw(profile, &mut rng);
            Item { key, value }
        })
        .collect();
    Dataset::finalize("cloud".into(), items, cfg.threshold)
}

/// The paper's synthetic Zipf dataset: Zipf(α) key popularity; values are
/// a Zipf-distributed component plus a per-key normal constant.
pub fn zipf_dataset(cfg: &ZipfConfig) -> Dataset {
    let key_sampler = ZipfSampler::new(cfg.keys, cfg.alpha);
    let component_sampler = ZipfSampler::new(
        cfg.value_model.component_ranks,
        cfg.value_model.component_alpha,
    );
    let mut rng = SmallRng::seed_from_u64(qf_hash::mix64(cfg.seed ^ 0x21));
    let items = (0..cfg.items)
        .map(|_| {
            let key = key_sampler.sample(&mut rng) - 1;
            let component = cfg.value_model.draw_component(&component_sampler, &mut rng);
            let constant = cfg.value_model.key_constant(key, cfg.seed);
            Item {
                key,
                value: component + constant,
            }
        })
        .collect();
    Dataset::finalize(format!("zipf-a{}", cfg.alpha), items, cfg.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet_shape() {
        let d = internet_like(&InternetConfig::tiny());
        assert_eq!(d.items.len(), 50_000);
        assert!(d.key_count > 500, "keys {}", d.key_count);
        assert!(d.key_count <= 2_000);
        // Paper: ≈7.6% abnormal items at T = 300.
        assert!(
            (0.01..0.20).contains(&d.abnormal_fraction),
            "abnormal fraction {}",
            d.abnormal_fraction
        );
        assert!(d.items_per_key() > 10.0);
    }

    #[test]
    fn internet_deterministic() {
        let a = internet_like(&InternetConfig::tiny());
        let b = internet_like(&InternetConfig::tiny());
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items).take(1000) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn cloud_has_many_rare_keys() {
        let d = cloud_like(&CloudConfig::tiny());
        // The distinct-key count must be a large fraction of items.
        assert!(
            d.key_count as f64 > d.items.len() as f64 * 0.3,
            "only {} keys for {} items",
            d.key_count,
            d.items.len()
        );
        assert!(
            (0.005..0.25).contains(&d.abnormal_fraction),
            "abnormal fraction {}",
            d.abnormal_fraction
        );
    }

    #[test]
    fn cloud_heavy_core_is_hot() {
        let d = cloud_like(&CloudConfig::tiny());
        let core = CloudConfig::tiny().core_keys;
        let core_items = d.items.iter().filter(|it| it.key < core).count();
        let frac = core_items as f64 / d.items.len() as f64;
        assert!((frac - 0.30).abs() < 0.03, "core fraction {frac}");
    }

    #[test]
    fn zipf_dataset_values_positive() {
        let d = zipf_dataset(&ZipfConfig::tiny());
        assert!(d.items.iter().all(|it| it.value >= 0.0));
        assert!(d.abnormal_fraction > 0.0 && d.abnormal_fraction < 0.5);
    }

    #[test]
    fn zipf_key_skew_follows_alpha() {
        let mut steep_cfg = ZipfConfig::tiny();
        steep_cfg.alpha = 1.6;
        let steep = zipf_dataset(&steep_cfg);
        let flat = zipf_dataset(&ZipfConfig::tiny());
        let count_key0 = |d: &Dataset| d.items.iter().filter(|it| it.key == 0).count();
        assert!(
            count_key0(&steep) > count_key0(&flat),
            "steeper alpha must concentrate the top key"
        );
    }

    /// Order-sensitive digest of every key and value bit.
    fn digest(d: &Dataset) -> u64 {
        d.items.iter().fold(d.items.len() as u64, |h, it| {
            qf_hash::mix64(qf_hash::mix64(h ^ it.key) ^ it.value.to_bits())
        })
    }

    #[test]
    fn tiny_outputs_are_pinned() {
        // The single-stream output every committed golden and result was
        // made with. A change here is a data-spec change: it moves the
        // observer goldens and every regenerated figure.
        let got = [
            digest(&internet_like(&InternetConfig::tiny())),
            digest(&cloud_like(&CloudConfig::tiny())),
            digest(&zipf_dataset(&ZipfConfig::tiny())),
        ];
        assert_eq!(got, [INTERNET_TINY, CLOUD_TINY, ZIPF_TINY]);
    }

    const INTERNET_TINY: u64 = 0x275b_27a3_0dea_f468;
    const CLOUD_TINY: u64 = 0x8dc0_ed81_33dd_8d4e;
    const ZIPF_TINY: u64 = 0xfc86_7775_041f_e8eb;

    #[test]
    fn deterministic_across_runs_zipf() {
        let a = zipf_dataset(&ZipfConfig::tiny());
        let b = zipf_dataset(&ZipfConfig::tiny());
        assert_eq!(a.items[..100], b.items[..100]);
    }
}
