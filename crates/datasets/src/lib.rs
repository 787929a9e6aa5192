//! Synthetic key–value stream workloads for the QuantileFilter evaluation.
//!
//! The paper evaluates on three datasets (§V-A): CAIDA internet traffic
//! (26.1M items / 0.64M five-tuple keys, inter-arrival values), Yahoo cloud
//! flows (20.5M items / 16.9M keys, duration values) and a synthetic Zipf
//! dataset. The real traces are proprietary, so this crate generates
//! statistically matched substitutes (see DESIGN.md §4 for the
//! substitution argument):
//!
//! * [`generators::internet_like`] — Zipf(α≈1.1) key popularity, ~40
//!   items/key, heavy-tailed latency values, T = 300 yielding ≈7.6%
//!   abnormal items.
//! * [`generators::cloud_like`] — extreme key cardinality (most keys appear
//!   once or twice) over a small heavy core, duration values, T = 20s at
//!   ≈4.6% abnormal items.
//! * [`generators::zipf_dataset`] — the paper's synthetic model: item
//!   frequencies Zipf(α); each value is a Zipf-distributed component plus a
//!   per-key constant drawn from a normal distribution.
//!
//! Each dataset is one RNG stream drawn from the config seed, so it is the
//! same on every host whatever its core count, and traces round-trip
//! through a compact binary format ([`trace`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod generators;
pub mod trace;
pub mod values;
pub mod zipf;

pub use config::{CloudConfig, DatasetKind, InternetConfig, ZipfConfig};
pub use generators::{cloud_like, internet_like, zipf_dataset, Dataset};
pub use zipf::ZipfSampler;

/// One stream item: a key identifier and a value.
///
/// Keys are dense `u64` ids; [`key_to_five_tuple`] provides the
/// deterministic network five-tuple view used when a workload must look
/// like packet data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Key identifier.
    pub key: u64,
    /// Observed value (latency ms, duration s, ...).
    pub value: f64,
}

/// Deterministically expand a key id into a plausible network five-tuple.
pub fn key_to_five_tuple(key: u64) -> qf_hash::FiveTuple {
    let h = qf_hash::mix64(key ^ 0x5EED_F17E);
    qf_hash::FiveTuple {
        src_ip: (h >> 32) as u32,
        dst_ip: (h & 0xFFFF_FFFF) as u32,
        src_port: (qf_hash::mix64(h) >> 48) as u16,
        dst_port: (qf_hash::mix64(h.wrapping_add(1)) >> 48) as u16,
        protocol: if h & 1 == 0 { 6 } else { 17 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tuple_view_deterministic_and_distinct() {
        assert_eq!(key_to_five_tuple(5), key_to_five_tuple(5));
        assert_ne!(key_to_five_tuple(5), key_to_five_tuple(6));
    }

    #[test]
    fn five_tuple_views_mostly_injective() {
        use std::collections::HashSet;
        let set: HashSet<_> = (0u64..10_000)
            .map(|k| key_to_five_tuple(k).as_u128())
            .collect();
        assert_eq!(set.len(), 10_000);
    }
}
