//! Order statistics over measured samples. Every figure the benchmark
//! prints is a median or a percentile of the samples it took, never a
//! best-of-N.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            median: quantile_sorted(&v, 0.5),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            n: v.len(),
        }
    }
}

/// Percentiles of integer nanosecond samples, sorted in place.
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    pub fn of_ns(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self {
            sorted: samples.into_iter().map(|s| s as f64).collect(),
        }
    }

    pub fn of_f64(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    pub fn at(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// Quantile `q` read as the mean of the samples within half a
    /// percentile point of it, so a timer's whole-nanosecond ticks do not
    /// quantize the figure. Falls back to [`Self::at`] below 200 samples.
    pub fn at_band(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n < 200 {
            return self.at(q);
        }
        let last = (n - 1) as f64;
        let lo = ((q - 0.005).max(0.0) * last).floor() as usize;
        let hi = (((q + 0.005).min(1.0) * last).ceil() as usize).min(n - 1);
        let band = &self.sorted[lo..=hi];
        band.iter().sum::<f64>() / band.len() as f64
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn banded_quantile_averages_its_neighbourhood() {
        let p = Percentiles::of_ns((0..1001).collect());
        assert_eq!(p.at(0.5), 500.0);
        assert_eq!(p.at_band(0.5), 500.0);
        assert!((p.at_band(0.99) - 990.0).abs() < 1e-9);
        let small = Percentiles::of_ns(vec![3, 1, 2]);
        assert_eq!(small.at_band(0.5), 2.0);
    }
}
