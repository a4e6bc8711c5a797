//! Order statistics for the reported metrics.
//!
//! Every percentile is nearest-rank: the `p`-th percentile of `n`
//! samples is the sample of rank `ceil(p / 100 * n)` in ascending order,
//! so the 99th percentile of 100 samples is the 99th smallest — a value
//! that was actually measured, never an interpolation.

/// The nearest-rank `p`-th percentile of `samples` (`0 < p <= 100`).
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank `p`-th percentile of `(value, count)` samples: the
/// same value [`percentile`] gives over each value repeated `count` times.
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> Option<f64> {
    let total: u64 = samples.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    sorted.into_iter().find_map(|(value, n)| {
        seen += n;
        (seen >= rank).then_some(value)
    })
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean. `None` when there are no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The percentile a metric name states: `tick_p90_ms` is the 90th,
/// `batch_p99_us` the 99th. `None` for names without a `_pNN_` part.
pub fn named_percentile(name: &str) -> Option<f64> {
    name.split('_').find_map(|part| {
        let digits = part.strip_prefix('p')?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits
            .parse::<f64>()
            .ok()
            .filter(|p| *p > 0.0 && *p <= 100.0)
    })
}

/// The value of the percentile metric `name` over `samples`.
pub fn percentile_metric(name: &str, samples: &[f64]) -> Option<f64> {
    percentile(samples, named_percentile(name)?)
}

/// The value of the percentile metric `name` over `(value, count)`
/// samples.
pub fn weighted_percentile_metric(name: &str, samples: &[(f64, u64)]) -> Option<f64> {
    weighted_percentile(samples, named_percentile(name)?)
}
