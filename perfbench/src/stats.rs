//! Exact order statistics over the benchmark's own raw samples.
//!
//! Every quantile is computed from the full sample list (linear interpolation between
//! the two closest ranks), never from a bucketed histogram. A percentile is only
//! reported when at least ten samples lie beyond it, so a "p90" always rests on a tail
//! of ten or more observations.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, interpolating between closest ranks.
/// Returns `None` for an empty list.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`; 0 for an empty list, which is how the report shows a
/// layer the workload does not run.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The `q`-quantile (a whole percentile), but only when at least ten samples lie
/// beyond it.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    // In whole percent, so 100 samples put exactly ten beyond p90.
    let beyond = samples.len() * (100 - (q * 100.0).round() as usize) / 100;
    if beyond >= 10 {
        quantile(samples, q)
    } else {
        None
    }
}

/// The highest of p99 / p90 / p75 that has at least ten samples beyond it, as
/// `(label, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p90", 0.90), ("p75", 0.75)]
        .into_iter()
        .find_map(|(label, q)| tail_quantile(samples, q).map(|v| (label, v)))
}

/// One-line summary of a timing distribution: median, the highest reportable tail
/// percentile and the sample count.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let n = samples.len();
    match highest_tail(samples) {
        Some((label, value)) => format!(
            "median {:.4} {unit}, {label} {:.4} {unit} (n={n})",
            median(samples),
            value
        ),
        None => format!(
            "median {:.4} {unit} (n={n}; no percentile has ten samples beyond it)",
            median(samples)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let s: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail_quantile(&s, 0.9).is_none());
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_quantile(&s, 0.9).is_some());
        assert_eq!(highest_tail(&s).map(|(l, _)| l), Some("p90"));
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_tail(&s).map(|(l, _)| l), Some("p99"));
    }
}
