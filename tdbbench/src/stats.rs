//! Percentiles and the sample-count rule for reporting them.

/// Percentiles the benchmark may report, highest first.
const CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest candidate percentile that has at least ten samples beyond
/// it in a sample of `n`; `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    CANDIDATES
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    percentile(&s, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A latency sample summarised the way the benchmark reports it.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile the sample supports, and its value.
    pub top: Option<(f64, f64)>,
}

pub fn summarize(v: Vec<f64>) -> Summary {
    let s = sorted(v);
    Summary {
        n: s.len(),
        p50: percentile(&s, 50.0),
        p99: percentile(&s, 99.0),
        top: supported_percentile(s.len()).map(|p| (p, percentile(&s, p))),
    }
}

/// Median of a power-of-two bucket histogram given as `(upper bound,
/// count)` pairs (non-cumulative), interpolated linearly inside the
/// bucket that holds it. The server's histograms have this shape, so
/// scraped medians carry up to a factor-of-two bucket width.
pub fn bucket_median(buckets: &[(u64, u64)]) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let half = total as f64 / 2.0;
    let mut seen = 0.0;
    let mut lower = 0.0;
    for &(upper, count) in buckets {
        let c = count as f64;
        if c > 0.0 && seen + c >= half {
            let frac = (half - seen) / c;
            return lower + frac * (upper as f64 - lower);
        }
        seen += c;
        lower = upper as f64;
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(9), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 500.0);
        assert_eq!(percentile(&s, 99.0), 990.0);
        // Exactly ten samples lie beyond p99 of 1000.
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 99.0)).count(), 10);
    }

    #[test]
    fn bucket_median_interpolates() {
        // 10 samples in (0, 1], 10 in (1, 3]: the median is the bucket edge.
        assert_eq!(bucket_median(&[(1, 10), (3, 10)]), 1.0);
        assert_eq!(bucket_median(&[(1, 0), (3, 4)]), 2.0);
    }
}
