//! Sample statistics for the benchmark's reports: nearest-rank
//! percentiles, and the rule for which tail percentile a sample can bear.

/// Candidate tail percentiles, lowest first, as `1 - 1/d` for each `d`
/// (p50, p90, p99, p99.9, p99.99): `n / d` samples lie beyond each.
const LADDER: [usize; 5] = [2, 10, 100, 1000, 10_000];

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Nearest-rank percentile over an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The highest percentile on the ladder that still has at least ten
/// samples beyond it — a tail read off fewer is one outlier's value, not a
/// percentile. `None` when even the median is unsupported (n < 20).
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|&&d| n / d >= 10)
        .map(|&d| 1.0 - 1.0 / d as f64)
}

/// `want` if the sample supports it, else the highest percentile it does
/// support (the median at worst), so a short run never reports an
/// outlier under a tail's name.
pub fn tail_or_supported(sorted: &[f64], want: f64) -> f64 {
    percentile(
        sorted,
        supported_tail(sorted.len()).unwrap_or(0.5).min(want),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(100_000), Some(0.9999));
    }

    #[test]
    fn unsupported_tail_falls_back_to_the_highest_supported() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples bear p90 (20 beyond) but not p99 (2 beyond).
        assert_eq!(tail_or_supported(&s, 0.99), 180.0);
        assert_eq!(tail_or_supported(&s, 0.5), 100.0);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_or_supported(&big, 0.99), 1980.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 7.0]), 7.0);
    }
}
