//! Sample statistics the benchmark reports: median, nearest-rank
//! percentile, drift ratio, and the regression-bound comparison.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// Median; the mean of the two middle samples for an even count. Panics on
/// an empty slice: every metric is fed at least one sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1]: the smallest sample with at
/// least `p` of the samples at or below it. `percentile(v, 0.9)` of 100
/// samples is the 90th smallest, leaving exactly ten beyond it.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of the last `k` samples over the median of the first `k`: how
/// much an operation slowed down over one engine's lifetime. 1.0 when
/// there are fewer than `2k` samples (the windows would overlap).
pub fn drift(v: &[f64], k: usize) -> f64 {
    if k == 0 || v.len() < 2 * k {
        return 1.0;
    }
    median(&v[v.len() - k..]) / median(&v[..k])
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is *worse* (negative: better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_of_100_has_ten_beyond() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&v, 0.9);
        assert_eq!(p90, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn drift_is_last_over_first() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // median(8,9,10) / median(1,2,3)
        assert_eq!(drift(&v, 3), 4.5);
        assert_eq!(drift(&v[..5], 3), 1.0, "overlapping windows report no drift");
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 85.0, Better::Higher) - 0.15).abs() < 1e-12);
        // Within a 10 % bound or not.
        assert!(worse_by(50.0, 54.9, Better::Lower) <= 0.10);
        assert!(worse_by(50.0, 55.1, Better::Lower) > 0.10);
    }
}
