//! Order statistics of a handful of samples.

/// First quartile, median and third quartile of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// `(q3 − q1) ÷ median`: the spread the driver and `aa.sh` judge by.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them (the
/// exclusive method), so a spread computed here equals one the driver
/// computes from the same values. One sample is its own quartiles.
///
/// # Panics
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> Quartiles {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).median
}

/// Median of integer samples (counts), as a float.
pub fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_is_its_own_quartiles() {
        let q = quartiles(&[3.5]);
        assert_eq!((q.q1, q.median, q.q3), (3.5, 3.5, 3.5));
        assert_eq!(q.iqr_frac(), 0.0);
    }

    #[test]
    fn odd_and_even_samples_match_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let q = quartiles(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert!((q.iqr_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_counts() {
        assert_eq!(median_u64(&[7, 1, 3]), 3.0);
        assert_eq!(median_u64(&[1, 3]), 2.0);
    }
}
