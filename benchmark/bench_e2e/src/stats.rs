//! Order statistics for repetitions and result sets.

use serde::{Deserialize, Serialize};

/// Minimum, median and maximum of one metric over repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the mean of the two middle values for an even count.
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no values");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    assert!(!v.is_empty(), "summary of no values");
    Summary {
        min: v[0],
        median: median(&v),
        max: v[v.len() - 1],
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spread printed here is the
/// number the benchmark contract is judged by.  Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_median_max_of_odd_and_even_counts() {
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 2.0, 3.0));
        let s = summary(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 2.5, 4.0));
        let s = summary(&[7.5]);
        assert_eq!((s.min, s.median, s.max), (7.5, 7.5, 7.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&v), Some(1.0));
    }
}
