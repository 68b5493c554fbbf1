//! Order statistics for timing samples.

use crate::json::Value;

/// Median, quartiles and a high percentile of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile that still has at least ten samples beyond
    /// it, as `(percentile, value)`; `None` when the set is too small for
    /// such a percentile to lie above the median.
    pub hi: Option<(f64, f64)>,
    pub n: usize,
}

/// Samples beyond `hi` that make it worth reporting.
const HI_TAIL: usize = 10;

impl Summary {
    /// Summarises `samples`; `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (q1, median, q3) = quartiles(&sorted);
        let hi = (n > 2 * HI_TAIL).then(|| {
            let index = n - HI_TAIL - 1;
            (100.0 * (index + 1) as f64 / n as f64, sorted[index])
        });
        Some(Summary {
            median,
            q1,
            q3,
            hi,
            n,
        })
    }

    /// The distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
        ];
        if let Some((pct, value)) = self.hi {
            pairs.push(("hi", Value::Num(value)));
            pairs.push(("hi_pct", Value::Num(pct)));
        }
        pairs.push(("n", Value::Num(self.n as f64)));
        Value::obj(pairs)
    }

    pub fn from_json(value: &Value) -> Option<Summary> {
        let num = |key: &str| value.get(key).and_then(Value::as_f64);
        Some(Summary {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            hi: num("hi_pct").zip(num("hi")),
            n: value.get("n")?.as_u64()? as usize,
        })
    }
}

/// The three quartile cut points of a sorted set, computed the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them, so
/// the spreads this benchmark prints are the spreads its contract checks.
/// A single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `samples`; `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        close(s.q1, 2.75);
        close(s.median, 5.5);
        close(s.q3, 8.25);
        close(s.spread(), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        close(s.q1, 1.0);
        close(s.median, 2.0);
        close(s.q3, 3.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        close(s.q1, 0.75);
        close(s.median, 1.5);
        close(s.q3, 2.25);
        // statistics.quantiles([2, 4, 6, 8, 10, 12, 14], n=4) == [4.0, 8.0, 12.0]
        let s = Summary::of(&[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]).unwrap();
        close(s.q1, 4.0);
        close(s.median, 8.0);
        close(s.q3, 12.0);
    }

    #[test]
    fn single_sample_and_empty_set() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.hi, None);
        assert_eq!(median(&[3.0, 1.0]), Some(2.0));
    }

    #[test]
    fn hi_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).unwrap().hi, None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = Summary::of(&samples).unwrap().hi.unwrap();
        close(pct, 90.0);
        close(value, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        let (pct, value) = Summary::of(&samples).unwrap().hi.unwrap();
        close(value, 11.0);
        close(pct, 100.0 * 11.0 / 21.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let samples: Vec<f64> = (1..=40).map(|i| f64::from(i) * 0.25).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
