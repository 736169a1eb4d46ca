//! Sample summaries: seven repetitions support a median and the extremes,
//! no percentile beyond that.

use crate::json::{obj, Json};

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a non-empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            median,
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// A value measured or counted once.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// `(max − min) ÷ median`, the run's own spread (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        obj([
            ("unit", Json::Str(unit.into())),
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Summary> {
        Some(Summary {
            median: v.get("median")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
            n: v.get("n")?.as_f64()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_takes_the_middle_value() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 5));
    }

    #[test]
    fn even_sample_averages_the_two_middle_values() {
        let s = Summary::of(&[4.0, 1.0, 10.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 10.0, 4));
    }

    #[test]
    fn single_value_is_its_own_summary() {
        assert_eq!(Summary::of(&[2.5]), Summary::single(2.5));
        assert_eq!(Summary::single(2.5).spread(), 0.0);
    }

    #[test]
    fn summary_survives_json() {
        let s = Summary::of(&[1.25, 1.5, 1.125]);
        let text = s.to_json("s").render();
        assert_eq!(Summary::from_json(&Json::parse(&text).unwrap()), Some(s));
    }
}
