//! Order statistics of a handful of repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the driver applies to the
//! ten-run sets: the spread this harness prints is the spread it is
//! judged by.

/// Median, quartiles and range of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summary of `samples`; panics on an empty slice (a workload that
    /// produced no sample is a harness bug, not a measurement).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            median: quantile(&v, 2),
            q1: quantile(&v, 1),
            q3: quantile(&v, 3),
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// A single reading (peak RSS): every order statistic is the value.
    pub fn single(x: f64) -> Summary {
        Summary::of(&[x])
    }

    /// Inter-quartile distance as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile cut (1..=3) of sorted `v`, exclusive method:
/// position `i·(n+1)/4`, linearly interpolated between its neighbours
/// (and, like Python, extrapolated from the end pair on tiny samples).
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// The `p`-quantile (0..1) by nearest rank — used for per-step latency
/// percentiles, where the sample count is in the hundreds.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples for a percentile");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(s.rel_iqr(), 10.5 / 4.0);
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = Summary::single(3.5);
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (3.5, 3.5, 3.5, 3.5, 3.5)
        );
        assert_eq!(s.rel_iqr(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }
}
