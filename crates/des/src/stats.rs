//! Online statistics and histograms for measurement harnesses.

/// Welford online mean/variance with min/max tracking.
#[derive(Clone, Debug)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Pool another sample set into this one (Chan et al. parallel
    /// variance update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let delta = other.mean - self.mean;
        let n = na + nb;
        self.mean += delta * nb / n;
        self.m2 += other.m2 + delta * delta * na * nb / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Power-of-two bucketed histogram (bucket i counts values in
/// `[2^i, 2^(i+1))`, bucket 0 also holds 0).
#[derive(Clone, Debug)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    pub fn new() -> Self {
        Log2Histogram {
            buckets: vec![0; 64],
            total: 0,
        }
    }

    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Smallest upper bound `2^(i+1)` such that at least `q` (0..=1) of the
    /// samples fall below it. Returns 0 for an empty histogram. The top
    /// bucket's upper bound `2^64` does not fit in a `u64` and saturates
    /// to `u64::MAX` (inclusive), keeping it distinct from bucket 62's
    /// bound of `2^63`.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
            }
        }
        u64::MAX
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile_upper_bound(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(0.99)
    }

    /// Pool another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.total += other.total;
    }
}

/// Simple named counter set used by simulated components for occupancy /
/// traffic accounting.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
}

impl Counters {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, name: &'static str, delta: u64) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 += delta;
        } else {
            self.entries.push((name, delta));
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }
}

/// Ordinary least squares for `y = a·x + b`; returns `(a, b)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-300, "degenerate x values");
    let a = (n * sxy - sx * sy) / denom;
    (a, (sy - a * sx) / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn stats_degenerate_cases() {
        let mut s = OnlineStats::new();
        assert_eq!(s.variance(), 0.0);
        s.push(5.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.mean(), 5.0);
    }

    #[test]
    fn merge_matches_single_stream() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..4] {
            a.push(x);
        }
        for &x in &xs[4..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging into empty copies the source.
        let mut e = OnlineStats::new();
        e.merge(&whole);
        assert_eq!(e.count(), whole.count());
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2, 3
        assert_eq!(h.bucket(2), 2); // 4, 7
        assert_eq!(h.bucket(3), 1); // 8
        assert_eq!(h.bucket(10), 1); // 1024
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile_upper_bound(0.5), 16);
        assert!(h.quantile_upper_bound(1.0) > 1_000_000);
        assert_eq!(Log2Histogram::new().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn quantile_accessors_on_empty_zero_and_one_sample() {
        // Empty histogram: all quantiles are 0.
        let h = Log2Histogram::new();
        assert_eq!((h.p50(), h.p90(), h.p99()), (0, 0, 0));
        // A single zero lands in bucket 0, upper bound 2.
        let mut h = Log2Histogram::new();
        h.record(0);
        assert_eq!((h.p50(), h.p90(), h.p99()), (2, 2, 2));
        // One sample: every quantile reports its bucket's bound.
        let mut h = Log2Histogram::new();
        h.record(5); // bucket 2 = [4, 8)
        assert_eq!((h.p50(), h.p90(), h.p99()), (8, 8, 8));
    }

    #[test]
    fn top_buckets_have_distinct_bounds() {
        // Bucket 62 = [2^62, 2^63): bound is exactly 2^63.
        let mut h62 = Log2Histogram::new();
        h62.record(1u64 << 62);
        assert_eq!(h62.p99(), 1u64 << 63);
        // Bucket 63 = [2^63, u64::MAX]: its 2^64 bound saturates, and
        // must stay strictly above bucket 62's (the old `(i+1).min(63)`
        // shift collapsed both to 2^63).
        let mut h63 = Log2Histogram::new();
        h63.record(u64::MAX);
        assert_eq!(h63.p99(), u64::MAX);
        assert!(h62.p99() < h63.p99());
        // Top-bucket samples dominate high quantiles of a mixed stream.
        let mut h = Log2Histogram::new();
        for _ in 0..9 {
            h.record(1);
        }
        h.record(u64::MAX);
        assert_eq!(h.p50(), 2);
        assert_eq!(h.quantile_upper_bound(1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let mut whole = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [0u64, 1, 7, 1024, u64::MAX] {
            whole.record(v);
            a.record(v);
        }
        for v in [3u64, 9, 1 << 40] {
            whole.record(v);
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        for i in 0..64 {
            assert_eq!(a.bucket(i), whole.bucket(i), "bucket {i}");
        }
        assert_eq!(a.p50(), whole.p50());
    }

    #[test]
    fn counters() {
        let mut c = Counters::new();
        c.add("pkts", 3);
        c.add("pkts", 2);
        c.add("drops", 1);
        assert_eq!(c.get("pkts"), 5);
        assert_eq!(c.get("drops"), 1);
        assert_eq!(c.get("nope"), 0);
        assert_eq!(c.iter().count(), 2);
    }
}
