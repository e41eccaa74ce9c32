//! Least-squares fitting (behind the paper's global-sum fit
//! `t = 4.67·log2 N − 0.95` µs, §4.2).

use hyades_des::stats::linear_fit;

/// Fit `t = C·log2(N) + B` to `(N, t)` latency measurements.
pub fn log2_fit(points: &[(u32, f64)]) -> (f64, f64) {
    let xs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, t)| ((n as f64).log2(), t))
        .collect();
    linear_fit(&xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_gsum_fit() {
        // §4.2's measured latencies: 4.0/8.3/12.8/18.2 µs for
        // 2/4/8/16-way; least squares gives t = 4.67·log2 N − 0.95.
        let pts = [(2u32, 4.0), (4, 8.3), (8, 12.8), (16, 18.2)];
        let (c, b) = log2_fit(&pts);
        assert!((c - 4.67).abs() < 0.06, "C = {c}");
        assert!((b + 0.95).abs() < 0.12, "B = {b}");
    }

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 7.0)).collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-12);
        assert!((b + 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_point() {
        linear_fit(&[(1.0, 1.0)]);
    }
}
