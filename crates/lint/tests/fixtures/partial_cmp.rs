//@path crates/core/src/perf/golden/partial_cmp.rs
// partial-cmp-unwrap: NaN-partial comparators in library code.

fn sort_scores(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.sort_by(|a, b| a.total_cmp(b));
}

#[cfg(test)]
mod tests {
    fn assert_ordered(a: f64, b: f64) {
        assert_eq!(a.partial_cmp(&b).unwrap(), std::cmp::Ordering::Less);
    }
}
