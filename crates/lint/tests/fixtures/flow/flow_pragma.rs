//@path crates/comms/src/golden/flow_pragma.rs
//@sink publish comms reduction
// Pragma-waived sink: the same wall-clock helper as flow_chain, but the
// sink's `fn` line carries an audited lint:allow pragma: the chain
// stays Nondet in the table and the sink's finding is waived.

fn wall_ns() -> u64 {
    let t = std::time::SystemTime::now();
    t.elapsed().map(|d| d.as_nanos() as u64).unwrap_or(0)
}

fn jitter(x: f64) -> f64 {
    x + (wall_ns() % 3) as f64
}

// lint:allow(nondet-reachable, the published figure is a banner that no simulated result reads)
pub fn publish(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += jitter(x);
    }
    acc
}
