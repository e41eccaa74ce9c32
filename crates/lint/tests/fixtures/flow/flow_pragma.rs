//@path crates/comms/src/golden/flow_pragma.rs
//@sink publish comms reduction
// Pragma-suppressed chain: the same wall-clock helper as flow_chain,
// but its source line carries an audited lint:allow pragma — the
// source leaves the catalog, the chain stays Det and the sink check
// passes.

fn wall_ns() -> u64 {
    // lint:allow(instant-wallclock, wall_ns is compiled to a constant in sim builds; never feeds simulated time)
    let t = std::time::SystemTime::now();
    t.elapsed().map(|d| d.as_nanos() as u64).unwrap_or(0)
}

fn jitter(x: f64) -> f64 {
    x + (wall_ns() % 3) as f64
}

pub fn publish(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += jitter(x);
    }
    acc
}
