//@path crates/comms/src/golden/flow_seeded.rs
//@sink publish comms reduction
// Seeded randomness is no finding: the same chain as flow_chain with a
// `SplitMix64` draw in place of the wall clock ends `DetModuloSeed`
// (the same output for the same seed), and the sink passes.

struct SplitMix64 {
    s: u64,
}

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.s = self.s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.s
    }
}

fn jitter(x: f64, rng: &mut SplitMix64) -> f64 {
    x + (rng.next_u64() % 3) as f64
}

pub fn publish(xs: &[f64], seed: u64) -> f64 {
    let mut rng = SplitMix64 { s: seed };
    let mut acc = 0.0;
    for &x in xs {
        acc += jitter(x, &mut rng);
    }
    acc
}
