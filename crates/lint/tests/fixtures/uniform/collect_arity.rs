//@path crates/comms/src/collect_arity.rs
//! An iterator's `.collect()` beside a workspace method of the same
//! name that takes two arguments and returns a rank-derived value. The
//! call passes none, so it cannot reach that method, and the branch
//! on what it collected is uniform.

pub struct Census {
    weight: usize,
}

impl Census {
    pub fn collect(&self, world: &dyn CommWorld, scale: usize) -> usize {
        world.rank() * scale + self.weight
    }
}

pub fn total(world: &mut dyn CommWorld, xs: &[f64]) -> f64 {
    let doubled = xs.iter().map(|x| x * 2.0).collect::<Vec<f64>>();
    let mut sum = 0.0;
    if doubled.len() > 1 {
        sum = world.global_sum(doubled[0]);
    }
    sum
}
