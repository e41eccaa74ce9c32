//@path crates/comms/src/arm_value.rs
//! An `if` or `match` expression's value is its arms' as well as its
//! condition's: a rank one arm yields decides the branch around the
//! barrier, while a reduced value an arm yields does not.

pub fn arm_value(world: &mut dyn CommWorld, c: bool) {
    let r = world.rank();
    let x = if c { r } else { 0 };
    if x == 0 {
        world.barrier();
    }
}

pub fn match_value(world: &mut dyn CommWorld, c: Option<usize>) {
    let r = world.rank();
    let x = match c {
        Some(_) => r,
        None => 0,
    };
    if x == 0 {
        world.barrier();
    }
}

pub fn reduced_value(world: &mut dyn CommWorld, c: bool) {
    let r = world.rank() as f64;
    let x = if c { world.global_max(r) } else { 0.0 };
    if x == 0.0 {
        world.barrier();
    }
}
