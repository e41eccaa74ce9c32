//@path crates/comms/src/rank_loop.rs
//! `.rank` read straight into a branch around a reduction and into the
//! trip count of a loop around a barrier: both sites are findings.

pub fn undrained(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.global_sum(0.0);
    }
    while world.rank() > 1 {
        world.barrier();
    }
}
