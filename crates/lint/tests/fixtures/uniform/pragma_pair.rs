//@path crates/comms/src/pragma_pair.rs
//! Which line a reasoned `lint:allow(collective-divergence, why)`
//! covers: its own, and the next one when it stands alone on its line.

pub fn paired(world: &mut dyn CommWorld) {
    // lint:allow(collective-divergence, rank 0 reports alone; from above)
    if world.rank() == 0 { // lint:allow(collective-divergence, the same site, on its line)
        world.barrier();
    }
}

pub fn above_code(world: &mut dyn CommWorld) {
    // lint:allow(collective-divergence, alone above the branch: covers it)
    if world.rank() == 0 {
        world.barrier();
    }
}

pub fn above_comment(world: &mut dyn CommWorld) {
    // lint:allow(collective-divergence, alone above a comment-only line)
    // a comment between the pragma and the branch
    if world.rank() == 0 {
        world.barrier();
    }
}

pub fn trailing(world: &mut dyn CommWorld) {
    let r = world.rank(); // lint:allow(collective-divergence, trails code: covers only its own line)
    if r == 0 {
        world.barrier();
    }
}
