//@path crates/comms/src/fn_allow.rs
//! The one escape hatch at function scope: a function whose divergence
//! is justified by a written argument carries
//! `lint:allow(collective-divergence, reason)` directly above its `fn`,
//! and that one pragma covers every divergent site in the body.

// lint:allow(collective-divergence, rank 0 drains the queue alone; harness joins via channel, not a collective)
pub fn drain(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.global_sum(0.0);
    }
    while world.rank() > 1 {
        world.barrier();
    }
}

/// The same body with no pragma: both sites are findings.
pub fn undrained(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.global_sum(0.0);
    }
    while world.rank() > 1 {
        world.barrier();
    }
}

/// A reasonless pragma covers nothing.
// lint:allow(collective-divergence)
pub fn bad(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.barrier();
    }
}
