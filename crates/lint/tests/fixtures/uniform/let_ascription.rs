//@path crates/comms/src/let_ascription.rs
//! A rank read into a binding with a type ascription is as
//! rank-dependent as one without: `: usize` names the type, not a field.

pub fn ascribed(world: &mut dyn CommWorld) {
    let r: usize = world.rank();
    if r == 0 {
        world.global_sum(1.0);
    }
}

pub fn plain(world: &mut dyn CommWorld) {
    let r = world.rank();
    if r == 0 {
        world.global_sum(1.0);
    }
}

/// A field name inside the pattern binds nothing: `left` keeps its taint.
pub fn destructured(world: &mut dyn CommWorld, p: Pair) {
    let left = world.rank();
    let Pair { left: l, .. }: Pair = p;
    if left == 0 {
        world.global_sum(l);
    }
}
