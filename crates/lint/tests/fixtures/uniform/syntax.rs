//@path crates/comms/src/syntax.rs
//! Syntax no other uniform fixture covers, each form once around a
//! collective: `while let`, `loop { break v }`, a labelled
//! `break 'outer`, `let … else`, a match guard over its arm's binder,
//! closures that issue a collective, a nested `fn` and `impl`, and an
//! `if let … else if let … else` chain. The snapshot pins what the
//! analysis makes of each, its known gaps included.

/// `while let` over received halo data: the trip count of a loop
/// around a reduction differs between ranks.
pub fn drain(world: &mut dyn CommWorld, out: Vec<(usize, Vec<f64>)>) {
    let mut incoming = world.exchange(out);
    while let Some((_, data)) = incoming.pop() {
        world.global_sum(data[0]);
    }
}

/// `loop { break v }`: each rank leaves the loop at its own iteration,
/// so ranks issue different numbers of barriers; the loop's value, taken
/// under the rank test, makes the branch on `owner` rank-dependent too.
pub fn first_owned(world: &mut dyn CommWorld) {
    let r = world.rank();
    let mut k = 0;
    let owner = loop {
        world.barrier();
        if k == r {
            break k;
        }
        k += 1;
    };
    if owner > 0 {
        world.global_max(1.0);
    }
}

/// A labelled `break 'outer` leaves the outer loop, whose barrier the
/// other ranks still enter: a `break` is weighed against the loop it
/// names. The labelled loop's statement ends at its `}`, so `seen` is
/// bound and the branch on it is flagged.
pub fn search(world: &mut dyn CommWorld, rows: &[Vec<usize>]) {
    let r = world.rank();
    'outer: for row in rows {
        world.barrier();
        for &x in row {
            if x == r {
                break 'outer;
            }
        }
    }
    let seen = r;
    if seen == 0 {
        world.global_sum(1.0);
    }
}

/// `let … else` on received data: the `else` returns on some ranks
/// before the barrier the others enter.
pub fn take_first(world: &mut dyn CommWorld, out: Vec<(usize, Vec<f64>)>) {
    let incoming = world.exchange(out);
    let Some(first) = incoming.first() else {
        return;
    };
    world.barrier();
    world.global_sum(first.1[0]);
}

/// A match on the rank whose guard reads the arm's binder: only the
/// first arm issues the barrier.
pub fn classify(world: &mut dyn CommWorld, limit: usize) {
    match Some(world.rank()) {
        Some(n) if n > limit => world.barrier(),
        _ => {}
    }
}

/// A closure is walked where it is written, as if its body ran there:
/// the one passed to `map` under the rank test is flagged, the one
/// bound to `reduce` and called under it is not (a gap).
pub fn per_rank(world: &mut dyn CommWorld, xs: &[f64]) -> f64 {
    let r = world.rank();
    let mut total = 0.0;
    if r == 0 {
        total = xs.iter().map(|x| world.global_sum(*x)).sum();
    }
    let reduce = |v: f64| world.global_max(v);
    if r == 1 {
        total = reduce(total);
    }
    total
}

/// A nested `fn` and a method of a nested `impl` are functions of their
/// own: `outer` reaches `helper` under the rank test.
pub fn outer(world: &mut dyn CommWorld) -> f64 {
    fn helper(world: &mut dyn CommWorld) {
        world.barrier();
    }
    struct Probe;
    impl Probe {
        fn sum(&self, world: &mut dyn CommWorld) -> f64 {
            world.global_sum(1.0)
        }
    }
    if world.rank() == 0 {
        helper(world);
    }
    Probe.sum(world)
}

/// An `if let … else if let … else` chain on received data whose arms
/// issue three different collectives.
pub fn route(world: &mut dyn CommWorld, out: Vec<(usize, Vec<f64>)>) {
    let incoming = world.exchange(out);
    if let Some(first) = incoming.first() {
        world.global_sum(first.1[0]);
    } else if let Some(last) = incoming.last() {
        world.global_max(last.1[0]);
    } else {
        world.barrier();
    }
}
