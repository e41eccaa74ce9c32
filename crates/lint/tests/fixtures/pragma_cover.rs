//@path crates/des/src/golden/pragma_cover.rs
// Which line a reasoned pragma covers: its own, and the next one when it
// stands alone on its line. Two pragmas may cover one line; both count
// as used.

fn pairs() {
    // lint:allow(unseeded-rng, the line below, from above)
    let r = thread_rng(); // lint:allow(unseeded-rng, the same line, on it)
}

fn reach() {
    // lint:allow(instant-wallclock, alone above a line of code: covers it)
    let t = Instant::now();
    let n = 1; // lint:allow(instant-wallclock, trails code: covers only its own line)
    let u = Instant::now();
    // lint:allow(unseeded-rng, alone above a comment-only line: the code below is not covered)
    // a comment between the pragma and the code
    let s = from_entropy();
}
