//! `CommWorld` — the communication interface the GCM runs against.
//!
//! The paper's GCM isolates communication behind two primitives (exchange
//! and global sum, §4); everything else is sequential Fortran per tile.
//! This module gives the Rust GCM the same shape: a trait with exchange /
//! global-sum / barrier, and two functional backends:
//!
//! * [`SerialWorld`] — a single rank; exchanges are identities (used for
//!   single-tile runs and tests). It holds nothing, so it is the one
//!   backend that may move to another thread ([`CommWorld::as_send`]);
//! * [`ThreadWorld`] — one OS thread per rank with `std::sync::mpsc`
//!   channels for halo exchange and a shared-memory rendezvous for
//!   global sums (deterministic: contributions are summed in rank order).
//!   A rank waiting on either polls and yields a fixed number of times
//!   before it parks in the kernel (`POLLS_BEFORE_PARK`).
//!
//! Timing studies use the simulated interconnects instead (the
//! time-charging executor in `hyades::perf` / `hyades-gcm`); these backends
//! provide *functional* parallelism.

use hyades_telemetry::commlog::{self, CommEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The communication surface of one parallel process (rank).
pub trait CommWorld {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;

    /// Exchange with neighbors: send each `(neighbor, data)` pair and
    /// receive the message each of those neighbors sent to this rank in
    /// the same exchange. The pattern must be symmetric (if `i` sends to
    /// `j`, `j` sends to `i`), as halo exchanges are.
    fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)>;

    /// Sum `x` across all ranks; every rank receives the total.
    /// Deterministic: contributions are combined in rank order.
    fn global_sum(&mut self, x: f64) -> f64 {
        let mut v = [x];
        self.global_sum_vec(&mut v);
        v[0]
    }

    /// Element-wise global sum of a small vector (one synchronization for
    /// several reductions).
    fn global_sum_vec(&mut self, xs: &mut [f64]);

    /// Maximum of `x` across all ranks.
    fn global_max(&mut self, x: f64) -> f64;

    /// Block until every rank has arrived.
    fn barrier(&mut self);

    /// Gather every rank's `data` to rank 0, which receives the per-rank
    /// vectors in rank order; other ranks receive `None`. (The paper's
    /// "non-critical communication" class — used for diagnostics and
    /// output, not the inner loop.)
    fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>>;

    // --- monitor reductions -----------------------------------------------
    // Derived collectives for the run-health monitor (`gcm::monitor`).
    // They are provided in terms of the two core reductions so every
    // backend — serial, threaded, time-charged — inherits them with the
    // same determinism and cost accounting as the primitives they wrap.

    /// Minimum of `x` across all ranks.
    fn global_min(&mut self, x: f64) -> f64 {
        -self.global_max(-x)
    }

    /// Deterministic argmax: the global maximum of `value` together with
    /// the smallest `tag` among the ranks whose contribution equals that
    /// maximum (ties broken toward the smallest tag, so the result is
    /// independent of reduction order). `tag` must be exactly
    /// representable in an `f64` (< 2^53); callers pack rank/level/cell
    /// coordinates into it. Returns `u64::MAX` as the tag when no rank's
    /// value matches the maximum (all contributions NaN).
    fn global_argmax(&mut self, value: f64, tag: u64) -> (f64, u64) {
        debug_assert!(tag < (1u64 << 53), "argmax tag must fit in f64");
        let m = self.global_max(value);
        let mine = if value == m {
            tag as f64
        } else {
            f64::INFINITY
        };
        let t = self.global_min(mine);
        (m, if t.is_finite() { t as u64 } else { u64::MAX })
    }

    /// Deterministic argmin; same tag contract as [`global_argmax`].
    ///
    /// [`global_argmax`]: CommWorld::global_argmax
    fn global_argmin(&mut self, value: f64, tag: u64) -> (f64, u64) {
        let (neg_min, t) = self.global_argmax(-value, tag);
        (-neg_min, t)
    }

    /// This world as one that may be used from another thread, if it can
    /// be: the coupled step then runs one isomorph's whole step on a
    /// helper thread (`gcm::coupler`). `None` — the default — keeps every
    /// call to this world on the thread that holds it.
    fn as_send(&mut self) -> Option<&mut (dyn CommWorld + Send)> {
        None
    }
}

/// Single-rank world.
#[derive(Default)]
pub struct SerialWorld;

impl CommWorld for SerialWorld {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
        // With one rank the only legal neighbor is yourself (periodic
        // wrap): the data comes straight back.
        for (n, _) in &outgoing {
            assert_eq!(*n, 0, "serial world has no neighbor {n}");
        }
        outgoing
    }
    fn global_sum_vec(&mut self, _xs: &mut [f64]) {}
    fn global_max(&mut self, x: f64) -> f64 {
        x
    }
    fn barrier(&mut self) {}
    fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        Some(vec![data])
    }
    fn as_send(&mut self) -> Option<&mut (dyn CommWorld + Send)> {
        Some(self)
    }
}

/// Poll-then-yield rounds a waiter makes before it parks. A count, never
/// a duration: nothing here may read a clock (`instant-wallclock`; a
/// timed bound would make `exchange` nondeterministic in the effect
/// table). Each round yields instead of spinning, so with more ranks
/// than cores the rank being waited for gets the processor. A collective
/// between running ranks completes within a few rounds, so the exact
/// count hardly matters (DESIGN.md §15a: 10 costs a tenth, 5 000 nothing).
const POLLS_BEFORE_PARK: usize = 200;

/// The one wait policy of both collectives: `poll`, yield, `poll` again,
/// [`POLLS_BEFORE_PARK`] times. `None` tells the caller to park on its
/// blocking primitive.
fn poll_then_yield<T>(mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..POLLS_BEFORE_PARK {
        if let Some(ready) = poll() {
            return Some(ready);
        }
        std::thread::yield_now();
    }
    None
}

/// The reduction a rank joins; every rank must join the same one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Sum,
    Max,
    Barrier,
}

impl Op {
    /// The `CommWorld` call that joins this reduction.
    fn call(self) -> &'static str {
        match self {
            Op::Sum => "global_sum_vec",
            Op::Max => "global_max",
            Op::Barrier => "barrier",
        }
    }

    /// Fold `b` into `a`, word by word.
    fn combine(self, a: &mut [f64], b: &[f64]) {
        let pairs = a.iter_mut().zip(b);
        match self {
            Op::Sum => pairs.for_each(|(a, b)| *a += b),
            Op::Max => pairs.for_each(|(a, b)| *a = a.max(*b)),
            Op::Barrier => {}
        }
    }
}

/// Shared state for deterministic reductions and barriers.
struct RendezvousCore {
    m: Mutex<RendezvousState>,
    cv: Condvar,
    n: usize,
    /// Number of completed operations. Stored (Release) only under `m`,
    /// after the result is written; waiters poll it (Acquire) outside
    /// the lock and take the lock to read the result.
    generation: AtomicU64,
}

struct RendezvousState {
    /// Per-rank reduction and contribution to the in-flight operation
    /// (buffers reused from one operation to the next).
    slots: Vec<(Op, Vec<f64>)>,
    arrived: usize,
    /// Result of the last completed operation.
    result: Vec<f64>,
    /// Ranks whose world has been dropped, in order of departure.
    departed: Vec<usize>,
}

impl RendezvousCore {
    fn new(n: usize) -> Self {
        RendezvousCore {
            m: Mutex::new(RendezvousState {
                slots: vec![(Op::Barrier, Vec::new()); n],
                arrived: 0,
                result: Vec::new(),
                departed: Vec::new(),
            }),
            cv: Condvar::new(),
            n,
            generation: AtomicU64::new(0),
        }
    }

    /// A poisoned lock is recovered, not propagated: the rank that
    /// panicked already fails the run through its joining thread.
    fn lock(&self) -> MutexGuard<'_, RendezvousState> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposit this rank's contribution `xs` to `op`; the last arriver
    /// checks that every rank joined the same `op` with as many words,
    /// combines all contributions in rank order (whatever order they
    /// arrived in) and publishes the result, which every rank copies
    /// back into `xs`. Returns the reduction's generation number (the
    /// all-ranks join point, recorded in the comm log for the
    /// happens-before checker).
    ///
    /// # Panics
    ///
    /// In the last arriver, naming two ranks' calls, if the ranks did not
    /// all join the same reduction.
    fn reduce(&self, rank: usize, op: Op, xs: &mut [f64]) -> u64 {
        let mut st = self.lock();
        let my_gen = self.generation.load(Ordering::Relaxed);
        let slot = &mut st.slots[rank];
        slot.0 = op;
        slot.1.clear();
        slot.1.extend_from_slice(xs);
        st.arrived += 1;
        if st.arrived == self.n {
            let RendezvousState { slots, result, .. } = &mut *st;
            let joined = |(op, v): &(Op, Vec<f64>)| (*op, v.len());
            if let Some(other) = (1..self.n).find(|&r| joined(&slots[r]) != joined(&slots[0])) {
                let call = |r: usize| {
                    let (op, words) = joined(&slots[r]);
                    let plural = if words == 1 { "" } else { "s" };
                    format!("rank {r} called {} with {words} word{plural}", op.call())
                };
                let calls = format!("{}, {}", call(0), call(other));
                drop(st);
                panic!("reduction {my_gen} mismatched: {calls}");
            }
            result.clear();
            result.extend_from_slice(&slots[0].1);
            for (_, v) in &slots[1..] {
                op.combine(result, v);
            }
            st.arrived = 0;
            self.generation.store(my_gen + 1, Ordering::Release);
            self.cv.notify_all();
        } else {
            drop(st);
            let pending = || self.generation.load(Ordering::Acquire) == my_gen;
            let _ = poll_then_yield(|| (!pending()).then_some(()));
            st = self.lock();
            while pending() {
                // A rank that left cannot have joined this operation
                // (it would still be waiting here), so it never will.
                if let Some(gone) = st.departed.first() {
                    panic!(
                        "rank {rank}: rank {gone} left before reduction {my_gen} (peer exited early)"
                    );
                }
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        xs.copy_from_slice(&st.result);
        my_gen
    }
}

/// A rank of the thread-parallel world.
pub struct ThreadWorld {
    rank: usize,
    size: usize,
    /// tx[d]: channel from this rank to rank d.
    tx: Vec<Sender<Vec<f64>>>,
    /// rx[s]: channel from rank s to this rank.
    rx: Vec<Receiver<Vec<f64>>>,
    red: Arc<RendezvousCore>,
}

impl ThreadWorld {
    /// Build the `n` connected worlds.
    pub fn create(n: usize) -> Vec<ThreadWorld> {
        assert!(n >= 1);
        let red = Arc::new(RendezvousCore::new(n));
        let mut worlds: Vec<ThreadWorld> = (0..n)
            .map(|rank| ThreadWorld {
                rank,
                size: n,
                tx: Vec::with_capacity(n),
                rx: Vec::with_capacity(n),
                red: Arc::clone(&red),
            })
            .collect();
        // One channel per ordered pair, pushed so that `tx[d]` and `rx[s]`
        // land at their ranks' indices.
        for s in 0..n {
            for d in 0..n {
                let (tx, rx) = channel();
                worlds[s].tx.push(tx);
                worlds[d].rx.push(rx);
            }
        }
        worlds
    }

    /// Post `data` on the channel to rank `to` (never blocks).
    fn post(&self, to: usize, data: Vec<f64>) {
        let words = data.len();
        commlog::record(CommEvent::Send { to, words });
        self.tx[to].send(data).unwrap_or_else(|_| {
            panic!(
                "rank {}: channel to rank {to} closed (peer exited early)",
                self.rank
            )
        });
    }

    /// Wait for the next message from rank `from`.
    fn take(&self, from: usize) -> Vec<f64> {
        let rx = &self.rx[from];
        // `Some(None)`: the peer hung up with nothing left in the channel.
        let polled = poll_then_yield(|| match rx.try_recv() {
            Err(TryRecvError::Empty) => None,
            got => Some(got.ok()),
        });
        let data = polled.unwrap_or_else(|| rx.recv().ok()).unwrap_or_else(|| {
            panic!(
                "rank {}: channel from rank {from} closed (peer exited early)",
                self.rank
            )
        });
        let words = data.len();
        commlog::record(CommEvent::Recv { from, words });
        data
    }

    /// Join the all-ranks rendezvous `op` with the contribution `xs`,
    /// which becomes the rank-ordered combination of everyone's.
    fn reduce(&self, op: Op, xs: &mut [f64]) {
        let generation = self.red.reduce(self.rank, op, xs);
        commlog::record(CommEvent::Reduce { generation });
    }

    /// Run `f` on `n` ranks across `n` scoped threads; returns the
    /// per-rank results in rank order. If ranks panic, the panic of the
    /// one that left first is re-raised: the ranks waiting for it fail
    /// with "peer exited early" reports of their own, which are not the
    /// cause.
    pub fn run<R: Send>(n: usize, f: impl Fn(&mut ThreadWorld) -> R + Send + Sync) -> Vec<R> {
        let worlds = Self::create(n);
        let red = Arc::clone(&worlds[0].red);
        let mut results: Vec<_> = std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = worlds
                .into_iter()
                .map(|mut w| scope.spawn(move || f(&mut w)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // Every world is dropped by now, so a rank that panicked is
        // listed, and past this check no result is an `Err`.
        let departed = std::mem::take(&mut red.lock().departed);
        let first_dead = departed.into_iter().find(|&rank| results[rank].is_err());
        if let Some(Err(payload)) = first_dead.map(|rank| results.swap_remove(rank)) {
            std::panic::resume_unwind(payload);
        }
        results.into_iter().flatten().collect()
    }
}

impl Drop for ThreadWorld {
    /// Mark this rank departed and wake the parked waiters, so that a
    /// reduction it can no longer join fails instead of hanging.
    fn drop(&mut self) {
        self.red.lock().departed.push(self.rank);
        self.red.cv.notify_all();
    }
}

impl CommWorld for ThreadWorld {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }

    fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
        // Self-sends (periodic wrap onto the same rank) bypass the
        // channels so a rank never blocks on itself.
        let mut selfs = Vec::new();
        let mut awaiting = Vec::new();
        for (nbr, data) in outgoing {
            if nbr == self.rank {
                selfs.push((nbr, data));
            } else {
                self.post(nbr, data);
                awaiting.push(nbr);
            }
        }
        let mut incoming = selfs;
        for nbr in awaiting {
            incoming.push((nbr, self.take(nbr)));
        }
        incoming
    }

    fn global_sum_vec(&mut self, xs: &mut [f64]) {
        self.reduce(Op::Sum, xs);
    }

    fn global_max(&mut self, x: f64) -> f64 {
        let mut v = [x];
        self.reduce(Op::Max, &mut v);
        v[0]
    }

    fn barrier(&mut self) {
        self.reduce(Op::Barrier, &mut []);
    }

    fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        if self.rank == 0 {
            let others = (1..self.size).map(|src| self.take(src));
            Some(std::iter::once(data).chain(others).collect())
        } else {
            self.post(0, data);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_world_identities() {
        let mut w = SerialWorld;
        assert_eq!(w.global_sum(3.5), 3.5);
        assert_eq!(w.global_max(-2.0), -2.0);
        let back = w.exchange(vec![(0, vec![1.0, 2.0])]);
        assert_eq!(back, vec![(0, vec![1.0, 2.0])]);
        w.barrier();
    }

    #[test]
    fn only_the_serial_world_moves() {
        assert!(SerialWorld.as_send().is_some());
        assert!(ThreadWorld::run(2, |w| w.as_send().is_none())
            .into_iter()
            .all(|none| none));
    }

    #[test]
    fn thread_global_sum() {
        let results = ThreadWorld::run(8, |w| w.global_sum(w.rank() as f64 + 1.0));
        let expected: f64 = (1..=8).map(|i| i as f64).sum();
        assert!(results.iter().all(|&r| r == expected));
    }

    #[test]
    fn serial_monitor_reductions_are_identities() {
        let mut w = SerialWorld;
        assert_eq!(w.global_min(4.5), 4.5);
        assert_eq!(w.global_argmax(2.0, 17), (2.0, 17));
        assert_eq!(w.global_argmin(-3.0, 9), (-3.0, 9));
    }

    #[test]
    fn thread_argmax_attributes_the_owning_rank() {
        let vals = [1.0, 9.0, 3.0, -2.0];
        let results = ThreadWorld::run(4, move |w| {
            let r = w.rank();
            w.global_argmax(vals[r], r as u64)
        });
        assert!(results.iter().all(|&r| r == (9.0, 1)));
    }

    #[test]
    fn thread_argmin_breaks_ties_toward_smallest_tag() {
        // Ranks 1 and 3 share the minimum; the winner must be the
        // smaller tag regardless of reduction order.
        let vals = [5.0, -1.0, 4.0, -1.0];
        let results = ThreadWorld::run(4, move |w| {
            let r = w.rank();
            w.global_argmin(vals[r], 100 + r as u64)
        });
        assert!(results.iter().all(|&r| r == (-1.0, 101)));
    }

    #[test]
    fn thread_argmax_of_all_nan_has_no_owner() {
        let results = ThreadWorld::run(4, |w| w.global_argmax(f64::NAN, w.rank() as u64));
        for &(m, tag) in &results {
            assert!(m.is_nan());
            assert_eq!(tag, u64::MAX);
        }
    }

    #[test]
    fn thread_global_sum_is_deterministic_in_rank_order() {
        // Values chosen so that different summation orders give different
        // floating-point results; rank-order combination must make every
        // run identical.
        let vals: Vec<f64> = (0..8).map(|i| 1.0 + 1e-16 * i as f64 * 3.7).collect();
        let run = || {
            ThreadWorld::run(8, |w| {
                let mut acc = 0.0f64;
                for _ in 0..50 {
                    acc = w.global_sum(vals[w.rank()] + acc * 1e-20);
                }
                acc
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_global_max() {
        let results = ThreadWorld::run(4, |w| w.global_max((w.rank() as f64 - 1.5).abs()));
        assert!(results.iter().all(|&r| r == 1.5));
    }

    #[test]
    fn thread_exchange_ring() {
        // Each rank sends its rank to both ring neighbors and should
        // receive the neighbors' ranks back.
        let n = 6;
        let results = ThreadWorld::run(n, |w| {
            let me = w.rank();
            let left = (me + n - 1) % n;
            let right = (me + 1) % n;
            let got = w.exchange(vec![
                (left, vec![me as f64]),
                (right, vec![me as f64 + 100.0]),
            ]);
            let mut from_left = None;
            let mut from_right = None;
            for (nbr, data) in got {
                if nbr == left {
                    from_left = Some(data[0]);
                } else if nbr == right {
                    from_right = Some(data[0]);
                }
            }
            (from_left.unwrap(), from_right.unwrap())
        });
        for (me, &(fl, fr)) in results.iter().enumerate() {
            let left = (me + n - 1) % n;
            let right = (me + 1) % n;
            // Left neighbor sent us its "+100" message (we are its right),
            // right neighbor sent its plain rank (we are its left).
            assert_eq!(fl, left as f64 + 100.0);
            assert_eq!(fr, right as f64);
        }
    }

    #[test]
    fn thread_exchange_self_wrap() {
        let results = ThreadWorld::run(1, |w| {
            let got = w.exchange(vec![(0, vec![42.0])]);
            got[0].1[0]
        });
        assert_eq!(results[0], 42.0);
    }

    #[test]
    fn thread_barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let results = ThreadWorld::run(8, |w| {
            phase1.fetch_add(1, Ordering::SeqCst);
            w.barrier();
            // After the barrier every rank must observe all 8 arrivals.
            phase1.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&r| r == 8));
    }

    #[test]
    fn vector_reduction() {
        let results = ThreadWorld::run(4, |w| {
            let mut v = vec![w.rank() as f64, 1.0];
            w.global_sum_vec(&mut v);
            v
        });
        for r in results {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    // --- the wait path: poll, yield, park -----------------------------------

    /// Reproducible input of `rank` in `round` for use `salt`. Magnitudes
    /// span six decades, so a sum taken in any order but rank order has
    /// different bits.
    fn input(rank: usize, round: usize, salt: u64) -> f64 {
        const SCALE: [f64; 7] = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3];
        let mut h = (rank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (round as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ (salt + 1).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = (h ^ (h >> 31)).wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 29;
        ((h % 20_001) as f64 - 10_000.0) * SCALE[(h >> 40) as usize % 7]
    }

    /// `op` over ranks `0..n` in rank order, as the rendezvous combines.
    fn serial(n: usize, of: impl Fn(usize) -> f64, op: fn(f64, f64) -> f64) -> f64 {
        (1..n).fold(of(0), |acc, k| op(acc, of(k)))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `rounds` rounds of every collective on `n` ranks, each result
    /// checked bit for bit against the serial reference inside the rank
    /// that received it; returns a digest of everything each rank saw.
    fn soak(n: usize, rounds: usize) -> Vec<u64> {
        ThreadWorld::run(n, |w| {
            let me = w.rank();
            let (left, right) = ((me + n - 1) % n, (me + 1) % n);
            let mut digest = 0u64;
            let mut saw = |xs: &[f64]| {
                for x in xs {
                    digest = digest.rotate_left(7) ^ x.to_bits();
                }
            };
            for round in 0..rounds {
                // Ring exchange, a different payload each way: the left
                // neighbour's rightward message is the one we receive.
                let got = w.exchange(vec![
                    (left, vec![input(me, round, 0); 3]),
                    (right, vec![input(me, round, 1); 5]),
                ]);
                let want = [
                    (left, vec![input(left, round, 1); 5]),
                    (right, vec![input(right, round, 0); 3]),
                ];
                assert_eq!(got.len(), 2);
                for ((nbr, data), (want_nbr, want_data)) in got.iter().zip(&want) {
                    assert_eq!((nbr, bits(data)), (want_nbr, bits(want_data)));
                    saw(data);
                }

                let sum = w.global_sum(input(me, round, 2));
                let want = serial(n, |k| input(k, round, 2), |a, b| a + b);
                assert_eq!(sum.to_bits(), want.to_bits(), "global_sum, round {round}");
                saw(&[sum]);

                let len = [0, 1, 6, 64][round % 4];
                let mine = |k: usize, i: usize| input(k, round, 10 + i as u64);
                let mut v: Vec<f64> = (0..len).map(|i| mine(me, i)).collect();
                w.global_sum_vec(&mut v);
                let want: Vec<f64> = (0..len)
                    .map(|i| serial(n, |k| mine(k, i), |a, b| a + b))
                    .collect();
                assert_eq!(bits(&v), bits(&want), "global_sum_vec, round {round}");
                saw(&v);

                let max = w.global_max(input(me, round, 3));
                let want = serial(n, |k| input(k, round, 3), f64::max);
                assert_eq!(max.to_bits(), want.to_bits(), "global_max, round {round}");
                saw(&[max]);

                // Four distinct scores on sixteen ranks: ties every round.
                let score = |k: usize| input(k, round, 4).rem_euclid(4.0).floor();
                let (top, owner) = w.global_argmax(score(me), me as u64);
                let want_top = serial(n, score, f64::max);
                let want_owner = (0..n).find(|&k| score(k) == want_top).unwrap();
                assert_eq!(
                    (top.to_bits(), owner),
                    (want_top.to_bits(), want_owner as u64)
                );
                saw(&[top, owner as f64]);

                if round % 8 == 0 {
                    w.barrier();
                }
                if round % 16 == 0 {
                    let part = |k: usize| vec![input(k, round, 5); k % 3];
                    match w.gather(part(me)) {
                        Some(all) => {
                            assert_eq!(me, 0);
                            assert_eq!(all.len(), n);
                            for (k, v) in all.iter().enumerate() {
                                assert_eq!(bits(v), bits(&part(k)), "gather, round {round}");
                                saw(v);
                            }
                        }
                        None => assert_ne!(me, 0),
                    }
                }
            }
            digest
        })
    }

    #[test]
    fn oversubscribed_soak_matches_the_rank_ordered_serial_reference() {
        // Sixteen ranks on however few cores: every wait starts as a
        // poll-and-yield, and the order of arrival changes every round.
        assert_eq!(soak(16, 2_000), soak(16, 2_000));
    }

    #[test]
    fn waiters_that_exhaust_the_yield_budget_park_and_still_complete() {
        use std::time::Duration;
        // The late rank sleeps far longer than POLLS_BEFORE_PARK yields
        // take, so the others have parked (condvar or blocking `recv`)
        // by the time it arrives. Late rank 0 is also the gather root.
        for late in [0, 2] {
            let results = ThreadWorld::run(4, move |w| {
                let me = w.rank();
                let nap = || {
                    if me == late {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                };
                nap();
                let sum = w.global_sum(me as f64 + 0.5);
                nap();
                let ring = [(me + 1) % 4, (me + 3) % 4];
                let got = w.exchange(ring.iter().map(|&to| (to, vec![me as f64])).collect());
                nap();
                let max = w.global_max(me as f64);
                nap();
                let all = w.gather(vec![me as f64]);
                nap();
                w.barrier();
                (sum, got, max, all)
            });
            for (me, (sum, got, max, all)) in results.into_iter().enumerate() {
                let ring = [(me + 1) % 4, (me + 3) % 4];
                assert_eq!(sum, 8.0);
                assert_eq!(got, ring.map(|from| (from, vec![from as f64])));
                assert_eq!(max, 3.0);
                let everyone = || (0..4).map(|k| vec![k as f64]).collect::<Vec<_>>();
                assert_eq!(all, (me == 0).then(everyone));
            }
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| String::new(), |s| s.to_string()),
        }
    }

    #[test]
    fn take_drains_a_dead_peers_channel_then_reports_it() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut worlds = ThreadWorld::create(2);
        let (w1, w0) = (worlds.pop().unwrap(), worlds.pop().unwrap());
        w1.post(0, vec![7.0]);
        drop(w1);
        assert_eq!(w0.take(1), vec![7.0]);
        // Nobody is left to wait for: the first poll sees the hang-up,
        // without reaching the blocking `recv`.
        let err = catch_unwind(AssertUnwindSafe(|| w0.take(1))).unwrap_err();
        assert_eq!(
            panic_message(err),
            "rank 0: channel from rank 1 closed (peer exited early)"
        );
    }

    /// `f` on a helper thread, so that a run that hangs fails the test
    /// instead of hanging it.
    fn within_ten_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        let helper = std::thread::spawn(move || tx.send(f()));
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the run hung on a rank that had exited");
        helper.join().unwrap().unwrap();
        out
    }

    #[test]
    fn a_reduction_a_departed_rank_cannot_join_names_that_rank() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut worlds = ThreadWorld::create(3);
        drop(worlds.pop());
        let mut w0 = worlds.swap_remove(0);
        let outcome =
            within_ten_seconds(move || catch_unwind(AssertUnwindSafe(|| w0.global_sum(1.0))));
        assert_eq!(
            panic_message(outcome.unwrap_err()),
            "rank 0: rank 2 left before reduction 0 (peer exited early)"
        );
    }

    /// The panic of a two-rank run whose ranks call `rank0` and `rank1`.
    fn mismatch(rank0: fn(&mut ThreadWorld), rank1: fn(&mut ThreadWorld)) -> String {
        let outcome = within_ten_seconds(move || {
            std::panic::catch_unwind(|| {
                ThreadWorld::run(2, |w| if w.rank() == 0 { rank0(w) } else { rank1(w) })
            })
        });
        panic_message(outcome.expect_err("the mismatched reduction completed"))
    }

    #[test]
    fn a_max_met_by_a_sum_is_refused_naming_both_calls() {
        let got = mismatch(
            |w| {
                w.global_max(1.0);
            },
            |w| {
                w.global_sum(5.0);
            },
        );
        assert_eq!(
            got,
            "reduction 0 mismatched: rank 0 called global_max with 1 word, \
             rank 1 called global_sum_vec with 1 word"
        );
    }

    #[test]
    fn a_two_word_sum_met_by_a_max_is_refused_naming_both_calls() {
        let got = mismatch(
            |w| w.global_sum_vec(&mut [1.0, 2.0]),
            |w| {
                w.global_max(1.0);
                w.global_max(2.0);
            },
        );
        assert_eq!(
            got,
            "reduction 0 mismatched: rank 0 called global_sum_vec with 2 words, \
             rank 1 called global_max with 1 word"
        );
    }

    #[test]
    fn a_rank_that_dies_before_a_reduction_fails_the_run_with_its_own_panic() {
        use std::panic::catch_unwind;
        // Dying at once finds the survivor still polling; dying after
        // 20 ms finds it parked.
        for nap_ms in [0, 20] {
            let outcome = within_ten_seconds(move || {
                catch_unwind(|| {
                    ThreadWorld::run(2, |w| {
                        if w.rank() == 1 {
                            std::thread::sleep(std::time::Duration::from_millis(nap_ms));
                            panic!("rank 1 blew up");
                        }
                        w.global_sum(1.0)
                    })
                })
            });
            assert_eq!(panic_message(outcome.unwrap_err()), "rank 1 blew up");
        }
    }

    #[test]
    fn a_rank_that_dies_mid_run_takes_every_waiter_down_with_its_own_panic() {
        use std::panic::catch_unwind;
        // Rank 3's ring neighbours fail in `take`, everyone else in the
        // reduction those two can no longer join; the report is rank 3's.
        let outcome = within_ten_seconds(|| {
            catch_unwind(|| {
                ThreadWorld::run(8, |w| {
                    let me = w.rank();
                    for round in 0..10 {
                        if me == 3 && round == 5 {
                            panic!("rank 3 blew up in round 5");
                        }
                        w.exchange(vec![((me + 1) % 8, vec![1.0]), ((me + 7) % 8, vec![2.0])]);
                        w.global_sum(round as f64);
                    }
                })
            })
        });
        assert_eq!(
            panic_message(outcome.unwrap_err()),
            "rank 3 blew up in round 5"
        );
    }
}

#[cfg(test)]
mod gather_tests {
    use super::*;

    #[test]
    fn serial_gather_returns_own_data() {
        let mut w = SerialWorld;
        let got = w.gather(vec![1.0, 2.0]).unwrap();
        assert_eq!(got, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn thread_gather_collects_in_rank_order() {
        let results = ThreadWorld::run(6, |w| {
            let me = w.rank() as f64;
            w.gather(vec![me, me * 10.0])
        });
        // Only rank 0 gets the data.
        assert!(results[1..].iter().all(|r| r.is_none()));
        let all = results[0].as_ref().unwrap();
        assert_eq!(all.len(), 6);
        for (rank, v) in all.iter().enumerate() {
            assert_eq!(v, &vec![rank as f64, rank as f64 * 10.0]);
        }
    }

    #[test]
    fn gather_interleaves_with_exchanges() {
        // A gather between two exchanges must not scramble the per-pair
        // channel streams (rank 0's gather uses the same channels).
        let results = ThreadWorld::run(4, |w| {
            let me = w.rank();
            let next = (me + 1) % 4;
            let prev = (me + 3) % 4;
            let a = w.exchange(vec![(next, vec![me as f64]), (prev, vec![me as f64])]);
            let _ = w.gather(vec![me as f64]);
            let b = w.exchange(vec![
                (next, vec![me as f64 + 100.0]),
                (prev, vec![me as f64 + 100.0]),
            ]);
            let from = |set: &[(usize, Vec<f64>)], nbr: usize| -> f64 {
                set.iter().find(|(n, _)| *n == nbr).unwrap().1[0]
            };
            (from(&a, prev), from(&b, next))
        });
        for (me, &(a, b)) in results.iter().enumerate() {
            let prev = (me + 3) % 4;
            let next = (me + 1) % 4;
            assert_eq!(a, prev as f64, "first exchange");
            assert_eq!(b, next as f64 + 100.0, "second exchange");
        }
    }
}
