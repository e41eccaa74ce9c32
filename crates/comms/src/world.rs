//! `CommWorld` — the communication interface the GCM runs against.
//!
//! The paper's GCM isolates communication behind two primitives (exchange
//! and global sum, §4); everything else is sequential Fortran per tile.
//! This module gives the Rust GCM the same shape: a trait with exchange /
//! global-sum / barrier, and two functional backends:
//!
//! * [`SerialWorld`] — a single rank; exchanges are identities (used for
//!   single-tile runs and tests);
//! * [`ThreadWorld`] — one OS thread per rank with `std::sync::mpsc`
//!   channels for halo exchange and a shared-memory reduction tree for
//!   global sums (deterministic: contributions are summed in rank order).
//!
//! Timing studies use the simulated interconnects instead (the
//! time-charging executor in `hyades-perf` / `hyades-gcm`); these backends
//! provide *functional* parallelism.

use hyades_telemetry::commlog::{self, CommEvent};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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
}

/// Shared state for deterministic reductions and barriers.
struct RendezvousCore {
    m: Mutex<RendezvousState>,
    cv: Condvar,
    n: usize,
}

struct RendezvousState {
    /// Per-rank contribution for the in-flight operation.
    slots: Vec<Option<Vec<f64>>>,
    arrived: usize,
    generation: u64,
    /// Result of the last completed operation.
    result: Vec<f64>,
}

impl RendezvousCore {
    fn new(n: usize) -> Self {
        RendezvousCore {
            m: Mutex::new(RendezvousState {
                slots: vec![None; n],
                arrived: 0,
                generation: 0,
                result: Vec::new(),
            }),
            cv: Condvar::new(),
            n,
        }
    }

    /// Deposit this rank's contribution; the last arriver combines all
    /// contributions in rank order with `combine` and publishes the
    /// result. Also returns the reduction's generation number (the
    /// all-ranks join point, recorded in the comm log for the
    /// happens-before checker).
    fn reduce(
        &self,
        rank: usize,
        contribution: Vec<f64>,
        combine: fn(&mut [f64], &[f64]),
    ) -> (Vec<f64>, u64) {
        // A poisoned lock is recovered, not propagated: the rank that
        // panicked already fails the run through its joining thread.
        let mut st = self.m.lock().unwrap_or_else(PoisonError::into_inner);
        let my_gen = st.generation;
        debug_assert!(st.slots[rank].is_none(), "rank {rank} reduced twice");
        st.slots[rank] = Some(contribution);
        st.arrived += 1;
        if st.arrived == self.n {
            let mut acc: Vec<f64> = Vec::new();
            let mut seen = 0usize;
            for v in st.slots.iter_mut().filter_map(Option::take) {
                if seen == 0 {
                    acc = v;
                } else {
                    combine(&mut acc, &v);
                }
                seen += 1;
            }
            debug_assert_eq!(seen, self.n, "missing contribution");
            st.result = acc;
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        } else {
            while st.generation == my_gen {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        (st.result.clone(), my_gen)
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

    /// Block on the next message from rank `from`.
    fn take(&self, from: usize) -> Vec<f64> {
        let data = self.rx[from].recv().unwrap_or_else(|_| {
            panic!(
                "rank {}: channel from rank {from} closed (peer exited early)",
                self.rank
            )
        });
        let words = data.len();
        commlog::record(CommEvent::Recv { from, words });
        data
    }

    /// Join the all-ranks rendezvous with `contribution`; returns the
    /// rank-ordered `combine` of everyone's.
    fn reduce(&self, contribution: Vec<f64>, combine: fn(&mut [f64], &[f64])) -> Vec<f64> {
        let (res, generation) = self.red.reduce(self.rank, contribution, combine);
        commlog::record(CommEvent::Reduce { generation });
        res
    }

    /// Run `f` on `n` ranks across `n` scoped threads; returns the
    /// per-rank results in rank order.
    pub fn run<R: Send>(n: usize, f: impl Fn(&mut ThreadWorld) -> R + Send + Sync) -> Vec<R> {
        let worlds = Self::create(n);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (rank, mut w) in worlds.into_iter().enumerate() {
                let f = &f;
                handles.push((rank, scope.spawn(move || f(&mut w))));
            }
            for (rank, h) in handles {
                match h.join() {
                    Ok(r) => out[rank] = Some(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        out.into_iter().map(Option::unwrap).collect()
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
        let res = self.reduce(xs.to_vec(), |a, b| {
            for (ai, bi) in a.iter_mut().zip(b) {
                *ai += bi;
            }
        });
        xs.copy_from_slice(&res);
    }

    fn global_max(&mut self, x: f64) -> f64 {
        let res = self.reduce(vec![x], |a, b| {
            for (ai, bi) in a.iter_mut().zip(b) {
                *ai = ai.max(*bi);
            }
        });
        res[0]
    }

    fn barrier(&mut self) {
        self.reduce(Vec::new(), |_a, _b| {});
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
