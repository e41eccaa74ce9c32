//! A CommWorld decorator that charges simulated communication time.
//!
//! Wraps any functional backend (serial or threads) and accumulates the
//! *simulated-hardware* cost of every primitive invocation against an
//! interconnect cost model: the bridge between the functional GCM and the
//! paper's performance analysis. Running the real model under a
//! `TimedWorld` yields, per rank, the communication seconds a 1999 Hyades
//! (or Ethernet cluster) would have spent on exactly the traffic the run
//! generated.

use crate::world::CommWorld;
use hyades_cluster::interconnect::{ExchangeShape, Interconnect};
use hyades_des::SimDuration;
use hyades_telemetry as telemetry;

/// Wraps `inner`, charging primitive costs to `net`'s cost model.
pub struct TimedWorld<'a, W: CommWorld> {
    inner: &'a mut W,
    net: &'a dyn Interconnect,
    /// Accumulated simulated communication time.
    pub comm_time: SimDuration,
    /// Primitive invocation counters.
    pub exchanges: u64,
    pub reductions: u64,
    pub bytes_exchanged: u64,
}

impl<'a, W: CommWorld> TimedWorld<'a, W> {
    pub fn new(inner: &'a mut W, net: &'a dyn Interconnect) -> Self {
        TimedWorld {
            inner,
            net,
            comm_time: SimDuration::ZERO,
            exchanges: 0,
            reductions: 0,
            bytes_exchanged: 0,
        }
    }

    /// Simulated seconds spent communicating so far.
    pub fn comm_seconds(&self) -> f64 {
        self.comm_time.as_secs_f64()
    }

    /// Charge one all-ranks collective of phase `name`, priced by `time`
    /// for the world padded to a power of two (free on a single rank),
    /// and open its stamped op.
    fn charge_collective(
        &mut self,
        name: &'static str,
        time: fn(&dyn Interconnect, u32) -> SimDuration,
    ) {
        let mut cost = SimDuration::ZERO;
        if self.size() > 1 {
            let n = self.size().next_power_of_two() as u32;
            cost = time(self.net, n.max(2));
            self.comm_time += cost;
            telemetry::charge_comm(name, cost);
        }
        telemetry::commlog::begin_op(cost.as_ps());
    }
}

impl<W: CommWorld> CommWorld for TimedWorld<'_, W> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
        // One call = one phase of a halo exchange: charge a transfer leg
        // pair (send + the matching receive) per neighbor, sized by the
        // actual payloads.
        let legs: Vec<u64> = outgoing
            .iter()
            .flat_map(|(_, data)| {
                let bytes = (data.len() * 8) as u64;
                [bytes, bytes]
            })
            .collect();
        let leg_bytes = legs.iter().sum::<u64>();
        self.bytes_exchanged += leg_bytes;
        let mut cost = SimDuration::ZERO;
        if !legs.is_empty() {
            cost = self.net.exchange_time(&ExchangeShape::from_legs(legs));
            self.comm_time += cost;
            telemetry::charge_comm("exchange", cost);
            telemetry::count("comm", "exchange_bytes", leg_bytes);
        }
        // Open a stamped op so the events the inner world records carry
        // this primitive's charged cost (critical-path reconstruction).
        telemetry::commlog::begin_op(cost.as_ps());
        self.exchanges += 1;
        self.inner.exchange(outgoing)
    }

    fn global_sum_vec(&mut self, xs: &mut [f64]) {
        self.charge_collective("gsum", |net, n| net.gsum_time(n));
        self.reductions += 1;
        self.inner.global_sum_vec(xs)
    }

    fn global_max(&mut self, x: f64) -> f64 {
        self.charge_collective("gmax", |net, n| net.gsum_time(n));
        self.reductions += 1;
        self.inner.global_max(x)
    }

    fn barrier(&mut self) {
        self.charge_collective("barrier", |net, n| net.barrier_time(n));
        self.inner.barrier()
    }

    fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        // Non-critical path (§4: diagnostics/output); charge one stream.
        let bytes = (data.len() * 8) as u64;
        let cost = self.net.ptp_time(bytes);
        self.comm_time += cost;
        telemetry::charge_comm("gather", cost);
        telemetry::commlog::begin_op(cost.as_ps());
        self.inner.gather(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SerialWorld, ThreadWorld};
    use hyades_cluster::ethernet::gigabit_ethernet;
    use hyades_cluster::interconnect::arctic_paper;

    #[test]
    fn serial_world_charges_no_reduction_time() {
        let net = arctic_paper();
        let mut inner = SerialWorld;
        let mut w = TimedWorld::new(&mut inner, &net);
        assert_eq!(w.global_sum(3.0), 3.0);
        // One rank: reductions are free (no network).
        assert_eq!(w.comm_time, SimDuration::ZERO);
        assert_eq!(w.reductions, 1);
        // A self-wrap exchange still streams through the NIU.
        let _ = w.exchange(vec![(0, vec![0.0; 128])]);
        assert!(w.comm_time > SimDuration::ZERO);
        assert_eq!(w.bytes_exchanged, 2 * 128 * 8);
    }

    #[test]
    fn threads_accumulate_interconnect_dependent_cost() {
        let arctic = arctic_paper();
        let ge = gigabit_ethernet();
        let run = |net: &(dyn Interconnect + Sync)| -> f64 {
            let times = ThreadWorld::run(8, |inner| {
                let mut w = TimedWorld::new(inner, net);
                for _ in 0..10 {
                    let nbr = (w.rank() + 1) % 8;
                    let prev = (w.rank() + 7) % 8;
                    let _ = w.exchange(vec![(nbr, vec![1.0; 256]), (prev, vec![1.0; 256])]);
                    let _ = w.global_sum(1.0);
                }
                w.comm_seconds()
            });
            times[0]
        };
        let t_arctic = run(&arctic);
        let t_ge = run(&ge);
        assert!(t_arctic > 0.0);
        // The same functional traffic costs far more on Gigabit Ethernet —
        // the paper's whole point, now measurable on live runs.
        assert!(t_ge > 10.0 * t_arctic, "GE {t_ge} vs Arctic {t_arctic}");
    }

    #[test]
    fn functional_results_are_unchanged_by_timing() {
        let net = arctic_paper();
        let plain = ThreadWorld::run(4, |w| w.global_sum(w.rank() as f64));
        let timed = ThreadWorld::run(4, |inner| {
            let mut w = TimedWorld::new(inner, &net);
            w.global_sum(w.rank() as f64)
        });
        assert_eq!(plain, timed);
    }
}
