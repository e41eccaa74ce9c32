//! Mixed-mode SMP operation (§4.1–4.2).
//!
//! When both processors of an SMP participate, one is designated the
//! *communication master* with sole control of the NIU; the slave posts
//! remote-exchange requests through a shared-memory semaphore. For the
//! global sum, processors first combine locally through shared memory, the
//! master joins the system-wide butterfly, and finally distributes the
//! result locally.
//!
//! Consequences modeled here (both measured by the paper):
//! * the local combine + broadcast adds ~1 µs to a global sum;
//! * slave-to-slave exchange bandwidth is ~30 % below master-to-master.

use hyades_des::SimDuration;

/// Shared-memory semaphore hop in which the slave posts its operand or
/// request and the master picks it up (§4.2: with [`BROADCAST`], "about
/// 1 µs" added to a global sum).
pub(crate) const COMBINE: SimDuration = SimDuration::from_us_f64(0.6);

/// Semaphore hop in which the master publishes the result and the slave
/// picks it up.
pub(crate) const BROADCAST: SimDuration = SimDuration::from_us_f64(0.4);

/// Fractional exchange-bandwidth loss when a slave's halo moves through
/// the master (extra staging copy through shared memory; §4.1: "about
/// 30 % lower").
const SLAVE_BANDWIDTH_PENALTY: f64 = 0.30;

/// Effective bandwidth of a slave-to-slave exchange leg given the
/// master-to-master bandwidth.
pub(crate) fn slave_bandwidth(master_mbyte_per_sec: f64) -> f64 {
    master_mbyte_per_sec * (1.0 - SLAVE_BANDWIDTH_PENALTY)
}

/// Time for a slave's exchange leg of `bytes`, given the master-to-master
/// leg time: the request/response semaphore hops plus the bandwidth
/// penalty on the streaming portion.
pub(crate) fn slave_leg_time(
    master_leg: SimDuration,
    bytes: u64,
    master_mbyte_per_sec: f64,
) -> SimDuration {
    let stream_master = SimDuration::for_bytes_at(bytes, master_mbyte_per_sec);
    let stream_slave = SimDuration::for_bytes_at(bytes, slave_bandwidth(master_mbyte_per_sec));
    master_leg + COMBINE + BROADCAST + (stream_slave - stream_master)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slave_bandwidth_is_thirty_percent_lower() {
        assert!((slave_bandwidth(110.0) - 77.0).abs() < 1e-9);
    }

    #[test]
    fn slave_leg_slower_than_master_leg() {
        let master = SimDuration::from_us_f64(43.5); // 3840 B leg
        let slave = slave_leg_time(master, 3840, 110.0);
        assert!(slave > master);
        // Penalty should be dominated by the extra streaming time:
        // 3840 B at 77 vs 110 MB/s is ~15 µs slower.
        let extra = slave.as_us_f64() - master.as_us_f64();
        assert!((10.0..20.0).contains(&extra), "extra {extra} µs");
    }
}
