//! MPI-StarT: the general-purpose layer the paper declines to use (§6).
//!
//! Hyades *has* general-purpose interfaces — MPI-StarT (Husbands & Hoe,
//! SC'98) and Cilk — that drive the same hardware. The paper's argument
//! is that "in an application-specific cluster, there is little reason to
//! give up any performance for an API that is more general than
//! required". This module quantifies that trade: the same butterfly
//! reduction and pairwise exchange, run through an MPI-style library
//! layer whose per-message costs include the envelope matching, request
//! bookkeeping, and extra buffering a portable MPI must do.
//!
//! Library cost model (calibrated to MPI-StarT's reported small-message
//! latency of ~15–25 µs versus raw StarT-X's ~4 µs):
//!
//! * +4 µs software per send (envelope construction, request setup);
//! * +6 µs per receive (unexpected-message queue search, tag matching,
//!   request completion);
//! * bulk transfers take an extra staging copy, capping effective
//!   bandwidth near 75 MB/s versus the 110 MB/s of the raw VI path.

use crate::gsum::{measure_gsum, GsumMeasurement};
use hyades_cluster::interconnect::PrimitiveModel;
use hyades_des::SimDuration;
use hyades_startx::HostParams;

/// Software overhead MPI adds to each send.
pub const MPI_SEND_SW_US: f64 = 4.0;
/// Software overhead MPI adds to each receive.
pub const MPI_RECV_SW_US: f64 = 6.0;
/// Effective MPI bulk bandwidth (MB/s): the raw 110 MB/s VI stream minus
/// one intermediate copy.
pub const MPI_BULK_MBS: f64 = 75.0;

/// Host parameters with the MPI library tax folded into the per-message
/// software costs (the hardware underneath is identical).
pub fn mpi_host() -> HostParams {
    HostParams {
        send_sw: SimDuration::from_us_f64(MPI_SEND_SW_US),
        recv_sw: SimDuration::from_us_f64(MPI_RECV_SW_US),
    }
}

/// `MPI_Allreduce` on the simulated fabric: recursive doubling — the same
/// butterfly as the custom global sum, each message paying the library
/// costs. This is exactly how a good MPI implements small allreduce, so
/// the *entire* measured difference is API overhead.
pub fn measure_mpi_allreduce(values: &[f64]) -> GsumMeasurement {
    measure_gsum(mpi_host(), values, false)
}

/// The MPI-StarT primitive-cost model for the performance analysis: a
/// rendezvous handshake (request + clear-to-send, each a taxed small
/// message) per exchange leg plus the reduced-bandwidth stream.
pub fn mpistart_model() -> PrimitiveModel {
    // One-way taxed small message: Os' + L + poll + Or' with the MPI
    // software constants.
    let small_msg_us = (0.36 + MPI_SEND_SW_US) + 1.2 + 0.93 + (1.86 + MPI_RECV_SW_US);
    let leg_overhead_us = 8.6 + 2.0 * small_msg_us; // VI negotiation + rendezvous
    PrimitiveModel {
        name: "MPI-StarT".to_string(),
        leg_overhead_us,
        exch_byte_us: 1.0 / MPI_BULK_MBS,
        ptp_byte_us: 1.0 / MPI_BULK_MBS,
        // Allreduce round: one taxed message latency + the add.
        gsum_round_us: small_msg_us + 0.05,
        gsum_base_us: 0.0,
        smp_local_us: 1.0,
        barrier_round_us: small_msg_us,
    }
}

/// Measured generality tax: (custom µs, mpi µs) for an `n`-way reduction.
pub fn reduction_tax(n: u16) -> (f64, f64) {
    let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let custom = measure_gsum(HostParams::default(), &vals, false);
    let mpi = measure_mpi_allreduce(&vals);
    (custom.elapsed.as_us_f64(), mpi.elapsed.as_us_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyades_cluster::interconnect::{arctic_paper, ExchangeShape, Interconnect};

    #[test]
    fn allreduce_matches_custom_result_exactly() {
        let vals: Vec<f64> = (0..8).map(|i| (i * i) as f64 - 3.5).collect();
        let custom = measure_gsum(HostParams::default(), &vals, false);
        let mpi = measure_mpi_allreduce(&vals);
        assert_eq!(custom.value, mpi.value, "same arithmetic, same answer");
    }

    #[test]
    fn generality_tax_is_2x_to_4x_on_reductions() {
        for n in [4u16, 8, 16] {
            let (custom, mpi) = reduction_tax(n);
            let tax = mpi / custom;
            assert!(
                (2.0..4.5).contains(&tax),
                "{n}-way: custom {custom} vs MPI {mpi} ({tax:.1}x)"
            );
        }
    }

    #[test]
    fn mpi_exchange_slower_but_not_ethernet_slow() {
        let mpi = mpistart_model();
        let arctic = arctic_paper();
        let ds = ExchangeShape::square_tile(32, 1, 1, 8);
        let t_mpi = mpi.exchange_time(&ds).as_us_f64();
        let t_arc = arctic.exchange_time(&ds).as_us_f64();
        // MPI on the same fabric: a few times slower than the custom
        // primitive…
        assert!((2.0..8.0).contains(&(t_mpi / t_arc)), "{t_mpi} vs {t_arc}");
        // …but still 1–2 orders faster than Ethernet MPI (10 ms): the
        // hardware matters even through a general API.
        assert!(t_mpi < 1000.0, "{t_mpi}");
    }

    #[test]
    fn mpi_would_still_fail_the_fine_grain_budget_at_scale() {
        // §5.4's DS budget is 306 µs for tgsum + texch_xy. MPI-StarT's
        // exchange alone eats most of it — the reason the paper pays one
        // man-month for custom primitives.
        let mpi = mpistart_model();
        let ds = ExchangeShape::square_tile(32, 1, 1, 8);
        let sum = mpi.gsum_time(8).as_us_f64() + mpi.exchange_time(&ds).as_us_f64();
        let custom_sum = {
            let a = arctic_paper();
            a.gsum_time(8).as_us_f64() + a.exchange_time(&ds).as_us_f64()
        };
        assert!(sum > 1.3 * custom_sum);
        // Custom fits the 306 µs budget comfortably; MPI eats > 100% of
        // the *gsum+exchange* share.
        assert!(custom_sum < 150.0);
        assert!(sum > 300.0, "MPI DS comm {sum} µs");
    }
}
