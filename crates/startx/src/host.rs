//! Host-side PCI and memory characteristics (§2.1).
//!
//! The Hyades nodes are dual 400-MHz Pentium II SMPs (Intel 82801AB-class
//! chipset, 512 MB of PC100 SDRAM). The paper reports the I/O
//! characteristics that "directly govern the performance of interprocessor
//! communication":
//!
//! * 8-byte uncached mmap **read** of a PCI device register: **0.93 µs**;
//! * minimum gap between back-to-back 8-byte mmap **writes**: **0.18 µs**
//!   (both in [`pio`]);
//! * sustained PCI **DMA** above **120 MByte/s**, with a VI-mode payload
//!   transfer peak of **110 MByte/s** (§2.3);
//! * cached memory copies run far faster than PIO — we model cached memcpy at
//!   800 MByte/s, a representative figure for cache-resident staging copies
//!   on a 400-MHz PII, used for the VI-region
//!   staging copies.

use crate::pio;
use hyades_des::SimDuration;

/// Effective VI-mode payload rate (§2.3: 110 MByte/s peak), the
/// bottleneck once packetization and descriptor overhead are paid.
pub const VI_PAYLOAD_MBYTE_PER_SEC: f64 = 110.0;

/// Cached memcpy bandwidth for staging copies into/out of the VI region
/// (§2.1: far above PIO; modelled at 800 MByte/s).
const MEMCPY_MBYTE_PER_SEC: f64 = 800.0;

/// Time for the CPU to copy `bytes` between cached memory regions.
pub(crate) fn memcpy_time(bytes: u64) -> SimDuration {
    SimDuration::for_bytes_at(bytes, MEMCPY_MBYTE_PER_SEC)
}

/// Time for the DMA engine to move `bytes` of payload across PCI in VI
/// mode.
pub(crate) fn vi_dma_time(bytes: u64) -> SimDuration {
    SimDuration::for_bytes_at(bytes, VI_PAYLOAD_MBYTE_PER_SEC)
}

/// The per-message software costs of the messaging layer; the hardware
/// costs are the constants of this module and of [`pio`]. Defaults are
/// the raw StarT-X layer's; `hyades_comms::mpistart::mpi_host` taxes them
/// with an MPI library's.
#[derive(Clone, Copy, Debug)]
pub struct HostParams {
    /// Fixed software cost per send (function call, header compose).
    pub send_sw: SimDuration,
    /// Fixed software cost per receive (dispatch on tag, status check).
    pub recv_sw: SimDuration,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            send_sw: SimDuration::from_us_f64(0.05),
            recv_sw: SimDuration::from_us_f64(0.15),
        }
    }
}

impl HostParams {
    /// CPU send overhead `Os` for a PIO message with `payload_bytes`
    /// payload.
    pub fn send_overhead(&self, payload_bytes: u64) -> SimDuration {
        self.send_sw + pio::send_estimate(payload_bytes)
    }

    /// CPU receive overhead `Or` for a PIO message with `payload_bytes`
    /// payload.
    pub fn recv_overhead(&self, payload_bytes: u64) -> SimDuration {
        self.recv_sw + pio::recv_estimate(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert!((pio::READ_8B.as_us_f64() - 0.93).abs() < 1e-9);
        assert!((VI_PAYLOAD_MBYTE_PER_SEC - 110.0).abs() < 1e-9);
    }

    #[test]
    fn measured_overheads_match_figure_2() {
        let h = HostParams::default();
        // Figure 2: Os = 0.4, Or = 2.0 for 8-byte payloads.
        assert!((h.send_overhead(8).as_us_f64() - 0.4).abs() < 0.02);
        assert!((h.recv_overhead(8).as_us_f64() - 2.0).abs() < 0.02);
        // Figure 2: Os = 1.7, Or = 8.6 for 64-byte payloads.
        assert!((h.send_overhead(64).as_us_f64() - 1.7).abs() < 0.05);
        assert!((h.recv_overhead(64).as_us_f64() - 8.6).abs() < 0.15);
    }

    #[test]
    fn memcpy_faster_than_pio() {
        // Copying 8 bytes through cache is far cheaper than one uncached
        // read — the disparity VI mode exploits (§2.3).
        assert!(memcpy_time(8) < pio::READ_8B / 10);
    }

    #[test]
    fn dma_time_scales_linearly() {
        let t1 = vi_dma_time(1024);
        let t2 = vi_dma_time(2048);
        assert_eq!(t2, t1 * 2);
        // 110 bytes at 110 MB/s is 1 us.
        assert_eq!(vi_dma_time(110), SimDuration::from_us(1));
    }
}
