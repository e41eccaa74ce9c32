//! PIO-mode cost model (§2.3).
//!
//! In PIO mode a process sends by writing the message (two 8-byte header
//! words' worth plus payload) to uncached memory-mapped NIU registers, and
//! receives by reading it back out the same way. "Due to the relative high
//! cost of the uncached mmap accesses, we can reliably estimate the
//! performance of PIO-mode communication by summing the cost of the mmap
//! accesses." We do exactly that; [`HostParams`](crate::HostParams) adds
//! the small fixed software overhead that separates the paper's estimates
//! (0.36/1.86 µs) from its measured LogP values (0.4/2.0 µs).

use hyades_des::SimDuration;

/// Back-to-back 8-byte uncached mmap write (§2.1: 0.18 µs).
pub(crate) const WRITE_8B: SimDuration = SimDuration::from_us_f64(0.18);

/// 8-byte uncached mmap read of a PCI device register (§2.1: 0.93 µs).
pub(crate) const READ_8B: SimDuration = SimDuration::from_us_f64(0.93);

/// Number of 8-byte register accesses for a message with `payload_bytes`
/// of payload: the 8-byte header plus the payload, rounded up to 8-byte
/// beats.
pub fn accesses(payload_bytes: u64) -> u64 {
    1 + payload_bytes.div_ceil(8)
}

/// The paper's pure-register estimate of the send overhead (§2.3:
/// "0.36 µs" for 8 bytes) — without the software constant.
pub fn send_estimate(payload_bytes: u64) -> SimDuration {
    WRITE_8B * accesses(payload_bytes)
}

/// The paper's pure-register estimate of the receive overhead (§2.3:
/// "1.86 µs" for 8 bytes).
pub fn recv_estimate(payload_bytes: u64) -> SimDuration {
    READ_8B * accesses(payload_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_estimates_for_8_byte_messages() {
        // §2.3: two 8-byte accesses each side -> 0.36 us send, 1.86 us recv.
        assert!((send_estimate(8).as_us_f64() - 0.36).abs() < 1e-9);
        assert!((recv_estimate(8).as_us_f64() - 1.86).abs() < 1e-9);
    }

    #[test]
    fn access_counting() {
        assert_eq!(accesses(0), 1);
        assert_eq!(accesses(1), 2);
        assert_eq!(accesses(8), 2);
        assert_eq!(accesses(9), 3);
        assert_eq!(accesses(64), 9);
        assert_eq!(accesses(88), 12);
    }
}
