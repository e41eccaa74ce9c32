//! PIO-mode cost model (§2.3).
//!
//! In PIO mode a process sends by writing the message (two 8-byte header
//! words' worth plus payload) to uncached memory-mapped NIU registers, and
//! receives by reading it back out the same way. "Due to the relative high
//! cost of the uncached mmap accesses, we can reliably estimate the
//! performance of PIO-mode communication by summing the cost of the mmap
//! accesses." We do exactly that, plus the small fixed software overhead
//! that separates the paper's estimates (0.36/1.86 µs) from its measured
//! LogP values (0.4/2.0 µs).

use hyades_des::SimDuration;

/// PIO register-access cost parameters.
#[derive(Clone, Copy, Debug)]
pub struct PioCosts {
    /// Back-to-back 8-byte uncached mmap write (paper: 0.18 µs).
    pub write_8b: SimDuration,
    /// 8-byte uncached mmap read (paper: 0.93 µs).
    pub read_8b: SimDuration,
    /// Fixed software cost per send (function call, header compose).
    pub send_sw: SimDuration,
    /// Fixed software cost per receive (dispatch on tag, status check).
    pub recv_sw: SimDuration,
}

impl Default for PioCosts {
    fn default() -> Self {
        PioCosts {
            write_8b: SimDuration::from_us_f64(0.18),
            read_8b: SimDuration::from_us_f64(0.93),
            send_sw: SimDuration::from_us_f64(0.05),
            recv_sw: SimDuration::from_us_f64(0.15),
        }
    }
}

impl PioCosts {
    /// Number of 8-byte register accesses for a message with
    /// `payload_bytes` of payload: the 8-byte header plus the payload,
    /// rounded up to 8-byte beats.
    pub fn accesses(payload_bytes: u64) -> u64 {
        1 + payload_bytes.div_ceil(8)
    }

    /// CPU send overhead `Os` for a message with `payload_bytes` payload.
    pub fn send_overhead(&self, payload_bytes: u64) -> SimDuration {
        self.send_sw + self.write_8b * Self::accesses(payload_bytes)
    }

    /// CPU receive overhead `Or` for a message with `payload_bytes`
    /// payload.
    pub fn recv_overhead(&self, payload_bytes: u64) -> SimDuration {
        self.recv_sw + self.read_8b * Self::accesses(payload_bytes)
    }

    /// The paper's pure-register estimate of the send overhead (§2.3:
    /// "0.36 µs" for 8 bytes) — without the software constant.
    pub fn send_estimate(&self, payload_bytes: u64) -> SimDuration {
        self.write_8b * Self::accesses(payload_bytes)
    }

    /// The paper's pure-register estimate of the receive overhead (§2.3:
    /// "1.86 µs" for 8 bytes).
    pub fn recv_estimate(&self, payload_bytes: u64) -> SimDuration {
        self.read_8b * Self::accesses(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_estimates_for_8_byte_messages() {
        let c = PioCosts::default();
        // §2.3: two 8-byte accesses each side -> 0.36 us send, 1.86 us recv.
        assert!((c.send_estimate(8).as_us_f64() - 0.36).abs() < 1e-9);
        assert!((c.recv_estimate(8).as_us_f64() - 1.86).abs() < 1e-9);
    }

    #[test]
    fn measured_overheads_match_figure_2() {
        let c = PioCosts::default();
        // Figure 2: Os = 0.4, Or = 2.0 for 8-byte payloads.
        assert!((c.send_overhead(8).as_us_f64() - 0.4).abs() < 0.02);
        assert!((c.recv_overhead(8).as_us_f64() - 2.0).abs() < 0.02);
        // Figure 2: Os = 1.7, Or = 8.6 for 64-byte payloads.
        assert!((c.send_overhead(64).as_us_f64() - 1.7).abs() < 0.05);
        assert!((c.recv_overhead(64).as_us_f64() - 8.6).abs() < 0.15);
    }

    #[test]
    fn access_counting() {
        assert_eq!(PioCosts::accesses(0), 1);
        assert_eq!(PioCosts::accesses(1), 2);
        assert_eq!(PioCosts::accesses(8), 2);
        assert_eq!(PioCosts::accesses(9), 3);
        assert_eq!(PioCosts::accesses(64), 9);
        assert_eq!(PioCosts::accesses(88), 12);
    }
}
