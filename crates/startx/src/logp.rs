//! LogP characterization of PIO message passing (Figure 2).
//!
//! The paper reports the LogP parameters (Culler et al. 1996) of StarT-X's
//! PIO mechanism for 8-byte and 64-byte payloads:
//!
//! | size | Os (µs) | Or (µs) | RTT/2 (µs) | L (µs) |
//! |------|---------|---------|------------|--------|
//! | 8 B  | 0.4     | 2.0     | 3.7        | 1.3    |
//! | 64 B | 1.7     | 8.6     | 11.7       | 1.4    |
//!
//! This harness runs a PIO ping-pong on the simulated fabric: `RTT/2` is
//! measured end to end, `Os`/`Or` come from the register cost model (the
//! paper measures them with separate overhead microbenchmarks), and the
//! network latency is derived as `L = RTT/2 − Os − Or`.

use crate::host::HostParams;
use crate::msg::words_from_bytes;
use hyades_arctic::network::{ArcticNetwork, Delivered, Inject};
use hyades_arctic::packet::{Packet, Priority};
use hyades_des::event::Payload;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};

/// One row of Figure 2.
#[derive(Clone, Copy, Debug)]
pub struct LogPRow {
    pub payload_bytes: u64,
    pub os: SimDuration,
    pub or: SimDuration,
    pub half_rtt: SimDuration,
    pub latency: SimDuration,
}

const TAG_PING: u16 = 0x711;
const TAG_PONG: u16 = 0x712;

/// Kick event for the initiator.
struct StartPingPong {
    rounds: u32,
}

/// Self event: receive overhead has been paid; act on the message.
struct RxProcessed {
    tag: u16,
}

struct PingPonger {
    me: u16,
    peer: u16,
    host: HostParams,
    tx_port: ActorId,
    payload_bytes: u64,
    rounds_left: u32,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    rounds_total: u32,
}

impl PingPonger {
    fn send(&self, ctx: &mut Ctx<'_>, tag: u16) {
        let os = self.host.send_overhead(self.payload_bytes);
        let data = vec![0u8; self.payload_bytes as usize];
        let pkt = Packet::new(
            self.me,
            self.peer,
            Priority::High,
            tag,
            words_from_bytes(&data),
        );
        ctx.send_after(os, self.tx_port, Inject(pkt));
    }
}

impl Actor for PingPonger {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<StartPingPong>() {
            Ok(s) => {
                self.rounds_left = s.rounds;
                self.rounds_total = s.rounds;
                self.started = Some(ctx.now());
                self.send(ctx, TAG_PING);
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<Delivered>() {
            Ok(del) => {
                assert!(!del.pkt.corrupted);
                let or = self.host.recv_overhead(self.payload_bytes);
                ctx.wake_after(
                    or,
                    RxProcessed {
                        tag: del.pkt.usr_tag,
                    },
                );
                return;
            }
            Err(e) => e,
        };
        let rx = ev
            .downcast::<RxProcessed>()
            .unwrap_or_else(|_| panic!("PingPonger: unexpected event type"));
        match rx.tag {
            TAG_PING => self.send(ctx, TAG_PONG),
            TAG_PONG => {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.finished = Some(ctx.now());
                } else {
                    self.send(ctx, TAG_PING);
                }
            }
            t => panic!("unexpected tag {t:#x}"),
        }
    }
}

/// Measure a LogP row by ping-pong between `src` and `dst` on an
/// `n_endpoints` fabric.
pub fn measure_logp(
    host: HostParams,
    payload_bytes: u64,
    n_endpoints: u16,
    src: u16,
    dst: u16,
    rounds: u32,
) -> LogPRow {
    assert!(rounds > 0);
    let mut sim = Simulator::new();
    let net =
        ArcticNetwork::build_with(&mut sim, n_endpoints, Default::default(), |me, tx_port| {
            let peer = if me == src {
                dst
            } else if me == dst {
                src
            } else {
                me
            };
            Box::new(PingPonger {
                me,
                peer,
                host,
                tx_port,
                payload_bytes,
                rounds_left: 0,
                started: None,
                finished: None,
                rounds_total: 0,
            })
        });
    sim.schedule(SimTime::ZERO, net.endpoint(src), StartPingPong { rounds });
    sim.run();
    let a = sim.actor::<PingPonger>(net.endpoint(src));
    let (started, finished) = a
        .started
        .zip(a.finished)
        .unwrap_or_else(|| panic!("ping-pong did not finish"));
    let total = finished.since(started);
    let half_rtt = total / (2 * rounds as u64);
    let os = host.send_overhead(payload_bytes);
    let or = host.recv_overhead(payload_bytes);
    LogPRow {
        payload_bytes,
        os,
        or,
        half_rtt,
        latency: half_rtt.saturating_sub(os + or),
    }
}

/// Regenerate Figure 2: LogP rows for 8-byte and 64-byte payloads, measured
/// between the two most distant endpoints of a 16-endpoint fabric (the
/// worst-case 7-stage path).
pub fn figure2(host: HostParams) -> Vec<LogPRow> {
    [8u64, 64]
        .iter()
        .map(|&b| measure_logp(host, b, 16, 0, 15, 100))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(x: f64, paper: f64, tol: f64) -> bool {
        (x - paper).abs() <= tol
    }

    #[test]
    fn figure2_8_byte_row() {
        let row = measure_logp(HostParams::default(), 8, 16, 0, 15, 50);
        assert!(close(row.os.as_us_f64(), 0.4, 0.05), "Os {}", row.os);
        assert!(close(row.or.as_us_f64(), 2.0, 0.1), "Or {}", row.or);
        assert!(
            close(row.half_rtt.as_us_f64(), 3.7, 0.4),
            "RTT/2 {}",
            row.half_rtt
        );
        assert!(
            close(row.latency.as_us_f64(), 1.3, 0.35),
            "L {}",
            row.latency
        );
    }

    #[test]
    fn figure2_64_byte_row() {
        let row = measure_logp(HostParams::default(), 64, 16, 0, 15, 50);
        assert!(close(row.os.as_us_f64(), 1.7, 0.1), "Os {}", row.os);
        assert!(close(row.or.as_us_f64(), 8.6, 0.3), "Or {}", row.or);
        assert!(
            close(row.half_rtt.as_us_f64(), 11.7, 1.0),
            "RTT/2 {}",
            row.half_rtt
        );
        assert!(
            close(row.latency.as_us_f64(), 1.4, 0.5),
            "L {}",
            row.latency
        );
    }

    #[test]
    fn latency_nearly_independent_of_size() {
        // Figure 2: L is 1.3 vs 1.4 us for 8 vs 64 bytes — cut-through
        // keeps latency almost flat in payload size.
        let rows = figure2(HostParams::default());
        let dl = (rows[1].latency.as_us_f64() - rows[0].latency.as_us_f64()).abs();
        assert!(dl < 0.5, "latency grew too much with size: {dl}");
    }

    #[test]
    fn short_path_has_lower_half_rtt() {
        let far = measure_logp(HostParams::default(), 8, 16, 0, 15, 20);
        let near = measure_logp(HostParams::default(), 8, 16, 0, 1, 20);
        assert!(near.half_rtt < far.half_rtt);
    }
}
