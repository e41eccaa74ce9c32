//! VI-mode bulk transfers (§2.3, §4.1).
//!
//! The Cacheable Virtual Interface extends the NIU's physical queues into
//! host memory by DMA: the sender stages data into a pinned VI region with
//! cached copies, then kicks the TX DMA engine, which segments the region
//! into maximum-size Arctic packets and streams them at the PCI payload
//! limit (110 MByte/s). The receiver's RX DMA deposits packets straight
//! into its VI region, from which the CPU copies them out, overlapped with
//! further arrivals.
//!
//! A transfer therefore costs a one-time negotiation (a PIO
//! request/acknowledge round trip plus DMA setup and the first staging
//! copy — about 8.6 µs end to end, §4.1) followed by `len / 110 MB/s` of
//! streaming. The perceived bandwidth
//!
//! ```text
//! BW(len) = len / (t_negotiate + len / 110 MB/s)
//! ```
//!
//! reproduces Figure 7: ~57 MB/s at 1 KB, 90 % of peak near 9 KB.

use crate::host::HostParams;
use crate::msg::{bulk_packet, segment};
use hyades_arctic::network::{ArcticNetwork, Delivered, Inject};
use hyades_arctic::packet::{Packet, Priority};
use hyades_des::event::Payload;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;

/// Control-message tags used by the VI transfer protocol.
pub const TAG_REQ: u16 = 0x701;
pub const TAG_ACK: u16 = 0x702;
pub const TAG_DATA: u16 = 0x703;
pub const TAG_DONE: u16 = 0x704;

/// VI transfer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ViConfig {
    /// Staging-copy chunk size (the paper copies "in several small chunks"
    /// to overlap copy and DMA).
    pub chunk_bytes: u64,
    /// Whether the receiver notifies the sender on completion (the exchange
    /// primitive needs this to reverse roles).
    pub notify_sender: bool,
}

impl Default for ViConfig {
    fn default() -> Self {
        ViConfig {
            // Small chunks keep the first staging copy off the critical
            // path (the paper: "the sender copies the data in several small
            // chunks and initiates DMA on a chunk immediately after each
            // copy"); 512 B reproduces the ~8.6 µs fixed overhead of
            // Figure 7. Subsequent chunks chain onto the running DMA.
            chunk_bytes: 512,
            notify_sender: true,
        }
    }
}

/// Analytic model of the one-time per-transfer overhead: PIO round trip
/// (request + ack) + DMA kick + first staging copy.
pub fn negotiation_time(
    host: &HostParams,
    net_latency: SimDuration,
    first_chunk: u64,
) -> SimDuration {
    let pio = &host.pio;
    let req = pio.send_overhead(8) + net_latency + pio.recv_overhead(8);
    let ack = pio.send_overhead(8) + net_latency + pio.recv_overhead(8);
    req + ack + host.dma_kick + host.memcpy_time(first_chunk)
}

/// Analytic transfer time: negotiation + streaming at the PCI payload rate
/// + the receiver's final copy-out.
pub fn transfer_time(
    host: &HostParams,
    net_latency: SimDuration,
    cfg: &ViConfig,
    len: u64,
) -> SimDuration {
    let first = len.min(cfg.chunk_bytes);
    let last = if len > cfg.chunk_bytes {
        len % cfg.chunk_bytes
    } else {
        0
    };
    let last = if last == 0 {
        len.min(cfg.chunk_bytes)
    } else {
        last
    };
    negotiation_time(host, net_latency, first) + host.vi_dma_time(len) + host.memcpy_time(last)
}

/// Perceived bandwidth in MByte/s for a transfer of `len` bytes.
pub fn perceived_bandwidth(
    host: &HostParams,
    net_latency: SimDuration,
    cfg: &ViConfig,
    len: u64,
) -> f64 {
    len as f64 / transfer_time(host, net_latency, cfg, len).as_secs_f64() / 1e6
}

// ---------------------------------------------------------------------------
// DES protocol actors
// ---------------------------------------------------------------------------

/// Kick event: start a transfer of `len` bytes to `dst`.
pub struct StartTransfer {
    pub dst: u16,
    pub len: u64,
}

/// Sender-side self events.
enum SenderEv {
    /// The receiver's ACK has been read: begin staging.
    AckProcessed,
    /// A staging chunk finished copying into the VI region.
    ChunkStaged { idx: usize },
    /// The DMA engine emits the next packet of the stream.
    EmitPacket { seq: u32, bytes: u64, last: bool },
}

/// Sender state machine for one-way VI transfers.
pub struct ViSender {
    pub me: u16,
    host: HostParams,
    cfg: ViConfig,
    tx_port: ActorId,
    // Transfer in flight:
    dst: u16,
    chunks: Vec<u64>,
    staged: usize,
    dma_free_at: SimTime,
    next_seq: u32,
    packets_pending: std::collections::VecDeque<(u32, u64)>,
    emitting: bool,
    /// When the in-flight transfer's `StartTransfer` arrived (telemetry
    /// span start).
    started: Option<SimTime>,
    /// Completion time of the last finished transfer (set on TAG_DONE when
    /// `notify_sender`, else when the final packet is emitted).
    pub done_at: Option<SimTime>,
    pub transfers_completed: u64,
}

impl ViSender {
    pub fn new(me: u16, host: HostParams, cfg: ViConfig, tx_port: ActorId) -> Self {
        ViSender {
            me,
            host,
            cfg,
            tx_port,
            dst: 0,
            chunks: Vec::new(),
            staged: 0,
            dma_free_at: SimTime::ZERO,
            next_seq: 0,
            packets_pending: std::collections::VecDeque::new(),
            emitting: false,
            started: None,
            done_at: None,
            transfers_completed: 0,
        }
    }

    fn send_pio(&self, ctx: &mut Ctx<'_>, dst: u16, tag: u16, word: u32) {
        // CPU writes header+payload to the NIU: the message enters the
        // network once the mmap writes complete.
        let cost = self.host.pio.send_overhead(8);
        telemetry::record_span(
            ctx.self_id().0 as u64,
            "startx",
            "pio.send",
            ctx.now(),
            cost,
        );
        flight::record(ctx.now(), ctx.self_id(), "vi.pio_send", tag as u64);
        let pkt = Packet::new(self.me, dst, Priority::High, tag, vec![word, 0]);
        ctx.send_after(cost, self.tx_port, Inject(pkt));
    }

    /// Record the end-to-end transfer span once its completion time is
    /// known (from either the TAG_DONE ack or the final emitted packet).
    fn finish_span(&mut self, done: SimTime) {
        if let Some(started) = self.started.take() {
            telemetry::record_span(
                u64::from(self.me),
                "startx",
                "vi.transfer",
                started,
                done.since(started),
            );
        }
        telemetry::count("startx.vi", "transfers_completed", 1);
    }

    fn stage_chunks(&mut self, ctx: &mut Ctx<'_>, from_idx: usize) {
        // The CPU copies chunks back-to-back; each completion event kicks
        // the DMA for that chunk.
        if from_idx >= self.chunks.len() {
            return;
        }
        let copy = self.host.memcpy_time(self.chunks[from_idx]);
        ctx.wake_after(copy, SenderEv::ChunkStaged { idx: from_idx });
    }

    fn kick_dma(&mut self, ctx: &mut Ctx<'_>, chunk: u64) {
        // Segment the chunk into packets and queue them for paced emission.
        for s in segment(chunk) {
            self.packets_pending.push_back((self.next_seq, s));
            self.next_seq += 1;
        }
        if !self.emitting {
            self.emitting = true;
            let start = ctx.now().max(self.dma_free_at) + self.host.dma_kick;
            let (seq, bytes) = *self.packets_pending.front().expect("queued above");
            let last = self.is_last(seq);
            ctx.wake_after(start - ctx.now(), SenderEv::EmitPacket { seq, bytes, last });
        }
    }

    fn is_last(&self, seq: u32) -> bool {
        self.staged == self.chunks.len()
            && self
                .packets_pending
                .back()
                .map(|&(s, _)| s == seq)
                .unwrap_or(false)
    }
}

impl Actor for ViSender {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<StartTransfer>() {
            Ok(start) => {
                self.dst = start.dst;
                self.chunks = chunk_plan(start.len, self.cfg.chunk_bytes);
                self.staged = 0;
                self.started = Some(ctx.now());
                self.done_at = None;
                flight::record(ctx.now(), ctx.self_id(), "vi.start", start.len);
                // Negotiate: request the receiver to pin/prepare its VI
                // region.
                self.send_pio(ctx, start.dst, TAG_REQ, start.len as u32);
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<Delivered>() {
            Ok(del) => {
                let pkt = del.pkt;
                assert!(!pkt.corrupted, "catastrophic network failure");
                match pkt.usr_tag {
                    TAG_ACK => {
                        // CPU cost of reading the ack, then start staging.
                        flight::record(ctx.now(), ctx.self_id(), "vi.ack", 0);
                        let or = self.host.pio.recv_overhead(8);
                        ctx.wake_after(or, SenderEv::AckProcessed);
                    }
                    TAG_DONE => {
                        let or = self.host.pio.recv_overhead(8);
                        let done = ctx.now() + or;
                        self.done_at = Some(done);
                        self.transfers_completed += 1;
                        flight::record(ctx.now(), ctx.self_id(), "vi.done", 0);
                        self.finish_span(done);
                    }
                    t => panic!("ViSender: unexpected tag {t:#x}"),
                }
                return;
            }
            Err(e) => e,
        };
        match *ev.downcast::<SenderEv>().expect("ViSender event") {
            SenderEv::AckProcessed => self.stage_chunks(ctx, 0),
            SenderEv::ChunkStaged { idx } => {
                self.staged = idx + 1;
                let chunk = self.chunks[idx];
                self.kick_dma(ctx, chunk);
                self.stage_chunks(ctx, idx + 1);
            }
            SenderEv::EmitPacket { seq, bytes, last } => {
                let popped = self.packets_pending.pop_front();
                debug_assert_eq!(popped.map(|p| p.0), Some(seq));
                telemetry::count("startx.vi", "packets_emitted", 1);
                telemetry::count("startx.vi", "bytes_emitted", bytes);
                let pkt = bulk_packet(self.me, self.dst, TAG_DATA, seq, bytes);
                ctx.send_now(self.tx_port, Inject(pkt));
                // Pace the stream at the PCI payload rate.
                let gap = self.host.vi_dma_time(bytes);
                self.dma_free_at = ctx.now() + gap;
                if let Some(&(nseq, nbytes)) = self.packets_pending.front() {
                    let nlast = self.is_last(nseq);
                    ctx.wake_after(
                        gap,
                        SenderEv::EmitPacket {
                            seq: nseq,
                            bytes: nbytes,
                            last: nlast,
                        },
                    );
                } else {
                    self.emitting = false;
                    if last && !self.cfg.notify_sender {
                        let done = ctx.now() + gap;
                        self.done_at = Some(done);
                        self.transfers_completed += 1;
                        self.finish_span(done);
                    }
                }
            }
        }
    }
}

/// Receiver state machine for one-way VI transfers.
pub struct ViReceiver {
    pub me: u16,
    host: HostParams,
    cfg: ViConfig,
    tx_port: ActorId,
    expected: u64,
    received: u64,
    src: u16,
    next_seq: u32,
    /// When the in-flight transfer's TAG_REQ arrived (telemetry span start).
    started: Option<SimTime>,
    pub out_of_order: u64,
    /// Time the user-level buffer held the complete data.
    pub done_at: Option<SimTime>,
    pub transfers_completed: u64,
}

/// Receiver-side self event: final copy-out finished.
struct RxCopied;

impl ViReceiver {
    pub fn new(me: u16, host: HostParams, cfg: ViConfig, tx_port: ActorId) -> Self {
        ViReceiver {
            me,
            host,
            cfg,
            tx_port,
            expected: 0,
            received: 0,
            src: 0,
            next_seq: 0,
            started: None,
            out_of_order: 0,
            done_at: None,
            transfers_completed: 0,
        }
    }
}

impl Actor for ViReceiver {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<Delivered>() {
            Ok(del) => {
                let pkt = del.pkt;
                assert!(!pkt.corrupted, "catastrophic network failure");
                match pkt.usr_tag {
                    TAG_REQ => {
                        self.expected = pkt.payload[0] as u64;
                        self.received = 0;
                        self.next_seq = 0;
                        self.src = pkt.src;
                        self.started = Some(ctx.now());
                        self.done_at = None;
                        flight::record(ctx.now(), ctx.self_id(), "vi.req", self.expected);
                        // Read the request, post the RX descriptors, ack.
                        let cost = self.host.pio.recv_overhead(8)
                            + self.host.dma_kick
                            + self.host.pio.send_overhead(8);
                        let ack =
                            Packet::new(self.me, pkt.src, Priority::High, TAG_ACK, vec![0, 0]);
                        ctx.send_after(cost, self.tx_port, Inject(ack));
                    }
                    TAG_DATA => {
                        if pkt.payload[0] != self.next_seq {
                            self.out_of_order += 1;
                            telemetry::count("startx.vi", "out_of_order", 1);
                        }
                        self.next_seq = pkt.payload[0] + 1;
                        self.received += pkt.payload_bytes().min(self.expected - self.received);
                        telemetry::count("startx.vi", "bytes_received", pkt.payload_bytes());
                        if self.received >= self.expected {
                            // Copy the final chunk out of the VI region.
                            let tail = self.expected.min(self.cfg.chunk_bytes);
                            ctx.wake_after(self.host.memcpy_time(tail), RxCopied);
                        }
                    }
                    t => panic!("ViReceiver: unexpected tag {t:#x}"),
                }
                return;
            }
            Err(e) => e,
        };
        ev.downcast::<RxCopied>().expect("ViReceiver event");
        self.done_at = Some(ctx.now());
        self.transfers_completed += 1;
        if let Some(started) = self.started.take() {
            telemetry::record_span(
                u64::from(self.me),
                "startx",
                "vi.receive",
                started,
                ctx.now().since(started),
            );
        }
        telemetry::count("startx.vi", "receives_completed", 1);
        flight::record(ctx.now(), ctx.self_id(), "vi.rx_copied", self.expected);
        if self.cfg.notify_sender {
            let cost = self.host.pio.send_overhead(8);
            let done = Packet::new(self.me, self.src, Priority::High, TAG_DONE, vec![0, 0]);
            ctx.send_after(cost, self.tx_port, Inject(done));
        }
    }
}

/// Split `len` bytes into staging chunks.
fn chunk_plan(len: u64, chunk: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut rem = len;
    while rem > 0 {
        let c = rem.min(chunk);
        v.push(c);
        rem -= c;
    }
    v
}

// ---------------------------------------------------------------------------
// Measurement harness
// ---------------------------------------------------------------------------

/// Result of a simulated one-way VI transfer.
#[derive(Clone, Copy, Debug)]
pub struct TransferMeasurement {
    pub len: u64,
    pub elapsed: SimDuration,
    pub mbyte_per_sec: f64,
}

/// Run one VI transfer of `len` bytes between endpoints 0 → 1 of a
/// `n_endpoints` fabric and measure the user-to-user time (start of send
/// call to receiver's data being copied out).
pub fn measure_transfer(
    host: HostParams,
    cfg: ViConfig,
    n_endpoints: u16,
    len: u64,
) -> TransferMeasurement {
    // The bandwidth microbenchmark times the data, not the DONE ack.
    let bench_cfg = ViConfig {
        notify_sender: false,
        ..cfg
    };
    let mut sim = Simulator::new();
    let net = transfer_fabric(&mut sim, n_endpoints, host, bench_cfg);
    sim.schedule(
        SimTime::ZERO,
        net.endpoint(0),
        StartTransfer { dst: 1, len },
    );
    sim.run();

    let rx = sim.actor::<ViReceiver>(net.endpoint(1));
    let done = rx.done_at.expect("transfer did not complete");
    assert_eq!(rx.out_of_order, 0, "VI stream must stay in order");
    let elapsed = done.since(SimTime::ZERO);
    TransferMeasurement {
        len,
        elapsed,
        mbyte_per_sec: len as f64 / elapsed.as_secs_f64() / 1e6,
    }
}

/// Sweep Figure 7's block sizes (4 B .. 128 KB, powers of two).
pub fn bandwidth_sweep(host: HostParams, cfg: ViConfig) -> Vec<TransferMeasurement> {
    (2..=17u32)
        .map(|p| measure_transfer(host, cfg, 16, 1u64 << p))
        .collect()
}

/// A fabric whose endpoint 0 is a [`ViSender`], endpoint 1 a
/// [`ViReceiver`], and the rest inert.
fn transfer_fabric(sim: &mut Simulator, n: u16, host: HostParams, cfg: ViConfig) -> ArcticNetwork {
    ArcticNetwork::build_with(sim, n, Default::default(), |e, tx_port| match e {
        0 => Box::new(ViSender::new(0, host, cfg, tx_port)),
        1 => Box::new(ViReceiver::new(1, host, cfg, tx_port)),
        _ => Box::new(NullSink),
    })
}

/// Inert endpoint used for unused fabric slots.
struct NullSink;
impl Actor for NullSink {
    fn on_event(&mut self, _ev: Payload, _ctx: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_plan_covers_length() {
        assert_eq!(chunk_plan(5000, 2048), vec![2048, 2048, 904]);
        assert_eq!(chunk_plan(100, 2048), vec![100]);
        assert!(chunk_plan(0, 2048).is_empty());
    }

    #[test]
    fn analytic_curve_matches_figure_7_anchors() {
        let host = HostParams::default();
        let cfg = ViConfig::default();
        let lat = SimDuration::from_us_f64(1.2);
        // Paper: ~8.6 us one-time overhead.
        let neg = negotiation_time(&host, lat, 1024);
        assert!(
            (7.5..10.0).contains(&neg.as_us_f64()),
            "negotiation {neg} out of range"
        );
        // Paper: 56.8 MB/s at 1 KB.
        let bw1k = perceived_bandwidth(&host, lat, &cfg, 1024);
        assert!((50.0..62.0).contains(&bw1k), "1 KB bandwidth {bw1k}");
        // Paper: >= 90% of 110 MB/s at 9 KB.
        let bw9k = perceived_bandwidth(&host, lat, &cfg, 9 * 1024);
        assert!(bw9k >= 0.88 * 110.0, "9 KB bandwidth {bw9k}");
        // Peak approaches 110 MB/s.
        let bw128k = perceived_bandwidth(&host, lat, &cfg, 128 * 1024);
        assert!(
            (105.0..=110.0).contains(&bw128k),
            "128 KB bandwidth {bw128k}"
        );
    }

    #[test]
    fn simulated_transfer_matches_analytic_model() {
        let host = HostParams::default();
        let cfg = ViConfig::default();
        for len in [1024u64, 8192, 65536] {
            let m = measure_transfer(host, cfg, 16, len);
            let lat = SimDuration::from_us_f64(1.2);
            let predicted = transfer_time(&host, lat, &cfg, len);
            let ratio = m.elapsed.as_us_f64() / predicted.as_us_f64();
            assert!(
                (0.85..1.25).contains(&ratio),
                "len {len}: simulated {} vs predicted {predicted} (ratio {ratio:.2})",
                m.elapsed
            );
        }
    }

    #[test]
    fn simulated_bandwidth_anchors() {
        let host = HostParams::default();
        let cfg = ViConfig::default();
        let m1k = measure_transfer(host, cfg, 16, 1024);
        assert!(
            (48.0..65.0).contains(&m1k.mbyte_per_sec),
            "1 KB simulated bandwidth {}",
            m1k.mbyte_per_sec
        );
        let m128k = measure_transfer(host, cfg, 16, 131072);
        assert!(
            m128k.mbyte_per_sec > 104.0,
            "peak simulated bandwidth {}",
            m128k.mbyte_per_sec
        );
    }

    #[test]
    fn bandwidth_is_monotone_in_block_size() {
        let host = HostParams::default();
        let sweep = bandwidth_sweep(host, ViConfig::default());
        for w in sweep.windows(2) {
            assert!(
                w[1].mbyte_per_sec >= w[0].mbyte_per_sec * 0.98,
                "bandwidth dipped: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[cfg(test)]
mod notify_tests {
    use super::*;

    /// The exchange primitive needs the receiver's completion ack to
    /// reverse roles (§4.1); exercise the TAG_DONE path end to end.
    #[test]
    fn sender_learns_of_completion_when_notified() {
        let host = HostParams::default();
        let cfg = ViConfig {
            notify_sender: true,
            ..ViConfig::default()
        };
        let mut sim = Simulator::new();
        let net = transfer_fabric(&mut sim, 2, host, cfg);
        let (tx_slot, rx_slot) = (net.endpoint(0), net.endpoint(1));
        sim.schedule(SimTime::ZERO, tx_slot, StartTransfer { dst: 1, len: 4096 });
        sim.run();
        let tx = sim.actor::<ViSender>(tx_slot);
        let rx = sim.actor::<ViReceiver>(rx_slot);
        let t_rx = rx.done_at.expect("receiver finished");
        let t_tx = tx.done_at.expect("sender must see the DONE ack");
        assert!(t_tx > t_rx, "ack travels back after receipt");
        // The ack costs roughly one small-message latency.
        let gap = t_tx.since(t_rx).as_us_f64();
        assert!((1.0..8.0).contains(&gap), "ack gap {gap} us");
        assert_eq!(tx.transfers_completed, 1);
        assert_eq!(rx.transfers_completed, 1);
    }
}
