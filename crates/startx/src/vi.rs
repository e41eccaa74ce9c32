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
//!
//! ## One simulated transfer
//!
//! The exchange of §4.1 is "two separate VI-mode transfers in opposite
//! directions", so the DES model of a transfer is one leg of
//! [`ExchangeNode`]'s schedule: REQ → ACK → DATA stream → DONE. Figure 7
//! ([`measure_transfer`]) times a schedule of one leg up to the receiver's
//! copy-out; `hyades-comms` builds the exchange's schedules out of the
//! same legs.
//!
//! ## Recovery (fault-injection subsystem)
//!
//! The paper treated a failed CRC as catastrophic; here every leg of the
//! envelope survives corrupt *and* dropped packets:
//!
//! * corrupted packets are discarded at delivery (the payload is never
//!   trusted; the header/tag survives — the fault model flips payload
//!   bits only, mirroring Arctic's per-stage data CRC);
//! * the DATA stream is go-back-N: the receiver tracks the next expected
//!   sequence number and NAKs a corrupt data packet with `RETRY(seq)`;
//! * every blocking wait on the sender side (WaitAck, WaitDone) is
//!   guarded by a timeout with capped exponential backoff
//!   ([`hyades_des::fault::RetryPolicy`]): a missing ACK resends the REQ, a
//!   missing DONE sends a PROBE that the receiver answers with either
//!   `RETRY(next_seq)` (stream incomplete) or a resent DONE;
//! * each retransmitted control message travels under its own tag base
//!   (REQ2/ACK2/DONE2/PROBE/RETRY) so the static schedule proof,
//!   `hyades_comms::schedule::verify`, keeps per-channel tag uniqueness,
//!   and duplicates are idempotent by the dedup rules in `on_packet`.

use crate::host::HostParams;
use crate::msg::{bulk_packet, packet_bytes, packet_count};
use crate::node::{run_nodes, Endpoint, Guard, Timeout, Woken};
use crate::recovery::{RecoveryCounters, RecoveryEvent};
use hyades_arctic::network::Inject;
use hyades_arctic::packet::Packet;
use hyades_des::event::Payload;
use hyades_des::{Actor, Ctx, SimDuration, SimTime};
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;
use std::collections::{BTreeMap, BTreeSet};

/// VI transfer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ViConfig {
    /// Staging-copy chunk size (the paper copies "in several small chunks"
    /// to overlap copy and DMA).
    pub chunk_bytes: u64,
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

// Tag layout (Arctic's usr_tag is 11 bits, so everything must fit in
// 0x7FF): bits 8..10 select the message kind, bit 7 marks the recovery
// variant of that kind, bits 0..6 carry the round. Rounds are therefore
// capped at 127 — far beyond any torus schedule.
pub const TAG_REQ_BASE: u16 = 0x100; // + round
pub const TAG_ACK_BASE: u16 = 0x200;
pub const TAG_DONE_BASE: u16 = 0x300;
/// Recovery legs: each retransmitted message kind has its own tag base,
/// keeping per-channel tags unique for the static schedule proof.
pub const TAG_REQ2_BASE: u16 = 0x180; // resent REQ
pub const TAG_ACK2_BASE: u16 = 0x280; // resent ACK
pub const TAG_DONE2_BASE: u16 = 0x380; // resent DONE
pub const TAG_PROBE_BASE: u16 = 0x400; // sender -> receiver: how far did you get?
pub const TAG_RETRY_BASE: u16 = 0x480; // receiver -> sender: restart DATA at payload seq
const TAG_BASE_MASK: u16 = 0xF80;
const TAG_ROUND_MASK: u16 = 0x07F;
pub const TAG_DATA: u16 = 0x0FF;

/// What an exchange packet is, read off its tag. A message and its
/// resent twin (REQ/REQ2, ACK/ACK2, DONE/DONE2) are one kind: the
/// receiving side treats them alike, the dedup rules make the second
/// copy harmless.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TagKind {
    Req,
    Ack,
    Data,
    Done,
    Probe,
    Retry,
}

/// Decode a tag into its kind and round — the one place the tag layout
/// is read, by the node's dispatch and by the schedule graphs alike.
/// `None` is a tag the protocol does not speak. DATA carries no round
/// (its stream is sequenced inside the REQ…DONE envelope); it reads as 0.
pub fn classify(tag: u16) -> Option<(TagKind, usize)> {
    let kind = match tag & TAG_BASE_MASK {
        _ if tag == TAG_DATA => return Some((TagKind::Data, 0)),
        TAG_REQ_BASE | TAG_REQ2_BASE => TagKind::Req,
        TAG_ACK_BASE | TAG_ACK2_BASE => TagKind::Ack,
        TAG_DONE_BASE | TAG_DONE2_BASE => TagKind::Done,
        TAG_PROBE_BASE => TagKind::Probe,
        TAG_RETRY_BASE => TagKind::Retry,
        _ => return None,
    };
    Some((kind, usize::from(tag & TAG_ROUND_MASK)))
}

/// One pairing round of the exchange schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairPlan {
    pub partner: u16,
    pub bytes: u64,
    /// Whether this node initiates the first transfer of the pair.
    pub sends_first: bool,
}

/// The full per-node schedule: one pairing per round (None = idle round,
/// e.g. at non-periodic domain edges).
pub type Schedule = Vec<Option<PairPlan>>;

/// Per-node exchange state machine.
enum LegPhase {
    /// Waiting to begin the round (or for the partner's REQ).
    Start,
    /// Sender: REQ sent, waiting for ACK. Carries the leg parameters so
    /// later phases never have to re-derive the plan from the schedule.
    WaitAck { partner: u16, bytes: u64 },
    /// Sender: streaming the leg's `bytes`; packet `seq` goes next.
    Streaming { seq: u32, partner: u16, bytes: u64 },
    /// Sender: all packets emitted, waiting for DONE. Carries the leg
    /// parameters so a RETRY can rebuild the stream.
    WaitDone { partner: u16, bytes: u64 },
    /// Receiver: ACK sent, accumulating the `expected` bytes of DATA in
    /// go-back-N order.
    Receiving { next_seq: u32, expected: u64 },
}

/// Which half of the round we are in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Half {
    First,
    Second,
}

enum SelfEv {
    /// CPU finished processing a control message; proceed.
    Proceed,
    /// Emit the next data packet of the stream.
    Emit,
    /// Receiver finished the final copy-out; send DONE.
    RxDone,
}

/// One endpoint's run of a schedule of VI legs: in each round it sends
/// one leg to its partner and receives one back (the order set by
/// [`PairPlan::sends_first`]).
pub struct ExchangeNode {
    ep: Endpoint,
    cfg: ViConfig,
    schedule: Schedule,
    round: usize,
    half: Half,
    phase: LegPhase,
    /// REQs that arrived before this node entered the matching round.
    /// BTreeMap, not HashMap: hash-iteration order could differ between
    /// runs and leak into event ordering (lint rule `hash-iteration`).
    early_reqs: BTreeMap<u16, u64>,
    /// Rounds whose *receiving* leg this node has completed (a node
    /// receives in exactly one half of each paired round), so a late
    /// PROBE can be answered with a resent DONE.
    rx_done: BTreeSet<u16>,
    /// Guards every sender-side wait (WaitAck, WaitDone).
    guard: Guard,
    /// An ACK or DONE was accepted and the `Proceed` that acts on it is
    /// still in flight (`recv_cost` later). The phase stays
    /// `WaitAck`/`WaitDone` meanwhile, so without this a duplicate inside
    /// the window (ACK + ACK2, DONE + DONE2) would be accepted again and
    /// its second `Proceed` would land in whatever phase came next.
    proceeding: bool,
    pub recovery: RecoveryCounters,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
}

/// Kick event: run the exchange schedule.
pub struct StartExchange;

impl ExchangeNode {
    pub fn new(ep: Endpoint, schedule: Schedule, cfg: ViConfig) -> Self {
        assert!(
            schedule.len() <= TAG_ROUND_MASK as usize,
            "round index must fit the 7-bit tag field"
        );
        ExchangeNode {
            ep,
            cfg,
            schedule,
            round: 0,
            half: Half::First,
            phase: LegPhase::Start,
            early_reqs: BTreeMap::new(),
            rx_done: BTreeSet::new(),
            guard: Guard::default(),
            proceeding: false,
            recovery: RecoveryCounters::default(),
            started: None,
            finished: None,
        }
    }

    /// Accept the ACK/DONE the current wait was blocked on: disarm the
    /// timeout and act on it once the CPU has processed the message.
    fn accept_ctrl(&mut self, ctx: &mut Ctx<'_>) {
        self.guard.new_wait();
        self.proceeding = true;
        ctx.wake_after(self.ep.recv_cost(), SelfEv::Proceed);
    }

    fn plan(&self) -> Option<PairPlan> {
        self.schedule.get(self.round).copied().flatten()
    }

    /// Send the control message `base` of `round`, carrying `word`.
    fn send_ctrl(&self, ctx: &mut Ctx<'_>, dst: u16, base: u16, round: usize, word: u32) {
        self.ep.send(ctx, dst, base + round as u16, vec![word, 0]);
    }

    /// Am I the sender in the current half-round?
    fn i_send_now(&self, plan: &PairPlan) -> bool {
        match self.half {
            Half::First => plan.sends_first,
            Half::Second => !plan.sends_first,
        }
    }

    fn begin_half(&mut self, ctx: &mut Ctx<'_>) {
        self.guard.new_wait();
        let Some(plan) = self.plan() else {
            self.advance_round(ctx);
            return;
        };
        if self.i_send_now(&plan) {
            // Sender leg: negotiate.
            self.phase = LegPhase::WaitAck {
                partner: plan.partner,
                bytes: plan.bytes,
            };
            let word = plan.bytes as u32;
            self.send_ctrl(ctx, plan.partner, TAG_REQ_BASE, self.round, word);
            self.guard.arm(ctx);
        } else {
            // Receiver leg: if the REQ already arrived, answer it now.
            self.phase = LegPhase::Start;
            if let Some(bytes) = self.early_reqs.remove(&(self.round as u16)) {
                self.accept_req(bytes, ctx);
            }
        }
    }

    /// Take the REQ of the leg this node is about to receive; the ACK
    /// follows once the CPU has processed it.
    fn accept_req(&mut self, bytes: u64, ctx: &mut Ctx<'_>) {
        self.phase = LegPhase::Receiving {
            next_seq: 0,
            expected: bytes,
        };
        ctx.wake_after(self.ep.recv_cost(), SelfEv::Proceed);
    }

    fn advance_half(&mut self, ctx: &mut Ctx<'_>) {
        match self.half {
            Half::First => {
                self.half = Half::Second;
                self.begin_half(ctx);
            }
            Half::Second => self.advance_round(ctx),
        }
    }

    fn advance_round(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        self.half = Half::First;
        self.phase = LegPhase::Start;
        telemetry::count("comms.exchange", "rounds_completed", 1);
        if self.round >= self.schedule.len() {
            self.mark_finished(ctx);
        } else {
            self.begin_half(ctx);
        }
    }

    /// Record completion: span over the whole schedule plus flight crumbs.
    fn mark_finished(&mut self, ctx: &mut Ctx<'_>) {
        let (now, me) = (ctx.now(), u64::from(self.ep.me));
        self.finished = Some(now);
        if let Some(started) = self.started {
            telemetry::record_span(me, "comms", "exchange.node", started, now.since(started));
        }
        telemetry::count("comms.exchange", "nodes_finished", 1);
        flight::record(now, ctx.self_id(), "exchange.finished", me);
    }

    /// Enter the DATA stream of a `bytes` leg at packet `from_seq` (0, or
    /// the rewind point of a RETRY): stage the first chunk (halo gather
    /// into the VI region), kick the DMA, then emit paced packets. Later
    /// staging copies overlap the stream (copy bandwidth exceeds the PCI
    /// payload rate).
    fn start_stream(&mut self, ctx: &mut Ctx<'_>, partner: u16, bytes: u64, from_seq: u32) {
        self.phase = LegPhase::Streaming {
            seq: from_seq,
            partner,
            bytes,
        };
        let lead =
            self.ep.host.memcpy_time(bytes.min(self.cfg.chunk_bytes)) + self.ep.host.dma_kick;
        ctx.wake_after(lead, SelfEv::Emit);
    }

    /// The next DATA sequence number expected, if this node is receiving
    /// `round`'s leg right now.
    fn live_next_seq(&self, round: usize) -> Option<u32> {
        match &self.phase {
            LegPhase::Receiving { next_seq, .. } if self.round == round => Some(*next_seq),
            _ => None,
        }
    }
}

impl Actor for ExchangeNode {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        match Woken::<StartExchange, SelfEv>::from(ev) {
            Woken::Start(StartExchange) => {
                assert!(self.started.is_none(), "a node runs one exchange");
                self.started = Some(ctx.now());
                self.guard.new_wait();
                let me = u64::from(self.ep.me);
                flight::record(ctx.now(), ctx.self_id(), "exchange.start", me);
                if self.schedule.is_empty() {
                    self.mark_finished(ctx);
                } else {
                    self.begin_half(ctx);
                }
            }
            Woken::Packet(pkt) => self.on_packet(pkt, ctx),
            Woken::Timeout(t) => self.on_timeout(&t, ctx),
            Woken::Own(SelfEv::Proceed) => self.on_proceed(ctx),
            Woken::Own(SelfEv::Emit) => self.on_emit(ctx),
            Woken::Own(SelfEv::RxDone) => {
                // Send DONE to the sender, then move on. Remember the
                // completed receive so a late PROBE can be answered with a
                // resent DONE after this node has moved past the round.
                self.rx_done.insert(self.round as u16);
                if let Some(plan) = self.plan() {
                    self.send_ctrl(ctx, plan.partner, TAG_DONE_BASE, self.round, 0);
                }
                self.advance_half(ctx);
            }
        }
    }
}

impl ExchangeNode {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let kind = classify(pkt.usr_tag);
        if pkt.corrupted {
            // The CRC caught it: the payload is never trusted. A corrupt
            // DATA packet is NAKed immediately (the header's tag + src
            // survive — the fault model flips payload bits only) so the
            // sender can rewind without waiting for a PROBE round-trip.
            self.recovery.bump(RecoveryEvent::CorruptDiscard);
            if let (Some((TagKind::Data, _)), Some(next_seq)) =
                (kind, self.live_next_seq(self.round))
            {
                self.recovery.bump(RecoveryEvent::Retry);
                self.send_ctrl(ctx, pkt.src, TAG_RETRY_BASE, self.round, next_seq);
            }
            return;
        }
        let Some((kind, round)) = kind else {
            panic!("node {}: unexpected tag {:#x}", self.ep.me, pkt.usr_tag);
        };
        match kind {
            TagKind::Data => self.on_data(pkt.payload[0], ctx),
            TagKind::Req => {
                if self.rx_done.contains(&(round as u16)) {
                    // Receive already completed; DONE (or DONE2 via PROBE)
                    // covers the sender.
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                } else if let Some(next_seq) = self.live_next_seq(round) {
                    // Duplicate REQ for the leg we are already receiving:
                    // if no data arrived yet the original ACK may be lost,
                    // so resend it; otherwise the stream is live.
                    if next_seq == 0 {
                        self.recovery.bump(RecoveryEvent::AckResend);
                        self.send_ctrl(ctx, pkt.src, TAG_ACK2_BASE, round, 0);
                    } else {
                        self.recovery.bump(RecoveryEvent::StaleIgnored);
                    }
                } else {
                    let bytes = u64::from(pkt.payload[0]);
                    let here = self.round == round
                        && matches!(self.phase, LegPhase::Start)
                        && self.plan().is_some_and(|p| !self.i_send_now(&p));
                    if here {
                        self.accept_req(bytes, ctx);
                    } else {
                        self.early_reqs.insert(round as u16, bytes);
                    }
                }
            }
            TagKind::Ack | TagKind::Done => {
                let awaited = match self.phase {
                    LegPhase::WaitAck { .. } => kind == TagKind::Ack,
                    LegPhase::WaitDone { .. } => kind == TagKind::Done,
                    _ => false,
                };
                if awaited && self.round == round && !self.proceeding {
                    self.accept_ctrl(ctx);
                } else {
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                }
            }
            TagKind::Probe => {
                if self.rx_done.contains(&(round as u16)) {
                    self.recovery.bump(RecoveryEvent::DoneResend);
                    self.send_ctrl(ctx, pkt.src, TAG_DONE2_BASE, round, 0);
                } else if let Some(next_seq) = self.live_next_seq(round) {
                    // Stream incomplete: tell the sender where to restart.
                    self.recovery.bump(RecoveryEvent::Retry);
                    self.send_ctrl(ctx, pkt.src, TAG_RETRY_BASE, round, next_seq);
                } else {
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                }
            }
            TagKind::Retry => self.on_retry(round, pkt.payload[0], ctx),
        }
    }

    /// An intact DATA packet carrying sequence number `seq`.
    fn on_data(&mut self, seq: u32, ctx: &mut Ctx<'_>) {
        match &mut self.phase {
            LegPhase::Receiving { next_seq, expected } if seq == *next_seq => {
                *next_seq += 1;
                if u64::from(*next_seq) == packet_count(*expected) {
                    let tail = (*expected).min(self.cfg.chunk_bytes);
                    ctx.wake_after(self.ep.host.memcpy_time(tail), SelfEv::RxDone);
                }
            }
            // Go-back-N: anything out of order (a gap after a drop, or a
            // duplicate behind the rewind point) is ignored — the sender
            // re-emits from the NAKed sequence number — as is a duplicate
            // from a rewound stream after this leg closed.
            _ => self.recovery.bump(RecoveryEvent::StaleIgnored),
        }
    }

    /// A RETRY (go-back-N NAK) from the receiver: rewind the DATA stream
    /// to `restart`.
    fn on_retry(&mut self, round: usize, restart: u32, ctx: &mut Ctx<'_>) {
        match &mut self.phase {
            _ if self.round != round => {}
            // Live stream: pull the cursor back; the pending Emit chain
            // re-emits from there.
            LegPhase::Streaming { seq, .. } if restart < *seq => {
                *seq = restart;
                self.recovery.bump(RecoveryEvent::DataRewind);
                return;
            }
            // Stream already drained: re-enter it at the rewind point.
            // (Once the DONE is accepted the leg is over: a late NAK must
            // not reopen the stream under the pending `Proceed`.)
            LegPhase::WaitDone { partner, bytes }
                if !self.proceeding && u64::from(restart) < packet_count(*bytes) =>
            {
                let (partner, bytes) = (*partner, *bytes);
                self.guard.new_wait();
                self.recovery.bump(RecoveryEvent::DataRewind);
                self.start_stream(ctx, partner, bytes, restart);
                return;
            }
            _ => {}
        }
        self.recovery.bump(RecoveryEvent::StaleIgnored);
    }

    /// A guarded wait expired: resend the blocking control message with
    /// backoff. WaitAck resends the REQ (as REQ2); WaitDone probes the
    /// receiver, which answers RETRY (stream incomplete) or DONE2.
    fn on_timeout(&mut self, t: &Timeout, ctx: &mut Ctx<'_>) {
        if self.guard.is_stale(t) {
            return;
        }
        use RecoveryEvent::{Probe, ReqResend};
        let (partner, word, base, crumb, ev, want) = match self.phase {
            LegPhase::WaitAck { partner, bytes } => {
                let word = bytes as u32;
                (
                    partner,
                    word,
                    TAG_REQ2_BASE,
                    "exchange.req2",
                    ReqResend,
                    "ACK",
                )
            }
            LegPhase::WaitDone { partner, .. } => {
                (partner, 0, TAG_PROBE_BASE, "exchange.probe", Probe, "DONE")
            }
            _ => return,
        };
        self.guard
            .retry(&mut self.recovery, self.ep.me, self.round, want);
        self.recovery.bump(ev);
        let me = u64::from(self.ep.me);
        flight::record(ctx.now(), ctx.self_id(), crumb, me);
        self.send_ctrl(ctx, partner, base, self.round, word);
        self.guard.arm(ctx);
    }

    fn on_proceed(&mut self, ctx: &mut Ctx<'_>) {
        self.proceeding = false;
        match self.phase {
            LegPhase::Receiving { .. } => {
                // REQ processed: post RX descriptors, then acknowledge.
                if let Some(plan) = self.plan() {
                    let tag = TAG_ACK_BASE + self.round as u16;
                    let kick = self.ep.host.dma_kick;
                    self.ep.send_after(ctx, kick, plan.partner, tag, vec![0, 0]);
                }
            }
            // ACK processed: start streaming.
            LegPhase::WaitAck { partner, bytes } => self.start_stream(ctx, partner, bytes, 0),
            // DONE processed: this half-round is complete.
            LegPhase::WaitDone { .. } => self.advance_half(ctx),
            _ => panic!("node {}: Proceed in unexpected phase", self.ep.me),
        }
    }

    fn on_emit(&mut self, ctx: &mut Ctx<'_>) {
        let LegPhase::Streaming {
            ref mut seq,
            partner,
            bytes,
        } = self.phase
        else {
            panic!("node {}: Emit outside streaming", self.ep.me);
        };
        let packet = packet_bytes(bytes, *seq);
        let pkt = bulk_packet(self.ep.me, partner, TAG_DATA, *seq, packet);
        *seq += 1;
        let more = u64::from(*seq) < packet_count(bytes);
        ctx.send_now(self.ep.tx_port, Inject(pkt));
        if more {
            ctx.wake_after(self.ep.host.vi_dma_time(packet), SelfEv::Emit);
        } else {
            self.phase = LegPhase::WaitDone { partner, bytes };
            self.guard.new_wait();
            self.guard.arm(ctx);
        }
    }
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

/// An [`ExchangeNode`] that ends the simulation at its first copy-out:
/// a one-way transfer is over once the receiver holds the data, so the
/// round's reverse leg is never simulated.
struct CopyOut {
    node: ExchangeNode,
    at: Option<SimTime>,
}

impl Actor for CopyOut {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        self.node.on_event(ev, ctx);
        if self.at.is_none() && !self.node.rx_done.is_empty() {
            self.at = Some(ctx.now());
            ctx.halt();
        }
    }
}

/// Run one VI transfer of `len` bytes between endpoints 0 → 1 of a
/// `n_endpoints` fabric — the first leg of a one-round exchange schedule
/// — and measure the user-to-user time (start of send call to receiver's
/// data being copied out).
pub fn measure_transfer(
    host: HostParams,
    cfg: ViConfig,
    n_endpoints: u16,
    len: u64,
) -> TransferMeasurement {
    let leg = |partner, sends_first| {
        vec![Some(PairPlan {
            partner,
            bytes: len,
            sends_first,
        })]
    };
    let mut copied_out = None;
    run_nodes(
        host,
        n_endpoints,
        None,
        |ep| {
            let schedule = match ep.me {
                0 => leg(1, true),
                1 => leg(0, false),
                _ => Vec::new(),
            };
            CopyOut {
                node: ExchangeNode::new(ep, schedule, cfg),
                at: None,
            }
        },
        |_| StartExchange,
        |e, c: &CopyOut| {
            if e == 1 {
                copied_out = c.at;
            }
        },
    );
    let done = copied_out.unwrap_or_else(|| panic!("transfer did not complete"));
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

#[cfg(test)]
mod tests {
    use super::*;
    use hyades_des::fault::FaultPlan;

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
                (0.98..1.05).contains(&ratio),
                "len {len}: simulated {} vs predicted {predicted} (ratio {ratio:.3})",
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

    /// The exchange schedule of a periodic 2 × 2 tile grid with `bytes`
    /// legs (`hyades-comms`'s `torus_schedule(2, 2, bytes)`): the x pairs,
    /// then the y pairs, each pair once in either sending order.
    fn two_by_two(bytes: u64) -> Vec<Schedule> {
        (0..4u16)
            .map(|me| {
                (0..4)
                    .map(|round| {
                        let axis = 1 << (round / 2);
                        Some(PairPlan {
                            partner: me ^ axis,
                            bytes,
                            sends_first: (me & axis == 0) == (round % 2 == 0),
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// An [`ExchangeNode`] that logs the round and sequence number of
    /// every DATA packet it accepts.
    struct Spy {
        node: ExchangeNode,
        accepted: Vec<(usize, u32)>,
    }

    impl Actor for Spy {
        fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
            let before = self.node.live_next_seq(self.node.round);
            self.node.on_event(ev, ctx);
            // The cursor moves on an accepted DATA packet and on nothing
            // else while the leg is open.
            if let (Some(seq), Some(after)) = (before, self.node.live_next_seq(self.node.round)) {
                if after != seq {
                    assert_eq!(after, seq + 1);
                    self.accepted.push((self.node.round, seq));
                }
            }
        }
    }

    /// Where a node ends: the rounds it completed a receiving leg in, and
    /// its log of accepted packets as (round, sequence number).
    type EndState = (BTreeSet<u16>, Vec<(usize, u32)>);

    /// Every node of a 2 × 2 exchange of `leg_bytes` legs, run under
    /// `plan`.
    fn spy_two_by_two(plan: Option<&FaultPlan>, leg_bytes: u64) -> Vec<EndState> {
        let mut schedules = two_by_two(leg_bytes);
        let mut nodes = Vec::new();
        run_nodes(
            HostParams::default(),
            4,
            plan,
            |ep| {
                let schedule = std::mem::take(&mut schedules[usize::from(ep.me)]);
                Spy {
                    node: ExchangeNode::new(ep, schedule, ViConfig::default()),
                    accepted: Vec::new(),
                }
            },
            |_| StartExchange,
            |e, spy: &Spy| {
                assert!(spy.node.finished.is_some(), "node {e} never finished");
                nodes.push((spy.node.rx_done.clone(), spy.accepted.clone()));
            },
        );
        nodes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Go-back-N under random fault weather: every receiving leg of
        /// every node accepts each of its packets exactly once, in
        /// strictly increasing sequence order, and every node ends in the
        /// state the uninterrupted run ends in — the same completed
        /// receives (`rx_done`) and, round by round, the same accepted
        /// packets.
        #[test]
        fn data_is_accepted_in_sequence_order_under_random_faults(
            seed in 0u64..1 << 32,
            windows in proptest::collection::vec((0.0f64..600.0, 1.0f64..200.0, 0.0f64..0.3, 0.0f64..0.3), 1..=3),
            stall in (0u16..4, 0.0f64..300.0, 1.0f64..200.0),
            leg_bytes in 1u64..=4096,
        ) {
            let mut plan = FaultPlan::new(seed).niu_stall(stall.0, stall.1, stall.1 + stall.2);
            for (from, len, corrupt, drop) in windows {
                plan = plan.link_window(from, from + len, corrupt, drop);
            }
            let faulty = spy_two_by_two(Some(&plan), leg_bytes);
            let clean = spy_two_by_two(None, leg_bytes);
            // One receiving leg per round, `packets` packets each.
            let packets = packet_count(leg_bytes) as u32;
            let in_order: Vec<(usize, u32)> = (0..4)
                .flat_map(|round| (0..packets).map(move |seq| (round, seq)))
                .collect();
            let all_rounds: BTreeSet<u16> = (0..4).collect();
            for (e, (node, uninterrupted)) in faulty.iter().zip(&clean).enumerate() {
                assert_eq!(uninterrupted, &(all_rounds.clone(), in_order.clone()), "node {e}");
                assert_eq!(node, uninterrupted, "node {e}");
            }
        }
    }
}
