//! The optimized exchange primitive (§4.1).
//!
//! An exchange brings halo regions into a consistent state. On Hyades it is
//! implemented as *two separate VI-mode transfers in opposite directions*,
//! carried out sequentially because a single transfer alone saturates the
//! PCI bus. Each transfer pays a one-time ~8.6 µs negotiation; data then
//! streams at 110 MByte/s with staging copies overlapped with DMA.
//!
//! A full exchange pairs each node with its grid neighbors in a fixed
//! schedule (an edge coloring of the tile graph): in each round every node
//! belongs to exactly one pair, the designated member sends first, then the
//! roles reverse. A 4-neighbor tile therefore performs 8 sequential
//! transfer legs per field.
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
//!   ([`hyades_fault::RetryPolicy`]): a missing ACK resends the REQ, a
//!   missing DONE sends a PROBE that the receiver answers with either
//!   `RETRY(next_seq)` (stream incomplete) or a resent DONE;
//! * each retransmitted control message travels under its own tag base
//!   (REQ2/ACK2/DONE2/PROBE/RETRY) so the static schedule proof in
//!   `lint::schedule` keeps per-channel tag uniqueness, and duplicates
//!   are idempotent by the dedup rules in `on_packet`.

use crate::node::{run_nodes, Endpoint, Guard, Timeout, Woken};
use crate::recovery::{RecoveryCounters, RecoveryEvent};
use hyades_arctic::network::Inject;
use hyades_arctic::packet::Packet;
use hyades_des::event::Payload;
use hyades_des::{Actor, Ctx, SimDuration, SimTime};
use hyades_fault::FaultPlan;
use hyades_startx::msg::{bulk_packet, packet_bytes, packet_count};
use hyades_startx::HostParams;
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;
use std::collections::{BTreeMap, BTreeSet};

// Tag layout (Arctic's usr_tag is 11 bits, so everything must fit in
// 0x7FF): bits 8..10 select the message kind, bit 7 marks the recovery
// variant of that kind, bits 0..6 carry the round. Rounds are therefore
// capped at 127 — far beyond any torus schedule.
pub(crate) const TAG_REQ_BASE: u16 = 0x100; // + round
pub(crate) const TAG_ACK_BASE: u16 = 0x200;
pub(crate) const TAG_DONE_BASE: u16 = 0x300;
/// Recovery legs: each retransmitted message kind has its own tag base,
/// keeping per-channel tags unique for the static schedule proof.
pub(crate) const TAG_REQ2_BASE: u16 = 0x180; // resent REQ
pub(crate) const TAG_ACK2_BASE: u16 = 0x280; // resent ACK
pub(crate) const TAG_DONE2_BASE: u16 = 0x380; // resent DONE
pub(crate) const TAG_PROBE_BASE: u16 = 0x400; // sender -> receiver: how far did you get?
pub(crate) const TAG_RETRY_BASE: u16 = 0x480; // receiver -> sender: restart DATA at payload seq
const TAG_BASE_MASK: u16 = 0xF80;
const TAG_ROUND_MASK: u16 = 0x07F;
pub(crate) const TAG_DATA: u16 = 0x0FF;

/// What an exchange packet is, read off its tag. A message and its
/// resent twin (REQ/REQ2, ACK/ACK2, DONE/DONE2) are one kind: the
/// receiving side treats them alike, the dedup rules make the second
/// copy harmless.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TagKind {
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
pub(crate) fn classify(tag: u16) -> Option<(TagKind, usize)> {
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

/// Staging chunk size for copy/DMA overlap.
const CHUNK: u64 = 512;

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

/// Build the edge-colored schedule for a periodic `px × py` tile grid where
/// every leg moves `bytes`. Rounds: x-pairs at even x, x-pairs at odd x,
/// then the same in y (skipped when the dimension is 1).
pub fn torus_schedule(px: u16, py: u16, bytes: u64) -> Vec<Schedule> {
    for (extent, name) in [(px, "px"), (py, "py")] {
        let pairable = extent == 1 || (extent >= 2 && extent.is_multiple_of(2));
        assert!(pairable, "{name} must be even (or 1) for pairing");
    }
    let n = usize::from(px * py);
    let mut schedules: Vec<Schedule> = vec![Vec::new(); n];
    // Pair along x, then along y: (tiles along the pairing axis, lanes
    // across it, the rank stride of each).
    for (len, lanes, step, lane_step) in [(px, py, 1, px), (py, px, px, 1)] {
        if len < 2 {
            continue;
        }
        let rank = |at: u16, lane: u16| at * step + lane * lane_step;
        // With two tiles along the axis both colors map to the same single
        // pair; the second round stays so both directions of halo move
        // (east and west edges are distinct data).
        for parity in 0..2u16 {
            let mut round: Vec<Option<PairPlan>> = vec![None; n];
            for lane in 0..lanes {
                for at in (parity..len).step_by(2) {
                    let (a, b) = (rank(at, lane), rank((at + 1) % len, lane));
                    let plan = |partner, sends_first| PairPlan {
                        partner,
                        bytes,
                        sends_first,
                    };
                    round[usize::from(a)] = Some(plan(b, true));
                    round[usize::from(b)] = Some(plan(a, false));
                }
            }
            for (s, r) in schedules.iter_mut().zip(round) {
                s.push(r);
            }
        }
    }
    schedules
}

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

pub struct ExchangeNode {
    ep: Endpoint,
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
    pub(crate) fn new(ep: Endpoint, schedule: Schedule) -> Self {
        assert!(
            schedule.len() <= TAG_ROUND_MASK as usize,
            "round index must fit the 7-bit tag field"
        );
        ExchangeNode {
            ep,
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
        let lead = self.ep.host.memcpy_time(bytes.min(CHUNK)) + self.ep.host.dma_kick;
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
                    let tail = (*expected).min(CHUNK);
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

/// Measurement: run one exchange over a `px × py` periodic tile grid with
/// `leg_bytes` per transfer leg; returns the time until the last node
/// finishes its schedule.
pub fn measure_exchange(host: HostParams, px: u16, py: u16, leg_bytes: u64) -> SimDuration {
    measure_exchange_inner(host, px, py, leg_bytes, None).0
}

/// Measurement under a [`FaultPlan`]: same exchange, but with the plan's
/// link-fault windows and NIU stalls installed on every port. Returns the
/// completion time (recovery is charged to simulated time) and the summed
/// per-node recovery counters.
pub fn measure_exchange_faulty(
    host: HostParams,
    px: u16,
    py: u16,
    leg_bytes: u64,
    plan: &FaultPlan,
) -> (SimDuration, RecoveryCounters) {
    measure_exchange_inner(host, px, py, leg_bytes, Some(plan))
}

/// Builds each endpoint's node of a `px × py` exchange, with that
/// endpoint's own schedule.
fn exchange_nodes(px: u16, py: u16, leg_bytes: u64) -> impl FnMut(Endpoint) -> ExchangeNode {
    let mut schedules = torus_schedule(px, py, leg_bytes);
    move |ep| {
        let schedule = std::mem::take(&mut schedules[usize::from(ep.me)]);
        ExchangeNode::new(ep, schedule)
    }
}

fn measure_exchange_inner(
    host: HostParams,
    px: u16,
    py: u16,
    leg_bytes: u64,
    plan: Option<&FaultPlan>,
) -> (SimDuration, RecoveryCounters) {
    let mut last = SimTime::ZERO;
    let mut recovery = RecoveryCounters::default();
    run_nodes(
        host,
        px * py,
        plan,
        exchange_nodes(px, py, leg_bytes),
        |_| StartExchange,
        |e, node: &ExchangeNode| {
            let f = node.finished;
            last = last.max(f.unwrap_or_else(|| panic!("node {e} never finished its exchange")));
            recovery.merge(&node.recovery);
        },
    );
    (last.since(SimTime::ZERO), recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_by_two_has_eight_legs() {
        // The 8-endpoint isomorph grid: 4 rounds × 2 legs each = 8
        // sequential transfers per node (4 neighbors).
        let s = torus_schedule(4, 2, 256);
        assert_eq!(s[0].len(), 4);
        assert!(s.iter().all(|sched| sched.iter().all(|r| r.is_some())));
    }

    #[test]
    fn ds_exchange_latency_matches_paper_order() {
        // DS shape: 32×32 tile, halo 1, one level, 8 B elements → 256 B per
        // leg, 8 legs. Paper (Figure 11): texch_xy = 115 µs.
        let t = measure_exchange(HostParams::default(), 4, 2, 256);
        let us = t.as_us_f64();
        assert!(
            (80.0..190.0).contains(&us),
            "DS exchange {us} µs vs paper 115 µs"
        );
    }

    #[test]
    fn ps_exchange_latency_scales_with_block() {
        // PS atmosphere shape: halo 3 × 5 levels → 3840 B per leg.
        let ps = measure_exchange(HostParams::default(), 4, 2, 3840);
        let ds = measure_exchange(HostParams::default(), 4, 2, 256);
        assert!(ps > ds * 2, "PS exchange should dominate DS: {ps} vs {ds}");
        // Streaming bound: 8 legs × 3840 B at 110 MB/s ≈ 279 µs of pure
        // data time; with per-leg overheads expect 380–700 µs.
        let us = ps.as_us_f64();
        assert!((330.0..800.0).contains(&us), "PS exchange {us} µs");
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let clean = measure_exchange(HostParams::default(), 4, 2, 1024);
        let (t, r) =
            measure_exchange_faulty(HostParams::default(), 4, 2, 1024, &FaultPlan::new(0xEC));
        assert_eq!(t, clean);
        assert_eq!(r, RecoveryCounters::default());
    }

    #[test]
    fn faulty_exchange_recovers_and_is_deterministic() {
        // Aggressive corrupt+drop window over the opening legs plus an NIU
        // stall: the protocol must still complete every schedule, and do it
        // identically on a re-run.
        let plan = FaultPlan::new(0xEC)
            .link_window(0.0, 120.0, 0.3, 0.15)
            .niu_stall(1, 10.0, 60.0);
        let (t, r) = measure_exchange_faulty(HostParams::default(), 4, 2, 1024, &plan);
        let clean = measure_exchange(HostParams::default(), 4, 2, 1024);
        assert!(
            r.corrupt_discarded > 0,
            "corruption window never hit a packet: {r:?}"
        );
        assert!(
            r.total_retransmits() > 0,
            "recovery never retransmitted: {r:?}"
        );
        assert!(t > clean, "recovery must cost simulated time");
        let (t2, r2) = measure_exchange_faulty(HostParams::default(), 4, 2, 1024, &plan);
        assert_eq!(t, t2, "faulty run must be deterministic");
        assert_eq!(r, r2, "recovery counters must be deterministic");
    }

    #[test]
    fn drop_only_window_recovers_via_timeouts() {
        // No corruption (no NAK fast path): dropped packets are recovered
        // purely by the timeout ladder (REQ2 / PROBE / RETRY).
        let plan = FaultPlan::new(0x0D).link_window(0.0, 80.0, 0.0, 0.4);
        let (t, r) = measure_exchange_faulty(HostParams::default(), 2, 2, 512, &plan);
        assert!(t.as_us_f64() > 0.0);
        if r.timeouts == 0 {
            // The seed could in principle drop nothing; make sure that's
            // actually why.
            assert_eq!(r.total_retransmits(), 0);
        } else {
            assert!(
                r.req_resends + r.probes > 0,
                "timeouts without resends: {r:?}"
            );
        }
    }

    #[test]
    fn exchange_time_grows_linearly_in_bytes_past_overhead() {
        let t1 = measure_exchange(HostParams::default(), 4, 2, 4096).as_us_f64();
        let t2 = measure_exchange(HostParams::default(), 4, 2, 8192).as_us_f64();
        let t3 = measure_exchange(HostParams::default(), 4, 2, 16384).as_us_f64();
        let d1 = t2 - t1;
        let d2 = t3 - t2;
        assert!(
            (d2 / (2.0 * d1) - 1.0).abs() < 0.25,
            "non-linear growth: {t1} {t2} {t3}"
        );
    }

    /// An [`ExchangeNode`] that logs the sequence number of every DATA
    /// packet it accepts.
    struct Spy {
        node: ExchangeNode,
        accepted: Vec<u32>,
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
                    self.accepted.push(seq);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Go-back-N under random fault weather: every receiving leg of
        /// every node accepts each of its packets exactly once, in
        /// strictly increasing sequence order — what it would have
        /// accepted from an uninterrupted stream.
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
            let mut make = exchange_nodes(2, 2, leg_bytes);
            run_nodes(
                HostParams::default(),
                4,
                Some(&plan),
                |ep| Spy {
                    node: make(ep),
                    accepted: Vec::new(),
                },
                |_| StartExchange,
                |e, spy: &Spy| {
                    assert!(spy.node.finished.is_some(), "node {e} never finished");
                    // One receiving leg per round, `packets` packets each.
                    let packets = packet_count(leg_bytes) as usize;
                    let in_order: Vec<u32> = (0..spy.node.schedule.len() * packets)
                        .map(|i| (i % packets) as u32)
                        .collect();
                    assert_eq!(spy.accepted, in_order, "node {e}");
                },
            );
        }
    }
}
