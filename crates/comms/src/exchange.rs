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

use crate::recovery::{RecoveryCounters, RecoveryEvent};
use hyades_arctic::network::{ArcticNetwork, Delivered, Inject};
use hyades_arctic::packet::{Packet, Priority};
use hyades_des::event::Payload;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use hyades_fault::{FaultPlan, RetryPolicy};
use hyades_startx::msg::{bulk_packet, segment};
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
pub(crate) const TAG_BASE_MASK: u16 = 0xF80;
const TAG_ROUND_MASK: u16 = 0x07F;
pub(crate) const TAG_DATA: u16 = 0x0FF;

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
    assert!(px >= 1 && py >= 1);
    assert!(
        px == 1 || px.is_multiple_of(2),
        "px must be even (or 1) for pairing"
    );
    assert!(
        py == 1 || py.is_multiple_of(2),
        "py must be even (or 1) for pairing"
    );
    let n = px * py;
    let rank = |x: u16, y: u16| y * px + x;
    let mut schedules: Vec<Schedule> = vec![Vec::new(); n as usize];
    let push_round = |pairs: &[(u16, u16)], schedules: &mut Vec<Schedule>| {
        let mut round: Vec<Option<PairPlan>> = vec![None; n as usize];
        for &(a, b) in pairs {
            round[a as usize] = Some(PairPlan {
                partner: b,
                bytes,
                sends_first: true,
            });
            round[b as usize] = Some(PairPlan {
                partner: a,
                bytes,
                sends_first: false,
            });
        }
        for (s, r) in schedules.iter_mut().zip(round) {
            s.push(r);
        }
    };
    for parity in 0..2u16 {
        if px < 2 {
            break;
        }
        let mut pairs = Vec::new();
        for y in 0..py {
            for x in (parity..px).step_by(2) {
                let nx = (x + 1) % px;
                if px == 2 && parity == 1 {
                    // Two columns: both colors map to the same single pair;
                    // keep the second round so both directions of halo move
                    // (east and west edges are distinct data).
                }
                pairs.push((rank(x, y), rank(nx, y)));
            }
        }
        push_round(&pairs, &mut schedules);
    }
    for parity in 0..2u16 {
        if py < 2 {
            break;
        }
        let mut pairs = Vec::new();
        for x in 0..px {
            for y in (parity..py).step_by(2) {
                let ny = (y + 1) % py;
                pairs.push((rank(x, y), rank(x, ny)));
            }
        }
        push_round(&pairs, &mut schedules);
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
    /// Sender: streaming packets (`left` packets remain).
    Streaming {
        queue: Vec<u64>,
        seq: u32,
        partner: u16,
    },
    /// Sender: all packets emitted, waiting for DONE. Carries the leg
    /// parameters so a RETRY can rebuild the stream.
    WaitDone { partner: u16, bytes: u64 },
    /// Receiver: ACK sent, accumulating DATA in go-back-N order
    /// (`queue[next_seq]` is the next packet's byte count).
    Receiving {
        queue: Vec<u64>,
        next_seq: u32,
        expected: u64,
        got: u64,
    },
}

/// Which half of the round we are in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Half {
    First,
    Second,
    DoneRound,
}

enum SelfEv {
    /// CPU finished processing a control message; proceed.
    Proceed,
    /// Emit the next data packet of the stream.
    Emit,
    /// Receiver finished the final copy-out; send DONE.
    RxDone,
    /// A guarded wait timed out. Stale timeouts (epoch mismatch) are
    /// no-ops.
    Timeout { epoch: u64 },
}

pub struct ExchangeNode {
    pub me: u16,
    host: HostParams,
    tx_port: ActorId,
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
    /// Retransmit policy guarding every sender-side wait.
    policy: RetryPolicy,
    /// Bumped on every state transition; pending timeouts carrying an
    /// older epoch are stale.
    epoch: u64,
    /// Retries of the currently guarded wait (drives the backoff).
    attempts: u32,
    /// An ACK or DONE was accepted and the `Proceed` that acts on it is
    /// still in flight (`ctrl_cost_rx` later). The phase stays
    /// `WaitAck`/`WaitDone` meanwhile, so without this a duplicate inside
    /// the window (ACK + ACK2, DONE + DONE2) would be accepted again and
    /// its second `Proceed` would land in whatever phase came next.
    proceeding: bool,
    pub recovery: RecoveryCounters,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
    /// Staging chunk size for copy/DMA overlap.
    chunk: u64,
}

/// Kick event: run the exchange schedule.
pub struct StartExchange;

impl ExchangeNode {
    pub fn new(me: u16, host: HostParams, tx_port: ActorId, schedule: Schedule) -> Self {
        assert!(
            schedule.len() <= TAG_ROUND_MASK as usize,
            "round index must fit the 7-bit tag field"
        );
        ExchangeNode {
            me,
            host,
            tx_port,
            schedule,
            round: 0,
            half: Half::First,
            phase: LegPhase::Start,
            early_reqs: BTreeMap::new(),
            rx_done: BTreeSet::new(),
            policy: RetryPolicy::default(),
            epoch: 0,
            attempts: 0,
            proceeding: false,
            recovery: RecoveryCounters::default(),
            started: None,
            finished: None,
            chunk: 512,
        }
    }

    /// Override the retransmit policy (tests tighten the timeout).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arm the timeout guarding the current wait; `attempts` picks the
    /// backoff step.
    fn arm_timeout(&mut self, ctx: &mut Ctx<'_>) {
        let wait = self.policy.arm(self.attempts);
        let epoch = self.epoch;
        ctx.wake_after(wait, SelfEv::Timeout { epoch });
    }

    /// Invalidate pending timeouts and reset the backoff ladder.
    fn new_wait(&mut self) {
        self.epoch += 1;
        self.attempts = 0;
    }

    /// Accept the ACK/DONE the current wait was blocked on: disarm the
    /// timeout and act on it once the CPU has processed the message.
    fn accept_ctrl(&mut self, ctx: &mut Ctx<'_>) {
        self.new_wait();
        self.proceeding = true;
        ctx.wake_after(self.ctrl_cost_rx(), SelfEv::Proceed);
    }

    fn plan(&self) -> Option<PairPlan> {
        self.schedule.get(self.round).copied().flatten()
    }

    fn ctrl_cost_rx(&self) -> SimDuration {
        self.host.status_poll + self.host.pio.recv_overhead(8)
    }

    fn send_ctrl(&self, ctx: &mut Ctx<'_>, dst: u16, tag: u16, word: u32) {
        let os = self.host.pio.send_overhead(8);
        let pkt = Packet::new(self.me, dst, Priority::High, tag, vec![word, 0]);
        ctx.send_after(os, self.tx_port, Inject(pkt));
    }

    /// Am I the sender in the current half-round?
    fn i_send_now(&self, plan: &PairPlan) -> bool {
        match self.half {
            Half::First => plan.sends_first,
            Half::Second => !plan.sends_first,
            Half::DoneRound => false,
        }
    }

    fn begin_half(&mut self, ctx: &mut Ctx<'_>) {
        self.new_wait();
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
            self.send_ctrl(
                ctx,
                plan.partner,
                TAG_REQ_BASE + self.round as u16,
                plan.bytes as u32,
            );
            self.arm_timeout(ctx);
        } else {
            // Receiver leg: if the REQ already arrived, answer it now.
            self.phase = LegPhase::Start;
            if let Some(bytes) = self.early_reqs.remove(&(self.round as u16)) {
                let cost = self.ctrl_cost_rx();
                self.accept_req(bytes);
                ctx.wake_after(cost, SelfEv::Proceed);
            }
        }
    }

    fn accept_req(&mut self, bytes: u64) {
        self.phase = LegPhase::Receiving {
            queue: segment(bytes),
            next_seq: 0,
            expected: bytes,
            got: 0,
        };
    }

    fn advance_half(&mut self, ctx: &mut Ctx<'_>) {
        match self.half {
            Half::First => {
                self.half = Half::Second;
                self.begin_half(ctx);
            }
            Half::Second => {
                self.half = Half::DoneRound;
                self.advance_round(ctx);
            }
            Half::DoneRound => unreachable!(),
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
        let now = ctx.now();
        self.finished = Some(now);
        if let Some(started) = self.started {
            telemetry::record_span(
                u64::from(self.me),
                "comms",
                "exchange.node",
                started,
                now.since(started),
            );
        }
        telemetry::count("comms.exchange", "nodes_finished", 1);
        flight::record(now, ctx.self_id(), "exchange.finished", u64::from(self.me));
    }

    fn start_stream(&mut self, ctx: &mut Ctx<'_>, partner: u16, bytes: u64) {
        // Stage the first chunk (halo gather into the VI region), kick the
        // DMA, then emit paced packets. Later staging copies overlap the
        // stream (copy bandwidth exceeds the PCI payload rate).
        let first = bytes.min(self.chunk);
        let queue = segment(bytes);
        self.phase = LegPhase::Streaming {
            queue,
            seq: 0,
            partner,
        };
        let lead = self.host.memcpy_time(first) + self.host.dma_kick;
        ctx.wake_after(lead, SelfEv::Emit);
    }
}

impl Actor for ExchangeNode {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<StartExchange>() {
            Ok(_) => {
                self.started = Some(ctx.now());
                self.round = 0;
                self.half = Half::First;
                self.phase = LegPhase::Start;
                self.early_reqs.clear();
                self.rx_done.clear();
                self.proceeding = false;
                self.new_wait();
                flight::record(
                    ctx.now(),
                    ctx.self_id(),
                    "exchange.start",
                    u64::from(self.me),
                );
                if self.schedule.is_empty() {
                    self.mark_finished(ctx);
                } else {
                    self.begin_half(ctx);
                }
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<Delivered>() {
            Ok(del) => {
                self.on_packet(del.pkt, ctx);
                return;
            }
            Err(e) => e,
        };
        let Ok(ev) = ev.downcast::<SelfEv>() else {
            panic!("node {}: unexpected event type", self.me);
        };
        match *ev {
            SelfEv::Proceed => self.on_proceed(ctx),
            SelfEv::Emit => self.on_emit(ctx),
            SelfEv::RxDone => {
                // Send DONE to the sender, then move on. Remember the
                // completed receive so a late PROBE can be answered with a
                // resent DONE after this node has moved past the round.
                self.rx_done.insert(self.round as u16);
                if let Some(plan) = self.plan() {
                    self.send_ctrl(ctx, plan.partner, TAG_DONE_BASE + self.round as u16, 0);
                }
                self.advance_half(ctx);
            }
            SelfEv::Timeout { epoch } => self.on_timeout(epoch, ctx),
        }
    }
}

impl ExchangeNode {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let tag = pkt.usr_tag;
        if pkt.corrupted {
            // The CRC caught it: the payload is never trusted. A corrupt
            // DATA packet is NAKed immediately (the header's tag + src
            // survive — the fault model flips payload bits only) so the
            // sender can rewind without waiting for a PROBE round-trip.
            self.recovery.bump(RecoveryEvent::CorruptDiscard);
            if tag == TAG_DATA {
                let nak = match &self.phase {
                    LegPhase::Receiving { next_seq, .. } => Some(*next_seq),
                    _ => None,
                };
                if let Some(next_seq) = nak {
                    self.recovery.bump(RecoveryEvent::Retry);
                    self.send_ctrl(ctx, pkt.src, TAG_RETRY_BASE + self.round as u16, next_seq);
                }
            }
            return;
        }
        if tag == TAG_DATA {
            let LegPhase::Receiving {
                queue,
                next_seq,
                expected,
                got,
            } = &mut self.phase
            else {
                // A duplicate from a rewound stream after this leg closed.
                self.recovery.bump(RecoveryEvent::StaleIgnored);
                return;
            };
            let seq = pkt.payload[0];
            if seq != *next_seq {
                // Go-back-N: anything out of order (a gap after a drop, or
                // a duplicate behind the rewind point) is ignored; the
                // sender re-emits from the NAKed sequence number.
                self.recovery.bump(RecoveryEvent::StaleIgnored);
                return;
            }
            *got += queue[seq as usize].min(*expected - *got);
            *next_seq += 1;
            if *got >= *expected {
                let tail = (*expected).min(self.chunk);
                let cost = self.host.memcpy_time(tail);
                ctx.wake_after(cost, SelfEv::RxDone);
            }
            return;
        }
        let (base, round) = (tag & TAG_BASE_MASK, (tag & TAG_ROUND_MASK) as usize);
        match base {
            TAG_REQ_BASE | TAG_REQ2_BASE => {
                let bytes = u64::from(pkt.payload[0]);
                if self.rx_done.contains(&(round as u16)) {
                    // Receive already completed; DONE (or DONE2 via PROBE)
                    // covers the sender.
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                    return;
                }
                let live_next_seq = match &self.phase {
                    LegPhase::Receiving { next_seq, .. } if self.round == round => Some(*next_seq),
                    _ => None,
                };
                if let Some(next_seq) = live_next_seq {
                    // Duplicate REQ for the leg we are already receiving:
                    // if no data arrived yet the original ACK may be lost,
                    // so resend it; otherwise the stream is live.
                    if next_seq == 0 {
                        self.recovery.bump(RecoveryEvent::AckResend);
                        self.send_ctrl(ctx, pkt.src, TAG_ACK2_BASE + round as u16, 0);
                    } else {
                        self.recovery.bump(RecoveryEvent::StaleIgnored);
                    }
                    return;
                }
                let here = self.round == round
                    && matches!(self.phase, LegPhase::Start)
                    && self.plan().map(|p| !self.i_send_now(&p)).unwrap_or(false);
                if here {
                    let cost = self.ctrl_cost_rx();
                    self.accept_req(bytes);
                    ctx.wake_after(cost, SelfEv::Proceed);
                } else {
                    self.early_reqs.insert(round as u16, bytes);
                }
            }
            TAG_ACK_BASE | TAG_ACK2_BASE => {
                if self.round == round
                    && !self.proceeding
                    && matches!(self.phase, LegPhase::WaitAck { .. })
                {
                    self.accept_ctrl(ctx);
                } else {
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                }
            }
            TAG_DONE_BASE | TAG_DONE2_BASE => {
                if self.round == round
                    && !self.proceeding
                    && matches!(self.phase, LegPhase::WaitDone { .. })
                {
                    self.accept_ctrl(ctx);
                } else {
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                }
            }
            TAG_PROBE_BASE => {
                if self.rx_done.contains(&(round as u16)) {
                    self.recovery.bump(RecoveryEvent::DoneResend);
                    self.send_ctrl(ctx, pkt.src, TAG_DONE2_BASE + round as u16, 0);
                    return;
                }
                let live_next_seq = match &self.phase {
                    LegPhase::Receiving { next_seq, .. } if self.round == round => Some(*next_seq),
                    _ => None,
                };
                if let Some(next_seq) = live_next_seq {
                    // Stream incomplete: tell the sender where to restart.
                    self.recovery.bump(RecoveryEvent::Retry);
                    self.send_ctrl(ctx, pkt.src, TAG_RETRY_BASE + round as u16, next_seq);
                } else {
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                }
            }
            TAG_RETRY_BASE => self.on_retry(round, pkt.payload[0], ctx),
            other => panic!("node {}: unexpected tag {other:#x}", self.me),
        }
    }

    /// A RETRY (go-back-N NAK) from the receiver: rewind the DATA stream
    /// to `restart`.
    fn on_retry(&mut self, round: usize, restart: u32, ctx: &mut Ctx<'_>) {
        if self.round != round {
            self.recovery.bump(RecoveryEvent::StaleIgnored);
            return;
        }
        let rewound = match &mut self.phase {
            LegPhase::Streaming { seq, .. } => {
                // Live stream: pull the cursor back; the pending Emit chain
                // re-emits from there.
                if restart < *seq {
                    *seq = restart;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if rewound {
            self.recovery.bump(RecoveryEvent::DataRewind);
            return;
        }
        let wait_done = match &self.phase {
            // Once the DONE is accepted the leg is over: a late NAK must
            // not reopen the stream under the pending `Proceed`.
            LegPhase::WaitDone { partner, bytes } if !self.proceeding => Some((*partner, *bytes)),
            _ => None,
        };
        let Some((partner, bytes)) = wait_done else {
            self.recovery.bump(RecoveryEvent::StaleIgnored);
            return;
        };
        let queue = segment(bytes);
        if (restart as usize) >= queue.len() {
            self.recovery.bump(RecoveryEvent::StaleIgnored);
            return;
        }
        // Stream already drained: re-enter it at the rewind point (stage
        // the chunk again, kick the DMA).
        self.new_wait();
        self.recovery.bump(RecoveryEvent::DataRewind);
        let first = bytes.min(self.chunk);
        let lead = self.host.memcpy_time(first) + self.host.dma_kick;
        self.phase = LegPhase::Streaming {
            queue,
            seq: restart,
            partner,
        };
        ctx.wake_after(lead, SelfEv::Emit);
    }

    /// A guarded wait expired: resend the blocking control message with
    /// backoff. WaitAck resends the REQ (as REQ2); WaitDone probes the
    /// receiver, which answers RETRY (stream incomplete) or DONE2.
    fn on_timeout(&mut self, epoch: u64, ctx: &mut Ctx<'_>) {
        if epoch != self.epoch {
            return; // stale guard from a wait that already resolved
        }
        let action = match &self.phase {
            LegPhase::WaitAck { partner, bytes } => Some((*partner, *bytes as u32, true)),
            LegPhase::WaitDone { partner, .. } => Some((*partner, 0, false)),
            _ => None,
        };
        let Some((partner, word, is_req)) = action else {
            return;
        };
        assert!(
            self.attempts < self.policy.max_attempts,
            "node {}: retries exhausted in round {} (wait for {})",
            self.me,
            self.round,
            if is_req { "ACK" } else { "DONE" }
        );
        self.attempts += 1;
        self.recovery.bump(RecoveryEvent::Timeout);
        let (tag_base, crumb, ev) = if is_req {
            (TAG_REQ2_BASE, "exchange.req2", RecoveryEvent::ReqResend)
        } else {
            (TAG_PROBE_BASE, "exchange.probe", RecoveryEvent::Probe)
        };
        self.recovery.bump(ev);
        flight::record(ctx.now(), ctx.self_id(), crumb, u64::from(self.me));
        self.send_ctrl(ctx, partner, tag_base + self.round as u16, word);
        self.arm_timeout(ctx);
    }

    fn on_proceed(&mut self, ctx: &mut Ctx<'_>) {
        self.proceeding = false;
        match &self.phase {
            LegPhase::Receiving { .. } => {
                // REQ processed: post RX descriptors and acknowledge.
                if let Some(plan) = self.plan() {
                    let kick = self.host.dma_kick;
                    let round = self.round as u16;
                    let partner = plan.partner;
                    // ACK after the descriptor post.
                    let os = self.host.pio.send_overhead(8);
                    let pkt = Packet::new(
                        self.me,
                        partner,
                        Priority::High,
                        TAG_ACK_BASE + round,
                        vec![0, 0],
                    );
                    ctx.send_after(kick + os, self.tx_port, Inject(pkt));
                }
            }
            LegPhase::WaitAck { partner, bytes } => {
                // ACK processed: start streaming.
                let (partner, bytes) = (*partner, *bytes);
                self.start_stream(ctx, partner, bytes);
            }
            LegPhase::WaitDone { .. } => {
                // DONE processed: this half-round is complete.
                self.advance_half(ctx);
            }
            _ => panic!("node {}: Proceed in unexpected phase", self.me),
        }
    }

    fn on_emit(&mut self, ctx: &mut Ctx<'_>) {
        let LegPhase::Streaming {
            queue,
            seq,
            partner,
        } = &mut self.phase
        else {
            panic!("node {}: Emit outside streaming", self.me);
        };
        let idx = *seq as usize;
        let bytes = queue[idx];
        let pkt = bulk_packet(self.me, *partner, TAG_DATA, *seq, bytes);
        *seq += 1;
        let more = (*seq as usize) < queue.len();
        let partner = *partner;
        let total: u64 = queue.iter().sum();
        ctx.send_now(self.tx_port, Inject(pkt));
        let gap = self.host.vi_dma_time(bytes);
        if more {
            ctx.wake_after(gap, SelfEv::Emit);
        } else {
            self.phase = LegPhase::WaitDone {
                partner,
                bytes: total,
            };
            self.new_wait();
            self.arm_timeout(ctx);
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

fn measure_exchange_inner(
    host: HostParams,
    px: u16,
    py: u16,
    leg_bytes: u64,
    plan: Option<&FaultPlan>,
) -> (SimDuration, RecoveryCounters) {
    let n = px * py;
    assert!(
        n.is_power_of_two(),
        "fabric needs a power-of-two endpoint count"
    );
    let schedules = torus_schedule(px, py, leg_bytes);
    let mut sim = Simulator::new();
    let ids: Vec<ActorId> = (0..n).map(|_| sim.add_actor(Slot)).collect();
    let net = ArcticNetwork::build(&mut sim, &ids, Default::default());
    if let Some(plan) = plan {
        net.apply_fault_plan(&mut sim, plan);
    }
    for e in 0..n {
        let node = ExchangeNode::new(e, host, net.tx_port(e), schedules[e as usize].clone());
        let _ = sim.remove_actor(ids[e as usize]);
        sim.insert_actor_at(ids[e as usize], Box::new(node));
    }
    for &id in &ids {
        sim.schedule(SimTime::ZERO, id, StartExchange);
    }
    sim.run();
    let mut last = SimTime::ZERO;
    let mut recovery = RecoveryCounters::default();
    for (e, &id) in ids.iter().enumerate() {
        let node = sim.actor::<ExchangeNode>(id);
        let f = node
            .finished
            .unwrap_or_else(|| panic!("node {e} never finished its exchange"));
        last = last.max(f);
        recovery.merge(&node.recovery);
    }
    (last.since(SimTime::ZERO), recovery)
}

struct Slot;
impl Actor for Slot {
    fn on_event(&mut self, _ev: Payload, _ctx: &mut Ctx<'_>) {
        panic!("slot actor received an event");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_pairs_are_consistent() {
        for (px, py) in [(4u16, 2u16), (2, 2), (4, 4), (8, 2)] {
            let s = torus_schedule(px, py, 100);
            let n = (px * py) as usize;
            let rounds = s[0].len();
            #[allow(clippy::needless_range_loop)]
            for r in 0..rounds {
                for me in 0..n {
                    if let Some(plan) = s[me][r] {
                        let back = s[plan.partner as usize][r].expect("partner idle");
                        assert_eq!(back.partner as usize, me, "round {r}: asymmetric pair");
                        assert_ne!(
                            back.sends_first, plan.sends_first,
                            "round {r}: both sides claim the same role"
                        );
                    }
                }
            }
        }
    }

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
    fn two_by_two_grid_works() {
        let t = measure_exchange(HostParams::default(), 2, 2, 512);
        assert!(t.as_us_f64() > 0.0);
    }

    #[test]
    fn deterministic() {
        let a = measure_exchange(HostParams::default(), 4, 2, 1024);
        let b = measure_exchange(HostParams::default(), 4, 2, 1024);
        assert_eq!(a, b);
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
}
