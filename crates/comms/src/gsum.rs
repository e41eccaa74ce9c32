//! The optimized global sum (§4.2).
//!
//! For `N` endpoints (a power of two), `N · log2 N` messages are sent over
//! `log2 N` rounds. In round `i`, node `me` exchanges its running partial
//! sum with partner `me XOR 2^i`; after round `i` every node holds the sum
//! for the group of nodes whose identifiers differ only in the lowest
//! `i+1` bits (Figure 8). The algorithm minimizes latency at the expense of
//! message count — every node owns the full result with no broadcast step.
//!
//! Per-round cost on Hyades: one PIO send (`Os`), the network transit, one
//! status poll plus PIO receive (`poll + Or`), and the floating-point add.
//! Summed over rounds this reproduces the paper's measured latencies
//! (4.0 / 8.3 / 12.8 / 18.2 µs for 2/4/8/16-way) and their least-squares
//! fit `t = 4.67·log2 N − 0.95` µs.
//!
//! ## Recovery (fault-injection subsystem)
//!
//! The butterfly keeps every partial sum it has sent (`sent[r]`), so a
//! lost or corrupted round value is recoverable: a corrupted arrival is
//! NAKed immediately with `RETRY(r)` (the tag survives — the fault model
//! flips payload bits only), a missing value is re-requested after a
//! timeout with capped exponential backoff, and the partner answers a
//! RETRY with `RESEND(r)` carrying `sent[r]`. Duplicates are idempotent:
//! the `got` set records rounds whose value has been accepted, so a late
//! original plus a RESEND never double-adds. The tree-gsum ablation
//! baseline intentionally keeps the paper's catastrophic-failure model.

use crate::recovery::{RecoveryCounters, RecoveryEvent};
use hyades_arctic::network::{ArcticNetwork, Delivered, Inject};
use hyades_arctic::packet::{f64_from_words, words_from_f64, Packet, Priority};
use hyades_des::event::Payload;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use hyades_fault::{FaultPlan, RetryPolicy};
use hyades_startx::HostParams;
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;
use std::collections::{BTreeMap, BTreeSet};

/// Recovery tag bases (round values travel under their bare round index,
/// so these start above any realistic `log2 N`).
pub(crate) const GSUM_RETRY_BASE: u16 = 0x40; // + round: "resend me round r"
pub(crate) const GSUM_RESEND_BASE: u16 = 0x60; // + round: the resent value

/// What a butterfly packet carries, read off its tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TagKind {
    /// A round's partial sum (the tag is the bare round).
    Value,
    /// "Resend me your round-r value."
    Retry,
    /// The resent round-r value.
    Resend,
}

/// Decode a tag into its kind and round — the one place the node's
/// dispatch reads the tag layout.
pub(crate) fn classify(tag: u16) -> (TagKind, u32) {
    if tag >= GSUM_RESEND_BASE {
        (TagKind::Resend, u32::from(tag - GSUM_RESEND_BASE))
    } else if tag >= GSUM_RETRY_BASE {
        (TagKind::Retry, u32::from(tag - GSUM_RETRY_BASE))
    } else {
        (TagKind::Value, u32::from(tag))
    }
}

/// Kick event: begin a global sum contributing `value`.
pub struct StartGsum {
    pub value: f64,
}

/// Self event: the CPU has finished reading a round message.
struct RxReady {
    round: u32,
    value: f64,
}

/// Self event: the wait for the current round's value timed out.
struct GsumTimeout {
    epoch: u64,
}

/// Cost of the floating-point add + loop bookkeeping per round.
const ADD_COST_US: f64 = 0.05;

/// One participant in the butterfly.
pub struct GsumNode {
    pub me: u16,
    n: u16,
    host: HostParams,
    tx_port: ActorId,
    /// Extra cost charged before the network phase (intra-SMP combine) and
    /// after it (intra-SMP broadcast) in mixed mode.
    pre_cost: SimDuration,
    post_cost: SimDuration,

    round: u32,
    partial: f64,
    /// BTreeMap, not HashMap: keeps early-arrival bookkeeping free of
    /// hash-iteration order (lint rule `hash-iteration`).
    early: BTreeMap<u32, f64>,
    /// Partial sums as sent, indexed by round, so a RETRY from the
    /// partner can be answered long after this node moved on.
    sent: Vec<f64>,
    /// Rounds whose incoming value has been accepted — makes duplicate
    /// deliveries (late original + RESEND) idempotent.
    got: BTreeSet<u32>,
    policy: RetryPolicy,
    epoch: u64,
    attempts: u32,
    pub recovery: RecoveryCounters,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
    pub result: Option<f64>,
}

impl GsumNode {
    pub fn new(me: u16, n: u16, host: HostParams, tx_port: ActorId) -> Self {
        GsumNode {
            me,
            n,
            host,
            tx_port,
            pre_cost: SimDuration::ZERO,
            post_cost: SimDuration::ZERO,
            round: 0,
            partial: 0.0,
            early: BTreeMap::new(),
            sent: Vec::new(),
            got: BTreeSet::new(),
            policy: RetryPolicy::default(),
            epoch: 0,
            attempts: 0,
            recovery: RecoveryCounters::default(),
            started: None,
            finished: None,
            result: None,
        }
    }

    /// Override the retransmit policy (tests tighten the timeout).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    fn arm_timeout(&mut self, ctx: &mut Ctx<'_>) {
        let wait = self.policy.arm(self.attempts);
        let epoch = self.epoch;
        ctx.wake_after(wait, GsumTimeout { epoch });
    }

    fn new_wait(&mut self) {
        self.epoch += 1;
        self.attempts = 0;
    }

    /// Add the intra-SMP combine/broadcast costs of the mixed-mode scheme
    /// (§4.2: "about 1 µs" total on the two-way SMPs).
    pub fn with_smp_step(mut self, pre: SimDuration, post: SimDuration) -> Self {
        self.pre_cost = pre;
        self.post_cost = post;
        self
    }

    fn rounds(&self) -> u32 {
        self.n.trailing_zeros()
    }

    fn partner_of(&self, round: u32) -> u16 {
        self.me ^ (1u16 << round)
    }

    fn send_value(&self, ctx: &mut Ctx<'_>, round: u32, tag: u16, value: f64) {
        let partner = self.partner_of(round);
        let os = self.host.pio.send_overhead(8);
        let pkt = Packet::new(self.me, partner, Priority::High, tag, words_from_f64(value));
        ctx.send_after(os, self.tx_port, Inject(pkt));
    }

    fn send_round(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(self.sent.len(), self.round as usize);
        self.sent.push(self.partial);
        self.send_value(ctx, self.round, self.round as u16, self.partial);
    }

    fn send_ctrl(&self, ctx: &mut Ctx<'_>, dst: u16, tag: u16) {
        let os = self.host.pio.send_overhead(8);
        let pkt = Packet::new(self.me, dst, Priority::High, tag, vec![0, 0]);
        ctx.send_after(os, self.tx_port, Inject(pkt));
    }

    /// Accept an incoming round value (original or RESEND), with the
    /// `got`-set dedup making duplicates idempotent.
    fn accept_value(&mut self, round: u32, value: f64, ctx: &mut Ctx<'_>) {
        if round < self.round || self.got.contains(&round) {
            self.recovery.bump(RecoveryEvent::StaleIgnored);
            return;
        }
        if round == self.round {
            // Blocked waiting on this message: one status poll plus
            // the PIO read of header+payload.
            self.got.insert(round);
            self.new_wait();
            let cost = self.host.status_poll + self.host.pio.recv_overhead(8);
            ctx.wake_after(cost, RxReady { round, value });
        } else {
            // A fast partner ran ahead; stash until we get there.
            self.early.insert(round, value);
        }
    }

    fn advance(&mut self, value: f64, ctx: &mut Ctx<'_>) {
        self.partial += value;
        self.round += 1;
        let add = SimDuration::from_us_f64(ADD_COST_US);
        if self.round == self.rounds() {
            let done = ctx.now() + add + self.post_cost;
            self.finished = Some(done);
            self.result = Some(self.partial);
            if let Some(started) = self.started {
                telemetry::record_span(
                    u64::from(self.me),
                    "comms",
                    "gsum.node",
                    started,
                    done.since(started),
                );
            }
            telemetry::count("comms.gsum", "rounds", u64::from(self.rounds()));
            flight::record(done, ctx.self_id(), "gsum.finished", u64::from(self.round));
        } else {
            // The add happens before the next send; fold its cost in by
            // delaying the send kick.
            let round = self.round;
            ctx.wake_after(
                add,
                RxReady {
                    round,
                    value: f64::NAN, // marker: "send next round" (value unused)
                },
            );
        }
    }
}

impl Actor for GsumNode {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<StartGsum>() {
            Ok(s) => {
                assert!(self.n.is_power_of_two() && self.n >= 2);
                assert!(
                    self.rounds() < u32::from(GSUM_RETRY_BASE),
                    "round index must stay below the recovery tag bases"
                );
                self.partial = s.value;
                self.round = 0;
                self.started = Some(ctx.now());
                self.finished = None;
                self.result = None;
                self.early.clear();
                self.sent.clear();
                self.got.clear();
                self.new_wait();
                // Mixed mode: combine the SMP-local values first.
                let pre = self.pre_cost;
                ctx.wake_after(
                    pre,
                    RxReady {
                        round: 0,
                        value: f64::NAN,
                    },
                );
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<Delivered>() {
            Ok(del) => {
                let pkt = del.pkt;
                let (kind, round) = classify(pkt.usr_tag);
                if pkt.corrupted {
                    // The CRC caught it; the payload is never trusted. The
                    // tag survives (the fault model flips payload bits
                    // only), so a corrupted value can be NAKed right away;
                    // a corrupted RETRY is covered by the requester's
                    // backoff.
                    self.recovery.bump(RecoveryEvent::CorruptDiscard);
                    if kind != TagKind::Retry && !self.got.contains(&round) {
                        self.recovery.bump(RecoveryEvent::Retry);
                        self.send_ctrl(ctx, pkt.src, GSUM_RETRY_BASE + round as u16);
                    }
                    return;
                }
                match kind {
                    TagKind::Value | TagKind::Resend => {
                        self.accept_value(round, f64_from_words(&pkt.payload), ctx);
                    }
                    // The partner is missing our round-r value: resend the
                    // recorded partial, or ignore if we haven't sent it yet
                    // (their backoff will re-ask once we have).
                    TagKind::Retry => {
                        if let Some(&v) = self.sent.get(round as usize) {
                            self.recovery.bump(RecoveryEvent::ValueResend);
                            self.send_value(ctx, round, GSUM_RESEND_BASE + round as u16, v);
                        } else {
                            self.recovery.bump(RecoveryEvent::StaleIgnored);
                        }
                    }
                }
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<GsumTimeout>() {
            Ok(t) => {
                self.on_timeout(t.epoch, ctx);
                return;
            }
            Err(e) => e,
        };
        let Ok(rx) = ev.downcast::<RxReady>() else {
            panic!("GsumNode received an unexpected event type");
        };
        if rx.value.is_nan() {
            // Marker: kick off the send for the current round, then check
            // whether the partner's message already arrived.
            debug_assert_eq!(rx.round, self.round);
            self.send_round(ctx);
            if let Some(v) = self.early.remove(&self.round) {
                self.got.insert(self.round);
                self.new_wait();
                let cost = self.host.status_poll + self.host.pio.recv_overhead(8);
                let round = self.round;
                ctx.wake_after(cost, RxReady { round, value: v });
            } else {
                // Now blocked on the partner: guard the wait.
                self.new_wait();
                self.arm_timeout(ctx);
            }
            return;
        }
        debug_assert_eq!(rx.round, self.round);
        self.advance(rx.value, ctx);
    }
}

impl GsumNode {
    /// The wait for the current round's value expired: re-request it.
    fn on_timeout(&mut self, epoch: u64, ctx: &mut Ctx<'_>) {
        if epoch != self.epoch || self.finished.is_some() {
            return; // stale guard from a wait that already resolved
        }
        if self.got.contains(&self.round) {
            return; // value accepted, RxReady in flight
        }
        assert!(
            self.attempts < self.policy.max_attempts,
            "node {}: gsum retries exhausted in round {}",
            self.me,
            self.round
        );
        self.attempts += 1;
        self.recovery.bump(RecoveryEvent::Timeout);
        self.recovery.bump(RecoveryEvent::Retry);
        flight::record(
            ctx.now(),
            ctx.self_id(),
            "gsum.retry",
            u64::from(self.round),
        );
        let partner = self.partner_of(self.round);
        self.send_ctrl(ctx, partner, GSUM_RETRY_BASE + self.round as u16);
        self.arm_timeout(ctx);
    }
}

/// Result of a simulated `N`-way global sum.
#[derive(Clone, Copy, Debug)]
pub struct GsumMeasurement {
    pub n: u16,
    /// Latency from common start to the *last* node holding the result.
    pub elapsed: SimDuration,
    pub value: f64,
}

/// Run one `n`-way global sum on a fresh fabric; node `i` contributes
/// `values[i]`. When `smp_step` is set, each node charges the intra-SMP
/// combine/broadcast costs (the paper's `2×N`-way configuration).
pub fn measure_gsum(host: HostParams, values: &[f64], smp_step: bool) -> GsumMeasurement {
    measure_gsum_inner(host, values, smp_step, None).0
}

/// Measurement under a [`FaultPlan`]: same butterfly, with the plan's link
/// windows and NIU stalls installed. Returns the measurement (recovery
/// charged to simulated time) plus the summed recovery counters; the sum
/// must still be exact on every node.
pub fn measure_gsum_faulty(
    host: HostParams,
    values: &[f64],
    plan: &FaultPlan,
) -> (GsumMeasurement, RecoveryCounters) {
    measure_gsum_inner(host, values, false, Some(plan))
}

fn measure_gsum_inner(
    host: HostParams,
    values: &[f64],
    smp_step: bool,
    plan: Option<&FaultPlan>,
) -> (GsumMeasurement, RecoveryCounters) {
    let n = values.len() as u16;
    let mut sim = Simulator::new();
    let ids: Vec<ActorId> = (0..n).map(|_| sim.add_actor(Slot)).collect();
    let net = ArcticNetwork::build(&mut sim, &ids, Default::default());
    if let Some(plan) = plan {
        net.apply_fault_plan(&mut sim, plan);
    }
    for e in 0..n {
        let mut node = GsumNode::new(e, n, host, net.tx_port(e));
        if smp_step {
            node = node.with_smp_step(SimDuration::from_us_f64(0.6), SimDuration::from_us_f64(0.4));
        }
        let _ = sim.remove_actor(ids[e as usize]);
        sim.insert_actor_at(ids[e as usize], Box::new(node));
    }
    for (e, &v) in values.iter().enumerate() {
        sim.schedule(SimTime::ZERO, ids[e], StartGsum { value: v });
    }
    sim.run();
    let mut last = SimTime::ZERO;
    let mut result = None;
    let mut recovery = RecoveryCounters::default();
    for (e, &id) in ids.iter().enumerate() {
        let node = sim.actor::<GsumNode>(id);
        let f = node
            .finished
            .unwrap_or_else(|| panic!("node {e} never finished"));
        last = last.max(f);
        recovery.merge(&node.recovery);
        let r = node
            .result
            .unwrap_or_else(|| panic!("node {e} finished without a result"));
        if let Some(prev) = result {
            assert_eq!(prev, r, "nodes disagree on the global sum");
        }
        result = Some(r);
    }
    (
        GsumMeasurement {
            n,
            elapsed: last.since(SimTime::ZERO),
            value: result.unwrap_or_else(|| panic!("gsum over zero nodes has no result")),
        },
        recovery,
    )
}

/// Measure the §4.2 latency table: 2/4/8/16-way, with and without the SMP
/// step.
pub fn latency_table(host: HostParams) -> Vec<(u16, GsumMeasurement, GsumMeasurement)> {
    [2u16, 4, 8, 16]
        .iter()
        .map(|&n| {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            (
                n,
                measure_gsum(host, &vals, false),
                measure_gsum(host, &vals, true),
            )
        })
        .collect()
}

struct Slot;
impl Actor for Slot {
    fn on_event(&mut self, _ev: Payload, _ctx: &mut Ctx<'_>) {
        panic!("slot actor received an event");
    }
}

// ---------------------------------------------------------------------------
// Ablation comparator: tree reduce + broadcast
// ---------------------------------------------------------------------------

/// The conventional alternative the butterfly beats: reduce partial sums
/// up a binary tree to node 0, then broadcast the result back down. Same
/// arithmetic, `2·N − 2` messages instead of `N·log2 N`, but the critical
/// path is `2·log2 N` message latencies instead of `log2 N` — the paper's
/// §4.2 design trades extra messages for exactly this halving of latency.
pub struct TreeGsumNode {
    pub me: u16,
    n: u16,
    host: HostParams,
    tx_port: ActorId,
    partial: f64,
    children_pending: u32,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
    pub result: Option<f64>,
}

/// Message tags: reduce contributions go up, the broadcast comes down.
const TAG_REDUCE: u16 = 0x51;
const TAG_BCAST: u16 = 0x52;

impl TreeGsumNode {
    pub fn new(me: u16, n: u16, host: HostParams, tx_port: ActorId) -> Self {
        // Children of `me`: me + 2^i for each i with 2^i > lowest set bit
        // span... simpler: me XOR 2^i for i in (level(me)..log2 n) where
        // level = index of lowest set bit (or log2 n for node 0).
        let rounds = n.trailing_zeros();
        let level = if me == 0 { rounds } else { me.trailing_zeros() };
        let children = (0..level).filter(|i| me + (1u16 << i) < n).count() as u32;
        TreeGsumNode {
            me,
            n,
            host,
            tx_port,
            partial: 0.0,
            children_pending: children,
            started: None,
            finished: None,
            result: None,
        }
    }

    fn parent(&self) -> u16 {
        debug_assert_ne!(self.me, 0);
        self.me & (self.me - 1) // clear lowest set bit
    }

    fn children(&self) -> Vec<u16> {
        let rounds = self.n.trailing_zeros();
        let level = if self.me == 0 {
            rounds
        } else {
            self.me.trailing_zeros()
        };
        (0..level)
            .map(|i| self.me + (1u16 << i))
            .filter(|&c| c < self.n)
            .collect()
    }

    fn send(&self, ctx: &mut Ctx<'_>, dst: u16, tag: u16, value: f64) {
        let os = self.host.pio.send_overhead(8);
        let pkt = Packet::new(self.me, dst, Priority::High, tag, words_from_f64(value));
        ctx.send_after(os, self.tx_port, Inject(pkt));
    }

    fn maybe_send_up(&mut self, ctx: &mut Ctx<'_>) {
        if self.children_pending > 0 || self.started.is_none() {
            return;
        }
        if self.me == 0 {
            // Root holds the total: broadcast.
            self.result = Some(self.partial);
            self.finished = Some(ctx.now());
            for c in self.children() {
                self.send(ctx, c, TAG_BCAST, self.partial);
            }
        } else {
            self.send(ctx, self.parent(), TAG_REDUCE, self.partial);
        }
    }
}

/// Self event: receive cost paid; process the value.
struct TreeRx {
    tag: u16,
    value: f64,
}

impl Actor for TreeGsumNode {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<StartGsum>() {
            Ok(s) => {
                self.partial = s.value;
                self.started = Some(ctx.now());
                self.maybe_send_up(ctx);
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<Delivered>() {
            Ok(del) => {
                assert!(!del.pkt.corrupted);
                let cost = self.host.status_poll + self.host.pio.recv_overhead(8);
                ctx.wake_after(
                    cost,
                    TreeRx {
                        tag: del.pkt.usr_tag,
                        value: f64_from_words(&del.pkt.payload),
                    },
                );
                return;
            }
            Err(e) => e,
        };
        let Ok(rx) = ev.downcast::<TreeRx>() else {
            panic!("TreeGsumNode received an unexpected event type");
        };
        match rx.tag {
            TAG_REDUCE => {
                self.partial += rx.value;
                self.children_pending -= 1;
                self.maybe_send_up(ctx);
            }
            TAG_BCAST => {
                self.result = Some(rx.value);
                self.finished = Some(ctx.now());
                for c in self.children() {
                    self.send(ctx, c, TAG_BCAST, rx.value);
                }
            }
            t => panic!("unexpected tag {t:#x}"),
        }
    }
}

/// Measure the tree reduce+broadcast variant (the ablation baseline).
pub fn measure_gsum_tree(host: HostParams, values: &[f64]) -> GsumMeasurement {
    let n = values.len() as u16;
    assert!(n.is_power_of_two() && n >= 2);
    let mut sim = Simulator::new();
    let ids: Vec<ActorId> = (0..n).map(|_| sim.add_actor(Slot)).collect();
    let net = ArcticNetwork::build(&mut sim, &ids, Default::default());
    for e in 0..n {
        let node = TreeGsumNode::new(e, n, host, net.tx_port(e));
        let _ = sim.remove_actor(ids[e as usize]);
        sim.insert_actor_at(ids[e as usize], Box::new(node));
    }
    for (e, &v) in values.iter().enumerate() {
        sim.schedule(SimTime::ZERO, ids[e], StartGsum { value: v });
    }
    sim.run();
    let mut last = SimTime::ZERO;
    let mut result = None;
    for (e, &id) in ids.iter().enumerate() {
        let node = sim.actor::<TreeGsumNode>(id);
        last = last.max(
            node.finished
                .unwrap_or_else(|| panic!("tree node {e} never finished")),
        );
        let r = node
            .result
            .unwrap_or_else(|| panic!("tree node {e} finished without a result"));
        if let Some(prev) = result {
            assert_eq!(prev, r, "tree nodes disagree");
        }
        result = Some(r);
    }
    GsumMeasurement {
        n,
        elapsed: last.since(SimTime::ZERO),
        value: result.unwrap_or_else(|| panic!("tree gsum over zero nodes has no result")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_the_right_sum() {
        let vals = [3.25, -1.5, 10.0, 0.125, 7.0, 2.0, -4.0, 0.5];
        let m = measure_gsum(HostParams::default(), &vals, false);
        assert_eq!(m.value, vals.iter().sum::<f64>());
    }

    #[test]
    fn two_way_latency_matches_paper() {
        let m = measure_gsum(HostParams::default(), &[1.0, 2.0], false);
        // Paper: 4.0 µs.
        let us = m.elapsed.as_us_f64();
        assert!((3.0..5.0).contains(&us), "2-way gsum {us} µs");
    }

    #[test]
    fn sixteen_way_latency_matches_paper() {
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let m = measure_gsum(HostParams::default(), &vals, false);
        // Paper: 18.2 µs; accept the same order with ~20% slack.
        let us = m.elapsed.as_us_f64();
        assert!((13.0..22.0).contains(&us), "16-way gsum {us} µs");
    }

    #[test]
    fn latency_grows_linearly_in_log_n() {
        let t = latency_table(HostParams::default());
        let us: Vec<f64> = t.iter().map(|(_, m, _)| m.elapsed.as_us_f64()).collect();
        // Per-round increments should be roughly constant (C·log2 N form).
        let d1 = us[1] - us[0];
        let d2 = us[2] - us[1];
        let d3 = us[3] - us[2];
        let max = d1.max(d2).max(d3);
        let min = d1.min(d2).min(d3);
        assert!(max / min < 1.6, "increments not linear in log2 N: {us:?}");
    }

    #[test]
    fn smp_step_adds_about_a_microsecond() {
        let t = latency_table(HostParams::default());
        for (n, plain, smp) in &t {
            let d = smp.elapsed.as_us_f64() - plain.elapsed.as_us_f64();
            assert!((0.8..1.3).contains(&d), "{n}-way SMP step added {d} µs");
        }
    }

    #[test]
    fn faulty_gsum_is_exact_and_deterministic() {
        // A harsh corrupt+drop window over the whole butterfly: the sum
        // must still be exact on every node (values are resent, never
        // reconstructed), recovery must actually fire, and a re-run must
        // be bit-identical.
        let vals: Vec<f64> = (0..8).map(|i| (i as f64) * 1.25 - 2.0).collect();
        let plan = FaultPlan::new(0x65)
            .link_window(0.0, 40.0, 0.25, 0.2)
            .niu_stall(2, 2.0, 10.0);
        let (m, r) = measure_gsum_faulty(HostParams::default(), &vals, &plan);
        assert_eq!(m.value, vals.iter().sum::<f64>(), "sum must stay exact");
        assert!(
            r.corrupt_discarded + r.timeouts > 0,
            "fault window never hit the butterfly: {r:?}"
        );
        assert!(r.total_retransmits() > 0, "no recovery traffic: {r:?}");
        let clean = measure_gsum(HostParams::default(), &vals, false);
        assert!(
            m.elapsed > clean.elapsed,
            "recovery must cost simulated time"
        );
        let (m2, r2) = measure_gsum_faulty(HostParams::default(), &vals, &plan);
        assert_eq!(m.elapsed, m2.elapsed, "faulty gsum must be deterministic");
        assert_eq!(r, r2);
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let vals: Vec<f64> = (0..4).map(|i| i as f64).collect();
        let clean = measure_gsum(HostParams::default(), &vals, false);
        let (m, r) = measure_gsum_faulty(HostParams::default(), &vals, &FaultPlan::new(9));
        assert_eq!(m.elapsed, clean.elapsed);
        assert_eq!(m.value, clean.value);
        assert_eq!(r, RecoveryCounters::default());
    }

    #[test]
    fn identical_across_runs() {
        let vals: Vec<f64> = (0..8).map(|i| (i * i) as f64).collect();
        let a = measure_gsum(HostParams::default(), &vals, false);
        let b = measure_gsum(HostParams::default(), &vals, false);
        assert_eq!(a.elapsed, b.elapsed, "simulation must be deterministic");
        assert_eq!(a.value, b.value);
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;

    #[test]
    fn tree_computes_the_same_sum() {
        let vals: Vec<f64> = (0..16).map(|i| (i as f64) * 1.5 - 3.0).collect();
        let tree = measure_gsum_tree(HostParams::default(), &vals);
        let fly = measure_gsum(HostParams::default(), &vals, false);
        assert_eq!(tree.value, fly.value);
    }

    #[test]
    fn butterfly_beats_tree_on_latency() {
        // The design point of §4.2: minimize latency at the expense of
        // messages. The tree's critical path is ~2 log2 N latencies vs the
        // butterfly's log2 N.
        for n in [4usize, 8, 16] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let tree = measure_gsum_tree(HostParams::default(), &vals);
            let fly = measure_gsum(HostParams::default(), &vals, false);
            let ratio = tree.elapsed.as_us_f64() / fly.elapsed.as_us_f64();
            assert!(
                ratio > 1.4,
                "{n}-way: tree {} vs butterfly {} (ratio {ratio:.2})",
                tree.elapsed,
                fly.elapsed
            );
        }
    }

    #[test]
    fn two_way_tree_is_a_send_and_a_broadcast() {
        let m = measure_gsum_tree(HostParams::default(), &[2.0, 3.0]);
        assert_eq!(m.value, 5.0);
        // Two user-to-user message latencies ≈ 7–9 µs.
        assert!(
            (6.0..10.0).contains(&m.elapsed.as_us_f64()),
            "{}",
            m.elapsed
        );
    }
}

#[cfg(test)]
mod figure8_tests {
    /// Figure 8's defining property, checked round by round on a pure
    /// model of the butterfly: after round `i`, every node holds the sum
    /// over the group of nodes whose identifiers differ from its own only
    /// in the lowest `i+1` bits.
    #[test]
    fn butterfly_partial_sums_match_figure_8() {
        let n = 8usize;
        let d: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 10.0).collect();
        let mut partial = d.clone();
        for round in 0..3 {
            let mut next = partial.clone();
            for (me, slot) in next.iter_mut().enumerate() {
                let partner = me ^ (1 << round);
                *slot = partial[me] + partial[partner];
            }
            partial = next;
            // Check the group property after this round.
            let mask = !((1usize << (round + 1)) - 1);
            for (me, &got) in partial.iter().enumerate() {
                let expect: f64 = (0..n)
                    .filter(|&o| o & mask == me & mask)
                    .map(|o| d[o])
                    .sum();
                assert_eq!(got, expect, "round {round}, node {me}: Figure 8 violated");
            }
        }
        // After the last round every node holds the full sum — with no
        // broadcast step, the property the paper's design buys with
        // N·log2(N) messages.
        let total: f64 = d.iter().sum();
        assert!(partial.iter().all(|&p| p == total));
    }

    /// The same property, observed through the DES protocol: every node's
    /// final result equals the total (the protocol IS the Figure 8
    /// butterfly; intermediate rounds are validated by the model test
    /// above and by the exact result here).
    #[test]
    fn des_butterfly_reaches_figure_8_endpoint() {
        use super::*;
        let d: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) * 10.0).collect();
        let m = measure_gsum(HostParams::default(), &d, false);
        assert_eq!(m.value, d.iter().sum::<f64>());
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;

    /// The fabric and butterfly generalize beyond the paper's 16 nodes:
    /// the log-linear latency law holds at 32 and 64 endpoints (what a
    /// bigger Hyades would have measured).
    #[test]
    fn gsum_scales_log_linearly_to_64_endpoints() {
        let host = HostParams::default();
        let mut pts = Vec::new();
        for n in [4u16, 8, 16, 32, 64] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let m = measure_gsum(host, &vals, false);
            assert_eq!(m.value, vals.iter().sum::<f64>());
            pts.push(((n as f64).log2(), m.elapsed.as_us_f64()));
        }
        // Fit t = C·log2 N + B over the five points; residuals must be
        // small (log-linear law) and C in the paper's regime.
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let c = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let b = (sy - c * sx) / n;
        assert!((3.5..5.5).contains(&c), "slope {c}");
        for &(x, y) in &pts {
            let pred = c * x + b;
            assert!(
                (y - pred).abs() < 0.15 * y.max(4.0),
                "log-linear law broken at log2N={x}: {y} vs {pred}"
            );
        }
    }
}
