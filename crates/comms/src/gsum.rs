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

use crate::mixmode;
use hyades_arctic::packet::{f64_from_words, words_from_f64, Packet};
use hyades_des::event::Payload;
use hyades_des::fault::FaultPlan;
use hyades_des::{Actor, Ctx, SimDuration, SimTime};
use hyades_startx::node::{run_nodes, CommGraph, Dir, Endpoint, Guard, Msg, Op, Timeout, Woken};
use hyades_startx::recovery::{RecoveryCounters, RecoveryEvent};
use hyades_startx::HostParams;
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Recovery tag bases (round values travel under their bare round index,
/// so these start above any realistic `log2 N`).
pub(crate) const GSUM_RETRY_BASE: u16 = 0x40; // + round: "resend me round r"
pub(crate) const GSUM_RESEND_BASE: u16 = 0x60; // + round: the resent value

/// What a butterfly packet carries, read off its tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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

/// One partner's program for a butterfly round: a `Send` posts its own
/// message of that kind, a `Recv` blocks on the partner's.
type RoundOp = (Dir, TagKind);

/// Send-then-recv on both sides: the posts never block, so the cross-wise
/// receives always complete. [`GsumNode`] runs this round.
const GSUM_ROUND: [RoundOp; 2] = [(Dir::Send, TagKind::Value), (Dir::Recv, TagKind::Value)];

/// Both directions of the recovery protocol fired: post value and
/// re-request (RETRY), answer the partner's re-request (RESEND), then
/// block on the partner's value and resend. Every recv's matching send
/// precedes it behind only non-blocking ops, so the interleaving is
/// realizable and acyclic.
const GSUM_RECOVERY_ROUND: [RoundOp; 6] = [
    (Dir::Send, TagKind::Value),
    (Dir::Send, TagKind::Retry),
    (Dir::Recv, TagKind::Retry),
    (Dir::Send, TagKind::Resend),
    (Dir::Recv, TagKind::Value),
    (Dir::Recv, TagKind::Resend),
];

/// The §4.2 butterfly for `n` nodes (`n` a power of two): `log2 n`
/// rounds, partner `me ^ (1 << round)`, both partners running `side`.
fn butterfly(n: u16, side: &[RoundOp]) -> CommGraph {
    assert!(n.is_power_of_two(), "butterfly needs a power-of-two size");
    let rounds = n.trailing_zeros() as u16;
    assert!(
        rounds < GSUM_RETRY_BASE,
        "round index must stay below the recovery tag bases"
    );
    let mut g = CommGraph::new(n);
    for round in 0..rounds {
        for me in 0..n {
            let p = me ^ (1 << round);
            if me > p {
                continue;
            }
            // The pair's two messages of each kind: `[from me, from p]`.
            let mut msgs = [[0; 2]; 3];
            for &(_, kind) in side.iter().filter(|op| op.0 == Dir::Send) {
                let (base, name) = match kind {
                    TagKind::Value => (0, "gsum.val"),
                    TagKind::Retry => (GSUM_RETRY_BASE, "gsum.retry"),
                    TagKind::Resend => (GSUM_RESEND_BASE, "gsum.resend"),
                };
                let tag = base + round;
                msgs[kind as usize] = [g.msg(me, p, tag, name), g.msg(p, me, tag, name)];
            }
            for mine in [0, 1] {
                for &(dir, kind) in side {
                    match dir {
                        Dir::Send => g.send(msgs[kind as usize][mine]),
                        Dir::Recv => g.recv(msgs[kind as usize][1 - mine]),
                    }
                }
            }
        }
    }
    g
}

/// The §4.2 global-sum butterfly for `n` nodes, the graph
/// [`measure_gsum`] runs.
pub fn gsum_graph(n: u16) -> CommGraph {
    butterfly(n, &GSUM_ROUND)
}

/// The butterfly with both directions of the recovery protocol fired in
/// every round. Verifying it proves the recovery tags never alias a
/// channel and the extended butterfly cannot deadlock.
pub fn gsum_recovery_graph(n: u16) -> CommGraph {
    butterfly(n, &GSUM_RECOVERY_ROUND)
}

/// Kick event: begin a global sum contributing `value`.
pub struct StartGsum {
    pub value: f64,
}

enum SelfEv {
    /// Send the current round's partial sum, then take the partner's if
    /// it is already here.
    SendRound,
    /// The CPU has finished reading a round message.
    RxReady { round: u32, value: f64 },
}

/// Cost of the floating-point add + loop bookkeeping per round.
const ADD_COST_US: f64 = 0.05;

/// One participant in the butterfly: it runs its program of the
/// [`gsum_graph`], one `GSUM_ROUND` after another, sending to and
/// receiving from the partner each message names, under its tag.
pub struct GsumNode {
    ep: Endpoint,
    graph: Rc<CommGraph>,
    /// Index in `graph.program[me]` of the op this node is at.
    at: usize,
    /// Extra cost charged before the network phase (intra-SMP combine) and
    /// after it (intra-SMP broadcast) in mixed mode.
    pre_cost: SimDuration,
    post_cost: SimDuration,

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
    /// Guards the wait for the current round's value.
    guard: Guard,
    pub recovery: RecoveryCounters,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
    pub result: Option<f64>,
}

impl GsumNode {
    /// `smp` charges the intra-SMP combine before the network phase and
    /// the broadcast after it (mixed mode, §4.2: "about 1 µs" in total).
    pub(crate) fn new(ep: Endpoint, graph: Rc<CommGraph>, smp: bool) -> Self {
        let (pre_cost, post_cost) = if smp {
            (mixmode::COMBINE, mixmode::BROADCAST)
        } else {
            (SimDuration::ZERO, SimDuration::ZERO)
        };
        GsumNode {
            ep,
            graph,
            at: 0,
            pre_cost,
            post_cost,
            partial: 0.0,
            early: BTreeMap::new(),
            sent: Vec::new(),
            got: BTreeSet::new(),
            guard: Guard::default(),
            recovery: RecoveryCounters::default(),
            started: None,
            finished: None,
            result: None,
        }
    }

    /// The op this node is at and its message (`None` once done).
    fn op(&self) -> Option<(Op, Msg)> {
        let op = *self.graph.program[usize::from(self.ep.me)].get(self.at)?;
        Some((op, self.graph.msgs[op.msg]))
    }

    /// The current round, read off the current op's tag; past every
    /// round once done.
    fn current_round(&self) -> u32 {
        self.op().map_or(u32::MAX, |(_, m)| classify(m.tag).1)
    }

    /// Ask `dst` to resend its round-`round` value.
    fn send_retry(&self, ctx: &mut Ctx<'_>, dst: u16, round: u32) {
        let tag = GSUM_RETRY_BASE + round as u16;
        self.ep.send(ctx, dst, tag, vec![0, 0]);
    }

    /// Accept an incoming round value (original or RESEND), with the
    /// `got`-set dedup making duplicates idempotent.
    fn accept_value(&mut self, round: u32, value: f64, ctx: &mut Ctx<'_>) {
        if round < self.current_round() || self.got.contains(&round) {
            self.recovery.bump(RecoveryEvent::StaleIgnored);
        } else if round == self.current_round() {
            self.take_value(value, ctx);
        } else {
            // A fast partner ran ahead; stash until we get there.
            self.early.insert(round, value);
        }
    }

    /// The current round's value is here and this node is blocked on it:
    /// one status poll plus the PIO read of header+payload, then the add.
    fn take_value(&mut self, value: f64, ctx: &mut Ctx<'_>) {
        let round = self.current_round();
        self.got.insert(round);
        self.guard.new_wait();
        ctx.wake_after(self.ep.recv_cost(), SelfEv::RxReady { round, value });
    }

    fn advance(&mut self, value: f64, ctx: &mut Ctx<'_>) {
        self.partial += value;
        self.at += 1;
        let add = SimDuration::from_us_f64(ADD_COST_US);
        if self.op().is_none() {
            let done = ctx.now() + add + self.post_cost;
            self.finished = Some(done);
            self.result = Some(self.partial);
            if let Some(started) = self.started {
                telemetry::record_span(
                    u64::from(self.ep.me),
                    "comms",
                    "gsum.node",
                    started,
                    done.since(started),
                );
            }
            let rounds = self.sent.len() as u64;
            telemetry::count("comms.gsum", "rounds", rounds);
            flight::record(done, ctx.self_id(), "gsum.finished", rounds);
        } else {
            // The add happens before the next send; fold its cost in by
            // delaying the send kick.
            ctx.wake_after(add, SelfEv::SendRound);
        }
    }
}

impl Actor for GsumNode {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        match Woken::<StartGsum, SelfEv>::from(ev) {
            Woken::Start(s) => {
                assert!(self.started.is_none(), "a node runs one global sum");
                self.partial = s.value;
                self.started = Some(ctx.now());
                self.guard.new_wait();
                // Mixed mode: combine the SMP-local values first.
                ctx.wake_after(self.pre_cost, SelfEv::SendRound);
            }
            Woken::Packet(pkt) => self.on_packet(pkt, ctx),
            Woken::Timeout(t) => self.on_timeout(&t, ctx),
            Woken::Own(SelfEv::RxReady { round, value }) => {
                debug_assert_eq!(round, self.current_round());
                self.advance(value, ctx);
            }
            Woken::Own(SelfEv::SendRound) => {
                let Some((op, m)) = self.op() else {
                    panic!("node {}: no round left to send", self.ep.me);
                };
                debug_assert_eq!(op.dir, Dir::Send);
                debug_assert_eq!(self.sent.len(), classify(m.tag).1 as usize);
                self.sent.push(self.partial);
                self.ep
                    .send(ctx, m.dst, m.tag, words_from_f64(self.partial));
                self.at += 1;
                if let Some(v) = self.early.remove(&self.current_round()) {
                    self.take_value(v, ctx);
                } else {
                    // Now blocked on the partner: guard the wait.
                    self.guard.new_wait();
                    self.guard.arm(ctx);
                }
            }
        }
    }
}

impl GsumNode {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let (kind, round) = classify(pkt.usr_tag);
        if pkt.corrupted {
            // The CRC caught it; the payload is never trusted. The tag
            // survives (the fault model flips payload bits only), so a
            // corrupted value can be NAKed right away; a corrupted RETRY
            // is covered by the requester's backoff.
            self.recovery.bump(RecoveryEvent::CorruptDiscard);
            if kind != TagKind::Retry && !self.got.contains(&round) {
                self.recovery.bump(RecoveryEvent::Retry);
                self.send_retry(ctx, pkt.src, round);
            }
            return;
        }
        match kind {
            TagKind::Value | TagKind::Resend => {
                self.accept_value(round, f64_from_words(&pkt.payload), ctx);
            }
            // The partner is missing our round-r value: resend the
            // recorded partial, or ignore if we haven't sent it yet (their
            // backoff will re-ask once we have).
            TagKind::Retry => {
                if let Some(&v) = self.sent.get(round as usize) {
                    self.recovery.bump(RecoveryEvent::ValueResend);
                    let tag = GSUM_RESEND_BASE + round as u16;
                    self.ep.send(ctx, pkt.src, tag, words_from_f64(v));
                } else {
                    self.recovery.bump(RecoveryEvent::StaleIgnored);
                }
            }
        }
    }

    /// The wait for the current round's value expired: re-request it.
    fn on_timeout(&mut self, t: &Timeout, ctx: &mut Ctx<'_>) {
        if self.guard.is_stale(t) {
            return; // stale guard from a wait that already resolved
        }
        let Some((_, m)) = self.op() else {
            return; // finished
        };
        let round = self.current_round();
        if self.got.contains(&round) {
            return; // value accepted, RxReady in flight
        }
        self.guard
            .retry(&mut self.recovery, self.ep.me, round, "the round value");
        self.recovery.bump(RecoveryEvent::Retry);
        flight::record(ctx.now(), ctx.self_id(), "gsum.retry", u64::from(round));
        self.send_retry(ctx, m.src, round);
        self.guard.arm(ctx);
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

/// Folds the nodes of one run into its measurement: the last finish time
/// and the one value every node must hold.
#[derive(Default)]
struct Outcome {
    last: SimTime,
    value: Option<f64>,
}

impl Outcome {
    fn node(&mut self, e: u16, finished: Option<SimTime>, result: Option<f64>) {
        let f = finished.unwrap_or_else(|| panic!("node {e} never finished"));
        self.last = self.last.max(f);
        let r = result.unwrap_or_else(|| panic!("node {e} finished without a result"));
        // Compared as bits: a sum over a NaN is a NaN on every node.
        if let Some(prev) = self.value {
            assert_eq!(
                prev.to_bits(),
                r.to_bits(),
                "nodes disagree on the global sum: {prev} vs {r}"
            );
        }
        self.value = Some(r);
    }

    fn measurement(self, n: u16) -> GsumMeasurement {
        GsumMeasurement {
            n,
            elapsed: self.last.since(SimTime::ZERO),
            value: self
                .value
                .unwrap_or_else(|| panic!("gsum over zero nodes has no result")),
        }
    }
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
    let graph = Rc::new(gsum_graph(n));
    let mut outcome = Outcome::default();
    let mut recovery = RecoveryCounters::default();
    run_nodes(
        host,
        n,
        plan,
        |ep| GsumNode::new(ep, Rc::clone(&graph), smp_step),
        |e| StartGsum {
            value: values[usize::from(e)],
        },
        |e, node: &GsumNode| {
            outcome.node(e, node.finished, node.result);
            recovery.merge(&node.recovery);
        },
    );
    (outcome.measurement(n), recovery)
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

// ---------------------------------------------------------------------------
// Ablation comparator: tree reduce + broadcast
// ---------------------------------------------------------------------------

/// The conventional alternative the butterfly beats: reduce partial sums
/// up a binary tree to node 0, then broadcast the result back down. Same
/// arithmetic, `2·N − 2` messages instead of `N·log2 N`, but the critical
/// path is `2·log2 N` message latencies instead of `log2 N` — the paper's
/// §4.2 design trades extra messages for exactly this halving of latency.
pub struct TreeGsumNode {
    ep: Endpoint,
    n: u16,
    partial: f64,
    children_pending: usize,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
    pub result: Option<f64>,
}

/// Message tags: reduce contributions go up, the broadcast comes down.
const TAG_REDUCE: u16 = 0x51;
const TAG_BCAST: u16 = 0x52;

impl TreeGsumNode {
    pub(crate) fn new(ep: Endpoint, n: u16) -> Self {
        let mut node = TreeGsumNode {
            ep,
            n,
            partial: 0.0,
            children_pending: 0,
            started: None,
            finished: None,
            result: None,
        };
        node.children_pending = node.children().len();
        node
    }

    fn parent(&self) -> u16 {
        debug_assert_ne!(self.ep.me, 0);
        self.ep.me & (self.ep.me - 1) // clear lowest set bit
    }

    /// `me + 2^i` for every `i` below the index of `me`'s lowest set bit
    /// (below `log2 n` for node 0).
    fn children(&self) -> Vec<u16> {
        let me = self.ep.me;
        let level = if me == 0 { self.n } else { me }.trailing_zeros();
        (0..level)
            .map(|i| me + (1u16 << i))
            .filter(|&c| c < self.n)
            .collect()
    }

    /// The total has reached this node: hold it and pass it down.
    fn hold(&mut self, ctx: &mut Ctx<'_>, total: f64) {
        self.result = Some(total);
        self.finished = Some(ctx.now());
        for c in self.children() {
            self.ep.send(ctx, c, TAG_BCAST, words_from_f64(total));
        }
    }

    fn maybe_send_up(&mut self, ctx: &mut Ctx<'_>) {
        if self.children_pending > 0 || self.started.is_none() {
            return;
        }
        if self.ep.me == 0 {
            self.hold(ctx, self.partial);
        } else {
            let up = words_from_f64(self.partial);
            self.ep.send(ctx, self.parent(), TAG_REDUCE, up);
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
        match Woken::<StartGsum, TreeRx>::from(ev) {
            Woken::Start(s) => {
                self.partial = s.value;
                self.started = Some(ctx.now());
                self.maybe_send_up(ctx);
            }
            Woken::Packet(pkt) => {
                assert!(!pkt.corrupted);
                let (tag, value) = (pkt.usr_tag, f64_from_words(&pkt.payload));
                ctx.wake_after(self.ep.recv_cost(), TreeRx { tag, value });
            }
            Woken::Own(TreeRx {
                tag: TAG_REDUCE,
                value,
            }) => {
                self.partial += value;
                self.children_pending -= 1;
                self.maybe_send_up(ctx);
            }
            Woken::Own(TreeRx {
                tag: TAG_BCAST,
                value,
            }) => self.hold(ctx, value),
            Woken::Own(TreeRx { tag, .. }) => panic!("unexpected tag {tag:#x}"),
            Woken::Timeout(_) => panic!("the tree guards no wait"),
        }
    }
}

/// Measure the tree reduce+broadcast variant (the ablation baseline).
pub fn measure_gsum_tree(host: HostParams, values: &[f64]) -> GsumMeasurement {
    let n = values.len() as u16;
    let mut outcome = Outcome::default();
    run_nodes(
        host,
        n,
        None,
        |ep| TreeGsumNode::new(ep, n),
        |e| StartGsum {
            value: values[usize::from(e)],
        },
        |e, node: &TreeGsumNode| outcome.node(e, node.finished, node.result),
    );
    outcome.measurement(n)
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

    /// Figure 8's defining property, read off the running nodes: the
    /// partial sum a node sends in round `r` is the sum over the group of
    /// nodes whose identifiers differ from its own only in the lowest `r`
    /// bits, and after the last round every node holds the total — with
    /// no broadcast step, what the design buys with N·log2(N) messages.
    #[test]
    fn des_butterfly_sends_the_figure_8_partial_sums() {
        let d: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) * 10.0).collect();
        let group = |me: u16, r: usize| -> f64 {
            let same = |o: &usize| o >> r == usize::from(me) >> r;
            (0..8).filter(same).map(|o| d[o]).sum()
        };
        let graph = Rc::new(gsum_graph(8));
        run_nodes(
            HostParams::default(),
            8,
            None,
            |ep| GsumNode::new(ep, Rc::clone(&graph), false),
            |e| StartGsum {
                value: d[usize::from(e)],
            },
            |me, node: &GsumNode| {
                let expect: Vec<f64> = (0..3).map(|r| group(me, r)).collect();
                assert_eq!(node.sent, expect, "node {me}");
                assert_eq!(node.result, Some(group(me, 3)));
            },
        );
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
    fn nan_operand_is_summed_like_any_other_value() {
        // A NaN is an operand, not a protocol marker: the butterfly (clean
        // and retransmitting) and the tree complete, and every node holds
        // the IEEE sum (the harness compares the nodes' results as bits).
        let host = HostParams::default();
        let vals = [f64::NAN, 1.0, 2.0, 3.0];
        assert!(measure_gsum(host, &vals, false).value.is_nan());
        let plan = FaultPlan::new(0x65).link_window(0.0, 40.0, 0.25, 0.2);
        let (m, r) = measure_gsum_faulty(host, &vals, &plan);
        assert!(m.value.is_nan());
        assert!(r.value_resends > 0, "no value was ever resent: {r:?}");
        assert!(measure_gsum_tree(host, &vals).value.is_nan());
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
        let (c, b) = hyades_des::stats::linear_fit(&pts);
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
