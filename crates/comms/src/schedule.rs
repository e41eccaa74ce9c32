//! Static communication schedules as explicit dependency graphs.
//!
//! The exchange (§4.1) and global-sum butterfly (§4.2) are *hand-scheduled*
//! protocols: their correctness (no deadlock, no tag aliasing on a
//! channel) is a property of the schedule itself, not of any particular
//! run. This module reifies a schedule as a [`CommGraph`] — every message
//! with its directed channel and tag, plus each node's program order over
//! its send/recv operations — so the analyzer in `hyades-lint`
//! (`lint::schedule`) can *prove* the properties statically: tag
//! uniqueness per channel, and deadlock-freedom via cycle detection over
//! the wait-for graph.
//!
//! Operation semantics mirror the runtime backends: sends are
//! non-blocking posts (unbounded channels / VI doorbells), receives block
//! on their keyed channel. A schedule is deadlock-free iff the graph with
//! program-order edges plus send→recv match edges is acyclic.
//!
//! The graphs are built from the tag constants `exchange.rs` and
//! `gsum.rs` dispatch on, so the alphabet proven is the alphabet that
//! runs.

use crate::exchange::{
    TAG_ACK2_BASE, TAG_ACK_BASE, TAG_DATA, TAG_DONE2_BASE, TAG_DONE_BASE, TAG_PROBE_BASE,
    TAG_REQ2_BASE, TAG_REQ_BASE, TAG_RETRY_BASE,
};
use crate::gsum::{GSUM_RESEND_BASE, GSUM_RETRY_BASE};

/// One message of the schedule: a directed channel (`src` → `dst`) and
/// the tag it travels under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    pub src: u16,
    pub dst: u16,
    pub tag: u16,
    /// Sequenced inside a control envelope (e.g. the DATA stream between
    /// ACK and DONE): the shared tag is exempt from per-channel tag
    /// uniqueness because the envelope guarantees only one such stream is
    /// in flight on the channel at a time.
    pub enveloped: bool,
    /// Human-readable name, used to render wait-for cycles.
    pub label: String,
}

/// Which side of a message an operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Send,
    Recv,
}

/// One operation in a node's program: the `Dir` side of message `msg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub msg: usize,
    pub dir: Dir,
}

/// A complete static schedule: messages plus each node's ordered program
/// of send/recv operations.
#[derive(Debug, Clone, Default)]
pub struct CommGraph {
    pub n_nodes: u16,
    pub msgs: Vec<Msg>,
    /// `program[node]` = that node's operations, in execution order.
    pub program: Vec<Vec<Op>>,
}

impl CommGraph {
    pub fn new(n_nodes: u16) -> Self {
        CommGraph {
            n_nodes,
            msgs: Vec::new(),
            program: vec![Vec::new(); n_nodes as usize],
        }
    }

    /// Declare a message without scheduling its operations (callers then
    /// place `send`/`recv` explicitly to express interleavings).
    pub fn msg(&mut self, src: u16, dst: u16, tag: u16, label: impl Into<String>) -> usize {
        self.msg_full(src, dst, tag, false, label)
    }

    fn msg_full(
        &mut self,
        src: u16,
        dst: u16,
        tag: u16,
        enveloped: bool,
        label: impl Into<String>,
    ) -> usize {
        assert!(src < self.n_nodes && dst < self.n_nodes && src != dst);
        self.msgs.push(Msg {
            src,
            dst,
            tag,
            enveloped,
            label: label.into(),
        });
        self.msgs.len() - 1
    }

    /// Append the send side of `msg` to its source's program.
    pub fn send(&mut self, m: usize) {
        let src = self.msgs[m].src;
        self.program[src as usize].push(Op {
            msg: m,
            dir: Dir::Send,
        });
    }

    /// Append the recv side of `msg` to its destination's program.
    pub fn recv(&mut self, m: usize) {
        let dst = self.msgs[m].dst;
        self.program[dst as usize].push(Op {
            msg: m,
            dir: Dir::Recv,
        });
    }

    /// Declare a message and schedule both sides at the current end of
    /// each endpoint's program (the common half-duplex case).
    pub fn transfer(&mut self, src: u16, dst: u16, tag: u16, label: impl Into<String>) -> usize {
        let m = self.msg(src, dst, tag, label);
        self.send(m);
        self.recv(m);
        m
    }

    /// `transfer`, but tagged as sequenced within a control envelope.
    pub fn transfer_enveloped(
        &mut self,
        src: u16,
        dst: u16,
        tag: u16,
        label: impl Into<String>,
    ) -> usize {
        let m = self.msg_full(src, dst, tag, true, label);
        self.send(m);
        self.recv(m);
        m
    }

    /// Concatenate `other` after this graph: same nodes, every node's
    /// program from `other` runs after its program here (the primitives
    /// execute back to back on each rank).
    pub fn append(&mut self, other: &CommGraph) {
        assert_eq!(self.n_nodes, other.n_nodes, "appending mismatched graphs");
        let offset = self.msgs.len();
        self.msgs.extend(other.msgs.iter().cloned());
        for (mine, theirs) in self.program.iter_mut().zip(&other.program) {
            mine.extend(theirs.iter().map(|op| Op {
                msg: op.msg + offset,
                dir: op.dir,
            }));
        }
    }
}

/// The full §4.1 exchange schedule for a periodic `px × py` tile grid:
/// per round each paired node runs two sequential half-legs, each a
/// REQ → ACK → DATA-stream → DONE envelope (the DATA stream is modeled
/// as one enveloped message).
pub fn exchange_graph(px: u16, py: u16) -> CommGraph {
    let schedules = crate::exchange::torus_schedule(px, py, 1);
    let mut g = CommGraph::new(px * py);
    let rounds = schedules[0].len();
    for round in 0..rounds {
        for me in 0..px * py {
            let Some(plan) = schedules[me as usize][round] else {
                continue;
            };
            // Each pair appears twice per round; emit it once, from the
            // first-sender's side, in protocol order. `transfer` placement
            // reproduces each endpoint's own operation order because the
            // envelope is half-duplex (exactly one message in flight).
            if !plan.sends_first {
                continue;
            }
            let (s, r) = (me, plan.partner);
            for (half, from, to) in [(1u8, s, r), (2u8, r, s)] {
                let tag = |base: u16| base + round as u16;
                let name = |kind: &str| format!("exch.r{round}.h{half}.{kind}.{from}->{to}");
                g.transfer(from, to, tag(TAG_REQ_BASE), name("req"));
                g.transfer(
                    to,
                    from,
                    tag(TAG_ACK_BASE),
                    format!("exch.r{round}.h{half}.ack.{to}->{from}"),
                );
                g.transfer_enveloped(from, to, TAG_DATA, name("data"));
                g.transfer(
                    to,
                    from,
                    tag(TAG_DONE_BASE),
                    format!("exch.r{round}.h{half}.done.{to}->{from}"),
                );
            }
        }
    }
    g
}

/// The exchange schedule with every recovery leg of the retransmit
/// protocol exercised once, in its worst-case serial order: REQ is
/// resent (REQ2) and both are acknowledged (ACK, ACK2), the DATA stream
/// runs, the sender PROBEs, the receiver NAKs with RETRY, the stream is
/// rewound (a second enveloped DATA message), and DONE is resent
/// (DONE2) after the PROBE. Verifying this graph proves the extended
/// protocol keeps per-channel tag uniqueness and stays deadlock-free
/// even when *every* retransmit path fires.
pub fn exchange_recovery_graph(px: u16, py: u16) -> CommGraph {
    let schedules = crate::exchange::torus_schedule(px, py, 1);
    let mut g = CommGraph::new(px * py);
    let rounds = schedules[0].len();
    for round in 0..rounds {
        for me in 0..px * py {
            let Some(plan) = schedules[me as usize][round] else {
                continue;
            };
            if !plan.sends_first {
                continue;
            }
            let (s, r) = (me, plan.partner);
            for (half, from, to) in [(1u8, s, r), (2u8, r, s)] {
                let tag = |base: u16| base + round as u16;
                let fwd = |kind: &str| format!("exch.r{round}.h{half}.{kind}.{from}->{to}");
                let back = |kind: &str| format!("exch.r{round}.h{half}.{kind}.{to}->{from}");
                g.transfer(from, to, tag(TAG_REQ_BASE), fwd("req"));
                g.transfer(from, to, tag(TAG_REQ2_BASE), fwd("req2"));
                g.transfer(to, from, tag(TAG_ACK_BASE), back("ack"));
                g.transfer(to, from, tag(TAG_ACK2_BASE), back("ack2"));
                g.transfer_enveloped(from, to, TAG_DATA, fwd("data"));
                g.transfer(from, to, tag(TAG_PROBE_BASE), fwd("probe"));
                g.transfer(to, from, tag(TAG_RETRY_BASE), back("retry"));
                g.transfer_enveloped(from, to, TAG_DATA, fwd("data.rewind"));
                g.transfer(to, from, tag(TAG_DONE_BASE), back("done"));
                g.transfer(to, from, tag(TAG_DONE2_BASE), back("done2"));
            }
        }
    }
    g
}

/// The §4.2 global-sum butterfly for `n` nodes (`n` a power of two):
/// `log2 n` rounds, partner `me ^ (1 << round)`, both partners post
/// their send before blocking on the matching receive.
pub fn gsum_graph(n: u16) -> CommGraph {
    assert!(n.is_power_of_two(), "butterfly needs a power-of-two size");
    let mut g = CommGraph::new(n);
    let rounds = n.trailing_zeros() as u16;
    for round in 0..rounds {
        for me in 0..n {
            let p = me ^ (1 << round);
            if me > p {
                continue;
            }
            let fwd = g.msg(me, p, round, format!("gsum.r{round}.{me}->{p}"));
            let back = g.msg(p, me, round, format!("gsum.r{round}.{p}->{me}"));
            // Send-then-recv on both sides: the posts never block, so the
            // cross-wise receives always complete.
            g.send(fwd);
            g.recv(back);
            g.send(back);
            g.recv(fwd);
        }
    }
    g
}

/// The butterfly with both directions of the recovery protocol fired in
/// every round: each partner re-requests the other's value (RETRY) and
/// answers the partner's re-request (RESEND). All sends are non-blocking
/// posts, so the interleaving below is realizable and acyclic; verifying
/// it proves the recovery tags never alias a channel and the extended
/// butterfly cannot deadlock.
pub fn gsum_recovery_graph(n: u16) -> CommGraph {
    assert!(n.is_power_of_two(), "butterfly needs a power-of-two size");
    let mut g = CommGraph::new(n);
    let rounds = n.trailing_zeros() as u16;
    for round in 0..rounds {
        for me in 0..n {
            let p = me ^ (1 << round);
            if me > p {
                continue;
            }
            let name = |kind: &str, a: u16, b: u16| format!("gsum.r{round}.{kind}.{a}->{b}");
            let fwd = g.msg(me, p, round, name("val", me, p));
            let back = g.msg(p, me, round, name("val", p, me));
            let retry_from_me = g.msg(me, p, GSUM_RETRY_BASE + round, name("retry", me, p));
            let retry_from_p = g.msg(p, me, GSUM_RETRY_BASE + round, name("retry", p, me));
            let resend_from_me = g.msg(me, p, GSUM_RESEND_BASE + round, name("resend", me, p));
            let resend_from_p = g.msg(p, me, GSUM_RESEND_BASE + round, name("resend", p, me));
            // `me`'s program: post value and re-request, answer the
            // partner's re-request, then block on the partner's value and
            // resend. `p` runs the mirror image; every recv's matching
            // send precedes it behind only non-blocking ops.
            g.send(fwd);
            g.send(retry_from_me);
            g.recv(retry_from_p);
            g.send(resend_from_me);
            g.recv(back);
            g.recv(resend_from_p);

            g.send(back);
            g.send(retry_from_p);
            g.recv(retry_from_me);
            g.send(resend_from_p);
            g.recv(fwd);
            g.recv(resend_from_me);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_graph_shape() {
        // 4x4 torus: 4 rounds, 8 pairs per round, 8 messages per pair
        // round (2 half-legs x REQ/ACK/DATA/DONE).
        let g = exchange_graph(4, 4);
        assert_eq!(g.n_nodes, 16);
        assert_eq!(g.msgs.len(), 4 * 8 * 8);
        // Every node is in one pair per round; the pair's 8 messages each
        // contribute one op (send or recv) to each endpoint: 8 ops/round.
        for prog in &g.program {
            assert_eq!(prog.len(), 4 * 8);
        }
    }

    #[test]
    fn gsum_graph_shape() {
        let g = gsum_graph(16);
        assert_eq!(g.msgs.len(), 4 * 16); // log2(16) rounds x n msgs
        for prog in &g.program {
            assert_eq!(prog.len(), 4 * 2); // send + recv per round
        }
    }

    #[test]
    fn recovery_graph_shapes() {
        // Exchange: 10 messages per half-leg instead of 4.
        let g = exchange_recovery_graph(4, 4);
        assert_eq!(g.n_nodes, 16);
        assert_eq!(g.msgs.len(), 4 * 8 * 2 * 10);
        for prog in &g.program {
            assert_eq!(prog.len(), 4 * 2 * 10);
        }
        // Gsum: 6 messages per pair-round instead of 2.
        let g = gsum_recovery_graph(16);
        assert_eq!(g.msgs.len(), 4 * 8 * 6);
        for prog in &g.program {
            assert_eq!(prog.len(), 4 * 6);
        }
    }

    #[test]
    fn proven_tag_alphabet_is_the_dispatched_alphabet() {
        use crate::exchange::{torus_schedule, ExchangeNode, TAG_BASE_MASK};
        use crate::gsum::{classify, TagKind};
        use hyades_arctic::network::Delivered;
        use hyades_arctic::packet::{Packet, Priority};
        use hyades_des::event::Payload;
        use hyades_des::{Actor, Ctx, SimTime, Simulator};
        use std::collections::BTreeSet;

        // Exchange: DATA is one full tag, every other kind a base + round.
        let alphabet = |tag: u16| {
            if tag == TAG_DATA {
                tag
            } else {
                tag & TAG_BASE_MASK
            }
        };
        let proven: BTreeSet<u16> = exchange_recovery_graph(4, 4)
            .msgs
            .iter()
            .map(|m| alphabet(m.tag))
            .collect();
        // `on_packet` panics on a tag it does not dispatch: hand a fresh
        // node one packet under every base of the 11-bit tag space.
        struct Sink;
        impl Actor for Sink {
            fn on_event(&mut self, _ev: Payload, _ctx: &mut Ctx<'_>) {}
        }
        let dispatches = |tag: u16| {
            std::panic::catch_unwind(|| {
                let mut sim = Simulator::new();
                let tx = sim.add_actor(Sink);
                let schedule = torus_schedule(2, 1, 64).swap_remove(1);
                let node = sim.add_actor(ExchangeNode::new(1, Default::default(), tx, schedule));
                let pkt = Packet::new(0, 1, Priority::High, tag, vec![0, 0]);
                sim.schedule(SimTime::ZERO, node, Delivered { pkt });
                sim.run();
            })
            .is_ok()
        };
        let top_base = 0x7FF & TAG_BASE_MASK;
        let dispatched: BTreeSet<u16> = (0..=top_base)
            .step_by(0x80)
            .chain([TAG_DATA])
            .filter(|&tag| dispatches(tag))
            .map(alphabet)
            .collect();
        assert_eq!(proven, dispatched);

        // Gsum: the node decodes every proven tag to the kind and round
        // the graph labels it with, and the graph uses every kind.
        let mut kinds = BTreeSet::new();
        for m in &gsum_recovery_graph(16).msgs {
            let (kind, round) = classify(m.tag);
            let label = match kind {
                TagKind::Value => "val",
                TagKind::Retry => "retry",
                TagKind::Resend => "resend",
            };
            assert!(
                m.label.starts_with(&format!("gsum.r{round}.{label}.")),
                "tag {:#x} of {} dispatches as {kind:?} round {round}",
                m.tag,
                m.label
            );
            kinds.insert(label);
        }
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn append_concatenates_programs() {
        let mut g = exchange_graph(2, 2);
        let before_msgs = g.msgs.len();
        let before_ops = g.program[0].len();
        g.append(&gsum_graph(4));
        assert_eq!(g.msgs.len(), before_msgs + gsum_graph(4).msgs.len());
        assert!(g.program[0].len() > before_ops);
        // Offsets stay in bounds.
        for prog in &g.program {
            for op in prog {
                assert!(op.msg < g.msgs.len());
            }
        }
    }
}
