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
//! The graphs are built from the tag constants the VI leg
//! (`hyades_startx::vi`) and `gsum.rs` dispatch on, so the alphabet
//! proven is the alphabet that runs.

use crate::exchange::torus_schedule;
use crate::gsum::{self, GSUM_RESEND_BASE, GSUM_RETRY_BASE};
use hyades_startx::vi::{
    classify, TagKind, TAG_ACK2_BASE, TAG_ACK_BASE, TAG_DATA, TAG_DONE2_BASE, TAG_DONE_BASE,
    TAG_PROBE_BASE, TAG_REQ2_BASE, TAG_REQ_BASE, TAG_RETRY_BASE,
};
use std::collections::BTreeMap;

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
        assert!(src < self.n_nodes && dst < self.n_nodes && src != dst);
        self.msgs.push(Msg {
            src,
            dst,
            tag,
            enveloped: false,
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

/// One message of an exchange leg: the tag it travels under in round 0,
/// its name, and whether it runs back from the leg's receiver to its
/// sender.
type LegMsg = (u16, &'static str, bool);
const FWD: bool = false;
const BACK: bool = true;

/// The fault-free leg: a REQ → ACK → DATA-stream → DONE envelope.
const EXCHANGE_LEG: [LegMsg; 4] = [
    (TAG_REQ_BASE, "req", FWD),
    (TAG_ACK_BASE, "ack", BACK),
    (TAG_DATA, "data", FWD),
    (TAG_DONE_BASE, "done", BACK),
];

/// The leg with every recovery message of the retransmit protocol fired
/// once, in its worst-case serial order: REQ is resent (REQ2) and both are
/// acknowledged (ACK, ACK2), the DATA stream runs, the sender PROBEs, the
/// receiver NAKs with RETRY, the stream is rewound (a second DATA
/// stream), and DONE is resent (DONE2) after the PROBE.
const EXCHANGE_RECOVERY_LEG: [LegMsg; 10] = [
    (TAG_REQ_BASE, "req", FWD),
    (TAG_REQ2_BASE, "req2", FWD),
    (TAG_ACK_BASE, "ack", BACK),
    (TAG_ACK2_BASE, "ack2", BACK),
    (TAG_DATA, "data", FWD),
    (TAG_PROBE_BASE, "probe", FWD),
    (TAG_RETRY_BASE, "retry", BACK),
    (TAG_DATA, "data.rewind", FWD),
    (TAG_DONE_BASE, "done", BACK),
    (TAG_DONE2_BASE, "done2", BACK),
];

/// The §4.1 schedule for a periodic `px × py` tile grid with every
/// transfer leg running `leg`: per round each paired node runs two
/// sequential half-legs in opposite directions.
fn exchange_legs(px: u16, py: u16, leg: &[LegMsg]) -> CommGraph {
    let schedules = torus_schedule(px, py, 1);
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
                for &(tag, name, back) in leg {
                    let (src, dst) = if back { (to, from) } else { (from, to) };
                    let label = format!("exch.r{round}.h{half}.{name}.{src}->{dst}");
                    // A DATA stream is one message, sequenced inside its
                    // envelope; everything else carries the round.
                    let data = matches!(classify(tag), Some((TagKind::Data, _)));
                    let tag = if data { tag } else { tag + round as u16 };
                    let m = g.transfer(src, dst, tag, label);
                    g.msgs[m].enveloped = data;
                }
            }
        }
    }
    g
}

/// The full §4.1 exchange schedule for a periodic `px × py` tile grid
/// (the DATA stream is modeled as one enveloped message).
pub fn exchange_graph(px: u16, py: u16) -> CommGraph {
    exchange_legs(px, py, &EXCHANGE_LEG)
}

/// The exchange schedule with every recovery leg exercised once per
/// transfer. Verifying this graph proves the extended protocol keeps
/// per-channel tag uniqueness and stays deadlock-free even when *every*
/// retransmit path fires.
pub fn exchange_recovery_graph(px: u16, py: u16) -> CommGraph {
    exchange_legs(px, py, &EXCHANGE_RECOVERY_LEG)
}

/// One partner's program for a butterfly round: a `Send` posts its own
/// message of that kind, a `Recv` blocks on the partner's.
type RoundOp = (Dir, gsum::TagKind);

/// Send-then-recv on both sides: the posts never block, so the cross-wise
/// receives always complete.
const GSUM_ROUND: [RoundOp; 2] = [
    (Dir::Send, gsum::TagKind::Value),
    (Dir::Recv, gsum::TagKind::Value),
];

/// Both directions of the recovery protocol fired: post value and
/// re-request (RETRY), answer the partner's re-request (RESEND), then
/// block on the partner's value and resend. Every recv's matching send
/// precedes it behind only non-blocking ops, so the interleaving is
/// realizable and acyclic.
const GSUM_RECOVERY_ROUND: [RoundOp; 6] = [
    (Dir::Send, gsum::TagKind::Value),
    (Dir::Send, gsum::TagKind::Retry),
    (Dir::Recv, gsum::TagKind::Retry),
    (Dir::Send, gsum::TagKind::Resend),
    (Dir::Recv, gsum::TagKind::Value),
    (Dir::Recv, gsum::TagKind::Resend),
];

/// The §4.2 butterfly for `n` nodes (`n` a power of two): `log2 n`
/// rounds, partner `me ^ (1 << round)`, both partners running `side`.
fn gsum_rounds(n: u16, side: &[RoundOp]) -> CommGraph {
    assert!(n.is_power_of_two(), "butterfly needs a power-of-two size");
    let mut g = CommGraph::new(n);
    let rounds = n.trailing_zeros() as u16;
    for round in 0..rounds {
        for me in 0..n {
            let p = me ^ (1 << round);
            if me > p {
                continue;
            }
            // The pair's two messages of each kind: `[from me, from p]`.
            let mut msgs: BTreeMap<gsum::TagKind, [usize; 2]> = BTreeMap::new();
            for &(_, kind) in side.iter().filter(|op| op.0 == Dir::Send) {
                let (base, name) = match kind {
                    gsum::TagKind::Value => (0, "val"),
                    gsum::TagKind::Retry => (GSUM_RETRY_BASE, "retry"),
                    gsum::TagKind::Resend => (GSUM_RESEND_BASE, "resend"),
                };
                let mut msg = |a: u16, b: u16| {
                    g.msg(a, b, base + round, format!("gsum.r{round}.{name}.{a}->{b}"))
                };
                msgs.insert(kind, [msg(me, p), msg(p, me)]);
            }
            for mine in [0, 1] {
                for &(dir, kind) in side {
                    match dir {
                        Dir::Send => g.send(msgs[&kind][mine]),
                        Dir::Recv => g.recv(msgs[&kind][1 - mine]),
                    }
                }
            }
        }
    }
    g
}

/// The §4.2 global-sum butterfly for `n` nodes.
pub fn gsum_graph(n: u16) -> CommGraph {
    gsum_rounds(n, &GSUM_ROUND)
}

/// The butterfly with both directions of the recovery protocol fired in
/// every round. Verifying it proves the recovery tags never alias a
/// channel and the extended butterfly cannot deadlock.
pub fn gsum_recovery_graph(n: u16) -> CommGraph {
    gsum_rounds(n, &GSUM_RECOVERY_ROUND)
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
        use std::collections::BTreeSet;

        // Every tag of the 11-bit space either classifies or is rejected
        // (a node panics on a `None`); what classifies, within the four
        // rounds of a 4×4 exchange, is exactly what was proven.
        let proven = exchange_recovery_graph(4, 4).msgs;
        let dispatched: BTreeSet<u16> = (0..=0x7FF)
            .filter(|&tag| classify(tag).is_some_and(|(_, round)| round < 4))
            .collect();
        assert_eq!(
            proven.iter().map(|m| m.tag).collect::<BTreeSet<_>>(),
            dispatched
        );
        // The node decodes every proven tag to the kind and round the
        // graph labels it with, and the recovery leg uses every kind.
        let mut kinds = BTreeSet::new();
        for m in &proven {
            let (kind, round) = classify(m.tag).expect("proven tags dispatch");
            let (name, rounded) = match kind {
                TagKind::Req => ("req", true),
                TagKind::Ack => ("ack", true),
                TagKind::Data => ("data", false),
                TagKind::Done => ("done", true),
                TagKind::Probe => ("probe", true),
                TagKind::Retry => ("retry", true),
            };
            let label: Vec<&str> = m.label.split('.').collect();
            assert!(
                label[3].starts_with(name) && (!rounded || label[1] == format!("r{round}")),
                "tag {:#x} of {} dispatches as {kind:?} round {round}",
                m.tag,
                m.label
            );
            kinds.insert(kind);
        }
        assert_eq!(kinds.len(), 6);

        // Gsum: likewise.
        let mut kinds = BTreeSet::new();
        for m in &gsum_recovery_graph(16).msgs {
            let (kind, round) = gsum::classify(m.tag);
            let label = match kind {
                gsum::TagKind::Value => "val",
                gsum::TagKind::Retry => "retry",
                gsum::TagKind::Resend => "resend",
            };
            assert!(
                m.label.starts_with(&format!("gsum.r{round}.{label}.")),
                "tag {:#x} of {} dispatches as {kind:?} round {round}",
                m.tag,
                m.label
            );
            kinds.insert(kind);
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
