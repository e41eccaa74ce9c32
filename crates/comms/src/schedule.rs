//! The proof of a communication schedule.
//!
//! The exchange (§4.1) and global-sum butterfly (§4.2) are *hand-scheduled*
//! protocols: their correctness (no deadlock, no tag aliasing on a
//! channel) is a property of the schedule itself, not of any particular
//! run. Each primitive's schedule is a [`CommGraph`] — every message with
//! its directed channel and tag, plus each node's program order over its
//! send/recv operations — built from the leg or round template beside the
//! node that runs it ([`exchange_graph`], [`gsum_graph`]), and the nodes
//! of every `measure_*` run that very graph. [`verify`] proves two
//! properties of it statically:
//!
//! 1. **Tag uniqueness per directed channel.** Two non-enveloped
//!    messages on the same `(src, dst)` channel must not share a tag, or
//!    a receive keyed by `(src, tag)` could match the wrong transfer.
//! 2. **Deadlock-freedom.** Operation semantics mirror the runtime
//!    backends: sends are non-blocking posts (unbounded channels / VI
//!    doorbells), receives block on their keyed channel. The schedule can
//!    deadlock iff its wait-for graph — program-order edges within each
//!    node plus a match edge from every send to its receive — has a
//!    cycle; on failure the cycle is returned *named*, each step a
//!    concrete operation, so the offending edit is identifiable.
//!
//! The [`ScheduleProof`] also reports the critical depth (longest
//! dependency chain), a lower bound on the schedule's serial latency in
//! hops. The recovery graphs ([`exchange_recovery_graph`],
//! [`gsum_recovery_graph`]) fire every retransmit message once beside
//! the fault-free ones, under the tags the nodes' recovery handlers
//! send. The dynamic counterpart, the vector-clock happens-before check
//! over recorded `ThreadWorld` event streams, is
//! `hyades_telemetry::matcher::check`.
//!
//! [`exchange_graph`]: crate::exchange::exchange_graph
//! [`exchange_recovery_graph`]: crate::exchange::exchange_recovery_graph
//! [`gsum_graph`]: crate::gsum::gsum_graph
//! [`gsum_recovery_graph`]: crate::gsum::gsum_recovery_graph

use hyades_startx::node::{CommGraph, Dir};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Successful verification: the schedule's vital statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleProof {
    pub nodes: usize,
    pub messages: usize,
    pub operations: usize,
    /// Distinct directed channels used.
    pub channels: usize,
    /// Longest dependency chain, in operations.
    pub critical_depth: usize,
}

impl fmt::Display for ScheduleProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock-free: {} nodes, {} messages over {} channels, {} ops, critical depth {}",
            self.nodes, self.messages, self.channels, self.operations, self.critical_depth
        )
    }
}

/// Why verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The wait-for graph has a cycle; `cycle` names the operations
    /// around it (first repeated at the end for readability).
    WaitForCycle { cycle: Vec<String> },
    /// Two messages on the same directed channel share a tag.
    TagCollision {
        src: u16,
        dst: u16,
        tag: u16,
        first: String,
        second: String,
    },
    /// A message is missing an operation, or scheduled more than once.
    Malformed(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::WaitForCycle { cycle } => {
                write!(f, "wait-for cycle: {}", cycle.join(" -> "))
            }
            ScheduleError::TagCollision {
                src,
                dst,
                tag,
                first,
                second,
            } => write!(
                f,
                "tag 0x{tag:03X} reused on channel {src}->{dst}: `{first}` vs `{second}`"
            ),
            ScheduleError::Malformed(m) => write!(f, "malformed schedule: {m}"),
        }
    }
}

/// Where the cycle search has got to with one operation.
#[derive(Clone, Copy)]
enum Visit {
    Unseen,
    /// On the DFS stack, at this position.
    OnStack(usize),
    Done,
}

/// Verify a schedule; see the module docs for the properties proven.
pub fn verify(g: &CommGraph) -> Result<ScheduleProof, ScheduleError> {
    // -- structural sanity: each message has exactly one send in its
    // source's program and one recv in its destination's.
    let mut sends = vec![0usize; g.msgs.len()];
    let mut recvs = vec![0usize; g.msgs.len()];
    for (node, prog) in g.program.iter().enumerate() {
        for op in prog {
            let Some(m) = g.msgs.get(op.msg) else {
                return Err(ScheduleError::Malformed(format!(
                    "node {node} references message #{} of {}",
                    op.msg,
                    g.msgs.len()
                )));
            };
            match op.dir {
                Dir::Send => {
                    if m.src as usize != node {
                        return Err(ScheduleError::Malformed(format!(
                            "node {node} sends `{}` owned by node {}",
                            m.label(),
                            m.src
                        )));
                    }
                    sends[op.msg] += 1;
                }
                Dir::Recv => {
                    if m.dst as usize != node {
                        return Err(ScheduleError::Malformed(format!(
                            "node {node} receives `{}` destined for node {}",
                            m.label(),
                            m.dst
                        )));
                    }
                    recvs[op.msg] += 1;
                }
            }
        }
    }
    for (i, m) in g.msgs.iter().enumerate() {
        if sends[i] != 1 || recvs[i] != 1 {
            return Err(ScheduleError::Malformed(format!(
                "`{}` scheduled {} send(s) / {} recv(s); need exactly 1 each",
                m.label(),
                sends[i],
                recvs[i]
            )));
        }
    }

    // -- tag uniqueness per directed channel (enveloped streams exempt:
    // their envelope serializes them).
    let mut by_channel_tag: BTreeMap<(u16, u16, u16), usize> = BTreeMap::new();
    let mut channels: BTreeSet<(u16, u16)> = BTreeSet::new();
    for (i, m) in g.msgs.iter().enumerate() {
        channels.insert((m.src, m.dst));
        if m.enveloped {
            continue;
        }
        if let Some(first) = by_channel_tag.insert((m.src, m.dst, m.tag), i) {
            return Err(ScheduleError::TagCollision {
                src: m.src,
                dst: m.dst,
                tag: m.tag,
                first: g.msgs[first].label(),
                second: m.label(),
            });
        }
    }

    // -- wait-for graph over flattened operations.
    let mut op_node = Vec::new(); // global op index -> (node, op)
    let mut send_of = vec![usize::MAX; g.msgs.len()];
    let mut recv_of = vec![usize::MAX; g.msgs.len()];
    for (node, prog) in g.program.iter().enumerate() {
        for op in prog {
            let id = op_node.len();
            op_node.push((node, *op));
            match op.dir {
                Dir::Send => send_of[op.msg] = id,
                Dir::Recv => recv_of[op.msg] = id,
            }
        }
    }
    let n_ops = op_node.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
    let mut id = 0usize;
    for prog in &g.program {
        for k in 0..prog.len() {
            if k + 1 < prog.len() {
                edges[id].push(id + 1);
            }
            id += 1;
        }
    }
    for m in 0..g.msgs.len() {
        edges[send_of[m]].push(recv_of[m]);
    }

    let name = |op_id: usize| {
        let (node, op) = op_node[op_id];
        let dir = match op.dir {
            Dir::Send => "send",
            Dir::Recv => "recv",
        };
        format!("node{node}.{dir}({})", g.msgs[op.msg].label())
    };

    // -- deterministic iterative DFS cycle detection, visiting ops and
    // edges in index order.
    let mut visit = vec![Visit::Unseen; n_ops];
    for start in 0..n_ops {
        if !matches!(visit[start], Visit::Unseen) {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        visit[start] = Visit::OnStack(0);
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < edges[v].len() {
                let w = edges[v][*next];
                *next += 1;
                match visit[w] {
                    Visit::Unseen => {
                        visit[w] = Visit::OnStack(stack.len());
                        stack.push((w, 0));
                    }
                    Visit::OnStack(pos) => {
                        // Back edge: the cycle is w ... v w on the stack.
                        let mut cycle: Vec<String> =
                            stack[pos..].iter().map(|&(s, _)| name(s)).collect();
                        cycle.push(name(w));
                        return Err(ScheduleError::WaitForCycle { cycle });
                    }
                    Visit::Done => {}
                }
            } else {
                visit[v] = Visit::Done;
                stack.pop();
            }
        }
    }

    // -- critical depth: longest path over the (now proven acyclic)
    // graph, computed over ops in reverse topological order via memoized
    // DFS. Iterative to keep deep schedules off the call stack.
    let mut depth = vec![0usize; n_ops];
    let mut done = vec![false; n_ops];
    for start in 0..n_ops {
        if done[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < edges[v].len() {
                let w = edges[v][*next];
                *next += 1;
                if !done[w] {
                    stack.push((w, 0));
                }
            } else {
                depth[v] = 1 + edges[v].iter().map(|&w| depth[w]).max().unwrap_or(0);
                done[v] = true;
                stack.pop();
            }
        }
    }
    let critical_depth = depth.iter().copied().max().unwrap_or(0);

    Ok(ScheduleProof {
        nodes: g.n_nodes as usize,
        messages: g.msgs.len(),
        operations: n_ops,
        channels: channels.len(),
        critical_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{exchange_graph, exchange_recovery_graph};
    use crate::gsum::{self, gsum_graph, gsum_recovery_graph};
    use hyades_startx::vi::{classify, TagKind, EXCHANGE_RECOVERY_LEG};

    /// The tile grids the repository measures exchanges on.
    const MEASURED_EXCHANGES: [(u16, u16); 6] = [(1, 2), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)];
    /// The butterfly sizes it measures global sums on.
    const MEASURED_GSUMS: [u16; 4] = [2, 4, 8, 16];

    #[test]
    fn exchange_graph_shape() {
        // 4x4 torus: 4 rounds, 8 pairs per round, 8 messages per pair
        // round (2 legs x REQ/ACK/DATA/DONE).
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
        // Exchange: 10 messages per leg instead of 4.
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
        // Every tag of the 11-bit space either classifies or is rejected
        // (a node panics on a `None`); what classifies, within the four
        // rounds of a 4×4 exchange, is exactly what was proven.
        let g = exchange_recovery_graph(4, 4);
        let dispatched: BTreeSet<u16> = (0..=0x7FF)
            .filter(|&tag| classify(tag).is_some_and(|(_, round)| round < 4))
            .collect();
        assert_eq!(
            g.msgs.iter().map(|m| m.tag).collect::<BTreeSet<_>>(),
            dispatched
        );
        // The node decodes every proven tag to the kind the graph names
        // it and, leg k of a node's program, to pairing round k / 2; the
        // recovery leg uses every kind.
        let mut kinds = BTreeSet::new();
        for prog in &g.program {
            for (k, leg) in prog.chunks(EXCHANGE_RECOVERY_LEG.len()).enumerate() {
                for op in leg {
                    let m = &g.msgs[op.msg];
                    let (kind, round) = classify(m.tag).expect("proven tags dispatch");
                    let (name, rounded) = match kind {
                        TagKind::Req => ("exch.req", true),
                        TagKind::Ack => ("exch.ack", true),
                        TagKind::Data => ("exch.data", false),
                        TagKind::Done => ("exch.done", true),
                        TagKind::Probe => ("exch.probe", true),
                        TagKind::Retry => ("exch.retry", true),
                    };
                    assert!(
                        m.name.starts_with(name) && (!rounded || round == k / 2),
                        "{} of leg {k} dispatches as {kind:?} round {round}",
                        m.label()
                    );
                    kinds.insert(kind);
                }
            }
        }
        assert_eq!(kinds.len(), 6);

        // Gsum: likewise, round r of a node's program being its r-th
        // group of six ops.
        let g = gsum_recovery_graph(16);
        let mut kinds = BTreeSet::new();
        for prog in &g.program {
            for (r, ops) in prog.chunks(6).enumerate() {
                for op in ops {
                    let m = &g.msgs[op.msg];
                    let (kind, round) = gsum::classify(m.tag);
                    let name = match kind {
                        gsum::TagKind::Value => "gsum.val",
                        gsum::TagKind::Retry => "gsum.retry",
                        gsum::TagKind::Resend => "gsum.resend",
                    };
                    assert!(
                        m.name == name && round as usize == r,
                        "{} of round {r} dispatches as {kind:?} round {round}",
                        m.label()
                    );
                    kinds.insert(kind);
                }
            }
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

    #[test]
    fn exchange_16_nodes_is_deadlock_free() {
        // The graphs the exchange measurements run, the 4×4 of E16 among
        // them.
        for (px, py) in MEASURED_EXCHANGES {
            let proof =
                verify(&exchange_graph(px, py)).unwrap_or_else(|e| panic!("{px}x{py}: {e}"));
            assert_eq!(proof.nodes, usize::from(px * py));
        }
        let proof = verify(&exchange_graph(4, 4)).unwrap();
        assert!(proof.critical_depth >= 16, "four 4-hop envelopes per node");
    }

    #[test]
    fn gsum_16_nodes_is_deadlock_free() {
        // The graphs the global-sum measurements run.
        for n in MEASURED_GSUMS {
            let proof = verify(&gsum_graph(n)).unwrap_or_else(|e| panic!("{n}-way: {e}"));
            let rounds = n.trailing_zeros() as usize;
            assert_eq!(proof.messages, usize::from(n) * rounds);
        }
    }

    #[test]
    fn exchange_recovery_protocol_is_deadlock_free() {
        // Every retransmit leg (REQ2/ACK2/PROBE/RETRY/DATA-rewind/DONE2)
        // fired at once: tag-unique per channel and acyclic, so no
        // interleaving of timeouts can wedge a rank.
        for (px, py) in MEASURED_EXCHANGES {
            let plain = verify(&exchange_graph(px, py)).expect("plain exchange must verify");
            let proof = verify(&exchange_recovery_graph(px, py))
                .unwrap_or_else(|e| panic!("{px}x{py} recovery exchange: {e}"));
            assert_eq!(proof.nodes, usize::from(px * py));
            assert!(
                proof.critical_depth > plain.critical_depth,
                "recovery legs must lengthen the worst-case conversation"
            );
        }
    }

    #[test]
    fn gsum_recovery_protocol_is_deadlock_free() {
        for n in MEASURED_GSUMS {
            let proof = verify(&gsum_recovery_graph(n))
                .unwrap_or_else(|e| panic!("{n}-rank recovery butterfly: {e}"));
            assert_eq!(proof.nodes, usize::from(n));
            // RETRY + RESEND beside every value.
            let rounds = n.trailing_zeros() as usize;
            assert_eq!(proof.messages, 3 * usize::from(n) * rounds);
        }
    }

    #[test]
    fn combined_recovery_schedule_verifies() {
        // The full fault-era step schedule: recovery exchange then
        // recovery gsum, back to back on every rank.
        let mut g = exchange_recovery_graph(4, 4);
        g.append(&gsum_recovery_graph(16));
        let proof = verify(&g).expect("combined recovery schedule must verify");
        assert_eq!(proof.nodes, 16);
    }

    #[test]
    fn combined_exchange_then_gsum_verifies() {
        let mut g = exchange_graph(4, 4);
        g.append(&gsum_graph(16));
        let proof = verify(&g).expect("combined schedule must verify");
        assert_eq!(proof.nodes, 16);
        // The combined depth is at least each part's.
        assert!(proof.critical_depth > verify(&gsum_graph(16)).unwrap().critical_depth);
    }

    #[test]
    fn recv_before_send_butterfly_is_rejected_with_named_cycle() {
        // The classic broken butterfly: both partners block on their
        // receive before posting their send.
        let mut g = CommGraph::new(2);
        let fwd = g.msg(0, 1, 0, "bad");
        let back = g.msg(1, 0, 0, "bad");
        g.recv(back);
        g.send(fwd);
        g.recv(fwd);
        g.send(back);
        match verify(&g) {
            Err(ScheduleError::WaitForCycle { cycle }) => {
                assert!(cycle.len() >= 4, "{cycle:?}");
                assert_eq!(cycle.first(), cycle.last());
                assert!(
                    cycle.iter().any(|s| s.contains("bad.0->1"))
                        && cycle.iter().any(|s| s.contains("bad.1->0")),
                    "cycle must name both messages: {cycle:?}"
                );
            }
            other => panic!("expected a named wait-for cycle, got {other:?}"),
        }
    }

    #[test]
    fn tag_reuse_on_a_channel_is_rejected() {
        let mut g = CommGraph::new(2);
        g.transfer(0, 1, 7, "first");
        g.transfer(0, 1, 7, "second");
        match verify(&g) {
            Err(ScheduleError::TagCollision {
                src: 0,
                dst: 1,
                tag: 7,
                first,
                second,
            }) => assert!(first.starts_with("first.") && second.starts_with("second.")),
            other => panic!("expected a tag collision, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_message_is_malformed() {
        let mut g = CommGraph::new(2);
        let m = g.msg(0, 1, 1, "half");
        g.send(m); // no recv scheduled
        assert!(matches!(verify(&g), Err(ScheduleError::Malformed(_))));
    }

    #[test]
    fn proof_renders_stably() {
        let a = verify(&gsum_graph(8)).unwrap();
        let b = verify(&gsum_graph(8)).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.to_string().starts_with("deadlock-free:"));
    }
}
