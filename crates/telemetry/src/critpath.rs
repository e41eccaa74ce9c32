//! Cross-rank critical-path reconstruction: who actually sets the step
//! time.
//!
//! The paper's phase model (eqs. 4–13) predicts the *aggregate* step
//! time of a coupled run but cannot say which rank, phase, or link is on
//! the chain that sets it. This module answers that question from the
//! recordings the flight recorder already makes: each rank's stamped
//! comm log ([`crate::commlog::Stamped`]) carries the charged simulated
//! clock, the charged cost per primitive op, and the PS/DS phase; the
//! vector-clock matcher ([`crate::matcher`]) pairs every send with its
//! receive and every reduction with its round.
//!
//! From those two inputs [`analyze`] rebuilds the global event DAG:
//!
//! * **two nodes per primitive op** (start, end) on every rank, with the
//!   charged op cost on the serial start→end edge;
//! * **compute edges** between consecutive ops on a rank, weighted by
//!   the charged compute time between them (clock delta minus op costs);
//! * **wire edges** from a matched send's op start to its receive's op
//!   end, weighted by the interconnect's point-to-point cost for the
//!   message payload (the `wire` closure — callers pass the same cost
//!   model `TimedWorld` charged against);
//! * **reduce-round joins**: every participant's end waits for the
//!   last-entering participant's start plus its own charged cost.
//!
//! A forward pass walks the events in the order the matcher executed
//! them ([`matcher::MatchedRun::order`], a topological order of the
//! DAG) and computes earliest times and the critical predecessor of
//! every node; a backward pass computes latest times, hence per-rank
//! **slack** — how much that rank could slow before the path moves.
//! Everything is integer-picosecond arithmetic on charged simulated
//! time, so the report is byte-identical across same-seed double runs.
//!
//! Known limit: compute *after* a rank's last comm op is invisible (the
//! log ends at the last recorded event), so perturbations should land
//! before a step's communication if they are to be attributed.

use crate::commlog::Stamped;
use crate::export::{matched_flows, FlowEvent, Us};
use crate::matcher::{self, Executed, MatchError};
use crate::recorder::Phase;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Why the analysis could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CritPathError {
    /// No ranks or no events.
    Empty,
    /// The logs carry no `begin_op` stamps (an untimed run — nothing to
    /// weigh the DAG with).
    Untimed,
    /// The vector-clock replay failed: a real ordering bug in the run.
    Match(MatchError),
}

impl fmt::Display for CritPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CritPathError::Empty => write!(f, "no events to analyze"),
            CritPathError::Untimed => {
                write!(f, "logs carry no op stamps (record under a TimedWorld)")
            }
            CritPathError::Match(e) => write!(f, "event matching failed: {e}"),
        }
    }
}

/// What a primitive op was, from its event mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// Sends and receives (halo exchange, or the root side of a gather).
    Exchange,
    /// An all-ranks reduction round.
    Reduce,
    /// Sends only (the leaf side of a gather).
    SendOnly,
}

/// The critical predecessor of an op's end node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pred {
    /// The op's own start (local cost edge bound).
    Local,
    /// A wire edge from `src`'s op start.
    Msg {
        src: usize,
        src_op: usize,
        msg: usize,
    },
    /// A reduce-round join: the last-entering participant's start.
    Round { src: usize, src_op: usize },
}

/// One reconstructed primitive op on one rank.
#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    phase: Phase,
    step: u32,
    cost_ps: u64,
    /// Charged compute between the previous op's local end and this
    /// op's local start.
    compute_in_ps: u64,
    /// Earliest global start/end (forward pass).
    start_ps: u64,
    end_ps: u64,
    /// Latest start/end (backward pass).
    latest_start_ps: u64,
    latest_end_ps: u64,
    pred: Pred,
}

/// One hop of the rendered critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    pub rank: usize,
    pub phase: Phase,
    pub step: u32,
    /// `"compute"`, `"comm"`, `"reduce"`, `"send"`, or `"wire"`.
    pub kind: &'static str,
    pub dur_ps: u64,
}

/// One wire-bound receive anywhere in the DAG — an op whose end was set
/// by an incoming message rather than its own charged cost — decomposed
/// wait-vs-wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossEdge {
    pub step: u32,
    pub src: usize,
    pub dst: usize,
    pub words: usize,
    /// Point-to-point wire cost of the payload (interconnect model).
    pub wire_ps: u64,
    /// Stall the edge imposed on the receiver beyond its own charged op
    /// cost (`end − start − cost` at the destination).
    pub wait_ps: u64,
}

/// Per-step share of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRow {
    pub step: u32,
    pub path_ps: u64,
    pub dominant_rank: usize,
    pub dominant_phase: Phase,
    pub dominant_ps: u64,
}

/// Per-rank slack and path participation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankRow {
    pub rank: usize,
    /// Minimum over the rank's nodes of `latest − earliest`: how much
    /// the rank could uniformly slow before the critical path moves.
    pub slack_ps: u64,
    pub on_path_ps: u64,
    pub on_path_hops: usize,
}

/// One row of the straggler attribution table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionRow {
    pub rank: usize,
    pub phase: Phase,
    pub kind: &'static str,
    pub path_ps: u64,
    pub hops: usize,
}

/// The full analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPath {
    pub ranks: usize,
    pub ops: usize,
    pub messages: usize,
    pub reductions: usize,
    pub steps: usize,
    /// Earliest completion of the whole run (= sum of the path's hops).
    pub total_path_ps: u64,
    pub hops: Vec<Hop>,
    pub step_rows: Vec<StepRow>,
    pub rank_rows: Vec<RankRow>,
    pub attribution: Vec<AttributionRow>,
    pub cross_edges: Vec<CrossEdge>,
    /// Every matched send→recv pair as a Chrome flow event, from the same
    /// replay (what [`flows_from_stamped`](crate::flows_from_stamped)
    /// returns for these logs).
    pub flows: Vec<FlowEvent>,
}

/// Phase label used across the report and JSON.
pub fn phase_label(p: Phase) -> &'static str {
    match p {
        Phase::Ps => "ps",
        Phase::Ds => "ds",
        Phase::Outside => "outside",
    }
}

fn phase_order(p: Phase) -> u8 {
    match p {
        Phase::Ps => 0,
        Phase::Ds => 1,
        Phase::Outside => 2,
    }
}

/// Reconstruct the event DAG from stamped per-rank logs and compute the
/// critical path. `wire(words)` is the interconnect's point-to-point
/// cost in picoseconds for a `words`-value message — pass the same cost
/// model the run was charged against.
pub fn analyze(
    logs: &[Vec<Stamped>],
    wire: &dyn Fn(usize) -> u64,
) -> Result<CritPath, CritPathError> {
    let n = logs.len();
    if n == 0 || logs.iter().all(Vec::is_empty) {
        return Err(CritPathError::Empty);
    }
    if logs
        .iter()
        .flat_map(|l| l.iter())
        .all(|s| s.op == 0 && s.cost_ps == 0)
    {
        return Err(CritPathError::Untimed);
    }

    // Match sends to receives and reductions to rounds on the bare
    // event stream (the replay the happens-before check runs).
    let bare: Vec<Vec<_>> = logs
        .iter()
        .map(|l| l.iter().map(|s| s.ev).collect())
        .collect();
    let run = matcher::replay(&bare).map_err(CritPathError::Match)?;

    // Group each rank's events into ops; map event index -> op index.
    let mut ops: Vec<Vec<Op>> = Vec::with_capacity(n);
    let mut ev2op: Vec<Vec<usize>> = Vec::with_capacity(n);
    for log in logs {
        let mut rank_ops: Vec<Op> = Vec::new();
        let mut map = Vec::with_capacity(log.len());
        let mut cur_op_id: Option<u32> = None;
        let mut prev_local_end = 0u64;
        for s in log {
            if cur_op_id != Some(s.op) {
                cur_op_id = Some(s.op);
                let local_start = s.at_ps.saturating_sub(s.cost_ps);
                rank_ops.push(Op {
                    kind: OpKind::SendOnly, // refined below from the events
                    phase: s.phase,
                    step: s.step,
                    cost_ps: s.cost_ps,
                    compute_in_ps: local_start.saturating_sub(prev_local_end),
                    start_ps: 0,
                    end_ps: 0,
                    latest_start_ps: u64::MAX,
                    latest_end_ps: u64::MAX,
                    pred: Pred::Local,
                });
                prev_local_end = s.at_ps;
            }
            let op = rank_ops
                .last_mut()
                .unwrap_or_else(|| panic!("op opened above for event {}", s.op));
            match s.ev {
                crate::commlog::CommEvent::Recv { .. } => op.kind = OpKind::Exchange,
                crate::commlog::CommEvent::Reduce { .. } => op.kind = OpKind::Reduce,
                crate::commlog::CommEvent::Send { .. } => {}
            }
            map.push(rank_ops.len() - 1);
        }
        ops.push(rank_ops);
        ev2op.push(map);
    }

    // Cross-edge tables: incoming/outgoing messages per op, and the
    // per-rank op index of every reduce round.
    #[allow(clippy::type_complexity)]
    let mut in_msgs: Vec<Vec<Vec<(usize, usize, u64, usize)>>> =
        ops.iter().map(|r| vec![Vec::new(); r.len()]).collect();
    #[allow(clippy::type_complexity)]
    let mut out_msgs: Vec<Vec<Vec<(usize, usize, u64)>>> =
        ops.iter().map(|r| vec![Vec::new(); r.len()]).collect();
    for (mi, m) in run.messages.iter().enumerate() {
        let sop = ev2op[m.src][m.send_idx];
        let dop = ev2op[m.dst][m.recv_idx];
        let w = wire(m.words);
        in_msgs[m.dst][dop].push((m.src, sop, w, mi));
        out_msgs[m.src][sop].push((m.dst, dop, w));
    }
    let rounds: Vec<Vec<usize>> = run
        .reductions
        .iter()
        .map(|round| (0..n).map(|r| ev2op[r][round.at[r]]).collect())
        .collect();
    // Op -> round id, for the backward pass.
    let mut round_of: Vec<Vec<Option<usize>>> = ops.iter().map(|r| vec![None; r.len()]).collect();
    for (ri, members) in rounds.iter().enumerate() {
        for (r, &oi) in members.iter().enumerate() {
            round_of[r][oi] = Some(ri);
        }
    }

    // Forward pass: earliest start/end per op, in the order the matcher
    // executed the run. An op starts at its first event, where its
    // rank's previous op has ended; it ends at its last event — once
    // every incoming message is in — or, for a reduction, at its round's
    // join. `topo` keeps the nodes in that order for the backward pass.
    #[derive(Clone, Copy)]
    enum Node {
        Start(usize, usize),
        End(usize, usize),
    }
    let mut topo: Vec<Node> = Vec::new();
    let mut events: Vec<(usize, usize)> = Vec::with_capacity(n);
    for step in &run.order {
        events.clear();
        match *step {
            Executed::Event { rank, idx } => events.push((rank, idx)),
            Executed::Join(ri) => events.extend(run.reductions[ri].at.iter().copied().enumerate()),
        }
        for &(r, e) in &events {
            let i = ev2op[r][e];
            if e == 0 || ev2op[r][e - 1] != i {
                let prev_end = if i == 0 { 0 } else { ops[r][i - 1].end_ps };
                ops[r][i].start_ps = prev_end + ops[r][i].compute_in_ps;
                topo.push(Node::Start(r, i));
            }
        }
        // A join waits for the last-entering participant; smallest rank
        // on ties, so the blame is deterministic.
        let join = matches!(step, Executed::Join(_)).then(|| {
            let (mut t_join, mut who) = (0u64, 0usize);
            for &(r, e) in &events {
                let s = ops[r][ev2op[r][e]].start_ps;
                if s > t_join {
                    t_join = s;
                    who = r;
                }
            }
            (t_join, who, ev2op[who][events[who].1])
        });
        for &(r, e) in &events {
            let i = ev2op[r][e];
            if ev2op[r].get(e + 1) == Some(&i) {
                continue; // the op has events still to run
            }
            let op = &ops[r][i];
            let (end, pred) = match join {
                Some((t_join, who, _)) if who == r => (t_join + op.cost_ps, Pred::Local),
                Some((t_join, src, src_op)) => (t_join + op.cost_ps, Pred::Round { src, src_op }),
                None => {
                    let mut end = op.start_ps + op.cost_ps;
                    let mut pred = Pred::Local;
                    for &(q, p, w, mi) in &in_msgs[r][i] {
                        let cand = ops[q][p].start_ps + w;
                        if cand > end {
                            end = cand;
                            pred = Pred::Msg {
                                src: q,
                                src_op: p,
                                msg: mi,
                            };
                        }
                    }
                    (end, pred)
                }
            };
            ops[r][i].end_ps = end;
            ops[r][i].pred = pred;
            topo.push(Node::End(r, i));
        }
    }

    // Makespan: latest earliest-end over every rank's last op.
    let total_path_ps = (0..n)
        .filter_map(|r| ops[r].last().map(|o| o.end_ps))
        .max()
        .unwrap_or(0);

    // Backward pass over the reversed topological node order.
    for node in topo.iter().rev() {
        match *node {
            Node::End(r, i) => {
                let le = if i + 1 < ops[r].len() {
                    ops[r][i + 1]
                        .latest_start_ps
                        .saturating_sub(ops[r][i + 1].compute_in_ps)
                } else {
                    total_path_ps
                };
                ops[r][i].latest_end_ps = le;
            }
            Node::Start(r, i) => {
                let mut ls = ops[r][i].latest_end_ps.saturating_sub(ops[r][i].cost_ps);
                for &(d, j, w) in &out_msgs[r][i] {
                    ls = ls.min(ops[d][j].latest_end_ps.saturating_sub(w));
                }
                if let Some(ri) = round_of[r][i] {
                    for (q, &oq) in rounds[ri].iter().enumerate() {
                        ls = ls.min(ops[q][oq].latest_end_ps.saturating_sub(ops[q][oq].cost_ps));
                    }
                }
                ops[r][i].latest_start_ps = ls;
            }
        }
    }

    // Walk the critical path back from the sink (max earliest end;
    // smallest rank on ties).
    let sink = (0..n)
        .filter(|&r| !ops[r].is_empty())
        .max_by_key(|&r| (ops[r].last().map(|o| o.end_ps).unwrap_or(0), usize::MAX - r))
        .unwrap_or_else(|| panic!("nonempty run has a sink rank"));
    let mut hops_rev: Vec<Hop> = Vec::new();
    let mut cur = Some((sink, ops[sink].len() - 1));
    while let Some((r, i)) = cur {
        let op = &ops[r][i];
        let op_kind = match op.kind {
            OpKind::Exchange => "comm",
            OpKind::Reduce => "reduce",
            OpKind::SendOnly => "send",
        };
        // How the path enters this op's end node.
        let (enter_rank, enter_op) = match op.pred {
            Pred::Local => {
                hops_rev.push(Hop {
                    rank: r,
                    phase: op.phase,
                    step: op.step,
                    kind: op_kind,
                    dur_ps: op.end_ps - op.start_ps,
                });
                (r, i)
            }
            Pred::Msg {
                src,
                src_op,
                msg: _,
            } => {
                let wire_ps = op.end_ps - ops[src][src_op].start_ps;
                hops_rev.push(Hop {
                    rank: r,
                    phase: op.phase,
                    step: op.step,
                    kind: "wire",
                    dur_ps: wire_ps,
                });
                (src, src_op)
            }
            Pred::Round { src, src_op } => {
                hops_rev.push(Hop {
                    rank: r,
                    phase: op.phase,
                    step: op.step,
                    kind: "reduce",
                    dur_ps: op.end_ps - ops[src][src_op].start_ps,
                });
                (src, src_op)
            }
        };
        // The compute edge into the entering op's start.
        let eop = &ops[enter_rank][enter_op];
        if eop.compute_in_ps > 0 {
            hops_rev.push(Hop {
                rank: enter_rank,
                phase: eop.phase,
                step: eop.step,
                kind: "compute",
                dur_ps: eop.compute_in_ps,
            });
        }
        cur = if enter_op > 0 {
            Some((enter_rank, enter_op - 1))
        } else {
            None
        };
    }
    let hops: Vec<Hop> = hops_rev.into_iter().rev().collect();

    // Every wire-bound receive in the DAG (on the path or off it): the
    // ops whose end an incoming message set. `wait` is the stall beyond
    // the op's own charged cost; `wire` is the interconnect model's
    // point-to-point time for the binding payload.
    let mut cross_edges: Vec<CrossEdge> = Vec::new();
    for (r, rank_ops) in ops.iter().enumerate() {
        for op in rank_ops {
            if let Pred::Msg { src, src_op, msg } = op.pred {
                cross_edges.push(CrossEdge {
                    step: op.step,
                    src,
                    dst: r,
                    words: run.messages[msg].words,
                    wire_ps: op.end_ps - ops[src][src_op].start_ps,
                    wait_ps: (op.end_ps - op.start_ps).saturating_sub(op.cost_ps),
                });
            }
        }
    }

    // Per-step path shares and dominant (rank, phase).
    let mut per_step: BTreeMap<u32, BTreeMap<(usize, u8), u64>> = BTreeMap::new();
    for h in &hops {
        *per_step
            .entry(h.step)
            .or_default()
            .entry((h.rank, phase_order(h.phase)))
            .or_default() += h.dur_ps;
    }
    let step_rows: Vec<StepRow> = per_step
        .iter()
        .map(|(&step, by_actor)| {
            let path_ps = by_actor.values().sum();
            let (&(rank, ph), &dom) = by_actor
                .iter()
                .max_by_key(|&(&(r, p), &v)| (v, usize::MAX - r, u8::MAX - p))
                .unwrap_or_else(|| panic!("step {step} bucket is nonempty"));
            StepRow {
                step,
                path_ps,
                dominant_rank: rank,
                dominant_phase: [Phase::Ps, Phase::Ds, Phase::Outside][ph as usize],
                dominant_ps: dom,
            }
        })
        .collect();

    // Per-rank slack and path participation.
    let rank_rows: Vec<RankRow> = (0..n)
        .map(|r| {
            // Slack over the rank's *start* nodes only: an op's end can
            // be pinned by a join or an incoming wire (someone else's
            // doing), but the start is where the rank's own compute and
            // cost feed in — that is what can slip.
            let slack_ps = ops[r]
                .iter()
                .map(|o| o.latest_start_ps.saturating_sub(o.start_ps))
                .min()
                .unwrap_or(0);
            let on_path: Vec<&Hop> = hops.iter().filter(|h| h.rank == r).collect();
            RankRow {
                rank: r,
                slack_ps,
                on_path_ps: on_path.iter().map(|h| h.dur_ps).sum(),
                on_path_hops: on_path.len(),
            }
        })
        .collect();

    // Straggler attribution: path time by (rank, phase, kind), largest
    // first.
    let mut attr: BTreeMap<(usize, u8, &'static str), (u64, usize)> = BTreeMap::new();
    for h in &hops {
        let e = attr
            .entry((h.rank, phase_order(h.phase), h.kind))
            .or_default();
        e.0 += h.dur_ps;
        e.1 += 1;
    }
    let mut attribution: Vec<AttributionRow> = attr
        .into_iter()
        .map(|((rank, ph, kind), (path_ps, hops))| AttributionRow {
            rank,
            phase: [Phase::Ps, Phase::Ds, Phase::Outside][ph as usize],
            kind,
            path_ps,
            hops,
        })
        .collect();
    attribution.sort_by(|a, b| {
        b.path_ps
            .cmp(&a.path_ps)
            .then(a.rank.cmp(&b.rank))
            .then(phase_order(a.phase).cmp(&phase_order(b.phase)))
            .then(a.kind.cmp(b.kind))
    });

    Ok(CritPath {
        ranks: n,
        ops: ops.iter().map(Vec::len).sum(),
        messages: run.messages.len(),
        reductions: run.reductions.len(),
        steps: step_rows.len(),
        total_path_ps,
        hops,
        step_rows,
        rank_rows,
        attribution,
        cross_edges,
        flows: matched_flows(logs, &run),
    })
}

impl CritPath {
    /// The straggler: the (rank, phase) holding the largest share of the
    /// path (summed over hop kinds).
    pub fn blame(&self) -> Option<(usize, Phase)> {
        let mut by_actor: BTreeMap<(usize, u8), u64> = BTreeMap::new();
        for a in &self.attribution {
            *by_actor.entry((a.rank, phase_order(a.phase))).or_default() += a.path_ps;
        }
        by_actor
            .into_iter()
            .max_by_key(|&((r, p), v)| (v, usize::MAX - r, u8::MAX - p))
            .map(|((r, p), _)| (r, [Phase::Ps, Phase::Ds, Phase::Outside][p as usize]))
    }

    /// Per-step path lengths in picoseconds, step-tag order.
    pub fn per_step_path_ps(&self) -> Vec<(u32, u64)> {
        self.step_rows.iter().map(|s| (s.step, s.path_ps)).collect()
    }

    /// Deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {} ranks, {} ops, {} messages, {} reductions, {} steps",
            self.ranks, self.ops, self.messages, self.reductions, self.steps
        );
        let _ = writeln!(out, "total path: {} us", Us(self.total_path_ps));

        let _ = writeln!(out, "\n[per-step critical path]");
        let _ = writeln!(
            out,
            "  {:<6} {:>16} {:<12} {:>16} {:>7}",
            "step", "path_us", "dominant", "dominant_us", "share"
        );
        for s in &self.step_rows {
            let share = if s.path_ps == 0 {
                0.0
            } else {
                s.dominant_ps as f64 / s.path_ps as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  {:<6} {:>16} {:<12} {:>16} {:>6.1}%",
                s.step,
                Us(s.path_ps).to_string(),
                format!("r{}/{}", s.dominant_rank, phase_label(s.dominant_phase)),
                Us(s.dominant_ps).to_string(),
                share
            );
        }

        // Chain, consecutive same-rank hops merged into segments.
        let _ = writeln!(out, "\n[critical path chain]");
        let mut i = 0usize;
        while i < self.hops.len() {
            let rank = self.hops[i].rank;
            let mut dur = 0u64;
            let mut count = 0usize;
            let mut by_phase: BTreeMap<u8, u64> = BTreeMap::new();
            let (step_lo, mut step_hi) = (self.hops[i].step, self.hops[i].step);
            let mut j = i;
            while j < self.hops.len() && self.hops[j].rank == rank {
                // A cross-kind hop ends the segment *after* being counted
                // on the destination rank's row only if it is local;
                // wire/reduce hops start a new segment boundary below.
                if j > i
                    && matches!(self.hops[j].kind, "wire" | "reduce")
                    && self.hops[j - 1].rank == rank
                    && self.hops[j].rank == rank
                {
                    // reduce self-join stays in segment
                }
                dur += self.hops[j].dur_ps;
                count += 1;
                step_hi = self.hops[j].step;
                *by_phase.entry(phase_order(self.hops[j].phase)).or_default() +=
                    self.hops[j].dur_ps;
                j += 1;
            }
            let (&domp, _) = by_phase
                .iter()
                .max_by_key(|&(&p, &v)| (v, u8::MAX - p))
                .unwrap_or_else(|| panic!("segment at rank {rank} is nonempty"));
            let steps = if step_lo == step_hi {
                format!("step {step_lo}")
            } else {
                format!("steps {step_lo}-{step_hi}")
            };
            let _ = writeln!(
                out,
                "  r{rank} {:<8} {}  {} us ({} hops)",
                phase_label([Phase::Ps, Phase::Ds, Phase::Outside][domp as usize]),
                steps,
                Us(dur),
                count
            );
            i = j;
            if i < self.hops.len() {
                let h = &self.hops[i];
                let _ = writeln!(out, "    ={}=> r{}", h.kind, h.rank);
            }
        }

        let _ = writeln!(out, "\n[per-rank slack]");
        let _ = writeln!(
            out,
            "  {:<6} {:>16} {:>16} {:>14}",
            "rank", "slack_us", "on_path_us", "on_path_hops"
        );
        for r in &self.rank_rows {
            let _ = writeln!(
                out,
                "  {:<6} {:>16} {:>16} {:>14}",
                r.rank,
                Us(r.slack_ps).to_string(),
                Us(r.on_path_ps).to_string(),
                r.on_path_hops
            );
        }

        let _ = writeln!(out, "\n[straggler attribution]");
        let _ = writeln!(
            out,
            "  {:<6} {:<8} {:<8} {:>16} {:>6} {:>7}",
            "rank", "phase", "kind", "path_us", "hops", "share"
        );
        for a in &self.attribution {
            let share = if self.total_path_ps == 0 {
                0.0
            } else {
                a.path_ps as f64 / self.total_path_ps as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  {:<6} {:<8} {:<8} {:>16} {:>6} {:>6.1}%",
                a.rank,
                phase_label(a.phase),
                a.kind,
                Us(a.path_ps).to_string(),
                a.hops,
                share
            );
        }
        if let Some((rank, phase)) = self.blame() {
            let _ = writeln!(out, "  blame: rank {rank} {}", phase_label(phase));
        }

        let _ = writeln!(out, "\n[wait vs wire] (wire-bound receives across the DAG)");
        let _ = writeln!(
            out,
            "  {:<6} {:<10} {:>8} {:>16} {:>16}",
            "step", "edge", "words", "wire_us", "wait_us"
        );
        for e in &self.cross_edges {
            let _ = writeln!(
                out,
                "  {:<6} {:<10} {:>8} {:>16} {:>16}",
                e.step,
                format!("r{}->r{}", e.src, e.dst),
                e.words,
                Us(e.wire_ps).to_string(),
                Us(e.wait_ps).to_string()
            );
        }
        let wire_total: u64 = self.cross_edges.iter().map(|e| e.wire_ps).sum();
        let wait_total: u64 = self.cross_edges.iter().map(|e| e.wait_ps).sum();
        let _ = writeln!(
            out,
            "  total: {} edges, wire {} us, wait {} us (wire from the interconnect \
             point-to-point model; wait is schedule stall beyond the charged op cost)",
            self.cross_edges.len(),
            Us(wire_total),
            Us(wait_total)
        );
        out
    }

    /// Deterministic machine-readable summary.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"critpath\":{");
        let _ = write!(
            out,
            "\"ranks\":{},\"ops\":{},\"messages\":{},\"reductions\":{},\"steps\":{},\
             \"total_path_us\":{}",
            self.ranks,
            self.ops,
            self.messages,
            self.reductions,
            self.steps,
            Us(self.total_path_ps)
        );
        out.push_str(",\"per_step\":[");
        for (i, s) in self.step_rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"step\":{},\"path_us\":{},\"dominant\":\"r{}/{}\"}}",
                s.step,
                Us(s.path_ps),
                s.dominant_rank,
                phase_label(s.dominant_phase)
            );
        }
        out.push_str("],\"slack_us\":[");
        for (i, r) in self.rank_rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", Us(r.slack_ps));
        }
        out.push(']');
        match self.blame() {
            Some((rank, phase)) => {
                let _ = write!(
                    out,
                    ",\"blame\":{{\"rank\":{rank},\"phase\":\"{}\"}}",
                    phase_label(phase)
                );
            }
            None => out.push_str(",\"blame\":null"),
        }
        let wire_total: u64 = self.cross_edges.iter().map(|e| e.wire_ps).sum();
        let wait_total: u64 = self.cross_edges.iter().map(|e| e.wait_ps).sum();
        let _ = write!(
            out,
            ",\"cross_edges\":{},\"wire_us\":{},\"wait_us\":{}}}}}",
            self.cross_edges.len(),
            Us(wire_total),
            Us(wait_total)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commlog::CommEvent;

    /// Build a stamped log by accumulating a local clock: items are
    /// (compute_before_ps, cost_ps, events, step, phase).
    fn rank_log(items: &[(u64, u64, Vec<CommEvent>, u32, Phase)]) -> Vec<Stamped> {
        let mut clock = 0u64;
        let mut out = Vec::new();
        for (op, (compute, cost, evs, step, phase)) in items.iter().enumerate() {
            clock += compute + cost;
            for ev in evs {
                out.push(Stamped {
                    ev: *ev,
                    at_ps: clock,
                    cost_ps: *cost,
                    op: op as u32 + 1,
                    step: *step,
                    phase: *phase,
                });
            }
        }
        out
    }

    const WIRE: fn(usize) -> u64 = |words| words as u64 * 10;

    #[test]
    fn empty_and_untimed_logs_are_rejected() {
        assert_eq!(analyze(&[], &WIRE), Err(CritPathError::Empty));
        assert_eq!(analyze(&[vec![], vec![]], &WIRE), Err(CritPathError::Empty));
        let untimed = vec![vec![Stamped {
            ev: CommEvent::Reduce { generation: 0 },
            at_ps: 0,
            cost_ps: 0,
            op: 0,
            step: 0,
            phase: Phase::Outside,
        }]];
        assert_eq!(analyze(&untimed, &WIRE), Err(CritPathError::Untimed));
    }

    #[test]
    fn straggler_rank_owns_the_path_through_a_reduce() {
        // Two ranks, one reduction. Rank 1 computes 10x longer before
        // joining: the path must run through rank 1's compute and blame
        // it, and rank 0 must show slack equal to the compute gap.
        let logs = vec![
            rank_log(&[(
                100,
                50,
                vec![CommEvent::Reduce { generation: 0 }],
                1,
                Phase::Ds,
            )]),
            rank_log(&[(
                1000,
                50,
                vec![CommEvent::Reduce { generation: 0 }],
                1,
                Phase::Ds,
            )]),
        ];
        let cp = analyze(&logs, &WIRE).expect("clean run");
        assert_eq!(cp.total_path_ps, 1050);
        assert_eq!(cp.blame(), Some((1, Phase::Ds)));
        assert_eq!(cp.rank_rows[1].slack_ps, 0, "straggler has no slack");
        assert_eq!(cp.rank_rows[0].slack_ps, 900, "fast rank can slip");
        // Path hops sum exactly to the makespan.
        let hop_sum: u64 = cp.hops.iter().map(|h| h.dur_ps).sum();
        assert_eq!(hop_sum, cp.total_path_ps);
    }

    #[test]
    fn wire_edge_binds_when_the_sender_is_late() {
        // Rank 0 sends to rank 1 (exchange pair). Rank 0 enters late, so
        // rank 1's receive is bound by the wire edge, not its own cost.
        let logs = vec![
            rank_log(&[(
                2000,
                40,
                vec![
                    CommEvent::Send { to: 1, words: 8 },
                    CommEvent::Recv { from: 1, words: 8 },
                ],
                1,
                Phase::Ps,
            )]),
            rank_log(&[(
                100,
                40,
                vec![
                    CommEvent::Send { to: 0, words: 8 },
                    CommEvent::Recv { from: 0, words: 8 },
                ],
                1,
                Phase::Ps,
            )]),
        ];
        let cp = analyze(&logs, &WIRE).expect("clean run");
        // Rank 1's end = rank 0's start (2000) + wire (80) = 2080; rank
        // 0's own end = 2040 local vs rank 1's start (100) + 80 < that.
        assert_eq!(cp.total_path_ps, 2080);
        assert_eq!(cp.cross_edges.len(), 1);
        let e = cp.cross_edges[0];
        assert_eq!((e.src, e.dst, e.words, e.wire_ps), (0, 1, 8, 80));
        // Wait: rank 1's op spanned 2080-100=1980, charged 40 -> 1940.
        assert_eq!(e.wait_ps, 1940);
        assert_eq!(cp.blame(), Some((0, Phase::Ps)));
    }

    #[test]
    fn per_step_rows_partition_the_path() {
        let logs = vec![
            rank_log(&[
                (
                    100,
                    50,
                    vec![CommEvent::Reduce { generation: 0 }],
                    1,
                    Phase::Ps,
                ),
                (
                    700,
                    50,
                    vec![CommEvent::Reduce { generation: 1 }],
                    2,
                    Phase::Ds,
                ),
            ]),
            rank_log(&[
                (
                    400,
                    50,
                    vec![CommEvent::Reduce { generation: 0 }],
                    1,
                    Phase::Ps,
                ),
                (
                    200,
                    50,
                    vec![CommEvent::Reduce { generation: 1 }],
                    2,
                    Phase::Ds,
                ),
            ]),
        ];
        let cp = analyze(&logs, &WIRE).expect("clean run");
        assert_eq!(cp.steps, 2);
        let total: u64 = cp.step_rows.iter().map(|s| s.path_ps).sum();
        assert_eq!(total, cp.total_path_ps);
        // Step 1's straggler is rank 1 (400 vs 100); step 2's is rank 0
        // (700 vs 200, measured from the common join).
        assert_eq!(cp.step_rows[0].dominant_rank, 1);
        assert_eq!(cp.step_rows[1].dominant_rank, 0);
    }

    #[test]
    fn report_and_json_are_deterministic_and_labelled() {
        let logs = || {
            vec![
                rank_log(&[(
                    100,
                    50,
                    vec![CommEvent::Reduce { generation: 0 }],
                    1,
                    Phase::Ds,
                )]),
                rank_log(&[(
                    900,
                    50,
                    vec![CommEvent::Reduce { generation: 0 }],
                    1,
                    Phase::Ds,
                )]),
            ]
        };
        let a = analyze(&logs(), &WIRE).unwrap();
        let b = analyze(&logs(), &WIRE).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render_json(), b.render_json());
        let r = a.render();
        for needle in [
            "critical path: 2 ranks",
            "[per-step critical path]",
            "[critical path chain]",
            "[per-rank slack]",
            "[straggler attribution]",
            "blame: rank 1 ds",
            "[wait vs wire]",
        ] {
            assert!(r.contains(needle), "missing {needle} in:\n{r}");
        }
        let j = a.render_json();
        assert!(j.starts_with("{\"critpath\":{\"ranks\":2"));
        assert!(j.contains("\"blame\":{\"rank\":1,\"phase\":\"ds\"}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn ordering_bugs_surface_as_match_errors() {
        let logs = vec![
            rank_log(&[(
                10,
                5,
                vec![CommEvent::Reduce { generation: 0 }],
                1,
                Phase::Ps,
            )]),
            rank_log(&[(
                10,
                5,
                vec![CommEvent::Reduce { generation: 1 }],
                1,
                Phase::Ps,
            )]),
        ];
        assert!(matches!(
            analyze(&logs, &WIRE),
            Err(CritPathError::Match(MatchError::ReduceMismatch { .. }))
        ));
    }
}
