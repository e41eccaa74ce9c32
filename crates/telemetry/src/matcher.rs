//! Vector-clock replay matcher and happens-before checker over recorded
//! per-rank comm logs.
//!
//! Input: one `Vec<CommEvent>` per rank, recorded by [`crate::commlog`]
//! during a real threaded run. [`replay`] is the one deterministic replay
//! the happens-before check ([`check`]), the critical-path profiler
//! ([`crate::critpath`]) and the Chrome flow-event exporter share, so all
//! three agree on matching semantics: ranks replayed in index order,
//! sends non-blocking, receives blocking on their keyed `(src, dst)`
//! FIFO channel, reductions as all-ranks joins keyed by generation. A
//! vector clock per rank tracks causality — executing any event
//! increments the rank's own component, a receive joins the matched
//! send's clock, a reduction joins every rank's — and each matched pair
//! records whether the send's clock strictly precedes the receive's.
//!
//! With keyed FIFO channels that must hold for every pair; an unordered
//! pair means the matching degenerated to arrival order somewhere (a
//! wildcard receive — the race class MPI_ANY_SOURCE introduces), which is
//! exactly what the determinism argument cannot tolerate. Structural
//! failures — a receive with no posted send (deadlock), messages left in
//! a channel, payload size mismatches, ranks disagreeing on the reduction
//! sequence — are hard errors ([`MatchError`]).
//!
//! The replay order is fixed, so every output — match indices, ordinals,
//! round memberships, [`HbReport::render`] — is byte-stable across
//! same-input runs (enforced in `tests/determinism.rs`). The order
//! itself is an output too ([`MatchedRun::order`]): every event in the
//! order the replay executed it, a topological order of the run's
//! happens-before graph that the critical-path profiler walks instead of
//! replaying the logs a second time.

use crate::commlog::CommEvent;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

type Clock = Vec<u64>;

fn join(into: &mut Clock, other: &Clock) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// `a` strictly happens-before `b`: component-wise ≤ and not equal.
fn strictly_before(a: &Clock, b: &Clock) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a != b
}

/// One matched send/recv pair. `send_idx`/`recv_idx` index into the
/// source/destination rank's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchedMessage {
    pub src: usize,
    pub dst: usize,
    pub send_idx: usize,
    pub recv_idx: usize,
    /// Message ordinal on the `(src, dst)` channel (FIFO position).
    pub ordinal: usize,
    pub words: usize,
    /// Did the send's vector clock strictly precede the receive's?
    pub ordered: bool,
}

/// One all-ranks reduction round. `at[r]` is the event index of rank
/// `r`'s `Reduce` record for this round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceRound {
    pub generation: u64,
    pub at: Vec<usize>,
}

/// One step of the replay, in the order it executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executed {
    /// Rank `rank`'s send or receive at event index `idx`.
    Event { rank: usize, idx: usize },
    /// The join of reduction round `n` (an index into
    /// [`MatchedRun::reductions`]): every rank's `Reduce` at once.
    Join(usize),
}

/// Everything the replay matched, in replay order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedRun {
    pub ranks: usize,
    /// Total events across all logs.
    pub events: usize,
    pub messages: Vec<MatchedMessage>,
    pub reductions: Vec<ReduceRound>,
    /// Every event once, as the replay executed it: a send before its
    /// receive, and a rank's events in log order.
    pub order: Vec<Executed>,
}

/// The happens-before verdict on a replayed run: counts plus any
/// unordered pairs (expected none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbReport {
    pub ranks: usize,
    pub events: usize,
    /// Matched send/recv pairs.
    pub messages: usize,
    pub reductions: usize,
    /// Matched pairs with no strict happens-before edge, rendered as
    /// `src->dst msg#k`. Zero on every keyed-channel run.
    pub unordered: Vec<String>,
}

impl HbReport {
    /// Deterministic text rendering (joins the determinism gate).
    pub fn render(&self) -> String {
        let mut s = format!(
            "hb: {} ranks, {} events, {} messages, {} reductions, {} unordered pair(s)\n",
            self.ranks,
            self.events,
            self.messages,
            self.reductions,
            self.unordered.len()
        );
        for u in &self.unordered {
            s.push_str(&format!("unordered: {u}\n"));
        }
        s
    }
}

/// Replay per-rank event logs and report whether every matched send/recv
/// pair is ordered. See the module docs for semantics.
pub fn check(progs: &[Vec<CommEvent>]) -> Result<HbReport, MatchError> {
    let run = replay(progs)?;
    let unordered = run
        .messages
        .iter()
        .filter(|m| !m.ordered)
        .map(|m| format!("{}->{} msg#{}", m.src, m.dst, m.ordinal))
        .collect();
    Ok(HbReport {
        ranks: run.ranks,
        events: run.events,
        messages: run.messages.len(),
        reductions: run.reductions.len(),
        unordered,
    })
}

/// Why the replay failed: each variant is a real ordering bug in the
/// run that produced the logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// No rank can make progress; per-rank state at the stall.
    Stuck { state: Vec<String> },
    /// A channel still held messages when every rank finished.
    Leftover {
        src: usize,
        dst: usize,
        pending: usize,
    },
    /// A receive consumed a message of the wrong size.
    PayloadMismatch {
        src: usize,
        dst: usize,
        sent: usize,
        got: usize,
    },
    /// Ranks disagree on the reduction sequence.
    ReduceMismatch { detail: String },
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::Stuck { state } => {
                write!(f, "replay stuck (deadlock): {}", state.join("; "))
            }
            MatchError::Leftover { src, dst, pending } => write!(
                f,
                "{pending} message(s) left undelivered on channel {src}->{dst}"
            ),
            MatchError::PayloadMismatch {
                src,
                dst,
                sent,
                got,
            } => write!(
                f,
                "payload mismatch on {src}->{dst}: sent {sent} words, receive expected {got}"
            ),
            MatchError::ReduceMismatch { detail } => write!(f, "reduction mismatch: {detail}"),
        }
    }
}

/// Replay per-rank event logs, matching every send to its receive and
/// every reduction to its round. See the module docs for semantics.
pub fn replay(progs: &[Vec<CommEvent>]) -> Result<MatchedRun, MatchError> {
    let n = progs.len();
    let mut cursor = vec![0usize; n];
    let mut vc: Vec<Clock> = vec![vec![0; n]; n];
    // (src, dst) -> FIFO of (send clock, words, message ordinal on the
    // channel, send event index).
    #[expect(
        clippy::type_complexity,
        reason = "one FIFO of sends per directed channel, read only in this function"
    )]
    let mut channels: BTreeMap<(usize, usize), VecDeque<(Clock, usize, usize, usize)>> =
        BTreeMap::new();
    let mut sent_on: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut messages = Vec::new();
    let mut reductions = Vec::new();
    let mut order = Vec::new();

    loop {
        let mut progressed = false;
        for r in 0..n {
            while let Some(ev) = progs[r].get(cursor[r]) {
                match *ev {
                    CommEvent::Send { to, words } => {
                        assert!(to < n && to != r, "rank {r} sends to {to}");
                        vc[r][r] += 1;
                        let ordinal = sent_on.entry((r, to)).or_insert(0);
                        channels.entry((r, to)).or_default().push_back((
                            vc[r].clone(),
                            words,
                            *ordinal,
                            cursor[r],
                        ));
                        *ordinal += 1;
                    }
                    CommEvent::Recv { from, words } => {
                        let Some((send_clock, sent, ordinal, send_idx)) =
                            channels.get_mut(&(from, r)).and_then(|q| q.pop_front())
                        else {
                            break; // blocked: nothing posted yet
                        };
                        if sent != words {
                            return Err(MatchError::PayloadMismatch {
                                src: from,
                                dst: r,
                                sent,
                                got: words,
                            });
                        }
                        join(&mut vc[r], &send_clock);
                        vc[r][r] += 1;
                        messages.push(MatchedMessage {
                            src: from,
                            dst: r,
                            send_idx,
                            recv_idx: cursor[r],
                            ordinal,
                            words,
                            ordered: strictly_before(&send_clock, &vc[r]),
                        });
                    }
                    CommEvent::Reduce { .. } => break, // needs everyone
                }
                order.push(Executed::Event {
                    rank: r,
                    idx: cursor[r],
                });
                cursor[r] += 1;
                progressed = true;
            }
        }

        // All-ranks reduction join: enabled only when every rank's next
        // event is a Reduce with the same generation.
        let at_reduce: Vec<Option<u64>> = (0..n)
            .map(|r| match progs[r].get(cursor[r]) {
                Some(CommEvent::Reduce { generation }) => Some(*generation),
                _ => None,
            })
            .collect();
        let gens: Vec<u64> = at_reduce.iter().filter_map(|g| *g).collect();
        if gens.len() == n {
            if gens.iter().any(|&g| g != gens[0]) {
                return Err(MatchError::ReduceMismatch {
                    detail: format!("ranks joined different generations {gens:?}"),
                });
            }
            order.push(Executed::Join(reductions.len()));
            reductions.push(ReduceRound {
                generation: gens[0],
                at: cursor.clone(),
            });
            let merged = {
                let mut m = vec![0u64; n];
                for clock in &vc {
                    join(&mut m, clock);
                }
                m
            };
            for (r, clock) in vc.iter_mut().enumerate() {
                *clock = merged.clone();
                clock[r] += 1;
                cursor[r] += 1;
            }
            progressed = true;
        } else if at_reduce.iter().any(|g| g.is_some())
            && (0..n).all(|r| cursor[r] >= progs[r].len() || at_reduce[r].is_some())
        {
            // Some ranks wait at a reduction the rest will never join.
            return Err(MatchError::ReduceMismatch {
                detail: format!("ranks at a reduction while others finished: {at_reduce:?}"),
            });
        }

        if !progressed {
            break;
        }
    }

    if (0..n).any(|r| cursor[r] < progs[r].len()) {
        let state: Vec<String> = (0..n)
            .map(|r| match progs[r].get(cursor[r]) {
                Some(ev) => format!("rank{r}@{}: waiting on {ev:?}", cursor[r]),
                None => format!("rank{r}: done"),
            })
            .collect();
        return Err(MatchError::Stuck { state });
    }
    for ((src, dst), q) in &channels {
        if !q.is_empty() {
            return Err(MatchError::Leftover {
                src: *src,
                dst: *dst,
                pending: q.len(),
            });
        }
    }

    Ok(MatchedRun {
        ranks: n,
        events: progs.iter().map(Vec::len).sum(),
        messages,
        reductions,
        order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use CommEvent::{Recv, Reduce, Send};

    #[test]
    fn butterfly_pair_matches_with_indices() {
        let progs = vec![
            vec![Send { to: 1, words: 4 }, Recv { from: 1, words: 4 }],
            vec![Send { to: 0, words: 4 }, Recv { from: 0, words: 4 }],
        ];
        let run = replay(&progs).expect("clean butterfly");
        assert_eq!(run.ranks, 2);
        assert_eq!(run.events, 4);
        assert_eq!(run.messages.len(), 2);
        assert!(run.messages.iter().all(|m| m.ordered));
        // Rank 0's recv consumed rank 1's send at event index 0.
        let m = run.messages.iter().find(|m| m.dst == 0).unwrap();
        assert_eq!((m.src, m.send_idx, m.recv_idx, m.ordinal), (1, 0, 1, 0));
    }

    #[test]
    fn reduce_rounds_carry_per_rank_event_indices() {
        let progs = vec![
            vec![Send { to: 1, words: 1 }, Reduce { generation: 0 }],
            vec![Recv { from: 0, words: 1 }, Reduce { generation: 0 }],
        ];
        let run = replay(&progs).expect("message then reduce");
        assert_eq!(run.reductions.len(), 1);
        assert_eq!(run.reductions[0].generation, 0);
        assert_eq!(run.reductions[0].at, vec![1, 1]);
        // The send runs before its receive, the join after both.
        assert_eq!(
            run.order,
            vec![
                Executed::Event { rank: 0, idx: 0 },
                Executed::Event { rank: 1, idx: 0 },
                Executed::Join(0),
            ]
        );
    }

    #[test]
    fn recv_without_send_is_stuck() {
        let progs = vec![
            vec![Recv { from: 1, words: 1 }],
            vec![Recv { from: 0, words: 1 }],
        ];
        match replay(&progs) {
            Err(MatchError::Stuck { state }) => {
                assert_eq!(state.len(), 2);
                assert!(state[0].contains("rank0"), "{state:?}");
            }
            other => panic!("expected stuck, got {other:?}"),
        }
    }

    #[test]
    fn leftover_and_payload_mismatch_are_errors() {
        let progs = vec![vec![Send { to: 1, words: 2 }], vec![]];
        assert!(matches!(
            replay(&progs),
            Err(MatchError::Leftover {
                src: 0,
                dst: 1,
                pending: 1
            })
        ));
        let progs = vec![
            vec![Send { to: 1, words: 3 }],
            vec![Recv { from: 0, words: 4 }],
        ];
        assert!(matches!(
            replay(&progs),
            Err(MatchError::PayloadMismatch {
                sent: 3,
                got: 4,
                ..
            })
        ));
    }

    #[test]
    fn mismatched_generations_rejected() {
        let progs = vec![
            vec![Reduce { generation: 0 }],
            vec![Reduce { generation: 1 }],
        ];
        assert!(matches!(
            replay(&progs),
            Err(MatchError::ReduceMismatch { .. })
        ));
    }

    #[test]
    fn missing_reducer_rejected() {
        let progs = vec![vec![Reduce { generation: 0 }], vec![]];
        assert!(matches!(
            check(&progs),
            Err(MatchError::ReduceMismatch { .. })
        ));
    }

    #[test]
    fn reductions_join_all_ranks() {
        let progs = vec![
            vec![Reduce { generation: 0 }, Send { to: 1, words: 1 }],
            vec![Reduce { generation: 0 }, Recv { from: 0, words: 1 }],
        ];
        let rep = check(&progs).expect("reduce then message");
        assert_eq!((rep.reductions, rep.messages), (1, 1));
        assert!(rep.unordered.is_empty());
    }

    #[test]
    fn errors_render_in_the_cli_vocabulary() {
        // E16 prints these strings; its output joins the determinism gate.
        let progs = vec![vec![Send { to: 1, words: 2 }], vec![]];
        let err = check(&progs).unwrap_err();
        assert_eq!(
            err.to_string(),
            "1 message(s) left undelivered on channel 0->1"
        );
    }

    #[test]
    fn report_renders_deterministically() {
        let progs = vec![
            vec![Send { to: 1, words: 4 }, Reduce { generation: 0 }],
            vec![Recv { from: 0, words: 4 }, Reduce { generation: 0 }],
        ];
        let a = check(&progs).unwrap().render();
        let b = check(&progs).unwrap().render();
        assert_eq!(a, b);
        assert!(a.starts_with("hb: 2 ranks"));
    }

    #[test]
    fn clock_comparison_is_strict() {
        assert!(strictly_before(&vec![1, 0], &vec![1, 1]));
        assert!(!strictly_before(&vec![1, 1], &vec![1, 1]));
        assert!(!strictly_before(&vec![2, 0], &vec![1, 1]), "concurrent");
    }
}
