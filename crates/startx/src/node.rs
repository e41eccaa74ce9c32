//! What the simulated protocol nodes share — the VI leg here and the
//! global sums of `hyades-comms`: the [`CommGraph`] a node runs (every
//! message with its channel and tag, each node's program of sends and
//! receives — the graph `hyades_comms::schedule::verify` proves), the
//! fabric endpoint (identity, host cost model, injection port, the PIO
//! control send), the guarded wait of the two recovering protocols, and
//! the harness that runs one node per endpoint on a fresh fabric.

use crate::host::HostParams;
use crate::pio;
use crate::recovery::{RecoveryCounters, RecoveryEvent};
use hyades_arctic::network::{ArcticNetwork, Delivered, Inject};
use hyades_arctic::packet::{Packet, Priority};
use hyades_des::event::Payload;
use hyades_des::fault::FaultPlan;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use std::any::Any;

/// One message of a [`CommGraph`]: a directed channel (`src` → `dst`)
/// and the tag it travels under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    pub src: u16,
    pub dst: u16,
    pub tag: u16,
    /// Sequenced inside a control envelope (e.g. the DATA stream between
    /// ACK and DONE): the shared tag is exempt from per-channel tag
    /// uniqueness because the envelope guarantees only one such stream is
    /// in flight on the channel at a time.
    pub enveloped: bool,
    /// What the message is (`"exch.ack"`, `"gsum.val"`), for [`Msg::label`].
    pub name: &'static str,
}

impl Msg {
    /// Human-readable name, rendered only to report a failed proof or for
    /// a test to read.
    pub fn label(&self) -> String {
        let Msg { src, dst, tag, .. } = self;
        format!("{}.{src}->{dst} (tag {tag:#05x})", self.name)
    }
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
/// of send/recv operations. The protocol nodes run it, each with a cursor
/// into its own program.
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
    pub fn msg(&mut self, src: u16, dst: u16, tag: u16, name: &'static str) -> usize {
        assert!(src < self.n_nodes && dst < self.n_nodes && src != dst);
        self.msgs.push(Msg {
            src,
            dst,
            tag,
            enveloped: false,
            name,
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
    pub fn transfer(&mut self, src: u16, dst: u16, tag: u16, name: &'static str) -> usize {
        let m = self.msg(src, dst, tag, name);
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
        self.msgs.extend_from_slice(&other.msgs);
        for (mine, theirs) in self.program.iter_mut().zip(&other.program) {
            mine.extend(theirs.iter().map(|op| Op {
                msg: op.msg + offset,
                dir: op.dir,
            }));
        }
    }
}

/// One node's attachment to the fabric.
pub struct Endpoint {
    pub me: u16,
    pub host: HostParams,
    pub tx_port: ActorId,
}

impl Endpoint {
    /// PIO-send a two-word high-priority packet: it enters the fabric
    /// once the mmap writes complete (`Os`).
    pub fn send(&self, ctx: &mut Ctx<'_>, dst: u16, tag: u16, words: Vec<u32>) {
        self.send_after(ctx, SimDuration::ZERO, dst, tag, words);
    }

    /// [`Endpoint::send`], begun `lead` from now.
    pub fn send_after(
        &self,
        ctx: &mut Ctx<'_>,
        lead: SimDuration,
        dst: u16,
        tag: u16,
        words: Vec<u32>,
    ) {
        let os = self.host.send_overhead(8);
        let pkt = Packet::new(self.me, dst, Priority::High, tag, words);
        ctx.send_after(lead + os, self.tx_port, Inject(pkt));
    }

    /// CPU cost of taking a two-word message a node is blocked on: one
    /// status poll (an mmap read) plus the PIO read of header and payload.
    pub fn recv_cost(&self) -> SimDuration {
        pio::READ_8B + self.host.recv_overhead(8)
    }
}

/// Self event: a guarded wait expired.
pub struct Timeout {
    epoch: u64,
}

/// What wakes a protocol node.
pub enum Woken<S, E> {
    /// The harness's kick.
    Start(S),
    /// A packet off the fabric (check its `corrupted` status bit).
    Packet(Packet),
    /// A wait under the node's [`Guard`] expired.
    Timeout(Timeout),
    /// One of the node's own self events.
    Own(E),
}

impl<S: 'static, E: 'static> Woken<S, E> {
    /// Sort an event by its type; anything else is a harness bug.
    pub fn from(ev: Payload) -> Self {
        let ev = match ev.downcast::<Delivered>() {
            Ok(del) => return Woken::Packet(del.pkt),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<E>() {
            Ok(own) => return Woken::Own(*own),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<Timeout>() {
            Ok(t) => return Woken::Timeout(*t),
            Err(ev) => ev,
        };
        match ev.downcast::<S>() {
            Ok(start) => Woken::Start(*start),
            Err(_) => panic!("protocol node: unexpected event type"),
        }
    }
}

/// Base wait before a guarded message's first retry: 1 ms. The longest
/// fault-free leg of the exchange microbench is a few hundred
/// microseconds, so the timeout never fires spuriously but still
/// recovers a dropped control packet in small multiples of the leg time.
const RETRY_TIMEOUT: SimDuration = SimDuration::from_us_f64(1000.0);

/// Ceiling of the backed-off wait: 8 ms.
const RETRY_CAP: SimDuration = SimDuration::from_us_f64(8000.0);

/// Retries of one message before the node gives up: the catastrophic
/// failure the paper assumes of a failed CRC (§2.2).
const MAX_ATTEMPTS: u32 = 10;

/// The wait armed before retry `attempt` (0-based): capped exponential
/// backoff, `RETRY_TIMEOUT · 2^attempt` saturating at `RETRY_CAP`.
fn backoff(attempt: u32) -> SimDuration {
    let mut d = RETRY_TIMEOUT;
    for _ in 0..attempt {
        let doubled = d + d;
        d = if doubled > RETRY_CAP {
            RETRY_CAP
        } else {
            doubled
        };
        if d == RETRY_CAP {
            break;
        }
    }
    d
}

/// The timeout guarding a node's blocking wait: capped exponential
/// `backoff`, with an epoch that makes the timeouts of waits already
/// resolved no-ops.
#[derive(Default)]
pub struct Guard {
    /// Bumped on every state transition; pending timeouts carrying an
    /// older epoch are stale.
    epoch: u64,
    /// Retries of the currently guarded wait (drives the backoff).
    attempts: u32,
}

impl Guard {
    /// Invalidate pending timeouts and reset the backoff ladder.
    pub fn new_wait(&mut self) {
        self.epoch += 1;
        self.attempts = 0;
    }

    /// Arm the timeout guarding the current wait; `attempts` picks the
    /// backoff step.
    pub fn arm(&self, ctx: &mut Ctx<'_>) {
        let epoch = self.epoch;
        ctx.wake_after(backoff(self.attempts), Timeout { epoch });
    }

    /// Whether `t` guarded a wait that has already resolved.
    pub fn is_stale(&self, t: &Timeout) -> bool {
        t.epoch != self.epoch
    }

    /// The current wait expired and its message is about to be re-sent:
    /// one more rung of the backoff ladder, counted as a timeout. Running
    /// out of attempts is the catastrophic failure the paper assumes.
    pub fn retry(
        &mut self,
        recovery: &mut RecoveryCounters,
        me: u16,
        round: impl std::fmt::Display,
        want: &str,
    ) {
        assert!(
            self.attempts < MAX_ATTEMPTS,
            "node {me}: retries exhausted in round {round} (waiting for {want})"
        );
        self.attempts += 1;
        recovery.bump(RecoveryEvent::Timeout);
    }
}

/// Run one node per endpoint of a fresh `n`-endpoint fabric (`n` a power
/// of two ≥ 2, which the fat tree insists on), under `plan` if any:
/// endpoint `e`'s node is `make(e's endpoint)`, kicked at time zero with
/// `kick(e)`; when the event queue has drained (or a node has halted the
/// run), `each` reads every node back in endpoint order.
pub fn run_nodes<N: Actor + 'static, K: Any>(
    host: HostParams,
    n: u16,
    plan: Option<&FaultPlan>,
    mut make: impl FnMut(Endpoint) -> N,
    kick: impl Fn(u16) -> K,
    mut each: impl FnMut(u16, &N),
) {
    let mut sim = Simulator::new();
    let net = ArcticNetwork::build_with(&mut sim, n, Default::default(), |me, tx_port| {
        Box::new(make(Endpoint { me, host, tx_port }))
    });
    if let Some(plan) = plan {
        net.apply_fault_plan(&mut sim, plan);
    }
    for e in 0..n {
        sim.schedule(SimTime::ZERO, net.endpoint(e), kick(e));
    }
    sim.run();
    for e in 0..n {
        each(e, sim.actor::<N>(net.endpoint(e)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_one_millisecond_to_the_eight_millisecond_cap() {
        let ms: Vec<SimDuration> = (0..5).map(backoff).collect();
        let want = [1000.0, 2000.0, 4000.0, 8000.0, 8000.0].map(SimDuration::from_us_f64);
        assert_eq!(ms, want);
        assert_eq!(backoff(MAX_ATTEMPTS), RETRY_CAP);
    }
}
