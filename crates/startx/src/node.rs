//! What the simulated protocol nodes share — the VI leg here and the
//! global sums of `hyades-comms`: the fabric endpoint (identity, host
//! cost model, injection port, the PIO control send), the guarded wait of
//! the two recovering protocols, and the harness that runs one node per
//! endpoint on a fresh fabric.

use crate::host::HostParams;
use crate::recovery::{RecoveryCounters, RecoveryEvent};
use hyades_arctic::network::{ArcticNetwork, Delivered, Inject};
use hyades_arctic::packet::{Packet, Priority};
use hyades_des::event::Payload;
use hyades_des::fault::{FaultPlan, RetryPolicy};
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use std::any::Any;

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
        let os = self.host.pio.send_overhead(8);
        let pkt = Packet::new(self.me, dst, Priority::High, tag, words);
        ctx.send_after(lead + os, self.tx_port, Inject(pkt));
    }

    /// CPU cost of taking a two-word message a node is blocked on: one
    /// status poll plus the PIO read of header and payload.
    pub fn recv_cost(&self) -> SimDuration {
        self.host.status_poll + self.host.pio.recv_overhead(8)
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

/// The timeout guarding a node's blocking wait: capped exponential
/// backoff under [`RetryPolicy`], with an epoch that makes the timeouts
/// of waits already resolved no-ops.
#[derive(Default)]
pub struct Guard {
    policy: RetryPolicy,
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
        ctx.wake_after(self.policy.arm(self.attempts), Timeout { epoch });
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
            self.attempts < self.policy.max_attempts,
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
