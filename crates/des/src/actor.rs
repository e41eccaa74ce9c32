//! Actors: the units of simulated hardware and protocol state.
//!
//! Every simulated component — an Arctic router, a StarT-X NIU, a protocol
//! state machine running on a host CPU — is an [`Actor`]. Actors communicate
//! exclusively by scheduling events for one another through the [`Ctx`]
//! handle passed to their event handler; this is how link latencies and
//! processing delays are expressed.

use crate::event::Payload;
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// Identifies a registered actor within one [`crate::Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub usize);

/// Blanket downcast support so harnesses can inspect concrete actor state
/// after a run. Implemented automatically for every `'static` type.
pub trait AsAny {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated component.
pub trait Actor: AsAny {
    /// Handle an event addressed to this actor. `ev` is whatever payload the
    /// sender scheduled; actors downcast to the message types they expect.
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>);
}

/// The scheduling context handed to an actor while it processes an event.
///
/// Events emitted here are buffered and merged into the main queue after the
/// handler returns, which keeps the borrow of the actor and the queue
/// disjoint.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: ActorId,
    outbox: &'a mut Vec<(SimTime, ActorId, Payload)>,
    halted: &'a mut bool,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        now: SimTime,
        self_id: ActorId,
        outbox: &'a mut Vec<(SimTime, ActorId, Payload)>,
        halted: &'a mut bool,
    ) -> Self {
        Ctx {
            now,
            self_id,
            outbox,
            halted,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently handling an event.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedule `payload` for `target` after `delay`.
    pub fn send_after(&mut self, delay: SimDuration, target: ActorId, payload: impl Any) {
        self.send_boxed_after(delay, target, Box::new(payload));
    }

    /// [`Ctx::send_after`] for a payload that is already boxed: an actor
    /// relaying the event it received passes the same allocation on.
    pub fn send_boxed_after(&mut self, delay: SimDuration, target: ActorId, payload: Payload) {
        self.outbox.push((self.now + delay, target, payload));
    }

    /// Schedule `payload` for `target` at the current instant (dispatched
    /// after the current handler returns, in scheduling order).
    pub fn send_now(&mut self, target: ActorId, payload: impl Any) {
        self.send_after(SimDuration::ZERO, target, payload);
    }

    /// Schedule an event for this actor itself after `delay`.
    pub fn wake_after(&mut self, delay: SimDuration, payload: impl Any) {
        self.send_after(delay, self.self_id, payload);
    }

    /// Stop the simulation once the current handler returns. Pending events
    /// remain queued; `Simulator::run` returns immediately.
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_events() {
        let mut outbox = Vec::new();
        let mut halted = false;
        let mut ctx = Ctx::new(SimTime::ZERO, ActorId(3), &mut outbox, &mut halted);
        assert_eq!(ctx.self_id(), ActorId(3));
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.send_after(SimDuration::from_us(1), ActorId(7), 42u32);
        ctx.wake_after(SimDuration::from_us(2), "tick");
        ctx.send_now(ActorId(1), ());
        assert_eq!(outbox.len(), 3);
        assert_eq!(outbox[0].0, SimTime::ZERO + SimDuration::from_us(1));
        assert_eq!(outbox[0].1, ActorId(7));
        assert_eq!(outbox[1].1, ActorId(3));
        assert_eq!(outbox[2].0, SimTime::ZERO);
        assert!(!halted);
    }

    #[test]
    fn halt_sets_flag() {
        let mut outbox = Vec::new();
        let mut halted = false;
        let mut ctx = Ctx::new(SimTime::ZERO, ActorId(0), &mut outbox, &mut halted);
        ctx.halt();
        assert!(halted);
    }
}
