//! The simulation driver.

use crate::actor::{Actor, ActorId, Ctx};
use crate::event::{EventQueue, Payload};
use crate::time::SimTime;
use std::any::Any;

/// A deterministic discrete-event simulator.
///
/// Components are registered with [`Simulator::add_actor`]; external stimulus
/// is injected with [`Simulator::schedule`]; then the event loop is driven by
/// [`Simulator::run`] (until the queue drains or an actor halts).
///
/// ```
/// use hyades_des::{Actor, Ctx, SimDuration, SimTime, Simulator};
///
/// struct Echo { received: u32 }
/// impl Actor for Echo {
///     fn on_event(&mut self, ev: Box<dyn std::any::Any>, _ctx: &mut Ctx<'_>) {
///         self.received += *ev.downcast::<u32>().unwrap();
///     }
/// }
///
/// let mut sim = Simulator::new();
/// let id = sim.add_actor(Echo { received: 0 });
/// sim.schedule(SimTime::ZERO + SimDuration::from_us(5), id, 42u32);
/// sim.run();
/// assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_us(5));
/// assert_eq!(sim.actor::<Echo>(id).received, 42);
/// ```
#[derive(Default)]
pub struct Simulator {
    actors: Vec<Option<Box<dyn Actor>>>,
    queue: EventQueue,
    now: SimTime,
    halted: bool,
    dispatched: u64,
    /// Events the running handler emits, flushed into `queue` in emission
    /// order once it returns. Kept here so its buffer is reused instead
    /// of allocated per dispatched event; empty between steps.
    outbox: Vec<(SimTime, ActorId, Payload)>,
}

impl Simulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an actor, returning its id.
    pub fn add_actor(&mut self, actor: impl Actor + 'static) -> ActorId {
        self.add_boxed_actor(Box::new(actor))
    }

    /// Register a boxed actor, returning its id.
    pub fn add_boxed_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        id
    }

    /// Current simulated time (the timestamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Inject an event from outside the simulation.
    pub fn schedule(&mut self, at: SimTime, target: ActorId, payload: impl Any) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, target, Box::new(payload));
    }

    /// Immutable access to a registered actor, downcast to its concrete type.
    ///
    /// Panics if the id is invalid or the type does not match — both are
    /// programming errors in the simulation harness.
    pub fn actor<T: Actor + 'static>(&self, id: ActorId) -> &T {
        let slot = match self.actors[id.0].as_ref() {
            Some(a) => a,
            None => panic!("actor {} is currently executing or not seated yet", id.0),
        };
        match slot.as_any().downcast_ref::<T>() {
            Some(t) => t,
            None => panic!("actor {} type mismatch", id.0),
        }
    }

    /// Mutable access to a registered actor, downcast to its concrete type.
    pub fn actor_mut<T: Actor + 'static>(&mut self, id: ActorId) -> &mut T {
        let slot = match self.actors[id.0].as_mut() {
            Some(a) => a,
            None => panic!("actor {} is currently executing or not seated yet", id.0),
        };
        match slot.as_any_mut().downcast_mut::<T>() {
            Some(t) => t,
            None => panic!("actor {} type mismatch", id.0),
        }
    }

    /// Run until no events remain or an actor calls [`Ctx::halt`].
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Dispatch a single event. Returns false if the queue is empty or the
    /// simulation has been halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue violated causality");
        self.now = ev.time;
        self.dispatched += 1;

        // Temporarily take the actor out so it can borrow the context
        // mutably while the simulator stays usable.
        let mut actor = self.actors[ev.target.0]
            .take()
            .unwrap_or_else(|| panic!("event for unregistered/busy actor {:?}", ev.target));
        let mut outbox = std::mem::take(&mut self.outbox);
        {
            let mut ctx = Ctx::new(self.now, ev.target, &mut outbox, &mut self.halted);
            actor.on_event(ev.payload, &mut ctx);
        }
        self.actors[ev.target.0] = Some(actor);
        for (t, target, payload) in outbox.drain(..) {
            self.queue.push(t, target, payload);
        }
        self.outbox = outbox;
        true
    }

    /// Clear the halted flag so the simulation can be resumed.
    pub fn resume(&mut self) {
        self.halted = false;
    }

    /// Claim the next actor id for an actor that can only be built later
    /// (it must know ids created after its own); an event for the slot
    /// panics until [`Simulator::insert_actor_at`] has seated it.
    pub fn reserve(&mut self) -> ActorId {
        self.actors.push(None);
        ActorId(self.actors.len() - 1)
    }

    /// Seat an actor in a slot claimed by [`Simulator::reserve`].
    pub fn insert_actor_at(&mut self, id: ActorId, actor: Box<dyn Actor>) {
        assert!(self.actors[id.0].is_none(), "slot {id:?} is still occupied");
        self.actors[id.0] = Some(actor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A pair of actors playing ping-pong a fixed number of times.
    struct Pinger {
        peer: Option<ActorId>,
        remaining: u32,
        last_time: SimTime,
    }

    impl Actor for Pinger {
        fn on_event(&mut self, _ev: Payload, ctx: &mut Ctx<'_>) {
            self.last_time = ctx.now();
            if self.remaining == 0 {
                ctx.halt();
                return;
            }
            self.remaining -= 1;
            let peer = self.peer.expect("peer wired");
            ctx.send_after(SimDuration::from_us(1), peer, ());
        }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut sim = Simulator::new();
        let a = sim.add_actor(Pinger {
            peer: None,
            remaining: 5,
            last_time: SimTime::ZERO,
        });
        let b = sim.add_actor(Pinger {
            peer: None,
            remaining: 5,
            last_time: SimTime::ZERO,
        });
        sim.actor_mut::<Pinger>(a).peer = Some(b);
        sim.actor_mut::<Pinger>(b).peer = Some(a);
        sim.schedule(SimTime::ZERO, a, ());
        sim.run();
        // a fires at t=0 (sends to b at 1), b at 1, a at 2 ... until one side
        // exhausts its count and halts.
        assert!(sim.now() > SimTime::ZERO);
        assert!(sim.events_dispatched() >= 10);
    }

    struct Counter {
        count: u64,
    }
    impl Actor for Counter {
        fn on_event(&mut self, _ev: Payload, _ctx: &mut Ctx<'_>) {
            self.count += 1;
        }
    }

    #[test]
    fn reserved_slot_keeps_its_id_and_is_seated_later() {
        let mut sim = Simulator::new();
        let early = sim.reserve();
        let later = sim.add_actor(Counter { count: 0 });
        assert_eq!((early, later), (ActorId(0), ActorId(1)));
        sim.insert_actor_at(early, Box::new(Counter { count: 0 }));
        sim.schedule(SimTime::ZERO, early, ());
        sim.run();
        assert_eq!(sim.actor::<Counter>(early).count, 1);
        assert_eq!(sim.actor::<Counter>(later).count, 0);
    }

    /// Appends its label to a shared log when an event reaches it.
    struct Logger {
        label: u32,
        log: Rc<RefCell<Vec<u32>>>,
    }
    impl Actor for Logger {
        fn on_event(&mut self, _ev: Payload, _ctx: &mut Ctx<'_>) {
            self.log.borrow_mut().push(self.label);
        }
    }

    /// Sends one same-instant event to each target, in order; optionally
    /// halts first.
    struct Fanout {
        targets: Vec<ActorId>,
        halt: bool,
    }
    impl Actor for Fanout {
        fn on_event(&mut self, _ev: Payload, ctx: &mut Ctx<'_>) {
            if self.halt {
                ctx.halt();
            }
            for &t in &self.targets {
                ctx.send_now(t, ());
            }
        }
    }

    fn loggers(sim: &mut Simulator, labels: &[u32]) -> (Vec<ActorId>, Rc<RefCell<Vec<u32>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let ids = labels
            .iter()
            .map(|&label| {
                sim.add_actor(Logger {
                    label,
                    log: Rc::clone(&log),
                })
            })
            .collect();
        (ids, log)
    }

    #[test]
    fn same_instant_events_dispatch_in_emission_order() {
        let mut sim = Simulator::new();
        let (ids, log) = loggers(&mut sim, &[0, 1, 2, 3, 4, 5]);
        // Targets deliberately out of id order; the second handler runs at
        // the same timestamp, so its three events queue behind the first's.
        let first = sim.add_actor(Fanout {
            targets: vec![ids[2], ids[0], ids[1]],
            halt: false,
        });
        let second = sim.add_actor(Fanout {
            targets: vec![ids[5], ids[3], ids[4]],
            halt: false,
        });
        let at = SimTime::from_ps(7);
        sim.schedule(at, first, ());
        sim.schedule(at, second, ());
        sim.run();
        assert_eq!(*log.borrow(), vec![2, 0, 1, 5, 3, 4]);
        assert_eq!(sim.now(), at);
        assert_eq!(sim.events_dispatched(), 8);
    }

    #[test]
    fn halting_handler_still_queues_its_outbox() {
        let mut sim = Simulator::new();
        let (ids, log) = loggers(&mut sim, &[0, 1, 2]);
        let fan = sim.add_actor(Fanout {
            targets: ids,
            halt: true,
        });
        sim.schedule(SimTime::ZERO, fan, ());
        sim.run();
        assert!(sim.halted);
        assert_eq!(sim.events_dispatched(), 1);
        assert_eq!(sim.pending_events(), 3, "outbox lost on halt");
        assert!(log.borrow().is_empty());
        sim.resume();
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn outside_schedule_at_now_queues_behind_a_halted_handlers_events() {
        let mut sim = Simulator::new();
        let (ids, log) = loggers(&mut sim, &[0, 1, 2, 3]);
        let fan = sim.add_actor(Fanout {
            targets: vec![ids[2], ids[0]],
            halt: true,
        });
        let at = SimTime::from_ps(3);
        sim.schedule(at, fan, ());
        sim.run();
        assert_eq!(sim.now(), at);
        // The halted handler's two events at `at` were queued first, so
        // outside events at `at` dispatch behind them in the order they
        // were scheduled, and the one at a later time waits for them all.
        sim.schedule(at, ids[3], ());
        sim.schedule(SimTime::from_ps(4), ids[1], ());
        sim.schedule(at, ids[1], ());
        sim.resume();
        sim.run();
        assert_eq!(*log.borrow(), vec![2, 0, 3, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        let c = sim.add_actor(Counter { count: 0 });
        sim.schedule(SimTime::from_ps(10), c, ());
        sim.run();
        sim.schedule(SimTime::from_ps(5), c, ());
    }
}
