//! The pending-event queue.
//!
//! One `Vec` kept sorted latest-first, so the next event is the last one and
//! a pop is `Vec::pop`. A push scans back from the end past every pending
//! event due no later than the new one and inserts it there. Events
//! therefore dispatch by time, then by insertion position: two events
//! scheduled for the same instant are dispatched in the order they were
//! scheduled. This makes entire simulations bit-for-bit reproducible.
//!
//! A push costs O(pending) in the worst case: the scan and the insert's
//! move both cover the events that pop before the new one, 8 to 13 on
//! average in the simulated fabrics (DESIGN §15).

use crate::actor::ActorId;
use crate::time::SimTime;
use std::any::Any;

/// An event payload. Actors downcast to their own message types.
pub type Payload = Box<dyn Any>;

pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub target: ActorId,
    pub payload: Payload,
}

/// Deterministic pending-event set.
#[derive(Default)]
pub struct EventQueue {
    /// Sorted by time, latest first; equal times latest-scheduled first.
    events: Vec<ScheduledEvent>,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.time)
    }

    pub(crate) fn push(&mut self, time: SimTime, target: ActorId, payload: Payload) {
        let ahead = self
            .events
            .iter()
            .rev()
            .take_while(|e| e.time <= time)
            .count();
        let at = self.events.len() - ahead;
        self.events.insert(
            at,
            ScheduledEvent {
                time,
                target,
                payload,
            },
        );
    }

    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        self.events.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_ps(us * 1_000_000)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), ActorId(0), Box::new(5u64));
        q.push(t(1), ActorId(0), Box::new(1u64));
        q.push(t(3), ActorId(0), Box::new(3u64));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u64>().unwrap())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(t(7), ActorId(0), Box::new(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u64>().unwrap())
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn next_time_peeks() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(t(9), ActorId(1), Box::new(()));
        q.push(t(2), ActorId(1), Box::new(()));
        assert_eq!(q.next_time(), Some(t(2)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    /// Random pushes and pops against a reference that stable-sorts the
    /// pending events by time: few distinct times, so most pushes tie, and
    /// delays of zero from the last popped time, as a handler's `send_now`.
    #[test]
    fn random_pushes_and_pops_match_a_stable_sort_by_time() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut now = SimTime::ZERO;
            for label in 0..400u64 {
                if rng.next_below(5) < 3 {
                    let at = now + SimDuration::from_ps(rng.next_below(3));
                    q.push(at, ActorId(0), Box::new(label));
                    reference.push((at, label));
                } else {
                    let want = (!reference.is_empty()).then(|| reference.remove(0));
                    let got = q
                        .pop()
                        .map(|e| (e.time, *e.payload.downcast::<u64>().unwrap()));
                    assert_eq!(got, want, "seed {seed}, step {label}");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
                // Stable: equal times keep their scheduling order.
                reference.sort_by_key(|&(at, _)| at);
                assert_eq!(q.len(), reference.len());
                assert_eq!(q.next_time(), reference.first().map(|&(at, _)| at));
            }
        }
    }
}
