//! The pending-event queue.
//!
//! A binary heap keyed on `(time, sequence)`. The sequence number is a
//! monotonically increasing insertion counter, so two events scheduled for
//! the same instant are dispatched in the order they were scheduled. This
//! makes entire simulations bit-for-bit reproducible.

use crate::actor::ActorId;
use crate::time::SimTime;
use std::any::Any;
use std::cmp::Ordering;

/// An event payload. Actors downcast to their own message types.
pub type Payload = Box<dyn Any>;

pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub seq: u64,
    pub target: ActorId,
    pub payload: Payload,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic pending-event set.
#[derive(Default)]
pub struct EventQueue {
    #[expect(
        clippy::disallowed_types,
        reason = "the one heap of events: its key is (time, seq), seq an insertion counter, so equal-time events pop in the order they were scheduled"
    )]
    heap: std::collections::BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub(crate) fn push(&mut self, time: SimTime, target: ActorId, payload: Payload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            time,
            seq,
            target,
            payload,
        });
    }

    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
