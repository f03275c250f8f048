//! The deterministic event queue.
//!
//! Every event carries an [`EventKey`] — `(time, actor, seq)` — and the
//! queue pops events in strictly ascending key order. The simulator
//! assigns `seq` from per-actor monotone counters *before* pushing, so
//! keys are unique and the pop order is a pure function of the key
//! *set*: pushing the same events in any insertion order pops them
//! identically (pinned by a property test). No wall-clock, no hashing —
//! ticks are plain `u64`s and the heap compares keys lexicographically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total-order key of a simulation event.
///
/// Ordering is lexicographic: time first (earlier events run first),
/// then actor id (camera events before the ingest tier's reserved
/// [`EventKey::INGEST_ACTOR`] at the same tick), then the actor's own
/// monotone sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulation time in ticks.
    pub time: u64,
    /// Originating actor: a camera id, or [`EventKey::INGEST_ACTOR`].
    pub actor: u64,
    /// Per-actor monotone sequence number, assigned by the simulator.
    pub seq: u64,
}

impl EventKey {
    /// Reserved actor id of the cloud ingest tier — the largest id, so
    /// ingest events at a tick run after every camera event at it.
    pub const INGEST_ACTOR: u64 = u64::MAX;
}

/// An event queue popping in strictly ascending [`EventKey`] order.
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Keyed<E>>>,
}

/// A payload ordered solely by its key (payloads need no `Ord`).
#[derive(Debug)]
struct Keyed<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for Keyed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Keyed<E> {}
impl<E> PartialOrd for Keyed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Keyed<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }

    /// An empty queue with room for `capacity` events.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Pushes an event under `key`. Keys must be unique (the simulator's
    /// per-actor counters guarantee this); duplicates would make pop
    /// order depend on heap internals.
    pub fn push(&mut self, key: EventKey, event: E) {
        self.heap.push(Reverse(Keyed { key, event }));
    }

    /// Pops the event with the smallest key.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.heap.pop().map(|Reverse(k)| (k.key, k.event))
    }

    /// The smallest key currently queued.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(k)| k.key)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time: u64, actor: u64, seq: u64) -> EventKey {
        EventKey { time, actor, seq }
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
        q.push(key(5, 0, 0), "c");
        q.push(key(1, 7, 0), "a");
        q.push(key(5, 0, 1), "d");
        q.push(key(1, 9, 0), "b");
        q.push(key(5, EventKey::INGEST_ACTOR, 0), "e");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn ingest_actor_sorts_after_every_camera() {
        assert!(key(3, u64::MAX - 1, 99) < key(3, EventKey::INGEST_ACTOR, 0));
        assert!(key(3, EventKey::INGEST_ACTOR, 0) < key(4, 0, 0));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(key(2, 1, 0), ());
        q.push(key(1, 2, 0), ());
        assert_eq!(q.peek_key(), Some(key(1, 2, 0)));
        assert_eq!(q.pop().unwrap().0, key(1, 2, 0));
        assert_eq!(q.len(), 1);
    }
}
