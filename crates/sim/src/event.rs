//! The pending-event queue: a `BinaryHeap` scheduler whose pop order is the
//! total order `(time, seq)`, i.e. time order with FIFO tie-breaking.

use crate::time::{Duration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for execution, as stored in the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone sequence number used to break ties deterministically
    /// (FIFO among events scheduled for the same instant).
    pub seq: u64,
    /// The event payload handed to the [`World`](crate::World).
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of future events, ordered by time then insertion order.
///
/// The queue tracks the current simulation time: events may only be scheduled
/// at or after "now", which catches causality bugs in protocol code early.
///
/// ```
/// use wsn_sim::{Duration, EventQueue, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_in(Duration::from_secs(2), "later");
/// q.schedule_at(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// assert_eq!(q.pop().unwrap().event, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Times in the past are clamped to "now": protocol code frequently
    /// computes ideal send instants (e.g. the just-in-time prefetch bound)
    /// that have already passed, in which case the action happens immediately.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Time of the next pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let next = self.heap.pop()?;
        debug_assert!(next.time >= self.now, "event queue time went backwards");
        self.now = next.time;
        Some(next)
    }

    /// Removes all pending events without changing the clock. The heap keeps
    /// its capacity, so refilling after a clear allocates nothing.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3);
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop();
        // Scheduling in the past is clamped to the current time rather than
        // violating causality.
        q.schedule_at(SimTime::from_secs(1), "late");
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(10));
        assert_eq!(e.event, "late");
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_in(Duration::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule_at(SimTime::from_secs(i), i);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.scheduled_total(), 5);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 5);
        // A cleared queue keeps working.
        q.schedule_at(SimTime::from_secs(9), 9);
        assert_eq!(q.pop().unwrap().event, 9);
    }

    #[test]
    fn scattered_times_pop_in_stable_order() {
        // A deterministic scatter with many ties: nothing may be lost or
        // reordered.
        let mut q = EventQueue::new();
        let mut expect: Vec<u64> = Vec::new();
        for i in 0..1000u64 {
            let t = (i * 7919) % 4096; // deterministic scatter, many ties
            q.schedule_at(SimTime::from_millis(t), t);
            expect.push(t);
        }
        expect.sort(); // stable: equal times keep insertion order
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, expect);
    }
}
