//! The discrete-event queue driving a simulation run.
//!
//! Simulated time is whole milliseconds, so the queue is a calendar queue
//! (R. Brown, "Calendar queues", CACM 1988) rather than a binary heap: one
//! FIFO bucket per millisecond, and a pop takes the head of the earliest
//! non-empty bucket. A bucket keeps insertion order, which is the tie-break
//! for events due at the same instant.
//!
//! Time is cut into blocks of 2,048 ms. Three tiers hold an event by how
//! far ahead it is due:
//!
//! * the **ring** — one-millisecond buckets covering the blocks `base` and
//!   `base + 1`, with a bitmap that finds the next non-empty bucket;
//! * the **second level** — one list per block for the 2,048 blocks after
//!   the ring (about 70 minutes), also with a bitmap. When the ring moves on
//!   by a block, the block that enters it is cascaded in whole, in
//!   insertion order, before any direct push can land in it, so ties stay
//!   FIFO;
//! * the **far** tier — a heap of `(time, insertion)` keys for events due
//!   beyond the second level, moved into it as its window reaches them.
//!
//! Events live in one slot pool reused through a free list, and every list
//! links through it: a warm queue allocates nothing per push or pop. An
//! event due before the ring's window — pushed earlier than the last pop,
//! or after a look at the head moved the window past an idle stretch —
//! waits in a short sorted list that is always popped first.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Milliseconds per block: the step by which the ring moves.
const BLOCK_MS: u64 = 2048;

/// One-millisecond buckets in the ring: two blocks.
const RING: usize = 2 * BLOCK_MS as usize;

/// Blocks the second level covers after the ring: about 70 simulated
/// minutes, more than the paper's 40,000 sends at 10 msg/s span.
const LEVEL2_BLOCKS: usize = 2048;

/// End of a list, and an empty free list.
const NIL: u32 = u32::MAX;

/// Why a slot on a list holds an event: only a free slot holds `None`.
const QUEUED_SLOT: &str = "a queued slot holds its event";

/// A time-ordered event queue.
///
/// Events scheduled for the same instant are delivered in insertion order
/// (FIFO), which keeps runs deterministic.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every event, queued or not; a free slot holds `None`.
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    /// Number of scheduled events.
    len: usize,
    /// First block of the ring's window: the ring holds every event due in
    /// blocks `base` and `base + 1`.
    base: u64,
    /// No ring event is due before this instant.
    cursor: u64,
    /// One bucket per millisecond of the window, indexed by `time % RING`.
    ring: Lists,
    /// One list per block after the ring, indexed by
    /// `block % LEVEL2_BLOCKS`.
    level2: Lists,
    /// `(time, insertion, slot)` of events due beyond the second level.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Insertion counter for `far`.
    far_pushes: u64,
    /// Slots due before the ring's window, sorted by time, ties in
    /// insertion order.
    early: VecDeque<u32>,
}

#[derive(Debug)]
struct Slot<E> {
    at: u64,
    /// Next slot of the same list.
    next: u32,
    event: Option<E>,
}

/// Where the earliest event sits.
#[derive(Clone, Copy)]
enum Head {
    Early,
    Ring(usize),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            len: 0,
            base: 0,
            cursor: 0,
            ring: Lists::new(RING),
            level2: Lists::new(LEVEL2_BLOCKS),
            far: BinaryHeap::new(),
            far_pushes: 0,
            early: VecDeque::new(),
        }
    }

    /// Schedules an event at the given time.
    pub fn push(&mut self, at: SimTime, event: E) {
        let at = at.as_millis();
        let slot = if self.free == NIL {
            self.slots.push(Slot {
                at,
                next: NIL,
                event: Some(event),
            });
            (self.slots.len() - 1) as u32
        } else {
            let slot = self.free;
            let entry = &mut self.slots[slot as usize];
            self.free = entry.next;
            entry.at = at;
            entry.event = Some(event);
            slot
        };
        self.len += 1;
        self.place(slot);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (head, slot) = self.front()?;
        Some(self.take(head, slot))
    }

    /// Removes and returns the earliest event only if it satisfies the
    /// predicate; otherwise leaves the queue's contents untouched.
    ///
    /// This lets a caller drain a *batch* of related events scheduled for
    /// the same instant (e.g. all packets arriving at one node) without
    /// popping and re-inserting, which would disturb the FIFO tie-break.
    pub fn pop_if(&mut self, predicate: impl FnOnce(SimTime, &E) -> bool) -> Option<(SimTime, E)> {
        let (head, slot) = self.front()?;
        let entry = &self.slots[slot as usize];
        let event = entry.event.as_ref().expect(QUEUED_SLOT);
        if !predicate(SimTime(entry.at), event) {
            return None;
        }
        Some(self.take(head, slot))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files a queued slot under the tier its time belongs to.
    fn place(&mut self, slot: u32) {
        let at = self.slots[slot as usize].at;
        let block = at / BLOCK_MS;
        if block < self.base {
            let slots = &self.slots;
            let position = self
                .early
                .partition_point(|&queued| slots[queued as usize].at <= at);
            self.early.insert(position, slot);
        } else if block < self.base + 2 {
            self.ring.append(&mut self.slots, ring_index(at), slot);
            self.cursor = self.cursor.min(at);
        } else if block < self.base + 2 + LEVEL2_BLOCKS as u64 {
            self.level2
                .append(&mut self.slots, level2_index(block), slot);
        } else {
            self.far.push(Reverse((at, self.far_pushes, slot)));
            self.far_pushes += 1;
        }
    }

    /// Finds the earliest event, moving the ring on to the next non-empty
    /// block when it has run dry.
    fn front(&mut self) -> Option<(Head, u32)> {
        if let Some(&slot) = self.early.front() {
            return Some((Head::Early, slot));
        }
        loop {
            if let Some(index) = self.next_ring_bucket() {
                return Some((Head::Ring(index), self.ring.head[index]));
            }
            let block = self.next_block()?;
            // `block` is at least `base + 2`, so this moves forward and the
            // window ends with `block`.
            self.set_base(block - 1);
        }
    }

    /// The first non-empty ring bucket at or after the cursor, in time
    /// order; moves the cursor to it.
    fn next_ring_bucket(&mut self) -> Option<usize> {
        let window = self.base * BLOCK_MS;
        // The bucket of the window's first millisecond.
        let start = ring_index(window);
        let index = self.ring.first_set_round(ring_index(self.cursor), start)?;
        self.cursor = window + ((index + RING - start) % RING) as u64;
        Some(index)
    }

    /// The first block after the ring that holds an event.
    fn next_block(&self) -> Option<u64> {
        let first = self.base + 2;
        let start = level2_index(first);
        match self.level2.first_set_round(start, start) {
            Some(index) => Some(first + ((index + LEVEL2_BLOCKS - start) % LEVEL2_BLOCKS) as u64),
            None => self.far.peek().map(|Reverse((at, _, _))| at / BLOCK_MS),
        }
    }

    /// Moves the ring's window forward to start at block `base`: the
    /// second-level blocks it reaches are cascaded into the ring, and the
    /// far events the second level now reaches move down a tier.
    fn set_base(&mut self, base: u64) {
        let old_level2_end = self.base + 2 + LEVEL2_BLOCKS as u64;
        for block in (self.base + 2).max(base)..(base + 2).min(old_level2_end) {
            let mut slot = self.level2.take(level2_index(block));
            while slot != NIL {
                let next = self.slots[slot as usize].next;
                let at = self.slots[slot as usize].at;
                self.ring.append(&mut self.slots, ring_index(at), slot);
                slot = next;
            }
        }
        self.base = base;
        self.cursor = self.cursor.max(base * BLOCK_MS);
        let level2_end = base + 2 + LEVEL2_BLOCKS as u64;
        while let Some(&Reverse((at, _, slot))) = self.far.peek() {
            if at / BLOCK_MS >= level2_end {
                break;
            }
            self.far.pop();
            self.place(slot);
        }
    }

    /// Unlinks the event [`EventQueue::front`] found and frees its slot.
    fn take(&mut self, head: Head, slot: u32) -> (SimTime, E) {
        match head {
            Head::Early => {
                self.early.pop_front();
            }
            Head::Ring(index) => self.ring.pop_front(&self.slots, index),
        }
        let entry = &mut self.slots[slot as usize];
        let at = entry.at;
        let event = entry.event.take();
        entry.next = self.free;
        self.free = slot;
        self.len -= 1;
        // The first block has run dry: the window moves on by one.
        if matches!(head, Head::Ring(_)) && at >= (self.base + 1) * BLOCK_MS {
            self.set_base(self.base + 1);
        }
        (SimTime(at), event.expect(QUEUED_SLOT))
    }
}

fn ring_index(at: u64) -> usize {
    at as usize % RING
}

fn level2_index(block: u64) -> usize {
    block as usize % LEVEL2_BLOCKS
}

/// FIFO lists of slots, linked through [`Slot::next`], with a bitmap of
/// the non-empty ones.
#[derive(Debug)]
struct Lists {
    head: Vec<u32>,
    tail: Vec<u32>,
    occupied: Vec<u64>,
}

impl Lists {
    fn new(count: usize) -> Self {
        Self {
            head: vec![NIL; count],
            tail: vec![NIL; count],
            occupied: vec![0; count.div_ceil(64)],
        }
    }

    fn append<E>(&mut self, slots: &mut [Slot<E>], list: usize, slot: u32) {
        slots[slot as usize].next = NIL;
        match self.tail[list] {
            NIL => {
                self.head[list] = slot;
                self.occupied[list / 64] |= 1 << (list % 64);
            }
            tail => slots[tail as usize].next = slot,
        }
        self.tail[list] = slot;
    }

    fn pop_front<E>(&mut self, slots: &[Slot<E>], list: usize) {
        let next = slots[self.head[list] as usize].next;
        self.head[list] = next;
        if next == NIL {
            self.clear(list);
        }
    }

    /// Empties a list and returns its first slot; the rest stay linked.
    fn take(&mut self, list: usize) -> u32 {
        let head = self.head[list];
        if head != NIL {
            self.head[list] = NIL;
            self.clear(list);
        }
        head
    }

    fn clear(&mut self, list: usize) {
        self.tail[list] = NIL;
        self.occupied[list / 64] &= !(1 << (list % 64));
    }

    /// The first non-empty list at or after `from`, going round past the
    /// last list to the one before `stop` — all the way round when `stop`
    /// is `from`.
    fn first_set_round(&self, from: usize, stop: usize) -> Option<usize> {
        if from < stop {
            self.first_set(from, stop)
        } else {
            self.first_set(from, self.head.len())
                .or_else(|| self.first_set(0, stop))
        }
    }

    /// The first non-empty list in `from..to`.
    fn first_set(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let index = word * 64 + bits.trailing_zeros() as usize;
                return (index < to).then_some(index);
            }
            word += 1;
            if word * 64 >= to {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn events_come_out_in_time_order() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_millis(30), "c");
        queue.push(SimTime::from_millis(10), "a");
        queue.push(SimTime::from_millis(20), "b");

        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_preserve_insertion_order() {
        let mut queue = EventQueue::new();
        for label in ["first", "second", "third", "fourth"] {
            queue.push(SimTime::from_millis(5), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third", "fourth"]);
    }

    #[test]
    fn len_and_empty() {
        let mut queue: EventQueue<u32> = EventQueue::new();
        assert!(queue.is_empty());
        queue.push(SimTime::ZERO, 1);
        queue.push(SimTime::ZERO, 2);
        assert_eq!(queue.len(), 2);
        queue.pop();
        assert_eq!(queue.len(), 1);
        queue.pop();
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_millis(10), 10u32);
        queue.push(SimTime::from_millis(5), 5);
        assert_eq!(queue.pop().unwrap().1, 5);
        queue.push(SimTime::from_millis(1), 1);
        queue.push(SimTime::from_millis(20), 20);
        assert_eq!(queue.pop().unwrap().1, 1);
        assert_eq!(queue.pop().unwrap().1, 10);
        assert_eq!(queue.pop().unwrap().1, 20);
    }

    #[test]
    fn ties_cascaded_from_every_tier_stay_in_insertion_order() {
        let mut queue = EventQueue::new();
        let far = SimTime::from_millis(BLOCK_MS * (LEVEL2_BLOCKS as u64 + 9) + 3);
        let level2 = SimTime::from_millis(BLOCK_MS * 7 + 11);
        queue.push(far, "far-1");
        queue.push(level2, "level2-1");
        queue.push(SimTime::from_millis(1), "now");
        queue.push(far, "far-2");
        queue.push(level2, "level2-2");
        assert_eq!(queue.pop(), Some((SimTime::from_millis(1), "now")));
        // The window reaches `level2` now; a direct push lands after the
        // cascaded ones.
        assert_eq!(queue.pop(), Some((level2, "level2-1")));
        queue.push(level2, "level2-3");
        queue.push(far, "far-3");
        let rest: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, ["level2-2", "level2-3", "far-1", "far-2", "far-3"]);
    }

    /// What a pop returns: `(time, label)`.
    type Popped = Option<(SimTime, u64)>;

    /// The reference: a binary heap ordered by `(time, insertion)`.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        pushes: u64,
    }

    impl Model {
        fn push(&mut self, at: u64) -> u64 {
            let label = self.pushes;
            self.pushes += 1;
            self.heap.push(Reverse((at, label)));
            label
        }

        fn pop(&mut self) -> Popped {
            self.heap
                .pop()
                .map(|Reverse((at, label))| (SimTime(at), label))
        }

        fn pop_if(&mut self, predicate: impl FnOnce(SimTime, &u64) -> bool) -> Popped {
            let Reverse((at, label)) = *self.heap.peek()?;
            if predicate(SimTime(at), &label) {
                self.pop()
            } else {
                None
            }
        }
    }

    #[test]
    fn random_interleavings_match_a_binary_heap() {
        for seed in 1..=12 {
            let mut rng = SimRng::new(seed);
            let mut queue = EventQueue::new();
            let mut model = Model::default();
            let mut last = 0u64;
            for step in 0..20_000 {
                let roll = rng.random_below(100);
                if roll < 55 {
                    let at = match rng.random_below(20) {
                        // The same instant as the last pop: ties.
                        0..=5 => last,
                        6..=11 => last + rng.random_below(40),
                        // Within and beyond the ring.
                        12..=15 => last + rng.random_below(3 * RING as u64),
                        // Beyond the second level.
                        16 | 17 => last + rng.random_below(2 * BLOCK_MS * LEVEL2_BLOCKS as u64),
                        // Earlier than the last pop, some before the window.
                        _ => last.saturating_sub(rng.random_below(3 * BLOCK_MS)),
                    };
                    let label = model.push(at);
                    queue.push(SimTime(at), label);
                } else if roll < 85 {
                    let popped = queue.pop();
                    assert_eq!(popped, model.pop(), "seed {seed}, step {step}");
                    if let Some((at, _)) = popped {
                        last = at.as_millis();
                    }
                } else {
                    let odd = rng.chance(0.5);
                    let predicate = |at: SimTime, label: &u64| {
                        at.as_millis() == last || (label % 2 == 1) == odd
                    };
                    let popped = queue.pop_if(predicate);
                    assert_eq!(popped, model.pop_if(predicate), "seed {seed}, step {step}");
                    if let Some((at, _)) = popped {
                        last = at.as_millis();
                    }
                }
                assert_eq!(queue.len(), model.heap.len(), "seed {seed}, step {step}");
            }
            while let Some(popped) = queue.pop() {
                assert_eq!(Some(popped), model.pop(), "seed {seed}, draining");
            }
            assert!(model.heap.is_empty() && queue.is_empty());
        }
    }
}
