//! Reusable NACK / anti-entropy repair machinery.
//!
//! Both the epidemic multicast layer ([`crate::gossip`]) and the
//! room-sharded overlay (`morpheus-overlay`) recover from probabilistic
//! push-phase loss the same way: every member keeps a bounded log of
//! recently delivered messages keyed by `(origin, inc, seq)`, advertises
//! the spans it can serve, and answers NACK pulls with the logged
//! originals. This module holds the two data structures that make that
//! safe and bounded, extracted from the gossip layer so the overlay's
//! per-room trees ride the exact same repair log semantics:
//!
//! * [`Delivered`] — the per-stream delivery record (contiguous floor, an
//!   inline bit window above it and a capped set beyond the window), the
//!   ground truth that keeps repair re-streams from ever re-delivering.
//! * [`RepairLog`] — the bounded `(cap ring, TTL age)` store of delivered
//!   originals, servable on a pull: one ring of entries that every stream
//!   threads its messages through.

use std::collections::{BTreeSet, VecDeque};

use morpheus_appia::hash::HashMap;
use morpheus_appia::platform::NodeId;

/// A message stream: one `(origin, incarnation)` pair. Sequence numbers
/// are dense within a stream; a node restart opens a fresh incarnation and
/// with it a fresh sequence space.
pub type StreamKey = (NodeId, u64);

/// Sparse-set cap of the per-stream delivery tracker: when more than this
/// many delivered sequence numbers sit above the contiguous floor, the
/// oldest gaps are abandoned (treated as delivered) so the tracker's memory
/// stays bounded even for gaps no repair log can serve any more.
pub const DELIVERED_GAP_CAP: usize = 512;

/// Sequence numbers right above a tracker's floor that its inline window
/// covers: one bit each of 128.
const WINDOW: u64 = 128;

/// Per-`(origin, inc)` record of delivered sequence numbers: a contiguous
/// floor (everything at or below it was delivered or abandoned) plus the
/// delivered numbers above it. Those right above the floor, `floor + 1
/// ..= floor + 128`, are bits of an inline 128-bit window; only a number
/// beyond it takes a node of a sparse set. Sequence numbers are dense
/// within a stream, so the floor advances, the window shifts with it, and
/// a gap repaired within 128 messages costs no allocation. Unlike a
/// duplicate-suppression seen set this record is never evicted by capacity
/// pressure, which is what makes the repair pass safe against
/// re-delivery.
#[derive(Debug, Default, Clone)]
pub struct Delivered {
    pub(crate) floor: u64,
    // bound: capped at DELIVERED_GAP_CAP entries; overflow folds into the floor.
    pub(crate) above: Above,
}

/// The delivered sequence numbers above a [`Delivered`] floor.
#[derive(Debug, Default, Clone)]
pub(crate) struct Above {
    /// The window, low word first: bit `i` stands for `floor + 1 + i`, and
    /// bit 0 is never set (every path that moves the floor folds in the run
    /// above it). Two words, not a `u128`, whose 16-byte alignment would
    /// pad a tracker from 48 bytes to 64.
    near: [u64; 2],
    /// The numbers past `floor + WINDOW`.
    // bound: with `near`, at most DELIVERED_GAP_CAP entries; overflow folds into the floor.
    far: BTreeSet<u64>,
}

impl Above {
    /// Delivered sequence numbers held above the floor.
    pub(crate) fn len(&self) -> usize {
        self.window().count_ones() as usize + self.far.len()
    }

    fn window(&self) -> u128 {
        u128::from(self.near[0]) | u128::from(self.near[1]) << 64
    }

    fn set_window(&mut self, window: u128) {
        self.near = [window as u64, (window >> 64) as u64];
    }
}

impl Delivered {
    /// Whether `seq` has been delivered (or abandoned past recovery).
    pub fn contains(&self, seq: u64) -> bool {
        seq <= self.floor || self.holds(seq)
    }

    /// Whether `seq`, above the floor, is held as delivered.
    fn holds(&self, seq: u64) -> bool {
        let offset = seq - self.floor - 1;
        if offset < WINDOW {
            self.above.window() >> offset & 1 == 1
        } else {
            self.above.far.contains(&seq)
        }
    }

    /// The contiguous delivery floor: every sequence number at or below it
    /// was delivered or abandoned.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Delivered sequence numbers held above the floor: the gaps below
    /// them are what keeps the floor from advancing.
    pub fn held_above(&self) -> usize {
        self.above.len()
    }

    /// Records a delivered sequence number; returns `false` when it was
    /// already recorded (a late duplicate).
    pub fn record(&mut self, seq: u64) -> bool {
        if seq <= self.floor {
            return false;
        }
        // The next message in order moves the floor, and any other one
        // leaves it where it is.
        if seq == self.floor + 1 {
            self.raise(seq);
            return true;
        }
        let offset = seq - self.floor - 1;
        if offset < WINDOW {
            let (window, bit) = (self.above.window(), 1u128 << offset);
            if window & bit != 0 {
                return false;
            }
            self.above.set_window(window | bit);
        } else if !self.above.far.insert(seq) {
            return false;
        }
        // Bounded memory: when too many delivered seqs sit above the floor,
        // the oldest gaps are abandoned — no repair log still holds them.
        while self.above.len() > DELIVERED_GAP_CAP {
            let window = self.above.window();
            let lowest = if window != 0 {
                self.floor + 1 + u64::from(window.trailing_zeros())
            } else {
                let Some(&lowest) = self.above.far.first() else {
                    break;
                };
                lowest
            };
            self.raise(lowest);
        }
        true
    }

    /// Moves the floor up to `to` (above it), forgetting every number at
    /// or below `to`, then on over the run of delivered numbers right
    /// above: the window shifts with the floor and takes in the set's
    /// numbers it comes to cover.
    fn raise(&mut self, mut to: u64) {
        let mut window = self.above.window();
        loop {
            let shift = to - self.floor;
            window = if shift < WINDOW { window >> shift } else { 0 };
            self.floor = to;
            while let Some(&first) = self.above.far.first() {
                if first.saturating_sub(self.floor) > WINDOW {
                    break;
                }
                self.above.far.pop_first();
                if first > self.floor {
                    window |= 1 << (first - self.floor - 1);
                }
            }
            let run = window.trailing_ones();
            if run == 0 {
                break;
            }
            to = self.floor + u64::from(run);
        }
        self.above.set_window(window);
    }

    /// Abandons every gap at or below `upto`: the span was evicted from all
    /// reachable repair logs (an aged floor breach) and is being covered by a
    /// snapshot catch-up instead, so NACK repair must stop asking for it
    /// and late copies must not re-deliver.
    pub fn fast_forward(&mut self, upto: u64) {
        if upto > self.floor {
            self.raise(upto);
        }
    }

    /// Appends the sequence numbers in `[lo, hi]` not yet delivered, until
    /// `out` holds `limit` entries — those of earlier streams included, so
    /// one flat list can collect a whole pull's wants.
    pub fn missing_in(&self, lo: u64, hi: u64, limit: usize, out: &mut Vec<u64>) {
        let start = lo.max(self.floor + 1);
        for seq in start..=hi {
            if out.len() >= limit {
                return;
            }
            if !self.holds(seq) {
                out.push(seq);
            }
        }
    }
}

/// Streams no ring entry names that a log keeps beyond twice as many as
/// the rest, before it drops them (see [`RepairLog`]).
const SPARE_STREAMS: usize = 32;

/// Set in a ring entry's `slot` once the entry left its stream's chain
/// (see [`RepairLog::drop_stream`]). Slots stay far below it: a log has
/// at most one stream per ring entry plus its spare empty ones.
const DEAD: u32 = 1 << 31;

/// The bounded repair log: recently delivered originals keyed by stream
/// and sequence number, servable on a NACK pull. Two independent bounds —
/// an insertion-ordered ring of at most `cap` entries and an age limit of
/// `ttl_ms` — are enforced by the caller passing its knobs to [`store`]
/// and [`evict`], so one log type serves sessions with different budgets.
///
/// The ring holds the messages themselves, oldest first: a store appends
/// an entry and an eviction pops the front one, and no stream owns a
/// buffer. Each entry names its stream by a slot that stays put, and
/// links to the stream's next entry in sequence order by ring position,
/// so a stream is a chain through the ring from its lowest sequence
/// number (`head`) to its highest (`tail`). Messages arrive nearly in
/// order and leave oldest first, so a store links at the tail and an
/// eviction unlinks at the head; an out-of-order one walks the chain.
///
/// The streams sit in one `Vec` sorted by key, each with its span inline,
/// so a digest reads its rows in one pass over contiguous memory; a
/// fixed-seed hash index finds a stream's slot, and a table the slot's
/// place, for a store, an eviction or a pull. A new stream is appended,
/// and sorted into place (which moves the others and so rewrites the slot
/// table) only when rows are next read: a member that meets 200 origins
/// sorts a few times, not 200. A stream the ring empties keeps its place
/// and slot for the origin's next message: at a few messages per stream,
/// streams empty and refill all the time. Once the streams no ring entry
/// names outnumber twice the rest by `SPARE_STREAMS` they are dropped
/// together and their slots recycled.
///
/// [`store`]: RepairLog::store
/// [`evict`]: RepairLog::evict
#[derive(Debug, Default)]
pub struct RepairLog<M> {
    /// Every entry, oldest first: the one at ring position `front + i` is
    /// `entries[i]`. Positions wrap around `u32`.
    // bound: `cap` entries (one more while a store evicts) + `ttl_ms` age passed to store/evict; capacity grows to `cap + 1` at most.
    entries: VecDeque<Entry<M>>,
    front: u32,
    /// Messages held: the entries still in their stream's chain.
    len: usize,
    /// Every stream, holding messages or empty: sorted by key up to
    /// `sorted`, then the streams opened since, in the order they opened.
    // bound: streams some entry names <= `cap`; the others <= 2 x those + SPARE_STREAMS.
    streams: Vec<Stream>,
    sorted: usize,
    /// Each stream's slot.
    // bound: one entry per stream in `streams`.
    index: HashMap<StreamKey, u32>,
    /// Each slot's position in `streams`.
    // bound: one entry per slot, the most streams the log held at once.
    places: Vec<u32>,
    /// Slots of dropped streams, for the next streams to open.
    // bound: <= `places.len()`.
    free: Vec<u32>,
    /// Streams holding at least one message.
    live: usize,
    /// Streams some ring entry names.
    held: usize,
}

/// One message of the ring.
#[derive(Debug)]
struct Entry<M> {
    seq: u64,
    /// When it was stored: what the TTL is counted from.
    at_ms: u64,
    message: M,
    /// The stream's slot, with [`DEAD`] set once the entry left its chain.
    slot: u32,
    /// The ring position of the stream's next entry; meaningless at the
    /// chain's tail.
    next: u32,
}

/// One stream of the log.
#[derive(Debug, Clone, Copy)]
struct Stream {
    key: StreamKey,
    slot: u32,
    /// Ring entries that name the slot, in the chain or dead.
    refs: u32,
    /// Entries in the chain: the messages held.
    count: u32,
    /// Ring positions of the chain's first and last entry, and the lowest
    /// and highest sequence numbers held — the digest row — while `count`
    /// is not 0.
    head: u32,
    tail: u32,
    lo: u64,
    hi: u64,
}

impl<M> RepairLog<M> {
    /// An empty log.
    pub fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            front: 0,
            len: 0,
            streams: Vec::new(),
            sorted: 0,
            index: HashMap::default(),
            places: Vec::new(),
            free: Vec::new(),
            live: 0,
            held: 0,
        }
    }

    /// Messages currently held across all streams.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no messages at all.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn entry(&self, position: u32) -> Option<&Entry<M>> {
        self.entries.get(position.wrapping_sub(self.front) as usize)
    }

    fn entry_mut(&mut self, position: u32) -> Option<&mut Entry<M>> {
        self.entries
            .get_mut(position.wrapping_sub(self.front) as usize)
    }

    /// The position in `streams` of the stream in `slot`.
    fn place(&self, slot: u32) -> Option<usize> {
        self.places.get(slot as usize).map(|&at| at as usize)
    }

    fn stream(&self, key: &StreamKey) -> Option<&Stream> {
        self.streams.get(self.place(*self.index.get(key)?)?)
    }

    fn put_stream(&mut self, at: usize, stream: Stream) {
        if let Some(held) = self.streams.get_mut(at) {
            *held = stream;
        }
    }

    /// The lowest sequence number held of one stream, if any.
    pub fn lowest(&self, key: &StreamKey) -> Option<u64> {
        let stream = self.stream(key)?;
        (stream.count > 0).then_some(stream.lo)
    }

    /// One logged original, if still held.
    pub fn get(&self, key: &StreamKey, seq: u64) -> Option<&M> {
        self.reader(key).get(seq)
    }

    /// A reader of one stream's logged originals, asked for ascending
    /// sequence numbers, as a pull's wants are: it walks the stream's chain
    /// once, forward only.
    pub(crate) fn reader(&self, key: &StreamKey) -> StreamReader<'_, M> {
        let stream = self.stream(key).copied().filter(|stream| stream.count > 0);
        StreamReader {
            log: self,
            stream,
            at: stream.map_or(0, |stream| stream.head),
            left: stream.map_or(0, |stream| stream.count),
        }
    }

    /// Walks `stream`'s chain to its first entry at or above `seq`: the
    /// position of the entry before it, if any, and its own, if any.
    fn seek(&self, stream: &Stream, seq: u64) -> (Option<u32>, Option<u32>) {
        let (mut before, mut at) = (None, stream.head);
        for _ in 0..stream.count {
            let Some(entry) = self.entry(at) else {
                break;
            };
            if entry.seq >= seq {
                return (before, Some(at));
            }
            before = Some(at);
            at = entry.next;
        }
        (before, None)
    }

    /// Drops a whole stream (its incarnation went stale). Its ring entries
    /// stay, dead, until the ring evicts them, and each then still takes
    /// the stream's message of its sequence number with it, should the
    /// stream have logged one again since: the slot stays the stream's
    /// while a dead entry names it.
    pub fn drop_stream(&mut self, key: &StreamKey) {
        let Some(at) = self.index.get(key).and_then(|slot| self.place(*slot)) else {
            return;
        };
        let Some(mut stream) = self.streams.get(at).copied() else {
            return;
        };
        if stream.count == 0 {
            return;
        }
        let mut position = stream.head;
        for _ in 0..stream.count {
            let Some(entry) = self.entry_mut(position) else {
                break;
            };
            entry.slot |= DEAD;
            position = entry.next;
        }
        self.len -= stream.count as usize;
        self.live -= 1;
        stream.count = 0;
        self.put_stream(at, stream);
    }

    /// Counts a stream that just lost its last ring entry, and drops every
    /// such stream once they outnumber twice the rest by
    /// [`SPARE_STREAMS`], recycling their slots.
    fn released(&mut self) {
        self.held -= 1;
        if self.streams.len() - self.held > 2 * self.held + SPARE_STREAMS {
            let (index, free) = (&mut self.index, &mut self.free);
            self.streams.retain(|stream| {
                if stream.refs > 0 {
                    return true;
                }
                index.remove(&stream.key);
                free.push(stream.slot);
                false
            });
            self.reindex();
        }
    }

    /// Sorts the streams opened since the last call into place.
    fn settle(&mut self) {
        if self.sorted < self.streams.len() {
            self.reindex();
        }
    }

    /// Sorts every stream into place and points its slot at its new
    /// position: every move of a stream goes through here, so a slot never
    /// names a place another stream took.
    fn reindex(&mut self) {
        // Keys are distinct, so an unstable sort (which allocates nothing)
        // is deterministic.
        self.streams.sort_unstable_by_key(|stream| stream.key);
        self.sorted = self.streams.len();
        for (at, stream) in self.streams.iter().enumerate() {
            if let Some(place) = self.places.get_mut(stream.slot as usize) {
                *place = at as u32;
            }
        }
    }

    /// Opens an empty stream for `key` and returns its slot.
    fn open(&mut self, key: StreamKey) -> u32 {
        let slot = self.free.pop().unwrap_or(self.places.len() as u32);
        let place = self.streams.len() as u32;
        match self.places.get_mut(slot as usize) {
            Some(held) => *held = place,
            None => self.places.push(place),
        }
        self.streams.push(Stream {
            key,
            slot,
            refs: 0,
            count: 0,
            head: 0,
            tail: 0,
            lo: 0,
            hi: 0,
        });
        self.index.insert(key, slot);
        slot
    }

    /// Stores a delivered message, evicting the oldest entries beyond
    /// `cap`. Re-storing an already-held `(key, seq)` replaces the payload
    /// without consuming another ring slot.
    pub fn store(&mut self, key: StreamKey, seq: u64, message: M, now_ms: u64, cap: usize) {
        let slot = match self.index.get(&key) {
            Some(&slot) => slot,
            None => self.open(key),
        };
        let Some(at) = self.place(slot) else {
            return;
        };
        let Some(mut stream) = self.streams.get(at).copied() else {
            return;
        };
        let position = self.front.wrapping_add(self.entries.len() as u32);
        let mut next = position;
        if stream.count == 0 {
            (stream.head, stream.tail, stream.lo, stream.hi) = (position, position, seq, seq);
            self.live += 1;
        } else if seq > stream.hi {
            if let Some(tail) = self.entry_mut(stream.tail) {
                tail.next = position;
            }
            (stream.tail, stream.hi) = (position, seq);
        } else {
            // At or below the tail: `seq` is held, or goes before the
            // first entry above it.
            let (before, Some(after)) = self.seek(&stream, seq) else {
                return;
            };
            if let Some(held) = self.entry_mut(after).filter(|held| held.seq == seq) {
                held.message = message;
                return;
            }
            next = after;
            match before.and_then(|before| self.entry_mut(before)) {
                Some(before) => before.next = position,
                None => (stream.head, stream.lo) = (position, seq),
            }
        }
        if stream.refs == 0 {
            self.held += 1;
        }
        stream.refs += 1;
        stream.count += 1;
        self.put_stream(at, stream);
        self.len += 1;
        self.reserve_one(cap);
        self.entries.push_back(Entry {
            seq,
            at_ms: now_ms,
            message,
            slot,
            next,
        });
        while self.entries.len() > cap {
            self.evict_front();
        }
    }

    /// Makes room for one more entry, doubling as a `VecDeque` does but
    /// never past the `cap + 1` entries the ring holds at most: a log at
    /// its cap does not sit in twice the room it uses.
    fn reserve_one(&mut self, cap: usize) {
        let len = self.entries.len();
        if len < self.entries.capacity() {
            return;
        }
        let room = if 2 * len >= cap { cap + 1 } else { 2 * len };
        self.entries.reserve_exact(room.max(4).max(len + 1) - len);
    }

    /// Drops logged messages older than `ttl_ms`.
    pub fn evict(&mut self, now_ms: u64, ttl_ms: u64) {
        while let Some(entry) = self.entries.front() {
            if now_ms.saturating_sub(entry.at_ms) < ttl_ms {
                break;
            }
            self.evict_front();
        }
    }

    /// Pops the ring's oldest entry. A chained one leaves its stream's
    /// chain; a dead one takes the stream's message of its sequence
    /// number, if the stream logged one again, out of the chain with it
    /// (that message's own entry stays in the ring, dead).
    fn evict_front(&mut self) {
        let Some(&Entry { seq, slot, .. }) = self.entries.front() else {
            return;
        };
        let at = self.place(slot & !DEAD);
        let stream = at.and_then(|at| self.streams.get(at)).copied();
        let mut released = false;
        if let (Some(at), Some(mut stream)) = (at, stream) {
            if slot & DEAD == 0 {
                self.unlink(&mut stream, self.front);
            } else if stream.count > 0 && (stream.lo..=stream.hi).contains(&seq) {
                if let (_, Some(found)) = self.seek(&stream, seq) {
                    if self.entry(found).is_some_and(|found| found.seq == seq) {
                        self.unlink(&mut stream, found);
                        if let Some(found) = self.entry_mut(found) {
                            found.slot |= DEAD;
                        }
                    }
                }
            }
            stream.refs -= 1;
            released = stream.refs == 0;
            self.put_stream(at, stream);
        }
        self.entries.pop_front();
        self.front = self.front.wrapping_add(1);
        if released {
            self.released();
        }
    }

    /// Takes the entry at `position` out of `stream`'s chain.
    fn unlink(&mut self, stream: &mut Stream, position: u32) {
        let Some(&Entry { seq, next, .. }) = self.entry(position) else {
            return;
        };
        let before = if position == stream.head {
            None
        } else {
            self.seek(stream, seq).0
        };
        stream.count -= 1;
        self.len -= 1;
        if stream.count == 0 {
            self.live -= 1;
            return;
        }
        match before {
            None => {
                stream.head = next;
                stream.lo = self.entry(next).map_or(stream.lo, |entry| entry.seq);
            }
            Some(before) => {
                let Some(entry) = self.entry_mut(before) else {
                    return;
                };
                entry.next = next;
                if position == stream.tail {
                    (stream.tail, stream.hi) = (before, entry.seq);
                }
            }
        }
    }

    /// The `(stream, lo, hi)` spans the log can currently serve, in
    /// deterministic `(origin, inc)` order — the digest payload — read
    /// straight from the log: nothing is looked up or collected, and only
    /// the streams opened since the last read are sorted.
    pub fn rows(&mut self) -> impl ExactSizeIterator<Item = (StreamKey, u64, u64)> + '_ {
        self.settle();
        Rows {
            streams: self.streams.iter(),
            left: self.live,
        }
    }

    /// [`RepairLog::rows`], collected.
    pub fn spans(&mut self) -> Vec<(StreamKey, u64, u64)> {
        self.rows().collect()
    }
}

/// Reads one stream's logged originals (see [`RepairLog::reader`]).
pub(crate) struct StreamReader<'a, M> {
    log: &'a RepairLog<M>,
    /// The stream, while it holds messages.
    stream: Option<Stream>,
    /// Where the walk stands, and the chain's entries from there to the
    /// tail.
    at: u32,
    left: u32,
}

impl<'a, M> StreamReader<'a, M> {
    /// The logged original of `seq`, if held. The walk never goes back: a
    /// number below one asked for before may read `None` though held.
    pub(crate) fn get(&mut self, seq: u64) -> Option<&'a M> {
        let stream = self.stream?;
        if seq < stream.lo || seq > stream.hi {
            return None;
        }
        if seq == stream.hi {
            return self.log.entry(stream.tail).map(|entry| &entry.message);
        }
        while self.left > 0 {
            let entry = self.log.entry(self.at)?;
            if entry.seq >= seq {
                return (entry.seq == seq).then_some(&entry.message);
            }
            self.at = entry.next;
            self.left -= 1;
        }
        None
    }
}

/// The digest rows of a log: its streams that hold messages, in order.
struct Rows<'a> {
    streams: std::slice::Iter<'a, Stream>,
    /// Streams holding messages not yet visited.
    left: usize,
}

impl Iterator for Rows<'_> {
    type Item = (StreamKey, u64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let stream = self.streams.find(|stream| stream.count > 0)?;
        self.left -= 1;
        Some((stream.key, stream.lo, stream.hi))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn delivered_floor_folds_contiguous_runs() {
        let mut delivered = Delivered::default();
        assert!(delivered.record(1));
        assert!(delivered.record(2));
        assert_eq!(delivered.floor(), 2);
        assert!(delivered.record(5));
        assert_eq!(delivered.floor(), 2, "gap at 3-4 holds the floor");
        assert!(!delivered.record(5), "late duplicate");
        assert!(delivered.record(3));
        assert!(delivered.record(4));
        assert_eq!(delivered.floor(), 5, "contiguous run folds into the floor");
    }

    #[test]
    fn delivered_fast_forward_abandons_gaps() {
        let mut delivered = Delivered::default();
        delivered.record(1);
        delivered.record(10);
        delivered.fast_forward(9);
        assert_eq!(delivered.floor(), 10, "seq 10 folds in after the jump");
        let mut missing = Vec::new();
        delivered.missing_in(1, 12, 16, &mut missing);
        assert_eq!(missing, vec![11, 12]);
    }

    #[test]
    fn log_ring_and_ttl_bounds_hold() {
        let origin = NodeId(1);
        let mut log: RepairLog<u32> = RepairLog::new();
        for seq in 0..8u64 {
            log.store((origin, 0), seq, seq as u32, seq * 100, 4);
        }
        assert_eq!(log.len(), 4, "ring cap evicts the oldest half");
        assert!(log.get(&(origin, 0), 3).is_none());
        assert_eq!(log.get(&(origin, 0), 7), Some(&7));
        let spans = log.spans();
        assert_eq!(spans, vec![((origin, 0), 4, 7)]);
        log.evict(949, 250);
        assert_eq!(log.spans(), vec![((origin, 0), 7, 7)]);
        log.drop_stream(&(origin, 0));
        assert!(log.is_empty());
        // Ring entries for dropped streams are skipped without panicking.
        log.evict(10_000, 1);
    }

    /// SplitMix64 for the randomised comparisons below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    /// The delivery tracker as it was before its in-order fast path: the
    /// reference [`Delivered`] is held to.
    #[derive(Default)]
    struct ReferenceDelivered {
        floor: u64,
        above: BTreeSet<u64>,
    }

    impl ReferenceDelivered {
        fn contains(&self, seq: u64) -> bool {
            seq <= self.floor || self.above.contains(&seq)
        }

        fn record(&mut self, seq: u64) -> bool {
            if self.contains(seq) {
                return false;
            }
            self.above.insert(seq);
            while self.above.remove(&(self.floor + 1)) {
                self.floor += 1;
            }
            while self.above.len() > DELIVERED_GAP_CAP {
                let Some(lowest) = self.above.iter().next().copied() else {
                    break;
                };
                self.floor = lowest;
                while {
                    let drained = self.above.remove(&self.floor);
                    let next = self.above.remove(&(self.floor + 1));
                    if next {
                        self.floor += 1;
                    }
                    drained || next
                } {}
            }
            true
        }

        fn fast_forward(&mut self, upto: u64) {
            if upto <= self.floor {
                return;
            }
            self.floor = upto;
            self.above = self.above.split_off(&(self.floor + 1));
            while self.above.remove(&(self.floor + 1)) {
                self.floor += 1;
            }
        }
    }

    #[test]
    fn the_tracker_matches_the_reference_on_random_streams() {
        let mut rng = Rng(11);
        for _ in 0..200 {
            let mut delivered = Delivered::default();
            let mut reference = ReferenceDelivered::default();
            let mut next = 1u64;
            // Wide windows leave more than `DELIVERED_GAP_CAP` gaps open.
            let window = [4, 64, 2_048][rng.below(3) as usize];
            for _ in 0..3_000 {
                let seq = match rng.below(10) {
                    // In order, the common case.
                    0..=4 => {
                        next += 1;
                        next - 1
                    }
                    // Out of order, ahead or behind.
                    5..=7 => (next + rng.below(window)).saturating_sub(window / 2),
                    // A duplicate of something recent.
                    8 => next.saturating_sub(rng.below(8)),
                    _ => {
                        let upto = next.saturating_sub(rng.below(window));
                        delivered.fast_forward(upto);
                        reference.fast_forward(upto);
                        continue;
                    }
                };
                assert_eq!(
                    delivered.record(seq),
                    reference.record(seq),
                    "record({seq})"
                );
                assert_eq!(delivered.floor(), reference.floor);
                next = next.max(seq + 1);
            }
            assert!(delivered.above.len() <= DELIVERED_GAP_CAP);
            for seq in 0..next + 4 {
                assert_eq!(
                    delivered.contains(seq),
                    reference.contains(seq),
                    "contains({seq})"
                );
            }
        }
    }

    /// The repair log as it was before its sorted stream index: the
    /// reference [`RepairLog`] is held to.
    #[derive(Default)]
    struct ReferenceLog {
        by_stream: std::collections::HashMap<StreamKey, BTreeMap<u64, u32>>,
        order: VecDeque<(StreamKey, u64, u64)>,
    }

    impl ReferenceLog {
        fn len(&self) -> usize {
            self.by_stream.values().map(BTreeMap::len).sum()
        }

        fn store(&mut self, key: StreamKey, seq: u64, message: u32, now_ms: u64, cap: usize) {
            let stream = self.by_stream.entry(key).or_default();
            if stream.insert(seq, message).is_none() {
                self.order.push_back((key, seq, now_ms));
            }
            while self.order.len() > cap {
                let Some((old_key, old_seq, _)) = self.order.pop_front() else {
                    break;
                };
                if let Some(stream) = self.by_stream.get_mut(&old_key) {
                    stream.remove(&old_seq);
                    if stream.is_empty() {
                        self.by_stream.remove(&old_key);
                    }
                }
            }
        }

        fn evict(&mut self, now_ms: u64, ttl_ms: u64) {
            while let Some((key, seq, at)) = self.order.front().copied() {
                if now_ms.saturating_sub(at) < ttl_ms {
                    break;
                }
                self.order.pop_front();
                if let Some(stream) = self.by_stream.get_mut(&key) {
                    stream.remove(&seq);
                    if stream.is_empty() {
                        self.by_stream.remove(&key);
                    }
                }
            }
        }

        fn spans(&self) -> Vec<(StreamKey, u64, u64)> {
            let mut entries: Vec<(StreamKey, u64, u64)> = self
                .by_stream
                .iter()
                .filter_map(|(key, stream)| {
                    let lo = *stream.keys().next()?;
                    let hi = *stream.keys().next_back()?;
                    Some((*key, lo, hi))
                })
                .collect();
            entries.sort_unstable_by_key(|((origin, inc), _, _)| (origin.0, *inc));
            entries
        }
    }

    #[test]
    fn the_log_matches_the_reference_under_stores_evictions_and_drops() {
        let mut rng = Rng(5);
        for _ in 0..100 {
            let cap = [4, 16, 64][rng.below(3) as usize];
            let ttl = 50 + rng.below(400);
            let mut log: RepairLog<u32> = RepairLog::new();
            let mut reference = ReferenceLog::default();
            let mut now = 0u64;
            // Few streams, or many that empty and refill.
            let origins = [6, 60][rng.below(2) as usize];
            for step in 0..600u32 {
                // Now and then a quiet spell long enough for every stream
                // to age out.
                now += if rng.below(50) == 0 {
                    1_000
                } else {
                    rng.below(8)
                };
                let key = (NodeId(rng.below(origins) as u32), rng.below(3));
                match rng.below(20) {
                    // Stores out of order, re-stores of held seqs among them.
                    0..=15 => {
                        let seq = 1 + rng.below(40);
                        log.store(key, seq, step, now, cap);
                        reference.store(key, seq, step, now, cap);
                    }
                    16..=17 => {
                        log.evict(now, ttl);
                        reference.evict(now, ttl);
                    }
                    _ => {
                        log.drop_stream(&key);
                        reference.by_stream.remove(&key);
                    }
                }
                assert_eq!(log.len(), reference.len());
                assert_eq!(log.is_empty(), reference.by_stream.is_empty());
                assert_eq!(log.spans(), reference.spans());
                for seq in 0..42 {
                    let expected = reference.by_stream.get(&key).and_then(|s| s.get(&seq));
                    assert_eq!(log.get(&key, seq), expected);
                }
            }
        }
    }

    #[test]
    fn a_log_that_ages_out_entirely_serves_old_and_new_streams_alike() {
        let mut log: RepairLog<u32> = RepairLog::new();
        let mut reference = ReferenceLog::default();
        // Thirty-four one-message streams, all aged out at once.
        for origin in 0..34u32 {
            log.store((NodeId(origin), 1), 1, origin, 0, 1_000);
            reference.store((NodeId(origin), 1), 1, origin, 0, 1_000);
        }
        log.evict(1_000, 100);
        reference.evict(1_000, 100);
        assert!(log.is_empty());
        // An old key, a new one, then the old key again.
        let stores = [(0, 2, 100), (100, 1, 101), (0, 3, 102)];
        for (origin, seq, message) in stores {
            log.store((NodeId(origin), 1), seq, message, 1_000, 1_000);
            reference.store((NodeId(origin), 1), seq, message, 1_000, 1_000);
        }
        assert_eq!(log.len(), reference.len());
        assert_eq!(log.spans(), reference.spans());
        assert_eq!(
            log.spans(),
            vec![((NodeId(0), 1), 2, 3), ((NodeId(100), 1), 1, 1)]
        );
        for (origin, seq, message) in stores {
            assert_eq!(log.get(&(NodeId(origin), 1), seq), Some(&message));
        }
        assert_eq!(log.get(&(NodeId(100), 1), 3), None);
    }

    #[test]
    fn emptied_streams_keep_their_place_until_they_outnumber_the_rest() {
        let mut log: RepairLog<u32> = RepairLog::new();
        // Sixty streams, one message each, stored at 0 ms .. 59 ms.
        for origin in 0..60u32 {
            log.store((NodeId(origin), 1), 1, origin, origin.into(), 1_000);
        }
        // The first forty age out; empty, they keep their place.
        log.evict(139, 100);
        assert_eq!((log.live, log.streams.len()), (20, 60));
        // Nineteen more: at the eleventh, 51 empty streams outnumber twice
        // the 9 left plus the spare, and go together.
        log.evict(158, 100);
        assert_eq!((log.live, log.streams.len()), (1, 9));
        assert_eq!(log.spans(), vec![((NodeId(59), 1), 1, 1)]);
        // A stream emptied after that refills in place.
        log.store((NodeId(55), 1), 2, 0, 200, 1_000);
        assert_eq!((log.live, log.streams.len()), (2, 9));
        assert_eq!(
            log.spans(),
            vec![((NodeId(55), 1), 2, 2), ((NodeId(59), 1), 1, 1)]
        );
        assert_eq!(log.lowest(&(NodeId(54), 1)), None);
    }

    /// The reference's message of `(key, seq)`.
    fn held(reference: &ReferenceLog, key: &StreamKey, seq: u64) -> Option<u32> {
        reference.by_stream.get(key)?.get(&seq).copied()
    }

    /// The log against [`ReferenceLog`] at gossip's cap, with 200 origins
    /// whose incarnations restart: streams empty and are dropped together,
    /// so slots are recycled while dead entries of dropped streams (and
    /// re-stores behind them) still sit in the ring. Returns how many
    /// stores opened a stream in a recycled slot while a dead entry was in
    /// the ring.
    fn log_sweep(seed: u64, runs: usize, steps: usize) -> usize {
        const ORIGINS: u64 = 200;
        let mut rng = Rng(seed);
        let mut recycled_past_dead = 0;
        for _ in 0..runs {
            let cap = [
                crate::gossip::REPAIR_LOG_CAP,
                crate::gossip::REPAIR_LOG_CAP / 2 + 1,
            ][rng.below(2) as usize];
            let ttl = [2_000, 10_000][rng.below(2) as usize];
            let mut log: RepairLog<u32> = RepairLog::new();
            let mut reference = ReferenceLog::default();
            // Each origin's current incarnation and next sequence number.
            let mut streams = vec![(3u64, 1u64); ORIGINS as usize];
            let mut now = 0u64;
            for step in 0..steps {
                // Now and then a quiet spell long enough for every stream
                // to age out.
                now += if rng.below(4_000) == 0 {
                    ttl
                } else {
                    rng.below(3)
                };
                let origin = rng.below(ORIGINS);
                let (inc, next) = streams[origin as usize];
                let (key, seq) = match rng.below(100) {
                    // In order, the common case.
                    0..=64 => {
                        streams[origin as usize].1 += 1;
                        ((NodeId(origin as u32), inc), next)
                    }
                    // Out of order: a gap filled late, or a re-store.
                    65..=84 => {
                        let seq = next.saturating_sub(rng.below(40)).max(1);
                        ((NodeId(origin as u32), inc), seq)
                    }
                    // A late message of an older incarnation.
                    85..=89 => {
                        let seq = 1 + rng.below(next + 8);
                        ((NodeId(origin as u32), inc - 1 - rng.below(3)), seq)
                    }
                    90..=93 => {
                        log.evict(now, ttl);
                        reference.evict(now, ttl);
                        continue;
                    }
                    // A restart: a new incarnation, and the oldest of four
                    // tracked ones dropped, as gossip drops it.
                    94..=96 => {
                        streams[origin as usize] = (inc + 1, 1);
                        let stale = (NodeId(origin as u32), inc - 3);
                        log.drop_stream(&stale);
                        reference.by_stream.remove(&stale);
                        continue;
                    }
                    // A drop of a recent incarnation, whose messages may be
                    // stored again.
                    _ => {
                        let key = (NodeId(origin as u32), inc - rng.below(2));
                        log.drop_stream(&key);
                        reference.by_stream.remove(&key);
                        continue;
                    }
                };
                let (free, opens) = (log.free.len(), !log.index.contains_key(&key));
                log.store(key, seq, step as u32, now, cap);
                reference.store(key, seq, step as u32, now, cap);
                if opens
                    && log.free.len() < free
                    && log.entries.iter().any(|entry| entry.slot & DEAD != 0)
                {
                    recycled_past_dead += 1;
                }
                for probe in seq.saturating_sub(2)..=seq + 2 {
                    assert_eq!(log.get(&key, probe).copied(), held(&reference, &key, probe));
                }
                let lowest = reference.by_stream.get(&key).and_then(|s| s.keys().next());
                assert_eq!(log.lowest(&key), lowest.copied());
                if step % 97 == 0 {
                    assert_eq!(log.len(), reference.len());
                    assert_eq!(log.is_empty(), reference.by_stream.is_empty());
                    assert_eq!(log.spans(), reference.spans());
                    assert!(log.entries.len() <= cap && log.entries.capacity() <= cap + 1);
                }
            }
            // Every message the reference holds, read back in ascending
            // order through one reader per stream.
            for (key, messages) in &reference.by_stream {
                let mut reader = log.reader(key);
                for (seq, message) in messages {
                    assert_eq!(reader.get(*seq), Some(message));
                }
            }
            assert_eq!(log.len(), reference.len());
            assert_eq!(log.spans(), reference.spans());
        }
        recycled_past_dead
    }

    #[test]
    fn the_log_matches_the_reference_at_production_scale() {
        assert!(
            log_sweep(17, 1, 40_000) > 0,
            "a slot recycled past a dead entry"
        );
    }

    /// The full sweep of [`log_sweep`]: `cargo test --release -p
    /// morpheus-groupcomm --lib -- --ignored`.
    #[test]
    #[ignore = "release-speed sweep"]
    fn the_log_matches_the_reference_at_production_scale_sweep() {
        for seed in 1..=8 {
            assert!(log_sweep(seed, 4, 150_000) > 0, "seed {seed}");
        }
    }

    /// The tracker against [`ReferenceDelivered`] with reordering windows
    /// either side of its inline bit window: gaps straddle the window's
    /// edge, and numbers beyond it move into it as the floor rises.
    fn tracker_sweep(seed: u64, runs: usize, steps: usize) {
        let mut rng = Rng(seed);
        for _ in 0..runs {
            let window = [127, 128, 129, 256][rng.below(4) as usize];
            let mut delivered = Delivered::default();
            let mut reference = ReferenceDelivered::default();
            let mut next = 1u64;
            for _ in 0..steps {
                let seq = match rng.below(10) {
                    0..=4 => {
                        next += 1;
                        next - 1
                    }
                    5..=7 => (next + rng.below(window)).saturating_sub(window / 2),
                    8 => next.saturating_sub(rng.below(window)),
                    _ => {
                        let upto = next.saturating_sub(rng.below(2 * window));
                        delivered.fast_forward(upto);
                        reference.fast_forward(upto);
                        continue;
                    }
                };
                assert_eq!(
                    delivered.record(seq),
                    reference.record(seq),
                    "record({seq})"
                );
                assert_eq!(delivered.floor(), reference.floor);
                assert_eq!(delivered.held_above(), reference.above.len());
                next = next.max(seq + 1);
                let (lo, hi) = (reference.floor.saturating_sub(4), next + 4);
                let limit = rng.below(2 * window) as usize;
                let mut missing = Vec::new();
                delivered.missing_in(lo, hi, limit, &mut missing);
                let expected: Vec<u64> = (lo.max(reference.floor + 1)..=hi)
                    .filter(|seq| !reference.contains(*seq))
                    .take(limit)
                    .collect();
                assert_eq!(missing, expected, "missing_in({lo}, {hi}, {limit})");
            }
            for seq in 0..next + 4 {
                assert_eq!(
                    delivered.contains(seq),
                    reference.contains(seq),
                    "contains({seq})"
                );
            }
        }
    }

    #[test]
    fn the_tracker_matches_the_reference_across_its_bit_window() {
        tracker_sweep(23, 8, 2_000);
    }

    /// The full sweep of [`tracker_sweep`]: `cargo test --release -p
    /// morpheus-groupcomm --lib -- --ignored`.
    #[test]
    #[ignore = "release-speed sweep"]
    fn the_tracker_matches_the_reference_across_its_bit_window_sweep() {
        for seed in 1..=8 {
            tracker_sweep(seed, 50, 20_000);
        }
    }

    /// Ring positions are `u32`s that wrap: a log whose positions start
    /// just below the wrap keeps matching the reference through it.
    #[test]
    fn ring_positions_wrap_around_u32() {
        let mut rng = Rng(29);
        let mut log: RepairLog<u32> = RepairLog::new();
        log.front = u32::MAX - 40;
        let mut reference = ReferenceLog::default();
        for step in 0..3_000u32 {
            let key = (NodeId(rng.below(5) as u32), 1);
            let seq = 1 + u64::from(step / 4) - rng.below(8).min(u64::from(step / 4));
            log.store(key, seq, step, u64::from(step), 64);
            reference.store(key, seq, step, u64::from(step), 64);
            if rng.below(50) == 0 {
                log.drop_stream(&key);
                reference.by_stream.remove(&key);
            }
            assert_eq!(log.len(), reference.len());
            assert_eq!(log.spans(), reference.spans());
            for probe in seq.saturating_sub(3)..=seq + 3 {
                assert_eq!(log.get(&key, probe).copied(), held(&reference, &key, probe));
            }
        }
        assert!(log.front < 3_000, "the positions wrapped");
    }

    /// A logged gossip message takes one ring entry of at most 56 bytes:
    /// no per-stream buffer, no second ring.
    #[test]
    fn a_ring_entry_of_a_wire_frame_fits_56_bytes() {
        assert!(std::mem::size_of::<Entry<bytes::Bytes>>() <= 56);
    }

    /// A tracker is its floor, the window's two words and the set: 48
    /// bytes, where a `u128` window would pad it to 64.
    #[test]
    fn a_tracker_fits_48_bytes() {
        assert_eq!(std::mem::size_of::<Delivered>(), 48);
    }
}
