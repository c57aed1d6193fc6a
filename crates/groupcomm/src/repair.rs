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
//! * [`Delivered`] — the per-stream delivery record (contiguous floor plus
//!   a capped sparse set), the ground truth that keeps repair re-streams
//!   from ever re-delivering.
//! * [`RepairLog`] — the bounded `(cap ring, TTL age)` store of delivered
//!   originals, servable on a pull.

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

/// Per-`(origin, inc)` record of delivered sequence numbers: a contiguous
/// floor (everything at or below it was delivered or abandoned) plus a
/// sparse set above it. Sequence numbers are dense within a stream, so the
/// floor advances and the sparse set stays small; unlike a duplicate-
/// suppression seen set this record is never evicted by capacity pressure,
/// which is what makes the repair pass safe against re-delivery.
#[derive(Debug, Default, Clone)]
pub struct Delivered {
    pub(crate) floor: u64,
    // bound: capped at DELIVERED_GAP_CAP entries; overflow folds into the floor.
    pub(crate) above: BTreeSet<u64>,
}

impl Delivered {
    /// Whether `seq` has been delivered (or abandoned past recovery).
    pub fn contains(&self, seq: u64) -> bool {
        seq <= self.floor || self.above.contains(&seq)
    }

    /// The contiguous delivery floor: every sequence number at or below it
    /// was delivered or abandoned.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Records a delivered sequence number; returns `false` when it was
    /// already recorded (a late duplicate).
    pub fn record(&mut self, seq: u64) -> bool {
        if seq <= self.floor {
            return false;
        }
        // `floor + 1` is never in `above` (every path that moves the floor
        // folds in the run above it), so the next message in order moves
        // the floor without a set insert and remove, and any other one
        // leaves it where it is.
        if seq == self.floor + 1 {
            self.floor = seq;
            while self.above.remove(&(self.floor + 1)) {
                self.floor += 1;
            }
            return true;
        }
        if !self.above.insert(seq) {
            return false;
        }
        // Bounded memory: when too many delivered seqs sit above the floor,
        // the oldest gaps are abandoned — no repair log still holds them.
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

    /// Abandons every gap at or below `upto`: the span was evicted from all
    /// reachable repair logs (a floor answer) and is being covered by a
    /// snapshot catch-up instead, so NACK repair must stop asking for it
    /// and late copies must not re-deliver.
    pub fn fast_forward(&mut self, upto: u64) {
        if upto <= self.floor {
            return;
        }
        self.floor = upto;
        self.above = self.above.split_off(&(self.floor + 1));
        while self.above.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
    }

    /// Appends the sequence numbers in `[lo, hi]` not yet delivered, up to
    /// `limit` entries.
    pub fn missing_in(&self, lo: u64, hi: u64, limit: usize, out: &mut Vec<u64>) {
        let start = lo.max(self.floor + 1);
        for seq in start..=hi {
            if out.len() >= limit {
                return;
            }
            if !self.above.contains(&seq) {
                out.push(seq);
            }
        }
    }
}

/// Empty streams a log keeps beyond twice as many as it has streams
/// holding messages, before it drops the empty ones (see [`RepairLog`]).
const SPARE_STREAMS: usize = 32;

/// The bounded repair log: recently delivered originals keyed by stream
/// and sequence number, servable on a NACK pull. Two independent bounds —
/// an insertion-ordered ring of at most `cap` entries and an age limit of
/// `ttl_ms` — are enforced by the caller passing its knobs to [`store`]
/// and [`evict`], so one log type serves sessions with different budgets.
///
/// The streams sit in one `Vec` sorted by key, each with its span inline,
/// so a digest reads its rows in one pass over contiguous memory; a
/// fixed-seed hash index finds a stream's place for a store, an eviction
/// or a pull. A new stream is appended, and sorted into place (which moves
/// the others and so rebuilds the index) only when rows are next read: a
/// member that meets 200 origins sorts a few times, not 200. A stream the
/// ring empties keeps its place (and its buffer) for the origin's next
/// message: at a few messages per stream, streams empty and refill all
/// the time. Once the empty ones outnumber twice the rest by
/// `SPARE_STREAMS` they are dropped together. Each stream's messages
/// are a deque sorted by sequence number: messages arrive nearly in order
/// and leave oldest first, so a store appends and an eviction pops the
/// front, and a stream costs one buffer, not a tree node per handful of
/// messages.
///
/// [`store`]: RepairLog::store
/// [`evict`]: RepairLog::evict
#[derive(Debug, Default)]
pub struct RepairLog<M> {
    /// Every stream, holding messages or empty: sorted by key up to
    /// `sorted`, then the streams opened since, in the order they opened.
    // bound: messages -- `cap` ring + `ttl_ms` age passed to store/evict, enforced via `order`; empty streams <= 2 x the rest + SPARE_STREAMS.
    streams: Vec<Stream<M>>,
    sorted: usize,
    /// Each stream's position in `streams`.
    // bound: one entry per stream in `streams`; rebuilt when they move.
    index: HashMap<StreamKey, usize>,
    /// Streams holding at least one message.
    live: usize,
    // bound: same ring as `streams` -- `cap` entries, `ttl_ms` age.
    order: VecDeque<(StreamKey, u64, u64)>,
}

/// One stream of the log.
#[derive(Debug)]
struct Stream<M> {
    key: StreamKey,
    /// The lowest and highest sequence numbers held — the digest row —
    /// while `messages` is not empty.
    lo: u64,
    hi: u64,
    messages: VecDeque<(u64, M)>,
}

impl<M> RepairLog<M> {
    /// An empty log.
    pub fn new() -> Self {
        Self {
            streams: Vec::new(),
            sorted: 0,
            index: HashMap::default(),
            live: 0,
            order: VecDeque::new(),
        }
    }

    /// Messages currently held across all streams.
    pub fn len(&self) -> usize {
        self.streams
            .iter()
            .map(|stream| stream.messages.len())
            .sum()
    }

    /// Whether the log holds no messages at all.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn stream(&self, key: &StreamKey) -> Option<&Stream<M>> {
        self.streams.get(*self.index.get(key)?)
    }

    /// The lowest sequence number held of one stream, if any.
    pub fn lowest(&self, key: &StreamKey) -> Option<u64> {
        let stream = self.stream(key)?;
        stream.messages.front().map(|_| stream.lo)
    }

    /// One logged original, if still held.
    pub fn get(&self, key: &StreamKey, seq: u64) -> Option<&M> {
        let messages = &self.stream(key)?.messages;
        let at = position(messages, seq).ok()?;
        messages.get(at).map(|(_, message)| message)
    }

    /// Drops a whole stream (its incarnation went stale). The ring keeps
    /// its now-dangling entries; eviction finds nothing to remove for them.
    pub fn drop_stream(&mut self, key: &StreamKey) {
        let Some(stream) = self.index.get(key).and_then(|at| self.streams.get_mut(*at)) else {
            return;
        };
        if !stream.messages.is_empty() {
            stream.messages.clear();
            self.emptied();
        }
    }

    /// Counts a stream that just lost its last message, and drops every
    /// empty stream once they outnumber twice the rest by
    /// [`SPARE_STREAMS`].
    fn emptied(&mut self) {
        self.live -= 1;
        if self.streams.len() - self.live > 2 * self.live + SPARE_STREAMS {
            self.streams.retain(|stream| !stream.messages.is_empty());
            self.reindex();
        }
    }

    /// Sorts the streams opened since the last call into place.
    fn settle(&mut self) {
        if self.sorted < self.streams.len() {
            self.reindex();
        }
    }

    /// Sorts every stream into place and points the index at its new
    /// position: every move of a stream goes through here, so the index
    /// never names a place another stream took.
    fn reindex(&mut self) {
        // Keys are distinct, so an unstable sort (which allocates nothing)
        // is deterministic.
        self.streams.sort_unstable_by_key(|stream| stream.key);
        self.sorted = self.streams.len();
        self.index.clear();
        for (at, stream) in self.streams.iter().enumerate() {
            self.index.insert(stream.key, at);
        }
    }

    /// Drops one logged message.
    fn remove_entry(&mut self, key: &StreamKey, seq: u64) {
        let Some(stream) = self.index.get(key).and_then(|at| self.streams.get_mut(*at)) else {
            return;
        };
        if stream.remove(seq) && stream.messages.is_empty() {
            self.emptied();
        }
    }

    /// Stores a delivered message, evicting the oldest entries beyond
    /// `cap`. Re-storing an already-held `(key, seq)` replaces the payload
    /// without consuming another ring slot.
    pub fn store(&mut self, key: StreamKey, seq: u64, message: M, now_ms: u64, cap: usize) {
        let at = match self.index.get(&key) {
            Some(&at) => at,
            None => {
                self.streams.push(Stream {
                    key,
                    lo: seq,
                    hi: seq,
                    messages: VecDeque::new(),
                });
                self.index.insert(key, self.streams.len() - 1);
                self.streams.len() - 1
            }
        };
        let Some(stream) = self.streams.get_mut(at) else {
            return;
        };
        if stream.messages.is_empty() {
            self.live += 1;
        }
        if stream.insert(seq, message) {
            self.order.push_back((key, seq, now_ms));
        }
        while self.order.len() > cap {
            let Some((old_key, old_seq, _)) = self.order.pop_front() else {
                break;
            };
            self.remove_entry(&old_key, old_seq);
        }
    }

    /// Drops logged messages older than `ttl_ms`.
    pub fn evict(&mut self, now_ms: u64, ttl_ms: u64) {
        while let Some((key, seq, at)) = self.order.front().copied() {
            if now_ms.saturating_sub(at) < ttl_ms {
                break;
            }
            self.order.pop_front();
            self.remove_entry(&key, seq);
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

impl<M> Stream<M> {
    /// Adds or replaces `seq`'s message; returns whether it was new.
    fn insert(&mut self, seq: u64, message: M) -> bool {
        if self.messages.is_empty() {
            (self.lo, self.hi) = (seq, seq);
        }
        if self.messages.is_empty() || seq > self.hi {
            self.messages.push_back((seq, message));
            self.hi = seq;
            return true;
        }
        match position(&self.messages, seq) {
            Ok(at) => {
                if let Some(held) = self.messages.get_mut(at) {
                    held.1 = message;
                }
                false
            }
            Err(at) => {
                self.messages.insert(at, (seq, message));
                self.lo = self.lo.min(seq);
                true
            }
        }
    }

    /// Removes `seq`'s message, if held; returns whether it was.
    fn remove(&mut self, seq: u64) -> bool {
        let messages = &mut self.messages;
        if messages.front().is_some_and(|(first, _)| *first == seq) {
            messages.pop_front();
        } else if let Ok(at) = position(messages, seq) {
            messages.remove(at);
        } else {
            return false;
        }
        if seq == self.lo {
            self.lo = messages.front().map_or(seq, |(lo, _)| *lo);
        }
        if seq == self.hi {
            self.hi = messages.back().map_or(seq, |(hi, _)| *hi);
        }
        true
    }
}

/// The digest rows of a log: its streams that hold messages, in order.
struct Rows<'a, M> {
    streams: std::slice::Iter<'a, Stream<M>>,
    /// Streams holding messages not yet visited.
    left: usize,
}

impl<M> Iterator for Rows<'_, M> {
    type Item = (StreamKey, u64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let stream = self.streams.find(|stream| !stream.messages.is_empty())?;
        self.left -= 1;
        Some((stream.key, stream.lo, stream.hi))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<M> ExactSizeIterator for Rows<'_, M> {}

/// Where `seq` is, or would go, in a stream sorted by sequence number.
fn position<M>(stream: &VecDeque<(u64, M)>, seq: u64) -> Result<usize, usize> {
    stream.binary_search_by_key(&seq, |(held, _)| *held)
}

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
}
