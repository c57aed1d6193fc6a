//! The distributed context store: the last published snapshot of every
//! participant.

use std::cell::RefCell;
use std::rc::Rc;

use morpheus_appia::platform::NodeId;
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};
use morpheus_groupcomm::recovery::StateSection;
use morpheus_groupcomm::sorted::seek;

use crate::context::ContextSnapshot;

/// A constant-size summary of a [`ContextStore`]: its row count and an
/// order-independent hash of its `(node, version)` rows. Two stores that
/// hold the same rows have equal summaries, whatever order they learned
/// them in; the anti-entropy protocol exchanges rows only when two
/// summaries differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSummary {
    /// How many rows the store holds.
    pub rows: u64,
    /// The wrapping sum of a fixed 64-bit hash of each row's
    /// `(node, version)`.
    pub hash: u64,
}

impl StoreSummary {
    fn add(&mut self, snapshot: &ContextSnapshot) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(row_hash(snapshot));
    }

    fn remove(&mut self, snapshot: &ContextSnapshot) {
        self.rows -= 1;
        self.hash = self.hash.wrapping_sub(row_hash(snapshot));
    }
}

impl Wire for StoreSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.rows);
        w.put_u64(self.hash);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            rows: r.get_varint()?,
            hash: r.get_u64()?,
        })
    }
}

/// splitmix64's finaliser: a fixed bijection that spreads every input bit
/// over the whole word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One row's share of a [`StoreSummary`] hash: its `(node, version)`.
fn row_hash(snapshot: &ContextSnapshot) -> u64 {
    mix(mix(u64::from(snapshot.node.0)) ^ snapshot.captured_at_ms)
}

/// A table of the most recent context snapshot received from each node.
#[derive(Debug, Clone, Default)]
pub struct ContextStore {
    /// One snapshot per node, sorted by node id.
    snapshots: Vec<ContextSnapshot>,
    /// The summary of `snapshots`, kept up to date by every change.
    summary: StoreSummary,
}

impl ContextStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, node: NodeId) -> Result<usize, usize> {
        self.snapshots
            .binary_search_by_key(&node, |snapshot| snapshot.node)
    }

    /// Inserts or refreshes a node's snapshot. Older snapshots (by capture
    /// time) never overwrite newer ones. Returns whether the snapshot was
    /// stored — i.e. whether it was *news* (a node not seen before, or a
    /// strictly newer capture), which is what decides whether an epidemic
    /// forwarder should keep spreading it.
    pub fn update(&mut self, snapshot: ContextSnapshot) -> bool {
        match self.find(snapshot.node) {
            Err(at) => {
                self.summary.add(&snapshot);
                self.snapshots.insert(at, snapshot);
                true
            }
            Ok(at) => {
                let existing = &mut self.snapshots[at];
                if existing.captured_at_ms > snapshot.captured_at_ms {
                    return false;
                }
                // Same version: last writer wins (a local re-sample within
                // one millisecond must not be ignored), but it is not news —
                // an epidemic forwarder receiving it must not spread it again.
                let news = existing.captured_at_ms < snapshot.captured_at_ms;
                self.summary.remove(existing);
                self.summary.add(&snapshot);
                *existing = snapshot;
                news
            }
        }
    }

    /// The capture time of a node's stored snapshot — the version the digest
    /// anti-entropy protocol compares (capture times are monotonic per node).
    pub fn version_of(&self, node: NodeId) -> Option<u64> {
        self.get(node).map(|snapshot| snapshot.captured_at_ms)
    }

    /// The store's [`StoreSummary`], kept as the store changes.
    pub fn summary(&self) -> StoreSummary {
        self.summary
    }

    /// The `(node, version)` digest of the whole store, in node-id order.
    pub fn digest(&self) -> Vec<(NodeId, u64)> {
        self.digest_rows().collect()
    }

    /// The rows of [`ContextStore::digest`], read in place.
    pub fn digest_rows(&self) -> impl ExactSizeIterator<Item = (NodeId, u64)> + '_ {
        self.snapshots
            .iter()
            .map(|snapshot| (snapshot.node, snapshot.captured_at_ms))
    }

    /// Drops every node not in `members` (e.g. after a view change): one
    /// merge against `members` when it is sorted, as a view's is.
    pub fn retain_members(&mut self, members: &[NodeId]) {
        if !members.is_sorted() {
            let mut sorted = members.to_vec();
            sorted.sort_unstable();
            return self.retain_members(&sorted);
        }
        let (mut cursor, summary) = (0, &mut self.summary);
        self.snapshots.retain(|snapshot| {
            let member = seek(members, &mut cursor, snapshot.node, |id| *id).is_ok();
            if !member {
                summary.remove(snapshot);
            }
            member
        });
        // Room for the view's members, not for the next power of two: the
        // rows of a 200-member store would otherwise sit in room for 256.
        let room = members.len().max(self.snapshots.len());
        self.snapshots.reserve_exact(room - self.snapshots.len());
        self.snapshots.shrink_to(room);
    }

    /// The snapshot of one node, if known.
    pub fn get(&self, node: NodeId) -> Option<&ContextSnapshot> {
        self.find(node).ok().and_then(|at| self.snapshots.get(at))
    }

    /// Every known snapshot, in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &ContextSnapshot)> {
        self.snapshots
            .iter()
            .map(|snapshot| (&snapshot.node, snapshot))
    }

    /// Every known snapshot, one per node, sorted by node id — for a caller
    /// that walks the store against another id-sorted list
    /// ([`morpheus_groupcomm::sorted::seek`]).
    pub fn as_slice(&self) -> &[ContextSnapshot] {
        &self.snapshots
    }

    /// Number of nodes with a known snapshot.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether no snapshots are known.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Serialises every snapshot — the rejoin state-transfer export.
    pub fn export_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.snapshots.len() as u32);
        for snapshot in &self.snapshots {
            snapshot.encode(&mut w);
        }
        w.finish().to_vec()
    }

    /// Merges an exported store into this one ([`ContextStore::update`]
    /// semantics: newer snapshots win, stale ones are ignored). Returns the
    /// number of snapshots that were news.
    pub fn import_merge(&mut self, bytes: &[u8]) -> Result<usize, WireError> {
        let mut r = WireReader::new(bytes);
        let count = r.get_u32()? as usize;
        // Reject adversarial counts before allocating.
        if count > r.remaining() / ContextSnapshot::MIN_ENCODED_BYTES {
            return Err(WireError::Malformed("context store count exceeds payload"));
        }
        let mut merged = 0;
        for _ in 0..count {
            let snapshot = ContextSnapshot::decode(&mut r)?;
            if self.update(snapshot) {
                merged += 1;
            }
        }
        Ok(merged)
    }
}

/// The context store as a rejoin state-transfer section: the donor exports
/// its replicated store, the restarted node merges it — so a rejoiner knows
/// every participant's context immediately instead of waiting for the digest
/// anti-entropy to repopulate it from scratch.
pub struct ContextStoreSection {
    store: Rc<RefCell<ContextStore>>,
}

impl ContextStoreSection {
    /// Wraps the node's shared context store.
    pub fn new(store: Rc<RefCell<ContextStore>>) -> Self {
        Self { store }
    }
}

impl StateSection for ContextStoreSection {
    fn name(&self) -> &str {
        "cocaditem-store"
    }

    fn export(&self) -> Vec<u8> {
        self.store.borrow().export_bytes()
    }

    fn install(&self, bytes: &[u8]) -> bool {
        self.store.borrow_mut().import_merge(bytes).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::NodeProfile;

    use super::*;

    fn fixed(node: u32, at: u64) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(node)), at)
    }

    fn mobile(node: u32, at: u64) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(node)), at)
    }

    #[test]
    fn update_keeps_the_newest_snapshot() {
        let mut store = ContextStore::new();
        assert!(store.update(fixed(1, 100)), "first sighting is news");
        assert!(!store.update(fixed(1, 50)), "older snapshot is not");
        assert_eq!(store.get(NodeId(1)).unwrap().captured_at_ms, 100);
        assert!(!store.update(fixed(1, 100)), "same version is a duplicate");
        assert!(store.update(fixed(1, 200)));
        assert_eq!(store.get(NodeId(1)).unwrap().captured_at_ms, 200);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn digest_and_versions_track_capture_times() {
        let mut store = ContextStore::new();
        store.update(fixed(0, 100));
        store.update(mobile(2, 70));
        assert_eq!(store.version_of(NodeId(0)), Some(100));
        assert_eq!(store.version_of(NodeId(5)), None);
        assert_eq!(
            store.digest(),
            vec![(NodeId(0), 100), (NodeId(2), 70)],
            "digest lists every entry in node-id order"
        );
        store.retain_members(&[NodeId(2)]);
        assert_eq!(store.digest(), vec![(NodeId(2), 70)]);
    }

    #[test]
    fn retain_members_accepts_an_unsorted_member_list() {
        let mut store = ContextStore::new();
        for node in 0..6 {
            store.update(fixed(node, 10 + u64::from(node)));
        }
        store.retain_members(&[NodeId(4), NodeId(0), NodeId(9), NodeId(2)]);
        assert_eq!(
            store.digest(),
            vec![(NodeId(0), 10), (NodeId(2), 12), (NodeId(4), 14)]
        );
        store.retain_members(&[]);
        assert!(store.is_empty());
    }

    /// The summary of `store` computed from scratch.
    fn recomputed(store: &ContextStore) -> StoreSummary {
        let mut summary = StoreSummary::default();
        store.as_slice().iter().for_each(|s| summary.add(s));
        summary
    }

    #[test]
    fn the_kept_summary_equals_one_computed_from_scratch_after_every_change() {
        let mut store = ContextStore::new();
        assert_eq!(store.summary(), StoreSummary::default());
        for (node, at) in [(4, 10), (1, 30), (9, 5), (1, 40), (1, 35), (4, 10)] {
            store.update(fixed(node, at));
            assert_eq!(store.summary(), recomputed(&store), "after ({node}, {at})");
        }
        assert_eq!(store.summary().rows, 3);
        store.retain_members(&[NodeId(1), NodeId(9)]);
        assert_eq!(store.summary(), recomputed(&store));

        // A store filled from an export, in another order, sums the same.
        let mut other = ContextStore::new();
        other.update(mobile(1, 20));
        assert_eq!(other.import_merge(&store.export_bytes()).unwrap(), 2);
        assert_eq!(other.summary(), recomputed(&other));
        assert_eq!(other.summary(), store.summary());

        // The rows are all it hashes: a different version differs.
        other.update(fixed(9, 6));
        assert_ne!(other.summary(), store.summary());
        assert_eq!(other.summary().rows, store.summary().rows);
        store.retain_members(&[]);
        assert_eq!(store.summary(), StoreSummary::default());
    }

    #[test]
    fn export_import_roundtrip_merges_by_version() {
        let mut store = ContextStore::new();
        store.update(fixed(0, 100));
        store.update(mobile(2, 70));
        let bytes = store.export_bytes();

        // The importer holds a newer snapshot for node 2 and an older one
        // for node 0: only node 0's is overwritten.
        let mut other = ContextStore::new();
        other.update(fixed(0, 50));
        other.update(mobile(2, 90));
        assert_eq!(other.import_merge(&bytes).unwrap(), 1);
        assert_eq!(other.version_of(NodeId(0)), Some(100));
        assert_eq!(other.version_of(NodeId(2)), Some(90));

        assert!(other.import_merge(b"\xff\xff\xff\xff").is_err());

        // The section wrapper drives the same paths through shared state.
        let shared = Rc::new(RefCell::new(ContextStore::new()));
        let section = ContextStoreSection::new(shared.clone());
        assert!(section.install(&bytes));
        assert_eq!(shared.borrow().len(), 2);
        assert!(!section.export().is_empty());
        assert!(!section.install(b"\xff"));
        assert_eq!(section.name(), "cocaditem-store");
    }
}
