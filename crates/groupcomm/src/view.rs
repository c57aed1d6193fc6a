//! Group views: the membership agreed upon by the group at a point in time.

use morpheus_appia::platform::NodeId;
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};
use serde::{Deserialize, Serialize};

/// A group view: a monotonically increasing identifier plus the agreed set of
/// members, kept sorted by node id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct View {
    /// Monotonically increasing view identifier.
    pub id: u64,
    /// The members of the view, in ascending node-id order.
    pub members: Vec<NodeId>,
}

impl View {
    /// Creates a view, sorting and de-duplicating the member list.
    pub fn new(id: u64, mut members: Vec<NodeId>) -> Self {
        members.sort();
        members.dedup();
        Self { id, members }
    }

    /// The initial view (id 0) over a static member list.
    pub fn initial(members: Vec<NodeId>) -> Self {
        Self::new(0, members)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the node belongs to the view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// The deterministically elected coordinator: the lowest node id.
    pub fn coordinator(&self) -> Option<NodeId> {
        self.members.first().copied()
    }

    /// The rank of a member within the view (0 = coordinator).
    pub fn rank_of(&self, node: NodeId) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// Every member except the given node (typically the local one).
    pub fn others(&self, node: NodeId) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|member| *member != node)
            .collect()
    }

    /// A successor view with one member removed.
    pub fn without(&self, node: NodeId) -> View {
        View::new(self.id + 1, self.others(node))
    }

    /// A successor view with one member added.
    pub fn with_member(&self, node: NodeId) -> View {
        let mut members = self.members.clone();
        members.push(node);
        View::new(self.id + 1, members)
    }
}

/// A 16-bit check over a view's id and members (FNV-1a over the values,
/// folded). A corrupted byte can turn an encoded view into another view
/// that still decodes — one gap off shifts every later id — and a joining
/// node installs whatever view names it; with the check it fails to decode
/// instead.
fn check(id: u64, members: &[NodeId]) -> u16 {
    let values = std::iter::once(id).chain(members.iter().map(|member| u64::from(member.0)));
    let hash = values.fold(0x811c_9dc5u32, |hash, value| {
        (hash ^ value as u32 ^ (value >> 32) as u32).wrapping_mul(0x0100_0193)
    });
    (hash ^ hash >> 16) as u16
}

impl Wire for View {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.id);
        w.put_gap_list(&self.members);
        w.put_u16(check(self.id, &self.members));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = r.get_varint()?;
        let view = View::new(id, r.get_gap_list()?);
        if r.get_u16()? != check(view.id, &view.members) {
            return Err(WireError::Malformed("view check mismatch"));
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn views_are_sorted_and_deduplicated() {
        let view = View::new(3, nodes(&[5, 1, 3, 1]));
        assert_eq!(view.members, nodes(&[1, 3, 5]));
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
    }

    #[test]
    fn coordinator_is_lowest_id() {
        let view = View::initial(nodes(&[7, 2, 9]));
        assert_eq!(view.coordinator(), Some(NodeId(2)));
        assert_eq!(view.rank_of(NodeId(2)), Some(0));
        assert_eq!(view.rank_of(NodeId(9)), Some(2));
        assert_eq!(view.rank_of(NodeId(100)), None);
        assert_eq!(View::initial(vec![]).coordinator(), None);
    }

    #[test]
    fn membership_queries() {
        let view = View::initial(nodes(&[1, 2, 3]));
        assert!(view.contains(NodeId(2)));
        assert!(!view.contains(NodeId(9)));
        assert_eq!(view.others(NodeId(2)), nodes(&[1, 3]));
    }

    #[test]
    fn successor_views_bump_the_id() {
        let view = View::initial(nodes(&[1, 2, 3]));
        let without = view.without(NodeId(2));
        assert_eq!(without.id, 1);
        assert_eq!(without.members, nodes(&[1, 3]));
        let with = without.with_member(NodeId(9));
        assert_eq!(with.id, 2);
        assert_eq!(with.members, nodes(&[1, 3, 9]));
    }

    #[test]
    fn wire_roundtrip() {
        let view = View::new(42, nodes(&[4, 8, 15]));
        let bytes = view.to_bytes();
        assert_eq!(View::from_bytes(&bytes).unwrap(), view);
    }

    #[test]
    fn a_view_a_corrupted_byte_turns_into_another_fails_to_decode() {
        // Id, count, the first member, then its gap to the second: a larger
        // gap shifts every later member, and the list still decodes.
        let view = View::new(0, (0..16).map(NodeId).collect());
        let mut bytes = view.to_bytes().to_vec();
        bytes[3] += 2;
        let mut r = WireReader::new(&bytes);
        r.get_varint().unwrap();
        let shifted: Vec<NodeId> = r.get_gap_list().unwrap();
        assert_eq!(shifted.len(), 16);
        assert!(shifted[1..]
            .iter()
            .zip(&view.members[1..])
            .all(|(new, old)| new > old));
        assert!(View::from_bytes(&bytes).is_err(), "the check rejects it");
    }
}
