//! Lookups in tables kept sorted by node id.
//!
//! The member-indexed tables of the control plane — the failure detector's
//! liveness rows, Cocaditem's context store, a sorted member list — are
//! walked against digests and views that list nodes in ascending id order.
//! [`seek`] makes such a walk a merge: it tries the row just past the
//! previous hit first, so an in-order walk costs O(1) a row, and a row that
//! arrives out of order (or is missing) costs one binary search.

use morpheus_appia::platform::NodeId;

/// Finds the row of `id` in `rows`, which are sorted by `id_of` with one row
/// per id: `Ok(index)`, or `Err(index)` where such a row would be inserted.
/// `cursor` is the caller's walk position, starting at 0; it is left just
/// past the row found (or at the insertion point), where the next id of an
/// ascending walk is looked for first.
pub fn seek<T>(
    rows: &[T],
    cursor: &mut usize,
    id: NodeId,
    id_of: impl Fn(&T) -> NodeId,
) -> Result<usize, usize> {
    let found = match rows.get(*cursor) {
        Some(row) if id_of(row) == id => Ok(*cursor),
        _ => rows.binary_search_by_key(&id, id_of),
    };
    *cursor = match found {
        Ok(at) => at + 1,
        Err(at) => at,
    };
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn walks_in_any_order_find_what_a_binary_search_finds() {
        let rows = ids(&[1, 3, 4, 8, 9]);
        let walks = [
            ids(&[0, 1, 2, 3, 4, 5, 8, 9, 10]),
            ids(&[10, 9, 8, 5, 4, 3, 2, 1, 0]),
            ids(&[4, 1, 9, 9, 3, 0, 8]),
        ];
        for walk in walks {
            let mut cursor = 0;
            for id in walk {
                assert_eq!(
                    seek(&rows, &mut cursor, id, |row| *row),
                    rows.binary_search(&id),
                    "{id:?}"
                );
            }
        }
        assert_eq!(seek(&[], &mut 3, NodeId(1), |row: &NodeId| *row), Err(0));
    }

    #[test]
    fn an_ascending_walk_leaves_the_cursor_on_the_next_row() {
        let rows = ids(&[2, 5, 7]);
        let mut cursor = 0;
        assert_eq!(seek(&rows, &mut cursor, NodeId(2), |row| *row), Ok(0));
        assert_eq!(cursor, 1);
        assert_eq!(seek(&rows, &mut cursor, NodeId(6), |row| *row), Err(2));
        assert_eq!(cursor, 2);
        assert_eq!(seek(&rows, &mut cursor, NodeId(7), |row| *row), Ok(2));
        assert_eq!(cursor, 3);
    }
}
