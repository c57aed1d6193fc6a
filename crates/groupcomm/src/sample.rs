//! Peer sampling: the uniform random draw every gossip mechanism uses to
//! pick its targets (epidemic multicast, the failure detector's indirect
//! probes, context dissemination and anti-entropy).
//!
//! There is one draw, `shuffle_prefix`: a partial Fisher-Yates driven by
//! the platform's deterministic RNG, so simulation runs stay reproducible.
//! [`sample_peers_into`] runs it over a pool of the members not
//! excluded. A `Sampler` runs it over the same pool without
//! building it — pool index `i` stands for the `i`-th member slot not
//! excluded, and a short list of moved positions stands in for the swaps —
//! so a gossip relay draws `fanout` peers in O(fanout), not O(members).
//! Both give the same peers, in the same order, from the same RNG draws.

use morpheus_appia::kernel::EventContext;
use morpheus_appia::platform::NodeId;

/// Picks up to `limit` distinct members uniformly at random, excluding
/// `exclude`, into a caller-owned buffer (cleared first) — the
/// peer-sampling primitive shared by every gossip mechanism. A caller
/// sampling on every message arrival reuses one allocation. When no more
/// than `limit` members remain, all of them are returned in member order and
/// no random number is drawn.
pub fn sample_peers_into(
    members: &[NodeId],
    exclude: &[NodeId],
    limit: usize,
    ctx: &mut EventContext<'_>,
    pool: &mut Vec<NodeId>,
) {
    draw_pooled(members, exclude, limit, &mut || ctx.random_u64(), pool);
}

/// Every member not in `exclude`, in a uniformly random order, into `pool`
/// (cleared first).
pub(crate) fn shuffle_into(
    members: &[NodeId],
    exclude: &[NodeId],
    ctx: &mut EventContext<'_>,
    pool: &mut Vec<NodeId>,
) {
    fill_pool(members, exclude, pool);
    let len = pool.len();
    let rng = &mut || ctx.random_u64();
    shuffle_prefix(len, len.saturating_sub(1), rng, |a, b| pool.swap(a, b));
}

/// Puts `slots` in a uniformly random order.
pub(crate) fn shuffle_slots(slots: &mut [u32], rng: &mut impl FnMut() -> u64) {
    let len = slots.len();
    shuffle_prefix(len, len.saturating_sub(1), rng, |a, b| slots.swap(a, b));
}

/// Every member not in `exclude` into `pool` (cleared first), in order.
fn fill_pool(members: &[NodeId], exclude: &[NodeId], pool: &mut Vec<NodeId>) {
    pool.clear();
    pool.extend(
        members
            .iter()
            .copied()
            .filter(|member| !exclude.contains(member)),
    );
}

/// The pool-building draw: every member not in `exclude` is copied into
/// `pool`, which the draw then shuffles in place and truncates.
fn draw_pooled(
    members: &[NodeId],
    exclude: &[NodeId],
    limit: usize,
    rng: &mut impl FnMut() -> u64,
    pool: &mut Vec<NodeId>,
) {
    fill_pool(members, exclude, pool);
    if shuffle_prefix(pool.len(), limit, rng, |a, b| pool.swap(a, b)) {
        pool.truncate(limit);
    }
}

/// The one draw: a partial Fisher-Yates that fills positions `0..limit` of
/// a `len`-entry pool, calling `swap` for every exchange it makes. Returns
/// `false`, drawing nothing, when the pool holds no more than `limit`
/// entries: then every entry is picked, in pool order.
fn shuffle_prefix(
    len: usize,
    limit: usize,
    rng: &mut impl FnMut() -> u64,
    mut swap: impl FnMut(usize, usize),
) -> bool {
    if len <= limit {
        return false;
    }
    for index in 0..limit {
        let remaining = len - index;
        let pick = index + (rng() % remaining as u64) as usize;
        swap(index, pick);
    }
    true
}

/// Every member's slot — its position in `members`, the first one should an
/// id repeat — sorted by id, into `table` (cleared first).
pub(crate) fn slot_table(members: &[NodeId], table: &mut Vec<(NodeId, u32)>) {
    table.clear();
    table.extend(members.iter().copied().zip(0u32..));
    // Stable, so an id's first slot stays first and survives the dedup.
    table.sort_by_key(|(member, _)| *member);
    table.dedup_by_key(|(member, _)| *member);
}

/// `id`'s slot in a [`slot_table`], if it is a member.
pub(crate) fn slot_of(table: &[(NodeId, u32)], id: NodeId) -> Option<u32> {
    // Ids dense from 0, the usual group, sit at their own position in the
    // table: one probe instead of a search over cold memory.
    if let Some((member, slot)) = table.get(id.0 as usize) {
        if *member == id {
            return Some(*slot);
        }
    }
    table
        .binary_search_by_key(&id, |(member, _)| *member)
        .ok()
        .and_then(|at| table.get(at))
        .map(|(_, slot)| *slot)
}

/// The scratch of a draw that builds no pool. Kept by a session, so a draw
/// allocates nothing once its lists have grown to their first size.
#[derive(Debug, Default)]
pub(crate) struct Sampler {
    /// The excluded members' slots, ascending and distinct.
    // bound: <= the exclude list's length (3 on gossip's paths); cleared by every draw.
    excluded: Vec<usize>,
    /// `(pool position, pool index now there)` for every position a swap
    /// wrote, newest last; a position not listed holds its own index.
    // bound: <= 2 x the draw's limit; cleared by every draw.
    moved: Vec<(usize, usize)>,
    /// The pool of a member list in which an id repeats.
    // bound: <= the member list's length; cleared by every draw that uses it.
    pool: Vec<NodeId>,
}

impl Sampler {
    /// [`sample_peers_into`] without the pool: the slots of the same peers,
    /// in the same order, from the same RNG draws. `slots` is `members`'
    /// [`slot_table`]. A member list in which an id repeats falls back to
    /// the pooled draw, which is what defines the result then, and gives
    /// each drawn id's first slot.
    pub(crate) fn draw_slots_into(
        &mut self,
        members: &[NodeId],
        slots: &[(NodeId, u32)],
        exclude: &[NodeId],
        limit: usize,
        rng: &mut impl FnMut() -> u64,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if slots.len() != members.len() {
            let mut pool = std::mem::take(&mut self.pool);
            draw_pooled(members, exclude, limit, rng, &mut pool);
            out.extend(pool.iter().filter_map(|id| slot_of(slots, *id)));
            self.pool = pool;
            return;
        }
        let count = self.draw_distinct(members.len(), slots, exclude, limit, rng);
        out.extend((0..count).map(|position| self.slot_at(position) as u32));
    }

    /// Runs the draw over the virtual pool of `members` (all distinct) not
    /// in `exclude`; returns how many pool positions it filled.
    fn draw_distinct(
        &mut self,
        members: usize,
        slots: &[(NodeId, u32)],
        exclude: &[NodeId],
        limit: usize,
        rng: &mut impl FnMut() -> u64,
    ) -> usize {
        self.excluded.clear();
        self.excluded.extend(
            exclude
                .iter()
                .filter_map(|id| slot_of(slots, *id))
                .map(|slot| slot as usize),
        );
        self.excluded.sort_unstable();
        self.excluded.dedup();
        let len = members - self.excluded.len();
        self.moved.clear();
        let moved = &mut self.moved;
        let drawn = shuffle_prefix(len, limit, rng, |a, b| {
            let (at_a, at_b) = (held(moved, a), held(moved, b));
            moved.push((a, at_b));
            moved.push((b, at_a));
        });
        if drawn {
            limit
        } else {
            len
        }
    }

    /// The slot of the member a filled pool position holds: the pool index
    /// there, counted over the slots not excluded.
    fn slot_at(&self, position: usize) -> usize {
        let mut slot = held(&self.moved, position);
        for excluded in &self.excluded {
            if *excluded > slot {
                break;
            }
            slot += 1;
        }
        slot
    }
}

/// The pool index a position holds after the swaps recorded in `moved`.
fn held(moved: &[(usize, usize)], position: usize) -> usize {
    moved
        .iter()
        .rev()
        .find(|(at, _)| *at == position)
        .map_or(position, |(_, index)| *index)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sample_peers_into` as it was before the draw was shared, with the
    /// RNG passed in: the reference both draws are held to.
    fn reference_draw(
        members: &[NodeId],
        exclude: &[NodeId],
        limit: usize,
        rng: &mut impl FnMut() -> u64,
        pool: &mut Vec<NodeId>,
    ) {
        pool.clear();
        pool.extend(
            members
                .iter()
                .copied()
                .filter(|member| !exclude.contains(member)),
        );
        if pool.len() <= limit {
            return;
        }
        for index in 0..limit {
            let remaining = pool.len() - index;
            let pick = index + (rng() % remaining as u64) as usize;
            pool.swap(index, pick);
        }
        pool.truncate(limit);
    }

    /// SplitMix64, counting its draws.
    struct Rng {
        state: u64,
        calls: usize,
    }

    impl Rng {
        fn new(seed: u64) -> Self {
            Self {
                state: seed,
                calls: 0,
            }
        }

        fn next(&mut self) -> u64 {
            self.calls += 1;
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// A random member list: distinct ids unless `repeats`, sorted or not.
    fn members(rng: &mut Rng, repeats: bool) -> Vec<NodeId> {
        let n = rng.below(24) as usize;
        let mut ids: Vec<NodeId> = (0..n).map(|_| NodeId(rng.below(40) as u32)).collect();
        if !repeats {
            ids.sort_unstable();
            ids.dedup();
        }
        if rng.below(2) == 0 {
            for at in (1..ids.len()).rev() {
                ids.swap(at, rng.below(at as u64 + 1) as usize);
            }
        }
        ids
    }

    /// A random exclude list: members, non-members and repeats.
    fn exclude(rng: &mut Rng, members: &[NodeId]) -> Vec<NodeId> {
        (0..rng.below(5))
            .map(|_| match (rng.below(3), members.len()) {
                (0, len) if len > 0 => members[rng.below(len as u64) as usize],
                _ => NodeId(rng.below(48) as u32),
            })
            .collect()
    }

    #[test]
    fn every_draw_matches_the_reference_in_peers_order_and_rng_calls() {
        let mut cases = Rng::new(7);
        let mut sampler = Sampler::default();
        let mut slots = Vec::new();
        let (mut expected, mut pooled, mut drawn_slots) = (Vec::new(), Vec::new(), Vec::new());
        for case in 0..4_000u64 {
            let members = members(&mut cases, case % 4 == 3);
            let exclude = exclude(&mut cases, &members);
            slot_table(&members, &mut slots);
            for limit in 0..=members.len() + 1 {
                let mut reference_rng = Rng::new(case);
                reference_draw(
                    &members,
                    &exclude,
                    limit,
                    &mut || reference_rng.next(),
                    &mut expected,
                );
                let mut pooled_rng = Rng::new(case);
                draw_pooled(
                    &members,
                    &exclude,
                    limit,
                    &mut || pooled_rng.next(),
                    &mut pooled,
                );
                let mut slot_rng = Rng::new(case);
                sampler.draw_slots_into(
                    &members,
                    &slots,
                    &exclude,
                    limit,
                    &mut || slot_rng.next(),
                    &mut drawn_slots,
                );
                let context = format!("members {members:?} exclude {exclude:?} limit {limit}");
                let drawn: Vec<NodeId> = drawn_slots
                    .iter()
                    .map(|slot| members[*slot as usize])
                    .collect();
                assert_eq!(pooled, expected, "pooled draw: {context}");
                assert_eq!(drawn, expected, "pool-free draw: {context}");
                assert_eq!(pooled_rng.calls, reference_rng.calls, "{context}");
                assert_eq!(slot_rng.calls, reference_rng.calls, "{context}");
                assert!(sampler.moved.len() <= 2 * limit);
            }
        }
    }

    #[test]
    fn the_slot_table_keeps_each_ids_first_slot() {
        let mut table = Vec::new();
        slot_table(&[NodeId(5), NodeId(2), NodeId(5), NodeId(9)], &mut table);
        assert_eq!(table, vec![(NodeId(2), 1), (NodeId(5), 0), (NodeId(9), 3)]);
        assert_eq!(slot_of(&table, NodeId(5)), Some(0));
        assert_eq!(slot_of(&table, NodeId(3)), None);
        // Dense ids are found at their own position, the rest by search.
        slot_table(&[NodeId(2), NodeId(0), NodeId(1), NodeId(7)], &mut table);
        for (id, slot) in [(0, 1), (1, 2), (2, 0), (7, 3), (3, 9), (9, 9)] {
            let expected = (slot < 9).then_some(slot);
            assert_eq!(slot_of(&table, NodeId(id)), expected, "id {id}");
        }
    }
}
