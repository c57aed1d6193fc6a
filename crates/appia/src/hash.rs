//! A fixed-seed hasher for the hash collections of protocol state.
//!
//! std's `HashMap` seeds SipHash at random per instance: safe against hash
//! flooding, but slow for the small integer keys protocol tables use
//! (`(origin, inc, seq)` message ids, `(origin, inc)` streams) and
//! different from one run to the next in where it rehashes and allocates.
//! [`FixedState`] builds a multiply-rotate hasher in the style of
//! rustc-hash: a few cycles per word, and the same hash for a key in every
//! run. The trade is resistance to hash flooding — a peer that picks keys
//! to collide can slow a table down — which a deterministic simulator
//! gives up on purpose; every table keyed this way has its own size bound.
//!
//! [`HashMap`] and [`HashSet`] are std's collections on that hasher. Build
//! them with `default()` / `with_capacity_and_hasher`. Their iteration
//! order is fixed but arbitrary, so protocol code still sorts what it
//! collects from one (`det:map-iter`). They are the only hash collections
//! protocol code uses: `morpheus-lint`'s `det:hash` rejects std's
//! `RandomState`.

use std::hash::{BuildHasher, Hasher};

/// std's `HashMap` on the fixed-seed [`FxHasher`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// std's `HashSet` on the fixed-seed [`FxHasher`].
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;

/// Builds [`FxHasher`]s, all starting from the same state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Odd multiplier with well-spread bits (rustc-hash's).
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// Folds each word in with an add and a multiply; `finish` rotates the
/// well-mixed high bits down to where a table takes its bucket index.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
        self.add(bytes.len() as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn every_build_hashes_a_key_the_same() {
        let key = (7u32, 1_700_000_000_000u64, 42u64);
        assert_eq!(FixedState.hash_one(key), FixedState.hash_one(key));
        assert_ne!(
            FixedState.hash_one(key),
            FixedState.hash_one((7u32, 1u64, 42u64))
        );
        assert_ne!(
            FixedState.hash_one(&b"abc"[..]),
            FixedState.hash_one(&b"abc\0"[..])
        );
    }

    #[test]
    fn dense_ids_spread_over_the_low_bits() {
        // A table of 256 buckets indexes by the low 8 bits: consecutive
        // sequence numbers of one stream must not pile into a few of them.
        let mut buckets = [0u32; 256];
        for seq in 0..4_096u64 {
            let hash = FixedState.hash_one((3u32, 1_000u64, seq));
            buckets[(hash & 0xff) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|count| (4..=40).contains(count)),
            "{buckets:?}"
        );
    }

    #[test]
    fn the_aliases_are_std_collections() {
        let mut map: HashMap<(u32, u64), u32> = HashMap::default();
        map.insert((1, 2), 3);
        let mut set: HashSet<u64> = HashSet::with_capacity_and_hasher(4, FixedState);
        set.insert(9);
        assert_eq!(map.get(&(1, 2)), Some(&3));
        assert!(set.contains(&9));
    }
}
