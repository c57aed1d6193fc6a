//! Fixture: the fixed-seed aliases, an alias of std's collection that
//! names its hasher, std's entry API and a test's own map. Expect no
//! findings.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use morpheus_appia::hash::{FixedState, HashMap, HashSet};

pub type Table<K, V> = std::collections::HashMap<K, V, FixedState>;

struct Peers {
    by_id: HashMap<u32, u64>,
    seen: HashSet<u64>,
    order: BTreeMap<u32, u64>,
}

fn bump(peers: &mut Peers, id: u32) {
    match peers.by_id.entry(id) {
        Entry::Occupied(mut seen) => *seen.get_mut() += 1,
        Entry::Vacant(fresh) => {
            fresh.insert(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn a_test_may_use_std() {
        let mut map: HashMap<u32, u32> = HashMap::new();
        map.insert(1, 2);
    }
}
