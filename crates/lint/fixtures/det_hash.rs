//! Fixture: hash collections on std's randomly seeded hasher. Expect
//! `det:hash` five times: the import, the `RandomState` import, a path type
//! naming no hasher, a type naming `RandomState` and a path constructor.

use std::collections::{BTreeMap, HashMap};
use std::collections::hash_map::RandomState;

struct Peers {
    by_id: HashMap<u32, u64>,
    seen: std::collections::HashSet<u64>,
    order: BTreeMap<u32, u64>,
}

fn fresh() -> HashMap<u32, u64, RandomState> {
    std::collections::HashMap::new()
}
