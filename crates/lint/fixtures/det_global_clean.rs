//! Fixture: immutable statics, `'static` bounds and state kept in the
//! session. Expect no findings.

use std::cell::Cell;

static LAYER_NAMES: &[&str] = &["beb", "gossip"];

const FRESH: Cell<u64> = Cell::new(0);

struct CounterSession {
    rounds: Cell<u64>,
}

fn names() -> &'static [&'static str] {
    LAYER_NAMES
}

fn boxed<T: 'static>(value: T) -> Box<T> {
    Box::new(value)
}
