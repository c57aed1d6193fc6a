//! Fixture: state that outlives a run, in a protocol crate other than
//! `appia`. Expect `det:global` three times.

use std::cell::RefCell;
use std::sync::atomic::AtomicU64;

thread_local! {
    static SEEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

static mut ROUNDS: u64 = 0;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
