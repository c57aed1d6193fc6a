//! Proof that a warm event queue allocates nothing per push or pop.
//!
//! A counting global allocator wraps the system allocator. The queue is
//! filled to the depth `fig3_sweep` runs at (its 40,000 sends are scheduled
//! up front, most of them beyond the ring) and warmed with a round of
//! push/pop cycles; after that, every pop takes a slot off a bucket list and
//! every push puts one back, so cycling must perform **zero heap
//! allocations**.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use morpheus_netsim::{EventQueue, SimRng, SimTime};

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread: the test harness runs tests on
    /// parallel threads, whose allocations must not land in a measured
    /// window. `const` initialisation: reading the counter never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const DEPTH: u64 = 40_000;
const CYCLES: u64 = 100_000;

/// Pops the earliest event and schedules one in its place: at the same
/// instant (a zero-delay timer), a few milliseconds on (a packet) or up to
/// ten seconds on (a protocol timer, past the ring).
fn cycle(queue: &mut EventQueue<u64>, rng: &mut SimRng, call: u64) {
    let (at, event) = queue.pop().expect("the queue stays at depth");
    let delay = match call % 4 {
        0 => 0,
        1 | 2 => rng.random_below(20),
        _ => rng.random_below(10_000),
    };
    queue.push(at + delay, event ^ call);
}

#[test]
fn a_warm_queue_at_depth_allocates_nothing_per_push_or_pop() {
    let mut rng = SimRng::new(7);
    let mut queue: EventQueue<u64> = EventQueue::new();
    // One send every 100 ms, as the paper's 10 msg/s workload schedules.
    for event in 0..DEPTH {
        queue.push(SimTime::from_millis(500 + event * 100), event);
    }
    for call in 0..CYCLES {
        cycle(&mut queue, &mut rng, call);
    }

    let before = allocations();
    for call in 0..CYCLES {
        cycle(&mut queue, &mut rng, call);
    }
    let made = allocations() - before;

    assert_eq!(queue.len() as u64, DEPTH);
    assert_eq!(
        made, 0,
        "{made} allocations over {CYCLES} warm push/pop cycles"
    );
}
