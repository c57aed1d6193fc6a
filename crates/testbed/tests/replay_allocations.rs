//! A run replays from `(scenario, seed)` alone — down to how many times it
//! calls the allocator.
//!
//! The pooled header scratch (`appia::wire::encode_pooled`) is per-thread
//! state that outlives a run: how far into its chunk an earlier run left it
//! decides when this run's chunks run out. The runner starts it afresh, so
//! the same scenario makes the same allocations whatever ran before it —
//! which is what lets a benchmark compare allocation *counts* across
//! repetitions and commits. It is also what lets a test hold a small lossy
//! fan-in to a budget of allocations per delivered message, so a change
//! that makes the gossip data plane allocate per message again fails here
//! and not only in the benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use morpheus_testbed::{Runner, Scenario};

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread (`const`: reading it never allocates).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
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

fn allocations_of(scenario: &Scenario) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let report = Runner::new().run(scenario);
    assert!(report.total_app_deliveries() > 0);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_run_allocates_the_same_whatever_ran_before_it() {
    let scenario = Scenario::chat_fanin(24, 24).with_data_loss(0.1);
    let first = allocations_of(&scenario);
    // Different runs in between leave the thread's header scratch at
    // different points of its chunk.
    let mut counts = vec![first];
    for devices in [3, 5, 7] {
        Runner::new().run(&Scenario::figure3(devices, true, 40 * devices as u64));
        counts.push(allocations_of(&scenario));
    }
    // `std`'s hash maps seed every instance differently, and whether a full
    // table rehashes in place or reallocates depends on where its tombstones
    // fell: allow that one part in 100,000, nothing more.
    let slack = 1 + first / 100_000;
    for (run, count) in counts.iter().enumerate() {
        assert!(
            count.abs_diff(first) <= slack,
            "run {run} of the same scenario made {count} allocations, run 0 made {first}: {counts:?}"
        );
    }
}

/// Allocations per delivered message of the whole run below, boot included:
/// 4.43 measured (14,665 allocations for 3,312 deliveries), plus 10 %. A
/// gossip message that costs an allocation of its own again — a frame
/// block per logged message, a list per stream of a repair pull — costs
/// about 1.5 more. With a buffer per repair log stream and a tree node per
/// tracked gap, as before the log's one ring and the tracker's bit window,
/// the run measured 4.78.
const ALLOCS_PER_DELIVERY_BUDGET: f64 = 4.87;

#[test]
fn a_lossy_fan_in_stays_within_its_allocation_budget() {
    let scenario = Scenario::chat_fanin(24, 24).with_data_loss(0.1);
    let before = ALLOCATIONS.with(Cell::get);
    let report = Runner::new().run(&scenario);
    let count = ALLOCATIONS.with(Cell::get) - before;
    let deliveries = report.total_app_deliveries();
    let per_delivery = count as f64 / deliveries as f64;
    assert!(
        per_delivery <= ALLOCS_PER_DELIVERY_BUDGET,
        "{count} allocations for {deliveries} deliveries: {per_delivery:.2} each, over the \
         budget of {ALLOCS_PER_DELIVERY_BUDGET}"
    );
}
