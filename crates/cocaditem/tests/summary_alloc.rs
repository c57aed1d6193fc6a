//! Allocation budget of a settled group's anti-entropy round.
//!
//! A counting global allocator wraps the system allocator. Once every
//! store holds the same rows, what a node receives each interval is a few
//! summaries equal to its own: decoding one, comparing it with the store's
//! kept summary and answering nothing must allocate nothing, at the
//! benchmark's group size. The event box comes from its type's free list,
//! refilled by the arrivals of the warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use morpheus_appia::event::Dest;
use morpheus_appia::layer::LayerParams;
use morpheus_appia::message::Message;
use morpheus_appia::platform::{InPacket, NodeId, NodeProfile, PacketClass, TestPlatform};
use morpheus_appia::registry::encode_event;
use morpheus_appia::testing::Harness;
use morpheus_cocaditem::dissemination::CocaditemLayer;
use morpheus_cocaditem::{ContextDigest, ContextSnapshot, ContextStore};

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread, so tests running in parallel do
    /// not count each other. `const` initialisation: reading the counter
    /// never allocates, so the allocator may touch it.
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

/// The group: `quiet_restart`'s and `fanin_lossy`'s 200 members.
const N: u32 = 200;
/// Arrivals before the measured ones: the first fills the event box's free
/// list; the second is margin.
const WARM_UP: usize = 2;
/// Measured arrivals.
const ARRIVALS: usize = 12;

#[test]
fn a_warm_matching_summary_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let store = Rc::new(RefCell::new(ContextStore::new()));
    let mut params = LayerParams::new();
    let members: Vec<String> = (0..N).map(|id| id.to_string()).collect();
    params.insert("members".into(), members.join(","));
    let layer = CocaditemLayer::new(Rc::clone(&store));
    let mut harness = Harness::new(layer, &params, &mut platform);
    ContextDigest::register(harness.kernel_mut().events_mut());
    for node in 0..N {
        let profile = NodeProfile::fixed_pc(NodeId(node));
        store
            .borrow_mut()
            .update(ContextSnapshot::from_profile(&profile, 1_000));
    }
    // Node 2 holds the very same rows.
    let summary = store.borrow().summary();
    let packet = || {
        let mut message = Message::new();
        message.push(&summary);
        let digest = ContextDigest::new(NodeId(2), Dest::Node(NodeId(1)), message);
        InPacket {
            from: NodeId(2),
            to: NodeId(1),
            class: PacketClass::Context,
            channel: "harness".into(),
            payload: encode_event(&digest),
        }
    };

    let mut total = 0;
    for arrival in 0..WARM_UP + ARRIVALS {
        let packet = packet();
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(packet, &mut platform)
            .unwrap();
        if arrival >= WARM_UP {
            total += allocations() - before;
        }
        assert!(harness.drain_up().is_empty(), "a summary is absorbed");
        assert!(harness.drain_down().is_empty(), "a match is not answered");
    }
    assert_eq!(total, 0, "a warm matching summary allocates nothing");
}
