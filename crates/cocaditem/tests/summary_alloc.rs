//! Allocation budget of a settled group's context plane.
//!
//! A counting global allocator wraps the system allocator. Once every
//! store holds the same rows, what a node receives each interval is a few
//! summaries equal to its own: decoding one, comparing it with the store's
//! kept summary and answering nothing must allocate nothing, at the
//! benchmark's group size. So must a snapshot that is not news. A publish
//! tick whose sample did not change significantly allocates only the target
//! list of the summary it gossips: a snapshot is inline slots that the
//! retrievers write into. Event boxes come from their types' free lists,
//! refilled by the arrivals and ticks of the warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use morpheus_appia::event::{Dest, Sendable};
use morpheus_appia::layer::LayerParams;
use morpheus_appia::message::Message;
use morpheus_appia::platform::{InPacket, NodeId, NodeProfile, PacketClass, TestPlatform};
use morpheus_appia::registry::encode_event;
use morpheus_appia::testing::Harness;
use morpheus_appia::timer::TimerKey;
use morpheus_cocaditem::dissemination::CocaditemLayer;
use morpheus_cocaditem::{
    ContextDigest, ContextPublish, ContextSnapshot, ContextStore, ContextUpdated,
};

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

/// Node 1's layer over `N` members, its store holding every member's
/// snapshot at version 1,000.
fn settled(platform: &mut TestPlatform) -> (Harness, Rc<RefCell<ContextStore>>) {
    let store = Rc::new(RefCell::new(ContextStore::new()));
    let mut params = LayerParams::new();
    let members: Vec<String> = (0..N).map(|id| id.to_string()).collect();
    params.insert("members".into(), members.join(","));
    let layer = CocaditemLayer::new(Rc::clone(&store));
    let mut harness = Harness::new(layer, &params, platform);
    ContextDigest::register(harness.kernel_mut().events_mut());
    ContextPublish::register(harness.kernel_mut().events_mut());
    for node in 0..N {
        let profile = NodeProfile::fixed_pc(NodeId(node));
        store
            .borrow_mut()
            .update(ContextSnapshot::from_profile(&profile, 1_000));
    }
    harness.drain_up();
    harness.drain_down();
    (harness, store)
}

/// The packet that carries `event` from node 2 to node 1.
fn from_node_two(event: &dyn Sendable) -> InPacket {
    InPacket {
        from: NodeId(2),
        to: NodeId(1),
        class: PacketClass::Context,
        channel: "harness".into(),
        payload: encode_event(event),
    }
}

#[test]
fn a_warm_matching_summary_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let (mut harness, store) = settled(&mut platform);
    // Node 2 holds the very same rows.
    let summary = store.borrow().summary();
    let packet = || {
        let mut message = Message::new();
        message.push(&summary);
        let digest = ContextDigest::new(NodeId(2), Dest::Node(NodeId(1)), message);
        from_node_two(&digest)
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

/// Node 2 pushes its snapshot at the version node 1 already stores: it is
/// not news, so nothing is stored, signalled or forwarded. The TTL and the
/// snapshot decode in place, and the event box comes from the free list.
#[test]
fn a_warm_publication_that_is_not_news_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let (mut harness, _store) = settled(&mut platform);
    let known = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 1_000);
    let packet = || {
        let mut message = Message::new();
        message.push(&known);
        message.push(&2u8);
        let publish = ContextPublish::new(NodeId(2), Dest::Node(NodeId(1)), message);
        from_node_two(&publish)
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
        assert!(
            harness.drain_up().is_empty(),
            "a known snapshot is absorbed"
        );
        assert!(harness.drain_down().is_empty(), "and not forwarded");
    }
    assert_eq!(
        total, 0,
        "a warm publication that is not news allocates nothing"
    );
}

/// The publish timer fires and the profile has not changed: the tick
/// samples the context, reports the sample upward and gossips the store's
/// summary, but publishes nothing. The sample is taken in place, and both
/// event boxes come from the free lists. What the tick allocates is the one
/// thing that leaves the node with the summary: its `Dest::Nodes` target
/// list.
#[test]
fn a_warm_publish_tick_without_a_significant_change_allocates_only_its_target_list() {
    let mut platform = TestPlatform::new(NodeId(1));
    let (mut harness, _store) = settled(&mut platform);
    let mut keys: Vec<TimerKey> = Vec::with_capacity(4);

    let mut total = 0;
    for tick in 0..WARM_UP + ARRIVALS {
        platform.advance(1_000);
        keys.extend(platform.timers.drain(..).map(|(_, key)| key));
        assert_eq!(keys.len(), 1, "the publish timer, re-armed");
        let before = allocations();
        for key in keys.drain(..) {
            harness.fire_timer(key, &mut platform);
        }
        if tick >= WARM_UP {
            total += allocations() - before;
        }
        let up = harness.drain_up();
        assert_eq!(up.len(), 1, "the sample, reported upward");
        let update = up[0].get::<ContextUpdated>().expect("a context update");
        assert!(update.local_sample.is_some());
        let down = harness.drain_down();
        assert_eq!(down.len(), 1, "a summary and no publication");
        assert!(down[0].is::<ContextDigest>());
    }
    assert_eq!(total, ARRIVALS as u64, "a publish tick: one target list");
}
