//! Allocation budget of gossip's batched push path.
//!
//! A counting global allocator wraps the system allocator. A gossip session
//! is warmed through [`Harness`] (outbox, decode scratch, target scratch,
//! duplicate-suppression memory and the kernel's queues all sized for the
//! measured rounds), then each round of sends or arrivals must allocate exactly what
//! the test names: event boxes and one buffer block per kept message. The
//! outbox, the batch decode and the target sampling allocate nothing.
//!
//! The repair pass is off (`repair_interval_ms` 0): its log and digests
//! keep tree nodes of their own, which this budget does not cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use morpheus_appia::event::{Dest, Event};
use morpheus_appia::events::DataEvent;
use morpheus_appia::layer::LayerParams;
use morpheus_appia::message::Message;
use morpheus_appia::platform::{InPacket, NodeId, PacketClass, TestPlatform};
use morpheus_appia::testing::Harness;
use morpheus_appia::timer::TimerKey;
use morpheus_groupcomm::events::GossipBatch;
use morpheus_groupcomm::gossip::GossipLayer;
use morpheus_groupcomm::headers::{GossipBatchBody, GossipHeader};

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

/// Messages per round: sent by the origin, or carried in one batch.
const K: usize = 4;
/// Peers every message is pushed to: the group minus the node itself and,
/// for a relay, the origin and the batch's sender.
const P: usize = 6;
/// Rounds before the measured ones. The duplicate-suppression set and its
/// ring only grow here (the default cap evicts nothing), and they are
/// hash- and doubling-sized: a set that evicted would leave tombstones and
/// rehash at a time its random hash seed decides. 160 ids warm grow the set
/// to 256 buckets (224 ids) and the ring to 256 slots, which hold the 48
/// ids the measured rounds add.
const WARM_UP_ROUNDS: usize = 40;
/// Measured rounds.
const ROUNDS: u64 = 12;

/// The kernel boxes one [`morpheus_appia::events::TimerExpired`] event to
/// deliver the zero-delay flush timer: a kernel allocation, not gossip's.
const TIMER_EVENT_BOX: u64 = 1;

/// A gossip session on the batched push path, pushing every message to all
/// `P` peers it may push to.
fn gossip(platform: &mut TestPlatform, members: &str) -> Harness {
    let mut params = LayerParams::new();
    for (key, value) in [
        ("members", members),
        ("fanout", "8"),
        ("batch_max", "16"),
        ("repair_interval_ms", "0"),
    ] {
        params.insert(key.into(), value.into());
    }
    Harness::new(GossipLayer, &params, platform)
}

/// Fires the timers armed since the last call. `keys` is the caller's
/// reusable buffer, so neither it nor the platform's timer list allocates.
fn fire_armed(harness: &mut Harness, platform: &mut TestPlatform, keys: &mut Vec<TimerKey>) {
    keys.extend(platform.timers.drain(..).map(|(_, key)| key));
    for key in keys.drain(..) {
        harness.fire_timer(key, platform);
    }
}

/// The number of batches the layer sent down since the last drain.
fn batches_sent(harness: &mut Harness) -> usize {
    let down = harness.drain_down();
    down.iter()
        .filter(|event| event.is::<GossipBatch>())
        .count()
}

/// An origin queues `K` sends for `P` peers, then the flush sends them as
/// `P` batches. Queueing costs one wire-form copy of each message (the
/// outbox shares it between peers) and nothing for the outbox itself; the
/// flush costs the `P` batch event boxes.
#[test]
fn queueing_and_flushing_pushes_allocate_only_frames_and_batch_boxes() {
    let mut platform = TestPlatform::new(NodeId(0));
    let mut harness = gossip(&mut platform, "0,1,2,3,4,5,6");
    let sends = |count: usize| -> Vec<Event> {
        (0..count)
            .map(|_| {
                Event::down(DataEvent::to_group(
                    NodeId(0),
                    Message::with_payload(&b"queued push"[..]),
                ))
            })
            .collect()
    };

    let mut keys = Vec::with_capacity(4);
    for _ in 0..WARM_UP_ROUNDS {
        for send in sends(K) {
            harness.run_down(send, &mut platform);
        }
        fire_armed(&mut harness, &mut platform, &mut keys);
        assert_eq!(batches_sent(&mut harness), P);
    }

    let (mut queueing, mut flushing) = (0, 0);
    for _ in 0..ROUNDS {
        // Built outside the window: the sends' own boxes are the app's.
        let round = sends(K);
        let before = allocations();
        for send in round {
            harness.run_down(send, &mut platform);
        }
        queueing += allocations() - before;
        assert!(harness.drain_down().is_empty(), "pushes wait for the flush");

        assert_eq!(platform.timers.len(), 1, "one flush timer per instant");
        let before = allocations();
        fire_armed(&mut harness, &mut platform, &mut keys);
        flushing += allocations() - before;
        assert_eq!(batches_sent(&mut harness), P, "one batch per peer");
    }

    assert_eq!(
        queueing,
        ROUNDS * K as u64,
        "queueing {K} sends to {P} peers: one frame block per message, \
         nothing for the outbox or the target draw"
    );
    assert_eq!(
        flushing,
        ROUNDS * (TIMER_EVENT_BOX + P as u64),
        "flushing {K} pushes to each of {P} peers: the {P} batch boxes"
    );
}

/// A packet carrying a `K`-entry batch of new messages arrives; every entry
/// is delivered up and relayed to `P` peers. Counted: the box the packet
/// decodes into, per message one frame block (the copy the relays share)
/// and one `DataEvent` box up, and the `P` relay batch boxes. The batch
/// entries decode into the session's scratch.
#[test]
fn a_batch_arrival_allocates_the_decode_box_frames_deliveries_and_relay_boxes() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = gossip(&mut platform, "0,1,2,3,4,5,6,7,8");
    GossipBatch::register(harness.kernel_mut().events_mut());
    let mut next_seq = 0;
    let mut packet = || -> InPacket {
        let entries = (0..K)
            .map(|_| {
                next_seq += 1;
                let header = GossipHeader {
                    origin: NodeId(0),
                    inc: 5,
                    seq: next_seq,
                    ttl: 2,
                };
                (header, Message::with_payload(&b"relayed push"[..]))
            })
            .collect();
        let mut message = Message::new();
        message.push(&GossipBatchBody { entries });
        let batch = GossipBatch::new(NodeId(2), Dest::Node(NodeId(1)), message);
        InPacket {
            from: NodeId(2),
            to: NodeId(1),
            class: PacketClass::Data,
            channel: "harness".into(),
            payload: morpheus_appia::registry::encode_event(&batch),
        }
    };

    let mut keys = Vec::with_capacity(4);
    for _ in 0..WARM_UP_ROUNDS {
        let arrival = packet();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert_eq!(harness.drain_up().len(), K);
        fire_armed(&mut harness, &mut platform, &mut keys);
        assert_eq!(batches_sent(&mut harness), P);
    }

    let mut total = 0;
    for _ in 0..ROUNDS {
        let arrival = packet();
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        fire_armed(&mut harness, &mut platform, &mut keys);
        total += allocations() - before;
        assert_eq!(harness.drain_up().len(), K, "every entry delivered");
        assert_eq!(batches_sent(&mut harness), P, "one relay batch per peer");
    }

    let per_round = 1 + 2 * K as u64 + TIMER_EVENT_BOX + P as u64;
    assert_eq!(
        total,
        ROUNDS * per_round,
        "a {K}-entry batch relayed to {P} peers: the decode box, {K} frame \
         blocks, {K} DataEvent boxes and {P} relay batch boxes"
    );
}
