//! Allocation budget of gossip's batched push path.
//!
//! A counting global allocator wraps the system allocator. A gossip session
//! is warmed through [`Harness`] (outbox, decode scratch, target scratch,
//! delivery tracker and the kernel's queues all sized for the measured
//! rounds), then each round of sends or arrivals must allocate exactly what
//! the test names: one buffer block per kept message. The outbox, the batch
//! decode and the target sampling allocate nothing, and neither do the event
//! boxes: every one comes from its type's free list, refilled by the events
//! the previous round dropped.
//!
//! Every push leaves the same way: queued in a per-peer outbox and sent,
//! up to four messages a packet, by the zero-delay flush. The push-path
//! tests run with the repair pass off (`repair_interval_ms` 0), so the
//! repair log's buffers stay out of their budget. The repair pass has
//! budgets of its own: a received digest decodes into the
//! session's scratch, and the repair tick encodes its digest straight from
//! the log and draws its targets without a pool of members.
//!
//! The failure detector's probe arrivals are pinned here too: a probe
//! decodes into the session's scratch, and a ping's reply reuses a box.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use morpheus_appia::event::{Dest, Event};
use morpheus_appia::events::DataEvent;
use morpheus_appia::layer::LayerParams;
use morpheus_appia::message::Message;
use morpheus_appia::platform::{InPacket, NodeId, PacketClass, TestPlatform};
use morpheus_appia::testing::Harness;
use morpheus_appia::timer::TimerKey;
use morpheus_groupcomm::events::{GossipBatch, GossipRepairDigest, Heartbeat};
use morpheus_groupcomm::failure_detector::FailureDetectorLayer;
use morpheus_groupcomm::gossip::GossipLayer;
use morpheus_groupcomm::headers::{
    GossipBatchBody, GossipHeader, ProbeBody, ProbeKind, RepairDigest, RepairRange, Rumour,
    RumourKind,
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

/// Messages per round: sent by the origin, or carried in one batch. Each
/// peer's share of a round fits one batch.
const K: usize = 4;
/// Peers every message is pushed to: the group minus the node itself and,
/// for a relay, the origin and the batch's sender.
const P: usize = 6;
/// Rounds before the measured ones. Nothing a session keeps grows with the
/// messages: duplicates are checked against one delivery tracker per stream,
/// which in-order arrivals keep at a bare floor. So one round sizes every
/// buffer — the outbox, the decode and target scratches, the kernel's queue
/// — and fills the event-box free lists; the second is margin.
const WARM_UP_ROUNDS: usize = 2;
/// Measured rounds.
const ROUNDS: u64 = 12;

/// A gossip session on the batched push path, pushing every message to all
/// `P` peers it may push to.
fn gossip(platform: &mut TestPlatform, members: &str) -> Harness {
    let mut params = LayerParams::new();
    for (key, value) in [
        ("members", members),
        ("fanout", "8"),
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
/// flush costs nothing: the timer event and the `P` batch events take the
/// boxes the previous round's dropped.
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
        flushing, 0,
        "flushing {K} pushes to each of {P} peers: every event box reused"
    );
}

/// A packet carrying a `K`-entry batch of new messages arrives; every entry
/// is delivered up and relayed to `P` peers. Counted: per message one frame
/// block (the copy the relays share). The batch entries decode into the
/// session's scratch, and the decode box, the `K` `DataEvent`s going up, the
/// timer event and the `P` relay batches take boxes the previous round's
/// events gave back.
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

    assert_eq!(
        total,
        ROUNDS * K as u64,
        "a {K}-entry batch relayed to {P} peers: {K} frame blocks, every \
         event box reused"
    );
}

/// Probes arrive at a warm failure detector. The body decodes into the
/// session's scratch, rumours and all, and the decode box comes from the
/// free list. A ping's reply is encoded through the shared header scratch
/// into a box from the free list too: neither an ack nor a ping allocates.
#[test]
fn a_warm_heartbeat_that_advances_no_counter_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut params = LayerParams::new();
    params.insert("members".into(), "0,1,2,3,4,5,6,7".into());
    let mut harness = Harness::new(FailureDetectorLayer, &params, &mut platform);
    Heartbeat::register(harness.kernel_mut().events_mut());
    let packet = |kind: ProbeKind| -> InPacket {
        let mut message = Message::new();
        message.push(&ProbeBody {
            kind,
            seq: 9,
            incarnation: 3,
            relay: None,
            rumours: (4..7)
                .map(|node| Rumour {
                    kind: RumourKind::Alive,
                    node: NodeId(node),
                    incarnation: 0,
                })
                .collect(),
        });
        let heartbeat = Heartbeat::new(NodeId(2), Dest::Node(NodeId(1)), message);
        InPacket {
            from: NodeId(2),
            to: NodeId(1),
            class: PacketClass::Control,
            channel: "harness".into(),
            payload: morpheus_appia::registry::encode_event(&heartbeat),
        }
    };

    for (kind, replies) in [(ProbeKind::Ack, 0), (ProbeKind::Ping, 1)] {
        for _ in 0..WARM_UP_ROUNDS {
            let arrival = packet(kind);
            harness
                .kernel_mut()
                .deliver_packet(arrival, &mut platform)
                .unwrap();
            assert!(harness.drain_up().is_empty(), "probes are absorbed");
            harness.drain_down();
        }
        let mut total = 0;
        for _ in 0..ROUNDS {
            let arrival = packet(kind);
            let before = allocations();
            harness
                .kernel_mut()
                .deliver_packet(arrival, &mut platform)
                .unwrap();
            total += allocations() - before;
            assert!(harness.drain_up().is_empty(), "probes are absorbed");
            assert_eq!(harness.drain_down().len(), replies);
        }
        assert_eq!(total, 0, "a warm {kind:?} arrival allocates nothing");
    }
}

/// A gossip session with the repair pass on, at node 1 of nine members,
/// pushing to 3 peers.
fn repairing_gossip(platform: &mut TestPlatform) -> Harness {
    let mut params = LayerParams::new();
    params.insert("members".into(), "0,1,2,3,4,5,6,7,8".into());
    Harness::new(GossipLayer, &params, platform)
}

/// A packet from node 2 carrying a repair digest that advertises `spans`.
fn digest_packet(spans: &[(u32, u64, u64)]) -> InPacket {
    let mut message = Message::new();
    message.push(&RepairDigest {
        entries: spans
            .iter()
            .map(|&(origin, lo, hi)| RepairRange {
                origin: NodeId(origin),
                inc: 5,
                lo,
                hi,
            })
            .collect(),
    });
    let digest = GossipRepairDigest::new(NodeId(2), Dest::Node(NodeId(1)), message);
    InPacket {
        from: NodeId(2),
        to: NodeId(1),
        class: PacketClass::Control,
        channel: "harness".into(),
        payload: morpheus_appia::registry::encode_event(&digest),
    }
}

/// A digest arrives that advertises only what the node already delivered:
/// it pulls nothing. The rows decode into the session's scratch and the
/// decode box comes from the free list, so the arrival allocates nothing.
#[test]
fn a_warm_repair_digest_that_pulls_nothing_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = repairing_gossip(&mut platform);
    GossipBatch::register(harness.kernel_mut().events_mut());
    GossipRepairDigest::register(harness.kernel_mut().events_mut());
    // Node 1 delivers seqs 1..=8 of four origins' streams (inc 5).
    for origin in [0, 3, 4, 6] {
        let entries = (1..=8)
            .map(|seq| {
                let header = GossipHeader {
                    origin: NodeId(origin),
                    inc: 5,
                    seq,
                    ttl: 0,
                };
                (header, Message::with_payload(&b"logged"[..]))
            })
            .collect();
        let mut message = Message::new();
        message.push(&GossipBatchBody { entries });
        let batch = GossipBatch::new(NodeId(2), Dest::Node(NodeId(1)), message);
        let arrival = InPacket {
            from: NodeId(2),
            to: NodeId(1),
            class: PacketClass::Data,
            channel: "harness".into(),
            payload: morpheus_appia::registry::encode_event(&batch),
        };
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert_eq!(harness.drain_up().len(), 8);
    }
    // Spans at or below the floor, and one of the node's own streams.
    let spans = [(0, 1, 8), (1, 1, 30), (3, 2, 8), (4, 8, 8), (6, 1, 5)];

    for _ in 0..WARM_UP_ROUNDS {
        let arrival = digest_packet(&spans);
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert!(harness.drain_down().is_empty(), "nothing to pull");
    }

    let mut total = 0;
    for _ in 0..ROUNDS {
        let arrival = digest_packet(&spans);
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        total += allocations() - before;
        assert!(harness.drain_down().is_empty(), "nothing to pull");
        assert!(harness.drain_up().is_empty(), "digests are absorbed");
    }

    assert_eq!(
        total, 0,
        "a warm digest that pulls nothing allocates nothing"
    );
}

/// The repair tick gossips a digest of the log to `fanout` peers. The
/// digest is encoded straight from the log into the shared frame scratch,
/// which the previous tick's digest gave back, and the peers are drawn
/// without a pool of members. What the tick allocates is the one thing
/// that leaves the node with the event: its `Dest::Nodes` target list.
#[test]
fn a_warm_repair_tick_allocates_only_its_target_list() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = repairing_gossip(&mut platform);
    // Log a few of the node's own sends; their pushes wait for the flush,
    // which fires with the first tick.
    for _ in 0..8 {
        let send = Event::down(DataEvent::to_group(
            NodeId(1),
            Message::with_payload(&b"logged"[..]),
        ));
        assert!(harness.run_down(send, &mut platform).is_empty());
    }
    let mut keys = Vec::with_capacity(4);
    fire_armed(&mut harness, &mut platform, &mut keys);
    harness.drain_down();

    for _ in 0..WARM_UP_ROUNDS {
        fire_armed(&mut harness, &mut platform, &mut keys);
        let down = harness.drain_down();
        assert_eq!(down.len(), 1);
        assert!(down[0].is::<GossipRepairDigest>());
    }

    let mut total = 0;
    for _ in 0..ROUNDS {
        assert_eq!(platform.timers.len(), 1, "the repair timer, re-armed");
        let before = allocations();
        fire_armed(&mut harness, &mut platform, &mut keys);
        total += allocations() - before;
        let down = harness.drain_down();
        assert_eq!(down.len(), 1, "one digest per tick");
        assert!(down[0].is::<GossipRepairDigest>());
    }

    assert_eq!(total, ROUNDS, "a repair tick: one target list");
}
