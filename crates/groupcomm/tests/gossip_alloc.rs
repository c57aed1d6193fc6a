//! Allocation budget of gossip's batched push path.
//!
//! A counting global allocator wraps the system allocator. A gossip session
//! is warmed through [`Harness`] (outbox, decode scratch, target scratch,
//! delivery tracker and the kernel's queues all sized for the measured
//! rounds), then each round of sends or arrivals must allocate exactly what
//! the test names. The outbox, the batch decode and the target sampling
//! allocate nothing, and neither do the event boxes: every one comes from
//! its type's free list, refilled by the events the previous round dropped.
//! Neither does a kept message: its wire form is a frame of the session's
//! frame writer, which allocates a chunk only when the one it writes in
//! runs out while the frames in it are still kept.
//!
//! Every push leaves the same way: queued in a per-peer outbox and sent,
//! up to 1,456 bytes of messages a packet, by the zero-delay flush. The push-path
//! tests run with the repair pass off (`repair_interval_ms` 0): the flush
//! drops the last view of the instant's frames, so the frame writer
//! reclaims its chunk in place and the push path allocates nothing. The
//! repair pass has budgets of its own: a received digest decodes into the
//! session's scratch and builds its pull in another, a received pull
//! decodes into that scratch and is answered from the log, logged frames
//! cost a chunk per chunk's worth of them, and the repair tick encodes its
//! digest straight from the log and draws its targets without a pool of
//! members. A live-bytes count checks that logged frames go with the log.
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
use morpheus_appia::wire::{encode_pooled, Wire};
use morpheus_groupcomm::events::{
    GossipBatch, GossipRepairDigest, GossipRepairPull, GossipRepairPush, Heartbeat,
};
use morpheus_groupcomm::failure_detector::FailureDetectorLayer;
use morpheus_groupcomm::gossip::{GossipLayer, GossipSession};
use morpheus_groupcomm::headers::{
    GossipBatchBody, GossipHeader, ProbeBody, ProbeKind, PullWants, RepairDigest, RepairPull,
    RepairRange, Rumour, RumourKind,
};

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread, so tests running in parallel do
    /// not count each other. `const` initialisation: reading the counter
    /// never allocates, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed by this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_one(grown: i64) {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + grown));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("an allocation fits an i64")
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(size(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get() - size(layout.size())));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(size(new_size) - size(layout.size()));
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

/// A message carrying a batch of `entries`, encoded as a flush encodes one.
fn batch_body(entries: &[(GossipHeader, Message)]) -> Message {
    let frames: Vec<_> = entries
        .iter()
        .map(|(header, message)| (*header, message.to_bytes()))
        .collect();
    let mut message = Message::new();
    message.push_header(encode_pooled(|w| {
        GossipBatchBody::encode_frames(&frames, w)
    }));
    message
}

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
/// `P` batches. Queueing writes one wire-form copy of each message (the
/// outbox shares it between peers) into the frame writer's chunk, which the
/// previous flush left unviewed, and costs nothing for the outbox itself;
/// the flush costs nothing: the timer event and the `P` batch events take
/// the boxes the previous round's dropped.
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
        queueing, 0,
        "queueing {K} sends to {P} peers: frames in a reclaimed chunk, \
         nothing for the outbox or the target draw"
    );
    assert_eq!(
        flushing, 0,
        "flushing {K} pushes to each of {P} peers: every event box reused"
    );
}

/// A packet carrying a `K`-entry batch of new messages arrives; every entry
/// is delivered up and relayed to `P` peers. The copies the relays share
/// are frames in the frame writer's chunk, reclaimed in place once the
/// previous flush dropped them. The batch entries decode into the session's
/// scratch, and the decode box, the `K` `DataEvent`s going up, the timer
/// event and the `P` relay batches take boxes the previous round's events
/// gave back: the arrival allocates nothing.
#[test]
fn a_batch_arrival_allocates_the_decode_box_frames_deliveries_and_relay_boxes() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = gossip(&mut platform, "0,1,2,3,4,5,6,7,8");
    GossipBatch::register(harness.kernel_mut().events_mut());
    let mut next_seq = 0;
    let mut packet = || -> InPacket {
        let entries: Vec<_> = (0..K)
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
        let batch = GossipBatch::new(NodeId(2), Dest::Node(NodeId(1)), batch_body(&entries));
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
        total, 0,
        "a {K}-entry batch relayed to {P} peers: frames in a reclaimed \
         chunk, every event box reused"
    );
}

/// A full batch: 22 entries of 65 bytes (a 5-byte gossip header, its
/// sequence number past 127, and a 60-byte frame) fill 1,430 of a batch's
/// 1,456 bytes, and a 23rd would cross the cap.
const FULL_BATCH: usize = 22;

/// A packet carrying a full batch of new messages arrives at a warm
/// session, and every entry is delivered up and relayed to `P` peers, in
/// one full batch each. The entries decode into the session's scratch,
/// which the warm-up grew to a full batch; the relays' frames go into the
/// reclaimed chunk, and every event box, the `FULL_BATCH` deliveries and
/// the `P` relay batches among them, comes from a free list: the arrival
/// allocates nothing.
#[test]
fn a_full_capped_batch_arriving_at_a_warm_session_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = gossip(&mut platform, "0,1,2,3,4,5,6,7,8");
    GossipBatch::register(harness.kernel_mut().events_mut());
    let mut next_seq = 0;
    let mut packet = || -> InPacket {
        let entries: Vec<(GossipHeader, Message)> = (0..FULL_BATCH)
            .map(|_| {
                next_seq += 1;
                let header = GossipHeader {
                    origin: NodeId(0),
                    inc: 5,
                    seq: next_seq,
                    ttl: 2,
                };
                (header, Message::with_payload(vec![b'p'; 58]))
            })
            .collect();
        let bytes: usize = entries
            .iter()
            .map(|(header, message)| header.encoded_len() + message.encoded_len())
            .sum();
        assert!(
            bytes <= 1_456 && bytes + 65 > 1_456,
            "{bytes} B: a full batch"
        );
        let batch = GossipBatch::new(NodeId(2), Dest::Node(NodeId(1)), batch_body(&entries));
        InPacket {
            from: NodeId(2),
            to: NodeId(1),
            class: PacketClass::Data,
            channel: "harness".into(),
            payload: morpheus_appia::registry::encode_event(&batch),
        }
    };

    let mut keys = Vec::with_capacity(4);
    // Warmed until sequence numbers pass 127, so the entries have their
    // measured size, 65 bytes, and then the usual margin.
    for _ in 0..128 / FULL_BATCH + WARM_UP_ROUNDS {
        let arrival = packet();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert_eq!(harness.drain_up().len(), FULL_BATCH);
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
        assert_eq!(
            harness.drain_up().len(),
            FULL_BATCH,
            "every entry delivered"
        );
        assert_eq!(
            batches_sent(&mut harness),
            P,
            "one full relay batch per peer"
        );
    }

    assert_eq!(
        total, 0,
        "a full {FULL_BATCH}-entry batch relayed to {P} peers: every event box reused"
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

/// A packet from node 2 carrying one batch: the messages `seqs` of
/// `origin`'s stream (inc 5) at TTL `ttl`, each with `payload`.
fn batch_packet(
    origin: u32,
    seqs: impl IntoIterator<Item = u64>,
    ttl: u32,
    payload: &'static [u8],
) -> InPacket {
    let entries: Vec<_> = seqs
        .into_iter()
        .map(|seq| {
            let header = GossipHeader {
                origin: NodeId(origin),
                inc: 5,
                seq,
                ttl,
            };
            (header, Message::with_payload(payload))
        })
        .collect();
    let batch = GossipBatch::new(NodeId(2), Dest::Node(NodeId(1)), batch_body(&entries));
    InPacket {
        from: NodeId(2),
        to: NodeId(1),
        class: PacketClass::Data,
        channel: "harness".into(),
        payload: morpheus_appia::registry::encode_event(&batch),
    }
}

/// Fires the timers due by the platform's clock — the zero-delay flush, and
/// the repair tick once the clock has reached it — and leaves the later
/// ones armed. `keys` is the caller's reusable buffer.
fn fire_due(harness: &mut Harness, platform: &mut TestPlatform, keys: &mut Vec<TimerKey>) {
    let now = platform.now_ms;
    keys.extend(
        platform
            .timers
            .iter()
            .filter(|(at, _)| *at <= now)
            .map(|(_, key)| *key),
    );
    platform.timers.retain(|(at, _)| *at > now);
    for key in keys.drain(..) {
        harness.fire_timer(key, platform);
    }
}

/// A packet from node 2 carrying a repair digest that advertises `spans`.
fn digest_packet(spans: &[(u32, u64, u64)]) -> InPacket {
    let rows = spans.iter().map(|&(origin, lo, hi)| RepairRange {
        origin: NodeId(origin),
        inc: 5,
        lo,
        hi,
    });
    let mut message = Message::new();
    message.push_header(encode_pooled(|w| RepairDigest::encode_rows(rows, w)));
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
        let arrival = batch_packet(origin, 1..=8, 0, b"logged");
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

/// The wants of every pull the layer sent down since the last drain, in
/// wire order.
fn pulls_sent(harness: &mut Harness) -> Vec<Vec<(NodeId, u64, Vec<u64>)>> {
    let down = harness.drain_down();
    down.iter()
        .filter_map(|event| event.get::<GossipRepairPull>())
        .map(|pull| {
            let mut wants = PullWants::default();
            RepairPull::decode_into(pull.message.peek_header().unwrap(), &mut wants).unwrap();
            let streams = wants.streams();
            streams
                .map(|(origin, inc, seqs)| (origin, inc, seqs.to_vec()))
                .collect()
        })
        .collect()
}

/// A digest arrives that advertises gaps: two in streams the node tracks
/// and one stream it never heard of. The rows decode into the session's
/// scratch, the wants are built in another ([`Delivered::missing_in`]
/// appends to it) and encoded straight from it through the shared frame
/// scratch, and the decode box and the pull's box come from the free
/// lists: the pull costs no allocation.
///
/// [`Delivered::missing_in`]: morpheus_groupcomm::repair::Delivered::missing_in
#[test]
fn a_warm_repair_digest_that_pulls_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = repairing_gossip(&mut platform);
    GossipBatch::register(harness.kernel_mut().events_mut());
    GossipRepairDigest::register(harness.kernel_mut().events_mut());
    for origin in [0, 3] {
        let arrival = batch_packet(origin, [1, 2, 4, 7], 0, b"logged");
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert_eq!(harness.drain_up().len(), 4);
    }
    let spans = [(0, 1, 8), (3, 2, 9), (6, 1, 3)];
    let wants = vec![
        (NodeId(0), 5, vec![3, 5, 6, 8]),
        (NodeId(3), 5, vec![3, 5, 6, 8, 9]),
        (NodeId(6), 5, vec![1, 2, 3]),
    ];

    let mut keys = Vec::with_capacity(4);
    let mut total = 0;
    for round in 0..WARM_UP_ROUNDS as u64 + ROUNDS {
        // A repair tick opens a new interval, and with it the pull budget.
        platform.advance(1_000);
        fire_due(&mut harness, &mut platform, &mut keys);
        harness.drain_down();

        let arrival = digest_packet(&spans);
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        if round >= WARM_UP_ROUNDS as u64 {
            total += allocations() - before;
        }
        assert_eq!(pulls_sent(&mut harness), vec![wants.clone()], "one pull");
        assert!(harness.drain_up().is_empty(), "digests are absorbed");
    }

    assert_eq!(total, 0, "a warm digest that pulls allocates nothing");
}

/// A packet from node 2 carrying a repair pull for `wants`.
fn pull_packet(wants: &[(u32, &[u64])]) -> InPacket {
    let mut scratch = PullWants::default();
    for (origin, seqs) in wants {
        scratch.seqs_mut().extend(*seqs);
        scratch.end_stream(NodeId(*origin), 5);
    }
    let mut message = Message::new();
    message.push_header(encode_pooled(|w| {
        RepairPull::encode_wants(scratch.streams(), w)
    }));
    let pull = GossipRepairPull::new(NodeId(2), Dest::Node(NodeId(1)), message);
    InPacket {
        from: NodeId(2),
        to: NodeId(1),
        class: PacketClass::Control,
        channel: "harness".into(),
        payload: morpheus_appia::registry::encode_event(&pull),
    }
}

/// The entries of every repair answer the layer sent down since the last
/// drain, one count a packet.
fn answers_sent(harness: &mut Harness) -> Vec<usize> {
    harness
        .drain_down()
        .iter()
        .filter_map(|event| event.get::<GossipRepairPush>())
        .map(|push| {
            let mut entries = Vec::new();
            let body = push.message.peek_header().unwrap();
            GossipBatchBody::decode_into(body, &mut entries).unwrap();
            entries.len()
        })
        .collect()
}

/// A pull arrives for seven logged messages and one the log never held.
/// The wants decode into the session's scratch; the answers are their
/// logged frames, gathered without a copy in another scratch and cut into
/// one batch, encoded through the shared header scratch, in a box from the
/// free list: answering allocates nothing.
#[test]
fn a_warm_pull_answered_from_the_log_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = repairing_gossip(&mut platform);
    GossipBatch::register(harness.kernel_mut().events_mut());
    GossipRepairPull::register(harness.kernel_mut().events_mut());
    for origin in [0, 3] {
        let arrival = batch_packet(origin, 1..=8, 0, b"logged");
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert_eq!(harness.drain_up().len(), 8);
    }
    let wants: [(u32, &[u64]); 3] = [(0, &[2, 5, 8]), (3, &[1, 2, 3, 4]), (6, &[1])];
    let answers = 7;

    let mut total = 0;
    for round in 0..WARM_UP_ROUNDS as u64 + ROUNDS {
        let arrival = pull_packet(&wants);
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        if round >= WARM_UP_ROUNDS as u64 {
            total += allocations() - before;
        }
        assert_eq!(
            answers_sent(&mut harness),
            [answers],
            "every logged want, in one packet"
        );
    }

    assert_eq!(
        total, 0,
        "a warm pull answered from the log allocates nothing"
    );
}

/// The most messages gossip answers one pull with: twice its repair window.
const PULL_BURST: u64 = 128;

/// A pull arrives for `PULL_BURST` logged messages, the largest answer one
/// handler sends. The answers fill two batches; each takes its box from
/// the free list, which the previous pull's batches refilled when they were
/// dropped, so answering allocates nothing. A repair tick between pulls
/// opens a new interval, and with it the push budget.
#[test]
fn a_warm_pull_answered_with_a_full_burst_allocates_nothing() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut params = LayerParams::new();
    params.insert("members".into(), "0,1,2,3,4,5,6,7,8".into());
    params.insert("repair_interval_ms".into(), "100".into());
    let mut harness = Harness::new(GossipLayer, &params, &mut platform);
    GossipBatch::register(harness.kernel_mut().events_mut());
    GossipRepairPull::register(harness.kernel_mut().events_mut());
    let half = PULL_BURST / 2;
    for origin in [0, 3] {
        let arrival = batch_packet(origin, 1..=half, 0, b"logged");
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert_eq!(harness.drain_up().len() as u64, half);
    }
    let seqs: Vec<u64> = (1..=half).collect();
    let wants: [(u32, &[u64]); 2] = [(0, &seqs), (3, &seqs)];

    let mut keys = Vec::with_capacity(4);
    let mut total = 0;
    for round in 0..WARM_UP_ROUNDS as u64 + ROUNDS {
        platform.advance(100);
        fire_due(&mut harness, &mut platform, &mut keys);
        harness.drain_down();

        let arrival = pull_packet(&wants);
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        if round >= WARM_UP_ROUNDS as u64 {
            total += allocations() - before;
        }
        let answers = answers_sent(&mut harness);
        assert_eq!(
            answers.iter().sum::<usize>() as u64,
            PULL_BURST,
            "every want"
        );
        assert_eq!(answers.len(), 2, "in two packets of 1,456 B at most");
    }

    assert_eq!(total, 0, "a warm pull of a full burst allocates nothing");
}

/// Streams a warm session opened, and saw age out of its repair log,
/// before the measured ones: more than 112, so the delivery trackers'
/// table has grown to room for 224 streams, enough for the measured ones
/// as well.
const AGED_STREAMS: u32 = 120;

/// New streams the measured arrivals open, one batch of eight messages
/// each.
const NEW_STREAMS: u32 = 64;

/// Batches arrive that each open a new stream, at a session whose repair
/// log has aged out every stream it held. Each message is delivered and
/// logged. The log threads every stream's messages through one ring,
/// which kept its room, and names a new stream by a slot an aged-out one
/// gave back; the stream's tracker goes in a table with room to spare, and
/// the frames go in the frame writer's current chunk and then its spare,
/// both of which the aged-out frames left free. A new stream costs no
/// buffer of its own, so the arrivals allocate nothing.
#[test]
fn batches_opening_new_streams_allocate_no_per_stream_buffer() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = repairing_gossip(&mut platform);
    GossipBatch::register(harness.kernel_mut().events_mut());
    // Their frames fill the frame writer's first chunk and most of a
    // second: the writer keeps the first as its spare.
    for origin in 100..100 + AGED_STREAMS {
        let arrival = batch_packet(origin, 1..=8, 0, FRAME_PAYLOAD);
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        assert_eq!(harness.drain_up().len(), 8);
    }
    // The first repair tick past the log's TTL ages every message out.
    let mut keys = Vec::with_capacity(4);
    platform.advance(REPAIR_LOG_TTL_MS + 1_000);
    fire_due(&mut harness, &mut platform, &mut keys);
    harness.drain_down();
    assert_eq!(log_len(&mut harness), 0);

    let mut total = 0;
    for origin in 1_000..1_000 + NEW_STREAMS {
        let arrival = batch_packet(origin, 1..=8, 0, b"logged");
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        total += allocations() - before;
        assert_eq!(harness.drain_up().len(), 8, "every message delivered");
    }

    assert_eq!(log_len(&mut harness), 8 * NEW_STREAMS as usize);
    assert_eq!(
        total, 0,
        "{NEW_STREAMS} new streams of 8 messages, delivered and logged"
    );
}

/// The payload of a message whose wire form is 16 bytes (a header count, a
/// length and 14 bytes): a chunk holds a whole number of such frames.
const FRAME_PAYLOAD: &[u8] = b"fourteen bytes";

/// Messages the repair log holds at most.
const REPAIR_LOG_CAP: usize = 4_096;

/// Age at which the repair tick evicts a logged message.
const REPAIR_LOG_TTL_MS: u64 = 10_000;

/// `K`-entry batches arrive at a session whose repair log is full, so every
/// arrival evicts as many messages as it logs. Each new message is
/// delivered, logged and relayed; its frame goes into the frame writer's
/// chunk. A chunk runs out while the log still holds all its frames, so the
/// writer takes a fresh one: over a chunk's worth of frames, the arrivals
/// allocate that one chunk and nothing else.
#[test]
fn a_batch_arrival_logs_its_frames_at_one_chunk_per_chunks_worth() {
    let frame_len = Message::with_payload(FRAME_PAYLOAD).encoded_len();
    assert_eq!(bytes::PINNED_CHUNK % frame_len, 0, "whole frames per chunk");
    let per_chunk = bytes::PINNED_CHUNK / frame_len;
    // A whole number of chunks' worth, so the count is the same wherever in
    // a chunk the measured rounds start.
    let chunks = 2;
    let rounds = chunks * per_chunk / K;
    assert_eq!(rounds * K, chunks * per_chunk);

    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = repairing_gossip(&mut platform);
    GossipBatch::register(harness.kernel_mut().events_mut());
    let mut next_seq = 0;
    let mut packet = || {
        let seqs = next_seq + 1..=next_seq + K as u64;
        next_seq += K as u64;
        batch_packet(0, seqs, 2, FRAME_PAYLOAD)
    };

    let mut keys = Vec::with_capacity(4);
    // Fill the log past its cap, and the frame writer with it.
    for _ in 0..REPAIR_LOG_CAP / K + 2 * per_chunk / K {
        let arrival = packet();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        fire_due(&mut harness, &mut platform, &mut keys);
        harness.drain_up();
        harness.drain_down();
    }
    assert_eq!(log_len(&mut harness), REPAIR_LOG_CAP);

    let mut total = 0;
    for _ in 0..rounds {
        let arrival = packet();
        let before = allocations();
        harness
            .kernel_mut()
            .deliver_packet(arrival, &mut platform)
            .unwrap();
        fire_due(&mut harness, &mut platform, &mut keys);
        total += allocations() - before;
        assert_eq!(harness.drain_up().len(), K, "every entry delivered");
        assert_eq!(batches_sent(&mut harness), 3, "relayed to the fan-out");
    }

    assert_eq!(
        total,
        chunks as u64,
        "{} logged frames of {frame_len} bytes: one chunk per {per_chunk}",
        rounds * K
    );
}

/// Messages the session's repair log holds.
fn log_len(harness: &mut Harness) -> usize {
    let session = harness
        .kernel_mut()
        .channel_by_name("harness")
        .unwrap()
        .session_of("gossip")
        .unwrap();
    let session = session.borrow();
    session
        .as_any()
        .and_then(|any| any.downcast_ref::<GossipSession>())
        .unwrap()
        .log_len()
}

/// Logged frames go with the log. Arrivals stream into a warm session for
/// two log TTLs, then the repair ticks evict everything: the bytes the
/// thread holds return to the level before the traffic. The warm-up ran
/// the same traffic, so the frame writer's two chunks (the current one and
/// its spare) are in that level already, and the bound is less than one
/// chunk. A frame that outlived its log entry — a copy kept elsewhere in
/// the session, a chunk pinned by another node's header — would keep a
/// whole chunk, and in a simulated group a chunk per node.
#[test]
fn logged_frames_die_with_the_log() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut harness = repairing_gossip(&mut platform);
    GossipBatch::register(harness.kernel_mut().events_mut());
    let mut next_seq = 0;
    let mut keys = Vec::with_capacity(8);
    // One batch every 10 ms for two log TTLs, then ticks until the last
    // message is evicted.
    let mut stream = |harness: &mut Harness, platform: &mut TestPlatform| {
        for _ in 0..2 * REPAIR_LOG_TTL_MS / 10 {
            let seqs = next_seq + 1..=next_seq + K as u64;
            next_seq += K as u64;
            harness
                .kernel_mut()
                .deliver_packet(batch_packet(0, seqs, 2, FRAME_PAYLOAD), platform)
                .unwrap();
            fire_due(harness, platform, &mut keys);
            harness.drain_up();
            harness.drain_down();
            platform.advance(10);
        }
        for _ in 0..REPAIR_LOG_TTL_MS / 1_000 + 1 {
            platform.advance(1_000);
            fire_due(harness, platform, &mut keys);
            harness.drain_down();
        }
        assert_eq!(log_len(harness), 0, "the log is empty");
    };

    stream(&mut harness, &mut platform);
    let before = live_bytes();
    stream(&mut harness, &mut platform);
    let after = live_bytes();
    assert!(
        after - before < size(bytes::PINNED_CHUNK),
        "{} bytes outlived the log that held them",
        after - before
    );
}
