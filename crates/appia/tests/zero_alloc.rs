//! Proof that the kernel's hot paths are allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; after warming a
//! channel (route memo populated, queue capacity grown, scratch buffer
//! sized), dispatching pre-built events through the full stack — routing,
//! session hand-off, serialisation and packet emission — must perform **zero
//! heap allocations**, and so must receiving a packet: the box of the event
//! it is decoded into comes from its type's free list, which the event of
//! the previous packet refilled when it dropped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use morpheus_appia::config::{ChannelConfig, LayerSpec};
use morpheus_appia::event::{Dest, Event, EventPayload, EventSpec, FREE_BOXES_PER_TYPE};
use morpheus_appia::events::DataEvent;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::{
    AppDelivery, DeliveryKind, InPacket, NodeId, NodeProfile, OutPacket, PacketClass, Platform,
    ReconfigRequest,
};
use morpheus_appia::session::Session;
use morpheus_appia::timer::TimerKey;
use morpheus_appia::{internal_event, Kernel};

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread. The test harness runs the tests of
    /// this binary on parallel threads and prints from yet another; a
    /// process-wide counter let their allocations land inside a measured
    /// window and fail it spuriously. `const` initialisation: reading the
    /// counter never allocates, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread that is being torn down has no counter left; it is not
    // measuring either.
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

/// A platform that consumes every side effect immediately, so packet bytes
/// split from the kernel's scratch buffer are dropped and the buffer can be
/// recycled — exactly how a zero-copy network backend would behave.
struct SinkPlatform {
    profile: NodeProfile,
    sent: u64,
    delivered: u64,
    /// Address range of the last data payload handed to the application.
    last_payload: std::ops::Range<usize>,
}

impl SinkPlatform {
    fn new(node: NodeId) -> Self {
        Self {
            profile: NodeProfile::fixed_pc(node),
            sent: 0,
            delivered: 0,
            last_payload: 0..0,
        }
    }
}

fn address_range(bytes: &[u8]) -> std::ops::Range<usize> {
    let start = bytes.as_ptr() as usize;
    start..start + bytes.len()
}

impl Platform for SinkPlatform {
    fn now_ms(&self) -> u64 {
        0
    }

    fn node_id(&self) -> NodeId {
        self.profile.node_id
    }

    fn profile(&self) -> NodeProfile {
        self.profile.clone()
    }

    fn send(&mut self, packet: OutPacket) {
        self.sent += 1;
        drop(packet);
    }

    fn set_timer(&mut self, _delay_ms: u64, _key: TimerKey) {}

    fn cancel_timer(&mut self, _key: TimerKey) {}

    fn deliver(&mut self, delivery: AppDelivery) {
        self.delivered += 1;
        if let DeliveryKind::Data { payload, .. } = &delivery.kind {
            self.last_payload = address_range(payload);
        }
        drop(delivery);
    }

    fn random_u64(&mut self) -> u64 {
        7
    }

    fn request_reconfiguration(&mut self, _request: ReconfigRequest) {}
}

struct PassThroughLayer {
    name: &'static str,
}

struct PassThroughSession {
    name: &'static str,
}

impl Layer for PassThroughLayer {
    fn name(&self) -> &str {
        self.name
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::All]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(PassThroughSession { name: self.name })
    }
}

impl Session for PassThroughSession {
    fn layer_name(&self) -> &str {
        self.name
    }

    fn handle(&mut self, event: Event, ctx: &mut EventContext<'_>) {
        ctx.forward(event);
    }
}

const RELAY_NAMES: [&str; 12] = [
    "relay0", "relay1", "relay2", "relay3", "relay4", "relay5", "relay6", "relay7", "relay8",
    "relay9", "relay10", "relay11",
];

fn build_kernel() -> (Kernel, SinkPlatform, morpheus_appia::ChannelId) {
    build_kernel_with(&RELAY_NAMES[..6])
}

/// `network`, one pass-through layer per name, `app`.
fn build_kernel_with(relays: &[&'static str]) -> (Kernel, SinkPlatform, morpheus_appia::ChannelId) {
    let mut kernel = Kernel::new();
    for &name in relays {
        kernel.layers_mut().register(PassThroughLayer { name });
    }
    let mut config = ChannelConfig::new("hotpath").with_layer(LayerSpec::new("network"));
    for &name in relays {
        config = config.with_layer(LayerSpec::new(name));
    }
    config = config.with_layer(LayerSpec::new("app"));

    let mut platform = SinkPlatform::new(NodeId(1));
    let id = kernel.create_channel(&config, &mut platform).unwrap();
    (kernel, platform, id)
}

fn make_events(count: usize) -> Vec<Event> {
    (0..count)
        .map(|_| {
            Event::down(DataEvent::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                Message::with_payload(&b"steady-state"[..]),
            ))
        })
        .collect()
}

#[test]
fn steady_state_event_hops_perform_zero_allocations() {
    let (mut kernel, mut platform, id) = build_kernel();

    // Warm-up: populate the route memo, grow the event queue and size the
    // packet scratch buffer.
    for event in make_events(64) {
        kernel.dispatch_and_process(id, event, &mut platform);
    }
    assert_eq!(platform.sent, 64, "warm-up packets reached the sink");

    // Events are built outside the measured window: the claim is that
    // routing and serialising an event does not touch the allocator.
    let events = make_events(256);

    let before = allocations();
    for event in events {
        kernel.dispatch_and_process(id, event, &mut platform);
    }
    let after = allocations();

    assert_eq!(
        platform.sent,
        64 + 256,
        "every steady-state send was serialised and emitted"
    );
    assert_eq!(
        after - before,
        0,
        "kernel dispatch + serialisation allocated {} times over 256 warm sends",
        after - before
    );
}

#[test]
fn batched_dispatch_is_also_allocation_free_after_warmup() {
    let (mut kernel, mut platform, id) = build_kernel();

    // Warm-up includes a batch of the same size so the queue has capacity
    // for the whole batch.
    kernel.dispatch_batch_and_process(id, make_events(128), &mut platform);

    let events = make_events(128);
    let before = allocations();
    kernel.dispatch_batch_and_process(id, events, &mut platform);
    let after = allocations();

    assert_eq!(platform.sent, 256);
    assert_eq!(
        after - before,
        0,
        "batched dispatch allocated {} times",
        after - before
    );
}

#[test]
fn upward_delivery_path_is_allocation_free() {
    let (mut kernel, mut platform, id) = build_kernel();

    let make_up_events = |count: usize| -> Vec<Event> {
        (0..count)
            .map(|_| {
                Event::up(DataEvent::new(
                    NodeId(2),
                    Dest::Node(NodeId(1)),
                    Message::with_payload(&b"inbound"[..]),
                ))
            })
            .collect()
    };

    for event in make_up_events(32) {
        kernel.dispatch_and_process(id, event, &mut platform);
    }
    assert_eq!(platform.delivered, 32);

    let events = make_up_events(128);
    let before = allocations();
    for event in events {
        kernel.dispatch_and_process(id, event, &mut platform);
    }
    let after = allocations();

    assert_eq!(platform.delivered, 32 + 128);
    assert_eq!(
        after - before,
        0,
        "upward delivery allocated {} times",
        after - before
    );
}

/// The receive path decodes a packet by slicing it: the 16-bit event tag is
/// looked up in the registry's sorted table, the four layer headers and the payload are views of the packet
/// buffer, and the header stack lives inline in the message. The typed
/// event's box is the one the previous packet's event gave back to
/// `DataEvent`'s free list when the sink dropped it.
#[test]
fn steady_state_packet_receive_allocates_only_the_event_box() {
    const PACKETS: u64 = 256;
    let (mut kernel, mut platform, _) = build_kernel_with(&RELAY_NAMES);

    let mut message = Message::with_payload(&b"steady-state receive"[..]);
    for header in 0u64..4 {
        message.push(&header);
    }
    let event = DataEvent::new(NodeId(2), Dest::Node(NodeId(1)), message);
    let payload: Bytes = morpheus_appia::registry::encode_event(&event);
    let packet = || InPacket {
        from: NodeId(2),
        to: NodeId(1),
        class: PacketClass::Data,
        channel: "hotpath".into(),
        payload: payload.clone(),
    };

    for _ in 0..32 {
        kernel.deliver_packet(packet(), &mut platform).unwrap();
    }
    assert_eq!(platform.delivered, 32, "warm-up packets reached the sink");

    // Building an `InPacket` interns nothing new and clones refcounts only,
    // but keep it outside the window anyway: the claim is about the kernel.
    let packets: Vec<InPacket> = (0..PACKETS).map(|_| packet()).collect();
    let before = allocations();
    for packet in packets {
        kernel.deliver_packet(packet, &mut platform).unwrap();
    }
    let after = allocations();

    assert_eq!(platform.delivered, 32 + PACKETS);
    assert_eq!(
        after - before,
        0,
        "receiving {PACKETS} packets through 12 layers allocated {} times",
        after - before
    );
    let packet_buffer = address_range(&payload);
    assert!(
        packet_buffer.start <= platform.last_payload.start
            && platform.last_payload.end <= packet_buffer.end,
        "the delivered payload {:?} is a view of the packet buffer {packet_buffer:?}, not a copy",
        platform.last_payload
    );
}

/// A frame with a hostile length field is refused on the field, before the
/// decoder reserves or copies anything: a varint length past
/// `MAX_FIELD_LEN`, a header count past the bytes present, an 11-byte varint
/// and an unknown event tag all fail without one allocation.
#[test]
fn hostile_frames_are_rejected_without_allocating() {
    use morpheus_appia::error::AppiaError;
    use morpheus_appia::registry::{decode_event, EventFactoryRegistry};
    use morpheus_appia::wire::{WireError, WireWriter, MAX_FIELD_LEN};

    let mut factories = EventFactoryRegistry::new();
    DataEvent::register(&mut factories);
    // Tag, then a send header (source 2, data class).
    let frame = |tag: u16, rest: &dyn Fn(&mut WireWriter)| {
        let mut w = WireWriter::new();
        w.put_u16(tag);
        w.put_varint(2);
        w.put_u8(0);
        rest(&mut w);
        w.put_raw(&[0; 32]);
        w.finish()
    };
    let over_long_header = frame(DataEvent::WIRE_TAG, &|w| {
        w.put_varint(1);
        w.put_varint(MAX_FIELD_LEN + 1);
    });
    let forged_count = frame(DataEvent::WIRE_TAG, &|w| w.put_varint(u64::from(u32::MAX)));
    let eleven_byte_payload_length = frame(DataEvent::WIRE_TAG, &|w| {
        w.put_varint(0);
        w.put_raw(&[0x80; 10]);
        w.put_u8(0x01);
    });
    let unknown_tag = frame(DataEvent::WIRE_TAG.wrapping_add(1), &|w| {
        w.put_varint(0);
        w.put_varint(0);
    });

    let before = allocations();
    let results = [
        decode_event(&factories, &over_long_header).map(drop),
        decode_event(&factories, &forged_count).map(drop),
        decode_event(&factories, &eleven_byte_payload_length).map(drop),
        decode_event(&factories, &unknown_tag).map(drop),
    ];
    let after = allocations();

    assert_eq!(
        results,
        [
            Err(AppiaError::Wire(WireError::LengthOutOfRange(
                MAX_FIELD_LEN + 1
            ))),
            Err(AppiaError::Wire(WireError::LengthOutOfRange(u64::from(
                u32::MAX
            )))),
            Err(AppiaError::Wire(WireError::Malformed(
                "varint longer than 10 bytes"
            ))),
            Err(AppiaError::UnknownEventType(
                DataEvent::WIRE_TAG.wrapping_add(1)
            )),
        ]
    );
    assert_eq!(after - before, 0, "rejecting hostile frames allocated");
}

internal_event! {
    /// A payload type only the free-list tests create.
    pub struct Ping {
        pub n: u64,
    }
    categories: [Internal]
}

internal_event! {
    /// A second payload type of the same size as [`Ping`].
    pub struct Pong {
        pub n: u64,
    }
    categories: [Internal]
}

/// Address of an event's payload box.
fn box_address(event: &Event) -> usize {
    let payload: &dyn EventPayload = event.payload.as_ref();
    payload as *const dyn EventPayload as *const () as usize
}

#[test]
fn a_dropped_event_box_is_reused_by_its_own_type_only() {
    morpheus_appia::reset_thread_scratch();
    let first = Event::up(Ping { n: 1 });
    let ping_box = box_address(&first);
    // The first box given back allocates the list's slots.
    drop(first);

    let before = allocations();
    let pong = Event::up(Pong { n: 2 });
    assert_eq!(allocations() - before, 1, "Pong's list is empty: a new box");
    assert_ne!(
        box_address(&pong),
        ping_box,
        "Pong does not take Ping's box"
    );

    let before = allocations();
    let ping = Event::up(Ping { n: 3 });
    assert_eq!(allocations() - before, 0, "Ping takes its spare box");
    assert_eq!(box_address(&ping), ping_box, "the box Ping gave back");
    assert_eq!(
        ping.get::<Ping>().map(|p| p.n),
        Some(3),
        "holding the new payload"
    );
    drop(pong);
}

#[test]
fn a_free_list_keeps_at_most_its_bound() {
    const EVENTS: usize = FREE_BOXES_PER_TYPE + 3;
    morpheus_appia::reset_thread_scratch();
    let mut events = Vec::with_capacity(EVENTS);
    events.extend((0..EVENTS as u64).map(|n| Event::down(Ping { n })));
    // The list keeps `FREE_BOXES_PER_TYPE` of the boxes and frees the rest.
    events.clear();

    let before = allocations();
    events.extend((0..EVENTS as u64).map(|n| Event::down(Ping { n })));
    assert_eq!(
        allocations() - before,
        3,
        "{EVENTS} events after {EVENTS} drops: {FREE_BOXES_PER_TYPE} spare boxes, 3 new ones"
    );
}
