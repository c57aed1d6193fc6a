//! Typed events flowing through a channel's session stack.
//!
//! Events are the only way sessions communicate with each other. Each event
//! carries a direction ([`Direction::Up`] towards the application or
//! [`Direction::Down`] towards the network) and a typed payload implementing
//! [`EventPayload`]. Layers declare the payload types they are interested in
//! ([`EventSpec`]) and the channel routes each event only through the
//! interested sessions, caching the computed route per payload type.
//!
//! Payloads that must cross the network additionally implement [`Sendable`]:
//! they carry a [`SendHeader`] (source, destination, accounting class) and a
//! [`crate::message::Message`] holding the application payload and the
//! headers pushed by each layer.
//!
//! A payload lives in a box, and the box outlives the payload: every type
//! declared with [`crate::internal_event!`] or [`crate::sendable_event!`]
//! keeps a per-thread free list of up to [`FREE_BOXES_PER_TYPE`] boxes.
//! Dropping an [`Event`] gives its box back to the list of its type, and
//! [`Event::new`] or a wire factory takes one from it, so a kernel in steady
//! state creates events without touching the allocator. The simulator runs
//! every node's kernel on one thread, so one list serves them all.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::fmt;

use crate::message::Message;
use crate::platform::{NodeId, PacketClass};
use crate::wire::{narrow, Wire, WireError, WireReader, WireWriter};

/// Direction of travel of an event inside a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards the application (from the network upward).
    Up,
    /// Towards the network (from the application downward).
    Down,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Self {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }
}

/// Broad categories of events, usable in accept specifications so a layer can
/// subscribe to a whole family of payload types at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Events that can be transmitted over the network.
    Sendable,
    /// Channel lifecycle events (init / close).
    ChannelLifecycle,
    /// Timer expirations.
    Timer,
    /// Internal coordination events that never leave the node.
    Internal,
}

/// What payload types a layer wants to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSpec {
    /// A specific concrete payload type.
    Type(TypeId),
    /// Every payload declaring the given category.
    Category(Category),
    /// Every event flowing through the channel.
    All,
}

impl EventSpec {
    /// Convenience constructor for a concrete payload type.
    pub fn of<T: EventPayload>() -> Self {
        EventSpec::Type(TypeId::of::<T>())
    }

    /// Whether a payload matches this specification.
    pub fn matches(&self, payload: &dyn EventPayload) -> bool {
        match self {
            EventSpec::Type(type_id) => payload.as_any().type_id() == *type_id,
            EventSpec::Category(category) => payload.categories().contains(category),
            EventSpec::All => true,
        }
    }
}

/// Addressing of a sendable event before it reaches the network driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dest {
    /// A single destination node.
    Node(NodeId),
    /// An explicit list of destination nodes (one point-to-point packet each).
    Nodes(Vec<NodeId>),
    /// The whole group; a multicast layer is expected to resolve this into
    /// point-to-point sends, a relay or native multicast before the event
    /// reaches the network driver.
    Group,
}

impl Dest {
    /// Number of point-to-point transmissions this destination implies, if
    /// already resolved.
    pub fn fanout(&self) -> Option<usize> {
        match self {
            Dest::Node(_) => Some(1),
            Dest::Nodes(nodes) => Some(nodes.len()),
            Dest::Group => None,
        }
    }
}

/// Header shared by every sendable event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendHeader {
    /// The originating node.
    pub source: NodeId,
    /// Where the event should be delivered.
    pub dest: Dest,
    /// Accounting class of the resulting packets.
    pub class: PacketClass,
}

impl SendHeader {
    /// Creates a header for a group-addressed event.
    pub fn to_group(source: NodeId, class: PacketClass) -> Self {
        Self {
            source,
            dest: Dest::Group,
            class,
        }
    }

    /// Creates a header addressed to a single node.
    pub fn to_node(source: NodeId, dest: NodeId, class: PacketClass) -> Self {
        Self {
            source,
            dest: Dest::Node(dest),
            class,
        }
    }
}

/// Wire representation of a [`SendHeader`]. Only the information the remote
/// side needs is serialised: the source, as a varint, and the accounting
/// class. The destination is implicit in the packet addressing.
impl Wire for SendHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.source.into());
        self.class.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let source = narrow(r.get_varint()?)?;
        let class = PacketClass::decode(r)?;
        Ok(Self {
            source,
            dest: Dest::Group,
            class,
        })
    }
}

/// Behaviour shared by payloads that can be serialised onto the network.
pub trait Sendable: EventPayload {
    /// The addressing and accounting header.
    fn header(&self) -> &SendHeader;

    /// Mutable access to the addressing and accounting header.
    fn header_mut(&mut self) -> &mut SendHeader;

    /// The carried message (payload plus layer headers).
    fn message(&self) -> &Message;

    /// Mutable access to the carried message.
    fn message_mut(&mut self) -> &mut Message;

    /// The payload type's name, for logs and diagnostics; the wire carries
    /// its [`Sendable::wire_tag`].
    fn wire_name(&self) -> &'static str {
        self.type_name()
    }

    /// The 16-bit tag that stands for the payload type on the wire
    /// ([`crate::registry::wire_tag`] of its name), by which the receiving
    /// node finds the factory that rebuilds it.
    fn wire_tag(&self) -> u16;
}

/// A typed event payload.
pub trait EventPayload: Any + fmt::Debug {
    /// Human-readable, unique name of the payload type.
    fn type_name(&self) -> &'static str;

    /// Categories this payload belongs to.
    fn categories(&self) -> &'static [Category] {
        &[]
    }

    /// Upcast to [`Any`] for downcasting to the concrete type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast to [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Consuming upcast to [`Any`], used to recover the concrete type.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// Returns the sendable view of the payload, if it is sendable.
    fn as_sendable(&self) -> Option<&dyn Sendable> {
        None
    }

    /// Returns the mutable sendable view of the payload, if it is sendable.
    fn as_sendable_mut(&mut self) -> Option<&mut dyn Sendable> {
        None
    }

    /// Boxes the payload. Types declared with the event macros reuse a box
    /// from their free list ([`FreeBoxes::take`]).
    fn boxed(self) -> Box<dyn EventPayload>
    where
        Self: Sized,
    {
        Box::new(self)
    }

    /// Disposes of a payload whose event was dropped. Types declared with
    /// the event macros give the box back to their free list
    /// ([`FreeBoxes::give`]).
    fn recycle(self: Box<Self>) {}
}

/// Boxes each payload type keeps for reuse, per thread; a box dropped
/// while its type's list is full is freed. One list serves every kernel on
/// the thread, so idle memory does not grow with the number of simulated
/// nodes. The bound covers the largest burst one kernel holds at once: a
/// node decodes every packet of an instant before it handles any, and the
/// answers to its two gossip repair pulls, up to twice the repair window
/// (64) of pushes each, can arrive in one instant: 256 boxes. With room
/// for 128, `fanin_lossy` allocated 14,943 repair-push boxes in its
/// measured window; with 256, one list's worth.
pub const FREE_BOXES_PER_TYPE: usize = 256;

/// A payload type with a per-thread free list of its boxes. The event
/// macros implement it over a `thread_local!` declared next to the type, so
/// taking a box is neither a map lookup nor a downcast.
pub trait PooledPayload: EventPayload + Sized {
    /// Runs `f` on this thread's free list of the type, unless the thread
    /// is being torn down.
    fn with_free_boxes<R>(f: impl FnOnce(&FreeBoxes<Self>) -> R) -> Option<R>;
}

/// A per-thread free list of one payload type's boxes.
///
/// The list allocates its full [`FREE_BOXES_PER_TYPE`] slots the first time
/// it is given a box, and never grows after that. A box on the list still
/// holds its last payload, so [`EventPayload::recycle`] must first empty
/// anything that could pin a packet buffer — `sendable_event!` replaces the
/// message with an empty one.
pub struct FreeBoxes<T>(RefCell<Vec<Box<T>>>);

impl<T> FreeBoxes<T> {
    /// An empty list that has allocated nothing.
    pub const fn new() -> Self {
        Self(RefCell::new(Vec::new()))
    }
}

impl<T> Default for FreeBoxes<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PooledPayload> FreeBoxes<T> {
    /// Boxes `value`, in a box from its type's list if the list has one.
    pub fn take(value: T) -> Box<dyn EventPayload> {
        match T::with_free_boxes(|list| list.0.borrow_mut().pop()).flatten() {
            Some(mut spare) => {
                *spare = value;
                spare
            }
            None => Box::new(value),
        }
    }

    /// Keeps `spare` on its type's list for the next [`FreeBoxes::take`],
    /// or frees it if the list is full.
    pub fn give(spare: Box<T>) {
        // A box the list turns away is dropped after the borrow ends: its
        // payload's own drop may give boxes back.
        let _rejected = T::with_free_boxes(|list| {
            let mut boxes = list.0.borrow_mut();
            if boxes.capacity() == 0 {
                boxes.reserve_exact(FREE_BOXES_PER_TYPE);
                let _ = FREE_LISTS.try_with(|lists| lists.borrow_mut().push(Self::empty));
            }
            if boxes.len() < FREE_BOXES_PER_TYPE {
                boxes.push(spare);
                None
            } else {
                Some(spare)
            }
        });
    }

    /// Takes the list back to its state before first use, memory included,
    /// so the next run allocates it again exactly as a fresh thread would.
    fn empty() {
        let _boxes = T::with_free_boxes(|list| std::mem::take(&mut *list.0.borrow_mut()));
    }
}

thread_local! {
    /// How to empty each free list this thread has allocated.
    static FREE_LISTS: RefCell<Vec<fn()>> = const { RefCell::new(Vec::new()) };
}

/// Empties every free list of this thread and frees their memory.
pub(crate) fn reset_free_boxes() {
    let lists = FREE_LISTS.with(|lists| std::mem::take(&mut *lists.borrow_mut()));
    for empty in lists {
        empty();
    }
}

/// What an [`Event`] holds once its payload is taken out. Zero-sized, so
/// boxing it allocates nothing.
#[derive(Debug)]
struct Taken;

impl EventPayload for Taken {
    fn type_name(&self) -> &'static str {
        "Taken"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// An event travelling through a channel.
#[derive(Debug)]
pub struct Event {
    /// Direction of travel.
    pub direction: Direction,
    /// The typed payload.
    pub payload: Box<dyn EventPayload>,
}

impl Event {
    /// Creates an event travelling in the given direction.
    pub fn new(direction: Direction, payload: impl EventPayload) -> Self {
        Self {
            direction,
            payload: payload.boxed(),
        }
    }

    /// Creates an upward-travelling event.
    pub fn up(payload: impl EventPayload) -> Self {
        Self::new(Direction::Up, payload)
    }

    /// Creates a downward-travelling event.
    pub fn down(payload: impl EventPayload) -> Self {
        Self::new(Direction::Down, payload)
    }

    /// Creates an event from an already boxed payload.
    pub fn from_boxed(direction: Direction, payload: Box<dyn EventPayload>) -> Self {
        Self { direction, payload }
    }

    /// Whether the payload is of concrete type `T`.
    pub fn is<T: EventPayload>(&self) -> bool {
        self.payload.as_any().is::<T>()
    }

    /// Borrows the payload as `T` if it has that concrete type.
    pub fn get<T: EventPayload>(&self) -> Option<&T> {
        self.payload.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows the payload as `T` if it has that concrete type.
    pub fn get_mut<T: EventPayload>(&mut self) -> Option<&mut T> {
        self.payload.as_any_mut().downcast_mut::<T>()
    }

    /// Consumes the event and returns the payload as `T`, or gives the event
    /// back unchanged if the payload has a different type.
    pub fn into_payload<T: EventPayload>(mut self) -> Result<(Direction, T), Event> {
        if self.payload.as_any().is::<T>() {
            let concrete: Box<T> = std::mem::replace(&mut self.payload, Box::new(Taken))
                .into_any()
                .downcast()
                .expect("concrete type checked before downcast");
            Ok((self.direction, *concrete))
        } else {
            Err(self)
        }
    }

    /// Gives the carried message, if the payload has one, a buffer of its
    /// own ([`Message::compact`]). A layer calls this before holding an event
    /// back past the one that delivered it.
    pub fn compact(&mut self) {
        if let Some(sendable) = self.payload.as_sendable_mut() {
            let message = sendable.message_mut();
            *message = message.compact();
        }
    }

    /// Name of the payload type.
    pub fn type_name(&self) -> &'static str {
        self.payload.type_name()
    }

    /// Whether the payload is sendable.
    pub fn is_sendable(&self) -> bool {
        self.payload.as_sendable().is_some()
    }
}

impl Drop for Event {
    fn drop(&mut self) {
        std::mem::replace(&mut self.payload, Box::new(Taken)).recycle();
    }
}

/// Declares a non-sendable (node-local) event payload type.
///
/// ```
/// use morpheus_appia::internal_event;
///
/// internal_event! {
///     /// Tells lower layers a new view was installed.
///     pub struct ViewInstalled {
///         pub view_id: u64,
///     }
///     categories: [Internal]
/// }
/// ```
#[macro_export]
macro_rules! internal_event {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident : $ty:ty),* $(,)?
        }
        categories: [$($cat:ident),* $(,)?]
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $($(#[$fmeta])* pub $field : $ty),*
        }

        const _: () = {
            ::std::thread_local! {
                static FREE: $crate::event::FreeBoxes<$name> =
                    const { $crate::event::FreeBoxes::new() };
            }

            impl $crate::event::PooledPayload for $name {
                fn with_free_boxes<R>(
                    f: impl FnOnce(&$crate::event::FreeBoxes<Self>) -> R,
                ) -> Option<R> {
                    FREE.try_with(f).ok()
                }
            }

            impl $crate::event::EventPayload for $name {
                fn type_name(&self) -> &'static str {
                    stringify!($name)
                }

                fn categories(&self) -> &'static [$crate::event::Category] {
                    &[$($crate::event::Category::$cat),*]
                }

                fn as_any(&self) -> &dyn std::any::Any {
                    self
                }

                fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                    self
                }

                fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                    self
                }

                fn boxed(self) -> Box<dyn $crate::event::EventPayload> {
                    $crate::event::FreeBoxes::take(self)
                }

                fn recycle(self: Box<Self>) {
                    $crate::event::FreeBoxes::give(self)
                }
            }
        };
    };
}

/// Declares a sendable event payload type carrying a [`SendHeader`] and a
/// [`Message`], and provides the wire factory used to reconstruct it on the
/// receiving node.
///
/// ```
/// use morpheus_appia::sendable_event;
///
/// sendable_event! {
///     /// A heartbeat used by the failure detector.
///     pub struct Heartbeat, class: Control
/// }
/// ```
#[macro_export]
macro_rules! sendable_event {
    (
        $(#[$meta:meta])*
        pub struct $name:ident, class: $class:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            /// Addressing and accounting header.
            pub header: $crate::event::SendHeader,
            /// Carried message (payload plus layer headers).
            pub message: $crate::message::Message,
        }

        impl $name {
            /// Name of this payload type, for logs and diagnostics.
            pub const WIRE_NAME: &'static str = stringify!($name);

            /// Tag that stands for this payload type on the wire.
            pub const WIRE_TAG: u16 = $crate::registry::wire_tag(Self::WIRE_NAME);

            /// Creates a new event payload with the given addressing.
            pub fn new(
                source: $crate::platform::NodeId,
                dest: $crate::event::Dest,
                message: $crate::message::Message,
            ) -> Self {
                Self {
                    header: $crate::event::SendHeader {
                        source,
                        dest,
                        class: $crate::platform::PacketClass::$class,
                    },
                    message,
                }
            }

            /// Creates a group-addressed event payload.
            pub fn to_group(
                source: $crate::platform::NodeId,
                message: $crate::message::Message,
            ) -> Self {
                Self::new(source, $crate::event::Dest::Group, message)
            }

            /// Registers the wire factory for this payload type.
            pub fn register(factories: &mut $crate::registry::EventFactoryRegistry) {
                factories.register(Self::WIRE_NAME, |header, message| {
                    $crate::event::EventPayload::boxed(Self { header, message })
                });
            }
        }

        const _: () = {
            ::std::thread_local! {
                static FREE: $crate::event::FreeBoxes<$name> =
                    const { $crate::event::FreeBoxes::new() };
            }

            impl $crate::event::PooledPayload for $name {
                fn with_free_boxes<R>(
                    f: impl FnOnce(&$crate::event::FreeBoxes<Self>) -> R,
                ) -> Option<R> {
                    FREE.try_with(f).ok()
                }
            }

            impl $crate::event::EventPayload for $name {
                fn type_name(&self) -> &'static str {
                    Self::WIRE_NAME
                }

                fn categories(&self) -> &'static [$crate::event::Category] {
                    &[$crate::event::Category::Sendable]
                }

                fn as_any(&self) -> &dyn std::any::Any {
                    self
                }

                fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                    self
                }

                fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                    self
                }

                fn as_sendable(&self) -> Option<&dyn $crate::event::Sendable> {
                    Some(self)
                }

                fn as_sendable_mut(&mut self) -> Option<&mut dyn $crate::event::Sendable> {
                    Some(self)
                }

                fn boxed(self) -> Box<dyn $crate::event::EventPayload> {
                    $crate::event::FreeBoxes::take(self)
                }

                fn recycle(mut self: Box<Self>) {
                    // A box on the free list must not pin the packet buffer its
                    // message was sliced from, nor keep a destination list.
                    self.message = $crate::message::Message::new();
                    self.header.dest = $crate::event::Dest::Group;
                    $crate::event::FreeBoxes::give(self)
                }
            }

            impl $crate::event::Sendable for $name {
                fn header(&self) -> &$crate::event::SendHeader {
                    &self.header
                }

                fn header_mut(&mut self) -> &mut $crate::event::SendHeader {
                    &mut self.header
                }

                fn message(&self) -> &$crate::message::Message {
                    &self.message
                }

                fn message_mut(&mut self) -> &mut $crate::message::Message {
                    &mut self.message
                }

                fn wire_tag(&self) -> u16 {
                    Self::WIRE_TAG
                }
            }
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ChannelInit, DataEvent};

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Up.reverse(), Direction::Down);
        assert_eq!(Direction::Down.reverse(), Direction::Up);
    }

    #[test]
    fn event_downcasting() {
        let event = Event::down(DataEvent::to_group(
            NodeId(1),
            Message::with_payload(&b"x"[..]),
        ));
        assert!(event.is::<DataEvent>());
        assert!(!event.is::<ChannelInit>());
        assert!(event.get::<DataEvent>().is_some());
        assert!(event.is_sendable());
        assert_eq!(event.type_name(), "DataEvent");
    }

    #[test]
    fn event_into_payload_success_and_failure() {
        let event = Event::down(DataEvent::to_group(NodeId(1), Message::new()));
        let (direction, data) = event.into_payload::<DataEvent>().unwrap();
        assert_eq!(direction, Direction::Down);
        assert_eq!(data.header.source, NodeId(1));

        let event = Event::up(ChannelInit {});
        assert!(event.into_payload::<DataEvent>().is_err());
    }

    #[test]
    fn event_spec_matching() {
        let data = DataEvent::to_group(NodeId(1), Message::new());
        let init = ChannelInit {};

        assert!(EventSpec::of::<DataEvent>().matches(&data));
        assert!(!EventSpec::of::<DataEvent>().matches(&init));
        assert!(EventSpec::Category(Category::Sendable).matches(&data));
        assert!(!EventSpec::Category(Category::Sendable).matches(&init));
        assert!(EventSpec::All.matches(&data));
        assert!(EventSpec::All.matches(&init));
    }

    /// A box on a free list keeps its last payload until it is reused. A
    /// decoded message is a slice of its packet, so `recycle` must empty it:
    /// otherwise the pooled box pins the packet buffer, and the buffer
    /// cannot be rewound when it runs out.
    #[test]
    fn a_pooled_box_does_not_pin_the_packet_it_was_decoded_from() {
        use crate::registry::{decode_event, encode_event_into, EventFactoryRegistry};
        use crate::wire::WireWriter;

        crate::reset_thread_scratch();
        let mut factories = EventFactoryRegistry::new();
        DataEvent::register(&mut factories);
        let mut scratch = WireWriter::with_capacity(256);
        let payload = Message::with_payload(&b"a slice of the packet"[..]);
        let sent = DataEvent::new(NodeId(2), Dest::Node(NodeId(1)), payload);
        let packet = encode_event_into(&mut scratch, &sent);
        let buffer_start = packet.as_ptr() as usize;

        let received = Event::from_boxed(Direction::Up, decode_event(&factories, &packet).unwrap());
        drop(packet);
        drop(received);

        // Nothing views the buffer any more, so a full-size reserve rewinds it.
        scratch.reserve(256);
        scratch.put_u8(0);
        let next = scratch.split_frame();
        assert_eq!(
            next.as_ptr() as usize,
            buffer_start,
            "the pooled DataEvent box still holds a slice of the packet"
        );
    }

    #[test]
    fn dest_fanout() {
        assert_eq!(Dest::Node(NodeId(1)).fanout(), Some(1));
        assert_eq!(Dest::Nodes(vec![NodeId(1), NodeId(2)]).fanout(), Some(2));
        assert_eq!(Dest::Group.fanout(), None);
    }

    #[test]
    fn send_header_wire_roundtrip_keeps_source_and_class() {
        let header = SendHeader::to_node(NodeId(3), NodeId(9), PacketClass::Control);
        let bytes = header.to_bytes();
        let decoded = SendHeader::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.source, NodeId(3));
        assert_eq!(decoded.class, PacketClass::Control);
        assert_eq!(decoded.dest, Dest::Group);
    }
}
