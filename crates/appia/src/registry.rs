//! Registries mapping names to layers and to wire-level event factories.
//!
//! Channel descriptions refer to layers by name; packets refer to event
//! payload types by name. Both registries are populated at start-up (the
//! group communication suite registers its layers and events) and used by the
//! kernel when instantiating channels and when reconstructing events received
//! from the network.

use bytes::Bytes;

use crate::error::{AppiaError, Result};
use crate::event::{EventPayload, SendHeader, Sendable};
use crate::hash::HashMap;
use crate::layer::{Layer, LayerRef};
use crate::message::Message;
use crate::wire::{Wire, WireReader, WireWriter};

/// Maps layer names to layer descriptions.
#[derive(Default)]
pub struct LayerRegistry {
    layers: HashMap<String, LayerRef>,
}

impl LayerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a layer under its own name, replacing any previous entry.
    pub fn register(&mut self, layer: impl Layer + 'static) {
        self.register_ref(std::rc::Rc::new(layer));
    }

    /// Registers an already shared layer reference.
    pub fn register_ref(&mut self, layer: LayerRef) {
        self.layers.insert(layer.name().to_string(), layer);
    }

    /// Looks a layer up by name.
    pub fn get(&self, name: &str) -> Result<LayerRef> {
        self.layers
            .get(name)
            .cloned()
            .ok_or_else(|| AppiaError::UnknownLayer(name.to_string()))
    }

    /// Whether a layer with the given name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.layers.contains_key(name)
    }

    /// Names of all registered layers, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.layers.keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for LayerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerRegistry")
            .field("layers", &self.names())
            .finish()
    }
}

/// Constructor taking the decoded send header and message and producing the
/// typed payload.
pub type EventFactory = fn(SendHeader, Message) -> Box<dyn EventPayload>;

/// The 16-bit tag a packet carries in place of its event type's name: the
/// 32-bit FNV-1a hash of the name, its two halves folded together by XOR.
/// `sendable_event!` evaluates it at compile time (`WIRE_TAG`), and
/// [`EventFactoryRegistry::register`] refuses a second name with a tag
/// already taken.
pub const fn wire_tag(name: &str) -> u16 {
    const FNV_OFFSET: u32 = 0x811c_9dc5;
    const FNV_PRIME: u32 = 0x0100_0193;
    let bytes = name.as_bytes();
    let mut hash = FNV_OFFSET;
    let mut at = 0;
    while at < bytes.len() {
        hash = (hash ^ bytes[at] as u32).wrapping_mul(FNV_PRIME);
        at += 1;
    }
    ((hash >> 16) ^ (hash & 0xffff)) as u16
}

/// One registered sendable event type.
struct FactoryEntry {
    tag: u16,
    name: &'static str,
    factory: EventFactory,
}

/// Maps the wire tags of sendable event types to their names and factories:
/// one table, sorted by tag, searched by tag on every received packet.
#[derive(Default)]
pub struct EventFactoryRegistry {
    entries: Vec<FactoryEntry>,
}

impl EventFactoryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory under the name's [`wire_tag`], replacing an
    /// earlier registration of the same name.
    ///
    /// # Panics
    ///
    /// If a different name already holds the tag: packets of the two types
    /// could not be told apart, so one of them must be renamed. Every
    /// registration happens when a node is built, so a collision stops the
    /// program before a single packet is sent.
    pub fn register(&mut self, name: &'static str, factory: EventFactory) {
        let entry = FactoryEntry {
            tag: wire_tag(name),
            name,
            factory,
        };
        let at = self
            .entries
            .binary_search_by_key(&entry.tag, |taken| taken.tag);
        match at {
            Ok(at) => {
                let taken = &mut self.entries[at];
                assert_eq!(
                    taken.name, name,
                    "event types `{}` and `{name}` share the wire tag {:#06x}; rename one",
                    taken.name, entry.tag
                );
                *taken = entry;
            }
            Err(at) => self.entries.insert(at, entry),
        }
    }

    fn entry(&self, tag: u16) -> Option<&FactoryEntry> {
        let at = self.entries.binary_search_by_key(&tag, |entry| entry.tag);
        at.ok().and_then(|at| self.entries.get(at))
    }

    /// Whether a factory is registered under the given name.
    pub fn contains(&self, name: &str) -> bool {
        self.entry(wire_tag(name))
            .is_some_and(|entry| entry.name == name)
    }

    /// The factory registered under a wire tag.
    pub fn factory(&self, tag: u16) -> Result<EventFactory> {
        self.entry(tag)
            .map(|entry| entry.factory)
            .ok_or(AppiaError::UnknownEventType(tag))
    }

    /// The name registered under a wire tag.
    pub fn name(&self, tag: u16) -> Option<&'static str> {
        self.entry(tag).map(|entry| entry.name)
    }

    /// Names of all registered event types, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.entries.iter().map(|entry| entry.name).collect();
        names.sort_unstable();
        names
    }
}

impl std::fmt::Debug for EventFactoryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventFactoryRegistry")
            .field("events", &self.names())
            .finish()
    }
}

/// Room for a frame's envelope: the 2-byte tag and the send header, a
/// varint source (5 bytes at most) and the class byte.
const ENVELOPE_RESERVE: usize = 8;

/// Serialises a sendable event into the byte form carried by a packet:
/// `[wire tag][send header][message]`.
pub fn encode_event(event: &dyn Sendable) -> Bytes {
    let mut w = WireWriter::with_capacity(ENVELOPE_RESERVE + event.message().encoded_len());
    encode_event_body(&mut w, event);
    w.finish()
}

/// Serialises a sendable event into a reusable scratch writer, returning the
/// packet bytes as a split-off frame.
///
/// Unlike [`encode_event`] this does not allocate a fresh buffer per packet:
/// the scratch allocation is recycled once the packets split from it have
/// been consumed, which makes steady-state serialisation allocation-free.
/// The kernel owns one scratch writer and exposes this path to the network
/// driver through [`crate::kernel::EventContext::encode_sendable`].
pub fn encode_event_into(scratch: &mut WireWriter, event: &dyn Sendable) -> Bytes {
    // The whole frame is reserved up front, so no `put_*` below re-reserves
    // mid-frame (which would copy the partial frame into a fresh chunk).
    scratch.reserve(ENVELOPE_RESERVE + event.message().encoded_len());
    encode_event_body(scratch, event);
    scratch.split_frame()
}

/// The wire tag of a packet [`encode_event`] produced: its first two bytes,
/// big-endian. `None` for a packet shorter than that.
pub fn packet_tag(packet: &[u8]) -> Option<u16> {
    match packet {
        [high, low, ..] => Some(u16::from_be_bytes([*high, *low])),
        _ => None,
    }
}

fn encode_event_body(w: &mut WireWriter, event: &dyn Sendable) {
    w.put_u16(event.wire_tag());
    event.header().encode(w);
    event.message().encode(w);
}

/// Decodes the byte form produced by [`encode_event`] back into a typed
/// payload, using the factory registered for its wire tag.
///
/// Zero-copy: the tag is looked up in the registry's sorted table, with no
/// string to hash or validate, and the message's headers and payload are
/// slices of `payload`. The factory takes the payload's box from its type's
/// free list, so nothing allocates unless that list is empty.
pub fn decode_event(
    factories: &EventFactoryRegistry,
    payload: &Bytes,
) -> Result<Box<dyn EventPayload>> {
    let mut r = WireReader::over(payload);
    let tag = r.get_u16()?;
    let header = SendHeader::decode(&mut r)?;
    let message = Message::decode(&mut r)?;
    Ok(factories.factory(tag)?(header, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Dest;
    use crate::events::DataEvent;
    use crate::platform::{NodeId, PacketClass};

    #[test]
    fn event_factory_roundtrip() {
        let mut factories = EventFactoryRegistry::new();
        DataEvent::register(&mut factories);
        assert!(factories.contains("DataEvent"));
        assert!(!factories.contains("Nope"));

        let mut message = Message::with_payload(&b"payload"[..]);
        message.push(&77u64);
        let event = DataEvent::new(NodeId(3), Dest::Node(NodeId(5)), message);

        let bytes = encode_event(&event);
        assert_eq!(packet_tag(&bytes), Some(wire_tag("DataEvent")));
        assert_eq!(factories.name(wire_tag("DataEvent")), Some("DataEvent"));
        assert_eq!(factories.name(wire_tag("Nope")), None);
        assert_eq!(packet_tag(&bytes[..1]), None);
        let decoded = decode_event(&factories, &bytes).unwrap();
        let data = decoded.as_any().downcast_ref::<DataEvent>().unwrap();
        assert_eq!(data.header.source, NodeId(3));
        assert_eq!(data.header.class, PacketClass::Data);
        assert_eq!(data.message.payload().as_ref(), b"payload");
        assert_eq!(data.message.peek::<u64>().unwrap(), 77);
    }

    #[test]
    fn unknown_event_type_is_reported() {
        let factories = EventFactoryRegistry::new();
        let event = DataEvent::to_group(NodeId(1), Message::new());
        let bytes = encode_event(&event);
        let err = decode_event(&factories, &bytes).unwrap_err();
        assert_eq!(err, AppiaError::UnknownEventType(DataEvent::WIRE_TAG));
        // The tag is the frame's first two bytes, and all that names the type.
        assert_eq!(bytes.get(..2), Some(&DataEvent::WIRE_TAG.to_be_bytes()[..]));
        assert!(!bytes.windows(9).any(|window| window == b"DataEvent"));
    }

    #[test]
    fn wire_tags_fold_the_fnv1a_hash_of_the_name() {
        // FNV-1a of the empty string is the offset basis, 0x811c9dc5.
        assert_eq!(wire_tag(""), 0x811c ^ 0x9dc5);
        // FNV-1a("a") = 0xe40c292c.
        assert_eq!(wire_tag("a"), 0xe40c ^ 0x292c);
        assert_eq!(DataEvent::WIRE_TAG, wire_tag("DataEvent"));
    }

    fn dummy_factory(header: SendHeader, message: Message) -> Box<dyn EventPayload> {
        crate::event::EventPayload::boxed(DataEvent { header, message })
    }

    #[test]
    fn registering_a_name_again_replaces_it() {
        let mut factories = EventFactoryRegistry::new();
        DataEvent::register(&mut factories);
        factories.register("DataEvent", dummy_factory);
        assert_eq!(factories.names(), vec!["DataEvent"]);
        assert!(factories.factory(DataEvent::WIRE_TAG).is_ok());
    }

    #[test]
    #[should_panic(expected = "share the wire tag")]
    fn a_tag_collision_between_two_names_is_refused_at_registration() {
        // Two names whose tags collide, found by search.
        let (first, second) = ("Event90", "Event230");
        assert_eq!(wire_tag(first), wire_tag(second));
        let mut factories = EventFactoryRegistry::new();
        factories.register(first, dummy_factory);
        factories.register(second, dummy_factory);
    }

    #[test]
    fn corrupted_packet_is_rejected() {
        let mut factories = EventFactoryRegistry::new();
        DataEvent::register(&mut factories);
        let err = decode_event(&factories, &Bytes::from_static(&[0xFF, 0x01])).unwrap_err();
        assert!(matches!(err, AppiaError::Wire(_)));
    }
}
