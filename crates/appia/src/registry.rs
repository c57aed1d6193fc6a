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

/// Maps wire names of sendable event types to their factories.
#[derive(Default)]
pub struct EventFactoryRegistry {
    factories: HashMap<&'static str, EventFactory>,
}

impl EventFactoryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory for the given wire name.
    pub fn register(&mut self, name: &'static str, factory: EventFactory) {
        self.factories.insert(name, factory);
    }

    /// Whether a factory exists for the given wire name.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Reconstructs a payload of the named type.
    pub fn create(
        &self,
        name: &str,
        header: SendHeader,
        message: Message,
    ) -> Result<Box<dyn EventPayload>> {
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| AppiaError::UnknownEventType(name.to_string()))?;
        Ok(factory(header, message))
    }

    /// Names of all registered event types, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.factories.keys().copied().collect();
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

/// Room for the wire name (length-prefixed) and the send header of a frame;
/// event names in the suite stay well under 50 bytes.
const ENVELOPE_RESERVE: usize = 64;

/// Serialises a sendable event into the byte form carried by a packet:
/// `[wire name][send header][message]`.
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

fn encode_event_body(w: &mut WireWriter, event: &dyn Sendable) {
    w.put_str(event.wire_name());
    event.header().encode(w);
    event.message().encode(w);
}

/// Decodes the byte form produced by [`encode_event`] back into a typed
/// payload, using the factory registered for its wire name.
///
/// Zero-copy: the wire name is matched in place and the message's headers
/// and payload are slices of `payload`. The factory takes the payload's box
/// from its type's free list, so nothing allocates unless that list is
/// empty.
pub fn decode_event(
    factories: &EventFactoryRegistry,
    payload: &Bytes,
) -> Result<Box<dyn EventPayload>> {
    let mut r = WireReader::over(payload);
    let name = r.get_str_ref()?;
    let header = SendHeader::decode(&mut r)?;
    let message = Message::decode(&mut r)?;
    factories.create(name, header, message)
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
        assert!(matches!(err, AppiaError::UnknownEventType(name) if name == "DataEvent"));
    }

    #[test]
    fn corrupted_packet_is_rejected() {
        let mut factories = EventFactoryRegistry::new();
        DataEvent::register(&mut factories);
        let err = decode_event(&factories, &Bytes::from_static(&[0xFF, 0x01])).unwrap_err();
        assert!(matches!(err, AppiaError::Wire(_)));
    }
}
