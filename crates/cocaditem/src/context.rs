//! Context attributes and snapshots.

use morpheus_appia::platform::{DeviceClass, NodeId, NodeProfile};
use morpheus_appia::wire::{narrow, Wire, WireError, WireReader, WireWriter};
use serde::{Deserialize, Serialize};

use crate::retriever::default_retrievers;

/// The context attributes the prototype captures.
///
/// These mirror the paper's notion of *system context*: "information that can
/// be directly inferred from network interface cards or operating system
/// calls", such as available bandwidth or error rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ContextKey {
    /// The device class (fixed PC, laptop, PDA, phone).
    DeviceClass,
    /// Remaining battery fraction in `[0, 1]`.
    BatteryLevel,
    /// Link quality in `[0, 1]`.
    LinkQuality,
    /// Nominal bandwidth of the local link in kbit/s.
    BandwidthKbps,
    /// Observed message loss rate in `[0, 1]`.
    ErrorRate,
    /// Whether native multicast is available on the local segment.
    NativeMulticast,
}

impl ContextKey {
    /// Every key, in wire-tag order.
    pub const ALL: [ContextKey; 6] = [
        ContextKey::DeviceClass,
        ContextKey::BatteryLevel,
        ContextKey::LinkQuality,
        ContextKey::BandwidthKbps,
        ContextKey::ErrorRate,
        ContextKey::NativeMulticast,
    ];

    /// The keys another node reads, and so the only ones a node publishes,
    /// forwards, batches and stores for its peers. Two readers look at a
    /// remote node's snapshot, and both read these two keys and nothing
    /// else: the adaptation policy's `GlobalContext::{is_hybrid,
    /// best_relay, max_error_rate}` (`morpheus-core`'s `policy.rs`) and
    /// [`crate::room::RoomContext::from_store`]. Battery, link quality,
    /// bandwidth and native multicast are read only on the node that sampled
    /// them.
    pub const SHARED: [ContextKey; 2] = [ContextKey::DeviceClass, ContextKey::ErrorRate];

    /// The pub/sub topic name the key is published under.
    pub fn topic_name(self) -> &'static str {
        match self {
            ContextKey::DeviceClass => "context.device",
            ContextKey::BatteryLevel => "context.battery",
            ContextKey::LinkQuality => "context.link.quality",
            ContextKey::BandwidthKbps => "context.link.bandwidth",
            ContextKey::ErrorRate => "context.link.error-rate",
            ContextKey::NativeMulticast => "context.link.native-multicast",
        }
    }

    fn tag(self) -> u8 {
        match self {
            ContextKey::DeviceClass => 0,
            ContextKey::BatteryLevel => 1,
            ContextKey::LinkQuality => 2,
            ContextKey::BandwidthKbps => 3,
            ContextKey::ErrorRate => 4,
            ContextKey::NativeMulticast => 5,
        }
    }

    /// The key's slot in a [`ContextSnapshot`]: its wire tag.
    fn slot(self) -> usize {
        usize::from(self.tag())
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => ContextKey::DeviceClass,
            1 => ContextKey::BatteryLevel,
            2 => ContextKey::LinkQuality,
            3 => ContextKey::BandwidthKbps,
            4 => ContextKey::ErrorRate,
            5 => ContextKey::NativeMulticast,
            other => return Err(WireError::InvalidTag(other)),
        })
    }
}

impl Wire for ContextKey {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        ContextKey::from_tag(r.get_u8()?)
    }
}

/// The value of a context attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ContextValue {
    /// A numeric value.
    Number(f64),
    /// A boolean flag.
    Flag(bool),
    /// A device class.
    Device(DeviceClass),
}

impl ContextValue {
    /// The numeric value, if the attribute is numeric.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            ContextValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The boolean value, if the attribute is a flag.
    pub fn as_flag(&self) -> Option<bool> {
        match self {
            ContextValue::Flag(value) => Some(*value),
            _ => None,
        }
    }

    /// The device class, if the attribute is one.
    pub fn as_device(&self) -> Option<DeviceClass> {
        match self {
            ContextValue::Device(class) => Some(*class),
            _ => None,
        }
    }
}

impl Wire for ContextValue {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ContextValue::Number(value) => {
                w.put_u8(0);
                w.put_f64(*value);
            }
            ContextValue::Flag(value) => {
                w.put_u8(1);
                w.put_bool(*value);
            }
            ContextValue::Device(class) => {
                w.put_u8(2);
                class.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => ContextValue::Number(r.get_f64()?),
            1 => ContextValue::Flag(r.get_bool()?),
            2 => ContextValue::Device(DeviceClass::decode(r)?),
            other => return Err(WireError::InvalidTag(other)),
        })
    }
}

/// The context of one node at one point in time: at most one value per
/// [`ContextKey`], held inline, so a snapshot owns no heap memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextSnapshot {
    /// The node the snapshot describes.
    pub node: NodeId,
    /// Local time at which it was captured, in milliseconds.
    pub captured_at_ms: u64,
    /// The captured attributes, one slot per key, indexed by its wire tag.
    values: [Option<ContextValue>; ContextKey::ALL.len()],
}

impl ContextSnapshot {
    /// The fewest bytes a snapshot encodes to: a one-byte varint each for
    /// the node, the capture time and an entry count of zero.
    pub const MIN_ENCODED_BYTES: usize = 3;

    /// Creates an empty snapshot.
    pub fn new(node: NodeId, captured_at_ms: u64) -> Self {
        Self {
            node,
            captured_at_ms,
            values: Default::default(),
        }
    }

    /// Builds a snapshot directly from a node profile: what the
    /// [`default_retrievers`] sample from it.
    pub fn from_profile(profile: &NodeProfile, captured_at_ms: u64) -> Self {
        let mut snapshot = Self::new(profile.node_id, captured_at_ms);
        for retriever in default_retrievers() {
            retriever.retrieve(profile, &mut snapshot);
        }
        snapshot
    }

    /// The snapshot restricted to [`ContextKey::SHARED`]: what the node
    /// publishes of this sample.
    pub fn shared(&self) -> Self {
        let mut shared = Self::new(self.node, self.captured_at_ms);
        for key in ContextKey::SHARED {
            shared.values[key.slot()].clone_from(&self.values[key.slot()]);
        }
        shared
    }

    /// Sets one attribute, replacing any earlier value of the key.
    pub fn set(&mut self, key: ContextKey, value: ContextValue) {
        self.values[key.slot()] = Some(value);
    }

    /// Reads one attribute.
    pub fn get(&self, key: ContextKey) -> Option<&ContextValue> {
        self.values[key.slot()].as_ref()
    }

    /// Every captured attribute, in key (and wire-tag) order.
    pub fn entries(&self) -> impl Iterator<Item = (ContextKey, &ContextValue)> {
        ContextKey::ALL
            .into_iter()
            .zip(&self.values)
            .filter_map(|(key, value)| Some((key, value.as_ref()?)))
    }

    /// The device class, if captured.
    pub fn device_class(&self) -> Option<DeviceClass> {
        self.get(ContextKey::DeviceClass)
            .and_then(ContextValue::as_device)
    }

    /// The battery level, if captured.
    pub fn battery_level(&self) -> Option<f64> {
        self.get(ContextKey::BatteryLevel)
            .and_then(ContextValue::as_number)
    }

    /// The observed error rate, if captured.
    pub fn error_rate(&self) -> Option<f64> {
        self.get(ContextKey::ErrorRate)
            .and_then(ContextValue::as_number)
    }

    /// Whether the node is a mobile device, if the class was captured.
    pub fn is_mobile(&self) -> Option<bool> {
        self.device_class().map(DeviceClass::is_mobile)
    }
}

/// The node, the capture time and the entry count are varints (a published
/// snapshot at n = 200 is about 19 bytes); values stay exact `f64`s, so a
/// reader sees bit-identical numbers. Entries go in key order; a frame that
/// repeats a key decodes to the last of its values.
impl Wire for ContextSnapshot {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.node.into());
        w.put_varint(self.captured_at_ms);
        w.put_varint(self.entries().count() as u64);
        for (key, value) in self.entries() {
            key.encode(w);
            value.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let node = NodeId(narrow(r.get_varint()?)?);
        let captured_at_ms = r.get_varint()?;
        // An adversarial count cannot claim more entries than the remaining
        // bytes could possibly hold (every entry is at least one key byte
        // plus one value-tag byte): reject it up front instead of looping
        // until the reader runs dry.
        let count = r.get_count(2)?;
        let mut snapshot = Self::new(node, captured_at_ms);
        for _ in 0..count {
            let key = ContextKey::decode(r)?;
            snapshot.set(key, ContextValue::decode(r)?);
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_from_profile_captures_every_key() {
        let profile = NodeProfile::mobile_pda(NodeId(3));
        let snapshot = ContextSnapshot::from_profile(&profile, 42);
        assert_eq!(snapshot.node, NodeId(3));
        assert_eq!(snapshot.captured_at_ms, 42);
        for key in ContextKey::ALL {
            assert!(snapshot.get(key).is_some(), "missing {key:?}");
        }
        assert_eq!(snapshot.device_class(), Some(DeviceClass::MobilePda));
        assert_eq!(snapshot.is_mobile(), Some(true));
        assert_eq!(snapshot.battery_level(), Some(1.0));
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let profile = NodeProfile::fixed_pc(NodeId(1));
        let snapshot = ContextSnapshot::from_profile(&profile, 100);
        let decoded = ContextSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn value_accessors_are_type_checked() {
        assert_eq!(ContextValue::Number(0.5).as_number(), Some(0.5));
        assert_eq!(ContextValue::Number(0.5).as_flag(), None);
        assert_eq!(ContextValue::Flag(true).as_flag(), Some(true));
        assert_eq!(
            ContextValue::Device(DeviceClass::FixedPc).as_device(),
            Some(DeviceClass::FixedPc)
        );
        assert_eq!(ContextValue::Device(DeviceClass::FixedPc).as_number(), None);
    }

    #[test]
    fn adversarial_entry_counts_are_rejected() {
        // A snapshot whose count field claims u32::MAX entries over an
        // almost-empty payload must fail fast instead of looping.
        let mut w = WireWriter::new();
        w.put_varint(3); // node id
        w.put_varint(42); // captured_at_ms
        w.put_varint(u64::from(u32::MAX)); // hostile count
        w.put_raw(&[0, 0]); // two stray bytes
        assert!(ContextSnapshot::from_bytes(&w.finish()).is_err());

        // A count that overstates the (non-empty) payload is also rejected.
        let profile = NodeProfile::fixed_pc(NodeId(1));
        let valid = ContextSnapshot::from_profile(&profile, 7).to_bytes();
        let mut inflated = valid.to_vec();
        // The count sits after the one-byte node id and timestamp; a
        // one-byte varint of 127 is far more than the entries left.
        assert_eq!(inflated[2], 6, "six entries");
        inflated[2] = 127;
        assert!(ContextSnapshot::from_bytes(&inflated).is_err());
    }

    #[test]
    fn truncated_snapshots_fail_cleanly() {
        let profile = NodeProfile::mobile_pda(NodeId(2));
        let valid = ContextSnapshot::from_profile(&profile, 9).to_bytes();
        for len in 0..valid.len() {
            assert!(
                ContextSnapshot::from_bytes(&valid[..len]).is_err(),
                "truncation at {len} must not decode"
            );
        }
        assert!(ContextSnapshot::from_bytes(&valid).is_ok());
    }

    #[test]
    fn random_bytes_never_panic_the_decoder() {
        // Fuzz-style: SplitMix64-driven byte soup must only ever produce
        // Ok/Err, never a panic or a huge allocation.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for round in 0..500 {
            let len = (round % 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = ContextSnapshot::from_bytes(&bytes);
        }
    }

    #[test]
    fn keys_have_distinct_topics_and_tags() {
        for (slot, key) in ContextKey::ALL.into_iter().enumerate() {
            assert_eq!(key.slot(), slot, "ALL is in tag order");
        }
        let mut topics: Vec<&str> = ContextKey::ALL.iter().map(|key| key.topic_name()).collect();
        topics.sort_unstable();
        topics.dedup();
        assert_eq!(topics.len(), ContextKey::ALL.len());
        for key in ContextKey::ALL {
            let decoded = ContextKey::from_bytes(&key.to_bytes()).unwrap();
            assert_eq!(decoded, key);
        }
    }
}
