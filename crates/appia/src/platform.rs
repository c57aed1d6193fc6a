//! The boundary between the protocol kernel and the outside world.
//!
//! The kernel never talks to a clock, a socket or an application directly.
//! Instead every side effect is expressed against the [`Platform`] trait:
//! reading the local time and node profile, sending packets, arming timers
//! and delivering data to the application. The simulated testbed
//! (`morpheus-testbed`) provides a deterministic implementation backed by the
//! discrete-event network simulator; a production deployment would provide
//! one backed by UDP sockets and an OS timer wheel.

use std::collections::VecDeque;
use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::channel::ChannelId;
use crate::config::ChannelConfig;
use crate::intern::Name;
use crate::timer::TimerKey;
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// Identifier of a node (participant) in the distributed system.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw numeric identifier.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl Wire for NodeId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.get_u32()?))
    }
}

/// A node id as a compact wire integer ([`WireWriter::put_varint`] and the
/// gap-coded lists and tables built on it).
impl From<NodeId> for u64 {
    fn from(node: NodeId) -> u64 {
        u64::from(node.0)
    }
}

impl TryFrom<u64> for NodeId {
    type Error = std::num::TryFromIntError;

    fn try_from(value: u64) -> Result<Self, Self::Error> {
        u32::try_from(value).map(NodeId)
    }
}

/// The class of device a node runs on.
///
/// The paper's evaluation uses fixed PCs (Windows/Linux) and HP iPAQ PDAs on
/// an 802.11b wireless network; the device class is the primary context
/// attribute driving the Mecho adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// A fixed PC or server connected to the wired infrastructure.
    FixedPc,
    /// A laptop: mobile but comparatively well resourced.
    Laptop,
    /// A PDA-class mobile device on a wireless link (e.g. HP iPAQ 5550).
    MobilePda,
    /// A mobile phone class device, the most constrained class.
    MobilePhone,
}

impl DeviceClass {
    /// Whether the device is battery powered and wireless.
    pub fn is_mobile(self) -> bool {
        matches!(
            self,
            DeviceClass::Laptop | DeviceClass::MobilePda | DeviceClass::MobilePhone
        )
    }

    /// Whether the device sits on the fixed (wired) infrastructure.
    pub fn is_fixed(self) -> bool {
        !self.is_mobile()
    }

    /// A coarse relative resource score used by relay-selection heuristics.
    pub fn resource_score(self) -> u32 {
        match self {
            DeviceClass::FixedPc => 100,
            DeviceClass::Laptop => 60,
            DeviceClass::MobilePda => 25,
            DeviceClass::MobilePhone => 10,
        }
    }

    /// Stable wire tag for the class.
    pub fn tag(self) -> u8 {
        match self {
            DeviceClass::FixedPc => 0,
            DeviceClass::Laptop => 1,
            DeviceClass::MobilePda => 2,
            DeviceClass::MobilePhone => 3,
        }
    }

    /// Reverse of [`DeviceClass::tag`].
    pub fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(DeviceClass::FixedPc),
            1 => Ok(DeviceClass::Laptop),
            2 => Ok(DeviceClass::MobilePda),
            3 => Ok(DeviceClass::MobilePhone),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DeviceClass::FixedPc => "fixed-pc",
            DeviceClass::Laptop => "laptop",
            DeviceClass::MobilePda => "mobile-pda",
            DeviceClass::MobilePhone => "mobile-phone",
        };
        f.write_str(name)
    }
}

impl Wire for DeviceClass {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        DeviceClass::from_tag(r.get_u8()?)
    }
}

/// The locally observable system context of a node.
///
/// This is the "system context" the paper restricts itself to: information
/// that can be inferred from network interfaces and operating system calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeProfile {
    /// The node's identifier.
    pub node_id: NodeId,
    /// The class of device the node runs on.
    pub device_class: DeviceClass,
    /// Remaining battery charge in `[0, 1]`; fixed devices report `1.0`.
    pub battery_level: f64,
    /// Quality of the local network link in `[0, 1]`.
    pub link_quality: f64,
    /// Nominal bandwidth of the local link, in kbit/s.
    pub bandwidth_kbps: u32,
    /// Observed message loss rate of the local link in `[0, 1]`.
    pub error_rate: f64,
    /// Whether the local network segment offers native (IP) multicast.
    pub has_native_multicast: bool,
}

impl NodeProfile {
    /// A profile for a fixed PC on a LAN, the paper's "fixed participant".
    pub fn fixed_pc(node_id: NodeId) -> Self {
        Self {
            node_id,
            device_class: DeviceClass::FixedPc,
            battery_level: 1.0,
            link_quality: 1.0,
            bandwidth_kbps: 100_000,
            error_rate: 0.0,
            has_native_multicast: false,
        }
    }

    /// A profile for a PDA on an 802.11b cell, the paper's "mobile participant".
    pub fn mobile_pda(node_id: NodeId) -> Self {
        Self {
            node_id,
            device_class: DeviceClass::MobilePda,
            battery_level: 1.0,
            link_quality: 0.8,
            bandwidth_kbps: 11_000,
            error_rate: 0.0,
            has_native_multicast: false,
        }
    }
}

impl Wire for NodeProfile {
    fn encode(&self, w: &mut WireWriter) {
        self.node_id.encode(w);
        self.device_class.encode(w);
        w.put_f64(self.battery_level);
        w.put_f64(self.link_quality);
        w.put_u32(self.bandwidth_kbps);
        w.put_f64(self.error_rate);
        w.put_bool(self.has_native_multicast);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            node_id: NodeId::decode(r)?,
            device_class: DeviceClass::decode(r)?,
            battery_level: r.get_f64()?,
            link_quality: r.get_f64()?,
            bandwidth_kbps: r.get_u32()?,
            error_rate: r.get_f64()?,
            has_native_multicast: r.get_bool()?,
        })
    }
}

/// Classification of a packet, used for accounting.
///
/// The paper's Figure 3 counts *all* messages transmitted by the mobile
/// device, "including data and control messages"; keeping the class on every
/// packet lets the testbed report both the aggregate and the breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketClass {
    /// Application data traffic.
    Data,
    /// Group communication control traffic (membership, flush, acks, ...).
    Control,
    /// Context dissemination traffic (Cocaditem publications).
    Context,
    /// Loss-repair traffic (NACK digests, pulls and re-streamed originals).
    Repair,
    /// Overlay maintenance traffic (partial-view membership, shuffles,
    /// per-room tree grafts and prunes).
    Overlay,
}

impl PacketClass {
    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            PacketClass::Data => 0,
            PacketClass::Control => 1,
            PacketClass::Context => 2,
            PacketClass::Repair => 3,
            PacketClass::Overlay => 4,
        }
    }

    /// Reverse of [`PacketClass::tag`].
    pub fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(PacketClass::Data),
            1 => Ok(PacketClass::Control),
            2 => Ok(PacketClass::Context),
            3 => Ok(PacketClass::Repair),
            4 => Ok(PacketClass::Overlay),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

impl Wire for PacketClass {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        PacketClass::from_tag(r.get_u8()?)
    }
}

/// Destination of an outgoing packet at the network-driver level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketDest {
    /// A single node, reached by a point-to-point transmission.
    Node(NodeId),
    /// The local broadcast/multicast domain (native multicast).
    Broadcast,
}

/// A packet handed by the kernel to the platform for transmission.
#[derive(Debug, Clone)]
pub struct OutPacket {
    /// Sending node.
    pub from: NodeId,
    /// Destination.
    pub dest: PacketDest,
    /// Accounting class.
    pub class: PacketClass,
    /// Name of the channel the packet belongs to (interned: cloning a
    /// packet or its channel name is a refcount bump, not an allocation).
    pub channel: Name,
    /// Serialised event (type name + message) as produced by the kernel.
    pub payload: Bytes,
}

/// A packet delivered by the platform to the kernel of the receiving node.
#[derive(Debug, Clone)]
pub struct InPacket {
    /// Original sender.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Accounting class.
    pub class: PacketClass,
    /// Name of the channel the packet belongs to (interned).
    pub channel: Name,
    /// Serialised event payload.
    pub payload: Bytes,
}

/// What a delivery to the application contains.
#[derive(Debug, Clone, PartialEq)]
pub enum DeliveryKind {
    /// Application data from another participant.
    Data {
        /// The original sender.
        from: NodeId,
        /// Application payload bytes.
        payload: Bytes,
    },
    /// The group membership changed; the new view is reported.
    ViewChange {
        /// Monotonically increasing view identifier.
        view_id: u64,
        /// Members of the new view, in ascending node-id order.
        members: Vec<NodeId>,
    },
    /// The communication stack underneath the channel was reconfigured.
    Reconfigured {
        /// Name of the stack configuration that is now installed.
        stack: String,
    },
    /// A distributed reconfiguration round completed: every live member
    /// acknowledged the deployment. Reported by the coordinator only.
    ReconfigurationComplete {
        /// Name of the stack configuration the group agreed on.
        stack: String,
        /// Epoch of the completed round.
        epoch: u64,
        /// Time between round initiation and the last acknowledgement, in
        /// milliseconds.
        latency_ms: u64,
        /// Command retransmissions the round needed (0 on loss-free links).
        retransmits: u64,
        /// Number of members that acknowledged (live quorum size).
        nodes: usize,
    },
    /// A restarted member completed its view-synchronous state transfer and
    /// is a full group member again. Reported by the recovery layer on the
    /// rejoining node.
    Rejoined {
        /// The donor the snapshot was streamed from (the local node for a
        /// degenerate solo view with nothing to transfer).
        donor: NodeId,
        /// Total snapshot bytes transferred.
        bytes: u64,
        /// Number of chunks the snapshot was streamed in.
        chunks: u32,
        /// Transfer epochs used (1 = the first donor succeeded; more means
        /// donor failover happened mid-transfer).
        transfer_epochs: u64,
        /// Time from restart (channel creation) to installed state, in
        /// milliseconds.
        elapsed_ms: u64,
    },
    /// A member that outlived its repair-log retention window (long
    /// partition) closed the gap with a targeted state-section pull instead
    /// of a full rejoin: no restart, no view change, no stack teardown.
    /// Reported by the recovery layer on the healed node.
    CaughtUp {
        /// The member the snapshot sections were pulled from (the repair
        /// floor's sender).
        donor: NodeId,
        /// Total snapshot bytes transferred.
        bytes: u64,
        /// Number of chunks the snapshot was streamed in.
        chunks: u32,
    },
    /// The local context store first covered the whole group membership:
    /// a snapshot is now known for every participant. Reported once per
    /// membership by the context dissemination layer, so testbeds can
    /// measure how long digest anti-entropy takes to converge.
    ContextConverged {
        /// Number of participants covered.
        nodes: usize,
    },
    /// A free-form notification (used by tests and diagnostics).
    Notification(String),
}

/// A delivery from the protocol stack to the local application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppDelivery {
    /// The channel the delivery originates from (interned).
    pub channel: Name,
    /// The delivered content.
    pub kind: DeliveryKind,
}

/// A request, raised from inside a session, asking the node runtime to
/// replace a channel's stack.
///
/// Sessions cannot call back into the kernel that is executing them, so the
/// Core subsystem's local module records the desired configuration here; the
/// node runtime applies it (via [`crate::kernel::Kernel::replace_channel`])
/// once event processing has finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigRequest {
    /// Name of the channel whose stack should be replaced.
    pub channel: String,
    /// Name of the stack configuration being installed (for reporting).
    pub stack_name: String,
    /// The channel description to deploy, rendered by the requesting session
    /// from the node's own stack catalogue.
    pub config: ChannelConfig,
    /// Reconfiguration epoch the deployment belongs to. The local module
    /// stamps its acknowledgement with this epoch so the coordinator can
    /// reject acknowledgements left over from earlier rounds.
    pub epoch: u64,
    /// The coordinator that initiated the round (where the acknowledgement
    /// must be sent once the deployment succeeded).
    pub coordinator: NodeId,
}

/// The kernel's window onto the outside world.
///
/// Implementations must be cheap to call: handlers invoke these methods many
/// times while processing a single event.
pub trait Platform {
    /// Current local time in milliseconds since an arbitrary epoch.
    fn now_ms(&self) -> u64;

    /// Identifier of the local node.
    fn node_id(&self) -> NodeId;

    /// A snapshot of the locally observable system context.
    fn profile(&self) -> NodeProfile;

    /// Queues a packet for transmission.
    fn send(&mut self, packet: OutPacket);

    /// Arms a one-shot timer that fires `delay_ms` from now.
    fn set_timer(&mut self, delay_ms: u64, key: TimerKey);

    /// Cancels a previously armed timer. Cancelling an unknown timer is a no-op.
    fn cancel_timer(&mut self, key: TimerKey);

    /// Delivers data or a notification to the local application.
    fn deliver(&mut self, delivery: AppDelivery);

    /// Returns a pseudo-random value. Implementations should be deterministic
    /// under a fixed seed so experiments are reproducible.
    fn random_u64(&mut self) -> u64;

    /// Records a request to replace a channel's stack. The node runtime
    /// applies it after event processing finishes.
    fn request_reconfiguration(&mut self, request: ReconfigRequest);
}

/// A simple in-memory [`Platform`] used by unit tests throughout the
/// workspace.
///
/// It records every side effect so tests can assert on the exact packets,
/// timers and deliveries produced by a stack.
#[derive(Debug)]
pub struct TestPlatform {
    /// Current simulated time (tests advance it manually).
    pub now_ms: u64,
    /// Profile reported to the kernel.
    pub profile: NodeProfile,
    /// Packets sent, in order.
    pub sent: Vec<OutPacket>,
    /// Timers armed, in order: `(fire_at_ms, key)`.
    pub timers: Vec<(u64, TimerKey)>,
    /// Timers cancelled, in order.
    pub cancelled: Vec<TimerKey>,
    /// Deliveries to the application, in order.
    pub deliveries: VecDeque<AppDelivery>,
    /// Reconfiguration requests raised by sessions, in order.
    pub reconfig_requests: Vec<ReconfigRequest>,
    rng_state: u64,
}

impl TestPlatform {
    /// Creates a test platform for a fixed PC with the given node id.
    pub fn new(node_id: NodeId) -> Self {
        Self::with_profile(NodeProfile::fixed_pc(node_id))
    }

    /// Creates a test platform with an explicit profile.
    pub fn with_profile(profile: NodeProfile) -> Self {
        Self {
            now_ms: 0,
            profile,
            sent: Vec::new(),
            timers: Vec::new(),
            cancelled: Vec::new(),
            deliveries: VecDeque::new(),
            reconfig_requests: Vec::new(),
            rng_state: 0x9E3779B97F4A7C15,
        }
    }

    /// Advances the local clock.
    pub fn advance(&mut self, delta_ms: u64) {
        self.now_ms += delta_ms;
    }

    /// Drains and returns all packets sent so far.
    pub fn take_sent(&mut self) -> Vec<OutPacket> {
        std::mem::take(&mut self.sent)
    }

    /// Drains and returns all application deliveries so far.
    pub fn take_deliveries(&mut self) -> Vec<AppDelivery> {
        self.deliveries.drain(..).collect()
    }

    /// Number of data deliveries currently queued.
    pub fn data_delivery_count(&self) -> usize {
        self.deliveries
            .iter()
            .filter(|d| matches!(d.kind, DeliveryKind::Data { .. }))
            .count()
    }
}

impl Platform for TestPlatform {
    fn now_ms(&self) -> u64 {
        self.now_ms
    }

    fn node_id(&self) -> NodeId {
        self.profile.node_id
    }

    fn profile(&self) -> NodeProfile {
        self.profile.clone()
    }

    fn send(&mut self, packet: OutPacket) {
        self.sent.push(packet);
    }

    fn set_timer(&mut self, delay_ms: u64, key: TimerKey) {
        self.timers.push((self.now_ms + delay_ms, key));
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.cancelled.push(key);
    }

    fn deliver(&mut self, delivery: AppDelivery) {
        self.deliveries.push_back(delivery);
    }

    fn random_u64(&mut self) -> u64 {
        // SplitMix64: deterministic and good enough for tie-breaking in tests.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn request_reconfiguration(&mut self, request: ReconfigRequest) {
        self.reconfig_requests.push(request);
    }
}

/// Helper: a [`TimerKey`] for the given channel and timer id.
pub fn timer_key(channel: ChannelId, timer_id: u64) -> TimerKey {
    TimerKey { channel, timer_id }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_class_predicates() {
        assert!(DeviceClass::MobilePda.is_mobile());
        assert!(DeviceClass::MobilePhone.is_mobile());
        assert!(DeviceClass::Laptop.is_mobile());
        assert!(DeviceClass::FixedPc.is_fixed());
        assert!(DeviceClass::FixedPc.resource_score() > DeviceClass::MobilePda.resource_score());
    }

    #[test]
    fn device_class_wire_roundtrip() {
        for class in [
            DeviceClass::FixedPc,
            DeviceClass::Laptop,
            DeviceClass::MobilePda,
            DeviceClass::MobilePhone,
        ] {
            let bytes = class.to_bytes();
            assert_eq!(DeviceClass::from_bytes(&bytes).unwrap(), class);
        }
        assert!(DeviceClass::from_tag(200).is_err());
    }

    #[test]
    fn node_profile_wire_roundtrip() {
        let profile = NodeProfile::mobile_pda(NodeId(7));
        let bytes = profile.to_bytes();
        assert_eq!(NodeProfile::from_bytes(&bytes).unwrap(), profile);
    }

    #[test]
    fn packet_class_wire_roundtrip() {
        for class in [
            PacketClass::Data,
            PacketClass::Control,
            PacketClass::Context,
            PacketClass::Repair,
            PacketClass::Overlay,
        ] {
            let bytes = class.to_bytes();
            assert_eq!(PacketClass::from_bytes(&bytes).unwrap(), class);
        }
    }

    #[test]
    fn test_platform_records_side_effects() {
        let mut platform = TestPlatform::new(NodeId(1));
        platform.advance(10);
        platform.set_timer(5, timer_key(ChannelId(1), 42));
        platform.send(OutPacket {
            from: NodeId(1),
            dest: PacketDest::Node(NodeId(2)),
            class: PacketClass::Data,
            channel: "data".into(),
            payload: Bytes::from_static(b"x"),
        });
        platform.deliver(AppDelivery {
            channel: "data".into(),
            kind: DeliveryKind::Notification("hi".into()),
        });

        assert_eq!(platform.timers, vec![(15, timer_key(ChannelId(1), 42))]);
        assert_eq!(platform.take_sent().len(), 1);
        assert_eq!(platform.take_deliveries().len(), 1);
    }

    #[test]
    fn test_platform_rng_is_deterministic() {
        let mut a = TestPlatform::new(NodeId(1));
        let mut b = TestPlatform::new(NodeId(1));
        let seq_a: Vec<u64> = (0..8).map(|_| a.random_u64()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.random_u64()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).raw(), 3);
    }
}
