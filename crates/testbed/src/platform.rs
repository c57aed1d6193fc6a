//! The platform binding between a Morpheus node and the network simulator.

use morpheus_appia::platform::{
    AppDelivery, NodeId, NodeProfile, OutPacket, Platform, ReconfigRequest,
};
use morpheus_appia::timer::TimerKey;
use morpheus_netsim::SimRng;

/// A deterministic [`Platform`] implementation backed by the simulator.
///
/// The runner owns one `SimPlatform` per node. All side effects requested by
/// the node's protocol stack (packets, timers, application deliveries,
/// reconfiguration requests) are buffered here and drained by the runner
/// after each interaction, which keeps the node code free of any reference to
/// the simulation engine.
#[derive(Debug)]
pub struct SimPlatform {
    node_id: NodeId,
    profile: NodeProfile,
    now_ms: u64,
    rng: SimRng,
    /// Packets queued for transmission.
    pub out_packets: Vec<OutPacket>,
    /// Timers armed since the last drain: `(delay_ms, key)`.
    pub timer_requests: Vec<(u64, TimerKey)>,
    /// Application deliveries produced since the last drain.
    pub deliveries: Vec<AppDelivery>,
    /// Reconfiguration requests raised since the last drain.
    pub reconfig_requests: Vec<ReconfigRequest>,
}

impl SimPlatform {
    /// Creates a platform for one node.
    pub fn new(profile: NodeProfile, seed: u64) -> Self {
        Self {
            node_id: profile.node_id,
            profile,
            now_ms: 0,
            rng: SimRng::new(seed),
            out_packets: Vec::new(),
            timer_requests: Vec::new(),
            deliveries: Vec::new(),
            reconfig_requests: Vec::new(),
        }
    }

    /// Advances the platform's clock to the given simulated time.
    pub fn set_now(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
    }

    /// Refreshes the locally observable context (battery, link state) before
    /// handing control to the node.
    pub fn set_profile(&mut self, profile: NodeProfile) {
        self.profile = profile;
    }

    /// Hands the queued outgoing packets to the caller by swapping buffers:
    /// `spare` must be empty, and its capacity becomes the platform's next
    /// queue — draining never costs the platform its allocation.
    pub fn swap_packets(&mut self, spare: &mut Vec<OutPacket>) {
        debug_assert!(spare.is_empty());
        std::mem::swap(&mut self.out_packets, spare);
    }

    /// Hands over the timers armed since the last call; see
    /// [`SimPlatform::swap_packets`].
    pub fn swap_timer_requests(&mut self, spare: &mut Vec<(u64, TimerKey)>) {
        debug_assert!(spare.is_empty());
        std::mem::swap(&mut self.timer_requests, spare);
    }

    /// Hands over the application deliveries; see
    /// [`SimPlatform::swap_packets`].
    pub fn swap_deliveries(&mut self, spare: &mut Vec<AppDelivery>) {
        debug_assert!(spare.is_empty());
        std::mem::swap(&mut self.deliveries, spare);
    }

    /// Drains the reconfiguration requests.
    pub fn take_reconfig_requests(&mut self) -> Vec<ReconfigRequest> {
        std::mem::take(&mut self.reconfig_requests)
    }
}

impl Platform for SimPlatform {
    fn now_ms(&self) -> u64 {
        self.now_ms
    }

    fn node_id(&self) -> NodeId {
        self.node_id
    }

    fn profile(&self) -> NodeProfile {
        self.profile.clone()
    }

    fn send(&mut self, packet: OutPacket) {
        self.out_packets.push(packet);
    }

    fn set_timer(&mut self, delay_ms: u64, key: TimerKey) {
        self.timer_requests.push((delay_ms, key));
    }

    /// Nothing to do: the kernel forgets a cancelled timer's record, and
    /// [`morpheus_appia::Kernel::timer_expired`] ignores a key it has no
    /// record for, so the runner hands every timer back when it falls due.
    fn cancel_timer(&mut self, _key: TimerKey) {}

    fn deliver(&mut self, delivery: AppDelivery) {
        self.deliveries.push(delivery);
    }

    fn random_u64(&mut self) -> u64 {
        self.rng.random_u64()
    }

    fn request_reconfiguration(&mut self, request: ReconfigRequest) {
        self.reconfig_requests.push(request);
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::channel::ChannelId;
    use morpheus_appia::config::{ChannelConfig, LayerSpec};
    use morpheus_appia::platform::{DeliveryKind, PacketClass, PacketDest};

    use super::*;

    #[test]
    fn platform_buffers_side_effects_until_drained() {
        let mut platform = SimPlatform::new(NodeProfile::mobile_pda(NodeId(3)), 7);
        platform.set_now(100);
        assert_eq!(platform.now_ms(), 100);
        platform.set_now(50);
        assert_eq!(platform.now_ms(), 100, "time never goes backwards");

        platform.send(OutPacket {
            from: NodeId(3),
            dest: PacketDest::Node(NodeId(0)),
            class: PacketClass::Data,
            channel: "data".into(),
            payload: bytes::Bytes::from_static(b"x"),
        });
        platform.set_timer(10, TimerKey::new(ChannelId(1), 1));
        platform.deliver(AppDelivery {
            channel: "data".into(),
            kind: DeliveryKind::Notification("n".into()),
        });
        platform.request_reconfiguration(ReconfigRequest {
            channel: "data".into(),
            stack_name: "s".into(),
            config: ChannelConfig::new("data").with_layer(LayerSpec::new("network")),
            epoch: 1,
            coordinator: NodeId(0),
        });

        let mut packets = Vec::with_capacity(8);
        platform.swap_packets(&mut packets);
        assert_eq!(packets.len(), 1);
        assert!(
            platform.out_packets.is_empty() && platform.out_packets.capacity() >= 8,
            "the platform keeps the spare's capacity"
        );
        let (mut timers, mut deliveries) = (Vec::new(), Vec::new());
        platform.swap_timer_requests(&mut timers);
        platform.swap_deliveries(&mut deliveries);
        assert_eq!((timers.len(), deliveries.len()), (1, 1));
        assert_eq!(platform.take_reconfig_requests().len(), 1);
        packets.clear();
        platform.swap_packets(&mut packets);
        assert!(packets.is_empty());
    }

    #[test]
    fn deterministic_randomness_per_seed() {
        let mut a = SimPlatform::new(NodeProfile::fixed_pc(NodeId(0)), 42);
        let mut b = SimPlatform::new(NodeProfile::fixed_pc(NodeId(0)), 42);
        assert_eq!(a.random_u64(), b.random_u64());
    }

    #[test]
    fn profile_refresh_changes_what_the_stack_sees() {
        let mut platform = SimPlatform::new(NodeProfile::mobile_pda(NodeId(1)), 1);
        assert_eq!(platform.profile().battery_level, 1.0);
        let mut drained = NodeProfile::mobile_pda(NodeId(1));
        drained.battery_level = 0.25;
        platform.set_profile(drained);
        assert_eq!(platform.profile().battery_level, 0.25);
    }
}
