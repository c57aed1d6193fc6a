//! The node-level façade: one Morpheus middleware instance.
//!
//! [`MorpheusNode`] owns the protocol kernel of one participant, with the two
//! channels the prototype uses:
//!
//! * the **data channel**, carrying application traffic over the stack the
//!   Core subsystem currently prescribes;
//! * the **control channel**, carrying Cocaditem context publications and
//!   Core reconfiguration commands.
//!
//! Both channels hold the node's one failure-detector session: suspicions
//! reach both, and the views view synchrony installs on the data channel
//! reach Cocaditem and Core through it.
//!
//! It also acts as the Core *local module*: when the control layer requests a
//! reconfiguration, the node drives the data channel to quiescence (blocking
//! it through the view-synchrony layer), swaps the stack via the kernel's
//! channel replacement and resumes the flow — the sequence Section 3.3 of the
//! paper describes.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use morpheus_appia::error::Result;
use morpheus_appia::event::Event;
use morpheus_appia::events::DataEvent;
use morpheus_appia::message::Message;
use morpheus_appia::platform::{
    AppDelivery, DeliveryKind, InPacket, NodeId, Platform, ReconfigRequest,
};
use morpheus_appia::timer::TimerKey;
use morpheus_appia::{ChannelId, Kernel};
use morpheus_cocaditem::dissemination::register_cocaditem_with_store;
use morpheus_cocaditem::store::ContextStoreSection;
use morpheus_cocaditem::ContextStore;
use morpheus_groupcomm::events::{BlockRequest, ResumeRequest};
use morpheus_groupcomm::recovery::{RecoveryLayer, StateSection};
use morpheus_groupcomm::register_suite;

use crate::control::{register_core, ReconfigAck};
use crate::policy::StackKind;
use crate::stack_catalog::StackCatalog;

/// Configuration of one Morpheus node.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// The participants of the application group (including the local node).
    pub members: Vec<NodeId>,
    /// Whether the Core subsystem may adapt the data stack at run time.
    /// Disabling this yields the paper's non-adapted baseline.
    pub adaptive: bool,
    /// The stack deployed at start-up.
    pub initial_stack: StackKind,
    /// How often Cocaditem publishes the local context, in milliseconds.
    pub publish_interval_ms: u64,
    /// Heartbeat period of the node's one failure detector, which the
    /// control channel and every generated data stack share.
    pub hb_interval_ms: u64,
    /// Suspicion timeout of the node's one failure detector.
    pub suspect_timeout_ms: u64,
    /// How often the reconfiguration coordinator retransmits an
    /// unacknowledged command, in milliseconds.
    pub retransmit_interval_ms: u64,
    /// Total time budget of one reconfiguration round before the coordinator
    /// aborts it and lets the policy re-fire, in milliseconds.
    pub round_timeout_ms: u64,
    /// Cadence of the epidemic data stack's NACK/anti-entropy repair pass,
    /// in milliseconds (`0` disables repair, leaving the pure push-phase
    /// gossip).
    pub gossip_repair_interval_ms: u64,
    /// Whether this node is a *restarted* member re-entering a running
    /// group: its boot stack comes up in joining mode (empty view, blocked)
    /// and the recovery layer drives re-admission plus state transfer. The
    /// stacks its Core layer commands never do.
    pub rejoining: bool,
    /// Chunk size of the rejoin state transfer, in bytes.
    pub transfer_chunk_bytes: usize,
    /// Name of the data channel.
    pub data_channel: String,
    /// Name of the control channel.
    pub control_channel: String,
}

impl NodeOptions {
    /// Sensible defaults for a group of the given members. These are the
    /// only timing defaults: the node's [`StackCatalog`] is built from its
    /// options.
    pub fn new(members: Vec<NodeId>) -> Self {
        Self {
            members,
            adaptive: true,
            initial_stack: StackKind::BestEffort,
            publish_interval_ms: 1000,
            hb_interval_ms: 1000,
            suspect_timeout_ms: 5000,
            retransmit_interval_ms: 500,
            round_timeout_ms: 4000,
            gossip_repair_interval_ms: 1000,
            rejoining: false,
            transfer_chunk_bytes: 1024,
            data_channel: "data".to_string(),
            control_channel: "ctrl".to_string(),
        }
    }

    /// Sets the initial stack (builder style).
    pub fn with_initial_stack(mut self, stack: StackKind) -> Self {
        self.initial_stack = stack;
        self
    }

    /// Sets the context publication interval (builder style).
    pub fn with_publish_interval(mut self, interval_ms: u64) -> Self {
        self.publish_interval_ms = interval_ms;
        self
    }
}

/// One Morpheus middleware instance.
pub struct MorpheusNode {
    kernel: Kernel,
    options: NodeOptions,
    catalog: Rc<StackCatalog>,
    data_channel: ChannelId,
    control_channel: ChannelId,
    current_stack: String,
    reconfigurations: u64,
}

impl MorpheusNode {
    /// Builds a node, creating its data and control channels.
    pub fn new(options: NodeOptions, platform: &mut dyn Platform) -> Result<Self> {
        Self::with_app_state(options, Vec::new(), platform)
    }

    /// Builds a node whose rejoin state transfer additionally streams the
    /// given application-level state sections (e.g. the chat room history).
    ///
    /// The node always contributes its own Cocaditem context store as the
    /// first section, so a rejoiner recovers the replicated context without
    /// waiting for digest anti-entropy to repopulate it. That store and the
    /// node's stack catalogue exist once per node: Cocaditem writes the
    /// store, the Core layer reads it, and Core renders the stacks it
    /// commands from the catalogue the node boots from.
    pub fn with_app_state(
        options: NodeOptions,
        app_sections: Vec<Rc<dyn StateSection>>,
        platform: &mut dyn Platform,
    ) -> Result<Self> {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let context_store = Rc::new(RefCell::new(ContextStore::new()));
        register_cocaditem_with_store(&mut kernel, context_store.clone());
        let mut sections: Vec<Rc<dyn StateSection>> =
            vec![Rc::new(ContextStoreSection::new(context_store.clone()))];
        sections.extend(app_sections);
        // Replaces the suite's section-less recovery layer by name.
        kernel
            .layers_mut()
            .register(RecoveryLayer::with_sections(sections));
        let catalog = Rc::new(StackCatalog::new(&options));
        register_core(&mut kernel, context_store, Rc::clone(&catalog));

        let data_config = catalog.boot_config(&options.initial_stack, options.rejoining);
        let data_channel = kernel.create_channel(&data_config, platform)?;

        let control_config = catalog.control_config(
            &options.control_channel,
            options.publish_interval_ms,
            options.adaptive,
            &options.initial_stack,
        );
        let control_channel = kernel.create_channel(&control_config, platform)?;

        Ok(Self {
            current_stack: options.initial_stack.name(),
            kernel,
            catalog,
            data_channel,
            control_channel,
            options,
            reconfigurations: 0,
        })
    }

    /// The stack catalogue this node deploys from.
    pub fn catalog(&self) -> &StackCatalog {
        &self.catalog
    }

    /// Name of the stack currently deployed on the data channel.
    pub fn current_stack(&self) -> &str {
        &self.current_stack
    }

    /// The name of the sendable event type registered under a wire tag.
    pub fn wire_event_name(&self, tag: u16) -> Option<&'static str> {
        self.kernel.events().name(tag)
    }

    /// Number of reconfigurations applied so far.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Counters of the data channel's gossip session (push-phase forwards
    /// and duplicates, repair digests/pulls/pushes, repaired deliveries), or
    /// `None` when the current data stack is not epidemic. Read through the
    /// session downcast hook; used by the testbed to report per-node
    /// epidemic coverage and repair work.
    pub fn gossip_stats(&self) -> Option<morpheus_groupcomm::gossip::GossipStats> {
        let channel = self.kernel.channel(self.data_channel)?;
        let session = channel.session_of(morpheus_groupcomm::gossip::GOSSIP_LAYER)?;
        let session = session.borrow();
        session
            .as_any()?
            .downcast_ref::<morpheus_groupcomm::gossip::GossipSession>()
            .map(morpheus_groupcomm::gossip::GossipSession::stats)
    }

    /// Join-view messages the data channel's recovery session shed at its
    /// buffer cap. `None` when the data stack carries no recovery layer.
    pub fn recovery_buffer_shed(&self) -> Option<u64> {
        let channel = self.kernel.channel(self.data_channel)?;
        let session = channel.session_of(morpheus_groupcomm::recovery::RECOVERY_LAYER)?;
        let session = session.borrow();
        session
            .as_any()?
            .downcast_ref::<morpheus_groupcomm::recovery::RecoverySession>()
            .map(morpheus_groupcomm::recovery::RecoverySession::buffer_shed)
    }

    /// Layer names of the data channel, bottom-first.
    pub fn data_stack_layers(&self) -> Vec<String> {
        self.kernel
            .channel(self.data_channel)
            .map(|channel| {
                channel
                    .layer_names()
                    .iter()
                    .map(|name| name.as_str().to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Sends an application payload to the whole group on the data channel.
    pub fn send_to_group(&mut self, payload: impl Into<Bytes>, platform: &mut dyn Platform) {
        let source = platform.node_id();
        let event = Event::down(DataEvent::to_group(source, Message::with_payload(payload)));
        self.kernel
            .dispatch_and_process(self.data_channel, event, platform);
    }

    /// Delivers a packet received from the network.
    pub fn deliver_packet(&mut self, packet: InPacket, platform: &mut dyn Platform) -> Result<()> {
        self.kernel.deliver_packet(packet, platform)
    }

    /// Delivers a batch of packets with a single kernel queue drain,
    /// returning how many were rejected (undecodable or misaddressed).
    pub fn deliver_packet_batch(
        &mut self,
        packets: impl IntoIterator<Item = InPacket>,
        platform: &mut dyn Platform,
    ) -> usize {
        self.kernel.deliver_packet_batch(packets, platform)
    }

    /// Reports a fired timer.
    pub fn timer_fired(&mut self, key: TimerKey, platform: &mut dyn Platform) {
        self.kernel.timer_expired(key, platform);
    }

    /// Applies a reconfiguration request raised by the Core control layer:
    /// block, replace, resume, acknowledge.
    ///
    /// The acknowledgement is stamped with the request's epoch and sent to
    /// the coordinator that initiated the round, *after* the deployment
    /// succeeded — never optimistically. If the replacement fails after the
    /// channel was driven to quiescence, the old stack is resumed (so the
    /// data channel is not left blocked forever) and the failure is surfaced
    /// to the application as a notification.
    pub fn apply_reconfiguration(
        &mut self,
        request: ReconfigRequest,
        platform: &mut dyn Platform,
    ) -> Result<()> {
        // 1. Drive the data channel to quiescence: the view-synchrony layer
        //    buffers application sends from this point on.
        let old_channel = self.kernel.channel_id(&request.channel);
        if let Some(channel) = old_channel {
            self.kernel
                .dispatch_and_process(channel, Event::down(BlockRequest {}), platform);
        }

        // 2. Deploy the new stack. Shared sessions (notably view synchrony)
        //    carry their state across the replacement. On failure the old
        //    stack is still in place: resume it so the channel does not stay
        //    blocked, and surface the error.
        let new_channel =
            match self
                .kernel
                .replace_channel(&request.channel, &request.config, platform)
            {
                Ok(channel) => channel,
                Err(error) => {
                    if let Some(channel) = old_channel {
                        self.kernel.dispatch_and_process(
                            channel,
                            Event::down(ResumeRequest {}),
                            platform,
                        );
                    }
                    platform.deliver(AppDelivery {
                        channel: request.channel.clone().into(),
                        kind: DeliveryKind::Notification(format!(
                            "reconfiguration to `{}` (epoch {}) failed: {error}; \
                         resumed the previous stack",
                            request.stack_name, request.epoch
                        )),
                    });
                    return Err(error);
                }
            };
        if request.channel == self.options.data_channel {
            self.data_channel = new_channel;
        }

        // 3. Resume the data flow; buffered sends are re-emitted through the
        //    new stack.
        self.kernel
            .dispatch_and_process(new_channel, Event::down(ResumeRequest {}), platform);

        self.current_stack = request.stack_name.clone();
        self.reconfigurations += 1;

        // 4. Acknowledge the deployment to the coordinator of this epoch.
        //    The ack travels down the control channel; the Core layer counts
        //    a self-addressed ack locally instead of sending it on the wire.
        let local = platform.node_id();
        let mut message = Message::new();
        message.push(&request.epoch);
        message.push(&request.stack_name);
        let ack = Event::down(ReconfigAck::new(
            local,
            morpheus_appia::event::Dest::Node(request.coordinator),
            message,
        ));
        self.kernel
            .dispatch_and_process(self.control_channel, ack, platform);

        platform.deliver(AppDelivery {
            channel: request.channel.into(),
            kind: DeliveryKind::Reconfigured {
                stack: request.stack_name,
            },
        });
        Ok(())
    }
}

impl std::fmt::Debug for MorpheusNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorpheusNode")
            .field("members", &self.options.members)
            .field("current_stack", &self.current_stack)
            .field("reconfigurations", &self.reconfigurations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::config::{ChannelConfig, LayerSpec};
    use morpheus_appia::event::Dest;
    use morpheus_appia::platform::{NodeProfile, PacketClass, PacketDest, TestPlatform};
    use morpheus_appia::registry::{decode_event, encode_event};
    use morpheus_cocaditem::{ContextPublish, ContextSnapshot};
    use morpheus_groupcomm::events::{Heartbeat, ViewInstall};
    use morpheus_groupcomm::View;

    use super::*;

    fn members(count: u32) -> Vec<NodeId> {
        (0..count).map(NodeId).collect()
    }

    /// Fires every timer due by the platform's clock, in arming order.
    fn fire_due_timers(node: &mut MorpheusNode, platform: &mut TestPlatform) {
        while let Some(position) = platform
            .timers
            .iter()
            .position(|(at, _)| *at <= platform.now_ms)
        {
            let (_, key) = platform.timers.remove(position);
            node.timer_fired(key, platform);
        }
    }

    /// The wire name of every packet sent since the last call.
    fn sent_names(node: &MorpheusNode, platform: &mut TestPlatform) -> Vec<&'static str> {
        platform
            .take_sent()
            .iter()
            .map(|packet| {
                decode_event(node.kernel.events(), &packet.payload)
                    .unwrap()
                    .type_name()
            })
            .collect()
    }

    /// A heartbeat without a probe body: proof of life of its sender,
    /// nothing more.
    fn heartbeat(from: u32, to: u32) -> InPacket {
        let beat = Heartbeat::new(NodeId(from), Dest::Node(NodeId(to)), Message::new());
        InPacket {
            from: NodeId(from),
            to: NodeId(to),
            class: PacketClass::Control,
            channel: "ctrl".into(),
            payload: encode_event(&beat),
        }
    }

    /// `from`'s context, as its Cocaditem would publish it to node 0.
    fn publish_context(node: &mut MorpheusNode, from: NodeProfile, platform: &mut TestPlatform) {
        let mut message = Message::new();
        message.push(&ContextSnapshot::from_profile(&from, platform.now_ms));
        message.push(&0u8);
        let publish = ContextPublish::new(from.node_id, Dest::Node(NodeId(0)), message);
        node.kernel
            .dispatch_and_process(node.control_channel, Event::up(publish), platform);
    }

    fn replace_data_stack(
        node: &mut MorpheusNode,
        kind: &StackKind,
        epoch: u64,
        platform: &mut TestPlatform,
    ) {
        let request = ReconfigRequest {
            channel: "data".into(),
            stack_name: kind.name(),
            config: node.catalog().config_for(kind),
            epoch,
            coordinator: NodeId(0),
        };
        node.apply_reconfiguration(request, platform).unwrap();
    }

    /// Options for a three-member group whose failure detector probes every
    /// 500 ms and suspects after four intervals.
    fn fast_suspicion() -> NodeOptions {
        let mut options = NodeOptions::new(members(3));
        options.hb_interval_ms = 500;
        options.suspect_timeout_ms = 2000;
        options
    }

    /// A packet names its event type by a 16-bit hash of the type's name,
    /// so two types of any crate must not share one. Registration refuses a
    /// collision; this pins that a node registers every sendable type of
    /// `appia`, `groupcomm`, `cocaditem` and `core`, and that their tags are
    /// pairwise distinct.
    #[test]
    fn every_sendable_event_of_every_crate_has_a_distinct_wire_tag() {
        use morpheus_appia::registry::wire_tag;
        use morpheus_cocaditem::{ContextBatch, ContextDigest, ContextPull};
        use morpheus_groupcomm::events::{
            FecParity, FlushAck, GossipBatch, GossipRepairDigest, GossipRepairPull,
            GossipRepairPush, JoinRequest, NackRequest, OrderInfo, StaleBallot, ViewCommit,
            ViewPrepare,
        };
        use morpheus_groupcomm::recovery::{StateChunk, StateRequest};

        use crate::control::ReconfigCommand;

        let mut every_type = vec![
            (DataEvent::WIRE_NAME, DataEvent::WIRE_TAG),
            (Heartbeat::WIRE_NAME, Heartbeat::WIRE_TAG),
            (NackRequest::WIRE_NAME, NackRequest::WIRE_TAG),
            (GossipRepairDigest::WIRE_NAME, GossipRepairDigest::WIRE_TAG),
            (GossipRepairPull::WIRE_NAME, GossipRepairPull::WIRE_TAG),
            (GossipRepairPush::WIRE_NAME, GossipRepairPush::WIRE_TAG),
            (GossipBatch::WIRE_NAME, GossipBatch::WIRE_TAG),
            (ViewPrepare::WIRE_NAME, ViewPrepare::WIRE_TAG),
            (FlushAck::WIRE_NAME, FlushAck::WIRE_TAG),
            (ViewCommit::WIRE_NAME, ViewCommit::WIRE_TAG),
            (JoinRequest::WIRE_NAME, JoinRequest::WIRE_TAG),
            (StaleBallot::WIRE_NAME, StaleBallot::WIRE_TAG),
            (StateRequest::WIRE_NAME, StateRequest::WIRE_TAG),
            (StateChunk::WIRE_NAME, StateChunk::WIRE_TAG),
            (FecParity::WIRE_NAME, FecParity::WIRE_TAG),
            (OrderInfo::WIRE_NAME, OrderInfo::WIRE_TAG),
            (ContextPublish::WIRE_NAME, ContextPublish::WIRE_TAG),
            (ContextDigest::WIRE_NAME, ContextDigest::WIRE_TAG),
            (ContextPull::WIRE_NAME, ContextPull::WIRE_TAG),
            (ContextBatch::WIRE_NAME, ContextBatch::WIRE_TAG),
            (ReconfigCommand::WIRE_NAME, ReconfigCommand::WIRE_TAG),
            (ReconfigAck::WIRE_NAME, ReconfigAck::WIRE_TAG),
        ];
        every_type.sort_unstable();

        let mut platform = TestPlatform::new(NodeId(0));
        let node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
        let registered = node.kernel.events().names();
        let names: Vec<&str> = every_type.iter().map(|(name, _)| *name).collect();
        assert_eq!(registered, names, "a node registers every sendable type");

        let tags: std::collections::BTreeSet<u16> =
            every_type.iter().map(|(_, tag)| *tag).collect();
        assert_eq!(tags.len(), every_type.len(), "wire tags collide");
        for (name, tag) in every_type {
            assert_eq!(wire_tag(name), tag, "{name}");
            assert!(node.kernel.events().factory(tag).is_ok(), "{name}");
        }
    }

    #[test]
    fn node_starts_with_data_and_control_channels() {
        let mut platform = TestPlatform::new(NodeId(0));
        let node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
        assert_eq!(node.kernel.channel_names(), vec!["ctrl", "data"]);
        assert_eq!(node.current_stack(), "best-effort");
        assert_eq!(
            node.data_stack_layers(),
            vec!["network", "beb", "fd", "recovery", "vsync", "app"]
        );
        // Channel creation publishes the initial context on the control channel.
        assert!(platform
            .sent
            .iter()
            .any(|packet| packet.channel == "ctrl" && packet.class == PacketClass::Context));
    }

    #[test]
    fn group_sends_fan_out_according_to_the_initial_stack() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut node = MorpheusNode::new(NodeOptions::new(members(4)), &mut platform).unwrap();
        platform.take_sent();
        node.send_to_group(&b"hello"[..], &mut platform);
        let data_packets = platform
            .take_sent()
            .into_iter()
            .filter(|packet| packet.class == PacketClass::Data)
            .count();
        assert_eq!(data_packets, 3);
    }

    #[test]
    fn a_commanded_stack_learns_the_view_from_view_synchrony() {
        // Commanded descriptions list no member: each replacement below
        // reaches the group only because view synchrony announces its view
        // down the fresh stack.
        let mut platform = TestPlatform::new(NodeId(0));
        let mut node = MorpheusNode::new(NodeOptions::new(members(4)), &mut platform).unwrap();
        let fanout = 3;
        let kinds = [
            StackKind::BestEffort,
            StackKind::Reliable,
            StackKind::ErrorMasking { k: 4 },
            StackKind::HybridMecho { relay: NodeId(0) },
            StackKind::Gossip { fanout },
        ];
        for (epoch, kind) in (1..).zip(&kinds) {
            replace_data_stack(&mut node, kind, epoch, &mut platform);
            platform.take_sent();
            node.send_to_group(&b"hello"[..], &mut platform);
            // Gossip pushes leave on a zero-delay flush.
            fire_due_timers(&mut node, &mut platform);
            let peers: Vec<NodeId> = platform
                .take_sent()
                .into_iter()
                .filter(|packet| packet.class == PacketClass::Data)
                .map(|packet| match packet.dest {
                    PacketDest::Node(peer) => peer,
                    PacketDest::Broadcast => panic!("{}: a broadcast", kind.name()),
                })
                .collect();
            assert!(
                peers.iter().all(|peer| [1, 2, 3].contains(&peer.0)),
                "{}: {peers:?} outside the view's peers",
                kind.name()
            );
            if matches!(kind, StackKind::Gossip { .. }) {
                assert!((1..=fanout).contains(&peers.len()), "{peers:?}");
            } else {
                assert_eq!(peers.len(), 3, "{} reaches every peer", kind.name());
            }
        }
    }

    #[test]
    fn applying_a_reconfiguration_swaps_the_data_stack() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
        let hybrid = node
            .catalog()
            .config_for(&StackKind::HybridMecho { relay: NodeId(0) });

        node.apply_reconfiguration(
            ReconfigRequest {
                channel: "data".into(),
                stack_name: "hybrid-mecho-relay0".into(),
                config: hybrid,
                epoch: 1,
                coordinator: NodeId(0),
            },
            &mut platform,
        )
        .unwrap();

        assert_eq!(node.current_stack(), "hybrid-mecho-relay0");
        assert_eq!(node.reconfigurations(), 1);
        assert!(node.data_stack_layers().contains(&"mecho".to_string()));
        // The node acknowledged to the coordinator (node 0) on the control channel.
        assert!(platform
            .sent
            .iter()
            .any(|packet| packet.channel == "ctrl" && packet.class == PacketClass::Control));
        // The application was told about the reconfiguration.
        assert!(platform
            .take_deliveries()
            .iter()
            .any(|delivery| matches!(&delivery.kind, DeliveryKind::Reconfigured { stack } if stack.contains("mecho"))));
    }

    #[test]
    fn buffered_sends_survive_a_reconfiguration() {
        let mut platform = TestPlatform::with_profile(NodeProfile::mobile_pda(NodeId(2)));
        let mut node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
        platform.take_sent();

        // Block the data channel (as the reconfiguration procedure would),
        // then send: nothing leaves the node.
        let data_id = node.kernel.channel_id("data").unwrap();
        node.kernel
            .dispatch_and_process(data_id, Event::down(BlockRequest {}), &mut platform);
        node.send_to_group(&b"queued"[..], &mut platform);
        assert_eq!(
            platform
                .sent
                .iter()
                .filter(|p| p.class == PacketClass::Data)
                .count(),
            0,
            "sends are buffered while blocked"
        );

        // Replacing the stack and resuming releases the buffered message
        // through the *new* stack (Mecho, wireless mode → a single packet to
        // the relay).
        let hybrid = node
            .catalog()
            .config_for(&StackKind::HybridMecho { relay: NodeId(0) });
        node.apply_reconfiguration(
            ReconfigRequest {
                channel: "data".into(),
                stack_name: "hybrid-mecho-relay0".into(),
                config: hybrid,
                epoch: 1,
                coordinator: NodeId(0),
            },
            &mut platform,
        )
        .unwrap();
        let data_packets: Vec<_> = platform
            .take_sent()
            .into_iter()
            .filter(|packet| packet.class == PacketClass::Data)
            .collect();
        assert_eq!(
            data_packets.len(),
            1,
            "buffered send released through the Mecho relay path"
        );
    }

    /// A description with a layer this node's kernel does not know.
    fn unknown_layer_config() -> ChannelConfig {
        ChannelConfig::new("data").with_layer(LayerSpec::new("no-such-layer"))
    }

    #[test]
    fn bad_reconfiguration_descriptions_are_rejected() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut node = MorpheusNode::new(NodeOptions::new(members(2)), &mut platform).unwrap();
        let err = node.apply_reconfiguration(
            ReconfigRequest {
                channel: "data".into(),
                stack_name: "broken".into(),
                config: unknown_layer_config(),
                epoch: 1,
                coordinator: NodeId(0),
            },
            &mut platform,
        );
        assert!(err.is_err());
        assert_eq!(node.reconfigurations(), 0);
    }

    #[test]
    fn failed_replacement_resumes_the_old_stack_instead_of_leaking_a_block() {
        // Regression test: a description that cannot be instantiated
        // (unknown layer) used to leave the data channel
        // blocked forever after the BlockRequest had been dispatched.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
        platform.take_sent();
        platform.take_deliveries();

        let err = node.apply_reconfiguration(
            ReconfigRequest {
                channel: "data".into(),
                stack_name: "bogus".into(),
                config: unknown_layer_config(),
                epoch: 1,
                coordinator: NodeId(0),
            },
            &mut platform,
        );
        assert!(err.is_err());
        assert_eq!(node.reconfigurations(), 0);
        assert_eq!(node.current_stack(), "best-effort");

        // The failure is surfaced to the application...
        let notes: Vec<String> = platform
            .take_deliveries()
            .into_iter()
            .filter_map(|delivery| match delivery.kind {
                DeliveryKind::Notification(text) => Some(text),
                _ => None,
            })
            .collect();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("failed"));
        assert!(notes[0].contains("resumed"));

        // ... no ack was sent for the failed deployment ...
        assert!(platform
            .take_sent()
            .iter()
            .all(|packet| packet.class != PacketClass::Control));

        // ... and the old stack still carries traffic: the channel was
        // resumed, not left blocked.
        node.send_to_group(&b"still flowing"[..], &mut platform);
        let data_packets = platform
            .take_sent()
            .into_iter()
            .filter(|packet| packet.class == PacketClass::Data)
            .count();
        assert_eq!(
            data_packets, 2,
            "sends leave the node through the old stack"
        );
    }

    #[test]
    fn a_rejoining_coordinator_commands_stacks_that_do_not_rejoin() {
        // Node 0 restarted: its boot stack rejoins the group. It is also the
        // coordinator, so the stacks its Core layer commands reach everyone.
        let mut platform = TestPlatform::new(NodeId(0));
        let mut options = NodeOptions::new(members(2));
        options.rejoining = true;
        let mut node = MorpheusNode::new(options, &mut platform).unwrap();

        // Mobile node 1's context arrives: the group is hybrid.
        let mut message = Message::new();
        message.push(&ContextSnapshot::from_profile(
            &NodeProfile::mobile_pda(NodeId(1)),
            1,
        ));
        message.push(&0u8);
        let publish = ContextPublish::new(NodeId(1), Dest::Node(NodeId(0)), message);
        node.kernel
            .dispatch_and_process(node.control_channel, Event::up(publish), &mut platform);

        assert_eq!(platform.reconfig_requests.len(), 1);
        let request = &platform.reconfig_requests[0];
        assert_eq!(request.stack_name, "hybrid-mecho-relay0");
        for layer in ["recovery", "vsync"] {
            let spec = request
                .config
                .layers
                .iter()
                .find(|spec| spec.layer == layer)
                .unwrap();
            assert_eq!(
                spec.params.get("joining").map(String::as_str),
                Some("false"),
                "the commanded `{layer}` must not rejoin"
            );
        }
    }

    #[test]
    fn one_heartbeat_per_interval_leaves_the_node_across_data_stack_replacements() {
        // The control channel and every data stack hold one failure-detector
        // session: one ping per interval, on the interval's beat, however
        // often the data stack is replaced. Nobody answers here, so half an
        // interval later the ping is retried and `fanout` = 3 peers are asked
        // to ping for it.
        let mut platform = TestPlatform::new(NodeId(0));
        let mut node = MorpheusNode::new(NodeOptions::new(members(8)), &mut platform).unwrap();
        let interval = node.options.hb_interval_ms;
        platform.take_sent();
        let kinds = [
            StackKind::Reliable,
            StackKind::ErrorMasking { k: 4 },
            StackKind::BestEffort,
        ];
        let mut beats = Vec::new();
        for step in 1..=24u64 {
            platform.advance(interval / 4);
            // Three replacements, each a quarter into an interval.
            if matches!(step, 5 | 11 | 17) {
                replace_data_stack(&mut node, &kinds[(step / 6) as usize], step, &mut platform);
            }
            fire_due_timers(&mut node, &mut platform);
            let sent = sent_names(&node, &mut platform)
                .iter()
                .filter(|name| **name == "Heartbeat")
                .count();
            if sent > 0 {
                beats.push((platform.now_ms, sent));
            }
        }
        assert_eq!(node.reconfigurations(), 3);
        let expected: Vec<(u64, usize)> = (2..=12)
            .map(|half| (half * interval / 2, if half % 2 == 0 { 1 } else { 4 }))
            .collect();
        assert_eq!(beats, expected);
    }

    #[test]
    fn a_member_silent_since_before_a_replacement_is_suspected_on_time() {
        // Node 2 is silent from boot; its first ping goes unanswered at
        // 500 ms, and the data stack is replaced a quarter into its timeout.
        // The replacement must not restart its suspicion clock: view
        // synchrony proposes its removal at 4,500 ms, not 5,500. (No
        // member's rumour backs the suspicion, and node 1 could: it waits
        // twice the 2,000 ms timeout.)
        let mut platform = TestPlatform::new(NodeId(0));
        let mut node = MorpheusNode::new(fast_suspicion(), &mut platform).unwrap();
        let mut proposed_at = None;
        while proposed_at.is_none() && platform.now_ms < 6000 {
            platform.advance(250);
            node.deliver_packet(heartbeat(1, 0), &mut platform).unwrap();
            if platform.now_ms == 1000 {
                replace_data_stack(&mut node, &StackKind::Reliable, 1, &mut platform);
            }
            fire_due_timers(&mut node, &mut platform);
            if sent_names(&node, &mut platform).contains(&"ViewPrepare") {
                proposed_at = Some(platform.now_ms);
            }
        }
        assert_eq!(proposed_at, Some(4500));
    }

    #[test]
    fn a_suspicion_reaches_view_synchrony_and_the_cores_ack_quorum() {
        let mut platform = TestPlatform::new(NodeId(0));
        // The round outlasts the suspicion.
        let options = NodeOptions {
            round_timeout_ms: 6000,
            ..fast_suspicion()
        };
        let mut node = MorpheusNode::new(options, &mut platform).unwrap();
        // Node 1 is mobile: the group is hybrid and coordinator 0 commands a
        // round, which it deploys itself and node 1 acknowledges.
        publish_context(&mut node, NodeProfile::mobile_pda(NodeId(1)), &mut platform);
        publish_context(&mut node, NodeProfile::fixed_pc(NodeId(2)), &mut platform);
        let request = platform.reconfig_requests.remove(0);
        let mut message = Message::new();
        message.push(&request.epoch);
        message.push(&request.stack_name);
        let ack = ReconfigAck::new(NodeId(1), Dest::Node(NodeId(0)), message);
        node.apply_reconfiguration(request, &mut platform).unwrap();
        node.kernel
            .dispatch_and_process(node.control_channel, Event::up(ack), &mut platform);

        // Node 2, silent from boot, never acks: one suspicion, raised two
        // timeouts after its first unanswered ping (no rumour backs it),
        // both proposes its removal and lets the round complete without it.
        let (mut proposed_at, mut completed) = (None, None);
        while completed.is_none() && platform.now_ms < 5000 {
            platform.advance(250);
            node.deliver_packet(heartbeat(1, 0), &mut platform).unwrap();
            fire_due_timers(&mut node, &mut platform);
            if proposed_at.is_none() && sent_names(&node, &mut platform).contains(&"ViewPrepare") {
                proposed_at = Some(platform.now_ms);
            }
            completed = platform
                .take_deliveries()
                .into_iter()
                .find_map(|delivery| match delivery.kind {
                    DeliveryKind::ReconfigurationComplete { nodes, .. } => {
                        Some((platform.now_ms, nodes))
                    }
                    _ => None,
                });
        }
        assert_eq!(
            proposed_at,
            Some(4500),
            "view synchrony heard the suspicion"
        );
        assert_eq!(completed, Some((4500, 2)), "Core's quorum dropped node 2");
    }

    #[test]
    fn a_view_reaches_the_control_channel_once_per_view_id() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
        for peer in [1, 2] {
            publish_context(
                &mut node,
                NodeProfile::fixed_pc(NodeId(peer)),
                &mut platform,
            );
        }
        platform.take_deliveries();

        // A view announced down the data channel, as view synchrony does,
        // then one publish interval: the group sizes Cocaditem reported full
        // coverage of, which it re-checks after every view it hears of.
        let mut announce = |view_id: u64| {
            let view = View::new(view_id, vec![NodeId(0), NodeId(1)]);
            node.kernel.dispatch_and_process(
                node.data_channel,
                Event::down(ViewInstall { view }),
                &mut platform,
            );
            platform.advance(node.options.publish_interval_ms);
            fire_due_timers(&mut node, &mut platform);
            platform
                .take_deliveries()
                .into_iter()
                .filter_map(|delivery| match delivery.kind {
                    DeliveryKind::ContextConverged { nodes } => Some(nodes),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(announce(1), vec![2], "view 1 expelled node 2");
        assert_eq!(
            announce(1),
            Vec::<usize>::new(),
            "a re-announce is not relayed"
        );
        assert_eq!(announce(2), vec![2], "the next view id is");
    }
}
