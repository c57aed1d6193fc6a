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
//! It also acts as the Core *local module*: when the control layer requests a
//! reconfiguration, the node drives the data channel to quiescence (blocking
//! it through the view-synchrony layer), swaps the stack via the kernel's
//! channel replacement and resumes the flow — the sequence Section 3.3 of the
//! paper describes.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use morpheus_appia::config::ChannelConfig;
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
use morpheus_groupcomm::events::{BlockRequest, ResumeRequest, ViewInstall};
use morpheus_groupcomm::recovery::{RecoveryLayer, StateSection};
use morpheus_groupcomm::{register_suite, View};

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
    /// Failure-detector heartbeat period for generated stacks (and for the
    /// control channel's own failure detector).
    pub hb_interval_ms: u64,
    /// Failure-detector suspicion timeout for generated stacks (and for the
    /// control channel's own failure detector).
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
    /// Sensible defaults for a group of the given members.
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
        let catalog = Rc::new(
            StackCatalog::new(&options.data_channel, options.members.clone())
                .with_failure_detection(options.hb_interval_ms, options.suspect_timeout_ms)
                .with_view_change_timing(options.retransmit_interval_ms, options.round_timeout_ms)
                .with_transfer_chunk_bytes(options.transfer_chunk_bytes)
                .with_gossip_repair(options.gossip_repair_interval_ms),
        );
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

    /// Counters of the data channel's recovery session as
    /// `(buffer_shed, catchups)`: application sends shed from the bounded
    /// join-view buffer, and completed repair→snapshot catch-up transfers.
    /// `None` when the data stack carries no recovery layer.
    pub fn recovery_stats(&self) -> Option<(u64, u64)> {
        let channel = self.kernel.channel(self.data_channel)?;
        let session = channel.session_of(morpheus_groupcomm::recovery::RECOVERY_LAYER)?;
        let session = session.borrow();
        session
            .as_any()?
            .downcast_ref::<morpheus_groupcomm::recovery::RecoverySession>()
            .map(|recovery| (recovery.buffer_shed(), recovery.catchup_count()))
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

    /// Installs a data-channel view on the **control** channel.
    ///
    /// View synchrony lives only in the generated data stacks; the control
    /// channel (fd → cocaditem → core) never sees its `ViewInstall`s
    /// directly. The node runtime calls this when the application is told
    /// about a view change, so the control plane treats installed views as
    /// authoritative membership: the failure detector stops tracking
    /// expelled members, the context store drops their snapshots, and the
    /// core layer removes them from ack quorums and generated stack
    /// configurations. Idempotent — re-announcements of the current view
    /// (e.g. across a stack replacement) are harmless.
    pub fn install_control_view(
        &mut self,
        view_id: u64,
        members: Vec<NodeId>,
        platform: &mut dyn Platform,
    ) {
        let view = View::new(view_id, members);
        self.kernel.dispatch_and_process(
            self.control_channel,
            Event::down(ViewInstall { view }),
            platform,
        );
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
        let config = ChannelConfig::from_xml(&request.description)?;

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
        let new_channel = match self
            .kernel
            .replace_channel(&request.channel, &config, platform)
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
    use morpheus_appia::event::Dest;
    use morpheus_appia::platform::{NodeProfile, PacketClass, TestPlatform};
    use morpheus_cocaditem::{ContextPublish, ContextSnapshot};

    use super::*;

    fn members(count: u32) -> Vec<NodeId> {
        (0..count).map(NodeId).collect()
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
                description: hybrid.to_xml(),
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
                description: hybrid.to_xml(),
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

    #[test]
    fn bad_reconfiguration_descriptions_are_rejected() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut node = MorpheusNode::new(NodeOptions::new(members(2)), &mut platform).unwrap();
        let err = node.apply_reconfiguration(
            ReconfigRequest {
                channel: "data".into(),
                stack_name: "broken".into(),
                description: "<not-xml".into(),
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
        // Regression test: a description that *parses* but cannot be
        // instantiated (unknown layer) used to leave the data channel
        // blocked forever after the BlockRequest had been dispatched.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
        platform.take_sent();
        platform.take_deliveries();

        let err = node.apply_reconfiguration(
            ReconfigRequest {
                channel: "data".into(),
                stack_name: "bogus".into(),
                description: "<channel name=\"data\"><layer name=\"no-such-layer\"/></channel>"
                    .into(),
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
        message.push(&0u32);
        let publish = ContextPublish::new(NodeId(1), Dest::Node(NodeId(0)), message);
        node.kernel
            .dispatch_and_process(node.control_channel, Event::up(publish), &mut platform);

        assert_eq!(platform.reconfig_requests.len(), 1);
        let request = &platform.reconfig_requests[0];
        assert_eq!(request.stack_name, "hybrid-mecho-relay0");
        let config = ChannelConfig::from_xml(&request.description).unwrap();
        for layer in ["recovery", "vsync"] {
            let spec = config
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
}
