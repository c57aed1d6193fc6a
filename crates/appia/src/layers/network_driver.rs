//! The network driver layer: the bottom of every stack.

use crate::event::{Category, Dest, Direction, Event, EventSpec};
use crate::kernel::EventContext;
use crate::layer::{Layer, LayerParams};
use crate::platform::PacketDest;
use crate::session::Session;

/// Layer that maps sendable events onto packets.
///
/// Going down, the destination decides how many packets are produced:
///
/// * [`Dest::Node`] — one point-to-point packet (a send addressed to the
///   local node is looped back up instead of hitting the network);
/// * [`Dest::Nodes`] — one point-to-point packet per destination;
/// * [`Dest::Group`] — one native-multicast packet when the platform reports
///   native multicast support; otherwise the event is dropped, because a
///   multicast layer above should have resolved the group destination.
///
/// Going up the layer is transparent.
pub struct NetworkDriverLayer;

/// Registered name of the network driver layer.
pub const NETWORK_LAYER: &str = "network";

impl Layer for NetworkDriverLayer {
    fn name(&self) -> &str {
        NETWORK_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::Category(Category::Sendable)]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["DataEvent"]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(NetworkDriverSession)
    }
}

/// Session of the network driver: it keeps no state.
#[derive(Debug, Default)]
pub struct NetworkDriverSession;

impl Session for NetworkDriverSession {
    fn layer_name(&self) -> &str {
        NETWORK_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.direction == Direction::Up {
            ctx.forward(event);
            return;
        }
        let local = ctx.node_id();
        let Some(sendable) = event.payload.as_sendable_mut() else {
            ctx.forward(event);
            return;
        };
        let class = sendable.header().class;

        // A send addressed solely to the local node is looped back up
        // instead of hitting the network. This is the only case that needs
        // the event by value, so it is handled before serialisation.
        if matches!(sendable.header().dest, Dest::Node(node) if node == local) {
            event.direction = Direction::Up;
            ctx.dispatch_from_edge(event);
            return;
        }

        // Serialise once through the kernel's reusable scratch buffer; the
        // destination is borrowed rather than cloned (for `Dest::Nodes` the
        // clone used to copy the whole membership list per packet).
        let sendable = event.payload.as_sendable().expect("checked above");
        match &sendable.header().dest {
            Dest::Node(node) => {
                let bytes = ctx.encode_sendable(sendable);
                ctx.send_packet(PacketDest::Node(*node), class, bytes);
            }
            Dest::Nodes(nodes) => {
                let bytes = ctx.encode_sendable(sendable);
                for &node in nodes {
                    if node == local {
                        continue;
                    }
                    ctx.send_packet(PacketDest::Node(node), class, bytes.clone());
                }
            }
            Dest::Group => {
                if ctx.profile().has_native_multicast {
                    let bytes = ctx.encode_sendable(sendable);
                    ctx.send_packet(PacketDest::Broadcast, class, bytes);
                }
                // Without native multicast a group destination reaching the
                // driver is a composition error; the event is dropped.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelConfig, LayerSpec};
    use crate::events::DataEvent;
    use crate::kernel::Kernel;
    use crate::message::Message;
    use crate::platform::{NodeId, NodeProfile, PacketClass, TestPlatform};

    fn kernel_with(name: &str) -> (Kernel, TestPlatform, crate::channel::ChannelId) {
        let mut kernel = Kernel::new();
        let mut platform = TestPlatform::new(NodeId(1));
        let config = ChannelConfig::new(name)
            .with_layer(LayerSpec::new("network"))
            .with_layer(LayerSpec::new("app"));
        let id = kernel.create_channel(&config, &mut platform).unwrap();
        (kernel, platform, id)
    }

    #[test]
    fn node_destination_produces_one_packet() {
        let (mut kernel, mut platform, id) = kernel_with("data");
        let event = Event::down(DataEvent::new(
            NodeId(1),
            Dest::Node(NodeId(2)),
            Message::with_payload(&b"x"[..]),
        ));
        kernel.dispatch_and_process(id, event, &mut platform);
        let sent = platform.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].dest, PacketDest::Node(NodeId(2)));
    }

    #[test]
    fn self_destination_is_looped_back() {
        let (mut kernel, mut platform, id) = kernel_with("data");
        let event = Event::down(DataEvent::new(
            NodeId(1),
            Dest::Node(NodeId(1)),
            Message::with_payload(&b"me"[..]),
        ));
        kernel.dispatch_and_process(id, event, &mut platform);
        assert!(platform.take_sent().is_empty());
        assert_eq!(platform.data_delivery_count(), 1);
    }

    #[test]
    fn node_list_skips_self_and_fans_out() {
        let (mut kernel, mut platform, id) = kernel_with("data");
        let event = Event::down(DataEvent::new(
            NodeId(1),
            Dest::Nodes(vec![NodeId(1), NodeId(2), NodeId(3)]),
            Message::with_payload(&b"x"[..]),
        ));
        kernel.dispatch_and_process(id, event, &mut platform);
        let sent = platform.take_sent();
        assert_eq!(sent.len(), 2);
    }

    #[test]
    fn group_destination_without_native_multicast_is_dropped() {
        let (mut kernel, mut platform, id) = kernel_with("data");
        let event = Event::down(DataEvent::to_group(NodeId(1), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        assert!(platform.take_sent().is_empty());
    }

    #[test]
    fn group_destination_with_native_multicast_broadcasts_once() {
        let mut profile = NodeProfile::fixed_pc(NodeId(1));
        profile.has_native_multicast = true;
        let mut kernel = Kernel::new();
        let mut platform = TestPlatform::with_profile(profile);
        let config = ChannelConfig::new("data")
            .with_layer(LayerSpec::new("network"))
            .with_layer(LayerSpec::new("app"));
        let id = kernel.create_channel(&config, &mut platform).unwrap();

        let event = Event::down(DataEvent::to_group(NodeId(1), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        let sent = platform.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].dest, PacketDest::Broadcast);
        assert_eq!(sent[0].class, PacketClass::Data);
    }
}
