//! Mecho — the paper's adaptive best-effort multicast.
//!
//! Mecho ("Multicast Echo") replaces the plain best-effort multicast in
//! hybrid fixed/mobile scenarios. Its behaviour depends on the operational
//! mode of the local node:
//!
//! * **wireless** (mobile node): a group send becomes a *single*
//!   point-to-point message to a selected fixed relay, tagged as a relay
//!   request. This is what keeps the mobile node's transmission count flat as
//!   the group grows (paper Figure 3).
//! * **wired** (fixed node): group sends behave like the plain best-effort
//!   multicast; additionally, incoming relay requests are re-multicast to the
//!   remaining group members on behalf of the mobile origin (the fixed node
//!   pays the fan-out, per the paper's footnote 1).

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::DataEvent;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, Layer, LayerParams};
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;

use crate::events::ViewInstall;
use crate::headers::{McastHeader, McastMode};

/// Registered name of the Mecho adaptive multicast layer.
pub const MECHO_LAYER: &str = "mecho";

/// Operational mode of a Mecho session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechoMode {
    /// Fixed node: multicasts directly and relays on behalf of mobile nodes.
    Wired,
    /// Mobile node: sends a single message to the relay.
    Wireless,
    /// Decide from the local device class on first use.
    Auto,
}

impl MechoMode {
    fn parse(raw: Option<&String>) -> Self {
        match raw.map(String::as_str) {
            Some("wired") => MechoMode::Wired,
            Some("wireless") => MechoMode::Wireless,
            _ => MechoMode::Auto,
        }
    }
}

/// The Mecho adaptive multicast layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial group membership;
/// * `mode` — `"wired"`, `"wireless"` or `"auto"` (default: `auto`, resolved
///   from the local device class);
/// * `relay` — node id of the fixed relay mobile nodes send to (default: the
///   lowest member id, re-picked from each installed view until one is set
///   and whenever it leaves the view).
pub struct MechoLayer;

impl Layer for MechoLayer {
    fn name(&self) -> &str {
        MECHO_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::of::<DataEvent>(), EventSpec::of::<ViewInstall>()]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["DataEvent"]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let members = param_node_list(params, "members");
        let relay = params
            .get("relay")
            .and_then(|raw| raw.parse::<u32>().ok())
            .map(NodeId)
            .or_else(|| members.iter().copied().min());
        Box::new(MechoSession {
            members,
            mode: MechoMode::parse(params.get("mode")),
            relay,
        })
    }
}

/// Session state of the Mecho layer.
#[derive(Debug)]
pub struct MechoSession {
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    mode: MechoMode,
    relay: Option<NodeId>,
}

impl MechoSession {
    fn effective_mode(&self, ctx: &EventContext<'_>) -> MechoMode {
        match self.mode {
            MechoMode::Auto => {
                if ctx.profile().device_class.is_mobile() {
                    MechoMode::Wireless
                } else {
                    MechoMode::Wired
                }
            }
            other => other,
        }
    }

    fn others(&self, exclude: &[NodeId]) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|member| !exclude.contains(member))
            .collect()
    }
}

impl Session for MechoSession {
    fn layer_name(&self) -> &str {
        MECHO_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if let Some(install) = event.get::<ViewInstall>() {
            self.members = install.view.members.clone();
            if self
                .relay
                .is_none_or(|relay| !self.members.contains(&relay))
            {
                self.relay = self.members.iter().copied().min();
            }
            ctx.forward(event);
            return;
        }

        match event.direction {
            Direction::Down => {
                let local = ctx.node_id();
                let mode = self.effective_mode(ctx);
                if let Some(data) = event.get_mut::<DataEvent>() {
                    if data.header.dest == Dest::Group {
                        let origin = data.header.source;
                        match (mode, self.relay) {
                            (MechoMode::Wireless, Some(relay)) if relay != local => {
                                data.message.push(&McastHeader {
                                    mode: McastMode::RelayRequest,
                                    origin,
                                });
                                data.header.dest = Dest::Node(relay);
                            }
                            _ => {
                                data.message.push(&McastHeader {
                                    mode: McastMode::Direct,
                                    origin,
                                });
                                data.header.dest = Dest::Nodes(self.others(&[local]));
                            }
                        }
                    } else {
                        data.message.push(&McastHeader {
                            mode: McastMode::Direct,
                            origin: data.header.source,
                        });
                    }
                }
                ctx.forward(event);
            }
            Direction::Up => {
                let local = ctx.node_id();
                let mode = self.effective_mode(ctx);
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                let Ok(header) = data.message.pop::<McastHeader>() else {
                    return;
                };
                if header.mode == McastMode::RelayRequest && mode == MechoMode::Wired {
                    // Re-multicast on behalf of the mobile origin.
                    let recipients = self.others(&[local, header.origin]);
                    if !recipients.is_empty() {
                        let mut relayed_message = data.message.clone();
                        relayed_message.push(&McastHeader {
                            mode: McastMode::Direct,
                            origin: header.origin,
                        });
                        let relayed =
                            DataEvent::new(header.origin, Dest::Nodes(recipients), relayed_message);
                        ctx.dispatch(Event::down(relayed));
                    }
                }
                // Deliver locally regardless of relay duties; the original
                // source is preserved in the event header.
                data.header.source = header.origin;
                ctx.forward(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::config::{ChannelConfig, LayerSpec};
    use morpheus_appia::platform::{DeliveryKind, InPacket, NodeProfile, PacketDest, TestPlatform};
    use morpheus_appia::{Kernel, Message};

    use super::*;
    use crate::suite::register_suite;

    fn mecho_config(members: &[u32], mode: &str, relay: u32) -> ChannelConfig {
        let members_param = members
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(",");
        ChannelConfig::new("data")
            .with_layer(LayerSpec::new("network"))
            .with_layer(
                LayerSpec::new("mecho")
                    .with_param("members", members_param)
                    .with_param("mode", mode)
                    .with_param("relay", relay.to_string()),
            )
            .with_layer(LayerSpec::new("app"))
    }

    fn mobile_platform(id: u32) -> TestPlatform {
        TestPlatform::with_profile(NodeProfile::mobile_pda(NodeId(id)))
    }

    #[test]
    fn wireless_mode_sends_a_single_message_to_the_relay() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = mobile_platform(2);
        let id = kernel
            .create_channel(
                &mecho_config(&[0, 1, 2, 3, 4, 5], "wireless", 0),
                &mut platform,
            )
            .unwrap();

        let event = Event::down(DataEvent::to_group(
            NodeId(2),
            Message::with_payload(&b"m"[..]),
        ));
        kernel.dispatch_and_process(id, event, &mut platform);

        let sent = platform.take_sent();
        assert_eq!(
            sent.len(),
            1,
            "mobile node sends exactly one message regardless of group size"
        );
        assert_eq!(sent[0].dest, PacketDest::Node(NodeId(0)));
    }

    #[test]
    fn wired_mode_multicasts_directly() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = TestPlatform::new(NodeId(0));
        let id = kernel
            .create_channel(&mecho_config(&[0, 1, 2, 3], "wired", 0), &mut platform)
            .unwrap();

        let event = Event::down(DataEvent::to_group(NodeId(0), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        assert_eq!(platform.take_sent().len(), 3);
    }

    #[test]
    fn relay_remulticasts_on_behalf_of_the_mobile_origin() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);

        // Mobile node 2 sends through relay 0 in a 4-node group.
        let mut mobile = mobile_platform(2);
        let mobile_channel = kernel
            .create_channel(&mecho_config(&[0, 1, 2, 3], "wireless", 0), &mut mobile)
            .unwrap();
        let event = Event::down(DataEvent::to_group(
            NodeId(2),
            Message::with_payload(&b"x"[..]),
        ));
        kernel.dispatch_and_process(mobile_channel, event, &mut mobile);
        let sent = mobile.take_sent();
        assert_eq!(sent.len(), 1);

        // The fixed relay receives the relay request.
        let mut relay_kernel = Kernel::new();
        register_suite(&mut relay_kernel);
        let mut relay_platform = TestPlatform::new(NodeId(0));
        relay_kernel
            .create_channel(
                &mecho_config(&[0, 1, 2, 3], "wired", 0),
                &mut relay_platform,
            )
            .unwrap();
        relay_kernel
            .deliver_packet(
                InPacket {
                    from: NodeId(2),
                    to: NodeId(0),
                    class: sent[0].class,
                    channel: sent[0].channel.clone(),
                    payload: sent[0].payload.clone(),
                },
                &mut relay_platform,
            )
            .unwrap();

        // The relay delivers locally and re-multicasts to nodes 1 and 3.
        let deliveries = relay_platform.take_deliveries();
        assert!(deliveries.iter().any(|d| matches!(
            &d.kind,
            DeliveryKind::Data { from, .. } if *from == NodeId(2)
        )));
        let relayed = relay_platform.take_sent();
        assert_eq!(relayed.len(), 2);
        let mut dests: Vec<PacketDest> = relayed.iter().map(|p| p.dest.clone()).collect();
        dests.sort_by_key(|d| match d {
            PacketDest::Node(n) => n.0,
            PacketDest::Broadcast => u32::MAX,
        });
        assert_eq!(
            dests,
            vec![PacketDest::Node(NodeId(1)), PacketDest::Node(NodeId(3))]
        );
    }

    #[test]
    fn relayed_message_preserves_the_original_source() {
        // Node 1 (fixed, not the relay) receives the relayed copy and must see
        // the mobile origin as the source.
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut relay_platform = TestPlatform::new(NodeId(0));
        let relay_channel = kernel
            .create_channel(&mecho_config(&[0, 1, 2], "wired", 0), &mut relay_platform)
            .unwrap();

        // Build a relay request as the mobile node would.
        let mut message = Message::with_payload(&b"from-mobile"[..]);
        message.push(&McastHeader {
            mode: McastMode::RelayRequest,
            origin: NodeId(2),
        });
        let event = Event::up(DataEvent::new(NodeId(2), Dest::Node(NodeId(0)), message));
        kernel.dispatch_and_process(relay_channel, event, &mut relay_platform);

        let relayed = relay_platform.take_sent();
        assert_eq!(relayed.len(), 1);

        // Feed the relayed packet to node 1 and check the delivery source.
        let mut receiver = Kernel::new();
        register_suite(&mut receiver);
        let mut receiver_platform = TestPlatform::new(NodeId(1));
        receiver
            .create_channel(
                &mecho_config(&[0, 1, 2], "wired", 0),
                &mut receiver_platform,
            )
            .unwrap();
        receiver
            .deliver_packet(
                InPacket {
                    from: NodeId(0),
                    to: NodeId(1),
                    class: relayed[0].class,
                    channel: relayed[0].channel.clone(),
                    payload: relayed[0].payload.clone(),
                },
                &mut receiver_platform,
            )
            .unwrap();
        let deliveries = receiver_platform.take_deliveries();
        assert_eq!(deliveries.len(), 1);
        match &deliveries[0].kind {
            DeliveryKind::Data { from, payload } => {
                assert_eq!(*from, NodeId(2));
                assert_eq!(payload.as_ref(), b"from-mobile");
            }
            other => panic!("unexpected delivery {other:?}"),
        }
    }

    #[test]
    fn auto_mode_follows_the_device_class() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = mobile_platform(3);
        let config = {
            let members = "0,1,2,3";
            ChannelConfig::new("data")
                .with_layer(LayerSpec::new("network"))
                .with_layer(
                    LayerSpec::new("mecho")
                        .with_param("members", members)
                        .with_param("relay", "0"),
                )
                .with_layer(LayerSpec::new("app"))
        };
        let id = kernel.create_channel(&config, &mut platform).unwrap();
        let event = Event::down(DataEvent::to_group(NodeId(3), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        assert_eq!(
            platform.take_sent().len(),
            1,
            "auto mode on a PDA behaves as wireless"
        );
    }

    #[test]
    fn a_spec_without_relay_or_members_picks_its_relay_from_the_view() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = mobile_platform(2);
        let config = ChannelConfig::new("data")
            .with_layer(LayerSpec::new("network"))
            .with_layer(LayerSpec::new("mecho").with_param("mode", "wireless"))
            .with_layer(LayerSpec::new("app"));
        let id = kernel.create_channel(&config, &mut platform).unwrap();

        let view = crate::view::View::new(1, vec![NodeId(1), NodeId(2), NodeId(3)]);
        kernel.dispatch_and_process(id, Event::down(ViewInstall { view }), &mut platform);
        let event = Event::down(DataEvent::to_group(NodeId(2), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        let sent = platform.take_sent();
        assert_eq!(sent.len(), 1, "one relay request, not a multicast");
        assert_eq!(sent[0].dest, PacketDest::Node(NodeId(1)));
    }

    #[test]
    fn view_install_prunes_a_vanished_relay() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = mobile_platform(2);
        let id = kernel
            .create_channel(&mecho_config(&[0, 1, 2], "wireless", 0), &mut platform)
            .unwrap();

        // Relay 0 leaves the group; the layer falls back to the lowest member.
        let view = crate::view::View::new(1, vec![NodeId(1), NodeId(2)]);
        kernel.dispatch_and_process(id, Event::down(ViewInstall { view }), &mut platform);
        let event = Event::down(DataEvent::to_group(NodeId(2), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        let sent = platform.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].dest, PacketDest::Node(NodeId(1)));
    }
}
