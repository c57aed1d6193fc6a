//! The catalogue of named stack configurations the Core subsystem deploys.

use morpheus_appia::config::{ChannelConfig, LayerSpec};
use morpheus_appia::platform::NodeId;
use morpheus_groupcomm::suite::{liveness_layer, StackBuilder};

use crate::node::NodeOptions;
use crate::policy::StackKind;

/// Key every generated data stack shares its view-synchrony session under.
const GROUP_SHARE_KEY: &str = "group";

/// Produces the declarative channel descriptions for every [`StackKind`],
/// over a fixed data-channel name.
///
/// All generated data stacks share the view-synchrony session under the same
/// key, so the group state (current view, blocked/buffered messages) survives
/// a stack replacement — this is what makes the reconfiguration lossless for
/// the application.
///
/// A reconfiguration command carries only the [`StackKind`]'s name; the node
/// that deploys it renders the channel from its own catalogue. A commanded
/// description is a function of the kind alone — it names the stack, not
/// the group — so every node renders the same one at any group size. The
/// catalogue's membership is the *boot* view, written only into the node's
/// boot stack — the first data channel, which builds the shared liveness,
/// recovery and view-synchrony sessions. Every later stack reuses those
/// sessions and learns the current view from view synchrony's announce on
/// `ChannelInit`.
///
/// A node owns one catalogue: it renders its boot stack from it and hands it
/// to the Core control layer, which renders every stack it commands from the
/// same one. Whether the node boots *rejoining* is a property of its boot
/// stack only, never of the catalogue — a restarted coordinator must not
/// command joining stacks to the group.
#[derive(Debug, Clone)]
pub struct StackCatalog {
    channel: String,
    members: Vec<NodeId>,
    hb_interval_ms: u64,
    suspect_timeout_ms: u64,
    retransmit_interval_ms: u64,
    round_timeout_ms: u64,
    transfer_chunk_bytes: usize,
    gossip_repair_interval_ms: u64,
}

impl StackCatalog {
    /// Creates the catalogue of a node: its data channel, boot membership
    /// and protocol timing, as the node's options set them.
    pub fn new(options: &NodeOptions) -> Self {
        Self {
            channel: options.data_channel.clone(),
            members: options.members.clone(),
            hb_interval_ms: options.hb_interval_ms,
            suspect_timeout_ms: options.suspect_timeout_ms,
            retransmit_interval_ms: options.retransmit_interval_ms,
            round_timeout_ms: options.round_timeout_ms,
            transfer_chunk_bytes: options.transfer_chunk_bytes,
            gossip_repair_interval_ms: options.gossip_repair_interval_ms,
        }
    }

    /// Name of the data channel the catalogue's stacks are rendered for.
    pub(crate) fn channel(&self) -> &str {
        &self.channel
    }

    /// The view-change round timing `(retransmit, round timeout)`, in
    /// milliseconds — also the cadence of Core's own reconfiguration rounds.
    pub(crate) fn view_change_timing(&self) -> (u64, u64) {
        (self.retransmit_interval_ms, self.round_timeout_ms)
    }

    fn builder_for(&self, members: Vec<NodeId>) -> StackBuilder {
        StackBuilder::new(self.channel.clone(), members)
            .share_vsync(GROUP_SHARE_KEY)
            .failure_detection(self.hb_interval_ms, self.suspect_timeout_ms)
            .view_change_timing(self.retransmit_interval_ms, self.round_timeout_ms)
            .transfer_chunk_bytes(self.transfer_chunk_bytes)
            .gossip_repair_interval_ms(self.gossip_repair_interval_ms)
    }

    /// The channel description Core commands for a stack kind. It lists no
    /// member: the stack it builds on a running node learns the view from
    /// the shared view-synchrony session.
    pub fn config_for(&self, kind: &StackKind) -> ChannelConfig {
        render(self.builder_for(Vec::new()), kind)
    }

    /// The node's boot stack: the only rendering that writes the boot
    /// membership, because it builds the node's shared sessions. A restarted
    /// node re-entering the group boots it *rejoining* (vsync starts with an
    /// empty view; the recovery layer drives re-admission and state
    /// transfer).
    pub(crate) fn boot_config(&self, kind: &StackKind, rejoining: bool) -> ChannelConfig {
        render(
            self.builder_for(self.members.clone()).rejoining(rejoining),
            kind,
        )
    }

    /// The control-channel description: the failure detector, Cocaditem
    /// and the Core control layer over the raw network driver.
    ///
    /// The failure detector is the node's one liveness session, shared with
    /// every generated data stack ([`liveness_layer`]): it outlives each
    /// data-stack replacement — exactly the moment crash detection must keep
    /// working so the coordinator's ack quorum and the coordinator election
    /// stay live — and it re-announces the views view synchrony installs on
    /// the data channel up this channel, to Cocaditem and Core.
    ///
    /// The Core layer is handed this catalogue itself at registration; its
    /// spec carries only the membership, whether it adapts, and the name of
    /// the stack the node booted on.
    pub fn control_config(
        &self,
        channel: &str,
        publish_interval_ms: u64,
        adaptive: bool,
        initial_stack: &StackKind,
    ) -> ChannelConfig {
        let members_param = self
            .members
            .iter()
            .map(|m| m.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let core = LayerSpec::new("core")
            .with_param("members", &members_param)
            .with_param("adaptive", adaptive.to_string())
            .with_param("initial_stack", initial_stack.name());
        ChannelConfig::new(channel)
            .with_layer(LayerSpec::new("network"))
            .with_layer(liveness_layer(
                &members_param,
                self.hb_interval_ms,
                self.suspect_timeout_ms,
            ))
            .with_layer(
                LayerSpec::new("cocaditem")
                    .with_param("members", &members_param)
                    .with_param("publish_interval_ms", publish_interval_ms.to_string()),
            )
            .with_layer(core)
            .with_layer(LayerSpec::new("app"))
    }
}

/// Renders one stack kind through a configured builder.
fn render(builder: StackBuilder, kind: &StackKind) -> ChannelConfig {
    match kind {
        StackKind::BestEffort => builder.beb(false).build(),
        StackKind::Reliable => builder.beb(false).reliable().build(),
        StackKind::ErrorMasking { k } => builder.beb(false).fec(*k).build(),
        StackKind::HybridMecho { relay } => builder.mecho("auto", Some(*relay)).build(),
        StackKind::Gossip { fanout } => builder.gossip(*fanout).build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(count: u32) -> Vec<NodeId> {
        (0..count).map(NodeId).collect()
    }
    /// One of every stack kind Core can command.
    fn every_kind(relay: NodeId) -> [StackKind; 5] {
        [
            StackKind::BestEffort,
            StackKind::Reliable,
            StackKind::ErrorMasking { k: 4 },
            StackKind::HybridMecho { relay },
            StackKind::Gossip { fanout: 3 },
        ]
    }

    fn spec<'a>(config: &'a ChannelConfig, layer: &str) -> &'a LayerSpec {
        config
            .layers
            .iter()
            .find(|spec| spec.layer == layer)
            .unwrap()
    }

    #[test]
    fn every_kind_produces_a_distinct_stack() {
        let catalog = StackCatalog::new(&NodeOptions::new(members(4)));
        let mut multicast_layers = Vec::new();
        for kind in every_kind(NodeId(0)) {
            let config = catalog.config_for(&kind);
            assert_eq!(config.name, "data");
            assert_eq!(config.layers.first().unwrap().layer, "network");
            assert_eq!(config.layers.last().unwrap().layer, "app");
            assert!(config.has_layer("vsync"));
            multicast_layers.push(config.layers[1].layer.clone());
        }
        assert_eq!(
            multicast_layers,
            vec!["beb", "beb", "beb", "mecho", "gossip"]
        );
    }

    #[test]
    fn generated_stacks_share_the_vsync_session() {
        let catalog = StackCatalog::new(&NodeOptions::new(members(3)));
        let best_effort = catalog.config_for(&StackKind::BestEffort);
        let hybrid = catalog.config_for(&StackKind::HybridMecho { relay: NodeId(0) });
        let key = |config: &ChannelConfig| {
            config
                .layers
                .iter()
                .find(|layer| layer.layer == "vsync")
                .and_then(|layer| layer.share.clone())
        };
        assert_eq!(key(&best_effort), Some("group".to_string()));
        assert_eq!(key(&best_effort), key(&hybrid));
    }

    #[test]
    fn control_config_stacks_fd_and_cocaditem_under_core() {
        let catalog = StackCatalog::new(&NodeOptions {
            hb_interval_ms: 250,
            suspect_timeout_ms: 900,
            ..NodeOptions::new(members(3))
        });
        let config = catalog.control_config("ctrl", 500, true, &StackKind::BestEffort);
        assert_eq!(
            config.layer_names(),
            vec!["network", "fd", "cocaditem", "core", "app"]
        );
        let fd = &config.layers[1];
        assert_eq!(
            fd.params.get("hb_interval_ms").map(String::as_str),
            Some("250")
        );
        assert_eq!(
            fd.params.get("suspect_timeout_ms").map(String::as_str),
            Some("900")
        );
        // Core is handed the catalogue itself: its spec carries nothing the
        // catalogue already knows.
        let core = &config.layers[3];
        let params: Vec<(&str, &str)> = core
            .params
            .iter()
            .map(|(key, value)| (key.as_str(), value.as_str()))
            .collect();
        assert_eq!(
            params,
            vec![
                ("adaptive", "true"),
                ("initial_stack", "best-effort"),
                ("members", "0,1,2"),
            ]
        );
    }

    #[test]
    fn the_control_channel_and_every_data_stack_render_one_liveness_spec() {
        // One session serves them all and the first channel to build it — the
        // boot stack — fixes its parameters, so the boot stack renders the
        // control channel's spec exactly. A commanded stack reuses the
        // session; its spec differs only in naming no member.
        let catalog = StackCatalog::new(&NodeOptions {
            hb_interval_ms: 250,
            suspect_timeout_ms: 900,
            ..NodeOptions::new(members(3))
        });
        let control = spec(
            &catalog.control_config("ctrl", 500, true, &StackKind::BestEffort),
            "fd",
        )
        .clone();
        assert_eq!(control.share.as_deref(), Some("liveness"));
        let boot = catalog.boot_config(&StackKind::BestEffort, false);
        assert_eq!(spec(&boot, "fd"), &control);
        let memberless = control.clone().with_param("members", "");
        for kind in every_kind(NodeId(0)) {
            assert_eq!(spec(&catalog.config_for(&kind), "fd"), &memberless);
        }
    }

    #[test]
    fn no_commanded_description_names_a_member() {
        let ids = [7001, 7002, 7003, 7004];
        let catalog = StackCatalog::new(&NodeOptions::new(ids.into_iter().map(NodeId).collect()));
        for kind in every_kind(NodeId(7002)) {
            let mut config = catalog.config_for(&kind);
            for spec in &mut config.layers {
                if let Some(members) = spec.params.get("members") {
                    assert!(members.is_empty(), "{}: `{}`", kind.name(), spec.layer);
                }
                // The relay is part of the kind, not a member list.
                spec.params.remove("relay");
            }
            let xml = config.to_xml();
            for id in ids {
                assert!(!xml.contains(&id.to_string()), "{} names {id}", kind.name());
            }
        }
    }

    #[test]
    fn a_commanded_description_is_the_same_bytes_at_any_group_size() {
        let small = StackCatalog::new(&NodeOptions::new(members(4)));
        let large = StackCatalog::new(&NodeOptions::new(members(200)));
        for kind in every_kind(NodeId(0)) {
            assert_eq!(
                small.config_for(&kind).to_xml(),
                large.config_for(&kind).to_xml()
            );
        }
    }

    #[test]
    fn only_the_boot_stack_renders_rejoining_and_the_boot_view() {
        let catalog = StackCatalog::new(&NodeOptions::new(members(3)));
        let commanded = catalog.config_for(&StackKind::BestEffort);
        let rejoining = catalog.boot_config(&StackKind::BestEffort, true);
        for layer in ["recovery", "vsync"] {
            let joining = |config| spec(config, layer).params.get("joining").cloned();
            assert_eq!(joining(&rejoining).as_deref(), Some("true"));
            assert_eq!(joining(&commanded).as_deref(), Some("false"));
        }
        // Past `joining`, the boot view is all that sets the boot stack
        // apart from the commanded one.
        let mut boot = catalog.boot_config(&StackKind::BestEffort, false);
        for spec in &mut boot.layers {
            if let Some(members) = spec.params.get_mut("members") {
                assert_eq!(members, "0,1,2", "`{}` lists the boot view", spec.layer);
                members.clear();
            }
        }
        assert_eq!(boot, commanded);
    }

    #[test]
    fn configs_roundtrip_through_xml() {
        let catalog = StackCatalog::new(&NodeOptions::new(members(5)));
        for kind in [
            StackKind::BestEffort,
            StackKind::HybridMecho { relay: NodeId(2) },
            StackKind::Gossip { fanout: 2 },
        ] {
            let config = catalog.config_for(&kind);
            let parsed = ChannelConfig::from_xml(&config.to_xml()).unwrap();
            assert_eq!(parsed, config);
        }
    }
}
