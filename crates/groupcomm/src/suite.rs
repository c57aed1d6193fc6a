//! Suite registration and standard stack compositions.
//!
//! [`register_suite`] makes every layer and sendable event type of the group
//! communication suite available to a kernel. [`StackBuilder`] produces the
//! declarative channel descriptions ([`ChannelConfig`]) for the standard
//! compositions the Morpheus Core subsystem switches between: plain
//! best-effort multicast, Mecho (hybrid scenarios), gossip (large groups),
//! NACK-based reliability, FEC, and causal or total ordering on top of view
//! synchrony.

use morpheus_appia::config::{ChannelConfig, LayerSpec};
use morpheus_appia::kernel::Kernel;
use morpheus_appia::platform::NodeId;

use crate::beb::BebLayer;
use crate::causal::CausalLayer;
use crate::events::{
    FecParity, FlushAck, GossipBatch, GossipRepairDigest, GossipRepairFloor, GossipRepairPull,
    GossipRepairPush, Heartbeat, JoinRequest, NackRequest, OrderInfo, StaleBallot, ViewCommit,
    ViewPrepare,
};
use crate::failure_detector::FailureDetectorLayer;
use crate::fec::FecLayer;
use crate::fifo::FifoLayer;
use crate::gossip::GossipLayer;
use crate::mecho::MechoLayer;
use crate::recovery::{RecoveryLayer, StateChunk, StateRequest};
use crate::reliable::ReliableLayer;
use crate::total::TotalLayer;
use crate::vsync::VsyncLayer;

/// Registers every layer and sendable event of the suite with the kernel.
///
/// The registered [`RecoveryLayer`] carries no state sections; a node
/// runtime that wants rejoin state transfer re-registers it with its
/// sections (see [`RecoveryLayer::with_sections`]) — registration replaces
/// the previous entry by name.
pub fn register_suite(kernel: &mut Kernel) {
    let layers = kernel.layers_mut();
    layers.register(BebLayer);
    layers.register(MechoLayer);
    layers.register(GossipLayer);
    layers.register(FifoLayer);
    layers.register(ReliableLayer);
    layers.register(FecLayer);
    layers.register(FailureDetectorLayer);
    layers.register(RecoveryLayer::new());
    layers.register(VsyncLayer);
    layers.register(CausalLayer);
    layers.register(TotalLayer);

    let events = kernel.events_mut();
    Heartbeat::register(events);
    NackRequest::register(events);
    GossipRepairDigest::register(events);
    GossipRepairPull::register(events);
    GossipRepairPush::register(events);
    GossipRepairFloor::register(events);
    GossipBatch::register(events);
    ViewPrepare::register(events);
    FlushAck::register(events);
    ViewCommit::register(events);
    JoinRequest::register(events);
    StaleBallot::register(events);
    StateRequest::register(events);
    StateChunk::register(events);
    FecParity::register(events);
    OrderInfo::register(events);
}

/// Which multicast micro-protocol sits at the base of the stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Multicast {
    /// Plain best-effort multicast (one point-to-point send per member).
    Beb {
        /// Use native multicast when the platform offers it.
        use_native: bool,
    },
    /// The Mecho adaptive multicast.
    Mecho {
        /// Operational mode: `"wired"`, `"wireless"` or `"auto"`.
        mode: String,
        /// The fixed relay mobile nodes send to.
        relay: Option<NodeId>,
    },
    /// Epidemic multicast.
    Gossip {
        /// Number of random targets per push.
        fanout: usize,
        /// Number of forwarding rounds.
        ttl: u32,
    },
}

/// Which loss-handling micro-protocol the stack includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// No recovery: best-effort delivery only.
    None,
    /// Per-sender FIFO ordering without recovery.
    Fifo,
    /// NACK-based retransmission (detect and recover).
    Reliable,
    /// XOR-parity forward error correction (mask the errors).
    Fec {
        /// Block size: one parity message per `k` data messages.
        k: usize,
    },
}

/// Which group ordering guarantee the stack provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// No inter-member ordering guarantee.
    None,
    /// Causal order (vector clocks).
    Causal,
    /// Total order (sequencer).
    Total,
}

/// Gossip fan-out of the control mechanisms in generated stacks: the
/// failure detector's liveness digests and view synchrony's flush gossip.
const CONTROL_FANOUT: usize = 3;

/// View size at which view synchrony's flush collection rides the gossip
/// plane.
const VSYNC_GOSSIP_THRESHOLD: usize = 50;

/// The failure detector's spec, shared under one key by every channel that
/// carries it — the control channel and each generated data stack — so a
/// node keeps one liveness session. The first channel to build that session
/// fixes its parameters, so every such channel renders the spec here.
/// `members` is the comma-separated membership param.
pub fn liveness_layer(members: &str, hb_interval_ms: u64, suspect_timeout_ms: u64) -> LayerSpec {
    LayerSpec::new("fd")
        .with_param("members", members)
        .with_param("hb_interval_ms", hb_interval_ms.to_string())
        .with_param("suspect_timeout_ms", suspect_timeout_ms.to_string())
        .with_param("fanout", CONTROL_FANOUT.to_string())
        .shared("liveness")
}

/// Builder for the suite's standard channel compositions.
#[derive(Debug, Clone)]
pub struct StackBuilder {
    channel_name: String,
    members: Vec<NodeId>,
    multicast: Multicast,
    reliability: Reliability,
    ordering: Ordering,
    vsync_share: Option<String>,
    hb_interval_ms: u64,
    suspect_timeout_ms: u64,
    retransmit_interval_ms: u64,
    round_timeout_ms: u64,
    transfer_chunk_bytes: usize,
    gossip_repair_interval_ms: u64,
    joining: bool,
}

impl StackBuilder {
    /// Starts a builder for a channel with the given name and membership.
    pub fn new(channel_name: impl Into<String>, members: Vec<NodeId>) -> Self {
        Self {
            channel_name: channel_name.into(),
            members,
            multicast: Multicast::Beb { use_native: false },
            reliability: Reliability::None,
            ordering: Ordering::None,
            vsync_share: None,
            hb_interval_ms: 500,
            suspect_timeout_ms: 2000,
            retransmit_interval_ms: 500,
            round_timeout_ms: 4000,
            transfer_chunk_bytes: 1024,
            gossip_repair_interval_ms: 1000,
            joining: false,
        }
    }

    /// Uses plain best-effort multicast.
    pub fn beb(mut self, use_native: bool) -> Self {
        self.multicast = Multicast::Beb { use_native };
        self
    }

    /// Uses the Mecho adaptive multicast.
    pub fn mecho(mut self, mode: impl Into<String>, relay: Option<NodeId>) -> Self {
        self.multicast = Multicast::Mecho {
            mode: mode.into(),
            relay,
        };
        self
    }

    /// Uses epidemic multicast.
    pub fn gossip(mut self, fanout: usize, ttl: u32) -> Self {
        self.multicast = Multicast::Gossip { fanout, ttl };
        self
    }

    /// Adds per-sender FIFO ordering.
    pub fn fifo(mut self) -> Self {
        self.reliability = Reliability::Fifo;
        self
    }

    /// Adds NACK-based reliable multicast.
    pub fn reliable(mut self) -> Self {
        self.reliability = Reliability::Reliable;
        self
    }

    /// Adds XOR-parity forward error correction.
    pub fn fec(mut self, k: usize) -> Self {
        self.reliability = Reliability::Fec { k };
        self
    }

    /// Adds causal ordering.
    pub fn causal(mut self) -> Self {
        self.ordering = Ordering::Causal;
        self
    }

    /// Adds sequencer-based total ordering.
    pub fn total(mut self) -> Self {
        self.ordering = Ordering::Total;
        self
    }

    /// Shares the view-synchrony session under the given key so it survives
    /// stack replacements (and can be shared across channels).
    pub fn share_vsync(mut self, key: impl Into<String>) -> Self {
        self.vsync_share = Some(key.into());
        self
    }

    /// Overrides the failure-detector timing.
    pub fn failure_detection(mut self, hb_interval_ms: u64, suspect_timeout_ms: u64) -> Self {
        self.hb_interval_ms = hb_interval_ms;
        self.suspect_timeout_ms = suspect_timeout_ms;
        self
    }

    /// Overrides the view-change round timing (retransmission cadence and
    /// round timeout) — also used as the recovery layer's join-retry cadence
    /// and transfer failover timeout.
    pub fn view_change_timing(mut self, retransmit_ms: u64, round_timeout_ms: u64) -> Self {
        self.retransmit_interval_ms = retransmit_ms;
        self.round_timeout_ms = round_timeout_ms;
        self
    }

    /// Overrides the state-transfer chunk size.
    pub fn transfer_chunk_bytes(mut self, bytes: usize) -> Self {
        self.transfer_chunk_bytes = bytes;
        self
    }

    /// Overrides the epidemic repair-pass cadence of gossip stacks (`0`
    /// disables the NACK/anti-entropy repair, leaving the pure push phase).
    pub fn gossip_repair_interval_ms(mut self, interval_ms: u64) -> Self {
        self.gossip_repair_interval_ms = interval_ms;
        self
    }

    /// Marks the stack as belonging to a restarted node re-entering the
    /// group: vsync starts with an empty view (blocked) and the recovery
    /// layer drives re-admission plus state transfer.
    pub fn rejoining(mut self, joining: bool) -> Self {
        self.joining = joining;
        self
    }

    fn members_param(&self) -> String {
        self.members
            .iter()
            .map(|m| m.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Builds the declarative channel description, bottom-first.
    pub fn build(&self) -> ChannelConfig {
        let members = self.members_param();
        let mut config = ChannelConfig::new(self.channel_name.clone());
        config = config.with_layer(LayerSpec::new("network"));

        config = config.with_layer(match &self.multicast {
            Multicast::Beb { use_native } => LayerSpec::new("beb")
                .with_param("members", &members)
                .with_param("use_native", use_native.to_string()),
            Multicast::Mecho { mode, relay } => {
                let mut spec = LayerSpec::new("mecho")
                    .with_param("members", &members)
                    .with_param("mode", mode);
                if let Some(relay) = relay {
                    spec = spec.with_param("relay", relay.0.to_string());
                }
                spec
            }
            Multicast::Gossip { fanout, ttl } => LayerSpec::new("gossip")
                .with_param("members", &members)
                .with_param("fanout", fanout.to_string())
                .with_param("ttl", ttl.to_string())
                .with_param(
                    "repair_interval_ms",
                    self.gossip_repair_interval_ms.to_string(),
                ),
        });

        match self.reliability {
            Reliability::None => {}
            Reliability::Fifo => {
                config = config.with_layer(LayerSpec::new("fifo"));
            }
            Reliability::Reliable => {
                config = config.with_layer(LayerSpec::new("reliable"));
            }
            Reliability::Fec { k } => {
                config = config.with_layer(
                    LayerSpec::new("fec")
                        .with_param("k", k.to_string())
                        .with_param("members", &members),
                );
            }
        }

        config = config.with_layer(liveness_layer(
            &members,
            self.hb_interval_ms,
            self.suspect_timeout_ms,
        ));
        // The recovery layer sits between the failure detector and view
        // synchrony: it sees Suspects (donor failover) and ViewInstalls
        // (admission) and buffers join-view data below vsync. Shared so
        // an in-flight transfer survives a stack replacement.
        config = config.with_layer(
            LayerSpec::new("recovery")
                .with_param("members", &members)
                .with_param("retry_ms", self.retransmit_interval_ms.to_string())
                .with_param("transfer_timeout_ms", self.round_timeout_ms.to_string())
                .with_param("chunk_bytes", self.transfer_chunk_bytes.to_string())
                .with_param("joining", self.joining.to_string())
                .shared("recovery"),
        );
        let mut vsync = LayerSpec::new("vsync")
            .with_param("members", &members)
            .with_param(
                "retransmit_interval_ms",
                self.retransmit_interval_ms.to_string(),
            )
            .with_param("round_timeout_ms", self.round_timeout_ms.to_string())
            .with_param("gossip_threshold", VSYNC_GOSSIP_THRESHOLD.to_string())
            .with_param("fanout", CONTROL_FANOUT.to_string())
            .with_param("joining", self.joining.to_string());
        if let Some(key) = &self.vsync_share {
            vsync = vsync.shared(key.clone());
        }
        config = config.with_layer(vsync);

        match self.ordering {
            Ordering::None => {}
            Ordering::Causal => {
                config =
                    config.with_layer(LayerSpec::new("causal").with_param("members", &members));
            }
            Ordering::Total => {
                config = config.with_layer(LayerSpec::new("total").with_param("members", &members));
            }
        }

        config.with_layer(LayerSpec::new("app"))
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::TestPlatform;

    use super::*;

    fn members(count: u32) -> Vec<NodeId> {
        (0..count).map(NodeId).collect()
    }

    #[test]
    fn suite_registers_all_layers_and_events() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        for layer in [
            "beb", "mecho", "gossip", "fifo", "reliable", "fec", "fd", "recovery", "vsync",
            "causal", "total",
        ] {
            assert!(kernel.layers().contains(layer), "layer `{layer}` missing");
        }
        for event in [
            "Heartbeat",
            "NackRequest",
            "GossipRepairFloor",
            "GossipBatch",
            "ViewPrepare",
            "FlushAck",
            "ViewCommit",
            "StateRequest",
            "StateChunk",
            "FecParity",
            "OrderInfo",
        ] {
            assert!(kernel.events().contains(event), "event `{event}` missing");
        }
    }

    #[test]
    fn default_stack_is_best_effort_with_membership() {
        let config = StackBuilder::new("data", members(3)).build();
        assert_eq!(
            config.layer_names(),
            vec!["network", "beb", "fd", "recovery", "vsync", "app"]
        );
    }

    #[test]
    fn hybrid_stack_uses_mecho_with_relay() {
        let config = StackBuilder::new("data", members(4))
            .mecho("wireless", Some(NodeId(0)))
            .reliable()
            .total()
            .build();
        assert_eq!(
            config.layer_names(),
            vec!["network", "mecho", "reliable", "fd", "recovery", "vsync", "total", "app"]
        );
        let mecho = &config.layers[1];
        assert_eq!(mecho.params.get("relay").map(String::as_str), Some("0"));
        assert_eq!(
            mecho.params.get("mode").map(String::as_str),
            Some("wireless")
        );
    }

    #[test]
    fn gossip_and_fec_stacks_compose() {
        let config = StackBuilder::new("data", members(16))
            .gossip(4, 3)
            .fec(8)
            .causal()
            .build();
        assert_eq!(
            config.layer_names(),
            vec!["network", "gossip", "fec", "fd", "recovery", "vsync", "causal", "app"]
        );
    }

    /// The gossip layer's description carries exactly the params the layer
    /// reads: its credit window, batch size and repair bounds are constants
    /// of `gossip.rs`, not knobs a stack could set.
    #[test]
    fn a_gossip_stack_sets_only_the_params_gossip_reads() {
        let config = StackBuilder::new("data", members(16))
            .gossip(4, 3)
            .gossip_repair_interval_ms(500)
            .build();
        let gossip = config
            .layers
            .iter()
            .find(|layer| layer.layer == "gossip")
            .expect("a gossip stack has a gossip layer");
        let keys: Vec<&str> = gossip.params.keys().map(String::as_str).collect();
        assert_eq!(keys, ["fanout", "members", "repair_interval_ms", "ttl"]);
    }

    #[test]
    fn every_standard_stack_instantiates_on_a_kernel() {
        let builders = vec![
            StackBuilder::new("a", members(3)),
            StackBuilder::new("b", members(3))
                .mecho("auto", Some(NodeId(0)))
                .reliable(),
            StackBuilder::new("c", members(3))
                .gossip(2, 2)
                .fifo()
                .causal(),
            StackBuilder::new("d", members(3)).beb(true).fec(4).total(),
            StackBuilder::new("e", members(3))
                .reliable()
                .share_vsync("group"),
        ];
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = TestPlatform::new(NodeId(0));
        for builder in builders {
            let config = builder.build();
            kernel
                .create_channel(&config, &mut platform)
                .unwrap_or_else(|err| panic!("stack `{}` failed: {err}", config.name));
        }
    }

    #[test]
    fn stack_descriptions_roundtrip_through_xml() {
        let config = StackBuilder::new("data", members(5))
            .mecho("wired", Some(NodeId(0)))
            .reliable()
            .share_vsync("group")
            .total()
            .build();
        let text = config.to_xml();
        let parsed = ChannelConfig::from_xml(&text).unwrap();
        assert_eq!(parsed, config);
    }
}
