//! Scenario topologies.
//!
//! A topology assigns a device kind to every node and decides, for each
//! ordered sender/receiver pair, which link model the transmission uses and
//! whether native multicast is available. Three topology kinds cover the
//! paper's scenarios plus the motivation section's large-scale setting:
//!
//! * [`TopologyKind::Lan`] — every node on the same wired LAN (homogeneous
//!   fixed scenario, optionally with native multicast);
//! * [`TopologyKind::HybridCell`] — a wired LAN with an 802.11b access point:
//!   mobile devices reach everyone over the wireless hop, fixed devices reach
//!   each other over the wire (the paper's evaluation scenario);
//! * [`TopologyKind::AdHoc`] — all nodes mobile, single wireless cell
//!   (homogeneous mobile scenario);
//! * [`TopologyKind::Wan`] — geographically distributed fixed nodes
//!   (epidemic-multicast motivation).

use crate::link::{LinkClass, LinkModel, WanLink, WiredLan, Wireless80211b};
use crate::node::{NodeId, NodeKind, SimNode};

/// The shape of the network connecting the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// All nodes on one wired LAN.
    Lan {
        /// Whether the LAN offers native (IP) multicast.
        native_multicast: bool,
    },
    /// Fixed nodes on a wired LAN plus mobile nodes behind an 802.11b access
    /// point bridging onto that LAN.
    HybridCell,
    /// All nodes mobile, one shared wireless cell.
    AdHoc,
    /// Fixed nodes spread over a wide-area network.
    Wan,
}

/// A concrete topology: node kinds plus link models.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    nodes: Vec<SimNode>,
    wired: WiredLan,
    wireless: Wireless80211b,
    wan: WanLink,
}

impl Topology {
    /// Creates a topology of the given kind over the given nodes.
    pub fn new(kind: TopologyKind, nodes: Vec<SimNode>) -> Self {
        Self {
            kind,
            nodes,
            wired: WiredLan::default(),
            wireless: Wireless80211b::default(),
            wan: WanLink::default(),
        }
    }

    /// The paper's evaluation topology: one fixed PC plus `mobile_count`
    /// PDAs in the same 802.11b cell.
    pub fn hybrid_cell(fixed_count: usize, mobile_count: usize) -> Self {
        let mut nodes = Vec::new();
        for index in 0..fixed_count {
            nodes.push(SimNode::fixed(NodeId(index as u32)));
        }
        for index in 0..mobile_count {
            nodes.push(SimNode::mobile(NodeId((fixed_count + index) as u32)));
        }
        Self::new(TopologyKind::HybridCell, nodes)
    }

    /// A homogeneous wired LAN of `count` fixed PCs.
    pub fn lan(count: usize, native_multicast: bool) -> Self {
        let nodes = (0..count)
            .map(|index| SimNode::fixed(NodeId(index as u32)))
            .collect();
        Self::new(TopologyKind::Lan { native_multicast }, nodes)
    }

    /// A homogeneous ad-hoc cell of `count` mobile PDAs.
    pub fn ad_hoc(count: usize) -> Self {
        let nodes = (0..count)
            .map(|index| SimNode::mobile(NodeId(index as u32)))
            .collect();
        Self::new(TopologyKind::AdHoc, nodes)
    }

    /// A wide-area deployment of `count` fixed nodes.
    pub fn wan(count: usize) -> Self {
        let nodes = (0..count)
            .map(|index| SimNode::fixed(NodeId(index as u32)))
            .collect();
        Self::new(TopologyKind::Wan, nodes)
    }

    /// Overrides the wireless link model (builder style).
    pub fn with_wireless(mut self, wireless: Wireless80211b) -> Self {
        self.wireless = wireless;
        self
    }

    /// Sets the bandwidth of every link model, wired, wireless and WAN
    /// (builder style): the rate at which each node's link serialises.
    pub fn with_bandwidth_kbps(mut self, bandwidth_kbps: u32) -> Self {
        self.wired.bandwidth_kbps = bandwidth_kbps;
        self.wireless.bandwidth_kbps = bandwidth_kbps;
        self.wan.bandwidth_kbps = bandwidth_kbps;
        self
    }

    /// The topology kind.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// The nodes, in id order.
    pub fn nodes(&self) -> &[SimNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node identifiers, in id order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|node| node.id).collect()
    }

    /// The slot of a node in the dense `nodes` vector. Every constructor
    /// lays nodes out in id order (`nodes[i].id == NodeId(i)`), so the
    /// common case is a direct O(1) index; topologies assembled by hand with
    /// sparse ids fall back to a scan.
    fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.nodes.get(id.0 as usize) {
            Some(node) if node.id == id => Some(id.0 as usize),
            _ => self.nodes.iter().position(|node| node.id == id),
        }
    }

    /// Looks a node up by id (O(1) for the dense id layouts every built-in
    /// constructor produces — this sits on the per-packet hot path).
    pub fn node(&self, id: NodeId) -> Option<&SimNode> {
        self.slot_of(id).map(|slot| &self.nodes[slot])
    }

    /// Mutable lookup by id (same O(1) fast path as [`Topology::node`]).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut SimNode> {
        self.slot_of(id).map(move |slot| &mut self.nodes[slot])
    }

    /// The device kind of a node (fixed PC when unknown).
    pub fn kind_of(&self, id: NodeId) -> NodeKind {
        self.node(id)
            .map(|node| node.kind)
            .unwrap_or(NodeKind::FixedPc)
    }

    /// Whether the segment the node sits on offers native multicast.
    pub fn native_multicast_available(&self, _id: NodeId) -> bool {
        matches!(
            self.kind,
            TopologyKind::Lan {
                native_multicast: true
            }
        )
    }

    /// Members of the broadcast domain of `sender` (everyone reachable with
    /// one native multicast transmission), excluding the sender.
    pub fn broadcast_domain(&self, sender: NodeId) -> Vec<NodeId> {
        match self.kind {
            TopologyKind::Lan {
                native_multicast: true,
            } => self
                .nodes
                .iter()
                .map(|n| n.id)
                .filter(|id| *id != sender)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The link class used for a transmission from `from` to `to`.
    pub fn link_class(&self, from: NodeId, to: NodeId) -> LinkClass {
        match self.kind {
            TopologyKind::Lan { .. } => LinkClass::WiredLan,
            TopologyKind::AdHoc => LinkClass::Wireless,
            TopologyKind::Wan => LinkClass::Wan,
            TopologyKind::HybridCell => {
                if self.kind_of(from).is_mobile() || self.kind_of(to).is_mobile() {
                    LinkClass::Wireless
                } else {
                    LinkClass::WiredLan
                }
            }
        }
    }

    /// The link model used for a transmission from `from` to `to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> &dyn LinkModel {
        match self.link_class(from, to) {
            LinkClass::WiredLan => &self.wired,
            LinkClass::Wireless => &self.wireless,
            LinkClass::Wan => &self.wan,
        }
    }

    /// The loss rate observed on the local link of a node (used as context).
    pub fn local_loss_rate(&self, id: NodeId) -> f64 {
        match self.kind {
            TopologyKind::Lan { .. } => self.wired.loss_rate,
            TopologyKind::AdHoc => self.wireless.loss_rate,
            TopologyKind::Wan => self.wan.loss_rate,
            TopologyKind::HybridCell => {
                if self.kind_of(id).is_mobile() {
                    self.wireless.loss_rate
                } else {
                    self.wired.loss_rate
                }
            }
        }
    }

    /// The nominal bandwidth of the local link of a node, in kbit/s.
    pub fn local_bandwidth_kbps(&self, id: NodeId) -> u32 {
        match self.kind {
            TopologyKind::Lan { .. } => self.wired.bandwidth_kbps,
            TopologyKind::AdHoc => self.wireless.bandwidth_kbps,
            TopologyKind::Wan => self.wan.bandwidth_kbps,
            TopologyKind::HybridCell => {
                if self.kind_of(id).is_mobile() {
                    self.wireless.bandwidth_kbps
                } else {
                    self.wired.bandwidth_kbps
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_cell_mixes_device_kinds() {
        let topology = Topology::hybrid_cell(1, 3);
        assert_eq!(topology.len(), 4);
        assert_eq!(topology.kind_of(NodeId(0)), NodeKind::FixedPc);
        assert_eq!(topology.kind_of(NodeId(1)), NodeKind::MobilePda);
        assert!(!topology.is_empty());
        assert_eq!(topology.node_ids().len(), 4);
    }

    #[test]
    fn hybrid_links_depend_on_endpoints() {
        let topology = Topology::hybrid_cell(2, 2);
        assert_eq!(
            topology.link_class(NodeId(0), NodeId(1)),
            LinkClass::WiredLan
        );
        assert_eq!(
            topology.link_class(NodeId(0), NodeId(2)),
            LinkClass::Wireless
        );
        assert_eq!(
            topology.link_class(NodeId(2), NodeId(3)),
            LinkClass::Wireless
        );
        assert_eq!(
            topology.link(NodeId(2), NodeId(3)).class(),
            LinkClass::Wireless
        );
    }

    #[test]
    fn lan_supports_native_multicast_when_enabled() {
        let with = Topology::lan(4, true);
        let without = Topology::lan(4, false);
        assert!(with.native_multicast_available(NodeId(0)));
        assert!(!without.native_multicast_available(NodeId(0)));
        assert_eq!(with.broadcast_domain(NodeId(0)).len(), 3);
        assert!(without.broadcast_domain(NodeId(0)).is_empty());
    }

    #[test]
    fn ad_hoc_and_wan_use_their_links() {
        let ad_hoc = Topology::ad_hoc(3);
        let wan = Topology::wan(3);
        assert_eq!(ad_hoc.link_class(NodeId(0), NodeId(1)), LinkClass::Wireless);
        assert_eq!(wan.link_class(NodeId(0), NodeId(1)), LinkClass::Wan);
        assert!(ad_hoc.nodes().iter().all(|node| node.kind.is_mobile()));
        assert!(wan.nodes().iter().all(|node| !node.kind.is_mobile()));
    }

    #[test]
    fn local_context_reflects_device_position() {
        let topology = Topology::hybrid_cell(1, 2).with_wireless(Wireless80211b::degraded(0.1));
        assert!(topology.local_loss_rate(NodeId(1)) > topology.local_loss_rate(NodeId(0)));
        assert!(
            topology.local_bandwidth_kbps(NodeId(1)) < topology.local_bandwidth_kbps(NodeId(0))
        );
    }

    #[test]
    fn sparse_node_ids_still_resolve() {
        // Hand-assembled topologies may skip ids; the O(1) fast path must
        // fall back to a scan instead of resolving the wrong node.
        let nodes = vec![SimNode::fixed(NodeId(0)), SimNode::fixed(NodeId(5))];
        let topology = Topology::new(
            TopologyKind::Lan {
                native_multicast: false,
            },
            nodes,
        );
        assert_eq!(topology.node(NodeId(5)).unwrap().id, NodeId(5));
        assert!(topology.node(NodeId(1)).is_none());
        let mut topology = topology;
        topology.node_mut(NodeId(5)).unwrap().alive = false;
        assert!(!topology.node(NodeId(5)).unwrap().alive);
    }

    #[test]
    fn node_lookup_and_mutation() {
        let mut topology = Topology::ad_hoc(2);
        assert!(topology.node(NodeId(1)).is_some());
        assert!(topology.node(NodeId(9)).is_none());
        topology.node_mut(NodeId(1)).unwrap().alive = false;
        assert!(!topology.node(NodeId(1)).unwrap().alive);
        assert_eq!(topology.kind_of(NodeId(9)), NodeKind::FixedPc);
    }
}
