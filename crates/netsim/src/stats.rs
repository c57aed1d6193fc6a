//! Per-node and network-wide traffic statistics.
//!
//! The statistics collected here are exactly what the paper's evaluation
//! reports: the number of messages transmitted by each node, broken down into
//! data and control traffic, plus bytes and energy for the extension
//! experiments.
//!
//! A packet is accounted on its way through the network, so the tables are
//! plain arrays: a node's counters indexed by [`TrafficClass`], the
//! network's by node id.

use serde::{Deserialize, Serialize};

use crate::node::NodeId;

/// Accounting class of a packet (mirrors the protocol kernel's packet class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Application data.
    Data,
    /// Group communication control traffic.
    Control,
    /// Context dissemination traffic.
    Context,
    /// Loss-repair traffic (NACK digests, pulls, re-streamed originals).
    Repair,
    /// Overlay maintenance traffic (partial-view membership, shuffles,
    /// per-room tree grafts and prunes).
    Overlay,
}

impl TrafficClass {
    /// All traffic classes, in display order.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Data,
        TrafficClass::Control,
        TrafficClass::Context,
        TrafficClass::Repair,
        TrafficClass::Overlay,
    ];

    /// The class's position in [`TrafficClass::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

/// One counter per [`TrafficClass`].
type PerClass = [u64; TrafficClass::ALL.len()];

/// Counters for one node.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Messages sent, per traffic class.
    sent: PerClass,
    /// Messages received, per traffic class.
    received: PerClass,
    /// Messages lost in transit that this node originated (all classes).
    /// Counts only losses on links towards *live* receivers — the safety
    /// metric; packets addressed to a crashed node are accounted under
    /// [`NodeStats::lost_to_dead`] instead.
    pub lost: u64,
    /// Messages lost in transit, per traffic class (live receivers only).
    lost_by_class: PerClass,
    /// Messages this node addressed to a receiver that was crashed (or
    /// battery-depleted) at delivery time. Kept separate from `lost` so
    /// "zero data loss for surviving members" stays assertable across a
    /// crash window: traffic in flight to a dead node is not a protocol
    /// failure.
    pub lost_to_dead: u64,
    /// Messages this node sent that an injected fault (link flap, one-way
    /// partition — see [`crate::FaultSchedule`]) swallowed. Kept separate
    /// from `lost` for the same reason as `lost_to_dead`: injected fault
    /// drops are the experiment, not a live-link protocol failure.
    pub fault_dropped: u64,
    /// Data packets this node's full egress queue shed before they were
    /// sent (see [`crate::Network::set_egress_queue`]). Not sent, so not in
    /// `sent` either.
    pub egress_shed: u64,
    /// Bytes sent (sum over all classes).
    pub bytes_sent: u64,
    /// Bytes sent, per traffic class — what lets the evaluation assert that
    /// a node's data+overlay cost tracks its subscriptions while repair and
    /// control stay bounded.
    bytes_sent_by_class: PerClass,
    /// Bytes received (sum over all classes).
    pub bytes_received: u64,
    /// Energy consumed by the radio, in joules.
    pub energy_joules: f64,
}

impl NodeStats {
    /// Records one transmitted message.
    pub fn record_sent(&mut self, class: TrafficClass, bytes: usize, energy_j: f64) {
        self.sent[class.index()] += 1;
        self.bytes_sent += bytes as u64;
        self.bytes_sent_by_class[class.index()] += bytes as u64;
        self.energy_joules += energy_j;
    }

    /// Records one received message.
    pub fn record_received(&mut self, class: TrafficClass, bytes: usize, energy_j: f64) {
        self.received[class.index()] += 1;
        self.bytes_received += bytes as u64;
        self.energy_joules += energy_j;
    }

    /// Records one lost message originated by this node.
    pub fn record_lost(&mut self, class: TrafficClass) {
        self.lost += 1;
        self.lost_by_class[class.index()] += 1;
    }

    /// Records one message addressed to a dead receiver.
    pub fn record_lost_to_dead(&mut self) {
        self.lost_to_dead += 1;
    }

    /// Records one message swallowed by an injected fault.
    pub fn record_fault_dropped(&mut self) {
        self.fault_dropped += 1;
    }

    /// Records one data packet shed at this node's egress queue.
    pub fn record_egress_shed(&mut self) {
        self.egress_shed += 1;
    }

    /// Messages lost of one class.
    pub fn lost_of(&self, class: TrafficClass) -> u64 {
        self.lost_by_class[class.index()]
    }

    /// Total messages sent across every class.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages received across every class.
    pub fn total_received(&self) -> u64 {
        self.received.iter().sum()
    }

    /// Messages sent of one class.
    pub fn sent_of(&self, class: TrafficClass) -> u64 {
        self.sent[class.index()]
    }

    /// Messages received of one class.
    pub fn received_of(&self, class: TrafficClass) -> u64 {
        self.received[class.index()]
    }

    /// Bytes sent of one class.
    pub fn bytes_sent_of(&self, class: TrafficClass) -> u64 {
        self.bytes_sent_by_class[class.index()]
    }
}

/// Statistics for the whole network, indexed by node.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Indexed by node id; `None` for a node that never sent or received.
    per_node: Vec<Option<NodeStats>>,
}

impl NetworkStats {
    /// Creates an empty statistics table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable counters for one node, created on first use.
    pub fn node_mut(&mut self, node: NodeId) -> &mut NodeStats {
        let index = node.0 as usize;
        if index >= self.per_node.len() {
            self.per_node.resize_with(index + 1, || None);
        }
        self.per_node[index].get_or_insert_with(NodeStats::default)
    }

    /// Counters for one node, if it ever sent or received anything.
    pub fn node(&self, node: NodeId) -> Option<&NodeStats> {
        self.per_node.get(node.0 as usize)?.as_ref()
    }

    /// Counters for one node, or empty defaults.
    pub fn node_or_default(&self, node: NodeId) -> NodeStats {
        self.node(node).cloned().unwrap_or_default()
    }

    /// Iterates over every node's counters in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeStats)> {
        self.per_node
            .iter()
            .enumerate()
            .filter_map(|(index, stats)| Some((NodeId(index as u32), stats.as_ref()?)))
    }

    fn nodes(&self) -> impl Iterator<Item = &NodeStats> {
        self.per_node.iter().flatten()
    }

    /// Total messages sent by every node.
    pub fn total_sent(&self) -> u64 {
        self.nodes().map(NodeStats::total_sent).sum()
    }

    /// Total messages received by every node.
    pub fn total_received(&self) -> u64 {
        self.nodes().map(NodeStats::total_received).sum()
    }

    /// Total messages lost in transit.
    pub fn total_lost(&self) -> u64 {
        self.nodes().map(|stats| stats.lost).sum()
    }

    /// Total messages lost in transit of one class.
    pub fn total_lost_of(&self, class: TrafficClass) -> u64 {
        self.nodes().map(|stats| stats.lost_of(class)).sum()
    }

    /// Total messages addressed to dead receivers.
    pub fn total_lost_to_dead(&self) -> u64 {
        self.nodes().map(|stats| stats.lost_to_dead).sum()
    }

    /// Total messages swallowed by injected faults.
    pub fn total_fault_dropped(&self) -> u64 {
        self.nodes().map(|stats| stats.fault_dropped).sum()
    }

    /// Total data packets shed at the nodes' egress queues.
    pub fn total_egress_shed(&self) -> u64 {
        self.nodes().map(|stats| stats.egress_shed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_stats_accumulate() {
        let mut stats = NodeStats::default();
        stats.record_sent(TrafficClass::Data, 100, 0.5);
        stats.record_sent(TrafficClass::Control, 20, 0.1);
        stats.record_received(TrafficClass::Data, 100, 0.2);
        stats.record_lost(TrafficClass::Data);

        assert_eq!(stats.total_sent(), 2);
        assert_eq!(stats.total_received(), 1);
        assert_eq!(stats.sent_of(TrafficClass::Data), 1);
        assert_eq!(stats.sent_of(TrafficClass::Context), 0);
        assert_eq!(stats.received_of(TrafficClass::Data), 1);
        assert_eq!(stats.bytes_sent, 120);
        assert_eq!(stats.bytes_sent_of(TrafficClass::Data), 100);
        assert_eq!(stats.bytes_sent_of(TrafficClass::Control), 20);
        assert_eq!(stats.bytes_sent_of(TrafficClass::Repair), 0);
        assert_eq!(stats.bytes_received, 100);
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.lost_of(TrafficClass::Data), 1);
        assert_eq!(stats.lost_of(TrafficClass::Control), 0);
        assert!((stats.energy_joules - 0.8).abs() < 1e-9);
        for (position, class) in TrafficClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), position, "{class:?}");
        }
    }

    #[test]
    fn network_stats_aggregate_over_nodes() {
        let mut stats = NetworkStats::new();
        stats
            .node_mut(NodeId(1))
            .record_sent(TrafficClass::Data, 10, 0.0);
        stats
            .node_mut(NodeId(2))
            .record_sent(TrafficClass::Data, 10, 0.0);
        stats
            .node_mut(NodeId(2))
            .record_received(TrafficClass::Data, 10, 0.0);

        assert_eq!(stats.total_sent(), 2);
        assert_eq!(stats.total_received(), 1);
        assert_eq!(stats.total_lost(), 0);
        assert!(stats.node(NodeId(1)).is_some());
        assert!(stats.node(NodeId(9)).is_none());
        assert_eq!(stats.node_or_default(NodeId(9)).total_sent(), 0);
        assert_eq!(stats.iter().count(), 2);
    }
}
