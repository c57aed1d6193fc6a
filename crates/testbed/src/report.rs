//! Run reports: the measurements a scenario produces.

use morpheus_appia::platform::NodeId;
use serde::{Deserialize, Serialize};

/// One completed reconfiguration round, as reported by its coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// The coordinator that completed the round.
    pub coordinator: NodeId,
    /// Stack configuration the group agreed on.
    pub stack: String,
    /// Reconfiguration epoch of the round.
    pub epoch: u64,
    /// Time from initiation to the last acknowledgement, in milliseconds.
    pub latency_ms: u64,
    /// Command retransmissions the round needed.
    pub retransmits: u64,
    /// Size of the live quorum that acknowledged.
    pub nodes: usize,
}

/// One completed rejoin (view-synchronous state transfer), as reported by
/// the restarted node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejoinReport {
    /// Simulated time at which the rejoin completed.
    pub at_ms: u64,
    /// The donor the snapshot was streamed from.
    pub donor: NodeId,
    /// Snapshot bytes transferred.
    pub bytes: u64,
    /// Chunks the snapshot was streamed in.
    pub chunks: u32,
    /// Transfer epochs used (more than 1 means donor failover happened).
    pub transfer_epochs: u64,
    /// Restart-to-member latency as measured by the rejoining node, in
    /// milliseconds.
    pub elapsed_ms: u64,
}

/// A wedge the runner's progress detector caught: the run stopped making
/// progress in a way waiting would not fix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WedgeReport {
    /// Simulated time at which the wedge was declared.
    pub at_ms: u64,
    /// What tripped the detector (stalled disagreement, queue growth,
    /// round churn).
    pub reason: String,
}

/// Bytes put on the wire by one node, broken down by component — the
/// measurement behind the subscription-proportional cost claim: a node's
/// data + overlay bytes should track what it subscribes to, while control,
/// context and repair stay bounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireBytes {
    /// Application data bytes.
    pub data: u64,
    /// Group-communication control bytes (membership, flush, acks, ...).
    pub control: u64,
    /// Context dissemination bytes.
    pub context: u64,
    /// Loss-repair bytes (NACK digests, pulls, re-streamed originals).
    pub repair: u64,
    /// Overlay-maintenance bytes (partial views, shuffles, grafts, prunes).
    pub overlay: u64,
}

impl WireBytes {
    /// Sum over every component.
    pub fn total(&self) -> u64 {
        self.data + self.control + self.context + self.repair + self.overlay
    }

    /// Adds another breakdown component-wise.
    pub fn add(&mut self, other: &WireBytes) {
        self.data += other.data;
        self.control += other.control;
        self.context += other.context;
        self.repair += other.repair;
        self.overlay += other.overlay;
    }
}

/// Packets and bytes every node of a run handed to the network for one
/// sendable event type, framing included — what [`WireBytes`] splits by
/// traffic class, split by wire event instead. Packets the runner drops for
/// injected loss or a partition are not counted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireEventBytes {
    /// The type's wire tag: the first two bytes of its packets.
    pub tag: u16,
    /// The name registered under the tag, resolved through the nodes'
    /// event registries.
    pub name: String,
    /// Packets sent.
    pub packets: u64,
    /// Bytes sent, framing included.
    pub bytes: u64,
}

/// Measurements for one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Whether the node is a mobile device.
    pub is_mobile: bool,
    /// Data messages transmitted (each point-to-point send counts once).
    pub sent_data: u64,
    /// Group-communication control messages transmitted.
    pub sent_control: u64,
    /// Context dissemination messages transmitted.
    pub sent_context: u64,
    /// Loss-repair messages transmitted (NACK digests, pulls, re-streams).
    pub sent_repair: u64,
    /// Overlay-maintenance messages transmitted.
    pub sent_overlay: u64,
    /// Messages received (all classes).
    pub received_total: u64,
    /// Bytes transmitted.
    pub bytes_sent: u64,
    /// Bytes transmitted, broken down by component.
    pub wire_bytes: WireBytes,
    /// Energy spent by the radio, in joules.
    pub energy_joules: f64,
    /// Remaining battery fraction at the end of the run.
    pub battery_fraction: f64,
    /// Application (chat) messages delivered to this node.
    pub app_deliveries: u64,
    /// Number of view changes reported to the application.
    pub view_changes: u64,
    /// Name of the stack deployed at the end of the run.
    pub final_stack: String,
    /// Number of stack reconfigurations applied.
    pub reconfigurations: u64,
    /// Notifications reported to the application (reconfiguration reports).
    pub notifications: Vec<String>,
    /// Reconfiguration rounds this node completed as coordinator.
    pub rounds: Vec<RoundReport>,
    /// Packet or reconfiguration processing errors (should be zero).
    pub errors: u64,
    /// Simulated time at which this node's context store first covered the
    /// whole membership (`None` if it never did).
    pub context_converged_ms: Option<u64>,
    /// Size of the smallest view announced to this node (`None` if no view
    /// was ever announced). A value below the boot membership means some
    /// member was expelled — e.g. by a (possibly false) suspicion.
    pub min_view_members: Option<usize>,
    /// How many times this node was restarted during the run.
    pub restarts: u64,
    /// The node's last completed rejoin, when it restarted and made it back
    /// into the group.
    pub rejoin: Option<RejoinReport>,
    /// Targeted snapshot catch-ups this node completed (repair-floor
    /// escalations healed without a rejoin).
    pub catchups: u64,
    /// Join-view messages shed at the recovery layer's buffer cap.
    pub buffer_shed: u64,
    /// Counters of the node's epidemic data stack at the end of the run
    /// (`None` when the final stack is not gossip-based).
    pub gossip: Option<GossipReport>,
}

/// End-of-run counters of one node's epidemic (gossip) data stack: the
/// push phase plus the NACK/anti-entropy repair pass, as the session counts
/// them.
pub use morpheus_groupcomm::gossip::GossipStats as GossipReport;

impl NodeReport {
    /// Total messages transmitted by this node, all classes included — the
    /// quantity the paper's Figure 3 plots for the mobile device.
    pub fn sent_total(&self) -> u64 {
        self.sent_data
            + self.sent_control
            + self.sent_context
            + self.sent_repair
            + self.sent_overlay
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the scenario.
    pub scenario: String,
    /// Number of participating devices.
    pub devices: usize,
    /// Whether adaptation was enabled.
    pub adaptive: bool,
    /// Simulated duration of the run, in milliseconds.
    pub duration_ms: u64,
    /// Discrete simulation events the runner processed (packets, timers,
    /// application sends) — wall-clock throughput is `events_processed`
    /// divided by the measured run time.
    pub events_processed: u64,
    /// *Data* (chat) packets lost in transit — the safety metric: a healthy
    /// reconfiguration protocol keeps this at zero even when the control
    /// plane is degraded.
    pub messages_lost: u64,
    /// Control-plane packets (commands, acks, heartbeats, context
    /// publications) lost in transit.
    pub control_lost: u64,
    /// Packets (all classes) that were addressed to a node that was crashed
    /// at delivery time — in-flight traffic towards a dead member, kept out
    /// of `messages_lost` so the safety metric covers live members only.
    pub messages_lost_to_crashed: u64,
    /// Data-channel packets dropped by the runner's injected
    /// [`crate::Scenario::data_loss`] — the loss the epidemic repair pass
    /// masks. Kept out of `messages_lost`, which remains the live-link
    /// safety metric.
    pub data_dropped: u64,
    /// Packets (all classes, both directions) dropped because a node was
    /// partitioned ([`crate::Scenario::with_partition`]).
    pub partition_dropped: u64,
    /// Packets swallowed by injected faults (link flaps, one-way
    /// partitions — [`crate::Scenario::fault_schedule`]). Kept out of
    /// `messages_lost`, which remains the live-link safety metric.
    pub fault_dropped: u64,
    /// Packets the runner corrupted in flight (byte flips driven by the
    /// fault schedule). Each may surface as a decode error at the receiver;
    /// `total_errors() <= corrupted_packets` is the decode-hardening
    /// invariant fault sweeps assert.
    pub corrupted_packets: u64,
    /// Data-class packets shed at the bounded event queue's cap (drop-newest
    /// graceful degradation under overload; recoverable via gossip repair)
    /// or at a node's full egress queue ([`RunReport::egress_shed_packets`]).
    /// Control-plane events are never shed.
    pub shed_packets: u64,
    /// The part of `shed_packets` the nodes' egress queues shed (drop-tail,
    /// data only; see [`crate::Scenario::node_capacity`]). Always 0 on a
    /// scenario without node capacity.
    pub egress_shed_packets: u64,
    /// Deepest the simulation event queue ever got. With the bounded queue
    /// active this stays at or near the cap even under sustained overload.
    pub max_queue_depth: u64,
    /// The wedge the progress detector caught, if any (`None` on healthy
    /// runs, and always `None` when the detector is disabled).
    pub wedge: Option<WedgeReport>,
    /// Per-node measurements, in node-id order.
    pub nodes: Vec<NodeReport>,
    /// Packets and bytes per sendable event type, in wire-tag order.
    pub wire_events: Vec<WireEventBytes>,
}

impl RunReport {
    /// The report of one node.
    pub fn node(&self, node: NodeId) -> Option<&NodeReport> {
        self.nodes.iter().find(|report| report.node == node)
    }

    /// Every mobile node's report.
    pub fn mobile_nodes(&self) -> impl Iterator<Item = &NodeReport> {
        self.nodes.iter().filter(|report| report.is_mobile)
    }

    /// Total messages sent by the instrumented mobile node (the lowest-id
    /// mobile node), all classes included.
    pub fn measured_mobile_sent(&self) -> u64 {
        self.mobile_nodes()
            .map(NodeReport::sent_total)
            .next()
            .unwrap_or(0)
    }

    /// Total chat messages delivered to applications across all nodes.
    pub fn total_app_deliveries(&self) -> u64 {
        self.nodes.iter().map(|report| report.app_deliveries).sum()
    }

    /// Total reconfigurations applied across all nodes.
    pub fn total_reconfigurations(&self) -> u64 {
        self.nodes
            .iter()
            .map(|report| report.reconfigurations)
            .sum()
    }

    /// Sum of processing errors across all nodes (expected to be zero).
    pub fn total_errors(&self) -> u64 {
        self.nodes.iter().map(|report| report.errors).sum()
    }

    /// Reconfiguration-latency notifications produced by the coordinator.
    pub fn reconfiguration_notices(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .flat_map(|report| report.notifications.iter())
            .filter(|text| text.contains("reconfiguration"))
            .map(String::as_str)
            .collect()
    }

    /// Every completed reconfiguration round, across all coordinators, in
    /// epoch order.
    pub fn completed_rounds(&self) -> Vec<&RoundReport> {
        let mut rounds: Vec<&RoundReport> = self
            .nodes
            .iter()
            .flat_map(|report| report.rounds.iter())
            .collect();
        rounds.sort_by_key(|round| round.epoch);
        rounds
    }

    /// Simulated time by which *every* node's context store covered the
    /// whole membership, or `None` while any node is still missing context —
    /// the dissemination convergence metric of the gossip control plane.
    pub fn context_convergence_ms(&self) -> Option<u64> {
        self.nodes
            .iter()
            .map(|node| node.context_converged_ms)
            .collect::<Option<Vec<u64>>>()
            .and_then(|times| times.into_iter().max())
    }

    /// Epidemic delivery coverage of a many-to-many chat: total application
    /// deliveries over the expected count (`messages × (receivers − 1)` per
    /// sender — nodes do not self-deliver). Deliberately *not* clamped: a
    /// value above 1.0 means duplicate deliveries reached the application,
    /// which is as much a delivery-guarantee violation as a gap — callers
    /// assert both sides. Meaningful for crash-free runs on any multicast
    /// stack.
    pub fn delivery_coverage(&self, senders: usize, messages_per_sender: u64) -> f64 {
        let expected = senders as u64 * messages_per_sender * (self.devices as u64 - 1);
        if expected == 0 {
            return 1.0;
        }
        self.total_app_deliveries() as f64 / expected as f64
    }

    /// Sum of the per-node gossip repair counters (zeros when no node ended
    /// on an epidemic stack).
    pub fn gossip_totals(&self) -> GossipReport {
        let mut totals = GossipReport::default();
        for gossip in self.nodes.iter().filter_map(|node| node.gossip.as_ref()) {
            totals.forwarded += gossip.forwarded;
            totals.duplicates += gossip.duplicates;
            totals.repair_digests += gossip.repair_digests;
            totals.repair_pulls += gossip.repair_pulls;
            totals.repair_pulled_seqs += gossip.repair_pulled_seqs;
            totals.repair_pushes += gossip.repair_pushes;
            totals.repaired_deliveries += gossip.repaired_deliveries;
            totals.late_duplicates += gossip.late_duplicates;
            totals.deferred_pushes += gossip.deferred_pushes;
            totals.outbox_shed += gossip.outbox_shed;
            totals.floor_escalations += gossip.floor_escalations;
            totals.rate_limited_pushes += gossip.rate_limited_pushes;
        }
        totals
    }

    /// Sum of the per-node wire-byte breakdowns — the run's cost profile by
    /// component.
    pub fn wire_bytes_totals(&self) -> WireBytes {
        let mut totals = WireBytes::default();
        for node in &self.nodes {
            totals.add(&node.wire_bytes);
        }
        totals
    }

    /// Total targeted snapshot catch-ups completed across all nodes.
    pub fn total_catchups(&self) -> u64 {
        self.nodes.iter().map(|node| node.catchups).sum()
    }

    /// Every completed rejoin, in node order.
    pub fn rejoins(&self) -> Vec<(NodeId, &RejoinReport)> {
        self.nodes
            .iter()
            .filter_map(|node| node.rejoin.as_ref().map(|rejoin| (node.node, rejoin)))
            .collect()
    }

    /// Total command retransmissions across all completed rounds.
    pub fn total_retransmits(&self) -> u64 {
        self.completed_rounds()
            .iter()
            .map(|round| round.retransmits)
            .sum()
    }

    /// Renders a fixed-width table of the per-node counters, suitable for
    /// printing from examples.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario: {} ({} devices, adaptive: {})\n",
            self.scenario, self.devices, self.adaptive
        ));
        out.push_str(&format!(
            "duration: {:.1}s   lost data packets: {}   lost control packets: {}\n",
            self.duration_ms as f64 / 1000.0,
            self.messages_lost,
            self.control_lost
        ));
        out.push_str(
            "node   kind    sent-data  sent-ctrl  sent-ctx  sent-total  delivered  stack\n",
        );
        for node in &self.nodes {
            out.push_str(&format!(
                "{:<6} {:<7} {:>9}  {:>9}  {:>8}  {:>10}  {:>9}  {}\n",
                node.node.to_string(),
                if node.is_mobile { "mobile" } else { "fixed" },
                node.sent_data,
                node.sent_control,
                node.sent_context,
                node.sent_total(),
                node.app_deliveries,
                node.final_stack,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32, mobile: bool, data: u64, control: u64) -> NodeReport {
        NodeReport {
            node: NodeId(id),
            is_mobile: mobile,
            sent_data: data,
            sent_control: control,
            sent_context: 1,
            sent_repair: 0,
            sent_overlay: 0,
            received_total: 0,
            bytes_sent: 0,
            wire_bytes: WireBytes {
                data: 100,
                control: 20,
                context: 4,
                repair: 8,
                overlay: 16,
            },
            energy_joules: 0.0,
            battery_fraction: 1.0,
            app_deliveries: 5,
            view_changes: 1,
            final_stack: "best-effort".into(),
            reconfigurations: 0,
            notifications: vec!["reconfiguration to `x` completed across 2 nodes in 3 ms".into()],
            rounds: vec![RoundReport {
                coordinator: NodeId(id),
                stack: "x".into(),
                epoch: u64::from(id) + 1,
                latency_ms: 3,
                retransmits: u64::from(id),
                nodes: 2,
            }],
            errors: 0,
            context_converged_ms: Some(u64::from(id) * 100),
            min_view_members: Some(2),
            restarts: 0,
            rejoin: None,
            catchups: 0,
            buffer_shed: 0,
            gossip: Some(GossipReport {
                forwarded: 10,
                duplicates: 2,
                repair_digests: 3,
                repair_pulls: 1,
                repair_pulled_seqs: 2,
                repair_pushes: 1,
                repaired_deliveries: 1,
                late_duplicates: 0,
                deferred_pushes: 4,
                outbox_shed: 0,
                floor_escalations: 0,
                rate_limited_pushes: 1,
            }),
        }
    }

    fn report() -> RunReport {
        RunReport {
            scenario: "test".into(),
            devices: 2,
            adaptive: true,
            duration_ms: 1000,
            events_processed: 42,
            messages_lost: 0,
            control_lost: 4,
            messages_lost_to_crashed: 0,
            data_dropped: 0,
            partition_dropped: 0,
            fault_dropped: 0,
            corrupted_packets: 0,
            shed_packets: 0,
            egress_shed_packets: 0,
            max_queue_depth: 0,
            wedge: None,
            nodes: vec![node(0, false, 10, 2), node(1, true, 4, 1)],
            wire_events: Vec::new(),
        }
    }

    #[test]
    fn aggregates_are_computed_over_the_right_nodes() {
        let report = report();
        assert_eq!(report.measured_mobile_sent(), 6);
        assert_eq!(report.total_app_deliveries(), 10);
        assert_eq!(report.total_errors(), 0);
        assert_eq!(report.node(NodeId(1)).unwrap().sent_total(), 6);
        assert_eq!(report.mobile_nodes().count(), 1);
        assert_eq!(report.reconfiguration_notices().len(), 2);
        let rounds = report.completed_rounds();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].epoch, 1, "rounds come out in epoch order");
        assert_eq!(report.total_retransmits(), 1);
    }

    #[test]
    fn gossip_totals_and_coverage_aggregate() {
        let report = report();
        let totals = report.gossip_totals();
        assert_eq!(totals.forwarded, 20);
        assert_eq!(totals.repaired_deliveries, 2);
        assert_eq!(totals.deferred_pushes, 8);
        assert_eq!(totals.rate_limited_pushes, 2);
        // 2 devices, 10 total deliveries: a ratio, unclamped — over-delivery
        // (duplicates reaching the app) must be visible, not masked.
        assert_eq!(report.delivery_coverage(2, 5), 1.0);
        assert_eq!(report.delivery_coverage(1, 5), 2.0, "over-delivery shows");
        assert!(report.delivery_coverage(3, 5) < 1.0);
        assert_eq!(report.delivery_coverage(0, 5), 1.0, "degenerate workload");
    }

    #[test]
    fn wire_bytes_break_down_by_component() {
        let report = report();
        let totals = report.wire_bytes_totals();
        assert_eq!(totals.data, 200);
        assert_eq!(totals.control, 40);
        assert_eq!(totals.context, 8);
        assert_eq!(totals.repair, 16);
        assert_eq!(totals.overlay, 32);
        assert_eq!(totals.total(), 296);
    }

    #[test]
    fn context_convergence_needs_every_node() {
        let mut report = report();
        assert_eq!(
            report.context_convergence_ms(),
            Some(100),
            "the slowest node's coverage time is the group's"
        );
        report.nodes[1].context_converged_ms = None;
        assert_eq!(report.context_convergence_ms(), None);
    }

    #[test]
    fn table_rendering_mentions_every_node() {
        let table = report().to_table();
        assert!(table.contains("n0"));
        assert!(table.contains("n1"));
        assert!(table.contains("mobile"));
        assert!(table.contains("best-effort"));
    }
}
