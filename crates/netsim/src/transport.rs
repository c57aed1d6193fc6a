//! Packet transmission over a topology.
//!
//! [`Network`] ties together the topology, the link models, the energy model
//! and the statistics: every transmission updates the sender's counters and
//! battery, applies per-receiver loss and latency, and returns the resulting
//! deliveries so the caller (the testbed runner) can schedule them on its
//! event queue.

use crate::battery::EnergyModel;
use crate::fault::FaultSchedule;
use crate::link::LinkOutcome;
use crate::node::{NodeId, NodeKind};
use crate::rng::SimRng;
use crate::stats::{NetworkStats, TrafficClass};
use crate::time::SimTime;
use crate::topology::Topology;

/// Where a packet is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketTarget {
    /// One receiver (point-to-point transmission).
    Unicast(NodeId),
    /// Every node in the sender's broadcast domain (native multicast). The
    /// sender performs a single transmission.
    Broadcast,
}

/// A packet handed to the network for transmission.
#[derive(Debug, Clone)]
pub struct Packet<P> {
    /// Sending node.
    pub from: NodeId,
    /// Destination.
    pub target: PacketTarget,
    /// Size on the wire, in bytes (headers included).
    pub size_bytes: usize,
    /// Accounting class.
    pub class: TrafficClass,
    /// Opaque payload carried to the receiver.
    pub payload: P,
}

/// A packet arriving at a receiver.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// Time at which the packet arrives.
    pub at: SimTime,
    /// Receiving node.
    pub to: NodeId,
    /// Original sender.
    pub from: NodeId,
    /// Accounting class.
    pub class: TrafficClass,
    /// Size on the wire, in bytes.
    pub size_bytes: usize,
    /// Opaque payload.
    pub payload: P,
}

/// Each node's egress queue: a drop-tail FIFO in front of the node's link,
/// served at the link's `bandwidth_kbps` ([`Topology::local_bandwidth_kbps`]).
/// A packet leaves once every packet queued before it has finished
/// serialising, so what a node sends in one instant departs back to back.
/// Only data is shed, and only when it would take the queue past its byte
/// bound; control, context, repair and overlay packets always queue.
#[derive(Debug)]
struct EgressQueues {
    /// Bytes one node's queue may hold, the packet in service included.
    queue_bytes: usize,
    /// When each node's link finishes serialising what it has queued, in
    /// simulated milliseconds, indexed by node id.
    // bound: one entry per node id the topology holds; grown on a node's first send.
    busy_until_ms: Vec<f64>,
}

impl EgressQueues {
    /// Queues a packet of `size_bytes` at `node`, whose link serves
    /// `bandwidth_kbps`: the milliseconds it waits before its first bit
    /// leaves, or `None` when it is data and the queue has no room for it.
    fn admit(
        &mut self,
        node: NodeId,
        size_bytes: usize,
        class: TrafficClass,
        bandwidth_kbps: u32,
        now: SimTime,
    ) -> Option<f64> {
        let slot = node.0 as usize;
        if slot >= self.busy_until_ms.len() {
            self.busy_until_ms.resize(slot + 1, 0.0);
        }
        // A kbit/s is a bit per millisecond.
        let bits_per_ms = f64::from(bandwidth_kbps.max(1));
        let now_ms = now.as_millis() as f64;
        let start_ms = self.busy_until_ms[slot].max(now_ms);
        let waited_ms = start_ms - now_ms;
        let queued_bytes = waited_ms * bits_per_ms / 8.0;
        if class == TrafficClass::Data && queued_bytes + size_bytes as f64 > self.queue_bytes as f64
        {
            return None;
        }
        self.busy_until_ms[slot] = start_ms + size_bytes as f64 * 8.0 / bits_per_ms;
        Some(waited_ms)
    }
}

/// The network: topology + loss/latency + accounting.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    stats: NetworkStats,
    wireless_energy: EnergyModel,
    wired_energy: EnergyModel,
    faults: FaultSchedule,
    /// `None` (the default): no node has a capacity, and every packet is
    /// delayed only by its own serialisation.
    egress: Option<EgressQueues>,
}

impl Network {
    /// Creates a network over the given topology with default energy models.
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            stats: NetworkStats::new(),
            wireless_energy: EnergyModel::wireless_pda(),
            wired_energy: EnergyModel::wired(),
            faults: FaultSchedule::none(),
            egress: None,
        }
    }

    /// Gives every node an egress queue of `queue_bytes` in front of its
    /// link (see [`Network::send_into`]); `None` takes the queues away, so
    /// a packet waits behind no other.
    pub fn set_egress_queue(&mut self, queue_bytes: Option<usize>) {
        self.egress = queue_bytes.map(|queue_bytes| EgressQueues {
            queue_bytes,
            busy_until_ms: Vec::new(),
        });
    }

    /// Installs a fault schedule: flaps and one-way partitions drop packets
    /// (accounted under [`crate::NodeStats::fault_dropped`], outside the
    /// live-link loss metric) and latency shifts delay deliveries.
    pub fn set_faults(&mut self, faults: FaultSchedule) {
        self.faults = faults;
    }

    /// The installed fault schedule.
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the topology (context changes, failures).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn energy_model_for(&self, node: NodeId) -> &EnergyModel {
        if self.topology.kind_of(node).is_mobile() {
            &self.wireless_energy
        } else {
            &self.wired_energy
        }
    }

    fn charge_tx(&mut self, node: NodeId, size: usize) -> f64 {
        let cost = self.energy_model_for(node).tx_cost(size);
        if let Some(sim_node) = self.topology.node_mut(node) {
            sim_node.battery.consume(cost);
        }
        cost
    }

    fn charge_rx(&mut self, node: NodeId, size: usize) -> f64 {
        let cost = self.energy_model_for(node).rx_cost(size);
        if let Some(sim_node) = self.topology.node_mut(node) {
            sim_node.battery.consume(cost);
        }
        cost
    }

    /// Runs the link model and receiver-side accounting for one hop,
    /// returning the arrival latency when the hop succeeds.
    #[allow(clippy::too_many_arguments)]
    fn transmit_outcome(
        &mut self,
        from: NodeId,
        receiver: NodeId,
        size_bytes: usize,
        class: TrafficClass,
        queued_ms: f64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<u64> {
        if receiver == from {
            return None;
        }
        let crashed = self
            .topology
            .node(receiver)
            .map(|n| !n.alive)
            .unwrap_or(false);
        if crashed {
            // A *crashed* receiver is not a link failure: the packet is
            // accounted separately so the protocol safety metric ("no losses
            // towards live members") stays meaningful across a crash/restart
            // window. A battery-depleted (but running) receiver is different:
            // flooding a depleted member is exactly the failure the
            // adaptation loop exists to avoid, so those losses stay in the
            // safety metric.
            self.stats.node_mut(from).record_lost_to_dead();
            return None;
        }
        if self.faults.link_down(from, receiver, now.as_millis()) {
            // An injected fault drop (flap, one-way partition) is the
            // experiment, not a live-link loss — same separation as
            // `lost_to_dead`.
            self.stats.node_mut(from).record_fault_dropped();
            return None;
        }
        let operational = self
            .topology
            .node(receiver)
            .map(|n| n.is_operational())
            .unwrap_or(false);
        let link = self.topology.link(from, receiver);
        let outcome = link.transmit_queued(size_bytes, queued_ms, rng);
        match outcome {
            LinkOutcome::Delivered { latency_ms } if operational => {
                let rx_energy = self.charge_rx(receiver, size_bytes);
                self.stats
                    .node_mut(receiver)
                    .record_received(class, size_bytes, rx_energy);
                let shift = self
                    .faults
                    .extra_latency_ms(self.topology.link_class(from, receiver), now.as_millis())
                    + self
                        .faults
                        .extra_pair_latency_ms(from, receiver, now.as_millis());
                Some(latency_ms + shift)
            }
            _ => {
                self.stats.node_mut(from).record_lost(class);
                None
            }
        }
    }

    /// Transmits a packet, returning the deliveries it produces.
    ///
    /// The sender is charged exactly one transmission per call (the paper's
    /// message counts are per *send operation*: a native multicast is one
    /// message, a point-to-point send to each of N peers is N messages —
    /// produced by N calls). On the dominant unicast path the payload is
    /// *moved* into the delivery — no per-recipient clone; a broadcast
    /// encodes once and clones per member of the domain.
    pub fn send<P: Clone>(
        &mut self,
        packet: Packet<P>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Delivery<P>> {
        let mut deliveries = Vec::new();
        self.send_into(packet, now, rng, &mut deliveries);
        deliveries
    }

    /// [`Network::send`], appending the deliveries to a caller-owned buffer:
    /// a caller sending packet after packet reuses one allocation.
    ///
    /// With egress queues ([`Network::set_egress_queue`]) a packet first
    /// waits for the sender's link to finish what it queued before, and a
    /// data packet the full queue has no room for is shed: it is never
    /// sent, charged or counted as sent, only as
    /// [`crate::NodeStats::egress_shed`]. Returns `false` for a shed
    /// packet and `true` for every other, one from a dead sender included.
    pub fn send_into<P: Clone>(
        &mut self,
        packet: Packet<P>,
        now: SimTime,
        rng: &mut SimRng,
        deliveries: &mut Vec<Delivery<P>>,
    ) -> bool {
        let sender_operational = self
            .topology
            .node(packet.from)
            .map(|n| n.is_operational())
            .unwrap_or(false);
        if !sender_operational {
            return true;
        }
        let queued_ms = match &mut self.egress {
            None => 0.0,
            Some(egress) => {
                let bandwidth_kbps = self.topology.local_bandwidth_kbps(packet.from);
                let admitted = egress.admit(
                    packet.from,
                    packet.size_bytes,
                    packet.class,
                    bandwidth_kbps,
                    now,
                );
                let Some(queued_ms) = admitted else {
                    self.stats.node_mut(packet.from).record_egress_shed();
                    return false;
                };
                queued_ms
            }
        };

        let tx_energy = self.charge_tx(packet.from, packet.size_bytes);
        self.stats
            .node_mut(packet.from)
            .record_sent(packet.class, packet.size_bytes, tx_energy);

        match packet.target {
            PacketTarget::Unicast(receiver) => {
                if let Some(latency_ms) = self.transmit_outcome(
                    packet.from,
                    receiver,
                    packet.size_bytes,
                    packet.class,
                    queued_ms,
                    now,
                    rng,
                ) {
                    deliveries.push(Delivery {
                        at: now + latency_ms,
                        to: receiver,
                        from: packet.from,
                        class: packet.class,
                        size_bytes: packet.size_bytes,
                        payload: packet.payload,
                    });
                }
            }
            PacketTarget::Broadcast => {
                let members = self.topology.broadcast_domain(packet.from);
                for receiver in members {
                    if let Some(latency_ms) = self.transmit_outcome(
                        packet.from,
                        receiver,
                        packet.size_bytes,
                        packet.class,
                        queued_ms,
                        now,
                        rng,
                    ) {
                        deliveries.push(Delivery {
                            at: now + latency_ms,
                            to: receiver,
                            from: packet.from,
                            class: packet.class,
                            size_bytes: packet.size_bytes,
                            payload: packet.payload.clone(),
                        });
                    }
                }
            }
        }
        true
    }

    /// Remaining battery fraction of a node.
    pub fn battery_fraction(&self, node: NodeId) -> f64 {
        self.topology
            .node(node)
            .map(|n| n.battery.fraction())
            .unwrap_or(0.0)
    }

    /// Whether a node is alive and has battery left.
    pub fn is_operational(&self, node: NodeId) -> bool {
        self.topology
            .node(node)
            .map(|n| n.is_operational())
            .unwrap_or(false)
    }

    /// The device kind of a node.
    pub fn kind_of(&self, node: NodeId) -> NodeKind {
        self.topology.kind_of(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkOutcome, Wireless80211b};
    use crate::topology::Topology;

    fn packet(from: u32, to: u32, class: TrafficClass) -> Packet<&'static str> {
        Packet {
            from: NodeId(from),
            target: PacketTarget::Unicast(NodeId(to)),
            size_bytes: 200,
            class,
            payload: "payload",
        }
    }

    #[test]
    fn unicast_delivers_and_counts() {
        let mut network = Network::new(Topology::hybrid_cell(1, 2));
        let mut rng = SimRng::new(1);
        let deliveries = network.send(packet(1, 0, TrafficClass::Data), SimTime::ZERO, &mut rng);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].to, NodeId(0));
        assert_eq!(deliveries[0].from, NodeId(1));
        assert!(deliveries[0].at > SimTime::ZERO);

        let sender = network.stats().node_or_default(NodeId(1));
        assert_eq!(sender.total_sent(), 1);
        assert_eq!(sender.sent_of(TrafficClass::Data), 1);
        let receiver = network.stats().node_or_default(NodeId(0));
        assert_eq!(receiver.total_received(), 1);
    }

    #[test]
    fn self_addressed_packets_produce_no_delivery() {
        let mut network = Network::new(Topology::lan(2, false));
        let mut rng = SimRng::new(1);
        let deliveries = network.send(packet(0, 0, TrafficClass::Data), SimTime::ZERO, &mut rng);
        assert!(deliveries.is_empty());
        // The send operation itself is still counted.
        assert_eq!(network.stats().node_or_default(NodeId(0)).total_sent(), 1);
    }

    #[test]
    fn broadcast_reaches_the_lan_with_one_send() {
        let mut network = Network::new(Topology::lan(5, true));
        let mut rng = SimRng::new(2);
        let deliveries = network.send(
            Packet {
                from: NodeId(0),
                target: PacketTarget::Broadcast,
                size_bytes: 100,
                class: TrafficClass::Data,
                payload: (),
            },
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(deliveries.len(), 4);
        assert_eq!(network.stats().node_or_default(NodeId(0)).total_sent(), 1);
    }

    #[test]
    fn broadcast_without_native_multicast_reaches_nobody() {
        let mut network = Network::new(Topology::lan(5, false));
        let mut rng = SimRng::new(2);
        let deliveries = network.send(
            Packet {
                from: NodeId(0),
                target: PacketTarget::Broadcast,
                size_bytes: 100,
                class: TrafficClass::Data,
                payload: (),
            },
            SimTime::ZERO,
            &mut rng,
        );
        assert!(deliveries.is_empty());
    }

    #[test]
    fn lossy_links_record_losses() {
        let topology = Topology::ad_hoc(2).with_wireless(Wireless80211b {
            loss_rate: 1.0,
            ..Wireless80211b::default()
        });
        let mut network = Network::new(topology);
        let mut rng = SimRng::new(3);
        let deliveries = network.send(packet(0, 1, TrafficClass::Data), SimTime::ZERO, &mut rng);
        assert!(deliveries.is_empty());
        assert_eq!(network.stats().node_or_default(NodeId(0)).lost, 1);
        assert_eq!(
            network.stats().node_or_default(NodeId(1)).total_received(),
            0
        );
    }

    #[test]
    fn losses_are_recorded_per_traffic_class() {
        let topology = Topology::ad_hoc(2).with_wireless(Wireless80211b {
            loss_rate: 1.0,
            ..Wireless80211b::default()
        });
        let mut network = Network::new(topology);
        let mut rng = SimRng::new(9);
        network.send(packet(0, 1, TrafficClass::Control), SimTime::ZERO, &mut rng);
        network.send(packet(0, 1, TrafficClass::Data), SimTime::ZERO, &mut rng);
        let stats = network.stats().node_or_default(NodeId(0));
        assert_eq!(stats.lost_of(TrafficClass::Control), 1);
        assert_eq!(stats.lost_of(TrafficClass::Data), 1);
        assert_eq!(stats.lost_of(TrafficClass::Context), 0);
        assert_eq!(network.stats().total_lost_of(TrafficClass::Data), 1);
    }

    #[test]
    fn dead_senders_send_nothing() {
        let mut network = Network::new(Topology::lan(2, false));
        network.topology_mut().node_mut(NodeId(0)).unwrap().alive = false;
        let mut rng = SimRng::new(4);
        let deliveries = network.send(packet(0, 1, TrafficClass::Data), SimTime::ZERO, &mut rng);
        assert!(deliveries.is_empty());
        assert_eq!(network.stats().total_sent(), 0);
        assert!(!network.is_operational(NodeId(0)));
    }

    #[test]
    fn dead_receivers_lose_packets_under_their_own_counter() {
        let mut network = Network::new(Topology::lan(2, false));
        network.topology_mut().node_mut(NodeId(1)).unwrap().alive = false;
        let mut rng = SimRng::new(4);
        let deliveries = network.send(packet(0, 1, TrafficClass::Data), SimTime::ZERO, &mut rng);
        assert!(deliveries.is_empty());
        let sender = network.stats().node_or_default(NodeId(0));
        assert_eq!(
            sender.lost, 0,
            "traffic to a crashed node is not a live-link loss"
        );
        assert_eq!(sender.lost_to_dead, 1);
        assert_eq!(network.stats().total_lost_to_dead(), 1);
    }

    #[test]
    fn transmissions_drain_mobile_batteries() {
        let mut network = Network::new(Topology::hybrid_cell(1, 1));
        let mut rng = SimRng::new(5);
        let before = network.battery_fraction(NodeId(1));
        for _ in 0..50 {
            network.send(packet(1, 0, TrafficClass::Data), SimTime::ZERO, &mut rng);
        }
        let after = network.battery_fraction(NodeId(1));
        assert!(after < before);
        // Fixed nodes never drain.
        assert_eq!(network.battery_fraction(NodeId(0)), 1.0);
    }

    /// A wireless cell of `n` nodes whose links neither lose nor jitter,
    /// at `bandwidth_kbps`. Its 2.5 ms base latency plus whole-millisecond
    /// waits and serialisations rounds the same way every time.
    fn quiet_cell(n: usize, bandwidth_kbps: u32) -> Topology {
        Topology::ad_hoc(n).with_wireless(Wireless80211b {
            jitter_ms: 0.0,
            loss_rate: 0.0,
            bandwidth_kbps,
            ..Wireless80211b::default()
        })
    }

    fn sized(from: u32, to: u32, size_bytes: usize, class: TrafficClass) -> Packet<()> {
        Packet {
            from: NodeId(from),
            target: PacketTarget::Unicast(NodeId(to)),
            size_bytes,
            class,
            payload: (),
        }
    }

    /// k packets of s bytes sent in one instant leave one after another:
    /// the i-th arrives i·s·8/bw ms after the first.
    #[test]
    fn back_to_back_packets_arrive_one_serialisation_apart() {
        // 250 B at 1,000 kbit/s: 2 ms on the wire each.
        let (size, bandwidth_kbps, k) = (250, 1_000, 10u64);
        let mut network = Network::new(quiet_cell(2, bandwidth_kbps));
        network.set_egress_queue(Some(64 * 1024));
        let mut rng = SimRng::new(7);
        let now = SimTime::from_millis(100);
        let mut arrivals = Vec::new();
        for _ in 0..k {
            assert!(network.send_into(
                sized(0, 1, size, TrafficClass::Data),
                now,
                &mut rng,
                &mut arrivals
            ));
        }
        let at: Vec<u64> = arrivals.iter().map(|d| d.at.as_millis()).collect();
        let serialise_ms = size as u64 * 8 / u64::from(bandwidth_kbps);
        for (i, arrival) in at.iter().enumerate() {
            assert_eq!(*arrival - at[0], i as u64 * serialise_ms, "{at:?}");
        }
        // Once the queue has drained, a packet waits for nothing again.
        let later = SimTime::from_millis(100 + k * serialise_ms);
        let alone = network.send(sized(0, 1, size, TrafficClass::Data), later, &mut rng);
        assert_eq!(
            alone[0].at.as_millis() - later.as_millis(),
            at[0] - now.as_millis()
        );
        // Another node's queue is its own.
        let other = network.send(sized(1, 0, size, TrafficClass::Data), now, &mut rng);
        assert_eq!(other[0].at.as_millis(), at[0]);
    }

    /// Data that would take a queue past its byte bound is shed, never
    /// sent or charged; control, context and repair always queue, behind
    /// what is already there.
    #[test]
    fn data_past_the_byte_bound_is_shed_and_control_is_not() {
        // 250 B at 1,000 kbit/s, in a queue of 1,000 B: four fit.
        let mut network = Network::new(quiet_cell(2, 1_000));
        network.set_egress_queue(Some(1_000));
        let mut rng = SimRng::new(3);
        let now = SimTime::ZERO;
        let mut arrivals = Vec::new();
        let sent: Vec<bool> = (0..6)
            .map(|_| {
                network.send_into(
                    sized(0, 1, 250, TrafficClass::Data),
                    now,
                    &mut rng,
                    &mut arrivals,
                )
            })
            .collect();
        assert_eq!(sent, [true, true, true, true, false, false]);
        let stats = network.stats().node_or_default(NodeId(0));
        assert_eq!(stats.egress_shed, 2);
        assert_eq!(
            stats.sent_of(TrafficClass::Data),
            4,
            "a shed packet is not sent"
        );
        assert_eq!(stats.lost, 0, "nor lost on the link");
        assert_eq!(network.stats().total_egress_shed(), 2);

        let last_data = arrivals.last().unwrap().at;
        for class in [
            TrafficClass::Control,
            TrafficClass::Context,
            TrafficClass::Repair,
        ] {
            assert!(network.send_into(sized(0, 1, 250, class), now, &mut rng, &mut arrivals));
        }
        assert_eq!(arrivals.len(), 7);
        assert!(
            arrivals[4..].windows(2).all(|pair| pair[0].at < pair[1].at)
                && arrivals[4].at > last_data,
            "control waits behind the queue, in order: {:?}",
            arrivals.iter().map(|d| d.at).collect::<Vec<_>>()
        );
        assert_eq!(
            network.stats().total_egress_shed(),
            2,
            "control is never shed"
        );
        // The queue is past its bound now, so data is still shed ...
        assert!(!network.send_into(
            sized(0, 1, 250, TrafficClass::Data),
            now,
            &mut rng,
            &mut arrivals
        ));
        // ... until it has drained.
        let drained = SimTime::from_millis(14);
        assert!(network.send_into(
            sized(0, 1, 250, TrafficClass::Data),
            drained,
            &mut rng,
            &mut arrivals
        ));
    }

    /// Without egress queues a packet waits behind no other: every
    /// latency, and every draw from the rng, is the link model's alone.
    #[test]
    fn without_capacity_sends_match_the_per_packet_link_model() {
        let topology = Topology::hybrid_cell(2, 3).with_wireless(Wireless80211b::degraded(0.2));
        let reference = topology.clone();
        let mut network = Network::new(topology);
        let (mut rng, mut model_rng) = (SimRng::new(11), SimRng::new(11));
        let mut arrivals = Vec::new();
        let mut expected = Vec::new();
        for step in 0..400u64 {
            let (from, to) = ((step % 5) as u32, ((step * 3 + 1) % 5) as u32);
            let size = 40 + (step as usize * 37) % 1_400;
            let now = SimTime::from_millis(step / 20);
            let class = TrafficClass::ALL[(step % 5) as usize];
            assert!(network.send_into(sized(from, to, size, class), now, &mut rng, &mut arrivals));
            if from == to {
                continue;
            }
            let link = reference.link(NodeId(from), NodeId(to));
            if let LinkOutcome::Delivered { latency_ms } = link.transmit(size, &mut model_rng) {
                expected.push((now + latency_ms, NodeId(to)));
            }
        }
        let got: Vec<_> = arrivals.iter().map(|d| (d.at, d.to)).collect();
        assert_eq!(got, expected);
        assert!(expected.len() > 250, "most packets arrive");
        assert_eq!(
            rng.random_u64(),
            model_rng.random_u64(),
            "the same draws, no more"
        );
        assert_eq!(network.stats().total_egress_shed(), 0);
    }

    #[test]
    fn energy_accounting_matches_stats() {
        let mut network = Network::new(Topology::hybrid_cell(1, 1));
        let mut rng = SimRng::new(6);
        network.send(packet(1, 0, TrafficClass::Control), SimTime::ZERO, &mut rng);
        let stats = network.stats().node_or_default(NodeId(1));
        assert!(stats.energy_joules > 0.0);
        assert_eq!(stats.sent_of(TrafficClass::Control), 1);
    }
}
