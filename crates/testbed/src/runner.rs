//! The scenario runner: a deterministic, discrete-event execution of a full
//! distributed Morpheus deployment.

use std::rc::Rc;

use bytes::Bytes;

use morpheus_appia::platform::{
    AppDelivery, DeliveryKind, InPacket, NodeId, NodeProfile, OutPacket, PacketClass, PacketDest,
};
use morpheus_appia::registry::packet_tag;
use morpheus_appia::timer::TimerKey;
use morpheus_core::{MorpheusNode, NodeOptions};
use morpheus_groupcomm::recovery::StateSection;
use morpheus_netsim::{
    Delivery, EventQueue, Network, NodeId as SimNodeId, Packet, PacketTarget, SimRng, SimTime,
    Topology, TrafficClass, Wireless80211b,
};

use crate::platform::SimPlatform;
use crate::report::{
    NodeReport, RejoinReport, RoundReport, RunReport, WedgeReport, WireBytes, WireEventBytes,
};
use crate::scenario::{Scenario, TopologyChoice, EGRESS_QUEUE_BYTES};

/// Per-node application bindings for a run.
///
/// The runner itself knows nothing about the application on top; a binding
/// supplies the application payloads, taps every delivery, and provides the
/// app-level state sections the recovery layer streams to a rejoining node
/// (e.g. the chat crate's room history). Every method has a no-op default,
/// and [`Runner::run`] uses a default binding.
pub trait AppBinding {
    /// Fresh state sections for a node that is (re)starting. Called once per
    /// node at boot and again on every restart — restarting resets the
    /// node's application state, exactly like its protocol state.
    fn state_sections(&mut self, node: NodeId) -> Vec<Rc<dyn StateSection>> {
        let _ = node;
        Vec::new()
    }

    /// Composes one application payload for a workload send; `None` falls
    /// back to the runner's built-in opaque payload.
    fn compose(&mut self, node: NodeId, seq: u64, size: usize) -> Option<Bytes> {
        let _ = (node, seq, size);
        None
    }

    /// Observes one application delivery.
    fn on_delivery(&mut self, node: NodeId, delivery: &AppDelivery) {
        let _ = (node, delivery);
    }
}

/// The no-op binding used by [`Runner::run`].
struct NoBinding;

impl AppBinding for NoBinding {}

/// Opaque payload carried by simulated packets. The channel name is
/// interned, so fanning a packet out to many receivers clones a refcount
/// instead of a string.
#[derive(Debug, Clone)]
struct NetPayload {
    channel: morpheus_appia::Name,
    bytes: Bytes,
}

/// Events driving the simulation.
#[derive(Debug)]
enum SimEvent {
    /// A packet arrives at a node.
    Packet {
        to: NodeId,
        from: NodeId,
        class: PacketClass,
        payload: NetPayload,
    },
    /// A protocol timer fires at a node. Timers are stamped with the node's
    /// incarnation so timers armed before a restart cannot fire into the
    /// fresh kernel (whose timer ids restart from scratch and could
    /// collide).
    Timer {
        node: NodeId,
        key: TimerKey,
        incarnation: u32,
    },
    /// The application on a node emits one chat message.
    AppSend { node: NodeId, seq: u64 },
    /// The node crashes (fails silently) at this instant.
    NodeFailure { node: NodeId },
    /// The node restarts with empty state and rejoins the group.
    NodeRestart { node: NodeId },
}

/// The runner's side of the buffer swaps in [`flush_node`]: a platform's
/// queued side effects are swapped out against these (empty) buffers and
/// drained, so every flush reuses the same few allocations instead of
/// `mem::take`-ing a platform's capacity away and regrowing it.
#[derive(Default)]
struct FlushBuffers {
    packets: Vec<OutPacket>,
    arrivals: Vec<Delivery<NetPayload>>,
    timers: Vec<(u64, TimerKey)>,
    deliveries: Vec<AppDelivery>,
}

/// Packets and bytes per wire tag, `(tag, packets, bytes)` in tag order:
/// the run's [`WireEventBytes`] before their names are resolved.
#[derive(Debug, Default)]
struct WireTally(Vec<(u16, u64, u64)>);

impl WireTally {
    /// Counts one packet of `bytes` with the wire tag `tag` (`None`, a
    /// packet too short for a tag, is not counted).
    fn add(&mut self, tag: Option<u16>, bytes: usize) {
        let Some(tag) = tag else {
            return;
        };
        let at = match self.0.binary_search_by_key(&tag, |(tag, _, _)| *tag) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (tag, 0, 0));
                at
            }
        };
        let (_, packets, total) = &mut self.0[at];
        *packets += 1;
        *total += bytes as u64;
    }
}

/// Per-node bookkeeping collected during a run.
#[derive(Debug, Default, Clone)]
struct NodeTally {
    app_deliveries: u64,
    view_changes: u64,
    notifications: Vec<String>,
    rounds: Vec<RoundReport>,
    reconfig_errors: u64,
    packet_errors: u64,
    control_dropped: u64,
    data_dropped: u64,
    partition_dropped: u64,
    corrupted: u64,
    last_view_id: Option<u64>,
    context_converged_ms: Option<u64>,
    min_view_members: Option<usize>,
    restarts: u64,
    rejoin: Option<RejoinReport>,
    catchups: u64,
    shed_packets: u64,
}

/// Fixed per-packet framing overhead added to every transmission (UDP + IP
/// headers), so energy and byte counts are not unrealistically small.
const FRAMING_OVERHEAD_BYTES: usize = 28;

/// How often (in simulated milliseconds) the wedge detector samples the
/// run's progress.
const WEDGE_SAMPLE_MS: u64 = 500;

/// Completed reconfiguration rounds beyond which the wedge detector calls
/// round-epoch churn: a healthy run completes a handful of rounds, a
/// flip-flopping control loop completes them endlessly.
const WEDGE_ROUND_CAP: u64 = 256;

/// Margin (in simulated milliseconds) a churn victim is left alone after
/// its restart before it may be crashed again, so every crash hits a member
/// that had a chance to rejoin.
const CHURN_REJOIN_MARGIN_MS: u64 = 10_000;

/// Executes [`Scenario`]s.
#[derive(Debug, Default, Clone)]
pub struct Runner {
    /// Hard cap on processed simulation events (safety net against runaway
    /// feedback loops). `0` means no cap.
    pub max_events: u64,
}

impl Runner {
    /// Creates a runner with default settings.
    pub fn new() -> Self {
        Self { max_events: 0 }
    }

    /// Runs a scenario to completion and reports the results.
    pub fn run(&self, scenario: &Scenario) -> RunReport {
        self.run_with_binding(scenario, &mut NoBinding)
    }

    /// Runs a scenario with an application binding supplying payloads,
    /// delivery taps and rejoin state sections.
    pub fn run_with_binding(&self, scenario: &Scenario, binding: &mut dyn AppBinding) -> RunReport {
        // A run replays from `(scenario, seed)` alone — allocations
        // included, which the header scratch and event boxes left by an
        // earlier run in this thread would otherwise shift.
        morpheus_appia::reset_thread_scratch();
        let members = scenario.members();
        let topology = build_topology(scenario);
        let mut network = Network::new(topology);
        network.set_faults(scenario.fault_schedule.clone());
        network.set_egress_queue(scenario.node_capacity.map(|_| EGRESS_QUEUE_BYTES));
        let mut rng = SimRng::new(scenario.seed);
        let mut queue: EventQueue<SimEvent> = EventQueue::new();
        let mut spare = FlushBuffers::default();
        let mut wire_events = WireTally::default();

        // Instantiate one Morpheus node per participant.
        let mut nodes: Vec<MorpheusNode> = Vec::with_capacity(members.len());
        let mut platforms: Vec<SimPlatform> = Vec::with_capacity(members.len());
        let mut tallies: Vec<NodeTally> = vec![NodeTally::default(); members.len()];
        let mut incarnations: Vec<u32> = vec![0; members.len()];
        // The channels [`Scenario::control_loss`] / [`Scenario::data_loss`]
        // degrade — read from the same options every node is built with,
        // not hardcoded.
        let boot_options = node_options(scenario, &members, false);
        let control_channel = boot_options.control_channel;
        let data_channel = boot_options.data_channel;
        // One cap serves two roles: data-plane transmissions are *shed* at
        // the enqueue boundary once the event queue reaches it (graceful
        // overload degradation — gossip repair recovers what was shed),
        // while control/context/timer events are never shed, so a queue that
        // still grows past the cap is a control-plane runaway and trips the
        // wedge detector below.
        let queue_cap = if scenario.wedge_queue_cap > 0 {
            scenario.wedge_queue_cap
        } else {
            100_000 + 2_000 * members.len() as u64
        };

        for member in &members {
            let (node, platform) = build_node(scenario, &members, *member, 0, 0, &network, binding);
            nodes.push(node);
            platforms.push(platform);
        }

        // Side effects produced while the nodes were constructed (initial
        // context publications, timers) must be flushed before time starts.
        for index in 0..members.len() {
            flush_node(
                index,
                SimTime::ZERO,
                scenario,
                &control_channel,
                &data_channel,
                &mut nodes,
                &mut platforms,
                &mut tallies,
                &mut network,
                &mut queue,
                queue_cap,
                &mut rng,
                &incarnations,
                binding,
                &mut spare,
                &mut wire_events,
            );
        }

        // Schedule the application workload.
        for sender in &scenario.workload.senders {
            for seq in 0..scenario.workload.messages_per_sender {
                let at = scenario.workload.warmup_ms + seq * scenario.workload.interval_ms;
                queue.push(
                    SimTime::from_millis(at),
                    SimEvent::AppSend { node: *sender, seq },
                );
            }
        }

        // Schedule injected node failures and restarts.
        for (at_ms, node) in &scenario.failures {
            queue.push(
                SimTime::from_millis(*at_ms),
                SimEvent::NodeFailure { node: *node },
            );
        }
        for (at_ms, node) in &scenario.restarts {
            queue.push(
                SimTime::from_millis(*at_ms),
                SimEvent::NodeRestart { node: *node },
            );
        }

        // Expand the fault schedule's overload régimes into extra
        // application sends: during each window every workload sender emits
        // one additional message per interval on top of the configured
        // rate. Extra sends reuse the AppSend path with sequence numbers
        // beyond the configured workload, so payloads stay unique.
        {
            let mut extra_seq = scenario.workload.messages_per_sender;
            for (start_ms, end_ms, interval_ms) in scenario.fault_schedule.overload_events() {
                let mut at = start_ms;
                while at < end_ms {
                    for sender in &scenario.workload.senders {
                        queue.push(
                            SimTime::from_millis(at),
                            SimEvent::AppSend {
                                node: *sender,
                                seq: extra_seq,
                            },
                        );
                    }
                    extra_seq += 1;
                    at += interval_ms.max(1);
                }
            }
        }

        // Expand the fault schedule's churn régimes into crash/restart
        // pairs. A dedicated rng stream keeps fault-free runs byte-for-byte
        // identical to what they were without the fault layer, while churn
        // victims still replay exactly from `(seed, schedule)`. Senders and
        // node 0 (the deterministic first rejoin donor) are spared, and a
        // victim is left alone long enough to rejoin before it is eligible
        // again.
        {
            let mut churn_rng = SimRng::new(scenario.seed ^ 0xC4A5_F417_5EED_0001);
            let mut busy_until: Vec<u64> = vec![0; members.len()];
            for (start_ms, end_ms, interval_ms, down_ms) in scenario.fault_schedule.churn_events() {
                let mut at = start_ms;
                while at < end_ms {
                    let eligible: Vec<usize> = (1..members.len())
                        .filter(|index| {
                            let node = members[*index];
                            !scenario.workload.senders.contains(&node) && busy_until[*index] <= at
                        })
                        .collect();
                    if let Some(&index) = churn_rng.pick(&eligible) {
                        let node = members[index];
                        queue.push(SimTime::from_millis(at), SimEvent::NodeFailure { node });
                        queue.push(
                            SimTime::from_millis(at + down_ms),
                            SimEvent::NodeRestart { node },
                        );
                        busy_until[index] = at + down_ms + CHURN_REJOIN_MARGIN_MS;
                    }
                    at += interval_ms.max(1);
                }
            }
        }

        // Main discrete-event loop.
        let end = SimTime::from_millis(scenario.end_time_ms());
        let mut processed: u64 = 0;
        let mut last_time = SimTime::ZERO;
        // Wedge-detector state: progress is sampled on a sim-time grid; a
        // wedge is declared when the signature stalls for a whole window
        // while live, reachable members disagree on the installed view —
        // or when the event queue or the round count grows without bound.
        let wedge_enabled = scenario.wedge_window_ms > 0;
        let mut wedge: Option<WedgeReport> = None;
        let mut max_queue_depth: u64 = 0;
        let mut next_wedge_sample_ms: u64 = 0;
        let mut last_progress_sig: u64 = 0;
        let mut stalled_since: Option<u64> = None;
        let corruption_possible = scenario.fault_schedule.has_corruption();
        // Reused across packet events so the hot loop does not allocate a
        // fresh batch vector per arrival.
        let mut batch: Vec<InPacket> = Vec::new();
        while let Some((time, event)) = queue.pop() {
            if time > end {
                break;
            }
            if self.max_events != 0 && processed >= self.max_events {
                break;
            }
            processed += 1;
            last_time = time;
            max_queue_depth = max_queue_depth.max(queue.len() as u64);

            if wedge_enabled && time.as_millis() >= next_wedge_sample_ms {
                next_wedge_sample_ms = time.as_millis() + WEDGE_SAMPLE_MS;
                // Data packets are shed at the cap, so only unsheddable
                // (control-plane) growth can push the queue past it — with
                // head-room for the control events already in flight.
                if queue.len() as u64 > queue_cap * 2 {
                    wedge = Some(WedgeReport {
                        at_ms: time.as_millis(),
                        reason: format!(
                            "event queue grew past {} entries despite data shedding",
                            queue_cap * 2
                        ),
                    });
                    break;
                }
                let rounds: u64 = tallies.iter().map(|tally| tally.rounds.len() as u64).sum();
                if rounds > WEDGE_ROUND_CAP {
                    wedge = Some(WedgeReport {
                        at_ms: time.as_millis(),
                        reason: format!(
                            "more than {WEDGE_ROUND_CAP} reconfiguration rounds completed \
                             (round-epoch churn)"
                        ),
                    });
                    break;
                }
                let sig = progress_signature(&tallies);
                if sig != last_progress_sig {
                    last_progress_sig = sig;
                    stalled_since = None;
                } else if live_views_disagree(scenario, &network, &tallies, time.as_millis()) {
                    let since = *stalled_since.get_or_insert(time.as_millis());
                    if time.as_millis().saturating_sub(since) >= scenario.wedge_window_ms {
                        wedge = Some(WedgeReport {
                            at_ms: time.as_millis(),
                            reason: format!(
                                "no progress for {}ms while live members disagree on the \
                                 installed view",
                                scenario.wedge_window_ms
                            ),
                        });
                        break;
                    }
                } else {
                    stalled_since = None;
                }
            }

            let node_id = match &event {
                SimEvent::Packet { to, .. } => *to,
                SimEvent::Timer { node, .. } => *node,
                SimEvent::AppSend { node, .. } => *node,
                SimEvent::NodeFailure { node } => *node,
                SimEvent::NodeRestart { node } => *node,
            };
            let index = node_id.0 as usize;
            if index >= nodes.len() {
                continue;
            }
            if let SimEvent::NodeFailure { node } = &event {
                if let Some(sim_node) = network.topology_mut().node_mut(SimNodeId(node.0)) {
                    sim_node.alive = false;
                }
                continue;
            }
            if let SimEvent::NodeRestart { node } = &event {
                let node = *node;
                if let Some(sim_node) = network.topology_mut().node_mut(SimNodeId(node.0)) {
                    sim_node.alive = true;
                }
                incarnations[index] += 1;
                // A fresh incarnation: empty protocol and application state,
                // a joining stack, a new deterministic rng stream. Timers of
                // the previous incarnation are fenced off by the incarnation
                // stamp.
                let (fresh, platform) = build_node(
                    scenario,
                    &members,
                    node,
                    incarnations[index],
                    time.as_millis(),
                    &network,
                    binding,
                );
                nodes[index] = fresh;
                platforms[index] = platform;
                tallies[index].restarts += 1;
                tallies[index].rejoin = None;
                // A fresh incarnation has not installed any view yet, so it
                // must not count as "disagreeing" in the wedge detector
                // until it actually installs one.
                tallies[index].last_view_id = None;
                // Post-restart context convergence is what the recovery
                // metrics care about; the pre-crash value is obsolete.
                tallies[index].context_converged_ms = None;
                tallies[index]
                    .notifications
                    .push(format!("restarted (incarnation {})", incarnations[index]));
                flush_node(
                    index,
                    time,
                    scenario,
                    &control_channel,
                    &data_channel,
                    &mut nodes,
                    &mut platforms,
                    &mut tallies,
                    &mut network,
                    &mut queue,
                    queue_cap,
                    &mut rng,
                    &incarnations,
                    binding,
                    &mut spare,
                    &mut wire_events,
                );
                continue;
            }
            // Crashed nodes stop processing anything.
            if !network.is_operational(SimNodeId(node_id.0)) {
                continue;
            }

            platforms[index].set_now(time.as_millis());
            platforms[index].set_profile(profile_for(&network, scenario, node_id));

            match event {
                SimEvent::Packet {
                    to,
                    from,
                    class,
                    payload,
                } => {
                    // Drain every packet arriving at this node at this very
                    // instant into one batch, delivered with a single kernel
                    // queue drain (the FIFO tie-break of the event queue is
                    // preserved because the batch keeps arrival order).
                    batch.clear();
                    batch.push(InPacket {
                        from,
                        to,
                        class,
                        channel: payload.channel,
                        payload: payload.bytes,
                    });
                    while let Some((_, more)) = queue.pop_if(|at, next| {
                        at == time
                            && matches!(next, SimEvent::Packet { to: next_to, .. } if *next_to == to)
                    }) {
                        let SimEvent::Packet { to, from, class, payload } = more else {
                            unreachable!("pop_if only matches packet events");
                        };
                        processed += 1;
                        batch.push(InPacket {
                            from,
                            to,
                            class,
                            channel: payload.channel,
                            payload: payload.bytes,
                        });
                    }
                    if corruption_possible {
                        // Byte-level corruption at the receive boundary: each
                        // arriving packet independently gets one random bit
                        // flipped, exercising every decode path with
                        // adversarial input. Drawn from the run's rng, so the
                        // damage replays from `(seed, schedule)`.
                        let rate = scenario.fault_schedule.corruption_rate(time.as_millis());
                        if rate > 0.0 {
                            for packet in batch.iter_mut() {
                                if !packet.payload.is_empty() && rng.chance(rate) {
                                    let mut bytes = packet.payload.to_vec();
                                    let at = rng.random_below(bytes.len() as u64) as usize;
                                    bytes[at] ^= 1 << rng.random_below(8);
                                    packet.payload = Bytes::from(bytes);
                                    tallies[index].corrupted += 1;
                                }
                            }
                        }
                    }
                    if scenario.is_partitioned(to, time.as_millis()) {
                        // The node is cut off: everything addressed to it in
                        // this instant is dropped at its network interface.
                        tallies[index].partition_dropped += batch.len() as u64;
                        batch.clear();
                    } else {
                        tallies[index].packet_errors += nodes[index]
                            .deliver_packet_batch(batch.drain(..), &mut platforms[index])
                            as u64;
                    }
                }
                SimEvent::Timer {
                    key, incarnation, ..
                } => {
                    if incarnation == incarnations[index] {
                        nodes[index].timer_fired(key, &mut platforms[index]);
                    }
                }
                SimEvent::AppSend { seq, .. } => {
                    let payload = binding
                        .compose(node_id, seq, scenario.workload.payload_size)
                        .unwrap_or_else(|| {
                            chat_payload(node_id, seq, scenario.workload.payload_size)
                        });
                    nodes[index].send_to_group(payload, &mut platforms[index]);
                }
                SimEvent::NodeFailure { .. } | SimEvent::NodeRestart { .. } => {
                    unreachable!("handled above")
                }
            }

            flush_node(
                index,
                time,
                scenario,
                &control_channel,
                &data_channel,
                &mut nodes,
                &mut platforms,
                &mut tallies,
                &mut network,
                &mut queue,
                queue_cap,
                &mut rng,
                &incarnations,
                binding,
                &mut spare,
                &mut wire_events,
            );
        }

        build_report(
            scenario,
            last_time,
            processed,
            &network,
            &nodes,
            &tallies,
            &wire_events,
            wedge,
            max_queue_depth,
        )
    }
}

/// A scalar fingerprint of everything that counts as forward progress:
/// deliveries, view installs, completed rounds, restarts, rejoins and
/// context convergence. Any change between wedge samples means the run is
/// still moving.
fn progress_signature(tallies: &[NodeTally]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut sig: u64 = 0xcbf2_9ce4_8422_2325;
    for tally in tallies {
        for value in [
            tally.app_deliveries,
            tally.view_changes,
            tally.rounds.len() as u64,
            tally.restarts,
            u64::from(tally.rejoin.is_some()),
            tally.context_converged_ms.unwrap_or(0),
            tally.last_view_id.unwrap_or(0),
        ] {
            sig = (sig ^ value).wrapping_mul(PRIME);
        }
    }
    sig
}

/// True when at least two members that are alive, unpartitioned and not
/// currently flapped down have installed different views. Stalled progress
/// while this holds is the wedge signature; disagreement among nodes the
/// schedule is actively isolating is expected and does not count.
fn live_views_disagree(
    scenario: &Scenario,
    network: &Network,
    tallies: &[NodeTally],
    at_ms: u64,
) -> bool {
    let mut live_view: Option<u64> = None;
    for (index, tally) in tallies.iter().enumerate() {
        let node = NodeId(index as u32);
        if !network.is_operational(SimNodeId(node.0))
            || scenario.is_partitioned(node, at_ms)
            || scenario
                .fault_schedule
                .node_flapped_down(SimNodeId(node.0), at_ms)
            || scenario
                .fault_schedule
                .node_partitioned(SimNodeId(node.0), at_ms)
        {
            continue;
        }
        let Some(view) = tally.last_view_id else {
            continue;
        };
        match live_view {
            None => live_view = Some(view),
            Some(existing) if existing != view => return true,
            Some(_) => {}
        }
    }
    false
}

/// The node options every incarnation of a scenario node is built with.
fn node_options(scenario: &Scenario, members: &[NodeId], rejoining: bool) -> NodeOptions {
    let mut options = NodeOptions::new(members.to_vec())
        .with_initial_stack(scenario.initial_stack)
        .with_publish_interval(scenario.publish_interval_ms);
    options.adaptive = scenario.adaptive;
    options.hb_interval_ms = scenario.hb_interval_ms;
    options.suspect_timeout_ms = scenario.suspect_timeout_ms;
    options.retransmit_interval_ms = scenario.retransmit_interval_ms;
    options.round_timeout_ms = scenario.round_timeout_ms;
    options.gossip_repair_interval_ms = scenario.repair_interval_ms;
    options.transfer_chunk_bytes = scenario.transfer_chunk_bytes;
    options.rejoining = rejoining;
    options
}

/// Builds one node incarnation: incarnation 0 is a boot member, higher
/// incarnations come up as rejoining members with fresh state.
fn build_node(
    scenario: &Scenario,
    members: &[NodeId],
    member: NodeId,
    incarnation: u32,
    now_ms: u64,
    network: &Network,
    binding: &mut dyn AppBinding,
) -> (MorpheusNode, SimPlatform) {
    let profile = profile_for(network, scenario, member);
    let mut platform = SimPlatform::new(
        profile,
        scenario
            .seed
            .wrapping_add(0x9E37 + u64::from(member.0))
            .wrapping_add(0x517E * u64::from(incarnation)),
    );
    // The clock must be right *before* the stacks come up: failure-detector
    // grace periods, join timestamps and snapshot versions are all taken at
    // channel creation.
    platform.set_now(now_ms);
    let options = node_options(scenario, members, incarnation > 0);
    let node = MorpheusNode::with_app_state(options, binding.state_sections(member), &mut platform)
        .expect("scenario stacks are built from the catalogue and always instantiate");
    (node, platform)
}

/// Builds the netsim topology for a scenario.
fn build_topology(scenario: &Scenario) -> Topology {
    let wireless = Wireless80211b {
        loss_rate: scenario.wireless_loss,
        ..Wireless80211b::default()
    };
    let topology = match scenario.topology {
        TopologyChoice::HybridCell => {
            Topology::hybrid_cell(scenario.fixed_nodes, scenario.mobile_nodes)
        }
        TopologyChoice::Lan { native_multicast } => {
            Topology::lan(scenario.device_count(), native_multicast)
        }
        TopologyChoice::AdHoc => Topology::ad_hoc(scenario.device_count()),
        TopologyChoice::Wan => Topology::wan(scenario.device_count()),
    };
    let topology = topology.with_wireless(wireless);
    match scenario.node_capacity {
        Some(bandwidth_kbps) => topology.with_bandwidth_kbps(bandwidth_kbps),
        None => topology,
    }
}

/// The locally observable context of a node, refreshed from the simulator.
fn profile_for(network: &Network, scenario: &Scenario, node: NodeId) -> NodeProfile {
    let sim_id = SimNodeId(node.0);
    let kind = network.kind_of(sim_id);
    let topology = network.topology();
    let device_class = if kind.is_mobile() {
        morpheus_appia::platform::DeviceClass::MobilePda
    } else {
        morpheus_appia::platform::DeviceClass::FixedPc
    };
    NodeProfile {
        node_id: node,
        device_class,
        battery_level: network.battery_fraction(sim_id),
        link_quality: 1.0 - topology.local_loss_rate(sim_id),
        bandwidth_kbps: topology.local_bandwidth_kbps(sim_id),
        error_rate: if kind.is_mobile() {
            scenario.wireless_loss
        } else {
            0.0
        },
        has_native_multicast: topology.native_multicast_available(sim_id),
    }
}

/// Generates one chat payload of the requested size.
fn chat_payload(sender: NodeId, seq: u64, size: usize) -> Bytes {
    let mut payload = format!("chat:{sender}:{seq}:").into_bytes();
    payload.resize(size.max(payload.len()), b'x');
    Bytes::from(payload)
}

fn traffic_class(class: PacketClass) -> TrafficClass {
    match class {
        PacketClass::Data => TrafficClass::Data,
        PacketClass::Control => TrafficClass::Control,
        PacketClass::Context => TrafficClass::Context,
        PacketClass::Repair => TrafficClass::Repair,
        PacketClass::Overlay => TrafficClass::Overlay,
    }
}

/// Drains every side effect a node produced and feeds it back into the
/// simulation: packets onto the network, timers onto the event queue,
/// reconfiguration requests into the node's local module, deliveries into the
/// tallies. Repeats until the node is quiescent.
#[allow(clippy::too_many_arguments)]
fn flush_node(
    index: usize,
    now: SimTime,
    scenario: &Scenario,
    control_channel: &str,
    data_channel: &str,
    nodes: &mut [MorpheusNode],
    platforms: &mut [SimPlatform],
    tallies: &mut [NodeTally],
    network: &mut Network,
    queue: &mut EventQueue<SimEvent>,
    queue_cap: u64,
    rng: &mut SimRng,
    incarnations: &[u32],
    binding: &mut dyn AppBinding,
    spare: &mut FlushBuffers,
    wire_events: &mut WireTally,
) {
    loop {
        let mut progressed = false;

        // 1. Reconfiguration requests raised by the Core control layer.
        for request in platforms[index].take_reconfig_requests() {
            progressed = true;
            if nodes[index]
                .apply_reconfiguration(request, &mut platforms[index])
                .is_err()
            {
                tallies[index].reconfig_errors += 1;
            }
        }

        // 2. Outgoing packets. When the scenario degrades the control plane
        //    (or, for repair experiments, the data channel), packets on that
        //    channel are dropped here with the run's rng, accounted
        //    separately from the link model's own losses — so each
        //    experiment isolates the loss tolerance of one protocol.
        //    A partitioned node's traffic is dropped wholesale.
        platforms[index].swap_packets(&mut spare.packets);
        for out in spare.packets.drain(..) {
            progressed = true;
            if scenario.is_partitioned(NodeId(index as u32), now.as_millis()) {
                tallies[index].partition_dropped += 1;
                continue;
            }
            if scenario.control_loss > 0.0
                && out.channel.as_str() == control_channel
                && rng.chance(scenario.control_loss)
            {
                tallies[index].control_dropped += 1;
                continue;
            }
            if scenario.data_loss > 0.0
                && out.channel.as_str() == data_channel
                && rng.chance(scenario.data_loss)
            {
                tallies[index].data_dropped += 1;
                continue;
            }
            let target = match out.dest {
                PacketDest::Node(to) => PacketTarget::Unicast(SimNodeId(to.0)),
                PacketDest::Broadcast => PacketTarget::Broadcast,
            };
            let size_bytes = out.payload.len() + FRAMING_OVERHEAD_BYTES;
            let tag = packet_tag(&out.payload);
            let packet = Packet {
                from: SimNodeId(out.from.0),
                target,
                size_bytes,
                class: traffic_class(out.class),
                payload: NetPayload {
                    channel: out.channel,
                    bytes: out.payload,
                },
            };
            if !network.send_into(packet, now, rng, &mut spare.arrivals) {
                // Shed at the sender's full egress queue: never on the wire.
                continue;
            }
            wire_events.add(tag, size_bytes);
            for delivery in spare.arrivals.drain(..) {
                // Bounded event queue with graceful shedding: once the
                // queue is at capacity, *data*-plane arrivals are dropped
                // here (the epidemic repair plane recovers them), while
                // control/context arrivals and timers are never shed — a
                // queue still growing past the cap is control runaway and
                // is left to the wedge detector.
                if out.class == PacketClass::Data && queue.len() as u64 >= queue_cap {
                    tallies[index].shed_packets += 1;
                    continue;
                }
                queue.push(
                    delivery.at,
                    SimEvent::Packet {
                        to: NodeId(delivery.to.0),
                        from: NodeId(delivery.from.0),
                        class: out.class,
                        payload: delivery.payload,
                    },
                );
            }
        }

        // 3. Timers, stamped with the node's current incarnation.
        platforms[index].swap_timer_requests(&mut spare.timers);
        for (delay, key) in spare.timers.drain(..) {
            progressed = true;
            queue.push(
                now + delay,
                SimEvent::Timer {
                    node: NodeId(index as u32),
                    key,
                    incarnation: incarnations[index],
                },
            );
        }

        // 4. Application deliveries.
        platforms[index].swap_deliveries(&mut spare.deliveries);
        for delivery in spare.deliveries.drain(..) {
            progressed = true;
            binding.on_delivery(NodeId(index as u32), &delivery);
            match delivery.kind {
                DeliveryKind::Data { .. } => tallies[index].app_deliveries += 1,
                DeliveryKind::ViewChange {
                    view_id,
                    ref members,
                } => {
                    tallies[index].view_changes += 1;
                    tallies[index].last_view_id = Some(view_id);
                    let smallest = tallies[index].min_view_members.get_or_insert(members.len());
                    *smallest = (*smallest).min(members.len());
                }
                DeliveryKind::Reconfigured { stack } => {
                    tallies[index]
                        .notifications
                        .push(format!("reconfigured to {stack}"));
                }
                DeliveryKind::ReconfigurationComplete {
                    stack,
                    epoch,
                    latency_ms,
                    retransmits,
                    nodes: quorum,
                } => {
                    tallies[index].notifications.push(format!(
                        "reconfiguration to `{stack}` (epoch {epoch}) completed across \
                         {quorum} nodes in {latency_ms} ms after {retransmits} retransmits"
                    ));
                    tallies[index].rounds.push(RoundReport {
                        coordinator: NodeId(index as u32),
                        stack,
                        epoch,
                        latency_ms,
                        retransmits,
                        nodes: quorum,
                    });
                }
                DeliveryKind::Rejoined {
                    donor,
                    bytes,
                    chunks,
                    transfer_epochs,
                    elapsed_ms,
                } => {
                    tallies[index].notifications.push(format!(
                        "rejoined via donor {donor} in {elapsed_ms} ms ({bytes} bytes, \
                         {chunks} chunks, {transfer_epochs} transfer epochs)"
                    ));
                    tallies[index].rejoin = Some(RejoinReport {
                        at_ms: now.as_millis(),
                        donor,
                        bytes,
                        chunks,
                        transfer_epochs,
                        elapsed_ms,
                    });
                }
                DeliveryKind::CaughtUp {
                    donor,
                    bytes,
                    chunks,
                } => {
                    tallies[index].notifications.push(format!(
                        "caught up past the repair-log floor via donor {donor} \
                         ({bytes} bytes, {chunks} chunks) without rejoining"
                    ));
                    tallies[index].catchups += 1;
                }
                DeliveryKind::ContextConverged { .. } => {
                    // First full coverage of the membership by this node's
                    // context store: the dissemination convergence metric.
                    tallies[index]
                        .context_converged_ms
                        .get_or_insert(now.as_millis());
                }
                DeliveryKind::Notification(text) => tallies[index].notifications.push(text),
            }
        }

        if !progressed {
            return;
        }
    }
}

/// Assembles the final report.
#[allow(clippy::too_many_arguments)]
fn build_report(
    scenario: &Scenario,
    last_time: SimTime,
    events_processed: u64,
    network: &Network,
    nodes: &[MorpheusNode],
    tallies: &[NodeTally],
    wire_events: &WireTally,
    wedge: Option<WedgeReport>,
    max_queue_depth: u64,
) -> RunReport {
    let mut node_reports = Vec::with_capacity(nodes.len());
    for (index, node) in nodes.iter().enumerate() {
        let node_id = NodeId(index as u32);
        let sim_id = SimNodeId(index as u32);
        let stats = network.stats().node_or_default(sim_id);
        let tally = &tallies[index];
        node_reports.push(NodeReport {
            node: node_id,
            is_mobile: network.kind_of(sim_id).is_mobile(),
            sent_data: stats.sent_of(TrafficClass::Data),
            sent_control: stats.sent_of(TrafficClass::Control),
            sent_context: stats.sent_of(TrafficClass::Context),
            sent_repair: stats.sent_of(TrafficClass::Repair),
            sent_overlay: stats.sent_of(TrafficClass::Overlay),
            received_total: stats.total_received(),
            bytes_sent: stats.bytes_sent,
            wire_bytes: WireBytes {
                data: stats.bytes_sent_of(TrafficClass::Data),
                control: stats.bytes_sent_of(TrafficClass::Control),
                context: stats.bytes_sent_of(TrafficClass::Context),
                repair: stats.bytes_sent_of(TrafficClass::Repair),
                overlay: stats.bytes_sent_of(TrafficClass::Overlay),
            },
            energy_joules: stats.energy_joules,
            battery_fraction: network.battery_fraction(sim_id),
            app_deliveries: tally.app_deliveries,
            view_changes: tally.view_changes,
            final_stack: node.current_stack().to_string(),
            reconfigurations: node.reconfigurations(),
            notifications: tally.notifications.clone(),
            rounds: tally.rounds.clone(),
            errors: tally.packet_errors + tally.reconfig_errors,
            context_converged_ms: tally.context_converged_ms,
            min_view_members: tally.min_view_members,
            restarts: tally.restarts,
            rejoin: tally.rejoin.clone(),
            catchups: tally.catchups,
            buffer_shed: node.recovery_buffer_shed().unwrap_or(0),
            gossip: node.gossip_stats(),
        });
    }
    let stats = network.stats();
    RunReport {
        scenario: scenario.name.clone(),
        devices: scenario.device_count(),
        adaptive: scenario.adaptive,
        duration_ms: last_time.as_millis(),
        events_processed,
        messages_lost: stats.total_lost_of(TrafficClass::Data),
        control_lost: stats.total_lost_of(TrafficClass::Control)
            + stats.total_lost_of(TrafficClass::Context)
            + stats.total_lost_of(TrafficClass::Repair)
            + stats.total_lost_of(TrafficClass::Overlay)
            + tallies
                .iter()
                .map(|tally| tally.control_dropped)
                .sum::<u64>(),
        messages_lost_to_crashed: stats.total_lost_to_dead(),
        data_dropped: tallies.iter().map(|tally| tally.data_dropped).sum(),
        partition_dropped: tallies.iter().map(|tally| tally.partition_dropped).sum(),
        fault_dropped: stats.total_fault_dropped(),
        corrupted_packets: tallies.iter().map(|tally| tally.corrupted).sum(),
        shed_packets: tallies.iter().map(|tally| tally.shed_packets).sum::<u64>()
            + stats.total_egress_shed(),
        egress_shed_packets: stats.total_egress_shed(),
        max_queue_depth,
        wedge,
        nodes: node_reports,
        wire_events: wire_events
            .0
            .iter()
            .map(|&(tag, packets, bytes)| WireEventBytes {
                tag,
                name: nodes
                    .iter()
                    .find_map(|node| node.wire_event_name(tag))
                    .map_or_else(|| format!("{tag:#06x}"), str::to_string),
                packets,
                bytes,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;

    fn small_figure3(devices: usize, optimized: bool) -> Scenario {
        let mut scenario = Scenario::figure3(devices, optimized, 60);
        scenario.workload.warmup_ms = 2500;
        scenario.publish_interval_ms = 500;
        scenario
    }

    #[test]
    fn non_adaptive_mobile_node_pays_the_full_fanout() {
        let report = Runner::new().run(&small_figure3(4, false));
        let mobile = report.node(NodeId(1)).unwrap();
        // 60 group sends, each expanded to 3 point-to-point messages.
        assert_eq!(mobile.sent_data, 180);
        assert_eq!(mobile.final_stack, "best-effort");
        assert_eq!(mobile.reconfigurations, 0);
    }

    #[test]
    fn the_wire_event_tally_adds_up_to_the_wire_bytes_and_names_every_tag() {
        let report = Runner::new().run(&small_figure3(6, true));
        let events = &report.wire_events;
        let bytes: u64 = events.iter().map(|event| event.bytes).sum();
        let packets: u64 = events.iter().map(|event| event.packets).sum();
        assert_eq!(bytes, report.wire_bytes_totals().total());
        let sent: u64 = report.nodes.iter().map(NodeReport::sent_total).sum();
        assert_eq!(packets, sent);
        assert!(events.windows(2).all(|pair| pair[0].tag < pair[1].tag));
        for event in events {
            assert_eq!(morpheus_appia::registry::wire_tag(&event.name), event.tag);
        }
        let names: Vec<&str> = events.iter().map(|event| event.name.as_str()).collect();
        for name in [
            "DataEvent",
            "ContextPublish",
            "ReconfigCommand",
            "Heartbeat",
        ] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
    }

    #[test]
    fn adaptive_run_switches_to_mecho_and_flattens_the_mobile_load() {
        let report = Runner::new().run(&small_figure3(6, true));
        let mobile = report.node(NodeId(1)).unwrap();
        assert!(
            mobile.final_stack.starts_with("hybrid-mecho"),
            "unexpected final stack {}",
            mobile.final_stack
        );
        assert!(mobile.reconfigurations >= 1);
        // After the switch, each chat message costs the mobile node a single
        // transmission, so the data count stays close to the message count.
        assert!(
            mobile.sent_data <= 120,
            "mobile sent {} data messages, expected roughly 60",
            mobile.sent_data
        );
        // The fixed relay pays the fan-out instead (paper footnote 1).
        let fixed = report.node(NodeId(0)).unwrap();
        assert!(fixed.sent_data > mobile.sent_data);
        // Messages are still delivered to every participant.
        assert!(report.total_app_deliveries() > 0);
    }

    #[test]
    fn adaptive_and_baseline_agree_for_two_devices() {
        let optimized = Runner::new().run(&small_figure3(2, true));
        let baseline = Runner::new().run(&small_figure3(2, false));
        let sent_optimized = optimized.node(NodeId(1)).unwrap().sent_data;
        let sent_baseline = baseline.node(NodeId(1)).unwrap().sent_data;
        assert_eq!(
            sent_baseline, 60,
            "with two devices every interaction is a single point-to-point message"
        );
        assert_eq!(sent_optimized, sent_baseline);
    }

    #[test]
    fn deliveries_reach_the_other_participants() {
        let report = Runner::new().run(&small_figure3(3, false));
        // Two receivers, 60 messages each (loss-free wired/wireless defaults).
        assert_eq!(report.total_app_deliveries(), 120);
        assert_eq!(report.messages_lost, 0);
    }

    #[test]
    fn lossy_wireless_runs_record_losses() {
        let scenario = small_figure3(4, false).with_wireless_loss(0.3).with_seed(7);
        let report = Runner::new().run(&scenario);
        assert!(report.messages_lost > 0);
        let mobile = report.node(NodeId(1)).unwrap();
        assert_eq!(
            mobile.sent_data, 180,
            "losses do not change how much the sender transmits"
        );
        assert!(report.total_app_deliveries() < 360);
    }

    #[test]
    fn ad_hoc_scenarios_run_with_every_node_mobile() {
        let mut scenario = Scenario::new("adhoc", 0, 3)
            .with_topology(crate::scenario::TopologyChoice::AdHoc)
            .non_adaptive();
        scenario.workload = Workload::paper_chat(vec![NodeId(0)], 20);
        scenario.workload.warmup_ms = 1000;
        let report = Runner::new().run(&scenario);
        assert!(report.nodes.iter().all(|node| node.is_mobile));
        assert_eq!(report.node(NodeId(0)).unwrap().sent_data, 40);
    }

    #[test]
    fn max_events_caps_the_run() {
        let runner = Runner { max_events: 10 };
        let report = runner.run(&small_figure3(3, false));
        assert!(report.total_app_deliveries() < 10);
    }

    use morpheus_netsim::FaultSchedule;

    fn harness_with(schedule: &str, n: usize, seed: u64) -> Scenario {
        Scenario::fault_harness(n, seed)
            .with_fault_schedule(FaultSchedule::parse(schedule).expect("test schedule parses"))
    }

    #[test]
    fn flap_and_oneway_drops_are_fault_accounted_not_lost() {
        let scenario = harness_with(
            "flap(node=3,start=7000,down=400,up=1200,until=11000);\
             oneway(from=4,to=5,start=7000,end=10000)",
            6,
            11,
        );
        let report = Runner::new().run(&scenario);
        assert!(
            report.fault_dropped > 0,
            "injected faults were active while traffic flowed"
        );
        assert_eq!(
            report.messages_lost, 0,
            "live links never lose data; every drop is fault-accounted"
        );
        assert!(
            report.wedge.is_none(),
            "unexpected wedge: {:?}",
            report.wedge
        );
        assert!(report.total_app_deliveries() > 0);
    }

    #[test]
    fn corrupted_packets_are_rejected_not_crashed_on() {
        let scenario = harness_with("corrupt(start=6000,end=12000,rate=0.05)", 6, 13);
        let report = Runner::new().run(&scenario);
        assert!(
            report.corrupted_packets > 0,
            "corruption window saw traffic"
        );
        assert!(
            report.total_errors() <= report.corrupted_packets,
            "every decode error is explained by an injected corruption \
             ({} errors, {} corrupted)",
            report.total_errors(),
            report.corrupted_packets
        );
        assert_eq!(report.messages_lost, 0);
        assert!(
            report.wedge.is_none(),
            "unexpected wedge: {:?}",
            report.wedge
        );
    }

    #[test]
    fn churn_victims_restart_and_rejoin() {
        let scenario = harness_with("churn(start=6000,end=12000,interval=2000,down=2500)", 8, 17);
        let report = Runner::new().run(&scenario);
        let restarts: u64 = report.nodes.iter().map(|node| node.restarts).sum();
        assert!(restarts >= 2, "churn produced only {restarts} restarts");
        assert!(
            report.nodes.iter().any(|node| node.rejoin.is_some()),
            "at least one churn victim completed a state-transfer rejoin"
        );
        assert_eq!(report.messages_lost, 0);
        assert!(
            report.wedge.is_none(),
            "unexpected wedge: {:?}",
            report.wedge
        );
    }

    #[test]
    fn wan_region_tiers_slow_the_group_without_losing_data() {
        let scenario = harness_with("wanregions(start=7000,end=13000,regions=3,step=60)", 6, 19);
        let first = Runner::new().run(&scenario);
        assert_eq!(
            first.messages_lost, 0,
            "region latency delays packets, it never drops them"
        );
        assert!(first.wedge.is_none(), "unexpected wedge: {:?}", first.wedge);
        assert!(first.total_app_deliveries() > 0);
        let second = Runner::new().run(&scenario);
        assert_eq!(first, second, "WAN-region replay from (seed, schedule)");
    }

    #[test]
    fn mass_churn_victims_restart_and_replay_deterministically() {
        let scenario = harness_with("masschurn(start=7000,end=11000,per=2,down=2000)", 8, 29);
        let first = Runner::new().run(&scenario);
        let restarts: u64 = first.nodes.iter().map(|node| node.restarts).sum();
        assert!(
            restarts >= 4,
            "mass churn produced only {restarts} restarts"
        );
        assert_eq!(first.messages_lost, 0);
        assert!(first.wedge.is_none(), "unexpected wedge: {:?}", first.wedge);
        let second = Runner::new().run(&scenario);
        assert_eq!(first, second, "mass-churn replay from (seed, schedule)");
    }

    #[test]
    fn flap_oneway_drops_are_fault_accounted_and_replay() {
        let scenario = harness_with(
            "flaponeway(from=2,to=4,start=7000,down=500,up=900,until=12000)",
            6,
            31,
        );
        let first = Runner::new().run(&scenario);
        assert!(
            first.fault_dropped > 0,
            "the flapping one-way link dropped traffic"
        );
        assert_eq!(
            first.messages_lost, 0,
            "every drop is fault-accounted, never a live-link loss"
        );
        assert!(first.wedge.is_none(), "unexpected wedge: {:?}", first.wedge);
        let second = Runner::new().run(&scenario);
        assert_eq!(first, second, "flap-oneway replay from (seed, schedule)");
    }

    #[test]
    fn permanent_one_way_silence_wedges_deterministically() {
        // Node 5 transmits into the void forever but hears everything: the
        // group expels it, it can never complete a rejoin handshake, and the
        // run makes no further progress while node 5 still holds the old
        // view — exactly what the wedge detector exists to catch. Replaying
        // the same `(seed, schedule)` must reproduce the identical wedge.
        let schedule: String = (0..5)
            .map(|to| format!("oneway(from=5,to={to},start=7000,end=600000)"))
            .collect::<Vec<_>>()
            .join(";");
        let scenario = harness_with(&schedule, 6, 23);
        let first = Runner::new().run(&scenario);
        let second = Runner::new().run(&scenario);
        let wedge_a = first.wedge.expect("the silenced member wedges the run");
        let wedge_b = second.wedge.expect("the replay wedges too");
        assert_eq!(wedge_a, wedge_b, "wedge must replay from (seed, schedule)");
    }

    #[test]
    fn fault_runs_replay_identically_from_seed_and_schedule() {
        let base = Scenario::fault_harness(8, 42);
        let schedule = FaultSchedule::generate(42, 8, base.end_time_ms());
        let scenario = base.with_fault_schedule(schedule);
        let first = Runner::new().run(&scenario);
        let second = Runner::new().run(&scenario);
        assert_eq!(
            first, second,
            "whole-report determinism in (seed, schedule)"
        );
    }

    #[test]
    fn fault_free_harness_run_is_clean() {
        let report = Runner::new().run(&Scenario::fault_harness(5, 3));
        assert_eq!(report.fault_dropped, 0);
        assert_eq!(report.corrupted_packets, 0);
        assert_eq!(report.messages_lost, 0);
        assert!(
            report.wedge.is_none(),
            "unexpected wedge: {:?}",
            report.wedge
        );
        assert!(report.total_app_deliveries() > 0);
    }
}
