//! Experiment descriptions.

use morpheus_appia::platform::NodeId;
use morpheus_core::StackKind;
use morpheus_netsim::{FaultEvent, FaultSchedule, NodeId as SimNodeId};

/// Which network topology the scenario runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyChoice {
    /// Fixed PCs on a wired LAN plus mobile PDAs behind an 802.11b access
    /// point — the paper's evaluation testbed.
    HybridCell,
    /// All nodes fixed, one wired LAN.
    Lan {
        /// Whether the LAN offers native multicast.
        native_multicast: bool,
    },
    /// All nodes mobile in one wireless cell.
    AdHoc,
    /// Fixed nodes spread over a WAN.
    Wan,
}

/// The application workload: which nodes send, how much and how fast.
///
/// The paper's chat workload is "the exchange of 40,000 messages at the pace
/// of 10 msg/s"; [`Workload::paper_chat`] reproduces it (optionally scaled
/// down for quick runs).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Nodes that generate application messages.
    pub senders: Vec<NodeId>,
    /// Messages each sender generates.
    pub messages_per_sender: u64,
    /// Interval between consecutive messages of one sender, in milliseconds.
    pub interval_ms: u64,
    /// Application payload size in bytes.
    pub payload_size: usize,
    /// Delay before the first message, in milliseconds (lets the context
    /// dissemination and any initial adaptation settle first).
    pub warmup_ms: u64,
}

impl Workload {
    /// The paper's chat workload, generated by the given senders.
    pub fn paper_chat(senders: Vec<NodeId>, messages_per_sender: u64) -> Self {
        Self {
            senders,
            messages_per_sender,
            interval_ms: 100, // 10 msg/s
            payload_size: 64,
            warmup_ms: 3000,
        }
    }

    /// Total simulated duration of the workload, in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.warmup_ms + self.messages_per_sender.saturating_mul(self.interval_ms)
    }

    /// Sequence numbers (1-based, as the chat binding stamps them) of the
    /// messages each sender emits inside `[from_ms, to_ms)` — the window
    /// arithmetic behind the recovery tests' "sent while the node was down"
    /// sets.
    pub fn seqs_sent_between(&self, from_ms: u64, to_ms: u64) -> std::ops::Range<u64> {
        let first = from_ms
            .saturating_sub(self.warmup_ms)
            .div_ceil(self.interval_ms);
        let last = to_ms
            .saturating_sub(self.warmup_ms)
            .div_ceil(self.interval_ms)
            .min(self.messages_per_sender);
        first + 1..last + 1
    }
}

/// Bytes one node's egress queue holds, the packet in service included,
/// when nodes have a capacity ([`Scenario::node_capacity`]): about a third
/// of a second of [`Scenario::capacity_overload`]'s link at n = 50.
pub const EGRESS_QUEUE_BYTES: usize = 4 * 1024;

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// A human-readable name used in reports.
    pub name: String,
    /// Number of fixed (wired) participants.
    pub fixed_nodes: usize,
    /// Number of mobile (wireless) participants.
    pub mobile_nodes: usize,
    /// The network topology.
    pub topology: TopologyChoice,
    /// Loss rate of the wireless link (overrides the default 1%).
    pub wireless_loss: f64,
    /// Extra loss applied to control-plane traffic only (reconfiguration
    /// commands/acks, heartbeats and context publications), in `[0, 1]`.
    /// Chat traffic is unaffected, which lets a scenario assert that a
    /// degraded control plane never loses application messages.
    pub control_loss: f64,
    /// Extra loss applied to *data-channel* traffic, in `[0, 1]` — the loss
    /// the epidemic repair pass must mask. Applied at the runner (like
    /// [`Scenario::control_loss`]), so the dropped packets are accounted as
    /// injected drops ([`crate::RunReport::data_dropped`]) instead of
    /// polluting the `messages_lost` safety metric.
    pub data_loss: f64,
    /// Whether the Core subsystem may adapt the stack at run time.
    pub adaptive: bool,
    /// The stack deployed at start-up on every node.
    pub initial_stack: StackKind,
    /// Cocaditem publication interval in milliseconds.
    pub publish_interval_ms: u64,
    /// Failure-detector heartbeat interval in milliseconds.
    pub hb_interval_ms: u64,
    /// Failure-detector suspicion timeout in milliseconds.
    pub suspect_timeout_ms: u64,
    /// Reconfiguration-command retransmit interval in milliseconds.
    pub retransmit_interval_ms: u64,
    /// Reconfiguration round timeout in milliseconds.
    pub round_timeout_ms: u64,
    /// Cadence of the epidemic data stack's NACK/anti-entropy repair pass,
    /// in milliseconds. `0` disables repair, leaving the pure push phase.
    pub repair_interval_ms: u64,
    /// The application workload.
    pub workload: Workload,
    /// Extra time after the workload ends before the run stops, in
    /// milliseconds.
    pub cooldown_ms: u64,
    /// Seed for every random decision in the run.
    pub seed: u64,
    /// Nodes that crash during the run: `(time_ms, node)`.
    pub failures: Vec<(u64, NodeId)>,
    /// Nodes that restart with empty state during the run: `(time_ms,
    /// node)`. A restarted node comes back as a *joining* member: it
    /// re-enters the view through the recovery protocol and pulls a state
    /// snapshot from a donor.
    pub restarts: Vec<(u64, NodeId)>,
    /// Temporary network partitions: `(from_ms, to_ms, node)`. While a
    /// partition lasts the node keeps running — timers fire, it keeps
    /// composing messages — but every packet it sends or should receive is
    /// dropped at the runner. The canonical way to provoke a
    /// false-suspicion expulsion of a node that never crashed.
    pub partitions: Vec<(u64, u64, NodeId)>,
    /// Chunk size of the rejoin state transfer, in bytes.
    pub transfer_chunk_bytes: usize,
    /// Injected fault schedule: link flaps, one-way partitions, latency
    /// shifts, mass churn and packet corruption, all deterministic in
    /// `(seed, schedule)`. Empty by default.
    pub fault_schedule: FaultSchedule,
    /// Sliding window of the runner's wedge detector, in simulated
    /// milliseconds: if no node makes progress for this long *while live,
    /// reachable members disagree on the installed view*, the run is
    /// declared wedged and stops. `0` (the default) disables the detector.
    pub wedge_window_ms: u64,
    /// Event-queue size above which the wedge detector declares unbounded
    /// queue growth. `0` (the default) selects a generous bound derived
    /// from the group size. Only consulted while the detector is enabled.
    pub wedge_queue_cap: u64,
    /// Each node's capacity: the rate, in kbit/s, of every link of the
    /// topology, at which a node's egress queue ([`EGRESS_QUEUE_BYTES`]) is
    /// served. A packet waits for the packets its node queued before it; a
    /// data packet that would take the queue past its bytes is shed
    /// (drop-tail), while control, context and repair packets always queue.
    /// `None` (the default): no packet waits behind another, and a node can
    /// put any number of bytes on its link in one millisecond.
    pub node_capacity: Option<u32>,
}

impl Scenario {
    /// A generic starting point: `fixed + mobile` nodes, adaptive, paper
    /// workload sent by the first mobile node (or node 0 if none).
    pub fn new(name: impl Into<String>, fixed_nodes: usize, mobile_nodes: usize) -> Self {
        let measured = if mobile_nodes > 0 {
            NodeId(fixed_nodes as u32)
        } else {
            NodeId(0)
        };
        Self {
            name: name.into(),
            fixed_nodes,
            mobile_nodes,
            topology: TopologyChoice::HybridCell,
            wireless_loss: 0.0,
            control_loss: 0.0,
            data_loss: 0.0,
            adaptive: true,
            initial_stack: StackKind::BestEffort,
            publish_interval_ms: 1000,
            hb_interval_ms: 2000,
            suspect_timeout_ms: 10_000,
            retransmit_interval_ms: 500,
            round_timeout_ms: 4000,
            repair_interval_ms: 1000,
            workload: Workload::paper_chat(vec![measured], 400),
            cooldown_ms: 2000,
            seed: 1,
            failures: Vec::new(),
            restarts: Vec::new(),
            partitions: Vec::new(),
            transfer_chunk_bytes: 1024,
            fault_schedule: FaultSchedule::none(),
            wedge_window_ms: 0,
            wedge_queue_cap: 0,
            node_capacity: None,
        }
    }

    /// The paper's Figure 3 scenario: one fixed PC plus `devices - 1` mobile
    /// PDAs; the first mobile node sends `messages` chat messages at
    /// 10 msg/s. `optimized` selects the adaptive (Mecho) configuration,
    /// matching the figure's "optimized" series; the baseline keeps the plain
    /// best-effort multicast for the whole run.
    pub fn figure3(devices: usize, optimized: bool, messages: u64) -> Self {
        assert!(devices >= 2, "the paper evaluates 2 to 9 devices");
        let mobile = devices - 1;
        let mut scenario = Scenario::new(
            format!(
                "figure3-{}devices-{}",
                devices,
                if optimized {
                    "optimized"
                } else {
                    "not-optimized"
                }
            ),
            1,
            mobile,
        );
        scenario.adaptive = optimized;
        scenario.workload = Workload::paper_chat(vec![NodeId(1)], messages);
        // The evaluation workload involves no failures and a stable context,
        // so keep the background control traffic (heartbeats and context
        // refreshes) at the modest rate the paper's prototype would use over
        // a 66-minute run; the adaptation itself is triggered by the initial
        // context publications, not by these refreshes.
        scenario.publish_interval_ms = 2000;
        scenario.hb_interval_ms = 5000;
        scenario.suspect_timeout_ms = 30_000;
        scenario
    }

    /// E3+ robustness preset: the adaptive Figure-3 chat with *only* the
    /// control channel degraded at the given loss rate (see
    /// `tests/reconfiguration_safety.rs`).
    pub fn lossy_control(devices: usize, messages: u64, loss: f64) -> Self {
        let mut scenario = Scenario::figure3(devices, true, messages)
            .with_seed(7)
            .with_control_loss(loss);
        // Publish context slowly enough that several chat messages are in
        // flight when the reconfiguration happens.
        scenario.publish_interval_ms = 1500;
        scenario.workload.warmup_ms = 500;
        scenario.cooldown_ms = 4000;
        scenario.retransmit_interval_ms = 300;
        scenario.round_timeout_ms = 3000;
        scenario
    }

    /// E3+ robustness preset: two fixed nodes and three mobiles under 20%
    /// control-channel loss; node 0 — the initial coordinator *and* the
    /// policy's preferred Mecho relay — crashes 7 ms into the run, while the
    /// first reconfiguration round is in flight. Chat (sent by node 2)
    /// starts only after the failover settles (see
    /// `tests/reconfiguration_safety.rs`).
    pub fn coordinator_crash_mid_round(messages: u64) -> Self {
        let mut scenario = Scenario::new("coordinator-crash-mid-round", 2, 3)
            .with_control_loss(0.2)
            .with_seed(11)
            .with_failure(7, NodeId(0));
        scenario.publish_interval_ms = 500;
        scenario.hb_interval_ms = 300;
        scenario.suspect_timeout_ms = 1200;
        scenario.retransmit_interval_ms = 300;
        scenario.round_timeout_ms = 2500;
        scenario.workload = Workload::paper_chat(vec![NodeId(2)], messages);
        scenario.workload.warmup_ms = 8000;
        scenario.cooldown_ms = 4000;
        scenario
    }

    /// Control-plane scale preset: `n` fixed nodes on a loss-free wired LAN
    /// (no native multicast), adaptive. Once the context converges the
    /// default policy's large-group rule (`n >= 16`) switches the data stack
    /// from best-effort to epidemic multicast, so the run exercises the full
    /// loop — gossip failure detection, digest anti-entropy dissemination
    /// and a reconfiguration round over the whole group — at membership
    /// sizes an all-to-all control plane cannot sustain (n = 10/50/100/250).
    ///
    /// Chat starts after a generous warm-up so the "zero lost chat messages
    /// across a reconfiguration" assertion measures the protocol, not a race
    /// into a half-converged group. Timing follows the gossip rule of thumb:
    /// the suspicion timeout is several heartbeat intervals plus the
    /// `O(log n)` digest propagation delay.
    pub fn large_group(n: usize) -> Self {
        assert!(n >= 2, "a group needs at least two members");
        let mut scenario = Scenario::new(format!("large-group-{n}"), n, 0)
            .with_topology(TopologyChoice::Lan {
                native_multicast: false,
            })
            .with_seed(n as u64 + 17);
        scenario.publish_interval_ms = 1000;
        scenario.hb_interval_ms = 1000;
        // log_3(250) ≈ 5 intervals of digest propagation + margin.
        scenario.suspect_timeout_ms = 10_000;
        scenario.retransmit_interval_ms = 500;
        scenario.round_timeout_ms = 8_000;
        // Three senders exercise fan-in without exploding the event count.
        let senders: Vec<NodeId> = (0..3.min(n) as u32).map(NodeId).collect();
        scenario.workload = Workload::paper_chat(senders, 20);
        scenario.workload.warmup_ms = 8_000;
        scenario.workload.interval_ms = 200;
        // Long enough past the chat for digest anti-entropy to finish its
        // slow tail even at 30% control loss (observed ~17 s at n = 100),
        // and for the per-interval message rate to reflect steady state
        // rather than the boot transient.
        scenario.cooldown_ms = 15_000;
        scenario
    }

    /// Recovery preset: `n` fixed LAN nodes (adaptive — at n >= 16 the
    /// large-group rule moves the data plane onto epidemic multicast before
    /// the crash); the highest-id member crashes at 12 s, is expelled by the
    /// failure detector + view agreement, restarts *empty* at 20 s and
    /// rejoins through the recovery protocol: join view change, state
    /// transfer from the lowest-id donor, control-plane repair onto the
    /// committed stack. Chat (3 senders) runs from 8 s to 30 s, so messages
    /// are in flight across the crash, the expulsion, the rejoin and the
    /// replay. `control_loss` degrades only the control channel.
    pub fn member_restart(n: usize, control_loss: f64) -> Self {
        assert!(n >= 4, "the restart scenario needs donors and bystanders");
        let restarting = NodeId(n as u32 - 1);
        let mut scenario = Scenario::new(format!("member-restart-{n}"), n, 0)
            .with_topology(TopologyChoice::Lan {
                native_multicast: false,
            })
            .with_control_loss(control_loss)
            .with_seed(n as u64 + 23)
            .with_failure(12_000, restarting)
            .with_restart(20_000, restarting);
        scenario.publish_interval_ms = 1000;
        scenario.hb_interval_ms = 500;
        scenario.suspect_timeout_ms = 4000;
        scenario.retransmit_interval_ms = 300;
        scenario.round_timeout_ms = 3000;
        let senders: Vec<NodeId> = (0..3.min(n) as u32).map(NodeId).collect();
        scenario.workload = Workload::paper_chat(senders, 110);
        scenario.workload.warmup_ms = 8_000;
        scenario.workload.interval_ms = 200;
        scenario.cooldown_ms = 12_000;
        scenario
    }

    /// Many-to-many chat preset: `n` fixed LAN nodes, *`senders` of them
    /// sending* (pass `senders == n` for the full fan-in case), adaptive so
    /// the large-group rule moves the data plane onto the epidemic stack
    /// (with size-derived TTL) before the chat starts. Pair with
    /// [`Scenario::with_data_loss`] to inject the loss the repair pass must
    /// mask. The cooldown leaves room for the repair tail, so epidemic
    /// coverage is measured at convergence, not mid-flight.
    pub fn chat_fanin(n: usize, senders: usize) -> Self {
        assert!(n >= 2, "a group needs at least two members");
        let senders = senders.clamp(1, n);
        let mut scenario = Scenario::new(format!("chat-fanin-{n}x{senders}"), n, 0)
            .with_topology(TopologyChoice::Lan {
                native_multicast: false,
            })
            .with_seed(n as u64 + senders as u64 + 41);
        scenario.publish_interval_ms = 1000;
        scenario.hb_interval_ms = 1000;
        scenario.suspect_timeout_ms = 10_000;
        scenario.retransmit_interval_ms = 500;
        scenario.round_timeout_ms = 8_000;
        let senders: Vec<NodeId> = (0..senders as u32).map(NodeId).collect();
        scenario.workload = Workload::paper_chat(senders, 6);
        scenario.workload.warmup_ms = 8_000;
        scenario.workload.interval_ms = 500;
        // Several repair intervals past the last send, plus the anti-entropy
        // tail of the control plane.
        scenario.cooldown_ms = 8_000;
        scenario
    }

    /// Overload-resilience preset: the [`Scenario::chat_fanin`] group driven
    /// at **twice** the configured service rate for `overload_ms`. The base
    /// workload sends at its usual interval, and an `overload` fault régime
    /// adds one extra send per sender per interval on top. The event-queue
    /// cap is lowered below the default so the run can exercise the
    /// bounded-queue shed path, and the wedge detector is armed: the
    /// acceptance shape is graceful degradation — data shed at the cap,
    /// bounded queue depth, zero control-plane loss, no wedge.
    ///
    /// Nodes have no capacity here ([`Scenario::node_capacity`] is `None`),
    /// so only the simulator's event queue can overload, and whether it
    /// does depends on how many packets the protocol makes. Since gossip
    /// batches fill 1,456 B, 100 senders (the benchmark's `overload_2x`)
    /// still shed a few packets at the cap (99 at seed 1), and 50 senders
    /// shed none even at a cap of 2,700. A test that must see shedding gives
    /// the nodes a capacity, or uses [`Scenario::capacity_overload`].
    pub fn sustained_overload(n: usize, senders: usize, overload_ms: u64) -> Self {
        let mut scenario = Self::chat_fanin(n, senders);
        scenario.name = format!("sustained-overload-{n}x{senders}");
        let interval_ms = scenario.workload.interval_ms;
        scenario.workload.messages_per_sender = (overload_ms / interval_ms).max(1);
        let start_ms = scenario.workload.warmup_ms;
        scenario.wedge_window_ms = 10_000;
        // Sized so the never-shed classes (timers, control, the scheduled
        // sends themselves) fit under the cap's head-room even at n = 250 —
        // the data plane is what the cap is meant to squeeze.
        scenario.wedge_queue_cap = (n as u64 * 120).max(10_000);
        // Room for the repair plane to drain the shed backlog.
        scenario.cooldown_ms = 12_000;
        scenario.with_fault_schedule(FaultSchedule {
            events: vec![FaultEvent::Overload {
                start_ms,
                end_ms: start_ms + overload_ms,
                interval_ms,
            }],
        })
    }

    /// Capacity-overload preset: [`Scenario::sustained_overload`]'s group
    /// and drive, on nodes whose links have a capacity
    /// ([`Scenario::node_capacity`]). Each node's link serves 90 % of the
    /// payload bytes alone that an average member must receive during the
    /// overload, `(n − 1) / n × senders × payload × rate`. Every byte a
    /// member receives, another sent, so the average member's egress must
    /// carry at least that much: no header, batching or fan-out gain can
    /// make the run stop overloading. Data past a node's egress queue
    /// ([`EGRESS_QUEUE_BYTES`]) is shed there, control never is. The event queue keeps its default cap,
    /// which this load never reaches. The cooldown leaves the repair plane
    /// room to deliver what was shed.
    pub fn capacity_overload(n: usize, senders: usize, overload_ms: u64) -> Self {
        let mut scenario = Self::sustained_overload(n, senders, overload_ms);
        scenario.name = format!("capacity-overload-{n}x{senders}");
        scenario.wedge_queue_cap = 0;
        let workload = &scenario.workload;
        // The base rate plus the overload's one extra send per interval.
        let per_sender_per_s = 2 * 1_000 / workload.interval_ms;
        let members = n as u64;
        let payload_bits_per_s = (members - 1)
            * workload.senders.len() as u64
            * workload.payload_size as u64
            * 8
            * per_sender_per_s
            / members;
        scenario.node_capacity = Some((payload_bits_per_s * 9 / 10 / 1_000).max(1) as u32);
        scenario.cooldown_ms = 20_000;
        scenario
    }

    /// Long-partition preset: `n` fixed LAN nodes on the epidemic stack; the
    /// highest-id member (a non-sender) is partitioned — not crashed — for
    /// `partition_ms`, chosen to exceed the gossip repair-log TTL several
    /// times over, while the chat keeps flowing. Suspicion timeouts are
    /// raised past the partition so the group never expels it. When the
    /// partition lifts, the member's NACK pulls land below every live
    /// peer's log floor, and the only way back to 100% coverage is the
    /// repair→snapshot catch-up path: a targeted state-section pull from
    /// the digest sender — no rejoin, no restart, no view change.
    pub fn long_partition(n: usize, partition_ms: u64) -> Self {
        assert!(n >= 4, "the partition scenario needs bystanders");
        let isolated = NodeId(n as u32 - 1);
        let start_ms = 12_000;
        let end_ms = start_ms + partition_ms;
        let mut scenario = Scenario::new(format!("long-partition-{n}"), n, 0)
            .with_topology(TopologyChoice::Lan {
                native_multicast: false,
            })
            .with_seed(n as u64 + 53)
            .with_fault_schedule(FaultSchedule {
                events: vec![FaultEvent::Partition {
                    node: SimNodeId(isolated.0),
                    start_ms,
                    end_ms,
                }],
            });
        scenario.publish_interval_ms = 1000;
        scenario.hb_interval_ms = 1000;
        // Twice the partition: a 3×-TTL outage must heal through catch-up,
        // never through expulsion + rejoin.
        scenario.suspect_timeout_ms = (2 * partition_ms).max(20_000);
        scenario.retransmit_interval_ms = 500;
        scenario.round_timeout_ms = 8_000;
        let senders: Vec<NodeId> = (0..3.min(n) as u32).map(NodeId).collect();
        // Chat spans the whole partition and a stretch beyond it, so the
        // isolated member misses both log-floor-evicted and still-repairable
        // spans.
        let chat_ms = end_ms - 8_000 + 4_000;
        scenario.workload = Workload::paper_chat(senders, chat_ms / 200);
        scenario.workload.warmup_ms = 8_000;
        scenario.workload.interval_ms = 200;
        // The catch-up needs digest sightings for two repair-log TTLs (the
        // escalation hysteresis) and then the section pull after the
        // partition lifts, plus the ordinary repair tail.
        scenario.cooldown_ms = 30_000;
        scenario.wedge_window_ms = 10_000;
        scenario
    }

    /// Expelled-but-alive preset: `n` fixed LAN nodes; the highest-id member
    /// (a non-sender) is *partitioned* — not crashed — from `from_ms` until
    /// `to_ms`. The group expels it by (false) suspicion; its own failure
    /// detector ends up suspecting everyone else, which triggers the
    /// self-heal: it re-enters through the joining path once the partition
    /// lifts, pulls a snapshot and converges back onto the committed stack,
    /// having never restarted.
    pub fn expelled_member(n: usize, from_ms: u64, to_ms: u64) -> Self {
        assert!(n >= 4, "the expulsion scenario needs bystanders");
        assert!(from_ms < to_ms, "the partition window must be non-empty");
        let expelled = NodeId(n as u32 - 1);
        let mut scenario = Scenario::new(format!("expelled-member-{n}"), n, 0)
            .with_topology(TopologyChoice::Lan {
                native_multicast: false,
            })
            .with_seed(n as u64 + 29)
            .with_partition(from_ms, to_ms, expelled);
        scenario.publish_interval_ms = 1000;
        scenario.hb_interval_ms = 500;
        scenario.suspect_timeout_ms = 3000;
        scenario.retransmit_interval_ms = 300;
        scenario.round_timeout_ms = 3000;
        let senders: Vec<NodeId> = (0..3.min(n) as u32).map(NodeId).collect();
        scenario.workload = Workload::paper_chat(senders, 110);
        scenario.workload.warmup_ms = 8_000;
        scenario.workload.interval_ms = 200;
        scenario.cooldown_ms = 12_000;
        scenario
    }

    /// Recovery preset: a 6-node wired group where the restarting member's
    /// deterministic donor (node 0, the lowest live id) crashes *while the
    /// snapshot stream is in flight*, forcing a transfer-epoch failover to
    /// the next donor. A heavy chat prefix (3 senders at 20 msg/s each from
    /// 1 s) plus a small chunk size make the snapshot span hundreds of
    /// request round-trips, so the mid-transfer window is wide and the
    /// deterministic seed lands the crash inside it.
    pub fn donor_crash_mid_transfer() -> Self {
        let restarting = NodeId(5);
        let donor = NodeId(0);
        let mut scenario = Scenario::new("donor-crash-mid-transfer", 6, 0)
            .with_topology(TopologyChoice::Lan {
                native_multicast: false,
            })
            .with_seed(31)
            .with_transfer_chunk_bytes(16)
            .with_failure(5_000, restarting)
            .with_restart(10_000, restarting)
            .with_failure(10_450, donor);
        scenario.publish_interval_ms = 500;
        scenario.hb_interval_ms = 400;
        scenario.suspect_timeout_ms = 2000;
        scenario.retransmit_interval_ms = 200;
        scenario.round_timeout_ms = 2000;
        scenario.workload = Workload::paper_chat(vec![NodeId(1), NodeId(2), NodeId(3)], 300);
        scenario.workload.warmup_ms = 1000;
        scenario.workload.interval_ms = 50;
        scenario.cooldown_ms = 10_000;
        scenario
    }

    /// Adversarial-fault preset: `n` fixed nodes on a loss-free wired LAN
    /// (so every drop is an injected fault, separately accounted, and
    /// `messages_lost` stays the live-link safety metric), adaptive, three
    /// senders, aggressive failure-detection timing and the wedge detector
    /// armed. The fault schedule itself is attached separately with
    /// [`Scenario::with_fault_schedule`] — typically one produced by
    /// `FaultSchedule::generate(seed, n, scenario.end_time_ms())`.
    ///
    /// To replay a failure the fault explorer reported as
    /// `fault_harness(n=16, seed=7, schedule="…")`, rebuild exactly this:
    ///
    /// ```ignore
    /// let scenario = Scenario::fault_harness(16, 7)
    ///     .with_fault_schedule(FaultSchedule::parse("…").unwrap());
    /// ```
    pub fn fault_harness(n: usize, seed: u64) -> Self {
        assert!(n >= 4, "the fault harness needs donors and bystanders");
        let mut scenario = Scenario::new(format!("fault-harness-{n}"), n, 0)
            .with_topology(TopologyChoice::Lan {
                native_multicast: false,
            })
            .with_seed(seed);
        scenario.publish_interval_ms = 1000;
        scenario.hb_interval_ms = 500;
        scenario.suspect_timeout_ms = 4000;
        scenario.retransmit_interval_ms = 300;
        scenario.round_timeout_ms = 3000;
        let senders: Vec<NodeId> = (0..3.min(n) as u32).map(NodeId).collect();
        scenario.workload = Workload::paper_chat(senders, 30);
        scenario.workload.warmup_ms = 6_000;
        scenario.workload.interval_ms = 200;
        // The generated fault band ends 16 s before the horizon
        // (`FaultSchedule::generate`); the tail is for re-convergence —
        // rejoins after churn, context coverage after flaps.
        scenario.cooldown_ms = 18_000;
        scenario.wedge_window_ms = 10_000;
        scenario
    }

    /// The one-line reproducer of a fault run: paste the printed line back
    /// into [`Scenario::fault_harness`] + `FaultSchedule::parse` to replay
    /// it exactly (the whole run is deterministic in `(seed, schedule)`).
    pub fn fault_reproducer(&self) -> String {
        format!(
            "fault_harness(n={}, seed={}, schedule=\"{}\")",
            self.device_count(),
            self.seed,
            self.fault_schedule.render()
        )
    }

    /// Total number of participants.
    pub fn device_count(&self) -> usize {
        self.fixed_nodes + self.mobile_nodes
    }

    /// The node identifiers, fixed nodes first.
    pub fn members(&self) -> Vec<NodeId> {
        (0..self.device_count() as u32).map(NodeId).collect()
    }

    /// Simulated time at which the run stops.
    pub fn end_time_ms(&self) -> u64 {
        self.workload.duration_ms() + self.cooldown_ms
    }

    /// Builder: disables adaptation.
    pub fn non_adaptive(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Builder: sets the wireless loss rate.
    pub fn with_wireless_loss(mut self, loss: f64) -> Self {
        self.wireless_loss = loss;
        self
    }

    /// Builder: degrades only the control plane by the given loss rate.
    pub fn with_control_loss(mut self, loss: f64) -> Self {
        self.control_loss = loss;
        self
    }

    /// Builder: degrades the data channel by the given loss rate (the loss
    /// the epidemic repair pass masks).
    pub fn with_data_loss(mut self, loss: f64) -> Self {
        self.data_loss = loss;
        self
    }

    /// Builder: partitions a node (drops all its traffic at the runner, in
    /// both directions) during `[from_ms, to_ms)`. The node keeps running.
    pub fn with_partition(mut self, from_ms: u64, to_ms: u64, node: NodeId) -> Self {
        self.partitions.push((from_ms, to_ms, node));
        self
    }

    /// Whether a node is partitioned at the given simulated time.
    pub fn is_partitioned(&self, node: NodeId, at_ms: u64) -> bool {
        self.partitions
            .iter()
            .any(|(from, to, cut)| *cut == node && at_ms >= *from && at_ms < *to)
    }

    /// Builder: sets the topology.
    pub fn with_topology(mut self, topology: TopologyChoice) -> Self {
        self.topology = topology;
        self
    }

    /// Builder: sets the initial stack.
    pub fn with_initial_stack(mut self, stack: StackKind) -> Self {
        self.initial_stack = stack;
        self
    }

    /// Builder: sets the workload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Builder: sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: crashes a node at the given simulated time.
    pub fn with_failure(mut self, at_ms: u64, node: NodeId) -> Self {
        self.failures.push((at_ms, node));
        self
    }

    /// Builder: restarts a node (with empty state) at the given simulated
    /// time. Usually paired with an earlier [`Scenario::with_failure`] of
    /// the same node.
    pub fn with_restart(mut self, at_ms: u64, node: NodeId) -> Self {
        self.restarts.push((at_ms, node));
        self
    }

    /// Builder: sets the rejoin state-transfer chunk size.
    pub fn with_transfer_chunk_bytes(mut self, bytes: usize) -> Self {
        self.transfer_chunk_bytes = bytes;
        self
    }

    /// Builder: attaches an injected fault schedule.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.fault_schedule = schedule;
        self
    }

    /// Nodes that restart at some point during the run.
    pub fn restarting_members(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.restarts.iter().map(|(_, node)| *node).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_matches_the_description() {
        let workload = Workload::paper_chat(vec![NodeId(1)], 40_000);
        assert_eq!(workload.interval_ms, 100, "10 messages per second");
        assert_eq!(workload.messages_per_sender, 40_000);
        assert!(
            workload.duration_ms() > 4_000_000,
            "roughly 400k simulated seconds of chat"
        );
    }

    #[test]
    fn figure3_scenarios_have_one_fixed_node_and_the_rest_mobile() {
        let scenario = Scenario::figure3(6, true, 1000);
        assert_eq!(scenario.fixed_nodes, 1);
        assert_eq!(scenario.mobile_nodes, 5);
        assert_eq!(scenario.device_count(), 6);
        assert!(scenario.adaptive);
        assert_eq!(scenario.members().len(), 6);

        let baseline = Scenario::figure3(6, false, 1000);
        assert!(!baseline.adaptive);
        assert!(baseline.name.contains("not-optimized"));
    }

    #[test]
    #[should_panic(expected = "2 to 9 devices")]
    fn figure3_requires_at_least_two_devices() {
        let _ = Scenario::figure3(1, true, 10);
    }

    #[test]
    fn builders_compose() {
        let scenario = Scenario::new("x", 0, 4)
            .with_topology(TopologyChoice::AdHoc)
            .with_wireless_loss(0.1)
            .with_seed(99)
            .with_initial_stack(StackKind::Reliable)
            .non_adaptive();
        assert_eq!(scenario.topology, TopologyChoice::AdHoc);
        assert_eq!(scenario.wireless_loss, 0.1);
        assert_eq!(scenario.seed, 99);
        assert!(!scenario.adaptive);
        assert_eq!(scenario.initial_stack, StackKind::Reliable);
        assert!(scenario.end_time_ms() > scenario.workload.duration_ms());
    }

    #[test]
    fn chat_fanin_presets_make_every_requested_member_a_sender() {
        let scenario = Scenario::chat_fanin(250, 250).with_data_loss(0.1);
        assert_eq!(scenario.device_count(), 250);
        assert_eq!(scenario.workload.senders.len(), 250);
        assert!(scenario.adaptive, "the large-group rule must fire");
        assert_eq!(scenario.data_loss, 0.1);
        assert!(scenario.repair_interval_ms > 0, "repair on by default");
        // Sender count is clamped to the group.
        assert_eq!(Scenario::chat_fanin(10, 99).workload.senders.len(), 10);
    }

    #[test]
    fn partitions_cover_half_open_windows() {
        let scenario = Scenario::expelled_member(8, 10_000, 18_000);
        let expelled = NodeId(7);
        assert!(!scenario.is_partitioned(expelled, 9_999));
        assert!(scenario.is_partitioned(expelled, 10_000));
        assert!(scenario.is_partitioned(expelled, 17_999));
        assert!(!scenario.is_partitioned(expelled, 18_000));
        assert!(!scenario.is_partitioned(NodeId(0), 12_000));
        assert!(
            !scenario.workload.senders.contains(&expelled),
            "the partitioned member is a bystander, not a sender"
        );
        assert!(scenario.restarts.is_empty(), "the member never restarts");
    }

    #[test]
    fn large_group_presets_scale_and_stay_wired() {
        for n in [10usize, 50, 100, 250] {
            let scenario = Scenario::large_group(n);
            assert_eq!(scenario.device_count(), n);
            assert_eq!(
                scenario.topology,
                TopologyChoice::Lan {
                    native_multicast: false
                },
                "loss-free wired links keep the zero-chat-loss assertion meaningful"
            );
            assert!(scenario.adaptive, "the large-group rule must get to fire");
            assert!(
                scenario.suspect_timeout_ms >= 6 * scenario.hb_interval_ms,
                "suspicion must outlast the O(log n) digest propagation"
            );
            assert!(scenario.workload.senders.len() <= 3);
        }
    }
    #[test]
    fn fault_harness_preset_arms_the_wedge_detector() {
        let scenario = Scenario::fault_harness(16, 7);
        assert_eq!(scenario.device_count(), 16);
        assert!(scenario.wedge_window_ms > 0, "the detector must be armed");
        assert_eq!(scenario.wireless_loss, 0.0);
        assert_eq!(scenario.control_loss, 0.0);
        assert_eq!(scenario.data_loss, 0.0);
        assert!(
            scenario.fault_schedule.is_empty(),
            "the schedule is attached separately so the preset replays any"
        );
    }

    #[test]
    fn fault_reproducer_round_trips_through_parse() {
        let schedule =
            FaultSchedule::generate(99, 16, Scenario::fault_harness(16, 99).end_time_ms());
        let scenario = Scenario::fault_harness(16, 99).with_fault_schedule(schedule.clone());
        let line = scenario.fault_reproducer();
        assert!(line.starts_with("fault_harness(n=16, seed=99, schedule=\""));
        let rendered = line
            .split("schedule=\"")
            .nth(1)
            .and_then(|rest| rest.strip_suffix("\")"))
            .expect("reproducer carries the schedule");
        assert_eq!(FaultSchedule::parse(rendered).unwrap(), schedule);
    }
}
