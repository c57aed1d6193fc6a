//! The benchmark's [`AppBinding`]: it stamps every payload, keeps the
//! send-interval clock, and tallies who received what and how late — all
//! from outside the program, through the runner's three hooks.
//!
//! **The clock.** The binding gets no simulated clock, but `compose(node,
//! seq, _)` is called in simulated-time order at `warmup_ms + seq ·
//! interval_ms` (an overload extra at the same instant as the base message
//! it doubles). So `tick` — the highest interval index composed so far — is
//! a simulated clock quantised to one send interval, and a delivery seen
//! while the clock reads `tick` is `tick − sent_tick` intervals late.
//!
//! **Loop type.** Open loop in simulated time: sends fire on the schedule
//! whatever the backlog, and lateness counts from the instant a send was
//! due. The generator is never late by construction.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use morpheus_appia::platform::{AppDelivery, DeliveryKind, NodeId};
use morpheus_groupcomm::recovery::StateSection;
use morpheus_testbed::{AppBinding, Scenario};

use crate::alloc;
use crate::speed::{Phase, SpeedMeter};

const MAGIC: u32 = 0x4D42_4E43; // "MBNC"
const HEADER_BYTES: usize = 16;
const FILL: u8 = b'x';

/// Writes `(sender, seq)` into a payload of `size` bytes.
pub fn encode_payload(sender: NodeId, seq: u64, size: usize) -> Bytes {
    let mut payload = Vec::with_capacity(size.max(HEADER_BYTES));
    payload.extend_from_slice(&MAGIC.to_be_bytes());
    payload.extend_from_slice(&sender.0.to_be_bytes());
    payload.extend_from_slice(&seq.to_be_bytes());
    payload.resize(size.max(HEADER_BYTES), FILL);
    Bytes::from(payload)
}

/// Reads `(sender, seq)` back; `None` if any byte is off.
pub fn decode_payload(payload: &[u8]) -> Option<(NodeId, u64)> {
    let (header, fill) = payload.split_at_checked(HEADER_BYTES)?;
    if header[..4] != MAGIC.to_be_bytes() || fill.iter().any(|byte| *byte != FILL) {
        return None;
    }
    let sender = u32::from_be_bytes(header[4..8].try_into().ok()?);
    let seq = u64::from_be_bytes(header[8..16].try_into().ok()?);
    Some((NodeId(sender), seq))
}

/// The send schedule of one scenario, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Messages of the base workload per sender.
    pub base_messages: u64,
    /// Overload extras per sender (sequence numbers continue after the base).
    pub extra_messages: u64,
    pub warmup_ms: u64,
    pub interval_ms: u64,
    /// How long before its crash a node stops being owed new messages: a
    /// gossip push can miss a member, who then gets the message from the
    /// repair pass a few repair intervals later — or, if it crashes first,
    /// never. Such a pair is not a failed delivery.
    pub crash_grace_ms: u64,
}

/// Repair intervals a straggler may need (digest, pull, push, and a retry
/// of each under loss).
const REPAIR_ROUNDS_OF_GRACE: u64 = 5;

impl Schedule {
    /// Reads the schedule off a scenario. Overload régimes must start with
    /// the workload and share its interval, or an extra would not fall on
    /// the tick of the base message it doubles.
    pub fn of(scenario: &Scenario) -> Self {
        let workload = &scenario.workload;
        let mut extra_messages = 0;
        for (start_ms, end_ms, interval_ms) in scenario.fault_schedule.overload_events() {
            assert_eq!(
                start_ms, workload.warmup_ms,
                "overload starts with the workload"
            );
            assert_eq!(
                interval_ms, workload.interval_ms,
                "overload shares the send interval"
            );
            extra_messages += (end_ms - start_ms).div_ceil(interval_ms);
        }
        Self {
            base_messages: workload.messages_per_sender,
            extra_messages,
            warmup_ms: workload.warmup_ms,
            interval_ms: workload.interval_ms,
            crash_grace_ms: workload
                .interval_ms
                .max(REPAIR_ROUNDS_OF_GRACE * scenario.repair_interval_ms),
        }
    }

    /// Sequence numbers one sender uses.
    pub fn seqs_per_sender(&self) -> u64 {
        self.base_messages + self.extra_messages
    }

    /// The send interval a sequence number falls in.
    pub fn tick_of(&self, seq: u64) -> u64 {
        if seq < self.base_messages {
            seq
        } else {
            seq - self.base_messages
        }
    }

    /// The last tick of the run. Nothing later bounds how late its messages
    /// arrive, so they are left out of `on_time_share`.
    pub fn final_tick(&self) -> u64 {
        self.base_messages
            .max(self.extra_messages)
            .saturating_sub(1)
    }

    /// Simulated instant a tick's messages are sent at.
    pub fn send_ms(&self, tick: u64) -> u64 {
        self.warmup_ms + tick * self.interval_ms
    }
}

/// When one node is expected to receive: always, unless the scenario
/// crashes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Presence {
    /// Simulated instant the scenario crashes the node at.
    pub crash_ms: Option<u64>,
    /// Whether the node has come back (its delivery column starts afresh).
    pub restarted: bool,
    /// Clock reading when the restarted node reported `Rejoined`.
    pub rejoined_tick: Option<u64>,
}

impl Presence {
    /// Whether the node's *current* incarnation is expected to receive the
    /// messages of `tick`. Before a crash: every message sent at least
    /// [`Schedule::crash_grace_ms`] earlier. After a restart: from the tick
    /// after `Rejoined`.
    pub fn expects(&self, schedule: &Schedule, tick: u64) -> bool {
        match (self.crash_ms, self.restarted) {
            (None, _) => true,
            (Some(crash_ms), false) => schedule.send_ms(tick) + schedule.crash_grace_ms <= crash_ms,
            (Some(_), true) => self.rejoined_tick.is_some_and(|rejoined| tick > rejoined),
        }
    }
}

/// What the binding counted over one scenario run. Every field is a count
/// fixed by `(scenario, seed)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Messages composed (sent by the application).
    pub messages: u64,
    /// `DeliveryKind::Data` seen, expected or not.
    pub deliveries: u64,
    /// Expected (message, receiver) pairs.
    pub expected: u64,
    /// Expected pairs never delivered.
    pub failed: u64,
    /// Expected pairs outside the final tick.
    pub timed: u64,
    /// Timed pairs delivered 0 intervals late.
    pub on_time: u64,
    /// A pair delivered twice to one incarnation.
    pub duplicates: u64,
    /// Payloads that failed to decode or named a message never sent.
    pub undecodable: u64,
    /// Timed, delivered pairs by intervals late (last bucket: that or more).
    pub late_histogram: Vec<u64>,
}

impl Tally {
    /// Adds another run's counts.
    pub fn add(&mut self, other: &Tally) {
        self.messages += other.messages;
        self.deliveries += other.deliveries;
        self.expected += other.expected;
        self.failed += other.failed;
        self.timed += other.timed;
        self.on_time += other.on_time;
        self.duplicates += other.duplicates;
        self.undecodable += other.undecodable;
        if self.late_histogram.len() < other.late_histogram.len() {
            self.late_histogram.resize(other.late_histogram.len(), 0);
        }
        for (mine, theirs) in self.late_histogram.iter_mut().zip(&other.late_histogram) {
            *mine += theirs;
        }
    }

    /// The `q`-quantile of lateness, in intervals, over timed delivered pairs.
    pub fn late_quantile(&self, q: f64) -> u64 {
        let total: u64 = self.late_histogram.iter().sum();
        let rank = (total as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (late, count) in self.late_histogram.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return late as u64;
            }
        }
        0
    }
}

/// Wall-clock readings of one scenario run (work clock, slices excluded).
#[derive(Debug, Clone, Default)]
pub struct Stamps {
    /// First `compose` of the run.
    pub first_send: Option<Duration>,
    /// Latest `compose` of the run.
    pub last_send: Duration,
    /// Allocations made before the window opened.
    pub allocations_at_first_send: u64,
    /// Start of every tick, in order.
    pub tick_starts: Vec<Duration>,
}

const LATE_BUCKETS: usize = 64;
const NOT_A_SENDER: u32 = u32::MAX;

/// The binding of one scenario run.
pub struct BenchBinding<'a> {
    meter: &'a mut SpeedMeter,
    /// Whether the first send opens the measured window (not in a pilot).
    measured: bool,
    schedule: Schedule,
    nodes: usize,
    sender_slot: Vec<u32>,
    presence: Vec<Presence>,
    booted: Vec<bool>,
    tick: u64,
    composed: Vec<bool>,
    /// Per (message, receiver): 0 = not delivered to the current
    /// incarnation, else intervals late + 1 (saturating).
    lateness: Vec<u8>,
    deliveries_since_poll: u32,
    tally: Tally,
    stamps: Stamps,
}

impl<'a> BenchBinding<'a> {
    /// A binding for `scenario`. Everything it will touch inside the window
    /// is allocated here.
    pub fn new(scenario: &Scenario, meter: &'a mut SpeedMeter, measured: bool) -> Self {
        let schedule = Schedule::of(scenario);
        let nodes = scenario.device_count();
        let mut sender_slot = vec![NOT_A_SENDER; nodes];
        for (slot, sender) in scenario.workload.senders.iter().enumerate() {
            sender_slot[sender.0 as usize] = slot as u32;
        }
        let mut presence = vec![Presence::default(); nodes];
        for (crash_ms, node) in &scenario.failures {
            let crash = &mut presence[node.0 as usize].crash_ms;
            assert!(crash.is_none(), "the tally follows one crash per node");
            *crash = Some(*crash_ms);
        }
        let messages = scenario.workload.senders.len() * schedule.seqs_per_sender() as usize;
        Self {
            meter,
            measured,
            schedule,
            nodes,
            sender_slot,
            presence,
            booted: vec![false; nodes],
            tick: 0,
            composed: vec![false; messages],
            lateness: vec![0; messages * nodes],
            deliveries_since_poll: 0,
            tally: Tally {
                late_histogram: vec![0; LATE_BUCKETS],
                ..Tally::default()
            },
            stamps: Stamps {
                tick_starts: Vec::with_capacity(schedule.final_tick() as usize + 1),
                ..Stamps::default()
            },
        }
    }

    fn message_index(&self, sender: NodeId, seq: u64) -> Option<usize> {
        let slot = *self.sender_slot.get(sender.0 as usize)?;
        if slot == NOT_A_SENDER || seq >= self.schedule.seqs_per_sender() {
            return None;
        }
        Some(slot as usize * self.schedule.seqs_per_sender() as usize + seq as usize)
    }

    /// Folds one node's delivery column into the tally, for the messages its
    /// current incarnation was expected to receive.
    fn settle(&mut self, node: usize) {
        let presence = self.presence[node];
        let seqs = self.schedule.seqs_per_sender() as usize;
        for (message, _) in self.composed.iter().enumerate().filter(|(_, sent)| **sent) {
            if self.sender_slot[node] as usize == message / seqs {
                continue; // nodes do not deliver to themselves
            }
            let tick = self.schedule.tick_of((message % seqs) as u64);
            if !presence.expects(&self.schedule, tick) {
                continue;
            }
            let late = self.lateness[message * self.nodes + node];
            self.tally.expected += 1;
            if late == 0 {
                self.tally.failed += 1;
            }
            if tick == self.schedule.final_tick() {
                continue;
            }
            self.tally.timed += 1;
            if late == 1 {
                self.tally.on_time += 1;
            }
            if late > 0 {
                let bucket = usize::from(late - 1).min(LATE_BUCKETS - 1);
                self.tally.late_histogram[bucket] += 1;
            }
        }
    }

    /// The benchmark's work clock (the binding holds the meter while a run
    /// is in flight).
    pub fn clock(&self) -> Duration {
        self.meter.work_clock()
    }

    /// Settles every node and hands the counts and stamps over.
    pub fn finish(mut self) -> (Tally, Stamps, Schedule) {
        for node in 0..self.nodes {
            self.settle(node);
        }
        (self.tally, self.stamps, self.schedule)
    }
}

impl AppBinding for BenchBinding<'_> {
    /// Called at boot and on every restart: the second call for a node means
    /// a fresh incarnation, whose deliveries are a new column.
    fn state_sections(&mut self, node: NodeId) -> Vec<Rc<dyn StateSection>> {
        let index = node.0 as usize;
        if std::mem::replace(&mut self.booted[index], true) {
            self.settle(index);
            self.presence[index].restarted = true;
            for message in 0..self.composed.len() {
                self.lateness[message * self.nodes + index] = 0;
            }
        }
        Vec::new()
    }

    fn compose(&mut self, node: NodeId, seq: u64, size: usize) -> Option<Bytes> {
        if self.stamps.first_send.is_none() {
            if self.measured {
                self.meter.switch(Some(Phase::Window));
                alloc::reset_peak();
            }
            self.stamps.allocations_at_first_send = alloc::allocations();
            self.stamps.first_send = Some(self.meter.work_clock());
        } else {
            self.meter.poll();
        }
        let now = self.meter.work_clock();
        let tick = self.schedule.tick_of(seq);
        if self.stamps.tick_starts.is_empty() || tick > self.tick {
            self.tick = tick;
            self.stamps.tick_starts.push(now);
        }
        self.stamps.last_send = now;
        if let Some(message) = self.message_index(node, seq) {
            self.composed[message] = true;
        }
        self.tally.messages += 1;
        Some(encode_payload(node, seq, size))
    }

    fn on_delivery(&mut self, node: NodeId, delivery: &AppDelivery) {
        match &delivery.kind {
            DeliveryKind::Data { from, payload } => {
                self.tally.deliveries += 1;
                self.deliveries_since_poll += 1;
                if self.deliveries_since_poll >= 64 {
                    self.deliveries_since_poll = 0;
                    self.meter.poll();
                }
                let message = decode_payload(payload)
                    .filter(|(sender, _)| sender == from)
                    .and_then(|(sender, seq)| Some((self.message_index(sender, seq)?, seq)))
                    .filter(|(message, _)| self.composed[*message]);
                let Some((message, seq)) = message else {
                    self.tally.undecodable += 1;
                    return;
                };
                let cell = &mut self.lateness[message * self.nodes + node.0 as usize];
                if *cell != 0 {
                    self.tally.duplicates += 1;
                    return;
                }
                let late = self.tick - self.schedule.tick_of(seq);
                *cell = late.min(254) as u8 + 1;
            }
            DeliveryKind::Rejoined { .. } => {
                self.presence[node.0 as usize].rejoined_tick = Some(self.tick);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_appia::Name;

    fn data(from: u32, seq: u64) -> AppDelivery {
        AppDelivery {
            channel: Name::from("data"),
            kind: DeliveryKind::Data {
                from: NodeId(from),
                payload: encode_payload(NodeId(from), seq, 64),
            },
        }
    }

    #[test]
    fn payloads_round_trip_and_damage_is_caught() {
        let payload = encode_payload(NodeId(7), 123_456, 64);
        assert_eq!(payload.len(), 64);
        assert_eq!(decode_payload(&payload), Some((NodeId(7), 123_456)));
        let mut damaged = payload.to_vec();
        damaged[40] ^= 1;
        assert_eq!(decode_payload(&damaged), None, "fill bytes are checked");
        assert_eq!(decode_payload(&payload[..10]), None, "short payloads");
        assert_eq!(
            encode_payload(NodeId(1), 1, 4).len(),
            HEADER_BYTES,
            "never truncated"
        );
    }

    #[test]
    fn overload_extras_map_to_the_tick_of_the_message_they_double() {
        let scenario = Scenario::sustained_overload(10, 10, 8_000);
        let schedule = Schedule::of(&scenario);
        assert_eq!(schedule.base_messages, 16);
        assert_eq!(schedule.extra_messages, 16);
        assert_eq!(schedule.seqs_per_sender(), 32);
        for tick in 0..16 {
            assert_eq!(schedule.tick_of(tick), tick);
            assert_eq!(schedule.tick_of(16 + tick), tick, "extra {tick}");
        }
        assert_eq!(schedule.final_tick(), 15);
        assert_eq!(schedule.send_ms(3), scenario.workload.warmup_ms + 1_500);
    }

    #[test]
    fn a_plain_schedule_has_no_extras() {
        let schedule = Schedule::of(&Scenario::figure3(4, true, 100));
        assert_eq!((schedule.base_messages, schedule.extra_messages), (100, 0));
        assert_eq!(schedule.final_tick(), 99);
    }

    #[test]
    fn presence_follows_crash_restart_and_rejoin() {
        let schedule = Schedule {
            base_messages: 110,
            extra_messages: 0,
            warmup_ms: 8_000,
            interval_ms: 200,
            crash_grace_ms: 1_000,
        };
        let steady = Presence::default();
        assert!(steady.expects(&schedule, 0) && steady.expects(&schedule, 109));

        // Crash at 12 s = the send instant of tick 20.
        let mut node = Presence {
            crash_ms: Some(12_000),
            ..Presence::default()
        };
        assert!(
            node.expects(&schedule, 15),
            "sent at 11.0 s: the whole grace to arrive"
        );
        assert!(
            !node.expects(&schedule, 16),
            "sent at 11.2 s: a repair may come too late"
        );
        assert!(!node.expects(&schedule, 20), "sent at the crash instant");
        assert!(!node.expects(&schedule, 60));

        node.restarted = true;
        assert!(
            !node.expects(&schedule, 10),
            "a fresh incarnation owes nothing from before"
        );
        assert!(!node.expects(&schedule, 70), "not rejoined yet");
        node.rejoined_tick = Some(63);
        assert!(
            !node.expects(&schedule, 63),
            "the tick the rejoin landed in"
        );
        assert!(node.expects(&schedule, 64));
    }

    /// Four nodes, node 0 sends five messages, node 3 crashes at the send
    /// instant of tick 2 and comes back: the tally counts exactly the pairs
    /// each incarnation owed.
    #[test]
    fn the_tally_counts_expected_pairs_across_a_restart() {
        let mut scenario = Scenario::figure3(4, false, 5)
            .with_failure(3_200, NodeId(3))
            .with_restart(3_300, NodeId(3));
        scenario.workload.senders = vec![NodeId(0)];
        scenario.repair_interval_ms = 0; // no repair pass: the grace is one send interval
        let mut meter = SpeedMeter::new();
        let mut binding = BenchBinding::new(&scenario, &mut meter, false);
        for node in 0..4 {
            binding.state_sections(NodeId(node));
        }
        // Ticks 0 and 1 (sent at 3.0 s and 3.1 s, a whole interval before the
        // crash at 3.2 s): everyone receives on time.
        for seq in 0..2 {
            assert!(binding.compose(NodeId(0), seq, 64).is_some());
            for node in 1..4 {
                binding.on_delivery(NodeId(node), &data(0, seq));
            }
        }
        binding.on_delivery(NodeId(1), &data(0, 1)); // a duplicate
                                                     // Tick 2: node 3 is down; node 2 gets it one tick late.
        binding.compose(NodeId(0), 2, 64);
        binding.on_delivery(NodeId(1), &data(0, 2));
        binding.state_sections(NodeId(3)); // the restart
        binding.compose(NodeId(0), 3, 64);
        binding.on_delivery(NodeId(2), &data(0, 2));
        binding.on_delivery(NodeId(1), &data(0, 3));
        binding.on_delivery(NodeId(2), &data(0, 3));
        binding.on_delivery(NodeId(3), &data(0, 1)); // replayed history: allowed, not owed
        binding.on_delivery(
            NodeId(3),
            &AppDelivery {
                channel: Name::from("data"),
                kind: DeliveryKind::Rejoined {
                    donor: NodeId(0),
                    bytes: 0,
                    chunks: 0,
                    transfer_epochs: 1,
                    elapsed_ms: 1,
                },
            },
        );
        // Tick 4 (the final one): node 3 is owed it again, and never gets it.
        binding.compose(NodeId(0), 4, 64);
        binding.on_delivery(NodeId(1), &data(0, 4));
        binding.on_delivery(NodeId(2), &data(0, 4));
        binding.on_delivery(NodeId(2), &data(9, 0)); // a sender that does not exist

        let (tally, stamps, _) = binding.finish();
        assert_eq!(tally.messages, 5);
        assert_eq!(tally.duplicates, 1);
        assert_eq!(tally.undecodable, 1);
        // Nodes 1 and 2 owe 5 each; node 3 owes ticks 0 and 1 before the
        // crash and tick 4 after the rejoin.
        assert_eq!(tally.expected, 13);
        assert_eq!(tally.failed, 1, "node 3 never got the final message");
        // The final tick is not timed: 4 + 4 + 2.
        assert_eq!(tally.timed, 10);
        assert_eq!(tally.on_time, 9);
        assert_eq!(
            tally.late_histogram[1], 1,
            "node 2 got tick 2 one interval late"
        );
        assert_eq!(tally.late_quantile(0.5), 0);
        assert_eq!(tally.late_quantile(1.0), 1);
        assert_eq!(stamps.tick_starts.len(), 5);
    }
}
