//! Epidemic (gossip) multicast for large, geographically distributed groups.
//!
//! The paper's motivation section points out that when "participants are in
//! large numbers and distributed geographically over a large-scale network,
//! it can be preferable to rely on epidemic protocols to implement the
//! multicast". This layer implements the two-phase design of bimodal
//! multicast (Birman et al.):
//!
//! 1. **Push phase** — a sender pushes the message to `fanout` random
//!    members; every receiver that sees the message for the first time
//!    delivers it and pushes it to another `fanout` random members while the
//!    TTL lasts. Coverage is probabilistic: at realistic fan-outs a few
//!    percent of the group misses any given message.
//! 2. **Repair phase (NACK / anti-entropy)** — every member keeps a bounded
//!    log of recently delivered messages keyed by `(origin, inc, seq)`.
//!    Each `repair_interval_ms` it gossips a [`RepairDigest`] — the message
//!    spans its log can serve — to `fanout` random peers. A receiver
//!    compares the spans against its own per-stream delivery record and
//!    NACK-pulls the gaps ([`RepairPull`], rate-limited to
//!    `REPAIR_PULL_BUDGET` digest senders and `REPAIR_WINDOW` messages per
//!    interval); the peer answers with the logged originals
//!    ([`GossipRepairPush`]). Coverage converges to 100% shortly after the
//!    push phase tops out, without ever re-delivering.
//!
//! Every push, an own send and a relay alike, leaves through a per-peer
//! outbox as an aggregated [`GossipBatch`], paced by receiver-granted
//! credits that ride on the repair digests.
//!
//! Both phases check duplicates in one place: the per-stream delivery
//! tracker ([`Delivered`]), a contiguous floor plus the few sequence
//! numbers above it. Its memory grows with the streams a member hears, not
//! with the messages, and it never forgets a delivery.

use bytes::Bytes;
use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::hash::HashMap;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;
use morpheus_appia::wire::{encode_pooled, Wire};

use crate::events::{
    CatchupRequest, GossipBatch, GossipRepairDigest, GossipRepairFloor, GossipRepairPull,
    GossipRepairPush, ViewInstall,
};
use crate::headers::{
    GossipBatchBody, GossipHeader, RepairDigest, RepairFloorBody, RepairPull, RepairPushHeader,
    RepairRange,
};
use crate::repair::{Delivered, RepairLog, StreamKey};
use crate::sample::{slot_of, slot_table, Sampler};

/// Registered name of the gossip multicast layer.
pub const GOSSIP_LAYER: &str = "gossip";

/// Timer tag of the periodic repair tick.
const REPAIR_TAG: u32 = 1;

/// Timer tag of the zero-delay outbox flush: pushes enqueued within one
/// simulation instant leave together as aggregated [`GossipBatch`] packets.
const FLUSH_TAG: u32 = 2;

/// Default cadence of the repair digest gossip (`0` disables the repair
/// pass entirely, leaving the pure push-phase protocol).
const DEFAULT_REPAIR_INTERVAL_MS: u64 = 1_000;

/// Cap on messages held in the repair log.
const REPAIR_LOG_CAP: usize = 4_096;

/// Age after which a logged message is no longer served.
const REPAIR_LOG_TTL_MS: u64 = 10_000;

/// Cap on message identifiers NACK-pulled per repair interval.
const REPAIR_WINDOW: usize = 64;

/// Digest senders pulled from per repair interval (one redundant pull,
/// mirroring the context anti-entropy budget, so a single lost push batch
/// does not cost a whole extra interval).
const REPAIR_PULL_BUDGET: usize = 2;

/// Per-peer credit window: how many pushes a sender may stream to one peer
/// before it must wait for a re-grant (piggybacked on [`RepairDigest`]).
const CREDIT_WINDOW: u32 = 128;

/// App messages aggregated per [`GossipBatch`] packet.
const BATCH_MAX: usize = 4;

/// Per-peer outbox cap. Beyond it the newest pushes are shed — they are
/// already in the repair log, so the digest-announce + pull path recovers
/// them.
const OUTBOX_CAP: usize = 4 * CREDIT_WINDOW as usize;

/// One push waiting in the outbox.
#[derive(Debug)]
struct OutboxEntry {
    peer: NodeId,
    /// `peer`'s position in `members`: the flush visits peers in this order.
    slot: u32,
    /// Enqueue order, which keeps each peer's queue FIFO.
    arrival: u64,
    /// The header and wire-form message, as [`GossipBatchBody::encode_frames`]
    /// writes them.
    push: (GossipHeader, Bytes),
}

/// Counters of one gossip session, exposed to the node runtime (and from
/// there to testbed reports) via the session downcast hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Push-phase forwards performed (first receptions re-pushed while the
    /// TTL lasted).
    pub forwarded: u64,
    /// Push-phase arrivals of messages already delivered, refused by the
    /// delivery tracker; their relays still queued in the outbox are
    /// dropped with them.
    pub duplicates: u64,
    /// Repair digests gossiped.
    pub repair_digests: u64,
    /// NACK pulls sent (requests, not message identifiers).
    pub repair_pulls: u64,
    /// Message identifiers requested across all pulls.
    pub repair_pulled_seqs: u64,
    /// Logged messages served in answer to pulls.
    pub repair_pushes: u64,
    /// Messages delivered to the application through the repair pass (gaps
    /// the push phase missed).
    pub repaired_deliveries: u64,
    /// Repair pushes of messages already delivered (by the push phase or an
    /// earlier repair), refused by the delivery tracker.
    pub late_duplicates: u64,
    /// Push-flush deferrals: messages left waiting in a per-peer outbox at
    /// a flush because the peer's credit was exhausted (one count per
    /// message per flush attempt).
    pub deferred_pushes: u64,
    /// Pushes shed from a full per-peer outbox (drop-newest; the shed
    /// messages stay recoverable through the repair log).
    pub outbox_shed: u64,
    /// Retention fall-throughs: `RepairFloor` answers that fast-forwarded a
    /// stream past an un-servable span and escalated to a snapshot catch-up.
    pub floor_escalations: u64,
    /// Repair-pull answers cut short by the per-interval push rate limit.
    pub rate_limited_pushes: u64,
}

/// The epidemic multicast layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial membership;
/// * `fanout` — number of random targets per push (default 3);
/// * `ttl` — number of forwarding rounds a message survives (default 4);
/// * `repair_interval_ms` — cadence of the repair digest gossip (default
///   1000 ms; `0` disables the repair pass, and with it the credit
///   backpressure whose grants ride on its digests).
///
/// The repair log's bounds, the pull and push budgets, the credit window
/// and the batch size are constants of this module.
pub struct GossipLayer;

impl Layer for GossipLayer {
    fn name(&self) -> &str {
        GOSSIP_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<ViewInstall>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
            EventSpec::of::<GossipRepairDigest>(),
            EventSpec::of::<GossipRepairPull>(),
            EventSpec::of::<GossipRepairPush>(),
            EventSpec::of::<GossipRepairFloor>(),
            EventSpec::of::<GossipBatch>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec![
            "DataEvent",
            "GossipRepairDigest",
            "GossipRepairPull",
            "GossipRepairPush",
            "GossipRepairFloor",
            "GossipBatch",
            "CatchupRequest",
        ]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        Box::new(GossipSession::from_params(params))
    }
}

/// Session state of the gossip layer.
#[derive(Debug)]
pub struct GossipSession {
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    /// Every member's position in `members` (its first one), sorted by id
    /// and refreshed on every view install: the guard that keeps repair
    /// traffic (digest replies, NACK-pull answers) from flowing to expelled
    /// or crashed peers that are no longer in the view, the outbox's flush
    /// order, and the index of every per-peer table below.
    // bound: <= view size; rebuilt on every view install.
    member_slots: Vec<(NodeId, u32)>,
    fanout: usize,
    ttl: u32,
    repair_interval_ms: u64,
    /// The local stream incarnation (session creation time): what keeps the
    /// local sequence space distinct from any previous session of this node
    /// after a restart or stack redeployment.
    inc: u64,
    inc_ready: bool,
    next_seq: u64,
    /// Per-stream delivery record: the one duplicate check of both the push
    /// phase and the repair pass. Never capacity-evicted, so a late NACK
    /// pull that re-streams a long-delivered message is still refused.
    // bound: <= TRACKED_INCS_PER_ORIGIN streams per origin (stale incarnations evicted); each entry is a contiguous floor plus a DELIVERED_GAP_CAP-capped sparse set.
    delivered: HashMap<StreamKey, Delivered>,
    /// Per-stream `(first-seen ms, advertised lo, last advertiser)` for
    /// sub-floor gaps sighted in digests (`lo` above this node's contiguous
    /// delivery floor). A breach that survives two repair-log TTLs with the
    /// gap still open escalates to a snapshot catch-up on the repair tick;
    /// a transient breach — some other peer's later-arrival retention still
    /// served the span — clears itself.
    // bound: <= one entry per `delivered` stream; cleared on closure or escalation, pruned against `delivered` each repair tick.
    floor_breaches: HashMap<StreamKey, (u64, u64, NodeId)>,
    /// The repair log: recently delivered original messages, servable on a
    /// NACK pull. Bounded by `REPAIR_LOG_CAP` (ring) and
    /// `REPAIR_LOG_TTL_MS` (age). Held in wire form ([`Wire::to_bytes`]):
    /// one exactly-sized buffer per message, never slices of the packet it
    /// arrived in — the log keeps entries for seconds, and a slice would pin
    /// the sender's whole packet buffer for as long.
    // bound: `REPAIR_LOG_CAP` ring + `REPAIR_LOG_TTL_MS` age, enforced inside `RepairLog`.
    log: RepairLog<Bytes>,
    pulls_this_interval: usize,
    pushes_this_interval: usize,
    repair_timer: Option<u64>,
    /// Deferred pushes to every peer in one list, flushed as aggregated
    /// batches on the zero-delay flush timer once credit allows. Wire-form
    /// messages, like the log (whose buffers they share): a credit-starved
    /// entry waits here for whole repair intervals. The list keeps its
    /// capacity across flushes, so queueing a push allocates nothing.
    // bound: <= `OUTBOX_CAP` entries per member (drop-newest, counted in `outbox_shed`); expelled peers' entries pruned on view install.
    outbox: Vec<OutboxEntry>,
    /// Entries waiting in `outbox` per peer, indexed by the peer's slot.
    // bound: one counter per position in `members`; resized on every view install.
    outbox_pending: Vec<usize>,
    /// Arrival stamp of the next outbox entry.
    outbox_arrivals: u64,
    /// Send-side credit remaining per peer, indexed by slot, refilled by
    /// digest grants. A peer starts with a full window.
    // bound: one value per position in `members`; carried over on every view install.
    credits: Vec<u32>,
    /// Receive-side remainder of the credit last granted to each peer,
    /// indexed by slot; when it falls to half the window a fresh grant is
    /// sent.
    // bound: one value per position in `members`; carried over on every view install.
    granted: Vec<u32>,
    flush_timer: Option<u64>,
    /// Scratch for the slots of the push targets drawn on every send and
    /// push arrival.
    // bound: <= `fanout`; overwritten by every sample.
    push_targets: Vec<u32>,
    /// Scratch of the peer draw, which builds no pool of members.
    // bound: scratch lists of <= 2 x `fanout` entries, or <= view size for a member list with repeats; cleared by every draw (see `Sampler`).
    sampler: Sampler,
    /// Scratch the rows of a received repair digest decode into.
    // bound: capacity <= the largest digest received (`get_count` caps a count at packet bytes / 4); overwritten by every digest.
    digest_rows: Vec<RepairRange>,
    /// Scratch the entries of a received batch decode into. The messages
    /// are slices of the packet, so it is drained before the batch handler
    /// returns: no decoded message outlives the event that carried it.
    // bound: capacity <= the largest batch received (`get_count` caps a count at packet bytes / 12); empty between events.
    batch_entries: Vec<(GossipHeader, Message)>,
    stats: GossipStats,
}

impl GossipSession {
    /// Builds a session from layer parameters — the single construction
    /// site shared by [`GossipLayer::create_session`] and the unit tests.
    fn from_params(params: &LayerParams) -> Self {
        let members = param_node_list(params, "members");
        let mut member_slots = Vec::new();
        slot_table(&members, &mut member_slots);
        Self {
            member_slots,
            outbox_pending: vec![0; members.len()],
            credits: vec![CREDIT_WINDOW; members.len()],
            granted: vec![CREDIT_WINDOW; members.len()],
            members,
            fanout: param_or(params, "fanout", 3usize).max(1),
            ttl: param_or(params, "ttl", 4u32),
            repair_interval_ms: param_or(params, "repair_interval_ms", DEFAULT_REPAIR_INTERVAL_MS),
            inc: 0,
            inc_ready: false,
            next_seq: 0,
            delivered: HashMap::default(),
            floor_breaches: HashMap::default(),
            log: RepairLog::new(),
            pulls_this_interval: 0,
            pushes_this_interval: 0,
            repair_timer: None,
            outbox: Vec::new(),
            outbox_arrivals: 0,
            flush_timer: None,
            push_targets: Vec::new(),
            sampler: Sampler::default(),
            digest_rows: Vec::new(),
            batch_entries: Vec::new(),
            stats: GossipStats::default(),
        }
    }

    /// Messages currently held in the repair log.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The session's counters (push-phase and repair-pass).
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    fn repair_enabled(&self) -> bool {
        self.repair_interval_ms > 0
    }

    /// Credit backpressure needs the repair pass: grants ride on repair
    /// digests, and deferred/shed pushes rely on digest-announce + pull for
    /// eventual delivery. Without it senders would starve permanently.
    fn credit_enabled(&self) -> bool {
        self.repair_enabled()
    }

    fn ensure_inc(&mut self, ctx: &mut EventContext<'_>) {
        if !self.inc_ready {
            self.inc = ctx.now_ms();
            self.inc_ready = true;
        }
    }

    /// Incarnations of one origin whose delivery records are retained. A
    /// node can plausibly produce several incarnations inside one repair
    /// window (pre-restart stack, rejoin boot stack, control-plane repair
    /// redeploy); pruning must never touch a stream whose messages peers'
    /// repair logs can still serve, or a late pull would re-deliver — so
    /// the cap is comfortably above that burst, and only the lowest (oldest,
    /// long past every repair log's TTL) incarnation is dropped.
    const TRACKED_INCS_PER_ORIGIN: usize = 4;

    /// Records a delivered message in its stream's tracker; returns `false`
    /// for a duplicate, which every receive path refuses on.
    fn record_delivered(&mut self, origin: NodeId, inc: u64, seq: u64) -> bool {
        // A known stream, the per-message case, costs one lookup.
        if let Some(tracker) = self.delivered.get_mut(&(origin, inc)) {
            return tracker.record(seq);
        }
        self.admit(origin, inc)
            .is_some_and(|tracker| tracker.record(seq))
    }

    /// The delivery tracker of `(origin, inc)`, opened under the one
    /// admission rule if the stream is new: at most
    /// [`Self::TRACKED_INCS_PER_ORIGIN`] per origin, the oldest making room
    /// for a newer one. `None` for an incarnation older than every tracked
    /// one. Trackers are opened only on a delivery or a floor answer —
    /// never on a digest, whose contents must not fabricate (or displace)
    /// delivery records.
    fn admit(&mut self, origin: NodeId, inc: u64) -> Option<&mut Delivered> {
        if !self.delivered.contains_key(&(origin, inc)) {
            let mut incs: Vec<u64> = self
                .delivered
                .keys()
                .filter(|(node, _)| *node == origin)
                .map(|(_, inc)| *inc)
                .collect();
            incs.sort_unstable();
            // An incarnation older than every tracked one is past every
            // repair log's TTL: its message is a late duplicate. Tracking it
            // would evict a newer stream whose messages peers can still
            // re-serve.
            if incs.len() >= Self::TRACKED_INCS_PER_ORIGIN
                && incs.first().is_some_and(|oldest| inc < *oldest)
            {
                return None;
            }
            let excess = (incs.len() + 1).saturating_sub(Self::TRACKED_INCS_PER_ORIGIN);
            for oldest in incs.drain(..excess) {
                self.delivered.remove(&(origin, oldest));
                self.log.drop_stream(&(origin, oldest));
            }
        }
        Some(self.delivered.entry((origin, inc)).or_default())
    }

    /// Stores a delivered message (in wire form) in the bounded repair log.
    fn log_store(&mut self, key: StreamKey, seq: u64, frame: Bytes, now_ms: u64) {
        if !self.repair_enabled() {
            return;
        }
        self.log.store(key, seq, frame, now_ms, REPAIR_LOG_CAP);
    }

    /// Drops logged messages older than `REPAIR_LOG_TTL_MS`.
    fn evict_log(&mut self, now_ms: u64) {
        self.log.evict(now_ms, REPAIR_LOG_TTL_MS);
        // Breach timestamps for streams the delivery map no longer tracks
        // (stale incarnations) go with them — the map stays bounded by the
        // tracked-stream set.
        let delivered = &self.delivered;
        self.floor_breaches
            .retain(|key, _| delivered.contains_key(key));
    }

    /// Draws the slots of up to `fanout` members not in `exclude` into the
    /// `push_targets` scratch.
    fn draw_push_targets(&mut self, exclude: &[NodeId], ctx: &mut EventContext<'_>) {
        let rng = &mut || ctx.random_u64();
        let (members, slots) = (&self.members, &self.member_slots);
        let targets = &mut self.push_targets;
        self.sampler
            .draw_slots_into(members, slots, exclude, self.fanout, rng, targets);
    }

    /// The members at the slots `push_targets` holds, in a list of their
    /// own.
    fn drawn_members(&self) -> Vec<NodeId> {
        let mut targets = Vec::with_capacity(self.push_targets.len());
        let drawn = self.push_targets.iter();
        targets.extend(drawn.filter_map(|slot| self.members.get(*slot as usize)));
        targets
    }

    fn arm_repair_timer(&mut self, ctx: &mut EventContext<'_>) {
        if let Some(timer_id) = self.repair_timer.take() {
            ctx.cancel_timer(timer_id);
        }
        self.repair_timer = Some(ctx.set_timer(self.repair_interval_ms, REPAIR_TAG));
    }

    fn arm_flush_timer(&mut self, ctx: &mut EventContext<'_>) {
        if self.flush_timer.is_none() {
            // Zero delay: fires after the current instant's queued events,
            // so every same-instant push to one peer leaves in one batch.
            self.flush_timer = Some(ctx.set_timer(0, FLUSH_TAG));
        }
    }

    /// Queues one push into the outbox of the member at `slot`. Shed
    /// policy: drop-newest beyond the cap — the message is already in the
    /// repair log, so digest-announce + pull recovers it. Returns `false`
    /// when shed (or when `slot` is outside the view).
    fn outbox_enqueue(&mut self, slot: u32, header: GossipHeader, frame: Bytes) -> bool {
        let (Some(&peer), Some(pending)) = (
            self.members.get(slot as usize),
            self.outbox_pending.get_mut(slot as usize),
        ) else {
            return false;
        };
        if *pending >= OUTBOX_CAP {
            self.stats.outbox_shed += 1;
            return false;
        }
        *pending += 1;
        self.outbox_arrivals += 1;
        self.outbox.push(OutboxEntry {
            peer,
            slot,
            arrival: self.outbox_arrivals,
            push: (header, frame),
        });
        true
    }

    /// Pushes one message, under `header`, to the members drawn into
    /// `push_targets` — an own send and a relay alike: the wire-form
    /// `frame` joins each target's outbox, and the zero-delay flush sends
    /// it as part of an aggregated batch, credit permitting.
    fn push_to_drawn(&mut self, header: GossipHeader, frame: &Bytes, ctx: &mut EventContext<'_>) {
        let targets = std::mem::take(&mut self.push_targets);
        for target in &targets {
            if self.outbox_enqueue(*target, header, frame.clone()) {
                self.arm_flush_timer(ctx);
            }
        }
        self.push_targets = targets;
    }

    /// Sends every credit-covered outbox entry as aggregated
    /// [`GossipBatch`] packets, at most `BATCH_MAX` app messages per packet.
    /// Entries beyond a peer's credit stay queued until a grant refills it.
    fn flush_outbox(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let credit_on = self.credit_enabled();
        // Deterministic peer order — the members list, never hash order —
        // and each peer's queue FIFO. An unstable sort allocates nothing,
        // and the arrival stamps make the order total.
        self.outbox
            .sort_unstable_by_key(|entry| (entry.slot, entry.arrival));
        let mut kept = 0;
        let mut start = 0;
        while let Some(first) = self.outbox.get(start) {
            let (peer, slot) = (first.peer, first.slot);
            let waiting = self.outbox[start..]
                .iter()
                .take_while(|entry| entry.slot == slot)
                .count();
            let end = start + waiting;
            let available = if credit_on {
                self.credits
                    .get(slot as usize)
                    .map_or(0, |credit| *credit as usize)
            } else {
                usize::MAX
            };
            let take = waiting.min(available);
            self.stats.deferred_pushes += (waiting - take) as u64;
            for chunk in self.outbox[start..start + take].chunks(BATCH_MAX) {
                let mut message = Message::new();
                message.push_header(encode_pooled(|w| {
                    GossipBatchBody::encode_frames(chunk.iter().map(|entry| &entry.push), w)
                }));
                ctx.dispatch(Event::down(GossipBatch::new(
                    local,
                    Dest::Node(peer),
                    message,
                )));
            }
            if credit_on {
                if let Some(credit) = self.credits.get_mut(slot as usize) {
                    *credit = credit.saturating_sub(take as u32);
                }
            }
            if let Some(pending) = self.outbox_pending.get_mut(slot as usize) {
                *pending = waiting - take;
            }
            // What credit held back moves to the front, still FIFO; the sent
            // entries end up behind it and are dropped below.
            for index in start + take..end {
                self.outbox.swap(kept, index);
                kept += 1;
            }
            start = end;
        }
        self.outbox.truncate(kept);
    }

    /// A [`RepairDigest`] carrying `credit` and the spans the repair log
    /// can currently serve, in `(origin, inc)` order, encoded straight from
    /// the log.
    fn digest_message(&mut self, credit: u32) -> Message {
        let rows = self.log.rows().map(|((origin, inc), lo, hi)| RepairRange {
            origin,
            inc,
            lo,
            hi,
        });
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| {
            RepairDigest::encode_rows(credit, rows, w)
        }));
        message
    }

    /// The credit value piggybacked on outgoing digests.
    fn grant_value(&self) -> u32 {
        if self.credit_enabled() {
            CREDIT_WINDOW
        } else {
            0
        }
    }

    /// Charges `count` push-path arrivals from `from` against the credit we
    /// granted it, re-granting once half the window is consumed.
    fn note_arrivals(&mut self, from: NodeId, count: u32, ctx: &mut EventContext<'_>) {
        if !self.credit_enabled() {
            return;
        }
        let slot = slot_of(&self.member_slots, from);
        let Some(remaining) = slot.and_then(|slot| self.granted.get_mut(slot as usize)) else {
            return;
        };
        *remaining = remaining.saturating_sub(count);
        if *remaining <= CREDIT_WINDOW / 2 {
            *remaining = CREDIT_WINDOW;
            // The re-grant is a targeted repair digest: the grant rides in
            // its credit field, and the log spans come along for free.
            let local = ctx.node_id();
            self.stats.repair_digests += 1;
            let message = self.digest_message(CREDIT_WINDOW);
            ctx.dispatch(Event::down(GossipRepairDigest::new(
                local,
                Dest::Node(from),
                message,
            )));
        }
    }

    /// One aggregated batch arrived: run every entry through the ordinary
    /// push-arrival path, then charge the batch against its sender's grant.
    /// The entries are decoded into the session's scratch, and drained from
    /// it here: they are slices of the packet and must not outlive it.
    fn on_batch(&mut self, from: NodeId, batch: &Bytes, ctx: &mut EventContext<'_>) {
        let mut entries = std::mem::take(&mut self.batch_entries);
        // All or nothing: a malformed batch delivers none of its entries.
        if GossipBatchBody::decode_into(batch, &mut entries).is_ok() {
            let arrivals = entries.len() as u32;
            for (header, message) in entries.drain(..) {
                self.on_push_arrival(from, header, message, ctx);
            }
            self.note_arrivals(from, arrivals, ctx);
        }
        self.batch_entries = entries;
    }

    /// A duplicate arrival is evidence the message is already circulating
    /// widely: any copy of it still waiting in an outbox (the zero-delay
    /// flush window, or a credit-starved queue) is redundant — drop it
    /// before it costs a transmission and a duplicate at the receiver.
    fn suppress_pending_relays(&mut self, origin: NodeId, inc: u64, seq: u64) {
        let pending = &mut self.outbox_pending;
        self.outbox.retain(|entry| {
            let (header, _) = &entry.push;
            let redundant = header.origin == origin && header.inc == inc && header.seq == seq;
            if redundant {
                if let Some(count) = pending.get_mut(entry.slot as usize) {
                    *count -= 1;
                }
            }
            !redundant
        });
    }

    /// The push-phase receive path of one batch entry: dedup, log, relay
    /// while the TTL lasts, deliver upward. The delivery tracker is the one
    /// duplicate check.
    fn on_push_arrival(
        &mut self,
        from: NodeId,
        header: GossipHeader,
        message: Message,
        ctx: &mut EventContext<'_>,
    ) {
        if header.seq == 0 {
            return;
        }
        if !self.record_delivered(header.origin, header.inc, header.seq) {
            self.stats.duplicates += 1;
            self.suppress_pending_relays(header.origin, header.inc, header.seq);
            return;
        }
        let local = ctx.node_id();
        // The log, and a relay waiting in a credit-starved outbox, outlive
        // the packet this message is a slice of: one private copy in wire
        // form serves them all.
        let frame = message.to_bytes();
        let key = (header.origin, header.inc);
        self.log_store(key, header.seq, frame.clone(), ctx.now_ms());
        if header.ttl > 0 {
            // The sender plainly has the message too — relaying back to it
            // is a guaranteed duplicate, so it joins the exclusion list.
            self.draw_push_targets(&[local, header.origin, from], ctx);
            if !self.push_targets.is_empty() {
                self.stats.forwarded += 1;
                let relay = GossipHeader {
                    ttl: header.ttl - 1,
                    ..header
                };
                self.push_to_drawn(relay, &frame, ctx);
            }
        }
        ctx.dispatch(Event::up(DataEvent::new(
            header.origin,
            Dest::Node(local),
            message,
        )));
    }

    /// The periodic repair tick: evict the log, gossip a digest of what the
    /// log can serve, reset the per-interval pull and push budgets, retry
    /// credit-deferred outbox entries.
    fn on_repair_timer(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let now = ctx.now_ms();
        self.evict_log(now);
        self.escalate_stale_breaches(now, ctx);
        self.pulls_this_interval = 0;
        self.pushes_this_interval = 0;
        if !self.log.is_empty() {
            self.draw_push_targets(&[local], ctx);
            let targets = self.drawn_members();
            if !targets.is_empty() {
                self.stats.repair_digests += 1;
                let message = self.digest_message(self.grant_value());
                ctx.dispatch(Event::down(GossipRepairDigest::new(
                    local,
                    Dest::Nodes(targets),
                    message,
                )));
            }
        }
        // Credit-starved pushes get a periodic flush retry, so a grant
        // lost on the wire delays deferred pushes by one interval at most.
        if !self.outbox.is_empty() {
            self.arm_flush_timer(ctx);
        }
        self.arm_repair_timer(ctx);
    }

    /// Escalates every breach that has survived two repair-log TTLs with
    /// its sub-floor gap still open: the span is beyond NACK-repair reach
    /// group-wide, so the last advertiser becomes the snapshot donor. Runs
    /// on the repair tick, not on digest arrival — by the time a breach
    /// ages out, the stream's logs may have drained group-wide and digests
    /// for it stopped entirely.
    fn escalate_stale_breaches(&mut self, now: u64, ctx: &mut EventContext<'_>) {
        let grace = REPAIR_LOG_TTL_MS * 2;
        let mut due: Vec<(StreamKey, u64, NodeId)> = self
            .floor_breaches
            .iter()
            .filter(|(_, (since, _, _))| now.saturating_sub(*since) >= grace)
            .map(|(key, (_, lo, donor))| (*key, *lo, *donor))
            .collect();
        // The map iterates in hash order; escalation must not.
        due.sort_unstable_by_key(|(key, ..)| (key.0 .0, key.1));
        for (key, lo, donor) in due {
            self.floor_breaches.remove(&key);
            let still_open = self
                .delivered
                .get(&key)
                .map_or(lo > 1, |tracker| tracker.floor + 1 < lo);
            if still_open {
                self.on_repair_floor(
                    donor,
                    RepairFloorBody {
                        origin: key.0,
                        inc: key.1,
                        floor: lo,
                    },
                    ctx,
                );
            }
        }
    }

    /// A peer's digest arrived: refill its push credit from the piggybacked
    /// grant, then NACK-pull the gaps it can serve, within the per-interval
    /// budget.
    fn on_repair_digest(
        &mut self,
        from: NodeId,
        credit: u32,
        rows: &[RepairRange],
        ctx: &mut EventContext<'_>,
    ) {
        if !self.repair_enabled() {
            return;
        }
        // A digest from outside the installed view (an expelled member, a
        // stale incarnation) gets no pull: answering would re-open a repair
        // conversation with a peer the view agreement removed.
        let Some(slot) = slot_of(&self.member_slots, from) else {
            return;
        };
        if credit > 0 && self.credit_enabled() {
            if let Some(granted) = self.credits.get_mut(slot as usize) {
                *granted = credit;
            }
            if self
                .outbox_pending
                .get(slot as usize)
                .is_some_and(|pending| *pending > 0)
            {
                self.arm_flush_timer(ctx);
            }
        }
        if self.pulls_this_interval >= REPAIR_PULL_BUDGET {
            return;
        }
        let local = ctx.node_id();
        let mut wants: Vec<(NodeId, u64, Vec<u64>)> = Vec::new();
        let mut total = 0usize;
        for entry in rows {
            if entry.origin == local || entry.lo > entry.hi || total >= REPAIR_WINDOW {
                continue;
            }
            // The advertised span starts above this node's contiguous
            // delivery floor: the sender's log has evicted everything below
            // `lo`, so this sender can never close that gap. Another peer
            // whose copies arrived later may still serve it (log age runs
            // from arrival, not origination), so a single sighting is not
            // proof of group-wide eviction — the breach is recorded here
            // and the repair tick escalates it only once it has survived
            // two repair-log TTLs with the gap still open. Two TTLs, not
            // one: an overload burst of TTL length leaves a backlog that
            // late retention can still repair, and escalating the whole
            // group into snapshot transfers at once is the heavier failure.
            let key = (entry.origin, entry.inc);
            let tracker = self.delivered.get(&key);
            let evicted_below =
                tracker.map_or(entry.lo > 1, |tracker| tracker.floor + 1 < entry.lo);
            if evicted_below {
                let now = ctx.now_ms();
                let breach = self
                    .floor_breaches
                    .entry(key)
                    .or_insert((now, entry.lo, from));
                breach.1 = breach.1.max(entry.lo);
                breach.2 = from;
            } else if !self.floor_breaches.is_empty() {
                self.floor_breaches.remove(&key);
            }
            // Query only — a digest must never create (or displace) a
            // delivery record. An unknown stream is missing in its
            // entirety within the advertised span.
            let mut missing = Vec::new();
            let limit = REPAIR_WINDOW - total;
            match tracker {
                Some(tracker) => tracker.missing_in(entry.lo, entry.hi, limit, &mut missing),
                None => missing.extend((entry.lo..=entry.hi).take(limit)),
            }
            if !missing.is_empty() {
                total += missing.len();
                wants.push((entry.origin, entry.inc, missing));
            }
        }
        if wants.is_empty() {
            return;
        }
        self.pulls_this_interval += 1;
        self.stats.repair_pulls += 1;
        self.stats.repair_pulled_seqs += total as u64;
        let mut message = Message::new();
        message.push(&RepairPull { wants });
        ctx.dispatch(Event::down(GossipRepairPull::new(
            local,
            Dest::Node(from),
            message,
        )));
    }

    /// A peer pulls gaps: serve them from the repair log. Wants older than
    /// the log's floor that this node once delivered are answered with a
    /// [`GossipRepairFloor`] instead — NACK repair can never close them, so
    /// the puller escalates to a snapshot catch-up.
    fn on_repair_pull(&mut self, from: NodeId, pull: RepairPull, ctx: &mut EventContext<'_>) {
        // Serve log entries only to current view members — an expelled peer
        // re-syncs through the recovery layer's state transfer, not through
        // the repair path.
        if slot_of(&self.member_slots, from).is_none() {
            return;
        }
        let local = ctx.node_id();
        // A malformed or adversarial pull cannot make the node stream more
        // than twice the advertised window per pull…
        let mut budget = REPAIR_WINDOW * 2;
        // …nor more than four windows per repair interval across all pulls
        // (a greedy or corrupt puller cannot amplify this node's send rate).
        let interval_cap = REPAIR_WINDOW * 4;
        for (origin, inc, seqs) in pull.wants {
            let servable_floor = self.log.lowest(&(origin, inc));
            let delivered_floor = self
                .delivered
                .get(&(origin, inc))
                .map(|tracker| tracker.floor)
                .unwrap_or(0);
            // Retention fall-through: a wanted seq this node delivered but
            // has already evicted from its log can never be NACK-served —
            // answer with the floor so the puller stops asking and
            // escalates to the snapshot catch-up path.
            let floored = seqs
                .iter()
                .any(|seq| *seq <= delivered_floor && servable_floor.is_none_or(|lo| *seq < lo));
            if floored {
                let floor = servable_floor.unwrap_or(u64::MAX).min(delivered_floor + 1);
                let mut message = Message::new();
                message.push(&RepairFloorBody { origin, inc, floor });
                ctx.dispatch(Event::down(GossipRepairFloor::new(
                    local,
                    Dest::Node(from),
                    message,
                )));
            }
            if servable_floor.is_none() {
                continue;
            }
            for seq in seqs {
                if budget == 0 {
                    return;
                }
                if self.pushes_this_interval >= interval_cap {
                    self.stats.rate_limited_pushes += 1;
                    return;
                }
                // The log wrote the frame itself; it always reads back.
                let logged = self.log.get(&(origin, inc), seq);
                let Some(Ok(mut message)) = logged.map(Message::from_shared) else {
                    continue;
                };
                budget -= 1;
                self.pushes_this_interval += 1;
                self.stats.repair_pushes += 1;
                message.push(&RepairPushHeader { origin, inc, seq });
                ctx.dispatch(Event::down(GossipRepairPush::new(
                    local,
                    Dest::Node(from),
                    message,
                )));
            }
        }
    }

    /// A responder's log floored one of this node's pulls: the missed span
    /// is gone from NACK-repair reach. Abandon it in the delivery tracker
    /// (late copies must not re-deliver, pulls must stop asking) and ask the
    /// recovery layer above for a targeted state-section pull against the
    /// responder — snapshot catch-up without a view change.
    fn on_repair_floor(&mut self, from: NodeId, body: RepairFloorBody, ctx: &mut EventContext<'_>) {
        if !self.repair_enabled() || slot_of(&self.member_slots, from).is_none() {
            return;
        }
        if body.floor == 0 {
            return;
        }
        // An incarnation older than every tracked one was delivered before
        // its record was pruned: there is nothing left to catch up on.
        let Some(tracker) = self.admit(body.origin, body.inc) else {
            return;
        };
        if tracker.floor + 1 >= body.floor {
            // Nothing below the floor is missing here: either a stale
            // answer or a duplicate — no escalation.
            return;
        }
        tracker.fast_forward(body.floor - 1);
        self.stats.floor_escalations += 1;
        ctx.dispatch(Event::up(CatchupRequest { donor: from }));
    }

    /// A pulled message arrived: deliver it upward unless it is a late
    /// duplicate.
    fn on_repair_push(
        &mut self,
        header: RepairPushHeader,
        original: Message,
        ctx: &mut EventContext<'_>,
    ) {
        if !self.record_delivered(header.origin, header.inc, header.seq) {
            // Already delivered, by the push phase or an earlier repair.
            self.stats.late_duplicates += 1;
            return;
        }
        let local = ctx.node_id();
        self.log_store(
            (header.origin, header.inc),
            header.seq,
            original.to_bytes(),
            ctx.now_ms(),
        );
        self.stats.repaired_deliveries += 1;
        ctx.dispatch(Event::up(DataEvent::new(
            header.origin,
            Dest::Node(local),
            original,
        )));
    }
}

impl Session for GossipSession {
    fn layer_name(&self) -> &str {
        GOSSIP_LAYER
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            self.ensure_inc(ctx);
            if self.repair_enabled() {
                self.arm_repair_timer(ctx);
            }
            ctx.forward(event);
            return;
        }

        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == GOSSIP_LAYER {
                if timer.tag == REPAIR_TAG && self.repair_timer == Some(timer.timer_id) {
                    self.repair_timer = None;
                    self.on_repair_timer(ctx);
                } else if timer.tag == FLUSH_TAG && self.flush_timer == Some(timer.timer_id) {
                    self.flush_timer = None;
                    self.flush_outbox(ctx);
                }
                return;
            }
            ctx.forward(event);
            return;
        }

        if let Some(install) = event.get::<ViewInstall>() {
            self.members = install.view.members.clone();
            let old_slots = std::mem::take(&mut self.member_slots);
            slot_table(&self.members, &mut self.member_slots);
            // Per-peer backpressure state follows the membership: queued
            // pushes, credits and grants of expelled peers are dropped, and
            // the survivors' pushes, credits and grants move to their new
            // slots.
            let slots = &self.member_slots;
            self.outbox
                .retain_mut(|entry| match slot_of(slots, entry.peer) {
                    Some(slot) => {
                        entry.slot = slot;
                        true
                    }
                    None => false,
                });
            self.outbox_pending.clear();
            self.outbox_pending.resize(self.members.len(), 0);
            for entry in &self.outbox {
                if let Some(pending) = self.outbox_pending.get_mut(entry.slot as usize) {
                    *pending += 1;
                }
            }
            for values in [&mut self.credits, &mut self.granted] {
                let old = std::mem::replace(values, vec![CREDIT_WINDOW; self.members.len()]);
                for (peer, slot) in slots {
                    let kept = slot_of(&old_slots, *peer).and_then(|at| old.get(at as usize));
                    if let (Some(kept), Some(value)) = (kept, values.get_mut(*slot as usize)) {
                        *value = *kept;
                    }
                }
            }
            ctx.forward(event);
            return;
        }

        if event.is::<GossipRepairDigest>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(digest) = event.get_mut::<GossipRepairDigest>() else {
                return;
            };
            let from = digest.header.source;
            let Some(body) = digest.message.pop_header() else {
                return;
            };
            let mut rows = std::mem::take(&mut self.digest_rows);
            if let Ok(credit) = RepairDigest::decode_into(&body, &mut rows) {
                self.on_repair_digest(from, credit, &rows, ctx);
            }
            self.digest_rows = rows;
            return;
        }

        if event.is::<GossipRepairPull>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(pull) = event.get_mut::<GossipRepairPull>() else {
                return;
            };
            let from = pull.header.source;
            let Ok(body) = pull.message.pop::<RepairPull>() else {
                return;
            };
            self.on_repair_pull(from, body, ctx);
            return;
        }

        if event.is::<GossipRepairPush>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(push) = event.get_mut::<GossipRepairPush>() else {
                return;
            };
            let Ok(header) = push.message.pop::<RepairPushHeader>() else {
                return;
            };
            let original = push.message.clone();
            self.on_repair_push(header, original, ctx);
            return;
        }

        if event.is::<GossipRepairFloor>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(floor) = event.get_mut::<GossipRepairFloor>() else {
                return;
            };
            let from = floor.header.source;
            let Ok(body) = floor.message.pop::<RepairFloorBody>() else {
                return;
            };
            self.on_repair_floor(from, body, ctx);
            return;
        }

        if event.is::<GossipBatch>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(batch) = event.get_mut::<GossipBatch>() else {
                return;
            };
            let from = batch.header.source;
            let Some(body) = batch.message.pop_header() else {
                return;
            };
            self.on_batch(from, &body, ctx);
            return;
        }

        match event.direction {
            Direction::Down => {
                let local = ctx.node_id();
                if let Some(data) = event.get_mut::<DataEvent>() {
                    if data.header.dest == Dest::Group {
                        self.ensure_inc(ctx);
                        self.next_seq += 1;
                        let header = GossipHeader {
                            origin: data.header.source,
                            inc: self.inc,
                            seq: self.next_seq,
                            ttl: self.ttl,
                        };
                        // Log the pre-header message (what receivers deliver)
                        // so the origin itself can serve repair pulls, and
                        // record the own send as delivered so the node never
                        // pulls its own messages.
                        let original = data.message.to_bytes();
                        self.record_delivered(header.origin, header.inc, header.seq);
                        let key = (header.origin, header.inc);
                        self.log_store(key, header.seq, original.clone(), ctx.now_ms());
                        self.draw_push_targets(&[local], ctx);
                        self.push_to_drawn(header, &original, ctx);
                        return;
                    }
                    data.message.push(&GossipHeader {
                        origin: data.header.source,
                        inc: 0,
                        seq: 0,
                        ttl: 0,
                    });
                }
                ctx.forward(event);
            }
            Direction::Up => {
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                let Ok(header) = data.message.pop::<GossipHeader>() else {
                    return;
                };
                // A point-to-point send, not gossiped, is delivered as is.
                // Every push travels in a `GossipBatch`, so a `DataEvent`
                // carrying a pushed message's sequence number is dropped.
                if header.seq == 0 {
                    data.header.source = header.origin;
                    ctx.forward(event);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::config::{ChannelConfig, LayerSpec};
    use morpheus_appia::platform::{InPacket, PacketDest, TestPlatform};
    use morpheus_appia::testing::Harness;
    use morpheus_appia::{EventPayload, Kernel, Message};

    use super::*;
    use crate::repair::DELIVERED_GAP_CAP;
    use crate::suite::register_suite;

    fn gossip_config(members: &[u32], fanout: usize, ttl: u32) -> ChannelConfig {
        let members_param = members
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(",");
        ChannelConfig::new("data")
            .with_layer(LayerSpec::new("network"))
            .with_layer(
                LayerSpec::new("gossip")
                    .with_param("members", members_param)
                    .with_param("fanout", fanout.to_string())
                    .with_param("ttl", ttl.to_string()),
            )
            .with_layer(LayerSpec::new("app"))
    }

    fn gossip_params(members: &[u32]) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params
    }

    fn test_session(members: &[u32]) -> GossipSession {
        // The boxed session exposes itself through the downcast hook the
        // node runtime uses to read repair statistics.
        let boxed = GossipLayer.create_session(&gossip_params(members));
        let any = boxed.as_any().expect("gossip sessions expose themselves");
        assert!(any.downcast_ref::<GossipSession>().is_some());
        // Same construction site as the layer, so tests never diverge from
        // the real parameter clamping.
        GossipSession::from_params(&gossip_params(members))
    }

    /// Fires the timers due by now on `kernel` — the zero-delay outbox
    /// flush; a repair tick armed for later stays armed.
    fn fire_due(kernel: &mut Kernel, platform: &mut TestPlatform) {
        let now = platform.now_ms;
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut platform.timers)
            .into_iter()
            .partition(|(at_ms, _)| *at_ms <= now);
        platform.timers = later;
        for (_, key) in due {
            kernel.timer_expired(key, platform);
        }
    }

    #[test]
    fn group_send_pushes_to_fanout_targets() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..20).collect();
        let id = kernel
            .create_channel(&gossip_config(&members, 4, 3), &mut platform)
            .unwrap();

        let event = Event::down(DataEvent::to_group(NodeId(0), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        assert!(platform.take_sent().is_empty(), "pushes wait for the flush");
        fire_due(&mut kernel, &mut platform);
        let sent = platform.take_sent();
        assert_eq!(sent.len(), 4);
        assert!(sent
            .iter()
            .all(|p| matches!(p.dest, PacketDest::Node(n) if n != NodeId(0))));
    }

    #[test]
    fn small_groups_push_to_everyone() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = TestPlatform::new(NodeId(0));
        let id = kernel
            .create_channel(&gossip_config(&[0, 1, 2], 5, 3), &mut platform)
            .unwrap();
        let event = Event::down(DataEvent::to_group(NodeId(0), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        fire_due(&mut kernel, &mut platform);
        assert_eq!(platform.take_sent().len(), 2);
    }

    #[test]
    fn receivers_deliver_once_and_forward_while_ttl_lasts() {
        let mut sender = Kernel::new();
        register_suite(&mut sender);
        let mut sender_platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..10).collect();
        let sender_channel = sender
            .create_channel(&gossip_config(&members, 3, 2), &mut sender_platform)
            .unwrap();
        let event = Event::down(DataEvent::to_group(
            NodeId(0),
            Message::with_payload(&b"g"[..]),
        ));
        sender.dispatch_and_process(sender_channel, event, &mut sender_platform);
        fire_due(&mut sender, &mut sender_platform);
        let sent = sender_platform.take_sent();
        assert!(!sent.is_empty());

        // Deliver the same packet to node 1 twice: first delivery forwards,
        // second is suppressed as a duplicate.
        let mut receiver = Kernel::new();
        register_suite(&mut receiver);
        let mut receiver_platform = TestPlatform::new(NodeId(1));
        receiver
            .create_channel(&gossip_config(&members, 3, 2), &mut receiver_platform)
            .unwrap();

        let data_packet = sent
            .iter()
            .find(|p| p.class == morpheus_appia::PacketClass::Data)
            .expect("push-phase packet");
        let packet = InPacket {
            from: NodeId(0),
            to: NodeId(1),
            class: data_packet.class,
            channel: data_packet.channel.clone(),
            payload: data_packet.payload.clone(),
        };
        receiver
            .deliver_packet(packet.clone(), &mut receiver_platform)
            .unwrap();
        assert_eq!(receiver_platform.data_delivery_count(), 1);
        receiver_platform.take_deliveries();
        fire_due(&mut receiver, &mut receiver_platform);
        let forwarded = receiver_platform.take_sent();
        assert!(!forwarded.is_empty(), "first reception is forwarded onward");

        receiver
            .deliver_packet(packet, &mut receiver_platform)
            .unwrap();
        fire_due(&mut receiver, &mut receiver_platform);
        assert_eq!(
            receiver_platform.data_delivery_count(),
            0,
            "duplicate is suppressed"
        );
        assert!(receiver_platform.take_sent().is_empty());
    }

    /// The retention rule, end to end: decoded messages are slices of the
    /// packet, so a log that kept them as they arrive would pin the sending
    /// kernel's packet buffer — every exhaustion would abandon the buffer
    /// for a fresh chunk. The log keeps its own wire-form copy, so once a
    /// packet is dropped nothing views the sender's buffer and `reserve`
    /// recycles it in place: a thousand packets all start at the same few
    /// addresses (a packet that outgrows the chunk — the varint `seq` gains
    /// a byte at 128 — moves it once), where a pinned buffer would hand
    /// every packet an address of its own.
    #[test]
    fn logged_messages_do_not_pin_the_senders_packet_buffer() {
        let config = ChannelConfig::new("data")
            .with_layer(LayerSpec::new("network"))
            .with_layer(
                LayerSpec::new("gossip")
                    .with_param("members", "0,1")
                    .with_param("ttl", "2"),
            )
            .with_layer(LayerSpec::new("app"));
        let mut sender = Kernel::new();
        register_suite(&mut sender);
        let mut sender_platform = TestPlatform::new(NodeId(0));
        let sender_channel = sender
            .create_channel(&config, &mut sender_platform)
            .unwrap();
        let mut receiver = Kernel::new();
        register_suite(&mut receiver);
        let mut receiver_platform = TestPlatform::new(NodeId(1));
        receiver
            .create_channel(&config, &mut receiver_platform)
            .unwrap();

        let mut starts = std::collections::BTreeSet::new();
        for seq in 0..1_000u32 {
            let event = Event::down(DataEvent::to_group(
                NodeId(0),
                Message::with_payload(seq.to_be_bytes().repeat(16)),
            ));
            sender.dispatch_and_process(sender_channel, event, &mut sender_platform);
            // Pushes leave on the zero-delay flush timer. The repair timer
            // stays unfired: a digest encoded while the data packet is still
            // alive could exhaust the buffer under a (legitimate, transient)
            // view and move it.
            fire_due(&mut sender, &mut sender_platform);
            for out in sender_platform.take_sent() {
                if out.class != morpheus_appia::PacketClass::Data {
                    continue;
                }
                starts.insert(out.payload.as_ptr() as usize);
                let packet = InPacket {
                    from: NodeId(0),
                    to: NodeId(1),
                    class: out.class,
                    channel: out.channel,
                    payload: out.payload,
                };
                receiver
                    .deliver_packet(packet, &mut receiver_platform)
                    .unwrap();
            }
            receiver_platform.take_deliveries();
            // A thousand sends stream past one credit window: the receiver's
            // grant digests go back to the sender, as in a live stack.
            for out in receiver_platform.take_sent() {
                let grant = InPacket {
                    from: NodeId(1),
                    to: NodeId(0),
                    class: out.class,
                    channel: out.channel,
                    payload: out.payload,
                };
                sender.deliver_packet(grant, &mut sender_platform).unwrap();
            }
            receiver_platform.timers.clear();
        }

        let session = receiver
            .channel_by_name("data")
            .unwrap()
            .session_of("gossip")
            .unwrap();
        let session = session.borrow();
        let gossip = session
            .as_any()
            .and_then(|any| any.downcast_ref::<GossipSession>())
            .unwrap();
        assert_eq!(gossip.log_len(), 1_000, "every received message is logged");
        assert!(
            starts.len() <= 4,
            "1,000 packets left from {} distinct sender buffer addresses — a \
             retained slice stopped the buffer from being recycled",
            starts.len()
        );
    }

    /// What a session reads off its own state, through the downcast hook.
    fn inspect<T>(gossip: &mut Harness, read: impl FnOnce(&GossipSession) -> T) -> T {
        let session = gossip
            .kernel_mut()
            .channel_by_name("harness")
            .unwrap()
            .session_of(GOSSIP_LAYER)
            .unwrap();
        let session = session.borrow();
        read(
            session
                .as_any()
                .and_then(|any| any.downcast_ref::<GossipSession>())
                .unwrap(),
        )
    }

    /// A push of `(origin, inc, seq)` arriving at node 1 from the origin
    /// itself: a one-entry batch.
    fn push_of(origin: u32, inc: u64, seq: u64, ttl: u32) -> Event {
        let header = GossipHeader {
            origin: NodeId(origin),
            inc,
            seq,
            ttl,
        };
        let entries = vec![(header, Message::with_payload(&b"x"[..]))];
        let mut message = Message::new();
        message.push(&GossipBatchBody { entries });
        let to = Dest::Node(NodeId(1));
        Event::up(GossipBatch::new(NodeId(origin), to, message))
    }

    /// A repair digest from `from` to `to`, granting `credit` and
    /// advertising the `(inc, lo, hi)` spans of origin 0's streams.
    fn digest_of(from: u32, to: u32, credit: u32, spans: &[(u64, u64, u64)]) -> Event {
        let origin = NodeId(0);
        let entries = spans
            .iter()
            .map(|&(inc, lo, hi)| RepairRange {
                origin,
                inc,
                lo,
                hi,
            })
            .collect();
        let mut message = Message::new();
        message.push(&RepairDigest { credit, entries });
        let to = Dest::Node(NodeId(to));
        Event::up(GossipRepairDigest::new(NodeId(from), to, message))
    }

    /// A NACK pull from `from` to `to` of the `seqs` of one stream.
    fn pull_of(from: u32, to: u32, (origin, inc): (u32, u64), seqs: Vec<u64>) -> Event {
        let mut message = Message::new();
        let wants = vec![(NodeId(origin), inc, seqs)];
        message.push(&RepairPull { wants });
        let to = Dest::Node(NodeId(to));
        Event::up(GossipRepairPull::new(NodeId(from), to, message))
    }

    /// How many events of type `T` the session sent down since the last
    /// drain.
    fn sent_down<T: EventPayload>(gossip: &mut Harness) -> usize {
        let down = gossip.drain_down();
        down.iter().filter(|event| event.is::<T>()).count()
    }

    /// Duplicate suppression costs memory per stream, not per message: a
    /// hundred thousand in-order arrivals leave one tracker per origin,
    /// each a bare floor, and the floor alone still refuses the oldest.
    #[test]
    fn duplicate_suppression_memory_is_per_stream_not_per_message() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..8).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        let origins = [0u32, 2, 3];
        for arrival in 0..100_000u64 {
            let origin = origins[(arrival % 3) as usize];
            let up = gossip.run_up(push_of(origin, 1, arrival / 3 + 1, 0), &mut platform);
            assert_eq!(up.len(), 1, "arrival {arrival} is delivered");
        }
        gossip.drain_down();
        let trackers = inspect(&mut gossip, |session| {
            let mut trackers: Vec<(NodeId, u64, usize)> = session
                .delivered
                .iter()
                .map(|((origin, _), tracker)| (*origin, tracker.floor, tracker.above.len()))
                .collect();
            trackers.sort_unstable();
            trackers
        });
        assert_eq!(
            trackers,
            [
                (NodeId(0), 33_334, 0),
                (NodeId(2), 33_333, 0),
                (NodeId(3), 33_333, 0)
            ],
            "one tracker per origin, nothing held above its floor"
        );

        let up = gossip.run_up(push_of(0, 1, 1, 2), &mut platform);
        assert!(up.is_empty(), "a re-arrival of seq 1 is refused");
        let queued = inspect(&mut gossip, |session| session.outbox.len());
        assert_eq!(queued, 0, "and is not relayed");
        assert_eq!(inspect(&mut gossip, GossipSession::stats).duplicates, 1);
    }

    #[test]
    fn ttl_zero_messages_are_not_forwarded() {
        let mut sender = Kernel::new();
        register_suite(&mut sender);
        let mut sender_platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..6).collect();
        let sender_channel = sender
            .create_channel(&gossip_config(&members, 2, 0), &mut sender_platform)
            .unwrap();
        let event = Event::down(DataEvent::to_group(NodeId(0), Message::new()));
        sender.dispatch_and_process(sender_channel, event, &mut sender_platform);
        fire_due(&mut sender, &mut sender_platform);
        let sent = sender_platform.take_sent();
        let data_packet = sent
            .iter()
            .find(|p| p.class == morpheus_appia::PacketClass::Data)
            .expect("push-phase packet");

        let mut receiver = Kernel::new();
        register_suite(&mut receiver);
        let mut receiver_platform = TestPlatform::new(NodeId(1));
        receiver
            .create_channel(&gossip_config(&members, 2, 0), &mut receiver_platform)
            .unwrap();
        receiver
            .deliver_packet(
                InPacket {
                    from: NodeId(0),
                    to: NodeId(1),
                    class: data_packet.class,
                    channel: data_packet.channel.clone(),
                    payload: data_packet.payload.clone(),
                },
                &mut receiver_platform,
            )
            .unwrap();
        assert_eq!(receiver_platform.data_delivery_count(), 1);
        assert!(receiver_platform
            .take_sent()
            .iter()
            .all(|p| p.class != morpheus_appia::PacketClass::Data));
    }

    #[test]
    fn delivery_tracker_advances_its_floor_and_stays_bounded() {
        let mut delivered = Delivered::default();
        assert!(delivered.record(1));
        assert!(delivered.record(2));
        assert!(!delivered.record(2), "duplicates rejected");
        assert_eq!(delivered.floor, 2);
        assert!(delivered.record(5));
        assert_eq!(delivered.floor, 2, "gap at 3-4 holds the floor");
        let mut missing = Vec::new();
        delivered.missing_in(1, 6, 16, &mut missing);
        assert_eq!(missing, vec![3, 4, 6]);
        assert!(delivered.record(3));
        assert!(delivered.record(4));
        assert_eq!(delivered.floor, 5, "contiguous run folds into the floor");

        // Pathological gaps are abandoned once the sparse set exceeds the
        // cap, keeping memory bounded.
        for seq in 0..2 * DELIVERED_GAP_CAP as u64 {
            delivered.record(100 + 2 * seq);
        }
        assert!(delivered.above.len() <= DELIVERED_GAP_CAP);
    }

    #[test]
    fn repair_tick_gossips_a_digest_of_the_log() {
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..8).collect();
        let mut params = gossip_params(&members);
        params.insert("repair_interval_ms".into(), "500".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        // A group send seeds the log.
        gossip.run_down(
            Event::down(DataEvent::to_group(
                NodeId(0),
                Message::with_payload(&b"m1"[..]),
            )),
            &mut platform,
        );
        platform.advance(500);
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        let down = gossip.drain_down();
        let digests: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<GossipRepairDigest>())
            .collect();
        assert_eq!(digests.len(), 1, "one digest per repair tick");
        let digest = digests[0].get::<GossipRepairDigest>().unwrap();
        let body = digest.message.clone().pop::<RepairDigest>().unwrap();
        assert_eq!(body.entries.len(), 1);
        assert_eq!(body.entries[0].origin, NodeId(0));
        assert_eq!((body.entries[0].lo, body.entries[0].hi), (1, 1));
        let Dest::Nodes(targets) = &digest.header.dest else {
            panic!("digests address a sampled node list");
        };
        assert!(targets.len() <= 3 && !targets.is_empty());
    }

    #[test]
    fn a_digest_with_gaps_triggers_a_nack_pull_and_the_push_repairs_it() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // The peer advertises seqs 1..=3 of origin 0; nothing was delivered
        // here yet, so all three are missing.
        gossip.run_up(digest_of(2, 1, 0, &[(7, 1, 3)]), &mut platform);
        let down = gossip.drain_down();
        let pulls: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<GossipRepairPull>())
            .collect();
        assert_eq!(pulls.len(), 1);
        let pull = pulls[0].get::<GossipRepairPull>().unwrap();
        assert_eq!(pull.header.dest, Dest::Node(NodeId(2)));
        let body = pull.message.clone().pop::<RepairPull>().unwrap();
        assert_eq!(body.wants, vec![(NodeId(0), 7, vec![1, 2, 3])]);

        // The peer answers with one of the messages: it is delivered upward
        // exactly once.
        let mut push = Message::with_payload(&b"repaired"[..]);
        push.push(&RepairPushHeader {
            origin: NodeId(0),
            inc: 7,
            seq: 2,
        });
        let up = gossip.run_up(
            Event::up(GossipRepairPush::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                push.clone(),
            )),
            &mut platform,
        );
        let delivered: Vec<&Event> = up.iter().filter(|event| event.is::<DataEvent>()).collect();
        assert_eq!(delivered.len(), 1, "the repaired message is delivered");
        let data = delivered[0].get::<DataEvent>().unwrap();
        assert_eq!(data.header.source, NodeId(0), "origin restored");
        assert_eq!(data.message.payload().as_ref(), b"repaired");

        // A duplicate push of the same message is suppressed.
        let up = gossip.run_up(
            Event::up(GossipRepairPush::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                push,
            )),
            &mut platform,
        );
        assert!(up.iter().all(|event| !event.is::<DataEvent>()));
    }

    #[test]
    fn pulls_are_rate_limited_per_interval() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..8).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        let digest_from = |from: u32| digest_of(from, 1, 0, &[(1, 1, 3)]);
        let pulls = sent_down::<GossipRepairPull>;
        let budget = REPAIR_PULL_BUDGET as u32;
        for from in 2..2 + budget {
            gossip.run_up(digest_from(from), &mut platform);
            assert_eq!(pulls(&mut gossip), 1);
        }
        // The budget for this interval is spent: the next digest is ignored.
        gossip.run_up(digest_from(2 + budget), &mut platform);
        assert_eq!(pulls(&mut gossip), 0, "per-interval pull budget enforced");
    }

    #[test]
    fn a_member_serves_pulls_from_its_log() {
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // Two group sends populate the log (inc = now = 0 in tests).
        for text in [&b"m1"[..], &b"m2"[..]] {
            gossip.run_down(
                Event::down(DataEvent::to_group(NodeId(0), Message::with_payload(text))),
                &mut platform,
            );
        }
        gossip.drain_down();

        gossip.run_up(pull_of(2, 0, (0, 0), vec![1, 2, 9]), &mut platform);
        let down = gossip.drain_down();
        let pushes: Vec<(RepairPushHeader, Message)> = down
            .iter()
            .filter_map(|event| {
                event.get::<GossipRepairPush>().map(|push| {
                    let mut message = push.message.clone();
                    let header = message.pop::<RepairPushHeader>().unwrap();
                    (header, message)
                })
            })
            .collect();
        assert_eq!(pushes.len(), 2, "held seqs served, unknown seq skipped");
        assert_eq!(pushes[0].0.seq, 1);
        assert_eq!(pushes[0].1.payload().as_ref(), b"m1");
        assert_eq!(pushes[1].0.seq, 2);
    }

    #[test]
    fn seen_set_eviction_does_not_cause_redelivery_on_late_pulls() {
        // The regression the repair pass must not introduce: a message
        // delivered long ago, with many deliveries since, must NOT reach the
        // application again when a late NACK pull re-streams it.
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // Deliver (origin 0, inc 1, seq 1) through the normal push phase.
        let deliver = |seq: u64| push_of(0, 1, seq, 0);
        let up = gossip.run_up(deliver(1), &mut platform);
        assert_eq!(up.iter().filter(|event| event.is::<DataEvent>()).count(), 1);

        // A hundred deliveries later, seq 1 is long past.
        for seq in 100..200u64 {
            gossip.run_up(deliver(seq), &mut platform);
        }
        gossip.drain_down();

        // A late repair push re-streams seq 1: the delivery tracker — which
        // never forgets a delivery — suppresses the re-delivery.
        let mut push = Message::with_payload(&b"x"[..]);
        push.push(&RepairPushHeader {
            origin: NodeId(0),
            inc: 1,
            seq: 1,
        });
        let up = gossip.run_up(
            Event::up(GossipRepairPush::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                push,
            )),
            &mut platform,
        );
        assert!(
            up.iter().all(|event| !event.is::<DataEvent>()),
            "an already-delivered message must never be re-delivered"
        );

        // The same holds on the push-phase path: re-receiving the message as
        // a plain gossip forward is suppressed by the tracker.
        let up = gossip.run_up(deliver(1), &mut platform);
        assert!(up.iter().all(|event| !event.is::<DataEvent>()));
    }

    #[test]
    fn streams_of_different_incarnations_are_tracked_separately() {
        // A node whose gossip session was rebuilt (restart, stack
        // redeployment) restarts its seq space under a new incarnation; its
        // fresh seq 1 must not be mistaken for a duplicate of the old
        // stream's seq 1.
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        let deliver = |inc: u64, seq: u64| push_of(0, inc, seq, 0);
        let first = gossip.run_up(deliver(1, 1), &mut platform);
        assert_eq!(
            first.iter().filter(|event| event.is::<DataEvent>()).count(),
            1
        );
        let second = gossip.run_up(deliver(2, 1), &mut platform);
        assert_eq!(
            second
                .iter()
                .filter(|event| event.is::<DataEvent>())
                .count(),
            1,
            "same seq under a fresh incarnation is a new message"
        );
    }

    #[test]
    fn repair_can_be_disabled_entirely() {
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..4).collect();
        let mut params = gossip_params(&members);
        params.insert("repair_interval_ms".into(), "0".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);
        assert!(
            platform.timers.is_empty(),
            "no repair timer when the pass is disabled"
        );
        gossip.run_down(
            Event::down(DataEvent::to_group(
                NodeId(0),
                Message::with_payload(&b"m"[..]),
            )),
            &mut platform,
        );
        // No log is kept, so a pull finds nothing.
        gossip.run_up(pull_of(2, 0, (0, 0), vec![1]), &mut platform);
        assert_eq!(sent_down::<GossipRepairPush>(&mut gossip), 0);
    }

    #[test]
    fn repair_traffic_is_not_sent_to_expelled_members() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // A group send populates the repair log, then node 3 is expelled.
        gossip.run_down(
            Event::down(DataEvent::to_group(
                NodeId(1),
                Message::with_payload(&b"m1"[..]),
            )),
            &mut platform,
        );
        gossip.drain_down();
        gossip.run_down(
            Event::down(ViewInstall {
                view: crate::view::View::new(2, vec![NodeId(0), NodeId(1), NodeId(2)]),
            }),
            &mut platform,
        );
        gossip.drain_down();

        // The expelled node's digest gets no NACK pull back...
        gossip.run_up(digest_of(3, 1, 0, &[(7, 1, 3)]), &mut platform);
        assert_eq!(
            sent_down::<GossipRepairPull>(&mut gossip),
            0,
            "no pull goes back to an expelled digest sender"
        );

        // ...and its pull is not served from the log, while a live member's
        // identical pull is.
        let pull_from = |from: u32| pull_of(from, 1, (1, 0), vec![1]);
        gossip.run_up(pull_from(3), &mut platform);
        assert_eq!(
            sent_down::<GossipRepairPush>(&mut gossip),
            0,
            "the repair log is not served to expelled members"
        );
        gossip.run_up(pull_from(2), &mut platform);
        assert_eq!(
            sent_down::<GossipRepairPush>(&mut gossip),
            1,
            "a current member's identical pull is served"
        );
    }
    #[test]
    fn sustained_churn_keeps_delivery_and_repair_memory_bounded() {
        let mut gossip = test_session(&[0, 1, 2, 3]);

        // A flapping member (node 3) rejoins fifty times; every incarnation
        // opens a fresh stream whose burst is tracked and logged, and the
        // bursts of the tracked incarnations overflow the log. Both memories
        // must stay inside their bounds at every step of the churn, not just
        // at the end.
        let burst = REPAIR_LOG_CAP as u64 / 3;
        let mut peak = 0;
        for incarnation in 0..50u64 {
            let now = incarnation * 1_000;
            for seq in 1..=burst {
                assert!(gossip.record_delivered(NodeId(3), incarnation, seq));
                gossip.log_store(
                    (NodeId(3), incarnation),
                    seq,
                    Message::new().to_bytes(),
                    now,
                );
            }
            gossip.evict_log(now);
            assert!(gossip.log_len() <= REPAIR_LOG_CAP, "repair log cap bound");
            peak = peak.max(gossip.log_len());
            let tracked = gossip
                .delivered
                .keys()
                .filter(|(node, _)| *node == NodeId(3))
                .count();
            assert!(
                tracked <= GossipSession::TRACKED_INCS_PER_ORIGIN,
                "delivery trackers per origin stay capped under churn \
                 ({tracked} incarnations tracked)"
            );
        }

        // Only the newest incarnations survive: the tracker never forgets a
        // stream the repair logs can still serve (all retained incs are
        // recent), and the TTL drains the log once the churn stops.
        let newest: Vec<u64> = gossip
            .delivered
            .keys()
            .filter(|(node, _)| *node == NodeId(3))
            .map(|(_, inc)| *inc)
            .collect();
        assert!(
            newest.iter().all(|inc| *inc >= 46),
            "oldest incs pruned first"
        );
        assert_eq!(
            peak, REPAIR_LOG_CAP,
            "the cap, not the TTL, bounded the bursts"
        );
        gossip.evict_log(50_000 + REPAIR_LOG_TTL_MS + 1);
        assert_eq!(gossip.log_len(), 0, "TTL drains the log once churn stops");
    }

    /// A message of an incarnation older than every tracked one arrives
    /// (a late pull answer, a packet delayed across two restarts). It was
    /// delivered before its record was pruned, so it is a late duplicate —
    /// and tracking it afresh would evict a newer stream, whose messages a
    /// peer's log could then deliver a second time.
    #[test]
    fn a_straggler_from_an_untracked_old_incarnation_is_refused() {
        let mut gossip = test_session(&[0, 1, 2, 3]);
        for inc in [10, 20, 30, 40] {
            assert!(gossip.record_delivered(NodeId(3), inc, 1));
        }
        assert!(
            !gossip.record_delivered(NodeId(3), 5, 1),
            "inc 5 is older than every tracked incarnation"
        );
        assert!(
            !gossip.record_delivered(NodeId(3), 10, 1),
            "inc 10 seq 1 was delivered once and stays delivered"
        );
        let mut tracked: Vec<u64> = gossip
            .delivered
            .keys()
            .filter(|(node, _)| *node == NodeId(3))
            .map(|(_, inc)| *inc)
            .collect();
        tracked.sort_unstable();
        assert_eq!(tracked, vec![10, 20, 30, 40]);

        // A newer incarnation still displaces the oldest, as before.
        assert!(gossip.record_delivered(NodeId(3), 50, 1));
        assert!(!gossip.delivered.contains_key(&(NodeId(3), 10)));
        assert!(!gossip.record_delivered(NodeId(3), 50, 1));
    }

    /// A floor answer for an incarnation older than every tracked one
    /// passes the same admission rule as a delivery: it opens no fifth
    /// tracker, and it asks for no snapshot of a stream long delivered.
    #[test]
    fn a_floor_for_an_untracked_old_incarnation_opens_no_tracker_and_no_catchup() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        for inc in [10, 20, 30, 40] {
            assert_eq!(gossip.run_up(push_of(3, inc, 1, 0), &mut platform).len(), 1);
        }
        let mut message = Message::new();
        message.push(&RepairFloorBody {
            origin: NodeId(3),
            inc: 5,
            floor: 10,
        });
        let floor = Event::up(GossipRepairFloor::new(
            NodeId(2),
            Dest::Node(NodeId(1)),
            message,
        ));
        let up = gossip.run_up(floor, &mut platform);
        assert!(
            up.iter().all(|event| !event.is::<CatchupRequest>()),
            "no catch-up for a stream older than every tracked one"
        );
        let tracked = inspect(&mut gossip, |session| {
            let mut incs: Vec<u64> = session.delivered.keys().map(|(_, inc)| *inc).collect();
            incs.sort_unstable();
            (incs, session.stats.floor_escalations)
        });
        assert_eq!(tracked, (vec![10, 20, 30, 40], 0), "still four trackers");
    }

    #[test]
    fn same_instant_pushes_leave_as_aggregated_batches() {
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..4).collect();
        let mut params = gossip_params(&members);
        params.insert("repair_interval_ms".into(), "0".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        for text in [&b"m1"[..], &b"m2"[..]] {
            gossip.run_down(
                Event::down(DataEvent::to_group(NodeId(0), Message::with_payload(text))),
                &mut platform,
            );
        }
        assert!(
            gossip
                .drain_down()
                .iter()
                .all(|event| !event.is::<DataEvent>()),
            "pushes are deferred to the flush tick"
        );
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        assert_eq!(timers.len(), 1, "one zero-delay flush timer armed");
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        let down = gossip.drain_down();
        let batches: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<GossipBatch>())
            .collect();
        // fanout 3, members 4: every peer receives both sends in one packet.
        assert_eq!(batches.len(), 3, "one aggregated packet per peer");
        for event in &batches {
            let batch = event.get::<GossipBatch>().unwrap();
            let body = batch.message.clone().pop::<GossipBatchBody>().unwrap();
            assert_eq!(body.entries.len(), 2, "same-instant sends aggregated");
            assert_eq!(body.entries[0].0.seq, 1);
            assert_eq!(body.entries[1].0.seq, 2);
        }
    }

    #[test]
    fn batch_receivers_unbatch_dedup_and_relay() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..8).collect();
        let mut params = gossip_params(&members);
        params.insert("repair_interval_ms".into(), "0".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        let entry = |seq: u64, ttl: u32| {
            (
                GossipHeader {
                    origin: NodeId(0),
                    inc: 5,
                    seq,
                    ttl,
                },
                Message::with_payload(&b"x"[..]),
            )
        };
        let make = |entries: Vec<(GossipHeader, Message)>| {
            let mut message = Message::new();
            message.push(&GossipBatchBody { entries });
            Event::up(GossipBatch::new(NodeId(3), Dest::Node(NodeId(1)), message))
        };

        let up = gossip.run_up(make(vec![entry(1, 1), entry(2, 0)]), &mut platform);
        assert_eq!(
            up.iter().filter(|event| event.is::<DataEvent>()).count(),
            2,
            "every batched entry is delivered upward"
        );
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        assert!(
            gossip
                .drain_down()
                .iter()
                .any(|event| event.is::<GossipBatch>()),
            "the ttl-bearing entry is relayed onward as a batch"
        );

        // An identical batch is fully suppressed: no deliveries, no relays.
        let up = gossip.run_up(make(vec![entry(1, 1), entry(2, 0)]), &mut platform);
        assert!(up.iter().all(|event| !event.is::<DataEvent>()));
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        assert!(gossip
            .drain_down()
            .iter()
            .all(|event| !event.is::<GossipBatch>()));
    }

    #[test]
    fn credit_exhaustion_defers_pushes_until_a_grant_refills() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&[0, 1]), &mut platform);

        let window = CREDIT_WINDOW as usize;
        send_to_group(&mut gossip, &mut platform, window + 1);
        // Fire only the zero-delay flush (the 1000 ms repair tick stays).
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (deadline, key) in timers {
            if deadline == 0 {
                gossip.fire_timer(key, &mut platform);
            }
        }
        let down = gossip.drain_down();
        let batches: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<GossipBatch>())
            .collect();
        assert_eq!(batches.len(), window / BATCH_MAX);
        let sent: usize = batches
            .iter()
            .map(|event| {
                let batch = event.get::<GossipBatch>().unwrap();
                let body = batch.message.clone().pop::<GossipBatchBody>().unwrap();
                body.entries.len()
            })
            .sum();
        assert_eq!(
            sent, window,
            "the credit window caps what one flush may send"
        );

        // A grant digest from the peer refills the credit and re-arms the
        // flush, releasing the deferred push.
        gossip.run_up(digest_of(1, 0, 2, &[]), &mut platform);
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        assert!(!timers.is_empty(), "the grant re-arms the flush timer");
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        let down = gossip.drain_down();
        let batches: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<GossipBatch>())
            .collect();
        assert_eq!(batches.len(), 1, "the deferred push leaves after the grant");
        let body = batches[0]
            .get::<GossipBatch>()
            .unwrap()
            .message
            .clone()
            .pop::<GossipBatchBody>()
            .unwrap();
        assert_eq!(body.entries.len(), 1);
        assert_eq!(body.entries[0].0.seq, window as u64 + 1);
    }

    #[test]
    fn outbox_overflow_sheds_newest_and_stays_bounded() {
        let mut gossip = test_session(&[0, 1]);
        let header = |seq: u64| GossipHeader {
            origin: NodeId(0),
            inc: 1,
            seq,
            ttl: 2,
        };
        for seq in 1..=OUTBOX_CAP as u64 + 2 {
            gossip.outbox_enqueue(1, header(seq), Message::new().to_bytes());
        }
        let queue: Vec<u64> = gossip
            .outbox
            .iter()
            .filter(|entry| entry.peer == NodeId(1))
            .map(|entry| entry.push.0.seq)
            .collect();
        assert_eq!(
            queue.len(),
            OUTBOX_CAP,
            "the outbox never grows past its cap"
        );
        assert_eq!(queue.first(), Some(&1), "drop-newest keeps the oldest");
        assert_eq!(
            queue.last(),
            Some(&(OUTBOX_CAP as u64)),
            "the newest pushes are shed"
        );
        assert_eq!(gossip.outbox_pending, [0, OUTBOX_CAP]);
        assert_eq!(gossip.stats.outbox_shed, 2);
    }

    /// A harness around one gossip session with `extra` params on top of
    /// its `members`.
    fn batching_harness(
        platform: &mut TestPlatform,
        members: &str,
        extra: &[(&str, &str)],
    ) -> Harness {
        let mut params = LayerParams::new();
        params.insert("members".into(), members.into());
        for (key, value) in extra {
            params.insert((*key).into(), (*value).into());
        }
        Harness::new(GossipLayer, &params, platform)
    }

    /// Fires the zero-delay flush (the repair tick, if armed, stays) and
    /// returns what it sent to each peer: destination and sequence numbers,
    /// the consecutive batches to one peer joined, in dispatch order.
    fn flush(gossip: &mut Harness, platform: &mut TestPlatform) -> Vec<(NodeId, Vec<u64>)> {
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut platform.timers)
            .into_iter()
            .partition(|(deadline, _)| *deadline == 0);
        platform.timers = later;
        for (_, key) in due {
            gossip.fire_timer(key, platform);
        }
        let mut sent: Vec<(NodeId, Vec<u64>)> = Vec::new();
        for batch in gossip
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<GossipBatch>())
        {
            let Dest::Node(peer) = batch.header.dest else {
                panic!("a batch goes to one peer");
            };
            let body = batch.message.clone().pop::<GossipBatchBody>().unwrap();
            assert!(body.entries.len() <= BATCH_MAX);
            let seqs = body.entries.iter().map(|(header, _)| header.seq);
            match sent.last_mut() {
                Some((last, joined)) if *last == peer => joined.extend(seqs),
                _ => sent.push((peer, seqs.collect())),
            }
        }
        sent
    }

    fn send_to_group(gossip: &mut Harness, platform: &mut TestPlatform, count: usize) {
        for _ in 0..count {
            gossip.run_down(
                Event::down(DataEvent::to_group(
                    NodeId(0),
                    Message::with_payload(&b"m"[..]),
                )),
                platform,
            );
        }
    }

    fn stats_of(gossip: &mut Harness) -> GossipStats {
        inspect(gossip, GossipSession::stats)
    }

    fn grant(gossip: &mut Harness, platform: &mut TestPlatform, from: u32, credit: u32) {
        gossip.run_up(digest_of(from, 0, credit, &[]), platform);
    }

    /// Pushes queue in the order sampling draws their targets; the flush
    /// visits peers in the order of the `members` param, which need not be
    /// sorted, and sends each peer's pushes oldest first.
    #[test]
    fn the_flush_visits_peers_in_members_order_and_each_queue_fifo() {
        let members = [0u32, 9, 4, 7, 2, 5, 8];
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = batching_harness(
            &mut platform,
            "0,9,4,7,2,5,8",
            &[("fanout", "2"), ("repair_interval_ms", "0")],
        );
        send_to_group(&mut gossip, &mut platform, 6);
        let batches = flush(&mut gossip, &mut platform);

        let peers: Vec<u32> = batches.iter().map(|(peer, _)| peer.0).collect();
        let expected: Vec<u32> = members
            .into_iter()
            .filter(|member| peers.contains(member))
            .collect();
        assert_eq!(peers, expected, "one batch per peer, in `members` order");
        assert!(
            peers.windows(2).any(|pair| pair[0] > pair[1]),
            "the order is the param's, not node-id order: {peers:?}"
        );
        let mut pushed: Vec<u64> = Vec::new();
        for (peer, seqs) in &batches {
            assert!(
                seqs.windows(2).all(|pair| pair[0] < pair[1]),
                "{peer:?}'s pushes leave oldest first: {seqs:?}"
            );
            pushed.extend(seqs);
        }
        assert_eq!(pushed.len(), 12, "six sends at fanout 2");
    }

    /// A flush sends what the credit covers and keeps the rest queued, in
    /// order, per peer; a grant releases exactly the granting peer's queue.
    #[test]
    fn a_credit_limited_flush_keeps_each_remainder_in_order() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = batching_harness(&mut platform, "0,2,1", &[("fanout", "2")]);
        let window = u64::from(CREDIT_WINDOW);
        send_to_group(&mut gossip, &mut platform, window as usize + 3);
        let first: Vec<u64> = (1..=window).collect();
        assert_eq!(
            flush(&mut gossip, &mut platform),
            [(NodeId(2), first.clone()), (NodeId(1), first)]
        );
        assert_eq!(stats_of(&mut gossip).deferred_pushes, 6);

        grant(&mut gossip, &mut platform, 1, 2);
        assert_eq!(
            flush(&mut gossip, &mut platform),
            [(NodeId(1), vec![window + 1, window + 2])]
        );
        grant(&mut gossip, &mut platform, 1, 2);
        assert_eq!(
            flush(&mut gossip, &mut platform),
            [(NodeId(1), vec![window + 3])]
        );
        grant(&mut gossip, &mut platform, 2, 8);
        assert_eq!(
            flush(&mut gossip, &mut platform),
            [(NodeId(2), vec![window + 1, window + 2, window + 3])]
        );
        // Peer 2 waited out three flushes with three pushes queued, peer 1
        // one flush with one left over.
        assert_eq!(stats_of(&mut gossip).deferred_pushes, 6 + 1 + 3 + 3);
        assert!(flush(&mut gossip, &mut platform).is_empty());
    }

    /// A duplicate arrival drops the message's queued relays to every peer,
    /// and only that message's.
    #[test]
    fn a_duplicate_arrival_suppresses_the_queued_relays_to_every_peer() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut gossip = batching_harness(
            &mut platform,
            "0,1,2,3,4,5",
            &[("fanout", "3"), ("repair_interval_ms", "0")],
        );
        let batch = |from: u32, seqs: &[u64]| {
            let entries = seqs
                .iter()
                .map(|&seq| {
                    let header = GossipHeader {
                        origin: NodeId(0),
                        inc: 5,
                        seq,
                        ttl: 2,
                    };
                    (header, Message::with_payload(&b"x"[..]))
                })
                .collect();
            let mut message = Message::new();
            message.push(&GossipBatchBody { entries });
            Event::up(GossipBatch::new(
                NodeId(from),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
        let up = gossip.run_up(batch(3, &[1, 2]), &mut platform);
        assert_eq!(up.len(), 2, "both entries delivered");
        // Relays of both to 2, 4 and 5 are queued; then seq 1 comes again.
        let up = gossip.run_up(batch(4, &[1]), &mut platform);
        assert!(up.is_empty(), "the duplicate is not delivered");
        assert_eq!(
            flush(&mut gossip, &mut platform),
            [
                (NodeId(2), vec![2]),
                (NodeId(4), vec![2]),
                (NodeId(5), vec![2])
            ]
        );
    }

    /// A view install drops the pushes queued for an expelled peer and
    /// flushes the survivors' in the new view's order.
    #[test]
    fn a_view_install_prunes_pushes_queued_for_expelled_peers() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = batching_harness(
            &mut platform,
            "3,0,2,1",
            &[("fanout", "3"), ("repair_interval_ms", "0")],
        );
        send_to_group(&mut gossip, &mut platform, 2);
        let view = crate::view::View::new(2, vec![NodeId(0), NodeId(1), NodeId(3)]);
        gossip.run_up(Event::up(ViewInstall { view }), &mut platform);
        assert_eq!(
            flush(&mut gossip, &mut platform),
            [(NodeId(1), vec![1, 2]), (NodeId(3), vec![1, 2])]
        );
    }

    /// Batch decoding is all or nothing, and the decoded entries — slices
    /// of the packet — never stay in the session: the scratch they decode
    /// into is empty again once the batch is handled, delivered or not.
    #[test]
    fn a_truncated_batch_delivers_nothing_and_leaves_no_decoded_message() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut gossip = batching_harness(&mut platform, "0,1,2,3", &[("repair_interval_ms", "0")]);
        let entries: Vec<(GossipHeader, Message)> = (1..=3u64)
            .map(|seq| {
                let header = GossipHeader {
                    origin: NodeId(0),
                    inc: 5,
                    seq,
                    ttl: 1,
                };
                (header, Message::with_payload(&b"payload"[..]))
            })
            .collect();
        let body = GossipBatchBody { entries }.to_bytes();
        let scratch_of = |gossip: &mut Harness| {
            let session = gossip
                .kernel_mut()
                .channel_by_name("harness")
                .unwrap()
                .session_of(GOSSIP_LAYER)
                .unwrap();
            let session = session.borrow();
            let gossip = session
                .as_any()
                .and_then(|any| any.downcast_ref::<GossipSession>())
                .unwrap();
            (gossip.batch_entries.len(), gossip.batch_entries.capacity())
        };
        let arrive = |gossip: &mut Harness, platform: &mut TestPlatform, header: Bytes| {
            let mut message = Message::new();
            message.push_header(header);
            gossip.run_up(
                Event::up(GossipBatch::new(NodeId(2), Dest::Node(NodeId(1)), message)),
                platform,
            )
        };

        let truncated = body.slice(..body.len() - 1);
        assert!(arrive(&mut gossip, &mut platform, truncated).is_empty());
        assert_eq!(scratch_of(&mut gossip).0, 0, "nothing decoded is kept");
        let mut trailing = body.to_vec();
        trailing.push(0);
        assert!(arrive(&mut gossip, &mut platform, trailing.into()).is_empty());
        assert_eq!(scratch_of(&mut gossip).0, 0);
        assert_eq!(stats_of(&mut gossip).forwarded, 0, "no entry was relayed");

        let up = arrive(&mut gossip, &mut platform, body);
        assert_eq!(up.len(), 3, "the intact batch delivers every entry");
        let (len, capacity) = scratch_of(&mut gossip);
        assert_eq!(len, 0, "drained before the handler returned");
        assert!(capacity >= 3, "the scratch keeps its memory");
    }

    #[test]
    fn pulls_below_the_log_floor_are_answered_with_a_repair_floor() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // Deliver seqs 1..=6 of (origin 0, inc 1), then age them out of the
        // repair log: delivered knowledge survives, servability does not.
        let deliver = |seq: u64| push_of(0, 1, seq, 0);
        for seq in 1..=6u64 {
            gossip.run_up(deliver(seq), &mut platform);
        }
        platform.advance(REPAIR_LOG_TTL_MS);
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        gossip.run_up(deliver(7), &mut platform);
        gossip.drain_down();

        // A pull for the evicted span gets a floor answer; the still-logged
        // seq is served normally alongside it.
        gossip.run_up(pull_of(2, 1, (0, 1), vec![1, 2, 7]), &mut platform);
        let down = gossip.drain_down();
        let floors: Vec<RepairFloorBody> = down
            .iter()
            .filter_map(|event| {
                event
                    .get::<GossipRepairFloor>()
                    .map(|floor| floor.message.clone().pop::<RepairFloorBody>().unwrap())
            })
            .collect();
        assert_eq!(floors.len(), 1, "one floor answer per floored stream");
        assert_eq!(floors[0].origin, NodeId(0));
        assert_eq!(floors[0].inc, 1);
        assert_eq!(floors[0].floor, 7, "the log's floor is reported");
        assert_eq!(
            down.iter()
                .filter(|event| event.is::<GossipRepairPush>())
                .count(),
            1,
            "the still-servable want is pushed normally"
        );
    }

    #[test]
    fn a_repair_floor_fast_forwards_and_escalates_to_catchup() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // Seqs 1..=2 of (origin 0, inc 1) were delivered before the
        // partition; 3..=6 are gone from every reachable repair log.
        gossip.run_up(push_of(0, 1, 1, 0), &mut platform);
        gossip.run_up(push_of(0, 1, 2, 0), &mut platform);
        gossip.drain_down();

        let floor_answer = || {
            let mut message = Message::new();
            message.push(&RepairFloorBody {
                origin: NodeId(0),
                inc: 1,
                floor: 7,
            });
            Event::up(GossipRepairFloor::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
        let up = gossip.run_up(floor_answer(), &mut platform);
        let catchups: Vec<&Event> = up
            .iter()
            .filter(|event| event.is::<CatchupRequest>())
            .collect();
        assert_eq!(catchups.len(), 1, "the floor escalates to a catch-up");
        assert_eq!(
            catchups[0].get::<CatchupRequest>().unwrap().donor,
            NodeId(2),
            "the floor's sender becomes the snapshot donor"
        );

        // The abandoned span stops being pulled: a digest advertising it
        // finds nothing missing below the floor...
        let digest = |lo: u64, hi: u64| digest_of(3, 1, 0, &[(1, lo, hi)]);
        gossip.run_up(digest(1, 6), &mut platform);
        assert_eq!(
            sent_down::<GossipRepairPull>(&mut gossip),
            0,
            "the fast-forwarded span is never pulled again"
        );
        // ...while newer seqs above the floor still repair normally.
        gossip.run_up(digest(1, 8), &mut platform);
        let down = gossip.drain_down();
        let pulls: Vec<RepairPull> = down
            .iter()
            .filter_map(|event| {
                event
                    .get::<GossipRepairPull>()
                    .map(|pull| pull.message.clone().pop::<RepairPull>().unwrap())
            })
            .collect();
        assert_eq!(pulls.len(), 1);
        assert_eq!(pulls[0].wants, vec![(NodeId(0), 1, vec![7, 8])]);

        // A duplicate floor answer does not re-escalate.
        let up = gossip.run_up(floor_answer(), &mut platform);
        assert!(up.iter().all(|event| !event.is::<CatchupRequest>()));
    }

    #[test]
    fn a_digest_advertising_an_evicted_span_escalates_without_a_pull_round_trip() {
        // A member that was cut off for longer than the repair-log TTL sees,
        // on reconnection, digests whose `lo` sits above its own delivery
        // floor. Pulling below `lo` is futile by construction — but a
        // single sighting may be transient (another peer's later-arrival
        // retention can still serve the span), so the breach must persist
        // for a full repair-log TTL before the digest becomes the floor
        // answer and escalates to a snapshot catch-up.
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // Seqs 1..=2 delivered before the cut; the advertiser's log now
        // starts at 9.
        let deliver = |seq: u64| push_of(0, 1, seq, 0);
        gossip.run_up(deliver(1), &mut platform);
        gossip.run_up(deliver(2), &mut platform);
        gossip.drain_down();

        let digest = |lo: u64, hi: u64| digest_of(2, 1, 0, &[(1, lo, hi)]);
        // First sighting: the breach is recorded but nothing escalates —
        // the advertised span is still pulled normally.
        let up = gossip.run_up(digest(9, 10), &mut platform);
        assert!(
            up.iter().all(|event| !event.is::<CatchupRequest>()),
            "a fresh breach must not escalate immediately"
        );
        let pulls: Vec<RepairPull> = gossip
            .drain_down()
            .iter()
            .filter_map(|event| {
                event
                    .get::<GossipRepairPull>()
                    .map(|pull| pull.message.clone().pop::<RepairPull>().unwrap())
            })
            .collect();
        assert_eq!(pulls.len(), 1);
        assert_eq!(pulls[0].wants, vec![(NodeId(0), 1, vec![9, 10])]);

        // The breach survives two full repair-log TTLs with the gap still
        // open: the next repair tick escalates it — even though no further
        // digest for the stream ever arrives (its logs may have drained
        // group-wide by then).
        platform.advance(REPAIR_LOG_TTL_MS * 2);
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        let up = gossip.drain_up();
        let catchups: Vec<&Event> = up
            .iter()
            .filter(|event| event.is::<CatchupRequest>())
            .collect();
        assert_eq!(catchups.len(), 1, "the aged breach triggers the catch-up");
        assert_eq!(
            catchups[0].get::<CatchupRequest>().unwrap().donor,
            NodeId(2),
            "the digest's sender becomes the snapshot donor"
        );

        // A repeat of the same digest does not re-escalate: the span was
        // fast-forwarded past.
        let up = gossip.run_up(digest(9, 10), &mut platform);
        assert!(up.iter().all(|event| !event.is::<CatchupRequest>()));

        // A digest whose span starts at the delivery floor (nothing evicted
        // from this node's point of view) never escalates.
        let up = gossip.run_up(digest(1, 12), &mut platform);
        assert!(up.iter().all(|event| !event.is::<CatchupRequest>()));
    }

    #[test]
    fn repair_push_responses_are_rate_limited_per_interval() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // More logged messages of (origin 0, inc 1) than one interval may
        // serve.
        let window = REPAIR_WINDOW as u64;
        let deliver = |seq: u64| push_of(0, 1, seq, 0);
        for seq in 1..=4 * window + 2 {
            gossip.run_up(deliver(seq), &mut platform);
        }
        gossip.drain_down();

        let pull = |seqs: Vec<u64>| pull_of(2, 1, (0, 1), seqs);
        let pushes = sent_down::<GossipRepairPush>;

        // Per-pull budget: 2 × window of the 2 × window + 2 asked-for seqs.
        let per_pull = 2 * REPAIR_WINDOW;
        gossip.run_up(pull((1..=2 * window + 2).collect()), &mut platform);
        assert_eq!(
            pushes(&mut gossip),
            per_pull,
            "per-pull budget of 2x window"
        );
        // The interval cap (4 × window) lets one more full pull through...
        gossip.run_up(pull((2 * window + 1..=4 * window).collect()), &mut platform);
        assert_eq!(pushes(&mut gossip), per_pull);
        // ...then cuts every further response until the next repair tick.
        let rest = vec![4 * window + 1, 4 * window + 2];
        gossip.run_up(pull(rest.clone()), &mut platform);
        assert_eq!(
            pushes(&mut gossip),
            0,
            "a greedy puller cannot amplify the responder's send rate"
        );

        platform.advance(1_000);
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        gossip.drain_down();
        gossip.run_up(pull(rest), &mut platform);
        assert_eq!(pushes(&mut gossip), 2, "the tick resets the push budget");
    }

    /// Every push leaves in a [`GossipBatch`]. A [`DataEvent`] carrying a
    /// pushed message's header is not one this layer sends: it is dropped,
    /// neither delivered nor relayed. A point-to-point send (`seq` 0) is
    /// still delivered.
    #[test]
    fn an_unbatched_push_from_the_wire_is_dropped() {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        kernel
            .create_channel(&gossip_config(&members, 3, 3), &mut platform)
            .unwrap();
        let packet = |seq: u64| {
            let mut message = Message::with_payload(&b"x"[..]);
            message.push(&GossipHeader {
                origin: NodeId(0),
                inc: 5,
                seq,
                ttl: 3,
            });
            let data = DataEvent::new(NodeId(0), Dest::Node(NodeId(1)), message);
            InPacket {
                from: NodeId(0),
                to: NodeId(1),
                class: morpheus_appia::PacketClass::Data,
                channel: "data".into(),
                payload: morpheus_appia::registry::encode_event(&data),
            }
        };

        kernel.deliver_packet(packet(1), &mut platform).unwrap();
        fire_due(&mut kernel, &mut platform);
        assert_eq!(
            platform.data_delivery_count(),
            0,
            "the push is not delivered"
        );
        assert!(platform.take_sent().is_empty(), "nor relayed");

        kernel.deliver_packet(packet(0), &mut platform).unwrap();
        assert_eq!(
            platform.data_delivery_count(),
            1,
            "a point-to-point send is"
        );
    }
}
