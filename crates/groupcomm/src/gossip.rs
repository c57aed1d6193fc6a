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
//!    interval); the peer answers with the logged originals, cut into
//!    batches by the push path's byte rule ([`GossipRepairPush`]), so a
//!    pull is answered in a few packets, not one a message. Coverage
//!    converges to 100% shortly after the push phase tops out, without
//!    ever re-delivering. A gap that peers' digests keep advertising above
//!    this member's delivery floor for two log TTLs is beyond repair: the
//!    stream is fast-forwarded past it and the recovery layer above
//!    fetches a snapshot ([`CatchupRequest`]).
//!
//! Every push, an own send and a relay alike, leaves through a per-peer
//! outbox as an aggregated [`GossipBatch`] on the instant's zero-delay
//! flush. The pushes of one simulated instant share their peers, as in round-based gossip (Eugster et al.,
//! "Lightweight Probabilistic Broadcast"): the instant's first push draws
//! `fanout + 2` members, and each push goes to the first `fanout` of them
//! that are neither its message's origin nor the peer it arrived from. So
//! what a node pushes in one instant fills a few batches instead of
//! scattering one message a packet over the group.
//!
//! Both phases check duplicates in one place: the per-stream delivery
//! tracker ([`Delivered`]), a contiguous floor plus the few sequence
//! numbers above it, held as bits of a window that moves with the floor.
//! Its memory grows with the streams a member hears, not with the
//! messages, and it never forgets a delivery.

use bytes::Bytes;
use morpheus_appia::event::{Dest, Direction, Event, EventPayload, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::hash::HashMap;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;
use morpheus_appia::wire::{encode_pooled, Scratch, Wire, WireWriter};
use serde::{Deserialize, Serialize};

use crate::events::{
    CatchupRequest, GossipBatch, GossipRepairDigest, GossipRepairPull, GossipRepairPush,
    ViewInstall,
};
use crate::headers::{
    GossipBatchBody, GossipHeader, PullWants, RepairDigest, RepairPull, RepairRange,
};
use crate::repair::{Delivered, RepairLog, StreamKey};
use crate::sample::{shuffle_slots, slot_of, slot_table, Sampler};

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
pub(crate) const REPAIR_LOG_CAP: usize = 4_096;

/// Age after which a logged message is no longer served.
const REPAIR_LOG_TTL_MS: u64 = 10_000;

/// Cap on message identifiers NACK-pulled per repair interval.
const REPAIR_WINDOW: usize = 64;

/// Digest senders pulled from per repair interval (one redundant pull,
/// mirroring the context anti-entropy budget, so a single lost push batch
/// does not cost a whole extra interval).
const REPAIR_PULL_BUDGET: usize = 2;

/// Bytes of entries (gossip header and message frame each) one
/// [`GossipBatch`] packet carries: one Ethernet MTU of UDP payload, 1,472 B,
/// less the packet's frame. A peer's pushes fill a batch until the next
/// entry would cross it; an entry larger than the cap leaves alone.
const BATCH_BYTES: usize = 1_456;

/// Per-peer cap on the pushes one instant may queue. Beyond it the newest
/// pushes are shed — they are already in the repair log, so the
/// digest-announce + pull path recovers them.
const OUTBOX_CAP: usize = 512;

/// The push TTL a group of `group_size` members gets at the given fan-out:
/// the number of forwarding rounds after which `fanout^rounds >= n`, plus
/// one slack round for the push targets lost to duplication. Floored at 4
/// (small groups keep the historical default) and capped at 12 (the repair
/// pass closes whatever tail remains — deeper flooding only buys
/// duplicates).
///
/// This is the per-size tuning of van Renesse et al.: every session derives
/// it from its installed view instead of one constant serving every scale.
/// The origin stamps it in each [`GossipHeader`], so members that briefly
/// derive different values still relay each other's pushes correctly.
pub fn derived_gossip_ttl(group_size: usize, fanout: usize) -> u32 {
    let fanout = fanout.max(2);
    let mut rounds: u32 = 0;
    let mut covered: usize = 1;
    while covered < group_size {
        covered = covered.saturating_mul(fanout);
        rounds += 1;
    }
    (rounds + 1).clamp(4, 12)
}

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

/// How many of `run`'s leading entries go into one batch: as many as fit
/// [`BATCH_BYTES`], and never fewer than one. `entry` reads an element's
/// header and frame, the bytes it takes in a batch.
fn batch_len<T>(run: &[T], entry: impl Fn(&T) -> &(GossipHeader, Bytes)) -> usize {
    let mut bytes = 0;
    let over = run.iter().position(|element| {
        let (header, frame) = entry(element);
        bytes += header.encoded_len() + frame.len();
        bytes > BATCH_BYTES
    });
    over.unwrap_or(run.len()).max(1)
}

/// Sends `run` to `peer` cut into batches by [`batch_len`], in order, each
/// a `packet` event carrying its [`GossipBatchBody`]: a push run and a
/// pull's answer leave by the same byte rule.
fn send_batches<T, E: EventPayload>(
    run: &[T],
    entry: impl Fn(&T) -> &(GossipHeader, Bytes),
    packet: fn(NodeId, Dest, Message) -> E,
    peer: NodeId,
    ctx: &mut EventContext<'_>,
) {
    let local = ctx.node_id();
    let mut rest = run;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(batch_len(rest, &entry));
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| {
            GossipBatchBody::encode_frames(chunk.iter().map(&entry), w)
        }));
        ctx.dispatch(Event::down(packet(local, Dest::Node(peer), message)));
        rest = tail;
    }
}

/// Counters of one gossip session, exposed to the node runtime (and from
/// there to testbed reports) via the session downcast hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Pushes a flush left queued. Always 0: every flush sends the whole
    /// outbox. The field stays for the reports that read it.
    pub deferred_pushes: u64,
    /// Pushes shed from a full per-peer outbox (drop-newest; the shed
    /// messages stay recoverable through the repair log).
    pub outbox_shed: u64,
    /// Retention fall-throughs: digest breaches that outlived two repair-log
    /// TTLs, fast-forwarded their stream past the un-servable span and
    /// escalated to a snapshot catch-up.
    pub floor_escalations: u64,
    /// Repair-pull answers cut short by the per-interval push rate limit.
    pub rate_limited_pushes: u64,
}

/// The epidemic multicast layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial membership;
/// * `fanout` — number of random targets per push (default 3), picked
///   from a draw of `fanout + 2` members shared by every push of one
///   simulated instant;
/// * `repair_interval_ms` — cadence of the repair digest gossip (default
///   1000 ms; `0` disables the repair pass, and with it the repair log and
///   the catch-up escalation).
///
/// The push TTL — the forwarding rounds a message survives — is no
/// parameter: the session derives it from its view and fan-out
/// ([`derived_gossip_ttl`]) at creation and on every view install. The
/// repair log's bounds, the pull and push budgets, the outbox cap and the
/// batch size are constants of this module.
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
            EventSpec::of::<GossipBatch>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec![
            "DataEvent",
            "GossipRepairDigest",
            "GossipRepairPull",
            "GossipRepairPush",
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
    /// The TTL own sends are stamped with: [`derived_gossip_ttl`] of the
    /// installed view, refreshed on every view install.
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
    // bound: <= TRACKED_INCS_PER_ORIGIN streams per origin (stale incarnations evicted); each entry is a contiguous floor plus a bit window and a sparse set, DELIVERED_GAP_CAP-capped together.
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
    /// `REPAIR_LOG_TTL_MS` (age). Held in wire form ([`Wire::encode`]), as
    /// frames of `frames`, never slices of the packet they arrived in — the
    /// log keeps entries for seconds, and a slice would pin the sender's
    /// whole packet buffer for as long.
    // bound: `REPAIR_LOG_CAP` ring + `REPAIR_LOG_TTL_MS` age, enforced inside `RepairLog`.
    log: RepairLog<Bytes>,
    /// The writer the frames the log and the outbox share are encoded into,
    /// one after the other in chunks of this session's own: a message
    /// costs no allocation of its own, and the chunks hold frames of this
    /// session only, so they go with the log.
    // bound: the bytes of the frames the log and the outbox hold, plus two `bytes::PINNED_CHUNK`s (the current chunk and its spare); log eviction is FIFO, so a chunk is freed at most `REPAIR_LOG_TTL_MS` after its last frame was written.
    frames: WireWriter,
    /// The origin at which the last pull ran out of `REPAIR_WINDOW`: the
    /// next digest's pull starts there.
    pull_resume: NodeId,
    pulls_this_interval: usize,
    pushes_this_interval: usize,
    repair_timer: Option<u64>,
    /// The instant's pushes to every peer in one list, sent as aggregated
    /// batches by the zero-delay flush timer. Wire-form messages, like the
    /// log, whose frames they share. The list keeps its capacity across
    /// flushes, so queueing a push allocates nothing.
    // bound: <= `OUTBOX_CAP` entries per member (drop-newest, counted in `outbox_shed`); emptied by every flush, expelled peers' entries pruned on view install.
    outbox: Vec<OutboxEntry>,
    /// Entries waiting in `outbox` per peer, indexed by the peer's slot.
    // bound: one counter per position in `members`; resized on every view install.
    outbox_pending: Vec<usize>,
    /// Arrival stamp of the next outbox entry.
    outbox_arrivals: u64,
    flush_timer: Option<u64>,
    /// Scratch for the slots of one push's targets (picked from `window`)
    /// and of the repair tick's digest targets.
    // bound: <= `fanout`; overwritten by every sample.
    push_targets: Vec<u32>,
    /// The slots of the `fanout + 2` peers every push of one instant picks
    /// its targets from, so that instant's pushes share their peers and
    /// fill their batches; the `+ 2` covers a relay's origin and sender.
    // bound: <= `fanout + 2`; redrawn at every new instant, cleared on every view install.
    window: Vec<u32>,
    /// The instant `window` was drawn at: `None` until the first push and
    /// after a view install.
    window_ms: Option<u64>,
    /// Scratch of the peer draw, which builds no pool of members.
    // bound: scratch lists of <= 2 x `fanout` entries, or <= view size for a member list with repeats; cleared by every draw (see `Sampler`).
    sampler: Sampler,
    /// Scratch the rows of a received repair digest decode into.
    // bound: capacity <= the largest digest received (`get_count` caps a count at packet bytes / 4); overwritten by every digest.
    digest_rows: Vec<RepairRange>,
    /// Scratch the wants of a pull are built in (from a received digest)
    /// or decoded into (from a received pull), and encoded or served from.
    // bound: <= `REPAIR_WINDOW` wants when built; capacity <= the largest pull received (`get_count` caps every count at packet bytes) when decoded; overwritten by every pull.
    pull_wants: PullWants,
    /// Scratch the entries of a received batch decode into. The messages
    /// are slices of the packet, so it is drained before the batch handler
    /// returns: no decoded message outlives the event that carried it.
    // bound: capacity <= the largest batch received (`get_count` caps a count at packet bytes / 6); empty between events.
    batch_entries: Vec<(GossipHeader, Message)>,
    /// Scratch a pull's answers are gathered in, logged frames under their
    /// headers, before they are cut into batches. The frames are the log's,
    /// so it is emptied before the pull handler returns.
    // bound: <= 2 x `REPAIR_WINDOW` entries (the per-pull budget); cleared by every pull, empty between events.
    repair_answers: Vec<(GossipHeader, Bytes)>,
    stats: GossipStats,
}

impl GossipSession {
    /// Builds a session from layer parameters — the single construction
    /// site shared by [`GossipLayer::create_session`] and the unit tests.
    fn from_params(params: &LayerParams) -> Self {
        let members = param_node_list(params, "members");
        let mut member_slots = Vec::new();
        slot_table(&members, &mut member_slots);
        let fanout = param_or(params, "fanout", 3usize).max(1);
        Self {
            member_slots,
            outbox_pending: vec![0; members.len()],
            ttl: derived_gossip_ttl(members.len(), fanout),
            members,
            fanout,
            repair_interval_ms: param_or(params, "repair_interval_ms", DEFAULT_REPAIR_INTERVAL_MS),
            inc: 0,
            inc_ready: false,
            next_seq: 0,
            delivered: HashMap::default(),
            floor_breaches: HashMap::default(),
            log: RepairLog::new(),
            frames: WireWriter::new(),
            pull_resume: NodeId(0),
            pulls_this_interval: 0,
            pushes_this_interval: 0,
            repair_timer: None,
            outbox: Vec::new(),
            outbox_arrivals: 0,
            flush_timer: None,
            push_targets: Vec::new(),
            window: Vec::new(),
            window_ms: None,
            sampler: Sampler::default(),
            digest_rows: Vec::new(),
            pull_wants: PullWants::default(),
            batch_entries: Vec::new(),
            repair_answers: Vec::new(),
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
    /// one. Trackers are opened only on a delivery — never on a digest,
    /// whose contents must not fabricate (or displace) delivery records.
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

    /// `message` in wire form, as the next frame of `frames`: what the log
    /// and the outbox hold of a message.
    fn frame_of(&mut self, message: &Message) -> Bytes {
        self.frames.reserve(message.encoded_len());
        message.encode(&mut self.frames);
        self.frames.split_frame()
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
    /// `push_targets` scratch: the repair tick's digest targets, drawn
    /// afresh on every tick.
    fn draw_push_targets(&mut self, exclude: &[NodeId], ctx: &mut EventContext<'_>) {
        let rng = &mut || ctx.random_u64();
        let (members, slots) = (&self.members, &self.member_slots);
        let targets = &mut self.push_targets;
        self.sampler
            .draw_slots_into(members, slots, exclude, self.fanout, rng, targets);
    }

    /// Picks the targets of one push into `push_targets`: the first
    /// `fanout` peers of this instant's window not in `skip` (a relay skips
    /// its message's origin and the peer it arrived from). The first push
    /// of an instant draws the window, `fanout + 2` members other than this
    /// node.
    fn draw_window_targets(&mut self, skip: &[NodeId], ctx: &mut EventContext<'_>) {
        let now = ctx.now_ms();
        if self.window_ms != Some(now) {
            let (local, limit) = ([ctx.node_id()], self.fanout + 2);
            let rng = &mut || ctx.random_u64();
            let (members, slots) = (&self.members, &self.member_slots);
            self.sampler
                .draw_slots_into(members, slots, &local, limit, rng, &mut self.window);
            // A draw from no more members than its limit returns them all in
            // member order: shuffled, a group of a few more than `fanout`
            // members does not favour its first ones.
            if self.window.len() > self.fanout && slots.len() <= limit + 1 {
                shuffle_slots(&mut self.window, rng);
            }
            self.window_ms = Some(now);
        }
        let members = &self.members;
        let kept = self.window.iter().filter(|slot| {
            members
                .get(**slot as usize)
                .is_some_and(|member| !skip.contains(member))
        });
        self.push_targets.clear();
        self.push_targets.extend(kept.take(self.fanout));
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
    /// it as part of an aggregated batch.
    fn push_to_drawn(&mut self, header: GossipHeader, frame: &Bytes, ctx: &mut EventContext<'_>) {
        let targets = std::mem::take(&mut self.push_targets);
        for target in &targets {
            if self.outbox_enqueue(*target, header, frame.clone()) {
                self.arm_flush_timer(ctx);
            }
        }
        self.push_targets = targets;
    }

    /// Sends the whole outbox as aggregated [`GossipBatch`] packets, each
    /// peer's run cut into batches of at most [`BATCH_BYTES`] of entries.
    fn flush_outbox(&mut self, ctx: &mut EventContext<'_>) {
        // Deterministic peer order — the members list, never hash order —
        // and each peer's queue FIFO. An unstable sort allocates nothing,
        // and the arrival stamps make the order total.
        self.outbox
            .sort_unstable_by_key(|entry| (entry.slot, entry.arrival));
        for queue in self.outbox.chunk_by(|a, b| a.slot == b.slot) {
            let peer = queue[0].peer;
            send_batches(queue, |entry| &entry.push, GossipBatch::new, peer, ctx);
        }
        self.outbox.clear();
        self.outbox_pending.fill(0);
    }

    /// A [`RepairDigest`] of the spans the repair log can currently serve,
    /// in `(origin, inc)` order, encoded straight from the log.
    fn digest_message(&mut self) -> Message {
        let rows = self.log.rows().map(|((origin, inc), lo, hi)| RepairRange {
            origin,
            inc,
            lo,
            hi,
        });
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| RepairDigest::encode_rows(rows, w)));
        message
    }

    /// One aggregated batch arrived, of pushes or of a pull's answers: run
    /// every entry through `arrival`. The entries are decoded into the
    /// session's scratch, and drained from it here: they are slices of the
    /// packet and must not outlive it.
    fn on_batch(
        &mut self,
        batch: &Bytes,
        ctx: &mut EventContext<'_>,
        mut arrival: impl FnMut(&mut Self, GossipHeader, Message, &mut EventContext<'_>),
    ) {
        let mut entries = std::mem::take(&mut self.batch_entries);
        // All or nothing: a malformed batch delivers none of its entries.
        if GossipBatchBody::decode_into(batch, &mut entries).is_ok() {
            for (header, message) in entries.drain(..) {
                arrival(self, header, message, ctx);
            }
        }
        self.batch_entries = entries;
    }

    /// A duplicate arrival is evidence the message is already circulating
    /// widely: any copy of it still waiting in the outbox for the
    /// zero-delay flush is redundant — drop it before it costs a
    /// transmission and a duplicate at the receiver.
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
        // The log, and a relay waiting in the outbox, outlive the packet
        // this message is a slice of: one private copy in wire form serves
        // them all.
        let frame = self.frame_of(&message);
        let key = (header.origin, header.inc);
        self.log_store(key, header.seq, frame.clone(), ctx.now_ms());
        if header.ttl > 0 {
            // The sender plainly has the message too — relaying back to it
            // is a guaranteed duplicate, so it is skipped with the origin.
            self.draw_window_targets(&[header.origin, from], ctx);
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

    /// The periodic repair tick: evict the log, escalate aged breaches,
    /// gossip a digest of what the log can serve, reset the per-interval
    /// pull and push budgets.
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
                let message = self.digest_message();
                ctx.dispatch(Event::down(GossipRepairDigest::new(
                    local,
                    Dest::Nodes(targets),
                    message,
                )));
            }
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
            self.escalate(key, lo, donor, ctx);
        }
    }

    /// A breach of `key` below `floor` aged out with its gap still open: the
    /// missed span is gone from NACK-repair reach. Abandon it in the
    /// delivery tracker (late copies must not re-deliver, pulls must stop
    /// asking) and ask the recovery layer above for a targeted state-section
    /// pull against `donor` — snapshot catch-up without a view change.
    fn escalate(&mut self, key: StreamKey, floor: u64, donor: NodeId, ctx: &mut EventContext<'_>) {
        if slot_of(&self.member_slots, donor).is_none() {
            return;
        }
        // Query only, like the digest that sighted the breach: a stream
        // with no delivery record has nothing to fast-forward.
        let Some(tracker) = self.delivered.get_mut(&key) else {
            return;
        };
        if tracker.floor + 1 >= floor {
            // The gap closed while the breach aged: no escalation.
            return;
        }
        tracker.fast_forward(floor - 1);
        self.stats.floor_escalations += 1;
        ctx.dispatch(Event::up(CatchupRequest { donor }));
    }

    /// A peer's digest arrived: NACK-pull the gaps it can serve, within the
    /// per-interval budget.
    fn on_repair_digest(&mut self, from: NodeId, rows: &[RepairRange], ctx: &mut EventContext<'_>) {
        if !self.repair_enabled() {
            return;
        }
        // A digest from outside the installed view (an expelled member, a
        // stale incarnation) gets no pull: answering would re-open a repair
        // conversation with a peer the view agreement removed.
        if slot_of(&self.member_slots, from).is_none() {
            return;
        }
        if self.pulls_this_interval >= REPAIR_PULL_BUDGET {
            return;
        }
        let local = ctx.node_id();
        let mut wants = std::mem::take(&mut self.pull_wants);
        wants.clear();
        // Digest rows come in origin order. Each pull starts where the last
        // one ran out of window, so under a backlog every origin gets its
        // turn, not only the lowest ones.
        let (before, after) = rows.split_at(rows.partition_point(|e| e.origin < self.pull_resume));
        for entry in after.iter().chain(before) {
            if wants.len() >= REPAIR_WINDOW {
                self.pull_resume = entry.origin;
                break;
            }
            if entry.origin == local || entry.lo > entry.hi {
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
            let seqs = wants.seqs_mut();
            match tracker {
                Some(tracker) => tracker.missing_in(entry.lo, entry.hi, REPAIR_WINDOW, seqs),
                None => {
                    let room = REPAIR_WINDOW - seqs.len();
                    seqs.extend((entry.lo..=entry.hi).take(room));
                }
            }
            wants.end_stream(entry.origin, entry.inc);
        }
        if !wants.is_empty() {
            self.pulls_this_interval += 1;
            self.stats.repair_pulls += 1;
            self.stats.repair_pulled_seqs += wants.len() as u64;
            let mut message = Message::new();
            message.push_header(encode_pooled(|w| {
                RepairPull::encode_wants(wants.streams(), w)
            }));
            ctx.dispatch(Event::down(GossipRepairPull::new(
                local,
                Dest::Node(from),
                message,
            )));
        }
        self.pull_wants = wants;
    }

    /// A peer pulls gaps: serve them from the repair log, in the pull's
    /// order, as batches of logged frames under `ttl` 0 headers. A want the
    /// log no longer holds gets no answer; the puller's digest-side breach
    /// rule escalates a gap that no peer can serve.
    fn on_repair_pull(&mut self, from: NodeId, wants: &PullWants, ctx: &mut EventContext<'_>) {
        // Serve log entries only to current view members — an expelled peer
        // re-syncs through the recovery layer's state transfer, not through
        // the repair path.
        if slot_of(&self.member_slots, from).is_none() {
            return;
        }
        // A malformed or adversarial pull cannot make the node stream more
        // than twice the advertised window per pull…
        let mut budget = REPAIR_WINDOW * 2;
        // …nor more than four windows per repair interval across all pulls
        // (a greedy or corrupt puller cannot amplify this node's send rate).
        let interval_cap = REPAIR_WINDOW * 4;
        let mut answers = std::mem::take(&mut self.repair_answers);
        'wants: for (origin, inc, seqs) in wants.streams() {
            if self.log.lowest(&(origin, inc)).is_none() {
                continue;
            }
            // A stream's wants come in ascending order (`missing_in` builds
            // them so), and the reader walks its chain once, forward only:
            // a forged pull's want below an earlier one may go unanswered.
            let mut logged = self.log.reader(&(origin, inc));
            for &seq in seqs {
                if budget == 0 {
                    break 'wants;
                }
                if self.pushes_this_interval >= interval_cap {
                    self.stats.rate_limited_pushes += 1;
                    break 'wants;
                }
                // The log wrote the frame itself; it always reads back. A
                // frame that did not would spoil its whole batch.
                let readable = |frame: &&Bytes| Message::from_shared(frame).is_ok();
                let Some(frame) = logged.get(seq).filter(readable) else {
                    continue;
                };
                budget -= 1;
                self.pushes_this_interval += 1;
                self.stats.repair_pushes += 1;
                let header = GossipHeader {
                    origin,
                    inc,
                    seq,
                    ttl: 0,
                };
                answers.push((header, frame.clone()));
            }
        }
        send_batches(&answers, |answer| answer, GossipRepairPush::new, from, ctx);
        // The frames are the log's: a kept one would pin its chunk.
        answers.clear();
        self.repair_answers = answers;
    }

    /// A pulled message arrived: deliver it upward unless it is a late
    /// duplicate.
    fn on_repair_push(
        &mut self,
        header: GossipHeader,
        original: Message,
        ctx: &mut EventContext<'_>,
    ) {
        if !self.record_delivered(header.origin, header.inc, header.seq) {
            // Already delivered, by the push phase or an earlier repair.
            self.stats.late_duplicates += 1;
            return;
        }
        let local = ctx.node_id();
        let frame = self.frame_of(&original);
        self.log_store((header.origin, header.inc), header.seq, frame, ctx.now_ms());
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
            self.window_ms = None;
            self.ttl = derived_gossip_ttl(self.members.len(), self.fanout);
            slot_table(&self.members, &mut self.member_slots);
            // Queued pushes follow the membership: those of expelled peers
            // are dropped, and the survivors' move to their new slots.
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
            if RepairDigest::decode_into(&body, &mut rows).is_ok() {
                self.on_repair_digest(from, &rows, ctx);
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
            let Some(body) = pull.message.pop_header() else {
                return;
            };
            let mut wants = std::mem::take(&mut self.pull_wants);
            if RepairPull::decode_into(&body, &mut wants).is_ok() {
                self.on_repair_pull(from, &wants, ctx);
            }
            self.pull_wants = wants;
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
            let Some(body) = push.message.pop_header() else {
                return;
            };
            self.on_batch(&body, ctx, Self::on_repair_push);
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
            self.on_batch(&body, ctx, |session, header, message, ctx| {
                session.on_push_arrival(from, header, message, ctx);
            });
            return;
        }

        match event.direction {
            Direction::Down => {
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
                        let original = self.frame_of(&data.message);
                        self.record_delivered(header.origin, header.inc, header.seq);
                        let key = (header.origin, header.inc);
                        self.log_store(key, header.seq, original.clone(), ctx.now_ms());
                        self.draw_window_targets(&[], ctx);
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

    fn gossip_config(members: &[u32], fanout: usize) -> ChannelConfig {
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
                    .with_param("fanout", fanout.to_string()),
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
            .create_channel(&gossip_config(&members, 4), &mut platform)
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
            .create_channel(&gossip_config(&[0, 1, 2], 5), &mut platform)
            .unwrap();
        let event = Event::down(DataEvent::to_group(NodeId(0), Message::new()));
        kernel.dispatch_and_process(id, event, &mut platform);
        fire_due(&mut kernel, &mut platform);
        assert_eq!(platform.take_sent().len(), 2);
    }

    #[test]
    fn receivers_deliver_once_and_forward_while_ttl_lasts() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..10).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        let delivered = |up: Vec<Event>| up.iter().filter(|event| event.is::<DataEvent>()).count();

        // A first reception with two rounds left is delivered, and relayed
        // with one round left.
        let up = gossip.run_up(push_of(0, 1, 1, 2), &mut platform);
        assert_eq!(delivered(up), 1);
        let relayed = pushed_ttls(&mut gossip, &mut platform);
        assert!(!relayed.is_empty(), "first reception is forwarded onward");
        assert!(relayed.iter().all(|ttl| *ttl == 1), "{relayed:?}");

        // The same push again is suppressed: neither delivered nor relayed.
        let up = gossip.run_up(push_of(0, 1, 1, 2), &mut platform);
        assert_eq!(delivered(up), 0, "duplicate is suppressed");
        assert!(pushed_ttls(&mut gossip, &mut platform).is_empty());

        // A push on its last round is relayed with none left.
        let up = gossip.run_up(push_of(0, 1, 2, 1), &mut platform);
        assert_eq!(delivered(up), 1);
        let relayed = pushed_ttls(&mut gossip, &mut platform);
        assert!(!relayed.is_empty() && relayed.iter().all(|ttl| *ttl == 0));
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
            .with_layer(LayerSpec::new("gossip").with_param("members", "0,1"))
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

    /// A message carrying a batch of `entries`, encoded as a flush encodes
    /// one.
    fn batch_body(entries: &[(GossipHeader, Message)]) -> Message {
        let frames: Vec<_> = entries
            .iter()
            .map(|(header, message)| (*header, message.to_bytes()))
            .collect();
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| {
            GossipBatchBody::encode_frames(&frames, w)
        }));
        message
    }

    /// The entries of the batch `message` carries, decoded as a receiver
    /// decodes them.
    fn entries_of(message: &Message) -> Vec<(GossipHeader, Message)> {
        let mut entries = Vec::new();
        GossipBatchBody::decode_into(message.peek_header().unwrap(), &mut entries).unwrap();
        entries
    }

    /// A message carrying a repair digest of `rows`.
    fn digest_body(rows: &[RepairRange]) -> Message {
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| {
            RepairDigest::encode_rows(rows.iter().copied(), w)
        }));
        message
    }

    /// A message carrying a repair pull of `wants`.
    fn pull_body(wants: &[(NodeId, u64, Vec<u64>)]) -> Message {
        let mut scratch = PullWants::default();
        for (origin, inc, seqs) in wants {
            scratch.seqs_mut().extend(seqs);
            scratch.end_stream(*origin, *inc);
        }
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| {
            RepairPull::encode_wants(scratch.streams(), w)
        }));
        message
    }

    /// The wants of the pull `message` carries, decoded as a receiver
    /// decodes them.
    fn wants_of(message: &Message) -> Vec<(NodeId, u64, Vec<u64>)> {
        let mut wants = PullWants::default();
        RepairPull::decode_into(message.peek_header().unwrap(), &mut wants).unwrap();
        let streams = wants.streams();
        streams
            .map(|(origin, inc, seqs)| (origin, inc, seqs.to_vec()))
            .collect()
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
        let message = batch_body(&[(header, Message::with_payload(&b"x"[..]))]);
        let to = Dest::Node(NodeId(1));
        Event::up(GossipBatch::new(NodeId(origin), to, message))
    }

    /// Fires the zero-delay flush and returns the TTL of every push entry
    /// the session sent down since the last drain.
    fn pushed_ttls(gossip: &mut Harness, platform: &mut TestPlatform) -> Vec<u32> {
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut platform.timers)
            .into_iter()
            .partition(|(deadline, _)| *deadline <= platform.now_ms);
        platform.timers = later;
        for (_, key) in due {
            gossip.fire_timer(key, platform);
        }
        let mut ttls = Vec::new();
        for batch in gossip
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<GossipBatch>())
        {
            let entries = entries_of(&batch.message);
            ttls.extend(entries.iter().map(|(header, _)| header.ttl));
        }
        ttls
    }

    /// A repair digest from `from` to `to`, advertising the `(inc, lo, hi)`
    /// spans of origin 0's streams.
    fn digest_of(from: u32, to: u32, spans: &[(u64, u64, u64)]) -> Event {
        let origin = NodeId(0);
        let rows: Vec<_> = spans
            .iter()
            .map(|&(inc, lo, hi)| RepairRange {
                origin,
                inc,
                lo,
                hi,
            })
            .collect();
        let message = digest_body(&rows);
        let to = Dest::Node(NodeId(to));
        Event::up(GossipRepairDigest::new(NodeId(from), to, message))
    }

    /// A NACK pull from `from` to `to` of the `seqs` of one stream.
    fn pull_of(from: u32, to: u32, (origin, inc): (u32, u64), seqs: Vec<u64>) -> Event {
        let message = pull_body(&[(NodeId(origin), inc, seqs)]);
        let to = Dest::Node(NodeId(to));
        Event::up(GossipRepairPull::new(NodeId(from), to, message))
    }

    /// A pull's answer from `from` to node 1: the messages `ids`, each an
    /// `(origin, inc, seq)` carrying `payload`, in one batch at `ttl` 0.
    fn answer_of(from: u32, ids: &[(u32, u64, u64)], payload: &'static [u8]) -> Event {
        let entries: Vec<_> = ids
            .iter()
            .map(|&(origin, inc, seq)| {
                let header = GossipHeader {
                    origin: NodeId(origin),
                    inc,
                    seq,
                    ttl: 0,
                };
                (header, Message::with_payload(payload))
            })
            .collect();
        let message = batch_body(&entries);
        let to = Dest::Node(NodeId(1));
        Event::up(GossipRepairPush::new(NodeId(from), to, message))
    }

    /// The entries of every repair answer the session sent down since the
    /// last drain: one list a packet, in dispatch order.
    fn answers_sent(gossip: &mut Harness) -> Vec<Vec<(GossipHeader, Message)>> {
        gossip
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<GossipRepairPush>())
            .map(|push| entries_of(&push.message))
            .collect()
    }

    /// How many messages the session answered pulls with since the last
    /// drain, over all its answer packets.
    fn answered(gossip: &mut Harness) -> usize {
        answers_sent(gossip).iter().map(Vec::len).sum()
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
                .map(|((origin, _), tracker)| (*origin, tracker.floor, tracker.held_above()))
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
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..6).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        let up = gossip.run_up(push_of(0, 1, 1, 0), &mut platform);
        assert_eq!(up.iter().filter(|event| event.is::<DataEvent>()).count(), 1);
        assert!(pushed_ttls(&mut gossip, &mut platform).is_empty());
    }

    /// The origin stamps its sends with the TTL its view derives: 27
    /// members at fan-out 3 take 3 rounds plus one, floored at 4; a 28th
    /// member needs a fourth round. A session created over 28 members
    /// stamps 5, an installed view of 27 moves it to 4 and one of 28 back.
    #[test]
    fn the_origin_stamps_the_ttl_its_view_derives() {
        assert_eq!(derived_gossip_ttl(27, 3), 4);
        assert_eq!(derived_gossip_ttl(28, 3), 5);
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..28).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        for (install, ttl) in [(None, 5), (Some(27u32), 4), (Some(28), 5)] {
            if let Some(size) = install {
                let view = crate::view::View::new(u64::from(size), (0..size).map(NodeId).collect());
                gossip.run_up(Event::up(ViewInstall { view }), &mut platform);
            }
            let send = Event::down(DataEvent::to_group(NodeId(0), Message::new()));
            gossip.run_down(send, &mut platform);
            let stamped = pushed_ttls(&mut gossip, &mut platform);
            assert_eq!(
                stamped, [ttl; 3],
                "view of {install:?}: one push per target"
            );
        }
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

        // Pathological gaps are abandoned once more than the cap sit above
        // the floor, keeping memory bounded.
        for seq in 0..2 * DELIVERED_GAP_CAP as u64 {
            delivered.record(100 + 2 * seq);
        }
        assert!(delivered.held_above() <= DELIVERED_GAP_CAP);
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
        let mut rows = Vec::new();
        RepairDigest::decode_into(digest.message.peek_header().unwrap(), &mut rows).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].origin, NodeId(0));
        assert_eq!((rows[0].lo, rows[0].hi), (1, 1));
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
        gossip.run_up(digest_of(2, 1, &[(7, 1, 3)]), &mut platform);
        let down = gossip.drain_down();
        let pulls: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<GossipRepairPull>())
            .collect();
        assert_eq!(pulls.len(), 1);
        let pull = pulls[0].get::<GossipRepairPull>().unwrap();
        assert_eq!(pull.header.dest, Dest::Node(NodeId(2)));
        assert_eq!(wants_of(&pull.message), vec![(NodeId(0), 7, vec![1, 2, 3])]);

        // The peer answers with one of the messages: it is delivered upward
        // exactly once.
        let push = || answer_of(2, &[(0, 7, 2)], b"repaired");
        let up = gossip.run_up(push(), &mut platform);
        let delivered: Vec<&Event> = up.iter().filter(|event| event.is::<DataEvent>()).collect();
        assert_eq!(delivered.len(), 1, "the repaired message is delivered");
        let data = delivered[0].get::<DataEvent>().unwrap();
        assert_eq!(data.header.source, NodeId(0), "origin restored");
        assert_eq!(data.message.payload().as_ref(), b"repaired");
        assert_eq!(stats_of(&mut gossip).repaired_deliveries, 1);

        // A duplicate push of the same message is suppressed.
        let up = gossip.run_up(push(), &mut platform);
        assert!(up.iter().all(|event| !event.is::<DataEvent>()));
        assert_eq!(stats_of(&mut gossip).late_duplicates, 1);
    }

    #[test]
    fn pulls_are_rate_limited_per_interval() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..8).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        let digest_from = |from: u32| digest_of(from, 1, &[(1, 1, 3)]);
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
    fn each_pull_starts_where_the_last_ran_out_of_window() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..8).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        // Origins 3..=7 each advertise 40 messages node 1 never got: one
        // pull's 64-message window holds a stream and a half.
        let entries: Vec<RepairRange> = (3..=7)
            .map(|origin| RepairRange {
                origin: NodeId(origin),
                inc: 1,
                lo: 1,
                hi: 40,
            })
            .collect();
        let mut first_origins = Vec::new();
        for from in [2, 4] {
            let message = digest_body(&entries);
            let digest = GossipRepairDigest::new(NodeId(from), Dest::Node(NodeId(1)), message);
            gossip.run_up(Event::up(digest), &mut platform);
            for event in gossip.drain_down() {
                if let Some(pull) = event.get::<GossipRepairPull>() {
                    let wants = wants_of(&pull.message);
                    first_origins.push(wants.iter().map(|want| want.0 .0).collect::<Vec<_>>());
                }
            }
        }
        assert_eq!(first_origins, vec![vec![3, 4], vec![5, 6]]);
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
        let answers = answers_sent(&mut gossip);
        assert_eq!(answers.len(), 1, "two small answers share one packet");
        let pushes = &answers[0];
        assert_eq!(pushes.len(), 2, "held seqs served, unknown seq skipped");
        assert_eq!(pushes[0].0.seq, 1);
        assert_eq!(pushes[0].1.payload().as_ref(), b"m1");
        assert_eq!(pushes[1].0.seq, 2);
        assert!(
            pushes.iter().all(|(header, _)| header.ttl == 0),
            "an answer is never relayed"
        );

        assert_eq!(
            inspect(&mut gossip, |session| session.repair_answers.len()),
            0,
            "the answers' frames, the log's, are not kept"
        );

        // A pull the log holds nothing of is answered with no packet.
        gossip.run_up(pull_of(2, 0, (0, 0), vec![9, 10]), &mut platform);
        assert!(answers_sent(&mut gossip).is_empty());
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
        let up = gossip.run_up(answer_of(2, &[(0, 1, 1)], b"x"), &mut platform);
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
        gossip.run_up(digest_of(3, 1, &[(7, 1, 3)]), &mut platform);
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

    /// A breach sighted for an incarnation older than every tracked one
    /// ages past two repair-log TTLs like any other, and a digest opens no
    /// delivery record: it leaves no fifth tracker, and it asks for no
    /// snapshot of a stream long delivered.
    #[test]
    fn a_floor_for_an_untracked_old_incarnation_opens_no_tracker_and_no_catchup() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        for inc in [10, 20, 30, 40] {
            assert_eq!(gossip.run_up(push_of(3, inc, 1, 0), &mut platform).len(), 1);
        }
        // Node 2's log holds origin 3's incarnation 5 from seq 10 only.
        let message = digest_body(&[RepairRange {
            origin: NodeId(3),
            inc: 5,
            lo: 10,
            hi: 12,
        }]);
        let digest = GossipRepairDigest::new(NodeId(2), Dest::Node(NodeId(1)), message);
        let up = age_a_breach(&mut gossip, &mut platform, Event::up(digest));
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
            let entries = entries_of(&batch.message);
            assert_eq!(entries.len(), 2, "same-instant sends aggregated");
            assert_eq!(entries[0].0.seq, 1);
            assert_eq!(entries[1].0.seq, 2);
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
            let message = batch_body(&entries);
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

    /// A burst of 200 own sends in one instant leaves in that instant's
    /// flush: each peer of a 4-member group gets all 200, in batches each
    /// as full as the byte cap allows, and nothing stays queued. The
    /// receiver of the whole burst owes its sender nothing: it sends no
    /// digest before its repair tick.
    #[test]
    fn a_burst_past_the_old_credit_window_leaves_in_its_instant() {
        let members = [0, 1, 2, 3];
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);
        send_to_group(&mut gossip, &mut platform, 200);
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut platform.timers)
            .into_iter()
            .partition(|(deadline, _)| *deadline <= platform.now_ms);
        platform.timers = later;
        for (_, key) in due {
            gossip.fire_timer(key, &mut platform);
        }
        let mut batches: HashMap<NodeId, Vec<Message>> = HashMap::default();
        for batch in gossip
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<GossipBatch>())
        {
            let Dest::Node(peer) = batch.header.dest else {
                panic!("a batch goes to one peer");
            };
            batches.entry(peer).or_default().push(batch.message.clone());
        }
        for peer in [1, 2, 3].map(NodeId) {
            let sent = batches.get(&peer).map_or(&[][..], Vec::as_slice);
            let seqs: Vec<u64> = sent
                .iter()
                .flat_map(entries_of)
                .map(|(header, _)| header.seq)
                .collect();
            // 7-byte entries up to seq 127, 8-byte ones after: 127 + 70
            // entries fill 1,449 B, and the 198th would cross the cap.
            let lens: Vec<usize> = sent
                .iter()
                .map(|message| entries_of(message).len())
                .collect();
            assert_eq!(lens, [197, 3], "{peer:?}: 200 pushes in full batches");
            assert_eq!(seqs, (1..=200).collect::<Vec<u64>>(), "{peer:?}");
        }
        assert_eq!(stats_of(&mut gossip).deferred_pushes, 0);
        assert_eq!(inspect(&mut gossip, |session| session.outbox.len()), 0);

        let mut receiver_platform = TestPlatform::new(NodeId(1));
        let mut receiver = Harness::new(
            GossipLayer,
            &gossip_params(&members),
            &mut receiver_platform,
        );
        let mut delivered = 0;
        for message in &batches[&NodeId(1)] {
            let batch = GossipBatch::new(NodeId(0), Dest::Node(NodeId(1)), message.clone());
            let up = receiver.run_up(Event::up(batch), &mut receiver_platform);
            delivered += up.iter().filter(|event| event.is::<DataEvent>()).count();
        }
        assert_eq!(delivered, 200);
        assert_eq!(
            sent_down::<GossipRepairDigest>(&mut receiver),
            0,
            "arrivals alone send no digest"
        );
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

    /// The bytes one batch entry takes on the wire.
    fn entry_len((header, message): &(GossipHeader, Message)) -> usize {
        header.encoded_len() + message.encoded_len()
    }

    /// Fires the zero-delay flush (the repair tick, if armed, stays) and
    /// returns every batch it sent, destination and entries, in dispatch
    /// order. Checks the cap on the way: no batch is empty, and each holds
    /// at most [`BATCH_BYTES`] of entries unless it is one larger entry.
    fn flushed_batches(
        gossip: &mut Harness,
        platform: &mut TestPlatform,
    ) -> Vec<(NodeId, Vec<(GossipHeader, Message)>)> {
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut platform.timers)
            .into_iter()
            .partition(|(deadline, _)| *deadline <= platform.now_ms);
        platform.timers = later;
        for (_, key) in due {
            gossip.fire_timer(key, platform);
        }
        let mut sent = Vec::new();
        for batch in gossip
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<GossipBatch>())
        {
            let Dest::Node(peer) = batch.header.dest else {
                panic!("a batch goes to one peer");
            };
            let entries = entries_of(&batch.message);
            assert!(!entries.is_empty(), "a batch to {peer:?} is empty");
            let bytes: usize = entries.iter().map(entry_len).sum();
            assert!(
                bytes <= BATCH_BYTES || entries.len() == 1,
                "a batch of {} entries to {peer:?} holds {bytes} B",
                entries.len()
            );
            sent.push((peer, entries));
        }
        sent
    }

    /// [`flushed_batches`] by peer: destination and sequence numbers, the
    /// consecutive batches to one peer joined, in dispatch order.
    fn flush(gossip: &mut Harness, platform: &mut TestPlatform) -> Vec<(NodeId, Vec<u64>)> {
        let mut sent: Vec<(NodeId, Vec<u64>)> = Vec::new();
        for (peer, entries) in flushed_batches(gossip, platform) {
            let seqs = entries.iter().map(|(header, _)| header.seq);
            match sent.last_mut() {
                Some((last, joined)) if *last == peer => joined.extend(seqs),
                _ => sent.push((peer, seqs.collect())),
            }
        }
        sent
    }

    /// Sends one message per payload size, in order, each of `size` bytes.
    fn send_sized(gossip: &mut Harness, platform: &mut TestPlatform, sizes: &[usize]) {
        for &size in sizes {
            gossip.run_down(
                Event::down(DataEvent::to_group(
                    NodeId(0),
                    Message::with_payload(vec![b'x'; size]),
                )),
                platform,
            );
        }
    }

    /// Each batch holds the entries that fit [`BATCH_BYTES`] and the next
    /// entry of its peer's run would cross it: the run is cut exactly at
    /// the cap, and a batch that meets it to the byte stays whole.
    #[test]
    fn a_flush_cuts_a_peers_run_exactly_at_the_byte_cap() {
        // Own sends of a two-member group at `inc` 0 and seqs below 128:
        // a 4-byte gossip header and a frame of a header count, a payload
        // length and the payload, all 1-byte varints.
        for (entry, expected) in [(104, vec![14, 14, 2]), (105, vec![13, 13, 4])] {
            let mut platform = TestPlatform::new(NodeId(0));
            let mut gossip = batching_harness(&mut platform, "0,1", &[("repair_interval_ms", "0")]);
            send_sized(&mut gossip, &mut platform, &[entry - 6; 30]);
            let batches = flushed_batches(&mut gossip, &mut platform);
            let counts: Vec<usize> = batches.iter().map(|(_, entries)| entries.len()).collect();
            assert_eq!(counts, expected, "{entry}-byte entries");
            for (_, entries) in &batches {
                assert!(entries.iter().all(|e| entry_len(e) == entry));
            }
            if entry == 104 {
                let full: usize = batches[0].1.iter().map(entry_len).sum();
                assert_eq!(full, BATCH_BYTES, "14 × 104 B meets the cap exactly");
            }
            let seqs: Vec<u64> = batches
                .iter()
                .flat_map(|(_, entries)| entries.iter().map(|(header, _)| header.seq))
                .collect();
            assert_eq!(seqs, (1..=30).collect::<Vec<u64>>(), "FIFO across the cuts");
        }
    }

    /// An entry larger than the cap leaves in a batch of its own, between
    /// the batches of the entries before and after it.
    #[test]
    fn an_entry_over_the_byte_cap_leaves_alone() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = batching_harness(&mut platform, "0,1", &[("repair_interval_ms", "0")]);
        send_sized(
            &mut gossip,
            &mut platform,
            &[10, 10, 2 * BATCH_BYTES, 10, BATCH_BYTES, 10],
        );
        let batches = flushed_batches(&mut gossip, &mut platform);
        let seqs: Vec<Vec<u64>> = batches
            .iter()
            .map(|(_, entries)| entries.iter().map(|(header, _)| header.seq).collect())
            .collect();
        assert_eq!(seqs, [vec![1, 2], vec![3], vec![4], vec![5], vec![6]]);
        assert!(entry_len(&batches[1].1[0]) > BATCH_BYTES);
        assert!(batches.iter().all(|(peer, _)| *peer == NodeId(1)));
    }

    /// Runs of mixed sizes to several peers: every batch is non-empty and
    /// within the cap, peers go out in `members` order, and each peer's
    /// run is FIFO and cut only where the next entry would cross the cap.
    #[test]
    fn mixed_runs_leave_in_members_order_fifo_and_cut_only_at_the_cap() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = batching_harness(
            &mut platform,
            "0,6,3,5,1,4,2",
            &[("fanout", "3"), ("repair_interval_ms", "0")],
        );
        let sizes: Vec<usize> = (0..120).map(|i| 20 + (i * 53) % 400).collect();
        send_sized(&mut gossip, &mut platform, &sizes);
        let batches = flushed_batches(&mut gossip, &mut platform);
        let order = [6, 3, 5, 1, 4, 2].map(NodeId);
        let mut peers: Vec<NodeId> = batches.iter().map(|(peer, _)| *peer).collect();
        peers.dedup();
        let expected: Vec<NodeId> = order.into_iter().filter(|p| peers.contains(p)).collect();
        assert_eq!(peers, expected, "peers in `members` order, each once");
        for run in batches.chunk_by(|a, b| a.0 == b.0) {
            let seqs: Vec<u64> = run
                .iter()
                .flat_map(|(_, entries)| entries.iter().map(|(header, _)| header.seq))
                .collect();
            assert!(seqs.windows(2).all(|pair| pair[0] < pair[1]), "{seqs:?}");
            for pair in run.windows(2) {
                let bytes: usize = pair[0].1.iter().map(entry_len).sum();
                assert!(
                    bytes + entry_len(&pair[1].1[0]) > BATCH_BYTES,
                    "{:?}: a batch of {bytes} B was cut before an entry that fits",
                    pair[0].0
                );
            }
        }
        let pushed: usize = batches.iter().map(|(_, entries)| entries.len()).sum();
        assert_eq!(pushed, 3 * sizes.len(), "every send at fanout 3");
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
        let batches = flushed_batches(&mut gossip, &mut platform);

        // Six small pushes are far under the byte cap: one packet a peer.
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
        for (peer, entries) in &batches {
            let seqs: Vec<u64> = entries.iter().map(|(header, _)| header.seq).collect();
            assert!(
                seqs.windows(2).all(|pair| pair[0] < pair[1]),
                "{peer:?}'s pushes leave oldest first: {seqs:?}"
            );
            pushed.extend(seqs);
        }
        assert_eq!(pushed.len(), 12, "six sends at fanout 2");
    }

    /// Every push of one instant, own sends and relays alike, goes to peers
    /// of one `fanout + 2` draw, skipping each relay's origin and sender;
    /// the next instant draws again.
    #[test]
    fn one_instants_pushes_share_a_window_that_skips_origin_and_sender() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members = (0..20).map(|id| id.to_string()).collect::<Vec<_>>();
        let mut gossip = batching_harness(
            &mut platform,
            &members.join(","),
            &[("fanout", "3"), ("repair_interval_ms", "0")],
        );
        // Relays of 20 messages per instant, each from its own
        // (origin, sender) pair, then one own send (seq 1, 2, ...): who sent
        // each relay, by seq.
        let others: Vec<u32> = (0..20).filter(|id| *id != 1).collect();
        let mut windows: Vec<Vec<NodeId>> = Vec::new();
        for instant in 0..4u64 {
            platform.now_ms = instant;
            let mut skipped: HashMap<u64, [NodeId; 2]> = HashMap::default();
            for index in 0..20usize {
                let seq = 1_000 * (instant + 1) + index as u64;
                let origin = others[(index + instant as usize) % others.len()];
                let from = others[(index * 7 + 3) % others.len()];
                let header = GossipHeader {
                    origin: NodeId(origin),
                    inc: 5,
                    seq,
                    ttl: 2,
                };
                let message = batch_body(&[(header, Message::with_payload(&b"x"[..]))]);
                let to = Dest::Node(NodeId(1));
                gossip.run_up(
                    Event::up(GossipBatch::new(NodeId(from), to, message)),
                    &mut platform,
                );
                skipped.insert(seq, [NodeId(origin), NodeId(from)]);
            }
            send_to_group(&mut gossip, &mut platform, 1);
            let mut copies: HashMap<u64, usize> = HashMap::default();
            let mut peers: Vec<NodeId> = Vec::new();
            for (peer, entries) in flushed_batches(&mut gossip, &mut platform) {
                peers.push(peer);
                for seq in entries.iter().map(|(header, _)| header.seq) {
                    *copies.entry(seq).or_default() += 1;
                    assert!(
                        !skipped.get(&seq).is_some_and(|skip| skip.contains(&peer)),
                        "instant {instant}: seq {seq} relayed to its origin or sender {peer:?}"
                    );
                }
            }
            let packets = peers.len();
            peers.sort_unstable();
            peers.dedup();
            assert!(
                peers.len() <= 3 + 2 && !peers.contains(&NodeId(1)),
                "instant {instant}: pushes went to {peers:?}"
            );
            assert_eq!(
                packets,
                peers.len(),
                "instant {instant}: a peer's pushes of one instant fill one batch"
            );
            assert_eq!(copies.len(), 21, "instant {instant}: every message pushed");
            assert!(
                copies.values().all(|count| *count == 3),
                "instant {instant}: every message reached `fanout` peers"
            );
            windows.push(peers);
        }
        windows.dedup();
        assert!(windows.len() > 1, "every instant draws again: {windows:?}");
    }

    /// In a group of `fanout + 3` members the instant's window holds every
    /// other member; it is shuffled, so own sends still reach each of them
    /// first-hand, not only the first `fanout` in member order.
    #[test]
    fn a_group_just_above_fanout_spreads_its_pushes_over_every_peer() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut gossip = batching_harness(
            &mut platform,
            "0,1,2,3,4,5",
            &[("fanout", "3"), ("repair_interval_ms", "0")],
        );
        let mut reached = [0usize; 6];
        for instant in 0..30 {
            platform.now_ms = instant;
            send_to_group(&mut gossip, &mut platform, 2);
            let batches = flush(&mut gossip, &mut platform);
            assert_eq!(batches.len(), 3, "instant {instant}: `fanout` peers");
            for (peer, seqs) in batches {
                assert_eq!(seqs.len(), 2, "both sends of the instant");
                reached[peer.0 as usize] += 1;
            }
        }
        assert_eq!(reached[0], 0, "never itself");
        assert!(
            reached[1..].iter().all(|count| *count >= 5),
            "every peer is drawn: {reached:?}"
        );
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
            let entries: Vec<_> = seqs
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
            let message = batch_body(&entries);
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

    /// The smallest entry a batch can carry is 6 bytes: a gossip header of
    /// four 1-byte varints and an empty message (a zero header count and a
    /// zero payload length). A full batch of them is exactly as long as the
    /// decoder's per-entry bound allows, and must still decode.
    #[test]
    fn a_full_batch_of_minimum_size_entries_round_trips() {
        let zero = GossipHeader {
            origin: NodeId(0),
            inc: 0,
            seq: 0,
            ttl: 0,
        };
        let full = BATCH_BYTES / 6;
        let entries = vec![(zero, Message::new()); full];
        let body = batch_body(&entries);
        assert_eq!(
            body.size(),
            2 + 6 * full,
            "a 2-byte count of {full} entries"
        );
        assert_eq!(entries_of(&body), entries);
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
        let body = batch_body(&entries).pop_header().unwrap();
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

    /// A pull's answers leave by the push path's byte rule: each packet
    /// holds the answers that fit [`BATCH_BYTES`] and the next one would
    /// cross it, no packet is empty, and the answers keep the pull's order,
    /// streams included.
    #[test]
    fn a_pulls_answer_is_cut_exactly_at_the_byte_cap_in_want_order() {
        // Entries of `inc` 1 and seqs below 128 at `ttl` 0: a 4-byte gossip
        // header and a frame of a header count, a payload length and the
        // payload, all 1-byte varints.
        for (entry, expected) in [(104, vec![14, 14, 2]), (105, vec![13, 13, 4])] {
            let mut platform = TestPlatform::new(NodeId(1));
            let mut gossip = batching_harness(&mut platform, "0,1,2,3", &[]);
            for (origin, count) in [(0u32, 20u64), (3, 10)] {
                let entries: Vec<_> = (1..=count)
                    .map(|seq| {
                        let header = GossipHeader {
                            origin: NodeId(origin),
                            inc: 1,
                            seq,
                            ttl: 0,
                        };
                        (header, Message::with_payload(vec![b'x'; entry - 6]))
                    })
                    .collect();
                let message = batch_body(&entries);
                let batch = GossipBatch::new(NodeId(origin), Dest::Node(NodeId(1)), message);
                gossip.run_up(Event::up(batch), &mut platform);
            }
            gossip.drain_down();

            let message = pull_body(&[
                (NodeId(3), 1, (1..=10).collect()),
                (NodeId(0), 1, (1..=20).collect()),
            ]);
            let pull = GossipRepairPull::new(NodeId(2), Dest::Node(NodeId(1)), message);
            gossip.run_up(Event::up(pull), &mut platform);

            let mut answers = Vec::new();
            for event in gossip.drain_down() {
                let push = event.get::<GossipRepairPush>().expect("only answers leave");
                assert_eq!(push.header.dest, Dest::Node(NodeId(2)), "to the puller");
                let entries = entries_of(&push.message);
                assert!(!entries.is_empty(), "an answer packet is never empty");
                assert!(entries.iter().all(|e| entry_len(e) == entry));
                answers.push(entries);
            }
            let counts: Vec<usize> = answers.iter().map(Vec::len).collect();
            assert_eq!(counts, expected, "{entry}-byte answers");
            for pair in answers.windows(2) {
                let bytes: usize = pair[0].iter().map(entry_len).sum();
                assert!(bytes <= BATCH_BYTES);
                assert!(bytes + entry_len(&pair[1][0]) > BATCH_BYTES);
            }
            if entry == 104 {
                let full: usize = answers[0].iter().map(entry_len).sum();
                assert_eq!(full, BATCH_BYTES, "14 × 104 B meets the cap exactly");
            }
            let ids: Vec<(u32, u64)> = answers
                .iter()
                .flatten()
                .map(|(header, _)| (header.origin.0, header.seq))
                .collect();
            let wanted: Vec<(u32, u64)> = (1..=10)
                .map(|seq| (3, seq))
                .chain((1..=20).map(|seq| (0, seq)))
                .collect();
            assert_eq!(ids, wanted, "the pull's order across the cuts");
            assert_eq!(stats_of(&mut gossip).repair_pushes, 30);
        }
    }

    /// A repair answer decodes all or nothing, like a push batch, into the
    /// same scratch, which is empty again once the answer is handled.
    #[test]
    fn a_truncated_repair_batch_delivers_nothing_and_leaves_no_decoded_message() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut gossip = batching_harness(&mut platform, "0,1,2,3", &[]);
        let entries: Vec<(GossipHeader, Message)> = (1..=3u64)
            .map(|seq| {
                let header = GossipHeader {
                    origin: NodeId(0),
                    inc: 5,
                    seq,
                    ttl: 0,
                };
                (header, Message::with_payload(&b"payload"[..]))
            })
            .collect();
        let body = batch_body(&entries).pop_header().unwrap();
        let scratch_len = |gossip: &mut Harness| inspect(gossip, |s| s.batch_entries.len());
        let arrive = |gossip: &mut Harness, platform: &mut TestPlatform, header: Bytes| {
            let mut message = Message::new();
            message.push_header(header);
            let to = Dest::Node(NodeId(1));
            gossip.run_up(
                Event::up(GossipRepairPush::new(NodeId(2), to, message)),
                platform,
            )
        };

        let truncated = body.slice(..body.len() - 1);
        assert!(arrive(&mut gossip, &mut platform, truncated).is_empty());
        assert_eq!(scratch_len(&mut gossip), 0, "nothing decoded is kept");
        let mut trailing = body.to_vec();
        trailing.push(0);
        assert!(arrive(&mut gossip, &mut platform, trailing.into()).is_empty());
        assert_eq!(scratch_len(&mut gossip), 0);
        let stats = stats_of(&mut gossip);
        assert_eq!((stats.repaired_deliveries, stats.late_duplicates), (0, 0));

        let up = arrive(&mut gossip, &mut platform, body);
        assert_eq!(up.len(), 3, "the intact answer delivers every entry");
        assert_eq!(
            scratch_len(&mut gossip),
            0,
            "drained before the handler returned"
        );
        assert_eq!(stats_of(&mut gossip).repaired_deliveries, 3);
        assert!(gossip.drain_down().is_empty(), "an answer is never relayed");
    }

    /// Hands the session `digest`, then fires its repair tick two
    /// repair-log TTLs later; returns what went up meanwhile.
    fn age_a_breach(
        gossip: &mut Harness,
        platform: &mut TestPlatform,
        digest: Event,
    ) -> Vec<Event> {
        let mut up = gossip.run_up(digest, platform);
        platform.advance(REPAIR_LOG_TTL_MS * 2);
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, platform);
        }
        gossip.drain_down();
        up.extend(gossip.drain_up());
        up
    }

    /// A breach that outlives two repair-log TTLs is the stream's floor:
    /// the span below it is abandoned, and the digest's sender becomes the
    /// snapshot donor.
    #[test]
    fn a_repair_floor_fast_forwards_and_escalates_to_catchup() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // Seqs 1..=2 of (origin 0, inc 1) were delivered before the
        // partition; 3..=6 are gone from every reachable repair log, and
        // node 2's log starts at 7.
        gossip.run_up(push_of(0, 1, 1, 0), &mut platform);
        gossip.run_up(push_of(0, 1, 2, 0), &mut platform);
        gossip.drain_down();

        let floor_answer = || digest_of(2, 1, &[(1, 7, 7)]);
        let up = age_a_breach(&mut gossip, &mut platform, floor_answer());
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
        let digest = |lo: u64, hi: u64| digest_of(3, 1, &[(1, lo, hi)]);
        gossip.run_up(digest(1, 6), &mut platform);
        assert_eq!(
            sent_down::<GossipRepairPull>(&mut gossip),
            0,
            "the fast-forwarded span is never pulled again"
        );
        // ...while newer seqs above the floor still repair normally.
        gossip.run_up(digest(1, 8), &mut platform);
        let down = gossip.drain_down();
        let pulls: Vec<_> = down
            .iter()
            .filter_map(|event| event.get::<GossipRepairPull>())
            .map(|pull| wants_of(&pull.message))
            .collect();
        assert_eq!(pulls, [vec![(NodeId(0), 1, vec![7, 8])]]);

        // The same floor, sighted and aged again, does not re-escalate.
        let up = age_a_breach(&mut gossip, &mut platform, floor_answer());
        assert!(up.iter().all(|event| !event.is::<CatchupRequest>()));
    }

    #[test]
    fn a_digest_advertising_an_evicted_span_escalates_without_a_pull_round_trip() {
        // A member that was cut off for longer than the repair-log TTL sees,
        // on reconnection, digests whose `lo` sits above its own delivery
        // floor. Pulling below `lo` is futile by construction — but a
        // single sighting may be transient (another peer's later-arrival
        // retention can still serve the span), so the breach must persist
        // for two repair-log TTLs before it escalates to a snapshot
        // catch-up.
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut gossip = Harness::new(GossipLayer, &gossip_params(&members), &mut platform);

        // Seqs 1..=2 delivered before the cut; the advertiser's log now
        // starts at 9.
        let deliver = |seq: u64| push_of(0, 1, seq, 0);
        gossip.run_up(deliver(1), &mut platform);
        gossip.run_up(deliver(2), &mut platform);
        gossip.drain_down();

        let digest = |lo: u64, hi: u64| digest_of(2, 1, &[(1, lo, hi)]);
        // First sighting: the breach is recorded but nothing escalates —
        // the advertised span is still pulled normally.
        let up = gossip.run_up(digest(9, 10), &mut platform);
        assert!(
            up.iter().all(|event| !event.is::<CatchupRequest>()),
            "a fresh breach must not escalate immediately"
        );
        let pulls: Vec<_> = gossip
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<GossipRepairPull>())
            .map(|pull| wants_of(&pull.message))
            .collect();
        assert_eq!(pulls, [vec![(NodeId(0), 1, vec![9, 10])]]);

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
        // Answers are counted in messages, over however many packets
        // carry them.
        let pushes = answered;

        // Per-pull budget: 2 × window of the 2 × window + 2 asked-for seqs.
        // What was gathered before the budget ran out is still sent.
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
        let stats = stats_of(&mut gossip);
        assert_eq!(
            stats.repair_pushes,
            2 * per_pull as u64,
            "counted in messages"
        );
        assert_eq!(stats.rate_limited_pushes, 0);
        // ...then cuts every further response until the next repair tick.
        let rest = vec![4 * window + 1, 4 * window + 2];
        gossip.run_up(pull(rest.clone()), &mut platform);
        assert_eq!(
            pushes(&mut gossip),
            0,
            "a greedy puller cannot amplify the responder's send rate"
        );
        assert_eq!(stats_of(&mut gossip).rate_limited_pushes, 1);

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
            .create_channel(&gossip_config(&members, 3), &mut platform)
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
