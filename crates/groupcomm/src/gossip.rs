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
//!    `repair_pull_budget` digest senders and `repair_window` messages per
//!    interval); the peer answers with the logged originals
//!    ([`GossipRepairPush`]). Late duplicates — including messages already
//!    evicted from the push-phase suppression set but still recorded in the
//!    delivery tracker — are suppressed, so coverage converges to 100%
//!    shortly after the push phase tops out without ever re-delivering.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use bytes::Bytes;
use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
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

/// Registered name of the gossip multicast layer.
pub const GOSSIP_LAYER: &str = "gossip";

/// Timer tag of the periodic repair tick.
const REPAIR_TAG: u32 = 1;

/// Timer tag of the zero-delay outbox flush: pushes enqueued within one
/// simulation instant leave together as aggregated [`GossipBatch`] packets.
const FLUSH_TAG: u32 = 2;

/// Default cap on message identifiers remembered for duplicate suppression.
const DEFAULT_SEEN_CAP: usize = 65_536;

/// Default age after which a remembered identifier is evicted. Far beyond
/// any realistic propagation delay of an epidemic round, so eviction can
/// only re-admit a duplicate that stopped circulating long ago — while a
/// long-running chat no longer pins one entry per message ever seen.
const DEFAULT_SEEN_TTL_MS: u64 = 60_000;

/// Default cadence of the repair digest gossip (`0` disables the repair
/// pass entirely, leaving the pure push-phase protocol).
const DEFAULT_REPAIR_INTERVAL_MS: u64 = 1_000;

/// Default cap on messages held in the repair log.
const DEFAULT_REPAIR_LOG_CAP: usize = 4_096;

/// Default age after which a logged message is no longer served.
const DEFAULT_REPAIR_LOG_TTL_MS: u64 = 10_000;

/// Default cap on message identifiers NACK-pulled per repair interval.
const DEFAULT_REPAIR_WINDOW: usize = 64;

/// Default number of digest senders pulled from per repair interval (one
/// redundant pull, mirroring the context anti-entropy budget, so a single
/// lost push batch does not cost a whole extra interval).
const DEFAULT_REPAIR_PULL_BUDGET: usize = 2;

/// Default per-peer credit window: how many push-path messages a sender may
/// stream to one peer before it must wait for a re-grant (piggybacked on
/// [`RepairDigest`]). `0` disables credit backpressure; the layer-parameter
/// default is off so bare sessions keep the legacy behaviour, while the
/// stack builder turns it on for real stacks.
const DEFAULT_CREDIT_WINDOW: usize = 0;

/// Default number of app messages aggregated per [`GossipBatch`] packet.
/// `1` keeps the legacy one-packet-per-message push path.
const DEFAULT_BATCH_MAX: usize = 1;

/// Per-peer outbox cap when credit backpressure is off (with credit on, the
/// cap is `4 × credit_window`). Beyond it the newest pushes are shed — they
/// are already in the repair log, so the digest-announce + pull path
/// recovers them.
const DEFAULT_OUTBOX_CAP: usize = 1_024;

/// Picks up to `limit` distinct members uniformly at random, excluding
/// `exclude` — the peer-sampling primitive shared by every gossip mechanism
/// (epidemic multicast, liveness-digest failure detection, context
/// anti-entropy). A partial Fisher-Yates driven by the platform's
/// deterministic RNG, so simulation runs stay reproducible.
pub fn sample_peers(
    members: &[NodeId],
    exclude: &[NodeId],
    limit: usize,
    ctx: &mut EventContext<'_>,
) -> Vec<NodeId> {
    let mut pool = Vec::new();
    sample_peers_into(members, exclude, limit, ctx, &mut pool);
    pool
}

/// [`sample_peers`] into a caller-owned buffer (cleared first), so a caller
/// sampling on every message arrival reuses one allocation. Same draws, same
/// order.
pub fn sample_peers_into(
    members: &[NodeId],
    exclude: &[NodeId],
    limit: usize,
    ctx: &mut EventContext<'_>,
    pool: &mut Vec<NodeId>,
) {
    pool.clear();
    pool.extend(
        members
            .iter()
            .copied()
            .filter(|member| !exclude.contains(member)),
    );
    if pool.len() <= limit {
        return;
    }
    for index in 0..limit {
        let remaining = pool.len() - index;
        let pick = index + (ctx.random_u64() % remaining as u64) as usize;
        pool.swap(index, pick);
    }
    pool.truncate(limit);
}

/// Counters of one gossip session, exposed to the node runtime (and from
/// there to testbed reports) via the session downcast hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Push-phase forwards performed (first receptions re-pushed while the
    /// TTL lasted).
    pub forwarded: u64,
    /// Push-phase duplicates suppressed by the seen set.
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
    /// Late duplicates suppressed by the delivery tracker — arrivals (push
    /// or repair) of messages already delivered, including ones whose seen
    /// set entry had been evicted.
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
/// * `seen_cap` — ring-buffer cap on the duplicate-suppression set
///   (default 65536);
/// * `seen_ttl_ms` — age-based eviction of suppression entries (default
///   60000 ms; `0` disables age eviction);
/// * `repair_interval_ms` — cadence of the repair digest gossip (default
///   1000 ms; `0` disables the repair pass);
/// * `repair_log_cap` — cap on messages held in the repair log (default
///   4096);
/// * `repair_log_ttl_ms` — age after which a logged message is dropped
///   (default 10000 ms);
/// * `repair_window` — cap on message identifiers pulled per interval
///   (default 64);
/// * `repair_pull_budget` — digest senders pulled from per interval
///   (default 2);
/// * `batch_max` — app messages aggregated per gossip packet (default 1:
///   legacy singleton pushes);
/// * `credit_window` — per-peer credit window for push backpressure
///   (default 0: off; requires the repair pass for the grant channel).
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
    /// Set view of `members`, refreshed on every view install: the guard
    /// that keeps repair traffic (digest replies, NACK-pull answers) from
    /// flowing to expelled or crashed peers that are no longer in the view.
    // bound: <= view size; rebuilt on every view install.
    member_set: HashSet<NodeId>,
    fanout: usize,
    ttl: u32,
    seen_cap: usize,
    seen_ttl_ms: u64,
    repair_interval_ms: u64,
    repair_log_cap: usize,
    repair_log_ttl_ms: u64,
    repair_window: usize,
    repair_pull_budget: usize,
    /// The local stream incarnation (session creation time): what keeps the
    /// local sequence space distinct from any previous session of this node
    /// after a restart or stack redeployment.
    inc: u64,
    inc_ready: bool,
    next_seq: u64,
    // bound: capped at `seen_cap` and aged out after `seen_ttl_ms`, enforced via `seen_order`.
    seen: HashSet<(NodeId, u64, u64)>,
    /// Insertion-ordered `(id, remembered-at ms)` ring backing the eviction
    /// policy: bounded capacity plus age-based expiry, so the
    /// duplicate-suppression memory stays capped no matter how long the
    /// epidemic data path runs.
    // bound: the ring itself -- `seen_cap` entries, `seen_ttl_ms` age.
    seen_order: VecDeque<((NodeId, u64, u64), u64)>,
    /// Per-stream delivery record — the repair pass's ground truth. Never
    /// capacity-evicted (unlike `seen`), so a message that fell out of the
    /// seen set is still known as delivered when a late NACK pull re-streams
    /// it.
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
    /// NACK pull. Bounded by `repair_log_cap` (ring) and
    /// `repair_log_ttl_ms` (age). Held in wire form ([`Wire::to_bytes`]):
    /// one exactly-sized buffer per message, never slices of the packet it
    /// arrived in — the log keeps entries for seconds, and a slice would pin
    /// the sender's whole packet buffer for as long.
    // bound: `repair_log_cap` ring + `repair_log_ttl_ms` age, enforced inside `RepairLog`.
    log: RepairLog<Bytes>,
    pulls_this_interval: usize,
    pushes_this_interval: usize,
    repair_timer: Option<u64>,
    /// App messages aggregated per gossip packet (1 = legacy singletons).
    batch_max: usize,
    /// Per-peer credit window (0 = no backpressure).
    credit_window: usize,
    /// Per-peer outbox cap (drop-newest beyond it).
    outbox_cap: usize,
    /// Deferred pushes per peer, flushed as aggregated batches on the
    /// zero-delay flush timer once credit allows. Wire-form messages, like
    /// the log (whose buffers they share): a credit-starved entry waits
    /// here for whole repair intervals.
    // bound: keys <= view size (pruned on view install); each queue capped at `outbox_cap` (drop-newest, counted in `outbox_shed`).
    outbox: BTreeMap<NodeId, VecDeque<(GossipHeader, Bytes)>>,
    /// Send-side credit remaining per peer, refilled by digest grants.
    // bound: <= view size keys, pruned on view install.
    credits: HashMap<NodeId, u32>,
    /// Receive-side remainder of the credit last granted to each peer; when
    /// it falls to half the window a fresh grant is sent.
    // bound: <= view size keys, pruned on view install.
    granted: HashMap<NodeId, u32>,
    flush_timer: Option<u64>,
    /// Scratch for the relay targets drawn on every push arrival.
    // bound: <= view size; overwritten by every sample.
    relay_targets: Vec<NodeId>,
    stats: GossipStats,
}

impl GossipSession {
    /// Builds a session from layer parameters — the single construction
    /// site shared by [`GossipLayer::create_session`] and the unit tests.
    fn from_params(params: &LayerParams) -> Self {
        let members = param_node_list(params, "members");
        let credit_window = param_or(params, "credit_window", DEFAULT_CREDIT_WINDOW);
        Self {
            member_set: members.iter().copied().collect(),
            members,
            fanout: param_or(params, "fanout", 3usize).max(1),
            ttl: param_or(params, "ttl", 4u32),
            seen_cap: param_or(params, "seen_cap", DEFAULT_SEEN_CAP).max(16),
            seen_ttl_ms: param_or(params, "seen_ttl_ms", DEFAULT_SEEN_TTL_MS),
            repair_interval_ms: param_or(params, "repair_interval_ms", DEFAULT_REPAIR_INTERVAL_MS),
            repair_log_cap: param_or(params, "repair_log_cap", DEFAULT_REPAIR_LOG_CAP).max(16),
            repair_log_ttl_ms: param_or(params, "repair_log_ttl_ms", DEFAULT_REPAIR_LOG_TTL_MS)
                .max(100),
            repair_window: param_or(params, "repair_window", DEFAULT_REPAIR_WINDOW).max(1),
            repair_pull_budget: param_or(params, "repair_pull_budget", DEFAULT_REPAIR_PULL_BUDGET)
                .max(1),
            inc: 0,
            inc_ready: false,
            next_seq: 0,
            seen: HashSet::new(),
            seen_order: VecDeque::new(),
            delivered: HashMap::new(),
            floor_breaches: HashMap::new(),
            log: RepairLog::new(),
            pulls_this_interval: 0,
            pushes_this_interval: 0,
            repair_timer: None,
            batch_max: param_or(params, "batch_max", DEFAULT_BATCH_MAX).max(1),
            credit_window,
            outbox_cap: if credit_window > 0 {
                credit_window * 4
            } else {
                DEFAULT_OUTBOX_CAP
            },
            outbox: BTreeMap::new(),
            credits: HashMap::new(),
            granted: HashMap::new(),
            flush_timer: None,
            relay_targets: Vec::new(),
            stats: GossipStats::default(),
        }
    }

    /// Entries currently held for duplicate suppression.
    pub fn seen_len(&self) -> usize {
        self.seen.len()
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
        self.credit_window > 0 && self.repair_enabled()
    }

    /// Whether the push path routes through per-peer outboxes (aggregated
    /// [`GossipBatch`] packets) instead of legacy singleton sends.
    fn aggregating(&self) -> bool {
        self.batch_max > 1 || self.credit_enabled()
    }

    fn ensure_inc(&mut self, ctx: &mut EventContext<'_>) {
        if !self.inc_ready {
            self.inc = ctx.now_ms();
            self.inc_ready = true;
        }
    }

    fn remember(&mut self, id: (NodeId, u64, u64), now_ms: u64) -> bool {
        // Age-based expiry first (cheap: entries are insertion-ordered).
        if self.seen_ttl_ms > 0 {
            while let Some((oldest, at)) = self.seen_order.front().copied() {
                if now_ms.saturating_sub(at) < self.seen_ttl_ms {
                    break;
                }
                self.seen_order.pop_front();
                self.seen.remove(&oldest);
            }
        }
        if !self.seen.insert(id) {
            return false;
        }
        self.seen_order.push_back((id, now_ms));
        while self.seen_order.len() > self.seen_cap {
            if let Some((oldest, _)) = self.seen_order.pop_front() {
                self.seen.remove(&oldest);
            }
        }
        true
    }

    /// Incarnations of one origin whose delivery records are retained. A
    /// node can plausibly produce several incarnations inside one repair
    /// window (pre-restart stack, rejoin boot stack, control-plane repair
    /// redeploy); pruning must never touch a stream whose messages peers'
    /// repair logs can still serve, or a late pull would re-deliver — so
    /// the cap is comfortably above that burst, and only the lowest (oldest,
    /// long past every repair log's TTL) incarnation is dropped.
    const TRACKED_INCS_PER_ORIGIN: usize = 4;

    /// Records a delivered message in the per-stream tracker; returns
    /// `false` for a late duplicate. Trackers are created only here — on an
    /// actual delivery — never on query paths, so digest contents cannot
    /// fabricate (or displace) delivery records.
    fn record_delivered(&mut self, origin: NodeId, inc: u64, seq: u64) -> bool {
        if !self.delivered.contains_key(&(origin, inc)) {
            let mut incs: Vec<u64> = self
                .delivered
                .keys()
                .filter(|(node, _)| *node == origin)
                .map(|(_, inc)| *inc)
                .collect();
            while incs.len() >= Self::TRACKED_INCS_PER_ORIGIN {
                incs.sort_unstable();
                let oldest = incs.remove(0);
                self.delivered.remove(&(origin, oldest));
                self.drop_stream_log(&(origin, oldest));
            }
        }
        self.delivered.entry((origin, inc)).or_default().record(seq)
    }

    fn drop_stream_log(&mut self, key: &StreamKey) {
        self.log.drop_stream(key);
    }

    /// Stores a delivered message (in wire form) in the bounded repair log.
    fn log_store(&mut self, key: StreamKey, seq: u64, frame: Bytes, now_ms: u64) {
        if !self.repair_enabled() {
            return;
        }
        self.log.store(key, seq, frame, now_ms, self.repair_log_cap);
    }

    /// Drops logged messages older than `repair_log_ttl_ms`.
    fn evict_log(&mut self, now_ms: u64) {
        self.log.evict(now_ms, self.repair_log_ttl_ms);
        // Breach timestamps for streams the delivery map no longer tracks
        // (stale incarnations) go with them — the map stays bounded by the
        // tracked-stream set.
        let delivered = &self.delivered;
        self.floor_breaches
            .retain(|key, _| delivered.contains_key(key));
    }

    fn random_targets(&self, exclude: &[NodeId], ctx: &mut EventContext<'_>) -> Vec<NodeId> {
        sample_peers(&self.members, exclude, self.fanout, ctx)
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

    /// Queues one push into `peer`'s outbox. Shed policy: drop-newest
    /// beyond the cap — the message is already in the repair log, so
    /// digest-announce + pull recovers it. Returns `false` when shed.
    fn outbox_enqueue(&mut self, peer: NodeId, header: GossipHeader, frame: Bytes) -> bool {
        let queue = self.outbox.entry(peer).or_default();
        if queue.len() >= self.outbox_cap {
            self.stats.outbox_shed += 1;
            return false;
        }
        queue.push_back((header, frame));
        true
    }

    /// Defers one push into `peer`'s outbox and schedules the zero-delay
    /// flush that sends it out as part of an aggregated batch.
    fn enqueue_push(
        &mut self,
        peer: NodeId,
        header: GossipHeader,
        frame: Bytes,
        ctx: &mut EventContext<'_>,
    ) {
        if self.outbox_enqueue(peer, header, frame) {
            self.arm_flush_timer(ctx);
        }
    }

    /// Sends every credit-covered outbox entry as aggregated
    /// [`GossipBatch`] packets, at most `batch_max` app messages per packet.
    /// Entries beyond a peer's credit stay queued until a grant refills it.
    fn flush_outboxes(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let credit_on = self.credit_enabled();
        // Deterministic peer order: the members list, never hash order.
        for &peer in &self.members {
            let Some(queue) = self.outbox.get_mut(&peer) else {
                continue;
            };
            let waiting = queue.len();
            if waiting == 0 || peer == local {
                continue;
            }
            let available = if credit_on {
                *self
                    .credits
                    .entry(peer)
                    .or_insert(self.credit_window as u32) as usize
            } else {
                usize::MAX
            };
            let take = waiting.min(available);
            if take < waiting {
                self.stats.deferred_pushes += (waiting - take) as u64;
            }
            if take == 0 {
                continue;
            }
            for chunk in queue.make_contiguous()[..take].chunks(self.batch_max) {
                let mut message = Message::new();
                message.push_header(encode_pooled(|w| GossipBatchBody::encode_frames(chunk, w)));
                ctx.dispatch(Event::down(GossipBatch::new(
                    local,
                    Dest::Node(peer),
                    message,
                )));
            }
            queue.drain(..take);
            if take == waiting {
                self.outbox.remove(&peer);
            }
            if credit_on {
                if let Some(credit) = self.credits.get_mut(&peer) {
                    *credit = credit.saturating_sub(take as u32);
                }
            }
        }
    }

    /// The spans the repair log can currently serve, in deterministic
    /// `(origin, inc)` order — the digest payload.
    fn digest_entries(&self) -> Vec<RepairRange> {
        self.log
            .spans()
            .into_iter()
            .map(|((origin, inc), lo, hi)| RepairRange {
                origin,
                inc,
                lo,
                hi,
            })
            .collect()
    }

    /// The credit value piggybacked on outgoing digests.
    fn grant_value(&self) -> u32 {
        if self.credit_enabled() {
            self.credit_window as u32
        } else {
            0
        }
    }

    /// Charges `count` push-path arrivals from `from` against the credit we
    /// granted it, re-granting once half the window is consumed.
    fn note_arrivals(&mut self, from: NodeId, count: u32, ctx: &mut EventContext<'_>) {
        if !self.credit_enabled() || !self.member_set.contains(&from) {
            return;
        }
        let window = self.credit_window as u32;
        let remaining = self.granted.entry(from).or_insert(window);
        *remaining = remaining.saturating_sub(count);
        if *remaining <= window / 2 {
            *remaining = window;
            // The re-grant is a targeted repair digest: the grant rides in
            // its credit field, and the log spans come along for free.
            let local = ctx.node_id();
            self.stats.repair_digests += 1;
            let mut message = Message::new();
            message.push(&RepairDigest {
                credit: window,
                entries: self.digest_entries(),
            });
            ctx.dispatch(Event::down(GossipRepairDigest::new(
                local,
                Dest::Node(from),
                message,
            )));
        }
    }

    /// One aggregated batch arrived: run every entry through the ordinary
    /// push-arrival path, then charge the batch against its sender's grant.
    fn on_batch(&mut self, from: NodeId, body: GossipBatchBody, ctx: &mut EventContext<'_>) {
        let arrivals = body.entries.len() as u32;
        for (header, message) in body.entries {
            self.on_push_arrival(from, header, message, ctx);
        }
        self.note_arrivals(from, arrivals, ctx);
    }

    /// A duplicate arrival is evidence the message is already circulating
    /// widely: any copy of it still waiting in an outbox (the zero-delay
    /// flush window, or a credit-starved queue) is redundant — drop it
    /// before it costs a transmission and a duplicate at the receiver.
    fn suppress_pending_relays(&mut self, origin: NodeId, inc: u64, seq: u64) {
        for queue in self.outbox.values_mut() {
            queue.retain(|(header, _)| {
                !(header.origin == origin && header.inc == inc && header.seq == seq)
            });
        }
    }

    /// The push-phase receive path for one batched message: dedup, track,
    /// log, relay while the TTL lasts, deliver upward.
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
        let local = ctx.node_id();
        let now = ctx.now_ms();
        if !self.remember((header.origin, header.inc, header.seq), now) {
            self.stats.duplicates += 1;
            self.suppress_pending_relays(header.origin, header.inc, header.seq);
            return;
        }
        if !self.record_delivered(header.origin, header.inc, header.seq) {
            self.stats.late_duplicates += 1;
            return;
        }
        // The log, and a relay waiting in a credit-starved outbox, outlive
        // the batch packet this message is a slice of: one private copy in
        // wire form serves them all.
        let frame = message.to_bytes();
        self.log_store((header.origin, header.inc), header.seq, frame.clone(), now);
        if header.ttl > 0 {
            // The sender plainly has the message too — relaying back to it
            // is a guaranteed duplicate, so it joins the exclusion list.
            let mut targets = std::mem::take(&mut self.relay_targets);
            sample_peers_into(
                &self.members,
                &[local, header.origin, from],
                self.fanout,
                ctx,
                &mut targets,
            );
            if !targets.is_empty() {
                self.stats.forwarded += 1;
                let relay = GossipHeader {
                    ttl: header.ttl - 1,
                    ..header
                };
                for target in &targets {
                    self.enqueue_push(*target, relay, frame.clone(), ctx);
                }
            }
            self.relay_targets = targets;
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
            let entries = self.digest_entries();
            let targets = self.random_targets(&[local], ctx);
            if !targets.is_empty() {
                self.stats.repair_digests += 1;
                let mut message = Message::new();
                message.push(&RepairDigest {
                    credit: self.grant_value(),
                    entries,
                });
                ctx.dispatch(Event::down(GossipRepairDigest::new(
                    local,
                    Dest::Nodes(targets),
                    message,
                )));
            }
        }
        // Credit-starved outboxes get a periodic flush retry, so a grant
        // lost on the wire delays deferred pushes by one interval at most.
        if self.outbox.values().any(|queue| !queue.is_empty()) {
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
        let grace = self.repair_log_ttl_ms.saturating_mul(2);
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
    fn on_repair_digest(&mut self, from: NodeId, digest: RepairDigest, ctx: &mut EventContext<'_>) {
        if !self.repair_enabled() {
            return;
        }
        // A digest from outside the installed view (an expelled member, a
        // stale incarnation) gets no pull: answering would re-open a repair
        // conversation with a peer the view agreement removed.
        if !self.member_set.contains(&from) {
            return;
        }
        if digest.credit > 0 && self.credit_enabled() {
            self.credits.insert(from, digest.credit);
            if self
                .outbox
                .get(&from)
                .is_some_and(|queue| !queue.is_empty())
            {
                self.arm_flush_timer(ctx);
            }
        }
        if self.pulls_this_interval >= self.repair_pull_budget {
            return;
        }
        let local = ctx.node_id();
        let mut wants: Vec<(NodeId, u64, Vec<u64>)> = Vec::new();
        let mut total = 0usize;
        for entry in &digest.entries {
            if entry.origin == local || entry.lo > entry.hi || total >= self.repair_window {
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
            let evicted_below = match self.delivered.get(&key) {
                Some(tracker) => tracker.floor + 1 < entry.lo,
                None => entry.lo > 1,
            };
            if evicted_below {
                let now = ctx.now_ms();
                let breach = self
                    .floor_breaches
                    .entry(key)
                    .or_insert((now, entry.lo, from));
                breach.1 = breach.1.max(entry.lo);
                breach.2 = from;
            } else {
                self.floor_breaches.remove(&key);
            }
            // Query only — a digest must never create (or displace) a
            // delivery record. An unknown stream is missing in its
            // entirety within the advertised span.
            let mut missing = Vec::new();
            match self.delivered.get(&(entry.origin, entry.inc)) {
                Some(tracker) => {
                    tracker.missing_in(entry.lo, entry.hi, self.repair_window - total, &mut missing)
                }
                None => {
                    let limit = self.repair_window - total;
                    missing.extend((entry.lo..=entry.hi).take(limit));
                }
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
        if !self.member_set.contains(&from) {
            return;
        }
        let local = ctx.node_id();
        // A malformed or adversarial pull cannot make the node stream more
        // than twice the advertised window per pull…
        let mut budget = self.repair_window * 2;
        // …nor more than four windows per repair interval across all pulls
        // (a greedy or corrupt puller cannot amplify this node's send rate).
        let interval_cap = self.repair_window * 4;
        for (origin, inc, seqs) in pull.wants {
            let stream = self.log.stream(&(origin, inc));
            let servable_floor = stream.and_then(|stream| stream.keys().next().copied());
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
            let Some(stream) = stream else {
                continue;
            };
            for seq in seqs {
                if budget == 0 {
                    return;
                }
                if self.pushes_this_interval >= interval_cap {
                    self.stats.rate_limited_pushes += 1;
                    return;
                }
                // The log wrote the frame itself; it always reads back.
                let Some(Ok(mut message)) = stream.get(&seq).map(Message::from_shared) else {
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
        if !self.repair_enabled() || !self.member_set.contains(&from) {
            return;
        }
        if body.floor == 0 {
            return;
        }
        let tracker = self.delivered.entry((body.origin, body.inc)).or_default();
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
        let now = ctx.now_ms();
        let local = ctx.node_id();
        let id = (header.origin, header.inc, header.seq);
        self.remember(id, now);
        if !self.record_delivered(header.origin, header.inc, header.seq) {
            // Already delivered — possibly long ago, with the seen-set entry
            // evicted since. The tracker is what prevents the re-delivery.
            self.stats.late_duplicates += 1;
            return;
        }
        self.log_store(
            (header.origin, header.inc),
            header.seq,
            original.to_bytes(),
            now,
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
                    self.flush_outboxes(ctx);
                }
                return;
            }
            ctx.forward(event);
            return;
        }

        if let Some(install) = event.get::<ViewInstall>() {
            self.members = install.view.members.clone();
            self.member_set = self.members.iter().copied().collect();
            // Per-peer backpressure state follows the membership: outboxes,
            // credits and grants of expelled peers are dropped.
            let member_set = &self.member_set;
            self.outbox.retain(|peer, _| member_set.contains(peer));
            self.credits.retain(|peer, _| member_set.contains(peer));
            self.granted.retain(|peer, _| member_set.contains(peer));
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
            let Ok(body) = digest.message.pop::<RepairDigest>() else {
                return;
            };
            self.on_repair_digest(from, body, ctx);
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
            let Ok(body) = batch.message.pop::<GossipBatchBody>() else {
                return;
            };
            self.on_batch(from, body, ctx);
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
                        let now = ctx.now_ms();
                        // Log the pre-header message (what receivers deliver)
                        // so the origin itself can serve repair pulls, and
                        // record the own send as delivered so the node never
                        // pulls its own messages.
                        let original = data.message.to_bytes();
                        self.remember((header.origin, header.inc, header.seq), now);
                        self.record_delivered(header.origin, header.inc, header.seq);
                        self.log_store(
                            (header.origin, header.inc),
                            header.seq,
                            original.clone(),
                            now,
                        );
                        let targets = self.random_targets(&[local], ctx);
                        if self.aggregating() {
                            // Batched push path: the send is deferred into
                            // the per-peer outboxes and leaves this instant
                            // as aggregated packets, credit permitting.
                            for target in targets {
                                self.enqueue_push(target, header, original.clone(), ctx);
                            }
                            return;
                        }
                        data.message.push(&header);
                        event
                            .get_mut::<DataEvent>()
                            .expect("checked above")
                            .header
                            .dest = Dest::Nodes(targets);
                        ctx.forward(event);
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
                let local = ctx.node_id();
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                let Ok(header) = data.message.pop::<GossipHeader>() else {
                    return;
                };
                let now = ctx.now_ms();
                if header.seq != 0 {
                    if !self.remember((header.origin, header.inc, header.seq), now) {
                        self.stats.duplicates += 1;
                        return;
                    }
                    if !self.record_delivered(header.origin, header.inc, header.seq) {
                        // The seen-set entry was evicted but the delivery
                        // tracker still knows the message: suppress the late
                        // duplicate instead of re-delivering it.
                        self.stats.late_duplicates += 1;
                        return;
                    }
                    // One private copy for the log and the outboxes, which
                    // both outlive the packet.
                    let kept = data.message.to_bytes();
                    self.log_store((header.origin, header.inc), header.seq, kept.clone(), now);
                    if header.ttl > 0 {
                        let relay = GossipHeader {
                            origin: header.origin,
                            inc: header.inc,
                            seq: header.seq,
                            ttl: header.ttl - 1,
                        };
                        let targets = self.random_targets(&[local, header.origin], ctx);
                        if !targets.is_empty() {
                            self.stats.forwarded += 1;
                            if self.aggregating() {
                                for target in targets {
                                    self.enqueue_push(target, relay, kept.clone(), ctx);
                                }
                            } else {
                                let mut forwarded_message = data.message.clone();
                                forwarded_message.push(&relay);
                                ctx.dispatch(Event::down(DataEvent::new(
                                    header.origin,
                                    Dest::Nodes(targets),
                                    forwarded_message,
                                )));
                            }
                        }
                    }
                }
                data.header.source = header.origin;
                ctx.forward(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::config::{ChannelConfig, LayerSpec};
    use morpheus_appia::platform::{InPacket, PacketDest, TestPlatform};
    use morpheus_appia::testing::Harness;
    use morpheus_appia::{Kernel, Message};

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
        let forwarded = receiver_platform.take_sent();
        assert!(!forwarded.is_empty(), "first reception is forwarded onward");

        receiver
            .deliver_packet(packet, &mut receiver_platform)
            .unwrap();
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
        for batch_max in ["1", "4"] {
            let config = ChannelConfig::new("data")
                .with_layer(LayerSpec::new("network"))
                .with_layer(
                    LayerSpec::new("gossip")
                        .with_param("members", "0,1")
                        .with_param("ttl", "2")
                        .with_param("repair_log_cap", "4096")
                        .with_param("batch_max", batch_max),
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
                // Batched pushes leave on the zero-delay flush timer. The
                // repair timer stays unfired: a digest encoded while the data
                // packet is still alive could exhaust the buffer under a
                // (legitimate, transient) view and move it.
                for (at_ms, key) in std::mem::take(&mut sender_platform.timers) {
                    if at_ms == 0 {
                        sender.timer_expired(key, &mut sender_platform);
                    }
                }
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
                receiver_platform.take_sent();
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
                "batch_max={batch_max}: 1,000 packets left from {} distinct sender \
                 buffer addresses — a retained slice stopped the buffer from being recycled",
                starts.len()
            );
        }
    }

    #[test]
    fn duplicate_suppression_memory_is_capped_by_ring_and_ttl() {
        let mut gossip = test_session(&[0, 1, 2]);
        gossip.seen_cap = 16;
        gossip.seen_ttl_ms = 1000;

        // The ring caps the set no matter how many distinct ids arrive.
        for seq in 0..100u64 {
            assert!(gossip.remember((NodeId(1), 0, seq), 0));
        }
        assert_eq!(gossip.seen_len(), 16, "ring eviction bounds the memory");
        assert!(
            gossip.remember((NodeId(1), 0, 5), 10),
            "an id evicted by the ring is (correctly) treated as new again"
        );
        assert!(
            !gossip.remember((NodeId(1), 0, 99), 10),
            "recent ids suppress"
        );

        // Age-based expiry clears the set even without capacity pressure.
        assert!(!gossip.remember((NodeId(1), 0, 99), 999));
        assert!(
            gossip.remember((NodeId(1), 0, 99), 1010),
            "entries older than the TTL are evicted"
        );
        assert!(gossip.seen_len() <= 16);
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
        let mut message = Message::new();
        message.push(&RepairDigest {
            credit: 0,
            entries: vec![RepairRange {
                origin: NodeId(0),
                inc: 7,
                lo: 1,
                hi: 3,
            }],
        });
        gossip.run_up(
            Event::up(GossipRepairDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                message,
            )),
            &mut platform,
        );
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
        let mut params = gossip_params(&members);
        params.insert("repair_pull_budget".into(), "1".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        let digest_from = |from: u32, hi: u64| {
            let mut message = Message::new();
            message.push(&RepairDigest {
                credit: 0,
                entries: vec![RepairRange {
                    origin: NodeId(0),
                    inc: 1,
                    lo: 1,
                    hi,
                }],
            });
            Event::up(GossipRepairDigest::new(
                NodeId(from),
                Dest::Node(NodeId(1)),
                message,
            ))
        };

        gossip.run_up(digest_from(2, 3), &mut platform);
        assert_eq!(
            gossip
                .drain_down()
                .iter()
                .filter(|event| event.is::<GossipRepairPull>())
                .count(),
            1
        );
        // The budget for this interval is spent: a second digest is ignored.
        gossip.run_up(digest_from(3, 3), &mut platform);
        assert_eq!(
            gossip
                .drain_down()
                .iter()
                .filter(|event| event.is::<GossipRepairPull>())
                .count(),
            0,
            "per-interval pull budget enforced"
        );
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

        let mut message = Message::new();
        message.push(&RepairPull {
            wants: vec![(NodeId(0), 0, vec![1, 2, 9])],
        });
        gossip.run_up(
            Event::up(GossipRepairPull::new(
                NodeId(2),
                Dest::Node(NodeId(0)),
                message,
            )),
            &mut platform,
        );
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
        // The regression the repair pass must not introduce: a message whose
        // seen-set entry was evicted (ring pressure) but that is still in
        // the repair log / delivery tracker must NOT reach the application
        // again when a late NACK pull re-streams it.
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut params = gossip_params(&members);
        params.insert("seen_cap".into(), "16".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        // Deliver (origin 0, inc 1, seq 1) through the normal push phase.
        let deliver = |seq: u64| {
            let mut message = Message::with_payload(&b"x"[..]);
            message.push(&GossipHeader {
                origin: NodeId(0),
                inc: 1,
                seq,
                ttl: 0,
            });
            Event::up(DataEvent::new(NodeId(0), Dest::Node(NodeId(1)), message))
        };
        let up = gossip.run_up(deliver(1), &mut platform);
        assert_eq!(up.iter().filter(|event| event.is::<DataEvent>()).count(), 1);

        // Flood the seen set far past its cap so (0, 1, 1) is evicted.
        for seq in 100..200u64 {
            gossip.run_up(deliver(seq), &mut platform);
        }
        gossip.drain_down();

        // A late repair push re-streams seq 1: the delivery tracker — which
        // is never capacity-evicted — suppresses the re-delivery.
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

        // The same holds on the push-phase path: re-receiving the evicted
        // message as a plain gossip forward is suppressed by the tracker.
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

        let deliver = |inc: u64, seq: u64| {
            let mut message = Message::with_payload(&b"x"[..]);
            message.push(&GossipHeader {
                origin: NodeId(0),
                inc,
                seq,
                ttl: 0,
            });
            Event::up(DataEvent::new(NodeId(0), Dest::Node(NodeId(1)), message))
        };
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
        let mut message = Message::new();
        message.push(&RepairPull {
            wants: vec![(NodeId(0), 0, vec![1])],
        });
        gossip.run_up(
            Event::up(GossipRepairPull::new(
                NodeId(2),
                Dest::Node(NodeId(0)),
                message,
            )),
            &mut platform,
        );
        assert!(gossip
            .drain_down()
            .iter()
            .all(|event| !event.is::<GossipRepairPush>()));
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
        let mut message = Message::new();
        message.push(&RepairDigest {
            credit: 0,
            entries: vec![RepairRange {
                origin: NodeId(0),
                inc: 7,
                lo: 1,
                hi: 3,
            }],
        });
        gossip.run_up(
            Event::up(GossipRepairDigest::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                message,
            )),
            &mut platform,
        );
        assert!(
            gossip
                .drain_down()
                .iter()
                .all(|event| !event.is::<GossipRepairPull>()),
            "no pull goes back to an expelled digest sender"
        );

        // ...and its pull is not served from the log, while a live member's
        // identical pull is.
        let pull_from = |from: u32| {
            let mut message = Message::new();
            message.push(&RepairPull {
                wants: vec![(NodeId(1), 0, vec![1])],
            });
            Event::up(GossipRepairPull::new(
                NodeId(from),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
        gossip.run_up(pull_from(3), &mut platform);
        assert!(
            gossip
                .drain_down()
                .iter()
                .all(|event| !event.is::<GossipRepairPush>()),
            "the repair log is not served to expelled members"
        );
        gossip.run_up(pull_from(2), &mut platform);
        assert_eq!(
            gossip
                .drain_down()
                .iter()
                .filter(|event| event.is::<GossipRepairPush>())
                .count(),
            1,
            "a current member's identical pull is served"
        );
    }
    #[test]
    fn sustained_churn_keeps_delivery_and_repair_memory_bounded() {
        let mut gossip = test_session(&[0, 1, 2, 3]);
        gossip.seen_cap = 64;
        gossip.repair_log_cap = 128;
        gossip.repair_interval_ms = 500;

        // A flapping member (node 3) rejoins fifty times; every incarnation
        // opens a fresh stream whose burst is remembered, tracked and
        // logged. All three memories must stay inside their bounds at every
        // step of the churn, not just at the end.
        for incarnation in 0..50u64 {
            let now = incarnation * 1_000;
            for seq in 1..=20u64 {
                gossip.remember((NodeId(3), incarnation, seq), now);
                assert!(gossip.record_delivered(NodeId(3), incarnation, seq));
                gossip.log_store(
                    (NodeId(3), incarnation),
                    seq,
                    Message::new().to_bytes(),
                    now,
                );
            }
            gossip.evict_log(now);
            assert!(gossip.seen_len() <= 64, "seen ring bound");
            assert!(gossip.log_len() <= 128, "repair log cap bound");
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
        gossip.evict_log(50_000 + gossip.repair_log_ttl_ms + 1);
        assert_eq!(gossip.log_len(), 0, "TTL drains the log once churn stops");
    }

    #[test]
    fn same_instant_pushes_leave_as_aggregated_batches() {
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..4).collect();
        let mut params = gossip_params(&members);
        params.insert("batch_max".into(), "4".into());
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
        params.insert("batch_max".into(), "4".into());
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
        let members = [0u32, 1];
        let mut params = gossip_params(&members);
        params.insert("credit_window".into(), "2".into());
        params.insert("batch_max".into(), "4".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        for text in [&b"m1"[..], &b"m2"[..], &b"m3"[..]] {
            gossip.run_down(
                Event::down(DataEvent::to_group(NodeId(0), Message::with_payload(text))),
                &mut platform,
            );
        }
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
        assert_eq!(batches.len(), 1);
        let body = batches[0]
            .get::<GossipBatch>()
            .unwrap()
            .message
            .clone()
            .pop::<GossipBatchBody>()
            .unwrap();
        assert_eq!(
            body.entries.len(),
            2,
            "the credit window caps what one flush may send"
        );

        // A grant digest from the peer refills the credit and re-arms the
        // flush, releasing the deferred push.
        let mut message = Message::new();
        message.push(&RepairDigest {
            credit: 2,
            entries: vec![],
        });
        gossip.run_up(
            Event::up(GossipRepairDigest::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                message,
            )),
            &mut platform,
        );
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
        assert_eq!(body.entries[0].0.seq, 3);
    }

    #[test]
    fn outbox_overflow_sheds_newest_and_stays_bounded() {
        let mut gossip = test_session(&[0, 1]);
        gossip.credit_window = 2;
        gossip.outbox_cap = 8;
        let header = |seq: u64| GossipHeader {
            origin: NodeId(0),
            inc: 1,
            seq,
            ttl: 2,
        };
        for seq in 1..=10u64 {
            gossip.outbox_enqueue(NodeId(1), header(seq), Message::new().to_bytes());
        }
        let queue = gossip.outbox.get(&NodeId(1)).unwrap();
        assert_eq!(queue.len(), 8, "the outbox never grows past its cap");
        assert_eq!(
            queue.front().unwrap().0.seq,
            1,
            "drop-newest keeps the oldest"
        );
        assert_eq!(queue.back().unwrap().0.seq, 8, "the newest pushes are shed");
        assert_eq!(gossip.stats.outbox_shed, 2);
    }

    #[test]
    fn pulls_below_the_log_floor_are_answered_with_a_repair_floor() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..4).collect();
        let mut params = gossip_params(&members);
        params.insert("repair_interval_ms".into(), "100".into());
        params.insert("repair_log_ttl_ms".into(), "100".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        // Deliver seqs 1..=6 of (origin 0, inc 1), then age them out of the
        // repair log: delivered knowledge survives, servability does not.
        let deliver = |seq: u64| {
            let mut message = Message::with_payload(&b"x"[..]);
            message.push(&GossipHeader {
                origin: NodeId(0),
                inc: 1,
                seq,
                ttl: 0,
            });
            Event::up(DataEvent::new(NodeId(0), Dest::Node(NodeId(1)), message))
        };
        for seq in 1..=6u64 {
            gossip.run_up(deliver(seq), &mut platform);
        }
        platform.advance(150);
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            gossip.fire_timer(key, &mut platform);
        }
        gossip.run_up(deliver(7), &mut platform);
        gossip.drain_down();

        // A pull for the evicted span gets a floor answer; the still-logged
        // seq is served normally alongside it.
        let mut message = Message::new();
        message.push(&RepairPull {
            wants: vec![(NodeId(0), 1, vec![1, 2, 7])],
        });
        gossip.run_up(
            Event::up(GossipRepairPull::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                message,
            )),
            &mut platform,
        );
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
        let deliver = |seq: u64| {
            let mut message = Message::with_payload(&b"x"[..]);
            message.push(&GossipHeader {
                origin: NodeId(0),
                inc: 1,
                seq,
                ttl: 0,
            });
            Event::up(DataEvent::new(NodeId(0), Dest::Node(NodeId(1)), message))
        };
        gossip.run_up(deliver(1), &mut platform);
        gossip.run_up(deliver(2), &mut platform);
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
        let digest = |lo: u64, hi: u64| {
            let mut message = Message::new();
            message.push(&RepairDigest {
                credit: 0,
                entries: vec![RepairRange {
                    origin: NodeId(0),
                    inc: 1,
                    lo,
                    hi,
                }],
            });
            Event::up(GossipRepairDigest::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
        gossip.run_up(digest(1, 6), &mut platform);
        assert!(
            gossip
                .drain_down()
                .iter()
                .all(|event| !event.is::<GossipRepairPull>()),
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
        let mut params = gossip_params(&members);
        params.insert("repair_pull_budget".into(), "16".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        // Seqs 1..=2 delivered before the cut; the advertiser's log now
        // starts at 9.
        let deliver = |seq: u64| {
            let mut message = Message::with_payload(&b"x"[..]);
            message.push(&GossipHeader {
                origin: NodeId(0),
                inc: 1,
                seq,
                ttl: 0,
            });
            Event::up(DataEvent::new(NodeId(0), Dest::Node(NodeId(1)), message))
        };
        gossip.run_up(deliver(1), &mut platform);
        gossip.run_up(deliver(2), &mut platform);
        gossip.drain_down();

        let digest = |lo: u64, hi: u64| {
            let mut message = Message::new();
            message.push(&RepairDigest {
                credit: 0,
                entries: vec![RepairRange {
                    origin: NodeId(0),
                    inc: 1,
                    lo,
                    hi,
                }],
            });
            Event::up(GossipRepairDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
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
        platform.advance(DEFAULT_REPAIR_LOG_TTL_MS * 2);
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
        let mut params = gossip_params(&members);
        params.insert("repair_window".into(), "2".into());
        let mut gossip = Harness::new(GossipLayer, &params, &mut platform);

        // Twenty logged messages of (origin 0, inc 1).
        let deliver = |seq: u64| {
            let mut message = Message::with_payload(&b"x"[..]);
            message.push(&GossipHeader {
                origin: NodeId(0),
                inc: 1,
                seq,
                ttl: 0,
            });
            Event::up(DataEvent::new(NodeId(0), Dest::Node(NodeId(1)), message))
        };
        for seq in 1..=20u64 {
            gossip.run_up(deliver(seq), &mut platform);
        }
        gossip.drain_down();

        let pull = |seqs: Vec<u64>| {
            let mut message = Message::new();
            message.push(&RepairPull {
                wants: vec![(NodeId(0), 1, seqs)],
            });
            Event::up(GossipRepairPull::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
        let pushes = |gossip: &mut Harness| {
            gossip
                .drain_down()
                .iter()
                .filter(|event| event.is::<GossipRepairPush>())
                .count()
        };

        // Per-pull budget: 2 × window = 4 of the 6 asked-for seqs.
        gossip.run_up(pull((1..=6).collect()), &mut platform);
        assert_eq!(pushes(&mut gossip), 4, "per-pull budget of 2x window");
        // The interval cap (4 × window = 8) lets one more pull through...
        gossip.run_up(pull((7..=10).collect()), &mut platform);
        assert_eq!(pushes(&mut gossip), 4);
        // ...then cuts every further response until the next repair tick.
        gossip.run_up(pull(vec![11, 12]), &mut platform);
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
        gossip.run_up(pull(vec![11, 12]), &mut platform);
        assert_eq!(pushes(&mut gossip), 2, "the tick resets the push budget");
    }
}
