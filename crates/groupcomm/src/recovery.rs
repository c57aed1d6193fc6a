//! View-synchronous state transfer for member rejoin.
//!
//! A genuinely restarted node has lost everything: its context store, its
//! application state and its place in the group view. This layer gives it a
//! way back in, as a first-class protocol rather than an afterthought:
//!
//! 1. **Joining** — the restarted node comes up with `joining=true` (its
//!    vsync layer above holds an empty view and blocks sends). It multicasts
//!    a [`JoinRequest`] to the boot membership every `retry_ms` until the
//!    group's view coordinator either runs a join view change or — when the
//!    node was never expelled — re-asserts the current view at it.
//! 2. **Syncing** — once a view containing the local node installs, the
//!    joiner pulls a **chunked, versioned state snapshot** from a
//!    deterministic donor: the lowest live id in the installed view. The
//!    snapshot is the concatenation of every registered [`StateSection`]
//!    (the Cocaditem context store, app-level state such as chat room
//!    history), exported by the donor at request time and streamed in
//!    `chunk_bytes` chunks, `WINDOW` chunks per request round-trip. Lost
//!    chunks are re-requested; a donor that stops making progress for
//!    `transfer_timeout_ms` (or is suspected by the failure detector) fails
//!    over to the next donor under a **fresh transfer epoch**, so stale
//!    chunks from the dead donor can never corrupt the new stream.
//! 3. **Member** — when the snapshot is complete it is installed through the
//!    sections, a [`morpheus_appia::platform::DeliveryKind::Rejoined`]
//!    report goes to the application, and every data message received since
//!    the join view installed — buffered below the view-synchrony layer so
//!    view synchrony holds — is replayed upward in arrival order: the
//!    application sees the snapshot first, then the join view's messages.
//!
//! On every *non*-joining node the layer is a pass-through that answers
//! state requests when it is chosen as donor. A member that gossip repair
//! cannot bring up to date (its missed span was evicted from every repair
//! log, [`CatchupRequest`]) pulls the same snapshot through the same
//! transfer machine from the one donor gossip named — a *catch-up*, under
//! its own range of transfer epochs — without leaving the view.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::hash::HashMap;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::{DeliveryKind, NodeId};
use morpheus_appia::sendable_event;
use morpheus_appia::session::Session;
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};

use crate::events::{Alive, CatchupRequest, JoinRequest, Rejoin, Suspect, ViewInstall};
use crate::round::{Ballot, Engine as RoundEngine, Tick};
use crate::view::View;

/// Registered name of the recovery / state-transfer layer.
pub const RECOVERY_LAYER: &str = "recovery";

/// Timer tag of the join/transfer retry tick.
const RETRY_TAG: u32 = 1;

/// Chunks streamed per request round-trip (pull-driven flow control — and
/// what makes a donor crash observable *mid*-transfer).
const WINDOW: usize = 8;

/// Hard cap on buffered join-view messages (drop-newest beyond it: the kept
/// prefix replays in order and the shed tail is recoverable through the
/// normal repair path once the node is a member).
const BUFFER_CAP: usize = 4096;

/// Transfer epochs at or above this base mark a *catch-up* transfer: a
/// healed member pulling a targeted snapshot after gossip repair reported
/// its missed span evicted ([`CatchupRequest`]). Disjoint from rejoin
/// epochs (which count up from 1) so a donor serving both never mixes the
/// streams and the joiner can route chunks without extra state.
const CATCHUP_EPOCH_BASE: u64 = 1_000_000_000;

sendable_event! {
    /// Joiner → donor: start (or continue) a snapshot transfer (header:
    /// [`StateRequestBody`]).
    pub struct StateRequest, class: Control
}

sendable_event! {
    /// Donor → joiner: one snapshot chunk (header: [`StateChunkHeader`];
    /// payload: the chunk bytes).
    pub struct StateChunk, class: Control
}

/// One named, independently versioned piece of node state that survives a
/// restart by being streamed from a donor.
///
/// Implementations use interior mutability (`Rc<RefCell<..>>`) because the
/// same live state is shared between the protocol layer and its owner (the
/// context store with the Cocaditem session, room history with the
/// application).
pub trait StateSection {
    /// Stable section name used to match exporter and installer.
    fn name(&self) -> &str;
    /// Serialises the current state.
    fn export(&self) -> Vec<u8>;
    /// Merges a snapshot into the local state. Returns `false` when the
    /// bytes are malformed (the transfer fails over to the next donor).
    fn install(&self, bytes: &[u8]) -> bool;
}

/// Wire body of a [`StateRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateRequestBody {
    /// The joiner's transfer epoch: bumped on every donor failover so late
    /// chunks from a previous donor are ignored.
    pub transfer_epoch: u64,
    /// Chunk indices the joiner still misses (empty = start of transfer,
    /// donor answers with a fresh snapshot's first window).
    pub missing: Vec<u32>,
}

impl Wire for StateRequestBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.transfer_epoch);
        w.put_gap_list(&self.missing);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            transfer_epoch: r.get_varint()?,
            missing: r.get_gap_list()?,
        })
    }
}

/// Wire header of a [`StateChunk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateChunkHeader {
    /// Transfer epoch the chunk answers.
    pub transfer_epoch: u64,
    /// Snapshot version (donor capture time): all chunks of one transfer
    /// carry the same version, so a joiner can detect a donor that
    /// re-exported mid-stream.
    pub version: u64,
    /// Index of this chunk.
    pub index: u32,
    /// Total number of chunks in the snapshot.
    pub total: u32,
}

impl Wire for StateChunkHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.transfer_epoch);
        w.put_u64(self.version);
        w.put_u32(self.index);
        w.put_u32(self.total);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            transfer_epoch: r.get_u64()?,
            version: r.get_u64()?,
            index: r.get_u32()?,
            total: r.get_u32()?,
        })
    }
}

/// Encodes every section into one snapshot blob.
fn encode_snapshot(sections: &[Rc<dyn StateSection>]) -> Bytes {
    let mut w = WireWriter::new();
    w.put_u32(sections.len() as u32);
    for section in sections {
        w.put_str(section.name());
        w.put_bytes(&section.export());
    }
    w.finish()
}

/// The recovery / state-transfer layer.
///
/// Parameters:
///
/// * `members` — comma-separated boot membership (join-request targets);
/// * `joining` — whether this node is a restarted member re-entering the
///   group (default false);
/// * `retry_ms` — join-request and chunk re-request cadence (default
///   500 ms);
/// * `transfer_timeout_ms` — progress timeout before donor failover
///   (default 4000 ms);
/// * `chunk_bytes` — snapshot chunk size (default 1024).
pub struct RecoveryLayer {
    sections: Vec<Rc<dyn StateSection>>,
}

impl RecoveryLayer {
    /// A recovery layer with no registered state sections (view agreement
    /// and rejoin still work; the snapshot is just empty).
    pub fn new() -> Self {
        Self {
            sections: Vec::new(),
        }
    }

    /// A recovery layer streaming the given state sections.
    pub fn with_sections(sections: Vec<Rc<dyn StateSection>>) -> Self {
        Self { sections }
    }
}

impl Default for RecoveryLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for RecoveryLayer {
    fn name(&self) -> &str {
        RECOVERY_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
            EventSpec::of::<ViewInstall>(),
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<Suspect>(),
            EventSpec::of::<Alive>(),
            EventSpec::of::<CatchupRequest>(),
            EventSpec::of::<StateRequest>(),
            EventSpec::of::<StateChunk>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["JoinRequest", "Rejoin", "StateRequest", "StateChunk"]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let joining = param_or(params, "joining", false);
        Box::new(RecoverySession {
            sections: self.sections.clone(),
            members: param_node_list(params, "members"),
            view: None,
            phase: if joining {
                Phase::Joining
            } else {
                Phase::Member
            },
            buffered: VecDeque::new(),
            retry_ms: param_or(params, "retry_ms", 500u64).max(10),
            transfer_timeout_ms: param_or(params, "transfer_timeout_ms", 4000u64).max(100),
            chunk_bytes: param_or(params, "chunk_bytes", 1024usize).max(16),
            suspected: BTreeSet::new(),
            serving: HashMap::default(),
            timer: None,
            phase_started_ms: 0,
            catchup: None,
            catchup_count: 0,
            catchup_done_ms: None,
            buffer_shed: 0,
        })
    }
}

/// Where a node stands on its way (back) into the group.
#[derive(Debug)]
enum Phase {
    /// A normal member: pass-through, donates snapshots on request.
    Member,
    /// Restarted, multicasting join requests until a view admits it.
    Joining,
    /// Admitted; pulling the state snapshot from a donor. Boxed: the
    /// transfer (round engine, chunk map) dwarfs the other variants.
    Syncing(Box<Transfer>),
}

/// Puller-side state of one snapshot transfer: a rejoin's (after the join
/// view installs) or a catch-up's (a member whose missed span gossip repair
/// reported evicted). The two differ only in their donors, their epoch
/// namespace and what a finished or failed transfer leads to.
#[derive(Debug)]
struct Transfer {
    /// Donor candidates, never empty: the join view's other members in
    /// ascending id (the deterministic donor is the lowest live id), or the
    /// one targeted catch-up donor.
    donors: Vec<NodeId>,
    donor_index: usize,
    /// The shared round engine instantiated over *chunk indices*: the
    /// transfer epoch is the round ballot (held by the donor), received
    /// chunks are its acks, and the stall clock is the round's progress
    /// clock (refreshed per chunk, ticked by the retry timer).
    engine: RoundEngine<u32>,
    version: Option<u64>,
    total: Option<u32>,
    // bound: at most `total` chunks of one snapshot; dropped with the transfer on failover, completion or abandonment.
    chunks: BTreeMap<u32, Bytes>,
    // bound: <= WINDOW indices (one request window).
    outstanding: BTreeSet<u32>,
    bytes: u64,
}

/// What one arriving chunk did to a [`Transfer`].
enum Accepted {
    /// Another epoch's or another node's chunk, or a torn stream's: ignored.
    NotOurs,
    /// Recorded; chunks are still missing.
    Pending,
    /// Recorded, and the snapshot is whole.
    Whole,
}

impl Transfer {
    /// A fresh transfer from `donors[donor_index]` under `transfer_epoch`.
    fn open(donors: Vec<NodeId>, donor_index: usize, transfer_epoch: u64, now: u64) -> Self {
        let mut transfer = Self {
            donors,
            donor_index,
            engine: RoundEngine::new(),
            version: None,
            total: None,
            chunks: BTreeMap::new(),
            outstanding: BTreeSet::new(),
            bytes: 0,
        };
        let ballot = Ballot::new(transfer_epoch, transfer.donor());
        transfer.engine.open_at(ballot, [], now);
        transfer
    }

    fn donor(&self) -> NodeId {
        let index = self.donor_index % self.donors.len().max(1);
        self.donors.get(index).copied().unwrap_or_default()
    }

    /// The transfer epoch: the in-flight round's ballot epoch.
    fn transfer_epoch(&self) -> u64 {
        self.engine.round_epoch().unwrap_or(0)
    }

    /// Asks the donor for the next (or the still-missing) window of chunks.
    fn send_request(&mut self, ctx: &mut EventContext<'_>) {
        // Before the first chunk the total is unknown: an empty missing list
        // asks the donor for a fresh snapshot's first window. Afterwards the
        // engine's un-acked chunk indices are exactly what is missing.
        let missing: Vec<u32> = match self.total {
            None => Vec::new(),
            Some(_) => self.engine.missing().into_iter().take(WINDOW).collect(),
        };
        self.outstanding = missing.iter().copied().collect();
        let mut message = Message::new();
        message.push(&StateRequestBody {
            transfer_epoch: self.transfer_epoch(),
            missing,
        });
        ctx.dispatch(Event::down(StateRequest::new(
            ctx.node_id(),
            Dest::Node(self.donor()),
            message,
        )));
    }

    /// Accounts one arriving chunk.
    fn accept(
        &mut self,
        from: NodeId,
        header: StateChunkHeader,
        payload: Bytes,
        now: u64,
    ) -> Accepted {
        if header.transfer_epoch != self.transfer_epoch() || from != self.donor() {
            return Accepted::NotOurs; // a late chunk from a previous donor or transfer
        }
        match self.version {
            None => {
                self.version = Some(header.version);
                self.total = Some(header.total);
                // The first chunk reveals the participant set: one round
                // participant per chunk index. The initial request could
                // not name indices (the total was unknown); the donor
                // answered with the first window, which is what is
                // outstanding now.
                self.engine.extend_participants(0..header.total);
                self.outstanding = (0..header.total.min(WINDOW as u32)).collect();
            }
            Some(version) if version != header.version => return Accepted::NotOurs,
            _ => {}
        }
        if header.index >= self.total.unwrap_or(0) {
            return Accepted::NotOurs;
        }
        let len = payload.len() as u64;
        if self.chunks.insert(header.index, payload).is_none() {
            self.bytes += len;
        }
        self.engine.record_ack(header.transfer_epoch, header.index);
        self.outstanding.remove(&header.index);
        self.engine.note_progress(now);
        if self.engine.completed(&BTreeSet::new()) {
            Accepted::Whole
        } else {
            Accepted::Pending
        }
    }

    /// The snapshot: every chunk, in index order.
    fn blob(&self) -> Vec<u8> {
        let mut blob = Vec::with_capacity(self.bytes as usize);
        for chunk in self.chunks.values() {
            blob.extend_from_slice(chunk);
        }
        blob
    }
}

/// Donor-side cache of one in-flight outgoing transfer: re-requested chunks
/// must come from the *same* snapshot version the stream started with.
#[derive(Debug)]
struct OutgoingTransfer {
    transfer_epoch: u64,
    version: u64,
    chunks: Vec<Bytes>,
    /// When the joiner last asked for a window — the cache holds a full
    /// snapshot copy, so entries whose transfer went quiet are evicted.
    last_request_ms: u64,
}

/// Session state of the recovery layer.
pub struct RecoverySession {
    // bound: fixed at stack construction -- one entry per registered state section.
    sections: Vec<Rc<dyn StateSection>>,
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    view: Option<View>,
    phase: Phase,
    // bound: capped at BUFFER_CAP (drop-newest + shed counter); flushed when the join completes.
    buffered: VecDeque<Event>,
    retry_ms: u64,
    transfer_timeout_ms: u64,
    chunk_bytes: usize,
    /// Members of the current view the local failure detector suspects —
    /// the input of the expelled-but-alive detection: when *every* other
    /// view member is suspected at once, the local node is overwhelmingly
    /// the one that was cut off.
    // bound: subset of the current view; retained on view install, cleared on resolution.
    suspected: BTreeSet<NodeId>,
    // bound: one transfer per active joiner; quiet transfers are evicted after the transfer timeout and non-members on view install.
    serving: HashMap<NodeId, OutgoingTransfer>,
    timer: Option<u64>,
    phase_started_ms: u64,
    /// The in-flight catch-up transfer, if any (at most one at a time). Its
    /// epochs start at `CATCHUP_EPOCH_BASE`, which routes its chunks here.
    catchup: Option<Transfer>,
    /// Completed catch-up transfers (numbers the catch-up epochs).
    catchup_count: u64,
    /// When the last catch-up completed — cooldown against floor-answer
    /// storms re-pulling a snapshot that was just installed.
    catchup_done_ms: Option<u64>,
    /// Join-view messages shed because the buffer hit `BUFFER_CAP`.
    buffer_shed: u64,
}

impl std::fmt::Debug for RecoverySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoverySession")
            .field("phase", &self.phase)
            .field("members", &self.members)
            .field("buffered", &self.buffered.len())
            .field(
                "sections",
                &self
                    .sections
                    .iter()
                    .map(|section| section.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl RecoverySession {
    /// Join-view messages shed at the buffer cap (see `BUFFER_CAP`).
    pub fn buffer_shed(&self) -> u64 {
        self.buffer_shed
    }

    fn arm_timer(&mut self, ctx: &mut EventContext<'_>) {
        if let Some(timer_id) = self.timer.take() {
            ctx.cancel_timer(timer_id);
        }
        self.timer = Some(ctx.set_timer(self.retry_ms, RETRY_TAG));
    }

    fn send_join_request(&self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let targets: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|member| *member != local)
            .collect();
        if targets.is_empty() {
            return;
        }
        ctx.dispatch(Event::down(JoinRequest::new(
            local,
            Dest::Nodes(targets),
            Message::new(),
        )));
    }

    /// Starts (or ignores) a targeted catch-up against the given donor:
    /// gossip repair reported a missed span evicted from the donor's log, so
    /// only a snapshot section pull can close the gap. The stack stays up —
    /// no view change, no rejoin.
    fn begin_catchup(&mut self, donor: NodeId, ctx: &mut EventContext<'_>) {
        let now = ctx.now_ms();
        if !matches!(self.phase, Phase::Member) || self.catchup.is_some() || donor == ctx.node_id()
        {
            return; // rejoining already transfers; one catch-up at a time
        }
        // Floor answers arrive once per floored stream; the first one's
        // snapshot covers them all, so follow-ups inside the cooldown are
        // satisfied already.
        if let Some(done) = self.catchup_done_ms {
            if now.saturating_sub(done) < self.transfer_timeout_ms {
                return;
            }
        }
        let epoch = CATCHUP_EPOCH_BASE + self.catchup_count;
        let catchup = self
            .catchup
            .insert(Transfer::open(vec![donor], 0, epoch, now));
        ctx.deliver(DeliveryKind::Notification(format!(
            "repair floor from {donor}: pulling a targeted state snapshot to \
             close the evicted span"
        )));
        catchup.send_request(ctx);
        self.arm_timer(ctx);
    }

    /// A whole catch-up snapshot arrived: install it and report. A malformed
    /// one abandons the transfer instead of failing over — the donor was
    /// *targeted* (its digest proved it complete), and if the gap persists
    /// gossip raises a fresh [`CatchupRequest`] on the next aged breach.
    fn finish_catchup(&mut self, ctx: &mut EventContext<'_>) {
        let Some(catchup) = self.catchup.take() else {
            return;
        };
        let donor = catchup.donor();
        if self.install_snapshot(&catchup.blob()) {
            self.catchup_count += 1;
            self.catchup_done_ms = Some(ctx.now_ms());
            ctx.deliver(DeliveryKind::CaughtUp {
                donor,
                bytes: catchup.bytes,
                chunks: catchup.total.unwrap_or(0),
            });
        } else {
            ctx.deliver(DeliveryKind::Notification(format!(
                "catch-up donor {donor} streamed a malformed snapshot; abandoning \
                 (gossip will re-escalate if the gap persists)"
            )));
        }
    }

    /// Moves to the next donor under a fresh transfer epoch (donor crashed,
    /// stalled, or streamed a malformed snapshot).
    fn failover(&mut self, reason: &str, ctx: &mut EventContext<'_>) {
        let next = match &self.phase {
            Phase::Syncing(sync) => sync.donor_index + 1,
            _ => return,
        };
        self.restart_transfer(next, reason, ctx);
    }

    /// Restarts the snapshot pull from the given donor rank under a fresh
    /// transfer epoch, discarding partial progress (chunks from different
    /// donors or epochs must never be mixed).
    fn restart_transfer(&mut self, donor_index: usize, reason: &str, ctx: &mut EventContext<'_>) {
        let now = ctx.now_ms();
        let Phase::Syncing(sync) = &mut self.phase else {
            return;
        };
        let failed = sync.donor();
        let epoch = sync.transfer_epoch() + 1;
        **sync = Transfer::open(std::mem::take(&mut sync.donors), donor_index, epoch, now);
        ctx.deliver(DeliveryKind::Notification(format!(
            "state transfer from {failed} {reason}; failing over to {} \
             under transfer epoch {epoch}",
            sync.donor()
        )));
        sync.send_request(ctx);
    }

    /// The join view installed: pick the deterministic donor (lowest live
    /// id) and start pulling the snapshot.
    fn begin_sync(&mut self, view: &View, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let candidates = view.others(local);
        if candidates.is_empty() {
            // Degenerate solo view: nothing to pull.
            self.finish(local, ctx);
            return;
        }
        // Transfer epoch 1, first donor.
        let mut sync = Box::new(Transfer::open(candidates, 0, 1, ctx.now_ms()));
        sync.send_request(ctx);
        self.phase = Phase::Syncing(sync);
        self.arm_timer(ctx);
    }

    /// Snapshot complete (or nothing to transfer): install, report, replay.
    fn finish(&mut self, donor: NodeId, ctx: &mut EventContext<'_>) {
        let (bytes, chunks, transfer_epochs) = match &self.phase {
            Phase::Syncing(sync) => (sync.bytes, sync.total.unwrap_or(0), sync.transfer_epoch()),
            _ => (0, 0, 0),
        };
        let elapsed_ms = ctx.now_ms().saturating_sub(self.phase_started_ms);
        self.phase = Phase::Member;
        if let Some(timer_id) = self.timer.take() {
            ctx.cancel_timer(timer_id);
        }
        ctx.deliver(DeliveryKind::Rejoined {
            donor,
            bytes,
            chunks,
            transfer_epochs,
            elapsed_ms,
        });
        // Replay the join view's messages *after* the installed snapshot, in
        // arrival order, so the application observes state-then-messages —
        // the view-synchronous delivery contract.
        for event in std::mem::take(&mut self.buffered) {
            ctx.dispatch(event);
        }
    }

    fn install_snapshot(&self, blob: &[u8]) -> bool {
        let mut r = WireReader::new(blob);
        let Ok(count) = r.get_u32() else {
            return false;
        };
        for _ in 0..count {
            let Ok(name) = r.get_str_ref() else {
                return false;
            };
            let Ok(bytes) = r.get_bytes_ref() else {
                return false;
            };
            if let Some(section) = self.sections.iter().find(|section| section.name() == name) {
                if !section.install(bytes) {
                    return false;
                }
            }
        }
        true
    }

    /// Donor side: answer a request window from the cached (or freshly
    /// exported) snapshot.
    fn on_request(&mut self, from: NodeId, body: StateRequestBody, ctx: &mut EventContext<'_>) {
        if !matches!(self.phase, Phase::Member) {
            // A node that is itself still joining or syncing has no complete
            // state to donate; the joiner will fail over past it.
            return;
        }
        let local = ctx.node_id();
        let now = ctx.now_ms();
        // A completed (or abandoned) transfer stops requesting windows; its
        // cached snapshot copy is dropped once it has been quiet for longer
        // than the joiner-side failover timeout could possibly allow.
        let quiet_after = self.transfer_timeout_ms.saturating_mul(2);
        self.serving
            .retain(|_, transfer| now.saturating_sub(transfer.last_request_ms) < quiet_after);
        // Every transfer *starts* with an empty missing list (the joiner
        // does not know the total yet), so an empty list always means a
        // fresh export — a joiner restarting a second time (its transfer
        // epochs begin at 1 again) must never be served the snapshot cached
        // at its previous rejoin. Non-empty lists are window re-requests and
        // must come from the cached snapshot (same version, no torn state).
        let rebuild = body.missing.is_empty()
            || self
                .serving
                .get(&from)
                .map(|transfer| transfer.transfer_epoch != body.transfer_epoch)
                .unwrap_or(true);
        if rebuild {
            let blob = encode_snapshot(&self.sections);
            let chunks: Vec<Bytes> = if blob.is_empty() {
                vec![Bytes::new()]
            } else {
                (0..blob.len())
                    .step_by(self.chunk_bytes)
                    .map(|start| blob.slice(start..(start + self.chunk_bytes).min(blob.len())))
                    .collect()
            };
            self.serving.insert(
                from,
                OutgoingTransfer {
                    transfer_epoch: body.transfer_epoch,
                    version: now,
                    chunks,
                    last_request_ms: now,
                },
            );
        }
        let transfer = self.serving.get_mut(&from).expect("inserted above");
        transfer.last_request_ms = now;
        let transfer = &*transfer;
        let total = transfer.chunks.len() as u32;
        let indices: Vec<u32> = if body.missing.is_empty() {
            (0..total).take(WINDOW).collect()
        } else {
            body.missing
                .into_iter()
                .filter(|index| *index < total)
                .take(WINDOW * 4)
                .collect()
        };
        for index in indices {
            let mut message = Message::with_payload(transfer.chunks[index as usize].clone());
            message.push(&StateChunkHeader {
                transfer_epoch: transfer.transfer_epoch,
                version: transfer.version,
                index,
                total,
            });
            ctx.dispatch(Event::down(StateChunk::new(
                local,
                Dest::Node(from),
                message,
            )));
        }
    }

    /// Puller side: account one arriving chunk to the transfer its epoch
    /// names; finish, fail, or pull the next window.
    fn on_chunk(
        &mut self,
        from: NodeId,
        header: StateChunkHeader,
        payload: Bytes,
        ctx: &mut EventContext<'_>,
    ) {
        let now = ctx.now_ms();
        let is_catchup = header.transfer_epoch >= CATCHUP_EPOCH_BASE;
        let transfer = if is_catchup {
            self.catchup.as_mut()
        } else if let Phase::Syncing(sync) = &mut self.phase {
            Some(&mut **sync)
        } else {
            None
        };
        let Some(transfer) = transfer else {
            return;
        };
        match transfer.accept(from, header, payload, now) {
            Accepted::NotOurs => {}
            Accepted::Pending => {
                if transfer.outstanding.is_empty() {
                    transfer.send_request(ctx); // pull the next window
                }
            }
            Accepted::Whole if is_catchup => self.finish_catchup(ctx),
            Accepted::Whole => {
                let blob = transfer.blob();
                if self.install_snapshot(&blob) {
                    self.finish(from, ctx);
                } else {
                    self.failover("streamed a malformed snapshot", ctx);
                }
            }
        }
    }

    /// Expelled-but-alive detection: a never-crashed member whose failure
    /// detector ends up suspecting *every* other view member is, with
    /// overwhelming likelihood, the one the group expelled (a false
    /// suspicion, a partition). It re-enters through the existing joining
    /// path: the vsync layer above is reset into joining mode via a
    /// [`Rejoin`] event, and the node multicasts [`JoinRequest`]s like a
    /// restarted node would. The threshold of two suspected peers keeps the
    /// legitimate last-survivor case (a 2-member group whose peer crashes)
    /// from blocking itself.
    fn maybe_self_heal(&mut self, ctx: &mut EventContext<'_>) {
        if !matches!(self.phase, Phase::Member) {
            return;
        }
        let local = ctx.node_id();
        let Some(view) = &self.view else {
            return;
        };
        let others = view.others(local);
        if others.len() < 2 || !others.iter().all(|member| self.suspected.contains(member)) {
            return;
        }
        self.suspected.clear();
        self.phase = Phase::Joining;
        self.phase_started_ms = ctx.now_ms();
        ctx.deliver(DeliveryKind::Notification(
            "every other view member suspected: assuming false-suspicion expulsion, \
             re-entering through the joining path"
                .into(),
        ));
        ctx.dispatch(Event::up(Rejoin {}));
        self.send_join_request(ctx);
        self.arm_timer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut EventContext<'_>) {
        let now = ctx.now_ms();
        match &mut self.phase {
            Phase::Member => {
                // The only member-phase timer work is an in-flight catch-up:
                // re-request lost chunks, or abandon a donor that went quiet
                // (gossip re-escalates on a fresh aged breach if needed).
                let Some(catchup) = &mut self.catchup else {
                    return; // no re-arm
                };
                if catchup.engine.tick(now, self.transfer_timeout_ms) == Tick::TimedOut {
                    let donor = catchup.donor();
                    self.catchup = None;
                    ctx.deliver(DeliveryKind::Notification(format!(
                        "catch-up from {donor} stalled; abandoning the transfer"
                    )));
                    return; // no re-arm
                }
                catchup.send_request(ctx);
            }
            Phase::Joining => self.send_join_request(ctx),
            Phase::Syncing(sync) => {
                if sync.engine.tick(now, self.transfer_timeout_ms) == Tick::TimedOut {
                    self.failover("stalled", ctx);
                } else {
                    // Re-request whatever is outstanding (lost chunks) or
                    // kick off the next window.
                    sync.send_request(ctx);
                }
            }
        }
        self.arm_timer(ctx);
    }
}

impl Session for RecoverySession {
    fn layer_name(&self) -> &str {
        RECOVERY_LAYER
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            // Fires on every stack the shared session is woven into —
            // including replacements mid-join — so the retry timer must be
            // re-armed here (the old channel's timers die with it).
            if !matches!(self.phase, Phase::Member) {
                if self.phase_started_ms == 0 {
                    self.phase_started_ms = ctx.now_ms();
                }
                if matches!(self.phase, Phase::Joining) {
                    self.send_join_request(ctx);
                }
                self.arm_timer(ctx);
            }
            ctx.forward(event);
            return;
        }

        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == RECOVERY_LAYER {
                if timer.tag == RETRY_TAG && self.timer == Some(timer.timer_id) {
                    self.timer = None;
                    self.on_timer(ctx);
                }
                return;
            }
            ctx.forward(event);
            return;
        }

        if let Some(install) = event.get::<ViewInstall>() {
            let view = install.view.clone();
            self.serving.retain(|node, _| view.contains(*node));
            self.suspected.retain(|node| view.contains(*node));
            if self
                .catchup
                .as_ref()
                .is_some_and(|catchup| !view.contains(catchup.donor()))
            {
                self.catchup = None;
            }
            let admitted = matches!(self.phase, Phase::Joining) && view.contains(ctx.node_id());
            self.view = Some(view.clone());
            if admitted {
                self.begin_sync(&view, ctx);
            } else if let Phase::Syncing(sync) = &mut self.phase {
                // The view moved while syncing: re-derive the candidate
                // list. If the current donor survived, keep streaming from
                // it; if it was expelled, restart from the lowest live donor
                // under a fresh transfer epoch right away (stale chunks must
                // not corrupt the new stream, and waiting for the progress
                // timeout would add seconds to every such rejoin).
                let local = ctx.node_id();
                let donor = sync.donor();
                let candidates = view.others(local);
                if !candidates.is_empty() {
                    sync.donors = candidates;
                    match sync.donors.iter().position(|node| *node == donor) {
                        Some(position) => sync.donor_index = position,
                        None => self.restart_transfer(0, "donor expelled from the view", ctx),
                    }
                }
            }
            ctx.forward(event);
            return;
        }

        if let Some(suspect) = event.get::<Suspect>() {
            let node = suspect.node;
            self.suspected.insert(node);
            let donor_died = matches!(&self.phase, Phase::Syncing(sync)
                if sync.donor() == node);
            if donor_died {
                self.failover("donor suspected", ctx);
            }
            if self
                .catchup
                .as_ref()
                .is_some_and(|catchup| catchup.donor() == node)
            {
                // A catch-up donor is not failed over — it was *targeted*;
                // gossip re-escalates against a live digest sender instead.
                self.catchup = None;
            }
            // The self-heal trigger runs before the suspicion is forwarded,
            // so the Rejoin reset reaches vsync ahead of the Suspect that
            // completed the everyone-is-suspected condition — the expelled
            // node never installs a delusional solo view.
            self.maybe_self_heal(ctx);
            ctx.forward(event);
            return;
        }

        if let Some(alive) = event.get::<Alive>() {
            self.suspected.remove(&alive.node);
            ctx.forward(event);
            return;
        }

        if let Some(request) = event.get::<CatchupRequest>() {
            // Raised by the gossip layer below when a repair floor told it a
            // missed span is unrecoverable by NACK repair. Consumed here —
            // the escalation is recovery's to drive.
            let donor = request.donor;
            self.begin_catchup(donor, ctx);
            return;
        }

        if event.is::<StateRequest>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(request) = event.get_mut::<StateRequest>() else {
                return;
            };
            let from = request.header.source;
            let Ok(body) = request.message.pop::<StateRequestBody>() else {
                return;
            };
            self.on_request(from, body, ctx);
            return;
        }

        if event.is::<StateChunk>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(chunk) = event.get_mut::<StateChunk>() else {
                return;
            };
            let from = chunk.header.source;
            let Ok(header) = chunk.message.pop::<StateChunkHeader>() else {
                return;
            };
            // Chunks are kept until the snapshot is whole: a copy, so the
            // chunk maps do not pin every packet of the transfer.
            let payload = Bytes::copy_from_slice(chunk.message.payload());
            self.on_chunk(from, header, payload, ctx);
            return;
        }

        // Application data: messages delivered in the join view are buffered
        // until the snapshot installed, so the application never observes a
        // join-view message before the state it causally follows.
        if event.is::<DataEvent>()
            && event.direction == Direction::Up
            && !matches!(self.phase, Phase::Member)
        {
            if self.buffered.len() >= BUFFER_CAP {
                // Drop-newest: the kept prefix still replays in arrival
                // order, and the shed tail is exactly what gossip repair
                // recovers once the join completes.
                self.buffer_shed += 1;
                return;
            }
            // Held until the snapshot installs: must not pin the packet
            // buffer.
            event.compact();
            self.buffered.push_back(event);
            return;
        }

        ctx.forward(event);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use morpheus_appia::platform::TestPlatform;
    use morpheus_appia::testing::Harness;

    use super::*;

    /// A toy section backed by shared bytes.
    struct TestSection {
        name: &'static str,
        state: Rc<RefCell<Vec<u8>>>,
    }

    impl StateSection for TestSection {
        fn name(&self) -> &str {
            self.name
        }
        fn export(&self) -> Vec<u8> {
            self.state.borrow().clone()
        }
        fn install(&self, bytes: &[u8]) -> bool {
            *self.state.borrow_mut() = bytes.to_vec();
            true
        }
    }

    fn section(
        name: &'static str,
        contents: &[u8],
    ) -> (Rc<dyn StateSection>, Rc<RefCell<Vec<u8>>>) {
        let state = Rc::new(RefCell::new(contents.to_vec()));
        (
            Rc::new(TestSection {
                name,
                state: state.clone(),
            }),
            state,
        )
    }

    fn params(members: &[u32], joining: bool) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params.insert("joining".into(), joining.to_string());
        params.insert("chunk_bytes".into(), "16".into());
        params
    }

    fn fire_pending_timers(harness: &mut Harness, platform: &mut TestPlatform) {
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        let cancelled: Vec<_> = std::mem::take(&mut platform.cancelled);
        for (_, key) in timers {
            if !cancelled.contains(&key) {
                harness.fire_timer(key, platform);
            }
        }
    }

    fn requests(events: &[Event]) -> Vec<(NodeId, StateRequestBody)> {
        events
            .iter()
            .filter_map(|event| {
                event.get::<StateRequest>().map(|request| {
                    let body = request.message.clone().pop::<StateRequestBody>().unwrap();
                    let Dest::Node(donor) = request.header.dest else {
                        panic!("state requests are unicast");
                    };
                    (donor, body)
                })
            })
            .collect()
    }

    fn chunks(events: &[Event]) -> Vec<(StateChunkHeader, Bytes)> {
        events
            .iter()
            .filter_map(|event| {
                event.get::<StateChunk>().map(|chunk| {
                    let mut message = chunk.message.clone();
                    let header = message.pop::<StateChunkHeader>().unwrap();
                    (header, message.payload().clone())
                })
            })
            .collect()
    }

    /// Installs a view on the harnessed layer, returning everything the
    /// layer emitted downward (run_down drains the bottom capture itself).
    fn install_view(
        harness: &mut Harness,
        platform: &mut TestPlatform,
        members: &[u32],
    ) -> Vec<Event> {
        harness.run_down(
            Event::down(ViewInstall {
                view: View::new(1, members.iter().copied().map(NodeId).collect()),
            }),
            platform,
        )
    }

    /// Drives a complete donor→joiner transfer through two harnesses and
    /// returns the joiner's deliveries.
    fn run_transfer(
        donor_state: &[u8],
        joiner_members: &[u32],
    ) -> (Rc<RefCell<Vec<u8>>>, TestPlatform) {
        let (donor_section, _) = section("s", donor_state);
        let mut donor_platform = TestPlatform::new(NodeId(0));
        let mut donor = Harness::new(
            RecoveryLayer::with_sections(vec![donor_section]),
            &params(joiner_members, false),
            &mut donor_platform,
        );

        let (joiner_section, joiner_state) = section("s", b"");
        let mut joiner_platform = TestPlatform::new(NodeId(2));
        let mut joiner = Harness::new(
            RecoveryLayer::with_sections(vec![joiner_section]),
            &params(joiner_members, true),
            &mut joiner_platform,
        );

        // Admission: a view containing the joiner installs (the initial
        // state request rides the same drain).
        let mut outgoing = requests(&install_view(
            &mut joiner,
            &mut joiner_platform,
            joiner_members,
        ));

        // Ferry requests and chunks between the two harnesses until the
        // joiner reports completion or nothing moves.
        for _ in 0..64 {
            if outgoing.is_empty() {
                break;
            }
            for (_, body) in outgoing.drain(..) {
                let mut message = Message::new();
                message.push(&body);
                donor.run_up(
                    Event::up(StateRequest::new(NodeId(2), Dest::Node(NodeId(0)), message)),
                    &mut donor_platform,
                );
            }
            for (header, payload) in chunks(&donor.drain_down()) {
                let mut message = Message::with_payload(payload);
                message.push(&header);
                joiner.run_up(
                    Event::up(StateChunk::new(NodeId(0), Dest::Node(NodeId(2)), message)),
                    &mut joiner_platform,
                );
            }
            outgoing = requests(&joiner.drain_down());
        }
        (joiner_state, joiner_platform)
    }

    #[test]
    fn snapshot_blobs_roundtrip_through_sections() {
        let (a, _) = section("alpha", b"aaaa");
        let (b, _) = section("beta", b"bb");
        let blob = encode_snapshot(&[a, b]);

        let (a2, state_a) = section("alpha", b"");
        let (b2, state_b) = section("beta", b"");
        let session = RecoverySession {
            sections: vec![a2, b2],
            members: vec![],
            view: None,
            phase: Phase::Member,
            buffered: VecDeque::new(),
            retry_ms: 100,
            transfer_timeout_ms: 1000,
            chunk_bytes: 16,
            suspected: BTreeSet::new(),
            serving: HashMap::default(),
            timer: None,
            phase_started_ms: 0,
            catchup: None,
            catchup_count: 0,
            catchup_done_ms: None,
            buffer_shed: 0,
        };
        assert!(session.install_snapshot(&blob));
        assert_eq!(&*state_a.borrow(), b"aaaa");
        assert_eq!(&*state_b.borrow(), b"bb");
        assert!(!session.install_snapshot(b"\xff\xff"), "malformed rejected");
    }

    #[test]
    fn a_joining_node_multicasts_join_requests_until_admitted() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut recovery = Harness::new(
            RecoveryLayer::new(),
            &params(&[0, 1, 2], true),
            &mut platform,
        );

        // ChannelInit fired inside Harness::new and was drained; the retry
        // tick re-sends the request.
        platform.advance(500);
        fire_pending_timers(&mut recovery, &mut platform);
        let down = recovery.drain_down();
        let joins: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<JoinRequest>())
            .collect();
        assert_eq!(joins.len(), 1);
        assert_eq!(
            joins[0].get::<JoinRequest>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(0), NodeId(1)])
        );
    }

    #[test]
    fn admission_pulls_from_the_lowest_id_donor_and_installs_the_snapshot() {
        let (state, platform) = run_transfer(
            b"the donor's replicated state, longer than one chunk",
            &[0, 1, 2],
        );
        assert_eq!(
            &*state.borrow(),
            b"the donor's replicated state, longer than one chunk"
        );
        let mut platform = platform;
        let rejoined: Vec<_> = platform
            .take_deliveries()
            .into_iter()
            .filter_map(|delivery| match delivery.kind {
                DeliveryKind::Rejoined {
                    donor,
                    bytes,
                    chunks,
                    transfer_epochs,
                    ..
                } => Some((donor, bytes, chunks, transfer_epochs)),
                _ => None,
            })
            .collect();
        assert_eq!(rejoined.len(), 1);
        let (donor, bytes, chunk_count, epochs) = rejoined[0];
        assert_eq!(donor, NodeId(0), "lowest live id donates");
        assert!(bytes > 0);
        assert!(chunk_count > 1, "chunked transfer ({chunk_count} chunks)");
        assert_eq!(epochs, 1, "first donor succeeded");
    }

    #[test]
    fn join_view_messages_are_buffered_and_replayed_after_install() {
        let (donor_section, _) = section("s", b"history");
        let mut donor_platform = TestPlatform::new(NodeId(0));
        let mut donor = Harness::new(
            RecoveryLayer::with_sections(vec![donor_section]),
            &params(&[0, 1, 2], false),
            &mut donor_platform,
        );

        let (joiner_section, _) = section("s", b"");
        let mut platform = TestPlatform::new(NodeId(2));
        let mut joiner = Harness::new(
            RecoveryLayer::with_sections(vec![joiner_section]),
            &params(&[0, 1, 2], true),
            &mut platform,
        );
        let mut outgoing = requests(&install_view(&mut joiner, &mut platform, &[0, 1, 2]));

        // A data message arrives mid-transfer: held back.
        let held = joiner.run_up(
            Event::up(DataEvent::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                Message::with_payload(&b"early"[..]),
            )),
            &mut platform,
        );
        assert!(held.iter().all(|event| !event.is::<DataEvent>()));

        // Complete the transfer.
        for _ in 0..16 {
            if outgoing.is_empty() {
                break;
            }
            for (_, body) in outgoing.drain(..) {
                let mut message = Message::new();
                message.push(&body);
                donor.run_up(
                    Event::up(StateRequest::new(NodeId(2), Dest::Node(NodeId(0)), message)),
                    &mut donor_platform,
                );
            }
            for (header, payload) in chunks(&donor.drain_down()) {
                let mut message = Message::with_payload(payload);
                message.push(&header);
                let up = joiner.run_up(
                    Event::up(StateChunk::new(NodeId(0), Dest::Node(NodeId(2)), message)),
                    &mut platform,
                );
                // Once the final chunk installs, the buffered message is
                // replayed upward.
                if up.iter().any(|event| event.is::<DataEvent>()) {
                    return;
                }
            }
            outgoing = requests(&joiner.drain_down());
        }
        panic!("the buffered join-view message was never replayed");
    }

    #[test]
    fn a_suspected_donor_fails_over_under_a_fresh_transfer_epoch() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut joiner = Harness::new(
            RecoveryLayer::new(),
            &params(&[0, 1, 2], true),
            &mut platform,
        );
        let first = requests(&install_view(&mut joiner, &mut platform, &[0, 1, 2]));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, NodeId(0));
        assert_eq!(first[0].1.transfer_epoch, 1);

        // The failure detector suspects the donor mid-transfer.
        let forwarded = joiner.run_up(Event::up(Suspect { node: NodeId(0) }), &mut platform);
        assert!(
            forwarded.iter().any(|event| event.is::<Suspect>()),
            "suspicions keep flowing to the membership layer above"
        );
        let retried = requests(&joiner.drain_down());
        assert_eq!(retried.len(), 1);
        assert_eq!(retried[0].0, NodeId(1), "next-lowest donor takes over");
        assert_eq!(retried[0].1.transfer_epoch, 2, "fresh transfer epoch");

        // A late chunk from the dead donor is ignored (wrong epoch).
        let mut message = Message::with_payload(Bytes::from_static(b"zombie"));
        message.push(&StateChunkHeader {
            transfer_epoch: 1,
            version: 7,
            index: 0,
            total: 1,
        });
        joiner.run_up(
            Event::up(StateChunk::new(NodeId(0), Dest::Node(NodeId(2)), message)),
            &mut platform,
        );
        assert!(platform
            .take_deliveries()
            .iter()
            .all(|delivery| !matches!(delivery.kind, DeliveryKind::Rejoined { .. })));
    }

    #[test]
    fn a_stalled_transfer_times_out_into_failover() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut joiner = Harness::new(
            RecoveryLayer::new(),
            &params(&[0, 1, 2], true),
            &mut platform,
        );
        install_view(&mut joiner, &mut platform, &[0, 1, 2]);

        // No chunk ever arrives; past the transfer timeout the joiner moves
        // to the next donor.
        platform.advance(4000);
        fire_pending_timers(&mut joiner, &mut platform);
        let retried = requests(&joiner.drain_down());
        assert!(!retried.is_empty());
        assert_eq!(retried[0].0, NodeId(1));
        assert_eq!(retried[0].1.transfer_epoch, 2);
    }

    #[test]
    fn member_nodes_pass_data_through_and_serve_requests_from_cache() {
        let (donor_section, state) = section("s", b"0123456789abcdef0123456789abcdef0123");
        let mut platform = TestPlatform::new(NodeId(0));
        let mut donor = Harness::new(
            RecoveryLayer::with_sections(vec![donor_section]),
            &params(&[0, 1, 2], false),
            &mut platform,
        );

        // Pass-through for data.
        let up = donor.run_up(
            Event::up(DataEvent::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                Message::with_payload(&b"x"[..]),
            )),
            &mut platform,
        );
        assert_eq!(up.len(), 1, "members forward data untouched");

        // First request snapshots the state and answers a window.
        let mut message = Message::new();
        message.push(&StateRequestBody {
            transfer_epoch: 1,
            missing: vec![],
        });
        donor.run_up(
            Event::up(StateRequest::new(NodeId(2), Dest::Node(NodeId(0)), message)),
            &mut platform,
        );
        let first = chunks(&donor.drain_down());
        assert!(!first.is_empty());
        let version = first[0].0.version;

        // The donor's live state changes; a re-request of a missing chunk
        // within the same transfer epoch still comes from the cached
        // snapshot (same version) — no torn snapshots.
        state.borrow_mut().extend_from_slice(b"MORE");
        let mut message = Message::new();
        message.push(&StateRequestBody {
            transfer_epoch: 1,
            missing: vec![0],
        });
        donor.run_up(
            Event::up(StateRequest::new(NodeId(2), Dest::Node(NodeId(0)), message)),
            &mut platform,
        );
        let again = chunks(&donor.drain_down());
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].0.version, version, "cached snapshot version");
        assert_eq!(again[0].1, first[0].1, "identical chunk bytes");
    }

    #[test]
    fn suspecting_every_other_member_triggers_the_rejoin_path() {
        // Expelled-but-alive self-heal: a member (never crashed) whose
        // failure detector ends up suspecting everyone else concludes it
        // was the one expelled and re-enters through the joining path.
        let mut platform = TestPlatform::new(NodeId(2));
        let mut recovery = Harness::new(
            RecoveryLayer::new(),
            &params(&[0, 1, 2], false),
            &mut platform,
        );
        install_view(&mut recovery, &mut platform, &[0, 1, 2]);

        // One of two peers suspected: no reaction yet.
        let up = recovery.run_up(Event::up(Suspect { node: NodeId(0) }), &mut platform);
        assert!(up.iter().any(|event| event.is::<Suspect>()));
        assert!(up.iter().all(|event| !event.is::<Rejoin>()));
        assert!(recovery
            .drain_down()
            .iter()
            .all(|event| !event.is::<JoinRequest>()));

        // The second suspicion completes the condition: the Rejoin reset is
        // dispatched upward *before* the suspicion itself, and join
        // requests go out to the boot membership.
        let up = recovery.run_up(Event::up(Suspect { node: NodeId(1) }), &mut platform);
        let rejoin_at = up.iter().position(|event| event.is::<Rejoin>());
        let suspect_at = up.iter().position(|event| event.is::<Suspect>());
        assert!(rejoin_at.is_some(), "the vsync reset is raised");
        assert!(
            rejoin_at < suspect_at,
            "the reset must reach vsync before the final suspicion"
        );
        let down = recovery.drain_down();
        assert!(down.iter().any(|event| event.is::<JoinRequest>()));

        // Re-admission (a view containing the node) starts the state pull,
        // exactly like a restarted node's rejoin.
        let pulls = requests(&install_view(&mut recovery, &mut platform, &[0, 1, 2]));
        assert_eq!(pulls.len(), 1, "re-admission starts the snapshot pull");
        assert_eq!(pulls[0].0, NodeId(0), "lowest live id donates");
    }

    #[test]
    fn an_alive_member_resets_the_self_heal_evidence() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut recovery = Harness::new(
            RecoveryLayer::new(),
            &params(&[0, 1, 2], false),
            &mut platform,
        );
        install_view(&mut recovery, &mut platform, &[0, 1, 2]);

        recovery.run_up(Event::up(Suspect { node: NodeId(0) }), &mut platform);
        let healed = recovery.run_up(Event::up(Alive { node: NodeId(0) }), &mut platform);
        assert!(
            healed.iter().any(|event| event.is::<Alive>()),
            "alive notifications keep flowing upward"
        );
        // Node 1's suspicion alone no longer completes the condition.
        let up = recovery.run_up(Event::up(Suspect { node: NodeId(1) }), &mut platform);
        assert!(up.iter().all(|event| !event.is::<Rejoin>()));
    }

    #[test]
    fn two_member_groups_never_self_heal() {
        // The last survivor of a 2-member group legitimately suspects
        // "everyone"; it must keep running solo, not block itself joining.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut recovery =
            Harness::new(RecoveryLayer::new(), &params(&[1, 2], false), &mut platform);
        install_view(&mut recovery, &mut platform, &[1, 2]);
        let up = recovery.run_up(Event::up(Suspect { node: NodeId(2) }), &mut platform);
        assert!(up.iter().all(|event| !event.is::<Rejoin>()));
        assert!(recovery
            .drain_down()
            .iter()
            .all(|event| !event.is::<JoinRequest>()));
    }

    #[test]
    fn request_and_chunk_bodies_roundtrip() {
        let body = StateRequestBody {
            transfer_epoch: 3,
            missing: vec![0, 4, 9],
        };
        assert_eq!(
            StateRequestBody::from_bytes(&body.to_bytes()).unwrap(),
            body
        );
        let header = StateChunkHeader {
            transfer_epoch: 2,
            version: 99,
            index: 4,
            total: 11,
        };
        assert_eq!(
            StateChunkHeader::from_bytes(&header.to_bytes()).unwrap(),
            header
        );
    }
    #[test]
    fn adversarial_state_transfer_encodings_are_rejected() {
        // A request whose missing-chunk list claims more entries than the
        // payload carries fails cleanly (no attacker-sized allocation).
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u32(u32::MAX);
        w.put_u32(5);
        assert!(StateRequestBody::from_bytes(&w.finish()).is_err());

        // Every truncation of a valid request and chunk header errors out.
        let request = StateRequestBody {
            transfer_epoch: 3,
            missing: vec![1, 4, 9],
        };
        let bytes = request.to_bytes().to_vec();
        for cut in 0..bytes.len() {
            assert!(StateRequestBody::from_bytes(&bytes[..cut]).is_err());
        }
        let header = StateChunkHeader {
            transfer_epoch: 3,
            version: 7,
            index: 1,
            total: 4,
        };
        let bytes = header.to_bytes().to_vec();
        for cut in 0..bytes.len() {
            assert!(StateChunkHeader::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn corrupted_snapshot_blobs_install_as_failures_not_panics() {
        let (alpha, _) = section("alpha", b"");
        let session = RecoverySession {
            sections: vec![alpha],
            members: vec![],
            view: None,
            phase: Phase::Member,
            buffered: VecDeque::new(),
            retry_ms: 100,
            transfer_timeout_ms: 1000,
            chunk_bytes: 16,
            suspected: BTreeSet::new(),
            serving: HashMap::default(),
            timer: None,
            phase_started_ms: 0,
            catchup: None,
            catchup_count: 0,
            catchup_done_ms: None,
            buffer_shed: 0,
        };

        // A snapshot blob advertising u32::MAX sections with no section
        // bytes behind it is rejected on the first missing section.
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        assert!(!session.install_snapshot(&w.finish()));

        // Single-bit fuzz over a well-formed two-section blob: install
        // either succeeds (the flip hit ignorable content) or reports
        // failure — it never panics.
        let mut w = WireWriter::new();
        w.put_u32(2);
        w.put_str("alpha");
        w.put_bytes(&[1, 2, 3]);
        w.put_str("beta");
        w.put_bytes(&[4, 5]);
        let bytes = w.finish().to_vec();
        for index in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[index] ^= 1 << bit;
                let _ = session.install_snapshot(&mutated);
            }
        }
    }

    #[test]
    fn a_catchup_request_pulls_a_targeted_snapshot_without_a_view_change() {
        // Donor (member, node 0) with live section state; puller (member,
        // node 2) holding an empty copy. A repair-floor escalation from the
        // gossip layer (`CatchupRequest`) pulls the section snapshot over
        // the ordinary StateRequest/StateChunk wire — the stack stays up:
        // no rejoin, no view change, no teardown.
        let payload = b"0123456789abcdef0123456789abcdef0123";
        let (donor_section, _) = section("s", payload);
        let mut donor_platform = TestPlatform::new(NodeId(0));
        let mut donor = Harness::new(
            RecoveryLayer::with_sections(vec![donor_section]),
            &params(&[0, 1, 2], false),
            &mut donor_platform,
        );

        let (puller_section, puller_state) = section("s", b"");
        let mut platform = TestPlatform::new(NodeId(2));
        let mut puller = Harness::new(
            RecoveryLayer::with_sections(vec![puller_section]),
            &params(&[0, 1, 2], false),
            &mut platform,
        );

        puller.run_up(
            Event::up(CatchupRequest { donor: NodeId(0) }),
            &mut platform,
        );
        let mut outgoing = requests(&puller.drain_down());
        assert_eq!(outgoing.len(), 1);
        assert_eq!(outgoing[0].0, NodeId(0), "the pull targets the donor");
        assert!(
            outgoing[0].1.transfer_epoch >= CATCHUP_EPOCH_BASE,
            "catch-up transfers use the epoch namespace disjoint from rejoins"
        );

        // A second escalation while one is in flight is a no-op.
        puller.run_up(
            Event::up(CatchupRequest { donor: NodeId(1) }),
            &mut platform,
        );
        assert!(
            requests(&puller.drain_down()).is_empty(),
            "one catch-up at a time"
        );

        // Ferry request/chunk rounds until the transfer completes.
        for _ in 0..64 {
            if outgoing.is_empty() {
                break;
            }
            for (_, body) in outgoing.drain(..) {
                let mut message = Message::new();
                message.push(&body);
                donor.run_up(
                    Event::up(StateRequest::new(NodeId(2), Dest::Node(NodeId(0)), message)),
                    &mut donor_platform,
                );
            }
            for (header, chunk) in chunks(&donor.drain_down()) {
                let mut message = Message::with_payload(chunk);
                message.push(&header);
                puller.run_up(
                    Event::up(StateChunk::new(NodeId(0), Dest::Node(NodeId(2)), message)),
                    &mut platform,
                );
            }
            outgoing = requests(&puller.drain_down());
        }

        assert_eq!(
            puller_state.borrow().as_slice(),
            &payload[..],
            "the missed span is installed from the snapshot"
        );
        assert!(platform.take_deliveries().iter().any(|delivery| matches!(
            &delivery.kind,
            DeliveryKind::CaughtUp { donor, .. } if *donor == NodeId(0)
        )));

        // The breach that triggered the escalation may be seen again in
        // other digest senders' rows: inside the cooldown the puller stays quiet
        // instead of re-pulling the same snapshot.
        puller.run_up(
            Event::up(CatchupRequest { donor: NodeId(0) }),
            &mut platform,
        );
        assert!(
            requests(&puller.drain_down()).is_empty(),
            "repeat escalations inside the cooldown are no-ops"
        );
    }

    /// A member (node 2) holding one empty section, ready to catch up.
    fn catchup_puller() -> (Harness, TestPlatform, Rc<RefCell<Vec<u8>>>) {
        let (puller_section, state) = section("s", b"");
        let mut platform = TestPlatform::new(NodeId(2));
        let puller = Harness::new(
            RecoveryLayer::with_sections(vec![puller_section]),
            &params(&[0, 1, 2], false),
            &mut platform,
        );
        (puller, platform, state)
    }

    /// Raises a catch-up against `donor` and returns the state requests it
    /// sent.
    fn escalate(
        puller: &mut Harness,
        platform: &mut TestPlatform,
        donor: u32,
    ) -> Vec<(NodeId, StateRequestBody)> {
        puller.run_up(
            Event::up(CatchupRequest {
                donor: NodeId(donor),
            }),
            platform,
        );
        requests(&puller.drain_down())
    }

    /// Hands node 2 a one-chunk snapshot from `from` under `transfer_epoch`.
    fn send_whole_snapshot(
        puller: &mut Harness,
        platform: &mut TestPlatform,
        from: u32,
        transfer_epoch: u64,
        blob: Bytes,
    ) {
        let mut message = Message::with_payload(blob);
        message.push(&StateChunkHeader {
            transfer_epoch,
            version: 1,
            index: 0,
            total: 1,
        });
        puller.run_up(
            Event::up(StateChunk::new(
                NodeId(from),
                Dest::Node(NodeId(2)),
                message,
            )),
            platform,
        );
    }

    fn caught_up(platform: &mut TestPlatform) -> bool {
        platform
            .take_deliveries()
            .iter()
            .any(|delivery| matches!(delivery.kind, DeliveryKind::CaughtUp { .. }))
    }

    #[test]
    fn a_suspected_catchup_donor_abandons_the_catchup() {
        let (mut puller, mut platform, _) = catchup_puller();
        assert_eq!(escalate(&mut puller, &mut platform, 0).len(), 1);

        let up = puller.run_up(Event::up(Suspect { node: NodeId(0) }), &mut platform);
        assert!(up.iter().any(|event| event.is::<Suspect>()));
        assert!(requests(&puller.drain_down()).is_empty());

        // The retry tick finds no transfer: nothing is re-requested.
        platform.advance(500);
        fire_pending_timers(&mut puller, &mut platform);
        assert!(
            requests(&puller.drain_down()).is_empty(),
            "a targeted donor is not failed over"
        );
    }

    #[test]
    fn a_stalled_catchup_is_abandoned_without_rearming_the_timer() {
        let (mut puller, mut platform, _) = catchup_puller();
        assert_eq!(escalate(&mut puller, &mut platform, 0).len(), 1);
        platform.take_deliveries();

        platform.advance(4000);
        fire_pending_timers(&mut puller, &mut platform);
        assert!(requests(&puller.drain_down()).is_empty());
        assert!(platform.take_deliveries().iter().any(|delivery| matches!(
            &delivery.kind,
            DeliveryKind::Notification(text) if text.contains("stalled")
        )));
        assert!(
            platform.timers.is_empty(),
            "an abandoned catch-up leaves no retry tick behind"
        );
    }

    #[test]
    fn a_malformed_catchup_snapshot_is_reported_and_never_caught_up() {
        let (mut puller, mut platform, state) = catchup_puller();
        let sent = escalate(&mut puller, &mut platform, 0);
        platform.take_deliveries();

        send_whole_snapshot(
            &mut puller,
            &mut platform,
            0,
            sent[0].1.transfer_epoch,
            Bytes::from_static(b"\xff\xff"),
        );
        let deliveries = platform.take_deliveries();
        assert!(deliveries.iter().any(|delivery| matches!(
            &delivery.kind,
            DeliveryKind::Notification(text) if text.contains("malformed")
        )));
        assert!(deliveries
            .iter()
            .all(|delivery| !matches!(delivery.kind, DeliveryKind::CaughtUp { .. })));
        assert!(state.borrow().is_empty());
        assert!(requests(&puller.drain_down()).is_empty());
    }

    #[test]
    fn catchup_chunks_from_a_stale_epoch_or_another_node_are_ignored() {
        let (donor_section, _) = section("s", b"fresh");
        let blob = encode_snapshot(&[donor_section]);
        let (mut puller, mut platform, state) = catchup_puller();

        // A first catch-up completes under the base epoch.
        let first = escalate(&mut puller, &mut platform, 0);
        assert_eq!(first[0].1.transfer_epoch, CATCHUP_EPOCH_BASE);
        send_whole_snapshot(
            &mut puller,
            &mut platform,
            0,
            CATCHUP_EPOCH_BASE,
            blob.clone(),
        );
        assert!(caught_up(&mut platform));
        state.borrow_mut().clear();

        // Past the cooldown the next one opens the next catch-up epoch.
        platform.advance(4000);
        let second = escalate(&mut puller, &mut platform, 0);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].1.transfer_epoch, CATCHUP_EPOCH_BASE + 1);

        send_whole_snapshot(
            &mut puller,
            &mut platform,
            0,
            CATCHUP_EPOCH_BASE,
            blob.clone(),
        );
        send_whole_snapshot(
            &mut puller,
            &mut platform,
            1,
            CATCHUP_EPOCH_BASE + 1,
            blob.clone(),
        );
        assert!(!caught_up(&mut platform), "neither chunk belongs to it");
        assert!(state.borrow().is_empty());

        send_whole_snapshot(&mut puller, &mut platform, 0, CATCHUP_EPOCH_BASE + 1, blob);
        assert!(caught_up(&mut platform));
        assert_eq!(state.borrow().as_slice(), b"fresh");
    }

    #[test]
    fn a_second_catchup_request_inside_the_cooldown_sends_nothing() {
        let (donor_section, _) = section("s", b"fresh");
        let blob = encode_snapshot(&[donor_section]);
        let (mut puller, mut platform, _) = catchup_puller();
        escalate(&mut puller, &mut platform, 0);
        send_whole_snapshot(&mut puller, &mut platform, 0, CATCHUP_EPOCH_BASE, blob);
        assert!(caught_up(&mut platform));

        platform.advance(3999);
        assert!(escalate(&mut puller, &mut platform, 1).is_empty());
        platform.advance(1);
        assert_eq!(
            escalate(&mut puller, &mut platform, 1).len(),
            1,
            "the cooldown ends after the transfer timeout"
        );
    }

    #[test]
    fn a_catchup_request_while_joining_or_syncing_is_ignored() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut joiner = Harness::new(
            RecoveryLayer::new(),
            &params(&[0, 1, 2], true),
            &mut platform,
        );
        assert!(
            escalate(&mut joiner, &mut platform, 0).is_empty(),
            "joining"
        );

        let pull = requests(&install_view(&mut joiner, &mut platform, &[0, 1, 2]));
        assert_eq!(pull.len(), 1);
        assert_eq!(pull[0].1.transfer_epoch, 1);
        assert!(
            escalate(&mut joiner, &mut platform, 1).is_empty(),
            "syncing"
        );
        assert!(platform.take_deliveries().iter().all(|delivery| !matches!(
            &delivery.kind,
            DeliveryKind::Notification(text) if text.contains("repair floor")
        )));
    }
}
