//! The Cocaditem dissemination layer.
//!
//! This layer runs on the group communication **control channel** of every
//! node. Periodically it samples the local context through the retrievers;
//! published local snapshots and snapshots received from peers go into the
//! node's [`ContextStore`] — this layer is its only writer — and every
//! sample or fresh snapshot is signalled upward as a [`ContextUpdated`]
//! event, so the Core control layer (stacked above, reading the same store)
//! can evaluate its adaptation policies against the *distributed* context —
//! exactly the coordination the paper's prototype performs over a shared
//! control channel.
//!
//! What travels is only what another node reads: a published snapshot
//! carries the [`ContextKey::SHARED`] keys (device class and error rate) in
//! a varint-coded frame of about 19 bytes, and only a change to one of them
//! is significant enough to publish. The full local sample goes upward to
//! Core on every tick and never leaves the node.
//!
//! Dissemination is epidemic rather than an all-to-all flood:
//!
//! * when a shared key changes significantly, the snapshot is **pushed
//!   to `FANOUT` (3) random peers**, each of which forwards fresh snapshots
//!   to another 3 peers while `FORWARD_TTL` (3 rounds) lasts — `O(n · fanout)`
//!   messages per publication instead of `n · (n - 1)`, converging in
//!   `O(log n)` hops;
//! * every publish interval the layer sends a [`ContextDigest`] carrying
//!   the store's constant-size [`StoreSummary`] — its row count and an
//!   order-independent hash of its `(node, version)` rows — to `FANOUT`
//!   random peers (anti-entropy by summary, Demers et al., PODC 1987). A
//!   receiver whose own summary matches sends nothing, which is the usual
//!   case once the group has settled. On a mismatch it answers with its
//!   rows in a [`ContextPull`], and the summary's sender replies with one
//!   [`ContextBatch`] of every member snapshot it holds newer. So a snapshot
//!   lost in transit is repaired within a few intervals, without re-flooding
//!   full snapshots and without sending the table while nothing changed.
//!
//! The store holds view members only: a snapshot of a node outside the view
//! is refused, and a view install drops the rows of the nodes it removes.
//! A row no peer would ever hold again cannot keep two summaries apart.
//!
//! [`ContextKey::SHARED`]: crate::ContextKey::SHARED

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::{DeliveryKind, NodeId};
use morpheus_appia::session::Session;
use morpheus_appia::wire::{decode_whole, encode_pooled, Wire, WireError, WireReader, WireWriter};
use morpheus_appia::{internal_event, sendable_event, Kernel};
use morpheus_groupcomm::events::ViewInstall;
use morpheus_groupcomm::sample::sample_peers_into;
use morpheus_groupcomm::sorted::seek;

use std::cell::RefCell;
use std::rc::Rc;

use crate::context::ContextSnapshot;
use crate::store::{ContextStore, StoreSummary};

/// Registered name of the Cocaditem dissemination layer.
pub const COCADITEM_LAYER: &str = "cocaditem";

/// Timer tag for the periodic publication.
const PUBLISH_TAG: u32 = 1;

/// Random peers each snapshot push and each digest round targets.
const FANOUT: usize = 3;

/// Epidemic forwarding rounds a freshly pushed snapshot survives; a
/// received TTL is clamped to it, so no peer buys more rounds.
const FORWARD_TTL: u8 = 3;

/// Snapshots of room the batch scratch keeps between batches. A settled
/// group's batches carry a few; a booting or rejoining node's carry the
/// whole group, and room for those kept by every node would hold the group
/// size squared of snapshots.
const BATCH_SCRATCH_KEPT: usize = 4;

sendable_event! {
    /// A context snapshot travelling between nodes (payload: a one-byte
    /// forwarding TTL on top of the encoded [`ContextSnapshot`]).
    pub struct ContextPublish, class: Context
}

sendable_event! {
    /// An anti-entropy digest: the sender's [`StoreSummary`] (payload: the
    /// encoded summary).
    pub struct ContextDigest, class: Context
}

sendable_event! {
    /// The answer to a [`ContextDigest`] whose summary differs from the
    /// receiver's: the receiver's `(node, version)` rows, the version being
    /// a snapshot's capture time (payload: the rows of
    /// [`ContextStore::digest`] as a member-indexed table,
    /// [`WireWriter::put_id_rows`]), which ask the digest's sender for every
    /// snapshot it holds newer.
    pub struct ContextPull, class: Context
}

sendable_event! {
    /// The answer to a [`ContextPull`]: every member snapshot the puller's
    /// rows show it lacks, batched into one message (payload: the encoded
    /// [`BatchBody`]), so repairing a freshly booted node costs one message
    /// instead of one per member.
    pub struct ContextBatch, class: Context
}

internal_event! {
    /// The node's context changed: the layer took a local sample, or stored a
    /// peer's fresh snapshot in the node's store. Travels up the control
    /// channel towards the Core control layer, which re-evaluates its policy
    /// over the store.
    pub struct ContextUpdated {
        /// This tick's local sample — the one thing the store cannot supply,
        /// since it only advances to *published* local versions. `None` when
        /// the update is a peer's snapshot, which the store already holds.
        pub local_sample: Option<ContextSnapshot>,
    }
    categories: [Internal]
}

/// The codec of a [`ContextBatch`]'s body: the snapshots a puller lacks,
/// in node-id order.
#[derive(Debug)]
pub struct BatchBody;

impl BatchBody {
    /// Decodes the snapshots carried in `header` (a popped message header)
    /// into `snapshots`, a caller-owned scratch that keeps its capacity
    /// across batches. All or nothing ([`decode_whole`]): a malformed
    /// snapshot or trailing bytes is an error and leaves `snapshots` empty.
    pub fn decode_into(
        header: &[u8],
        snapshots: &mut Vec<ContextSnapshot>,
    ) -> Result<(), WireError> {
        decode_whole(WireReader::new(header), snapshots, |r, snapshots| {
            // A snapshot encodes to at least `MIN_ENCODED_BYTES` (3): a
            // one-byte varint each for the node, the capture time and the
            // value count.
            let count = r.get_count(ContextSnapshot::MIN_ENCODED_BYTES)?;
            snapshots.reserve(count);
            for _ in 0..count {
                snapshots.push(ContextSnapshot::decode(r)?);
            }
            Ok(())
        })
    }

    /// Encodes the first `count` snapshots `snapshots` yields as a batch,
    /// from wherever they are held.
    pub fn encode_from<'a>(
        count: usize,
        snapshots: impl Iterator<Item = &'a ContextSnapshot>,
        w: &mut WireWriter,
    ) {
        w.put_varint(count as u64);
        for snapshot in snapshots.take(count) {
            snapshot.encode(w);
        }
    }
}

/// Registers the Cocaditem layer and its event types with a kernel, backed
/// by the node's context store: every session created from it reads and
/// writes `store`, so the Core layer and the recovery layer's
/// [`crate::store::ContextStoreSection`] observe the live replicated context.
pub fn register_cocaditem_with_store(kernel: &mut Kernel, store: Rc<RefCell<ContextStore>>) {
    kernel.layers_mut().register(CocaditemLayer::new(store));
    ContextPublish::register(kernel.events_mut());
    ContextDigest::register(kernel.events_mut());
    ContextPull::register(kernel.events_mut());
    ContextBatch::register(kernel.events_mut());
}

/// The Cocaditem dissemination layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial membership of the control group;
/// * `publish_interval_ms` — how often the local context is sampled and the
///   digest round runs (default 1000 ms).
pub struct CocaditemLayer {
    /// The node's context store, written by every session of this layer.
    store: Rc<RefCell<ContextStore>>,
}

impl CocaditemLayer {
    /// A layer whose sessions write the given context store.
    pub fn new(store: Rc<RefCell<ContextStore>>) -> Self {
        Self { store }
    }
}

impl Layer for CocaditemLayer {
    fn name(&self) -> &str {
        COCADITEM_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<ContextPublish>(),
            EventSpec::of::<ContextDigest>(),
            EventSpec::of::<ContextPull>(),
            EventSpec::of::<ContextBatch>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
            EventSpec::of::<ViewInstall>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec![
            "ContextPublish",
            "ContextDigest",
            "ContextPull",
            "ContextBatch",
            "ContextUpdated",
        ]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let members = param_node_list(params, "members");
        let mut member_set = members.clone();
        member_set.sort_unstable();
        member_set.dedup();
        Box::new(CocaditemSession {
            member_set,
            members,
            publish_interval_ms: param_or(params, "publish_interval_ms", 1000u64).max(10),
            store: Rc::clone(&self.store),
            last_published: None,
            publications: 0,
            converged_reported: false,
            targets: Vec::new(),
            rows: Vec::new(),
            batch: Vec::new(),
        })
    }
}

/// Whether a freshly sampled snapshot differs enough from the last published
/// one to be worth disseminating: a rule per `ContextKey::SHARED` key, the
/// only keys a peer reads. An error-rate drift within 0.01 is suppressed to
/// keep the control traffic low.
fn changed_significantly(previous: &ContextSnapshot, current: &ContextSnapshot) -> bool {
    let rate_moved = match (previous.error_rate(), current.error_rate()) {
        (Some(before), Some(after)) => (before - after).abs() > 0.01,
        (before, after) => before.is_some() != after.is_some(),
    };
    previous.device_class() != current.device_class() || rate_moved
}

/// Session state of the Cocaditem dissemination layer.
pub struct CocaditemSession {
    /// The membership in view order, which the random peer draws index
    /// into.
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    /// The same membership sorted by id, for membership checks: one [`seek`]
    /// walk checks an id-sorted list against it in O(n).
    // bound: mirrors `members` -- rebuilt on view install, <= view size.
    member_set: Vec<NodeId>,
    publish_interval_ms: u64,
    store: Rc<RefCell<ContextStore>>,
    last_published: Option<ContextSnapshot>,
    publications: u64,
    converged_reported: bool,
    /// Scratch for each random peer draw.
    // bound: refilled by every draw; <= view size.
    targets: Vec<NodeId>,
    /// Scratch for the rows of each received pull.
    // bound: refilled on every received pull; <= the rows its packet holds.
    rows: Vec<(NodeId, u64)>,
    /// Scratch for the snapshots of each received batch.
    // bound: refilled on every received batch; <= the snapshots its packet holds, shrunk to `BATCH_SCRATCH_KEPT` after it.
    batch: Vec<ContextSnapshot>,
}

impl std::fmt::Debug for CocaditemSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CocaditemSession")
            .field("members", &self.members)
            .field("publish_interval_ms", &self.publish_interval_ms)
            .field("known_nodes", &self.store.borrow().len())
            .field("publications", &self.publications)
            .finish()
    }
}

impl CocaditemSession {
    fn is_member(&self, node: NodeId) -> bool {
        self.member_set.binary_search(&node).is_ok()
    }

    /// Draws up to `FANOUT` random members, excluding `exclude`, into
    /// `targets`; whether there were any.
    fn draw_targets(&mut self, exclude: &[NodeId], ctx: &mut EventContext<'_>) -> bool {
        sample_peers_into(&self.members, exclude, FANOUT, ctx, &mut self.targets);
        !self.targets.is_empty()
    }

    /// Sends one snapshot to the drawn targets with the given forwarding TTL.
    fn send_snapshot(&self, snapshot: &ContextSnapshot, ttl: u8, ctx: &mut EventContext<'_>) {
        let mut message = Message::new();
        message.push(snapshot);
        message.push(&ttl);
        let dest = Dest::Nodes(self.targets.clone());
        ctx.dispatch(Event::down(ContextPublish::new(
            ctx.node_id(),
            dest,
            message,
        )));
    }

    /// Reports (once) that the store covers the whole membership, so the
    /// testbed can measure dissemination convergence time.
    fn maybe_report_convergence(&mut self, ctx: &mut EventContext<'_>) {
        if self.converged_reported || self.members.is_empty() {
            return;
        }
        let store = self.store.borrow();
        let mut cursor = 0;
        let covered = self.member_set.iter().all(|member| {
            seek(store.as_slice(), &mut cursor, *member, |snapshot| {
                snapshot.node
            })
            .is_ok()
        });
        drop(store);
        if covered {
            self.converged_reported = true;
            ctx.deliver(DeliveryKind::ContextConverged {
                nodes: self.members.len(),
            });
        }
    }

    /// Samples the local context and, when a shared key changed
    /// significantly since the last publication, stores the sample's shared
    /// keys and pushes them to `FANOUT` random peers (anti-entropy repairs
    /// any loss).
    fn publish(&mut self, ctx: &mut EventContext<'_>, force: bool) {
        let local = ctx.node_id();
        let sample = ContextSnapshot::from_profile(&ctx.profile(), ctx.now_ms());
        let snapshot = sample.shared();
        // The full local sample is reported upward on every tick so the
        // local Core instance sees its own node's context without a network
        // round trip — even a re-sample too small to publish.
        ctx.dispatch(Event::up(ContextUpdated {
            local_sample: Some(sample),
        }));
        // Coverage can also be completed from outside the dissemination
        // exchanges — a rejoined node's store is installed wholesale by the
        // recovery state transfer — so the convergence check runs on every
        // tick, not only when this node's own context changed.
        self.maybe_report_convergence(ctx);

        let changed = match &self.last_published {
            Some(previous) => changed_significantly(previous, &snapshot),
            None => true,
        };
        if !(force || changed) {
            return;
        }

        // The store (and therefore the summary) only ever advances to
        // *published* versions: an unpublished local re-sample must not bump
        // the advertised version, or every peer's summary would differ from
        // this node's on every interval forever.
        self.store.borrow_mut().update(snapshot.clone());
        self.maybe_report_convergence(ctx);

        if self.draw_targets(&[local], ctx) {
            self.publications += 1;
            self.send_snapshot(&snapshot, FORWARD_TTL, ctx);
        }
        self.last_published = Some(snapshot);
    }

    /// Sends the store's summary to `FANOUT` random peers.
    fn gossip_summary(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        if !self.draw_targets(&[local], ctx) {
            return;
        }
        let mut message = Message::new();
        message.push(&self.store.borrow().summary());
        let dest = Dest::Nodes(self.targets.clone());
        ctx.dispatch(Event::down(ContextDigest::new(local, dest, message)));
    }

    /// Handles a received snapshot: store it, signal it upward and — while
    /// the TTL lasts — keep spreading it if it was news. A non-member's
    /// snapshot is refused.
    fn on_snapshot(
        &mut self,
        snapshot: ContextSnapshot,
        ttl: u8,
        from: NodeId,
        ctx: &mut EventContext<'_>,
    ) {
        let node = snapshot.node;
        if !self.is_member(node) || !self.store.borrow_mut().update(snapshot) {
            return;
        }
        ctx.dispatch(Event::up(ContextUpdated { local_sample: None }));
        self.maybe_report_convergence(ctx);
        if ttl > 0 && self.draw_targets(&[ctx.node_id(), from, node], ctx) {
            let store = self.store.borrow();
            if let Some(snapshot) = store.get(node) {
                self.send_snapshot(snapshot, ttl - 1, ctx);
            }
        }
    }

    /// Handles a peer's summary: a mismatch is answered with this node's
    /// rows, which ask the peer for what it holds newer. A summary from
    /// outside the installed view is ignored — expelled members must stop
    /// receiving anti-entropy traffic.
    fn on_summary(&mut self, summary: StoreSummary, from: NodeId, ctx: &mut EventContext<'_>) {
        let store = self.store.borrow();
        if !self.is_member(from) || store.summary() == summary {
            return;
        }
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| w.put_id_rows(store.digest_rows())));
        drop(store);
        ctx.dispatch(Event::down(ContextPull::new(
            ctx.node_id(),
            Dest::Node(from),
            message,
        )));
    }

    /// Handles the rows decoded into `rows`: answer with one batch of every
    /// member snapshot the puller lacks or holds older, encoded straight
    /// from the store. Snapshots are served to current view members only; a
    /// removed peer rebuilds its store through the rejoin state transfer.
    fn on_rows(&mut self, from: NodeId, ctx: &mut EventContext<'_>) {
        if !self.is_member(from) {
            return;
        }
        // A well-formed pull is already sorted; an unsorted one must get the
        // same answer.
        self.rows.sort_unstable_by_key(|(node, _)| *node);
        let (rows, member_set) = (&self.rows, &self.member_set);
        let store = self.store.borrow();
        let newer = || {
            let (mut members, mut cursor) = (0, 0);
            store.as_slice().iter().filter(move |snapshot| {
                let node = snapshot.node;
                let theirs = seek(rows, &mut cursor, node, |(id, _)| *id)
                    .ok()
                    .and_then(|at| rows.get(at));
                seek(member_set, &mut members, node, |id| *id).is_ok()
                    && theirs.is_none_or(|(_, version)| *version < snapshot.captured_at_ms)
            })
        };
        let count = newer().count();
        if count == 0 {
            return;
        }
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| BatchBody::encode_from(count, newer(), w)));
        drop(store);
        ctx.dispatch(Event::down(ContextBatch::new(
            ctx.node_id(),
            Dest::Node(from),
            message,
        )));
    }

    /// Handles the snapshots of a batched pull answer, decoded into `batch`:
    /// each member snapshot is stored and signalled like a directly received
    /// publication (no further forwarding — the batch was explicitly
    /// requested, so spreading it again would only add redundancy).
    fn on_batch(&mut self, ctx: &mut EventContext<'_>) {
        for snapshot in &self.batch {
            if self.is_member(snapshot.node) && self.store.borrow_mut().update(snapshot.clone()) {
                ctx.dispatch(Event::up(ContextUpdated { local_sample: None }));
            }
        }
        self.maybe_report_convergence(ctx);
        self.batch.clear();
        self.batch.shrink_to(BATCH_SCRATCH_KEPT);
    }
}

impl Session for CocaditemSession {
    fn layer_name(&self) -> &str {
        COCADITEM_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            ctx.set_timer(self.publish_interval_ms, PUBLISH_TAG);
            // Publish immediately so the control component converges quickly
            // after start-up.
            self.publish(ctx, true);
            ctx.forward(event);
            return;
        }
        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == COCADITEM_LAYER {
                if timer.tag == PUBLISH_TAG {
                    self.publish(ctx, false);
                    self.gossip_summary(ctx);
                    ctx.set_timer(self.publish_interval_ms, PUBLISH_TAG);
                }
                return;
            }
            ctx.forward(event);
            return;
        }
        if let Some(install) = event.get::<ViewInstall>() {
            self.members.clone_from(&install.view.members);
            self.member_set.clone_from(&self.members);
            self.member_set.sort_unstable();
            self.member_set.dedup();
            // Expelled members must stop occupying the store: their rows
            // would keep this node's summary apart from its peers'.
            self.store.borrow_mut().retain_members(&self.member_set);
            self.converged_reported = false;
            ctx.forward(event);
            return;
        }
        if event.direction == Direction::Down {
            ctx.forward(event);
            return;
        }
        if let Some(publish) = event.get_mut::<ContextPublish>() {
            let from = publish.header.source;
            let Ok(ttl) = publish.message.pop::<u8>() else {
                return;
            };
            let Ok(snapshot) = publish.message.pop::<ContextSnapshot>() else {
                return;
            };
            self.on_snapshot(snapshot, ttl.min(FORWARD_TTL), from, ctx);
            return;
        }
        if let Some(digest) = event.get_mut::<ContextDigest>() {
            let from = digest.header.source;
            if let Ok(summary) = digest.message.pop::<StoreSummary>() {
                self.on_summary(summary, from, ctx);
            }
            return;
        }
        if let Some(pull) = event.get_mut::<ContextPull>() {
            let from = pull.header.source;
            let Some(header) = pull.message.pop_header() else {
                return;
            };
            if WireReader::new(&header)
                .get_id_table_into(&mut self.rows)
                .is_ok()
            {
                self.on_rows(from, ctx);
            }
            return;
        }
        if let Some(batch) = event.get_mut::<ContextBatch>() {
            let Some(header) = batch.message.pop_header() else {
                return;
            };
            if BatchBody::decode_into(&header, &mut self.batch).is_ok() {
                self.on_batch(ctx);
            }
            return;
        }
        ctx.forward(event);
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::{NodeProfile, TestPlatform};
    use morpheus_appia::testing::Harness;

    use super::*;
    use crate::context::ContextKey;

    fn params(members: &[u32], interval: u64) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params.insert("publish_interval_ms".into(), interval.to_string());
        params
    }

    fn publish_message(snapshot: &ContextSnapshot, ttl: u8) -> Message {
        let mut message = Message::new();
        message.push(snapshot);
        message.push(&ttl);
        message
    }

    fn fixed(node: u32, at: u64) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(node)), at)
    }

    /// Node 1's layer over `members`; its store holds its own snapshot at
    /// version 0 and a fixed node's at each of `known`'s versions.
    fn node_one(
        members: &[u32],
        known: &[(u32, u64)],
    ) -> (Harness, TestPlatform, Rc<RefCell<ContextStore>>) {
        let mut platform = TestPlatform::new(NodeId(1));
        let store = Rc::new(RefCell::new(ContextStore::new()));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(store.clone()),
            &params(members, 1000),
            &mut platform,
        );
        for (node, at) in known {
            store.borrow_mut().update(fixed(*node, *at));
        }
        cocaditem.drain_down();
        (cocaditem, platform, store)
    }

    /// The summary of a store holding `rows`.
    fn summary_of(rows: &[(u32, u64)]) -> StoreSummary {
        let mut store = ContextStore::new();
        for (node, at) in rows {
            store.update(fixed(*node, *at));
        }
        store.summary()
    }

    fn digest_from(from: u32, summary: StoreSummary) -> Event {
        let mut message = Message::new();
        message.push(&summary);
        Event::up(ContextDigest::new(
            NodeId(from),
            Dest::Node(NodeId(1)),
            message,
        ))
    }

    fn pull_from(from: u32, rows: &[(u32, u64)]) -> Event {
        let rows = rows.iter().map(|(node, at)| (NodeId(*node), *at));
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| w.put_id_rows(rows)));
        Event::up(ContextPull::new(
            NodeId(from),
            Dest::Node(NodeId(1)),
            message,
        ))
    }

    /// A message carrying a batch of `snapshots`.
    fn batch_of(snapshots: &[ContextSnapshot]) -> Message {
        let mut message = Message::new();
        let count = snapshots.len();
        message.push_header(encode_pooled(|w| {
            BatchBody::encode_from(count, snapshots.iter(), w)
        }));
        message
    }

    /// The `(node, version)` of every snapshot in the one batch `down` holds.
    fn batched(down: &[Event]) -> Vec<(NodeId, u64)> {
        assert_eq!(down.len(), 1, "one batch: {down:?}");
        let batch = down[0].get::<ContextBatch>().expect("a batch");
        let mut snapshots = Vec::new();
        BatchBody::decode_into(batch.message.peek_header().unwrap(), &mut snapshots).unwrap();
        snapshots
            .iter()
            .map(|s| (s.node, s.captured_at_ms))
            .collect()
    }

    fn fire_publish_timer(harness: &mut Harness, platform: &mut TestPlatform) {
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        assert!(!timers.is_empty());
        harness.fire_timer(timers[0].1, platform);
    }

    #[test]
    fn epidemic_mode_pushes_to_fanout_peers_and_gossips_digests() {
        let mut platform = TestPlatform::with_profile(NodeProfile::mobile_pda(NodeId(0)));
        let members: Vec<u32> = (0..12).collect();
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&members, 500),
            &mut platform,
        );

        // Raise the error rate enough to re-trigger a significant change,
        // then fire the publish timer.
        let mut lossy = NodeProfile::mobile_pda(NodeId(0));
        lossy.error_rate += 0.1;
        platform.profile = lossy;
        fire_publish_timer(&mut cocaditem, &mut platform);

        let down = cocaditem.drain_down();
        let publishes: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextPublish>())
            .collect();
        assert_eq!(publishes.len(), 1);
        let publish = publishes[0].get::<ContextPublish>().unwrap();
        let Dest::Nodes(targets) = &publish.header.dest else {
            panic!("publish must address a node list");
        };
        assert_eq!(targets.len(), 3, "push fan-out bounds the traffic");

        let digests: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextDigest>())
            .collect();
        assert_eq!(digests.len(), 1, "one digest round per interval");
        let digest = digests[0].get::<ContextDigest>().unwrap();
        let Dest::Nodes(digest_targets) = &digest.header.dest else {
            panic!("digest must address a node list");
        };
        assert_eq!(digest_targets.len(), 3);
        let summary = digest.message.clone().pop::<StoreSummary>().unwrap();
        assert_eq!(summary.rows, 1, "the digest sums up the known store");
    }

    #[test]
    fn a_received_ttl_is_clamped_to_the_forwarding_budget() {
        let (mut cocaditem, mut platform, _store) = node_one(&(0..10).collect::<Vec<_>>(), &[]);
        let snapshot = fixed(2, 77);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                publish_message(&snapshot, u8::MAX),
            )),
            &mut platform,
        );
        let down = cocaditem.drain_down();
        let forward = down
            .iter()
            .find_map(|event| event.get::<ContextPublish>())
            .expect("a fresh snapshot is forwarded");
        let mut message = forward.message.clone();
        assert_eq!(message.pop::<u8>().unwrap(), FORWARD_TTL - 1);
        assert_eq!(message.pop::<ContextSnapshot>().unwrap(), snapshot);
    }

    #[test]
    fn received_publications_are_reported_upward_and_forwarded_while_fresh() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..10).collect();
        let store = Rc::new(RefCell::new(ContextStore::new()));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(store.clone()),
            &params(&members, 1000),
            &mut platform,
        );

        let snapshot = ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(2)), 77);
        let up = cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                publish_message(&snapshot, 2),
            )),
            &mut platform,
        );
        let updated: Vec<&ContextUpdated> = up
            .iter()
            .filter_map(|event| event.get::<ContextUpdated>())
            .collect();
        assert_eq!(updated.len(), 1);
        assert!(
            updated[0].local_sample.is_none(),
            "a peer's snapshot is read from the store, not carried"
        );
        assert_eq!(store.borrow().version_of(NodeId(2)), Some(77));

        // The fresh snapshot is forwarded epidemically with a decremented TTL.
        let down = cocaditem.drain_down();
        let forwards: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextPublish>())
            .collect();
        assert_eq!(forwards.len(), 1);
        let mut message = forwards[0].get::<ContextPublish>().unwrap().message.clone();
        assert_eq!(message.pop::<u8>().unwrap(), 1, "TTL decremented");

        // A duplicate is neither reported nor forwarded.
        let up = cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                publish_message(&snapshot, 2),
            )),
            &mut platform,
        );
        assert!(up.iter().all(|event| !event.is::<ContextUpdated>()));
        assert!(cocaditem
            .drain_down()
            .iter()
            .all(|event| !event.is::<ContextPublish>()));
    }

    #[test]
    fn a_matching_summary_sends_nothing_and_a_mismatch_answers_with_the_rows() {
        let (mut cocaditem, mut platform, _) = node_one(&[1, 2, 3], &[(3, 50)]);
        let digest = digest_from(2, summary_of(&[(3, 50), (1, 0)]));
        cocaditem.run_up(digest, &mut platform);
        assert!(cocaditem.drain_down().is_empty(), "a match sends nothing");

        // Node 2 holds node 3's snapshot newer, and its own.
        let digest = digest_from(2, summary_of(&[(1, 0), (2, 10), (3, 90)]));
        cocaditem.run_up(digest, &mut platform);
        let down = cocaditem.drain_down();
        assert_eq!(down.len(), 1);
        let pull = down[0].get::<ContextPull>().expect("the rows");
        assert_eq!(pull.header.dest, Dest::Node(NodeId(2)));
        let mut rows = Vec::new();
        let header = pull.message.peek_header().unwrap();
        WireReader::new(header)
            .get_id_table_into(&mut rows)
            .unwrap();
        assert_eq!(rows, vec![(NodeId(1), 0), (NodeId(3), 50)]);
    }

    #[test]
    fn rows_get_one_batch_of_exactly_the_member_snapshots_held_newer() {
        // Node 9 is no member, but its row is in the store.
        let known = [(2, 20), (3, 50), (4, 40), (5, 7), (9, 5)];
        let (mut cocaditem, mut platform, _) = node_one(&[1, 2, 3, 4, 5], &known);
        // Node 2 lacks node 1's snapshot and holds node 3's newer, node
        // 4's the same and node 5's older.
        let rows = [(2, 20), (3, 90), (4, 40), (5, 3)];
        cocaditem.run_up(pull_from(2, &rows), &mut platform);
        let down = cocaditem.drain_down();
        assert_eq!(
            down[0].get::<ContextBatch>().unwrap().header.dest,
            Dest::Node(NodeId(2))
        );
        assert_eq!(batched(&down), vec![(NodeId(1), 0), (NodeId(5), 7)]);

        // The same rows out of order get the same answer.
        let reversed: Vec<_> = rows.iter().rev().copied().collect();
        cocaditem.run_up(pull_from(2, &reversed), &mut platform);
        assert_eq!(
            batched(&cocaditem.drain_down()),
            vec![(NodeId(1), 0), (NodeId(5), 7)]
        );

        // Rows that miss nothing get no answer.
        let rows = [(1, 0), (2, 20), (3, 90), (4, 40), (5, 7)];
        cocaditem.run_up(pull_from(2, &rows), &mut platform);
        assert!(cocaditem.drain_down().is_empty());
    }

    #[test]
    fn a_non_members_snapshot_is_refused_so_it_keeps_no_summaries_apart() {
        let (mut cocaditem, mut platform, store) = node_one(&[1, 2, 3], &[(2, 10)]);
        let before = store.borrow().summary();
        // Node 9 is no member: its snapshot is neither stored nor forwarded,
        // whether pushed or batched.
        let publish = ContextPublish::new(
            NodeId(2),
            Dest::Node(NodeId(1)),
            publish_message(&fixed(9, 5), 2),
        );
        let batch = batch_of(&[fixed(9, 6)]);
        for event in [
            Event::up(publish),
            Event::up(ContextBatch::new(NodeId(2), Dest::Node(NodeId(1)), batch)),
        ] {
            let up = cocaditem.run_up(event, &mut platform);
            assert!(up.iter().all(|event| !event.is::<ContextUpdated>()));
        }
        assert!(cocaditem.drain_down().is_empty());
        assert_eq!(
            (store.borrow().summary(), store.borrow().get(NodeId(9))),
            (before, None)
        );
        // A member holding the same member rows matches.
        cocaditem.run_up(
            digest_from(2, summary_of(&[(1, 0), (2, 10)])),
            &mut platform,
        );
        assert!(cocaditem.drain_down().is_empty());
    }

    #[test]
    fn batched_answers_are_stored_and_reported_upward() {
        let mut platform = TestPlatform::new(NodeId(1));
        let store = Rc::new(RefCell::new(ContextStore::new()));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(store.clone()),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );
        platform.take_deliveries();

        let message = batch_of(&[
            ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 30),
            ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(3)), 40),
        ]);
        let up = cocaditem.run_up(
            Event::up(ContextBatch::new(NodeId(2), Dest::Node(NodeId(1)), message)),
            &mut platform,
        );
        let updates = up
            .iter()
            .filter_map(|event| event.get::<ContextUpdated>())
            .filter(|update| update.local_sample.is_none())
            .count();
        assert_eq!(updates, 2, "one signal per stored snapshot");
        assert_eq!(store.borrow().version_of(NodeId(2)), Some(30));
        assert_eq!(store.borrow().version_of(NodeId(3)), Some(40));
        // The batch completed the membership: convergence is reported.
        assert!(platform
            .take_deliveries()
            .iter()
            .any(|delivery| matches!(delivery.kind, DeliveryKind::ContextConverged { nodes: 3 })));
    }

    #[test]
    fn covering_the_whole_membership_is_reported_once() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&[1, 2], 1000),
            &mut platform,
        );
        platform.take_deliveries();

        let snapshot = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 10);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                publish_message(&snapshot, 0),
            )),
            &mut platform,
        );
        let converged: Vec<_> = platform
            .take_deliveries()
            .into_iter()
            .filter(|delivery| matches!(delivery.kind, DeliveryKind::ContextConverged { nodes: 2 }))
            .collect();
        assert_eq!(converged.len(), 1);

        // A newer snapshot does not re-report convergence.
        let newer = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 20);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                publish_message(&newer, 0),
            )),
            &mut platform,
        );
        assert!(platform
            .take_deliveries()
            .iter()
            .all(|delivery| !matches!(delivery.kind, DeliveryKind::ContextConverged { .. })));
    }

    #[test]
    fn unchanged_context_is_not_republished() {
        let mut platform = TestPlatform::with_profile(NodeProfile::mobile_pda(NodeId(2)));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&[1, 2], 500),
            &mut platform,
        );

        // The initial (forced) publication happened at ChannelInit. With an
        // unchanged profile, the next few ticks stay silent on the network
        // but keep reporting the local context upward.
        for _ in 0..3 {
            fire_publish_timer(&mut cocaditem, &mut platform);
            let down = cocaditem.drain_down();
            assert!(down.iter().all(|event| !event.is::<ContextPublish>()));
            assert!(cocaditem
                .drain_up()
                .iter()
                .filter_map(|event| event.get::<ContextUpdated>())
                .any(|update| update.local_sample.is_some()));
        }

        // A battery drop is no peer's business: reported upward, not
        // published.
        let mut drained = NodeProfile::mobile_pda(NodeId(2));
        drained.battery_level = 0.5;
        platform.profile = drained.clone();
        fire_publish_timer(&mut cocaditem, &mut platform);
        assert!(cocaditem
            .drain_down()
            .iter()
            .all(|event| !event.is::<ContextPublish>()));

        // A significant error-rate rise is disseminated immediately, with
        // the shared keys only.
        drained.error_rate += 0.1;
        platform.profile = drained;
        fire_publish_timer(&mut cocaditem, &mut platform);
        let down = cocaditem.drain_down();
        let publish = down
            .iter()
            .find_map(|event| event.get::<ContextPublish>())
            .expect("a publication");
        let mut message = publish.message.clone();
        message.pop::<u8>().unwrap();
        let snapshot = message.pop::<ContextSnapshot>().unwrap();
        let keys: Vec<ContextKey> = snapshot.entries().map(|(key, _)| key).collect();
        assert_eq!(keys, ContextKey::SHARED);
    }

    #[test]
    fn malformed_publications_are_dropped() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&[1, 2], 1000),
            &mut platform,
        );
        let up = cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        assert!(up.iter().all(|event| !event.is::<ContextUpdated>()));

        // Malformed digests and pulls are dropped too.
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        cocaditem.run_up(
            Event::up(ContextPull::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        assert!(cocaditem.drain_down().is_empty());
    }

    #[test]
    fn view_install_updates_the_dissemination_targets() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&[1, 2], 300),
            &mut platform,
        );
        cocaditem.run_down(
            Event::down(ViewInstall {
                view: morpheus_groupcomm::View::new(1, vec![NodeId(1), NodeId(2), NodeId(5)]),
            }),
            &mut platform,
        );
        // A significant change makes the next tick publish; with no more
        // peers than the fan-out, the push reaches every one of them.
        let mut drained = NodeProfile::mobile_pda(NodeId(1));
        drained.battery_level = 0.5;
        platform.profile = drained;
        fire_publish_timer(&mut cocaditem, &mut platform);
        let down = cocaditem.drain_down();
        let publish = down
            .iter()
            .find(|event| event.is::<ContextPublish>())
            .unwrap();
        assert_eq!(
            publish.get::<ContextPublish>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(2), NodeId(5)])
        );
    }

    #[test]
    fn digest_bodies_roundtrip_and_reject_adversarial_counts() {
        let rows = vec![(NodeId(1), 10), (NodeId(2), 20)];
        let body = encode_pooled(|w| w.put_id_rows(rows.iter().copied()));
        let mut decoded = Vec::new();
        WireReader::new(&body)
            .get_id_table_into(&mut decoded)
            .unwrap();
        assert_eq!(decoded, rows);
        let summary = StoreSummary {
            rows: 200,
            hash: u64::MAX - 7,
        };
        assert_eq!(
            StoreSummary::from_bytes(&summary.to_bytes()).unwrap(),
            summary
        );

        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        w.put_u64(1);
        let overstated = w.finish();
        assert!(WireReader::new(&overstated)
            .get_id_table_into(&mut decoded)
            .is_err());
        assert!(StoreSummary::from_bytes(&summary.to_bytes()[..9]).is_err());
    }

    #[test]
    fn expelled_members_get_no_anti_entropy_replies() {
        let (mut cocaditem, mut platform, _) = node_one(&[1, 2, 3], &[]);
        cocaditem.run_down(
            Event::down(ViewInstall {
                view: morpheus_groupcomm::View::new(2, vec![NodeId(1), NodeId(2)]),
            }),
            &mut platform,
        );
        cocaditem.drain_down();

        // The expelled node 3's summary differs: no rows go back to it.
        cocaditem.run_up(digest_from(3, summary_of(&[(2, 90)])), &mut platform);
        assert!(
            cocaditem.drain_down().is_empty(),
            "an expelled member's summary gets no rows"
        );
        // Its rows get no batch, while a current member's identical rows do.
        cocaditem.run_up(pull_from(3, &[]), &mut platform);
        assert!(
            cocaditem.drain_down().is_empty(),
            "snapshots are not served to expelled members"
        );
        cocaditem.run_up(pull_from(2, &[]), &mut platform);
        assert_eq!(batched(&cocaditem.drain_down()), vec![(NodeId(1), 0)]);
    }
}
