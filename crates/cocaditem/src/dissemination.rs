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
//! Dissemination is epidemic rather than an all-to-all flood:
//!
//! * when the local context changes significantly, the snapshot is **pushed
//!   to `FANOUT` (3) random peers**, each of which forwards fresh snapshots
//!   to another 3 peers while `FORWARD_TTL` (3 rounds) lasts — `O(n · fanout)`
//!   messages per publication instead of `n · (n - 1)`, converging in
//!   `O(log n)` hops;
//! * every publish interval the layer additionally gossips a compact
//!   [`ContextDigest`] — its `(node, version)` view of the store — to
//!   `FANOUT` random peers. A digest receiver **pulls** the snapshots its
//!   peer holds newer versions of ([`ContextPull`], rate-limited per node so
//!   concurrent digests do not re-request the same snapshots) and the answer
//!   arrives as one batched [`ContextBatch`], so any snapshot lost in
//!   transit is repaired within a few intervals without periodically
//!   re-flooding full snapshots.

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::{DeliveryKind, NodeId};
use morpheus_appia::session::Session;
use morpheus_appia::wire::{encode_pooled, Wire, WireError, WireReader, WireWriter};
use morpheus_appia::{internal_event, sendable_event, Kernel};
use morpheus_groupcomm::events::ViewInstall;
use morpheus_groupcomm::sorted::seek;

use std::cell::RefCell;
use std::rc::Rc;

use crate::context::ContextSnapshot;
use crate::retriever::{default_retrievers, ContextRetriever};
use crate::store::ContextStore;

/// Registered name of the Cocaditem dissemination layer.
pub const COCADITEM_LAYER: &str = "cocaditem";

/// Timer tag for the periodic publication.
const PUBLISH_TAG: u32 = 1;

/// Random peers each snapshot push and each digest round targets.
const FANOUT: usize = 3;

/// Epidemic forwarding rounds a freshly pushed snapshot survives.
const FORWARD_TTL: u32 = 3;

sendable_event! {
    /// A context snapshot travelling between nodes (payload: a forwarding
    /// TTL on top of the encoded [`ContextSnapshot`]).
    pub struct ContextPublish, class: Context
}

sendable_event! {
    /// An anti-entropy digest: the sender's `(node, version)` view of its
    /// context store (payload: the encoded [`DigestBody`]).
    pub struct ContextDigest, class: Context
}

sendable_event! {
    /// A pull request for snapshots the digest sender holds newer versions
    /// of (payload: the encoded [`PullBody`]).
    pub struct ContextPull, class: Context
}

sendable_event! {
    /// The answer to a [`ContextPull`]: every requested snapshot batched
    /// into one message (payload: the encoded [`BatchBody`]), so repairing a
    /// freshly booted node costs one message instead of one per member.
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

/// Wire body of a [`ContextDigest`]: every store entry as `(node, version)`,
/// where the version is the snapshot's capture time (monotonic per node).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DigestBody {
    /// `(node, version)` pairs, in node-id order.
    pub entries: Vec<(NodeId, u64)>,
}

impl DigestBody {
    /// Decodes the digest carried in `header` (a popped message header)
    /// into `entries`, a caller-owned scratch that keeps its capacity
    /// across digests. All or nothing, as [`Message::pop`]: a malformed row
    /// or trailing bytes is an error and leaves `entries` empty.
    pub fn decode_into(header: &[u8], entries: &mut Vec<(NodeId, u64)>) -> Result<(), WireError> {
        let mut r = WireReader::new(header);
        r.get_id_table_into(entries)?;
        if r.remaining() != 0 {
            entries.clear();
            return Err(WireError::Malformed("trailing bytes in header"));
        }
        Ok(())
    }
}

impl Wire for DigestBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_id_table(&self.entries);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            entries: r.get_id_table()?,
        })
    }
}

/// Wire body of a [`ContextPull`]: the nodes whose snapshots are requested.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PullBody {
    /// Nodes whose snapshots the requester is missing or holds stale.
    pub nodes: Vec<NodeId>,
}

impl Wire for PullBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_gap_list(&self.nodes);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            nodes: r.get_gap_list()?,
        })
    }
}

/// Wire body of a [`ContextBatch`]: the requested snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchBody {
    /// The snapshots, in the order they were requested.
    pub snapshots: Vec<ContextSnapshot>,
}

impl Wire for BatchBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.snapshots.len() as u64);
        for snapshot in &self.snapshots {
            snapshot.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // A snapshot encodes to at least 16 bytes (node + capture time +
        // value count).
        let count = r.get_count(16)?;
        let mut snapshots = Vec::with_capacity(count);
        for _ in 0..count {
            snapshots.push(ContextSnapshot::decode(r)?);
        }
        Ok(Self { snapshots })
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
    pub(crate) fn new(store: Rc<RefCell<ContextStore>>) -> Self {
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
            retrievers: default_retrievers(),
            store: Rc::clone(&self.store),
            last_published: None,
            publications: 0,
            converged_reported: false,
            recent_pulls: morpheus_appia::hash::HashMap::default(),
            behind_peers: std::collections::BTreeSet::new(),
            digest_entries: Vec::new(),
        })
    }
}

/// Whether a freshly sampled snapshot differs enough from the last published
/// one to be worth disseminating (battery drains continuously, so small
/// numeric drifts are suppressed to keep the control traffic low).
fn changed_significantly(previous: &ContextSnapshot, current: &ContextSnapshot) -> bool {
    use crate::context::ContextKey;

    if previous.device_class() != current.device_class() {
        return true;
    }
    let numeric_changed = |key: ContextKey, tolerance: f64| {
        let before = previous
            .get(key)
            .and_then(crate::context::ContextValue::as_number);
        let after = current
            .get(key)
            .and_then(crate::context::ContextValue::as_number);
        match (before, after) {
            (Some(before), Some(after)) => (before - after).abs() > tolerance,
            (None, None) => false,
            _ => true,
        }
    };
    numeric_changed(ContextKey::BatteryLevel, 0.05)
        || numeric_changed(ContextKey::ErrorRate, 0.01)
        || numeric_changed(ContextKey::LinkQuality, 0.05)
        || numeric_changed(ContextKey::BandwidthKbps, 500.0)
        || previous.get(ContextKey::NativeMulticast) != current.get(ContextKey::NativeMulticast)
}

/// `node`'s snapshot in the id-sorted `snapshots` of a store, looked up
/// with [`seek`] from `cursor`.
fn stored<'a>(
    snapshots: &'a [ContextSnapshot],
    cursor: &mut usize,
    node: NodeId,
) -> Option<&'a ContextSnapshot> {
    seek(snapshots, cursor, node, |snapshot| snapshot.node)
        .ok()
        .and_then(|at| snapshots.get(at))
}

/// Session state of the Cocaditem dissemination layer.
pub struct CocaditemSession {
    /// The membership in view order, which the random peer draws index
    /// into.
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    /// The same membership sorted by id, for the membership checks of a
    /// received digest: the digest and the store are in id order too, so
    /// one [`seek`] walk checks them all in O(n).
    // bound: mirrors `members` -- rebuilt on view install, <= view size.
    member_set: Vec<NodeId>,
    publish_interval_ms: u64,
    // bound: fixed set installed at session construction; never grows.
    retrievers: Vec<Box<dyn ContextRetriever>>,
    store: Rc<RefCell<ContextStore>>,
    last_published: Option<ContextSnapshot>,
    publications: u64,
    converged_reported: bool,
    /// Pull budget per snapshot: `(window start ms, pulls issued in the
    /// window)`. Up to **two** digest senders per publish interval may be
    /// pulled from for the same missing snapshot — one redundant pull
    /// halves the tail under heavy control loss (a single lost answer no
    /// longer costs a whole extra interval), while still keeping the boot
    /// transient far below the flood it replaces.
    // bound: pruned to live members on view install; a node's entry drops when its snapshot arrives.
    recent_pulls: morpheus_appia::hash::HashMap<NodeId, (u64, u32)>,
    /// Peers whose most recent digest advertised a staler view of the store
    /// than ours. Our own digest targets are biased towards them: a peer
    /// that is behind learns what to pull from us one interval sooner than
    /// uniform random targeting would manage, which shortens the last
    /// stragglers' convergence tail.
    // bound: <= view size; retained against the membership on view install.
    behind_peers: std::collections::BTreeSet<NodeId>,
    /// Scratch for the rows of each received digest.
    // bound: refilled on every received digest; <= the rows its packet holds.
    digest_entries: Vec<(NodeId, u64)>,
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

    fn sample_local(&mut self, ctx: &mut EventContext<'_>) -> ContextSnapshot {
        let profile = ctx.profile();
        let mut snapshot = ContextSnapshot::new(profile.node_id, ctx.now_ms());
        for retriever in &self.retrievers {
            for (key, value) in retriever.retrieve(&profile) {
                snapshot.set(key, value);
            }
        }
        snapshot
    }

    /// Picks up to `limit` random members, excluding `exclude`.
    fn random_targets(
        &self,
        limit: usize,
        exclude: &[NodeId],
        ctx: &mut EventContext<'_>,
    ) -> Vec<NodeId> {
        morpheus_groupcomm::sample::sample_peers(&self.members, exclude, limit, ctx)
    }

    /// Sends one snapshot to explicit targets with the given forwarding TTL.
    fn send_snapshot(
        snapshot: &ContextSnapshot,
        ttl: u32,
        targets: Vec<NodeId>,
        ctx: &mut EventContext<'_>,
    ) {
        if targets.is_empty() {
            return;
        }
        let mut message = Message::new();
        message.push(snapshot);
        message.push(&ttl);
        ctx.dispatch(Event::down(ContextPublish::new(
            ctx.node_id(),
            Dest::Nodes(targets),
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
        let covered = self
            .member_set
            .iter()
            .all(|member| stored(store.as_slice(), &mut cursor, *member).is_some());
        drop(store);
        if covered {
            self.converged_reported = true;
            ctx.deliver(DeliveryKind::ContextConverged {
                nodes: self.members.len(),
            });
        }
    }

    /// Samples the local context and, when it changed significantly since
    /// the last publication, pushes the snapshot to `FANOUT` random peers
    /// (anti-entropy digests repair any loss).
    fn publish(&mut self, ctx: &mut EventContext<'_>, force: bool) {
        let local = ctx.node_id();
        let snapshot = self.sample_local(ctx);
        // Local context is reported upward on every tick so the local Core
        // instance sees its own node's context without a network round trip
        // — even a re-sample too small to publish.
        ctx.dispatch(Event::up(ContextUpdated {
            local_sample: Some(snapshot.clone()),
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

        // The store (and therefore the digest) only ever advances to
        // *published* versions: an unpublished local re-sample must not bump
        // the advertised version, or every digest receiver would pull the
        // "newer" snapshot on every interval forever.
        self.store.borrow_mut().update(snapshot.clone());
        self.maybe_report_convergence(ctx);

        let targets = self.random_targets(FANOUT, &[local], ctx);
        if !targets.is_empty() {
            self.publications += 1;
            Self::send_snapshot(&snapshot, FORWARD_TTL, targets, ctx);
        }
        self.last_published = Some(snapshot);
    }

    /// Gossips the store digest to `FANOUT` peers — stale-looking peers
    /// first, the rest uniformly random.
    fn gossip_digest(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let member_set = &self.member_set;
        self.behind_peers
            .retain(|peer| *peer != local && member_set.binary_search(peer).is_ok());
        let behind: Vec<NodeId> = self.behind_peers.iter().copied().collect();
        let mut targets = morpheus_groupcomm::sample::sample_peers(&behind, &[local], FANOUT, ctx);
        if targets.len() < FANOUT {
            let mut exclude = targets.clone();
            exclude.push(local);
            targets.extend(morpheus_groupcomm::sample::sample_peers(
                &self.members,
                &exclude,
                FANOUT - targets.len(),
                ctx,
            ));
        }
        if targets.is_empty() {
            return;
        }
        // A `DigestBody` encoded straight from the store.
        let store = self.store.borrow();
        let mut message = Message::new();
        message.push_header(encode_pooled(|w| w.put_id_rows(store.digest_rows())));
        drop(store);
        ctx.dispatch(Event::down(ContextDigest::new(
            local,
            Dest::Nodes(targets),
            message,
        )));
    }

    /// Handles a received snapshot: store it, signal it upward and — while
    /// the TTL lasts — keep spreading it if it was news.
    fn on_snapshot(
        &mut self,
        snapshot: ContextSnapshot,
        ttl: u32,
        from: NodeId,
        ctx: &mut EventContext<'_>,
    ) {
        let fresh = self.store.borrow_mut().update(snapshot.clone());
        if !fresh {
            return;
        }
        ctx.dispatch(Event::up(ContextUpdated { local_sample: None }));
        self.maybe_report_convergence(ctx);
        if ttl > 0 {
            let local = ctx.node_id();
            let targets = self.random_targets(FANOUT, &[local, from, snapshot.node], ctx);
            Self::send_snapshot(&snapshot, ttl - 1, targets, ctx);
        }
    }

    /// Handles the digest decoded into `digest_entries`: pull what the peer
    /// holds newer (pull-only anti-entropy). Pulls are rate-limited per
    /// node — several digests arrive each interval and must not all
    /// re-request the same snapshots — and retried after a publish interval,
    /// which bounds convergence under loss without any periodic full
    /// republish.
    fn on_digest(&mut self, from: NodeId, ctx: &mut EventContext<'_>) {
        // A digest from outside the installed view is ignored wholesale: no
        // pull goes back, and the sender is not tracked as a behind peer —
        // expelled members must stop receiving anti-entropy traffic.
        if !self.is_member(from) {
            return;
        }
        let now = ctx.now_ms();
        let entries = &self.digest_entries;
        let store = self.store.borrow();
        let snapshots = store.as_slice();
        // Does the sender itself look *behind* (older versions than ours, or
        // snapshots it does not list at all)? If so, bias our next digest
        // rounds towards it so it learns what to pull from us.
        // The store, the member list and a digest (produced from
        // `digest_rows`) are all in node-id order, so one merge scan decides
        // it in O(n). A malformed unsorted digest only degrades the *bias*,
        // never correctness.
        let mut members = 0;
        let mut next = 0;
        let mut sender_behind = false;
        for snapshot in snapshots {
            let node = snapshot.node;
            if seek(&self.member_set, &mut members, node, |id| *id).is_err() {
                continue;
            }
            while entries
                .get(next)
                .is_some_and(|(digest_node, _)| *digest_node < node)
            {
                next += 1;
            }
            match entries.get(next) {
                Some((digest_node, version))
                    if *digest_node == node && *version >= snapshot.captured_at_ms => {}
                _ => {
                    sender_behind = true;
                    break;
                }
            }
        }
        if sender_behind {
            self.behind_peers.insert(from);
        } else {
            self.behind_peers.remove(&from);
        }

        // What to pull: a second merge scan, in digest order.
        let mut wants: Vec<NodeId> = Vec::new();
        let mut members = 0;
        let mut cursor = 0;
        for (node, version) in entries {
            if seek(&self.member_set, &mut members, *node, |id| *id).is_err() {
                continue;
            }
            let known =
                stored(snapshots, &mut cursor, *node).map(|snapshot| snapshot.captured_at_ms);
            if known >= Some(*version) {
                continue;
            }
            let window = self.recent_pulls.entry(*node).or_insert((now, 0));
            if now.saturating_sub(window.0) >= self.publish_interval_ms {
                *window = (now, 0);
            }
            if window.1 < 2 {
                window.1 += 1;
                wants.push(*node);
            }
        }
        drop(store);
        if !wants.is_empty() {
            let mut message = Message::new();
            message.push(&PullBody { nodes: wants });
            ctx.dispatch(Event::down(ContextPull::new(
                ctx.node_id(),
                Dest::Node(from),
                message,
            )));
        }
    }

    /// Handles a pull request: answer with every requested snapshot batched
    /// into a single message.
    fn on_pull(&mut self, body: PullBody, from: NodeId, ctx: &mut EventContext<'_>) {
        // Snapshots are served to current view members only; a removed peer
        // rebuilds its context store through the rejoin state transfer.
        if !self.is_member(from) {
            return;
        }
        let store = self.store.borrow();
        let snapshots: Vec<ContextSnapshot> = body
            .nodes
            .into_iter()
            .filter_map(|node| store.get(node).cloned())
            .collect();
        drop(store);
        if snapshots.is_empty() {
            return;
        }
        let mut message = Message::new();
        message.push(&BatchBody { snapshots });
        ctx.dispatch(Event::down(ContextBatch::new(
            ctx.node_id(),
            Dest::Node(from),
            message,
        )));
    }

    /// Handles a batched pull answer: each snapshot is stored and signalled
    /// like a directly received publication (no further forwarding — the
    /// batch was explicitly requested, so spreading it again would only
    /// re-create the redundancy the pull rate limit removed).
    fn on_batch(&mut self, body: BatchBody, ctx: &mut EventContext<'_>) {
        for snapshot in body.snapshots {
            let node = snapshot.node;
            if self.store.borrow_mut().update(snapshot) {
                self.recent_pulls.remove(&node);
                ctx.dispatch(Event::up(ContextUpdated { local_sample: None }));
            }
        }
        self.maybe_report_convergence(ctx);
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
                    self.gossip_digest(ctx);
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
            // Expelled members must stop occupying the store (their digest
            // entry would otherwise ride every future digest), the pull
            // rate-limit map or the staleness bias.
            self.store.borrow_mut().retain_members(&self.member_set);
            let member_set = &self.member_set;
            self.recent_pulls
                .retain(|node, _| member_set.binary_search(node).is_ok());
            self.behind_peers
                .retain(|node| member_set.binary_search(node).is_ok());
            self.converged_reported = false;
            ctx.forward(event);
            return;
        }
        if event.is::<ContextPublish>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(publish) = event.get_mut::<ContextPublish>() else {
                return;
            };
            let from = publish.header.source;
            let Ok(ttl) = publish.message.pop::<u32>() else {
                return;
            };
            let Ok(snapshot) = publish.message.pop::<ContextSnapshot>() else {
                return;
            };
            self.on_snapshot(snapshot, ttl, from, ctx);
            return;
        }
        if event.is::<ContextDigest>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(digest) = event.get_mut::<ContextDigest>() else {
                return;
            };
            let from = digest.header.source;
            let Some(header) = digest.message.pop_header() else {
                return;
            };
            if DigestBody::decode_into(&header, &mut self.digest_entries).is_err() {
                return;
            }
            self.on_digest(from, ctx);
            return;
        }
        if event.is::<ContextPull>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(pull) = event.get_mut::<ContextPull>() else {
                return;
            };
            let from = pull.header.source;
            let Ok(body) = pull.message.pop::<PullBody>() else {
                return;
            };
            self.on_pull(body, from, ctx);
            return;
        }
        if event.is::<ContextBatch>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(batch) = event.get_mut::<ContextBatch>() else {
                return;
            };
            let Ok(body) = batch.message.pop::<BatchBody>() else {
                return;
            };
            self.on_batch(body, ctx);
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

    fn publish_message(snapshot: &ContextSnapshot, ttl: u32) -> Message {
        let mut message = Message::new();
        message.push(snapshot);
        message.push(&ttl);
        message
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

        // Drain the battery enough to re-trigger a significant change, then
        // fire the publish timer.
        let mut drained = NodeProfile::mobile_pda(NodeId(0));
        drained.battery_level = 0.5;
        platform.profile = drained;
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
        let body = digest.message.clone().pop::<DigestBody>().unwrap();
        assert_eq!(body.entries.len(), 1, "digest lists the known store");
        assert_eq!(body.entries[0].0, NodeId(0));
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
        assert_eq!(message.pop::<u32>().unwrap(), 1, "TTL decremented");

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
    fn digests_trigger_rate_limited_pulls_for_stale_entries() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );

        // Node 1 knows node 3's context at version 50.
        let known = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(3)), 50);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                publish_message(&known, 0),
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        // Node 2's digest: it holds node 3 at version 90 (newer) and its own
        // context, which node 1 has never seen.
        let digest = |entries: Vec<(NodeId, u64)>| {
            let mut message = Message::new();
            message.push(&DigestBody { entries });
            message
        };
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );

        let down = cocaditem.drain_down();
        let pulls: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextPull>())
            .collect();
        assert_eq!(pulls.len(), 1);
        let pull = pulls[0].get::<ContextPull>().unwrap();
        assert_eq!(pull.header.dest, Dest::Node(NodeId(2)));
        let body = pull.message.clone().pop::<PullBody>().unwrap();
        assert_eq!(body.nodes, vec![NodeId(2), NodeId(3)]);
        assert!(
            down.iter().all(|event| !event.is::<ContextPublish>()),
            "pull-only anti-entropy pushes nothing back"
        );

        // A second digest sender within the same interval may be pulled from
        // once more (redundancy halves the tail under loss: one lost answer
        // no longer costs a whole interval)...
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );
        let second = cocaditem.drain_down();
        assert_eq!(
            second
                .iter()
                .filter(|event| event.is::<ContextPull>())
                .count(),
            1,
            "up to two digest senders per interval are pulled from"
        );
        assert_eq!(
            second
                .iter()
                .find_map(|event| event.get::<ContextPull>())
                .unwrap()
                .header
                .dest,
            Dest::Node(NodeId(3))
        );

        // ... but a third digest in the same interval is not.
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );
        assert!(
            cocaditem
                .drain_down()
                .iter()
                .all(|event| !event.is::<ContextPull>()),
            "the per-interval pull budget is two"
        );

        // After a publish interval the pull budget resets (the answers may
        // have been lost on a degraded control channel).
        platform.advance(1000);
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );
        assert_eq!(
            cocaditem
                .drain_down()
                .iter()
                .filter(|event| event.is::<ContextPull>())
                .count(),
            1,
            "lost answers are re-pulled on the next digest"
        );
    }

    #[test]
    fn an_unsorted_digest_pulls_exactly_what_the_sorted_one_pulls() {
        let sorted = vec![
            (NodeId(2), 10),
            (NodeId(3), 90),
            (NodeId(4), 5),
            (NodeId(5), 80),
            (NodeId(6), 1),
            (NodeId(9), 4),
        ];
        let mut unsorted = sorted.clone();
        unsorted.reverse();
        unsorted.swap(1, 3);

        let mut pulled = Vec::new();
        for entries in [sorted, unsorted] {
            let mut platform = TestPlatform::new(NodeId(1));
            let mut cocaditem = Harness::new(
                CocaditemLayer::new(Rc::default()),
                &params(&[1, 2, 3, 4, 5, 6], 1000),
                &mut platform,
            );
            // Node 3 is known at an older version, node 5 at the same one.
            for (node, version) in [(3, 50), (5, 80)] {
                let known =
                    ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(node)), version);
                cocaditem.run_up(
                    Event::up(ContextPublish::new(
                        NodeId(node),
                        Dest::Node(NodeId(1)),
                        publish_message(&known, 0),
                    )),
                    &mut platform,
                );
            }
            cocaditem.drain_down();

            let mut message = Message::new();
            message.push(&DigestBody { entries });
            cocaditem.run_up(
                Event::up(ContextDigest::new(
                    NodeId(2),
                    Dest::Node(NodeId(1)),
                    message,
                )),
                &mut platform,
            );
            let down = cocaditem.drain_down();
            let pull = down
                .iter()
                .find_map(|event| event.get::<ContextPull>())
                .expect("a pull");
            let mut nodes = pull.message.clone().pop::<PullBody>().unwrap().nodes;
            nodes.sort();
            pulled.push(nodes);
        }
        assert_eq!(pulled[0], vec![NodeId(2), NodeId(3), NodeId(4), NodeId(6)]);
        assert_eq!(pulled[0], pulled[1]);
    }

    #[test]
    fn digest_targets_are_biased_towards_stale_looking_peers() {
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..12).collect();
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&members, 500),
            &mut platform,
        );

        // Node 0 knows node 5's context at version 80.
        let known = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(5)), 80);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(5),
                Dest::Node(NodeId(0)),
                publish_message(&known, 0),
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        // Node 7's digest only knows node 5 at version 10: node 7 is behind.
        let mut message = Message::new();
        message.push(&DigestBody {
            entries: vec![(NodeId(5), 10)],
        });
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(7),
                Dest::Node(NodeId(0)),
                message,
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        // Every digest round now includes node 7 among its targets until it
        // catches up.
        for _ in 0..3 {
            fire_publish_timer(&mut cocaditem, &mut platform);
            let down = cocaditem.drain_down();
            let digest = down
                .iter()
                .find(|event| event.is::<ContextDigest>())
                .expect("digest round");
            let Dest::Nodes(targets) = &digest.get::<ContextDigest>().unwrap().header.dest else {
                panic!("digest must address a node list");
            };
            assert!(
                targets.contains(&NodeId(7)),
                "stale peer biased into the digest targets (got {targets:?})"
            );
        }

        // Once node 7's digest shows it caught up, the bias is dropped.
        let mut message = Message::new();
        message.push(&DigestBody {
            entries: vec![(NodeId(5), 80), (NodeId(0), 1)],
        });
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(7),
                Dest::Node(NodeId(0)),
                message,
            )),
            &mut platform,
        );
        // (No assertion on absence — targets are random — but the bias set
        // no longer forces node 7; this exercises the removal path.)
    }

    #[test]
    fn pull_requests_are_answered_with_one_batched_message() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );
        let known = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(3)), 50);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                publish_message(&known, 0),
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        let mut message = Message::new();
        message.push(&PullBody {
            nodes: vec![NodeId(1), NodeId(3), NodeId(9)],
        });
        cocaditem.run_up(
            Event::up(ContextPull::new(NodeId(2), Dest::Node(NodeId(1)), message)),
            &mut platform,
        );
        let down = cocaditem.drain_down();
        let answers: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextBatch>())
            .collect();
        assert_eq!(answers.len(), 1, "one batch per pull");
        let batch = answers[0].get::<ContextBatch>().unwrap();
        assert_eq!(batch.header.dest, Dest::Node(NodeId(2)));
        let body = batch.message.clone().pop::<BatchBody>().unwrap();
        let nodes: Vec<NodeId> = body.snapshots.iter().map(|s| s.node).collect();
        assert_eq!(
            nodes,
            vec![NodeId(1), NodeId(3)],
            "the local snapshot and node 3's are known; node 9 is not"
        );
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

        let mut message = Message::new();
        message.push(&BatchBody {
            snapshots: vec![
                ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 30),
                ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(3)), 40),
            ],
        });
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

        // A significant battery drop is disseminated immediately.
        let mut drained = NodeProfile::mobile_pda(NodeId(2));
        drained.battery_level = 0.5;
        platform.profile = drained;
        fire_publish_timer(&mut cocaditem, &mut platform);
        assert!(cocaditem
            .drain_down()
            .iter()
            .any(|event| event.is::<ContextPublish>()));
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
        let body = DigestBody {
            entries: vec![(NodeId(1), 10), (NodeId(2), 20)],
        };
        assert_eq!(DigestBody::from_bytes(&body.to_bytes()).unwrap(), body);
        let pull = PullBody {
            nodes: vec![NodeId(4)],
        };
        assert_eq!(PullBody::from_bytes(&pull.to_bytes()).unwrap(), pull);

        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        w.put_u64(1);
        assert!(DigestBody::from_bytes(&w.finish()).is_err());
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        assert!(PullBody::from_bytes(&w.finish()).is_err());
    }
    #[test]
    fn expelled_members_get_no_anti_entropy_replies() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::new(Rc::default()),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );
        cocaditem.run_down(
            Event::down(ViewInstall {
                view: morpheus_groupcomm::View::new(2, vec![NodeId(1), NodeId(2)]),
            }),
            &mut platform,
        );
        cocaditem.drain_down();

        // The expelled node 3 advertises a version node 1 has never seen:
        // no pull goes back to it.
        let mut digest = Message::new();
        digest.push(&DigestBody {
            entries: vec![(NodeId(2), 90)],
        });
        cocaditem.run_up(
            Event::up(ContextDigest::new(NodeId(3), Dest::Node(NodeId(1)), digest)),
            &mut platform,
        );
        assert!(
            cocaditem
                .drain_down()
                .iter()
                .all(|event| !event.is::<ContextPull>()),
            "an expelled member's digest triggers no pull"
        );

        // Its pull for the (present) local snapshot is not answered either,
        // while the same pull from a live member is.
        let pull_from = |from: u32| {
            let mut message = Message::new();
            message.push(&PullBody {
                nodes: vec![NodeId(1)],
            });
            Event::up(ContextPull::new(
                NodeId(from),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
        cocaditem.run_up(pull_from(3), &mut platform);
        assert!(
            cocaditem
                .drain_down()
                .iter()
                .all(|event| !event.is::<ContextBatch>()),
            "snapshots are not served to expelled members"
        );
        cocaditem.run_up(pull_from(2), &mut platform);
        assert_eq!(
            cocaditem
                .drain_down()
                .iter()
                .filter(|event| event.is::<ContextBatch>())
                .count(),
            1,
            "a current member's identical pull is answered"
        );
    }
}
