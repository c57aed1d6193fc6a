//! A gossip-based failure detector.
//!
//! Every `hb_interval_ms` the layer increments its own heartbeat counter and
//! pushes a compact [`LivenessDigest`] — every member's highest known counter
//! — to `fanout` random peers. Receivers merge entries that are newer than
//! their own, so counters spread epidemically in `O(log n)` rounds while each
//! node sends only `fanout` control messages per interval (instead of the
//! `n - 1` of an all-to-all heartbeat multicast). Suspicion is derived from
//! *digest age*: a member whose counter has not advanced (and that has not
//! been heard from directly) for `suspect_timeout_ms` is suspected, and a
//! [`Suspect`] event travels up the stack so the membership layer can propose
//! a new view. When a suspected member's counter advances again, an [`Alive`]
//! event heals the false suspicion.
//!
//! Because counter propagation takes roughly `log_fanout(n)` intervals,
//! `suspect_timeout_ms` should be at least `(log_fanout(n) + 2)` heartbeat
//! intervals for large groups.
//!
//! ## One liveness table per node
//!
//! Generated stacks and the control channel declare the layer shared under
//! one key ([`crate::suite::liveness_layer`]), so a node keeps one table, one
//! tick timer and one digest stream however many channels hold the session
//! and however often the data stack is replaced:
//!
//! * `Suspect` and `Alive` reach every channel holding the session
//!   ([`EventContext::dispatch_to_holders`]) — view synchrony and recovery on
//!   the data channel, Cocaditem and Core on the control channel;
//! * the tick timer is re-armed on every `ChannelInit`, keeping its phase,
//!   so the digests ride the holder initialised last: the control channel
//!   from boot until the first data-stack replacement, the data channel
//!   after it;
//! * a `ViewInstall` the layer sees is re-announced upward on every *other*
//!   holder, once per view id — how the control plane learns the views view
//!   synchrony installs on the data channel;
//! * the "everyone is fresh" grace runs when the session is created, never
//!   when a later holder is initialised: a replacement does not reset
//!   suspicion ages.
//!
//! ## The liveness table
//!
//! Every control packet the layer handles walks the table, so it is one
//! `Vec` of 24-byte rows sorted by node id — no hash set or map per field.
//! A row holds the node's highest known counter, when it last advanced (or
//! the node was last heard from directly), and flags: member, has a
//! counter, has been heard from, suspected.
//!
//! * A received digest is decoded into the session's scratch
//!   ([`LivenessDigest::decode_into`]), all or nothing, and merged in one
//!   pass: digests list ids in ascending order, and [`seek`] tries the row
//!   after the previous hit before it falls back to a binary search, so a
//!   row usually costs O(1). A digest row naming a member gives it a
//!   counter (0 until one arrives), which this node then advertises.
//! * The tick walks the table, already in id order, to build its digest,
//!   and walks `members` — in view order, the order `Suspect` events are
//!   raised in — for the suspicion scan.
//! * A node heard from outside the view gets a row no digest carries. The
//!   view that admits it keeps its last-heard time; any other view install
//!   drops the row.
//! * One row per id: a member listed twice rides a digest once. Views are
//!   sorted and distinct ([`crate::view::View::new`]), and the boot
//!   `members` parameter lists a scenario's distinct ids.

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;

use crate::events::{Alive, Heartbeat, Suspect, ViewInstall};
use crate::gossip::sample_peers_into;
use crate::headers::LivenessDigest;
use crate::sorted::seek;

/// Registered name of the failure detector layer.
pub const FD_LAYER: &str = "fd";

/// Timer tag for the heartbeat/suspicion check.
const TICK_TAG: u32 = 1;

/// The gossip failure detector layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial group membership;
/// * `hb_interval_ms` — gossip period (default 500 ms);
/// * `suspect_timeout_ms` — digest-age threshold before suspicion
///   (default 2000 ms);
/// * `fanout` — random peers each digest is pushed to per interval
///   (default 3, at least 1).
pub struct FailureDetectorLayer;

impl Layer for FailureDetectorLayer {
    fn name(&self) -> &str {
        FD_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<Heartbeat>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
            EventSpec::of::<ViewInstall>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["Heartbeat", "Suspect", "Alive"]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let members = param_node_list(params, "members");
        let mut rows: Vec<Row> = members.iter().map(|id| Row::new(*id, MEMBER)).collect();
        rows.sort_unstable_by_key(|row| row.id);
        rows.dedup_by_key(|row| row.id);
        Box::new(FailureDetectorSession {
            members,
            rows,
            hb_interval_ms: param_or(params, "hb_interval_ms", 500u64).max(10),
            suspect_timeout_ms: param_or(params, "suspect_timeout_ms", 2000u64).max(50),
            fanout: param_or(params, "fanout", 3usize).max(1),
            next_tick_ms: None,
            tick_timer: None,
            relayed_view: None,
            peers: Vec::new(),
            digest: LivenessDigest::default(),
        })
    }
}

/// Row flag: the node is a member of the installed view.
const MEMBER: u8 = 1;
/// Row flag: `counter` is a heartbeat counter this node knows.
const COUNTER: u8 = 1 << 1;
/// Row flag: `last_heard` is set.
const HEARD: u8 = 1 << 2;
/// Row flag: the node is suspected.
const SUSPECTED: u8 = 1 << 3;

/// One row of the liveness table (24 bytes).
#[derive(Debug, Clone, Copy)]
struct Row {
    id: NodeId,
    /// [`MEMBER`], [`COUNTER`], [`HEARD`] and [`SUSPECTED`].
    flags: u8,
    /// Highest known heartbeat counter; 0 until [`COUNTER`] is set.
    counter: u64,
    /// Local time at which the counter last advanced, or the node was last
    /// heard from directly; 0 until [`HEARD`] is set.
    last_heard: u64,
}

// Every node keeps a row per member: flags instead of `Option`s keep a row
// at half the size.
const _: () = assert!(std::mem::size_of::<Row>() == 24);

impl Row {
    fn new(id: NodeId, flags: u8) -> Self {
        Self {
            id,
            flags,
            counter: 0,
            last_heard: 0,
        }
    }

    /// Whether every flag of `mask` is set.
    fn has(&self, mask: u8) -> bool {
        self.flags & mask == mask
    }

    /// Records that the node was heard from at `now`, healing a false
    /// suspicion.
    fn heard(&mut self, now: u64, ctx: &mut EventContext<'_>) {
        self.last_heard = now;
        self.flags |= HEARD;
        if self.has(SUSPECTED) {
            self.flags &= !SUSPECTED;
            // The suspicion was false: announce the recovery so upper layers
            // (e.g. the Core control layer's ack quorum) can re-admit the node.
            let node = self.id;
            ctx.dispatch_to_holders(|_| Some(Event::up(Alive { node })));
        }
    }
}

/// Session state of the failure detector.
#[derive(Debug)]
pub struct FailureDetectorSession {
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    /// The liveness table, sorted by id: a row per member, plus a row per
    /// node heard from (or, for the local node, ticked) outside the view,
    /// which never enters a digest and is dropped by the next view install.
    // bound: <= view size + the outsiders heard since the last view install, whose rows it drops.
    rows: Vec<Row>,
    hb_interval_ms: u64,
    suspect_timeout_ms: u64,
    /// Digest push fan-out.
    fanout: usize,
    /// When the next tick is due; `None` until the first `ChannelInit`.
    next_tick_ms: Option<u64>,
    /// The one live tick timer.
    tick_timer: Option<u64>,
    /// The last view id re-announced to the other holders.
    relayed_view: Option<u64>,
    /// Scratch for the per-tick peer sample.
    // bound: cleared on every tick; <= view size.
    peers: Vec<NodeId>,
    /// Scratch for the digest a tick sends and for each one received (the
    /// tick and the merge never use it at the same time).
    // bound: refilled on every tick (<= view size) and every heartbeat (<= the rows its packet holds).
    digest: LivenessDigest,
}

impl FailureDetectorSession {
    /// The row of `id`, inserted without flags if the table has none.
    fn row_mut(&mut self, id: NodeId) -> &mut Row {
        let at = match self.rows.binary_search_by_key(&id, |row| row.id) {
            Ok(at) => at,
            Err(at) => {
                self.rows.insert(at, Row::new(id, 0));
                at
            }
        };
        &mut self.rows[at]
    }

    fn heard_from(&mut self, node: NodeId, now: u64, ctx: &mut EventContext<'_>) {
        self.row_mut(node).heard(now, ctx);
    }

    /// Arms the one tick timer for `due` on the current channel, cancelling
    /// the previous one wherever it was armed.
    fn arm_tick(&mut self, due: u64, ctx: &mut EventContext<'_>) {
        if let Some(stale) = self.tick_timer.take() {
            ctx.cancel_timer(stale);
        }
        self.next_tick_ms = Some(due);
        self.tick_timer = Some(ctx.set_timer(due.saturating_sub(ctx.now_ms()), TICK_TAG));
    }

    /// Merges the digest decoded into `self.digest`, in one pass over it:
    /// entries with a higher counter than the local view count as fresh
    /// liveness evidence for that member. A member the digest names gets a
    /// counter of its own (0 until one arrives), which this node's digests
    /// then advertise.
    fn merge_digest(&mut self, now: u64, ctx: &mut EventContext<'_>) {
        let mut cursor = 0;
        for (node, counter) in &self.digest.entries {
            let Ok(at) = seek(&self.rows, &mut cursor, *node, |row| row.id) else {
                continue;
            };
            let row = &mut self.rows[at];
            if !row.has(MEMBER) {
                continue;
            }
            row.flags |= COUNTER;
            if *counter > row.counter {
                row.counter = *counter;
                row.heard(now, ctx);
            }
        }
    }

    /// Makes the table match `members`: rows of nodes outside the view are
    /// dropped, and a member without a last-heard time gets `now`. A member
    /// heard from before it joined keeps that time.
    fn install_members(&mut self, now: u64) {
        for row in &mut self.rows {
            row.flags &= !MEMBER;
        }
        let sorted = self.rows.len();
        let mut appended = false;
        let mut cursor = 0;
        for member in &self.members {
            let found = self
                .rows
                .get(..sorted)
                .and_then(|rows| seek(rows, &mut cursor, *member, |row| row.id).ok());
            match found {
                Some(at) => {
                    let row = &mut self.rows[at];
                    row.flags |= MEMBER;
                    if !row.has(HEARD) {
                        row.flags |= HEARD;
                        row.last_heard = now;
                    }
                }
                None => {
                    let mut row = Row::new(*member, MEMBER | HEARD);
                    row.last_heard = now;
                    self.rows.push(row);
                    appended = true;
                }
            }
        }
        self.rows.retain(|row| row.has(MEMBER));
        if appended {
            self.rows.sort_unstable_by_key(|row| row.id);
            self.rows.dedup_by_key(|row| row.id);
        }
    }

    fn tick(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let now = ctx.now_ms();

        // Advance the local counter and push the digest. The counter is
        // floored at the local tick count (`now / interval`) so it stays
        // monotonic across a restart: a fresh kernel's session restarting
        // from 1 would look *stale* to peers still holding the pre-restart
        // counter, and the node would silently lose its third-party liveness
        // evidence until the counter caught up. `merge_digest` lets any peer
        // raise any entry, the local one included, so the step saturates: a
        // digest naming this node at `u64::MAX` must not overflow the tick.
        let tick_floor = now / self.hb_interval_ms;
        let row = self.row_mut(local);
        row.counter = row.counter.saturating_add(1).max(tick_floor);
        row.last_heard = now;
        row.flags |= COUNTER | HEARD;
        sample_peers_into(&self.members, &[local], self.fanout, ctx, &mut self.peers);
        if !self.peers.is_empty() {
            // The table is in id order, so the digest needs no sort.
            self.digest.entries.clear();
            self.digest.entries.extend(
                self.rows
                    .iter()
                    .filter(|row| row.has(MEMBER | COUNTER))
                    .map(|row| (row.id, row.counter)),
            );
            let mut message = Message::new();
            message.push(&self.digest);
            ctx.dispatch(Event::down(Heartbeat::new(
                local,
                Dest::Nodes(self.peers.clone()),
                message,
            )));
        }

        // Raise suspicions for members whose counter went stale, in
        // `members` order.
        let mut cursor = 0;
        for member in &self.members {
            if *member == local {
                continue;
            }
            // Every member has a row (`install_members`).
            let Ok(at) = seek(&self.rows, &mut cursor, *member, |row| row.id) else {
                continue;
            };
            let row = &mut self.rows[at];
            if row.has(SUSPECTED) || now.saturating_sub(row.last_heard) < self.suspect_timeout_ms {
                continue;
            }
            row.flags |= SUSPECTED;
            let node = *member;
            ctx.dispatch_to_holders(|_| Some(Event::up(Suspect { node })));
        }

        self.arm_tick(now + self.hb_interval_ms, ctx);
    }
}

impl Session for FailureDetectorSession {
    fn layer_name(&self) -> &str {
        FD_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            let due = match self.next_tick_ms {
                Some(due) => due,
                None => {
                    // The session is new: every member starts fresh.
                    let now = ctx.now_ms();
                    for row in &mut self.rows {
                        if row.has(MEMBER) {
                            row.last_heard = now;
                            row.flags |= HEARD;
                        }
                    }
                    now + self.hb_interval_ms
                }
            };
            // The previous holder's timer may have died with its channel.
            self.arm_tick(due, ctx);
            ctx.forward(event);
            return;
        }
        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == FD_LAYER {
                if timer.tag == TICK_TAG {
                    self.tick(ctx);
                }
                return;
            }
            ctx.forward(event);
            return;
        }
        if let Some(install) = event.get::<ViewInstall>() {
            self.members.clone_from(&install.view.members);
            // Expelled members' rows go with the rest of their state: a
            // member expelled and later re-admitted by a join must get a
            // fresh grace period, not be instantly re-suspected off its
            // stale pre-expulsion age.
            self.install_members(ctx.now_ms());
            if self.relayed_view != Some(install.view.id) {
                self.relayed_view = Some(install.view.id);
                let here = ctx.channel_id();
                let view = &install.view;
                ctx.dispatch_to_holders(|channel| {
                    (channel != here).then(|| Event::up(ViewInstall { view: view.clone() }))
                });
            }
            ctx.forward(event);
            return;
        }
        if event.is::<Heartbeat>() {
            if event.direction == Direction::Up {
                let now = ctx.now_ms();
                let Some(hb) = event.get_mut::<Heartbeat>() else {
                    return;
                };
                let source = hb.header.source;
                // A heartbeat whose digest is missing or malformed merges
                // nothing; its sender is demonstrably alive all the same.
                if let Some(header) = hb.message.pop_header() {
                    if LivenessDigest::decode_into(&header, &mut self.digest.entries).is_ok() {
                        self.merge_digest(now, ctx);
                    }
                }
                self.heard_from(source, now, ctx);
                // Heartbeats are absorbed; they carry no application meaning.
                return;
            }
            ctx.forward(event);
            return;
        }
        if event.direction == Direction::Up {
            if let Some(data) = event.get_mut::<DataEvent>() {
                let source = data.header.source;
                self.heard_from(source, ctx.now_ms(), ctx);
            }
        }
        ctx.forward(event);
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::TestPlatform;
    use morpheus_appia::testing::Harness;
    use morpheus_appia::wire::Wire;

    use super::*;

    fn fd_params(members: &[u32], interval: u64, timeout: u64) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params.insert("hb_interval_ms".into(), interval.to_string());
        params.insert("suspect_timeout_ms".into(), timeout.to_string());
        params
    }

    fn fire_pending_timers(harness: &mut Harness, platform: &mut TestPlatform) {
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            harness.fire_timer(key, platform);
        }
    }

    /// A digest-carrying heartbeat as a peer's fd layer would emit it.
    fn digest_heartbeat(from: u32, to: u32, entries: &[(u32, u64)]) -> Event {
        let mut message = Message::new();
        message.push(&LivenessDigest {
            entries: entries
                .iter()
                .map(|(node, counter)| (NodeId(*node), *counter))
                .collect(),
        });
        Event::up(Heartbeat::new(
            NodeId(from),
            Dest::Node(NodeId(to)),
            message,
        ))
    }

    #[test]
    fn each_tick_pushes_one_digest_to_at_most_fanout_peers() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (1..=8).collect();
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&members, 100, 1000),
            &mut platform,
        );

        fire_pending_timers(&mut fd, &mut platform);
        let down = fd.drain_down();
        let heartbeats: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<Heartbeat>())
            .collect();
        assert_eq!(heartbeats.len(), 1, "one digest push per tick");
        let hb = heartbeats[0].get::<Heartbeat>().unwrap();
        let Dest::Nodes(targets) = &hb.header.dest else {
            panic!("gossip heartbeat must address a node list");
        };
        assert_eq!(targets.len(), 3, "fan-out bounds the per-tick traffic");
        assert!(targets.iter().all(|node| *node != NodeId(1)));

        // The carried digest lists the local node's advanced counter.
        let digest = hb.message.clone().pop::<LivenessDigest>().unwrap();
        assert!(digest.entries.contains(&(NodeId(1), 1)));
    }

    #[test]
    fn small_groups_are_covered_entirely() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 1000),
            &mut platform,
        );
        fire_pending_timers(&mut fd, &mut platform);
        let down = fd.drain_down();
        let hb = down.iter().find(|event| event.is::<Heartbeat>()).unwrap();
        assert_eq!(
            hb.get::<Heartbeat>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(2), NodeId(3)])
        );
    }

    #[test]
    fn silent_members_are_eventually_suspected() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );

        let mut suspects = Vec::new();
        for _ in 0..5 {
            platform.advance(100);
            fire_pending_timers(&mut fd, &mut platform);
            suspects.extend(
                fd.drain_up()
                    .into_iter()
                    .filter(|event| event.is::<Suspect>()),
            );
        }
        assert_eq!(suspects.len(), 1, "member 2 suspected exactly once");
        assert_eq!(suspects[0].get::<Suspect>().unwrap().node, NodeId(2));
    }

    #[test]
    fn advancing_counters_keep_members_alive() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );

        let mut suspects = 0;
        for round in 0..6u64 {
            platform.advance(100);
            // Node 2's digest arrives with a freshly advanced counter.
            fd.run_up(digest_heartbeat(2, 1, &[(2, round + 1)]), &mut platform);
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 0);
    }

    #[test]
    fn a_heartbeat_without_a_digest_still_counts_its_sender_alive() {
        // Input checking: a missing or truncated digest merges nothing, but
        // the packet itself proves its sender alive.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );

        let mut suspected = Vec::new();
        for _ in 0..6 {
            platform.advance(100);
            let bare = Heartbeat::new(NodeId(2), Dest::Node(NodeId(1)), Message::new());
            fd.run_up(Event::up(bare), &mut platform);
            fire_pending_timers(&mut fd, &mut platform);
            suspected.extend(
                fd.drain_up()
                    .into_iter()
                    .filter_map(|event| event.get::<Suspect>().map(|s| s.node)),
            );
        }
        assert_eq!(suspected, vec![NodeId(3)], "only the silent member");
    }

    #[test]
    fn third_party_digests_count_as_liveness_evidence() {
        // Node 1 never hears node 3 directly — only through node 2's digests.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );

        let mut suspects = 0;
        for round in 0..6u64 {
            platform.advance(100);
            fd.run_up(
                digest_heartbeat(2, 1, &[(2, round + 1), (3, round + 1)]),
                &mut platform,
            );
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 0, "relayed counters prove node 3 alive");
    }

    #[test]
    fn stale_counters_do_not_refresh_liveness() {
        // Node 3 crashed at counter 5; node 2 keeps gossiping the stale
        // value, which must not prevent node 3's suspicion.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );
        fd.run_up(digest_heartbeat(2, 1, &[(2, 1), (3, 5)]), &mut platform);

        let mut suspected = Vec::new();
        for round in 0..6u64 {
            platform.advance(100);
            fd.run_up(
                digest_heartbeat(2, 1, &[(2, round + 2), (3, 5)]),
                &mut platform,
            );
            fire_pending_timers(&mut fd, &mut platform);
            suspected.extend(
                fd.drain_up()
                    .into_iter()
                    .filter_map(|event| event.get::<Suspect>().map(|s| s.node)),
            );
        }
        assert_eq!(suspected, vec![NodeId(3)]);
    }

    #[test]
    fn an_advancing_counter_heals_a_false_suspicion() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );
        fd.run_up(digest_heartbeat(2, 1, &[(2, 1), (3, 1)]), &mut platform);

        // Node 3 goes silent long enough to be suspected.
        let mut suspects = 0;
        for round in 0..4u64 {
            platform.advance(100);
            suspects += fd
                .run_up(
                    digest_heartbeat(2, 1, &[(2, round + 2), (3, 1)]),
                    &mut platform,
                )
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 1);

        // Its counter advances again (relayed by node 2): Alive is raised.
        let alive: Vec<NodeId> = fd
            .run_up(digest_heartbeat(2, 1, &[(2, 9), (3, 2)]), &mut platform)
            .into_iter()
            .filter_map(|event| event.get::<Alive>().map(|alive| alive.node))
            .collect();
        assert_eq!(alive, vec![NodeId(3)]);
    }

    #[test]
    fn data_traffic_also_counts_as_liveness() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );

        let mut suspects = 0;
        for _ in 0..6 {
            platform.advance(100);
            let delivered = fd.run_up(
                Event::up(DataEvent::new(
                    NodeId(2),
                    Dest::Node(NodeId(1)),
                    Message::with_payload(&b"still here"[..]),
                )),
                &mut platform,
            );
            assert_eq!(delivered.len(), 1, "data is forwarded, not absorbed");
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 0);
    }

    #[test]
    fn heartbeats_are_absorbed_and_not_delivered_upward() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 1000),
            &mut platform,
        );
        let delivered = fd.run_up(digest_heartbeat(2, 1, &[(2, 1)]), &mut platform);
        assert!(delivered.is_empty());
    }

    #[test]
    fn digest_entries_for_unknown_nodes_are_ignored() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );
        // An entry for node 9 (not a member) must not create tracking state.
        fd.run_up(digest_heartbeat(2, 1, &[(2, 1), (9, 44)]), &mut platform);
        platform.advance(300);
        fire_pending_timers(&mut fd, &mut platform);
        let suspected: Vec<NodeId> = fd
            .drain_up()
            .into_iter()
            .filter_map(|event| event.get::<Suspect>().map(|s| s.node))
            .collect();
        assert_eq!(suspected, vec![NodeId(2)], "node 9 is never tracked");
    }

    #[test]
    fn a_digest_raising_the_local_counter_to_the_maximum_does_not_overflow_the_tick() {
        // Any peer can raise any entry of the table, the receiver's own
        // included; the next tick used to compute `u64::MAX + 1`.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );
        fd.run_up(
            digest_heartbeat(2, 1, &[(1, u64::MAX), (2, 1)]),
            &mut platform,
        );
        platform.advance(100);
        fire_pending_timers(&mut fd, &mut platform);
        let down = fd.drain_down();
        let hb = down.iter().find(|event| event.is::<Heartbeat>()).unwrap();
        let digest = hb
            .get::<Heartbeat>()
            .unwrap()
            .message
            .clone()
            .pop::<LivenessDigest>()
            .unwrap();
        assert!(digest.entries.contains(&(NodeId(1), u64::MAX)));
    }

    #[test]
    fn a_readmitted_member_gets_a_fresh_grace_period() {
        // Regression: expulsion must drop the member's last-advance
        // timestamp — a member expelled and later re-admitted by a join
        // used to be re-suspected off its stale pre-expulsion age on the
        // very next tick, before its first digest could possibly arrive.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 300),
            &mut platform,
        );

        // Node 2 is expelled, then stays away far past the suspect timeout.
        let solo = crate::view::View::new(1, vec![NodeId(1)]);
        fd.run_down(Event::down(ViewInstall { view: solo }), &mut platform);
        platform.advance(5000);

        // Node 2 rejoins; the next tick must not suspect it instantly.
        let rejoined = crate::view::View::new(2, vec![NodeId(1), NodeId(2)]);
        fd.run_down(Event::down(ViewInstall { view: rejoined }), &mut platform);
        fire_pending_timers(&mut fd, &mut platform);
        assert!(
            fd.drain_up().iter().all(|event| !event.is::<Suspect>()),
            "a rejoiner gets the same grace period as a fresh member"
        );

        // The grace period is a grace period, not immunity: staying silent
        // past the timeout still raises the suspicion.
        let mut suspects = 0;
        for _ in 0..4 {
            platform.advance(100);
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 1);
    }

    /// Fires the pending tick and returns the digest it pushed.
    fn next_digest(fd: &mut Harness, platform: &mut TestPlatform) -> Vec<(NodeId, u64)> {
        fire_pending_timers(fd, platform);
        let down = fd.drain_down();
        let hb = down.iter().find(|event| event.is::<Heartbeat>()).unwrap();
        let mut message = hb.get::<Heartbeat>().unwrap().message.clone();
        message.pop::<LivenessDigest>().unwrap().entries
    }

    /// The nodes a batch of upward events suspects.
    fn suspects_in(events: Vec<Event>) -> Vec<NodeId> {
        events
            .into_iter()
            .filter_map(|event| event.get::<Suspect>().map(|s| s.node))
            .collect()
    }

    #[test]
    fn a_joiner_heard_from_before_its_view_install_keeps_that_time() {
        // Node 3 is heard from at t = 100 while still outside the view and
        // then goes silent. The view that admits it at t = 300 must not
        // reset its age: it is suspected at the t = 400 tick, 300 ms after
        // it was last heard, not 300 ms after it joined.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 300),
            &mut platform,
        );
        let mut suspected = Vec::new();
        for round in 1..=6u64 {
            platform.advance(100);
            let now = round * 100;
            let bare = |from| {
                Event::up(Heartbeat::new(
                    NodeId(from),
                    Dest::Node(NodeId(1)),
                    Message::new(),
                ))
            };
            fd.run_up(bare(2), &mut platform);
            if now == 100 {
                fd.run_up(bare(3), &mut platform);
            }
            if now == 300 {
                let view = crate::view::View::new(1, vec![NodeId(1), NodeId(2), NodeId(3)]);
                fd.run_down(Event::down(ViewInstall { view }), &mut platform);
            }
            fire_pending_timers(&mut fd, &mut platform);
            suspected.extend(
                suspects_in(fd.drain_up())
                    .into_iter()
                    .map(|node| (now, node)),
            );
        }
        assert_eq!(suspected, vec![(400, NodeId(3))]);
    }

    #[test]
    fn a_non_members_heartbeat_creates_no_digest_row() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 1000),
            &mut platform,
        );
        fd.run_up(digest_heartbeat(9, 1, &[(9, 5), (2, 4)]), &mut platform);
        fd.run_up(
            Event::up(DataEvent::new(
                NodeId(8),
                Dest::Node(NodeId(1)),
                Message::with_payload(&b"from outside"[..]),
            )),
            &mut platform,
        );
        platform.advance(100);
        // The member named in the digest is merged; the two outsiders are
        // tracked as heard-from but never advertised.
        assert_eq!(
            next_digest(&mut fd, &mut platform),
            vec![(NodeId(1), 1), (NodeId(2), 4)]
        );

        // The next view drops the outsiders' rows: admitting node 9 later
        // starts it without a counter, so it is still not advertised.
        let view = crate::view::View::new(1, vec![NodeId(1), NodeId(2), NodeId(3)]);
        fd.run_down(Event::down(ViewInstall { view }), &mut platform);
        let view = crate::view::View::new(2, vec![NodeId(1), NodeId(2), NodeId(9)]);
        fd.run_down(Event::down(ViewInstall { view }), &mut platform);
        platform.advance(100);
        assert_eq!(
            next_digest(&mut fd, &mut platform),
            vec![(NodeId(1), 2), (NodeId(2), 4)]
        );
    }

    #[test]
    fn descending_digest_rows_merge_exactly_as_ascending_ones() {
        let ascending = [(2, 3), (3, 0), (4, 7), (5, 2), (9, 8)];
        let mut descending = ascending;
        descending.reverse();

        let mut runs = Vec::new();
        for rows in [&ascending[..], &descending[..]] {
            let mut platform = TestPlatform::new(NodeId(1));
            let mut fd = Harness::new(
                FailureDetectorLayer,
                &fd_params(&[1, 2, 3, 4, 5, 6], 100, 250),
                &mut platform,
            );
            let mut seen = Vec::new();
            for round in 0..5u64 {
                platform.advance(100);
                // Node 6 is silent until a relayed counter revives it.
                let mut rows = rows.to_vec();
                if round == 4 {
                    rows.insert(if rows[0].0 < rows[1].0 { 4 } else { 1 }, (6, 1));
                }
                let alive: Vec<NodeId> = fd
                    .run_up(digest_heartbeat(2, 1, &rows), &mut platform)
                    .into_iter()
                    .filter_map(|event| event.get::<Alive>().map(|alive| alive.node))
                    .collect();
                let digest = next_digest(&mut fd, &mut platform);
                seen.push((alive, digest, suspects_in(fd.drain_up())));
            }
            runs.push(seen);
        }
        assert_eq!(runs[0], runs[1]);
        // The runs did exercise a suspicion and its healing.
        assert!(runs[0]
            .iter()
            .any(|(_, _, suspects)| suspects.contains(&NodeId(6))));
        assert_eq!(runs[0][4].0, vec![NodeId(6)]);
        // A digest row at counter 0 still earns the member a row of its own.
        assert!(runs[0][0].1.contains(&(NodeId(3), 0)));
    }

    #[test]
    fn a_truncated_or_padded_digest_merges_nothing_but_proves_its_sender_alive() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );
        let encoded = LivenessDigest {
            entries: vec![(NodeId(2), 7), (NodeId(3), 9)],
        }
        .to_bytes();
        let mut suspected = Vec::new();
        for round in 0..6usize {
            platform.advance(100);
            // Alternately cut the last byte off and append a stray one.
            let header = if round % 2 == 0 {
                encoded.slice(..encoded.len() - 1).to_vec()
            } else {
                let mut padded = encoded.to_vec();
                padded.push(0);
                padded
            };
            let mut message = Message::new();
            message.push_header(header);
            fd.run_up(
                Event::up(Heartbeat::new(NodeId(2), Dest::Node(NodeId(1)), message)),
                &mut platform,
            );
            suspected.extend(suspects_in(fd.drain_up()));
            let digest = next_digest(&mut fd, &mut platform);
            assert!(
                digest.iter().all(|(node, _)| *node == NodeId(1)),
                "nothing merged: {digest:?}"
            );
            suspected.extend(suspects_in(fd.drain_up()));
        }
        assert_eq!(suspected, vec![NodeId(3)], "only the silent member");
    }

    #[test]
    fn view_install_clears_suspicions_of_removed_members() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 150),
            &mut platform,
        );

        platform.advance(200);
        fire_pending_timers(&mut fd, &mut platform);
        let suspects = fd
            .drain_up()
            .iter()
            .filter(|event| event.is::<Suspect>())
            .count();
        assert_eq!(suspects, 2);

        // Install a view that removes node 3; only nodes 1 and 2 remain.
        let view = crate::view::View::new(1, vec![NodeId(1), NodeId(2)]);
        fd.run_down(Event::down(ViewInstall { view }), &mut platform);

        // Node 2 resumes gossiping and is therefore never re-suspected.
        for round in 0..3u64 {
            platform.advance(100);
            fd.run_up(digest_heartbeat(2, 1, &[(2, round + 1)]), &mut platform);
            fire_pending_timers(&mut fd, &mut platform);
        }
        let late_suspects = fd
            .drain_up()
            .iter()
            .filter(|event| event.is::<Suspect>())
            .count();
        assert_eq!(late_suspects, 0);
    }
}
