//! Group membership and view synchrony.
//!
//! The layer maintains the current group [`View`], coordinates view changes
//! (driven by failure-detector suspicions or join requests) through an
//! **epoch-stamped** prepare/flush/commit exchange, and provides the
//! *blocking* primitive the Morpheus reconfiguration procedure relies on:
//! while a channel is blocked, application sends are buffered and re-emitted
//! once the channel resumes, so no application message is lost across a stack
//! replacement.
//!
//! # Failure-tolerant view agreement
//!
//! The original fire-and-forget 2PC wedged permanently on a single lost
//! message. View rounds now mirror the reconfiguration protocol's design:
//!
//! * every round runs under a monotonic **view epoch** with the ballot order
//!   `(epoch, proposer id)` — higher epoch wins, equal epochs are tie-broken
//!   by the *lower* proposer id (consistent with the deterministic
//!   lowest-live-id election), so two proposers racing after a false
//!   suspicion can no longer both win acceptance;
//! * the proposer **retransmits** the prepare to members that have not
//!   flushed, every `retransmit_interval_ms`; participants retransmit their
//!   flush towards the proposer on the same cadence, and a proposer that
//!   already committed answers a straggler's flush with the commit — so any
//!   *single* lost prepare, flush or commit is repaired within one interval;
//! * a round that makes no progress for `round_timeout_ms` is **aborted**:
//!   the round state is cleared (future view changes are never blocked
//!   behind a dead round), the channel resumes in the still-installed view,
//!   and the proposer immediately re-proposes under a fresh epoch while the
//!   membership interest (queued removals/joins) persists;
//! * duplicate prepares are answered with an idempotent re-flush, and
//!   duplicate flushes merge into the round's flush set without side
//!   effects;
//! * at gossip scale (`view len >= gossip_threshold`) flush collection rides
//!   the epidemic plane: participants aggregate the flush sets they hear and
//!   re-gossip the union to the proposer plus `fanout` random peers, instead
//!   of every member unicasting its own ack at the proposer.
//!
//! # Joining mode
//!
//! A restarted node comes up with `joining=true`: an empty view, the channel
//! blocked, and no membership announcements. The recovery layer below drives
//! its re-admission ([`crate::recovery`]); this layer completes it by
//! installing the first view that contains the local node (accepting even an
//! unchanged view id, for the restart-before-expulsion case where the group
//! never removed the node).

use std::collections::BTreeSet;

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::{DeliveryKind, NodeId};
use morpheus_appia::session::Session;

use crate::events::{
    Alive, BlockRequest, FlushAck, JoinRequest, Rejoin, ResumeRequest, StaleBallot, Suspect,
    ViewCommit, ViewInstall, ViewPrepare,
};
use crate::headers::FlushBody;
use crate::round::{Ballot, Engine as RoundEngine, Promise, Tick};
use crate::sample::sample_peers;
use crate::view::View;

/// Registered name of the view-synchrony / membership layer.
pub const VSYNC_LAYER: &str = "vsync";

/// Timer tag of the round retransmit/timeout tick.
const ROUND_TAG: u32 = 1;

pub use crate::round::ballot_beats;

/// The view-synchrony and group membership layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial group membership;
/// * `retransmit_interval_ms` — prepare/flush retransmission cadence
///   (default 500 ms);
/// * `round_timeout_ms` — time budget of one view round before it is aborted
///   and re-proposed under a fresh epoch (default 4000 ms);
/// * `gossip_threshold` — view size at which flush collection switches from
///   participant→proposer unicast to gossip aggregation (default 50);
/// * `fanout` — random peers each aggregated flush set is pushed to in
///   gossip mode (default 3);
/// * `joining` — start with an empty view, blocked, waiting to be admitted
///   (default false; used by restarted nodes, see [`crate::recovery`]).
pub struct VsyncLayer;

impl Layer for VsyncLayer {
    fn name(&self) -> &str {
        VSYNC_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<Suspect>(),
            EventSpec::of::<Alive>(),
            EventSpec::of::<ViewPrepare>(),
            EventSpec::of::<FlushAck>(),
            EventSpec::of::<ViewCommit>(),
            EventSpec::of::<StaleBallot>(),
            EventSpec::of::<JoinRequest>(),
            EventSpec::of::<Rejoin>(),
            EventSpec::of::<BlockRequest>(),
            EventSpec::of::<ResumeRequest>(),
            EventSpec::of::<TimerExpired>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec![
            "ViewPrepare",
            "FlushAck",
            "ViewCommit",
            "StaleBallot",
            "ViewInstall",
        ]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let joining = param_or(params, "joining", false);
        let view = if joining {
            View::new(0, Vec::new())
        } else {
            View::initial(param_node_list(params, "members"))
        };
        Box::new(VsyncSession {
            view,
            joining,
            blocked: joining,
            buffered: Vec::new(),
            // Ballot zero is never a valid round: holder 0 makes every
            // epoch-0 ballot lose the tie-break.
            engine: RoundEngine::new(),
            proposal: None,
            committed: None,
            installed_ballot: Ballot::ZERO,
            pending_removals: BTreeSet::new(),
            pending_joins: BTreeSet::new(),
            view_changes: 0,
            retransmit_interval_ms: param_or(params, "retransmit_interval_ms", 500u64).max(10),
            round_timeout_ms: param_or(params, "round_timeout_ms", 4000u64).max(100),
            gossip_threshold: param_or(params, "gossip_threshold", 50usize).max(2),
            fanout: param_or(params, "fanout", 3usize).max(1),
            round_timer: None,
        })
    }
}

/// Session state of the view-synchrony layer.
#[derive(Debug)]
pub struct VsyncSession {
    view: View,
    /// True until the first view containing the local node installs.
    joining: bool,
    blocked: bool,
    // bound: grows only while the channel is blocked; flushed on every resume or install.
    // never-shed: view-synchrony state is control-plane — dropping a buffered
    // send would break sending-view delivery; overload relief must come from
    // the data-plane caps below (gossip outbox, testbed queue shed).
    buffered: Vec<Event>,
    /// The shared round machinery ([`crate::round`]): ballot monotonicity,
    /// the flush (ack) bookkeeping of the in-flight round, retransmit
    /// counting and the timeout clock. View-round flushes are the engine's
    /// acks; in gossip mode the merged flush sets arrive via
    /// [`RoundEngine::merge_acks`].
    engine: RoundEngine<NodeId>,
    /// The in-flight round's proposed view — the round *payload*; the
    /// ballot and flush bookkeeping live in `engine`. Always `Some` exactly
    /// when the engine has a round in flight.
    proposal: Option<View>,
    /// The last round this node committed as proposer: a straggler that
    /// missed the commit keeps retransmitting its flush and is answered
    /// with the commit.
    committed: Option<(u64, View)>,
    /// Ballot under which the current view was installed. Two rival
    /// proposers racing the same epoch can both assemble a same-id view;
    /// installs at an *equal* view id are therefore ordered by ballot too,
    /// so every member converges on the winning proposer's view instead of
    /// sticking with whichever commit arrived first.
    installed_ballot: Ballot,
    /// Membership changes queued while no round can run them. Cleared only
    /// when an installed view reflects them, so an aborted round re-proposes.
    // bound: subset of the current membership; cleared as installed views absorb it.
    // never-shed: a dropped removal would strand a dead member in the view.
    pending_removals: BTreeSet<NodeId>,
    // bound: <= announced joiners; cleared as installed views absorb it.
    // never-shed: a dropped join would strand a live joiner outside the view.
    pending_joins: BTreeSet<NodeId>,
    view_changes: u64,
    retransmit_interval_ms: u64,
    round_timeout_ms: u64,
    gossip_threshold: usize,
    fanout: usize,
    round_timer: Option<u64>,
}

impl VsyncSession {
    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether the channel is currently blocked.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Whether the node is still waiting to be admitted to a view.
    pub fn is_joining(&self) -> bool {
        self.joining
    }

    /// Completed view changes so far.
    pub fn view_changes(&self) -> u64 {
        self.view_changes
    }

    fn arm_round_timer(&mut self, ctx: &mut EventContext<'_>) {
        if let Some(timer_id) = self.round_timer.take() {
            ctx.cancel_timer(timer_id);
        }
        self.round_timer = Some(ctx.set_timer(self.retransmit_interval_ms, ROUND_TAG));
    }

    fn cancel_round_timer(&mut self, ctx: &mut EventContext<'_>) {
        if let Some(timer_id) = self.round_timer.take() {
            ctx.cancel_timer(timer_id);
        }
    }

    fn flush_buffered(&mut self, ctx: &mut EventContext<'_>) {
        for event in std::mem::take(&mut self.buffered) {
            ctx.dispatch(event);
        }
    }

    fn announce(&mut self, ctx: &mut EventContext<'_>) {
        ctx.dispatch(Event::down(ViewInstall {
            view: self.view.clone(),
        }));
        ctx.deliver(DeliveryKind::ViewChange {
            view_id: self.view.id,
            members: self.view.members.clone(),
        });
    }

    fn install(&mut self, view: View, ballot: Ballot, ctx: &mut EventContext<'_>) {
        if self.joining && view.contains(ctx.node_id()) {
            self.joining = false;
        }
        self.view = view;
        self.installed_ballot = ballot;
        self.engine.complete();
        self.proposal = None;
        self.cancel_round_timer(ctx);
        self.blocked = false;
        self.view_changes += 1;
        // Queued changes an installed view already reflects are done.
        let installed = self.view.clone();
        self.pending_removals
            .retain(|node| installed.contains(*node));
        self.pending_joins.retain(|node| !installed.contains(*node));

        self.announce(ctx);
        self.flush_buffered(ctx);
        self.maybe_start_next_round(ctx);
    }

    /// The member that should lead the next round: the lowest id not queued
    /// for removal. Electing around queued removals is what lets the
    /// next-lowest member take over when the coordinator itself is the one
    /// being removed.
    fn effective_coordinator(&self) -> Option<NodeId> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|member| !self.pending_removals.contains(member))
            .min()
    }

    /// Starts a round for the queued membership changes, when this node is
    /// the effective coordinator and no round is in flight.
    fn maybe_start_next_round(&mut self, ctx: &mut EventContext<'_>) {
        if self.engine.in_flight() || self.joining {
            return;
        }
        if self.pending_removals.is_empty() && self.pending_joins.is_empty() {
            return;
        }
        if self.effective_coordinator() != Some(ctx.node_id()) {
            return;
        }
        let mut members: Vec<NodeId> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|member| !self.pending_removals.contains(member))
            .collect();
        members.extend(self.pending_joins.iter().copied());
        let target = View::new(self.view.id + 1, members);
        if target.members == self.view.members {
            self.pending_removals.clear();
            self.pending_joins.clear();
            return;
        }
        self.start_round(target, ctx);
    }

    fn start_round(&mut self, target: View, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        self.blocked = true;
        let ballot = self
            .engine
            .open(local, target.members.iter().copied(), ctx.now_ms());
        // The proposer has trivially flushed its own round.
        self.engine.record_ack(ballot.epoch, local);
        self.proposal = Some(target.clone());
        let others = target.others(local);
        if others.is_empty() {
            // Degenerate single-member view: install immediately.
            self.commit_round(ctx);
            return;
        }
        Self::send_prepare(ballot.epoch, &target, others, ctx);
        self.arm_round_timer(ctx);
    }

    fn send_prepare(epoch: u64, view: &View, targets: Vec<NodeId>, ctx: &mut EventContext<'_>) {
        if targets.is_empty() {
            return;
        }
        let mut message = Message::new();
        message.push(view);
        message.push(&epoch);
        ctx.dispatch(Event::down(ViewPrepare::new(
            ctx.node_id(),
            Dest::Nodes(targets),
            message,
        )));
    }

    /// Sends this participant's flush knowledge towards the proposer — plus,
    /// at gossip scale, to `fanout` random peers so coverage aggregates
    /// epidemically instead of all acks converging on one node.
    fn send_flush(&mut self, ctx: &mut EventContext<'_>) {
        let (Some(round), Some(view)) = (self.engine.round(), self.proposal.as_ref()) else {
            return;
        };
        let local = ctx.node_id();
        let body = FlushBody {
            epoch: round.ballot.epoch,
            proposer: round.ballot.holder,
            flushed: round.acked().iter().copied().collect(),
        };
        let proposer = round.ballot.holder;
        let gossip = view.len() >= self.gossip_threshold;
        let members = view.members.clone();
        let mut targets = vec![proposer];
        if gossip {
            targets.extend(sample_peers(&members, &[local, proposer], self.fanout, ctx));
        }
        let mut message = Message::new();
        message.push(&body);
        ctx.dispatch(Event::down(FlushAck::new(
            local,
            Dest::Nodes(targets),
            message,
        )));
    }

    /// Proposer side: every member of the proposed view has flushed — commit.
    /// (The engine's completion predicate with no exclusions: view synchrony
    /// aborts a round awaiting a suspect rather than committing around it.)
    fn maybe_commit(&mut self, ctx: &mut EventContext<'_>) {
        let complete = self
            .engine
            .round()
            .is_some_and(|round| round.ballot.holder == ctx.node_id())
            && self.engine.completed(&BTreeSet::new());
        if complete {
            self.commit_round(ctx);
        }
    }

    fn commit_round(&mut self, ctx: &mut EventContext<'_>) {
        let Some(round) = self.engine.complete() else {
            return;
        };
        let Some(view) = self.proposal.take() else {
            return;
        };
        let local = ctx.node_id();
        let epoch = round.ballot.epoch;
        let others = view.others(local);
        if !others.is_empty() {
            let mut message = Message::new();
            message.push(&view);
            message.push(&epoch);
            ctx.dispatch(Event::down(ViewCommit::new(
                local,
                Dest::Nodes(others),
                message,
            )));
        }
        self.committed = Some((epoch, view.clone()));
        self.install(view, Ballot::new(epoch, local), ctx);
    }

    /// Abandons the in-flight round: the round state is cleared (so future
    /// view changes are never blocked behind it) and the channel resumes in
    /// the still-installed view, releasing buffered sends.
    fn abort_round(&mut self, ctx: &mut EventContext<'_>) {
        self.engine.abort();
        self.proposal = None;
        self.cancel_round_timer(ctx);
        if !self.joining {
            self.blocked = false;
            self.flush_buffered(ctx);
        }
    }

    fn on_round_timer(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        match self.engine.tick(ctx.now_ms(), self.round_timeout_ms) {
            Tick::Idle => return,
            Tick::TimedOut => {
                // The round is dead (a member crashed without being suspected
                // yet, or the proposer vanished): give up and — on the
                // proposer — immediately re-propose under a fresh epoch,
                // because the queued membership interest is cleared only by
                // an install. A *joiner* that never flushed is the exception:
                // it may have crashed right after its join request and
                // nothing (no Suspect — it is not a view member) would ever
                // clear it, looping the re-proposal forever. Its queued join
                // is dropped; a live joiner re-queues itself with its next
                // JoinRequest retransmission.
                let vanished: Vec<NodeId> = match (self.engine.round(), self.proposal.as_ref()) {
                    (Some(round), Some(view)) => view
                        .members
                        .iter()
                        .copied()
                        .filter(|member| {
                            !self.view.contains(*member) && !round.acked().contains(member)
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                for member in vanished {
                    self.pending_joins.remove(&member);
                }
                self.abort_round(ctx);
                self.maybe_start_next_round(ctx);
                return;
            }
            Tick::Retransmit(missing) => {
                let proposing = self
                    .engine
                    .round()
                    .is_some_and(|round| round.ballot.holder == local);
                if proposing {
                    // Retransmit the prepare to everyone still missing.
                    if !missing.is_empty() {
                        if let (Some(round), Some(view)) =
                            (self.engine.round(), self.proposal.as_ref())
                        {
                            Self::send_prepare(round.ballot.epoch, view, missing, ctx);
                        }
                    }
                } else {
                    // Retransmit the flush towards the proposer: repairs both
                    // a lost flush (the proposer is still collecting) and a
                    // lost commit (the proposer answers with the commit).
                    self.send_flush(ctx);
                }
            }
        }
        self.arm_round_timer(ctx);
    }

    fn on_suspect(&mut self, node: NodeId, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        if node == local || !self.view.contains(node) {
            return;
        }
        self.pending_removals.insert(node);
        // A round awaiting the suspect's flush can never complete: abort it
        // now and re-propose without the suspect instead of burning the
        // whole round timeout.
        let awaited = self.engine.round().is_some_and(|round| {
            round.ballot.holder == local
                && round.participants().contains(&node)
                && !round.acked().contains(&node)
        });
        if awaited {
            self.abort_round(ctx);
        }
        self.maybe_start_next_round(ctx);
    }

    fn on_join_request(&mut self, joiner: NodeId, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        if self.joining || joiner == local {
            return;
        }
        if self.view.contains(joiner) {
            // Restart before expulsion: the group never removed the node, so
            // no view change will run — the effective coordinator re-asserts
            // the current view straight at the joiner, whose joining-mode
            // vsync accepts any view containing it.
            if self.effective_coordinator() == Some(local) {
                let mut message = Message::new();
                message.push(&self.view);
                message.push(&self.engine.epoch());
                ctx.dispatch(Event::down(ViewCommit::new(
                    local,
                    Dest::Node(joiner),
                    message,
                )));
            }
            return;
        }
        // Queued on every member, not only the coordinator: if the
        // coordinator dies before admitting, its successor has the join
        // recorded and runs it.
        self.pending_joins.insert(joiner);
        self.maybe_start_next_round(ctx);
    }

    fn on_prepare(&mut self, epoch: u64, proposer: NodeId, view: View, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let ballot = Ballot::new(epoch, proposer);
        // Duplicate of the round we are already in: idempotent re-flush.
        if self
            .engine
            .round()
            .is_some_and(|round| round.ballot == ballot)
        {
            self.send_flush(ctx);
            return;
        }
        let same_ballot = ballot == self.engine.promised();
        let supersedes = view.id > self.view.id
            || (view.id == self.view.id && ballot.beats(self.installed_ballot))
            || (self.joining && view.contains(local));
        if !supersedes {
            // Already installed this view id under a ballot at least as
            // strong (e.g. the commit arrived before this retransmitted
            // prepare): just re-ack so a proposer whose flush bookkeeping
            // lost our ack can complete.
            if same_ballot {
                let body = FlushBody {
                    epoch,
                    proposer,
                    flushed: vec![local],
                };
                let mut message = Message::new();
                message.push(&body);
                ctx.dispatch(Event::down(FlushAck::new(
                    local,
                    Dest::Node(proposer),
                    message,
                )));
            }
            return;
        }
        match self.engine.try_promise(ballot) {
            Promise::Accepted => {}
            // A same-ballot retransmission while another round is in flight:
            // the duplicate check above already covers the round we are in,
            // so there is nothing to ack here.
            Promise::Duplicate => return,
            Promise::Superseded(promised) => {
                // Stale ballot: old commands can never roll the view back.
                // The promise this prepare lost to is strictly stronger —
                // report it back so the proposer can jump its epoch past the
                // obstruction in one step (see [`StaleBallot`]). A joining
                // node never gets here with a winning promise — `Rejoin`
                // resets its ballot state to zero.
                let mut message = Message::new();
                message.push(&promised.holder);
                message.push(&promised.epoch);
                ctx.dispatch(Event::down(StaleBallot::new(
                    local,
                    Dest::Node(proposer),
                    message,
                )));
                return;
            }
        }
        self.blocked = true;
        self.engine
            .open_at(ballot, view.members.iter().copied(), ctx.now_ms());
        self.engine.record_ack(epoch, local);
        self.proposal = Some(view);
        self.arm_round_timer(ctx);
        self.send_flush(ctx);
    }

    fn on_flush(&mut self, source: NodeId, body: FlushBody, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let ballot = Ballot::new(body.epoch, body.proposer);
        if self
            .engine
            .round()
            .is_some_and(|round| round.ballot == ballot)
        {
            let Some(view) = self.proposal.clone() else {
                return;
            };
            let mut fresh = self.engine.merge_acks(
                body.epoch,
                body.flushed.iter().copied().filter(|m| view.contains(*m)),
            );
            // The sender itself demonstrably flushed (it sent this ack).
            if view.contains(source) {
                fresh += self.engine.merge_acks(body.epoch, [source]);
            }
            let grew = fresh > 0;
            if body.proposer == local {
                if grew {
                    self.maybe_commit(ctx);
                }
            } else if grew && view.len() >= self.gossip_threshold {
                // Aggregation: re-gossip the merged set so coverage
                // converges towards the proposer epidemically.
                self.send_flush(ctx);
            }
            return;
        }
        // A straggler still flushing for a round we already committed missed
        // the commit — answer with it. Only flushes addressed to *this*
        // proposer count: in gossip mode flush sets also reach random peers,
        // and a peer that committed its own same-epoch round must not
        // answer a rival round's flush with its conflicting commit.
        if let Some((epoch, view)) = &self.committed {
            if *epoch == body.epoch && body.proposer == local && view.contains(source) {
                let mut message = Message::new();
                message.push(view);
                message.push(epoch);
                ctx.dispatch(Event::down(ViewCommit::new(
                    local,
                    Dest::Node(source),
                    message,
                )));
            }
        }
        // Flushes from any other epoch are dropped: a stale flush replayed
        // from an aborted round cannot complete a newer round with a
        // different membership.
    }

    /// A participant promised a ballot stronger than our in-flight round
    /// (typically scattered by a falsely self-suspecting rejoiner's
    /// abandoned rounds). Adopt the reported epoch and re-propose now: the
    /// fresh round starts past the obstruction instead of crawling towards
    /// it one epoch per round timeout — under a wedge detector that window
    /// is the difference between recovery and a declared livelock.
    fn on_stale_ballot(&mut self, epoch: u64, holder: NodeId, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        if self.joining {
            return;
        }
        let beaten = self.engine.round().is_some_and(|round| {
            round.ballot.holder == local && Ballot::new(epoch, holder).beats(round.ballot)
        });
        if !beaten {
            return;
        }
        self.engine.fast_forward(epoch);
        self.abort_round(ctx);
        self.maybe_start_next_round(ctx);
    }

    fn on_commit(&mut self, epoch: u64, proposer: NodeId, view: View, ctx: &mut EventContext<'_>) {
        let ballot = Ballot::new(epoch, proposer);
        self.engine.adopt(ballot);
        let local = ctx.node_id();
        let supersedes = view.id > self.view.id
            || (view.id == self.view.id && ballot.beats(self.installed_ballot))
            || (self.joining && view.contains(local));
        if supersedes {
            self.install(view, ballot, ctx);
        }
    }
}

impl Session for VsyncSession {
    fn layer_name(&self) -> &str {
        VSYNC_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            // Announce the initial view so lower layers learn the membership
            // and the application sees view 0. A joining node has no view to
            // announce yet.
            if !self.view.is_empty() && !self.joining {
                self.announce(ctx);
            }
            ctx.forward(event);
            return;
        }

        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == VSYNC_LAYER {
                if timer.tag == ROUND_TAG && self.round_timer == Some(timer.timer_id) {
                    self.round_timer = None;
                    self.on_round_timer(ctx);
                }
                return;
            }
            ctx.forward(event);
            return;
        }

        if event.is::<BlockRequest>() {
            self.blocked = true;
            return;
        }
        if event.is::<ResumeRequest>() {
            // A joining node stays blocked until it is admitted to a view.
            self.blocked = self.joining;
            // Prime (possibly freshly installed) lower layers with the
            // current membership before releasing buffered traffic.
            if !self.view.is_empty() {
                ctx.dispatch(Event::down(ViewInstall {
                    view: self.view.clone(),
                }));
            }
            if !self.blocked {
                self.flush_buffered(ctx);
            }
            return;
        }

        if let Some(suspect) = event.get::<Suspect>() {
            let node = suspect.node;
            self.on_suspect(node, ctx);
            return;
        }

        if let Some(alive) = event.get::<Alive>() {
            // A false suspicion healed before the removal ran: drop it.
            self.pending_removals.remove(&alive.node);
            return;
        }

        if event.is::<Rejoin>() {
            // The recovery layer detected the local node was expelled while
            // alive: reset into joining mode — empty view, channel blocked,
            // fresh ballot state — exactly how a restarted node boots, so
            // the node re-enters through the same join path. Buffered sends
            // are kept and released when the join view installs.
            self.joining = true;
            self.blocked = true;
            self.engine.reset();
            self.proposal = None;
            self.cancel_round_timer(ctx);
            self.pending_removals.clear();
            self.pending_joins.clear();
            self.committed = None;
            self.installed_ballot = Ballot::ZERO;
            self.view = View::new(0, Vec::new());
            return;
        }

        if event.is::<JoinRequest>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(join) = event.get::<JoinRequest>() else {
                return;
            };
            let joiner = join.header.source;
            self.on_join_request(joiner, ctx);
            return;
        }

        if event.is::<ViewPrepare>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(prepare) = event.get_mut::<ViewPrepare>() else {
                return;
            };
            let proposer = prepare.header.source;
            let Ok(epoch) = prepare.message.pop::<u64>() else {
                return;
            };
            let Ok(proposed) = prepare.message.pop::<View>() else {
                return;
            };
            self.on_prepare(epoch, proposer, proposed, ctx);
            return;
        }

        if event.is::<FlushAck>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(ack) = event.get_mut::<FlushAck>() else {
                return;
            };
            let source = ack.header.source;
            let Ok(body) = ack.message.pop::<FlushBody>() else {
                return;
            };
            self.on_flush(source, body, ctx);
            return;
        }

        if event.is::<StaleBallot>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(nack) = event.get_mut::<StaleBallot>() else {
                return;
            };
            let Ok(epoch) = nack.message.pop::<u64>() else {
                return;
            };
            let Ok(holder) = nack.message.pop::<NodeId>() else {
                return;
            };
            self.on_stale_ballot(epoch, holder, ctx);
            return;
        }

        if event.is::<ViewCommit>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(commit) = event.get_mut::<ViewCommit>() else {
                return;
            };
            let proposer = commit.header.source;
            let Ok(epoch) = commit.message.pop::<u64>() else {
                return;
            };
            let Ok(view) = commit.message.pop::<View>() else {
                return;
            };
            self.on_commit(epoch, proposer, view, ctx);
            return;
        }

        // Application data.
        match event.direction {
            Direction::Down => {
                if self.blocked {
                    // Held until the view change ends: must not pin the
                    // pooled header scratch.
                    event.compact();
                    self.buffered.push(event);
                } else {
                    ctx.forward(event);
                }
            }
            Direction::Up => ctx.forward(event),
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::TestPlatform;
    use morpheus_appia::testing::Harness;

    use super::*;

    fn vsync_params(members: &[u32]) -> LayerParams {
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

    fn view_changes(platform: &mut TestPlatform) -> Vec<(u64, Vec<NodeId>)> {
        platform
            .take_deliveries()
            .into_iter()
            .filter_map(|delivery| match delivery.kind {
                DeliveryKind::ViewChange { view_id, members } => Some((view_id, members)),
                _ => None,
            })
            .collect()
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

    fn flush_message(epoch: u64, proposer: u32, flushed: &[u32]) -> Message {
        let mut message = Message::new();
        message.push(&FlushBody {
            epoch,
            proposer: NodeId(proposer),
            flushed: flushed.iter().copied().map(NodeId).collect(),
        });
        message
    }

    fn round_message(epoch: u64, view: &View) -> Message {
        let mut message = Message::new();
        message.push(view);
        message.push(&epoch);
        message
    }

    fn prepares(events: &[Event]) -> Vec<(u64, View, Dest)> {
        events
            .iter()
            .filter_map(|event| {
                event.get::<ViewPrepare>().map(|prepare| {
                    let mut message = prepare.message.clone();
                    let epoch: u64 = message.pop().unwrap();
                    let view: View = message.pop().unwrap();
                    (epoch, view, prepare.header.dest.clone())
                })
            })
            .collect()
    }

    #[test]
    fn initial_view_is_announced_on_channel_init() {
        let mut platform = TestPlatform::new(NodeId(1));
        let _vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].0, 0);
        assert_eq!(changes[0].1, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn block_buffers_sends_and_resume_releases_them() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2]), &mut platform);

        vsync.run_down(Event::down(BlockRequest {}), &mut platform);
        let blocked = vsync.run_down(
            Event::down(DataEvent::to_group(
                NodeId(1),
                Message::with_payload(&b"x"[..]),
            )),
            &mut platform,
        );
        assert!(
            blocked.iter().all(|event| !event.is::<DataEvent>()),
            "data is held back while blocked"
        );

        let released = vsync.run_down(Event::down(ResumeRequest {}), &mut platform);
        let data: Vec<&Event> = released
            .iter()
            .filter(|event| event.is::<DataEvent>())
            .collect();
        assert_eq!(data.len(), 1, "buffered send released on resume");
        assert!(
            released.iter().any(|event| event.is::<ViewInstall>()),
            "resume re-announces the membership downward"
        );
    }

    #[test]
    fn coordinator_runs_the_epoch_stamped_view_change() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        // The failure detector suspects node 3; node 1 is the coordinator.
        let out = vsync.run_up(Event::up(Suspect { node: NodeId(3) }), &mut platform);
        assert!(out.is_empty(), "suspicion is absorbed");
        let sent = prepares(&vsync.drain_down());
        assert_eq!(sent.len(), 1);
        let (epoch, view, dest) = &sent[0];
        assert_eq!(*epoch, 1, "first round opens view epoch 1");
        assert_eq!(view.members, vec![NodeId(1), NodeId(2)]);
        assert_eq!(*dest, Dest::Nodes(vec![NodeId(2)]));

        // Node 2 acknowledges the flush; the coordinator commits and installs.
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(1, 1, &[2]),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        assert!(down.iter().any(|event| event.is::<ViewCommit>()));
        assert!(down.iter().any(|event| event.is::<ViewInstall>()));
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].0, 1);
        assert_eq!(changes[0].1, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn non_coordinator_participates_via_prepare_and_commit() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        // The coordinator (node 1) proposes a view without node 3.
        let proposed = View::new(1, vec![NodeId(1), NodeId(2)]);
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(4, &proposed),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        let acks: Vec<&Event> = down.iter().filter(|event| event.is::<FlushAck>()).collect();
        assert_eq!(acks.len(), 1);
        let ack = acks[0].get::<FlushAck>().unwrap();
        assert_eq!(ack.header.dest, Dest::Nodes(vec![NodeId(1)]));
        let body = ack.message.clone().pop::<FlushBody>().unwrap();
        assert_eq!(body.epoch, 4);
        assert_eq!(body.proposer, NodeId(1));
        assert_eq!(body.flushed, vec![NodeId(2)]);

        // While the view change is in progress the channel is blocked.
        let held = vsync.run_down(
            Event::down(DataEvent::to_group(NodeId(2), Message::new())),
            &mut platform,
        );
        assert!(held.iter().all(|event| !event.is::<DataEvent>()));

        // The commit installs the view and releases the buffered send.
        vsync.run_up(
            Event::up(ViewCommit::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(4, &proposed),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        assert!(
            down.iter().any(|event| event.is::<DataEvent>()),
            "buffered send released"
        );
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].1, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn a_dropped_prepare_is_retransmitted_until_the_round_completes() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        vsync.run_up(Event::up(Suspect { node: NodeId(3) }), &mut platform);
        assert_eq!(prepares(&vsync.drain_down()).len(), 1);

        // Node 2 never saw the prepare (it was dropped). The retransmit tick
        // re-sends it to exactly the unflushed member.
        platform.advance(500);
        fire_pending_timers(&mut vsync, &mut platform);
        let resent = prepares(&vsync.drain_down());
        assert_eq!(resent.len(), 1, "prepare retransmitted");
        assert_eq!(resent[0].2, Dest::Nodes(vec![NodeId(2)]));
        assert_eq!(resent[0].0, 1, "same epoch, same round");

        // The (late) flush completes the round.
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(1, 1, &[2]),
            )),
            &mut platform,
        );
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1, "the round completes despite the drop");
        assert_eq!(changes[0].1, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn a_dropped_flush_is_repaired_by_the_participants_retransmission() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        let proposed = View::new(1, vec![NodeId(1), NodeId(2)]);
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(1, &proposed),
            )),
            &mut platform,
        );
        assert_eq!(
            vsync
                .drain_down()
                .iter()
                .filter(|event| event.is::<FlushAck>())
                .count(),
            1
        );

        // The flush was dropped. On the next tick the participant re-sends
        // it towards the proposer without any prompting.
        platform.advance(500);
        fire_pending_timers(&mut vsync, &mut platform);
        let retransmitted: Vec<Event> = vsync.drain_down();
        let acks: Vec<&Event> = retransmitted
            .iter()
            .filter(|event| event.is::<FlushAck>())
            .collect();
        assert_eq!(acks.len(), 1, "flush retransmitted");
        let body = acks[0]
            .get::<FlushAck>()
            .unwrap()
            .message
            .clone()
            .pop::<FlushBody>()
            .unwrap();
        assert_eq!(body.epoch, 1);

        // A duplicate prepare (the proposer retransmitting) is answered
        // idempotently too.
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(1, &proposed),
            )),
            &mut platform,
        );
        assert_eq!(
            vsync
                .drain_down()
                .iter()
                .filter(|event| event.is::<FlushAck>())
                .count(),
            1,
            "duplicate prepare re-acked without re-entering the round"
        );
    }

    #[test]
    fn a_dropped_commit_is_replayed_when_the_straggler_keeps_flushing() {
        // Proposer side: the round commits, but node 2's commit was lost.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        vsync.run_up(Event::up(Suspect { node: NodeId(3) }), &mut platform);
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(1, 1, &[2]),
            )),
            &mut platform,
        );
        assert_eq!(view_changes(&mut platform).len(), 1, "round committed");
        vsync.drain_down();

        // Node 2 never received the commit, so its retransmit tick re-sends
        // the flush; the proposer answers with the commit.
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(1, 1, &[2]),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        let commits: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ViewCommit>())
            .collect();
        assert_eq!(commits.len(), 1, "commit replayed to the straggler");
        assert_eq!(
            commits[0].get::<ViewCommit>().unwrap().header.dest,
            Dest::Node(NodeId(2))
        );
    }

    #[test]
    fn a_timed_out_round_is_reproposed_under_a_fresh_epoch() {
        // The wedge regression, upgraded: a fully lost round no longer just
        // unwedges — the proposer retries the same membership change under a
        // higher epoch until it lands.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        vsync.run_up(Event::up(Suspect { node: NodeId(3) }), &mut platform);
        let first = prepares(&vsync.drain_down());
        assert_eq!(first[0].0, 1);

        // Nothing ever comes back; past the timeout the round is aborted and
        // immediately re-proposed under epoch 2.
        platform.advance(4000);
        fire_pending_timers(&mut vsync, &mut platform);
        let retried = prepares(&vsync.drain_down());
        assert!(
            retried
                .iter()
                .any(|(epoch, view, _)| *epoch == 2 && view.members == vec![NodeId(1), NodeId(2)]),
            "re-proposed under a fresh epoch (got {retried:?})"
        );

        // The retried round completes normally.
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(2, 1, &[2]),
            )),
            &mut platform,
        );
        assert_eq!(view_changes(&mut platform).len(), 1);
    }

    #[test]
    fn a_lost_commit_unblocks_the_participant_after_the_round_timeout() {
        // Regression: a member that flushed for a proposal whose commit was
        // lost stayed blocked forever, holding its buffered sends hostage.
        let mut platform = TestPlatform::new(NodeId(2));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        let proposed = View::new(1, vec![NodeId(1), NodeId(2)]);
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(1, &proposed),
            )),
            &mut platform,
        );
        vsync.drain_down();

        let held = vsync.run_down(
            Event::down(DataEvent::to_group(NodeId(2), Message::new())),
            &mut platform,
        );
        assert!(held.iter().all(|event| !event.is::<DataEvent>()));

        // The commit never arrives: past the round timeout the member gives
        // up, resumes in its current view and releases the buffered send.
        platform.advance(4000);
        fire_pending_timers(&mut vsync, &mut platform);
        assert!(vsync
            .drain_down()
            .iter()
            .any(|event| event.is::<DataEvent>()));

        // A retried proposal (same ballot) is accepted afresh.
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(1, &proposed),
            )),
            &mut platform,
        );
        assert!(vsync
            .drain_down()
            .iter()
            .any(|event| event.is::<FlushAck>()));
    }

    #[test]
    fn equal_epochs_are_tie_broken_by_the_lower_proposer_id() {
        let mut platform = TestPlatform::new(NodeId(5));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[0, 1, 5]), &mut platform);
        platform.take_deliveries();

        // Proposer 1's round arrives first...
        let view_a = View::new(1, vec![NodeId(1), NodeId(5)]);
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(5)),
                round_message(2, &view_a),
            )),
            &mut platform,
        );
        vsync.drain_down();

        // ... then proposer 0's same-epoch round: the lower id wins, the
        // participant abandons round A and flushes for round B.
        let view_b = View::new(1, vec![NodeId(0), NodeId(5)]);
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(0),
                Dest::Node(NodeId(5)),
                round_message(2, &view_b),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        let ack = down
            .iter()
            .find(|event| event.is::<FlushAck>())
            .expect("flush for the winning ballot");
        let body = ack
            .get::<FlushAck>()
            .unwrap()
            .message
            .clone()
            .pop::<FlushBody>()
            .unwrap();
        assert_eq!(body.proposer, NodeId(0));

        // The deposed proposer's retries are rejected.
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(5)),
                round_message(2, &view_a),
            )),
            &mut platform,
        );
        assert!(vsync
            .drain_down()
            .iter()
            .all(|event| !event.is::<FlushAck>()));
    }

    #[test]
    fn a_stale_flush_from_an_aborted_round_cannot_complete_a_newer_round() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3, 4]), &mut platform);
        platform.take_deliveries();

        // Round under epoch 1 (remove node 4) times out and is re-proposed
        // under epoch 2.
        vsync.run_up(Event::up(Suspect { node: NodeId(4) }), &mut platform);
        vsync.drain_down();
        platform.advance(4000);
        fire_pending_timers(&mut vsync, &mut platform);
        vsync.drain_down();

        // A flush replayed from the aborted epoch-1 round must not count
        // towards the epoch-2 round.
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(1, 1, &[2, 3]),
            )),
            &mut platform,
        );
        assert!(
            view_changes(&mut platform).is_empty(),
            "stale-epoch flushes are dropped"
        );

        // The genuine epoch-2 flushes complete it.
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(2, 1, &[2]),
            )),
            &mut platform,
        );
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                flush_message(2, 1, &[3]),
            )),
            &mut platform,
        );
        assert_eq!(view_changes(&mut platform).len(), 1);
    }

    #[test]
    fn a_suspected_coordinator_is_removed_by_its_successor() {
        // Node 1 is not the coordinator — until node 0 (the coordinator) is
        // suspected, at which point node 1 leads the removal round itself.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[0, 1, 2]), &mut platform);
        platform.take_deliveries();

        vsync.run_up(Event::up(Suspect { node: NodeId(0) }), &mut platform);
        let sent = prepares(&vsync.drain_down());
        assert_eq!(sent.len(), 1, "the successor proposes the removal");
        assert_eq!(sent[0].1.members, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn a_suspect_queued_mid_round_is_removed_by_the_follow_up_round() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3, 4]), &mut platform);
        platform.take_deliveries();

        // Round 1 removes node 4. While it is in flight node 3 — whose flush
        // the round still awaits — is suspected too: the round can never
        // complete, so it is aborted and re-proposed without node 3.
        vsync.run_up(Event::up(Suspect { node: NodeId(4) }), &mut platform);
        vsync.drain_down();
        vsync.run_up(Event::up(Suspect { node: NodeId(3) }), &mut platform);
        let sent = prepares(&vsync.drain_down());
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, 2, "fresh epoch for the follow-up round");
        assert_eq!(sent[0].1.members, vec![NodeId(1), NodeId(2)]);

        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                flush_message(2, 1, &[2]),
            )),
            &mut platform,
        );
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].1, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn an_alive_notification_cancels_a_queued_removal() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        // Node 2 is not the coordinator, so the suspicion only queues the
        // removal; the Alive heals it before any round runs.
        vsync.run_up(Event::up(Suspect { node: NodeId(3) }), &mut platform);
        vsync.run_up(Event::up(Alive { node: NodeId(3) }), &mut platform);

        // When node 1 is later suspected, node 2 becomes the effective
        // coordinator — and proposes a view that still contains node 3.
        vsync.run_up(Event::up(Suspect { node: NodeId(1) }), &mut platform);
        let sent = prepares(&vsync.drain_down());
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].1.members, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn join_requests_grow_the_view() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2]), &mut platform);
        platform.take_deliveries();

        vsync.run_up(
            Event::up(JoinRequest::new(
                NodeId(7),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        let sent = prepares(&vsync.drain_down());
        assert_eq!(sent.len(), 1, "coordinator proposes the larger view");
        assert_eq!(sent[0].2, Dest::Nodes(vec![NodeId(2), NodeId(7)]));
        assert_eq!(
            sent[0].1.members,
            vec![NodeId(1), NodeId(2), NodeId(7)],
            "the joiner is part of the proposed view"
        );
    }

    #[test]
    fn a_join_request_from_a_current_member_reasserts_the_view() {
        // Restart before expulsion: the joiner is still in the view, so no
        // view change runs — the coordinator re-sends the current view as a
        // targeted commit instead.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        vsync.run_up(
            Event::up(JoinRequest::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        assert!(down.iter().all(|event| !event.is::<ViewPrepare>()));
        let commit = down
            .iter()
            .find(|event| event.is::<ViewCommit>())
            .expect("current view re-asserted to the joiner");
        assert_eq!(
            commit.get::<ViewCommit>().unwrap().header.dest,
            Dest::Node(NodeId(3))
        );
    }

    #[test]
    fn joining_mode_blocks_until_admitted_and_installs_the_join_view() {
        let mut params = vsync_params(&[1, 2, 3]);
        params.insert("joining".into(), "true".into());
        let mut platform = TestPlatform::new(NodeId(3));
        let mut vsync = Harness::new(VsyncLayer, &params, &mut platform);
        assert!(
            view_changes(&mut platform).is_empty(),
            "a joining node announces no view at init"
        );

        // Sends while joining are buffered.
        let held = vsync.run_down(
            Event::down(DataEvent::to_group(NodeId(3), Message::new())),
            &mut platform,
        );
        assert!(held.iter().all(|event| !event.is::<DataEvent>()));

        // The group re-asserts its current view (id 0, restart before
        // expulsion): the joiner accepts it although the id did not grow.
        let current = View::new(0, vec![NodeId(1), NodeId(2), NodeId(3)]);
        vsync.run_up(
            Event::up(ViewCommit::new(
                NodeId(1),
                Dest::Node(NodeId(3)),
                round_message(3, &current),
            )),
            &mut platform,
        );
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].1, vec![NodeId(1), NodeId(2), NodeId(3)]);
        // The buffered send flows once admitted.
        assert!(vsync
            .drain_down()
            .iter()
            .any(|event| event.is::<DataEvent>()));
    }

    #[test]
    fn gossip_mode_aggregates_flush_sets() {
        let mut params = vsync_params(&[0, 1, 2, 3, 4, 5, 6, 7]);
        params.insert("gossip_threshold".into(), "4".into());
        params.insert("fanout".into(), "2".into());
        let mut platform = TestPlatform::new(NodeId(2));
        let mut vsync = Harness::new(VsyncLayer, &params, &mut platform);
        platform.take_deliveries();

        // Node 0 proposes the view without node 7.
        let proposed = View::new(1, (0..7).map(NodeId).collect());
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(0),
                Dest::Node(NodeId(2)),
                round_message(1, &proposed),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        let ack = down
            .iter()
            .find(|event| event.is::<FlushAck>())
            .expect("flush sent");
        let Dest::Nodes(targets) = &ack.get::<FlushAck>().unwrap().header.dest else {
            panic!("gossip flush must address a node list");
        };
        assert!(targets.contains(&NodeId(0)), "proposer always included");
        assert_eq!(targets.len(), 3, "proposer + fanout peers");

        // A peer's aggregated set arrives: the union grew, so it is
        // re-gossiped; a duplicate of the same set is not.
        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(4),
                Dest::Node(NodeId(2)),
                flush_message(1, 0, &[4, 5]),
            )),
            &mut platform,
        );
        let down = vsync.drain_down();
        let merged = down
            .iter()
            .find(|event| event.is::<FlushAck>())
            .expect("grown set re-gossiped");
        let body = merged
            .get::<FlushAck>()
            .unwrap()
            .message
            .clone()
            .pop::<FlushBody>()
            .unwrap();
        assert_eq!(body.flushed, vec![NodeId(2), NodeId(4), NodeId(5)]);

        vsync.run_up(
            Event::up(FlushAck::new(
                NodeId(5),
                Dest::Node(NodeId(2)),
                flush_message(1, 0, &[4, 5]),
            )),
            &mut platform,
        );
        assert!(
            vsync
                .drain_down()
                .iter()
                .all(|event| !event.is::<FlushAck>()),
            "an unchanged union is not re-gossiped"
        );
    }

    #[test]
    fn stale_commits_and_duplicate_suspicions_are_ignored() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2]), &mut platform);
        platform.take_deliveries();

        // A replayed commit whose ballot does not outrank the installed one
        // must not reinstall anything.
        let stale = View::new(0, vec![NodeId(1), NodeId(2)]);
        vsync.run_up(
            Event::up(ViewCommit::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                round_message(0, &stale),
            )),
            &mut platform,
        );
        assert!(view_changes(&mut platform).is_empty());

        // Suspecting an unknown node does nothing.
        vsync.run_up(Event::up(Suspect { node: NodeId(99) }), &mut platform);
        assert!(vsync
            .drain_down()
            .iter()
            .all(|event| !event.is::<ViewPrepare>()));
    }

    #[test]
    fn rival_same_id_commits_converge_on_the_winning_ballot() {
        // Two proposers raced the same epoch (a false suspicion) and both
        // assembled a view with the same id. Installs at an equal id are
        // ballot-ordered: a member that installed the losing round's view
        // still converges onto the winning (lower proposer id) one, and the
        // losing commit can never displace the winner.
        let mut platform = TestPlatform::new(NodeId(2));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[0, 1, 2, 3]), &mut platform);
        platform.take_deliveries();

        let losing = View::new(1, vec![NodeId(1), NodeId(2), NodeId(3)]);
        vsync.run_up(
            Event::up(ViewCommit::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(2, &losing),
            )),
            &mut platform,
        );
        assert_eq!(
            view_changes(&mut platform).len(),
            1,
            "losing view installs first"
        );

        let winning = View::new(1, vec![NodeId(0), NodeId(1), NodeId(2)]);
        vsync.run_up(
            Event::up(ViewCommit::new(
                NodeId(0),
                Dest::Node(NodeId(2)),
                round_message(2, &winning),
            )),
            &mut platform,
        );
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1, "equal-id winning ballot supersedes");
        assert_eq!(changes[0].1, vec![NodeId(0), NodeId(1), NodeId(2)]);

        // The losing commit replayed afterwards is rejected.
        vsync.run_up(
            Event::up(ViewCommit::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(2, &losing),
            )),
            &mut platform,
        );
        assert!(view_changes(&mut platform).is_empty());
    }

    #[test]
    fn a_rejoin_reset_reenters_joining_mode() {
        let mut platform = TestPlatform::new(NodeId(3));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        // A round is in flight when the reset arrives: all of it is wiped.
        vsync.run_up(Event::up(Suspect { node: NodeId(1) }), &mut platform);
        vsync.run_up(Event::up(Rejoin {}), &mut platform);
        vsync.drain_down();

        // Sends are buffered while re-joining.
        let held = vsync.run_down(
            Event::down(DataEvent::to_group(NodeId(3), Message::new())),
            &mut platform,
        );
        assert!(held.iter().all(|event| !event.is::<DataEvent>()));

        // The group re-admits the node (any ballot: joining mode accepts
        // every view containing the local node); the buffered send flows.
        let readmitted = View::new(4, vec![NodeId(1), NodeId(2), NodeId(3)]);
        vsync.run_up(
            Event::up(ViewCommit::new(
                NodeId(1),
                Dest::Node(NodeId(3)),
                round_message(2, &readmitted),
            )),
            &mut platform,
        );
        let changes = view_changes(&mut platform);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].1, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(vsync
            .drain_down()
            .iter()
            .any(|event| event.is::<DataEvent>()));
    }

    #[test]
    fn a_vanished_joiner_does_not_loop_the_join_round_forever() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2]), &mut platform);
        platform.take_deliveries();

        // Node 7 asks to join, then crashes before ever flushing.
        vsync.run_up(
            Event::up(JoinRequest::new(
                NodeId(7),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        assert_eq!(prepares(&vsync.drain_down()).len(), 1);

        // The round times out; the dead joiner's queued join is dropped, so
        // no fresh round chases it.
        platform.advance(4000);
        fire_pending_timers(&mut vsync, &mut platform);
        assert!(
            prepares(&vsync.drain_down()).is_empty(),
            "no endless re-proposal for a joiner that never flushed"
        );

        // A live joiner simply re-queues itself with its retransmitted
        // request and is admitted normally.
        vsync.run_up(
            Event::up(JoinRequest::new(
                NodeId(7),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        let retried = prepares(&vsync.drain_down());
        assert_eq!(retried.len(), 1);
        assert_eq!(retried[0].1.members, vec![NodeId(1), NodeId(2), NodeId(7)]);
    }

    #[test]
    fn a_stale_prepare_is_nacked_with_the_promised_ballot() {
        let mut platform = TestPlatform::new(NodeId(2));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        // A rival proposer (node 3) opened a high-epoch round: node 2 now
        // holds the promise (5, 3).
        let rival = View::new(1, vec![NodeId(1), NodeId(2), NodeId(3)]);
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(3),
                Dest::Node(NodeId(2)),
                round_message(5, &rival),
            )),
            &mut platform,
        );

        // Node 1's prepare under epoch 1 loses to that promise. It must be
        // answered with a StaleBallot naming the stronger ballot — not
        // silently dropped, which would leave node 1 crawling one epoch per
        // round timeout.
        let admitted = View::new(1, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        vsync.drain_down();
        vsync.run_up(
            Event::up(ViewPrepare::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                round_message(1, &admitted),
            )),
            &mut platform,
        );
        let events = vsync.drain_down();
        let nack = events
            .iter()
            .find_map(|event| event.get::<StaleBallot>())
            .expect("stale prepare answered with a StaleBallot");
        assert_eq!(nack.header.dest, Dest::Node(NodeId(1)));
        let mut message = nack.message.clone();
        assert_eq!(message.pop::<u64>().unwrap(), 5);
        assert_eq!(message.pop::<NodeId>().unwrap(), NodeId(3));
    }

    #[test]
    fn a_stale_ballot_nack_jumps_the_proposer_past_the_obstruction() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut vsync = Harness::new(VsyncLayer, &vsync_params(&[1, 2, 3]), &mut platform);
        platform.take_deliveries();

        // Node 4 asks to join: node 1 (the coordinator) opens round e=1.
        vsync.run_up(
            Event::up(JoinRequest::new(
                NodeId(4),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        let opened = prepares(&vsync.drain_down());
        assert_eq!(opened.len(), 1);
        assert_eq!(opened[0].0, 1);

        // A participant rejects: it promised ballot (5, node 7) to a round
        // the proposer abandoned. The coordinator re-proposes immediately
        // under an epoch beating the reported promise, keeping the queued
        // join alive.
        let mut message = Message::new();
        message.push(&NodeId(7));
        message.push(&5u64);
        vsync.run_up(
            Event::up(StaleBallot::new(NodeId(2), Dest::Node(NodeId(1)), message)),
            &mut platform,
        );
        let reproposed = prepares(&vsync.drain_down());
        assert_eq!(reproposed.len(), 1, "the round is re-proposed immediately");
        assert!(
            ballot_beats(reproposed[0].0, NodeId(1), (5, NodeId(7))),
            "the fresh epoch beats the promised ballot"
        );
        assert!(
            reproposed[0].1.contains(NodeId(4)),
            "the queued join rides the re-proposal"
        );
    }
}
