//! A SWIM failure detector (Das, Gupta, Motivala, DSN 2002) with
//! Lifeguard's local health (Dadgar, Phillips, Currey, DSN-W 2018).
//!
//! **Probing.** Every `hb_interval_ms` the layer pings one member, walking a
//! shuffled round-robin of the installed view and passing over members heard
//! from within the last period. Half a period later, with no ack, it pings
//! again and asks `fanout` others to ping for it ([`ProbeKind::PingReq`]);
//! the relayed ping and ack carry the prober's id and sequence number, so a
//! helper keeps no state. With no ack by the period's end the member is
//! *suspect* inside the layer, dated from the first ping; the next period
//! pings it again, and only if that fails too does the suspicion spread. A
//! node sends one ping a period and answers about one, at any group size.
//!
//! **Rumours.** A suspicion nobody refutes within `suspect_timeout_ms`
//! raises [`Suspect`] and a *confirm* rumour, sent at once to the view's
//! lowest live member (the coordinator that acts on it); a confirm raises
//! [`Suspect`] wherever it arrives. Suspect, confirm and alive rumours ride
//! on pings and acks, at most `RUMOUR_CAP` a packet, newest first but one
//! naming the receiver first, each sent λ·⌈log₂(n+1)⌉ times
//! (`RETRANSMIT_MULT`). A suspected member refutes with a higher
//! incarnation. Any direct packet, or a higher incarnation, ends a suspicion
//! and heals a raised one with [`Alive`]. A node that hears a suspicion
//! older than the incarnation it knows, and suspects nothing itself, spreads
//! that incarnation as an alive rumour: the sender missed the refutation.
//! The incarnation starts at `now / hb_interval_ms`, so a restart never
//! looks older than its past.
//!
//! **Checking a rumour.** A node that adopts a suspect rumour pings the
//! suspect ahead of its round-robin, the rumour riding first on that ping
//! (Lifeguard's buddy system): a rumour whose sends run out before it
//! reaches the suspect would otherwise leave the suspect nothing to refute,
//! while every adopter waits out its timeout and confirms. Such suspects
//! queue one a period, behind a member this node just began to suspect.
//!
//! **Local health.** A probe that fails while no member at all was heard
//! from since its ping, or a refutation of its own suspicion, raises the
//! node's health score; an acked probe lowers it. Suspicion timeouts stretch
//! `1 + health`-fold, up to `HEALTH_CAP`. A suspicion that rests on this
//! node's own probes alone, backed by no other member's rumour, waits the
//! full `1 + HEALTH_CAP` timeouts — fewer in a group too small to hold
//! that many other members who could back it, and one in a group of two.
//! A suspicion gathered while this node was cut off is such a one.
//!
//! **Coming back.** A node that hears from a member after two or more
//! periods of hearing from nobody was cut off, and whoever suspected it
//! meanwhile may have spent the rumours it could have refuted. It takes a
//! new incarnation and spreads it as an alive rumour, which ends every such
//! suspicion.
//!
//! **Isolation.** A node answers no probe from outside its installed view
//! and takes no evidence from it. A node that has heard from no member for
//! `suspect_timeout_ms` suspects all of them at once, without a rumour:
//! that is how `recovery` notices an expulsion. A new view restarts that
//! clock.
//!
//! **One liveness session per node.** Generated stacks and the control
//! channel share the layer under one key ([`crate::suite::liveness_layer`]),
//! so a node keeps one table, one tick timer and one probe stream however
//! many channels hold the session and however often the data stack is
//! replaced:
//!
//! * `Suspect` and `Alive` reach every channel holding the session
//!   ([`EventContext::dispatch_to_holders`]) — view synchrony and recovery on
//!   the data channel, Cocaditem and Core on the control channel;
//! * the tick timer is re-armed on every `ChannelInit`, keeping its phase,
//!   so the probes ride the holder initialised last;
//! * a `ViewInstall` the layer sees is re-announced upward on every *other*
//!   holder, once per view id — how the control plane learns the views view
//!   synchrony installs on the data channel;
//! * any data packet from a member counts as word from it, and so does a
//!   restarted member's `JoinRequest`;
//! * the "everyone is fresh" grace runs when the session is created, not
//!   when a later holder is initialised.
//!
//! The table is one `Vec` of rows sorted by node id, one per view member.

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;

use crate::events::{Alive, Heartbeat, JoinRequest, Suspect, ViewInstall};
use crate::headers::{ProbeBody, ProbeKind, Rumour, RumourKind};
use crate::sample::{sample_peers_into, shuffle_into};

/// Registered name of the failure detector layer.
pub const FD_LAYER: &str = "fd";

/// Timer tag of the half-period tick.
const TICK_TAG: u32 = 1;

/// Rumours one packet carries at most.
const RUMOUR_CAP: usize = 6;

/// λ: each rumour is sent λ·⌈log₂(n+1)⌉ times.
const RETRANSMIT_MULT: u32 = 2;

/// Lifeguard's cap on the local health score.
const HEALTH_CAP: u64 = 3;

/// The SWIM failure detector layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial group membership;
/// * `hb_interval_ms` — probe period (default 500 ms);
/// * `suspect_timeout_ms` — how long a suspicion may go unrefuted before
///   [`Suspect`] is raised (default 2000 ms);
/// * `fanout` — members asked to probe indirectly (default 3, at least 1).
pub struct FailureDetectorLayer;

impl Layer for FailureDetectorLayer {
    fn name(&self) -> &str {
        FD_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<JoinRequest>(),
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
        let mut session = FailureDetectorSession {
            members: param_node_list(params, "members"),
            hb_interval_ms: param_or(params, "hb_interval_ms", 500u64).max(10),
            suspect_timeout_ms: param_or(params, "suspect_timeout_ms", 2000u64).max(50),
            fanout: param_or(params, "fanout", 3usize).max(1),
            ..FailureDetectorSession::default()
        };
        session.install_members(0);
        Box::new(session)
    }
}

/// Row flag: the member is in the view being installed.
const MEMBER: u8 = 1;
/// Row flag: the member failed a probe (or was rumoured to), and
/// [`Suspect`] is raised unless the suspicion is refuted in time.
const SUSPICION: u8 = 1 << 1;
/// Row flag: [`Suspect`] was raised for the member.
const SUSPECTED: u8 = 1 << 2;
/// Row flag: another member's rumour backs the [`SUSPICION`].
const BACKED: u8 = 1 << 3;

/// One member's row of the liveness table.
#[derive(Debug, Clone, Copy)]
struct Row {
    id: NodeId,
    /// [`MEMBER`], [`SUSPICION`], [`SUSPECTED`] and [`BACKED`].
    flags: u8,
    /// The member's highest incarnation this node knows.
    incarnation: u64,
    /// When the member was last heard from directly (or acked a probe).
    last_heard: u64,
    /// When the suspicion began; meaningful under [`SUSPICION`].
    since: u64,
}

impl Row {
    fn has(&self, mask: u8) -> bool {
        self.flags & mask != 0
    }
}

/// The probe of the current period.
#[derive(Debug, Clone, Copy)]
struct Probe {
    target: NodeId,
    seq: u64,
    sent_ms: u64,
    acked: bool,
}

/// A rumour waiting to be piggybacked `sends_left` more times.
#[derive(Debug, Clone, Copy)]
struct Queued {
    rumour: Rumour,
    sends_left: u32,
}

/// Session state of the failure detector.
#[derive(Debug, Default)]
pub struct FailureDetectorSession {
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    /// A row per member, sorted by id.
    // bound: rebuilt from `members` on every view install; <= view size.
    rows: Vec<Row>,
    hb_interval_ms: u64,
    suspect_timeout_ms: u64,
    /// Members asked to probe indirectly.
    fanout: usize,
    /// When the next tick is due; `None` until the first `ChannelInit`.
    next_tick_ms: Option<u64>,
    /// The one live tick timer.
    tick_timer: Option<u64>,
    /// Whether the next tick is the half-period ack deadline (else it
    /// starts a period).
    mid_period: bool,
    /// The last view id re-announced to the other holders.
    relayed_view: Option<u64>,
    /// This node's incarnation.
    incarnation: u64,
    /// Lifeguard's local health score, `0..=HEALTH_CAP`.
    health: u64,
    /// When any member was last heard from directly.
    last_heard_any: u64,
    /// The shuffled round-robin of probe targets.
    // bound: refilled from `members` at every lap; <= view size.
    order: Vec<NodeId>,
    /// The position of the next probe target in `order`.
    next_in_order: usize,
    probe: Option<Probe>,
    /// Suspects to ping ahead of the round-robin, one a period: the member
    /// this node just began to suspect first, then those it learned of by
    /// rumour.
    // bound: one entry per member at most; pruned to the view on install; <= view size.
    reprobe: Vec<NodeId>,
    /// The last probe sequence number used.
    seq: u64,
    /// Rumours to piggyback, oldest first.
    // bound: one per member at most (a newer rumour replaces it), dropped after its sends; <= view size.
    rumours: Vec<Queued>,
    /// Scratch for the indirect probers.
    // bound: cleared on every draw; <= fanout.
    peers: Vec<NodeId>,
    /// Scratch for each probe received.
    // bound: refilled on every heartbeat; <= the rumours its packet holds.
    inbound: ProbeBody,
    /// Scratch for each probe sent.
    // bound: refilled on every send; <= RUMOUR_CAP rumours.
    outbound: ProbeBody,
}

impl FailureDetectorSession {
    fn row(&self, id: NodeId) -> Option<usize> {
        self.rows.binary_search_by_key(&id, |row| row.id).ok()
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

    /// Makes the table match `members`: rows of nodes outside the view are
    /// dropped with their suspicions, and a new member starts unsuspected
    /// and heard from at `now`.
    fn install_members(&mut self, now: u64) {
        let kept = self.rows.len();
        for row in &mut self.rows {
            row.flags &= !MEMBER;
        }
        for member in &self.members {
            let found = self
                .rows
                .get(..kept)
                .and_then(|rows| rows.binary_search_by_key(member, |row| row.id).ok());
            match found {
                Some(at) => self.rows[at].flags |= MEMBER,
                None => self.rows.push(Row {
                    id: *member,
                    flags: MEMBER,
                    incarnation: 0,
                    last_heard: now,
                    since: 0,
                }),
            }
        }
        self.rows.retain(|row| row.has(MEMBER));
        self.rows.sort_unstable_by_key(|row| row.id);
        self.rows.dedup_by_key(|row| row.id);
        // The next probe starts a fresh lap over the new view.
        self.order.clear();
        let rows = &self.rows;
        let is_member = |id: NodeId| rows.binary_search_by_key(&id, |row| row.id).is_ok();
        self.rumours.retain(|queued| is_member(queued.rumour.node));
        self.probe = self.probe.filter(|probe| is_member(probe.target));
        self.reprobe.retain(|node| is_member(*node));
    }

    fn heard_from(&mut self, node: NodeId, now: u64, ctx: &mut EventContext<'_>) {
        if let Some(at) = self.row(node) {
            self.heard(at, now, ctx);
        }
    }

    /// Direct evidence that the member of row `at` is alive: it ends a
    /// suspicion of it, and this node stops spreading one.
    fn heard(&mut self, at: usize, now: u64, ctx: &mut EventContext<'_>) {
        if now.saturating_sub(self.last_heard_any) >= 2 * self.hb_interval_ms {
            // Word after two silent periods: refute whatever was said of
            // this node meanwhile.
            self.incarnation = (self.incarnation + 1).max(now / self.hb_interval_ms);
            self.spread(RumourKind::Alive, ctx.node_id(), self.incarnation);
        }
        self.rows[at].last_heard = now;
        self.last_heard_any = now;
        // A queued suspect or confirm rumour implies a suspicion here.
        if self.rows[at].has(SUSPICION | SUSPECTED) {
            let node = self.rows[at].id;
            let kept = |queued: &Queued| queued.rumour.node != node;
            self.rumours
                .retain(|queued| kept(queued) || queued.rumour.kind == RumourKind::Alive);
            self.clear_suspicion(at, ctx);
        }
    }

    /// Ends a suspicion of row `at`'s member, healing a raised one with
    /// [`Alive`] so upper layers (the Core control layer's ack quorum, view
    /// synchrony's pending removals) can re-admit it.
    fn clear_suspicion(&mut self, at: usize, ctx: &mut EventContext<'_>) {
        let row = &mut self.rows[at];
        let raised = row.has(SUSPECTED);
        row.flags &= !(SUSPICION | SUSPECTED | BACKED);
        if raised {
            let node = row.id;
            ctx.dispatch_to_holders(|_| Some(Event::up(Alive { node })));
        }
    }

    fn raise_suspect(&mut self, at: usize, ctx: &mut EventContext<'_>) {
        let row = &mut self.rows[at];
        row.flags = (row.flags & !(SUSPICION | BACKED)) | SUSPECTED;
        let node = row.id;
        ctx.dispatch_to_holders(|_| Some(Event::up(Suspect { node })));
    }

    /// Queues a rumour for λ·⌈log₂(n+1)⌉ sends, replacing any about the
    /// same node.
    fn spread(&mut self, kind: RumourKind, node: NodeId, incarnation: u64) {
        let n = self.members.len() as u64;
        let sends_left = (RETRANSMIT_MULT * (n + 1).next_power_of_two().trailing_zeros()).max(1);
        self.rumours.retain(|queued| queued.rumour.node != node);
        let rumour = Rumour::new(kind, node, incarnation);
        self.rumours.push(Queued { rumour, sends_left });
    }

    /// Sends one probe packet to `to`, with the rumours it carries.
    fn send(
        &mut self,
        kind: ProbeKind,
        to: NodeId,
        seq: u64,
        relay: Option<NodeId>,
        ctx: &mut EventContext<'_>,
    ) {
        let body = &mut self.outbound;
        body.kind = kind;
        body.seq = seq;
        body.incarnation = self.incarnation;
        body.relay = relay;
        body.rumours.clear();
        // A suspicion of the receiver first: it can refute at once.
        let mut rumours = self.rumours.iter_mut();
        let first = rumours.find(|q| q.rumour.node == to && q.rumour.kind != RumourKind::Alive);
        if let Some(queued) = first {
            body.rumours.push(queued.rumour);
            queued.sends_left -= 1;
        }
        for queued in self.rumours.iter_mut().rev() {
            if body.rumours.len() == RUMOUR_CAP {
                break;
            }
            if queued.rumour.node != to {
                body.rumours.push(queued.rumour);
                queued.sends_left -= 1;
            }
        }
        self.rumours.retain(|queued| queued.sends_left > 0);
        let mut message = Message::new();
        message.push(&self.outbound);
        let local = ctx.node_id();
        ctx.dispatch(Event::down(Heartbeat::new(local, Dest::Node(to), message)));
    }

    fn tick(&mut self, ctx: &mut EventContext<'_>) {
        let now = ctx.now_ms();
        let half = self.hb_interval_ms / 2;
        let next = if !self.mid_period {
            self.end_probe();
            self.start_probe(now, ctx);
            now + half
        } else {
            if let Some(probe) = self.probe.filter(|probe| !probe.acked) {
                // The ack is overdue: ping once more, and ask `fanout`
                // others to ping on this node's behalf.
                self.send(ProbeKind::Ping, probe.target, probe.seq, None, ctx);
                let exclude = [ctx.node_id(), probe.target];
                sample_peers_into(&self.members, &exclude, self.fanout, ctx, &mut self.peers);
                for at in 0..self.peers.len() {
                    let (helper, target) = (self.peers[at], Some(probe.target));
                    self.send(ProbeKind::PingReq, helper, probe.seq, target, ctx);
                }
            }
            now + self.hb_interval_ms - half
        };
        self.mid_period = !self.mid_period;
        self.expire_suspicions(now, ctx);
        self.arm_tick(next, ctx);
    }

    /// Closes the period's probe: an ack lowers the health score. No ack
    /// (and no word from the target since the ping) makes the target
    /// suspect, and the next period pings it again. The suspicion spreads
    /// only once that ping fails too: a lost ping and its lost retries stay
    /// this node's business. Then the round-robin resumes.
    fn end_probe(&mut self) {
        let Some(probe) = self.probe.take() else {
            return;
        };
        if probe.acked {
            self.health = self.health.saturating_sub(1);
            return;
        }
        if self.last_heard_any < probe.sent_ms {
            self.health = (self.health + 1).min(HEALTH_CAP);
        }
        let Some(at) = self.row(probe.target) else {
            return;
        };
        let row = &mut self.rows[at];
        if row.has(SUSPECTED) || row.last_heard >= probe.sent_ms {
            return;
        }
        if row.has(SUSPICION) {
            let (node, incarnation) = (row.id, row.incarnation);
            self.spread(RumourKind::Suspect, node, incarnation);
        } else {
            row.flags |= SUSPICION;
            row.since = probe.sent_ms;
            self.reprobe.retain(|node| *node != probe.target);
            self.reprobe.insert(0, probe.target);
        }
    }

    fn start_probe(&mut self, now: u64, ctx: &mut EventContext<'_>) {
        let Some(target) = self.next_reprobe().or_else(|| self.next_target(now, ctx)) else {
            return;
        };
        self.seq += 1;
        self.probe = Some(Probe {
            target,
            seq: self.seq,
            sent_ms: now,
            acked: false,
        });
        self.send(ProbeKind::Ping, target, self.seq, None, ctx);
    }

    /// The first queued suspect still under suspicion.
    fn next_reprobe(&mut self) -> Option<NodeId> {
        while !self.reprobe.is_empty() {
            let node = self.reprobe.remove(0);
            if self
                .row(node)
                .is_some_and(|at| self.rows[at].has(SUSPICION))
            {
                return Some(node);
            }
        }
        None
    }

    /// The next member of the round-robin not heard from directly within
    /// the last period, walking at most one lap.
    fn next_target(&mut self, now: u64, ctx: &mut EventContext<'_>) -> Option<NodeId> {
        let local = ctx.node_id();
        for _ in 0..self.members.len() {
            if self.next_in_order >= self.order.len() {
                shuffle_into(&self.members, &[local], ctx, &mut self.order);
                self.next_in_order = 0;
            }
            let candidate = *self.order.get(self.next_in_order)?;
            self.next_in_order += 1;
            let due = self.row(candidate).is_some_and(|at| {
                now.saturating_sub(self.rows[at].last_heard) >= self.hb_interval_ms
            });
            if due {
                return Some(candidate);
            }
        }
        None
    }

    /// Raises [`Suspect`] for every suspicion older than the (stretched)
    /// timeout, and for every member once none was heard from for
    /// `suspect_timeout_ms`.
    fn expire_suspicions(&mut self, now: u64, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let isolated = now.saturating_sub(self.last_heard_any) >= self.suspect_timeout_ms;
        let backed = self.suspect_timeout_ms * (1 + self.health);
        // The members other than this node and the suspect who could back it.
        let backers = self.members.len().saturating_sub(2) as u64;
        let unbacked = backed.max(self.suspect_timeout_ms * (1 + backers.min(HEALTH_CAP)));
        let mut confirmed = false;
        for at in 0..self.rows.len() {
            let row = self.rows[at];
            if row.id == local || row.has(SUSPECTED) {
                continue;
            }
            if isolated {
                self.raise_suspect(at, ctx);
            } else if row.has(SUSPICION)
                && now.saturating_sub(row.since) >= if row.has(BACKED) { backed } else { unbacked }
            {
                self.raise_suspect(at, ctx);
                self.spread(RumourKind::Confirm, row.id, row.incarnation);
                confirmed = true;
            }
        }
        // The view's lowest live member coordinates the view change a
        // confirm calls for: it gets the rumour at once, on a ping of its
        // own, instead of when the epidemic reaches it.
        let coordinator = self
            .rows
            .iter()
            .find(|row| !row.has(SUSPECTED))
            .map(|row| row.id);
        if let Some(to) = coordinator.filter(|to| confirmed && *to != local) {
            self.send(ProbeKind::Ping, to, 0, None, ctx);
        }
    }

    /// Handles one probe packet from `source`; `header` is its body.
    fn on_probe(&mut self, source: NodeId, header: Option<&[u8]>, ctx: &mut EventContext<'_>) {
        let now = ctx.now_ms();
        let Some(at) = self.row(source) else {
            return;
        };
        // A packet whose body is missing or malformed proves its sender
        // alive all the same.
        self.heard(at, now, ctx);
        let Some(header) = header else {
            return;
        };
        if ProbeBody::decode_into(header, &mut self.inbound).is_err() {
            return;
        }
        // The rumours first, so a refutation rides the reply. The sender's
        // own incarnation is a rumour too: a restarted member's new one is
        // news to spread on.
        let mut rumours = std::mem::take(&mut self.inbound.rumours);
        for rumour in rumours.drain(..) {
            self.learn(rumour, now, ctx);
        }
        self.inbound.rumours = rumours;
        let alive = Rumour::new(RumourKind::Alive, source, self.inbound.incarnation);
        self.learn(alive, now, ctx);
        let (seq, relay) = (self.inbound.seq, self.inbound.relay);
        let relay_is_peer =
            relay.is_some_and(|node| node != ctx.node_id() && self.row(node).is_some());
        match (self.inbound.kind, relay) {
            (ProbeKind::Ping, _) => self.send(ProbeKind::Ack, source, seq, relay, ctx),
            (ProbeKind::PingReq, Some(target)) if relay_is_peer => {
                self.send(ProbeKind::Ping, target, seq, Some(source), ctx);
            }
            // A relayed ping's answer: pass it on to the prober.
            (ProbeKind::Ack, Some(prober)) if relay_is_peer => {
                self.send(ProbeKind::Ack, prober, seq, None, ctx);
            }
            (ProbeKind::Ack, None) => {
                if let Some(probe) = self.probe.as_mut().filter(|p| p.seq == seq && !p.acked) {
                    probe.acked = true;
                    let target = probe.target;
                    self.heard_from(target, now, ctx);
                }
            }
            _ => {}
        }
    }

    /// Applies one rumour, and spreads it on if it was news.
    fn learn(&mut self, rumour: Rumour, now: u64, ctx: &mut EventContext<'_>) {
        if rumour.node == ctx.node_id() {
            if rumour.kind != RumourKind::Alive && rumour.incarnation >= self.incarnation {
                self.incarnation = rumour.incarnation.saturating_add(1);
                self.health = (self.health + 1).min(HEALTH_CAP);
                self.spread(RumourKind::Alive, rumour.node, self.incarnation);
            }
            return;
        }
        let Some(at) = self.row(rumour.node) else {
            return;
        };
        let row = self.rows[at];
        // Direct word from the member within the last period outranks a
        // rumour that it failed.
        let fresh = now.saturating_sub(row.last_heard) < self.hb_interval_ms;
        let stale = rumour.incarnation < row.incarnation;
        if stale && rumour.kind != RumourKind::Alive && !row.has(SUSPICION | SUSPECTED) {
            // The sender missed the member's refutation: pass it on.
            self.spread(RumourKind::Alive, rumour.node, row.incarnation);
            return;
        }
        match rumour.kind {
            RumourKind::Alive => {
                if rumour.incarnation <= row.incarnation {
                    return;
                }
                self.rows[at].incarnation = rumour.incarnation;
                self.clear_suspicion(at, ctx);
            }
            RumourKind::Suspect => {
                if stale || fresh || row.has(SUSPECTED) {
                    return;
                }
                let row = &mut self.rows[at];
                let held = row.has(SUSPICION);
                row.flags |= SUSPICION | BACKED;
                if held {
                    return;
                }
                row.incarnation = rumour.incarnation;
                row.since = now;
                // Check the rumour with the suspect itself.
                if !self.reprobe.contains(&rumour.node) {
                    self.reprobe.push(rumour.node);
                }
            }
            RumourKind::Confirm => {
                if stale || fresh || row.has(SUSPECTED) {
                    return;
                }
                self.rows[at].incarnation = rumour.incarnation;
                self.raise_suspect(at, ctx);
            }
        }
        self.spread(rumour.kind, rumour.node, rumour.incarnation);
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
                    // The session is new: every member starts fresh, and
                    // the incarnation outranks any earlier life's.
                    let now = ctx.now_ms();
                    for row in &mut self.rows {
                        row.last_heard = now;
                    }
                    self.last_heard_any = now;
                    self.incarnation = now / self.hb_interval_ms;
                    if self.incarnation > 0 {
                        // A restart: members that suspected the previous
                        // life learn of this one.
                        self.spread(RumourKind::Alive, ctx.node_id(), self.incarnation);
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
            let now = ctx.now_ms();
            self.members.clone_from(&install.view.members);
            self.install_members(now);
            if self.relayed_view != Some(install.view.id) {
                self.relayed_view = Some(install.view.id);
                // A new view is word from the group.
                self.last_heard_any = now;
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
                if let Some(hb) = event.get_mut::<Heartbeat>() {
                    let source = hb.header.source;
                    let header = hb.message.pop_header();
                    self.on_probe(source, header.as_deref(), ctx);
                }
                // Probes are absorbed; they carry no application meaning.
                return;
            }
            ctx.forward(event);
            return;
        }
        if event.direction == Direction::Up {
            // Data is word from its sender, and so is the join request a
            // restarted member multicasts to the whole view.
            let source = event.get::<DataEvent>().map(|data| data.header.source);
            let source = source.or_else(|| event.get::<JoinRequest>().map(|j| j.header.source));
            if let Some(source) = source {
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
    use crate::view::View;

    /// Node 1's detector over `members`, created at `now`: a 100 ms period.
    fn detector(members: &[u32], timeout: u64, now: u64) -> (Harness, TestPlatform) {
        let mut params = LayerParams::new();
        let members: Vec<String> = members.iter().map(u32::to_string).collect();
        params.insert("members".into(), members.join(","));
        params.insert("hb_interval_ms".into(), "100".into());
        params.insert("suspect_timeout_ms".into(), timeout.to_string());
        let mut platform = TestPlatform::new(NodeId(1));
        platform.now_ms = now;
        let fd = Harness::new(FailureDetectorLayer, &params, &mut platform);
        (fd, platform)
    }

    /// Moves the clock to `until`, firing the ticks due on the way.
    fn run_to(fd: &mut Harness, platform: &mut TestPlatform, until: u64) {
        while let Some(position) = platform.timers.iter().position(|(at, _)| *at <= until) {
            let (at, key) = platform.timers.remove(position);
            platform.now_ms = at;
            fd.fire_timer(key, platform);
        }
        platform.now_ms = until;
    }

    /// The probes sent since the last call, as `(receiver, body)`.
    fn sent(fd: &mut Harness) -> Vec<(NodeId, ProbeBody)> {
        let down = fd.drain_down();
        let probes = down.iter().filter_map(|event| event.get::<Heartbeat>());
        probes
            .map(|hb| {
                let Dest::Node(to) = hb.header.dest else {
                    panic!("a probe goes to one node");
                };
                (to, hb.message.clone().pop::<ProbeBody>().unwrap())
            })
            .collect()
    }

    fn probe(from: u32, kind: ProbeKind, seq: u64, relay: Option<u32>, said: &[Rumour]) -> Event {
        let (incarnation, relay, rumours) = (0, relay.map(NodeId), said.to_vec());
        let mut message = Message::new();
        message.push(&ProbeBody {
            kind,
            seq,
            incarnation,
            relay,
            rumours,
        });
        Event::up(Heartbeat::new(NodeId(from), Dest::Node(NodeId(1)), message))
    }

    fn ack(from: u32, seq: u64) -> Event {
        probe(from, ProbeKind::Ack, seq, None, &[])
    }

    fn rumour(kind: RumourKind, node: u32, incarnation: u64) -> Rumour {
        Rumour::new(kind, NodeId(node), incarnation)
    }

    fn data_from(from: u32) -> Event {
        let message = Message::with_payload(&b"still here"[..]);
        Event::up(DataEvent::new(NodeId(from), Dest::Node(NodeId(1)), message))
    }

    /// The nodes the upward events suspect and heal.
    fn raised(events: &[Event]) -> (Vec<NodeId>, Vec<NodeId>) {
        let suspects = events.iter().filter_map(|e| e.get::<Suspect>());
        let alive = events.iter().filter_map(|e| e.get::<Alive>());
        (
            suspects.map(|s| s.node).collect(),
            alive.map(|a| a.node).collect(),
        )
    }

    /// Runs period by period to `until`: `talk` feeds what arrives in a
    /// period; every ping node 1 sends to a member of `alive` is acked.
    /// Returns `(time, suspect)` for every `Suspect` raised.
    fn run_periods(
        fd: &mut Harness,
        platform: &mut TestPlatform,
        until: u64,
        alive: &[u32],
        mut talk: impl FnMut(u64, &mut Harness, &mut TestPlatform),
    ) -> Vec<(u64, NodeId)> {
        let mut suspected = Vec::new();
        while platform.now_ms < until {
            let now = platform.now_ms + 50;
            run_to(fd, platform, now);
            let (suspects, _) = raised(&fd.drain_up());
            suspected.extend(suspects.into_iter().map(|node| (now, node)));
            talk(now, fd, platform);
            for (to, body) in sent(fd) {
                if body.kind == ProbeKind::Ping && alive.contains(&to.0) {
                    fd.run_up(ack(to.0, body.seq), platform);
                }
            }
        }
        suspected
    }

    #[test]
    fn each_period_pings_one_member_and_every_ping_is_answered() {
        let (mut fd, mut platform) = detector(&[1, 2, 3, 4, 5, 6, 7, 8], 1000, 0);
        for period in 1..=7u64 {
            run_to(&mut fd, &mut platform, period * 100);
            let pings = sent(&mut fd);
            assert_eq!(pings.len(), 1, "one ping a period");
            let (to, body) = &pings[0];
            assert!(to.0 != 1 && body.kind == ProbeKind::Ping && body.relay.is_none());
            fd.run_up(ack(to.0, body.seq), &mut platform);
        }
        // A ping is answered, and absorbed: nothing goes up.
        let up = fd.run_up(probe(5, ProbeKind::Ping, 44, None, &[]), &mut platform);
        let reply = sent(&mut fd);
        assert!(up.is_empty());
        let (to, body) = (reply[0].0, &reply[0].1);
        assert_eq!(
            (reply.len(), to, body.kind, body.seq),
            (1, NodeId(5), ProbeKind::Ack, 44)
        );
        // A ping without rumours costs four bytes of body.
        assert_eq!(body.to_bytes().len(), 4);
    }

    #[test]
    fn a_silent_member_is_suspected_once_after_the_timeout_and_reprobed_first() {
        // Node 2 talks every period, so every ping goes to silent node 3.
        let (mut fd, mut platform) = detector(&[1, 2, 3], 250, 0);
        let mut targets = Vec::new();
        let suspected = run_periods(&mut fd, &mut platform, 1000, &[], |now, fd, platform| {
            fd.run_up(data_from(2), platform);
            targets.extend(fd.drain_down().iter().filter_map(|e| {
                let hb = e.get::<Heartbeat>()?;
                let body = hb.message.clone().pop::<ProbeBody>().ok()?;
                Some((now, hb.header.dest.clone(), body.kind, body.rumours))
            }));
        });
        // Pinged at 100, retried with 2 as the only helper at 150, suspected
        // from 100 on. No rumour backs the suspicion, and one other member
        // could: `Suspect` at the first tick twice 250 ms later.
        assert_eq!(suspected, vec![(600, NodeId(3))]);
        let at_150: Vec<_> = targets.iter().filter(|t| t.0 == 150).collect();
        assert_eq!(at_150.len(), 2, "a retry and one ping-req: {at_150:?}");
        // The next periods ping the suspect again; once that fails too, the
        // suspicion spreads, the suspect hearing of it first.
        let ping = |at| {
            targets
                .iter()
                .find(|t| t.0 == at)
                .map(|t| (t.1.clone(), t.3.clone()))
        };
        let to_3 = Dest::Node(NodeId(3));
        assert_eq!(ping(200), Some((to_3.clone(), vec![])));
        assert_eq!(
            ping(300),
            Some((to_3, vec![rumour(RumourKind::Suspect, 3, 0)]))
        );
    }

    #[test]
    fn an_unanswered_ping_asks_fanout_helpers_whose_relayed_ack_counts() {
        let (mut fd, mut platform) = detector(&[1, 2, 3, 4, 5, 6], 250, 0);
        run_to(&mut fd, &mut platform, 100);
        let (target, ping) = sent(&mut fd).remove(0);
        run_to(&mut fd, &mut platform, 150);
        let retry = sent(&mut fd);
        let helpers: Vec<NodeId> = retry.iter().skip(1).map(|(to, _)| *to).collect();
        assert_eq!(retry[0].0, target, "the direct ping is retried");
        assert_eq!(helpers.len(), 3);
        for (to, body) in &retry[1..] {
            assert!(*to != target && to.0 != 1);
            let asked = (body.kind, body.seq, body.relay);
            assert_eq!(asked, (ProbeKind::PingReq, ping.seq, Some(target)));
        }
        fd.run_up(ack(helpers[0].0, ping.seq), &mut platform);
        run_to(&mut fd, &mut platform, 200);
        let next = sent(&mut fd);
        assert!(next[0].1.rumours.is_empty(), "no suspicion: {next:?}");
    }

    #[test]
    fn a_helper_pings_for_the_prober_and_passes_the_ack_on() {
        let (mut fd, mut platform) = detector(&[1, 2, 3], 1000, 0);
        fd.run_up(probe(2, ProbeKind::PingReq, 7, Some(3), &[]), &mut platform);
        let summary = |sent: Vec<(NodeId, ProbeBody)>| -> Vec<_> {
            sent.into_iter()
                .map(|(to, b)| (to.0, b.kind, b.seq, b.relay))
                .collect()
        };
        let relayed = summary(sent(&mut fd));
        assert_eq!(relayed, vec![(3, ProbeKind::Ping, 7, Some(NodeId(2)))]);
        fd.run_up(probe(3, ProbeKind::Ack, 7, Some(2), &[]), &mut platform);
        assert_eq!(summary(sent(&mut fd)), vec![(2, ProbeKind::Ack, 7, None)]);
        // Nor a relayed ping for an outsider.
        fd.run_up(probe(2, ProbeKind::PingReq, 8, Some(9), &[]), &mut platform);
        assert!(sent(&mut fd).is_empty());
    }

    #[test]
    fn a_node_refutes_its_suspicion_with_an_incarnation_above_its_restart_floor() {
        // Created at 5 s: the incarnation starts at 5000 / 100.
        let (mut fd, mut platform) = detector(&[1, 2, 3], 1000, 5000);
        fd.run_up(probe(2, ProbeKind::Ping, 1, None, &[]), &mut platform);
        assert_eq!(sent(&mut fd)[0].1.incarnation, 50);
        let suspicion = [rumour(RumourKind::Suspect, 1, 50)];
        fd.run_up(
            probe(2, ProbeKind::Ping, 2, None, &suspicion),
            &mut platform,
        );
        let ack = &sent(&mut fd)[0].1;
        assert_eq!(ack.incarnation, 51);
        assert_eq!(ack.rumours, vec![rumour(RumourKind::Alive, 1, 51)]);
    }

    #[test]
    fn rumours_raise_and_heal_suspicions() {
        let (mut fd, mut platform) = detector(&[1, 2, 3, 4], 1000, 0);
        // Past the first period, whose grace counts as word from everyone.
        run_periods(&mut fd, &mut platform, 450, &[2, 3, 4], |_, _, _| {});
        run_to(&mut fd, &mut platform, 500);
        let (pinged, ping) = sent(&mut fd).remove(0);
        fd.run_up(ack(pinged.0, ping.seq), &mut platform);
        let talk = |fd: &mut Harness, platform: &mut TestPlatform, rumours: &[Rumour]| {
            raised(&fd.run_up(probe(2, ProbeKind::Ack, 0, None, rumours), platform))
        };
        // A confirm raises `Suspect` at once; a stale one does nothing.
        let (confirm, alive) = (
            rumour(RumourKind::Confirm, 3, 4),
            rumour(RumourKind::Alive, 3, 5),
        );
        let (none, three) = (vec![], vec![NodeId(3)]);
        assert_eq!(
            talk(&mut fd, &mut platform, &[confirm]),
            (three.clone(), none.clone())
        );
        assert_eq!(
            talk(&mut fd, &mut platform, &[alive]),
            (none.clone(), three)
        );
        assert_eq!(
            talk(&mut fd, &mut platform, &[confirm]),
            (none.clone(), none)
        );
        // A suspect rumour starts this node's own suspicion — unless the
        // member was heard from within the period.
        let other = if pinged == NodeId(4) { 3 } else { 4 };
        for node in [pinged.0, other] {
            talk(
                &mut fd,
                &mut platform,
                &[rumour(RumourKind::Suspect, node, 5)],
            );
        }
        let suspected = run_periods(&mut fd, &mut platform, 1500, &[], |_, fd, platform| {
            fd.run_up(data_from(2), platform);
            fd.run_up(data_from(pinged.0), platform);
        });
        assert_eq!(suspected, vec![(1500, NodeId(other))]);
    }

    #[test]
    fn data_traffic_also_counts_as_liveness() {
        // Data from node 2, a join request from node 3: both forwarded.
        let (mut fd, mut platform) = detector(&[1, 2, 3], 250, 0);
        let suspected = run_periods(&mut fd, &mut platform, 2000, &[], |_, fd, platform| {
            assert_eq!(fd.run_up(data_from(2), platform).len(), 1, "forwarded");
            let join = JoinRequest::new(NodeId(3), Dest::Node(NodeId(1)), Message::new());
            assert_eq!(fd.run_up(Event::up(join), platform).len(), 1, "forwarded");
        });
        assert!(suspected.is_empty());
    }

    #[test]
    fn a_non_member_gets_no_answer_and_no_row() {
        let (mut fd, mut platform) = detector(&[1, 2], 250, 0);
        let suspected = run_periods(&mut fd, &mut platform, 400, &[], |_, fd, platform| {
            fd.run_up(probe(9, ProbeKind::Ping, 1, None, &[]), platform);
            fd.run_up(data_from(8), platform);
        });
        // The outsiders' packets are no word from the group.
        assert_eq!(suspected, vec![(250, NodeId(2))]);
        assert!(fd.drain_down().is_empty());
        let view = View::new(1, vec![NodeId(1), NodeId(2), NodeId(9)]);
        fd.run_down(Event::down(ViewInstall { view }), &mut platform);
        fd.run_up(probe(9, ProbeKind::Ping, 2, None, &[]), &mut platform);
        assert_eq!(sent(&mut fd)[0].0, NodeId(9), "a member now");
    }

    #[test]
    fn a_node_that_hears_from_nobody_suspects_every_member_at_once() {
        let (mut fd, mut platform) = detector(&[1, 2, 3, 4, 5], 300, 0);
        let suspected = run_periods(&mut fd, &mut platform, 1000, &[], |_, _, _| {});
        let every: Vec<_> = (2..=5).map(|id| (300, NodeId(id))).collect();
        assert_eq!(suspected, every);
    }

    #[test]
    fn a_readmitted_member_gets_a_fresh_grace_period() {
        let (mut fd, mut platform) = detector(&[1, 2], 300, 0);
        let solo = View::new(1, vec![NodeId(1)]);
        fd.run_down(Event::down(ViewInstall { view: solo }), &mut platform);
        run_to(&mut fd, &mut platform, 5000);
        let rejoined = View::new(2, vec![NodeId(1), NodeId(2)]);
        fd.run_down(Event::down(ViewInstall { view: rejoined }), &mut platform);
        // Not suspected before the timeout, but silence past it still is.
        let suspected = run_periods(&mut fd, &mut platform, 6000, &[], |_, _, _| {});
        assert_eq!(suspected, vec![(5300, NodeId(2))]);
    }

    #[test]
    fn view_install_clears_suspicions_of_removed_members() {
        let (mut fd, mut platform) = detector(&[1, 2, 3], 150, 0);
        let suspected = run_periods(&mut fd, &mut platform, 200, &[], |_, _, _| {});
        assert_eq!(suspected.len(), 2);
        let view = View::new(1, vec![NodeId(1), NodeId(2)]);
        fd.run_down(Event::down(ViewInstall { view }), &mut platform);
        let late = run_periods(&mut fd, &mut platform, 1000, &[2], |_, _, _| {});
        assert!(late.is_empty(), "{late:?}");
        // Node 3's suspicion went with its row: no rumour names it.
        let rumours: Vec<Rumour> = sent(&mut fd)
            .into_iter()
            .flat_map(|(_, b)| b.rumours)
            .collect();
        assert!(rumours.iter().all(|r| r.node != NodeId(3)));
    }

    #[test]
    fn a_malformed_probe_is_ignored_but_proves_its_sender_alive() {
        let (mut fd, mut platform) = detector(&[1, 2, 3], 250, 0);
        let encoded = ProbeBody::default().to_bytes();
        let mut round = 0;
        let suspected = run_periods(&mut fd, &mut platform, 1000, &[], |_, fd, platform| {
            round += 1;
            let header = match round % 3 {
                0 => encoded.slice(..encoded.len() - 1).to_vec(),
                1 => [&encoded[..], &[0]].concat(),
                _ => Vec::new(),
            };
            let mut message = Message::new();
            if !header.is_empty() {
                message.push_header(header);
            }
            let hb = Heartbeat::new(NodeId(2), Dest::Node(NodeId(1)), message);
            fd.drain_down();
            fd.run_up(Event::up(hb), platform);
            assert!(fd.drain_down().is_empty(), "nothing is answered");
        });
        // Suspected from 100 on, with no rumour backing it: twice 250 ms.
        assert_eq!(suspected, vec![(600, NodeId(3))]);
    }

    #[test]
    fn probes_failing_while_nobody_is_heard_stretch_the_suspicion_timeout() {
        // Node 2 talks every period (by data, so it is never pinged): node
        // 3's suspicion, which no rumour backs, runs twice its 500 ms.
        // Talking every third period, node 1's own silent periods count
        // against it, up to a fourfold timeout.
        let mut at = Vec::new();
        for every in [1, 3] {
            let (mut fd, mut platform) = detector(&[1, 2, 3], 500, 0);
            let mut period = 0;
            let suspected = run_periods(&mut fd, &mut platform, 3000, &[], |_, fd, platform| {
                period += 1;
                if period % (2 * every) == 1 {
                    fd.run_up(data_from(2), platform);
                }
            });
            at.push(suspected);
        }
        assert_eq!(at[0], vec![(1100, NodeId(3))]);
        assert_eq!(at[1].len(), 1);
        assert!(at[1][0].0 >= 1600, "{:?}", at[1]);
    }

    /// Node 1 over `members` (a 250 ms timeout) while node 2 talks every
    /// period, node 3 stays silent and every other member answers its
    /// pings. With `backed`, node 2 rumours node 3's suspicion when node 1
    /// first pings node 3. Returns when that was, and the `Suspect`s raised.
    fn silent_member_three(members: &[u32], backed: bool) -> (u64, Vec<(u64, NodeId)>) {
        let (mut fd, mut platform) = detector(members, 250, 0);
        let mut first = None;
        let suspected = run_periods(&mut fd, &mut platform, 3000, &[], |now, fd, platform| {
            fd.run_up(data_from(2), platform);
            for (to, body) in sent(fd) {
                if to == NodeId(3) && first.is_none() {
                    first = Some(now);
                    let said = [rumour(RumourKind::Suspect, 3, 0)];
                    if backed {
                        fd.run_up(probe(2, ProbeKind::Ack, 0, None, &said), platform);
                    }
                } else if to != NodeId(3) && body.kind == ProbeKind::Ping {
                    fd.run_up(ack(to.0, body.seq), platform);
                }
            }
        });
        (first.expect("node 3 is pinged"), suspected)
    }

    #[test]
    fn a_suspicion_no_rumour_backs_waits_as_many_timeouts_as_could_back_it() {
        // One other member could back it in a group of three: twice the
        // timeout. Four could in a group of six: `1 + HEALTH_CAP` times.
        let (at, suspected) = silent_member_three(&[1, 2, 3], false);
        assert_eq!(suspected, vec![(at + 500, NodeId(3))]);
        let six = [1, 2, 3, 4, 5, 6];
        let (at, suspected) = silent_member_three(&six, false);
        assert_eq!(suspected, vec![(at + 1000, NodeId(3))]);
        // Another member's rumour backs it: the timeout itself.
        let (at, suspected) = silent_member_three(&six, true);
        assert_eq!(suspected, vec![(at + 250, NodeId(3))]);
    }

    #[test]
    fn a_suspect_rumour_is_checked_with_the_suspect_itself() {
        let (mut fd, mut platform) = detector(&[1, 2, 3, 4], 1000, 0);
        run_periods(&mut fd, &mut platform, 450, &[2, 3, 4], |_, _, _| {});
        run_to(&mut fd, &mut platform, 500);
        let (pinged, ping) = sent(&mut fd).remove(0);
        fd.run_up(ack(pinged.0, ping.seq), &mut platform);
        // A member not heard from within the period is rumoured suspect.
        let other = if pinged == NodeId(4) { 3 } else { 4 };
        let said = rumour(RumourKind::Suspect, other, 0);
        fd.run_up(probe(2, ProbeKind::Ack, 0, None, &[said]), &mut platform);
        run_to(&mut fd, &mut platform, 600);
        let (to, body) = sent(&mut fd).remove(0);
        assert_eq!(to, NodeId(other), "the next period pings the suspect");
        assert_eq!(body.rumours.first(), Some(&said), "with the rumour first");
        // Its ack ends the suspicion here.
        fd.run_up(ack(other, body.seq), &mut platform);
        let suspected = run_periods(&mut fd, &mut platform, 2500, &[2, 3, 4], |_, _, _| {});
        assert!(suspected.is_empty(), "{suspected:?}");
    }

    #[test]
    fn a_node_heard_again_after_two_silent_periods_takes_a_new_incarnation() {
        let (mut fd, mut platform) = detector(&[1, 2, 3], 1000, 0);
        run_to(&mut fd, &mut platform, 300);
        sent(&mut fd);
        // Word from node 2 after three periods of silence.
        fd.run_up(data_from(2), &mut platform);
        run_to(&mut fd, &mut platform, 400);
        let (_, body) = sent(&mut fd).remove(0);
        assert_eq!(body.incarnation, 3, "the period it came back in");
        assert!(body.rumours.contains(&rumour(RumourKind::Alive, 1, 3)));
    }

    #[test]
    fn a_stale_suspicion_is_answered_with_the_incarnation_that_refuted_it() {
        let (mut fd, mut platform) = detector(&[1, 2, 3], 1000, 0);
        let refuted = rumour(RumourKind::Alive, 3, 2);
        fd.run_up(probe(2, ProbeKind::Ack, 0, None, &[refuted]), &mut platform);
        // Spend the refutation's sends, and one more ping to see it spent.
        for seq in 1..=5 {
            fd.run_up(probe(2, ProbeKind::Ping, seq, None, &[]), &mut platform);
        }
        let acks = sent(&mut fd);
        assert!(acks[3].1.rumours == [refuted] && acks[4].1.rumours.is_empty());
        // Node 2 still spreads the suspicion node 3 refuted.
        let stale = rumour(RumourKind::Suspect, 3, 0);
        fd.run_up(probe(2, ProbeKind::Ping, 6, None, &[stale]), &mut platform);
        let (to, ack) = sent(&mut fd).remove(0);
        assert_eq!(
            (to, ack.kind, ack.rumours),
            (NodeId(2), ProbeKind::Ack, vec![refuted])
        );
        let suspected = run_periods(&mut fd, &mut platform, 3000, &[2, 3], |_, _, _| {});
        assert!(suspected.is_empty(), "{suspected:?}");
    }
}
