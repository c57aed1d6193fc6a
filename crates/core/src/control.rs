//! The Core control layer: coordinator-driven adaptation.
//!
//! The layer sits on the control channel, above the Cocaditem dissemination
//! layer and a control-plane failure detector. It keeps no context of its
//! own: it is handed the node's context store (which Cocaditem writes) and
//! the node's stack catalogue at registration, and reads both in place.
//! Cocaditem's [`ContextUpdated`] events tell it *when* the context changed
//! and carry the one thing the store lacks, the local node's latest sample.
//! On each, the coordinator (lowest *live* member id, the deterministic
//! election the paper describes) evaluates the adaptation policy over the
//! store restricted to the live members. When the policy prefers a different
//! stack configuration the coordinator:
//!
//! 1. opens a new **reconfiguration epoch** and names the chosen
//!    [`StackKind`] to every participant in an epoch-stamped
//!    [`ReconfigCommand`] (and asks its own local module to deploy it). Each
//!    node renders the named stack from its own [`StackCatalog`], the one its
//!    boot stack came from, so no channel description crosses the wire;
//! 2. retransmits the command to members that have not acknowledged, every
//!    `retransmit_interval_ms`, until the round either completes or hits
//!    `round_timeout_ms` (at which point it is aborted and the policy may
//!    re-fire with a fresh epoch);
//! 3. collects epoch-stamped [`ReconfigAck`]s — sent by the local module only
//!    *after* the deployment succeeded — and, once every live member has
//!    redeployed, reports the reconfiguration latency to the application.
//!
//! Epochs are monotonic per group: members reject commands whose epoch is not
//! newer than the last one they accepted (so reordered or replayed commands
//! cannot roll the stack back), and the coordinator rejects acknowledgements
//! whose epoch does not match the round in flight (so an ack replayed from a
//! previous round to the same stack cannot complete a newer round early).
//! The ballot ordering, ack bookkeeping and retransmit/timeout clock are the
//! shared [`morpheus_groupcomm::round`] engine; this layer keeps only the
//! reconfiguration payloads and wire formats.
//!
//! Failures are tolerated through the control-channel failure detector: a
//! [`Suspect`]ed member is excluded from the ack quorum (the round can finish
//! without it) and from the policy's view of the context (its snapshot stays
//! in the store), and a suspected *coordinator* triggers deterministic
//! re-election — the next-lowest live id takes over and, because the policy
//! is a pure function of the replicated context, resumes or re-initiates the
//! in-flight adaptation under a fresh epoch. An [`Alive`] notification (a
//! false suspicion healed) re-admits the member to the quorum and, with its
//! stored snapshot, to the next evaluation.
//!
//! The actual deployment — blocking the data channel, replacing the stack,
//! resuming the flow — is performed by the local module
//! ([`crate::node::MorpheusNode`]), because a session cannot mutate the
//! kernel that is executing it; the layer only raises a
//! [`morpheus_appia::platform::ReconfigRequest`] through the platform.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::{DeliveryKind, NodeId, ReconfigRequest};
use morpheus_appia::sendable_event;
use morpheus_appia::session::Session;
use morpheus_appia::Kernel;
use morpheus_cocaditem::dissemination::ContextUpdated;
use morpheus_cocaditem::{ContextSnapshot, ContextStore};
use morpheus_groupcomm::events::{Alive, Suspect, ViewInstall};
use morpheus_groupcomm::round::{Ballot, Engine as RoundEngine, Tick};

use crate::policy::{AdaptationPolicy, GlobalContext, StackKind};
use crate::rules::DefaultPolicy;
use crate::stack_catalog::StackCatalog;

/// Registered name of the Core control layer.
pub const CORE_LAYER: &str = "core";

/// Timer tag for the coordinator's retransmit/round-timeout timer.
const ROUND_TAG: u32 = 1;

sendable_event! {
    /// Coordinator → members: deploy the named stack configuration
    /// (message headers, top-first: the stack name, then the
    /// reconfiguration epoch).
    pub struct ReconfigCommand, class: Control
}

sendable_event! {
    /// Member → coordinator: the carried stack configuration is deployed
    /// (message headers, top-first: the stack name, then the epoch).
    pub struct ReconfigAck, class: Control
}

/// Registers the Core control layer and its event types with a kernel. The
/// layer reads the node's context store — the one Cocaditem writes — and
/// renders the stacks it commands from the node's stack catalogue.
pub fn register_core(
    kernel: &mut Kernel,
    store: Rc<RefCell<ContextStore>>,
    catalog: Rc<StackCatalog>,
) {
    kernel.layers_mut().register(CoreLayer::new(store, catalog));
    ReconfigCommand::register(kernel.events_mut());
    ReconfigAck::register(kernel.events_mut());
}

/// The Core control layer.
///
/// Parameters:
///
/// * `members` — comma-separated control-group membership;
/// * `adaptive` — when `false` the layer only observes and never reconfigures
///   (the paper's non-adapted baseline);
/// * `initial_stack` — name of the stack deployed at start-up
///   (default `best-effort`).
///
/// Everything else comes from what the layer is handed: the data channel it
/// adapts, the stacks it commands and the cadence of its rounds (the
/// catalogue's view-change retransmit interval and round timeout) from the
/// catalogue; the context from the store. The adaptation policy is
/// [`DefaultPolicy`] at its default thresholds.
pub struct CoreLayer {
    store: Rc<RefCell<ContextStore>>,
    catalog: Rc<StackCatalog>,
}

impl CoreLayer {
    /// A layer whose sessions read the given context store and render from
    /// the given catalogue.
    pub fn new(store: Rc<RefCell<ContextStore>>, catalog: Rc<StackCatalog>) -> Self {
        Self { store, catalog }
    }
}

impl Layer for CoreLayer {
    fn name(&self) -> &str {
        CORE_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<ContextUpdated>(),
            EventSpec::of::<ReconfigCommand>(),
            EventSpec::of::<ReconfigAck>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
            EventSpec::of::<Suspect>(),
            EventSpec::of::<Alive>(),
            EventSpec::of::<ViewInstall>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["ReconfigCommand", "ReconfigAck"]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let (retransmit, round_timeout) = self.catalog.view_change_timing();
        let initial_stack = params
            .get("initial_stack")
            .and_then(|name| StackKind::from_name(name))
            .unwrap_or(StackKind::BestEffort);
        Box::new(CoreSession {
            members: param_node_list(params, "members"),
            adaptive: param_or(params, "adaptive", true),
            policy: DefaultPolicy::default(),
            catalog: Rc::clone(&self.catalog),
            store: Rc::clone(&self.store),
            local_sample: None,
            current_stack: initial_stack,
            deployed_stack: initial_stack,
            // The engine starts at `Ballot::ZERO`: holder 0 makes every
            // epoch-0 ballot lose the tie-break, so epoch 0 is never a valid
            // round.
            engine: RoundEngine::new(),
            pending: None,
            suspected: BTreeSet::new(),
            accepted: None,
            installed: None,
            confirmed: BTreeSet::new(),
            round_timer: None,
            retransmit_interval_ms: retransmit.max(10),
            round_timeout_ms: round_timeout.max(100),
        })
    }
}

/// A stack configuration this node deployed (member side) or saw the group
/// commit (coordinator side), kept so late joiners and healed members can be
/// repaired onto it.
#[derive(Debug, Clone, Copy)]
struct InstalledStack {
    epoch: u64,
    kind: StackKind,
}

impl InstalledStack {
    fn matches(&self, epoch: u64, kind: StackKind) -> bool {
        self.epoch == epoch && self.kind == kind
    }
}

/// Session state of the Core control layer.
#[derive(Debug)]
pub struct CoreSession {
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    adaptive: bool,
    policy: DefaultPolicy,
    /// The node's stack catalogue (its data channel and the stacks it renders).
    catalog: Rc<StackCatalog>,
    /// The node's context store, written by Cocaditem and read here in place.
    store: Rc<RefCell<ContextStore>>,
    /// The local node's latest sample, carried by the last local
    /// [`ContextUpdated`]: the store only holds its *published* versions.
    local_sample: Option<ContextSnapshot>,
    /// The stack the group has agreed on. On the coordinator this is only
    /// committed when a round *completes* (never optimistically), so an
    /// aborted round leaves the policy free to re-fire.
    current_stack: StackKind,
    /// The stack the local data channel last deployed (its deployment's ack
    /// came back down through this layer). It runs ahead of
    /// `current_stack` on a coordinator whose round for it was aborted.
    deployed_stack: StackKind,
    /// The shared round engine: ballot monotonicity (the highest epoch this
    /// node initiated or accepted, with the holding coordinator as the
    /// tie-break), the in-flight round's ack set, and the retransmit/timeout
    /// clock.
    engine: RoundEngine<NodeId>,
    /// The stack the in-flight round proposes, kept in lockstep with the
    /// engine's round on the coordinator (which holds its ballot, ack set,
    /// start time and retransmit count).
    pending: Option<StackKind>,
    // bound: fed by the control-plane failure detector -- only current members appear.
    suspected: BTreeSet<NodeId>,
    /// The configuration accepted from the most recent command, kept until
    /// the local module confirms the deployment (its ack passing back down
    /// through this layer promotes it to [`CoreSession::installed`]).
    accepted: Option<InstalledStack>,
    /// The configuration this node last deployed (member) or saw the group
    /// commit (coordinator). Duplicate commands for it are re-acked without
    /// redeploying, and the coordinator repairs members that are known to
    /// miss it (see [`CoreSession::repair_behind`]).
    installed: Option<InstalledStack>,
    /// Coordinator bookkeeping: members known to run [`CoreSession::installed`]
    /// (they acknowledged its epoch). Live members outside this set are
    /// re-sent the installed configuration whenever the policy is otherwise
    /// satisfied — so a member whose command was lost while it was (even
    /// falsely) suspected still converges after the quorum moved on.
    // bound: <= view size; rebuilt from the completed round's acks on commit.
    confirmed: BTreeSet<NodeId>,
    round_timer: Option<u64>,
    retransmit_interval_ms: u64,
    round_timeout_ms: u64,
}

impl CoreSession {
    /// Members not currently suspected by the control-plane failure detector.
    fn live_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members
            .iter()
            .copied()
            .filter(|member| !self.suspected.contains(member))
    }

    /// The current coordinator: the lowest live member id.
    fn coordinator(&self) -> Option<NodeId> {
        self.live_members().min()
    }

    fn arm_round_timer(&mut self, ctx: &mut EventContext<'_>) {
        self.round_timer = Some(ctx.set_timer(self.retransmit_interval_ms, ROUND_TAG));
    }

    fn cancel_round_timer(&mut self, ctx: &mut EventContext<'_>) {
        if let Some(timer_id) = self.round_timer.take() {
            ctx.cancel_timer(timer_id);
        }
    }

    /// Dispatches a [`ReconfigCommand`] naming the given configuration —
    /// the single place the command's wire layout (stack name, epoch) is
    /// produced, shared by round initiation, retransmission and repair.
    fn dispatch_command(
        epoch: u64,
        kind: StackKind,
        targets: Vec<NodeId>,
        ctx: &mut EventContext<'_>,
    ) {
        if targets.is_empty() {
            return;
        }
        let mut message = Message::new();
        message.push(&epoch);
        message.push(&kind.name());
        ctx.dispatch(Event::down(ReconfigCommand::new(
            ctx.node_id(),
            Dest::Nodes(targets),
            message,
        )));
    }

    /// Dispatches a [`ReconfigAck`] for a configuration this node already
    /// runs, straight from the control layer (a fresh deployment is
    /// acknowledged by the local module instead, after it succeeded).
    fn dispatch_ack(epoch: u64, kind: StackKind, coordinator: NodeId, ctx: &mut EventContext<'_>) {
        let mut message = Message::new();
        message.push(&epoch);
        message.push(&kind.name());
        ctx.dispatch(Event::down(ReconfigAck::new(
            ctx.node_id(),
            Dest::Node(coordinator),
            message,
        )));
    }

    fn send_command(&self, targets: Vec<NodeId>, ctx: &mut EventContext<'_>) {
        let (Some(pending), Some(round)) = (self.pending, self.engine.round()) else {
            return;
        };
        Self::dispatch_command(round.ballot.epoch, pending, targets, ctx);
    }

    /// Asks the local module to deploy `kind`, rendered from the node's
    /// catalogue, and to acknowledge it to `coordinator` under `epoch`.
    fn deploy(&self, kind: StackKind, epoch: u64, coordinator: NodeId, ctx: &mut EventContext<'_>) {
        ctx.request_reconfiguration(ReconfigRequest {
            channel: self.catalog.channel().to_string(),
            stack_name: kind.name(),
            config: self.catalog.config_for(&kind),
            epoch,
            coordinator,
        });
    }

    fn evaluate(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        if !self.adaptive || self.coordinator() != Some(local) || self.pending.is_some() {
            return;
        }
        // The policy sees only the live membership and its context: a crashed
        // relay candidate must not be selected again.
        let live: Vec<NodeId> = self.live_members().collect();
        let decision = self.policy.evaluate(&GlobalContext {
            local,
            local_sample: self.local_sample.as_ref(),
            members: &live,
            store: &self.store.borrow(),
        });
        let Some(kind) = decision else {
            // No (or not enough) context for a fresh decision — but the
            // committed stack is always safe to re-send to members known to
            // be behind (e.g. one whose context has not reached this node
            // yet).
            self.repair_behind(ctx);
            return;
        };
        if kind == self.current_stack {
            // The group already agreed on this stack — but members whose
            // command was lost while they were suspected (or that this node,
            // as a failover coordinator, never heard an ack from) may still
            // run an older one. Repair them instead of declaring victory on
            // local state alone.
            self.repair_behind(ctx);
            return;
        }

        // Open a new epoch and initiate the round: name the stack to every
        // other participant (including suspected ones — a false suspicion
        // must not starve a member of the command) and ask the local module
        // to deploy it too. `current_stack` is *not* touched here; it is
        // committed when the round completes.
        // Every member must ack — the coordinator and suspected ones
        // included; completion excludes whoever is suspected *at completion
        // time* instead.
        let ballot = self
            .engine
            .open(local, self.members.iter().copied(), ctx.now_ms());
        self.pending = Some(kind);

        let others: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|member| *member != local)
            .collect();
        self.send_command(others, ctx);
        self.cancel_round_timer(ctx);
        self.arm_round_timer(ctx);
        if kind == self.deployed_stack {
            // The local data channel already runs it: a round for the same
            // stack timed out after this node deployed it. Count this node's
            // ack for the new ballot instead of replacing its stack with an
            // identical one, which would start from empty session state.
            self.record_ack(local, ballot.epoch, kind, ctx);
            return;
        }
        self.deploy(kind, ballot.epoch, local, ctx);
    }

    fn maybe_complete(&mut self, ctx: &mut EventContext<'_>) {
        if self.pending.is_none() || !self.engine.completed(&self.suspected) {
            return;
        }
        let round = self.engine.complete().expect("completed round in flight");
        let pending = self.pending.take().expect("pending checked above");
        let elapsed = ctx.now_ms().saturating_sub(round.started_at_ms);
        let (epoch, retransmits) = (round.ballot.epoch, round.retransmits);
        self.current_stack = pending;
        // Remember what the group committed and who is known to run it, so
        // members that were cut out of the quorum can be repaired later.
        self.installed = Some(InstalledStack {
            epoch,
            kind: pending,
        });
        self.confirmed = round.acked().iter().copied().collect();
        self.cancel_round_timer(ctx);
        ctx.deliver(DeliveryKind::ReconfigurationComplete {
            stack: pending.name(),
            epoch,
            latency_ms: elapsed,
            retransmits,
            nodes: self.live_members().count(),
        });
    }

    /// Re-sends the committed configuration to live members not known to run
    /// it. Fired whenever the policy is otherwise satisfied (context updates
    /// arrive periodically, so this retries until everyone is confirmed) and
    /// when a suspicion heals — it is what lets a member that missed the
    /// round while suspected, or a failover coordinator's silent peers,
    /// converge after the quorum already moved on.
    ///
    /// Each repair attempt is stamped with a *fresh* epoch (mirrored into
    /// `installed` so the returning acks match): a member whose epoch already
    /// advanced past the committed round — it deployed a later round that was
    /// aborted, or its deployment failed after accepting the command — would
    /// reject a replay of the committed epoch as stale, but accepts the
    /// re-assertion under a higher one.
    fn repair_behind(&mut self, ctx: &mut EventContext<'_>) {
        if self.pending.is_some() {
            return;
        }
        if self
            .installed
            .is_none_or(|installed| installed.kind != self.current_stack)
        {
            return;
        }
        let local = ctx.node_id();
        let behind: Vec<NodeId> = self
            .live_members()
            .filter(|member| *member != local && !self.confirmed.contains(member))
            .collect();
        if behind.is_empty() {
            return;
        }
        // A repair opens no round: just adopt the successor ballot, so the
        // re-asserted command outranks everything seen so far.
        self.engine
            .adopt(Ballot::new(self.engine.epoch() + 1, local));
        let installed = self.installed.as_mut().expect("installed checked above");
        installed.epoch = self.engine.epoch();
        Self::dispatch_command(installed.epoch, installed.kind, behind, ctx);
    }

    /// Gives up on the in-flight round. `current_stack` keeps its pre-round
    /// value, so the policy is free to re-fire (with a fresh epoch).
    fn abort_round(&mut self, ctx: &mut EventContext<'_>) {
        self.pending = None;
        self.engine.abort();
        self.cancel_round_timer(ctx);
    }

    fn on_round_timer(&mut self, timer_id: u64, ctx: &mut EventContext<'_>) {
        if self.round_timer != Some(timer_id) {
            return; // stale timer from a previous round
        }
        self.round_timer = None;
        if self.pending.is_none() {
            return;
        }
        match self.engine.tick(ctx.now_ms(), self.round_timeout_ms) {
            Tick::Idle => {}
            Tick::TimedOut => {
                // The round failed (e.g. the command kept getting lost, or a
                // member died without being suspected yet): abort and let the
                // policy re-fire immediately under a fresh epoch.
                let aborted = self.pending;
                self.abort_round(ctx);
                self.evaluate(ctx);
                if self.pending.is_none() {
                    // The policy did not re-fire (e.g. the context shifted
                    // back mid-round) — but this node itself already deployed
                    // the aborted configuration at initiation. Roll its own
                    // data channel back to the committed stack so the
                    // coordinator is not the one node silently running the
                    // abandoned one.
                    if let (Some(aborted), Some(installed)) = (aborted, self.installed) {
                        if installed.kind == self.current_stack && aborted != self.current_stack {
                            self.deploy(installed.kind, installed.epoch, ctx.node_id(), ctx);
                        }
                    }
                }
            }
            Tick::Retransmit(missing) => {
                // Retransmit to everyone still missing, suspected members
                // included (a falsely suspected member must still converge on
                // the new stack). The engine also lists the coordinator's own
                // unfinished deployment, which is not a wire target.
                let local = ctx.node_id();
                let targets: Vec<NodeId> = missing
                    .into_iter()
                    .filter(|member| *member != local)
                    .collect();
                if !targets.is_empty() {
                    self.send_command(targets, ctx);
                }
                self.arm_round_timer(ctx);
            }
        }
    }

    fn on_suspect(&mut self, node: NodeId, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        if node == local || !self.members.contains(&node) {
            return;
        }
        let was_coordinator = self.coordinator() == Some(node);
        self.suspected.insert(node);
        if self.pending.is_some() {
            // The ack quorum shrank; the round may be complete now.
            self.maybe_complete(ctx);
        }
        if was_coordinator && self.coordinator() == Some(local) && self.pending.is_none() {
            // Deterministic failover: this node is now the lowest live id.
            // The policy is a pure function of the replicated context, so
            // re-evaluating resumes (or re-initiates) the in-flight
            // adaptation under a fresh epoch.
            self.evaluate(ctx);
        }
    }

    fn on_command(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        let Some(command) = event.get_mut::<ReconfigCommand>() else {
            return;
        };
        let coordinator = command.header.source;
        let Ok(stack_name) = command.message.pop::<String>() else {
            return;
        };
        let Ok(epoch) = command.message.pop::<u64>() else {
            return;
        };
        // A name no catalogue renders is dropped like an undecodable command:
        // no ballot adopted, nothing deployed, no ack.
        let Some(kind) = StackKind::from_name(&stack_name) else {
            return;
        };

        if self.engine.adopt(Ballot::new(epoch, coordinator)) {
            // A winning ballot supersedes anything this node initiated
            // itself — including a concurrent round under the *same* epoch
            // number from a higher-id coordinator (split-brain after a false
            // suspicion): the lower coordinator id wins the tie-break.
            if self.pending.is_some() {
                self.abort_round(ctx);
            }
            // A re-assertion of the stack this node already runs (a repair
            // whose earlier ack was lost on the way back): follow the ballot
            // and acknowledge under the new epoch, but do not redeploy: the
            // kind is the whole stack. Replacing the data channel with an
            // identical one would hand the fresh stack empty per-session
            // state for nothing — a new gossip session re-pulls and
            // re-delivers what the old one had already delivered.
            if self.current_stack == kind {
                if let Some(installed) = self
                    .installed
                    .as_mut()
                    .filter(|installed| installed.kind == kind)
                {
                    installed.epoch = epoch;
                    Self::dispatch_ack(epoch, kind, coordinator, ctx);
                    return;
                }
            }
            self.accepted = Some(InstalledStack { epoch, kind });
            // Deploy; the local module acknowledges after the deployment
            // succeeded (never before).
            self.deploy(kind, epoch, coordinator, ctx);
        } else if self
            .installed
            .is_some_and(|installed| installed.matches(epoch, kind))
        {
            // A retransmission of the round we already deployed: our ack was
            // probably lost, so resend it without redeploying.
            Self::dispatch_ack(epoch, kind, coordinator, ctx);
        }
        // Otherwise: a stale or reordered command from an earlier epoch —
        // rejected, the stack is never rolled back by old commands.
    }

    fn record_ack(
        &mut self,
        source: NodeId,
        epoch: u64,
        kind: StackKind,
        ctx: &mut EventContext<'_>,
    ) {
        if self.engine.round_epoch() == Some(epoch) && self.pending == Some(kind) {
            self.engine.record_ack(epoch, source);
            self.maybe_complete(ctx);
        } else if self
            .installed
            .is_some_and(|installed| installed.matches(epoch, kind))
        {
            // A late (or repair-triggered) ack for the committed round: the
            // member is now known to run the installed stack.
            self.confirmed.insert(source);
        }
        // Acks from any other epoch are dropped: a replayed ack from a
        // previous round (even for the same stack name) cannot complete a
        // newer round.
    }
}

impl Session for CoreSession {
    fn layer_name(&self) -> &str {
        CORE_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            ctx.forward(event);
            return;
        }

        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == CORE_LAYER {
                if timer.tag == ROUND_TAG {
                    let timer_id = timer.timer_id;
                    self.on_round_timer(timer_id, ctx);
                }
                return;
            }
            ctx.forward(event);
            return;
        }

        if let Some(update) = event.get_mut::<ContextUpdated>() {
            if let Some(sample) = update.local_sample.take() {
                self.local_sample = Some(sample);
            }
            self.evaluate(ctx);
            return;
        }

        if let Some(suspect) = event.get::<Suspect>() {
            let node = suspect.node;
            self.on_suspect(node, ctx);
            return;
        }

        if let Some(install) = event.get::<ViewInstall>() {
            // An installed view *is* the membership: nodes the view removed
            // stop being considered for quorums, coordinator election and
            // the policy's context entirely (unlike a suspicion, which is
            // provisional and healable).
            self.members = install.view.members.clone();
            self.suspected.retain(|node| self.members.contains(node));
            self.confirmed.retain(|node| self.members.contains(node));
            // Refreeze the in-flight round's ack threshold over the new
            // membership: expelled members stop being awaited.
            self.engine.set_participants(self.members.iter().copied());
            // The quorum may just have shrunk to the already-collected acks
            // (same reason on_suspect re-checks): an expelled member must
            // not stall a round it was the last missing ack of.
            self.maybe_complete(ctx);
            ctx.forward(event);
            return;
        }

        if let Some(alive) = event.get::<Alive>() {
            // A false suspicion healed: the member rejoins the quorum (and
            // the coordinator election). If it missed a round while it was
            // suspected, repair it onto the committed stack right away.
            self.suspected.remove(&alive.node);
            if self.adaptive && self.coordinator() == Some(ctx.node_id()) {
                self.repair_behind(ctx);
            }
            return;
        }

        if event.is::<ReconfigCommand>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            self.on_command(event, ctx);
            return;
        }

        if event.is::<ReconfigAck>() {
            let local = ctx.node_id();
            if event.direction == Direction::Down {
                // An ack raised by the local module after a successful
                // deployment, on its way to the coordinator.
                let Some(ack) = event.get_mut::<ReconfigAck>() else {
                    return;
                };
                let dest = ack.header.dest.clone();
                let Ok(stack_name) = ack.message.pop::<String>() else {
                    return;
                };
                let Ok(epoch) = ack.message.pop::<u64>() else {
                    return;
                };
                let Some(kind) = StackKind::from_name(&stack_name) else {
                    return;
                };
                self.deployed_stack = kind;
                if dest == Dest::Node(local) {
                    // This node is the coordinator of the round: its own
                    // deployment just finished — count it instead of sending
                    // it to itself. `installed` is deliberately *not* touched
                    // here: the coordinator's repair record only moves to the
                    // new configuration when the group commits it
                    // (`maybe_complete`), so an aborted round cannot destroy
                    // the record of the stack the group still agrees on.
                    self.record_ack(local, epoch, kind, ctx);
                } else {
                    // Member: the deployment it accepted earlier is what
                    // commits the new stack locally; it becomes the base
                    // configuration for duplicate re-acks and repairs.
                    if self
                        .accepted
                        .is_some_and(|accepted| accepted.matches(epoch, kind))
                    {
                        self.installed = self.accepted.take();
                        self.confirmed = BTreeSet::from([local]);
                    }
                    self.current_stack = kind;
                    ack.message.push(&epoch);
                    ack.message.push(&stack_name);
                    ctx.forward(event);
                }
                return;
            }
            let Some(ack) = event.get_mut::<ReconfigAck>() else {
                return;
            };
            let source = ack.header.source;
            let Ok(stack_name) = ack.message.pop::<String>() else {
                return;
            };
            let Ok(epoch) = ack.message.pop::<u64>() else {
                return;
            };
            if let Some(kind) = StackKind::from_name(&stack_name) {
                self.record_ack(source, epoch, kind, ctx);
            }
            return;
        }

        ctx.forward(event);
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::{NodeProfile, Platform, TestPlatform};
    use morpheus_appia::testing::Harness;
    use morpheus_cocaditem::{ContextKey, ContextValue};

    use super::*;
    use crate::node::NodeOptions;

    /// The local node's view of the context, fed the way Cocaditem feeds it
    /// at run time: the local node's context arrives as a sample in the
    /// event, a peer's is written into the store and merely signalled.
    struct ContextFeed {
        local: NodeId,
        store: Rc<RefCell<ContextStore>>,
    }

    impl ContextFeed {
        fn update(&self, node: u32, mobile: bool) -> Event {
            let profile = if mobile {
                NodeProfile::mobile_pda(NodeId(node))
            } else {
                NodeProfile::fixed_pc(NodeId(node))
            };
            let snapshot = ContextSnapshot::from_profile(&profile, 1);
            if snapshot.node == self.local {
                return Event::up(ContextUpdated {
                    local_sample: Some(snapshot),
                });
            }
            self.store.borrow_mut().update(snapshot);
            Event::up(ContextUpdated { local_sample: None })
        }
    }

    /// A Core layer on `platform`'s node over the given control group, with
    /// a fresh store and a catalogue for the `data` channel at its default
    /// timing (500 ms retransmit, 4000 ms round timeout).
    fn core_layer(
        members: &[u32],
        adaptive: bool,
        platform: &mut TestPlatform,
    ) -> (Harness, ContextFeed) {
        let group: Vec<NodeId> = members.iter().copied().map(NodeId).collect();
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params.insert("adaptive".into(), adaptive.to_string());
        let feed = ContextFeed {
            local: platform.node_id(),
            store: Rc::default(),
        };
        let layer = CoreLayer::new(
            Rc::clone(&feed.store),
            Rc::new(StackCatalog::new(&NodeOptions::new(group))),
        );
        (Harness::new(layer, &params, platform), feed)
    }

    /// A command's or an ack's message: they share one layout.
    fn stack_message(epoch: u64, stack: &str) -> Message {
        let mut message = Message::new();
        message.push(&epoch);
        message.push(&stack.to_string());
        message
    }

    /// Simulates the local module's post-deployment ack: a `ReconfigAck`
    /// travelling down the control channel towards the coordinator.
    fn deployment_ack(local: u32, coordinator: u32, epoch: u64, stack: &str) -> Event {
        Event::down(ReconfigAck::new(
            NodeId(local),
            Dest::Node(NodeId(coordinator)),
            stack_message(epoch, stack),
        ))
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

    fn completion_reports(platform: &mut TestPlatform) -> Vec<(String, u64, u64)> {
        platform
            .take_deliveries()
            .into_iter()
            .filter_map(|delivery| match delivery.kind {
                DeliveryKind::ReconfigurationComplete {
                    stack,
                    epoch,
                    latency_ms,
                    ..
                } => Some((stack, epoch, latency_ms)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn coordinator_initiates_reconfiguration_when_the_group_becomes_hybrid() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);

        // Context arrives for every member: node 0 fixed, nodes 1-2 mobile.
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        assert!(
            platform.reconfig_requests.is_empty(),
            "no decision before full context"
        );
        core.run_up(context.update(2, true), &mut platform);

        assert_eq!(platform.reconfig_requests.len(), 1);
        let request = &platform.reconfig_requests[0];
        assert_eq!(request.channel, "data");
        assert_eq!(request.stack_name, "hybrid-mecho-relay0");
        assert_eq!(request.epoch, 1, "first round opens epoch 1");
        assert_eq!(request.coordinator, NodeId(0));
        assert!(request.config.has_layer("mecho"));

        let down = core.drain_down();
        let commands: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ReconfigCommand>())
            .collect();
        assert_eq!(commands.len(), 1);
        assert_eq!(
            commands[0].get::<ReconfigCommand>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn non_adaptive_nodes_never_reconfigure() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], false, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        assert!(platform.reconfig_requests.is_empty());
        assert!(core
            .drain_down()
            .iter()
            .all(|event| !event.is::<ReconfigCommand>()));
    }

    #[test]
    fn non_coordinator_nodes_only_observe() {
        let mut platform = TestPlatform::new(NodeId(2));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        assert!(platform.reconfig_requests.is_empty());
    }

    #[test]
    fn members_deploy_on_command_and_ack_only_after_deployment() {
        let mut platform = TestPlatform::new(NodeId(1));
        let (mut core, _context) = core_layer(&[0, 1], true, &mut platform);

        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                stack_message(3, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );

        assert_eq!(platform.reconfig_requests.len(), 1);
        assert_eq!(
            platform.reconfig_requests[0].stack_name,
            "hybrid-mecho-relay0"
        );
        assert_eq!(platform.reconfig_requests[0].epoch, 3);
        assert_eq!(platform.reconfig_requests[0].coordinator, NodeId(0));
        // No ack yet: the local module acknowledges after deployment.
        assert!(core
            .drain_down()
            .iter()
            .all(|event| !event.is::<ReconfigAck>()));

        // The local module finished deploying: its ack is forwarded towards
        // the coordinator with the epoch intact.
        let down = core.run_down(
            deployment_ack(1, 0, 3, "hybrid-mecho-relay0"),
            &mut platform,
        );
        let acks: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ReconfigAck>())
            .collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(
            acks[0].get::<ReconfigAck>().unwrap().header.dest,
            Dest::Node(NodeId(0))
        );
    }

    #[test]
    fn stale_or_reordered_commands_are_rejected() {
        let mut platform = TestPlatform::new(NodeId(1));
        let (mut core, _context) = core_layer(&[0, 1], true, &mut platform);

        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                stack_message(5, "reliable"),
            )),
            &mut platform,
        );
        assert_eq!(platform.reconfig_requests.len(), 1);

        // A reordered command from an earlier epoch must not overwrite the
        // newer deployment.
        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                stack_message(3, "best-effort"),
            )),
            &mut platform,
        );
        assert_eq!(
            platform.reconfig_requests.len(),
            1,
            "epoch 3 after epoch 5 is stale"
        );
    }

    #[test]
    fn duplicate_commands_after_deployment_resend_the_ack() {
        let mut platform = TestPlatform::new(NodeId(1));
        let (mut core, _context) = core_layer(&[0, 1], true, &mut platform);

        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                stack_message(2, "reliable"),
            )),
            &mut platform,
        );
        core.run_down(deployment_ack(1, 0, 2, "reliable"), &mut platform);

        // The coordinator retransmits (it never saw the ack): the member
        // re-acks without deploying again.
        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                stack_message(2, "reliable"),
            )),
            &mut platform,
        );
        let down = core.drain_down();
        assert_eq!(platform.reconfig_requests.len(), 1, "no redeployment");
        let acks: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ReconfigAck>())
            .collect();
        assert_eq!(acks.len(), 1, "ack resent");
    }

    #[test]
    fn a_reasserted_configuration_is_acked_under_the_new_epoch_without_redeploying() {
        let mut platform = TestPlatform::new(NodeId(1));
        let (mut core, _context) = core_layer(&[0, 1], true, &mut platform);
        let command = |epoch: u64, stack: &str| {
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                stack_message(epoch, stack),
            ))
        };

        core.run_up(command(2, "reliable"), &mut platform);
        core.run_down(deployment_ack(1, 0, 2, "reliable"), &mut platform);
        core.drain_down();

        // The ack was lost; the coordinator's repair re-asserts the same
        // stack under a fresh epoch. The member already runs exactly that:
        // it follows the ballot and acks epoch 3 — the epoch
        // `repair_behind` mirrored into the coordinator's `installed`, so
        // `record_ack` confirms the member — without deploying again.
        core.run_up(command(3, "reliable"), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 1, "no redeployment");
        let down = core.drain_down();
        let mut acks: Vec<Message> = down
            .iter()
            .filter_map(|event| event.get::<ReconfigAck>())
            .map(|ack| ack.message.clone())
            .collect();
        assert_eq!(acks.len(), 1, "one ack for the re-assertion");
        assert_eq!(acks[0].pop::<String>().unwrap(), "reliable");
        assert_eq!(
            acks[0].pop::<u64>().unwrap(),
            3,
            "stamped with the new epoch"
        );

        // A different stack name is a different configuration: it deploys.
        core.run_up(command(4, "best-effort"), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 2, "second deployment");
        assert_eq!(platform.reconfig_requests[1].epoch, 4);
        assert!(
            core.drain_down()
                .iter()
                .all(|event| !event.is::<ReconfigAck>()),
            "a real deployment is acked by the local module, not the layer"
        );
    }

    #[test]
    fn coordinator_reports_completion_once_every_member_acknowledged() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        platform.take_deliveries();

        // The coordinator's own deployment finishes...
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        assert!(
            completion_reports(&mut platform).is_empty(),
            "member 1 has not acknowledged yet"
        );

        // ... and 42 ms later the member's ack arrives.
        platform.advance(42);
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );

        let reports = completion_reports(&mut platform);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, "hybrid-mecho-relay0");
        assert_eq!(reports[0].1, 1, "completed round is epoch 1");
        assert_eq!(reports[0].2, 42);
    }

    #[test]
    fn a_stale_ack_from_a_prior_epoch_cannot_complete_a_newer_round() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        platform.take_deliveries();

        // The round times out and is re-initiated under epoch 2.
        platform.advance(4000);
        fire_pending_timers(&mut core, &mut platform);
        assert_eq!(
            platform.reconfig_requests.len(),
            2,
            "round re-initiated after the timeout"
        );
        assert_eq!(platform.reconfig_requests[1].epoch, 2);

        // The coordinator's own epoch-2 deployment finishes; then an ack
        // replayed from the aborted epoch-1 round arrives — same stack name,
        // wrong epoch. It must not complete the epoch-2 round.
        core.run_down(
            deployment_ack(0, 0, 2, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        assert!(
            completion_reports(&mut platform).is_empty(),
            "stale ack must not complete the newer round"
        );

        // The genuine epoch-2 ack does.
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(2, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        assert_eq!(completion_reports(&mut platform).len(), 1);
    }

    #[test]
    fn lost_commands_are_retransmitted_until_acknowledged() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        core.drain_down();

        // Node 1 acknowledged, node 2's command was lost.
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );

        platform.advance(500);
        fire_pending_timers(&mut core, &mut platform);
        let down = core.drain_down();
        let retransmits: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ReconfigCommand>())
            .collect();
        assert_eq!(retransmits.len(), 1);
        assert_eq!(
            retransmits[0].get::<ReconfigCommand>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(2)]),
            "only the missing member is retransmitted to"
        );
    }

    #[test]
    fn round_timeout_rolls_back_and_lets_the_policy_refire() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 1);

        // Nothing is ever acknowledged; past the round timeout the round is
        // aborted, `current_stack` keeps its pre-round value, and the policy
        // immediately re-fires under a fresh epoch.
        platform.advance(4000);
        fire_pending_timers(&mut core, &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 2);
        assert_eq!(
            platform.reconfig_requests[1].stack_name,
            "hybrid-mecho-relay0"
        );
        assert_eq!(platform.reconfig_requests[1].epoch, 2);
    }

    #[test]
    fn a_timed_out_round_for_the_stack_the_coordinator_runs_is_reopened_without_redeploying() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        platform.take_deliveries();
        let stack = "hybrid-mecho-relay0";

        // The coordinator deploys; every ack of member 1 is lost, so the
        // round times out and the policy re-fires with the same stack.
        core.run_down(deployment_ack(0, 0, 1, stack), &mut platform);
        for _ in 0..8 {
            platform.advance(500);
            fire_pending_timers(&mut core, &mut platform);
        }
        let epochs: BTreeSet<u64> = core
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<ReconfigCommand>())
            .map(|command| {
                let mut message = command.message.clone();
                assert_eq!(message.pop::<String>().unwrap(), stack);
                message.pop::<u64>().unwrap()
            })
            .collect();
        assert_eq!(epochs, BTreeSet::from([1, 2]), "the round reopened");
        assert_eq!(
            platform.reconfig_requests.len(),
            1,
            "one local deployment across both epochs"
        );
        assert_eq!(platform.reconfig_requests[0].stack_name, stack);

        // Epoch 2 completes on the member's ack alone: the coordinator's
        // own ack was counted when the round reopened.
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(2, stack),
            )),
            &mut platform,
        );
        let reports = completion_reports(&mut platform);
        assert_eq!(reports.len(), 1);
        assert_eq!((reports[0].0.as_str(), reports[0].1), (stack, 2));
    }

    #[test]
    fn a_suspected_member_is_excluded_from_the_ack_quorum() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        platform.take_deliveries();

        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        assert!(
            completion_reports(&mut platform).is_empty(),
            "node 2 is still expected"
        );

        // Node 2 crashes: the failure detector suspects it and the round
        // completes over the surviving quorum.
        core.run_up(Event::up(Suspect { node: NodeId(2) }), &mut platform);
        let reports = completion_reports(&mut platform);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn a_suspected_coordinator_triggers_failover_to_the_next_lowest_live_id() {
        // Two fixed nodes (0 and 1) and two mobiles: the group stays hybrid
        // even after the original coordinator dies.
        let mut platform = TestPlatform::new(NodeId(1));
        let (mut core, context) = core_layer(&[0, 1, 2, 3], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, false), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        core.run_up(context.update(3, true), &mut platform);
        assert!(
            platform.reconfig_requests.is_empty(),
            "node 1 is not the coordinator while node 0 lives"
        );

        // Node 0 (coordinator *and* designated relay) crashes. Node 1 takes
        // over and re-initiates the adaptation over the survivors — with a
        // relay that is still alive.
        core.run_up(Event::up(Suspect { node: NodeId(0) }), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 1);
        let request = &platform.reconfig_requests[0];
        assert_eq!(request.coordinator, NodeId(1));
        assert!(
            !request.stack_name.ends_with("relay0"),
            "the dead node must not be selected as relay (got {})",
            request.stack_name
        );
    }

    #[test]
    fn an_alive_notification_readmits_a_member_to_the_quorum() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        platform.take_deliveries();

        // Node 1 is falsely suspected, then heard from again before it acked.
        core.run_up(Event::up(Suspect { node: NodeId(1) }), &mut platform);
        core.run_up(Event::up(Alive { node: NodeId(1) }), &mut platform);

        // Completion now requires node 1's ack again.
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        assert!(completion_reports(&mut platform).is_empty());
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        assert_eq!(completion_reports(&mut platform).len(), 1);
    }

    #[test]
    fn a_member_that_missed_the_round_while_suspected_is_repaired() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        core.drain_down();

        // Node 2's command is lost, it gets suspected, and the round
        // completes over the shrunk quorum {0, 1}.
        core.run_up(Event::up(Suspect { node: NodeId(2) }), &mut platform);
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        assert_eq!(completion_reports(&mut platform).len(), 1);
        core.drain_down();

        // The suspicion heals: node 2 must be re-sent the committed
        // configuration even though the policy sees nothing left to do.
        core.run_up(Event::up(Alive { node: NodeId(2) }), &mut platform);
        let down = core.drain_down();
        let repairs: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ReconfigCommand>())
            .collect();
        assert_eq!(repairs.len(), 1, "repair command sent on recovery");
        assert_eq!(
            repairs[0].get::<ReconfigCommand>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(2)])
        );

        // Context updates keep retrying the repair until node 2 confirms...
        core.run_up(context.update(1, true), &mut platform);
        assert_eq!(
            core.drain_down()
                .iter()
                .filter(|event| event.is::<ReconfigCommand>())
                .count(),
            1,
            "repair retried while the member is unconfirmed"
        );

        // ... after which no further commands are sent and no new round or
        // completion report is produced. The ack answers the latest repair
        // epoch (round 1 opened epoch 1; the two repair attempts above opened
        // 2 and 3).
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(2),
                Dest::Node(NodeId(0)),
                stack_message(3, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        core.run_up(context.update(1, true), &mut platform);
        assert!(core
            .drain_down()
            .iter()
            .all(|event| !event.is::<ReconfigCommand>()));
        assert!(completion_reports(&mut platform).is_empty());
        assert!(platform.reconfig_requests.len() == 1, "no new round opened");
    }

    #[test]
    fn an_aborted_round_does_not_destroy_the_repair_record_of_the_committed_stack() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);

        // Round 1 commits `hybrid-mecho-relay0` over the quorum {0, 1} while
        // node 2 is suspected.
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        core.run_up(Event::up(Suspect { node: NodeId(2) }), &mut platform);
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        assert_eq!(completion_reports(&mut platform).len(), 1);

        // The context shifts (node 0 turns mobile): round 2 towards
        // `best-effort` opens, the coordinator deploys locally, but no member
        // ever acknowledges...
        core.run_up(context.update(0, true), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 2);
        assert_eq!(platform.reconfig_requests[1].epoch, 2);
        core.run_down(deployment_ack(0, 0, 2, "best-effort"), &mut platform);

        // ... and the context shifts back to hybrid before the round times
        // out and aborts. The policy is satisfied again (`current_stack` was
        // never optimistically committed), so no third round opens — but the
        // coordinator rolls its own data channel back to the committed stack
        // (it deployed `best-effort` locally when round 2 started).
        core.run_up(context.update(0, false), &mut platform);
        platform.advance(4000);
        fire_pending_timers(&mut core, &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 3, "rollback, not a round");
        assert_eq!(
            platform.reconfig_requests[2].stack_name, "hybrid-mecho-relay0",
            "the coordinator redeploys the committed stack locally"
        );
        core.drain_down();

        // Regression: the aborted round's local deployment must not have
        // destroyed the repair record of the *committed* stack — when node 2
        // heals it is still repaired onto `hybrid-mecho-relay0`, under a
        // fresh epoch that outranks the aborted round's.
        core.run_up(Event::up(Alive { node: NodeId(2) }), &mut platform);
        let down = core.drain_down();
        let repairs: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ReconfigCommand>())
            .collect();
        assert_eq!(repairs.len(), 1, "repair survives the aborted round");
        let command = repairs[0].get::<ReconfigCommand>().unwrap();
        assert_eq!(command.header.dest, Dest::Nodes(vec![NodeId(2)]));
        let mut message = command.message.clone();
        assert_eq!(message.pop::<String>().unwrap(), "hybrid-mecho-relay0");
        assert!(
            message.pop::<u64>().unwrap() > 2,
            "the repair epoch outranks the aborted round, so even a member \
             that deployed the aborted configuration accepts it"
        );
    }

    #[test]
    fn equal_epochs_are_tie_broken_by_the_coordinator_id() {
        // Split-brain: after a false suspicion, coordinators 0 and 1 briefly
        // run concurrent rounds under the same epoch number. The ballot
        // order (epoch, coordinator-id) makes exactly one of them win on
        // every member, regardless of arrival order.

        // Arrival order A: higher-id coordinator first, lower-id second.
        let mut platform = TestPlatform::new(NodeId(5));
        let (mut core, _context) = core_layer(&[0, 1, 5], true, &mut platform);
        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(1),
                Dest::Node(NodeId(5)),
                stack_message(2, "reliable"),
            )),
            &mut platform,
        );
        assert_eq!(platform.reconfig_requests.len(), 1);
        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(5)),
                stack_message(2, "best-effort"),
            )),
            &mut platform,
        );
        assert_eq!(
            platform.reconfig_requests.len(),
            2,
            "the lower-id coordinator's equal-epoch ballot outranks the accepted one"
        );
        assert_eq!(platform.reconfig_requests[1].stack_name, "best-effort");
        // A third command from the deposed coordinator under the same epoch
        // is rejected.
        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(1),
                Dest::Node(NodeId(5)),
                stack_message(2, "fec-k4"),
            )),
            &mut platform,
        );
        assert_eq!(platform.reconfig_requests.len(), 2);

        // Arrival order B: lower-id coordinator first — the higher-id
        // coordinator's same-epoch round never deploys.
        let mut platform = TestPlatform::new(NodeId(5));
        let (mut core, _context) = core_layer(&[0, 1, 5], true, &mut platform);
        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(5)),
                stack_message(2, "best-effort"),
            )),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(1),
                Dest::Node(NodeId(5)),
                stack_message(2, "reliable"),
            )),
            &mut platform,
        );
        assert_eq!(platform.reconfig_requests.len(), 1);
        assert_eq!(platform.reconfig_requests[0].stack_name, "best-effort");
    }

    #[test]
    fn a_command_naming_an_unknown_stack_is_dropped() {
        let mut platform = TestPlatform::new(NodeId(1));
        let (mut core, _context) = core_layer(&[0, 1], true, &mut platform);
        let command = |epoch: u64, stack: &str| {
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                stack_message(epoch, stack),
            ))
        };

        // Each would be a winning ballot; none names a stack this node's
        // catalogue renders, so none deploys, acks or moves the ballot.
        for name in [
            "no-such-stack",
            "fec-k04",
            "gossip-f3 ",
            "",
            "hybrid-mecho-relay4294967296",
        ] {
            core.run_up(command(9, name), &mut platform);
            assert!(platform.reconfig_requests.is_empty(), "{name:?} deployed");
            assert!(core.drain_down().is_empty(), "{name:?} answered");
        }

        // The ballot stayed where it was: a command under a lower epoch than
        // the dropped ones still wins and deploys...
        core.run_up(command(2, "reliable"), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 1);
        assert_eq!(platform.reconfig_requests[0].epoch, 2);
        core.run_down(deployment_ack(1, 0, 2, "reliable"), &mut platform);
        core.drain_down();

        // ... and the stack stayed too: an unknown name under a newer epoch
        // neither replaces `reliable` nor stops its re-assertion being
        // re-acked without a redeploy.
        core.run_up(command(5, "reliable-x"), &mut platform);
        core.run_up(command(3, "reliable"), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 1, "no redeployment");
        let acks: Vec<Message> = core
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<ReconfigAck>())
            .map(|ack| ack.message.clone())
            .collect();
        assert_eq!(acks, vec![stack_message(3, "reliable")]);
    }

    /// The commands a coordinator's harness emitted since the last drain.
    fn commands(core: &mut Harness) -> Vec<ReconfigCommand> {
        core.drain_down()
            .iter()
            .filter_map(|event| event.get::<ReconfigCommand>())
            .cloned()
            .collect()
    }

    #[test]
    fn a_reconfig_command_is_the_same_size_at_any_group_size() {
        // A hybrid group of `n`: fixed coordinator 0, mobile everyone else.
        let encoded_command = |n: u32| {
            let group: Vec<u32> = (0..n).collect();
            let mut platform = TestPlatform::new(NodeId(0));
            let (mut core, context) = core_layer(&group, true, &mut platform);
            for node in group {
                core.run_up(context.update(node, node != 0), &mut platform);
            }
            let commands = commands(&mut core);
            assert_eq!(commands.len(), 1);
            morpheus_appia::registry::encode_event(&commands[0]).len()
        };
        let at_200 = encoded_command(200);
        assert_eq!(encoded_command(4), at_200);
        assert!(at_200 <= 64, "{at_200} B at n = 200");
    }

    #[test]
    fn a_view_install_rewrites_the_control_membership() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        platform.take_deliveries();

        // The view removes node 2 outright (it is not merely suspected):
        // the round now completes over {0, 1} alone.
        core.run_down(
            Event::down(ViewInstall {
                view: morpheus_groupcomm::View::new(2, vec![NodeId(0), NodeId(1)]),
            }),
            &mut platform,
        );
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        let reports = completion_reports(&mut platform);
        assert_eq!(reports.len(), 1, "node 2 is no longer awaited");
    }

    #[test]
    fn a_view_install_completes_a_round_whose_last_ack_was_expelled() {
        // Regression: the quorum check must re-run when the view shrinks,
        // exactly as it does on a local Suspect — otherwise a round whose
        // only missing ack belonged to the expelled member stalls until the
        // round timeout aborts it.
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        core.run_up(context.update(2, true), &mut platform);
        platform.take_deliveries();

        // Acks from 0 (self) and 1 arrive; node 2 stays silent.
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        assert!(completion_reports(&mut platform).is_empty());

        // The view expels node 2: the round is complete over {0, 1} now.
        core.run_down(
            Event::down(ViewInstall {
                view: morpheus_groupcomm::View::new(2, vec![NodeId(0), NodeId(1)]),
            }),
            &mut platform,
        );
        assert_eq!(completion_reports(&mut platform).len(), 1);
    }

    #[test]
    fn a_member_repaired_after_a_crash_elsewhere_re_acks_without_redeploying() {
        let group = [0, 1, 2, 3];
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&group, true, &mut platform);
        let mut member_platform = TestPlatform::new(NodeId(2));
        let (mut member, _) = core_layer(&group, true, &mut member_platform);
        let to_member = |command: &ReconfigCommand| {
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(2)),
                command.message.clone(),
            ))
        };
        let ack = |from: u32, epoch: u64| {
            Event::up(ReconfigAck::new(
                NodeId(from),
                Dest::Node(NodeId(0)),
                stack_message(epoch, "hybrid-mecho-relay0"),
            ))
        };

        // Hybrid group: round 1 ships while everyone is live. Member 2
        // deploys it, but its ack is lost and it is falsely suspected; the
        // round completes over {0, 1, 3}.
        for node in group {
            core.run_up(context.update(node, node >= 2), &mut platform);
        }
        let round = commands(&mut core).remove(0);
        member.run_up(to_member(&round), &mut member_platform);
        member.run_down(
            deployment_ack(2, 0, 1, "hybrid-mecho-relay0"),
            &mut member_platform,
        );
        core.run_up(Event::up(Suspect { node: NodeId(2) }), &mut platform);
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(ack(1, 1), &mut platform);
        core.run_up(ack(3, 1), &mut platform);
        assert_eq!(completion_reports(&mut platform).len(), 1);
        core.drain_down();

        // Node 3 then crashes for good, and member 2's suspicion heals: the
        // repair it receives names the round's stack.
        core.run_up(Event::up(Suspect { node: NodeId(3) }), &mut platform);
        core.run_up(Event::up(Alive { node: NodeId(2) }), &mut platform);
        let repair = commands(&mut core).remove(0);
        let stack = |command: &ReconfigCommand| command.message.clone().pop::<String>();
        assert_eq!(stack(&repair), stack(&round));

        // So member 2, already running it, re-acks under the repair's epoch
        // without redeploying — its stack keeps its per-session state.
        member.drain_down();
        member.run_up(to_member(&repair), &mut member_platform);
        assert_eq!(member_platform.reconfig_requests.len(), 1, "no redeploy");
        let mut acks: Vec<Message> = member
            .drain_down()
            .iter()
            .filter_map(|event| event.get::<ReconfigAck>())
            .map(|ack| ack.message.clone())
            .collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].pop::<String>().unwrap(), "hybrid-mecho-relay0");
        assert_eq!(acks[0].pop::<u64>().unwrap(), 2, "the repair's epoch");

        // The coordinator counts that ack: nothing is left to repair.
        core.run_up(ack(2, 2), &mut platform);
        core.run_up(context.update(1, false), &mut platform);
        assert!(commands(&mut core).is_empty());
    }

    #[test]
    fn repeated_context_updates_do_not_reinitiate_the_same_stack() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], true, &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, true), &mut platform);
        // Complete the pending reconfiguration.
        core.run_down(
            deployment_ack(0, 0, 1, "hybrid-mecho-relay0"),
            &mut platform,
        );
        core.run_up(
            Event::up(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                stack_message(1, "hybrid-mecho-relay0"),
            )),
            &mut platform,
        );
        platform.reconfig_requests.clear();

        // The same hybrid context arrives again: nothing new should happen.
        core.run_up(context.update(1, true), &mut platform);
        assert!(platform.reconfig_requests.is_empty());
    }

    #[test]
    fn the_coordinator_evaluates_its_latest_sample_not_its_published_entry() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1], true, &mut platform);
        let with_error = |node: u32, at: u64, rate: f64| {
            let mut snapshot =
                ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(node)), at);
            snapshot.set(ContextKey::ErrorRate, ContextValue::Number(rate));
            snapshot
        };
        // Cocaditem published node 0's context at error rate 0, and stored
        // node 1's.
        context.store.borrow_mut().update(with_error(0, 1, 0.0));
        context.store.borrow_mut().update(with_error(1, 1, 0.0));

        // A later sample measures 0.01: inside Cocaditem's 0.01 tolerance,
        // so it is never published and the store keeps error rate 0. The
        // policy must still see it — 0.01 is past the retransmission
        // threshold.
        core.run_up(
            Event::up(ContextUpdated {
                local_sample: Some(with_error(0, 2, 0.01)),
            }),
            &mut platform,
        );
        assert_eq!(platform.reconfig_requests.len(), 1);
        assert_eq!(platform.reconfig_requests[0].stack_name, "reliable");
        assert_eq!(
            context.store.borrow().get(NodeId(0)).unwrap().error_rate(),
            Some(0.0),
            "Core never writes the store"
        );
    }

    #[test]
    fn a_suspected_members_context_is_set_aside_not_deleted() {
        let mut platform = TestPlatform::new(NodeId(0));
        let (mut core, context) = core_layer(&[0, 1, 2], true, &mut platform);
        // Mobile node 2's context arrives first, then node 2 is suspected.
        core.run_up(context.update(2, true), &mut platform);
        core.run_up(Event::up(Suspect { node: NodeId(2) }), &mut platform);

        // The live group {0, 1} is fixed and clean: best-effort, which is
        // already deployed. The suspected mobile node is left out...
        core.run_up(context.update(0, false), &mut platform);
        core.run_up(context.update(1, false), &mut platform);
        assert!(platform.reconfig_requests.is_empty());
        // ... but its context stays in the store.
        assert!(context.store.borrow().get(NodeId(2)).is_some());

        // The suspicion heals and node 2 does not republish: the next
        // evaluation counts it again and the group is hybrid.
        core.run_up(Event::up(Alive { node: NodeId(2) }), &mut platform);
        core.run_up(context.update(0, false), &mut platform);
        assert_eq!(platform.reconfig_requests.len(), 1);
        assert_eq!(
            platform.reconfig_requests[0].stack_name,
            "hybrid-mecho-relay0"
        );
    }
}
