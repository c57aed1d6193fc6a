//! Round-engine conformance suite.
//!
//! `groupcomm::round` is the one distributed-round engine behind all three
//! multi-party protocols: the Core control plane's reconfiguration rounds,
//! view-synchrony's view rounds and the recovery layer's transfer epochs.
//! This suite states the engine's contract *once*, generically, and proves
//! it against each protocol's real wire traffic — every adapter below
//! drives genuine layer sessions through `Harness` instances and ferries
//! the actual messages between them:
//!
//! 1. **Agreement** — a round completes at most once per epoch, and every
//!    observer of an epoch sees the same decision;
//! 2. **Single-loss resilience** — dropping any single message of any wire
//!    class the protocol exchanges (command/ack, prepare/flush/commit,
//!    request/chunk) delays the round but never prevents completion: the
//!    per-participant retransmission machinery repairs it;
//! 3. **Stale-message immunity** — a captured ack/flush/chunk from an older
//!    epoch, replayed against a newer in-flight round, never completes it
//!    (and never corrupts its state);
//! 4. **Abort liveness** — a starved round is aborted by the timeout and
//!    re-proposed under a strictly fresher ballot; once the network heals
//!    the new round completes. Abort never wedges a protocol.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use morpheus::appia::layer::LayerParams;
use morpheus::appia::platform::{DeliveryKind, NodeId, NodeProfile, ReconfigRequest, TestPlatform};
use morpheus::appia::testing::Harness;
use morpheus::appia::{Dest, Event, Message};
use morpheus::cocaditem::dissemination::ContextUpdated;
use morpheus::cocaditem::{ContextSnapshot, ContextStore};
use morpheus::core::control::CoreLayer;
use morpheus::core::{NodeOptions, ReconfigAck, ReconfigCommand, StackCatalog};
use morpheus::groupcomm::events::{FlushAck, Suspect, ViewCommit, ViewInstall, ViewPrepare};
use morpheus::groupcomm::recovery::{StateChunk, StateChunkHeader, StateRequest};
use morpheus::groupcomm::vsync::VsyncLayer;
use morpheus::groupcomm::{RecoveryLayer, StateSection, View};

/// One observed round completion: who saw it, which epoch, what was decided.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Completion {
    observer: &'static str,
    epoch: u64,
    decision: String,
}

/// One protocol bound to the shared round engine, driven through its real
/// layer sessions and wire messages.
trait RoundAdapter {
    fn name(&self) -> &'static str;
    /// The wire-message classes the protocol exchanges during a round.
    fn classes(&self) -> &'static [&'static str];
    /// Whether `run_round` may be called repeatedly on one instance (the
    /// protocol naturally runs successive rounds).
    fn repeatable(&self) -> bool;
    /// Drives one full round, dropping the *first* wire message of
    /// `drop_class` if given; retransmission must repair the loss. Returns
    /// every completion observed.
    fn run_round(&mut self, drop_class: Option<&'static str>) -> Vec<Completion>;
    /// Completes (or opens) a newer round, then replays a captured message
    /// from an older epoch against it. Returns `(completions caused by the
    /// replay, completions of the genuine newer round)`.
    fn stale_replay(&mut self) -> (Vec<Completion>, Vec<Completion>);
    /// Starves the first round until the protocol aborts it, then heals the
    /// network. Returns `(starved_epoch, completed_epoch)`.
    fn abort_and_repropose(&mut self) -> (u64, u64);
}

/// Asserts the agreement property over a batch of observations: every
/// observer of an epoch saw the same decision, and no observer saw two
/// completions of one epoch.
fn assert_consistent(protocol: &str, completions: &[Completion]) {
    let mut decisions: BTreeMap<u64, &str> = BTreeMap::new();
    let mut seen: Vec<(&'static str, u64)> = Vec::new();
    for completion in completions {
        assert!(
            !seen.contains(&(completion.observer, completion.epoch)),
            "{protocol}: {} observed epoch {} complete twice",
            completion.observer,
            completion.epoch
        );
        seen.push((completion.observer, completion.epoch));
        match decisions.get(&completion.epoch) {
            None => {
                decisions.insert(completion.epoch, &completion.decision);
            }
            Some(existing) => assert_eq!(
                *existing, completion.decision,
                "{protocol}: conflicting completions for epoch {}",
                completion.epoch
            ),
        }
    }
}

/// The generic conformance driver: every property, against one adapter
/// factory.
fn check_conformance<A: RoundAdapter, F: Fn() -> A>(make: F) {
    // Agreement on a clean run — and, where the protocol runs successive
    // rounds, epochs strictly advance between them.
    let mut world = make();
    let protocol = world.name();
    let first = world.run_round(None);
    assert!(!first.is_empty(), "{protocol}: clean round never completed");
    assert_consistent(protocol, &first);
    if world.repeatable() {
        let second = world.run_round(None);
        assert!(
            !second.is_empty(),
            "{protocol}: second round never completed"
        );
        let mut all = first.clone();
        all.extend(second.iter().cloned());
        assert_consistent(protocol, &all);
        let max_first = first.iter().map(|c| c.epoch).max().unwrap();
        let min_second = second.iter().map(|c| c.epoch).min().unwrap();
        assert!(
            min_second > max_first,
            "{protocol}: epoch regressed across rounds ({min_second} <= {max_first})"
        );
    }

    // Single-loss resilience, one fresh world per message class.
    for class in make().classes() {
        let mut world = make();
        let completions = world.run_round(Some(class));
        assert!(
            !completions.is_empty(),
            "{protocol}: dropping one `{class}` prevented completion"
        );
        assert_consistent(protocol, &completions);
    }

    // Stale-message immunity.
    let mut world = make();
    let (replayed, genuine) = world.stale_replay();
    assert!(
        replayed.is_empty(),
        "{protocol}: a replayed stale message completed a newer round: {replayed:?}"
    );
    assert!(
        !genuine.is_empty(),
        "{protocol}: the newer round never completed at all"
    );
    assert_consistent(protocol, &genuine);

    // Abort liveness: fresh ballot, then completion.
    let mut world = make();
    let (starved, completed) = world.abort_and_repropose();
    assert!(
        completed > starved,
        "{protocol}: re-proposal after abort must carry a fresher epoch \
         (starved {starved}, completed {completed})"
    );
}

/// Fires every armed, uncancelled timer once (the standard layer-test
/// idiom: take the snapshot so re-armed ticks wait for the next call).
fn fire_pending_timers(harness: &mut Harness, platform: &mut TestPlatform) {
    let timers: Vec<_> = std::mem::take(&mut platform.timers);
    let cancelled: Vec<_> = std::mem::take(&mut platform.cancelled);
    for (_, key) in timers {
        if !cancelled.contains(&key) {
            harness.fire_timer(key, platform);
        }
    }
}

// ---------------------------------------------------------------------------
// Control-plane adapter: Core reconfiguration rounds (coordinator node 0,
// member node 1). Wire classes: ReconfigCommand down, ReconfigAck up.
// ---------------------------------------------------------------------------

struct ControlAdapter {
    coord: Harness,
    coord_platform: TestPlatform,
    /// The coordinator's context store, seeded with the member's snapshot
    /// the way Cocaditem would write it.
    coord_store: Rc<RefCell<ContextStore>>,
    member: Harness,
    member_platform: TestPlatform,
    rounds_triggered: u64,
    context_version: u64,
}

fn control_params() -> LayerParams {
    let mut params = LayerParams::new();
    params.insert("members".into(), "0,1".into());
    params.insert("adaptive".into(), "true".into());
    params
}

/// A Core layer over its own context store and a `data`-channel catalogue
/// at the default round timing (500 ms retransmit, 4000 ms timeout).
fn control_layer(store: &Rc<RefCell<ContextStore>>) -> CoreLayer {
    CoreLayer::new(
        Rc::clone(store),
        Rc::new(StackCatalog::new(&NodeOptions::new(vec![
            NodeId(0),
            NodeId(1),
        ]))),
    )
}

fn ack_message(epoch: u64, stack: &str) -> Message {
    let mut message = Message::new();
    message.push(&epoch);
    message.push(&stack.to_string());
    message
}

fn command_messages(events: &[Event]) -> Vec<Message> {
    events
        .iter()
        .filter_map(|event| event.get::<ReconfigCommand>().map(|c| c.message.clone()))
        .collect()
}

fn ack_messages(events: &[Event]) -> Vec<Message> {
    events
        .iter()
        .filter_map(|event| event.get::<ReconfigAck>().map(|a| a.message.clone()))
        .collect()
}

impl ControlAdapter {
    fn new() -> Self {
        let coord_store = Rc::default();
        let mut coord_platform = TestPlatform::new(NodeId(0));
        let coord = Harness::new(
            control_layer(&coord_store),
            &control_params(),
            &mut coord_platform,
        );
        let mut member_platform = TestPlatform::new(NodeId(1));
        let member = Harness::new(
            control_layer(&Rc::default()),
            &control_params(),
            &mut member_platform,
        );
        coord_platform.take_deliveries();
        member_platform.take_deliveries();
        Self {
            coord,
            coord_platform,
            coord_store,
            member,
            member_platform,
            rounds_triggered: 0,
            context_version: 0,
        }
    }

    /// Feeds fresh context to the coordinator so the policy opens a round:
    /// its own sample, then the member's snapshot written into its store.
    /// The member's device class alternates per call so successive rounds
    /// prescribe *different* stacks.
    fn trigger(&mut self) -> ReconfigRequest {
        self.context_version += 1;
        let coord_snapshot =
            ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(0)), self.context_version);
        self.coord.run_up(
            Event::up(ContextUpdated {
                local_sample: Some(coord_snapshot),
            }),
            &mut self.coord_platform,
        );
        let member_profile = if self.rounds_triggered.is_multiple_of(2) {
            NodeProfile::mobile_pda(NodeId(1))
        } else {
            NodeProfile::fixed_pc(NodeId(1))
        };
        self.rounds_triggered += 1;
        self.context_version += 1;
        self.coord_store
            .borrow_mut()
            .update(ContextSnapshot::from_profile(
                &member_profile,
                self.context_version,
            ));
        self.coord.run_up(
            Event::up(ContextUpdated { local_sample: None }),
            &mut self.coord_platform,
        );
        std::mem::take(&mut self.coord_platform.reconfig_requests)
            .pop()
            .expect("the context change opens a round")
    }

    /// The coordinator's own local module finishes deploying and acks.
    /// Returns every command the round has multicast so far (the broadcast
    /// rides the round-opening dispatch, before the self-ack).
    fn coordinator_self_deploys(&mut self, request: &ReconfigRequest) -> Vec<Message> {
        let mut events = self.coord.drain_down();
        events.extend(self.coord.run_down(
            Event::down(ReconfigAck::new(
                NodeId(0),
                Dest::Node(NodeId(0)),
                ack_message(request.epoch, &request.stack_name),
            )),
            &mut self.coord_platform,
        ));
        command_messages(&events)
    }

    /// Delivers one command message to the member, deploys it there and
    /// returns the ack message the member emits.
    fn member_deploys(&mut self, command: Message) -> Message {
        self.member.run_up(
            Event::up(ReconfigCommand::new(
                NodeId(0),
                Dest::Node(NodeId(1)),
                command,
            )),
            &mut self.member_platform,
        );
        let request = std::mem::take(&mut self.member_platform.reconfig_requests)
            .pop()
            .expect("the command deploys on the member");
        let down = self.member.run_down(
            Event::down(ReconfigAck::new(
                NodeId(1),
                Dest::Node(NodeId(0)),
                ack_message(request.epoch, &request.stack_name),
            )),
            &mut self.member_platform,
        );
        ack_messages(&down)
            .pop()
            .expect("the deployed member acks towards the coordinator")
    }

    fn deliver_ack(&mut self, ack: Message) {
        self.coord.run_up(
            Event::up(ReconfigAck::new(NodeId(1), Dest::Node(NodeId(0)), ack)),
            &mut self.coord_platform,
        );
    }

    /// Completions observed since the last call: the coordinator reports
    /// the completed round, the member its deployment of the same epoch.
    fn completions(&mut self) -> Vec<Completion> {
        self.coord_platform
            .take_deliveries()
            .into_iter()
            .filter_map(|delivery| match delivery.kind {
                DeliveryKind::ReconfigurationComplete { stack, epoch, .. } => Some(Completion {
                    observer: "coordinator",
                    epoch,
                    decision: stack,
                }),
                _ => None,
            })
            .collect()
    }
}

impl RoundAdapter for ControlAdapter {
    fn name(&self) -> &'static str {
        "control"
    }

    fn classes(&self) -> &'static [&'static str] {
        &["command", "ack"]
    }

    fn repeatable(&self) -> bool {
        true
    }

    fn run_round(&mut self, drop_class: Option<&'static str>) -> Vec<Completion> {
        let request = self.trigger();
        let mut commands = self.coordinator_self_deploys(&request);
        assert!(!commands.is_empty(), "the round opens with a command");
        if drop_class == Some("command") {
            commands.clear();
            // The retransmit tick re-sends the command to the silent member.
            self.coord_platform.advance(500);
            fire_pending_timers(&mut self.coord, &mut self.coord_platform);
            commands = command_messages(&self.coord.drain_down());
            assert!(!commands.is_empty(), "the command is retransmitted");
        }
        let mut ack = self.member_deploys(commands.remove(0));
        if drop_class == Some("ack") {
            // The ack is lost; the coordinator re-commands the member still
            // missing from the quorum, and the member re-acks the duplicate.
            self.coord_platform.advance(500);
            fire_pending_timers(&mut self.coord, &mut self.coord_platform);
            let resent = command_messages(&self.coord.drain_down());
            assert!(!resent.is_empty(), "the command is re-sent to the laggard");
            self.member.run_up(
                Event::up(ReconfigCommand::new(
                    NodeId(0),
                    Dest::Node(NodeId(1)),
                    resent.into_iter().next().expect("checked non-empty"),
                )),
                &mut self.member_platform,
            );
            ack = ack_messages(&self.member.drain_down())
                .pop()
                .expect("the duplicate command is re-acked");
        }
        let member_completion = Completion {
            observer: "member",
            epoch: request.epoch,
            decision: request.stack_name.clone(),
        };
        self.deliver_ack(ack);
        let mut completions = self.completions();
        completions.push(member_completion);
        completions
    }

    fn stale_replay(&mut self) -> (Vec<Completion>, Vec<Completion>) {
        // Round 1 completes; its ack is the stale artefact.
        let request = self.trigger();
        let command = self.coordinator_self_deploys(&request).remove(0);
        let stale_ack = self.member_deploys(command);
        self.deliver_ack(stale_ack.clone());
        assert!(!self.completions().is_empty(), "round 1 completes");

        // Round 2 opens under a fresh epoch; the replayed round-1 ack must
        // not count towards its quorum.
        let request = self.trigger();
        let command = self.coordinator_self_deploys(&request).remove(0);
        self.deliver_ack(stale_ack);
        let replayed = self.completions();

        let ack = self.member_deploys(command);
        self.deliver_ack(ack);
        (replayed, self.completions())
    }

    fn abort_and_repropose(&mut self) -> (u64, u64) {
        // The command never arrives anywhere: the round times out, aborts
        // and the policy immediately re-proposes under the next epoch.
        let starved = self.trigger();
        self.coord.drain_down();
        self.coord_platform.advance(4_100);
        fire_pending_timers(&mut self.coord, &mut self.coord_platform);
        let request = std::mem::take(&mut self.coord_platform.reconfig_requests)
            .pop()
            .expect("the aborted round is re-proposed");
        assert!(request.epoch > starved.epoch, "fresh ballot after abort");
        // The network heals: the re-proposed round completes normally.
        let command = self.coordinator_self_deploys(&request).remove(0);
        let ack = self.member_deploys(command);
        self.deliver_ack(ack);
        let completions = self.completions();
        assert!(!completions.is_empty(), "the healed round completes");
        (starved.epoch, completions[0].epoch)
    }
}

// ---------------------------------------------------------------------------
// View-synchrony adapter: view rounds between proposer node 1 and
// participant node 2 (member 3 is the one being expelled). Wire classes:
// ViewPrepare, FlushAck, ViewCommit.
// ---------------------------------------------------------------------------

struct VsyncAdapter {
    proposer: Harness,
    proposer_platform: TestPlatform,
    participant: Harness,
    participant_platform: TestPlatform,
    /// Ascending ids still in the group; each round expels the highest.
    members: Vec<u32>,
}

fn vsync_params() -> LayerParams {
    let mut params = LayerParams::new();
    params.insert("members".into(), "1,2,3".into());
    params.insert("retransmit_interval_ms".into(), "500".into());
    params.insert("round_timeout_ms".into(), "4000".into());
    params
}

fn view_changes(platform: &mut TestPlatform, observer: &'static str) -> Vec<Completion> {
    platform
        .take_deliveries()
        .into_iter()
        .filter_map(|delivery| match delivery.kind {
            DeliveryKind::ViewChange { view_id, members } => Some(Completion {
                observer,
                epoch: view_id,
                decision: format!("{members:?}"),
            }),
            _ => None,
        })
        .collect()
}

fn prepare_messages(events: &[Event]) -> Vec<Message> {
    events
        .iter()
        .filter_map(|event| event.get::<ViewPrepare>().map(|p| p.message.clone()))
        .collect()
}

fn flush_messages(events: &[Event]) -> Vec<Message> {
    events
        .iter()
        .filter_map(|event| event.get::<FlushAck>().map(|f| f.message.clone()))
        .collect()
}

fn commit_messages(events: &[Event]) -> Vec<Message> {
    events
        .iter()
        .filter_map(|event| event.get::<ViewCommit>().map(|c| c.message.clone()))
        .collect()
}

impl VsyncAdapter {
    fn new() -> Self {
        let mut proposer_platform = TestPlatform::new(NodeId(1));
        let proposer = Harness::new(VsyncLayer, &vsync_params(), &mut proposer_platform);
        let mut participant_platform = TestPlatform::new(NodeId(2));
        let participant = Harness::new(VsyncLayer, &vsync_params(), &mut participant_platform);
        proposer_platform.take_deliveries();
        participant_platform.take_deliveries();
        Self {
            proposer,
            proposer_platform,
            participant,
            participant_platform,
            members: vec![1, 2, 3],
        }
    }

    /// Suspects the highest remaining member at the proposer, opening a
    /// view round, and returns the prepare it multicasts.
    fn suspect_highest(&mut self) -> Vec<Message> {
        let victim = *self.members.last().expect("group never empties");
        self.members.pop();
        self.proposer.run_up(
            Event::up(Suspect {
                node: NodeId(victim),
            }),
            &mut self.proposer_platform,
        );
        prepare_messages(&self.proposer.drain_down())
    }

    fn deliver_prepare(&mut self, prepare: Message) -> Vec<Message> {
        self.participant.run_up(
            Event::up(ViewPrepare::new(NodeId(1), Dest::Node(NodeId(2)), prepare)),
            &mut self.participant_platform,
        );
        flush_messages(&self.participant.drain_down())
    }

    fn deliver_flush(&mut self, flush: Message) -> Vec<Message> {
        self.proposer.run_up(
            Event::up(FlushAck::new(NodeId(2), Dest::Node(NodeId(1)), flush)),
            &mut self.proposer_platform,
        );
        commit_messages(&self.proposer.drain_down())
    }

    fn deliver_commit(&mut self, commit: Message) {
        self.participant.run_up(
            Event::up(ViewCommit::new(NodeId(1), Dest::Node(NodeId(2)), commit)),
            &mut self.participant_platform,
        );
    }

    fn completions(&mut self) -> Vec<Completion> {
        let mut completions = view_changes(&mut self.proposer_platform, "proposer");
        completions.extend(view_changes(&mut self.participant_platform, "participant"));
        completions
    }
}

impl RoundAdapter for VsyncAdapter {
    fn name(&self) -> &'static str {
        "vsync"
    }

    fn classes(&self) -> &'static [&'static str] {
        &["prepare", "flush", "commit"]
    }

    fn repeatable(&self) -> bool {
        true
    }

    fn run_round(&mut self, drop_class: Option<&'static str>) -> Vec<Completion> {
        let mut prepares = self.suspect_highest();
        if self.members.len() < 2 {
            // Degenerate second round: the proposer is alone in the proposed
            // view and completes without remote participants.
            return self.completions();
        }
        assert!(!prepares.is_empty(), "the round opens with a prepare");
        if drop_class == Some("prepare") {
            prepares.clear();
            self.proposer_platform.advance(500);
            fire_pending_timers(&mut self.proposer, &mut self.proposer_platform);
            prepares = prepare_messages(&self.proposer.drain_down());
            assert!(!prepares.is_empty(), "the prepare is retransmitted");
        }
        let mut flushes = self.deliver_prepare(prepares.remove(0));
        assert!(!flushes.is_empty(), "the participant flushes");
        if drop_class == Some("flush") {
            // The participant re-sends its flush on its own tick.
            flushes.clear();
            self.participant_platform.advance(500);
            fire_pending_timers(&mut self.participant, &mut self.participant_platform);
            flushes = flush_messages(&self.participant.drain_down());
            assert!(!flushes.is_empty(), "the flush is retransmitted");
        }
        let mut commits = self.deliver_flush(flushes.remove(0));
        assert!(!commits.is_empty(), "the completed round commits");
        if drop_class == Some("commit") {
            // The commit is lost; the straggler keeps flushing and the
            // proposer answers the duplicate flush with a fresh commit.
            commits.clear();
            self.participant_platform.advance(500);
            fire_pending_timers(&mut self.participant, &mut self.participant_platform);
            let repeated = flush_messages(&self.participant.drain_down())
                .into_iter()
                .next()
                .expect("the straggler keeps flushing");
            commits = self.deliver_flush(repeated);
            assert!(!commits.is_empty(), "the commit is replayed");
        }
        self.deliver_commit(commits.remove(0));
        self.completions()
    }

    fn stale_replay(&mut self) -> (Vec<Completion>, Vec<Completion>) {
        // Round 1 completes on both nodes; its flush is the stale artefact.
        let prepares = self.suspect_highest();
        let flushes = self.deliver_prepare(prepares.into_iter().next().expect("prepare"));
        let stale_flush = flushes.into_iter().next().expect("flush");
        let commits = self.deliver_flush(stale_flush.clone());
        self.deliver_commit(commits.into_iter().next().expect("commit"));
        assert!(!self.completions().is_empty(), "round 1 completes");

        // Round 2 (expelling node 2) completes at the proposer alone.
        self.suspect_highest();
        let genuine = self.completions();

        // The replayed round-1 flush must not commit or install anything.
        self.deliver_flush(stale_flush);
        (self.completions(), genuine)
    }

    fn abort_and_repropose(&mut self) -> (u64, u64) {
        // The participant never flushes: the proposer times the round out,
        // aborts it and immediately re-proposes under a fresh epoch.
        let prepares = self.suspect_highest();
        let starved_epoch = epoch_of(prepares.into_iter().next().expect("prepare"));
        self.proposer_platform.advance(4_100);
        fire_pending_timers(&mut self.proposer, &mut self.proposer_platform);
        let reproposed = prepare_messages(&self.proposer.drain_down())
            .into_iter()
            .next()
            .expect("the aborted round is re-proposed");
        let fresh_epoch = epoch_of(reproposed.clone());
        // The network heals: the re-proposed round completes on both nodes.
        let flushes = self.deliver_prepare(reproposed);
        let commits = self.deliver_flush(flushes.into_iter().next().expect("flush"));
        self.deliver_commit(commits.into_iter().next().expect("commit"));
        assert!(!self.completions().is_empty(), "the healed round completes");
        (starved_epoch, fresh_epoch)
    }
}

/// Pops the round epoch a vsync prepare message carries (epoch on top,
/// proposed view beneath).
fn epoch_of(mut prepare: Message) -> u64 {
    prepare.pop::<u64>().expect("prepare carries its epoch")
}

// ---------------------------------------------------------------------------
// Recovery adapter: transfer epochs between joiner node 2 and donors 0 and
// 1. Wire classes: StateRequest up, StateChunk down. The two donors hold
// *different* state so any stale-chunk leak across a failover would corrupt
// the installed snapshot visibly.
// ---------------------------------------------------------------------------

const DONOR0_STATE: &[u8] = b"donor zero's snapshot: forty-eight bytes of it!!";
const DONOR1_STATE: &[u8] = b"donor one's snapshot: different bytes entirely!!";

struct SharedSection {
    name: &'static str,
    state: Rc<RefCell<Vec<u8>>>,
}

impl StateSection for SharedSection {
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

fn section(contents: &[u8]) -> (Rc<dyn StateSection>, Rc<RefCell<Vec<u8>>>) {
    let state = Rc::new(RefCell::new(contents.to_vec()));
    (
        Rc::new(SharedSection {
            name: "s",
            state: state.clone(),
        }),
        state,
    )
}

fn recovery_params(joining: bool) -> LayerParams {
    let mut params = LayerParams::new();
    params.insert("members".into(), "0,1,2".into());
    params.insert("joining".into(), joining.to_string());
    params.insert("chunk_bytes".into(), "16".into());
    params.insert("retry_ms".into(), "500".into());
    params.insert("transfer_timeout_ms".into(), "4000".into());
    params
}

/// `(donor, request message)` pairs drained from the joiner.
fn request_messages(events: &[Event]) -> Vec<(NodeId, Message)> {
    events
        .iter()
        .filter_map(|event| {
            event.get::<StateRequest>().map(|request| {
                let Dest::Node(donor) = request.header.dest else {
                    panic!("state requests are unicast");
                };
                (donor, request.message.clone())
            })
        })
        .collect()
}

fn chunk_messages(events: &[Event]) -> Vec<Message> {
    events
        .iter()
        .filter_map(|event| event.get::<StateChunk>().map(|chunk| chunk.message.clone()))
        .collect()
}

struct RecoveryAdapter {
    joiner: Harness,
    joiner_platform: TestPlatform,
    donors: Vec<(NodeId, Harness, TestPlatform)>,
    joiner_state: Rc<RefCell<Vec<u8>>>,
}

impl RecoveryAdapter {
    fn new() -> Self {
        let mut donors = Vec::new();
        for (id, state) in [(0u32, DONOR0_STATE), (1u32, DONOR1_STATE)] {
            let (donor_section, _) = section(state);
            let mut platform = TestPlatform::new(NodeId(id));
            let harness = Harness::new(
                RecoveryLayer::with_sections(vec![donor_section]),
                &recovery_params(false),
                &mut platform,
            );
            donors.push((NodeId(id), harness, platform));
        }
        let (joiner_section, joiner_state) = section(b"");
        let mut joiner_platform = TestPlatform::new(NodeId(2));
        let joiner = Harness::new(
            RecoveryLayer::with_sections(vec![joiner_section]),
            &recovery_params(true),
            &mut joiner_platform,
        );
        Self {
            joiner,
            joiner_platform,
            donors,
            joiner_state,
        }
    }

    /// Admits the joiner (a view containing it installs) and returns the
    /// initial state requests.
    fn admit(&mut self) -> Vec<(NodeId, Message)> {
        let down = self.joiner.run_down(
            Event::down(ViewInstall {
                view: View::new(1, vec![NodeId(0), NodeId(1), NodeId(2)]),
            }),
            &mut self.joiner_platform,
        );
        request_messages(&down)
    }

    /// Feeds one request to the addressed donor and returns the chunks it
    /// streams back.
    fn serve(&mut self, donor: NodeId, request: Message) -> Vec<Message> {
        let (_, harness, platform) = self
            .donors
            .iter_mut()
            .find(|(id, _, _)| *id == donor)
            .expect("requests target a known donor");
        harness.run_up(
            Event::up(StateRequest::new(NodeId(2), Dest::Node(donor), request)),
            platform,
        );
        chunk_messages(&harness.drain_down())
    }

    fn deliver_chunk(&mut self, donor: NodeId, chunk: Message) {
        self.joiner.run_up(
            Event::up(StateChunk::new(donor, Dest::Node(NodeId(2)), chunk)),
            &mut self.joiner_platform,
        );
    }

    fn completions(&mut self) -> Vec<Completion> {
        let state = String::from_utf8_lossy(&self.joiner_state.borrow()).into_owned();
        self.joiner_platform
            .take_deliveries()
            .into_iter()
            .filter_map(|delivery| match delivery.kind {
                DeliveryKind::Rejoined {
                    donor,
                    transfer_epochs,
                    ..
                } => Some(Completion {
                    observer: "joiner",
                    epoch: transfer_epochs,
                    decision: format!("donor={donor:?} state={state}"),
                }),
                _ => None,
            })
            .collect()
    }

    /// Ferries request/chunk traffic until the transfer completes, dropping
    /// the first message of `drop_class` (once).
    fn pump(&mut self, mut outgoing: Vec<(NodeId, Message)>, drop_class: Option<&str>) {
        let mut dropped = false;
        for _ in 0..64 {
            if drop_class == Some("request") && !dropped && !outgoing.is_empty() {
                outgoing.remove(0);
                dropped = true;
            }
            if outgoing.is_empty() {
                // Nothing in flight: the joiner's retry tick re-requests.
                self.joiner_platform.advance(500);
                fire_pending_timers(&mut self.joiner, &mut self.joiner_platform);
                outgoing = request_messages(&self.joiner.drain_down());
                if outgoing.is_empty() {
                    return;
                }
                continue;
            }
            for (donor, request) in outgoing.drain(..) {
                let mut chunks = self.serve(donor, request);
                if drop_class == Some("chunk") && !dropped && !chunks.is_empty() {
                    chunks.remove(0);
                    dropped = true;
                }
                for chunk in chunks {
                    self.deliver_chunk(donor, chunk);
                }
            }
            outgoing = request_messages(&self.joiner.drain_down());
        }
        panic!("transfer never quiesced");
    }
}

impl RoundAdapter for RecoveryAdapter {
    fn name(&self) -> &'static str {
        "recovery"
    }

    fn classes(&self) -> &'static [&'static str] {
        &["request", "chunk"]
    }

    fn repeatable(&self) -> bool {
        // A joiner rejoins once; epoch advance across aborts is covered by
        // `abort_and_repropose`.
        false
    }

    fn run_round(&mut self, drop_class: Option<&'static str>) -> Vec<Completion> {
        let outgoing = self.admit();
        assert!(!outgoing.is_empty(), "admission opens the transfer");
        self.pump(outgoing, drop_class);
        let completions = self.completions();
        assert_eq!(
            &*self.joiner_state.borrow(),
            DONOR0_STATE,
            "the joiner installed the first donor's snapshot"
        );
        completions
    }

    fn stale_replay(&mut self) -> (Vec<Completion>, Vec<Completion>) {
        // Donor 0 streams its first window, then goes silent: capture its
        // epoch-1 chunks as the stale artefacts.
        let mut outgoing = self.admit();
        let (donor, request) = outgoing.remove(0);
        let stale_chunks = self.serve(donor, request);
        assert!(!stale_chunks.is_empty(), "donor 0 answered epoch 1");

        // The stalled transfer fails over to donor 1 under epoch 2.
        self.joiner_platform.advance(4_100);
        fire_pending_timers(&mut self.joiner, &mut self.joiner_platform);
        let outgoing = request_messages(&self.joiner.drain_down());
        assert!(
            outgoing.iter().all(|(donor, _)| *donor == NodeId(1)),
            "after failover every request targets donor 1"
        );

        // Replaying donor 0's epoch-1 chunks against the epoch-2 transfer
        // must neither complete it nor leak bytes into its chunk map.
        for chunk in stale_chunks {
            let header = chunk.clone().pop::<StateChunkHeader>().expect("header");
            assert_eq!(header.transfer_epoch, 1, "captured chunks are epoch 1");
            self.deliver_chunk(NodeId(0), chunk);
        }
        let replayed = self.completions();

        // Donor 1 completes the genuine epoch-2 transfer.
        self.pump(outgoing, None);
        let genuine = self.completions();
        assert_eq!(
            &*self.joiner_state.borrow(),
            DONOR1_STATE,
            "the installed snapshot is donor 1's, untouched by stale chunks"
        );
        (replayed, genuine)
    }

    fn abort_and_repropose(&mut self) -> (u64, u64) {
        // Donor 0 never answers: the stall timeout aborts transfer epoch 1
        // and re-opens epoch 2 at the next donor.
        let outgoing = self.admit();
        assert!(!outgoing.is_empty(), "admission opens the transfer");
        self.joiner_platform.advance(4_100);
        fire_pending_timers(&mut self.joiner, &mut self.joiner_platform);
        let outgoing = request_messages(&self.joiner.drain_down());
        assert!(
            outgoing.iter().all(|(donor, _)| *donor == NodeId(1)),
            "the failover targets donor 1"
        );
        self.pump(outgoing, None);
        let completions = self.completions();
        assert!(!completions.is_empty(), "the failover transfer completes");
        assert_eq!(
            &*self.joiner_state.borrow(),
            DONOR1_STATE,
            "the second donor's snapshot installed"
        );
        // `transfer_epochs` counts the epochs used: 2 means the round was
        // aborted once and completed under the fresh epoch.
        (1, completions[0].epoch)
    }
}

// ---------------------------------------------------------------------------
// The suite: one conformance run per protocol adapter.
// ---------------------------------------------------------------------------

#[test]
fn control_rounds_conform_to_the_round_engine_contract() {
    check_conformance(ControlAdapter::new);
}

#[test]
fn vsync_rounds_conform_to_the_round_engine_contract() {
    check_conformance(VsyncAdapter::new);
}

#[test]
fn recovery_transfers_conform_to_the_round_engine_contract() {
    check_conformance(RecoveryAdapter::new);
}
