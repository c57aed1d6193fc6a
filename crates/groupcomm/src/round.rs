//! The shared round engine.
//!
//! Reconfiguration rounds (`morpheus-core`'s control layer), view-synchrony
//! rounds ([`crate::vsync`]) and state-transfer epochs ([`crate::recovery`])
//! are the same machine: a *proposer* opens a round under a monotonically
//! increasing epoch, ships a proposal to a set of participants, collects acks,
//! retransmits to the missing on a timer, aborts and re-proposes under a fresh
//! epoch on timeout, and fast-forwards its epoch when a participant reports a
//! stronger promise. This module is the one copy of that machinery; the three
//! protocols instantiate it and keep only their wire formats and payloads.
//!
//! * [`Ballot`] — the Paxos-style `(epoch, holder)` ordering: higher epoch
//!   wins, equal epochs tie-break towards the **lower** node id.
//! * [`Engine`] — epoch monotonicity, the in-flight [`Round`], ack
//!   bookkeeping, the retransmit/timeout [`Engine::tick`], abort/re-propose
//!   and StaleBallot [`Engine::fast_forward`].
//! * [`Engine::completed`] — the `AwaitThreshold`-style completion predicate:
//!   every participant outside the caller's exclusion set (suspected members,
//!   typically) has acked.
//!
//! The engine is transport-agnostic: it never touches events, messages or
//! timers. Callers translate its outcomes ([`Promise`], [`AckOutcome`],
//! [`Tick`]) into their own wire traffic.

use std::collections::BTreeSet;

use morpheus_appia::platform::NodeId;

/// Whether ballot `(epoch, holder)` beats the ballot `current`.
///
/// Higher epochs win; at equal epochs the **lower** node id wins, so two
/// concurrent proposers at the same epoch always resolve the same way on
/// every node.
pub fn ballot_beats(epoch: u64, holder: NodeId, current: (u64, NodeId)) -> bool {
    epoch > current.0 || (epoch == current.0 && holder.0 < current.1 .0)
}

/// A Paxos-style ballot: a proposal epoch plus the proposing node.
///
/// The ordering is total: `a > b` exactly when `a` would beat `b` in a
/// promise contest (higher epoch, or equal epoch and lower holder id).
/// [`Ballot::ZERO`] — epoch 0 held by node 0 — is the identity no real
/// proposal can tie with more strongly: every opened round starts at epoch 1
/// or above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ballot {
    /// The proposal epoch.
    pub epoch: u64,
    /// The node that opened (or promised) this epoch.
    pub holder: NodeId,
}

impl Ballot {
    /// The pre-history ballot every engine starts from.
    pub const ZERO: Ballot = Ballot {
        epoch: 0,
        holder: NodeId(0),
    };

    /// A ballot at `epoch` held by `holder`.
    pub fn new(epoch: u64, holder: NodeId) -> Self {
        Self { epoch, holder }
    }

    /// Whether this ballot wins a promise contest against `other`.
    pub fn beats(self, other: Ballot) -> bool {
        ballot_beats(self.epoch, self.holder, (other.epoch, other.holder))
    }
}

impl Ord for Ballot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lower holder id is the *stronger* ballot at equal epochs, hence the
        // reversed holder comparison.
        self.epoch
            .cmp(&other.epoch)
            .then(other.holder.0.cmp(&self.holder.0))
    }
}

impl PartialOrd for Ballot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The outcome of a participant-side promise attempt
/// ([`Engine::try_promise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Promise {
    /// The ballot is the strongest seen (or re-presents the current promise
    /// with no round in flight): accept it and open the round under it.
    Accepted,
    /// The exact promised ballot arrived again while its round is still in
    /// flight — a retransmission; re-ack, do not re-deliver the proposal.
    Duplicate,
    /// A stronger ballot has already been promised. The carried ballot is
    /// what the proposer should be told (the `StaleBallot` NACK payload).
    Superseded(Ballot),
}

/// The outcome of recording a participant's ack ([`Engine::record_ack`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// A fresh ack for the in-flight round: re-check completion.
    Recorded,
    /// Already acked this round — a retransmission, safe to ignore.
    Duplicate,
    /// The ack names a different epoch (or no round is in flight): a replay
    /// from an aborted or completed round. It must never count towards the
    /// current round's completion.
    Stale,
}

/// What a timer tick asks the caller to do ([`Engine::tick`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tick<P> {
    /// No round is in flight; nothing to do.
    Idle,
    /// The round outlived the timeout: abort it and re-propose under a fresh
    /// epoch (the engine does *not* abort on its own — callers own the
    /// re-propose policy).
    TimedOut,
    /// The round is still young: retransmit the proposal to these
    /// participants (the ones that have not acked yet; empty when everyone
    /// acked but completion is blocked on an exclusion).
    Retransmit(Vec<P>),
}

/// One round: the proposal's ballot, who must ack, who has. The
/// participant and ack sets are sorted, duplicate-free lists.
#[derive(Debug, Clone)]
pub struct Round<P: Ord + Copy> {
    /// The ballot the round runs under.
    pub ballot: Ballot,
    // bound: frozen at open (grown only by extend_participants when a
    // transfer learns its chunk count); one entry per round participant,
    // refilled by the next open.
    participants: Vec<P>,
    // bound: subset of `participants` plus stray acks from members that
    // joined mid-round; emptied by the next open.
    acked: Vec<P>,
    /// When the round was opened (or last made progress, if the caller
    /// refreshes via [`Engine::note_progress`]).
    pub started_at_ms: u64,
    /// How many retransmission ticks the round has survived.
    pub retransmits: u64,
}

impl<P: Ord + Copy> Round<P> {
    /// The participants the round was opened over, in order.
    pub fn participants(&self) -> &[P] {
        &self.participants
    }

    /// The participants whose acks have been recorded, in order.
    pub fn acked(&self) -> &[P] {
        &self.acked
    }

    /// Whether `participant` must ack the round.
    pub fn has_participant(&self, participant: &P) -> bool {
        self.participants.binary_search(participant).is_ok()
    }

    /// Whether `participant`'s ack has been recorded.
    pub fn has_acked(&self, participant: &P) -> bool {
        self.acked.binary_search(participant).is_ok()
    }

    /// Records `participant`'s ack; whether it was new.
    fn ack(&mut self, participant: P) -> bool {
        match self.acked.binary_search(&participant) {
            Ok(_) => false,
            Err(at) => {
                self.acked.insert(at, participant);
                true
            }
        }
    }

    /// The participants that have not acked yet, in order.
    fn missing(&self) -> impl Iterator<Item = P> + '_ {
        self.participants
            .iter()
            .copied()
            .filter(|participant| !self.has_acked(participant))
    }
}

/// Replaces `list` with the sorted, duplicate-free `values`, keeping its
/// memory.
fn refill<P: Ord>(list: &mut Vec<P>, values: impl IntoIterator<Item = P>) {
    list.clear();
    list.extend(values);
    list.sort_unstable();
    list.dedup();
}

/// The reusable round engine: epoch monotonicity, ballot ordering, ack
/// bookkeeping, retransmit/timeout ticks and stale-ballot fast-forward.
///
/// `P` is the participant key — `NodeId` for membership rounds, a chunk
/// index for state transfers. The engine holds at most one round in flight;
/// epochs only move forward (abort preserves the epoch, [`Engine::reset`] is
/// the single deliberate exception for a node restarting from scratch). It
/// keeps the last round after it closes and refills its sets for the next
/// one, so a round allocates only when it outgrows every earlier one.
#[derive(Debug, Clone)]
pub struct Engine<P: Ord + Copy> {
    /// The strongest ballot seen: the highest epoch this engine opened
    /// itself or promised to another proposer.
    promised: Ballot,
    /// The last round opened: in flight while `in_flight` is set.
    round: Round<P>,
    /// Whether `round` is in flight.
    in_flight: bool,
}

impl<P: Ord + Copy> Default for Engine<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Ord + Copy> Engine<P> {
    /// A fresh engine at [`Ballot::ZERO`] with no round in flight.
    pub fn new() -> Self {
        Self {
            promised: Ballot::ZERO,
            round: Round {
                ballot: Ballot::ZERO,
                participants: Vec::new(),
                acked: Vec::new(),
                started_at_ms: 0,
                retransmits: 0,
            },
            in_flight: false,
        }
    }

    /// The current epoch (never decreases except across [`Engine::reset`]).
    pub fn epoch(&self) -> u64 {
        self.promised.epoch
    }

    /// The strongest ballot seen so far.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The in-flight round, if any.
    pub fn round(&self) -> Option<&Round<P>> {
        self.in_flight.then_some(&self.round)
    }

    /// The in-flight round, if any, to update.
    fn round_mut(&mut self) -> Option<&mut Round<P>> {
        self.in_flight.then_some(&mut self.round)
    }

    /// Whether a round is in flight.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// The in-flight round's epoch, if any.
    pub fn round_epoch(&self) -> Option<u64> {
        self.round().map(|round| round.ballot.epoch)
    }

    /// Opens a proposer-side round under a fresh epoch (`epoch() + 1`) held
    /// by `holder`, over `participants`. Returns the new ballot.
    pub fn open(
        &mut self,
        holder: NodeId,
        participants: impl IntoIterator<Item = P>,
        now_ms: u64,
    ) -> Ballot {
        let ballot = Ballot::new(self.promised.epoch + 1, holder);
        self.open_at(ballot, participants, now_ms);
        ballot
    }

    /// Opens a round under an exact ballot: the participant side joining a
    /// promised proposal, or a proposer working in a reserved epoch
    /// namespace (catch-up transfers). The promised epoch only moves
    /// forward — an `open_at` below the current promise opens the round but
    /// cannot regress the epoch.
    pub fn open_at(
        &mut self,
        ballot: Ballot,
        participants: impl IntoIterator<Item = P>,
        now_ms: u64,
    ) {
        if ballot.beats(self.promised) {
            self.promised = ballot;
        }
        let round = &mut self.round;
        round.ballot = ballot;
        refill(&mut round.participants, participants);
        round.acked.clear();
        round.started_at_ms = now_ms;
        round.retransmits = 0;
        self.in_flight = true;
    }

    /// Adopts `ballot` as the strongest seen if it beats the current
    /// promise. Returns whether it did. (A committed decision observed from
    /// another proposer, for example.)
    pub fn adopt(&mut self, ballot: Ballot) -> bool {
        if ballot.beats(self.promised) {
            self.promised = ballot;
            true
        } else {
            false
        }
    }

    /// Participant-side promise: decides whether a proposal's ballot should
    /// be accepted, re-acked, or NACKed with the stronger promise.
    pub fn try_promise(&mut self, ballot: Ballot) -> Promise {
        if ballot.beats(self.promised) {
            self.promised = ballot;
            return Promise::Accepted;
        }
        if ballot == self.promised {
            return if !self.in_flight {
                // The promised round was aborted locally (timeout,
                // suspicion): re-presenting the same ballot re-opens it.
                Promise::Accepted
            } else {
                Promise::Duplicate
            };
        }
        Promise::Superseded(self.promised)
    }

    /// Fast-forwards the epoch past `epoch` (a `StaleBallot` NACK citing a
    /// stronger promise): the next [`Engine::open`] proposes above it
    /// instead of crawling there one timeout at a time.
    pub fn fast_forward(&mut self, epoch: u64) {
        self.promised.epoch = self.promised.epoch.max(epoch);
    }

    /// Aborts the in-flight round, preserving the epoch (monotonicity: the
    /// re-propose opens above it). Returns the aborted round, which the
    /// engine keeps until the next open.
    pub fn abort(&mut self) -> Option<&Round<P>> {
        self.close()
    }

    /// Completes the in-flight round on commit. Returns the completed
    /// round, which the engine keeps until the next open.
    pub fn complete(&mut self) -> Option<&Round<P>> {
        self.close()
    }

    fn close(&mut self) -> Option<&Round<P>> {
        std::mem::take(&mut self.in_flight).then_some(&self.round)
    }

    /// Forgets everything — ballot back to [`Ballot::ZERO`], no round. Only
    /// for a node deliberately restarting from scratch (rejoin): epochs are
    /// otherwise monotonic for the engine's lifetime.
    pub fn reset(&mut self) {
        self.promised = Ballot::ZERO;
        self.in_flight = false;
    }

    /// Records `from`'s ack for round `epoch`.
    pub fn record_ack(&mut self, epoch: u64, from: P) -> AckOutcome {
        match self.round_mut() {
            Some(round) if round.ballot.epoch == epoch => {
                if round.ack(from) {
                    AckOutcome::Recorded
                } else {
                    AckOutcome::Duplicate
                }
            }
            _ => AckOutcome::Stale,
        }
    }

    /// Records a batch of acks for round `epoch` (a received flush set),
    /// returning how many were new. Stale epochs record nothing.
    pub fn merge_acks(&mut self, epoch: u64, from: impl IntoIterator<Item = P>) -> usize {
        match self.round_mut() {
            Some(round) if round.ballot.epoch == epoch => from
                .into_iter()
                .filter(|participant| round.ack(*participant))
                .count(),
            _ => 0,
        }
    }

    /// Replaces the in-flight round's participant set (a view installed
    /// mid-round changes who must ack a reconfiguration).
    pub fn set_participants(&mut self, participants: impl IntoIterator<Item = P>) {
        if let Some(round) = self.round_mut() {
            refill(&mut round.participants, participants);
        }
    }

    /// Grows the in-flight round's participant set (a transfer learning its
    /// chunk count from the first chunk).
    pub fn extend_participants(&mut self, participants: impl IntoIterator<Item = P>) {
        if let Some(round) = self.round_mut() {
            round.participants.extend(participants);
            round.participants.sort_unstable();
            round.participants.dedup();
        }
    }

    /// The `AwaitThreshold` completion predicate: a round is in flight and
    /// every participant outside `excluded` (suspected members, typically)
    /// has acked.
    pub fn completed(&self, excluded: &BTreeSet<P>) -> bool {
        self.round().is_some_and(|round| {
            round
                .missing()
                .all(|participant| excluded.contains(&participant))
        })
    }

    /// The participants that have not acked the in-flight round yet — the
    /// retransmission targets. Empty when no round is in flight.
    pub fn missing(&self) -> Vec<P> {
        self.round()
            .map_or_else(Vec::new, |round| round.missing().collect())
    }

    /// Refreshes the round's progress clock (state transfers time out on
    /// *stalls*, not on total round age).
    pub fn note_progress(&mut self, now_ms: u64) {
        if let Some(round) = self.round_mut() {
            round.started_at_ms = now_ms;
        }
    }

    /// One retransmission-interval tick: decides between timeout (abort +
    /// re-propose, owned by the caller) and retransmission to the missing
    /// participants. Counts a retransmission when there is anyone to
    /// retransmit to.
    pub fn tick(&mut self, now_ms: u64, timeout_ms: u64) -> Tick<P> {
        let Some(round) = self.round_mut() else {
            return Tick::Idle;
        };
        if now_ms.saturating_sub(round.started_at_ms) >= timeout_ms {
            return Tick::TimedOut;
        }
        let missing: Vec<P> = round.missing().collect();
        if !missing.is_empty() {
            round.retransmits += 1;
        }
        Tick::Retransmit(missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32) -> NodeId {
        NodeId(id)
    }

    #[test]
    fn ballot_order_prefers_higher_epoch_then_lower_id() {
        let a = Ballot::new(2, node(5));
        let b = Ballot::new(1, node(0));
        assert!(a.beats(b) && a > b);
        let c = Ballot::new(2, node(3));
        assert!(c.beats(a) && c > a, "lower id wins the tie-break");
        assert!(!a.beats(a));
        assert!(Ballot::new(1, node(1)).beats(Ballot::ZERO));
    }

    #[test]
    fn open_bumps_the_epoch_and_freezes_participants() {
        let mut engine: Engine<NodeId> = Engine::new();
        let ballot = engine.open(node(0), [node(1), node(2)], 100);
        assert_eq!(ballot, Ballot::new(1, node(0)));
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.round().unwrap().participants().len(), 2);
        assert_eq!(engine.missing(), vec![node(1), node(2)]);
    }

    #[test]
    fn completion_requires_every_unexcluded_participant() {
        let mut engine: Engine<NodeId> = Engine::new();
        engine.open(node(0), [node(1), node(2), node(3)], 0);
        assert_eq!(engine.record_ack(1, node(1)), AckOutcome::Recorded);
        assert_eq!(engine.record_ack(1, node(1)), AckOutcome::Duplicate);
        let none = BTreeSet::new();
        assert!(!engine.completed(&none));
        // Excluding the suspects lowers the threshold to the live set.
        let suspects: BTreeSet<NodeId> = [node(2), node(3)].into();
        assert!(engine.completed(&suspects));
        engine.record_ack(1, node(2));
        engine.record_ack(1, node(3));
        assert!(engine.completed(&none));
        assert!(engine.missing().is_empty());
    }

    #[test]
    fn stale_acks_never_count() {
        let mut engine: Engine<NodeId> = Engine::new();
        engine.open(node(0), [node(1)], 0);
        assert_eq!(engine.record_ack(7, node(1)), AckOutcome::Stale);
        engine.abort();
        // A replay of a current-epoch ack after the abort is stale too.
        assert_eq!(engine.record_ack(1, node(1)), AckOutcome::Stale);
        // Re-proposing opens a fresh epoch; the old epoch's acks stay stale.
        engine.open(node(0), [node(1)], 10);
        assert_eq!(engine.round_epoch(), Some(2));
        assert_eq!(engine.record_ack(1, node(1)), AckOutcome::Stale);
        assert!(!engine.completed(&BTreeSet::new()));
    }

    #[test]
    fn tick_retransmits_young_rounds_and_times_out_old_ones() {
        let mut engine: Engine<NodeId> = Engine::new();
        engine.open(node(0), [node(1), node(2)], 1_000);
        engine.record_ack(1, node(1));
        assert_eq!(engine.tick(1_500, 4_000), Tick::Retransmit(vec![node(2)]));
        assert_eq!(engine.round().unwrap().retransmits, 1);
        assert_eq!(engine.tick(5_000, 4_000), Tick::TimedOut);
        // Timeout does not abort by itself: the caller owns re-propose.
        assert!(engine.in_flight());
        engine.abort();
        assert_eq!(engine.tick(5_000, 4_000), Tick::Idle);
    }

    #[test]
    fn promises_accept_stronger_ballots_and_nack_weaker_ones() {
        let mut engine: Engine<NodeId> = Engine::new();
        assert_eq!(
            engine.try_promise(Ballot::new(3, node(2))),
            Promise::Accepted
        );
        engine.open_at(Ballot::new(3, node(2)), [node(0)], 0);
        // The same ballot while its round is in flight is a retransmission.
        assert_eq!(
            engine.try_promise(Ballot::new(3, node(2))),
            Promise::Duplicate
        );
        // A lower id at the same epoch supersedes; a higher id is NACKed.
        assert_eq!(
            engine.try_promise(Ballot::new(3, node(1))),
            Promise::Accepted
        );
        assert_eq!(
            engine.try_promise(Ballot::new(3, node(2))),
            Promise::Superseded(Ballot::new(3, node(1)))
        );
        // After a local abort, re-presenting the promised ballot re-opens it.
        engine.abort();
        assert_eq!(
            engine.try_promise(Ballot::new(3, node(1))),
            Promise::Accepted
        );
    }

    #[test]
    fn epochs_survive_abort_and_only_reset_on_rejoin() {
        let mut engine: Engine<NodeId> = Engine::new();
        engine.open(node(0), [node(1)], 0);
        engine.abort();
        assert_eq!(engine.epoch(), 1, "abort keeps the epoch");
        engine.open(node(0), [node(1)], 10);
        assert_eq!(engine.round_epoch(), Some(2));
        engine.reset();
        assert_eq!(engine.epoch(), 0);
        assert!(!engine.in_flight());
    }

    /// Pins the PR 6 StaleBallot-cascade livelock (fault-explorer seeds 8
    /// and 9, churn+corrupt) at the engine level. A rejoiner that crashed
    /// mid-proposal leaves a trail of abandoned high-epoch promises on the
    /// survivors (epochs 5..=9 here). Without the fast-forward, the live
    /// proposer at epoch 1 re-proposes at 2, 3, 4, … — one *timeout* per
    /// epoch — and the group livelocks behind the trail. With it, every
    /// NACK jumps the proposer straight past the cited promise, so the
    /// cascade costs one re-propose per distinct promise, not one per epoch.
    #[test]
    fn stale_ballot_cascade_fast_forwards_past_abandoned_promises() {
        let mut proposer: Engine<NodeId> = Engine::new();
        let mut survivor: Engine<NodeId> = Engine::new();
        // The rejoiner's abandoned rounds scattered promises at 5..=9.
        for epoch in 5..=9u64 {
            survivor.adopt(Ballot::new(epoch, node(7)));
        }

        let mut proposals = 0;
        loop {
            let ballot = proposer.open(node(1), [node(2)], proposals * 100);
            proposals += 1;
            assert!(proposals <= 2, "fast-forward must not crawl epoch by epoch");
            match survivor.try_promise(ballot) {
                Promise::Accepted => break,
                Promise::Superseded(promised) => {
                    proposer.fast_forward(promised.epoch);
                    proposer.abort();
                }
                Promise::Duplicate => unreachable!("no round in flight on the survivor"),
            }
        }
        // One NACK (citing epoch 9), one fast-forwarded re-propose at 10.
        assert_eq!(proposals, 2);
        assert_eq!(proposer.round_epoch(), Some(10));
        assert!(proposer.epoch() > 9);
    }

    #[test]
    fn merge_acks_counts_only_fresh_entries_for_the_exact_epoch() {
        let mut engine: Engine<NodeId> = Engine::new();
        engine.open(node(0), [node(1), node(2), node(3)], 0);
        assert_eq!(engine.merge_acks(1, [node(1), node(2)]), 2);
        assert_eq!(engine.merge_acks(1, [node(2), node(3)]), 1);
        assert_eq!(
            engine.merge_acks(2, [node(3)]),
            0,
            "stale epoch merges nothing"
        );
        assert!(engine.completed(&BTreeSet::new()));
    }

    #[test]
    fn chunk_index_rounds_learn_their_participants_late() {
        // The recovery instantiation: participants are chunk indices, the
        // total is only known once the first chunk arrives.
        let mut engine: Engine<u32> = Engine::new();
        engine.open_at(Ballot::new(1, node(0)), [], 0);
        engine.extend_participants(0..3);
        engine.record_ack(1, 0);
        engine.record_ack(1, 2);
        assert_eq!(engine.missing(), vec![1]);
        engine.note_progress(500);
        assert_eq!(engine.tick(600, 4_000), Tick::Retransmit(vec![1]));
        engine.record_ack(1, 1);
        assert!(engine.completed(&BTreeSet::new()));
    }

    #[test]
    fn open_at_cannot_regress_the_promised_epoch() {
        let mut engine: Engine<u32> = Engine::new();
        engine.fast_forward(50);
        engine.open_at(Ballot::new(10, node(0)), [], 0);
        assert_eq!(engine.epoch(), 50, "promise is monotonic");
        assert_eq!(engine.round_epoch(), Some(10), "the round still opens");
    }
}
