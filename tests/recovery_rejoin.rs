//! End-to-end recovery: a genuinely restarted node rejoins the group through
//! the view-synchronous state-transfer protocol — join view change, chunked
//! snapshot from the deterministic donor, buffered join-view replay, control
//! plane repair — while the survivors keep chatting without losing a single
//! message. All runs are seeded and deterministic.

use std::collections::BTreeSet;
use std::rc::Rc;

use morpheus::chat::ChatHistoryBinding;
use morpheus::prelude::*;
use morpheus::testbed::{RunReport, Runner};

/// Runs a recovery scenario with a real chat application bound to every
/// node and returns the report plus the binding (which holds the final
/// per-node room histories).
fn run_chat(scenario: &Scenario) -> (RunReport, ChatHistoryBinding) {
    let mut binding = ChatHistoryBinding::new("icdcs");
    let report = Runner::new().run_with_binding(scenario, &mut binding);
    (report, binding)
}

#[test]
fn a_restarted_node_at_n50_rejoins_with_store_and_history_intact() {
    // 50 nodes on the epidemic data stack; node 49 crashes at 12 s, is
    // expelled, restarts empty at 20 s and rejoins while chat keeps flowing —
    // over a clean control channel and at 10% and 30% control loss.
    for loss in [0.0, 0.1, 0.3] {
        let scenario = Scenario::member_restart(50, loss);
        let restarting = scenario.restarting_members()[0];
        let (report, binding) = run_chat(&scenario);

        // Zero data loss for surviving members: the only unreceived packets are
        // the ones addressed to the node while it was crashed.
        assert_eq!(
            report.messages_lost, 0,
            "no live-link data loss at control loss {loss}"
        );
        assert!(report.messages_lost_to_crashed > 0, "the crash was real");

        // The node rejoined, within a bounded latency, via the deterministic
        // donor (the lowest live id in the join view).
        let node = report.node(restarting).unwrap();
        assert_eq!(node.restarts, 1);
        let rejoin = node.rejoin.as_ref().expect("the restarted node rejoined");
        assert_eq!(rejoin.donor, NodeId(0));
        assert!(
            rejoin.elapsed_ms < 5_000,
            "rejoin latency {} ms exceeds the bound at control loss {loss}",
            rejoin.elapsed_ms
        );
        assert!(rejoin.bytes > 0 && rejoin.chunks > 1, "chunked snapshot");

        // Control-plane repair converged the rejoiner onto the committed stack
        // (the large-group rule moved the group to epidemic multicast long
        // before the crash).
        assert!(
            node.final_stack.starts_with("gossip"),
            "rejoiner repaired onto the committed stack (got {})",
            node.final_stack
        );

        // Store intact: the snapshot seeded the context store, so the rejoiner
        // reports full-membership context coverage again after the restart.
        assert!(
            node.context_converged_ms.is_some(),
            "post-restart context convergence"
        );

        // Chat history intact: messages sent while the node was down can only
        // be known through the donor's snapshot. The donor (node 0, itself a
        // sender) records its own sends, so its part of the downtime traffic
        // must be in the rejoiner's history completely; the other senders'
        // messages reached the donor over the epidemic stack, whose coverage is
        // probabilistic — assert a high floor over the aggregate instead.
        let history = binding.history(restarting).expect("history bound");
        let downtime = scenario.workload.seqs_sent_between(13_000, 19_000);
        assert!(!downtime.is_empty());
        let donor_sender = ChatHistoryBinding::sender_name(NodeId(0));
        for seq in downtime.clone() {
            assert!(
                history.contains("icdcs", &donor_sender, seq),
                "history misses the donor's own {donor_sender}:{seq}, \
                 sent while the node was down"
            );
        }
        let covered = (0..3u32)
            .flat_map(|sender| {
                let sender = ChatHistoryBinding::sender_name(NodeId(sender));
                downtime
                    .clone()
                    .filter(move |seq| history.contains("icdcs", &sender, *seq))
            })
            .count();
        let total = downtime.clone().count() * 3;
        // Pre-repair baseline: the epidemic push phase left the donor's history
        // only ~90-95% complete at n = 50, so this bound used to be >= 90%.
        // With the NACK/anti-entropy repair pass the donor's deliveries — and
        // therefore the snapshot — are complete, so the bound is >= 99.9%.
        assert!(
            covered * 1000 >= total * 999,
            "rejoiner recovered only {covered}/{total} downtime messages at control loss {loss}"
        );
        assert_eq!(binding.decode_failures(), 0);

        // The survivors kept near-complete epidemic coverage throughout.
        for survivor in report.nodes.iter().filter(|n| n.node != restarting) {
            assert!(
                survivor.app_deliveries >= 180,
                "survivor {} delivered only {} messages",
                survivor.node,
                survivor.app_deliveries
            );
        }
    }
}

/// Counts `Data` deliveries that hand one incarnation of a node the same
/// message twice. Payloads are the runner's built-in ones, which it numbers
/// `chat:<sender>:<seq>:`, so equal bytes mean the same (sender, seq). A
/// node's column is cleared when the runner asks for its state sections a
/// second time — a restart, after which the fresh incarnation is owed
/// everything again.
#[derive(Default)]
struct DuplicateCounter {
    booted: BTreeSet<NodeId>,
    delivered: BTreeSet<(NodeId, Vec<u8>)>,
    duplicates: u64,
}

impl AppBinding for DuplicateCounter {
    fn state_sections(&mut self, node: NodeId) -> Vec<Rc<dyn StateSection>> {
        if !self.booted.insert(node) {
            self.delivered.retain(|(receiver, _)| *receiver != node);
        }
        Vec::new()
    }

    fn on_delivery(&mut self, node: NodeId, delivery: &AppDelivery) {
        if let DeliveryKind::Data { payload, .. } = &delivery.kind {
            if !self.delivered.insert((node, payload.to_vec())) {
                self.duplicates += 1;
            }
        }
    }
}

#[test]
fn a_rejoiner_repaired_twice_onto_the_same_stack_is_never_handed_a_message_twice() {
    // Under 10% control loss the rejoiner's ack for the repair command is
    // lost about one time in ten; the coordinator then re-asserts the same
    // configuration under a higher epoch. Redeploying it used to replace the
    // rejoiner's gossip session with an empty one, whose repair pass pulled
    // the last ten seconds of chat a second time (seeds 47, 54 and 55 did).
    for seed in [47, 54, 55].into_iter().chain(1..=8) {
        let scenario = Scenario::member_restart(50, 0.1).with_seed(seed);
        let mut binding = DuplicateCounter::default();
        let report = Runner::new().run_with_binding(&scenario, &mut binding);
        assert_eq!(
            binding.duplicates, 0,
            "seed {seed}: a (sender, seq) pair reached one incarnation twice"
        );
        assert_eq!(
            report.total_reconfigurations(),
            50,
            "seed {seed}: every member deploys the epidemic stack exactly once"
        );
    }
}

#[test]
fn a_group_crossing_27_members_keeps_its_stack_and_hands_no_message_twice() {
    // At fan-out 3 a view of 28 derives a push TTL of 5 and one of 27 a TTL
    // of 4. The expulsion takes the group from 28 to 27 and the rejoin back:
    // each gossip session re-derives its TTL on the view install, so the
    // policy's choice stays put and no member redeploys its stack — a
    // redeploy would start empty delivery trackers and re-pull the repair
    // log's window.
    for control_loss in [0.0, 0.1] {
        for seed in 1..=3 {
            let scenario = Scenario::member_restart(28, control_loss).with_seed(seed);
            let mut binding = DuplicateCounter::default();
            let report = Runner::new().run_with_binding(&scenario, &mut binding);
            let case = format!("loss {control_loss}, seed {seed}");
            for node in &report.nodes {
                assert_eq!(
                    node.reconfigurations, 1,
                    "{case}: node {} reconfigured {} times",
                    node.node, node.reconfigurations
                );
            }
            assert_eq!(report.total_reconfigurations(), 28, "{case}");
            assert_eq!(
                binding.duplicates, 0,
                "{case}: a (sender, seq) pair reached one incarnation twice"
            );
        }
    }
}

#[test]
fn a_donor_crash_mid_transfer_fails_over_to_the_next_donor() {
    let scenario = Scenario::donor_crash_mid_transfer();
    let restarting = scenario.restarting_members()[0];
    let (report, binding) = run_chat(&scenario);

    assert_eq!(report.messages_lost, 0, "no live-link data loss");

    let node = report.node(restarting).unwrap();
    let rejoin = node
        .rejoin
        .as_ref()
        .expect("rejoin completed despite the donor crash");
    assert!(
        rejoin.transfer_epochs >= 2,
        "the donor crash must be visible as a transfer-epoch failover"
    );
    assert_eq!(
        rejoin.donor,
        NodeId(1),
        "the next-lowest live id takes over as donor"
    );
    assert!(
        rejoin.elapsed_ms < 8_000,
        "failover rejoin latency {} ms exceeds the bound",
        rejoin.elapsed_ms
    );

    // The failed-over snapshot still makes the history whole: messages sent
    // while the node was down came through donor 1.
    let history = binding.history(restarting).expect("history bound");
    let downtime = scenario.workload.seqs_sent_between(5_500, 9_500);
    assert!(!downtime.is_empty());
    for sender in 1..=3u32 {
        let sender = ChatHistoryBinding::sender_name(NodeId(sender));
        for seq in downtime.clone() {
            assert!(
                history.contains("icdcs", &sender, seq),
                "history misses {sender}:{seq} after donor failover"
            );
        }
    }
}

#[test]
fn small_group_restart_keeps_survivor_delivery_complete() {
    // On the best-effort stack (n = 8, below the large-group threshold)
    // coverage is deterministic: every survivor must deliver every message
    // from every other live sender — the crash/restart cycle is invisible
    // to them.
    let scenario = Scenario::member_restart(8, 0.0);
    let restarting = scenario.restarting_members()[0];
    let (report, binding) = run_chat(&scenario);

    assert_eq!(report.messages_lost, 0);
    let messages = scenario.workload.messages_per_sender;
    for survivor in report.nodes.iter().filter(|n| n.node != restarting) {
        let own_sends = if survivor.node.0 < 3 { 1 } else { 0 };
        let expected = (3 - own_sends) * messages;
        assert_eq!(
            survivor.app_deliveries, expected,
            "survivor {} must deliver every message from the other senders",
            survivor.node
        );
    }

    let node = report.node(restarting).unwrap();
    let rejoin = node.rejoin.as_ref().expect("rejoined");
    assert_eq!(rejoin.transfer_epochs, 1, "first donor succeeds");
    assert!(rejoin.elapsed_ms < 3_000);
    // The join-view buffer plus snapshot leave no gap: the rejoiner's
    // history covers the entire run up to the rejoin point and keeps
    // growing afterwards.
    let history = binding.history(restarting).expect("history bound");
    let after_rejoin = scenario.workload.seqs_sent_between(24_000, 30_000);
    for seq in after_rejoin {
        for sender in 0..3u32 {
            let sender = ChatHistoryBinding::sender_name(NodeId(sender));
            assert!(
                history.contains("icdcs", &sender, seq),
                "post-rejoin live delivery misses {sender}:{seq}"
            );
        }
    }
}

#[test]
fn an_expelled_but_alive_member_detects_it_and_rejoins() {
    // Node 7 never crashes: it is partitioned for 8 seconds, long enough
    // for the group to expel it by (false) suspicion — and for its own
    // failure detector to suspect everyone else, which is the self-heal
    // trigger. Once the partition lifts it must re-enter through the
    // joining path like a restarted node, *without* ever restarting.
    let scenario = Scenario::expelled_member(8, 10_000, 18_000);
    let expelled = NodeId(7);
    let (report, binding) = run_chat(&scenario);

    assert_eq!(report.messages_lost, 0, "no live-link data loss");
    assert!(report.partition_dropped > 0, "the partition was real");

    // The group really expelled the member: some survivor saw a 7-member
    // view before the rejoin restored the full membership.
    assert!(
        report
            .nodes
            .iter()
            .filter(|node| node.node != expelled)
            .any(|node| node.min_view_members == Some(7)),
        "the survivors must have installed a view without the partitioned node"
    );

    // The member detected the expulsion and healed through the join path —
    // never having restarted.
    let node = report.node(expelled).unwrap();
    assert_eq!(node.restarts, 0, "the member never crashed or restarted");
    assert!(
        node.notifications
            .iter()
            .any(|text| text.contains("assuming false-suspicion expulsion")),
        "the self-heal detection must be visible: {:?}",
        node.notifications
    );
    let rejoin = node
        .rejoin
        .as_ref()
        .expect("the expelled member completed a rejoin state transfer");
    assert_eq!(rejoin.donor, NodeId(0), "lowest live id donates");

    // After healing it is a full member again: live deliveries resume, so
    // the tail of the chat (sent well after the partition lifted) is in its
    // history via the normal data path, and the partition window itself was
    // made whole by the snapshot.
    let history = binding.history(expelled).expect("history bound");
    let partition_window = scenario.workload.seqs_sent_between(11_000, 17_000);
    let tail = scenario.workload.seqs_sent_between(22_000, 28_000);
    assert!(!partition_window.is_empty() && !tail.is_empty());
    for sender in 0..3u32 {
        let sender = ChatHistoryBinding::sender_name(NodeId(sender));
        for seq in partition_window.clone() {
            assert!(
                history.contains("icdcs", &sender, seq),
                "snapshot misses {sender}:{seq} from the partition window"
            );
        }
        for seq in tail.clone() {
            assert!(
                history.contains("icdcs", &sender, seq),
                "live delivery misses {sender}:{seq} after the rejoin"
            );
        }
    }

    // The survivors were unaffected throughout.
    let messages = scenario.workload.messages_per_sender;
    for survivor in report.nodes.iter().filter(|n| n.node != expelled) {
        let own_sends = if survivor.node.0 < 3 { 1 } else { 0 };
        assert_eq!(
            survivor.app_deliveries,
            (3 - own_sends) * messages,
            "survivor {} must deliver every message from the other senders",
            survivor.node
        );
    }
}

#[test]
fn recovery_runs_are_deterministic_under_a_fixed_seed() {
    let scenario = Scenario::member_restart(8, 0.1);
    let (first, _) = run_chat(&scenario);
    let (second, _) = run_chat(&scenario);
    assert_eq!(first, second, "same seed, same run, same report");
    let rejoin_a = first.rejoins();
    assert_eq!(rejoin_a.len(), 1);
}
