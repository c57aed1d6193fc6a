//! Experiment E3 — safety of the reconfiguration procedure: every chat
//! message sent before, during and after the adaptation is delivered to every
//! other participant, because the view-synchrony layer buffers application
//! sends while the data channel is quiescent and the shared session carries
//! that buffer into the new stack.
//!
//! Since the epoch-stamped protocol this holds on *lossy* control channels
//! and across member/coordinator crashes too, not just in the friendly case:
//! lost commands are retransmitted, lost acks are re-acked on duplicate
//! commands, crashed members are excluded from the ack quorum and a crashed
//! coordinator is deterministically replaced by the next-lowest live id.

use morpheus::prelude::*;

fn adaptive_scenario(devices: usize, messages: u64) -> Scenario {
    let mut scenario = Scenario::figure3(devices, true, messages).with_seed(99);
    // Publish context slowly enough that several chat messages are in flight
    // when the reconfiguration happens.
    scenario.publish_interval_ms = 1500;
    scenario.workload.warmup_ms = 500;
    scenario.cooldown_ms = 4000;
    scenario
}

#[test]
fn no_chat_message_is_lost_across_the_adaptation() {
    let devices = 5;
    let messages = 200;
    let report = Runner::new().run(&adaptive_scenario(devices, messages));

    assert!(
        report.total_reconfigurations() >= devices as u64,
        "all nodes redeployed"
    );
    assert_eq!(report.messages_lost, 0, "loss-free links lose nothing");
    // Every message reaches every other participant exactly once.
    let expected = messages * (devices as u64 - 1);
    assert_eq!(report.total_app_deliveries(), expected);
    assert_eq!(report.total_errors(), 0);
    // The coordinator reported the completed round with its epoch.
    let rounds = report.completed_rounds();
    assert!(!rounds.is_empty());
    assert_eq!(rounds[0].nodes, devices);
    assert_eq!(
        rounds[0].retransmits, 0,
        "no retransmits on loss-free links"
    );
}

#[test]
fn the_baseline_without_adaptation_delivers_the_same_volume() {
    let devices = 5;
    let messages = 200;
    let mut scenario = adaptive_scenario(devices, messages);
    scenario.adaptive = false;
    let report = Runner::new().run(&scenario);
    assert_eq!(report.total_reconfigurations(), 0);
    assert_eq!(
        report.total_app_deliveries(),
        messages * (devices as u64 - 1)
    );
}

#[test]
fn reconfiguration_also_works_when_traffic_is_already_flowing() {
    // A short warm-up means chat traffic starts on the best-effort stack and
    // the switch to Mecho happens mid-conversation.
    let mut scenario = adaptive_scenario(4, 300);
    scenario.workload.warmup_ms = 0;
    let report = Runner::new().run(&scenario);
    assert!(report.total_reconfigurations() >= 4);
    assert_eq!(report.total_app_deliveries(), 300 * 3);
    let mobile = report.node(NodeId(1)).unwrap();
    assert!(mobile.final_stack.starts_with("hybrid-mecho"));
}

#[test]
fn view_changes_are_announced_to_every_application() {
    let report = Runner::new().run(&adaptive_scenario(4, 50));
    for node in &report.nodes {
        assert!(
            node.view_changes >= 1,
            "node {} saw no view change announcement",
            node.node
        );
    }
}

#[test]
fn reconfiguration_converges_under_a_lossy_control_channel() {
    // 10% and 30% of all control-plane packets (commands, acks, heartbeats,
    // context publications) are dropped; the retransmit machinery still
    // converges every node onto the prescribed stack with zero chat loss —
    // as the same preset does over a clean control channel.
    let mut retransmits_seen = 0;
    for loss in [0.0, 0.1, 0.3] {
        let devices = 5;
        let messages = 200;
        let scenario = Scenario::lossy_control(devices, messages, loss);
        let report = Runner::new().run(&scenario);

        assert_eq!(
            report.control_lost > 0,
            loss > 0.0,
            "the control plane was degraded exactly when asked to ({loss})"
        );
        assert_eq!(
            report.messages_lost, 0,
            "control loss {loss} must not lose chat messages"
        );
        assert_eq!(
            report.total_app_deliveries(),
            messages * (devices as u64 - 1),
            "every chat message reaches every other participant at {loss}"
        );
        for node in &report.nodes {
            assert!(
                node.final_stack.starts_with("hybrid-mecho"),
                "node {} ended on {} instead of the prescribed stack (loss {loss})",
                node.node,
                node.final_stack
            );
        }
        assert!(
            !report.completed_rounds().is_empty(),
            "the coordinator observed completion at {loss}"
        );
        retransmits_seen += report.total_retransmits();
    }
    // At least one of the lossy runs must have needed the retransmit
    // machinery (a lucky seed can slip a whole round through 10% loss, but
    // not both rates).
    assert!(
        retransmits_seen > 0,
        "rounds under loss never exercised the retransmit path"
    );
}

#[test]
fn a_coordinator_crash_mid_round_fails_over_and_still_converges() {
    // See `Scenario::coordinator_crash_mid_round`: the coordinator (also the
    // preferred relay) dies 7 ms in with the first round in flight (asserted
    // below via node 0's local deployment count). The control-channel
    // failure detector suspects it, node 1 takes over as coordinator,
    // re-evaluates the policy over the survivors and drives a fresh epoch to
    // completion: every surviving node converges on a relay that is still
    // alive, and no chat message is lost. (Chat starts after the failover
    // settles; the safety claim is about the protocol converging, not about
    // racing data into a dying relay.)
    let report = Runner::new().run(&Scenario::coordinator_crash_mid_round(200));

    assert_eq!(report.messages_lost, 0, "no chat message is lost");
    assert!(report.control_lost > 0, "the control plane was lossy");
    assert!(
        report.node(NodeId(0)).unwrap().reconfigurations >= 1,
        "the crash really happened mid-round: node 0 had already initiated \
         and deployed locally before dying"
    );
    // Every survivor converged on the failover coordinator's stack, whose
    // relay (node 1) is alive — not the dead node 0.
    for id in [1u32, 2, 3, 4] {
        let node = report.node(NodeId(id)).unwrap();
        assert_eq!(
            node.final_stack, "hybrid-mecho-relay1",
            "survivor {id} must converge on the live relay"
        );
    }
    // The failover coordinator completed a round over the 4 survivors.
    let failover_rounds: Vec<_> = report
        .completed_rounds()
        .into_iter()
        .filter(|round| round.coordinator == NodeId(1))
        .cloned()
        .collect();
    assert!(
        !failover_rounds.is_empty(),
        "node 1 completed a round after taking over"
    );
    let last = failover_rounds.last().unwrap();
    assert_eq!(last.stack, "hybrid-mecho-relay1");
    assert_eq!(last.nodes, 4, "the quorum excludes the crashed coordinator");
    // All 200 messages reached the three surviving receivers.
    assert_eq!(report.total_app_deliveries(), 200 * 3);
}

#[test]
fn a_crashed_member_does_not_wedge_an_in_flight_round() {
    // A mobile *member* (not the coordinator) crashes while the round is in
    // flight: the failure detector removes it from the ack quorum and the
    // round completes over the survivors.
    let mut scenario = Scenario::new("member-crash-mid-round", 1, 4)
        .with_control_loss(0.2)
        .with_seed(11)
        .with_failure(4, NodeId(4));
    scenario.publish_interval_ms = 500;
    scenario.hb_interval_ms = 300;
    scenario.suspect_timeout_ms = 1200;
    scenario.retransmit_interval_ms = 300;
    scenario.round_timeout_ms = 2500;
    scenario.workload = Workload::paper_chat(vec![NodeId(1)], 150);
    scenario.workload.warmup_ms = 8000;
    scenario.cooldown_ms = 4000;

    let report = Runner::new().run(&scenario);

    assert_eq!(report.messages_lost, 0);
    let rounds = report.completed_rounds();
    assert!(!rounds.is_empty(), "the round completed despite the crash");
    assert_eq!(
        rounds.last().unwrap().nodes,
        4,
        "the quorum shrank to the survivors"
    );
    for id in [0u32, 1, 2, 3] {
        let node = report.node(NodeId(id)).unwrap();
        assert!(
            node.final_stack.starts_with("hybrid-mecho"),
            "survivor {id} converged (got {})",
            node.final_stack
        );
    }
    assert_eq!(report.total_app_deliveries(), 150 * 3);
}

/// A command names its stack; each node renders the channel description
/// from its own catalogue, so no description crosses the wire. The tally
/// sums bytes per event type, so the bound is on the mean packet; every
/// round of this run names one stack under an 8-byte epoch from one
/// coordinator, so every command packet has that one size.
#[test]
fn a_reconfiguration_command_fits_in_64_bytes() {
    let report = Runner::new().run(&adaptive_scenario(9, 50));
    let rounds = report.completed_rounds();
    assert!(!rounds.is_empty(), "the hybrid group adapted");
    for round in &rounds {
        assert!(
            round.stack.starts_with("hybrid-mecho-relay"),
            "{}",
            round.stack
        );
        assert_eq!(round.stack, rounds[0].stack);
    }
    let commands = report
        .wire_events
        .iter()
        .find(|event| event.name == "ReconfigCommand")
        .expect("the coordinator sent commands");
    assert!(commands.packets > 0);
    assert_eq!(commands.bytes % commands.packets, 0, "one packet size");
    assert!(
        commands.bytes <= 64 * commands.packets,
        "{} B in {} packets",
        commands.bytes,
        commands.packets
    );
}

/// A sender whose `ReconfigCommand` is lost keeps sending on the old stack
/// until the coordinator's retransmit reaches it. At seed 31337 of the
/// benchmark's `quiet_restart` group (200 members, 10 % control loss), node
/// 2 misses the command that moves the group from `best-effort` to
/// `gossip-f3` at 8,004 ms and switches at 8,304 ms. Its chat message of
/// 8,200 ms leaves as 199 best-effort `DataEvent`s: the 178 members already
/// on gossip drop them (a gossip stack only takes pushes in a
/// `GossipBatch`), and the message never enters node 2's gossip repair log,
/// so no repair pass brings it back. The 21 members still on `best-effort`
/// deliver it. The benchmark counts 177 lost pairs: node 199 crashes too
/// soon after the send to be owed it. Ignored until a member that missed
/// the command cannot send on the old stack past the switch.
#[test]
#[ignore = "reproduces a known loss; run: cargo test --release --test reconfiguration_safety -- --ignored a_sender_that_misses_the_reconfiguration_command_still_reaches_every_member"]
fn a_sender_that_misses_the_reconfiguration_command_still_reaches_every_member() {
    let scenario = Scenario::member_restart(200, 0.1).with_seed(31337);
    let mut binding = ChatHistoryBinding::new("icdcs");
    Runner::new().run_with_binding(&scenario, &mut binding);

    let restarting = NodeId(199);
    let sent = scenario
        .workload
        .seqs_sent_between(0, scenario.end_time_ms());
    for receiver in (0..200).map(NodeId).filter(|node| *node != restarting) {
        let history = binding.history(receiver).expect("every node has a history");
        for sender in &scenario.workload.senders {
            if *sender == receiver {
                continue;
            }
            let name = ChatHistoryBinding::sender_name(*sender);
            let missing: Vec<u64> = sent
                .clone()
                .filter(|seq| !history.contains("icdcs", &name, *seq))
                .collect();
            assert!(
                missing.is_empty(),
                "{receiver} never got {name}'s messages {missing:?}"
            );
        }
    }
}
