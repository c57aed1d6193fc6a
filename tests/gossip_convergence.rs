//! Convergence of the gossip control plane at membership scale.
//!
//! The control plane costs a node the same at any group size: failure
//! detection probes one member per interval (asking `fanout` others to
//! probe indirectly when an ack is overdue), and context dissemination
//! gossips a constant-size summary of its store, exchanging rows and
//! pulling missing/stale snapshots only when two summaries differ. These tests pin down, with deterministic seeds,
//! that both mechanisms converge within bounded time at n = 50 under
//! 0/10/30% control-plane loss — with no periodic full republish — and that
//! a 100-node group completes its large-group reconfiguration without losing
//! a single chat message.

use morpheus::prelude::*;

fn large_group_run(n: usize, loss: f64) -> RunReport {
    Runner::new().run(&Scenario::large_group(n).with_control_loss(loss))
}

#[test]
fn context_dissemination_converges_at_fifty_nodes_under_loss() {
    // (loss, convergence bound in simulated ms). The bounds are generous
    // multiples of the observed values so seed-insensitive slack remains,
    // but tight enough that a regression to flood-repair-only behaviour
    // (convergence via luck or never) trips them.
    for (loss, bound_ms) in [(0.0, 6_000), (0.1, 12_000), (0.3, 22_000)] {
        let report = large_group_run(50, loss);
        let converged = report
            .context_convergence_ms()
            .unwrap_or_else(|| panic!("context never converged at loss {loss}"));
        assert!(
            converged <= bound_ms,
            "context convergence took {converged} ms at loss {loss} (bound {bound_ms} ms)"
        );
        assert_eq!(report.messages_lost, 0, "chat is unaffected at loss {loss}");
        assert_eq!(report.total_errors(), 0);
        if loss > 0.0 {
            assert!(
                report.control_lost > 0,
                "the control plane really was degraded at {loss}"
            );
        }
    }
}

#[test]
fn liveness_digests_raise_no_false_suspicions_under_loss() {
    // A falsely suspected member would be expelled into a *smaller* view on
    // the data channel; with indirect probes, a suspicion spread only after
    // a second failed probe and a timeout that leaves room to refute it,
    // every view any node ever sees must still hold the full membership
    // even at 30% control loss. (The view
    // may be re-announced across the stack replacement — that is not a
    // suspicion.)
    let report = large_group_run(50, 0.3);
    for node in &report.nodes {
        assert_eq!(
            node.min_view_members,
            Some(50),
            "node {} saw a shrunken view under loss (false suspicion)",
            node.node
        );
    }
}

#[test]
fn a_hundred_node_group_reconfigures_without_losing_chat() {
    for loss in [0.0, 0.1, 0.3] {
        let report = large_group_run(100, loss);

        // The large-group rule fired: every node redeployed onto the epidemic
        // data stack via a completed coordinator round.
        let rounds = report.completed_rounds();
        assert!(
            !rounds.is_empty(),
            "the adaptation round completed at control loss {loss}"
        );
        assert_eq!(rounds[0].nodes, 100, "the quorum covered the whole group");
        assert_eq!(report.total_reconfigurations(), 100);
        for node in &report.nodes {
            assert!(
                node.final_stack.starts_with("gossip"),
                "node {} ended on {} instead of the epidemic stack",
                node.node,
                node.final_stack
            );
        }
        assert!(
            report.context_convergence_ms().is_some(),
            "digest anti-entropy converged the context store at control loss {loss}"
        );

        // Zero chat messages lost across the reconfiguration.
        assert_eq!(
            report.messages_lost, 0,
            "chat is unaffected at control loss {loss}"
        );
        assert_eq!(report.total_errors(), 0);
        assert!(
            report.total_app_deliveries() > 0,
            "chat flowed through the reconfigured stack"
        );
    }
}

#[test]
fn the_gossip_plane_stays_cheaper_than_all_to_all_at_scale() {
    // An all-to-all heartbeat costs n·(n−1) control messages per heartbeat
    // interval; the control plane pays about 2·n for probing (a ping and an
    // ack per node) and n·fanout for each gossip mechanism. At n = 50 the
    // gap is already an order of magnitude. (The all-to-all mode itself is
    // retired; its measured cost is in docs/ARCHITECTURE.md, "Retired
    // baselines".)
    let n = 50;
    let scenario = Scenario::large_group(n);
    let gossip = Runner::new().run(&scenario);
    let gossip_control: u64 = gossip.nodes.iter().map(|node| node.sent_control).sum();
    let intervals = gossip.duration_ms / scenario.hb_interval_ms;
    let all_to_all = (n * (n - 1)) as u64 * intervals;
    assert!(
        gossip_control * 5 < all_to_all,
        "gossip control traffic ({gossip_control}) must stay well under the \
         all-to-all cost ({all_to_all})"
    );
}

#[test]
fn the_repair_pass_closes_ten_percent_data_loss_with_every_member_sending() {
    // Fifty members, all sending, 10% of all data-channel transmissions
    // dropped: the size-derived push phase plus the NACK/anti-entropy repair
    // pass must converge delivery coverage to >= 99.9% — and never above
    // 100%, which would mean a duplicate reached the application.
    let scenario = Scenario::chat_fanin(50, 50).with_data_loss(0.1);
    let report = Runner::new().run(&scenario);

    assert!(report.data_dropped > 0, "the injected data loss was real");
    assert_eq!(
        report.messages_lost, 0,
        "live links lose nothing — injected drops are accounted separately"
    );
    assert!(
        !report.completed_rounds().is_empty(),
        "the large-group adaptation round completed"
    );
    let coverage = report.delivery_coverage(50, scenario.workload.messages_per_sender);
    assert!(
        (0.999..=1.0).contains(&coverage),
        "epidemic coverage {coverage:.5} outside [0.999, 1]"
    );
    let gossip = report.gossip_totals();
    assert!(
        gossip.repaired_deliveries > 0,
        "the repair pass did the closing work"
    );
    let dup_ratio = gossip.duplicates as f64 / report.total_app_deliveries() as f64;
    assert!(
        dup_ratio < 1.4,
        "push aggregation keeps the duplicate ratio under 1.4 (got {dup_ratio:.3})"
    );
}

#[test]
fn one_instants_pushes_share_their_peers_and_fill_their_batches() {
    // All fifty members sending: a node relays dozens of messages in one
    // simulated instant. Pushes that each drew their own peers scattered
    // over the group and left about 1.24 messages per `GossipBatch` packet;
    // drawn once per instant, they share their targets and the batches fill
    // (about 2.93 at seeds 1 to 3 while a batch held at most four entries,
    // 5.286 / 5.350 / 5.348 since it holds 1,456 B of them). The floor is
    // the lowest of those less about 5 %.
    for seed in 1..=3 {
        let scenario = Scenario::chat_fanin(50, 50)
            .with_data_loss(0.1)
            .with_seed(seed);
        let report = Runner::new().run(&scenario);
        let coverage = report.delivery_coverage(50, scenario.workload.messages_per_sender);
        assert_eq!(coverage, 1.0, "seed {seed}: every message reached everyone");
        let gossip = report.gossip_totals();
        // Every push-path arrival is a first delivery or a refused duplicate.
        let arrivals =
            report.total_app_deliveries() - gossip.repaired_deliveries + gossip.duplicates;
        let batches: u64 = report
            .wire_events
            .iter()
            .filter(|event| event.name == "GossipBatch")
            .map(|event| event.packets)
            .sum();
        let per_batch = arrivals as f64 / batches.max(1) as f64;
        assert!(
            per_batch >= 5.0,
            "seed {seed}: {per_batch:.3} pushed messages per batch ({arrivals} / {batches})"
        );
    }
}

#[test]
fn repair_answers_share_their_packets() {
    // The repair pass answers a pull with the logged messages it asked for.
    // Sent one message a packet, that was exactly 1.000 answers per
    // `GossipRepairPush` packet at seeds 1 to 3; cut into batches of
    // 1,456 B like the pushes, it is 9.935 / 10.081 / 9.984. The floor is
    // the lowest of those less about 5 %.
    for seed in 1..=3 {
        let scenario = Scenario::chat_fanin(50, 50)
            .with_data_loss(0.1)
            .with_seed(seed);
        let report = Runner::new().run(&scenario);
        let coverage = report.delivery_coverage(50, scenario.workload.messages_per_sender);
        assert_eq!(coverage, 1.0, "seed {seed}: every message reached everyone");
        let gossip = report.gossip_totals();
        // Every answer that arrived is a repaired delivery or a refused
        // late duplicate.
        let answers = gossip.repaired_deliveries + gossip.late_duplicates;
        let packets: u64 = report
            .wire_events
            .iter()
            .filter(|event| event.name == "GossipRepairPush")
            .map(|event| event.packets)
            .sum();
        let per_packet = answers as f64 / packets.max(1) as f64;
        assert!(
            per_packet >= 9.4,
            "seed {seed}: {per_packet:.3} repair answers per packet ({answers} / {packets})"
        );
    }
}

#[test]
fn sustained_overload_sheds_data_gracefully_without_wedging() {
    // Every member sends at twice the configured service rate for 10 s
    // against a deliberately small event-queue cap, on nodes whose links
    // cannot carry that load. The acceptance shape is graceful
    // degradation: data-plane transmissions are shed at the cap and at the
    // nodes' egress queues (and repaired later where the repair plane can
    // still reach them), the queue depth stays bounded, the control plane
    // loses nothing, and the run neither wedges nor crashes a node.
    let mut scenario = Scenario::sustained_overload(50, 50, 10_000);
    // Sized against the queue this load builds: 4,000 engaged the shed path
    // while every node ran two failure detectors, and no longer does with one;
    // 3,500 engaged it while every push drew its own peers, and no longer does
    // now that one instant's pushes share theirs (shed 0, depth 4,498). At
    // 2,700 it shed 603 at a depth of 4,624 with batches of four entries;
    // 2,500 and below break the `2 × cap` envelope (depth 5,207 at 2,500).
    scenario.wedge_queue_cap = 2_700;
    // Since gossip batches fill 1,456 B, 2,700 engages nothing either (shed
    // 0, depth 4,498), and a lower cap breaks the envelope: so every node
    // also gets `capacity_overload`'s link, which this load overloads.
    // Its egress queues shed 13,232 data packets and the event queue
    // 2,431, at a depth of 3,985.
    scenario.node_capacity = Scenario::capacity_overload(50, 50, 10_000).node_capacity;
    let report = Runner::new().run(&scenario);

    assert!(
        report.wedge.is_none(),
        "overload must degrade, not wedge: {:?}",
        report.wedge
    );
    assert!(
        report.shed_packets > 0,
        "the cap was sized to actually engage the shed path"
    );
    assert!(
        report.shed_packets > report.egress_shed_packets,
        "the event queue's cap sheds too, not only the nodes' egress queues ({} of {})",
        report.egress_shed_packets,
        report.shed_packets
    );
    assert!(
        report.max_queue_depth <= scenario.wedge_queue_cap * 2,
        "queue depth {} exceeded the bounded-degradation envelope ({})",
        report.max_queue_depth,
        scenario.wedge_queue_cap * 2
    );
    assert_eq!(
        report.control_lost, 0,
        "control-plane traffic is never shed under data overload"
    );
    assert_eq!(report.messages_lost, 0, "live links lose nothing");
    assert_eq!(report.total_errors(), 0);
    for node in &report.nodes {
        assert_eq!(
            node.restarts, 0,
            "overload must not crash node {}",
            node.node
        );
    }
    assert!(
        report.total_app_deliveries() > 0,
        "chat still flows under overload"
    );
}

#[test]
fn a_member_partitioned_past_the_log_ttl_heals_via_catchup_not_rejoin() {
    // Node 49 (a non-sender) is isolated for 30 s — three times the 10 s
    // repair-log TTL — while the chat keeps flowing. By the time the
    // partition lifts, every live peer has evicted the early missed span
    // from its repair log, so NACK repair alone cannot close the gap: the
    // member must escalate to the targeted repair→snapshot section pull.
    // No restart, no rejoin, no view change.
    let scenario = Scenario::long_partition(50, 30_000);
    let isolated = NodeId(49);
    let mut binding = ChatHistoryBinding::new("icdcs");
    let report = Runner::new().run_with_binding(&scenario, &mut binding);

    assert!(report.wedge.is_none(), "no wedge: {:?}", report.wedge);
    let node = report.node(isolated).unwrap();
    assert_eq!(node.restarts, 0, "healing must not restart the node");
    assert!(
        node.rejoin.is_none(),
        "healing must not use the rejoin path"
    );
    assert!(
        report.gossip_totals().floor_escalations >= 1,
        "the evicted span must be detected via the repair-log floor"
    );
    assert!(
        node.catchups >= 1,
        "the repair→snapshot catch-up must have closed the evicted span"
    );
    // The raised suspicion timeout kept the member in the view throughout:
    // no node ever installed a shrunken membership.
    for peer in &report.nodes {
        assert_eq!(
            peer.min_view_members,
            Some(50),
            "node {} expelled the partitioned member",
            peer.node
        );
    }
    // Full reconvergence: every message every sender emitted is in the
    // isolated member's room history — via live delivery, NACK repair or
    // the snapshot catch-up.
    let history = binding
        .history(isolated)
        .expect("the chat binding tracks every node");
    let all = scenario
        .workload
        .seqs_sent_between(0, scenario.end_time_ms());
    assert!(!all.is_empty());
    for sender in &scenario.workload.senders {
        let sender = ChatHistoryBinding::sender_name(*sender);
        let missing = all
            .clone()
            .filter(|seq| !history.contains("icdcs", &sender, *seq))
            .count();
        assert_eq!(
            missing,
            0,
            "the partitioned member's history misses {missing} of {} messages \
             from {sender}",
            all.clone().count()
        );
    }
    assert_eq!(report.messages_lost, 0, "live links lose nothing");
}

/// The control and context planes' wire cost, pinned at run level: a quiet
/// 50-member group with a crash, an expulsion and a rejoin, 10 % control
/// loss. Each node's one failure detector pings one member per interval and
/// answers about one, a few bytes each, and Cocaditem gossips a summary of
/// its store once a second, a packet of at most 20 bytes, sending its
/// `(node, version)` rows (two to three bytes a row) only to a peer whose
/// summary differs. The bound sits 10 % above the worst seed measured;
/// gossiping the whole table every second exceeded it, and so would a
/// second failure detector per node (one on the control channel, one in
/// every data stack), the digest-push failure detector or the fixed-width
/// packet frame (a name string and `u32` lengths and source).
#[test]
fn control_and_context_bytes_stay_within_their_budget_across_a_restart() {
    // Measured 630–644 on the four seeds (gossiping the whole context
    // table every second: 842–854; with a digest-push failure detector
    // gossiping the whole liveness table as well: 1,467–1,477; with the
    // fixed-width frame as well: 1,783–1,797; two such detectors per node:
    // 2,596–2,610; and with fixed-width rows: 9,403–9,493).
    const BOUND_BYTES_PER_NODE_S: u64 = 708;
    let n = 50;
    for seed in 1..=4 {
        let report = Runner::new().run(&Scenario::member_restart(n, 0.1).with_seed(seed));
        assert_eq!(report.messages_lost, 0, "seed {seed}");
        for node in &report.nodes {
            assert!(
                node.min_view_members.is_none_or(|members| members >= n - 1),
                "seed {seed}: node {} saw a view of {:?} members — only the \
                 crashed member is ever expelled",
                node.node,
                node.min_view_members
            );
        }
        let bytes = report.wire_bytes_totals();
        let per_node_s = (bytes.control + bytes.context) * 1_000 / (n as u64 * report.duration_ms);
        assert!(
            per_node_s <= BOUND_BYTES_PER_NODE_S,
            "seed {seed}: control + context cost {per_node_s} B/node/s \
             (bound {BOUND_BYTES_PER_NODE_S})"
        );
    }
}

/// Control bytes per node and second of `member_restart(n, 0.1)` at seed 1,
/// with the given share of data-channel packets dropped.
fn control_per_node_s(n: usize, data_loss: f64) -> u64 {
    let scenario = Scenario::member_restart(n, 0.1)
        .with_seed(1)
        .with_data_loss(data_loss);
    let report = Runner::new().run(&scenario);
    assert_eq!(report.messages_lost, 0, "n = {n}, data loss {data_loss}");
    report.wire_bytes_totals().control * 1_000 / (n as u64 * report.duration_ms)
}

/// A node's control cost must not grow with the group. Probing costs one
/// ping and about one ack per node and interval at any n, and a view change
/// one flush per member, unicast to the proposer. Measured on seed 1: 209
/// B/node/s at n = 50 and 230 at n = 200, 1.10×. While flushes were
/// re-gossiped to three random peers each time a participant's merged set
/// grew, and every re-gossip drew a `ViewCommit` echo, it cost 296 and 503,
/// 1.70×; a failure detector pushing its whole liveness table each interval
/// cost 914 and 2,825, 3.09×.
#[test]
fn control_cost_per_node_stays_flat_as_the_group_grows() {
    let (small, large) = (control_per_node_s(50, 0.0), control_per_node_s(200, 0.0));
    assert!(
        large * 10 <= small * 13,
        "control costs {small} B/node/s at n = 50 but {large} at n = 200"
    );
}

/// Losing data-channel packets, flushes among them, costs a view change one
/// retransmitted flush per lost one, not a storm. At n = 200, seed 1, control
/// bytes with 10 % data loss were 3.29× the lossless run's (1,654 against
/// 503 B/node/s) while flushes were re-gossiped, each re-gossip drawing a
/// `ViewCommit` echo, and are 1.59× (366 against 230) with one flush per
/// member.
#[test]
fn a_view_change_under_data_loss_sends_no_flush_storm() {
    let (lossless, lossy) = (control_per_node_s(200, 0.0), control_per_node_s(200, 0.1));
    assert!(
        lossy <= 2 * lossless,
        "control costs {lossless} B/node/s without data loss but {lossy} with 10 %"
    );
}

/// A settled store gossips a summary of a few bytes, whatever the group's
/// size, so a node's context cost grows with n only while stores differ:
/// at boot, when every node must learn n snapshots, and after a restart.
/// Measured on seed 1: 237 B/node/s at n = 50 and 423 at n = 200, 1.78×,
/// with snapshots that carry only the two keys a peer reads in a varint
/// frame (about 19 bytes). Six keys at fixed width (62 bytes) cost 334 and
/// 762, 2.28×; gossiping the whole `(node, version)` table every second on
/// top cost 556 and 1,633, 2.94×.
#[test]
fn context_cost_per_node_grows_slower_than_the_group_once_stores_settle() {
    let context_per_node_s = |n: usize| {
        let report = Runner::new().run(&Scenario::member_restart(n, 0.1).with_seed(1));
        assert_eq!(report.messages_lost, 0, "n = {n}");
        assert!(report.context_convergence_ms().is_some(), "n = {n}");
        report.wire_bytes_totals().context * 1_000 / (n as u64 * report.duration_ms)
    };
    let (small, large) = (context_per_node_s(50), context_per_node_s(200));
    assert!(
        large <= small * 2,
        "context costs {small} B/node/s at n = 50 but {large} at n = 200"
    );
}
