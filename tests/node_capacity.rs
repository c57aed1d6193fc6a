//! Overload against a node's capacity.
//!
//! [`Scenario::capacity_overload`] gives every node a link that carries
//! less than the payload bytes alone an average member must receive while
//! the group sends at twice its service rate. No protocol gain can make
//! that load fit, so the run overloads at the nodes' egress queues, not at
//! the simulator's event queue: data is shed there, control never is, and
//! once the overload ends the repair plane delivers every owed pair.

use morpheus::prelude::*;

#[test]
fn an_overload_past_every_nodes_capacity_sheds_at_egress_and_heals() {
    let n = 50;
    let overload_ms = 5_000;
    for seed in 1..=3 {
        let scenario = Scenario::capacity_overload(n, n, overload_ms).with_seed(seed);
        let bandwidth_kbps = scenario.node_capacity.expect("the preset has a capacity");
        let workload = &scenario.workload;

        let report = Runner::new().run(&scenario);
        assert!(
            report.wedge.is_none(),
            "seed {seed}: wedge {:?}",
            report.wedge
        );
        assert!(
            report.egress_shed_packets > 0,
            "seed {seed}: the nodes' egress queues shed data"
        );
        assert_eq!(
            report.egress_shed_packets, report.shed_packets,
            "seed {seed}: nothing is shed at the event queue"
        );
        assert_eq!(report.control_lost, 0, "seed {seed}: control is never shed");
        assert_eq!(
            report.messages_lost, 0,
            "seed {seed}: live links lose nothing"
        );
        assert_eq!(report.total_errors(), 0, "seed {seed}");
        for node in &report.nodes {
            assert_eq!(
                node.restarts, 0,
                "seed {seed}: node {} restarted",
                node.node
            );
            assert_eq!(
                node.min_view_members,
                Some(n),
                "seed {seed}: node {} expelled a member",
                node.node
            );
        }
        // Every pair's payload crossed some node's link, and every message
        // was sent inside the overload: all links together could not have
        // carried that payload there (kbit/s × ms = bits), so the capacity
        // binds whatever the protocol does.
        let payload_bits = report.total_app_deliveries() * workload.payload_size as u64 * 8;
        let link_bits = u64::from(bandwidth_kbps) * n as u64 * overload_ms;
        assert!(
            link_bits < payload_bits,
            "seed {seed}: the links carry {link_bits} bits in the overload, \
             below the {payload_bits} bits of payload delivered"
        );
        // Every sender's base and overload sends, at every other member:
        // the repair plane delivered what the queues shed, each pair once.
        let per_sender = 2 * workload.messages_per_sender;
        let owed = n as u64 * per_sender * (n as u64 - 1);
        assert_eq!(
            report.total_app_deliveries(),
            owed,
            "seed {seed}: every owed pair delivered ({} repaired)",
            report.gossip_totals().repaired_deliveries
        );
    }
}

/// The same overload for 10 s: more is shed than the repair plane wins back
/// before the run ends, and the pairs it never delivers stay missing, with
/// no escalation and no wedge to show for it. Seeds 1 / 2 missed 17,109 /
/// 19,209 of 98,000 owed pairs while a pull was answered one message a
/// packet, and 10,372 / 12,052 since answers share their packets.
#[test]
#[ignore = "fails until a capacity overload past about 5 s heals (ROADMAP item 26, finding (xi))"]
fn a_ten_second_overload_past_every_nodes_capacity_heals() {
    let n = 50;
    for seed in 1..=3 {
        let scenario = Scenario::capacity_overload(n, n, 10_000).with_seed(seed);
        let report = Runner::new().run(&scenario);
        assert!(
            report.wedge.is_none(),
            "seed {seed}: wedge {:?}",
            report.wedge
        );
        // Every sender's base and overload sends, at every other member.
        let per_sender = 2 * scenario.workload.messages_per_sender;
        let owed = n as u64 * per_sender * (n as u64 - 1);
        let gossip = report.gossip_totals();
        assert_eq!(
            report.total_app_deliveries(),
            owed,
            "seed {seed}: every owed pair delivered ({} missing, {} repaired, {} escalations)",
            owed.saturating_sub(report.total_app_deliveries()),
            gossip.repaired_deliveries,
            gossip.floor_escalations
        );
    }
}
