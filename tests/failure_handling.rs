//! Failure handling across the whole middleware: when a participant crashes
//! mid-run, the probing failure detector suspects it, the view-synchrony
//! coordinator installs a smaller view, and the remaining participants keep
//! exchanging chat traffic.

use morpheus::appia::platform::{InPacket, PacketClass, PacketDest};
use morpheus::prelude::*;

fn failure_scenario(devices: usize, crashed: NodeId, crash_at_ms: u64) -> Scenario {
    let mut scenario = Scenario::figure3(devices, false, 300)
        .with_seed(5)
        .with_failure(crash_at_ms, crashed);
    // Fast failure detection so the view change happens within the run.
    scenario.hb_interval_ms = 300;
    scenario.suspect_timeout_ms = 1200;
    scenario.publish_interval_ms = 1000;
    scenario.workload.warmup_ms = 500;
    scenario.cooldown_ms = 5000;
    scenario
}

#[test]
fn a_crashed_member_is_removed_from_the_view() {
    // Node 3 (a mobile receiver) crashes 5 seconds into the run.
    let report = Runner::new().run(&failure_scenario(4, NodeId(3), 5_000));

    // Survivors observed at least two views: the initial one and the one that
    // excludes the crashed node.
    for survivor in [NodeId(0), NodeId(1), NodeId(2)] {
        let node = report.node(survivor).unwrap();
        assert!(
            node.view_changes >= 2,
            "node {survivor} saw {} view changes, expected the post-crash view",
            node.view_changes
        );
    }
    // The crashed node stops transmitting after the crash but the sender keeps
    // going: the run still delivers the bulk of the traffic to the survivors.
    let crashed = report.node(NodeId(3)).unwrap();
    let survivor = report.node(NodeId(2)).unwrap();
    assert!(crashed.app_deliveries < survivor.app_deliveries);
    assert!(
        survivor.app_deliveries >= 250,
        "survivors keep receiving chat traffic"
    );
}

#[test]
fn the_sender_narrows_its_fanout_after_the_view_change() {
    // Without a failure the sender transmits 300 * 3 point-to-point messages.
    let baseline = Runner::new().run(&failure_scenario(4, NodeId(3), u64::MAX / 2));
    let with_crash = Runner::new().run(&failure_scenario(4, NodeId(3), 5_000));
    let baseline_sent = baseline.node(NodeId(1)).unwrap().sent_data;
    let with_crash_sent = with_crash.node(NodeId(1)).unwrap().sent_data;
    assert_eq!(baseline_sent, 900);
    assert!(
        with_crash_sent < baseline_sent,
        "after the crashed member leaves the view the sender stops addressing it \
         ({with_crash_sent} vs {baseline_sent})"
    );
}

#[test]
fn a_crashed_coordinator_is_replaced() {
    // Node 0 is both the fixed node and the initial coordinator; after it
    // crashes, the next-lowest node takes over the view change.
    let report = Runner::new().run(&failure_scenario(4, NodeId(0), 5_000));
    let survivor = report.node(NodeId(2)).unwrap();
    assert!(
        survivor.view_changes >= 2,
        "survivors install a view without the old coordinator"
    );
    assert!(survivor.app_deliveries > 0);
}

/// Drives `n` nodes on `TestPlatform`s without the testbed: a loop that
/// moves every packet to its destination one millisecond later, fires due
/// timers and applies reconfigurations. Node `crashed` stops at
/// `crash_at_ms`; a deterministic coin drops `control_loss` of the control
/// packets. Returns every delivery of each node, stamped with its time.
fn drive_without_the_runner(
    options: &NodeOptions,
    crashed: usize,
    crash_at_ms: u64,
    control_loss: f64,
    until_ms: u64,
) -> Vec<Vec<(u64, DeliveryKind)>> {
    let members = options.members.clone();
    let n = members.len();
    let mut platforms: Vec<TestPlatform> =
        members.iter().map(|id| TestPlatform::new(*id)).collect();
    let mut nodes: Vec<MorpheusNode> = platforms
        .iter_mut()
        .map(|platform| MorpheusNode::new(options.clone(), platform).unwrap())
        .collect();
    let mut deliveries = vec![Vec::new(); n];
    let mut coin = 0x9E37_79B9_7F4A_7C15u64;
    let mut lost = |class: PacketClass| {
        coin ^= coin << 13;
        coin ^= coin >> 7;
        coin ^= coin << 17;
        class == PacketClass::Control && (coin % 1_000) < (control_loss * 1_000.0) as u64
    };

    for now in 1..=until_ms {
        let alive = |index: usize| index != crashed || now < crash_at_ms;
        let in_flight: Vec<_> = platforms
            .iter_mut()
            .enumerate()
            .flat_map(|(index, platform)| {
                let sent = platform.take_sent();
                if alive(index) {
                    sent
                } else {
                    Vec::new()
                }
            })
            .collect();
        for platform in &mut platforms {
            platform.now_ms = now;
        }
        for packet in in_flight {
            let targets = match packet.dest {
                PacketDest::Node(to) => vec![to],
                PacketDest::Broadcast => members.clone(),
            };
            for to in targets {
                let index = to.0 as usize;
                if to == packet.from || !alive(index) || lost(packet.class) {
                    continue;
                }
                let arrival = InPacket {
                    from: packet.from,
                    to,
                    class: packet.class,
                    channel: packet.channel.clone(),
                    payload: packet.payload.clone(),
                };
                nodes[index]
                    .deliver_packet(arrival, &mut platforms[index])
                    .unwrap();
            }
        }
        for index in (0..n).filter(|index| alive(*index)) {
            let platform = &mut platforms[index];
            while let Some(position) = platform.timers.iter().position(|(at, _)| *at <= now) {
                let (_, key) = platform.timers.remove(position);
                nodes[index].timer_fired(key, platform);
            }
            for request in std::mem::take(&mut platform.reconfig_requests) {
                nodes[index]
                    .apply_reconfiguration(request, platform)
                    .unwrap();
            }
            for delivery in platform.take_deliveries() {
                deliveries[index].push((now, delivery.kind));
            }
        }
    }
    deliveries
}

#[test]
fn a_node_driven_without_the_runner_learns_views_on_its_control_plane() {
    // No testbed: four nodes on `TestPlatform`s. Node 3 crashes at 2 s.
    // Nothing outside the nodes tells their control planes about views.
    let n = 4;
    let crashed = 3;
    let mut options = NodeOptions::new((0..n as u32).map(NodeId).collect());
    options.hb_interval_ms = 300;
    options.suspect_timeout_ms = 1200;
    let deliveries = drive_without_the_runner(&options, crashed, 2_000, 0.0, 10_000);

    for survivor in (0..n).filter(|index| *index != crashed) {
        let view_sizes: Vec<usize> = deliveries[survivor]
            .iter()
            .filter_map(|(_, kind)| match kind {
                DeliveryKind::ViewChange { members, .. } => Some(members.len()),
                _ => None,
            })
            .collect();
        let covered_sizes: Vec<usize> = deliveries[survivor]
            .iter()
            .filter_map(|(_, kind)| match kind {
                DeliveryKind::ContextConverged { nodes } => Some(*nodes),
                _ => None,
            })
            .collect();
        assert!(
            view_sizes.contains(&(n - 1)),
            "node {survivor} installed no view without node {crashed}: {view_sizes:?}"
        );
        // Cocaditem re-checks its coverage after every view it hears of; a
        // fresh report over the survivors is the view reaching it.
        assert!(
            covered_sizes.contains(&(n - 1)),
            "node {survivor}'s control plane never learned the view: it \
             reported coverage of {covered_sizes:?} members"
        );
    }
}

#[test]
fn a_crash_is_expelled_within_the_timeout_and_two_intervals_under_control_loss() {
    // Five nodes, 10 % of control packets lost; node 4 crashes at 3 s. Every
    // survivor probes it within an interval or two, and each suspicion is
    // dated from its first unanswered ping: every survivor installs the
    // view without it within `suspect_timeout_ms + 2 · hb_interval_ms`.
    // Measured: 1,702–1,703 ms on every survivor, within 1,800. (A failure
    // detector suspecting by the age of gossiped heartbeat counters took
    // 1,202 ms on node 0 but 2,203 on node 1.)
    let n = 5;
    let (crashed, crash_at_ms) = (4, 3_000);
    let mut options = NodeOptions::new((0..n as u32).map(NodeId).collect());
    options.hb_interval_ms = 300;
    options.suspect_timeout_ms = 1200;
    let bound = options.suspect_timeout_ms + 2 * options.hb_interval_ms;
    let deliveries = drive_without_the_runner(&options, crashed, crash_at_ms, 0.1, 8_000);

    for survivor in (0..n).filter(|index| *index != crashed) {
        let expelled_at = deliveries[survivor]
            .iter()
            .find_map(|(at, kind)| match kind {
                DeliveryKind::ViewChange { members, .. } if members.len() == n - 1 => Some(*at),
                _ => None,
            });
        let detection = expelled_at.map(|at| at - crash_at_ms);
        assert!(
            detection.is_some_and(|ms| ms <= bound),
            "node {survivor} expelled node {crashed} {detection:?} ms after its crash \
             (bound {bound} ms)"
        );
    }
}
