//! Room sharding at scale: per-node cost follows subscriptions, not group
//! size.
//!
//! Runs the partial-view + per-room overlay simulation
//! (`overlay::RoomSimulation`) over a Zipf room workload at n = 500 with 1000
//! rooms and 10% injected data loss, and again at half the population with
//! half the rooms (per-node subscriptions held fixed). `overlay::sim`'s unit
//! tests make the small-scale claims (lossless and lossy coverage, replay,
//! local churn rejoin at n = 40); the ones below only show at scale.

use morpheus::overlay::{RoomSimReport, RoomSimulation, SimConfig};

fn zipf_rooms(nodes: u32, rooms: u32) -> RoomSimReport {
    RoomSimulation::new(SimConfig {
        seed: 17,
        nodes,
        rooms,
        zipf_exponent: 1.0,
        duration_ms: 30_000,
        publishes_per_room: 3,
        payload_bytes: 512,
        data_loss: 0.10,
        // Background membership maintenance is uniform per node; a chatty
        // shuffle cadence would bury the subscription-proportional cost
        // under it.
        shuffle_interval_ms: 5_000,
        ..SimConfig::default()
    })
    .run()
}

#[test]
fn per_node_cost_follows_subscriptions_not_group_size() {
    let n500 = zipf_rooms(500, 1000);
    let n250 = zipf_rooms(250, 500);

    // Cost follows subscriptions: the top-decile subscriber pays at least 3x
    // the median node's data+overlay bytes.
    let skew = n500.top_decile_cost() as f64 / (n500.median_cost() as f64).max(1.0);
    assert!(
        skew >= 3.0,
        "top-decile subscribers must pay >= 3x the median node (got {skew:.1}x)"
    );

    // Cost does not follow group size: doubling the population at fixed
    // per-node subscriptions moves the median node's cost by less than 2x.
    assert!(
        n500.median_subscriptions() > 0 && n250.median_subscriptions() > 0,
        "the scale comparison needs subscribed median nodes"
    );
    let scale = n500.median_cost() as f64 / (n250.median_cost() as f64).max(1.0);
    assert!(
        scale > 0.5 && scale < 2.0,
        "median-node cost must stay flat when the group doubles (got {scale:.2}x)"
    );

    // Loss is repaired per room: every room still delivers every message to
    // every live subscriber under 10% data loss.
    assert_eq!(
        n500.fully_covered_rooms(),
        1000,
        "every room must recover full coverage under 10% data loss"
    );

    // The per-room policy splits the workload across both stacks.
    for report in [&n500, &n250] {
        assert!(
            report.tree_rooms > 0 && report.direct_rooms > 0,
            "large busy rooms run the tree, small or quiet ones flood"
        );
    }
}
