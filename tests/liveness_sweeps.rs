//! The failure detector expels no live member, checked over many seeds.
//!
//! A false expulsion shows as a view smaller than the group: no member of
//! these scenarios crashes, so every node's smallest view must hold all `n`
//! members. The full sweeps take minutes and run in release only (CI runs
//! them by name):
//!
//! ```sh
//! cargo test --release --test liveness_sweeps -- --ignored
//! ```
//!
//! The debug-mode test replays the seeds the sweeps once failed on: a
//! suspicion learned from a rumour that nobody checked with the suspect
//! (`large_group(50)` seed 26), and suspicions held across a partition
//! that outlived the rumours refuting them (`long_partition` seed 1).

use morpheus::prelude::*;

/// The seeds among `seeds` on which some node of `scenario(seed)` saw a
/// view of fewer than all its members.
fn seeds_expelling_a_live_member(
    scenario: impl Fn(u64) -> Scenario,
    seeds: impl IntoIterator<Item = u64>,
) -> Vec<u64> {
    seeds
        .into_iter()
        .filter(|seed| {
            let scenario = scenario(*seed);
            let n = scenario.device_count();
            let report = Runner::new().run(&scenario);
            report
                .nodes
                .iter()
                .any(|node| node.min_view_members.is_some_and(|members| members < n))
        })
        .collect()
}

fn large_group_under_loss(n: usize) -> impl Fn(u64) -> Scenario {
    move |seed| {
        Scenario::large_group(n)
            .with_control_loss(0.3)
            .with_seed(seed)
    }
}

fn thirty_second_partition(seed: u64) -> Scenario {
    Scenario::long_partition(50, 30_000).with_seed(seed)
}

#[test]
#[ignore = "release-only sweep: cargo test --release --test liveness_sweeps -- --ignored"]
fn fifty_members_at_thirty_percent_control_loss_expel_nobody_on_seeds_1_to_100() {
    let failed = seeds_expelling_a_live_member(large_group_under_loss(50), 1..=100);
    assert!(
        failed.is_empty(),
        "a live member was expelled on seeds {failed:?}"
    );
}

#[test]
#[ignore = "release-only sweep: cargo test --release --test liveness_sweeps -- --ignored"]
fn a_hundred_members_at_thirty_percent_control_loss_expel_nobody_on_seeds_90_to_140() {
    let failed = seeds_expelling_a_live_member(large_group_under_loss(100), 90..=140);
    assert!(
        failed.is_empty(),
        "a live member was expelled on seeds {failed:?}"
    );
}

#[test]
#[ignore = "release-only sweep: cargo test --release --test liveness_sweeps -- --ignored"]
fn a_thirty_second_partition_expels_nobody_on_seeds_1_to_30() {
    let failed = seeds_expelling_a_live_member(thirty_second_partition, 1..=30);
    assert!(
        failed.is_empty(),
        "a live member was expelled on seeds {failed:?}"
    );
}

#[test]
fn the_seeds_that_once_expelled_a_live_member_keep_every_view_whole() {
    let failed = [
        seeds_expelling_a_live_member(large_group_under_loss(50), [26]),
        seeds_expelling_a_live_member(large_group_under_loss(100), [99]),
        seeds_expelling_a_live_member(thirty_second_partition, [1]),
    ];
    assert_eq!(failed, [vec![], vec![], vec![]]);
}
