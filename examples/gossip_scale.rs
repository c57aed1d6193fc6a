//! Large-scale dissemination (experiment E6): the paper's motivation notes
//! that for participants "in large numbers and distributed geographically
//! over a large-scale network, it can be preferable to rely on epidemic
//! protocols to implement the multicast".
//!
//! The example compares the per-sender transmission count and the delivery
//! coverage of plain best-effort multicast against gossip, on WAN topologies
//! of increasing size. The gossip `ttl` column is the push TTL every gossip
//! session derives from its view at that size (`derived_gossip_ttl`).
//!
//! Run with `cargo run --release --example gossip_scale`.

use morpheus::groupcomm::gossip::derived_gossip_ttl;
use morpheus::prelude::*;

fn run(devices: usize, stack: StackKind, messages: u64) -> RunReport {
    let mut scenario = Scenario::new(format!("{}n-{}", devices, stack.name()), devices, 0)
        .with_topology(TopologyChoice::Wan)
        .with_initial_stack(stack)
        .with_seed(devices as u64)
        .non_adaptive();
    scenario.workload = Workload::paper_chat(vec![NodeId(0)], messages);
    scenario.workload.warmup_ms = 1000;
    scenario.workload.interval_ms = 200;
    scenario.cooldown_ms = 5000;
    scenario.hb_interval_ms = 5000;
    scenario.suspect_timeout_ms = 60_000;
    Runner::new().run(&scenario)
}

fn main() {
    let messages = 100;
    println!("Epidemic multicast at scale (WAN, {messages} messages from node 0)");
    println!(
        "{:>8}  {:>26}  {:>30}",
        "nodes", "best-effort (pt2pt)", "gossip (fanout 3)"
    );
    println!(
        "{:>8}  {:>13} {:>12}  {:>3} {:>13} {:>12}",
        "", "sender-msgs", "coverage", "ttl", "sender-msgs", "coverage"
    );

    for devices in [8, 16, 32, 64] {
        let beb = run(devices, StackKind::BestEffort, messages);
        let gossip = run(devices, StackKind::Gossip { fanout: 3 }, messages);
        let expected = messages * (devices as u64 - 1);

        let coverage = |report: &RunReport| {
            format!(
                "{:>11.1}%",
                100.0 * report.total_app_deliveries() as f64 / expected as f64
            )
        };
        println!(
            "{devices:>8}  {:>13} {}  {:>3} {:>13} {}",
            beb.node(NodeId(0)).unwrap().sent_data,
            coverage(&beb),
            derived_gossip_ttl(devices, 3),
            gossip.node(NodeId(0)).unwrap().sent_data,
            coverage(&gossip),
        );
    }

    println!();
    println!("Expected shape: the point-to-point sender's transmissions grow linearly with the");
    println!("group size, while the gossip sender's stay constant at the fan-out; gossip trades");
    println!("that for redundant forwarding spread across the whole group and probabilistic");
    println!("(high but not perfect) coverage.");
}
