//! Bytes on the wire by event type: the per-wire-event tally
//! ([`RunReport::wire_events`]) of the benchmark's three gossip shapes,
//! largest first.
//!
//! * `member_restart(200, 0.1)` — the benchmark's `quiet_restart` shape:
//!   three senders, a crash, an expulsion, an empty restart and a rejoin, so
//!   the failure detector, Cocaditem, view synchrony and recovery do the
//!   work;
//! * `chat_fanin(200, 200)` at 10 % data loss — the `fanin_lossy` shape:
//!   every member sends, so gossip push and repair dominate;
//! * `sustained_overload(100, 100, 8_000)` — the `overload_2x` shape: 100
//!   members send at twice the service rate for 8 s, so the push path runs
//!   at its limit and the repair pass catches up on what it missed.
//!
//! Each row is one sendable event type: packets and bytes (framing
//! included) summed over every node, bytes per node, and the share of the
//! run's bytes. Packets the runner drops for injected loss are not counted.
//! Under each table, the push entries that arrived (application
//! deliveries, less those the repair pass made, plus refused duplicates)
//! per `GossipBatch` packet: how full the gossip layer's batches leave.
//! Deliveries made before the group switched to the gossip stack count
//! too, so on `member_restart` the figure reads a little high. Then the
//! repair answers that arrived (repaired deliveries plus late duplicates)
//! per `GossipRepairPush` packet: how many messages a pull's answer packs
//! into one packet.
//!
//! Run with `cargo run --release --example wire_events`.

use morpheus::prelude::*;

fn print_table(title: &str, report: &RunReport) {
    let nodes = report.nodes.len() as u64;
    let total: u64 = report.wire_events.iter().map(|event| event.bytes).sum();
    let mut events: Vec<_> = report.wire_events.iter().collect();
    events.sort_by_key(|event| std::cmp::Reverse(event.bytes));

    println!("\n{title}: {nodes} nodes, {} ms", report.duration_ms);
    println!("| wire event | packets | bytes | B / node | share |");
    println!("|---|---|---|---|---|");
    for event in events {
        println!(
            "| `{}` | {} | {} | {} | {:.1} % |",
            event.name,
            event.packets,
            event.bytes,
            event.bytes / nodes.max(1),
            100.0 * event.bytes as f64 / total.max(1) as f64
        );
    }
    println!(
        "| all | {} | {total} | {} | 100 % |",
        report
            .wire_events
            .iter()
            .map(|event| event.packets)
            .sum::<u64>(),
        total / nodes.max(1)
    );
    let gossip = report.gossip_totals();
    let entries = report.total_app_deliveries() - gossip.repaired_deliveries + gossip.duplicates;
    let batches = packets_of(report, "GossipBatch");
    println!(
        "`GossipBatch`: {entries} push entries arrived in {batches} packets, {:.3} per packet",
        entries as f64 / batches.max(1) as f64
    );
    let answers = gossip.repaired_deliveries + gossip.late_duplicates;
    let answer_packets = packets_of(report, "GossipRepairPush");
    println!(
        "`GossipRepairPush`: {answers} answers arrived in {answer_packets} packets, {:.3} per packet",
        answers as f64 / answer_packets.max(1) as f64
    );
}

/// The packets of the wire event `name` the run sent.
fn packets_of(report: &RunReport, name: &str) -> u64 {
    report
        .wire_events
        .iter()
        .filter(|event| event.name == name)
        .map(|event| event.packets)
        .sum()
}

fn main() {
    let restart = Runner::new().run(&Scenario::member_restart(200, 0.1).with_seed(1));
    print_table("member_restart(200, 0.1), seed 1", &restart);

    let fanin = Runner::new().run(
        &Scenario::chat_fanin(200, 200)
            .with_data_loss(0.1)
            .with_seed(1),
    );
    print_table("chat_fanin(200, 200) at 10 % data loss, seed 1", &fanin);

    let overload = Runner::new().run(&Scenario::sustained_overload(100, 100, 8_000).with_seed(1));
    print_table("sustained_overload(100, 100, 8_000), seed 1", &overload);
}
