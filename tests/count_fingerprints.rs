//! Count fingerprints: every count a run reports, pinned in a text file per
//! scenario.
//!
//! A change that claims to move no count (a refactor, a buffer moved, a
//! codec rewritten) must leave every file under `tests/fingerprints/`
//! unchanged: packets and bytes per wire event, the events the simulator
//! processed, application deliveries, duplicates, repaired deliveries,
//! packets shed, reconfigurations and view changes. A mismatch fails with a
//! line-by-line diff.
//!
//! A change that moves counts on purpose rewrites the files with
//! `MORPHEUS_BLESS=1 cargo test --test count_fingerprints`, and the diff of
//! the files shows what it moved. The runs are deterministic, so a debug and
//! a release build must match the same files.

use std::fmt::Write as _;
use std::path::PathBuf;

use morpheus::prelude::*;

/// The scenarios, each with the name of its file.
fn cases() -> Vec<(String, Scenario)> {
    let mut cases = Vec::new();
    for seed in [1, 2] {
        let seeded = [
            ("figure3_4", Scenario::figure3(4, true, 300)),
            (
                "chat_fanin_50_lossy",
                Scenario::chat_fanin(50, 50).with_data_loss(0.1),
            ),
            (
                "sustained_overload_50",
                Scenario::sustained_overload(50, 50, 3_000),
            ),
            ("member_restart_50", Scenario::member_restart(50, 0.1)),
        ];
        for (name, scenario) in seeded {
            cases.push((format!("{name}_seed{seed}"), scenario.with_seed(seed)));
        }
    }
    cases.push(("fault_harness_16_7".into(), Scenario::fault_harness(16, 7)));
    cases.push((
        "capacity_overload_30_seed1".into(),
        Scenario::capacity_overload(30, 30, 3_000).with_seed(1),
    ));
    cases
}

/// The counts of one run, one `name value` line each.
fn fingerprint(report: &RunReport) -> String {
    let gossip = report.gossip_totals();
    let view_changes: u64 = report.nodes.iter().map(|node| node.view_changes).sum();
    let mut lines = vec![
        ("events_processed".to_string(), report.events_processed),
        ("app_deliveries".into(), report.total_app_deliveries()),
        ("gossip_duplicates".into(), gossip.duplicates),
        ("gossip_late_duplicates".into(), gossip.late_duplicates),
        ("repaired_deliveries".into(), gossip.repaired_deliveries),
        ("shed_packets".into(), report.shed_packets),
        ("egress_shed_packets".into(), report.egress_shed_packets),
        ("reconfigurations".into(), report.total_reconfigurations()),
        ("view_changes".into(), view_changes),
    ];
    for event in &report.wire_events {
        lines.push((format!("wire {} packets", event.name), event.packets));
        lines.push((format!("wire {} bytes", event.name), event.bytes));
    }
    let mut text = String::new();
    for (name, value) in lines {
        let _ = writeln!(text, "{name} {value}");
    }
    text
}

/// The lines of `expected` and `actual` that differ, `-` for the file's
/// and `+` for the run's.
fn diff(expected: &str, actual: &str) -> String {
    let mut text = String::new();
    for line in expected
        .lines()
        .filter(|line| !actual.lines().any(|a| a == *line))
    {
        let _ = writeln!(text, "  - {line}");
    }
    for line in actual
        .lines()
        .filter(|line| !expected.lines().any(|e| e == *line))
    {
        let _ = writeln!(text, "  + {line}");
    }
    text
}

#[test]
fn every_count_matches_its_fingerprint() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fingerprints");
    let bless = std::env::var("MORPHEUS_BLESS").is_ok_and(|value| value == "1");
    let mut mismatches = String::new();
    for (name, scenario) in cases() {
        let actual = fingerprint(&Runner::new().run(&scenario));
        let path = dir.join(format!("{name}.txt"));
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_default();
        if expected != actual {
            let _ = write!(mismatches, "{name}:\n{}", diff(&expected, &actual));
        }
    }
    assert!(
        mismatches.is_empty(),
        "counts differ from tests/fingerprints (MORPHEUS_BLESS=1 rewrites them):\n{mismatches}"
    );
}
