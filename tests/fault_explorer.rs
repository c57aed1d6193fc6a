//! The adversarial fault explorer: the seed-sweeping wedge hunter.
//!
//! Runs 48 generated fault schedules (link flaps, asymmetric one-way
//! partitions — steady and flapping, latency-class shifts, WAN multi-region
//! latency tiers, churn and mass churn, byte-level packet corruption) from
//! `FaultSchedule::generate`, plus five pinned ones, against the
//! `fault_harness` scenario at n = 16, and asserts the safety invariants of
//! every run:
//!
//! * no wedge — the runner's detector saw progress whenever live members
//!   disagreed on the installed view, and neither the event queue nor the
//!   round count grew without bound;
//! * zero live-link data loss — every injected drop is accounted as a fault,
//!   never as a lost chat message;
//! * every decode error is explained by an injected corruption;
//! * context dissemination converged on every node by the end of the run.
//!
//! Every case is deterministic in `(seed, schedule)`: a failure message ends
//! in the one-line reproducer `fault_harness(n=…, seed=…, schedule="…")`,
//! replayed by parsing the schedule back into the same preset
//! (`Scenario::fault_harness(n, seed).with_fault_schedule(
//! FaultSchedule::parse("…").unwrap())`).
//!
//! For an extended soak, set `MORPHEUS_FAULT_SEEDS` to a comma-separated
//! seed list — each seed adds one generated case, e.g.
//! `MORPHEUS_FAULT_SEEDS=$(seq -s, 1000 1499) cargo test --release --test
//! fault_explorer`.

use morpheus::netsim::{FaultEvent, FaultSchedule, NodeId as SimNodeId};
use morpheus::prelude::*;

const N: usize = 16;
const BASE_SEED: u64 = 1;
const GENERATED: u64 = 48;

fn generated(seed: u64) -> FaultSchedule {
    FaultSchedule::generate(seed, N, Scenario::fault_harness(N, seed).end_time_ms())
}

/// Runs one schedule against the fault harness under the four invariants.
fn assert_survives(seed: u64, schedule: FaultSchedule) {
    let scenario = Scenario::fault_harness(N, seed).with_fault_schedule(schedule);
    let report = Runner::new().run(&scenario);
    let reproducer = scenario.fault_reproducer();
    if let Some(wedge) = &report.wedge {
        panic!(
            "WEDGE at {}ms ({}). Reproduce with: {reproducer}",
            wedge.at_ms, wedge.reason
        );
    }
    assert_eq!(
        report.messages_lost, 0,
        "live-link data loss under faults. Reproduce with: {reproducer}"
    );
    assert!(
        report.total_errors() <= report.corrupted_packets,
        "{} decode errors but only {} injected corruptions. Reproduce with: {reproducer}",
        report.total_errors(),
        report.corrupted_packets,
    );
    assert!(
        report
            .nodes
            .iter()
            .all(|node| node.context_converged_ms.is_some()),
        "context dissemination never converged. Reproduce with: {reproducer}"
    );
}

#[test]
fn generated_schedules_survive_first_half() {
    for seed in BASE_SEED..BASE_SEED + GENERATED / 2 {
        assert_survives(seed, generated(seed));
    }
}

#[test]
fn generated_schedules_survive_second_half_and_soak_seeds() {
    let soak: Vec<u64> = std::env::var("MORPHEUS_FAULT_SEEDS")
        .map(|raw| {
            raw.split(',')
                .filter_map(|part| part.trim().parse().ok())
                .collect()
        })
        .unwrap_or_default();
    for seed in (BASE_SEED + GENERATED / 2..BASE_SEED + GENERATED).chain(soak) {
        assert_survives(seed, generated(seed));
    }
}

#[test]
fn the_generated_window_exercises_every_fault_class() {
    // `overload` and `partition` are scheduled-only; everything else must
    // come out of the generator inside the 48-seed window.
    let tags: Vec<&str> = (BASE_SEED..BASE_SEED + GENERATED)
        .flat_map(|seed| generated(seed).class_tags())
        .collect();
    for class in [
        "flap",
        "oneway",
        "latency",
        "churn",
        "corrupt",
        "wanregions",
        "masschurn",
        "flaponeway",
    ] {
        assert!(
            tags.contains(&class),
            "the sweep never generated a `{class}` fault — generator coverage regressed"
        );
    }
}

#[test]
fn pinned_schedules_survive() {
    // Cases that run regardless of what the generator sampled: a sustained
    // 2x-rate overload across the chat window; a single-node partition that
    // outlives the suspicion timeout (expel, heal, reconverge); and one per
    // adversarial class — WAN region tiers, mass churn, a flapping one-way
    // link — so every class has a deterministic survivor.
    let harness = Scenario::fault_harness(N, BASE_SEED);
    let chat_start = harness.workload.warmup_ms;
    let last = SimNodeId(N as u32 - 1);
    for event in [
        FaultEvent::Overload {
            start_ms: chat_start,
            end_ms: chat_start + 4_000,
            interval_ms: harness.workload.interval_ms,
        },
        FaultEvent::Partition {
            node: last,
            start_ms: chat_start,
            end_ms: chat_start + 7_000,
        },
        FaultEvent::WanRegions {
            start_ms: chat_start,
            end_ms: chat_start + 7_000,
            regions: 3,
            step_ms: 80,
        },
        FaultEvent::MassChurn {
            start_ms: chat_start,
            end_ms: chat_start + 4_000,
            per_second: 2,
            down_ms: 2_000,
        },
        FaultEvent::FlapOneWay {
            from: SimNodeId(1),
            to: last,
            start_ms: chat_start,
            down_ms: 500,
            up_ms: 900,
            until_ms: chat_start + 6_000,
        },
    ] {
        assert_survives(
            BASE_SEED,
            FaultSchedule {
                events: vec![event],
            },
        );
    }
}
