//! The four workloads: which scenarios each runs, at full and at pilot size.
//!
//! Every size is fixed, so the counts of a workload repeat exactly for one
//! seed; `--seed` feeds [`Scenario::with_seed`] and nothing else.

use morpheus_testbed::Scenario;

/// How much of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A quarter of the messages: run once per repetition before the
    /// measured run, checked and discarded. It fills the allocator and the
    /// caches, and it makes set-up long enough to time.
    Pilot,
}

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Most of the expected (message, receiver) pairs that may stay
    /// undelivered before the run counts as wrong.
    pub failed_share_ceiling: f64,
    /// The scenarios one run executes back to back.
    pub scenarios: fn(seed: u64, size: Size) -> Vec<Scenario>,
    /// Index of the scenario whose senders `sender_tx_per_msg` is read from
    /// (`None`: summed over all of them).
    pub sender_scenario: Option<usize>,
    /// The multicast layers that carry this workload's data plane: the
    /// probes the cost model prices a data packet with.
    pub data_layers: &'static [&'static str],
}

/// Messages of the paper's evaluation: "40,000 messages at 10 msg/s".
const FIG3_MESSAGES: u64 = 40_000;
const FIG3_DEVICES: std::ops::RangeInclusive<usize> = 2..=9;

fn fig3_sweep(seed: u64, size: Size) -> Vec<Scenario> {
    let messages = match size {
        Size::Full => FIG3_MESSAGES,
        Size::Pilot => FIG3_MESSAGES / 4,
    };
    FIG3_DEVICES
        .flat_map(|devices| {
            [true, false]
                .map(|optimized| Scenario::figure3(devices, optimized, messages).with_seed(seed))
        })
        .collect()
}

fn quarter(scenario: &mut Scenario) {
    let messages = &mut scenario.workload.messages_per_sender;
    *messages = messages.div_ceil(4);
}

fn fanin_lossy(seed: u64, size: Size) -> Vec<Scenario> {
    let mut scenario = Scenario::chat_fanin(200, 200)
        .with_data_loss(0.1)
        .with_seed(seed);
    // The preset's 8 s leave the repair tail unfinished on about one seed in
    // three (up to 170 of 238,800 pairs); with 12 s a handful at most.
    scenario.cooldown_ms = 12_000;
    if size == Size::Pilot {
        quarter(&mut scenario);
    }
    vec![scenario]
}

fn overload_2x(seed: u64, size: Size) -> Vec<Scenario> {
    let overload_ms = match size {
        Size::Full => 8_000,
        Size::Pilot => 2_000,
    };
    vec![Scenario::sustained_overload(100, 100, overload_ms).with_seed(seed)]
}

fn quiet_restart(seed: u64, size: Size) -> Vec<Scenario> {
    let mut scenario = Scenario::member_restart(200, 0.1).with_seed(seed);
    if size == Size::Pilot {
        // The crash (12 s) falls inside the shortened chat, the restart
        // (20 s) after it: the pilot still walks the expulsion path.
        quarter(&mut scenario);
    }
    vec![scenario]
}

/// The benchmark's workloads, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig3_sweep",
        why: "the paper's Figure 3 at paper size (2-9 devices, both series, 40,000 msgs each): \
              small groups, so appia dispatch, beb/mecho and core adaptation do the work",
        failed_share_ceiling: 0.0,
        scenarios: fig3_sweep,
        // 9 devices, optimized: the last point of the figure's lower curve.
        sender_scenario: Some(14),
        data_layers: &["beb", "mecho"],
    },
    Workload {
        name: "fanin_lossy",
        why: "200 members all sending under 10% data loss: gossip push, NACK repair and a deep \
              netsim event queue dominate; control and context are a minority of bytes",
        failed_share_ceiling: 0.001,
        scenarios: fanin_lossy,
        sender_scenario: None,
        data_layers: &["gossip"],
    },
    Workload {
        name: "overload_2x",
        why: "100 senders at twice the service rate: the same gossip layer under credit stalls, \
              shedding and catch-up, so a fanin_lossy gain bought with bigger buffers shows here",
        failed_share_ceiling: 0.001,
        scenarios: overload_2x,
        sender_scenario: None,
        data_layers: &["gossip"],
    },
    Workload {
        name: "quiet_restart",
        why: "3 senders in a 200-member group with a crash, expulsion, empty restart and rejoin: \
              failure detector, cocaditem, vsync, recovery and round work; the data plane idles",
        failed_share_ceiling: 0.001,
        scenarios: quiet_restart,
        sender_scenario: None,
        data_layers: &["gossip"],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fig3_sender_scenario_is_nine_devices_optimized() {
        let scenarios = fig3_sweep(1, Size::Full);
        assert_eq!(scenarios.len(), 16);
        let index = WORKLOADS[0]
            .sender_scenario
            .expect("fig3 names one scenario");
        assert_eq!(scenarios[index].device_count(), 9);
        assert!(scenarios[index].adaptive);
        assert!(scenarios
            .iter()
            .all(|s| s.workload.messages_per_sender == 40_000));
    }

    #[test]
    fn pilots_run_a_quarter_of_the_messages_with_the_same_seed() {
        for workload in &WORKLOADS {
            let full = (workload.scenarios)(7, Size::Full);
            let pilot = (workload.scenarios)(7, Size::Pilot);
            assert_eq!(full.len(), pilot.len());
            for (full, pilot) in full.iter().zip(&pilot) {
                assert_eq!(pilot.seed, 7);
                assert_eq!(full.seed, 7);
                assert_eq!(full.device_count(), pilot.device_count());
                let (full, pilot) = (&full.workload, &pilot.workload);
                assert_eq!(
                    pilot.messages_per_sender,
                    full.messages_per_sender.div_ceil(4)
                );
            }
        }
    }

    #[test]
    fn the_pilot_of_quiet_restart_still_crashes_its_member() {
        let pilot = &quiet_restart(1, Size::Pilot)[0];
        let (crash_ms, _) = pilot.failures[0];
        assert!(pilot.workload.duration_ms() > crash_ms);
    }
}
