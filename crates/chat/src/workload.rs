//! The chat workload generator and its bridge to the simulated testbed.

use morpheus_appia::platform::NodeId;
use morpheus_core::StackKind;
use morpheus_testbed::{Scenario, Workload};

/// The paper's chat workload, parameterised.
///
/// Defaults reproduce the evaluation setup: messages at 10 msg/s, originated
/// by the instrumented mobile device, in a hybrid cell with one fixed PC.
#[derive(Debug, Clone)]
pub struct ChatWorkload {
    /// Total participants (devices).
    pub devices: usize,
    /// How many of them are fixed PCs (the paper uses at least one).
    pub fixed_devices: usize,
    /// Chat messages generated by the instrumented mobile node.
    pub messages: u64,
    /// Message rate in messages per second.
    pub rate_per_second: u64,
    /// Whether the Morpheus adaptation is enabled ("optimized" series).
    pub adaptive: bool,
    /// Random seed.
    pub seed: u64,
}

impl ChatWorkload {
    /// The paper's configuration for a given number of devices.
    pub fn paper(devices: usize, adaptive: bool) -> Self {
        Self {
            devices,
            fixed_devices: 1,
            messages: 40_000,
            rate_per_second: 10,
            adaptive,
            seed: 1,
        }
    }

    /// Scales the number of messages down (useful for quick runs and CI)
    /// while keeping every other parameter.
    pub fn scaled(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Interval between messages, in milliseconds.
    pub fn interval_ms(&self) -> u64 {
        1000 / self.rate_per_second.max(1)
    }

    /// Builds the testbed scenario for this workload.
    pub fn to_scenario(&self) -> Scenario {
        assert!(
            self.devices > self.fixed_devices,
            "at least one mobile device is required"
        );
        let mobile = self.devices - self.fixed_devices;
        let measured = NodeId(self.fixed_devices as u32);
        let mut workload = Workload::paper_chat(vec![measured], self.messages);
        workload.interval_ms = self.interval_ms();

        let mut scenario = Scenario::new(
            format!(
                "chat-{}devices-{}",
                self.devices,
                if self.adaptive {
                    "optimized"
                } else {
                    "not-optimized"
                }
            ),
            self.fixed_devices,
            mobile,
        )
        .with_seed(self.seed)
        .with_initial_stack(StackKind::BestEffort)
        .with_workload(workload);
        scenario.adaptive = self.adaptive;
        scenario.publish_interval_ms = 500;
        scenario
    }

    /// Deterministic message text for the `seq`-th message of a sender.
    pub fn message_text(sender: NodeId, seq: u64) -> String {
        const PHRASES: [&str; 6] = [
            "anyone up for a game tonight?",
            "did you see the last commit?",
            "the demo runs on the ipaq now",
            "switching rooms, see you there",
            "battery at 40%, going quiet",
            "meeting moved to 15h30",
        ];
        format!(
            "[{sender}#{seq}] {}",
            PHRASES[(seq as usize) % PHRASES.len()]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_the_evaluation_section() {
        let workload = ChatWorkload::paper(9, true);
        assert_eq!(workload.devices, 9);
        assert_eq!(workload.messages, 40_000);
        assert_eq!(workload.rate_per_second, 10);
        assert_eq!(workload.interval_ms(), 100);
    }

    #[test]
    fn scenario_bridge_preserves_the_shape() {
        let scenario = ChatWorkload::paper(6, true).scaled(500).to_scenario();
        assert_eq!(scenario.device_count(), 6);
        assert_eq!(scenario.fixed_nodes, 1);
        assert_eq!(scenario.mobile_nodes, 5);
        assert!(scenario.adaptive);
        assert_eq!(scenario.workload.messages_per_sender, 500);
        assert_eq!(scenario.workload.senders, vec![NodeId(1)]);

        let baseline = ChatWorkload::paper(6, false).scaled(500).to_scenario();
        assert!(!baseline.adaptive);
    }

    #[test]
    #[should_panic(expected = "at least one mobile device")]
    fn all_fixed_configurations_are_rejected() {
        let workload = ChatWorkload {
            devices: 2,
            fixed_devices: 2,
            ..ChatWorkload::paper(2, true)
        };
        let _ = workload.to_scenario();
    }

    #[test]
    fn message_text_is_deterministic_and_distinct_per_seq() {
        let a = ChatWorkload::message_text(NodeId(1), 3);
        let b = ChatWorkload::message_text(NodeId(1), 3);
        let c = ChatWorkload::message_text(NodeId(1), 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.contains("n1#3"));
    }
}
