//! Battery and energy model.
//!
//! The paper motivates battery-aware adaptation ("when all participants
//! execute in mobile devices, one can use information about the available
//! battery at each device to increase the lifetime of the network"). The
//! simulator therefore charges every transmission and reception against the
//! sending/receiving node's battery using a simple linear model.

use serde::{Deserialize, Serialize};

/// A node battery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
}

impl Battery {
    /// Creates a full battery with the given capacity in joules. Use
    /// `f64::INFINITY` for mains-powered devices.
    pub fn new(capacity_j: f64) -> Self {
        Self {
            capacity_j,
            remaining_j: capacity_j,
        }
    }

    /// Remaining charge in joules.
    pub fn remaining_joules(&self) -> f64 {
        self.remaining_j
    }

    /// Remaining charge as a fraction in `[0, 1]`; mains-powered devices
    /// always report `1.0`.
    pub fn fraction(&self) -> f64 {
        if self.capacity_j.is_infinite() {
            1.0
        } else if self.capacity_j <= 0.0 {
            0.0
        } else {
            (self.remaining_j / self.capacity_j).clamp(0.0, 1.0)
        }
    }

    /// Whether the battery is exhausted.
    pub fn is_depleted(&self) -> bool {
        !self.capacity_j.is_infinite() && self.remaining_j <= 0.0
    }

    /// Consumes energy; the charge never goes below zero.
    pub fn consume(&mut self, joules: f64) {
        if self.capacity_j.is_infinite() {
            return;
        }
        self.remaining_j = (self.remaining_j - joules.max(0.0)).max(0.0);
    }
}

/// Linear energy cost model for radio activity.
///
/// Costs follow the commonly used first-order radio model: a fixed per-message
/// cost (protocol processing, channel acquisition) plus a per-byte cost, with
/// transmission more expensive than reception.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy per transmitted message, in joules.
    pub tx_per_message_j: f64,
    /// Energy per transmitted byte, in joules.
    pub tx_per_byte_j: f64,
    /// Energy per received message, in joules.
    pub rx_per_message_j: f64,
    /// Energy per received byte, in joules.
    pub rx_per_byte_j: f64,
}

impl EnergyModel {
    /// A model approximating an 802.11b PDA radio.
    pub fn wireless_pda() -> Self {
        Self {
            tx_per_message_j: 0.012,
            tx_per_byte_j: 0.000_002,
            rx_per_message_j: 0.006,
            rx_per_byte_j: 0.000_001,
        }
    }

    /// A model for mains-powered wired devices (tracked for completeness, the
    /// battery is infinite anyway).
    pub fn wired() -> Self {
        Self {
            tx_per_message_j: 0.001,
            tx_per_byte_j: 0.000_000_2,
            rx_per_message_j: 0.000_5,
            rx_per_byte_j: 0.000_000_1,
        }
    }

    /// Energy cost of transmitting one message of `size` bytes.
    pub fn tx_cost(&self, size: usize) -> f64 {
        self.tx_per_message_j + self.tx_per_byte_j * size as f64
    }

    /// Energy cost of receiving one message of `size` bytes.
    pub fn rx_cost(&self, size: usize) -> f64 {
        self.rx_per_message_j + self.rx_per_byte_j * size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_battery_depletes() {
        let mut battery = Battery::new(10.0);
        assert_eq!(battery.fraction(), 1.0);
        battery.consume(4.0);
        assert!((battery.fraction() - 0.6).abs() < 1e-9);
        battery.consume(100.0);
        assert!(battery.is_depleted());
        assert_eq!(battery.remaining_joules(), 0.0);
    }

    #[test]
    fn infinite_battery_never_depletes() {
        let mut battery = Battery::new(f64::INFINITY);
        battery.consume(1e12);
        assert!(!battery.is_depleted());
        assert_eq!(battery.fraction(), 1.0);
    }

    #[test]
    fn negative_consumption_is_ignored() {
        let mut battery = Battery::new(5.0);
        battery.consume(-3.0);
        assert_eq!(battery.remaining_joules(), 5.0);
    }

    #[test]
    fn energy_model_costs_scale_with_size() {
        let model = EnergyModel::wireless_pda();
        assert!(model.tx_cost(1000) > model.tx_cost(100));
        assert!(model.tx_cost(100) > model.rx_cost(100));
        let wired = EnergyModel::wired();
        assert!(wired.tx_cost(100) < model.tx_cost(100));
    }
}
