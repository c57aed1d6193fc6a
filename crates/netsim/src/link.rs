//! Link models: latency, jitter and loss per transmission.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// The coarse class of a link, decided by the topology for each sender/receiver pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Switched wired LAN (fixed PC to fixed PC).
    WiredLan,
    /// 802.11b cell (any hop involving a mobile device).
    Wireless,
    /// Wide-area path (geographically distributed participants).
    Wan,
}

/// The outcome of attempting one transmission over a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkOutcome {
    /// The packet is delivered after the given latency in milliseconds.
    Delivered {
        /// End-to-end latency in milliseconds.
        latency_ms: u64,
    },
    /// The packet is lost.
    Lost,
}

impl LinkOutcome {
    /// Whether the packet was delivered.
    pub fn is_delivered(&self) -> bool {
        matches!(self, LinkOutcome::Delivered { .. })
    }
}

/// A link model: given a packet size it yields an outcome.
pub trait LinkModel {
    /// The class of the link.
    fn class(&self) -> LinkClass;

    /// Nominal bandwidth in kbit/s (exposed to the context subsystem).
    fn bandwidth_kbps(&self) -> u32;

    /// Baseline loss rate in `[0, 1]`.
    fn loss_rate(&self) -> f64;

    /// Simulates one transmission of `size_bytes` bytes.
    fn transmit(&self, size_bytes: usize, rng: &mut SimRng) -> LinkOutcome {
        self.transmit_queued(size_bytes, 0.0, rng)
    }

    /// [`LinkModel::transmit`] of a packet that first waited `queued_ms`
    /// in its sender's egress queue: the wait joins the latency before it
    /// is rounded to the millisecond, and draws nothing from `rng`.
    fn transmit_queued(&self, size_bytes: usize, queued_ms: f64, rng: &mut SimRng) -> LinkOutcome;
}

/// The one transmission model every link shares: a loss draw, then a
/// latency of base delay, jitter, serialisation at `bandwidth_kbps` and
/// the sender's queueing, rounded to at least 1 ms.
fn transmit_over(
    loss_rate: f64,
    base_ms: f64,
    jitter_ms: f64,
    bandwidth_kbps: u32,
    size_bytes: usize,
    queued_ms: f64,
    rng: &mut SimRng,
) -> LinkOutcome {
    if rng.chance(loss_rate) {
        return LinkOutcome::Lost;
    }
    let serialize_ms = (size_bytes as f64 * 8.0) / (bandwidth_kbps as f64);
    let jitter = if jitter_ms > 0.0 {
        rng.random_f64() * jitter_ms
    } else {
        0.0
    };
    LinkOutcome::Delivered {
        latency_ms: (base_ms + jitter + serialize_ms + queued_ms)
            .round()
            .max(1.0) as u64,
    }
}

/// A switched 100 Mbit/s wired LAN segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WiredLan {
    /// Propagation plus switching delay in milliseconds.
    pub base_latency_ms: f64,
    /// Maximum additional jitter in milliseconds.
    pub jitter_ms: f64,
    /// Packet loss rate in `[0, 1]`.
    pub loss_rate: f64,
    /// Bandwidth in kbit/s.
    pub bandwidth_kbps: u32,
}

impl Default for WiredLan {
    fn default() -> Self {
        Self {
            base_latency_ms: 0.3,
            jitter_ms: 0.2,
            loss_rate: 0.0,
            bandwidth_kbps: 100_000,
        }
    }
}

impl LinkModel for WiredLan {
    fn class(&self) -> LinkClass {
        LinkClass::WiredLan
    }

    fn bandwidth_kbps(&self) -> u32 {
        self.bandwidth_kbps
    }

    fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    fn transmit_queued(&self, size_bytes: usize, queued_ms: f64, rng: &mut SimRng) -> LinkOutcome {
        transmit_over(
            self.loss_rate,
            self.base_latency_ms,
            self.jitter_ms,
            self.bandwidth_kbps,
            size_bytes,
            queued_ms,
            rng,
        )
    }
}

/// An 802.11b wireless cell, modelled after the paper's PDA testbed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Wireless80211b {
    /// Medium access plus propagation delay in milliseconds.
    pub base_latency_ms: f64,
    /// Maximum additional jitter in milliseconds (contention).
    pub jitter_ms: f64,
    /// Packet loss rate in `[0, 1]`.
    pub loss_rate: f64,
    /// Effective bandwidth in kbit/s (nominal 11 Mbit/s, ~5.5 effective).
    pub bandwidth_kbps: u32,
}

impl Default for Wireless80211b {
    fn default() -> Self {
        Self {
            base_latency_ms: 2.5,
            jitter_ms: 2.0,
            loss_rate: 0.01,
            bandwidth_kbps: 5_500,
        }
    }
}

impl Wireless80211b {
    /// A lossier configuration representing a degraded radio environment.
    pub fn degraded(loss_rate: f64) -> Self {
        Self {
            loss_rate,
            ..Self::default()
        }
    }
}

impl LinkModel for Wireless80211b {
    fn class(&self) -> LinkClass {
        LinkClass::Wireless
    }

    fn bandwidth_kbps(&self) -> u32 {
        self.bandwidth_kbps
    }

    fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    fn transmit_queued(&self, size_bytes: usize, queued_ms: f64, rng: &mut SimRng) -> LinkOutcome {
        transmit_over(
            self.loss_rate,
            self.base_latency_ms,
            self.jitter_ms,
            self.bandwidth_kbps,
            size_bytes,
            queued_ms,
            rng,
        )
    }
}

/// A wide-area path between geographically distributed participants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WanLink {
    /// One-way latency in milliseconds.
    pub base_latency_ms: f64,
    /// Maximum additional jitter in milliseconds.
    pub jitter_ms: f64,
    /// Packet loss rate in `[0, 1]`.
    pub loss_rate: f64,
    /// Bandwidth in kbit/s.
    pub bandwidth_kbps: u32,
}

impl Default for WanLink {
    fn default() -> Self {
        Self {
            base_latency_ms: 40.0,
            jitter_ms: 15.0,
            loss_rate: 0.005,
            bandwidth_kbps: 10_000,
        }
    }
}

impl LinkModel for WanLink {
    fn class(&self) -> LinkClass {
        LinkClass::Wan
    }

    fn bandwidth_kbps(&self) -> u32 {
        self.bandwidth_kbps
    }

    fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    fn transmit_queued(&self, size_bytes: usize, queued_ms: f64, rng: &mut SimRng) -> LinkOutcome {
        transmit_over(
            self.loss_rate,
            self.base_latency_ms,
            self.jitter_ms,
            self.bandwidth_kbps,
            size_bytes,
            queued_ms,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_links_always_deliver() {
        let link = WiredLan::default();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert!(link.transmit(256, &mut rng).is_delivered());
        }
    }

    #[test]
    fn fully_lossy_links_never_deliver() {
        let link = Wireless80211b {
            loss_rate: 1.0,
            ..Wireless80211b::default()
        };
        let mut rng = SimRng::new(1);
        for _ in 0..20 {
            assert!(!link.transmit(256, &mut rng).is_delivered());
        }
    }

    #[test]
    fn partial_loss_is_roughly_proportional() {
        let link = Wireless80211b::degraded(0.2);
        let mut rng = SimRng::new(99);
        let delivered = (0..2000)
            .filter(|_| link.transmit(128, &mut rng).is_delivered())
            .count();
        assert!((1400..=1800).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn wireless_is_slower_than_wired() {
        let wired = WiredLan::default();
        let wireless = Wireless80211b::default();
        let mut rng = SimRng::new(5);
        let lat = |outcome: LinkOutcome| match outcome {
            LinkOutcome::Delivered { latency_ms } => latency_ms,
            LinkOutcome::Lost => 0,
        };
        let mut wired_total = 0u64;
        let mut wireless_total = 0u64;
        for _ in 0..200 {
            wired_total += lat(wired.transmit(512, &mut rng));
            wireless_total += lat(wireless.transmit(512, &mut rng));
        }
        assert!(wireless_total > wired_total);
    }

    #[test]
    fn larger_packets_take_longer_on_slow_links() {
        let link = Wireless80211b {
            jitter_ms: 0.0,
            loss_rate: 0.0,
            ..Wireless80211b::default()
        };
        let mut rng = SimRng::new(2);
        let small = match link.transmit(64, &mut rng) {
            LinkOutcome::Delivered { latency_ms } => latency_ms,
            LinkOutcome::Lost => panic!(),
        };
        let large = match link.transmit(64 * 1024, &mut rng) {
            LinkOutcome::Delivered { latency_ms } => latency_ms,
            LinkOutcome::Lost => panic!(),
        };
        assert!(large > small);
    }

    #[test]
    fn classes_are_reported() {
        assert_eq!(WiredLan::default().class(), LinkClass::WiredLan);
        assert_eq!(Wireless80211b::default().class(), LinkClass::Wireless);
        assert_eq!(WanLink::default().class(), LinkClass::Wan);
        assert!(WanLink::default().bandwidth_kbps() > 0);
    }
}
