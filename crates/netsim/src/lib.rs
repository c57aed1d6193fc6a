//! # morpheus-netsim
//!
//! A deterministic discrete-event network simulator used as the experimental
//! substrate for the Morpheus reproduction.
//!
//! The paper's evaluation ran on a physical testbed (fixed PCs plus HP iPAQ
//! PDAs on an 802.11b cell). The metric it reports — the number of messages
//! sent by the mobile device — is a protocol-level count, so a simulator that
//! reproduces the topology, the link characteristics and the per-node
//! accounting regenerates the same figure without the hardware.
//!
//! The crate provides:
//!
//! * [`time::SimTime`] — simulated time in milliseconds;
//! * [`engine::EventQueue`] — a calendar queue of one bucket per simulated
//!   millisecond, time-ordered with deterministic FIFO tie-breaking;
//! * [`rng::SimRng`] — a seeded random number generator;
//! * [`node`] / [`battery`] — device classes and an energy model;
//! * [`link`] — wired LAN, 802.11b-like wireless and WAN link models;
//! * [`topology`] — scenario topologies (LAN, hybrid cell, ad-hoc, WAN);
//! * [`transport::Network`] — packet transmission: loss, latency, fan-out,
//!   per-node statistics and battery drain;
//! * [`stats`] — per-node and network-wide message/byte/energy counters;
//! * [`fault`] — composable, deterministic fault schedules (flaps, one-way
//!   partitions, latency shifts, churn, packet corruption).

#![forbid(unsafe_code)]

pub mod battery;
pub mod engine;
pub mod fault;
pub mod link;
pub mod node;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;
pub mod transport;

pub use battery::{Battery, EnergyModel};
pub use engine::EventQueue;
pub use fault::{FaultEvent, FaultSchedule};
pub use link::{LinkClass, LinkModel, LinkOutcome, WanLink, WiredLan, Wireless80211b};
pub use node::{NodeId, NodeKind, SimNode};
pub use rng::SimRng;
pub use stats::{NetworkStats, NodeStats, TrafficClass};
pub use time::SimTime;
pub use topology::{Topology, TopologyKind};
pub use transport::{Delivery, Network, Packet, PacketTarget};
