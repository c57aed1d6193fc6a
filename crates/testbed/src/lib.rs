//! # morpheus-testbed
//!
//! The simulated experimental testbed: it instantiates one
//! [`morpheus_core::MorpheusNode`] per participant, binds each to the
//! deterministic discrete-event network simulator (`morpheus-netsim`) through
//! a [`platform::SimPlatform`], and runs complete distributed scenarios —
//! including the paper's evaluation scenario (a hybrid 802.11b cell with
//! fixed PCs and mobile PDAs exchanging chat traffic).
//!
//! * [`scenario::Scenario`] describes an experiment: devices, topology,
//!   workload, whether adaptation is enabled, seeds.
//! * [`runner::Runner`] executes a scenario to completion and produces a
//!   [`report::RunReport`] with the per-node message counts (the metric of
//!   the paper's Figure 3), energy, deliveries and reconfiguration events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod platform;
pub mod report;
pub mod runner;
pub mod scenario;

pub use platform::SimPlatform;
pub use report::{
    NodeReport, RejoinReport, RoundReport, RunReport, WedgeReport, WireBytes, WireEventBytes,
};
pub use runner::{AppBinding, Runner};
pub use scenario::{Scenario, TopologyChoice, Workload};
