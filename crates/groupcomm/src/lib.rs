//! # morpheus-groupcomm
//!
//! A group communication protocol suite built on top of the
//! [`morpheus_appia`] protocol kernel, modelled after the Appia group
//! communication suite the Morpheus paper builds on.
//!
//! The suite provides, as independent composable layers:
//!
//! * best-effort multicast ([`beb`]) — the paper's non-adaptive baseline:
//!   a group send becomes one point-to-point message per member (or a single
//!   native multicast when available);
//! * the **Mecho** adaptive multicast ([`mecho`]) — in hybrid fixed/mobile
//!   scenarios a mobile sender transmits a single point-to-point message to a
//!   selected fixed relay, which re-multicasts it to the remaining members;
//! * epidemic (gossip) multicast ([`gossip`]) for large-scale groups;
//! * FIFO ordering ([`fifo`]), NACK-based reliable multicast ([`reliable`]),
//!   forward error correction ([`fec`]);
//! * a heartbeat failure detector ([`failure_detector`]);
//! * group membership with view synchrony ([`vsync`], [`view`]);
//! * view-synchronous state transfer for member rejoin ([`recovery`]);
//! * causal ([`causal`]) and sequencer-based total ordering ([`total`]).
//!
//! [`suite::register_suite`] registers every layer and event type with a
//! kernel; [`suite`] also provides the standard channel compositions used by
//! the Morpheus Core subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod beb;
pub mod causal;
pub mod events;
pub mod failure_detector;
pub mod fec;
pub mod fifo;
pub mod gossip;
pub mod headers;
pub mod mecho;
pub mod recovery;
pub mod reliable;
pub mod repair;
pub mod round;
pub mod sample;
pub mod sorted;
pub mod suite;
pub mod total;
pub mod view;
pub mod vsync;

pub use events::{
    BlockRequest, FecParity, FlushAck, Heartbeat, JoinRequest, NackRequest, OrderInfo,
    ResumeRequest, StaleBallot, Suspect, ViewCommit, ViewInstall, ViewPrepare,
};
pub use recovery::{RecoveryLayer, StateSection};
pub use round::{Ballot, Engine as RoundEngine};
pub use suite::{register_suite, StackBuilder};
pub use view::View;
