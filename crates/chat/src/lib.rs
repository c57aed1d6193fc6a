//! # morpheus-chat
//!
//! The multi-user chat application used to validate the Morpheus prototype,
//! plus its workload generator.
//!
//! In the paper, "each group of users, defined from their interests, is
//! supported by a different multicast group"; the application exchanges
//! 40,000 messages at 10 msg/s over the group communication service, and the
//! evaluation counts the messages transmitted by the mobile device with and
//! without the Mecho adaptation.
//!
//! * [`message::ChatMessage`] — the application-level message format;
//! * [`app::ChatApp`] — a small client that composes outgoing messages and
//!   decodes deliveries;
//! * [`history::RoomHistory`] — shared, deduplicated room history, exposed to
//!   the recovery layer's rejoin state transfer as
//!   [`history::ChatHistorySection`];
//! * [`workload::ChatWorkload`] — deterministic chat traffic (senders, rate,
//!   text) matching the paper's parameters, and the bridge to a testbed
//!   [`morpheus_testbed::Scenario`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod app;
pub mod history;
pub mod message;
pub mod workload;

pub use app::ChatApp;
pub use history::{ChatHistoryBinding, ChatHistorySection, RoomHistory};
pub use message::ChatMessage;
pub use workload::ChatWorkload;
