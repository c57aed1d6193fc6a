//! # morpheus-core
//!
//! The **Core** control and reconfiguration subsystem of the Morpheus
//! framework, plus the adaptation policies and the node-level façade that
//! ties the whole middleware together.
//!
//! Core is a distributed subsystem with two parts, mirroring the paper:
//!
//! * a **control component** ([`control`]) — a layer on the group
//!   communication control channel. The deterministically elected coordinator
//!   (lowest node id) evaluates the adaptation policy against the distributed
//!   context assembled by Cocaditem and, when a different stack configuration
//!   becomes preferable, names the new stack to all participants;
//! * a set of **local modules** ([`node::MorpheusNode`]) — on each node,
//!   the runtime that drives the data channel to quiescence (through the
//!   view-synchrony block primitive), deploys the new stack (rendered from
//!   the node's own [`stack_catalog`]) via the kernel's channel replacement
//!   and resumes the data flow.
//!
//! The adaptation policies themselves live in [`policy`] and [`rules`]; the
//! named stack configurations the policies can choose between are produced by
//! [`stack_catalog`].

#![forbid(unsafe_code)]

pub mod control;
pub mod node;
pub mod policy;
pub mod rules;
pub mod stack_catalog;

pub use control::{register_core, ReconfigAck, ReconfigCommand, CORE_LAYER};
pub use node::{MorpheusNode, NodeOptions};
pub use policy::{AdaptationPolicy, GlobalContext, RoomStackKind, StackKind};
pub use rules::{DefaultPolicy, RoomRules};
pub use stack_catalog::StackCatalog;
