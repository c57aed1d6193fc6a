//! # morpheus-cocaditem
//!
//! The **Co**ntext **Ca**pture and **Di**ssemination Sys**tem** (Cocaditem)
//! of the Morpheus framework.
//!
//! Cocaditem is a distributed component running on every node. It is made of:
//!
//! * a set of **context retrievers** ([`retriever`]) that sample the locally
//!   observable system context (device class, battery, link quality, error
//!   rate, bandwidth — the paper's "system context");
//! * a **dissemination layer** ([`dissemination`]) that periodically
//!   multicasts the locally collected context on the group communication
//!   control channel and writes every participant's last published snapshot
//!   into the node's context store ([`store`]) — one store per node, which
//!   the Core control layer reads in place. Core learns *that* the context
//!   changed from the [`ContextUpdated`] event the kernel routes to it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod context;
pub mod dissemination;
pub mod retriever;
pub mod room;
pub mod store;

pub use context::{ContextKey, ContextSnapshot, ContextValue};
pub use dissemination::{
    register_cocaditem_with_store, BatchBody, ContextBatch, ContextDigest, ContextPublish,
    ContextPull, ContextUpdated, COCADITEM_LAYER,
};
pub use retriever::{default_retrievers, ContextRetriever};
pub use room::RoomContext;
pub use store::{ContextStore, StoreSummary};
