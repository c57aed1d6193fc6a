//! # Morpheus
//!
//! A Rust reproduction of **"Context Adaptation of the Communication Stack"**
//! (Mocito, Rosa, Almeida, Miranda, Rodrigues, Lopes — DI/FCUL TR 05-5,
//! ICDCS 2005 workshops): a middleware framework for building communication
//! protocol stacks that adapt, at run time, to the *distributed* execution
//! context.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`appia`] — the modular protocol composition and execution kernel;
//! * [`groupcomm`] — the group communication suite (best-effort multicast,
//!   Mecho, gossip, FIFO/reliable/FEC, failure detection, view synchrony,
//!   causal and total order);
//! * [`cocaditem`] — context capture and dissemination;
//! * [`core`] — the control and reconfiguration subsystem, adaptation
//!   policies and the per-node façade ([`core::MorpheusNode`]);
//! * [`overlay`] — partial-view membership and per-room sharded
//!   dissemination;
//! * [`netsim`] — the deterministic network simulator substrate;
//! * [`testbed`] — scenario runner binding Morpheus nodes to the simulator;
//! * [`chat`] — the chat application and the paper's evaluation workload.
//!
//! ## Quick start
//!
//! ```
//! use morpheus::prelude::*;
//!
//! // The paper's Figure 3 scenario at a reduced message count: a hybrid
//! // cell with 1 fixed PC + 3 PDAs, the first PDA chatting at 10 msg/s.
//! let scenario = Scenario::figure3(4, true, 50);
//! let report = Runner::new().run(&scenario);
//!
//! let mobile = report.node(NodeId(1)).unwrap();
//! assert!(mobile.final_stack.starts_with("hybrid-mecho"));
//! println!("{}", report.to_table());
//! ```

#![forbid(unsafe_code)]

pub use morpheus_appia as appia;
pub use morpheus_chat as chat;
pub use morpheus_cocaditem as cocaditem;
pub use morpheus_core as core;
pub use morpheus_groupcomm as groupcomm;
pub use morpheus_netsim as netsim;
pub use morpheus_overlay as overlay;
pub use morpheus_testbed as testbed;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use morpheus_appia::config::{ChannelConfig, LayerSpec, StackConfig};
    pub use morpheus_appia::platform::{
        AppDelivery, DeliveryKind, DeviceClass, NodeId, NodeProfile, Platform, TestPlatform,
    };
    pub use morpheus_appia::{Event, Kernel, Message};
    pub use morpheus_chat::{ChatApp, ChatHistoryBinding, ChatMessage, ChatWorkload, RoomHistory};
    pub use morpheus_cocaditem::{ContextKey, ContextSnapshot, ContextStore};
    pub use morpheus_core::{
        AdaptationPolicy, DefaultPolicy, GlobalContext, MorpheusNode, NodeOptions, StackCatalog,
        StackKind,
    };
    pub use morpheus_groupcomm::suite::StackBuilder;
    pub use morpheus_groupcomm::{register_suite, StateSection, View};
    pub use morpheus_testbed::{
        AppBinding, NodeReport, RejoinReport, RoundReport, RunReport, Runner, Scenario,
        TopologyChoice, Workload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_usable_api_surface() {
        let members: Vec<NodeId> = (0..3).map(NodeId).collect();
        let catalog = StackCatalog::new(&NodeOptions::new(members));
        let config = catalog.config_for(&StackKind::BestEffort);
        assert!(config.has_layer("beb"));
    }
}
