//! # morpheus-appia
//!
//! A modular protocol composition and execution kernel, modelled after the
//! Appia system used by the Morpheus framework (Mocito et al., 2005).
//!
//! The crate provides the abstractions the paper relies on:
//!
//! * **Layers** ([`layer::Layer`]) — micro-protocols that declare which event
//!   types they accept, provide and require.
//! * **Sessions** ([`session::Session`]) — per-channel (or shared) state of a
//!   layer, receiving events through a handler.
//! * **QoS** ([`qos::Qos`]) — an ordered composition of layers describing a
//!   quality of service.
//! * **Channels** ([`channel::Channel`]) — instantiations of a QoS with a
//!   concrete stack of sessions. Event routes are computed per event type and
//!   cached, which is Appia's "automatic optimisation of the flow of events".
//! * **Kernel** ([`kernel::Kernel`]) — the single-threaded event scheduler
//!   that owns channels, processes events, (de)serialises packets and applies
//!   run-time reconfiguration ([`kernel::Kernel::replace_channel`]).
//! * **Declarative channel descriptions** ([`config`]) — the AppiaXML
//!   analogue used by the Morpheus Core subsystem to ship stack
//!   configurations to remote nodes.
//!
//! The kernel is deliberately runtime-agnostic: all interaction with the
//! outside world (clock, timers, network, application delivery) goes through
//! the [`platform::Platform`] trait, which the simulation testbed implements.

#![forbid(unsafe_code)]

pub mod channel;
pub mod config;
pub mod error;
pub mod event;
pub mod events;
pub mod hash;
pub mod intern;
pub mod kernel;
pub mod layer;
pub mod layers;
pub mod message;
pub mod platform;
pub mod qos;
pub mod registry;
pub mod session;
pub mod testing;
pub mod timer;
pub mod wire;

pub use channel::{Channel, ChannelId, MAX_STACK_DEPTH};
pub use error::AppiaError;
pub use event::{Category, Dest, Direction, Event, EventPayload, EventSpec, SendHeader, Sendable};
pub use events::{ChannelClose, ChannelInit, DataEvent, DebugEvent, TimerExpired};
pub use intern::Name;
pub use kernel::Kernel;
pub use layer::{Layer, LayerParams};
pub use message::Message;
pub use platform::{
    AppDelivery, DeliveryKind, DeviceClass, InPacket, NodeId, NodeProfile, OutPacket, PacketClass,
    PacketDest, Platform, ReconfigRequest, TestPlatform,
};
pub use qos::Qos;
pub use registry::{EventFactoryRegistry, LayerRegistry};
pub use session::{Session, SessionRef};
pub use timer::TimerKey;
pub use wire::{Wire, WireError, WireReader, WireWriter};

/// Starts this thread's reusable kernel memory afresh: the header scratch
/// behind [`wire::encode_pooled`] and the event-box free lists
/// ([`event::FREE_BOXES_PER_TYPE`]).
///
/// Both are per-thread state that outlives every kernel, and where an
/// earlier run left them decides when this run allocates. A driver that
/// replays runs (the testbed runner) calls this first; the allocation count
/// of a run is then a function of the run alone.
pub fn reset_thread_scratch() {
    wire::reset_frame_scratch();
    event::reset_free_boxes();
}
