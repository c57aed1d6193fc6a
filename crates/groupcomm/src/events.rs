//! Event types used by the group communication suite.
//!
//! Sendable events carry all protocol information inside their
//! [`morpheus_appia::Message`] headers (see [`crate::headers`]); the event
//! *type* selects which layers process it.

use morpheus_appia::platform::NodeId;
use morpheus_appia::{internal_event, sendable_event};

use crate::view::View;

sendable_event! {
    /// Periodic liveness announcement from the failure detector.
    pub struct Heartbeat, class: Control
}

sendable_event! {
    /// A negative acknowledgement requesting retransmission of missing
    /// messages (header: [`crate::headers::NackHeader`]).
    pub struct NackRequest, class: Control
}

sendable_event! {
    /// First phase of a view change: the proposer opens an epoch-stamped
    /// round (headers, top-first: the view epoch, then the proposed
    /// [`View`]).
    pub struct ViewPrepare, class: Control
}

sendable_event! {
    /// A member acknowledges that it blocked and flushed for a view round
    /// (header: [`crate::headers::FlushBody`] — the round's ballot plus the
    /// flushed-member set, aggregated in gossip mode).
    pub struct FlushAck, class: Control
}

sendable_event! {
    /// Second phase of a view change: the proposer commits the agreed view
    /// (headers, top-first: the view epoch, then the encoded [`View`]).
    pub struct ViewCommit, class: Control
}

sendable_event! {
    /// A node asks to join the group (processed by the view coordinator).
    pub struct JoinRequest, class: Control
}

sendable_event! {
    /// A participant rejected a [`ViewPrepare`] because it already promised a
    /// stronger ballot (headers, top-first: the promised epoch, then the
    /// epoch holder). The proposer answers by jumping its epoch past the
    /// reported one and re-proposing immediately, instead of discovering the
    /// obstruction one epoch per round timeout — which matters when a falsely
    /// self-suspecting rejoiner abandons a cascade of high-ballot rounds.
    pub struct StaleBallot, class: Control
}

sendable_event! {
    /// Periodic gossip-repair digest: the spans of messages the sender's
    /// repair log can serve (header: [`crate::headers::RepairDigest`]).
    pub struct GossipRepairDigest, class: Repair
}

sendable_event! {
    /// NACK pull of the epidemic repair pass: the message identifiers the
    /// sender misses and pulls from the digest's sender (header:
    /// [`crate::headers::RepairPull`]).
    pub struct GossipRepairPull, class: Repair
}

sendable_event! {
    /// Answer to a [`GossipRepairPull`]: one logged message, re-streamed to
    /// the puller (header: [`crate::headers::RepairPushHeader`]; payload:
    /// the original message bytes).
    pub struct GossipRepairPush, class: Repair
}

sendable_event! {
    /// Retention fall-through answer to a [`GossipRepairPull`] that asked
    /// for sequence numbers older than the responder's repair-log floor
    /// (header: [`crate::headers::RepairFloorBody`]). Tells the puller NACK
    /// repair can never close that gap; the puller escalates to a targeted
    /// state-section pull against the responder instead.
    pub struct GossipRepairFloor, class: Repair
}

sendable_event! {
    /// Up to four app messages aggregated into one gossip packet (header:
    /// [`crate::headers::GossipBatchBody`]): the only form a gossip push
    /// travels in. Data class: batches carry application payloads and must
    /// experience the same loss and accounting as any other data packet.
    pub struct GossipBatch, class: Data
}

sendable_event! {
    /// A forward-error-correction parity block covering a window of data
    /// messages (header: [`crate::headers::FecParityHeader`]).
    pub struct FecParity, class: Control
}

sendable_event! {
    /// Total-order sequencing information from the sequencer (header:
    /// [`crate::headers::OrderHeader`]).
    pub struct OrderInfo, class: Control
}

internal_event! {
    /// The failure detector suspects a member has failed.
    pub struct Suspect {
        /// The suspected node.
        pub node: NodeId,
    }
    categories: [Internal]
}

internal_event! {
    /// The failure detector heard again from a member it had previously
    /// suspected: the suspicion was false (e.g. heartbeats dropped on a lossy
    /// link) and upper layers may re-admit the node.
    pub struct Alive {
        /// The node that turned out to be alive after all.
        pub node: NodeId,
    }
    categories: [Internal]
}

internal_event! {
    /// A new view was installed; travels *down* the stack so lower layers
    /// (multicast, reliability, ordering) update their membership.
    pub struct ViewInstall {
        /// The newly installed view.
        pub view: View,
    }
    categories: [Internal]
}

internal_event! {
    /// Asks the view-synchrony layer to block the channel: application sends
    /// are buffered until a [`ResumeRequest`] arrives. Used by the Core
    /// subsystem to drive the channel to quiescence before reconfiguration.
    pub struct BlockRequest {}
    categories: [Internal]
}

internal_event! {
    /// Unblocks a previously blocked channel and re-emits buffered sends.
    pub struct ResumeRequest {}
    categories: [Internal]
}

internal_event! {
    /// Raised by the recovery layer when a never-crashed member detects it
    /// was expelled from the group by a false suspicion (its failure
    /// detector ended up suspecting every other view member). The
    /// view-synchrony layer above answers by resetting into *joining* mode —
    /// empty view, channel blocked — so the node re-enters through the same
    /// join path a restarted node uses.
    pub struct Rejoin {}
    categories: [Internal]
}

internal_event! {
    /// Raised *up* the stack by the gossip layer when a
    /// [`GossipRepairFloor`] told it a missed span was evicted from every
    /// reachable repair log. The recovery layer above answers with a
    /// targeted state-section pull against the donor — snapshot catch-up
    /// without a view change or stack teardown.
    pub struct CatchupRequest {
        /// The member whose repair log floored the pull: known complete up
        /// to its digest, so it serves as the snapshot donor.
        pub donor: NodeId,
    }
    categories: [Internal]
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_appia::event::EventPayload;
    use morpheus_appia::registry::EventFactoryRegistry;
    use morpheus_appia::{Message, PacketClass};

    #[test]
    fn control_events_have_control_class() {
        let hb = Heartbeat::to_group(NodeId(1), Message::new());
        assert_eq!(hb.header.class, PacketClass::Control);
        let nack = NackRequest::to_group(NodeId(1), Message::new());
        assert_eq!(nack.header.class, PacketClass::Control);
    }

    #[test]
    fn sendable_events_register_factories() {
        let mut factories = EventFactoryRegistry::new();
        Heartbeat::register(&mut factories);
        ViewPrepare::register(&mut factories);
        FlushAck::register(&mut factories);
        ViewCommit::register(&mut factories);
        for name in ["Heartbeat", "ViewPrepare", "FlushAck", "ViewCommit"] {
            assert!(factories.contains(name));
        }
    }

    #[test]
    fn internal_events_carry_their_payload() {
        let suspect = Suspect { node: NodeId(7) };
        assert_eq!(suspect.node, NodeId(7));
        assert_eq!(suspect.type_name(), "Suspect");
        let install = ViewInstall {
            view: View::initial(vec![NodeId(1), NodeId(2)]),
        };
        assert_eq!(install.view.len(), 2);
    }
}
