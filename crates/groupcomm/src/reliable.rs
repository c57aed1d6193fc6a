//! NACK-based reliable multicast with FIFO delivery.
//!
//! This is the "detect and recover" strategy the paper recommends for small
//! error rates: receivers detect sequence gaps and request retransmission
//! from the original sender with a negative acknowledgement; the sender keeps
//! a bounded buffer of recently sent messages to serve those requests.
//! Delivery is per-sender FIFO (the layer subsumes [`crate::fifo`]).

use std::collections::BTreeMap;

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;

use crate::events::NackRequest;
use crate::headers::{NackHeader, SeqHeader};

/// Registered name of the reliable multicast layer.
pub const RELIABLE_LAYER: &str = "reliable";

/// Timer tag used for the periodic gap check.
const GAP_CHECK_TAG: u32 = 1;

/// How often gaps are re-examined and NACKed.
const NACK_INTERVAL_MS: u64 = 200;

/// Sent messages kept for retransmission.
const RETENTION: usize = 2048;

/// The NACK-based reliable multicast layer. It reads no parameters.
pub struct ReliableLayer;

impl Layer for ReliableLayer {
    fn name(&self) -> &str {
        RELIABLE_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<NackRequest>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["NackRequest"]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(ReliableSession {
            next_seq: 0,
            sent: BTreeMap::new(),
            incoming: BTreeMap::new(),
        })
    }
}

#[derive(Debug, Default)]
struct IncomingState {
    expected: u64,
    pending: BTreeMap<u64, Event>,
}

/// Session state of the reliable multicast layer.
#[derive(Debug)]
pub struct ReliableSession {
    next_seq: u64,
    /// Recently sent messages (with the sequence header already pushed).
    // bound: capped at `RETENTION` -- the oldest entry is evicted on overflow.
    sent: BTreeMap<u64, Message>,
    // A BTreeMap, not a HashMap: `send_nacks` iterates per-origin state and
    // emits NACK packets — their on-wire order must not depend on hash
    // state (det:map-iter).
    // bound: one entry per origin in the group; each per-origin reorder buffer drains as NACK repair fills its gaps.
    incoming: BTreeMap<NodeId, IncomingState>,
}

impl ReliableSession {
    fn send_nacks(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let mut requests: Vec<(NodeId, Vec<u64>)> = Vec::new();
        for (origin, state) in &self.incoming {
            let Some(highest) = state.pending.keys().next_back().copied() else {
                continue;
            };
            let missing: Vec<u64> = (state.expected..highest)
                .filter(|seq| !state.pending.contains_key(seq))
                .take(64)
                .collect();
            if !missing.is_empty() {
                requests.push((*origin, missing));
            }
        }
        for (origin, missing) in requests {
            if origin == local {
                continue;
            }
            let mut message = Message::new();
            message.push(&NackHeader {
                origin: local,
                missing,
            });
            ctx.dispatch(Event::down(NackRequest::new(
                local,
                Dest::Node(origin),
                message,
            )));
        }
    }

    fn deliver_ready(&mut self, origin: NodeId, ctx: &mut EventContext<'_>) {
        let Some(state) = self.incoming.get_mut(&origin) else {
            return;
        };
        while let Some(event) = state.pending.remove(&state.expected) {
            state.expected += 1;
            ctx.forward(event);
        }
    }
}

impl Session for ReliableSession {
    fn layer_name(&self) -> &str {
        RELIABLE_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        // Periodic gap check.
        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == RELIABLE_LAYER {
                if timer.tag == GAP_CHECK_TAG {
                    self.send_nacks(ctx);
                    ctx.set_timer(NACK_INTERVAL_MS, GAP_CHECK_TAG);
                }
                return;
            }
            ctx.forward(event);
            return;
        }
        if event.is::<ChannelInit>() {
            ctx.set_timer(NACK_INTERVAL_MS, GAP_CHECK_TAG);
            ctx.forward(event);
            return;
        }
        // Retransmission requests addressed to this node.
        if event.is::<NackRequest>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(nack) = event.get_mut::<NackRequest>() else {
                return;
            };
            let requester = nack.header.source;
            let Ok(header) = nack.message.pop::<NackHeader>() else {
                return;
            };
            let local = ctx.node_id();
            for seq in header.missing {
                if let Some(stored) = self.sent.get(&seq) {
                    ctx.dispatch(Event::down(DataEvent::new(
                        local,
                        Dest::Node(requester),
                        stored.clone(),
                    )));
                }
            }
            return;
        }

        match event.direction {
            Direction::Down => {
                if let Some(data) = event.get_mut::<DataEvent>() {
                    self.next_seq += 1;
                    data.message.push(&SeqHeader { seq: self.next_seq });
                    // Kept for retransmission: a copy of its own, so the
                    // window does not pin the pooled header scratch.
                    self.sent.insert(self.next_seq, data.message.compact());
                    if self.sent.len() > RETENTION {
                        let oldest = *self.sent.keys().next().expect("non-empty");
                        self.sent.remove(&oldest);
                    }
                }
                ctx.forward(event);
            }
            Direction::Up => {
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                let Ok(header) = data.message.pop::<SeqHeader>() else {
                    return;
                };
                let origin = data.header.source;
                let state = self
                    .incoming
                    .entry(origin)
                    .or_insert_with(|| IncomingState {
                        expected: 1,
                        pending: BTreeMap::new(),
                    });
                if header.seq < state.expected || state.pending.contains_key(&header.seq) {
                    return; // duplicate
                }
                if header.seq == state.expected {
                    state.expected += 1;
                    ctx.forward(event);
                    self.deliver_ready(origin, ctx);
                } else {
                    // Held past this event: must not pin the packet buffer.
                    event.compact();
                    state.pending.insert(header.seq, event);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::TestPlatform;
    use morpheus_appia::testing::Harness;

    use super::*;

    fn harness(platform: &mut TestPlatform) -> Harness {
        Harness::new(ReliableLayer, &LayerParams::new(), platform)
    }

    fn incoming(origin: u32, seq: u64, payload: &[u8]) -> Event {
        let mut message = Message::with_payload(payload.to_vec());
        message.push(&SeqHeader { seq });
        Event::up(DataEvent::new(
            NodeId(origin),
            Dest::Node(NodeId(9)),
            message,
        ))
    }

    #[test]
    fn sender_assigns_sequence_numbers_and_retains_messages() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut reliable = harness(&mut platform);
        let out = reliable.run_down(
            Event::down(DataEvent::to_group(
                NodeId(1),
                Message::with_payload(&b"a"[..]),
            )),
            &mut platform,
        );
        assert_eq!(out.len(), 1);
        let seq: SeqHeader = out[0]
            .get::<DataEvent>()
            .unwrap()
            .message
            .peek()
            .expect("sequence header present");
        assert_eq!(seq.seq, 1);
    }

    #[test]
    fn in_order_messages_are_delivered_and_gaps_are_buffered() {
        let mut platform = TestPlatform::new(NodeId(9));
        let mut reliable = harness(&mut platform);
        assert_eq!(
            reliable.run_up(incoming(1, 1, b"a"), &mut platform).len(),
            1
        );
        assert!(reliable
            .run_up(incoming(1, 3, b"c"), &mut platform)
            .is_empty());
        let released = reliable.run_up(incoming(1, 2, b"b"), &mut platform);
        assert_eq!(
            released.len(),
            2,
            "filling the gap releases both buffered messages"
        );
    }

    #[test]
    fn gap_check_timer_sends_a_nack_for_missing_messages() {
        let mut platform = TestPlatform::new(NodeId(9));
        let mut reliable = harness(&mut platform);
        reliable.run_up(incoming(1, 1, b"a"), &mut platform);
        reliable.run_up(incoming(1, 4, b"d"), &mut platform);

        // The ChannelInit timer was armed at harness construction; fire it.
        let timers: Vec<_> = platform.timers.clone();
        assert!(!timers.is_empty(), "gap-check timer armed at init");
        reliable.fire_timer(timers[0].1, &mut platform);

        let down = reliable.drain_down();
        let nacks: Vec<&Event> = down.iter().filter(|e| e.is::<NackRequest>()).collect();
        assert_eq!(nacks.len(), 1);
        let nack = nacks[0].get::<NackRequest>().unwrap();
        assert_eq!(nack.header.dest, Dest::Node(NodeId(1)));
        let header: NackHeader = nack.message.peek().unwrap();
        assert_eq!(header.missing, vec![2, 3]);
    }

    #[test]
    fn nack_requests_trigger_retransmissions_from_the_sent_buffer() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut reliable = harness(&mut platform);
        for payload in [&b"a"[..], &b"b"[..], &b"c"[..]] {
            reliable.run_down(
                Event::down(DataEvent::to_group(
                    NodeId(1),
                    Message::with_payload(payload.to_vec()),
                )),
                &mut platform,
            );
        }

        let mut message = Message::new();
        message.push(&NackHeader {
            origin: NodeId(5),
            missing: vec![2, 3],
        });
        let nack = Event::up(NackRequest::new(NodeId(5), Dest::Node(NodeId(1)), message));
        reliable.run_up(nack, &mut platform);

        let down = reliable.drain_down();
        let retransmitted: Vec<&Event> = down.iter().filter(|e| e.is::<DataEvent>()).collect();
        assert_eq!(retransmitted.len(), 2);
        assert!(retransmitted
            .iter()
            .all(|e| e.get::<DataEvent>().unwrap().header.dest == Dest::Node(NodeId(5))));
    }

    #[test]
    fn nacks_for_unknown_sequences_are_ignored() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut reliable = harness(&mut platform);
        let mut message = Message::new();
        message.push(&NackHeader {
            origin: NodeId(5),
            missing: vec![100],
        });
        reliable.run_up(
            Event::up(NackRequest::new(NodeId(5), Dest::Node(NodeId(1)), message)),
            &mut platform,
        );
        assert!(reliable.drain_down().is_empty());
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut platform = TestPlatform::new(NodeId(9));
        let mut reliable = harness(&mut platform);
        assert_eq!(
            reliable.run_up(incoming(1, 1, b"a"), &mut platform).len(),
            1
        );
        assert!(reliable
            .run_up(incoming(1, 1, b"a"), &mut platform)
            .is_empty());
        // Duplicate of a buffered (not yet delivered) message.
        assert!(reliable
            .run_up(incoming(1, 3, b"c"), &mut platform)
            .is_empty());
        assert!(reliable
            .run_up(incoming(1, 3, b"c"), &mut platform)
            .is_empty());
    }

    #[test]
    fn retention_is_bounded() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut reliable = harness(&mut platform);
        let sends = RETENTION as u64 + 1;
        for _ in 0..sends {
            reliable.run_down(
                Event::down(DataEvent::to_group(
                    NodeId(1),
                    Message::with_payload(&b"x"[..]),
                )),
                &mut platform,
            );
        }
        // Requesting an evicted sequence number yields nothing; a recent one works.
        let mut message = Message::new();
        message.push(&NackHeader {
            origin: NodeId(5),
            missing: vec![1, sends],
        });
        reliable.run_up(
            Event::up(NackRequest::new(NodeId(5), Dest::Node(NodeId(1)), message)),
            &mut platform,
        );
        let retransmitted = reliable.drain_down();
        assert_eq!(
            retransmitted.iter().filter(|e| e.is::<DataEvent>()).count(),
            1
        );
    }
}
