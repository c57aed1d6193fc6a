//! Per-sender FIFO ordering.
//!
//! Each sender stamps its data messages with a sequence number; receivers
//! deliver messages of each sender in sequence-number order, buffering
//! out-of-order arrivals and discarding duplicates. The layer does not
//! recover losses (see [`crate::reliable`] for that); a missing message only
//! delays later ones until a bounded reordering window fills up.

use std::collections::BTreeMap;

use morpheus_appia::event::{Direction, Event, EventSpec};
use morpheus_appia::events::DataEvent;
use morpheus_appia::hash::HashMap;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{Layer, LayerParams};
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;

use crate::headers::SeqHeader;

/// Registered name of the FIFO ordering layer.
pub const FIFO_LAYER: &str = "fifo";

/// Out-of-order messages buffered per sender before the gap is given up on
/// and delivery skips ahead.
const WINDOW: usize = 64;

/// The FIFO ordering layer. It reads no parameters.
pub struct FifoLayer;

impl Layer for FifoLayer {
    fn name(&self) -> &str {
        FIFO_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::of::<DataEvent>()]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(FifoSession {
            next_seq: 0,
            incoming: HashMap::default(),
        })
    }
}

#[derive(Debug, Default)]
struct SenderState {
    expected: u64,
    pending: BTreeMap<u64, Event>,
}

/// Session state of the FIFO layer.
#[derive(Debug)]
pub struct FifoSession {
    next_seq: u64,
    // bound: one entry per sender heard from; each reordering buffer is capped by `WINDOW` (overflow skips the gap).
    incoming: HashMap<NodeId, SenderState>,
}

impl Session for FifoSession {
    fn layer_name(&self) -> &str {
        FIFO_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        match event.direction {
            Direction::Down => {
                if let Some(data) = event.get_mut::<DataEvent>() {
                    self.next_seq += 1;
                    data.message.push(&SeqHeader { seq: self.next_seq });
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
                let state = self.incoming.entry(origin).or_insert_with(|| SenderState {
                    expected: 1,
                    pending: BTreeMap::new(),
                });

                if header.seq < state.expected {
                    return; // duplicate
                }
                if header.seq > state.expected {
                    // Held past this event: must not pin the packet buffer.
                    event.compact();
                    state.pending.insert(header.seq, event);
                    // If the reordering window overflows, give up on the gap:
                    // advance to the oldest buffered message.
                    if state.pending.len() > WINDOW {
                        if let Some((&oldest, _)) = state.pending.iter().next() {
                            state.expected = oldest;
                        }
                    } else {
                        return;
                    }
                } else {
                    state.expected += 1;
                    ctx.forward(event);
                }

                // Drain any now-deliverable buffered messages.
                while let Some(buffered) = state.pending.remove(&state.expected) {
                    state.expected += 1;
                    ctx.forward(buffered);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::event::Dest;
    use morpheus_appia::platform::TestPlatform;
    use morpheus_appia::testing::Harness;
    use morpheus_appia::Message;

    use super::*;

    fn data_with_seq(origin: u32, seq: u64, payload: &[u8]) -> Event {
        let mut message = Message::with_payload(payload.to_vec());
        message.push(&SeqHeader { seq });
        Event::up(DataEvent::new(
            NodeId(origin),
            Dest::Node(NodeId(99)),
            message,
        ))
    }

    fn harness(platform: &mut TestPlatform) -> Harness {
        Harness::new(FifoLayer, &LayerParams::new(), platform)
    }

    #[test]
    fn in_order_messages_pass_straight_through() {
        let mut platform = TestPlatform::new(NodeId(99));
        let mut fifo = harness(&mut platform);
        for seq in 1..=3 {
            let delivered = fifo.run_up(data_with_seq(1, seq, b"m"), &mut platform);
            assert_eq!(delivered.len(), 1, "seq {seq} delivered immediately");
        }
    }

    #[test]
    fn out_of_order_messages_are_buffered_and_released_in_order() {
        let mut platform = TestPlatform::new(NodeId(99));
        let mut fifo = harness(&mut platform);

        assert!(fifo
            .run_up(data_with_seq(1, 2, b"b"), &mut platform)
            .is_empty());
        assert!(fifo
            .run_up(data_with_seq(1, 3, b"c"), &mut platform)
            .is_empty());
        let released = fifo.run_up(data_with_seq(1, 1, b"a"), &mut platform);
        assert_eq!(released.len(), 3, "gap fill releases the whole prefix");
    }

    #[test]
    fn duplicates_are_discarded() {
        let mut platform = TestPlatform::new(NodeId(99));
        let mut fifo = harness(&mut platform);
        assert_eq!(
            fifo.run_up(data_with_seq(1, 1, b"a"), &mut platform).len(),
            1
        );
        assert!(fifo
            .run_up(data_with_seq(1, 1, b"a"), &mut platform)
            .is_empty());
    }

    #[test]
    fn senders_are_sequenced_independently() {
        let mut platform = TestPlatform::new(NodeId(99));
        let mut fifo = harness(&mut platform);
        assert_eq!(
            fifo.run_up(data_with_seq(1, 1, b"a"), &mut platform).len(),
            1
        );
        assert_eq!(
            fifo.run_up(data_with_seq(2, 1, b"x"), &mut platform).len(),
            1
        );
    }

    #[test]
    fn window_overflow_skips_the_gap() {
        let mut platform = TestPlatform::new(NodeId(99));
        let mut fifo = harness(&mut platform);

        // seq 1 is lost; a window's worth buffers; the next one overflows
        // the window and forces delivery to resume from the oldest buffered
        // message.
        let last = WINDOW as u64 + 1;
        for seq in 2..=last {
            assert!(fifo
                .run_up(data_with_seq(1, seq, b"b"), &mut platform)
                .is_empty());
        }
        let released = fifo.run_up(data_with_seq(1, last + 1, b"d"), &mut platform);
        assert_eq!(released.len(), WINDOW + 1);
    }

    #[test]
    fn downward_messages_get_increasing_sequence_numbers() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fifo = harness(&mut platform);
        let out = fifo.run_down(
            Event::down(DataEvent::to_group(NodeId(1), Message::new())),
            &mut platform,
        );
        assert_eq!(out.len(), 1);
        let out2 = fifo.run_down(
            Event::down(DataEvent::to_group(NodeId(1), Message::new())),
            &mut platform,
        );
        let seq1 = out[0]
            .get::<DataEvent>()
            .unwrap()
            .message
            .peek::<SeqHeader>()
            .unwrap()
            .seq;
        let seq2 = out2[0]
            .get::<DataEvent>()
            .unwrap()
            .message
            .peek::<SeqHeader>()
            .unwrap()
            .seq;
        assert_eq!(seq1, 1);
        assert_eq!(seq2, 2);
    }
}
