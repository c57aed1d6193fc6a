//! Causal ordering of group messages using vector clocks.
//!
//! Each sender stamps outgoing messages with its vector clock; receivers
//! delay delivery of a message until every message that causally precedes it
//! has been delivered.

use morpheus_appia::event::{Direction, Event, EventSpec};
use morpheus_appia::events::DataEvent;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, Layer, LayerParams};
use morpheus_appia::session::Session;

use crate::events::ViewInstall;
use crate::headers::CausalHeader;
use crate::view::View;

/// Registered name of the causal ordering layer.
pub const CAUSAL_LAYER: &str = "causal";

/// The causal ordering layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial group membership (defines the vector
///   clock dimensions and each member's rank).
pub struct CausalLayer;

impl Layer for CausalLayer {
    fn name(&self) -> &str {
        CAUSAL_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::of::<DataEvent>(), EventSpec::of::<ViewInstall>()]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let view = View::initial(param_node_list(params, "members"));
        let clock = vec![0; view.len()];
        Box::new(CausalSession {
            view,
            clock,
            pending: Vec::new(),
        })
    }
}

/// Session state of the causal ordering layer.
#[derive(Debug)]
pub struct CausalSession {
    view: View,
    // bound: one entry per view member; reallocated on view install.
    clock: Vec<u64>,
    // bound: drained as the vector clock advances; flushed wholesale on view install.
    pending: Vec<(CausalHeader, Event)>,
}

impl CausalSession {
    fn deliverable(&self, header: &CausalHeader) -> bool {
        let sender = header.sender_rank as usize;
        if sender >= self.clock.len() || header.clock.len() != self.clock.len() {
            return true; // malformed or from an old view: deliver best effort
        }
        if header.clock[sender] != self.clock[sender] + 1 {
            return false;
        }
        header
            .clock
            .iter()
            .enumerate()
            .all(|(rank, &value)| rank == sender || value <= self.clock[rank])
    }

    fn record_delivery(&mut self, header: &CausalHeader) {
        let sender = header.sender_rank as usize;
        if sender < self.clock.len() {
            self.clock[sender] = self.clock[sender].max(header.clock[sender]);
        }
    }

    fn drain_pending(&mut self, ctx: &mut EventContext<'_>) {
        loop {
            let Some(position) = self
                .pending
                .iter()
                .position(|(header, _)| self.deliverable(header))
            else {
                return;
            };
            let (header, event) = self.pending.remove(position);
            self.record_delivery(&header);
            ctx.forward(event);
        }
    }
}

impl Session for CausalSession {
    fn layer_name(&self) -> &str {
        CAUSAL_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if let Some(install) = event.get::<ViewInstall>() {
            // New view: reset the clock dimensions. Messages from the old view
            // still buffered are delivered best effort.
            self.view = install.view.clone();
            self.clock = vec![0; self.view.len()];
            let leftovers = std::mem::take(&mut self.pending);
            for (_, leftover) in leftovers {
                ctx.forward(leftover);
            }
            ctx.forward(event);
            return;
        }

        match event.direction {
            Direction::Down => {
                let local = ctx.node_id();
                if let (Some(rank), Some(data)) =
                    (self.view.rank_of(local), event.get_mut::<DataEvent>())
                {
                    self.clock[rank] += 1;
                    data.message.push(&CausalHeader {
                        sender_rank: rank as u32,
                        clock: self.clock.clone(),
                    });
                }
                ctx.forward(event);
            }
            Direction::Up => {
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                let Ok(header) = data.message.pop::<CausalHeader>() else {
                    return;
                };
                if self.deliverable(&header) {
                    self.record_delivery(&header);
                    ctx.forward(event);
                    self.drain_pending(ctx);
                } else {
                    // Held past this event: must not pin the packet buffer.
                    event.compact();
                    self.pending.push((header, event));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::event::Dest;
    use morpheus_appia::platform::{NodeId, TestPlatform};
    use morpheus_appia::testing::Harness;
    use morpheus_appia::Message;

    use super::*;

    fn params(members: &[u32]) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params
    }

    fn message_from(rank: u32, clock: &[u64], payload: &[u8]) -> Event {
        let mut message = Message::with_payload(payload.to_vec());
        message.push(&CausalHeader {
            sender_rank: rank,
            clock: clock.to_vec(),
        });
        Event::up(DataEvent::new(NodeId(rank), Dest::Node(NodeId(0)), message))
    }

    #[test]
    fn sends_are_stamped_with_the_local_clock() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut causal = Harness::new(CausalLayer, &params(&[0, 1, 2]), &mut platform);
        let out = causal.run_down(
            Event::down(DataEvent::to_group(NodeId(0), Message::new())),
            &mut platform,
        );
        let header: CausalHeader = out[0]
            .get::<DataEvent>()
            .unwrap()
            .message
            .peek()
            .expect("causal header");
        assert_eq!(header.sender_rank, 0);
        assert_eq!(header.clock, vec![1, 0, 0]);
    }

    #[test]
    fn causally_ready_messages_are_delivered_immediately() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut causal = Harness::new(CausalLayer, &params(&[0, 1, 2]), &mut platform);
        let delivered = causal.run_up(message_from(1, &[0, 1, 0], b"a"), &mut platform);
        assert_eq!(delivered.len(), 1);
    }

    #[test]
    fn messages_missing_a_causal_dependency_are_delayed() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut causal = Harness::new(CausalLayer, &params(&[0, 1, 2]), &mut platform);

        // Node 2's message depends on node 1's first message, which has not
        // been delivered yet.
        let delayed = causal.run_up(message_from(2, &[0, 1, 1], b"reply"), &mut platform);
        assert!(delayed.is_empty());

        // Delivering node 1's message releases both, in causal order.
        let released = causal.run_up(message_from(1, &[0, 1, 0], b"original"), &mut platform);
        assert_eq!(released.len(), 2);
        let first = released[0].get::<DataEvent>().unwrap();
        let second = released[1].get::<DataEvent>().unwrap();
        assert_eq!(first.message.payload().as_ref(), b"original");
        assert_eq!(second.message.payload().as_ref(), b"reply");
    }

    #[test]
    fn successive_messages_from_one_sender_stay_in_order() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut causal = Harness::new(CausalLayer, &params(&[0, 1]), &mut platform);
        assert!(causal
            .run_up(message_from(1, &[0, 2], b"second"), &mut platform)
            .is_empty());
        let released = causal.run_up(message_from(1, &[0, 1], b"first"), &mut platform);
        assert_eq!(released.len(), 2);
        assert_eq!(
            released[0]
                .get::<DataEvent>()
                .unwrap()
                .message
                .payload()
                .as_ref(),
            b"first"
        );
    }

    #[test]
    fn view_install_resets_the_clock_and_flushes_pending() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut causal = Harness::new(CausalLayer, &params(&[0, 1]), &mut platform);
        assert!(causal
            .run_up(message_from(1, &[0, 5], b"future"), &mut platform)
            .is_empty());

        let released = causal.run_down(
            Event::down(ViewInstall {
                view: View::new(1, vec![NodeId(0), NodeId(1)]),
            }),
            &mut platform,
        );
        // ViewInstall continues downward; the flushed pending message goes up.
        assert!(released.iter().any(|event| event.is::<ViewInstall>()));
        let up = causal.drain_up();
        assert_eq!(up.len(), 1, "pending message flushed on view change");
    }
}
