//! Sequencer-based total ordering.
//!
//! The view coordinator acts as the sequencer: every data message is
//! identified by `(origin, local sequence number)`; the sequencer assigns a
//! global delivery order and multicasts it in [`OrderInfo`] control messages.
//! Every member (including the sender, which keeps a local copy of its own
//! messages) delivers data strictly in global-sequence order.

use std::collections::BTreeMap;

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::DataEvent;
use morpheus_appia::hash::HashMap;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;

use crate::events::{OrderInfo, ViewInstall};
use crate::headers::{OrderHeader, TotalIdHeader};
use crate::view::View;

/// Registered name of the total ordering layer.
pub const TOTAL_LAYER: &str = "total";

/// The sequencer-based total ordering layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial group membership (the lowest id is
///   the sequencer).
pub struct TotalLayer;

impl Layer for TotalLayer {
    fn name(&self) -> &str {
        TOTAL_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<OrderInfo>(),
            EventSpec::of::<ViewInstall>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["OrderInfo"]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        Box::new(TotalSession {
            view: View::initial(param_node_list(params, "members")),
            local_seq: 0,
            next_global_assignment: 1,
            next_delivery: 1,
            order: BTreeMap::new(),
            buffered: HashMap::default(),
            delivered: 0,
        })
    }
}

/// Session state of the total ordering layer.
#[derive(Debug)]
pub struct TotalSession {
    view: View,
    local_seq: u64,
    /// Next global sequence number the sequencer hands out.
    next_global_assignment: u64,
    /// Next global sequence number to deliver locally.
    next_delivery: u64,
    /// Global order as learnt from the sequencer: global seq -> message id.
    // bound: drained in lockstep with `next_delivery` -- holds only the undelivered suffix.
    order: BTreeMap<u64, TotalIdHeader>,
    /// Messages waiting for their position in the global order.
    // bound: entries leave on delivery; holds only messages awaiting their global slot.
    buffered: HashMap<TotalIdHeader, Event>,
    delivered: u64,
}

impl TotalSession {
    fn is_sequencer(&self, local: NodeId) -> bool {
        self.view.coordinator() == Some(local)
    }

    fn assign_order(&mut self, id: TotalIdHeader, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let global_seq = self.next_global_assignment;
        self.next_global_assignment += 1;
        self.order.insert(global_seq, id);

        let others = self.view.others(local);
        if !others.is_empty() {
            let mut message = Message::new();
            message.push(&OrderHeader {
                message: id,
                global_seq,
            });
            ctx.dispatch(Event::down(OrderInfo::new(
                local,
                Dest::Nodes(others),
                message,
            )));
        }
    }

    fn try_deliver(&mut self, ctx: &mut EventContext<'_>) {
        while let Some(id) = self.order.get(&self.next_delivery).copied() {
            let Some(event) = self.buffered.remove(&id) else {
                return; // the ordered message has not arrived yet
            };
            self.order.remove(&self.next_delivery);
            self.next_delivery += 1;
            self.delivered += 1;
            ctx.forward(event);
        }
    }
}

impl Session for TotalSession {
    fn layer_name(&self) -> &str {
        TOTAL_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if let Some(install) = event.get::<ViewInstall>() {
            self.view = install.view.clone();
            ctx.forward(event);
            return;
        }

        if event.is::<OrderInfo>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(info) = event.get_mut::<OrderInfo>() else {
                return;
            };
            let Ok(header) = info.message.pop::<OrderHeader>() else {
                return;
            };
            self.order.insert(header.global_seq, header.message);
            self.try_deliver(ctx);
            return;
        }

        let local = ctx.node_id();
        match event.direction {
            Direction::Down => {
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                self.local_seq += 1;
                let id = TotalIdHeader {
                    origin: local,
                    local_seq: self.local_seq,
                };
                // Keep a local copy: the sender must also deliver its own
                // message at its position in the global order.
                let own_copy = Event::up(DataEvent::new(
                    local,
                    Dest::Node(local),
                    data.message.clone(),
                ));
                data.message.push(&id);
                self.buffered.insert(id, own_copy);
                if self.is_sequencer(local) {
                    self.assign_order(id, ctx);
                }
                ctx.forward(event);
                self.try_deliver(ctx);
            }
            Direction::Up => {
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                let Ok(id) = data.message.pop::<TotalIdHeader>() else {
                    return;
                };
                self.buffered.insert(id, event);
                if self.is_sequencer(local) {
                    self.assign_order(id, ctx);
                }
                self.try_deliver(ctx);
                // Still waiting for its global slot: it is now held past this
                // event and must not pin the packet buffer.
                if let Some(waiting) = self.buffered.get_mut(&id) {
                    waiting.compact();
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

    fn incoming(origin: u32, local_seq: u64, payload: &[u8]) -> Event {
        let mut message = Message::with_payload(payload.to_vec());
        message.push(&TotalIdHeader {
            origin: NodeId(origin),
            local_seq,
        });
        Event::up(DataEvent::new(
            NodeId(origin),
            Dest::Node(NodeId(0)),
            message,
        ))
    }

    fn order_info(from: u32, origin: u32, local_seq: u64, global_seq: u64) -> Event {
        let mut message = Message::new();
        message.push(&OrderHeader {
            message: TotalIdHeader {
                origin: NodeId(origin),
                local_seq,
            },
            global_seq,
        });
        Event::up(OrderInfo::new(NodeId(from), Dest::Node(NodeId(1)), message))
    }

    #[test]
    fn sequencer_orders_incoming_messages_and_announces_the_order() {
        // Node 0 is the sequencer.
        let mut platform = TestPlatform::new(NodeId(0));
        let mut total = Harness::new(TotalLayer, &params(&[0, 1, 2]), &mut platform);

        let delivered = total.run_up(incoming(1, 1, b"a"), &mut platform);
        assert_eq!(
            delivered.len(),
            1,
            "sequencer delivers immediately in order"
        );
        let down = total.drain_down();
        let infos: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<OrderInfo>())
            .collect();
        assert_eq!(infos.len(), 1);
        assert_eq!(
            infos[0].get::<OrderInfo>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn non_sequencer_waits_for_order_information() {
        // Node 1 is not the sequencer (node 0 is).
        let mut platform = TestPlatform::new(NodeId(1));
        let mut total = Harness::new(TotalLayer, &params(&[0, 1, 2]), &mut platform);

        assert!(total.run_up(incoming(2, 1, b"b"), &mut platform).is_empty());
        let delivered = total.run_up(order_info(0, 2, 1, 1), &mut platform);
        assert_eq!(delivered.len(), 1);
    }

    #[test]
    fn delivery_follows_the_global_order_not_arrival_order() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut total = Harness::new(TotalLayer, &params(&[0, 1, 2]), &mut platform);

        // Two messages arrive; the sequencer ordered "x" after "y".
        assert!(total.run_up(incoming(2, 1, b"x"), &mut platform).is_empty());
        assert!(total.run_up(incoming(0, 1, b"y"), &mut platform).is_empty());
        assert!(total
            .run_up(order_info(0, 2, 1, 2), &mut platform)
            .is_empty());
        let released = total.run_up(order_info(0, 0, 1, 1), &mut platform);
        assert_eq!(released.len(), 2);
        assert_eq!(
            released[0]
                .get::<DataEvent>()
                .unwrap()
                .message
                .payload()
                .as_ref(),
            b"y"
        );
        assert_eq!(
            released[1]
                .get::<DataEvent>()
                .unwrap()
                .message
                .payload()
                .as_ref(),
            b"x"
        );
    }

    #[test]
    fn senders_deliver_their_own_messages_in_order() {
        // Node 1 sends a message; it must deliver it to itself once the
        // sequencer (node 0) announces its position.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut total = Harness::new(TotalLayer, &params(&[0, 1]), &mut platform);

        let out = total.run_down(
            Event::down(DataEvent::to_group(
                NodeId(1),
                Message::with_payload(&b"mine"[..]),
            )),
            &mut platform,
        );
        assert_eq!(
            out.iter().filter(|event| event.is::<DataEvent>()).count(),
            1
        );
        assert!(
            total.drain_up().is_empty(),
            "own message not delivered before ordering"
        );

        let released = total.run_up(order_info(0, 1, 1, 1), &mut platform);
        assert_eq!(released.len(), 1);
        assert_eq!(
            released[0]
                .get::<DataEvent>()
                .unwrap()
                .message
                .payload()
                .as_ref(),
            b"mine"
        );
    }

    #[test]
    fn sequencer_orders_its_own_sends_immediately() {
        let mut platform = TestPlatform::new(NodeId(0));
        let mut total = Harness::new(TotalLayer, &params(&[0, 1]), &mut platform);
        let out = total.run_down(
            Event::down(DataEvent::to_group(
                NodeId(0),
                Message::with_payload(&b"seq"[..]),
            )),
            &mut platform,
        );
        assert!(out.iter().any(|event| event.is::<DataEvent>()));
        assert!(out.iter().any(|event| event.is::<OrderInfo>()));
        let up = total.drain_up();
        assert_eq!(up.len(), 1, "sequencer self-delivers immediately");
    }
}
