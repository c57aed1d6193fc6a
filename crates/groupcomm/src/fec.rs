//! Forward error correction: the "mask the errors" strategy.
//!
//! The paper motivates run-time adaptation with exactly this trade-off: "for
//! small error rates it is preferable to detect and recover (using
//! retransmissions) while for larger error rates it is preferable to mask the
//! errors (using forward error recovery techniques)". This layer implements a
//! simple XOR parity scheme: for every `k` data messages a sender emits one
//! parity block; a receiver that misses exactly one message of a block can
//! reconstruct it locally, without any round trip to the sender.

use std::collections::BTreeMap;

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::DataEvent;
use morpheus_appia::hash::HashMap;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;
use morpheus_appia::wire::Wire;

use crate::events::{FecParity, ViewInstall};
use crate::headers::{FecParityHeader, SeqHeader};

/// Registered name of the forward-error-correction layer.
pub const FEC_LAYER: &str = "fec";

/// Number of recently received encoded messages kept per sender for
/// reconstruction.
const RECEIVE_WINDOW: usize = 256;

/// The XOR-parity forward-error-correction layer.
///
/// Parameters:
///
/// * `k` — block size: one parity message is emitted for every `k` data
///   messages (default 4);
/// * `members` — comma-separated initial group membership (parity blocks are
///   sent point-to-point to every other member).
pub struct FecLayer;

impl Layer for FecLayer {
    fn name(&self) -> &str {
        FEC_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<FecParity>(),
            EventSpec::of::<ViewInstall>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["FecParity"]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        Box::new(FecSession {
            k: param_or(params, "k", 4usize).max(2),
            members: param_node_list(params, "members"),
            next_seq: 0,
            block: Vec::new(),
            parity: Vec::new(),
            received: HashMap::default(),
            recovered: 0,
        })
    }
}

fn xor_into(parity: &mut Vec<u8>, bytes: &[u8]) {
    if parity.len() < bytes.len() {
        parity.resize(bytes.len(), 0);
    }
    for (slot, byte) in parity.iter_mut().zip(bytes.iter()) {
        *slot ^= *byte;
    }
}

#[derive(Debug, Default)]
struct ReceiveState {
    /// Encoded bytes of recently received messages, by sequence number.
    window: BTreeMap<u64, Vec<u8>>,
}

impl ReceiveState {
    fn store(&mut self, seq: u64, bytes: Vec<u8>) {
        self.window.insert(seq, bytes);
        while self.window.len() > RECEIVE_WINDOW {
            let oldest = *self.window.keys().next().expect("non-empty");
            self.window.remove(&oldest);
        }
    }
}

/// Session state of the FEC layer.
#[derive(Debug)]
pub struct FecSession {
    k: usize,
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    next_seq: u64,
    /// Sequence numbers and encoded lengths of the current outgoing block.
    // bound: flushed (cleared) every k data messages.
    block: Vec<(u64, u32)>,
    /// XOR accumulator of the current outgoing block.
    // bound: length of the largest encoded message in the block; reset on flush.
    parity: Vec<u8>,
    // bound: one entry per sender heard from; each inner window is capped at RECEIVE_WINDOW.
    received: HashMap<NodeId, ReceiveState>,
    recovered: u64,
}

impl FecSession {
    /// Number of messages reconstructed from parity so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    fn emit_parity(&mut self, ctx: &mut EventContext<'_>) {
        if self.block.is_empty() {
            return;
        }
        let local = ctx.node_id();
        let covers: Vec<u64> = self.block.iter().map(|(seq, _)| *seq).collect();
        let lengths: Vec<u32> = self.block.iter().map(|(_, len)| *len).collect();
        let parity_bytes = std::mem::take(&mut self.parity);
        self.block.clear();

        let mut message = Message::with_payload(parity_bytes.clone());
        message.push(&FecParityHeader {
            covers,
            lengths,
            parity_len: parity_bytes.len() as u32,
        });
        let others: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|member| *member != local)
            .collect();
        if others.is_empty() {
            return;
        }
        ctx.dispatch(Event::down(FecParity::new(
            local,
            Dest::Nodes(others),
            message,
        )));
    }
}

impl Session for FecSession {
    fn layer_name(&self) -> &str {
        FEC_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if let Some(install) = event.get::<ViewInstall>() {
            self.members = install.view.members.clone();
            ctx.forward(event);
            return;
        }

        // Parity blocks arriving from a peer.
        if event.is::<FecParity>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(parity_event) = event.get_mut::<FecParity>() else {
                return;
            };
            let origin = parity_event.header.source;
            let Ok(header) = parity_event.message.pop::<FecParityHeader>() else {
                return;
            };
            let parity_payload = parity_event.message.payload().to_vec();
            let state = self.received.entry(origin).or_default();

            let missing: Vec<(usize, u64)> = header
                .covers
                .iter()
                .enumerate()
                .filter(|(_, seq)| !state.window.contains_key(seq))
                .map(|(index, seq)| (index, *seq))
                .collect();
            if missing.len() != 1 {
                // Either nothing is missing or too much is missing to recover.
                return;
            }
            let (missing_index, missing_seq) = missing[0];
            let mut reconstructed = parity_payload;
            for seq in &header.covers {
                if let Some(bytes) = state.window.get(seq) {
                    xor_into(&mut reconstructed, bytes);
                }
            }
            let original_len = header.lengths.get(missing_index).copied().unwrap_or(0) as usize;
            if original_len > reconstructed.len() {
                return;
            }
            reconstructed.truncate(original_len);
            let Ok(mut recovered_message) = Message::from_bytes(&reconstructed) else {
                return;
            };
            if recovered_message.pop::<SeqHeader>().is_err() {
                return;
            }
            state.store(missing_seq, reconstructed);
            self.recovered += 1;
            let local = ctx.node_id();
            ctx.dispatch(Event::up(DataEvent::new(
                origin,
                Dest::Node(local),
                recovered_message,
            )));
            return;
        }

        match event.direction {
            Direction::Down => {
                if let Some(data) = event.get_mut::<DataEvent>() {
                    if data.header.dest == Dest::Group || matches!(data.header.dest, Dest::Nodes(_))
                    {
                        self.next_seq += 1;
                        data.message.push(&SeqHeader { seq: self.next_seq });
                        let encoded = data.message.to_bytes();
                        xor_into(&mut self.parity, &encoded);
                        self.block.push((self.next_seq, encoded.len() as u32));
                    }
                }
                ctx.forward(event);
                if self.block.len() >= self.k {
                    self.emit_parity(ctx);
                }
            }
            Direction::Up => {
                let Some(data) = event.get_mut::<DataEvent>() else {
                    ctx.forward(event);
                    return;
                };
                let encoded = data.message.to_bytes().to_vec();
                let Ok(header) = data.message.pop::<SeqHeader>() else {
                    return;
                };
                let origin = data.header.source;
                let state = self.received.entry(origin).or_default();
                if state.window.contains_key(&header.seq) {
                    return; // duplicate (possibly already recovered via parity)
                }
                state.store(header.seq, encoded);
                ctx.forward(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::TestPlatform;
    use morpheus_appia::testing::Harness;

    use super::*;

    fn params(k: usize, members: &[u32]) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert("k".into(), k.to_string());
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

    fn send(harness: &mut Harness, platform: &mut TestPlatform, payload: &[u8]) -> Vec<Event> {
        harness.run_down(
            Event::down(DataEvent::to_group(
                NodeId(1),
                Message::with_payload(payload.to_vec()),
            )),
            platform,
        )
    }

    #[test]
    fn parity_is_emitted_every_k_messages() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fec = Harness::new(FecLayer, &params(3, &[1, 2, 3]), &mut platform);

        let mut parity_count = 0;
        for index in 0..9u32 {
            let out = send(&mut fec, &mut platform, &index.to_be_bytes());
            parity_count += out.iter().filter(|event| event.is::<FecParity>()).count();
        }
        assert_eq!(parity_count, 3, "one parity block per 3 data messages");
    }

    #[test]
    fn receiver_reconstructs_a_single_missing_message() {
        let mut platform_tx = TestPlatform::new(NodeId(1));
        let mut sender = Harness::new(FecLayer, &params(3, &[1, 2]), &mut platform_tx);

        // Capture what the sender emits for three messages plus parity.
        let mut emitted = Vec::new();
        for payload in [&b"alpha"[..], &b"bravo"[..], &b"charlie"[..]] {
            emitted.extend(send(&mut sender, &mut platform_tx, payload));
        }
        let data: Vec<&Event> = emitted
            .iter()
            .filter(|event| event.is::<DataEvent>())
            .collect();
        let parity: Vec<&Event> = emitted
            .iter()
            .filter(|event| event.is::<FecParity>())
            .collect();
        assert_eq!(data.len(), 3);
        assert_eq!(parity.len(), 1);

        // The receiver gets messages 1 and 3 but misses message 2.
        let mut platform_rx = TestPlatform::new(NodeId(2));
        let mut receiver = Harness::new(FecLayer, &params(3, &[1, 2]), &mut platform_rx);
        for index in [0usize, 2] {
            let source_data = data[index].get::<DataEvent>().unwrap();
            let delivered = receiver.run_up(
                Event::up(DataEvent::new(
                    NodeId(1),
                    Dest::Node(NodeId(2)),
                    source_data.message.clone(),
                )),
                &mut platform_rx,
            );
            assert_eq!(delivered.len(), 1);
        }

        // Delivering the parity block reconstructs the missing message.
        let parity_data = parity[0].get::<FecParity>().unwrap();
        let recovered = receiver.run_up(
            Event::up(FecParity::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                parity_data.message.clone(),
            )),
            &mut platform_rx,
        );
        assert_eq!(recovered.len(), 1);
        let recovered_data = recovered[0].get::<DataEvent>().unwrap();
        assert_eq!(recovered_data.message.payload().as_ref(), b"bravo");
        assert_eq!(recovered_data.header.source, NodeId(1));
    }

    #[test]
    fn parity_with_everything_received_is_silent() {
        let mut platform_tx = TestPlatform::new(NodeId(1));
        let mut sender = Harness::new(FecLayer, &params(2, &[1, 2]), &mut platform_tx);
        let mut emitted = Vec::new();
        for payload in [&b"a"[..], &b"b"[..]] {
            emitted.extend(send(&mut sender, &mut platform_tx, payload));
        }
        let parity: Vec<&Event> = emitted
            .iter()
            .filter(|event| event.is::<FecParity>())
            .collect();

        let mut platform_rx = TestPlatform::new(NodeId(2));
        let mut receiver = Harness::new(FecLayer, &params(2, &[1, 2]), &mut platform_rx);
        for event in emitted.iter().filter(|event| event.is::<DataEvent>()) {
            let source_data = event.get::<DataEvent>().unwrap();
            receiver.run_up(
                Event::up(DataEvent::new(
                    NodeId(1),
                    Dest::Node(NodeId(2)),
                    source_data.message.clone(),
                )),
                &mut platform_rx,
            );
        }
        let out = receiver.run_up(
            Event::up(FecParity::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                parity[0].get::<FecParity>().unwrap().message.clone(),
            )),
            &mut platform_rx,
        );
        assert!(
            out.is_empty(),
            "no duplicate delivery when nothing is missing"
        );
    }

    #[test]
    fn parity_with_two_missing_messages_cannot_recover() {
        let mut platform_tx = TestPlatform::new(NodeId(1));
        let mut sender = Harness::new(FecLayer, &params(3, &[1, 2]), &mut platform_tx);
        let mut emitted = Vec::new();
        for payload in [&b"a"[..], &b"b"[..], &b"c"[..]] {
            emitted.extend(send(&mut sender, &mut platform_tx, payload));
        }
        let parity: Vec<&Event> = emitted
            .iter()
            .filter(|event| event.is::<FecParity>())
            .collect();
        let data: Vec<&Event> = emitted
            .iter()
            .filter(|event| event.is::<DataEvent>())
            .collect();

        let mut platform_rx = TestPlatform::new(NodeId(2));
        let mut receiver = Harness::new(FecLayer, &params(3, &[1, 2]), &mut platform_rx);
        // Only the first message arrives.
        receiver.run_up(
            Event::up(DataEvent::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                data[0].get::<DataEvent>().unwrap().message.clone(),
            )),
            &mut platform_rx,
        );
        let out = receiver.run_up(
            Event::up(FecParity::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                parity[0].get::<FecParity>().unwrap().message.clone(),
            )),
            &mut platform_rx,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn duplicates_after_recovery_are_suppressed() {
        let mut platform_tx = TestPlatform::new(NodeId(1));
        let mut sender = Harness::new(FecLayer, &params(2, &[1, 2]), &mut platform_tx);
        let mut emitted = Vec::new();
        for payload in [&b"a"[..], &b"b"[..]] {
            emitted.extend(send(&mut sender, &mut platform_tx, payload));
        }
        let data: Vec<&Event> = emitted
            .iter()
            .filter(|event| event.is::<DataEvent>())
            .collect();
        let parity: Vec<&Event> = emitted
            .iter()
            .filter(|event| event.is::<FecParity>())
            .collect();

        let mut platform_rx = TestPlatform::new(NodeId(2));
        let mut receiver = Harness::new(FecLayer, &params(2, &[1, 2]), &mut platform_rx);
        // Receive only message 1, recover message 2 from parity, then the
        // late original of message 2 arrives and must be suppressed.
        receiver.run_up(
            Event::up(DataEvent::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                data[0].get::<DataEvent>().unwrap().message.clone(),
            )),
            &mut platform_rx,
        );
        let recovered = receiver.run_up(
            Event::up(FecParity::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                parity[0].get::<FecParity>().unwrap().message.clone(),
            )),
            &mut platform_rx,
        );
        assert_eq!(recovered.len(), 1);
        let late = receiver.run_up(
            Event::up(DataEvent::new(
                NodeId(1),
                Dest::Node(NodeId(2)),
                data[1].get::<DataEvent>().unwrap().message.clone(),
            )),
            &mut platform_rx,
        );
        assert!(late.is_empty());
    }
}
