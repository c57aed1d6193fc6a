//! Chat room history as rejoin state.
//!
//! The chat application's durable state is the history of messages delivered
//! in its rooms. [`RoomHistory`] keeps it behind shared ownership so the same
//! live history can be read by the application, appended by the delivery
//! path and streamed by the recovery layer's state transfer:
//! [`ChatHistorySection`] implements the suite's
//! [`StateSection`] pair (export on the donor, merge-install on the
//! rejoiner), which is what makes a restarted participant's room history
//! whole again.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use morpheus_appia::wire::{Wire, WireReader, WireWriter};
use morpheus_groupcomm::recovery::StateSection;

use crate::message::ChatMessage;

/// A shared, deduplicated chat history (all rooms of one participant).
///
/// Messages are identified by `(room, sender, seq)`; recording a duplicate —
/// e.g. a message present in a rejoin snapshot *and* replayed from the join
/// view's buffer — is a no-op, so merge-installs are idempotent.
#[derive(Debug, Clone, Default)]
pub struct RoomHistory {
    inner: Rc<RefCell<HistoryInner>>,
}

#[derive(Debug, Default)]
struct HistoryInner {
    messages: Vec<ChatMessage>,
    seen: BTreeSet<(String, String, u64)>,
}

impl RoomHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivered message; returns whether it was new.
    pub fn record(&self, message: ChatMessage) -> bool {
        let mut inner = self.inner.borrow_mut();
        let key = (message.room.clone(), message.sender.clone(), message.seq);
        if !inner.seen.insert(key) {
            return false;
        }
        inner.messages.push(message);
        true
    }

    /// Number of distinct messages recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().messages.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every recorded message, in recording order.
    pub fn messages(&self) -> Vec<ChatMessage> {
        self.inner.borrow().messages.clone()
    }

    /// Whether a message identified by `(room, sender, seq)` was recorded.
    pub fn contains(&self, room: &str, sender: &str, seq: u64) -> bool {
        self.inner
            .borrow()
            .seen
            .contains(&(room.to_string(), sender.to_string(), seq))
    }
}

/// The chat application's room history as a rejoin state-transfer section.
#[derive(Debug, Clone)]
pub struct ChatHistorySection {
    history: RoomHistory,
}

impl ChatHistorySection {
    /// Wraps a shared room history.
    pub fn new(history: RoomHistory) -> Self {
        Self { history }
    }
}

impl StateSection for ChatHistorySection {
    fn name(&self) -> &str {
        "chat-history"
    }

    fn export(&self) -> Vec<u8> {
        let inner = self.history.inner.borrow();
        let mut w = WireWriter::new();
        w.put_u32(inner.messages.len() as u32);
        for message in &inner.messages {
            message.encode(&mut w);
        }
        w.finish().to_vec()
    }

    fn install(&self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let Ok(count) = r.get_u32() else {
            return false;
        };
        // A chat message encodes to at least 11 bytes (three strings' varint
        // lengths plus the 8-byte sequence number); reject adversarial
        // counts before allocating.
        if count as usize > r.remaining() / 11 {
            return false;
        }
        for _ in 0..count {
            let Ok(message) = ChatMessage::decode(&mut r) else {
                return false;
            };
            self.history.record(message);
        }
        true
    }
}

/// A testbed [`AppBinding`](morpheus_testbed::AppBinding) that runs a real
/// chat application over every
/// simulated node: workload sends become wire-encoded [`ChatMessage`]s,
/// deliveries are decoded into per-node [`RoomHistory`]s, and each node's
/// history is registered as its rejoin state-transfer section — so a
/// scenario can assert that a restarted participant's room history is made
/// whole again by the donor's snapshot.
#[derive(Debug, Default)]
pub struct ChatHistoryBinding {
    room: String,
    histories: morpheus_appia::hash::HashMap<morpheus_appia::platform::NodeId, RoomHistory>,
    decode_failures: u64,
}

impl ChatHistoryBinding {
    /// Creates a binding for one chat room.
    pub fn new(room: impl Into<String>) -> Self {
        Self {
            room: room.into(),
            histories: morpheus_appia::hash::HashMap::default(),
            decode_failures: 0,
        }
    }

    /// The display name a node's messages are sent under.
    pub fn sender_name(node: morpheus_appia::platform::NodeId) -> String {
        format!("n{}", node.0)
    }

    /// The current history of one node (fresh and empty right after a
    /// restart, repopulated by the rejoin snapshot plus live deliveries).
    pub fn history(&self, node: morpheus_appia::platform::NodeId) -> Option<&RoomHistory> {
        self.histories.get(&node)
    }

    /// Deliveries whose payload was not a decodable chat message.
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }
}

impl morpheus_testbed::AppBinding for ChatHistoryBinding {
    fn state_sections(
        &mut self,
        node: morpheus_appia::platform::NodeId,
    ) -> Vec<Rc<dyn StateSection>> {
        // A (re)starting node begins with an empty history; the recovery
        // layer fills it from the donor's snapshot.
        let history = RoomHistory::new();
        self.histories.insert(node, history.clone());
        vec![Rc::new(ChatHistorySection::new(history))]
    }

    fn compose(
        &mut self,
        node: morpheus_appia::platform::NodeId,
        seq: u64,
        size: usize,
    ) -> Option<bytes::Bytes> {
        let mut text = format!("m{seq}:");
        let base =
            ChatMessage::new(&self.room, Self::sender_name(node), seq + 1, &text).encoded_len();
        if size > base {
            text.extend(std::iter::repeat_n('x', size - base));
        }
        let message = ChatMessage::new(&self.room, Self::sender_name(node), seq + 1, text);
        // A sender's own messages belong in its room history (the middleware
        // does not self-deliver) — which also makes any node a complete
        // donor for every sender's traffic.
        self.histories
            .entry(node)
            .or_default()
            .record(message.clone());
        Some(message.to_payload())
    }

    fn on_delivery(
        &mut self,
        node: morpheus_appia::platform::NodeId,
        delivery: &morpheus_appia::platform::AppDelivery,
    ) {
        if let morpheus_appia::platform::DeliveryKind::Data { payload, .. } = &delivery.kind {
            match ChatMessage::from_payload(payload) {
                Ok(message) => {
                    self.histories.entry(node).or_default().record(message);
                }
                Err(_) => self.decode_failures += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(sender: &str, seq: u64) -> ChatMessage {
        ChatMessage::new("icdcs", sender, seq, format!("m{seq}"))
    }

    #[test]
    fn histories_deduplicate_by_identity() {
        let history = RoomHistory::new();
        assert!(history.record(message("alice", 1)));
        assert!(!history.record(message("alice", 1)), "duplicate ignored");
        assert!(history.record(message("bob", 1)));
        assert_eq!(history.len(), 2);
        assert!(history.contains("icdcs", "alice", 1));
        assert!(!history.contains("icdcs", "alice", 2));
        assert!(!history.is_empty());
    }

    #[test]
    fn export_install_transfers_and_merges_the_history() {
        let donor = RoomHistory::new();
        for seq in 1..=5 {
            donor.record(message("alice", seq));
        }
        let exported = ChatHistorySection::new(donor.clone()).export();

        // The rejoiner already received one overlapping message from the
        // join view's replay: the merge keeps it single.
        let rejoiner = RoomHistory::new();
        rejoiner.record(message("alice", 5));
        let section = ChatHistorySection::new(rejoiner.clone());
        assert!(section.install(&exported));
        assert_eq!(rejoiner.len(), 5);
        for seq in 1..=5 {
            assert!(rejoiner.contains("icdcs", "alice", seq));
        }

        assert!(!section.install(b"\xff\xff"), "malformed rejected");
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        assert!(
            !section.install(&w.finish()),
            "adversarial count rejected before allocation"
        );
    }

    /// The count bound is the smallest message's size: three empty strings
    /// (a 1-byte varint length each) and the sequence number.
    #[test]
    fn a_history_of_minimum_size_messages_installs() {
        let donor = RoomHistory::new();
        for seq in 1..=5 {
            donor.record(ChatMessage::new("", "", seq, ""));
        }
        let exported = ChatHistorySection::new(donor).export();
        assert_eq!(exported.len(), 4 + 5 * 11);
        let rejoiner = RoomHistory::new();
        assert!(ChatHistorySection::new(rejoiner.clone()).install(&exported));
        assert_eq!(rejoiner.len(), 5);
    }
}
