//! The chat message format.

use bytes::Bytes;
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};
use serde::{Deserialize, Serialize};

/// One chat message as exchanged by the application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChatMessage {
    /// The interest group (room) the message belongs to.
    pub room: String,
    /// Display name of the sender.
    pub sender: String,
    /// Sender-local sequence number.
    pub seq: u64,
    /// The message text.
    pub text: String,
}

impl ChatMessage {
    /// Creates a message.
    pub fn new(
        room: impl Into<String>,
        sender: impl Into<String>,
        seq: u64,
        text: impl Into<String>,
    ) -> Self {
        Self {
            room: room.into(),
            sender: sender.into(),
            seq,
            text: text.into(),
        }
    }

    /// Serialises the message to the bytes sent on the data channel.
    pub fn to_payload(&self) -> Bytes {
        self.to_bytes()
    }

    /// Decodes a message from a data-channel payload.
    pub fn from_payload(payload: &[u8]) -> Result<Self, WireError> {
        Self::from_bytes(payload)
    }

    /// Size of the encoded message, in bytes: the length of its encoding.
    pub fn encoded_len(&self) -> usize {
        self.to_payload().len()
    }
}

impl Wire for ChatMessage {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.room);
        w.put_str(&self.sender);
        w.put_u64(self.seq);
        w.put_str(&self.text);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            room: r.get_str()?,
            sender: r.get_str()?,
            seq: r.get_u64()?,
            text: r.get_str()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let message = ChatMessage::new("icdcs", "alice", 42, "olá!");
        let payload = message.to_payload();
        let decoded = ChatMessage::from_payload(&payload).unwrap();
        assert_eq!(decoded, message);
        assert!(message.encoded_len() > "icdcsalice".len());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(ChatMessage::from_payload(&[1, 2, 3]).is_err());
        assert!(ChatMessage::from_payload(b"").is_err());
    }
}
