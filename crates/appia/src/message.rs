//! Protocol messages with a stack of layer headers.
//!
//! Following the discipline used by protocol kernels such as Appia and
//! x-kernel, a [`Message`] carries an application payload plus a stack of
//! opaque headers. A layer pushes its header when an event travels *down* the
//! stack and pops it when the corresponding event travels back *up* on the
//! receiving node. Because headers are pushed and popped in strictly opposite
//! orders, the stack discipline guarantees each layer only ever sees its own
//! header.

use bytes::Bytes;

use crate::wire::{varint_len, Wire, WireError, WireReader, WireWriter};

/// Headers a message holds without a heap allocation. A catalogue stack
/// pushes at most four (multicast, reliability, causal and total order);
/// deeper compositions spill into a `Vec`.
const INLINE_HEADERS: usize = 4;

/// The header stack: the first [`INLINE_HEADERS`] headers live inline, so
/// building, decoding and cloning a message costs no allocation for them.
#[derive(Clone, Default)]
struct HeaderStack {
    inline: [Bytes; INLINE_HEADERS],
    /// Occupied slots of `inline`.
    inline_len: usize,
    /// Headers pushed once `inline` is full, in push order.
    spill: Vec<Bytes>,
}

impl HeaderStack {
    fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    fn push(&mut self, header: Bytes) {
        match self.inline.get_mut(self.inline_len) {
            Some(slot) => {
                *slot = header;
                self.inline_len += 1;
            }
            None => self.spill.push(header),
        }
    }

    fn pop(&mut self) -> Option<Bytes> {
        if let Some(header) = self.spill.pop() {
            return Some(header);
        }
        let top = self.inline_len.checked_sub(1)?;
        self.inline_len = top;
        self.inline.get_mut(top).map(std::mem::take)
    }

    fn last(&self) -> Option<&Bytes> {
        self.spill
            .last()
            .or_else(|| self.inline.get(self.inline_len.checked_sub(1)?))
    }

    /// Headers in push order (bottom of the stack first).
    fn iter(&self) -> impl Iterator<Item = &Bytes> {
        self.inline
            .iter()
            .take(self.inline_len)
            .chain(self.spill.iter())
    }
}

/// A network message: an application payload plus a stack of layer headers.
///
/// A message decoded from a packet *aliases* the packet buffer: its headers
/// and payload are slices of it. That makes receiving free of copies, and it
/// means a retained message keeps the whole buffer alive — see
/// [`Message::compact`].
#[derive(Clone, Default)]
pub struct Message {
    /// Header stack. The *last* element is the most recently pushed header
    /// (i.e. the header of the lowest layer that has touched the message).
    headers: HeaderStack,
    /// Application payload.
    payload: Bytes,
}

impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.payload == other.payload && self.headers.iter().eq(other.headers.iter())
    }
}

impl Eq for Message {}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Message")
            .field("headers", &self.headers.iter().collect::<Vec<_>>())
            .field("payload", &self.payload)
            .finish()
    }
}

impl Message {
    /// Creates an empty message (no payload, no headers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a message wrapping the given application payload.
    pub fn with_payload(payload: impl Into<Bytes>) -> Self {
        Self {
            headers: HeaderStack::default(),
            payload: payload.into(),
        }
    }

    /// Returns the application payload.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Replaces the application payload.
    pub fn set_payload(&mut self, payload: impl Into<Bytes>) {
        self.payload = payload.into();
    }

    /// Number of headers currently on the stack.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }

    /// Total size in bytes of payload plus all headers (excluding framing).
    pub fn size(&self) -> usize {
        self.payload.len() + self.headers.iter().map(Bytes::len).sum::<usize>()
    }

    /// Exact number of bytes [`Wire::encode`] writes for this message: the
    /// header count as a varint, then every header and the payload behind a
    /// varint length each.
    pub fn encoded_len(&self) -> usize {
        let field = |bytes: &Bytes| varint_len(bytes.len() as u64) + bytes.len();
        varint_len(self.headers.len() as u64)
            + self.headers.iter().map(field).sum::<usize>()
            + field(&self.payload)
    }

    /// A copy of the message in one exactly-sized buffer of its own, headers
    /// and payload as slices of it.
    ///
    /// Decoded messages alias the packet they arrived in, and pushed headers
    /// alias the pooled header scratch; both live in chunks shared with
    /// other frames (8 KiB, `bytes::PINNED_CHUNK`, once a writer has
    /// outgrown its first block) that are only recycled once nothing views
    /// them. A layer that keeps a message past the event that delivered it
    /// (a hold-back buffer, a retransmission window) stores the compact
    /// copy, so what it retains is the message's own bytes and not the
    /// chunk around them.
    pub fn compact(&self) -> Message {
        let mut buffer = Vec::with_capacity(self.size());
        for header in self.headers.iter() {
            buffer.extend_from_slice(header);
        }
        buffer.extend_from_slice(&self.payload);
        let buffer = Bytes::from(buffer);

        let mut compact = Message::new();
        let mut start = 0;
        for header in self.headers.iter() {
            let end = start + header.len();
            compact.headers.push(buffer.slice(start..end));
            start = end;
        }
        compact.payload = buffer.slice(start..);
        compact
    }

    /// Pushes a raw header chunk onto the stack.
    pub fn push_header(&mut self, header: impl Into<Bytes>) {
        self.headers.push(header.into());
    }

    /// Pops the most recently pushed header chunk.
    pub fn pop_header(&mut self) -> Option<Bytes> {
        self.headers.pop()
    }

    /// Returns the most recently pushed header without removing it.
    pub fn peek_header(&self) -> Option<&Bytes> {
        self.headers.last()
    }

    /// Encodes `value` with the wire format and pushes it as a header.
    ///
    /// The header is encoded through a shared reusable scratch buffer
    /// ([`crate::wire::encode_pooled`]), so steady-state pushes — one header
    /// per packet, dropped when the packet is serialised or delivered — do
    /// not allocate.
    pub fn push<T: Wire>(&mut self, value: &T) {
        self.headers
            .push(crate::wire::encode_pooled(|w| value.encode(w)));
    }

    /// Pops the top header and decodes it as `T`, the whole header
    /// ([`Wire::from_shared`]).
    ///
    /// Byte fields of `T` (a nested [`Message`], say) are slices of the
    /// header, not copies. Returns an error if the header stack is empty or
    /// decoding fails. When decoding fails the header is *not* restored;
    /// callers treat this as a malformed message and drop it.
    pub fn pop<T: Wire>(&mut self) -> Result<T, WireError> {
        let header = self
            .headers
            .pop()
            .ok_or(WireError::Malformed("missing header"))?;
        T::from_shared(&header)
    }

    /// Decodes the top header as `T` without removing it: what
    /// [`Message::pop`] would return.
    pub fn peek<T: Wire>(&self) -> Result<T, WireError> {
        let header = self
            .headers
            .last()
            .ok_or(WireError::Malformed("missing header"))?;
        T::from_shared(header)
    }
}

impl Wire for Message {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.headers.len() as u64);
        for header in self.headers.iter() {
            w.put_bytes(header);
        }
        w.put_bytes(&self.payload);
    }

    /// The wire form in one exactly-sized buffer: one buffer behind one
    /// handle, turned back into a message without copying by
    /// [`Wire::from_shared`]. A layer that keeps many messages for a while
    /// can do better still by encoding them one after the other into a
    /// writer of its own ([`WireWriter::split_frame`]), so they share its
    /// chunks: that is what the gossip repair log and outbox hold.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.encode(&mut w);
        w.finish()
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let count = r.get_varint()?;
        // Every header costs at least its 1-byte length, so a count larger
        // than the remaining input is provably malformed. Rejecting it here
        // also bounds the pre-allocation below: an adversarial count can make
        // us reserve at most `remaining` entries, i.e. no more memory than the
        // attacker already paid for in input bytes.
        let count = match usize::try_from(count) {
            Ok(count) if count <= r.remaining() => count,
            _ => return Err(WireError::LengthOutOfRange(count)),
        };
        let mut headers = HeaderStack::default();
        headers.spill.reserve(count.saturating_sub(INLINE_HEADERS));
        for _ in 0..count {
            headers.push(r.get_bytes()?);
        }
        let payload = r.get_bytes()?;
        Ok(Self { headers, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let msg = Message::with_payload(&b"hello"[..]);
        assert_eq!(msg.payload().as_ref(), b"hello");
        assert_eq!(msg.header_count(), 0);
        assert_eq!(msg.size(), 5);
    }

    #[test]
    fn header_stack_is_lifo() {
        let mut msg = Message::with_payload(&b"data"[..]);
        msg.push_header(&b"fifo"[..]);
        msg.push_header(&b"beb"[..]);
        assert_eq!(msg.header_count(), 2);
        assert_eq!(msg.pop_header().unwrap().as_ref(), b"beb");
        assert_eq!(msg.pop_header().unwrap().as_ref(), b"fifo");
        assert!(msg.pop_header().is_none());
    }

    #[test]
    fn typed_headers_roundtrip() {
        let mut msg = Message::new();
        msg.push(&42u64);
        msg.push(&"causal".to_string());
        assert_eq!(msg.pop::<String>().unwrap(), "causal");
        assert_eq!(msg.pop::<u64>().unwrap(), 42);
        assert!(msg.pop::<u64>().is_err());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut msg = Message::new();
        msg.push(&7u32);
        assert_eq!(msg.peek::<u32>().unwrap(), 7);
        assert_eq!(msg.peek::<u32>().unwrap(), 7);
        assert_eq!(msg.pop::<u32>().unwrap(), 7);
    }

    #[test]
    fn peek_rejects_the_header_pop_rejects() {
        // A `u32` header with one stray byte behind it.
        let mut msg = Message::new();
        msg.push_header(&[0, 0, 0, 7, 0xFF][..]);
        let trailing = Err(WireError::Malformed("trailing bytes"));
        assert_eq!(msg.peek::<u32>(), trailing);
        assert_eq!(msg.pop::<u32>(), trailing);
    }

    #[test]
    fn wire_roundtrip_preserves_header_order() {
        let mut msg = Message::with_payload(&b"payload"[..]);
        msg.push(&1u32);
        msg.push(&2u32);
        msg.push(&"top".to_string());

        let bytes = msg.to_bytes();
        let mut decoded = Message::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.payload().as_ref(), b"payload");
        assert_eq!(decoded.pop::<String>().unwrap(), "top");
        assert_eq!(decoded.pop::<u32>().unwrap(), 2);
        assert_eq!(decoded.pop::<u32>().unwrap(), 1);
    }

    #[test]
    fn size_accounts_for_headers() {
        let mut msg = Message::with_payload(&b"12345"[..]);
        msg.push_header(&b"abc"[..]);
        assert_eq!(msg.size(), 8);
    }

    #[test]
    fn deep_header_stacks_spill_and_stay_lifo() {
        let mut msg = Message::with_payload(&b"p"[..]);
        for depth in 0..(INLINE_HEADERS as u64 + 3) {
            msg.push(&depth);
        }
        assert_eq!(msg.header_count(), INLINE_HEADERS + 3);
        let copy = msg.clone();
        assert_eq!(copy, msg);
        assert_eq!(Message::from_bytes(&msg.to_bytes()).unwrap(), msg);
        for depth in (0..(INLINE_HEADERS as u64 + 3)).rev() {
            assert_eq!(msg.peek::<u64>().unwrap(), depth);
            assert_eq!(msg.pop::<u64>().unwrap(), depth);
        }
        assert!(msg.pop_header().is_none());
        assert_ne!(copy, msg, "header stacks take part in equality");
    }

    #[test]
    fn encoded_len_is_exact() {
        let mut msg = Message::new();
        assert_eq!(msg.encoded_len(), msg.to_bytes().len());
        msg.set_payload(&b"payload"[..]);
        for depth in 0..6u32 {
            msg.push(&depth);
            assert_eq!(msg.encoded_len(), msg.to_bytes().len());
        }
    }

    /// A decoded message is a set of views of the packet it came in.
    fn decoded_from(packet: &Bytes) -> Message {
        Message::from_shared(packet).unwrap()
    }

    fn lies_within(part: &[u8], buffer: &[u8]) -> bool {
        let (start, end) = (part.as_ptr() as usize, part.as_ptr() as usize + part.len());
        let base = buffer.as_ptr() as usize;
        base <= start && end <= base + buffer.len()
    }

    #[test]
    fn decoding_a_shared_buffer_slices_it() {
        let mut original = Message::with_payload(&b"payload"[..]);
        original.push(&7u64);
        original.push(&"top".to_string());
        let packet = original.to_bytes();

        let sliced = decoded_from(&packet);
        assert_eq!(sliced, original);
        assert!(lies_within(sliced.payload(), &packet));
        assert!(lies_within(sliced.peek_header().unwrap(), &packet));

        let copied = Message::from_bytes(&packet).unwrap();
        assert_eq!(copied, original);
        assert!(!lies_within(copied.payload(), &packet));
    }

    #[test]
    fn compact_copies_into_one_buffer_of_its_own() {
        let mut original = Message::with_payload(&b"payload"[..]);
        original.push(&7u64);
        original.push(&"top".to_string());
        let packet = original.to_bytes();
        let sliced = decoded_from(&packet);

        let mut compact = sliced.compact();
        assert_eq!(compact, sliced);
        assert!(!lies_within(compact.payload(), &packet));
        assert!(!lies_within(compact.peek_header().unwrap(), &packet));
        // One buffer: the payload sits right behind the last header.
        let top = compact.peek_header().unwrap();
        assert_eq!(
            top.as_ptr() as usize + top.len(),
            compact.payload().as_ptr() as usize
        );
        assert_eq!(compact.pop::<String>().unwrap(), "top");
        assert_eq!(compact.pop::<u64>().unwrap(), 7);
        assert_eq!(compact.payload().as_ref(), b"payload");

        assert_eq!(Message::new().compact(), Message::new());
    }

    #[test]
    fn a_compact_copy_does_not_pin_the_buffer_it_was_decoded_from() {
        // The sender's packet scratch: frames split from it keep it alive,
        // and `reserve` can only recycle it once none is left.
        let mut scratch = WireWriter::with_capacity(256);
        let mut original = Message::with_payload(vec![b'x'; 100]);
        original.push(&1u64);
        scratch.reserve(original.encoded_len());
        original.encode(&mut scratch);
        let packet = scratch.split_frame();
        let first_frame_at = packet.as_ptr() as usize;

        let kept = decoded_from(&packet).compact();
        drop(packet);

        // No view of the scratch is left, so asking for more than its tail
        // rewinds it in place: the next frame starts where the first did.
        scratch.reserve(200);
        scratch.put_u8(0);
        assert_eq!(scratch.split_frame().as_ptr() as usize, first_frame_at);
        assert_eq!(kept, original);
    }

    #[test]
    fn adversarial_header_counts_are_rejected_before_preallocation() {
        // A forged count claiming ~4 billion headers (or the widest a varint
        // holds) followed by almost no actual data must fail fast without
        // reserving memory for them.
        for forged in [u64::from(u32::MAX), u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(forged);
            w.put_bytes(b"tiny");
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(
                Message::decode(&mut r),
                Err(WireError::LengthOutOfRange(forged))
            );
        }

        // A count one past what the input could hold (every header costs at
        // least its 1-byte length) is rejected at the count, too.
        let mut w = WireWriter::new();
        w.put_varint(3); // claims 3 headers...
        w.put_bytes(b""); // ...but the input is 1 byte
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Message::decode(&mut r), Err(WireError::LengthOutOfRange(3)));

        // A count the input could hold but does not is a plain truncation.
        let mut w = WireWriter::new();
        w.put_varint(2); // claims 2 headers...
        w.put_bytes(b"");
        w.put_bytes(b""); // ...and brings them, but no payload
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Message::decode(&mut r), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn maximal_valid_header_counts_still_decode() {
        // Messages whose headers are all empty sit exactly at the bound the
        // pre-allocation guard checks; they must keep decoding.
        let mut msg = Message::with_payload(&b"p"[..]);
        for _ in 0..64 {
            msg.push_header(&b""[..]);
        }
        let decoded = Message::from_bytes(&msg.to_bytes()).unwrap();
        assert_eq!(decoded, msg);
    }
}
