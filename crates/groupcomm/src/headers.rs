//! Wire headers pushed and popped by the suite's layers.
//!
//! Every layer that needs to convey per-message state to its peer layer on
//! the receiving node defines a header type here and pushes it onto the
//! event's [`morpheus_appia::Message`] on the way down; the peer pops it on
//! the way up. Headers are encoded with the kernel's wire format.
//!
//! The headers of the gossip, failure-detection, view and repair planes are
//! small integers next to their neighbours — ids ascending by one, counters
//! a few ticks apart, incarnations within milliseconds — and use the compact
//! forms of [`morpheus_appia::wire`]: scalars as varints, id and sequence
//! lists gap-coded, and in a table every value column as its offset from the
//! first row's value.

use bytes::Bytes;
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::wire::{
    decode_whole, narrow, varint_len, Scratch, Wire, WireError, WireReader, WireWriter,
};

/// How a multicast layer handled (or wants handled) a data message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McastMode {
    /// The message is addressed to its final receivers; deliver upward.
    Direct,
    /// The message was sent by a mobile node to a fixed relay, which should
    /// re-multicast it to the remaining members (the Mecho protocol).
    RelayRequest,
}

/// Header pushed by the best-effort multicast layers (`beb`, `mecho`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McastHeader {
    /// Relay behaviour requested from the receiving multicast layer.
    pub mode: McastMode,
    /// The node that originated the message (preserved across relaying).
    pub origin: NodeId,
}

impl Wire for McastHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self.mode {
            McastMode::Direct => 0,
            McastMode::RelayRequest => 1,
        });
        self.origin.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mode = match r.get_u8()? {
            0 => McastMode::Direct,
            1 => McastMode::RelayRequest,
            other => return Err(WireError::InvalidTag(other)),
        };
        Ok(Self {
            mode,
            origin: NodeId::decode(r)?,
        })
    }
}

/// Per-sender sequence number header (FIFO, reliable and FEC layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqHeader {
    /// Sender-assigned sequence number, starting at 1.
    pub seq: u64,
}

impl Wire for SeqHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.seq);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            seq: r.get_varint()?,
        })
    }
}

/// Header of a negative acknowledgement: which sender and which sequence
/// numbers are missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NackHeader {
    /// The sender whose messages are missing.
    pub origin: NodeId,
    /// The missing sequence numbers.
    pub missing: Vec<u64>,
}

impl Wire for NackHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.origin.into());
        w.put_gap_list(&self.missing);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            origin: narrow(r.get_varint()?)?,
            missing: r.get_gap_list()?,
        })
    }
}

/// Header of a gossip-forwarded message.
///
/// A message is globally identified by `(origin, inc, seq)`: `seq` is dense
/// (the origin's gossip session numbers group sends 1, 2, 3, …) *within* one
/// `inc`arnation — the session's creation time, which distinguishes the
/// sequence spaces of a node that restarted or had its gossip stack
/// redeployed. Receivers track delivery and compute repair gaps per
/// `(origin, inc)` pair, so a fresh session restarting at `seq = 1` can
/// never be mistaken for duplicates of the previous incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipHeader {
    /// The node that originated the message.
    pub origin: NodeId,
    /// Origin-session incarnation (session creation time, in milliseconds).
    pub inc: u64,
    /// Origin-assigned sequence number, dense within `inc` (unique per
    /// origin and incarnation).
    pub seq: u64,
    /// Remaining number of forwarding rounds.
    pub ttl: u32,
}

impl GossipHeader {
    /// The bytes [`Wire::encode`] writes for this header.
    pub fn encoded_len(&self) -> usize {
        varint_len(self.origin.into())
            + varint_len(self.inc)
            + varint_len(self.seq)
            + varint_len(self.ttl.into())
    }
}

impl Wire for GossipHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.origin.into());
        w.put_varint(self.inc);
        w.put_varint(self.seq);
        w.put_varint(self.ttl.into());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            origin: narrow(r.get_varint()?)?,
            inc: r.get_varint()?,
            seq: r.get_varint()?,
            ttl: narrow(r.get_varint()?)?,
        })
    }
}

/// One row of a [`RepairDigest`]: the contiguous-ish span of an origin's
/// messages the digest sender holds in its repair log and can serve on a
/// NACK pull. `lo`/`hi` are the smallest and largest logged sequence
/// numbers of that `(origin, inc)` stream (log eviction trims from `lo`
/// upward, so the span is dense in the common case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairRange {
    /// The stream's originating node.
    pub origin: NodeId,
    /// The stream's incarnation (see [`GossipHeader::inc`]).
    pub inc: u64,
    /// Smallest logged sequence number.
    pub lo: u64,
    /// Largest logged sequence number.
    pub hi: u64,
}

/// The codec of a gossip repair digest's body: per origin stream, the span
/// of messages the sender's bounded repair log currently holds, one
/// [`RepairRange`] each. Receivers compare the spans against their own
/// delivery record and NACK-pull the gaps.
#[derive(Debug)]
pub struct RepairDigest;

impl RepairDigest {
    /// Encodes a digest from its rows, as they are read. The gossip session
    /// encodes its digests straight from its repair log.
    pub fn encode_rows<I>(rows: I, w: &mut WireWriter)
    where
        I: IntoIterator<Item = RepairRange>,
        I::IntoIter: ExactSizeIterator,
    {
        let rows = rows.into_iter();
        w.reserve(8 + 6 * rows.len());
        w.put_varint(rows.len() as u64);
        // Origins as gaps, `inc` and `lo` against the first row's, `hi`
        // against its own `lo` (the span is a handful of messages).
        let mut prev = 0;
        let mut base = None;
        for entry in rows {
            let (inc_base, lo_base) = base.unwrap_or((0, 0));
            w.put_delta(prev, entry.origin.into());
            prev = entry.origin.into();
            w.put_delta(inc_base, entry.inc);
            w.put_delta(lo_base, entry.lo);
            w.put_delta(entry.lo, entry.hi);
            base.get_or_insert((entry.inc, entry.lo));
        }
    }

    /// Decodes the digest carried in `header` (a popped message header)
    /// into `entries`, a caller-owned scratch that keeps its capacity
    /// across digests. All or nothing ([`decode_whole`]): a malformed row
    /// or trailing bytes is an error and leaves `entries` empty.
    pub fn decode_into(header: &[u8], entries: &mut Vec<RepairRange>) -> Result<(), WireError> {
        decode_whole(WireReader::new(header), entries, |r, entries| {
            let count = r.get_count(4)?;
            entries.reserve(count);
            let mut prev = 0;
            let mut base = None;
            for _ in 0..count {
                let (inc_base, lo_base) = base.unwrap_or((0, 0));
                prev = r.get_delta(prev)?;
                let inc = r.get_delta(inc_base)?;
                let lo = r.get_delta(lo_base)?;
                let hi = r.get_delta(lo)?;
                base.get_or_insert((inc, lo));
                entries.push(RepairRange {
                    origin: narrow(prev)?,
                    inc,
                    lo,
                    hi,
                });
            }
            Ok(())
        })
    }
}

/// The codec of a gossip repair pull's body (the NACK): the exact message
/// identifiers the sender is missing and believes the addressed peer can
/// serve, per stream `(origin, inc, missing sequence numbers)`.
#[derive(Debug)]
pub struct RepairPull;

impl RepairPull {
    /// Encodes a pull from its streams, as they are read. The gossip
    /// session encodes its pulls straight from its [`PullWants`] scratch.
    pub fn encode_wants<'a, I>(wants: I, w: &mut WireWriter)
    where
        I: IntoIterator<Item = (NodeId, u64, &'a [u64])>,
        I::IntoIter: ExactSizeIterator,
    {
        let wants = wants.into_iter();
        w.put_varint(wants.len() as u64);
        let mut prev = 0;
        let mut inc_base = None;
        for (origin, inc, seqs) in wants {
            w.put_delta(prev, origin.into());
            prev = origin.into();
            w.put_delta(inc_base.unwrap_or(0), inc);
            inc_base.get_or_insert(inc);
            w.put_gap_list(seqs);
        }
    }

    /// Decodes the pull carried in `header` (a popped message header) into
    /// `wants`, a caller-owned scratch that keeps its capacity across
    /// pulls. All or nothing ([`decode_whole`]): a malformed stream or
    /// trailing bytes is an error and leaves `wants` empty. Every count is
    /// checked against the bytes left ([`WireReader::get_count`]) before
    /// anything is reserved.
    pub fn decode_into(header: &[u8], wants: &mut PullWants) -> Result<(), WireError> {
        decode_whole(WireReader::new(header), wants, |r, wants| {
            // A stream is at least an origin gap, an `inc` offset and an
            // empty list's count; a sequence number at least one byte.
            let count = r.get_count(3)?;
            wants.streams.reserve(count);
            let mut prev = 0;
            let mut inc_base = None;
            for _ in 0..count {
                prev = r.get_delta(prev)?;
                let inc = r.get_delta(inc_base.unwrap_or(0))?;
                inc_base.get_or_insert(inc);
                let origin = narrow(prev)?;
                let len = r.get_count(1)?;
                wants.seqs.reserve(len);
                let mut seq = 0;
                for _ in 0..len {
                    seq = r.get_delta(seq)?;
                    wants.seqs.push(seq);
                }
                wants.streams.push((origin, inc, wants.seqs.len()));
            }
            Ok(())
        })
    }
}

/// The wants of one [`RepairPull`] in two flat lists, so a session builds,
/// encodes and decodes its pulls in buffers it keeps instead of a list per
/// stream: the streams in wire order, and every wanted sequence number
/// after the other.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PullWants {
    /// `(origin, inc, end)` per stream: its sequence numbers are
    /// `seqs[previous stream's end..end]`.
    streams: Vec<(NodeId, u64, usize)>,
    seqs: Vec<u64>,
}

impl Scratch for PullWants {
    /// Empties both lists, keeping their memory.
    fn clear(&mut self) {
        self.streams.clear();
        self.seqs.clear();
    }
}

impl PullWants {
    /// Sequence numbers wanted over all streams.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether no sequence number is wanted.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The list the next stream's sequence numbers are appended to, after
    /// every stream's before it ([`crate::repair::Delivered::missing_in`]
    /// appends into it). [`PullWants::end_stream`] gives them a stream.
    pub fn seqs_mut(&mut self) -> &mut Vec<u64> {
        &mut self.seqs
    }

    /// Makes the sequence numbers appended since the previous stream ended
    /// the wants of `(origin, inc)`. A stream that got none is not kept.
    pub fn end_stream(&mut self, origin: NodeId, inc: u64) {
        let start = self.streams.last().map_or(0, |&(_, _, end)| end);
        if self.seqs.len() > start {
            self.streams.push((origin, inc, self.seqs.len()));
        }
    }

    /// `(origin, inc, wanted sequence numbers)` per stream, in wire order.
    pub fn streams(&self) -> impl ExactSizeIterator<Item = (NodeId, u64, &[u64])> + '_ {
        let mut start = 0;
        self.streams.iter().map(move |&(origin, inc, end)| {
            // Every end is at most `seqs.len()` and no less than the one
            // before it, so the range is always there.
            let seqs = self.seqs.get(start..end).unwrap_or_default();
            start = end;
            (origin, inc, seqs)
        })
    }
}

/// The codec of an aggregated gossip push's body: several app messages,
/// each with its own [`GossipHeader`], batched into one packet. Every push
/// travels in one: same-instant sends and relays to one peer share a
/// packet, and the receiver unbatches and runs every entry through the one
/// push receive path (dedup, delivery tracking, repair logging,
/// re-forwarding). A pull's answer travels in one too, its logged messages
/// under `ttl` 0 headers, and the receiver runs each through the repair
/// receive path.
#[derive(Debug)]
pub struct GossipBatchBody;

impl GossipBatchBody {
    /// Encodes a batch whose messages are already in wire form (the bytes
    /// [`Wire::encode`] writes for a [`Message`]): per entry the gossip
    /// header, then the message with the higher layers' headers and
    /// payload. The gossip outbox holds frames, so a flush copies them into
    /// the packet instead of re-encoding.
    pub fn encode_frames<'a, I>(entries: I, w: &mut WireWriter)
    where
        I: IntoIterator<Item = &'a (GossipHeader, Bytes)>,
        I::IntoIter: ExactSizeIterator,
    {
        let entries = entries.into_iter();
        w.put_varint(entries.len() as u64);
        for (header, frame) in entries {
            header.encode(w);
            w.put_raw(frame);
        }
    }

    /// Decodes the batch carried in `header` (a popped message header) into
    /// `entries`, a caller-owned scratch that keeps its capacity across
    /// batches. The messages are slices of `header`. All or nothing
    /// ([`decode_whole`]): a malformed entry anywhere, or trailing bytes, is
    /// an error and leaves `entries` empty.
    pub fn decode_into(
        header: &Bytes,
        entries: &mut Vec<(GossipHeader, Message)>,
    ) -> Result<(), WireError> {
        decode_whole(WireReader::over(header), entries, |r, entries| {
            // Every entry occupies at least 6 wire bytes: a gossip header's
            // four varints plus an empty message's two (its header count
            // and its payload length).
            let count = r.get_count(6)?;
            entries.reserve(count);
            for _ in 0..count {
                let header = GossipHeader::decode(r)?;
                let message = Message::decode(r)?;
                entries.push((header, message));
            }
            Ok(())
        })
    }
}

/// A member-indexed table of `(member, counter)` rows: what a digest-push
/// failure detector would send every interval. No layer sends one any more
/// (the failure detector probes instead, see [`ProbeBody`]); the benchmark
/// prices its codec as the cost of an `n`-row id table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LivenessDigest {
    /// `(member, heartbeat counter)` pairs, one per known member.
    pub entries: Vec<(NodeId, u64)>,
}

impl Wire for LivenessDigest {
    fn encode(&self, w: &mut WireWriter) {
        w.put_id_table(&self.entries);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            entries: r.get_id_table()?,
        })
    }
}

/// What a failure-detector probe packet asks or answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// "Are you alive?" Answered with an [`ProbeKind::Ack`] of the same
    /// sequence number.
    Ping,
    /// "Ping `relay` for me": the indirect probe of a member whose direct
    /// ack is overdue.
    PingReq,
    /// The answer to a ping.
    Ack,
}

/// What a piggybacked membership rumour says about its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RumourKind {
    /// The node is alive at this incarnation (a refutation, when it is the
    /// node's own).
    Alive,
    /// The node failed a probe and is suspected at this incarnation.
    Suspect,
    /// A suspicion of the node went unrefuted for the suspicion timeout.
    Confirm,
}

/// One membership rumour: `node` is `kind` at `incarnation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rumour {
    /// What the rumour says.
    pub kind: RumourKind,
    /// The node it is about.
    pub node: NodeId,
    /// The node's incarnation it refers to; a higher one supersedes it.
    pub incarnation: u64,
}

impl Rumour {
    /// The rumour that `node` is `kind` at `incarnation`.
    pub fn new(kind: RumourKind, node: NodeId, incarnation: u64) -> Self {
        Self {
            kind,
            node,
            incarnation,
        }
    }
}

/// Body of a failure-detector [`crate::events::Heartbeat`]: one SWIM probe
/// message plus the rumours riding on it.
///
/// Wire form: a byte holding the kind (and whether `relay` follows), the
/// varint sequence number and sender incarnation, the optional varint
/// `relay`, then a count and per rumour a varint of `node · 4 + kind` and a
/// varint incarnation. A ping without rumours is four bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeBody {
    /// Ping, ping-req or ack.
    pub kind: ProbeKind,
    /// The prober's sequence number, echoed by the ack.
    pub seq: u64,
    /// The sender's own incarnation.
    pub incarnation: u64,
    /// A ping-req's member to probe; on a ping or ack, the prober a relayed
    /// probe is made for.
    pub relay: Option<NodeId>,
    /// Piggybacked membership rumours.
    pub rumours: Vec<Rumour>,
}

impl Default for ProbeBody {
    fn default() -> Self {
        Self {
            kind: ProbeKind::Ping,
            seq: 0,
            incarnation: 0,
            relay: None,
            rumours: Vec::new(),
        }
    }
}

/// The flag of [`ProbeBody`]'s first byte saying that `relay` follows.
const PROBE_RELAY: u8 = 1 << 2;

/// A probe is decoded in place: its scalar fields are overwritten, and its
/// rumour list is the scratch.
impl Scratch for ProbeBody {
    fn clear(&mut self) {
        self.rumours.clear();
    }
}

impl ProbeBody {
    /// Decodes the body carried in `header` (a popped message header) into
    /// `body`, whose rumour list keeps its capacity across probes. All or
    /// nothing ([`decode_whole`]): on an error, or trailing bytes, `body`
    /// holds no rumours. A ping-req without a member to probe is malformed.
    pub fn decode_into(header: &[u8], body: &mut ProbeBody) -> Result<(), WireError> {
        decode_whole(WireReader::new(header), body, Self::decode_fields)
    }

    fn decode_fields(r: &mut WireReader<'_>, body: &mut ProbeBody) -> Result<(), WireError> {
        let tag = r.get_u8()?;
        body.kind = match tag & !PROBE_RELAY {
            0 => ProbeKind::Ping,
            1 => ProbeKind::PingReq,
            2 => ProbeKind::Ack,
            _ => return Err(WireError::InvalidTag(tag)),
        };
        body.seq = r.get_varint()?;
        body.incarnation = r.get_varint()?;
        body.relay = match tag & PROBE_RELAY {
            0 => None,
            _ => Some(narrow(r.get_varint()?)?),
        };
        if body.kind == ProbeKind::PingReq && body.relay.is_none() {
            return Err(WireError::Malformed("ping-req without a member to probe"));
        }
        // A rumour is at least two one-byte varints.
        let count = r.get_count(2)?;
        body.rumours.reserve(count);
        for _ in 0..count {
            let tagged = r.get_varint()?;
            let kind = match tagged & 3 {
                0 => RumourKind::Alive,
                1 => RumourKind::Suspect,
                2 => RumourKind::Confirm,
                _ => return Err(WireError::Malformed("unknown rumour kind")),
            };
            body.rumours.push(Rumour {
                kind,
                node: narrow(tagged >> 2)?,
                incarnation: r.get_varint()?,
            });
        }
        Ok(())
    }
}

impl Wire for ProbeBody {
    fn encode(&self, w: &mut WireWriter) {
        let kind = match self.kind {
            ProbeKind::Ping => 0,
            ProbeKind::PingReq => 1,
            ProbeKind::Ack => 2,
        };
        w.put_u8(kind | if self.relay.is_some() { PROBE_RELAY } else { 0 });
        w.put_varint(self.seq);
        w.put_varint(self.incarnation);
        if let Some(relay) = self.relay {
            w.put_varint(relay.into());
        }
        w.put_varint(self.rumours.len() as u64);
        for rumour in &self.rumours {
            let kind = match rumour.kind {
                RumourKind::Alive => 0,
                RumourKind::Suspect => 1,
                RumourKind::Confirm => 2,
            };
            w.put_varint(u64::from(rumour.node) << 2 | kind);
            w.put_varint(rumour.incarnation);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut body = Self::default();
        Self::decode_fields(r, &mut body)?;
        Ok(body)
    }
}

/// Body of a view-change [`crate::events::FlushAck`]: which members are known
/// to have flushed for the round identified by the ballot
/// `(epoch, proposer)`.
///
/// Every participant reports only itself, unicast to the proposer, at every
/// view size: the proposer collects `n` flushes per view change. The
/// `flushed` list can name several members, and the proposer merges every
/// one it is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushBody {
    /// The round's view epoch.
    pub epoch: u64,
    /// The proposer holding the epoch (the ballot tie-break half).
    pub proposer: NodeId,
    /// Members known to have blocked and flushed.
    pub flushed: Vec<NodeId>,
}

impl Wire for FlushBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.epoch);
        w.put_varint(self.proposer.into());
        w.put_gap_list(&self.flushed);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            epoch: r.get_varint()?,
            proposer: narrow(r.get_varint()?)?,
            flushed: r.get_gap_list()?,
        })
    }
}

/// Header of a FEC parity block: which data sequence numbers it covers and
/// how long each covered message was (needed to truncate a reconstructed
/// message back to its original size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FecParityHeader {
    /// Sequence numbers (of the same sender) covered by the parity block.
    pub covers: Vec<u64>,
    /// Encoded length, in bytes, of each covered message (same order as `covers`).
    pub lengths: Vec<u32>,
    /// Length in bytes of the XOR parity payload.
    pub parity_len: u32,
}

impl Wire for FecParityHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64_list(&self.covers);
        w.put_u32_list(&self.lengths);
        w.put_u32(self.parity_len);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            covers: r.get_u64_list()?,
            lengths: r.get_u32_list()?,
            parity_len: r.get_u32()?,
        })
    }
}

/// Header carrying causal-ordering information: the sender's rank in the view
/// and its vector clock at send time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalHeader {
    /// The sender's rank within the current view.
    pub sender_rank: u32,
    /// The sender's vector clock (one entry per view member, by rank).
    pub clock: Vec<u64>,
}

impl Wire for CausalHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.sender_rank);
        w.put_u64_list(&self.clock);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            sender_rank: r.get_u32()?,
            clock: r.get_u64_list()?,
        })
    }
}

/// Header identifying a message for total ordering: origin plus a per-origin
/// sequence number assigned by the total-order layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TotalIdHeader {
    /// The originating node.
    pub origin: NodeId,
    /// Origin-local sequence number.
    pub local_seq: u64,
}

impl Wire for TotalIdHeader {
    fn encode(&self, w: &mut WireWriter) {
        self.origin.encode(w);
        w.put_u64(self.local_seq);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            origin: NodeId::decode(r)?,
            local_seq: r.get_u64()?,
        })
    }
}

/// Header of an [`crate::events::OrderInfo`] control message: the global
/// sequence number assigned by the sequencer to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderHeader {
    /// The message being ordered.
    pub message: TotalIdHeader,
    /// The global delivery order assigned by the sequencer.
    pub global_seq: u64,
}

impl Wire for OrderHeader {
    fn encode(&self, w: &mut WireWriter) {
        self.message.encode(w);
        w.put_u64(self.global_seq);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            message: TotalIdHeader::decode(r)?,
            global_seq: r.get_u64()?,
        })
    }
}

#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), value);
    }

    fn digest_body(rows: &[RepairRange]) -> Vec<u8> {
        let mut w = WireWriter::new();
        RepairDigest::encode_rows(rows.iter().copied(), &mut w);
        w.finish().to_vec()
    }

    fn pull_body(wants: &reference::Wants) -> Vec<u8> {
        let mut scratch = PullWants::default();
        for (origin, inc, seqs) in wants {
            scratch.seqs_mut().extend(seqs);
            scratch.end_stream(*origin, *inc);
        }
        let mut w = WireWriter::new();
        RepairPull::encode_wants(scratch.streams(), &mut w);
        w.finish().to_vec()
    }

    fn batch_body(entries: &[(GossipHeader, Message)]) -> Vec<u8> {
        let frames: Vec<_> = entries
            .iter()
            .map(|(header, message)| (*header, message.to_bytes()))
            .collect();
        let mut w = WireWriter::new();
        GossipBatchBody::encode_frames(&frames, &mut w);
        w.finish().to_vec()
    }

    /// Whether `body` decodes through each body decoder gossip runs — a
    /// digest's, a pull's and a batch's — each into a scratch that holds a
    /// stale entry: an error must leave its scratch empty.
    fn body_decoders(body: &[u8]) -> [bool; 3] {
        let mut rows = vec![RepairRange {
            origin: NodeId(9),
            inc: 9,
            lo: 9,
            hi: 9,
        }];
        let mut wants = PullWants::default();
        wants.seqs_mut().push(9);
        wants.end_stream(NodeId(9), 9);
        let stale = GossipHeader {
            origin: NodeId(9),
            inc: 9,
            seq: 9,
            ttl: 9,
        };
        let mut entries = vec![(stale, Message::new())];
        let decoded = [
            RepairDigest::decode_into(body, &mut rows).is_ok(),
            RepairPull::decode_into(body, &mut wants).is_ok(),
            GossipBatchBody::decode_into(&Bytes::copy_from_slice(body), &mut entries).is_ok(),
        ];
        assert!(decoded[0] || rows.is_empty(), "{body:?} left rows");
        assert!(decoded[1] || wants.is_empty(), "{body:?} left wants");
        assert!(decoded[2] || entries.is_empty(), "{body:?} left entries");
        decoded
    }

    #[test]
    fn a_gossip_headers_encoded_len_is_the_bytes_it_encodes() {
        // Each varint one below, at and one past its 1-, 2- and 3-byte
        // boundaries: the gossip flush cuts batches with `encoded_len`.
        let edges = [0, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152];
        let wide = [u64::from(u32::MAX), u64::MAX];
        for &a in edges.iter().chain(&wide) {
            for &b in &edges {
                let header = GossipHeader {
                    origin: NodeId(u32::try_from(a).unwrap_or(u32::MAX)),
                    inc: a,
                    seq: b,
                    ttl: u32::try_from(b).unwrap_or(u32::MAX),
                };
                assert_eq!(header.encoded_len(), header.to_bytes().len(), "{header:?}");
                let mixed = GossipHeader {
                    inc: b,
                    seq: a,
                    ..header
                };
                assert_eq!(mixed.encoded_len(), mixed.to_bytes().len(), "{mixed:?}");
            }
        }
    }

    #[test]
    fn all_headers_roundtrip() {
        roundtrip(McastHeader {
            mode: McastMode::Direct,
            origin: NodeId(3),
        });
        roundtrip(McastHeader {
            mode: McastMode::RelayRequest,
            origin: NodeId(9),
        });
        roundtrip(SeqHeader { seq: 123 });
        roundtrip(NackHeader {
            origin: NodeId(2),
            missing: vec![4, 5, 9],
        });
        roundtrip(GossipHeader {
            origin: NodeId(1),
            inc: 12,
            seq: 77,
            ttl: 3,
        });
        roundtrip(LivenessDigest {
            entries: vec![(NodeId(0), 12), (NodeId(7), 3)],
        });
        roundtrip(LivenessDigest::default());
        roundtrip(ProbeBody::default());
        roundtrip(ProbeBody {
            kind: ProbeKind::PingReq,
            seq: 300,
            incarnation: 41,
            relay: Some(NodeId(199)),
            rumours: vec![
                Rumour {
                    kind: RumourKind::Suspect,
                    node: NodeId(7),
                    incarnation: 40,
                },
                Rumour {
                    kind: RumourKind::Confirm,
                    node: NodeId(0),
                    incarnation: 0,
                },
                Rumour {
                    kind: RumourKind::Alive,
                    node: NodeId(u32::MAX),
                    incarnation: u64::MAX,
                },
            ],
        });
        roundtrip(FlushBody {
            epoch: 9,
            proposer: NodeId(1),
            flushed: vec![NodeId(1), NodeId(4)],
        });
        roundtrip(FecParityHeader {
            covers: vec![10, 11, 12, 13],
            lengths: vec![100, 90, 80, 70],
            parity_len: 512,
        });
        roundtrip(CausalHeader {
            sender_rank: 2,
            clock: vec![5, 0, 7],
        });
        roundtrip(TotalIdHeader {
            origin: NodeId(4),
            local_seq: 6,
        });
        roundtrip(OrderHeader {
            message: TotalIdHeader {
                origin: NodeId(4),
                local_seq: 6,
            },
            global_seq: 99,
        });
    }

    /// A body whose list count claims `u32::MAX` entries over a payload of
    /// `filler` more bytes (each a valid one-byte varint).
    fn overstated(prefix: &[u64], filler: usize) -> Bytes {
        let mut w = WireWriter::new();
        for field in prefix {
            w.put_varint(*field);
        }
        w.put_varint(u64::from(u32::MAX));
        w.put_raw(&vec![1; filler]);
        w.finish()
    }

    #[test]
    fn adversarial_liveness_digest_counts_are_rejected() {
        assert!(LivenessDigest::from_bytes(&overstated(&[], 2)).is_err());
    }

    #[test]
    fn adversarial_rumour_counts_are_rejected_before_anything_is_reserved() {
        // A ping (kind byte 0, seq 5, incarnation 1) claiming `u32::MAX`
        // rumours over 40 bytes.
        let mut w = WireWriter::new();
        w.put_u8(0);
        w.put_raw(&overstated(&[5, 1], 40));
        let bytes = w.finish();
        let mut body = ProbeBody::default();
        assert!(ProbeBody::decode_into(&bytes, &mut body).is_err());
        assert_eq!(body.rumours.capacity(), 0, "nothing was reserved");
        // A ping-req must name the member to probe; an unknown kind is an error.
        assert!(ProbeBody::from_bytes(&[1, 5, 1, 0]).is_err());
        assert!(ProbeBody::from_bytes(&[3, 5, 1, 0]).is_err());
        assert!(ProbeBody::from_bytes(&[0, 5, 1, 1, 3, 0]).is_err());
    }

    #[test]
    fn adversarial_repair_counts_are_rejected() {
        assert!(!body_decoders(&overstated(&[128], 4))[0]);
        assert!(!body_decoders(&overstated(&[], 3))[1]);
    }

    #[test]
    fn corrupted_mcast_mode_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        NodeId(1).encode(&mut w);
        assert!(McastHeader::from_bytes(&w.finish()).is_err());
    }

    #[test]
    fn headers_compose_on_a_message_stack() {
        let mut message = morpheus_appia::Message::with_payload(&b"chat"[..]);
        message.push(&SeqHeader { seq: 9 });
        message.push(&McastHeader {
            mode: McastMode::RelayRequest,
            origin: NodeId(5),
        });

        // The receiving side pops in reverse order.
        let mcast: McastHeader = message.pop().unwrap();
        assert_eq!(mcast.mode, McastMode::RelayRequest);
        let seq: SeqHeader = message.pop().unwrap();
        assert_eq!(seq.seq, 9);
        assert_eq!(message.payload().as_ref(), b"chat");
    }

    #[test]
    fn adversarial_counts_are_rejected_across_all_bodies() {
        // FlushBody (epoch, proposer) and NackHeader (origin) claiming far
        // more list elements than the payload holds.
        assert!(FlushBody::from_bytes(&overstated(&[3, 2], 1)).is_err());
        assert!(NackHeader::from_bytes(&overstated(&[2], 1)).is_err());

        // RepairPull with an honest entry count but an adversarial inner
        // sequence-list count.
        assert!(!body_decoders(&overstated(&[1, 2, 18], 0))[1]);

        // GossipBatchBody claiming u32::MAX entries backed by one entry.
        let mut w = WireWriter::new();
        w.put_varint(u64::from(u32::MAX));
        GossipHeader {
            origin: NodeId(1),
            inc: 1,
            seq: 1,
            ttl: 1,
        }
        .encode(&mut w);
        Message::with_payload(&b"x"[..]).encode(&mut w);
        assert!(!body_decoders(&w.finish())[2]);
    }

    #[test]
    fn truncated_bodies_decode_to_clean_errors() {
        let digest = digest_body(&[RepairRange {
            origin: NodeId(3),
            inc: 7,
            lo: 1,
            hi: 4,
        }]);
        let pull = pull_body(&vec![(NodeId(3), 7, vec![2, 3])]);
        let flush = FlushBody {
            epoch: 5,
            proposer: NodeId(1),
            flushed: vec![NodeId(1), NodeId(2)],
        };
        let mut inner = Message::with_payload(&b"chat"[..]);
        inner.push(&SeqHeader { seq: 3 });
        let header = GossipHeader {
            origin: NodeId(3),
            inc: 7,
            seq: 2,
            ttl: 1,
        };
        let batch = batch_body(&[(header, inner)]);
        let bodies = [digest, pull, flush.to_bytes().to_vec(), batch];
        for (which, bytes) in bodies.iter().enumerate() {
            for cut in 0..bytes.len() {
                let truncated = &bytes[..cut];
                let failed = match which {
                    2 => FlushBody::from_bytes(truncated).is_err(),
                    0 => !body_decoders(truncated)[0],
                    1 => !body_decoders(truncated)[1],
                    _ => !body_decoders(truncated)[2],
                };
                assert!(
                    failed,
                    "body {which} decoded from {cut} of {} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_never_panic_the_body_decoders() {
        // Exhaustive deterministic single-bit fuzz: a flipped bit may decode
        // to a different valid value or a clean error, never a panic or an
        // attacker-sized allocation.
        let digest = digest_body(&[
            RepairRange {
                origin: NodeId(1),
                inc: 2,
                lo: 3,
                hi: 9,
            },
            RepairRange {
                origin: NodeId(4),
                inc: 5,
                lo: 1,
                hi: 1,
            },
        ]);
        let pull = pull_body(&vec![(NodeId(1), 2, vec![4, 5, 6]), (NodeId(7), 8, vec![])]);
        let flush = FlushBody {
            epoch: 11,
            proposer: NodeId(0),
            flushed: vec![NodeId(0), NodeId(1), NodeId(2)],
        };
        let mut inner = Message::with_payload(&b"chat"[..]);
        inner.push(&SeqHeader { seq: 3 });
        let header = GossipHeader {
            origin: NodeId(1),
            inc: 2,
            seq: 3,
            ttl: 1,
        };
        let batch = batch_body(&[(header, inner)]);
        for bytes in [digest, pull, flush.to_bytes().to_vec(), batch] {
            for index in 0..bytes.len() {
                for bit in 0..8 {
                    let mut mutated = bytes.clone();
                    mutated[index] ^= 1 << bit;
                    body_decoders(&mutated);
                    let _ = FlushBody::from_bytes(&mutated);
                }
            }
        }
    }

    /// A digest decodes into a scratch all or nothing: its rows, or — on
    /// every prefix, on a trailing byte and on any single-bit flip that does
    /// not decode — an empty scratch, however full it was.
    #[test]
    fn a_digest_decodes_into_scratch_all_or_nothing() {
        let digest: Vec<RepairRange> = (0..5u32)
            .map(|at| RepairRange {
                origin: NodeId(at * 3),
                inc: 1_000 + u64::from(at),
                lo: 40 + u64::from(at),
                hi: 44 + u64::from(at) * 2,
            })
            .collect();
        let bytes = digest_body(&digest);
        let mut rows = vec![digest[1]];
        assert_eq!(RepairDigest::decode_into(&bytes, &mut rows), Ok(()));
        assert_eq!(rows, digest);
        for cut in 0..bytes.len() {
            assert!(!body_decoders(&bytes[..cut])[0], "{cut}");
        }
        assert!(!body_decoders(&[&bytes[..], &[0]].concat())[0]);
        for index in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[index] ^= 1 << bit;
                body_decoders(&mutated);
            }
        }
    }

    fn wants_of(wants: &PullWants) -> Vec<(NodeId, u64, Vec<u64>)> {
        let streams = wants.streams();
        streams
            .map(|(origin, inc, seqs)| (origin, inc, seqs.to_vec()))
            .collect()
    }

    /// Wants built in the flat scratch, as a gossip session builds them,
    /// encode to the reference encoder's bytes.
    #[test]
    fn a_pull_encodes_from_scratch_like_the_reference_codec() {
        let pull = vec![
            (NodeId(2), 1_000, vec![3, 4, 9]),
            (NodeId(1), 999, vec![u64::MAX]),
            (NodeId(300), 5, vec![1, 200, 70_000]),
        ];
        let mut wants = PullWants::default();
        for (origin, inc, seqs) in &pull {
            wants.seqs_mut().extend(seqs);
            wants.end_stream(*origin, *inc);
            wants.end_stream(NodeId(8), 1);
        }
        assert_eq!(wants.len(), 7);
        assert_eq!(
            wants_of(&wants),
            pull,
            "a stream wanting nothing is not kept"
        );
        let mut w = WireWriter::new();
        RepairPull::encode_wants(wants.streams(), &mut w);
        assert_eq!(w.finish(), reference::encode_pull(&pull));
        wants.clear();
        assert!(wants.is_empty() && wants.streams().len() == 0);
    }

    /// The scratch decode gives the reference decode's values and errors on
    /// every prefix and every single-bit flip of a pull, and a failure
    /// leaves the scratch empty however full it was.
    #[test]
    fn a_pull_decodes_into_scratch_like_the_reference_codec() {
        let pull = vec![
            (NodeId(2), 1_000, vec![3, 4, 9]),
            (NodeId(7), 1_001, vec![]),
            (NodeId(300), 5, vec![1, 200, 70_000]),
        ];
        let bytes = reference::encode_pull(&pull);
        let mut wants = PullWants::default();
        assert_eq!(RepairPull::decode_into(&bytes, &mut wants), Ok(()));
        assert_eq!(wants_of(&wants), pull);
        let full = wants.clone();
        let mut variants: Vec<Vec<u8>> =
            (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        variants.push([&bytes[..], &[0]].concat());
        for index in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[index] ^= 1 << bit;
                variants.push(mutated);
            }
        }
        for variant in variants {
            wants.clone_from(&full);
            match (
                RepairPull::decode_into(&variant, &mut wants),
                reference::decode_pull(&variant),
            ) {
                (Ok(()), Ok(decoded)) => assert_eq!(wants_of(&wants), decoded),
                (Err(scratch), Err(reference)) => {
                    assert_eq!(scratch, reference, "{variant:?}");
                    assert_eq!(wants, PullWants::default(), "a failed decode left wants");
                }
                (scratch, whole) => panic!("{variant:?}: {scratch:?} against {whole:?}"),
            }
        }
    }
}
