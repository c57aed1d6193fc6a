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
use morpheus_appia::wire::{narrow, Wire, WireError, WireReader, WireWriter};

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

/// One entry of a [`RepairDigest`]: the contiguous-ish span of an origin's
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

/// Body of a gossip repair digest: per origin stream, the span of messages
/// the sender's bounded repair log currently holds. Receivers compare the
/// spans against their own delivery record and NACK-pull the gaps.
///
/// The digest doubles as the backpressure grant carrier: `credit` is the
/// number of further push-path data messages the digest sender is prepared
/// to accept from the addressed peer before that peer must fall back to
/// digest-announce + pull. `credit == 0` means the sender does not run
/// credit backpressure (the pre-credit wire form encoded no grant, so zero
/// keeps old behaviour: senders treat the peer as uncredited).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairDigest {
    /// Push-path credit granted to the receiving peer (0 = no backpressure).
    pub credit: u32,
    /// One entry per `(origin, inc)` stream held in the repair log.
    pub entries: Vec<RepairRange>,
}

impl RepairDigest {
    /// Encodes a digest from its rows, as they are read — byte for byte
    /// what [`Wire::encode`] writes for the same credit and entries. The
    /// gossip session encodes its digests straight from its repair log.
    pub fn encode_rows<I>(credit: u32, rows: I, w: &mut WireWriter)
    where
        I: IntoIterator<Item = RepairRange>,
        I::IntoIter: ExactSizeIterator,
    {
        let rows = rows.into_iter();
        w.reserve(8 + 6 * rows.len());
        w.put_varint(credit.into());
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
    /// across digests, and returns its credit. All or nothing, as
    /// [`Message::pop`]: a malformed row or trailing bytes is an error and
    /// leaves `entries` empty.
    pub fn decode_into(header: &[u8], entries: &mut Vec<RepairRange>) -> Result<u32, WireError> {
        entries.clear();
        let mut r = WireReader::new(header);
        let decoded = Self::decode_rows(&mut r, entries).and_then(|credit| match r.remaining() {
            0 => Ok(credit),
            _ => Err(WireError::Malformed("trailing bytes in header")),
        });
        if decoded.is_err() {
            entries.clear();
        }
        decoded
    }

    /// Appends the rows of one encoded digest to `entries`; returns the
    /// credit.
    fn decode_rows(
        r: &mut WireReader<'_>,
        entries: &mut Vec<RepairRange>,
    ) -> Result<u32, WireError> {
        let credit = narrow(r.get_varint()?)?;
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
        Ok(credit)
    }
}

impl Wire for RepairDigest {
    fn encode(&self, w: &mut WireWriter) {
        Self::encode_rows(self.credit, self.entries.iter().copied(), w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut entries = Vec::new();
        let credit = Self::decode_rows(r, &mut entries)?;
        Ok(Self { credit, entries })
    }
}

/// Body of a gossip repair pull (the NACK): the exact message identifiers
/// the sender is missing and believes the addressed peer can serve.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairPull {
    /// `(origin, inc, missing sequence numbers)` per stream.
    pub wants: Vec<(NodeId, u64, Vec<u64>)>,
}

impl Wire for RepairPull {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.wants.len() as u64);
        let mut prev = 0;
        let mut inc_base = None;
        for (origin, inc, seqs) in &self.wants {
            w.put_delta(prev, (*origin).into());
            prev = (*origin).into();
            w.put_delta(inc_base.unwrap_or(0), *inc);
            inc_base.get_or_insert(*inc);
            w.put_gap_list(seqs);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // An entry is at least an origin gap, an `inc` offset and an empty
        // list's count.
        let count = r.get_count(3)?;
        let mut wants = Vec::with_capacity(count);
        let mut prev = 0;
        let mut inc_base = None;
        for _ in 0..count {
            prev = r.get_delta(prev)?;
            let inc = r.get_delta(inc_base.unwrap_or(0))?;
            inc_base.get_or_insert(inc);
            wants.push((narrow(prev)?, inc, r.get_gap_list()?));
        }
        Ok(Self { wants })
    }
}

/// Header of a gossip repair push: identifies the logged message whose
/// original bytes (higher-layer headers plus payload) follow in the
/// carrying message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairPushHeader {
    /// The stream's originating node.
    pub origin: NodeId,
    /// The stream's incarnation.
    pub inc: u64,
    /// The repaired message's sequence number.
    pub seq: u64,
}

impl Wire for RepairPushHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.origin.into());
        w.put_varint(self.inc);
        w.put_varint(self.seq);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            origin: narrow(r.get_varint()?)?,
            inc: r.get_varint()?,
            seq: r.get_varint()?,
        })
    }
}

/// Body of a retention fall-through answer: a `RepairPull` asked for
/// sequence numbers of the `(origin, inc)` stream that are older than the
/// responder's repair-log floor and can never be served by NACK repair.
/// The puller reacts by fast-forwarding its delivery tracker past the
/// un-servable span and escalating to a targeted state-section pull
/// against the responder (the repair→snapshot catch-up path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairFloorBody {
    /// The stream's originating node.
    pub origin: NodeId,
    /// The stream's incarnation.
    pub inc: u64,
    /// Smallest sequence number the responder can still serve; everything
    /// below it has been evicted from the repair log.
    pub floor: u64,
}

impl Wire for RepairFloorBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.origin.into());
        w.put_varint(self.inc);
        w.put_varint(self.floor);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            origin: narrow(r.get_varint()?)?,
            inc: r.get_varint()?,
            floor: r.get_varint()?,
        })
    }
}

/// Body of an aggregated gossip push: several app messages, each with its
/// own [`GossipHeader`], batched into one packet. Every push travels in
/// one: same-instant sends and relays to one peer share a packet, and the
/// receiver unbatches and runs every entry through the one push receive
/// path (dedup, delivery tracking, repair logging, re-forwarding).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GossipBatchBody {
    /// `(gossip header, original message)` per batched app message; the
    /// message carries the higher layers' headers and payload, without the
    /// gossip header, which rides alongside.
    pub entries: Vec<(GossipHeader, Message)>,
}

impl GossipBatchBody {
    /// Encodes a batch whose messages are already in wire form
    /// ([`Wire::to_bytes`]) — byte for byte what [`Wire::encode`] writes for
    /// the same entries as [`Message`]s. The gossip outbox holds frames, so
    /// a flush copies them into the packet instead of re-encoding.
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
    /// batches. The messages are slices of `header`. All or nothing, as
    /// [`Message::pop`] of the whole body: a malformed entry anywhere, or
    /// trailing bytes, is an error and leaves `entries` empty.
    pub fn decode_into(
        header: &Bytes,
        entries: &mut Vec<(GossipHeader, Message)>,
    ) -> Result<(), WireError> {
        entries.clear();
        let mut r = WireReader::over(header);
        let decoded = Self::decode_entries(&mut r, entries).and_then(|()| match r.remaining() {
            0 => Ok(()),
            _ => Err(WireError::Malformed("trailing bytes in header")),
        });
        if decoded.is_err() {
            entries.clear();
        }
        decoded
    }

    /// Appends the entries of one encoded batch to `entries`.
    fn decode_entries(
        r: &mut WireReader<'_>,
        entries: &mut Vec<(GossipHeader, Message)>,
    ) -> Result<(), WireError> {
        // Every entry occupies at least 12 wire bytes: a gossip header's four
        // varints plus an empty message's two length prefixes.
        let count = r.get_count(12)?;
        entries.reserve(count);
        for _ in 0..count {
            let header = GossipHeader::decode(r)?;
            let message = Message::decode(r)?;
            entries.push((header, message));
        }
        Ok(())
    }
}

impl Wire for GossipBatchBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.entries.len() as u64);
        for (header, message) in &self.entries {
            header.encode(w);
            message.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut entries = Vec::new();
        Self::decode_entries(r, &mut entries)?;
        Ok(Self { entries })
    }
}

/// Header of a gossip heartbeat: the sender's view of every member's
/// heartbeat counter. Counters only ever grow; a receiver merges entries
/// that are newer than its own and derives suspicion from how long a
/// member's counter has failed to advance — no direct pairwise silence
/// measurement (and therefore no all-to-all heartbeat traffic) is needed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LivenessDigest {
    /// `(member, heartbeat counter)` pairs, one per known member.
    pub entries: Vec<(NodeId, u64)>,
}

impl LivenessDigest {
    /// Decodes the digest carried in `header` (a popped message header)
    /// into `entries`, a caller-owned scratch that keeps its capacity
    /// across digests. All or nothing, as [`Message::pop`]: a malformed row
    /// or trailing bytes is an error and leaves `entries` empty.
    pub fn decode_into(header: &[u8], entries: &mut Vec<(NodeId, u64)>) -> Result<(), WireError> {
        let mut r = WireReader::new(header);
        r.get_id_table_into(entries)?;
        if r.remaining() != 0 {
            entries.clear();
            return Err(WireError::Malformed("trailing bytes in header"));
        }
        Ok(())
    }
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

/// Body of a view-change [`crate::events::FlushAck`]: which members are known
/// to have flushed for the round identified by the ballot
/// `(epoch, proposer)`.
///
/// In small views every participant reports only itself, straight to the
/// proposer. At gossip scale (`n >= gossip_threshold`) flush knowledge is
/// *aggregated*: participants merge the sets they receive and re-gossip the
/// union to the proposer plus `fanout` random peers, so the proposer collects
/// coverage from `O(fanout · log n)` merged messages instead of `n`
/// individual unicast acks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushBody {
    /// The round's view epoch.
    pub epoch: u64,
    /// The proposer holding the epoch (the ballot tie-break half).
    pub proposer: NodeId,
    /// Members known (transitively) to have blocked and flushed.
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
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), value);
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
        roundtrip(RepairDigest {
            credit: 128,
            entries: vec![
                RepairRange {
                    origin: NodeId(1),
                    inc: 12,
                    lo: 3,
                    hi: 9,
                },
                RepairRange {
                    origin: NodeId(4),
                    inc: 0,
                    lo: 1,
                    hi: 1,
                },
            ],
        });
        roundtrip(RepairDigest::default());
        roundtrip(RepairPull {
            wants: vec![(NodeId(1), 12, vec![4, 5]), (NodeId(4), 0, vec![1])],
        });
        roundtrip(RepairPushHeader {
            origin: NodeId(1),
            inc: 12,
            seq: 4,
        });
        roundtrip(RepairFloorBody {
            origin: NodeId(1),
            inc: 12,
            floor: 900,
        });
        let mut batched = Message::with_payload(&b"hello"[..]);
        batched.push(&SeqHeader { seq: 2 });
        roundtrip(GossipBatchBody {
            entries: vec![
                (
                    GossipHeader {
                        origin: NodeId(1),
                        inc: 12,
                        seq: 77,
                        ttl: 3,
                    },
                    batched,
                ),
                (
                    GossipHeader {
                        origin: NodeId(4),
                        inc: 0,
                        seq: 1,
                        ttl: 0,
                    },
                    Message::with_payload(&b""[..]),
                ),
            ],
        });
        roundtrip(GossipBatchBody::default());
        roundtrip(LivenessDigest {
            entries: vec![(NodeId(0), 12), (NodeId(7), 3)],
        });
        roundtrip(LivenessDigest::default());
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
    fn adversarial_repair_counts_are_rejected() {
        assert!(RepairDigest::from_bytes(&overstated(&[128], 4)).is_err());
        assert!(RepairPull::from_bytes(&overstated(&[], 3)).is_err());
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
        assert!(RepairPull::from_bytes(&overstated(&[1, 2, 18], 0)).is_err());

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
        assert!(GossipBatchBody::from_bytes(&w.finish()).is_err());
    }

    #[test]
    fn truncated_bodies_decode_to_clean_errors() {
        let digest = RepairDigest {
            credit: 64,
            entries: vec![RepairRange {
                origin: NodeId(3),
                inc: 7,
                lo: 1,
                hi: 4,
            }],
        };
        let pull = RepairPull {
            wants: vec![(NodeId(3), 7, vec![2, 3])],
        };
        let flush = FlushBody {
            epoch: 5,
            proposer: NodeId(1),
            flushed: vec![NodeId(1), NodeId(2)],
        };
        let mut inner = Message::with_payload(&b"chat"[..]);
        inner.push(&SeqHeader { seq: 3 });
        let batch = GossipBatchBody {
            entries: vec![(
                GossipHeader {
                    origin: NodeId(3),
                    inc: 7,
                    seq: 2,
                    ttl: 1,
                },
                inner,
            )],
        };
        let floor = RepairFloorBody {
            origin: NodeId(3),
            inc: 7,
            floor: 41,
        };
        let bodies: Vec<Vec<u8>> = vec![
            digest.to_bytes().to_vec(),
            pull.to_bytes().to_vec(),
            flush.to_bytes().to_vec(),
            batch.to_bytes().to_vec(),
            floor.to_bytes().to_vec(),
        ];
        for (which, bytes) in bodies.iter().enumerate() {
            for cut in 0..bytes.len() {
                let truncated = &bytes[..cut];
                let failed = match which {
                    0 => RepairDigest::from_bytes(truncated).is_err(),
                    1 => RepairPull::from_bytes(truncated).is_err(),
                    2 => FlushBody::from_bytes(truncated).is_err(),
                    3 => GossipBatchBody::from_bytes(truncated).is_err(),
                    _ => RepairFloorBody::from_bytes(truncated).is_err(),
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
        let digest = RepairDigest {
            credit: 32,
            entries: vec![
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
            ],
        };
        let pull = RepairPull {
            wants: vec![(NodeId(1), 2, vec![4, 5, 6]), (NodeId(7), 8, vec![])],
        };
        let flush = FlushBody {
            epoch: 11,
            proposer: NodeId(0),
            flushed: vec![NodeId(0), NodeId(1), NodeId(2)],
        };
        let mut inner = Message::with_payload(&b"chat"[..]);
        inner.push(&SeqHeader { seq: 3 });
        let batch = GossipBatchBody {
            entries: vec![(
                GossipHeader {
                    origin: NodeId(1),
                    inc: 2,
                    seq: 3,
                    ttl: 1,
                },
                inner,
            )],
        };
        let floor = RepairFloorBody {
            origin: NodeId(1),
            inc: 2,
            floor: 9,
        };
        for bytes in [
            digest.to_bytes().to_vec(),
            pull.to_bytes().to_vec(),
            flush.to_bytes().to_vec(),
            batch.to_bytes().to_vec(),
            floor.to_bytes().to_vec(),
        ] {
            for index in 0..bytes.len() {
                for bit in 0..8 {
                    let mut mutated = bytes.clone();
                    mutated[index] ^= 1 << bit;
                    let _ = RepairDigest::from_bytes(&mutated);
                    let _ = RepairPull::from_bytes(&mutated);
                    let _ = FlushBody::from_bytes(&mutated);
                    let _ = GossipBatchBody::from_bytes(&mutated);
                    let _ = RepairFloorBody::from_bytes(&mutated);
                }
            }
        }
    }

    /// The scratch decode agrees with [`Wire::decode`] on every prefix and
    /// every single-bit flip of a digest, and a failure leaves the scratch
    /// empty however full it was.
    #[test]
    fn a_digest_decodes_into_scratch_all_or_nothing() {
        let digest = RepairDigest {
            credit: 32,
            entries: (0..5u32)
                .map(|at| RepairRange {
                    origin: NodeId(at * 3),
                    inc: 1_000 + u64::from(at),
                    lo: 40 + u64::from(at),
                    hi: 44 + u64::from(at) * 2,
                })
                .collect(),
        };
        let bytes = digest.to_bytes().to_vec();
        let mut rows = vec![RepairRange {
            origin: NodeId(9),
            inc: 9,
            lo: 9,
            hi: 9,
        }];
        assert_eq!(RepairDigest::decode_into(&bytes, &mut rows), Ok(32));
        assert_eq!(rows, digest.entries);
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
            rows.clone_from(&digest.entries);
            match (
                RepairDigest::decode_into(&variant, &mut rows),
                RepairDigest::from_bytes(&variant),
            ) {
                (Ok(credit), Ok(decoded)) => {
                    assert_eq!((credit, &rows), (decoded.credit, &decoded.entries));
                }
                (Err(_), Err(_)) => assert!(rows.is_empty(), "a failed decode left rows behind"),
                (scratch, whole) => panic!("{variant:?}: {scratch:?} against {whole:?}"),
            }
        }
    }
}
