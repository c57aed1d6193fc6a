//! Pure codec smoke target for the group-communication headers — the
//! second half of the CI `miri` job. No clocks, no threads, no I/O:
//! encode/decode only, so Miri can check the decoders' memory behaviour
//! against adversarial truncations at acceptable cost.

use bytes::Bytes;
use morpheus_appia::event::{Dest, Sendable};
use morpheus_appia::events::DataEvent;
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::registry::{decode_event, encode_event, EventFactoryRegistry};
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};
use morpheus_groupcomm::events::{
    GossipBatch, GossipRepairDigest, GossipRepairPull, GossipRepairPush, Heartbeat,
};
use morpheus_groupcomm::headers::{
    CausalHeader, FecParityHeader, FlushBody, GossipBatchBody, GossipHeader, LivenessDigest,
    McastHeader, McastMode, NackHeader, OrderHeader, ProbeBody, ProbeKind, PullWants, RepairDigest,
    RepairPull, RepairRange, Rumour, RumourKind, SeqHeader, TotalIdHeader,
};
use morpheus_groupcomm::recovery::{StateChunk, StateChunkHeader, StateRequest, StateRequestBody};
use morpheus_groupcomm::view::View;

mod support;
use support::reference;

#[cfg(miri)]
const TRUNCATION_STRIDE: usize = 7;
#[cfg(not(miri))]
const TRUNCATION_STRIDE: usize = 1;

/// Members of the group-sized tables (the benchmark's large workloads run
/// 200).
#[cfg(miri)]
const GROUP: u32 = 12;
#[cfg(not(miri))]
const GROUP: u32 = 200;

/// The copying reader (`from_bytes`) and the slicing one (`from_shared`,
/// what every packet receive decodes through) must agree: the same value or
/// the same error.
fn readers_agree<T: Wire + PartialEq + std::fmt::Debug>(input: &[u8]) -> bool {
    let copied = T::from_bytes(input);
    let sliced = T::from_shared(&Bytes::from(input.to_vec()));
    assert_eq!(copied, sliced, "readers disagree on {input:?}");
    copied.is_ok()
}

/// `bytes` decodes through `decodes`; every (strided) truncation is a clean
/// error and every (strided) single-bit flip decodes to whatever it decodes
/// to, never a panic.
fn mutations(bytes: &[u8], mut decodes: impl FnMut(&[u8]) -> bool) {
    assert!(decodes(bytes));
    for len in (0..bytes.len()).step_by(TRUNCATION_STRIDE.max(1)) {
        assert!(
            !decodes(&bytes[..len]),
            "truncation to {len} of {} bytes must not decode",
            bytes.len()
        );
    }
    for index in (0..bytes.len()).step_by(TRUNCATION_STRIDE.max(1)) {
        for bit in 0..8 {
            let mut mutated = bytes.to_vec();
            mutated[index] ^= 1 << bit;
            decodes(&mutated);
        }
    }
}

/// The value round-trips, and every mutation decodes the same way through
/// both readers.
fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = value.to_bytes();
    assert_eq!(T::from_bytes(&bytes).unwrap(), value);
    mutations(&bytes, readers_agree::<T>);
}

/// A body its layer decodes into a scratch it keeps: the whole body
/// decodes to `expected`, and every mutation that does not decode leaves
/// the scratch empty, however full it was.
fn sweep<S: Clone + Default + PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    expected: &S,
    decode: impl Fn(&[u8], &mut S) -> Result<(), WireError>,
) {
    let mut scratch = S::default();
    assert_eq!(decode(bytes, &mut scratch), Ok(()));
    assert_eq!(&scratch, expected);
    mutations(bytes, |input| {
        scratch.clone_from(expected);
        let decoded = decode(input, &mut scratch);
        assert!(
            decoded.is_ok() || scratch == S::default(),
            "a failed decode of {input:?} left {scratch:?}"
        );
        decoded.is_ok()
    });
}

fn digest_body(rows: &[RepairRange]) -> Vec<u8> {
    let mut w = WireWriter::new();
    RepairDigest::encode_rows(rows.iter().copied(), &mut w);
    w.finish().to_vec()
}

/// A digest's rows through the gossip session's codec.
fn sweep_digest(rows: &[RepairRange]) {
    sweep(
        &digest_body(rows),
        &rows.to_vec(),
        RepairDigest::decode_into,
    );
}

/// `wants` in the flat scratch a gossip session builds its pulls in.
fn pull_wants(wants: &reference::Wants) -> PullWants {
    let mut scratch = PullWants::default();
    for (origin, inc, seqs) in wants {
        scratch.seqs_mut().extend(seqs);
        scratch.end_stream(*origin, *inc);
    }
    scratch
}

fn pull_body(wants: &reference::Wants) -> Vec<u8> {
    let mut w = WireWriter::new();
    RepairPull::encode_wants(pull_wants(wants).streams(), &mut w);
    w.finish().to_vec()
}

/// A pull's wants through the gossip session's codec.
fn sweep_pull(wants: &reference::Wants) {
    sweep(
        &pull_body(wants),
        &pull_wants(wants),
        RepairPull::decode_into,
    );
}

fn batch_body(entries: &[(GossipHeader, Message)]) -> Vec<u8> {
    let frames: Vec<(GossipHeader, Bytes)> = entries
        .iter()
        .map(|(header, message)| (*header, message.to_bytes()))
        .collect();
    let mut w = WireWriter::new();
    GossipBatchBody::encode_frames(&frames, &mut w);
    w.finish().to_vec()
}

#[test]
fn data_plane_headers_roundtrip() {
    roundtrip(McastHeader {
        mode: McastMode::RelayRequest,
        origin: NodeId(3),
    });
    roundtrip(SeqHeader { seq: u64::MAX });
    roundtrip(NackHeader {
        origin: NodeId(2),
        missing: vec![4, 5, 9, u64::MAX],
    });
    roundtrip(GossipHeader {
        origin: NodeId(1),
        inc: 12,
        seq: 77,
        ttl: 3,
    });
    roundtrip(FecParityHeader {
        covers: vec![10, 11, 12, 13],
        lengths: vec![100, 90, 80, 70],
        parity_len: 512,
    });
}

#[test]
fn repair_headers_roundtrip() {
    sweep_digest(&[RepairRange {
        origin: NodeId(1),
        inc: 12,
        lo: 3,
        hi: 9,
    }]);
    sweep_pull(&vec![(NodeId(1), 12, vec![4, 5]), (NodeId(4), 0, vec![1])]);
    roundtrip(LivenessDigest {
        entries: vec![(NodeId(0), 12), (NodeId(7), 3)],
    });
    roundtrip(ProbeBody::default());
    roundtrip(full_probe());
}

#[test]
fn ordering_and_view_headers_roundtrip() {
    roundtrip(CausalHeader {
        sender_rank: 2,
        clock: vec![5, 0, 7, u64::MAX],
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
    roundtrip(FlushBody {
        epoch: 9,
        proposer: NodeId(1),
        flushed: vec![NodeId(1), NodeId(4)],
    });
}

/// A catch-up's transfer epochs start at 10^9, above every rejoin's.
const CATCHUP_EPOCH: u64 = 1_000_000_000;

#[test]
fn state_transfer_headers_roundtrip() {
    for transfer_epoch in [1, 2, CATCHUP_EPOCH, CATCHUP_EPOCH + 7, u64::MAX] {
        roundtrip(StateRequestBody {
            transfer_epoch,
            missing: vec![],
        });
        roundtrip(StateRequestBody {
            transfer_epoch,
            missing: vec![0, 3, 4, 11, u32::MAX],
        });
        roundtrip(StateChunkHeader {
            transfer_epoch,
            version: 42_000,
            index: 3,
            total: 12,
        });
    }
    roundtrip(StateChunkHeader {
        transfer_epoch: 0,
        version: u64::MAX,
        index: u32::MAX,
        total: u32::MAX,
    });
}

/// The shapes a member-indexed table can take besides the usual ascending
/// one: empty, one row, descending ids, duplicate ids, and values at both
/// ends of the `u64` range next to each other.
fn table_shapes() -> Vec<Vec<(NodeId, u64)>> {
    let rows = |rows: &[(u32, u64)]| rows.iter().map(|(id, v)| (NodeId(*id), *v)).collect();
    vec![
        rows(&[]),
        rows(&[(u32::MAX, u64::MAX)]),
        rows(&[(9, 40), (7, 41), (2, 39), (0, 40)]),
        rows(&[(3, 5), (3, 5), (3, 6), (1, 0), (1, 0)]),
        rows(&[(0, u64::MAX), (1, 0), (2, u64::MAX), (3, 1)]),
    ]
}

/// Every body that carries a table or a list, built over the same rows.
fn roundtrip_every_table_over(rows: &[(NodeId, u64)]) {
    let ids: Vec<NodeId> = rows.iter().map(|(id, _)| *id).collect();
    let values: Vec<u64> = rows.iter().map(|(_, value)| *value).collect();
    roundtrip(LivenessDigest {
        entries: rows.to_vec(),
    });
    let digest: Vec<RepairRange> = rows
        .iter()
        .map(|(origin, value)| RepairRange {
            origin: *origin,
            inc: *value,
            lo: value / 2,
            hi: *value,
        })
        .collect();
    sweep_digest(&digest);
    // A pull names a few streams (`repair_pull_budget` bounds it), never a
    // group's worth.
    sweep_pull(
        &rows
            .iter()
            .take(24)
            .map(|(origin, value)| (*origin, *value, vec![*value, 0, u64::MAX, 7, 7]))
            .collect(),
    );
    roundtrip(NackHeader {
        origin: ids.first().copied().unwrap_or(NodeId(0)),
        missing: values.clone(),
    });
    roundtrip(FlushBody {
        epoch: values.first().copied().unwrap_or(0),
        proposer: ids.last().copied().unwrap_or(NodeId(0)),
        flushed: ids.clone(),
    });
    // A view keeps its members sorted and distinct; the codec is handed
    // (and hands back) that form.
    roundtrip(View::new(values.last().copied().unwrap_or(0), ids.clone()));
    roundtrip(StateRequestBody {
        transfer_epoch: values.first().copied().unwrap_or(0),
        missing: ids.iter().map(|id| id.0).collect(),
    });
}

#[test]
fn tables_roundtrip_in_every_shape() {
    for rows in table_shapes() {
        roundtrip_every_table_over(&rows);
    }
    // Per-message counters at the top of their range.
    roundtrip(GossipHeader {
        origin: NodeId(u32::MAX),
        inc: u64::MAX,
        seq: u64::MAX,
        ttl: u32::MAX,
    });
}

/// A group-sized table as a quiet group gossips it: ids ascending by one,
/// every value within `spread` of `around`.
fn group_table(around: u64, spread: u64) -> Vec<(NodeId, u64)> {
    (0..GROUP)
        .map(|id| {
            let offset = u64::from(id) * 7 % (2 * spread + 1);
            (NodeId(id), around - spread + offset)
        })
        .collect()
}

/// The scratch decoder of a member-indexed table against the allocating
/// one: `get_id_table_into`, which reads the whole input, yields the rows
/// `get_id_table` reads when they are the whole input, or the same error;
/// and on an error it leaves its buffer empty, though a stale row was in it.
fn id_table_decoders_agree(input: &[u8]) -> bool {
    let mut reader = WireReader::new(input);
    let fresh = reader
        .get_id_table::<NodeId>()
        .and_then(|rows| match reader.remaining() {
            0 => Ok(rows),
            _ => Err(WireError::Malformed("trailing bytes")),
        });
    let mut buffer = vec![(NodeId(7), 7)];
    let into = WireReader::new(input).get_id_table_into(&mut buffer);
    assert_eq!(into, fresh.as_ref().map(|_| ()).map_err(Clone::clone));
    match fresh {
        Ok(rows) => assert_eq!(buffer, rows),
        Err(_) => assert!(buffer.is_empty(), "a failed decode left {buffer:?}"),
    }
    into.is_ok()
}

/// Every truncation and every single-bit flip of a group-sized encoding
/// decodes to a value or an error — through both readers alike, and
/// through the scratch decoders as through the allocating ones.
#[test]
fn group_sized_tables_survive_truncation_and_bit_flips() {
    let rows = group_table(100_000, 2_000);
    roundtrip_every_table_over(&rows);
    let bytes = LivenessDigest { entries: rows }.to_bytes();
    mutations(&bytes, id_table_decoders_agree);
}

/// The bytes this codec exists for, pinned where `cargo test` sees them.
#[test]
fn control_plane_tables_fit_their_byte_budgets() {
    let members = GROUP as usize;

    // Counters within a few ticks of each other.
    let liveness = LivenessDigest {
        entries: group_table(7_200, 8),
    };
    assert!(liveness.to_bytes().len() <= 2 * members + 4);

    // A probe does not grow with the group: a bare ping is four bytes; a
    // relayed ack with hours-old sequence and incarnation numbers at a
    // 500 ms period ten, and each rumour about one of the group five more.
    assert_eq!(ProbeBody::default().to_bytes().len(), 4);
    assert!(full_probe().to_bytes().len() <= 10 + 6 * 5);

    // One repair-log stream per member: incarnations (boot times) seconds
    // apart, a handful of messages logged in each.
    let repair: Vec<RepairRange> = group_table(120_000, 2_000)
        .into_iter()
        .map(|(origin, inc)| RepairRange {
            origin,
            inc,
            lo: 40 + inc % 9,
            hi: 44 + inc % 9 + inc % 5,
        })
        .collect();
    assert!(digest_body(&repair).len() <= 8 * members);

    // What rides on every gossip data message.
    let header = GossipHeader {
        origin: NodeId(199),
        inc: (1 << 21) - 1,
        seq: (1 << 14) - 1,
        ttl: 12,
    };
    assert!(header.to_bytes().len() <= 8);
}

fn batch_entries() -> Vec<(GossipHeader, Message)> {
    (1..=3u64)
        .map(|seq| {
            let mut message = Message::with_payload(vec![b'm'; 8 * seq as usize]);
            message.push(&SeqHeader { seq });
            message.push(&format!("h{seq}"));
            let header = GossipHeader {
                origin: NodeId(4),
                inc: 12,
                seq,
                ttl: 2,
            };
            (header, message)
        })
        .collect()
}

/// The one header whose fields are messages: decoded from a packet, those
/// are slices of it.
#[test]
fn gossip_batches_roundtrip() {
    let decode = |body: &[u8], entries: &mut Vec<(GossipHeader, Message)>| {
        GossipBatchBody::decode_into(&Bytes::copy_from_slice(body), entries)
    };
    let entries = batch_entries();
    sweep(&batch_body(&entries), &entries, decode);
    sweep(&batch_body(&[]), &Vec::new(), decode);
}

/// The outboxes hold messages in wire form and a flush writes them as they
/// are: that must be the encoding of the same batch held as messages, each
/// entry its gossip header and then the message.
#[test]
fn batches_of_frames_encode_like_batches_of_messages() {
    let entries = batch_entries();
    let mut w = WireWriter::new();
    w.put_varint(entries.len() as u64);
    for (header, message) in &entries {
        header.encode(&mut w);
        message.encode(&mut w);
    }
    assert_eq!(batch_body(&entries), w.finish().to_vec());
}

/// A pull at the size a gossip session sends: `REPAIR_WINDOW` (64) wants
/// over a few streams.
fn window_pull() -> reference::Wants {
    (0..4u32)
        .map(|at| {
            let seqs = (0..16).map(|seq| 40 + u64::from(at) + 3 * seq).collect();
            (NodeId(GROUP - 40 + 9 * at), 120_000 + u64::from(at), seqs)
        })
        .collect()
}

/// The session's pull codec — wants built and decoded in a flat scratch —
/// against the reference codec: the same bytes out, and on every (strided)
/// truncation and single-bit flip the same values or the same error, with
/// nothing left in the scratch after an error.
#[test]
fn pulls_in_scratch_agree_with_the_reference_codec() {
    let pull = window_pull();
    let bytes = pull_body(&pull);
    assert_eq!(bytes, reference::encode_pull(&pull));

    let mut wants = PullWants::default();
    mutations(&bytes, |input| {
        let reference = reference::decode_pull(input);
        let scratch = RepairPull::decode_into(input, &mut wants).map(|()| {
            let streams = wants.streams();
            streams
                .map(|(origin, inc, seqs)| (origin, inc, seqs.to_vec()))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            scratch, reference,
            "scratch and reference disagree on {input:?}"
        );
        if scratch.is_err() {
            assert_eq!(wants, PullWants::default());
        }
        scratch.is_ok()
    });
}

/// Unknown tag bytes must surface as decode errors, not panics.
#[test]
fn unknown_mode_tag_is_rejected() {
    let bytes = McastHeader {
        mode: McastMode::Direct,
        origin: NodeId(1),
    }
    .to_bytes();
    let mut corrupted = bytes.to_vec();
    corrupted[0] = 0xFF;
    assert!(McastHeader::from_bytes(&corrupted).is_err());
}

/// A probe at its largest: a relayed ack in the small hours of a long run,
/// carrying the most rumours a packet holds.
fn full_probe() -> ProbeBody {
    let kinds = [RumourKind::Alive, RumourKind::Suspect, RumourKind::Confirm];
    ProbeBody {
        kind: ProbeKind::Ack,
        seq: 20_000,
        incarnation: 20_000,
        relay: Some(NodeId(GROUP - 1)),
        rumours: (0..6)
            .map(|at| Rumour {
                kind: kinds[at % 3],
                node: NodeId(GROUP - 1 - at as u32),
                incarnation: 20_000 + at as u64,
            })
            .collect(),
    }
}

/// Sample events of the packet kinds the large workloads send most, and of
/// the recovery layer's snapshot transfer, each carrying the header its
/// layer pushes.
fn sample_events() -> Vec<Box<dyn Sendable>> {
    let to = Dest::Node(NodeId(1));
    let mut batch = Message::new();
    batch.push_header(batch_body(&batch_entries()));
    let mut ping = Message::new();
    ping.push(&ProbeBody::default());
    let mut ack = Message::new();
    ack.push(&full_probe());
    let mut repair = Message::new();
    repair.push_header(digest_body(&[RepairRange {
        origin: NodeId(3),
        inc: 120_000,
        lo: 40,
        hi: 52,
    }]));
    let mut pull = Message::new();
    pull.push_header(pull_body(&window_pull()));
    // A pull's answer: logged messages under `ttl` 0 headers.
    let answered: Vec<_> = batch_entries()
        .into_iter()
        .map(|(header, message)| (GossipHeader { ttl: 0, ..header }, message))
        .collect();
    let mut answer = Message::new();
    answer.push_header(batch_body(&answered));
    let mut data = Message::with_payload(vec![b'd'; 40]);
    data.push(&SeqHeader { seq: 9 });
    let mut state_request = Message::new();
    state_request.push(&StateRequestBody {
        transfer_epoch: CATCHUP_EPOCH + 3,
        missing: vec![8, 9, 13],
    });
    let mut state_chunk = Message::with_payload(vec![b's'; 64]);
    state_chunk.push(&StateChunkHeader {
        transfer_epoch: CATCHUP_EPOCH + 3,
        version: 42_000,
        index: 13,
        total: 14,
    });
    vec![
        Box::new(GossipBatch::new(NodeId(199), to.clone(), batch)),
        Box::new(Heartbeat::new(NodeId(199), to.clone(), ping)),
        Box::new(Heartbeat::new(NodeId(199), to.clone(), ack)),
        Box::new(GossipRepairDigest::new(NodeId(4), to.clone(), repair)),
        Box::new(GossipRepairPull::new(NodeId(4), to.clone(), pull)),
        Box::new(GossipRepairPush::new(NodeId(4), to.clone(), answer)),
        Box::new(DataEvent::new(NodeId(0), to.clone(), data)),
        Box::new(StateRequest::new(NodeId(2), to.clone(), state_request)),
        Box::new(StateChunk::new(NodeId(0), to, state_chunk)),
    ]
}

fn sample_factories() -> EventFactoryRegistry {
    let mut factories = EventFactoryRegistry::new();
    DataEvent::register(&mut factories);
    GossipBatch::register(&mut factories);
    Heartbeat::register(&mut factories);
    GossipRepairDigest::register(&mut factories);
    GossipRepairPull::register(&mut factories);
    GossipRepairPush::register(&mut factories);
    StateRequest::register(&mut factories);
    StateChunk::register(&mut factories);
    factories
}

/// Decodes a whole packet and, if that succeeds, the header its layer
/// would pop: either step may fail, neither may panic.
fn decode_packet(factories: &EventFactoryRegistry, packet: &Bytes) -> bool {
    let Ok(event) = decode_event(factories, packet) else {
        return false;
    };
    let Some(sendable) = event.as_sendable() else {
        return false;
    };
    let mut message = sendable.message().clone();
    let Some(header) = message.pop_header() else {
        return true;
    };
    match sendable.wire_name() {
        "GossipBatch" | "GossipRepairPush" => {
            GossipBatchBody::decode_into(&header, &mut Vec::new()).is_ok()
        }
        "Heartbeat" => ProbeBody::decode_into(&header, &mut ProbeBody::default()).is_ok(),
        "GossipRepairDigest" => RepairDigest::decode_into(&header, &mut Vec::new()).is_ok(),
        "GossipRepairPull" => RepairPull::decode_into(&header, &mut PullWants::default()).is_ok(),
        "StateRequest" => StateRequestBody::from_shared(&header).is_ok(),
        "StateChunk" => StateChunkHeader::from_shared(&header).is_ok(),
        _ => SeqHeader::from_shared(&header).is_ok(),
    }
}

/// Whole packets — event tag, send header, message framing and the layer
/// header inside — round-trip; every truncation is an error and every
/// single-bit flip decodes to a value or an error, never a panic.
#[test]
fn whole_events_survive_truncation_and_bit_flips() {
    let factories = sample_factories();
    for event in sample_events() {
        let packet = encode_event(event.as_ref());
        let decoded = decode_event(&factories, &packet).unwrap();
        let decoded = decoded.as_sendable().unwrap();
        assert_eq!(decoded.wire_name(), event.wire_name());
        assert_eq!(decoded.header().source, event.header().source);
        assert_eq!(decoded.header().class, event.header().class);
        assert_eq!(decoded.message(), event.message());
        assert!(decode_packet(&factories, &packet));

        for len in (0..packet.len()).step_by(TRUNCATION_STRIDE.max(1)) {
            assert!(
                decode_event(&factories, &packet.slice(..len)).is_err(),
                "{}: truncation to {len} of {} bytes must not decode",
                event.wire_name(),
                packet.len()
            );
        }
        for index in (0..packet.len()).step_by(TRUNCATION_STRIDE.max(1)) {
            for bit in 0..8 {
                let mut mutated = packet.to_vec();
                mutated[index] ^= 1 << bit;
                decode_packet(&factories, &Bytes::from(mutated));
            }
        }
    }
}

/// The packet frame's own bytes — what a packet costs beyond its layer
/// headers and payload — pinned where `cargo test` sees them: a 2-byte
/// event tag, a varint source, the class byte and a varint before the
/// header count, each header and the payload.
#[test]
fn the_packet_frame_fits_its_byte_budget() {
    for event in sample_events() {
        let packet = encode_event(event.as_ref());
        let frame = packet.len() - event.message().size();
        // With the name string and fixed-width `u32` fields:
        // 4 + name + 4 + 1 + 4 + 4 per header + 4, i.e. 30 bytes and up.
        assert!(
            frame <= 9,
            "{}: {frame} bytes of framing around {} bytes",
            event.wire_name(),
            event.message().size()
        );
    }
}
