//! Pure codec smoke target for the context plane's wire bodies — the third
//! leg of the CI `miri` job, beside the `appia` and `groupcomm` ones. No
//! clocks, no threads, no simulator: encode/decode only.

use std::collections::BTreeMap;

use morpheus_appia::event::Dest;
use morpheus_appia::message::Message;
use morpheus_appia::platform::{DeviceClass, NodeId};
use morpheus_appia::registry::encode_event;
use morpheus_appia::wire::{narrow, Wire, WireError, WireReader, WireWriter};
use morpheus_cocaditem::{
    BatchBody, ContextDigest, ContextKey, ContextPull, ContextSnapshot, ContextValue, StoreSummary,
};

#[cfg(miri)]
const STRIDE: usize = 7;
#[cfg(not(miri))]
const STRIDE: usize = 1;

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
    let mut shared = WireWriter::new();
    shared.put_raw(input);
    let copied = T::from_bytes(input);
    assert_eq!(
        copied,
        T::from_shared(&shared.finish()),
        "readers disagree on {input:?}"
    );
    copied.is_ok()
}

/// `bytes` decodes through `decodes`; every (strided) truncation is a clean
/// error and every (strided) single-bit flip decodes to a value or an
/// error, never a panic.
fn mutations(bytes: &[u8], mut decodes: impl FnMut(&[u8]) -> bool) {
    assert!(decodes(bytes));
    for len in (0..bytes.len()).step_by(STRIDE) {
        assert!(
            !decodes(&bytes[..len]),
            "truncation to {len} of {} bytes must not decode",
            bytes.len()
        );
    }
    for index in (0..bytes.len()).step_by(STRIDE) {
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

/// A body the layer decodes into a scratch it keeps: the whole body
/// decodes to `expected`, and every mutation that does not decode leaves
/// the scratch empty, however full it was.
fn sweep<T: Clone + PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    expected: &[T],
    decode: impl Fn(&[u8], &mut Vec<T>) -> Result<(), WireError>,
) {
    let mut scratch = Vec::new();
    assert_eq!(decode(bytes, &mut scratch), Ok(()));
    assert_eq!(scratch, expected);
    mutations(bytes, |input| {
        scratch.clear();
        scratch.extend_from_slice(expected);
        let decoded = decode(input, &mut scratch);
        assert!(decoded.is_ok() || scratch.is_empty(), "{input:?} left rows");
        decoded.is_ok()
    });
}

fn rows(rows: &[(u32, u64)]) -> Vec<(NodeId, u64)> {
    rows.iter().map(|(id, v)| (NodeId(*id), *v)).collect()
}

/// A [`ContextPull`]'s body: the rows as one member-indexed table.
fn pull_body(rows: &[(NodeId, u64)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_id_rows(rows.iter().copied());
    w.finish().to_vec()
}

/// The layer's decode of a [`ContextPull`]'s body.
fn decode_pull(body: &[u8], rows: &mut Vec<(NodeId, u64)>) -> Result<(), WireError> {
    WireReader::new(body).get_id_table_into(rows)
}

/// A [`morpheus_cocaditem::ContextBatch`]'s body.
fn batch_body(snapshots: &[ContextSnapshot]) -> Vec<u8> {
    let mut w = WireWriter::new();
    BatchBody::encode_from(snapshots.len(), snapshots.iter(), &mut w);
    w.finish().to_vec()
}

/// A store's rows as a pull carries them in a settled group: ids ascending
/// by one, versions (capture times) within `spread` ms of `around`.
fn group_digest(around: u64, spread: u64) -> Vec<(NodeId, u64)> {
    (0..GROUP)
        .map(|id| {
            let offset = u64::from(id) * 131 % (2 * spread + 1);
            (NodeId(id), around - spread + offset)
        })
        .collect()
}

#[test]
fn digests_and_pulls_roundtrip_in_every_shape() {
    // A digest is a summary: empty, one row, and both fields at their ends.
    for (rows, hash) in [(0, 0), (1, 0x9E37_79B9_7F4A_7C15), (u64::MAX, u64::MAX)] {
        roundtrip(StoreSummary { rows, hash });
    }
    // A pull is rows: empty, one row, descending ids, duplicate ids, and
    // versions at both ends of the range next to each other.
    for entries in [
        rows(&[]),
        rows(&[(u32::MAX, u64::MAX)]),
        rows(&[(9, 40), (7, 41), (2, 39), (0, 40)]),
        rows(&[(3, 5), (3, 5), (3, 6), (1, 0), (1, 0)]),
        rows(&[(0, u64::MAX), (1, 0), (2, u64::MAX), (3, 1)]),
    ] {
        sweep(&pull_body(&entries), &entries, decode_pull);
    }
}

#[test]
fn group_sized_bodies_survive_truncation_and_bit_flips() {
    let rows = group_digest(30_000, 2_000);
    sweep(&pull_body(&rows), &rows, decode_pull);
    roundtrip(StoreSummary {
        rows: u64::from(GROUP),
        hash: 0x0123_4567_89AB_CDEF,
    });
}

#[test]
fn batches_roundtrip_and_reject_overstated_counts() {
    let snapshot = |node: u32| {
        let mut snapshot = ContextSnapshot::new(NodeId(node), 1_000 + u64::from(node));
        // A flag, not a number: a bit flipped into a NaN would make the two
        // readers' (equal) results compare unequal.
        snapshot.set(ContextKey::DeviceClass, ContextValue::Flag(node > 3));
        snapshot
    };
    sweep(&batch_body(&[]), &[], BatchBody::decode_into);
    let snapshots: Vec<_> = (0..GROUP.min(16)).map(snapshot).collect();
    sweep(&batch_body(&snapshots), &snapshots, BatchBody::decode_into);

    // One snapshot's bytes behind a count of 2^32 − 1.
    let mut w = WireWriter::new();
    w.put_varint(u64::from(u32::MAX));
    snapshot(1).encode(&mut w);
    let mut batch = Vec::new();
    assert!(BatchBody::decode_into(&w.finish(), &mut batch).is_err());
    // Empty snapshots at the smallest frame a snapshot has: a count of
    // `remaining / MIN_ENCODED_BYTES` decodes, one more is rejected.
    let empty = ContextSnapshot::new(NodeId(1), 1).to_bytes();
    assert_eq!(empty.len(), ContextSnapshot::MIN_ENCODED_BYTES);
    for (count, decodes) in [(4, true), (5, false)] {
        let mut w = WireWriter::new();
        w.put_varint(count);
        for _ in 0..4 {
            w.put_raw(&empty);
        }
        let decoded = BatchBody::decode_into(&w.finish(), &mut batch);
        assert_eq!(decoded.is_ok(), decodes, "{count}");
    }
    for body in [&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1][..], &[0x05, 1, 1]] {
        assert!(decode_pull(body, &mut Vec::new()).is_err());
        assert!(StoreSummary::from_bytes(body).is_err());
    }
}

/// The compact snapshot frame: varint node, capture time and count. Wide
/// node ids (at and past 2^28, where a varint takes five bytes) and capture
/// times (past 2^35) round-trip; a node id past `u32::MAX`, every
/// truncation, and a count above `remaining / 2` (an entry is at least a
/// key byte and a value-tag byte) are rejected.
#[test]
fn compact_snapshots_roundtrip_at_wide_ids_and_reject_hostile_frames() {
    let snapshot = |node: u32, at: u64| {
        let mut snapshot = ContextSnapshot::new(NodeId(node), at);
        snapshot.set(ContextKey::DeviceClass, ContextValue::Flag(true));
        snapshot.set(ContextKey::ErrorRate, ContextValue::Flag(false));
        snapshot
    };
    for (node, at) in [
        (0, 0),
        (127, 127),
        (1 << 28, 1 << 35),
        ((1 << 28) + 5, (1 << 35) + 9),
        (u32::MAX, u64::MAX),
    ] {
        roundtrip(snapshot(node, at));
    }
    // A shared-key snapshot as published: node, time and count take one
    // byte each at small values, so the frame is the entries plus three.
    let mut published = ContextSnapshot::new(NodeId(3), 100);
    published.set(ContextKey::ErrorRate, ContextValue::Number(0.125));
    let bytes = published.to_bytes();
    assert_eq!(bytes.len(), 3 + 1 + 1 + 8);
    assert_eq!(ContextSnapshot::from_bytes(&bytes).unwrap(), published);

    // A node id one past `u32::MAX`.
    let mut w = WireWriter::new();
    w.put_varint(u64::from(u32::MAX) + 1);
    w.put_varint(1);
    w.put_varint(0);
    assert!(ContextSnapshot::from_bytes(&w.finish()).is_err());
    // Every truncation of a wide snapshot, at every byte.
    let wide = snapshot(u32::MAX, u64::MAX).to_bytes();
    for len in 0..wide.len() {
        assert!(ContextSnapshot::from_bytes(&wide[..len]).is_err(), "{len}");
    }
    // Counts above `remaining / 2` over four valid-looking entry bytes (a
    // device key and a flag tag, twice).
    for count in [3, u64::from(u32::MAX), u64::MAX] {
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(count);
        w.put_raw(&[0, 1, 0, 1]);
        assert!(ContextSnapshot::from_bytes(&w.finish()).is_err(), "{count}");
    }
}

/// The snapshot codec as it was when a snapshot's values were a
/// `BTreeMap`: the reference the slot-based [`ContextSnapshot`] is held to.
#[derive(Debug)]
struct MapSnapshot {
    node: NodeId,
    captured_at_ms: u64,
    values: BTreeMap<ContextKey, ContextValue>,
}

impl Wire for MapSnapshot {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.node.into());
        w.put_varint(self.captured_at_ms);
        w.put_varint(self.values.len() as u64);
        for (key, value) in &self.values {
            key.encode(w);
            value.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let node = NodeId(narrow(r.get_varint()?)?);
        let captured_at_ms = r.get_varint()?;
        let count = r.get_count(2)?;
        let mut values = BTreeMap::new();
        for _ in 0..count {
            let key = ContextKey::decode(r)?;
            let value = ContextValue::decode(r)?;
            values.insert(key, value);
        }
        Ok(Self {
            node,
            captured_at_ms,
            values,
        })
    }
}

/// Both codecs decode `input` alike: the same error, or values that encode
/// to the same bytes (bytes, not `==`: a flipped bit can make a NaN) and
/// read the same through every accessor.
fn codecs_agree(input: &[u8]) -> bool {
    let slots = ContextSnapshot::from_bytes(input);
    let map = MapSnapshot::from_bytes(input);
    match (&slots, &map) {
        (Ok(slots), Ok(map)) => {
            assert_eq!(slots.to_bytes(), map.to_bytes(), "{input:?}");
            assert_eq!(
                (slots.node, slots.captured_at_ms),
                (map.node, map.captured_at_ms)
            );
            for key in ContextKey::ALL {
                let (ours, theirs) = (slots.get(key), map.values.get(&key));
                assert_eq!(ours.map(encoded), theirs.map(encoded), "{key:?}");
            }
            true
        }
        (Err(ours), Err(theirs)) => {
            assert_eq!(ours, theirs, "{input:?}");
            false
        }
        _ => panic!("codecs disagree on {input:?}: {slots:?} against {map:?}"),
    }
}

fn encoded(value: &ContextValue) -> Vec<u8> {
    value.to_bytes().to_vec()
}

/// A value of every kind, and of the wrong kind for most keys.
fn value_for(key: ContextKey, variant: usize) -> ContextValue {
    let devices = [
        DeviceClass::FixedPc,
        DeviceClass::Laptop,
        DeviceClass::MobilePda,
        DeviceClass::MobilePhone,
    ];
    match variant % 3 {
        0 => ContextValue::Number(0.125 * variant as f64 - 0.5),
        1 => ContextValue::Flag(variant.is_multiple_of(2)),
        _ => ContextValue::Device(devices[(variant + key as usize) % devices.len()]),
    }
}

/// The slot-based codec against the map reference, on every subset of the
/// keys: the same bytes on encode, and the same value or the same error on
/// the frame, every truncation of it and every single-bit flip of it.
#[test]
fn snapshots_encode_and_decode_exactly_as_the_map_codec_did() {
    for subset in (0..1usize << ContextKey::ALL.len()).step_by(STRIDE) {
        let mut slots = ContextSnapshot::new(NodeId(subset as u32 * 977), 1 << (subset % 40));
        let mut map = MapSnapshot {
            node: slots.node,
            captured_at_ms: slots.captured_at_ms,
            values: BTreeMap::new(),
        };
        // Set in reverse key order: the encoding must not depend on it.
        for (bit, key) in ContextKey::ALL.into_iter().enumerate().rev() {
            if subset & (1 << bit) != 0 {
                let value = value_for(key, subset + bit);
                slots.set(key, value.clone());
                map.values.insert(key, value);
            }
        }
        let bytes = slots.to_bytes();
        assert_eq!(bytes, map.to_bytes(), "subset {subset:#08b}");
        assert!(codecs_agree(&bytes));
        for len in 0..bytes.len() {
            assert!(!codecs_agree(&bytes[..len]), "truncation to {len}");
        }
        for index in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.to_vec();
                mutated[index] ^= 1 << bit;
                codecs_agree(&mutated);
            }
        }
    }
}

/// A hostile frame repeats a key and puts a value of the wrong kind under
/// another. The last value of a repeated key wins, a wrong-kind value is
/// kept and reads as `None`, and the snapshot re-encodes one entry per key
/// in key order — all as the map codec did.
#[test]
fn a_repeated_key_keeps_its_last_value_and_a_wrong_kind_reads_as_none() {
    let mut w = WireWriter::new();
    w.put_varint(7);
    w.put_varint(500);
    w.put_varint(4);
    for (key, value) in [
        (ContextKey::ErrorRate, ContextValue::Number(0.1)),
        (ContextKey::DeviceClass, ContextValue::Flag(true)),
        (ContextKey::ErrorRate, ContextValue::Number(0.5)),
        (
            ContextKey::BatteryLevel,
            ContextValue::Device(DeviceClass::Laptop),
        ),
    ] {
        key.encode(&mut w);
        value.encode(&mut w);
    }
    let frame = w.finish();
    assert!(codecs_agree(&frame));

    let snapshot = ContextSnapshot::from_bytes(&frame).unwrap();
    assert_eq!(snapshot.error_rate(), Some(0.5), "the last value wins");
    assert_eq!(snapshot.device_class(), None);
    assert_eq!(
        snapshot.get(ContextKey::DeviceClass),
        Some(&ContextValue::Flag(true))
    );
    assert_eq!(snapshot.battery_level(), None);
    let keys: Vec<ContextKey> = snapshot.entries().map(|(key, _)| key).collect();
    assert_eq!(
        keys,
        [
            ContextKey::DeviceClass,
            ContextKey::BatteryLevel,
            ContextKey::ErrorRate
        ]
    );
    // The first error rate is gone: a key byte, a value tag and an `f64`.
    assert_eq!(snapshot.to_bytes().len(), frame.len() - (1 + 1 + 8));
}

/// The context plane's bytes, pinned where `cargo test` sees them: a
/// group-sized pull whose versions sit within ±2,000 ms costs at most
/// three bytes a member (twelve before the compact codec).
#[test]
fn a_group_digest_fits_its_byte_budget() {
    let body = pull_body(&group_digest(30_000, 2_000));
    assert!(body.len() <= 3 * GROUP as usize + 4);
}

/// The whole pull packet: the body plus at most 9 bytes of frame (the
/// event tag, a varint source, the class byte and three varint lengths) —
/// 34 with the name string and fixed-width `u32` fields it replaced.
#[test]
fn a_group_digest_packet_fits_its_byte_budget() {
    let rows = pull_body(&group_digest(30_000, 2_000));
    let body = rows.len();
    let mut message = Message::new();
    message.push_header(rows);
    let packet = encode_event(&ContextPull::new(NodeId(GROUP - 1), Dest::Group, message));
    assert!(packet.len() <= body + 9);
}

/// What a settled store gossips each interval: one summary packet of at
/// most 20 bytes, at any group size up to 16,383 members — where a digest
/// of the whole table cost two to three bytes a member.
#[test]
fn a_summary_packet_fits_twenty_bytes_at_any_group_size() {
    for n in [1u32, GROUP, 16_383] {
        let mut message = Message::new();
        message.push(&StoreSummary {
            rows: u64::from(n),
            hash: u64::MAX,
        });
        let packet = encode_event(&ContextDigest::new(NodeId(n - 1), Dest::Group, message));
        assert!(packet.len() <= 20, "{} bytes at n = {n}", packet.len());
    }
}
