//! Pure codec smoke target for the wire format, kept free of clocks,
//! threads and file I/O so it runs under `cargo miri test` unmodified —
//! the CI `miri` job drives exactly this test. Under Miri the sweep sizes
//! shrink (interpretation is ~1000× slower than native), but every code
//! path is still exercised at least once.

use bytes::Bytes;
use morpheus_appia::message::Message;
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};

#[cfg(miri)]
const SWEEP_BUFFERS: usize = 8;
#[cfg(not(miri))]
const SWEEP_BUFFERS: usize = 256;

/// Bit flips tried per byte by the differential sweep.
#[cfg(miri)]
const FLIPPED_BITS: [u8; 1] = [3];
#[cfg(not(miri))]
const FLIPPED_BITS: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Deterministic pseudo-random byte stream (no OS entropy: replays
/// identically everywhere, including under Miri).
struct Lcg(u64);

impl Lcg {
    fn next_byte(&mut self) -> u8 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 56) as u8
    }
}

#[test]
fn scalars_roundtrip() {
    let mut w = WireWriter::new();
    w.put_u8(0xAB);
    w.put_bool(false);
    w.put_u16(u16::MAX);
    w.put_u32(1);
    w.put_u64(u64::MAX);
    w.put_i64(i64::MIN);
    w.put_f64(-0.25);
    let bytes = w.finish();

    let mut r = WireReader::new(&bytes);
    assert_eq!(r.get_u8().unwrap(), 0xAB);
    assert!(!r.get_bool().unwrap());
    assert_eq!(r.get_u16().unwrap(), u16::MAX);
    assert_eq!(r.get_u32().unwrap(), 1);
    assert_eq!(r.get_u64().unwrap(), u64::MAX);
    assert_eq!(r.get_i64().unwrap(), i64::MIN);
    assert_eq!(r.get_f64().unwrap(), -0.25);
    assert_eq!(r.remaining(), 0);
}

#[test]
fn compound_values_roundtrip() {
    let value = vec!["".to_string(), "héllo".to_string(), "x".repeat(300)];
    let decoded = Vec::<String>::from_bytes(&value.to_bytes()).unwrap();
    assert_eq!(decoded, value);

    let mut w = WireWriter::new();
    w.put_bytes(&[0, 255, 1, 254]);
    w.put_u32_list(&[7; 9]);
    w.put_u64_list(&[u64::MAX, 0]);
    let bytes = w.finish();
    let mut r = WireReader::new(&bytes);
    assert_eq!(r.get_bytes().unwrap().as_ref(), &[0, 255, 1, 254]);
    assert_eq!(r.get_u32_list().unwrap(), vec![7; 9]);
    assert_eq!(r.get_u64_list().unwrap(), vec![u64::MAX, 0]);
}

/// Every truncation of a valid encoding must decode to a clean error —
/// never a panic, never an out-of-bounds read (the property Miri checks at
/// the memory-model level).
#[test]
fn truncated_input_errors_cleanly() {
    let value = vec!["abc".to_string(), "defgh".to_string()];
    let bytes = value.to_bytes();
    for len in 0..bytes.len() {
        let err = Vec::<String>::from_bytes(&bytes[..len]);
        assert!(err.is_err(), "truncation to {len} bytes must not decode");
    }
}

/// Pseudo-random garbage buffers must never panic any reader primitive.
#[test]
fn garbage_input_never_panics() {
    let mut rng = Lcg(0x5EED_0001);
    for round in 0..SWEEP_BUFFERS {
        let len = round % 40;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_byte()).collect();

        let mut r = WireReader::new(&buf);
        let _ = r.get_u32();
        let _ = r.get_str();
        let _ = r.get_bytes();
        let _ = r.get_u64_list();

        let _ = Vec::<String>::from_bytes(&buf);
        let _ = u64::from_bytes(&buf);
        let _ = String::from_bytes(&buf);
    }
}

/// Absurd length prefixes are rejected by the sanity limit instead of
/// triggering a huge allocation.
#[test]
fn hostile_length_prefix_is_rejected() {
    let mut w = WireWriter::new();
    w.put_varint(u64::from(u32::MAX));
    let bytes = w.finish();
    let mut r = WireReader::new(&bytes);
    assert!(matches!(
        r.get_bytes().unwrap_err(),
        WireError::LengthOutOfRange(_)
    ));
}

/// One value of every field kind the reader has a primitive for.
#[derive(Debug, PartialEq)]
struct Mixed {
    tag: u8,
    blob: Bytes,
    text: String,
    words: Vec<u32>,
    longs: Vec<u64>,
    tail: Bytes,
}

impl Wire for Mixed {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.tag);
        w.put_bytes(&self.blob);
        w.put_str(&self.text);
        w.put_u32_list(&self.words);
        w.put_u64_list(&self.longs);
        w.put_bytes(&self.tail);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            tag: r.get_u8()?,
            blob: r.get_bytes()?,
            text: r.get_str()?,
            words: r.get_u32_list()?,
            longs: r.get_u64_list()?,
            tail: r.get_bytes()?,
        })
    }
}

/// The copying reader (`WireReader::new`, behind `from_bytes`) and the
/// slicing one (`WireReader::over`, behind `from_shared` and every packet
/// receive) must be indistinguishable from outside: the same value or the
/// same error, never a panic.
fn readers_agree<T: Wire + PartialEq + std::fmt::Debug>(input: &[u8]) {
    let copied = T::from_bytes(input);
    let sliced = T::from_shared(&Bytes::from(input.to_vec()));
    assert_eq!(copied, sliced, "readers disagree on {input:?}");
}

/// [`readers_agree`] on a valid encoding, every truncation of it and every
/// single-bit flip.
fn readers_agree_on_every_mutation<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = value.to_bytes().to_vec();
    assert_eq!(
        T::from_shared(&Bytes::from(bytes.clone())).as_ref(),
        Ok(value)
    );
    for len in 0..=bytes.len() {
        readers_agree::<T>(&bytes[..len]);
    }
    for index in 0..bytes.len() {
        for bit in FLIPPED_BITS {
            let mut mutated = bytes.clone();
            mutated[index] ^= 1 << bit;
            readers_agree::<T>(&mutated);
        }
    }
}

#[test]
fn slicing_and_copying_readers_agree_on_every_mutation() {
    readers_agree_on_every_mutation(&vec!["".to_string(), "héllo".to_string(), "x".repeat(40)]);
    readers_agree_on_every_mutation(&vec![
        vec!["alpha".to_string(), "beta".to_string()],
        vec!["gamma".to_string()],
    ]);
    readers_agree_on_every_mutation(&Mixed {
        tag: 0xAB,
        blob: Bytes::from_static(&[0, 255, 1, 254]),
        text: "olá".to_string(),
        words: vec![7; 5],
        longs: vec![u64::MAX, 0],
        tail: Bytes::new(),
    });

    // Messages: within the inline header capacity, beyond it, and nested
    // (a message riding in another one's header, as gossip batches do).
    let mut inner = Message::with_payload(&b"inner payload"[..]);
    inner.push(&1u32);
    inner.push(&"two".to_string());
    readers_agree_on_every_mutation(&inner);
    let mut deep = Message::with_payload(&b"p"[..]);
    for depth in 0..6u64 {
        deep.push(&depth);
    }
    readers_agree_on_every_mutation(&deep);
    let mut outer = Message::new();
    outer.push(&inner);
    readers_agree_on_every_mutation(&outer);
    let mut received = Message::from_shared(&outer.to_bytes()).unwrap();
    assert_eq!(received.pop::<Message>().unwrap(), inner);
}

/// The same agreement on pseudo-random garbage, primitive by primitive.
#[test]
fn slicing_and_copying_readers_agree_on_garbage() {
    let mut rng = Lcg(0x5EED_0002);
    for round in 0..SWEEP_BUFFERS {
        let buf: Vec<u8> = (0..round % 48).map(|_| rng.next_byte()).collect();
        readers_agree::<Mixed>(&buf);
        readers_agree::<Message>(&buf);
        readers_agree::<Vec<String>>(&buf);

        let shared = Bytes::from(buf.clone());
        let (mut copying, mut slicing) = (WireReader::new(&buf), WireReader::over(&shared));
        assert_eq!(copying.get_str_ref(), slicing.get_str_ref());
        assert_eq!(copying.get_bytes(), slicing.get_bytes());
        assert_eq!(copying.get_bytes_ref(), slicing.get_bytes_ref());
        assert_eq!(copying.remaining(), slicing.remaining());
    }
}

fn varint_bytes(value: u64) -> Bytes {
    let mut w = WireWriter::new();
    w.put_varint(value);
    w.finish()
}

#[test]
fn varints_roundtrip_at_the_width_boundaries() {
    for (value, width) in [
        (0, 1),
        (127, 1),
        (128, 2),
        ((1 << 14) - 1, 2),
        (1 << 14, 3),
        (1 << 32, 5),
        (u64::MAX, 10),
    ] {
        let bytes = varint_bytes(value);
        assert_eq!(bytes.len(), width, "width of {value}");
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_varint(), Ok(value));
        assert_eq!(r.remaining(), 0);
    }
}

/// Only the writer's own form decodes: no eleventh byte, no bits past
/// `u64::MAX`, no padding, no missing tail.
#[test]
fn malformed_varints_are_rejected() {
    let eleven = [0x80u8; 11];
    let mut overflowing = varint_bytes(u64::MAX).to_vec();
    overflowing[9] = 2;
    let truncated = &varint_bytes(u64::MAX)[..9];
    let padded = [0x80u8, 0x00];
    for input in [&eleven[..], &overflowing, truncated, &padded, &[]] {
        assert!(
            WireReader::new(input).get_varint().is_err(),
            "{input:?} decoded"
        );
        assert!(
            WireReader::new(input).get_delta(0).is_err(),
            "{input:?} decoded as a delta"
        );
    }
    // The widest delta is 65 bits: its tenth byte may be 2 or 3, not more.
    let mut w = WireWriter::new();
    w.put_delta(0, u64::MAX);
    let mut widest = w.finish().to_vec();
    assert_eq!(widest.len(), 10);
    assert_eq!(WireReader::new(&widest).get_delta(0), Ok(u64::MAX));
    widest[9] = 4;
    assert!(WireReader::new(&widest).get_delta(0).is_err());
}

#[test]
fn deltas_reach_every_value_from_every_base_and_never_leave_the_range() {
    let points = [0, 1, 63, 64, 1 << 20, u64::MAX / 2, u64::MAX - 1, u64::MAX];
    for base in points {
        for value in points {
            let mut w = WireWriter::new();
            w.put_delta(base, value);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_delta(base), Ok(value), "{base} -> {value}");
            assert_eq!(r.remaining(), 0);
        }
    }
    // Within ±63 of the base is one byte, whichever way.
    for (base, value) in [(100, 37), (100, 163), (0, 63), (u64::MAX, u64::MAX - 63)] {
        let mut w = WireWriter::new();
        w.put_delta(base, value);
        assert_eq!(w.len(), 1, "{base} -> {value}");
    }

    // An offset that was valid at the writer's base is an error at one it
    // would carry out of range — checked, never wrapped.
    let mut w = WireWriter::new();
    w.put_delta(10, 0);
    let down_ten = w.finish();
    assert_eq!(WireReader::new(&down_ten).get_delta(10), Ok(0));
    assert!(matches!(
        WireReader::new(&down_ten).get_delta(9),
        Err(WireError::Malformed(_))
    ));
    let mut w = WireWriter::new();
    w.put_delta(0, 10);
    let up_ten = w.finish();
    assert_eq!(
        WireReader::new(&up_ten).get_delta(u64::MAX - 10),
        Ok(u64::MAX)
    );
    assert!(matches!(
        WireReader::new(&up_ten).get_delta(u64::MAX - 9),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn counts_above_what_the_payload_can_hold_are_rejected() {
    // Nine bytes follow the count: room for four 2-byte entries, not five.
    for (count, min_entry_bytes, accepted) in [
        (4, 2, true),
        (5, 2, false),
        (9, 1, true),
        (10, 1, false),
        (9, 0, true),
        (0, 16, true),
        (1, 16, false),
        (u64::MAX, 1, false),
    ] {
        let mut w = WireWriter::new();
        w.put_varint(count);
        w.put_raw(&[0; 9]);
        let bytes = w.finish();
        let got = WireReader::new(&bytes).get_count(min_entry_bytes);
        assert_eq!(got.is_ok(), accepted, "count {count} / {min_entry_bytes}");
    }
}

/// A gap-coded list of ids and a member-indexed table, as the layers embed
/// them.
#[derive(Debug, PartialEq)]
struct Compact {
    ids: Vec<u32>,
    seqs: Vec<u64>,
    table: Vec<(u32, u64)>,
}

impl Wire for Compact {
    fn encode(&self, w: &mut WireWriter) {
        w.put_gap_list(&self.ids);
        w.put_gap_list(&self.seqs);
        w.put_id_table(&self.table);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            ids: r.get_gap_list()?,
            seqs: r.get_gap_list()?,
            table: r.get_id_table()?,
        })
    }
}

#[test]
fn gap_lists_and_id_tables_roundtrip_in_any_order() {
    #[cfg(miri)]
    const MEMBERS: u32 = 12;
    #[cfg(not(miri))]
    const MEMBERS: u32 = 200;

    // Empty, one row, descending and duplicate ids, values at both ends of
    // the range next to each other.
    readers_agree_on_every_mutation(&Compact {
        ids: vec![],
        seqs: vec![],
        table: vec![],
    });
    readers_agree_on_every_mutation(&Compact {
        ids: vec![u32::MAX],
        seqs: vec![u64::MAX],
        table: vec![(u32::MAX, u64::MAX)],
    });
    readers_agree_on_every_mutation(&Compact {
        ids: vec![9, 4, 4, 0, u32::MAX, 0],
        seqs: vec![u64::MAX, 0, u64::MAX, 7, 7],
        table: vec![(9, 1), (4, u64::MAX), (4, 0), (0, u64::MAX), (u32::MAX, 5)],
    });

    // The common case at group size: ascending ids, neighbouring values.
    let group = Compact {
        ids: (0..MEMBERS).collect(),
        seqs: (0..u64::from(MEMBERS)).map(|s| 1_000 + 2 * s).collect(),
        table: (0..MEMBERS)
            .map(|id| (id, 5_000 + u64::from(id * 7 % 16)))
            .collect(),
    };
    assert!(group.to_bytes().len() <= 4 * MEMBERS as usize + 16);
    readers_agree_on_every_mutation(&group);

    // An id that does not fit the field's type is an error, not a truncation.
    let mut w = WireWriter::new();
    w.put_gap_list(&[u64::from(u32::MAX) + 1]);
    let wide = w.finish();
    assert!(WireReader::new(&wide).get_gap_list::<u64>().is_ok());
    assert!(WireReader::new(&wide).get_gap_list::<u32>().is_err());
}
