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
    w.put_u32(u32::MAX);
    let bytes = w.finish();
    let mut r = WireReader::new(&bytes);
    assert!(matches!(
        r.get_bytes().unwrap_err(),
        WireError::LengthOutOfRange(_) | WireError::UnexpectedEof
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
