//! A small, deterministic, length-prefixed binary wire format.
//!
//! Protocol layers push their headers onto a [`crate::message::Message`] as
//! opaque byte chunks. The [`Wire`] trait plus [`WireWriter`]/[`WireReader`]
//! give each layer a simple, explicit way to encode and decode those chunks
//! without pulling in an external serialisation framework.
//!
//! The format is intentionally simple:
//!
//! * fixed-width integers are encoded big-endian;
//! * strings and byte slices are length-prefixed with a LEB128 varint, so
//!   a field under 128 bytes costs one byte of framing;
//! * generic lists are length-prefixed with a `u32` element count.
//!
//! Member-indexed tables and per-message counters — the control plane's
//! bytes — use the compact primitives: a LEB128 varint
//! ([`WireWriter::put_varint`]), a zigzag offset from a base value
//! ([`WireWriter::put_delta`]) and a varint list count that is checked
//! against the bytes present before anything is allocated
//! ([`WireReader::get_count`]).

use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran out of bytes before the value was complete.
    UnexpectedEof,
    /// A string field did not contain valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant or tag byte had an unknown value.
    InvalidTag(u8),
    /// A length prefix exceeded a sanity limit.
    LengthOutOfRange(u64),
    /// A custom decoding failure raised by a `Wire` implementation.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::InvalidTag(tag) => write!(f, "invalid tag byte {tag}"),
            WireError::LengthOutOfRange(len) => write!(f, "length {len} out of range"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum length accepted for any single length-prefixed field (16 MiB).
///
/// The limit exists purely as a sanity check against corrupted input; no
/// protocol in the suite produces fields anywhere near this large.
pub const MAX_FIELD_LEN: u64 = 16 * 1024 * 1024;

/// Types that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoded representation of `self` to the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes a value from the reader, consuming exactly the bytes it wrote.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh byte buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes a value from a byte slice, requiring the slice to be fully consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        decode_whole(WireReader::new(bytes), &mut (), |r, ()| Self::decode(r))
    }

    /// [`Wire::from_bytes`] over a shared buffer: byte fields of the value
    /// are slices of `bytes` instead of copies ([`WireReader::over`]).
    fn from_shared(bytes: &Bytes) -> Result<Self, WireError> {
        decode_whole(WireReader::over(bytes), &mut (), |r, ()| Self::decode(r))
    }
}

/// A buffer a body is decoded into ([`decode_whole`]) that keeps its
/// memory from one body to the next.
pub trait Scratch {
    /// Empties the buffer, keeping its memory.
    fn clear(&mut self);
}

impl<T> Scratch for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// A decode into a value of its own has no scratch to empty.
impl Scratch for () {
    fn clear(&mut self) {}
}

/// Decodes the whole of `r`'s input with `decode`, into `scratch`: all or
/// nothing. `scratch` is emptied first; an error of `decode`, or a byte it
/// left unread, is an error, and leaves `scratch` empty whatever `decode`
/// put in it. Every body and header decode runs through this one rule.
pub fn decode_whole<'a, S: Scratch, T>(
    mut r: WireReader<'a>,
    scratch: &mut S,
    decode: impl FnOnce(&mut WireReader<'a>, &mut S) -> Result<T, WireError>,
) -> Result<T, WireError> {
    scratch.clear();
    let decoded = decode(&mut r, scratch).and_then(|value| match r.remaining() {
        0 => Ok(value),
        _ => Err(WireError::Malformed("trailing bytes")),
    });
    if decoded.is_err() {
        scratch.clear();
    }
    decoded
}

/// An append-only encoder for the wire format.
///
/// A writer can be used one-shot ([`WireWriter::finish`]) or as a reusable
/// scratch buffer: [`WireWriter::split_frame`] freezes everything written so
/// far into a [`Bytes`] without copying and leaves the writer ready for the
/// next frame in the same allocation. Once every split-off frame has been
/// dropped, [`WireWriter::reserve`] recycles the allocation, so a long-lived
/// scratch writer (the kernel owns one for outgoing packets) serialises an
/// unbounded stream of frames with zero steady-state allocations.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self {
            buf: BytesMut::new(),
        }
    }

    /// Creates a writer with the given initial capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(capacity),
        }
    }

    /// Ensures space for `additional` more bytes, recycling the underlying
    /// allocation when every previously split-off frame has been dropped.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Freezes everything written since the last split into an immutable
    /// frame, leaving the writer positioned for the next frame.
    pub fn split_frame(&mut self) -> Bytes {
        self.buf.split().freeze()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.put_u8(value);
    }

    /// Appends a boolean as a single byte (0 or 1).
    pub fn put_bool(&mut self, value: bool) {
        self.buf.put_u8(u8::from(value));
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, value: u16) {
        self.buf.put_u16(value);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.put_u32(value);
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.put_u64(value);
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, value: i64) {
        self.buf.put_i64(value);
    }

    /// Appends an IEEE-754 `f64`.
    pub fn put_f64(&mut self, value: f64) {
        self.buf.put_f64(value);
    }

    /// Appends a LEB128 varint: seven value bits per byte, least significant
    /// group first, 1 byte below 128 and at most 10.
    pub fn put_varint(&mut self, value: u64) {
        // Lengths, counts and ids are nearly always one byte.
        match u8::try_from(value) {
            Ok(byte) if byte < 0x80 => self.buf.put_u8(byte),
            _ => self.put_leb128(Leb128::default().with(u128::from(value))),
        }
    }

    /// Appends `value` as its zigzag offset from `base` (0, −1, +1, −2, … →
    /// 0, 1, 2, 3, …) in a varint: 1 byte within ±63 of the base. Every
    /// `(base, value)` pair is representable; the widest offset takes 10
    /// bytes.
    pub fn put_delta(&mut self, base: u64, value: u64) {
        self.put_leb128(Leb128::default().with(zigzag(base, value)));
    }

    /// Appends a gap-coded list: a varint count, then every element as its
    /// zigzag gap from the one before it (the first from 0). Any order
    /// round-trips; ascending ids and sequence numbers cost a byte each.
    pub fn put_gap_list<T: Copy + Into<u64>>(&mut self, values: &[T]) {
        self.reserve(2 + 2 * values.len());
        self.put_varint(values.len() as u64);
        let mut prev = 0;
        for value in values {
            let value = (*value).into();
            self.put_delta(prev, value);
            prev = value;
        }
    }

    /// Appends a member-indexed table of `(id, value)` rows: a varint count,
    /// then per row the id as its zigzag gap from the previous row's and the
    /// value as its zigzag offset from the *first* row's value (the first
    /// itself from 0) — so a damaged byte damages its own row, not the tail
    /// of a delta chain. Ascending ids whose values sit within ±63 of each
    /// other cost two bytes a row.
    pub fn put_id_table<K: Copy + Into<u64>>(&mut self, rows: &[(K, u64)]) {
        self.put_id_rows(rows.iter().copied());
    }

    /// [`WireWriter::put_id_table`] over rows a table yields in place, so
    /// a caller holding them in some other shape encodes without first
    /// collecting them into a slice.
    pub fn put_id_rows<K: Into<u64>>(&mut self, rows: impl ExactSizeIterator<Item = (K, u64)>) {
        self.reserve(12 + 3 * rows.len());
        self.put_varint(rows.len() as u64);
        let mut prev = 0;
        let mut base = None;
        for (id, value) in rows {
            let id = id.into();
            let row = Leb128::default()
                .with(zigzag(prev, id))
                .with(zigzag(base.unwrap_or(0), value));
            self.put_leb128(row);
            prev = id;
            base.get_or_insert(value);
        }
    }

    #[inline]
    fn put_leb128(&mut self, staged: Leb128) {
        self.buf
            .put_slice(staged.bytes.get(..staged.len).unwrap_or_default());
    }

    /// Appends a byte slice behind its length as a varint
    /// ([`varint_len`] bytes of framing).
    pub fn put_bytes(&mut self, value: &[u8]) {
        self.put_varint(value.len() as u64);
        self.buf.put_slice(value);
    }

    /// Appends bytes that are already in wire form, as they are.
    pub fn put_raw(&mut self, encoded: &[u8]) {
        self.buf.put_slice(encoded);
    }

    /// Appends a UTF-8 string behind its length as a varint.
    pub fn put_str(&mut self, value: &str) {
        self.put_bytes(value.as_bytes());
    }

    /// Appends a length-prefixed list of `u32` values.
    pub fn put_u32_list(&mut self, values: &[u32]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_u32(*v);
        }
    }

    /// Appends a length-prefixed list of `u64` values.
    pub fn put_u64_list(&mut self, values: &[u64]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_u64(*v);
        }
    }

    /// Finalises the writer and returns the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Bytes [`WireWriter::put_varint`] writes for `value`: 1 below 128, one
/// more per further seven bits, 10 at most.
pub const fn varint_len(value: u64) -> usize {
    let bits = 64 - value.leading_zeros() as usize;
    if bits == 0 {
        1
    } else {
        bits.div_ceil(7)
    }
}

/// The zigzag offset of `value` from `base`: 65 bits at the widest.
#[inline]
fn zigzag(base: u64, value: u64) -> u128 {
    if value >= base {
        u128::from(value - base) << 1
    } else {
        (u128::from(base - value) << 1) - 1
    }
}

/// One or two LEB128 values staged on the stack, so that a value — or a
/// whole table row — costs the buffer one append, not one per byte.
#[derive(Default)]
struct Leb128 {
    bytes: [u8; 20],
    len: usize,
}

impl Leb128 {
    /// Stages `value` (a `u64`, or a zigzag one bit wider) after what is
    /// there. The groups are peeled off in 64-bit arithmetic: the first
    /// shift frees the top seven bits, which is where the 65th bit goes.
    #[inline]
    fn with(mut self, value: u128) -> Self {
        let mut low = value as u64;
        let mut carry = ((value >> 64) as u64) << 57;
        for slot in self.bytes.iter_mut().skip(self.len) {
            self.len += 1;
            *slot = (low & 0x7f) as u8;
            low = low >> 7 | carry;
            carry = 0;
            if low == 0 {
                break;
            }
            *slot |= 0x80;
        }
        self
    }
}

thread_local! {
    /// Shared scratch writer for small frames (layer headers). Single
    /// kernel thread, so a thread-local is effectively a per-kernel pool.
    static FRAME_SCRATCH: std::cell::RefCell<WireWriter> =
        std::cell::RefCell::new(WireWriter::new());
}

/// Starts the shared frame scratch afresh: the next frame opens a new buffer.
///
/// The scratch is per-thread state that outlives every kernel. How far into
/// its chunk it is, and whether a live header pins the chunk at the moment
/// it runs out, decide when the next chunk is allocated. Part of
/// [`crate::reset_thread_scratch`].
pub(crate) fn reset_frame_scratch() {
    FRAME_SCRATCH.with(|cell| *cell.borrow_mut() = WireWriter::new());
}

/// Encodes one frame through a shared reusable scratch writer.
///
/// The closure writes the frame; the written bytes are split off and
/// returned. The scratch allocation is recycled once previously returned
/// frames have been dropped, so steady-state header encoding (a push per
/// packet, dropped when the packet is serialised or consumed) does not
/// allocate.
pub fn encode_pooled(encode: impl FnOnce(&mut WireWriter)) -> Bytes {
    FRAME_SCRATCH.with(|cell| {
        let mut writer = cell.borrow_mut();
        writer.reserve(64);
        encode(&mut writer);
        writer.split_frame()
    })
}

/// Converts a decoded integer to the narrower type a field holds.
pub fn narrow<T: TryFrom<u64>>(value: u64) -> Result<T, WireError> {
    T::try_from(value).map_err(|_| WireError::Malformed("value out of range for its field"))
}

/// A cursor-style decoder for the wire format.
///
/// Built over a plain slice ([`WireReader::new`]) every byte field is copied
/// out into its own buffer. Built over a [`Bytes`] ([`WireReader::over`])
/// byte fields are *slices of that buffer*: nothing is copied, and the
/// returned values keep the buffer's allocation alive. A layer that retains
/// such a value past the event that delivered it must store its own copy
/// ([`crate::message::Message::compact`]), or one small field pins the whole
/// packet buffer it was cut from.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The buffer `buf` views, when byte fields are to be sliced from it.
    backing: Option<&'a Bytes>,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over the given bytes; byte fields are copied out.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            backing: None,
        }
    }

    /// Creates a reader over a shared buffer; byte fields are returned as
    /// slices of it (zero-copy).
    pub fn over(bytes: &'a Bytes) -> Self {
        Self {
            buf: bytes.as_slice(),
            pos: 0,
            backing: Some(bytes),
        }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(len).ok_or(WireError::UnexpectedEof)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::UnexpectedEof)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into an array (checked, never panics).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .try_into()
            .map_err(|_| WireError::UnexpectedEof)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(WireError::UnexpectedEof)
    }

    /// Reads a boolean encoded as a single byte.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidTag(other)),
        }
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(self.take_array()?))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_be_bytes(self.take_array()?))
    }

    /// Reads a LEB128 varint ([`WireWriter::put_varint`]). Only the form the
    /// writer produces is accepted: more than 10 bytes, a value past
    /// `u64::MAX` or a padded (over-long) encoding is malformed.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        u64::try_from(self.get_leb128(64)?).map_err(|_| WireError::Malformed("varint overflows"))
    }

    /// Reads a zigzag offset from `base` ([`WireWriter::put_delta`]). The
    /// offset is applied with checked arithmetic: one that leaves the `u64`
    /// range is malformed, never a wrap.
    #[inline]
    pub fn get_delta(&mut self, base: u64) -> Result<u64, WireError> {
        let zigzag = self.get_leb128(65)?;
        // 0, 1, 2, 3, … → 0, −1, +1, −2, …
        let magnitude = u64::try_from((zigzag + 1) >> 1).ok();
        let value = if zigzag & 1 == 0 {
            magnitude.and_then(|up| base.checked_add(up))
        } else {
            magnitude.and_then(|down| base.checked_sub(down))
        };
        value.ok_or(WireError::Malformed("delta leaves the u64 range"))
    }

    /// Reads a canonical LEB128 value of at most `bits` (64 or 65) bits.
    #[inline]
    fn get_leb128(&mut self, bits: u32) -> Result<u128, WireError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        // Gaps, offsets and counts are one or two bytes nearly always, and a
        // received table is decoded row by row by every peer it reaches:
        // those two shapes skip the loop (it would decode them the same).
        match rest {
            [only, ..] if *only < 0x80 => {
                self.pos += 1;
                return Ok(u128::from(*only));
            }
            [low, high, ..] if (1..0x80).contains(high) => {
                self.pos += 2;
                return Ok(u128::from(low & 0x7f) | u128::from(*high) << 7);
            }
            _ => {}
        }
        let mut value = 0u128;
        for (index, byte) in rest.iter().take(10).enumerate() {
            value |= u128::from(byte & 0x7f) << (7 * index);
            if byte & 0x80 == 0 {
                if *byte == 0 && index > 0 {
                    return Err(WireError::Malformed("over-long varint"));
                }
                if value >> bits != 0 {
                    return Err(WireError::Malformed("varint overflows"));
                }
                self.pos += index + 1;
                return Ok(value);
            }
        }
        Err(if rest.len() < 10 {
            WireError::UnexpectedEof
        } else {
            WireError::Malformed("varint longer than 10 bytes")
        })
    }

    /// Reads a varint list count and checks it against the bytes actually
    /// present — `min_entry_bytes` is the least one entry can occupy — so a
    /// corrupted or adversarial count is rejected before the caller
    /// allocates for it, and can never reserve more memory than the message
    /// itself could hold.
    pub fn get_count(&mut self, min_entry_bytes: usize) -> Result<usize, WireError> {
        let count = self.get_varint()?;
        self.check_count(count, min_entry_bytes)
    }

    /// Reads a gap-coded list ([`WireWriter::put_gap_list`]). An element
    /// that does not fit `T` is malformed.
    pub fn get_gap_list<T: TryFrom<u64>>(&mut self) -> Result<Vec<T>, WireError> {
        let count = self.get_count(1)?;
        let mut values = Vec::with_capacity(count);
        let mut prev = 0;
        for _ in 0..count {
            prev = self.get_delta(prev)?;
            values.push(narrow(prev)?);
        }
        Ok(values)
    }

    /// Reads a member-indexed table ([`WireWriter::put_id_table`]).
    pub fn get_id_table<K: TryFrom<u64>>(&mut self) -> Result<Vec<(K, u64)>, WireError> {
        let mut rows = Vec::new();
        self.id_rows(&mut rows)?;
        Ok(rows)
    }

    /// Reads the rest of the input as one member-indexed table into `rows`,
    /// a buffer the caller keeps: all or nothing, as [`decode_whole`].
    pub fn get_id_table_into<K: TryFrom<u64>>(
        self,
        rows: &mut Vec<(K, u64)>,
    ) -> Result<(), WireError> {
        decode_whole(self, rows, Self::id_rows)
    }

    fn id_rows<K: TryFrom<u64>>(&mut self, rows: &mut Vec<(K, u64)>) -> Result<(), WireError> {
        let count = self.get_count(2)?;
        rows.reserve_exact(count);
        let mut prev = 0;
        let mut base = None;
        for _ in 0..count {
            prev = self.get_delta(prev)?;
            let value = self.get_delta(base.unwrap_or(0))?;
            base.get_or_insert(value);
            rows.push((narrow(prev)?, value));
        }
        Ok(())
    }

    fn check_count(&self, count: u64, min_entry_bytes: usize) -> Result<usize, WireError> {
        match usize::try_from(count) {
            Ok(count) if count <= self.remaining() / min_entry_bytes.max(1) => Ok(count),
            _ => Err(WireError::Malformed("list count exceeds payload")),
        }
    }

    /// Reads a varint-length-prefixed byte field, borrowed from the input.
    /// A length above [`MAX_FIELD_LEN`] is rejected before anything is
    /// taken.
    pub fn get_bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_varint()?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        self.take(len as usize)
    }

    /// Reads a varint-length-prefixed byte field: a slice of the backing
    /// buffer when the reader has one, a fresh copy otherwise.
    pub fn get_bytes(&mut self) -> Result<Bytes, WireError> {
        let field = self.get_bytes_ref()?;
        Ok(match self.backing {
            // `take` has bounds-checked the field, which ends at `pos`.
            Some(backing) => backing.slice(self.pos - field.len()..self.pos),
            None => Bytes::copy_from_slice(field),
        })
    }

    /// Reads a varint-length-prefixed UTF-8 string, borrowed from the input.
    pub fn get_str_ref(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes_ref()?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed list of `u32` values. The advertised count
    /// is checked against the bytes actually present (4 per element) before
    /// any allocation, so a corrupted or adversarial count cannot reserve
    /// more memory than the message itself could hold.
    pub fn get_u32_list(&mut self) -> Result<Vec<u32>, WireError> {
        let len = u64::from(self.get_u32()?);
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        let len = self.check_count(len, 4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed list of `u64` values; the count is checked
    /// against the remaining bytes (8 per element) before allocating.
    pub fn get_u64_list(&mut self) -> Result<Vec<u64>, WireError> {
        let len = u64::from(self.get_u32()?);
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        let len = self.check_count(len, 8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u8()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bool(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_bool()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u64::from(r.get_u32()?);
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        // Every wire element costs at least one byte, so a count larger
        // than the remaining payload is malformed — rejected before the
        // allocation, not after the element loop runs out of bytes.
        let len = r.check_count(len, 1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(1024);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(3.5);
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 1024);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        let mut w = WireWriter::new();
        w.put_str("olá mundo");
        w.put_bytes(&[1, 2, 3, 4]);
        w.put_str("");
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "olá mundo");
        assert_eq!(r.get_bytes().unwrap().as_ref(), &[1, 2, 3, 4]);
        assert_eq!(r.get_str().unwrap(), "");
    }

    #[test]
    fn lists_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u32_list(&[1, 2, 3]);
        w.put_u64_list(&[]);
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u32_list().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_list().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn eof_is_reported() {
        let mut r = WireReader::new(&[0, 0]);
        assert_eq!(r.get_u32().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(r.get_bool().unwrap_err(), WireError::InvalidTag(9));
    }

    #[test]
    fn wire_trait_roundtrip_for_vec_of_strings() {
        let value = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let bytes = value.to_bytes();
        let decoded = Vec::<String>::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u32.to_bytes().to_vec();
        bytes.push(0xFF);
        assert_eq!(
            u32::from_bytes(&bytes).unwrap_err(),
            WireError::Malformed("trailing bytes")
        );
    }

    #[test]
    fn a_whole_input_decode_is_all_or_nothing() {
        let mut w = WireWriter::new();
        w.put_id_table(&[(1u32, 10), (2, 12)]);
        let table = w.finish();
        // Into a scratch that holds a row from before.
        let decode = |input: &[u8], rows: &mut Vec<(u32, u64)>| {
            *rows = vec![(9, 9)];
            decode_whole(WireReader::new(input), rows, WireReader::id_rows)
        };
        let mut rows = Vec::new();
        assert_eq!(decode(&table, &mut rows), Ok(()));
        assert_eq!(rows, [(1, 10), (2, 12)]);
        // Trailing bytes are an error, and so is a truncated second row:
        // either leaves the scratch empty.
        let trailing = [&table[..], &[0]].concat();
        let error = Err(WireError::Malformed("trailing bytes"));
        assert_eq!(decode(&trailing, &mut rows), error);
        assert!(rows.is_empty());
        assert!(decode(&table[..table.len() - 1], &mut rows).is_err());
        assert!(rows.is_empty());
    }

    #[test]
    fn corrupted_length_prefix_is_rejected() {
        // A varint length one past the sanity limit, and the widest one a
        // varint holds, are out of range before any byte is taken.
        for len in [MAX_FIELD_LEN + 1, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(len);
            w.put_raw(&[0; 16]);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_bytes().unwrap_err(), WireError::LengthOutOfRange(len));
            assert_eq!(r.remaining(), 16, "nothing of the field was taken");
        }
        // A varint whose tenth byte still says "more follows" is eleven
        // bytes or longer, which no writer produces.
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert_eq!(
            WireReader::new(&eleven).get_bytes().unwrap_err(),
            WireError::Malformed("varint longer than 10 bytes")
        );
    }

    #[test]
    fn varint_len_matches_what_put_varint_writes() {
        for value in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut w = WireWriter::new();
            w.put_varint(value);
            assert_eq!(varint_len(value), w.len(), "{value}");
        }
    }

    #[test]
    fn adversarial_list_counts_are_rejected_before_allocation() {
        // A count claiming a million u32s backed by four payload bytes must
        // fail on the count check, not inside the element loop (and without
        // reserving a million-slot vector first).
        let mut w = WireWriter::new();
        w.put_u32(1_000_000);
        w.put_u32(7);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_u32_list().unwrap_err(),
            WireError::Malformed(_)
        ));

        let mut w = WireWriter::new();
        w.put_u32(1_000_000);
        w.put_u64(7);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_u64_list().unwrap_err(),
            WireError::Malformed(_)
        ));

        // Same for the generic Vec<T> path: one string element encoded,
        // count rewritten to claim far more than the payload holds.
        let mut bytes = vec!["x".to_string()].to_bytes().to_vec();
        bytes[..4].copy_from_slice(&1_000_000u32.to_be_bytes());
        assert!(matches!(
            Vec::<String>::from_bytes(&bytes).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn truncated_lists_decode_to_clean_errors() {
        // Every possible truncation of a valid encoding errors out instead
        // of panicking or looping.
        let mut w = WireWriter::new();
        w.put_u32_list(&[10, 20, 30]);
        w.put_u64_list(&[40, 50]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            let lists = (r.get_u32_list(), r.get_u64_list());
            assert!(
                lists.0.is_err() || lists.1.is_err(),
                "truncation at {cut} of {} decoded both lists",
                bytes.len()
            );
        }
    }

    #[test]
    fn single_bit_flips_never_panic_the_list_decoders() {
        // Deterministic exhaustive single-bit fuzz over a nested encoding:
        // any outcome is fine except a panic or an over-allocation, which
        // the count checks prevent.
        let value = vec![
            vec!["alpha".to_string(), "beta".to_string()],
            vec!["gamma".to_string()],
        ];
        let bytes = value.to_bytes().to_vec();
        for index in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[index] ^= 1 << bit;
                let _ = Vec::<Vec<String>>::from_bytes(&mutated);
            }
        }
    }
}
