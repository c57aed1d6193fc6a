//! The reference codec of a gossip repair pull's body: the wants as one
//! list of sequence numbers per stream, encoded and decoded field by field.
//! A gossip session builds, encodes and decodes its pulls in a flat scratch
//! instead (`PullWants`, `RepairPull::encode_wants` and
//! `RepairPull::decode_into`); the differential tests hold that codec to
//! this one.

use morpheus_appia::platform::NodeId;
use morpheus_appia::wire::{decode_whole, narrow, WireError, WireReader, WireWriter};

/// A pull's wants: `(origin, inc, missing sequence numbers)` per stream.
pub type Wants = Vec<(NodeId, u64, Vec<u64>)>;

/// Encodes a pull's body: the stream count, then per stream the origin as
/// a gap from the previous one, `inc` against the first stream's, and the
/// gap-coded sequence numbers.
pub fn encode_pull(wants: &Wants) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(wants.len() as u64);
    let mut prev = 0;
    let mut inc_base = None;
    for (origin, inc, seqs) in wants {
        w.put_delta(prev, (*origin).into());
        prev = (*origin).into();
        w.put_delta(inc_base.unwrap_or(0), *inc);
        inc_base.get_or_insert(*inc);
        w.put_gap_list(seqs);
    }
    w.finish().to_vec()
}

/// Decodes a whole pull body, as [`encode_pull`] writes it.
pub fn decode_pull(body: &[u8]) -> Result<Wants, WireError> {
    decode_whole(WireReader::new(body), &mut (), |r, ()| {
        // A stream is at least an origin gap, an `inc` offset and an empty
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
        Ok(wants)
    })
}
