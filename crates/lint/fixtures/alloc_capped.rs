//! Fixture: pre-allocation from a decoded count, capped against the bytes
//! actually remaining — the workspace's hardening pattern. Expect no
//! findings.

fn decode_list(reader: &mut WireReader<'_>) -> Result<Vec<u64>, WireError> {
    let count = reader.get_u32()? as usize;
    let mut items = Vec::with_capacity(count.min(reader.remaining() / 8));
    for _ in 0..count {
        items.push(reader.get_u64()?);
    }
    Ok(items)
}

fn decode_table(reader: &mut WireReader<'_>) -> Result<Vec<u64>, WireError> {
    let count = reader.get_count(8)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(reader.get_u64()?);
    }
    Ok(items)
}
