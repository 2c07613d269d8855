//! Byte-level encoding shared by the journal, snapshot and replication
//! formats: little-endian integers, `u32`-length-prefixed UTF-8
//! strings, the row layout journal entries and snapshot records have in
//! common, and the FNV-1a checksum all three trail their payloads with.
//!
//! Writers append into a caller-owned `Vec<u8>`; [`Reader`] walks a
//! slice and fails on any read past its end, so a length field can never
//! make a decoder allocate or index beyond the bytes actually present.

pub(crate) use topk_text::hash::fnv1a;

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A count or byte length as `u32`; errors rather than truncates.
pub(crate) fn put_len(buf: &mut Vec<u8>, n: usize) -> Result<(), String> {
    let n = u32::try_from(n).map_err(|_| format!("length {n} does not fit the format's u32"))?;
    put_u32(buf, n);
    Ok(())
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), String> {
    put_len(buf, s.len())?;
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// One row: `u32` arity, the fields as strings, the weight's bit pattern.
pub(crate) fn put_row(buf: &mut Vec<u8>, fields: &[String], weight: f64) -> Result<(), String> {
    put_len(buf, fields.len())?;
    for f in fields {
        put_str(buf, f)?;
    }
    put_u64(buf, weight.to_bits());
    Ok(())
}

/// Bounds-checked cursor over encoded bytes.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated: a length runs past the end of the data")?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        let mut a = [0u8; 4];
        a.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(a))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }

    /// Inverse of [`put_row`].
    pub(crate) fn row(&mut self) -> Result<(Vec<String>, f64), String> {
        let arity = self.u32()? as usize;
        let mut fields = Vec::with_capacity(arity.min(1024));
        for _ in 0..arity {
            fields.push(self.str()?);
        }
        Ok((fields, f64::from_bits(self.u64()?)))
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Everything must have been consumed: a decoder that stops early
    /// has misread the layout.
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.bytes.len() - self.pos))
        }
    }
}
