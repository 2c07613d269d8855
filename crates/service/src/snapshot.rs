//! Versioned binary persistence of the collapsed engine state.
//!
//! A snapshot lets a restarted server resume without replaying the
//! stream: the expensive part of ingestion — sufficient-predicate
//! matching inside blocks — is never re-run. The file carries the
//! [`IncrementalState`] (normalized record texts + weights, union-find
//! parent vector, blocking index, generation counter) plus the schema;
//! corpus statistics are *not* stored because they are a deterministic
//! O(n) fold over the stored records, recomputed on restore.
//!
//! # Format (version 1, little-endian)
//!
//! ```text
//! magic   b"TKSN"
//! version u32          (readers reject versions they don't know)
//! generation u64
//! schema  u32 count, then count strings     (u32 byte-len + UTF-8)
//! name_field u32                            (index into schema)
//! records u32 count, then per record:
//!         u32 field count, fields as strings, f64 weight (bit pattern)
//! parent  u32 count, then count u32s        (union-find, to_vec order)
//! blocks  u32 count, then per block:
//!         u64 key, u32 member count, members as u32s
//! checksum u64  (FNV-1a over every payload byte after the version)
//! ```
//!
//! Bumping the format bumps `VERSION`; old readers fail closed with a
//! clear error rather than misparsing.

use std::io::{BufWriter, Write};
use std::path::Path;

use topk_core::IncrementalState;
use topk_records::FieldId;

use crate::codec::{fnv1a, put_len, put_row, put_str, put_u32, put_u64, Reader};

const MAGIC: &[u8; 4] = b"TKSN";
/// Current snapshot format version.
pub const VERSION: u32 = 1;
/// Magic + version: the bytes the checksum does not cover.
const HEADER: usize = 8;

/// Serialize `state` into the snapshot wire/file format (magic, version,
/// payload, checksum). The same bytes work on disk ([`write_snapshot`])
/// and over the wire (replication bootstrap streams them to a replica).
pub fn encode_snapshot(
    state: &IncrementalState,
    fields: &[String],
    name_field: FieldId,
) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u64(&mut buf, state.generation);
    put_len(&mut buf, fields.len())?;
    for f in fields {
        put_str(&mut buf, f)?;
    }
    put_len(&mut buf, name_field.0)?;
    put_len(&mut buf, state.records.len())?;
    for (texts, weight) in &state.records {
        put_row(&mut buf, texts, *weight)?;
    }
    put_len(&mut buf, state.parent.len())?;
    for &p in &state.parent {
        put_u32(&mut buf, p);
    }
    put_len(&mut buf, state.blocks.len())?;
    for (key, members) in &state.blocks {
        put_u64(&mut buf, *key);
        put_len(&mut buf, members.len())?;
        for &m in members {
            put_u32(&mut buf, m);
        }
    }
    let checksum = fnv1a(&buf[HEADER..]);
    put_u64(&mut buf, checksum);
    Ok(buf)
}

/// Write `state` to `path`, returning the byte size of the file. The
/// write goes through a temporary sibling file and an atomic rename, so
/// a crash mid-write never corrupts an existing snapshot.
pub fn write_snapshot(
    path: &Path,
    state: &IncrementalState,
    fields: &[String],
    name_field: FieldId,
) -> Result<u64, String> {
    let bytes = encode_snapshot(state, fields, name_field)?;
    let tmp = path.with_extension("tmp");
    {
        let file = std::fs::File::create(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let mut w = BufWriter::new(file);
        w.write_all(&bytes).map_err(|e| format!("write: {e}"))?;
        w.flush().map_err(|e| format!("flush: {e}"))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("rename into place: {e}"))?;
    Ok(bytes.len() as u64)
}

/// Parse snapshot bytes produced by [`encode_snapshot`]. Verifies the
/// magic, version, and checksum before handing the state back.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(IncrementalState, Vec<String>, FieldId), String> {
    let mut file = Reader::new(bytes);
    if file.take(4)? != MAGIC {
        return Err("not a topk snapshot (bad magic)".into());
    }
    let version = file.u32()?;
    if version != VERSION {
        return Err(format!(
            "snapshot version {version} not supported (this build reads version {VERSION})"
        ));
    }
    // The trailing checksum is verified before any length inside the
    // payload is believed.
    let payload = file.take(bytes.len().saturating_sub(HEADER + 8))?;
    if file.u64()? != fnv1a(payload) {
        return Err("snapshot checksum mismatch (file corrupted)".into());
    }
    let mut src = Reader::new(payload);
    let generation = src.u64()?;
    let n_fields = src.u32()? as usize;
    let mut fields = Vec::with_capacity(n_fields.min(1024));
    for _ in 0..n_fields {
        fields.push(src.str()?);
    }
    let name_field = src.u32()? as usize;
    if !fields.is_empty() && name_field >= fields.len() {
        return Err(format!(
            "name field index {name_field} out of range for {} fields",
            fields.len()
        ));
    }
    let n_records = src.u32()? as usize;
    let mut records = Vec::with_capacity(n_records.min(1 << 20));
    for _ in 0..n_records {
        records.push(src.row()?);
    }
    let n_parent = src.u32()? as usize;
    let mut parent = Vec::with_capacity(n_parent.min(1 << 20));
    for _ in 0..n_parent {
        parent.push(src.u32()?);
    }
    let n_blocks = src.u32()? as usize;
    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20));
    for _ in 0..n_blocks {
        let key = src.u64()?;
        let n_members = src.u32()? as usize;
        let mut members = Vec::with_capacity(n_members.min(1 << 20));
        for _ in 0..n_members {
            members.push(src.u32()?);
        }
        blocks.push((key, members));
    }
    src.finish()?;
    Ok((
        IncrementalState {
            records,
            parent,
            blocks,
            generation,
        },
        fields,
        FieldId(name_field),
    ))
}

/// Read a snapshot written by [`write_snapshot`]. Verifies the magic,
/// version, and checksum before handing the state back.
pub fn read_snapshot(path: &Path) -> Result<(IncrementalState, Vec<String>, FieldId), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("topk_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_state() -> IncrementalState {
        IncrementalState {
            records: vec![
                (vec!["grace hopper".into(), "navy".into()], 2.0),
                (vec!["grace hopper".into(), "navy".into()], 1.5),
                (vec!["ada lovelace".into(), "math".into()], 1.0),
            ],
            parent: vec![0, 0, 2],
            blocks: vec![(0xdead, vec![0, 1]), (0xbeef, vec![2])],
            generation: 3,
        }
    }

    #[test]
    fn round_trip_bit_exact() {
        let path = tmp("rt.snap");
        let state = sample_state();
        let fields = vec!["name".to_string(), "org".to_string()];
        let bytes = write_snapshot(&path, &state, &fields, FieldId(0)).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let (back, back_fields, back_field) = read_snapshot(&path).unwrap();
        assert_eq!(back_fields, fields);
        assert_eq!(back_field, FieldId(0));
        assert_eq!(back.generation, state.generation);
        assert_eq!(back.parent, state.parent);
        assert_eq!(back.blocks, state.blocks);
        assert_eq!(back.records.len(), state.records.len());
        for ((at, aw), (bt, bw)) in back.records.iter().zip(&state.records) {
            assert_eq!(at, bt);
            assert_eq!(aw.to_bits(), bw.to_bits());
        }
    }

    #[test]
    fn rejects_corruption_and_wrong_version() {
        let path = tmp("bad.snap");
        write_snapshot(&path, &sample_state(), &["name".into()], FieldId(0)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(
            err.contains("checksum")
                || err.contains("UTF-8")
                || err.contains("exceeds")
                || err.contains("truncated"),
            "{err}"
        );
        // Wrong version fails closed with a version message.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        // Not a snapshot at all.
        std::fs::write(&path, b"hello world").unwrap();
        assert!(read_snapshot(&path).unwrap_err().contains("magic"));
    }

    /// Every possible single-byte corruption and every possible
    /// truncation point must be rejected — magic and version by their
    /// explicit checks, the checksum field by the mismatch, and every
    /// payload byte by the FNV-1a verification. No flip may silently
    /// load as different state.
    #[test]
    fn every_byte_flip_and_truncation_point_is_rejected() {
        let path = tmp("fuzz.snap");
        write_snapshot(
            &path,
            &sample_state(),
            &["name".into(), "org".into()],
            FieldId(1),
        )
        .unwrap();
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "bit flip at offset {i} of {} was accepted",
                good.len()
            );
        }
        for len in 0..good.len() {
            std::fs::write(&path, &good[..len]).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "truncation to {len} of {} bytes was accepted",
                good.len()
            );
        }
        // The untouched original still loads — the harness itself is
        // not what rejects the mutants.
        std::fs::write(&path, &good).unwrap();
        read_snapshot(&path).unwrap();
    }
}
