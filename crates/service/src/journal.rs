//! Crash-safe write-ahead journal for ingests.
//!
//! Snapshots alone lose every ingest since the last explicit `snapshot`
//! command when the process dies. The journal closes that window: each
//! `ingest` request is appended here — length-prefixed and checksummed —
//! *before* it is applied to the engine, so a `kill -9` at any byte
//! boundary recovers to exactly the state produced by re-running the
//! surviving (fully appended) ingests. A successful snapshot truncates
//! the journal, because the snapshot now carries everything the journal
//! was protecting.
//!
//! With a sharded engine the journal becomes a [`JournalSet`]: one
//! segment file per shard (`base` for shard 0, `base.s1`, `base.s2`, …
//! for the rest), each an independent [`Journal`]. Rows carry a global
//! record id (`rid`) so recovery can merge the segments back into the
//! exact ingest order regardless of how the rows were fanned out.
//! Opening a set with fewer shards than it was written with treats the
//! surplus segments as *orphans*: their rows are recovered and replayed
//! like any others, and the files are deleted only once a snapshot
//! captures their contents ([`JournalSet::truncate_all`]).
//!
//! # Format (version 2, little-endian)
//!
//! ```text
//! magic   b"TKJL"
//! version u32                 (readers reject versions they don't know)
//! entries, each:
//!   len      u32              (payload byte count)
//!   payload  len bytes:
//!     rows   u32 count, then per row:
//!            u64 record id (rid),
//!            u32 field count, fields as strings (u32 byte-len + UTF-8),
//!            f64 weight (bit pattern)
//!   checksum u64              (FNV-1a over the payload bytes)
//! ```
//!
//! Version 1 files (rows without rids) are upgraded in place on open:
//! the intact prefix is parsed, rids are synthesized in append order,
//! and the file is atomically rewritten as version 2 before any new
//! append — old journals stay replayable across the format bump.
//!
//! A crash mid-append leaves a torn tail: a short length/payload/checksum
//! or a checksum mismatch. [`Journal::open`] stops replay at the first
//! torn or corrupt entry, truncates the file back to the last good byte,
//! and reports how much it dropped — the dropped suffix is by
//! construction an ingest that was never acknowledged.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::codec::{fnv1a, put_len, put_row, put_u64, Reader};

const MAGIC: &[u8; 4] = b"TKJL";
/// Current journal format version.
pub const VERSION: u32 = 2;

/// One journaled row: global record id, raw field texts, weight.
pub type Row = (u64, Vec<String>, f64);

/// One journaled ingest: the rows exactly as the request carried them,
/// each tagged with the record id the engine assigned.
pub type Entry = Vec<Row>;

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug)]
pub struct Recovery {
    /// Fully appended entries, in append order — replay these.
    pub entries: Vec<Entry>,
    /// Bytes of torn/corrupt tail dropped (0 on a clean file).
    pub dropped_bytes: u64,
}

#[derive(Debug)]
struct Inner {
    file: File,
    /// End of the last fully appended entry.
    len: u64,
}

/// An append-only ingest journal segment. Appends are serialized by an
/// internal mutex, so the engine can share one journal across
/// connections.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
    /// Fault injection: when set, every append fails before touching the
    /// file. Lets tests exercise the disk-full path (structured
    /// `journal` errors, engine state unchanged) without a real full
    /// disk.
    fail_appends: AtomicBool,
}

/// Serialize one entry's payload. Also the payload format of a
/// replication wire frame (`replication` module), so a replica can
/// journal what it receives byte-for-byte.
pub(crate) fn encode_entry(rows: &[Row]) -> Result<Vec<u8>, String> {
    let mut buf = Vec::with_capacity(72 * rows.len().max(1));
    put_len(&mut buf, rows.len())?;
    for (rid, fields, weight) in rows {
        put_u64(&mut buf, *rid);
        put_row(&mut buf, fields, *weight)?;
    }
    Ok(buf)
}

/// Append one framed entry — `u32` length, payload, FNV-1a of the
/// payload — to `out`.
fn put_framed(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), String> {
    put_len(out, payload.len())?;
    out.extend_from_slice(payload);
    put_u64(out, fnv1a(payload));
    Ok(())
}

/// Parse one entry's payload (the inverse of [`encode_entry`]).
pub(crate) fn decode_entry(payload: &[u8]) -> Result<Entry, String> {
    decode_rows(payload, |r| {
        let rid = r.u64()?;
        let (fields, weight) = r.row()?;
        Ok((rid, fields, weight))
    })
}

/// Parse one version-1 payload: rows without rids (upgrade path).
fn decode_entry_v1(payload: &[u8]) -> Result<Vec<(Vec<String>, f64)>, String> {
    decode_rows(payload, |r| r.row())
}

/// A `u32` row count, then that many rows, then nothing.
fn decode_rows<T>(
    payload: &[u8],
    row: impl Fn(&mut Reader) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut r = Reader::new(payload);
    let n_rows = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n_rows.min(1 << 20));
    for _ in 0..n_rows {
        rows.push(row(&mut r)?);
    }
    r.finish()?;
    Ok(rows)
}

/// Scan framed entries out of `bytes` (after the 8-byte header), decoding
/// each payload with `decode`. Stops at the first torn or corrupt entry,
/// returning the decoded entries and the end offset of the last good one.
fn scan_entries<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, String>) -> (Vec<T>, u64) {
    let mut entries = Vec::new();
    let mut r = Reader::new(bytes.get(8..).unwrap_or(&[]));
    let mut good = 8u64;
    // A torn or corrupt entry ends replay; everything before it is
    // intact (checksummed), everything after was never acknowledged.
    let next = |r: &mut Reader| -> Option<T> {
        let len = r.u32().ok()? as usize;
        let payload = r.take(len).ok()?;
        if fnv1a(payload) != r.u64().ok()? {
            return None;
        }
        decode(payload).ok()
    };
    while let Some(entry) = next(&mut r) {
        entries.push(entry);
        good = 8 + r.pos() as u64;
    }
    (entries, good)
}

impl Journal {
    /// Open (or create) the journal at `path`, recover every fully
    /// appended entry, and truncate any torn tail so new appends start
    /// on a clean boundary. Version-1 files are upgraded to version 2 in
    /// place (rids synthesized in append order) before the handle is
    /// returned.
    pub fn open(path: &Path) -> Result<(Journal, Recovery), String> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let size = file
            .metadata()
            .map_err(|e| format!("cannot stat journal: {e}"))?
            .len();
        let mut entries = Vec::new();
        let mut good = 8u64; // after magic + version
        let mut size = size;
        if size == 0 {
            // Fresh journal: write the header.
            file.write_all(MAGIC)
                .map_err(|e| format!("journal write: {e}"))?;
            file.write_all(&VERSION.to_le_bytes())
                .map_err(|e| format!("journal write: {e}"))?;
            file.sync_data().map_err(|e| format!("journal sync: {e}"))?;
        } else {
            let mut bytes = Vec::with_capacity(size as usize);
            file.read_to_end(&mut bytes)
                .map_err(|e| format!("cannot read journal: {e}"))?;
            if bytes.len() < 8 || &bytes[..4] != MAGIC {
                return Err(format!(
                    "{} is not a topk journal (bad magic)",
                    path.display()
                ));
            }
            let version = Reader::new(&bytes[4..]).u32()?;
            match version {
                VERSION => {
                    let (parsed, g) = scan_entries(&bytes, decode_entry);
                    entries = parsed;
                    good = g;
                }
                1 => {
                    // Upgrade in place: parse the intact v1 prefix,
                    // synthesize sequential rids, and atomically rewrite
                    // the file as v2 so future appends share the format.
                    let (v1, v1_good) = scan_entries(&bytes, decode_entry_v1);
                    let mut rid = 0u64;
                    for old in v1 {
                        let entry: Entry = old
                            .into_iter()
                            .map(|(fields, w)| {
                                let r = rid;
                                rid += 1;
                                (r, fields, w)
                            })
                            .collect();
                        entries.push(entry);
                    }
                    let mut out = Vec::new();
                    out.extend_from_slice(MAGIC);
                    out.extend_from_slice(&VERSION.to_le_bytes());
                    for e in &entries {
                        put_framed(&mut out, &encode_entry(e)?)?;
                    }
                    let tmp = path.with_extension("upgrade.tmp");
                    {
                        let mut tf =
                            File::create(&tmp).map_err(|e| format!("journal upgrade: {e}"))?;
                        tf.write_all(&out)
                            .map_err(|e| format!("journal upgrade: {e}"))?;
                        tf.sync_data()
                            .map_err(|e| format!("journal upgrade sync: {e}"))?;
                    }
                    std::fs::rename(&tmp, path)
                        .map_err(|e| format!("journal upgrade rename: {e}"))?;
                    topk_obs::info!(
                        "journal {}: upgraded v1 -> v{VERSION} ({} entries)",
                        path.display(),
                        entries.len()
                    );
                    file = OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(path)
                        .map_err(|e| format!("cannot reopen journal: {e}"))?;
                    // Torn-tail accounting stays relative to the v1 file.
                    size = bytes.len() as u64 - v1_good + out.len() as u64;
                    good = out.len() as u64;
                }
                v => {
                    return Err(format!(
                        "journal version {v} not supported (this build reads version {VERSION})"
                    ));
                }
            }
        }
        let dropped = size.saturating_sub(good).min(size);
        if dropped > 0 {
            topk_obs::warn!(
                "journal {}: dropped {dropped} torn tail bytes after {} intact entries",
                path.display(),
                entries.len()
            );
        }
        file.set_len(good.max(8))
            .map_err(|e| format!("cannot truncate journal tail: {e}"))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("journal seek: {e}"))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                inner: Mutex::new(Inner {
                    file,
                    len: good.max(8),
                }),
                fail_appends: AtomicBool::new(false),
            },
            Recovery {
                entries,
                dropped_bytes: dropped,
            },
        ))
    }

    /// Append one ingest entry and fsync it. Returns only after the
    /// entry is durable; the caller applies the ingest afterwards.
    pub fn append(&self, rows: &[Row]) -> Result<(), String> {
        if self.fail_appends.load(Ordering::Relaxed) {
            return Err("journal append: injected failure".to_string());
        }
        let payload = encode_entry(rows)?;
        let mut frame = Vec::with_capacity(payload.len() + 12);
        put_framed(&mut frame, &payload)?;
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .file
            .write_all(&frame)
            .map_err(|e| format!("journal append: {e}"))?;
        inner
            .file
            .sync_data()
            .map_err(|e| format!("journal sync: {e}"))?;
        inner.len += frame.len() as u64;
        Ok(())
    }

    /// Roll the file back to a length previously observed via
    /// [`len_bytes`](Self::len_bytes) — undoes appends made since. Used
    /// by [`JournalSet::append_sharded`] to keep a multi-segment append
    /// all-or-nothing when one segment fails mid-batch.
    pub(crate) fn rewind_to(&self, len: u64) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .file
            .set_len(len)
            .map_err(|e| format!("journal rewind: {e}"))?;
        inner
            .file
            .seek(SeekFrom::End(0))
            .map_err(|e| format!("journal seek: {e}"))?;
        inner
            .file
            .sync_data()
            .map_err(|e| format!("journal sync: {e}"))?;
        inner.len = len;
        Ok(())
    }

    /// Drop every entry (the snapshot that was just written carries the
    /// state). The file shrinks back to its 8-byte header.
    pub fn truncate(&self) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .file
            .set_len(8)
            .map_err(|e| format!("journal truncate: {e}"))?;
        inner
            .file
            .seek(SeekFrom::End(0))
            .map_err(|e| format!("journal seek: {e}"))?;
        inner
            .file
            .sync_data()
            .map_err(|e| format!("journal sync: {e}"))?;
        inner.len = 8;
        Ok(())
    }

    /// Current journal size in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).len
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fault injection: make every future append fail (`true`) or
    /// restore normal operation (`false`). See `Journal::fail_appends`.
    pub fn set_fail_appends(&self, fail: bool) {
        self.fail_appends.store(fail, Ordering::Relaxed);
    }
}

/// Segment path for shard `i` of a set based at `base`: `base` itself
/// for shard 0, `base` with `.s{i}` appended otherwise.
pub fn segment_path(base: &Path, i: usize) -> PathBuf {
    if i == 0 {
        base.to_path_buf()
    } else {
        let mut os = base.as_os_str().to_os_string();
        os.push(format!(".s{i}"));
        PathBuf::from(os)
    }
}

/// What [`JournalSet::open`] recovered across every segment (orphans
/// included).
#[derive(Debug)]
pub struct SetRecovery {
    /// Every recovered row, sorted by record id — the global ingest
    /// order. Replay these in order.
    pub rows: Vec<Row>,
    /// Total intact entries (acknowledged ingest batches) across
    /// segments.
    pub entries: usize,
    /// Total torn-tail bytes dropped across segments.
    pub dropped_bytes: u64,
    /// Largest record id seen on disk, if any — the engine resumes its
    /// rid counter above this so future appends sort after everything
    /// already journaled.
    pub max_rid: Option<u64>,
}

/// One journal segment per engine shard, plus any *orphan* segments left
/// behind by a previous run with more shards. Rows are tagged with
/// global record ids, so recovery merges the segments back into the
/// exact ingest order no matter how the rows were fanned out.
#[derive(Debug)]
pub struct JournalSet {
    segments: Vec<Journal>,
    /// Segments `base.sN` with `N >= segments.len()` found on disk:
    /// recovered like any other, never appended to, deleted on
    /// [`truncate_all`](Self::truncate_all) once a snapshot covers them.
    /// Mutexed so truncation works through a shared reference (the
    /// engine holds the set immutably).
    orphans: Mutex<Vec<Journal>>,
}

impl JournalSet {
    /// Open (or create) `shards` segment files based at `base`, recover
    /// their contents merged by record id, and pick up any orphan
    /// segments from a previous higher shard count.
    pub fn open(base: &Path, shards: usize) -> Result<(JournalSet, SetRecovery), String> {
        assert!(shards >= 1, "a journal set needs at least one segment");
        let mut segments = Vec::with_capacity(shards);
        let mut rows: Vec<Row> = Vec::new();
        let mut entries = 0usize;
        let mut dropped = 0u64;
        for i in 0..shards {
            let (j, rec) = Journal::open(&segment_path(base, i))?;
            entries += rec.entries.len();
            dropped += rec.dropped_bytes;
            rows.extend(rec.entries.into_iter().flatten());
            segments.push(j);
        }
        let mut orphans = Vec::new();
        for path in find_orphans(base, shards)? {
            let (j, rec) = Journal::open(&path)?;
            topk_obs::warn!(
                "journal segment {} orphaned by a shard-count change: \
                 recovering {} entries (deleted after the next snapshot)",
                path.display(),
                rec.entries.len()
            );
            entries += rec.entries.len();
            dropped += rec.dropped_bytes;
            rows.extend(rec.entries.into_iter().flatten());
            orphans.push(j);
        }
        rows.sort_by_key(|&(rid, _, _)| rid);
        let max_rid = rows.last().map(|&(rid, _, _)| rid);
        Ok((
            JournalSet {
                segments,
                orphans: Mutex::new(orphans),
            },
            SetRecovery {
                rows,
                entries,
                dropped_bytes: dropped,
                max_rid,
            },
        ))
    }

    /// Number of live (appendable) segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// The segment journal for shard `i`.
    pub fn segment(&self, i: usize) -> &Journal {
        &self.segments[i]
    }

    /// Append a batch fanned out across segments, all-or-nothing:
    /// `per_segment[i]` holds shard `i`'s rows (empty slices are
    /// skipped). If any segment append fails, segments that already
    /// appended are rewound and the error is returned — the caller must
    /// then apply nothing. The caller is responsible for excluding
    /// concurrent appends to the touched segments (the engine holds the
    /// shard locks).
    pub fn append_sharded(&self, per_segment: &[Vec<Row>]) -> Result<(), String> {
        assert_eq!(per_segment.len(), self.segments.len());
        let mut done: Vec<(usize, u64)> = Vec::new();
        for (i, rows) in per_segment.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let before = self.segments[i].len_bytes();
            if let Err(e) = self.segments[i].append(rows) {
                for &(j, len) in &done {
                    // Rewind best-effort: the batch was never
                    // acknowledged, so a leftover prefix would only be
                    // re-dropped as an unacked suffix on the next open.
                    let _ = self.segments[j].rewind_to(len);
                }
                let _ = self.segments[i].rewind_to(before);
                return Err(e);
            }
            done.push((i, before));
        }
        Ok(())
    }

    /// Truncate every live segment and delete every orphan segment — the
    /// snapshot that was just written carries all their state.
    pub fn truncate_all(&self) -> Result<(), String> {
        for j in &self.segments {
            j.truncate()?;
        }
        let drained: Vec<Journal> = {
            let mut orphans = self.orphans.lock().unwrap_or_else(|p| p.into_inner());
            orphans.drain(..).collect()
        };
        for j in drained {
            let path = j.path().to_path_buf();
            drop(j);
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove orphan segment {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Total bytes across live segments (headers included).
    pub fn len_bytes(&self) -> u64 {
        self.segments.iter().map(|j| j.len_bytes()).sum()
    }

    /// Fault injection across every live segment — see
    /// [`Journal::set_fail_appends`].
    pub fn set_fail_appends(&self, fail: bool) {
        for j in &self.segments {
            j.set_fail_appends(fail);
        }
    }
}

/// Find orphan segment files `base.sN` with `N >= shards`.
fn find_orphans(base: &Path, shards: usize) -> Result<Vec<PathBuf>, String> {
    let Some(dir) = base.parent() else {
        return Ok(Vec::new());
    };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let Some(stem) = base.file_name().and_then(|s| s.to_str()) else {
        return Ok(Vec::new());
    };
    let mut found: Vec<(usize, PathBuf)> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(Vec::new()), // no directory -> no orphans
    };
    for ent in entries.flatten() {
        let name = ent.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(suffix) = name.strip_prefix(stem).and_then(|r| r.strip_prefix(".s")) else {
            continue;
        };
        if let Ok(n) = suffix.parse::<usize>() {
            if n >= shards {
                found.push((n, ent.path()));
            }
        }
    }
    found.sort_by_key(|&(n, _)| n);
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("topk_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn rows(tag: &str, base_rid: u64, n: usize) -> Entry {
        (0..n)
            .map(|i| {
                (
                    base_rid + i as u64,
                    vec![format!("{tag} {i}")],
                    1.0 + i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let path = tmp("rt.journal");
        let (j, rec) = Journal::open(&path).unwrap();
        assert!(rec.entries.is_empty());
        j.append(&rows("a", 0, 3)).unwrap();
        j.append(&rows("b", 3, 1)).unwrap();
        drop(j);
        let (j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[0], rows("a", 0, 3));
        assert_eq!(rec.entries[1], rows("b", 3, 1));
        assert_eq!(rec.entries[1][0].2.to_bits(), 1.0f64.to_bits());
        drop(j);
    }

    #[test]
    fn truncate_empties_the_journal() {
        let path = tmp("trunc.journal");
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&rows("a", 0, 2)).unwrap();
        j.truncate().unwrap();
        assert_eq!(j.len_bytes(), 8);
        j.append(&rows("c", 2, 1)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0], rows("c", 2, 1));
    }

    /// kill -9 leaves a byte-prefix of the file: cutting the journal at
    /// EVERY possible byte boundary must recover exactly the entries
    /// whose final checksum byte made it to disk — never garbage, never
    /// an error.
    #[test]
    fn every_truncation_point_recovers_a_clean_prefix() {
        let path = tmp("tear.journal");
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&rows("a", 0, 2)).unwrap();
        j.append(&rows("b", 2, 2)).unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let entry_ends: Vec<usize> = {
            // Reconstruct the two entry end offsets from the format.
            let len1 = u32::from_le_bytes(full[8..12].try_into().unwrap()) as usize;
            let end1 = 8 + 4 + len1 + 8;
            let len2 = u32::from_le_bytes(full[end1..end1 + 4].try_into().unwrap()) as usize;
            vec![end1, end1 + 4 + len2 + 8]
        };
        for cut in 8..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, rec) = Journal::open(&path).unwrap();
            let expected = entry_ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(
                rec.entries.len(),
                expected,
                "cut at byte {cut}: wrong entry count"
            );
            // After recovery the file is clean: appends work again.
            let (j, _) = Journal::open(&path).unwrap();
            j.append(&rows("post", 4, 1)).unwrap();
            drop(j);
            let (_, rec) = Journal::open(&path).unwrap();
            assert_eq!(rec.entries.len(), expected + 1, "cut at byte {cut}");
        }
    }

    #[test]
    fn corrupt_middle_entry_stops_replay_there() {
        let path = tmp("flip.journal");
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&rows("a", 0, 2)).unwrap();
        j.append(&rows("b", 2, 2)).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first entry's payload.
        bytes[14] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 0, "corrupt first entry drops the rest");
        assert!(rec.dropped_bytes > 0);
    }

    #[test]
    fn rejects_foreign_files_and_future_versions() {
        let path = tmp("bad.journal");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(Journal::open(&path).unwrap_err().contains("magic"));
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &header).unwrap();
        assert!(Journal::open(&path).unwrap_err().contains("version 99"));
    }

    #[test]
    fn upgrades_v1_files_in_place() {
        let path = tmp("v1.journal");
        // Hand-build a v1 file: header + one 2-row entry (no rids).
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        for (text, w) in [("alpha one", 1.5f64), ("beta two", 2.5f64)] {
            payload.extend_from_slice(&1u32.to_le_bytes()); // arity
            payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
            payload.extend_from_slice(text.as_bytes());
            payload.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        std::fs::write(&path, &file).unwrap();

        let (j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(
            rec.entries[0],
            vec![
                (0, vec!["alpha one".to_string()], 1.5),
                (1, vec!["beta two".to_string()], 2.5),
            ]
        );
        // The file is now v2 and appendable.
        j.append(&rows("more", 2, 1)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[1], rows("more", 2, 1));
    }

    #[test]
    fn set_fans_out_and_merges_by_rid() {
        let base = tmp("set.journal");
        let _ = std::fs::remove_file(segment_path(&base, 1));
        let (set, rec) = JournalSet::open(&base, 2).unwrap();
        assert!(rec.rows.is_empty());
        assert_eq!(rec.max_rid, None);
        // Interleave rids across the two segments.
        set.append_sharded(&[
            vec![(0, vec!["a".into()], 1.0), (3, vec!["d".into()], 1.0)],
            vec![(1, vec!["b".into()], 1.0), (2, vec!["c".into()], 1.0)],
        ])
        .unwrap();
        drop(set);
        let (_, rec) = JournalSet::open(&base, 2).unwrap();
        assert_eq!(rec.entries, 2);
        assert_eq!(rec.max_rid, Some(3));
        let texts: Vec<&str> = rec.rows.iter().map(|(_, f, _)| f[0].as_str()).collect();
        assert_eq!(
            texts,
            vec!["a", "b", "c", "d"],
            "merged back into rid order"
        );
    }

    #[test]
    fn set_recovers_orphan_segments_and_deletes_on_truncate() {
        let base = tmp("orphan.journal");
        for i in 1..4 {
            let _ = std::fs::remove_file(segment_path(&base, i));
        }
        // Write with 4 shards...
        let (set, _) = JournalSet::open(&base, 4).unwrap();
        set.append_sharded(&[
            vec![(0, vec!["s0".into()], 1.0)],
            vec![(1, vec!["s1".into()], 1.0)],
            vec![(2, vec!["s2".into()], 1.0)],
            vec![(3, vec!["s3".into()], 1.0)],
        ])
        .unwrap();
        drop(set);
        // ...reopen with 2: segments .s2/.s3 are orphans, still replayed.
        let (set, rec) = JournalSet::open(&base, 2).unwrap();
        assert_eq!(rec.rows.len(), 4);
        assert_eq!(rec.max_rid, Some(3));
        assert!(segment_path(&base, 3).exists(), "orphans survive open");
        set.truncate_all().unwrap();
        assert!(!segment_path(&base, 2).exists(), "orphans deleted");
        assert!(!segment_path(&base, 3).exists());
        drop(set);
        let (_, rec) = JournalSet::open(&base, 2).unwrap();
        assert!(rec.rows.is_empty(), "truncation emptied the live segments");
    }

    #[test]
    fn rewind_undoes_appends_durably() {
        // `append_sharded` keeps multi-segment appends all-or-nothing by
        // rewinding segments that already appended when a later one
        // fails; this exercises the rewind primitive itself.
        let path = tmp("rewind.journal");
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&rows("keep", 0, 1)).unwrap();
        let mark = j.len_bytes();
        j.append(&rows("gone", 1, 2)).unwrap();
        assert!(j.len_bytes() > mark);
        j.rewind_to(mark).unwrap();
        assert_eq!(j.len_bytes(), mark);
        // The rewound entry is gone after reopen; appends still work.
        j.append(&rows("next", 3, 1)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[0], rows("keep", 0, 1));
        assert_eq!(rec.entries[1], rows("next", 3, 1));
    }
}
