//! Primary/replica replication: journal shipping over the wire.
//!
//! A server started with `--replica-of HOST:PORT` becomes a **replica**:
//! it bootstraps from the primary's snapshot (streamed over the same
//! TCP connection) and then tails the primary's ingest journal via the
//! `replicate` protocol command. Every acknowledged ingest on the
//! primary is published to an in-memory [`ReplLog`] *while the engine's
//! core lock is still held*, so the log order equals the apply order;
//! replicas re-apply the entries — record ids included — through the
//! same sharded engine, which makes their `topk`/`topr` answers
//! byte-identical to the primary's at any shard count (pending rows are
//! flushed in rid order, so even out-of-order arrival cannot skew the
//! collapse).
//!
//! # Wire format
//!
//! The replica sends one ordinary request line
//! `{"cmd":"replicate","epoch":E,"from":S}` (`from` omitted on first
//! boot) and the connection switches to a one-way binary stream. The
//! primary answers with a single JSON header line
//! `{"ok":true,"mode":"snapshot"|"tail","epoch":E,"seq":S,"head":H,
//! "snapshot_bytes":N}`; in `snapshot` mode exactly `N` raw snapshot
//! bytes (the [`crate::snapshot`] format, checksummed) follow before the
//! first frame. Frames are length-checked and checksummed, little-endian:
//!
//! ```text
//! kind    u8   (0 = entry, 1 = heartbeat, 2 = resync)
//! seq     u64  (entry: this entry's sequence; heartbeat: primary's next)
//! ts_ms   u64  (primary wall clock, millis since the UNIX epoch)
//! len     u32  (payload byte count; 0 for heartbeat/resync)
//! payload len bytes (an ingest-journal entry payload, rids included)
//! crc     u64  (FNV-1a over the payload)
//! ```
//!
//! A corrupt or torn frame makes the replica drop the connection and
//! reconnect with its cursor intact; the primary re-serves from there
//! (or re-bootstraps if the window moved on). `resync` tells the replica
//! its cursor fell out of the primary's in-memory window: it reconnects
//! without a cursor and bootstraps from a fresh snapshot.
//!
//! # Epochs and promotion
//!
//! Every server carries an **epoch** (starts at 1). `promote` on a
//! replica stops its tailer, makes it primary, and bumps the epoch. The
//! handshake exchanges epochs both ways: a primary refuses to serve a
//! replica whose epoch is *newer* (the primary itself is stale —
//! `err:"not_primary"`), and a replica refuses to follow a primary whose
//! epoch is *older* than its own (split-brain: the old primary came
//! back). Replicas refuse `ingest`/`restore` with `err:"not_primary"`
//! so a client that failed over can tell a follower from a leader.
//!
//! See `docs/ROBUSTNESS.md` for the failure-modes matrix and
//! `tests/serve_replication.rs` for the differential proof.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::codec::{fnv1a, put_u32, put_u64, Reader};
use crate::engine::Engine;
use crate::journal;
use crate::json::Json;
use crate::metrics::Metrics;

/// What a server currently is: the write-accepting leader or a
/// read-only follower tailing the leader's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; serves `replicate` streams to followers.
    Primary,
    /// Refuses writes (`err:"not_primary"`); applies the primary's
    /// journal entries and serves reads.
    Replica,
}

impl Role {
    /// Wire/JSON name of the role.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
        }
    }
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Role::Primary => 0,
            Role::Replica => 1,
        }
    }
    pub(crate) fn from_u8(v: u8) -> Role {
        if v == 1 {
            Role::Replica
        } else {
            Role::Primary
        }
    }
}

/// Frame kinds on the replication stream.
pub(crate) const FRAME_ENTRY: u8 = 0;
pub(crate) const FRAME_HEARTBEAT: u8 = 1;
pub(crate) const FRAME_RESYNC: u8 = 2;

/// Frame header: kind + seq + ts_ms + len.
const FRAME_HEADER: usize = 1 + 8 + 8 + 4;
/// Cap on a single frame payload — matches the largest entry a journal
/// append could have produced, with slack.
const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// How many encoded entries the primary keeps in memory for tailing
/// replicas before old ones are evicted (evicted cursors re-bootstrap).
pub(crate) const REPL_LOG_CAP: usize = 4096;

/// Serialize one replication frame. The trailing checksum covers the
/// header *and* the payload, so a corrupted kind/seq/ts/len can never
/// masquerade as a different valid frame.
pub(crate) fn encode_frame(kind: u8, seq: u64, ts_ms: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len() + 8);
    buf.push(kind);
    put_u64(&mut buf, seq);
    put_u64(&mut buf, ts_ms);
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(payload);
    let crc = fnv1a(&buf);
    put_u64(&mut buf, crc);
    buf
}

/// One parsed replication frame.
#[derive(Debug, PartialEq)]
pub(crate) struct Frame {
    pub kind: u8,
    pub seq: u64,
    #[allow(dead_code)] // carried for operators sniffing the stream
    pub ts_ms: u64,
    pub payload: Vec<u8>,
}

/// Try to parse one frame off the front of `buf`. `Ok(None)` means the
/// buffer holds only a frame prefix (read more); `Ok(Some)` drains the
/// frame's bytes from the buffer.
pub(crate) fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Frame>, String> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let mut r = Reader::new(buf);
    let kind = r.take(1)?[0];
    if kind > FRAME_RESYNC {
        return Err(format!("replication frame has unknown kind {kind}"));
    }
    let seq = r.u64()?;
    let ts_ms = r.u64()?;
    let len = r.u32()? as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(format!(
            "replication frame payload of {len} bytes exceeds cap"
        ));
    }
    let total = FRAME_HEADER + len + 8;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = r.take(len)?;
    if fnv1a(&buf[..FRAME_HEADER + len]) != r.u64()? {
        return Err("replication frame checksum mismatch".into());
    }
    let payload = payload.to_vec();
    buf.drain(..total);
    Ok(Some(Frame {
        kind,
        seq,
        ts_ms,
        payload,
    }))
}

/// The primary's in-memory window of encoded journal-entry payloads,
/// sequence-numbered from process start. Publishers append under the
/// engine's core lock (so log order equals apply order); `replicate`
/// stream threads block on `ReplLog::wait_from`.
#[derive(Debug)]
pub struct ReplLog {
    inner: Mutex<LogInner>,
    cond: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct LogInner {
    frames: VecDeque<Arc<Vec<u8>>>,
    /// Sequence number of `frames[0]`.
    base: u64,
    sealed: bool,
}

/// What [`ReplLog::wait_from`] observed.
#[derive(Debug)]
pub(crate) enum Wait {
    /// Entries from the requested cursor onward: `(first_seq, payloads)`.
    Entries(u64, Vec<Arc<Vec<u8>>>),
    /// The cursor fell out of the window — the follower must
    /// re-bootstrap from a snapshot.
    Behind,
    /// Nothing new before the timeout (send a heartbeat).
    Timeout,
    /// The log was sealed (server shutting down) — end the stream.
    Sealed,
}

impl ReplLog {
    /// An empty log holding at most `cap` entries.
    pub(crate) fn new(cap: usize) -> ReplLog {
        ReplLog {
            inner: Mutex::new(LogInner {
                frames: VecDeque::new(),
                base: 0,
                sealed: false,
            }),
            cond: Condvar::new(),
            cap,
        }
    }

    /// Append one encoded entry payload, returning its sequence number.
    /// Evicts the oldest entry when the window is full.
    pub(crate) fn publish(&self, payload: Vec<u8>) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let seq = inner.base + inner.frames.len() as u64;
        inner.frames.push_back(Arc::new(payload));
        while inner.frames.len() > self.cap {
            inner.frames.pop_front();
            inner.base += 1;
        }
        self.cond.notify_all();
        seq
    }

    /// The sequence number the next published entry will get — also the
    /// number of entries ever published (minus invalidation skips).
    pub(crate) fn next(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.base + inner.frames.len() as u64
    }

    /// Mark the log finished (server shutdown): blocked waiters return
    /// [`Wait::Sealed`] and streams end cleanly.
    pub(crate) fn seal(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.sealed = true;
        self.cond.notify_all();
    }

    /// Drop the window and skip one sequence number, so every cursor a
    /// follower could hold becomes [`Wait::Behind`] and forces a fresh
    /// snapshot bootstrap. Called when `restore` replaces the state out
    /// from under tailing replicas.
    pub(crate) fn invalidate(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let next = inner.base + inner.frames.len() as u64;
        inner.frames.clear();
        inner.base = next + 1;
        self.cond.notify_all();
    }

    /// Block until entries at/after `from` exist, the log seals, or
    /// `timeout` elapses.
    pub(crate) fn wait_from(&self, from: u64, timeout: Duration) -> Wait {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let deadline = Instant::now() + timeout;
        loop {
            if from < inner.base {
                return Wait::Behind;
            }
            let next = inner.base + inner.frames.len() as u64;
            if from < next {
                let at = (from - inner.base) as usize;
                return Wait::Entries(from, inner.frames.iter().skip(at).cloned().collect());
            }
            if inner.sealed {
                return Wait::Sealed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Wait::Timeout;
            }
            let (guard, _) = self
                .cond
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
    }
}

/// A replica's view of its own replication progress, surfaced through
/// `stats`/`replstatus` and the `topk_replica_*` gauges.
#[derive(Debug, Clone, Default)]
pub struct ReplicaStatus {
    /// `HOST:PORT` of the primary this replica follows.
    pub source: String,
    /// Whether the tailer currently holds a live stream.
    pub connected: bool,
    /// Entries incorporated locally (snapshot bootstrap included): the
    /// next sequence number this replica expects.
    pub applied_seq: Option<u64>,
    /// The primary's next sequence number, per its latest frame or
    /// heartbeat — `head - applied` is the lag in entries.
    pub head_seq: Option<u64>,
    /// When the replica last heard from the primary (any frame or the
    /// handshake) — the basis of `replica_lag_ms`.
    pub last_contact: Option<Instant>,
    /// Whether the most recent apply attempt was refused by the
    /// replica's own memory budget (`--memory-budget-bytes`): the
    /// tailer is pausing and retrying, and lag grows until resident
    /// bytes shrink. Surfaces as `pressure` in `replstatus`.
    pub pressure: bool,
}

impl ReplicaStatus {
    /// Lag in entries (`head - applied`), when both ends are known.
    pub fn lag_entries(&self) -> Option<u64> {
        match (self.head_seq, self.applied_seq) {
            (Some(h), Some(a)) => Some(h.saturating_sub(a)),
            _ => None,
        }
    }
    /// Milliseconds since the primary was last heard from.
    pub fn lag_ms(&self) -> Option<u64> {
        self.last_contact
            .map(|t| t.elapsed().as_millis().min(u64::MAX as u128) as u64)
    }
}

/// Why one tailing session ended.
enum TailExit {
    /// Stop flag or engine shutdown — exit the tailer thread.
    Stopped,
    /// The engine is no longer a replica (promote ran) — exit.
    Promoted,
    /// The cursor fell out of the primary's window — reconnect with no
    /// cursor and bootstrap from a fresh snapshot.
    Resync,
    /// Connection lost / torn frame / refused handshake — reconnect
    /// with the cursor intact.
    Lost(String),
}

/// Buffered reader over the replication stream: accumulates bytes so a
/// read timeout mid-frame never desynchronizes the frame boundary.
struct TailStream {
    stream: TcpStream,
    buf: Vec<u8>,
}

enum Fill {
    Got,
    Eof,
    TimedOut,
}

impl TailStream {
    /// One read into the buffer, honoring the socket read timeout.
    fn fill(&mut self) -> Result<Fill, String> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(Fill::Got)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(Fill::TimedOut)
            }
            Err(e) => Err(format!("replication read: {e}")),
        }
    }

    /// The JSON header line (handshake response), within `deadline`.
    fn read_line(&mut self, deadline: Instant) -> Result<String, String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..line.len() - 1].to_vec())
                    .map_err(|_| "replication header is not UTF-8".to_string());
            }
            if Instant::now() >= deadline {
                return Err("timed out waiting for the replication header".into());
            }
            match self.fill()? {
                Fill::Eof => return Err("connection closed before the replication header".into()),
                Fill::Got | Fill::TimedOut => {}
            }
        }
    }

    /// Exactly `n` raw bytes (the streamed snapshot), within `deadline`.
    fn read_exact_n(&mut self, n: usize, deadline: Instant) -> Result<Vec<u8>, String> {
        while self.buf.len() < n {
            if Instant::now() >= deadline {
                return Err(format!(
                    "timed out mid-bootstrap ({} of {n} snapshot bytes)",
                    self.buf.len()
                ));
            }
            match self.fill()? {
                Fill::Eof => {
                    return Err(format!(
                        "connection closed mid-bootstrap ({} of {n} snapshot bytes)",
                        self.buf.len()
                    ))
                }
                Fill::Got | Fill::TimedOut => {}
            }
        }
        Ok(self.buf.drain(..n).collect())
    }

    /// The next complete frame, `Ok(None)` on a quiet read-timeout tick
    /// (caller re-checks its stop conditions and calls again).
    fn next_frame(&mut self) -> Result<Option<Frame>, String> {
        loop {
            if let Some(frame) = take_frame(&mut self.buf)? {
                return Ok(Some(frame));
            }
            match self.fill()? {
                Fill::Eof => return Err("primary closed the replication stream".into()),
                Fill::TimedOut => return Ok(None),
                Fill::Got => {}
            }
        }
    }
}

/// Connect to `addr` with a bounded connect timeout (first resolvable
/// candidate wins).
fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let addrs: Vec<_> = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .collect();
    let mut last = format!("{addr} did not resolve to any address");
    for a in addrs {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = format!("cannot connect to {a}: {e}"),
        }
    }
    Err(last)
}

/// Spawn the replica-side tailer thread: bootstrap from `primary`, then
/// apply its journal stream until the stop flag rises or the engine is
/// promoted. Reconnects (with backoff) across connection loss, torn
/// frames, and primary restarts.
pub fn spawn_tailer(
    engine: Arc<Engine>,
    primary: String,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let spawned = std::thread::Builder::new()
        .name("repl-tailer".into())
        .spawn(move || {
            engine.update_replica_status(|s| s.source = primary.clone());
            let mut cursor: Option<u64> = None;
            let mut sessions = 0u64;
            while !stop.load(Ordering::Relaxed) && engine.role() == Role::Replica {
                let exit = tail_once(&engine, &primary, &mut cursor, sessions, &stop);
                engine.update_replica_status(|s| s.connected = false);
                match exit {
                    TailExit::Stopped | TailExit::Promoted => break,
                    TailExit::Resync => {
                        topk_obs::warn!("replica fell out of {primary}'s window; re-bootstrapping");
                        cursor = None;
                    }
                    TailExit::Lost(e) => {
                        topk_obs::warn!("replication stream to {primary} lost: {e}");
                    }
                }
                sessions += 1;
                // Short backoff, stop-aware.
                for _ in 0..4 {
                    if stop.load(Ordering::Relaxed) || engine.role() != Role::Replica {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            engine.update_replica_status(|s| s.connected = false);
        });
    match spawned {
        Ok(handle) => handle,
        Err(e) => {
            // Thread exhaustion must not panic a long-lived server; the
            // replica keeps serving reads (stale) and the operator sees
            // the error. The dummy handle preserves join semantics.
            topk_obs::error!("cannot spawn repl-tailer thread: {e}");
            std::thread::spawn(|| {})
        }
    }
}

/// One replication session: handshake, optional snapshot bootstrap,
/// frame loop. `cursor` is the next sequence number this replica
/// expects (`None` forces a snapshot bootstrap).
fn tail_once(
    engine: &Arc<Engine>,
    primary: &str,
    cursor: &mut Option<u64>,
    sessions: u64,
    stop: &AtomicBool,
) -> TailExit {
    let stream = match connect(primary, Duration::from_secs(2)) {
        Ok(s) => s,
        Err(e) => return TailExit::Lost(e),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut handshake = format!(r#"{{"cmd":"replicate","epoch":{}"#, engine.epoch());
    if let Some(from) = *cursor {
        handshake.push_str(&format!(r#","from":{from}"#));
    }
    handshake.push_str("}\n");
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return TailExit::Lost(format!("cannot clone stream: {e}")),
    };
    if let Err(e) = writer.write_all(handshake.as_bytes()) {
        return TailExit::Lost(format!("handshake write: {e}"));
    }
    let mut tail = TailStream {
        stream,
        buf: Vec::new(),
    };
    let header_deadline = Instant::now() + Duration::from_secs(10);
    let line = match tail.read_line(header_deadline) {
        Ok(l) => l,
        Err(e) => return TailExit::Lost(e),
    };
    let header = match crate::json::parse(&line) {
        Ok(h) => h,
        Err(e) => return TailExit::Lost(format!("bad replication header: {e}")),
    };
    if header.get("ok").and_then(Json::as_bool) != Some(true) {
        return TailExit::Lost(format!("primary refused replication: {line}"));
    }
    let num = |name: &str| header.get(name).and_then(Json::as_f64).map(|v| v as u64);
    let (Some(epoch), Some(seq), Some(head)) = (num("epoch"), num("seq"), num("head")) else {
        return TailExit::Lost(format!("replication header missing members: {line}"));
    };
    if epoch < engine.epoch() {
        return TailExit::Lost(format!(
            "refusing stale primary: its epoch {epoch} < ours {} (split-brain guard)",
            engine.epoch()
        ));
    }
    engine.set_epoch(epoch);
    match header.get("mode").and_then(Json::as_str) {
        Some("tail") => {}
        Some("snapshot") => {
            let n = match num("snapshot_bytes") {
                Some(n) => n as usize,
                None => return TailExit::Lost(format!("header missing snapshot_bytes: {line}")),
            };
            let bytes = match tail.read_exact_n(n, Instant::now() + Duration::from_secs(60)) {
                Ok(b) => b,
                Err(e) => return TailExit::Lost(e),
            };
            if let Err(e) = engine.restore_bytes(&bytes) {
                return TailExit::Lost(format!("bootstrap restore: {e}"));
            }
            Metrics::incr(&engine.metrics.replica_bootstraps);
            topk_obs::info!(
                "replica bootstrapped from {primary}: {n} snapshot bytes, cursor {seq}"
            );
        }
        other => return TailExit::Lost(format!("unknown replication mode {other:?}")),
    }
    *cursor = Some(seq);
    if sessions > 0 {
        Metrics::incr(&engine.metrics.replica_reconnects);
    }
    engine.update_replica_status(|s| {
        s.connected = true;
        s.applied_seq = Some(seq);
        s.head_seq = Some(head.max(seq));
        s.last_contact = Some(Instant::now());
    });

    let mut expected = seq;
    loop {
        if stop.load(Ordering::Relaxed) {
            return TailExit::Stopped;
        }
        if engine.role() != Role::Replica {
            return TailExit::Promoted;
        }
        let frame = match tail.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => continue, // quiet timeout tick; re-check role/stop
            Err(e) => return TailExit::Lost(e),
        };
        engine.update_replica_status(|s| s.last_contact = Some(Instant::now()));
        match frame.kind {
            FRAME_HEARTBEAT => {
                engine.update_replica_status(|s| {
                    s.head_seq = Some(frame.seq.max(s.head_seq.unwrap_or(0)));
                });
            }
            FRAME_RESYNC => return TailExit::Resync,
            FRAME_ENTRY => {
                if frame.seq < expected {
                    continue; // duplicate after a reconnect — already applied
                }
                if frame.seq > expected {
                    return TailExit::Resync; // gap: our cursor is invalid
                }
                let rows = match journal::decode_entry(&frame.payload) {
                    Ok(r) => r,
                    Err(e) => return TailExit::Lost(format!("torn entry payload: {e}")),
                };
                match engine.apply_replica_entry(rows) {
                    Ok(true) => {}
                    Ok(false) => return TailExit::Promoted,
                    Err(e) if e.starts_with("memory_pressure") => {
                        // The replica's own ingest budget refused the
                        // entry: surface it (`replstatus` pressure),
                        // pause the hinted backoff, and reconnect with
                        // the cursor intact — the primary re-serves
                        // from here once resident bytes shrink.
                        engine.update_replica_status(|s| s.pressure = true);
                        let mut waited = 0u64;
                        while waited < crate::overload::RETRY_AFTER_MS
                            && !stop.load(Ordering::Relaxed)
                        {
                            std::thread::sleep(Duration::from_millis(50));
                            waited += 50;
                        }
                        return TailExit::Lost(format!("replica apply: {e}"));
                    }
                    Err(e) => return TailExit::Lost(format!("replica apply: {e}")),
                }
                expected += 1;
                *cursor = Some(expected);
                Metrics::incr(&engine.metrics.replica_frames);
                engine.update_replica_status(|s| {
                    s.applied_seq = Some(expected);
                    s.head_seq = Some((frame.seq + 1).max(s.head_seq.unwrap_or(0)));
                    s.pressure = false;
                });
            }
            _ => unreachable!("take_frame rejects unknown kinds"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let payload = b"hello frames".to_vec();
        let mut buf = encode_frame(FRAME_ENTRY, 7, 123, &payload);
        let tail_byte = buf.len();
        buf.extend_from_slice(&encode_frame(FRAME_HEARTBEAT, 9, 124, &[]));
        let f = take_frame(&mut buf).unwrap().unwrap();
        assert_eq!(
            f,
            Frame {
                kind: FRAME_ENTRY,
                seq: 7,
                ts_ms: 123,
                payload
            }
        );
        let f = take_frame(&mut buf).unwrap().unwrap();
        assert_eq!(f.kind, FRAME_HEARTBEAT);
        assert_eq!(f.seq, 9);
        assert!(buf.is_empty());
        assert!(take_frame(&mut buf).unwrap().is_none(), "empty buffer");

        // Every single-byte corruption of an entry frame is rejected or
        // yields an incomplete parse — never an accepted frame. The
        // checksum covers the header, so even kind/seq/ts flips are
        // caught.
        let good = encode_frame(FRAME_ENTRY, 7, 123, b"hello frames");
        for i in 0..tail_byte {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            let mut b = bad.clone();
            match take_frame(&mut b) {
                Err(_) => {}   // kind/len/crc check caught it
                Ok(None) => {} // len flip made the frame "incomplete"
                Ok(Some(_)) => panic!("flip at byte {i} was accepted as a valid frame"),
            }
        }
    }

    #[test]
    fn take_frame_waits_for_complete_frames() {
        let full = encode_frame(FRAME_ENTRY, 0, 1, b"abc");
        for cut in 0..full.len() {
            let mut buf = full[..cut].to_vec();
            assert!(
                take_frame(&mut buf).unwrap().is_none(),
                "prefix of {cut} bytes parsed as a frame"
            );
            assert_eq!(buf.len(), cut, "prefix must not be consumed");
        }
    }

    #[test]
    fn repl_log_windows_and_seals() {
        let log = ReplLog::new(3);
        assert_eq!(log.next(), 0);
        for i in 0..5u8 {
            assert_eq!(log.publish(vec![i]), i as u64);
        }
        // Capacity 3: seqs 0 and 1 were evicted.
        match log.wait_from(1, Duration::from_millis(10)) {
            Wait::Behind => {}
            other => panic!("expected Behind, got {other:?}"),
        }
        match log.wait_from(3, Duration::from_millis(10)) {
            Wait::Entries(first, frames) => {
                assert_eq!(first, 3);
                assert_eq!(frames.len(), 2);
                assert_eq!(*frames[0], vec![3u8]);
            }
            other => panic!("expected Entries, got {other:?}"),
        }
        // Caught up: timeout, then sealed.
        match log.wait_from(5, Duration::from_millis(10)) {
            Wait::Timeout => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        log.seal();
        match log.wait_from(5, Duration::from_millis(10)) {
            Wait::Sealed => {}
            other => panic!("expected Sealed, got {other:?}"),
        }
    }

    #[test]
    fn repl_log_wakes_blocked_waiters() {
        let log = Arc::new(ReplLog::new(16));
        let waiter = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.wait_from(0, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(30));
        log.publish(b"wake".to_vec());
        match waiter.join().unwrap() {
            Wait::Entries(0, frames) => assert_eq!(*frames[0], b"wake".to_vec()),
            other => panic!("expected Entries, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_forces_every_cursor_behind() {
        let log = ReplLog::new(16);
        log.publish(b"a".to_vec());
        log.publish(b"b".to_vec());
        let caught_up = log.next(); // 2
        log.invalidate();
        for cursor in 0..=caught_up {
            match log.wait_from(cursor, Duration::from_millis(5)) {
                Wait::Behind => {}
                other => panic!("cursor {cursor} after invalidate: {other:?}"),
            }
        }
        // New publishes land above the skipped seq and are servable.
        let seq = log.publish(b"c".to_vec());
        assert_eq!(seq, caught_up + 1);
        match log.wait_from(seq, Duration::from_millis(10)) {
            Wait::Entries(first, frames) => {
                assert_eq!(first, seq);
                assert_eq!(*frames[0], b"c".to_vec());
            }
            other => panic!("expected Entries, got {other:?}"),
        }
    }
}
