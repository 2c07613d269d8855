//! The TCP server: accept loop, per-connection threads, dispatch, and
//! the robustness layer (deadlines, shedding, panic isolation).
//!
//! Plain `std::net` blocking I/O with one thread per connection — the
//! workspace ships no async runtime, and the expected client population
//! (analysts, dashboards, the load generator) is tens of connections,
//! far below where thread-per-connection hurts. All connections share
//! one [`Engine`] behind its internal `RwLock`.
//!
//! # Robustness (`docs/ROBUSTNESS.md`)
//!
//! The server assumes clients misbehave:
//!
//! - **Deadlines.** Once a request's first byte arrives, the full line
//!   must arrive within [`ServerConfig::read_timeout`] (slow-loris
//!   writers get cut off); a connection may sit idle between requests
//!   for at most [`ServerConfig::idle_timeout`] (half-open connections
//!   don't pin threads forever). Response writes are bounded by
//!   [`ServerConfig::write_timeout`] (clients that stop reading don't
//!   wedge handlers). Timed-out connections get a final
//!   `err:"timeout"` envelope where the socket still accepts it.
//! - **Request-size guard.** A line longer than
//!   [`ServerConfig::max_request_bytes`] is answered with a structured
//!   `err:"too_large"` envelope — not a dropped connection — and the
//!   oversized line is discarded up to its newline so the connection
//!   can keep serving.
//! - **Load shedding.** At most [`ServerConfig::max_connections`]
//!   connections are served concurrently; excess connections get a fast
//!   `err:"overloaded"` line and a close, counted in
//!   `topk_server_shed_total`, without ever touching the engine.
//! - **Panic isolation.** Each request is dispatched under
//!   `catch_unwind`; a panicking handler answers `err:"internal"` and
//!   the connection (and the accept loop, and the engine lock — see
//!   [`Engine`]'s poison recovery) live on.
//! - **Graceful drain.** Shutdown stops accepting, half-closes every
//!   connection's read side so in-flight responses still go out, joins
//!   the handler threads, then writes the exit snapshot.
//!
//! Shutdown protocol: any client may send `{"cmd":"shutdown"}`. The
//! handler acknowledges, raises the shared flag, and pokes the listener
//! with a loopback connection so the blocking `accept` wakes up.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::engine::Engine;
use crate::introspection::SlowQueryLog;
use crate::json::{obj, Json};
use crate::metrics::Metrics;
use crate::overload::RETRY_AFTER_MS;
use crate::protocol::{err_response, ok_response, parse_request_meta, ProtoError, Request};
use crate::replication::{self, Role, Wait};

/// Per-connection limits and deadlines. All knobs surface as
/// `topk serve` flags; a zero duration or zero count disables that
/// limit (accept the DoS risk consciously).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Max time from a request's first byte to its newline.
    pub read_timeout: Duration,
    /// Max time for one blocking response write.
    pub write_timeout: Duration,
    /// Max time a connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Max bytes in one request line (guard against unbounded buffering).
    pub max_request_bytes: usize,
    /// Max concurrently served connections; excess ones are shed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            max_request_bytes: 4 << 20,
            max_connections: 256,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    /// Snapshot written right before exit, when set.
    pub snapshot_on_exit: Option<PathBuf>,
    /// When set, requests slower than the log's threshold are appended
    /// as JSON lines (`topk serve --slow-log`;
    /// `docs/OBSERVABILITY.md`, *Slow-query log*).
    pub slow_log: Option<Arc<SlowQueryLog>>,
    /// Limits and deadlines; adjust before [`run`](Self::run).
    pub config: ServerConfig,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:7411`; port 0 picks an ephemeral
    /// port — read it back with [`local_addr`](Self::local_addr)).
    pub fn bind(addr: &str, engine: Arc<Engine>) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address of {addr}: {e}"))?;
        Ok(Server {
            listener,
            addr: bound,
            engine,
            shutdown: Arc::new(AtomicBool::new(false)),
            snapshot_on_exit: None,
            slow_log: None,
            config: ServerConfig::default(),
        })
    }

    /// The bound address (captured at bind time).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a client sends `shutdown`. Returns after all
    /// connection threads drained and the metrics line was logged.
    pub fn run(self) -> Result<(), String> {
        let addr = self.local_addr();
        let cfg = Arc::new(self.config.clone());
        let active = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        // Clones of every live stream plus a done flag and an
        // is-replication flag per handler, so the drain below can
        // half-close connections blocked in a read and sequence the
        // replication seal after ordinary handlers finish (the list
        // stays bounded by pruning finished ones).
        let mut open: Vec<(TcpStream, Arc<AtomicBool>, Arc<AtomicBool>)> = Vec::new();
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    // Transient accept failures (EMFILE, resets) must
                    // not kill the server; log and keep accepting.
                    topk_obs::warn!("accept failed: {e}");
                    continue;
                }
            };
            open.retain(|(_, done, _)| !done.load(Ordering::Relaxed));
            if cfg.max_connections > 0 && active.load(Ordering::SeqCst) >= cfg.max_connections {
                // Load shedding: a fast structured refusal on a
                // throwaway thread — a malicious peer that never reads
                // must not block the accept loop for even a second.
                Metrics::incr(&self.engine.metrics.server_shed);
                // Sheds count against the availability SLO: the client
                // asked and was refused (`docs/OBSERVABILITY.md`,
                // *What counts against the SLO*).
                self.engine.record_query_outcome(Duration::ZERO, false);
                topk_obs::debug!("shedding connection (cap {} reached)", cfg.max_connections);
                std::thread::spawn(move || {
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let mut s = stream;
                    let _ = s.write_all(overloaded_line().as_bytes());
                    let _ = s.shutdown(Shutdown::Both);
                });
                continue;
            }
            Metrics::incr(&self.engine.metrics.connections);
            active.fetch_add(1, Ordering::SeqCst);
            let done = Arc::new(AtomicBool::new(false));
            let repl = Arc::new(AtomicBool::new(false));
            if let Ok(clone) = stream.try_clone() {
                open.push((clone, Arc::clone(&done), Arc::clone(&repl)));
            }
            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            let cfg = Arc::clone(&cfg);
            let active = Arc::clone(&active);
            let slow_log = self.slow_log.clone();
            handles.push(std::thread::spawn(move || {
                handle_connection(
                    stream,
                    &engine,
                    &shutdown,
                    addr,
                    &cfg,
                    slow_log.as_deref(),
                    &repl,
                );
                done.store(true, Ordering::Relaxed);
                active.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        // Graceful drain, in three phases so the acked prefix reaches
        // connected replicas:
        //
        // 1. Half-close the read side of every *ordinary* connection.
        //    Handlers blocked in a read wake with EOF and exit;
        //    handlers mid-request finish computing (publishing their
        //    journal entry) and their response write still succeeds
        //    (the write side stays open until they return).
        for (s, _, repl) in &open {
            if !repl.load(Ordering::Relaxed) {
                let _ = s.shutdown(Shutdown::Read);
            }
        }
        // 2. Wait for those handlers to drain, so every entry that was
        //    (or will be) acked is in the replication log before it
        //    seals. Bounded: their reads EOF'd and writes carry the
        //    configured write timeout.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while open
            .iter()
            .any(|(_, done, repl)| !repl.load(Ordering::Relaxed) && !done.load(Ordering::Relaxed))
            && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        // 3. Seal the log. Replication streams block in
        //    `ReplLog::wait_from`, not a socket read — the seal wakes
        //    them, they flush any tail entries, end their streams, and
        //    join below.
        self.engine.seal_replication();
        for (s, _, _) in &open {
            let _ = s.shutdown(Shutdown::Read);
        }
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = &self.snapshot_on_exit {
            match self.engine.snapshot(path) {
                Ok(bytes) => {
                    topk_obs::info!("exit snapshot: {} ({bytes} bytes)", path.display())
                }
                Err(e) => topk_obs::error!("exit snapshot failed: {e}"),
            }
        }
        topk_obs::info!("topk-service: {}", self.engine.metrics.log_line());
        Ok(())
    }

    /// Run on a background thread; returns the bound address and the
    /// join handle (used by tests and the load generator).
    pub fn spawn(self) -> (SocketAddr, std::thread::JoinHandle<Result<(), String>>) {
        let addr = self.local_addr();
        (addr, std::thread::spawn(move || self.run()))
    }
}

/// The response line shed connections receive (trailing newline
/// included).
pub fn overloaded_line() -> String {
    let mut line = err_response(
        &ProtoError::new("overloaded", "connection limit reached, retry with backoff")
            .with_retry_after(RETRY_AFTER_MS),
    );
    line.push('\n');
    line
}

/// What one attempt to read a request line produced.
enum ReadOutcome {
    /// A complete line (newline stripped, possibly empty).
    Line(String),
    /// A complete line that is not UTF-8 (`docs/SERVICE.md`: lines are).
    NotUtf8,
    /// The line exceeded `max_request_bytes` before its newline.
    TooLarge,
    /// No request byte arrived within the idle timeout.
    IdleTimeout,
    /// A started request did not complete within the read timeout.
    ReadTimeout,
    /// Peer closed (or drain half-closed) the read side.
    Eof,
    /// Hard I/O error.
    Error,
}

/// A line reader with byte-level deadline accounting — `BufReader::lines`
/// can neither cap line length nor distinguish "idle between requests"
/// from "stalled mid-request", so requests are assembled by hand.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// How much of `buf` earlier calls searched and found no newline in.
    scanned: usize,
    /// When the oldest unconsumed byte of the current line arrived.
    started: Option<Instant>,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            started: None,
        }
    }

    /// Offset of the first newline in the buffer, searching only the
    /// bytes that arrived since the last call.
    fn find_newline(&mut self) -> Option<usize> {
        let found = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
        let nl = found.map(|i| self.scanned + i);
        self.scanned = nl.unwrap_or(self.buf.len());
        nl
    }

    /// Move the line that ends at the newline at `nl` out of the buffer
    /// (newline dropped); what follows it stays.
    fn take_line(&mut self, nl: usize) -> Vec<u8> {
        let rest = self.buf.split_off(nl + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.truncate(nl);
        self.scanned = 0;
        self.started = if self.buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        line
    }

    /// Block until a full line, a deadline, the size cap, or EOF.
    fn read_line(&mut self, cfg: &ServerConfig) -> ReadOutcome {
        let idle_since = Instant::now();
        loop {
            // Size-check BEFORE extracting: a complete line that is
            // itself oversized must be rejected, not served (whether the
            // newline has arrived yet is a TCP coalescing accident).
            match self.find_newline() {
                Some(nl) if cfg.max_request_bytes > 0 && nl > cfg.max_request_bytes => {
                    return ReadOutcome::TooLarge;
                }
                // The line's bytes move into the `String`; this is the
                // one UTF-8 validation a request gets (`json::parse`
                // slices the `&str` without validating again).
                Some(nl) => {
                    return match String::from_utf8(self.take_line(nl)) {
                        Ok(line) => ReadOutcome::Line(line),
                        Err(_) => ReadOutcome::NotUtf8,
                    }
                }
                None if cfg.max_request_bytes > 0 && self.buf.len() > cfg.max_request_bytes => {
                    return ReadOutcome::TooLarge;
                }
                None => {}
            }
            // Between requests the idle clock runs; once the first byte
            // of a request is in, the (typically shorter) read deadline
            // takes over.
            let (deadline, timeout_kind) = match self.started {
                Some(t0) if !self.buf.is_empty() => (
                    checked_deadline(t0, cfg.read_timeout),
                    ReadOutcome::ReadTimeout,
                ),
                _ => (
                    checked_deadline(idle_since, cfg.idle_timeout),
                    ReadOutcome::IdleTimeout,
                ),
            };
            let wait = match deadline {
                None => None, // that limit is disabled
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return timeout_kind,
                },
            };
            if self.stream.set_read_timeout(wait).is_err() {
                return ReadOutcome::Error;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    if self.buf.is_empty() {
                        self.started = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Loop: the deadline arithmetic above decides
                    // whether this tick actually expired the budget.
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Error,
            }
        }
    }

    /// After a `TooLarge`, drop bytes until the offending line's newline
    /// so the connection can resynchronize. The read deadline still
    /// applies — a peer that streams forever without a newline gets
    /// disconnected, not buffered.
    fn discard_line(&mut self, cfg: &ServerConfig) -> bool {
        let t0 = Instant::now();
        loop {
            if let Some(nl) = self.find_newline() {
                self.take_line(nl);
                return true;
            }
            // Nothing before a newline is ever needed again.
            self.buf.clear();
            self.scanned = 0;
            let wait = match checked_deadline(t0, cfg.read_timeout) {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return false,
                },
            };
            if self.stream.set_read_timeout(wait).is_err() {
                return false;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

/// `None` when the limit is disabled (zero duration).
fn checked_deadline(t0: Instant, limit: Duration) -> Option<Instant> {
    if limit.is_zero() {
        None
    } else {
        Some(t0 + limit)
    }
}

fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    cfg: &ServerConfig,
    slow_log: Option<&SlowQueryLog>,
    repl: &AtomicBool,
) {
    let writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if cfg.write_timeout > Duration::ZERO {
        let _ = writer.set_write_timeout(Some(cfg.write_timeout));
    }
    let mut writer = writer;
    let mut reader = LineReader::new(stream);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.read_line(cfg) {
            ReadOutcome::Line(line) => {
                if line.trim().is_empty() {
                    // Blank keep-alive lines are ignored, not errors.
                    continue;
                }
                // `replicate` takes over the whole connection: after the
                // handshake the primary pushes frames until the stream
                // ends, so the request/response loop stops here. The
                // substring check keeps the common path free of a second
                // parse; false positives fall through to a real parse.
                if line.contains("\"replicate\"") {
                    if let Ok((Request::Replicate { epoch, from }, _)) = parse_request_meta(&line) {
                        // Mark the connection before the stream starts:
                        // the graceful drain sequences the replication
                        // seal after ordinary handlers, keyed on this.
                        repl.store(true, Ordering::SeqCst);
                        serve_replication(&mut writer, engine, epoch, from);
                        break;
                    }
                }
                let t0 = Instant::now();
                let mut sp = topk_obs::Span::enter("service.request");
                let (response, stop, info) = dispatch_isolated(&line, engine);
                if sp.is_recording() {
                    sp.record("cmd", info.cmd);
                    if let Some(t) = &info.trace {
                        // The client-chosen id that stitches this
                        // span to the client's own timeline.
                        sp.record("trace", t.as_str());
                    }
                }
                drop(sp);
                let latency = t0.elapsed();
                if info.is_query {
                    engine.record_query_outcome(latency, info.ok);
                }
                if let Some(log) = slow_log {
                    if latency >= log.threshold() {
                        Metrics::incr(&engine.metrics.slow_queries);
                        if let Err(e) = log.log(&slow_record(&line, latency, &info)) {
                            topk_obs::warn!("slow-query log write failed: {e}");
                        }
                    }
                }
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                if stop {
                    shutdown.store(true, Ordering::SeqCst);
                    // Wake the blocking accept so the run loop can exit.
                    let _ = TcpStream::connect(addr);
                    break;
                }
            }
            ReadOutcome::NotUtf8 => {
                Metrics::incr(&engine.metrics.errors);
                let e = ProtoError::new("bad_json", "request line is not valid UTF-8");
                if write_line(&mut writer, &err_response(&e)).is_err() {
                    break;
                }
            }
            ReadOutcome::TooLarge => {
                Metrics::incr(&engine.metrics.server_oversized);
                Metrics::incr(&engine.metrics.errors);
                let response = err_response(&ProtoError::new(
                    "too_large",
                    format!(
                        "request exceeds {} bytes; split the batch",
                        cfg.max_request_bytes
                    ),
                ));
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                if !reader.discard_line(cfg) {
                    break;
                }
            }
            ReadOutcome::IdleTimeout | ReadOutcome::ReadTimeout => {
                Metrics::incr(&engine.metrics.server_timeouts);
                let response =
                    err_response(&ProtoError::new("timeout", "connection deadline exceeded"));
                let _ = write_line(&mut writer, &response);
                break;
            }
            ReadOutcome::Eof | ReadOutcome::Error => break,
        }
    }
    let _ = writer.shutdown(Shutdown::Both);
}

/// Serve one replication stream on a taken-over connection: epoch
/// check, header line, optional snapshot bytes, then entry frames and
/// 150ms heartbeats until the stream ends (replica gone, log sealed,
/// or the cursor fell out of the window).
///
/// Wire protocol (`docs/SERVICE.md`, *Replication*): the header is one
/// JSON line `{"ok":true,"mode":"snapshot"|"tail","epoch":E,"seq":S,
/// "head":H[,"snapshot_bytes":N]}`; `seq` is the cursor the frame
/// stream starts from. In snapshot mode exactly `snapshot_bytes` raw
/// bytes follow the header before the first frame.
fn serve_replication(
    writer: &mut TcpStream,
    engine: &Engine,
    requester_epoch: u64,
    from: Option<u64>,
) {
    Metrics::incr(&engine.metrics.repl_streams);
    let _ = writer.set_nodelay(true);
    let epoch = engine.epoch();
    if requester_epoch > epoch {
        // The requester has witnessed a newer epoch than ours: a
        // promotion happened elsewhere and *we* are the stale side.
        // Refusing keeps a partitioned ex-primary from feeding a
        // diverged history to followers (split-brain guard).
        Metrics::incr(&engine.metrics.errors);
        let e = ProtoError::new(
            "not_primary",
            format!("requester epoch {requester_epoch} > ours {epoch}; this primary is stale"),
        );
        let _ = write_line(writer, &err_response(&e));
        return;
    }
    let mut sp = topk_obs::Span::enter("service.replicate");
    let log = engine.repl_log();
    // Tail when the follower's cursor is still inside the window;
    // anything else (no cursor, evicted cursor, or a cursor from a
    // different history claiming entries we never published) gets a
    // fresh snapshot.
    let tail_cursor = from
        .filter(|&f| f <= log.next() && !matches!(log.wait_from(f, Duration::ZERO), Wait::Behind));
    let tail_ok = tail_cursor.is_some();
    let mut cursor;
    if let Some(f) = tail_cursor {
        cursor = f;
        let header = obj(vec![
            ("ok", Json::Bool(true)),
            ("mode", Json::Str("tail".into())),
            ("epoch", Json::Num(epoch as f64)),
            ("seq", Json::Num(cursor as f64)),
            ("head", Json::Num(log.next() as f64)),
        ]);
        if write_line(writer, &header.to_string()).is_err() {
            return;
        }
    } else {
        // `snapshot_bytes` captures the state and its replication
        // cursor under one core lock, so the frame stream resumes
        // exactly where the snapshot left off — no gap, no double
        // apply.
        let (bytes, seq) = match engine.snapshot_bytes() {
            Ok(pair) => pair,
            Err(e) => {
                Metrics::incr(&engine.metrics.errors);
                let e =
                    ProtoError::new("internal", format!("cannot encode bootstrap snapshot: {e}"));
                let _ = write_line(writer, &err_response(&e));
                return;
            }
        };
        cursor = seq;
        let header = obj(vec![
            ("ok", Json::Bool(true)),
            ("mode", Json::Str("snapshot".into())),
            ("epoch", Json::Num(epoch as f64)),
            ("seq", Json::Num(cursor as f64)),
            ("head", Json::Num(cursor as f64)),
            ("snapshot_bytes", Json::Num(bytes.len() as f64)),
        ]);
        if write_line(writer, &header.to_string()).is_err() {
            return;
        }
        if writer.write_all(&bytes).is_err() {
            return;
        }
        if sp.is_recording() {
            sp.record("snapshot_bytes", bytes.len() as u64);
        }
    }
    if sp.is_recording() {
        sp.record("mode", if tail_ok { "tail" } else { "snapshot" });
        sp.record("seq", cursor);
    }
    drop(sp);
    let now_ms = || {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    };
    // No shutdown-flag check here: the drain in [`Server::run`] seals
    // the log only after every ordinary handler finished (and so after
    // every acked entry was published), and `Wait::Sealed` ends the
    // stream — exiting any earlier could drop an acked entry.
    loop {
        match log.wait_from(cursor, Duration::from_millis(150)) {
            Wait::Entries(first, payloads) => {
                let mut seq = first;
                for p in payloads {
                    let frame =
                        replication::encode_frame(replication::FRAME_ENTRY, seq, now_ms(), &p);
                    if writer.write_all(&frame).is_err() {
                        return;
                    }
                    seq += 1;
                }
                cursor = seq;
            }
            Wait::Timeout => {
                // Heartbeats double as lag probes: the replica learns
                // the primary's head even when no entries flow.
                let frame = replication::encode_frame(
                    replication::FRAME_HEARTBEAT,
                    log.next(),
                    now_ms(),
                    &[],
                );
                if writer.write_all(&frame).is_err() {
                    return;
                }
            }
            Wait::Behind => {
                // The window moved past this stream's cursor (eviction
                // or a restore-driven invalidation). Tell the replica
                // to re-bootstrap and end the stream.
                let frame =
                    replication::encode_frame(replication::FRAME_RESYNC, cursor, now_ms(), &[]);
                let _ = writer.write_all(&frame);
                return;
            }
            Wait::Sealed => return,
        }
    }
}

fn write_line(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    // One write call per response: the line is small relative to socket
    // buffers, and a single syscall keeps the write-timeout semantics
    // simple (the OS applies SO_SNDTIMEO per call).
    let mut out = Vec::with_capacity(response.len() + 1);
    out.extend_from_slice(response.as_bytes());
    out.push(b'\n');
    writer.write_all(&out)?;
    writer.flush()
}

/// What the connection handler needs to know about a dispatched
/// request beyond its response bytes: SLO accounting, span stamping,
/// and the slow-query log all key off it.
#[derive(Debug, Clone)]
pub struct RequestInfo {
    /// Protocol command name (`"invalid"` when the line didn't parse,
    /// `"panic"` when the handler panicked).
    pub cmd: &'static str,
    /// Client-provided trace id, when the request carried one.
    pub trace: Option<String>,
    /// Whether this was a query-class request (`topk`/`topr`) — the
    /// population the SLO windows track.
    pub is_query: bool,
    /// Whether the response is a success envelope.
    pub ok: bool,
}

impl RequestInfo {
    fn failed(cmd: &'static str) -> RequestInfo {
        RequestInfo {
            cmd,
            trace: None,
            is_query: false,
            ok: false,
        }
    }
}

/// The slow-query log record: timestamp, correlation id, what ran, how
/// long it took, and how it ended. The raw request line (truncated) is
/// the profile summary — it carries `k`, `approx`, `explain`, and the
/// batch size, which is what "why was this slow" starts from.
fn slow_record(line: &str, latency: Duration, info: &RequestInfo) -> Json {
    const MAX_REQUEST_ECHO: usize = 256;
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut echo: String = line.chars().take(MAX_REQUEST_ECHO).collect();
    if echo.len() < line.len() {
        echo.push_str("...");
    }
    obj(vec![
        ("ts_unix_ms", Json::Num(ts_ms as f64)),
        ("cmd", Json::Str(info.cmd.to_string())),
        (
            "trace",
            match &info.trace {
                Some(t) => Json::Str(t.clone()),
                None => Json::Null,
            },
        ),
        ("latency_micros", Json::Num(latency.as_micros() as f64)),
        ("ok", Json::Bool(info.ok)),
        ("request", Json::Str(echo)),
    ])
}

/// [`dispatch_full`] under `catch_unwind`: a panicking handler must not
/// take the connection thread down mid-protocol — the client gets a
/// structured `err:"internal"` and the connection keeps serving.
fn dispatch_isolated(line: &str, engine: &Engine) -> (String, bool, RequestInfo) {
    match catch_unwind(AssertUnwindSafe(|| dispatch_full(line, engine))) {
        Ok(result) => result,
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".into());
            Metrics::incr(&engine.metrics.server_panics);
            Metrics::incr(&engine.metrics.errors);
            topk_obs::error!("request handler panicked: {what}");
            (
                err_response(&ProtoError::new(
                    "internal",
                    "request handler panicked; state recovered",
                )),
                false,
                RequestInfo::failed("panic"),
            )
        }
    }
}

/// Execute one request line; returns the response and whether the server
/// should shut down. Thin wrapper over [`dispatch_full`] for callers
/// that don't need the request metadata.
pub fn dispatch(line: &str, engine: &Engine) -> (String, bool) {
    let (response, stop, _) = dispatch_full(line, engine);
    (response, stop)
}

/// Execute one request line; returns the response, whether the server
/// should shut down, and the [`RequestInfo`] the connection handler
/// feeds into SLO tracking and the slow-query log.
pub fn dispatch_full(line: &str, engine: &Engine) -> (String, bool, RequestInfo) {
    let t0 = Instant::now();
    let (request, meta) = match parse_request_meta(line) {
        Ok(r) => r,
        Err(e) => {
            Metrics::incr(&engine.metrics.errors);
            return (err_response(&e), false, RequestInfo::failed("invalid"));
        }
    };
    let trace = meta.trace;
    // The deadline anchors at receipt: `deadline_ms` is the *remaining*
    // budget the client grants this attempt, so network transit already
    // spent is the client's to account for (it stamps the remainder).
    let deadline = meta.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
    let cmd = match &request {
        Request::Ping => "ping",
        Request::Ingest(_) => "ingest",
        Request::TopK { .. } => "topk",
        Request::TopR { .. } => "topr",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Health => "health",
        Request::Profiles => "profiles",
        Request::Trace { .. } => "trace",
        Request::Snapshot { .. } => "snapshot",
        Request::Restore { .. } => "restore",
        Request::Shutdown => "shutdown",
        Request::Replicate { .. } => "replicate",
        Request::Promote => "promote",
        Request::ReplStatus => "replstatus",
    };
    let is_query = matches!(request, Request::TopK { .. } | Request::TopR { .. });
    // Replicas refuse writes: a client that lands an `ingest` or
    // `restore` on a follower gets a structured `not_primary` so a
    // failover-aware client rotates endpoints instead of silently
    // forking state.
    if engine.role() == Role::Replica
        && matches!(request, Request::Ingest(_) | Request::Restore { .. })
    {
        Metrics::incr(&engine.metrics.errors);
        let e = ProtoError::new(
            "not_primary",
            format!(
                "this server is a replica (epoch {}); send writes to the primary",
                engine.epoch()
            ),
        );
        return (err_response(&e), false, RequestInfo::failed(cmd));
    }
    let mut stop = false;
    let result: Result<Json, ProtoError> = match request {
        Request::Ping => Ok(obj(vec![("pong", Json::Bool(true))])),
        Request::Stats => Ok(engine.stats_json()),
        Request::Metrics => Ok(obj(vec![("text", Json::Str(engine.prometheus_text()))])),
        Request::Health => Ok(engine.health_json()),
        Request::Profiles => Ok(obj(vec![("profiles", Json::Arr(engine.drain_profiles()))])),
        Request::Trace {
            enabled,
            out,
            inline,
        } => {
            if inline && out.is_some() {
                Err(ProtoError::bad_request(
                    "give either `out` (server-side file) or `inline`, not both",
                ))
            } else {
                if let Some(on) = enabled {
                    topk_obs::span::set_enabled(on);
                }
                let mut members = vec![("enabled", Json::Bool(topk_obs::span::is_enabled()))];
                let io_failed: Option<ProtoError> = match &out {
                    Some(path) => {
                        let spans = topk_obs::span::take_spans();
                        let n = spans.len();
                        match std::fs::write(path, topk_obs::chrome_trace(&spans)) {
                            Ok(()) => {
                                members.push(("out", Json::Str(path.clone())));
                                members.push(("spans", Json::Num(n as f64)));
                                None
                            }
                            Err(e) => Some(ProtoError::new(
                                "io_error",
                                format!("cannot write trace {path}: {e}"),
                            )),
                        }
                    }
                    None if inline => {
                        // Drain into the response: how a *remote*
                        // client fetches server spans to stitch a
                        // cross-process trace (`topk client ...
                        // --trace-out`).
                        let spans = topk_obs::span::take_spans();
                        members.push(("spans", Json::Arr(spans.iter().map(span_json).collect())));
                        None
                    }
                    None => {
                        members.push((
                            "spans_buffered",
                            Json::Num(topk_obs::span::pending() as f64),
                        ));
                        None
                    }
                };
                match io_failed {
                    Some(e) => Err(e),
                    None => Ok(obj(members)),
                }
            }
        }
        Request::Shutdown => {
            stop = true;
            Ok(obj(vec![("stopping", Json::Bool(true))]))
        }
        Request::Ingest(rows) => {
            let n = rows.len();
            engine
                .ingest(rows)
                .map(|generation| {
                    obj(vec![
                        ("ingested", Json::Num(n as f64)),
                        ("generation", Json::Num(generation as f64)),
                    ])
                })
                .map_err(engine_error)
        }
        Request::TopK { k, approx, explain } => {
            run_query(engine, false, k, approx, explain, deadline)
        }
        Request::TopR { k, approx, explain } => {
            run_query(engine, true, k, approx, explain, deadline)
        }
        Request::Snapshot { path } => engine
            .snapshot(std::path::Path::new(&path))
            .map(|bytes| {
                obj(vec![
                    ("path", Json::Str(path.clone())),
                    ("bytes", Json::Num(bytes as f64)),
                ])
            })
            .map_err(|m| ProtoError::new("io_error", m)),
        Request::Restore { path } => engine
            .restore(std::path::Path::new(&path))
            .map(|generation| {
                obj(vec![
                    ("path", Json::Str(path.clone())),
                    ("generation", Json::Num(generation as f64)),
                ])
            })
            .map_err(|m| ProtoError::new("io_error", m)),
        Request::Replicate { .. } => {
            // Real replication streams are intercepted in
            // `handle_connection` before dispatch; reaching this arm
            // means the caller came through `dispatch()` (tests, CLI
            // one-shots), which has no connection to take over.
            Err(ProtoError::bad_request(
                "replicate requires a dedicated connection",
            ))
        }
        Request::Promote => {
            let (promoted, epoch) = engine.promote();
            Ok(obj(vec![
                ("role", Json::Str(engine.role().as_str().to_string())),
                ("epoch", Json::Num(epoch as f64)),
                ("promoted", Json::Bool(promoted)),
            ]))
        }
        Request::ReplStatus => Ok(engine.replstatus_json()),
    };
    match result {
        Ok(body) => (
            ok_response(body),
            stop,
            RequestInfo {
                cmd,
                trace,
                is_query,
                ok: true,
            },
        ),
        Err(e) => {
            Metrics::incr(&engine.metrics.errors);
            (
                err_response(&e),
                false,
                RequestInfo {
                    cmd,
                    trace,
                    is_query,
                    ok: false,
                },
            )
        }
    }
}

/// Map an engine error message onto its wire code by prefix. The
/// engine reports errors as strings; prefix conventions keep the
/// engine decoupled from the protocol layer (`journal:` from the
/// durability path, `deadline_exceeded`/`memory_pressure` from
/// overload control — `docs/ROBUSTNESS.md`).
fn engine_error(m: String) -> ProtoError {
    if m.starts_with("journal") {
        // Durability failure, not a bad request: the engine rejected
        // the batch without applying it (`docs/ROBUSTNESS.md`,
        // *Journal write errors*).
        ProtoError::new("journal", m)
    } else if m.starts_with("deadline_exceeded") {
        ProtoError::new("deadline_exceeded", m)
    } else if m.starts_with("memory_pressure") {
        // Transient by design: retry once the hinted backoff elapsed
        // (resident bytes shrink on restore/replace, not by waiting,
        // but the hint spaces out the client's re-offers).
        ProtoError::new("memory_pressure", m).with_retry_after(RETRY_AFTER_MS)
    } else {
        ProtoError::new("engine_error", m)
    }
}

/// Execute one `topk`/`topr` request through the overload gate: shed
/// (`err:"overloaded"` with a retry hint), degrade to the approx tier
/// (marked `degraded:true`), or serve as asked.
fn run_query(
    engine: &Engine,
    rank: bool,
    k: usize,
    approx: Option<f64>,
    explain: bool,
    deadline: Option<Instant>,
) -> Result<Json, ProtoError> {
    match engine.overload_gate(rank, approx.is_some(), deadline) {
        Err(retry_ms) => Err(ProtoError::new(
            "overloaded",
            "brownout admission: estimated query cost exceeds the remaining budget",
        )
        .with_retry_after(retry_ms)),
        Ok(Some(epsilon)) => {
            Metrics::incr(&engine.metrics.degraded_queries);
            engine
                .query_with(rank, k, Some(epsilon), explain, deadline)
                .map(mark_degraded)
                .map_err(engine_error)
        }
        Ok(None) => engine
            .query_with(rank, k, approx, explain, deadline)
            .map_err(engine_error),
    }
}

/// Stamp `degraded:true` on a brownout-degraded response body so
/// clients can tell an adaptive approximation from the answer they
/// asked for.
fn mark_degraded(body: Json) -> Json {
    match body {
        Json::Obj(mut members) => {
            members.push(("degraded".to_string(), Json::Bool(true)));
            Json::Obj(members)
        }
        other => other,
    }
}

/// Render one span record as JSON for the `trace` command's inline
/// drain: everything a client needs to rebuild a
/// [`topk_obs::TraceEvent`] on its side of a stitched trace.
fn span_json(s: &topk_obs::SpanRecord) -> Json {
    let field = |v: &topk_obs::FieldValue| match v {
        topk_obs::FieldValue::U64(n) => Json::Num(*n as f64),
        topk_obs::FieldValue::I64(n) => Json::Num(*n as f64),
        topk_obs::FieldValue::F64(n) => Json::Num(*n),
        topk_obs::FieldValue::Bool(b) => Json::Bool(*b),
        topk_obs::FieldValue::Str(t) => Json::Str(t.clone()),
    };
    obj(vec![
        ("name", Json::Str(s.name.to_string())),
        ("ts_ns", Json::Num(s.ts_ns as f64)),
        ("dur_ns", Json::Num(s.dur_ns as f64)),
        ("tid", Json::Num(s.tid as f64)),
        (
            "fields",
            Json::Obj(
                s.fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), field(v)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            parallelism: topk_core::Parallelism::sequential(),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn dispatch_ping_ingest_query() {
        let e = engine();
        let (r, stop) = dispatch(r#"{"cmd":"ping"}"#, &e);
        assert_eq!(r, r#"{"ok":true,"pong":true}"#);
        assert!(!stop);
        let (r, _) = dispatch(
            r#"{"cmd":"ingest","batch":[{"fields":["ann xu"]},{"fields":["ann xu"]}]}"#,
            &e,
        );
        assert_eq!(r, r#"{"ok":true,"ingested":2,"generation":2}"#);
        let (r, _) = dispatch(r#"{"cmd":"topk","k":1}"#, &e);
        assert!(
            r.starts_with(r#"{"ok":true,"groups":[{"rank":1,"weight":2,"size":2"#),
            "{r}"
        );
    }

    #[test]
    fn dispatch_approx_query_and_bad_epsilon() {
        let e = engine();
        dispatch(
            r#"{"cmd":"ingest","batch":[{"fields":["ann xu"]},{"fields":["ann xu"]},{"fields":["bo liu"]}]}"#,
            &e,
        );
        let (r, stop) = dispatch(r#"{"cmd":"topk","k":2,"approx":0.5}"#, &e);
        assert!(!stop);
        let v = crate::json::parse(&r).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert_eq!(v.get("epsilon").unwrap().as_f64(), Some(0.5), "{r}");
        assert!(v.get("groups").is_some(), "{r}");
        let (r, _) = dispatch(r#"{"cmd":"topr","k":2,"approx":0.5}"#, &e);
        assert!(r.contains(r#""entries":"#), "{r}");
        assert!(r.contains(r#""certified":"#), "{r}");
        // Invalid epsilon is rejected at parse time with the uniform envelope.
        let (r, _) = dispatch(r#"{"cmd":"topk","k":2,"approx":7}"#, &e);
        assert!(r.contains(r#""code":"bad_request""#), "{r}");
        assert_eq!(Metrics::get(&e.metrics.approx_queries), 2);
    }

    #[test]
    fn dispatch_errors_count_and_envelope() {
        let e = engine();
        let (r, stop) = dispatch("garbage", &e);
        assert!(r.contains(r#""code":"bad_json""#), "{r}");
        assert!(!stop);
        let (r, _) = dispatch(r#"{"cmd":"restore","path":"/nonexistent/x"}"#, &e);
        assert!(r.contains(r#""code":"io_error""#), "{r}");
        assert_eq!(Metrics::get(&e.metrics.errors), 2);
    }

    #[test]
    fn dispatch_metrics_returns_prometheus_text() {
        let e = engine();
        dispatch(r#"{"cmd":"ingest","batch":[{"fields":["bo liu"]}]}"#, &e);
        dispatch(r#"{"cmd":"topk","k":1}"#, &e);
        let (r, stop) = dispatch(r#"{"cmd":"metrics"}"#, &e);
        assert!(!stop);
        let v = crate::json::parse(&r).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let text = v.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("topk_queries_total 1\n"), "{text}");
        assert!(text.contains("topk_cache_misses_total 1\n"), "{text}");
        assert!(text.contains("topk_cache_hits_total 0\n"), "{text}");
        assert!(text.contains("topk_server_shed_total 0\n"), "{text}");
        assert!(text.contains("topk_journal_appends_total 0\n"), "{text}");
        assert!(
            text.contains("# TYPE topk_query_latency_micros histogram\n"),
            "{text}"
        );
        assert!(
            text.contains("topk_query_latency_micros_bucket{le=\""),
            "{text}"
        );
        // The engine-level exposition adds build info, uptime, and the
        // rolling SLO gauges on top of the registry counters.
        assert!(text.starts_with("# TYPE topk_build_info gauge\n"), "{text}");
        assert!(text.contains("topk_build_info{version=\""), "{text}");
        assert!(text.contains(",rev=\""), "{text}");
        assert!(text.contains("topk_uptime_seconds "), "{text}");
        for (_, label) in topk_obs::slo::WINDOWS {
            assert!(
                text.contains(&format!("topk_slo_{label}_p99_micros ")),
                "{text}"
            );
            assert!(
                text.contains(&format!("topk_slo_{label}_availability_ppm ")),
                "{text}"
            );
            assert!(
                text.contains(&format!("topk_slo_{label}_error_budget_remaining_ppm ")),
                "{text}"
            );
        }
    }

    /// Span enable/drain state is process-global (one collector per
    /// process); tests that toggle or drain it must not interleave.
    static SPAN_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn dispatch_trace_toggles_and_writes() {
        let _guard = SPAN_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let e = engine();
        // Inspection only: reports the current state without changing it.
        let (r, _) = dispatch(r#"{"cmd":"trace"}"#, &e);
        assert!(r.contains(r#""spans_buffered":"#), "{r}");
        let (r, _) = dispatch(r#"{"cmd":"trace","enabled":true}"#, &e);
        assert!(r.contains(r#""enabled":true"#), "{r}");
        dispatch(r#"{"cmd":"ingest","batch":[{"fields":["cam po"]}]}"#, &e);
        dispatch(r#"{"cmd":"topk","k":1}"#, &e);
        let path = std::env::temp_dir().join("topk_dispatch_trace_test.json");
        let line = format!(
            r#"{{"cmd":"trace","enabled":false,"out":"{}"}}"#,
            path.display()
        );
        let (r, _) = dispatch(&line, &e);
        assert!(r.contains(r#""enabled":false"#), "{r}");
        assert!(r.contains(r#""spans":"#), "{r}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.starts_with(r#"{"traceEvents":["#), "{trace}");
        assert!(trace.contains(r#""name":"service.query""#), "{trace}");
        let _ = std::fs::remove_file(&path);
        // Unwritable path yields the io_error envelope.
        let (r, _) = dispatch(
            r#"{"cmd":"trace","out":"/nonexistent-dir/x/trace.json"}"#,
            &e,
        );
        assert!(r.contains(r#""code":"io_error""#), "{r}");
    }

    #[test]
    fn dispatch_trace_inline_drains_spans() {
        let _guard = SPAN_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let e = engine();
        let (r, _) = dispatch(r#"{"cmd":"trace","enabled":true}"#, &e);
        assert!(r.contains(r#""enabled":true"#), "{r}");
        dispatch(r#"{"cmd":"ingest","batch":[{"fields":["di wu"]}]}"#, &e);
        dispatch(r#"{"cmd":"topk","k":1}"#, &e);
        let (r, _) = dispatch(r#"{"cmd":"trace","enabled":false,"inline":true}"#, &e);
        let v = crate::json::parse(&r).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{r}");
        let spans = match v.get("spans") {
            Some(Json::Arr(a)) => a,
            other => panic!("inline drain must return a spans array, got {other:?}"),
        };
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"service.query"), "{names:?}");
        for s in spans {
            assert!(s.get("ts_ns").is_some() && s.get("dur_ns").is_some(), "{r}");
        }
        // Drained: a second inline drain returns an empty array.
        let (r, _) = dispatch(r#"{"cmd":"trace","inline":true}"#, &e);
        assert!(r.contains(r#""spans":[]"#), "{r}");
        // `out` and `inline` are mutually exclusive.
        let (r, _) = dispatch(r#"{"cmd":"trace","inline":true,"out":"/tmp/x.json"}"#, &e);
        assert!(r.contains(r#""code":"bad_request""#), "{r}");
    }

    #[test]
    fn dispatch_explain_appends_profile_and_profiles_drains_ring() {
        let e = engine();
        dispatch(
            r#"{"cmd":"ingest","batch":[{"fields":["ann xu"]},{"fields":["ann xu"]}]}"#,
            &e,
        );
        // Explain off: the response bytes are exactly the pinned shape —
        // no profile member, no observable cost.
        let (plain, _) = dispatch(r#"{"cmd":"topk","k":1}"#, &e);
        assert!(!plain.contains(r#""profile""#), "{plain}");
        // Explain on: same groups, plus a trailing profile object. The
        // first explained run re-uses the cached body (cache:"hit"
        // because the plain query above populated it).
        let (r, _) = dispatch(r#"{"cmd":"topk","k":1,"explain":true}"#, &e);
        let v = crate::json::parse(&r).unwrap();
        let profile = v
            .get("profile")
            .expect("explain:true must attach a profile");
        assert_eq!(
            profile.get("cache").and_then(|c| c.as_str()),
            Some("hit"),
            "{r}"
        );
        assert!(r.starts_with(r#"{"ok":true,"groups":["#), "{r}");
        // A fresh ingest invalidates the cache; the next explained query
        // records a miss with per-shard scan accounting and stage times.
        dispatch(r#"{"cmd":"ingest","batch":[{"fields":["bo liu"]}]}"#, &e);
        let (r, _) = dispatch(r#"{"cmd":"topk","k":2,"explain":true}"#, &e);
        let v = crate::json::parse(&r).unwrap();
        let profile = v.get("profile").unwrap();
        assert_eq!(profile.get("cache").and_then(|c| c.as_str()), Some("miss"));
        let shards = profile.get("shards").expect("miss profile has shards");
        let total = shards.get("total").and_then(|n| n.as_f64()).unwrap();
        let scanned = shards.get("scanned").and_then(|n| n.as_f64()).unwrap();
        let skipped = shards.get("skipped").and_then(|n| n.as_f64()).unwrap();
        let empty = shards.get("empty").and_then(|n| n.as_f64()).unwrap();
        assert_eq!(scanned + skipped + empty, total, "{r}");
        assert!(profile.get("stages").is_some(), "{r}");
        assert_eq!(Metrics::get(&e.metrics.explained_queries), 2);
        // The ring holds both profiles; `profiles` drains oldest-first
        // and a second drain is empty.
        let (r, _) = dispatch(r#"{"cmd":"profiles"}"#, &e);
        let v = crate::json::parse(&r).unwrap();
        match v.get("profiles") {
            Some(Json::Arr(a)) => assert_eq!(a.len(), 2, "{r}"),
            other => panic!("profiles must be an array, got {other:?}"),
        }
        let (r, _) = dispatch(r#"{"cmd":"profiles"}"#, &e);
        assert!(r.contains(r#""profiles":[]"#), "{r}");
    }

    #[test]
    fn dispatch_health_reports_slo_windows() {
        let e = engine();
        e.record_query_outcome(std::time::Duration::from_micros(800), true);
        e.record_query_outcome(std::time::Duration::from_micros(900), false);
        let (r, stop) = dispatch(r#"{"cmd":"health"}"#, &e);
        assert!(!stop);
        let v = crate::json::parse(&r).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert!(v.get("healthy").is_some(), "{r}");
        assert!(v.get("uptime_seconds").is_some(), "{r}");
        let slo = v.get("slo").expect("health carries an slo object");
        let windows = match slo.get("windows") {
            Some(Json::Arr(a)) => a,
            other => panic!("slo.windows must be an array, got {other:?}"),
        };
        assert_eq!(windows.len(), topk_obs::slo::WINDOWS.len(), "{r}");
        for w in windows {
            assert_eq!(w.get("total").and_then(|n| n.as_f64()), Some(2.0), "{r}");
            assert_eq!(w.get("errors").and_then(|n| n.as_f64()), Some(1.0), "{r}");
            assert!(w.get("error_budget_remaining_ppm").is_some(), "{r}");
        }
    }

    #[test]
    fn dispatch_full_reports_request_info() {
        let e = engine();
        let (_, _, info) = dispatch_full(r#"{"cmd":"ping","trace":"t-42"}"#, &e);
        assert_eq!(info.cmd, "ping");
        assert_eq!(info.trace.as_deref(), Some("t-42"));
        assert!(!info.is_query);
        assert!(info.ok);
        let (_, _, info) = dispatch_full(r#"{"cmd":"topk","k":1}"#, &e);
        assert_eq!(info.cmd, "topk");
        assert!(info.is_query && info.ok);
        let (_, _, info) = dispatch_full(r#"{"cmd":"topk"}"#, &e);
        assert_eq!(info.cmd, "invalid");
        assert!(!info.ok);
        let (_, _, info) = dispatch_full("not json", &e);
        assert_eq!(info.cmd, "invalid");
        assert!(!info.ok && !info.is_query);
    }

    #[test]
    fn slow_record_shape() {
        let long_line = format!(r#"{{"cmd":"topk","k":1,"pad":"{}"}}"#, "x".repeat(400));
        let info = RequestInfo {
            cmd: "topk",
            trace: Some("t-7".into()),
            is_query: true,
            ok: true,
        };
        let rec = slow_record(&long_line, Duration::from_millis(12), &info);
        let text = rec.to_string();
        assert!(text.contains(r#""cmd":"topk""#), "{text}");
        assert!(text.contains(r#""trace":"t-7""#), "{text}");
        assert!(text.contains(r#""latency_micros":12000"#), "{text}");
        assert!(text.contains(r#""ok":true"#), "{text}");
        let echoed = rec.get("request").unwrap().as_str().unwrap();
        assert!(echoed.ends_with("..."), "long requests are truncated");
        assert!(echoed.len() < long_line.len(), "{echoed}");
        // No trace id renders as null, keeping the record shape fixed.
        let rec = slow_record(
            "{}",
            Duration::from_micros(5),
            &RequestInfo::failed("invalid"),
        );
        assert!(
            rec.to_string().contains(r#""trace":null"#),
            "{}",
            rec.to_string()
        );
    }

    #[test]
    fn dispatch_shutdown_flags_stop() {
        let e = engine();
        let (r, stop) = dispatch(r#"{"cmd":"shutdown"}"#, &e);
        assert!(stop);
        assert!(r.contains("stopping"), "{r}");
    }

    #[test]
    fn dispatch_isolated_turns_panics_into_internal_errors() {
        let e = engine();
        // A handler panic must produce the envelope, not unwind further.
        let (r, stop, _) = match catch_unwind(AssertUnwindSafe(|| {
            dispatch_isolated("__panic_probe__", &e)
        })) {
            Ok(triple) => triple,
            Err(_) => panic!("dispatch_isolated let a panic escape"),
        };
        // "__panic_probe__" is not JSON, so it exercises the normal
        // error path; force a real panic through a poisoned closure:
        assert!(r.contains("bad_json"), "{r}");
        assert!(!stop);
        let before = Metrics::get(&e.metrics.server_panics);
        let (r, stop) = dispatch_panicking_probe(&e);
        assert!(r.contains(r#""code":"internal""#), "{r}");
        assert!(!stop);
        assert_eq!(Metrics::get(&e.metrics.server_panics), before + 1);
    }

    /// Run a dispatch that is guaranteed to panic inside the isolation
    /// wrapper (mirrors `dispatch_isolated`'s structure exactly).
    fn dispatch_panicking_probe(engine: &Engine) -> (String, bool) {
        match catch_unwind(AssertUnwindSafe(|| -> (String, bool) {
            panic!("injected test panic")
        })) {
            Ok(result) => result,
            Err(_) => {
                Metrics::incr(&engine.metrics.server_panics);
                Metrics::incr(&engine.metrics.errors);
                (
                    err_response(&ProtoError::new(
                        "internal",
                        "request handler panicked; state recovered",
                    )),
                    false,
                )
            }
        }
    }

    #[test]
    fn overloaded_line_is_a_valid_envelope() {
        let line = overloaded_line();
        assert!(line.ends_with('\n'));
        let v = crate::json::parse(line.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let error = v.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("overloaded"));
        // Shed clients get a backoff hint instead of guessing.
        assert_eq!(
            error.get("retry_after_ms").unwrap().as_f64(),
            Some(RETRY_AFTER_MS as f64)
        );
    }

    #[test]
    fn dispatch_deadline_envelopes() {
        let e = engine();
        dispatch(
            r#"{"cmd":"ingest","batch":[{"fields":["ann xu"]},{"fields":["ann xu"]}]}"#,
            &e,
        );
        // A zero budget expires before admission: structured error, no
        // work burned, counted.
        let (r, stop, info) = dispatch_full(r#"{"cmd":"topk","k":1,"deadline_ms":0}"#, &e);
        assert!(!stop);
        assert!(r.contains(r#""code":"deadline_exceeded""#), "{r}");
        assert!(info.is_query && !info.ok);
        assert_eq!(Metrics::get(&e.metrics.deadline_exceeded), 1);
        // A generous budget answers byte-identically to no deadline.
        let (with, _) = dispatch(r#"{"cmd":"topk","k":1,"deadline_ms":60000}"#, &e);
        let (without, _) = dispatch(r#"{"cmd":"topk","k":1}"#, &e);
        assert_eq!(with, without);
        assert!(with.starts_with(r#"{"ok":true,"groups":"#), "{with}");
    }

    #[test]
    fn engine_error_prefixes_map_to_wire_codes() {
        let e = engine_error("deadline_exceeded: request budget exhausted before merge".into());
        assert_eq!(e.code, "deadline_exceeded");
        assert_eq!(e.retry_after_ms, None);
        let e = engine_error("memory_pressure: ingest of ~10 bytes would exceed".into());
        assert_eq!(e.code, "memory_pressure");
        assert_eq!(e.retry_after_ms, Some(RETRY_AFTER_MS));
        let e = engine_error("journal append failed: disk".into());
        assert_eq!(e.code, "journal");
        let e = engine_error("anything else".into());
        assert_eq!(e.code, "engine_error");
    }

    #[test]
    fn mark_degraded_appends_member() {
        let body = obj(vec![("groups", Json::Arr(vec![]))]);
        let marked = mark_degraded(body).to_string();
        assert_eq!(marked, r#"{"groups":[],"degraded":true}"#);
    }
}
