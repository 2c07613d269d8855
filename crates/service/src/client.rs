//! A small blocking client for the line protocol.
//!
//! Wraps a `TcpStream` and exposes one method per command; every method
//! sends a single request line and blocks for the single response line.
//! Used by `topk client`, the fault-injection scenarios, and the
//! loopback integration test — all clients in this repo speak through
//! this type so the wire format lives in exactly one place.
//!
//! # Timeouts and retries (`docs/ROBUSTNESS.md`)
//!
//! Every socket operation is bounded by [`ClientConfig`]'s connect,
//! read, and write timeouts. **Idempotent** commands — `ping`, `topk`,
//! `topr`, `stats`, `metrics` — additionally retry on transport
//! failures and on the server's retryable error codes (`overloaded`,
//! `timeout`, `internal`), reconnecting between attempts with
//! exponential backoff plus jitter. The whole retry loop is bounded by
//! [`ClientConfig::total_timeout`] — a wall-clock budget across
//! attempts and backoff sleeps, so a caller-facing deadline holds even
//! when every attempt times out individually. When that budget is set,
//! every attempt also stamps the *remaining* budget onto the request as
//! `"deadline_ms"`, so the server aborts work the client will no longer
//! wait for; and when the server's error envelope carries a
//! `retry_after_ms` hint (sheds, memory pressure), the backoff sleeps
//! that hint instead of guessing — still capped by the remaining
//! budget. `deadline_exceeded` is **not** retried: the budget that
//! expired is the same one a retry would run under. `ingest` is
//! **never** retried: a send that fails after the server read the line
//! would double-apply the batch, and the engine offers no request IDs
//! to dedup on. `snapshot`/`restore`/`trace`/`shutdown` are likewise
//! single-shot — they mutate server state.
//!
//! # Failover (`docs/ROBUSTNESS.md`, *Replication*)
//!
//! [`Client::connect_endpoints`] takes a list of `host:port` addresses
//! (a primary and its replicas, in any order). Idempotent commands
//! rotate to the next endpoint on connect failures, transport errors,
//! retryable server codes, and `not_primary` refusals — so a query
//! stream rides through a primary kill + replica promotion without
//! caller-visible errors. Single-shot commands never fail over: they
//! run against whichever endpoint the client currently holds.
//!
//! # Trace propagation (`docs/OBSERVABILITY.md`)
//!
//! Every request sent through [`Client::request`] /
//! [`Client::request_idempotent`] (and therefore every typed method)
//! carries a client-generated `"trace"` id; the server stamps it onto
//! its `service.request` span, and the client opens a matching
//! `client.request` span around the call when local tracing is on. The
//! id of the most recent request is readable via
//! [`Client::last_trace_id`], which is how `topk client ... --trace-out`
//! stitches the two timelines into one Chrome trace. Retries of one
//! logical request share one id. [`Client::request_raw`] stays raw —
//! no id, no span.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::{obj, parse, Json};

/// Process-wide sequence number for trace ids: combined with the
/// process id and a clock read, ids are unique across concurrent
/// clients and across processes without any coordination.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh trace id: `c<pid>-<clock>-<seq>` in hex. Readable enough to
/// grep in a slow-query log, unique enough to join client and server
/// spans on.
fn next_trace_id() -> String {
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!(
        "c{:x}-{:x}-{seq:x}",
        std::process::id(),
        nanos & 0xffff_ffff_ffff
    )
}

/// Socket timeouts and the retry policy for idempotent commands.
/// Zero durations disable the corresponding timeout.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Max time to establish the TCP connection.
    pub connect_timeout: Duration,
    /// Max time to wait for a response line.
    pub read_timeout: Duration,
    /// Max time for one blocking request write.
    pub write_timeout: Duration,
    /// Retries after the first attempt of an idempotent command.
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Wall-clock budget for one idempotent call across all attempts
    /// and backoff sleeps (zero disables). An in-flight read is still
    /// bounded by `read_timeout`, so the worst case is roughly
    /// `total_timeout + read_timeout`.
    pub total_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            total_timeout: Duration::ZERO,
        }
    }
}

/// Error codes the server emits for transient conditions — safe to
/// retry an idempotent command on, after reconnecting.
const RETRYABLE_CODES: [&str; 3] = ["overloaded", "timeout", "internal"];

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

enum RequestError {
    /// The connection is unusable (I/O failure, close, or unparseable
    /// response) — reconnect before any retry.
    Transport(String),
    /// The server answered with an error envelope; `retry_after_ms` is
    /// its backoff hint, when the envelope carried one.
    Protocol {
        code: String,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

impl RequestError {
    fn into_message(self) -> String {
        match self {
            RequestError::Transport(m) => m,
            RequestError::Protocol { code, message, .. } => format!("{code}: {message}"),
        }
    }
}

/// A connected client.
pub struct Client {
    /// Failover set, tried round-robin; `current` is the live one.
    endpoints: Vec<String>,
    current: usize,
    config: ClientConfig,
    conn: Option<Conn>,
    last_trace: Option<String>,
    /// `topk_client_query_latency_micros` in the global registry.
    query_latency: std::sync::Arc<topk_obs::LatencyHistogram>,
}

impl Client {
    /// Connect to `addr` (`host:port`) with [`ClientConfig::default`].
    pub fn connect(addr: &str) -> Result<Client, String> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeouts and retry policy.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<Client, String> {
        Self::connect_endpoints(&[addr.to_string()], config)
    }

    /// Connect to the first reachable endpoint of a failover set (a
    /// primary and its replicas, in any order). Idempotent commands
    /// rotate through the set on failures — see the module docs.
    pub fn connect_endpoints(endpoints: &[String], config: ClientConfig) -> Result<Client, String> {
        if endpoints.is_empty() {
            return Err("no endpoints given".into());
        }
        // Pre-register the client-side metrics in the process-global
        // registry so an exposition sees them at zero instead of only
        // after the first retry happens to create them.
        let global = topk_obs::Registry::global();
        global.counter("topk_client_retries_total");
        global.counter("topk_client_failovers_total");
        let query_latency = global.histogram("topk_client_query_latency_micros");
        let mut last_err = String::new();
        for (i, addr) in endpoints.iter().enumerate() {
            match open(addr, &config) {
                Ok(conn) => {
                    return Ok(Client {
                        endpoints: endpoints.to_vec(),
                        current: i,
                        config,
                        conn: Some(conn),
                        last_trace: None,
                        query_latency,
                    })
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// The endpoint the client currently targets.
    pub fn endpoint(&self) -> &str {
        &self.endpoints[self.current]
    }

    /// The trace id stamped on the most recent request sent through
    /// [`request`](Self::request) or
    /// [`request_idempotent`](Self::request_idempotent) — join it
    /// against the server's `service.request` spans or slow-query log.
    pub fn last_trace_id(&self) -> Option<&str> {
        self.last_trace.as_deref()
    }

    /// Stamp a fresh trace id onto a request line and remember it for
    /// [`Client::last_trace_id`].
    fn stamp_trace(&mut self, line: &str) -> String {
        let id = next_trace_id();
        let stamped = splice_member(line, &format!("\"trace\":\"{id}\""));
        self.last_trace = Some(id);
        stamped
    }

    /// The retry policy in effect.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    fn reconnect(&mut self) -> Result<(), String> {
        self.conn = Some(open(&self.endpoints[self.current], &self.config)?);
        Ok(())
    }

    /// Advance to the next endpoint of the failover set (no-op with a
    /// single endpoint). The next reconnect targets it.
    fn rotate_endpoint(&mut self) {
        if self.endpoints.len() > 1 {
            self.current = (self.current + 1) % self.endpoints.len();
            topk_obs::Registry::global()
                .counter("topk_client_failovers_total")
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            topk_obs::debug!("failing over to {}", self.endpoints[self.current]);
        }
    }

    /// Send one raw request line, return the raw response line.
    /// Transport errors poison the connection; the next idempotent
    /// command reconnects.
    pub fn request_raw(&mut self, line: &str) -> Result<String, String> {
        self.request_raw_inner(line).inspect_err(|_| {
            self.conn = None;
        })
    }

    fn request_raw_inner(&mut self, line: &str) -> Result<String, String> {
        let conn = self.conn.as_mut().ok_or("not connected")?;
        conn.writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.writer.write_all(b"\n"))
            .and_then(|()| conn.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = conn
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(response.trim_end().to_string())
    }

    fn request_once(&mut self, line: &str) -> Result<Json, RequestError> {
        let raw = self.request_raw(line).map_err(RequestError::Transport)?;
        let v = parse(&raw).map_err(|e| {
            // Half a response followed by a close still parses as a
            // read_line success; treat undecodable bytes as transport
            // damage, not as a server verdict.
            self.conn = None;
            RequestError::Transport(format!("bad response `{raw}`: {e}"))
        })?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                let message = v
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let retry_after_ms = v
                    .get("error")
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(Json::as_f64)
                    .filter(|ms| *ms >= 0.0)
                    .map(|ms| ms as u64);
                Err(RequestError::Protocol {
                    code,
                    message,
                    retry_after_ms,
                })
            }
            None => {
                self.conn = None;
                Err(RequestError::Transport(format!(
                    "response missing `ok`: {raw}"
                )))
            }
        }
    }

    /// Send a request, parse the response, and unwrap the `ok` envelope:
    /// success responses come back as the parsed body object, error
    /// envelopes become `Err("code: message")`. **Single attempt** — use
    /// for state-changing commands. Stamps a trace id and opens a
    /// `client.request` span when local tracing is enabled.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        let traced = self.stamp_trace(line);
        let mut sp = topk_obs::Span::enter("client.request");
        if sp.is_recording() {
            if let Some(id) = &self.last_trace {
                sp.record("trace", id.as_str());
            }
        }
        self.request_once(&traced)
            .map_err(RequestError::into_message)
    }

    /// [`request`](Self::request) plus the retry policy: transport
    /// failures and retryable server errors reconnect and retry with
    /// exponential backoff + jitter, rotating through the endpoint set
    /// (`not_primary` refusals rotate too — that's how a query stream
    /// follows a promotion). Only for idempotent commands. The whole
    /// loop respects [`ClientConfig::total_timeout`]. All attempts of
    /// one logical request share one trace id; the `client.request`
    /// span covers the whole retry loop, so its duration is what the
    /// caller actually waited.
    pub fn request_idempotent(&mut self, line: &str) -> Result<Json, String> {
        let line = self.stamp_trace(line);
        let line = line.as_str();
        let mut sp = topk_obs::Span::enter("client.request");
        if sp.is_recording() {
            if let Some(id) = &self.last_trace {
                sp.record("trace", id.as_str());
            }
        }
        let deadline = if self.config.total_timeout.is_zero() {
            None
        } else {
            Some(Instant::now() + self.config.total_timeout)
        };
        let mut attempt: u32 = 0;
        loop {
            // Each attempt stamps the budget still remaining — the
            // server aborts (deadline_exceeded) rather than compute an
            // answer this client will no longer wait for.
            let attempt_line = match deadline {
                None => None,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now()).as_millis() as u64;
                    Some(splice_member(line, &format!("\"deadline_ms\":{left}")))
                }
            };
            let attempt_line = attempt_line.as_deref().unwrap_or(line);
            let error = if self.conn.is_none() {
                match self.reconnect() {
                    Ok(()) => None,
                    Err(e) => Some(RequestError::Transport(e)),
                }
            } else {
                None
            };
            let error = match error {
                Some(e) => e,
                None => match self.request_once(attempt_line) {
                    Ok(v) => return Ok(v),
                    Err(e) => e,
                },
            };
            let retryable = match &error {
                RequestError::Transport(_) => true,
                RequestError::Protocol { code, .. } => {
                    RETRYABLE_CODES.contains(&code.as_str())
                        // A replica refusing a write is permanent *for
                        // that endpoint* but transient for the set —
                        // with somewhere else to go, rotate.
                        || (code == "not_primary" && self.endpoints.len() > 1)
                }
            };
            if !retryable || attempt >= self.config.retries {
                return Err(error.into_message());
            }
            let remaining = match deadline {
                None => Duration::MAX,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(r) if !r.is_zero() => r,
                    _ => {
                        return Err(format!(
                            "retry budget of {:?} exhausted after {} attempts; last error: {}",
                            self.config.total_timeout,
                            attempt + 1,
                            error.into_message()
                        ))
                    }
                },
            };
            // A retryable server error (shed, deadline) usually means
            // the server is about to close this connection anyway.
            self.conn = None;
            self.rotate_endpoint();
            topk_obs::Registry::global()
                .counter("topk_client_retries_total")
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            topk_obs::debug!(
                "retrying idempotent request (attempt {}): {}",
                attempt + 1,
                match &error {
                    RequestError::Transport(m) => m.clone(),
                    RequestError::Protocol { code, .. } => code.clone(),
                }
            );
            // The server knows its own recovery horizon better than an
            // exponential guess: honor its hint when it sent one,
            // always capped by the caller's remaining budget.
            let sleep = match &error {
                RequestError::Protocol {
                    retry_after_ms: Some(ms),
                    ..
                } => Duration::from_millis(*ms),
                _ => backoff_delay(&self.config, attempt),
            };
            std::thread::sleep(sleep.min(remaining));
            attempt += 1;
        }
    }

    /// Liveness probe (idempotent: retries).
    pub fn ping(&mut self) -> Result<(), String> {
        self.request_idempotent(r#"{"cmd":"ping"}"#).map(|_| ())
    }

    /// Ingest a batch of (fields, weight) rows; returns the new
    /// generation counter. **Never retried** — see the module docs.
    pub fn ingest_batch(&mut self, rows: &[(Vec<String>, f64)]) -> Result<u64, String> {
        let batch = Json::Arr(
            rows.iter()
                .map(|(fields, weight)| {
                    obj(vec![
                        (
                            "fields",
                            Json::Arr(fields.iter().map(|f| Json::Str(f.clone())).collect()),
                        ),
                        ("weight", Json::Num(*weight)),
                    ])
                })
                .collect(),
        );
        let line = obj(vec![("cmd", Json::Str("ingest".into())), ("batch", batch)]).to_string();
        let v = self.request(&line)?;
        v.get("generation")
            .and_then(Json::as_usize)
            .map(|g| g as u64)
            .ok_or_else(|| "ingest response missing `generation`".into())
    }

    /// TopK/TopR query with every wire option: `rank` selects `topr`,
    /// `approx` sets the epsilon member, `explain` asks the server to
    /// attach a [`QueryProfile`](crate::QueryProfile) under `"profile"`
    /// (idempotent: retries). The client-observed latency, retries
    /// included, is recorded into the process-global
    /// `topk_client_query_latency_micros` histogram.
    pub fn query(
        &mut self,
        rank: bool,
        k: usize,
        approx: Option<f64>,
        explain: bool,
    ) -> Result<Json, String> {
        let mut members = vec![
            ("cmd", Json::Str(if rank { "topr" } else { "topk" }.into())),
            ("k", Json::Num(k as f64)),
        ];
        if let Some(epsilon) = approx {
            members.push(("approx", Json::Num(epsilon)));
        }
        if explain {
            members.push(("explain", Json::Bool(true)));
        }
        let t0 = Instant::now();
        let res = self.request_idempotent(&obj(members).to_string());
        self.query_latency.record(t0.elapsed());
        res
    }

    /// TopK count query (idempotent: retries); returns the full
    /// response object.
    pub fn topk(&mut self, k: usize) -> Result<Json, String> {
        self.query(false, k, None, false)
    }

    /// TopR rank query (idempotent: retries); returns the full
    /// response object.
    pub fn topr(&mut self, k: usize) -> Result<Json, String> {
        self.query(true, k, None, false)
    }

    /// Engine + metrics counters (idempotent: retries).
    pub fn stats(&mut self) -> Result<Json, String> {
        self.request_idempotent(r#"{"cmd":"stats"}"#)
    }

    /// Rolling SLO health report: per-window p99 / availability /
    /// error-budget plus uptime (idempotent: retries).
    pub fn health(&mut self) -> Result<Json, String> {
        self.request_idempotent(r#"{"cmd":"health"}"#)
    }

    /// Drain the server's ring of recent query profiles. A destructive
    /// read — each profile is returned exactly once — so single-shot.
    pub fn profiles(&mut self) -> Result<Vec<Json>, String> {
        let v = self.request(r#"{"cmd":"profiles"}"#)?;
        v.get("profiles")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "profiles response missing `profiles`".into())
    }

    /// Like [`trace`](Self::trace), but drains the server's buffered
    /// spans *into the response* (`"spans"` array) instead of a
    /// server-side file — how a remote client collects the server half
    /// of a stitched trace. Destructive read, single-shot.
    pub fn trace_drain_inline(&mut self, enabled: Option<bool>) -> Result<Json, String> {
        let mut members = vec![
            ("cmd", Json::Str("trace".into())),
            ("inline", Json::Bool(true)),
        ];
        if let Some(on) = enabled {
            members.push(("enabled", Json::Bool(on)));
        }
        self.request(&obj(members).to_string())
    }

    /// Prometheus text exposition of the server's metric registry
    /// (idempotent: retries).
    pub fn metrics_text(&mut self) -> Result<String, String> {
        let v = self.request_idempotent(r#"{"cmd":"metrics"}"#)?;
        v.get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "metrics response missing `text`".into())
    }

    /// Toggle server-side span tracing and/or drain buffered spans to a
    /// server-side Chrome trace file. Both arguments optional: `(None,
    /// None)` just reports the current state. Mutates server state, so
    /// single-shot.
    pub fn trace(&mut self, enabled: Option<bool>, out: Option<&str>) -> Result<Json, String> {
        let mut members = vec![("cmd", Json::Str("trace".into()))];
        if let Some(on) = enabled {
            members.push(("enabled", Json::Bool(on)));
        }
        if let Some(path) = out {
            members.push(("out", Json::Str(path.into())));
        }
        self.request(&obj(members).to_string())
    }

    /// Ask the server to write a snapshot to `path` (server-side path).
    pub fn snapshot(&mut self, path: &str) -> Result<Json, String> {
        let line = obj(vec![
            ("cmd", Json::Str("snapshot".into())),
            ("path", Json::Str(path.into())),
        ])
        .to_string();
        self.request(&line)
    }

    /// Ask the server to replace its state from a snapshot at `path`.
    pub fn restore(&mut self, path: &str) -> Result<Json, String> {
        let line = obj(vec![
            ("cmd", Json::Str("restore".into())),
            ("path", Json::Str(path.into())),
        ])
        .to_string();
        self.request(&line)
    }

    /// Promote the *current endpoint* to primary (replication
    /// failover). Deliberately single-shot and never rotated: the
    /// caller chose which server to promote.
    pub fn promote(&mut self) -> Result<Json, String> {
        self.request(r#"{"cmd":"promote"}"#)
    }

    /// Replication role, epoch, and lag of the current endpoint
    /// (idempotent: retries, but never rotates on success — the answer
    /// describes whichever server responded).
    pub fn replstatus(&mut self) -> Result<Json, String> {
        self.request_idempotent(r#"{"cmd":"replstatus"}"#)
    }

    /// Stop the server.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(r#"{"cmd":"shutdown"}"#).map(|_| ())
    }
}

fn open(addr: &str, cfg: &ClientConfig) -> Result<Conn, String> {
    let stream = if cfg.connect_timeout.is_zero() {
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?
    } else {
        let mut last_err = format!("cannot resolve {addr}");
        let addrs = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?;
        let mut stream = None;
        for sa in addrs {
            match TcpStream::connect_timeout(&sa, cfg.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = format!("cannot connect to {addr}: {e}"),
            }
        }
        stream.ok_or(last_err)?
    };
    stream.set_nodelay(true).ok();
    if !cfg.read_timeout.is_zero() {
        let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    }
    if !cfg.write_timeout.is_zero() {
        let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    }
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    Ok(Conn {
        reader,
        writer: BufWriter::new(stream),
    })
}

/// Splice a rendered JSON member (e.g. `"trace":"id"`) into a request
/// line before its closing brace. Every request is a JSON object, so
/// this is how opt-in metadata rides on arbitrary command lines.
fn splice_member(line: &str, member: &str) -> String {
    match line.rfind('}') {
        Some(i) => {
            let body = line[..i].trim_end();
            let sep = if body.ends_with('{') { "" } else { "," };
            format!("{body}{sep}{member}}}")
        }
        None => line.to_string(),
    }
}

/// `base * 2^attempt`, capped, then scaled by a jitter factor in
/// [0.5, 1.5) so a thundering herd of retries decorrelates.
fn backoff_delay(cfg: &ClientConfig, attempt: u32) -> Duration {
    let base = cfg.backoff_base.as_nanos().max(1) as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(20));
    let capped = exp.min(cfg.backoff_cap.as_nanos().max(1) as u64);
    let jittered = (capped as f64 * (0.5 + jitter01())) as u64;
    Duration::from_nanos(jittered)
}

/// Cheap pseudo-random value in [0, 1): one xorshift step over the
/// clock's nanoseconds. Not statistical-grade — it only needs to spread
/// concurrent retries apart (the workspace has no `rand` dependency).
fn jitter01() -> f64 {
    let mut x = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 | 1)
        .unwrap_or(0x9e37_79b9)
        .wrapping_mul(0x2545_f491_4f6c_dd1d);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::server::Server;
    use std::sync::Arc;

    #[test]
    fn client_round_trip_against_live_server() {
        let engine = Arc::new(
            Engine::new(EngineConfig {
                parallelism: topk_core::Parallelism::sequential(),
                ..Default::default()
            })
            .unwrap(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let (addr, handle) = server.spawn();
        let mut c = Client::connect(&addr.to_string()).unwrap();
        c.ping().unwrap();
        let generation = c
            .ingest_batch(&[
                (vec!["maria santos".into()], 1.0),
                (vec!["maria santos".into()], 2.0),
                (vec!["john doe".into()], 1.0),
            ])
            .unwrap();
        assert_eq!(generation, 3);
        let top = c.topk(2).unwrap();
        let groups = top.get("groups").and_then(Json::as_arr).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].get("weight").and_then(Json::as_f64), Some(3.0));
        // Repeat query hits the generation-keyed cache.
        c.topk(2).unwrap();
        let stats = c.stats().unwrap();
        let hits = stats
            .get("metrics")
            .and_then(|m| m.get("cache_hits"))
            .and_then(Json::as_usize)
            .unwrap();
        assert!(hits >= 1, "expected a cache hit, stats: {stats}");
        // Errors come back as Err with the code prefix.
        let err = c.request(r#"{"cmd":"topk","k":0}"#).unwrap_err();
        assert!(err.starts_with("bad_request"), "{err}");
        // Prometheus exposition reflects the same counters.
        let text = c.metrics_text().unwrap();
        assert!(text.contains("topk_queries_total 2\n"), "{text}");
        assert!(text.contains("topk_cache_hits_total 1\n"), "{text}");
        assert!(
            text.contains("topk_query_latency_micros_bucket{le=\""),
            "{text}"
        );
        let t = c.trace(None, None).unwrap();
        assert!(t.get("enabled").and_then(Json::as_bool).is_some());
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idempotent_requests_reconnect_and_retry() {
        let engine = Arc::new(
            Engine::new(EngineConfig {
                parallelism: topk_core::Parallelism::sequential(),
                ..Default::default()
            })
            .unwrap(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let (addr, handle) = server.spawn();
        let mut c = Client::connect_with(
            &addr.to_string(),
            ClientConfig {
                retries: 2,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap();
        c.ingest_batch(&[(vec!["ada lovelace".into()], 1.0)])
            .unwrap();
        // Kill the connection from our side; the next idempotent call
        // must transparently reconnect.
        c.conn = None;
        let top = c.topk(1).unwrap();
        assert_eq!(
            top.get("groups").and_then(Json::as_arr).map(|g| g.len()),
            Some(1)
        );
        // A non-retryable protocol error surfaces immediately even on
        // the idempotent path.
        let err = c.request_idempotent(r#"{"cmd":"topk","k":0}"#).unwrap_err();
        assert!(err.starts_with("bad_request"), "{err}");
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn client_stamps_trace_ids_and_reads_explain_health_profiles() {
        let engine = Arc::new(
            Engine::new(EngineConfig {
                parallelism: topk_core::Parallelism::sequential(),
                ..Default::default()
            })
            .unwrap(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let (addr, handle) = server.spawn();
        let mut c = Client::connect(&addr.to_string()).unwrap();
        assert!(c.last_trace_id().is_none(), "no request sent yet");
        c.ingest_batch(&[
            (vec!["grace hopper".into()], 1.0),
            (vec!["grace hopper".into()], 1.0),
        ])
        .unwrap();
        let first = c.last_trace_id().expect("ingest stamped an id").to_string();
        // Explained query: profile rides on the response, and the ring
        // retains a copy for `profiles` to drain exactly once.
        let v = c.query(false, 1, None, true).unwrap();
        assert!(v.get("profile").is_some(), "{v}");
        let second = c.last_trace_id().unwrap().to_string();
        assert_ne!(first, second, "each request gets a fresh id");
        let profs = c.profiles().unwrap();
        assert_eq!(profs.len(), 1, "{profs:?}");
        assert!(c.profiles().unwrap().is_empty(), "drain is destructive");
        // Health: the explained query above was recorded into every
        // rolling window.
        let h = c.health().unwrap();
        assert!(h.get("healthy").and_then(Json::as_bool).is_some(), "{h}");
        let windows = h
            .get("slo")
            .and_then(|s| s.get("windows"))
            .and_then(Json::as_arr)
            .expect("health carries slo.windows");
        assert_eq!(windows.len(), 3, "{h}");
        for w in windows {
            assert!(w.get("total").and_then(Json::as_usize).unwrap() >= 1, "{h}");
        }
        // SLO window accuracy: a few more query-class requests, all
        // well inside the 1-minute window, which must then account for
        // exactly the queries this connection issued — the explained
        // one above plus these — with no errors.
        let client_samples = || {
            topk_obs::Registry::global()
                .histogram("topk_client_query_latency_micros")
                .count()
        };
        let samples_before = client_samples();
        for i in 0..6 {
            c.query(i % 2 == 1, 1 + i / 2, None, false).unwrap();
        }
        let h = c.health().unwrap();
        let window_1m = h
            .get("slo")
            .and_then(|s| s.get("windows"))
            .and_then(Json::as_arr)
            .and_then(|w| {
                w.iter()
                    .find(|e| e.get("window").and_then(Json::as_str) == Some("1m"))
            })
            .expect("health carries a 1m SLO window");
        let window_u64 = |name: &str| window_1m.get(name).and_then(Json::as_usize);
        assert_eq!(window_u64("total"), Some(7), "{h}");
        assert_eq!(window_u64("errors"), Some(0), "{h}");
        assert!(window_u64("p99_micros").unwrap() >= 1, "{h}");
        // Server-side percentiles come back through `stats` (histogram
        // answers are power-of-two upper bounds ≥ 2), ordered.
        let stats = c.stats().unwrap();
        let server_latency = |p: &str| {
            stats
                .get("metrics")
                .and_then(|m| m.get("query_latency"))
                .and_then(|h| h.get(p))
                .and_then(Json::as_usize)
                .unwrap_or_else(|| panic!("stats missing metrics.query_latency.{p}: {stats}"))
        };
        assert!(server_latency("p50_us") >= 2, "{stats}");
        assert!(
            server_latency("p99_us") >= server_latency("p50_us"),
            "{stats}"
        );
        // Client samples land in the process-global registry (shared
        // with the other tests of this binary, hence the lower bound).
        assert!(client_samples() >= samples_before + 6);
        let text = topk_obs::Registry::global().prometheus_text();
        assert!(
            text.contains("# TYPE topk_client_query_latency_micros histogram"),
            "{text}"
        );
        assert!(
            text.contains("topk_client_query_latency_micros_count"),
            "{text}"
        );
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn retry_budget_bounds_a_never_responding_endpoint() {
        // A listener that accepts connections and then never answers:
        // the worst case for a retry loop, because every attempt burns
        // a full read_timeout instead of failing fast.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for s in listener.incoming().flatten() {
                held.push(s);
            }
        });
        let mut c = Client::connect_with(
            &addr,
            ClientConfig {
                read_timeout: Duration::from_millis(50),
                retries: 1000,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                total_timeout: Duration::from_millis(300),
                ..Default::default()
            },
        )
        .unwrap();
        let t0 = std::time::Instant::now();
        let err = c.ping().unwrap_err();
        assert!(err.contains("retry budget"), "{err}");
        // 1000 retries x 50ms would be 50s; the budget must cut that to
        // ~total_timeout + one in-flight read_timeout.
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "budget did not bound the call: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn connect_endpoints_skips_dead_and_rotates_on_failure() {
        let engine = Arc::new(
            Engine::new(EngineConfig {
                parallelism: topk_core::Parallelism::sequential(),
                ..Default::default()
            })
            .unwrap(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let (addr, handle) = server.spawn();
        // Port 1 refuses connections instantly on loopback.
        let endpoints = vec!["127.0.0.1:1".to_string(), addr.to_string()];
        let mut c = Client::connect_endpoints(
            &endpoints,
            ClientConfig {
                connect_timeout: Duration::from_millis(500),
                retries: 3,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            c.endpoint(),
            addr.to_string(),
            "initial connect skipped the dead one"
        );
        c.ping().unwrap();
        // Point the client back at the dead endpoint mid-stream; the
        // next idempotent call must rotate to the live one.
        c.conn = None;
        c.current = 0;
        c.ping().unwrap();
        assert_eq!(c.endpoint(), addr.to_string());
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn retry_honors_server_backoff_hint_and_stamps_deadlines() {
        // A hand-rolled server: the first request is answered with an
        // `overloaded` envelope carrying a 60ms backoff hint, the
        // second with success. Every received line is kept so the test
        // can assert the client stamped its remaining budget.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let seen = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let seen_srv = Arc::clone(&seen);
        std::thread::spawn(move || {
            for (n, s) in listener.incoming().flatten().enumerate() {
                let mut reader = BufReader::new(match s.try_clone() {
                    Ok(c) => c,
                    Err(_) => continue,
                });
                let mut line = String::new();
                if reader.read_line(&mut line).is_err() {
                    continue;
                }
                seen_srv.lock().unwrap().push(line);
                let resp = if n == 0 {
                    concat!(
                        r#"{"ok":false,"error":{"code":"overloaded","#,
                        r#""message":"shed","retry_after_ms":60}}"#,
                        "\n"
                    )
                } else {
                    "{\"ok\":true,\"pong\":true}\n"
                };
                let mut w = s;
                let _ = w.write_all(resp.as_bytes());
            }
        });
        let mut c = Client::connect_with(
            &addr,
            ClientConfig {
                retries: 3,
                // Without the hint, backoff would sleep ~1-3ms — the
                // elapsed-time assertion below separates the two.
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                total_timeout: Duration::from_secs(10),
                ..Default::default()
            },
        )
        .unwrap();
        let t0 = Instant::now();
        c.ping().unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(60),
            "client must sleep the server's hint, elapsed {:?}",
            t0.elapsed()
        );
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "{seen:?}");
        for line in seen.iter() {
            assert!(
                line.contains(r#""deadline_ms":"#),
                "total_timeout set, so every attempt stamps its remaining budget: {line}"
            );
        }
    }

    #[test]
    fn splice_member_handles_empty_and_populated_objects() {
        assert_eq!(splice_member("{}", r#""a":1"#), r#"{"a":1}"#);
        assert_eq!(
            splice_member(r#"{"cmd":"ping"}"#, r#""a":1"#),
            r#"{"cmd":"ping","a":1}"#
        );
        assert_eq!(splice_member("not json", r#""a":1"#), "not json");
    }

    #[test]
    fn backoff_grows_and_stays_capped() {
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            ..Default::default()
        };
        for attempt in 0..8 {
            let d = backoff_delay(&cfg, attempt);
            // Jitter scales by [0.5, 1.5), so the cap can stretch to
            // at most 150ms and the floor never drops below 5ms.
            assert!(d >= Duration::from_millis(5), "{d:?} at {attempt}");
            assert!(d < Duration::from_millis(150), "{d:?} at {attempt}");
        }
        let early = backoff_delay(&cfg, 0);
        assert!(early < Duration::from_millis(15), "{early:?}");
    }
}
