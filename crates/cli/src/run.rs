//! Query execution for the CLI.

use std::sync::Arc;

use topk_core::{Parallelism, ThresholdedRankQuery, TopKQuery, TopKRankQuery};
use topk_predicates::PredicateStack;
use topk_records::{Dataset, FieldId, TokenizedRecord};
use topk_service::{
    Client, ClientConfig, CorpusOptions, Engine, EngineConfig, JournalSet, Server, ServerConfig,
};

use crate::args::{ClientAction, ClientOptions, Command, Options, ServeOptions};

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    let (opts, kind) = match &cmd {
        Command::Count(o) => (o, "count"),
        Command::Rank(o) => (o, "rank"),
        Command::Thresh(o) => (o, "thresh"),
        Command::Serve(o) => return run_serve(o),
        Command::Client(o) => return run_client(o),
    };
    // The shared load-once/tokenize-once path (`topk_service::corpus`):
    // the same loader and predicate stack the server uses, so a batch
    // query and a served query over the same file agree byte-for-byte.
    if opts.trace_out.is_some() {
        // Enable before the load so tokenize spans are captured too;
        // discard anything buffered by an earlier command in-process.
        topk_obs::span::set_enabled(true);
        topk_obs::span::take_spans();
    }
    let par = Parallelism::threads(opts.threads);
    let t_load = std::time::Instant::now();
    let corpus = topk_service::load_corpus(&opts.path, &corpus_options(opts, par))?;
    let stack = corpus.stack(opts.max_df, opts.min_overlap);
    let load_elapsed = t_load.elapsed();
    let (data, toks, field) = (&corpus.data, &corpus.toks, corpus.field);
    topk_obs::info!(
        "{} records loaded from {}; matching on field `{}` ({} thread{})",
        data.len(),
        opts.path.display(),
        data.schema().field_name(field),
        par.get(),
        if par.get() == 1 { "" } else { "s" },
    );

    match kind {
        "count" => match opts.approx {
            Some(eps) => run_count_approx(data, toks, &stack, field, opts, eps, load_elapsed),
            None => run_count(data, toks, &stack, field, opts, load_elapsed),
        },
        "rank" => run_rank(data, toks, &stack, field, opts),
        _ => run_thresh(data, toks, &stack, field, opts),
    }
    if let Some(out) = &opts.trace_out {
        topk_obs::span::set_enabled(false);
        let spans = topk_obs::span::take_spans();
        let trace = topk_obs::chrome_trace(&spans);
        std::fs::write(out, trace)
            .map_err(|e| format!("cannot write trace to {}: {e}", out.display()))?;
        topk_obs::info!("wrote {} spans to {}", spans.len(), out.display());
    }
    Ok(())
}

fn corpus_options(opts: &Options, par: Parallelism) -> CorpusOptions {
    CorpusOptions {
        delimiter: opts.delimiter,
        has_header: opts.has_header,
        weight_col: opts.weight_col.clone(),
        label_col: opts.label_col.clone(),
        name_field: opts.name_field.clone(),
        parallelism: par,
    }
}

/// `topk serve`: restore and/or preload, then block in the accept loop
/// until a client sends `shutdown`.
fn run_serve(o: &ServeOptions) -> Result<(), String> {
    let par = Parallelism::threads(o.threads);
    let mut engine = Engine::new(EngineConfig {
        fields: None,
        name_field: o.name_field.clone(),
        max_df: o.max_df,
        min_overlap: o.min_overlap,
        parallelism: par,
        shards: o.shards,
        slo_p99_micros: o.slo_p99_ms.saturating_mul(1000),
        // Percentage to parts-per-million: 99.9% -> 999_000.
        slo_availability_ppm: (o.slo_availability_pct * 10_000.0).round() as u64,
        memory_budget_bytes: o.memory_budget_bytes,
    })?;
    if let Some(snap) = &o.restore {
        let generation = engine.restore(snap)?;
        topk_obs::info!("restored {} ({generation} records)", snap.display());
    }
    if let Some(path) = &o.preload {
        let corpus = topk_service::load_corpus(
            path,
            &CorpusOptions {
                delimiter: o.delimiter,
                has_header: o.has_header,
                weight_col: o.weight_col.clone(),
                label_col: o.label_col.clone(),
                name_field: o.name_field.clone(),
                parallelism: par,
            },
        )?;
        let fields: Vec<String> = (0..corpus.data.schema().arity())
            .map(|i| corpus.data.schema().field_name(FieldId(i)).to_string())
            .collect();
        let generation = engine.ingest_toks(corpus.toks, fields, corpus.field)?;
        topk_obs::info!("preloaded {} ({generation} records)", path.display());
    }
    if let Some(path) = &o.journal {
        // After restore so replay lands on the snapshotted base state —
        // together they reproduce the pre-crash engine exactly.
        let (journal, recovery) = JournalSet::open(path, o.shards)?;
        if recovery.dropped_bytes > 0 {
            topk_obs::warn!(
                "journal {}: dropped {} bytes of torn tail (crash mid-append)",
                path.display(),
                recovery.dropped_bytes
            );
        }
        let n_entries = recovery.entries;
        let n_rows = recovery.rows.len();
        engine.attach_journal(journal);
        engine.replay_rows(recovery)?;
        if n_entries > 0 {
            topk_obs::info!(
                "journal {}: replayed {n_rows} records from {n_entries} entries",
                path.display()
            );
        }
    }
    let engine = Arc::new(engine);
    // Replica mode: mark the role before the listener opens so not even
    // the first connection can sneak a write in, then start the tailer
    // that bootstraps from the primary and applies its journal stream.
    let tailer_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let tailer = o.replica_of.as_ref().map(|primary| {
        engine.set_role(topk_service::Role::Replica);
        topk_obs::info!("replica of {primary}; writes refused until `promote`");
        topk_service::spawn_tailer(
            Arc::clone(&engine),
            primary.clone(),
            Arc::clone(&tailer_stop),
        )
    });
    let mut server = Server::bind(&o.addr, Arc::clone(&engine))?;
    server.snapshot_on_exit = o.snapshot_on_exit.clone();
    if let Some(path) = &o.slow_log {
        let log = topk_service::SlowQueryLog::open(
            path,
            std::time::Duration::from_millis(o.slow_log_ms),
            o.slow_log_max_bytes,
        )
        .map_err(|e| format!("cannot open slow-query log {}: {e}", path.display()))?;
        topk_obs::info!(
            "slow-query log: {} (threshold {}ms)",
            path.display(),
            o.slow_log_ms
        );
        server.slow_log = Some(Arc::new(log));
    }
    server.config = ServerConfig {
        read_timeout: std::time::Duration::from_millis(o.read_timeout_ms),
        write_timeout: std::time::Duration::from_millis(o.write_timeout_ms),
        idle_timeout: std::time::Duration::from_millis(o.idle_timeout_ms),
        max_request_bytes: o.max_request_bytes,
        max_connections: o.max_connections,
    };
    topk_obs::info!(
        "listening on {} (protocol: docs/SERVICE.md)",
        server.local_addr()
    );
    let result = server.run();
    tailer_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(handle) = tailer {
        let _ = handle.join();
    }
    result
}

/// `topk client`: send one command, print the response line to stdout.
fn run_client(o: &ClientOptions) -> Result<(), String> {
    let ms = std::time::Duration::from_millis;
    let config = ClientConfig {
        connect_timeout: ms(o.connect_timeout_ms),
        read_timeout: ms(o.timeout_ms),
        write_timeout: ms(o.timeout_ms),
        retries: o.retries,
        total_timeout: ms(o.total_timeout_ms),
        ..Default::default()
    };
    let mut c = if o.endpoints.is_empty() {
        Client::connect_with(&o.addr, config)?
    } else {
        Client::connect_endpoints(&o.endpoints, config)?
    };
    let line = match &o.action {
        // Through the stamped client paths (trace id on the wire;
        // ping retries as an idempotent probe) — only `raw` sends a
        // line verbatim.
        ClientAction::Ping => {
            println!("{}", c.request_idempotent(r#"{"cmd":"ping"}"#)?);
            return Ok(());
        }
        ClientAction::Shutdown => {
            println!("{}", c.request(r#"{"cmd":"shutdown"}"#)?);
            return Ok(());
        }
        ClientAction::Stats => {
            println!("{}", c.request_idempotent(r#"{"cmd":"stats"}"#)?);
            return Ok(());
        }
        ClientAction::Metrics { watch } => {
            // Raw Prometheus text, ready to pipe into a scraper. With
            // --watch, clear the screen and redraw every N seconds
            // until interrupted (a terminal-friendly `watch(1)`).
            match watch {
                None => print!("{}", c.metrics_text()?),
                Some(secs) => loop {
                    let text = c.metrics_text()?;
                    print!("\x1b[2J\x1b[H{text}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                    std::thread::sleep(std::time::Duration::from_secs(*secs));
                },
            }
            return Ok(());
        }
        ClientAction::Health => {
            println!("{}", c.health()?);
            return Ok(());
        }
        ClientAction::Profiles => {
            println!("{}", topk_service::Json::Arr(c.profiles()?));
            return Ok(());
        }
        ClientAction::Trace { enabled, out } => {
            println!("{}", c.trace(*enabled, out.as_deref())?);
            return Ok(());
        }
        ClientAction::TopK | ClientAction::TopR => {
            let rank = o.action == ClientAction::TopR;
            let response = match &o.trace_out {
                None => c.query(rank, o.k, o.approx, o.explain)?,
                Some(out) => run_traced_query(&mut c, rank, o, out)?,
            };
            println!("{response}");
            return Ok(());
        }
        ClientAction::Raw(line) => line.clone(),
        ClientAction::Promote => {
            println!("{}", c.promote()?);
            return Ok(());
        }
        ClientAction::ReplStatus => {
            println!("{}", c.replstatus()?);
            return Ok(());
        }
        ClientAction::Snapshot(path) => {
            println!("{}", c.snapshot(path)?);
            return Ok(());
        }
        ClientAction::Restore(path) => {
            println!("{}", c.restore(path)?);
            return Ok(());
        }
        ClientAction::Ingest(path) => {
            let data = topk_service::load_dataset(
                path,
                &CorpusOptions {
                    delimiter: o.delimiter,
                    has_header: o.has_header,
                    weight_col: o.weight_col.clone(),
                    label_col: o.label_col.clone(),
                    name_field: None,
                    parallelism: Parallelism::sequential(),
                },
            )?;
            let rows: Vec<(Vec<String>, f64)> = data
                .records()
                .iter()
                .map(|r| (r.fields().to_vec(), r.weight()))
                .collect();
            // Batch in chunks so one request line stays a sane size.
            let mut generation = 0;
            for chunk in rows.chunks(500) {
                generation = c.ingest_batch(chunk)?;
            }
            println!(
                r#"{{"ok":true,"ingested":{},"generation":{generation}}}"#,
                rows.len()
            );
            return Ok(());
        }
    };
    println!("{}", c.request_raw(&line)?);
    Ok(())
}

/// `topk client topk/topr --trace-out P`: run one traced query and
/// write a Chrome trace holding both the client's and the server's
/// spans as two named processes, joined by the request's trace id.
fn run_traced_query(
    c: &mut Client,
    rank: bool,
    o: &ClientOptions,
    out: &std::path::Path,
) -> Result<topk_service::Json, String> {
    use topk_service::Json;
    // Start both collectors clean: anything buffered before this query
    // belongs to someone else's timeline. `trace_drain_inline(true)`
    // discards the server's backlog and enables tracing in one request.
    topk_obs::span::set_enabled(true);
    topk_obs::span::take_spans();
    c.trace_drain_inline(Some(true))?;
    let response = c.query(rank, o.k, o.approx, o.explain)?;
    let trace_id = c.last_trace_id().unwrap_or("?").to_string();
    let drained = c.trace_drain_inline(Some(false))?;
    topk_obs::span::set_enabled(false);
    let local = topk_obs::span::take_spans();
    // Partition by span name, not by where a span was collected: when
    // client and server share a process (tests, loopback experiments)
    // both halves land in one buffer, and the name prefix is the only
    // reliable process marker.
    let pid_for = |name: &str| if name.starts_with("client.") { 1 } else { 2 };
    let mut events: Vec<topk_obs::TraceEvent> = local
        .iter()
        .map(|s| topk_obs::TraceEvent::from_span(s, pid_for(s.name)))
        .collect();
    for s in drained.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("span")
            .to_string();
        let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut fields = Vec::new();
        if let Some(Json::Obj(members)) = s.get("fields") {
            for (k, v) in members {
                let fv = match v {
                    Json::Num(n) => topk_obs::FieldValue::F64(*n),
                    Json::Bool(b) => topk_obs::FieldValue::Bool(*b),
                    Json::Str(t) => topk_obs::FieldValue::Str(t.clone()),
                    _ => continue,
                };
                fields.push((k.clone(), fv));
            }
        }
        events.push(topk_obs::TraceEvent {
            pid: pid_for(&name),
            tid: num("tid"),
            ts_ns: num("ts_ns"),
            dur_ns: num("dur_ns"),
            name,
            fields,
        });
    }
    let trace = topk_obs::chrome_trace_events(&[(1, "client"), (2, "server")], &events);
    std::fs::write(out, trace)
        .map_err(|e| format!("cannot write trace to {}: {e}", out.display()))?;
    topk_obs::info!(
        "wrote stitched trace ({} events, trace id {trace_id}) to {}",
        events.len(),
        out.display()
    );
    Ok(response)
}

/// Built-in scorer: the library's default name scorer (3-gram overlap +
/// Jaro-Winkler with a 0.55 decision threshold).
fn scorer_for(field: FieldId) -> topk_cluster::SimilarityScorer {
    topk_cluster::SimilarityScorer::name_default(field)
}

fn run_count(
    data: &Dataset,
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    field: FieldId,
    opts: &Options,
    load_elapsed: std::time::Duration,
) {
    let mut q = TopKQuery::new(opts.k, opts.r);
    q.alpha = opts.alpha;
    q.parallelism = Parallelism::threads(opts.threads);
    let scorer = scorer_for(field);
    let t_query = std::time::Instant::now();
    let res = q.run(toks, stack, &scorer);
    let query_elapsed = t_query.elapsed();
    for it in &res.stats.iterations {
        topk_obs::debug!(
            "collapse -> {} groups ({:.2}%), M={:.1}, prune -> {} ({:.2}%)",
            it.n_after_collapse,
            it.pct_after_collapse,
            it.lower_bound,
            it.n_after_prune,
            it.pct_after_prune
        );
    }
    for (ai, ans) in res.answers.iter().enumerate() {
        println!("# answer {} (score {:.3})", ai + 1, ans.score);
        for (rank, g) in ans.groups.iter().enumerate() {
            println!(
                "{}\t{:.3}\t{}\t{}",
                rank + 1,
                g.weight,
                g.records.len(),
                data.record(topk_records::RecordId(g.rep)).field(field)
            );
        }
    }
    if opts.explain {
        // The same profile shape the server attaches under
        // `"explain":true`, assembled for the batch pipeline.
        let mut p = topk_service::QueryProfile::new("topk", opts.k);
        p.stage("load", load_elapsed);
        p.stage("query", query_elapsed);
        p.groups_returned = res.answers.first().map_or(0, |a| a.groups.len());
        p.total_micros = (load_elapsed + query_elapsed).as_micros() as u64;
        println!("# profile\t{}", p.render());
    }
}

/// `topk count --approx E`: estimate group weights from a bottom-m
/// sample and escalate only the partitions whose confidence interval
/// overlaps the K-boundary to the exact collapse (docs/APPROX.md).
fn run_count_approx(
    data: &Dataset,
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    field: FieldId,
    opts: &Options,
    eps: f64,
    load_elapsed: std::time::Duration,
) {
    let t_query = std::time::Instant::now();
    let s_pred = stack.levels[0].0.as_ref();
    let topk_approx::ApproxAnswer {
        top,
        sample_size: used,
        escalated_partitions,
    } = topk_approx::approx_topk(toks, field, s_pred, opts.k, eps);
    println!(
        "# approx answer (epsilon {eps}, sample {used}/{}, escalated {} partitions)",
        toks.len(),
        escalated_partitions.len()
    );
    for (rank, g) in top.iter().enumerate() {
        println!(
            "{}\t{:.3}\t[{:.3}, {:.3}]\t{}\t{}\t{}",
            rank + 1,
            g.estimate,
            g.lo,
            g.hi,
            g.size,
            if g.escalated { "exact" } else { "approx" },
            data.record(topk_records::RecordId(g.rep_rid as u32))
                .field(field)
        );
    }
    if opts.explain {
        let query_elapsed = t_query.elapsed();
        let mut p = topk_service::QueryProfile::new("topk", opts.k);
        p.stage("load", load_elapsed);
        p.stage("query", query_elapsed);
        p.groups_returned = top.len();
        p.approx = Some(topk_service::ApproxProfile {
            epsilon: eps,
            sample_requested: topk_approx::sample_size(eps),
            sample_size: used,
            population: toks.len() as u64,
            escalated_partitions,
            // Escalated partitions were collapsed exactly; everything
            // else carries its interval, so the answer as printed is
            // certified iff nothing stayed approximate.
            certified: top.iter().all(|g| g.escalated),
        });
        p.total_micros = (load_elapsed + query_elapsed).as_micros() as u64;
        println!("# profile\t{}", p.render());
    }
}

fn run_rank(
    data: &Dataset,
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    field: FieldId,
    opts: &Options,
) {
    let mut q = TopKRankQuery::new(opts.k);
    q.parallelism = Parallelism::threads(opts.threads);
    let res = q.run(toks, stack);
    println!("# rank query, certified: {}", res.certified);
    for (rank, e) in res.entries.iter().enumerate() {
        println!(
            "{}\t{:.3}\t<= {:.3}\t{}",
            rank + 1,
            e.weight,
            e.upper_bound,
            data.record(topk_records::RecordId(e.rep)).field(field)
        );
    }
}

fn run_thresh(
    data: &Dataset,
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    field: FieldId,
    opts: &Options,
) {
    let t = opts.threshold.expect("validated by the parser");
    let mut q = ThresholdedRankQuery::new(t);
    q.parallelism = Parallelism::threads(opts.threads);
    let res = q.run(toks, stack);
    println!("# thresholded query T={t}, certified: {}", res.certified);
    for (rank, e) in res.entries.iter().enumerate() {
        println!(
            "{}\t{:.3}\t<= {:.3}\t{}",
            rank + 1,
            e.weight,
            e.upper_bound,
            data.record(topk_records::RecordId(e.rep)).field(field)
        );
    }
}

/// Span enable/drain state is process-global; tests that toggle or
/// drain it (in any test module of this binary) must not interleave.
#[cfg(test)]
static TRACE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    /// The shared sample file, written once per test process: tests run
    /// on parallel threads, and a rewrite under a concurrent reader
    /// hands it a truncated file.
    fn write_sample() -> std::path::PathBuf {
        static SAMPLE: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
        SAMPLE
            .get_or_init(|| {
                let dir = std::env::temp_dir().join("topk_cli_test");
                std::fs::create_dir_all(&dir).unwrap();
                let path = dir.join("sample.tsv");
                let d = topk_datagen::generate_citations(&topk_datagen::CitationConfig {
                    n_authors: 40,
                    n_citations: 200,
                    ..Default::default()
                });
                topk_records::io::write_tsv(&d, &path).unwrap();
                path
            })
            .clone()
    }

    #[test]
    fn count_query_end_to_end() {
        let path = write_sample();
        let cmd = parse(&[
            "count".into(),
            path.display().to_string(),
            "--k".into(),
            "3".into(),
            "--name-field".into(),
            "author".into(),
        ])
        .unwrap();
        run(cmd).expect("count query runs");
    }

    #[test]
    fn rank_and_thresh_end_to_end() {
        let path = write_sample();
        let rank = parse(&[
            "rank".into(),
            path.display().to_string(),
            "--k".into(),
            "2".into(),
        ])
        .unwrap();
        run(rank).expect("rank query runs");
        let thresh = parse(&[
            "thresh".into(),
            path.display().to_string(),
            "--threshold".into(),
            "5".into(),
        ])
        .unwrap();
        run(thresh).expect("thresh query runs");
    }

    #[test]
    fn approx_count_query_end_to_end() {
        let path = write_sample();
        let cmd = parse(&[
            "count".into(),
            path.display().to_string(),
            "--k".into(),
            "3".into(),
            "--approx".into(),
            "0.1".into(),
            "--name-field".into(),
            "author".into(),
        ])
        .unwrap();
        run(cmd).expect("approx count query runs");
    }

    #[test]
    fn count_query_with_explicit_threads() {
        let path = write_sample();
        let cmd = parse(&[
            "count".into(),
            path.display().to_string(),
            "--k".into(),
            "3".into(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
        run(cmd).expect("threaded count query runs");
    }

    #[test]
    fn count_query_with_explain() {
        let path = write_sample();
        let cmd = parse(&[
            "count".into(),
            path.display().to_string(),
            "--k".into(),
            "3".into(),
            "--explain".into(),
        ])
        .unwrap();
        run(cmd).expect("explained count query runs");
        let approx = parse(&[
            "count".into(),
            path.display().to_string(),
            "--k".into(),
            "3".into(),
            "--approx".into(),
            "0.1".into(),
            "--explain".into(),
        ])
        .unwrap();
        run(approx).expect("explained approx count query runs");
    }

    #[test]
    fn count_query_writes_chrome_trace() {
        let _guard = super::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let path = write_sample();
        let out = std::env::temp_dir()
            .join("topk_cli_test")
            .join("count_trace.json");
        let _ = std::fs::remove_file(&out);
        let cmd = parse(&[
            "count".into(),
            path.display().to_string(),
            "--k".into(),
            "3".into(),
            "--trace-out".into(),
            out.display().to_string(),
        ])
        .unwrap();
        run(cmd).expect("traced count query runs");
        let trace = std::fs::read_to_string(&out).expect("trace file written");
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        for needle in [
            "\"name\":\"pipeline.run\"",
            "\"name\":\"tokenize\"",
            "\"name\":\"collapse\"",
            "\"name\":\"lower_bound\"",
            "\"name\":\"prune\"",
            "\"m_lower_bound\":",
            "\"refine_pass\":",
            "\"groups_pruned\":",
        ] {
            assert!(trace.contains(needle), "trace missing {needle}");
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let cmd = parse(&["count".into(), "/nonexistent/xyz.tsv".into()]).unwrap();
        assert!(run(cmd).is_err());
    }

    #[test]
    fn unknown_field_is_an_error() {
        let path = write_sample();
        let cmd = parse(&[
            "count".into(),
            path.display().to_string(),
            "--name-field".into(),
            "nope".into(),
        ])
        .unwrap();
        assert!(run(cmd).is_err());
    }
}

#[cfg(test)]
mod serve_cli_tests {
    use super::*;
    use crate::args::parse;

    fn write_sample(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("topk_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 15,
            n_records: 60,
            ..Default::default()
        });
        topk_records::io::write_tsv(&d, &path).unwrap();
        path
    }

    /// Find a free loopback port (bind, read, drop — the tiny reuse race
    /// is acceptable in a test).
    fn free_port() -> u16 {
        std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port()
    }

    #[test]
    fn serve_preload_client_shutdown_end_to_end() {
        let data = write_sample("preload.tsv");
        let snap = std::env::temp_dir()
            .join("topk_cli_serve_test")
            .join("exit.snap");
        let _ = std::fs::remove_file(&snap);
        let port = free_port();
        let addr = format!("127.0.0.1:{port}");
        let serve = parse(&[
            "serve".to_string(),
            "--addr".into(),
            addr.clone(),
            "--preload".into(),
            data.display().to_string(),
            "--snapshot-on-exit".into(),
            snap.display().to_string(),
            "--threads".into(),
            "1".into(),
        ])
        .unwrap();
        let server = std::thread::spawn(move || run(serve));
        // Wait for the listener, then drive it through the CLI client.
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(&addr) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let mut c = client.expect("server came up");
        let stats = c.stats().unwrap();
        assert_eq!(
            stats.get("records").and_then(topk_service::Json::as_usize),
            Some(60),
            "preload ingested the file"
        );
        // The one-shot CLI client paths against the same server.
        let mk = |args: &[&str]| {
            let mut v = vec!["client".to_string()];
            v.extend(args.iter().map(|s| s.to_string()));
            parse(&v).unwrap()
        };
        run(mk(&["ping", "--addr", &addr])).expect("client ping");
        run(mk(&["topk", "--k", "3", "--addr", &addr])).expect("client topk");
        let extra = write_sample("extra.tsv");
        run(mk(&[
            "ingest",
            &extra.display().to_string(),
            "--addr",
            &addr,
        ]))
        .expect("client ingest");
        run(mk(&["shutdown", "--addr", &addr])).expect("client shutdown");
        server.join().unwrap().expect("server ran clean");
        assert!(snap.exists(), "snapshot-on-exit written");
        // The snapshot holds preload + client-ingested records.
        let restore = parse(&[
            "serve".to_string(),
            "--addr".into(),
            format!("127.0.0.1:{}", free_port()),
            "--restore".into(),
            snap.display().to_string(),
        ])
        .unwrap();
        match restore {
            Command::Serve(o) => {
                let engine = Engine::new(EngineConfig::default()).unwrap();
                let generation = engine.restore(o.restore.as_ref().unwrap()).unwrap();
                assert_eq!(generation, 120, "60 preloaded + 60 ingested");
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn serve_journal_replays_ingests_after_restart() {
        let dir = std::env::temp_dir().join("topk_cli_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("ingest.wal");
        let _ = std::fs::remove_file(&jpath);
        let serve_on = |addr: &str| {
            parse(&[
                "serve".to_string(),
                "--addr".into(),
                addr.to_string(),
                "--journal".into(),
                jpath.display().to_string(),
                "--threads".into(),
                "1".into(),
            ])
            .unwrap()
        };
        let connect = |addr: &str| {
            for _ in 0..100 {
                if let Ok(c) = Client::connect(addr) {
                    return c;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            panic!("server at {addr} never came up");
        };
        let addr = format!("127.0.0.1:{}", free_port());
        let cmd = serve_on(&addr);
        let server = std::thread::spawn(move || run(cmd));
        let mut c = connect(&addr);
        c.ingest_batch(&[
            (vec!["grace hopper".into()], 1.0),
            (vec!["grace  hopper".into()], 1.0),
        ])
        .unwrap();
        // Shut down WITHOUT a snapshot: the ingests live only in the
        // journal, so the restart must get them from replay.
        c.shutdown().unwrap();
        server.join().unwrap().expect("server ran clean");
        assert!(jpath.exists(), "journal file written");
        let addr = format!("127.0.0.1:{}", free_port());
        let cmd = serve_on(&addr);
        let server = std::thread::spawn(move || run(cmd));
        let mut c = connect(&addr);
        let stats = c.stats().unwrap();
        assert_eq!(
            stats.get("records").and_then(topk_service::Json::as_usize),
            Some(2),
            "journal replay restored the ingested records: {stats}"
        );
        c.shutdown().unwrap();
        server.join().unwrap().expect("replayed server ran clean");
    }

    #[test]
    fn serve_observability_end_to_end() {
        let _guard = super::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let data = write_sample("obs.tsv");
        let dir = std::env::temp_dir().join("topk_cli_serve_test");
        let slow = dir.join("slow.jsonl");
        let stitched = dir.join("stitched.json");
        let _ = std::fs::remove_file(&slow);
        let _ = std::fs::remove_file(&stitched);
        let port = free_port();
        let addr = format!("127.0.0.1:{port}");
        let serve = parse(&[
            "serve".to_string(),
            "--addr".into(),
            addr.clone(),
            "--preload".into(),
            data.display().to_string(),
            "--threads".into(),
            "1".into(),
            // Threshold 0: every request is "slow", so the log is
            // deterministic to assert on.
            "--slow-log".into(),
            slow.display().to_string(),
            "--slow-log-ms".into(),
            "0".into(),
        ])
        .unwrap();
        let server = std::thread::spawn(move || run(serve));
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(&addr) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let mut c = client.expect("server came up");
        let mk = |args: &[&str]| {
            let mut v = vec!["client".to_string()];
            v.extend(args.iter().map(|s| s.to_string()));
            parse(&v).unwrap()
        };
        // Stitched trace: one traced explained query through the CLI.
        run(mk(&[
            "topk",
            "--k",
            "3",
            "--explain",
            "--trace-out",
            &stitched.display().to_string(),
            "--addr",
            &addr,
        ]))
        .expect("traced explained client topk");
        let trace = std::fs::read_to_string(&stitched).expect("stitched trace written");
        assert!(trace.contains(r#""name":"client.request""#), "{trace}");
        assert!(trace.contains(r#""name":"service.request""#), "{trace}");
        assert!(trace.contains(r#""process_name""#), "{trace}");
        // Both halves carry the same trace id: every id stamped on a
        // span appears at least twice (client span + server span).
        let ids: Vec<&str> = trace
            .match_indices(r#""trace":"c"#)
            .map(|(i, _)| {
                let rest = &trace[i + 9..];
                &rest[..rest.find('"').map_or(rest.len(), |j| j + 1)]
            })
            .collect();
        assert!(!ids.is_empty(), "spans carry trace ids: {trace}");
        // The CLI observability paths all run against the live server.
        run(mk(&["health", "--addr", &addr])).expect("client health");
        run(mk(&["profiles", "--addr", &addr])).expect("client profiles");
        run(mk(&["metrics", "--addr", &addr])).expect("client metrics");
        // Direct assertions on what those commands return.
        let h = c.health().unwrap();
        assert!(
            h.get("healthy")
                .and_then(topk_service::Json::as_bool)
                .is_some(),
            "{h}"
        );
        let explained = c.query(false, 2, None, true).unwrap();
        assert!(explained.get("profile").is_some(), "{explained}");
        c.shutdown().unwrap();
        server.join().unwrap().expect("server ran clean");
        // Slow log (threshold 0) recorded every request with its
        // client-stamped trace id.
        let text = std::fs::read_to_string(&slow).expect("slow log written");
        assert!(text.lines().count() >= 3, "{text}");
        assert!(text.contains(r#""trace":"c"#), "{text}");
        assert!(text.contains(r#""cmd":"topk""#), "{text}");
        assert!(text.contains(r#""latency_micros":"#), "{text}");
    }

    #[test]
    fn client_fails_cleanly_without_server() {
        let cmd = parse(&[
            "client".to_string(),
            "ping".into(),
            "--addr".into(),
            "127.0.0.1:1".into(),
        ])
        .unwrap();
        let err = run(cmd).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }
}

#[cfg(test)]
mod delimited_cli_tests {
    use super::*;
    use crate::args::parse;

    #[test]
    fn csv_with_flags_end_to_end() {
        let dir = std::env::temp_dir().join("topk_cli_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("orgs.csv");
        std::fs::write(
            &path,
            "org,mentions\nAcme Widget Corp,1\nAcme Widget Corp,1\nacme widget corp,1\nOther Co,1\n",
        )
        .unwrap();
        let cmd = parse(&[
            "count".into(),
            path.display().to_string(),
            "--delimiter".into(),
            ",".into(),
            "--weight-col".into(),
            "mentions".into(),
            "--name-field".into(),
            "org".into(),
            "--k".into(),
            "2".into(),
        ])
        .unwrap();
        run(cmd).expect("csv count query runs");
    }

    #[test]
    fn bad_delimiter_rejected() {
        assert!(parse(&[
            "count".into(),
            "x.csv".into(),
            "--delimiter".into(),
            "ab".into()
        ])
        .is_err());
    }
}
