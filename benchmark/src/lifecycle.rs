//! One run of one workload: set-up, then the whole life of a server
//! driven from outside — load, `kill -9`, recovery, write bursts each
//! followed by a query, cache-hit reads, snapshot and restore — then the
//! batch CLI on the same rows, and last the verification of every answer
//! against references computed in this process (`layers.rs`).
//!
//! All four workloads run these phases, which is why each reports every
//! end-to-end metric; a workload is a corpus, a server configuration and
//! a split of the operations between the phases (`spec::Plan`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::gen::{self, Corpus, Row};
use crate::json::{self, Value};
use crate::layers::{self, Span};
use crate::proc::{run_cli, thread_cpu_secs, Server, ServerSpec};
use crate::spec::{Plan, Tier, APPROX_EVERY, CONNS, EPSILON, HOT_KS, K, TICK_MS};
use crate::stats::{
    self, calm_high, calm_low, calm_p50, fnv1a, median, median_of, percentile, sorted, Lateness,
    FNV_OFFSET,
};
use crate::wire::{is_degraded, is_ok, strip_profile, Conn};

/// Where a run finds the program and keeps its files.
pub struct Env {
    /// The `topk` binary under test.
    pub topk: PathBuf,
    /// A directory of this run's own (journal, snapshot, TSV, logs).
    pub work: PathBuf,
    /// Where trace files are kept (`benchmark/out`).
    pub out: PathBuf,
}

/// Everything the timed phases send, built by [`setup`].
pub struct Inputs {
    pub corpus: Corpus,
    load_lines: Vec<String>,
    load_counts: Vec<usize>,
    burst_rows: Vec<Vec<usize>>,
    burst_lines: Vec<String>,
    /// The plain `topk` request line of each of [`HOT_KS`].
    hot_lines: Vec<String>,
    /// Reference `topk` lines once the load is in, one per [`HOT_KS`].
    after_load: Vec<String>,
    tsv: PathBuf,
    batch_len: usize,
}

/// Set-up: corpus, bursts, every request line, the batch TSV, and the
/// reference answers for the loaded corpus.
pub fn setup(
    plan: &Plan,
    tier: Tier,
    population: u64,
    seed: u64,
    env: &Env,
) -> Result<Inputs, String> {
    let corpus = gen::corpus(plan, population);
    let burst_rows = gen::bursts(&corpus, plan.mix_ticks, seed);
    let batches: Vec<&[Row]> = corpus.rows.chunks(plan.load_batch).collect();
    let load_lines = batches.iter().map(|b| gen::ingest_line(*b)).collect();
    let load_counts = batches.iter().map(|b| b.len()).collect();
    let burst_lines = burst_rows
        .iter()
        .map(|b| gen::ingest_line(b.iter().map(|&i| &corpus.rows[i])))
        .collect();
    let after_load = layers::answers_after_load(&corpus.rows, plan.max_df, tier == Tier::Smoke)?;
    let batch_len = plan.batch_rows.min(corpus.rows.len());
    let tsv = env.work.join("batch.tsv");
    std::fs::write(
        &tsv,
        gen::tsv(&corpus.field_names, &corpus.rows[..batch_len]),
    )
    .map_err(|e| format!("cannot write {}: {e}", tsv.display()))?;
    Ok(Inputs {
        corpus,
        load_lines,
        load_counts,
        burst_rows,
        burst_lines,
        hot_lines: HOT_KS
            .iter()
            .map(|&k| gen::query_line(k, None, false, None))
            .collect(),
        after_load,
        tsv,
        batch_len,
    })
}

/// Operations attempted and failed, the first few reasons, and the
/// running hash of every answer that was checked.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub answer_fnv: u64,
}

impl Tally {
    /// No operation failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            answer_fnv: FNV_OFFSET,
        }
    }

    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why());
        }
    }

    /// One operation sent to the program; `ok` is whether it succeeded.
    fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why);
        }
    }

    /// A verification of an operation already counted.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }

    fn answer(&mut self, bytes: &str) {
        self.answer_fnv = fnv1a(self.answer_fnv, bytes.as_bytes());
    }
}

pub struct Outcome {
    /// Set when the open-loop generator ran too late for the run to
    /// count: the numbers are printed but `--aa` refuses them.
    pub invalid: Option<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    /// Sample counts and other facts a reader needs beside the numbers.
    pub notes: Vec<String>,
    /// Seconds the measured phases took, load to last CLI run.
    pub measured_s: f64,
}

fn clip(s: &str) -> &str {
    let mut end = s.len().min(160);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// One request whose reply must be a success envelope.
fn call_ok(conn: &mut Conn, line: &str, tally: &mut Tally) -> Result<String, String> {
    let reply = conn
        .call(line)
        .map_err(|e| format!("{}: {e}", clip(line)))?
        .to_string();
    tally.op(is_ok(&reply), || {
        format!("{} -> {}", clip(line), clip(&reply))
    });
    Ok(reply)
}

fn stats_of(conn: &mut Conn, tally: &mut Tally) -> Result<Value, String> {
    json::parse(&call_ok(conn, "{\"cmd\":\"stats\"}\n", tally)?)
}

/// The plain `topk` of every k in [`HOT_KS`], in that order.
fn ask_hot(conn: &mut Conn, lines: &[String], tally: &mut Tally) -> Result<Vec<String>, String> {
    lines
        .iter()
        .map(|line| call_ok(conn, line, tally))
        .collect()
}

fn counter(stats: &Value, name: &str) -> f64 {
    stats
        .path(&["metrics", name])
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

// ---- mix phase -------------------------------------------------------------

struct MixOut {
    fresh_us: Vec<f64>,
    approx_us: Vec<f64>,
    ack_us: Vec<f64>,
    lateness: Lateness,
    busy_pct: f64,
    /// One answer per tick, without any `profile` member.
    answers: Vec<String>,
    /// The `profile` of each explained query: (was approximate, profile).
    profiles: Vec<(bool, Value)>,
}

fn is_approx_tick(i: usize) -> bool {
    i % APPROX_EVERY == APPROX_EVERY - 1
}

/// Open loop, one scheduler thread: tick `i` is due `i` periods after
/// the start whatever happened before it. The burst goes out on `a` and
/// its ack is timed from the due time, so a stall is charged to every
/// tick it delays; the query then goes out on `b`, timed from its send.
fn mix(
    a: &mut Conn,
    b: &mut Conn,
    burst_lines: &[String],
    first_tick: usize,
    traced: bool,
    tally: &mut Tally,
) -> Result<MixOut, String> {
    let queries: Vec<String> = (0..burst_lines.len())
        .map(|i| {
            let approx = is_approx_tick(first_tick + i).then_some(EPSILON);
            let id = format!("mix-{}", first_tick + i);
            gen::query_line(K, approx, traced, traced.then_some(id.as_str()))
        })
        .collect();
    let mut out = MixOut {
        fresh_us: Vec::new(),
        approx_us: Vec::new(),
        ack_us: Vec::new(),
        lateness: Lateness::default(),
        busy_pct: f64::NAN,
        answers: Vec::with_capacity(burst_lines.len()),
        profiles: Vec::new(),
    };
    let period = Duration::from_millis(TICK_MS);
    let cpu0 = thread_cpu_secs();
    let start = Instant::now() + Duration::from_millis(2);
    for (i, (burst, query)) in burst_lines.iter().zip(&queries).enumerate() {
        let due = start + period * i as u32;
        // Busy-wait, never sleep: a vCPU left idle is halted, and both
        // the next wake-up and every request after it get slower (the
        // post-write query went from 4 ms to 8 ms after two seconds of
        // sleeping ticks, and the phase after it stayed slow).
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let started = Instant::now();
        out.lateness.record(
            us(due - start),
            us(started.saturating_duration_since(start)),
            us(period),
        );
        let approx = is_approx_tick(first_tick + i);
        let mut sp = Span::enter("bench.mix_tick");
        if sp.is_recording() {
            sp.record("trace", format!("mix-{}", first_tick + i));
        }
        let ack = a.call(burst).map_err(|e| format!("burst {i}: {e}"))?;
        out.ack_us.push(us(due.elapsed()));
        let ack_ok = is_ok(ack);
        tally.op(ack_ok, || format!("burst {i} -> {}", clip(ack)));
        let sent = Instant::now();
        let reply = b.call(query).map_err(|e| format!("query {i}: {e}"))?;
        let took = us(sent.elapsed());
        drop(sp);
        // A degraded answer to an exact query is a failed operation: the
        // run would be timing the other tier.
        let good = is_ok(reply) && (approx || !is_degraded(reply));
        tally.op(good, || format!("tick {i} query -> {}", clip(reply)));
        if approx {
            out.approx_us.push(took);
        } else {
            out.fresh_us.push(took);
        }
        match strip_profile(reply) {
            Some(plain) => {
                let profile = json::parse(reply)?
                    .get("profile")
                    .cloned()
                    .unwrap_or(Value::Null);
                out.profiles.push((approx, profile));
                out.answers.push(plain);
            }
            None => out.answers.push(reply.to_string()),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    if let (Some(c0), Some(c1)) = (cpu0, thread_cpu_secs()) {
        out.busy_pct = 100.0 * (c1 - c0) / wall.max(1e-9);
    }
    Ok(out)
}

// ---- hot phase -------------------------------------------------------------

/// Requests per connection in one segment of the hot phase.
const HOT_SEGMENT: usize = 1_000;

struct HotOut {
    lat_us: Vec<f64>,
    /// Requests per second of one connection, one value per segment.
    segment_rps: Vec<f64>,
    /// Median and exact p99 of each segment's own samples.
    segment_p50_us: Vec<f64>,
    segment_p99_us: Vec<f64>,
}

impl HotOut {
    // Every number of the phase is the calm value (`stats::calm_low`)
    // over its fixed-size segments.
    fn p50_us(&self) -> f64 {
        calm_low(&self.segment_p50_us)
    }

    fn p99_us(&self) -> f64 {
        calm_low(&self.segment_p99_us)
    }

    fn qps(&self) -> f64 {
        CONNS as f64 * calm_high(&self.segment_rps)
    }
}

/// Closed loop, [`CONNS`] connections of one thread each; every request
/// is a generation-keyed cache hit and every reply is compared with the
/// answer the first query of its k got.
fn hot(
    addr: &str,
    lines: &[String],
    expected: &[String],
    per_conn: usize,
    traced: bool,
    tally: &mut Tally,
) -> Result<HotOut, String> {
    let barrier = Barrier::new(CONNS + 1);
    type ConnOut = Result<(Vec<f64>, u64, Option<String>), String>;
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> ConnOut {
                    let conn = Conn::connect(addr).map_err(|e| format!("hot connection {c}: {e}"));
                    barrier.wait();
                    let mut conn = conn?;
                    let mut lat = Vec::with_capacity(per_conn);
                    let (mut bad, mut first_bad) = (0u64, None);
                    for i in 0..per_conn {
                        let which = (i + c) % HOT_KS.len();
                        let t = Instant::now();
                        let reply = if traced {
                            let id = format!("hot-{c}-{i}");
                            let mut sp = Span::enter("bench.hot_request");
                            sp.record("trace", id.as_str());
                            conn.call(&gen::query_line(HOT_KS[which], None, false, Some(&id)))
                        } else {
                            conn.call(&lines[which])
                        }
                        .map_err(|e| format!("hot request {i} on connection {c}: {e}"))?;
                        lat.push(us(t.elapsed()));
                        if reply != expected[which] {
                            bad += 1;
                            first_bad.get_or_insert_with(|| clip(reply).to_string());
                        }
                    }
                    Ok((lat, bad, first_bad))
                })
            })
            .collect();
        barrier.wait();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("hot worker panicked".into()))
            })
            .collect::<Vec<ConnOut>>()
    });
    let mut out = HotOut {
        lat_us: Vec::with_capacity(per_conn * CONNS),
        segment_rps: Vec::new(),
        segment_p50_us: Vec::new(),
        segment_p99_us: Vec::new(),
    };
    for r in results {
        let (lat, bad, first_bad) = r?;
        tally.attempted += lat.len() as u64;
        if bad > 0 {
            tally.failed += bad - 1;
            tally.fail(|| {
                format!(
                    "{bad} hot replies differ from the first answer, e.g. {}",
                    first_bad.unwrap_or_default()
                )
            });
        }
        // A closed loop: a connection's segment lasts as long as its
        // requests took, back to back.
        for seg in lat.chunks_exact(HOT_SEGMENT.min(lat.len().max(1))) {
            out.segment_rps
                .push(seg.len() as f64 / (seg.iter().sum::<f64>() / 1e6));
            let seg = sorted(seg.to_vec());
            out.segment_p50_us.push(median(&seg));
            out.segment_p99_us.push(percentile(&seg, 99.0));
        }
        out.lat_us.extend(lat);
    }
    Ok(out)
}

// ---- batch phase -----------------------------------------------------------

/// The printed answer rows of a CLI run: (rank, third column).
fn answer_rows(stdout: &str) -> Vec<(usize, String)> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut cols = l.split('\t');
            let rank = cols.next()?.parse().ok()?;
            Some((rank, cols.nth(1)?.to_string()))
        })
        .collect()
}

/// Everything but the `# profile` line.
fn without_profile(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("# profile"))
        .collect::<Vec<_>>()
        .join("\n")
}

struct BatchOut {
    count_s: Vec<f64>,
    rank_s: Vec<f64>,
    approx_s: Vec<f64>,
    /// Per-layer numbers of the one traced `topk count` run.
    traced: Vec<(&'static str, f64)>,
}

fn batch(
    plan: &Plan,
    inputs: &Inputs,
    env: &Env,
    traced: bool,
    tally: &mut Tally,
) -> Result<BatchOut, String> {
    let base = |cmd: &str, extra: &[&str]| -> Vec<String> {
        let mut v = vec![cmd.to_string(), inputs.tsv.display().to_string()];
        v.extend(["--k", &K.to_string(), "--max-df", &plan.max_df.to_string()].map(String::from));
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };
    let mut out = BatchOut {
        count_s: Vec::new(),
        rank_s: Vec::new(),
        approx_s: Vec::new(),
        traced: Vec::new(),
    };
    let run = |args: Vec<String>, tally: &mut Tally| -> Result<(String, f64), String> {
        let _sp = Span::enter("bench.cli");
        match run_cli(&env.topk, &args) {
            Ok(r) => {
                tally.op(true, String::new);
                Ok((r.stdout, r.secs))
            }
            Err(e) => {
                tally.op(false, || e.clone());
                Err(e)
            }
        }
    };
    let mut first: [Option<String>; 3] = [None, None, None];
    // Answers are compared without the `# profile` line, whose timings
    // differ from run to run.
    let mut same = |slot: usize, what: &str, stdout: &str, tally: &mut Tally| {
        let answer = without_profile(stdout);
        match &first[slot] {
            None => {
                tally.answer(&answer);
                first[slot] = Some(answer);
            }
            Some(f) => tally.check(*f == answer, || {
                format!("`topk {what}` printed a different answer on a repetition")
            }),
        }
    };
    for _ in 0..plan.batch_reps {
        let (stdout, secs) = run(base("count", &["--threads", "2"]), tally)?;
        out.count_s.push(secs);
        same(0, "count", &stdout, tally);
        let (stdout, secs) = run(base("rank", &[]), tally)?;
        out.rank_s.push(secs);
        same(1, "rank", &stdout, tally);
    }
    // The answer must not depend on the thread count.
    let (stdout, _) = run(base("count", &["--threads", "1"]), tally)?;
    same(0, "count --threads 1", &stdout, tally);
    if traced {
        let eps = EPSILON.to_string();
        for _ in 0..plan.batch_reps {
            let (stdout, secs) = run(base("count", &["--approx", &eps]), tally)?;
            out.approx_s.push(secs);
            same(2, "count --approx", &stdout, tally);
        }
        let trace = env.out.join(format!("trace-{}-cli.json", plan.name));
        let trace_arg = trace.display().to_string();
        let (stdout, _) = run(
            base(
                "count",
                &["--threads", "2", "--explain", "--trace-out", &trace_arg],
            ),
            tally,
        )?;
        same(0, "count --explain", &stdout, tally);
        out.traced = cli_layers(&stdout, &trace)?;
    }
    // Regime guard on the batch side.
    let rows = answer_rows(first[0].as_deref().unwrap_or_default());
    let head: usize = rows
        .first()
        .and_then(|(_, size)| size.parse().ok())
        .unwrap_or(0);
    tally.check(rows.len() >= K && head >= plan.batch_min_head, || {
        format!(
            "batch regime guard: {} answer rows, top-1 of {head} members (need {K} and {})",
            rows.len(),
            plan.batch_min_head
        )
    });
    Ok(out)
}

/// Stage times of one `topk count --explain --trace-out` run: the load
/// stage from the printed profile, the pipeline stages from the span
/// file the program wrote.
fn cli_layers(stdout: &str, trace: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let profile = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# profile\t"))
        .ok_or("`topk count --explain` printed no profile line")?;
    let profile = json::parse(profile)?;
    let load_us = profile
        .get("stages")
        .and_then(Value::as_arr)
        .and_then(|s| {
            s.iter()
                .find(|st| st.get("stage").and_then(Value::as_str) == Some("load"))
        })
        .and_then(|st| st.get("micros"))
        .and_then(Value::as_f64)
        .ok_or("profile has no load stage")?;
    let text = std::fs::read_to_string(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    let events = json::parse(&text)?;
    let events = events
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("trace file has no traceEvents")?;
    let total_ms = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .filter_map(|e| e.get("dur").and_then(Value::as_f64))
            .sum::<f64>()
            / 1e3
    };
    Ok(vec![
        ("cli.load_ms", load_us / 1e3),
        ("core.tokenize_ms", total_ms("tokenize")),
        ("core.collapse_ms", total_ms("collapse")),
        ("core.lower_bound_ms", total_ms("lower_bound")),
        ("core.prune_ms", total_ms("prune")),
        ("cluster.embed_ms", total_ms("embed")),
        (
            "cluster.topr_dp_ms",
            total_ms("topr_dp") + total_ms("topr_dp.sparse"),
        ),
    ])
}

// ---- the run ---------------------------------------------------------------

fn journal_files(base: &Path) -> Vec<PathBuf> {
    let name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    std::fs::read_dir(base.parent().unwrap_or(Path::new(".")))
        .map(|dir| {
            dir.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .is_some_and(|f| f.to_string_lossy().starts_with(&name))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Median of each stage over the explained queries of one kind, and the
/// median of what the stages leave of `total_micros`.
fn stage_medians(profiles: &[(bool, Value)], approx: bool) -> (BTreeMap<String, f64>, f64) {
    let mut by_stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut rest = Vec::new();
    for (_, p) in profiles.iter().filter(|(a, _)| *a == approx) {
        let mut sum = 0.0;
        for st in p.get("stages").and_then(Value::as_arr).unwrap_or_default() {
            if let (Some(name), Some(micros)) = (
                st.get("stage").and_then(Value::as_str),
                st.get("micros").and_then(Value::as_f64),
            ) {
                by_stage.entry(name.to_string()).or_default().push(micros);
                sum += micros;
            }
        }
        if let Some(total) = p.get("total_micros").and_then(Value::as_f64) {
            rest.push(total - sum);
        }
    }
    let medians = by_stage
        .into_iter()
        .map(|(k, v)| (k, median_of(&v)))
        .collect();
    (
        medians,
        if rest.is_empty() {
            f64::NAN
        } else {
            median_of(&rest)
        },
    )
}

/// What only the per-layer metrics need from the live server, after both
/// hot halves: counter deltas, the ping round trip, the stage medians of
/// the explained queries `t` and whether they add up, and the settled
/// sweep.
fn traced_probes(
    a: &mut Conn,
    t: &MixOut,
    stats_before: &Value,
    stats_after: &Value,
    m: &mut BTreeMap<&'static str, f64>,
    tally: &mut Tally,
) -> Result<(), String> {
    // Counters over the plain mix and hot phases plus the traced
    // mix half; with fixed op counts they repeat exactly.
    for (name, key) in [
        ("engine.cache_hits", "cache_hits"),
        ("engine.cache_misses", "cache_misses"),
        ("engine.flushes", "flushes"),
        ("engine.shard_skips", "shard_skips"),
    ] {
        m.insert(name, counter(stats_after, key) - counter(stats_before, key));
    }

    // Ping: wire + dispatch with no engine work.
    let mut ping_us = Vec::with_capacity(10_000);
    for _ in 0..10_000 {
        let t0 = Instant::now();
        let ok = a.call("{\"cmd\":\"ping\"}\n").is_ok_and(is_ok);
        ping_us.push(us(t0.elapsed()));
        tally.op(ok, || "ping failed".into());
    }
    let ping = median_of(&ping_us);
    m.insert("server.ping_rtt_p50_us", ping);

    // Stage medians of the explained queries, and whether they add
    // up to what the client saw.
    let (exact, rest) = stage_medians(&t.profiles, false);
    let (approx, _) = stage_medians(&t.profiles, true);
    let stage = |set: &BTreeMap<String, f64>, name: &str| set.get(name).copied().unwrap_or(0.0);
    m.insert("engine.stage.lock_wait_us", stage(&exact, "lock_wait"));
    m.insert("engine.stage.flush_us", stage(&exact, "flush"));
    m.insert("engine.stage.build_views_us", stage(&exact, "build_views"));
    m.insert("engine.stage.merge_us", stage(&exact, "merge"));
    m.insert("engine.stage.sample_us", stage(&approx, "sample"));
    m.insert("engine.stage.escalate_us", stage(&approx, "escalate"));
    m.insert("engine.unattributed_us", rest);
    let accounted: f64 = exact.values().sum::<f64>() + rest;
    let seen = median_of(&t.fresh_us) - ping;
    m.insert(
        "engine.reconcile_gap_pct",
        100.0 * (seen - accounted) / seen,
    );
    if let Some((_, p)) = t.profiles.iter().rev().find(|(a, _)| *a) {
        let ap = p.get("approx");
        m.insert(
            "approx.escalated_partitions",
            ap.and_then(|a| a.get("escalated_partitions"))
                .and_then(Value::as_arr)
                .map_or(f64::NAN, |e| e.len() as f64),
        );
        m.insert(
            "approx.sample_size",
            ap.and_then(|a| a.get("sample_size"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
        );
    }

    // Settled sweep: views built, nothing pending, cache cold for
    // these k — a miss without a flush.
    let (mut miss_us, mut approx_us) = (Vec::new(), Vec::new());
    for k in 11..=50 {
        for (approx, samples) in [(None, &mut miss_us), (Some(EPSILON), &mut approx_us)] {
            let line = gen::query_line(k, approx, false, None);
            let t0 = Instant::now();
            call_ok(a, &line, tally)?;
            samples.push(us(t0.elapsed()));
        }
    }
    m.insert("engine.settled_miss_p50_us", median_of(&miss_us));
    m.insert("engine.settled_approx_p50_us", median_of(&approx_us));
    Ok(())
}

/// Snapshot, clean stop, and a fresh server restored from the file,
/// which must hold every acked record and give the same answers.
/// Returns the `snapshot.*` metrics.
fn snapshot_and_restore(
    server: Server,
    mut a: Conn,
    restore_spec: ServerSpec,
    total_records: usize,
    hot_lines: &[String],
    hot_expected: &[String],
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let snap = restore_spec
        .restore
        .as_ref()
        .ok_or("the restored server needs a snapshot path")?;
    let mut snap_line = String::from("{\"cmd\":\"snapshot\",\"path\":");
    json::push_string(&mut snap_line, &snap.display().to_string());
    snap_line.push_str("}\n");
    let t_snap = Instant::now();
    let reply = call_ok(&mut a, &snap_line, tally)?;
    let snap_ms = us(t_snap.elapsed()) / 1e3;
    tally.op(server.shutdown(&mut a).is_ok(), || {
        "server did not stop cleanly".into()
    });
    let (restored, mut r, restore_took) = restore_spec.spawn()?;
    let stats = stats_of(&mut r, tally)?;
    let held = stats.get("records").and_then(Value::as_u64).unwrap_or(0);
    tally.check(held == total_records as u64, || {
        format!("restored server holds {held} records, {total_records} were acked")
    });
    let got = ask_hot(&mut r, hot_lines, tally)?;
    tally.check(got == hot_expected, || {
        "answers after restore differ from those before the snapshot".into()
    });
    tally.op(restored.shutdown(&mut r).is_ok(), || {
        "restored server did not stop cleanly".into()
    });
    let bytes = json::parse(&reply)?
        .get("bytes")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    Ok(vec![
        ("snapshot.write_ms", snap_ms),
        ("snapshot.restore_s", restore_took.as_secs_f64()),
        ("snapshot.bytes_per_record", bytes / total_records as f64),
    ])
}

/// Verification against the replayed reference: the same ingests and
/// queries, in order, into an in-process one-shard engine.
fn verify_replay(
    plan: &Plan,
    inputs: &Inputs,
    mix_answers: &[String],
    hot_expected: &[String],
    tally: &mut Tally,
) -> Result<(), String> {
    let _sp = Span::enter("bench.replay");
    let replay = layers::Replay::new(plan.max_df)?;
    for chunk in inputs.corpus.rows.chunks(plan.load_batch) {
        replay.ingest(chunk.to_vec())?;
    }
    // The flush every recovered server did at its first query.
    let line = replay.topk(K, None)?;
    tally.check(inputs.after_load.contains(&line), || {
        "replayed reference disagrees with the batch reference".into()
    });
    for (i, (rows, got)) in inputs.burst_rows.iter().zip(mix_answers).enumerate() {
        replay.ingest(
            rows.iter()
                .map(|&r| inputs.corpus.rows[r].clone())
                .collect(),
        )?;
        let want = replay.topk(K, is_approx_tick(i).then_some(EPSILON))?;
        tally.check(&want == got, || {
            format!(
                "tick {i}: served {} but the replayed reference says {}",
                clip(got),
                clip(&want)
            )
        });
        tally.answer(got);
    }
    for (&k, got) in HOT_KS.iter().zip(hot_expected) {
        let want = replay.topk(k, None)?;
        tally.check(&want == got, || {
            format!(
                "hot k={k}: served {} but the replayed reference says {}",
                clip(got),
                clip(&want)
            )
        });
    }
    Ok(())
}

/// The measured phases and the verification. `traced` runs the same
/// phases with the mix and hot phases split into a plain and a traced
/// half (server spans on, `explain:true`, a span and a trace id per
/// request), adds the probes only the per-layer metrics need, and
/// times the layers in process.
pub fn run(plan: &Plan, inputs: &Inputs, env: &Env, traced: bool) -> Result<Outcome, String> {
    let mut tally = Tally::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();
    let journal = env.work.join("ingest.wal");
    for f in journal_files(&journal) {
        let _ = std::fs::remove_file(f);
    }
    let spec = ServerSpec {
        topk: env.topk.clone(),
        max_df: plan.max_df,
        journal: Some(journal.clone()),
        restore: None,
        log: env.work.join("server.log"),
    };
    let t_measured = Instant::now();
    // Seconds since the start at the end of each phase, for the notes.
    let mut marks: Vec<(&str, f64)> = Vec::new();
    let mut mark = |phase: &'static str| marks.push((phase, t_measured.elapsed().as_secs_f64()));

    // Load: closed loop, one connection, no query until it is all in.
    let (mut server, mut a, _) = spec.spawn()?;
    let mut load_ack_us = Vec::with_capacity(inputs.load_lines.len());
    let mut acked = 0usize;
    let t_load = Instant::now();
    for (line, &n) in inputs.load_lines.iter().zip(&inputs.load_counts) {
        let t = Instant::now();
        let reply = a.call(line).map_err(|e| format!("load batch: {e}"))?;
        load_ack_us.push(us(t.elapsed()));
        let ok = is_ok(reply);
        tally.op(ok, || format!("load batch -> {}", clip(reply)));
        if ok {
            acked += n;
        }
    }
    // Records per second of a full batch at its calm time, not of the
    // whole load: one connection, closed loop, so the load lasts as long
    // as its batches, and a slow fsync must not move the number.
    let full: Vec<f64> = load_ack_us
        .iter()
        .zip(&inputs.load_counts)
        .filter(|&(_, &n)| n == plan.load_batch)
        .map(|(&t, _)| t)
        .collect();
    m.insert(
        "ingest_rps",
        plan.load_batch as f64
            / (calm_p50(if full.is_empty() { &load_ack_us } else { &full }) / 1e6),
    );
    notes.push(format!(
        "load: {acked} records acked in {:.2} s",
        t_load.elapsed().as_secs_f64()
    ));
    mark("load");
    let hwm = server.vm_hwm_bytes()? as f64;
    m.insert("rss_bytes_per_record", hwm / acked.max(1) as f64);
    if traced {
        let stats = stats_of(&mut a, &mut tally)?;
        let est = stats
            .get("memory_bytes")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        m.insert("engine.rss_over_estimate", hwm / est);
        m.insert("journal.appends", counter(&stats, "journal_appends"));
        let per_shard: Vec<f64> = stats
            .get("shard_detail")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|s| Some(s.get("records")?.as_f64()? + s.get("pending")?.as_f64()?))
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        m.insert("shard.imbalance_pct", 100.0 * (max - mean) / mean);
        let bytes: u64 = journal_files(&journal)
            .iter()
            .filter_map(|f| f.metadata().ok())
            .map(|md| md.len())
            .sum();
        notes.push(format!("journal on disk after load: {bytes} bytes"));
    }

    // Crash and recover, several times over the same journal; each
    // restart replays every acked batch, and the first answer after it
    // pays one flush of the whole corpus.
    let k_at = HOT_KS
        .iter()
        .position(|&k| k == K)
        .ok_or("K must be one of HOT_KS")?;
    let query_k = &inputs.hot_lines[k_at];
    let (mut recover_s, mut first_ms) = (Vec::new(), Vec::new());
    let mut first_answer = String::new();
    for cycle in 0..plan.recover_cycles.max(1) {
        let t_kill = Instant::now();
        server.kill9();
        let (s, c, _) = spec.spawn()?;
        recover_s.push(t_kill.elapsed().as_secs_f64());
        (server, a) = (s, c);
        tally.attempted += 1; // the ping that found it up
        let t = Instant::now();
        let reply = call_ok(&mut a, query_k, &mut tally)?;
        first_ms.push(us(t.elapsed()) / 1e3);
        tally.check(reply == inputs.after_load[k_at], || {
            format!(
                "first answer after recovery {cycle} differs from the batch reference: {}",
                clip(&reply)
            )
        });
        first_answer = reply;
    }
    m.insert("recover_s", calm_low(&recover_s));
    m.insert("first_answer_ms", calm_low(&first_ms));
    let stats = stats_of(&mut a, &mut tally)?;
    let served = stats.get("records").and_then(Value::as_u64).unwrap_or(0);
    tally.check(served == acked as u64, || {
        format!("server holds {served} records after recovery, {acked} were acked")
    });
    for ((k, reply), want) in HOT_KS
        .iter()
        .zip(ask_hot(&mut a, &inputs.hot_lines, &mut tally)?)
        .zip(&inputs.after_load)
    {
        tally.check(&reply == want, || {
            format!(
                "topk k={k} after recovery differs from the batch reference: {}",
                clip(&reply)
            )
        });
        tally.answer(&reply);
    }
    // Regime guard on the served side.
    let groups = json::parse(&first_answer)?;
    let groups = groups
        .get("groups")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    let head = groups
        .first()
        .and_then(|g| g.get("size"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    tally.check(groups.len() >= K && head >= plan.min_head as u64, || {
        format!(
            "served regime guard: {} groups, top-1 of {head} members (need {K} and {})",
            groups.len(),
            plan.min_head
        )
    });

    mark("recover");

    // Mix: every query follows a write.
    let stats_before = stats_of(&mut a, &mut tally)?;
    let mut b = Conn::connect(&server.addr).map_err(|e| format!("query connection: {e}"))?;
    let ticks = inputs.burst_lines.len();
    let plain_ticks = if traced { ticks / 2 } else { ticks };
    let mut plain = mix(
        &mut a,
        &mut b,
        &inputs.burst_lines[..plain_ticks],
        0,
        false,
        &mut tally,
    )?;
    let mut mix_answers = std::mem::take(&mut plain.answers);
    let mut fresh_traced = None;
    if traced {
        layers::set_tracing(true);
        call_ok(&mut a, "{\"cmd\":\"trace\",\"enabled\":true}\n", &mut tally)?;
        let t = mix(
            &mut a,
            &mut b,
            &inputs.burst_lines[plain_ticks..],
            plain_ticks,
            true,
            &mut tally,
        )?;
        mix_answers.extend(t.answers.iter().cloned());
        fresh_traced = Some(t);
    }
    m.insert("fresh_query_p50_us", calm_p50(&plain.fresh_us));
    m.insert("fresh_approx_p50_us", calm_p50(&plain.approx_us));
    let acks = if plan.ack_from_load {
        &load_ack_us
    } else {
        &plain.ack_us
    };
    m.insert("ingest_ack_p50_us", calm_p50(acks));
    notes.push(format!(
        "samples: fresh {} approx {} ingest_ack {} (highest supported tail of fresh: {:?})",
        plain.fresh_us.len(),
        plain.approx_us.len(),
        acks.len(),
        stats::highest_supported_tail(plain.fresh_us.len()),
    ));
    let late_pct = plain.lateness.over_pct();
    let invalid = (late_pct > 1.0)
        .then(|| format!("{late_pct:.1} % of ticks started more than one period late"));
    if traced {
        m.insert(
            "fresh_query_p99_us",
            percentile(&sorted(plain.fresh_us.clone()), 99.0),
        );
        m.insert("ingest_ack_p99_us", percentile(&sorted(acks.clone()), 99.0));
        m.insert(
            "loadgen.late_p99_us",
            percentile(&sorted(plain.lateness.late_us.clone()), 99.0),
        );
        m.insert("loadgen.late_ticks_pct", late_pct);
        m.insert("loadgen.busy_pct", plain.busy_pct);
    }

    mark("mix");

    // Hot: the first query of each k fills the cache and fixes the
    // answer every later reply must equal.
    let hot_expected = ask_hot(&mut a, &inputs.hot_lines, &mut tally)?;
    for reply in &hot_expected {
        tally.check(!is_degraded(reply), || {
            format!("degraded answer: {}", clip(reply))
        });
        tally.answer(reply);
    }
    if traced {
        // Plain half first: server spans off again for it.
        call_ok(
            &mut a,
            "{\"cmd\":\"trace\",\"enabled\":false}\n",
            &mut tally,
        )?;
        layers::set_tracing(false);
    }
    let hot_plain = hot(
        &server.addr,
        &inputs.hot_lines,
        &hot_expected,
        plan.hot_requests / if traced { 2 } else { 1 },
        false,
        &mut tally,
    )?;
    m.insert("hot_query_p50_us", hot_plain.p50_us());
    m.insert("hot_qps", hot_plain.qps());
    if traced {
        m.insert("hot_query_p99_us", hot_plain.p99_us());
    }
    notes.push(format!(
        "samples: hot {} in segments of {HOT_SEGMENT} (highest supported tail of a segment {:?})",
        hot_plain.lat_us.len(),
        stats::highest_supported_tail(HOT_SEGMENT)
    ));
    let stats_after = stats_of(&mut a, &mut tally)?;

    if let Some(t) = &fresh_traced {
        // Hot, traced half.
        layers::set_tracing(true);
        call_ok(&mut a, "{\"cmd\":\"trace\",\"enabled\":true}\n", &mut tally)?;
        let hot_traced = hot(
            &server.addr,
            &inputs.hot_lines,
            &hot_expected,
            plan.hot_requests / 2,
            true,
            &mut tally,
        )?;
        let server_trace = env.out.join(format!("trace-{}-server.json", plan.name));
        let mut drain = String::from("{\"cmd\":\"trace\",\"enabled\":false,\"out\":");
        json::push_string(&mut drain, &server_trace.display().to_string());
        drain.push_str("}\n");
        call_ok(&mut a, &drain, &mut tally)?;
        layers::set_tracing(false);
        let overhead = |traced: &[f64], plain: &[f64]| {
            100.0 * (median_of(traced) - median_of(plain)) / median_of(plain)
        };
        m.insert(
            "trace.overhead_pct_hot",
            overhead(&hot_traced.lat_us, &hot_plain.lat_us),
        );
        m.insert(
            "trace.overhead_pct_fresh",
            overhead(&t.fresh_us, &plain.fresh_us),
        );

        traced_probes(&mut a, t, &stats_before, &stats_after, &mut m, &mut tally)?;
    }

    mark("hot");

    drop(b);
    let total_records = acked + inputs.burst_rows.iter().map(Vec::len).sum::<usize>();
    let restore_spec = ServerSpec {
        journal: None,
        restore: Some(env.work.join("state.snap")),
        ..spec
    };
    let restore = snapshot_and_restore(
        server,
        a,
        restore_spec,
        total_records,
        &inputs.hot_lines,
        &hot_expected,
        &mut tally,
    )?;
    if traced {
        m.extend(restore);
    }

    mark("restore");

    // Batch: the CLI on the leading rows of the same corpus.
    if traced {
        layers::set_tracing(true);
    }
    let b_out = batch(plan, inputs, env, traced, &mut tally)?;
    m.insert("batch_count_s", calm_low(&b_out.count_s));
    m.insert("batch_rank_s", calm_low(&b_out.rank_s));
    mark("batch");
    let measured_s = t_measured.elapsed().as_secs_f64();
    if traced {
        m.insert("approx.batch_count_ms", 1e3 * calm_low(&b_out.approx_s));
        m.extend(b_out.traced.iter().copied());
    }

    verify_replay(plan, inputs, &mix_answers, &hot_expected, &mut tally)?;

    if traced {
        let inp = layers::LayerInputs {
            rows: &inputs.corpus.rows,
            load_lines: &inputs.load_lines,
            load_batch: plan.load_batch,
            hot_lines: &inputs.hot_lines,
            answer_k10: &hot_expected[k_at],
            answer_k100: hot_expected.last().ok_or("no hot answers")?,
            max_df: plan.max_df,
            batch_rows: &inputs.corpus.rows[..inputs.batch_len],
            work: &env.work,
        };
        for (name, value) in layers::measure(&inp)? {
            m.insert(name, value);
        }
        let hit_ns = m.get("engine.hit_query_ns").copied().unwrap_or(f64::NAN);
        m.insert(
            "server.hit_overhead_us",
            m["hot_query_p50_us"] - hit_ns / 1e3,
        );
        m.insert(
            "failed_ops_pct",
            100.0 * tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        let trace = env.out.join(format!("trace-{}.json", plan.name));
        let spans = layers::write_trace(&trace)?;
        layers::set_tracing(false);
        for s in spans
            .iter()
            .filter(|s| s.name.starts_with("layer.") || s.name.starts_with("bench."))
        {
            notes.push(format!(
                "span {:<32} n={:<6} total {:>12.1} us  self {:>12.1} us",
                s.name, s.count, s.total_us, s.self_us
            ));
        }
        notes.push(format!("spans written to {}", trace.display()));
    }
    mark("verify");
    let mut from = 0.0;
    let phases: Vec<String> = marks
        .iter()
        .map(|&(phase, until)| {
            let took = until - from;
            from = until;
            format!("{phase} {took:.2}")
        })
        .collect();
    notes.push(format!("phase seconds: {}", phases.join(", ")));
    tally.failed = tally.failed.min(tally.attempted);
    Ok(Outcome {
        invalid,
        metrics: m,
        tally,
        notes,
        measured_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_answers_are_parsed_and_profile_lines_ignored() {
        let stdout = "# answer 1 (score 4.0)\n1\t1156.000\t287\tpwash blepraghy\n2\t454.000\t125\tfyober dranyar\n# profile\t{\"stages\":[]}\n";
        assert_eq!(
            answer_rows(stdout),
            vec![(1, "287".to_string()), (2, "125".to_string())]
        );
        assert!(!without_profile(stdout).contains("# profile"));
        assert!(without_profile(stdout).contains("fyober"));
    }

    #[test]
    fn stage_medians_split_exact_from_approx_and_keep_the_rest() {
        let p = |stages: &str, total: u32| {
            json::parse(&format!(
                r#"{{"stages":[{stages}],"total_micros":{total}}}"#
            ))
            .expect("json")
        };
        let profiles = vec![
            (
                false,
                p(
                    r#"{"stage":"flush","micros":10},{"stage":"merge","micros":2}"#,
                    15,
                ),
            ),
            (
                false,
                p(
                    r#"{"stage":"flush","micros":20},{"stage":"merge","micros":4}"#,
                    25,
                ),
            ),
            (
                false,
                p(
                    r#"{"stage":"flush","micros":30},{"stage":"merge","micros":6}"#,
                    41,
                ),
            ),
            (true, p(r#"{"stage":"sample","micros":100}"#, 101)),
        ];
        let (exact, rest) = stage_medians(&profiles, false);
        assert_eq!(exact["flush"], 20.0);
        assert_eq!(exact["merge"], 4.0);
        assert_eq!(rest, 3.0);
        let (approx, rest) = stage_medians(&profiles, true);
        assert_eq!(approx["sample"], 100.0);
        assert_eq!(rest, 1.0);
    }

    #[test]
    fn every_fifth_tick_is_the_approximate_one() {
        let approx: Vec<usize> = (0..12).filter(|&i| is_approx_tick(i)).collect();
        assert_eq!(approx, vec![4, 9]);
    }
}
