//! Every call the benchmark makes into the program's own crates is in
//! this file: the reference answers the served and batch outputs are
//! checked against, the per-layer timings of the traced run, and the
//! span recorder with its Chrome export. The end-to-end phases
//! (`lifecycle.rs`) reach the program only through its binary.
//!
//! A layer is a module of the program; each timing below is a span
//! around calls to that module's public functions on the inputs the
//! workload really sends.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use topk_approx::{estimate_groups, merge_sketches, sample_size, Population, Sketch};
use topk_core::{IncrementalDedup, Parallelism, PipelineConfig, PrunedDedup, PruningMode};
use topk_obs::SpanRecord;
use topk_records::{FieldId, TokenizedRecord};
use topk_service::json::{obj, Json};
use topk_service::overload::record_bytes;
use topk_service::protocol::{ok_response, parse_request_meta};
use topk_service::{generic_stack, Engine, EngineConfig, JournalSet, ShardRouter};
use topk_text::normalize::normalize;

pub use topk_obs::Span;

use crate::gen::Row;
use crate::spec::{EPSILON, HOT_KS, K, SHARDS};

/// The match field: the first column, as the CLI and the server default.
const FIELD: FieldId = FieldId(0);
/// `--min-overlap` default, shared by `topk serve` and `topk count`.
const MIN_OVERLAP: f64 = 0.6;

// ---- spans ---------------------------------------------------------------

/// Turn span recording on or off for this process — the benchmark's own
/// spans and those inside any library call made from here.
pub fn set_tracing(on: bool) {
    topk_obs::span::set_enabled(on);
}

/// Total and self time of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    pub name: String,
    pub count: usize,
    pub total_us: f64,
    /// Total minus the part its child spans cover.
    pub self_us: f64,
}

/// Self time needs the nesting, which the recorder does not store: on
/// one thread a span is the child of the innermost span that contains
/// it in time.
fn totals(spans: &[SpanRecord]) -> Vec<SpanTotal> {
    let mut order: Vec<&SpanRecord> = spans.iter().collect();
    order.sort_by_key(|s| (s.tid, s.ts_ns, std::cmp::Reverse(s.dur_ns)));
    let mut by_name: std::collections::BTreeMap<&str, (usize, u64, i128)> = Default::default();
    let mut open: Vec<&SpanRecord> = Vec::new();
    for s in order {
        while open
            .last()
            .is_some_and(|p| p.tid != s.tid || p.ts_ns + p.dur_ns < s.ts_ns + s.dur_ns)
        {
            open.pop();
        }
        if let Some(parent) = open.last() {
            by_name.entry(parent.name).or_default().2 -= i128::from(s.dur_ns);
        }
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 += i128::from(s.dur_ns);
        open.push(s);
    }
    by_name
        .into_iter()
        .map(|(name, (count, total, own))| SpanTotal {
            name: name.to_string(),
            count,
            total_us: total as f64 / 1e3,
            self_us: own.max(0) as f64 / 1e3,
        })
        .collect()
}

/// Drain every recorded span, write them as one Chrome trace to `path`
/// and return the per-name totals.
pub fn write_trace(path: &Path) -> Result<Vec<SpanTotal>, String> {
    let spans = topk_obs::span::take_spans();
    std::fs::write(path, topk_obs::chrome_trace(&spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(totals(&spans))
}

// ---- reference answers ---------------------------------------------------

fn tokenize(rows: &[Row]) -> Vec<TokenizedRecord> {
    rows.iter()
        .map(|(fields, weight)| {
            let normalized: Vec<String> = fields.iter().map(|f| normalize(f)).collect();
            TokenizedRecord::from_fields(&normalized, *weight)
        })
        .collect()
}

fn render_topk(groups: &[topk_core::FinalGroup], toks: &[TokenizedRecord], k: usize) -> String {
    let items: Vec<Json> = groups
        .iter()
        .take(k)
        .enumerate()
        .map(|(rank, g)| {
            obj(vec![
                ("rank", Json::Num((rank + 1) as f64)),
                ("weight", Json::Num(g.weight)),
                ("size", Json::Num(g.members.len() as f64)),
                ("rep_id", Json::Num(g.rep as f64)),
                (
                    "rep",
                    Json::Str(toks[g.rep as usize].field(FIELD).text.clone()),
                ),
            ])
        })
        .collect();
    ok_response(obj(vec![("groups", Json::Arr(items))]))
}

/// The `topk` answer lines for [`HOT_KS`] that a server must give once
/// `rows` are all ingested and nothing was queried in between, from the
/// batch pipeline over the same rows — a grouping computed from scratch
/// by `PrunedDedup`, not by the incremental collapse the server keeps.
///
/// The batch run stops after the collapse stage: the served `topk` is
/// the k heaviest collapsed groups, and bound + prune over 40 000 rows
/// take over a minute for the same k groups. With `also_pruned` the
/// full Algorithm 2 runs too and must agree (the smoke tier does this,
/// where it is cheap): pruning never drops a TopK group.
pub fn answers_after_load(
    rows: &[Row],
    max_df: u32,
    also_pruned: bool,
) -> Result<Vec<String>, String> {
    let _sp = Span::enter("bench.reference");
    let toks = tokenize(rows);
    let stack = generic_stack(&toks, FIELD, max_df, MIN_OVERLAP);
    let run = |k: usize, mode: PruningMode| {
        PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k,
                refine_iterations: 2,
                mode,
                parallelism: Parallelism::sequential(),
            },
        )
        .run()
    };
    let k_max = HOT_KS.iter().copied().max().unwrap_or(K);
    let collapsed = run(k_max, PruningMode::CanopyCollapse);
    let lines: Vec<String> = HOT_KS
        .iter()
        .map(|&k| render_topk(&collapsed.groups, &toks, k))
        .collect();
    if also_pruned {
        for (&k, line) in HOT_KS.iter().zip(&lines) {
            let pruned = render_topk(&run(k, PruningMode::Full).groups, &toks, k);
            if &pruned != line {
                return Err(format!(
                    "reference disagrees with itself at k={k}: collapse-only and pruned batch runs differ"
                ));
            }
        }
    }
    Ok(lines)
}

/// An in-process, one-shard engine that is fed the very sequence of
/// ingests and queries the server got: the reference for answers given
/// between writes, where the batch pipeline is not (records collapsed
/// by an earlier query keep their decisions, `docs/SERVICE.md`, *The
/// drift caveat*).
pub struct Replay {
    engine: Engine,
}

impl Replay {
    pub fn new(max_df: u32) -> Result<Replay, String> {
        Ok(Replay {
            engine: Engine::new(EngineConfig {
                max_df,
                min_overlap: MIN_OVERLAP,
                parallelism: Parallelism::sequential(),
                shards: 1,
                ..Default::default()
            })?,
        })
    }

    pub fn ingest(&self, rows: Vec<Row>) -> Result<u64, String> {
        self.engine.ingest(rows)
    }

    /// The reply line the server owes for this `topk`.
    pub fn topk(&self, k: usize, approx: Option<f64>) -> Result<String, String> {
        self.engine
            .query_with(false, k, approx, false, None)
            .map(ok_response)
    }
}

// ---- per-layer timings ---------------------------------------------------

/// What the layer timings run on: the workload's own inputs.
pub struct LayerInputs<'a> {
    pub rows: &'a [Row],
    /// The load phase's request lines and how many rows each carries.
    pub load_lines: &'a [String],
    pub load_batch: usize,
    /// The hot phase's request lines, one per [`HOT_KS`].
    pub hot_lines: &'a [String],
    /// Captured served answers for k = 10 and k = 100.
    pub answer_k10: &'a str,
    pub answer_k100: &'a str,
    pub max_df: u32,
    /// Rows of the batch TSV.
    pub batch_rows: &'a [Row],
    /// A directory of the benchmark's own for the journal files.
    pub work: &'a Path,
}

fn per(total: std::time::Duration, n: usize, unit_ns: f64) -> f64 {
    total.as_nanos() as f64 / unit_ns / n.max(1) as f64
}

/// Time the public functions of each layer. Every block is one span, so
/// the trace file shows the same numbers with their nesting.
pub fn measure(inp: &LayerInputs) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let n = inp.rows.len();

    // text / records: what ingest does to a row before any lock.
    let normalized: Vec<Vec<String>> = {
        let _sp = Span::enter("layer.text.normalize");
        let t = Instant::now();
        let v: Vec<Vec<String>> = inp
            .rows
            .iter()
            .map(|(fields, _)| fields.iter().map(|f| normalize(f)).collect())
            .collect();
        out.push(("text.normalize_ns_per_record", per(t.elapsed(), n, 1.0)));
        v
    };
    let toks: Vec<TokenizedRecord> = {
        let _sp = Span::enter("layer.records.tokenize");
        let t = Instant::now();
        let v: Vec<TokenizedRecord> = normalized
            .iter()
            .zip(inp.rows)
            .map(|(fields, (_, w))| TokenizedRecord::from_fields(fields, *w))
            .collect();
        out.push(("records.tokenize_ns_per_record", per(t.elapsed(), n, 1.0)));
        v
    };
    drop(normalized);
    let est: u64 = toks.iter().map(record_bytes).sum();
    out.push(("records.est_bytes_per_record", est as f64 / n.max(1) as f64));

    // shard: routing, and the partition keys the sketches need.
    let router = ShardRouter::new(SHARDS);
    let routes: Vec<usize> = {
        let _sp = Span::enter("layer.shard.route");
        let t = Instant::now();
        let v: Vec<usize> = toks
            .iter()
            .map(|t| router.route(&t.field(FIELD).text))
            .collect();
        out.push(("shard.route_ns_per_record", per(t.elapsed(), n, 1.0)));
        v
    };

    // protocol: the server's parse of the very lines the client sends.
    {
        let _sp = Span::enter("layer.protocol.parse_query");
        let reps = 20_000usize;
        let t = Instant::now();
        for i in 0..reps {
            let line = &inp.hot_lines[i % inp.hot_lines.len()];
            black_box(parse_request_meta(black_box(line.trim_end())).map_err(|e| e.message)?);
        }
        out.push(("protocol.parse_query_ns", per(t.elapsed(), reps, 1.0)));
    }
    {
        let _sp = Span::enter("layer.protocol.parse_ingest");
        let t = Instant::now();
        for line in inp.load_lines {
            black_box(parse_request_meta(black_box(line.trim_end())).map_err(|e| e.message)?);
        }
        out.push((
            "protocol.parse_ingest_us_per_batch",
            per(t.elapsed(), inp.load_lines.len(), 1e3),
        ));
    }

    // json: rendering a captured answer body back to its line.
    for (name, answer) in [
        ("json.render_answer_ns_k10", inp.answer_k10),
        ("json.render_answer_ns_k100", inp.answer_k100),
    ] {
        let _sp = Span::enter("layer.json.render");
        let body = topk_service::json::parse(answer)?;
        let reps = 5_000usize;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(black_box(&body).to_string());
        }
        out.push((name, per(t.elapsed(), reps, 1.0)));
    }

    // journal: the appends of the load phase into files of our own,
    // then the replay a restart pays.
    {
        let base = inp.work.join("layer.wal");
        for i in 0..SHARDS {
            let _ = std::fs::remove_file(topk_service::journal::segment_path(&base, i));
        }
        let (set, _) = JournalSet::open(&base, SHARDS)?;
        let batches: Vec<Vec<Vec<topk_service::Row>>> = inp
            .rows
            .chunks(inp.load_batch.max(1))
            .enumerate()
            .map(|(b, chunk)| {
                let mut per_segment: Vec<Vec<topk_service::Row>> = vec![Vec::new(); SHARDS];
                for (i, (fields, w)) in chunk.iter().enumerate() {
                    let rid = b * inp.load_batch + i;
                    per_segment[routes[rid]].push((rid as u64, fields.clone(), *w));
                }
                per_segment
            })
            .collect();
        {
            let _sp = Span::enter("layer.journal.append");
            let t = Instant::now();
            for b in &batches {
                set.append_sharded(b)?;
            }
            out.push((
                "journal.append_us_per_batch",
                per(t.elapsed(), batches.len(), 1e3),
            ));
        }
        out.push((
            "journal.bytes_per_record",
            set.len_bytes() as f64 / n.max(1) as f64,
        ));
        drop(set);
        let _sp = Span::enter("layer.journal.replay_open");
        let t = Instant::now();
        let (set, recovery) = JournalSet::open(&base, SHARDS)?;
        out.push(("journal.replay_open_ms", per(t.elapsed(), 1, 1e6)));
        if recovery.rows.len() != n {
            return Err(format!(
                "journal replay read {} of {n} rows",
                recovery.rows.len()
            ));
        }
        drop(set);
        for i in 0..SHARDS {
            let _ = std::fs::remove_file(topk_service::journal::segment_path(&base, i));
        }
    }

    // engine: the same ingest and queries without wire or process.
    let new_engine = || {
        Engine::new(EngineConfig {
            max_df: inp.max_df,
            min_overlap: MIN_OVERLAP,
            shards: SHARDS,
            ..Default::default()
        })
    };
    {
        let engine = new_engine()?;
        {
            let _sp = Span::enter("layer.engine.ingest");
            let chunks: Vec<Vec<Row>> = inp
                .rows
                .chunks(inp.load_batch.max(1))
                .map(<[Row]>::to_vec)
                .collect();
            let batches = chunks.len();
            let t = Instant::now();
            for chunk in chunks {
                engine.ingest(chunk)?;
            }
            out.push(("engine.ingest_us_per_batch", per(t.elapsed(), batches, 1e3)));
        }
        {
            let _sp = Span::enter("layer.engine.cold_query");
            let t = Instant::now();
            black_box(engine.query_topk(K)?);
            out.push(("engine.cold_query_ms", per(t.elapsed(), 1, 1e6)));
        }
        let _sp = Span::enter("layer.engine.hit_query");
        let reps = 50_000usize;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(engine.query_topk(black_box(K))?);
        }
        out.push(("engine.hit_query_ns", per(t.elapsed(), reps, 1.0)));
    }
    {
        // The served rank query is too slow for a timed workload at
        // full size; this guards it on a prefix.
        let engine = new_engine()?;
        engine.ingest(inp.rows[..n.min(8_000)].to_vec())?;
        let _sp = Span::enter("layer.engine.topr_cold");
        let t = Instant::now();
        black_box(engine.query_topr(K)?);
        out.push(("engine.topr_cold_ms_8k", per(t.elapsed(), 1, 1e6)));
    }

    // incremental: the collapse a flush runs, and the group listing a
    // view build starts from, under the settled statistics.
    let stack = generic_stack(&toks, FIELD, inp.max_df, MIN_OVERLAP);
    let s_pred = stack.levels[0].0.as_ref();
    {
        let mut inc = IncrementalDedup::new();
        let owned = toks.clone();
        {
            let _sp = Span::enter("layer.incremental.insert");
            let t = Instant::now();
            for tok in owned {
                inc.insert(tok, s_pred);
            }
            out.push(("incremental.insert_ns_per_record", per(t.elapsed(), n, 1.0)));
        }
        let _sp = Span::enter("layer.incremental.groups");
        let t = Instant::now();
        let groups = inc.groups();
        out.push(("incremental.groups_ms", per(t.elapsed(), 1, 1e6)));
        out.push(("incremental.group_count", groups.len() as f64));
    }

    // approx: per-shard sketches, their merge, and the estimator.
    {
        let mut sketches: Vec<Sketch> = (0..SHARDS).map(|_| Sketch::with_defaults()).collect();
        {
            let _sp = Span::enter("layer.approx.offer");
            let t = Instant::now();
            for (gid, tok) in toks.iter().enumerate() {
                sketches[routes[gid]].offer(
                    gid as u64,
                    ShardRouter::key(&tok.field(FIELD).text),
                    tok,
                );
            }
            out.push(("approx.offer_ns_per_record", per(t.elapsed(), n, 1.0)));
        }
        let m = sample_size(EPSILON);
        let sample = {
            let _sp = Span::enter("layer.approx.merge_sketches");
            let t = Instant::now();
            let s = merge_sketches(sketches.iter(), m);
            out.push(("approx.merge_sketches_us", per(t.elapsed(), 1, 1e3)));
            s
        };
        let max_weight = toks.iter().map(TokenizedRecord::weight).fold(0.0, f64::max);
        let _sp = Span::enter("layer.approx.estimate");
        let t = Instant::now();
        black_box(estimate_groups(
            &sample,
            Population {
                n: n as u64,
                max_weight,
            },
            FIELD,
            s_pred,
        ));
        out.push(("approx.estimate_ms", per(t.elapsed(), 1, 1e6)));
    }

    // core: how much of the batch file the prune lets the DP skip.
    {
        let _sp = Span::enter("layer.core.pruned_dedup");
        let btoks = tokenize(inp.batch_rows);
        let bstack = generic_stack(&btoks, FIELD, inp.max_df, MIN_OVERLAP);
        let outcome = PrunedDedup::new(
            &btoks,
            &bstack,
            PipelineConfig {
                k: K,
                refine_iterations: 2,
                mode: PruningMode::Full,
                parallelism: Parallelism::sequential(),
            },
        )
        .run();
        let it = outcome
            .stats
            .iterations
            .first()
            .ok_or("batch pipeline ran no iteration")?;
        out.push(("core.groups_after_collapse", it.n_after_collapse as f64));
        out.push(("core.groups_after_prune", it.n_after_prune as f64));
        out.push(("core.lower_bound_m", it.lower_bound));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, ts: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name,
            ts_ns: ts,
            dur_ns: dur,
            tid,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("outer", 1, 0, 100_000),
            span("inner", 1, 10_000, 30_000),
            span("inner", 1, 50_000, 20_000),
            span("leaf", 1, 55_000, 5_000),
            // Same times on another thread: not a child of `outer`.
            span("inner", 2, 10_000, 30_000),
        ];
        let t = totals(&spans);
        let get = |n: &str| t.iter().find(|s| s.name == n).cloned().expect("present");
        assert_eq!(get("outer").self_us, 50.0);
        assert_eq!(get("outer").total_us, 100.0);
        assert_eq!(get("inner").count, 3);
        assert_eq!(get("inner").total_us, 80.0);
        assert_eq!(get("inner").self_us, 75.0);
        assert_eq!(get("leaf").self_us, 5.0);
    }
}
