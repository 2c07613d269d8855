//! What a run prints: the stamp that says which code on which machine
//! was measured, the one-line result of the driver contract, the table
//! for people, and the A/A summary.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::{self, push_string, Value};
use crate::lifecycle::Tally;
use crate::spec::{Better, MetricDef, Plan, Tier, END_TO_END, PER_LAYER};
use crate::stats::{median_of, quartiles, relative_spread};

/// The code and machine a result belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// `git rev-parse HEAD` of the tree that was measured, with `-dirty`
    /// appended when `git status --porcelain` lists anything; `unknown`
    /// outside a git checkout (the driver's checkout is one such).
    pub commit: String,
    pub nproc: usize,
}

fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim_end().to_string())
}

impl Stamp {
    pub fn of(tree: &Path) -> Stamp {
        let commit = match (
            git(tree, &["rev-parse", "HEAD"]),
            git(tree, &["status", "--porcelain"]),
        ) {
            (Some(head), Some(status)) if !head.is_empty() => {
                format!(
                    "{head}{}",
                    if status.trim().is_empty() {
                        ""
                    } else {
                        "-dirty"
                    }
                )
            }
            _ => "unknown".to_string(),
        };
        Stamp {
            commit,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

fn push_number(out: &mut String, v: f64) {
    // `{}` prints every digit needed to read the same f64 back.
    out.push_str(&format!("{v}"));
}

/// The metrics of `defs` from `values`, or the name of the first one
/// that is missing or not a finite number.
pub fn select<'a>(
    defs: &'a [MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'a MetricDef, f64)>, String> {
    defs.iter()
        .map(|d| match values.get(d.name) {
            Some(v) if v.is_finite() => Ok((d, *v)),
            Some(v) => Err(format!("metric {} is {v}", d.name)),
            None => Err(format!("metric {} was not measured", d.name)),
        })
        .collect()
}

/// The last line of standard output the driver reads.
pub fn contract_line(tally: &Tally, metrics: &[(&MetricDef, f64)]) -> String {
    let mut out = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_string(&mut out, def.name);
        out.push_str(r#": {"value": "#);
        push_number(&mut out, *value);
        out.push_str(r#", "unit": "#);
        push_string(&mut out, def.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// One result as a JSON object with its stamp, for `benchmark/out/`.
#[allow(clippy::too_many_arguments)]
pub fn result_json(
    stamp: &Stamp,
    plan: &Plan,
    tier: Tier,
    seed: u64,
    population: u64,
    seconds: u64,
    traced: bool,
    tally: &Tally,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let mut out = String::from("{\"commit\": ");
    push_string(&mut out, &stamp.commit);
    out.push_str(&format!(
        ", \"nproc\": {}, \"tier\": \"{}\", \"workload\": \"{}\", \"seed\": {seed}, \"population\": {population}, \"seconds\": {seconds}, \"traced\": {traced}",
        stamp.nproc,
        if tier == Tier::Smoke { "smoke" } else { "full" },
        plan.name,
    ));
    out.push_str(&format!(
        ", \"sizes\": {{\"entities\": {}, \"records\": {}, \"max_df\": {}, \"load_batch\": {}, \"recover_cycles\": {}, \"mix_ticks\": {}, \"hot_requests_per_conn\": {}, \"batch_rows\": {}, \"batch_reps\": {}}}",
        plan.entities, plan.records, plan.max_df, plan.load_batch, plan.recover_cycles, plan.mix_ticks, plan.hot_requests,
        if plan.batch_rows == usize::MAX { "\"all\"".to_string() } else { plan.batch_rows.to_string() },
        plan.batch_reps,
    ));
    out.push_str(&format!(
        ", \"answer_fnv\": \"{:016x}\", \"result\": ",
        tally.answer_fnv
    ));
    out.push_str(&contract_line(tally, metrics));
    out.push('}');
    out
}

/// `name  value unit` rows, aligned; a metric where more is better says so.
pub fn table(metrics: &[(&MetricDef, f64)]) -> String {
    let width = metrics.iter().map(|(d, _)| d.name.len()).max().unwrap_or(0);
    metrics
        .iter()
        .map(|(d, v)| {
            let note = match d.better {
                Better::Higher => "  (higher is better)",
                Better::Lower => "",
            };
            format!("  {:<width$}  {:>16.4} {}{note}\n", d.name, v, d.unit)
        })
        .collect()
}

/// The regression bound of each end-to-end metric, from
/// `BENCHMARK.json`.
pub fn bounds(contract: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(contract).map_err(|e| format!("{}: {e}", contract.display()))?;
    let v = json::parse(&text)?;
    v.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name} has no bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// A/A summary of repeated runs of one workload: per metric the median,
/// the quartiles and the spread between them as a share of the median,
/// judged against the metric's bound. Returns the text and how many
/// metrics were over. `setup_s` is reported but, as in the acceptance
/// rule, not judged.
pub fn aa_summary(
    workload: &str,
    runs: &[BTreeMap<&'static str, f64>],
    bounds: &BTreeMap<String, f64>,
) -> (String, usize) {
    let mut text = format!("A/A {workload}: {} runs\n", runs.len());
    let mut over = 0;
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get(def.name).copied())
            .collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, _, q3] = quartiles(&values);
        let spread = relative_spread(&values);
        let verdict = match bounds.get(def.name) {
            None => String::new(),
            Some(b) if def.name == "setup_s" => format!("bound {b} (not judged)"),
            Some(b) if spread > *b => {
                over += 1;
                format!("bound {b} EXCEEDED")
            }
            Some(b) if spread > b / 3.0 => format!("bound {b} ok, but over a third of it"),
            Some(b) => format!("bound {b} ok"),
        };
        text.push_str(&format!(
            "  {:<36} median {:>14.4} {:<9} q1 {:>14.4} q3 {:>14.4} spread {:>6.2} %  {verdict}\n",
            def.name,
            median_of(&values),
            def.unit,
            q1,
            q3,
            100.0 * spread,
        ));
    }
    (text, over)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(dir: &Path, args: &[&str]) {
        let ok = Command::new("git")
            .arg("-C")
            .arg(dir)
            .args([
                "-c",
                "user.name=t",
                "-c",
                "user.email=t@example.org",
                "-c",
                "commit.gpgsign=false",
            ])
            .args(args)
            .output()
            .expect("git runs")
            .status
            .success();
        assert!(ok, "git {args:?}");
    }

    #[test]
    fn stamp_names_head_and_flags_a_dirty_tree() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-stamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(Stamp::of(&dir.join("no-such-dir")).commit, "unknown");
        sh(&dir, &["init", "-q"]);
        std::fs::write(dir.join("a"), "1").expect("write");
        sh(&dir, &["add", "a"]);
        sh(&dir, &["commit", "-q", "-m", "one"]);
        let clean = Stamp::of(&dir).commit;
        assert_eq!(clean.len(), 40, "{clean}");
        assert!(clean.chars().all(|c| c.is_ascii_hexdigit()));
        std::fs::write(dir.join("a"), "2").expect("write");
        assert_eq!(Stamp::of(&dir).commit, format!("{clean}-dirty"));
        sh(&dir, &["commit", "-q", "-am", "two"]);
        let next = Stamp::of(&dir).commit;
        assert!(
            next != clean && !next.ends_with("-dirty"),
            "the stamp names the new HEAD, not its parent"
        );
        std::fs::write(dir.join("untracked"), "x").expect("write");
        assert!(
            Stamp::of(&dir).commit.ends_with("-dirty"),
            "an untracked file is dirt too"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_all_digits() {
        let metrics = [
            (&END_TO_END[0], 0.812_734_567_891_f64),
            (&END_TO_END[1], 41.0),
        ];
        let tally = Tally {
            attempted: 1000,
            failed: 0,
            problems: Vec::new(),
            answer_fnv: 0,
        };
        let line = contract_line(&tally, &metrics);
        let v = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = match &v {
            Value::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.path(&["metrics", "setup_s", "value"])
                .and_then(Value::as_f64),
            Some(0.812_734_567_891)
        );
        assert_eq!(
            v.path(&["metrics", "setup_s", "unit"])
                .and_then(Value::as_str),
            Some("s")
        );
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1000));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn select_refuses_missing_and_non_finite_values() {
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        assert_eq!(
            select(END_TO_END, &values).expect("complete").len(),
            END_TO_END.len()
        );
        values.insert("hot_qps", f64::NAN);
        assert!(select(END_TO_END, &values).unwrap_err().contains("hot_qps"));
        values.remove("hot_qps");
        assert!(select(END_TO_END, &values).unwrap_err().contains("hot_qps"));
    }

    #[test]
    fn aa_flags_a_spread_over_its_bound() {
        let run = |hot: f64| -> BTreeMap<&'static str, f64> {
            [("hot_qps", hot), ("setup_s", hot)].into_iter().collect()
        };
        let bounds: BTreeMap<String, f64> =
            [("hot_qps".to_string(), 0.1), ("setup_s".to_string(), 0.1)]
                .into_iter()
                .collect();
        let steady: Vec<_> = [100.0, 101.0, 100.5, 99.5, 100.2].map(run).to_vec();
        assert_eq!(aa_summary("w", &steady, &bounds).1, 0);
        let wild: Vec<_> = [100.0, 150.0, 60.0, 99.5, 130.0].map(run).to_vec();
        let (text, over) = aa_summary("w", &wild, &bounds);
        assert_eq!(over, 1, "setup_s is not judged: {text}");
        assert!(text.contains("EXCEEDED"));
    }
}
