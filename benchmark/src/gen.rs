//! Inputs, all from the two seeds: the corpus rows in arrival order,
//! the mix-phase bursts, and every request line, encoded once here so
//! the timed phases only write bytes.
//!
//! `population` seeds `topk-datagen` and so fixes *who* is in the
//! corpus and in which order the records arrive. `--seed` fixes the
//! *traffic*: which spelling of a trending entity every burst
//! re-mentions, and which tail rows ride along. They are separate
//! because the program's cost is chaotic in the population (at a fixed
//! size the time of one `topk count` differs by 3x between populations)
//! and sensitive to arrival order (replaying the citations corpus in
//! another order moved `recover_s` by 30 %, see README): inputs that
//! changed wholesale with every `--seed` would bury a 10 % bound in input
//! noise. `--population N` is there to check another one.

use topk_datagen::{generate_citations, generate_students, CitationConfig, StudentConfig};

use crate::json::push_string;
use crate::spec::{CorpusKind, Plan, BURST, HOT_ENTITIES, HOT_SHARE_PCT};

/// Field texts and weight of one record, as a client sends them.
pub type Row = (Vec<String>, f64);

/// SplitMix64: a seeded stream for shuffles and draws, so the traffic
/// depends on nothing but `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1); the modulo bias is far below what
    /// any measurement here resolves.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub struct Corpus {
    pub field_names: Vec<String>,
    /// Rows in arrival order.
    pub rows: Vec<Row>,
    /// True entity of each row, same order.
    pub labels: Vec<u32>,
}

/// Generate the plan's corpus; rows arrive in the generator's order.
pub fn corpus(plan: &Plan, population: u64) -> Corpus {
    let data = match plan.corpus {
        CorpusKind::Students => generate_students(&StudentConfig {
            n_students: plan.entities,
            n_records: plan.records,
            seed: population,
            ..Default::default()
        }),
        CorpusKind::Citations => generate_citations(&CitationConfig {
            n_authors: plan.entities,
            n_citations: plan.records,
            seed: population,
            ..Default::default()
        }),
    };
    let truth = data.truth().expect("generators label every record");
    Corpus {
        field_names: data.schema().field_names().to_vec(),
        rows: data
            .records()
            .iter()
            .map(|r| (r.fields().to_vec(), r.weight()))
            .collect(),
        labels: truth.labels().to_vec(),
    }
}

/// The mix-phase bursts: each is [`BURST`] rows of the corpus sent
/// again, [`HOT_SHARE_PCT`] percent of them mentions of one of the
/// [`HOT_ENTITIES`] most-mentioned entities (each mention one of the
/// noisy spellings that entity already has), the rest drawn from all
/// rows — which, the rows being Zipf-sampled, is the Zipf tail. Who
/// trends is a property of the population; the seed draws the rows.
pub fn bursts(corpus: &Corpus, ticks: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut by_entity: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (i, &l) in corpus.labels.iter().enumerate() {
        by_entity.entry(l).or_default().push(i);
    }
    // Stable sort over the label order: the same entities every time.
    let mut ranked: Vec<&Vec<usize>> = by_entity.values().collect();
    ranked.sort_by_key(|rows| std::cmp::Reverse(rows.len()));
    let hot = &ranked[..ranked.len().min(HOT_ENTITIES)];
    let mut rng = Rng::new(seed ^ 0xb0b5_7e57);
    (0..ticks)
        .map(|_| {
            (0..BURST)
                .map(|_| {
                    if rng.next_u64() % 100 < HOT_SHARE_PCT {
                        let rows = hot[rng.below(hot.len())];
                        rows[rng.below(rows.len())]
                    } else {
                        rng.below(corpus.rows.len())
                    }
                })
                .collect()
        })
        .collect()
}

/// `{"cmd":"ingest","batch":[...]}` for `rows`, newline included.
pub fn ingest_line<'a>(rows: impl IntoIterator<Item = &'a Row>) -> String {
    let mut line = String::from(r#"{"cmd":"ingest","batch":["#);
    for (n, (fields, weight)) in rows.into_iter().enumerate() {
        if n > 0 {
            line.push(',');
        }
        line.push_str(r#"{"fields":["#);
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_string(&mut line, f);
        }
        // `{}` prints the shortest text that parses back to the same
        // f64, so the server holds exactly the weight the reference does.
        line.push_str(&format!(r#"],"weight":{weight}}}"#));
    }
    line.push_str("]}\n");
    line
}

/// A `topk` request line. `trace` stamps a client-chosen id the server
/// copies into its `service.request` span; `explain` asks for the stage
/// profile. Neither changes the answer bytes before the `profile`
/// member.
pub fn query_line(k: usize, approx: Option<f64>, explain: bool, trace: Option<&str>) -> String {
    let mut line = format!(r#"{{"cmd":"topk","k":{k}"#);
    if let Some(eps) = approx {
        line.push_str(&format!(r#","approx":{eps}"#));
    }
    if explain {
        line.push_str(r#","explain":true"#);
    }
    if let Some(id) = trace {
        line.push_str(r#","trace":"#);
        push_string(&mut line, id);
    }
    line.push_str("}\n");
    line
}

/// The batch input file: a header naming the weight column the way
/// topk-written TSVs do, then one row per record.
pub fn tsv(field_names: &[String], rows: &[Row]) -> String {
    let mut out = String::from("__weight");
    for f in field_names {
        out.push('\t');
        out.push_str(f);
    }
    out.push('\n');
    for (fields, weight) in rows {
        out.push_str(&format!("{weight}"));
        for f in fields {
            out.push('\t');
            debug_assert!(
                !f.contains(['\t', '\n']),
                "generated text has no separators"
            );
            out.push_str(f);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::spec::{plan, Tier};

    #[test]
    fn same_seeds_same_inputs_and_each_seed_moves_its_own_part() {
        let p = plan("serve_trending_mix", Tier::Smoke).expect("plan");
        let a = corpus(&p, 1);
        let b = corpus(&p, 1);
        assert_eq!(a.rows, b.rows);
        assert_eq!(bursts(&a, 12, 7), bursts(&b, 12, 7));
        assert_ne!(
            bursts(&a, 12, 7),
            bursts(&a, 12, 8),
            "another seed, other bursts"
        );
        let d = corpus(&p, 2);
        assert_ne!(a.rows, d.rows, "another population, other records");
    }

    #[test]
    fn bursts_lean_on_the_hot_entities() {
        let p = plan("serve_trending_mix", Tier::Smoke).expect("plan");
        let c = corpus(&p, 1);
        let bs = bursts(&c, 50, 1);
        assert!(bs.iter().all(|b| b.len() == BURST));
        let mut count: std::collections::HashMap<u32, usize> = Default::default();
        for &i in bs.iter().flatten() {
            *count.entry(c.labels[i]).or_default() += 1;
        }
        let mut top: Vec<usize> = count.values().copied().collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        let hot: usize = top.iter().take(HOT_ENTITIES).sum();
        assert!(
            hot * 100 >= 60 * 50 * BURST,
            "hot share {hot} of {}",
            50 * BURST
        );
    }

    #[test]
    fn request_lines_are_the_documented_shapes() {
        let rows = vec![
            (vec!["a \"b\"".to_string(), "c\\d".to_string()], 0.1 + 0.2),
            (vec!["e".to_string(), String::new()], 3.0),
        ];
        let line = ingest_line(&rows);
        assert!(line.ends_with("]}\n"));
        let v = parse(line.trim_end()).expect("valid JSON");
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("ingest"));
        let batch = v.get("batch").and_then(Value::as_arr).expect("batch");
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch[0].get("weight").and_then(Value::as_f64),
            Some(0.1 + 0.2)
        );
        let f0 = batch[0]
            .get("fields")
            .and_then(Value::as_arr)
            .expect("fields");
        assert_eq!(f0[0].as_str(), Some("a \"b\""));
        assert_eq!(f0[1].as_str(), Some("c\\d"));
        assert_eq!(
            query_line(10, None, false, None),
            "{\"cmd\":\"topk\",\"k\":10}\n"
        );
        let q = query_line(10, Some(0.1), true, Some("t1"));
        let v = parse(q.trim_end()).expect("valid JSON");
        assert_eq!(v.get("approx").and_then(Value::as_f64), Some(0.1));
        assert_eq!(v.get("explain"), Some(&Value::Bool(true)));
        assert_eq!(v.get("trace").and_then(Value::as_str), Some("t1"));
    }

    #[test]
    fn tsv_has_weight_column_first() {
        let text = tsv(
            &["name".to_string(), "year".to_string()],
            &[(vec!["x y".to_string(), "1999".to_string()], 2.5)],
        );
        assert_eq!(text, "__weight\tname\tyear\n2.5\tx y\t1999\n");
    }
}
