//! Exact-vs-approximate differential smoke: run the full sampled
//! estimator path (`crates/approx`, `docs/APPROX.md`) against the exact
//! incremental collapse on a generated skewed corpus and compare the
//! top-k rank for rank.
//!
//! Shared by `exp_approx` (both the ε sweep and `--smoke`) and the
//! tier-1 test below, so `cargo test -q` fails whenever escalation
//! stops making the approximate top-k exact on the smoke corpus.

use topk_approx::ApproxGroup;
use topk_core::{FinalGroup, IncrementalDedup};
use topk_predicates::{collapse_partition_key, SufficientPredicate};
use topk_records::{FieldId, TokenizedRecord};

/// Exact baseline: incremental collapse over the whole corpus, top-k
/// prefix of the sorted group list.
pub fn exact_topk(
    toks: &[TokenizedRecord],
    s_pred: &dyn SufficientPredicate,
    k: usize,
) -> Vec<FinalGroup> {
    let mut inc = IncrementalDedup::new();
    for t in toks {
        inc.insert(t.clone(), s_pred);
    }
    let mut groups = inc.groups();
    groups.truncate(k);
    groups
}

/// Rank-for-rank agreement with the exact answer. Escalated entries ran
/// the same collapse, so their representative must match exactly;
/// estimated entries are judged by blocking partition (the estimator's
/// representative can be a different member of the same group).
pub fn topk_matches(
    exact: &[FinalGroup],
    approx: &[ApproxGroup],
    toks: &[TokenizedRecord],
    field: FieldId,
) -> bool {
    exact.len() == approx.len()
        && exact.iter().zip(approx).all(|(e, a)| {
            let etext = &toks[e.rep as usize].field(field).text;
            if a.escalated {
                *etext == a.rep_text
            } else {
                collapse_partition_key(etext) == collapse_partition_key(&a.rep_text)
            }
        })
}

/// Mean relative error of the approximate weights over matched ranks.
pub fn mean_rel_err(exact: &[FinalGroup], approx: &[ApproxGroup]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (e, a) in exact.iter().zip(approx) {
        if e.weight > 0.0 {
            total += (a.estimate - e.weight).abs() / e.weight;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_records::tokenize_dataset;

    /// Tier-1: the exact configuration `exp_approx --smoke` gates CI on
    /// — with escalation on, the approximate top-10 of the smoke corpus
    /// must equal the exact top-10.
    #[test]
    fn smoke_config_approx_topk_matches_exact() {
        let n_records = 4_000;
        let k = 10;
        let data = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: (n_records / 5).max(50),
            n_records,
            zipf_exponent: 1.1,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let field = data.schema().field_id("name").expect("student name field");
        let stack = topk_service::generic_stack(&toks, field, 30, 0.6);
        let s_pred = stack.levels[0].0.as_ref();
        let exact = exact_topk(&toks, s_pred, k);
        assert_eq!(exact.len(), k, "smoke corpus has at least {k} groups");
        let ans = topk_approx::approx_topk(&toks, field, s_pred, k, 0.1);
        assert!(
            !ans.escalated_partitions.is_empty(),
            "a contested K-boundary must escalate"
        );
        let top = ans.top;
        assert!(
            topk_matches(&exact, &top, &toks, field),
            "approximate top-{k} disagrees with exact on the smoke corpus"
        );
        let err = mean_rel_err(&exact, &top);
        assert!(err < 0.05, "matched ranks drifted {err:.4} in weight");
    }
}
