//! Cross-crate integration: query-type consistency (TopK count vs rank vs
//! thresholded) over a generated dataset with a deterministic scorer.

use topk_core::{ThresholdedRankQuery, TopKQuery, TopKRankQuery};
use topk_predicates::student_predicates;
use topk_records::{tokenize_dataset, FieldId, TokenizedRecord};

fn dataset() -> topk_records::Dataset {
    topk_datagen::generate_students(&topk_datagen::StudentConfig {
        n_students: 80,
        n_records: 400,
        ..Default::default()
    })
}

fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
    let name_sim = topk_text::sim::overlap_coefficient(
        a.field(FieldId(0)).qgrams3(),
        b.field(FieldId(0)).qgrams3(),
    );
    let clean = a.field(FieldId(2)).text == b.field(FieldId(2)).text
        && a.field(FieldId(3)).text == b.field(FieldId(3)).text;
    if clean {
        name_sim - 0.45
    } else {
        -1.0
    }
}

#[test]
fn count_query_shapes() {
    let d = dataset();
    let toks = tokenize_dataset(&d);
    let stack = student_predicates(d.schema());
    let res = TopKQuery::new(4, 3).run(&toks, &stack, &scorer);
    assert!(!res.answers.is_empty() && res.answers.len() <= 3);
    for ans in &res.answers {
        assert_eq!(ans.groups.len(), 4);
        // groups in an answer are disjoint
        let mut all: Vec<u32> = ans.groups.iter().flat_map(|g| g.records.clone()).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "answer groups overlap");
    }
    // best answer first
    for w in res.answers.windows(2) {
        assert!(w[0].score >= w[1].score - 1e-9);
    }
}

#[test]
fn rank_query_consistent_with_count_answer() {
    let d = dataset();
    let toks = tokenize_dataset(&d);
    let stack = student_predicates(d.schema());
    let count = TopKQuery::new(3, 1).run(&toks, &stack, &scorer);
    let rank = TopKRankQuery::new(3).run(&toks, &stack);
    // The count answer's heaviest group merges one or more surviving
    // units, so it must weigh at least as much as the heaviest unit —
    // which is exactly the rank query's first entry.
    let top_count = count.answers[0].groups[0].weight;
    let top_rank = rank.entries[0].weight;
    assert!(
        top_count >= top_rank - 1e-6,
        "top count group {top_count} lighter than top rank unit {top_rank}"
    );
    // Note the rank query's upper bounds certify groups that form
    // N-cliques (true duplicate groups always do); they do not bound
    // arbitrary chained merges of the final scorer, so no cross-check of
    // u against final group weights is valid here.
}

#[test]
fn thresholded_query_equals_weight_filter() {
    let d = dataset();
    let toks = tokenize_dataset(&d);
    let stack = student_predicates(d.schema());
    // Pick a threshold from the rank query's answer weights.
    let rank = TopKRankQuery::new(5).run(&toks, &stack);
    let t = rank.entries.last().map(|e| e.weight).unwrap_or(100.0);
    let thresh = ThresholdedRankQuery::new(t).run(&toks, &stack);
    // Every returned entry satisfies the threshold and ordering.
    for e in &thresh.entries {
        assert!(e.weight >= t);
        assert!(e.upper_bound >= e.weight - 1e-9);
    }
    for w in thresh.entries.windows(2) {
        assert!(w[0].weight >= w[1].weight);
    }
    // The rank query's entries at or above t appear in the thresholded
    // answer (same collapse machinery, same certain weights).
    let thresh_reps: std::collections::HashSet<u32> =
        thresh.entries.iter().map(|e| e.rep).collect();
    for e in rank.entries.iter().filter(|e| e.weight >= t) {
        assert!(
            thresh_reps.contains(&e.rep),
            "rank entry (weight {}) missing from thresholded answer",
            e.weight
        );
    }
}

#[test]
fn r_answers_are_distinct_and_plausible() {
    let d = dataset();
    let toks = tokenize_dataset(&d);
    let stack = student_predicates(d.schema());
    let res = TopKQuery::new(2, 4).run(&toks, &stack, &scorer);
    // distinct group compositions across answers
    let mut signatures = std::collections::HashSet::new();
    for ans in &res.answers {
        let mut sig: Vec<Vec<u32>> = ans
            .groups
            .iter()
            .map(|g| {
                let mut r = g.records.clone();
                r.sort_unstable();
                r
            })
            .collect();
        sig.sort();
        assert!(signatures.insert(sig), "duplicate answer returned");
    }
}
