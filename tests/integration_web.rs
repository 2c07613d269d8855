//! Cross-crate integration: the web-mention scenario end-to-end — track
//! the most frequently mentioned organization despite acronym and
//! truncation noise.

use topk_core::{TopKQuery, TopKRankQuery};
use topk_datagen::{generate_web_mentions, WebConfig};
use topk_predicates::web_predicates;
use topk_records::{tokenize_dataset, FieldId, TokenizedRecord};

fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
    let name = FieldId(0);
    let ctx = FieldId(1);
    let (na, nb) = (a.field(name), b.field(name));
    // surface-form similarity
    let surface = topk_text::sim::overlap_coefficient(na.qgrams3(), nb.qgrams3());
    // acronym bridge: one form is the initials string of the other
    let initials_of = |t: &str| -> String {
        t.split_whitespace()
            .filter_map(|w| w.chars().next())
            .collect()
    };
    let acro = na.text == initials_of(&nb.text) || nb.text == initials_of(&na.text);
    // context agreement
    let ctx_sim = topk_text::sim::jaccard(a.field(ctx).words(), b.field(ctx).words());
    if acro {
        0.3 + ctx_sim
    } else {
        surface + 0.5 * ctx_sim - 0.6
    }
}

#[test]
fn web_pipeline_finds_most_mentioned_org() {
    let data = generate_web_mentions(&WebConfig {
        n_orgs: 100,
        n_records: 1_000,
        ..Default::default()
    });
    let toks = tokenize_dataset(&data);
    let stack = web_predicates(data.schema());
    let truth = data.truth().unwrap();

    let res = TopKQuery::new(3, 1).run(&toks, &stack, &scorer);
    assert_eq!(res.answers[0].groups.len(), 3);
    // The heaviest answer group should be dominated by the true most
    // frequent organization.
    let true_sizes = truth.group_sizes();
    let top_group = &res.answers[0].groups[0];
    let mut by_entity = std::collections::HashMap::new();
    for &r in &top_group.records {
        *by_entity.entry(truth.label(r as usize)).or_insert(0usize) += 1;
    }
    let (_, majority) = by_entity
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(&e, &c)| (e, c))
        .unwrap();
    assert!(
        majority * 10 >= top_group.records.len() * 8,
        "top group should be >=80% one organization ({majority}/{})",
        top_group.records.len()
    );
    // and capture a decent share of that organization's true mentions
    assert!(
        top_group.records.len() * 3 >= true_sizes[0],
        "top group only has {} of the leader's ~{} mentions",
        top_group.records.len(),
        true_sizes[0]
    );
}

#[test]
fn web_rank_query_is_consistent() {
    let data = generate_web_mentions(&WebConfig {
        n_orgs: 80,
        n_records: 900,
        ..Default::default()
    });
    let toks = tokenize_dataset(&data);
    let stack = web_predicates(data.schema());
    let res = TopKRankQuery::new(5).run(&toks, &stack);
    assert!(!res.entries.is_empty());
    for w in res.entries.windows(2) {
        assert!(w[0].weight >= w[1].weight);
    }
    for e in &res.entries {
        assert!(e.upper_bound >= e.weight - 1e-9);
    }
}
