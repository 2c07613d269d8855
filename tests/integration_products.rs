//! Cross-crate integration: the comparison-shopping scenario — which
//! products have the most (review-weighted) offers, despite model-number
//! re-segmentation.

use topk_core::{deduplicate, TopKQuery};
use topk_datagen::{generate_products, ProductConfig};
use topk_predicates::product_predicates;
use topk_records::{pairwise_f1, tokenize_dataset, FieldId, TokenizedRecord};

fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
    let title = FieldId(0);
    let squash = |t: &str| -> String { t.chars().filter(|c| c.is_alphanumeric()).collect() };
    let (ta, tb) = (a.field(title), b.field(title));
    // model-number bridge: squashed prefix agreement
    let (sa, sb) = (squash(&ta.text), squash(&tb.text));
    let prefix = sa
        .chars()
        .zip(sb.chars())
        .take_while(|(x, y)| x == y)
        .count();
    let prefix_frac = prefix as f64 / sa.len().min(sb.len()).max(1) as f64;
    let gram = topk_text::sim::overlap_coefficient(ta.qgrams3(), tb.qgrams3());
    0.5 * prefix_frac + 0.5 * gram - 0.62
}

#[test]
fn product_topk_finds_popular_products() {
    let data = generate_products(&ProductConfig {
        n_products: 100,
        n_records: 800,
        ..Default::default()
    });
    let toks = tokenize_dataset(&data);
    let stack = product_predicates(data.schema());
    let truth = data.truth().unwrap();
    let res = TopKQuery::new(3, 1).run(&toks, &stack, &scorer);
    assert_eq!(res.answers[0].groups.len(), 3);
    // top group is dominated by one product
    let top = &res.answers[0].groups[0];
    let mut by_entity = std::collections::HashMap::new();
    for &r in &top.records {
        *by_entity.entry(truth.label(r as usize)).or_insert(0usize) += 1;
    }
    let max = by_entity.values().copied().max().unwrap();
    assert!(
        max * 10 >= top.records.len() * 8,
        "top product group only {max}/{} pure",
        top.records.len()
    );
}

#[test]
fn product_dedup_beats_surface_grouping() {
    let data = generate_products(&ProductConfig {
        n_products: 80,
        n_records: 500,
        ..Default::default()
    });
    let toks = tokenize_dataset(&data);
    let stack = product_predicates(data.schema());
    let truth = data.truth().unwrap();
    let res = deduplicate(&toks, &stack, &scorer, -1.0);
    let f1 = pairwise_f1(&res.partition, truth).f1;
    // Surface-exact grouping (titles equal) as the naive baseline.
    let mut by_title = std::collections::HashMap::new();
    let mut next = 0u32;
    let labels: Vec<u32> = data
        .records()
        .iter()
        .map(|r| {
            *by_title
                .entry(r.field(FieldId(0)).to_string())
                .or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                })
        })
        .collect();
    let naive = topk_records::Partition::from_labels(labels);
    let f1_naive = pairwise_f1(&naive, truth).f1;
    assert!(
        f1 > f1_naive,
        "dedup F1 {f1:.3} should beat exact-title grouping {f1_naive:.3}"
    );
    assert!(f1 > 0.75, "dedup F1 {f1:.3} too low");
}
