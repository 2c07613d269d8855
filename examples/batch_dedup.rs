//! Whole-dataset deduplication (the conventional batch operation, §3)
//! and how the TopK pipeline relates to it.
//!
//! ```sh
//! cargo run -p topk-core --release --example batch_dedup
//! ```
//!
//! Deduplicates a product-offer feed, evaluates against ground truth
//! with both pairwise F1 and B-cubed, and then shows that the TopK query
//! reaches the same top groups while touching a fraction of the data.

use topk_core::{deduplicate, TopKQuery};
use topk_datagen::{generate_products, ProductConfig};
use topk_predicates::product_predicates;
use topk_records::{bcubed, pairwise_f1, tokenize_dataset, FieldId, TokenizedRecord};

fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
    let title = FieldId(0);
    let squash = |t: &str| -> String { t.chars().filter(|c| c.is_alphanumeric()).collect() };
    let (ta, tb) = (a.field(title), b.field(title));
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

fn main() {
    let data = generate_products(&ProductConfig {
        n_products: 400,
        n_records: 3_000,
        ..Default::default()
    });
    let toks = tokenize_dataset(&data);
    let stack = product_predicates(data.schema());
    let truth = data.truth().unwrap();
    println!(
        "{} product offers, {} true products",
        data.len(),
        truth.group_count()
    );

    // 1. Batch dedup: resolve everything.
    let t0 = std::time::Instant::now();
    let dedup = deduplicate(&toks, &stack, &scorer, -1.0);
    let dedup_time = t0.elapsed();
    let f1 = pairwise_f1(&dedup.partition, truth);
    let b3 = bcubed(&dedup.partition, truth);
    println!(
        "batch dedup: {} groups in {dedup_time:?} (exact: {}), pairwise F1 {:.1}%, B-cubed {:.1}%",
        dedup.partition.group_count(),
        dedup.exact,
        100.0 * f1.f1,
        100.0 * b3.f1,
    );

    // 2. TopK query: only the 5 most-reviewed products.
    let t1 = std::time::Instant::now();
    let topk = TopKQuery::new(5, 1).run(&toks, &stack, &scorer);
    let topk_time = t1.elapsed();
    println!(
        "topk query: answered in {topk_time:?}, pruned to {:.1}% of the data",
        topk.stats.final_pct()
    );
    println!("\nmost-reviewed products:");
    for (rank, g) in topk.answers[0].groups.iter().enumerate() {
        let rep = data.record(topk_records::RecordId(g.rep));
        println!(
            "  #{:<2} {:<30} {:>6.0} reviews across {} offers",
            rank + 1,
            rep.field(FieldId(0)),
            g.weight,
            g.records.len()
        );
    }

    // 3. Agreement: the TopK answer's top group matches the heaviest
    //    dedup group.
    let weights = data.weights();
    let dedup_top = dedup
        .partition
        .groups()
        .iter()
        .map(|g| g.iter().map(|&i| weights[i]).sum::<f64>())
        .fold(0.0f64, f64::max);
    println!(
        "\nheaviest dedup group: {:.0} reviews; topk top group: {:.0} — {}",
        dedup_top,
        topk.answers[0].groups[0].weight,
        if (dedup_top - topk.answers[0].groups[0].weight).abs() < 1e-6 {
            "they agree"
        } else {
            "they differ (ambiguous data)"
        }
    );
}
