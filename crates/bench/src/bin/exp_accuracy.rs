//! Experiment: accuracy of the R highest-scoring answers — regenerates
//! the paper's Table 1 (dataset inventory) and Figure 7 (pairwise F1 of
//! Embedding+Segmentation and TransitiveClosure against the exact
//! grouping).
//!
//! ```sh
//! cargo run -p topk-bench --release --bin exp_accuracy -- [seed]
//! ```
//!
//! The exact comparator is our branch-and-bound/DP correlation-clustering
//! solver (DESIGN.md §3) standing in for the paper's LP; like the paper,
//! we only score against instances solved provably optimally.

use topk_bench::{accuracy_suite, train_scorer, Table};
use topk_cluster::{
    agglomerate, exact_correlation_clustering, frontier_topr, greedy_embedding, segment_topk,
    transitive_closure, Linkage, PairScorer, PairScores, SegmentConfig,
};
use topk_records::{pairwise_f1, tokenize_dataset, Partition};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);

    let mut table1 = Table::new(vec![
        "Name",
        "# Records",
        "# Groups (truth)",
        "# Groups exact",
    ]);
    let mut fig7 = Table::new(vec![
        "Dataset",
        "Embedding+Segmentation F1",
        "TransitiveClosure F1",
        "HierarchyFrontier F1 (ext)",
        "exact?",
    ]);

    for (kind, data) in accuracy_suite(seed) {
        let toks = tokenize_dataset(&data);
        let scorer = train_scorer(&data, &toks, seed);
        let n = toks.len();
        // Dense pair scores (these datasets are small by construction).
        let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j, scorer.score(&toks[i], &toks[j])));
            }
        }
        let ps = PairScores::from_pairs(n, &pairs);

        // Exact grouping (the paper's LP stand-in).
        let exact = exact_correlation_clustering(&ps);

        // Embedding + segmentation (§5.3).
        let order = greedy_embedding(&ps, 0.6);
        let permuted = ps.permute(&order);
        let answers = segment_topk(
            &permuted,
            &SegmentConfig {
                k: 0,
                r: 1,
                max_segment_len: 128,
            },
        );
        // Map the segmentation back to original record indices.
        let seg_part_embedded = answers[0].partition();
        let mut labels = vec![0u32; n];
        for (pos, &orig) in order.iter().enumerate() {
            labels[orig as usize] = seg_part_embedded.label(pos);
        }
        let seg_partition = Partition::from_labels(labels);

        // Baseline.
        let tc = transitive_closure(&ps);

        // Extension: §5.2 hierarchical frontier enumeration.
        let dendrogram = agglomerate(&ps, Linkage::Average);
        let frontier = frontier_topr(&dendrogram, &ps, 1)
            .pop()
            .map(|(_, p)| p)
            .unwrap_or_else(|| Partition::from_labels(vec![0; n]));

        let f1_seg = pairwise_f1(&seg_partition, &exact.partition).f1;
        let f1_tc = pairwise_f1(&tc, &exact.partition).f1;
        let f1_frontier = pairwise_f1(&frontier, &exact.partition).f1;

        table1.row(vec![
            kind.name().to_string(),
            data.len().to_string(),
            data.truth().unwrap().group_count().to_string(),
            exact.partition.group_count().to_string(),
        ]);
        fig7.row(vec![
            kind.name().to_string(),
            format!("{:.1}", 100.0 * f1_seg),
            format!("{:.1}", 100.0 * f1_tc),
            format!("{:.1}", 100.0 * f1_frontier),
            if exact.exact { "yes" } else { "no" }.to_string(),
        ]);
        println!(
            "{}: segmentation F1 {:.2}% vs closure F1 {:.2}% (exact solve: {})",
            kind.name(),
            100.0 * f1_seg,
            100.0 * f1_tc,
            exact.exact
        );
    }

    println!("\nTable 1 (datasets for comparing with exact algorithms):\n{table1}");
    println!("Figure 7 (accuracy of highest scoring grouping vs optimal, pairwise F1 %):\n{fig7}");
}
