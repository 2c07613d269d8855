//! Cross-crate integration: the Figure-7 accuracy claim at test scale —
//! Embedding+Segmentation tracks the exact grouping far better than the
//! transitive-closure baseline.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use topk_cluster::{
    exact_correlation_clustering, greedy_embedding, segment_topk, transitive_closure,
    FeatureExtractor, PairScores, SegmentConfig,
};
use topk_datagen::{small_dataset, SmallDatasetKind};
use topk_records::{pairwise_f1, tokenize_dataset, FieldId, Partition};

#[test]
fn segmentation_matches_exact_grouping_on_address_sample() {
    // The smallest Table-1 dataset (306 records) keeps debug-mode
    // runtime reasonable.
    let data = small_dataset(SmallDatasetKind::Address, 3);
    let toks = tokenize_dataset(&data);
    let truth = data.truth().unwrap();

    // Train a logistic scorer on half the groups (paper §6.4).
    let fields: Vec<FieldId> = (0..data.schema().arity()).map(FieldId).collect();
    let fx = FeatureExtractor::new(fields, &toks);
    let mut examples = Vec::new();
    for (gi, g) in truth.groups().iter().enumerate() {
        if gi % 2 == 0 && g.len() >= 2 {
            for w in g.windows(2) {
                examples.push((fx.features(&toks[w[0]], &toks[w[1]]), true));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(9);
    let n = toks.len();
    let need = examples.len() * 3;
    let mut have = 0;
    while have < need {
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        if i != j && !truth.same_group(i, j) {
            examples.push((fx.features(&toks[i], &toks[j]), false));
            have += 1;
        }
    }
    let model = topk_cluster::LogisticModel::train(&examples, 200, 0.8, 1e-4);

    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j, model.score(&fx.features(&toks[i], &toks[j]))));
        }
    }
    let ps = PairScores::from_pairs(n, &pairs);

    let exact = exact_correlation_clustering(&ps);
    let order = greedy_embedding(&ps, 0.6);
    let permuted = ps.permute(&order);
    let answers = segment_topk(
        &permuted,
        &SegmentConfig {
            k: 0,
            r: 1,
            max_segment_len: 96,
        },
    );
    let seg_embedded = answers[0].partition();
    let mut labels = vec![0u32; n];
    for (pos, &orig) in order.iter().enumerate() {
        labels[orig as usize] = seg_embedded.label(pos);
    }
    let seg = Partition::from_labels(labels);
    let tc = transitive_closure(&ps);

    let f1_seg = pairwise_f1(&seg, &exact.partition).f1;
    let f1_tc = pairwise_f1(&tc, &exact.partition).f1;

    // Paper: segmentation ≥ 99% agreement with exact; closure 92-96%.
    assert!(
        f1_seg > 0.95,
        "segmentation F1 vs exact too low: {f1_seg:.3}"
    );
    assert!(
        f1_seg >= f1_tc - 0.01,
        "segmentation ({f1_seg:.3}) should not lose to closure ({f1_tc:.3})"
    );

    // And both should recover the ground truth reasonably well — the
    // scorer is trained on this very distribution.
    let f1_truth = pairwise_f1(&seg, truth).f1;
    assert!(f1_truth > 0.8, "segmentation vs truth: {f1_truth:.3}");
}
