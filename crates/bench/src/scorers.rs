//! Learned pairwise scorers for the experiments, trained from generator
//! ground truth exactly as the paper trains from labeled data (§6.1,
//! §6.4: a binary logistic classifier over string-similarity features,
//! trained on half the groups).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use topk_cluster::{FeatureExtractor, LogisticModel, PairScorer};
use topk_records::{Dataset, FieldId, TokenizedRecord};

/// A feature extractor + logistic model bundle with a calibrated
/// decision threshold.
pub struct LearnedScorer {
    fx: FeatureExtractor,
    model: LogisticModel,
    shift: f64,
}

impl PairScorer for LearnedScorer {
    fn score(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
        self.model.score(&self.fx.features(a, b)) - self.shift
    }
}

/// Train a scorer on 50% of the ground-truth groups (the paper's split),
/// over all schema fields.
pub fn train_scorer(data: &Dataset, toks: &[TokenizedRecord], seed: u64) -> LearnedScorer {
    let truth = data.truth().expect("training requires ground truth");
    let fields: Vec<FieldId> = (0..data.schema().arity()).map(FieldId).collect();
    let fx = FeatureExtractor::new(fields, toks);
    let mut rng = StdRng::seed_from_u64(seed);

    let groups = truth.groups();
    let train_groups: Vec<&Vec<usize>> = groups
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0) // 50% of the groups
        .map(|(_, g)| g)
        .collect();
    let mut examples = Vec::new();
    for g in train_groups.iter().filter(|g| g.len() >= 2).take(600) {
        for w in g.windows(2) {
            examples.push((fx.features(&toks[w[0]], &toks[w[1]]), true));
        }
        if g.len() >= 3 {
            examples.push((fx.features(&toks[g[0]], &toks[g[g.len() - 1]]), true));
        }
    }
    let n_pos = examples.len().max(1);
    let n = toks.len();
    // Easy negatives: random cross-entity pairs.
    let mut negs = 0;
    let mut guard = 0;
    while negs < n_pos * 3 && guard < n_pos * 100 {
        guard += 1;
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        if i != j && !truth.same_group(i, j) {
            examples.push((fx.features(&toks[i], &toks[j]), false));
            negs += 1;
        }
    }
    // Hard negatives: cross-entity pairs that *share tokens* (mined via
    // an inverted index on the first field's words and 3-grams). Random
    // negatives alone leave the classifier far too permissive on
    // near-miss pairs, which chains unrelated entities together under
    // transitive closure.
    let mut index = topk_text::InvertedIndex::new();
    let sets: Vec<topk_text::TokenSet> = toks
        .iter()
        .map(|t| {
            let f = t.field(FieldId(0));
            let mut all = f.words().as_slice().to_vec();
            all.extend_from_slice(f.qgrams3().as_slice());
            topk_text::TokenSet::from_tokens(all)
        })
        .collect();
    for (i, ts) in sets.iter().enumerate() {
        index.insert(i as u32, ts);
    }
    let mut hard = 0;
    let mut scan = 0;
    'outer: while hard < n_pos * 6 && scan < n * 4 {
        let i = rng.random_range(0..n);
        scan += 1;
        for j in index.candidates(&sets[i], 2, Some(i as u32)) {
            if !truth.same_group(i, j as usize) {
                examples.push((fx.features(&toks[i], &toks[j as usize]), false));
                hard += 1;
                if hard >= n_pos * 6 {
                    break 'outer;
                }
            }
        }
    }
    let model = LogisticModel::train(&examples, 400, 0.8, 1e-4);
    // Calibrate the decision threshold: the training pair distribution is
    // artificially balanced, but at query time non-duplicate pairs
    // outnumber duplicates ~n:1, so the raw logistic threshold leaks far
    // too many false positives into the transitive closure. Shift the
    // bias so at most 0.1% of training negatives score positive, but
    // never past the 25th percentile of positive scores.
    let mut neg_scores: Vec<f64> = examples
        .iter()
        .filter(|(_, y)| !*y)
        .map(|(x, _)| model.score(x))
        .collect();
    let mut pos_scores: Vec<f64> = examples
        .iter()
        .filter(|(_, y)| *y)
        .map(|(x, _)| model.score(x))
        .collect();
    neg_scores.sort_by(f64::total_cmp);
    pos_scores.sort_by(f64::total_cmp);
    let neg_q = neg_scores[((neg_scores.len() - 1) as f64 * 0.999) as usize];
    let pos_q = pos_scores[((pos_scores.len() - 1) as f64 * 0.25) as usize];
    let shift = neg_q.min(pos_q).max(0.0);
    LearnedScorer { fx, model, shift }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_records::tokenize_dataset;

    #[test]
    fn trained_scorer_separates_pairs() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 40,
            n_records: 200,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let scorer = train_scorer(&d, &toks, 5);
        let truth = d.truth().unwrap();
        // Aggregate check: mean score of duplicate pairs > mean of random
        // non-duplicate pairs.
        let mut dup = Vec::new();
        let mut non = Vec::new();
        for i in 0..toks.len() {
            for j in (i + 1)..toks.len().min(i + 40) {
                let s = scorer.score(&toks[i], &toks[j]);
                if truth.same_group(i, j) {
                    dup.push(s);
                } else {
                    non.push(s);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&dup) > mean(&non) + 0.5,
            "dup {} non {}",
            mean(&dup),
            mean(&non)
        );
    }
}
