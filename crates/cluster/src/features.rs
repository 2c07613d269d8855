//! Similarity feature extraction for the learned pairwise scorer.
//!
//! The paper (§6.1, §6.4) feeds "standard string similarity functions such
//! as Jaccard and TF-IDF similarity at the level of words and N-grams",
//! JaroWinkler on name fields, and two custom author/co-author
//! similarities into a binary logistic classifier. This module computes
//! that feature vector.

use std::sync::Arc;

use topk_records::{FieldId, TokenizedRecord};
use topk_text::sim::{jaccard, jaro_winkler, overlap_coefficient, tfidf_cosine, weighted_jaccard};
use topk_text::tokenize::{initials_match, last_word};
use topk_text::CorpusStats;

/// Number of features produced per field.
pub const FEATURES_PER_FIELD: usize = 9;

/// Extracts a fixed-length similarity vector for a record pair.
pub struct FeatureExtractor {
    fields: Vec<FieldId>,
    /// Word-level corpus stats per configured field (for IDF features).
    stats: Vec<Arc<CorpusStats>>,
}

impl FeatureExtractor {
    /// Build an extractor over `fields`, computing corpus statistics from
    /// `corpus` for the IDF-weighted features.
    pub fn new(fields: Vec<FieldId>, corpus: &[TokenizedRecord]) -> Self {
        let stats = fields
            .iter()
            .map(|&f| {
                Arc::new(CorpusStats::from_documents(
                    corpus.iter().map(|r| r.field(f).words()),
                ))
            })
            .collect();
        FeatureExtractor { fields, stats }
    }

    /// Dimensionality of the produced vectors.
    pub fn dim(&self) -> usize {
        self.fields.len() * FEATURES_PER_FIELD
    }

    /// The feature vector for a pair.
    ///
    /// Per field: word Jaccard, 3-gram Jaccard, word overlap coefficient,
    /// Jaro-Winkler of the raw text, TF-IDF cosine of words, the paper's
    /// custom similarity (1.0 on exact full match, otherwise the max IDF
    /// of a matching word scaled to `[0, 1]`), IDF-weighted Jaccard,
    /// last-word agreement (Jaro-Winkler of the final words — the surname
    /// signal that separates "takukun supel" from "takukun desaya"), and
    /// an exact initials-multiset-match flag.
    pub fn features(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        for (k, &f) in self.fields.iter().enumerate() {
            let (fa, fb) = (a.field(f), b.field(f));
            let stats = &self.stats[k];
            out.push(jaccard(fa.words(), fb.words()));
            out.push(jaccard(fa.qgrams3(), fb.qgrams3()));
            out.push(overlap_coefficient(fa.words(), fb.words()));
            out.push(jaro_winkler(&fa.text, &fb.text));
            // cosine can exceed 1 by a few ulps on identical inputs
            out.push(tfidf_cosine(fa.words(), fb.words(), stats).clamp(0.0, 1.0));
            out.push(custom_name_similarity(fa, fb, stats));
            out.push(weighted_jaccard(fa.words(), fb.words(), stats).clamp(0.0, 1.0));
            out.push(match (last_word(&fa.text), last_word(&fb.text)) {
                (Some(x), Some(y)) => jaro_winkler(x, y),
                _ => 0.0,
            });
            out.push(f64::from(initials_match(&fa.text, &fb.text)));
        }
        out
    }
}

/// The paper's custom author similarity (§6.1.1): 1 when full names match
/// exactly; otherwise the maximum IDF of a matching word, scaled to a
/// maximum value of 1.
fn custom_name_similarity(
    fa: &topk_records::TokenizedField,
    fb: &topk_records::TokenizedField,
    stats: &CorpusStats,
) -> f64 {
    if !fa.text.is_empty() && fa.text == fb.text {
        return 1.0;
    }
    let max_idf = stats.max_idf();
    if max_idf <= 0.0 {
        return 0.0;
    }
    fa.words()
        .intersection(fb.words())
        .map(|t| stats.idf(t) / max_idf)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    fn extractor(corpus: &[TokenizedRecord]) -> FeatureExtractor {
        FeatureExtractor::new(vec![FieldId(0)], corpus)
    }

    #[test]
    fn identical_records_score_high() {
        let corpus = vec![rec("alpha beta"), rec("gamma delta"), rec("zeta eta")];
        let fx = extractor(&corpus);
        let f = fx.features(&corpus[0], &corpus[0]);
        assert_eq!(f.len(), FEATURES_PER_FIELD);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(f[0], 1.0); // word jaccard
        assert_eq!(f[5], 1.0); // custom similarity, exact match
    }

    #[test]
    fn disjoint_records_score_zero_overlap() {
        let corpus = vec![rec("alpha beta"), rec("gamma delta")];
        let fx = extractor(&corpus);
        let f = fx.features(&corpus[0], &corpus[1]);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[2], 0.0);
        assert_eq!(f[5], 0.0);
    }

    #[test]
    fn rare_shared_word_beats_common_shared_word() {
        let corpus = vec![
            rec("the rarename"),
            rec("the common"),
            rec("the common"),
            rec("the common"),
        ];
        let fx = extractor(&corpus);
        let rare = fx.features(&rec("x rarename"), &rec("y rarename"))[5];
        let common = fx.features(&rec("x the"), &rec("y the"))[5];
        assert!(rare > common);
    }

    #[test]
    fn dim_matches_fields() {
        let corpus = vec![TokenizedRecord::from_fields(&["a".into(), "b".into()], 1.0)];
        let fx = FeatureExtractor::new(vec![FieldId(0), FieldId(1)], &corpus);
        assert_eq!(fx.dim(), 2 * FEATURES_PER_FIELD);
        assert_eq!(fx.features(&corpus[0], &corpus[0]).len(), fx.dim());
    }
}
